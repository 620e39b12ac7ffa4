"""Minimal reverse-mode autodiff engine used by the fusion network."""

from .layers import (
    avgpool2d,
    bilinear_upsample,
    conv2d,
    conv2d_transpose,
    maxpool2d,
    pixel_shuffle,
)
from .optim import AdamState, adam_step
from .rng import SplitMix64, derive_seed, kaiming_uniform
from .tensor import (
    DTYPE,
    Rows,
    Tape,
    Tensor,
    add,
    backward,
    concat,
    divide_by_constant,
    l1_loss,
    mul,
    relu,
    row_pieces,
    scale,
    sigmoid,
    tensor_sum,
    zero_grads,
)

__all__ = [
    "DTYPE", "Rows", "Tape", "Tensor", "add", "mul", "scale", "divide_by_constant",
    "tensor_sum", "relu", "row_pieces", "sigmoid", "concat", "l1_loss", "backward",
    "zero_grads", "conv2d", "conv2d_transpose", "maxpool2d", "avgpool2d",
    "pixel_shuffle", "bilinear_upsample",
    "AdamState", "adam_step", "SplitMix64", "derive_seed", "kaiming_uniform",
]
