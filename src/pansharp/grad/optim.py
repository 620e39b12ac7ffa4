"""Adam optimizer with bias correction, at the published recipe's
constants; the recipe uses no weight decay."""

from __future__ import annotations

import numpy as np

from .tensor import DTYPE, Tensor

BETAS = (0.9, 0.999)
EPS = 1e-8


class AdamState:
    """First/second moment buffers plus the shared step counter."""

    def __init__(self, params: list[Tensor]):
        self.step = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]


def adam_step(params: list[Tensor], state: AdamState, lr: float) -> None:
    """One in-place Adam update over params (order must match the state)."""
    if len(params) != len(state.m):
        raise ValueError(
            f"adam_step: {len(params)} params but state holds {len(state.m)}")
    b1, b2 = BETAS
    state.step += 1
    corr1 = 1.0 - b1 ** state.step
    corr2 = 1.0 - b2 ** state.step
    for i, p in enumerate(params):
        if p.grad is None:
            raise ValueError(f"adam_step: param {i} has no gradient")
        g = p.grad
        m, v = state.m[i], state.v[i]
        m *= DTYPE(b1)
        m += DTYPE(1.0 - b1) * g
        v *= DTYPE(b2)
        v += DTYPE(1.0 - b2) * np.square(g)
        m_hat = m / DTYPE(corr1)
        v_hat = v / DTYPE(corr2)
        p.data -= DTYPE(lr) * m_hat / (np.sqrt(v_hat) + DTYPE(EPS))
