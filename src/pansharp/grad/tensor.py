"""Reverse-mode autodiff over float32 numpy arrays.

A Tensor wraps an ndarray plus an optional gradient buffer. Differentiable
operations run eagerly and, while a Tape is active, append a backward
closure to it. The tape's record order is execution order, which is a
topological order of the graph by construction; ``backward(loss)`` walks it
once in reverse and empties it as it goes: a tape serves one backward pass,
and a second one on it raises.

Only leaves (tensors no recorded op produced: parameters and inputs) carry
``.grad`` after ``backward``; their gradients add up across calls until
explicitly reset. A recorded op's output gets a gradient slot instead, which
the tape holds and which is emptied as soon as the walk has passed it back to
the op's inputs, so intermediates and the loss have ``.grad is None``. Each
backward closure keeps its inputs' slots plus exactly the arrays it reads,
not the input or output Tensors, so an activation lives only as long as some
backward still needs it.

Each worker owns at most one active tape; nothing here is thread-safe.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

DTYPE = np.float32


class Tape:
    """Ordered record of executed differentiable operations."""

    _stack: list["Tape"] = []

    def __init__(self):
        self._nodes: list[tuple[_Slot, Callable[[np.ndarray], None]]] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        Tape._stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        Tape._stack.pop()

    def __len__(self) -> int:
        return len(self._nodes)

    @classmethod
    def active(cls) -> "Tape | None":
        return cls._stack[-1] if cls._stack else None

    def record(self, out: "Tensor", backward_fn: Callable[[np.ndarray], None]) -> None:
        out._slot = _Slot(out.shape)
        self._nodes.append((out._slot, backward_fn))
        out.requires_grad = True
        out.tape = self

    def run_backward(self, loss: "Tensor") -> None:
        if self._consumed:
            raise ValueError(
                "backward: the tape was consumed by an earlier backward "
                "(run the forward pass again inside a new `with Tape():`)"
            )
        if loss.size != 1:
            raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
        loss.accumulate_grad(np.ones_like(loss.data))
        # Reverse execution order; every recorded operation is visited once.
        # Popping a node drops its closure and the arrays only it read, and
        # its output's gradient leaves the slot before the closure runs, so
        # each is freed once the closure has used it.
        nodes = self._nodes
        while nodes:
            slot, backward_fn = nodes.pop()
            g, slot.grad = slot.grad, None
            if g is not None:
                backward_fn(g)
        self._consumed = True


class _Slot:
    """The gradient of one recorded op's output: what the tape and the
    backward closures hold in place of the output Tensor."""

    __slots__ = ("grad", "shape")

    def __init__(self, shape: tuple[int, ...]):
        self.grad: np.ndarray | None = None
        self.shape = shape

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros(self.shape, dtype=DTYPE)
        self.grad += g


class Tensor:
    """float32 array with an optional accumulated gradient."""

    __slots__ = ("data", "grad", "requires_grad", "tape", "_slot")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=DTYPE)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.tape: Tape | None = None
        self._slot: _Slot | None = None

    # -- bookkeeping ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def slot(self) -> "_Slot | Tensor":
        """Where this tensor's gradient accumulates: the slot its recorded
        op got, or, for a leaf, the tensor itself.  A property, because a
        stored ``self`` would make every tensor a reference cycle that only
        the cyclic collector frees."""
        return self if self._slot is None else self._slot

    def accumulate_grad(self, g: np.ndarray) -> None:
        _Slot.accumulate_grad(self.slot, g)  # a leaf is its own slot

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        backward(self)

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar ---------------------------------------------------

    # Another operand is not ours to take: Python then raises a TypeError
    # that names the operator.
    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other) if isinstance(other, Tensor) else NotImplemented

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other) if isinstance(other, Tensor) else NotImplemented

    def sum(self) -> "Tensor":
        return tensor_sum(self)


def _record(out: Tensor, inputs: Sequence[Tensor], backward_fn) -> Tensor:
    tape = Tape.active()
    if tape is not None and any(t.requires_grad for t in inputs):
        tape.record(out, backward_fn)
    return out


def _grad_slot(t: Tensor) -> "_Slot | Tensor | None":
    """The slot a backward adds t's gradient into; None if t needs none."""
    return t.slot if t.requires_grad else None


def _check_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        for axis, (da, db) in enumerate(zip(a.shape, b.shape)):
            if da != db:
                raise ValueError(
                    f"{op}: operands differ along axis {axis} ({da} vs {db}); "
                    f"shapes {a.shape} and {b.shape}"
                )
        raise ValueError(f"{op}: operand ranks differ: {a.shape} vs {b.shape}")


# -- pointwise and reduction operations -----------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("add", a, b)
    out = Tensor(a.data + b.data)
    sa, sb = _grad_slot(a), _grad_slot(b)

    def backward_fn(g: np.ndarray) -> None:
        if sa is not None:
            sa.accumulate_grad(g)
        if sb is not None:
            sb.accumulate_grad(g)

    return _record(out, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("mul", a, b)
    out = Tensor(a.data * b.data)
    sa, sb, a_data, b_data = _grad_slot(a), _grad_slot(b), a.data, b.data

    def backward_fn(g: np.ndarray) -> None:
        if sa is not None:
            sa.accumulate_grad(g * b_data)
        if sb is not None:
            sb.accumulate_grad(g * a_data)

    return _record(out, (a, b), backward_fn)


def divide_by_constant(x: Tensor, denom: np.ndarray) -> Tensor:
    """x / denom with denom held constant; gradient is g / denom."""
    out = Tensor(x.data / denom)
    sx = x.slot

    def backward_fn(g: np.ndarray) -> None:
        sx.accumulate_grad(g / denom)

    return _record(out, (x,), backward_fn)


def scale(a: Tensor, s: float) -> Tensor:
    out = Tensor(a.data * DTYPE(s))
    sa = a.slot

    def backward_fn(g: np.ndarray) -> None:
        sa.accumulate_grad(g * DTYPE(s))

    return _record(out, (a,), backward_fn)


def tensor_sum(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum(dtype=np.float64))
    sa, shape = a.slot, a.shape

    def backward_fn(g: np.ndarray) -> None:
        sa.accumulate_grad(np.broadcast_to(g, shape).astype(DTYPE))

    return _record(out, (a,), backward_fn)


def relu(a: Tensor) -> Tensor:
    # fmax maps NaN and -0.0 to +0.0, as a masked select would, so the
    # output is positive exactly where the input is: the backward reads the
    # output, which the next op usually keeps anyway, and not the input.
    out = Tensor(np.fmax(a.data, 0))
    sa, y = a.slot, out.data

    def backward_fn(g: np.ndarray) -> None:
        sa.accumulate_grad(g * (y > 0))  # gradient is zero at exactly 0

    return _record(out, (a,), backward_fn)


def sigmoid(a: Tensor) -> Tensor:
    # exp of a non-positive argument cannot overflow, so no warning is
    # raised at any input, the infinities included, and NaN stays NaN.
    e = np.exp(-np.abs(a.data))
    s = np.where(a.data >= 0, DTYPE(1), e) / (1 + e)
    out = Tensor(s)
    sa = a.slot

    def backward_fn(g: np.ndarray) -> None:
        sa.accumulate_grad(g * s * (1.0 - s))

    return _record(out, (a,), backward_fn)


class Concat(Tensor):
    """The result of ``concat``: it keeps its parts and reports the
    concatenated shape.  Its array is built, once, only when ``.data`` is
    read; ``conv2d`` reads the parts in place instead, so the network
    never builds one."""

    __slots__ = ("parts", "_shape", "_array")

    def __init__(self, parts: tuple[Tensor, ...], shape: tuple[int, ...]):
        self.parts = parts
        self._shape = shape
        self._array: np.ndarray | None = None
        self.grad = None
        self.requires_grad = False
        self.tape = None
        self._slot = None

    @property
    def data(self) -> np.ndarray:
        if self._array is None:
            self._array = np.concatenate([t.data for t in self.parts], axis=1)
        return self._array

    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    @property
    def size(self) -> int:
        return math.prod(self._shape)


def concat(tensors: Sequence[Tensor]) -> Tensor:
    """Join tensors along the channel axis, 1; a ``Concat`` that holds
    them.  Every other axis must match, and so must the ranks."""
    if not tensors:
        raise ValueError("concat: need at least one tensor")
    first = tensors[0]
    ndim = len(first.shape)
    for i, t in enumerate(tensors[1:], start=1):
        if len(t.shape) != ndim:
            raise ValueError(
                f"concat: input {i} has rank {len(t.shape)} but input 0 has "
                f"rank {ndim}; shapes {t.shape} and {first.shape}"
            )
        for ax, (d0, dt) in enumerate(zip(first.shape, t.shape)):
            if ax != 1 and d0 != dt:
                raise ValueError(
                    f"concat: input {i} differs from input 0 along axis {ax} "
                    f"({dt} vs {d0})"
                )
    sizes = [t.shape[1] for t in tensors]
    shape = first.shape[:1] + (sum(sizes),) + first.shape[2:]
    out = Concat(tuple(tensors), shape)
    offsets = np.cumsum([0] + sizes)
    slots = [_grad_slot(t) for t in tensors]

    def backward_fn(g: np.ndarray) -> None:
        for slot, lo, hi in zip(slots, offsets[:-1], offsets[1:]):
            if slot is not None:
                slot.accumulate_grad(g[:, lo:hi])

    return _record(out, tuple(tensors), backward_fn)


def l1_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean absolute difference over all elements (scalar output).

    For equal-size samples this equals the per-sample mean followed by the
    batch mean. The subgradient at zero difference is 0.
    """
    _check_same_shape("l1_loss", pred, target)
    diff = pred.data.astype(np.float64) - target.data.astype(np.float64)
    out = Tensor(np.abs(diff).mean())
    sign = np.sign(diff).astype(DTYPE)
    inv_n = DTYPE(1.0 / diff.size)
    s_pred, s_target = _grad_slot(pred), _grad_slot(target)

    def backward_fn(g: np.ndarray) -> None:
        if s_pred is not None:
            s_pred.accumulate_grad(g * sign * inv_n)
        if s_target is not None:
            s_target.accumulate_grad(-g * sign * inv_n)

    return _record(out, (pred, target), backward_fn)


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss through the tape that recorded it."""
    if loss.tape is None:
        raise ValueError(
            "backward: loss was not recorded on a tape "
            "(run the forward pass inside `with Tape():`)"
        )
    loss.tape.run_backward(loss)


def zero_grads(tensors) -> None:
    for t in tensors:
        t.zero_grad()
