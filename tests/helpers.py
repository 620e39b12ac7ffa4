"""Shared test oracles: naive reference implementations and
finite-difference gradient checking. Everything here is deliberately
slow and loop-based so it cannot share bugs with the vectorized code."""

from __future__ import annotations

import csv

import numpy as np

from pansharp.grad import Tape, Tensor
from pansharp.metrics import METRIC_NAMES, EvalReport


def conv2d_naive(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                 padding: int) -> np.ndarray:
    """Quadruple-loop cross-correlation oracle (float64)."""
    bs, cin, h, wid = x.shape
    cout, _, k, _ = w.shape
    xp = np.pad(x.astype(np.float64),
                ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = h + 2 * padding - k + 1
    wo = wid + 2 * padding - k + 1
    out = np.zeros((bs, cout, ho, wo))
    for n in range(bs):
        for o in range(cout):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for c in range(cin):
                        for di in range(k):
                            for dj in range(k):
                                acc += xp[n, c, i + di, j + dj] * w[o, c, di, dj]
                    out[n, o, i, j] = acc
            if b is not None:
                out[n, o] += b[o]
    return out


def conv2d_transpose_naive(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                           stride: int, padding: int) -> np.ndarray:
    """Scatter-style transposed-convolution oracle (float64)."""
    bs, cin, h, wid = x.shape
    _, cout, k, _ = w.shape
    oh = (h - 1) * stride - 2 * padding + k
    ow = (wid - 1) * stride - 2 * padding + k
    full = np.zeros((bs, cout, (h - 1) * stride + k, (wid - 1) * stride + k))
    for n in range(bs):
        for c in range(cin):
            for i in range(h):
                for j in range(wid):
                    full[n, :, i * stride:i * stride + k, j * stride:j * stride + k] += (
                        x[n, c, i, j] * w[c].astype(np.float64))
    out = full[:, :, padding:padding + oh, padding:padding + ow]
    if b is not None:
        out = out + b[None, :, None, None]
    return out


def numeric_gradient(f, x: np.ndarray, h: float = 1e-3) -> np.ndarray:
    """Central finite differences of scalar f at every coordinate of x."""
    g = np.zeros(x.shape, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray,
                  floor: float = 1e-3) -> float:
    """Worst relative disagreement, with a floor so tiny grads don't blow up."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic.astype(np.float64) - numeric) / denom))


def check_op_gradient(op, arrays: list[np.ndarray], wrt: int, h: float = 1e-3,
                      floor: float = 1e-3) -> float:
    """Finite-difference check of a tensor op reduced by sum().

    op takes the list of Tensors and returns one Tensor; gradients are
    checked for arrays[wrt].
    """
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape():
        loss = op(tensors).sum()
    loss.backward()
    analytic = tensors[wrt].grad.copy()

    def run():
        ts = [Tensor(a) for a in arrays]
        return float(op(ts).sum().data)

    numeric = numeric_gradient(run, arrays[wrt], h=h)
    return max_rel_error(analytic, numeric, floor=floor)


def read_eval_csv(path) -> EvalReport:
    """Parse a CSV that ``EvalReport.write_csv`` wrote: the ``#`` lines
    into provenance, each row back through ``EvalReport.add``."""
    report = EvalReport()
    with open(path, newline="") as handle:
        lines = []
        for line in handle:
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition(":")
                report.provenance[key.strip()] = value.strip()
            else:
                lines.append(line)
    for record in csv.DictReader(lines):
        values = {name: float(record[name]) for name in METRIC_NAMES
                  if record.get(name)}
        report.add(record["method"], record["image"], **values)
    return report
