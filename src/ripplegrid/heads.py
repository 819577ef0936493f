"""Matrix products over a head axis.

A layer's heads ride as axis -2 of its token arrays, (..., heads, dim), and
as a leading axis of their parameters, (heads, i, j). These products give
each head its own matrix in one BLAS call per head; with a plain (i, j)
matrix they are the ordinary products, so one code path serves a single
head and a stacked layer.
"""
from __future__ import annotations

import numpy as np


def matmul(x: np.ndarray, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x @ w over the last axis of x. A (heads, i, j) w multiplies each
    head's slice x[..., h, :] by w[h]. The product is written into ``out``
    (a C-contiguous array of the result's shape) when given, and returned."""
    shape = x.shape[:-1] + w.shape[-1:]
    if w.ndim == 2:     # one product over all leading axes, not one per row
        flat, view = x.reshape(-1, x.shape[-1]), (-1, w.shape[-1])
    else:
        flat, view = x.reshape(-1, *x.shape[-2:]).transpose(1, 0, 2), (-1,) + w.shape[::2]
    if out is None:
        out = np.empty(shape)
    np.matmul(flat, w, out=out.reshape(view).swapaxes(0, w.ndim - 2))
    return out


def outer_sum(a: np.ndarray, b: np.ndarray, heads: bool) -> np.ndarray:
    """Sum of a[..., :, None] * b[..., None, :] over the leading axes: (i, j),
    or (heads, i, j) with axis -2 kept apart when ``heads``."""
    if not heads:
        return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])
    return (a.reshape(-1, *a.shape[-2:]).transpose(1, 2, 0)
            @ b.reshape(-1, *b.shape[-2:]).transpose(1, 0, 2))
