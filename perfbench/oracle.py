"""Reference math for checking the benchmark's outputs.

Everything here is written from the documented semantics of the library,
not by calling it: the adaptive feature map, Chebyshev group assignment for
unit rings and dyadic bands, the fixed-exponential and learned stick-breaking
weights with their merged tail, and the attention quotient itself, summed
token by token. A defect in the code under test therefore cannot hide by
also being present in the check.
"""
from __future__ import annotations

import numpy as np


def feature_preactivation(x, w1, w2, b2) -> np.ndarray:
    z = x @ w1.T
    return np.concatenate((np.sin(z), np.cos(z)), axis=-1) @ w2.T + b2


def feature_map(x: np.ndarray, w1: np.ndarray, w2: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """relu([sin(x W1^T), cos(x W1^T)] W2^T + b2) over the trailing axis."""
    return np.maximum(feature_preactivation(x, w1, w2, b2), 0.0)


def group_of_distance(dyadic: bool, distance: np.ndarray) -> np.ndarray:
    """Group index of each Chebyshev distance: the distance itself for unit
    rings; 0 for the cell and bit_length(d) for dyadic bands."""
    d = np.asarray(distance, dtype=np.int64)
    if not dyadic:
        return d
    table = np.array([int(n).bit_length() for n in range(int(d.max()) + 1)], dtype=np.int64)
    return table[d]


def chebyshev_to(i: int, j: int, h: int, w: int) -> np.ndarray:
    """(H, W) Chebyshev distances from cell (i, j), 0-based."""
    rows = np.abs(np.arange(h) - i)[:, None]
    cols = np.abs(np.arange(w) - j)[None, :]
    return np.maximum(rows, cols)


def group_count(dyadic: bool, i: int, j: int, h: int, w: int) -> int:
    far = max(i, h - 1 - i, j, w - 1 - j)
    return int(group_of_distance(dyadic, np.array([far]))[0]) + 1


def _merge(head: np.ndarray, groups: int) -> np.ndarray:
    """Head weights kept as they are, the rest of the unit mass shared evenly
    over the remaining groups."""
    hat = head.shape[0]
    merged = (1.0 - head.sum()) / (groups - hat)
    return np.concatenate((head, np.full(groups - hat, merged)))


def fixed_exponential_weights(groups: int, r_max: int) -> np.ndarray:
    hat = min(r_max, groups - 1)
    return _merge(0.5 ** (np.arange(hat) + 1.0), groups)


def stick_weights(value: np.ndarray, emb: np.ndarray, proj: np.ndarray,
                  r_max: int, tau: float, groups: int, hat: int | None = None):
    """Learned stick-breaking weights of one query, and its halting index.

    Unit r (1-based) squashes its logit with 1 / (1 + (r_max - r + 1) e^-logit);
    the stick halts at the first piece after which less than tau remains.
    Pass ``hat`` to hold the halting index fixed, as the analytic gradient does.
    """
    logits = emb[:r_max] @ (proj @ value)
    damp = r_max - np.arange(1, r_max + 1) + 1.0
    fracs = 1.0 / (1.0 + damp * np.exp(-logits))
    left = np.concatenate(([1.0], np.cumprod(1.0 - fracs)))
    beta = np.concatenate((left[:-1] * fracs, left[-1:]))
    if hat is None:
        below = np.flatnonzero(1.0 - np.cumsum(beta) < tau)
        halt = int(below[0]) if below.size else r_max
        hat = min(halt, r_max, groups - 1)
    return _merge(beta[:hat], groups), hat


def query_output(i: int, j: int, phi_q: np.ndarray, phi_k: np.ndarray, v: np.ndarray,
                 alphas: np.ndarray, dyadic: bool, epsilon: float) -> np.ndarray:
    """Attention output of query (i, j), summing every token explicitly:
    s_t = alpha[group(t)] phi_q . phi_k[t];  out = sum s_t v_t / (sum s_t + eps)."""
    h, w = phi_k.shape[:2]
    a = alphas[group_of_distance(dyadic, chebyshev_to(i, j, h, w))]
    s = a * (phi_k @ phi_q[i, j])
    return np.einsum("hw,hwc->c", s, v) / (s.sum() + epsilon)


class DenseDyadic:
    """Whole-grid quadratic evaluation of learned-stick dyadic attention, for
    directional-derivative checks of the backward pass.

    The evaluation holds two discrete choices at their base-point values, as
    the analytic backward does: each query's halting index and each ReLU's
    on/off pattern. A central difference then never straddles a kink.
    """

    def __init__(self, h: int, w: int, r_max: int, tau: float, epsilon: float):
        self.h, self.w = h, w
        self.r_max, self.tau, self.epsilon = r_max, tau, epsilon
        cells = np.stack(np.meshgrid(np.arange(h), np.arange(w), indexing="ij"), -1).reshape(-1, 2)
        dist = np.abs(cells[:, None, :] - cells[None, :, :]).max(axis=-1)
        self.group = group_of_distance(True, dist)          # (N, N)
        self.groups = [group_count(True, i, j, h, w) for i, j in cells]

    def weights(self, v: np.ndarray, emb: np.ndarray, proj: np.ndarray, hats=None):
        """Per-query weight vectors (row-major) and halting indices."""
        flat = v.reshape(-1, v.shape[-1])
        pairs = [stick_weights(flat[n], emb, proj, self.r_max, self.tau, g,
                               None if hats is None else int(hats[n]))
                 for n, g in enumerate(self.groups)]
        return [a for a, _ in pairs], np.array([h for _, h in pairs])

    def forward(self, q, k, v, w1, w2, b2, emb, proj, hats, on_q, on_k) -> np.ndarray:
        pq = np.where(on_q, feature_preactivation(q, w1, w2, b2), 0.0).reshape(self.h * self.w, -1)
        pk = np.where(on_k, feature_preactivation(k, w1, w2, b2), 0.0).reshape(self.h * self.w, -1)
        al, _ = self.weights(v, emb, proj, hats)
        width = max(a.shape[0] for a in al)
        table = np.stack([np.pad(a, (0, width - a.shape[0])) for a in al])
        weight = np.take_along_axis(table, self.group, axis=1)
        s = weight * (pq @ pk.T)
        out = (s @ v.reshape(self.h * self.w, -1)) / (s.sum(axis=1) + self.epsilon)[:, None]
        return out.reshape(self.h, self.w, -1)
