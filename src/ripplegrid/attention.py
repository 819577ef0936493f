"""Attention variants over 2D token grids.

Exact quadratic references (softmax over all pairs, per-group softmax), the
linearized global form, and the locality-weighted group mechanism in two
implementations that must agree: a per-member enumeration oracle and a
prefix-sum sweep.

The sweep sums groups by parts. With W_g the clipped window out to group g's
outer radius, T the grid total, m the merged tail weight and a_g the weight
of group g (alpha_g before the halting index hat, m from it on),

    sum_g alpha_g (W_g - W_{g-1}) + m (T - W_{hat-1})
        = m T + sum_{g < hat} (a_g - a_{g+1}) W_g,

so each head group costs one window and the tail costs none. The numerator
and denominator of the linear-attention quotient share that sweep: it runs
once over the field phi_k (x) [v, 1], whose last value column is the
denominator stream.

Forward passes record a tape holding every intermediate the analytic backward
pass needs, so gradients never re-derive the forward numerics.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .featmap import FeatureMapParams, feature_forward
from .sat import SummedAreaTable
from .vicinal import GridShape, PartitionKind, PartitionScheme, group_members, group_span
from .weights import (StickParams, WeightGrid, WeightScheme, WeightSchemeKind,
                      scheme_weights_grid)

DEFAULT_EPSILON = 1e-6


@dataclass(frozen=True)
class AttentionConfig:
    """Single-head configuration: how to weight groups and featurize tokens."""

    scheme: WeightScheme
    partition: PartitionScheme
    featmap: FeatureMapParams
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be >= 0")


@dataclass
class AttentionTape:
    """Everything the backward pass consumes, captured during one forward."""

    config: AttentionConfig
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    phi_q: np.ndarray          # (H, W, Dp)
    phi_k: np.ndarray          # (H, W, Dp)
    sat: SummedAreaTable       # prefix sums of phi_k (x) [v, 1], channels (Dp, C + 1)
    weights: WeightGrid
    y: np.ndarray              # (H, W, Dp, C + 1) weighted group sums, denominator last
    num: np.ndarray            # (H, W, C)
    den: np.ndarray            # (H, W), stabilizer included


@dataclass
class AttentionOutput:
    out: np.ndarray
    tape: AttentionTape | None


# ---------- flat-sequence references ----------

def _as_float(a) -> np.ndarray:
    """Pass float32/float64 through untouched, promote everything else to f64.

    The flat reference paths honor a 32-bit input dtype; the grid paths
    always accumulate in f64.
    """
    a = np.asarray(a)
    if a.dtype in (np.float32, np.float64):
        return a
    return a.astype(np.float64)


def _check_finite(q, k, v) -> None:
    """One inf in k or v would poison every sum it enters (a prefix table
    turns it into inf - inf), so non-finite inputs are rejected by name."""
    for name, a in (("q", q), ("k", k), ("v", v)):
        if not np.isfinite(a).all():
            raise ValueError(f"{name} contains non-finite values")


def softmax_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Exact softmax attention over flat sequences; no scaling factor.

    q: (N, D), k: (M, D), v: (M, C) -> (N, C). Quadratic time and memory.
    """
    q = _as_float(q)
    k = _as_float(k)
    v = _as_float(v)
    if q.shape[-1] != k.shape[-1] or k.shape[0] != v.shape[0]:
        raise ValueError("query/key widths and key/value counts must match")
    scores = q @ k.T
    scores -= scores.max(axis=1, keepdims=True)  # shift-invariant, avoids overflow
    wts = np.exp(scores)
    wts /= wts.sum(axis=1, keepdims=True)
    return wts @ v


def linearized_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                         featmap: FeatureMapParams,
                         epsilon: float = DEFAULT_EPSILON) -> np.ndarray:
    """Feature-factorized attention: one pass over keys, one over queries."""
    _check_finite(q, k, v)
    pq = feature_forward(q, featmap)
    pk = feature_forward(k, featmap)
    z1 = pk.T @ _as_float(v)
    z2 = pk.sum(axis=0)
    num = pq @ z1
    den = pq @ z2 + epsilon
    _check_denominator(den)
    return num / den[:, None]


def linearized_attention_into(out: np.ndarray, q: np.ndarray, k: np.ndarray,
                              v: np.ndarray, featmap: FeatureMapParams,
                              epsilon: float = DEFAULT_EPSILON,
                              chunk: int = 512) -> None:
    """Streaming form for the benchmark memory probe: tokens are featurized in
    fixed-size chunks and reduced into running statistics, so peak transient
    allocation is independent of the token count."""
    v = _as_float(v)
    dp = featmap.out_dim
    z1 = np.zeros((dp, v.shape[1]), dtype=v.dtype)
    z2 = np.zeros(dp, dtype=v.dtype)
    for lo in range(0, k.shape[0], chunk):
        pk = feature_forward(k[lo:lo + chunk], featmap)
        z1 += pk.T @ v[lo:lo + chunk]
        z2 += pk.sum(axis=0)
    for lo in range(0, q.shape[0], chunk):
        pq = feature_forward(q[lo:lo + chunk], featmap)
        den = pq @ z2 + epsilon
        _check_denominator(den)
        out[lo:lo + chunk] = (pq @ z1) / den[:, None]


def _check_denominator(den: np.ndarray) -> None:
    if np.any(den == 0.0):
        raise FloatingPointError(
            "attention denominator is exactly zero; use a positive epsilon or "
            "different feature parameters")


# ---------- grouped attention over grids ----------

def _featurize(qgrid, kgrid, vgrid, config: AttentionConfig):
    q = np.asarray(qgrid, dtype=np.float64)
    k = np.asarray(kgrid, dtype=np.float64)
    v = np.asarray(vgrid, dtype=np.float64)
    if q.ndim != 3 or k.shape[:2] != q.shape[:2] or v.shape[:2] != q.shape[:2]:
        raise ValueError("q, k, v must be (H, W, dim) grids over the same shape")
    if q.shape[2] != k.shape[2]:
        raise ValueError("query and key widths must match")
    _check_finite(q, k, v)
    shape = GridShape(q.shape[0], q.shape[1])
    pq = feature_forward(q, config.featmap)
    pk = feature_forward(k, config.featmap)
    return q, k, v, shape, pq, pk


def _augment(pk, v):
    """phi_k (x) [v, 1]: the numerator stream with the denominator stream as its
    last value column."""
    ones = np.ones(v.shape[:2] + (1,))
    return np.einsum("hwd,hwc->hwdc", pk, np.concatenate((v, ones), axis=-1))


def _finalize(pq, y, epsilon):
    both = np.einsum("hwd,hwdc->hwc", pq, y)
    num, den = both[..., :-1], both[..., -1] + epsilon
    _check_denominator(den)
    return num, den, num / den[..., None]


def ripple_naive(qgrid, kgrid, vgrid, config: AttentionConfig,
                 build_tape: bool = True,
                 weights: WeightGrid | None = None) -> AttentionOutput:
    """Trusted oracle: every group summed member by member, no prefix sums.

    Cost grows with the square of the group count per query; use it to check
    the dynamic program, not to run at scale.
    """
    q, k, v, shape, pq, pk = _featurize(qgrid, kgrid, vgrid, config)
    wg = weights if weights is not None else scheme_weights_grid(
        config.scheme, v, shape, config.partition)
    h, w = shape.height, shape.width
    x = _augment(pk, v)
    y = np.zeros(x.shape)
    for i in range(1, h + 1):
        for j in range(1, w + 1):
            for r in range(int(wg.groups[i - 1, j - 1])):
                members = group_members(config.partition, shape, (i, j), r)
                if not members:
                    continue
                rows = np.fromiter((m[0] - 1 for m in members), dtype=np.int64)
                cols = np.fromiter((m[1] - 1 for m in members), dtype=np.int64)
                a = wg.alphas[i - 1, j - 1, r]
                y[i - 1, j - 1] += a * x[rows, cols].sum(axis=0)
    num, den, out = _finalize(pq, y, config.epsilon)
    tape = None
    if build_tape:
        tape = AttentionTape(config=config, q=q, k=k, v=v, phi_q=pq, phi_k=pk,
                             sat=SummedAreaTable(x), weights=wg, y=y, num=num,
                             den=den)
    return AttentionOutput(out=out, tape=tape)


def _sweep(sat: SummedAreaTable, wg: WeightGrid, kind: PartitionKind) -> np.ndarray:
    """Weighted group sums of the tabled field by parts: m T plus one window
    per head group."""
    coefs = wg.window_coefs()
    lift = (1,) * len(sat.channels)
    y = wg.merged.reshape(wg.merged.shape + lift) * sat.total()
    window = np.empty_like(y)
    for g in range(coefs.shape[-1]):
        sat.window_sum_grid(group_span(kind, g)[1], out=window)
        window *= coefs[..., g].reshape(coefs.shape[:2] + lift)
        y += window
    return y


def ripple_dp(qgrid, kgrid, vgrid, config: AttentionConfig,
              weights: WeightGrid | None = None) -> AttentionOutput:
    """Prefix-sum forward for either partition; equals ripple_naive. Over
    dyadic bands the per-query sweep length drops from the grid radius to its
    logarithm.

    A ``weights=`` override is used as given and not checked against the
    simplex: it is the finite-difference seam through which the gradient
    tests perturb single weights off the simplex on purpose."""
    q, k, v, shape, pq, pk = _featurize(qgrid, kgrid, vgrid, config)
    wg = weights if weights is not None else scheme_weights_grid(
        config.scheme, v, shape, config.partition)
    sat = SummedAreaTable(_augment(pk, v))
    y = _sweep(sat, wg, config.partition.kind)
    num, den, out = _finalize(pq, y, config.epsilon)
    tape = AttentionTape(config=config, q=q, k=k, v=v, phi_q=pq, phi_k=pk,
                         sat=sat, weights=wg, y=y, num=num, den=den)
    return AttentionOutput(out=out, tape=tape)


def ripple_softmax_reference(qgrid, kgrid, vgrid, weights: WeightGrid,
                             partition: PartitionScheme) -> np.ndarray:
    """Quadratic reference with an explicit softmax inside every group.

    This variant defines its own semantics (it is not the linearized form and
    matches no other implementation); empty groups contribute nothing.
    """
    q = np.asarray(qgrid, dtype=np.float64)
    k = np.asarray(kgrid, dtype=np.float64)
    v = np.asarray(vgrid, dtype=np.float64)
    shape = GridShape(q.shape[0], q.shape[1])
    out = np.zeros((shape.height, shape.width, v.shape[2]))
    for i in range(1, shape.height + 1):
        for j in range(1, shape.width + 1):
            for r in range(int(weights.groups[i - 1, j - 1])):
                members = group_members(partition, shape, (i, j), r)
                if not members:
                    continue
                rows = np.fromiter((m[0] - 1 for m in members), dtype=np.int64)
                cols = np.fromiter((m[1] - 1 for m in members), dtype=np.int64)
                local = softmax_attention(q[i - 1, j - 1][None, :],
                                          k[rows, cols], v[rows, cols])[0]
                out[i - 1, j - 1] += weights.alphas[i - 1, j - 1, r] * local
    return out


# ---------- linearized attention on grids (for the hybrid model) ----------

@dataclass
class LinearTape:
    featmap: FeatureMapParams
    epsilon: float
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    phi_q: np.ndarray
    phi_k: np.ndarray
    z1: np.ndarray   # (Dp, C)
    z2: np.ndarray   # (Dp,)
    num: np.ndarray
    den: np.ndarray


def linearized_grid(qgrid, kgrid, vgrid, featmap: FeatureMapParams,
                    epsilon: float = DEFAULT_EPSILON):
    """Global linearized attention with grid-shaped inputs; returns (out, tape)."""
    q = np.asarray(qgrid, dtype=np.float64)
    k = np.asarray(kgrid, dtype=np.float64)
    v = np.asarray(vgrid, dtype=np.float64)
    _check_finite(q, k, v)
    pq = feature_forward(q, featmap)
    pk = feature_forward(k, featmap)
    z1 = np.einsum("hwd,hwc->dc", pk, v)
    z2 = pk.sum(axis=(0, 1))
    num = pq @ z1
    den = pq @ z2 + epsilon
    _check_denominator(den)
    out = num / den[..., None]
    tape = LinearTape(featmap=featmap, epsilon=epsilon, q=q, k=k, v=v,
                      phi_q=pq, phi_k=pk, z1=z1, z2=z2, num=num, den=den)
    return out, tape


# ---------- multi-head wrapper ----------

@dataclass(frozen=True)
class HeadParams:
    wq: np.ndarray                 # (head_dim, model_dim)
    wk: np.ndarray
    wv: np.ndarray
    featmap: FeatureMapParams
    stick: StickParams | None = None


@dataclass(frozen=True)
class MultiHeadParams:
    heads: tuple[HeadParams, ...]
    w_out: np.ndarray              # (model_dim, num_heads * head_dim)
    b_out: np.ndarray              # (model_dim,)


@dataclass(frozen=True)
class MultiHeadConfig:
    partition: PartitionScheme
    scheme_kind: WeightSchemeKind
    epsilon: float = DEFAULT_EPSILON
    attention: str = "ripple"      # "ripple" or "linearized"

    def head_config(self, head: HeadParams) -> AttentionConfig:
        scheme = WeightScheme(kind=self.scheme_kind, params=head.stick)
        return AttentionConfig(scheme=scheme, partition=self.partition,
                               featmap=head.featmap, epsilon=self.epsilon)


@dataclass
class MultiHeadTape:
    x: np.ndarray
    head_tapes: list
    concat: np.ndarray
    config: MultiHeadConfig
    params: MultiHeadParams


def init_multi_head(rng: np.random.Generator, model_dim: int, num_heads: int,
                    head_dim: int, r_max: int, scheme_kind: WeightSchemeKind,
                    stick_dim: int | None = None) -> MultiHeadParams:
    from .featmap import FeatureMapKind, init_feature_map
    from .weights import LEARNED_KINDS
    stick_dim = head_dim if stick_dim is None else stick_dim
    heads = []
    scale = 1.0 / np.sqrt(model_dim)
    for _ in range(num_heads):
        wq = rng.standard_normal((head_dim, model_dim)) * scale
        wk = rng.standard_normal((head_dim, model_dim)) * scale
        wv = rng.standard_normal((head_dim, model_dim)) * scale
        fm = init_feature_map(FeatureMapKind.DETERMINISTIC_ADAPTIVE, head_dim, rng)
        stick = None
        if scheme_kind in LEARNED_KINDS:
            stick = StickParams(
                unit_embeddings=rng.standard_normal((r_max, stick_dim)),
                value_projection=rng.standard_normal((stick_dim, head_dim)) / np.sqrt(head_dim))
        heads.append(HeadParams(wq=wq, wk=wk, wv=wv, featmap=fm, stick=stick))
    w_out = rng.standard_normal((model_dim, num_heads * head_dim)) / np.sqrt(num_heads * head_dim)
    b_out = np.zeros(model_dim)
    return MultiHeadParams(heads=tuple(heads), w_out=w_out, b_out=b_out)


def multi_head_forward(xgrid, params: MultiHeadParams, config: MultiHeadConfig,
                       oracle: bool = False):
    """Project per head, attend per head, concatenate, mix. Returns (out, tape).

    With ``oracle`` the group attention runs through the enumeration path, so
    the wrapper can be checked end to end against trusted sums.
    """
    x = np.asarray(xgrid, dtype=np.float64)
    head_outs = []
    head_tapes = []
    for head in params.heads:
        q = x @ head.wq.T
        k = x @ head.wk.T
        v = x @ head.wv.T
        if config.attention == "linearized":
            out_h, tape_h = linearized_grid(q, k, v, head.featmap, config.epsilon)
        else:
            cfg = config.head_config(head)
            res = ripple_naive(q, k, v, cfg) if oracle else ripple_dp(q, k, v, cfg)
            out_h, tape_h = res.out, res.tape
        head_outs.append(out_h)
        head_tapes.append(tape_h)
    concat = np.concatenate(head_outs, axis=-1)
    out = concat @ params.w_out.T + params.b_out
    tape = MultiHeadTape(x=x, head_tapes=head_tapes, concat=concat,
                         config=config, params=params)
    return out, tape

