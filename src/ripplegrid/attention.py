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

so each head group costs one window and the tail costs none; W_0 is the
field itself (group 0 is radius 0 in both partitions), so its term is
(a_0 - a_1) (phi_q . phi_k) [v, 1] and takes no window. The numerator and
denominator of the linear-attention quotient share that sweep: it runs over
the field phi_k (x) [v, 1], whose last value column is the denominator stream.

The sweep is linear in each feature channel until it meets phi_q, so it
reads every window from the prefix table of that field, streamed over
strips of grid rows as a padded band of table rows (see the sat module):
one read per window contracts the band with the strip's c_g phi_q
straight into the (H, W, C + 1) accumulator, and the last strip's far
corner is the grid total. The tape holds inputs, features, weights and
the quotient, and the backward pass streams the same band again and runs
the transpose of the same reads (see the grad module).

One pass, _attend, runs every layer on (H, W, heads, ...) arrays: a
multi-head layer stacks its heads on axis 2, with one band over
(heads, Dp, C + 1) channels, and the single-head entry points
have a head axis of length 1. Linearized attention skips the weights.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .featmap import FeatureMapKind, FeatureMapParams, feature_forward, init_feature_map
from .heads import matmul, outer_sum
from .sat import kept_array, table_bands
from .vicinal import GridShape, PartitionScheme, group_members, group_span
from .weights import (LEARNED_KINDS, StickParams, WeightGrid, WeightScheme,
                      WeightSchemeKind, scheme_weights_grid)

DEFAULT_EPSILON = 1e-6

@dataclass(frozen=True)
class AttentionConfig:
    """Single-head configuration: how to weight groups and featurize tokens."""

    scheme: WeightScheme
    partition: PartitionScheme
    featmap: FeatureMapParams
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        _check_epsilon(self.epsilon)


def _check_epsilon(epsilon: float) -> None:
    """A negative stabilizer can cancel a denominator or flip its sign; a NaN
    one turns every row NaN and an infinite one every row zero."""
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError(f"epsilon must be >= 0 and finite, got {epsilon}")


@dataclass
class AttentionTape:
    """Everything the backward pass consumes, captured during one forward.
    Arrays and weights carry a head axis after (H, W), of length 1 from the
    single-head entry points; den includes the stabilizer. In linearized
    mode scheme and weights are None."""

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    phi_q: np.ndarray
    phi_k: np.ndarray
    featmap: FeatureMapParams
    scheme: WeightScheme | None
    partition: PartitionScheme | None
    weights: WeightGrid | None
    epsilon: float
    num: np.ndarray
    den: np.ndarray


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
    _check_finite(q, k, v)
    scores = q @ k.T
    scores -= scores.max(axis=1, keepdims=True)  # shift-invariant, avoids overflow
    wts = np.exp(scores)
    wts /= wts.sum(axis=1, keepdims=True)
    return wts @ v


def linearized_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                         featmap: FeatureMapParams,
                         epsilon: float = DEFAULT_EPSILON) -> np.ndarray:
    """Feature-factorized attention: one pass over keys, one over queries."""
    _check_epsilon(epsilon)
    _check_finite(q, k, v)
    pq = feature_forward(q, featmap)
    pk = feature_forward(k, featmap)
    z1 = pk.T @ _as_float(v)
    z2 = pk.sum(axis=0)
    num = pq @ z1
    den = pq @ z2 + epsilon
    _check_denominator(den)
    return num / den[:, None]


def _check_denominator(den: np.ndarray) -> None:
    if np.any(den == 0.0):
        raise FloatingPointError(
            "attention denominator is exactly zero; use a positive epsilon or "
            "different feature parameters")


# ---------- grouped attention over grids ----------

def _featurize(qgrid, kgrid, vgrid, featmap: FeatureMapParams):
    """One head's checked (H, W, dim) grids and features, head axis added."""
    q = np.asarray(qgrid, dtype=np.float64)
    k = np.asarray(kgrid, dtype=np.float64)
    v = np.asarray(vgrid, dtype=np.float64)
    if any(a.ndim != 3 for a in (q, k, v)) or not q.shape[:2] == k.shape[:2] == v.shape[:2]:
        raise ValueError("q, k, v must be (H, W, dim) grids over the same shape")
    if q.shape[2] != k.shape[2]:
        raise ValueError("query and key widths must match")
    _check_finite(q, k, v)
    q, k, v = q[:, :, None], k[:, :, None], v[:, :, None]
    return q, k, v, feature_forward(q, featmap), feature_forward(k, featmap)


def _value_streams(v):
    """[v, 1]: the numerator streams, then the denominator stream."""
    return np.concatenate((v, np.ones(v.shape[:-1] + (1,))), axis=-1)


def _sweep(pq, pk, v, wg: WeightGrid, partition: PartitionScheme) -> np.ndarray:
    """The banded prefix-sum sweep over a stack of heads: (H, W, heads, Dp)
    features, (H, W, heads, C) values and weights with the head axis. Returns
    the (H, W, heads, C + 1) numerator and denominator streams. Each window
    is read from the band straight into the strip of the result, with its
    coefficient folded into phi_q (sat.Band.read)."""
    coefs = wg.window_coefs()
    radii = [group_span(partition.kind, g)[1] for g in range(1, coefs.shape[-1])]
    streams = _value_streams(v)
    both = (_radius_zero_coef(coefs) * np.einsum("...d,...d->...", pq, pk))[..., None] * streams
    part = kept_array("part", both.shape)
    for band in table_bands(pk, streams, radii):
        rows, blk = band.rows, band.blk
        for g, radius in enumerate(radii, 1):
            band.read(both[rows], radius, coefs[rows, ..., g, None], pq[rows][..., blk])
        if band.total is not None:
            matmul(pq[..., blk], band.total, out=part)
            part *= wg.merged[..., None]
            both += part
    return both


def _radius_zero_coef(coefs):
    """c_0, the radius-0 window's coefficient per query: zero where every
    hat is 0 and there are no window coefficients. W_0 is the field itself,
    so its term is c_0 (phi_q . phi_k) [v, 1] and takes no table."""
    return coefs[..., 0] if coefs.shape[-1] else np.zeros(coefs.shape[:-1])


def _naive_sweep(pq, pk, v, wg: WeightGrid, partition: PartitionScheme) -> np.ndarray:
    """_sweep's streams with every group summed member by member."""
    h, w = pq.shape[:2]
    x = pk[..., None] * _value_streams(v)[..., None, :]
    y = np.zeros(x.shape)
    for i in range(1, h + 1):
        for j in range(1, w + 1):
            for r in range(int(wg.groups[i - 1, j - 1].max())):
                members = group_members(partition, GridShape(h, w), (i, j), r)
                if not members:
                    continue
                rows = np.fromiter((m[0] - 1 for m in members), dtype=np.int64)
                cols = np.fromiter((m[1] - 1 for m in members), dtype=np.int64)
                a = wg.alphas[i - 1, j - 1, :, r]
                y[i - 1, j - 1] += a[:, None, None] * x[rows, cols].sum(axis=0)
    return np.einsum("...d,...dc->...c", pq, y)


def _attend(q, k, v, phi_q, phi_k, featmap: FeatureMapParams, epsilon: float,
            scheme: WeightScheme | None = None, partition: PartitionScheme | None = None,
            weights: WeightGrid | None = None, sweep=_sweep):
    """The attention quotient over a stack of heads, on (H, W, heads, ...)
    arrays; returns (out, tape). With a ``scheme``, tokens are weighted by
    group: ``sweep`` runs over ``weights``, or over the scheme's weight grid
    when none is given. Without one, every token weighs the same and the
    quotient is global linearized attention."""
    if scheme is None:      # phi_q against each head's total of phi_k (x) [v, 1]
        both = matmul(phi_q, outer_sum(phi_k, _value_streams(v), heads=True))
    else:
        if weights is None:
            weights = scheme_weights_grid(scheme, v, GridShape(*q.shape[:2]), partition)
        elif weights.alphas.shape[:3] != q.shape[:3]:
            raise ValueError(f"weights over a {weights.alphas.shape[:2]} grid do not match "
                             f"the {q.shape[:2]} token grid")
        both = sweep(phi_q, phi_k, v, weights, partition)
    num, den = both[..., :-1], both[..., -1] + epsilon
    _check_denominator(den)
    return num / den[..., None], AttentionTape(
        q=q, k=k, v=v, phi_q=phi_q, phi_k=phi_k, featmap=featmap, scheme=scheme,
        partition=partition, weights=weights, epsilon=epsilon, num=num, den=den)


def _grouped(qgrid, kgrid, vgrid, config: AttentionConfig, weights: WeightGrid | None,
             sweep) -> AttentionOutput:
    """One head's grouped attention: the frame both grouped forwards share."""
    out, tape = _attend(*_featurize(qgrid, kgrid, vgrid, config.featmap), config.featmap,
                        config.epsilon, config.scheme, config.partition,
                        None if weights is None else weights.head_axis(), sweep)
    return AttentionOutput(out=out[:, :, 0], tape=tape)


def ripple_naive(qgrid, kgrid, vgrid, config: AttentionConfig,
                 build_tape: bool = True,
                 weights: WeightGrid | None = None) -> AttentionOutput:
    """Trusted oracle: every group summed member by member, no prefix sums.

    Cost grows with the square of the group count per query; use it to check
    the dynamic program, not to run at scale.
    """
    res = _grouped(qgrid, kgrid, vgrid, config, weights, _naive_sweep)
    return res if build_tape else AttentionOutput(out=res.out, tape=None)


def ripple_dp(qgrid, kgrid, vgrid, config: AttentionConfig,
              weights: WeightGrid | None = None) -> AttentionOutput:
    """Prefix-sum forward for either partition; equals ripple_naive. Over
    dyadic bands the per-query sweep length drops from the grid radius to its
    logarithm.

    A ``weights=`` override must cover the input grid, but is used as given
    and not checked against the simplex: it is the finite-difference seam
    through which the gradient tests perturb single weights off the simplex
    on purpose."""
    return _grouped(qgrid, kgrid, vgrid, config, weights, _sweep)


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

def linearized_grid(qgrid, kgrid, vgrid, featmap: FeatureMapParams,
                    epsilon: float = DEFAULT_EPSILON):
    """Global linearized attention with grid-shaped inputs; returns (out, tape)."""
    _check_epsilon(epsilon)
    out, tape = _attend(*_featurize(qgrid, kgrid, vgrid, featmap), featmap, epsilon)
    return out[:, :, 0], tape


# ---------- multi-head wrapper ----------

@dataclass(frozen=True)
class MultiHeadParams:
    """A layer's parameters with its heads stacked: ``w_qkv`` is every Wq,
    then every Wk, then every Wv, (3 * heads * head_dim, model_dim), and
    ``featmap`` and ``stick`` carry a leading head axis."""

    w_qkv: np.ndarray
    featmap: FeatureMapParams
    w_out: np.ndarray              # (model_dim, heads * head_dim)
    b_out: np.ndarray              # (model_dim,)
    stick: StickParams | None = None


@dataclass(frozen=True)
class MultiHeadConfig:
    partition: PartitionScheme
    scheme_kind: WeightSchemeKind
    epsilon: float = DEFAULT_EPSILON
    attention: str = "ripple"      # "ripple" or "linearized"

    def __post_init__(self):
        if self.attention not in ("ripple", "linearized"):
            raise ValueError(f"attention must be 'ripple' or 'linearized', "
                             f"got {self.attention!r}")
        _check_epsilon(self.epsilon)


@dataclass
class MultiHeadTape:
    """One layer's forward record: its input, the attention pass over the
    stacked heads, the heads' concatenated outputs and the parameters."""

    x: np.ndarray
    attn: AttentionTape
    concat: np.ndarray
    params: MultiHeadParams


def init_multi_head(rng: np.random.Generator, model_dim: int, num_heads: int,
                    head_dim: int, r_max: int,
                    scheme_kind: WeightSchemeKind | None) -> MultiHeadParams:
    """Fresh stacked parameters, drawn head by head: Wq, Wk, Wv, the feature
    map and, for a learned ``scheme_kind``, the stick. Pass None for a layer
    that learns no weights, such as a linearized one."""
    scale = 1.0 / np.sqrt(model_dim)
    draws = []
    for _ in range(num_heads):
        head = [rng.standard_normal((head_dim, model_dim)) * scale for _ in range(3)]
        fm = init_feature_map(FeatureMapKind.DETERMINISTIC_ADAPTIVE, head_dim, rng)
        head += [fm.w1, fm.w2, fm.b2]
        if scheme_kind in LEARNED_KINDS:
            head += [rng.standard_normal((r_max, head_dim)),
                     rng.standard_normal((head_dim, head_dim)) / np.sqrt(head_dim)]
        draws.append(head)
    wq, wk, wv, w1, w2, b2, *stick = (np.stack(a) for a in zip(*draws))
    w_out = rng.standard_normal((model_dim, num_heads * head_dim)) / np.sqrt(num_heads * head_dim)
    return MultiHeadParams(
        w_qkv=np.concatenate((wq, wk, wv)).reshape(-1, model_dim),
        featmap=FeatureMapParams(FeatureMapKind.DETERMINISTIC_ADAPTIVE, w1, w2, b2),
        w_out=w_out, b_out=np.zeros(model_dim), stick=StickParams(*stick) if stick else None)


def multi_head_forward(xgrid, params: MultiHeadParams, config: MultiHeadConfig):
    """Project, attend and mix every head of a layer in one pass. Returns
    (out, tape).

    One matmul against the stacked Wq, Wk and Wv gives (H, W, heads,
    head_dim) queries, keys and values; one featurize over queries and keys
    and one attention pass then run over the head axis.
    """
    x = np.asarray(xgrid, dtype=np.float64)
    model_dim = params.w_qkv.shape[1]
    if x.ndim != 3 or x.shape[2] != model_dim:
        raise ValueError(f"input grid must have shape (H, W, model_dim) = (H, W, {model_dim}), "
                         f"got {x.shape}")
    qkv = (x @ params.w_qkv.T).reshape(x.shape[:2] + (3, -1, params.featmap.in_dim))
    q, k, v = np.moveaxis(qkv, 2, 0)
    _check_finite(q, k, v)
    pq, pk = np.moveaxis(feature_forward(qkv[:, :, :2], params.featmap), 2, 0)
    scheme = (WeightScheme(kind=config.scheme_kind, params=params.stick)
              if config.attention == "ripple" else None)
    out, attn = _attend(q, k, v, pq, pk, params.featmap, config.epsilon, scheme,
                        config.partition)
    concat = out.reshape(x.shape[:2] + (-1,))
    tape = MultiHeadTape(x=x, attn=attn, concat=concat, params=params)
    return concat @ params.w_out.T + params.b_out, tape
