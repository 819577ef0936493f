"""Attention over 2D token grids.

The locality-weighted group mechanism in two implementations that must
agree, a per-member enumeration oracle (ripple_naive) and a prefix-sum
sweep (ripple_dp), beside global linearized attention on grids and the
multi-head layer that runs either.

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
reads every window from the prefix table of that field, streamed top
down in chunks of padded rows (see the sat module): each table row is
contracted once with the c_g phi_q of every window corner that reads it,
straight into the (H, W, C + 1) accumulator, and the last chunk's far
corner is the grid total. The sweep reads only the head weights and the
merged tail of the weight grid, never a per-group vector; ripple_naive's
member-by-member sweep builds that from WeightGrid.padded. The tape holds
inputs, features, the weight grid (head and tail, linear in the grid) and
the quotient, and the backward pass streams the same table again and
runs the transpose of the same reads (see the grad module).

One pass, _attend, runs every layer on (H, W, heads, ...) arrays: a
multi-head layer stacks its heads on axis 2, with one stream over
(heads, Dp, C + 1) channels, and the single-head entry points
have a head axis of length 1. Linearized attention skips the weights.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .featmap import FeatureMapKind, FeatureMapParams, feature_forward, init_feature_map
from .heads import matmul, outer_sum
from .sat import kept_array, read_windows
from .vicinal import GridShape, PartitionScheme, group_span, query_groups
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


def _check_finite(arrays: dict, error=ValueError,
                  what: str = "contains non-finite values") -> None:
    """One inf in k or v would poison every sum it enters (a prefix table
    turns it into inf - inf), so non-finite arrays are rejected by name,
    as input with a ValueError unless ``error`` says otherwise."""
    for name, a in arrays.items():
        if not np.isfinite(a).all():
            raise error(f"{name} {what}")


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
    _check_finite({"q": q, "k": k, "v": v})
    q, k, v = q[:, :, None], k[:, :, None], v[:, :, None]
    return q, k, v, feature_forward(q, featmap), feature_forward(k, featmap)


def _value_streams(v):
    """[v, 1]: the numerator streams, then the denominator stream."""
    return np.concatenate((v, np.ones(v.shape[:-1] + (1,))), axis=-1)


def _sweep(pq, pk, v, wg: WeightGrid, partition: PartitionScheme) -> np.ndarray:
    """The prefix-sum sweep over a stack of heads: (H, W, heads, Dp)
    features, (H, W, heads, C) values and weights with the head axis. Returns
    the (H, W, heads, C + 1) numerator and denominator streams, into which
    sat.read_windows reads every window with its coefficient on phi_q."""
    coefs = wg.window_coefs()
    radii = [group_span(partition.kind, g)[1] for g in range(1, coefs.shape[-1])]
    streams = _value_streams(v)
    both = (_radius_zero_coef(coefs) * np.einsum("...d,...d->...", pq, pk))[..., None] * streams
    part = kept_array("part", both.shape)
    matmul(pq, read_windows(both, pk, streams, radii, coefs[..., 1:], pq), out=part)
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
    x = pk[..., None] * _value_streams(v)[..., None, :]
    y = np.zeros(x.shape)
    alphas = wg.padded()
    for i, j, r, rows, cols in query_groups(partition, wg.groups.max(axis=-1)):
        y[i, j] += alphas[i, j, :, r][:, None, None] * x[rows, cols].sum(axis=0)
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
        elif weights.hat.shape != q.shape[:3]:
            raise ValueError(f"weights over a {weights.hat.shape[:2]} grid do not match "
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
    ``featmap`` and ``stick`` carry a leading head axis. Construction checks
    every shape against the heads and head_dim of ``featmap.w1``."""

    w_qkv: np.ndarray
    featmap: FeatureMapParams
    w_out: np.ndarray              # (model_dim, heads * head_dim)
    b_out: np.ndarray              # (model_dim,)
    stick: StickParams | None = None

    def __post_init__(self):
        w1, model_dim = self.featmap.w1, np.shape(self.w_qkv)[-1:]
        heads, head_dim = w1.shape[0], w1.shape[-1]
        want = [("featmap.w1", w1, (heads,) + w1.shape[-2:]),    # a head axis
                ("w_qkv", self.w_qkv, (3 * heads * head_dim,) + model_dim),
                ("w_out", self.w_out, model_dim + (heads * head_dim,)),
                ("b_out", self.b_out, model_dim)]
        if self.stick is not None:
            units, proj = self.stick.unit_embeddings, self.stick.value_projection
            want += [("stick.unit_embeddings", units, (heads,) + units.shape[-2:]),
                     ("stick.value_projection", proj, proj.shape[:-1] + (head_dim,))]
        for name, array, shape in want:
            if np.shape(array) != shape:
                raise ValueError(f"{name} has shape {np.shape(array)}, not {shape}")


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
    _check_finite({"input grid": x, "w_qkv": params.w_qkv, "w_out": params.w_out,
                   "b_out": params.b_out})
    qkv = (x @ params.w_qkv.T).reshape(x.shape[:2] + (3, -1, params.featmap.in_dim))
    q, k, v = np.moveaxis(qkv, 2, 0)
    # from here on, only an overflow can make an array non-finite
    _check_finite({"the q projection": q, "the k projection": k, "the v projection": v},
                  FloatingPointError, "overflowed")
    pq, pk = np.moveaxis(feature_forward(qkv[:, :, :2], params.featmap), 2, 0)
    scheme = (WeightScheme(kind=config.scheme_kind, params=params.stick)
              if config.attention == "ripple" else None)
    out, attn = _attend(q, k, v, pq, pk, params.featmap, config.epsilon, scheme,
                        config.partition)
    concat = out.reshape(x.shape[:2] + (-1,))
    out = concat @ params.w_out.T + params.b_out
    _check_finite({"the layer output": out}, FloatingPointError, "overflowed")
    return out, MultiHeadTape(x=x, attn=attn, concat=concat, params=params)
