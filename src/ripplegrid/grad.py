"""Analytic backward passes for the grid attention forward ops.

Every gradient here is a closed-form vector-Jacobian product pulled off the
tapes the forward passes record; nothing is differentiated numerically except
in finite_diff_check, which exists to audit the rest of this module.

The group-weighted forward is y = m T + sum_g c_g W_g over one tabled field
(see the attention module). The tape keeps no table: the backward walks the
forward's channel blocks and rebuilds each block's table. Each window gives
z_g = W_g . gboth against the quotient cotangent, which feeds the weight
gradients (phi_q . z_g, differenced over g) and the phi_q gradient
(sum_g c_g z_g). The token gradients are the sweep's adjoint: a Chebyshev
window around a query contains a token exactly when the same window around
the token contains the query, so a token receives one window of the field
c_g * cotangent per group, plus the broadcast sum of m * cotangent. That
adjoint refills the block's table and buffers, and its share goes straight
into the phi_k and v gradients. Both directions read one window per head
group past group 0, as the forward does.

Halting indices and group counts are integers and are treated as locally
constant, which matches central differences at generic points.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import AttentionTape, LinearTape, MultiHeadTape, block_tables, kept_array
from .featmap import feature_vjp
from .sat import SummedAreaTable
from .vicinal import GridShape, PartitionScheme, group_members, group_span
from .weights import (LEARNED_KINDS, StickParams, WeightGrid, WeightScheme,
                      WeightSchemeKind, _grid_stick_breaking, grid_stick_fractions)


@dataclass
class FeatureParamGrads:
    """Feature-map parameter gradients summed over the query and key streams."""

    w1: np.ndarray
    w2: np.ndarray | None
    b2: np.ndarray | None


@dataclass
class StickGrads:
    unit_embeddings: np.ndarray   # rows past r_max stay zero: the forward never reads them
    value_projection: np.ndarray


@dataclass
class RippleGradients:
    grad_q: np.ndarray
    grad_k: np.ndarray
    grad_v: np.ndarray
    grad_alpha_head: np.ndarray   # (H, W, max hat), zero past each query's hat
    grad_merged: np.ndarray       # (H, W), gradient of the shared tail weight
    featmap: FeatureParamGrads
    stick: StickGrads | None


@dataclass
class LinearizedGradients:
    grad_q: np.ndarray
    grad_k: np.ndarray
    grad_v: np.ndarray
    featmap: FeatureParamGrads


@dataclass
class HeadGradients:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    featmap: FeatureParamGrads
    stick: StickGrads | None


@dataclass
class MultiHeadGradients:
    grad_x: np.ndarray
    heads: list[HeadGradients]
    w_out: np.ndarray
    b_out: np.ndarray


# ---------- shared pieces ----------

def _quotient_streams(num, den, upstream):
    """Split d(num/den) into cotangents for the two accumulated streams."""
    g = np.asarray(upstream, dtype=np.float64)
    gnum = g / den[..., None]
    gden = -np.einsum("hwc,hwc->hw", g, num) / (den * den)
    return gnum, gden


def _blocked_backward(tape: AttentionTape, upstream: np.ndarray, length: int):
    """One pass over the forward's channel blocks, rebuilding each table.

    With cot = phi_q (x) gboth the swept field's cotangent, returns <cot, W_g>
    per query for g < length after a leading zero for the empty W_{-1} (their
    differences are the band inner products, exactly zero past a query's
    group count), <cot, T>, and the phi_q, phi_k and v gradients."""
    wg, v, pq, pk = tape.weights, tape.v, tape.phi_q, tape.phi_k
    kind = tape.config.partition.kind
    gnum, gden = _quotient_streams(tape.num, tape.den, upstream)
    gboth = np.concatenate((gnum, gden[..., None]), axis=-1)
    coefs = wg.window_coefs()
    dots = np.zeros(gboth.shape[:2] + (length + 1,))
    tail = np.zeros(gboth.shape[:2])
    grad_pq, grad_pk, grad_v = np.empty_like(pq), np.empty_like(pk), np.zeros_like(v)
    for blk, buf, sat in block_tables(pk, v):
        gx, scratch = kept_array("gx", buf.shape), kept_array("scratch", buf.shape)
        z = kept_array("z", buf.shape[:3] + (length,))   # z[..., g] = W_g . gboth
        zt = gboth @ sat.total().T                  # T . gboth
        for g in range(length):
            if g:
                sat.window_sum_grid(group_span(kind, g)[1], out=buf)
            np.einsum("hwdc,hwc->hwd", buf, gboth, out=z[..., g])
        # the block's cotangent phi_q (x) gboth: its token adjoint refills the table
        np.multiply(pq[..., blk, None], gboth[..., None, :], out=buf)
        _scatter_groups(wg, buf, tape.config.partition, gx, scratch, sat)
        grad_pk[..., blk] = np.einsum("hwdc,hwc->hwd", gx[..., :-1], v) + gx[..., -1]
        grad_v += np.einsum("hwdc,hwd->hwc", gx[..., :-1], pk[..., blk])
        tail += np.einsum("hwd,hwd->hw", pq[..., blk], zt)
        dots[..., 1:] += np.einsum("hwd,hwdg->hwg", pq[..., blk], z)
        grad_pq[..., blk] = (wg.merged[..., None] * zt
                             + np.einsum("hwdg,hwg->hwd", z[..., :coefs.shape[-1]], coefs))
    return dots, tail, grad_pq, grad_pk, grad_v


def _feature_grads(q, k, featmap, grad_pq, grad_pk):
    """Pull the phi_q and phi_k cotangents through the shared feature map:
    the token gradients of q and k, and the parameter gradients summed over
    both streams."""
    fq = feature_vjp(q, featmap, grad_pq)
    fk = feature_vjp(k, featmap, grad_pk)
    params = FeatureParamGrads(
        w1=fq.grad_w1 + fk.grad_w1,
        w2=None if fq.grad_w2 is None else fq.grad_w2 + fk.grad_w2,
        b2=None if fq.grad_b2 is None else fq.grad_b2 + fk.grad_b2)
    return fq.grad_x, fk.grad_x, params


# ---------- weight gradients, expanded form ----------

def grad_alpha(tape: AttentionTape, upstream: np.ndarray) -> np.ndarray:
    """Gradient of the loss wrt every entry of the padded weight grid.

    Treats each alphas[i, j, r] as an independent weight (the enumeration
    oracle's view); shape matches tape.weights.alphas. The merged-tail
    structure is ignored here, so rows with a shared tail report one gradient
    per underlying group, not one for the shared value.
    """
    dots = _blocked_backward(tape, upstream, tape.weights.alphas.shape[-1])[0]
    return np.diff(dots, axis=-1)


# ---------- token-position gradients ----------

def grad_pixels(weights: WeightGrid, upstream_field: np.ndarray,
                partition: PartitionScheme) -> np.ndarray:
    """Gradient each token position receives through the weighted group sums.

    For out[i, j] accumulating alpha_r(i, j) * sum over the group-r band, the
    gradient at token (m, n) is sum over queries (i, j) of alpha(i, j)[group of
    the (i, j)-(m, n) distance] * upstream[i, j]. This is the adjoint of the
    forward sweep: the merged weight pushes one global sum to every token,
    and head group r adds one window of weights.window_coefs()[..., r] *
    upstream, so the cost is O(H W hat_max) fetches. Group 0's window is the
    weighted field itself; later groups refill one table.
    """
    g = np.asarray(upstream_field, dtype=np.float64)
    return _scatter_groups(weights, g, partition, np.empty_like(g), np.empty_like(g))


def _scatter_groups(weights: WeightGrid, g: np.ndarray, partition: PartitionScheme,
                    out: np.ndarray, scratch: np.ndarray,
                    sat: SummedAreaTable | None = None) -> np.ndarray:
    """grad_pixels of ``g`` written into ``out`` and returned. ``scratch``
    (g's shape) holds each group's weighted field; ``sat``, a table of that
    shape or None to build one, is refilled for every group past 0."""
    lift = g.shape[:2] + (1,) * (g.ndim - 2)
    out[...] = np.tensordot(weights.merged, g, axes=([0, 1], [0, 1]))
    coefs = weights.window_coefs()
    for r in range(coefs.shape[-1]):
        np.multiply(coefs[..., r].reshape(lift), g, out=scratch)
        if r:    # the table holds all the window needs: it overwrites the field
            sat = SummedAreaTable(scratch) if sat is None else sat.rebuild(scratch)
            sat.window_sum_grid(group_span(partition.kind, r)[1], out=scratch)
        out += scratch
    return out


def grad_pixels_reference(weights: WeightGrid, upstream_field: np.ndarray,
                          partition: PartitionScheme) -> np.ndarray:
    """Brute-force scatter over explicit group members; quadratic, for tests."""
    g = np.asarray(upstream_field, dtype=np.float64)
    h, w = g.shape[:2]
    shape = GridShape(h, w)
    out = np.zeros_like(g)
    for i in range(1, h + 1):
        for j in range(1, w + 1):
            push = g[i - 1, j - 1]
            for r in range(int(weights.groups[i - 1, j - 1])):
                a = weights.alphas[i - 1, j - 1, r]
                for (m, n) in group_members(partition, shape, (i, j), r):
                    out[m - 1, n - 1] += a * push
    return out


# ---------- learned-scheme backward ----------

def _stick_param_grads(params: StickParams, projected: np.ndarray,
                       v: np.ndarray, glogits: np.ndarray, r_max: int):
    """Pull per-query logit cotangents back to the stick parameters and v."""
    used = params.unit_embeddings[:r_max]
    g_units = np.zeros_like(params.unit_embeddings)
    g_units[:r_max] = np.einsum("hwr,hwe->re", glogits, projected)
    gproj = np.einsum("hwr,re->hwe", glogits, used)
    g_proj_mat = np.einsum("hwe,hwc->ec", gproj, v)
    gv = gproj @ params.value_projection
    return gv, StickGrads(unit_embeddings=g_units, value_projection=g_proj_mat)


def _scheme_backward(scheme: WeightScheme, partition: PartitionScheme,
                     wg: WeightGrid, v: np.ndarray, ghead: np.ndarray,
                     gmerged: np.ndarray):
    """Route head/tail weight gradients into the stick parameters.

    ghead must already be zero at and past each query's hat. Returns the value
    gradient through the weight pipeline plus parameter grads, or (0, None)
    for schemes with nothing to learn.
    """
    if scheme.kind not in LEARNED_KINDS:
        return 0.0, None
    r_max = partition.r_max
    fracs, logits, projected = grid_stick_fractions(v, scheme, r_max)
    hat = wg.hat
    max_hat = ghead.shape[-1]
    in_head = np.arange(max_hat) < hat[..., None]

    if scheme.kind is WeightSchemeKind.SOFTMAX_WEIGHTS:
        padded = np.concatenate((logits, np.zeros(logits.shape[:-1] + (1,))), axis=-1)
        z = padded - padded.max(axis=-1, keepdims=True)
        gamma = np.exp(z)
        gamma /= gamma.sum(axis=-1, keepdims=True)
        ggamma = np.zeros_like(gamma)
        adj = ghead - np.where(in_head, (gmerged / (wg.groups - hat))[..., None], 0.0)
        ggamma[..., :max_hat] = np.where(in_head, adj, 0.0)
        dot = np.einsum("hwr,hwr->hw", ggamma, gamma)
        gfull = gamma * (ggamma - dot[..., None])
        return _stick_param_grads(scheme.params, projected, v, gfull[..., :r_max], r_max)

    beta, remaining = _grid_stick_breaking(fracs)
    gbeta = np.zeros_like(beta)

    if scheme.kind is WeightSchemeKind.TRUNCATED:
        cut = hat  # for this scheme hat is the renormalized-head length
        keep = np.arange(beta.shape[-1]) < cut[..., None]
        headb = np.where(keep, beta, 0.0)
        total = headb.sum(axis=-1)
        gh = np.zeros_like(beta)
        gh[..., :max_hat] = ghead
        s_dot = np.einsum("hwr,hwr->hw", gh, headb)
        gbeta = np.where(keep,
                         gh / total[..., None] - (s_dot / (total * total))[..., None],
                         0.0)
    else:
        adj = ghead - np.where(in_head, (gmerged / (wg.groups - hat))[..., None], 0.0)
        gbeta[..., :max_hat] = np.where(in_head, adj, 0.0)

    # stick-breaking Jacobian: piece m scales with its own fraction through the
    # lead product and shrinks every later piece through (1 - fraction)
    lead = np.concatenate((np.ones(fracs.shape[:-1] + (1,)),
                           remaining[..., :-1]), axis=-1)
    weighted = gbeta * beta
    rev = np.cumsum(weighted[..., ::-1], axis=-1)[..., ::-1]
    one_minus = 1.0 - fracs
    # a fraction pinned at exactly 1 zeroes its own logit sensitivity anyway,
    # so the guarded quotient never leaks a wrong value into glogits
    safe = np.where(one_minus > 0.0, one_minus, 1.0)
    gs = gbeta[..., :r_max] * lead - rev[..., 1:] / safe
    glogits = gs * fracs * one_minus
    return _stick_param_grads(scheme.params, projected, v, glogits, r_max)


# ---------- full backward passes ----------

def ripple_vjp(tape: AttentionTape, upstream: np.ndarray) -> RippleGradients:
    """Backward pass of the prefix-sum group attention.

    Fetch cost is O(H W) per head group in each of the weight and token
    gradients, the same order as the forward sweep.
    """
    cfg = tape.config
    wg = tape.weights
    max_hat = int(wg.hat.max())
    dots, tail, grad_pq, grad_pk, grad_v = _blocked_backward(tape, upstream, max_hat)
    in_head = np.arange(max_hat) < wg.hat[..., None]
    ghead = np.where(in_head, np.diff(dots, axis=-1), 0.0)
    covered = np.take_along_axis(dots, wg.hat[..., None], axis=-1)[..., 0]
    gmerged = tail - covered

    gv_stick, stick = _scheme_backward(cfg.scheme, cfg.partition, wg, tape.v,
                                       ghead, gmerged)
    grad_v = grad_v + gv_stick

    grad_q, grad_k, featmap = _feature_grads(tape.q, tape.k, cfg.featmap,
                                             grad_pq, grad_pk)
    return RippleGradients(grad_q=grad_q, grad_k=grad_k, grad_v=grad_v,
                           grad_alpha_head=ghead, grad_merged=gmerged,
                           featmap=featmap, stick=stick)


def linearized_vjp(tape: LinearTape, upstream: np.ndarray) -> LinearizedGradients:
    """Backward pass of the global linearized attention."""
    gnum, gden = _quotient_streams(tape.num, tape.den, upstream)
    grad_pq = np.einsum("hwc,dc->hwd", gnum, tape.z1) + gden[..., None] * tape.z2
    gz1 = np.einsum("hwd,hwc->dc", tape.phi_q, gnum)
    gz2 = np.einsum("hwd,hw->d", tape.phi_q, gden)
    grad_pk = np.einsum("dc,hwc->hwd", gz1, tape.v) + gz2
    grad_v = np.einsum("dc,hwd->hwc", gz1, tape.phi_k)
    grad_q, grad_k, featmap = _feature_grads(tape.q, tape.k, tape.featmap,
                                             grad_pq, grad_pk)
    return LinearizedGradients(grad_q=grad_q, grad_k=grad_k,
                               grad_v=grad_v, featmap=featmap)


def multi_head_vjp(tape: MultiHeadTape, upstream: np.ndarray) -> MultiHeadGradients:
    """Backward pass of the multi-head wrapper: output mix, heads, projections."""
    g = np.asarray(upstream, dtype=np.float64)
    params = tape.params
    b_out = g.sum(axis=(0, 1))
    w_out = np.einsum("hwm,hwn->mn", g, tape.concat)
    gconcat = g @ params.w_out
    x = tape.x
    grad_x = np.zeros_like(x)
    heads = []
    offset = 0
    for head, htape in zip(params.heads, tape.head_tapes):
        head_dim = head.wq.shape[0]
        gout = gconcat[..., offset:offset + head_dim]
        offset += head_dim
        if isinstance(htape, LinearTape):
            hg = linearized_vjp(htape, gout)
            gq, gk, gv, fg, stick = hg.grad_q, hg.grad_k, hg.grad_v, hg.featmap, None
        else:
            rg = ripple_vjp(htape, gout)
            gq, gk, gv, fg, stick = rg.grad_q, rg.grad_k, rg.grad_v, rg.featmap, rg.stick
        heads.append(HeadGradients(wq=np.einsum("hwd,hwm->dm", gq, x),
                                   wk=np.einsum("hwd,hwm->dm", gk, x),
                                   wv=np.einsum("hwd,hwm->dm", gv, x),
                                   featmap=fg, stick=stick))
        grad_x += gq @ head.wq + gk @ head.wk + gv @ head.wv
    return MultiHeadGradients(grad_x=grad_x, heads=heads, w_out=w_out, b_out=b_out)


# ---------- numerical audit ----------

@dataclass
class FiniteDiffReport:
    passed: bool
    tolerance: float
    max_rel_error: float
    worst_param: str
    worst_index: tuple
    per_param: dict[str, float]
    checked: int
    loss: float

    def __str__(self):
        state = "ok" if self.passed else "FAIL"
        return (f"gradcheck {state}: max rel err {self.max_rel_error:.3e} "
                f"at {self.worst_param}{list(self.worst_index)} "
                f"({self.checked} coordinates, tol {self.tolerance:.1e})")


def finite_diff_check(loss_fn, params: dict[str, np.ndarray], step: float = 1e-5,
                      tolerance: float = 1e-4, mode: str = "full",
                      sample: int = 25, rng: np.random.Generator | None = None
                      ) -> FiniteDiffReport:
    """Audit analytic gradients against central differences.

    loss_fn(params) must return (scalar loss, dict of gradients matching the
    parameter shapes). mode "full" checks every coordinate; "sample" checks up
    to ``sample`` random coordinates per tensor, which is the only practical
    option for model-sized parameter sets. Relative errors are normalized per
    tensor by the largest magnitude either side produced.
    """
    if mode not in ("full", "sample"):
        raise ValueError(f"mode must be 'full' or 'sample', got {mode!r}")
    rng = rng if rng is not None else np.random.default_rng(0)
    loss0, analytic = loss_fn(params)
    per_param: dict[str, float] = {}
    max_rel, worst_param, worst_index = 0.0, "", ()
    checked = 0
    for name in sorted(params):
        base = np.asarray(params[name], dtype=np.float64)
        ana = np.asarray(analytic[name], dtype=np.float64)
        if ana.shape != base.shape:
            raise ValueError(f"gradient shape mismatch for {name!r}")
        if mode == "full" or base.size <= sample:
            flat = np.arange(base.size)
        else:
            flat = np.sort(rng.choice(base.size, size=sample, replace=False))
        fd = np.zeros(flat.size)
        an = np.zeros(flat.size)
        for t, f in enumerate(flat):
            idx = np.unravel_index(int(f), base.shape)
            an[t] = ana[idx]
            for sign in (1.0, -1.0):
                bumped = base.copy()
                bumped[idx] += sign * step
                shifted = dict(params)
                shifted[name] = bumped
                fd[t] += sign * float(loss_fn(shifted)[0])
            fd[t] /= 2.0 * step
        scale = max(float(np.abs(an).max(initial=0.0)),
                    float(np.abs(fd).max(initial=0.0)), 1e-12)
        rel = np.abs(an - fd) / scale
        worst_t = int(np.argmax(rel))
        per_param[name] = float(rel[worst_t])
        checked += flat.size
        if rel[worst_t] > max_rel:
            max_rel = float(rel[worst_t])
            worst_param = name
            worst_index = tuple(int(i) for i in
                                np.unravel_index(int(flat[worst_t]), base.shape))
    return FiniteDiffReport(passed=max_rel <= tolerance, tolerance=tolerance,
                            max_rel_error=max_rel, worst_param=worst_param,
                            worst_index=worst_index, per_param=per_param,
                            checked=checked, loss=float(loss0))
