"""Analytic backward passes for the grid attention forward ops.

Every gradient here is a closed-form vector-Jacobian product pulled off the
tapes the forward passes record; nothing is differentiated numerically except
in finite_diff_check, which exists to audit the rest of this module.

The group-weighted forward is y = m T + sum_g c_g W_g over one tabled field
(see the attention module). The tape keeps no table: the backward streams
the forward's table again and runs the transposes of its reads (see the
sat module). Each window gives z_g = W_g . gboth, which feeds the weight
gradients (phi_q . z_g, differenced over g) and the phi_q gradient
(sum_g c_g z_g). The token gradients are the sweep's adjoint: a token
receives the transposed window of the field c_g * cotangent per group,
plus the broadcast sum of m * cotangent, which the token adjoint collects
row by row in the same top-down walk and finishes chunk by chunk, straight
into the phi_k and v gradients. Group 0's window is the token itself, so
its share, like z_0 = phi_k ([v, 1] . gboth), takes only (H, W, heads, Dp)
arrays. Both directions read one window per head group past group 0, as
the forward does. Like the forward, the backward is one pass,
_attend_vjp, on the tape's (H, W, heads, ...) arrays, with a head axis of
length 1 for the single-head entry points; linearized attention skips
the weights. Its entry points are ripple_vjp (also named linearized_vjp)
and multi_head_vjp. The weight module takes the weight gradients on from
the window coefficients' cotangents to v and the stick parameters
(WeightGrid.window_coefs_vjp, scheme_weights_vjp).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .attention import AttentionTape, MultiHeadTape, _radius_zero_coef, _value_streams
from .featmap import feature_vjp
from .heads import matmul, outer_sum
from .sat import read_windows_vjp
from .vicinal import group_span
from .weights import StickGrads, scheme_weights_vjp


@dataclass
class FeatureParamGrads:
    """Feature-map parameter gradients summed over the query and key streams."""

    w1: np.ndarray
    w2: np.ndarray | None
    b2: np.ndarray | None


@dataclass
class AttentionGradients:
    """Gradients of one attention pass, with the tape's head axis after
    (H, W) from a multi-head layer and without it from the single-head
    entry points. The weight fields are None in linearized mode."""

    grad_q: np.ndarray
    grad_k: np.ndarray
    grad_v: np.ndarray
    grad_alpha_head: np.ndarray | None   # (H, W, max hat), zero past each query's hat
    grad_merged: np.ndarray | None       # (H, W), gradient of the shared tail weight
    featmap: FeatureParamGrads
    stick: StickGrads | None


@dataclass
class MultiHeadGradients:
    """A layer's gradients, stacked as MultiHeadParams stacks its parameters."""

    grad_x: np.ndarray
    w_qkv: np.ndarray
    featmap: FeatureParamGrads
    w_out: np.ndarray
    b_out: np.ndarray
    stick: StickGrads | None


# ---------- shared pieces ----------

def _checked_upstream(upstream, shape: tuple) -> np.ndarray:
    """The upstream gradient as f64, rejected unless it has the forward
    output's shape. Non-finite values pass: a diverged step reports them."""
    g = np.asarray(upstream, dtype=np.float64)
    if g.shape != shape:
        raise ValueError(f"upstream shape {g.shape} does not match the forward "
                         f"output shape {shape}")
    return g


def _quotient_cotangent(num, den, g):
    """d(num/den) as one cotangent over the accumulated [num, den] streams."""
    gden = -np.einsum("...c,...c->...", g, num) / (den * den)
    return np.concatenate((g / den[..., None], gden[..., None]), axis=-1)


def _single_head_cotangent(tape: AttentionTape, upstream) -> np.ndarray:
    """The cotangent of a single-head forward, whose (H, W, C) output has
    no head axis."""
    g = _checked_upstream(upstream, tape.num.shape[:2] + tape.num.shape[3:])
    return _quotient_cotangent(tape.num, tape.den, g[:, :, None])


def _streamed_backward(tape: AttentionTape, gboth: np.ndarray):
    """One top-down pass over the streamed table for the weight and token gradients.

    Arrays carry the head axis after (H, W), as in the forward sweep. With
    cot = phi_q (x) gboth the swept field's cotangent, returns <cot, W_g>
    per query for g below the largest hat (the window coefficients'
    cotangents), <cot, T>, and the phi_q, phi_k and v gradients, from
    sat.read_windows_vjp's z_g = W_g . gboth and token adjoint (of c_g cot
    per window and the tail's m cot) as their rows finish. The radius-0
    window and the tail take only small arrays."""
    pq, pk, wg, partition = tape.phi_q, tape.phi_k, tape.weights, tape.partition
    coefs = wg.window_coefs()
    length = coefs.shape[-1]
    radii = [group_span(partition.kind, g)[1] for g in range(1, length)]
    streams = _value_streams(tape.v)
    sg = np.einsum("...c,...c->...", streams, gboth)           # [v, 1] . gboth
    qk = np.einsum("...d,...d->...", pq, pk)
    dots = np.zeros(gboth.shape[:-1] + (length,))
    dots[..., :1] = (sg * qk)[..., None]    # phi_q . z_0, where there are coefficients
    tail_cot = outer_sum(wg.merged[..., None] * pq, gboth, heads=True)   # (heads, Dp, C + 1)
    c_0 = _radius_zero_coef(coefs)
    grad_pq = (c_0 * sg)[..., None] * pk
    grad_pk = (c_0 * sg)[..., None] * pq
    grad_v = (c_0 * qk)[..., None] * gboth[..., :-1]
    for zrows, z, grows, gx, total in read_windows_vjp(pk, streams, radii, coefs[..., 1:], pq,
                                                       gboth, tail_cot):
        dots[zrows, ..., 1:] += np.einsum("...d,...gd->...g", pq[zrows], z)
        grad_pq[zrows] += np.einsum("...gd,...g->...d", z, coefs[zrows, ..., 1:])
        grad_pk[grows] += np.einsum("...dc,...c->...d", gx, streams[grows])
        grad_v[grows] += np.einsum("...dc,...d->...c", gx[..., :-1], pk[grows])
    zt = matmul(gboth, np.swapaxes(total, -1, -2))    # T . gboth: the last chunk yields T
    grad_pq += wg.merged[..., None] * zt
    return dots, np.einsum("...d,...d->...", pq, zt), grad_pq, grad_pk, grad_v


# ---------- full backward passes ----------

def _ripple_backward(tape: AttentionTape, gboth: np.ndarray):
    """The streamed backward and the weight pipeline's, over a stack of heads.
    Returns the phi_q, phi_k and v gradients (v's through the weights
    included), the head and tail weight gradients, and the stick grads. Its
    temporaries, the size of v's gradient among them, are freed on return,
    before the feature map's backward runs."""
    dots, tail, grad_pq, grad_pk, grad_v = _streamed_backward(tape, gboth)
    ghead, gmerged = tape.weights.window_coefs_vjp(dots, tail)
    gv_stick, stick = scheme_weights_vjp(tape.scheme, tape.v, tape.partition, tape.weights,
                                         ghead, gmerged)
    return grad_pq, grad_pk, grad_v + gv_stick, ghead, gmerged, stick


def _linear_backward(tape: AttentionTape, gboth: np.ndarray):
    """phi_q, phi_k and v gradients of linearized attention over a stack of
    heads; each head's total of phi_k (x) [v, 1] is summed again."""
    pq, pk, v = tape.phi_q, tape.phi_k, tape.v
    gtotal = outer_sum(pq, gboth, heads=True)
    return (matmul(gboth, np.swapaxes(outer_sum(pk, _value_streams(v), heads=True), -1, -2)),
            matmul(_value_streams(v), np.swapaxes(gtotal, -1, -2)),
            matmul(pk, gtotal[..., :-1]))


def _attend_vjp(tape: AttentionTape, gboth: np.ndarray) -> AttentionGradients:
    """Backward of one attention pass, given the [num, den] cotangent. The
    phi_q and phi_k cotangents go through the shared feature map, whose
    parameter gradients are summed over both streams."""
    ghead = gmerged = stick = None
    if tape.weights is None:
        grad_pq, grad_pk, grad_v = _linear_backward(tape, gboth)
    else:
        grad_pq, grad_pk, grad_v, ghead, gmerged, stick = _ripple_backward(tape, gboth)
    fq = feature_vjp(tape.q, tape.featmap, grad_pq, tape.phi_q)
    fk = feature_vjp(tape.k, tape.featmap, grad_pk, tape.phi_k)
    featmap = FeatureParamGrads(
        w1=fq.grad_w1 + fk.grad_w1,
        w2=None if fq.grad_w2 is None else fq.grad_w2 + fk.grad_w2,
        b2=None if fq.grad_b2 is None else fq.grad_b2 + fk.grad_b2)
    return AttentionGradients(grad_q=fq.grad_x, grad_k=fk.grad_x, grad_v=grad_v,
                              grad_alpha_head=ghead, grad_merged=gmerged,
                              featmap=featmap, stick=stick)


def ripple_vjp(tape: AttentionTape, upstream: np.ndarray) -> AttentionGradients:
    """Backward pass of a single-head forward: ripple_dp, ripple_naive or
    linearized_grid.

    Fetch cost is O(H W) per head group in each of the weight and token
    gradients, the same order as the forward sweep.
    """
    g = _attend_vjp(tape, _single_head_cotangent(tape, upstream))
    # drop the head axis of length 1 from every array field
    return replace(g, **{name: a[:, :, 0] for name, a in vars(g).items()
                         if isinstance(a, np.ndarray)})


# the backward of linearized_grid is the same pass, kept under its own name
linearized_vjp = ripple_vjp


def multi_head_vjp(tape: MultiHeadTape, upstream: np.ndarray) -> MultiHeadGradients:
    """Backward pass of the multi-head wrapper: output mix, heads, projections.
    Every head's gradients come from one backward over the head axis, stacked
    as the layer's parameters are."""
    params, attn, x = tape.params, tape.attn, tape.x
    g = _checked_upstream(upstream, x.shape[:2] + params.b_out.shape)
    ag = _attend_vjp(attn, _quotient_cotangent(
        attn.num, attn.den, (g @ params.w_out).reshape(attn.num.shape)))
    gqkv = np.stack((ag.grad_q, ag.grad_k, ag.grad_v), axis=2).reshape(x.shape[:2] + (-1,))
    return MultiHeadGradients(grad_x=gqkv @ params.w_qkv, w_qkv=outer_sum(gqkv, x, heads=False),
                              featmap=ag.featmap, w_out=np.einsum("hwm,hwn->mn", g, tape.concat),
                              b_out=g.sum(axis=(0, 1)), stick=ag.stick)


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
