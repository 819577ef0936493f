"""A multi-head layer runs its heads as one stacked pass; these tests hold it
to a loop of single-head calls and count the tables it fills."""
import numpy as np
import pytest

from ripplegrid import sat as sat_module
from ripplegrid.attention import (
    AttentionConfig,
    MultiHeadConfig,
    init_multi_head,
    linearized_grid,
    multi_head_forward,
    ripple_dp,
)
from ripplegrid.grad import linearized_vjp, multi_head_vjp, ripple_vjp
from ripplegrid.sat import stream_plan
from ripplegrid.vicinal import PartitionKind, PartitionScheme, group_span
from ripplegrid.weights import WeightScheme, WeightSchemeKind
from stacked import MODES, head_arrays, head_params

SHAPES = ((5, 4), (1, 7))


def per_head_loop(x, params, config, upstream):
    """The layer and its gradients from single-head calls, one head at a time."""
    outs, grads, grad_x = [], [], 0.0
    gconcat = upstream @ params.w_out
    width = params.featmap.in_dim
    for h in range(params.featmap.w1.shape[0]):
        wq, wk, wv, featmap, head_stick = head_params(params, h)
        q, k, v = x @ wq.T, x @ wk.T, x @ wv.T
        gout = gconcat[..., h * width:(h + 1) * width]
        if config.attention == "linearized":
            out, tape = linearized_grid(q, k, v, featmap, config.epsilon)
            hg, stick = linearized_vjp(tape, gout), None
        else:
            cfg = AttentionConfig(scheme=WeightScheme(kind=config.scheme_kind, params=head_stick),
                                  partition=config.partition, featmap=featmap,
                                  epsilon=config.epsilon)
            res = ripple_dp(q, k, v, cfg)
            out, hg = res.out, ripple_vjp(res.tape, gout)
            stick = hg.stick
        outs.append(out)
        grads.append((hg, stick))
        grad_x = grad_x + (hg.grad_q @ wq + hg.grad_k @ wk + hg.grad_v @ wv)
    concat = np.concatenate(outs, axis=-1)
    return concat @ params.w_out.T + params.b_out, concat, grads, grad_x


def assert_close(got, want):
    scale = max(float(np.abs(want).max(initial=0.0)), 1e-300)
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * scale


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("num_heads", (1, 2, 3))
@pytest.mark.parametrize("partition_kind", list(PartitionKind))
@pytest.mark.parametrize("mode", MODES, ids=lambda m: f"{m[0]}-{m[1].value}")
def test_stacked_layer_matches_per_head_loop(mode, partition_kind, num_heads, shape):
    attention, kind = mode
    rng = np.random.default_rng([num_heads, shape[1], list(WeightSchemeKind).index(kind)])
    params = init_multi_head(rng, model_dim=5, num_heads=num_heads, head_dim=3, r_max=3,
                             scheme_kind=kind)
    config = MultiHeadConfig(partition=PartitionScheme(kind=partition_kind, r_max=3, tau=0.05),
                             scheme_kind=kind, attention=attention)
    x = rng.standard_normal(shape + (5,))
    upstream = rng.standard_normal(shape + (5,))
    out, tape = multi_head_forward(x, params, config)
    mg = multi_head_vjp(tape, upstream)
    want, concat, grads, grad_x = per_head_loop(x, params, config, upstream)

    assert_close(out, want)
    assert_close(mg.grad_x, grad_x)
    assert_close(mg.w_out, np.einsum("hwm,hwn->mn", upstream, concat))
    assert_close(mg.b_out, upstream.sum(axis=(0, 1)))
    assert (mg.stick is None) == (grads[0][1] is None)
    for h, (hg, stick) in enumerate(grads):
        got = head_arrays(mg, h)
        for name, g in (("wq", hg.grad_q), ("wk", hg.grad_k), ("wv", hg.grad_v)):
            assert_close(got[name], np.einsum("hwd,hwm->dm", g, x))
        for name in ("w1", "w2", "b2"):
            assert_close(got[name], getattr(hg.featmap, name))
        if stick is not None:
            assert_close(got["emb"], stick.unit_embeddings)
            assert_close(got["proj"], stick.value_projection)


def test_table_fills_do_not_grow_with_heads(monkeypatch):
    # each pass builds its table rows with table_rows, once per chunk, and
    # the backward finishes its token adjoint with prefix_sum, once per chunk
    fills = []

    def counting(build):
        def fill(acc, *args, **kwargs):
            fills.append(acc.shape)
            return build(acc, *args, **kwargs)
        return fill

    monkeypatch.setattr(sat_module, "table_rows", counting(sat_module.table_rows))
    monkeypatch.setattr(sat_module, "prefix_sum", counting(sat_module.prefix_sum))
    for partition_kind, r_max in ((PartitionKind.UNIT_RING, 3), (PartitionKind.UNIT_RING, 6),
                                  (PartitionKind.DYADIC, 4)):
        partition = PartitionScheme(kind=partition_kind, r_max=r_max, tau=0.05)
        counts = []
        for num_heads in (1, 2, 3):
            rng = np.random.default_rng(num_heads)
            params = init_multi_head(rng, model_dim=6, num_heads=num_heads, head_dim=4,
                                     r_max=r_max, scheme_kind=WeightSchemeKind.FIXED_EXPONENTIAL)
            config = MultiHeadConfig(partition=partition,
                                     scheme_kind=WeightSchemeKind.FIXED_EXPONENTIAL)
            x = rng.standard_normal((6, 6, 6))
            fills.clear()
            _, tape = multi_head_forward(x, params, config)
            hat = int(tape.attn.weights.hat.max())
            radii = [group_span(partition_kind, g)[1] for g in range(1, hat)]
            for backward in (False, True):      # one chunk of every row walked
                height, (ph, _) = stream_plan((6, 6, num_heads, 4, 5), radii, backward)
                assert height == 6 + ph + backward * (ph + 1), backward
            multi_head_vjp(tape, rng.standard_normal((6, 6, 6)))
            assert all(f[2] == num_heads for f in fills)    # every sum holds all heads
            counts.append(len(fills))
        # forward 1 table; backward 1 table and 1 prefix sum that finishes
        # the token adjoint, however long the sweep (hat 3 to 5)
        assert counts == [3, 3, 3], (partition_kind, r_max, hat)
