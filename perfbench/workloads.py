"""The benchmark's workloads, each a closed loop over one unit of work.

A workload builds every input from its seed, then hands the library only
arrays and config objects. It calls library functions through their modules
at call time (``api.attention.ripple_dp(...)``), so the tracer's wrappers see
the calls. Outputs are checked against ``oracle`` after each unit's timer
stops; start-up gates run before any timing.
"""
from __future__ import annotations

import sys

import numpy as np

import oracle

GATE_TOLERANCE = 1e-8      # the bound ripplegrid.bench._gate applies to ripple_naive
QUERY_TOLERANCE = 1e-8     # sampled queries against token-by-token sums
VJP_TOLERANCE = 1e-6       # directional central difference against ripple_vjp
VJP_STEP = 1e-6
SAMPLED_QUERIES = 4
GATE_SHAPES = ((7, 7), (5, 9))


class CheckFailed(Exception):
    """An output disagreed with its reference."""


def rel_error(got, want) -> float:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape or not np.isfinite(got).all():
        return float("inf")
    return float(np.abs(got - want).max() / max(float(np.abs(want).max()), 1e-300))


def expect(label: str, err: float, tol: float) -> str:
    if not err <= tol:
        raise CheckFailed(f"{label}: relative error {err:.3e} exceeds {tol:.0e}")
    return f"{label}: {err:.1e} <= {tol:.0e}"


class Api:
    """The library entry points the workloads call, resolved once.

    Names the roadmap plans to remove resolve to their survivors: the dyadic
    forward falls back to ``ripple_dp``, and a missing ``fetch_count`` turns
    the fetch metrics off instead of failing the run.
    """

    def __init__(self):
        import ripplegrid
        from ripplegrid import attention, grad, sat, toymodel
        self.rg, self.attention, self.grad, self.sat, self.toymodel = \
            ripplegrid, attention, grad, sat, toymodel
        self.dyadic_name = "ripple_dp_dyadic"
        if not hasattr(attention, self.dyadic_name):
            self.dyadic_name = "ripple_dp"
            print("warning: ripplegrid.attention.ripple_dp_dyadic not found; "
                  "the dyadic forward calls ripple_dp", file=sys.stderr)
        self.fetch_count = getattr(sat, "fetch_count", None)

    def fetches(self):
        return None if self.fetch_count is None else self.fetch_count()

    def featmap(self, w1, w2, b2):
        rg = self.rg
        return rg.FeatureMapParams(kind=rg.FeatureMapKind.DETERMINISTIC_ADAPTIVE,
                                   w1=w1, w2=w2, b2=b2)

    def config(self, scheme_kind, partition_kind, r_max, tau, featmap, stick=None):
        rg = self.rg
        return rg.AttentionConfig(
            scheme=rg.WeightScheme(kind=scheme_kind, params=stick),
            partition=rg.PartitionScheme(kind=partition_kind, r_max=r_max, tau=tau),
            featmap=featmap)


def _featmap_arrays(rng, width):
    """Adaptive feature-map parameters drawn as ``init_feature_map`` draws them."""
    return (rng.standard_normal((width, width)),
            rng.standard_normal((width, 2 * width)) / np.sqrt(2.0 * width),
            np.zeros(width))


def _oracle_gate(api, rng, fast, scheme_kind, partition_kind, r_max, tau, width,
                 learned) -> list[str]:
    """ripple_naive against the fast forward on small grids."""
    lines = []
    for h, w in GATE_SHAPES:
        q, k, v = (rng.standard_normal((h, w, width)) for _ in range(3))
        stick = None
        if learned:
            stick = api.rg.StickParams(unit_embeddings=rng.standard_normal((r_max, width)),
                                       value_projection=rng.standard_normal((width, width))
                                       / np.sqrt(width))
        cfg = api.config(scheme_kind, partition_kind, r_max, tau,
                         api.featmap(*_featmap_arrays(rng, width)), stick)
        want = api.attention.ripple_naive(q, k, v, cfg, build_tape=False).out
        got = fast(q, k, v, cfg).out
        lines.append(expect(f"ripple_naive vs fast forward at {h}x{w}",
                            rel_error(got, want), GATE_TOLERANCE))
    return lines


class GridAttention:
    """Shared by the two single-layer workloads: seeded q, k, v and feature
    map at side x side with width 32, plus sampled-query output checks."""

    side = 32
    width = 32
    r_max = 4
    tau = 0.05
    dyadic = False

    def __init__(self, api: Api, seed: int):
        self.api = api
        rng = np.random.Generator(np.random.PCG64(seed))
        shape = (self.side, self.side, self.width)
        self.q, self.k, self.v = (rng.standard_normal(shape) for _ in range(3))
        self.fm_arrays = _featmap_arrays(rng, self.width)
        self.rng = rng
        self.tokens = self.side * self.side
        self.gate_rng = np.random.Generator(np.random.PCG64([seed, 1]))
        self.phi_q = self.phi_k = None

    def prepare_checks(self) -> None:
        self.phi_q = oracle.feature_map(self.q, *self.fm_arrays)
        self.phi_k = oracle.feature_map(self.k, *self.fm_arrays)

    def query_alphas(self, i: int, j: int) -> np.ndarray:
        raise NotImplementedError

    def check_queries(self, out: np.ndarray, check_rng, count=SAMPLED_QUERIES) -> float:
        if out.shape != self.v.shape:
            raise CheckFailed(f"output shape {out.shape}, expected {self.v.shape}")
        worst = 0.0
        for _ in range(count):
            i, j = (int(x) for x in check_rng.integers(0, self.side, size=2))
            want = oracle.query_output(i, j, self.phi_q, self.phi_k, self.v,
                                       self.query_alphas(i, j), self.dyadic,
                                       self.epsilon)
            err = rel_error(out[i, j], want)
            if not err <= QUERY_TOLERANCE:
                raise CheckFailed(f"query ({i}, {j}): relative error {err:.3e} "
                                  f"exceeds {QUERY_TOLERANCE:.0e}")
            worst = max(worst, err)
        return worst

    def working_set(self) -> list[tuple[str, int]]:
        n = self.side * self.side
        return [("(H,W,Dp,C) f64 array", n * self.width * self.width * 8),
                ("(H,W,Dp) f64 array", n * self.width * 8)]


class RingForward(GridAttention):
    """Inference: one ``ripple_dp`` call on 48x48 unit rings with the fixed
    exponential scheme, so every query halts at hat = 4."""

    name = "ring-fwd-48"
    side = 48

    def __init__(self, api: Api, seed: int):
        super().__init__(api, seed)
        rg = api.rg
        self.cfg = api.config(rg.WeightSchemeKind.FIXED_EXPONENTIAL,
                              rg.PartitionKind.UNIT_RING, self.r_max, self.tau,
                              api.featmap(*self.fm_arrays))
        self.epsilon = self.cfg.epsilon

    def unit(self):
        return self.api.attention.ripple_dp(self.q, self.k, self.v, self.cfg)

    def query_alphas(self, i, j):
        groups = oracle.group_count(False, i, j, self.side, self.side)
        return oracle.fixed_exponential_weights(groups, self.r_max)

    def startup_checks(self) -> list[str]:
        rg = self.api.rg
        lines = _oracle_gate(self.api, self.gate_rng, self.api.attention.ripple_dp,
                             rg.WeightSchemeKind.FIXED_EXPONENTIAL,
                             rg.PartitionKind.UNIT_RING, self.r_max, self.tau,
                             self.width, learned=False)
        self.prepare_checks()
        err = self.check_queries(self.unit().out, self.gate_rng, count=16)
        return lines + [expect("16 sampled queries at 48x48", err, QUERY_TOLERANCE)]

    def verify(self, result, check_rng) -> None:
        self.check_queries(result.out, check_rng)

    def yardstick(self, result) -> None:
        self.api.attention.linearized_grid(self.q, self.k, self.v, self.cfg.featmap,
                                           self.epsilon)


class DyadicTrainStep(GridAttention):
    """One attention training step: the dyadic forward with learned stick
    weights, then ``ripple_vjp`` against a seeded upstream gradient."""

    name = "dyadic-fwdbwd-32"
    side = 32
    dyadic = True
    vjp_every = 8          # directional check on every 8th unit; one costs ~0.2 s

    def __init__(self, api: Api, seed: int):
        super().__init__(api, seed)
        rg, rng = api.rg, self.rng
        self.emb = rng.standard_normal((self.r_max, self.width))
        self.proj = rng.standard_normal((self.width, self.width)) / np.sqrt(self.width)
        self.upstream = rng.standard_normal(self.v.shape)
        self.cfg = api.config(rg.WeightSchemeKind.LEARNED_SBT, rg.PartitionKind.DYADIC,
                              self.r_max, self.tau, api.featmap(*self.fm_arrays),
                              rg.StickParams(unit_embeddings=self.emb,
                                             value_projection=self.proj))
        self.epsilon = self.cfg.epsilon
        self.units = 0

    def forward(self):
        return getattr(self.api.attention, self.api.dyadic_name)

    def unit(self):
        res = self.forward()(self.q, self.k, self.v, self.cfg)
        return res, self.api.grad.ripple_vjp(res.tape, self.upstream)

    def prepare_checks(self) -> None:
        super().prepare_checks()
        self.dense = oracle.DenseDyadic(self.side, self.side, self.r_max, self.tau,
                                        self.epsilon)
        # discrete choices are held fixed under perturbation, as in the backward
        self.alphas, self.hats = self.dense.weights(self.v, self.emb, self.proj)
        self.on_q = oracle.feature_preactivation(self.q, *self.fm_arrays) > 0.0
        self.on_k = oracle.feature_preactivation(self.k, *self.fm_arrays) > 0.0

    def query_alphas(self, i, j):
        return self.alphas[i * self.side + j]

    def check_vjp(self, grads, check_rng) -> float:
        """Central difference of sum(out * upstream) along one random
        direction over every input the backward differentiates."""
        base = [self.q, self.k, self.v, *self.fm_arrays, self.emb, self.proj]
        fm = grads.featmap
        analytic = [grads.grad_q, grads.grad_k, grads.grad_v, fm.w1, fm.w2, fm.b2,
                    grads.stick.unit_embeddings, grads.stick.value_projection]
        direction = [check_rng.standard_normal(a.shape) for a in base]
        slope = sum(float((g * d).sum()) for g, d in zip(analytic, direction))

        def loss(sign):
            args = [a + sign * VJP_STEP * d for a, d in zip(base, direction)]
            out = self.dense.forward(*args, self.hats, self.on_q, self.on_k)
            return float((out * self.upstream).sum())

        numeric = (loss(1.0) - loss(-1.0)) / (2.0 * VJP_STEP)
        return abs(numeric - slope) / max(abs(numeric), abs(slope), 1e-300)

    def startup_checks(self) -> list[str]:
        rg = self.api.rg
        lines = _oracle_gate(self.api, self.gate_rng, self.forward(),
                             rg.WeightSchemeKind.LEARNED_SBT, rg.PartitionKind.DYADIC,
                             self.r_max, self.tau, self.width, learned=True)
        self.prepare_checks()
        res, grads = self.unit()
        lines.append(expect("16 sampled queries at 32x32",
                            self.check_queries(res.out, self.gate_rng, count=16),
                            QUERY_TOLERANCE))
        lines.append(expect("ripple_vjp directional derivative at 32x32",
                            self.check_vjp(grads, self.gate_rng), VJP_TOLERANCE))
        return lines

    def verify(self, result, check_rng) -> None:
        res, grads = result
        self.check_queries(res.out, check_rng)
        self.units += 1
        if self.units % self.vjp_every == 0:
            expect("ripple_vjp directional derivative",
                   self.check_vjp(grads, check_rng), VJP_TOLERANCE)

    def yardstick(self, result) -> None:
        _, tape = self.api.attention.linearized_grid(self.q, self.k, self.v,
                                                     self.cfg.featmap, self.epsilon)
        self.api.grad.linearized_vjp(tape, self.upstream)


class ToyTrainStep:
    """One ``train_demo``-style step of the default toy model on the
    local-majority task: batch 8, SGD with momentum, lr 0.05, clip 1.0.

    Every unit is the first step from the seed's initial parameters, on a
    fresh batch. At initialization every head's halting index reaches r_max
    somewhere on the grid, so the sweep length is the same on every seed;
    over a few hundred steps of real training it shrinks by up to a third on
    some seeds, which would make the work per unit depend on the seed.
    """

    name = "toy-train-8"
    batch = 8
    lr = 0.05
    clip = 1.0
    # The finite-difference gate audits the model on the conditioned instance
    # of tests/test_toymodel.py: epsilon 1e-3, step 3e-6, tolerance 1e-3, at
    # 2 coordinates per tensor (the test samples 6) to keep the gate near 2 s.
    # Instances drawn from the run's seed straddle a ReLU kink or flip a
    # halting index within the step for 3 to 5 seeds in ten, which would
    # fail correct code; the gradient code is the same at every size.
    fd_config = dict(height=4, width=4, model_dim=8, num_heads=2, head_dim=4,
                     num_layers=2, ripple_layers=1, r_max=2, epsilon=1e-3)

    def __init__(self, api: Api, seed: int):
        self.api = api
        tm = api.toymodel
        self.cfg = tm.ToyModelConfig()
        self.init_params = tm.init_model(self.cfg, seed=seed)
        self.shape = api.rg.GridShape(self.cfg.height, self.cfg.width)
        self.rng = np.random.Generator(np.random.PCG64(seed + 1))
        self.tokens = self.batch * self.cfg.height * self.cfg.width
        self.gate_rng = np.random.Generator(np.random.PCG64([seed, 1]))

    def unit(self):
        tm = self.api.toymodel
        imgs, labels = tm.make_local_majority_batch(self.rng, self.batch, self.shape)
        params = dict(self.init_params)     # the step rebinds entries, never writes into them
        loss, grads, _ = tm.loss_and_grads(imgs, labels, params, self.cfg)
        norm = tm.clip_grad_norm(grads, self.clip)
        tm.SgdMomentum(lr=self.lr).step(params, grads)
        return loss, norm

    def startup_checks(self) -> list[str]:
        rg, tm, cfg = self.api.rg, self.api.toymodel, self.cfg
        lines = _oracle_gate(self.api, self.gate_rng, self.api.attention.ripple_dp,
                             cfg.scheme_kind, cfg.partition_kind, cfg.r_max, cfg.tau,
                             cfg.head_dim, learned=True)
        fd_cfg = tm.ToyModelConfig(**self.fd_config)
        imgs, labels = tm.make_local_majority_batch(
            np.random.Generator(np.random.PCG64(1)), 2, rg.GridShape(4, 4))

        def loss_fn(p):
            loss, grads, _ = tm.loss_and_grads(imgs, labels, p, fd_cfg)
            return loss, grads

        report = self.api.grad.finite_diff_check(
            loss_fn, tm.init_model(fd_cfg, seed=0), step=3e-6, tolerance=1e-3,
            mode="sample", sample=2, rng=np.random.default_rng(2))
        lines.append(expect(f"finite_diff_check(mode='sample') of the 4x4 model on "
                            f"{report.checked} coordinates", report.max_rel_error, 1e-3))
        return lines

    def verify(self, result, check_rng) -> None:
        loss, norm = result
        if not (np.isfinite(loss) and np.isfinite(norm)):
            raise CheckFailed(f"non-finite loss {loss} or gradient norm {norm}")

    def yardstick(self, result) -> None:
        """The model's upper block already runs the linearized attention."""

    def working_set(self) -> list[tuple[str, int]]:
        cfg = self.cfg
        n = cfg.height * cfg.width
        return [("per-head (H,W,Dp,C) f64 array", n * cfg.head_dim * cfg.head_dim * 8),
                ("per-head SAT table", (cfg.height + 1) * (cfg.width + 1)
                 * cfg.head_dim * cfg.head_dim * 8)]


WORKLOADS = {w.name: w for w in (RingForward, DyadicTrainStep, ToyTrainStep)}
