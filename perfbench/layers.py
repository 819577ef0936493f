"""Which library functions the traced run wraps, and how their spans reduce
to the per-layer metrics.

Each wrapper sits where the calling module looks the function up: the
attention module's ``feature_forward`` and ``scheme_weights_grid``, the grad
module's ``grad_pixels`` and ``ripple_vjp``, the toy model's
``multi_head_forward`` and so on. Metrics are per unit of work, taken as the
median over the traced units. ``ms`` metrics are inclusive span durations
unless the name says ``self``; ``sat.build_mb`` is computed from table sizes,
not measured.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

from spans import Tracer, self_times

# name -> unit; also the order metrics are printed in
METRICS = {
    "sat.build_ms": "ms", "sat.builds": "count", "sat.build_mb": "MB",
    "sat.window_ms": "ms", "sat.window_calls": "count", "sat.fetches": "count",
    "sat.useful_fetch_ratio": "ratio",
    "attention.dp_self_ms": "ms", "attention.multi_head_self_ms": "ms",
    "attention.linearized_ms": "ms", "attention.dp_over_linearized": "ratio",
    "grad.vjp_self_ms": "ms", "grad.pixels_ms": "ms", "grad.pixels_calls": "count",
    "grad.multi_head_vjp_self_ms": "ms", "grad.linearized_vjp_ms": "ms",
    "featmap.forward_ms": "ms", "featmap.forward_calls": "count", "featmap.vjp_ms": "ms",
    "weights.grid_ms": "ms", "weights.grid_calls": "count", "weights.jsd_ms": "ms",
    "weights.hat_mean": "index", "weights.hat_max": "index",
    "weights.tail_mass_mean": "mass",
    "toymodel.batch_ms": "ms", "toymodel.forward_self_ms": "ms",
    "toymodel.backward_self_ms": "ms", "toymodel.optimizer_ms": "ms",
    "trace.overhead_frac": "frac", "trace.self_sum_frac": "frac",
}

FORWARD_SPANS = ("attention.dp", "attention.multi_head")
# the linearized yardstick runs beside a unit, on the unit's inputs
YARDSTICK_SPANS = ("attention.linearized", "grad.linearized_vjp")


def install(tracer: Tracer, api) -> None:
    """Wrap every traced entry point; missing names are noted on the tracer."""
    attention, grad, sat, tm = api.attention, api.grad, api.sat, api.toymodel

    def fetches_before(args, kwargs):
        return {"fetch0": api.fetches()}

    def fetches_after(span, result, args):
        if span.attrs["fetch0"] is not None:
            span.attrs["fetches"] = api.fetches() - span.attrs["fetch0"]

    def multi_head_before(args, kwargs):
        config = args[2] if len(args) > 2 else kwargs.get("config")
        return {"fetch0": api.fetches(), "kind": getattr(config, "attention", "ripple")}

    def table_bytes(span, result, args):
        table = getattr(args[0], "table", None)
        if table is not None:
            span.attrs["bytes"] = table.nbytes

    def hat_stats(span, wg, args):
        hat = wg.hat
        span.attrs.update(
            hat_plus_one=int((hat + 1).sum()), hat_mean=float(hat.mean()),
            hat_max=int(hat.max()),
            tail_mass=float((wg.merged * (wg.groups - hat)).mean()))

    table = getattr(sat, "SummedAreaTable", None)
    if table is None:
        tracer.missing.append("ripplegrid.sat.SummedAreaTable")
    else:
        tracer.wrap(table, "__init__", "sat.build", after=table_bytes)
        tracer.wrap(table, "window_sum_grid", "sat.window")
    if api.fetch_count is None:
        tracer.missing.append("ripplegrid.sat.fetch_count")
    tracer.wrap(attention, "ripple_dp", "attention.dp", fetches_before, fetches_after)
    if api.dyadic_name != "ripple_dp":
        tracer.wrap(attention, api.dyadic_name, "attention.dp", fetches_before,
                    fetches_after)
    tracer.wrap(attention, "linearized_grid", "attention.linearized")
    tracer.wrap(attention, "feature_forward", "featmap.forward")
    tracer.wrap(attention, "scheme_weights_grid", "weights.grid", after=hat_stats)
    tracer.wrap(grad, "feature_vjp", "featmap.vjp")
    tracer.wrap(grad, "ripple_vjp", "grad.ripple_vjp")
    tracer.wrap(grad, "grad_pixels", "grad.pixels")
    tracer.wrap(grad, "linearized_vjp", "grad.linearized_vjp")
    tracer.wrap(tm, "multi_head_forward", "attention.multi_head", multi_head_before,
                fetches_after)
    tracer.wrap(tm, "multi_head_vjp", "grad.multi_head_vjp")
    tracer.wrap(tm, "scheme_weights_grid", "weights.grid")
    tracer.wrap(tm, "jsd_grid", "weights.jsd")
    tracer.wrap(tm, "model_forward", "toymodel.forward")
    tracer.wrap(tm, "model_backward", "toymodel.backward")
    tracer.wrap(tm, "make_local_majority_batch", "toymodel.batch")
    tracer.wrap(tm, "clip_grad_norm", "toymodel.optimizer")
    tracer.wrap(tm.SgdMomentum, "step", "toymodel.optimizer")


def _unit_metrics(spans, own, yardstick, fetch_metrics: bool) -> dict:
    """Metrics of one unit: spans under its root, plus its yardstick calls."""
    dur, self_ns, calls = defaultdict(int), defaultdict(int), defaultdict(int)
    built_bytes, useful, fwd_fetches = 0, 0, 0
    hats, hat_max, tails = [], 0, []
    by_kind = defaultdict(int)
    for idx, s in spans:
        length = s.end - s.start
        dur[s.name] += length
        self_ns[s.name] += own[idx]
        calls[s.name] += 1
        built_bytes += s.attrs.get("bytes", 0)
        if "hat_mean" in s.attrs:
            useful += 2 * s.attrs["hat_plus_one"]
            hats.append(s.attrs["hat_mean"])
            tails.append(s.attrs["tail_mass"])
            hat_max = max(hat_max, s.attrs["hat_max"])
        if s.name in FORWARD_SPANS:     # these never nest in one another
            fwd_fetches += s.attrs.get("fetches", 0)
        if s.name == "attention.multi_head":
            by_kind[s.attrs["kind"]] += length
    for idx, s in yardstick:
        dur[s.name] += s.end - s.start

    ms = {name: value / 1e6 for name, value in dur.items()}
    self_ms = {name: value / 1e6 for name, value in self_ns.items()}
    if dur["attention.dp"]:
        ratio = _ratio(dur["attention.dp"], dur["attention.linearized"])
    else:
        ratio = _ratio(by_kind["ripple"], by_kind["linearized"])
    out = {
        "sat.build_ms": ms.get("sat.build", 0.0), "sat.builds": calls["sat.build"],
        "sat.build_mb": built_bytes / 1e6,
        "sat.window_ms": ms.get("sat.window", 0.0), "sat.window_calls": calls["sat.window"],
        "attention.dp_self_ms": self_ms.get("attention.dp", 0.0),
        "attention.multi_head_self_ms": self_ms.get("attention.multi_head", 0.0),
        "attention.linearized_ms": ms.get("attention.linearized", 0.0),
        "attention.dp_over_linearized": ratio,
        "grad.vjp_self_ms": self_ms.get("grad.ripple_vjp", 0.0),
        "grad.pixels_ms": ms.get("grad.pixels", 0.0), "grad.pixels_calls": calls["grad.pixels"],
        "grad.multi_head_vjp_self_ms": self_ms.get("grad.multi_head_vjp", 0.0),
        "grad.linearized_vjp_ms": ms.get("grad.linearized_vjp", 0.0),
        "featmap.forward_ms": ms.get("featmap.forward", 0.0),
        "featmap.forward_calls": calls["featmap.forward"],
        "featmap.vjp_ms": ms.get("featmap.vjp", 0.0),
        "weights.grid_ms": ms.get("weights.grid", 0.0), "weights.grid_calls": calls["weights.grid"],
        "weights.jsd_ms": ms.get("weights.jsd", 0.0),
        "weights.hat_mean": statistics.fmean(hats) if hats else None,
        "weights.hat_max": hat_max if hats else None,
        "weights.tail_mass_mean": statistics.fmean(tails) if tails else None,
        "toymodel.batch_ms": ms.get("toymodel.batch", 0.0),
        "toymodel.forward_self_ms": self_ms.get("toymodel.forward", 0.0),
        "toymodel.backward_self_ms": self_ms.get("toymodel.backward", 0.0),
        "toymodel.optimizer_ms": ms.get("toymodel.optimizer", 0.0),
    }
    if fetch_metrics:
        out["sat.useful_fetch_ratio"] = _ratio(useful, fwd_fetches)
    return {name: value for name, value in out.items() if value is not None}


def _ratio(num, den):
    """None when a missing entry point left the base empty."""
    return num / den if den else None


def reduce(tracer: Tracer, unit_walls: list[int], fetch_metrics: bool) -> dict:
    """Per-layer metrics, each the median over traced units.

    ``unit_walls`` holds each unit's wall time taken outside its root span;
    ``trace.self_sum_frac`` is the sum of the unit's span self times over it.
    """
    spans = tracer.spans
    own = self_times(spans)
    root = []
    for idx, s in enumerate(spans):
        root.append(idx if s.parent < 0 else root[s.parent])
    members, yardsticks, roots = defaultdict(list), defaultdict(list), {}
    for idx, s in enumerate(spans):
        if spans[root[idx]].name == "unit":
            members[s.unit].append((idx, s))
            if idx == root[idx]:
                roots[s.unit] = s
        elif s.name in YARDSTICK_SPANS:
            yardsticks[s.unit].append((idx, s))
    per_unit = []
    for unit, unit_span in sorted(roots.items()):
        row = _unit_metrics(members[unit], own, yardsticks[unit], fetch_metrics)
        if fetch_metrics:
            row["sat.fetches"] = unit_span.attrs["fetches"]
        row["trace.self_sum_frac"] = sum(own[i] for i, _ in members[unit]) / unit_walls[unit]
        per_unit.append(row)
    return {name: statistics.median(row[name] for row in per_unit)
            for name in METRICS if per_unit and all(name in row for row in per_unit)}
