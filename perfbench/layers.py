"""The benchmark's metric catalogue and the per-layer aggregation.

``END_TO_END`` and ``PER_LAYER`` mirror ``BENCHMARK.json`` (a test keeps
them equal).  Every workload reports every metric under the same name, so
each end-to-end metric is defined on all four (see README.md), and a
per-layer metric a workload does not exercise reads 0.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional

from common import median, percentile
from spans import LAYERS, Span, self_times

#: name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "compile_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "code_bytes": ("bytes", "lower", 0.05),
    "p50_ms": ("ms", "lower", 0.25),
    "tail_ms": ("ms", "lower", 0.25),
    "rps": ("1/s", "higher", 0.25),
}

#: name -> (unit, better)
PER_LAYER = {
    "process.import_s": ("s", "lower"),
    "deps.s": ("s", "lower"),
    "deps.pairs_tested": ("count", "lower"),
    "deps.fast_rejects": ("count", "higher"),
    "polyhedra.cache_hit_ratio": ("ratio", "higher"),
    "core.s": ("s", "lower"),
    "core.hyperplanes": ("count", "lower"),
    "core.ilp_vars_max": ("count", "lower"),
    "tiling.s": ("s", "lower"),
    "ilp.s": ("s", "lower"),
    "ilp.lp_solves": ("count", "lower"),
    "ilp.pivots": ("count", "lower"),
    "ilp.bb_nodes": ("count", "lower"),
    "ilp.warm_starts": ("count", "higher"),
    "ilp.shortcut_hits": ("count", "higher"),
    "codegen.s": ("s", "lower"),
    "codegen.py_bytes": ("bytes", "lower"),
    "codegen.c_emit_s": ("s", "lower"),
    "exec.cc_s": ("s", "lower"),
    "exec.run_s": ("s", "lower"),
    "exec.marshal_s": ("s", "lower"),
    "server.lookup_p50_ms": ("ms", "lower"),
    "server.lookup_p99_ms": ("ms", "lower"),
    "server.compute_p50_ms": ("ms", "lower"),
    "server.total_p50_ms": ("ms", "lower"),
    "server.client_overhead_p50_ms": ("ms", "lower"),
    "server.miss_p50_ms": ("ms", "lower"),
    "server.hit_rate": ("ratio", "higher"),
    "server.busy": ("count", "lower"),
    "server.coalesced": ("count", "higher"),
    "server.pool_spawns": ("count", "lower"),
    "skeleton.hit_ratio": ("ratio", "higher"),
    **{f"self.{layer}_s": ("s", "lower") for layer in LAYERS},
    "trace.spans": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def optimize_attrs(result: dict) -> dict:
    """The span attributes of one ``optimize()``, from the result's JSON
    form (``OptimizationResult.to_json()`` fields, as a server response or
    a child process carries them)."""
    sched = result["scheduler_stats"]
    return {
        "timing": result["timing"],
        "deps": result["dep_stats"],
        "hyperplanes": sched["hyperplanes_found"],
        "ilp_vars_max": sched["ilp_variables_max"],
        "solve": sched["solve"],
        "structural_path": sched["structural_path"],
        "py_bytes": len(result["code"]["python_source"].encode()),
    }


def _ms(seconds: Optional[float]) -> float:
    return 0.0 if seconds is None else seconds * 1e3


def per_layer(spans: list[Span], overhead_pct: float,
              server: Optional[dict] = None) -> dict[str, float]:
    """Every ``PER_LAYER`` metric from the traced run's spans;
    ``overhead_pct`` is the tracing overhead measured against the untraced
    run (see :func:`tracing_overhead_pct`).

    Pipeline counters come from ``pipeline.optimize`` span attributes (the
    program's ``TimingBreakdown``, ``DepStats``, ``SchedulerStats``), exec
    figures from ``exec.*`` spans, server figures from ``client.request``
    spans and the daemon's ``stats`` reply (``server``).
    """
    out = {name: 0.0 for name in PER_LAYER}
    by_name: dict[str, list[Span]] = defaultdict(list)
    for sp in spans:
        by_name[sp.name].append(sp)

    imports = [sp.duration for sp in by_name["process.import"]]
    imports += [sp.duration for sp in by_name["daemon.start"]]
    out["process.import_s"] = median(imports)

    hits = misses = 0
    for sp in by_name["pipeline.optimize"]:
        a = sp.attrs
        t, d, s = a["timing"], a["deps"], a["solve"]
        out["deps.s"] += t["dependence_analysis"]
        out["deps.pairs_tested"] += d["pairs_tested"]
        out["deps.fast_rejects"] += d["fast_rejects"]
        hits += d["cache_hits"]
        misses += d["cache_misses"]
        out["core.s"] += t["auto_transformation"] - t["ilp_solve"]
        out["core.hyperplanes"] += a["hyperplanes"]
        out["core.ilp_vars_max"] = max(out["core.ilp_vars_max"],
                                       a["ilp_vars_max"])
        out["tiling.s"] += t["misc"]
        out["ilp.s"] += t["ilp_solve"]
        out["ilp.lp_solves"] += s["lp_solves"]
        out["ilp.pivots"] += s["simplex_pivots"]
        out["ilp.bb_nodes"] += s["bb_nodes"]
        out["ilp.warm_starts"] += s["warm_starts"]
        out["ilp.shortcut_hits"] += s["shortcut_hits"]
        out["codegen.s"] += t["code_generation"]
        out["codegen.py_bytes"] += a["py_bytes"]
    if hits + misses:
        out["polyhedra.cache_hit_ratio"] = hits / (hits + misses)
    out["codegen.c_emit_s"] = sum(sp.duration for sp in by_name["codegen.c_emit"])

    out["exec.cc_s"] = sum(sp.attrs["cc_s"] for sp in by_name["exec.compile"])
    runs: dict[str, list[Span]] = defaultdict(list)
    for sp in by_name["exec.run"]:
        runs[sp.attrs["kernel"]].append(sp)
    out["exec.run_s"] = sum(
        median([sp.attrs["exec_s"] for sp in group]) for group in runs.values()
    )
    out["exec.marshal_s"] = sum(
        median([sp.attrs["marshal_s"] for sp in group])
        for group in runs.values()
    )

    requests = by_name["client.request"]
    if requests:
        out["server.client_overhead_p50_ms"] = _ms(median(
            [sp.duration - sp.attrs["server_s"] for sp in requests]
        ))
        miss = [sp.duration for sp in requests if sp.attrs["cache"] == "miss"]
        if miss:
            out["server.miss_p50_ms"] = _ms(percentile(miss, 50))
    if server:
        lat = server["latency"]
        out["server.lookup_p50_ms"] = _ms(lat["lookup"]["p50"])
        out["server.lookup_p99_ms"] = _ms(lat["lookup"]["p99"])
        out["server.compute_p50_ms"] = _ms(lat["compute"]["p50"])
        out["server.total_p50_ms"] = _ms(lat["total"]["p50"])
        out["server.hit_rate"] = server["hit_rate"]
        out["server.busy"] = server["busy"]
        out["server.coalesced"] = server["coalesced"]
        out["server.pool_spawns"] = server["pool"]["spawns"]
        if server["misses"]:
            out["skeleton.hit_ratio"] = (
                server["structural_hits"] / server["misses"]
            )

    for layer, seconds in self_times(spans).items():
        out[f"self.{layer}_s"] = seconds
    out["trace.spans"] = len(spans)
    out["trace.overhead_pct"] = overhead_pct
    return out


def tracing_overhead_pct(traced_op_s: float, untraced_op_s: float) -> float:
    """How much longer an operation takes with tracing on, in percent of
    the untraced run of the same workload and seed (``Run.op_wall_s`` of
    each).  Within the runs' noise of a few percent it may read below 0."""
    return 100.0 * (traced_op_s / untraced_op_s - 1.0)
