"""The repository benchmark: cold compile, native kernels, daemon serving.

    python3 perfbench/run.py --workload compile-polybench --seed 1 \\
        --seconds 12 --trace 0

Workloads: compile-polybench, compile-periodic, exec-native, serve-mixed,
or ``all`` to run the four in turn, each in its own process.  Every metric
is printed by name with its workload and unit, then (the last line) one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; for ``all``
that object sums the four and keys each metric ``<workload>/<metric>``.
``--trace 0`` reports the end-to-end metrics, timed with tracing off;
``--trace 1`` first runs the workload untraced in a fresh process, then
traced, and reports the per-layer metrics from spans recorded around every
call into the program, writes them as Chrome trace-event JSON under
``.perfbench/`` and states the tracing overhead against the untraced run.
Exits 1 when any output check failed, 2 when the program's sources are
missing.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, SRC, apply_clean_env, provenance  # noqa: E402
from layers import (  # noqa: E402
    END_TO_END, PER_LAYER, per_layer, tracing_overhead_pct,
)
from spans import Tracer, write_chrome_trace  # noqa: E402

WORKLOADS = ("compile-polybench", "compile-periodic", "exec-native",
             "serve-mixed")

OUT_DIR = ROOT / ".perfbench"

#: seconds a workload run in a process of its own may take
RUN_TIMEOUT = 170.0

#: the line through which an untraced run hands its ``Run.op_wall_s`` to
#: the traced run of the same invocation
OP_WALL_TAG = "op_wall_ref_s"


def run_self(name: str, seed: int, seconds: float,
             trace: bool) -> tuple[dict, list[str]]:
    """One workload in a fresh process of this script: its result object
    (the last line) and its other output lines."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(int(trace))]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             cwd=str(ROOT), timeout=RUN_TIMEOUT).stdout
    except subprocess.TimeoutExpired:
        out = ""
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 1, "failed": 1,
                  "metrics": {}}
        lines.append(f"# FAILED {name}: the run gave no result")
    return result, lines[:-1]


def _untraced_op_wall(name: str, seed: int, seconds: float,
                      ledger) -> float:
    """Run ``name`` untraced in a fresh process; its checks count in
    ``ledger``.  Returns its wall time per operation, 0 on failure."""
    result, lines = run_self(name, seed, seconds, False)
    ledger.attempted += result["attempted"]
    ledger.failed += result["failed"]
    ledger.reasons += [f"untraced run: {line[len('# FAILED '):]}"
                       for line in lines if line.startswith("# FAILED ")]
    for line in lines:
        if line.startswith(f"# {name}: {OP_WALL_TAG} "):
            return float(line.split()[-1])
    return 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload; returns the result object the last line prints."""
    import workloads as wl

    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    run = wl.Run(seed=seed, seconds=seconds, tracer=Tracer(trace), tmp=tmp)
    untraced_op_s = (_untraced_op_wall(name, seed, seconds, run.ledger)
                     if trace else 0.0)
    info = provenance(seed, name)
    print(f"# provenance {json.dumps(info, sort_keys=True)}", flush=True)
    try:
        with run.tracer.span("bench.workload", req=name):
            if name == "compile-polybench":
                e2e = wl.run_compile(run, wl.POLYBENCH,
                                     wl.MIN_PASSES["polybench"])
            elif name == "compile-periodic":
                e2e = wl.run_compile(run, wl.PERIODIC,
                                     wl.MIN_PASSES["periodic"])
            elif name == "exec-native":
                e2e = wl.run_exec(run)
            else:
                e2e = wl.run_serve(run)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    ledger = run.ledger
    ok = bool(e2e) and (not trace or untraced_op_s > 0)
    correct = ledger.failed == 0 and ok
    for reason in ledger.reasons:
        print(f"# FAILED {name}: {reason}", flush=True)
    for note in run.notes:
        print(f"# {name}: {note}")
    print(f"# {name}: {OP_WALL_TAG} {run.op_wall_s!r}")
    print(f"{name} error_rate {ledger.error_rate:.6f} "
          f"({ledger.failed}/{ledger.attempted})")
    if not ok:
        return {"correct": False, "attempted": max(1, ledger.attempted),
                "failed": max(1, ledger.failed), "metrics": {}}
    if trace:
        overhead = tracing_overhead_pct(run.op_wall_s, untraced_op_s)
        values = per_layer(run.tracer.spans, overhead, run.server_stats)
        catalogue = {k: unit for k, (unit, _) in PER_LAYER.items()}
        path = OUT_DIR / f"trace-{name}-seed{seed}.json"
        write_chrome_trace(str(path), run.tracer.spans,
                           {**info, "per_layer": values})
        print(f"# {name}: {len(run.tracer.spans)} spans -> {path}; wall "
              f"per operation (summed over kernels) {run.op_wall_s:.6g} s "
              f"traced, {untraced_op_s:.6g} s untraced: tracing overhead "
              f"{overhead:+.2f}%")
    else:
        values = e2e
        catalogue = {k: unit for k, (unit, _, _) in END_TO_END.items()}
        print(f"# {name}: tail_ms is p{e2e['_tail_q']:g} over {e2e['_n']} "
              f"operations in {run.window_s:.2f} s")
    metrics = {}
    for key, unit in catalogue.items():
        metrics[key] = {"value": values[key], "unit": unit}
        print(f"{name} {key} {values[key]:.6g} {unit}")
    return {"correct": correct, "attempted": ledger.attempted,
            "failed": ledger.failed, "metrics": metrics}


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload, each in its own process so that none inherits
    another's CPU pinning or peak RSS; their output is relayed and their
    results summed."""
    results = {}
    for name in WORKLOADS:
        results[name], lines = run_self(name, seed, seconds, trace)
        print("\n".join(lines), flush=True)
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{key}": m for name, r in results.items()
                    for key, m in r["metrics"].items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    # the compiler's and every child's scratch files stay in the checkout
    os.environ["TMPDIR"] = str(OUT_DIR)
    apply_clean_env()

    t0 = time.perf_counter()
    if args.workload == "all":
        res = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        res = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    print(f"# total {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
