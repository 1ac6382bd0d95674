"""Byte-identity gate: sha256 digests of every workload's compiled output.

For each registered workload this cold-compiles the paper configuration
(``w.pipeline_options("plutoplus")``) in a fresh forked process and records
the sha256 of four artifacts:

* ``schedule`` — the affine schedule (``Schedule.to_dict``, canonical JSON);
* ``tiled`` — the tiled schedule (``TiledSchedule.to_dict``);
* ``python`` — the generated Python source;
* ``c`` — the generated C kernel source (``null`` when the program has no
  C body text).

A change that only makes the compiler faster must leave all four
unchanged.  The cold ``optimize()`` wall time is recorded next to the
digests (``cold_s``) to pick the fast subset; it is informational and never
compared.

Usage::

    # write (or refresh) the digests of every registered workload
    PYTHONPATH=src python benchmarks/codegen_digest.py -o BENCH_digest.json
    # re-check against the committed file: all workloads, or only those
    # whose recorded cold compile took under --fast seconds
    PYTHONPATH=src python benchmarks/codegen_digest.py --check
    PYTHONPATH=src python benchmarks/codegen_digest.py --check --fast 1.0

``--check`` exits non-zero and names the differing artifacts on any
mismatch.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_PATH = ROOT / "BENCH_digest.json"
ARTIFACTS = ("schedule", "tiled", "python", "c")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest_workload(name: str) -> dict:
    """Compile ``name`` in this process; its artifact digests + wall time."""
    from repro import api
    from repro.codegen.c_emit import CEmitError, generate_c_kernel
    from repro.workloads import get_workload

    w = get_workload(name)
    t0 = time.perf_counter()
    result = api.optimize(w.program(), w.pipeline_options("plutoplus"))
    cold_s = time.perf_counter() - t0
    try:
        c_source = _sha(generate_c_kernel(result.tiled).source)
    except CEmitError:
        c_source = None
    return {
        "schedule": _sha(json.dumps(result.schedule.to_dict(), sort_keys=True)),
        "tiled": _sha(json.dumps(result.tiled.to_dict(), sort_keys=True)),
        "python": _sha(result.code.python_source),
        "c": c_source,
        "cold_s": round(cold_s, 3),
    }


def _digest_cold(name: str) -> tuple[str, dict]:
    return name, digest_workload(name)


def digest_all(names: list[str]) -> dict[str, dict]:
    """Digests of ``names``, each compiled in its own fresh fork.

    The memo tables in ``repro`` are process-global; a fork of a process
    that has compiled nothing gives every workload a cold compile."""
    import repro.api  # noqa: F401  -- imported once, before the forks

    ctx = multiprocessing.get_context("fork")
    out: dict[str, dict] = {}
    with ctx.Pool(1, maxtasksperchild=1) as pool:
        for name, rec in pool.imap(_digest_cold, names):
            print(f"{name:28s} {rec['cold_s']:8.2f}s", file=sys.stderr)
            out[name] = rec
    return out


def mismatches(expected: dict, actual: dict) -> list[str]:
    """The artifacts of ``actual`` whose digest differs from ``expected``."""
    return [a for a in ARTIFACTS if expected.get(a) != actual.get(a)]


def fast_workloads(recorded: dict[str, dict], limit: float) -> list[str]:
    """Workloads whose recorded cold compile took under ``limit`` seconds."""
    return [n for n, rec in recorded.items() if rec["cold_s"] < limit]


def load(path: Path = DEFAULT_PATH) -> dict[str, dict]:
    return json.loads(path.read_text())["workloads"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("-o", "--output", type=Path, default=DEFAULT_PATH,
                    help="digest file to write, or to read with --check")
    ap.add_argument("--check", action="store_true",
                    help="compare against the digest file instead of writing")
    ap.add_argument("--fast", type=float, default=None, metavar="S",
                    help="with --check: only workloads recorded under S s")
    args = ap.parse_args(argv)

    from repro.workloads import all_workloads

    if args.check:
        recorded = load(args.output)
        names = list(recorded)
        if args.fast is not None:
            names = fast_workloads(recorded, args.fast)
    else:
        names = [w.name for w in all_workloads()]

    actual = digest_all(names)
    if not args.check:
        args.output.write_text(
            json.dumps({"workloads": actual}, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(actual)} digests to {args.output}", file=sys.stderr)
        return 0

    bad = {n: mismatches(recorded[n], rec) for n, rec in actual.items()}
    bad = {n: arts for n, arts in bad.items() if arts}
    for name, arts in bad.items():
        print(f"MISMATCH {name}: {', '.join(arts)}", file=sys.stderr)
    print(f"checked {len(actual)} workloads, {len(bad)} mismatched",
          file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
