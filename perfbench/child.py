"""The zygote: a fresh interpreter that cold-compiles workloads in forks.

Run by the benchmark as a script (``common.Zygote``).  The PolyCache and
every other memo in ``repro`` are process-global, so a cold ``optimize()``
needs a process that has compiled nothing before.  The zygote imports
``repro`` once, prints a ready line, then for each JSON job read from stdin
forks a process that compiles and checks the job's kernels and prints its
result as one JSON line.  The zygote itself never compiles, so every fork
starts as cold as a fresh interpreter without paying the import again; the
import is measured as set-up instead.  Exits at end of input.

    python3 perfbench/child.py --launch T --trace 0
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

#: kernels that factorize need a diagonally dominant matrix, or the source
#: order itself leaves the domain of sqrt on random inputs
DIAGONAL_BOOST = {"cholesky": "A"}


def _import_repro(tracer) -> None:
    with tracer.span("process.import"):
        import repro.api  # noqa: F401
        import repro.codegen.c_emit  # noqa: F401
        import repro.codegen.original  # noqa: F401
        import repro.runtime.arrays  # noqa: F401
        import repro.workloads  # noqa: F401


def validate(result, params: dict, seed: int) -> bool:
    """``validate_transformation`` with workload-aware inputs: the
    transformed kernel against a source-order run of the *source* program
    (before index-set splitting), on the same random arrays."""
    import numpy as np

    from repro.codegen.original import original_schedule
    from repro.codegen.python_emit import generate_python
    from repro.runtime.arrays import random_arrays

    base = random_arrays(result.source_program, params, seed=seed)
    boost = DIAGONAL_BOOST.get(result.source_program.name)
    if boost is not None:
        n = base[boost].shape[0]
        base[boost] += n * np.eye(n)
    ref = {k: v.copy() for k, v in base.items()}
    out = {k: v.copy() for k, v in base.items()}
    generate_python(original_schedule(result.source_program)).run(
        ref, dict(params))
    result.code.run(out, dict(params))
    return all(np.allclose(ref[k], out[k], rtol=1e-9, atol=1e-11)
               for k in ref)


def compile_kernels(tracer, kernels: list, check_seed: int,
                    with_result: bool) -> list:
    """Cold ``optimize()`` + C emission of each kernel, then the checks:
    independent legality (``api.verify``) and source-order execution."""
    from common import at_ref_speed, probe
    from layers import optimize_attrs
    from repro import api
    from repro.codegen.c_emit import generate_c_kernel
    from repro.workloads import get_workload

    out = []
    for name in kernels:
        w = get_workload(name)
        options = w.pipeline_options("plutoplus")
        rec = {"name": name}
        p0 = probe()
        with tracer.span("pipeline.optimize", req=name) as attrs:
            t0 = time.perf_counter()
            result = api.optimize(w.program(), options)
            rec["optimize_s"] = time.perf_counter() - t0
        rec["optimize_ref_s"] = at_ref_speed(rec["optimize_s"], p0, probe())
        attrs.update(optimize_attrs(json.loads(result.to_json())))
        rec.update(attrs)
        with tracer.span("codegen.c_emit", req=name) as attrs:
            t0 = time.perf_counter()
            c_source = generate_c_kernel(result.tiled).source
            rec["c_emit_s"] = time.perf_counter() - t0
            attrs["c_bytes"] = rec["c_bytes"] = len(c_source.encode())
        rec["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rec["code_sha"] = hashlib.sha256(
            (result.code.python_source + "\0" + c_source).encode()
        ).hexdigest()
        with tracer.span("check.verify", req=name) as attrs:
            attrs["ok"] = rec["verify_ok"] = bool(api.verify(result))
        with tracer.span("check.validate", req=name) as attrs:
            attrs["ok"] = rec["validate_ok"] = validate(
                result, w.small_sizes, check_seed)
        if with_result:
            rec["result"] = result.to_json()
        out.append(rec)
    return out


def _fork_job(job: dict) -> str:
    """Run ``job`` in a forked process; returns its JSON result line."""
    from spans import Tracer

    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # the cold process
        os.close(r)
        try:
            tracer = Tracer(bool(job["trace"]), id_prefix="f")
            kernels = compile_kernels(tracer, job["kernels"],
                                      job["check_seed"], job["with_result"])
            data = json.dumps({"kernels": kernels,
                               "spans": tracer.export()}).encode()
        except BaseException as e:  # report; never return into the loop
            data = json.dumps({"error": f"{type(e).__name__}: {e}"}).encode()
        with os.fdopen(w, "wb") as f:
            f.write(data)
        os._exit(0)
    os.close(w)
    with os.fdopen(r, "rb") as f:
        data = f.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        return json.dumps({"error": f"compile process exited with {status}"})
    return data.decode()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--launch", type=float, required=True,
                    help="parent's perf_counter() just before the launch")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args(argv)

    from common import probe
    from spans import Tracer

    tracer = Tracer(bool(args.trace), id_prefix="z")
    _import_repro(tracer)
    print(json.dumps({"import_s": time.perf_counter() - args.launch,
                      "probe_s": probe(), "spans": tracer.export()}),
          flush=True)
    for line in sys.stdin:
        print(_fork_job(json.loads(line)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
