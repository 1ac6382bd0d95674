"""The four workloads.  Each takes a :class:`Run` and returns the
end-to-end metrics; failures go to ``run.ledger``, spans to ``run.tracer``.

Operation = the unit a workload times: one cold ``optimize()`` (compile-*),
one native kernel run (exec-native), one request (serve-mixed).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import resource
import signal
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

from common import (
    OMP_THREADS, ROOT, Ledger, Zygote, at_ref_speed, clean_env, median,
    percentile, pin_to_one_cpu, probe, probe_each_cpu, tail_percentile,
)
from layers import optimize_attrs
from spans import Tracer

#: ILP- and Farkas-heavy, codegen-light: the paper's Polybench set
POLYBENCH = [
    "gemm", "2mm", "atax", "cholesky", "lu", "fdtd-2d", "jacobi-2d-imper",
    "seidel-2d", "correlation", "floyd-warshall",
]

#: ISS + diamond periodic stencils: codegen is ~40% of heat-2dp's compile
#: against ~2% on the Polybench set.  Every kernel is compiled at least
#: MIN_PASSES times per run, so the ~11 s lbm-ldc-d2q9, the ~20 s heat-3dp
#: and the ~225 s swim do not fit the run budget.
PERIODIC = ["heat-1dp", "heat-2dp"]

#: native kernels at timed sizes (one run ~0.4 s on one core) and at the
#: size checked bitwise against a source-order Python run.  gemm is
#: compute-bound, the two stencils bandwidth-bound.  heat-2dp is left out:
#: its diamond kernel takes ~50 s under cc -O3.
EXEC = {
    "gemm": ({"NI": 256, "NJ": 256, "NK": 256},
             {"NI": 24, "NJ": 20, "NK": 16}),
    "jacobi-2d-imper": ({"TSTEPS": 20, "N": 600}, {"TSTEPS": 4, "N": 40}),
    "heat-1dp": ({"N": 50000, "T": 200}, {"N": 300, "T": 20}),
}

#: serve-mixed hot keys: the four motivation kernels plus four Polybench /
#: periodic ones (heat-1dp and fig4-periodic-stencil share a cache key)
HOT = [
    "fig1-skew", "fig2-symmetric-consumer", "fig3-symmetric-deps",
    "fig4-periodic-stencil", "gemm", "mvt", "heat-1dp", "floyd-warshall",
]

#: one serve-mixed request in this many carries a never-seen tile size.
#: An assumption, not a measured traffic mix: at 1 in 50 the misses (~20 ms
#: of worker compile each, against ~0.3 ms for a hit) take a little over
#: half of the connections' busy time, so the read path and the write path
#: weigh about equally in ``rps``, and the tail percentile falls among the
#: misses.
MISS_EVERY = 50

#: the tile sizes a miss draws from, each at most once per hot key: they
#: span the sizes the repository's own sweeps use (8 in
#: benchmarks/bench_ablations.py; 16 and 64 in the docs/USAGE.md
#: warm-daemon cookbook and benchmarks/incremental.py; the default 32) with
#: a factor of two to four either side
MISS_TILES = range(4, 257)

#: ``PipelineOptions.tile_size`` by default: a request carrying it would hit
DEFAULT_TILE = 32

#: serving connections and daemon workers (the host's core count)
CONNECTIONS = 2
JOBS = 2

#: set-ups per run; set-up time is their median
SETUPS = 3

#: exec-native: cold compiles of its kernels beyond those of the set-ups,
#: so that ``compile_s`` is a median of five
EXTRA_COMPILES = 2

#: compile-* passes over each kernel set, at least (each kernel's median
#: cold compile counts): the periodic set is two kernels, one ~4.5 s long,
#: so it takes one pass more
MIN_PASSES = {"polybench": 2, "periodic": 3}

#: serve-mixed: the window is cut into this many slices, each timed
#: against its own speed probes; metrics are medians over the slices
SLICES = 10

#: response fields that must not change between a cold reply and a hit
DETERMINISTIC = ("program", "source_program", "schedule", "tiled", "code",
                 "used_iss", "used_diamond", "options")

CHILD_TIMEOUT = 120.0


@dataclass
class Run:
    seed: int
    seconds: float
    tracer: Tracer
    tmp: Path
    ledger: Ledger = field(default_factory=Ledger)
    window_s: float = 0.0
    #: wall time per operation at reference speed, everything between two
    #: operations included (checks, tracing), summed over kernels where a
    #: workload has several: compared between the traced and the untraced
    #: run to give the tracing overhead
    op_wall_s: float = 0.0
    server_stats: Optional[dict] = None
    notes: list[str] = field(default_factory=list)


def op_metrics(times: list[float], busy_s: float) -> dict:
    """Median and tail of operation ``times`` and operations per second of
    ``busy_s``.  The tail is the median below 100 ``times``: no higher
    percentile has ten samples beyond it."""
    q = tail_percentile(len(times))
    return {
        "p50_ms": percentile(times, 50) * 1e3,
        "tail_ms": percentile(times, q) * 1e3,
        "rps": len(times) / busy_s,
        "_tail_q": q,
        "_n": len(times),
    }


def _start_zygote(run: Run) -> tuple[Optional[Zygote], float]:
    """One set-up of a compile workload: a fresh interpreter importing
    ``repro``.  Returns the zygote (None on failure) and the import time at
    reference speed."""
    with run.tracer.span("bench.setup"):
        zygote = Zygote(run.tracer.enabled, CHILD_TIMEOUT)
        ready = zygote.ready
        run.tracer.graft(ready.get("spans", ()), run.tracer.current())
    if not run.ledger.record("error" not in ready,
                             f"zygote start: {ready.get('error')}"):
        zygote.close()
        return None, 0.0
    return zygote, at_ref_speed(ready["import_s"], zygote.probe_s,
                                ready["probe_s"])


def _compile_job(run: Run, zygote: Zygote, kernels: list[str],
                 check_seed: int, with_result: bool = False) -> dict:
    """Cold-compile ``kernels`` in one process forked from ``zygote``."""
    with run.tracer.span("bench.fork", req=",".join(kernels)):
        res = zygote.run({"kernels": kernels, "trace": run.tracer.enabled,
                          "check_seed": check_seed,
                          "with_result": with_result})
        run.tracer.graft(res.get("spans", ()), run.tracer.current())
    run.ledger.record("error" not in res, f"{kernels}: {res.get('error')}")
    return res


def _check_compiled(run: Run, rec: dict) -> bool:
    """Checks that do not trust the scheduler: independent legality
    (``api.verify``) and source-order execution at small sizes."""
    name = rec["name"]
    ok = run.ledger.record(rec["verify_ok"], f"{name}: verify failed")
    ok &= run.ledger.record(rec["validate_ok"],
                            f"{name}: differs from source order")
    ok &= run.ledger.record(rec["structural_path"] is None,
                            f"{name}: compile was not cold "
                            f"(structural_path={rec['structural_path']})")
    return ok


# -- compile-* ------------------------------------------------------------

def run_compile(run: Run, kernels: list[str], min_passes: int) -> dict:
    """Set-up: ``SETUPS`` fresh interpreters importing ``repro`` (zygotes;
    the last one serves).  Then a cold ``optimize()`` of each kernel in its
    own forked process, in a seeded order, pass after pass until the window
    closes (at least ``min_passes``).  Pinned to one CPU: the work is
    sequential."""
    pin_to_one_cpu()
    rng = random.Random(run.seed)
    setups: list[float] = []
    zygote = None
    for _ in range(SETUPS):
        if zygote is not None:
            zygote.close()
        zygote, setup_s = _start_zygote(run)
        if zygote is None:
            return {}
        setups.append(setup_s)
    per_kernel: dict[str, list[float]] = defaultdict(list)
    first: dict[str, dict] = {}
    rss = 0.0
    order = list(kernels)
    walls: dict[str, list[float]] = defaultdict(list)
    t_start = time.perf_counter()
    p_prev = probe()
    try:
        passes = 0
        while passes < min_passes or time.perf_counter() - t_start < run.seconds:
            passes += 1
            rng.shuffle(order)
            for name in order:
                t0 = time.perf_counter()
                res = _compile_job(run, zygote, [name], rng.randrange(2**31))
                ok = "error" not in res
                if ok:
                    rec = res["kernels"][0]
                    ok = _check_compiled(run, rec)
                    seen = first.setdefault(name, rec)
                    ok &= run.ledger.record(
                        seen["code_sha"] == rec["code_sha"],
                        f"{name}: emitted code differs between passes",
                    )
                wall = time.perf_counter() - t0
                p_next = probe()
                if ok:
                    per_kernel[name].append(rec["optimize_ref_s"])
                    walls[name].append(at_ref_speed(wall, p_prev, p_next))
                    rss = max(rss, rec["rss_mb"])
                p_prev = p_next
    finally:
        zygote.close()
    run.window_s = time.perf_counter() - t_start
    if set(per_kernel) != set(kernels):
        run.ledger.fail(f"no successful compile of "
                        f"{sorted(set(kernels) - set(per_kernel))}")
        return {}
    per_key = {k: median(v) for k, v in per_kernel.items()}
    run.op_wall_s = sum(median(v) for v in walls.values())
    run.notes.append(f"{passes} passes; cold optimize() per kernel at "
                     f"reference speed: " + ", ".join(
                         f"{k} {v:.3f} s" for k, v in per_key.items()))
    return {
        "setup_s": median(setups),
        "compile_s": sum(per_key.values()),
        "peak_rss_mb": rss,
        "code_bytes": sum(first[k]["c_bytes"] for k in kernels),
        # one time per kernel (the median of its repeats)
        **op_metrics(list(per_key.values()), sum(per_key.values())),
    }


# -- exec-native ------------------------------------------------------------

def _digest(arrays: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(arrays[name].tobytes())
    return h.hexdigest()


def _oracle_check(run: Run, name: str, result, opts, params, seed) -> None:
    """Native output against a source-order Python run of the *source*
    program: bitwise, or rtol 1e-9 where a row is reduction-tagged."""
    import numpy as np

    from repro.codegen import generate_python
    from repro.codegen.original import original_schedule
    from repro.runtime.arrays import random_arrays

    base = random_arrays(result.source_program, params, seed=seed)
    ref = {k: v.copy() for k, v in base.items()}
    out = {k: v.copy() for k, v in base.items()}
    generate_python(original_schedule(result.source_program)).run(
        ref, dict(params))
    result.run(out, dict(params), exec_options=opts)
    tolerant = bool(result.tiled.reduction_levels())
    bad = [
        k for k in sorted(ref)
        if not (np.allclose(ref[k], out[k], rtol=1e-9, atol=1e-11)
                if tolerant else np.array_equal(ref[k], out[k]))
    ]
    run.ledger.record(not bad, f"{name}: native differs from source order "
                               f"in {bad}")


def run_exec(run: Run) -> dict:
    """Set-up, ``SETUPS`` times: a fresh interpreter imports ``repro`` and
    cold-compiles the kernels, whose results the runner reloads.  Then
    cold ``cc`` into an empty artifact cache, the check against the Python
    oracle, and the kernels run round-robin until the window closes.
    Pinned to one CPU: the kernels run on one OpenMP thread."""
    from repro.exec import ExecStats, ExecutionOptions
    from repro.pipeline import OptimizationResult
    from repro.runtime.arrays import random_arrays

    pin_to_one_cpu()
    names = list(EXEC)
    rng = random.Random(run.seed)
    setups: list[float] = []
    compiles: dict[str, list[float]] = defaultdict(list)
    results: dict = {}
    recs: list[dict] = []
    zygote = None
    try:
        for i in range(SETUPS + EXTRA_COMPILES):
            setup = i < SETUPS
            if setup:
                if zygote is not None:
                    zygote.close()
                p0 = probe()
                t0 = time.perf_counter()
                zygote, _ = _start_zygote(run)
                if zygote is None:
                    return {}
            res = _compile_job(run, zygote, names, rng.randrange(2**31),
                               with_result=setup)
            if "error" in res:
                return {}
            recs = res["kernels"]
            if setup:
                results = {rec["name"]: OptimizationResult.from_json(
                    rec["result"]) for rec in recs}
                setups.append(at_ref_speed(time.perf_counter() - t0, p0,
                                           probe()))
            for rec in recs:
                if _check_compiled(run, rec):
                    compiles[rec["name"]].append(rec["optimize_ref_s"])
    finally:
        if zygote is not None:
            zygote.close()
    kernels = {}
    for name in names:
        result = results[name]
        timed, check = EXEC[name]
        opts = ExecutionOptions(backend="c", threads=OMP_THREADS, strict=True,
                                cache_dir=str(run.tmp / f"artifacts-{name}"))
        stats = ExecStats()
        with run.tracer.span("exec.compile", req=name, kernel=name) as attrs:
            result.run(random_arrays(result.program, check, seed=0),
                       dict(check), exec_options=opts, stats=stats)
            attrs["cc_s"] = stats.compile_seconds
            attrs["artifact_cache"] = stats.artifact_cache
        if not run.ledger.record(
            stats.artifact_cache == "compiled" and stats.backend == "c",
            f"{name}: cc was not cold (artifact_cache="
            f"{stats.artifact_cache}, backend={stats.backend})",
        ):
            return {}
        with run.tracer.span("check.oracle", req=name):
            _oracle_check(run, name, result, opts, check,
                          rng.randrange(2**31))
        base = random_arrays(result.program, timed, seed=rng.randrange(2**31))
        kernels[name] = (result, opts, timed, base)

    order = list(names)
    rng.shuffle(order)
    digests: dict[str, str] = {}
    ops: dict[str, list[float]] = defaultdict(list)
    walls: dict[str, list[float]] = defaultdict(list)
    t_start = time.perf_counter()
    i = 0
    p_prev = probe()
    while time.perf_counter() - t_start < run.seconds or i < len(order):
        t_op = time.perf_counter()
        name = order[i % len(order)]
        i += 1
        result, opts, params, base = kernels[name]
        arrays = {k: v.copy() for k, v in base.items()}
        stats = ExecStats()
        with run.tracer.span("exec.run", req=f"{name}#{i}",
                             kernel=name) as attrs:
            t0 = time.perf_counter()
            result.run(arrays, dict(params), exec_options=opts, stats=stats)
            dt = time.perf_counter() - t0
            attrs["exec_s"] = stats.exec_seconds
            attrs["marshal_s"] = stats.marshal_seconds
        digest = _digest(arrays)
        run.ledger.record(digests.setdefault(name, digest) == digest,
                          f"{name}: native output changed between runs")
        wall = time.perf_counter() - t_op
        p_next = probe()
        ops[name].append(at_ref_speed(dt, p_prev, p_next))
        walls[name].append(at_ref_speed(wall, p_prev, p_next))
        p_prev = p_next
    run.window_s = time.perf_counter() - t_start
    run.op_wall_s = sum(median(v) for v in walls.values())
    per_key = {k: median(v) for k, v in ops.items()}
    run.notes.append(
        f"{i} native runs; per kernel at reference speed: "
        + ", ".join(f"{k} {v * 1e3:.1f} ms ({len(ops[k])} runs)"
                    for k, v in per_key.items()))
    return {
        "setup_s": median(setups),
        "compile_s": sum(median(v) for v in compiles.values()),
        "peak_rss_mb": max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            max(rec["rss_mb"] for rec in recs),
        ),
        "code_bytes": sum(rec["c_bytes"] for rec in recs),
        # one time per kernel (the median of its repeats)
        **op_metrics(list(per_key.values()), sum(per_key.values())),
    }


# -- serve-mixed ----------------------------------------------------------

def request_sequence(seed: int) -> Iterator[tuple[str, Optional[int]]]:
    """The serve-mixed request stream: ``(workload, tile_size)`` pairs.
    Every ``MISS_EVERY``-th request carries a tile size from
    ``MISS_TILES`` never requested before for its workload (a cache miss),
    the workload taken in turn from a seeded shuffle of the hot keys so
    that every stretch of the stream misses on the same mix; the others ask
    for a seeded random hot key as-is."""
    rng = random.Random(seed)
    fresh = [t for t in MISS_TILES if t != DEFAULT_TILE]
    unused = {name: rng.sample(fresh, len(fresh)) for name in HOT}
    turn: list[str] = []
    for i in itertools.count(1):
        if i % MISS_EVERY:
            yield rng.choice(HOT), None
            continue
        if not turn:
            turn = rng.sample(HOT, len(HOT))
        name = turn.pop()
        if not unused[name]:
            raise RuntimeError(f"{name}: every tile size in {MISS_TILES} "
                               f"has been requested")
        yield name, unused[name].pop()


def _ping_until_ready(sock: str, proc: subprocess.Popen, deadline: float):
    from repro.server.client import ServerClient

    while time.perf_counter() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"daemon exited with {proc.returncode}")
        try:
            with ServerClient(socket_path=sock, connect_timeout=1.0) as c:
                if c.ping().get("status") == "ok":
                    return
        except OSError:  # not listening yet: missing file or refused
            time.sleep(0.01)
    raise RuntimeError("daemon did not answer ping in time")


def _process_tree_hwm_mb(pid: int) -> float:
    """Highest VmHWM (peak RSS) over ``pid`` and its descendants."""
    best = 0.0
    todo = [pid]
    while todo:
        p = todo.pop()
        try:
            status = Path(f"/proc/{p}/status").read_text()
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    best = max(best, int(line.split()[1]) / 1024)
            for task in Path(f"/proc/{p}/task").iterdir():
                todo += [int(c) for c in
                         (task / "children").read_text().split()]
        except (OSError, ValueError):
            continue
    return best


class _Daemon:
    """One ``repro serve`` process with its own cache and skeleton store."""

    def __init__(self, run: Run, tag: str, cpu: int):
        self.dir = run.tmp / tag
        self.dir.mkdir()
        # relative to the checkout root: AF_UNIX paths are capped at 108
        # bytes and the checkout may live deep in the file system
        self.sock = os.path.relpath(self.dir / "d.sock", ROOT)
        self.log = open(self.dir / "daemon.log", "wb")
        mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})  # inherited by the daemon's workers
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--socket",
                 self.sock, "--jobs", str(JOBS), "--cache-dir",
                 str(self.dir / "cache"), "--skeleton-dir",
                 str(self.dir / "skeletons")],
                cwd=str(ROOT), env=clean_env(), stdout=self.log,
                stderr=subprocess.STDOUT,
            )
        finally:
            os.sched_setaffinity(0, mask)

    def stop(self, run: Run) -> None:
        """SIGTERM and wait; a non-zero exit or a leftover socket is a
        failed operation."""
        with run.tracer.span("daemon.stop"):
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            try:
                rc = self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                rc = self.proc.wait()
        self.log.close()
        run.ledger.record(rc == 0, f"daemon exited with {rc}")
        run.ledger.record(not os.path.exists(ROOT / self.sock),
                          "daemon left its socket behind")


def _deterministic(result: dict) -> dict:
    return {k: result.get(k) for k in DETERMINISTIC}


def _setup_daemon(run: Run, i: int, cpus: tuple[int, int]):
    """Start a daemon, wait for a successful ping, pre-serve every hot key
    once.  Returns the daemon, the set-up seconds at reference speed and
    the cold results."""
    from repro.server.client import ServerClient

    p0 = probe_each_cpu(cpus)
    with run.tracer.span("bench.setup", req=f"setup{i}"):
        t0 = time.perf_counter()
        with run.tracer.span("daemon.start", req=f"setup{i}"):
            daemon = _Daemon(run, f"daemon{i}", cpus[0])
            try:
                _ping_until_ready(daemon.sock, daemon.proc, t0 + 60)
            except RuntimeError as e:
                run.ledger.fail(f"daemon start: {e}")
                daemon.stop(run)
                return None
        cold: dict = {}
        with ServerClient(socket_path=daemon.sock, timeout=120) as client:
            for name in HOT:
                with run.tracer.span("client.request", req=f"cold:{name}") as a:
                    resp = client.optimize(name)
                    a["cache"] = resp.get("cache")
                    a["server_s"] = resp.get("elapsed", 0.0)
                if not run.ledger.record(resp.get("status") == "ok",
                                         f"pre-serve {name}: {resp}"):
                    continue
                cold[name] = resp["result"]
        setup_s = time.perf_counter() - t0
    return daemon, at_ref_speed(setup_s, *p0, *probe_each_cpu(cpus)), cold


def _client_loop(run, sock, stream, lock, cold, deadline, samples, spans):
    """One closed-loop connection: the next request goes out only after
    the previous reply arrived."""
    from repro.server.client import ServerClient

    try:
        client = ServerClient(socket_path=sock, timeout=60)
    except OSError as e:
        with lock:
            run.ledger.fail(f"connect: {e!r}")
        return
    with client:
        while time.perf_counter() < deadline:
            with lock:
                idx, (name, tile) = next(stream)
            options = {"tile_size": tile} if tile is not None else None
            t0 = time.perf_counter()
            try:
                resp = client.optimize(name, options=options)
            except (OSError, ValueError) as e:
                with lock:
                    run.ledger.fail(f"request {idx} ({name}): {e!r}")
                return
            t1 = time.perf_counter()
            result = resp.get("result")
            if resp.get("status") != "ok":
                ok = False
            elif tile is None:
                ok = _deterministic(result) == _deterministic(cold[name])
            else:
                ok = (result["schedule"] == cold[name]["schedule"]
                      and result["options"]["tile_size"] == tile)
            with lock:
                run.ledger.record(
                    ok, f"request {idx} ({name}, tile {tile}): "
                        f"{resp.get('status')} {resp.get('kind', '')}")
                samples.append((name, t1 - t0, resp.get("cache"),
                                resp.get("elapsed", 0.0)))
            if run.tracer.enabled:
                spans.append((idx, name, tile, t0, t1, resp.get("cache"),
                               resp.get("elapsed", 0.0),
                               result if resp.get("cache") == "miss" else None))


def run_serve(run: Run) -> dict:
    from repro.codegen.c_emit import generate_c_kernel
    from repro.pipeline import OptimizationResult
    from repro.server.client import ServerClient

    # the daemon and its workers on one CPU, the client on the other, so
    # the probes time each side's own CPU
    allowed = sorted(os.sched_getaffinity(0))
    cpus = (allowed[0], allowed[-1])
    os.sched_setaffinity(0, {cpus[1]})
    setups: list[float] = []
    daemon = cold = None
    for i in range(SETUPS):
        got = _setup_daemon(run, i, cpus)
        if got is None:
            return {}
        daemon, setup_s, cold = got
        setups.append(setup_s)
        if i < SETUPS - 1:
            daemon.stop(run)
    try:
        if len(cold) != len(HOT):
            return {}
        stream = enumerate(request_sequence(run.seed))
        lock = threading.Lock()
        samples: list = []
        spans: list = []
        per_slice: list[dict] = []
        computes: dict[str, list[float]] = defaultdict(list)
        width = run.seconds / SLICES
        t_start = time.perf_counter()
        for _ in range(SLICES):
            # the clients pause at each slice boundary so the speed probes
            # run alone on each CPU
            p0 = probe_each_cpu(cpus)
            chunk: list = []
            deadline = time.perf_counter() + width
            threads = [
                threading.Thread(target=_client_loop, args=(
                    run, daemon.sock, stream, lock, cold, deadline, chunk,
                    spans))
                for _ in range(CONNECTIONS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            p1 = probe_each_cpu(cpus)
            scale = at_ref_speed(1.0, *p0, *p1)
            # a miss is computed on the daemon's CPU alone
            server_scale = at_ref_speed(1.0, p0[0], p1[0])
            for name, _, cache, server_s in chunk:
                if cache == "miss":
                    computes[name].append(server_s * server_scale)
            if chunk:
                m = op_metrics([dt for _, dt, _, _ in chunk], width)
                per_slice.append({
                    "p50_ms": m["p50_ms"] * scale,
                    "tail_ms": m["tail_ms"] * scale,
                    "rps": m["rps"] / scale,
                    "_tail_q": m["_tail_q"],
                })
            samples += chunk
        run.window_s = time.perf_counter() - t_start
        with ServerClient(socket_path=daemon.sock, timeout=30) as client:
            stats = client.stats()
        run.server_stats = stats["stats"]["server"]
        rss = _process_tree_hwm_mb(daemon.proc.pid)
    finally:
        daemon.stop(run)
    if not per_slice:
        return {}
    rps = median([m["rps"] for m in per_slice])
    run.op_wall_s = 1.0 / rps

    for idx, name, tile, t0, t1, cache, server_s, result in spans:
        parent = run.tracer.add("client.request", t0, t1, req=idx,
                                workload=name, tile_size=tile, cache=cache,
                                server_s=server_s)
        if result is not None:
            attrs = optimize_attrs(result)
            run.tracer.add("pipeline.optimize", t0,
                           t0 + min(result["timing"]["total"], t1 - t0),
                           parent=parent, req=idx, **attrs)
    misses = [dt for _, dt, cache, _ in samples if cache == "miss"]
    run.notes.append(
        f"requests {len(samples)}, misses {len(misses)}, miss p50 "
        f"{percentile(misses, 50) * 1e3 if misses else 0:.3f} ms, "
        f"hit rate {run.server_stats['hit_rate']}"
    )
    code_bytes = sum(
        len(generate_c_kernel(
            OptimizationResult.from_json(json.dumps(cold[name])).tiled
        ).source.encode())
        for name in HOT
    )
    return {
        "setup_s": median(setups),
        "compile_s": sum(median(v) for v in computes.values()),
        "peak_rss_mb": rss,
        "code_bytes": code_bytes,
        "p50_ms": median([m["p50_ms"] for m in per_slice]),
        "tail_ms": median([m["tail_ms"] for m in per_slice]),
        "rps": rps,
        "_tail_q": min(m["_tail_q"] for m in per_slice),
        "_n": len(samples),
    }
