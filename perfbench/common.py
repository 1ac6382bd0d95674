"""Shared pieces: failure accounting, percentile choice, environment
hygiene, provenance and the fresh-process child runner."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: OpenMP threads for native kernels.  One thread keeps run-to-run spread
#: far below the bounds on this class of shared 2-core host; two threads
#: spread 20-40% per run.
OMP_THREADS = 1

#: the percentiles a tail metric may report, highest first
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)

#: samples that must lie beyond a reported tail percentile
TAIL_MIN_BEYOND = 10


#: the speed probe's duration on an uncontended core of the reference host
#: (2-vCPU x86-64 VM, Python 3.11); see :func:`at_ref_speed`
REF_PROBE_S = 0.030


def probe() -> float:
    """Seconds for a fixed pure-Python loop: the host's current speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def probe_each_cpu(cpus: Sequence[int]) -> list[float]:
    """:func:`probe` on each of ``cpus``, the calling thread pinned to each
    in turn: for work spread over several CPUs, each of which can be slowed
    on its own."""
    mask = os.sched_getaffinity(0)
    try:
        times = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(probe())
    finally:
        os.sched_setaffinity(0, mask)
    return times


def pin_to_one_cpu() -> int:
    """Confine this process and every process it starts to one CPU, so the
    speed probes time the CPU the measured work runs on."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def at_ref_speed(seconds: float, *probes: float) -> float:
    """``seconds`` rescaled to the reference host's uncontended speed.

    Shared hosts change speed by up to 50% for tens of seconds at a time
    (a busy neighbour on the sibling hyperthread), slowing the program and
    the probe alike; dividing by the probes timed right before and after
    the interval removes that drift, a change in the program does not
    touch the probe.
    """
    return seconds * REF_PROBE_S * len(probes) / sum(probes)


@dataclass
class Ledger:
    """Operations attempted and failed; ``error_rate = failed / attempted``.

    Every operation the benchmark issues counts once: a compile, a kernel
    run, a request, a daemon shutdown.  A busy reply, an error, an output
    mismatch and a failed verification all count as failed.
    """

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < 50:
            self.reasons.append(reason)

    def record(self, passed: bool, reason: str) -> bool:
        if passed:
            self.ok()
        else:
            self.fail(reason)
        return passed

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of percentile ``q`` among ``n`` samples."""
    return max(1, math.ceil(n * Fraction(str(q)) / 100))


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ``TAIL_MIN_BEYOND``
    samples beyond it; the median when ``n`` is too small for any."""
    for q in TAIL_LADDER:
        if n - _rank(n, q) >= TAIL_MIN_BEYOND:
            return q
    return 50.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (non-empty); the 50th is the
    median proper, the mean of the middle two of an even count."""
    if q == 50:
        return statistics.median(values)
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def clean_env() -> dict:
    """The environment for every process the benchmark starts: every
    ``REPRO_*`` variable cleared (each daemon gets its stores as flags),
    OpenMP and BLAS pinned, and ``src`` first on the import path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["OMP_NUM_THREADS"] = str(OMP_THREADS)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def apply_clean_env() -> None:
    """Make this process's own environment match :func:`clean_env`."""
    env = clean_env()
    os.environ.clear()
    os.environ.update(env)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


CHILD = str(Path(__file__).with_name("child.py"))


class Zygote:
    """A ``child.py`` process: a fresh interpreter that imports
    ``repro`` once and forks one cold process per compile job."""

    def __init__(self, trace: bool, timeout: float):
        self.timeout = timeout
        self.probe_s = probe()
        launch = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, CHILD, "--launch", repr(launch),
             "--trace", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=clean_env(), cwd=str(ROOT), start_new_session=True,
        )
        self.ready = self._read()

    def _read(self) -> dict:
        if self.proc.poll() is None:
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        self.timeout)
            if not ready:
                self.kill()
                return {"error": f"no reply within {self.timeout}s"}
        line = self.proc.stdout.readline()
        if not line:
            return {"error": f"zygote exited with {self.proc.poll()}"}
        return json.loads(line)

    def run(self, job: dict) -> dict:
        try:
            self.proc.stdin.write(json.dumps(job) + "\n")
            self.proc.stdin.flush()
        except OSError as e:  # the zygote died
            return {"error": f"zygote gone ({e}), exit {self.proc.poll()}"}
        return self._read()

    def kill(self) -> None:
        """Kill the zygote and any compile process it forked."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except OSError:  # the zygote died with input unread
            pass
        try:
            self.proc.wait(timeout=self.timeout)
        except subprocess.TimeoutExpired:
            self.kill()
        self.proc.stdout.close()


def _cmd_first_line(cmd: Sequence[str]) -> Optional[str]:
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10,
                             cwd=str(ROOT))
    except (OSError, subprocess.TimeoutExpired):
        return None
    text = out.stdout.strip()
    return text.splitlines()[0] if out.returncode == 0 and text else None


def source_digest() -> str:
    """sha256 over ``src/**/*.py`` — identifies the code measured even when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(seed: int, workload: str) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "omp_threads": OMP_THREADS,
        "cc": _cmd_first_line([os.environ.get("CC", "cc"), "--version"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _cmd_first_line(["git", "rev-parse", "HEAD"]),
        "src_sha256": source_digest(),
    }
