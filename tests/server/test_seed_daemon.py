"""The frozen seed stack (``benchmarks/seed_daemon.py``) answers like
``repro serve``: it is the saturation gate's baseline, so it must do the
same work, not a cheaper imitation of it."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from benchmarks.server_smoke import DETERMINISTIC_FIELDS
from repro.server import ServerClient

SEED_DAEMON = Path(__file__).resolve().parents[2] / "benchmarks" / "seed_daemon.py"


def _start(command, sock, cache_dir):
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
    )
    proc = subprocess.Popen(
        [sys.executable, *command, "--socket", sock, "--cache-dir", cache_dir],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    deadline = time.time() + 30
    while not os.path.exists(sock):
        assert proc.poll() is None, proc.stderr.read()
        assert time.time() < deadline, "daemon never bound its socket"
        time.sleep(0.05)
    return proc


def _stop(proc, sock):
    proc.send_signal(signal.SIGTERM)
    _, err = proc.communicate(timeout=30)
    assert proc.returncode == 0, err
    assert not os.path.exists(sock)


@pytest.fixture
def daemons(tmp_path):
    procs = []

    def start(command, name):
        sock = str(tmp_path / f"{name}.sock")
        procs.append(_start(command, sock, str(tmp_path / f"cache-{name}")))
        return procs[-1], sock

    yield start
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def test_seed_daemon_matches_repro_serve(daemons):
    seed, seed_sock = daemons([str(SEED_DAEMON)], "seed")
    serve, serve_sock = daemons(["-m", "repro", "serve", "--jobs", "1"], "serve")

    with ServerClient(socket_path=seed_sock, timeout=120) as client:
        assert client.ping()["status"] == "ok"
        cold = client.optimize("fig1-skew")
        warm = client.optimize("fig1-skew")
    with ServerClient(socket_path=serve_sock, timeout=120) as client:
        reference = client.optimize("fig1-skew")

    assert cold["status"] == warm["status"] == reference["status"] == "ok"
    assert (cold["cache"], warm["cache"]) == ("miss", "hit-memory")
    assert warm["result"] == cold["result"]
    assert cold["key"] == reference["key"]
    for field in DETERMINISTIC_FIELDS:
        assert cold["result"][field] == reference["result"][field], field

    _stop(seed, seed_sock)
    _stop(serve, serve_sock)
