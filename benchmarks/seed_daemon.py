"""The seed serving stack's warm path, frozen and bench-private: the live
baseline ``server_smoke.py --saturation`` gates ``repro serve`` against.

One thread per connection; per request ``read_message``,
``validate_request``, counters, unmemoized ``resolve_optimize``,
``cache_key``, ``ScheduleCache.get``, ``json.loads`` of the cached text,
the response dict, ``write_message``.  A miss (only the pre-warm issues
any) runs in a fresh forked child.  SIGTERM drains, removes the socket and
exits 0.  Usage: ``seed_daemon.py --socket PATH [--cache-dir DIR]``.
"""

import argparse
import contextlib
import json
import os
import signal
import socket
import threading
import time

from repro.server import protocol
from repro.server.cache import ScheduleCache, cache_key
from repro.server.daemon import claim_unix_path
from repro.server.metrics import ServerMetrics
from repro.server.pool import DEFAULT_TIMEOUT, run_optimize_job
from repro.server.resolve import resolve_optimize
from repro.workers import WorkerSupervisor


class SeedDaemon:
    def __init__(self, socket_path: str, cache_dir: str):
        self.socket_path = socket_path
        self.cache = ScheduleCache(cache_dir or None)
        self.metrics = ServerMetrics()
        self.stop = threading.Event()
        self.conns: dict[socket.socket, threading.Thread] = {}
        self.lock = threading.Lock()

    def handle(self, request: dict) -> dict:
        t_arrival = time.perf_counter()
        try:
            protocol.validate_request(request)
            self.metrics.count_request(request["type"])
            if request["type"] != "optimize":
                if request["type"] == "shutdown":
                    self.stop.set()
                return {**protocol.response_header(request), "status": "ok"}
            program_dict, options_dict = resolve_optimize(request)
        except protocol.ProtocolError as e:
            return protocol.error_response(request, "bad-request", str(e))
        self.metrics.count_backend(options_dict.get("backend", "python"))
        key = cache_key(program_dict, options_dict)
        text, tier = self.cache.get(key)
        self.metrics.observe("lookup", time.perf_counter() - t_arrival)
        tag = f"hit-{tier}"
        if text is None:
            sup = WorkerSupervisor(run_optimize_job)
            sup.spawn(key, {"program": program_dict, "options": options_dict},
                      timeout=DEFAULT_TIMEOUT)
            events = []
            while not events:
                events = sup.poll()
            if events[0].kind != "ok":
                return protocol.error_response(
                    request, events[0].kind, str(events[0].payload))
            text, tag = events[0].payload, "miss"
            self.cache.put(key, text)
        payload = json.loads(text)
        elapsed = time.perf_counter() - t_arrival
        self.metrics.count_outcome(tag)
        self.metrics.observe("total", elapsed)
        return {**protocol.response_header(request), "status": "ok",
                "cache": tag, "key": key, "elapsed": round(elapsed, 6),
                "result": payload}

    def serve_connection(self, conn: socket.socket) -> None:
        try:
            rfile, wfile = conn.makefile("rb"), conn.makefile("wb")
            while True:
                request = protocol.read_message(rfile)
                if request is None:
                    return  # EOF, or the drain shut the read side
                protocol.write_message(wfile, self.handle(request))
        except (OSError, ValueError):
            pass  # client went away mid-message, or sent garbage
        finally:
            with self.lock:
                self.conns.pop(conn, None)
            conn.close()

    def serve(self) -> None:
        claim_unix_path(self.socket_path)
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(self.socket_path)
        listener.listen(64)
        listener.settimeout(0.2)  # poll the stop flag between accepts
        try:
            while not self.stop.is_set():
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue
                thread = threading.Thread(
                    target=self.serve_connection, args=(conn,), daemon=True)
                with self.lock:
                    self.conns[conn] = thread
                thread.start()
        finally:
            listener.close()
            os.unlink(self.socket_path)
            with self.lock:
                conns = dict(self.conns)
            for conn in conns:  # readers see EOF; answers in progress finish
                with contextlib.suppress(OSError):
                    conn.shutdown(socket.SHUT_RD)
            for thread in conns.values():
                thread.join(timeout=5.0)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        description="frozen seed serving stack (saturation baseline)")
    parser.add_argument("--socket", required=True)
    parser.add_argument("--cache-dir", default="")
    args = parser.parse_args(argv)
    daemon = SeedDaemon(args.socket, args.cache_dir)
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda signum, frame: daemon.stop.set())
    daemon.serve()


if __name__ == "__main__":
    main()
