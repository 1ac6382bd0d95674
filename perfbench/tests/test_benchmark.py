"""Tests for the benchmark's own code (not the program it measures).

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json

import pytest

from common import ROOT, Ledger, percentile, tail_percentile
from layers import END_TO_END, PER_LAYER, per_layer, tracing_overhead_pct
from spans import Span, Tracer, chrome_trace, self_times
from workloads import (
    DEFAULT_TILE, HOT, MISS_EVERY, MISS_TILES, request_sequence,
)


@pytest.mark.parametrize("n, q", [
    (5, 50.0), (19, 50.0), (20, 50.0), (99, 50.0), (100, 90.0),
    (109, 90.0), (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, q):
    assert tail_percentile(n) == q
    values = list(range(1, n + 1))
    assert n - percentile(values, q) >= 10 or q == 50.0


def test_percentile_is_nearest_rank():
    values = [5, 1, 4, 2, 3]
    assert percentile(values, 50) == 3
    assert percentile(values, 100) == 5
    assert percentile(values, 1) == 1
    assert percentile(list(range(1, 101)), 99) == 99


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("p", "bench.run", 0.0, 10.0),
        Span("a", "pipeline.optimize", 1.0, 3.0, parent="p"),
        Span("b", "codegen.c_emit", 2.0, 5.0, parent="p"),   # overlaps a
        Span("c", "check.verify", 8.0, 12.0, parent="p"),    # clipped at 10
        Span("d", "check.validate", 8.5, 9.0, parent="c"),
    ]
    st = self_times(spans)
    assert st["bench"] == pytest.approx(10.0 - 4.0 - 2.0)
    assert st["pipeline"] == pytest.approx(2.0)
    assert st["codegen"] == pytest.approx(3.0)
    assert st["check"] == pytest.approx(4.0 - 0.5 + 0.5)


def test_tracer_nests_and_grafts_child_spans():
    child = Tracer(True, id_prefix="c")
    with child.span("process.import"):
        pass
    with child.span("pipeline.optimize", req="gemm"):
        with child.span("codegen.c_emit", req="gemm"):
            pass
    parent = Tracer(True)
    with parent.span("bench.child") as attrs:
        attrs["kernel"] = "gemm"
        parent.graft(child.export(), parent.current())
    by_name = {sp.name: sp for sp in parent.spans}
    root = by_name["bench.child"]
    assert root.attrs == {"kernel": "gemm"}
    assert by_name["process.import"].parent == root.id
    assert by_name["pipeline.optimize"].parent == root.id
    assert by_name["codegen.c_emit"].parent == by_name["pipeline.optimize"].id
    assert len({sp.id for sp in parent.spans}) == len(parent.spans)


def test_disabled_tracer_records_nothing():
    tracer = Tracer(False)
    with tracer.span("bench.run") as attrs:
        attrs["x"] = 1
    assert tracer.add("client.request", 0.0, 1.0) is None
    assert tracer.spans == []


def test_chrome_trace_events():
    spans = [Span("1", "bench.run", 1.0, 1.5, req="r"),
             Span("2", "client.request", 1.1, 1.2, parent="1", req="r",
                  attrs={"cache": "miss"})]
    doc = chrome_trace(spans, {"seed": 3})
    assert doc["metadata"] == {"seed": 3}
    ev = doc["traceEvents"][1]
    assert ev["ph"] == "X" and ev["cat"] == "client"
    assert ev["ts"] == pytest.approx(1e5) and ev["dur"] == pytest.approx(1e5)
    assert ev["args"]["parent"] == "1" and ev["args"]["cache"] == "miss"
    json.dumps(doc)


def test_error_rate_counts_every_kind_of_failure():
    ledger = Ledger()
    for _ in range(7):
        ledger.ok()
    ledger.fail("busy")
    assert ledger.record(False, "mismatch") is False
    assert ledger.record(True, "unused") is True
    assert (ledger.attempted, ledger.failed) == (10, 2)
    assert ledger.error_rate == pytest.approx(0.2)
    assert ledger.reasons == ["busy", "mismatch"]
    assert Ledger().error_rate == 0.0


def test_one_seed_one_request_sequence():
    def take(seed):
        return list(itertools.islice(request_sequence(seed), 5000))

    first = take(42)
    assert first == take(42)
    assert first != take(43)
    misses = [(name, tile) for name, tile in first if tile is not None]
    assert len(set(misses)) == len(misses)          # every miss is a new key
    assert all(tile in MISS_TILES and tile != DEFAULT_TILE
               for _, tile in misses)
    assert {name for name, _ in first} == set(HOT)
    assert len(misses) == len(first) // MISS_EVERY
    # every full turn of misses covers each hot key once
    for i in range(0, len(misses) - len(HOT) + 1, len(HOT)):
        assert sorted(n for n, _ in misses[i:i + len(HOT)]) == sorted(HOT)


def test_miss_tile_sizes_run_out_only_after_every_size_was_used():
    stream = request_sequence(7)
    per_key = (len(MISS_TILES) - 1) * len(HOT)
    misses = [tile for _, tile in
              itertools.islice(stream, per_key * MISS_EVERY) if tile]
    assert len(misses) == per_key
    with pytest.raises(RuntimeError, match="every tile size"):
        list(itertools.islice(stream, len(HOT) * MISS_EVERY))


def test_per_layer_reports_every_metric_without_spans():
    values = per_layer([], 2.5)
    assert set(values) == set(PER_LAYER)
    assert values["trace.overhead_pct"] == 2.5


def test_tracing_overhead_is_relative_to_the_untraced_run():
    assert tracing_overhead_pct(1.05, 1.0) == pytest.approx(5.0)
    assert tracing_overhead_pct(0.99, 1.0) == pytest.approx(-1.0)


def test_catalogue_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == PER_LAYER
    assert END_TO_END["setup_s"][2] == max(b for _, _, b in END_TO_END.values())
