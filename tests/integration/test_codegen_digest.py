"""Generated code stays byte-identical to the committed digests.

``BENCH_digest.json`` (written by ``benchmarks/codegen_digest.py``) holds
the sha256 of every workload's schedule, tiled schedule, Python source and
C kernel source.  This checks the workloads whose recorded cold compile
took under a second; ``codegen_digest.py --check`` covers the rest.  The
compiles run in this process, after whatever else the test run compiled, so
the check also pins that warm memo tables never change an answer.
"""

import pytest

from benchmarks.codegen_digest import (
    digest_workload,
    fast_workloads,
    load,
    mismatches,
)

FAST_S = 1.0
RECORDED = load()


@pytest.mark.parametrize("name", fast_workloads(RECORDED, FAST_S))
def test_generated_code_matches_digest(name):
    assert mismatches(RECORDED[name], digest_workload(name)) == []


def test_fast_subset_is_not_empty():
    assert len(fast_workloads(RECORDED, FAST_S)) >= 10
