"""Tests for Fourier–Motzkin elimination and redundancy pruning."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ilp.model import ILPModel
from repro.ilp.simplex import solve_lp
from repro.polyhedra.fourier_motzkin import (
    eliminate_column,
    eliminate_columns,
    normalize_rows,
    prune_redundant_rows,
)

# Row layout in these tests: (x, y, const)


class TestNormalize:
    def test_gcd_reduction(self):
        rows = [((2, 4, 6), False)]
        assert normalize_rows(rows) == [((1, 2, 3), False)]

    def test_duplicate_removal(self):
        rows = [((1, 0, 0), False), ((2, 0, 0), False)]
        assert len(normalize_rows(rows)) == 1

    def test_subsumption_same_slope(self):
        # x + 5 >= 0 is implied by x + 2 >= 0
        rows = [((1, 0, 5), False), ((1, 0, 2), False)]
        out = normalize_rows(rows)
        assert out == [((1, 0, 2), False)]

    def test_trivial_rows_dropped(self):
        rows = [((0, 0, 7), False), ((1, 0, 0), False)]
        assert normalize_rows(rows) == [((1, 0, 0), False)]

    def test_contradictions_kept(self):
        rows = [((0, 0, -1), False)]
        assert normalize_rows(rows) == [((0, 0, -1), False)]

    def test_integer_tightening_of_inequalities(self):
        # 2x + 1 >= 0 over integers tightens to x >= 0 (floor of 1/2)
        rows = [((2, 0, 1), False)]
        assert normalize_rows(rows) == [((1, 0, 0), False)]

    def test_infeasible_equality_not_divided(self):
        # 2x + 1 == 0 has no integer solution; kept visible un-normalized
        rows = [((2, 0, 1), True)]
        assert normalize_rows(rows) == [((2, 0, 1), True)]


class TestEliminate:
    def test_simple_projection(self):
        # 0 <= y <= 5, x == y  -> projecting y: 0 <= x <= 5
        rows = [
            ((0, 1, 0), False),      # y >= 0
            ((0, -1, 5), False),     # y <= 5
            ((1, -1, 0), True),      # x == y
        ]
        out = eliminate_column(rows, 1)
        assert ((1, 0, 0), False) in out
        assert ((-1, 0, 5), False) in out

    def test_lower_upper_combination(self):
        # x <= y and y <= 3: eliminating y gives x <= 3
        rows = [((-1, 1, 0), False), ((0, -1, 3), False)]
        out = eliminate_column(rows, 1)
        assert ((-1, 0, 3), False) in out

    def test_unconstrained_column(self):
        rows = [((1, 0, 0), False)]
        assert eliminate_column(rows, 1) == [((1, 0, 0), False)]

    def test_multi_column(self):
        rows = [
            ((1, 1, 0), False),
            ((-1, 0, 4), False),
            ((0, -1, 4), False),
        ]
        out = eliminate_columns(rows, [0, 1])
        # fully projected: only trivially-true rows remain -> dropped
        assert out == []


class TestPruneRedundant:
    def test_drops_implied_row(self):
        # x >= 0, x >= -5: second is implied
        rows = [((1, 0, 0), False), ((1, 0, 5), False)]
        out = prune_redundant_rows(rows)
        assert ((1, 0, 0), False) in out
        assert len(out) == 1

    def test_keeps_box(self):
        rows = [
            ((1, 0, 0), False), ((-1, 0, 5), False),
            ((0, 1, 0), False), ((0, -1, 5), False),
        ]
        assert len(prune_redundant_rows(rows)) == 4

    def test_diagonal_implied_by_box(self):
        rows = [
            ((1, 0, 0), False), ((-1, 0, 5), False),
            ((0, 1, 0), False), ((0, -1, 5), False),
            ((1, 1, 0), False),                       # x + y >= 0: implied
        ]
        out = prune_redundant_rows(rows)
        assert ((1, 1, 0), False) not in out

    def test_equalities_always_kept(self):
        rows = [((1, -1, 0), True), ((1, 0, 0), False)]
        out = prune_redundant_rows(rows)
        assert ((1, -1, 0), True) in out


class TestPruneSemantics:
    """Keep unless proven implied, tested in order against the rest."""

    def test_infeasible_others_keep_the_row(self):
        # x >= 5, x <= 3, x >= 0: x >= 0 is tested against an empty system
        rows = [((1, -5), False), ((-1, 3), False), ((1, 0), False)]
        assert prune_redundant_rows(rows) == rows

    def test_unbounded_lp_keeps_the_row(self):
        # x >= 0, y >= 0: min x over {y >= 0} is unbounded
        rows = [((1, 0, 0), False), ((0, 1, 0), False)]
        assert prune_redundant_rows(rows) == rows

    def test_equalities_only(self):
        rows = [((1, -1, 0), True), ((1, 0, -2), True)]
        assert prune_redundant_rows(rows) == rows
        # one inequality beside them is never tested either
        rows = rows + [((0, 1, 7), False)]
        assert prune_redundant_rows(rows) == rows

    def test_equalities_imply_a_row(self):
        # x == y, y >= 0  =>  x >= -1 is implied
        rows = [((1, -1, 0), True), ((0, 1, 0), False), ((1, 0, 1), False)]
        assert prune_redundant_rows(rows) == rows[:2]

    def test_zero_width_rows_are_all_kept(self):
        # no columns: HiGHS proves nothing, so nothing is dropped
        rows = [((1,), False), ((-1,), False), ((4,), False)]
        assert prune_redundant_rows(rows) == rows

    def test_constant_rows(self):
        # 3 >= 0 is implied by anything feasible; -1 >= 0 never is
        rows = [((1, 0), False), ((0, 3), False)]
        assert prune_redundant_rows(rows) == rows[:1]
        rows = [((1, 0), False), ((0, -1), False)]
        assert prune_redundant_rows(rows) == rows

    def test_mutually_implied_pair_drops_the_earlier(self):
        # x >= 0 and 2x >= 0 imply each other; both cannot go
        rows = [((1, 0), False), ((2, 0), False), ((-1, 5), False)]
        assert prune_redundant_rows(rows) == rows[1:]

    def test_kept_row_restored_before_next_test(self):
        # x >= 0 is kept; x + 1 >= 0 is implied only *with* x >= 0 back in
        rows = [((1, 0), False), ((1, 1), False)]
        assert prune_redundant_rows(rows) == rows[:1]


@st.composite
def random_system(draw):
    n = draw(st.integers(2, 4))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        coeffs = tuple(draw(st.integers(-3, 3)) for _ in range(n)) + (
            draw(st.integers(-4, 8)),
        )
        rows.append((coeffs, False))
    # bound the box so systems stay sane
    for k in range(n):
        lo = [0] * (n + 1)
        hi = [0] * (n + 1)
        lo[k], lo[-1] = 1, 3
        hi[k], hi[-1] = -1, 3
        rows.append((tuple(lo), False))
        rows.append((tuple(hi), False))
    return n, rows


def _sat(rows, point):
    for coeffs, eq in rows:
        v = sum(c * p for c, p in zip(coeffs, point)) + coeffs[-1]
        if (eq and v != 0) or (not eq and v < 0):
            return False
    return True


class TestProperties:
    @given(random_system(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_elimination_preserves_membership(self, sys_, data):
        n, rows = sys_
        point = [data.draw(st.integers(-3, 3)) for _ in range(n)]
        if not _sat(rows, point):
            return
        col = data.draw(st.integers(0, n - 1))
        out = eliminate_column(list(rows), col)
        # projection of a member remains a member (column value irrelevant)
        proj_point = list(point)
        proj_point[col] = 0  # eliminated column is zeroed in all rows
        assert _sat(out, proj_point)

    @given(random_system(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_pruning_preserves_membership_both_ways(self, sys_, data):
        n, rows = sys_
        point = [data.draw(st.integers(-3, 3)) for _ in range(n)]
        pruned = prune_redundant_rows(normalize_rows(list(rows)))
        assert _sat(rows, point) == _sat(pruned, point)


def _exact_prune(rows):
    """The reference decision: sequential pruning with exact rational LPs
    (``repro.ilp.simplex``), no floating point and no tolerance."""
    width = len(rows[0][0]) - 1
    eqs = [r for r in rows if r[1]]
    kept = [r for r in rows if not r[1]]
    if len(kept) <= 1:
        return rows
    names = [f"x{j}" for j in range(width)]
    i = 0
    while i < len(kept):
        coeffs = kept[i][0]
        model = ILPModel()
        for name in names:
            model.add_variable(name, lower=None, upper=None, integer=False)
        for ocoeffs, oeq in eqs + kept[:i] + kept[i + 1:]:
            model.add_constraint(
                {n: c for n, c in zip(names, ocoeffs) if c}, ocoeffs[-1], oeq
            )
        res = solve_lp(model, {n: c for n, c in zip(names, coeffs) if c})
        if res.is_optimal and res.objective + coeffs[-1] >= 0:
            kept.pop(i)
        else:
            i += 1
    return eqs + kept


@st.composite
def free_system(draw):
    """Small integer systems, unboxed: infeasible, unbounded, equalities
    and constant rows all occur."""
    n = draw(st.integers(1, 3))
    rows = []
    for _ in range(draw(st.integers(1, 7))):
        coeffs = tuple(draw(st.integers(-3, 3)) for _ in range(n)) + (
            draw(st.integers(-5, 5)),
        )
        rows.append((coeffs, draw(st.booleans()) and draw(st.booleans())))
    return rows


class TestPruneMatchesExact:
    @given(free_system())
    @settings(max_examples=150, deadline=None)
    def test_kept_set_matches_exact_decision(self, rows):
        assert prune_redundant_rows(rows) == _exact_prune(rows)
