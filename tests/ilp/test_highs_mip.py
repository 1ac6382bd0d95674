"""The persistent HiGHS MIP (``HighsMIP``) and the lexmin driver on it.

One ``HighsMIP`` serves a whole ``lexmin``: objectives switch by column
costs and optima are pinned by column bounds.  These tests hold it to the
one-shot ``solve_ilp_highs`` semantics — statuses, the node-limit retry,
the "unbounded or infeasible" disambiguation, one ``lp_solves`` per MIP
solve — and its lexmin to the exact warm driver and to the per-objective
fresh-model reference.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ilp import ILPModel, ILPStatus, lexmin, solve_ilp, solve_ilp_highs
from repro.ilp import highs_lp
from repro.ilp.highs_lp import HighsMIP
from repro.ilp.lexmin import _lexmin_cold


def _box(n, lo=0, hi=1):
    m = ILPModel()
    for i in range(n):
        m.add_variable(f"x{i}", lower=lo, upper=hi)
    return m


class TestStatuses:
    def test_infeasible_at_first_objective(self):
        m = _box(1)
        m.add_constraint({"x0": 1}, -2)  # x0 >= 2 against x0 <= 1
        m.set_objective_order(["x0"])
        res = lexmin(m, backend="highs")
        assert res.status == ILPStatus.INFEASIBLE
        assert res.solves == 1 and res.stats.lp_solves == 1

    def test_infeasible_after_a_pin(self):
        m = _box(2)
        m.add_constraint({"x0": 1, "x1": 1}, -2)  # x0 + x1 >= 2
        mip = HighsMIP(m)
        assert mip.minimize({"x0": 1}).objective == 1
        mip.pin("x0", 0)  # then x1 >= 2 against x1 <= 1
        res = mip.minimize({"x1": 1})
        assert res.status == ILPStatus.INFEASIBLE
        assert res.stats.lp_solves == 1

    def test_pin_holds_across_objectives(self):
        m = _box(2, hi=5)
        m.add_constraint({"x0": 1, "x1": 1}, -4)  # x0 + x1 >= 4
        mip = HighsMIP(m)
        mip.pin("x0", 3)
        res = mip.minimize({"x1": 1})
        assert res.objective == 1 and res.assignment == {"x0": 3, "x1": 1}
        res = mip.minimize({"x0": -1, "x1": -1})  # the pin bounds x0 too
        assert res.objective == -8

    def test_unbounded(self):
        # a continuous column: HiGHS decides the LP unbounded outright
        m = ILPModel()
        m.add_variable("x", lower=None, integer=False)
        res = solve_ilp_highs(m, {"x": 1})
        assert res.status == ILPStatus.UNBOUNDED
        assert res.stats.lp_solves == 1

    def test_undecided_resolved_unbounded(self):
        # HiGHS's presolve reports a free integer column as "unbounded or
        # infeasible"; the zero-objective solve finds a point
        m = ILPModel()
        m.add_variable("x", lower=None)
        m.set_objective_order(["x"])
        mip = HighsMIP(m)
        res = mip.minimize({"x": 1})
        assert res.status == ILPStatus.UNBOUNDED
        assert res.stats.lp_solves == 2  # the MIP and the feasibility solve
        assert lexmin(m, backend="highs").status == ILPStatus.UNBOUNDED
        assert mip.minimize({}).is_optimal  # the model is still usable

    def test_undecided_resolved_infeasible(self):
        # x is free, but 1 <= 3y - 3z <= 2 has no integer point
        m = ILPModel()
        for name in "xyz":
            m.add_variable(name, lower=None)
        m.add_constraint({"y": 3, "z": -3}, -1)
        m.add_constraint({"y": -3, "z": 3}, 2)
        res = solve_ilp_highs(m, {"x": 1})
        assert res.status == ILPStatus.INFEASIBLE
        assert res.stats.lp_solves == 2


def _knapsack():
    """0/1 knapsack, 30 items: HiGHS needs several branch-and-bound nodes."""
    weights = [1000 + (53 * i * i + 29 * i) % 997 for i in range(30)]
    values = [w + (i % 5) - 2 for i, w in enumerate(weights)]
    m = _box(30)
    m.add_constraint({f"x{i}": -w for i, w in enumerate(weights)}, sum(weights) // 2)
    return m, {f"x{i}": -v for i, v in enumerate(values)}


class TestNodeLimit:
    def test_limit_is_retried_not_reported(self):
        m, objective = _knapsack()
        full = solve_ilp_highs(m, objective)
        assert full.is_optimal and full.stats.lp_solves == 1
        capped = solve_ilp_highs(m, objective, node_limit=1)
        assert capped.is_optimal and capped.objective == full.objective
        assert capped.stats.lp_solves == 2  # hit at 1 node, solved at 100

    def test_limit_past_the_ceiling_raises(self, monkeypatch):
        m, objective = _knapsack()
        monkeypatch.setattr(highs_lp, "NODE_LIMIT_CEILING", 1)
        with pytest.raises(RuntimeError, match="work limit"):
            solve_ilp_highs(m, objective, node_limit=1)


class TestNoColumns:
    @pytest.mark.parametrize(
        "rows, status",
        [((), ILPStatus.OPTIMAL), ((1,), ILPStatus.OPTIMAL),
         ((-1,), ILPStatus.INFEASIBLE), ((0, -1), ILPStatus.INFEASIBLE)],
    )
    def test_backends_agree(self, rows, status):
        m = ILPModel()
        for const in rows:
            m.add_constraint({}, const)
        exact, fast = solve_ilp(m, {}), solve_ilp_highs(m, {})
        assert exact.status == fast.status == status
        if status == ILPStatus.OPTIMAL:
            assert exact.objective == fast.objective == 0
            assert exact.assignment == fast.assignment == {}


@st.composite
def small_model(draw):
    """Small boxed ILPs with inequality and equality rows, feasible or not."""
    nvars = draw(st.integers(1, 4))
    m = ILPModel()
    names = []
    for i in range(nvars):
        lo = draw(st.integers(-3, 1))
        m.add_variable(f"v{i}", lower=lo, upper=lo + draw(st.integers(0, 5)))
        names.append(f"v{i}")
    for _ in range(draw(st.integers(0, 4))):
        coeffs = {n: draw(st.integers(-3, 3)) for n in names if draw(st.booleans())}
        if coeffs:
            m.add_constraint(
                coeffs, draw(st.integers(-6, 6)), equality=draw(st.integers(0, 4)) == 0
            )
    m.set_objective_order(draw(st.permutations(names)))
    return m


@given(small_model())
@settings(max_examples=60, deadline=None)
def test_persistent_lexmin_matches_exact_and_fresh_models(m):
    fast = lexmin(m, backend="highs")
    exact = lexmin(m, backend="exact")
    fresh = _lexmin_cold(m, solve_ilp_highs, "highs", 20000)
    assert fast.status == exact.status == fresh.status
    if fast.is_optimal:
        # every variable is in the objective order: the lexmin is unique
        assert fast.values == exact.values == fresh.values
        assert fast.assignment == exact.assignment == fresh.assignment
        assert m.check(fast.assignment)
        assert all(isinstance(v, Fraction) for v in fast.assignment.values())
