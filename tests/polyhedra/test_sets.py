"""Tests for constraints, basic sets, projections, and set queries."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.polyhedra import AffExpr, BasicSet, Constraint, Space, UnionSet, eq, ineq


@pytest.fixture
def sp():
    return Space(("i", "j"), ("N",))


def square(sp, n=None):
    """0 <= i, j <= N-1 (or a fixed n)."""
    ub = AffExpr.var(sp, "N") - 1 if n is None else AffExpr.const(sp, n - 1)
    return BasicSet.from_bounds(sp, {"i": (0, ub), "j": (0, ub)})


class TestConstraint:
    def test_normalization_gcd(self, sp):
        c = ineq(sp, {"i": 2, "j": 4}, 6)
        assert c.coeffs == (1, 2, 0, 3)

    def test_inequality_constant_tightening(self, sp):
        # 2i - 1 >= 0  ->  i >= 1/2  ->  i >= 1 over integers: i - 1 >= 0
        c = ineq(sp, {"i": 2}, -1)
        assert c.coeffs == (1, 0, 0, -1)

    def test_integer_infeasible_equality_kept(self, sp):
        c = eq(sp, {"i": 2}, 1)  # 2i + 1 == 0 has no integer solution
        assert c.coeffs == (2, 0, 0, 1)

    def test_trivial_and_contradiction(self, sp):
        assert ineq(sp, {}, 0).is_trivial()
        assert ineq(sp, {}, -1).is_contradiction()
        assert eq(sp, {}, 1).is_contradiction()

    def test_negate(self, sp):
        c = ineq(sp, {"i": 1}, 0)  # i >= 0
        neg = c.negate()           # i <= -1
        assert neg.is_satisfied({"i": -1, "j": 0, "N": 4})
        assert not neg.is_satisfied({"i": 0, "j": 0, "N": 4})

    def test_negate_equality_raises(self, sp):
        with pytest.raises(ValueError):
            eq(sp, {"i": 1}).negate()


class TestBasicSet:
    def test_contains(self, sp):
        s = square(sp)
        assert s.contains({"i": 0, "j": 3, "N": 4})
        assert not s.contains({"i": 4, "j": 0, "N": 4})

    def test_emptiness_simple(self, sp):
        s = square(sp)
        s.add(ineq(sp, {"i": 1}, 0))
        assert not s.is_empty()
        s.add(ineq(sp, {"i": -1}, -1))  # i <= -1 contradicts i >= 0
        assert s.is_empty()

    def test_integer_emptiness_detected(self, sp):
        # 1 <= 2i <= 1 has the rational point i = 1/2 but no integer point.
        s = BasicSet(sp)
        s.add(ineq(sp, {"i": 2}, -1))
        s.add(ineq(sp, {"i": -2}, 1))
        assert s.is_empty()

    def test_zero_dimensional_set_is_the_empty_tuple(self):
        # a set without dims or params holds exactly one point, ()
        s = BasicSet(Space((), ()))
        assert not s.is_empty()
        assert s.min_of(AffExpr.const(s.space, 5)) == 5

    def test_min_max(self, sp):
        s = square(sp, n=8)
        expr = AffExpr.from_terms(sp, {"i": 1, "j": 1})
        assert s.min_of(expr) == 0
        assert s.max_of(expr) == 14

    def test_min_of_empty_is_none(self, sp):
        s = square(sp, n=4)
        s.add(ineq(sp, {"i": 1}, -10))
        assert s.min_of(AffExpr.var(sp, "i")) is None

    def test_lexmin_point(self, sp):
        s = square(sp, n=4)
        s.add(ineq(sp, {"i": 1, "j": 1}, -3))  # i + j >= 3
        assert s.lexmin_point() == {"i": 0, "j": 3}

    def test_lexmin_of_empty(self, sp):
        s = square(sp, n=2)
        s.add(ineq(sp, {"i": 1}, -5))
        assert s.lexmin_point() is None

    def test_project_out(self, sp):
        s = square(sp, n=4)
        s.add(ineq(sp, {"i": 1, "j": -1}))  # i >= j
        proj = s.project_out(["j"])
        assert proj.space.dims == ("i",)
        # i ranges over 0..3 still
        assert proj.contains({"i": 0, "N": 4}) and proj.contains({"i": 3, "N": 4})

    def test_project_out_through_equality(self, sp):
        s = BasicSet(sp)
        s.add(eq(sp, {"i": 1, "j": -1}))  # i == j
        s.add(ineq(sp, {"j": 1}))          # j >= 0
        proj = s.project_out(["j"])
        assert proj.contains({"i": 0, "N": 4})
        assert not proj.contains({"i": -1, "N": 4})

    def test_enumerate_points(self, sp):
        s = square(sp)
        s.add(ineq(sp, {"i": 1, "j": -1}))  # i >= j
        pts = s.enumerate_points({"N": 3})
        assert sorted(pts) == [
            (0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2),
        ]

    def test_enumerate_requires_params(self, sp):
        with pytest.raises(KeyError):
            square(sp).enumerate_points({})

    def test_enumerate_limit(self, sp):
        with pytest.raises(ValueError):
            square(sp).enumerate_points({"N": 10000}, limit=100)

    def test_intersect(self, sp):
        a = square(sp, n=4)
        b = BasicSet(sp, [ineq(sp, {"i": 1}, -2)])
        c = a.intersect(b)
        assert not c.contains({"i": 1, "j": 0, "N": 4})
        assert c.contains({"i": 2, "j": 0, "N": 4})

    def test_bounds_for(self, sp):
        s = square(sp)
        lowers, uppers = s.bounds_for("i")
        assert len(lowers) == 1 and len(uppers) == 1
        lo_expr, lo_div = lowers[0]
        assert lo_expr.is_constant() and lo_expr.const_term == 0 and lo_div == 1
        up_expr, up_div = uppers[0]
        assert up_expr.coeff_of("N") == 1 and up_expr.const_term == -1

    def test_bounds_for_equality(self, sp):
        s = BasicSet(sp, [eq(sp, {"i": 1, "j": -1})])
        lowers, uppers = s.bounds_for("i")
        assert len(lowers) == 1 and len(uppers) == 1

    def test_from_bounds_with_names(self, sp):
        s = BasicSet.from_bounds(sp, {"i": (0, "N")})
        assert s.contains({"i": 0, "j": 99, "N": 4})
        assert s.contains({"i": 4, "j": 0, "N": 4})
        assert not s.contains({"i": 5, "j": 0, "N": 4})


class TestUnionSet:
    def test_union_contains(self, sp):
        left = square(sp).intersect(BasicSet(sp, [ineq(sp, {"i": -2, "N": 1}, -1)]))
        right = square(sp).intersect(BasicSet(sp, [ineq(sp, {"i": 2, "N": -1})]))
        u = UnionSet([left, right])
        for i in range(4):
            assert u.contains({"i": i, "j": 0, "N": 4})

    def test_empty_union_rejected(self):
        with pytest.raises(ValueError):
            UnionSet([])

    def test_mixed_spaces_rejected(self, sp):
        with pytest.raises(ValueError):
            UnionSet([BasicSet(sp), BasicSet(Space(("k",)))])


class TestProjectionProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(-3, 3), st.integers(-3, 3), st.integers(-5, 5)
            ),
            min_size=1,
            max_size=5,
        ),
        st.integers(-3, 3),
        st.integers(-3, 3),
    )
    @settings(max_examples=50, deadline=None)
    def test_projection_soundness(self, rows, px, py):
        """If (x, y) is in S then x is in project_out(S, y)."""
        sp = Space(("x", "y"))
        s = BasicSet(sp)
        # bound the box so emptiness checks terminate
        s.add(ineq(sp, {"x": 1}, 5))
        s.add(ineq(sp, {"x": -1}, 5))
        s.add(ineq(sp, {"y": 1}, 5))
        s.add(ineq(sp, {"y": -1}, 5))
        for a, b, c in rows:
            s.add(ineq(sp, {"x": a, "y": b}, c))
        if s.contains({"x": px, "y": py}):
            proj = s.project_out(["y"])
            assert proj.contains({"x": px})
