"""The persistent HiGHS LP and the private scipy binding it drives.

``repro.ilp.highs_lp`` is the one module that reaches into
``scipy.optimize._highspy._core``; if a scipy release renames or drops a
call, option or status it relies on, these tests name the missing piece.
"""

import pytest

from repro.ilp import highs_lp
from repro.ilp.highs_lp import RowLP

#: every binding call ``RowLP`` and ``HighsMIP`` make
USED_CALLS = (
    "addRows", "addVars", "changeColBounds", "changeColCost",
    "changeColsCost", "changeColsIntegrality", "changeRowBounds", "getInfo",
    "getModelStatus", "getSolution", "run", "setOptionValue",
)

#: every model status the two models tell apart
USED_STATUSES = (
    "kOptimal", "kInfeasible", "kUnbounded", "kUnboundedOrInfeasible",
    "kSolutionLimit", "kIterationLimit", "kTimeLimit",
)

#: every option the two models set
USED_OPTIONS = ("output_flag", "mip_max_nodes")


def test_private_binding_present():
    core = highs_lp._core
    assert hasattr(core, "_Highs"), (
        "scipy no longer ships scipy.optimize._highspy._core._Highs; "
        "port repro/ilp/highs_lp.py to the binding it now wraps"
    )
    missing = [c for c in USED_CALLS if not hasattr(core._Highs, c)]
    assert not missing, f"scipy's _Highs binding lacks {missing}"
    missing = [s for s in USED_STATUSES if not hasattr(core.HighsModelStatus, s)]
    assert not missing, f"scipy's HighsModelStatus lacks {missing}"
    assert hasattr(core.HighsVarType, "kInteger")
    h = core._Highs()
    for option in USED_OPTIONS:
        status, _ = h.getOptionValue(option)
        assert status == core.HighsStatus.kOk, f"HiGHS has no option {option!r}"


# rows (x, y, const): x >= 1, y >= 2, x + y >= 5
ROWS = [((1, 0, -1), False), ((0, 1, -2), False), ((1, 1, -5), False)]


def test_row_toggled_off_and_back_on():
    lp = RowLP(ROWS, 2)
    assert lp.minimize((1, 1)) == pytest.approx(5.0)
    lp.relax(2)
    assert lp.minimize() == pytest.approx(3.0)  # only the box remains
    lp.restore(2)
    assert lp.minimize() == pytest.approx(5.0)
    x, y = lp.point()
    assert x >= 1 - 1e-9 and y >= 2 - 1e-9 and x + y == pytest.approx(5.0)


def test_objective_change_keeps_model():
    lp = RowLP(ROWS, 2)
    assert lp.minimize((1, 0)) == pytest.approx(1.0)
    assert lp.minimize((0, 1, 99)) == pytest.approx(2.0)  # constant ignored
    assert lp.minimize((-1, 0)) is None  # unbounded: no optimum
    assert not lp.infeasible and lp.point() is None


def test_infeasible_and_equalities():
    # x == 2 and x >= 3
    lp = RowLP([((1, -2), True), ((1, -3), False)], 1)
    assert lp.minimize((1,)) is None
    assert lp.infeasible
    lp.relax(1)
    assert lp.minimize() == pytest.approx(2.0)
    assert not lp.infeasible


def test_zero_objective_is_a_feasibility_check():
    lp = RowLP(ROWS, 2)
    assert lp.minimize() == pytest.approx(0.0)
    assert len(lp.point()) == 2


def test_no_columns_is_never_decided():
    # HiGHS reports a model without columns as empty, feasible or not
    lp = RowLP([((-1,), False)], 0)
    assert lp.minimize() is None
    assert not lp.infeasible
