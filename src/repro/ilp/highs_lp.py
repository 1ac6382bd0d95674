"""Persistent HiGHS models over integer rows, driven through HiGHS directly.

:func:`scipy.optimize.linprog` and :func:`scipy.optimize.milp` re-validate
their options, clean their inputs and rebuild a CSC matrix on every call,
and then build a fresh solver.  For the tiny LPs the polyhedral layer
issues by the thousand (redundancy pruning, emptiness pre-checks) that
front end costs more than the solve, and for the sequence of MIPs one
``lexmin`` issues over an unchanged model it is a large share of the
time.  Both models here marshal their system **once** into one HiGHS
instance and then only edit it:

* :class:`RowLP` — an LP over free columns; changing the objective or
  toggling a row keeps the model and its basis, so each
  :meth:`RowLP.minimize` warm-starts from the previous optimum;
* :class:`HighsMIP` — an :class:`~repro.ilp.model.ILPModel` as a MIP;
  :meth:`HighsMIP.minimize` switches the objective by column costs and
  :meth:`HighsMIP.pin` fixes a lexmin component by its column bounds, so
  the lexmin driver re-runs the same instance instead of appending a
  ``fix:`` row to a rebuilt model.

This is the only module that touches ``scipy.optimize._highspy._core``,
the private binding scipy's own ``linprog``/``milp`` wrap (already loaded
by ``import scipy.optimize``); a change to that binding is fixed here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional, Sequence

import numpy as np
from scipy.optimize._highspy import _core

from repro.ilp.branch_bound import ILPResult, ILPStatus
from repro.ilp.model import ILPModel, LinearConstraint, SolveStats

__all__ = ["HighsMIP", "RowLP"]

_INF = _core.kHighsInf
_STATUS = _core.HighsModelStatus
_OPTIMAL = _STATUS.kOptimal
_INFEASIBLE = _STATUS.kInfeasible
#: the statuses of a MIP stopped by ``mip_max_nodes`` (HiGHS reports the
#: node limit as a solution limit) or another work limit
_LIMITS = (_STATUS.kSolutionLimit, _STATUS.kIterationLimit, _STATUS.kTimeLimit)
#: a node limit that is still hit at or past this many nodes is an error
NODE_LIMIT_CEILING = 10_000_000


class RowLP:
    """``min cost.x`` over free columns subject to integer rows.

    Rows use the polyhedral layout ``(coeffs, equality)``: ``coeffs`` holds
    ``width`` variable coefficients with the constant last, and the row
    reads ``a.x + c >= 0`` (or ``== 0`` for an equality).  Row ``i`` keeps
    its index for the life of the model; :meth:`relax` removes it from the
    system by widening its bounds to ``(-inf, inf)`` and :meth:`restore`
    puts it back.
    """

    def __init__(self, rows: Sequence[tuple[Sequence[int], bool]], width: int):
        self.width = width
        self._status = None
        lower = np.empty(len(rows))
        upper = np.empty(len(rows))
        starts, index, value = [], [], []
        for r, (coeffs, equality) in enumerate(rows):
            starts.append(len(index))
            for j in range(width):
                if coeffs[j]:
                    index.append(j)
                    value.append(coeffs[j])
            lower[r] = -coeffs[-1]   # a.x + c >= 0  ->  a.x >= -c
            upper[r] = -coeffs[-1] if equality else _INF
        self._lower = lower
        self._upper = upper
        h = self._highs = _core._Highs()
        h.setOptionValue("output_flag", False)
        h.addVars(width, np.full(width, -_INF), np.full(width, _INF))
        if rows:
            h.addRows(
                len(rows), lower, upper, len(index),
                np.array(starts, dtype=np.int32),
                np.array(index, dtype=np.int32),
                np.array(value, dtype=np.float64),
            )

    def relax(self, i: int) -> None:
        """Drop row ``i`` from the system (its bounds become free)."""
        self._highs.changeRowBounds(i, -_INF, _INF)

    def restore(self, i: int) -> None:
        """Put row ``i`` back with its original bounds."""
        self._highs.changeRowBounds(i, self._lower[i], self._upper[i])

    def minimize(self, cost: Optional[Sequence[int]] = None) -> Optional[float]:
        """Solve from the current basis; the optimum, or ``None``.

        ``cost`` holds ``width`` objective coefficients (a constant past
        them is ignored); ``None`` keeps the previous objective (zero for
        a fresh model).  ``None`` is returned unless HiGHS proves an
        optimum: infeasible, unbounded and undecided models alike — and
        every model without columns, which HiGHS reports as empty.
        """
        h = self._highs
        if cost is not None:
            h.changeColsCost(
                self.width,
                np.arange(self.width, dtype=np.int32),
                np.array(cost[: self.width], dtype=np.float64),
            )
        h.run()
        self._status = h.getModelStatus()
        if self._status != _OPTIMAL:
            return None
        return h.getInfo().objective_function_value

    @property
    def infeasible(self) -> bool:
        """Whether the last :meth:`minimize` proved the rows infeasible."""
        return self._status == _INFEASIBLE

    def point(self) -> Optional[list[float]]:
        """The column values of the last :meth:`minimize`, if optimal."""
        if self._status != _OPTIMAL:
            return None
        return list(self._highs.getSolution().col_value)


class HighsMIP:
    """``min objective.x`` over an :class:`ILPModel` as one HiGHS MIP.

    The model's variables, bounds, integrality and constraints (plus any
    ``extra`` rows) are marshalled once.  Each :meth:`minimize` sets the
    objective by column costs and re-runs the same instance; :meth:`pin`
    fixes a column to a value by its bounds.  Results mirror
    :func:`repro.ilp.branch_bound.solve_ilp`: integer columns are rounded
    and the rounded vector is verified against every row and (pinned)
    bound before it is accepted.
    """

    def __init__(self, model: ILPModel, extra: Sequence[LinearConstraint] = ()):
        names = model.var_names()
        self.names = names
        self.index = {name: j for j, name in enumerate(names)}
        n = len(names)
        self._lb = np.full(n, -_INF)
        self._ub = np.full(n, _INF)
        self._integer = np.zeros(n, dtype=bool)
        for j, var in enumerate(model.variables.values()):
            if var.lower is not None:
                self._lb[j] = var.lower
            if var.upper is not None:
                self._ub[j] = var.upper
            self._integer[j] = var.integer

        constraints = list(model.constraints) + list(extra)
        m = len(constraints)
        self._row_lower = np.empty(m)
        self._row_upper = np.empty(m)
        starts, cols, vals = [], [], []
        for r, con in enumerate(constraints):
            starts.append(len(cols))
            for name, coef in con.coeffs.items():
                cols.append(self.index[name])
                vals.append(float(coef))
            # expr + const >= 0  =>  expr >= -const;  equality pins both sides.
            self._row_lower[r] = -float(con.const)
            self._row_upper[r] = -float(con.const) if con.equality else _INF
        self._cols = np.array(cols, dtype=np.int32)
        self._vals = np.array(vals, dtype=np.float64)
        self._row_of = np.repeat(
            np.arange(m), np.diff(np.array(starts + [len(cols)], dtype=np.int64))
        )

        self._cost: dict[int, float] = {}
        self._node_limit: Optional[int] = None
        self._highs = None
        if n == 0:
            # HiGHS reports a model without columns as empty, feasible or
            # not, so :meth:`minimize` decides it from its constant rows
            return
        h = self._highs = _core._Highs()
        h.setOptionValue("output_flag", False)
        h.addVars(n, self._lb, self._ub)
        if self._integer.any():
            integer = np.flatnonzero(self._integer).astype(np.int32)
            h.changeColsIntegrality(
                len(integer), integer,
                np.full(len(integer), int(_core.HighsVarType.kInteger), np.uint8),
            )
        if m:
            h.addRows(
                m, self._row_lower, self._row_upper, len(cols),
                np.array(starts, dtype=np.int32), self._cols, self._vals,
            )

    def pin(self, name: str, value: int | Fraction) -> None:
        """Fix column ``name`` to ``value`` by its bounds."""
        j = self.index[name]
        self._lb[j] = self._ub[j] = float(value)
        self._highs.changeColBounds(j, self._lb[j], self._ub[j])

    def minimize(
        self, objective: Mapping[str, int | Fraction], node_limit: int = 20000
    ) -> ILPResult:
        """Minimize ``objective . x``; one ``lp_solves`` per MIP solve.

        ``node_limit`` maps to HiGHS's ``mip_max_nodes``.  A solve that hits
        it is retried with a ×100 ceiling — never conflated with
        infeasibility — and :class:`RuntimeError` is raised once the ceiling
        reaches :data:`NODE_LIMIT_CEILING` and is still hit.
        """
        if self._highs is None:
            return self._accept(objective, SolveStats(lp_solves=1), np.empty(0))
        self._set_cost(objective)
        stats = SolveStats()
        while True:
            status = self._run(node_limit)
            stats.lp_solves += 1
            if status not in _LIMITS:
                break
            if node_limit >= NODE_LIMIT_CEILING:
                raise RuntimeError(
                    f"HiGHS hit its work limit on a {len(self.names)}-variable model"
                )
            node_limit *= 100
        if status == _INFEASIBLE:
            return ILPResult(ILPStatus.INFEASIBLE, stats=stats)
        if status == _STATUS.kUnbounded:
            return ILPResult(ILPStatus.UNBOUNDED, stats=stats)
        if status != _OPTIMAL:
            # HiGHS reports "unbounded or infeasible" without deciding which
            # (presolve shortcut).  Disambiguate with a zero-objective
            # feasibility solve: feasible + undecided => unbounded.
            if any(objective.values()):
                feasible = self.minimize({}, node_limit)
                self._set_cost(objective)
                stats.merge(feasible.stats)
                if feasible.is_optimal:
                    return ILPResult(ILPStatus.UNBOUNDED, stats=stats)
            return ILPResult(ILPStatus.INFEASIBLE, stats=stats)
        return self._accept(
            objective, stats, np.array(self._highs.getSolution().col_value)
        )

    def _set_cost(self, objective: Mapping[str, int | Fraction]) -> None:
        cost = {self.index[name]: float(c) for name, c in objective.items()}
        h = self._highs
        for j in self._cost.keys() - cost.keys():
            h.changeColCost(j, 0.0)
        for j, c in cost.items():
            if self._cost.get(j) != c:
                h.changeColCost(j, c)
        self._cost = cost

    def _run(self, node_limit: int):
        h = self._highs
        if node_limit != self._node_limit:
            h.setOptionValue("mip_max_nodes", node_limit)
            self._node_limit = node_limit
        h.run()
        return h.getModelStatus()

    def _accept(self, objective, stats: SolveStats, x: np.ndarray) -> ILPResult:
        """Round the optimum ``x`` and verify it; a vector that fails is
        reported infeasible rather than trusted."""
        x = np.where(self._integer, np.round(x), x)
        # Integer-rounded values against integer data, so 1e-6 slack is
        # conservative.
        if np.any(x < self._lb - 1e-6) or np.any(x > self._ub + 1e-6):
            return ILPResult(ILPStatus.INFEASIBLE, stats=stats)
        rows = np.bincount(
            self._row_of, weights=self._vals * x[self._cols],
            minlength=len(self._row_lower),
        )
        if np.any(rows < self._row_lower - 1e-6) or np.any(
            rows > self._row_upper + 1e-6
        ):
            return ILPResult(ILPStatus.INFEASIBLE, stats=stats)
        assignment: dict[str, Fraction] = {}
        for name, value, integer in zip(self.names, x.tolist(), self._integer):
            if integer:
                assignment[name] = Fraction(int(value))
            else:
                assignment[name] = Fraction(value).limit_denominator(10**9)
        obj_val = sum(
            (Fraction(coef) * assignment[name] for name, coef in objective.items()),
            Fraction(0),
        )
        return ILPResult(ILPStatus.OPTIMAL, obj_val, assignment, stats)
