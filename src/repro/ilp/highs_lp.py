"""A persistent HiGHS LP over integer rows, driven through HiGHS directly.

:func:`scipy.optimize.linprog` re-validates its options, cleans its inputs
and rebuilds a CSC matrix on every call, and then builds a fresh solver.
For the tiny LPs the polyhedral layer issues by the thousand (redundancy
pruning, emptiness pre-checks) that front end costs more than the solve.
:class:`RowLP` marshals a row system **once** into one HiGHS instance;
changing the objective or toggling a row keeps the model and its basis, so
each :meth:`RowLP.minimize` warm-starts from the previous optimum.

This is the only module that touches ``scipy.optimize._highspy._core``,
the private binding scipy's own ``linprog``/``milp`` wrap (already loaded
by ``import scipy.optimize``); a change to that binding is fixed here.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
from scipy.optimize._highspy import _core

__all__ = ["RowLP"]

_INF = _core.kHighsInf
_OPTIMAL = _core.HighsModelStatus.kOptimal
_INFEASIBLE = _core.HighsModelStatus.kInfeasible


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
