"""MILP backend on HiGHS, driven directly through its binding.

This plays the role GLPK plays in the paper: a fast floating-point MILP
solver used for the large scheduling ILPs (the paper switched to GLPK above
roughly one hundred variables; swim's Pluto+ model had 219).  The interface
matches :func:`repro.ilp.branch_bound.solve_ilp` so callers can switch
backends transparently.  :func:`solve_ilp_highs` is a one-shot solve; the
lexmin driver instead keeps one :class:`~repro.ilp.highs_lp.HighsMIP` for
its whole objective sequence.

All scheduler models have pure-integer data and modest magnitudes, so the
floating-point optimum is rounded to the nearest integer vector and verified
exactly against the model before being returned.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from repro.ilp.branch_bound import ILPResult
from repro.ilp.highs_lp import HighsMIP
from repro.ilp.model import ILPModel, LinearConstraint

__all__ = ["solve_ilp_highs"]


def solve_ilp_highs(
    model: ILPModel,
    objective: Mapping[str, int | Fraction],
    extra: Sequence[LinearConstraint] = (),
    node_limit: int = 20000,
) -> ILPResult:
    """Minimize ``objective . x`` using HiGHS.  Mirrors ``solve_ilp``."""
    return HighsMIP(model, extra).minimize(objective, node_limit)
