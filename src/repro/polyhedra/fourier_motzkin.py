"""Fourier–Motzkin elimination over integer coefficient rows.

Operates on raw rows ``(coeffs, equality)`` where ``coeffs`` is a tuple over
some column order with the constant last — the same layout used by
:class:`~repro.polyhedra.affine.AffExpr`.  Working at the row level lets the
same routine serve set projection (:mod:`repro.polyhedra.sets`) and Farkas
multiplier elimination (:mod:`repro.core.farkas`), which use different spaces.

Elimination is rational (the standard FM shadow); for the purposes of this
system that is the right over-approximation: projections are used for loop
bound generation and for Farkas systems, both of which tolerate (indeed
expect) the rational shadow.  Rows are GCD-normalized and de-duplicated after
every elimination step, and pairwise-subsumption pruning keeps growth in
check on scheduler-sized systems.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

from repro.ilp.highs_lp import RowLP

__all__ = [
    "eliminate_column",
    "eliminate_columns",
    "normalize_row",
    "normalize_rows",
    "Row",
]

Row = tuple[tuple[int, ...], bool]  # (coefficients with constant last, equality?)


def _gcd_normalize(coeffs: Sequence[int], equality: bool) -> tuple[int, ...]:
    g = 0
    for c in coeffs[:-1]:
        g = gcd(g, abs(c))
    if g <= 1:
        return tuple(coeffs)
    if equality and coeffs[-1] % g != 0:
        return tuple(coeffs)  # integer-infeasible equality; keep visible
    return tuple(c // g for c in coeffs[:-1]) + (coeffs[-1] // g,)


def normalize_row(row: Row) -> Row | None:
    """GCD-normalize one row; ``None`` when it is trivially satisfied.

    Constant rows survive only as contradictions (emptiness witnesses) —
    the same policy :func:`normalize_rows` applies per row.  Used directly
    by the scheduler's constraint dedup, where rows arrive one at a time.
    """
    coeffs, equality = row
    norm = _gcd_normalize(coeffs, equality)
    if all(c == 0 for c in norm[:-1]):
        c = norm[-1]
        if (equality and c != 0) or (not equality and c < 0):
            return (norm, equality)
        return None
    return (norm, equality)


def normalize_rows(rows: Iterable[Row]) -> list[Row]:
    """GCD-normalize, drop trivial rows, and de-duplicate (order-preserving)."""
    seen: set[tuple[tuple[int, ...], bool]] = set()
    out: list[Row] = []
    for row in rows:
        norm = normalize_row(row)
        if norm is None or norm in seen:
            continue
        seen.add(norm)
        out.append(norm)
    return _prune_subsumed(out)


def _prune_subsumed(rows: list[Row]) -> list[Row]:
    """Drop inequality rows implied by another row with identical slope.

    ``a.x + c1 >= 0`` subsumes ``a.x + c2 >= 0`` when ``c1 <= c2``.
    """
    best: dict[tuple[int, ...], int] = {}
    eqs: list[Row] = []
    order: list[tuple[int, ...]] = []
    for coeffs, equality in rows:
        if equality:
            eqs.append((coeffs, equality))
            continue
        slope = coeffs[:-1]
        if slope in best:
            best[slope] = min(best[slope], coeffs[-1])
        else:
            best[slope] = coeffs[-1]
            order.append(slope)
    ineqs = [(slope + (best[slope],), False) for slope in order]
    return eqs + ineqs


def eliminate_column(rows: list[Row], col: int) -> list[Row]:
    """Eliminate one column (existential projection, rational shadow)."""
    # Prefer substitution through an equality containing the column.
    eq_row = None
    for coeffs, equality in rows:
        if equality and coeffs[col] != 0:
            eq_row = (coeffs, equality)
            break
    if eq_row is not None:
        e, _ = eq_row
        a = e[col]
        out: list[Row] = []
        for coeffs, equality in rows:
            if (coeffs, equality) == eq_row:
                continue
            b = coeffs[col]
            if b == 0:
                out.append((coeffs, equality))
                continue
            # a * row - b * eq_row eliminates the column; multiply so the
            # combined row keeps the inequality direction (scale by |a|).
            scale = abs(a)
            sign = 1 if a > 0 else -1
            combined = tuple(
                scale * rc - sign * b * ec for rc, ec in zip(coeffs, e)
            )
            out.append((combined, equality))
        return normalize_rows(out)

    lower: list[tuple[int, ...]] = []   # coeff > 0:  a x >= -rest
    upper: list[tuple[int, ...]] = []   # coeff < 0
    keep: list[Row] = []
    for coeffs, equality in rows:
        c = coeffs[col]
        if c == 0:
            keep.append((coeffs, equality))
        elif c > 0:
            lower.append(coeffs)
        else:
            upper.append(coeffs)

    for lo in lower:
        a = lo[col]
        for up in upper:
            b = -up[col]
            combined = tuple(b * lc + a * uc for lc, uc in zip(lo, up))
            keep.append((combined, False))
    return normalize_rows(keep)


def _elimination_cost(rows: list[Row], col: int) -> int:
    """Estimated row-count growth of eliminating ``col``.

    Substitution through an equality is free; otherwise the classic
    pos*neg - (pos+neg) estimate.
    """
    pos = neg = 0
    for coeffs, equality in rows:
        c = coeffs[col]
        if c == 0:
            continue
        if equality:
            return -len(rows)  # substitution: strictly shrinking
        if c > 0:
            pos += 1
        else:
            neg += 1
    return pos * neg - pos - neg


def eliminate_columns(
    rows: list[Row],
    cols: Sequence[int],
    prune_threshold: int = 0,
) -> list[Row]:
    """Eliminate several columns (existential projection).

    Columns are zeroed in place, not removed, so indices stay valid.  The
    elimination order is chosen greedily by the standard min-growth
    heuristic (equality substitutions first, then the column with the
    smallest ``pos*neg`` fan-out), which keeps the intermediate systems small
    on the Farkas systems this routine spends most of its time on.

    ``prune_threshold > 0`` enables LP-based redundancy elimination whenever
    an intermediate system exceeds that many rows — essential for deep
    projections (the code generator's scan systems over tiled diamond
    schedules), where plain FM cascades exponentially.
    """
    out = normalize_rows(rows)
    remaining = list(cols)
    while remaining:
        col = min(remaining, key=lambda c: _elimination_cost(out, c))
        remaining.remove(col)
        out = eliminate_column(out, col)
        if prune_threshold and len(out) > prune_threshold:
            out = prune_redundant_rows(out)
    return out


def prune_redundant_rows(rows: list[Row]) -> list[Row]:
    """Drop inequality rows implied by the remaining system (rational test).

    Each inequality ``a.x + c >= 0`` is redundant iff ``min(a.x)`` over the
    other rows is ``>= -c``.  The rule is *keep unless proven implied*: a
    row goes only when HiGHS reports an optimum that clears the bound;
    infeasible, unbounded and undecided LPs keep it.  Rows are tested in
    order, each against the equalities, the rows kept before it and every
    row after it, so of two rows implied only by each other the earlier
    one goes and the later one stays.

    The system is marshalled once into a persistent :class:`RowLP`: the
    row under test is relaxed (bounds ``(-inf, inf)``), the objective set
    to its coefficients, and each solve warm-starts from the last basis;
    an implied row stays relaxed, any other is restored.

    Dropping a weakly-touching row keeps the same rational set; in the
    presence of floating-point tolerance the result can only be an *over*-
    approximation of the projection, which every consumer of deep
    projections (loop bounds, guards) tolerates by construction — inner
    levels re-check exact constraints pointwise.
    """
    eqs = [r for r in rows if r[1]]
    ineqs = [r for r in rows if not r[1]]
    if len(ineqs) <= 1:
        return rows

    lp = RowLP(eqs + ineqs, len(rows[0][0]) - 1)
    kept: list[Row] = []
    for i, row in enumerate(ineqs, start=len(eqs)):
        coeffs = row[0]
        lp.relax(i)
        low = lp.minimize(coeffs)
        if low is not None and low + coeffs[-1] >= -1e-9:
            continue  # implied by the others: stays relaxed
        lp.restore(i)
        kept.append(row)
    return eqs + kept
