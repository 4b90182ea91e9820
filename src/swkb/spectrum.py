"""Energy levels from the truncated quantization condition, plus the
partner-degeneracy report.

The left-hand side uses the reduced even-order integrands only; the
first-order term contributes a constant that cancels between the two ways
of writing the right-hand side, leaving

    action(E) = 2 n pi hbar          (minus partner)
    action(E) = 2 (n + 1) pi hbar    (plus partner)

The integrands reduce the real parts p_n alone, and the plus series
has the same real parts (c_n^(+) = c_n - 2 i q_n), so both partners share
one action and the degeneracy E_n^(-) = E_{n-1}^(+) holds at every
truncation order.  So only the minus condition is solved: plus level n is
minus level n + 1.  The report rests on that identity: it checks
p_n^(+) = p_n exactly and then reads E_{n-1}^(+) off the minus root already
solved for level n.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import Expression, PHI_RING
from .errors import ConvergenceError, OutOfValidatedRangeError, StructuralTheoremViolation
from .quadrature import (
    IntegrandTable,
    PolynomialSuperpotential,
    compile_integrands,
    contour_integrate,
)
from .reduction import ReducedCorrection, quantization_integrands, require_odd_real_certificates
from .series import SplitSeries, generate_series, l_sequence, split_series

DEFAULT_TOL_E = 1e-9
MIN_VALIDATED_E_FACTOR = 1e-8  # in units of hbar
MAX_SOLVE_STEPS = 200
MAX_LOG_STEP = 20.0  # a Newton step may scale E by at most e^20
STOP_MARGIN = 100.0  # a step stops the solve when 100x its third-order error is within tolerance
_EPS = sys.float_info.epsilon


@dataclass(frozen=True, eq=False)
class ActionTables:
    """The action tables shared by the conditions of one build.  The
    left-hand side at order k, sum over 2j <= k of sign * hbar^(2j) *
    integrand, is a prefix of the one at the highest order, so one table
    holds an (A_k, A_k', A_k'') block of three rows for every order k of
    ``orders`` (ascending), and one sampling of the contour serves them all.
    ``compiled`` holds the table of each (degree of phi, hbar) that
    ``table`` has built."""

    orders: Tuple[int, ...]
    corrections: Tuple[ReducedCorrection, ...]  # through the highest order
    compiled: dict = field(default_factory=dict, repr=False)

    def rows(self, order: int) -> slice:
        """The (A, A', A'') block of ``order`` in every table."""
        first = 3 * self.orders.index(order)
        return slice(first, first + 3)

    def table(self, sp: PolynomialSuperpotential) -> IntegrandTable:
        """The table for ``sp``: for each order, the left-hand side formed
        exactly at the float hbar of ``sp``, then its first and second
        E-derivatives, compiled without the monomials that hold a phi^(k)
        with k above the degree of phi, which vanish identically.  Built on
        first use for each degree and hbar."""
        degree = len(sp.coefficients) - 1
        table = self.compiled.get((degree, sp.hbar))
        if table is None:
            hbar = Fraction(sp.hbar)
            weighted = [(c.sign_factor * hbar ** c.order, c.integrand) for c in self.corrections]
            rows = []
            for order in self.orders:
                lhs = Expression.sum_of_products(PHI_RING, weighted[: order // 2 + 1])
                kept = lhs.derivs_at_most(degree)
                slope = kept.diff_E()
                rows += [kept, slope, slope.diff_E()]
            table = self.compiled[(degree, sp.hbar)] = compile_integrands(rows)
        return table


@dataclass(frozen=True)
class Condition:
    """The truncated condition at one even ``order``: the reduced
    corrections up to that order, the split minus series they were reduced
    from, which may run past ``order``, and the ``tables`` it shares with
    the other conditions of its build, in which its (A, A', A'') rows are
    the slice ``rows``."""

    order: int
    corrections: Tuple[ReducedCorrection, ...]
    split: SplitSeries
    tables: ActionTables = field(repr=False, compare=False)

    @property
    def rows(self) -> slice:
        return self.tables.rows(self.order)

    def action_table(self, sp: PolynomialSuperpotential) -> IntegrandTable:
        """The table that ``action`` integrates for ``sp``, shared by every
        condition of the build."""
        return self.tables.table(sp)


def build_conditions(orders: Sequence[int]) -> Dict[int, Condition]:
    """One condition per requested order, all cut from a single reduction
    at the highest order: each reduced correction depends only on the
    series prefix up to its own order.  Nothing is compiled here; the
    conditions share one ``ActionTables``, which compiles a table on the
    first ``action`` for each degree of phi and hbar."""
    for k in orders:
        if k < 0 or k % 2:
            raise ValueError(f"truncation order must be even and >= 0, got {k}")
    top = max(orders)
    s = generate_series(top, "minus")
    split = split_series(s)
    corrections = quantization_integrands(top, split, l_sequence(max(top - 1, 0), s))
    require_odd_real_certificates(top, split)
    tables = ActionTables(tuple(sorted(set(orders))), corrections)
    return {k: Condition(k, corrections[: k // 2 + 1], split, tables) for k in orders}


def action(cond: Condition, sp: PolynomialSuperpotential,
           E: float) -> Dict[int, Tuple[float, float, float]]:
    """(A, dA/dE, d2A/dE2) by order: A is the sum over even orders
    2k <= cond.order of sign * hbar^(2k) * the contour integral of the
    reduced integrand, and the derivatives the same sums over the
    integrands' first and second E-derivatives (the contour encloses the
    moving turning points, so d/dE passes under the integral).

    The weighted sum is formed exactly before the quadrature, so settling
    and the realness check apply to A and its derivatives: a correction
    weighted by hbar^8, or one that is exactly zero, need not settle on its
    own, and an error in one correction shows only through the sums.  The
    table comes from ``cond.action_table``, built once per degree of phi
    and hbar for the whole build, and all its rows share one sampling of
    the contour, so an energy pays only for the quadrature.  Only this
    condition's three rows gate the integral, so its order is always
    present; every other order of the build is present where its rows
    settled too, finite and real."""
    if E <= MIN_VALIDATED_E_FACTOR * sp.hbar:
        raise OutOfValidatedRangeError(
            f"E = {E} below the validated range (turning points coalesce)"
        )
    result = contour_integrate(cond.action_table(sp), sp, E, gate=cond.rows)
    rows = [r.real for r in result.rows]
    block = cond.tables.rows
    return {k: tuple(rows[block(k)]) for k in cond.tables.orders if all(result.settled[block(k)])}


Probe = Tuple[float, Dict[int, Tuple[float, float, float]]]  # (E, action(cond, sp, E))


class Level(float):
    """A root found by ``solve_level``: the energy as a float, carrying the
    last two (E, action by order) the solve evaluated, older first (the
    older one may come from the level below or from another order), and the
    (condition, superpotential) it belongs to.  Passed as the
    ``start`` of a solve of the same problem, the newer evaluation serves as
    the first iteration, so the next level starts one exact second-order
    step away without integrating again, and the pair gives the third-order
    term its stop reads."""

    __slots__ = ("source", "probes")

    def __new__(cls, value: float, source: tuple, probes: Tuple[Probe, ...]):
        level = super().__new__(cls, value)
        level.source = source
        level.probes = probes
        return level


def _log_chart(probe: Probe, order: int) -> Optional[Tuple[float, float, float]]:
    """(x, s, c) at the evaluation (E, A, A', A'') of ``order`` in ``probe``,
    with t = ln E and x = ln A: s = dt/dx = 1 / g for g = E A' / A, and
    c = ds/dx = -x'' s^3 exactly, from x'' = d2x/dt2 = g + E^2 A'' / A - g^2.
    None where A or A' is not positive."""
    E, (A, slope, bend) = probe[0], probe[1][order]
    if not (A > 0.0 and slope > 0.0):
        return None
    g = E * slope / A
    s = 1.0 / g
    return math.log(A), s, -(g + E * E * bend / A - g * g) * s ** 3


def solve_level(
    cond: Condition,
    sp: PolynomialSuperpotential,
    n: int,
    start: Optional[float] = None,
    peer: Optional[float] = None,
) -> float:
    """Root of action(E) = 2 n pi hbar, minus level n and plus level n - 1,
    by Newton's method in ln E, from ``start`` (a nearby root, say) or else
    from hbar.  A ``Level`` returned by a solve of the same condition and
    superpotential is not evaluated again: its last evaluation is the first
    iteration, and any other start is a plain energy.

    A ~ c E^alpha makes ln A nearly linear in ln E: with t = ln E,
    x = ln A and dx = ln(target / A), each step is Chebyshev's
    t += s dx + c dx^2 / 2, with s = dt/dx and c = ds/dx exact from
    (A, A', A'') (see ``_log_chart``; Traub, Iterative Methods for the
    Solution of Equations, 1964).  The first step from a carried pair adds
    c2 dx^3 / 6, c2 the difference quotient of c over the pair.  Every
    evaluation narrows the bracket lo < root <= hi; a step that leaves it,
    or a point where A or A' is not positive, falls back to bisection once
    both ends are known and to doubling or halving E before that
    (safeguarded Newton, as in Numerical Recipes' rtsafe).  The loop stops
    when the bracket or a step is within DEFAULT_TOL_E + 4 eps |E|, or,
    right after an evaluation, when STOP_MARGIN times the step's
    third-order error |c2| |dx|^3 / 6 (relative to the new E) is, c2 over
    the last two evaluations; the root is returned as a ``Level`` holding
    them.

    ``peer`` is a ``Level`` of the same level and superpotential from
    another condition of the build (``solve_levels`` passes the next higher
    order's root).  Where both of its evaluations hold this condition's
    order, they are this condition's own evaluations at those energies; if the stop rule accepts the step from them, that step is the
    root and nothing is integrated.  Otherwise the peer is dropped and the
    level is solved from ``start`` as without it.

    The ground state sits at the E -> 0 edge where the turning points
    coalesce; the action decreases monotonically to zero there, so the
    analytic root E = 0 is returned without integrating."""
    if n < 0:
        raise ValueError("level index must be >= 0")
    target = 2.0 * n * math.pi * sp.hbar
    if target == 0.0:
        return 0.0
    floor = MIN_VALIDATED_E_FACTOR * sp.hbar
    source = (cond, sp)
    order = cond.order

    def newton(probes: List[Probe], E: float, fresh: bool, trial: bool = False) -> Optional[Level]:
        """The loop, from the carried ``probes`` unless ``fresh``; a
        ``trial`` takes its probes as this solve's own and returns None
        where its first step does not stop."""
        lo, hi = 0.0, math.inf

        def failure(why: str) -> ConvergenceError:
            return ConvergenceError(f"level {n} (minus, order {order}): {why}; "
                                    f"last E = {E}, bracket [{lo}, {hi}]")

        for _ in range(MAX_SOLVE_STEPS):
            if fresh:
                try:
                    probes.append((E, action(cond, sp, E)))
                except ConvergenceError as exc:
                    raise failure(str(exc)) from exc
            own = fresh or trial
            E, A = probes[-1][0], probes[-1][1][order][0]
            if A < target:
                lo = E
            else:
                hi = E
            tol = DEFAULT_TOL_E + 4.0 * _EPS * E
            if hi - lo <= tol:
                return Level(0.5 * (lo + hi), source, tuple(probes[-2:]))
            here = _log_chart(probes[-1], order)
            back = _log_chart(probes[-2], order) if here and len(probes) > 1 else None
            nxt, cubic = math.nan, None
            if here:
                x, s, c = here
                dx = math.log(target / A)
                if back and back[0] != x:
                    cubic = (c - back[2]) / (x - back[0]) * dx ** 3 / 6.0
                step = s * dx + 0.5 * c * dx * dx
                if cubic is not None and not own:
                    step += cubic  # a carried pair takes the third-order term as well
                if abs(step) < MAX_LOG_STEP:
                    nxt = E * math.exp(step)
            inside = max(lo, floor) < nxt <= hi
            if inside and (abs(nxt - E) <= tol or (own and cubic is not None
                                                   and STOP_MARGIN * abs(cubic) * nxt <= tol)):
                return Level(nxt, source, tuple(probes[-2:]))
            if trial:
                return None
            if not inside:
                if lo and hi < math.inf:
                    nxt = 0.5 * (lo + hi)
                else:
                    nxt = 2.0 * E if A < target else 0.5 * E
                    if nxt <= floor:
                        raise failure("no lower bracket above the validated range")
            E = nxt
            fresh = True
        raise failure(f"no root within {MAX_SOLVE_STEPS} steps")

    if (isinstance(peer, Level) and peer.source[1] == sp
            and all(order in values for _, values in peer.probes)):
        root = newton(list(peer.probes), peer.probes[-1][0], fresh=False, trial=True)
        if root is not None:
            return root
    carried = isinstance(start, Level) and start.source == source
    E = float(start) if start is not None and start > floor else sp.hbar
    return newton(list(start.probes) if carried else [], E, fresh=not carried)


def solve_levels(
    conds: Dict[int, Condition],
    sp: PolynomialSuperpotential,
    n_max: int,
) -> Dict[int, List[float]]:
    """The roots of levels 0..n_max of each condition of ``conds`` (one
    build, keyed by order), by order in the order of ``conds``.

    Levels go up one at a time, each started from the same order's root of
    the level below, and each level is solved at every order, highest
    first: the conditions share one table, so a lower order first tries the
    next higher order's root of the level as its ``peer``."""
    roots: Dict[int, List[float]] = {k: [] for k in conds}
    for n in range(n_max + 1):
        higher = None
        for k in sorted(conds, reverse=True):
            higher = solve_level(conds[k], sp, n, start=roots[k][-1] if n else None,
                                 peer=higher)
            roots[k].append(higher)
    return roots


@dataclass
class LevelRecord:
    n: int
    e_by_order: Dict[int, float]
    e_oracle: Optional[float] = None

    def abs_errors(self) -> Dict[int, float]:
        if self.e_oracle is None:
            return {}
        return {k: abs(v - self.e_oracle) for k, v in self.e_by_order.items()}


@dataclass
class DegeneracyRecord:
    n: int
    order: int
    e_minus: float
    e_plus_below: float

    @property
    def gap(self) -> float:
        return abs(self.e_minus - self.e_plus_below)


@dataclass
class SpectrumReport:
    superpotential: PolynomialSuperpotential
    levels: List[LevelRecord] = field(default_factory=list)
    degeneracy: List[DegeneracyRecord] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "superpotential": self.superpotential.to_json_dict(),
            "levels": [
                {
                    "n": r.n,
                    "partner": "minus",
                    "e_swkb": {str(k): v for k, v in sorted(r.e_by_order.items())},
                    "e_oracle": r.e_oracle,
                    "abs_error": {str(k): v for k, v in sorted(r.abs_errors().items())},
                }
                for r in self.levels
            ],
            "degeneracy": [
                {
                    "n": d.n,
                    "order": d.order,
                    "e_minus": d.e_minus,
                    "e_plus_below": d.e_plus_below,
                    "gap": d.gap,
                }
                for d in self.degeneracy
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = []
        if self.levels:
            orders = sorted({k for r in self.levels for k in r.e_by_order})
            head = ["n", "partner"] + [f"E(order {k})" for k in orders]
            if any(r.e_oracle is not None for r in self.levels):
                head += ["E(oracle)"] + [f"err(order {k})" for k in orders]
            rows = []
            for r in self.levels:
                row = [str(r.n), "minus"] + [
                    f"{r.e_by_order[k]:.10f}" if k in r.e_by_order else "-" for k in orders
                ]
                if r.e_oracle is not None:
                    errs = r.abs_errors()
                    row += [f"{r.e_oracle:.10f}"] + [
                        f"{errs[k]:.3e}" if k in errs else "-" for k in orders
                    ]
                rows.append(row)
            lines.extend(_table(head, rows))
        if self.degeneracy:
            lines.append("")
            head = ["n", "order", "E_n(minus)", "E_{n-1}(plus)", "gap"]
            rows = [
                [str(d.n), str(d.order), f"{d.e_minus:.10f}", f"{d.e_plus_below:.10f}", f"{d.gap:.3e}"]
                for d in self.degeneracy
            ]
            lines.extend(_table(head, rows))
        return "\n".join(lines)


def _table(head: Sequence[str], rows: List[Sequence[str]]) -> List[str]:
    widths = [max(len(head[i]), *(len(r[i]) for r in rows)) if rows else len(head[i])
              for i in range(len(head))]
    out = ["  ".join(h.ljust(w) for h, w in zip(head, widths))]
    for r in rows:
        out.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return out


def _degeneracy_rows(
    by_order: Dict[int, List[float]], n_max: int, minus: SplitSeries
) -> List[DegeneracyRecord]:
    """Degeneracy rows for n = 1..n_max at each order of ``by_order`` (minus
    roots by order and level); ``minus`` is the split minus series, generated
    at least to the highest order.

    The plus root for level n - 1 solves the same action for the same
    target as the minus root for level n, so it is that root, once the plus
    series is checked to have the same real parts as the minus series up to
    the highest order (a prefix check covers every lower order)."""
    order = max(by_order)
    plus_p = split_series(generate_series(order, "plus")).p
    for k in range(order + 1):
        if plus_p[k] != minus.p[k]:
            raise StructuralTheoremViolation(
                f"real part p_{k} of the plus series differs from the minus one"
            )
    return [DegeneracyRecord(n, ordr, roots[n], roots[n])
            for ordr, roots in by_order.items() for n in range(1, n_max + 1)]


def compare_report(
    sp: PolynomialSuperpotential,
    orders: Sequence[int],
    n_max: int,
    oracle_values: Optional[Sequence[float]] = None,
) -> SpectrumReport:
    """Per-level SWKB estimates at each truncation order, with oracle
    eigenvalues attached when provided, and the degeneracy rows
    E_n^(-) = E_{n-1}^(+) for n = 1..max(n_max, 1) built from the same roots
    (level 1 is solved for them when n_max is 0); the pairing rests on the
    checked identity p_n^(+) = p_n, so each row needs one root solve, not two."""
    conds = build_conditions(orders)
    report = SpectrumReport(sp)
    deg_max = max(n_max, 1)
    by_order = solve_levels(conds, sp, deg_max)
    report.degeneracy = _degeneracy_rows(by_order, deg_max, conds[max(orders)].split)
    for n in range(n_max + 1):
        rec = LevelRecord(n, {ordr: by_order[ordr][n] for ordr in orders})
        if oracle_values is not None and n < len(oracle_values):
            rec.e_oracle = float(oracle_values[n])
        report.levels.append(rec)
    return report
