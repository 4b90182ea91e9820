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
truncation order.  The report rests on that identity: it checks
p_n^(+) = p_n exactly and then reads E_{n-1}^(+) off the minus root already
solved for level n.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from scipy.optimize import brentq

from .errors import ConvergenceError, OutOfValidatedRangeError, StructuralTheoremViolation
from .quadrature import (
    DEFAULT_TOL,
    IntegrandTable,
    PolynomialSuperpotential,
    compile_integrands,
    contour_integrate,
)
from .reduction import QuantizationCondition, quantization_integrands
from .series import generate_series, l_sequence, split_series

DEFAULT_TOL_E = 1e-9
MIN_VALIDATED_E_FACTOR = 1e-8  # in units of hbar

_qc_cache: Dict[int, Tuple[QuantizationCondition, IntegrandTable]] = {}


def _condition(order: int) -> Tuple[QuantizationCondition, IntegrandTable]:
    """The reduced condition up to ``order`` and its integrands compiled
    into one table, one row per correction."""
    if order not in _qc_cache:
        s = generate_series(order, "minus")
        qc = quantization_integrands(order, s, split_series(s), l_sequence(max(order - 1, 0), s))
        _qc_cache[order] = (qc, compile_integrands([c.integrand for c in qc.corrections]))
    return _qc_cache[order]


@dataclass(frozen=True)
class QuantizationProblem:
    superpotential: PolynomialSuperpotential
    truncation_order: int
    n: int
    partner: str = "minus"

    def __post_init__(self):
        if self.truncation_order % 2:
            raise ValueError("truncation order must be even")
        if self.partner not in ("minus", "plus"):
            raise ValueError("partner must be 'minus' or 'plus'")
        if self.n < 0:
            raise ValueError("level index must be >= 0")


def action(
    sp: PolynomialSuperpotential,
    order: int,
    E: float,
    tol: float = DEFAULT_TOL,
) -> float:
    """sum over even orders 2k <= order of sign * hbar^(2k) * contour
    integral of the reduced integrand, all integrated in one pass on one
    contour; the imaginary parts are checked per integrand and discarded
    inside the quadrature."""
    if E <= MIN_VALIDATED_E_FACTOR * sp.hbar:
        raise OutOfValidatedRangeError(
            f"E = {E} below the validated range (turning points coalesce)"
        )
    qc, table = _condition(order)
    weights = [corr.sign_factor * sp.hbar ** corr.order for corr in qc.corrections]
    return contour_integrate(table, sp, E, tol=tol, weights=weights).value.real


def _rhs(problem: QuantizationProblem) -> float:
    shift = problem.n if problem.partner == "minus" else problem.n + 1
    return 2.0 * shift * math.pi * problem.superpotential.hbar


def solve_level(
    problem: QuantizationProblem,
    tol_e: float = DEFAULT_TOL_E,
    quad_tol: float = DEFAULT_TOL,
) -> float:
    """Root of action(E) = rhs by geometric bracket scan plus brentq polish.

    The minus-partner ground state sits at the E -> 0 edge where the
    turning points coalesce; the action decreases monotonically to zero
    there, so the analytic root E = 0 is returned without integrating."""
    target = _rhs(problem)
    sp = problem.superpotential
    if target == 0.0:
        return 0.0

    def f(E: float) -> float:
        return action(sp, problem.truncation_order, E, tol=quad_tol) - target

    lo = sp.hbar
    for _ in range(80):
        try:
            flo = f(lo)
        except OutOfValidatedRangeError:
            break
        if flo < 0.0:
            break
        lo *= 0.5
    else:
        raise ConvergenceError("no lower bracket found")
    if flo >= 0.0:
        raise ConvergenceError("no lower bracket found above the validated range")
    hi = max(lo * 2.0, sp.hbar)
    fhi = f(hi)
    doublings = 0
    while fhi < 0.0:
        hi *= 2.0
        doublings += 1
        if doublings > 60:
            raise ConvergenceError("no upper bracket found")
        fhi = f(hi)
    # f(lo) < 0 <= f(hi): a sign change, which is all brentq needs
    return float(brentq(f, lo, hi, xtol=tol_e, rtol=8.881784197001252e-16, maxiter=200))


@dataclass
class LevelRecord:
    n: int
    partner: str
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
                    "partner": r.partner,
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
                row = [str(r.n), r.partner] + [
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


def solve_levels(
    sp: PolynomialSuperpotential,
    order: int,
    levels: Sequence[int],
    partner: str = "minus",
    tol_e: float = DEFAULT_TOL_E,
) -> Dict[int, float]:
    return {n: solve_level(QuantizationProblem(sp, order, n, partner), tol_e=tol_e) for n in levels}


def _degeneracy_rows(
    by_order: Dict[int, Dict[int, float]], n_max: int
) -> List[DegeneracyRecord]:
    """Degeneracy rows for n = 1..n_max at each order of ``by_order`` (minus
    roots by order and level).

    The plus root for level n - 1 solves the same action for the same
    target as the minus root for level n, so it is that root, once the plus
    series is checked to have the same real parts as the minus series up to
    the highest order (a prefix check covers every lower order)."""
    order = max(by_order)
    minus_p = _condition(order)[0].split.p
    plus_p = split_series(generate_series(order, "plus")).p
    for k in range(order + 1):
        if plus_p[k] != minus_p[k]:
            raise StructuralTheoremViolation(
                f"real part p_{k} of the plus series differs from the minus one"
            )
    return [DegeneracyRecord(n, ordr, roots[n], roots[n])
            for ordr, roots in by_order.items() for n in range(1, n_max + 1)]


def degeneracy_report(
    sp: PolynomialSuperpotential,
    order: int,
    n_max: int,
    tol_e: float = DEFAULT_TOL_E,
    orders: Optional[Sequence[int]] = None,
) -> SpectrumReport:
    """Tabulate E_n^(-) against E_{n-1}^(+) for n = 1..n_max at each
    truncation order; the pairing rests on the checked identity
    p_n^(+) = p_n, so each row needs one root solve, not two."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    report = SpectrumReport(sp)
    by_order = {ordr: solve_levels(sp, ordr, range(1, n_max + 1), "minus", tol_e)
                for ordr in (orders if orders is not None else [order])}
    report.degeneracy = _degeneracy_rows(by_order, n_max)
    return report


def compare_report(
    sp: PolynomialSuperpotential,
    orders: Sequence[int],
    n_max: int,
    oracle_values: Optional[Sequence[float]] = None,
    tol_e: float = DEFAULT_TOL_E,
) -> SpectrumReport:
    """Per-level SWKB estimates at each truncation order, with oracle
    eigenvalues attached when provided, and the degeneracy rows for
    n = 1..max(n_max, 1) built from the same roots (level 1 is solved for
    them when n_max is 0)."""
    report = SpectrumReport(sp)
    deg_max = max(n_max, 1)
    by_order = {ordr: solve_levels(sp, ordr, range(deg_max + 1), "minus", tol_e) for ordr in orders}
    report.degeneracy = _degeneracy_rows(by_order, deg_max)
    for n in range(n_max + 1):
        rec = LevelRecord(n, "minus", {ordr: by_order[ordr][n] for ordr in orders})
        if oracle_values is not None and n < len(oracle_values):
            rec.e_oracle = float(oracle_values[n])
        report.levels.append(rec)
    return report
