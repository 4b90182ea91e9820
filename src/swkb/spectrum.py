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
    IntegrandTable,
    PolynomialSuperpotential,
    compile_integrands,
    contour_integrate,
)
from .reduction import ReducedCorrection, quantization_integrands
from .series import SplitSeries, generate_series, l_sequence, split_series

DEFAULT_TOL_E = 1e-9
MIN_VALIDATED_E_FACTOR = 1e-8  # in units of hbar


@dataclass(frozen=True)
class Condition:
    """The truncated condition at one even ``order``: the reduced
    corrections up to that order, their integrands compiled into one table
    (one row per correction), and the split minus series they were reduced
    from, which may run past ``order``."""

    order: int
    corrections: Tuple[ReducedCorrection, ...]
    table: IntegrandTable
    split: SplitSeries


def build_conditions(orders: Sequence[int]) -> Dict[int, Condition]:
    """One condition per requested order, all cut from a single reduction
    at the highest order: each reduced correction depends only on the
    series prefix up to its own order."""
    for k in orders:
        if k < 0 or k % 2:
            raise ValueError(f"truncation order must be even and >= 0, got {k}")
    top = max(orders)
    s = generate_series(top, "minus")
    split = split_series(s)
    qc = quantization_integrands(top, s, split, l_sequence(max(top - 1, 0), s))
    conds = {}
    for k in orders:
        corrections = tuple(qc.corrections[: k // 2 + 1])
        table = compile_integrands([c.integrand for c in corrections])
        conds[k] = Condition(k, corrections, table, split)
    return conds


def action(cond: Condition, sp: PolynomialSuperpotential, E: float) -> float:
    """sum over even orders 2k <= cond.order of sign * hbar^(2k) * contour
    integral of the reduced integrand, all integrated in one pass on one
    contour; the imaginary parts are checked per integrand and discarded
    inside the quadrature."""
    if E <= MIN_VALIDATED_E_FACTOR * sp.hbar:
        raise OutOfValidatedRangeError(
            f"E = {E} below the validated range (turning points coalesce)"
        )
    weights = [corr.sign_factor * sp.hbar ** corr.order for corr in cond.corrections]
    return contour_integrate(cond.table, sp, E, weights=weights).value.real


def solve_level(
    cond: Condition, sp: PolynomialSuperpotential, n: int, partner: str = "minus"
) -> float:
    """Root of action(E) = 2 n pi hbar (minus partner) or 2 (n + 1) pi hbar
    (plus partner) by geometric bracket scan plus brentq polish.

    The minus-partner ground state sits at the E -> 0 edge where the
    turning points coalesce; the action decreases monotonically to zero
    there, so the analytic root E = 0 is returned without integrating."""
    if n < 0:
        raise ValueError("level index must be >= 0")
    if partner not in ("minus", "plus"):
        raise ValueError("partner must be 'minus' or 'plus'")
    shift = n if partner == "minus" else n + 1
    target = 2.0 * shift * math.pi * sp.hbar
    if target == 0.0:
        return 0.0

    def f(E: float) -> float:
        return action(cond, sp, E) - target

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
    return float(brentq(f, lo, hi, xtol=DEFAULT_TOL_E, rtol=8.881784197001252e-16, maxiter=200))


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


def _degeneracy_rows(
    by_order: Dict[int, Dict[int, float]], n_max: int, minus: SplitSeries
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
    by_order = {ordr: {n: solve_level(conds[ordr], sp, n) for n in range(deg_max + 1)}
                for ordr in orders}
    report.degeneracy = _degeneracy_rows(by_order, deg_max, conds[max(orders)].split)
    for n in range(n_max + 1):
        rec = LevelRecord(n, "minus", {ordr: by_order[ordr][n] for ordr in orders})
        if oracle_values is not None and n < len(oracle_values):
            rec.e_oracle = float(oracle_values[n])
        report.levels.append(rec)
    return report
