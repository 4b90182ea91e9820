"""Plain semiclassical series in the potential ring, and its substitution
back into the superpotential ring.

The potential ring (V eliminated through V = E - u) hosts the ordinary
series; substituting V -> f^2 - hbar f' and re-expanding in hbar must
reproduce the supersymmetric series exactly order by order, and the
substituted *simplified* quantization integrands must match the
supersymmetric ones modulo certified total derivatives.  Those are the
checks bundled in :func:`wkb_series_and_substitute`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

from .algebra import Expression, PHI_RING, V_RING
from .antiderivative import antiderivative
from .errors import StructuralTheoremViolation
from .series import (
    CheckReport,
    HbarSeries,
    generate_series,
    series_mul,
)
from .reduction import residual_sweep

MAX_SUBSTITUTION_ORDER = 4


def _i_pow_times(k: int, q: Fraction) -> tuple:
    """i^k * q as an (re, im) pair."""
    return ((q, 0), (0, q), (-q, 0), (0, -q))[k % 4]


class Substitution:
    """Maps potential-ring expressions to nu-series of superpotential-ring
    expressions under V = f^2 - hbar f' (hbar = i nu), truncated at ``order``."""

    def __init__(self, order: int):
        self.order = order
        # the x-derivatives of f^2 = E - u, taken as far as a factor asks
        self._sq = [Expression.e_pow(1) - Expression.u_pow(2)]
        one = [Expression.const(1)] + [Expression.zero(PHI_RING)] * order
        self._products: Dict[tuple, List[Expression]] = {((), 0): one}

    def _product_series(self, derivs: tuple, h: int) -> List[Expression]:
        """The substituted product of V^(k)^a over the (k, a) pairs of
        ``derivs`` and of u_V^(h/2), built once per (derivs, h) and shared
        by every term and every check that substitutes it.  A derivative
        product is its prefix with one factor fewer times one factor
        V^(k) -> (f^2)^(k) - i nu f^(k+1); u_V^(h/2) -> u^(h/2) (1 + hbar
        f'/u)^(h/2), binomially re-expanded, has the nu^j coefficient
        C(h/2, j) i^j f'^j u^(h/2 - j), the one before it times
        i (h/2 - j + 1)/j f'/u."""
        out = self._products.get((derivs, h))
        if out is None:
            if derivs and h:
                out = series_mul(self._product_series(derivs, 0),
                                 self._product_series((), h), self.order)
            elif h:
                ratio = Expression.sym(1, 1) * Expression.u_pow(-2)
                out = [Expression.u_pow(h)]
                for j in range(1, self.order + 1):
                    out.append((out[-1] * ratio).scale((0, Fraction(h - 2 * j + 2, 2 * j))))
            else:
                k, a = derivs[-1]
                while len(self._sq) <= k:
                    self._sq.append(self._sq[-1].differentiate())
                prefix = self._product_series(derivs[:-1] + (((k, a - 1),) if a > 1 else ()), 0)
                factor = [self._sq[k], Expression.sym(k + 1, 1).scale((0, -1))]
                out = series_mul(prefix, factor, self.order)
            self._products[derivs, h] = out
        return out

    def apply(self, x: Expression) -> List[Expression]:
        if x.ring != V_RING:
            raise ValueError("substitution applies to potential-ring expressions")
        total = [Expression.zero(PHI_RING)] * (self.order + 1)
        for m, c in x.terms.items():
            fac = self._product_series(m.derivs, m.h)
            total = [t + f.scale(c).shift_e(m.e) for t, f in zip(total, fac)]
        return total


def wkb_series(order: int) -> HbarSeries:
    """The ordinary semiclassical series in the potential ring (no
    first-order source term; all coefficients have real coefficients)."""
    return generate_series(order, "minus", V_RING)


def simplify_wkb_condition(w: HbarSeries, max_order: int) -> Dict[int, Expression]:
    """Kept integrands of the potential-ring series ``w`` up to
    ``max_order``, by order: the canonical even-order integrands (order 0 is
    u_V^(1/2)) and the order-1 coefficient, kept whole as the carrier of the
    constant term; every other order is dropped as a certified derivative."""
    kept: Dict[int, Expression] = {0: w.coeffs[0], 1: w.coeffs[1]}
    for n in range(2, max_order + 1):
        if n % 2 == 0:
            kept[n] = residual_sweep(w.coeffs[n])[0]
        elif antiderivative(w.coeffs[n]) is None:
            raise StructuralTheoremViolation(
                f"odd-order coefficient {n} unexpectedly not a derivative"
            )
    return kept


def log_term_expansion_check(sub: Substitution) -> CheckReport:
    """Expand V'/(E - V) under the substitution and verify each correction
    is the stated closed-form total derivative:

        nu^n coefficient = (-i)^n (1/n) d/dx (f' / u)^n,   n >= 1,

    with the antiderivative certificate written down explicitly."""
    expr = Expression.sym(1, 1, V_RING) * Expression.u_pow(-2, V_RING)
    got = sub.apply(expr)
    report = CheckReport()
    lead = (Expression.sym(0, 1) * Expression.sym(1, 1) * Expression.u_pow(-2)).scale(2)
    report.add(0, got[0] == lead, "leading term 2 f f' / u")
    base = Expression.sym(1, 1) * Expression.u_pow(-2)
    pw = base
    for n in range(1, sub.order + 1):
        if n > 1:
            pw = pw * base
        closed = pw.scale(_i_pow_times(-n, Fraction(1, n)))
        ok = got[n] == closed.differentiate()
        report.add(n, ok, f"closed-form={ok}")
    return report


def _substitute_orders(sub: Substitution, pieces: Dict[int, Expression]) -> List[Expression]:
    """sum_m nu^m * sub(pieces[m]) as a nu-series truncated at ``sub.order``."""
    total = [Expression.zero(PHI_RING) for _ in range(sub.order + 1)]
    for m, expr in pieces.items():
        piece = sub.apply(expr)
        for n in range(m, sub.order + 1):
            total[n] = total[n] + piece[n - m]
    return total


def substitution_series_check(sub: Substitution, w: HbarSeries, s: HbarSeries) -> CheckReport:
    """Substituted full potential-ring series ``w`` == supersymmetric series
    ``s``, exactly, order by order up to ``sub.order`` (solution uniqueness
    of the shared identity)."""
    order = sub.order
    total = _substitute_orders(sub, dict(enumerate(w.coeffs[:order + 1])))
    report = CheckReport()
    for n in range(order + 1):
        report.add(n, total[n] == s.coeffs[n])
    return report


def substituted_condition_check(sub: Substitution, w: HbarSeries, s: HbarSeries) -> CheckReport:
    """Substitute the *simplified* condition of the potential-ring series
    ``w`` and compare with the supersymmetric series ``s`` up to
    ``sub.order``: the order-n difference must be a certified total
    derivative (exactly zero at orders 0 and 1)."""
    order = sub.order
    total = _substitute_orders(sub, simplify_wkb_condition(w, order))
    report = CheckReport()
    for n in range(order + 1):
        diff = total[n] - s.coeffs[n]
        if n <= 1:
            report.add(n, diff.is_zero(), "exact")
        else:
            cert = antiderivative(diff)
            report.add(n, cert is not None, "certified-derivative")
    return report


def wkb_series_and_substitute(order: int,
                              s: HbarSeries) -> Tuple[CheckReport, CheckReport, CheckReport]:
    """The three substitution checks against the minus series ``s``, as
    (series match, log term, simplified condition), bounded at order 4 (the potential-ring condition is only
    simplified that far here).  The potential-ring series and the
    substitution are built once and shared by the three checks."""
    if order > MAX_SUBSTITUTION_ORDER:
        raise ValueError(
            f"substitution overflow: order {order} exceeds the configured bound "
            f"{MAX_SUBSTITUTION_ORDER}"
        )
    sub = Substitution(order)
    w = wkb_series(order)
    return (substitution_series_check(sub, w, s), log_term_expansion_check(sub),
            substituted_condition_check(sub, w, s))
