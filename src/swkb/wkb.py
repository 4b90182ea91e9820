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

from .algebra import DX, FIELD_BITS, Expression, PHI_RING, V_RING, key_fields
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
        self._products: Dict[Tuple[int, int], List[Expression]] = {(0, 0): one}

    def _product_series(self, syms: int, h: int) -> List[Expression]:
        """The substituted product of the V^(k)^a of ``syms``, the
        derivative fields of a packed key (``key_fields``), and of
        u_V^(h/2), built once per (syms, h) and shared by every term and
        every check that substitutes it.  A derivative product is its
        prefix with one factor of the highest order k fewer times one factor
        V^(k) -> (f^2)^(k) - i nu f^(k+1); u_V^(h/2) -> u^(h/2) (1 + hbar
        f'/u)^(h/2), binomially re-expanded, has the nu^j coefficient
        C(h/2, j) i^j f'^j u^(h/2 - j), the one before it times
        i (h/2 - j + 1)/j f'/u."""
        out = self._products.get((syms, h))
        if out is None:
            if syms and h:
                out = series_mul(self._product_series(syms, 0),
                                 self._product_series(0, h), self.order)
            elif h:
                ratio = Expression.sym(1, 1) * Expression.u_pow(-2)
                out = [Expression.u_pow(h)]
                for j in range(1, self.order + 1):
                    out.append(Expression.sum_of_products(
                        PHI_RING, [((0, Fraction(h - 2 * j + 2, 2 * j)), out[-1], ratio)]))
            else:
                k = (syms.bit_length() - 1) // FIELD_BITS
                while len(self._sq) <= k:
                    self._sq.append(self._sq[-1].differentiate())
                prefix = self._product_series(syms - (1 << k * FIELD_BITS), 0)
                sq, step = self._sq[k], Expression.sym(k + 1, 1)
                out = [Expression.sum_of_products(PHI_RING, [(1, prefix[0], sq)])]
                for n in range(1, self.order + 1):
                    out.append(Expression.sum_of_products(
                        PHI_RING, [(1, prefix[n], sq), ((0, -1), prefix[n - 1], step)]))
            self._products[syms, h] = out
        return out

    def apply(self, x: Expression) -> List[Expression]:
        return self.apply_orders({0: x})

    def apply_orders(self, pieces: Dict[int, Expression]) -> List[Expression]:
        """sum_m nu^m * apply(pieces[m]) as a nu-series truncated at
        ``order``: each term c E^e V-product of each piece, read off its
        packed key, weights the substituted product series, and each order
        is one accumulation."""
        terms = []
        for m, x in pieces.items():
            if x.ring != V_RING:
                raise ValueError("substitution applies to potential-ring expressions")
            for key, (re, im) in x.num.items():
                syms, h, e = key_fields(key)
                terms.append((m, (Fraction(re, x.den), Fraction(im, x.den)),
                              self._product_series(syms, h), Expression.e_pow(e)))
        return [Expression.sum_of_products(
                    PHI_RING, [(c, fac[n - m], E) for m, c, fac, E in terms if m <= n])
                for n in range(self.order + 1)]


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
        weight = _i_pow_times(-n, Fraction(1, n))
        ok = got[n] == Expression.sum_of_products(PHI_RING, [(weight, pw, DX)])
        report.add(n, ok, f"closed-form={ok}")
    return report


def substitution_series_check(sub: Substitution, w: HbarSeries, s: HbarSeries) -> CheckReport:
    """Substituted full potential-ring series ``w`` == supersymmetric series
    ``s``, exactly, order by order up to ``sub.order`` (solution uniqueness
    of the shared identity)."""
    order = sub.order
    total = sub.apply_orders(dict(enumerate(w.coeffs[:order + 1])))
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
    total = sub.apply_orders(simplify_wkb_condition(w, order))
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
