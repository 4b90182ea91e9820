"""Maximally simplified quantization-condition integrands.

Even-order real parts are reduced in two independent ways:

* subtracting the exact derivative of (F * Q_2k), where Q_2k is built from
  the certificate sequence and F = f * u^(-1/2); this exhibits the overall
  factor of E syntactically;
* subtracting the matching coefficient of the log-fixed-point series, whose
  higher coefficients are all exact derivatives.

Both are followed by a deterministic residual sweep that removes any
remaining exact-derivative content, so the two routes must agree exactly,
not just modulo derivatives.  Every dropped piece carries a certificate Y
with differentiate(Y) equal to it.  Where both routes run (``verify``),
they share one elimination per order: the F*Q route's window lies in the
log-fixed-point route's, so the second route extends the first one's
sweep by the rest of its window.  The normal form is unique on a span, so
the shared sweep changes no result, and the agreement check keeps its
force: every normal form is re-checked exactly (kept + cert' == x, then
the bookkeeping identity), so a shared echelon cannot let a wrong one
through.

Each closed-form certificate is a coefficient of a log that
``series.series_log``, the one log recurrence, takes: ln(f + i S') for
Q_2k and the q_n, ln p-bar for the second route, ln R for the odd p_n.
Only ``verify`` builds the dropped parts' certificates and re-adds them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import DX, Expression, F_factor, Monomial, PHI_RING
from .antiderivative import DerivativeSweep, _sweep, antiderivative
from .errors import StructuralTheoremViolation
from .series import HbarSeries, LSequence, SplitSeries

HALF = Fraction(1, 2)


def divide_by_e(x: Expression, context: str = "") -> Expression:
    """Exact division by E (exponent shift).  Raises loudly when the
    numerator is not divisible, since that breaks a structural theorem."""
    if x.is_zero():
        return x
    if x.min_e_degree() < 1:
        raise StructuralTheoremViolation(
            f"expression not divisible by E{': ' + context if context else ''}"
        )
    return x.shift_e(-1)


def decompose(n: int, split: SplitSeries) -> Tuple[Expression, Expression]:
    """alpha_n, beta_n with p_n = F q_n + E alpha_n and q_n = -F p_n + E beta_n."""
    if n < 1:
        raise ValueError("decomposition starts at order 1")
    e_beta = Expression.sum_of_products(PHI_RING, [(1, split.q[n]), (1, F_factor(), split.p[n])])
    return _alpha(n, split), divide_by_e(e_beta, f"q_{n} + F p_{n}")


def _alpha(n: int, split: SplitSeries) -> Expression:
    """alpha_n of ``decompose``, the half that the reduction reads."""
    e_alpha = Expression.sum_of_products(PHI_RING, [(1, split.p[n]), (-1, F_factor(), split.q[n])])
    return divide_by_e(e_alpha, f"p_{n} - F q_{n}")


# -- deterministic residual sweep ---------------------------------------------


def residual_sweep(
    x: Expression, min_e: Optional[int] = None, base: Optional[DerivativeSweep] = None
) -> Tuple[Expression, Expression, DerivativeSweep]:
    """Remove the exact-derivative content of ``x`` deterministically.

    Returns (kept, cert, sweep) with x = kept + differentiate(cert); kept is
    the canonical quotient representative under the fixed basis ordering:
    the certificate sweep with its windows widened once, which ``sweep``
    holds.  ``min_e``: when set, only ansatz monomials with at least that
    E-exponent are used, so sweeping preserves manifest E-divisibility of
    the input.  ``base``: a sweep to extend by the generators it lacks.
    """
    return _sweep(x, 1, min_e, base)


# -- reduced corrections -------------------------------------------------------


@dataclass(frozen=True)
class ReducedCorrection:
    """One even-order quantization correction.

    The quantization term is sign_factor * hbar^order * contour-integral of
    ``integrand``.  ``certificate`` satisfies p_order - integrand =
    differentiate(certificate) exactly.
    """

    order: int
    integrand: Expression
    certificate: Expression

    @property
    def sign_factor(self) -> int:
        """(-1)^(order/2): the real value of (-i*hbar)^order with hbar^order
        pulled out."""
        return (-1) ** (self.order // 2)

    @property
    def e_degree(self) -> int:
        return 0 if self.integrand.is_zero() else self.integrand.min_e_degree()


def reduce_even_order(order: int, split: SplitSeries, lseq: LSequence,
                      alpha: Optional[Expression] = None,
                      sweeps: Optional[Dict[int, DerivativeSweep]] = None) -> ReducedCorrection:
    """Reduce the real part at an even order >= 2 by the F*Q subtraction.

    Q = (i/2) l[order-1] integrates the even imaginary part; subtracting
    (F Q)' from p_order leaves E * (alpha - f' Q u^(-3/2)), manifestly
    divisible by E.  The residual sweep then removes whatever
    exact-derivative content remains, keeping E-divisibility.  ``alpha``:
    alpha_order of ``decompose``, when the caller holds it.  ``sweeps``:
    a dict that receives the residual sweep under ``order``.
    """
    if order < 2 or order % 2:
        raise ValueError("even order >= 2 required")
    if lseq.order < order - 1:
        raise ValueError("certificate sequence not generated far enough")
    if alpha is None:
        alpha = _alpha(order, split)
    Q = lseq.l[order - 1].scale((0, HALF))
    e_fprime_u32 = Expression(PHI_RING, [(Monomial([(1, 1)], h=-3, e=1), 1)])
    raw = Expression.sum_of_products(PHI_RING, [(1, alpha, Expression.e_pow(1)),
                                                (-1, e_fprime_u32, Q)])
    corr = _swept_correction(order, split, raw, F_factor() * Q, sweeps=sweeps)
    if not corr.integrand.is_zero() and corr.integrand.min_e_degree() < 1:
        raise StructuralTheoremViolation(f"no overall E factor at order {order}")
    return corr


def reduce_via_pbar(
    order: int, split: SplitSeries, pbar: List[Expression], pbar_cert: Expression,
    base: Optional[DerivativeSweep] = None
) -> ReducedCorrection:
    """Reduce by subtracting the log-fixed-point coefficient instead.

    The subtraction removes exactly the terms the integration-by-parts
    route removes, and certificates are unique, so after the same residual
    sweep the result equals the F*Q route's correction exactly, certificate
    included (``swkb verify`` compares the integrands).  ``pbar_cert`` is
    the certificate of ``pbar[order]`` (unread at order 0); the bookkeeping
    identity re-checks it.  ``base``: the F*Q route's residual sweep of the
    same order, whose window lies in this route's, so that only the rest
    of the window is eliminated.
    """
    if order % 2:
        raise ValueError("even order required")
    if order == 0:
        zero = Expression.zero(split.p[0].ring)
        return ReducedCorrection(0, zero, zero)
    return _swept_correction(order, split, split.p[order] - pbar[order], pbar_cert, base=base)


def _swept_correction(
    order: int, split: SplitSeries, raw: Expression, base_cert: Expression,
    base: Optional[DerivativeSweep] = None, sweeps: Optional[Dict[int, DerivativeSweep]] = None
) -> ReducedCorrection:
    """The shared tail of both subtraction routes: ``raw`` = p_order minus
    differentiate(base_cert), residual-swept keeping E-divisibility from
    ``base`` when given, with the bookkeeping identity p_order - integrand
    = cert' re-checked.  ``sweeps`` receives the residual sweep."""
    integrand, resid, sweep = residual_sweep(raw, min_e=1, base=base)
    if sweeps is not None:
        sweeps[order] = sweep
    del sweep  # unless a caller keeps it, let go before the products below
    cert = base_cert + resid
    if not Expression.sum_of_products(
            PHI_RING, [(1, split.p[order]), (-1, integrand), (-1, cert, DX)]).is_zero():
        raise StructuralTheoremViolation(f"bookkeeping identity failed at order {order}")
    return ReducedCorrection(order, integrand, cert)


def quantization_integrands(
    max_order: int, split: SplitSeries, lseq: LSequence,
    alphas: Optional[Dict[int, Expression]] = None,
    sweeps: Optional[Dict[int, DerivativeSweep]] = None,
) -> Tuple[ReducedCorrection, ...]:
    """The reduced corrections up to max_order, the k-th of order 2k
    (order 0 is the classical term with certificate 0).  The first-order
    coefficient integrates to the constant pi, which converts the
    right-hand side from 2(n + 1/2) pi hbar to 2 n pi hbar; every other
    part dropped is a total derivative (``dropped_certificates``, which
    ``verify`` checks; ``require_odd_real_certificates`` searches the odd
    real parts where no such check runs).

    ``split`` is the split minus series and ``lseq`` its certificate
    sequence, generated at least to max_order and max_order - 1.
    ``alphas``: {n: alpha_n} of ``decompose``, when the caller holds them.
    ``sweeps``: a dict that receives each order's residual sweep, for the
    log-fixed-point route to extend; without it no sweep is kept.
    """
    if max_order % 2:
        raise ValueError("max_order must be even")
    if min(split.order, lseq.order + 1) < max_order:
        raise ValueError("series not generated far enough")
    corrections = [ReducedCorrection(0, Expression.u_pow(1), Expression.zero())]
    for n in range(2, max_order + 1, 2):
        corrections.append(reduce_even_order(n, split, lseq, (alphas or {}).get(n), sweeps))
    return tuple(corrections)


def require_odd_real_certificates(max_order: int, split: SplitSeries) -> None:
    """Raise unless each odd real part p_n, 3 <= n <= max_order, of the
    split minus series has a derivative certificate found by search: the
    guard of the runs that drop them without ``verify``'s reconstruction,
    which re-adds their closed forms +-(1/2) (ln R)_(n-1) exactly."""
    for n in range(3, max_order + 1, 2):
        if antiderivative(split.p[n]) is None:
            raise StructuralTheoremViolation(
                f"odd-order real part p_{n} has no derivative certificate"
            )


def dropped_certificates(
    max_order: int, lseq: LSequence, ln_r: List[Optional[Expression]]
) -> Dict[Tuple[int, str], Expression]:
    """{(n, part): Y} with Y' the part the condition drops at order n, for
    2 <= n <= max_order, in closed form: each imaginary part q_n has
    Y = (i/2) l[n-1], and each odd real part p_n, n >= 3, has
    Y = +-(1/2) ln_r[n-1] (+ at n = 3 mod 4), since p_n = +-I_n and
    I = (hbar/2) (ln R)', with ``ln_r`` the ``real_part_log`` of the same
    series.  Only ``reconstruction_residual`` checks them."""
    dropped: Dict[Tuple[int, str], Expression] = {}
    for n in range(2, max_order + 1):
        dropped[(n, "q")] = lseq.l[n - 1].scale((0, HALF))
        if n % 2:
            dropped[(n, "p")] = ln_r[n - 1].scale(HALF if n % 4 == 3 else -HALF)
    return dropped


def reconstruction_residual(s: HbarSeries, corrections: Sequence[ReducedCorrection],
                            dropped: Dict[Tuple[int, str], Expression]) -> List[Expression]:
    """Per-order residual of: series coefficient minus (kept integrand +
    certificate derivatives), through the order of the last correction,
    with the first order set aside as the pi constant.  All residuals must
    be zero."""
    by_order = {c.order: c for c in corrections}
    out = []
    for n in range(corrections[-1].order + 1):
        if n == 1:  # the pi-constant carrier, kept whole
            out.append(Expression.zero(s.ring))
            continue
        terms = [(1, s.coeffs[n])]
        if n in by_order:
            terms += [(-1, by_order[n].integrand), (-1, by_order[n].certificate, DX)]
        if (n, "q") in dropped:
            terms.append(((0, -1), dropped[(n, "q")], DX))
        if (n, "p") in dropped:
            terms.append((-1, dropped[(n, "p")], DX))
        out.append(Expression.sum_of_products(s.ring, terms))
    return out


def known_integrand_order2() -> Expression:
    """(E/8) f'^2 u^(-5/2): the known closed form of the second-order correction integrand."""
    return Expression(PHI_RING, [(Monomial([(1, 2)], h=-5, e=1), Fraction(1, 8))])


def known_integrand_order4() -> Expression:
    """(E/128) (49 E f'^4 u^(-11/2) - 140/3 f'^4 u^(-9/2) - 4 f' f''' u^(-7/2)),
    the known closed form of the fourth-order bracket (quantization sign -hbar^4)."""
    return Expression(PHI_RING, [
        (Monomial([(1, 4)], h=-11, e=2), Fraction(49, 128)),
        (Monomial([(1, 4)], h=-9, e=1), Fraction(-140, 3 * 128)),
        (Monomial([(1, 1), (3, 1)], h=-7, e=1), Fraction(-4, 128)),
    ])
