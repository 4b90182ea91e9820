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
with differentiate(Y) equal to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .algebra import Expression, Monomial
from .antiderivative import DerivativeSweep, antiderivative, bigrade_components, candidate_monomials
from .errors import StructuralTheoremViolation
from .series import HbarSeries, LSequence, SplitSeries, i_times

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
    F = Expression.sym(0, 1) * Expression.u_pow(-1)
    alpha = divide_by_e(split.p[n] - F * split.q[n], f"p_{n} - F q_{n}")
    beta = divide_by_e(split.q[n] + F * split.p[n], f"q_{n} + F p_{n}")
    return alpha, beta


# -- deterministic residual sweep ---------------------------------------------


def _sweep_generators(x: Expression, min_e: Optional[int]) -> List[Monomial]:
    """Ansatz monomials of every bigraded component of ``x``, in ``sort_key``
    order.  ``min_e``: when set, only monomials with at least that E-exponent
    are kept, so sweeping preserves manifest E-divisibility of the input."""
    gens = {
        cand
        for comp in bigrade_components(x)
        for cand in candidate_monomials(comp, widen=1)
        if min_e is None or cand.e >= min_e
    }
    return sorted(gens, key=Monomial.sort_key)


def residual_sweep(
    x: Expression, min_e: Optional[int] = None
) -> Tuple[Expression, Expression]:
    """Remove the exact-derivative content of ``x`` deterministically.

    Returns (kept, cert) with x = kept + differentiate(cert); kept is the
    canonical quotient representative under the fixed basis ordering.
    """
    if x.is_zero():
        return x, Expression.zero(x.ring)
    kept, cert = DerivativeSweep(x.ring, _sweep_generators(x, min_e)).normal_form(x)
    if kept + cert.differentiate() != x:
        raise StructuralTheoremViolation("residual sweep certificate failed re-check")
    return kept, cert


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


def reduce_even_order(order: int, split: SplitSeries, lseq: LSequence) -> ReducedCorrection:
    """Reduce the real part at an even order >= 2 by the F*Q subtraction.

    Q = (i/2) l[order-1] integrates the even imaginary part; subtracting
    (F Q)' from p_order leaves E * (alpha - f' Q u^(-3/2)), manifestly
    divisible by E.  The residual sweep then removes whatever
    exact-derivative content remains, keeping E-divisibility.
    """
    if order < 2 or order % 2:
        raise ValueError("even order >= 2 required")
    if lseq.order < order - 1:
        raise ValueError("certificate sequence not generated far enough")
    alpha, _ = decompose(order, split)
    Q = i_times(lseq.l[order - 1]).scale(HALF)
    F = Expression.sym(0, 1) * Expression.u_pow(-1)
    fprime_u32 = Expression.sym(1, 1) * Expression.u_pow(-3)
    integrand, resid = residual_sweep((alpha - fprime_u32 * Q).shift_e(1), min_e=1)
    cert = F * Q + resid
    if split.p[order] - integrand != cert.differentiate():
        raise StructuralTheoremViolation(f"bookkeeping identity failed at order {order}")
    if not integrand.is_zero() and integrand.min_e_degree() < 1:
        raise StructuralTheoremViolation(f"no overall E factor at order {order}")
    return ReducedCorrection(order, integrand, cert)


def reduce_via_pbar(
    order: int,
    split: SplitSeries,
    pbar: HbarSeries,
    reference: Optional[ReducedCorrection] = None,
    pbar_cert: Optional[Expression] = None,
) -> ReducedCorrection:
    """Reduce by subtracting the log-fixed-point coefficient instead.

    The subtraction removes exactly the terms the integration-by-parts
    route removes; after the same residual sweep the result must agree
    with ``reference`` (the F*Q route) exactly.  ``pbar_cert`` is a
    certificate of ``pbar.coeffs[order]`` the caller already holds; it is
    computed when not given, and the bookkeeping identity re-checks it.
    """
    if order % 2:
        raise ValueError("even order required")
    ring = split.p[0].ring
    if order == 0:
        zero = Expression.zero(ring)
        return ReducedCorrection(0, zero, zero)
    raw = split.p[order] - pbar.coeffs[order]
    if pbar_cert is None:
        pbar_cert = antiderivative(pbar.coeffs[order])
    if pbar_cert is None:
        raise StructuralTheoremViolation(
            f"log-fixed-point coefficient at order {order} has no certificate"
        )
    kept, resid = residual_sweep(raw, min_e=1)
    cert = pbar_cert + resid
    if split.p[order] - kept != cert.differentiate():
        raise StructuralTheoremViolation(f"bookkeeping identity failed at order {order}")
    if reference is not None and kept != reference.integrand:
        raise StructuralTheoremViolation(
            f"subtraction routes disagree at order {order} after canonical sweep"
        )
    return ReducedCorrection(order, kept, cert)


def equivalent_mod_derivative(x: Expression, y: Expression) -> Optional[Expression]:
    """Certificate Y with differentiate(Y) = x - y, or None."""
    return antiderivative(x - y)


@dataclass(frozen=True)
class QuantizationCondition:
    """Everything on the left of the quantization condition up to max_order.

    corrections[k] covers order 2k (order 0 is the classical term with
    certificate 0).  The first-order coefficient always integrates to the
    constant pi, which converts the right-hand side from 2(n + 1/2) pi hbar
    to 2 n pi hbar.  ``dropped`` maps every other omitted (order, part) to
    its derivative certificate.  ``series`` and ``split`` are the ones the
    condition was built from and may run past max_order.
    """

    max_order: int
    corrections: List[ReducedCorrection]
    dropped: Dict[Tuple[int, str], Expression]
    series: HbarSeries
    split: SplitSeries


def quantization_integrands(
    max_order: int, s: HbarSeries, split: SplitSeries, lseq: LSequence
) -> QuantizationCondition:
    """The reduced even-order integrands plus certificates for everything
    dropped: odd-order real and imaginary parts (order >= 3), even-order
    imaginary parts, and the derivative parts of the even real parts.

    ``s`` is the minus series, ``split`` its parts and ``lseq`` its
    certificate sequence, generated at least to max_order, max_order and
    max_order - 1; only that prefix is read.
    """
    if max_order % 2:
        raise ValueError("max_order must be even")
    if min(s.order, split.order, lseq.order + 1) < max_order:
        raise ValueError("series not generated far enough")
    corrections = [ReducedCorrection(0, Expression.u_pow(1), Expression.zero())]
    dropped: Dict[Tuple[int, str], Expression] = {}
    for n in range(2, max_order + 1):
        if n % 2 == 0:
            corrections.append(reduce_even_order(n, split, lseq))
            dropped[(n, "q")] = i_times(lseq.l[n - 1]).scale(HALF)
        else:
            dropped[(n, "q")] = i_times(lseq.l[n - 1]).scale(HALF)
            p_cert = antiderivative(split.p[n])
            if p_cert is None:
                raise StructuralTheoremViolation(
                    f"odd-order real part p_{n} has no derivative certificate"
                )
            dropped[(n, "p")] = p_cert
    return QuantizationCondition(max_order, corrections, dropped, s, split)


def reconstruction_residual(qc: QuantizationCondition) -> List[Expression]:
    """Per-order residual of: series coefficient minus (kept integrand +
    certificate derivatives), with the first order set aside as the pi
    constant.  All residuals must be zero."""
    ring = qc.series.ring
    out = []
    by_order: Dict[int, Expression] = {c.order: c.integrand + c.certificate.differentiate()
                                       for c in qc.corrections}
    for n in range(qc.max_order + 1):
        acc = Expression.zero(ring)
        if n in by_order:
            acc = acc + by_order[n]
        if (n, "q") in qc.dropped:
            acc = acc + i_times(qc.dropped[(n, "q")].differentiate())
        if (n, "p") in qc.dropped:
            acc = acc + qc.dropped[(n, "p")].differentiate()
        if n == 1:
            acc = qc.series.coeffs[1]  # the pi-constant carrier, kept whole
        out.append(qc.series.coeffs[n] - acc)
    return out


def known_integrand_order2() -> Expression:
    """(E/8) f'^2 u^(-5/2): the known closed form of the second-order correction integrand."""
    return (Expression.e_pow(1) * Expression.sym(1, 2) * Expression.u_pow(-5)).scale(Fraction(1, 8))


def known_integrand_order4() -> Expression:
    """(E/128) (49 E f'^4 u^(-11/2) - 140/3 f'^4 u^(-9/2) - 4 f' f''' u^(-7/2)),
    the known closed form of the fourth-order bracket (quantization sign -hbar^4)."""
    e1 = Expression.e_pow(1)
    f1_4 = Expression.sym(1, 4)
    t1 = (Expression.e_pow(2) * f1_4 * Expression.u_pow(-11)).scale(Fraction(49, 128))
    t2 = (e1 * f1_4 * Expression.u_pow(-9)).scale(Fraction(-140, 3 * 128))
    t3 = (e1 * Expression.sym(1, 1) * Expression.sym(3, 1) * Expression.u_pow(-7)).scale(
        Fraction(-4, 128)
    )
    return t1 + t2 + t3
