"""Series generation for both partner potentials and the derived sequences.

All series live in powers of nu = -i*hbar: the phase derivative expands as
sum_n nu^n * c_n with c_0 = u^(1/2).  Everything below is exact; the only
outputs are Expressions and boolean reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional

from .algebra import DX, Expression, F_factor, Monomial, PHI_RING, Ring, i_times
from .errors import StructuralTheoremViolation

HALF = Fraction(1, 2)


# -- truncated power-series helpers over Expression coefficients -------------


def series_mul(a: List[Expression], b: List[Expression], order: int) -> List[Expression]:
    return [Expression.sum_of_products(a[0].ring, [(1, a[k], b[n - k]) for k in range(n + 1)
                                                   if k < len(a) and n - k < len(b)])
            for n in range(order + 1)]


def series_log(a: List[Expression], lead_inv: Expression,
               order: int) -> List[Optional[Expression]]:
    """ln a = ln a_0 + sum_{m >= 1} nu^m l_m as a truncated series, where
    ``lead_inv`` is the exact inverse of a[0] (checked) and ``a`` holds at
    least order + 1 coefficients: for 1 <= m <= order,

        l_m = (1/m) a_0^(-1) (m a_m - sum_{k=1}^{m-1} k l_k a_(m-k)),

    the coefficient recursion of nu d/dnu ln a = nu a_nu / a, whose Euler
    operator kills ln a_0.  Index 0 is None: ln a_0 lies outside the ring,
    and (ln a)' = a_0' lead_inv + sum_{m >= 1} nu^m l_m'.  It is the
    package's only logarithm of a series."""
    ring = a[0].ring
    if a[0] * lead_inv != Expression.const(1, ring):
        raise StructuralTheoremViolation("lead_inv is not the exact inverse of a[0]")
    l: List[Optional[Expression]] = [None]
    for m in range(1, order + 1):
        inner = Expression.sum_of_products(
            ring, [(m, a[m])] + [(-k, l[k], a[m - k]) for k in range(1, m)])
        l.append(Expression.sum_of_products(ring, [(Fraction(1, m), lead_inv, inner)]))
    return l


# -- the main recursions ------------------------------------------------------


@dataclass(frozen=True)
class HbarSeries:
    """Coefficients c_n of nu^n (nu = -i*hbar) for one partner sign."""

    coeffs: List[Expression]
    sign: str  # 'minus' | 'plus'

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def ring(self) -> Ring:
        return self.coeffs[0].ring

    def riccati_residual(self, n: int) -> Expression:
        """Substitute the truncated series back into the order-n identity;
        zero exactly when the recursion is consistent at that order.  Each
        product c_k c_(n-k) is formed once, as in ``generate_series``: twice
        the k < n - k half, c_0 c_n included, plus the middle square."""
        ring = self.ring
        c = self.coeffs
        pairs = [(2, c[k], c[n - k]) for k in range((n + 1) // 2) if n - k <= self.order]
        if n % 2 == 0 and n // 2 <= self.order:
            pairs.append((1, c[n // 2], c[n // 2]))
        if n == 0:
            pairs.append((-1, Expression.u_pow(2, ring)))
        else:
            pairs.append((1, c[n - 1], DX))
        if n == 1 and ring.relation_power == 2:
            pairs.append(((0, -1 if self.sign == "minus" else 1), Expression.sym(1, 1, ring)))
        return Expression.sum_of_products(ring, pairs)


@dataclass(frozen=True)
class SplitSeries:
    """Real and imaginary parts p_n, q_n of each series coefficient."""

    p: List[Expression]
    q: List[Expression]

    @property
    def order(self) -> int:
        return len(self.p) - 1


@dataclass(frozen=True)
class LSequence:
    """l[n] for n >= 1 satisfies q_{n+1} = (i/2) * l[n]'.  Index 0 is unused:
    the order-0 member is a logarithm outside the ring whose only role is
    the constant pi contributed by the first-order imaginary part."""

    l: List[Optional[Expression]]

    @property
    def order(self) -> int:
        return len(self.l) - 1

    def derivatives(self) -> List[Optional[Expression]]:
        """l[n]' for 1 <= n <= order; index 0 is unused, as in ``l``."""
        return [None] + [x.differentiate() for x in self.l[1:]]


def generate_series(order: int, sign: str = "minus", ring: Ring = PHI_RING) -> HbarSeries:
    """Recursive generation: c_0 = u^(1/2) and, for n >= 1,

        c_n = (u^(-1/2)/2) * ( -sum_{k=1}^{n-1} c_k c_{n-k} - c_{n-1}'
                               [+ i f' at n = 1, sign-dependent] )

    obtained by matching nu^n in the Riccati identity for V_-/V_+.  The
    ring is pluggable so the same engine drives the plain series in the
    potential ring (which has no first-order source term).
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if sign not in ("minus", "plus"):
        raise ValueError("sign must be 'minus' or 'plus'")
    um12 = Expression.u_pow(-1, ring)
    coeffs = [Expression.u_pow(1, ring)]
    for n in range(1, order + 1):
        # each product c_k c_(n-k) once: twice the k < n - k half, plus
        # the middle square when n is even
        pairs = [(-2, coeffs[k], coeffs[n - k]) for k in range(1, (n + 1) // 2)]
        if n % 2 == 0:
            pairs.append((-1, coeffs[n // 2], coeffs[n // 2]))
        pairs.append((-1, coeffs[n - 1], DX))
        if n == 1 and ring.relation_power == 2:
            pairs.append(((0, 1 if sign == "minus" else -1), Expression.sym(1, 1, ring)))
        acc = Expression.sum_of_products(ring, pairs)
        coeffs.append(Expression.sum_of_products(ring, [(HALF, um12, acc)]))
    return HbarSeries(coeffs, sign)


def split_series(s: HbarSeries) -> SplitSeries:
    p, q = [], []
    for c in s.coeffs:
        re, im = c.split_real_imag()
        p.append(re)
        q.append(im)
    return SplitSeries(p, q)


def inverse_lead_factor() -> Expression:
    """(f + i u^(1/2))^(-1) realized exactly as (f - i u^(1/2)) / E."""
    return Expression(PHI_RING, [(Monomial([(0, 1)], e=-1), 1), (Monomial(h=1, e=-1), (0, -1))])


def _lead_log_argument(s: HbarSeries, order: int) -> List[Expression]:
    """Coefficients 0..order of f + i S' for the minus series ``s``."""
    if s.sign != "minus":
        raise ValueError("f + i S' is built from the minus series")
    if s.order < order:
        raise ValueError("series not generated far enough")
    g = [Expression.sym(0, 1, s.ring) + i_times(s.coeffs[0])]
    return g + [i_times(c) for c in s.coeffs[1:order + 1]]


def l_sequence(order: int, s: HbarSeries) -> LSequence:
    """l[n] for 1 <= n <= order: the ``series_log`` of f + i S', with the
    exact (f - i sqrt(u))/E inverse of the leading factor, so that

        l[n] = (i/n) (f + i sqrt(u))^(-1) [ n c_n - sum_{k=1}^{n-1} k l[k] c_{n-k} ].

    The order-0 logarithm never enters.  The defining identity
    q_{n+1} = (i/2) l[n]' is verified mechanically by ``check_l_identity``
    on the ``LSequence.derivatives``.
    """
    return LSequence(series_log(_lead_log_argument(s, order), inverse_lead_factor(), order))


def check_l_identity(l_prime: List[Optional[Expression]], split: SplitSeries, n: int) -> bool:
    """q_{n+1} == (i/2) l[n]' exactly, with ``l_prime`` the
    ``LSequence.derivatives`` of the l-sequence."""
    return l_prime[n].scale((0, HALF)) == split.q[n + 1]


def partner_via_log_identity(s: HbarSeries, l_prime: List[Optional[Expression]],
                             order: int) -> HbarSeries:
    """Plus-sign series from the minus one through the exact expansion

        d/dx ln(f + i S') = g_0'/g_0 + sum_{n >= 1} nu^n l[n]',

    with g_0 = f + i sqrt(u): order 1 adds the leading factor's own
    log-derivative, through the exact (f - i sqrt(u))/E inverse, and each
    order n >= 2 adds l[n-1]' from ``l_prime``, the ``LSequence.derivatives``
    of the l-sequence of ``s``."""
    if min(s.order, len(l_prime)) < order:
        raise ValueError("series not generated far enough")
    log_d = [_lead_log_argument(s, 0)[0].differentiate() * inverse_lead_factor()]
    log_d += l_prime[1:order]
    return HbarSeries([s.coeffs[0]] + [s.coeffs[n] + log_d[n - 1] for n in range(1, order + 1)],
                      "plus")


def partner_via_imag_shift(s: HbarSeries, split: SplitSeries, order: int) -> HbarSeries:
    """The term-by-term relation c_n^(+) = c_n - 2 i q_n."""
    out = [s.coeffs[0]]
    for n in range(1, order + 1):
        out.append(Expression.sum_of_products(s.ring, [(1, s.coeffs[n]), ((0, -2), split.q[n])]))
    return HbarSeries(out, "plus")


def pbar_series(order: int) -> List[Expression]:
    """Coefficients X_0..X_order of the fixed point of
    X = u^(1/2) - (nu/2) X'/X, expanded in nu.

    Times X the fixed point reads X^2 = u^(1/2) X - (nu/2) X', so that
    X_0 = u^(1/2) and, for n >= 1,

        X_n = u^(-1/2) (-sum_{k=1}^{n-1} X_k X_(n-k) - (1/2) X_(n-1)'),

    and no logarithm is taken.  Coefficients from order 2 on
    are total derivatives of ring elements; the order-1 coefficient equals
    the first-order real part and carries the same logarithmic constant,
    so it is exempt from certification (only even orders >= 2 ever enter
    the quantization integrands).
    """
    pb = [Expression.u_pow(1)]
    um12 = Expression.u_pow(-1)
    for n in range(1, order + 1):
        # each product X_k X_(n-k) once, as in ``generate_series``
        pairs = [(-2, pb[k], pb[n - k]) for k in range(1, (n + 1) // 2)]
        if n % 2 == 0:
            pairs.append((-1, pb[n // 2], pb[n // 2]))
        pairs.append((-HALF, pb[n - 1], DX))
        pb.append(um12 * Expression.sum_of_products(PHI_RING, pairs))
    return pb


def pbar_certificates(pb: List[Expression]) -> Dict[int, Expression]:
    """{n: Y_n} with Y_n' = pb[n] for 2 <= n < len(pb), in closed form.

    By the fixed point X_(m+1) = -(1/2) l_m' for the ``series_log``
    coefficients l of X, so Y_n = -(1/2) l_(n-1): one log recurrence gives
    every certificate, no ansatz search.  ``pbar_series`` takes no
    logarithm, so comparing Y_n' with pb[n] is a real check."""
    ell = series_log(pb, Expression.u_pow(-1), len(pb) - 2)
    return {n: ell[n - 1].scale(-HALF) for n in range(2, len(pb))}


# -- order-by-order verification reports --------------------------------------


@dataclass
class OrderReport:
    order: int
    ok: bool
    detail: str = ""


@dataclass
class CheckReport:
    entries: List[OrderReport] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def add(self, order: int, ok: bool, detail: str = ""):
        self.entries.append(OrderReport(order, ok, detail))


def generating_system_check(order: int, split: SplitSeries) -> CheckReport:
    """Order-by-order verification of the coupled first-order system for
    P = sum nu^n p_n, Q = sum nu^n q_n:

        nu P' = -P^2 + Q^2 + p_0^2,   -nu Q' = 2 P Q - nu f',

    plus the structural statement that P - p_0 - F Q is divisible by E at
    every order 1..``order``, on the parts ``split`` of the minus series
    (or a mutated copy of them, for negative controls).
    """
    p, q = split.p, split.q
    F = F_factor()
    report = CheckReport()
    for n in range(1, order + 1):
        ks = range(n + 1)
        r1 = Expression.sum_of_products(
            PHI_RING, [(1, p[n - 1], DX)] + [(1, p[k], p[n - k]) for k in ks]
            + [(-1, q[k], q[n - k]) for k in ks])
        r2_terms = [(1, q[n - 1], DX)] + [(2, p[k], q[n - k]) for k in ks]
        if n == 1:
            r2_terms.append((-1, Expression.sym(1, 1)))
        r2 = Expression.sum_of_products(PHI_RING, r2_terms)
        efq = Expression.sum_of_products(PHI_RING, [(1, p[n]), (-1, F, q[n])])
        e_ok = efq.is_zero() or efq.min_e_degree() >= 1
        ok = r1.is_zero() and r2.is_zero() and e_ok
        report.add(n, ok, f"eq1={r1.is_zero()} eq2={r2.is_zero()} e_factor={e_ok}")
    return report


_R_PICK = ("p", "q", "p", "q")
_R_SIGN = (1, 1, -1, -1)
_I_PICK = ("q", "p", "q", "p")
_I_SIGN = (1, -1, -1, 1)


def real_imag_hbar_series(split: SplitSeries, order: int):
    """R_m, I_m with S' = R + i I as a series in real powers of hbar:
    the factor (-i)^m distributes p_m/q_m over both with a 4-cycle of signs."""
    R, I = [], []
    for m in range(order + 1):
        src = split.p[m] if _R_PICK[m % 4] == "p" else split.q[m]
        R.append(src if _R_SIGN[m % 4] > 0 else -src)
        src = split.q[m] if _I_PICK[m % 4] == "q" else split.p[m]
        I.append(src if _I_SIGN[m % 4] > 0 else -src)
    return R, I


def real_part_log(split: SplitSeries, order: int) -> List[Optional[Expression]]:
    """l_1..l_order of ln R, with R the real part of S' as a series in
    hbar (``real_imag_hbar_series``): the ``series_log`` of R with the
    exact inverse u^(-1/2) of R_0 = u^(1/2)."""
    return series_log(real_imag_hbar_series(split, order)[0], Expression.u_pow(-1), order)


def imag_relation_check(order: int, split: SplitSeries,
                        ln_r: List[Optional[Expression]]) -> CheckReport:
    """Verify I = (hbar/2) (ln R)' order by order in hbar, up to ``order``,
    on the parts ``split`` of the minus series, with ``ln_r`` its
    ``real_part_log`` through at least order - 1.

    The order-0 entry is vacuous (I_0 = 0 and the relation starts at order
    1); order 1 reads the leading log-derivative R_0'/R_0 and each order
    m >= 2 the derivative of ln_r[m - 1], all exact ring identities.
    """
    if len(ln_r) < order:
        raise ValueError("ln R not taken far enough")
    R, I = real_imag_hbar_series(split, order)
    half_log_d = [Expression.sum_of_products(PHI_RING, [(HALF, R[0].differentiate(),
                                                         Expression.u_pow(-1))])]
    half_log_d += [Expression.sum_of_products(PHI_RING, [(HALF, x, DX)]) for x in ln_r[1:order]]
    report = CheckReport()
    report.add(0, I[0].is_zero(), "vacuous")
    for m in range(1, order + 1):
        report.add(m, I[m] == half_log_d[m - 1])
    return report
