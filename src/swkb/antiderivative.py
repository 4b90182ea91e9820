"""Total-derivative certificates by exact linear solving over a graded ansatz.

d/dx raises the derivative weight (sum of k * exp_k) by exactly 1 and
preserves the scaling grade (symbol = 1 resp. 2, u and E = 2), so an
antiderivative of a bigraded component (w, g) can only live in the finite
set of canonical monomials with weight w - 1 and grade g.  Within that set
the u half-power is pinned by the grade once the E-exponent and symbol
count are chosen, which keeps the candidate bases small.

The ansatz derivatives are eliminated by ``DerivativeSweep``, a sparse
incremental echelon over exact rationals that ``reduction`` also uses for
its residual sweep.  Columns are taken in ``sort_key`` order and dependent
ones dropped, so a certificate is the unique combination of the first
independent columns: the solution a dense elimination with free variables
set to zero would give.

A returned certificate Y always satisfies differentiate(Y) == input
exactly (re-checked before returning); absence is reported only after the
exponent windows have been widened ``max_widen`` times.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .algebra import Expression, Monomial, Ring
from .errors import StructuralTheoremViolation
from .gaussian import GR_ONE, GaussianRational


def _partitions(n: int, max_part: int):
    """Partitions of n into parts in [1, max_part], as descending tuples."""
    if n == 0:
        yield ()
        return
    if max_part < 1:
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def bigrade_components(a: Expression) -> List[Expression]:
    """The parts of ``a`` homogeneous in (derivative weight, scaling grade);
    d/dx maps each bigrade to its own, so each part is integrated alone."""
    buckets: Dict[Tuple[int, int], list] = {}
    for m, c in a.terms.items():
        buckets.setdefault((m.weight(), m.gdeg(a.ring)), []).append((m, c))
    return [Expression(a.ring, pairs) for pairs in buckets.values()]


def candidate_monomials(a: Expression, widen: int = 0) -> List[Monomial]:
    """Ansatz monomials whose derivative can overlap ``a``.

    Windows: derivative orders up to the maximum in ``a``; E-exponents in
    [min_e-1, max_e+1]; u half-powers in [min_h-1, max_h+2]; both windows
    grow by ``widen`` on each side.  ``a`` must be homogeneous in
    (derivative weight, scaling grade): one bigraded component.
    """
    ring = a.ring
    (weight,) = a.weights()
    (gdeg,) = a.gdegs()
    wt = weight - 1
    if wt < 0:
        return []
    maxk = max(a.max_deriv_order(), 1)
    e_lo = a.min_e_degree() - 1 - widen
    e_hi = a.max_e_degree() + 1 + widen
    h_lo = a.min_h() - 1 - widen
    h_hi = a.max_h() + 2 + widen
    out: List[Monomial] = []
    for part in _partitions(wt, maxk):
        counts: Dict[int, int] = {}
        for k in part:
            counts[k] = counts.get(k, 0) + 1
        nfac = len(part)
        for a0 in range(ring.relation_power):
            derivs = dict(counts)
            if a0:
                derivs[0] = derivs.get(0, 0) + a0
            for e in range(e_lo, e_hi + 1):
                h = gdeg - ring.sym_gdeg * (nfac + a0) - 2 * e
                if h_lo <= h <= h_hi:
                    out.append(Monomial(derivs.items(), h=h, e=e))
    out.sort(key=lambda m: m.sort_key())
    return out


def _pivot_key(m: Monomial):
    """Elimination priority (larger sorts first = eliminated first).

    Preference for surviving monomials: no bare symbol factor, then as much
    first-derivative content as possible concentrated in a single higher
    derivative (pure f'^k and f' f^(k) forms survive; mixed middle-order
    products are rewritten away).  Deterministic tie-break on the full key.
    """
    a0 = m.deriv_exp(0)
    higher = sorted((k for k, a in m.derivs if k >= 2 for _ in range(a)), reverse=True)
    n_higher = len(higher)
    second = higher[1] if n_higher >= 2 else 0
    top = higher[0] if higher else 0
    return (a0, n_higher, second, -top, m.derivs, -m.h, m.e)


def _axpy(acc: dict, c: Fraction, src: dict) -> None:
    """acc += c * src in place, storing no zero entries."""
    for key, v in src.items():
        new = acc.get(key, 0) + c * v
        if new:
            acc[key] = new
        else:
            del acc[key]


class DerivativeSweep:
    """Sparse incremental echelon of the derivatives of ansatz monomials: the
    one exact elimination engine behind certificates and residual sweeps.

    The generators are taken in the order given (callers pass ``sort_key``
    order).  A generator whose derivative is zero or lies in the span of the
    earlier ones is dropped.  Each row is a real vector normalized at the
    pivot that ``_pivot_key`` picks, with its antiderivative kept as a
    combination over generator indices.
    """

    def __init__(self, ring: Ring, generators: List[Monomial]):
        self.ring = ring
        self.generators = generators
        self.rows: List[Tuple[Monomial, Dict[Monomial, Fraction], Dict[int, Fraction]]] = []
        for j, m in enumerate(generators):
            d = Expression(ring, [(m, GR_ONE)]).differentiate()
            # derivatives of a unit-coefficient monomial stay real
            vec = {mm: c.re for mm, c in d.terms.items()}
            taken = self._reduce(vec)
            if not vec:
                continue
            pivot = max(vec, key=_pivot_key)
            inv = 1 / vec[pivot]
            comb = {i: -c * inv for i, c in taken.items()}
            comb[j] = inv
            self.rows.append((pivot, {mm: c * inv for mm, c in vec.items()}, comb))

    def _reduce(self, vec: Dict[Monomial, Fraction]) -> Dict[int, Fraction]:
        """Clear every pivot from ``vec`` in place; return the combination of
        generators whose derivative was subtracted."""
        taken: Dict[int, Fraction] = {}
        for pivot, pvec, pcomb in self.rows:
            c = vec.get(pivot)
            if c is None:
                continue
            _axpy(vec, -c, pvec)
            _axpy(taken, c, pcomb)
        return taken

    def normal_form(self, x: Expression) -> Tuple[Expression, Expression]:
        """Return (kept, cert) with x = kept + differentiate(cert) and kept
        free of every pivot monomial.  The real and imaginary parts of x are
        reduced separately, since every row is real."""
        re = {m: c.re for m, c in x.terms.items() if c.re}
        im = {m: c.im for m, c in x.terms.items() if c.im}
        cert_re, cert_im = self._reduce(re), self._reduce(im)
        kept = Expression(
            self.ring, [(m, GaussianRational(re.get(m, 0), im.get(m, 0))) for m in re.keys() | im.keys()]
        )
        cert = Expression(
            self.ring,
            [
                (self.generators[i], GaussianRational(cert_re.get(i, 0), cert_im.get(i, 0)))
                for i in cert_re.keys() | cert_im.keys()
            ],
        )
        return kept, cert


def _solve_component(comp: Expression, widen: int) -> Optional[Expression]:
    kept, cert = DerivativeSweep(comp.ring, candidate_monomials(comp, widen=widen)).normal_form(comp)
    return cert if kept.is_zero() else None


def antiderivative(a: Expression, max_widen: int = 3) -> Optional[Expression]:
    """Return Y with differentiate(Y) == a, or None when the widened ansatz
    has no solution.  A returned Y is always a sound certificate."""
    if a.is_zero():
        return Expression.zero(a.ring)
    parts: List[Expression] = []
    for comp in bigrade_components(a):
        y = None
        for widen in range(max_widen + 1):
            y = _solve_component(comp, widen)
            if y is not None:
                break
        if y is None:
            return None
        parts.append(y)
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    if total.differentiate() != a:
        raise StructuralTheoremViolation("certificate failed re-check")
    return total


def is_total_derivative(a: Expression, max_widen: int = 3) -> bool:
    return antiderivative(a, max_widen=max_widen) is not None
