"""Total-derivative certificates by exact linear solving over a graded ansatz.

d/dx raises the derivative weight (sum of k * exp_k) by exactly 1 and
preserves the scaling grade (symbol = 1 resp. 2, u and E = 2), so an
antiderivative of a bigraded component (w, g) can only live in the finite
set of canonical monomials with weight w - 1 and grade g.  Within that set
the u half-power is pinned by the grade once the E-exponent and symbol
count are chosen, which keeps the candidate bases small.

The ansatz derivatives are eliminated by ``DerivativeSweep``, a sparse
incremental echelon of primitive integer rows (twice each derivative, so
the half-powers of u leave no denominator); rationals appear only in its
results.  One windowed sweep (generators, elimination, exact re-check)
serves both ``antiderivative`` and ``reduction.residual_sweep``.

d/dx is injective on every canonical monomial except the pure powers of
E, which the sweep drops as zero columns.  So a certificate is unique:
the window decides only whether the sweep finds it, never which one comes
back.  A returned certificate Y always satisfies differentiate(Y) ==
input exactly; absence is reported only after the windows have been
widened ``MAX_WIDEN`` times.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Dict, List, Optional, Tuple

from .algebra import Expression, Monomial, Ring, _collect, _reduced, _with_exp
from .errors import StructuralTheoremViolation

# how many times the ansatz windows are widened before a certificate is
# reported absent
MAX_WIDEN = 3


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
    d/dx maps each bigrade to its own, so each part gets its own ansatz."""
    sym = a.ring.sym_gdeg
    buckets: Dict[Tuple[int, int], dict] = {}
    for ds, group in a.num.items():
        weight, nsym = sum(k * b for k, b in ds), sym * sum(b for _, b in ds)
        for (h, e), xy in group.items():
            buckets.setdefault((weight, nsym + h + 2 * e), {}).setdefault(ds, {})[(h, e)] = xy
    return [_reduced(a.ring, num, a.den) for num in buckets.values()]


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


def _pivot_key(m: tuple):
    """Elimination priority (larger sorts first = eliminated first) of the
    monomial key ``m`` = (derivs, h, e).

    Preference for surviving monomials: no bare symbol factor, then as much
    first-derivative content as possible concentrated in a single higher
    derivative (pure f'^k and f' f^(k) forms survive; mixed middle-order
    products are rewritten away).  Deterministic tie-break on the full key.
    """
    ds, h, e = m
    a0 = ds[0][1] if ds and ds[0][0] == 0 else 0
    higher = sorted((k for k, a in ds if k >= 2 for _ in range(a)), reverse=True)
    n_higher = len(higher)
    second = higher[1] if n_higher >= 2 else 0
    top = higher[0] if higher else 0
    return (a0, n_higher, second, -top, ds, -h, e)


def _derivative_row(ring: Ring, m: tuple) -> Dict[tuple, int]:
    """2 * d/dx of the unit monomial ``m`` = (derivs, h, e), as integer
    coefficients keyed by (derivs, h, e).

    The factor 2 clears the h/2 of d u^(h/2) = (h/2) u^((h-2)/2) (-r f^(r-1) f').
    That term raises the bare-symbol exponent a0 by r - 1, so on a canonical
    monomial (a0 < r) the relation f^r = E - u applies at most once, when
    a0 >= 1.  Every other term moves one exponent from f^(k) to f^(k+1).
    """
    r = ring.relation_power
    ds, h, e = m
    a0 = ds[0][1] if ds and ds[0][0] == 0 else 0
    if a0 >= r:
        raise StructuralTheoremViolation(f"generator {m!r} is not canonical")
    terms = [((_with_exp(_with_exp(ds, k, -1), k + 1, 1), h, e), 2 * a) for k, a in ds]
    if h:
        c = -h * r
        derivs = _with_exp(ds, 1, 1)
        if a0:
            # f^(a0+r-1) = f^(a0-1) (E - u)
            derivs = _with_exp(derivs, 0, -1)
            terms += [((derivs, h - 2, e + 1), c), ((derivs, h, e), -c)]
        else:
            terms.append(((_with_exp(derivs, 0, r - 1), h - 2, e), c))
    row: Dict[tuple, int] = {}
    for key, c in terms:
        new = row.get(key, 0) + c
        if new:
            row[key] = new
        else:
            del row[key]
    return row


def _sub_multiple(acc: dict, c: int, src: dict) -> None:
    """acc -= c * src in place, storing no zero entries."""
    for key, v in src.items():
        new = acc.get(key, 0) - c * v
        if new:
            acc[key] = new
        else:
            del acc[key]


class DerivativeSweep:
    """Sparse incremental echelon of the derivatives of ansatz monomials: the
    one exact elimination engine behind certificates and residual sweeps.

    The generators are taken in the order given (callers pass ``sort_key``
    order).  A generator whose derivative is zero or lies in the span of the
    earlier ones is dropped.  Each row is (pivot, vec, comb): ``vec`` is a
    primitive integer vector keyed by (derivs, h, e) tuples, positive at the
    pivot that ``_pivot_key`` picks, and ``comb`` the integer combination of
    generator indices whose ``_derivative_row``s sum to it.  Elimination is fraction-free, as in
    Bareiss's integer-preserving elimination, but keeps each row primitive
    instead of dividing by the previous pivot: a pivot is cleared by
    vec <- d*vec - c*pvec, with c and d divided by their gcd first.
    """

    def __init__(self, ring: Ring, generators: List[Monomial]):
        self.ring = ring
        self.generators = generators
        self.rows: List[Tuple[tuple, Dict[tuple, int], Dict[int, int]]] = []
        self.row_of: Dict[tuple, int] = {}  # pivot -> index of its row
        for j, m in enumerate(generators):
            vec = _derivative_row(ring, m)
            comb = {j: 1}
            self._reduce(vec, comb)
            if not vec:
                continue
            pivot = max(vec, key=_pivot_key)
            g = gcd(*vec.values(), *comb.values())
            if vec[pivot] < 0:
                g = -g
            if g != 1:
                vec = {mm: c // g for mm, c in vec.items()}
                comb = {i: c // g for i, c in comb.items()}
            self.row_of[pivot] = len(self.rows)
            self.rows.append((pivot, vec, comb))

    def _reduce(self, vec: Dict[tuple, int], comb: Dict[int, int]) -> int:
        """Clear every pivot from ``vec`` in place, doing the same row steps
        on ``comb``, and return the product S of the factors d.  Afterwards
        vec - sum(comb[i] * derivative row of generator i) is S times what
        it was before.

        Rows are taken in echelon order, but only those whose pivot ``vec``
        holds: bit i of ``pending`` marks row i, set for the pivots among
        ``vec``'s keys and for those each subtraction adds.  Row i holds no
        pivot of an earlier row, so every bit set while row i is subtracted
        is above bit i and the steps are those of a scan over every row."""
        scale = 1
        row_of = self.row_of
        pending = 0
        for key in vec:
            if key in row_of:
                pending |= 1 << row_of[key]
        while pending:
            low = pending & -pending
            pending ^= low
            pivot, pvec, pcomb = self.rows[low.bit_length() - 1]
            c = vec.get(pivot)
            if c is None:
                continue
            d = pvec[pivot]
            g = gcd(c, d)
            c //= g
            d //= g
            if d != 1:
                scale *= d
                for key in vec:
                    vec[key] *= d
                for key in comb:
                    comb[key] *= d
            # vec -= c * pvec, as _sub_multiple, marking the pivots it adds
            for key, v in pvec.items():
                old = vec.get(key)
                if old is None:
                    vec[key] = -c * v
                    if key in row_of:
                        pending |= 1 << row_of[key]
                elif old == c * v:
                    del vec[key]
                else:
                    vec[key] = old - c * v
            _sub_multiple(comb, c, pcomb)
        return scale

    def normal_form(self, x: Expression) -> Tuple[Expression, Expression]:
        """Return (kept, cert) with x = kept + differentiate(cert) and kept
        free of every pivot monomial.  The integer numerators of the real
        and imaginary parts of x are reduced separately, since every row is
        real; with S the product of the factors of ``_reduce``, kept =
        vec/(den*S) and, as each row is twice a derivative, cert =
        -2*comb/(den*S)."""
        vec_re = {(ds, h, e): re for ds, group in x.num.items()
                  for (h, e), (re, _) in group.items() if re}
        vec_im = {(ds, h, e): im for ds, group in x.num.items()
                  for (h, e), (_, im) in group.items() if im}
        comb_re: Dict[int, int] = {}
        comb_im: Dict[int, int] = {}
        s_re, s_im = self._reduce(vec_re, comb_re), self._reduce(vec_im, comb_im)
        s = lcm(s_re, s_im)
        f_re, f_im, den = s // s_re, s // s_im, x.den * s
        kept = [(m, c * f_re, 0) for m, c in vec_re.items()]
        kept += [(m, 0, c * f_im) for m, c in vec_im.items()]
        cert = [(self.generators[i], -2 * c * f_re, 0) for i, c in comb_re.items()]
        cert += [(self.generators[i], 0, -2 * c * f_im) for i, c in comb_im.items()]
        return _collect(self.ring, kept, den), _collect(self.ring, cert, den)


def _window_generators(x: Expression, widen: int, min_e: Optional[int]) -> List[Monomial]:
    """Ansatz monomials of every bigraded component of ``x``, in ``sort_key``
    order.  ``min_e``: when set, only monomials with at least that E-exponent
    are kept, so sweeping preserves manifest E-divisibility of the input."""
    gens = {
        cand
        for comp in bigrade_components(x)
        for cand in candidate_monomials(comp, widen)
        if min_e is None or cand.e >= min_e
    }
    return sorted(gens, key=Monomial.sort_key)


def _sweep(x: Expression, widen: int, min_e: Optional[int] = None) -> Tuple[Expression, Expression]:
    """(kept, cert) with x = kept + differentiate(cert), re-checked exactly,
    from the ansatz windows of ``x`` widened by ``widen``."""
    kept, cert = DerivativeSweep(x.ring, _window_generators(x, widen, min_e)).normal_form(x)
    if kept + cert.differentiate() != x:
        raise StructuralTheoremViolation("certificate failed re-check")
    return kept, cert


def antiderivative(a: Expression) -> Optional[Expression]:
    """Return the Y free of pure E-powers with differentiate(Y) == a, or None
    when no window up to ``MAX_WIDEN`` holds it."""
    for widen in range(MAX_WIDEN + 1):
        kept, cert = _sweep(a, widen)
        if kept.is_zero():
            return cert
    return None
