"""Total-derivative certificates by exact linear solving over a graded ansatz.

d/dx raises the derivative weight (sum of k * exp_k) by exactly 1 and
preserves the scaling grade (symbol = 1 resp. 2, u and E = 2), so an
antiderivative of a bigraded component (w, g) can only live in the finite
set of canonical monomials with weight w - 1 and grade g.  Within that set
the u half-power is pinned by the grade once the E-exponent and symbol
count are chosen, which keeps the candidate bases small.

The ansatz derivatives are eliminated by ``DerivativeSweep``, a sparse
incremental echelon of primitive integer rows (twice each derivative, so
the half-powers of u leave no denominator) keyed by the packed monomial
keys of ``algebra``, each augmented by the generator combination behind
it; rationals appear only in its results.  One windowed
sweep (generators, elimination, exact re-check) serves both
``antiderivative`` and ``reduction.residual_sweep``.  A sweep can be
extended by more generators: the new sweep shares the rows already
eliminated and eliminates only the rest, and since the pivot set and the
normal form of a span do not depend on the order of its generators, an
extended sweep answers exactly as a fresh sweep of the whole window.

d/dx is injective on every canonical monomial except the pure powers of
E, which the sweep drops as zero columns.  So a certificate is unique:
the window decides only whether the sweep finds it, never which one comes
back.  A returned certificate Y always satisfies differentiate(Y) ==
input exactly.  ``antiderivative`` sweeps one window, unwidened: every
certificate the package asks for lies in it, and one outside it is
reported absent.
"""

from __future__ import annotations

from copy import copy
from functools import lru_cache
from math import gcd, lcm
from typing import Dict, List, Optional, Tuple

from .algebra import (FIELD_BITS, KEY_ONE, _E_UNIT, _FIELD, _H_UNIT, _MOVE, _SYM_SHIFT, _SYM_UNIT,
                      _BIAS, Expression, Ring, _check_keys, _collect, decode, key_bigrade)
from .errors import StructuralTheoremViolation


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


def bigrade_components(a: Expression) -> List[Tuple[Tuple[int, int], List[int]]]:
    """The keys of ``a`` grouped by (derivative weight, scaling grade);
    d/dx maps each bigrade to its own, so each group gets its own ansatz."""
    groups: Dict[Tuple[int, int], List[int]] = {}
    for key in a.num:
        groups.setdefault(key_bigrade(key, a.ring.sym_gdeg), []).append(key)
    return list(groups.items())


def candidate_monomials(ring: Ring, bigrade: Tuple[int, int], keys: List[int], widen: int = 0,
                        min_e: Optional[int] = None) -> List[int]:
    """Packed keys of the ansatz monomials whose derivative can overlap the
    ``keys`` of one bigraded component, ``bigrade`` = (derivative weight,
    scaling grade).

    Windows: derivative orders up to the maximum in ``keys``; E-exponents
    in [min_e-1, max_e+1]; u half-powers in [min_h-1, max_h+2]; both
    windows grow by ``widen`` on each side.  ``min_e``, when set, also
    bounds the E-exponents from below.  Each key is the partition's field
    sum plus its bare-symbol, u and E fields, so no monomial tuple is built.
    """
    weight, gdeg = bigrade
    wt = weight - 1
    if wt < 0:
        return []
    es, hs, top = [], [], 0
    for key in keys:
        es.append((key & _FIELD) - _BIAS)
        hs.append(((key >> FIELD_BITS) & _FIELD) - _BIAS)
        top = max(top, (key >> _SYM_SHIFT).bit_length())
    maxk = max((top - 1) // FIELD_BITS, 1)  # the highest derivative order, at least 1
    e_lo = min(es) - 1 - widen
    if min_e is not None:
        e_lo = max(e_lo, min_e)
    e_hi = max(es) + 1 + widen
    h_lo = min(hs) - 1 - widen
    h_hi = max(hs) + 2 + widen
    out: List[int] = []
    for part in _partitions(wt, maxk):
        fields = KEY_ONE + sum(_SYM_UNIT << (k * FIELD_BITS) for k in part)
        for a0 in range(ring.relation_power):
            base = fields + a0 * _SYM_UNIT
            for e in range(e_lo, e_hi + 1):
                h = gdeg - ring.sym_gdeg * (len(part) + a0) - 2 * e
                if h_lo <= h <= h_hi:
                    out.append(base + h * _H_UNIT + e * _E_UNIT)
    _check_keys(out)
    return out


def _pivot_key(key: int):
    """Elimination priority (larger sorts first = eliminated first) of the
    packed monomial key ``key``: (a0, n_higher, second, -top, ds, -h, e),
    with ds its (order, exponent) pairs and a0, n_higher, second and top
    the bare-symbol exponent, the number of factors of order >= 2 and the
    two highest orders among them, read in one pass over the fields.

    Preference for surviving monomials: no bare symbol factor, then as much
    first-derivative content as possible concentrated in a single higher
    derivative (pure f'^k and f' f^(k) forms survive; mixed middle-order
    products are rewritten away).  Deterministic tie-break on the full key.
    """
    ds = []
    n_higher = second = top = k = 0
    d = key >> _SYM_SHIFT
    while d:
        a = d & _FIELD
        if a:
            ds.append((k, a))
            if k >= 2:
                # orders come ascending: k is the highest so far
                n_higher += a
                second = k if a >= 2 else top
                top = k
        d >>= FIELD_BITS
        k += 1
    a0 = ds[0][1] if ds and ds[0][0] == 0 else 0
    return (a0, n_higher, second, -top, tuple(ds),
            _BIAS - ((key >> FIELD_BITS) & _FIELD), (key & _FIELD) - _BIAS)


def _derivative_row(ring: Ring, m: int) -> Dict[int, int]:
    """2 * d/dx of the unit monomial of key ``m``, as integer coefficients
    keyed by packed keys.

    The factor 2 clears the h/2 of d u^(h/2) = (h/2) u^((h-2)/2) (-r f^(r-1) f').
    That term raises the bare-symbol exponent a0 by r - 1, so on a canonical
    monomial (a0 < r) the relation f^r = E - u applies at most once, when
    a0 >= 1.  Every other term moves one exponent from f^(k) to f^(k+1).
    """
    r = ring.relation_power
    a0 = (m >> _SYM_SHIFT) & _FIELD
    if a0 >= r:
        raise StructuralTheoremViolation(f"generator {decode(m)!r} is not canonical")
    row: Dict[int, int] = {}
    d, step = m >> _SYM_SHIFT, _MOVE
    while d:
        a = d & _FIELD
        if a:
            row[m + step] = 2 * a
        d >>= FIELD_BITS
        step <<= FIELD_BITS
    c = (_BIAS - ((m >> FIELD_BITS) & _FIELD)) * r
    if c:
        key = m + (_SYM_UNIT << FIELD_BITS)
        if a0:
            # f^(a0+r-1) = f^(a0-1) (E - u)
            key -= _SYM_UNIT
            terms = ((key - 2 * _H_UNIT + _E_UNIT, c), (key, -c))
        else:
            terms = ((key + (r - 1) * _SYM_UNIT - 2 * _H_UNIT, c),)
        for key, c in terms:
            new = row.get(key, 0) + c
            if new:
                row[key] = new
            else:
                del row[key]
    _check_keys(row)
    return row


class DerivativeSweep:
    """Sparse incremental echelon of the derivatives of ansatz monomials: the
    one exact elimination engine behind certificates and residual sweeps.

    The generators, packed keys, are taken in the order given; a generator
    whose derivative is zero or lies in the span of the earlier ones is
    dropped.  The order cannot change ``normal_form``.  Each row's pivot is
    the highest-priority monomial left in it after the earlier pivots are
    cleared, so the rows have distinct leading monomials, and the pivot set
    is the set of leading monomials of the span, whatever the order.
    ``kept`` is then the unique element of x + span free of every pivot,
    and ``cert`` is unique because d/dx is injective off the pure E-powers,
    which are dropped as zero rows.  Callers pass ascending key order,
    which keeps the fill-in low.  ``extended`` continues the same loop over
    more generators in a new sweep that shares these rows, which are never
    changed once inserted, so how a window is split between a sweep and
    its extension changes neither the pivot set nor ``normal_form``.

    Each row is (pivot, row), one primitive integer row of the augmented
    matrix [2 D(g) | I]: under the packed monomial keys, all >= 0, it holds
    the derivative part, positive at the pivot that ``_pivot_key`` picks
    (computed once per key in the sweep); under the key ~j = -j-1, which no
    monomial takes, it holds the coefficient of generator j, so the
    derivative part is the sum of those coefficients times the generators'
    ``_derivative_row``s.  Elimination is fraction-free, as in Bareiss's
    integer-preserving elimination, but keeps each row primitive instead of
    dividing by the previous pivot: a pivot is cleared by
    row <- d*row - c*prow, with c and d divided by their gcd first.
    """

    def __init__(self, ring: Ring, generators: List[int]):
        self.ring = ring
        self.generators: List[int] = []
        self.rows: List[Tuple[int, Dict[int, int]]] = []
        self.row_of: Dict[int, int] = {}  # pivot -> index of its row
        self._priority = lru_cache(maxsize=None)(_pivot_key)  # once per key in this sweep
        self._eliminate(generators)

    def extended(self, generators: List[int]) -> "DerivativeSweep":
        """A new sweep over ``self.generators`` followed by ``generators``
        that shares this one's rows and pivot priorities: rows are never
        changed once inserted, so this sweep stays valid, and the indices
        ``~j`` of the new generators continue after the held ones."""
        new = copy(self)
        new.generators, new.rows = list(self.generators), list(self.rows)
        new.row_of = dict(self.row_of)
        new._eliminate(generators)
        return new

    def _eliminate(self, generators: List[int]) -> None:
        """Append ``generators`` and insert the row of each whose derivative
        leaves the span of the rows before it."""
        start = len(self.generators)
        self.generators += generators
        for j, m in enumerate(generators, start):
            row = _derivative_row(self.ring, m)
            row[~j] = 1
            self._reduce(row)
            pivot = max((key for key in row if key >= 0), key=self._priority, default=None)
            if pivot is None:
                continue
            g = gcd(*row.values())
            if row[pivot] < 0:
                g = -g
            if g != 1:
                row = {key: c // g for key, c in row.items()}
            self.row_of[pivot] = len(self.rows)
            self.rows.append((pivot, row))

    def _reduce(self, row: Dict[int, int]) -> int:
        """Clear every pivot from ``row`` in place and return the product S
        of the factors d: each generator key ~i the row gains records the
        multiple of generator i's derivative row taken off, so afterwards
        the row's monomial part minus the sum of its generator coefficients
        times those derivative rows is S times what it was before.

        Rows are taken in echelon order, but only those whose pivot ``row``
        holds: bit i of ``pending`` marks row i, set for the pivots among
        ``row``'s keys and for those each subtraction adds.  Row i holds no
        pivot of an earlier row, so every bit set while row i is subtracted
        is above bit i and the steps are those of a scan over every row."""
        scale = 1
        row_of = self.row_of
        pending = 0
        for key in row:
            if key in row_of:
                pending |= 1 << row_of[key]
        while pending:
            low = pending & -pending
            pending ^= low
            pivot, prow = self.rows[low.bit_length() - 1]
            c = row.get(pivot)
            if c is None:
                continue
            d = prow[pivot]
            g = gcd(c, d)
            c //= g
            d //= g
            if d != 1:
                scale *= d
                for key in row:
                    row[key] *= d
            # row -= c * prow, storing no zero entries and marking the pivots it adds
            for key, v in prow.items():
                old = row.get(key)
                if old is None:
                    row[key] = -c * v
                    if key in row_of:
                        pending |= 1 << row_of[key]
                elif old == c * v:
                    del row[key]
                else:
                    row[key] = old - c * v
        return scale

    def normal_form(self, x: Expression) -> Tuple[Expression, Expression]:
        """Return (kept, cert) with x = kept + differentiate(cert) and kept
        free of every pivot monomial.  The integer numerators of the real
        and imaginary parts of x are reduced separately, since every row is
        real; with S the product of the factors of ``_reduce``, kept is the
        monomial part over den*S and, as each row is twice a derivative,
        cert is -2 times the generator part over den*S."""
        row_re = {key: re for key, (re, _) in x.num.items() if re}
        row_im = {key: im for key, (_, im) in x.num.items() if im}
        s_re, s_im = self._reduce(row_re), self._reduce(row_im)
        s = lcm(s_re, s_im)
        f_re, f_im, den, gens = s // s_re, s // s_im, x.den * s, self.generators
        kept = [(k, c * f_re, 0) for k, c in row_re.items() if k >= 0]
        kept += [(k, 0, c * f_im) for k, c in row_im.items() if k >= 0]
        cert = [(gens[~k], -2 * c * f_re, 0) for k, c in row_re.items() if k < 0]
        cert += [(gens[~k], 0, -2 * c * f_im) for k, c in row_im.items() if k < 0]
        return _collect(self.ring, kept, den), _collect(self.ring, cert, den)


def _window_generators(x: Expression, widen: int, min_e: Optional[int]) -> List[int]:
    """Packed keys of the ansatz monomials of every bigraded component of
    ``x``, in ascending key order.  ``min_e``: when set, only monomials with
    at least that E-exponent are kept, so sweeping preserves manifest
    E-divisibility of the input."""
    return sorted({key for bigrade, keys in bigrade_components(x)
                   for key in candidate_monomials(x.ring, bigrade, keys, widen, min_e)})


def _sweep(x: Expression, widen: int, min_e: Optional[int] = None,
           base: Optional[DerivativeSweep] = None
           ) -> Tuple[Expression, Expression, DerivativeSweep]:
    """(kept, cert, sweep) with x = kept + differentiate(cert), re-checked
    exactly, from the ansatz windows of ``x`` widened by ``widen``, and the
    sweep that gave them.  With ``base``, that sweep is ``base`` extended by
    the window's generators it does not hold; where they hold all of
    ``base``'s, the result is the window's own."""
    window = _window_generators(x, widen, min_e)
    if base is None:
        sweep = DerivativeSweep(x.ring, window)
    else:
        held = set(base.generators)
        sweep = base.extended([m for m in window if m not in held])
    kept, cert = sweep.normal_form(x)
    if kept + cert.differentiate() != x:
        raise StructuralTheoremViolation("certificate failed re-check")
    return kept, cert, sweep


def antiderivative(a: Expression) -> Optional[Expression]:
    """Return the Y free of pure E-powers with differentiate(Y) == a, or None
    when the unwidened ansatz window of ``a`` does not hold it."""
    kept, cert, _ = _sweep(a, 0)
    return cert if kept.is_zero() else None
