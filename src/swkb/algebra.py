"""Exact canonical algebra over the differential ring used by the series.

Ring generators: a symbol family f, f', f'', ... (f is the superpotential in
the main ring), half-integer powers of u = E - f^r, and integer powers of E
(both signs), with Gaussian-rational coefficients.  The defining relation
f^r = E - u is applied during normalization, so the bare-symbol exponent of
every canonical monomial is < r.

Two ring flavours are used:

* the superpotential ring (r = 2, relation phi^2 = E - u), carrying the
  whole quantization-series machinery;
* an auxiliary potential ring (r = 1, relation V = E - u), in which V itself
  is eliminated entirely; it hosts the plain semiclassical series that gets
  substituted back into the main ring.

A monomial f^(k)-powers * u^(h/2) * E^e is stored as one packed int key
(the packed exponent vectors of Monagan & Pearce, "Polynomial division
using dynamic arrays, heaps, and packed exponent vectors", CASC 2007): a
field of ``FIELD_BITS`` bits each for e and h, stored with the bias
2^(FIELD_BITS-2) added, then one field per derivative order k holding the
exponent of f^(k).  The top bit of every field stays clear in a valid key,
so a product (k1 + k2 - ``KEY_ONE``), a derivative (adding a constant)
or a fold that leaves a field's range sets it, and raises ``OverflowError``
instead of carrying into the next field.  Python ints are unbounded, so
the derivative orders are too.  ``encode`` and ``decode`` convert between
a key and the ``Monomial`` tuple (derivs, h, e) used for output.

An ``Expression`` stores Gaussian-integer numerators over one positive
denominator: {key: (x, y)} over ``den``, canonical when gcd(den, every x
and y) == 1 (the representation of FLINT's ``fmpq_poly``), so equal
expressions hold equal data.  Every operation runs on these integers.
Negation and E-shifts map numerators one to one.  Sums rescale both
operands to the lcm of their denominators and merge, and scaling
multiplies every numerator; both then divide out the common factor left
with the denominator.  Products, derivatives and ``Expression(ring, raw)``
sum every term product (or Leibniz term, doubled so that h/2 stays an
integer) as an int pair per raw key, and one fold applies the relation,
merges and divides out the common factor.  ``Expression.sum_of_products``
is the one product loop: it sums w*a*b over weighted pairs, so a whole
series convolution folds once, and ``a * b`` is its one-triple case.
``terms`` is a read-only {Monomial: (re, im)} view of ``Fraction`` pairs
for output, decoded on each access.  At the edges a coefficient is an
``int``, a ``Fraction`` or an (re, im) pair of them; a float raises
``TypeError``.

Everything here is immutable and pure; no floating point enters except in
``evaluate``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain
from math import comb, gcd, lcm
from operator import itemgetter, or_
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .errors import PoleError, UndefinedDegreeError

SQRT_TOL = 1e-9  # relative mismatch allowed between sqrt_u**2 and u in ``evaluate``

_ZERO = Fraction(0)  # the absent part of every ``terms`` coefficient


@dataclass(frozen=True)
class Ring:
    """Identifies the relation f^r = E - u and display conventions."""

    name: str
    relation_power: int   # r: bare-symbol exponents are reduced below this
    deriv_prefix: str     # text-form prefix for the k-th derivative symbol

    @property
    def sym_gdeg(self) -> int:
        # scaling degree of one symbol factor, with [u] = [E] = 2
        return 2 // self.relation_power


PHI_RING = Ring("phi", 2, "d")
V_RING = Ring("V", 1, "D")


class Monomial(tuple):
    """Canonical monomial: product of derivative symbols, u^(h/2), E^e.

    The decoded form of a packed key, as the plain ``(derivs, h, e)`` tuple:
    ``terms`` and the text, JSON and LaTeX forms read it, ``encode`` packs
    it.  ``derivs`` is a sorted tuple of (order k >= 0, exponent > 0)
    pairs; the order-0 exponent is < relation_power in canonical form.
    ``h`` is the integer such that the monomial carries u^(h/2); ``e`` the
    E-exponent.
    """

    __slots__ = ()

    def __new__(cls, derivs: Iterable[Tuple[int, int]] = (), h: int = 0, e: int = 0):
        ds = tuple(sorted((int(k), int(a)) for k, a in derivs if a != 0))
        for k, a in ds:
            if k < 0 or a < 0:
                raise ValueError("derivative orders and exponents must be >= 0")
        return tuple.__new__(cls, (ds, int(h), int(e)))

    derivs = property(itemgetter(0))
    h = property(itemgetter(1))
    e = property(itemgetter(2))

    def sort_key(self):
        return (self.e, self.h, self.derivs)

    def __repr__(self):
        return f"Monomial({self.derivs!r}, h={self.h}, e={self.e})"


_MONO_ONE = Monomial()


# -- packed monomial keys --------------------------------------------------------

FIELD_BITS = 12
_FIELD = (1 << FIELD_BITS) - 1    # mask of one field
_SPARE = 1 << (FIELD_BITS - 1)    # a field's top bit, clear in every valid key
_BIAS = 1 << (FIELD_BITS - 2)     # h and e are stored plus _BIAS: -_BIAS <= h, e < _BIAS
_E_UNIT = 1
_H_UNIT = 1 << FIELD_BITS
_SYM_SHIFT = 2 * FIELD_BITS       # the f^(k) field starts at bit _SYM_SHIFT + k * FIELD_BITS
_SYM_UNIT = 1 << _SYM_SHIFT       # f
_MOVE = _FIELD << _SYM_SHIFT      # f -> f': one exponent moves up one field
KEY_ONE = _BIAS * (_H_UNIT + _E_UNIT)   # the key of the monomial 1


def encode(m: Tuple[tuple, int, int]) -> int:
    """The packed key of the monomial ``m`` = (derivs, h, e)."""
    derivs, h, e = m
    if not (-_BIAS <= h < _BIAS and -_BIAS <= e < _BIAS):
        raise OverflowError(f"u or E exponent of {m!r} outside [-{_BIAS}, {_BIAS})")
    key = KEY_ONE + h * _H_UNIT + e * _E_UNIT
    for k, a in derivs:
        if k < 0 or a < 0:
            raise ValueError("derivative orders and exponents must be >= 0")
        if a >= _SPARE:
            raise OverflowError(f"exponent {a} of the order-{k} symbol is not below {_SPARE}")
        key += a << (_SYM_SHIFT + k * FIELD_BITS)
    _check_keys((key,))  # an order listed twice may still fill its field
    return key


def decode(key: int) -> Monomial:
    """The ``Monomial`` of a packed key."""
    derivs, d, k = [], key >> _SYM_SHIFT, 0
    while d:
        a = d & _FIELD
        if a:
            derivs.append((k, a))
        d >>= FIELD_BITS
        k += 1
    return tuple.__new__(Monomial, (tuple(derivs), ((key >> FIELD_BITS) & _FIELD) - _BIAS,
                                    (key & _FIELD) - _BIAS))


def key_bigrade(key: int, sym_gdeg: int) -> Tuple[int, int]:
    """(derivative weight sum k * a_k, scaling grade sym_gdeg * sum a_k + h
    + 2 e) of a key, with ``sym_gdeg`` the grade of one symbol factor."""
    weight = count = k = 0
    d = key >> _SYM_SHIFT
    while d:
        a = d & _FIELD
        weight += k * a
        count += a
        d >>= FIELD_BITS
        k += 1
    h, e = ((key >> FIELD_BITS) & _FIELD) - _BIAS, (key & _FIELD) - _BIAS
    return weight, sym_gdeg * count + h + 2 * e


@lru_cache(maxsize=None)
def _spare_bits(fields: int) -> int:
    """The top bit of each of the lowest ``fields`` fields."""
    return _SPARE * ((1 << fields * FIELD_BITS) - 1) // _FIELD


def _check_keys(keys: Iterable[int]) -> None:
    """Raise unless every key is valid.  A field whose exact value lands in
    [-2^(FIELD_BITS-1), 2^FIELD_BITS) but outside its range holds its top
    bit (a negative value borrows one from the fields above, and at the top
    of the key makes it negative), so one OR over the keys shows it.  The
    sum of two valid keys less ``KEY_ONE``, and any step of a few units per
    field, stays in that window."""
    union = reduce(or_, keys, 0)
    if union < 0 or union & _spare_bits(union.bit_length() // FIELD_BITS + 1):
        raise OverflowError("a monomial exponent left its packed field")


class Expression:
    """Exact sum of canonical monomials with Gaussian-rational coefficients.

    Stored as Gaussian-integer numerators over one positive denominator
    ``den``: ``num`` maps each packed monomial key to (x, y), the
    coefficient of its monomial being (x + i y)/den.  Instances are
    normalized on construction (defining relation applied, zero terms
    dropped, gcd(den, every x and y) == 1) and treated as immutable, so
    equality compares the normalized data.
    """

    __slots__ = ("ring", "den", "num")

    def __init__(self, ring: Ring, raw_terms: Iterable[tuple] = ()):
        terms = [(encode(m), *_parts(c)) for m, c in raw_terms]
        d = lcm(*(q.denominator for _, re, im in terms for q in (re, im)))
        x = _collect(ring, [(key, _over(re, d), _over(im, d)) for key, re, im in terms], d)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "den", x.den)
        object.__setattr__(self, "num", x.num)

    def __setattr__(self, name, value):
        raise AttributeError("Expression is immutable")

    @property
    def terms(self) -> Mapping[Monomial, Tuple[Fraction, Fraction]]:
        """Read-only {Monomial: (re, im)} map of the terms, each part a
        ``Fraction``, decoded on each access for output and inspection;
        arithmetic reads ``num``."""
        d = self.den
        return MappingProxyType({
            decode(key): (Fraction(x, d) if x else _ZERO, Fraction(y, d) if y else _ZERO)
            for key, (x, y) in self.num.items()
        })

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(ring: Ring = PHI_RING) -> "Expression":
        return Expression(ring)

    @staticmethod
    def const(c, ring: Ring = PHI_RING) -> "Expression":
        return Expression(ring, [(_MONO_ONE, c)])

    @staticmethod
    def sym(k: int = 0, exp: int = 1, ring: Ring = PHI_RING) -> "Expression":
        """The k-th derivative symbol raised to ``exp`` (k = 0 is f itself)."""
        return Expression(ring, [(Monomial([(k, exp)]), 1)])

    @staticmethod
    def u_pow(h: int, ring: Ring = PHI_RING) -> "Expression":
        """u^(h/2); h is the half-power numerator and may be negative."""
        return Expression(ring, [(Monomial(h=h), 1)])

    @staticmethod
    def e_pow(e: int, ring: Ring = PHI_RING) -> "Expression":
        return Expression(ring, [(Monomial(e=e), 1)])

    # -- ring arithmetic -------------------------------------------------

    def __add__(self, other: "Expression") -> "Expression":
        return self._plus(other, 1)

    def __sub__(self, other: "Expression") -> "Expression":
        return self._plus(other, -1)

    def _plus(self, other: "Expression", sign: int) -> "Expression":
        """self + sign*other over the lcm of the denominators.  Only a prime
        with the same power in both denominators can divide every sum, so
        the common factor left to divide out divides gcd(den, other.den)."""
        _check(self.ring, other)
        d1, d2 = self.den, other.den
        g = gcd(d1, d2)
        s1, s2 = d2 // g, d1 // g * sign
        num = dict(self.num) if s1 == 1 else _times(self.num, s1)
        for key, (x, y) in other.num.items():
            xy = num.get(key)
            if xy is None:
                num[key] = (x * s2, y * s2)
            else:
                x, y = xy[0] + x * s2, xy[1] + y * s2
                if x or y:
                    num[key] = (x, y)
                else:
                    del num[key]
        return _reduced(self.ring, num, d1 // g * d2, g)

    def __neg__(self) -> "Expression":
        return _make(self.ring, _times(self.num, -1), self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, tuple)):
            return self.scale(other)
        return Expression.sum_of_products(self.ring, [(1, self, other)])

    @staticmethod
    def sum_of_products(ring: Ring, triples: Iterable[tuple]) -> "Expression":
        """sum w*a*b over (w, a, b) triples with rational weights w, the one
        product loop of the ring: every term product is summed as an int
        pair per raw key k1 + k2 - KEY_ONE over the lcm D of the triples'
        denominators, and one fold follows."""
        scaled = []
        for w, a, b in triples:
            _check(ring, a)
            _check(ring, b)
            w = Fraction(w)
            scaled.append((w.numerator, w.denominator * a.den * b.den, a.num, b.num))
        d = lcm(*(dd for _, dd, _, _ in scaled))
        raw: Dict[int, list] = {}
        get = raw.get
        for w, dd, left, right in scaled:
            w *= d // dd
            right = right.items()
            for k1, (x1, y1) in left.items():
                k1 -= KEY_ONE
                x1 *= w
                y1 *= w
                for k2, (x2, y2) in right:
                    acc = get(k1 + k2)
                    if acc is None:
                        raw[k1 + k2] = [x1 * x2 - y1 * y2, x1 * y2 + y1 * x2]
                    else:
                        acc[0] += x1 * x2 - y1 * y2
                        acc[1] += x1 * y2 + y1 * x2
        return _fold(ring, raw, d)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, tuple)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "Expression":
        re, im = _parts(c)
        if not (re or im):
            return Expression(self.ring)
        # c = (a + i b)/cd; a product of nonzero Gaussian rationals is nonzero
        cd = lcm(re.denominator, im.denominator)
        a, b = _over(re, cd), _over(im, cd)
        num = {key: (x * a - y * b, x * b + y * a) for key, (x, y) in self.num.items()}
        return _reduced(self.ring, num, self.den * cd)

    def __eq__(self, other):
        return (
            isinstance(other, Expression)
            and self.ring == other.ring
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        raise TypeError("Expression is not hashable")

    def is_zero(self) -> bool:
        return not self.num

    # -- calculus --------------------------------------------------------

    def differentiate(self) -> "Expression":
        """d/dx with E constant: d f^(k) = f^(k+1), d u^(h/2) follows from
        u' = -r f^(r-1) f'; Leibniz terms are doubled so h/2 stays integral.
        Each term moves one exponent up a field per f^(k) it holds, and the
        u term adds one constant to its key."""
        r = self.ring.relation_power
        u_step = (r - 1) * _SYM_UNIT + (_SYM_UNIT << FIELD_BITS) - 2 * _H_UNIT  # f^(r-1) f' / u
        raw: Dict[int, list] = {}
        for key, (x, y) in self.num.items():
            d, step = key >> _SYM_SHIFT, _MOVE
            while d:
                a = 2 * (d & _FIELD)
                if a:
                    _accumulate(raw, key + step, a * x, a * y)
                d >>= FIELD_BITS
                step <<= FIELD_BITS
            # 2 (h/2) u^((h-2)/2) * (-r f^(r-1) f')
            c = (_BIAS - ((key >> FIELD_BITS) & _FIELD)) * r
            if c:
                _accumulate(raw, key + u_step, c * x, c * y)
        return _fold(self.ring, raw, 2 * self.den)

    def diff_E(self) -> "Expression":
        """d/dE with x held fixed: the symbols do not move, u' = 1, so
        d u^(h/2) = (h/2) u^((h-2)/2) and d E^e = e E^(e-1), doubled over
        twice the denominator."""
        raw: Dict[int, list] = {}
        for key, (x, y) in self.num.items():
            e, h = (key & _FIELD) - _BIAS, ((key >> FIELD_BITS) & _FIELD) - _BIAS
            if e:
                _accumulate(raw, key - _E_UNIT, 2 * e * x, 2 * e * y)
            if h:
                _accumulate(raw, key - 2 * _H_UNIT, h * x, h * y)
        return _fold(self.ring, raw, 2 * self.den)

    def split_real_imag(self) -> Tuple["Expression", "Expression"]:
        """(re, im) with all symbols treated as real; self == re + i*im.
        The monomials are already canonical, so no fold runs."""
        re = {key: (x, 0) for key, (x, _) in self.num.items() if x}
        im = {key: (y, 0) for key, (_, y) in self.num.items() if y}
        return _reduced(self.ring, re, self.den), _reduced(self.ring, im, self.den)

    # -- structure queries -------------------------------------------------

    def _exponents(self, shift: int, what: str) -> List[int]:
        """The E-exponents (shift 0) or u half-powers (shift FIELD_BITS) of
        the terms; the zero expression has none, which ``what`` names in the
        error."""
        if not self.num:
            raise UndefinedDegreeError(f"{what} of the zero expression")
        return [((key >> shift) & _FIELD) - _BIAS for key in self.num]

    def min_e_degree(self) -> int:
        return min(self._exponents(0, "min_e_degree"))

    def u_parity(self) -> str:
        """'all-odd-half' | 'all-even' | 'mixed' over the u half-powers."""
        parities = {h % 2 for h in self._exponents(FIELD_BITS, "u_parity")}
        if parities == {1}:
            return "all-odd-half"
        if parities == {0}:
            return "all-even"
        return "mixed"

    def shift_e(self, delta: int) -> "Expression":
        """Multiply by E^delta (exact exponent shift)."""
        es = [(key & _FIELD) + delta for key in self.num]
        if es and (min(es) < 0 or max(es) >= _SPARE):
            raise OverflowError("E exponent left its packed field")
        return _make(self.ring, {key + delta: xy for key, xy in self.num.items()}, self.den)

    def term_count(self) -> int:
        return len(self.num)

    def sorted_terms(self) -> List[Tuple[Monomial, Tuple[Fraction, Fraction]]]:
        return sorted(self.terms.items(), key=lambda mc: mc[0].sort_key())

    # -- numerics ----------------------------------------------------------

    def evaluate(self, deriv_values, u, sqrt_u, e_value):
        """Evaluate at a point using the caller's square-root branch.

        ``deriv_values`` maps derivative order -> complex value (a sequence
        indexed by order also works).  ``sqrt_u`` must square to ``u`` within
        ``SQRT_TOL`` relative; u^(h/2) is computed as sqrt_u**h so the branch
        is exactly the caller's.
        """
        scale = max(abs(u), 1.0)
        if abs(sqrt_u * sqrt_u - u) > SQRT_TOL * scale:
            raise ValueError("sqrt_u does not square to u within tolerance")
        total = 0j
        d = self.den
        for key, (x, y) in self.num.items():
            ds, h, e = decode(key)
            if h < 0 and u == 0:
                raise PoleError("u = 0 with negative half-power")
            if e < 0 and e_value == 0:
                raise PoleError("E = 0 with negative E-exponent")
            val = complex(x / d, y / d)
            for k, a in ds:
                val *= deriv_values[k] ** a
            if h:
                val *= sqrt_u ** h
            if e:
                val *= e_value ** e
            total += val
        return total

    # -- serialization -------------------------------------------------------

    def to_text(self) -> str:
        """Deterministic text form, e.g. ``3/8*E^1*u^-5/2*d1^2``."""
        if not self.num:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            factors = [_text_coeff(*c)]
            if m.e:
                factors.append(f"E^{m.e}")
            if m.h:
                factors.append(f"u^{_half_str(m.h)}")
            for k, a in m.derivs:
                name = f"{self.ring.deriv_prefix}{k}"
                factors.append(name if a == 1 else f"{name}^{a}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def to_json_dict(self) -> dict:
        terms = []
        for m, (re, im) in self.sorted_terms():
            terms.append(
                {
                    "coef_re": [re.numerator, re.denominator],
                    "coef_im": [im.numerator, im.denominator],
                    "e": m.e,
                    "h": m.h,
                    "derivs": {str(k): a for k, a in m.derivs},
                }
            )
        return {"terms": terms}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def to_latex(self) -> str:
        if not self.num:
            return "0"
        out = []
        for idx, (m, c) in enumerate(self.sorted_terms()):
            out.append(_latex_term(self.ring, m, c, first=idx == 0))
        return "".join(out)

    def __repr__(self):
        return f"<Expr[{self.ring.name}] {self.to_text()}>"


def _parts(c) -> tuple:
    """The (re, im) parts of a coefficient: an int, a Fraction, or an
    (re, im) pair of them.  Anything else, a float among them, raises
    ``TypeError``, so no float enters the exact layer."""
    parts = c if type(c) is tuple and len(c) == 2 else (c, 0)
    for q in parts:
        if not isinstance(q, (int, Fraction)):
            raise TypeError(f"an exact coefficient part must be int or Fraction, "
                            f"not {type(q).__name__}")
    return parts


def _over(q, d: int) -> int:
    """The numerator of the rational ``q`` over the denominator ``d``, a
    multiple of its own."""
    return q.numerator * (d // q.denominator)


def _check(ring: Ring, x: "Expression") -> None:
    if not isinstance(x, Expression):
        raise TypeError(f"expected Expression, got {type(x).__name__}")
    if x.ring is not ring and x.ring != ring:
        raise ValueError(f"ring mismatch: {ring.name} vs {x.ring.name}")


def _times(num: dict, s: int) -> dict:
    return {key: (x * s, y * s) for key, (x, y) in num.items()}


def _accumulate(out: Dict[int, list], key: int, x: int, y: int) -> None:
    acc = out.get(key)
    if acc is None:
        out[key] = [x, y]
    else:
        acc[0] += x
        acc[1] += y


def _make(ring: Ring, num: Dict[int, tuple], den: int) -> "Expression":
    """An expression over already canonical numerators and denominator."""
    x = object.__new__(Expression)
    object.__setattr__(x, "ring", ring)
    object.__setattr__(x, "den", den)
    object.__setattr__(x, "num", num)
    return x


def _reduced(ring: Ring, num: Dict[int, tuple], den: int, g: Optional[int] = None) -> "Expression":
    """The expression (x + i y)/den over canonical monomials with nonzero
    numerators, divided by gcd(den, every x and y).  ``g``, when given, is a
    multiple of that gcd that divides den."""
    if not num:
        return _make(ring, {}, 1)
    g = den if g is None else g
    if g != 1:
        g = gcd(g, *chain.from_iterable(num.values()))
    if g != 1:
        num = {key: (x // g, y // g) for key, (x, y) in num.items()}
        den //= g
    return _make(ring, num, den)


def _fold(ring: Ring, raw: Dict[int, list], den: int) -> "Expression":
    """The sum of (x + i y)/den over the raw keys of ``raw`` = {key: [x, y]}:
    each key whose f field holds qr + s with q > 0, found by one shift and
    mask, expands f^(qr + s) = f^s (E - u)^q binomially into ``raw``, equal
    monomials merge as integers, and zero terms drop."""
    _check_keys(raw)
    r = ring.relation_power
    for key in [key for key in raw if (key >> _SYM_SHIFT) & _FIELD >= r]:
        x, y = raw.pop(key)
        q = ((key >> _SYM_SHIFT) & _FIELD) // r
        # the j = q term raises h by 2q and the j = 0 term e by q
        if (key & _FIELD) + q >= _SPARE or ((key >> FIELD_BITS) & _FIELD) + 2 * q >= _SPARE:
            raise OverflowError("a monomial exponent left its packed field")
        key += q * (_E_UNIT - r * _SYM_UNIT)
        for j in range(q + 1):
            b = comb(q, j) * (-1) ** j
            _accumulate(raw, key, b * x, b * y)
            key += 2 * _H_UNIT - _E_UNIT
    return _reduced(ring, {key: (x, y) for key, (x, y) in raw.items() if x or y}, den)


def _collect(ring: Ring, items: Iterable[Tuple[int, int, int]], den: int) -> "Expression":
    """The sum of (x + i y)/den times the monomial over (key, x, y) items."""
    raw: Dict[int, list] = {}
    for key, x, y in items:
        _accumulate(raw, key, x, y)
    return _fold(ring, raw, den)



def _half_str(h: int) -> str:
    if h % 2 == 0:
        return str(h // 2)
    return f"{h}/2"


_PRIMES = {1: "'", 2: "''", 3: "'''"}


def _latex_symbol(ring: Ring, k: int, a: int) -> str:
    base = r"\phi" if ring.name == "phi" else "V"
    if k == 0:
        sym = base
    elif k in _PRIMES:
        sym = f"{{{base}{_PRIMES[k]}}}"
    else:
        sym = f"{{{base}^{{({k})}}}}"
    return sym if a == 1 else f"{sym}^{{{a}}}"


def _text_coeff(re: Fraction, im: Fraction) -> str:
    """``3/8``, ``-1i`` or ``(1/2-1/3i)``: a part that is zero is left out."""
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    return f"({re}{'+' if im > 0 else '-'}{abs(im)}i)"


def _latex_coeff(re: Fraction, im: Fraction) -> Tuple[str, str]:
    """Return (sign, magnitude-latex); complex coefficients stay inline."""

    def frac(q: Fraction) -> str:
        if q.denominator == 1:
            return str(abs(q.numerator))
        return rf"\frac{{{abs(q.numerator)}}}{{{q.denominator}}}"

    if im == 0:
        sign = "-" if re < 0 else "+"
        mag = frac(re)
        return sign, ("" if mag == "1" else mag)
    if re == 0:
        sign = "-" if im < 0 else "+"
        mag = frac(im)
        return sign, (f"{mag} i" if mag != "1" else "i")
    return "+", rf"\left({re}{'+' if im > 0 else '-'}{abs(im)}i\right)"


def _latex_term(ring: Ring, m: Monomial, c: Tuple[Fraction, Fraction], first: bool) -> str:
    base = r"E-\phi^2" if ring.name == "phi" else "E-V"
    sign, mag = _latex_coeff(*c)
    num = []
    if mag:
        num.append(mag)
    if m.e > 0:
        num.append("E" if m.e == 1 else f"E^{{{m.e}}}")
    for k, a in m.derivs:
        num.append(_latex_symbol(ring, k, a))
    if m.h > 0:
        num.append(rf"({base})^{{{_half_str(m.h)}}}")
    den = []
    if m.e < 0:
        den.append("E" if m.e == -1 else f"E^{{{-m.e}}}")
    if m.h < 0:
        den.append(rf"({base})^{{{_half_str(-m.h)}}}")
    num_s = r"\,".join(num) if num else "1"
    den_s = r"\,".join(den)
    body = num_s if not den else rf"\frac{{{num_s}}}{{{den_s}}}"
    lead = ("-" if sign == "-" else "") if first else f" {sign} "
    return f"{lead}{body}"


# -- convenience symbols for the main ring -----------------------------------


def phi(k: int = 0, exp: int = 1) -> Expression:
    return Expression.sym(k, exp, PHI_RING)


def u_half(h: int) -> Expression:
    return Expression.u_pow(h, PHI_RING)


def const(c) -> Expression:
    return Expression.const(c, PHI_RING)


def i_times(x: Expression) -> Expression:
    """i * x: each numerator pair (x, y) becomes (-y, x), over the same
    denominator, so the result stays canonical."""
    return _make(x.ring, {key: (-im, re) for key, (re, im) in x.num.items()}, x.den)


def F_factor() -> Expression:
    """phi * u^(-1/2), the parity-compensating factor of the p/q coupling."""
    return phi() * u_half(-1)
