"""Exact canonical algebra over the differential ring used by the series.

Ring generators: a symbol family f, f', f'', ... (f is the superpotential in
the main ring), half-integer powers of u = E - f^r, and integer powers of E
(both signs), with GaussianRational coefficients.  The defining relation
f^r = E - u is applied during normalization, so the bare-symbol exponent of
every canonical monomial is < r.

Two ring flavours are used:

* the superpotential ring (r = 2, relation phi^2 = E - u), carrying the
  whole quantization-series machinery;
* an auxiliary potential ring (r = 1, relation V = E - u), in which V itself
  is eliminated entirely; it hosts the plain semiclassical series that gets
  substituted back into the main ring.

``Monomial(...)`` sorts and validates its factors.  Sums merge into a copy
of the left term map, and negation and nonzero scaling map coefficients one
to one, so they stay canonical.  Products, derivatives and
``Expression(ring, raw)`` run on Gaussian integers: each operand is scaled
by the lcm d of its denominators, every term product (or Leibniz term,
doubled so that h/2 stays an integer) is summed per raw (derivs, h, e), and
one fold applies the relation, merges, and divides by the common
denominator once per surviving term.  ``Expression.sum_of_products`` is the
one product loop: it sums w*a*b over weighted pairs, so a whole series
convolution folds once, and ``a * b`` is its one-triple case.

Everything here is immutable and pure; no floating point enters except in
``evaluate``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Dict, Iterable, List, Tuple

from .errors import PoleError, UndefinedDegreeError
from .gaussian import _F_ZERO, GR_I, GR_ONE, GaussianRational

SQRT_TOL = 1e-9  # relative mismatch allowed between sqrt_u**2 and u in ``evaluate``


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


class Monomial:
    """Canonical monomial: product of derivative symbols, u^(h/2), E^e.

    ``derivs`` maps derivative order k >= 0 to a positive exponent; the
    order-0 exponent is < relation_power in canonical form.  ``h`` is the
    integer such that the monomial carries u^(h/2); ``e`` the E-exponent.
    """

    __slots__ = ("derivs", "h", "e", "_hash")

    def __init__(self, derivs: Iterable[Tuple[int, int]] = (), h: int = 0, e: int = 0):
        ds = tuple(sorted((int(k), int(a)) for k, a in derivs if a != 0))
        for k, a in ds:
            if k < 0 or a < 0:
                raise ValueError("derivative orders and exponents must be >= 0")
        object.__setattr__(self, "derivs", ds)
        object.__setattr__(self, "h", int(h))
        object.__setattr__(self, "e", int(e))
        object.__setattr__(self, "_hash", hash((ds, self.h, self.e)))

    def __setattr__(self, name, value):
        raise AttributeError("Monomial is immutable")

    @staticmethod
    def _canonical(derivs: Tuple[Tuple[int, int], ...], h: int, e: int) -> "Monomial":
        """A monomial from a sorted tuple of positive (order, exponent) pairs."""
        m = object.__new__(Monomial)
        object.__setattr__(m, "derivs", derivs)
        object.__setattr__(m, "h", h)
        object.__setattr__(m, "e", e)
        object.__setattr__(m, "_hash", hash((derivs, h, e)))
        return m

    def __eq__(self, other):
        return (
            isinstance(other, Monomial)
            and self.derivs == other.derivs
            and self.h == other.h
            and self.e == other.e
        )

    def __hash__(self):
        return self._hash

    def deriv_exp(self, k: int) -> int:
        for kk, a in self.derivs:
            if kk == k:
                return a
        return 0

    def weight(self) -> int:
        """Grading raised by exactly 1 under d/dx: sum of k * exp_k."""
        return sum(k * a for k, a in self.derivs)

    def gdeg(self, ring: Ring) -> int:
        """Scaling grading preserved by d/dx ([symbol] = sym_gdeg, [u] = [E] = 2)."""
        return ring.sym_gdeg * sum(a for _, a in self.derivs) + self.h + 2 * self.e

    def sort_key(self):
        return (self.e, self.h, self.derivs)

    def __repr__(self):
        return f"Monomial({self.derivs!r}, h={self.h}, e={self.e})"


_MONO_ONE = Monomial()


def _merge_derivs(a: Tuple[Tuple[int, int], ...], b: Tuple[Tuple[int, int], ...]):
    if not a:
        return b
    if not b:
        return a
    out: Dict[int, int] = dict(a)
    for k, v in b:
        out[k] = out.get(k, 0) + v
    return tuple(sorted(out.items()))


def _with_exp(derivs: Tuple[Tuple[int, int], ...], k: int, delta: int):
    out = dict(derivs)
    new = out.get(k, 0) + delta
    if new < 0:
        raise ValueError("negative exponent")
    if new == 0:
        out.pop(k, None)
    else:
        out[k] = new
    return tuple(sorted(out.items()))


class Expression:
    """Exact sum of canonical monomials with GaussianRational coefficients.

    Instances are normalized on construction (defining relation applied,
    zero coefficients dropped) and treated as immutable; equality is
    equality of the normalized term maps.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, raw_terms: Iterable[Tuple[Monomial, GaussianRational]] = ()):
        object.__setattr__(self, "ring", ring)
        raw: Dict[tuple, list] = {}
        given: Dict[tuple, Monomial] = {}
        d, scaled = _scaled(raw_terms)
        for m, x, y in scaled:
            given[(m.derivs, m.h, m.e)] = m
            _accumulate(raw, (m.derivs, m.h, m.e), x, y)
        object.__setattr__(self, "terms", _fold(ring, raw, d, given))

    def __setattr__(self, name, value):
        raise AttributeError("Expression is immutable")

    @staticmethod
    def _canonical(ring: Ring, terms: Dict[Monomial, GaussianRational]) -> "Expression":
        """An expression over an already canonical term map."""
        x = object.__new__(Expression)
        object.__setattr__(x, "ring", ring)
        object.__setattr__(x, "terms", terms)
        return x

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(ring: Ring = PHI_RING) -> "Expression":
        return Expression(ring)

    @staticmethod
    def const(c, ring: Ring = PHI_RING) -> "Expression":
        c = GaussianRational.coerce(c)
        return Expression(ring, [(_MONO_ONE, c)])

    @staticmethod
    def sym(k: int = 0, exp: int = 1, ring: Ring = PHI_RING) -> "Expression":
        """The k-th derivative symbol raised to ``exp`` (k = 0 is f itself)."""
        return Expression(ring, [(Monomial([(k, exp)]), GR_ONE)])

    @staticmethod
    def u_pow(h: int, ring: Ring = PHI_RING) -> "Expression":
        """u^(h/2); h is the half-power numerator and may be negative."""
        return Expression(ring, [(Monomial(h=h), GR_ONE)])

    @staticmethod
    def e_pow(e: int, ring: Ring = PHI_RING) -> "Expression":
        return Expression(ring, [(Monomial(e=e), GR_ONE)])

    # -- ring arithmetic -------------------------------------------------

    def __add__(self, other: "Expression") -> "Expression":
        _check(self.ring, other)
        return Expression._canonical(self.ring, _merge(dict(self.terms), other.terms.items()))

    def __sub__(self, other: "Expression") -> "Expression":
        _check(self.ring, other)
        negated = ((m, -c) for m, c in other.terms.items())
        return Expression._canonical(self.ring, _merge(dict(self.terms), negated))

    def __neg__(self) -> "Expression":
        return Expression._canonical(self.ring, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        return Expression.sum_of_products(self.ring, [(1, self, other)])

    @staticmethod
    def sum_of_products(ring: Ring, triples: Iterable[tuple]) -> "Expression":
        """sum w*a*b over (w, a, b) triples with rational weights w, the one
        product loop of the ring: every operand is scaled to Gaussian
        integers, every term product is summed as an int pair per raw
        (derivs, h, e) over the common denominator D of all the products,
        and one fold follows."""
        scaled = []
        for w, a, b in triples:
            _check(ring, a)
            _check(ring, b)
            w = Fraction(w)
            da, left = _by_derivs(a.terms)
            db, right = _by_derivs(b.terms)
            scaled.append((w.numerator, w.denominator * da * db, left, right))
        d = lcm(*(dd for _, dd, _, _ in scaled))
        raw: Dict[tuple, list] = {}
        for w, dd, left, right in scaled:
            w *= d // dd
            for ds1, terms1 in left:
                for ds2, terms2 in right:
                    ds = _merge_derivs(ds1, ds2)
                    for h1, e1, x1, y1 in terms1:
                        for h2, e2, x2, y2 in terms2:
                            _accumulate(raw, (ds, h1 + h2, e1 + e2),
                                        w * (x1 * x2 - y1 * y2), w * (x1 * y2 + y1 * x2))
        return Expression._canonical(ring, _fold(ring, raw, d, {}))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "Expression":
        c = GaussianRational.coerce(c)
        if c.is_zero():
            return Expression(self.ring)
        # a product of nonzero Gaussian rationals is nonzero
        return Expression._canonical(self.ring, {m: cc * c for m, cc in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, Expression)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        raise TypeError("Expression is not hashable")

    def is_zero(self) -> bool:
        return not self.terms

    # -- calculus --------------------------------------------------------

    def differentiate(self) -> "Expression":
        """d/dx with E constant: d f^(k) = f^(k+1), d u^(h/2) follows from
        u' = -r f^(r-1) f'; Leibniz terms are doubled so h/2 stays integral."""
        r = self.ring.relation_power
        d, scaled = _scaled(self.terms.items())
        raw: Dict[tuple, list] = {}
        for m, x, y in scaled:
            for k, a in m.derivs:
                ds = _with_exp(_with_exp(m.derivs, k, -1), k + 1, +1)
                _accumulate(raw, (ds, m.h, m.e), 2 * a * x, 2 * a * y)
            if m.h != 0:
                # 2 (h/2) u^((h-2)/2) * (-r f^(r-1) f')
                ds = _with_exp(_with_exp(m.derivs, 0, r - 1), 1, +1)
                _accumulate(raw, (ds, m.h - 2, m.e), -m.h * r * x, -m.h * r * y)
        return Expression._canonical(self.ring, _fold(self.ring, raw, 2 * d, {}))

    def diff_E(self) -> "Expression":
        """d/dE with x held fixed: the symbols do not move, u' = 1, so
        d u^(h/2) = (h/2) u^((h-2)/2) and d E^e = e E^(e-1).  The derivative
        tuples are untouched, so only the merge runs."""
        mono = Monomial._canonical
        raw: List[Tuple[Monomial, GaussianRational]] = []
        for m, c in self.terms.items():
            if m.e:
                raw.append((mono(m.derivs, m.h, m.e - 1), c * m.e))
            if m.h:
                raw.append((mono(m.derivs, m.h - 2, m.e), c * Fraction(m.h, 2)))
        return Expression._canonical(self.ring, _merge({}, raw))

    def split_real_imag(self) -> Tuple["Expression", "Expression"]:
        """(re, im) with all symbols treated as real; self == re + i*im.
        The monomials are already canonical, so no fold runs."""
        items = self.terms.items()
        re = {m: GaussianRational(c.re, _F_ZERO) for m, c in items if c.re}
        im = {m: GaussianRational(c.im, _F_ZERO) for m, c in items if c.im}
        return Expression._canonical(self.ring, re), Expression._canonical(self.ring, im)

    # -- structure queries -------------------------------------------------

    def min_e_degree(self) -> int:
        if not self.terms:
            raise UndefinedDegreeError("min_e_degree of the zero expression")
        return min(m.e for m in self.terms)

    def max_e_degree(self) -> int:
        if not self.terms:
            raise UndefinedDegreeError("max_e_degree of the zero expression")
        return max(m.e for m in self.terms)

    def u_parity(self) -> str:
        """'all-odd-half' | 'all-even' | 'mixed' over the u half-powers."""
        if not self.terms:
            raise UndefinedDegreeError("u_parity of the zero expression")
        parities = {m.h % 2 for m in self.terms}
        if parities == {1}:
            return "all-odd-half"
        if parities == {0}:
            return "all-even"
        return "mixed"

    def min_h(self) -> int:
        if not self.terms:
            raise UndefinedDegreeError("min_h of the zero expression")
        return min(m.h for m in self.terms)

    def max_h(self) -> int:
        if not self.terms:
            raise UndefinedDegreeError("max_h of the zero expression")
        return max(m.h for m in self.terms)

    def max_deriv_order(self) -> int:
        orders = [k for m in self.terms for k, _ in m.derivs]
        return max(orders) if orders else 0

    def weights(self) -> set:
        return {m.weight() for m in self.terms}

    def gdegs(self) -> set:
        return {m.gdeg(self.ring) for m in self.terms}

    def shift_e(self, delta: int) -> "Expression":
        """Multiply by E^delta (exact exponent shift)."""
        mono = Monomial._canonical
        return Expression._canonical(
            self.ring, {mono(m.derivs, m.h, m.e + delta): c for m, c in self.terms.items()}
        )

    def term_count(self) -> int:
        return len(self.terms)

    def sorted_terms(self) -> List[Tuple[Monomial, GaussianRational]]:
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
        for m, c in self.terms.items():
            if m.h < 0 and u == 0:
                raise PoleError("u = 0 with negative half-power")
            if m.e < 0 and e_value == 0:
                raise PoleError("E = 0 with negative E-exponent")
            val = complex(c)
            for k, a in m.derivs:
                val *= deriv_values[k] ** a
            if m.h:
                val *= sqrt_u ** m.h
            if m.e:
                val *= e_value ** m.e
            total += val
        return total

    # -- serialization -------------------------------------------------------

    def to_text(self) -> str:
        """Deterministic text form, e.g. ``3/8*E^1*u^-5/2*d1^2``."""
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            factors = [str(c)]
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
        for m, c in self.sorted_terms():
            terms.append(
                {
                    "coef_re": [c.re.numerator, c.re.denominator],
                    "coef_im": [c.im.numerator, c.im.denominator],
                    "e": m.e,
                    "h": m.h,
                    "derivs": {str(k): a for k, a in m.derivs},
                }
            )
        return {"terms": terms}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @staticmethod
    def from_json_dict(data: dict, ring: Ring = PHI_RING) -> "Expression":
        raw = []
        for t in data["terms"]:
            c = GaussianRational(
                Fraction(t["coef_re"][0], t["coef_re"][1]),
                Fraction(t["coef_im"][0], t["coef_im"][1]),
            )
            m = Monomial([(int(k), a) for k, a in t["derivs"].items()], h=t["h"], e=t["e"])
            raw.append((m, c))
        return Expression(ring, raw)

    def to_latex(self) -> str:
        if not self.terms:
            return "0"
        out = []
        for idx, (m, c) in enumerate(self.sorted_terms()):
            out.append(_latex_term(self.ring, m, c, first=idx == 0))
        return "".join(out)

    def __repr__(self):
        return f"<Expr[{self.ring.name}] {self.to_text()}>"


def _check(ring: Ring, x: "Expression") -> None:
    if not isinstance(x, Expression):
        raise TypeError(f"expected Expression, got {type(x).__name__}")
    if x.ring is not ring and x.ring != ring:
        raise ValueError(f"ring mismatch: {ring.name} vs {x.ring.name}")


def _merge(acc: Dict[Monomial, GaussianRational], pairs) -> Dict[Monomial, GaussianRational]:
    """Add nonzero (canonical monomial, coefficient) pairs into ``acc``,
    dropping every coefficient that cancels to zero."""
    for m, c in pairs:
        old = acc.get(m)
        if old is None:
            acc[m] = c
        else:
            c = old + c
            if c.is_zero():
                del acc[m]
            else:
                acc[m] = c
    return acc


def _scaled(pairs) -> Tuple[int, List[Tuple[Monomial, int, int]]]:
    """(d, [(m, x, y)]) with x + i y = d c for each (m, c): d is the lcm of
    every denominator, so x and y are integers."""
    pairs = [(m, GaussianRational.coerce(c)) for m, c in pairs]
    d = lcm(*(q.denominator for _, c in pairs for q in (c.re, c.im)))
    return d, [(m, c.re.numerator * (d // c.re.denominator),
                c.im.numerator * (d // c.im.denominator)) for m, c in pairs]


def _by_derivs(terms: Dict[Monomial, GaussianRational]):
    """``_scaled`` terms grouped by derivative tuple, as (d, [(derivs,
    [(h, e, x, y)])]), so that a product merges each pair of tuples once."""
    d, scaled = _scaled(terms.items())
    groups: Dict[tuple, list] = {}
    for m, x, y in scaled:
        groups.setdefault(m.derivs, []).append((m.h, m.e, x, y))
    return d, groups.items()


def _accumulate(raw: Dict[tuple, list], key: tuple, x: int, y: int) -> None:
    acc = raw.get(key)
    if acc is None:
        raw[key] = [x, y]
    else:
        acc[0] += x
        acc[1] += y


def _fold(ring: Ring, raw: Dict[tuple, list], d: int,
          given: Dict[tuple, Monomial]) -> Dict[Monomial, GaussianRational]:
    """Canonical terms of the sum of (x + i y)/d times each raw ``(derivs, h,
    e): [x, y]``: f^(qr + s) = f^s (E - u)^q expands binomially into ``raw``,
    equal monomials merge as integers, and each surviving term gets one
    Fraction pair and the Monomial ``given`` for its key, if any."""
    r = ring.relation_power
    for ds, h, e in [key for key in raw if key[0] and key[0][0][0] == 0 and key[0][0][1] >= r]:
        x, y = raw.pop((ds, h, e))
        q, s = divmod(ds[0][1], r)
        ds = ((0, s),) + ds[1:] if s else ds[1:]
        for j in range(q + 1):
            b = comb(q, j) * (-1) ** j
            _accumulate(raw, (ds, h + 2 * j, e + q - j), b * x, b * y)
    mono = Monomial._canonical
    return {
        given.get(key) or mono(*key): GaussianRational(Fraction(x, d) if x else _F_ZERO,
                                                        Fraction(y, d) if y else _F_ZERO)
        for key, (x, y) in raw.items()
        if x or y
    }


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


def _latex_coeff(c: GaussianRational) -> Tuple[str, str]:
    """Return (sign, magnitude-latex); complex coefficients stay inline."""

    def frac(q: Fraction) -> str:
        if q.denominator == 1:
            return str(abs(q.numerator))
        return rf"\frac{{{abs(q.numerator)}}}{{{q.denominator}}}"

    if c.im == 0:
        sign = "-" if c.re < 0 else "+"
        mag = frac(c.re)
        return sign, ("" if mag == "1" else mag)
    if c.re == 0:
        sign = "-" if c.im < 0 else "+"
        mag = frac(c.im)
        return sign, (f"{mag} i" if mag != "1" else "i")
    return "+", rf"\left({c.re}{'+' if c.im > 0 else '-'}{abs(c.im)}i\right)"


def _latex_term(ring: Ring, m: Monomial, c: GaussianRational, first: bool) -> str:
    base = r"E-\phi^2" if ring.name == "phi" else "E-V"
    sign, mag = _latex_coeff(c)
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


def E_pow(e: int) -> Expression:
    return Expression.e_pow(e, PHI_RING)


def const(c) -> Expression:
    return Expression.const(c, PHI_RING)


def i_times(x: Expression) -> Expression:
    return x.scale(GR_I)


def F_factor() -> Expression:
    """phi * u^(-1/2), the parity-compensating factor of the p/q coupling."""
    return phi() * u_half(-1)
