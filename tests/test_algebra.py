import cmath
from collections import Counter
from fractions import Fraction as Fr
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from swkb.algebra import (
    Expression,
    F_factor,
    Monomial,
    PHI_RING,
    V_RING,
    const,
    decode,
    encode,
    i_times,
    phi,
    u_half,
)
import swkb.algebra
from swkb.errors import PoleError, UndefinedDegreeError
from swkb.series import generate_series

from conftest import E_pow, coefficients, ring_expressions


def examples(n):
    return settings(max_examples=n, deadline=None, derandomize=True, database=None)


class TestNormalize:
    def test_phi_square_reduction(self):
        assert phi(0, 2) * u_half(-1) == E_pow(1) * u_half(-1) - u_half(1)

    def test_empty_sum_is_zero(self):
        assert Expression(PHI_RING, []).is_zero()

    def test_phi_cube_single_step(self):
        assert phi(0, 3) * u_half(-2) == E_pow(1) * phi() * u_half(-2) - phi()

    @examples(50)
    @given(ring_expressions())
    def test_idempotent_on_random_terms(self, x):
        again = Expression(PHI_RING, list(x.terms.items()))
        assert again == x

    def test_no_zero_coefficients_stored(self):
        x = phi() - phi()
        assert x.terms == {}

    @examples(30)
    @given(ring_expressions())
    def test_canonical_phi_exponent(self, x):
        assert all(dict(m.derivs).get(0, 0) <= 1 for m in x.terms)


class TestMonomial:
    """A monomial is the decoded (derivs, h, e) form of the packed key that
    ``Expression.num`` stores; its constructor keeps that form canonical."""

    def test_orders_come_out_sorted(self):
        m = Monomial([(3, 1), (0, 1), (1, 2)], h=-1, e=2)
        assert m.derivs == ((0, 1), (1, 2), (3, 1))
        assert m == (((0, 1), (1, 2), (3, 1)), -1, 2)

    def test_zero_exponents_are_dropped(self):
        assert Monomial([(2, 0), (1, 1), (0, 0)], h=3).derivs == ((1, 1),)
        assert Monomial([(4, 0)]) == Monomial() == ((), 0, 0)

    @pytest.mark.parametrize("derivs", [[(-1, 1)], [(1, -2)], [(0, 1), (2, -1)]])
    def test_negative_order_or_exponent_raises(self, derivs):
        with pytest.raises(ValueError):
            Monomial(derivs, h=1)

    @examples(60)
    @given(st.sampled_from([PHI_RING, V_RING]).flatmap(ring_expressions))
    def test_terms_keys_are_the_stored_keys(self, x):
        for m in x.terms:
            key = (m.derivs, m.h, m.e)
            assert type(m) is Monomial
            assert m == key and hash(m) == hash(key)
            assert x.num[encode(m)]
        assert {encode(m) for m in x.terms} == x.num.keys()


class TestArithmetic:
    def test_u_half_inverse(self):
        assert u_half(1) * u_half(-1) == const(1)

    def test_phi_squared_is_defining_relation(self):
        assert phi() * phi() == E_pow(1) - u_half(2)

    def test_additive_inverse(self):
        x = phi(1) * u_half(-3)
        assert (x + x.scale(-1)).is_zero()

    @examples(20)
    @given(ring_expressions(), ring_expressions())
    def test_scale_distributes(self, a, b):
        c = (Fr(3, 7), Fr(-1, 2))
        assert (a + b).scale(c) == a.scale(c) + b.scale(c)

    @examples(10)
    @given(ring_expressions(max_terms=3), ring_expressions(max_terms=3),
           ring_expressions(max_terms=3))
    def test_mul_commutative_associative(self, a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


class TestDifferentiate:
    def test_sqrt_u(self):
        assert u_half(1).differentiate() == -(phi() * phi(1) * u_half(-1))

    def test_symbol_chain(self):
        assert phi(1).differentiate() == phi(2)

    def test_f_factor_derivative(self):
        # the derivative of f/sqrt(u) carries the whole E factor
        assert F_factor().differentiate() == E_pow(1) * phi(1) * u_half(-3)

    @examples(25)
    @given(ring_expressions(max_terms=3), ring_expressions(max_terms=3))
    def test_leibniz_on_random_pairs(self, a, b):
        lhs = (a * b).differentiate()
        rhs = a.differentiate() * b + a * b.differentiate()
        assert lhs == rhs

    def test_e_is_constant(self):
        assert E_pow(3).differentiate().is_zero()
        assert E_pow(-2).differentiate().is_zero()


class TestDiffE:
    @examples(40)
    @given(st.sampled_from([PHI_RING, V_RING]).flatmap(
        lambda ring: st.tuples(ring_expressions(ring, 3), ring_expressions(ring, 3))))
    def test_leibniz(self, pair):
        a, b = pair
        assert (a * b).diff_E() == a.diff_E() * b + a * b.diff_E()

    @examples(40)
    @given(st.sampled_from([PHI_RING, V_RING]).flatmap(ring_expressions))
    def test_commutes_with_differentiate(self, x):
        assert x.differentiate().diff_E() == x.diff_E().differentiate()

    @pytest.mark.parametrize("h", range(-5, 6))
    def test_u_power(self, h):
        # u = E - phi^2, so du/dE = 1
        expect = u_half(h - 2).scale(Fr(h, 2)) if h else Expression.zero()
        assert u_half(h).diff_E() == expect

    @pytest.mark.parametrize("e", range(-3, 4))
    def test_e_power(self, e):
        expect = E_pow(e - 1).scale(e) if e else Expression.zero()
        assert E_pow(e).diff_E() == expect

    def test_symbols_are_constant_in_e(self):
        # phi^2 = E - u is x-dependent only: its E-derivative 1 - 1 vanishes
        assert phi(0, 2).diff_E().is_zero()
        assert (phi(1, 3) * phi(2)).diff_E().is_zero()
        assert Expression.sym(0, 1, V_RING).diff_E().is_zero()


class TestSplit:
    def test_first_order_coefficient(self):
        s1 = (phi() * phi(1) * u_half(-2)).scale(Fr(1, 2)) + i_times(
            (phi(1) * u_half(-1)).scale(Fr(1, 2))
        )
        re, im = s1.split_real_imag()
        assert re == (phi() * phi(1) * u_half(-2)).scale(Fr(1, 2))
        assert im == (phi(1) * u_half(-1)).scale(Fr(1, 2))

    def test_real_expression_has_zero_imag(self):
        x = phi(1, 2) * u_half(-3)
        re, im = x.split_real_imag()
        assert re == x and im.is_zero()

    def test_pure_imaginary(self):
        re, im = i_times(phi(1)).split_real_imag()
        assert re.is_zero() and im == phi(1)

    @examples(40)
    @given(ring_expressions())
    def test_reassembly_on_random(self, x):
        re, im = x.split_real_imag()
        assert re + i_times(im) == x


class TestStructureQueries:
    def test_min_e_examples(self):
        assert (E_pow(1) * phi(1, 2) * u_half(-5)).min_e_degree() == 1
        assert (phi(1) * u_half(-1)).min_e_degree() == 0

    def test_min_e_zero_raises(self):
        with pytest.raises(UndefinedDegreeError):
            Expression.zero().min_e_degree()

    def test_u_parity(self):
        assert u_half(1).u_parity() == "all-odd-half"
        assert ((phi() * phi(1) * u_half(-2)).scale(Fr(1, 2))).u_parity() == "all-even"
        assert (u_half(1) + u_half(2)).u_parity() == "mixed"


class TestEvaluate:
    def test_simple_values(self):
        assert u_half(1).evaluate({0: 0.0}, 4.0, 2.0, 5.0) == 2.0
        assert phi().evaluate({0: 3.0}, 1.0, 1.0, 2.0) == 3.0

    def test_f_prime_value(self):
        v = F_factor().differentiate().evaluate({0: 1.0, 1: 1.0}, 1.0, 1.0, 2.0)
        assert abs(v - 2.0) < 1e-14

    def test_pole_errors(self):
        with pytest.raises(PoleError):
            u_half(-1).evaluate({0: 0.0}, 0.0, 0.0, 1.0)
        with pytest.raises(PoleError):
            E_pow(-1).evaluate({0: 0.0}, 1.0, 1.0, 0.0)

    def test_branch_consistency_required(self):
        with pytest.raises(ValueError):
            u_half(1).evaluate({0: 0.0}, 4.0, 1.0, 5.0)

    @examples(25)
    @given(ring_expressions(max_terms=3), ring_expressions(max_terms=3),
           st.floats(-1.5, 1.5), st.floats(-1.0, 1.0), st.floats(1.0, 3.0))
    def test_ring_homomorphism_at_consistent_points(self, a, b, x, y, E):
        # points must satisfy the defining relation: u = E - z^2
        z = complex(x, y)
        u = E - z * z
        assume(abs(u) >= 1e-3 and abs(E) >= 1e-3)
        sqrt_u = cmath.sqrt(u)
        point = ({0: z, 1: 0.7 + 0.2j, 2: -0.3 + 0.1j, 3: 0.5 - 0.4j}, u, sqrt_u, E)
        va, vb, vab = a.evaluate(*point), b.evaluate(*point), (a * b).evaluate(*point)
        scale = max(1.0, abs(va * vb))
        assert abs(vab - va * vb) < 1e-12 * scale


class TestSerialization:
    def test_text_form(self):
        x = (E_pow(1) * u_half(-5) * phi(1, 2)).scale(Fr(3, 8))
        assert x.to_text() == "3/8*E^1*u^-5/2*d1^2"

    def test_text_deterministic_ordering(self):
        x = u_half(1) + E_pow(1) * u_half(-1) + phi(1)
        # ordering key is (E exponent, u half-power, derivative exponents)
        assert x.to_text() == "1*d1 + 1*u^1/2 + 1*E^1*u^-1/2"

    def test_json_shape(self):
        x = (E_pow(1) * u_half(-5) * phi(1, 2)).scale(Fr(3, 8))
        data = x.to_json_dict()
        assert data == {
            "terms": [
                {
                    "coef_re": [3, 8],
                    "coef_im": [0, 1],
                    "e": 1,
                    "h": -5,
                    "derivs": {"1": 2},
                }
            ]
        }

    def test_latex_nonempty(self):
        assert "\\phi" in (phi(1, 2) * u_half(-5)).to_latex()

    def test_latex_puts_negative_e_powers_below_the_line(self):
        assert (E_pow(-1) * phi()).to_latex() == r"\frac{\phi}{E}"
        assert (E_pow(-2) * phi(1)).to_latex() == r"\frac{{\phi'}}{E^{2}}"


# -- the exact kernel against textbook definitions ---------------------------
#
# Products, derivatives and the raw constructor share one integer kernel, so
# the oracle stays out of it: each result's term dict is compared with the
# textbook raw term list folded by f^r = E - u one step at a time and merged
# in Fraction arithmetic here, and checked to be canonical itself.
# Coefficients are (re, im) pairs of rationals, multiplied by the textbook
# formula.


def coeff_parts(x):
    """(re, im) of a rational or an (re, im) pair."""
    return x if isinstance(x, tuple) else (Fr(x), Fr(0))


def textbook_mul(x, y):
    (a, b), (c, d) = coeff_parts(x), coeff_parts(y)
    return a * c - b * d, a * d + b * c


def merged_derivs(*parts):
    total = Counter()
    for derivs in parts:
        total.update(dict(derivs))
    return tuple(sorted((k, a) for k, a in total.items() if a))


def term_dict(x):
    return {(m.derivs, m.h, m.e): c for m, c in x.terms.items()}


def textbook_terms(ring, raw):
    """The term dict of sum c * m over raw (m, c) pairs: f^r = E - u applied
    one step at a time, then equal monomials merged, all in Fraction pairs."""
    r = ring.relation_power
    merged = {}
    todo = [(merged_derivs(m.derivs), m.h, m.e, coeff_parts(c)) for m, c in raw]
    while todo:
        ds, h, e, (re, im) = todo.pop()
        if dict(ds).get(0, 0) >= r:
            rest = merged_derivs(ds, [(0, -r)])
            todo += [(rest, h, e + 1, (re, im)), (rest, h + 2, e, (-re, -im))]
            continue
        old = merged.get((ds, h, e), (Fr(0), Fr(0)))
        merged[(ds, h, e)] = (old[0] + re, old[1] + im)
    return {key: c for key, c in merged.items() if c != (0, 0)}


def textbook_product(a, b):
    return textbook_terms(a.ring, [
        (Monomial(merged_derivs(m1.derivs, m2.derivs), m1.h + m2.h, m1.e + m2.e),
         textbook_mul(c1, c2))
        for m1, c1 in a.terms.items() for m2, c2 in b.terms.items()
    ])


def textbook_derivative(x):
    r = x.ring.relation_power
    raw = []
    for m, c in x.terms.items():
        for k, a in m.derivs:
            raw.append((Monomial(merged_derivs(m.derivs, [(k, -1), (k + 1, 1)]), m.h, m.e),
                        textbook_mul(c, a)))
        if m.h:
            # (h/2) u^((h-2)/2) * (-r f^(r-1) f')
            raw.append((Monomial(merged_derivs(m.derivs, [(0, r - 1), (1, 1)]), m.h - 2, m.e),
                        textbook_mul(c, Fr(-m.h * r, 2))))
    return textbook_terms(x.ring, raw)


def assert_canonical(x):
    r = x.ring.relation_power
    numerators = [v for xy in x.num.values() for v in xy]
    assert type(x.den) is int and x.den > 0
    assert gcd(x.den, *numerators) == 1
    assert all(type(v) is int for v in numerators)
    assert all(type(key) is int and key >= 0 for key in x.num)
    assert all(xy != (0, 0) for xy in x.num.values())
    assert x.terms == {
        decode(key): (Fr(re, x.den), Fr(im, x.den))
        for key, (re, im) in x.num.items()
    }
    assert all(encode(decode(key)) == key for key in x.num)
    for m, (re, im) in x.terms.items():
        assert re or im
        assert type(re) is Fr and type(im) is Fr
        assert dict(m.derivs).get(0, 0) < r
        orders = [k for k, _ in m.derivs]
        assert orders == sorted(set(orders)) and all(k >= 0 for k in orders)
        assert all(a > 0 for _, a in m.derivs)
        assert m == (m.derivs, m.h, m.e) and hash(m) == hash((m.derivs, m.h, m.e))


@st.composite
def operand_pairs(draw):
    """(a, b) over one ring; b repeats some of a's terms, with one sign, so
    that sums or differences cancel terms."""
    ring = draw(st.sampled_from([PHI_RING, V_RING]))
    a = draw(ring_expressions(ring, max_terms=3))
    b = draw(ring_expressions(ring, max_terms=3))
    negate = draw(st.booleans())
    shared = [(m, textbook_mul(c, -1) if negate else c) for m, c in a.terms.items()
              if draw(st.booleans())]
    return a, Expression(ring, shared + list(b.terms.items()))


weights = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=6))
scalars = st.one_of(weights, coefficients)


@st.composite
def weighted_triples(draw):
    """(ring, [(w, a, b)]) with int and Fraction weights of both signs."""
    ring = draw(st.sampled_from([PHI_RING, V_RING]))
    exprs = ring_expressions(ring, max_terms=3)
    return ring, draw(st.lists(st.tuples(weights, exprs, exprs), max_size=4))


def textbook_sum_of_products(triples):
    """sum w * textbook_product(a, b), merged in Fraction pairs."""
    total = {}
    for w, a, b in triples:
        for key, c in textbook_product(a, b).items():
            re, im = textbook_mul(c, w)
            old = total.get(key, (Fr(0), Fr(0)))
            total[key] = (old[0] + re, old[1] + im)
    return {key: c for key, c in total.items() if c != (0, 0)}


class TestCanonicalKernel:
    @examples(80)
    @given(operand_pairs())
    def test_sum_difference_negation(self, pair):
        a, b = pair
        cases = [
            (a + b, list(a.terms.items()) + list(b.terms.items())),
            (a - b, list(a.terms.items()) + [(m, textbook_mul(c, -1)) for m, c in b.terms.items()]),
            (-a, [(m, textbook_mul(c, -1)) for m, c in a.terms.items()]),
        ]
        for got, raw in cases:
            assert term_dict(got) == textbook_terms(a.ring, raw)
            assert_canonical(got)

    @examples(60)
    @given(operand_pairs())
    def test_product(self, pair):
        a, b = pair
        got = a * b
        assert term_dict(got) == textbook_product(a, b)
        assert_canonical(got)

    @examples(60)
    @given(weighted_triples())
    def test_sum_of_products(self, ring_triples):
        ring, triples = ring_triples
        got = Expression.sum_of_products(ring, triples)
        assert got.ring == ring
        assert term_dict(got) == textbook_sum_of_products(triples)
        assert_canonical(got)

    @examples(40)
    @given(operand_pairs(), weights)
    def test_sum_of_products_cancels_across_triples(self, pair, w):
        # b repeats some terms of a, so a*a + a*b cancels in part, and the
        # last two sums cancel whole
        a, b = pair
        for triples in ([(w, a, a), (w, a, b)], [(w, a, b), (-w, b, a)],
                        [(w, a, b), (w, b, a), (-2 * w, a, b)]):
            got = Expression.sum_of_products(a.ring, triples)
            assert term_dict(got) == textbook_sum_of_products(triples)
            assert_canonical(got)

    def test_sum_of_products_series_convolutions(self, series12):
        # the recursion's halved convolution, -2 * sum_(k < n-k) c_k c_(n-k)
        # minus the middle square, through order 12, and the residual's
        # full one at order 12
        c = series12.coeffs
        cases = [[(1, c[k], c[12 - k]) for k in range(13)]]
        for n in range(2, 13):
            cases.append([(-2, c[k], c[n - k]) for k in range(1, (n + 1) // 2)])
            if n % 2 == 0:
                cases[-1].append((-1, c[n // 2], c[n // 2]))
        for triples in cases:
            got = Expression.sum_of_products(series12.ring, triples)
            assert term_dict(got) == textbook_sum_of_products(triples)
            assert_canonical(got)

    @pytest.mark.parametrize("ring", [PHI_RING, V_RING], ids=["phi", "V"])
    def test_sum_of_products_of_no_triples(self, ring):
        got = Expression.sum_of_products(ring, [])
        assert got.ring is ring and got.terms == {}

    def test_sum_of_products_checks_operands(self):
        v = Expression.sym(1, 1, V_RING)
        with pytest.raises(ValueError):
            Expression.sum_of_products(PHI_RING, [(1, phi(), v)])
        with pytest.raises(ValueError):
            Expression.sum_of_products(PHI_RING, [(1, v, v)])
        with pytest.raises(TypeError):
            Expression.sum_of_products(PHI_RING, [(1, phi(), 3)])

    @examples(60)
    @given(operand_pairs(), scalars)
    def test_scale(self, pair, c):
        a, _ = pair
        got = a.scale(c)
        assert term_dict(got) == textbook_terms(a.ring, [(m, textbook_mul(cc, c))
                                                         for m, cc in a.terms.items()])
        assert_canonical(got)

    @examples(60)
    @given(operand_pairs())
    def test_derivative(self, pair):
        a, _ = pair
        got = a.differentiate()
        assert term_dict(got) == textbook_derivative(a)
        assert_canonical(got)


@pytest.fixture(scope="module", params=[PHI_RING, V_RING], ids=["phi", "V"])
def series12(request):
    return generate_series(12, "minus", request.param)


class TestKernelOnRealInputs:
    def test_series_products(self, series12):
        # the order-12 coefficients carry power-of-two denominators up to
        # 2^22 (phi ring) and 2^34 (V ring)
        c = series12.coeffs
        dens = {q.denominator for x in c for cc in x.terms.values() for q in cc}
        assert max(dens) >= 2 ** 22
        for n in range(2, 13):
            for k in range(1, n // 2 + 1):
                got = c[k] * c[n - k]
                assert term_dict(got) == textbook_product(c[k], c[n - k])
                assert_canonical(got)

    def test_series_derivatives(self, series12):
        for x in series12.coeffs:
            got = x.differentiate()
            assert term_dict(got) == textbook_derivative(x)
            assert_canonical(got)

    @pytest.mark.parametrize("ring", [PHI_RING, V_RING], ids=["phi", "V"])
    def test_raw_constructor_coefficient_types(self, ring):
        m1, m2 = Monomial([(1, 2)], h=-3), Monomial([(0, 3), (2, 1)], h=1, e=-1)
        raw = [(m1, 3), (m2, Fr(5, 6)), (m1, (Fr(-1, 4), Fr(2, 3))),
               (Monomial(e=2), (0, Fr(1, 9))), (m2, -2)]
        got = Expression(ring, raw)
        assert term_dict(got) == textbook_terms(ring, raw)
        assert_canonical(got)

    def test_product_cancellation(self):
        # the ring is an integral domain, so only a zero factor makes a
        # product vanish; (f + i u^(1/2)) (f - i u^(1/2)) / E = 1 cancels
        # every other raw product, one of them only after the fold
        lead = phi() + i_times(u_half(1))
        inverse = (phi() - i_times(u_half(1))) * E_pow(-1)
        assert (lead * inverse).terms == {Monomial(): (1, 0)}
        assert (lead * Expression.zero()).terms == {}
        assert (Expression.zero(V_RING) * Expression.sym(1, 2, V_RING)).terms == {}
        relation = [(Monomial([(0, 2)]), 1), (Monomial(e=1), -1), (Monomial(h=2), 1)]
        assert Expression(PHI_RING, relation).terms == {}

    def test_relation_folds_twice(self):
        # phi^5 phi' = phi (E - u)^2 phi' and V^2 V' = (E - u)^2 V'
        for ring, a0, rest in ((PHI_RING, 5, ((0, 1), (1, 1))), (V_RING, 2, ((1, 1),))):
            got = Expression(ring, [(Monomial([(0, a0), (1, 1)]), Fr(1, 3))])
            assert term_dict(got) == {
                (rest, 0, 2): (Fr(1, 3), Fr(0)),
                (rest, 2, 1): (Fr(-2, 3), Fr(0)),
                (rest, 4, 0): (Fr(1, 3), Fr(0)),
            }
            assert_canonical(got)


class TestStorage:
    """Numerators over one denominator: the terms view rebuilds the same
    expression, and equality is equality of the printed form."""

    @examples(80)
    @given(operand_pairs())
    def test_terms_view_round_trips(self, pair):
        a, b = pair
        for x in (a, b, a + b, a - b, a * b, a.differentiate(), a.diff_E(), *a.split_real_imag()):
            assert_canonical(x)
            assert Expression(x.ring, x.terms.items()) == x

    @examples(80)
    @given(operand_pairs(), scalars)
    def test_equality_is_equality_of_json(self, pair, c):
        a, b = pair
        cases = [(a, b), (a, (a + b) - b), (a - b, -(b - a)), (a * b, b * a), (a + a, a.scale(2)),
                 (a.scale(c), Expression(a.ring, [(m, textbook_mul(cc, c))
                                                  for m, cc in a.terms.items()]))]
        for lhs, rhs in cases:
            assert (lhs == rhs) == (lhs.to_json() == rhs.to_json())
        assert (a + b) - b == a

    def test_terms_view_is_read_only(self):
        x = phi() * u_half(-1)
        with pytest.raises(TypeError):
            x.terms[Monomial()] = (1, 0)
        assert x.terms == x.terms and x.terms is not x.terms

    @pytest.mark.parametrize("ring", [PHI_RING, V_RING], ids=["phi", "V"])
    def test_zero_has_denominator_one(self, ring):
        half = Expression.const(Fr(1, 2), ring)
        zeros = (Expression.zero(ring), half - half, half.scale(0),
                 Expression(ring, [(Monomial(), Fr(0))]))
        for zero in zeros:
            assert (zero.den, zero.num) == (1, {})
            assert zero == Expression.zero(ring)

    def test_series_denominator_is_the_lcm_of_the_coefficients(self, series12):
        for x in series12.coeffs:
            assert_canonical(x)
            assert x.den == lcm(*(q.denominator for c in x.terms.values() for q in c))


class TestCoefficientForms:
    """At the edges a coefficient is an int, a Fraction or an (re, im) pair of
    them; no float enters the exact layer."""

    def test_forms_agree(self):
        x = phi(1) * u_half(-1)
        half = Expression.const(Fr(1, 2))
        assert Expression.const((Fr(1, 2), 0)) == half
        assert Expression(PHI_RING, [(Monomial(), (1, 0))]).scale(Fr(1, 2)) == half
        assert x.scale((0, 1)) == i_times(x) == x * (0, 1) == (0, 1) * x
        assert i_times(i_times(x)) == -x and i_times(Expression.zero()).is_zero()
        assert dict(i_times(half).terms) == {Monomial(): (0, Fr(1, 2))}

    @pytest.mark.parametrize("make", [
        lambda: Expression.const(0.5),
        lambda: phi().scale(0.5),
        lambda: phi().scale(1j),
        lambda: Expression(PHI_RING, [(Monomial(), 0.5)]),
        lambda: Expression(PHI_RING, [(Monomial(), (1, 0.5))]),
        lambda: phi().scale((0.5, 0)),
        lambda: phi() * 0.5,
        lambda: phi() * (Fr(1, 2), 0.5),
        lambda: Expression.const((1, 2, 3)),
    ], ids=["const", "scale", "scale-complex", "raw", "raw-pair", "scale-pair", "mul",
            "mul-pair", "triple"])
    def test_floats_and_other_forms_raise_type_error(self, make):
        with pytest.raises(TypeError):
            make()


# -- packed monomial keys --------------------------------------------------------

SPARE, BIAS = swkb.algebra._SPARE, swkb.algebra._BIAS


@st.composite
def packed_monomials(draw, ring, margin=0):
    """Monomials across the range of the packed fields, ``margin`` inside
    each end: derivative orders up to 30, exponents up to the largest a
    field holds, h and e anywhere in [-BIAS, BIAS).  The bare-symbol
    exponent stays below r."""
    derivs = draw(st.dictionaries(st.integers(1, 30), st.integers(1, SPARE - 1 - margin),
                                  max_size=4))
    derivs[0] = draw(st.integers(0, ring.relation_power - 1))
    return Monomial(derivs.items(), h=draw(st.integers(-BIAS + margin, BIAS - 1 - margin)),
                    e=draw(st.integers(-BIAS + margin, BIAS - 1 - margin)))


_rings = st.sampled_from([PHI_RING, V_RING])


def _in_range(m):
    return (all(a < SPARE for _, a in m.derivs)
            and -BIAS <= m.h < BIAS and -BIAS <= m.e < BIAS)


class TestPackedKeys:
    """Each monomial is one int: the codec round trip, key arithmetic against
    the tuple arithmetic it replaced, and the spare bit of every field."""

    @examples(100)
    @given(_rings.flatmap(lambda ring: st.tuples(packed_monomials(ring), ring_expressions(ring))))
    def test_decode_encode_round_trip(self, case):
        m, x = case
        key = encode(m)
        assert type(key) is int and key >= 0
        assert decode(key) == m and type(decode(key)) is Monomial
        for key in x.num:
            assert encode(decode(key)) == key

    @examples(100)
    @given(_rings.flatmap(lambda ring: st.tuples(packed_monomials(ring), packed_monomials(ring))))
    def test_key_sum_is_the_merged_monomial(self, pair):
        m1, m2 = pair
        merged = Monomial(merged_derivs(m1.derivs, m2.derivs), m1.h + m2.h, m1.e + m2.e)
        assume(_in_range(merged))
        assert encode(m1) + encode(m2) - swkb.algebra.KEY_ONE == encode(merged)

    @examples(60)
    @given(_rings.flatmap(lambda ring: st.lists(
        st.tuples(packed_monomials(ring, margin=4), coefficients), min_size=1, max_size=3).map(
        lambda terms: Expression(ring, terms))))
    def test_derivative_by_constant_adds_matches_the_tuple_derivative(self, x):
        # far derivative orders and exponents near the ends of their fields
        got = x.differentiate()
        assert term_dict(got) == textbook_derivative(x)
        assert_canonical(got)

    @pytest.mark.parametrize("make", [
        lambda: encode(Monomial([(1, SPARE)])),
        lambda: encode(Monomial([(3, 2 * SPARE)])),
        lambda: encode(Monomial(h=BIAS)),
        lambda: encode(Monomial(e=-BIAS - 1)),
        lambda: phi(1, SPARE // 2) * phi(1, SPARE // 2),
        lambda: u_half(BIAS - 1) * u_half(1),
        lambda: E_pow(-BIAS) * E_pow(-1),
        lambda: (phi(1) * phi(2, SPARE - 1)).differentiate(),
        lambda: u_half(-BIAS).differentiate(),
        lambda: E_pow(-BIAS).diff_E(),
        lambda: E_pow(BIAS - 1).shift_e(1),
        lambda: E_pow(0).shift_e(-4 * BIAS),
        # the fold raises h by 2q: by 6 here, and by more than a whole field
        lambda: Expression(V_RING, [(Monomial([(0, 3)], h=BIAS - 6), 1)]),
        lambda: Expression(V_RING, [(Monomial([(0, SPARE - 1)]), 1)]),
    ], ids=["encode-exponent", "encode-exponent-past-the-field", "encode-h", "encode-e",
            "product-exponent", "product-h", "product-e", "derivative-exponent",
            "derivative-h", "diff-E-e", "shift-e", "shift-e-past-the-field", "fold-h",
            "fold-past-the-field"])
    def test_leaving_a_field_raises_instead_of_carrying(self, make):
        with pytest.raises(OverflowError):
            make()
