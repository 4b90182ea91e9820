from fractions import Fraction

import pytest
from hypothesis import strategies as st

from swkb.algebra import Expression, Monomial, PHI_RING
from swkb.gaussian import GaussianRational
from swkb.quadrature import PolynomialSuperpotential
from swkb.series import generate_series, l_sequence, pbar_series, split_series
from swkb.spectrum import build_conditions
from swkb.wkb import Substitution, wkb_series


@pytest.fixture(scope="session")
def series10():
    return generate_series(10, "minus")


@pytest.fixture(scope="session")
def split10(series10):
    return split_series(series10)


@pytest.fixture(scope="session")
def lseq9(series10):
    return l_sequence(9, series10)


@pytest.fixture(scope="session")
def pbar8():
    return pbar_series(8)


@pytest.fixture(scope="session")
def plus8():
    return generate_series(8, "plus")


@pytest.fixture(scope="session")
def wkb4():
    return wkb_series(4)


@pytest.fixture(scope="session")
def substitution4():
    return Substitution(4)


@pytest.fixture(scope="session")
def conditions():
    return build_conditions([0, 2, 4])


@pytest.fixture(scope="session")
def oscillator():
    return PolynomialSuperpotential([0.0, 1.0], 1.0, "oscillator")


@pytest.fixture(scope="session")
def cubic():
    return PolynomialSuperpotential([0.0, 0.0, 0.0, 1.0 / 3.0], 1.0, "x^3/3")


@pytest.fixture(scope="session")
def mixed_cubic():
    return PolynomialSuperpotential([0.0, 1.0, 0.0, 0.2], 1.0, "x + x^3/5")


def broken_plus_series(order, sign="minus"):
    """generate_series with a real term added to the plus series at order 2,
    to break the identity p_n^(+) = p_n."""
    s = generate_series(order, sign)
    if sign == "plus" and order >= 2:
        s.coeffs[2] = s.coeffs[2] + Expression.sym(2, 1) * Expression.u_pow(-2)
    return s


def _derivs_from_orders(orders):
    derivs = {}
    for k in orders:
        derivs[k] = derivs.get(k, 0) + 1
    return derivs.items()


_small_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))

_monomials = st.builds(
    Monomial,
    st.lists(st.integers(0, 3), max_size=3).map(_derivs_from_orders),
    h=st.integers(-6, 4),
    e=st.integers(-2, 2),
)

# Series coefficients are purely real or purely imaginary, and the arithmetic
# has a short branch for each kind, so each kind is drawn as often as a mixed
# value.  Integer-valued parts are passed as ints, which must be coerced.
coefficients = st.one_of(
    st.builds(GaussianRational, _small_fractions),
    st.builds(GaussianRational, st.just(0), _small_fractions),
    st.builds(GaussianRational, _small_fractions, _small_fractions),
    st.builds(GaussianRational, st.integers(-6, 6), st.integers(-6, 6)),
)


def ring_expressions(ring=PHI_RING, max_terms: int = 4):
    """Hypothesis strategy over small canonical expressions: up to
    ``max_terms`` monomials with derivative orders <= 3, u^(h/2) with
    -6 <= h <= 4 and E^e with |e| <= 2; failing cases shrink to fewer,
    simpler terms."""
    return st.lists(st.tuples(_monomials, coefficients), min_size=1,
                    max_size=max_terms).map(lambda terms: Expression(ring, terms))
