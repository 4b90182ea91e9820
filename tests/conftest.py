import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from swkb.algebra import Expression, Monomial, PHI_RING
from swkb.gaussian import GaussianRational
from swkb.quadrature import PolynomialSuperpotential
from swkb.series import generate_series, l_sequence, pbar_series, split_series
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


def random_expression(rng: random.Random, ring=PHI_RING, max_terms: int = 4) -> Expression:
    """Small random canonical expression for property loops."""
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        derivs = {}
        for _ in range(rng.randint(0, 3)):
            k = rng.randint(0, 3)
            derivs[k] = derivs.get(k, 0) + 1
        coef = GaussianRational(
            Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
            Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
        )
        m = Monomial(derivs.items(), h=rng.randint(-6, 4), e=rng.randint(-2, 2))
        terms.append((m, coef))
    return Expression(ring, terms)


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

_coefficients = st.builds(GaussianRational, _small_fractions, _small_fractions)


def ring_expressions(ring=PHI_RING, max_terms: int = 4):
    """Hypothesis strategy over small canonical expressions of the kind
    ``random_expression`` draws; failing cases shrink to fewer, simpler terms."""
    return st.lists(st.tuples(_monomials, _coefficients), min_size=1,
                    max_size=max_terms).map(lambda terms: Expression(ring, terms))
