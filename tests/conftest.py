import contextlib
import io
import sys
from fractions import Fraction

import pytest
from hypothesis import strategies as st

import swkb.antiderivative
from swkb.algebra import Expression, Monomial, PHI_RING
from swkb.cli import main
from swkb.quadrature import PolynomialSuperpotential, compile_integrands
from swkb.series import generate_series, l_sequence, pbar_series, split_series
from swkb.spectrum import build_conditions
from swkb.wkb import Substitution, wkb_series


def E_pow(e: int) -> Expression:
    """E^e in the superpotential ring."""
    return Expression.e_pow(e, PHI_RING)


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
def verify12_run():
    """The stdout of ``verify --order 12`` and the set of packed keys whose
    pivot priority its certificate sweeps asked for."""
    keys = set()
    honest = swkb.antiderivative._pivot_key

    def spy(key):
        keys.add(key)
        return honest(key)

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(swkb.antiderivative, "_pivot_key", spy)
        assert main(["verify", "--order", "12"]) == 0
    return out.getvalue(), keys


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
def condition8():
    return build_conditions([8])[8]


def _row_table(cond):
    """One table row per correction's integrand, then one per its
    E-derivative, in the same order: every row on its own, unweighted."""
    integrands = [c.integrand for c in cond.corrections]
    return compile_integrands(integrands + [x.diff_E() for x in integrands])


@pytest.fixture(scope="session")
def table8(condition8):
    return _row_table(condition8)


@pytest.fixture(scope="session")
def table4(conditions):
    return _row_table(conditions[4])


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

# Series coefficients are purely real or purely imaginary, so each kind is
# drawn as often as a mixed value.  A real value comes as a bare rational,
# the others as (re, im) pairs, some of ints.
coefficients = st.one_of(
    _small_fractions,
    st.tuples(st.just(0), _small_fractions),
    st.tuples(_small_fractions, _small_fractions),
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
)


def ring_expressions(ring=PHI_RING, max_terms: int = 4):
    """Hypothesis strategy over small canonical expressions: up to
    ``max_terms`` monomials with derivative orders <= 3, u^(h/2) with
    -6 <= h <= 4 and E^e with |e| <= 2; failing cases shrink to fewer,
    simpler terms."""
    return st.lists(st.tuples(_monomials, coefficients), min_size=1,
                    max_size=max_terms).map(lambda terms: Expression(ring, terms))


def count_calls(monkeypatch, module, name):
    """Count the calls of ``module.name`` through every swkb namespace that
    bound it; returns the list the calls are appended to."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if (mod_name == "swkb" or mod_name.startswith("swkb.")) and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls
