import importlib
import sys
from collections import Counter
from fractions import Fraction as Fr
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import swkb.algebra
import swkb.reduction
from swkb.algebra import Expression, Monomial, PHI_RING, V_RING, decode, encode, phi, u_half
from swkb.antiderivative import (
    DerivativeSweep,
    _derivative_row,
    _pivot_key,
    _sweep,
    _window_generators,
    antiderivative,
)
from swkb.cli import _verify_lines, main
from swkb.errors import StructuralTheoremViolation

from conftest import E_pow, ring_expressions


def test_q3_certificate_matches_closed_form(split10):
    # antiderivative of the third imaginary part: (1/16)(5 f f'^2 u^{-5/2} + 2 f'' u^{-3/2})
    y = antiderivative(split10.q[3])
    expect = (phi() * phi(1, 2) * u_half(-5)).scale(Fr(5, 16)) + (phi(2) * u_half(-3)).scale(
        Fr(2, 16)
    )
    assert y == expect


def test_widening_finds_shifted_half_power():
    # E f' u^{-3/2} integrates to f u^{-1/2}
    x = E_pow(1) * phi(1) * u_half(-3)
    y = antiderivative(x)
    assert y == phi() * u_half(-1)
    # 3 E f' u^{-5/2} integrates to f u^{-3/2} + 2 E^{-1} f u^{-1/2}, whose
    # E- and u-powers lie two steps outside the one window antiderivative
    # sweeps: it answers None, and the window widened by 2 holds the certificate
    x = (E_pow(1) * phi(1) * u_half(-5)).scale(3)
    assert antiderivative(x) is None
    cert = phi() * u_half(-3) + (E_pow(-1) * phi() * u_half(-1)).scale(2)
    assert _sweep(x, 2)[:2] == (Expression.zero(), cert)


def test_failed_recheck_raises(monkeypatch):
    # an elimination that returns a wrong certificate is caught by the exact re-check
    monkeypatch.setattr(DerivativeSweep, "normal_form", lambda self, x: (Expression.zero(), phi()))
    with pytest.raises(StructuralTheoremViolation):
        antiderivative(E_pow(1) * phi(1) * u_half(-3))


def test_sqrt_u_has_no_antiderivative():
    assert antiderivative(u_half(1)) is None


def test_log_derivative_has_no_antiderivative():
    # f f' / u is the log-derivative obstruction; no ring certificate exists
    assert antiderivative((phi() * phi(1) * u_half(-2)).scale(Fr(1, 2))) is None


def test_zero_certificate_for_zero():
    y = antiderivative(Expression.zero())
    assert y is not None and y.is_zero()


def test_mixed_weight_inputs():
    y0 = phi(1, 2) * u_half(-3) + (phi() * phi(2)).scale(Fr(2, 5)) + u_half(3)
    a = y0.differentiate()
    y = antiderivative(a)
    assert y is not None and y.differentiate() == a


_rings_and_expressions = st.sampled_from([PHI_RING, V_RING]).flatmap(
    lambda ring: st.tuples(st.just(ring), ring_expressions(ring, max_terms=3)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_rings_and_expressions)
def test_certificates_are_sound_on_generated_roundtrips(case):
    # d/dx is injective off the pure E-powers, so the certificate is y0
    # itself once those are removed
    ring, y0 = case
    pure_e = Expression(ring, [(m, c) for m, c in y0.terms.items() if not m.derivs and not m.h])
    assert antiderivative(y0.differentiate()) == y0 - pure_e


@pytest.mark.parametrize("part, n", [("p", 3), ("p", 5), ("p", 7), ("q", 3)])
def test_certificate_is_independent_of_the_window(split10, part, n):
    x = getattr(split10, part)[n]
    cert = antiderivative(x)
    for widen in range(4):
        assert _sweep(x, widen)[:2] == (Expression.zero(), cert)


def _scan_reduce(sweep, row):
    """Reference for ``DerivativeSweep._reduce``: clear each row's pivot in
    echelon order, testing every row."""
    scale = 1
    for pivot, prow in sweep.rows:
        if pivot not in row:
            continue
        g = gcd(row[pivot], prow[pivot])
        c, d = row[pivot] // g, prow[pivot] // g
        scale *= d
        for key in row:
            row[key] *= d
        for key, v in prow.items():
            row[key] = row.get(key, 0) - c * v
            if not row[key]:
                del row[key]
    return scale


class TestEngine:
    A = encode(Monomial([(0, 1)], h=-1))    # f u^(-1/2)
    B = encode(Monomial([(1, 1)], h=-3))    # f' u^(-3/2)
    CONST = encode(Monomial(e=1))           # E: zero derivative

    def target(self):
        return (Expression(PHI_RING, [(decode(self.A), 2)]) +
                Expression(PHI_RING, [(decode(self.B), Fr(-1, 3))])).differentiate()

    def test_dependent_columns_are_dropped(self):
        # the repeated generator and the constant add nothing to the span
        base = DerivativeSweep(PHI_RING, [self.A, self.B])
        padded = DerivativeSweep(PHI_RING, [self.A, self.CONST, self.B, self.A])
        assert len(base.rows) == len(padded.rows) == 2
        assert base.normal_form(self.target()) == padded.normal_form(self.target())
        kept, cert = padded.normal_form(self.target())
        assert kept.is_zero()
        assert cert == phi() * u_half(-1).scale(2) - (phi(1) * u_half(-3)).scale(Fr(1, 3))

    def test_inconsistent_rhs_returns_none(self):
        # the span misses u^(1/2), which is left over next to the certified part
        sweep = DerivativeSweep(PHI_RING, [self.A, self.B])
        kept, cert = sweep.normal_form(self.target() + u_half(1))
        assert kept == u_half(1)
        assert cert == sweep.normal_form(self.target())[1]
        assert antiderivative(self.target() + u_half(1)) is None

    @pytest.mark.parametrize("part, n", [("q", 5), ("p", 6), ("q", 7)])
    def test_reduce_takes_the_steps_of_a_scan_over_every_row(self, split10, monkeypatch, part, n):
        # _reduce visits only the rows whose pivots the vector holds; the
        # reference visits every row in echelon order and must leave the
        # same integers, in the rows the sweep builds and in a reduction
        x = getattr(split10, part)[n]
        gens = _window_generators(x, 1, None)
        fast = DerivativeSweep(x.ring, gens)
        monkeypatch.setattr(DerivativeSweep, "_reduce", _scan_reduce)
        slow = DerivativeSweep(x.ring, gens)
        monkeypatch.undo()
        assert fast.rows == slow.rows and len(fast.rows) > 10
        vec = {key: re + im for key, (re, im) in x.num.items() if re + im}
        fast_row, slow_row = dict(vec), dict(vec)
        assert fast._reduce(fast_row) == _scan_reduce(fast, slow_row)
        assert fast_row == slow_row

    def test_imaginary_and_mixed_rhs(self):
        y_re = (phi() * phi(1, 2) * u_half(-5)).scale(Fr(5, 16))
        y_im = phi(2) * u_half(-3)
        imag = y_im.scale((0, Fr(2, 7)))
        assert antiderivative(imag.differentiate()) == imag
        mixed = y_re.scale((3, -1)) + imag
        assert antiderivative(mixed.differentiate()) == mixed


# -- the integer kernel against Expression arithmetic and a Fraction oracle ----


@st.composite
def canonical_monomials(draw, ring):
    """Canonical monomials of ``ring``: bare-symbol exponent below r, any
    sign of h, possibly constant."""
    derivs = {k: draw(st.integers(0, 2)) for k in range(1, 4)}
    derivs[0] = draw(st.integers(0, ring.relation_power - 1))
    return Monomial(derivs.items(), h=draw(st.integers(-7, 5)), e=draw(st.integers(-2, 2)))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([PHI_RING, V_RING]).flatmap(
    lambda ring: st.tuples(st.just(ring), canonical_monomials(ring))))
@example((PHI_RING, Monomial([(0, 1), (2, 1)], h=-3, e=1)))   # f^(r-1), h != 0: the fold fires
@example((PHI_RING, Monomial([(0, 1)], h=2)))                 # fold whose terms cancel
@example((V_RING, Monomial([(1, 2)], h=-5, e=-1)))            # negative h
@example((PHI_RING, Monomial(e=-2)))                          # constants have an empty row
@example((V_RING, Monomial()))
def test_derivative_row_is_twice_the_derivative(case):
    ring, m = case
    row = _derivative_row(ring, encode(m))
    expect = Expression(ring, [(m, 1)]).differentiate().scale(2)
    assert all(type(c) is int and c for c in row.values())
    assert {decode(key): (c, 0) for key, c in row.items()} == expect.terms


def test_derivative_row_rejects_non_canonical_generator():
    with pytest.raises(StructuralTheoremViolation):
        _derivative_row(PHI_RING, encode(Monomial([(0, 2)], h=1)))


def test_derivative_row_raises_where_h_leaves_its_field():
    # d u^(h/2) lowers h by 2, below the bias of the packed h field here
    key = encode(Monomial([(1, 1)], h=-swkb.algebra._BIAS))
    with pytest.raises(OverflowError):
        _derivative_row(PHI_RING, key)


def _axpy(acc: dict, c: Fr, src: dict) -> None:
    """acc += c * src in place, storing no zero entries."""
    for key, v in src.items():
        new = acc.get(key, 0) + c * v
        if new:
            acc[key] = new
        else:
            del acc[key]


class FractionSweep:
    """The elimination the integer kernel replaced, kept as its oracle: rows
    of ``Fraction``s normalized to 1 at the pivot, reduced with ``_axpy``,
    derivatives taken in ``Expression`` arithmetic, keyed by ``Monomial``."""

    def __init__(self, ring, generators):
        self.ring = ring
        self.generators = [decode(m) for m in generators]
        self.rows = []
        for j, m in enumerate(self.generators):
            d = Expression(ring, [(m, 1)]).differentiate()
            vec = {mm: re for mm, (re, _) in d.terms.items()}
            taken = self._reduce(vec)
            if not vec:
                continue
            pivot = max(vec, key=lambda mm: _pivot_key(encode(mm)))
            inv = 1 / vec[pivot]
            comb = {i: -c * inv for i, c in taken.items()}
            comb[j] = inv
            self.rows.append((pivot, {mm: c * inv for mm, c in vec.items()}, comb))

    def _reduce(self, vec):
        taken = {}
        for pivot, pvec, pcomb in self.rows:
            c = vec.get(pivot)
            if c is None:
                continue
            _axpy(vec, -c, pvec)
            _axpy(taken, c, pcomb)
        return taken

    def normal_form(self, x):
        re = {m: c[0] for m, c in x.terms.items() if c[0]}
        im = {m: c[1] for m, c in x.terms.items() if c[1]}
        cert_re, cert_im = self._reduce(re), self._reduce(im)
        kept = Expression(
            self.ring, [(m, (re.get(m, 0), im.get(m, 0))) for m in re.keys() | im.keys()]
        )
        cert = Expression(
            self.ring,
            [(self.generators[i], (cert_re.get(i, 0), cert_im.get(i, 0)))
             for i in cert_re.keys() | cert_im.keys()],
        )
        return kept, cert


def _assert_engines_agree(ring, generators, rhs):
    sweep, oracle = DerivativeSweep(ring, generators), FractionSweep(ring, generators)
    assert [p for p, _ in sweep.rows] == [encode(p) for p, _, _ in oracle.rows]
    for (_, row), (_, ovec, ocomb) in zip(sweep.rows, oracle.rows):
        # each integer row's monomial part is the normalized row times its
        # pivot entry s, and its generator part, doubled (a row is twice a
        # derivative), the oracle's combination times s
        vec = {key: c for key, c in row.items() if key >= 0}
        comb = {~key: c for key, c in row.items() if key < 0}
        s = vec[max(vec, key=_pivot_key)]
        assert s > 0
        assert vec == {encode(m): c * s for m, c in ovec.items()}
        assert {i: Fr(2 * c) for i, c in comb.items()} == {i: c * s for i, c in ocomb.items()}
    for x in rhs:
        kept, cert = sweep.normal_form(x)
        assert (kept, cert) == oracle.normal_form(x)
        assert kept + cert.differentiate() == x


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_rings_and_expressions, st.booleans())
def test_engine_matches_fraction_oracle_on_sweep_generators(case, keep_e_divisible):
    ring, x = case
    min_e = x.min_e_degree() if keep_e_divisible and not x.is_zero() else None
    _assert_engines_agree(ring, _window_generators(x, 1, min_e), [x, x.differentiate()])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_rings_and_expressions, st.data())
def test_engine_matches_fraction_oracle_with_duplicates_and_constants(case, data):
    ring, x = case
    gens = _window_generators(x, 1, None)
    constants = st.integers(-2, 2).map(lambda e: encode(Monomial(e=e)))
    pool = st.one_of(st.sampled_from(gens), constants) if gens else constants
    for m in data.draw(st.lists(pool, min_size=1, max_size=6)):
        gens.insert(data.draw(st.integers(0, len(gens))), m)
    _assert_engines_agree(ring, gens, [x, x.differentiate()])


@pytest.mark.parametrize("n", [5, 6])
def test_engine_matches_fraction_oracle_on_series_parts(split10, n):
    # the long elimination chains of a real series coefficient
    x = split10.p[n]
    _assert_engines_agree(x.ring, _window_generators(x, 1, None), [x, x.shift_e(1)])


def test_verify_unpacks_keys_only_for_output(capsys, monkeypatch):
    # the exact layer runs on packed keys: during verify --order 8 a key is
    # decoded only by ``terms`` for output, the sweep's generators and
    # pivot priorities are read from the key fields (each priority at most
    # once per sweep), and no monomial tuple is packed, unpacked or built
    # while the product, derivative, fold or elimination loop runs
    algebra = importlib.import_module("swkb.algebra")
    anti = importlib.import_module("swkb.antiderivative")
    loops = {algebra.Expression.sum_of_products.__code__, algebra.Expression.differentiate.__code__,
             algebra._fold.__code__, anti.DerivativeSweep._reduce.__code__}
    calls = Counter()

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            caller = sys._getframe(1)
            while caller.f_code.co_name.startswith("<"):  # a comprehension's own frame
                caller = caller.f_back
            calls[name, caller.f_code.co_name] += 1
            frame = caller
            while frame is not None:
                assert frame.f_code not in loops, f"{name} under {frame.f_code.co_name}"
                frame = frame.f_back
            return fn(*args, **kwargs)
        return wrapper

    assert not hasattr(anti, "encode")
    monkeypatch.setattr(algebra, "encode", spy("encode", algebra.encode))
    wrapper = spy("decode", algebra.decode)
    for mod in (algebra, anti):
        monkeypatch.setattr(mod, "decode", wrapper)
    monkeypatch.setattr(algebra.Monomial, "__new__",
                        staticmethod(spy("Monomial", algebra.Monomial.__new__)))
    # a sweep built and a sweep extended each open a new index; an
    # extension shares its base's priorities, so it asks only for new keys
    sweeps, priorities = [], Counter()
    honest_init, honest_extended = anti.DerivativeSweep.__init__, anti.DerivativeSweep.extended
    honest_pivot_key = anti._pivot_key

    def init(self, ring, generators):
        sweeps.append("built")
        honest_init(self, ring, generators)

    def extended(self, generators):
        sweeps.append("extended")
        return honest_extended(self, generators)

    def pivot_key(key):
        priorities[len(sweeps), key] += 1
        return honest_pivot_key(key)

    monkeypatch.setattr(anti.DerivativeSweep, "__init__", init)
    monkeypatch.setattr(anti.DerivativeSweep, "extended", extended)
    monkeypatch.setattr(anti, "_pivot_key", spy("_pivot_key", pivot_key))
    assert main(["verify", "--order", "8"]) == 0
    assert capsys.readouterr().out.endswith("verification PASSED at order 8\n")
    by_name = {}
    for name, caller in calls:
        by_name.setdefault(name, set()).add(caller)
    assert by_name["decode"] == {"terms"}
    assert Counter(sweeps) == {"built": 10, "extended": 4} and max(priorities.values()) == 1
    assert by_name.get("encode", set()) <= {"__init__"}


def _pivot_key_reference(key):
    """``_pivot_key`` as first written: the priority tuple read off the
    decoded monomial, with the higher derivative orders expanded by
    multiplicity and sorted."""
    ds, h, e = decode(key)
    a0 = ds[0][1] if ds and ds[0][0] == 0 else 0
    higher = sorted((k for k, a in ds if k >= 2 for _ in range(a)), reverse=True)
    second = higher[1] if len(higher) >= 2 else 0
    top = higher[0] if higher else 0
    return (a0, len(higher), second, -top, ds, -h, e)


def test_pivot_key_matches_the_decoding_reference(verify12_run):
    keys = verify12_run[1]
    assert len(keys) > 1000
    assert all(_pivot_key(key) == _pivot_key_reference(key) for key in keys)


@pytest.fixture(scope="module")
def verify8_sweeps():
    """(x, widen, min_e) of every certificate sweep of ``verify --order 8``:
    the residual sweeps of both subtraction routes and the searches of the
    wkb checks, each as the sweep of its whole window."""
    cases = []

    def spy(x, widen, min_e=None, base=None):
        cases.append((x, widen, min_e))
        return _sweep(x, widen, min_e, base)

    with pytest.MonkeyPatch.context() as mp:
        for mod in (importlib.import_module("swkb.antiderivative"), swkb.reduction):
            mp.setattr(mod, "_sweep", spy)
        _verify_lines(8, False)
    return cases


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_normal_form_is_independent_of_the_generator_order(verify8_sweeps, data):
    # the rows' pivots are the leading monomials of the span in any order,
    # so the pivot set, kept and cert are those of ascending key order
    x, widen, min_e = data.draw(st.sampled_from(verify8_sweeps))
    gens = _window_generators(x, widen, min_e)
    assert gens == sorted(set(gens))
    ordered = DerivativeSweep(x.ring, gens)
    permuted = DerivativeSweep(x.ring, data.draw(st.permutations(gens)))
    assert {p for p, _ in permuted.rows} == {p for p, _ in ordered.rows}
    assert permuted.normal_form(x) == ordered.normal_form(x)


def _assert_rows_hold_their_combinations(sweep):
    # a row of the augmented matrix [2 D(g) | I]: its monomial part is the
    # sum of its generator coefficients times those generators' derivative rows
    assert sweep.rows
    for pivot, row in sweep.rows:
        assert pivot >= 0 and row[pivot] > 0
        comb = {~key: c for key, c in row.items() if key < 0}
        assert comb
        total = Counter()
        for j, c in comb.items():
            for key, v in _derivative_row(sweep.ring, sweep.generators[j]).items():
                total[key] += c * v
        assert {key: v for key, v in total.items() if v} == \
            {key: c for key, c in row.items() if key >= 0}


def test_each_row_holds_its_derivative_part_and_the_combination_behind_it(verify8_sweeps):
    for x, widen, min_e in verify8_sweeps:
        _assert_rows_hold_their_combinations(
            DerivativeSweep(x.ring, _window_generators(x, widen, min_e)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_an_extended_sweep_is_the_sweep_of_the_whole_window(verify8_sweeps, data):
    # rows are never changed once inserted, so a sweep of A extended by B
    # spans what a sweep of A + B spans, with the same leading monomials:
    # the pivot set and the normal form do not depend on the split
    x, widen, min_e = data.draw(st.sampled_from(verify8_sweeps))
    gens = _window_generators(x, widen, min_e)
    first = data.draw(st.sets(st.sampled_from(gens)))
    base = DerivativeSweep(x.ring, [m for m in gens if m in first])
    whole = DerivativeSweep(x.ring, gens)
    grown = base.extended([m for m in gens if m not in first])
    assert sorted(grown.generators) == gens
    assert {p for p, _ in grown.rows} == {p for p, _ in whole.rows}
    assert grown.normal_form(x) == whole.normal_form(x)
    _assert_rows_hold_their_combinations(grown)


def test_extending_leaves_the_base_sweep_as_it_was(verify8_sweeps):
    # the p-bar route of each order extends the F*Q route's sweep; the
    # F*Q sweep keeps its generators, rows and normal form
    for x, widen, min_e in verify8_sweeps:
        gens = _window_generators(x, widen, min_e)
        base = DerivativeSweep(x.ring, gens[::2])
        rows, before = [(p, dict(row)) for p, row in base.rows], base.normal_form(x)
        grown = base.extended(gens[1::2])
        assert len(grown.rows) >= len(rows)
        assert base.generators == gens[::2] and base.rows == rows
        assert all(a is b for a, b in zip(grown.rows, base.rows))
        assert base.normal_form(x) == before


def test_the_f_q_window_lies_in_the_p_bar_window_at_every_order(monkeypatch):
    # the normal form is unique on a span, so the p-bar route extending
    # the F*Q route's sweep gives the integrand of a fresh sweep of W2 only
    # where W1 lies in W2
    windows = {}
    honest = swkb.reduction._sweep

    def spy(x, widen, min_e=None, base=None):
        if base is not None:
            assert set(base.generators) <= set(_window_generators(x, widen, min_e))
            windows[len(base.generators)] = len(_window_generators(x, widen, min_e))
        return honest(x, widen, min_e, base)

    monkeypatch.setattr(swkb.reduction, "_sweep", spy)
    lines = _verify_lines(12, False)
    assert "PASS subtraction routes agree at order 12" in lines
    assert windows == {4: 4, 13: 21, 57: 67, 165: 177, 403: 417, 877: 893}
