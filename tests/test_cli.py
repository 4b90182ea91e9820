import json
import os
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import swkb.antiderivative
import swkb.cli
import swkb.oracle
import swkb.quadrature
import swkb.reduction
import swkb.series
import swkb.spectrum
from swkb import wkb
from swkb.algebra import Expression, V_RING, phi, u_half
from swkb.cli import _verify_lines, main

from conftest import broken_plus_series, count_calls


@pytest.fixture()
def osc_config(tmp_path):
    path = tmp_path / "osc.json"
    path.write_text(json.dumps({"coefficients": [0.0, 1.0], "hbar": 1.0, "name": "oscillator"}))
    return str(path)


@pytest.fixture()
def cubic_config(tmp_path):
    path = tmp_path / "cubic.json"
    path.write_text(
        json.dumps({"coefficients": [0.0, 0.0, 0.0, 1.0 / 3.0], "hbar": 1.0, "name": "x^3/3"})
    )
    return str(path)


@pytest.fixture()
def integral_samples(monkeypatch):
    """The samples each contour integral of ``spectrum`` takes, in order."""
    honest = swkb.spectrum.contour_integrate
    samples = []

    def spy(*args, **kwargs):
        result = honest(*args, **kwargs)
        samples.append(result.samples_used)
        return result

    monkeypatch.setattr(swkb.spectrum, "contour_integrate", spy)
    return samples


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_series_text(capsys):
    code, out = run(capsys, ["series", "--order", "1"])
    assert code == 0
    assert "S_1' = 1/2*u^-1*d0*d1 + 1/2i*u^-1/2*d1" in out
    assert "q_1 = 1/2*u^-1/2*d1" in out


def test_series_order_zero(capsys):
    code, out = run(capsys, ["series", "--order", "0"])
    assert code == 0
    assert "S_0' = 1*u^1/2" in out


def test_series_certificates(capsys):
    code, out = run(capsys, ["series", "--order", "3", "--show-certificates"])
    assert code == 0
    assert "q_3 antiderivative = 5/16*u^-5/2*d0*d1^2 + 1/8*u^-3/2*d2" in out


def test_series_certificates_of_the_plus_series(capsys):
    # the plus series negates q_n, and its certificates come from the minus
    # series' l-sequence, negated and re-checked against its own q_n
    code, out = run(capsys, ["series", "--order", "3", "--sign", "plus", "--show-certificates"])
    assert code == 0
    assert "q_3 antiderivative = -5/16*u^-5/2*d0*d1^2 + -1/8*u^-3/2*d2" in out


def test_series_json(capsys):
    code, out = run(capsys, ["series", "--order", "2", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data[0]["expr"]["terms"][0]["h"] == 1


def test_reduce_text_shows_known_coefficients(capsys):
    code, out = run(capsys, ["reduce", "--max-order", "4"])
    assert code == 0
    assert "1/8*E^1*u^-5/2*d1^2" in out            # the -E/8 hbar^2 term (sign -1)
    assert "-49/128*E^2*u^-11/2*d1^4" in out        # the hbar^4 bracket
    assert "35/96*E^1*u^-9/2*d1^4" in out           # = (E/128)(140/3)
    assert "1/32*E^1*u^-7/2*d1*d3" in out           # = (E/128)(4)


def test_reduce_max_order_zero(capsys):
    code, out = run(capsys, ["reduce", "--max-order", "0"])
    assert code == 0
    assert "1*u^1/2" in out
    assert "order 2" not in out


def test_reduce_json(capsys):
    code, out = run(capsys, ["reduce", "--max-order", "2", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["corrections"][1]["order"] == 2
    assert data["corrections"][1]["sign_factor"] == -1
    assert data["corrections"][1]["e_degree"] == 1


def test_verify_fast_order(capsys):
    code, out = run(capsys, ["verify", "--order", "2"])
    assert code == 0
    assert "verification PASSED" in out
    assert "FAIL" not in out


def test_verify_mutation_negative_control(capsys):
    code, out = run(capsys, ["verify", "--order", "2", "--mutate"])
    assert code == 1
    assert "FAIL generating system order 2" in out
    assert "verification FAILED" in out


def test_quantize_oscillator(capsys, osc_config):
    code, out = run(capsys, ["quantize", "--config", osc_config, "--order", "0", "--levels", "3"])
    assert code == 0
    assert "E = 6.0000000000" in out


def test_quantize_json_deterministic(capsys, osc_config):
    args = ["quantize", "--config", osc_config, "--order", "0", "--levels", "2", "--json"]
    code1, out1 = run(capsys, args)
    code2, out2 = run(capsys, args)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert abs(data["levels"]["2"] - 4.0) < 1e-8


def test_quantize_is_the_same_at_any_blas_thread_count(cubic_config):
    # the monomial sums are matrix products on BLAS, whose thread count the
    # environment sets: the energies must not depend on it
    src = os.path.dirname(os.path.dirname(os.path.abspath(swkb.cli.__file__)))

    def stdout(threads):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-m", "swkb.cli", "quantize", "--config", cubic_config,
                              "--order", "8", "--levels", "30", "--json"],
                             env=env, capture_output=True, text=True, check=True)
        return out.stdout

    one = stdout("1")
    assert len(json.loads(one)["levels"]) == 31
    assert stdout("2") == one


def test_a_closed_pipe_ends_quietly_with_141():
    # the reader takes one line and closes its end; the output (150 kB)
    # outgrows the pipe's buffer, so the print meets the closed pipe
    src = os.path.dirname(os.path.dirname(os.path.abspath(swkb.cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "swkb.cli", "series", "--order", "8",
                             "--format", "json"],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"[\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 141
    assert err == b""


def test_compare_runs(capsys, cubic_config):
    code, out = run(capsys, ["compare", "--config", cubic_config, "--orders", "0,2",
                             "--levels", "1"])
    assert code == 0
    assert "E(oracle)" in out and "gap" in out


def test_oracle_json(capsys, cubic_config):
    code, out = run(capsys, ["oracle", "--config", cubic_config, "--count", "3", "--json"])
    assert code == 0
    data = json.loads(out)
    assert abs(data["oracle"]["minus"]["eigenvalues"][0]) < 1e-6


def test_oracle_solves_each_returned_grid_with_vectors_once(capsys, monkeypatch, cubic_config):
    # default_grid certifies decay on the grid it returns and hands on its
    # values: the resolution check solves only the refined grid
    calls, real = [], swkb.oracle._solve

    def spy(V, grid, count, hbar, vectors=False):
        calls.append((V.__name__, grid.points, vectors))
        return real(V, grid, count, hbar, vectors)

    monkeypatch.setattr(swkb.oracle, "_solve", spy)
    code, out = run(capsys, ["oracle", "--config", cubic_config, "--count", "3", "--json"])
    assert code == 0
    for partner, rec in json.loads(out)["oracle"].items():
        assert calls.count((f"v_{partner}", rec["points"], True)) == 1
        assert (f"v_{partner}", rec["points"], False) not in calls


def test_oracle_text(capsys, cubic_config):
    code, out = run(capsys, ["oracle", "--config", cubic_config, "--count", "3"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 8
    assert lines[0].startswith("minus: grid X=") and lines[4].startswith("plus: grid X=")
    for block in (lines[1:4], lines[5:8]):
        assert [line.split("E =")[0] for line in block] == [f"  n= {n}  " for n in range(3)]


@pytest.mark.parametrize("coefficients", [[-2.0, 0.3333333333333333], [-2.0, 1.0]])
def test_oracle_settles_a_lone_ground_state(capsys, tmp_path, coefficients):
    # one state alone sits at the bottom of V_-, where its classical
    # wavenumber is near zero, so a grid sized for it alone grew its spacing
    # with the half width and never resolved the tails; the grid is sized
    # for two states, and the one value agrees with the first of two
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"coefficients": coefficients}))
    recs = []
    for count in ("1", "2"):
        code, out = run(capsys, ["oracle", "--config", str(path), "--count", count,
                                 "--potential", "minus", "--json"])
        assert code == 0
        recs.append(json.loads(out)["oracle"]["minus"])
    one, two = recs
    assert (one["half_width"], one["points"]) == (two["half_width"], two["points"])
    assert len(one["eigenvalues"]) == 1 and len(two["eigenvalues"]) == 2
    assert abs(one["eigenvalues"][0] - two["eigenvalues"][0]) <= swkb.oracle.AGREE_REL
    assert abs(one["eigenvalues"][0]) < 1e-8


def test_numerical_failure_exits_3(capsys, tmp_path):
    # phi = x^3 - x with hbar = 0.1 puts level 1 below the barrier of phi^2:
    # three classical regions at E = 0.1, which the contour rule does not
    # handle, so a numerical failure, not a crash
    path = tmp_path / "triple_well.json"
    path.write_text(json.dumps({"coefficients": [0, -1, 0, 1], "hbar": 0.1}))
    code = main(["quantize", "--config", str(path), "--order", "0", "--levels", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == "numerical failure: 3 classical regions at E = 0.1\n"
    assert captured.out == ""


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 5 (uniqueness): the broken order-8 condition has a root "
    "near E = 0.212 at every level, more than the tolerance above the one "
    "below, and each level is accepted from the start the level below hands it"))
@pytest.mark.parametrize("hbar", [1.0, 0.5])
def test_a_spectrum_that_does_not_rise_is_not_accepted(capsys, tmp_path, hbar):
    # phi = 0.5 x + 0.2 x^3 + 2 x^5: levels 1-4 come out at 0.21229-0.21231
    # at hbar = 1 and 0.21205-0.21405 at hbar = 0.5 (the oracle's level 1 is
    # 1.12135 there), each more than the tolerance above the last, so a
    # check that E_n rises past E_(n-1) by the tolerance would pass them
    coefficients = [0.0, 0.5, 0.0, 0.2, 0.0, 2.0]
    path = tmp_path / "quintic.json"
    path.write_text(json.dumps({"coefficients": coefficients, "hbar": hbar}))
    code, out = run(capsys, ["quantize", "--config", str(path), "--order", "8",
                             "--levels", "4", "--json"])
    sp = swkb.quadrature.PolynomialSuperpotential(coefficients, hbar)
    oracle = swkb.oracle.oracle_eigenvalues(sp.v_minus, 2, hbar)
    assert code == 3 or abs(json.loads(out)["levels"]["1"] - oracle[1]) < 1e-2


def test_trailing_zero_coefficients_are_trimmed(capsys, tmp_path, cubic_config):
    # the degree and leading-coefficient checks read the trimmed list, so a
    # cubic written with a zero x^4 term is the cubic, and a quadratic with a
    # zero x^3 term is a quadratic
    argv = ["--order", "4", "--levels", "5"]
    padded = tmp_path / "padded.json"
    padded.write_text(json.dumps({"coefficients": [0, 0, 0, 1 / 3, 0], "name": "x^3/3"}))
    assert run(capsys, ["quantize", "--config", str(padded)] + argv) == \
        run(capsys, ["quantize", "--config", cubic_config] + argv)
    padded.write_text(json.dumps({"coefficients": [0, 0, 1, 0]}))
    with pytest.raises(SystemExit) as exc:
        main(["quantize", "--config", str(padded)])
    assert exc.value.code == 2
    assert "SUSY is broken for even degree 2" in capsys.readouterr().err


@pytest.mark.parametrize("coefficients, reason", [
    ([0, 0, 1], "SUSY is broken for even degree 2"),
    ([-1, 0, 1], "SUSY is broken for even degree 2"),
    ([0, 0, 0, -1], "leading coefficient -1.0 is not positive"),
    ([0, -1], "leading coefficient -1.0 is not positive"),
])
def test_superpotentials_outside_the_theory_are_usage_errors(capsys, tmp_path, coefficients, reason):
    # the action depends on phi^2 alone, so these used to get the spectrum of
    # another problem with exit 0; the grid oracle still takes any phi
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"coefficients": coefficients}))
    for command in ("quantize", "compare"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(path), "--levels", "1"])
        assert exc.value.code == 2
        assert reason in capsys.readouterr().err
    assert main(["oracle", "--config", str(path), "--count", "2"]) == 0


@pytest.mark.parametrize("config, reason", [
    ({"coefficients": [0, 0, 0, 1e308]}, "the x^6 coefficient of phi^2 overflows a float"),
    ({"coefficients": [0, 0, 0, 1], "hbar": 1e-300}, "hbar^2 underflows the normal float range"),
    ({"coefficients": [1e-200, 1, 0, 1]},
     "the x^0 coefficient of phi^2 underflows the normal float range"),
    ({"coefficients": [0, 0, 0, 1], "hbar": 1e200}, "hbar^2 overflows a float"),
])
def test_configs_outside_the_float_range_are_usage_errors(capsys, tmp_path, config, reason):
    # these used to exit 3 with "5 classical regions": overflow and
    # underflow, not the topology of phi^2, were at fault
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps(config))
    for command in ("quantize", "compare"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(path), "--levels", "1"])
        assert exc.value.code == 2
        assert f"--config {path}: {reason}\n" in capsys.readouterr().err


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(1, 5).flatmap(lambda degree: st.tuples(
    st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]),
             min_size=degree, max_size=degree),
    st.sampled_from([-1.5, -1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0, 1.5]),
    st.sampled_from([0.5, 1.0, 2.0]))))
def test_random_configs_exit_2_or_keep_the_zero_mode(capsys, case):
    # the theory holds exactly for an odd degree and a positive leading
    # coefficient: V- then has the zero mode exp(-int phi / hbar), so the
    # oracle finds E0 = 0 where quantize answers 0; any config let through
    # outside the theory gets quantize's 0 against a positive oracle E0
    lower, lead, hbar = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "phi.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"coefficients": lower + [lead], "hbar": hbar}, fh)
        try:
            code = main(["quantize", "--config", path, "--order", "2", "--levels", "0", "--json"])
        except SystemExit as exc:
            assert exc.code == 2
            assert "error:" in capsys.readouterr().err
            return
        assert code == 0
        assert json.loads(capsys.readouterr().out)["levels"]["0"] == 0.0
        assert main(["oracle", "--config", path, "--count", "2", "--potential", "minus",
                     "--json"]) == 0
        ground, _ = json.loads(capsys.readouterr().out)["oracle"]["minus"]["eigenvalues"]
        assert abs(ground) < 1e-8


@pytest.mark.parametrize("command", ["quantize", "compare", "oracle"])
def test_non_object_config_is_a_usage_error(capsys, tmp_path, command):
    path = tmp_path / "list.json"
    path.write_text("[0, 1]")
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(path)])
    assert exc.value.code == 2
    assert "config must be a JSON object" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_missing_required_flag():
    with pytest.raises(SystemExit) as exc:
        main(["quantize"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["quantize", "--config", "{cubic}", "--order", "3"],
    ["quantize", "--config", "{cubic}", "--levels", "-1"],
    ["compare", "--config", "{cubic}", "--orders", "0,3"],
    ["compare", "--config", "{cubic}", "--orders", "0,x"],
    ["compare", "--config", "{cubic}", "--orders", ""],
    ["reduce", "--max-order", "3"],
    ["series", "--order", "-1"],
    ["verify", "--order", "-1"],
    ["verify", "--order", "0"],
    ["verify", "--order", "1"],
    ["oracle", "--config", "{cubic}", "--count", "0"],
    ["quantize", "--config", "{missing}"],
    ["quantize", "--config", "{not_json}"],
    ["quantize", "--config", "{no_coefficients}"],
    ["oracle", "--config", "{constant}"],
    ["oracle", "--config", "{cubic}", "--count", "342"],
    ["compare", "--config", "{cubic}", "--levels", "340"],
    # a string of digits is not a coefficient list, JSON true is not a
    # number, and a name must be a string
    ["quantize", "--config", "{digit_string}"],
    ["quantize", "--config", "{true_coefficient}"],
    ["quantize", "--config", "{true_hbar}"],
    ["quantize", "--config", "{list_name}"],
    ["compare", "--config", "{list_name}"],
    ["oracle", "--config", "{true_hbar}"],
])
def test_usage_errors_exit_2(capsys, tmp_path, cubic_config, argv):
    configs = {"cubic": cubic_config, "missing": str(tmp_path / "missing.json")}
    for name, text in (("not_json", "{coefficients"), ("no_coefficients", '{"hbar": 1.0}'),
                       ("constant", '{"coefficients": [1.0]}'),
                       ("digit_string", '{"coefficients": "0003"}'),
                       ("true_coefficient", '{"coefficients": [0, true, 1]}'),
                       ("true_hbar", '{"coefficients": [0, 0, 1], "hbar": true}'),
                       ("list_name", '{"coefficients": [0, 0, 1], "name": ["a"]}')):
        configs[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(text)
    with pytest.raises(SystemExit) as exc:
        main([a.format(**configs) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_oracle_state_limit_fits_the_point_cap(cubic_config):
    # 341 states take a 1365-point default grid and one 2047-point
    # refinement, under the oracle's 2049-point cap; compare asks for levels + 2
    assert swkb.oracle.MAX_STATES == 341
    parse = swkb.cli.build_parser().parse_args
    assert parse(["oracle", "--config", cubic_config, "--count", "341"]).count == 341
    assert parse(["compare", "--config", cubic_config, "--levels", "339"]).levels == 339


def test_oracle_resolution_failure_exits_3(capsys, monkeypatch, cubic_config):
    monkeypatch.setattr(swkb.oracle, "MAX_POINTS", 25)
    assert main(["oracle", "--config", cubic_config, "--count", "3"]) == 3
    assert "numerical failure: the levels on half width" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["quantize", "compare", "oracle"])
@pytest.mark.parametrize("config", [
    '{"coefficients": [0, 0, 1], "hbar": NaN}',
    '{"coefficients": [0, NaN, 1]}',
    '{"coefficients": [0, 0, Infinity]}',
    '{"coefficients": [0, 0, 1], "hbar": Infinity}',
    # ints too large for a float
    '{"coefficients": [0, 0, 1], "hbar": 1%s}' % ("0" * 400),
    '{"coefficients": [0, 1%s, 1]}' % ("0" * 400),
])
def test_non_finite_config_values_are_usage_errors(capsys, tmp_path, command, config):
    # json accepts NaN, Infinity and ints of any size; they must not reach
    # the numerics
    path = tmp_path / "bad.json"
    path.write_text(config)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"swkb: error: cannot load --config {path}: coefficients and hbar must be finite"]
    assert "Traceback" not in err


def test_missing_odd_certificate_in_wkb_fails_verify(capsys, monkeypatch):
    # a missing certificate is a structural failure: a FAIL line and exit 1
    monkeypatch.setattr(wkb, "antiderivative", lambda a: None)
    code, out = run(capsys, ["verify", "--order", "4"])
    assert code == 1
    assert "FAIL odd-order coefficient 3 unexpectedly not a derivative" in out


def test_disagreeing_subtraction_routes_fail_verify(capsys, monkeypatch):
    # the verify line itself compares the two routes: a log-fixed-point
    # route that returns another integrand prints FAIL and exits 1
    original = swkb.cli.reduce_via_pbar

    def doubled(*args, **kwargs):
        corr = original(*args, **kwargs)
        return replace(corr, integrand=corr.integrand + corr.integrand)

    monkeypatch.setattr(swkb.cli, "reduce_via_pbar", doubled)
    code, out = run(capsys, ["verify", "--order", "4"])
    assert code == 1
    assert "FAIL subtraction routes agree at order 2" in out


def test_a_wrong_odd_real_certificate_fails_verify(capsys, monkeypatch):
    # the reconstruction line re-adds the closed-form certificates to the
    # kept integrands, so a sign flip of p_5's prints FAIL and exits 1
    original = swkb.cli.dropped_certificates

    def flipped(*args):
        dropped = original(*args)
        dropped[(5, "p")] = dropped[(5, "p")].scale(-1)
        return dropped

    monkeypatch.setattr(swkb.cli, "dropped_certificates", flipped)
    code, out = run(capsys, ["verify", "--order", "8"])
    assert code == 1
    assert "FAIL certificates + integrands reconstruct the series" in out


def test_a_p3_without_an_e_factor_fails_verify(capsys, monkeypatch):
    # phi' / u added to p_3 keeps its u-parity but leaves no E factor after
    # the subtraction, so the E-factorization line is the one that fails
    honest = swkb.cli.split_series

    def bent(s):
        split = honest(s)
        p = list(split.p)
        p[3] = p[3] + phi(1) * u_half(-2)
        return swkb.series.SplitSeries(p, split.q)

    monkeypatch.setattr(swkb.cli, "split_series", bent)
    code, out = run(capsys, ["verify", "--order", "4"])
    assert code == 1
    assert out == "FAIL E-factorization order 3\nverification FAILED\n"


def test_a_wrong_q_certificate_fails_series(capsys, monkeypatch):
    # series --show-certificates re-checks each q_n certificate it prints:
    # phi u^(-1/2) added to l[2] breaks the one of q_3
    honest = swkb.cli.l_sequence

    def bent(order, s):
        lseq = honest(order, s)
        lseq.l[2] = lseq.l[2] + phi() * u_half(-1)
        return lseq

    monkeypatch.setattr(swkb.cli, "l_sequence", bent)
    assert main(["series", "--order", "4", "--show-certificates"]) == 1
    err = capsys.readouterr().err
    assert "property violation: q_3 certificate failed re-check" in err


def test_verify_builds_each_series_once(monkeypatch):
    # the minus series to order + 1, the plus series, the potential-ring series
    series_calls = count_calls(monkeypatch, swkb.series, "generate_series")
    lseq_calls = count_calls(monkeypatch, swkb.series, "l_sequence")
    lines = _verify_lines(4, False)
    assert not any(line.startswith("FAIL") for line in lines)
    assert len(series_calls) == 3
    assert len(lseq_calls) == 1


def test_verify_reuses_the_odd_imaginary_certificates(monkeypatch, split10, pbar8):
    # q_3 and q_5 are checked against (i/2) l[n-1] and p-bar_2 .. p-bar_6
    # against -(1/2) (ln p-bar)_(n-1): no certificate sweep runs on any of them
    swept = count_calls(monkeypatch, swkb.antiderivative, "_sweep")
    lines = _verify_lines(6, False)
    assert "PASS odd imaginary part q_5 is a total derivative" in lines
    assert "PASS log-fixed-point coefficient 6 is a total derivative" in lines
    closed_form = pbar8[2:7] + [split10.q[3], split10.q[5]]
    assert swept and not any(args[0] == x for args in swept for x in closed_form)
    assert not hasattr(swkb.cli, "antiderivative")


def test_verify_sweeps_no_odd_real_part(monkeypatch, split10):
    # the reconstruction line re-adds the closed forms +-(1/2) (ln R)_(n-1)
    # of p_3, p_5 and p_7 exactly, so verify searches none of them; what
    # is left is the residual sweeps of the two subtraction routes and the
    # wkb searches
    swept = count_calls(monkeypatch, swkb.antiderivative, "_sweep")
    searched = count_calls(monkeypatch, swkb.antiderivative, "antiderivative")
    lines = _verify_lines(8, False)
    assert "PASS certificates + integrands reconstruct the series" in lines
    assert not any(args[0] == split10.p[n] for args in swept for n in (3, 5, 7))
    assert (len(swept), len(searched)) == (14, 4)


def test_verify_checks_each_l_identity_once(monkeypatch):
    # the "odd imaginary part" lines restate identity lines n - 1
    identities = count_calls(monkeypatch, swkb.series, "check_l_identity")
    lines = _verify_lines(8, False)
    assert "PASS odd imaginary part q_7 is a total derivative" in lines
    assert sorted(args[2] for args in identities) == list(range(1, 9))


@pytest.mark.parametrize("argv", [
    ["reduce", "--max-order", "4"],
    ["quantize", "--order", "4", "--levels", "1"],
    ["compare", "--orders", "0,4", "--levels", "1"],
])
def test_runs_without_verify_guard_the_odd_real_parts(capsys, monkeypatch, cubic_config, argv):
    # where no reconstruction line re-adds the closed forms, a missing
    # certificate of p_3 stops the run
    monkeypatch.setattr(swkb.reduction, "antiderivative", lambda x: None)
    if argv[0] != "reduce":
        argv = argv[:1] + ["--config", cubic_config] + argv[1:]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "odd-order real part p_3 has no derivative certificate" in captured.err


def test_verify_sweeps_no_nu_coefficient(monkeypatch, substitution4):
    # each nu-coefficient of V'/(E - V) is compared with the derivative of its
    # closed form, which is its certificate: no certificate sweep runs on it
    swept = count_calls(monkeypatch, swkb.antiderivative, "_sweep")
    lines = _verify_lines(4, False)
    assert "PASS log-term corrections are certified derivatives" in lines
    log_term = Expression.sym(1, 1, V_RING) * Expression.u_pow(-2, V_RING)
    nu = substitution4.apply(log_term)[1:]
    assert swept and not any(args[0] == x for args in swept for x in nu)


@pytest.mark.parametrize("levels", [2, 0])
def test_compare_solves_each_root_once(capsys, cubic_config, monkeypatch, levels):
    # --levels 0 also solves level 1, for the degeneracy row n = 1
    solves = count_calls(monkeypatch, swkb.spectrum, "solve_level")
    code, out = run(capsys, ["compare", "--config", cubic_config, "--orders", "0,2",
                             "--levels", str(levels), "--json"])
    assert code == 0
    assert len(solves) == (max(levels, 1) + 1) * 2
    data = json.loads(out)
    assert [row["n"] for row in data["levels"]] == list(range(levels + 1))
    assert [(row["n"], row["order"]) for row in data["degeneracy"]] == [
        (n, order) for order in (0, 2) for n in range(1, max(levels, 1) + 1)
    ]


def test_compare_solves_a_repeated_order_once(capsys, tmp_path, monkeypatch, cubic_config):
    # 0,0,2 prints what 0,2 prints, from the same action calls on one table
    # of two (A, A', A'') blocks; the first occurrence keeps its place,
    # since 2,0 lists its degeneracy rows first
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"coefficients": [0.0, 1.0, 0.0, 0.2], "hbar": 0.5}))
    parse = swkb.cli.build_parser().parse_args
    assert parse(["compare", "--config", cubic_config, "--orders", "2,0,2,0"]).orders == [2, 0]
    actions = count_calls(monkeypatch, swkb.spectrum, "action")
    compiles = count_calls(monkeypatch, swkb.spectrum, "compile_integrands")
    outs, calls = [], []
    for orders in ("0,2", "0,0,2"):
        code, out = run(capsys, ["compare", "--config", str(path), "--orders", orders,
                                 "--levels", "3"])
        assert code == 0
        outs.append(out)
        calls.append((len(actions), [len(args[0]) for args in compiles]))
        actions.clear()
        compiles.clear()
    assert outs[0] == outs[1]
    assert calls == [(10, [6]), (10, [6])]


def test_quantize_starts_each_level_from_the_one_below(capsys, cubic_config, monkeypatch):
    honest = swkb.spectrum.solve_level
    starts = []

    def spy(cond, sp, n, start=None, peer=None):
        starts.append((start, peer))
        return honest(cond, sp, n, start, peer)

    monkeypatch.setattr(swkb.spectrum, "solve_level", spy)
    actions = count_calls(monkeypatch, swkb.spectrum, "action")
    code, out = run(capsys, ["quantize", "--config", cubic_config, "--order", "8",
                             "--levels", "30", "--json"])
    assert code == 0
    levels = json.loads(out)["levels"]
    # one order has no other order's root to take as its peer
    assert starts == [(None, None)] + [(levels[str(n)], None) for n in range(30)]
    assert len(actions) <= 6 * 30


def test_quantize_carries_each_root_into_the_next_solve(capsys, cubic_config, monkeypatch):
    # level 0 is analytic and level 1 starts cold; every later level starts
    # one step off the last evaluations of the level below, without
    # evaluating its start again (97 calls in all when each solve does;
    # test_acceptance holds the tighter budget of the curvature-aware step)
    actions = count_calls(monkeypatch, swkb.spectrum, "action")
    code, _ = run(capsys, ["quantize", "--config", cubic_config, "--order", "8",
                           "--levels", "30", "--json"])
    assert code == 0
    assert len(actions) <= 68


def test_compare_reduces_the_series_once(capsys, cubic_config, monkeypatch):
    # the minus series once for every order, plus the plus series for the
    # degeneracy check
    series_calls = count_calls(monkeypatch, swkb.series, "generate_series")
    lseq_calls = count_calls(monkeypatch, swkb.series, "l_sequence")
    qc_calls = count_calls(monkeypatch, swkb.reduction, "quantization_integrands")
    code, _ = run(capsys, ["compare", "--config", cubic_config, "--orders", "0,2,4",
                           "--levels", "1", "--json"])
    assert code == 0
    assert [len(series_calls), len(lseq_calls), len(qc_calls)] == [2, 1, 1]


def test_quantize_small_hbar_at_order_8(capsys, tmp_path, integral_samples):
    # rows weighted by hbar^8 = 3.9e-11 need not settle on their own: only
    # the two weighted sums that action reads are held to a tolerance
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps({"coefficients": [0.0, 0.0, 0.0, 1.0 / 3.0], "hbar": 0.05}))
    code, _ = run(capsys, ["quantize", "--config", str(path), "--order", "8", "--levels", "5"])
    assert code == 0
    assert integral_samples and sum(integral_samples) <= 16384


def test_workload_integrals_settle_within_their_sample_bounds(capsys, tmp_path, cubic_config,
                                                             integral_samples):
    # a settling rule that adds samples would show here before any benchmark.
    # The cubic's analytic strip starts it at 256 samples, so every integral
    # settles at 512; the mixed well's wider strip starts it at 64 or 128
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps({"coefficients": [0.0, 1.0, 0.0, 0.2], "hbar": 0.5}))
    assert run(capsys, ["quantize", "--config", cubic_config, "--order", "8", "--levels", "5"])[0] == 0
    assert integral_samples and set(integral_samples) == {512}
    integral_samples.clear()
    assert run(capsys, ["compare", "--config", str(mixed), "--orders", "0,2,4", "--levels", "3"])[0] == 0
    assert integral_samples and max(integral_samples) <= 256
    assert sum(integral_samples) <= 512 * len(integral_samples) // 2


def test_a_row_that_is_not_finite_fails_at_its_first_level(capsys, tmp_path):
    # at hbar = 1e-100 the sqrt(u) power ladder of x^3 overflows, so row 0 is
    # NaN from the first level on and no finer level can mend it: the run
    # names the row at once, without numpy's overflow warnings
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"coefficients": [0, 0, 0, 1], "hbar": 1e-100}))
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["quantize", "--config", str(path), "--order", "2", "--levels", "1"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 3 and "row 0 is not finite at 256 samples" in err
    assert elapsed < 0.2


def test_one_run_keeps_every_unit_circle_cached(capsys, tmp_path, cubic_config):
    # every (samples, shift) angle set a workload's run asks for stays in
    # _unit_circle's cache: none is computed twice
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps({"coefficients": [0.0, 1.0, 0.0, 0.2], "hbar": 0.5}))
    for argv in (["quantize", "--config", cubic_config, "--order", "8", "--levels", "30"],
                 ["compare", "--config", str(mixed), "--orders", "0,2,4", "--levels", "10"]):
        swkb.quadrature._unit_circle.cache_clear()
        assert run(capsys, argv)[0] == 0
        info = swkb.quadrature._unit_circle.cache_info()
        assert info.hits and info.misses == info.currsize


def test_compare_fails_when_plus_real_parts_differ(capsys, cubic_config, monkeypatch):
    monkeypatch.setattr(swkb.spectrum, "generate_series", broken_plus_series)
    code = main(["compare", "--config", cubic_config, "--orders", "0,2", "--levels", "1"])
    assert code == 1
    assert "real part p_2 of the plus series" in capsys.readouterr().err
