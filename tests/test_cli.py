import json
import sys

import pytest

import swkb.reduction
import swkb.series
import swkb.spectrum
from swkb import wkb
from swkb.cli import _verify_lines, main

from conftest import broken_plus_series


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
])
def test_usage_errors_exit_2(capsys, tmp_path, cubic_config, argv):
    configs = {"cubic": cubic_config, "missing": str(tmp_path / "missing.json")}
    for name, text in (("not_json", "{coefficients"), ("no_coefficients", '{"hbar": 1.0}'),
                       ("constant", '{"coefficients": [1.0]}')):
        configs[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(text)
    with pytest.raises(SystemExit) as exc:
        main([a.format(**configs) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_missing_odd_certificate_in_wkb_fails_verify(capsys, monkeypatch):
    # a missing certificate is a structural failure: a FAIL line and exit 1
    monkeypatch.setattr(wkb, "antiderivative", lambda a, max_widen=3: None)
    code, out = run(capsys, ["verify", "--order", "4"])
    assert code == 1
    assert "FAIL odd-order coefficient 3 unexpectedly not a derivative" in out


def _count_calls(monkeypatch, module, name):
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


def test_verify_builds_each_series_once(monkeypatch):
    # the minus series to order + 1, the plus series, the potential-ring series
    series_calls = _count_calls(monkeypatch, swkb.series, "generate_series")
    lseq_calls = _count_calls(monkeypatch, swkb.series, "l_sequence")
    lines = _verify_lines(4, False)
    assert not any(line.startswith("FAIL") for line in lines)
    assert len(series_calls) == 3
    assert len(lseq_calls) == 1


@pytest.mark.parametrize("levels", [2, 0])
def test_compare_solves_each_root_once(capsys, cubic_config, monkeypatch, levels):
    # --levels 0 also solves level 1, for the degeneracy row n = 1
    solves = _count_calls(monkeypatch, swkb.spectrum, "solve_level")
    code, out = run(capsys, ["compare", "--config", cubic_config, "--orders", "0,2",
                             "--levels", str(levels), "--json"])
    assert code == 0
    assert len(solves) == (max(levels, 1) + 1) * 2
    data = json.loads(out)
    assert [row["n"] for row in data["levels"]] == list(range(levels + 1))
    assert [(row["n"], row["order"]) for row in data["degeneracy"]] == [
        (n, order) for order in (0, 2) for n in range(1, max(levels, 1) + 1)
    ]


def test_compare_reduces_the_series_once(capsys, cubic_config, monkeypatch):
    # the minus series once for every order, plus the plus series for the
    # degeneracy check
    series_calls = _count_calls(monkeypatch, swkb.series, "generate_series")
    lseq_calls = _count_calls(monkeypatch, swkb.series, "l_sequence")
    qc_calls = _count_calls(monkeypatch, swkb.reduction, "quantization_integrands")
    code, _ = run(capsys, ["compare", "--config", cubic_config, "--orders", "0,2,4",
                           "--levels", "1", "--json"])
    assert code == 0
    assert [len(series_calls), len(lseq_calls), len(qc_calls)] == [2, 1, 1]


def test_compare_fails_when_plus_real_parts_differ(capsys, cubic_config, monkeypatch):
    monkeypatch.setattr(swkb.spectrum, "generate_series", broken_plus_series)
    code = main(["compare", "--config", cubic_config, "--orders", "0,2", "--levels", "1"])
    assert code == 1
    assert "real part p_2 of the plus series" in capsys.readouterr().err
