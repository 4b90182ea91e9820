"""Golden energies of ``quantize`` and ``compare``.

The numeric layer may change how it evaluates an integrand table (the order
of sums, how powers are formed), which moves energies in the last bits.
These values pin both commands end to end to 1e-9, the tolerance the
benchmark holds its seed-0 energies to.
"""

import json

import pytest

from swkb.cli import main

ENERGY_TOL = 1e-9

# quantize, phi = x^3/3, hbar = 1, order 8, levels 0..30
CUBIC_ORDER8 = [
    0.0, 1.3367442146025152, 3.637397792622307, 6.743373437191596, 10.416922498178112,
    14.580756811081919, 19.18310418541164, 24.185786102526908, 29.559125694924866,
    35.279196305091276, 41.32617609944156, 47.68329455627047, 54.33612235947372,
    61.272072985797564, 68.4800411987703, 75.95013361152921, 83.67346321342279,
    91.64198957595704, 99.84839246066882, 108.28597035753036, 116.94855796844894,
    125.83045831787462, 134.92638631744111, 144.23142141420436, 153.74096752527254,
    163.45071887793645, 173.35663068134167, 183.45489378518758, 193.74191265461815,
    204.21428612344775, 214.86879049078505,
]

# compare, phi = x + x^3/5, hbar = 0.5, levels 0..10 at orders 0, 2 and 4
MIXED_BY_ORDER = {
    "0": [0.0, 1.1285200660698442, 2.46267117137792, 3.9596402871474856, 5.595744329161906,
          7.355360507479078, 9.227181018746267, 11.20253007500192, 13.274477987741035,
          15.437323896229422, 17.686270581927275],
    "2": [0.0, 1.1224541212756507, 2.455571346081548, 3.952402921621432, 5.588617891255722,
          7.348422359243258, 9.22045146638208, 11.196008158143883, 13.26815462707835,
          15.431187204234007, 17.680308117980662],
    "4": [0.0, 1.1221183350241288, 2.4554092646821477, 3.9523143557256546, 5.588564061936282,
          7.348387026290659, 9.220426919592754, 11.19599034990406, 13.268141259951086,
          15.431176891364537, 17.680299979640058],
}


def _run_json(capsys, tmp_path, coefficients, hbar, argv):
    path = tmp_path / "sp.json"
    path.write_text(json.dumps({"coefficients": coefficients, "hbar": hbar}))
    assert main([argv[0], "--config", str(path)] + argv[1:]) == 0
    return json.loads(capsys.readouterr().out)


def _worst(got, want):
    assert len(got) == len(want)
    return max(abs(a - b) for a, b in zip(got, want))


def test_quantize_cubic_order8(capsys, tmp_path):
    out = _run_json(capsys, tmp_path, [0.0, 0.0, 0.0, 1.0 / 3.0], 1.0,
                    ["quantize", "--order", "8", "--levels", "30", "--json"])
    got = [out["levels"][str(n)] for n in range(len(out["levels"]))]
    assert _worst(got, CUBIC_ORDER8) < ENERGY_TOL


def test_compare_mixed_orders_0_2_4(capsys, tmp_path):
    out = _run_json(capsys, tmp_path, [0.0, 1.0, 0.0, 0.2], 0.5,
                    ["compare", "--orders", "0,2,4", "--levels", "10", "--json"])
    levels = sorted(out["levels"], key=lambda r: r["n"])
    for order, want in MIXED_BY_ORDER.items():
        assert _worst([r["e_swkb"][order] for r in levels], want) < ENERGY_TOL


@pytest.mark.parametrize("coefficients, hbar, order, top", [
    ([0.0, 0.0, 0.0, 1.0 / 3.0], 1.0, 8, 29),
    ([0.0, 1.0, 0.0, 0.2], 0.5, 4, 10),
])
def test_plus_level_n_is_minus_level_n_plus_1(capsys, tmp_path, coefficients, hbar, order, top):
    # the partners share their real parts p_n, so their conditions differ
    # only by 2 pi hbar on the right: E_n(plus) = E_{n+1}(minus), exactly
    levels = {}
    for partner, highest in (("plus", top), ("minus", top + 1)):
        out = _run_json(capsys, tmp_path, coefficients, hbar,
                        ["quantize", "--order", str(order), "--levels", str(highest),
                         "--partner", partner, "--json"])
        assert out["partner"] == partner
        levels[partner] = [out["levels"][str(n)] for n in range(highest + 1)]
    assert levels["plus"] == levels["minus"][1:]
