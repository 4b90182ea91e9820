"""Golden fingerprints of the exact certificates and reports.

The benchmark fingerprints cover the ``reduce`` output, whose certificates
come from the residual sweep; these cover the certificates of the imaginary
parts and of the dropped odd-order real parts, which were recorded as
``antiderivative`` returned them and are now built in closed form.  The
``verify --order 8`` fingerprint covers the whole exact property suite,
the ``verify --order 10`` one its longer convolutions (the logs of
``series_log`` and the potential-ring substitution past order 8), and the
``reduce --max-order 10`` fingerprint the residual sweeps' longer
elimination chains past the benchmark's order 8.  The ``series --order 12``
fingerprint covers the longest products and derivatives of the exact ring
arithmetic, and the order-12 ``reduce`` and ``verify`` fingerprints the
elimination past order 10, where the sweeps are largest.  The order-8
``series`` and ``reduce`` fingerprints in text and LaTeX pin the formatting
of every coefficient; the exact strings below pin the two coefficient forms
no CLI output reaches, one with both parts and one purely imaginary.
"""

import hashlib
import json
from fractions import Fraction as Fr

import pytest

from swkb.algebra import const, i_times, phi
from swkb.cli import main
from swkb.reduction import dropped_certificates
from swkb.series import real_part_log


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# Recorded with the dense elimination the certificates were first built by;
# every certificate must stay byte-identical.
SERIES8_CERTIFICATES_SHA256 = "96dcd9ddbe75f38230c92638d0a38a46946e90a851359ba58827c8b94a4b78df"
DROPPED8_SHA256 = "0c3b15605c6f995e8cbccba69357f962614c8a66e6e0f880c5177bb93216821f"
# The whole ``verify --order 8`` report: every PASS line of the exact suite.
VERIFY8_SHA256 = "608a9c1925a240becc8e739c218f040c79ca05b7b12eca647eed46933ab18341"
# The same report through order 10, recorded before the series convolutions
# moved to ``Expression.sum_of_products``.
VERIFY10_SHA256 = "f70b1f31da8f1628eba1c67662080bd44843fe1545cc11f420ce4a766b3a6a3a"
# The reduced integrands and their certificates through order 10.
REDUCE10_SHA256 = "2bd4a825b6a18a1988226567e0429b13f2dbb02fac1454e77ce9f5d348cf5f02"
# Every series coefficient and its parts through order 12.
SERIES12_SHA256 = "883ee894cac88f58479422276f81e32575837f278b48f74eeef4bffc7865f691"
# The reduced integrands and certificates through order 12, and the whole
# ``verify --order 12`` report, recorded while the sweeps took their
# generators in ``Monomial.sort_key`` order and searched for every
# log-fixed-point certificate.
REDUCE12_SHA256 = "4077b231013f646ff284e713e07aaaed7f3b425a82850c3f1069b6c1d7018229"
VERIFY12_SHA256 = "09786215ced16dc0179a6c60e28eda386321e976a9c420cc7a2c2bdf0832a678"
# Every series coefficient and its parts, and the reduced integrands and
# certificates, through order 8 in text and LaTeX, recorded while each
# coefficient was formatted from its own rational-pair class.
TEXT_GOLDENS = {
    ("series", "--order", "8", "--format", "text"):
        "6cb2fece4e8067c62baefcc4ea6eacb72f94049895db8b7f913a01bb8c6b606e",
    ("reduce", "--max-order", "8", "--format", "text"):
        "8e74cc14445651900a338369586340f3990329d3f2fd96ec4637da810fe6c562",
    ("series", "--order", "8", "--format", "latex"):
        "42f9f02cda712240a3b6d1dfb6f49a62a6b6b512de913e37b2c9830355ce99b4",
    ("reduce", "--max-order", "8", "--format", "latex"):
        "95f9ea7fd9e7bd159f7977ef87a8333b84d6591523413fc6c0533a19b9372d51",
}


def test_golden_series_certificates(capsys):
    assert main(["series", "--order", "8", "--show-certificates", "--format", "json"]) == 0
    assert _sha256(capsys.readouterr().out) == SERIES8_CERTIFICATES_SHA256


def test_golden_dropped_certificates(split10, lseq9):
    # recorded from the searched odd real parts' certificates, which the
    # closed forms equal
    dropped = dropped_certificates(8, lseq9, real_part_log(split10, 6))
    text = json.dumps({f"{n}{part}": cert.to_json_dict()
                       for (n, part), cert in sorted(dropped.items())}, sort_keys=True)
    assert _sha256(text) == DROPPED8_SHA256


def test_golden_verify_report(capsys):
    assert main(["verify", "--order", "8"]) == 0
    assert _sha256(capsys.readouterr().out) == VERIFY8_SHA256


def test_golden_verify_report_order10(capsys):
    assert main(["verify", "--order", "10"]) == 0
    assert _sha256(capsys.readouterr().out) == VERIFY10_SHA256


def test_golden_reduce_order10(capsys):
    assert main(["reduce", "--max-order", "10", "--format", "json"]) == 0
    assert _sha256(capsys.readouterr().out) == REDUCE10_SHA256


def test_golden_series_order12(capsys):
    assert main(["series", "--order", "12", "--format", "json"]) == 0
    assert _sha256(capsys.readouterr().out) == SERIES12_SHA256


def test_golden_reduce_order12(capsys):
    assert main(["reduce", "--max-order", "12", "--format", "json"]) == 0
    assert _sha256(capsys.readouterr().out) == REDUCE12_SHA256


def test_golden_verify_report_order12(verify12_run):
    assert _sha256(verify12_run[0]) == VERIFY12_SHA256


@pytest.mark.parametrize("argv", sorted(TEXT_GOLDENS), ids=" ".join)
def test_golden_text_and_latex(capsys, argv):
    assert main(list(argv)) == 0
    assert _sha256(capsys.readouterr().out) == TEXT_GOLDENS[argv]


def test_complex_coefficient_strings():
    both = const(Fr(1, 2)) - i_times(const(Fr(1, 3)))
    minus_i = i_times(const(-1))
    assert (both.to_text(), both.to_latex()) == ("(1/2-1/3i)", r"\left(1/2-1/3i\right)")
    assert (minus_i.to_text(), minus_i.to_latex()) == ("-1i", "-i")
    assert (-both).to_text() == "(-1/2+1/3i)"
    x = phi(1) * both + phi() * minus_i
    assert x.to_text() == "-1i*d0 + (1/2-1/3i)*d1"
    assert x.to_latex() == r"-i\,\phi + \left(1/2-1/3i\right)\,{\phi'}"
