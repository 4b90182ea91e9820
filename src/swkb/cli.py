"""Command-line surface: series / reduce / verify / quantize / compare / oracle.

Exit codes: 0 success, 1 property violation, 2 usage error (an invalid
argument value, an unreadable ``--config`` file, or for ``quantize`` and
``compare`` a superpotential of even degree or nonpositive leading
coefficient, or one whose phi^2 or hbar^2 leaves the normal float range),
3 numerical non-convergence, 141 (128 + SIGPIPE) the reader of stdout
closed it before the output ended.  Output is deterministic for a
fixed set of flags.
"""

from __future__ import annotations

import argparse
import json
# argparse's first parse calls gettext, which imports locale: loading it with
# the module keeps that import out of every command's run
import locale  # noqa: F401
import math
import os
import sys
from typing import List, Optional

from .algebra import Expression, i_times
from .errors import SwkbError, StructuralTheoremViolation
from .oracle import MAX_STATES, default_grid, eigenvalues, oracle_eigenvalues
from .quadrature import PolynomialSuperpotential
from .reduction import (
    decompose,
    dropped_certificates,
    known_integrand_order2,
    known_integrand_order4,
    quantization_integrands,
    reconstruction_residual,
    reduce_via_pbar,
    require_odd_real_certificates,
)
from .series import (
    HALF,
    generate_series,
    split_series,
    l_sequence,
    check_l_identity,
    partner_via_log_identity,
    partner_via_imag_shift,
    pbar_certificates,
    pbar_series,
    generating_system_check,
    imag_relation_check,
    real_part_log,
    SplitSeries,
)
from .spectrum import build_conditions, compare_report, solve_levels
from .wkb import MAX_SUBSTITUTION_ORDER, wkb_series_and_substitute

DEFAULT_VERIFY_ORDER = 8


def _emit_expr(x: Expression, fmt: str) -> str:
    if fmt == "latex":
        return x.to_latex()
    return x.to_text()


# -- subcommands ---------------------------------------------------------------


def cmd_series(args) -> int:
    s = generate_series(args.order, args.sign)
    split = split_series(s)
    if args.show_certificates and args.order >= 2:
        # q_n = ((i/2) l[n-1])' on the minus series; the plus series negates q_n
        minus = s if args.sign == "minus" else generate_series(args.order, "minus")
        lseq = l_sequence(args.order - 1, minus)
        half = HALF if args.sign == "minus" else -HALF
    out = []
    for n in range(args.order + 1):
        certify = args.show_certificates and n >= 2 and not split.q[n].is_zero()
        cert = i_times(lseq.l[n - 1]).scale(half) if certify else None
        if certify and cert.differentiate() != split.q[n]:
            raise StructuralTheoremViolation(f"q_{n} certificate failed re-check")
        if args.format == "json":
            rec = {
                "order": n,
                "sign": args.sign,
                "expr": s.coeffs[n].to_json_dict(),
                "p": split.p[n].to_json_dict(),
                "q": split.q[n].to_json_dict(),
            }
            if certify:
                rec["q_certificate"] = cert.to_json_dict()
            out.append(rec)
        else:
            out.append(f"S_{n}' = {_emit_expr(s.coeffs[n], args.format)}")
            out.append(f"  p_{n} = {_emit_expr(split.p[n], args.format)}")
            out.append(f"  q_{n} = {_emit_expr(split.q[n], args.format)}")
            if certify:
                out.append(f"  q_{n} antiderivative = {_emit_expr(cert, args.format)}")
    print(json.dumps(out, indent=2) if args.format == "json" else "\n".join(out))
    return 0


def cmd_reduce(args) -> int:
    s = generate_series(args.max_order, "minus")
    lseq = l_sequence(max(args.max_order - 1, 0), s)
    split = split_series(s)
    corrections = quantization_integrands(args.max_order, split, lseq)
    require_odd_real_certificates(args.max_order, split)
    records = []
    for corr in corrections:
        records.append(
            {
                "order": corr.order,
                "sign_factor": corr.sign_factor,
                "integrand": corr.integrand.to_json_dict()
                if args.format == "json"
                else _emit_expr(corr.integrand, args.format),
                "certificate": corr.certificate.to_json_dict()
                if args.format == "json"
                else _emit_expr(corr.certificate, args.format),
                "e_degree": corr.e_degree,
            }
        )
    if args.format == "json":
        print(json.dumps({"max_order": args.max_order, "constant_pi": True,
                          "corrections": records}, indent=2))
        return 0
    lines = [
        "quantization condition: leading integral + even corrections = 2 n pi hbar",
        "(the first-order term contributes the constant pi moved to the right side)",
    ]
    for rec in records:
        lines.append(f"order {rec['order']}  sign {rec['sign_factor']:+d}  "
                     f"E-degree {rec['e_degree']}")
        lines.append(f"  integrand   = {rec['integrand']}")
        lines.append(f"  certificate = {rec['certificate']}")
    print("\n".join(lines))
    return 0


def _verify_lines(order: int, mutate: bool) -> List[str]:
    """Run the exact property suite; raise StructuralTheoremViolation on the
    first failure (after printing the failing line)."""
    lines: List[str] = []

    def check(name: str, ok: bool, detail: str = ""):
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
        if not ok:
            raise StructuralTheoremViolation(name)

    s = generate_series(order + 1, "minus")
    sp = generate_series(order, "plus")
    split = split_series(s)

    for n in range(order + 1):
        check(f"riccati residual (minus) order {n}", s.riccati_residual(n).is_zero())
    for n in range(order + 1):
        check(f"riccati residual (plus) order {n}", sp.riccati_residual(n).is_zero())

    for n in range(order + 1):
        parity_p = split.p[n].u_parity()
        parity_q = None if split.q[n].is_zero() else split.q[n].u_parity()
        want_p = "all-odd-half" if n % 2 == 0 else "all-even"
        want_q = "all-even" if n % 2 == 0 else "all-odd-half"
        ok = parity_p == want_p and (parity_q is None or parity_q == want_q)
        check(f"u-parity split order {n}", ok, f"p={parity_p} q={parity_q}")

    lseq = l_sequence(order, s)
    l_prime = lseq.derivatives()
    l_identity = {n: check_l_identity(l_prime, split, n) for n in range(1, order + 1)}
    for n, ok in l_identity.items():
        check(f"imag-part certificate identity n={n}", ok)

    via_log = partner_via_log_identity(s, l_prime, order)
    via_shift = partner_via_imag_shift(s, split, order)
    for n in range(order + 1):
        check(
            f"partner series order {n}",
            via_log.coeffs[n] == sp.coeffs[n] == via_shift.coeffs[n],
        )
    # nothing below reads the plus series or l': let them go before the sweeps
    del sp, via_log, via_shift, l_prime

    for n in range(3, order + 1, 2):
        # its certificate is (i/2) l[n-1]: the identity line n-1 above
        # restated, which has already passed, so this line cannot fail
        check(f"odd imaginary part q_{n} is a total derivative", l_identity[n - 1])
    pb = pbar_series(order)
    check("log-fixed-point leading coefficient", pb[0] == Expression.u_pow(1))
    check("log-fixed-point first coefficient equals first real part",
          pb[1] == split.p[1])
    pbar_certs = pbar_certificates(pb)
    for n, cert in pbar_certs.items():
        check(f"log-fixed-point coefficient {n} is a total derivative",
              cert.differentiate() == pb[n])

    alphas = {}
    for n in range(1, order + 1):
        try:
            alphas[n] = decompose(n, split)[0]
            ok = True
        except StructuralTheoremViolation:
            ok = False
        check(f"E-factorization order {n}", ok)

    checked = split
    if mutate:
        # negative control: perturb one coefficient of q_2 and re-run
        bad_q = list(split.q)
        bad_q[2] = bad_q[2] + Expression.sym(2, 1) * Expression.u_pow(-2)
        checked = SplitSeries(split.p, bad_q)
    gs = generating_system_check(min(order, 6), checked)
    for entry in gs.entries:
        check(f"generating system order {entry.order}", entry.ok, entry.detail)
    # ln R once: the imaginary-part relation reads its derivatives through
    # order min(order, 6) - 1, the odd real parts' certificates its
    # coefficients through max_order - 2
    max_order = order - order % 2
    ln_r = real_part_log(split, max(min(order, 6) - 1, max_order - 2))
    ir = imag_relation_check(min(order, 6), split, ln_r)
    for entry in ir.entries:
        check(f"imaginary-part relation order {entry.order}", entry.ok, entry.detail)

    # each order's F*Q residual sweep is extended by the log-fixed-point
    # route of that order, whose window holds it, and then let go
    sweeps = {}
    corrections = quantization_integrands(max_order, split, lseq, alphas, sweeps)
    for corr in corrections[1:]:
        check(
            f"reduced integrand order {corr.order} has overall E factor",
            corr.e_degree >= 1,
            f"e_degree={corr.e_degree}",
        )
        alt = reduce_via_pbar(corr.order, split, pb, pbar_certs[corr.order],
                              base=sweeps.pop(corr.order))
        check(f"subtraction routes agree at order {corr.order}",
              alt.integrand == corr.integrand)
    check("order-2 integrand equals the known closed form",
          corrections[1].integrand == known_integrand_order2())
    if max_order >= 4:
        check("order-4 integrand equals the known bracket",
              corrections[2].integrand == -known_integrand_order4())
    res = reconstruction_residual(s, corrections, dropped_certificates(max_order, lseq, ln_r))
    check("certificates + integrands reconstruct the series",
          all(r.is_zero() for r in res))

    series_match, log_term, condition = wkb_series_and_substitute(
        min(MAX_SUBSTITUTION_ORDER, order), s)
    check("substituted series matches", series_match.all_ok)
    check("log-term corrections are certified derivatives", log_term.all_ok)
    check("substituted simplified condition matches modulo derivatives", condition.all_ok)

    lines.append("")
    lines.append("per-order structure (exploration record):")
    for n in range(order + 1):
        pq = "p" if n % 2 == 0 else "q"
        kept = split.p[n] if n % 2 == 0 else split.q[n]
        e_deg = "-" if kept.is_zero() else str(kept.min_e_degree())
        lines.append(
            f"  order {n}: {pq}-parity {kept.u_parity() if not kept.is_zero() else '-'},"
            f" min E-degree {e_deg}, terms {kept.term_count()}"
        )
    return lines


def cmd_verify(args) -> int:
    try:
        lines = _verify_lines(args.order, args.mutate)
    except StructuralTheoremViolation as exc:
        print(f"FAIL {exc}")
        print("verification FAILED")
        return 1
    print("\n".join(lines))
    print(f"verification PASSED at order {args.order}")
    return 0


def cmd_quantize(args) -> int:
    sp = args.sp
    conds = build_conditions([args.order])
    # the partners share one action, so plus level n is minus level n + 1
    shift = args.partner == "plus"
    energies = solve_levels(conds, sp, args.levels + shift)[args.order][shift:]
    if args.json:
        print(json.dumps({
            "superpotential": sp.to_json_dict(),
            "order": args.order,
            "partner": args.partner,
            "levels": {str(n): e for n, e in enumerate(energies)},
        }, indent=2, sort_keys=True))
        return 0
    print(f"superpotential {sp.name or sp.coefficients}  hbar={sp.hbar}  "
          f"partner={args.partner}  order={args.order}")
    for n, e in enumerate(energies):
        print(f"  n={n:2d}  E = {e:.10f}")
    return 0


def cmd_compare(args) -> int:
    sp = args.sp
    count = args.levels + 2
    oracle_vals = oracle_eigenvalues(sp.v_minus, count, sp.hbar)
    rep = compare_report(sp, args.orders, args.levels, oracle_vals)
    print(rep.to_json() if args.json else rep.to_text())
    return 0


def cmd_oracle(args) -> int:
    sp = args.sp
    out = {}
    for partner in ("minus", "plus") if args.potential == "both" else (args.potential,):
        V = sp.potential(partner)
        grid, coarse = default_grid(V, args.count, sp.hbar)
        vals = eigenvalues(V, grid, args.count, sp.hbar, coarse=coarse)
        out[partner] = {
            "half_width": grid.half_width,
            "points": grid.points,
            "eigenvalues": [float(v) for v in vals],
        }
    if args.json:
        print(json.dumps({"superpotential": sp.to_json_dict(), "oracle": out},
                         indent=2, sort_keys=True))
        return 0
    for partner, rec in out.items():
        print(f"{partner}: grid X={rec['half_width']} N={rec['points']}")
        for n, v in enumerate(rec["eigenvalues"]):
            print(f"  n={n:2d}  E = {v:.10f}")
    return 0


def _float_range_error(sp: PolynomialSuperpotential) -> Optional[str]:
    """Why hbar^2 or a coefficient of phi^2, from which the action and the
    turning points are computed, leaves the normal float range, or None:
    a product or sum that overflows to inf, or a product of nonzero
    factors below the smallest normal float, which has lost precision."""
    products = {"hbar^2": [(sp.hbar, sp.hbar)]}
    for i, a in enumerate(sp.coefficients):
        for j, b in enumerate(sp.coefficients):
            products.setdefault(f"the x^{i + j} coefficient of phi^2", []).append((a, b))
    for name, pairs in products.items():
        terms = [a * b for a, b in pairs]
        if not math.isfinite(sum(terms)) or not all(map(math.isfinite, terms)):
            return f"{name} overflows a float"
        if any(a and b and abs(t) < sys.float_info.min for (a, b), t in zip(pairs, terms)):
            return f"{name} underflows the normal float range"
    return None


# -- argument values -------------------------------------------------------------


def _at_least(low: int, most: Optional[int] = None):
    """argparse type: an integer >= ``low`` and, if ``most`` is given, <= ``most``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if most is not None and value > most:
            raise argparse.ArgumentTypeError(f"must be <= {most}, got {value}")
        return value
    return parse


def _even_order(text: str) -> int:
    """argparse type: an even truncation order >= 0."""
    value = _at_least(0)(text)
    if value % 2:
        raise argparse.ArgumentTypeError(f"truncation order must be even, got {value}")
    return value


def _even_orders(text: str) -> List[int]:
    """argparse type: a non-empty comma list of even truncation orders, each
    kept once where it first appears (the order of the list orders the
    degeneracy rows, so it is not sorted)."""
    return list(dict.fromkeys(_even_order(t) for t in text.split(",")))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="swkb", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("series", help="print series coefficients and their parts")
    ps.add_argument("--order", type=_at_least(0), default=4)
    ps.add_argument("--sign", choices=("minus", "plus"), default="minus")
    ps.add_argument("--show-certificates", action="store_true")
    ps.add_argument("--format", choices=("text", "json", "latex"), default="text")
    ps.set_defaults(fn=cmd_series)

    pr = sub.add_parser("reduce", help="print reduced quantization integrands")
    pr.add_argument("--max-order", type=_even_order, default=4)
    pr.add_argument("--format", choices=("text", "json", "latex"), default="text")
    pr.set_defaults(fn=cmd_reduce)

    pv = sub.add_parser("verify", help="run the exact property suite")
    pv.add_argument("--order", type=_at_least(2), default=DEFAULT_VERIFY_ORDER)
    pv.add_argument("--mutate", action="store_true",
                    help="inject a wrong coefficient (negative control, must fail)")
    pv.set_defaults(fn=cmd_verify)

    pq = sub.add_parser("quantize", help="solve levels of the truncated condition")
    pq.add_argument("--config", required=True, help="superpotential JSON file")
    pq.add_argument("--order", type=_even_order, default=4)
    pq.add_argument("--levels", type=_at_least(0), default=4, help="highest level index")
    pq.add_argument("--partner", choices=("minus", "plus"), default="minus")
    pq.add_argument("--json", action="store_true")
    pq.set_defaults(fn=cmd_quantize)

    pc = sub.add_parser("compare", help="levels vs the grid oracle, plus degeneracy")
    pc.add_argument("--config", required=True)
    pc.add_argument("--orders", type=_even_orders, default="0,2,4",
                    help="comma-separated even orders")
    # MAX_STATES is the most the oracle's capped grids hold; compare asks for levels + 2
    pc.add_argument("--levels", type=_at_least(0, most=MAX_STATES - 2), default=3)
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(fn=cmd_compare)

    po = sub.add_parser("oracle", help="grid eigenvalues of the partner potentials")
    po.add_argument("--config", required=True)
    po.add_argument("--count", type=_at_least(1, most=MAX_STATES), default=5)
    po.add_argument("--potential", choices=("minus", "plus", "both"), default="both")
    po.add_argument("--json", action="store_true")
    po.set_defaults(fn=cmd_oracle)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "config"):
        try:
            args.sp = PolynomialSuperpotential.load(args.config)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            parser.error(f"cannot load --config {args.config}: {exc}")
        # V- holds the zero mode exp(-int phi / hbar) only for an odd degree
        # and a positive leading coefficient (Cooper, Khare & Sukhatme,
        # Phys. Rep. 251 (1995) 267); the action, a function of phi^2 alone,
        # cannot tell, so a solve would answer for another spectrum
        if args.fn in (cmd_quantize, cmd_compare):
            degree, lead = len(args.sp.coefficients) - 1, args.sp.coefficients[-1]
            if degree % 2 == 0:
                parser.error(f"--config {args.config}: SUSY is broken for even degree {degree}")
            if lead <= 0:
                parser.error(f"--config {args.config}: leading coefficient {lead} is not "
                             f"positive, so the zero mode is not in V-")
            reason = _float_range_error(args.sp)
            if reason:
                parser.error(f"--config {args.config}: {reason}")
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone (``swkb ... | head``): as the Python docs on
        # SIGPIPE advise, point stdout at devnull so that the interpreter's
        # last flush cannot raise again, and end quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except StructuralTheoremViolation as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return 1
    except SwkbError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
