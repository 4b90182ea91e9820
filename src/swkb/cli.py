"""Command-line surface: series / reduce / verify / quantize / compare / oracle.

Exit codes: 0 success, 1 property violation, 2 usage error (an invalid
argument value or an unreadable ``--config`` file), 3 numerical
non-convergence.  Output is deterministic for a fixed set of
flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .algebra import Expression
from .antiderivative import antiderivative
from .errors import SwkbError, StructuralTheoremViolation
from .oracle import default_grid, eigenvalues
from .quadrature import PolynomialSuperpotential
from .reduction import (
    decompose,
    known_integrand_order2,
    known_integrand_order4,
    quantization_integrands,
    reconstruction_residual,
    reduce_via_pbar,
)
from .series import (
    generate_series,
    split_series,
    l_sequence,
    check_l_identity,
    partner_via_log_identity,
    partner_via_imag_shift,
    pbar_series,
    generating_system_check,
    imag_relation_check,
    SplitSeries,
)
from .spectrum import build_conditions, compare_report, solve_level
from .wkb import MAX_SUBSTITUTION_ORDER, wkb_series_and_substitute

DEFAULT_VERIFY_ORDER = 8


def _emit_expr(x: Expression, fmt: str) -> str:
    if fmt == "json":
        return x.to_json()
    if fmt == "latex":
        return x.to_latex()
    return x.to_text()


# -- subcommands ---------------------------------------------------------------


def cmd_series(args) -> int:
    s = generate_series(args.order, args.sign)
    split = split_series(s)
    out = []
    for n in range(args.order + 1):
        if args.format == "json":
            rec = {
                "order": n,
                "sign": args.sign,
                "expr": s.coeffs[n].to_json_dict(),
                "p": split.p[n].to_json_dict(),
                "q": split.q[n].to_json_dict(),
            }
            if args.show_certificates and n >= 2 and not split.q[n].is_zero():
                cert = antiderivative(split.q[n])
                rec["q_certificate"] = None if cert is None else cert.to_json_dict()
            out.append(rec)
        else:
            out.append(f"S_{n}' = {_emit_expr(s.coeffs[n], args.format)}")
            out.append(f"  p_{n} = {_emit_expr(split.p[n], args.format)}")
            out.append(f"  q_{n} = {_emit_expr(split.q[n], args.format)}")
            if args.show_certificates and n >= 2 and not split.q[n].is_zero():
                cert = antiderivative(split.q[n])
                shown = "none found" if cert is None else _emit_expr(cert, args.format)
                out.append(f"  q_{n} antiderivative = {shown}")
    print(json.dumps(out, indent=2) if args.format == "json" else "\n".join(out))
    return 0


def cmd_reduce(args) -> int:
    s = generate_series(args.max_order, "minus")
    lseq = l_sequence(max(args.max_order - 1, 0), s)
    qc = quantization_integrands(args.max_order, s, split_series(s), lseq)
    records = []
    for corr in qc.corrections:
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
    for n in range(1, order + 1):
        check(f"imag-part certificate identity n={n}", check_l_identity(lseq, split, n))

    via_log = partner_via_log_identity(s, order)
    direct = sp
    via_shift = partner_via_imag_shift(s, split, order)
    for n in range(order + 1):
        check(
            f"partner series order {n}",
            via_log.coeffs[n] == direct.coeffs[n] == via_shift.coeffs[n],
        )

    for n in range(3, order + 1, 2):
        check(f"odd imaginary part q_{n} is a total derivative",
              antiderivative(split.q[n]) is not None)
    pb = pbar_series(order)
    check("log-fixed-point leading coefficient", pb.coeffs[0] == Expression.u_pow(1))
    check("log-fixed-point first coefficient equals first real part",
          pb.coeffs[1] == split.p[1])
    pbar_certs = {n: antiderivative(pb.coeffs[n]) for n in range(2, order + 1)}
    for n, cert in pbar_certs.items():
        check(f"log-fixed-point coefficient {n} is a total derivative", cert is not None)

    for n in range(1, order + 1):
        try:
            decompose(n, split)
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
    ir = imag_relation_check(min(order, 6), split)
    for entry in ir.entries:
        check(f"imaginary-part relation order {entry.order}", entry.ok, entry.detail)

    qc = quantization_integrands(order - order % 2, s, split, lseq)
    for corr in qc.corrections[1:]:
        check(
            f"reduced integrand order {corr.order} has overall E factor",
            corr.e_degree >= 1,
            f"e_degree={corr.e_degree}",
        )
        alt = reduce_via_pbar(corr.order, split, pb, reference=corr,
                              pbar_cert=pbar_certs[corr.order])
        check(f"subtraction routes agree at order {corr.order}",
              alt.integrand == corr.integrand)
    check("order-2 integrand equals the known closed form",
          qc.corrections[1].integrand == known_integrand_order2())
    if qc.max_order >= 4:
        check("order-4 integrand equals the known bracket",
              qc.corrections[2].integrand == -known_integrand_order4())
    res = reconstruction_residual(qc)
    check("certificates + integrands reconstruct the series",
          all(r.is_zero() for r in res))

    wk = wkb_series_and_substitute(min(MAX_SUBSTITUTION_ORDER, order), s)
    check("substituted series matches", wk.series_match.all_ok)
    check("log-term corrections are certified derivatives", wk.log_term.all_ok)
    check("substituted simplified condition matches modulo derivatives",
          wk.condition.all_ok)

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
    cond = build_conditions([args.order])[args.order]
    energies = [solve_level(cond, sp, n, args.partner) for n in range(args.levels + 1)]
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
    grid = default_grid(sp.v_minus, count, sp.hbar)
    oracle_vals = eigenvalues(sp.v_minus, grid, count, sp.hbar)
    rep = compare_report(sp, args.orders, args.levels, oracle_vals)
    print(rep.to_json() if args.json else rep.to_text())
    return 0


def cmd_oracle(args) -> int:
    sp = args.sp
    out = {}
    for partner in ("minus", "plus") if args.potential == "both" else (args.potential,):
        V = sp.potential(partner)
        grid = default_grid(V, args.count, sp.hbar)
        vals = eigenvalues(V, grid, args.count, sp.hbar)
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


# -- argument values -------------------------------------------------------------


def _at_least(low: int):
    """argparse type: an integer >= ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _even_order(text: str) -> int:
    """argparse type: an even truncation order >= 0."""
    value = _at_least(0)(text)
    if value % 2:
        raise argparse.ArgumentTypeError(f"truncation order must be even, got {value}")
    return value


def _even_orders(text: str) -> List[int]:
    """argparse type: a non-empty comma list of even truncation orders."""
    return [_even_order(t) for t in text.split(",")]


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
    pc.add_argument("--levels", type=_at_least(0), default=3)
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(fn=cmd_compare)

    po = sub.add_parser("oracle", help="grid eigenvalues of the partner potentials")
    po.add_argument("--config", required=True)
    po.add_argument("--count", type=_at_least(1), default=5)
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
    try:
        return args.fn(args)
    except StructuralTheoremViolation as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return 1
    except SwkbError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
