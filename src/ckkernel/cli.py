"""Command-line front end.

Subcommands: certify, rk, check-bounds, report.  JSON goes to stdout when
--json is given, a human-readable table otherwise; diagnostics go to
stderr.  Exit codes: 0 success, 1 usage/domain error, 2 inconclusive
certification or precision error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .errors import DomainError, PrecisionError
from .kernel import Certificate, _check_weight, certify, global_bound, per_k_bound, r_k
from .lfunction import central_values
from .petersson import kohnen_triangle

SCHEMA_VERSION = "1"


def _certificate_dict(cert: Certificate) -> dict:
    return {
        "weight": cert.k,
        "rho": cert.rho.value,
        "rho_abs_err": cert.rho.abs_err,
        "per_k_bound": cert.per_k_bound,
        "global_bound": cert.global_bound,
        "nonvanishing": cert.nonvanishing,
        "sign": cert.sign,
    }


def _build_report(weight: int, eps: float, with_triangle: bool) -> tuple[dict, Certificate]:
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    cert = certify(weight, eps)
    timings["certify"] = (time.perf_counter() - t0) * 1000.0

    t0 = time.perf_counter()
    values = central_values(weight, eps)
    lvals = [
        {"form_index": i, "value": lv.value, "abs_err": lv.abs_err}
        for i, (_, lv) in enumerate(values)
    ]
    timings["l_values"] = (time.perf_counter() - t0) * 1000.0

    triangle = None
    if with_triangle and weight <= 28:
        t0 = time.perf_counter()
        tri = kohnen_triangle(weight, cert.value, values)
        timings["triangle"] = (time.perf_counter() - t0) * 1000.0
        triangle = {
            "lhs": tri.lhs.value,
            "lhs_abs_err": tri.lhs.abs_err,
            "rhs": tri.rhs.value,
            "rhs_abs_err": tri.rhs.abs_err,
            "ratio": tri.ratio,
        }

    report = {
        "schema_version": SCHEMA_VERSION,
        "weight": weight,
        "certificate": _certificate_dict(cert),
        "l_values": lvals,
        "triangle": triangle,
        "timings_ms": timings,
    }
    return report, cert


def _print_certificate(cert: Certificate, out) -> None:
    out.write(
        f"k={cert.k}: rho = {cert.rho.value:.15g} ± {cert.rho.abs_err:.3g}  "
        f"per-k bound = {cert.per_k_bound:.6g}  "
        f"nonvanishing = {cert.nonvanishing}  sign = {cert.sign:+d}\n"
    )


def _cmd_certify(args) -> int:
    cert = certify(args.weight, args.eps)
    if args.json:
        report = {
            "schema_version": SCHEMA_VERSION,
            "weight": args.weight,
            "certificate": _certificate_dict(cert),
        }
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        _print_certificate(cert, sys.stdout)
    return 0 if cert.nonvanishing else 2


def _cmd_rk(args) -> int:
    coeff = r_k(args.weight, args.n, args.eps)
    sys.stdout.write(
        f"r_{args.weight}({args.n}) = {coeff.value.value:.15g} ± {coeff.value.abs_err:.3g}\n"
        f"rho = {coeff.rho.value:.15g} ± {coeff.rho.abs_err:.3g}   terms used: {coeff.terms_used}\n"
    )
    return 0


def _cmd_check_bounds(args) -> int:
    g = global_bound()
    sys.stdout.write(f"global bound 2(2pi/7)(2pi/8)^5 zeta(6)^2 = {g:.15g}\n")
    sys.stdout.write(f"1 - bound = {1.0 - g:.15g} (> 0)\n")
    sys.stdout.write("per-weight bounds:\n")
    prev = None
    for k in range(12, 41, 4):
        b = per_k_bound(k)
        marker = "" if prev is None or b < prev else "  (NOT monotone)"
        sys.stdout.write(f"  k={k:3d}  {b:.15g}{marker}\n")
        prev = b
    if not g < 1.0:
        sys.stderr.write("global bound is not below 1\n")
        return 2
    return 0


def _parse_weights(text: str) -> list[int]:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            start = stop = int(parts[0])
            step = 4
        elif len(parts) == 3:
            start, stop, step = (int(p) for p in parts)
        else:
            raise ValueError
    except ValueError:
        raise DomainError(f"malformed weight range {text!r}; expected start:stop:step")
    if step < 1 or stop < start:
        raise DomainError(f"malformed weight range {text!r}")
    return [_check_weight(k) for k in range(start, stop + 1, step)]


def _cmd_report(args) -> int:
    weights = _parse_weights(args.weights)
    reports = []
    all_ok = True
    for k in weights:
        report, cert = _build_report(k, args.eps, args.triangle)
        reports.append(report)
        all_ok = all_ok and cert.nonvanishing
    if args.json:
        json.dump(reports, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        for report in reports:
            cert = report["certificate"]
            sys.stdout.write(
                f"k={report['weight']}: rho = {cert['rho']:.15g} "
                f"nonvanishing = {cert['nonvanishing']} sign = {cert['sign']:+d}\n"
            )
            for lv in report["l_values"]:
                sys.stdout.write(
                    f"    L(f_{lv['form_index']}, k/2) = {lv['value']:.15g} "
                    f"± {lv['abs_err']:.3g}\n"
                )
            if report["triangle"] is not None:
                tri = report["triangle"]
                sys.stdout.write(
                    f"    triangle: lhs = {tri['lhs']:.15g}  rhs = {tri['rhs']:.15g}  "
                    f"ratio = {tri['ratio']:.15g}\n"
                )
    return 0 if all_ok else 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="ckkernel",
        description="Certified non-vanishing of central Hecke L-values "
        "via the Cohen-Kohnen kernel coefficient r_k(1).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="certify r_k(1) != 0 for one weight")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--eps", type=float, default=1e-10)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("rk", help="print the kernel coefficient r_k(n)")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--eps", type=float, default=1e-10)
    p.set_defaults(func=_cmd_rk)

    p = sub.add_parser("check-bounds", help="verify the global and per-weight bounds")
    p.set_defaults(func=_cmd_check_bounds)

    p = sub.add_parser("report", help="batch certification reports")
    p.add_argument("--weights", type=str, required=True, metavar="START:STOP:STEP")
    p.add_argument("--eps", type=float, default=1e-10)
    p.add_argument("--triangle", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except PrecisionError as exc:
        sys.stderr.write(f"precision error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
