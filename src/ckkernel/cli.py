"""Command-line front end.

Subcommands: certify, rk, check-bounds, report, each with its handler and
options in one table, `_COMMANDS`, parsed by the stdlib `getopt`.  Options
are long: `--opt value` or `--opt=value`, or a unique prefix of the name;
-h or --help, at the top or after a command, prints the synopsis to stdout
and exits 0, even beside an unknown option.
JSON goes to stdout when --json is given, a human-readable table otherwise;
diagnostics go to stderr.  Exit codes: 0 success or help, 1 usage/domain
error, 2 inconclusive certification or precision error.
"""

from __future__ import annotations

import getopt
import itertools
import json
import sys
import time
from types import SimpleNamespace

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


def _cmd_certify(args) -> int:
    """certify r_k(1) != 0 for one weight"""
    cert = certify(args.weight, args.eps)
    if args.json:
        report = {
            "schema_version": SCHEMA_VERSION,
            "weight": args.weight,
            "certificate": _certificate_dict(cert),
        }
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    else:
        sys.stdout.write(
            f"k={cert.k}: rho = {cert.rho.value:.15g} ± {cert.rho.abs_err:.3g}  "
            f"per-k bound = {cert.per_k_bound:.6g}  "
            f"nonvanishing = {cert.nonvanishing}  sign = {cert.sign:+d}\n"
        )
    return 0 if cert.nonvanishing else 2


def _cmd_rk(args) -> int:
    """print the kernel coefficient r_k(n) and rho_k(n) with their bars"""
    coeff = r_k(args.weight, args.n, args.eps)
    sys.stdout.write(
        f"r_{args.weight}({args.n}) = {coeff.value.value:.15g} ± {coeff.value.abs_err:.3g}\n"
        f"rho = {coeff.rho.value:.15g} ± {coeff.rho.abs_err:.3g}   terms used: {coeff.terms_used}\n"
    )
    return 0


def _cmd_check_bounds(args) -> int:
    """verify the global and per-weight bounds"""
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
        start, stop, step = map(int, parts) if len(parts) == 3 else (int(text), int(text), 4)
    except ValueError:
        raise DomainError(f"malformed weight range {text!r}; expected start:stop:step")
    if step < 1 or stop < start:
        raise DomainError(f"malformed weight range {text!r}")
    return [_check_weight(k) for k in range(start, stop + 1, step)]


def _cmd_report(args) -> int:
    """certify each weight of START:STOP:STEP (or one weight) and list its L-values"""
    weights = _parse_weights(args.weights)
    reports = []
    all_ok = True
    for k in weights:
        report, cert = _build_report(k, args.eps, args.triangle)
        reports.append(report)
        all_ok = all_ok and cert.nonvanishing
    if args.json:
        sys.stdout.write(json.dumps(reports, indent=2) + "\n")
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


# Each command's handler and options.  An option maps to its default, or to
# its type when it is required; a False default makes it a flag.
_COMMANDS = {
    "certify": (_cmd_certify, {"weight": int, "eps": 1e-10, "json": False}),
    "rk": (_cmd_rk, {"weight": int, "n": 1, "eps": 1e-10}),
    "check-bounds": (_cmd_check_bounds, {}),
    "report": (_cmd_report, {"weights": str, "eps": 1e-10, "triangle": False, "json": False}),
}


def _usage(commands) -> str:
    """A synopsis of each command, its options and their defaults, with its
    summary below it."""
    lines = []
    for command in commands:
        handler, options = _COMMANDS[command]
        words = [f"[--{name}]" if spec is False
                 else f"--{name} {spec.__name__.upper()}" if isinstance(spec, type)
                 else f"[--{name} {type(spec).__name__.upper()} (default {spec})]"
                 for name, spec in options.items()]
        lines += [" ".join(["usage: ckkernel", command, "[-h]", *words]), f"    {handler.__doc__}"]
    return "\n".join(lines) + "\n"


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The options of argv = [command, options...] with their defaults, and
    `func` the command's handler; None once the help that -h or --help asks
    for is printed.  Every usage error is a `getopt.GetoptError`.

    An option takes `--opt value` or `--opt=value`, a unique prefix stands
    for its whole name, and a repeated option keeps its last value.  Help,
    asked for anywhere before a `--`, wins over every usage error.
    """
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    handler, options = _COMMANDS.get(command, (None, {}))
    args = argv[command is not None:]
    longopts = ["help", *(name if spec is False else name + "=" for name, spec in options.items())]
    # -h, or --help or a unique prefix of it, before the "--" that ends the options
    if any(a == "-h" or a.startswith("--") and [
               name for name in ("help", *options) if name.startswith(a[2:])] == ["help"]
           for a in itertools.takewhile(lambda a: a != "--", args)):
        sys.stdout.write(_usage([command] if command else _COMMANDS))
        return None
    opts, rest = getopt.getopt(args, "h", longopts)
    values = {name: spec for name, spec in options.items() if not isinstance(spec, type)}
    for opt, text in opts:
        spec = options[opt[2:]]
        kind = spec if isinstance(spec, type) else type(spec)
        try:
            values[opt[2:]] = True if spec is False else kind(text)
        except ValueError:
            raise getopt.GetoptError(f"option {opt}: invalid {kind.__name__} value {text!r}")
    if command is None or rest:
        what = "stray argument" if command else "unknown command"
        raise getopt.GetoptError(f"{what} {rest[0]!r}" if rest else "no command given")
    missing = [name for name in options if name not in values]
    if missing:
        raise getopt.GetoptError(f"option --{missing[0]} is required")
    return SimpleNamespace(func=handler, **values)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        return 0 if args is None else args.func(args)
    except (getopt.GetoptError, DomainError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except PrecisionError as exc:
        sys.stderr.write(f"precision error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
