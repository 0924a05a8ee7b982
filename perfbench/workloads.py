"""The benchmark workloads and the checks on their outputs.

Each workload makes a fixed set of calls into the program; the seed only
fixes their order.  The run_* functions make those calls through a
Recorder, which times each one and keeps what it returned.  `check` runs
afterwards, outside the timed calls, and counts an operation as failed
when it raised, returned a non-finite value or failed an output check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field

# The library's and the CLI's default eps; every L-value bar must stay below it.
DEFAULT_EPS = 1e-10
# Tight enough to push the kernel series to m_stop = 8192.
KERNEL_EPS = 1e-13
WEIGHTS = tuple(range(12, 41, 4))
TRIANGLE_MAX_WEIGHT = 28  # the CLI skips the triangle above this weight
SPECTRAL_WEIGHTS = (28, 36, 40)
SPECTRAL_COEFFS = 120
TAU_2_TO_5 = (-24, 252, -1472, 4830)


@dataclass
class Op:
    """One call made by a workload: what was asked and what came back."""

    kind: str
    key: tuple
    result: object = None
    error: str | None = None
    seconds: float = 0.0
    ref_seconds: float = 0.0


@dataclass
class Tally:
    """Outcome of checking one run's operations."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    err_budget_used: float = 0.0  # largest abs_err / eps over kernel rho and L-values
    triangle_agree: int = 0
    triangle_total: int = 0

    def budget(self, abs_err: float, eps: float) -> None:
        self.err_budget_used = max(self.err_budget_used, abs_err / eps)


class Recorder:
    """Runs and times a workload's calls, with a reference-loop slice after each one.

    `reference` returns the seconds one fixed slice of pure-Python work took;
    each op gets the mean of the slices just before and after it, which is
    the machine's speed while the op ran.
    """

    def __init__(self, reference=None):
        self.ops: list[Op] = []
        self._reference = reference
        self._last_ref = reference() if reference is not None else 0.0

    def call(self, kind: str, key: tuple, fn, *args) -> Op:
        op = Op(kind, key)
        t0 = time.perf_counter()
        try:
            op.result = fn(*args)
        except Exception as exc:  # a raising call is a failed op, not a failed run
            op.error = f"{type(exc).__name__}: {exc}"
        op.seconds = time.perf_counter() - t0
        if self._reference is not None:
            ref = self._reference()
            op.ref_seconds = (self._last_ref + ref) / 2
            self._last_ref = ref
        self.ops.append(op)
        return op


def cli_report(ck, k: int) -> tuple[int, str]:
    """`ckkernel report --weights k:k:4 --triangle --json` in-process: exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ck.cli.main(["report", "--weights", f"{k}:{k}:4", "--triangle", "--json"])
    return code, out.getvalue()


def run_report_triangle(ck, seed: int, rec: Recorder) -> None:
    """The report over weights 12..40 with the triangle, one weight per CLI call."""
    weights = list(WEIGHTS)
    random.Random(seed).shuffle(weights)
    for k in weights:
        rec.call("report", (k,), cli_report, ck, k)


def run_kernel_sweep(ck, seed: int, rec: Recorder) -> None:
    """r_k(k, n, 1e-13) for k in 12..40, n in 1..5, and certify(k) for each k."""
    plan = [("r_k", (k, n)) for k in WEIGHTS for n in range(1, 6)]
    plan += [("certify", (k,)) for k in WEIGHTS]
    random.Random(seed).shuffle(plan)
    for kind, key in plan:
        if kind == "r_k":
            rec.call(kind, key, ck.kernel.r_k, key[0], key[1], KERNEL_EPS)
        else:
            rec.call(kind, key, ck.kernel.certify, key[0])


def run_spectral_deep(ck, seed: int, rec: Recorder) -> None:
    """eigenforms(k, 120), then completed_l(f, k/2) and petersson_norm_sq(f) per form."""
    rng = random.Random(seed)
    weights = list(SPECTRAL_WEIGHTS)
    rng.shuffle(weights)
    for k in weights:
        forms = rec.call("eigenforms", (k,), ck.qexpansion.eigenforms, k, SPECTRAL_COEFFS)
        if forms.error is not None:
            continue
        plan = [(kind, i) for i in range(len(forms.result))
                for kind in ("completed_l", "petersson_norm_sq")]
        rng.shuffle(plan)
        for kind, i in plan:
            f = forms.result[i]
            if kind == "completed_l":
                rec.call(kind, (k, i), ck.lfunction.completed_l, f, k / 2)
            else:
                rec.call(kind, (k, i), ck.petersson.petersson_norm_sq, f)


WORKLOADS = {
    "report-triangle": run_report_triangle,
    "kernel-sweep": run_kernel_sweep,
    "spectral-deep": run_spectral_deep,
}
# Workloads whose timed part goes through qexpansion; they also get the exact-basis check.
USES_QEXPANSION = ("report-triangle", "spectral-deep")


def _finite(*xs: float) -> bool:
    return all(math.isfinite(x) for x in xs)


def _check_rho(ck, tally: Tally, k: int, rho: float, bar: float, eps: float,
               nonvanishing: bool) -> list[str]:
    """certify(k): nonvanishing, and |rho - 1| <= per_k_bound(k) + bar."""
    if not _finite(rho, bar):
        return ["non-finite rho"]
    tally.budget(bar, eps)
    problems = []
    if not nonvanishing:
        problems.append("rho not certified nonzero")
    if abs(rho - 1.0) > ck.kernel.per_k_bound(k) + bar:
        problems.append(f"|rho - 1| = {abs(rho - 1.0):.6g} exceeds per_k_bound + bar")
    return problems


def _check_l_bar(tally: Tally, value: float, bar: float) -> list[str]:
    if not _finite(value, bar):
        return ["non-finite L-value"]
    tally.budget(bar, DEFAULT_EPS)
    return [] if bar <= DEFAULT_EPS else [f"L-value bar {bar:.3g} exceeds eps {DEFAULT_EPS}"]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * (abs(a) + abs(b))


def _check_report(ck, tally: Tally, op: Op) -> list[str]:
    (k,) = op.key
    code, text = op.result
    if code != 0:
        return [f"exit code {code}"]
    try:
        (report,) = json.loads(text)
    except ValueError as exc:
        return [f"unreadable JSON: {exc}"]
    cert = report["certificate"]
    problems = _check_rho(ck, tally, k, cert["rho"], cert["rho_abs_err"], DEFAULT_EPS,
                          cert["nonvanishing"])
    lvals = report["l_values"]
    if len(lvals) != ck.qexpansion.dim_cusp(k):
        problems.append(f"{len(lvals)} L-values, dim S_k = {ck.qexpansion.dim_cusp(k)}")
    for lv in lvals:
        problems += _check_l_bar(tally, lv["value"], lv["abs_err"])
    tri = report["triangle"]
    if (tri is not None) != (k <= TRIANGLE_MAX_WEIGHT):
        problems.append("triangle present/absent for the wrong weight")
    elif tri is not None:
        if not _finite(tri["lhs"], tri["lhs_abs_err"], tri["rhs"], tri["rhs_abs_err"]):
            problems.append("non-finite triangle sides")
        else:
            tally.triangle_total += 1
            if abs(tri["lhs"] - tri["rhs"]) <= tri["lhs_abs_err"] + tri["rhs_abs_err"]:
                tally.triangle_agree += 1
    return problems


def _check_r_k(ck, tally: Tally, op: Op) -> list[str]:
    coeff = op.result
    if not _finite(coeff.rho.value, coeff.rho.abs_err, coeff.value.value, coeff.value.abs_err):
        return ["non-finite coefficient"]
    # A bar above eps is the known r_k defect: it shows in err_budget_used, not as a failure.
    tally.budget(coeff.rho.abs_err, KERNEL_EPS)
    return []


def _check_certify(ck, tally: Tally, op: Op) -> list[str]:
    cert = op.result
    return _check_rho(ck, tally, op.key[0], cert.rho.value, cert.rho.abs_err, DEFAULT_EPS,
                      cert.nonvanishing)


def _check_eigenforms(ck, tally: Tally, op: Op) -> list[str]:
    (k,) = op.key
    forms = op.result
    problems = []
    if len(forms) != ck.qexpansion.dim_cusp(k):
        problems.append(f"{len(forms)} eigenforms, dim S_k = {ck.qexpansion.dim_cusp(k)}")
    for f in forms:
        a = f.coefficient
        if f.n_coeffs != SPECTRAL_COEFFS or not _finite(*f.a):
            problems.append("wrong count or non-finite coefficients")
        elif a(1) != 1.0:
            problems.append(f"a_1 = {a(1)}")
        elif not _close(a(2) * a(3), a(6)):
            problems.append("a_2 a_3 != a_6")
        elif not _close(a(4), a(2) ** 2 - 2.0 ** (k - 1)):
            problems.append("a_4 != a_2^2 - 2^(k-1)")
    return problems


def _check_completed_l(ck, tally: Tally, op: Op) -> list[str]:
    return _check_l_bar(tally, op.result.finite.value, op.result.finite.abs_err)


def _check_norm(ck, tally: Tally, op: Op) -> list[str]:
    norm = op.result
    if not _finite(norm.value, norm.abs_err):
        return ["non-finite norm"]
    return [] if norm.value > norm.abs_err else [f"norm {norm.value:.6g} within its bar"]


CHECKS = {
    "report": _check_report,
    "r_k": _check_r_k,
    "certify": _check_certify,
    "eigenforms": _check_eigenforms,
    "completed_l": _check_completed_l,
    "petersson_norm_sq": _check_norm,
}


def check_delta_basis(ck) -> list[str]:
    """The exact Miller basis of S_12 is Delta: tau(2..5) = -24, 252, -1472, 4830."""
    (g,) = ck.qexpansion.miller_basis(12, 6)
    got = tuple(g[n] for n in range(1, 6))
    return [] if got == (1,) + TAU_2_TO_5 else [f"Delta basis gives {got}"]


def _problems(fn, *args) -> list[str]:
    try:
        return fn(*args)
    except Exception as exc:  # output too corrupt to inspect: the op failed its check
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def check(ck, workload: str, ops: list[Op]) -> Tally:
    """Check every operation of one run; call only with tracing uninstalled."""
    tally = Tally()
    outcomes = [
        (f"{op.kind}{op.key}",
         [op.error] if op.error is not None else _problems(CHECKS[op.kind], ck, tally, op))
        for op in ops
    ]
    if workload in USES_QEXPANSION:
        outcomes.append(("delta-basis", _problems(check_delta_basis, ck)))
    for label, problems in outcomes:
        tally.attempted += 1
        if problems:
            tally.failed += 1
            tally.problems += [f"{label}: {p}" for p in problems]
    return tally
