"""Acceptance gate: every criterion is exercised at its stated tolerance and
prints a single PASS/FAIL line (run with -s or read the captured output)."""

import math
import time

import mpmath as mp

from ckkernel.kernel import certify, global_bound, per_k_bound
from ckkernel.lfunction import central_values
from ckkernel.ntheory import gamma_sum
from ckkernel.petersson import triangle_check
from ckkernel.qexpansion import delta, eigenforms, hecke_char_poly
from ckkernel.specfun import HalfIntOrder, bessel_j, upper_incomplete_gamma

from modularity import functional_equation_residual


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_global_bound():
    global_bound()  # warm the pi-power cache before timing
    t0 = time.perf_counter()
    g = global_bound()
    elapsed = time.perf_counter() - t0
    ok = g < 1.0 and abs((1.0 - g) - 0.4446) <= 1e-3 and elapsed < 1e-3
    report("1", ok, f"bound = {g:.10f}, 1 - bound = {1 - g:.6f}, {elapsed * 1e6:.0f} us")
    assert ok


def test_criterion_2_theorem_reproduction():
    t0 = time.perf_counter()
    ok = True
    for k in range(12, 41, 4):
        cert = certify(k, 1e-10)
        ok = ok and cert.nonvanishing and cert.sign == 1
        ok = ok and abs(cert.rho.value - 1.0) <= per_k_bound(k) + cert.rho.abs_err
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report("2", ok, f"k = 12..40 step 4 all nonvanishing with sign +1, {elapsed:.2f} s")
    assert ok


def test_criterion_3_forced_vanishing():
    t0 = time.perf_counter()
    worst = 0.0
    for k in (14, 18, 22, 26):
        for _, lv in central_values(k, 1e-9):
            worst = max(worst, abs(lv.value))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    report("3", ok, f"max |L(f, k/2)| = {worst:.2e} over k ≡ 2 (mod 4), {elapsed:.1f} s")
    assert ok


def test_criterion_4_functional_equation():
    worst = 0.0
    for k in (12, 14, 16, 18, 20, 22, 24, 26, 28):
        for f in eigenforms(k, 60):
            for s in (k // 2 - 1, k // 2 + 2):
                worst = max(worst, functional_equation_residual(f, s))
    ok = worst < 1e-9
    report("4", ok, f"max residual = {worst:.2e} at s = k/2 - 1 and k/2 + 2, k <= 28")
    assert ok


def test_criterion_5a_triangle_positivity():
    t0 = time.perf_counter()
    ratios = {k: triangle_check(k, 1e-9).ratio for k in (12, 16, 20)}
    elapsed = time.perf_counter() - t0
    ok = all(r > 0 for r in ratios.values()) and elapsed < 60.0
    report("5a", ok, f"ratios all positive: {ratios}, {elapsed:.1f} s")
    assert ok
    globals()["_triangle_ratios"] = ratios


def test_criterion_5b_triangle_constant():
    ratios = globals().get("_triangle_ratios") or {
        k: triangle_check(k, 1e-9).ratio for k in (12, 16, 20)
    }
    vals = list(ratios.values())
    spread = (max(vals) - min(vals)) / abs(vals[0])
    ok = spread <= 1e-3 and all(abs(r - 1.0) <= 5e-3 for r in vals)
    report(
        "5b",
        ok,
        f"measured ratios r_k(1) / sum_f L*(f, k/2) / (16 Gamma(k/2) ||f||^2) "
        f"{ratios} (relative spread {spread:.3g})",
    )
    assert ok


def test_criterion_6_exact_arithmetic():
    t0 = time.perf_counter()
    d = delta(31)
    tau_ok = list(d.coeffs[1:6]) == [1, -24, 252, -1472, 4830]
    sigma11 = lambda n: sum(e**11 for e in range(1, n + 1) if n % e == 0)
    cong_ok = all((d[n] - sigma11(n)) % 691 == 0 for n in range(1, 31))
    poly_ok = [int(c) for c in hecke_char_poly(24)] == [-20468736, -1080, 1]
    elapsed = time.perf_counter() - t0
    ok = tau_ok and cong_ok and poly_ok and elapsed < 5.0
    report("6", ok, f"tau values, Ramanujan congruence, S_24 char poly, {elapsed:.2f} s")
    assert ok


def test_criterion_7_special_functions():
    ok = True
    for x in (0.3, 1.0, math.pi / 2, 1.7):
        half = math.sqrt(2 / (math.pi * x)) * math.sin(x)
        three = math.sqrt(2 / (math.pi * x)) * (math.sin(x) / x - math.cos(x))
        ok = ok and abs(bessel_j(HalfIntOrder(1), x).value - half) <= 1e-12
        ok = ok and abs(bessel_j(HalfIntOrder(3), x).value - three) <= 1e-12
    # |J_nu(x)| <= (x/2)^nu / Gamma(nu + 1), the envelope taken at 30 digits
    with mp.workdps(30):
        for twice_nu in (1, 11, 23, 39):
            nu = HalfIntOrder(twice_nu)
            v = mp.mpf(twice_nu) / 2
            for x in (0.1, 1.0, 1.7, math.pi):
                if x * x <= twice_nu + 2:  # bessel_j's domain
                    j = bessel_j(nu, x)
                    envelope = (mp.mpf(x) / 2) ** v / mp.gamma(v + 1)
                    ok = ok and abs(j.value) <= envelope + j.abs_err
    for s in (1, 6, 11):
        for x in (0.5, 2 * math.pi, 20.0):
            a = upper_incomplete_gamma(s + 1, x).value
            b = upper_incomplete_gamma(s, x).value
            resid = abs(a - (s * b + x**s * math.exp(-x))) / abs(a)
            ok = ok and resid < 1e-12
    report("7", ok, "Bessel closed forms, envelope inequality, gamma recursion")
    assert ok


def test_criterion_8_gamma_sums():
    ok = all(gamma_sum(n, 1) == 1.0 for n in (1, 2, 7))
    ok = ok and gamma_sum(1, 2) == 0.0 and gamma_sum(1, 3) == 1.0
    d = lambda m: sum(1 for e in range(1, m + 1) if m % e == 0)
    ok = ok and all(abs(gamma_sum(1, m)) <= d(m) + 1e-12 for m in range(1, 501))
    report("8", ok, "gamma_n(1) = 1, gamma_1(2) = 0, gamma_1(3) = 1, divisor bound")
    assert ok
