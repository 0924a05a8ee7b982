"""Halve one rounding charge at a time in a copy of the package and see which
tests notice.

Each row of ROWS names a module of src/ckkernel, the exact source text of one
charge, the same text with that charge halved, and the test files to run.
For each row the script copies src, tests and pyproject.toml to a temporary
directory, replaces the text there (it must occur exactly once in the
package, or the script stops), runs the row's tests against the copy and
prints one JSON line: the row, "killed" or "survived", and the failing
tests.  The repository itself is never written.

Tests whose name holds "digest" are deselected in these runs: a digest pins
every output bit, so it fails on any change, a widened bar too, and says
nothing about whether a halved charge still covers the error.

    python tools/halve_charges.py

`check(package_dir)` only tests that every row's text occurs exactly once;
it is the part that runs with the test suite.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

GAMMA_TESTS = ("tests/test_specfun.py", "tests/test_lfunction.py", "tests/test_acceptance.py")
SERIES_TESTS = ("tests/test_lfunction.py", "tests/test_petersson.py", "tests/test_acceptance.py")
KERNEL_TESTS = ("tests/test_kernel.py", "tests/test_specfun.py", "tests/test_acceptance.py")
NORM_TESTS = ("tests/test_petersson.py", "tests/test_acceptance.py")

# (name, module, charge text, halved text, test files)
ROWS = (
    ("gamma_constant", "specfun.py",
     "(3.5 + 1.5 * min(x, s - 1))", "(1.75 + 1.5 * min(x, s - 1))", GAMMA_TESTS),
    ("gamma_degree", "specfun.py",
     "(3.5 + 1.5 * min(x, s - 1))", "(3.5 + 0.75 * min(x, s - 1))", GAMMA_TESTS),
    ("row_argument", "lfunction.py",
     "(s + x + 3.0) * _EPS", "(0.5 * (s + x) + 3.0) * _EPS", SERIES_TESTS),
    ("bessel_sums", "specfun.py",
     "(j + 2) * _EPS * max_abs", "0.5 * (j + 2) * _EPS * max_abs", KERNEL_TESTS),
    ("bessel_lead", "specfun.py",
     "lead_err = 4.0 * _EPS * term", "lead_err = 2.0 * _EPS * term", KERNEL_TESTS),
    ("r_k_term", "kernel.py",
     "float_err += charge", "float_err += 0.5 * charge", KERNEL_TESTS),
    ("r_k_gamma_product", "kernel.py",
     "(3.2 * omega - 0.5)", "(1.6 * omega - 0.25)", KERNEL_TESTS),
    ("r_k_gamma_boundary", "kernel.py",
     "odd * (10.8 + (top + 4) / 2)", "odd * (5.4 + (top + 4) / 4)", KERNEL_TESTS),
    ("pi_power_scale", "ntheory.py",
     "v.abs_err + _EPS * abs(v.value)", "v.abs_err + 0.5 * _EPS * abs(v.value)",
     tuple(dict.fromkeys(KERNEL_TESTS + SERIES_TESTS))),
    ("arc_pairs", "petersson.py",
     "35.0 * (nf + ng)", "17.5 * (nf + ng)", NORM_TESTS),
    ("gauss_weights", "petersson.py",
     "_WEIGHT_ULPS = 0.25", "_WEIGHT_ULPS = 0.125", NORM_TESTS),
    ("triangle_bar_roundings", "petersson.py",
     "rhs_err * (1.0 + (d + 7) * _EPS)", "rhs_err * (1.0 + 0.5 * (d + 7) * _EPS)", NORM_TESTS),
    ("triangle_sum_roundings", "petersson.py",
     "+ (d + 2) * _EPS * mass", "+ 0.5 * (d + 2) * _EPS * mass", NORM_TESTS),
)


def check(package_dir: Path) -> None:
    """Raise ValueError unless every row's text occurs exactly once in the
    package's modules, and there in the row's module."""
    sources = {p.name: p.read_text() for p in sorted(package_dir.glob("*.py"))}
    for name, module, text, _, _ in ROWS:
        total = sum(source.count(text) for source in sources.values())
        if total != 1 or sources.get(module, "").count(text) != 1:
            raise ValueError(f"row {name}: {text!r} occurs {total} times in the package, "
                             f"not once in {module}")


def mutate(row) -> dict:
    """Run one row's tests against a copy of the package with its charge halved."""
    name, module, text, halved, tests = row
    with tempfile.TemporaryDirectory(prefix="halve-") as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy / "pyproject.toml")
        path = copy / "src" / "ckkernel" / module
        path.write_text(path.read_text().replace(text, halved))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
             "-k", "not digest", *tests],
            cwd=copy, env=env, capture_output=True, text=True)
    failed = [line.split()[1] for line in run.stdout.splitlines() if line.startswith("FAILED ")]
    if run.returncode not in (0, 1):
        raise RuntimeError(f"row {name}: pytest exited with {run.returncode}\n{run.stdout[-2000:]}")
    return {"row": name, "module": module, "outcome": "killed" if failed else "survived",
            "killed_by": failed}


def main() -> int:
    check(ROOT / "src" / "ckkernel")
    for row in ROWS:
        print(json.dumps(mutate(row)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
