"""Benchmark for ckkernel: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload report-triangle --seed 1 --seconds 30 --trace 0

Run from anywhere; the checkout is the directory above this file and must
hold the package sources in `src/ckkernel`.  Every pass of a workload runs
in a fresh interpreter (`worker.py`), one at a time, with numerical
libraries held to one thread, so nothing a pass caches survives into the
next and the program never shares the two cores with itself.

Times are normalized seconds: raw seconds times REF_NOMINAL_S over the
time of a fixed reference slice measured in the same process right before
and after (speedref.py).  On a shared machine other tenants change the
CPU's speed by up to about 2x over minutes; the reference slice slows
with it, so the ratio keeps a program change visible through that drift.
Raw medians are printed beside them.

--trace 0 runs passes until --seconds have gone by and reports medians:
wall_s (the workload's calls), setup_s (interpreter start to `import
ckkernel` done, over every pass plus SETUP_ONLY_SAMPLES extra starts),
peak_rss_mb, err_budget_used and ops_ok_frac.  --trace 1 alternates
untraced and traced passes for --seconds and reports the per-layer
metrics, with trace.overhead_s = median traced wall_s - median untraced.

A readable summary goes to stdout, failed checks to stderr; the last
stdout line is the JSON result.  Spans of the last traced pass are
written to `.perfbench/spans-<workload>.json` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from envstamp import stamp  # noqa: E402
from speedref import REF_NOMINAL_S, reference_seconds  # noqa: E402
from worker import layer_specs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_ONLY_SAMPLES = 10
PASS_TIMEOUT_S = 120
# The numerical libraries may not start thread pools: one core per pass.
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "err_budget_used": "ratio",
    "ops_ok_frac": "frac",
}
PER_LAYER = {m["name"]: m["unit"] for m in layer_specs()}


class BenchError(RuntimeError):
    """A pass could not be run or did not report; the run gives no result."""


def _pass(workload: str, seed: int, mode: str) -> dict:
    """Run worker.py once and return its reply, plus setup_s."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    env = {**os.environ, **SINGLE_THREAD_ENV}
    ref_before = (reference_seconds() + reference_seconds()) / 2
    spawn_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass of {workload} took over {PASS_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        reply = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except ValueError:
        reply = None
    if reply is None:
        raise BenchError(f"{mode} pass of {workload} exited {proc.returncode} without a reply")
    reply["setup_raw_s"] = (reply["ready_ns"] - spawn_ns) / 1e9
    # the reference slices just before the spawn and just after the import bracket set-up
    ref = (ref_before + reply["ready_ref_s"]) / 2
    reply["setup_s"] = reply["setup_raw_s"] * REF_NOMINAL_S / ref
    reply["mode"] = mode
    return reply


def _passes_until(deadline: float, modes: tuple[str, ...], workload: str, seed: int):
    """Cycle through `modes` until the deadline, finishing each cycle; at least one cycle."""
    done = {mode: [] for mode in modes}
    while True:
        for mode in modes:
            done[mode].append(_pass(workload, seed, mode))
        if time.monotonic() >= deadline:
            return done


def _outcome(replies: list[dict]) -> tuple[int, int, list[str]]:
    attempted = sum(r["attempted"] for r in replies)
    failed = sum(r["failed"] for r in replies)
    problems = [p for r in replies for p in r["problems"]]
    return attempted, failed, problems


def end_to_end(workload: str, seed: int, seconds: int) -> tuple[dict, list[dict], list[dict]]:
    setups = [_pass(workload, seed, "setup") for _ in range(SETUP_ONLY_SAMPLES)]
    passes = _passes_until(time.monotonic() + seconds, ("plain",), workload, seed)["plain"]
    setups += passes
    attempted, failed, _ = _outcome(passes)
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(p["setup_s"] for p in setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "err_budget_used": max(p["err_budget_used"] for p in passes),
        "ops_ok_frac": (attempted - failed) / attempted,
    }
    return metrics, passes, setups


def per_layer(workload: str, seed: int, seconds: int) -> tuple[dict, list[dict], list[str]]:
    done = _passes_until(time.monotonic() + seconds, ("plain", "traced"), workload, seed)
    traced = done["traced"]
    metrics, unstable = {}, []
    for name in traced[0]["layers"]:
        values = [p["layers"][name] for p in traced]
        if PER_LAYER[name] == "ms":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                unstable.append(f"{name} differs between traced passes: {values}")
    metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                   - statistics.median(p["wall_s"] for p in done["plain"]))
    return metrics, done["plain"] + traced, unstable


def _print_spread(label: str, replies: list[dict], key: str) -> None:
    for tag, field in (("normalized", f"{key}_s"), ("raw", f"{key}_raw_s")):
        xs = [r[field] for r in replies]
        print(f"{label} {tag} over {len(xs)}: "
              f"min {min(xs):.4f} median {statistics.median(xs):.4f} max {max(xs):.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "ckkernel" / "__init__.py").is_file():
        sys.stderr.write(f"error: no ckkernel sources under {ROOT / 'src'}\n")
        return 2

    try:
        if args.trace:
            metrics, replies, problems = per_layer(args.workload, args.seed, args.seconds)
            units = PER_LAYER
        else:
            metrics, replies, setups = end_to_end(args.workload, args.seed, args.seconds)
            problems = []
            units = END_TO_END
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    if set(metrics) != set(units):
        sys.stderr.write(f"error: metrics {sorted(set(metrics) ^ set(units))} mismatch\n")
        return 1

    attempted, failed, op_problems = _outcome(replies)
    problems = op_problems + problems
    for line in problems[:20]:
        sys.stderr.write(f"check failed: {line}\n")
    agree, total = (sum(r["triangle"][i] for r in replies) for i in (0, 1))

    print("env " + json.dumps(stamp(ROOT, args.workload, args.seed)))
    print(f"{args.workload}: ops_failed_frac {failed}/{attempted}, "
          f"triangle_agree_frac {agree}/{total}")
    for mode in ("plain", "traced"):
        samples = [r for r in replies if r["mode"] == mode]
        if samples:
            _print_spread(f"{mode} wall_s", samples, "wall")
    if not args.trace:
        _print_spread("setup_s", setups, "setup")
    for name in units:
        print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
