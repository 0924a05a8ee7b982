"""One pass of one workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|plain|traced

Imports ckkernel from the checkout's `src/`, notes the moment the import
finished (CLOCK_MONOTONIC, which the parent's clock shares) and the mean
time of two reference slices right after it, runs the workload once,
checks its outputs and prints one JSON line.  `setup` stops after the
import; `traced` wraps the layers during the workload and adds the
per-layer metrics.

Times are reported raw and normalized: each op's seconds times
REF_NOMINAL_S over the reference slices around it (see speedref.py).
"""

from __future__ import annotations

import argparse
import inspect
import json
import resource
import sys
import time
from pathlib import Path

from speedref import REF_NOMINAL_S, reference_seconds
from tracer import LAYERS, Tracer
from workloads import WORKLOADS, Recorder, check

ROOT = Path(__file__).resolve().parent.parent


def layer_specs() -> list[dict]:
    """The per-layer metrics (name, unit, better, and what they move) from layers.json."""
    with open(Path(__file__).resolve().parent / "layers.json") as fh:
        return json.load(fh)["metrics"]


def _bound_args(fn):
    """A function giving fn's arguments, defaults filled in, for one call."""
    sig = inspect.signature(fn)

    def arguments(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return arguments


def make_hooks(ck) -> dict:
    """Counters taken at the layer boundaries; build before `Tracer.install`."""
    r_k_args = _bound_args(ck.kernel.r_k)
    inner_args = _bound_args(ck.petersson.petersson_inner)
    default_spec = ck.petersson.default_spec

    def on_r_k(tracer, args, kwargs, coeff):
        tracer.count("kernel.terms_used", coeff.terms_used)
        tracer.count("kernel.eps_overruns", int(coeff.rho.abs_err > r_k_args(args, kwargs)["eps"]))

    def on_mul(tracer, args, kwargs, product):
        # schoolbook product truncated to n = min(prec) coefficients: n(n+1)/2 products
        n = product.prec
        tracer.count("qexpansion.mul.coeff_products", n * (n + 1) // 2)

    def on_inner(tracer, args, kwargs, result):
        # fine grid plus the coarse grid petersson_inner compares it with; box and arc each
        a = inner_args(args, kwargs)
        spec = a["spec"] or default_spec(a["f"].weight)
        coarse = max(8, 2 * spec.x_nodes // 3) * max(8, 2 * spec.y_nodes // 3)
        tracer.count("petersson.grid_points", 2 * (spec.x_nodes * spec.y_nodes + coarse))

    def distinct(name, fn):
        arguments = _bound_args(fn)

        def on_call(tracer, args, kwargs, result):
            tracer.keys.setdefault(name, set()).add(tuple(arguments(args, kwargs).values()))

        return on_call

    return {
        "kernel.r_k": on_r_k,
        "qexpansion.mul": on_mul,
        "petersson.petersson_inner": on_inner,
        "qexpansion.miller_basis": distinct("qexpansion.miller_basis", ck.qexpansion.miller_basis),
        "qexpansion.eigenforms": distinct("qexpansion.eigenforms", ck.qexpansion.eigenforms),
    }


def layer_metrics(tracer, tally, names, ms_per_ns: float = 1e-6) -> dict[str, float]:
    """The per-layer metrics of one traced pass, read off the spans by name suffix.

    `ms_per_ns` converts span nanoseconds, normalized or not, to the reported
    milliseconds.  trace.overhead_s is left to the parent, which times
    untraced passes too.
    """
    rows = tracer.summary()

    def row(span):
        if span not in rows:
            raise KeyError(f"no traced function named {span}")
        return rows[span]

    out = {}
    for name in names:
        span, _, suffix = name.rpartition(".")
        if name == "trace.overhead_s":
            continue
        if name == "petersson.triangle_agree_frac":
            total = tally.triangle_total
            out[name] = tally.triangle_agree / total if total else 0.0
        elif suffix == "self_ms" and span in LAYERS:
            out[name] = ms_per_ns * sum(
                r["self_ns"] for n, r in rows.items() if n.startswith(span + "."))
        elif suffix == "self_ms":
            out[name] = ms_per_ns * row(span)["self_ns"]
        elif suffix == "ms":
            out[name] = ms_per_ns * row(span)["ns"]
        elif suffix == "calls":
            out[name] = row(span)["calls"]
        elif suffix == "distinct_frac":
            calls = row(span)["calls"]
            out[name] = len(tracer.keys.get(span, ())) / calls if calls else 0.0
        else:
            out[name] = tracer.counters.get(name, 0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import ckkernel
    import ckkernel.cli

    ready_ns = time.monotonic_ns()
    ready = {"ready_ns": ready_ns, "ready_ref_s": (reference_seconds() + reference_seconds()) / 2}
    src = (ROOT / "src").resolve()
    if src not in Path(ckkernel.__file__).resolve().parents:
        sys.stderr.write(f"ckkernel was imported from {ckkernel.__file__}, not {src}\n")
        return 1
    if args.mode == "setup":
        print(json.dumps(ready))
        return 0

    run = WORKLOADS[args.workload]
    tracer = None
    if args.mode == "traced":
        hooks = make_hooks(ckkernel)
        tracer = Tracer()
        tracer.install(ckkernel, hooks)
    rec = Recorder(reference_seconds)
    try:
        run(ckkernel, args.seed, rec)
    finally:
        if tracer is not None:
            tracer.uninstall()
    ops = rec.ops
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tally = check(ckkernel, args.workload, ops)
    reply = {
        **ready,
        "wall_raw_s": sum(op.seconds for op in ops),
        "wall_s": sum(op.seconds * REF_NOMINAL_S / op.ref_seconds for op in ops),
        "peak_rss_mb": peak_rss_mb,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems[:20],
        "err_budget_used": tally.err_budget_used,
        "triangle": [tally.triangle_agree, tally.triangle_total],
    }
    if tracer is not None:
        # span times are normalized like wall_s, by the pass's own normalized/raw ratio
        ms_per_ns = 1e-6 * reply["wall_s"] / reply["wall_raw_s"]
        reply["layers"] = layer_metrics(tracer, tally, [m["name"] for m in layer_specs()],
                                        ms_per_ns)
        from envstamp import stamp  # importlib.metadata is slow to import; traced passes only

        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{args.workload}.json", stamp(ROOT, args.workload, args.seed))
    print(json.dumps(reply))
    return 0


if __name__ == "__main__":
    sys.exit(main())
