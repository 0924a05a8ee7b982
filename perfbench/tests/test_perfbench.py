"""Tests of the benchmark's own code: checks, tracer, metric lists.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import ckkernel  # noqa: E402
import ckkernel.cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import layer_metrics, layer_specs, make_hooks  # noqa: E402
from workloads import Op, Recorder, check  # noqa: E402

from ckkernel.ntheory import ValueWithError  # noqa: E402


def test_benchmark_json_lists_the_metrics_run_py_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert bench["per_layer"] == [
        {"name": m["name"], "unit": m["unit"], "better": m["better"]} for m in layer_specs()
    ]
    for spec in layer_specs():
        assert set(spec["workloads"]) <= set(workloads.WORKLOADS)
        assert set(spec["moves"]) <= set(run.END_TO_END)


def test_sound_outputs_pass_their_checks():
    ops = [
        Op("certify", (12,), ckkernel.certify(12)),
        Op("r_k", (12, 1), ckkernel.r_k(12, 1, workloads.KERNEL_EPS)),
    ]
    tally = check(ckkernel, "kernel-sweep", ops)
    assert (tally.attempted, tally.failed) == (2, 0), tally.problems


def _corrupt_each(ops, corrupted, workload):
    """Swap in one corrupted op at a time; each swap must add exactly one failed op."""
    assert check(ckkernel, workload, ops).failed == 0
    for i, bad in corrupted:
        tally = check(ckkernel, workload, ops[:i] + [bad] + ops[i + 1:])
        assert tally.failed == 1, (bad, tally.problems)
        assert tally.attempted == len(ops) + (workload in workloads.USES_QEXPANSION)


def test_recorder_keeps_raising_calls_as_failed_ops():
    rec = Recorder()
    rec.call("r_k", (12, 0), ckkernel.r_k, 12, 0)  # n = 0 is outside the domain
    assert rec.ops[0].error.startswith("DomainError")
    tally = check(ckkernel, "kernel-sweep", rec.ops)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_recorder_gives_each_op_the_mean_of_the_slices_around_it():
    slices = iter([1.0, 2.0, 4.0])
    rec = Recorder(lambda: next(slices))
    rec.call("a", (), lambda: None)
    rec.call("b", (), lambda: None)
    assert [op.ref_seconds for op in rec.ops] == [1.5, 3.0]


def test_corrupted_kernel_outputs_count_as_failed_ops():
    cert = ckkernel.certify(12)
    coeff = ckkernel.r_k(12, 2, workloads.KERNEL_EPS)
    ops = [Op("certify", (12,), cert), Op("r_k", (12, 2), coeff)]
    _corrupt_each(ops, [
        (0, Op("certify", (12,), dataclasses.replace(cert, rho=ValueWithError(5.0, 1e-12)))),
        (0, Op("certify", (12,), dataclasses.replace(cert, nonvanishing=False))),
        (1, Op("r_k", (12, 2), dataclasses.replace(
            coeff, rho=ValueWithError(float("nan"), coeff.rho.abs_err)))),
        (1, Op("r_k", (12, 2), error="PrecisionError: raised")),
    ], "kernel-sweep")


def test_corrupted_spectral_outputs_count_as_failed_ops():
    (delta,) = ckkernel.eigenforms(12, workloads.SPECTRAL_COEFFS)
    lval = ckkernel.completed_l(delta, 6.0)
    norm = ckkernel.petersson_norm_sq(delta)
    ops = [Op("eigenforms", (12,), [delta]), Op("completed_l", (12, 0), lval),
           Op("petersson_norm_sq", (12, 0), norm)]
    a = list(delta.a)
    a[3] += 1.0  # a_4 off the Hecke relation
    _corrupt_each(ops, [
        (0, Op("eigenforms", (12,), [dataclasses.replace(delta, a=tuple(a))])),
        (0, Op("eigenforms", (12,), [delta, delta])),  # more forms than dim S_12
        (1, Op("completed_l", (12, 0), dataclasses.replace(
            lval, finite=ValueWithError(lval.finite.value, 1e-6)))),
        (2, Op("petersson_norm_sq", (12, 0), ValueWithError(norm.value, 2 * norm.value))),
    ], "spectral-deep")


def test_corrupted_report_counts_as_failed_op():
    code, text = workloads.cli_report(ckkernel, 12)
    doc = json.loads(text)
    doc[0]["l_values"][0]["abs_err"] = 1.0
    ops = [Op("report", (12,), (code, text))]
    _corrupt_each(ops, [
        (0, Op("report", (12,), (code, json.dumps(doc)))),
        (0, Op("report", (12,), (code, text[:-20]))),  # truncated JSON
        (0, Op("report", (12,), (1, text))),
    ], "report-triangle")


def test_tracer_counts_calls_at_every_binding_and_restores_them():
    before = {(mod.__name__, name): obj for mod in (ckkernel, ckkernel.kernel, ckkernel.petersson)
              for name, obj in vars(mod).items() if callable(obj)}
    mul = ckkernel.qexpansion.QExpansion.__mul__
    tracer = Tracer()
    tracer.install(ckkernel, make_hooks(ckkernel))
    try:
        assert ckkernel.r_k is ckkernel.kernel.r_k is ckkernel.petersson.r_k
        ckkernel.certify(12)
        ckkernel.petersson.r_k(12, 1)
        ckkernel.qexpansion.delta(8)
    finally:
        tracer.uninstall()
    after = {(mod.__name__, name): obj for mod in (ckkernel, ckkernel.kernel, ckkernel.petersson)
             for name, obj in vars(mod).items() if callable(obj)}
    assert after == before
    assert ckkernel.qexpansion.QExpansion.__mul__ is mul

    metrics = layer_metrics(tracer, workloads.Tally(), [m["name"] for m in layer_specs()])
    assert metrics["kernel.r_k.calls"] == 2
    assert metrics["ntheory.gamma_sum.calls"] == metrics["specfun.bessel_j.calls"] \
        == metrics["kernel.terms_used"] > 0
    # delta(8): pow(3) and pow(2) square once past their last bit, so 4 + 3 products,
    # each truncated to 8 coefficients
    assert metrics["qexpansion.mul.calls"] == 7
    assert metrics["qexpansion.mul.coeff_products"] == 7 * 36
    assert metrics["kernel.self_ms"] >= metrics["kernel.r_k.self_ms"] > 0


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.names += ["outer", "inner"]
    for nid, start, end, parent in ((0, 0, 100, -1), (1, 10, 40, 0), (1, 50, 60, 0)):
        tracer.name_id.append(nid)
        tracer.start_ns.append(start)
        tracer.end_ns.append(end)
        tracer.parent.append(parent)
    rows = tracer.summary()
    assert rows["outer"] == {"calls": 1, "ns": 100, "self_ns": 60}
    assert rows["inner"] == {"calls": 2, "ns": 40, "self_ns": 40}


def test_unknown_span_in_a_metric_name_is_an_error():
    with pytest.raises(KeyError):
        layer_metrics(Tracer(), workloads.Tally(), ["kernel.no_such_function.calls"])


def test_run_refuses_a_directory_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "kernel-sweep", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
