"""Checks of the bench itself: exact counts, tracing neutrality, output checks.

Run from the repository root with ``python3 -m pytest -q bench/test_bench.py``.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

import host  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# A few ops per workload keep the test quick; optimize op 1 is a legit-weaker problem.
SLICES = {"construct": slice(0, 12), "optimize": slice(1, 2), "wide": slice(0, 6)}


def _ops(name, seed=1):
    return workloads.WORKLOADS[name].build(seed)[SLICES[name]]


def _pass(wl, ops, tracer=None):
    if tracer is None:
        _, outcomes, _, _ = run.run_ops(wl, ops, count=len(ops))
    else:
        with tracer.installed():
            _, outcomes, _, _ = run.run_ops(wl, ops, count=len(ops))
    return run.digest(wl, outcomes)


@pytest.mark.parametrize("name", sorted(SLICES))
def test_traced_counts_repeat_and_tracing_changes_no_result(name):
    wl = workloads.WORKLOADS[name]
    ops = _ops(name)
    plain = _pass(wl, ops)
    first, second = layers.Tracer(), layers.Tracer()
    assert _pass(wl, ops, first) == plain
    assert _pass(wl, ops, second) == plain
    assert first.counts() == second.counts()
    assert first.spans["L2.rate"].calls > 0


def test_tracer_restores_entry_points_after_an_error():
    originals = [(mod, attr, getattr(mod, attr))
                 for _, module, attr, rebinders, *_ in layers.ENTRY_POINTS
                 for mod in (module, *rebinders)]
    with pytest.raises(ZeroDivisionError):
        with layers.Tracer().installed():
            assert all(getattr(mod, attr) is not fn for mod, attr, fn in originals)
            1 / 0
    assert all(getattr(mod, attr) is fn for mod, attr, fn in originals)


def test_same_seed_same_inputs():
    wl = workloads.WORKLOADS["construct"]
    assert repr(wl.build(3)[:5]) == repr(wl.build(3)[:5])
    assert repr(wl.build(3)[:5]) != repr(wl.build(4)[:5])


def test_checks_catch_a_moved_rate():
    wl = workloads.WORKLOADS["construct"]
    op = _ops("construct")[0]
    outcome = wl.run(op)
    assert outcome.status == "ok" and wl.check(op, outcome) == []
    report = outcome.value.exact_rate
    assert oracle.disagreement(op.chan, outcome.value.input, report) == []

    moved = replace(report, i1=report.i1 + 1e-11, rs=report.rs + 1e-11)
    assert oracle.disagreement(op.chan, outcome.value.input, moved)
    bad = workloads.Outcome("ok", replace(outcome.value, exact_rate=moved))
    assert wl.check(op, bad)
    bad_rs = workloads.Outcome("ok", replace(outcome.value, exact_rate=replace(report, rs=0.5)))
    assert any("i1 - i2" in p for p in wl.check(op, bad_rs))


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)

    end_to_end = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert end_to_end == {k: v for k, v in run.END_TO_END.items() if k not in run.UNGATED}

    reported = dict(layers.layer_metrics(layers.Tracer(), 1.0))
    reported.update({"L4.import_s": (0, "s"), "L4.cli_sweep_ms": (0, "ms"),
                     "host.ref_ms": (0, "ms"), "trace.overhead_frac": (0, "frac")})
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {k: unit for k, (_, unit) in reported.items() if k not in run.UNGATED}


def test_host_clock_rescales_each_op_by_the_samples_around_it(monkeypatch):
    samples = iter([8.0, 2.0])
    monkeypatch.setattr(host, "reference_ms", lambda: next(samples))
    clock = host.HostClock()
    clock.before_op()
    clock.before_op()  # within INTERVAL_S: shares the first sample
    assert clock.rescale([0.010, 0.020]) == pytest.approx([0.008, 0.016])
    assert clock.samples == [8.0, 2.0]
