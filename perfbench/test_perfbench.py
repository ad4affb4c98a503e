"""Tests of the benchmark itself (run with ``python3 -m pytest perfbench``)."""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (first: puts the checkout's src/ on the path)
import layers  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _pass(workload, engine="threaded"):
    tally = run.Tally()
    prepared = workload.setup(engine=engine)
    first = run.run_pass(prepared, tally)
    return first, run.run_pass(prepared, tally), tally


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_oracle_and_matches_interpreter(name):
    workload = WORKLOADS[name](DEFAULT_SEED, tiny=True)
    first, second, tally = _pass(workload)
    assert tally.failures == []
    assert first == second
    reference, _, interp_tally = _pass(workload, engine="interp")
    assert interp_tally.failures == []
    assert first == reference


def test_oracle_reports_a_wrong_output():
    workload = WORKLOADS["andrew-churn"](DEFAULT_SEED, tiny=True)
    wc = next(step for step in workload.steps if step.tool == "wc")
    wc.stdout = b"0 0\n"
    _, _, tally = _pass(workload)
    assert len(tally.failures) == 2 and "stdout" in tally.failures[0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_default_seed_matches_pinned_digest(name):
    workload = WORKLOADS[name](DEFAULT_SEED)
    tally = run.Tally()
    prepared = workload.setup()
    assert run.reference_pass(workload, prepared, tally) == run.pinned_digest(workload)
    assert tally.failures == []


def test_recorder_self_times_partition_the_root():
    ticks = iter(range(0, 1000, 10))
    rec = layers.LayerRecorder(clock=lambda: next(ticks))
    rec.begin("bench.op", "bench")       # t=0
    rec.begin("execute", "engine")       # t=10
    rec.begin("pid104", "sched")         # t=20
    rec.begin("crypto.mac", "bench")     # t=30
    rec.close_to(1)                      # t=40, 50, 60
    rec.end()                            # t=70
    assert rec.open_spans == 0
    assert rec.root_ns == 70
    assert sum(s.self_ns for s in rec.stats.values()) == rec.root_ns
    assert rec.stats["sched.slice"].total_ns == 30
    assert "pid104" not in rec.stats
    assert rec.stats["execute"].self_ns == 20
    assert sum(rec.layer_self_ns().values()) == rec.root_ns


def test_instrumentation_restores_every_original_on_error():
    rec = layers.LayerRecorder()
    with pytest.raises(RuntimeError):
        with layers.Instrumentation(rec) as instrumentation:
            assert len(layers.surviving_wrappers()) == len(instrumentation.targets())
            raise RuntimeError
    assert layers.surviving_wrappers() == []


@pytest.fixture(scope="module")
def traced():
    return {
        name: run.traced_run(WORKLOADS[name](DEFAULT_SEED, tiny=True), 1.0)
        for name in sorted(WORKLOADS)
    }


def test_traced_run_leaves_no_wrapper(traced):
    assert layers.surviving_wrappers() == []
    for tally, _ in traced.values():
        assert tally.failures == []


def test_layer_self_times_sum_to_traced_total(traced):
    for _, metrics in traced.values():
        traced_s = metrics["trace.traced_s"][0]
        layer_sum = sum(value for name, (value, _) in metrics.items()
                        if name.endswith(".self_s"))
        unattributed = metrics["trace.unattributed_share"][0] * traced_s
        assert layer_sum + unattributed == pytest.approx(traced_s, rel=1e-9)
        assert metrics["trace.unattributed_share"][0] < 0.05


def test_traced_run_confirms_each_workload_purpose(traced):
    spec, andrew, net = (traced[n][1] for n in ("spec-hot", "andrew-churn", "netserver"))
    for metrics in (spec, andrew):
        for name, (value, _) in metrics.items():
            if name.startswith(("sched.", "net.")):
                assert value == 0, name
    assert net["dispatch.retries"][0] > 0
    assert net["net.calls"][0] > 0


def _declared(kind):
    return {metric["name"]: metric["unit"] for metric in SPEC[kind]}


def test_every_emitted_name_is_declared(traced):
    tally, end_to_end = run.timed_run(WORKLOADS["andrew-churn"](DEFAULT_SEED, tiny=True), 0.1)
    assert tally.failures == []
    assert {n: u for n, (_, u) in end_to_end.items()} == _declared("end_to_end")
    for _, metrics in traced.values():
        assert {n: u for n, (_, u) in metrics.items()} == _declared("per_layer")
    for kind in ("workloads", "end_to_end", "per_layer"):
        for entry in SPEC[kind]:
            assert NAME.match(entry["name"]), entry["name"]
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


def test_predictions_name_declared_metrics_and_workloads():
    per_layer, end_to_end = _declared("per_layer"), _declared("end_to_end")
    for layer_metric, e2e_metric, workload in layers.PREDICTIONS:
        assert layer_metric in per_layer
        assert e2e_metric in end_to_end
        assert workload in WORKLOADS
