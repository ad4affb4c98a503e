"""The host benchmark's one gate, :func:`benchmarks.bench_host.check`,
and its archive rule, on synthetic measurements.

Each gate must trip on its own with a message that names the workload,
the column and both numbers, so a red CI run identifies the offending
measurement without re-running anything.
"""

import json

import pytest

from benchmarks import bench_host
from benchmarks.bench_host import check, record


def _spec(speedup=20.0, parity=1.0, chained=6e6, share=0.15):
    return {
        "size": 100,
        "rates": {"interp": chained / speedup, "chained": chained,
                  "sched": chained * parity},
        "ratios": {"speedup": speedup, "sched_parity": parity},
        "verify_share": share,
    }


def _net(speedup=18.0, interp=110.0, chained=2000.0):
    return {
        "size": 64,
        "rates": {"interp": interp, "chained": chained,
                  "interp_off": interp, "chained_off": chained * 1.3},
        "ratios": {"speedup": speedup, "auth_overhead_interp": 1.0,
                   "auth_overhead_chained": 1.3},
    }


def _run(scale=1.0, **workloads):
    return {"scale": scale, "repeats": 5, "workloads": workloads}


def _full(**overrides):
    workloads = {name: _spec() for name in bench_host.SPEC_WORKLOADS}
    workloads["netserver"] = _net()
    workloads.update({name.replace("_", "-"): entry
                      for name, entry in overrides.items()})
    return _run(**workloads)


ARCHIVE = _full()


def test_identical_runs_pass():
    assert check(ARCHIVE, ARCHIVE) == []


def test_gate_thresholds_are_the_carried_over_ones():
    assert (bench_host.NEVER_SLOWER, bench_host.SPEC_SPEEDUP_GATE,
            bench_host.GZIP_SPEEDUP_GATE, bench_host.NET_SPEEDUP_GATE,
            bench_host.SCHED_PARITY_GATE, bench_host.TRIPWIRE) == (
        1.0, 3.0, 5.0, 3.0, 0.95, 0.7)
    assert (bench_host.VERIFY_SHARE_PRE_JIT, bench_host.VERIFY_SHARE_IMPROVEMENT,
            bench_host.VERIFY_SHARE_CREEP) == (0.4033, 1.5, 1.5)


# One case per row of the gate table: (measurement, archive, words the
# one failure must name).
GATES = {
    "never-slower": (
        _run(0.2, crafty=_spec(speedup=0.9)), {},
        ["crafty", "chained/interp", "0.90x", "1.0x"]),
    "spec-3x": (
        _full(crafty=_spec(speedup=2.5)), ARCHIVE,
        ["crafty", "chained/interp", "2.50x", "3.0x"]),
    "gzip-5x": (
        _full(gzip_spec=_spec(speedup=4.0)), ARCHIVE,
        ["gzip-spec", "chained/interp", "4.00x", "5.0x"]),
    "sched-parity": (
        _run(0.2, twolf=_spec(parity=0.9)), {},
        ["twolf", "sched/chained", "0.90x", "0.95x"]),
    "verify-share": (
        _full(gzip_spec=_spec(share=0.28)), {},
        ["gzip-spec", "verify share", "0.2800", "0.2689"]),
    "net-3x": (
        _run(0.2, netserver=_net(speedup=2.5)), {},
        ["netserver", "chained/interp", "2.50x", "3.0x"]),
    "tripwire-chained": (
        _full(twolf=_spec(chained=3e6)), ARCHIVE,
        ["twolf", "chained", "3,000,000", "6,000,000", "0.50x"]),
    "tripwire-net-interp": (
        _full(netserver=_net(interp=55.0)), ARCHIVE,
        ["netserver", "interp", "55", "110"]),
    "tripwire-net-chained": (
        _full(netserver=_net(chained=1000.0)), ARCHIVE,
        ["netserver", "chained", "1,000", "2,000"]),
}


@pytest.mark.parametrize("gate", GATES)
def test_each_gate_trips_alone(gate):
    measured, archive, words = GATES[gate]
    failures = check(measured, archive)
    assert len(failures) == 1, failures
    for word in words:
        assert word in failures[0], (word, failures[0])


def test_ratio_gates_read_the_ratio_not_the_rates():
    # Paired medians gate even when the median rates alone would pass.
    measured = _full(crafty=_spec(speedup=2.0))
    measured["workloads"]["crafty"]["rates"]["interp"] = 1.0
    assert len(check(measured, ARCHIVE)) == 1


def test_full_scale_gates_are_off_on_smaller_runs():
    measured = _run(0.2, **{"gzip-spec": _spec(speedup=2.0, share=0.9)})
    assert check(measured, {}) == []


def test_sched_parity_ok_at_the_gate():
    assert check(_full(crafty=_spec(parity=0.96)), ARCHIVE) == []


def test_sched_parity_regression_detected():
    failures = check(_full(crafty=_spec(parity=0.5)), ARCHIVE)
    assert len(failures) == 1 and "scheduler parity" in failures[0]


def test_small_dip_within_threshold_passes():
    measured = _full(gzip_spec=_spec(chained=6e6 * 0.8),
                     netserver=_net(interp=110.0 * 0.8, chained=2000.0 * 0.8))
    assert check(measured, ARCHIVE) == []


def test_tripwire_skipped_on_scale_mismatch():
    smoke = _run(0.2, **{"gzip-spec": _spec(chained=1e5),
                         "netserver": _net(interp=1.0, chained=10.0)})
    assert check(smoke, ARCHIVE) == []


def test_tripwire_skipped_on_workload_mismatch():
    archive = _run(**{"crafty": _spec()})
    assert check(_full(twolf=_spec(chained=1e5)), archive) == []


def test_extra_archive_workload_is_ignored():
    assert check(_run(**{"crafty": _spec(chained=5e6)}), ARCHIVE) == []


@pytest.mark.parametrize("share, ok", [(0.14, True), (0.20, False), (0.27, False)],
                         ids=["under-both", "between", "above-both"])
def test_verify_share_between_the_two_ceilings_fails(share, ok):
    # Archived 0.10 caps the share at 0.15, below 0.4033 / 1.5 = 0.2689.
    archive = _full(gzip_spec=_spec(share=0.10))
    failures = check(_full(gzip_spec=_spec(share=share)), archive)
    assert (failures == []) == ok
    if not ok:
        assert "0.1500" in failures[0] and "archived 0.1" in failures[0]


def test_verify_share_fixed_ceiling_without_an_archive():
    assert check(_full(gzip_spec=_spec(share=0.26)), {}) == []


def test_verify_share_fixed_ceiling_caps_a_lax_archive():
    # 1.5 x archived 0.30 = 0.45 is looser than 0.2689, which wins.
    archive = _full(gzip_spec=_spec(share=0.30))
    assert len(check(_full(gzip_spec=_spec(share=0.28)), archive)) == 1


def _record(tmp_path, measured, failures):
    path = tmp_path / "BENCH_host.json"
    path.write_text("old\n")
    return record(measured, failures, path), path.read_text()


def test_archive_rewritten_after_a_passing_full_run(tmp_path):
    measured = _full()
    written, text = _record(tmp_path, measured, check(measured, ARCHIVE))
    assert written and json.loads(text) == measured


@pytest.mark.parametrize("measured", [
    _full(crafty=_spec(speedup=2.0)),   # failing
    _run(0.2, **ARCHIVE["workloads"]),  # smoke scale
    _run(**{"gzip-spec": _spec()}),     # not every workload
], ids=["failing", "smoke", "subset"])
def test_archive_kept_otherwise(tmp_path, measured):
    assert _record(tmp_path, measured, check(measured, ARCHIVE)) == (False, "old\n")
