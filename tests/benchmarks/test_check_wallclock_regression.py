"""Unit coverage for the CI perf-gate script.

The gate guards every perf PR, so its own edge cases — missing
workloads, missing columns, the opt-out flags, both verify-share
regimes — deserve tests of their own rather than being exercised only
when CI happens to trip them.
"""

import json

from benchmarks.check_wallclock_regression import (
    DEFAULT_SCHED_PARITY,
    VERIFY_CREEP_ALLOWANCE,
    VERIFY_GATE_WORKLOAD,
    VERIFY_IMPROVEMENT_GATE,
    VERIFY_SHARE_PR6_BASELINE,
    check_sched_parity,
    check_verify_share,
    compare,
    main,
)


def _entry(ips, sched_ips=None, verify_share=None):
    entry = {
        "interp": {"instructions_per_second": ips // 4},
        "threaded_chained": {"instructions_per_second": ips},
    }
    if sched_ips is not None:
        entry["threaded_sched"] = {"instructions_per_second": sched_ips}
    if verify_share is not None:
        entry["verify_share"] = verify_share
    return entry


def _doc(**workloads):
    return {"workloads": workloads}


# -- compare() --------------------------------------------------------------


def test_identical_runs_pass():
    doc = _doc(**{"gzip-spec": _entry(1_000_000)})
    assert compare(doc, doc, 0.7) == []


def test_regression_below_threshold_fails_with_named_column():
    baseline = _doc(**{"gzip-spec": _entry(1_000_000)})
    current = _doc(**{"gzip-spec": _entry(500_000)})
    failures = compare(baseline, current, 0.7)
    assert len(failures) == 1
    assert "gzip-spec" in failures[0]
    assert "threaded_chained" in failures[0]


def test_small_dip_within_threshold_passes():
    baseline = _doc(**{"gzip-spec": _entry(1_000_000)})
    current = _doc(**{"gzip-spec": _entry(800_000)})
    assert compare(baseline, current, 0.7) == []


def test_no_shared_workloads_is_a_failure():
    baseline = _doc(**{"gzip-spec": _entry(1_000_000)})
    current = _doc(**{"bison-diff": _entry(1_000_000)})
    failures = compare(baseline, current, 0.7)
    assert failures == [
        "no workloads in common between baseline and current run"
    ]


def test_missing_column_in_baseline_is_skipped_not_failed():
    # A committed baseline that predates chaining lacks the
    # threaded_chained column: the gate skips that comparison.
    base_entry = _entry(1_000_000)
    del base_entry["threaded_chained"]
    baseline = _doc(**{"gzip-spec": base_entry})
    current = _doc(**{"gzip-spec": _entry(1_000_000)})
    assert compare(baseline, current, 0.7) == []


def test_extra_baseline_workload_is_ignored():
    baseline = _doc(**{
        "gzip-spec": _entry(1_000_000),
        "retired": _entry(1_000_000),
    })
    current = _doc(**{"gzip-spec": _entry(900_000)})
    assert compare(baseline, current, 0.7) == []


# -- check_sched_parity() ---------------------------------------------------


def test_sched_parity_ok_at_default_threshold():
    current = _doc(**{"gzip-spec": _entry(1_000_000, sched_ips=980_000)})
    assert check_sched_parity(current, DEFAULT_SCHED_PARITY) == []


def test_sched_parity_regression_detected():
    # Sched at half the chained column is far under the 0.95 gate.
    current = _doc(**{"gzip-spec": _entry(1_000_000, sched_ips=500_000)})
    failures = check_sched_parity(current, DEFAULT_SCHED_PARITY)
    assert len(failures) == 1
    assert "scheduler overhead" in failures[0]


def test_sched_parity_skipped_when_not_measured():
    current = _doc(**{"gzip-spec": _entry(1_000_000)})
    assert check_sched_parity(current, DEFAULT_SCHED_PARITY) == []


# -- check_verify_share() ---------------------------------------------------


def test_verify_share_pre_jit_baseline_demands_improvement():
    # Baseline without the field = PR 6 era: current share must beat
    # the hard-coded reference by the improvement factor.
    ceiling = VERIFY_SHARE_PR6_BASELINE / VERIFY_IMPROVEMENT_GATE
    baseline = _doc(**{VERIFY_GATE_WORKLOAD: _entry(1_000_000)})
    good = _doc(**{
        VERIFY_GATE_WORKLOAD: _entry(1_000_000, verify_share=ceiling * 0.9)
    })
    bad = _doc(**{
        VERIFY_GATE_WORKLOAD: _entry(1_000_000, verify_share=ceiling * 1.1)
    })
    assert check_verify_share(baseline, good) == []
    failures = check_verify_share(baseline, bad)
    assert len(failures) == 1
    assert "verify-stage share" in failures[0]


def test_verify_share_post_jit_baseline_allows_bounded_creep():
    baseline = _doc(**{
        VERIFY_GATE_WORKLOAD: _entry(1_000_000, verify_share=0.10)
    })
    within = _doc(**{
        VERIFY_GATE_WORKLOAD: _entry(
            1_000_000, verify_share=0.10 * VERIFY_CREEP_ALLOWANCE - 0.001
        )
    })
    beyond = _doc(**{
        VERIFY_GATE_WORKLOAD: _entry(
            1_000_000, verify_share=0.10 * VERIFY_CREEP_ALLOWANCE + 0.001
        )
    })
    assert check_verify_share(baseline, within) == []
    assert len(check_verify_share(baseline, beyond)) == 1


def test_verify_share_reads_nested_observability_block():
    baseline = _doc(**{VERIFY_GATE_WORKLOAD: _entry(1_000_000)})
    baseline["workloads"][VERIFY_GATE_WORKLOAD]["observability"] = {
        "verify_share": 0.10
    }
    current = _doc(**{VERIFY_GATE_WORKLOAD: _entry(1_000_000)})
    current["workloads"][VERIFY_GATE_WORKLOAD]["observability"] = {
        "verify_share": 0.10
    }
    assert check_verify_share(baseline, current) == []


def test_verify_share_skipped_when_current_lacks_it():
    baseline = _doc(**{VERIFY_GATE_WORKLOAD: _entry(1_000_000)})
    current = _doc(**{VERIFY_GATE_WORKLOAD: _entry(1_000_000)})
    assert check_verify_share(baseline, current) == []


# -- main() -----------------------------------------------------------------


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_main_passes_on_identical_files(tmp_path):
    doc = _doc(**{"gzip-spec": _entry(1_000_000, sched_ips=980_000)})
    base = _write(tmp_path, "base.json", doc)
    curr = _write(tmp_path, "curr.json", doc)
    assert main(["--baseline", base, "--current", curr,
                 "--no-verify-share-gate"]) == 0


def test_main_fails_on_regression(tmp_path):
    base = _write(
        tmp_path, "base.json", _doc(**{"gzip-spec": _entry(1_000_000)})
    )
    curr = _write(
        tmp_path, "curr.json", _doc(**{"gzip-spec": _entry(100_000)})
    )
    assert main(["--baseline", base, "--current", curr,
                 "--no-verify-share-gate"]) == 1


def test_main_sched_parity_zero_disables_that_gate(tmp_path):
    # sched far below parity, but --sched-parity-threshold 0 opts out.
    doc = _doc(**{"gzip-spec": _entry(1_000_000, sched_ips=10)})
    base = _write(tmp_path, "base.json", doc)
    curr = _write(tmp_path, "curr.json", doc)
    assert main(["--baseline", base, "--current", curr,
                 "--sched-parity-threshold", "0",
                 "--no-verify-share-gate"]) == 0
    assert main(["--baseline", base, "--current", curr,
                 "--no-verify-share-gate"]) == 1


def test_main_verify_share_gate_opt_out(tmp_path):
    # Share over the pre-JIT ceiling: gated by default, waived by flag.
    doc = _doc(**{
        VERIFY_GATE_WORKLOAD: _entry(1_000_000, verify_share=0.5)
    })
    base = _write(
        tmp_path, "base.json", _doc(**{VERIFY_GATE_WORKLOAD: _entry(1_000_000)})
    )
    curr = _write(tmp_path, "curr.json", doc)
    assert main(["--baseline", base, "--current", curr]) == 1
    assert main(["--baseline", base, "--current", curr,
                 "--no-verify-share-gate"]) == 0


def test_main_custom_threshold(tmp_path):
    base = _write(
        tmp_path, "base.json", _doc(**{"gzip-spec": _entry(1_000_000)})
    )
    curr = _write(
        tmp_path, "curr.json", _doc(**{"gzip-spec": _entry(600_000)})
    )
    common = ["--baseline", base, "--current", curr,
              "--no-verify-share-gate"]
    assert main(common + ["--threshold", "0.5"]) == 0
    assert main(common + ["--threshold", "0.7"]) == 1
