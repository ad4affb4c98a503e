"""Fault-injection detection coverage as a regression bench.

A reduced seeded sweep (scaled via ``REPRO_BENCH_SCALE``) across every
engine configuration; the bench reports the per-kind and
per-config coverage table and asserts the battery's contract — zero
MISSED faults, identical detection counts on every configuration.  The
full-volume run is the CI ``faults-battery`` job; this keeps coverage
visible in the benchmark archive alongside the perf numbers.
"""

import pytest

from repro.analysis import format_table
from repro.faults import run_sweep
from repro.faults.sweep import OUTCOMES
from benchmarks.conftest import BENCH_KEY, bench_scale

SEED = 20050926
BASE_COUNT = 100


@pytest.mark.benchmark(group="faults")
def test_fault_coverage_battery(benchmark, report):
    count = max(len(OUTCOMES) * 10, int(BASE_COUNT * bench_scale()))

    sweep = benchmark.pedantic(
        lambda: run_sweep(key=BENCH_KEY, seed=SEED, count=count),
        rounds=1, iterations=1,
    )

    rows = [
        [kind,
         counts["detected"], counts["benign"], counts["missed"]]
        for kind, counts in sorted(sweep.by_kind.items())
    ]
    rows.append(["TOTAL", sweep.totals["detected"], sweep.totals["benign"],
                 sweep.totals["missed"]])
    report(
        "fault_coverage",
        format_table(
            ["fault kind", "detected", "benign", "MISSED"],
            rows,
            title=f"fault-injection coverage (seed {SEED}, "
                  f"{count} plans x {len(sweep.configs)} configs)",
        ),
    )

    assert sweep.ok, sweep.summary()
    assert sweep.totals["missed"] == 0
    assert sweep.totals["injected"] == count * len(sweep.configs)
    # Detection is engine-independent: every config classifies the same
    # plans the same way.
    per_config = list(sweep.by_config.values())
    assert all(row == per_config[0] for row in per_config)
