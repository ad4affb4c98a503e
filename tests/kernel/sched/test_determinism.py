"""Scheduler determinism: the CI gate's contract.

Two runs with the same programs and timeslice must produce identical
interleavings, exit statuses, and scheduler metrics — and the property
must hold ACROSS engines (the interpreter and the threaded engine with
direct block chaining and superblock fusion), because both account
instructions identically and the threaded engine only enters chained
successors or fused superblocks when the remaining timeslice covers
them."""

import pytest

from repro.kernel import Kernel
from repro.workloads.multiproc import build_server

#: label -> engine
CONFIGS = {
    "interp": "interp",
    "chained": "threaded",
}


def _run(engine: str, timeslice: int = 500):
    kernel = Kernel(engine=engine)
    multi = kernel.run_many(
        [build_server(workers=4, requests=16)], timeslice=timeslice
    )
    sched_metrics = {
        name: value
        for name, value in kernel.metrics.snapshot().items()
        if name.startswith("sched.")
    }
    statuses = {
        pid: task.exit_status for pid, task in multi.scheduler.tasks.items()
    }
    return multi.scheduler.interleaving, statuses, sched_metrics


class TestDeterminism:
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_repeated_runs_identical(self, config):
        first = _run(CONFIGS[config])
        second = _run(CONFIGS[config])
        assert first == second

    def test_cross_engine_identical(self):
        """The acceptance property: both engines consume exactly the
        same instruction counts per slice, so a multiprogrammed run
        schedules identically on each —
        preemption points land on the same boundaries even when they
        fall where the chained engine would otherwise hop a chain link
        or start a superblock pass."""
        results = {label: _run(engine) for label, engine in CONFIGS.items()}
        for label, (interleaving, statuses, metrics) in results.items():
            assert interleaving == results["interp"][0], label
            assert statuses == results["interp"][1], label
            assert metrics == results["interp"][2], label

    def test_timeslice_changes_interleaving_but_not_results(self):
        _, statuses_a, _ = _run("threaded", timeslice=500)
        interleaving_b, statuses_b, _ = _run("threaded", timeslice=2000)
        interleaving_a, _, _ = _run("threaded", timeslice=500)
        assert statuses_a == statuses_b
        assert interleaving_a != interleaving_b

    def test_tight_timeslices_identical_across_configs(self):
        """Small timeslices force preemptions to land mid-loop, right
        where chains and superblocks live; the interleaving must stay
        engine-invariant there too."""
        for timeslice in (37, 101):
            results = {label: _run(engine, timeslice=timeslice)
                       for label, engine in CONFIGS.items()}
            for label, result in results.items():
                assert result == results["interp"], (label, timeslice)
