"""Host-time benchmark of the authenticated-syscall kernel.

Usage (from the repository root)::

    python3 perfbench/run.py --workload spec-hot --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload with tracing off and prints the
end-to-end metrics; ``--trace 1`` runs a fixed number of passes
untraced, then the same passes under the layer wrappers of
:mod:`layers`, and prints the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit status is non-zero when any
operation failed its oracle or a digest differed.

Timed figures are host time scaled to a reference host's speed (see
``calibrate``), and the script re-executes itself with a fixed
``PYTHONHASHSEED``: both keep runs on a shared host comparable.

``python3 perfbench/run.py --record-digests`` re-records the pinned
digests of the default seed with the reference interpreter.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "repro").is_dir():
    # Benchmark the checkout's own sources, never an installed copy.
    sys.exit(f"perfbench: no {SRC / 'repro'}; run from a repository checkout")
sys.path[:0] = [str(SRC), str(HERE)]

import layers  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, digest  # noqa: E402

DIGESTS = HERE / "digests.json"

#: Passes of the traced run per second of ``--seconds``: sized so the
#: untraced and the traced passes together fill about that time.
TRACE_PASSES_PER_SECOND = {"spec-hot": 0.3, "andrew-churn": 0.5, "netserver": 0.3}

#: Seconds ``calibrate`` takes on the reference host (an Intel Xeon
#: container with 2 vCPUs, CPython 3.11) when it is quiet.
REFERENCE_CALIBRATION_S = 0.0017


class PassFailure(Exception):
    """A pass's digest differs from the reference pass's."""


def calibrate() -> float:
    """Host seconds of a fixed pure-Python loop of dict, integer and
    string work, the kind of work the simulator does.

    A shared host runs the same code up to half again slower for
    minutes at a time.  A timed pass therefore calibrates before its
    set-up, before each operation and after the last one, and scales
    each host time by ``REFERENCE_CALIBRATION_S`` over the mean of the
    two calibrations around it: figures read as host time on the
    reference host, and drift of the host's speed cancels out while a
    change to the program does not."""
    table: dict[int, int] = {}
    total = 0
    start = perf_counter()
    for i in range(10_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        total += len(str(i)) if i % 7 == 0 else key
    return perf_counter() - start


class PassTiming:
    """The work and host time of one pass."""

    __slots__ = ("instructions", "requests", "latencies", "calibrations")

    def __init__(self) -> None:
        self.instructions = 0
        self.requests = 0
        #: Host seconds of each operation.
        self.latencies: list[float] = []
        #: ``calibrate`` before each operation and after the last, in a
        #: calibrated pass; empty otherwise.
        self.calibrations: list[float] = []

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    def scaled_latencies(self) -> list[float]:
        """Operation latencies in reference-host seconds."""
        c = self.calibrations
        return [
            latency * 2 * REFERENCE_CALIBRATION_S / (c[i] + c[i + 1])
            for i, latency in enumerate(self.latencies)
        ]


class Tally:
    """Operation outcomes and timings across passes."""

    def __init__(self) -> None:
        self.passes: list[PassTiming] = []
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def busy_s(self) -> float:
        return sum(p.busy_s for p in self.passes)

    def median_rate(self, field: str) -> float:
        """Median over passes of a per-pass count per reference-host
        second.  Every pass does the same work, so a burst of host
        contention skews a few passes rather than the figure."""
        return statistics.median(
            getattr(p, field) / sum(p.scaled_latencies()) for p in self.passes)


def run_pass(prepared, tally: Tally, rec=None, calibrated: bool = False) -> str:
    """Run every operation of one pass; returns the pass digest.

    With ``rec``, each operation runs inside a ``bench.op`` root span;
    with ``calibrated``, each is bracketed by ``calibrate`` calls."""
    records = []
    timing = PassTiming()
    for op in prepared.ops:
        if calibrated:
            timing.calibrations.append(calibrate())
        if rec is not None:
            rec.begin("bench.op", "bench")
        start = perf_counter()
        raw = op.run()
        elapsed = perf_counter() - start
        if rec is not None:
            rec.end()
        outcome = op.check(raw)
        del raw
        timing.latencies.append(elapsed)
        timing.instructions += outcome.instructions
        timing.requests += outcome.requests
        tally.attempted += 1
        if outcome.failure is not None:
            tally.failures.append(outcome.failure)
        records.append(outcome.record)
    if calibrated:
        timing.calibrations.append(calibrate())
    prepared.reset()
    tally.passes.append(timing)
    return digest(records)


def pinned_digest(workload):
    """The interpreter digest recorded for this workload, if any: only
    the full-size default seed has one."""
    if workload.seed != DEFAULT_SEED or workload.tiny or not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload.name)


def reference_pass(workload, prepared, tally: Tally) -> str:
    """The warm-up pass: its digest is what every later pass must match,
    and on the default seed it must match the pinned digest."""
    reference = run_pass(prepared, tally)
    pinned = pinned_digest(workload)
    if pinned is not None and reference != pinned:
        raise PassFailure(f"digest {reference} != pinned interpreter digest {pinned}")
    return reference


def timed_run(workload, seconds: float) -> tuple[Tally, dict]:
    """Run passes for ``seconds``, each on a fresh set-up.

    Timing a set-up before every pass samples it across the whole run,
    so ``setup_s`` (their median) sees the same host as the passes."""
    warm = Tally()
    reference = reference_pass(workload, workload.setup(), warm)
    tally = Tally()
    tally.attempted, tally.failures = warm.attempted, warm.failures
    setups = []
    start = perf_counter()
    while perf_counter() - start < seconds:
        gc.collect()
        before = calibrate()
        setup_start = perf_counter()
        prepared = workload.setup()
        setup = perf_counter() - setup_start
        if run_pass(prepared, tally, calibrated=True) != reference:
            raise PassFailure("a timed pass's digest differs from the warm-up pass")
        del prepared
        after = tally.passes[-1].calibrations[0]
        setups.append(setup * 2 * REFERENCE_CALIBRATION_S / (before + after))
    latencies = sorted(
        latency for p in tally.passes for latency in p.scaled_latencies())
    count = len(latencies)
    # Nearest-rank percentiles; the count is printed so the reader can
    # see that p95 has at least ten samples beyond it.
    p50 = latencies[min(count - 1, int(0.50 * count))]
    p95 = latencies[min(count - 1, int(0.95 * count))]
    print(f"[perfbench] {workload.name}: {count} operations, "
          f"{count - int(0.95 * count) - 1} beyond p95", file=sys.stderr)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "guest_mips": (tally.median_rate("instructions") / 1e6, "MIPS"),
        "op_ms.p50": (p50 * 1e3, "ms"),
        "op_ms.p95": (p95 * 1e3, "ms"),
        "requests_per_s": (tally.median_rate("requests"), "1/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return tally, metrics


def traced_run(workload, seconds: float) -> tuple[Tally, dict]:
    """Untraced passes, then the same passes traced, for the layers."""
    passes = max(1, round(seconds * TRACE_PASSES_PER_SECOND[workload.name]))
    workload.setup()  # the timed set-up below runs warm, like the traced one
    gc.collect()
    start = perf_counter()
    prepared = workload.setup()
    untraced_setup = perf_counter() - start
    tally = Tally()
    reference = reference_pass(workload, prepared, tally)
    untraced = Tally()
    for _ in range(passes):
        gc.collect()
        if run_pass(prepared, untraced) != reference:
            raise PassFailure("an untraced pass's digest differs from the warm-up pass")
    del prepared
    gc.collect()
    rec = layers.LayerRecorder()
    traced = Tally()
    with layers.Instrumentation(rec):
        rec.begin("bench.setup", "bench")
        prepared = workload.setup(recorder=rec)
        rec.end()
        for _ in range(passes):
            if run_pass(prepared, traced, rec) != reference:
                raise PassFailure("a traced pass's digest differs from the untraced run")
    survivors = layers.surviving_wrappers()
    if survivors:
        raise PassFailure(f"wrappers survived the traced run: {survivors}")
    print(layers.span_table(rec), file=sys.stderr)
    for part in (untraced, traced):
        tally.attempted += part.attempted
        tally.failures += part.failures
    metrics = layers.layer_metrics(
        rec, prepared.kernel.metrics.snapshot(), untraced_setup + untraced.busy_s
    )
    return tally, metrics


def record_digests() -> int:
    """Run one pass of every workload at the default seed on the
    reference interpreter and pin its digest."""
    pinned = {}
    for name, cls in WORKLOADS.items():
        workload = cls(DEFAULT_SEED)
        tally = Tally()
        pinned[name] = run_pass(workload.setup(engine="interp"), tally)
        if tally.failures:
            print(f"{name}: {tally.failures}", file=sys.stderr)
            return 1
        print(f"{name}: {pinned[name]}", file=sys.stderr)
    DIGESTS.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        parser.error("--workload is required")

    workload = WORKLOADS[args.workload](args.seed)
    run = traced_run if args.trace else timed_run
    try:
        tally, metrics = run(workload, args.seconds)
        mismatch = None
    except PassFailure as failure:
        tally, metrics, mismatch = Tally(), {}, str(failure)
        tally.attempted = 1
    for failure in tally.failures[:10]:
        print(f"[perfbench] FAILED {failure}", file=sys.stderr)
    if mismatch:
        print(f"[perfbench] FAILED {mismatch}", file=sys.stderr)
    correct = mismatch is None and not tally.failures
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": len(tally.failures) + (mismatch is not None),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing orders dicts and sets, and runs of the same
        # workload under different hash seeds differ in speed; one fixed
        # hash seed keeps runs comparable.
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.exit(main())
