"""Host wall-clock throughput: interpreter vs the threaded engine with
direct block chaining.

Every other benchmark in this suite measures *simulated* cycles, which
are engine-invariant by construction.  This one measures what the
tentpole optimisations actually buy: real host instructions/second for
the execution engine configurations on three CPU-bound macro
workloads.  It also re-checks the engines' bit-identity contract on
the exact binaries it times (same cycles, instructions, syscalls, exit
status) — across the interpreter, the chained threaded engine, and a
run under the preemptive scheduler.

Columns:

- ``interp`` — the reference interpreter.
- ``threaded_chained`` — the translation cache with direct block
  chaining + superblock fusion (the default engine configuration).
- ``threaded_sched`` — the chained engine under the preemptive
  scheduler with a generous timeslice (sched-parity gate).

Results are archived twice: the human-readable table under
``benchmarks/results/`` like every other bench, and a machine-readable
``BENCH_host_wallclock.json`` at the repo root that seeds the repo's
host-performance trajectory (later optimisation PRs append comparable
numbers).

Knobs:

- ``REPRO_BENCH_SCALE`` shrinks the workload iteration counts like the
  other macro benches.
- ``REPRO_WALLCLOCK_WORKLOADS`` (comma-separated names) restricts the
  workload list — the CI smoke job times only ``gzip-spec``.

The speedup gates are enforced at full scale; scaled-down smoke runs
only require that a faster configuration is never *slower* than
the interpreter (tiny workloads are dominated by load/install time,
not execution).
"""

import gc
import json
import os
import pathlib
import time

import pytest

from repro.analysis import format_table
from repro.installer import install
from repro.kernel import Kernel
from repro.obs import TraceRecorder
from repro.workloads.spec import SPEC_PROGRAMS, build_spec_program
from benchmarks.conftest import BENCH_KEY, bench_scale

WORKLOADS = ("gzip-spec", "crafty", "twolf")

JSON_PATH = pathlib.Path(__file__).parent.parent / "BENCH_host_wallclock.json"

#: Guest instructions/sec under the chained threaded engine must be at
#: least this multiple of the interpreter's (all workloads, full scale).
SPEEDUP_GATE = 3.0

#: The stricter floor on ``CHAIN_GATE_WORKLOAD`` at full scale.
CHAIN_GATE_WORKLOAD = "gzip-spec"
CHAINED_VS_INTERP_GATE = 5.0

#: The §3.4 verification stages (plus the verifier JIT's own compile
#: span): the share of traced time they consume is the per-syscall
#: verify surcharge the verifier specialization engine attacks.
VERIFY_STAGES = frozenset({
    "syscall-verify",
    "policy-decode",
    "mac-check",
    "string-auth",
    "memory-checker",
    "verifier-compile",
})

#: PR 7 acceptance gate: verify-stage share of traced time on
#: ``VERIFY_GATE_WORKLOAD``.  ``VERIFY_SHARE_PR6_BASELINE`` is the
#: share the PR 6 kernel recorded in BENCH_host_wallclock.json before
#: verifier specialization existed; the JIT must beat it by at least
#: ``VERIFY_SHARE_IMPROVEMENT_GATE``.
VERIFY_GATE_WORKLOAD = "gzip-spec"
VERIFY_SHARE_PR6_BASELINE = 0.4033
VERIFY_SHARE_IMPROVEMENT_GATE = 1.5


def _selected_workloads() -> tuple:
    override = os.environ.get("REPRO_WALLCLOCK_WORKLOADS")
    if not override:
        return WORKLOADS
    names = tuple(n.strip() for n in override.split(",") if n.strip())
    unknown = [n for n in names if n not in SPEC_PROGRAMS]
    assert not unknown, f"unknown workloads: {unknown}"
    return names


#: Timed repetitions per configuration; the *fastest* run is reported
#: (min-of-N).  Every gated number here is a ratio of two timings, so
#: single-shot measurements make the gates hostage to scheduler noise
#: on a shared host; min-of-N approximates the undisturbed time.
TIMING_REPEATS = int(os.environ.get("REPRO_WALLCLOCK_REPEATS", "3"))


def _best_of(run_once) -> dict:
    """Run ``run_once`` TIMING_REPEATS times, keep the fastest.

    The architecture results (instructions, cycles, syscalls, exit
    status) are deterministic and must agree across repeats — that is
    asserted, so a repeat can never mask a nondeterminism bug."""
    best = None
    for _ in range(max(1, TIMING_REPEATS)):
        # Collect garbage from previous runs *before* timing, so a GC
        # pause triggered by another configuration's allocations never
        # lands inside this one's measurement window.
        gc.collect()
        sample = run_once()
        if best is not None:
            for field in ("instructions", "cycles", "syscalls", "exit_status"):
                assert sample[field] == best[field], (field, sample, best)
        if best is None or sample["host_seconds"] < best["host_seconds"]:
            best = sample
    return best


def _time_run(name: str, engine: str, iterations: int) -> dict:
    binary = install(build_spec_program(name, iterations=iterations),
                     BENCH_KEY).binary

    def run_once() -> dict:
        kernel = Kernel(key=BENCH_KEY, engine=engine)
        start = time.perf_counter()
        result = kernel.run(binary, argv=[name], max_instructions=500_000_000)
        host_seconds = time.perf_counter() - start
        assert result.ok, (name, engine, result.kill_reason)
        return {
            "host_seconds": host_seconds,
            "instructions": result.instructions,
            "cycles": result.cycles,
            "syscalls": result.syscalls,
            "exit_status": result.exit_status,
            "ips": result.instructions / host_seconds,
        }

    return _best_of(run_once)


def _time_run_sched(name: str, iterations: int) -> dict:
    """The same workload as a single process *under the preemptive
    scheduler* (chained threaded engine, generous timeslice): the
    scheduler must be near-free for single-process work — the
    sched-parity gate in check_wallclock_regression.py enforces it."""
    binary = install(build_spec_program(name, iterations=iterations),
                     BENCH_KEY).binary

    def run_once() -> dict:
        kernel = Kernel(key=BENCH_KEY, engine="threaded")
        start = time.perf_counter()
        multi = kernel.run_many(
            [(binary, [name], b"")],
            timeslice=1_000_000,
            max_instructions=500_000_000,
        )
        host_seconds = time.perf_counter() - start
        result = multi.results[0]
        assert result.ok, (name, "threaded_sched", result.kill_reason)
        return {
            "host_seconds": host_seconds,
            "instructions": result.instructions,
            "cycles": result.cycles,
            "syscalls": result.syscalls,
            "exit_status": result.exit_status,
            "ips": result.instructions / host_seconds,
        }

    return _best_of(run_once)


def _trace_stages(name: str, engine: str, iterations: int) -> dict:
    """One additional traced run: where the host time goes, decomposed
    into the verification stages of §3.4 plus the engine's own
    compile/chain/execute split (the paper's Tables 4-6 argument, but
    measured instead of asserted).  Untimed runs stay recorder-free so
    tracing overhead never pollutes the instr/sec numbers."""
    binary = install(build_spec_program(name, iterations=iterations),
                     BENCH_KEY).binary
    recorder = TraceRecorder()
    kernel = Kernel(key=BENCH_KEY, engine=engine, recorder=recorder)
    result = kernel.run(binary, argv=[name], max_instructions=500_000_000)
    assert result.ok, (name, engine, result.kill_reason)
    totals = recorder.stage_totals()
    traced_ns = recorder.total_traced_ns()
    # Self times partition the root span by construction; the trace is
    # only trustworthy if they add back up (within float/accounting
    # noise far below the 5% acceptance bound).
    self_sum = sum(entry["self_ns"] for entry in totals.values())
    assert traced_ns and abs(self_sum - traced_ns) <= 0.05 * traced_ns
    verify_self_ns = sum(
        entry["self_ns"]
        for stage, entry in totals.items()
        if stage in VERIFY_STAGES
    )
    return {
        "traced_seconds": round(traced_ns / 1e9, 4),
        # First-class verify surcharge: the fraction of traced host
        # time spent in verification stages (gated by
        # check_wallclock_regression.py on the gate workload).
        "verify_share": round(verify_self_ns / traced_ns, 4),
        "stages": {
            stage: {
                "count": entry["count"],
                "total_seconds": round(entry["total_ns"] / 1e9, 6),
                "self_seconds": round(entry["self_ns"] / 1e9, 6),
            }
            for stage, entry in sorted(totals.items())
        },
        "counters": dict(sorted(recorder.counters.items())),
    }


@pytest.mark.benchmark(group="host_wallclock")
def test_host_wallclock(benchmark, report):
    scale = bench_scale()
    workloads = _selected_workloads()

    def run_suite():
        measured = {}
        for name in workloads:
            planned, _ = SPEC_PROGRAMS[name].plan()
            iterations = max(2, int(planned * scale))
            measured[name] = {
                "interp": _time_run(name, "interp", iterations),
                "threaded_chained": _time_run(name, "threaded", iterations),
                "threaded_sched": _time_run_sched(name, iterations),
                "iterations": iterations,
            }
        return measured

    measured = benchmark.pedantic(run_suite, rounds=1, iterations=1)

    rows = []
    payload = {
        "benchmark": "host_wallclock",
        "scale": scale,
        "speedup_gate": SPEEDUP_GATE,
        "chained_vs_interp_gate": CHAINED_VS_INTERP_GATE,
        "chain_gate_workload": CHAIN_GATE_WORKLOAD,
        "verify_gate_workload": VERIFY_GATE_WORKLOAD,
        "verify_share_pr6_baseline": VERIFY_SHARE_PR6_BASELINE,
        "verify_share_improvement_gate": VERIFY_SHARE_IMPROVEMENT_GATE,
        "workloads": {},
    }
    for name in workloads:
        interp = measured[name]["interp"]
        chained = measured[name]["threaded_chained"]
        sched = measured[name]["threaded_sched"]
        chained_speedup = chained["ips"] / interp["ips"]
        sched_parity = sched["ips"] / chained["ips"]

        # Bit-identity on the timed binaries: wall clock may differ,
        # architecture must not — including under the scheduler.
        for field in ("instructions", "cycles", "syscalls", "exit_status"):
            assert interp[field] == chained[field], (name, "chained", field)
            assert interp[field] == sched[field], (name, "sched", field)

        observability = _trace_stages(
            name, "threaded", measured[name]["iterations"]
        )
        verify_share = observability["verify_share"]

        rows.append([
            name,
            measured[name]["iterations"],
            interp["instructions"],
            f"{interp['ips'] / 1e3:.0f}k",
            f"{chained['ips'] / 1e3:.0f}k",
            f"{chained_speedup:.2f}x",
            f"{sched_parity:.2f}x",
            f"{verify_share:.1%}",
        ])
        payload["workloads"][name] = {
            "iterations": measured[name]["iterations"],
            "guest_instructions": interp["instructions"],
            "interp": {
                "host_seconds": round(interp["host_seconds"], 4),
                "instructions_per_second": round(interp["ips"]),
            },
            "threaded_chained": {
                "host_seconds": round(chained["host_seconds"], 4),
                "instructions_per_second": round(chained["ips"]),
            },
            "threaded_sched": {
                "host_seconds": round(sched["host_seconds"], 4),
                "instructions_per_second": round(sched["ips"]),
            },
            "chained_speedup": round(chained_speedup, 2),
            "sched_parity": round(sched_parity, 3),
            "verify_share": verify_share,
            "observability": observability,
        }

        # The gates: never slower than the interpreter; the full-scale
        # ratios are enforced per workload.
        assert chained_speedup >= 1.0, (name, "threaded_chained",
                                        chained_speedup)
        if scale >= 1.0:
            assert chained_speedup >= SPEEDUP_GATE, (
                name, "threaded_chained vs interp", chained_speedup)
            if name == CHAIN_GATE_WORKLOAD:
                assert chained_speedup >= CHAINED_VS_INTERP_GATE, (
                    name, "threaded_chained vs interp", chained_speedup)
            if name == VERIFY_GATE_WORKLOAD:
                ceiling = (
                    VERIFY_SHARE_PR6_BASELINE / VERIFY_SHARE_IMPROVEMENT_GATE
                )
                assert verify_share <= ceiling, (
                    name, "verify share vs PR 6 baseline",
                    verify_share, ceiling)

    table = format_table(
        ["Workload", "Iterations", "Guest instrs",
         "interp instr/s", "chained instr/s", "Chain/interp",
         "Sched parity", "Verify share"],
        rows,
        title="Host wall-clock throughput: translation cache and "
              "direct block chaining vs reference interpreter "
              f"(scale={scale}; full-scale gates: chained>="
              f"{SPEEDUP_GATE}x interp, >="
              f"{CHAINED_VS_INTERP_GATE}x on "
              f"{CHAIN_GATE_WORKLOAD}; sched parity = single process "
              "under the scheduler vs chained; verify share = "
              "verification-stage self time / traced time, gated <= "
              f"{VERIFY_SHARE_PR6_BASELINE}/"
              f"{VERIFY_SHARE_IMPROVEMENT_GATE} on "
              f"{VERIFY_GATE_WORKLOAD})",
    )
    report("host_wallclock", table)

    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
