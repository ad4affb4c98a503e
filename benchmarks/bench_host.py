"""Host wall-clock benchmark: what the engines and authentication cost
in real host time, gated on ratios measured in the same run.

Every other bench in this suite reports *simulated* cycles, which are
engine-invariant by construction.  This one times the host: guest
instructions per second on three SPEC-style workloads, and requests
per second on the loopback echo server (a listener plus forked
clients under the preemptive scheduler, every socket call
authenticated).

Each repeat runs a workload's columns back to back, so host drift
lands on both sides of every ratio:

- SPEC workloads: ``interp`` (the reference interpreter), ``chained``
  (the threaded engine, chaining and superblocks on) and ``sched``
  (``chained`` as a single process under the scheduler, with a
  generous timeslice).
- ``netserver``: ``interp`` and ``chained`` on the installed server
  (auth on), and ``interp_off``/``chained_off`` on the same program
  uninstalled, run by the permissive kernel (auth off).

Every run re-checks bit-identity against every other column and
repeat on the same binary: instructions, cycles, syscalls and exit
status, and for netserver every task's results plus the scheduler
interleaving.  A ratio gate reads the median, over every turn in
which both columns ran, of their paired ratio; a throughput gate reads
the median of rates scaled to the reference host with perfbench's
``calibrate()``.  :func:`check` holds every gate.

The archive ``BENCH_host.json`` at the repository root is read before
measuring and rewritten only by a passing full-scale run over every
workload; the table goes to ``benchmarks/results/host.txt``.

Knobs: ``REPRO_BENCH_SCALE`` (1.0 = full scale), ``REPRO_WALLCLOCK_WORKLOADS``
(a comma-separated subset of :data:`WORKLOADS`) and
``REPRO_WALLCLOCK_REPEATS`` (default 5).
"""

import gc
import json
import os
import pathlib
import statistics
from time import perf_counter

import pytest

from perfbench.run import REFERENCE_CALIBRATION_S, calibrate
from repro.analysis import format_table
from repro.installer import install
from repro.kernel import Kernel
from repro.obs import TraceRecorder
from repro.workloads.netserver import build_netserver
from repro.workloads.spec import SPEC_PROGRAMS, build_spec_program
from benchmarks.conftest import BENCH_KEY, bench_scale

SPEC_WORKLOADS = ("gzip-spec", "crafty", "twolf")
WORKLOADS = SPEC_WORKLOADS + ("netserver",)

ARCHIVE = pathlib.Path(__file__).parent.parent / "BENCH_host.json"
REPEATS = int(os.environ.get("REPRO_WALLCLOCK_REPEATS", "5"))
MAX_INSTRUCTIONS = 500_000_000
#: Runs per repeat of the SPEC ``chained`` and ``sched`` columns.  A
#: shared host can swing 2x in speed within a second, so one pair of
#: short runs gives a parity anywhere in 0.6-1.6x; the gate reads the
#: median over 20 alternating pairs per repeat.
PARITY_RUNS = 20

#: chained/interp on every workload at any scale: never slower.
NEVER_SLOWER = 1.0
#: chained/interp on every SPEC workload at full scale (smaller runs
#: are dominated by load and install time, not execution).
SPEC_SPEEDUP_GATE = 3.0
#: chained/interp on ``GZIP`` at full scale.
GZIP = "gzip-spec"
GZIP_SPEEDUP_GATE = 5.0
#: chained/interp auth-on req/s at any scale: the workload is
#: compute-bound per request, so the ratio holds on small runs too.
NET_SPEEDUP_GATE = 3.0
#: sched/chained on every SPEC workload: the scheduler must be
#: near-free for single-process work.
SCHED_PARITY_GATE = 0.95
#: Verify-stage share of traced time on ``GZIP`` at full scale, at most
#: the share before the verifier JIT existed over the improvement it
#: had to show, and at most ``VERIFY_SHARE_CREEP`` times the archived
#: share.
VERIFY_SHARE_PRE_JIT = 0.4033
VERIFY_SHARE_IMPROVEMENT = 1.5
VERIFY_SHARE_CREEP = 1.5
#: Calibrated rates vs the archive, when the run's scale and workload
#: match an archived entry: a coarse tripwire for catastrophic
#: regressions, not a precision gate.
TRIPWIRE = 0.7
TRIPWIRE_COLUMNS = {"netserver": ("interp", "chained")}

#: The verification stages of §3.4 plus the verifier JIT's compile span.
VERIFY_STAGES = frozenset({
    "syscall-verify", "policy-decode", "mac-check", "string-auth",
    "memory-checker", "verifier-compile",
})

#: Netserver shape at full scale.  64 requests/client keeps a client's
#: count within its 8-bit exit status; the spin per served request
#: makes engine speed, not trap overhead, dominate.
CLIENTS = 4
FULL_REQUESTS = 64
SPIN = 600
TIMESLICE = 1500


def _time_columns(columns: dict, repeats: int) -> dict:
    """Runs every column back to back, ``repeats`` times.

    ``columns`` maps a name to (Kernel kwargs, run, binary label, runs
    per repeat), where ``run(kernel)`` returns (work units,
    architectural fingerprint).  Within a repeat the columns take
    turns, in reverse order on odd turns, until each has had its runs.
    Returns name -> {(repeat, turn): (host rate, reference-host rate)}."""
    samples = {column: {} for column in columns}
    fingerprints = {}
    turns = max(spec[3] for spec in columns.values())
    for repeat in range(repeats):
        for turn in range(turns):
            order = list(columns) if turn % 2 == 0 else list(columns)[::-1]
            for column in order:
                kwargs, run, label, runs = columns[column]
                if turn >= runs:
                    continue
                kernel = Kernel(key=BENCH_KEY, **kwargs)
                gc.collect()
                before = calibrate()
                start = perf_counter()
                work, fingerprint = run(kernel)
                host_s = perf_counter() - start
                after = calibrate()
                assert fingerprints.setdefault(label, fingerprint) == fingerprint, (
                    f"{column}: results differ from an earlier run of {label}")
                reference_s = host_s * 2 * REFERENCE_CALIBRATION_S / (before + after)
                samples[column][repeat, turn] = (work / host_s, work / reference_s)
    return samples


def _entry(samples: dict, ratios: dict, **fields) -> dict:
    """Median calibrated rate per column; per ratio, the median over
    every turn both columns ran in of their host-rate ratio."""
    fields["rates"] = {
        column: round(statistics.median(ref for _, ref in runs.values()), 1)
        for column, runs in samples.items()
    }
    fields["ratios"] = {
        name: round(statistics.median(
            samples[num][turn][0] / samples[den][turn][0]
            for turn in samples[num].keys() & samples[den].keys()), 3)
        for name, (num, den) in ratios.items()
    }
    return fields


def _spec_run(name: str, binary, timeslice=None):
    def run(kernel):
        if timeslice is None:
            result = kernel.run(binary, argv=[name],
                                max_instructions=MAX_INSTRUCTIONS)
        else:
            result = kernel.run_many([(binary, [name], b"")], timeslice=timeslice,
                                     max_instructions=MAX_INSTRUCTIONS).results[0]
        assert result.ok, (name, result.kill_reason)
        return result.instructions, (result.instructions, result.cycles,
                                     result.syscalls, result.exit_status)
    return run


def _verify_share(name: str, binary) -> float:
    """One traced, untimed run: the verify stages' share of traced time."""
    recorder = TraceRecorder()
    kernel = Kernel(key=BENCH_KEY, engine="threaded", recorder=recorder)
    result = kernel.run(binary, argv=[name], max_instructions=MAX_INSTRUCTIONS)
    assert result.ok, (name, result.kill_reason)
    totals = recorder.stage_totals()
    traced_ns = recorder.total_traced_ns()
    # Self times partition the traced time; the share is only
    # trustworthy if they add back up.
    self_ns = sum(entry["self_ns"] for entry in totals.values())
    assert traced_ns and abs(self_ns - traced_ns) <= 0.05 * traced_ns
    verify_ns = sum(entry["self_ns"] for stage, entry in totals.items()
                    if stage in VERIFY_STAGES)
    return round(verify_ns / traced_ns, 4)


def _measure_spec(name: str, scale: float, repeats: int) -> dict:
    planned, _ = SPEC_PROGRAMS[name].plan()
    iterations = max(2, int(planned * scale))
    binary = install(build_spec_program(name, iterations=iterations),
                     BENCH_KEY).binary
    samples = _time_columns({
        "interp": (dict(engine="interp"), _spec_run(name, binary), name, 1),
        "chained": (dict(engine="threaded"), _spec_run(name, binary), name,
                    PARITY_RUNS),
        "sched": (dict(engine="threaded"),
                  _spec_run(name, binary, timeslice=1_000_000), name,
                  PARITY_RUNS),
    }, repeats)
    return _entry(samples, {"speedup": ("chained", "interp"),
                            "sched_parity": ("sched", "chained")},
                  size=iterations, verify_share=_verify_share(name, binary))


def _net_run(binary, requests: int):
    def run(kernel):
        multi = kernel.run_many([binary], timeslice=TIMESLICE)
        tasks = [multi.scheduler.tasks[pid] for pid in sorted(multi.scheduler.tasks)]
        statuses = tuple(task.exit_status for task in tasks)
        # The server exits 0 only when every record was echoed and every
        # client reaped; each client exits with its completed count.
        assert statuses == (0,) + (requests,) * CLIENTS, statuses
        assert not any(task.killed for task in tasks)
        return CLIENTS * requests, (
            statuses,
            tuple(task.vm.instructions_executed for task in tasks),
            tuple(task.vm.cycles for task in tasks),
            tuple(multi.scheduler.interleaving),
        )
    return run


def _measure_net(scale: float, repeats: int) -> dict:
    requests = max(2, int(FULL_REQUESTS * scale))
    source = build_netserver(clients=CLIENTS, requests=requests, spin=SPIN)
    on = _net_run(install(source, BENCH_KEY).binary, requests)
    off = _net_run(source, requests)
    samples = _time_columns({
        "interp": (dict(engine="interp"), on, "auth on", 1),
        "chained": (dict(engine="threaded"), on, "auth on", 1),
        "interp_off": (dict(engine="interp"), off, "auth off", 1),
        "chained_off": (dict(engine="threaded"), off, "auth off", 1),
    }, repeats)
    return _entry(samples, {"speedup": ("chained", "interp"),
                            "auth_overhead_interp": ("interp_off", "interp"),
                            "auth_overhead_chained": ("chained_off", "chained")},
                  size=requests)


def measure(names, scale: float, repeats: int) -> dict:
    return {
        "scale": scale,
        "repeats": repeats,
        "workloads": {
            name: (_measure_net(scale, repeats) if name == "netserver"
                   else _measure_spec(name, scale, repeats))
            for name in names
        },
    }


def check(measured: dict, archive: dict) -> list[str]:
    """Every gate, on one measurement and the archive read before it.

    Returns one message per failure, naming the workload, the column
    and both numbers; an empty list is a pass."""
    failures = []
    full = measured["scale"] >= 1.0
    archived = (archive.get("workloads", {})
                if archive.get("scale") == measured["scale"] else {})

    for name, entry in sorted(measured["workloads"].items()):
        rates, ratios = entry["rates"], entry["ratios"]
        unit = "req/s" if name == "netserver" else "instr/s"

        def ratio_gate(label, num, den, gate, why):
            value = ratios[label]
            if value < gate:
                failures.append(
                    f"{name} {num}/{den}: {value:.2f}x ({num} {rates[num]:,.0f} "
                    f"vs {den} {rates[den]:,.0f} {unit}) below the {gate}x gate "
                    f"({why})")

        floors = [(NEVER_SLOWER, "any scale")]
        if name == "netserver":
            floors.append((NET_SPEEDUP_GATE, "auth on, any scale"))
        else:
            ratio_gate("sched_parity", "sched", "chained", SCHED_PARITY_GATE,
                       "scheduler parity")
            if full:
                floors.append((SPEC_SPEEDUP_GATE, "full scale"))
            if full and name == GZIP:
                floors.append((GZIP_SPEEDUP_GATE, "full scale"))
        for gate, why in floors:
            ratio_gate("speedup", "chained", "interp", gate, why)

        old = archived.get(name)
        if full and name == GZIP:
            share = entry["verify_share"]
            ceiling = VERIFY_SHARE_PRE_JIT / VERIFY_SHARE_IMPROVEMENT
            origin = f"{VERIFY_SHARE_PRE_JIT}/{VERIFY_SHARE_IMPROVEMENT}"
            if old and VERIFY_SHARE_CREEP * old["verify_share"] < ceiling:
                ceiling = VERIFY_SHARE_CREEP * old["verify_share"]
                origin = f"{VERIFY_SHARE_CREEP} x archived {old['verify_share']}"
            if share > ceiling:
                failures.append(
                    f"{name} verify share: {share:.4f} above the ceiling "
                    f"{ceiling:.4f} ({origin})")

        if not old:
            continue
        for column in TRIPWIRE_COLUMNS.get(name, ("chained",)):
            now, then = rates[column], old["rates"][column]
            if now < TRIPWIRE * then:
                failures.append(
                    f"{name} {column}: {now:,.0f} {unit} is {now / then:.2f}x "
                    f"the archived {then:,.0f} (tripwire {TRIPWIRE}x)")
    return failures


def record(measured: dict, failures: list, path=ARCHIVE) -> bool:
    """Rewrite the archive, only from a passing full-scale run over
    every workload; returns whether it did."""
    if failures or measured["scale"] != 1.0 or set(measured["workloads"]) != set(WORKLOADS):
        return False
    path.write_text(json.dumps(measured, indent=2, sort_keys=True) + "\n")
    return True


def table(measured: dict) -> str:
    rows = []
    for name, entry in measured["workloads"].items():
        rates, ratios = entry["rates"], entry["ratios"]
        net = name == "netserver"
        rows.append([
            name, entry["size"],
            f"{rates['interp']:,.0f}", f"{rates['chained']:,.0f}",
            f"{ratios['speedup']:.2f}x",
            "-" if net else f"{ratios['sched_parity']:.3f}x",
            "-" if net else f"{entry['verify_share']:.1%}",
            f"{ratios['auth_overhead_interp']:.2f}x / "
            f"{ratios['auth_overhead_chained']:.2f}x" if net else "-",
        ])
    return format_table(
        ["Workload", "Size", "interp", "chained", "Chain/interp",
         "Sched parity", "Verify share", "Auth off/on (interp / chained)"],
        rows,
        title="Host wall-clock: median rates at reference-host speed "
              "(instr/s; auth-on req/s for netserver, whose size is requests "
              "per client); ratios are medians of back-to-back run pairs "
              f"({measured['repeats']} repeats, scale={measured['scale']})",
    )


def _selected() -> tuple:
    names = tuple(n.strip() for n in
                  os.environ.get("REPRO_WALLCLOCK_WORKLOADS", "").split(",")
                  if n.strip()) or WORKLOADS
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        raise ValueError(f"unknown workloads: {unknown}")
    return names


@pytest.mark.benchmark(group="host")
def test_host(benchmark, report):
    archive = json.loads(ARCHIVE.read_text()) if ARCHIVE.exists() else {}
    measured = benchmark.pedantic(
        measure, args=(_selected(), bench_scale(), REPEATS),
        rounds=1, iterations=1)
    failures = check(measured, archive)
    report("host", table(measured))
    record(measured, failures)
    assert not failures, "\n".join(failures)
