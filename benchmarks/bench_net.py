"""Network throughput: the loopback echo server, auth on vs auth off,
interpreter vs chained threaded engine.

The macro benchmarks measure single-process pipelines; this one
measures the networking subsystem end to end — one listening server
plus forked clients exchanging fixed-size request/response records
over the loopback socket stack, under the preemptive scheduler, with
every socket call site authenticated.  The figure of merit is host
**requests/second**: how many request→echo→check round trips the whole
machine completes per second of wall-clock time.

Four configurations, two axes:

- **auth on** — the installed (signed) netserver; every ``socket``,
  ``bind``, ``connect``, ``send``, ``recv`` … trap pays verification.
- **auth off** — the same program uninstalled, run by the PERMISSIVE
  kernel: no policy records, no MACs, the paper's unprotected baseline.
- **interp** / **threaded_chained** — the reference interpreter and
  the default engine (translation cache + direct chaining).

The engines' bit-identity contract is re-checked on the exact runs
being timed: per-task exit statuses, instruction counts, and the full
scheduler interleaving must agree between interp and chained for the
same auth setting.

Results are archived twice, like the wall-clock bench: a table under
``benchmarks/results/`` and a machine-readable ``BENCH_net.json`` at
the repo root (gated in CI by ``check_net_regression.py``).

Knobs: ``REPRO_BENCH_SCALE`` shrinks requests-per-client for smoke
runs; the chained-vs-interp ratio gate is enforced at full scale only
(smoke runs just require chained to not be *slower*), matching
bench_host_wallclock.py.
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
from repro.workloads.netserver import build_netserver
from benchmarks.conftest import BENCH_KEY, bench_scale

JSON_PATH = pathlib.Path(__file__).parent.parent / "BENCH_net.json"

#: Netserver shape at full scale.  64 requests/client keeps a client's
#: completed count within its 8-bit exit status; the spin loop per
#: served request makes the workload compute-heavy enough that engine
#: speed (not trap overhead) dominates, like a real server doing work
#: per request.
CLIENTS = 4
FULL_REQUESTS = 64
SPIN = 600
TIMESLICE = 1500

#: Acceptance gate (full scale, auth on): the chained threaded engine
#: must complete at least this multiple of the interpreter's req/s.
CHAINED_VS_INTERP_GATE = 3.0

#: Timed repetitions per configuration, fastest kept (min-of-N), same
#: rationale as bench_host_wallclock.py.
TIMING_REPEATS = int(os.environ.get("REPRO_NET_REPEATS", "3"))

ENGINE_COLUMNS = (
    ("interp", dict(engine="interp")),
    ("threaded_chained", dict(engine="threaded")),
)


def _best_of(run_once) -> dict:
    best = None
    for _ in range(max(1, TIMING_REPEATS)):
        gc.collect()
        sample = run_once()
        if best is not None:
            for field in ("instructions", "interleaving", "statuses"):
                assert sample[field] == best[field], (field,)
        if best is None or sample["host_seconds"] < best["host_seconds"]:
            best = sample
    return best


def _time_netserver(binary, requests: int, engine_kwargs: dict) -> dict:
    total_requests = CLIENTS * requests

    def run_once() -> dict:
        kernel = Kernel(key=BENCH_KEY, **engine_kwargs)
        start = time.perf_counter()
        multi = kernel.run_many([binary], timeslice=TIMESLICE)
        host_seconds = time.perf_counter() - start
        tasks = [multi.scheduler.tasks[pid] for pid in sorted(multi.scheduler.tasks)]
        statuses = tuple(task.exit_status for task in tasks)
        # Server exits 0 only when every record was echoed and every
        # client's count reaped; clients exit their completed count.
        assert statuses == (0,) + (requests,) * CLIENTS, statuses
        assert not any(task.killed for task in tasks)
        return {
            "host_seconds": host_seconds,
            "statuses": statuses,
            "instructions": sum(t.vm.instructions_executed for t in tasks),
            "interleaving": tuple(multi.scheduler.interleaving),
            "rps": total_requests / host_seconds,
        }

    return _best_of(run_once)


@pytest.mark.benchmark(group="net")
def test_net_throughput(benchmark, report):
    scale = bench_scale()
    requests = max(2, int(FULL_REQUESTS * scale))
    total_requests = CLIENTS * requests

    source = build_netserver(clients=CLIENTS, requests=requests, spin=SPIN)
    auth_on = install(source, BENCH_KEY).binary
    auth_off = source  # uninstalled: the unprotected baseline

    def run_suite():
        measured = {"auth_on": {}, "auth_off": {}}
        for auth, binary in (("auth_on", auth_on), ("auth_off", auth_off)):
            for column, kwargs in ENGINE_COLUMNS:
                measured[auth][column] = _time_netserver(
                    binary, requests, kwargs
                )
        return measured

    measured = benchmark.pedantic(run_suite, rounds=1, iterations=1)

    # Engine bit-identity on the timed runs: same per-task results and
    # the same scheduler interleaving, for each auth setting.
    for auth in ("auth_on", "auth_off"):
        interp = measured[auth]["interp"]
        chained = measured[auth]["threaded_chained"]
        for field in ("statuses", "instructions", "interleaving"):
            assert interp[field] == chained[field], (auth, field)

    chained_speedup = (
        measured["auth_on"]["threaded_chained"]["rps"]
        / measured["auth_on"]["interp"]["rps"]
    )
    payload = {
        "benchmark": "net",
        "scale": scale,
        "clients": CLIENTS,
        "requests_per_client": requests,
        "total_requests": total_requests,
        "spin": SPIN,
        "timeslice": TIMESLICE,
        "chained_vs_interp_gate": CHAINED_VS_INTERP_GATE,
        "netserver": {},
    }
    rows = []
    for auth in ("auth_on", "auth_off"):
        entry = {}
        for column, _ in ENGINE_COLUMNS:
            sample = measured[auth][column]
            entry[column] = {
                "host_seconds": round(sample["host_seconds"], 4),
                "requests_per_second": round(sample["rps"], 1),
                "guest_instructions": sample["instructions"],
            }
        entry["chained_speedup"] = round(
            entry["threaded_chained"]["requests_per_second"]
            / entry["interp"]["requests_per_second"], 2,
        )
        payload["netserver"][auth] = entry
        rows.append([
            auth.replace("_", " "),
            f"{entry['interp']['requests_per_second']:,.0f}",
            f"{entry['threaded_chained']['requests_per_second']:,.0f}",
            f"{entry['chained_speedup']:.2f}x",
        ])
    # Authentication overhead, per engine: unprotected / protected
    # req/s (the networking analogue of the paper's macro slowdowns).
    for column, _ in ENGINE_COLUMNS:
        payload["netserver"]["auth_overhead_" + column] = round(
            measured["auth_off"][column]["rps"]
            / measured["auth_on"][column]["rps"], 3,
        )

    # Gates: chained must never lose to the interpreter; the 3x ratio
    # is enforced at full scale (tiny runs are startup-dominated).
    assert chained_speedup >= 1.0, chained_speedup
    if scale >= 1.0:
        assert chained_speedup >= CHAINED_VS_INTERP_GATE, chained_speedup

    table = format_table(
        ["Config", "interp req/s", "chained req/s", "Chain/interp"],
        rows,
        title="Loopback netserver throughput: "
              f"{CLIENTS} clients x {requests} requests "
              f"(scale={scale}; full-scale gate: chained >= "
              f"{CHAINED_VS_INTERP_GATE}x interp req/s, auth on; "
              "auth overhead = auth-off / auth-on req/s: "
              f"interp {payload['netserver']['auth_overhead_interp']}x, "
              "chained "
              f"{payload['netserver']['auth_overhead_threaded_chained']}x)",
    )
    report("net_throughput", table)

    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
