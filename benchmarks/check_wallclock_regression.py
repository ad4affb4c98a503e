"""CI perf-regression gate for the host wall-clock trajectory.

Compares a freshly measured ``BENCH_host_wallclock.json`` against the
last *committed* baseline and fails when an engine column's
instructions/second drops below ``threshold`` (default 0.7) times the
baseline on any workload both files measured.  The gated column is
``threaded_chained``; the comparison is skipped per-workload when the
committed baseline predates chaining.  The CI job snapshots the
committed file before the bench overwrites it::

    cp BENCH_host_wallclock.json /tmp/wallclock-baseline.json
    REPRO_BENCH_SCALE=0.2 ... pytest benchmarks/bench_host_wallclock.py ...
    python benchmarks/check_wallclock_regression.py \
        --baseline /tmp/wallclock-baseline.json \
        --current BENCH_host_wallclock.json

Every failure message names the workload, the engine column, and both
absolute numbers, so a tripped gate in CI identifies the offending
measurement without re-running anything.

Two host-invariant ratio gates ride along: scheduler parity (a single
process under the scheduler must run at ~the bare engine's speed) and
the verify-stage share of traced time (the per-syscall verification
surcharge the verifier JIT keeps low; see ``check_verify_share``).

Absolute instr/sec varies across host machines, so 0.7x is a coarse
tripwire for catastrophic regressions (an accidental de-optimisation of
the translation cache, a recorder guard left unconditioned, chaining
silently disabled), not a precision benchmark; the bench's own speedup
gates cover the engine-vs-engine ratios, which are host-independent.
"""

from __future__ import annotations

import argparse
import json
import sys

DEFAULT_THRESHOLD = 0.7

#: Verify-surcharge gate (PR 7).  ``verify_share`` is the fraction of
#: traced host time spent in the §3.4 verification stages (a
#: host-invariant ratio, like sched parity).  Against a baseline that
#: predates the field — the PR 6 era — the current measurement must
#: beat the hard-coded PR 6 share by ``VERIFY_IMPROVEMENT_GATE`` on
#: the gate workload; against a post-JIT baseline the share must not
#: creep back up by more than ``VERIFY_CREEP_ALLOWANCE``.
VERIFY_GATE_WORKLOAD = "gzip-spec"
VERIFY_SHARE_PR6_BASELINE = 0.4033
VERIFY_IMPROVEMENT_GATE = 1.5
#: Scaled-down CI runs amortize thunk compilation over fewer syscalls,
#: so their share runs a little above the committed full-scale number;
#: 1.5x absorbs that while still tripping on the catastrophic case (a
#: disabled/broken JIT puts the share back at ~0.40, over any ceiling
#: derived from a post-JIT baseline).
VERIFY_CREEP_ALLOWANCE = 1.5

#: Engine columns gated against the committed baseline, in report
#: order.  ``threaded_chained`` is absent from pre-chaining baselines
#: and is then skipped (with a note) rather than failed.
GATED_COLUMNS = ("threaded_chained",)

#: Minimum (scheduled single-process instr/sec) / (chained engine
#: instr/sec), both from the CURRENT measurement: the scheduler must
#: not slow the single-process path down.
DEFAULT_SCHED_PARITY = 0.95


def compare(baseline: dict, current: dict, threshold: float) -> list[str]:
    """Returns a list of human-readable regression descriptions, each
    naming the workload and engine column that tripped the gate."""
    failures = []
    base_workloads = baseline.get("workloads", {})
    curr_workloads = current.get("workloads", {})
    shared = sorted(set(base_workloads) & set(curr_workloads))
    if not shared:
        return ["no workloads in common between baseline and current run"]
    for name in shared:
        for column in GATED_COLUMNS:
            base_col = base_workloads[name].get(column)
            curr_col = curr_workloads[name].get(column)
            if base_col is None or curr_col is None:
                print(f"{name:12s} {column}: not in "
                      f"{'baseline' if base_col is None else 'current'} "
                      "[skipped]")
                continue
            base_ips = base_col["instructions_per_second"]
            curr_ips = curr_col["instructions_per_second"]
            ratio = curr_ips / base_ips if base_ips else float("inf")
            status = "ok" if ratio >= threshold else "REGRESSION"
            print(
                f"{name:12s} {column:17s} baseline={base_ips:>12,} instr/s  "
                f"current={curr_ips:>12,} instr/s  ratio={ratio:.2f}x  "
                f"[{status}]"
            )
            if ratio < threshold:
                failures.append(
                    f"workload '{name}', column '{column}': instr/sec fell "
                    f"to {ratio:.2f}x of the committed baseline "
                    f"({curr_ips:,} vs {base_ips:,}; gate: {threshold}x)"
                )
    return failures


def check_sched_parity(current: dict, threshold: float) -> list[str]:
    """Within the CURRENT measurement only (host-invariant ratio):
    running single-process under the scheduler must cost ~nothing
    relative to the chained engine it runs on.  Skipped per-workload
    when the JSON predates the threaded_sched measurement."""
    failures = []
    for name, entry in sorted(current.get("workloads", {}).items()):
        sched = entry.get("threaded_sched")
        if not sched:
            print(f"{name:12s} sched parity: not measured [skipped]")
            continue
        bare = entry["threaded_chained"]
        bare_ips = bare["instructions_per_second"]
        sched_ips = sched["instructions_per_second"]
        ratio = sched_ips / bare_ips if bare_ips else float("inf")
        status = "ok" if ratio >= threshold else "REGRESSION"
        print(
            f"{name:12s} bare={bare_ips:>12,} instr/s  "
            f"sched={sched_ips:>12,} instr/s  parity={ratio:.2f}x  [{status}]"
        )
        if ratio < threshold:
            failures.append(
                f"workload '{name}': scheduler overhead pushed "
                f"single-process throughput to {ratio:.2f}x of the bare "
                f"engine ({sched_ips:,} vs {bare_ips:,}; "
                f"gate: {threshold}x)"
            )
    return failures


def check_verify_share(baseline: dict, current: dict) -> list[str]:
    """The verify-surcharge gate on ``VERIFY_GATE_WORKLOAD``.

    Two regimes, detected by whether the baseline already records
    ``verify_share``:

    - pre-JIT baseline (PR 6 and earlier): the verifier specialization
      engine must prove its worth — current share at most the PR 6
      reference divided by ``VERIFY_IMPROVEMENT_GATE``.
    - post-JIT baseline: anti-regression — current share at most
      ``VERIFY_CREEP_ALLOWANCE`` times the baseline's share.
    """
    failures = []
    entry = current.get("workloads", {}).get(VERIFY_GATE_WORKLOAD, {})
    share = entry.get("verify_share")
    if share is None:
        obs = entry.get("observability", {})
        share = obs.get("verify_share")
    if share is None:
        print(f"{VERIFY_GATE_WORKLOAD:12s} verify share: not measured "
              "[skipped]")
        return failures
    base_entry = baseline.get("workloads", {}).get(VERIFY_GATE_WORKLOAD, {})
    base_share = base_entry.get("verify_share")
    if base_share is None:
        base_share = base_entry.get("observability", {}).get("verify_share")
    if base_share is None:
        # Pre-JIT baseline: demand the improvement, not mere parity.
        ceiling = VERIFY_SHARE_PR6_BASELINE / VERIFY_IMPROVEMENT_GATE
        origin = (f"PR 6 reference {VERIFY_SHARE_PR6_BASELINE} / "
                  f"{VERIFY_IMPROVEMENT_GATE}")
    else:
        ceiling = base_share * VERIFY_CREEP_ALLOWANCE
        origin = f"baseline {base_share} x {VERIFY_CREEP_ALLOWANCE}"
    status = "ok" if share <= ceiling else "REGRESSION"
    print(
        f"{VERIFY_GATE_WORKLOAD:12s} verify share={share:.4f}  "
        f"ceiling={ceiling:.4f} ({origin})  [{status}]"
    )
    if share > ceiling:
        failures.append(
            f"workload '{VERIFY_GATE_WORKLOAD}': verify-stage share of "
            f"traced time is {share:.4f}, above the gate ceiling "
            f"{ceiling:.4f} ({origin})"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_host_wallclock.json snapshot")
    parser.add_argument("--current", required=True,
                        help="freshly measured BENCH_host_wallclock.json")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="minimum current/baseline instr-per-sec ratio "
                             f"(default {DEFAULT_THRESHOLD})")
    parser.add_argument("--sched-parity-threshold", type=float,
                        default=DEFAULT_SCHED_PARITY,
                        help="minimum scheduled/bare single-process ratio "
                             "within the current measurement "
                             f"(default {DEFAULT_SCHED_PARITY}; 0 disables)")
    parser.add_argument("--no-verify-share-gate", action="store_true",
                        help="skip the verify-stage share gate on "
                             f"{VERIFY_GATE_WORKLOAD}")
    args = parser.parse_args(argv)

    with open(args.baseline, encoding="utf-8") as handle:
        baseline = json.load(handle)
    with open(args.current, encoding="utf-8") as handle:
        current = json.load(handle)

    failures = compare(baseline, current, args.threshold)
    if args.sched_parity_threshold > 0:
        failures += check_sched_parity(current, args.sched_parity_threshold)
    if not args.no_verify_share_gate:
        failures += check_verify_share(baseline, current)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
