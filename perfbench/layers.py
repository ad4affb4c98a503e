"""Outside-in per-layer tracing for the traced benchmark run.

Nothing under ``src/`` is edited.  :class:`LayerRecorder` implements the
public :class:`repro.obs.Recorder` protocol, so the spans the program
already emits (``execute``, ``block-compile``, ``syscall-verify``, the
checker stages, the per-pid scheduler slices, ...) land in it when it is
passed as ``Kernel(recorder=...)``.  :class:`Instrumentation` adds the
missing layer boundaries by temporarily replacing the public entry
points of each layer with span-recording wrappers, and puts every
original back on exit.

The recorder aggregates per span name (count, inclusive total, self
time, log2 duration buckets), so its memory does not grow with the
length of the run.  Self times partition the traced time exactly: the
sum of every name's self time equals the sum of the root spans'
durations.
"""

from __future__ import annotations

import re
from time import perf_counter_ns

import repro.installer
import repro.installer.core as installer_core
import repro.kernel.kernel as kernel_mod
import repro.workloads.netserver as netserver_mod
import repro.workloads.spec as spec_mod
import repro.workloads.tools as tools_mod
from repro.crypto.cmac import AesCmac
from repro.kernel.auth import AuthChecker
from repro.kernel.net.socket import Connection, NetStack
from repro.kernel.sched.scheduler import Scheduler
from repro.kernel.verifierjit import VerifierJit

#: Root spans opened by the benchmark script itself; their self time is
#: the traced time no layer claims.
ROOT_SPANS = ("bench.setup", "bench.op")

_PID_SLICE = re.compile(r"pid\d+$")

#: Syscall handlers that get their own ``dispatch.<name>_s`` metric:
#: the union of what the three workloads call.  Everything else folds
#: into ``dispatch.other_s``, which keeps the metric set fixed.
DISPATCH_HANDLERS = (
    "open", "close", "read", "write", "lseek", "unlink", "rename",
    "getdirentries", "fork", "wait4", "accept", "connect", "send", "recv",
)

#: Span name -> layer, for spans the program emits itself.
_PROGRAM_SPANS = {
    "execute": "engine",
    "block-compile": "engine",
    "block-chain": "engine",
    "syscall-verify": "verify",
    "verifier-compile": "verify",
    "policy-decode": "verify",
    "mac-check": "verify",
    "string-auth": "verify",
    "memory-checker": "verify",
    "net-connect": "net",
    "net-accept": "net",
}

#: Every layer a span can be attributed to; ``other`` takes program
#: spans this table does not know yet, ``bench`` is the root.
LAYERS = (
    "build", "install", "proc", "engine", "trap", "verify", "crypto",
    "dispatch", "sched", "net", "other",
)


#: Which end-to-end metric each layer metric should move, and on which
#: workload, written down before any optimisation is measured.  The
#: ``sched.*`` and ``net.*`` metrics must read 0 on spec-hot and
#: andrew-churn, which bypass those layers.
PREDICTIONS = (
    ("install.s", "setup_s", "andrew-churn"),
    ("install.s", "setup_s", "spec-hot"),
    ("install.s", "setup_s", "netserver"),
    ("proc.load_s", "op_ms.p50", "andrew-churn"),
    ("proc.link_s", "op_ms.p50", "andrew-churn"),
    ("proc.release_s", "op_ms.p50", "andrew-churn"),
    ("proc.fork_s", "requests_per_s", "netserver"),
    ("engine.exec_self_s", "guest_mips", "spec-hot"),
    ("engine.compile_s", "op_ms.p50", "andrew-churn"),
    ("engine.compile_s", "op_ms.p95", "andrew-churn"),
    ("verify.thunk_s", "guest_mips", "spec-hot"),
    ("verify.thunk_s", "requests_per_s", "netserver"),
    ("verify.generic_s", "op_ms.p50", "andrew-churn"),
    ("verify.generic_s", "op_ms.p95", "andrew-churn"),
    ("verify.jit_compile_s", "op_ms.p50", "andrew-churn"),
    ("crypto.mac_s", "guest_mips", "spec-hot"),
    ("crypto.mac_s", "requests_per_s", "netserver"),
    ("crypto.mac_s", "op_ms.p50", "andrew-churn"),
    ("dispatch.s", "requests_per_s", "netserver"),
    ("dispatch.s", "op_ms.p50", "andrew-churn"),
    ("sched.self_s", "requests_per_s", "netserver"),
    ("sched.retry_s", "requests_per_s", "netserver"),
    ("net.s", "requests_per_s", "netserver"),
)


def layer_of(name: str) -> str:
    """The layer a (folded) span name belongs to."""
    if name in ROOT_SPANS:
        return "bench"
    layer = _PROGRAM_SPANS.get(name)
    if layer is not None:
        return layer
    prefix = name.split(".", 1)[0]
    return prefix if prefix in LAYERS else "other"


class SpanStats:
    """Aggregate of every span that carried one name."""

    __slots__ = ("count", "total_ns", "self_ns", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total_ns = 0
        self.self_ns = 0
        #: buckets[i] counts spans whose duration has bit length i,
        #: i.e. lies in [2**(i-1), 2**i) ns.
        self.buckets = [0] * 64

    def quantile_ns(self, q: float) -> int:
        """Upper edge of the log2 bucket holding quantile ``q``."""
        rank = q * self.count
        seen = 0
        for index, count in enumerate(self.buckets):
            seen += count
            if count and seen >= rank:
                return 1 << index
        return 0


class LayerRecorder:
    """An aggregating :class:`repro.obs.Recorder`.

    Per-pid scheduler slice spans (``pid<N>``) fold into one
    ``sched.slice`` name, so the name set stays bounded however many
    processes a run creates."""

    enabled = True

    def __init__(self, clock=perf_counter_ns) -> None:
        self._clock = clock
        #: Open-span stack of [name, start_ns, child_ns] frames.
        self._stack: list[list] = []
        self.stats: dict[str, SpanStats] = {}
        self.counters: dict[str, int] = {}
        self.root_ns = 0

    def begin(self, name: str, cat: str) -> None:
        if cat == "sched" and _PID_SLICE.match(name):
            name = "sched.slice"
        self._stack.append([name, self._clock(), 0])

    def end(self) -> None:
        now = self._clock()
        name, start, child = self._stack.pop()
        duration = now - start
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_ns += duration
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats()
        stats.count += 1
        stats.total_ns += duration
        stats.self_ns += duration - child
        stats.buckets[min(duration.bit_length(), 63)] += 1

    def inc(self, name: str, delta: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + delta

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def close_to(self, depth: int) -> None:
        while len(self._stack) > depth:
            self.end()

    def top(self):
        """Name of the innermost open span, or ``None``."""
        return self._stack[-1][0] if self._stack else None

    # -- aggregates ------------------------------------------------------

    def total_s(self, name: str) -> float:
        stats = self.stats.get(name)
        return stats.total_ns / 1e9 if stats else 0.0

    def self_s(self, name: str) -> float:
        stats = self.stats.get(name)
        return stats.self_ns / 1e9 if stats else 0.0

    def count(self, name: str) -> int:
        stats = self.stats.get(name)
        return stats.count if stats else 0

    def layer_self_ns(self) -> dict[str, int]:
        """Self time per layer (``bench`` = the unattributed root)."""
        totals = dict.fromkeys(LAYERS + ("bench",), 0)
        for name, stats in self.stats.items():
            totals[layer_of(name)] += stats.self_ns
        return totals


def _in_span(rec: LayerRecorder, span: str, original, args, kwargs):
    """Call ``original`` inside a ``span``, rebalancing the span stack
    however the call ends."""
    depth = rec.open_spans
    rec.begin(span, "bench")
    try:
        return original(*args, **kwargs)
    finally:
        rec.close_to(depth)


def _spanned(original, rec: LayerRecorder, span: str, outermost: bool = False):
    """``original`` wrapped in a ``span`` on ``rec``.  With
    ``outermost``, a call made while a span of the same name is
    innermost runs unwrapped, so a layer calling itself is counted once."""

    def wrapper(*args, **kwargs):
        if outermost and rec.top() == span:
            return original(*args, **kwargs)
        return _in_span(rec, span, original, args, kwargs)

    return wrapper


class Instrumentation:
    """Context manager that installs the layer wrappers on enter and
    restores every original on exit (including on error)."""

    def __init__(self, rec: LayerRecorder) -> None:
        self.rec = rec
        self._saved: list[tuple[object, str, object]] = []

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _span(self, owner, attr: str, span: str, outermost: bool = False) -> None:
        self._patch(owner, attr, _spanned(getattr(owner, attr), self.rec, span, outermost))

    def targets(self) -> list[tuple[object, str]]:
        """Every (owner, attribute) currently replaced."""
        return [(owner, attr) for owner, attr, _ in self._saved]

    def __enter__(self) -> "Instrumentation":
        # Build: assembling the workload binaries (set-up only).
        self._span(spec_mod, "build_spec_program", "build.assemble")
        self._span(tools_mod, "build_tool", "build.assemble")
        self._span(netserver_mod, "build_netserver", "build.assemble")
        # Installer: the pipeline and each stage it calls by name.
        self._wrap_install()
        for attr, span in (
            ("disassemble", "install.disasm"),
            ("run_baseline_passes", "install.passes"),
            ("inline_syscall_stubs", "install.inline"),
            ("analyze", "install.analyze"),
            ("generate_policies", "install.policygen"),
            ("rewrite_unit", "install.rewrite"),
            ("reassemble", "install.reassemble"),
        ):
            self._span(installer_core, attr, span)
        # Kernel process lifecycle and binfmt.
        Kernel = kernel_mod.Kernel
        self._span(Kernel, "load", "proc.load")
        self._span(kernel_mod, "link", "proc.link")
        self._span(Kernel, "release_process", "proc.release")
        self._span(Kernel, "fork_process", "proc.fork")
        # Trap entry (the engine's call into the kernel).
        self._span(Kernel, "handle_trap", "trap.entry")
        # Verification.
        self._span(VerifierJit, "execute", "verify.thunk")
        self._span(VerifierJit, "compile_site", "verify.jit_compile")
        self._span(AuthChecker, "check", "verify.generic")
        # Crypto: AesCmac.verify calls tag, counted once.
        self._wrap_mac("tag", lambda message: len(message))
        self._wrap_mac("verify", lambda message, tag: len(message))
        # Syscall dispatch, split per handler.
        self._wrap_dispatch()
        # Scheduler.
        self._span(Scheduler, "run", "sched.run")
        self._wrap_retry()
        # Loopback network: the public NetStack and Connection methods.
        for owner, names in (
            (NetStack, ("create", "bind", "listen", "connect", "accept",
                        "send_dgram", "recv_dgram", "recv_ready", "send_ready")),
            (Connection, ("space_toward", "send", "recv", "shutdown", "close",
                          "recv_ready", "send_ready")),
        ):
            for name in names:
                self._span(owner, name, "net.call", outermost=True)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrappers with extra bookkeeping -----------------------------------

    def _wrap_install(self) -> None:
        rec, original = self.rec, repro.installer.install

        def install(*args, **kwargs):
            installed = _in_span(rec, "install.pipeline", original, args, kwargs)
            rec.inc("install.sites", installed.sites_rewritten)
            return installed

        self._patch(repro.installer, "install", install)

    def _wrap_mac(self, attr: str, size) -> None:
        rec, original = self.rec, getattr(AesCmac, attr)

        def mac(*args):
            if rec.top() == "crypto.mac":
                return original(*args)
            rec.inc("crypto.mac_bytes", size(*args[1:]))
            return _in_span(rec, "crypto.mac", original, args, {})

        self._patch(AesCmac, attr, mac)

    def _wrap_dispatch(self) -> None:
        rec, original = self.rec, kernel_mod.dispatch
        spans = {name: f"dispatch.{name}" for name in DISPATCH_HANDLERS}

        def dispatch(ctx):
            if ctx.retry:
                rec.inc("dispatch.retries")
            return _in_span(rec, spans.get(ctx.name, "dispatch.other"), original, (ctx,), {})

        self._patch(kernel_mod, "dispatch", dispatch)

    def _wrap_retry(self) -> None:
        rec, original = self.rec, kernel_mod.Kernel.retry_blocked

        def retry_blocked(*args):
            completed = _in_span(rec, "sched.retry", original, args, {})
            if completed:
                rec.inc("sched.retry_ok")
            return completed

        self._patch(kernel_mod.Kernel, "retry_blocked", retry_blocked)


def surviving_wrappers() -> list[str]:
    """Every layer entry point that is still a benchmark wrapper (must
    be empty outside an :class:`Instrumentation` block)."""
    owners = (
        spec_mod, tools_mod, netserver_mod, repro.installer, installer_core,
        kernel_mod, kernel_mod.Kernel, VerifierJit, AuthChecker, AesCmac,
        Scheduler, NetStack, Connection,
    )
    found = []
    for owner in owners:
        for attr, value in vars(owner).items():
            code = getattr(value, "__code__", None)
            if code is not None and code.co_filename == __file__:
                found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return found


def layer_metrics(rec: LayerRecorder, registry: dict, untraced_s: float) -> dict:
    """The ``per_layer`` metrics of one traced run.

    ``registry`` is the kernel's counter snapshot after the traced
    passes; ``untraced_s`` the host time of the same work untraced."""
    total = rec.total_s
    counters = rec.counters
    traced_s = rec.root_ns / 1e9
    layer_self = rec.layer_self_ns()

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    traps = rec.count("syscall-verify")
    thunk_hits = registry.get("verifier.thunk_hits", 0)
    compiles = registry.get("engine.blocks_compiled", 0)
    instructions = registry.get("engine.instructions_retired", 0)
    retries = rec.count("sched.retry")
    dispatch_names = [n for n in rec.stats if layer_of(n) == "dispatch"]

    metrics = {
        "install.s": (total("install.pipeline"), "s"),
        "install.disasm_s": (total("install.disasm"), "s"),
        "install.passes_s": (total("install.passes"), "s"),
        "install.inline_s": (total("install.inline"), "s"),
        "install.analyze_s": (total("install.analyze"), "s"),
        "install.policygen_s": (total("install.policygen"), "s"),
        "install.rewrite_s": (total("install.rewrite"), "s"),
        "install.reassemble_s": (total("install.reassemble"), "s"),
        "install.sites": (counters.get("install.sites", 0), "count"),
        "build.s": (total("build.assemble"), "s"),
        "proc.load_s": (total("proc.load"), "s"),
        "proc.link_s": (total("proc.link"), "s"),
        "proc.release_s": (total("proc.release"), "s"),
        "proc.fork_s": (total("proc.fork"), "s"),
        "proc.loads": (rec.count("proc.load"), "count"),
        "trap.calls": (rec.count("trap.entry"), "count"),
        "engine.exec_self_s": (rec.self_s("execute"), "s"),
        "engine.compile_s": (total("block-compile"), "s"),
        "engine.chain_s": (total("block-chain"), "s"),
        "engine.instructions": (instructions, "count"),
        "engine.blocks_compiled": (compiles, "count"),
        "engine.blocks_evicted": (registry.get("engine.blocks_evicted", 0), "count"),
        "engine.superblocks_fused": (
            registry.get("engine.superblocks_fused", 0), "count"),
        "engine.insns_per_compile": (ratio(instructions, compiles), "ratio"),
        "verify.s": (total("syscall-verify"), "s"),
        "verify.thunk_s": (total("verify.thunk"), "s"),
        "verify.generic_s": (total("verify.generic"), "s"),
        "verify.jit_compile_s": (total("verify.jit_compile"), "s"),
        "verify.traps": (traps, "count"),
        "verify.thunk_hits": (thunk_hits, "count"),
        "verify.generic_checks": (rec.count("verify.generic"), "count"),
        "verify.thunks_invalidated": (
            registry.get("verifier.thunks_invalidated", 0), "count"),
        "verify.thunk_hit_ratio": (ratio(thunk_hits, traps), "ratio"),
        "crypto.mac_s": (total("crypto.mac"), "s"),
        "crypto.macs": (rec.count("crypto.mac"), "count"),
        "crypto.mac_bytes": (counters.get("crypto.mac_bytes", 0), "bytes"),
        "dispatch.s": (sum(total(n) for n in dispatch_names), "s"),
        "dispatch.calls": (sum(rec.count(n) for n in dispatch_names), "count"),
        "dispatch.retries": (counters.get("dispatch.retries", 0), "count"),
        "sched.slices": (rec.count("sched.slice"), "count"),
        "sched.retry_s": (total("sched.retry"), "s"),
        "sched.retries": (retries, "count"),
        "sched.retry_ok_ratio": (
            ratio(counters.get("sched.retry_ok", 0), retries), "ratio"),
        # The program's net-connect/net-accept spans enclose a net.call.
        "net.s": (total("net.call") + rec.self_s("net-connect")
                  + rec.self_s("net-accept"), "s"),
        "net.calls": (rec.count("net.call"), "count"),
        "net.bytes": (
            sum(v for k, v in registry.items() if k.startswith("net.bytes_")), "bytes"),
        "trace.traced_s": (traced_s, "s"),
        "trace.unattributed_share": (ratio(layer_self["bench"], rec.root_ns), "ratio"),
        "trace.overhead_ratio": (ratio(traced_s, untraced_s), "ratio"),
    }
    for name in DISPATCH_HANDLERS + ("other",):
        metrics[f"dispatch.{name}_s"] = (total(f"dispatch.{name}"), "s")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self[layer] / 1e9, "s")
    return metrics


def span_table(rec: LayerRecorder) -> str:
    """Human-readable per-span aggregate, heaviest self time first."""
    lines = [f"{'span':<22}{'layer':<10}{'count':>9}{'total_s':>11}"
             f"{'self_s':>11}{'p50_us':>10}{'p99_us':>10}"]
    for name, stats in sorted(rec.stats.items(), key=lambda kv: -kv[1].self_ns):
        lines.append(
            f"{name:<22}{layer_of(name):<10}{stats.count:>9}"
            f"{stats.total_ns / 1e9:>11.4f}{stats.self_ns / 1e9:>11.4f}"
            f"{stats.quantile_ns(0.5) / 1e3:>10.1f}"
            f"{stats.quantile_ns(0.99) / 1e3:>10.1f}"
        )
    return "\n".join(lines)
