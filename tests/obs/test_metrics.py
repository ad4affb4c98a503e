"""The counter registry and its FastPathStats facade."""

from repro.kernel import FastPathStats
from repro.obs import MetricsRegistry
from repro.obs.metrics import COUNTER_HELP, merge_counters


class TestMetricsRegistry:
    def test_inc_get_snapshot(self):
        reg = MetricsRegistry()
        assert reg.get("fastpath.hits") == 0
        reg.inc("fastpath.hits")
        reg.inc("fastpath.hits", 9)
        reg.set("engine.syscalls", 4)
        assert reg.get("fastpath.hits") == 10
        assert reg.snapshot() == {"fastpath.hits": 10, "engine.syscalls": 4}
        assert len(reg) == 2

    def test_iteration_is_sorted(self):
        reg = MetricsRegistry()
        reg.inc("zeta", 1)
        reg.inc("alpha", 2)
        assert list(reg) == [("alpha", 2), ("zeta", 1)]

    def test_reset_returns_pre_reset_snapshot(self):
        reg = MetricsRegistry()
        reg.inc("fastpath.hits", 3)
        old = reg.reset()
        assert old == {"fastpath.hits": 3}
        assert reg.snapshot() == {}
        assert reg.get("fastpath.hits") == 0

    def test_merge_counters_with_prefix(self):
        reg = MetricsRegistry()
        merge_counters(reg, {"compiles": 2, "evictions": 1}, prefix="engine")
        merge_counters(reg, {"engine.compiles": 3})
        assert reg.get("engine.compiles") == 5
        assert reg.get("engine.evictions") == 1

    def test_prometheus_rendering(self):
        reg = MetricsRegistry()
        reg.inc("fastpath.hits", 12)
        reg.inc("custom.thing", 1)  # no HELP entry: still renders
        text = reg.render_prometheus()
        lines = text.splitlines()
        assert f"# HELP repro_fastpath_hits {COUNTER_HELP['fastpath.hits']}" in lines
        assert "# TYPE repro_fastpath_hits counter" in lines
        assert "repro_fastpath_hits 12" in lines
        assert "repro_custom_thing 1" in lines
        assert text.endswith("\n")
        assert MetricsRegistry().render_prometheus() == ""


class TestFastPathStatsFacade:
    def test_kwargs_constructor_still_works(self):
        stats = FastPathStats(hits=3, misses=1)
        assert stats.hits == 3
        assert stats.misses == 1
        assert stats.invalidations == 0
        assert stats.lookups == 4

    def test_backed_by_shared_registry(self):
        reg = MetricsRegistry()
        stats = FastPathStats(registry=reg)
        stats.hits += 5
        stats.misses += 2
        assert reg.get("fastpath.hits") == 5
        assert reg.get("fastpath.misses") == 2
        reg.inc("fastpath.hits", 1)  # registry writes are visible back
        assert stats.hits == 6

    def test_reset_returns_snapshot(self):
        stats = FastPathStats(hits=7, misses=3, invalidations=1)
        snap = stats.reset()
        assert (snap.hits, snap.misses, snap.invalidations) == (7, 3, 1)
        assert snap.lookups == 10
        assert snap.hit_rate() == 0.7
        assert stats.hits == stats.misses == stats.invalidations == 0
        # The snapshot is immutable and detached from the live stats.
        stats.hits += 1
        assert snap.hits == 7


class TestEngineCounterSchema:
    def test_every_engine_counter_is_declared(self):
        # A forking run on the threaded engine: every name the kernel's
        # engine fold emits (registry and recorder alike) has HELP text.
        from repro.kernel import Kernel
        from repro.obs import TraceRecorder
        from tests.kernel.sched.conftest import run_sched_guest

        recorder = TraceRecorder()
        kernel = Kernel(recorder=recorder)
        run_sched_guest(kernel, """
    call sys_fork
    li r10, 0
loop:
    addi r10, r10, 1
    cmpi r10, 600
    blt loop
    li r1, 0
    call sys_exit
""", ["fork"])
        emitted = {name for name, _ in kernel.metrics
                   if name.startswith("engine.")}
        assert {"engine.blocks_compiled", "engine.blocks_shared",
                "engine.superblocks_fused"} <= emitted
        assert kernel.metrics.get("engine.blocks_shared") > 0
        undeclared = emitted - set(COUNTER_HELP)
        assert not undeclared
        traced = {name for name in recorder.counters if name.startswith("engine.")}
        assert traced == emitted

    def test_every_socket_echo_counter_is_declared(self):
        # A forked echo server on loopback sockets: every engine, sched
        # and net name the run emits has HELP text.
        from repro.installer import install
        from repro.kernel import Kernel
        from repro.workloads.netserver import build_netserver

        kernel = Kernel()
        binary = install(build_netserver(clients=2, requests=3), kernel.key).binary
        multi = kernel.run_many([binary], timeslice=1500)
        assert [t.exit_status for t in multi.scheduler.tasks.values()] == [0, 3, 3]
        emitted = {name for name, _ in kernel.metrics
                   if name.split(".", 1)[0] in ("engine", "sched", "net")}
        assert {"net.accepts", "net.bytes_received",
                "sched.context_switches", "engine.syscalls"} <= emitted
        assert not emitted - set(COUNTER_HELP)
