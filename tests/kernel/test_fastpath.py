"""The per-site verification fast path (the verifier's verified pairs).

Covers the verified-pair unit semantics of :class:`VerifierJit`, the
kernel-level counters surfaced through the audit log, the
``fastpath=False`` cold path, and the cycle accounting that makes a
fast-path check visibly cheaper than a cold one.  The *security*
boundary — tampering after warm-up — is exercised in
tests/attacks/test_fastpath_boundary.py.
"""

import pytest

from repro.asm import assemble
from repro.binfmt import link
from repro.crypto import Key
from repro.installer import install
from repro.kernel import CostModel, FastPathStats, Kernel, VerifierJit
from repro.crypto import mac_provider_for_key
from repro.policy.descriptor import PolicyDescriptor
from repro.workloads.runtime import runtime_source

KEY = Key.from_passphrase("test-fastpath", provider="fast-hmac")

LOOP_ITERATIONS = 50

LOOP_PROGRAM = f"""
.section .text
.global _start
_start:
    li r13, {LOOP_ITERATIONS}
loop:
    call sys_getpid
    subi r13, r13, 1
    cmpi r13, 0
    bgt loop
    li r1, 0
    call sys_exit
""" + runtime_source("linux", ("getpid", "exit"))


@pytest.fixture(scope="module")
def installed():
    binary = assemble(LOOP_PROGRAM, metadata={"program": "fploop"})
    return install(binary, KEY)


def _verifier() -> VerifierJit:
    return VerifierJit(mac_provider_for_key(KEY), CostModel())


class TestCacheUnit:
    DESC = PolicyDescriptor(bits=0x5)

    def test_probe_misses_cold(self):
        cache = _verifier()
        assert not cache.probe(0x1000, self.DESC, b"encoded", b"mac")
        assert cache.pairs == 0

    def test_store_then_probe_hits(self):
        cache = _verifier()
        cache.store(0x1000, self.DESC, b"encoded", b"mac")
        assert cache.probe(0x1000, self.DESC, b"encoded", b"mac")
        assert cache.pairs == 1

    def test_any_divergence_misses(self):
        cache = _verifier()
        cache.store(0x1000, self.DESC, b"encoded", b"mac")
        assert not cache.probe(0x1000, self.DESC, b"Encoded", b"mac")
        assert not cache.probe(0x1000, self.DESC, b"encoded", b"Mac")
        assert not cache.probe(0x1004, self.DESC, b"encoded", b"mac")
        assert not cache.probe(
            0x1000, PolicyDescriptor(bits=0x7), b"encoded", b"mac"
        )
        # The verified pair itself is still intact.
        assert cache.probe(0x1000, self.DESC, b"encoded", b"mac")

    def test_invalidate_reports_dropped_entries(self):
        cache = _verifier()
        cache.store(0x1000, self.DESC, b"a", b"m1")
        cache.store(0x2000, self.DESC, b"b", b"m2")
        assert cache.pairs == 2
        assert cache.invalidate() == 2
        assert cache.pairs == 0
        assert not cache.probe(0x1000, self.DESC, b"a", b"m1")

    def test_overflow_flushes(self, installed):
        # Overflow flushes the verified pairs and the compiled thunks
        # together: a thunk never outlives the pair it was built from.
        kernel = Kernel(key=KEY)
        process, vm = kernel.load(installed.binary)
        while vm.syscall_count < 3:
            assert vm.step()
        cache = kernel._verifiers[process.pid]
        assert len(cache) > 0 and cache.pairs > 0
        for site in range(cache.pairs, VerifierJit.MAX_SITES):
            cache.store(0x100000 + site, self.DESC, b"e", b"m")
        assert cache.pairs == VerifierJit.MAX_SITES
        cache.store(0xFFFFFF, self.DESC, b"e", b"m")
        assert cache.pairs == 1
        assert len(cache) == 0


class TestFastPathStats:
    def test_hit_rate(self):
        stats = FastPathStats(hits=3, misses=1)
        assert stats.lookups == 4
        assert stats.hit_rate() == pytest.approx(0.75)

    def test_hit_rate_no_lookups(self):
        assert FastPathStats().hit_rate() == 0.0

    def test_render_and_reset(self):
        stats = FastPathStats(hits=9, misses=1, invalidations=2)
        assert "90.0% hit rate" in stats.render()
        stats.reset()
        assert stats.lookups == 0 and stats.invalidations == 0


class TestKernelCounters:
    def test_steady_state_hits(self, installed):
        kernel = Kernel(key=KEY)
        result = kernel.run(installed.binary)
        assert result.ok
        stats = kernel.audit.fastpath
        # One getpid site (miss on first trap, hits after) plus exit.
        assert stats.hits >= LOOP_ITERATIONS - 2
        assert stats.misses <= 2
        assert stats.hit_rate() > 0.9

    def test_cache_invalidated_at_exit(self, installed):
        kernel = Kernel(key=KEY)
        kernel.run(installed.binary)
        assert kernel.audit.fastpath.invalidations > 0

    def test_no_fastpath_never_probes(self, installed):
        kernel = Kernel(key=KEY, fastpath=False)
        result = kernel.run(installed.binary)
        assert result.ok
        stats = kernel.audit.fastpath
        assert stats.hits == 0 and stats.misses == 0 and stats.lookups == 0

    def test_both_modes_agree_on_outcome(self, installed):
        fast = Kernel(key=KEY).run(installed.binary)
        cold = Kernel(key=KEY, fastpath=False).run(installed.binary)
        assert fast.ok and cold.ok
        assert fast.exit_status == cold.exit_status
        assert fast.syscalls == cold.syscalls

    def test_cached_checks_cost_fewer_cycles(self, installed):
        fast = Kernel(key=KEY).run(installed.binary)
        cold = Kernel(key=KEY, fastpath=False).run(installed.binary)
        assert fast.cycles < cold.cycles
        # The surcharge per hit must shrink by the Table-4 factor (>=3x
        # on the verification work; here we assert the weaker whole-run
        # property to stay robust to cost-model recalibration).
        saved = cold.cycles - fast.cycles
        assert saved > LOOP_ITERATIONS * 1000

    def test_audit_clear_resets_fastpath_stats(self, installed):
        kernel = Kernel(key=KEY)
        kernel.run(installed.binary)
        assert kernel.audit.fastpath.lookups > 0
        kernel.audit.clear()
        assert kernel.audit.fastpath.lookups == 0


class TestMemoizedAsParsing:
    def test_write_into_as_region_forces_reparse(self, installed):
        # The AS reader memoizes *parsing*; any store into the regions
        # holding the header or content must drop the memo so the next
        # trap re-reads live memory.
        from repro.policy.record import read_auth_record

        kernel = Kernel(key=KEY)
        process, vm = kernel.load(installed.binary)
        image = link(installed.binary)
        site = installed.site_for_syscall("getpid")
        record = read_auth_record(
            vm.memory, image.address_of(installed.site_records[site])
        )
        cache = _verifier()
        first = cache.read_as(vm.memory, record.predset_ptr)
        assert cache.read_as(vm.memory, record.predset_ptr) is first
        mutated = bytes([first.content[0] ^ 0xFF]) + first.content[1:]
        vm.memory.write(record.predset_ptr, mutated, force=True)
        reread = cache.read_as(vm.memory, record.predset_ptr)
        assert reread is not first
        assert reread.content == mutated


EXECER_PROGRAM = """
.section .text
.global _start
_start:
    li r13, 5
warm:
    call sys_getpid
    subi r13, r13, 1
    cmpi r13, 0
    bgt warm
    li r1, path
    li r2, 0
    li r3, 0
    call sys_execve
    li r1, 1
    call sys_exit
.section .rodata
path:
    .asciz "/bin/next"
""" + runtime_source("linux", ("getpid", "execve", "exit"))


class TestCountedOncePerTrap:
    """Fast-path hits and misses are tallied once per authenticated
    trap: in the registry-backed ``audit.fastpath`` and in one
    per-process tally that feeds ``Task.fastpath_hits/misses``."""

    @staticmethod
    def _run_scheduled(kernel, binary):
        traps = []
        original = kernel.handle_trap

        def spy(vm, authenticated):
            if authenticated:
                traps.append(vm.pc)
            return original(vm, authenticated)

        kernel.handle_trap = spy
        multi = kernel.run_many([binary], timeslice=400)
        tasks = list(multi.scheduler.tasks.values())
        assert not any(task.killed for task in tasks)
        return len(traps), tasks

    @staticmethod
    def _assert_invariants(kernel, traps, tasks):
        stats = kernel.audit.fastpath
        assert traps > 0
        assert stats.hits + stats.misses == traps
        assert kernel.metrics.get("verifier.thunk_hits") <= stats.hits
        assert sum(task.fastpath_hits for task in tasks) == stats.hits
        assert sum(task.fastpath_misses for task in tasks) == stats.misses

    def test_chained_loop(self, installed):
        kernel = Kernel(key=KEY)
        traps, tasks = self._run_scheduled(kernel, installed.binary)
        assert kernel.metrics.get("verifier.thunk_hits") > 0
        self._assert_invariants(kernel, traps, tasks)

    def test_netserver_fork_path(self):
        from repro.workloads.netserver import build_netserver

        binary = install(build_netserver(clients=2, requests=3), KEY).binary
        kernel = Kernel(key=KEY)
        traps, tasks = self._run_scheduled(kernel, binary)
        assert len(tasks) == 3 and kernel.metrics.get("sched.forks") == 2
        self._assert_invariants(kernel, traps, tasks)

    def test_execve_path(self, installed):
        execer = install(
            assemble(EXECER_PROGRAM, metadata={"program": "fpexec"}), KEY
        )
        kernel = Kernel(key=KEY)
        kernel.vfs.write_file("/bin/next", installed.binary.to_bytes())
        traps, tasks = self._run_scheduled(kernel, execer.binary)
        assert kernel.metrics.get("sched.execs") == 1
        self._assert_invariants(kernel, traps, tasks)
