"""The verifier specialization engine (kernel/verifierjit.py).

Lifecycle: thunks are compiled on first full verification of a
(process, call-site) pair, reused across repeated traps, voided by
write-version guards, and partitioned per pid — exit and execve drop
the partition, fork children start empty.  Soundness: everything here
must be invisible except in host time, so cycle accounting and attack
verdicts are asserted bit-identical with thunks on and off (off: every
trap falls back to the generic checker and its verified pairs).
"""

import pytest

from repro.asm import assemble
from repro.binfmt import link
from repro.crypto import Key
from repro.installer import install
from repro.kernel import Kernel, VerifierJit
from repro.obs import TraceRecorder
from repro.workloads.runtime import runtime_source

KEY = Key.from_passphrase("verifier-jit", provider="fast-hmac")

ITERATIONS = 30
WARMUP_SYSCALLS = 10

LOOP_PROGRAM = f"""
.section .text
.global _start
_start:
    li r13, {ITERATIONS}
loop:
    call sys_getpid
    subi r13, r13, 1
    cmpi r13, 0
    bgt loop
    li r1, 0
    call sys_exit
""" + runtime_source("linux", ("getpid", "exit"))

#: Open/close loop with a string argument and control flow — exercises
#: the string-auth, predecessor-set, and polstate pieces of a thunk.
OPEN_PROGRAM = f"""
.section .text
.global _start
_start:
    li r13, {ITERATIONS}
loop:
    li r1, path
    li r2, 0
    call sys_open
    mov r1, r0
    call sys_close
    subi r13, r13, 1
    cmpi r13, 0
    bgt loop
    li r1, 0
    call sys_exit
.section .rodata
path:
    .asciz "/etc/motd"
""" + runtime_source("linux", ("open", "close", "exit"))


@pytest.fixture(scope="module")
def installed_loop():
    return install(assemble(LOOP_PROGRAM, metadata={"program": "vjloop"}), KEY)


@pytest.fixture(scope="module")
def installed_open():
    return install(assemble(OPEN_PROGRAM, metadata={"program": "vjopen"}), KEY)


@pytest.fixture
def no_thunks(monkeypatch):
    """Thunks never serve a trap: the generic checker (with the
    verifier's verified pairs) handles every one."""
    monkeypatch.setattr(VerifierJit, "execute", lambda self, vm, process: None)


def _run(installed, **kernel_kwargs):
    kernel = Kernel(key=KEY, **kernel_kwargs)
    kernel.vfs.write_file("/etc/motd", b"greetings")
    result = kernel.run(installed.binary)
    assert result.ok, result.kill_reason
    return kernel, result


class TestThunkReuse:
    def test_sites_compile_once_and_hit_thereafter(self, installed_loop):
        kernel, result = _run(installed_loop)
        compiled = kernel.metrics.get("verifier.thunks_compiled")
        hits = kernel.metrics.get("verifier.thunk_hits")
        # One thunk per site (the getpid site and the exit site), never
        # recompiled; every later trap is served by the thunk.
        assert compiled == 2
        assert hits == result.syscalls - compiled
        assert hits > 0

    def test_thunk_hits_count_as_fastpath_hits(self, installed_loop):
        kernel, result = _run(installed_loop)
        hits = kernel.metrics.get("verifier.thunk_hits")
        assert kernel.audit.fastpath.hits == hits
        assert kernel.audit.fastpath.misses == 2

    def test_partition_dropped_at_exit(self, installed_loop):
        kernel, _ = _run(installed_loop)
        assert kernel._verifiers == {}
        # Every compiled thunk was eventually invalidated (at exit).
        assert (kernel.metrics.get("verifier.thunks_invalidated")
                == kernel.metrics.get("verifier.thunks_compiled"))

    def test_jit_rides_on_the_fastpath(self, installed_loop):
        # No fast path, no verifier: thunks, pairs and their counters
        # all stay untouched.
        kernel, _ = _run(installed_loop, fastpath=False)
        assert kernel.metrics.get("verifier.thunks_compiled") == 0
        assert kernel.metrics.get("verifier.thunk_hits") == 0


class TestBitIdentity:
    @pytest.mark.parametrize("fixture", ["installed_loop", "installed_open"])
    def test_cycles_and_accounting_identical(self, fixture, request):
        installed = request.getfixturevalue(fixture)
        baseline = None
        for jit in (True, False):
            if not jit:
                request.getfixturevalue("no_thunks")
            kernel, result = _run(installed)
            snapshot = (
                result.cycles,
                result.instructions,
                result.syscalls,
                result.exit_status,
                kernel.audit.fastpath.hits,
                kernel.audit.fastpath.misses,
            )
            if baseline is None:
                baseline = snapshot
            else:
                assert snapshot == baseline


class TestObservability:
    def test_compile_span_and_mirrored_counters(self, installed_open):
        recorder = TraceRecorder()
        kernel = Kernel(key=KEY, recorder=recorder)
        kernel.vfs.write_file("/etc/motd", b"greetings")
        result = kernel.run(installed_open.binary)
        assert result.ok
        compiled = kernel.metrics.get("verifier.thunks_compiled")
        totals = recorder.stage_totals()
        assert totals["verifier-compile"]["count"] == compiled
        # One root span per trap, thunk hit or miss.
        assert totals["syscall-verify"]["count"] == result.syscalls
        for name in ("verifier.thunks_compiled", "verifier.thunk_hits",
                     "verifier.thunks_invalidated"):
            assert recorder.counters.get(name, 0) == kernel.metrics.get(name)


def _warm(installed, **kernel_kwargs):
    """Load and step until the thunks are provably warm."""
    kernel = Kernel(key=KEY, **kernel_kwargs)
    kernel.vfs.write_file("/etc/motd", b"greetings")
    process, vm = kernel.load(installed.binary)
    while vm.syscall_count < WARMUP_SYSCALLS:
        assert vm.step(), "program ended before warm-up completed"
    return kernel, process, vm


class TestGuardInvalidation:
    def test_policy_record_write_voids_and_recompiles(self, installed_open):
        kernel, process, vm = _warm(installed_open)
        jit = kernel._verifiers[process.pid]
        open_site = installed_open.site_for_syscall("open")
        assert jit.thunk_at(open_site) is not None
        compiled_before = kernel.metrics.get("verifier.thunks_compiled")

        # Rewrite one record byte with its existing value: the bytes
        # are unchanged but the region's write version advances, so the
        # guard must fail closed and the thunk must be dropped.
        image = link(installed_open.binary)
        record = image.address_of(installed_open.site_records[open_site])
        byte = vm.memory.read(record, 1, force=True)
        vm.memory.write(record, byte, force=True)

        vm.run()
        assert not vm.killed
        assert kernel.metrics.get("verifier.thunks_invalidated") >= 1
        # The site re-verified in full and was specialized again.
        assert kernel.metrics.get("verifier.thunks_compiled") > compiled_before

    def test_identical_rewrite_falls_back_to_verified_pair(self, installed_open):
        # A forced write of the same bytes over the site's .authdata
        # record bumps the guard version: the next trap at the site
        # must fall back to the generic checker, be served by the
        # verified pair at exactly the thunk-hit price, and recompile.
        kernel, process, vm = _warm(installed_open)
        verifier = kernel._verifiers[process.pid]
        open_site = installed_open.site_for_syscall("open")
        thunk = verifier.thunk_at(open_site)
        assert thunk is not None
        image = link(installed_open.binary)
        record = image.address_of(installed_open.site_records[open_site])
        vm.memory.write(record, vm.memory.read(record, 4, force=True), force=True)

        generic = []
        check = kernel._checker.check

        def spy(vm_, process_, verifier_=None):
            result = check(vm_, process_, verifier_)
            generic.append((vm_.pc, result))
            return result

        kernel._checker.check = spy
        hits_before = kernel.audit.fastpath.hits
        while not generic:
            assert vm.step()
        site, result = generic[0]
        assert site == open_site
        assert result.cache_hits == 1 and result.cache_misses == 0
        assert result.cycles == thunk.cycles
        assert kernel.audit.fastpath.hits == hits_before + 1
        recompiled = verifier.thunk_at(open_site)
        assert recompiled is not None and recompiled is not thunk

    def test_changed_rewrite_dies_on_call_mac(self, installed_open):
        from repro.kernel.auth import violation_family
        from repro.policy.record import CORE_SIZE

        kernel, process, vm = _warm(installed_open)
        open_site = installed_open.site_for_syscall("open")
        assert kernel._verifiers[process.pid].thunk_at(open_site) is not None
        image = link(installed_open.binary)
        record = image.address_of(installed_open.site_records[open_site])
        mac_byte = record + CORE_SIZE - 1  # last byte of the call MAC
        flipped = vm.memory.read(mac_byte, 1, force=True)[0] ^ 0x01
        vm.memory.write(mac_byte, bytes([flipped]), force=True)
        vm.run()
        assert vm.killed
        assert violation_family(vm.kill_reason) == "call-mac"

    def test_guard_churn_stops_recompilation(self, installed_open):
        # A site whose policy material is written before every trap
        # must not recompile forever: after MAX_RECOMPILES guard
        # failures the generic path serves it (correctness unchanged).
        kernel, process, vm = _warm(installed_open)
        jit = kernel._verifiers[process.pid]
        open_site = installed_open.site_for_syscall("open")
        image = link(installed_open.binary)
        record = image.address_of(installed_open.site_records[open_site])
        byte = vm.memory.read(record, 1, force=True)

        seen_none_while_running = False
        while vm.syscall_count < ITERATIONS * 2:
            vm.memory.write(record, byte, force=True)  # bump the version
            if not vm.step():
                break
            if jit.thunk_at(open_site) is None and vm.syscall_count > 0:
                seen_none_while_running = True
        assert seen_none_while_running
        # Both the open and close records live in the shared .authdata
        # region, so both sites churn; each is capped independently and
        # compilation stays far below the ~60 traps served.
        assert (kernel.metrics.get("verifier.thunks_compiled")
                <= 2 * (jit.MAX_RECOMPILES + 1) + 1)


class TestTamperAfterWarmup:
    """The fastpath-boundary attack, re-run against warm *thunks*: a
    post-warm-up corruption must fail-stop identically with the JIT on
    and off (same kill reason, not merely both killed)."""

    @pytest.mark.parametrize("mutation, fragment", [
        ("string", "integrity"),
        ("polstate", "policy state"),
    ])
    def test_tamper_killed_with_jit_on_and_off(
        self, installed_open, mutation, fragment, request
    ):
        reasons = []
        for jit in (True, False):
            if not jit:
                request.getfixturevalue("no_thunks")
            kernel, process, vm = _warm(installed_open)
            assert (kernel.metrics.get("verifier.thunk_hits") > 0) == jit
            image = link(installed_open.binary)
            if mutation == "string":
                vm.memory.write(
                    image.address_of("path"), b"/etc/shad", force=True
                )
            else:
                vm.memory.write_u32(
                    image.address_of("__asc_polstate"), 42, force=True
                )
            vm.run()
            assert vm.killed and fragment in vm.kill_reason
            reasons.append(vm.kill_reason)
        assert reasons[0] == reasons[1]


class TestProcessPartitions:
    FORK_BODY = """
    li r13, 5
warm:
    call sys_getpid
    subi r13, r13, 1
    cmpi r13, 0
    bgt warm
    call sys_fork
    cmpi r0, 0
    beq child
    li r1, 0xFFFFFFFF
    li r2, 0
    li r3, 0
    li r4, 0
    call sys_wait4
    li r1, 0
    call sys_exit
child:
    li r13, 5
cloop:
    call sys_getpid
    subi r13, r13, 1
    cmpi r13, 0
    bgt cloop
    li r1, 0
    call sys_exit
"""

    def test_fork_child_gets_fresh_partition(self):
        source = (
            ".section .text\n.global _start\n_start:\n" + self.FORK_BODY
            + runtime_source("linux", ("getpid", "fork", "wait4", "exit"))
        )
        installed = install(
            assemble(source, metadata={"program": "vjfork"}), KEY
        )
        kernel = Kernel(key=KEY)
        observations = {}  # pid -> [(partition id, len) at each trap]
        original = kernel.handle_trap

        def spy(vm, authenticated):
            process = kernel._vm_process.get(id(vm))
            if process is not None:
                jit = kernel._verifiers.get(process.pid)
                if jit is not None:
                    observations.setdefault(process.pid, []).append(
                        (id(jit), len(jit))
                    )
            return original(vm, authenticated)

        kernel.handle_trap = spy
        multi = kernel.run_many([(installed.binary, None, b"")])
        assert all(not r.killed for r in multi.results)
        assert len(observations) == 2
        parent_pid, child_pid = sorted(observations)
        parent_obs, child_obs = observations[parent_pid], observations[child_pid]
        # Distinct partition objects: the child never sees the parent's.
        assert {pid for pid, _ in parent_obs}.isdisjoint(
            {pid for pid, _ in child_obs}
        )
        # The parent was warm at fork time; the child still started
        # cold — a sibling's thunk is never reused.
        assert parent_obs[-1][1] > 0
        assert child_obs[0][1] == 0
        # The shared getpid site was therefore compiled at least twice.
        assert kernel.metrics.get("verifier.thunks_compiled") >= 4

    def test_execve_drops_partition_in_place(self, installed_loop):
        execer_source = """
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
        execer = install(
            assemble(execer_source, metadata={"program": "vjexec"}), KEY
        )
        kernel = Kernel(key=KEY)
        kernel.vfs.write_file("/bin/next", installed_loop.binary.to_bytes())

        lens = []  # partition length at each trap of the (single) pid
        original = kernel.handle_trap

        def spy(vm, authenticated):
            process = kernel._vm_process.get(id(vm))
            if process is not None and process.pid in kernel._verifiers:
                lens.append(len(kernel._verifiers[process.pid]))
            return original(vm, authenticated)

        kernel.handle_trap = spy
        multi = kernel.run_many([(execer.binary, None, b"")])
        assert multi.results[0].exit_status == 0
        assert kernel.metrics.get("sched.execs") == 1
        # Warm before the exec, empty again at the first trap of the
        # replacement image: the partition died with the old image.
        peak = max(lens)
        assert peak > 0
        assert 0 in lens[lens.index(peak):]
