"""Per-process authentication state isolation.

The tentpole property: each process carries its own auth counter,
its own lastBlock/lbMAC region, and its own fast-path cache partition.
These tests check the three ways that could break: counters failing to
diverge after fork, verification-cache hits leaking across pids, and a
fail-stop in one process taking siblings down with it."""

import pytest

from repro.crypto import Key
from repro.installer import InstallerOptions, install
from repro.binfmt import link
from repro.isa import Instruction, encode_instruction
from repro.isa.opcodes import Op
from repro.kernel import EnforcementMode, Kernel
from repro.kernel.config import CONFIG_NAMES, CONFIGS
from repro.kernel.sched.scheduler import Scheduler

from repro.attacks.crossproc import _forker_binary, _looper_binary
from tests.kernel.sched.conftest import guest_binary


def _kernel(key, **kwargs):
    return Kernel(key=key, mode=EnforcementMode.PERMISSIVE, **kwargs)


class TestForkCounterDivergence:
    def test_counters_diverge_then_both_complete(self):
        """Fork copies the parent's counter; asymmetric syscall rates
        must then pull the two counters apart — and both processes
        still verify and finish (each one's polstate is MAC'd under
        its OWN counter)."""
        key = Key.generate()
        installed = install(_forker_binary(), key, InstallerOptions())
        kernel = _kernel(key)
        scheduler = Scheduler(kernel, timeslice=800)
        parent = scheduler.adopt(*kernel.load(installed.binary))
        observed: list[tuple[int, int]] = []

        def on_switch(sched, task):
            if task.parent_pid is None:
                return
            source = sched.tasks.get(task.parent_pid)
            if source is not None:
                observed.append(
                    (source.process.auth_counter, task.process.auth_counter)
                )

        scheduler.on_switch = on_switch
        scheduler.run()

        child = next(
            task for task in scheduler.tasks.values() if task.pid != parent.pid
        )
        assert parent.exit_status == 0 and not parent.killed
        assert child.exit_status == 0 and not child.killed
        # The hook saw the counters apart at least once mid-run.
        assert any(p != c for p, c in observed)
        # Both advanced their own counter the same total distance
        # (same program structure), independently.
        assert parent.process.auth_counter > 1
        assert child.process.auth_counter > 1

    def test_child_counter_snapshot_at_fork(self):
        """At the child's first schedule the inherited counter equals
        what the parent held when fork dispatched — not the parent's
        since-advanced value."""
        key = Key.generate()
        installed = install(_forker_binary(), key, InstallerOptions())
        kernel = _kernel(key)
        scheduler = Scheduler(kernel, timeslice=800)
        scheduler.adopt(*kernel.load(installed.binary))
        first: list[tuple[int, int]] = []

        def on_switch(sched, task):
            if task.parent_pid is not None and not first:
                source = sched.tasks[task.parent_pid]
                first.append(
                    (source.process.auth_counter, task.process.auth_counter)
                )

        scheduler.on_switch = on_switch
        scheduler.run()
        (parent_ctr, child_ctr) = first[0]
        # fork itself is the child's first inherited authenticated
        # call: the snapshot is exactly 1 (entry block -> fork site),
        # while the parent has already raced ahead in its first slice.
        assert child_ctr == 1
        assert parent_ctr > child_ctr


class TestFastpathPartitioning:
    def test_no_cross_pid_cache_leak(self):
        """Two instances of the same installed binary: the second
        process's first visit to every call site must MISS in its own
        per-pid cache — warm entries from the sibling's partition must
        not satisfy it."""
        key = Key.generate()
        installed = install(_looper_binary(), key, InstallerOptions())
        kernel = _kernel(key, fastpath=True)
        multi = kernel.run_many(
            [installed.binary, installed.binary], timeslice=1000
        )
        assert all(r.exit_status == 0 for r in multi.results)
        tasks = sorted(multi.scheduler.tasks.values(), key=lambda t: t.pid)
        for task in tasks:
            # Each process paid its own cold misses (one per distinct
            # site) and then hit within its own partition.
            assert task.fastpath_misses >= 1
            assert task.fastpath_hits > 0
        # A leak would show as the machine-wide miss total collapsing
        # to a single process's worth.
        total_misses = sum(task.fastpath_misses for task in tasks)
        assert total_misses == kernel.metrics.get("fastpath.misses")
        assert tasks[0].fastpath_misses == tasks[1].fastpath_misses


class TestFailStopContainment:
    def test_kill_one_keep_others(self):
        """Corrupt one sibling's policy state mid-run: only that
        process fail-stops; the other two instances finish, and the
        audit log names exactly the corrupted pid."""
        key = Key.generate()
        installed = install(_looper_binary(), key, InstallerOptions())
        kernel = _kernel(key)
        polstate = link(installed.binary).address_of("__asc_polstate")
        scheduler = Scheduler(kernel, timeslice=1000)
        tasks = [
            scheduler.adopt(*kernel.load(installed.binary)) for _ in range(3)
        ]
        victim = tasks[1]
        corrupted: list[int] = []

        def on_switch(sched, task):
            if not corrupted and task.pid == victim.pid:
                task.vm.memory.write(polstate, b"\x00" * 20, force=True)
                corrupted.append(task.pid)

        scheduler.on_switch = on_switch
        scheduler.run()

        assert corrupted
        assert victim.killed
        assert "policy state MAC" in victim.kill_reason
        assert tasks[0].exit_status == 0 and not tasks[0].killed
        assert tasks[2].exit_status == 0 and not tasks[2].killed
        killed_pids = {event.pid for event in kernel.audit.kills()}
        assert killed_pids == {victim.pid}


class TestCopyOnProtect:
    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_NAMES)
    def test_child_cannot_rewrite_parent_code(self, config):
        """Fork shares the text region by reference.  A child that
        mprotects it writable and patches `target` to load the other
        status word gets a private copy: the child runs its patch (66),
        the parent its original code (5)."""
        raw = encode_instruction(Instruction(Op.LD, regs=(1, 9), imm=4))
        low = int.from_bytes(raw[:4], "little")
        high = int.from_bytes(raw[4:], "little")
        binary = guest_binary(f"""
    call sys_fork
    cmpi r0, 0
    bne parent
    li r1, target
    li r2, 4096
    li r3, 7
    call sys_mprotect
    li r9, target
    li r2, {low}
    st r2, [r9+8]
    li r2, {high}
    st r2, [r9+12]
    jmp target
parent:
    li r1, 0xFFFFFFFF
    li r2, 0
    li r3, 0
    li r4, 0
    call sys_wait4
target:
    li r9, status
    ld r1, [r9+0]
    call sys_exit
""", ["fork", "mprotect", "wait4"], data=".section .data\nstatus:\n  .word 5\n  .word 66")
        key = Key.generate()
        installed = install(binary, key, InstallerOptions())
        kernel = _kernel(key, **config.kernel_kwargs())
        multi = kernel.run_many([installed.binary], timeslice=500)
        tasks = sorted(multi.scheduler.tasks.values(), key=lambda t: t.pid)
        assert [(t.exit_status, t.killed) for t in tasks] == [(5, False), (66, False)]


class TestReleasedCachesUnwatch:
    def test_watchers_bounded_by_live_processes(self):
        """200 fork/exit cycles: each child's translation cache watches
        the fork-shared text while it lives and stops at exit."""
        binary = guest_binary("""
    li r10, 0
again:
    call sys_fork
    cmpi r0, 0
    beq child
    li r1, 0xFFFFFFFF
    li r2, 0
    li r3, 0
    li r4, 0
    call sys_wait4
    addi r10, r10, 1
    cmpi r10, 200
    blt again
    li r1, 0
    call sys_exit
child:
    li r1, 0
    call sys_exit
""", ["fork", "wait4"])
        kernel = Kernel()
        scheduler = Scheduler(kernel, timeslice=1000)
        parent = scheduler.adopt(*kernel.load(binary))
        text = parent.vm.memory.find_region(".text")
        excess: list[int] = []

        def on_switch(sched, task):
            live = sum(1 for t in sched.tasks.values() if t.alive)
            excess.append(len(text.watchers) - live)

        scheduler.on_switch = on_switch
        scheduler.run()
        assert parent.exit_status == 0
        assert kernel.metrics.get("sched.forks") == 200
        assert excess and max(excess) <= 0
        assert text.watchers == []
