"""Scheduler semantics: preemption, fork, wait, exec, signals."""

import pytest

from repro.kernel import Kernel
from repro.kernel.errors import Errno
from repro.kernel.sched.scheduler import SCHED_KILL_STATUS, TaskState
from repro.workloads.multiproc import build_server

from tests.kernel.sched.conftest import guest_binary, run_sched_guest

WSTATUS_DATA = """
.section .data
wstatus:
    .space 4
"""


class TestServerAcceptance:
    @pytest.mark.parametrize("engine", ["interp", "threaded"])
    def test_four_worker_server(self, engine):
        """The ISSUE acceptance bar: a 4-worker pipe-fed server runs to
        completion under both engines with interleaved execution."""
        kernel = Kernel(engine=engine)
        multi = kernel.run_many(
            [build_server(workers=4, requests=16)], timeslice=500
        )
        assert multi.results[0].exit_status == 0
        assert not multi.results[0].killed
        tasks = multi.scheduler.tasks
        assert len(tasks) == 5  # master + 4 forked workers
        master = min(tasks)
        workers = [task for pid, task in tasks.items() if pid != master]
        # Every worker handled its round-robin share...
        assert [task.exit_status for task in workers] == [4, 4, 4, 4]
        # ...echoed each 8-byte record...
        for task in workers:
            assert len(task.process.stdout) == 4 * 8
        # ...and was context-switched in more than once (interleaving,
        # not run-to-completion).
        for task in workers:
            assert task.switches > 1
        assert kernel.metrics.get("sched.context_switches") > len(tasks)
        assert kernel.metrics.get("sched.preemptions") > 0
        assert kernel.metrics.get("sched.blocks") > 0
        assert kernel.metrics.get("sched.forks") == 4
        assert kernel.metrics.get("sched.zombies_reaped") == 4


class TestForkWait:
    def test_fork_returns_zero_in_child_and_pid_in_parent(self, kernel):
        multi = run_sched_guest(kernel, """
    call sys_fork
    cmpi r0, 0
    beq child
    li r1, 0xFFFFFFFF
    li r2, wstatus
    li r3, 0
    li r4, 0
    call sys_wait4
    li r9, wstatus
    ld r1, [r9+0]
    shri r1, r1, 8
    call sys_exit
child:
    li r1, 7
    call sys_exit
""", ["fork", "wait4"], data=WSTATUS_DATA)
        assert multi.results[0].exit_status == 7

    def test_wait4_specific_pid(self, kernel):
        multi = run_sched_guest(kernel, """
    call sys_fork
    cmpi r0, 0
    beq child
    mov r1, r0           ; wait for exactly the forked pid
    li r2, wstatus
    li r3, 0
    li r4, 0
    call sys_wait4
    li r9, wstatus
    ld r1, [r9+0]
    shri r1, r1, 8
    call sys_exit
child:
    li r1, 9
    call sys_exit
""", ["fork", "wait4"], data=WSTATUS_DATA)
        assert multi.results[0].exit_status == 9

    def test_wait4_echild_without_children(self, kernel):
        multi = run_sched_guest(kernel, """
    li r1, 0xFFFFFFFF
    li r2, 0
    li r3, 0
    li r4, 0
    call sys_wait4
    xori r1, r0, 0xFFFFFFFF
    addi r1, r1, 1
    call sys_exit
""", ["wait4"])
        assert multi.results[0].exit_status == int(Errno.ECHILD)

    def test_wait4_wnohang_returns_zero_while_child_runs(self, kernel):
        # The parent's WNOHANG poll runs in the same slice as the fork,
        # before the child has ever been scheduled.
        multi = run_sched_guest(kernel, """
    call sys_fork
    cmpi r0, 0
    beq child
    li r1, 0xFFFFFFFF
    li r2, 0
    li r3, 1             ; WNOHANG
    li r4, 0
    call sys_wait4
    mov r1, r0
    call sys_exit
child:
    li r1, 0
    call sys_exit
""", ["fork", "wait4"])
        assert multi.results[0].exit_status == 0

    def test_fork_fails_without_scheduler(self, kernel):
        from tests.kernel.conftest import run_guest

        result = run_guest(kernel, """
    call sys_fork
    xori r1, r0, 0xFFFFFFFF
    addi r1, r1, 1
    call sys_exit
""", ["fork"])
        assert result.exit_status == int(Errno.EAGAIN)

    def test_getppid_in_child(self, kernel):
        multi = run_sched_guest(kernel, """
    call sys_fork
    cmpi r0, 0
    beq child
    li r1, 0xFFFFFFFF
    li r2, wstatus
    li r3, 0
    li r4, 0
    call sys_wait4
    li r9, wstatus
    ld r1, [r9+0]
    shri r1, r1, 8
    call sys_exit
child:
    call sys_getppid
    mov r1, r0
    call sys_exit
""", ["fork", "wait4", "getppid"], data=WSTATUS_DATA)
        # The top-level process gets pid 100; the child reports it.
        assert multi.results[0].exit_status == 100


class TestSignalsAndYield:
    def test_cross_process_kill_and_wstatus(self, kernel):
        multi = run_sched_guest(kernel, """
    call sys_fork
    cmpi r0, 0
    beq child
    mov r14, r0
    call sys_sched_yield  ; let the child get onto the CPU once
    mov r1, r14
    li r2, 9
    call sys_kill
    mov r1, r14
    li r2, wstatus
    li r3, 0
    li r4, 0
    call sys_wait4
    li r9, wstatus
    ld r1, [r9+0]
    andi r1, r1, 0x7F    ; killed-by-signal encoding
    call sys_exit
child:
    jmp child            ; spin until killed
""", ["fork", "kill", "wait4", "sched_yield"], data=WSTATUS_DATA)
        assert multi.results[0].exit_status == 9
        assert kernel.metrics.get("sched.signal_kills") == 1
        child = multi.scheduler.tasks[101]
        assert child.killed
        assert "signal 9" in child.kill_reason

    def test_sched_yield_requeues(self, kernel):
        binary = guest_binary("""
    call sys_sched_yield
    call sys_sched_yield
    call sys_sched_yield
    li r1, 0
    call sys_exit
""", ["sched_yield"])
        multi = kernel.run_many([binary, binary], timeslice=100_000)
        assert all(r.exit_status == 0 for r in multi.results)
        assert kernel.metrics.get("sched.yields") == 6
        # With a huge timeslice the only scheduling points are the
        # yields; the two tasks must actually alternate.
        pids = [pid for pid, _ in multi.scheduler.interleaving]
        assert len(set(pids)) == 2
        assert kernel.metrics.get("sched.context_switches") > 2


class TestBlockingAndDeadlock:
    def test_read_own_empty_pipe_is_deadlock_killed(self, kernel):
        multi = run_sched_guest(kernel, """
    li r1, pfd
    call sys_pipe
    li r9, pfd
    ld r1, [r9+0]
    li r2, buf
    li r3, 8
    call sys_read        ; our own write end is open: blocks forever
    li r1, 0
    call sys_exit
""", ["pipe", "read"], data="""
.section .data
pfd:
    .space 8
.section .bss
buf:
    .space 8
""")
        result = multi.results[0]
        assert result.killed
        assert result.exit_status == SCHED_KILL_STATUS
        assert "deadlock" in result.kill_reason
        assert kernel.metrics.get("sched.deadlock_kills") == 1
        assert any(
            "deadlock" in event.reason for event in kernel.audit.alerts()
        )


class TestSpawnExec:
    CHILD_SOURCE = """
    li r1, 5
    call sys_exit
"""

    def _install_child(self, kernel):
        binary = guest_binary(self.CHILD_SOURCE, name="five")
        kernel.vfs.write_file("/bin/five", binary.to_bytes())

    def test_spawn_is_asynchronous(self, kernel):
        self._install_child(kernel)
        multi = run_sched_guest(kernel, """
    li r1, path
    li r2, 0
    call sys_spawn
    cmpi r0, 0
    ble bad
    mov r1, r0
    li r2, wstatus
    li r3, 0
    li r4, 0
    call sys_wait4
    li r9, wstatus
    ld r1, [r9+0]
    shri r1, r1, 8
    call sys_exit
bad:
    li r1, 1
    call sys_exit
""", ["spawn", "wait4"], data=WSTATUS_DATA + """
.section .rodata
path:
    .asciz "/bin/five"
""")
        assert multi.results[0].exit_status == 5
        assert kernel.metrics.get("sched.spawns") == 1

    def test_execve_replaces_image_in_place(self, kernel):
        self._install_child(kernel)
        multi = run_sched_guest(kernel, """
    li r1, path
    li r2, 0
    li r3, 0
    call sys_execve
    li r1, 1
    call sys_exit        ; unreachable unless exec failed
""", ["execve"], data="""
.section .rodata
path:
    .asciz "/bin/five"
""")
        assert multi.results[0].exit_status == 5
        assert kernel.metrics.get("sched.execs") == 1
        # Same pid before and after the exec: one task only.
        assert len(multi.scheduler.tasks) == 1

    def test_zombie_states_visible(self, kernel):
        multi = run_sched_guest(kernel, """
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
    li r1, 3
    call sys_exit
""", ["fork", "wait4"])
        assert multi.results[0].exit_status == 0
        assert all(
            task.state is TaskState.REAPED
            for task in multi.scheduler.tasks.values()
        )
        assert kernel.metrics.get("sched.zombies_reaped") >= 1
