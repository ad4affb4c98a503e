"""Socket descriptor lifecycle under the scheduler: fork, execve, exit.

The networking analogue of test_pipes.py's process tests: endpoint
refcounting across fork, EOF propagation when the last copy of a peer
descriptor goes away, the EPIPE analog on send-after-shutdown, and
the determinism of the blocked-accept wakeup path.
"""

from repro.kernel import Kernel
from repro.kernel.errors import Errno
from tests.kernel.sched.conftest import guest_binary, run_sched_guest

FAIL = """
fail:
    li r1, 77
    call sys_exit
"""

SOCKET_STREAM = """
    li r1, 2
    li r2, 1
    li r3, 0
    call sys_socket
"""

NAME_DATA = """
.section .rodata
name:
    .asciz "svc:life"
msg:
    .asciz "record7"
.section .data
wstatus:
    .word 0
.section .bss
buf:
    .space 8
"""

#: Stand up the listener as fd 3 and bail to fail: on any error.
LISTENER = SOCKET_STREAM + """
    cmpi r0, 3
    bne fail
    li r1, 3
    li r2, name
    li r3, 0
    call sys_bind
    cmpi r0, 0
    bne fail
    li r1, 3
    li r2, 4
    call sys_listen
    cmpi r0, 0
    bne fail
"""


class TestForkRefcounting:
    def test_connection_survives_forked_copies_exit(self, kernel):
        # The pair (client fd 4, accepted fd 5) exists before the fork,
        # so the child holds a copy of every endpoint.  Its exit must
        # only drop references — the parent's connection stays usable,
        # and EOF appears exactly when the parent closes its own copy.
        multi = run_sched_guest(kernel, LISTENER + SOCKET_STREAM + """
    cmpi r0, 4
    bne fail
    li r1, 4
    li r2, name
    li r3, 0
    call sys_connect
    cmpi r0, 0
    bne fail
    li r1, 3
    li r2, 0
    li r3, 0
    call sys_accept
    cmpi r0, 5
    bne fail
    call sys_fork
    cmpi r0, 0
    beq child
    blt fail
    li r1, 0xFFFFFFFF
    li r2, wstatus
    li r3, 0
    li r4, 0
    call sys_wait4
    cmpi r0, 0
    blt fail
    ; the child's exit closed its copies; ours still work
    li r1, 4
    li r2, msg
    li r3, 8
    li r4, 0
    call sys_send
    cmpi r0, 8
    bne fail
    li r1, 5
    li r2, buf
    li r3, 8
    li r4, 0
    call sys_recv
    cmpi r0, 8
    bne fail
    ; last client copy gone: the server end now reads EOF
    li r1, 4
    call sys_close
    li r1, 5
    li r2, buf
    li r3, 8
    li r4, 0
    call sys_recv
    cmpi r0, 0
    bne fail
    li r1, 0
    call sys_exit
child:
    li r1, 9
    call sys_exit
""" + FAIL,
            ["socket", "bind", "listen", "connect", "accept", "send",
             "recv", "close", "fork", "wait4"],
            data=NAME_DATA)
        assert multi.results[0].exit_status == 0
        assert not multi.results[0].killed

    def test_child_exit_gives_blocked_reader_eof(self, kernel):
        # The child never calls close: process exit must release its
        # socket descriptors, and the parent's recv — possibly already
        # parked — must wake to EOF instead of hanging.
        multi = run_sched_guest(kernel, LISTENER + """
    call sys_fork
    cmpi r0, 0
    beq child
    blt fail
    li r1, 3
    li r2, 0
    li r3, 0
    call sys_accept
    cmpi r0, 0
    blt fail
    mov r12, r0
    mov r1, r12
    li r2, buf
    li r3, 8
    li r4, 0
    call sys_recv
    cmpi r0, 8
    bne fail
    mov r1, r12
    li r2, buf
    li r3, 8
    li r4, 0
    call sys_recv
    cmpi r0, 0
    bne fail
    li r1, 0xFFFFFFFF
    li r2, wstatus
    li r3, 0
    li r4, 0
    call sys_wait4
    li r9, wstatus
    ld r10, [r9+0]
    shri r10, r10, 8
    cmpi r10, 5
    bne fail
    li r1, 0
    call sys_exit
child:
    li r1, 3
    call sys_close
""" + SOCKET_STREAM + """
    mov r12, r0
    mov r1, r12
    li r2, name
    li r3, 0
    call sys_connect
    cmpi r0, 0
    bne fail
    mov r1, r12
    li r2, msg
    li r3, 8
    li r4, 0
    call sys_send
    cmpi r0, 8
    bne fail
    li r1, 5
    call sys_exit
""" + FAIL,
            ["socket", "bind", "listen", "connect", "accept", "send",
             "recv", "close", "fork", "wait4"],
            data=NAME_DATA)
        assert multi.results[0].exit_status == 0
        assert not multi.results[0].killed


class TestEpipeAnalog:
    def test_send_after_peer_close_is_epipe(self, kernel):
        multi = run_sched_guest(kernel, LISTENER + SOCKET_STREAM + """
    li r1, 4
    li r2, name
    li r3, 0
    call sys_connect
    li r1, 3
    li r2, 0
    li r3, 0
    call sys_accept
    cmpi r0, 5
    bne fail
    li r1, 5
    call sys_close
    li r1, 4
    li r2, msg
    li r3, 8
    li r4, 0
    call sys_send
    xori r1, r0, 0xFFFFFFFF
    addi r1, r1, 1
    call sys_exit
""" + FAIL,
            ["socket", "bind", "listen", "connect", "accept", "send",
             "close"],
            data=NAME_DATA)
        assert multi.results[0].exit_status == int(Errno.EPIPE)

    def test_send_after_own_shut_wr_is_epipe(self, kernel):
        multi = run_sched_guest(kernel, LISTENER + SOCKET_STREAM + """
    li r1, 4
    li r2, name
    li r3, 0
    call sys_connect
    li r1, 3
    li r2, 0
    li r3, 0
    call sys_accept
    cmpi r0, 5
    bne fail
    li r1, 4
    li r2, 1               ; SHUT_WR
    call sys_shutdown
    cmpi r0, 0
    bne fail
    li r1, 4
    li r2, msg
    li r3, 8
    li r4, 0
    call sys_send
    xori r1, r0, 0xFFFFFFFF
    addi r1, r1, 1
    call sys_exit
""" + FAIL,
            ["socket", "bind", "listen", "connect", "accept", "send",
             "shutdown"],
            data=NAME_DATA)
        assert multi.results[0].exit_status == int(Errno.EPIPE)


ACCEPT_WAKEUP_BODY = LISTENER + """
    call sys_fork
    cmpi r0, 0
    beq child
    blt fail
    ; the accept parks: the child has not connected yet (it burns a
    ; delay loop first), so this exercises park -> connect -> wake
    li r1, 3
    li r2, 0
    li r3, 0
    call sys_accept
    cmpi r0, 0
    blt fail
    mov r12, r0
    mov r1, r12
    li r2, buf
    li r3, 8
    li r4, 0
    call sys_recv
    cmpi r0, 8
    bne fail
    li r1, 0xFFFFFFFF
    li r2, wstatus
    li r3, 0
    li r4, 0
    call sys_wait4
    li r1, 0
    call sys_exit
child:
    li r1, 3
    call sys_close
    li r9, 600
delay:
    subi r9, r9, 1
    cmpi r9, 0
    bgt delay
""" + SOCKET_STREAM + """
    mov r12, r0
    mov r1, r12
    li r2, name
    li r3, 0
    call sys_connect
    cmpi r0, 0
    bne fail
    mov r1, r12
    li r2, msg
    li r3, 8
    li r4, 0
    call sys_send
    cmpi r0, 8
    bne fail
    li r1, 3
    call sys_exit
""" + FAIL

ACCEPT_WAKEUP_SYSCALLS = ["socket", "bind", "listen", "connect", "accept",
                          "send", "recv", "close", "fork", "wait4"]


class TestBlockedAcceptDeterminism:
    def _run(self, kernel):
        multi = run_sched_guest(
            kernel, ACCEPT_WAKEUP_BODY, ACCEPT_WAKEUP_SYSCALLS,
            data=NAME_DATA, timeslice=150,
        )
        assert multi.results[0].exit_status == 0
        statuses = tuple(
            multi.scheduler.tasks[pid].exit_status
            for pid in sorted(multi.scheduler.tasks)
        )
        assert statuses == (0, 3)
        return tuple(multi.scheduler.interleaving)

    def test_wakeup_interleaving_is_reproducible(self):
        assert self._run(Kernel()) == self._run(Kernel())

    def test_wakeup_interleaving_is_engine_independent(self):
        interleavings = {
            self._run(Kernel(engine="interp")),
            self._run(Kernel(engine="threaded")),
        }
        assert len(interleavings) == 1


class TestExecvePreservesSockets:
    def test_greeting_survives_exec_and_eof_follows_exit(self, kernel):
        # The child sends one record, then replaces its image.  The
        # descriptor must ride through execve untouched (no EOF yet)
        # and be released when the *new* image exits — which is when
        # the parent's second recv sees EOF.
        binary = guest_binary("    li r1, 5\n    call sys_exit\n",
                              name="five")
        kernel.vfs.write_file("/bin/five", binary.to_bytes())
        multi = run_sched_guest(kernel, LISTENER + """
    call sys_fork
    cmpi r0, 0
    beq child
    blt fail
    li r1, 3
    li r2, 0
    li r3, 0
    call sys_accept
    cmpi r0, 0
    blt fail
    mov r12, r0
    mov r1, r12
    li r2, buf
    li r3, 8
    li r4, 0
    call sys_recv
    cmpi r0, 8
    bne fail
    mov r1, r12
    li r2, buf
    li r3, 8
    li r4, 0
    call sys_recv
    cmpi r0, 0
    bne fail
    li r1, 0xFFFFFFFF
    li r2, wstatus
    li r3, 0
    li r4, 0
    call sys_wait4
    li r9, wstatus
    ld r10, [r9+0]
    shri r10, r10, 8
    cmpi r10, 5            ; the exec'd image's status
    bne fail
    li r1, 0
    call sys_exit
child:
    li r1, 3
    call sys_close
""" + SOCKET_STREAM + """
    mov r12, r0
    mov r1, r12
    li r2, name
    li r3, 0
    call sys_connect
    cmpi r0, 0
    bne fail
    mov r1, r12
    li r2, msg
    li r3, 8
    li r4, 0
    call sys_send
    cmpi r0, 8
    bne fail
    li r1, path
    li r2, 0
    li r3, 0
    call sys_execve
    jmp fail               ; unreachable unless exec failed
""" + FAIL,
            ["socket", "bind", "listen", "connect", "accept", "send",
             "recv", "close", "fork", "wait4", "execve"],
            data=NAME_DATA + """
.section .rodata
path:
    .asciz "/bin/five"
""")
        assert multi.results[0].exit_status == 0
        assert not multi.results[0].killed
