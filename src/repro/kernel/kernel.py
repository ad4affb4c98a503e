"""The kernel object: trap dispatch, process loading, enforcement.

One :class:`Kernel` models one machine: a filesystem, a MAC key shared
with the trusted installer, an enforcement mode, the per-process
authentication counters, and the audit log.  It implements the VM's
:class:`repro.cpu.vm.TrapHandler` protocol, so constructing a process
is just "link the binary, map the segments, point the VM at us".
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique
from typing import Optional

from repro.binfmt import SefBinary, link
from repro.binfmt.image import PAGE_SIZE
from repro.cpu.memory import (
    Memory,
    PROT_EXEC,
    PROT_READ,
    PROT_WRITE,
)
from repro.cpu.threaded import TranslationCache
from repro.cpu.vm import VM, ProcessExit
from repro.crypto import Key, MacMemo, MacProvider, mac_provider_for_key
from repro.isa import INSTRUCTION_SIZE
from repro.kernel.audit import AuditEvent, AuditLog, FastPathStats
from repro.kernel.auth import AuthChecker, AuthViolation
from repro.kernel.costs import CostModel
from repro.kernel.net import NetStack
from repro.kernel.process import Process
from repro.kernel.sched.blocking import ImageReplaced, ProcessBlocked, WouldBlock
from repro.kernel.sched.scheduler import MultiRunResult, Scheduler, Task
from repro.kernel.syscalls import (
    SYSCALL_NAMES,
    SyscallContext,
    dispatch,
)
from repro.kernel.verifierjit import VerifierJit
from repro.kernel.vfs import Vfs
from repro.obs import NULL_RECORDER, MetricsRegistry, Recorder
from repro.policy.capability import CapabilityTable

#: Fixed epoch for deterministic time syscalls: 26 Sep 2005, the
#: paper's submission date.
EPOCH = 1127692800

KILL_STATUS = 128 + 9  # SIGKILL-style status for security terminations


@unique
class EnforcementMode(Enum):
    """What the kernel does with *unauthenticated* binaries.

    Protected (installer-produced) binaries are always enforced; the
    mode only governs legacy binaries, mirroring a staged rollout where
    "the system as a whole is protected once all binaries ... have been
    transformed" (§3.3)."""

    PERMISSIVE = "permissive"  # legacy binaries may use plain SYS
    ENFORCE = "enforce"  # plain SYS is always fatal


@dataclass
class RunResult:
    """Everything a caller learns from running one program."""

    exit_status: int
    killed: bool
    kill_reason: str
    stdout: bytes
    stderr: bytes
    cycles: int
    instructions: int
    syscalls: int
    process: Process
    vm: VM

    @property
    def ok(self) -> bool:
        return not self.killed and self.exit_status == 0


class Kernel:
    """The simulated operating system."""

    MAX_EXEC_DEPTH = 8

    def __init__(
        self,
        key: Optional[Key] = None,
        mode: EnforcementMode = EnforcementMode.PERMISSIVE,
        personality: str = "linux",
        costs: Optional[CostModel] = None,
        capability_tracking: bool = False,
        cycles_per_second: int = 2_400_000_000,
        nx: bool = False,
        fastpath: bool = True,
        engine: str = "threaded",
        recorder: Optional[Recorder] = None,
    ):
        self.key = key or Key.generate()
        self.mac: MacProvider = mac_provider_for_key(self.key)
        if fastpath:
            self.mac = MacMemo(self.mac)
        self.mode = mode
        self.personality = personality
        self.costs = costs or CostModel()
        self.vfs = Vfs()
        #: Observability (see DESIGN.md "Observability").  ``obs`` is
        #: the span recorder — the shared NullRecorder unless the caller
        #: passes a :class:`repro.obs.TraceRecorder` — and ``metrics``
        #: is the machine-wide counter registry that the audit log's
        #: fast-path stats and the engines' post-run tallies feed.
        self.obs: Recorder = recorder if recorder is not None else NULL_RECORDER
        self.metrics = MetricsRegistry()
        self.audit = AuditLog(fastpath=FastPathStats(registry=self.metrics))
        self.capability_tracking = capability_tracking
        self.cycles_per_second = cycles_per_second
        #: No-execute enforcement.  The paper's 2005-era testbed had no
        #: NX bit (which is what makes stack shellcode expressible);
        #: enabling it supports the hardware-vs-authentication ablation.
        self.nx = nx
        #: Verification fast path: one VerifierJit per process (verified
        #: pairs plus compiled per-site thunks, see kernel/verifierjit.py)
        #: and the kernel-wide MacMemo above, which computes each
        #: distinct tag once.  Off (`fastpath=False`, --no-fastpath)
        #: every trap runs the generic checker with a full CMAC: the
        #: paper's cold cost model and the reference path.
        self.fastpath = fastpath
        #: CPU execution engine for guest processes: "threaded" (the
        #: basic-block translation cache, default) or "interp" (the
        #: reference interpreter).  Both are bit-identical by contract.
        self.engine = engine
        #: The threaded engine's compiled code, shared by every process
        #: of this machine by content (see cpu/threaded.py).
        self._translations = TranslationCache()
        self._checker = AuthChecker(self.mac, self.costs, self.obs)
        self._verifiers: dict[int, VerifierJit] = {}
        #: Optional syscall tracer (duck-typed: .record(ctx)); used by
        #: the training-based baseline monitors.
        self.tracer = None
        self._next_pid = 100
        self._vm_process: dict[int, Process] = {}
        #: Per-pid kernel state.  Keyed by pid (not VM identity) so that
        #: fork and in-place execve keep a process's capability table,
        #: mmap cursor, and verifier attached to the process across VM
        #: replacement.
        self._capabilities: dict[int, CapabilityTable] = {}
        self._mmap_cursor: dict[int, int] = {}
        self._exec_depth = 0
        #: The active multiprogramming scheduler, if any.  A process is
        #: "scheduled" when its pid is in the scheduler's task table;
        #: everything else runs with the original synchronous semantics.
        self._scheduler: Optional[Scheduler] = None
        self._next_pipe_ident = 0
        #: Loopback network state (port table, connection idents); see
        #: kernel/net/.  Deterministic: idents are a plain counter and
        #: all queues are FIFO.
        self.net = NetStack(metrics=self.metrics)

    # -- loading ----------------------------------------------------------

    def load(
        self,
        binary: SefBinary,
        argv: Optional[list[str]] = None,
        stdin: bytes = b"",
        cwd: str = "/",
    ) -> tuple[Process, VM]:
        """Link, map, and prepare one process (not yet run)."""
        image = link(binary)
        memory, heap_base = self._map_image(image)
        process = Process(
            pid=self._allocate_pid(),
            name=image.metadata.get("program", binary.entry),
            cwd=cwd,
            brk=heap_base,
            initial_brk=heap_base,
            authenticated=image.metadata.get("authenticated") == "yes",
            stdin=stdin,
        )
        vm = self._new_vm(memory, image.entry)
        self._vm_process[id(vm)] = process
        self._capabilities[process.pid] = CapabilityTable()
        self._new_verifier(process.pid)
        self._setup_argv(vm, argv or [process.name])
        return process, vm

    def _new_vm(self, memory: Memory, entry: int, map_stack: bool = True) -> VM:
        """A guest CPU over ``memory`` with this kernel's engine, NX
        setting and recorder (load, execve and fork all build one)."""
        return VM(
            memory=memory,
            entry=entry,
            trap_handler=self,
            nx=self.nx,
            engine=self.engine,
            recorder=self.obs,
            map_stack=map_stack,
            translations=self._translations,
        )

    def _new_verifier(self, pid: int) -> None:
        """Give a pid a fresh, empty verifier (load/fork/execve) when
        the fast path is on: pairs and thunks never cross pids."""
        if self.fastpath:
            self._verifiers[pid] = VerifierJit(
                self.mac, self.costs, self.metrics, self.obs
            )

    def _drop_verifier(self, pid: int, task: Optional[Task]) -> None:
        """Tear down a pid's verifier (exit/execve): fold its fast-path
        tally into the task, if any, and count what it dropped — its
        verifications never outlive the address space they observed."""
        verifier = self._verifiers.pop(pid, None)
        if verifier is None:
            return
        if task is not None:
            task.fastpath_hits += verifier.hits
            task.fastpath_misses += verifier.misses
        verifier.invalidate()

    def _map_image(self, image) -> tuple[Memory, int]:
        """Map a linked image's segments plus a fresh heap; shared by
        initial load and scheduled (in-place) execve."""
        memory = Memory()
        for segment in image.segments:
            if segment.size == 0:
                continue  # empty sections occupy no pages
            prot = PROT_READ
            if segment.flags & 0x2:
                prot |= PROT_WRITE
            if segment.flags & 0x4:
                prot |= PROT_EXEC
            size = max(segment.size, 1)
            # Round segment sizes to pages so images stay contiguous.
            size = (size + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
            memory.map_region(
                segment.vaddr, size, prot, name=segment.name, data=segment.data
            )
        heap_base = (image.end + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
        memory.map_region(heap_base, PAGE_SIZE, PROT_READ | PROT_WRITE, name="[heap]")
        return memory, heap_base

    def _setup_argv(self, vm: VM, argv: list[str]) -> None:
        """Push argv strings and the pointer array onto the stack;
        the process starts with r1=argc, r2=argv."""
        pointers = []
        for arg in argv:
            data = arg.encode("utf-8") + b"\x00"
            vm.regs[15] -= len(data)
            vm.regs[15] &= ~0x3
            vm.memory.write(vm.regs[15], data)
            pointers.append(vm.regs[15])
        vm.regs[15] -= 4 * (len(pointers) + 1)
        table = vm.regs[15]
        for i, pointer in enumerate(pointers):
            vm.memory.write_u32(table + 4 * i, pointer)
        vm.memory.write_u32(table + 4 * len(pointers), 0)
        vm.regs[1] = len(argv)
        vm.regs[2] = table

    def run(
        self,
        binary: SefBinary,
        argv: Optional[list[str]] = None,
        stdin: bytes = b"",
        cwd: str = "/",
        max_instructions: int = 50_000_000,
    ) -> RunResult:
        """Load and execute a program to completion."""
        process, vm = self.load(binary, argv=argv, stdin=stdin, cwd=cwd)
        try:
            status = vm.run(max_instructions=max_instructions)
        finally:
            self.release_process(process, vm)
        return RunResult(
            exit_status=status,
            killed=vm.killed,
            kill_reason=vm.kill_reason,
            stdout=bytes(process.stdout),
            stderr=bytes(process.stderr),
            cycles=vm.cycles,
            instructions=vm.instructions_executed,
            syscalls=vm.syscall_count,
            process=process,
            vm=vm,
        )

    def run_many(
        self,
        programs,
        timeslice: int = 5000,
        max_instructions: int = 200_000_000,
    ) -> MultiRunResult:
        """Run several programs concurrently under a preemptive
        round-robin scheduler.

        ``programs`` is a list of :class:`SefBinary` or ``(binary,
        argv)`` / ``(binary, argv, stdin)`` tuples.  Results come back
        in spawn order; processes created at runtime (fork/spawn) are
        reachable through ``result.scheduler.tasks``."""
        scheduler = Scheduler(
            self, timeslice=timeslice, max_instructions=max_instructions
        )
        top: list[Task] = []
        for spec in programs:
            argv: Optional[list[str]] = None
            stdin = b""
            if isinstance(spec, tuple):
                binary = spec[0]
                if len(spec) > 1:
                    argv = spec[1]
                if len(spec) > 2:
                    stdin = spec[2]
            else:
                binary = spec
            process, vm = self.load(binary, argv=argv, stdin=stdin)
            top.append(scheduler.adopt(process, vm))
        scheduler.run()
        results = [self._task_result(task) for task in top]
        return MultiRunResult(results=results, scheduler=scheduler)

    def _task_result(self, task: Task) -> RunResult:
        return RunResult(
            exit_status=(
                task.exit_status if task.exit_status is not None else KILL_STATUS
            ),
            killed=task.killed,
            kill_reason=task.kill_reason,
            stdout=bytes(task.process.stdout),
            stderr=bytes(task.process.stderr),
            cycles=task.vm.cycles,
            instructions=task.vm.instructions_executed,
            syscalls=task.vm.syscall_count,
            process=task.process,
            vm=task.vm,
        )

    def release_process(self, process: Process, vm: VM, task: Optional[Task] = None) -> None:
        """Tear down a process's kernel-side state at exit."""
        self._vm_process.pop(id(vm), None)
        self._capabilities.pop(process.pid, None)
        self._mmap_cursor.pop(process.pid, None)
        self._drop_verifier(process.pid, task)
        self._sync_engine_metrics(vm)
        vm.release()
        memo = self.mac
        if isinstance(memo, MacMemo):
            self.metrics.inc("crypto.memo_hits", memo.hits)
            self.metrics.inc("crypto.memo_misses", memo.misses)
            memo.hits = memo.misses = 0

    def _allocate_pid(self) -> int:
        pid = self._next_pid
        self._next_pid += 1
        return pid

    def _sync_engine_metrics(self, vm: VM) -> None:
        """Fold the engine-local tallies a run accumulated into the
        machine-wide registry (and the recorder, when tracing).  Done
        once per process teardown so the hot loops only ever touch plain
        attribute counters."""
        tallies = {
            "engine.instructions_retired": vm.instructions_executed,
            "engine.syscalls": vm.syscall_count,
            "decode.invalidations": vm.decode_invalidations,
        }
        if vm._block_cache is not None:
            tallies.update(vm._block_cache.tallies())
        sinks = (self.metrics, self.obs) if self.obs.enabled else (self.metrics,)
        for name, value in tallies.items():
            for sink in sinks:
                sink.inc(name, value)

    # -- trap handling (TrapHandler protocol) --------------------------------

    def handle_trap(self, vm: VM, authenticated: bool) -> int:
        process = self._vm_process.get(id(vm))
        if process is None:
            raise ProcessExit(KILL_STATUS, killed=True, reason="orphan VM trap")

        if authenticated:
            return self._handle_asys(vm, process)
        return self._handle_sys(vm, process)

    def _handle_sys(self, vm: VM, process: Process) -> int:
        """A plain SYS trap."""
        number = vm.regs[0]
        name = SYSCALL_NAMES.get(number, f"syscall#{number}")
        if process.authenticated:
            # §3.4: "Unauthenticated calls are also blocked."
            self._kill(
                vm, process, name,
                "unauthenticated system call from protected binary",
            )
        if self.mode is EnforcementMode.ENFORCE:
            self._kill(
                vm, process, name,
                "unauthenticated binary denied in enforcing mode",
            )
        return self._dispatch(vm, process, number)

    def _handle_asys(self, vm: VM, process: Process) -> int:
        """An authenticated ASYS trap: check, then dispatch.

        The kernel owns the "syscall-verify" root span (one per trap)
        so the verifier-JIT fast path and the generic checker's staged
        pipeline present the same span tree shape to the recorder."""
        rec = self.obs
        traced = rec.enabled
        if traced:
            span_depth = rec.open_spans
            rec.begin("syscall-verify", "verify")
        verifier = self._verifiers.get(process.pid)
        result = verifier.execute(vm, process) if verifier is not None else None
        if result is None:
            try:
                result = self._checker.check(vm, process, verifier)
            except AuthViolation as violation:
                number = vm.regs[0]
                name = SYSCALL_NAMES.get(number, f"syscall#{number}")
                if traced:
                    # A violation aborts the checker mid-stage;
                    # rebalance the span stack before the kill unwinds
                    # the VM.
                    rec.close_to(span_depth)
                self._kill(vm, process, name, violation.reason)
                raise AssertionError("unreachable")  # pragma: no cover
            if verifier is not None:
                # First full verification of this site (or its thunk
                # just got voided): specialize it for the next trap.
                verifier.compile_site(vm, process, result)
        if traced:
            rec.end()  # syscall-verify
        if verifier is not None:
            verifier.hits += result.cache_hits
            verifier.misses += result.cache_misses
        self.audit.fastpath.hits += result.cache_hits
        self.audit.fastpath.misses += result.cache_misses
        if traced:
            rec.inc("fastpath.hits", result.cache_hits)
            rec.inc("fastpath.misses", result.cache_misses)
        if result.fd_mask and self.capability_tracking:
            self._check_capability(vm, process, result)
        try:
            cycles = self._dispatch(
                vm, process, result.syscall_number, result.block_id
            )
        except ProcessBlocked as blocked:
            # The §3.4 checks above already ran (and advanced the
            # counter); their cost is charged once, when the blocked
            # dispatch eventually completes.
            blocked.auth_cycles = result.cycles
            raise
        return cycles + result.cycles

    def _check_capability(self, vm: VM, process: Process, result) -> None:
        """§5.3: each tracked fd argument must descend from a permitted
        producing call site."""
        table = self._capabilities.get(process.pid)
        name = SYSCALL_NAMES.get(result.syscall_number, "?")
        for index in range(6):
            if not result.fd_mask & (1 << index):
                continue
            fd = vm.regs[1 + index]
            if fd in (0, 1, 2):  # inherited standard descriptors
                continue
            if table is None or not table.check(fd, result.fd_allowed):
                self._kill(
                    vm, process, name,
                    f"capability violation: fd {fd} (arg {index}) not "
                    f"produced by a permitted call site",
                )

    def _dispatch(
        self,
        vm: VM,
        process: Process,
        number: int,
        block_id: Optional[int] = None,
        retry: bool = False,
    ) -> int:
        name = SYSCALL_NAMES.get(number)
        if name is None:
            vm.regs[0] = 0xFFFFFFDA  # -ENOSYS
            return self.costs.syscall_cost("unknown")
        ctx = SyscallContext(
            kernel=self,
            process=process,
            vm=vm,
            name=name,
            args=tuple(vm.regs[1:7]),
            retry=retry,
        )
        try:
            result = dispatch(ctx)
        except WouldBlock as would_block:
            if self.scheduler_owns(process):
                raise ProcessBlocked(
                    would_block.wait, number, name, block_id, trap_pc=vm.pc
                ) from None
            # Synchronous mode: nobody can ever wake us, so complete
            # with the handler's non-blocking fallback (which matches
            # the pre-scheduler stub semantics).
            result = would_block.fallback & 0xFFFFFFFF
        vm.regs[0] = result
        if self.capability_tracking and block_id is not None:
            self._track_capability(process, vm, name, result, block_id)
        return self.costs.syscall_cost(name, ctx.transferred)

    def retry_blocked(self, task: Task) -> bool:
        """Re-run a parked task's blocked dispatch (never the trap — the
        verification already happened and advanced the counter).  On
        success the result lands in r0, the deferred verification cost
        is charged, and the PC advances past the trap; returns False if
        the wait condition still holds."""
        pending = task.pending
        assert pending is not None
        vm = task.vm
        try:
            cost = self._dispatch(
                vm, task.process, pending.number, pending.block_id, retry=True
            )
        except ProcessBlocked:
            return False
        vm.cycles += cost + pending.auth_cycles
        vm.pc = pending.trap_pc + INSTRUCTION_SIZE
        task.pending = None
        return True

    def scheduler_owns(self, process: Process) -> bool:
        """Is this process managed by an active scheduler (as opposed
        to a synchronous ``Kernel.run`` invocation)?"""
        scheduler = self._scheduler
        return scheduler is not None and process.pid in scheduler.tasks

    def allocate_pipe_ident(self) -> int:
        self._next_pipe_ident += 1
        return self._next_pipe_ident

    def _track_capability(
        self, process: Process, vm: VM, name: str, result: int, block_id: int
    ) -> None:
        table = self._capabilities.get(process.pid)
        if table is None:
            return
        if name in ("open", "socket", "dup", "dup2") and result < 0x8000_0000:
            if result not in table.owner:
                table.grant(block_id, result)
        elif name == "close" and result == 0:
            table.revoke(vm.regs[1])

    def capability_table(self, vm: VM) -> CapabilityTable:
        return self._capabilities[self._vm_process[id(vm)].pid]

    def _kill(self, vm: VM, process: Process, syscall: str, reason: str) -> None:
        self.audit.record(
            AuditEvent(
                kind="killed",
                pid=process.pid,
                program=process.name,
                syscall=syscall,
                reason=reason,
                call_site=vm.pc,
            )
        )
        raise ProcessExit(KILL_STATUS, killed=True, reason=reason)

    # -- services used by syscall handlers -----------------------------------

    def current_time(self, vm: VM) -> int:
        return EPOCH + vm.cycles // self.cycles_per_second

    def current_timeofday(self, vm: VM) -> tuple[int, int]:
        seconds = EPOCH + vm.cycles // self.cycles_per_second
        micros = (vm.cycles % self.cycles_per_second) * 1_000_000 // self.cycles_per_second
        return seconds, micros

    def next_mmap_address(self, vm: VM, size: int) -> Optional[int]:
        """Reserve ``size`` bytes (plus a guard page) at the process's
        mmap cursor; None, with the cursor unmoved, when they do not
        fit below the top of the 32-bit address space."""
        pid = self._vm_process[id(vm)].pid
        cursor = self._mmap_cursor.get(pid, 0x40000000)
        if cursor + size > 0x1_0000_0000:
            return None
        self._mmap_cursor[pid] = cursor + size + PAGE_SIZE
        return cursor

    # -- execve ----------------------------------------------------------------

    def register_binary(self, path: str, binary: SefBinary) -> None:
        """Install a program file into the VFS so execve can find it."""
        self.vfs.write_file(path, binary.to_bytes())
        self.vfs.chmod(path, 0o755)

    def _resolve_executable(
        self, process: Process, path: str, syscall: str = "execve"
    ) -> SefBinary:
        """Read and validate an executable for execve/spawn: must parse
        as a SEF binary, and enforcing mode refuses unauthenticated
        images (audited)."""
        from repro.kernel.errors import Errno
        from repro.kernel.vfs import VfsError

        data = self.vfs.read_file(path, cwd=process.cwd)
        try:
            binary = SefBinary.from_bytes(bytes(data))
        except Exception:
            raise VfsError(Errno.EACCES, path) from None
        if self.mode is EnforcementMode.ENFORCE and binary.metadata.get(
            "authenticated"
        ) != "yes":
            self.audit.record(
                AuditEvent(
                    kind="blocked",
                    pid=process.pid,
                    program=process.name,
                    syscall=syscall,
                    reason=f"refusing unauthenticated binary {path}",
                )
            )
            raise VfsError(Errno.EPERM, path)
        return binary

    def execve(self, ctx: SyscallContext, path: str, argv=None) -> int:
        """Model image replacement by running the target synchronously.

        Returns the status the calling process should exit with; raises
        VfsError (mapped to -errno) if the target cannot be executed."""
        from repro.kernel.errors import Errno
        from repro.kernel.vfs import VfsError

        if self._exec_depth >= self.MAX_EXEC_DEPTH:
            raise VfsError(Errno.ELOOP, path)
        binary = self._resolve_executable(ctx.process, path)
        self._exec_depth += 1
        try:
            result = self.run(binary, argv=argv or None, cwd=ctx.process.cwd)
        finally:
            self._exec_depth -= 1
        ctx.process.stdout.extend(result.stdout)
        ctx.process.stderr.extend(result.stderr)
        return result.exit_status

    # -- multiprogramming services (scheduled processes only) ---------------

    def exec_replace(self, ctx: SyscallContext, path: str, argv=None) -> None:
        """True in-place execve for a scheduled process: build a fresh
        VM over a new image, reset the process's authentication context
        (counter back to 0 — the new image's .polstate starts at its
        installed epoch), and swap it into the task.  Raises
        :class:`ImageReplaced` on success (execve does not return)."""
        process = ctx.process
        old_vm = ctx.vm
        binary = self._resolve_executable(process, path)
        image = link(binary)
        memory, heap_base = self._map_image(image)
        new_vm = self._new_vm(memory, image.entry)
        # Accounting continuity: the scheduler's slice bookkeeping and
        # the guest-visible clock see one uninterrupted process.
        new_vm.cycles = old_vm.cycles
        new_vm.instructions_executed = old_vm.instructions_executed
        new_vm.syscall_count = old_vm.syscall_count
        process.name = image.metadata.get("program", binary.entry)
        process.brk = heap_base
        process.initial_brk = heap_base
        process.authenticated = image.metadata.get("authenticated") == "yes"
        process.auth_counter = 0
        process.signal_handlers.clear()
        task = self._scheduler.tasks[process.pid]
        # Per-pid kernel state: the capability table and verifier belong
        # to the old image; drop and restart them.
        self._vm_process.pop(id(old_vm), None)
        old_vm.release()
        self._vm_process[id(new_vm)] = process
        self._capabilities[process.pid] = CapabilityTable()
        self._mmap_cursor.pop(process.pid, None)
        self._drop_verifier(process.pid, task)
        self._new_verifier(process.pid)
        self._setup_argv(new_vm, argv or [process.name])
        task.vm = new_vm
        raise ImageReplaced(f"execve {path}")

    def fork_process(self, ctx: SyscallContext) -> int:
        """Real fork for a scheduled process.

        The address space is duplicated copy-on-reference: read-only
        regions (code, rodata — including the image's MACed policy
        records) are shared by reference; writable regions (stack,
        heap, .data, and crucially the ``.polstate`` lastBlock/lbMAC
        section) are copied.  The child inherits the parent's
        ``auth_counter``, which is consistent with the copied polstate
        because the §3.4 checker re-MACed it *before* this handler ran
        — from here on the two processes' counters diverge
        independently, which is exactly the per-process isolation the
        paper's §3.2 checker provides."""
        from repro.cpu.memory import PROT_WRITE as _W

        parent = ctx.process
        parent_vm = ctx.vm
        scheduler = self._scheduler
        memory = Memory()
        for region in parent_vm.memory.regions():
            if region.prot & _W:
                memory.map_region(
                    region.start,
                    len(region.data),
                    region.prot,
                    name=region.name,
                    data=bytes(region.data),
                )
            else:
                memory.adopt_region(region)
        # The copied image already contains [stack].
        child_vm = self._new_vm(memory, parent_vm.pc, map_stack=False)
        child_vm.regs[:] = parent_vm.regs
        child_vm.flag_zero = parent_vm.flag_zero
        child_vm.flag_neg = parent_vm.flag_neg
        child_vm.cycles = parent_vm.cycles
        child_vm.instructions_executed = parent_vm.instructions_executed
        child_vm.syscall_count = parent_vm.syscall_count
        child_vm.stack_top = parent_vm.stack_top
        child_vm.pc = parent_vm.pc + INSTRUCTION_SIZE  # resume past the trap
        child_vm.regs[0] = 0  # fork() returns 0 in the child
        child = Process(
            pid=self._allocate_pid(),
            name=parent.name,
            cwd=parent.cwd,
            fds={fd: desc.dup() for fd, desc in parent.fds.items()},
            brk=parent.brk,
            initial_brk=parent.initial_brk,
            auth_counter=parent.auth_counter,
            authenticated=parent.authenticated,
            stdin=parent.stdin,
            stdin_offset=parent.stdin_offset,
            signal_handlers=dict(parent.signal_handlers),
        )
        self._vm_process[id(child_vm)] = child
        parent_caps = self._capabilities.get(parent.pid)
        if parent_caps is not None:
            self._capabilities[child.pid] = CapabilityTable(
                by_site={site: set(fds) for site, fds in parent_caps.by_site.items()},
                owner=dict(parent_caps.owner),
            )
        if parent.pid in self._mmap_cursor:
            self._mmap_cursor[child.pid] = self._mmap_cursor[parent.pid]
        # The child's verifier starts empty: verified pairs and thunks
        # never leak across pids, so a cross-process poisoning angle
        # does not exist by construction (tested).
        self._new_verifier(child.pid)
        scheduler.adopt(child, child_vm, parent_pid=parent.pid)
        self.metrics.inc("sched.forks")
        return child.pid

    def spawn_process(self, ctx: SyscallContext, path: str, argv=None) -> int:
        """Asynchronous spawn for a scheduled process: load the target
        as a child task and return its pid immediately (the caller
        collects it with wait4)."""
        binary = self._resolve_executable(ctx.process, path, syscall="spawn")
        process, vm = self.load(binary, argv=argv or None, cwd=ctx.process.cwd)
        self._scheduler.adopt(process, vm, parent_pid=ctx.process.pid)
        self.metrics.inc("sched.spawns")
        return process.pid
