"""The attack scenarios.

Each scenario returns an :class:`AttackResult`; ``blocked`` is True
when the kernel converted the attack into a fail-stop termination.
The Frankenstein scenario inverts that expectation when the §5.5
defense is disabled — that case *demonstrates the vulnerability* the
defense exists for.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Optional

from repro.asm import assemble
from repro.binfmt import link
from repro.cpu.vm import VM, ProcessExit
from repro.crypto import Key
from repro.installer import InstalledProgram, InstallerOptions, install
from repro.isa import Instruction, encode_instruction
from repro.isa.opcodes import Op
from repro.kernel import EnforcementMode, Kernel
from repro.kernel.config import DEFAULT_CONFIG, EngineConfig
from repro.kernel.syscalls import SYSCALL_NUMBERS
from repro.attacks.victim import BUFFER_SIZE, build_frankenstein_pair, build_victim

#: Address (deterministic) of the vulnerable buffer; discovered by a
#: dry run, see :func:`_find_buffer_address`.
_SH_MARKER = b"SHELL-SPAWNED\n"
_LS_MARKER = b"ls-output\n"


@dataclass
class AttackResult:
    name: str
    blocked: bool
    detail: str
    kill_reason: str = ""
    stdout: bytes = b""


def _marker_program(text: bytes) -> bytes:
    """A tiny program that prints a marker (stands in for /bin/sh,
    /bin/ls as execve targets)."""
    escaped = text.decode().replace("\n", "\\n")
    source = f"""
.section .text
.global _start
_start:
    li r0, {SYSCALL_NUMBERS['write']}
    li r1, 1
    li r2, msg
    li r3, {len(text)}
    sys
    li r0, {SYSCALL_NUMBERS['exit']}
    li r1, 0
    sys
.section .rodata
msg:
    .ascii "{escaped}"
"""
    return assemble(source, metadata={"program": "marker"}).to_bytes()


def _prepare_kernel(key: Key, config: EngineConfig = DEFAULT_CONFIG) -> Kernel:
    kernel = Kernel(
        key=key, mode=EnforcementMode.PERMISSIVE, **config.kernel_kwargs()
    )
    kernel.vfs.write_file("/bin/sh", _marker_program(_SH_MARKER))
    kernel.vfs.write_file("/bin/ls", _marker_program(_LS_MARKER))
    kernel.vfs.write_file("/etc/motd", b"hello\n")
    return kernel


def _install_victim(key: Key, **options) -> InstalledProgram:
    return install(build_victim(), key, InstallerOptions(**options))


def _find_buffer_address(
    key: Key, installed: InstalledProgram, config: EngineConfig = DEFAULT_CONFIG
) -> int:
    """Dry-run the victim and capture r2 (the buffer) at the read trap."""
    kernel = _prepare_kernel(key, config)
    process, vm = kernel.load(installed.binary, stdin=b"/etc/motd\x00")
    read_site = installed.site_for_syscall("read")
    captured: list[int] = []

    class Spy:
        def handle_trap(self, inner_vm: VM, authenticated: bool) -> int:
            if inner_vm.pc == read_site and not captured:
                captured.append(inner_vm.regs[2])
            return kernel.handle_trap(inner_vm, authenticated)

    vm.trap_handler = Spy()
    vm.run()
    if not captured:
        raise RuntimeError("victim never reached its read call")
    return captured[0]


def _run_with_payload(
    key: Key,
    installed: InstalledProgram,
    payload: bytes,
    config: EngineConfig,
    mutate: Optional[Callable[[Kernel, VM], None]] = None,
):
    kernel = _prepare_kernel(key, config)
    process, vm = kernel.load(installed.binary, stdin=payload)
    if mutate:
        mutate(kernel, vm)
    vm.run()
    return kernel, process, vm


def _encode(instructions) -> bytes:
    return b"".join(encode_instruction(i) for i in instructions)


# ---------------------------------------------------------------------------
# 1. shellcode injection
# ---------------------------------------------------------------------------


def shellcode_attack(
    key: Optional[Key] = None,
    config: EngineConfig = DEFAULT_CONFIG,
) -> AttackResult:
    """Overflow the buffer, run injected code that issues a raw
    execve("/bin/sh") system call."""
    key = key or Key.generate()
    installed = _install_victim(key)
    buffer_address = _find_buffer_address(key, installed, config)

    # Shellcode layout inside the 64-byte buffer:
    #   [0..]   instructions
    #   [48..]  the string "/bin/sh\0"
    string_address = buffer_address + 48
    code = _encode([
        Instruction(Op.LI, regs=(0,), imm=SYSCALL_NUMBERS["execve"]),
        Instruction(Op.LI, regs=(1,), imm=string_address),
        Instruction(Op.LI, regs=(2,), imm=0),
        Instruction(Op.SYS),
        Instruction(Op.HALT),
    ])
    payload = code.ljust(48, b"\x00") + b"/bin/sh\x00".ljust(16, b"\x00")
    payload += struct.pack("<I", buffer_address)  # smashed return address

    kernel, process, vm = _run_with_payload(key, installed, payload, config)
    return AttackResult(
        name="shellcode",
        blocked=vm.killed,
        detail="injected raw SYS execve('/bin/sh') from the smashed stack",
        kill_reason=vm.kill_reason,
        stdout=bytes(process.stdout),
    )


# ---------------------------------------------------------------------------
# 2. mimicry (reuse of authenticated calls)
# ---------------------------------------------------------------------------


def mimicry_attack(
    key: Optional[Key] = None,
    variant: str = "call-graph",
    config: EngineConfig = DEFAULT_CONFIG,
) -> AttackResult:
    """Reuse the victim's *authenticated* execve call out of context.

    ``call-graph``: jump straight to the genuine call site (skipping
    the open that must precede it) — the predecessor-set check fails.
    ``call-site``: copy the genuine record pointer but trap from
    injected code — the call-site MAC check fails."""
    key = key or Key.generate()
    installed = _install_victim(key)
    buffer_address = _find_buffer_address(key, installed, config)
    execve_site = installed.site_for_syscall("execve")
    image = link(installed.binary)
    exec_path = image.address_of("exec_path")
    record = image.address_of(installed.site_records[execve_site])

    if variant == "call-graph":
        # Re-enter at the LI r7 that precedes the genuine ASYS, with
        # registers staged for execve; the trap then happens at the
        # *correct* site but with the wrong predecessor state.
        code = _encode([
            Instruction(Op.LI, regs=(0,), imm=SYSCALL_NUMBERS["execve"]),
            Instruction(Op.LI, regs=(1,), imm=exec_path),
            Instruction(Op.LI, regs=(2,), imm=0),
            Instruction(Op.LI, regs=(3,), imm=0),
            Instruction(Op.JMP, imm=execve_site - 8),  # the LI r7 slot
        ])
        detail = "jumped to the genuine execve site out of order"
    else:
        # Issue ASYS from the payload itself, reusing the real record.
        code = _encode([
            Instruction(Op.LI, regs=(0,), imm=SYSCALL_NUMBERS["execve"]),
            Instruction(Op.LI, regs=(1,), imm=exec_path),
            Instruction(Op.LI, regs=(2,), imm=0),
            Instruction(Op.LI, regs=(3,), imm=0),
            Instruction(Op.LI, regs=(7,), imm=record),
            Instruction(Op.ASYS),
            Instruction(Op.HALT),
        ])
        detail = "issued ASYS from injected code with a stolen record"

    payload = code.ljust(BUFFER_SIZE, b"\x00") + struct.pack("<I", buffer_address)
    kernel, process, vm = _run_with_payload(key, installed, payload, config)
    return AttackResult(
        name=f"mimicry/{variant}",
        blocked=vm.killed,
        detail=detail,
        kill_reason=vm.kill_reason,
        stdout=bytes(process.stdout),
    )


# ---------------------------------------------------------------------------
# 3. non-control-data (argument corruption)
# ---------------------------------------------------------------------------


def non_control_data_attack(
    key: Optional[Key] = None,
    config: EngineConfig = DEFAULT_CONFIG,
) -> AttackResult:
    """Swap the constant "/bin/ls" for "/bin/sh" in memory.

    Models an arbitrary-write primitive (Chen et al.'s non-control-data
    attacks): the string bytes change but no control flow does."""
    key = key or Key.generate()
    installed = _install_victim(key)
    image = link(installed.binary)
    exec_path = image.address_of("exec_path")

    def corrupt(kernel: Kernel, vm: VM) -> None:
        vm.memory.write(exec_path, b"/bin/sh", force=True)

    kernel, process, vm = _run_with_payload(
        key, installed, b"/etc/motd\x00", config, mutate=corrupt
    )
    return AttackResult(
        name="non-control-data",
        blocked=vm.killed and _SH_MARKER not in process.stdout,
        detail="overwrote the authenticated execve argument in place",
        kill_reason=vm.kill_reason,
        stdout=bytes(process.stdout),
    )


# ---------------------------------------------------------------------------
# 4. Frankenstein (§5.5)
# ---------------------------------------------------------------------------


def frankenstein_attack(
    key: Optional[Key] = None,
    defense: bool = True,
    config: EngineConfig = DEFAULT_CONFIG,
) -> AttackResult:
    """Transplant program B's authenticated execve (of /bin/sh) into
    program A.  Both programs are legitimately installed on the same
    machine; their identical layout lets every embedded address line
    up.  Succeeds without unique block ids; blocked with them."""
    key = key or Key.generate()
    raw_a, raw_b = build_frankenstein_pair()
    options_a = InstallerOptions(program_id=1 if defense else 0)
    options_b = InstallerOptions(program_id=2 if defense else 0)
    installed_a = install(raw_a, key, options_a)
    installed_b = install(raw_b, key, options_b)

    image_b = link(installed_b.binary)
    execve_site = installed_b.site_for_syscall("execve")
    record_address = image_b.address_of(installed_b.site_records[execve_site])
    authdata_b = image_b.segment(".authdata")
    authstr_b = image_b.segment(".authstr")

    def _as_record(content_address: int) -> tuple[int, bytes]:
        """Extract one of B's AS records (header + content + NUL)."""
        start = content_address - 20 - authstr_b.vaddr
        length = int.from_bytes(authstr_b.data[start : start + 4], "little")
        blob = authstr_b.data[start : start + 20 + length + 1]
        return content_address - 20, blob

    def transplant(kernel: Kernel, vm: VM) -> None:
        # Splice exactly the pieces B's execve needs into A's running
        # image (addresses coincide by construction): the record, its
        # predecessor-set AS, and the "/bin/sh" string AS.
        offset = record_address - authdata_b.vaddr
        record = bytes(authdata_b.data[offset : offset + 32])
        vm.memory.write(record_address, record, force=True)
        predset_ptr = int.from_bytes(record[8:12], "little")
        for content_address in (predset_ptr, image_b.address_of("exec_path")):
            address, blob = _as_record(content_address)
            vm.memory.write(address, blob, force=True)

    kernel, process, vm = _run_with_payload(
        key, installed_a, b"/etc/motd\x00", config, mutate=transplant
    )
    spawned_shell = _SH_MARKER in process.stdout
    return AttackResult(
        name=f"frankenstein/{'defended' if defense else 'undefended'}",
        blocked=vm.killed and not spawned_shell,
        detail=(
            "transplanted B's authenticated execve('/bin/sh') into A "
            f"({'with' if defense else 'without'} unique block ids)"
        ),
        kill_reason=vm.kill_reason,
        stdout=bytes(process.stdout),
    )


# ---------------------------------------------------------------------------
# 5. policy-state replay
# ---------------------------------------------------------------------------


def replay_attack(
    key: Optional[Key] = None,
    config: EngineConfig = DEFAULT_CONFIG,
) -> AttackResult:
    """Snapshot lastBlock/lbMAC *before* the open executes; let the
    open run (advancing the kernel counter); then restore the stale
    snapshot and re-enter the open site.  lastBlock = "after read"
    is a *valid predecessor* for open, so without the counter nonce the
    replay would pass — the kernel MACs the state against the advanced
    counter and fail-stops instead."""
    key = key or Key.generate()
    installed = _install_victim(key)
    kernel = _prepare_kernel(key, config)
    process, vm = kernel.load(installed.binary, stdin=b"/etc/motd\x00")

    image = link(installed.binary)
    polstate = image.address_of("__asc_polstate")
    open_site = installed.site_for_syscall("open")

    snapshot: list[bytes] = []
    replayed: list[bool] = []
    try:
        while True:
            if vm.pc == open_site and not snapshot:
                # About to trap at the open: record the pre-call state.
                snapshot.append(vm.memory.read(polstate, 20, force=True))
            if not vm.step():
                break
            if snapshot and not replayed and vm.pc != open_site:
                # The open has completed (counter advanced).  Restore
                # the stale state and jump back to re-enter the site.
                if len(snapshot) == 1 and vm.pc > open_site:
                    vm.memory.write(polstate, snapshot[0], force=True)
                    # Re-enter at the `li r0, 5` of the inlined stub so
                    # the syscall number register is staged correctly.
                    vm.pc = open_site - 16
                    replayed.append(True)
    except ProcessExit as exit_info:
        vm.killed = exit_info.killed
        vm.kill_reason = exit_info.reason

    return AttackResult(
        name="replay",
        blocked=vm.killed and bool(replayed),
        detail="restored a stale lastBlock/lbMAC and re-entered the open",
        kill_reason=vm.kill_reason,
        stdout=bytes(process.stdout),
    )


def run_all_attacks(
    key: Optional[Key] = None,
    config: EngineConfig = DEFAULT_CONFIG,
) -> list[AttackResult]:
    """The full §4.1 + §5.5 battery, on one engine configuration.

    The verdicts must be identical on every entry of
    :data:`repro.kernel.config.CONFIGS`: the fast path is an
    optimization, never a policy change, and the §4.1 shellcode
    executes freshly written stack bytes, which exercises the threaded
    engine's invalidation protocol end to end."""
    key = key or Key.generate()
    return [
        shellcode_attack(key, config),
        mimicry_attack(key, "call-graph", config),
        mimicry_attack(key, "call-site", config),
        non_control_data_attack(key, config),
        frankenstein_attack(key, defense=True, config=config),
        frankenstein_attack(key, defense=False, config=config),
        replay_attack(key, config),
    ]
