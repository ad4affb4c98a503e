"""Translations shared across processes by code content.

A kernel's processes share one :class:`TranslationCache`: a process
binds a translation another process published at the same entry PC
only when its own code bytes there are equal and its region is
readable (and executable under NX).  These tests pin the isolation
side of that bargain — a process that rewrites its code never changes
what another process runs — and the bind conditions and the bound.
"""

import pytest

from repro.cpu import ExecutionFault, Memory, PROT_EXEC, PROT_READ, PROT_WRITE, VM
from repro.cpu.threaded import TranslationCache
from repro.isa import Instruction, encode_instruction
from repro.isa.opcodes import Op
from repro.kernel import Kernel
from tests.kernel.conftest import run_guest
from tests.kernel.sched.conftest import run_sched_guest

RWX = PROT_READ | PROT_WRITE | PROT_EXEC

LOOP = [
    Instruction(Op.LI, regs=(1,), imm=0),
    Instruction(Op.ADDI, regs=(1, 1), imm=1),   # 0x1008: loop
    Instruction(Op.CMPI, regs=(1,), imm=600),
    Instruction(Op.BLT, imm=0x1008),
    Instruction(Op.HALT),
]


def _encode(instructions) -> bytes:
    return b"".join(encode_instruction(i) for i in instructions)


def _vm(code: bytes, translations=None, prot=RWX, nx=False, engine="threaded"):
    memory = Memory()
    memory.map_region(0x1000, 4096, prot, data=code, name="text")
    return VM(memory=memory, entry=0x1000, nx=nx, engine=engine,
              translations=translations)


def _outcome(vm):
    try:
        vm.run(max_instructions=100_000)
    except ExecutionFault as err:
        return ("fault", str(err), vm.cycles, vm.instructions_executed)
    return ("exit", vm.exit_status, tuple(vm.regs), vm.cycles,
            vm.instructions_executed)


def _patch_words(value: int) -> tuple[int, int]:
    """The two little-endian words of ``li r1, value``."""
    raw = encode_instruction(Instruction(Op.LI, regs=(1,), imm=value))
    return int.from_bytes(raw[:4], "little"), int.from_bytes(raw[4:], "little")


class TestBinding:
    def test_second_process_binds_every_block_and_superblock(self):
        translations = TranslationCache()
        first = _vm(_encode(LOOP), translations)
        second = _vm(_encode(LOOP), translations)
        reference = _outcome(_vm(_encode(LOOP), engine="interp"))
        assert _outcome(first) == reference
        assert _outcome(second) == reference
        a, b = first._block_cache, second._block_cache
        assert a.compiles > 0 and a.shared == 0
        assert b.compiles == 0 and b.shared == a.compiles
        assert b.superblocks_fused == a.superblocks_fused >= 1
        assert b._blocks[0x1008].sb.thunks is a._blocks[0x1008].sb.thunks

    def test_different_bytes_at_one_entry_are_separate_variants(self):
        translations = TranslationCache()
        other = list(LOOP)
        other[2] = Instruction(Op.CMPI, regs=(1,), imm=7)
        for code in (_encode(LOOP), _encode(other), _encode(LOOP)):
            vm = _vm(code, translations)
            assert _outcome(vm) == _outcome(_vm(code, engine="interp"))
        assert vm._block_cache.compiles == 0  # the third run bound all

    def test_no_bind_onto_unreadable_region(self):
        translations = TranslationCache()
        code = _encode(LOOP)
        _outcome(_vm(code, translations))
        unreadable = PROT_WRITE | PROT_EXEC
        vm = _vm(code, translations, prot=unreadable)
        outcome = _outcome(vm)
        assert outcome[0] == "fault" and "protection (read)" in outcome[1]
        assert outcome == _outcome(_vm(code, prot=unreadable, engine="interp"))
        assert vm._block_cache.shared == 0

    def test_no_bind_onto_non_executable_region_under_nx(self):
        translations = TranslationCache()
        code = _encode(LOOP)
        _outcome(_vm(code, translations, nx=True))
        vm = _vm(code, translations, prot=PROT_READ, nx=True)
        outcome = _outcome(vm)
        assert outcome[0] == "fault" and "NX violation" in outcome[1]
        assert outcome == _outcome(
            _vm(code, prot=PROT_READ, nx=True, engine="interp"))
        assert vm._block_cache.shared == 0


class TestIsolation:
    # With a second argument the process makes its text writable and
    # rewrites `target` to load 66 before running it.
    PATCHER = """
    cmpi r1, 2
    bne run
    li r1, target
    li r2, 4096
    li r3, 7
    call sys_mprotect
    li r9, target
    li r2, {low}
    st r2, [r9+0]
    li r2, {high}
    st r2, [r9+4]
run:
    li r10, 0
warm:
    call target
    addi r10, r10, 1
    cmpi r10, 300
    blt warm
    call sys_exit
target:
    li r1, 5
    ret
"""

    @pytest.mark.parametrize("engine", ["interp", "threaded"])
    def test_patching_process_leaves_others_original_code(self, engine):
        low, high = _patch_words(66)
        body = self.PATCHER.format(low=low, high=high)
        kernel = Kernel(engine=engine)
        statuses = [
            run_guest(kernel, body, ["mprotect"], argv=argv).exit_status
            for argv in (["p"], ["p", "patch"], ["p"], ["p", "patch"])
        ]
        assert statuses == [5, 66, 5, 66]
        if engine == "threaded":
            assert kernel.metrics.get("engine.blocks_shared") > 0

    # Parent and child both run `target` hot, so both hold bound,
    # chained translations of it; then the child rewrites it.
    FORKED = """
    call sys_fork
    mov r12, r0
    li r10, 0
warm:
    call target
    addi r10, r10, 1
    cmpi r10, 600
    blt warm
    cmpi r12, 0
    bne parent
    li r1, target
    li r2, 4096
    li r3, 7
    call sys_mprotect
    li r9, target
    li r2, {low}
    st r2, [r9+0]
    li r2, {high}
    st r2, [r9+4]
    call target
    call sys_exit
parent:
    li r1, 0xFFFFFFFF
    li r2, 0
    li r3, 0
    li r4, 0
    call sys_wait4
    call target
    call sys_exit
target:
    li r1, 5
    ret
"""

    @pytest.mark.parametrize("timeslice", [97, 2000])
    def test_forked_child_smc_never_reaches_parent(self, timeslice):
        low, high = _patch_words(66)
        body = self.FORKED.format(low=low, high=high)
        outcomes = {}
        for engine in ("interp", "threaded"):
            multi = run_sched_guest(
                Kernel(engine=engine), body, ["fork", "mprotect", "wait4"],
                timeslice=timeslice,
            )
            tasks = sorted(multi.scheduler.tasks.values(), key=lambda t: t.pid)
            outcomes[engine] = [
                (t.exit_status, t.killed, t.vm.cycles, t.vm.instructions_executed)
                for t in tasks
            ]
        assert [o[0] for o in outcomes["interp"]] == [5, 66]
        assert outcomes["threaded"] == outcomes["interp"]


class TestCapacity:
    def test_flush_keeps_results_and_bound(self, monkeypatch):
        # Each program holds 8 instructions of blocks plus a fused
        # superblock pass of 126, so every second program flushes.
        monkeypatch.setattr(TranslationCache, "CAPACITY", 200)
        translations = TranslationCache()
        codes = []
        for limit in range(300, 700, 50):
            code = list(LOOP)
            code[2] = Instruction(Op.CMPI, regs=(1,), imm=limit)
            codes.append(_encode(code))
        for code in codes + codes:
            vm = _vm(code, translations)
            assert _outcome(vm) == _outcome(_vm(code, engine="interp"))
            assert vm._block_cache.superblocks_fused >= 1
            assert len(translations) <= 200

    def test_rewritten_entry_keeps_few_variants(self):
        # Every pass rewrites the immediate of the block at 0x1030, so
        # each pass publishes one more variant for that entry PC.
        code = _encode([
            Instruction(Op.LI, regs=(5,), imm=0),
            Instruction(Op.LI, regs=(3,), imm=0x1030),
            Instruction(Op.ADDI, regs=(5, 5), imm=1),     # 0x1010: loop
            Instruction(Op.ST, regs=(5, 3), imm=4),
            Instruction(Op.JMP, imm=0x1030),
            Instruction(Op.HALT),
            Instruction(Op.LI, regs=(1,), imm=0),         # 0x1030
            Instruction(Op.ADD, regs=(6, 6, 1)),
            Instruction(Op.CMPI, regs=(5,), imm=200),
            Instruction(Op.BLT, imm=0x1010),
            Instruction(Op.HALT),
        ])
        translations = TranslationCache()
        vm = _vm(code, translations)
        assert _outcome(vm) == _outcome(_vm(code, engine="interp"))
        assert vm.regs[6] == sum(range(1, 201))
        assert 1 < len(translations._variants[0x1030]) <= TranslationCache.MAX_VARIANTS
