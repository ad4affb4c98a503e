"""Direct block chaining and superblock fusion: invalidation and
determinism.

Chained dispatch skips the per-block guard re-check, so its soundness
rests entirely on *eager pre-image invalidation*: every write that
overlaps cached code must drop the stale translations — severing every
inbound chain link — **before** the bytes change.  These tests pin
that contract down from the white-box side (counters, cache
structure, invalidation ordering) and from the black-box side
(bit-identity against the interpreter through SMC, preemption, and
shared-region writes).
"""

import hashlib

import pytest

from repro.asm import assemble
from repro.binfmt import link
from repro.cpu import ExecutionFault, Memory, PROT_EXEC, PROT_READ, PROT_WRITE, VM
from repro.isa import Instruction, encode_instruction
from repro.isa.opcodes import OPCODE_INFO, Op
from repro.cpu import threaded
from repro.cpu.threaded import BlockCache, TranslationCache, _TEMPLATES


def _encode(instructions) -> bytes:
    return b"".join(encode_instruction(i) for i in instructions)


def _memory_digest(vm: VM) -> str:
    digest = hashlib.sha256()
    for region in vm.memory.regions():
        digest.update(region.name.encode())
        digest.update(bytes(region.data))
        digest.update(region.version.to_bytes(8, "little"))
    return digest.hexdigest()


def _state(vm: VM, fault=None) -> dict:
    return {
        "regs": tuple(vm.regs),
        "pc": vm.pc,
        "flags": (vm.flag_zero, vm.flag_neg),
        "cycles": vm.cycles,
        "instructions": vm.instructions_executed,
        "memory": _memory_digest(vm),
        "fault": str(fault) if fault is not None else None,
    }


def _source_vm(source: str, engine: str = "threaded") -> VM:
    image = link(assemble(source))
    memory = Memory()
    for segment in image.segments:
        prot = PROT_READ
        if segment.flags & 0x2:
            prot |= PROT_WRITE
        if segment.flags & 0x4:
            prot |= PROT_EXEC
        memory.map_region(
            segment.vaddr, max(segment.size, 16), prot,
            name=segment.name, data=segment.data,
        )
    return VM(memory=memory, entry=image.entry, engine=engine)


def _raw_vm(code: bytes, engine: str = "threaded",
            scratch: tuple = (0x8000, 4096)) -> VM:
    memory = Memory()
    memory.map_region(
        0x1000, max(len(code) + 64, 4096),
        PROT_READ | PROT_WRITE | PROT_EXEC, data=code, name="rwx",
    )
    if scratch is not None:
        memory.map_region(scratch[0], scratch[1],
                          PROT_READ | PROT_WRITE, name="scratch")
    return VM(memory=memory, entry=0x1000, engine=engine)


HOT_LOOP = """
.section .text
_start:
    li r1, 0
    li r2, 0
loop:
    add r2, r2, r1
    addi r1, r1, 1
    cmpi r1, 2000
    blt loop
    halt
"""


class TestPreImageInvalidation:
    """Satellite: note_write must fire while the OLD bytes are still
    in place — the pre-image ordering is what lets chained dispatch
    skip guard checks soundly."""

    def test_note_write_sees_pre_image_on_canonical_write(self):
        vm = _source_vm(HOT_LOOP)
        vm.run()
        cache = vm._block_cache
        assert cache.compiles > 0
        text = vm.memory.find_region(".text")
        original = bytes(text.data[:8])

        seen = []
        inner = cache.note_write

        def spy(address, size):
            # Capture what the memory holds at the moment the cache is
            # told about the write: must still be the pre-image.
            seen.append(bytes(vm.memory.read(address, size, force=True)))
            inner(address, size)

        cache.note_write = spy
        # Region.watchers hold bound references; re-register the spy
        # over the compiled region so the canonical write routes to it.
        text.watchers = [spy]
        before = cache.invalidations
        vm.memory.write(text.start, b"\xff" * 8, force=True)
        assert seen == [original]
        assert cache.invalidations > before

    def test_fast_path_store_invalidates_before_mutation(self):
        # The guest patches its own next instruction through the
        # engine's fast-path ST.  If invalidation ran post-write the
        # stale block would replay the old immediate; the architectural
        # result (r1 == 77) proves the pre-image drop happened in time.
        patched = encode_instruction(Instruction(Op.LI, regs=(1,), imm=77))
        low = int.from_bytes(patched[:4], "little")
        high = int.from_bytes(patched[4:], "little")
        code = _encode([
            Instruction(Op.LI, regs=(1,), imm=13),
            Instruction(Op.CMPI, regs=(9,), imm=0),
            Instruction(Op.BNE, imm=0x1050),
            Instruction(Op.LI, regs=(9,), imm=1),
            Instruction(Op.LI, regs=(2,), imm=low),
            Instruction(Op.LI, regs=(3,), imm=0x1000),
            Instruction(Op.ST, regs=(2, 3), imm=0),
            Instruction(Op.LI, regs=(2,), imm=high),
            Instruction(Op.ST, regs=(2, 3), imm=4),
            Instruction(Op.JMP, imm=0x1000),
            Instruction(Op.HALT),
        ])
        vm = _raw_vm(code)
        vm.run()
        assert vm.regs[1] == 77
        assert vm._block_cache.invalidations >= 1

    def test_multi_page_write_invalidates_interior_pages(self):
        # Blocks on three consecutive pages, then one write spanning
        # all of them: the regression was invalidating only the first
        # and last page of the written range, leaving the middle
        # page's (now stale) block chained and reachable.
        jmp_to = lambda target: Instruction(Op.JMP, imm=target)  # noqa: E731
        memory = Memory()
        memory.map_region(0x10000, 0x4000,
                          PROT_READ | PROT_WRITE | PROT_EXEC, name="rwx")
        for page_start, target in ((0x10000, 0x11000), (0x11000, 0x12000)):
            memory.write(page_start, _encode([jmp_to(target)]), force=True)
        memory.write(0x12000, _encode([Instruction(Op.HALT)]), force=True)
        vm = VM(memory=memory, entry=0x10000, engine="threaded")
        vm.run()
        cache = vm._block_cache
        assert len(cache._blocks) == 3
        cache.note_write(0x10000, 0x2008)  # spans pages 0x10,0x11,0x12
        assert not cache._blocks, "interior-page block survived the write"


class TestChainInvalidation:
    def test_smc_patches_chained_successor(self):
        # A and B chain (A ends in JMP B); after 300 round trips A
        # patches B's LI immediate.  The chained A->B hop skips B's
        # guards, so only the severed link can keep the result right.
        patched = encode_instruction(Instruction(Op.LI, regs=(5,), imm=90))
        low = int.from_bytes(patched[:4], "little")
        high = int.from_bytes(patched[4:], "little")
        source = f"""
.section .text
_start:
    li r1, 0
    li r6, 0
a:
    addi r1, r1, 1
    cmpi r1, 300
    bne skip_patch
    li r2, {low}
    li r3, blockb
    st r2, [r3+0]
    li r2, {high}
    st r2, [r3+4]
skip_patch:
    jmp blockb
blockb:
    li r5, 7
    add r6, r6, r5
    cmpi r1, 600
    blt a
    halt
"""
        states = {}
        for label, engine in (("interp", "interp"), ("chained", "threaded")):
            image = link(assemble(source))
            memory = Memory()
            for segment in image.segments:
                prot = PROT_READ | PROT_WRITE
                if segment.flags & 0x4:
                    prot |= PROT_EXEC
                memory.map_region(
                    segment.vaddr, max(segment.size, 16), prot,
                    name=segment.name, data=segment.data,
                )
            vm = VM(memory=memory, entry=image.entry, engine=engine)
            vm.run()
            states[label] = _state(vm)
        assert states["chained"] == states["interp"]
        # 299 iterations at 7, 301 at 90 after the patch.
        assert states["interp"]["regs"][6] == 299 * 7 + 301 * 90

    def test_shared_region_write_invalidates_both_caches(self):
        # Fork's copy-on-reference sharing: two VMs adopt the same
        # text Region and both compile/chain from it.  A canonical
        # write through either address space must drop *both* caches'
        # translations (the Region carries both watchers) — this is
        # what keeps post-fork invalidation per-pid coherent.
        code = _encode([
            Instruction(Op.LI, regs=(1, ), imm=5),
            Instruction(Op.HALT),
        ])
        memory_a = Memory()
        shared = memory_a.map_region(
            0x1000, 4096, PROT_READ | PROT_WRITE | PROT_EXEC,
            data=code, name="text",
        )
        memory_b = Memory()
        memory_b.adopt_region(shared)
        vm_a = VM(memory=memory_a, entry=0x1000, engine="threaded")
        vm_b = VM(memory=memory_b, entry=0x1000, engine="threaded")
        vm_a.run()
        vm_b.run()
        cache_a, cache_b = vm_a._block_cache, vm_b._block_cache
        assert cache_a._blocks and cache_b._blocks
        assert len(shared.watchers) == 2
        memory_b.write(0x1000, b"\x00" * 8, force=True)
        assert not cache_a._blocks, "writer's sibling kept a stale block"
        assert not cache_b._blocks
        assert cache_a.invalidations >= 1 and cache_b.invalidations >= 1

    def test_counters_exposed(self):
        vm = _source_vm(HOT_LOOP)
        vm.run()
        cache = vm._block_cache
        assert cache.chains_linked > 0
        assert cache.superblocks_fused >= 1


class TestSuperblocks:
    def test_hot_cycle_fuses_and_matches_interp(self):
        vms = {}
        for label, engine in (("interp", "interp"), ("chained", "threaded")):
            vm = _source_vm(HOT_LOOP, engine=engine)
            vm.run()
            vms[label] = vm
        assert _state(vms["chained"]) == _state(vms["interp"])
        assert vms["chained"]._block_cache.superblocks_fused >= 1

    def test_smc_abort_inside_superblock_unwinds_exactly(self):
        # The loop body copies each word back onto itself, sweeping an
        # address cursor upward from the scratch region into the loop's
        # own code.  The rewrite is byte-identical — semantics never
        # change — but the engine cannot know that: once the cursor
        # enters the fused cycle's span (well after the 256-execution
        # fusion threshold), the store must abort the superblock pass,
        # roll the batched accounting back, and re-translate.  Exact
        # cycle/instruction equality with the interpreter proves the
        # unwind is lossless.
        code = _encode([
            Instruction(Op.LI, regs=(1,), imm=0),        # 0x1000  i
            Instruction(Op.LI, regs=(3,), imm=0x800),    # 0x1008  cursor
            Instruction(Op.LD, regs=(2, 3), imm=0),      # 0x1010  loop:
            Instruction(Op.ST, regs=(2, 3), imm=0),      # 0x1018
            Instruction(Op.ADDI, regs=(3, 3), imm=8),    # 0x1020
            Instruction(Op.ADDI, regs=(1, 1), imm=1),    # 0x1028
            Instruction(Op.CMPI, regs=(1,), imm=400),    # 0x1030
            Instruction(Op.BLT, imm=0x1010),             # 0x1038
            Instruction(Op.HALT),                        # 0x1040
        ])
        states = {}
        for label, engine in (("interp", "interp"), ("chained", "threaded")):
            vm = _raw_vm(code, engine=engine, scratch=(0x800, 0x800))
            fault = None
            try:
                vm.run()
            except ExecutionFault as err:  # pragma: no cover - must not
                fault = err
            states[label] = _state(vm, fault)
            if engine == "threaded":
                cache = vm._block_cache
                assert cache.superblocks_fused >= 1
                assert cache.invalidations >= 1
        assert states["chained"] == states["interp"]

    def test_dead_superblock_not_reentered_after_kill(self):
        vm = _source_vm(HOT_LOOP)
        vm.run()
        cache = vm._block_cache
        assert cache.superblocks_fused >= 1
        # Invalidate everything: every superblock must be killed and
        # detached from its head so a fresh lookup recompiles cleanly.
        text = vm.memory.find_region(".text")
        cache.note_write(text.start, len(text.data))
        assert not cache._blocks
        assert cache.superblocks_killed == cache.superblocks_fused

    def test_cycle_compiles_once_whichever_member_gets_hot(self, monkeypatch):
        # One process enters a two-block loop at its top, another at
        # its bottom, so a different member reaches the heat threshold
        # first in each.  The second process heads its superblock with
        # the member the first one's function starts at, and binds it.
        compiled = []
        compile_superblock = threaded._compile_superblock

        def spy(path):
            compiled.append(tuple(t.entry for t in path))
            return compile_superblock(path)

        monkeypatch.setattr(threaded, "_compile_superblock", spy)
        translations = TranslationCache()
        for entry in ("top", "bottom"):
            vm = _guest(f"""
    li r1, 0
    jmp {entry}
top:
    addi r1, r1, 1
    cmpi r1, 3000
    bge out
bottom:
    addi r2, r2, 1
    jmp top
out:
    halt
""", "threaded")
            vm._block_cache = BlockCache(vm, translations)
            vm.run()
            assert vm._block_cache.superblocks_fused == 1
        assert len(compiled) == 1
        top, bottom = compiled[0]
        assert top < bottom


# -- the opcode table, rendered both ways ----------------------------------

RW = PROT_READ | PROT_WRITE


def _guest(source: str, engine: str, regions=(), trap_handler=None) -> VM:
    """``source`` linked at the default base with every segment mapped
    read/write/execute (so it may patch itself), plus ``regions`` of
    ``(start, size, prot)``."""
    image = link(assemble(".section .text\n_start:\n" + source))
    memory = Memory()
    for segment in image.segments:
        memory.map_region(
            segment.vaddr, max(segment.size, 16),
            PROT_READ | PROT_WRITE | PROT_EXEC,
            name=segment.name, data=segment.data,
        )
    for index, (start, size, prot) in enumerate(regions):
        memory.map_region(start, size, prot, name=f"data{index}")
    return VM(memory=memory, entry=image.entry, engine=engine,
              trap_handler=trap_handler)


def _fused_ops(cache) -> set:
    """Opcodes inside the process's live superblocks."""
    return {
        op
        for block in cache._blocks.values() if block.sb is not None
        for member in block.sb.blocks
        for _, op, _, _ in member.translation.code
    }


def _differential(tier: str, source: str, regions=(), fault: bool = False,
                  fuse=None, trap_handler=None):
    """Run ``source`` under the interpreter and the threaded engine and
    assert bit-identical final state, and that the threaded run used
    the ``tier`` it names: no superblock when cold, at least one when
    hot.  ``fuse(vm)`` names the PC of a one-block self-loop to fuse
    before a hot run starts.  Returns the threaded VM's block cache."""
    states = {}
    cache = None
    for engine in ("interp", "threaded"):
        vm = _guest(source, engine, regions, trap_handler)
        if engine == "threaded" and fuse is not None:
            cache = vm._block_cache = BlockCache(vm)
            head = cache.lookup(fuse(vm))
            head.s1 = head
            cache._fuse([head])
        error = None
        try:
            vm.run(max_instructions=2_000_000)
        except ExecutionFault as err:
            error = err
        assert (error is not None) == fault, error
        states[engine] = _state(vm, error)
        cache = vm._block_cache if engine == "threaded" else cache
    assert states["threaded"] == states["interp"]
    if tier == "cold":
        assert cache.superblocks_fused == 0
    else:
        assert cache.superblocks_fused >= 1
    return cache


#: Passes a cold run makes before its case's event; with the passes
#: after it, every block runs fewer times than the 256 executions that
#: make a cycle hot.
COLD_LEAD = 120
COLD_PASSES = 200


def _both_tiers(source, end: int, event=None, regions=(),
                fault: bool = False, trap_handler=None) -> dict:
    """Run one case under both renderings of the opcode table.

    ``source(start, end)`` is a loop whose pass counter ``r1`` runs
    from ``start`` to ``end``, with any other loop state (cursors,
    stack pointers) set up as ``start`` passes would leave it; its
    ``event`` (a fault, an off-cycle exit, a code patch) happens when
    the counter reaches that value.  The hot run starts at 0, far
    enough ahead of the event that the loop runs as a superblock by
    then; the cold run covers a short window round the event, so its
    blocks stay cold closures.  Returns the threaded block cache per
    tier."""
    if event is None:
        cold = (end - COLD_PASSES, end)
    else:
        cold = (event - COLD_LEAD, min(end, event - COLD_LEAD + COLD_PASSES))
    return {
        tier: _differential(tier, source(start, stop), regions, fault,
                            trap_handler=trap_handler)
        for tier, (start, stop) in (("cold", cold), ("hot", (0, end)))
    }


#: Every opcode a fusable block can hold besides its terminator.
STRAIGHT_LINE = {
    op for op in Op
    if not (OPCODE_INFO[op].is_branch or OPCODE_INFO[op].is_trap
            or op is Op.HALT)
}

EVERY_OPCODE = """
    li r1, {start}
    li r8, 0x10000
    li r15, 0x10800
loop:
    addi r1, r1, 1
    li r2, 0x9E3779B9
    mov r3, r1
    mul r3, r3, r2
    add r4, r4, r3
    sub r5, r4, r1
    divi r6, r3, 7
    div r7, r3, r1
    mod r9, r3, r1
    and r10, r3, r5
    or r11, r10, r6
    xor r12, r11, r7
    andi r13, r1, 31
    shl r14, r3, r13
    shr r2, r3, r13
    xor r12, r12, r14
    xor r12, r12, r2
    subi r2, r9, 3
    muli r2, r2, 13
    ori r2, r2, 0x100
    xori r2, r2, 0xFF
    shli r14, r2, 3
    shri r14, r14, 1
    add r12, r12, r14
    st r12, [r8+0]
    stb r1, [r8+5]
    ld r13, [r8+4]
    ldb r14, [r8+0]
    add r12, r12, r13
    add r12, r12, r14
    push r12
    push r1
    pop r13
    pop r14
    push r15
    pop r2
    add r12, r12, r2
    cmp r13, r14
    nop
    cpuwork 3
    rdtsc r13
    rdtsch r14
    add r12, r12, r13
    add r12, r12, r14
    cmpi r1, {end}
    blt loop
    halt
"""


class _ShrinkRegion:
    """A kernel whose every trap shrinks the first data region to 16
    bytes in place, as ``brk`` does to the heap."""

    def handle_trap(self, vm, authenticated):
        vm.memory.grow_region("data0", 16)
        return 0


class TestGeneratedSuperblocks:
    """The opcode table against the interpreter in both renderings:
    every opcode, every exit (fault, off-cycle branch, SMC abort, pass
    end) and data-TLB refills, each case run as cold closures (below
    the 256-execution fusion threshold) and as a superblock (well past
    it, or fused up front where the guest cannot get there)."""

    def test_template_table_covers_every_opcode(self):
        assert set(_TEMPLATES) == set(Op)

    def test_every_straight_line_opcode(self):
        caches = _both_tiers(
            lambda start, end: EVERY_OPCODE.format(start=start, end=end),
            1000, regions=[(0x10000, 4096, RW)],
        )
        assert STRAIGHT_LINE <= _fused_ops(caches["hot"])

    @pytest.mark.parametrize("op", ["div", "mod"])
    def test_division_by_zero_mid_pass(self, op):
        _both_tiers(lambda start, end: f"""
    li r1, {start}
    li r4, 1000
loop:
    addi r1, r1, 1
    subi r2, r1, 700
    {op} r3, r4, r2
    add r5, r5, r3
    cmpi r1, {end}
    blt loop
    halt
""", 1000, event=700, fault=True)

    def test_divi_by_zero_in_generated_code(self):
        # A DIVI by zero faults on its first execution, so no guest
        # loop can fuse one; the hot run fuses the self-loop before it
        # first runs.
        source = """
    li r1, 9
    jmp loop
loop:
    addi r1, r1, 1
    divi r2, r1, 0
    jmp loop
"""
        _differential("cold", source, fault=True)
        _differential("hot", source, fault=True, fuse=lambda vm: vm.pc + 16)

    @pytest.mark.parametrize("access", [
        "ld r4, [r8+0]", "ldb r4, [r8+2]", "st r1, [r8+0]", "stb r1, [r8+3]",
    ])
    def test_unmapped_access_mid_pass(self, access):
        # The cursor walks off the end of its region on pass 1025.
        _both_tiers(lambda start, end: f"""
    li r1, {start}
    li r8, {0x10000 + 4 * start}
loop:
    addi r1, r1, 1
    {access}
    addi r8, r8, 4
    add r5, r5, r4
    cmpi r1, {end}
    blt loop
    halt
""", 5000, event=1025, regions=[(0x10000, 4096, RW)], fault=True)

    def test_store_into_read_only_region_mid_pass(self):
        _both_tiers(lambda start, end: f"""
    li r1, {start}
    li r8, {0x10000 + 4 * start}
loop:
    addi r1, r1, 1
    st r1, [r8+0]
    addi r8, r8, 4
    cmpi r1, {end}
    blt loop
    halt
""", 5000, event=1025,
            regions=[(0x10000, 4096, RW), (0x11000, 4096, PROT_READ)],
            fault=True)

    def test_push_stack_overflow(self):
        _both_tiers(lambda start, end: f"""
    li r1, {start}
    li r15, {0x11000 - 4 * start}
loop:
    addi r1, r1, 1
    push r1
    add r5, r5, r1
    cmpi r1, {end}
    blt loop
    halt
""", 5000, event=1025, regions=[(0x10000, 4096, RW)], fault=True)

    def test_pop_stack_underflow(self):
        _both_tiers(lambda start, end: f"""
    li r1, {start}
    li r15, {0x10000 + 4 * start}
loop:
    addi r1, r1, 1
    pop r4
    add r5, r5, r4
    cmpi r1, {end}
    blt loop
    halt
""", 5000, event=1025, regions=[(0x10000, 4096, RW)], fault=True)

    def test_rdtsc_mid_pass_past_32_bits(self):
        # 3 * 10^7 cycles a pass: the high word moves within 200 passes.
        _both_tiers(lambda start, end: f"""
    li r1, {start}
loop:
    addi r1, r1, 1
    rdtsc r4
    rdtsch r6
    cpuwork 30000000
    add r5, r5, r4
    add r7, r7, r6
    cmpi r1, {end}
    blt loop
    halt
""", 1000)

    def test_data_tlb_switches_regions(self):
        # Every pass touches three regions, and the walking cursor
        # crosses from one region into the next on pass 1025.
        _both_tiers(lambda start, end: f"""
    li r1, {start}
    li r8, {0x10000 + 4 * start}
    li r9, 0x20000
loop:
    addi r1, r1, 1
    st r1, [r8+0]
    ld r4, [r9+0]
    add r4, r4, r1
    st r4, [r9+0]
    ldb r6, [r8+0]
    ld r7, [r8+0]
    add r5, r5, r6
    add r5, r5, r7
    addi r8, r8, 4
    cmpi r1, {end}
    blt loop
    halt
""", 2000, event=1025,
            regions=[(0x10000, 4096, RW), (0x11000, 4096, RW), (0x20000, 64, RW)])

    def test_data_tlb_does_not_outlive_a_trap(self):
        # The loop leaves its region in the data TLB; the trap then
        # shrinks the region in place, so the next pass's load faults.
        _both_tiers(lambda start, end: f"""
    li r1, {start}
    li r8, 0x20000
loop:
    ld r2, [r8+256]
    addi r1, r1, 1
    cmpi r1, {end}
    blt loop
    sys
    jmp loop
""", 1000, regions=[(0x20000, 4096, RW)], fault=True,
            trap_handler=_ShrinkRegion())

    @pytest.mark.parametrize("branch, compare, taken_stays", [
        ("beq", "cmpi r3, 0", True),
        ("bne", "cmpi r1, 600", True),
        ("blt", "cmpi r1, 600", True),
        ("bge", "cmpi r6, 1", True),
        ("ble", "cmpi r1, 599", True),
        ("bgt", "cmp r6, r0", True),
        ("beq", "cmpi r1, 600", False),
        ("bne", "cmpi r3, 0", False),
        ("blt", "cmpi r6, 1", False),
        ("ble", "cmp r6, r0", False),
        ("bge", "cmpi r1, 600", False),
        ("bgt", "cmpi r1, 599", False),
    ])
    def test_off_cycle_exit(self, branch, compare, taken_stays):
        # A two-block cycle whose head's branch stays in the cycle up
        # to pass 599 and leaves it mid-pass on pass 600.
        # r3 = r1 / 600 and r6 = 600 - r1 give the compares something
        # to flip on.
        def source(start, end):
            head = f"""
    li r1, {start}
    jmp loop
loop:
    addi r1, r1, 1
    divi r3, r1, 600
    li r6, 600
    sub r6, r6, r1
    {compare}
"""
            tail = """
    addi r2, r2, 3
    jmp loop
"""
            if taken_stays:
                return head + f"    {branch} stay\n    halt\nstay:" + tail
            return head + f"    {branch} out\n" + tail + "out:\n    halt\n"

        caches = _both_tiers(source, 600, event=600)
        assert OPCODE_INFO[Op[branch.upper()]].is_conditional
        assert Op[branch.upper()] in _fused_ops(caches["hot"])

    @pytest.mark.parametrize("store", ["st", "stb"])
    def test_smc_store_into_the_span(self, store):
        # Every pass stores 5 through r9, which points into a data
        # region up to pass 399 and then at the immediate of the loop's
        # own `addi r2, r2, 3`: the store lands mid-block (or mid-pass)
        # in the running code, and the rest of the run adds 5, not 3.
        caches = _both_tiers(lambda start, end: f"""
    li r1, {start}
    li r11, 0x10000
    li r12, bump
    addi r12, r12, 4
    sub r12, r12, r11
    jmp loop
loop:
    addi r1, r1, 1
    divi r3, r1, 400
    mul r9, r3, r12
    add r9, r9, r11
    li r10, 5
    {store} r10, [r9+0]
bump:
    addi r2, r2, 3
    cmpi r1, {end}
    blt loop
    halt
""", 799, event=400, regions=[(0x10000, 4096, RW)])
        assert all(cache.invalidations >= 1 for cache in caches.values())


class TestPreemptionOnChainBoundaries:
    def _sliced_states(self, engine: str, slice_len: int):
        vm = _source_vm(HOT_LOOP, engine=engine)
        snapshots = []
        for _ in range(100_000):
            vm.run_slice(slice_len)
            snapshots.append((vm.pc, vm.cycles, vm.instructions_executed,
                              tuple(vm.regs)))
            if vm.exit_status is not None:
                break
        assert vm.exit_status is not None
        return snapshots

    def test_slice_boundaries_identical_across_engines(self):
        # Every preemption point — including ones that land exactly on
        # a chain hop or inside what would be a fused superblock pass —
        # must leave the same architectural state as the interpreter
        # preempted at the same instruction count.
        for slice_len in (1, 3, 7, 64, 257, 1000):
            interp = self._sliced_states("interp", slice_len)
            chained = self._sliced_states("threaded", slice_len)
            assert chained == interp, f"slice={slice_len}"
