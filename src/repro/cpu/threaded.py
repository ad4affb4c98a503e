"""Threaded-code execution engine: a basic-block translation cache.

One table, ``_TEMPLATES``, states what every opcode does: a few lines
of Python source per opcode over named fields (its register operands,
immediate, PCs, the flags, and the corrections an exit applies).  The
engine renders that table two ways, so the two execution tiers below
cannot drift apart:

- **Cold blocks: closures.**  At import, one ``exec`` turns each entry
  into a closure factory.  On first entry to a block the engine decodes
  the straight-line run of instructions up to the next control
  transfer, trap, or ``HALT`` and compiles it into a
  :class:`Translation`: a tuple of thunks, one factory call per
  instruction with register indices, immediates, PCs and cycle
  corrections bound as closure variables.  Nothing is compiled per
  block.  A thunk is called as ``thunk(vm, regs)`` and reaches every
  piece of per-process state through those two arguments (the data
  TLB and the code page index are attributes of the VM), so a
  translation is a pure function of its entry PC and the code bytes it
  decoded.  Later executions of the block pay one dictionary probe,
  one guard comparison, and one batched cycle/instruction update
  instead of per-instruction fetch, decode, and dispatch.
- **Hot cycles: generated functions.**  A hot cycle of blocks is
  fused into a superblock whose whole pass is one function generated
  from the same templates (see below).  ``compile()`` of one block's
  source costs about 0.2 ms, some five times what translating the
  block into closures costs, so only cycles that proved hot pay it.

**Shared translations.**  Translations live in one bounded,
content-addressed :class:`TranslationCache` per kernel; each process's
:class:`BlockCache` holds cheap :class:`Block` nodes over them (guards,
chain links, heat, superblock membership).  On a per-process miss the
cache *binds* a published translation for the same entry PC when the
process's own bytes there are equal and its region is readable (and
executable under NX) — exactly the conditions under which translating
afresh would reproduce it — and otherwise translates and publishes.
Blocks truncated by a deferred fault or spanning two regions depend on
more than their bytes and stay private.  Generated superblock functions
are memoized the same way, keyed by the tuple of their member
translations.

On top of the translation cache sit two dispatch-elimination layers,
both always on:

- **Direct block chaining.**  A block whose terminator has a static
  successor (fall-through, direct branch, ``CALL``, or the return path
  of a trap) records the successor PC(s) at compile time; the first
  execution that takes such an exit links the successor block into the
  predecessor (two-way for conditional branches), and later
  executions invoke the successor directly, skipping the dispatch
  loop's dict probe and guard re-check.  Chained entry is only taken
  when the remaining instruction budget covers the successor, so
  scheduler preemption points are bit-identical with the interpreter.
- **Generated superblocks.**  When a chain closes a hot cycle (a
  block's execution count crosses a multiple of ``_HOT_MASK + 1``),
  the member blocks are fused: one merged version-guard vector,
  checked once at entry, and one Python function generated from
  ``_TEMPLATES`` and ``exec``'d once per cycle (a cycle entered at
  another member reuses the rotation already compiled).  Only integers — register indices, immediates, PCs, cycle
  corrections — are formatted into the text, never guest bytes.  The
  function ``run(vm, regs, budget)`` loops over passes of one trip
  round the cycle (no unrolling, which keeps compile time near a
  millisecond a superblock).  Registers and flags are locals, loaded
  at entry and written back at every exit; cycles and instructions
  are added once per pass; intra-cycle ``JMP``s vanish, and loads and
  stores run the data-TLB fast path inline.  Each exit — pass end,
  off-cycle branch, fault, self-modifying store — rolls the pass's
  accounting back by pre-computed corrections, so every observable
  value (``RDTSC``, fault PCs and messages, preemption points)
  matches the interpreter.  Compile time is charged to the
  ``block-chain`` span.

The invalidation invariant that makes chaining sound: **a chained or
fused entry never re-validates its target's guards, so any write that
could stale a translation must eagerly drop it** (dropping severs the
inbound links via the block's ``preds`` list and kills any superblock
it belongs to).  Invalidation is per process: dropping a block never
touches the shared translation, which stays correct for its bytes.
Three mechanisms cooperate:

- Engine fast-path stores call :meth:`BlockCache.note_write` *before*
  the bytes land (pre-image invalidation), then perform the store,
  then abort the running block/superblock if its own span was hit.
- Canonical stores (``Memory.write`` — guest slow path, kernel
  syscalls writing guest buffers, ``brk`` growth, ``mprotect``) notify
  pre-mutation watchers that each cache registers on every region it
  runs code from; fork-shared regions carry both processes' watchers,
  so a forced write invalidates parent and child coherently.  A cache
  unregisters its watchers when its VM is released.
- ``lookup`` still re-validates write-version guards, which covers
  uncached entry paths exactly as before.

Bit-identity with the reference interpreter is the contract, not a
goal: registers, flags, memory, cycle counts (including the values
``RDTSC`` observes mid-block and the kernel observes at trap time),
instruction counts, fault PCs and messages, and fail-stop reasons must
all be indistinguishable.  The pieces that make that work:

- **Batched accounting with per-instruction corrections.**  A
  block's (or superblock pass's) total cycles and instruction count
  are added on entry.  Instructions that can observe or abort
  mid-block (``RDTSC``, faults, self-modifying stores, off-cycle
  branch exits) carry pre-computed corrections (``total - prefix[i]``)
  so the architectural counters are exact at every observation point.
- **Traps end blocks.**  ``SYS``/``ASYS`` only ever appear as a block
  terminator, so ``vm.cycles`` is exact when the kernel's
  :class:`~repro.cpu.vm.TrapHandler` runs, ``vm.pc`` names the call
  site (the authenticated-call checker and audit log depend on it),
  and :class:`~repro.cpu.vm.ProcessExit` propagates with the same
  state the interpreter would leave.  Traps are never fused into
  superblocks.
- **Write-version guards.**  Each block records the
  :class:`~repro.cpu.memory.Region` objects its code spans and their
  ``version`` counters when it was compiled or bound; a block whose
  guard fails is dropped and looked up again on next entry.  Stores
  additionally consult a page->blocks index for eager invalidation,
  and a store that clobbers the *remainder of the currently running
  block* (or anywhere in a running superblock's span — conservative,
  but exact after rollback) rolls the batched accounting back and
  aborts to the dispatch loop, so self-modifying code (including the
  §4.1 stack shellcode) re-decodes exactly like the interpreter.
- **Compile faults are deferred.**  If instruction ``k > 0`` of a
  block cannot be fetched or decoded, the block is truncated before it
  with a fall-through terminator; the fault is then raised on the next
  dispatch at exactly the PC, accounting, and message the interpreter
  produces.  Chain-following re-enters ``lookup`` for unlinked exits,
  so deferred faults fire identically under chaining.

Loads and stores go through a one-entry data TLB, ``vm._dtlb``: the
region of the last slow-path access with its start, bytes and readable
and writable lengths.  A hit performs the access directly against the
region bytearray (bumping ``Region.version`` on writes, exactly like
``Memory.write``); any miss — wrong region, out of bounds, protection
— falls back to the canonical :class:`~repro.cpu.memory.Memory` path
so every fault is produced by the same code that produces it under the
interpreter.  Only syscalls change a region's size or protection, so
every trap empties the TLB, as does :meth:`~repro.cpu.vm.VM.protect`.
"""

from __future__ import annotations

import re
from struct import Struct
from typing import TYPE_CHECKING, Optional

from repro.cpu.memory import (
    MemoryFault,
    PAGE_SHIFT,
    PROT_EXEC,
    PROT_READ,
    PROT_WRITE,
    Region,
)
from repro.cpu.vm import _NO_TLB, ExecutionFault
from repro.isa.encoding import INSTRUCTION_SIZE, EncodingError, decode_fields
from repro.isa.opcodes import OPCODE_INFO, Op

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu.vm import VM

_MASK = 0xFFFFFFFF
_CONDITIONAL = frozenset(
    (Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLE, Op.BGT)
)

#: Maximum instructions per block.  Blocks are straight-line, so this
#: only bounds pathological NOP sleds; real blocks end at a branch.
MAX_BLOCK = 64

#: A block becomes a superblock-fusion candidate every time its
#: execution count crosses a multiple of ``_HOT_MASK + 1``.
_HOT_MASK = 0xFF
#: Superblock shape limits: at most this many member blocks / cycle
#: instructions per pass.
_SB_MAX_BLOCKS = 8
_SB_MAX_INSNS = 64
#: A superblock that keeps aborting on stores into its own span (a
#: loop that writes its own code region every pass) is torn down after
#: this many SMC aborts; each abort is exact, just slow.
_SB_SMC_LIMIT = 4


class BlockAbort(Exception):
    """Internal control flow: a store landed in the running block's
    (or superblock's) own code, which must stop early with the
    architectural state already settled by the raiser.  ``consumed``
    is how many instructions completed."""

    def __init__(self, consumed: int):
        self.consumed = consumed


class Translation:
    """One compiled basic block: immutable and process-independent, a
    pure function of ``entry`` and the code bytes ``raw`` at
    ``[entry, end)``."""

    __slots__ = (
        "entry", "end", "raw", "count", "total_cycles", "thunks", "stop",
        "code", "s1_pc", "s2_pc", "fusable", "pages",
    )

    def __init__(
        self, entry, raw, count, total_cycles, thunks, stop, code,
        s1_pc, s2_pc, fusable,
    ):
        self.entry = entry
        self.end = entry + len(raw)
        self.raw = raw
        self.count = count
        self.total_cycles = total_cycles
        self.thunks = thunks
        self.stop = stop
        #: Decoded instruction stream ``(pc, op, reg fields, imm)`` —
        #: kept so superblock fusion can re-specialize without
        #: re-fetching.
        self.code = code
        #: Static successor PCs (-1 when the exit is dynamic).  For a
        #: conditional branch s1 is the taken target and s2 the
        #: fall-through; JMP/CALL use s1 for the target; SYS/ASYS use
        #: s1 for the return path.
        self.s1_pc = s1_pc
        self.s2_pc = s2_pc
        #: Eligible for superblock membership (conditional/JMP
        #: terminator, fully decoded).
        self.fusable = fusable
        self.pages = tuple(
            range(entry >> PAGE_SHIFT, ((self.end - 1) >> PAGE_SHIFT) + 1)
        )


class Block:
    """One process's use of a translation: its write-version guards,
    chain links and heat.  The fields the dispatch loop reads on every
    execution are copied from the translation (one attribute hop)."""

    __slots__ = (
        "translation", "entry", "count", "total_cycles", "thunks", "stop",
        "s1_pc", "s2_pc", "guard_region", "guard_version", "extra_guards",
        "s1", "s2", "preds", "exec_count", "fusable", "sb", "sbs",
    )

    def __init__(self, translation: Translation, guards):
        self.translation = translation
        self.entry = translation.entry
        self.count = translation.count
        self.total_cycles = translation.total_cycles
        self.thunks = translation.thunks
        self.stop = translation.stop
        self.s1_pc = translation.s1_pc
        self.s2_pc = translation.s2_pc
        self.guard_region = guards[0][0]
        self.guard_version = guards[0][1]
        self.extra_guards = guards[1:] or None
        #: Lazily linked successor blocks (direct chaining).
        self.s1: Optional[Block] = None
        self.s2: Optional[Block] = None
        #: Blocks whose s1/s2 point at this block — severed on drop.
        self.preds: list = []
        self.exec_count = 0
        #: Starts as the translation's eligibility; cleared for this
        #: process when its superblock keeps aborting on SMC.
        self.fusable = translation.fusable
        #: Superblock headed by this block, if any.
        self.sb: Optional["Superblock"] = None
        #: Every superblock this block is a member of (for teardown).
        self.sbs: list = []


class Superblock:
    """A fused hot cycle: one guard vector and one generated function
    that runs whole passes.  The function is shared through the
    translation cache; guards, members and the teardown state are this
    process's."""

    __slots__ = ("count", "run", "guards", "blocks", "dead", "smc_aborts")

    def __init__(self, fused, guards, blocks):
        self.count, self.run = fused
        self.guards = guards
        self.blocks = blocks
        self.dead = False
        self.smc_aborts = 0


class TranslationCache:
    """The kernel-wide store of published translations and generated
    superblock functions.

    Translations are found by entry PC and bound only when the
    caller's code bytes equal the translation's, so one entry PC may
    hold several variants (different binaries, or code a process
    rewrote).  The cache holds at most ``CAPACITY`` instructions of
    translated code; reaching it clears everything in one step (the
    flush-not-evict idiom of :class:`~repro.crypto.memo.MacMemo`).
    Blocks already bound keep their translations, so a flush costs
    recompiles, never results."""

    CAPACITY = 16384
    #: Most variants kept per entry PC; publishing one more drops the
    #: oldest, so code rewritten in a loop cannot make every later
    #: lookup at that PC scan a long list.
    MAX_VARIANTS = 32

    def __init__(self) -> None:
        self._variants: dict[int, list[Translation]] = {}
        #: Member translations of a fused cycle -> (instructions per
        #: pass, generated function).
        self._fused: dict[tuple, tuple] = {}
        self._insns = 0

    def __len__(self) -> int:
        """Instructions of translated code held (blocks and fused)."""
        return self._insns

    def find(self, entry: int, data: bytearray, offset: int) -> Optional[Translation]:
        """The published translation at ``entry`` whose bytes equal
        ``data[offset:...]``, if any."""
        for translation in self._variants.get(entry, ()):
            raw = translation.raw
            if data[offset : offset + len(raw)] == raw:
                return translation
        return None

    def publish(self, translation: Translation) -> None:
        self._reserve(translation.count)
        variants = self._variants.setdefault(translation.entry, [])
        if len(variants) >= self.MAX_VARIANTS:
            self._insns -= variants.pop(0).count
        variants.append(translation)

    def fused(self, members: tuple) -> Optional[tuple]:
        return self._fused.get(members)

    def publish_fused(self, members: tuple, fused: tuple) -> None:
        self._reserve(fused[0])
        self._fused[members] = fused

    def _reserve(self, insns: int) -> None:
        if self._insns + insns > self.CAPACITY:
            self._variants.clear()
            self._fused.clear()
            self._insns = 0
        self._insns += insns


class BlockCache:
    """The per-VM block table over the shared translations, and its
    dispatch loop."""

    def __init__(self, vm: "VM", translations: Optional[TranslationCache] = None):
        self.vm = vm
        #: Where translations are published and bound from: the
        #: kernel's, or a private one for a standalone VM.
        self.translations = (
            translations if translations is not None else TranslationCache()
        )
        self._blocks: dict[int, Block] = {}
        #: page number -> set of block entry PCs whose code touches it.
        #: Lets stores invalidate cached translations in O(1) in the
        #: common no-code-on-this-page case.  The VM holds the same
        #: dict so store thunks reach it without a cache reference.
        self._page_index: dict[int, set] = vm._code_pages
        #: Regions (by id) this cache has registered its pre-mutation
        #: watcher on, so canonical writes invalidate eagerly too.
        self._watched: dict[int, Region] = {}
        self.compiles = 0
        self.shared = 0
        self.invalidations = 0
        self.chains_linked = 0
        self.chains_severed = 0
        self.superblocks_fused = 0
        self.superblocks_killed = 0

    def tallies(self) -> dict:
        """The cache's counters under their metric names."""
        return {
            "engine.blocks_compiled": self.compiles,
            "engine.blocks_shared": self.shared,
            "engine.blocks_evicted": self.invalidations,
            "engine.chains_linked": self.chains_linked,
            "engine.chains_severed": self.chains_severed,
            "engine.superblocks_fused": self.superblocks_fused,
            "engine.superblocks_killed": self.superblocks_killed,
        }

    def release(self) -> None:
        """Forget every block and unregister from every watched region
        (process exit, execve, kill): a fork-shared region must not
        keep a dead process's cache alive.  Chain links and superblock
        memberships are cut too, so the blocks (and the regions their
        guards name) are freed without waiting for the cycle collector."""
        for region in self._watched.values():
            try:
                region.watchers.remove(self.note_write)
            except ValueError:
                pass
        self._watched.clear()
        for block in self._blocks.values():
            block.s1 = block.s2 = block.sb = None
            block.preds = []
            block.sbs = []
        self._blocks.clear()
        self._page_index.clear()

    # -- dispatch ------------------------------------------------------

    def run(self, max_instructions: int, preempt: bool = False) -> None:
        """Execute until HALT/exit; mirrors the interpreter's budget
        semantics exactly (a block longer than the remaining budget is
        single-stepped so exhaustion faults at the same PC).

        With ``preempt=True`` an exhausted budget is a timeslice end,
        not a fault: the engine returns with the architectural state
        exactly as the interpreter leaves it after the same number of
        instructions, which is what makes scheduler interleavings
        engine-independent.  Chained successors and superblocks are
        only entered when the remaining budget covers them, so the
        preemption point always lands on a block boundary the
        interpreter would also stop at."""
        vm = self.vm
        regs = vm.regs  # the register file list is never reassigned
        lookup = self.lookup
        step = vm.step
        budget = max_instructions

        while budget > 0:
            block = lookup(vm.pc)
            # Chain-following inner loop: after executing `block`,
            # hop straight to a linked successor without re-entering
            # the dispatch loop (no dict probe, no guard re-check —
            # eager invalidation severs links before they can stale).
            while True:
                count = block.count
                if count > budget:
                    # Slice shorter than the block: single-step the
                    # tail so budget exhaustion lands at exactly the
                    # interpreter's PC.
                    if not step():
                        return
                    budget -= 1
                    break
                sb = block.sb
                if sb is not None and sb.count <= budget:
                    entered, budget = self._run_superblock(sb, budget)
                    if entered:
                        break
                vm.cycles += block.total_cycles
                vm.instructions_executed += count
                try:
                    for thunk in block.thunks:
                        thunk(vm, regs)
                except BlockAbort as abort:
                    budget -= abort.consumed
                    break
                if block.stop:
                    return
                budget -= count
                n = block.exec_count + 1
                block.exec_count = n
                if block.fusable and block.sb is None and not (n & _HOT_MASK):
                    self._maybe_fuse(block)
                if budget <= 0:
                    break
                pc = vm.pc
                if pc == block.s1_pc:
                    succ = block.s1
                    if succ is None:
                        succ = self._link(block, pc, 1)
                elif pc == block.s2_pc:
                    succ = block.s2
                    if succ is None:
                        succ = self._link(block, pc, 2)
                else:
                    break  # dynamic exit (JR/RET/...): full dispatch
                block = succ
        if preempt:
            return
        raise ExecutionFault(vm.pc, "instruction budget exhausted")

    def _run_superblock(self, sb: Superblock, budget: int):
        """Execute passes of a fused cycle while the budget covers a
        full pass.  Returns ``(entered, budget)``; ``entered`` is
        False when the guard vector was stale (the superblock is then
        killed and the caller falls back to per-block execution)."""
        for region, version in sb.guards:
            if region.version != version:
                self._kill_superblock(sb)
                return False, budget
        vm = self.vm
        try:
            return True, sb.run(vm, vm.regs, budget)
        except BlockAbort as abort:
            # A store into the fused span; the generated code already
            # settled the architectural state.
            if not sb.dead:
                sb.smc_aborts += 1
                if sb.smc_aborts >= _SB_SMC_LIMIT:
                    sb.blocks[0].fusable = False
                    self._kill_superblock(sb)
            return True, budget - abort.consumed

    # -- cache management ----------------------------------------------

    def lookup(self, pc: int) -> Block:
        block = self._blocks.get(pc)
        if block is not None:
            if block.guard_region.version == block.guard_version:
                extra = block.extra_guards
                if extra is None:
                    return block
                for region, version in extra:
                    if region.version != version:
                        break
                else:
                    return block
            self._drop(block)
            self.invalidations += 1
        return self._compile(pc)

    def _link(self, block: Block, pc: int, slot: int) -> Block:
        """Form a chain link from ``block`` to the block at ``pc``
        (which may compile it, or raise its deferred fault exactly as
        the dispatch loop would)."""
        succ = self.lookup(pc)
        if slot == 1:
            block.s1 = succ
        else:
            block.s2 = succ
        succ.preds.append(block)
        self.chains_linked += 1
        return succ

    def _drop(self, block: Block) -> None:
        entry = block.entry
        self._blocks.pop(entry, None)
        for page in block.translation.pages:
            entries = self._page_index.get(page)
            if entries is not None:
                entries.discard(entry)
                if not entries:
                    del self._page_index[page]
        # Sever inbound chain links: a chained predecessor must never
        # invoke a dropped (possibly stale) translation.
        preds = block.preds
        if preds:
            for pred in preds:
                if pred.s1 is block:
                    pred.s1 = None
                    self.chains_severed += 1
                if pred.s2 is block:
                    pred.s2 = None
                    self.chains_severed += 1
            block.preds = []
        # ...and outbound ones, so the successors' pred lists do not
        # accumulate dead entries across SMC recompile churn.
        s1 = block.s1
        if s1 is not None:
            s1.preds = [p for p in s1.preds if p is not block]
            block.s1 = None
        s2 = block.s2
        if s2 is not None:
            s2.preds = [p for p in s2.preds if p is not block]
            block.s2 = None
        # Any superblock containing this block is now stale.
        if block.sbs:
            for sb in block.sbs[:]:
                self._kill_superblock(sb)

    def _kill_superblock(self, sb: Superblock) -> None:
        if sb.dead:
            return
        sb.dead = True
        self.superblocks_killed += 1
        head = sb.blocks[0]
        if head.sb is sb:
            head.sb = None
        for member in sb.blocks:
            try:
                member.sbs.remove(sb)
            except ValueError:
                pass

    def note_write(self, address: int, size: int) -> None:
        """Drop cached blocks whose code a write overlaps — called
        *before* the store lands (pre-image invalidation), both from
        the engine's fast-path stores and, via ``Region.watchers``,
        from every canonical ``Memory`` mutation.  With chaining this
        is load-bearing, not just hygiene: a chained predecessor
        invokes its successor without re-checking guards, so the
        successor must be dropped (severing the link) the moment its
        code is overwritten."""
        index = self._page_index
        if not index:
            return
        lo = address >> PAGE_SHIFT
        hi = (address + size - 1) >> PAGE_SHIFT
        end = address + size
        for page in range(lo, hi + 1):
            entries = index.get(page)
            if not entries:
                continue
            for entry in list(entries):
                block = self._blocks.get(entry)
                if block is None:
                    entries.discard(entry)
                    continue
                if address < block.translation.end and end > entry:
                    self._drop(block)
                    self.invalidations += 1

    # -- compilation ---------------------------------------------------

    def _compile(self, entry: int) -> Block:
        recorder = self.vm.recorder
        if not recorder.enabled:
            return self._bind_or_translate(entry)
        # Tracing: attribute translation time to its own engine stage
        # even when the first instruction faults out of _translate.
        recorder.begin("block-compile", "engine")
        try:
            return self._bind_or_translate(entry)
        finally:
            recorder.end()

    def _bind_or_translate(self, entry: int) -> Block:
        """Bind a published translation of the same bytes, or translate
        (and publish, when the result depends on nothing else).

        Binding is sound because translating is deterministic in what
        the check covers: the fetch loop reads the bytes of one region
        through the same permission checks (readable, and executable
        under NX), and the stop conditions — terminator, trap, HALT,
        the length cap — depend only on those bytes."""
        vm = self.vm
        memory = vm.memory
        translations = self.translations
        try:
            region = memory.region_at(entry)
        except MemoryFault:
            region = None
        if (
            region is not None
            and region.prot & PROT_READ
            and (not vm.nx or region.prot & PROT_EXEC)
        ):
            translation = translations.find(
                entry, region.data, entry - region.start
            )
            if translation is not None:
                self.shared += 1
                return self._install(translation, ((region, region.version),))
        translation, guards, public = _translate(memory, vm.nx, entry)
        self.compiles += 1
        if public:
            translations.publish(translation)
        return self._install(translation, guards)

    def _install(self, translation: Translation, guards) -> Block:
        block = Block(translation, guards)
        entry = translation.entry
        self._blocks[entry] = block
        for page in translation.pages:
            self._page_index.setdefault(page, set()).add(entry)
        # Register pre-mutation watchers so canonical writes (kernel
        # buffer fills, brk growth, forced attack writes) invalidate
        # before the bytes land — see the module docstring.
        watched = self._watched
        for region, _ in guards:
            rid = id(region)
            if rid not in watched:
                watched[rid] = region
                region.watchers.append(self.note_write)
        return block

    # -- superblock fusion ---------------------------------------------

    def _maybe_fuse(self, head: Block) -> None:
        """If the chain out of ``head`` closes a cycle back to it,
        fuse the member blocks into a superblock, once per process and
        compiled once per kernel whichever member gets hot first.
        Called every ``_HOT_MASK + 1`` executions of a fusable, unfused
        block."""
        path = [head]
        seen = {id(head)}
        insns = head.count
        block = head
        while True:
            s1 = block.s1
            s2 = block.s2
            if s1 is not None and s2 is not None:
                nxt = s1 if s1.exec_count >= s2.exec_count else s2
            elif s1 is not None:
                nxt = s1
            else:
                nxt = s2
            if nxt is head:
                break  # cycle found
            if (
                nxt is None
                or not nxt.fusable
                or id(nxt) in seen
                or len(path) >= _SB_MAX_BLOCKS
                or insns + nxt.count > _SB_MAX_INSNS
            ):
                return
            seen.add(id(nxt))
            path.append(nxt)
            insns += nxt.count
            block = nxt
        # One function per cycle, whichever member got hot: a member
        # heading this very cycle means it is fused already, and a
        # rotation the kernel has compiled is reused when its head is
        # free (members may head superblocks of other cycles).
        for block in path:
            if block.sb is not None and {
                id(member) for member in block.sb.blocks
            } == seen:
                return
        members = tuple(block.translation for block in path)
        for i in range(1, len(path)):
            if path[i].sb is None and self.translations.fused(
                members[i:] + members[:i]
            ) is not None:
                path = path[i:] + path[:i]
                break
        recorder = self.vm.recorder
        if not recorder.enabled:
            self._fuse(path)
            return
        recorder.begin("block-chain", "engine")
        try:
            self._fuse(path)
        finally:
            recorder.end()

    def _fuse(self, path: list) -> None:
        members = tuple(block.translation for block in path)
        translations = self.translations
        fused = translations.fused(members)
        if fused is None:
            fused = _compile_superblock(members)
            translations.publish_fused(members, fused)
        # Merged guard vector (deduped by region): one validation per
        # superblock entry instead of one per member per pass.
        guards: list[tuple[Region, int]] = []
        seen_regions: set[int] = set()
        for member in path:
            member_guards = [(member.guard_region, member.guard_version)]
            if member.extra_guards:
                member_guards.extend(member.extra_guards)
            for region, version in member_guards:
                if id(region) not in seen_regions:
                    seen_regions.add(id(region))
                    guards.append((region, version))
        head = path[0]
        sb = Superblock(fused, tuple(guards), tuple(path))
        head.sb = sb
        for member in path:
            member.sbs.append(sb)
        self.superblocks_fused += 1


# -- translation ---------------------------------------------------------


def _translate(memory, nx: bool, entry: int):
    """Decode and compile the block at ``entry``.  Returns the
    translation, its ``(region, version)`` guards, and whether it may be
    published (a single region, not truncated by a deferred fault)."""
    fetched = []  # (pc, op, reg fields, imm)
    raws = []
    guards: list[tuple[Region, int]] = []
    seen_regions: set[int] = set()
    pc = entry
    terminated = False
    truncated = False
    while True:
        # Mirrors VM._fetch: NX check, read, decode — but a failure
        # past the first instruction truncates the block instead of
        # raising, deferring the fault to the dispatch that actually
        # reaches it (identical accounting and message).
        if nx and not memory.executable(pc):
            if not fetched:
                raise ExecutionFault(pc, "NX violation: page not executable")
            truncated = True
            break
        try:
            raw = memory.read(pc, INSTRUCTION_SIZE)
        except MemoryFault as fault:
            if not fetched:
                raise ExecutionFault(
                    pc, f"instruction fetch: {fault}"
                ) from fault
            truncated = True
            break
        try:
            op, regs, imm = decode_fields(raw)
        except EncodingError as err:
            if not fetched:
                raise ExecutionFault(
                    pc, f"illegal instruction: {err}"
                ) from err
            truncated = True
            break
        region = memory.region_at(pc)
        if id(region) not in seen_regions:
            seen_regions.add(id(region))
            guards.append((region, region.version))
        fetched.append((pc, op, regs, imm))
        raws.append(raw)
        info = OPCODE_INFO[op]
        if info.is_branch or info.is_trap or op is Op.HALT:
            terminated = True
            break
        pc += INSTRUCTION_SIZE
        if len(fetched) >= MAX_BLOCK:
            break

    count = len(fetched)
    end = fetched[-1][0] + INSTRUCTION_SIZE
    # Cycle prefix sums: prefix[i] covers instructions 0..i
    # inclusive (the interpreter charges cycles *before* executing
    # an instruction, so a fault at i has paid for i).
    prefix = []
    total = 0
    for _, op, _, imm in fetched:
        total += OPCODE_INFO[op].cycles
        if op is Op.CPUWORK:
            total += imm
        prefix.append(total)

    thunks = []
    for i, (ipc, op, regs, imm) in enumerate(fetched):
        make = _COLD[op]
        if make is None:
            continue  # NOP, CPUWORK: all in the batched cycle total
        # Per-block SMC window: the not-yet-executed remainder
        # [next pc, block end); (0, 0), which no store hits, for the
        # last instruction.
        nxt = ipc + INSTRUCTION_SIZE
        lo, hi = (nxt, end) if nxt < end else (0, 0)
        thunks.append(make(
            ipc, (imm or 0) & _MASK, total - prefix[i], count - (i + 1),
            i + 1, lo, hi, *regs,
        ))

    # Static successor PCs for direct chaining, and superblock
    # eligibility.  Dynamic exits (JR/CALLR/RET) and stops get the
    # -1 sentinel and always return to the dispatch loop.
    s1_pc = -1
    s2_pc = -1
    fusable = False
    if terminated:
        tpc, top, _, timm = fetched[-1]
        tnxt = tpc + INSTRUCTION_SIZE
        if top in _CONDITIONAL:
            s1_pc = timm & _MASK
            s2_pc = tnxt
            fusable = True
        elif top is Op.JMP:
            s1_pc = timm & _MASK
            fusable = True
        elif top is Op.CALL:
            s1_pc = timm & _MASK
        elif top is Op.SYS or top is Op.ASYS:
            s1_pc = tnxt
    else:
        # Truncated block: a jump to the next PC; the next dispatch
        # re-enters the cache (or raises the deferred fetch fault).
        thunks.append(_COLD[Op.JMP](end, end, 0, 0, count, 0, 0))
        s1_pc = end

    translation = Translation(
        entry, b"".join(raws), count, total, tuple(thunks),
        terminated and fetched[-1][1] is Op.HALT,
        tuple(fetched), s1_pc, s2_pc, fusable,
    )
    return translation, guards, not truncated and len(guards) == 1


# -- the opcode table ----------------------------------------------------

# One source template per opcode: the engine's only statement of what
# an instruction does.  Each is rendered two ways — inline into a
# superblock's generated pass loop, and into a closure factory for cold
# blocks — by formatting these fields:
#
# ``{0}``..``{2}``  the register operands in encoding order; ``{sp}``
#                   the stack pointer
# ``{fz}``/``{fn}`` the zero and negative flags; ``{cycles}`` the cycle
#                   counter, the block's (or pass's) batch already added
# ``{imm}``         the immediate, masked to 32 bits; ``{pc}``/``{nxt}``
#                   this and the next instruction's address
# ``{k}``/``{r}``   the exit corrections: cycles charged past this
#                   instruction and instructions counted after it
# ``{lo}``/``{hi}`` the self-modification window; a store into it ends
#                   the block or pass with ``{abort}``
# ``{fault}``       ends the instruction with the interpreter's
#                   ``ExecutionFault`` (message ``msg``, cause ``err``)
# ``{pages}``/``{note_write}``  the process's code-page index and its
#                   pre-image invalidation hook
#
# Everything else is plain Python over the arguments ``vm``/``regs``
# and the data-TLB locals ``dreg, d_start, d_data, d_r, d_w``.  The
# entries of conditional branches and ``JMP`` are the expression that is
# true when the branch is taken.  The block-only terminators (indirect
# jumps, calls, returns, traps, ``HALT``) never fuse and set ``vm.pc``
# themselves.

#: Data-TLB refill after a canonical access succeeded.
_REFILL = (
    "    vm._dtlb = dreg, d_start, d_data, d_r, d_w = "
    "_tlb(vm.memory.region_at(a))\n"
)


def _bound(size: int) -> str:
    """The last offset a ``size``-byte access may start at, as ``<``
    bound over the readable (``d_r``) or writable (``d_w``) length."""
    return "" if size == 1 else f" - {size - 1}"


def _load(size: int, fast: str, slow: str, prefix: str = "") -> str:
    """``v`` = the ``size``-byte value at ``a``: the data-TLB fast path,
    else the canonical read (which raises the interpreter's fault)."""
    return (
        "o = a - d_start\n"
        f"if 0 <= o < d_r{_bound(size)}:\n"
        f"    v = {fast}\n"
        "else:\n"
        f"    try: v = vm.memory.{slow}(a)\n"
        f"    except MemoryFault as err: msg = {prefix}str(err); {{fault}}\n"
        + _REFILL
    )


def _store(size: int, fast: str, slow: str, prefix: str = "") -> str:
    """Store ``v`` at ``a``: pre-image invalidation of this process's
    code on the stored pages, the data-TLB fast path or the canonical
    write, then the self-modification check."""
    touched = f"a >> {PAGE_SHIFT} in {{pages}}"
    if size > 1:
        touched += f" or (a + {size - 1}) >> {PAGE_SHIFT} in {{pages}}"
    return (
        "o = a - d_start\n"
        f"if 0 <= o < d_w{_bound(size)}:\n"
        f"    if {touched}: {{note_write}}(a, {size})\n"
        f"    {fast}\n"
        "    dreg.version += 1\n"
        "else:\n"
        f"    try: vm.memory.{slow}(a, v)\n"
        f"    except MemoryFault as err: msg = {prefix}str(err); {{fault}}\n"
        + _REFILL
        + f"if a < {{hi}} and a + {size} > {{lo}}: {{abort}}\n"
    )


def _divide(divisor: str, quotient: str) -> str:
    return (
        f"if {divisor} == 0: msg = 'division by zero'; err = None; {{fault}}\n"
        f"{{0}} = {quotient}"
    )


_ADDRESS = "a = ({1} + {imm}) & 0xFFFFFFFF\n"
_LOAD32 = _load(4, "_unpack(d_data, o)[0]", "read_u32")
_STORE32 = _store(4, "_pack(d_data, o, v & 0xFFFFFFFF)", "write_u32")
# The pushed value is read before SP moves, and SP stays moved when the
# store faults -- both as in the interpreter.
_PUSH = "{sp} = ({sp} - 4) & 0xFFFFFFFF\na = {sp}\n" + _store(
    4, "_pack(d_data, o, v & 0xFFFFFFFF)", "write_u32", "'stack overflow: ' + "
)
_POP = "a = {sp}\n" + _load(
    4, "_unpack(d_data, o)[0]", "read_u32", "'stack underflow: ' + "
) + "{sp} = ({sp} + 4) & 0xFFFFFFFF\n"
# ``vm.pc`` names the call site while the kernel runs, and the kernel
# may resize or re-protect regions, so the data TLB is emptied first.
_TRAP = (
    "vm.pc = {pc}\n"
    "vm._dtlb = _NO_TLB\n"
    "handler = vm.trap_handler\n"
    "if handler is None: "
    "raise ExecutionFault({pc}, 'trap with no kernel attached')\n"
    "vm.syscall_count += 1\n"
    "vm.cycles += handler.handle_trap(vm, %s)\n"
    "vm.pc = {nxt}"
)

_TEMPLATES = {
    Op.NOP: "",  # NOP and CPUWORK live entirely in the batched cycle total
    Op.CPUWORK: "",
    Op.LI: "{0} = {imm}",
    Op.MOV: "{0} = {1}",
    Op.ADD: "{0} = ({1} + {2}) & 0xFFFFFFFF",
    Op.SUB: "{0} = ({1} - {2}) & 0xFFFFFFFF",
    Op.MUL: "{0} = ({1} * {2}) & 0xFFFFFFFF",
    Op.DIV: _divide("{2}", "{1} // {2}"),
    Op.MOD: _divide("{2}", "{1} % {2}"),
    Op.AND: "{0} = {1} & {2}",
    Op.OR: "{0} = {1} | {2}",
    Op.XOR: "{0} = {1} ^ {2}",
    Op.SHL: "{0} = ({1} << ({2} & 31)) & 0xFFFFFFFF",
    Op.SHR: "{0} = {1} >> ({2} & 31)",
    Op.ADDI: "{0} = ({1} + {imm}) & 0xFFFFFFFF",
    Op.SUBI: "{0} = ({1} - {imm}) & 0xFFFFFFFF",
    Op.MULI: "{0} = ({1} * {imm}) & 0xFFFFFFFF",
    Op.DIVI: _divide("{imm}", "{1} // {imm}"),
    Op.ANDI: "{0} = {1} & {imm}",
    Op.ORI: "{0} = {1} | {imm}",
    Op.XORI: "{0} = {1} ^ {imm}",
    Op.SHLI: "{0} = ({1} << ({imm} & 31)) & 0xFFFFFFFF",
    Op.SHRI: "{0} = {1} >> ({imm} & 31)",
    Op.LD: _ADDRESS + _LOAD32 + "{0} = v",
    Op.LDB: _ADDRESS + _load(1, "d_data[o]", "read_u8") + "{0} = v",
    Op.ST: _ADDRESS + "v = {0}\n" + _STORE32,
    Op.STB: _ADDRESS + "v = {0}\n"
    + _store(1, "d_data[o] = v & 0xFF", "write_u8"),
    Op.PUSH: "v = {0}\n" + _PUSH,
    Op.POP: _POP + "{0} = v",
    # Signed order of 32-bit values is unsigned order with bit 31 flipped.
    Op.CMP: "x = {0}; y = {1}\n"
    "{fz} = x == y\n{fn} = (x ^ 0x80000000) < (y ^ 0x80000000)",
    Op.CMPI: "x = {0}\n"
    "{fz} = x == {imm}\n{fn} = (x ^ 0x80000000) < ({imm} ^ 0x80000000)",
    Op.RDTSC: "{0} = ({cycles} - {k}) & 0xFFFFFFFF",
    Op.RDTSCH: "{0} = (({cycles} - {k}) >> 32) & 0xFFFFFFFF",
    Op.BEQ: "{fz}",
    Op.BNE: "not {fz}",
    Op.BLT: "{fn}",
    Op.BGE: "not {fn}",
    Op.BLE: "{fn} or {fz}",
    Op.BGT: "not ({fn} or {fz})",
    Op.JMP: "True",
    Op.JR: "vm.pc = {0}",
    Op.CALL: "v = {nxt}\n" + _PUSH + "vm.pc = {imm}",
    # The target register is read after the push, like the interpreter.
    Op.CALLR: "v = {nxt}\n" + _PUSH + "vm.pc = {0}",
    Op.RET: _POP + "vm.pc = v",
    Op.SYS: _TRAP % False,
    Op.ASYS: _TRAP % True,
    # The interpreter leaves pc at the HALT.
    Op.HALT: "vm.exit_status = regs[1] & 0xFFFFFFFF\nvm.pc = {pc}",
}


def _tlb(region: Region) -> tuple:
    """The data-TLB tuple ``vm._dtlb`` for ``region``: itself, its
    start and bytes, and its readable and writable lengths (0 without
    the permission).  Protection and size change only in syscalls, and
    every trap (and :meth:`~repro.cpu.vm.VM.protect`) empties the TLB,
    so a held tuple is never stale."""
    size = len(region.data)
    return (
        region, region.start, region.data,
        size if region.prot & PROT_READ else 0,
        size if region.prot & PROT_WRITE else 0,
    )


#: The names generated code reaches besides its arguments.
_GENERATED_GLOBALS = {
    "MemoryFault": MemoryFault,
    "ExecutionFault": ExecutionFault,
    "BlockAbort": BlockAbort,
    "_tlb": _tlb,
    "_NO_TLB": _NO_TLB,
    "_unpack": Struct("<I").unpack_from,
    "_pack": Struct("<I").pack_into,
}
_LOAD_TLB = "dreg, d_start, d_data, d_r, d_w = vm._dtlb"


# -- superblock rendering ------------------------------------------------

_EXIT = "cycles -= {k}; budget += {r}; pc = {off}; break"
#: Superblock values of the table's fields that do not vary per
#: instruction: registers, flags and cycles are locals of ``run``.
_PASS_FIELDS = dict(
    sp="r15", fz="fz", fn="fn", cycles="cycles",
    pages="pages", note_write="note_write",
)


def _compile_superblock(path: tuple) -> tuple:
    """Generate, ``exec`` and return ``(count, run)`` for one pass of a
    hot cycle of translations (a pure function of ``path``).

    ``run(vm, regs, budget)`` executes whole passes while ``budget``
    covers one and returns the budget left.  It leaves the loop early
    at an off-cycle branch (``vm.pc`` names the branch target) and
    raises the interpreter's :class:`ExecutionFault` on a fault, or
    :class:`BlockAbort` after a store into the fused span; every exit
    leaves registers, flags, cycles, instruction count and ``vm.pc``
    exactly as the interpreter would."""
    head = path[0]
    lo = min(t.entry for t in path)
    hi = max(t.end for t in path)
    steps = []  # (pc, op, register fields, imm, off-cycle exit or None)
    for i, member in enumerate(path):
        follow = path[i + 1].entry if i + 1 < len(path) else head.entry
        for pc, op, regs_f, imm in member.code[:-1]:
            steps.append((pc, op, regs_f, imm, None))
        pc, op, regs_f, imm = member.code[-1]
        taken = _TEMPLATES[op].format(**_PASS_FIELDS)
        if op is Op.JMP or member.s1_pc == member.s2_pc:
            leave = None  # control stays in the cycle either way
        elif follow == member.s1_pc:
            leave = (f"not ({taken})", member.s2_pc)
        else:
            leave = (taken, member.s1_pc)
        steps.append((pc, op, (), None, leave))

    count = len(steps)
    costs = [
        OPCODE_INFO[op].cycles + (imm if op is Op.CPUWORK else 0)
        for _, op, _, imm, _ in steps
    ]
    total = sum(costs)
    body = []
    charged = 0
    for j, (pc, op, regs_f, imm, leave) in enumerate(steps):
        charged += costs[j]
        k = total - charged
        r = count - (j + 1)
        nxt = pc + INSTRUCTION_SIZE
        if op in _CONDITIONAL or op is Op.JMP:
            if leave is not None:
                body.append(
                    f"if {leave[0]}: "
                    + _EXIT.format(k=k, r=r, off=leave[1]) + "\n"
                )
            continue
        text = _TEMPLATES[op].format(
            *(f"r{n}" for n in regs_f), **_PASS_FIELDS,
            imm=(imm or 0) & _MASK, pc=pc, nxt=nxt, lo=lo, hi=hi, k=k, r=r,
            fault=f"cycles -= {k}; budget += {r}; pc = {pc}; "
            "abort = (msg, err); break",
            abort=f"cycles -= {k}; budget += {r}; pc = {nxt}; "
            "abort = True; break",
        )
        if text:
            body.append(text.rstrip("\n") + "\n")
    text = "".join(body)

    used = sorted({int(n) for n in re.findall(r"\br(\d+)\b", text)})
    written = sorted(
        {int(n) for n in re.findall(r"^\s*r(\d+) = ", text, re.MULTILINE)}
    )
    source = ["def run(vm, regs, budget):"]
    source += [f"    r{n} = regs[{n}]" for n in used]
    if re.search(r"\bf[zn]\b", text):
        source.append("    fz = vm.flag_zero; fn = vm.flag_neg")
    source.append(f"    cycles = vm.cycles; start = budget; pc = {head.entry}")
    source.append("    abort = None")
    if "d_start" in text:
        source.append("    " + _LOAD_TLB)
    if "note_write" in text:
        source.append("    pages = vm._code_pages")
        source.append("    note_write = vm._block_cache.note_write")
    source.append(f"    while budget >= {count}:")
    source.append(f"        cycles += {total}; budget -= {count}")
    source += ["        " + line for line in text.splitlines()]
    source += [f"    regs[{n}] = r{n}" for n in written]
    if "fz =" in text:
        source.append("    vm.flag_zero = fz; vm.flag_neg = fn")
    source.append("    vm.cycles = cycles; vm.pc = pc")
    source.append("    vm.instructions_executed += start - budget")
    source += [
        "    if abort is True:",
        "        raise BlockAbort(start - budget)",
        "    if abort is not None:",
        "        raise ExecutionFault(pc, abort[0]) from abort[1]",
        "    return budget",
    ]
    namespace = dict(_GENERATED_GLOBALS)
    exec(compile("\n".join(source) + "\n", f"<superblock {head.entry:#x}>",
                 "exec"), namespace)
    return count, namespace["run"]


# -- cold-block rendering ------------------------------------------------

#: Cold values of the table's fields: every per-instruction value is a
#: closure variable of the factory, and the architectural state is
#: reached through the thunk's ``vm`` and ``regs``.  An exit rolls the
#: block's batched accounting back by ``k``/``r`` and raises.
_COLD_FIELDS = dict(
    imm="imm", pc="pc", nxt="nxt", lo="lo", hi="hi", k="k", r="r",
    sp="regs[15]", fz="vm.flag_zero", fn="vm.flag_neg", cycles="vm.cycles",
    pages="vm._code_pages", note_write="vm._block_cache.note_write",
    fault="vm.cycles -= k; vm.instructions_executed -= r; vm.pc = pc; "
    "raise ExecutionFault(pc, msg) from err",
    abort="vm.cycles -= k; vm.instructions_executed -= r; vm.pc = nxt; "
    "raise BlockAbort(consumed)",
)


def _cold_factories() -> dict:
    """Each opcode's closure factory, all built by a single ``exec``:
    ``make(pc, imm, k, r, consumed, lo, hi, *registers)`` returns the
    ``thunk(vm, regs)`` of one instruction.  Opcodes whose whole effect
    is the batched cycle total map to ``None``."""
    source = []
    for op, template in _TEMPLATES.items():
        if op in _CONDITIONAL or op is Op.JMP:
            template = f"vm.pc = {{imm}} if {template} else {{nxt}}"
        text = template.format(
            "regs[x0]", "regs[x1]", "regs[x2]", **_COLD_FIELDS
        )
        if not text:
            continue
        if "d_start" in text:
            text = _LOAD_TLB + "\n" + text
        source.append(
            f"def make_{op.name}(pc, imm, k, r, consumed, lo, hi,"
            " x0=0, x1=0, x2=0):\n"
            f"    nxt = pc + {INSTRUCTION_SIZE}\n"
            "    def thunk(vm, regs):\n"
            + "".join(f"        {line}\n" for line in text.splitlines())
            + "    return thunk\n"
        )
    namespace = dict(_GENERATED_GLOBALS)
    exec(compile("\n".join(source), "<cold thunks>", "exec"), namespace)
    return {op: namespace.get(f"make_{op.name}") for op in Op}


_COLD = _cold_factories()
