"""Threaded-code execution engine: a basic-block translation cache.

On first entry to a block the engine decodes the straight-line run of
instructions up to the next control transfer, trap, or ``HALT`` and
compiles it into a :class:`Translation`: a tuple of pre-bound thunks,
one closure per instruction with register indices, immediates, and
cycle-accounting corrections baked in at compile time.  A thunk is
called as ``thunk(vm, regs)`` and reaches every piece of per-process
state through those two arguments (the data TLB and the code page
index are attributes of the VM), so a translation is a pure function
of its entry PC and the code bytes it decoded.  Subsequent executions
of the block pay one dictionary probe, one guard comparison, and one
batched cycle/instruction update instead of per-instruction fetch,
decode, and dispatch.

**Shared translations.**  Translations live in one bounded,
content-addressed :class:`TranslationCache` per kernel; each process's
:class:`BlockCache` holds cheap :class:`Block` nodes over them (guards,
chain links, heat, superblock membership).  On a per-process miss the
cache *binds* a published translation for the same entry PC when the
process's own bytes there are equal and its region is readable (and
executable under NX) — exactly the conditions under which translating
afresh would reproduce it — and otherwise translates and publishes.
Blocks truncated by a deferred fault or spanning two regions depend on
more than their bytes and stay private.  Fused superblock thunk lists
are memoized the same way, keyed by their member translations.

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
- **Superblocks.**  When a chain closes a hot cycle (per-block
  execution counter), the member blocks are fused into a single
  unrolled thunk list with one merged version-guard vector and one
  batched cycle/budget decrement per pass.  Fused code is specialized:
  adjacent compare+conditional-branch pairs become one thunk,
  intra-cycle ``JMP``s are elided, and loads/stores run the one-entry
  data-TLB fast path inline.  Off-cycle branch exits roll the batched
  accounting back to the exact architectural state and return to the
  dispatch loop, so every observable value (``RDTSC``, fault PCs,
  preemption points) matches the interpreter.

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

- **Batched accounting with per-thunk corrections.**  A block's (or
  superblock's) total cycles and instruction count are added on entry.
  Thunks that can observe or abort mid-block (``RDTSC``, faults,
  self-modifying stores, off-cycle branch exits) carry pre-computed
  corrections (``total - prefix[i]``) so the architectural counters
  are exact at every observation point.
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

Loads and stores go through a one-entry data-region cache (a tiny data
TLB, ``vm._dregion``): a hit performs the access directly against the
region bytearray (bumping ``Region.version`` on writes, exactly like
``Memory.write``); any miss — wrong region, out of bounds, protection
— falls back to the canonical :class:`~repro.cpu.memory.Memory` path
so every fault is produced by the same code that produces it under the
interpreter.
"""

from __future__ import annotations

from struct import pack_into, unpack_from
from typing import TYPE_CHECKING, Callable, Optional

from repro.cpu.memory import (
    MemoryFault,
    PAGE_SHIFT,
    PROT_EXEC,
    PROT_READ,
    Region,
)
from repro.cpu.vm import ExecutionFault
from repro.isa.encoding import INSTRUCTION_SIZE, EncodingError, decode_fields
from repro.isa.opcodes import OPCODE_INFO, Op

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu.vm import VM

_MASK = 0xFFFFFFFF
_SIGN = 0x8000_0000
_WRAP = 0x1_0000_0000

#: Maximum instructions per block.  Blocks are straight-line, so this
#: only bounds pathological NOP sleds; real blocks end at a branch.
MAX_BLOCK = 64

#: A block becomes a superblock-fusion candidate every time its
#: execution count crosses a multiple of ``_HOT_MASK + 1``.
_HOT_MASK = 0xFF
#: Superblock shape limits: at most this many member blocks / cycle
#: instructions, unrolled toward ``_SB_TARGET_INSNS`` per pass.
_SB_MAX_BLOCKS = 8
_SB_MAX_INSNS = 64
_SB_TARGET_INSNS = 128
_SB_MAX_UNROLL = 16
#: A superblock that keeps aborting on stores into its own span (a
#: loop that writes its own code region every pass) is torn down after
#: this many SMC aborts; each abort is exact, just slow.
_SB_SMC_LIMIT = 4


class BlockAbort(Exception):
    """Internal control flow: the running block/superblock must stop
    early with the architectural state already settled by the raiser.
    ``consumed`` is how many instructions completed; ``smc`` marks
    aborts caused by a store into the running translation's own span
    (used to tear down pathologically self-modifying superblocks)."""

    def __init__(self, consumed: int, smc: bool = False):
        self.consumed = consumed
        self.smc = smc


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
    """A fused, unrolled hot cycle: one guard vector, one batched
    accounting update and budget decrement per pass.  The thunk list is
    shared through the translation cache; guards, members and the
    teardown state are this process's."""

    __slots__ = (
        "entry", "count", "total_cycles", "thunks", "guards", "blocks",
        "dead", "smc_aborts",
    )

    def __init__(self, entry, fused, guards, blocks):
        self.entry = entry
        self.count, self.total_cycles, self.thunks = fused
        self.guards = guards
        self.blocks = blocks
        self.dead = False
        self.smc_aborts = 0


class TranslationCache:
    """The kernel-wide store of published translations and fused
    superblock thunk lists.

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
        #: Member translations of a fused cycle -> (count, cycles,
        #: thunks) of the unrolled pass.
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


def _signed(value: int) -> int:
    return value - _WRAP if value & _SIGN else value


def _pre_store(vm: "VM", address: int, size: int) -> None:
    """Pre-image invalidation: drop this process's translations a store
    overlaps (severing their chain links) before the bytes change."""
    index = vm._code_pages
    if (address >> PAGE_SHIFT) in index or (
        (address + size - 1) >> PAGE_SHIFT
    ) in index:
        vm._block_cache.note_write(address, size)


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
        regs = vm.regs
        entry = sb.entry
        count = sb.count
        cycles = sb.total_cycles
        thunks = sb.thunks
        while count <= budget:
            vm.cycles += cycles
            vm.instructions_executed += count
            try:
                for thunk in thunks:
                    thunk(vm, regs)
            except BlockAbort as abort:
                # The raiser already rolled the batched accounting
                # back and set vm.pc; only the budget needs settling.
                budget -= abort.consumed
                if abort.smc and not sb.dead:
                    sb.smc_aborts += 1
                    if sb.smc_aborts >= _SB_SMC_LIMIT:
                        sb.blocks[0].fusable = False
                        self._kill_superblock(sb)
                break
            budget -= count
            if vm.pc != entry:
                break
        return True, budget

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
        fuse the member blocks into a superblock.  Called every
        ``_HOT_MASK + 1`` executions of a fusable, unfused block."""
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
        recorder = self.vm.recorder
        if not recorder.enabled:
            self._fuse(path, insns)
            return
        recorder.begin("block-chain", "engine")
        try:
            self._fuse(path, insns)
        finally:
            recorder.end()

    def _fuse(self, path: list, cycle_insns: int) -> None:
        members = tuple(block.translation for block in path)
        translations = self.translations
        fused = translations.fused(members)
        if fused is None:
            fused = _fuse_thunks(members, cycle_insns)
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
        sb = Superblock(head.entry, fused, tuple(guards), tuple(path))
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

    thunks: list[Callable] = []
    stop = False
    for i, (ipc, op, regs, imm) in enumerate(fetched):
        thunk = _make_thunk(
            ipc, op, regs, imm,
            cyc_corr=total - prefix[i],
            icnt_corr=count - (i + 1),
            consumed=i + 1,
            # Per-block SMC window: the not-yet-executed remainder
            # [next pc, block end).  Empty for the terminator.
            smc_lo=ipc + INSTRUCTION_SIZE,
            smc_hi=end,
        )
        if thunk is not None:
            thunks.append(thunk)
        if op is Op.HALT:
            stop = True

    # Static successor PCs for direct chaining, and superblock
    # eligibility.  Dynamic exits (JR/CALLR/RET) and stops get the
    # -1 sentinel and always return to the dispatch loop.
    s1_pc = -1
    s2_pc = -1
    fusable = False
    if terminated:
        tpc, top, _, timm = fetched[-1]
        tnxt = tpc + INSTRUCTION_SIZE
        if top in _CONDITION_FLAGS:
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
        # Truncated block: fall through to the next PC; the next
        # dispatch re-enters the cache (or raises the deferred
        # fetch fault).
        def fallthrough(vm, regs, _nxt=end):
            vm.pc = _nxt

        thunks.append(fallthrough)
        s1_pc = end

    translation = Translation(
        entry, b"".join(raws), count, total, tuple(thunks), stop,
        tuple(fetched), s1_pc, s2_pc, fusable,
    )
    return translation, guards, not truncated and len(guards) == 1


def _fuse_thunks(path: tuple, cycle_insns: int) -> tuple:
    """The unrolled pass of a hot cycle of translations, as
    ``(count, total cycles, thunks)``: a pure function of ``path``."""
    head = path[0]
    unroll = max(1, min(_SB_MAX_UNROLL, _SB_TARGET_INSNS // cycle_insns))
    span_lo = min(t.entry for t in path)
    span_hi = max(t.end for t in path)

    # Flatten `unroll` copies of the cycle.  Unrolled copies share
    # the same guest PCs, so every pre-bound PC/fault value stays
    # architecturally correct in any copy.
    flat = []  # (pc, op, reg fields, imm, is_terminator, on_taken, member)
    npath = len(path)
    for _ in range(unroll):
        for bi, member in enumerate(path):
            chosen = path[bi + 1] if bi + 1 < npath else head
            code = member.code
            last = len(code) - 1
            for k, (ipc, op, regs_f, imm) in enumerate(code):
                on_taken = k == last and chosen.entry == member.s1_pc
                flat.append((ipc, op, regs_f, imm, k == last, on_taken, member))

    n = len(flat)
    prefix = []
    total = 0
    for _, op, _, imm, _, _, _ in flat:
        total += OPCODE_INFO[op].cycles
        if op is Op.CPUWORK:
            total += imm
        prefix.append(total)

    thunks: list[Callable] = []
    j = 0
    while j < n:
        ipc, op, regs_f, imm, is_term, on_taken, member = flat[j]
        final = j == n - 1
        if is_term:
            if final:
                # The pass-closing terminator runs unspecialized
                # with zero corrections: it sets vm.pc on both
                # paths and the pass loop checks it against the
                # superblock entry.
                thunks.append(_make_thunk(
                    ipc, op, regs_f, imm,
                    cyc_corr=0, icnt_corr=0, consumed=n,
                    smc_lo=span_lo, smc_hi=span_hi,
                ))
            elif op is Op.JMP or member.s1_pc == member.s2_pc:
                pass  # intra-cycle jump: control simply continues
            else:
                off_pc = member.s2_pc if on_taken else member.s1_pc
                thunks.append(_branch_exit(
                    op, on_taken, off_pc,
                    cyc_corr=total - prefix[j],
                    icnt_corr=n - (j + 1),
                    consumed=j + 1,
                ))
            j += 1
            continue
        if (op is Op.CMP or op is Op.CMPI) and j + 1 < n - 1:
            (nipc, nop, nregs, nimm, nterm, non_taken, nmember) = flat[j + 1]
            if nterm and nop in _CONDITION_FLAGS and nmember.s1_pc != nmember.s2_pc:
                # Fused compare+branch: one thunk sets the
                # architectural flags and takes the exit decision.
                thunks.append(_fused_compare_branch(
                    op, regs_f, imm, nop, non_taken,
                    nmember.s2_pc if non_taken else nmember.s1_pc,
                    cyc_corr=total - prefix[j + 1],
                    icnt_corr=n - (j + 2),
                    consumed=j + 2,
                ))
                j += 2
                continue
        thunk = _make_thunk(
            ipc, op, regs_f, imm,
            cyc_corr=total - prefix[j],
            icnt_corr=n - (j + 1),
            consumed=j + 1,
            smc_lo=span_lo, smc_hi=span_hi,
        )
        if thunk is not None:
            thunks.append(thunk)
        j += 1
    return n, total, tuple(thunks)


# -- thunk factories -----------------------------------------------------


def _branch_exit(
    op, on_taken, off_pc, cyc_corr, icnt_corr, consumed
) -> Callable:
    """A mid-superblock conditional branch whose flags were set by
    an earlier (non-adjacent) compare: continue on the fused path,
    or roll back the batched accounting and exit."""
    family, invert = _BRANCH_FAMILY[op]
    want = on_taken ^ invert

    if family == "z":

        def thunk(vm, regs):
            if vm.flag_zero != want:
                vm.cycles -= cyc_corr
                vm.instructions_executed -= icnt_corr
                vm.pc = off_pc
                raise BlockAbort(consumed)

    elif family == "n":

        def thunk(vm, regs):
            if vm.flag_neg != want:
                vm.cycles -= cyc_corr
                vm.instructions_executed -= icnt_corr
                vm.pc = off_pc
                raise BlockAbort(consumed)

    else:  # "nz"

        def thunk(vm, regs):
            if (vm.flag_neg or vm.flag_zero) != want:
                vm.cycles -= cyc_corr
                vm.instructions_executed -= icnt_corr
                vm.pc = off_pc
                raise BlockAbort(consumed)

    return thunk


def _fused_compare_branch(
    cmp_op, cmp_regs, cmp_imm, br_op, on_taken, off_pc,
    cyc_corr, icnt_corr, consumed,
) -> Callable:
    """One thunk for an adjacent CMP/CMPI + conditional branch
    pair inside a superblock.  The architectural flags are always
    set (a later exit must observe them exactly as the interpreter
    would); corrections are the *branch's*, since both
    instructions have executed when the exit is taken."""
    family, invert = _BRANCH_FAMILY[br_op]
    want = on_taken ^ invert

    if cmp_op is Op.CMPI:
        a = cmp_regs[0]
        value = cmp_imm & _MASK
        signed_value = _signed(value)

        if family == "z":

            def thunk(vm, regs):
                x = regs[a]
                z = x == value
                vm.flag_zero = z
                vm.flag_neg = (x - _WRAP if x & _SIGN else x) < signed_value
                if z != want:
                    vm.cycles -= cyc_corr
                    vm.instructions_executed -= icnt_corr
                    vm.pc = off_pc
                    raise BlockAbort(consumed)

        elif family == "n":

            def thunk(vm, regs):
                x = regs[a]
                neg = (x - _WRAP if x & _SIGN else x) < signed_value
                vm.flag_zero = x == value
                vm.flag_neg = neg
                if neg != want:
                    vm.cycles -= cyc_corr
                    vm.instructions_executed -= icnt_corr
                    vm.pc = off_pc
                    raise BlockAbort(consumed)

        else:  # "nz"

            def thunk(vm, regs):
                x = regs[a]
                z = x == value
                neg = (x - _WRAP if x & _SIGN else x) < signed_value
                vm.flag_zero = z
                vm.flag_neg = neg
                if (neg or z) != want:
                    vm.cycles -= cyc_corr
                    vm.instructions_executed -= icnt_corr
                    vm.pc = off_pc
                    raise BlockAbort(consumed)

    else:  # CMP ra, rb
        a, b = cmp_regs

        if family == "z":

            def thunk(vm, regs):
                x = regs[a]
                y = regs[b]
                z = x == y
                vm.flag_zero = z
                vm.flag_neg = (x - _WRAP if x & _SIGN else x) < (
                    y - _WRAP if y & _SIGN else y
                )
                if z != want:
                    vm.cycles -= cyc_corr
                    vm.instructions_executed -= icnt_corr
                    vm.pc = off_pc
                    raise BlockAbort(consumed)

        elif family == "n":

            def thunk(vm, regs):
                x = regs[a]
                y = regs[b]
                neg = (x - _WRAP if x & _SIGN else x) < (
                    y - _WRAP if y & _SIGN else y
                )
                vm.flag_zero = x == y
                vm.flag_neg = neg
                if neg != want:
                    vm.cycles -= cyc_corr
                    vm.instructions_executed -= icnt_corr
                    vm.pc = off_pc
                    raise BlockAbort(consumed)

        else:  # "nz"

            def thunk(vm, regs):
                x = regs[a]
                y = regs[b]
                z = x == y
                neg = (x - _WRAP if x & _SIGN else x) < (
                    y - _WRAP if y & _SIGN else y
                )
                vm.flag_zero = z
                vm.flag_neg = neg
                if (neg or z) != want:
                    vm.cycles -= cyc_corr
                    vm.instructions_executed -= icnt_corr
                    vm.pc = off_pc
                    raise BlockAbort(consumed)

    return thunk


def _make_thunk(
    pc, op, regs_f, imm, cyc_corr, icnt_corr, consumed,
    smc_lo, smc_hi,
) -> Optional[Callable]:
    """Compile one instruction into a pre-bound closure.

    ``[smc_lo, smc_hi)`` is the self-modification window: a store
    landing in it aborts the running translation after the write.
    For a plain block that is the unexecuted remainder; for a
    superblock it is the whole member span (conservative: every PC
    in a cycle is "not yet executed" from the next pass's point of
    view).  Returns ``None`` for instructions whose entire effect
    lives in the batched accounting (``NOP``, ``CPUWORK``)."""
    nxt = pc + INSTRUCTION_SIZE

    def fault(vm, message, cause=None):
        """Roll the batched accounting back to 'this instruction
        faulted' and raise, mirroring interpreter state exactly."""
        vm.cycles -= cyc_corr
        vm.instructions_executed -= icnt_corr
        vm.pc = pc
        raise ExecutionFault(pc, message) from cause

    if smc_lo < smc_hi:

        def post_store(vm, address, size):
            """Self-modification abort: the store clobbered code
            this translation would still execute.  Unwind the
            batched accounting past this instruction and return to
            the dispatch loop, which re-decodes the new bytes."""
            if address < smc_hi and address + size > smc_lo:
                vm.cycles -= cyc_corr
                vm.instructions_executed -= icnt_corr
                vm.pc = nxt
                raise BlockAbort(consumed, smc=True)

    else:  # empty window (a terminator's own store can't SMC-abort)

        def post_store(vm, address, size):
            return

    def read_u32(vm, address, message_prefix=""):
        region = vm._dregion
        offset = address - region.start
        if 0 <= offset and offset + 4 <= len(region.data) and region.prot & 1:
            return unpack_from("<I", region.data, offset)[0]
        try:
            value = vm.memory.read_u32(address)
        except MemoryFault as err:
            fault(vm, message_prefix + str(err), err)
        vm._dregion = vm.memory.region_at(address)
        return value

    def write_u32(vm, address, value, message_prefix=""):
        region = vm._dregion
        offset = address - region.start
        if 0 <= offset and offset + 4 <= len(region.data) and region.prot & 2:
            _pre_store(vm, address, 4)
            pack_into("<I", region.data, offset, value & _MASK)
            region.version += 1
        else:
            # The canonical path notifies the block cache's region
            # watcher before mutating, so invalidation ordering is
            # identical to the fast path.
            try:
                vm.memory.write_u32(address, value)
            except MemoryFault as err:
                fault(vm, message_prefix + str(err), err)
            vm._dregion = vm.memory.region_at(address)
        post_store(vm, address, 4)

    # -- straight-line operations ---------------------------------

    if op is Op.NOP or op is Op.CPUWORK:
        return None  # effect folded into the batched cycle total

    if op is Op.LI:
        d = regs_f[0]
        value = imm & _MASK

        def thunk(vm, regs):
            regs[d] = value

    elif op is Op.MOV:
        d, s = regs_f

        def thunk(vm, regs):
            regs[d] = regs[s]

    elif op is Op.ADD:
        d, a, b = regs_f

        def thunk(vm, regs):
            regs[d] = (regs[a] + regs[b]) & _MASK

    elif op is Op.SUB:
        d, a, b = regs_f

        def thunk(vm, regs):
            regs[d] = (regs[a] - regs[b]) & _MASK

    elif op is Op.MUL:
        d, a, b = regs_f

        def thunk(vm, regs):
            regs[d] = (regs[a] * regs[b]) & _MASK

    elif op is Op.DIV or op is Op.MOD:
        d, a, b = regs_f
        is_div = op is Op.DIV

        def thunk(vm, regs):
            divisor = regs[b]
            if divisor == 0:
                fault(vm, "division by zero")
            regs[d] = (
                regs[a] // divisor if is_div else regs[a] % divisor
            ) & _MASK

    elif op is Op.AND:
        d, a, b = regs_f

        def thunk(vm, regs):
            regs[d] = regs[a] & regs[b]

    elif op is Op.OR:
        d, a, b = regs_f

        def thunk(vm, regs):
            regs[d] = regs[a] | regs[b]

    elif op is Op.XOR:
        d, a, b = regs_f

        def thunk(vm, regs):
            regs[d] = regs[a] ^ regs[b]

    elif op is Op.SHL:
        d, a, b = regs_f

        def thunk(vm, regs):
            regs[d] = (regs[a] << (regs[b] & 31)) & _MASK

    elif op is Op.SHR:
        d, a, b = regs_f

        def thunk(vm, regs):
            regs[d] = regs[a] >> (regs[b] & 31)

    elif op is Op.ADDI:
        d, a = regs_f
        value = imm & _MASK

        def thunk(vm, regs):
            regs[d] = (regs[a] + value) & _MASK

    elif op is Op.SUBI:
        d, a = regs_f
        value = imm & _MASK

        def thunk(vm, regs):
            regs[d] = (regs[a] - value) & _MASK

    elif op is Op.MULI:
        d, a = regs_f
        value = imm & _MASK

        def thunk(vm, regs):
            regs[d] = (regs[a] * value) & _MASK

    elif op is Op.DIVI:
        d, a = regs_f
        value = imm & _MASK
        if value == 0:

            def thunk(vm, regs):
                fault(vm, "division by zero")

        else:

            def thunk(vm, regs):
                regs[d] = (regs[a] // value) & _MASK

    elif op is Op.ANDI:
        d, a = regs_f
        value = imm & _MASK

        def thunk(vm, regs):
            regs[d] = regs[a] & value

    elif op is Op.ORI:
        d, a = regs_f
        value = imm & _MASK

        def thunk(vm, regs):
            regs[d] = regs[a] | value

    elif op is Op.XORI:
        d, a = regs_f
        value = imm & _MASK

        def thunk(vm, regs):
            regs[d] = regs[a] ^ value

    elif op is Op.SHLI:
        d, a = regs_f
        shift = imm & 31

        def thunk(vm, regs):
            regs[d] = (regs[a] << shift) & _MASK

    elif op is Op.SHRI:
        d, a = regs_f
        shift = imm & 31

        def thunk(vm, regs):
            regs[d] = regs[a] >> shift

    elif op is Op.LD:
        d, base = regs_f
        disp = imm

        def thunk(vm, regs):
            # Data-TLB fast path inlined (no nested call on hit).
            address = (regs[base] + disp) & _MASK
            region = vm._dregion
            offset = address - region.start
            if 0 <= offset and offset + 4 <= len(region.data) and region.prot & 1:
                regs[d] = unpack_from("<I", region.data, offset)[0]
            else:
                regs[d] = read_u32(vm, address)

    elif op is Op.ST:
        s, base = regs_f
        disp = imm

        def thunk(vm, regs):
            address = (regs[base] + disp) & _MASK
            region = vm._dregion
            offset = address - region.start
            if 0 <= offset and offset + 4 <= len(region.data) and region.prot & 2:
                _pre_store(vm, address, 4)
                pack_into("<I", region.data, offset, regs[s] & _MASK)
                region.version += 1
                post_store(vm, address, 4)
            else:
                write_u32(vm, address, regs[s])

    elif op is Op.LDB:
        d, base = regs_f
        disp = imm

        def thunk(vm, regs):
            address = (regs[base] + disp) & _MASK
            region = vm._dregion
            offset = address - region.start
            if 0 <= offset < len(region.data) and region.prot & 1:
                regs[d] = region.data[offset]
                return
            try:
                value = vm.memory.read_u8(address)
            except MemoryFault as err:
                fault(vm, str(err), err)
            vm._dregion = vm.memory.region_at(address)
            regs[d] = value

    elif op is Op.STB:
        s, base = regs_f
        disp = imm

        def thunk(vm, regs):
            address = (regs[base] + disp) & _MASK
            region = vm._dregion
            offset = address - region.start
            if 0 <= offset < len(region.data) and region.prot & 2:
                _pre_store(vm, address, 1)
                region.data[offset] = regs[s] & 0xFF
                region.version += 1
            else:
                try:
                    vm.memory.write_u8(address, regs[s])
                except MemoryFault as err:
                    fault(vm, str(err), err)
                vm._dregion = vm.memory.region_at(address)
            post_store(vm, address, 1)

    elif op is Op.PUSH:
        s = regs_f[0]

        def thunk(vm, regs):
            value = regs[s]
            sp = (regs[15] - 4) & _MASK
            regs[15] = sp
            write_u32(vm, sp, value, "stack overflow: ")

    elif op is Op.POP:
        d = regs_f[0]

        def thunk(vm, regs):
            value = read_u32(vm, regs[15], "stack underflow: ")
            regs[15] = (regs[15] + 4) & _MASK
            regs[d] = value

    elif op is Op.CMP:
        a, b = regs_f

        def thunk(vm, regs):
            x = regs[a]
            y = regs[b]
            vm.flag_zero = x == y
            vm.flag_neg = (x - _WRAP if x & _SIGN else x) < (
                y - _WRAP if y & _SIGN else y
            )

    elif op is Op.CMPI:
        a = regs_f[0]
        value = imm & _MASK
        signed_value = _signed(value)

        def thunk(vm, regs):
            x = regs[a]
            vm.flag_zero = x == value
            vm.flag_neg = (x - _WRAP if x & _SIGN else x) < signed_value

    elif op is Op.RDTSC or op is Op.RDTSCH:
        # The batched cycle total was added at block entry; subtract
        # the pre-computed suffix so the guest observes exactly the
        # interpreter's mid-block counter value.
        d = regs_f[0]
        high = op is Op.RDTSCH

        def thunk(vm, regs):
            cycles = vm.cycles - cyc_corr
            regs[d] = ((cycles >> 32) if high else cycles) & _MASK

    # -- terminators ----------------------------------------------

    elif op in _CONDITION_FLAGS:
        target = imm & _MASK

        if op is Op.BEQ:

            def thunk(vm, regs):
                vm.pc = target if vm.flag_zero else nxt

        elif op is Op.BNE:

            def thunk(vm, regs):
                vm.pc = nxt if vm.flag_zero else target

        elif op is Op.BLT:

            def thunk(vm, regs):
                vm.pc = target if vm.flag_neg else nxt

        elif op is Op.BGE:

            def thunk(vm, regs):
                vm.pc = nxt if vm.flag_neg else target

        elif op is Op.BLE:

            def thunk(vm, regs):
                vm.pc = target if (vm.flag_neg or vm.flag_zero) else nxt

        else:  # BGT

            def thunk(vm, regs):
                vm.pc = nxt if (vm.flag_neg or vm.flag_zero) else target

    elif op is Op.JMP:
        target = imm & _MASK

        def thunk(vm, regs):
            vm.pc = target

    elif op is Op.JR:
        r = regs_f[0]

        def thunk(vm, regs):
            vm.pc = regs[r]

    elif op is Op.CALL:
        target = imm & _MASK

        def thunk(vm, regs):
            sp = (regs[15] - 4) & _MASK
            regs[15] = sp
            write_u32(vm, sp, nxt, "stack overflow: ")
            vm.pc = target

    elif op is Op.CALLR:
        r = regs_f[0]

        def thunk(vm, regs):
            sp = (regs[15] - 4) & _MASK
            regs[15] = sp
            write_u32(vm, sp, nxt, "stack overflow: ")
            vm.pc = regs[r]  # read after the push, like the interpreter

    elif op is Op.RET:

        def thunk(vm, regs):
            value = read_u32(vm, regs[15], "stack underflow: ")
            regs[15] = (regs[15] + 4) & _MASK
            vm.pc = value

    elif op is Op.SYS or op is Op.ASYS:
        authenticated = op is Op.ASYS

        def thunk(vm, regs):
            # The kernel reads vm.pc (call site), vm.regs, and
            # vm.cycles (trap-time clock); all are exact here
            # because traps always terminate a block.
            vm.pc = pc
            handler = vm.trap_handler
            if handler is None:
                raise ExecutionFault(pc, "trap with no kernel attached")
            vm.syscall_count += 1
            vm.cycles += handler.handle_trap(vm, authenticated)
            vm.pc = nxt

    elif op is Op.HALT:

        def thunk(vm, regs):
            vm.exit_status = regs[1] & _MASK
            vm.pc = pc  # the interpreter leaves pc at the HALT

    else:  # pragma: no cover - opcode table is exhaustive
        def thunk(vm, regs):
            fault(vm, f"unimplemented opcode {op!r}")

    return thunk


#: Marker table for the conditional branches (the tuple payload is
#: unused — membership drives the dispatch above, mirroring the
#: interpreter's _CONDITIONS table).
_CONDITION_FLAGS = {
    Op.BEQ: (True, False, False, False),
    Op.BNE: (True, False, False, True),
    Op.BLT: (False, True, False, False),
    Op.BGE: (False, True, False, True),
    Op.BLE: (False, False, True, False),
    Op.BGT: (False, False, True, True),
}

#: Conditional-branch decomposition for superblock specialization:
#: which flag family the predicate reads ("z" = zero, "n" = negative,
#: "nz" = negative-or-zero) and whether the branch takes on the
#: *false* value of that family.
_BRANCH_FAMILY = {
    Op.BEQ: ("z", False),
    Op.BNE: ("z", True),
    Op.BLT: ("n", False),
    Op.BGE: ("n", True),
    Op.BLE: ("nz", False),
    Op.BGT: ("nz", True),
}
