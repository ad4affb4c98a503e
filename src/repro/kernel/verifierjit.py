"""The per-process verifier: verified pairs plus per-site thunks (§3.4).

The paper's per-call-site policies are almost entirely static — the
auth record, the encoded policy, the authenticated strings, and the
predecessor set are burned into read-only sections at install time —
yet the generic :class:`repro.kernel.auth.AuthChecker` re-parses and
re-encodes all of them on every trap.  SFIP and SysPart exploit the
same staticness with precomputed per-site/per-phase tables; each
process's :class:`VerifierJit` does it here, in two steps that share
one lifecycle.

**Verified pairs.**  After a trap survives the *full* CMAC check, the
verifier remembers the exact ``(encoded call, call MAC)`` pair per
``(call_site, descriptor)``.  The generic checker still reconstructs
the encoded call from live registers and memory on every trap it
serves, but if the reconstruction and the presented MAC are
byte-identical to the verified pair, the CMAC would necessarily
succeed again, so it is skipped (:meth:`VerifierJit.probe`).  Any
divergence misses and falls through to the full check.  Parsing (not
verifying) of AS headers is memoized through a write-version-gated
:class:`repro.policy.authstrings.CachedASReader`.

**Thunks.**  The same first full verification compiles a
:class:`SiteThunk`: a pre-bound verifier that inlines exactly the
checks that site needs —

- the record parse, parameter walk, and encoded-call reconstruction
  collapse into direct register comparisons against the verified
  values (a site with no string arguments never touches string-auth
  code at all; a site with no constant arguments runs no comparison
  loop);
- the predecessor-set decode collapses into a pre-resolved
  ``frozenset`` membership probe;
- the expected MAC material (record bytes, AS headers and contents,
  the pattern objects of §5.1) is covered by *write-version guards* on
  every memory region the full verification read, instead of being
  re-read and re-MAC'd.

What is never remembered, by either step, is everything bound to the
per-process counter: the lastBlock/lbMAC state is read from guest
memory, MAC-verified against the current counter, probed against the
predecessor set, then advanced and re-MAC'd into guest memory on every
trap; the generic path re-MACs string-argument contents, and
pattern-constrained runtime arguments are re-matched against live
memory and r8 hints.  The provider the verifier is given is the
kernel's :class:`repro.crypto.memo.MacMemo`, so the *host* computes
each distinct payload's tag once: the memo is keyed on the full
payload, counter included, and so returns the same tag (and the same
verdict) the raw provider would.

Soundness mirrors the block-chaining pre-image invalidation story
(DESIGN.md "Execution engines"): every byte a thunk *assumes* was
covered by one full cryptographic verification, and any store into a
region holding such bytes — legitimate or hostile — bumps that
region's write version, fails the guard, drops the thunk, and falls
back to the generic checker.  That fallback still probes the verified
pair, so a harmless version bump (same bytes rewritten) costs one
generic check at the pair-hit price and a recompile, while changed
bytes miss the pair and die on the full CMAC.  A thunk never raises:
*any* divergence returns ``None`` and the generic path reproduces the
exact :class:`~repro.kernel.auth.AuthViolation`.

Cycle accounting is bit-identical to the pair-hit cost the generic
checker charges (same AES-block count, same ``auth_cost_fastpath``
formula), so which step serves a trap changes host wall-clock only,
never simulated time.

A verifier lives and dies with its pid: exit and execve drop it, fork
children start with an empty one — a sibling's pairs and thunks are
never consulted, so the cross-process counter divergence that
isolates processes isolates their verifiers by construction.
``Kernel(fastpath=False)`` / ``--no-fastpath`` runs without one: the
generic checker with a full CMAC on every trap, the paper's cold cost
model.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.cpu.memory import Memory, MemoryFault
from repro.cpu.vm import VM
from repro.crypto import MacProvider
from repro.kernel.auth import (
    MAX_RUNTIME_STRING,
    AuthViolation,
    CheckResult,
    read_hint_words,
)
from repro.kernel.costs import CostModel, mac_blocks
from repro.kernel.process import Process
from repro.obs import NULL_RECORDER, MetricsRegistry, Recorder
from repro.policy.authstrings import (
    AS_HEADER_SIZE,
    AuthenticatedString,
    CachedASReader,
)
from repro.policy.descriptor import PolicyDescriptor
from repro.policy.encode import unpack_predecessor_set
from repro.policy.patterns import Pattern, match_with_hint
from repro.policy.record import POLSTATE_SIZE, AuthRecord

#: lastBlock/lbMAC payload layout (see ``state_mac_payload``); packed
#: through a pre-compiled Struct so the hot path skips format parsing.
_STATE_PAYLOAD = struct.Struct("<IQ")
_LASTBLOCK = struct.Struct("<I")


class _Uncompilable(Exception):
    """Site cannot be specialized; the generic path serves it."""


class SiteThunk:
    """One compiled per-site verifier (see module docstring).

    Everything here is immutable after compilation; per-call state
    (the counter, the polstate bytes, runtime pattern arguments) is
    read live in :meth:`VerifierJit.execute`.
    """

    __slots__ = (
        "syscall_number",
        "record_ptr",
        "guards",
        "reg_checks",
        "patterns",
        "control",
        "record",
        "block_id",
        "blocks",
        "cycles",
        "fd_mask",
        "fd_allowed",
    )

    def __init__(
        self,
        syscall_number: int,
        record_ptr: int,
        guards: tuple,
        reg_checks: tuple,
        patterns: tuple,
        control: Optional[tuple],
        record: AuthRecord,
        blocks: int,
        cycles: int,
        fd_mask: int,
        fd_allowed: frozenset,
    ):
        self.syscall_number = syscall_number
        self.record_ptr = record_ptr
        #: ((region, version), ...) — every region one full verification
        #: read policy material from; any mismatch voids the thunk.
        self.guards = guards
        #: ((register index, expected value), ...) — the encoded-call
        #: reconstruction, collapsed to equality checks.
        self.reg_checks = reg_checks
        #: ((register index, Pattern, hint slots), ...) for §5.1 sites.
        self.patterns = patterns
        #: (lastblock_ptr, predecessor frozenset, packed block id) for
        #: control-flow-constrained sites, else None.
        self.control = control
        self.record = record
        self.block_id = record.block_id
        self.blocks = blocks
        self.cycles = cycles
        self.fd_mask = fd_mask
        self.fd_allowed = fd_allowed


class VerifierJit:
    """One process's verifier: verified pairs, AS parses, and thunks."""

    #: Verified-pair cap; a process has a fixed set of rewritten call
    #: sites, so overflow is pathology and answered with a full flush of
    #: pairs and thunks together, never an eviction policy.
    MAX_SITES = 4096

    #: A site whose guards keep failing (its policy material lives in
    #: memory that is legitimately written) stops being recompiled
    #: after this many invalidations — the generic path serves it.
    MAX_RECOMPILES = 8

    def __init__(
        self,
        provider: MacProvider,
        costs: CostModel,
        metrics: Optional[MetricsRegistry] = None,
        recorder: Recorder = NULL_RECORDER,
    ):
        self._provider = provider
        self._costs = costs
        self._metrics = metrics
        self._recorder = recorder
        self._pairs: dict[tuple[int, int], tuple[bytes, bytes]] = {}
        self._as_reader = CachedASReader()
        self._thunks: dict[int, SiteThunk] = {}
        self._invalidations: dict[int, int] = {}
        #: This process's fast-path tally (call-MAC checks served
        #: without a CMAC, and those that paid one).  The kernel adds to
        #: it once per trap and folds it into the task at teardown.
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        """Compiled thunks (the verified pairs are ``pairs``)."""
        return len(self._thunks)

    @property
    def pairs(self) -> int:
        return len(self._pairs)

    def thunk_at(self, call_site: int) -> Optional[SiteThunk]:
        """Test/introspection hook: the compiled thunk for a site."""
        return self._thunks.get(call_site)

    # -- verified pairs (the generic checker's call-MAC shortcut) --------

    def probe(
        self,
        call_site: int,
        descriptor: PolicyDescriptor,
        encoded_call: bytes,
        call_mac: bytes,
    ) -> bool:
        """True iff this exact (encoded call, MAC) pair was previously
        verified at this site — i.e. the full CMAC check may be skipped."""
        return self._pairs.get((call_site, int(descriptor))) == (
            encoded_call,
            call_mac,
        )

    def store(
        self,
        call_site: int,
        descriptor: PolicyDescriptor,
        encoded_call: bytes,
        call_mac: bytes,
    ) -> None:
        """Record a pair that just survived the full CMAC check."""
        if len(self._pairs) >= self.MAX_SITES:
            self._note_invalidated(len(self._thunks))
            self._thunks.clear()
            self._pairs.clear()
        self._pairs[(call_site, int(descriptor))] = (encoded_call, call_mac)

    def read_as(self, memory: Memory, string_address: int) -> AuthenticatedString:
        """Version-gated memoized AS parse (see CachedASReader)."""
        return self._as_reader.read(memory, string_address)

    # -- thunks ------------------------------------------------------------

    def execute(self, vm: VM, process: Process) -> Optional[CheckResult]:
        """Run the compiled verifier for the pending trap, if any.

        Returns a :class:`CheckResult` identical to what the generic
        checker's fast-path-hit branch would produce, or ``None`` to
        fall back.  Never raises and never mutates state (counter,
        polstate) unless every check has already passed."""
        thunk = self._thunks.get(vm.pc)
        if thunk is None:
            return None
        for region, version in thunk.guards:
            if region.version != version:
                # Policy material was written since compilation —
                # legitimately or not.  Void the thunk; the generic
                # checker re-reads live memory and decides.
                self._drop(vm.pc)
                return None
        regs = vm.regs
        if regs[0] != thunk.syscall_number or regs[7] != thunk.record_ptr:
            return None
        for index, expected in thunk.reg_checks:
            if regs[index] != expected:
                return None
        memory = vm.memory
        counter = process.auth_counter
        control = thunk.control
        if control is not None:
            lastblock_ptr, predecessors, block_prefix = control
            try:
                state = memory.read(lastblock_ptr, POLSTATE_SIZE, force=True)
            except MemoryFault:
                return None
            (last_block,) = _LASTBLOCK.unpack_from(state, 0)
            payload = _STATE_PAYLOAD.pack(
                last_block, counter & 0xFFFFFFFFFFFFFFFF
            )
            if not self._provider.verify(payload, bytes(state[4:])):
                return None  # replay/corruption; slow path fail-stops
            if last_block not in predecessors:
                return None  # control-flow violation; slow path reports
        if thunk.patterns:
            try:
                hints = read_hint_words(vm)
            except AuthViolation:
                return None
            cursor = 0
            for index, pattern, slots in thunk.patterns:
                try:
                    argument = memory.read_cstring(
                        regs[index], MAX_RUNTIME_STRING, force=True
                    )
                except MemoryFault:
                    return None
                hint = hints[cursor : cursor + slots]
                cursor += slots
                if len(hint) != slots or not match_with_hint(
                    pattern, argument, hint
                ):
                    return None
        # Every check passed; commit in the generic checker's order but
        # only after nothing can fail, so a fallback never re-runs the
        # memory checker against half-advanced state.
        if control is not None:
            new_counter = counter + 1
            new_mac = self._provider.tag(
                _STATE_PAYLOAD.pack(
                    thunk.block_id, new_counter & 0xFFFFFFFFFFFFFFFF
                )
            )
            try:
                memory.write(lastblock_ptr, block_prefix + new_mac, force=True)
            except MemoryFault:
                return None  # unwritable polstate; slow path fail-stops
            process.auth_counter = new_counter
        metrics = self._metrics
        if metrics is not None:
            metrics.inc("verifier.thunk_hits")
        rec = self._recorder
        if rec.enabled:
            rec.inc("verifier.thunk_hits")
        return CheckResult(
            syscall_number=thunk.syscall_number,
            block_id=thunk.block_id,
            record=thunk.record,
            mac_blocks=thunk.blocks,
            cycles=thunk.cycles,
            fd_mask=thunk.fd_mask,
            fd_allowed=thunk.fd_allowed,
            cache_hits=1,
            cache_misses=0,
        )

    # -- compilation -----------------------------------------------------

    def compile_site(
        self, vm: VM, process: Process, result: CheckResult
    ) -> Optional[SiteThunk]:
        """Specialize the site of the trap that ``result`` just fully
        verified.  Reads the same policy material the check read (memoized
        through the AS cache) and snapshots the write version of every
        region it came from."""
        call_site = vm.pc
        if self._invalidations.get(call_site, 0) >= self.MAX_RECOMPILES:
            return None
        rec = self._recorder
        traced = rec.enabled
        if traced:
            rec.begin("verifier-compile", "verify")
        try:
            thunk = self._build(vm, result)
        except (_Uncompilable, MemoryFault):
            thunk = None
        finally:
            if traced:
                rec.end()
        if thunk is None:
            return None
        self._thunks[call_site] = thunk
        metrics = self._metrics
        if metrics is not None:
            metrics.inc("verifier.thunks_compiled")
        if traced:
            rec.inc("verifier.thunks_compiled")
        return thunk

    def _build(self, vm: VM, result: CheckResult) -> SiteThunk:
        record = result.record
        descriptor = record.descriptor
        memory = vm.memory
        regs = vm.regs
        record_ptr = regs[7]
        read_as = self.read_as
        guards: dict[int, tuple] = {}

        def guard(address: int) -> None:
            region = memory.region_at(address)  # MemoryFault if unmapped
            guards[id(region)] = (region, region.version)

        def guard_as(address: int, length: int) -> None:
            guard(address - AS_HEADER_SIZE)
            guard(address)
            if length:
                guard(address + length - 1)

        guard(record_ptr)
        guard(record_ptr + record.size - 1)

        reg_checks: list[tuple[int, int]] = []
        patterns: list[tuple[int, Pattern, int]] = []
        blocks = 0
        pattern_cursor = 0
        for index in range(6):
            is_pattern = descriptor.param_is_pattern(index)
            if not descriptor.param_constrained(index) and not is_pattern:
                continue
            if descriptor.param_is_string(index):
                if is_pattern:
                    address = record.pattern_ptrs[pattern_cursor]
                    pattern_cursor += 1
                else:
                    address = regs[1 + index]
                    reg_checks.append((1 + index, address))
                auth_string = read_as(memory, address)
                blocks += mac_blocks(auth_string.length)
                guard_as(address, auth_string.length)
                if is_pattern:
                    try:
                        pattern = Pattern.parse(
                            auth_string.content.decode("utf-8")
                        )
                    except (UnicodeDecodeError, ValueError) as err:
                        raise _Uncompilable(str(err)) from err
                    patterns.append((1 + index, pattern, pattern.hint_slots))
            else:
                reg_checks.append((1 + index, regs[1 + index]))

        control = None
        if descriptor.control_flow_constrained:
            predset_as = read_as(memory, record.predset_ptr)
            blocks += mac_blocks(predset_as.length)
            guard_as(record.predset_ptr, predset_as.length)
            predecessors = unpack_predecessor_set(predset_as.content)
            blocks += 2 * mac_blocks(_STATE_PAYLOAD.size)
            control = (
                record.lastblock_ptr,
                predecessors,
                _LASTBLOCK.pack(record.block_id),
            )

        fd_allowed: frozenset = frozenset()
        if descriptor.capability_tracked:
            fd_as = read_as(memory, record.fd_allowed_ptr)
            blocks += mac_blocks(fd_as.length)
            guard_as(record.fd_allowed_ptr, fd_as.length)
            fd_allowed = unpack_predecessor_set(fd_as.content)

        return SiteThunk(
            syscall_number=result.syscall_number,
            record_ptr=record_ptr,
            guards=tuple(guards.values()),
            reg_checks=tuple(reg_checks),
            patterns=tuple(patterns),
            control=control,
            record=record,
            blocks=blocks,
            cycles=self._costs.auth_cost_fastpath(blocks, 1),
            fd_mask=record.fd_mask,
            fd_allowed=fd_allowed,
        )

    # -- lifecycle -------------------------------------------------------

    def _drop(self, call_site: int) -> None:
        del self._thunks[call_site]
        self._invalidations[call_site] = (
            self._invalidations.get(call_site, 0) + 1
        )
        self._note_invalidated(1)

    def _note_invalidated(self, count: int) -> None:
        metrics = self._metrics
        if metrics is not None:
            metrics.inc("verifier.thunks_invalidated", count)
        rec = self._recorder
        if rec.enabled:
            rec.inc("verifier.thunks_invalidated", count)

    def invalidate(self) -> int:
        """Drop everything (process exit/execve); returns the number of
        entries dropped.  Thunks count into
        ``verifier.thunks_invalidated``; verified pairs and memoized AS
        parses into ``fastpath.invalidations``."""
        entries = len(self._pairs) + len(self._as_reader)
        thunks = len(self._thunks)
        metrics = self._metrics
        if metrics is not None:
            metrics.inc("fastpath.invalidations", entries)
        rec = self._recorder
        if rec.enabled:
            rec.inc("fastpath.invalidations", entries)
        if thunks:
            self._note_invalidated(thunks)
        self._thunks.clear()
        self._invalidations.clear()
        self._pairs.clear()
        self._as_reader.clear()
        return thunks + entries
