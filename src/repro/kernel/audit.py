"""Kernel audit log.

§3.4: on a failed check the kernel "terminates the process, logs the
system call, and alerts the administrator".  The audit log is the
administrator-visible record; attack tests and benchmarks assert
against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.obs.metrics import MetricsRegistry


@dataclass(frozen=True)
class AuditEvent:
    kind: str  # "killed" | "blocked" | "alert" | "info"
    pid: int
    program: str
    syscall: Optional[str]
    reason: str
    call_site: Optional[int] = None

    def render(self) -> str:
        site = f" site={self.call_site:#010x}" if self.call_site is not None else ""
        call = f" syscall={self.syscall}" if self.syscall else ""
        return f"[{self.kind}] pid={self.pid} {self.program}{call}{site}: {self.reason}"


@dataclass(frozen=True)
class FastPathSnapshot:
    """An immutable copy of the fast-path counters at one instant.

    :meth:`FastPathStats.reset` returns one of these so a caller that
    resets between benchmark phases reads a consistent triple — reading
    the live stats after the reset (or while another phase has already
    started accumulating) races.
    """

    hits: int = 0
    misses: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class FastPathStats:
    """Machine-wide verification fast-path counters.

    ``hits``/``misses`` count per-site call-MAC cache probes (a miss
    includes both cold sites and tampered re-probes that fell back to
    the full CMAC); ``invalidations`` counts cache entries dropped at
    process exit/exec.  Benchmarks and the audit trail use these to
    report fast-path coverage alongside the timing tables.

    This is a *view* over a :class:`repro.obs.metrics.MetricsRegistry`
    (the kernel's, so the same numbers appear in ``repro metrics``
    dumps under ``fastpath.*``) plus the tallies in ``live`` that are
    not folded into it yet: the kernel counts each trap once, in its
    process's verifier, and folds the verifier in when the process
    ends, so reads in the middle of a run stay exact.  Standalone
    construction gets a private registry and behaves exactly like the
    old dataclass.
    """

    __slots__ = ("_registry", "_live")

    def __init__(
        self,
        hits: int = 0,
        misses: int = 0,
        invalidations: int = 0,
        registry: Optional[MetricsRegistry] = None,
        live: Optional[Mapping] = None,
    ):
        self._registry = registry if registry is not None else MetricsRegistry()
        #: Objects with ``hits``/``misses`` tallies (the kernel's
        #: per-process verifiers), by any key.
        self._live = live if live is not None else {}
        if hits:
            self._registry.set("fastpath.hits", hits)
        if misses:
            self._registry.set("fastpath.misses", misses)
        if invalidations:
            self._registry.set("fastpath.invalidations", invalidations)

    # -- counter views ---------------------------------------------------

    def _unfolded(self, name: str) -> int:
        return sum(getattr(tally, name) for tally in self._live.values())

    @property
    def hits(self) -> int:
        return self._registry.get("fastpath.hits") + self._unfolded("hits")

    @hits.setter
    def hits(self, value: int) -> None:
        self._registry.set("fastpath.hits", value - self._unfolded("hits"))

    @property
    def misses(self) -> int:
        return self._registry.get("fastpath.misses") + self._unfolded("misses")

    @misses.setter
    def misses(self, value: int) -> None:
        self._registry.set("fastpath.misses", value - self._unfolded("misses"))

    @property
    def invalidations(self) -> int:
        return self._registry.get("fastpath.invalidations")

    @invalidations.setter
    def invalidations(self, value: int) -> None:
        self._registry.set("fastpath.invalidations", value)

    # -- derived ---------------------------------------------------------

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> FastPathSnapshot:
        return FastPathSnapshot(self.hits, self.misses, self.invalidations)

    def reset(self) -> FastPathSnapshot:
        """Zero the counters; returns the pre-reset snapshot so callers
        interleaving measurement phases cannot race the reset."""
        snapshot = self.snapshot()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        return snapshot

    def render(self) -> str:
        return (
            f"fastpath: {self.hits} hits / {self.misses} misses "
            f"({100.0 * self.hit_rate():.1f}% hit rate), "
            f"{self.invalidations} entries invalidated"
        )


@dataclass
class AuditLog:
    events: list[AuditEvent] = field(default_factory=list)
    fastpath: FastPathStats = field(default_factory=FastPathStats)

    def record(self, event: AuditEvent) -> None:
        self.events.append(event)

    def kills(self) -> list[AuditEvent]:
        return [e for e in self.events if e.kind == "killed"]

    def alerts(self) -> list[AuditEvent]:
        return [e for e in self.events if e.kind in ("killed", "blocked", "alert")]

    def clear(self) -> None:
        self.events.clear()
        self.fastpath.reset()

    def __len__(self) -> int:
        return len(self.events)
