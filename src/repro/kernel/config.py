"""The kernel/engine configurations.

One :class:`EngineConfig` names one way to run the same machine: which
CPU engine executes guest code, and whether the kernel keeps
per-process verifiers (the fast path) or runs the generic checker on
every trap.  Every configuration enforces the same authenticated-syscall
semantics, so the attack battery, the fault sweep and the conformance
oracle replay their work on each entry of :data:`CONFIGS` and demand
identical verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EngineConfig:
    """One kernel/engine configuration (the ``Kernel`` knobs it sets)."""

    name: str
    engine: str
    fastpath: bool = True

    def kernel_kwargs(self) -> dict:
        return {"engine": self.engine, "fastpath": self.fastpath}


#: The three configurations of the verification/execution stack: the
#: reference interpreter, the chained threaded engine (the kernel's
#: defaults), and the fast path disabled (the generic checker with a
#: full CMAC on every trap: the paper's cold cost model).  Detection
#: coverage is a security property and must be identical on all three.
CONFIGS = (
    EngineConfig("interp", "interp"),
    EngineConfig("chained", "threaded"),
    EngineConfig("no-fastpath", "threaded", fastpath=False),
)

CONFIG_NAMES = tuple(config.name for config in CONFIGS)

#: The configuration a bare ``Kernel()`` runs.
DEFAULT_CONFIG = CONFIGS[1]


def configs_named(names=None) -> tuple:
    """Resolve config names to :data:`CONFIGS` entries (all when None)."""
    if not names:
        return CONFIGS
    by_name = {config.name: config for config in CONFIGS}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        raise ValueError(f"unknown engine config(s): {', '.join(unknown)}")
    return tuple(by_name[name] for name in names)
