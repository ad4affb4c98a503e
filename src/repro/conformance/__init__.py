"""Differential conformance fuzzing across engine configurations.

Seeded generator (:mod:`.grammar`) -> every-config oracle
(:mod:`.oracle`) -> minimizing shrinker (:mod:`.shrink`) -> pinned
reproducer corpus (:mod:`.corpus`), orchestrated by the sweep
(:mod:`.sweep`) behind ``repro conform``.
"""

from repro.conformance.corpus import (
    CorpusEntry,
    DEFAULT_CORPUS_DIR,
    load_entries,
    make_entry,
    seed_corpus,
    write_entry,
)
from repro.conformance.grammar import (
    DEFAULT_TIMESLICE,
    GenOp,
    ProgramSpec,
    build,
    generate_specs,
    render,
)
from repro.conformance.oracle import (
    ProgramOutcome,
    divergences,
    install_spec,
    run_all_configs,
    run_program,
    spec_diverges,
)
from repro.conformance.shrink import ShrinkResult, shrink_spec
from repro.conformance.sweep import ConformanceReport, run_conformance

__all__ = [
    "ConformanceReport",
    "CorpusEntry",
    "DEFAULT_CORPUS_DIR",
    "DEFAULT_TIMESLICE",
    "GenOp",
    "ProgramOutcome",
    "ProgramSpec",
    "ShrinkResult",
    "build",
    "divergences",
    "generate_specs",
    "install_spec",
    "load_entries",
    "make_entry",
    "render",
    "run_all_configs",
    "run_conformance",
    "run_program",
    "seed_corpus",
    "shrink_spec",
    "spec_diverges",
    "write_entry",
]
