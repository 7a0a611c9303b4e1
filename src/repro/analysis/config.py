"""Path-scoped configuration for the repro lint rules.

The analyzer enforces three contract families with different blast radii:

* the **snapshot contract** applies to any class that implements the
  ``snapshot()``/``restore()`` pair, wherever it lives;
* the **determinism contract** applies only to modules on the simulator /
  identity path — code whose behaviour feeds run ids, golden results,
  shard ids or journaled outcomes.  Every module outside those prefixes
  (observability, the CLI, the store) may read clocks;
* the **process-safety contract** applies to the modules that build
  worker entry points, shard payloads and crash-safe journals.

A :class:`LintConfig` captures those scopes as dotted-module prefixes so
tests can retarget the rules at fixture modules, and so future subsystems
opt in by prefix instead of by editing rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: Method-name pairs recognised as the snapshot/restore contract surface.
SNAPSHOT_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("snapshot", "restore"),
    ("snapshot_state", "restore_state"),
)

#: Methods whose return value is a ``set`` by repo convention; iterating
#: one unsorted is order-unstable by construction.
SET_RETURNING_METHODS: Tuple[str, ...] = ("drain_dirty",)


def _module_matches(module: str, prefixes: Tuple[str, ...]) -> bool:
    """True when ``module`` equals a prefix or lives under one."""
    for prefix in prefixes:
        if not prefix or module == prefix or module.startswith(prefix + "."):
            return True
    return False


@dataclass(frozen=True)
class LintConfig:
    """Which rules look at which modules.

    Prefixes are dotted module names; a module matches a prefix when it is
    the prefix itself or any submodule of it.  The empty-string prefix
    matches everything (used by the rule fixtures).
    """

    #: Modules on the simulator / identity path: anything here must be a
    #: pure function of its inputs (no wall clock, no unseeded RNG, no
    #: hash-order-dependent iteration).
    determinism_scope: Tuple[str, ...] = (
        "repro.uarch",
        "repro.isa",
        "repro.faults",
        "repro.api.spec",
        "repro.cluster.shards",
        "repro.cluster.journal",
        "repro.cluster.merge",
    )

    #: Modules that spawn workers or are imported by worker processes.
    process_scope: Tuple[str, ...] = ("repro.cluster", "repro.api")
    #: Modules whose dataclasses travel as cross-process payloads and must
    #: therefore be frozen (hashable, immutable, safely picklable).
    payload_modules: Tuple[str, ...] = (
        "repro.cluster.shards",
        "repro.cluster.transport",
        "repro.api.spec",
        "repro.faults.model",
    )
    #: Modules holding crash-safe append-only logs: every file write there
    #: must be followed by flush + fsync in the same function.
    journal_modules: Tuple[str, ...] = ("repro.cluster.journal",)
    #: Modules whose renames commit campaign state: an ``os.replace`` /
    #: ``fs.replace`` is atomic but not *durable* until the parent
    #: directory is fsynced, so every rename there must be paired with a
    #: ``fsync_dir`` in the same function.
    durable_modules: Tuple[str, ...] = (
        "repro.api.store",
        "repro.cluster.artifacts",
        "repro.cluster.journal",
    )

    #: Method names whose result is known to be a ``set``.
    set_returning: Tuple[str, ...] = SET_RETURNING_METHODS
    #: Recognised snapshot/restore method-name pairs.
    snapshot_pairs: Tuple[Tuple[str, str], ...] = SNAPSHOT_PAIRS
    #: The dirty-set attribute name the delta-checkpoint contract uses.
    dirty_attr: str = "_dirty"
    #: Dirty-tracking protocol methods (presence marks a tracked class).
    dirty_protocol: Tuple[str, ...] = ("begin_dirty_tracking", "drain_dirty")

    # ------------------------------------------------------------------
    def in_determinism_scope(self, module: str) -> bool:
        return _module_matches(module, self.determinism_scope)

    def in_process_scope(self, module: str) -> bool:
        return _module_matches(module, self.process_scope)

    def in_payload_scope(self, module: str) -> bool:
        return _module_matches(module, self.payload_modules)

    def in_journal_scope(self, module: str) -> bool:
        return _module_matches(module, self.journal_modules)

    def in_durable_scope(self, module: str) -> bool:
        return _module_matches(module, self.durable_modules)


#: The repository's own scoping — what `repro lint` and CI enforce.
DEFAULT_CONFIG = LintConfig()


def fixture_config() -> LintConfig:
    """A config whose every scope matches every module (rule fixtures)."""
    return LintConfig(
        determinism_scope=("",),
        process_scope=("",),
        payload_modules=("",),
        journal_modules=("",),
        durable_modules=("",),
    )
