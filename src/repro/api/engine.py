"""Pluggable execution engines: two routes from spec to outcome, five names.

An :class:`ExecutionEngine` takes a list of independent campaign specs and
returns their outcomes in order, by one of two routes.
:class:`SerialEngine` runs them one by one through a shared
:class:`~repro.api.session.Session` — the reference path — optionally
fast-forwarding injection runs from golden checkpoints.
:class:`~repro.cluster.engine.ClusterEngine` plans, shards, journals and
merges over a worker transport (local pool or remote agents).
:func:`make_engine` maps ``serial``/``checkpoint`` onto the first and
``process`` (an alias of ``cluster``)/``cluster``/``remote`` onto the
second; outcomes are bit-identical and run ids never depend on the engine.

All engines report through the same progress hook: ``progress(done,
total)`` fires as work units complete; ``progress_unit`` names the unit.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Protocol, Sequence

from repro import obs
from repro.api.result import CampaignOutcome
from repro.api.session import Session
from repro.api.spec import CampaignSpec
from repro.api.store import ResultStore
from repro.faults.campaign import ProgressCallback


class ExecutionEngine(Protocol):
    """Anything that can run a batch of campaign specs."""

    progress_unit: str

    def run(
        self,
        specs: Sequence[CampaignSpec],
        store: Optional[ResultStore] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> List[CampaignOutcome]:
        """Run every spec and return outcomes in the input order."""
        ...


class SerialEngine:
    """Run specs sequentially through one shared session.

    ``checkpointing=True`` runs every injection fast-forwarded: golden runs
    capture a machine-state checkpoint timeline and the order in which
    they read and overwrite every fault-target cell, and each injection
    run skips to the next read: it restores the last checkpoint before
    its flipped cells are first read, jumps ahead again while it differs
    from the golden run only in stored values that are read later, and
    ends with the golden result once no differing value is read again
    (see :func:`~repro.faults.injector.inject_fault`).  Outcomes are
    bit-identical either way — only wall clock changes.  Snapshots start
    at cycle 0, 64 cycles apart, and the spacing doubles whenever more
    than 32 accrue (see README, "Checkpoint spacing").
    """

    progress_unit = "campaigns"

    def __init__(self, session: Optional[Session] = None,
                 checkpointing: bool = False):
        self.session = session
        self.checkpointing = checkpointing

    @property
    def name(self) -> str:
        return "checkpoint" if self.checkpointing else "serial"

    def run(
        self,
        specs: Sequence[CampaignSpec],
        store: Optional[ResultStore] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> List[CampaignOutcome]:
        session = self.session
        if session is None:
            session = Session(checkpointing=self.checkpointing)
        # Configure an injected session for this run only: an explicit
        # store wins over its own, and checkpointing is switched on for
        # this batch alone, so swapping engines never silently changes
        # where results land or how a shared session runs later batches.
        overrides: Dict[str, Any] = {}
        if store is not None:
            overrides["store"] = store
        if self.checkpointing:
            overrides["checkpointing"] = True
        previous = {key: getattr(session, key) for key in overrides}
        for key, value in overrides.items():
            setattr(session, key, value)
        try:
            outcomes: List[CampaignOutcome] = []
            total = len(specs)
            obs_ctx = obs.active()
            for index, spec in enumerate(specs):
                if obs_ctx is None:
                    outcomes.append(session.run(spec))
                else:
                    from_store = (session.store is not None
                                  and session.store.has(spec.run_id()))
                    with obs_ctx.span("campaign", run_id=spec.run_id(),
                                      engine=self.name):
                        outcomes.append(session.run(spec))
                    if from_store:
                        obs_ctx.campaign_from_store()
                    else:
                        obs_ctx.campaign_done()
                if progress is not None:
                    progress(index + 1, total)
            return outcomes
        finally:
            for key, value in previous.items():
                setattr(session, key, value)


#: Engine names accepted by the CLI's ``--engine`` flag.
ENGINES = ("serial", "process", "checkpoint", "cluster", "remote")

#: The names that run through the cluster engine (plan/shard/journal/merge).
_SHARDED = ("process", "cluster", "remote")


def make_engine(name: str, max_workers: Optional[int] = None,
                shard_size: Optional[int] = None,
                cache_dir: Optional[str] = None,
                resume: bool = False,
                hosts: Optional[str] = None) -> ExecutionEngine:
    """Build an engine by CLI name, refusing knobs it would ignore."""
    if name not in ENGINES:
        raise ValueError(f"unknown engine {name!r}; expected one of {ENGINES}")
    for flag, value, engines in (
            ("workers", max_workers, ("process", "cluster")),
            ("shard_size", shard_size, _SHARDED),
            ("cache_dir", cache_dir, _SHARDED),
            ("resume", resume or None, _SHARDED),
            ("hosts", hosts, ("remote",))):
        if value is not None and name not in engines:
            raise ValueError(
                f"{flag} does not apply to the {name} engine, only to "
                f"{'/'.join(engines)}"
            )
    if name in ("serial", "checkpoint"):
        return SerialEngine(checkpointing=name == "checkpoint")
    # Imported here: repro.cluster builds on this module's siblings.
    from repro.cluster.engine import ClusterEngine

    transport = None
    if name == "remote":
        from repro.cluster.remote import parse_hosts
        from repro.cluster.transport import TcpAgentTransport

        addresses = parse_hosts(hosts)
        if not addresses:
            raise ValueError(
                "the remote engine needs --hosts HOST:PORT[,HOST:PORT...]")
        transport = TcpAgentTransport(addresses)
    return ClusterEngine(
        max_workers=max_workers,
        shard_size=shard_size,
        cache_dir=cache_dir,
        resume=resume,
        transport=transport,
    )
