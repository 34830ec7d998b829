"""Sweep execution: a scheduler client plus the on-disk stores.

Every figure in the paper is a sweep over (workload x policy x quantum x
instance-count) points that are completely independent of one another,
so they parallelise trivially.  :class:`SweepRunner` used to *be* the
scheduler; it is now one client of :class:`~repro.sim.jobs.Scheduler`:
each point is submitted as a job under the runner's tenant and the
outcomes are merged back **in spec order** regardless of completion
order, so a parallel sweep is bit-identical to the serial reference
(``jobs=1``).  Hand the runner a
shared scheduler — or a :class:`~repro.sim.client.ServeClient` attached
to a running ``repro serve`` daemon — and the same sweep rides a
long-lived multi-tenant worker fleet instead of a private pool.

Completed points are stored in an on-disk :class:`ResultCache` keyed by
:meth:`ExperimentSpec.spec_key` — a stable content hash of the spec and
its fully-resolved machine configuration — plus the verify flag and
:data:`RESULTS_VERSION`.  Re-running a sweep only executes points whose
spec (or the result schema) changed; everything else is a cache hit.

Every file in the cache directory (default ``benchmarks/results/cache/``)
belongs to one :class:`~repro.sim.store.Store`::

    cache/
      objects/
        <first two hex digits>/
          <key>.pkl        # ResultCache: pickled RunOutcome (one copy)
          <key>.json       # CheckpointStore: warm-start checkpoint
          <key>.job.json   # Journal: a live job's latest checkpoint
      ns/
        <tenant>/
          <key>.ref        # this tenant touched that result
      journal.log          # Journal: the scheduler's write-ahead log

Outcomes are pure functions of the spec key, so objects are shared
across tenants — concurrent tenants *share hits* — while each tenant's
``ns/`` subdirectory records which results it uses, for accounting and
pruning.  Workers never touch the store: outcomes are marshalled back
to the scheduler, which is the single writer.
"""

from __future__ import annotations

import json
import pickle
import queue as _queue
import time
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import Callable, Sequence

from ..errors import DaemonLostError, ExperimentError
from ..machine import CHECKPOINT_VERSION, decode_checkpoint
from .experiment import ExperimentSpec, RunOutcome
from .jobs import Job, JobState, Scheduler
from .store import (
    CHECKPOINT,
    DEFAULT_TENANT,
    RESULT,
    Store,
    default_cache_dir,  # re-exported: callers import it from here too
    validate_namespace,
)

#: Bump when the semantics of :class:`RunOutcome` (or of running an
#: experiment point) change in a way that stales previously cached
#: results despite an unchanged spec.
RESULTS_VERSION = 1

#: Progress callback: ``(done, total, index, cached)`` where ``index``
#: is the position of the just-finished point in the submitted spec list
#: and ``cached`` is True when it was served from the result cache.
SweepProgressFn = Callable[[int, int, int, bool], None]


class ResultCache:
    """Pickled :class:`RunOutcome` objects with per-tenant refs.

    Objects are keyed purely by content hash, so every tenant sees
    every hit; each load or store records a ref for the tenant passed
    with it.  Load failures of any kind (missing file, truncated
    pickle, stale classes) are cache misses — the cache is an
    accelerator, never a source of errors.
    """

    def __init__(self, root: Path | str) -> None:
        self.disk = Store(root)

    @property
    def evictions(self) -> int:
        """Corrupt objects :meth:`load` deleted (see ``Store.evictions``)."""
        return self.disk.evictions

    def key(self, spec: ExperimentSpec, verify: bool) -> str:
        blob = f"{spec.spec_key()}:verify={int(bool(verify))}:v={RESULTS_VERSION}"
        return sha256(blob.encode("utf-8")).hexdigest()

    def path(self, key: str) -> Path:
        return self.disk.path(key, RESULT)

    def load(self, spec: ExperimentSpec, verify: bool,
             tenant: str = DEFAULT_TENANT) -> RunOutcome | None:
        key = self.key(spec, verify)
        outcome = self.disk.read(key, RESULT, pickle.loads)
        # Guard against (astronomically unlikely) key collisions and
        # against keys minted by an older hashing scheme.  These entries
        # are *valid* pickles for some other point, so leave them alone.
        if not isinstance(outcome, RunOutcome) or outcome.spec != spec:
            return None
        self.disk.touch_ref(key, tenant)
        return outcome

    def store(self, spec: ExperimentSpec, verify: bool, outcome: RunOutcome,
              tenant: str = DEFAULT_TENANT) -> None:
        key = self.key(spec, verify)
        self.disk.write(
            key, RESULT,
            pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL),
        )
        self.disk.touch_ref(key, tenant)


class CheckpointStore:
    """JSON-per-point machine checkpoints keyed by ``spec_key``.

    Unlike the result cache the key is *verify-independent*: output
    verification only reads end state, so the machine's evolution — and
    hence any mid-run checkpoint — is identical either way.  It is also
    namespace-free: a checkpoint is a pure function of the spec, so
    every tenant shares the same entry.  Load failures are misses; a
    stale checkpoint is additionally rejected by the spec-key
    cross-check in :func:`~repro.sim.experiment.run_experiment_capturing`.
    """

    def __init__(self, root: Path | str) -> None:
        self.disk = Store(root)

    @property
    def evictions(self) -> int:
        """Corrupt objects :meth:`load` deleted (see ``Store.evictions``)."""
        return self.disk.evictions

    def key(self, spec: ExperimentSpec) -> str:
        blob = f"{spec.spec_key()}:ckpt:v={CHECKPOINT_VERSION}"
        return sha256(blob.encode("utf-8")).hexdigest()

    def path(self, key: str) -> Path:
        return self.disk.path(key, CHECKPOINT)

    def load(self, spec: ExperimentSpec) -> dict | None:
        return self.disk.read(self.key(spec), CHECKPOINT, decode_checkpoint)

    def store(self, spec: ExperimentSpec, checkpoint: dict) -> None:
        self.disk.write(
            self.key(spec), CHECKPOINT, json.dumps(checkpoint).encode("utf-8")
        )


@dataclass
class SweepStats:
    """Accumulated accounting across every sweep a runner executed."""

    points: int = 0
    executed: int = 0
    cache_hits: int = 0
    #: Points absorbed by an identical in-flight job (shared scheduler).
    coalesced: int = 0
    #: Executed points that resumed from a stored machine checkpoint.
    warm_started: int = 0
    #: Executed points that produced a checkpoint for future warm starts.
    captured: int = 0
    #: Retries after a pool worker died mid-point.
    worker_retries: int = 0
    #: Slice preemptions absorbed by the scheduler for our points.
    preemptions: int = 0
    #: Corrupt cache/checkpoint files deleted during loads.
    cache_evictions: int = 0
    elapsed: float = 0.0


class SweepRunner:
    """Execute experiment sweeps through the job scheduler.

    ``jobs=1`` (the default) is the serial reference path: points run
    in submission order in this process, exactly as the figures did
    before this engine existed.  ``jobs>1`` fans cache misses out over
    a private worker pool.  Passing ``scheduler`` (a live
    :class:`~repro.sim.jobs.Scheduler` or a
    :class:`~repro.sim.client.ServeClient` connected to a daemon)
    submits through that shared backend instead — tenants, preemption
    and all.  Results are merged back into submission order,
    so the output is bit-identical in every mode.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | None = None,
        checkpoints: CheckpointStore | None = None,
        scheduler=None,
        tenant: str = DEFAULT_TENANT,
    ) -> None:
        if jobs < 1:
            raise ExperimentError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.checkpoints = checkpoints
        self.scheduler = scheduler
        self.tenant = validate_namespace(tenant)
        self.stats = SweepStats()

    def run(
        self,
        specs: Sequence[ExperimentSpec],
        verify: bool = False,
        progress: SweepProgressFn | None = None,
    ) -> list[RunOutcome]:
        start = time.perf_counter()
        total = len(specs)
        results: list[RunOutcome | None] = [None] * total

        backend = self.scheduler
        owned = backend is None
        if owned:
            backend = Scheduler(
                workers=0 if self.jobs == 1 else self.jobs,
                cache=self.cache,
                checkpoints=self.checkpoints,
            )

        done_q: _queue.SimpleQueue = _queue.SimpleQueue()
        finished = 0

        def finish(index: int, job: Job) -> None:
            if job.state is not JobState.DONE:
                if job.daemon_lost:
                    # The daemon went away, not the experiment: raise
                    # the typed error so callers can restart/resubmit.
                    raise DaemonLostError(
                        f"sweep point {index} lost with its daemon: "
                        f"{job.error}"
                    )
                raise ExperimentError(
                    f"sweep point {index} {job.state.value}: {job.error}"
                )
            results[index] = job.outcome
            if job.cached:
                self.stats.cache_hits += 1
            elif job.coalesced:
                self.stats.coalesced += 1
            else:
                self.stats.executed += 1
            if job.warm_started:
                self.stats.warm_started += 1
            if job.stored_checkpoint:
                self.stats.captured += 1
            self.stats.worker_retries += job.retries
            self.stats.preemptions += job.preemptions

        def drain(block: bool) -> None:
            nonlocal finished
            while finished < total:
                try:
                    index, job = done_q.get(block=block)
                except _queue.Empty:
                    return
                finish(index, job)
                finished += 1
                if progress is not None:
                    progress(finished, total, index, job.cached)
                block = False  # after one blocking get, sip the rest

        try:
            for index, spec in enumerate(specs):
                job = backend.submit(spec, tenant=self.tenant, verify=verify)
                job.add_done_callback(
                    lambda job, index=index: done_q.put((index, job))
                )
                # Keep serial/interactive progress timely: report every
                # point that completed while we were submitting.
                drain(block=False)
            while finished < total:
                drain(block=True)
        finally:
            if owned:
                backend.shutdown(wait=True, cancel_pending=True)
            for view in (self.cache, self.checkpoints):
                if view is not None:
                    self.stats.cache_evictions += view.disk.evictions
                    view.disk.evictions = 0
            self.stats.points += total
            self.stats.elapsed += time.perf_counter() - start

        assert all(outcome is not None for outcome in results)
        return results  # type: ignore[return-value]
