"""Job scheduling core: the machinery behind simulation-as-a-service.

The paper's kernel multiplexes one FPL between competing processes
without flushing state on a context switch; this module mirrors that
shape one level up, multiplexing a pool of simulator workers between
competing experiment *jobs* without losing progress on a preemption.
Three pieces:

* :class:`Job` — one submitted experiment point: tenant, verify flag
  and a completion handle (``result()``, done callbacks, streamed
  lifecycle events).  The daemon client's
  :class:`~repro.sim.client.RemoteJob` is a :class:`Job` too, driven
  by the daemon's event stream.
* :class:`JobQueue` — the pending jobs in FIFO order.  A preempted job
  rejoins at the tail, so the pool round-robins between jobs the way
  the paper's kernel round-robins between processes.
* :class:`Scheduler` — a worker-pool executor.  Jobs run either to
  completion or, when ``slice_quanta`` is set, in bounded *slices*:
  the worker runs the machine for at most N scheduler quanta, then
  checkpoints it (the proven :meth:`~repro.machine.Machine.checkpoint`
  protocol) and hands the state back.  Between slices the job owns no
  worker — that is eviction — and the next slice may land on any
  worker — that is migration.  Checkpoints are exact, so a sliced,
  migrated run is bit-identical to an uninterrupted one.

The scheduler folds in the sweep engine's robustness duties: a dead
pool worker (:class:`BrokenProcessPool`) rebuilds the pool and retries
the casualty from its last checkpoint, degrading to in-process
execution after repeated failures; shutdown cancels everything pending
and leaves no orphaned worker behind.

Two crash-safety layers sit on top (see :mod:`repro.sim.journal`):

* an optional write-ahead **journal** records submissions, lifecycle
  transitions and latest-checkpoint refs, so :meth:`Scheduler.recover`
  can requeue everything a killed daemon left behind — idempotently,
  deduplicated on ``(tenant, spec_key, verify)``;
* a **watchdog** catches workers that are alive but *hung* (a case
  ``BrokenProcessPool`` never reports): a slice that overruns its
  wall-clock deadline gets its pool killed and rotated, and the job
  requeued from its last checkpoint under a bounded strike budget —
  after :data:`MAX_HANG_STRIKES` strikes the job quarantine-fails
  instead of eating workers forever.

:meth:`Scheduler.drain` is the graceful sibling of ``shutdown``: stop
dispatching, let in-flight slices checkpoint and journal themselves,
and leave pending jobs journaled (not cancelled) for the next daemon
to recover.

``workers=0`` is the serial reference path: jobs execute inline in the
submitting thread, exactly like the pre-scheduler ``SweepRunner``.
Results are bit-identical across all of it — inline vs. pool, sliced
vs. straight, migrated vs. pinned.
"""

from __future__ import annotations

import collections
import itertools
import os
import signal
import threading
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from ..errors import DaemonLostError, ExperimentError, ReproError
from .experiment import (
    ExperimentSpec,
    RunOutcome,
    run_experiment_capturing,
    start_machine,
)
from .store import DEFAULT_TENANT, validate_namespace

__all__ = [
    "DEFAULT_TENANT",
    "Job",
    "JobState",
    "JobQueue",
    "Scheduler",
    "SchedulerStats",
    "TERMINAL_STATES",
]

#: Pool rebuilds tolerated per job before it runs inline in the parent.
MAX_WORKER_RETRIES = 2

#: Hung-worker kills tolerated per job before it quarantine-fails.
#: Unlike worker *deaths* (which degrade to inline execution), a job
#: that repeatedly hangs its worker must never run inline — it would
#: hang the dispatcher itself.
MAX_HANG_STRIKES = 2

#: Fraction of the per-slice deadline between watchdog sweeps.
WATCHDOG_RESOLUTION = 0.25


class JobState(str, Enum):
    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: The states that end a job's life; each also names the lifecycle
#: event a job streams when it reaches it.
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})


#: Lifecycle listener: ``(job, kind, payload)`` where kind is one of
#: ``running`` / ``preempted`` / ``hung`` / ``done`` / ``failed`` /
#: ``cancelled``.  Fired on scheduler threads — listeners must be quick
#: and thread-safe (the daemon bridges them onto its event loop).
JobListener = Callable[["Job", str, dict], None]


class Job:
    """One submitted experiment point plus its completion handle."""

    #: The daemon this handle was served by is gone for good (only a
    #: :class:`~repro.sim.client.RemoteJob` ever sets it).
    daemon_lost = False

    def __init__(
        self,
        job_id: int,
        spec: ExperimentSpec,
        *,
        tenant: str = DEFAULT_TENANT,
        verify: bool = False,
    ) -> None:
        self.id = job_id
        self.spec = spec
        self.tenant = tenant
        self.verify = verify
        self.state = JobState.PENDING
        self.outcome: RunOutcome | None = None
        self.error: str | None = None
        #: Served straight from the result cache (never dispatched).
        self.cached = False
        #: Completed by riding an identical in-flight job.
        self.coalesced = False
        #: First slice resumed from a checkpoint-store entry.
        self.warm_started = False
        #: A checkpoint was stored for future warm starts.
        self.stored_checkpoint = False
        #: Times a dead pool worker forced a retry.
        self.retries = 0
        #: Times the watchdog killed a hung worker under this job.
        self.hang_strikes = 0
        #: Set by the watchdog between the kill and the resulting
        #: BrokenProcessPool, so the failure is booked as a hang.
        self._hang_killed = False
        #: The journal resubmitted this job after a daemon restart.
        self.recovered = False
        #: Times the job was preempted at a slice boundary.
        self.preemptions = 0
        #: Coalescing identity (``spec_key:verify``), set on submit.
        self.key = ""
        #: Latest machine checkpoint (None until first preemption).
        self.checkpoint: dict | None = None
        #: Worker pids that executed slices of this job, in order.
        self.worker_pids: list[int] = []
        self._done = threading.Event()
        self._callbacks: list[Callable[[Job], None]] = []
        self._listeners: list[JobListener] = []
        self._lock = threading.Lock()
        #: Jobs coalesced onto this one, completed alongside it.
        self._followers: list[Job] = []

    # -- completion handle -------------------------------------------------
    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        return self._done.wait(timeout)

    def result(self, timeout: float | None = None) -> RunOutcome:
        """Block for the outcome; raise :class:`ExperimentError` on
        failure or cancellation, :class:`DaemonLostError` when the
        failure was losing the daemon."""
        if not self._done.wait(timeout):
            raise ExperimentError(f"job {self.id} still {self.state.value}")
        if self.state is not JobState.DONE:
            if self.daemon_lost:
                raise DaemonLostError(
                    f"job {self.id} lost with its daemon: {self.error}"
                )
            raise ExperimentError(
                f"job {self.id} {self.state.value}: {self.error}"
            )
        assert self.outcome is not None
        return self.outcome

    def add_done_callback(self, fn: Callable[["Job"], None]) -> None:
        with self._lock:
            if not self._done.is_set():
                self._callbacks.append(fn)
                return
        fn(self)

    def add_listener(self, fn: JobListener) -> None:
        with self._lock:
            self._listeners.append(fn)

    # -- scheduler side ----------------------------------------------------
    def _emit(self, kind: str, payload: dict | None = None) -> None:
        for listener in list(self._listeners):
            listener(self, kind, payload or {})

    def _finish(self, state: JobState, outcome: RunOutcome | None = None,
                error: str | None = None, **fields) -> None:
        """Settle the job once; ``fields`` (final counters) are set
        under the same lock as the state, so no reader sees a mix."""
        with self._lock:
            if self._done.is_set():
                return
            self.state = state
            self.outcome = outcome
            self.error = error
            for name, value in fields.items():
                setattr(self, name, value)
            callbacks, self._callbacks = self._callbacks, []
            self._done.set()
        self._emit(state.value, {"error": error} if error else {})
        for fn in callbacks:
            fn(self)


class JobQueue:
    """The pending jobs, first in first out.

    ``close()`` wakes every waiter; a closed queue rejects puts and
    hands ``None`` to getters once drained.
    """

    def __init__(self) -> None:
        self._jobs: collections.deque[Job] = collections.deque()
        self._not_empty = threading.Condition()
        self._closed = False

    def __len__(self) -> int:
        with self._not_empty:
            return len(self._jobs)

    def put(self, job: Job) -> None:
        with self._not_empty:
            if self._closed:
                raise ExperimentError("job queue is closed")
            self._jobs.append(job)
            self._not_empty.notify()

    def requeue(self, job: Job) -> None:
        """Re-admit a preempted or retried job at the tail; a closed
        queue drops it (shutdown is cancelling the rest anyway)."""
        with self._not_empty:
            if not self._closed:
                self._jobs.append(job)
                self._not_empty.notify()

    def get(self) -> Job | None:
        """Pop the oldest job, blocking while the queue is open and
        empty."""
        with self._not_empty:
            self._not_empty.wait_for(lambda: self._jobs or self._closed)
            return self._jobs.popleft() if self._jobs else None

    def drain(self) -> list[Job]:
        """Remove and return every pending job, oldest first."""
        with self._not_empty:
            jobs = list(self._jobs)
            self._jobs.clear()
            return jobs

    def close(self) -> None:
        with self._not_empty:
            self._closed = True
            self._not_empty.notify_all()


@dataclass
class SchedulerStats:
    """Accumulated accounting across everything a scheduler executed."""

    submitted: int = 0
    executed: int = 0
    cache_hits: int = 0
    coalesced: int = 0
    warm_started: int = 0
    captured: int = 0
    preemptions: int = 0
    worker_retries: int = 0
    cancelled: int = 0
    #: Hung workers killed and rotated by the watchdog.
    hung_restarts: int = 0
    #: Journal replays performed by :meth:`Scheduler.recover`.
    journal_replays: int = 0
    #: Interrupted jobs requeued from the journal on recovery.
    jobs_recovered: int = 0
    #: Submissions flagged as client resubmits after a reconnect.
    reconnects: int = 0


#: File descriptors every freshly forked worker closes at startup.
#: Fork-context workers inherit *every* parent fd — including, in a
#: ``repro serve`` daemon, the per-client connection sockets.  Left
#: open in the workers, those copies keep a killed daemon's
#: connections half-alive, so clients never see EOF and never start
#: reconnecting.  The daemon registers its sockets here; the pool's
#: initializer closes them on the child side of the fork.
_WORKER_CLOSE_FDS: set[int] = set()


def close_fd_in_workers(fd: int) -> None:
    """Have future pool workers close ``fd`` right after forking."""
    _WORKER_CLOSE_FDS.add(fd)


def forget_fd_in_workers(fd: int) -> None:
    """Stop closing ``fd`` in workers (it was closed in the parent)."""
    _WORKER_CLOSE_FDS.discard(fd)


def _worker_init() -> None:
    # Fork also copies the parent's signal plumbing.  In a daemon the
    # parent is an asyncio loop whose C-level signal trampoline writes
    # the signal number into a wakeup socketpair — *shared* with the
    # child across the fork.  A worker that later receives SIGTERM
    # (pool teardown uses ``Process.terminate``) would write into that
    # shared socket and the PARENT's loop would dispatch its own
    # SIGTERM callback — a phantom drain nobody requested.  Detach the
    # wakeup fd and restore default dispositions before anything else.
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):
        pass  # non-main thread or closed fd: nothing to detach
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, signal.SIG_DFL)
        except (ValueError, OSError):
            pass
    for fd in list(_WORKER_CLOSE_FDS):
        try:
            os.close(fd)
        except OSError:
            pass
    _WORKER_CLOSE_FDS.clear()


def _execute_slice(payload: tuple) -> tuple:
    """Pool worker: run one job slice (or a whole job).

    Returns ``(job_id, "done", outcome, captured_checkpoint, pid)`` or
    ``(job_id, "preempted", checkpoint, quanta_executed, pid)``.
    Workers never touch the stores; checkpoints ride the payloads both
    ways, so between slices a job's entire state lives in the parent —
    the worker is fully evicted.
    """
    job_id, spec, verify, checkpoint, capture, slice_quanta = payload
    pid = os.getpid()
    if slice_quanta is None:
        outcome, captured = run_experiment_capturing(
            spec, verify=verify, checkpoint=checkpoint, capture=capture
        )
        return job_id, "done", outcome, captured, pid

    machine, _ = start_machine(spec, checkpoint)
    machine.run_quanta(slice_quanta)
    if machine.finished:
        return job_id, "done", machine.outcome(verify=verify), None, pid
    return (
        job_id, "preempted", machine.checkpoint(),
        machine.kernel.stats.quanta, pid,
    )


class Scheduler:
    """Multi-tenant job executor over a self-healing worker pool.

    ``cache`` / ``checkpoints`` are the sweep engine's stores (duck
    typed): each cache load and store names the submitting tenant,
    whose ref it records, while lookups hit the shared objects —
    concurrent tenants share hits without clobbering each other.
    Identical in-flight submissions coalesce onto one execution.

    ``slice_quanta`` bounds how long a job may hold a worker: unset,
    jobs run to completion (the sweep runner's mode); set, every job is
    preemptible and migratable at slice boundaries (the daemon's mode).
    ``rotate_workers`` additionally retires the pool at each
    preemption, forcing the next slice onto a fresh worker process —
    deterministic migration, used by the tests and debuggable via
    ``repro serve --rotate-workers``.
    """

    def __init__(
        self,
        workers: int = 1,
        cache=None,
        checkpoints=None,
        slice_quanta: int | None = None,
        rotate_workers: bool = False,
        journal=None,
        hang_timeout_s: float | None = None,
    ) -> None:
        if workers < 0:
            raise ExperimentError(f"workers must be >= 0, got {workers}")
        if slice_quanta is not None and slice_quanta < 1:
            raise ExperimentError(
                f"slice_quanta must be >= 1, got {slice_quanta}"
            )
        if hang_timeout_s is not None and hang_timeout_s <= 0:
            raise ExperimentError(
                f"hang_timeout_s must be > 0, got {hang_timeout_s}"
            )
        self.workers = workers
        self.cache = cache
        self.checkpoints = checkpoints
        self.slice_quanta = slice_quanta
        self.rotate_workers = rotate_workers
        #: Write-ahead job journal (:class:`repro.sim.journal.Journal`),
        #: duck typed; None disables crash safety entirely.
        self.journal = journal
        #: Per-slice wall-clock deadline: the watchdog's hang detector.
        #: Derived from the slice budget by the caller (a slice is a
        #: *bounded* amount of simulation, so a worker that holds one
        #: past the deadline is hung, not slow); None disables it.
        self.hang_timeout_s = hang_timeout_s
        self.stats = SchedulerStats()
        self.queue = JobQueue()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._inflight: dict[str, Job] = {}
        self._jobs: dict[int, Job] = {}
        self._closing = False
        self._draining = False
        #: Slices currently on a worker: job id -> (job, deadline,
        #: pool generation).  Feeds the watchdog and drain().
        self._active: dict[int, tuple[Job, float, int]] = {}
        self._pool = None  # a ProcessPoolExecutor once a slice needs one
        self._pool_lock = threading.Lock()
        self._pool_generation = 0
        self._slots = threading.BoundedSemaphore(max(workers, 1))
        self._dispatcher: threading.Thread | None = None
        self._watchdog: threading.Thread | None = None
        if workers > 0:
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="repro-dispatch", daemon=True
            )
            self._dispatcher.start()
            if hang_timeout_s is not None:
                self._watchdog = threading.Thread(
                    target=self._watchdog_loop, name="repro-watchdog",
                    daemon=True,
                )
                self._watchdog.start()

    # -- submission --------------------------------------------------------
    def submit(
        self,
        spec: ExperimentSpec,
        *,
        tenant: str = DEFAULT_TENANT,
        verify: bool = False,
        checkpoint: dict | None = None,
        resubmit: bool = False,
    ) -> Job:
        """Submit one experiment point; returns its :class:`Job` handle.

        Cache hits complete immediately.  An identical in-flight job
        (same spec key + verify flag) absorbs the submission instead of
        executing twice.  ``checkpoint`` warm-starts the job from an
        explicit machine checkpoint — migration *into* this scheduler.

        ``resubmit`` marks a client's idempotent re-submission after a
        reconnect: it is counted in :attr:`SchedulerStats.reconnects`
        and otherwise relies on the cache/coalescing layers — the same
        point either hits the stored result, rides the recovered
        in-flight job, or re-executes bit-identically.
        """
        if self._closing:
            raise ExperimentError("scheduler is shut down")
        if self._draining:
            raise ExperimentError("scheduler is draining")
        job = Job(
            next(self._ids), spec, tenant=validate_namespace(tenant),
            verify=verify,
        )
        job.key = f"{spec.spec_key()}:verify={int(bool(verify))}"
        job.checkpoint = checkpoint
        self.stats.submitted += 1
        if resubmit:
            self.stats.reconnects += 1
        with self._lock:
            self._jobs[job.id] = job
        self._journal_submit(job)

        # Claim primacy for this spec key *before* consulting the cache:
        # a completing primary stores its result before leaving the
        # in-flight map, so a submitter either coalesces onto a live
        # primary or — having claimed the key — is guaranteed to see
        # that primary's result in the cache.  No duplicate execution
        # in either interleaving.
        with self._lock:
            primary = self._inflight.get(job.key)
            if primary is not None and not primary.done():
                job.coalesced = True
                self.stats.coalesced += 1
                primary._followers.append(job)
                return job
            self._inflight[job.key] = job

        hit = (
            self.cache.load(spec, verify, tenant)
            if self.cache is not None else None
        )
        if hit is not None:
            job.cached = True
            self.stats.cache_hits += 1
            self._settle(job, JobState.DONE, outcome=hit)
            return job

        if job.checkpoint is None and self.checkpoints is not None:
            stored = self.checkpoints.load(spec)
            if stored is not None:
                job.checkpoint = stored
                job.warm_started = True
        if self.workers == 0:
            self._run_inline(job)
        else:
            try:
                self.queue.put(job)
            except ExperimentError:
                # A closing queue: release the key so the next identical
                # submit isn't chained to a job that will never run.
                self._settle(
                    job, JobState.CANCELLED, error="rejected by job queue"
                )
                raise
        return job

    def job(self, job_id: int) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    # -- journaling --------------------------------------------------------
    def _journal_submit(self, job: Job) -> None:
        if self.journal is None:
            return
        from ..machine import spec_to_dict

        self.journal.append({
            "type": "submitted",
            "job": job.id,
            "tenant": job.tenant,
            "spec": spec_to_dict(job.spec),
            "verify": job.verify,
        })
        if job.checkpoint is not None:
            # Migration/recovery submissions arrive mid-flight; record
            # their starting checkpoint so a crash right now still
            # resumes from it instead of cycle 0.
            self._journal_checkpoint(job)

    def _journal_state(self, job: Job, state: str,
                       error: str | None = None) -> None:
        if self.journal is None:
            return
        record: dict = {"type": "state", "job": job.id, "state": state}
        if error is not None:
            record["error"] = error
        self.journal.append(record)

    def _journal_checkpoint(self, job: Job) -> None:
        if self.journal is None or job.checkpoint is None:
            return
        ref = self.journal.store_checkpoint(job.key, job.checkpoint)
        if ref is not None:
            self.journal.append(
                {"type": "checkpoint", "job": job.id, "ref": ref}
            )

    def recover(self) -> int:
        """Replay the journal and requeue every interrupted job.

        Call once on daemon start, before serving clients.  Jobs that
        never journaled a terminal state are resubmitted — warm-started
        from their latest journaled checkpoint when one survives —
        after deduplication on ``(tenant, spec, verify)``, so recovery
        is idempotent: replaying twice, or a client resubmitting a
        recovered point, never double-runs it.  The journal is then
        reset; the resubmissions re-journal themselves through the
        normal submit path.  Returns the number of jobs requeued.
        """
        if self.journal is None:
            return 0
        from ..machine import spec_from_dict
        from .journal import recovered_jobs

        records = self.journal.replay(truncate=True)
        if records:
            self.stats.journal_replays += 1
        pending = recovered_jobs(records)
        self.journal.reset()
        requeued = 0
        for entry in pending:
            try:
                spec = spec_from_dict(entry.spec_dict)
            except (ReproError, KeyError, TypeError, ValueError):
                continue  # journaled by a different schema; skip
            checkpoint = None
            if entry.checkpoint_ref is not None:
                checkpoint = self.journal.load_checkpoint(
                    entry.checkpoint_ref
                )
            job = self.submit(
                spec,
                tenant=entry.tenant,
                verify=entry.verify,
                checkpoint=checkpoint,
            )
            job.recovered = True
            requeued += 1
            self.stats.jobs_recovered += 1
        return requeued

    # -- graceful drain ----------------------------------------------------
    def begin_drain(self) -> None:
        """Stop accepting submits and dispatching new slices.

        Safe to call from a signal handler: it only flips a flag."""
        self._draining = True

    def drain(self, timeout_s: float = 60.0) -> bool:
        """Graceful SIGTERM path: quiesce without cancelling anything.

        After :meth:`begin_drain`, waits for in-flight slices to reach
        their next boundary — where they checkpoint and journal
        themselves — so every pending and interrupted job is on disk
        for the next daemon's :meth:`recover`.  Unlike ``shutdown``,
        nothing is cancelled: the journal, not this process, now owns
        the jobs.  Returns False if slices were still running at the
        timeout.
        """
        self.begin_drain()
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with self._lock:
                if not self._active:
                    return True
            time.sleep(0.02)
        with self._lock:
            return not self._active

    def worker_pids(self) -> list[int]:
        """PIDs of the live pool's worker processes.

        Surfaced through the daemon ``stats`` verb so observers — and
        the chaos harness, which needs real kill targets — can see the
        fleet.  Empty before the first dispatch or after a rotation."""
        with self._pool_lock:
            pool = self._pool
        if pool is None:
            return []
        return sorted(
            process.pid
            for process in list(getattr(pool, "_processes", {}).values())
            if process.pid is not None
        )

    # -- execution ---------------------------------------------------------
    def _payload(self, job: Job) -> tuple:
        capture = (
            self.checkpoints is not None
            and not job.warm_started
            and self.slice_quanta is None
        )
        return (
            job.id, job.spec, job.verify, job.checkpoint, capture,
            self.slice_quanta,
        )

    def _run_inline(self, job: Job) -> None:
        """Execute in the calling thread: the serial reference path and
        the degraded mode after repeated pool failures."""
        job.state = JobState.RUNNING
        self._journal_state(job, "running")
        job._emit("running", {"pid": os.getpid()})
        while True:
            try:
                result = _execute_slice(self._payload(job))
            except ReproError as error:
                self._fail(job, str(error))
                return
            if self._absorb(job, result):
                return

    def _dispatch_loop(self) -> None:
        while True:
            # Hold a worker slot *before* taking a job, so a job that
            # waits for a worker still counts as queued (the daemon's
            # ``stats`` verb) and shutdown's drain still cancels it.
            self._slots.acquire()
            job = self.queue.get()
            if job is None:
                self._slots.release()
                return
            if job.done():  # cancelled while queued
                self._slots.release()
                continue
            if self._draining:
                # Graceful drain: leave the job journaled (submitted,
                # latest checkpoint) rather than cancelled — the next
                # daemon's recover() requeues it.  Popping here just
                # empties the queue so shutdown() can join us.
                self._slots.release()
                continue
            if self._closing:
                self._slots.release()
                self._cancel(job)
                continue
            if job.retries > MAX_WORKER_RETRIES:
                # The pool died repeatedly under this job; stop feeding
                # it workers and run the remainder here instead.
                self._slots.release()
                self._run_inline(job)
                continue
            if job.state is not JobState.RUNNING:
                job.state = JobState.RUNNING
                self._journal_state(job, "running")
                job._emit("running", {})
            try:
                with self._pool_lock:
                    pool = self._ensure_pool()
                    generation = self._pool_generation
                    # Register with the watchdog *before* dispatching:
                    # a slice that completes instantly pops a present
                    # entry instead of racing the registration.
                    deadline = (
                        float("inf") if self.hang_timeout_s is None
                        else time.monotonic() + self.hang_timeout_s
                    )
                    with self._lock:
                        self._active[job.id] = (job, deadline, generation)
                    future = pool.submit(_execute_slice, self._payload(job))
            except BaseException:
                self._slots.release()
                with self._lock:
                    self._active.pop(job.id, None)
                self._fail(job, "could not dispatch to worker pool")
                continue
            future.add_done_callback(
                lambda f, job=job, generation=generation:
                    self._on_slice_done(job, f, generation)
            )

    def _on_slice_done(self, job: Job, future, generation: int) -> None:
        from concurrent.futures.process import BrokenProcessPool

        self._slots.release()
        with self._lock:
            self._active.pop(job.id, None)
        try:
            result = future.result()
        except BrokenProcessPool:
            if job._hang_killed:
                # Not a death but an execution: the watchdog killed this
                # job's hung worker (the pool is already rotated).  Retry
                # from the last checkpoint under the strike budget; a
                # serial hanger quarantine-fails instead of eating a
                # fresh worker forever.
                job._hang_killed = False
                if job.hang_strikes > MAX_HANG_STRIKES:
                    self._fail(
                        job,
                        f"quarantined after {job.hang_strikes} hung-worker "
                        f"strikes (worker exceeded "
                        f"{self.hang_timeout_s}s/slice)",
                    )
                    return
                self.queue.requeue(job)
                return
            # A worker died mid-slice (OOM kill, segfault...).  Retire
            # the broken pool once, then retry the job from its last
            # checkpoint — progress up to the previous slice survives.
            self._retire_pool(generation)
            job.retries += 1
            self.stats.worker_retries += 1
            self.queue.requeue(job)
            return
        except ReproError as error:
            self._fail(job, str(error))
            return
        except BaseException as error:  # cancellation during shutdown
            if self._closing:
                self._cancel(job)
            else:
                self._fail(job, f"{type(error).__name__}: {error}")
            return
        if not self._absorb(job, result):
            if self.rotate_workers:
                self._retire_pool(generation)
            self.queue.requeue(job)

    def _absorb(self, job: Job, result: tuple) -> bool:
        """Fold one slice result into the job; True when it finished."""
        job_id, status, first, second, pid = result
        job.worker_pids.append(pid)
        if status == "done":
            self._complete(job, first, captured=second)
            return True
        job.checkpoint = first
        job.preemptions += 1
        self.stats.preemptions += 1
        # The journal tracks the latest checkpoint ref so a killed
        # daemon resumes this job from here, not cycle 0.
        self._journal_checkpoint(job)
        job._emit("preempted", {"quanta": second, "pid": pid})
        return False

    # -- completion --------------------------------------------------------
    def _complete(self, job: Job, outcome: RunOutcome,
                  captured: dict | None) -> None:
        self.stats.executed += 1
        if job.warm_started:
            self.stats.warm_started += 1
        if self.checkpoints is not None:
            # Straight runs capture via run_capturing; sliced runs keep
            # their last preemption checkpoint.  Either warms future
            # re-runs of the same point.
            keep = captured if captured is not None else (
                job.checkpoint if job.preemptions else None
            )
            if keep is not None and not job.warm_started:
                self.checkpoints.store(job.spec, keep)
                job.stored_checkpoint = True
                self.stats.captured += 1
        if self.cache is not None:
            self.cache.store(job.spec, job.verify, outcome, job.tenant)
        self._settle(job, JobState.DONE, outcome=outcome)

    def _fail(self, job: Job, error: str) -> None:
        self._settle(job, JobState.FAILED, error=error)

    def _cancel(self, job: Job) -> None:
        self.stats.cancelled += 1
        self._settle(job, JobState.CANCELLED, error="cancelled")

    def _settle(self, job: Job, state: JobState,
                outcome: RunOutcome | None = None,
                error: str | None = None) -> None:
        # Finish the primary *before* draining followers: submit() only
        # coalesces onto a not-done primary (checked under the same
        # lock), so after this no new follower can attach and the drain
        # below is complete.
        job._finish(state, outcome=outcome, error=error)
        self._journal_state(job, state.value, error=error)
        with self._lock:
            if self._inflight.get(job.key) is job:
                del self._inflight[job.key]
            followers = list(job._followers)
            job._followers.clear()
        for follower in followers:
            if state is JobState.DONE and outcome is not None:
                # The follower's tenant gets its own cache reference.
                if self.cache is not None:
                    self.cache.store(follower.spec, follower.verify,
                                     outcome, follower.tenant)
            follower._finish(state, outcome=outcome, error=error)
            self._journal_state(follower, state.value, error=error)

    # -- pool management ---------------------------------------------------
    def _ensure_pool(self):
        # The pool's modules load here, so a ``workers=0`` scheduler
        # never imports multiprocessing or concurrent.futures.
        if self._pool is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # Fork is markedly cheaper than spawn and inherits the
            # already-imported simulator; fall back to the platform
            # default where fork is unavailable.
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else None
            )
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=context,
                initializer=_worker_init,
            )
        return self._pool

    def _retire_pool(self, generation: int) -> None:
        with self._pool_lock:
            if self._pool_generation != generation or self._pool is None:
                return  # someone else already rotated it
            pool, self._pool = self._pool, None
            self._pool_generation += 1
        pool.shutdown(wait=False, cancel_futures=True)

    def _kill_pool(self, generation: int) -> None:
        """SIGKILL every worker of the given pool generation and retire
        it.  The watchdog's hammer: a *hung* worker never returns, so
        ``shutdown`` would wait on it forever — only the OS can take
        the CPU back.  In-flight futures resolve as
        :class:`BrokenProcessPool`, which requeues their jobs from
        their last checkpoints."""
        with self._pool_lock:
            if self._pool_generation != generation or self._pool is None:
                return  # already rotated; the hang died with it
            pool, self._pool = self._pool, None
            self._pool_generation += 1
        for process in list(getattr(pool, "_processes", {}).values()):
            try:
                process.kill()
            except (OSError, AttributeError):
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def _watchdog_loop(self) -> None:
        """Detect workers that are alive but never return.

        ``BrokenProcessPool`` only fires when a worker *dies*; a worker
        spinning or sleeping forever holds its slot silently.  Every
        dispatched slice carries a wall-clock deadline derived from the
        slice budget; a slice past its deadline marks the job with a
        hang strike and SIGKILLs the pool — the resulting broken-pool
        completion requeues the casualty from its checkpoint (or
        quarantine-fails it past the strike budget).
        """
        assert self.hang_timeout_s is not None
        interval = max(0.01, self.hang_timeout_s * WATCHDOG_RESOLUTION)
        while not self._closing:
            time.sleep(interval)
            now = time.monotonic()
            victims: list[tuple[Job, int]] = []
            with self._lock:
                for job, deadline, generation in self._active.values():
                    if now >= deadline and not job._hang_killed:
                        job._hang_killed = True
                        job.hang_strikes += 1
                        victims.append((job, generation))
            for job, generation in victims:
                self.stats.hung_restarts += 1
                job._emit("hung", {"strikes": job.hang_strikes})
                # Kill outside the state lock: _kill_pool takes the
                # pool lock, and the dispatcher nests them the other
                # way around.
                self._kill_pool(generation)

    # -- shutdown ----------------------------------------------------------
    def shutdown(self, wait: bool = True,
                 cancel_pending: bool = True) -> None:
        """Stop accepting work, cancel what is queued, reap the pool.

        Safe against SIGINT/KeyboardInterrupt mid-sweep: pending jobs
        are cancelled (their waiters wake with an error), in-flight
        slices are allowed to finish their bounded run, and the worker
        processes are shut down — nothing lingers.
        """
        self._closing = True
        self.queue.close()
        if cancel_pending:
            for job in self.queue.drain():
                self._cancel(job)
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=30.0)
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
