"""The pre-emptive round-robin process scheduler (paper §5).

POrSCHE "uses a simple pre-emptive round robin process scheduler to run
multiple processes".  The scheduler keeps a circular ready queue; each
pick rotates the queue, and processes that exit simply leave it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..errors import CheckpointError, KernelError
from ..state import Snapshotable
from .process import Process, ProcessState

#: Bound once: an ``Enum`` member read through its class is slow, and
#: every quantum makes two of these transitions.
_READY = ProcessState.READY
_RUNNING = ProcessState.RUNNING


@dataclass
class RoundRobinScheduler(Snapshotable):
    """Circular ready queue with O(1) rotation.

    A snapshot saves the queue as pids, verbatim, including dead
    processes that :meth:`pick` has not yet lazily dropped; a restore
    resolves them through ``processes``, the kernel's process table.
    """

    STATE = ("last_pid", "picks", "switches")

    _queue: deque[Process] = field(default_factory=deque)
    last_pid: int | None = None
    #: Statistics.
    picks: int = 0
    switches: int = 0
    processes: dict[int, Process] = field(default_factory=dict, repr=False)

    def add(self, process: Process) -> None:
        if not process.alive:
            raise KernelError(f"cannot schedule dead process {process.pid}")
        self._queue.append(process)

    def remove(self, process: Process) -> None:
        try:
            self._queue.remove(process)
        except ValueError:
            raise KernelError(
                f"process {process.pid} is not in the ready queue"
            ) from None

    def pick(self) -> Process | None:
        """Rotate to the next runnable process.

        Returns ``None`` when the queue is empty.  Dead processes found at
        the head are dropped (they exited during their last quantum).
        """
        while self._queue:
            process = self._queue.popleft()
            if not process.alive:
                continue
            self._queue.append(process)
            self.picks += 1
            if self.last_pid is not None and self.last_pid != process.pid:
                self.switches += 1
            self.last_pid = process.pid
            process.state = _RUNNING
            return process
        return None

    def preempt(self, process: Process) -> None:
        """Mark the current process ready again at end of quantum.

        ``pick`` made it RUNNING; a process that exited or was killed
        during the quantum is neither RUNNING nor made READY again.
        """
        if process.state is _RUNNING:
            process.state = _READY

    @property
    def runnable(self) -> int:
        return sum(1 for process in self._queue if process.alive)

    def __len__(self) -> int:
        return len(self._queue)

    # ---- machine-state protocol -------------------------------------------
    def snapshot(self) -> dict:
        return {
            "queue": [process.pid for process in self._queue],
            **super().snapshot(),
        }

    def restore(self, state: dict) -> None:
        processes = self.processes
        unknown = [pid for pid in state["queue"] if pid not in processes]
        if unknown:
            raise CheckpointError(
                f"scheduler queue names unknown pids {unknown}"
            )
        self._queue = deque(processes[pid] for pid in state["queue"])
        super().restore(state)
