"""Predictive layer of the CIS: transition model + transfer engine.

The paper's fault handler is purely reactive — every CID miss stalls the
process for the full bitstream transfer.  This module supplies the two
pieces the speculative prefetcher (:mod:`repro.prefetch`) needs:

* :class:`TransitionModel` — per-process (CID → next-CID) counts plus
  branch-bias statistics, fed from the trace bus at every dispatch
  resolution.  Confidence is an integer percentage, ties break to the
  smallest CID, so predictions are a pure function of the observed event
  stream — identical across execution tiers, ``--jobs`` workers and
  checkpoint/resume.
* :class:`TransferEngine` — the configuration bus as a time-shared
  resource.  At most one speculative transfer is in flight; demand loads
  keep absolute priority (the in-flight transfer stretches by exactly
  the demand cycles, see :meth:`TransferEngine.demand_traffic`), so with
  prefetch off the accounting is untouched.

Both are Snapshotable: ``snapshot``/``restore`` round-trip bit-exactly
through JSON, including a transfer caught mid-flight at a quantum
boundary.
"""

from __future__ import annotations

from ..prefetch import PrefetchPlan
from ..state import Snapshotable, decode_int_keys, encode_int_keys

__all__ = ["TransitionModel", "TransferEngine"]


class TransitionModel(Snapshotable):
    """Per-process CID-transition statistics with integer confidence."""

    __slots__ = ("plan", "_last", "_streak", "_counts", "_runs")

    def __init__(self, plan: PrefetchPlan) -> None:
        self.plan = plan
        #: pid -> last dispatched CID.
        self._last: dict[int, int] = {}
        #: pid -> dispatches of the last CID in its current run.
        self._streak: dict[int, int] = {}
        #: pid -> from-CID -> next-CID -> count (switches only).
        self._counts: dict[int, dict[int, dict[int, int]]] = {}
        #: pid -> CID -> [continues, switches] — the branch bias of each
        #: circuit's dispatch site (how often the process stays in the
        #: same circuit vs. moves on).
        self._runs: dict[int, dict[int, list[int]]] = {}

    # ---- learning ----------------------------------------------------------
    def observe(self, pid: int, cid: int, outcome: str) -> None:
        """Feed one dispatch resolution (the ``on_dispatch`` signature)."""
        last = self._last.get(pid)
        if last is None:
            self._last[pid] = cid
            self._streak[pid] = 1
            return
        runs = self._runs.setdefault(pid, {}).setdefault(last, [0, 0])
        if cid == last:
            runs[0] += 1
            self._streak[pid] += 1
            return
        runs[1] += 1
        table = self._counts.setdefault(pid, {}).setdefault(last, {})
        table[cid] = table.get(cid, 0) + 1
        self._last[pid] = cid
        self._streak[pid] = 1

    def forget(self, pid: int) -> None:
        """Drop everything learned about a terminated process."""
        self._last.pop(pid, None)
        self._streak.pop(pid, None)
        self._counts.pop(pid, None)
        self._runs.pop(pid, None)

    # ---- prediction --------------------------------------------------------
    def predict_next(self, pid: int, cid: int) -> tuple[int, int] | None:
        """Predicted successor of ``cid`` for ``pid`` as ``(next_cid,
        confidence_pct)``, or ``None`` below the plan's thresholds.

        Deterministic: integer arithmetic only; ties between successor
        counts break to the smallest CID.
        """
        table = self._counts.get(pid, {}).get(cid)
        if not table:
            return None
        total = sum(table.values())
        if total < self.plan.min_observations:
            return None
        best_cid = min(
            table, key=lambda candidate: (-table[candidate], candidate)
        )
        confidence = 100 * table[best_cid] // total
        if confidence < self.plan.min_confidence_pct:
            return None
        return best_cid, confidence

    def due(self, pid: int, cid: int) -> bool:
        """Is the process about to switch away from ``cid``?

        The branch-bias statistic as a timer: the mean run length of
        ``cid`` is ``(continues + switches) / switches``, and a switch is
        *due* once the current run is within the plan's ``due_margin_pct``
        of that mean.  Integer cross-multiplication keeps it exact.
        Workloads that alternate every dispatch (mean run 1) are always
        due; a long phase is due only near its learned end, which is
        what stops the prefetcher from stealing an in-use circuit's PFU
        mid-phase.
        """
        runs = self._runs.get(pid, {}).get(cid)
        if runs is None or runs[1] == 0:
            return False
        streak = self._streak.get(pid, 0) if self._last.get(pid) == cid else 0
        margin = self.plan.due_margin_pct
        return (streak + 1) * runs[1] * 100 >= (
            (runs[0] + runs[1]) * (100 - margin)
        )

    def last_cid(self, pid: int) -> int | None:
        """The CID this process most recently dispatched, if any."""
        return self._last.get(pid)

    def predicted(self, pid: int) -> int | None:
        """The CID this process is expected to need next, if any.

        Until a switch is due, that is the circuit it is running now;
        once due, the transition table's confident successor (falling
        back to the current circuit below the confidence thresholds).
        """
        last = self._last.get(pid)
        if last is None:
            return None
        if not self.due(pid, last):
            return last
        prediction = self.predict_next(pid, last)
        return last if prediction is None else prediction[0]

    def switch_bias_pct(self, pid: int, cid: int) -> int | None:
        """Integer percent of dispatches of ``cid`` that switched away
        (``None`` before any observation) — the branch-bias statistic."""
        runs = self._runs.get(pid, {}).get(cid)
        if runs is None or (runs[0] + runs[1]) == 0:
            return None
        return 100 * runs[1] // (runs[0] + runs[1])

    # ---- machine-state protocol --------------------------------------------
    def snapshot(self) -> dict:
        return {
            "last": encode_int_keys(self._last),
            "streak": encode_int_keys(self._streak),
            "counts": encode_int_keys(self._counts),
            "runs": encode_int_keys(self._runs),
        }

    def restore(self, state: dict) -> None:
        self._last = decode_int_keys(state["last"])
        self._streak = decode_int_keys(state["streak"])
        self._counts = decode_int_keys(state["counts"])
        self._runs = decode_int_keys(state["runs"])


class TransferEngine(Snapshotable):
    """The config bus as a time-shared resource: one speculative
    transfer streams during cycles demand traffic leaves idle.

    ``end`` is the absolute kernel cycle at which the in-flight transfer
    completes *assuming an otherwise idle bus*; every demand transfer
    pushes it back by its own duration (demand priority), so the engine
    never makes a demand load slower and charges nobody for speculation.
    """

    __slots__ = ("entry",)

    STATE = ("entry",)

    def __init__(self) -> None:
        #: The single in-flight transfer: ``{pid, cid, pfu, total, end}``
        #: or ``None`` when the bus carries no speculative traffic.
        self.entry: dict[str, int] | None = None

    # ---- queries -----------------------------------------------------------
    @property
    def busy(self) -> bool:
        return self.entry is not None

    def pinned(self, pfu_index: int) -> bool:
        """True while ``pfu_index`` is the target of an in-flight
        transfer — pinned PFUs must never be selected for eviction."""
        return self.entry is not None and self.entry["pfu"] == pfu_index

    def matches(self, pid: int, cid: int) -> bool:
        return (
            self.entry is not None
            and self.entry["pid"] == pid
            and self.entry["cid"] == cid
        )

    def remaining(self, now: int) -> int:
        """Cycles of transfer left at kernel time ``now`` (0 if done)."""
        assert self.entry is not None
        return max(0, self.entry["end"] - now)

    # ---- transitions -------------------------------------------------------
    def start(
        self, pid: int, cid: int, pfu: int, total: int, now: int
    ) -> None:
        assert self.entry is None, "transfer engine supports one in-flight"
        self.entry = {
            "pid": pid, "cid": cid, "pfu": pfu,
            "total": total, "end": now + total,
        }

    def demand_traffic(self, cycles: int) -> None:
        """A demand transfer monopolised the bus for ``cycles``; the
        speculative stream stalls for exactly that long."""
        if self.entry is not None and cycles > 0:
            self.entry["end"] += cycles

    def cancel(self) -> dict[str, int]:
        """Abandon the in-flight transfer, returning its record."""
        assert self.entry is not None
        entry = self.entry
        self.entry = None
        return entry

