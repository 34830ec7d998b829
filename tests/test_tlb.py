"""The (PID, CID)-keyed dispatch TLB of §4.2."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import adder_spec
from repro.config import MachineConfig
from repro.core.coprocessor import ProteusCoprocessor
from repro.core.dispatch import DispatchKind
from repro.core.tlb import DispatchTLB, IDTuple
from repro.cpu.isa import CODE_BASE, Instruction, Op
from repro.cpu.translate import RunContext, cdp_closure


def key(pid: int, cid: int) -> IDTuple:
    return IDTuple(pid=pid, cid=cid)


class TestBasics:
    def test_miss(self):
        tlb = DispatchTLB(entries=4)
        assert tlb.lookup(key(1, 1)) is None

    def test_insert_lookup(self):
        tlb = DispatchTLB(entries=4)
        tlb.insert(key(1, 1), 3)
        assert tlb.lookup(key(1, 1)) == 3

    def test_pid_distinguishes_tuples(self):
        """Same CID under different PIDs resolves independently — the
        globally unique ID tuple of §4.2."""
        tlb = DispatchTLB(entries=4)
        tlb.insert(key(1, 7), 0)
        tlb.insert(key(2, 7), 1)
        assert tlb.lookup(key(1, 7)) == 0
        assert tlb.lookup(key(2, 7)) == 1

    def test_many_tuples_one_value(self):
        """Multiple ID tuples can map to one circuit (sharing, §4.2)."""
        tlb = DispatchTLB(entries=4)
        tlb.insert(key(1, 1), 2)
        tlb.insert(key(2, 5), 2)
        assert tlb.contents() == {key(1, 1): 2, key(2, 5): 2}

    def test_reinsert_updates_value(self):
        tlb = DispatchTLB(entries=4)
        tlb.insert(key(1, 1), 0)
        evicted = tlb.insert(key(1, 1), 3)
        assert evicted is None
        assert tlb.lookup(key(1, 1)) == 3
        assert tlb.occupied == 1

    def test_remove(self):
        tlb = DispatchTLB(entries=4)
        tlb.insert(key(1, 1), 0)
        assert tlb.remove(key(1, 1))
        assert tlb.lookup(key(1, 1)) is None
        assert not tlb.remove(key(1, 1))


class TestCapacity:
    def test_fifo_eviction_when_full(self):
        tlb = DispatchTLB(entries=2)
        tlb.insert(key(1, 1), 0)
        tlb.insert(key(1, 2), 1)
        evicted = tlb.insert(key(1, 3), 2)
        assert evicted == key(1, 1)
        assert tlb.lookup(key(1, 1)) is None
        assert tlb.lookup(key(1, 3)) == 2

    def test_loaded_circuit_can_lose_its_mapping(self):
        """§4.2: more mappings may be needed than fit, so a loaded
        circuit may fault purely on its mapping."""
        tlb = DispatchTLB(entries=2)
        tlb.insert(key(1, 1), 0)  # circuit in PFU 0
        tlb.insert(key(2, 1), 1)
        tlb.insert(key(3, 1), 2)  # pushes out (1,1)
        assert tlb.lookup(key(1, 1)) is None  # mapping fault, PFU 0 intact

    def test_eviction_counts(self):
        tlb = DispatchTLB(entries=1)
        tlb.insert(key(1, 1), 0)
        tlb.insert(key(1, 2), 0)
        assert tlb.evictions == 1


class TestBulkInvalidation:
    def test_remove_pid(self):
        tlb = DispatchTLB(entries=8)
        tlb.insert(key(1, 1), 0)
        tlb.insert(key(1, 2), 1)
        tlb.insert(key(2, 1), 2)
        assert tlb.remove_pid(1) == 2
        assert tlb.lookup(key(2, 1)) == 2

    def test_remove_value(self):
        """Evicting a circuit from PFU n drops every tuple naming it."""
        tlb = DispatchTLB(entries=8)
        tlb.insert(key(1, 1), 3)
        tlb.insert(key(2, 9), 3)
        tlb.insert(key(2, 1), 0)
        assert tlb.remove_value(3) == 2
        assert tlb.lookup(key(2, 1)) == 0

    def test_flush(self):
        tlb = DispatchTLB(entries=4)
        tlb.insert(key(1, 1), 0)
        tlb.insert(key(2, 2), 1)
        assert tlb.flush() == 2
        assert tlb.occupied == 0


class TestStatistics:
    def test_hit_rate(self):
        tlb = DispatchTLB(entries=4)
        tlb.insert(key(1, 1), 0)
        tlb.lookup(key(1, 1))
        tlb.lookup(key(9, 9))
        assert tlb.hits == 1
        assert tlb.lookups == 2
        assert tlb.hit_rate == 0.5

    def test_hit_rate_empty(self):
        assert DispatchTLB(entries=4).hit_rate == 0.0


@given(
    inserts=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=5),   # pid
            st.integers(min_value=0, max_value=5),   # cid
            st.integers(min_value=0, max_value=3),   # value
        ),
        max_size=30,
    )
)
@settings(max_examples=60)
def test_contents_never_exceed_capacity_and_are_consistent(inserts):
    tlb = DispatchTLB(entries=4)
    for pid, cid, value in inserts:
        tlb.insert(key(pid, cid), value)
        contents = tlb.contents()
        assert len(contents) <= 4
        for k, v in contents.items():
            assert tlb.lookup(k) == v


class _ReferenceTLB:
    """A naive model of :class:`DispatchTLB`: one list slot per entry,
    every operation a linear walk over all of them."""

    def __init__(self, entries: int) -> None:
        self.keys: list[IDTuple | None] = [None] * entries
        self.ram = [0] * entries
        self.hand = 0
        self.lookups = self.hits = self.insertions = self.evictions = 0

    def lookup(self, k: IDTuple) -> int | None:
        self.lookups += 1
        if k in self.keys:
            self.hits += 1
            return self.ram[self.keys.index(k)]
        return None

    def insert(self, k: IDTuple, value: int) -> IDTuple | None:
        self.insertions += 1
        if k in self.keys:
            self.ram[self.keys.index(k)] = value
            return None
        evicted = None
        if None in self.keys:
            entry = self.keys.index(None)
        else:
            entry = self.hand
            self.hand = (self.hand + 1) % len(self.keys)
            evicted = self.keys[entry]
            self.evictions += 1
        self.keys[entry] = k
        self.ram[entry] = value
        return evicted

    def _drop(self, doomed) -> int:
        removed = 0
        for entry, k in enumerate(self.keys):
            if k is not None and doomed(entry, k):
                self.keys[entry] = None
                removed += 1
        return removed

    def remove(self, k: IDTuple) -> bool:
        return self._drop(lambda _entry, held: held == k) == 1

    def remove_value(self, value: int) -> int:
        return self._drop(lambda entry, _held: self.ram[entry] == value)

    def remove_pid(self, pid: int) -> int:
        return self._drop(lambda _entry, held: held.pid == pid)

    def flush(self) -> int:
        return self._drop(lambda _entry, _held: True)

    def restore(self, state: dict) -> None:
        self.keys = [
            IDTuple(*fields) if fields is not None else None
            for fields in state["cam"]["keys"]
        ]
        self.ram = list(state["ram"])
        self.hand = state["fifo_hand"]
        self.lookups = state["lookups"]
        self.hits = state["hits"]
        self.insertions = state["insertions"]
        self.evictions = state["evictions"]

    def snapshot(self) -> dict:
        return {
            "cam": {
                "entries": len(self.keys),
                "keys": [list(k) if k is not None else None
                         for k in self.keys],
            },
            "ram": list(self.ram),
            "fifo_hand": self.hand,
            "lookups": self.lookups,
            "hits": self.hits,
            "insertions": self.insertions,
            "evictions": self.evictions,
        }


_PIDS = st.integers(min_value=1, max_value=3)
_CIDS = st.integers(min_value=0, max_value=3)
_VALUES = st.integers(min_value=0, max_value=3)
_TLB_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _PIDS, _CIDS, _VALUES),
        st.tuples(st.just("remove"), _PIDS, _CIDS),
        st.tuples(st.just("remove_value"), _VALUES),
        st.tuples(st.just("remove_pid"), _PIDS),
        st.tuples(st.just("flush")),
        st.tuples(st.just("snapshot")),
        st.tuples(st.just("restore"), st.integers(min_value=0, max_value=7)),
    ),
    max_size=60,
)


@given(ops=_TLB_OPS, entries=st.integers(min_value=1, max_value=6))
@settings(max_examples=150, deadline=None)
def test_tlb_agrees_with_reference_model(ops, entries):
    """Every operation returns what the naive model returns, and after
    each one the whole snapshot, every lookup and the occupancy agree
    with it.  Restores replay earlier snapshots through JSON, as a
    checkpoint would."""
    tlb = DispatchTLB(entries=entries)
    model = _ReferenceTLB(entries)
    saved: list[dict] = []
    universe = [key(pid, cid) for pid in range(1, 4) for cid in range(4)]
    for op, *args in ops:
        if op == "insert":
            pid, cid, value = args
            assert tlb.insert(key(pid, cid), value) == model.insert(
                key(pid, cid), value
            )
        elif op == "remove":
            assert tlb.remove(key(*args)) == model.remove(key(*args))
        elif op in ("remove_value", "remove_pid"):
            assert getattr(tlb, op)(*args) == getattr(model, op)(*args)
        elif op == "flush":
            assert tlb.flush() == model.flush()
        elif op == "snapshot":
            saved.append(json.loads(json.dumps(tlb.snapshot())))
        elif saved:
            state = saved[args[0] % len(saved)]
            tlb.restore(state)
            model.restore(state)
        assert tlb.snapshot() == model.snapshot()
        for k in universe:
            assert tlb.lookup(k) == model.lookup(k)
        assert tlb.snapshot() == model.snapshot()
        live = {k: model.ram[e] for e, k in enumerate(model.keys)
                if k is not None}
        assert tlb.contents() == live
        assert tlb.occupied == len(live)


class _ReferenceDispatch:
    """A naive model of :class:`DispatchUnit`: two :class:`_ReferenceTLB`
    and a count per trace outcome."""

    def __init__(self, entries: int) -> None:
        self.hardware = _ReferenceTLB(entries)
        self.software = _ReferenceTLB(entries)
        self.counts = {"hit": 0, "soft": 0, "fault": 0}

    def resolve(self, k: IDTuple) -> tuple[str, int | None]:
        pfu = self.hardware.lookup(k)
        if pfu is not None:
            self.counts["hit"] += 1
            return "hardware", pfu
        address = self.software.lookup(k)
        if address is not None:
            self.counts["soft"] += 1
            return "software", address
        self.counts["fault"] += 1
        return "fault", None

    def map_hardware(self, k: IDTuple, pfu: int) -> IDTuple | None:
        self.software.remove(k)
        return self.hardware.insert(k, pfu)

    def map_software(self, k: IDTuple, address: int) -> IDTuple | None:
        self.hardware.remove(k)
        return self.software.insert(k, address)

    def unmap(self, k: IDTuple) -> None:
        self.hardware.remove(k)
        self.software.remove(k)

    def unmap_pid(self, pid: int) -> int:
        return self.hardware.remove_pid(pid) + self.software.remove_pid(pid)

    def unmap_pfu(self, pfu: int) -> int:
        return self.hardware.remove_value(pfu)

    def flush(self) -> int:
        return self.hardware.flush() + self.software.flush()

    def restore(self, state: dict) -> None:
        self.hardware.restore(state["hardware_tlb"])
        self.software.restore(state["software_tlb"])


_PFUS = 4
#: Software alternatives sit at these word offsets into the code.
_SOFT_SLOTS = st.integers(min_value=0, max_value=3)
_DISPATCH_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("map_hardware"), _PIDS, _CIDS,
                  st.integers(min_value=0, max_value=_PFUS - 1)),
        st.tuples(st.just("map_software"), _PIDS, _CIDS, _SOFT_SLOTS),
        st.tuples(st.just("unmap"), _PIDS, _CIDS),
        st.tuples(st.just("unmap_pid"), _PIDS),
        st.tuples(st.just("unmap_pfu"),
                  st.integers(min_value=0, max_value=_PFUS - 1)),
        st.tuples(st.just("flush")),
        st.tuples(st.just("snapshot")),
        st.tuples(st.just("restore"), st.integers(min_value=0, max_value=7)),
    ),
    max_size=40,
)


def _site_outcome(site, cid, ctx, pfus) -> tuple[str, int | None]:
    """Issue one compiled CDP site and read back how it dispatched: the
    PFU whose completion counter moved, the routine it branched to, or
    the fault it parked."""
    ctx.idx, ctx.interrupted, ctx.event = 0, False, None
    site(1 << 20)
    stepped = [pfu.index for pfu in pfus if pfu.read_and_clear_usage()]
    if stepped:
        assert ctx.event is None and not ctx.interrupted
        return "hardware", *stepped
    if ctx.event is not None:
        assert ctx.interrupted and ctx.event.cid == cid
        return "fault", None
    return "software", CODE_BASE + 4 * ctx.idx


def _resolution(result) -> tuple[str, int | None]:
    if result.kind is DispatchKind.HARDWARE:
        return "hardware", result.pfu_index
    return result.kind.value, result.address


@given(ops=_DISPATCH_OPS, entries=st.integers(min_value=1, max_value=4))
@settings(max_examples=100, deadline=None)
def test_dispatch_probes_agree_with_reference_model(ops, entries):
    """After every management call, ``DispatchUnit.resolve`` and a
    block-tier CDP site for every (PID, CID) resolve as the naive
    two-TLB model does: same kind and target, same lookups and hits on
    both TLBs, same trace outcome counts.  Restores replay earlier
    snapshots through JSON, as a checkpoint would."""
    config = MachineConfig(tlb_entries=entries, pfu_count=_PFUS)
    coprocessor = ProteusCoprocessor(config=config)
    for index in range(_PFUS):
        coprocessor.load_circuit(index, adder_spec().instantiate(1, config))
    pfus = coprocessor.pfus.pfus
    dispatch = coprocessor.dispatch
    model = _ReferenceDispatch(entries)
    ctx = RunContext()
    sites = {}
    for pid in range(1, 4):
        for cid in range(4):
            cdp = Instruction(Op.CDP, rd=2, rn=0, rm=1, imm=cid)
            sites[key(pid, cid)] = cdp_closure(
                cdp, 0, ctx, [0] * 16, coprocessor, config, pid
            )
    saved: list[dict] = []
    for op, *args in ops:
        if op in ("map_hardware", "map_software"):
            pid, cid, target = args
            if op == "map_software":
                target = CODE_BASE + 4 * target
            assert getattr(dispatch, op)(key(pid, cid), target) == getattr(
                model, op
            )(key(pid, cid), target)
        elif op == "unmap":
            dispatch.unmap(key(*args))
            model.unmap(key(*args))
        elif op in ("unmap_pid", "unmap_pfu", "flush"):
            assert getattr(dispatch, op)(*args) == getattr(model, op)(*args)
        elif op == "snapshot":
            saved.append(json.loads(json.dumps(dispatch.snapshot())))
        elif saved:
            state = saved[args[0] % len(saved)]
            dispatch.restore(state)
            model.restore(state)
        for k, site in sites.items():
            assert _resolution(dispatch.resolve(*k)) == model.resolve(k)
            assert _site_outcome(site, k.cid, ctx, pfus) == model.resolve(k)
        for tlb, reference in ((dispatch.hardware_tlb, model.hardware),
                               (dispatch.software_tlb, model.software)):
            assert (tlb.lookups, tlb.hits) == (reference.lookups,
                                               reference.hits)
        assert dispatch.trace.counters.dispatch == model.counts
