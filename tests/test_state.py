"""The machine-state base class and the completeness of every snapshot.

The rule tests drive :class:`~repro.state.Snapshotable` directly.  The
structural test runs points that between them turn on every plan,
policy and architecture, walks every object reachable from the kernel,
and holds each ``Snapshotable`` to its snapshot: an instance attribute
is either saved (its key, the attribute name without a leading
underscore, is in ``snapshot()`` of some reached instance of its class)
or listed in :data:`UNSAVED` with the reason it need not be.  A counter
a component bumps but leaves out of ``STATE`` fails here by name.
"""

import importlib
import inspect
import json
import pkgutil
from collections import deque

import pytest

import repro
from repro.core.circuit import CircuitInstance
from repro.core.coprocessor import ProteusCoprocessor
from repro.core.dispatch import DispatchUnit
from repro.core.operand_regs import OperandRegisters
from repro.core.pfu import PFU
from repro.core.regfile import FPLRegisterFile
from repro.core.tlb import DispatchTLB
from repro.cpu.core import CPU
from repro.errors import CheckpointError
from repro.fabric.array import PFURegion
from repro.faults import FaultInjector, FaultPlan
from repro.kernel.porsche import Porsche
from repro.kernel.predict import TransitionModel
from repro.kernel.process import Process
from repro.kernel.scheduler import RoundRobinScheduler
from repro.machine import Machine
from repro.prefetch import PrefetchPlan
from repro.sim.experiment import ExperimentSpec
from repro.state import Snapshotable
from repro.synth.plan import SynthesisPlan
from repro.trace.counters import CounterSink

SCALE = 1 / 8000


class _Point(Snapshotable):
    STATE = ("x", "_hand", "regs", "child", "table")

    def __init__(self):
        self.x = 1
        self._hand = 2
        self.regs = [0, 0, 0]
        self.child = _Leaf()
        self.table = {"a": 1}


class _Leaf(Snapshotable):
    STATE = ("n",)

    def __init__(self):
        self.n = 0


class TestRules:
    def test_keys_drop_the_leading_underscore(self):
        assert _Point().snapshot() == {
            "x": 1, "hand": 2, "regs": [0, 0, 0], "child": {"n": 0},
            "table": {"a": 1},
        }

    def test_restore_is_in_place(self):
        point = _Point()
        regs, child = point.regs, point.child
        point.restore({"x": 5, "hand": 6, "regs": [1, 2, 3],
                       "child": {"n": 7}, "table": {"b": 2}})
        assert point.regs is regs and regs == [1, 2, 3]
        assert point.child is child and child.n == 7
        assert (point.x, point._hand, point.table) == (5, 6, {"b": 2})

    def test_snapshot_shares_no_container(self):
        point = _Point()
        state = point.snapshot()
        state["regs"][0] = 9
        state["table"]["z"] = 0
        assert point.regs == [0, 0, 0] and point.table == {"a": 1}
        point.restore(state)
        state["table"]["y"] = 0
        assert "y" not in point.table

    @pytest.mark.parametrize("length", [2, 4])
    def test_a_list_of_another_length_is_refused(self, length):
        point = _Point()
        state = point.snapshot()
        state["regs"] = [7] * length
        with pytest.raises(CheckpointError, match=r"_Point\.regs"):
            point.restore(state)
        assert point.regs == [0, 0, 0]


def _alpha(**kwargs):
    return ExperimentSpec(workload="alpha", instances=3, quantum_ms=1.0,
                          scale=SCALE, **kwargs)


def _resumed_with(mutate) -> Machine:
    machine = Machine.from_spec(_alpha())
    machine.spawn_instances()
    machine.run_quanta(40)
    document = json.loads(json.dumps(machine.checkpoint()))
    mutate(document["kernel"])
    return Machine.resume(document)


class TestMalformedCheckpoint:
    """A checkpoint list of the wrong length is a :class:`CheckpointError`
    (a :class:`~repro.errors.ReproError`), never a resumed machine of
    another shape or a bare ``IndexError``."""

    @pytest.mark.parametrize("count", [15, 17])
    def test_cpu_registers(self, count):
        def mutate(kernel):
            regs = kernel["processes"]["1"]["cpu"]["state"]["regs"]
            del regs[count:]
            regs.extend([0] * (count - len(regs)))

        with pytest.raises(CheckpointError, match=r"CPUState\.regs"):
            _resumed_with(mutate)

    @pytest.mark.parametrize("tlb", ["hardware_tlb", "software_tlb"])
    def test_tlb_ram(self, tlb):
        def mutate(kernel):
            kernel["coprocessor"]["dispatch"][tlb]["ram"].pop()

        with pytest.raises(CheckpointError, match=r"DispatchTLB\.ram"):
            _resumed_with(mutate)

    @pytest.mark.parametrize("field,count", [
        ("regfile", 15), ("regfile", 17), ("operands", 3), ("operands", 5),
    ])
    def test_coproc_context(self, field, count):
        """Refused at resume, not at the first switch into the process
        (a short register file) or as a bare ``IndexError``."""
        def mutate(kernel):
            saved = kernel["processes"]["2"]["coproc_context"][field]
            del saved[count:]
            saved.extend([0] * (count - len(saved)))

        with pytest.raises(CheckpointError, match="pid 2: coproc_context"):
            _resumed_with(mutate)

    @pytest.mark.parametrize("count", [3, 5])
    def test_coprocessor_operands(self, count):
        def mutate(kernel):
            regs = kernel["coprocessor"]["operands"]["regs"]
            del regs[count:]
            regs.extend([0] * (count - len(regs)))

        with pytest.raises(CheckpointError, match=r"OperandRegisters\.regs"):
            _resumed_with(mutate)

    @pytest.mark.parametrize("case", [
        "keys_longer", "keys_shorter", "one_field_key", "entries",
        "duplicate_key", "fifo_hand",
    ])
    def test_tlb_section(self, case):
        """A malformed CAM section or FIFO hand is refused by name, not
        a bare ``IndexError``/``TypeError``, a ``TLBError``, or a
        resumed TLB that matches one key in two entries."""
        def mutate(kernel):
            tlb = kernel["coprocessor"]["dispatch"]["hardware_tlb"]
            keys = tlb["cam"]["keys"]
            valid = next(fields for fields in keys if fields is not None)
            if case == "keys_longer":
                keys.append(None)
            elif case == "keys_shorter":
                keys.pop()
            elif case == "one_field_key":
                valid.pop()
            elif case == "entries":
                tlb["cam"]["entries"] += 1
            elif case == "duplicate_key":
                keys[keys.index(None)] = list(valid)
            else:
                tlb["fifo_hand"] = 999

        field = "fifo_hand" if case == "fifo_hand" else "cam"
        with pytest.raises(CheckpointError, match=rf"DispatchTLB\.{field}"):
            _resumed_with(mutate)

    def test_pfu_bank(self):
        def mutate(kernel):
            kernel["coprocessor"]["pfus"]["pfus"].pop()

        with pytest.raises(CheckpointError, match=r"PFUBank\.pfus"):
            _resumed_with(mutate)

    @pytest.mark.parametrize("index", [9, -1, 1.0])
    def test_registration_names_no_pfu(self, index):
        def mutate(kernel):
            registration = kernel["processes"]["1"]["registrations"][0]
            assert registration["pfu_index"] is not None
            registration["pfu_index"] = index

        with pytest.raises(CheckpointError, match=r"pid 1: CID \d+ names PFU"):
            _resumed_with(mutate)

    def test_two_registrations_on_one_pfu(self):
        def mutate(kernel):
            first, second = (kernel["processes"][pid]["registrations"][0]
                             for pid in ("1", "2"))
            assert None not in (first["pfu_index"], second["pfu_index"])
            second["pfu_index"] = first["pfu_index"]

        with pytest.raises(CheckpointError, match="named by two registrations"):
            _resumed_with(mutate)

    def test_scheduler_queue_names_unknown_pid(self):
        def mutate(kernel):
            kernel["scheduler"]["queue"].append(9)

        with pytest.raises(CheckpointError, match=r"unknown pids \[9\]"):
            _resumed_with(mutate)

    def test_last_running_names_unknown_pid(self):
        def mutate(kernel):
            kernel["last_running"] = 9

        with pytest.raises(CheckpointError, match="unknown pid 9"):
            _resumed_with(mutate)

    def test_output_may_grow(self):
        def mutate(kernel):
            kernel["processes"]["1"]["output"].append(7)

        machine = _resumed_with(mutate)
        assert machine.processes[1].output[-1] == 7


FAULTS = FaultPlan(seed=9, recovery="reload", config_upset_rate=0.05,
                   datapath_error_rate=0.05, transfer_error_rate=0.1,
                   state_upset_rate=0.1, scrub_interval_quanta=8)
SYNTH = SynthesisPlan(min_executions=8, max_circuits_per_process=2,
                      trigger_instructions=100)

#: (spec, quanta run before the walk).  Between them: every replacement
#: policy, every plan, both baselines, software deferral and sharing;
#: the prefetch point stops where a registration is still marked
#: prefetched and a transfer has just landed.
WALKS = [
    (_alpha(policy="second_chance", fault_plan=FAULTS), 150),
    (_alpha(policy="lru", allow_sharing=True), 150),
    (_alpha(policy="random", architecture="prisc"), 150),
    (_alpha(architecture="memmap"), 150),
    (ExperimentSpec(workload="echo", instances=5, quantum_ms=1.0,
                    scale=SCALE, soft=True), 150),
    (ExperimentSpec(workload="hash", instances=3, quantum_ms=1.0,
                    scale=SCALE, synthesis=SYNTH), 150),
    (ExperimentSpec(workload="phases", instances=5, quantum_ms=1.0,
                    scale=SCALE, prefetch=PrefetchPlan()), 2177),
]

WIRING = "wiring to another component, restored by its owner"
CONFIG = "configuration, rebuilt from the spec"
PLAN = "saved by the kernel under the plan's own section"

#: (class, attribute) -> why the attribute is not in the class's
#: snapshot.  A base-class entry covers its subclasses.
UNSAVED = {
    (Porsche, "config"): CONFIG,
    (Porsche, "trace"): WIRING,
    (Porsche, "cis"): "holds no state of its own; its engine is saved "
                      "under 'prefetch'",
    (Porsche, "injector"): PLAN + " ('faults')",
    (Porsche, "predictor"): PLAN + " ('prefetch')",
    (Porsche, "stats"): "alias of counters.kernel",
    (Porsche, "_quantum_cycles"): CONFIG,
    (Porsche, "_synth_done"): "wall-clock memo, re-derived after a restore",
    (Process, "program"): "rebuilt from the spec (and the synth windows)",
    (Process, "base_program"): "rebuilt from the spec (and the synth "
                               "windows)",
    (Process, "memory"): "alias of cpu.state.memory",
    (Process, "cpu_state"): "alias of cpu.state",
    (Process, "stats"): "alias of the counters' per-pid view",
    (CPU, "config"): CONFIG,
    (CPU, "pid"): "owner, rebuilt from the process",
    (CPU, "program"): "alias of the process's program image",
    (CPU, "coprocessor"): WIRING,
    (CPU, "_tier"): CONFIG,
    (CPU, "_alu_cycles"): CONFIG,
    (CPU, "_ctx"): "compiled-tier cursor, reloaded from the PC",
    (CPU, "_ops"): "compiled code, rebuilt on the next run",
    (CPU, "_result"): "burst record, refilled by every run",
    (CircuitInstance, "spec"): CONFIG,
    (CircuitInstance, "pid"): "owner, rebuilt from the process",
    (CircuitInstance, "bitstream"): CONFIG,
    (CircuitInstance, "state"): "packed into 'words'",
    (CircuitInstance, "busy"): "packed into 'words'",
    (CircuitInstance, "cycles_done"): "packed into 'words'",
    (CircuitInstance, "latched_a"): "packed into 'words'",
    (CircuitInstance, "latched_b"): "packed into 'words'",
    (ProteusCoprocessor, "config"): CONFIG,
    (ProteusCoprocessor, "trace"): WIRING,
    (ProteusCoprocessor, "operand_regs"): "saved as 'operands'",
    (ProteusCoprocessor, "injector"): WIRING,
    (OperandRegisters, "source_a"): "packed into 'regs'",
    (OperandRegisters, "source_b"): "packed into 'regs'",
    (OperandRegisters, "dest_index"): "packed into 'regs'",
    (OperandRegisters, "valid"): "packed into 'regs'",
    (FPLRegisterFile, "size"): CONFIG,
    (FPLRegisterFile, "words"): "saved as 'regs'",
    (PFU, "index"): CONFIG,
    (PFU, "clb_capacity"): CONFIG,
    (PFU, "instance"): "re-attached from the registration that owns it",
    (PFURegion, "index"): CONFIG,
    (PFURegion, "clb_capacity"): CONFIG,
    (PFURegion, "seed"): CONFIG,
    (DispatchTLB, "entries"): CONFIG,
    (DispatchTLB, "keys"): "saved under 'cam' as lists of fields",
    (DispatchTLB, "targets"): "derived from the saved keys and RAM words; "
                              "refilled in place by restore",
    (DispatchTLB, "_holders"): "derived from the saved keys and RAM words",
    (DispatchUnit, "trace"): WIRING,
    (DispatchUnit, "generation"): "jit trace guard stamp, bumped by every "
                                  "restore",
    (RoundRobinScheduler, "processes"): WIRING,
    (FaultInjector, "plan"): CONFIG,
    (TransitionModel, "plan"): CONFIG,
    (CounterSink, "_process"): "saved as 'process'",
}


def _attributes(obj) -> dict:
    names = set(getattr(obj, "__dict__", ()))
    for cls in type(obj).__mro__:
        slots = cls.__dict__.get("__slots__", ())
        names.update((slots,) if isinstance(slots, str) else slots)
    names -= {"__dict__", "__weakref__"}
    return {name: getattr(obj, name) for name in names if hasattr(obj, name)}


def _reachable(root):
    """Every object reachable from ``root`` through containers and the
    attributes of the package's own classes."""
    seen = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen[id(obj)] = obj
        if isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset, deque)):
            stack.extend(obj)
        elif type(obj).__module__.startswith("repro."):
            stack.extend(_attributes(obj).values())
    return seen.values()


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _unsaved_reason(cls, attr):
    for base in cls.__mro__:
        reason = UNSAVED.get((base, attr))
        if reason is not None:
            return reason
    return None


@pytest.fixture(scope="module")
def reached():
    """class -> (attribute names, snapshot keys) over every instance of
    the class reachable from a kernel at one of the walk points."""
    found = {}
    for spec, quanta in WALKS:
        machine = Machine.from_spec(spec)
        machine.spawn_instances()
        assert machine.run_quanta(quanta) == quanta
        for obj in _reachable(machine.kernel):
            if isinstance(obj, Snapshotable):
                names, keys = found.setdefault(type(obj), (set(), set()))
                names.update(_attributes(obj))
                keys.update(obj.snapshot())
    return found


def test_every_attribute_is_saved_or_explained(reached):
    missing = sorted(
        f"{cls.__name__}.{name}"
        for cls, (names, keys) in reached.items()
        for name in names
        if name.lstrip("_") not in keys and _unsaved_reason(cls, name) is None
    )
    assert not missing, f"not in any snapshot: {missing}"


def test_every_explanation_names_a_live_attribute(reached):
    live = {
        (base, name)
        for cls, (names, _keys) in reached.items()
        for base in cls.__mro__
        for name in names
    }
    assert set(UNSAVED) <= live, set(UNSAVED) - live


def test_every_component_class_is_reached(reached):
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)
    concrete = {
        cls for cls in _subclasses(Snapshotable)
        if cls.__module__.startswith("repro.")
        and not cls.__name__.startswith("_")
        and not inspect.isabstract(cls)
    }
    assert concrete <= set(reached), concrete - set(reached)
