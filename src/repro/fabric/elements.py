"""Parameterised functional-unit element library (the FU menu).

Instead of every custom instruction being a bespoke Python closure, a
circuit is *composed* from a menu of parameterised elements — adders,
logic, barrel shifters, multipliers, muxes, comparators, lookup ROMs —
each carrying a cell cost and a logic-level depth.  A composed circuit
is a dataflow graph over those elements; the graph compiles (once, at
spec-construction time) to a straight-line Python function with the
same two-word-in / one-word-out contract as every hand-written
behaviour, plus CLB and latency estimates derived from the element
costs.  This is the IMPRESS ``element_info_t``/``FU_functions_t`` idiom:
a function menu, not bespoke circuits.

Wire semantics
--------------

A wire carries a plain Python integer.  The graph's inputs (operand
words, state words) are 32-bit words; the circuit *output* and every
*state write* are masked to 32 bits.  Internal wires may grow beyond 32
bits — a synthesised datapath is free to use wider intermediate buses —
so exact-arithmetic app kernels (saturating mixers, blend arithmetic)
re-express bit-identically.  Elements that model the CPU's own ALU
(``lsl``/``lsr``/``asr``/``ror`` and the wrapped arithmetic the miner
emits) reproduce :meth:`repro.cpu.core.CPU._shift` exactly, so a mined
circuit computes precisely what the instruction run it replaces would
have.

State reads always observe the values from *before* the invocation;
state writes commit at completion.  (The compiled function reads every
state word it uses into a local before any ``state[i] = ...``
assignment runs.)

The compiled function is straight-line Python: constants, barrel
shifts by a constant amount, ``sgn`` and ``sat16`` are emitted as
inline expressions, and a node used once is folded into the expression
that uses it, so most nodes cost neither a call nor a local.  Lookups
with equal contents share one ROM tuple and one name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import PFUError

__all__ = [
    "Element",
    "ELEMENTS",
    "Wire",
    "ElementGraph",
    "PhaseMachine",
    "ComposedBehaviour",
    "PhaseBehaviour",
    "CLB_CELLS",
    "LEVELS_PER_CYCLE",
]

MASK32 = 0xFFFFFFFF

#: Logic cells per CLB: the estimator packs eight cells into one CLB.
CLB_CELLS = 8

#: Logic levels the fabric settles per clock: a graph whose critical
#: path is ``n`` levels deep needs ``ceil(n / LEVELS_PER_CYCLE)`` cycles.
LEVELS_PER_CYCLE = 3


def _to_signed(value: int) -> int:
    value &= MASK32
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


# ---------------------------------------------------------------------------
# ARM barrel-shifter semantics (must match CPU._shift exactly)
# ---------------------------------------------------------------------------

def _lsl(value: int, amount: int) -> int:
    amount &= 0xFF
    if amount == 0:
        return value
    return (value << amount) & MASK32 if amount < 32 else 0


def _lsr(value: int, amount: int) -> int:
    amount &= 0xFF
    if amount == 0:
        return value
    return (value >> amount) if amount < 32 else 0


def _asr(value: int, amount: int) -> int:
    amount &= 0xFF
    if amount == 0:
        return value
    return (_to_signed(value) >> min(amount, 31)) & MASK32


def _ror(value: int, amount: int) -> int:
    amount &= 0xFF
    if amount == 0:
        return value
    amount %= 32
    return ((value >> amount) | (value << (32 - amount))) & MASK32


def _sat16(value: int) -> int:
    if value > 32767:
        return 32767
    if value < -32768:
        return -32768
    return value


# Inline source forms, emitted by ElementGraph.compile.  Each reproduces
# its helper above bit for bit, on wide and negative wires too.

#: ``_to_signed({0})``: sign-extend the low 32 bits.
_SGN = "((({0} & 4294967295) ^ 2147483648) - 2147483648)"

#: ``_sat16({0})``.  It names its slot three times; the compiler fills
#: a slot named more than once with a local, never a folded expression.
_SAT16 = "(32767 if {0} > 32767 else -32768 if {0} < -32768 else {0})"


def _shift_by_const(op: str, value: str, amount: int) -> str:
    """Source for barrel shift ``op`` of ``value`` by the constant
    ``amount`` — the helper's arithmetic done at compile time.  Only
    ``ror`` names ``value`` twice, so only it needs a local there."""
    amount &= 0xFF
    if amount == 0:
        return value
    if op == "ror":
        amount %= 32
        if amount == 0:
            return f"({value} & 4294967295)"
        return (
            f"((({value} >> {amount}) | ({value} << {32 - amount}))"
            " & 4294967295)"
        )
    if op == "asr":
        signed = _SGN.format(value)
        return f"(({signed} >> {min(amount, 31)}) & 4294967295)"
    if amount >= 32:
        return "0"
    if op == "lsl":
        return f"(({value} << {amount}) & 4294967295)"
    return f"({value} >> {amount})"  # lsr


@dataclass(frozen=True)
class Element:
    """One entry in the FU menu: a function plus its fabric cost."""

    name: str
    arity: int
    #: Logic cells consumed (8 cells ≈ one CLB).
    cells: int
    #: Combinational depth in logic levels (3 levels ≈ one cycle).
    levels: int
    #: Expression template with ``{0}``/``{1}``/... argument slots.
    template: str


#: The element menu.  ``add``/``sub``/``rsb``/``mul`` are exact integer
#: arithmetic (wide internal buses); compose with ``wrap`` for the
#: mod-2^32 view the CPU's register file would observe.  ``shr`` is a
#: plain arithmetic right shift on the (possibly signed, possibly wide)
#: wire value — distinct from ``asr``, which is the ARM barrel shifter
#: on a 32-bit word.  Comparators compare raw wire integers; apply
#: ``sgn`` first for signed-word comparisons.
ELEMENTS: dict[str, Element] = {
    element.name: element
    for element in [
        # arithmetic
        Element("add", 2, 32, 2, "({0} + {1})"),
        Element("sub", 2, 32, 2, "({0} - {1})"),
        Element("rsb", 2, 32, 2, "({1} - {0})"),
        Element("mul", 2, 96, 4, "({0} * {1})"),
        Element("shr", 2, 8, 1, "({0} >> {1})"),
        # width adapters (pure wiring: no cells, no levels)
        Element("wrap", 1, 0, 0, "({0} & 4294967295)"),
        Element("sgn", 1, 0, 0, _SGN),
        Element("sat16", 1, 20, 2, _SAT16),
        # bitwise logic
        Element("and", 2, 16, 1, "({0} & {1})"),
        Element("orr", 2, 16, 1, "({0} | {1})"),
        Element("eor", 2, 16, 1, "({0} ^ {1})"),
        Element("bic", 2, 16, 1, "({0} & ~{1})"),
        Element("mvn", 1, 8, 1, "(~{0} & 4294967295)"),
        # ARM barrel shifter (32-bit word semantics, matches CPU._shift)
        Element("lsl", 2, 48, 2, "_lsl({0}, {1})"),
        Element("lsr", 2, 48, 2, "_lsr({0}, {1})"),
        Element("asr", 2, 48, 2, "_asr({0}, {1})"),
        Element("ror", 2, 48, 2, "_ror({0}, {1})"),
        # selection and comparison
        Element("mux", 3, 16, 1, "({1} if {0} else {2})"),
        Element("gt", 2, 33, 2, "(1 if {0} > {1} else 0)"),
        Element("lt", 2, 33, 2, "(1 if {0} < {1} else 0)"),
        Element("ge", 2, 33, 2, "(1 if {0} >= {1} else 0)"),
        Element("le", 2, 33, 2, "(1 if {0} <= {1} else 0)"),
        Element("eq", 2, 33, 2, "(1 if {0} == {1} else 0)"),
    ]
}

#: Barrel-shifter elements: compiled inline when the amount is a
#: ``const`` node, through their helper otherwise.
_SHIFTS = ("lsl", "lsr", "asr", "ror")

#: Deepest chain of single-use nodes folded into one expression.
_FOLD_DEPTH = 8

#: Cost of a 256-entry lookup ROM (modelled as block memory, not LUTs).
_LOOKUP = Element("lookup", 1, 64, 2, "")


@dataclass(frozen=True)
class Wire:
    """A handle to one node of an :class:`ElementGraph`."""

    graph_id: int
    index: int


class _Node:
    __slots__ = ("kind", "args", "payload", "levels")

    def __init__(self, kind: str, args: tuple[int, ...], payload=None):
        self.kind = kind
        self.args = args
        self.payload = payload
        self.levels = 0


class ElementGraph:
    """A two-in / one-out dataflow graph over the element menu.

    Build with :meth:`input_a`/:meth:`input_b`/:meth:`const`/
    :meth:`state`/:meth:`apply`/:meth:`lookup`, then mark the result with
    :meth:`set_output` and any state commits with :meth:`set_state`.
    Nodes are SSA — every :meth:`apply` references wires created earlier —
    so creation order is already a topological order and compilation is a
    single forward pass.
    """

    _next_id = 0

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        ElementGraph._next_id += 1
        self._id = ElementGraph._next_id
        self._nodes: list[_Node] = []
        self._output: int | None = None
        self._state_writes: list[tuple[int, int]] = []
        self._compiled: Callable[[int, int, list[int]], int] | None = None
        #: ROM contents -> the one tuple every lookup with them reads.
        self._roms: dict[tuple[int, ...], tuple[int, ...]] = {}

    # ---- construction ----------------------------------------------------
    def _add(self, kind: str, args: tuple[int, ...] = (), payload=None) -> Wire:
        if self._compiled is not None:
            raise PFUError(f"{self.name}: graph already compiled")
        node = _Node(kind, args, payload)
        self._nodes.append(node)
        return Wire(self._id, len(self._nodes) - 1)

    def _ref(self, wire: Wire) -> int:
        if not isinstance(wire, Wire) or wire.graph_id != self._id:
            raise PFUError(f"{self.name}: wire belongs to another graph")
        return wire.index

    def input_a(self) -> Wire:
        return self._add("a")

    def input_b(self) -> Wire:
        return self._add("b")

    def const(self, value: int) -> Wire:
        return self._add("const", payload=int(value))

    def state(self, index: int) -> Wire:
        if index < 0:
            raise PFUError(f"{self.name}: negative state index")
        return self._add("state", payload=index)

    def apply(self, op: str, *args: Wire) -> Wire:
        element = ELEMENTS.get(op)
        if element is None:
            raise PFUError(f"{self.name}: unknown element {op!r}")
        if len(args) != element.arity:
            raise PFUError(
                f"{self.name}: {op} takes {element.arity} operands, "
                f"got {len(args)}"
            )
        return self._add("op", tuple(self._ref(arg) for arg in args), op)

    def lookup(self, table, index: Wire) -> Wire:
        """A 256-entry ROM: ``table[index & 0xFF]``.

        Each lookup is its own ROM in the cost model, but lookups with
        the same contents share one tuple.  An unrolled Twofish reads
        four tables through 128 lookups: 128 private copies held about
        1.2 MB, and the round ran measurably slower inside a simulation,
        between other work, than one copy of each table does.
        """
        values = tuple(int(v) & MASK32 for v in table)
        if len(values) != 256:
            raise PFUError(
                f"{self.name}: lookup table needs 256 entries, "
                f"got {len(values)}"
            )
        values = self._roms.setdefault(values, values)
        return self._add("lookup", (self._ref(index),), values)

    def set_state(self, index: int, wire: Wire) -> None:
        """Commit ``wire`` (masked) to state word ``index`` at completion."""
        if index < 0:
            raise PFUError(f"{self.name}: negative state index")
        self._state_writes.append((index, self._ref(wire)))

    def set_output(self, wire: Wire) -> None:
        self._output = self._ref(wire)

    # ---- cost model ------------------------------------------------------
    def cells(self) -> int:
        total = 0
        for node in self._nodes:
            if node.kind == "op":
                total += ELEMENTS[node.payload].cells
            elif node.kind == "lookup":
                total += _LOOKUP.cells
        return total

    def levels(self) -> int:
        """Critical-path depth in logic levels (output + state commits)."""
        depth = 0
        for node in self._nodes:
            arg_depth = max(
                (self._nodes[arg].levels for arg in node.args), default=0
            )
            if node.kind == "op":
                node.levels = arg_depth + ELEMENTS[node.payload].levels
            elif node.kind == "lookup":
                node.levels = arg_depth + _LOOKUP.levels
            else:
                node.levels = 0
        sinks = list(self._state_writes)
        if self._output is not None:
            sinks.append((0, self._output))
        for _, ref in sinks:
            depth = max(depth, self._nodes[ref].levels)
        return depth

    def clb_estimate(self) -> int:
        """CLBs at :data:`CLB_CELLS` cells per CLB (at least one)."""
        return max(1, -(-self.cells() // CLB_CELLS))

    def latency_estimate(self) -> int:
        """Cycles at :data:`LEVELS_PER_CYCLE` levels per cycle."""
        return max(1, -(-self.levels() // LEVELS_PER_CYCLE))

    def max_state_index(self) -> int:
        """Highest state word touched, or -1 for stateless graphs."""
        highest = -1
        for node in self._nodes:
            if node.kind == "state":
                highest = max(highest, node.payload)
        for index, _ in self._state_writes:
            highest = max(highest, index)
        return highest

    # ---- compilation -----------------------------------------------------
    def compile(self) -> Callable[[int, int, list[int]], int]:
        """Compile to ``fn(a, b, state) -> result`` (cached)."""
        if self._compiled is not None:
            return self._compiled
        if self._output is None:
            raise PFUError(f"{self.name}: graph has no output")
        env: dict = {
            "_lsl": _lsl,
            "_lsr": _lsr,
            "_asr": _asr,
            "_ror": _ror,
        }
        nodes = self._nodes
        uses = [0] * len(nodes)
        for node in nodes:
            for arg in node.args:
                uses[arg] += 1
        for _, ref in self._state_writes:
            uses[ref] += 1
        uses[self._output] += 1
        lines = ["def _fn(a, b, state):"]
        # How later nodes name each node: operands and constants are
        # used in place, a single-use op or lookup is folded into its
        # consumer's expression (up to _FOLD_DEPTH deep), and every
        # other node is computed once into a local.
        refs: list[str] = []
        depth: list[int] = []
        #: id(ROM tuple) -> its one name in ``env``.
        roms: dict[int, str] = {}

        def local(arg: int) -> str:
            """``arg`` as a local, for a slot its consumer names twice."""
            if depth[arg]:
                lines.append(f"    v{arg} = {refs[arg]}")
                refs[arg] = f"v{arg}"
                depth[arg] = 0
            return refs[arg]

        for i, node in enumerate(nodes):
            if node.kind in ("a", "b"):
                refs.append(node.kind)
                depth.append(0)
                continue
            if node.kind == "const":
                refs.append(f"({node.payload!r})")
                depth.append(0)
                continue
            if node.kind == "state":
                lines.append(f"    v{i} = state[{node.payload}]")
                refs.append(f"v{i}")
                depth.append(0)
                continue
            if node.kind == "lookup":
                table_name = roms.get(id(node.payload))
                if table_name is None:
                    table_name = roms[id(node.payload)] = f"_t{len(roms)}"
                    env[table_name] = node.payload
                expr = f"{table_name}[{refs[node.args[0]]} & 255]"
            else:  # op
                op = node.payload
                amount = nodes[node.args[-1]]
                if op in _SHIFTS and amount.kind == "const":
                    value = node.args[0]
                    value = local(value) if op == "ror" else refs[value]
                    expr = _shift_by_const(op, value, amount.payload)
                else:
                    # A slot named twice, or a mux arm (evaluated only
                    # when selected), takes a local, so every node is
                    # still evaluated exactly once.
                    template = ELEMENTS[op].template
                    expr = template.format(*[
                        local(arg)
                        if (op == "mux" and k)
                        or template.count(f"{{{k}}}") > 1
                        else refs[arg]
                        for k, arg in enumerate(node.args)
                    ])
            level = 1 + max(depth[arg] for arg in node.args)
            if uses[i] == 1 and level <= _FOLD_DEPTH:
                refs.append(f"({expr})")
                depth.append(level)
            else:
                lines.append(f"    v{i} = {expr}")
                refs.append(f"v{i}")
                depth.append(0)
        for index, ref in self._state_writes:
            lines.append(f"    state[{index}] = {refs[ref]} & 4294967295")
        lines.append(f"    return {refs[self._output]} & 4294967295")
        exec(compile("\n".join(lines), f"<fu:{self.name}>", "exec"), env)
        self._compiled = env["_fn"]
        return self._compiled

    def as_behaviour(self, latency: int | None = None) -> "ComposedBehaviour":
        return ComposedBehaviour(
            self, latency if latency is not None else self.latency_estimate()
        )


class ComposedBehaviour:
    """A :class:`~repro.core.circuit.CircuitBehaviour` backed by a graph."""

    def __init__(self, graph: ElementGraph, fixed_latency: int) -> None:
        self.graph = graph
        self.fixed_latency = max(1, fixed_latency)
        #: ``compute(a, b, state)`` is the compiled graph itself: its
        #: output is already masked to 32 bits.
        self.compute = graph.compile()
        self._selected = (self.fixed_latency, self.compute)

    def select(self, a: int, b: int, state: list[int]) -> tuple[int, Callable]:
        return self._selected


class PhaseMachine:
    """A multi-phase composite: dispatch on a selector state word.

    Wide kernels (e.g. a 128-bit block cipher) stream operands through
    the two-word PFU interface over several invocations.  Each phase is
    its own :class:`ElementGraph`; the selector state word picks which
    graph an invocation runs (and its latency).  Phase transitions are
    ordinary state writes inside the phase graphs.
    """

    def __init__(self, name: str = "phases", selector: int = 0) -> None:
        if selector < 0:
            raise PFUError(f"{name}: negative selector index")
        self.name = name
        self.selector = selector
        self._phases: dict[int, tuple[ElementGraph, int]] = {}

    def phase(
        self, value: int, graph: ElementGraph, latency: int | None = None
    ) -> None:
        if value in self._phases:
            raise PFUError(f"{self.name}: duplicate phase {value}")
        self._phases[value] = (
            graph,
            latency if latency is not None else graph.latency_estimate(),
        )

    def cells(self) -> int:
        return sum(graph.cells() for graph, _ in self._phases.values())

    def clb_estimate(self) -> int:
        return max(1, -(-self.cells() // CLB_CELLS))

    def max_state_index(self) -> int:
        highest = self.selector
        for graph, _ in self._phases.values():
            highest = max(highest, graph.max_state_index())
        return highest

    def as_behaviour(self, latency=None) -> "PhaseBehaviour":
        if not self._phases:
            raise PFUError(f"{self.name}: phase machine has no phases")
        latencies = {value: lat for value, (_, lat) in self._phases.items()}
        if latency is not None:
            latencies.update(latency)
        return PhaseBehaviour(
            self.name,
            self.selector,
            {value: graph.compile() for value, (graph, _) in self._phases.items()},
            latencies,
        )


class PhaseBehaviour:
    """Compiled form of a :class:`PhaseMachine`."""

    def __init__(
        self,
        name: str,
        selector: int,
        fns: dict[int, Callable[[int, int, list[int]], int]],
        latencies: dict[int, int],
    ) -> None:
        self.name = name
        self.selector = selector
        #: Phase -> (latency, compiled graph); the graphs mask their
        #: own outputs.
        self._phases = {
            phase: (max(1, latencies[phase]), fn) for phase, fn in fns.items()
        }

    def select(self, a: int, b: int, state: list[int]) -> tuple[int, Callable]:
        phase = state[self.selector]
        selected = self._phases.get(phase)
        if selected is None:
            raise PFUError(f"{self.name}: no phase {phase}")
        return selected
