"""FU element codegen: every inline form equals the helper it replaces.

``ElementGraph.compile`` emits barrel shifts by a ``const`` amount, and
``sgn``/``sat16`` always, as inline expressions; a variable amount still
calls the shift helper.  Each case compiles a one-node graph both ways
and compares it with the helper, bit for bit: a graph output is masked
to 32 bits, so each node is read through three graphs, one per 32-bit
window of the wire (``shr`` by 0, 32 and 64).  That pins wide and
negative internal wires exactly, not just their low word.

The last test checks whole graphs: compiled code, which folds
single-use nodes into the expressions that use them, against a
node-by-node evaluation through the helpers and element templates.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.elements import (
    ELEMENTS,
    ElementGraph,
    _asr,
    _lsl,
    _lsr,
    _ror,
    _sat16,
    _to_signed,
)

MASK32 = 0xFFFFFFFF

SHIFTS = {"lsl": _lsl, "lsr": _lsr, "asr": _asr, "ror": _ror}
UNARY = {"sgn": _to_signed, "sat16": _sat16}

#: Shift amounts: zero, in range, the 32 boundary, and past the 8-bit
#: amount field (256 and 287 wrap to 0 and 31).
AMOUNTS = (0, 1, 8, 24, 31, 32, 33, 255, 256, 287)

#: Edge words plus wide wires of both signs.
VALUES = (0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF,
          2**33 + 5, -(2**33) + 5, 2**33 - 5, -(2**33) - 5)

#: Window shifts; 96 bits cover every wire these inputs can produce.
WINDOWS = (0, 32, 64)

wires = st.one_of(
    st.integers(min_value=0, max_value=MASK32),
    st.integers(min_value=-(2**40), max_value=2**40),
)


def windows(value: int) -> tuple[int, ...]:
    return tuple((value >> shift) & MASK32 for shift in WINDOWS)


def _graphs(op: str, amount: int | None) -> list:
    """``op`` over input ``a`` (and a const ``amount``, or input ``b``
    when ``amount`` is None), read through each window."""
    fns = []
    for shift in WINDOWS:
        graph = ElementGraph(f"{op}_{amount}_{shift}")
        value = graph.input_a()
        if op in SHIFTS:
            by = graph.input_b() if amount is None else graph.const(amount)
            node = graph.apply(op, value, by)
        else:
            node = graph.apply(op, value)
        graph.set_output(graph.apply("shr", node, graph.const(shift)))
        fns.append(graph.compile())
    return fns


_COMPILED: dict = {}


def compiled(op: str, amount: int | None = None):
    """``fn(a, b) -> windows`` of the compiled one-node graph."""
    key = (op, amount)
    if key not in _COMPILED:
        fns = _graphs(op, amount)
        _COMPILED[key] = lambda a, b=0: tuple(fn(a, b, []) for fn in fns)
    return _COMPILED[key]


def test_const_shifts_compile_inline():
    """Constant amounts leave no helper call in the generated code; a
    variable amount keeps one."""
    for op in SHIFTS:
        for amount in AMOUNTS:
            graph = ElementGraph("inline")
            graph.set_output(
                graph.apply(op, graph.input_a(), graph.const(amount))
            )
            assert not graph.compile().__code__.co_names, (op, amount)
        graph = ElementGraph("variable")
        graph.set_output(graph.apply(op, graph.input_a(), graph.input_b()))
        assert graph.compile().__code__.co_names == (f"_{op}",)
    for op in UNARY:
        graph = ElementGraph("inline")
        graph.set_output(graph.apply(op, graph.input_a()))
        assert not graph.compile().__code__.co_names, op


@pytest.mark.parametrize("amount", AMOUNTS)
@pytest.mark.parametrize("op", sorted(SHIFTS))
def test_const_shift_matches_helper(op, amount):
    fn = compiled(op, amount)
    for value in VALUES:
        assert fn(value) == windows(SHIFTS[op](value, amount)), value


@pytest.mark.parametrize("amount", AMOUNTS)
@pytest.mark.parametrize("op", sorted(SHIFTS))
def test_variable_shift_matches_helper(op, amount):
    fn = compiled(op)
    for value in VALUES:
        assert fn(value, amount) == windows(SHIFTS[op](value, amount)), value


@pytest.mark.parametrize("op", sorted(UNARY))
def test_unary_matches_helper(op):
    fn = compiled(op)
    for value in VALUES + (32767, 32768, -32768, -32769):
        assert fn(value) == windows(UNARY[op](value)), value


@given(value=wires, amount=st.sampled_from(AMOUNTS),
       op=st.sampled_from(sorted(SHIFTS)))
@settings(max_examples=300, deadline=None)
def test_shifts_match_helper_on_drawn_wires(value, amount, op):
    expected = windows(SHIFTS[op](value, amount))
    assert compiled(op, amount)(value) == expected
    assert compiled(op)(value, amount) == expected


@given(value=wires, op=st.sampled_from(sorted(UNARY)))
@settings(max_examples=200, deadline=None)
def test_unary_match_helper_on_drawn_wires(value, op):
    assert compiled(op)(value) == windows(UNARY[op](value))


TABLE = tuple((i * 2654435761) & MASK32 for i in range(256))
#: A second ROM, so a graph reads more than one distinct table.
TABLE2 = tuple((i * 40503 + 7) & MASK32 for i in range(256))


def test_equal_roms_share_one_tuple():
    """Lookups with equal contents read one tuple, whatever list they
    were built from; each still costs a ROM and still names its own
    index, and a different table stays its own."""
    graph = ElementGraph("roms")
    a, b = graph.input_a(), graph.input_b()
    first = graph.lookup(list(TABLE), a)
    second = graph.lookup(TABLE, b)
    other = graph.lookup(TABLE2, a)
    graph.set_output(graph.apply(
        "eor", graph.apply("eor", first, second), other))
    nodes = graph._nodes
    assert nodes[first.index].payload is nodes[second.index].payload
    assert nodes[other.index].payload is not nodes[first.index].payload
    assert graph.cells() == 3 * 64 + 2 * ELEMENTS["eor"].cells
    assert graph.compile()(3, 5, []) == TABLE[3] ^ TABLE[5] ^ TABLE2[3]


def evaluate(graph: ElementGraph, a: int, b: int, state: list[int]):
    """Reference semantics, one node at a time: shifts, ``sgn`` and
    ``sat16`` through their helpers, other elements through their
    templates on literal operands.  Returns (result, state after)."""
    values = []
    for node in graph._nodes:
        if node.kind in ("a", "b"):
            value = a if node.kind == "a" else b
        elif node.kind == "const":
            value = node.payload
        elif node.kind == "state":
            value = state[node.payload]
        elif node.kind == "lookup":
            value = node.payload[values[node.args[0]] & 255]
        else:
            args = [values[arg] for arg in node.args]
            helper = {**SHIFTS, **UNARY}.get(node.payload)
            if helper is not None:
                value = helper(*args)
            else:
                template = ELEMENTS[node.payload].template
                value = eval(template.format(*[f"({v})" for v in args]))
        values.append(value)
    after = list(state)
    for index, ref in graph._state_writes:
        after[index] = values[ref] & MASK32
    return values[graph._output] & MASK32, after


@st.composite
def graphs(draw):
    """A random two-state-word graph over the whole element menu, with
    chains of single-use nodes for the compiler to fold."""
    graph = ElementGraph("random")
    wires = [graph.input_a(), graph.input_b(), graph.state(0),
             graph.state(1)]
    for _ in range(draw(st.integers(min_value=1, max_value=24))):
        # Mostly the newest wires, so single-use chains form.
        pick = st.integers(min_value=max(0, len(wires) - 4),
                           max_value=len(wires) - 1) | st.integers(
            min_value=0, max_value=len(wires) - 1)
        kind = draw(st.sampled_from(sorted(ELEMENTS) + ["const", "lookup"]))
        if kind == "const":
            wires.append(graph.const(draw(st.sampled_from(
                AMOUNTS + (-1, 0xFFFFFFFF, 2**33 + 5)))))
        elif kind == "lookup":
            wires.append(graph.lookup(draw(st.sampled_from((TABLE, TABLE2))),
                                      wires[draw(pick)]))
        else:
            args = [wires[draw(pick)] for _ in range(ELEMENTS[kind].arity)]
            wires.append(graph.apply(kind, *args))
    for index in draw(st.lists(st.integers(min_value=0, max_value=1),
                               max_size=2, unique=True)):
        graph.set_state(index, wires[draw(st.integers(
            min_value=0, max_value=len(wires) - 1))])
    graph.set_output(wires[-1])
    return graph


@given(graph=graphs(), a=wires, b=wires,
       state=st.lists(st.integers(min_value=0, max_value=MASK32),
                      min_size=2, max_size=2))
@settings(max_examples=300, deadline=None)
def test_compiled_graph_matches_node_by_node_evaluation(graph, a, b, state):
    after = list(state)
    try:
        expected = evaluate(graph, a, b, state)
    except ValueError:  # ``shr`` by a negative wire
        with pytest.raises(ValueError):
            graph.compile()(a, b, after)
        return
    assert (graph.compile()(a, b, after), after) == expected
