"""Trace-JIT compiler — the ``jit`` execution tier.

The ``block`` tier (:mod:`repro.cpu.blocks`) fuses straight-line runs
into superinstruction functions, but a burst still dispatches once per
basic block and every register access is a list subscript.  This module
adds a third tier on top of it: when a block leader gets hot (a counted
block-entry / back-edge threshold), the recorder walks the program along
the *predicted* path — through fused runs, across branches (backward
taken, forward not taken), through coprocessor transfers, and through
hardware-resolved CDPs — and emits one straight-line Python function for
the whole trace:

* **registers as locals** — every core register the trace touches is
  loaded into a Python local once on entry and the written ones are
  spilled back once, by a ``finally`` every exit passes through, so the
  hot path runs on ``LOAD_FAST``/``STORE_FAST`` instead of list
  subscripts;
* **bulk cycle accounting** — each fused segment charges its precomputed
  cycle total in one addition, exactly like a block superinstruction;
* **loop closure** — a trace whose path returns to its own entry becomes
  a ``while True`` loop, so one ``run()`` dispatch executes as many
  iterations as the burst budget allows.

**Why the tier stays bit-identical.**  Every guard in a generated trace
re-states the commit condition of :meth:`repro.cpu.core.CPU.run`'s
dispatch loop in accumulated-cycle arithmetic (``_u`` consumed so far
against the burst budget ``_b``), and every side exit restores the exact
observable state — ``ctx.idx`` on the next instruction, ``ctx.retired``
flushed, modified registers spilled — before returning the exact cycles
consumed.  From that point the proven block-tier machinery continues
the burst, so a trace can exit *anywhere* (budget shortfall, branch
leaving the path, dispatch-generation change, interrupted CDP, memory
fault) without perturbing cycle counts, burst boundaries, counters or
checkpoints.  Bulk-committing a fused segment is identical to stepping
it because every per-instruction cost is positive: remaining budget
``>=`` the segment total commits the same instructions either way, and a
shortfall hands back to per-instruction stepping exactly where the block
tier's own budget guard would.

**What is traceable.**  Fused-run ops (see
:data:`~repro.cpu.isa.FUSIBLE_OPS`), in-range B/BL, and — as single
components — MCR/MRC/LDO/STO.  A CDP joins a trace only when the
coprocessor's
:attr:`~repro.core.coprocessor.ProteusCoprocessor.completion_hook` is
``None`` (no fault plan: a :class:`~repro.cpu.exceptions.FabricFault`
raised mid-trace would discard committed cycles) and the recorder's
side-effect-free TLB peek resolves it in hardware; the generated code
then replays the memoized warm path of
:func:`repro.cpu.translate.cdp_closure` —
TLB statistics, ``dispatch`` event and all — behind a
dispatch-generation guard, and makes one call,
:meth:`~repro.core.pfu.PFU.step` of the resolved PFU with no hook, on
operands read from the FPL word list, writing a completed result back
to it.  Everything
else (SWI, HALT, BX, software/faulting CDPs, translation-time raisers
such as an MRC or LDO into the pc, and any MCR/MRC/CDP naming an FPL
register the file does not have) ends the trace at the preceding
instruction, so the block tier raises it with exact state.

**One emitter.**  Every traced instruction but CDP and the branches is
emitted by :func:`repro.cpu.blocks._emit_instruction`, the code the
block tier runs, with Python locals in place of register-file
subscripts; branch conditions come from its ``_COND_EXPR`` table.  So
loads and stores use the inline memory fast path, and an MCR or MRC is
a subscript of the FPL register file's bound word list (see
:mod:`repro.cpu.blocks`).  An exception from any instruction passes
through the same ``finally`` as a return, so it leaves the registers
spilled and the retired count flushed.

**Invalidation.**  A trace containing a CDP is valid only for the
mappings it was recorded against: its guard compares the live
:attr:`~repro.core.dispatch.DispatchUnit.generation` with ``_eg``, the
generation at recording, bound per install like the pid and the
``step`` of the PFU each CDP resolved to.  When a management call
(map/unmap/flush/restore) bumps the generation, the guard drops the
stale trace and re-installs the profiling wrapper; a re-heat records
the path again.  A manager keeps the code it compiled for each
recording, so a re-heat onto a path seen before emits and compiles
nothing and a re-install costs one ``exec``.  The source names no
machine state, so the process-wide code cache of
:mod:`repro.cpu.blocks` hands every instance of a program one shared
code object.
"""

from __future__ import annotations

import weakref
from types import CodeType

from ..config import MachineConfig
from ..core.coprocessor import ProteusCoprocessor
from ..core.tlb import IDTuple
from .blocks import (
    _COND_EXPR,
    _ENV_NAMES,
    _base_env,
    _code_for,
    _emit_instruction,
    _fusible,
    _layout,
    block_leaders,
    translate_blocks,
)
from .isa import CODE_BASE, Cond, Flags, Instruction, Op, PC_WRITERS
from .memory import Memory
from .translate import OpClosure, RunContext

__all__ = ["translate_traces", "TraceManager", "HOT_THRESHOLD"]

#: Block-leader entries before a trace is recorded.  Low enough that the
#: short loops in the equivalence suite compile mid-run; a trace that
#: never re-heats costs one ``exec`` (and one ``compile()`` if new).
HOT_THRESHOLD = 4

#: Upper bound on instructions consumed by one trace (runaway guard).
MAX_TRACE_INSTRUCTIONS = 512

#: Ops traced as single components, budget-guarded with the cursor
#: pinned on them.  CDP is handled separately.
_SIMPLE_OPS = (Op.MCR, Op.MRC, Op.LDO, Op.STO)

#: Parameter name -> environment key for trace codegen, extending the
#: block compiler's table with the trace-only bindings.
_TRACE_ENV_NAMES = dict(
    _ENV_NAMES,
    _dsp="_DSP",
    _hwt="_HWT",
    _dtr="_DTR",
    _fb="_FB",
    _ivd="_IVD",
    _eg="_EG",
    _pid="_PID",
)


class OpList(list):
    """The ops list with its :class:`TraceManager` attached (the list is
    what :meth:`CPU._compile` hands back; tests and tooling reach the
    manager through it).

    The list owns the manager, and the manager's profiling wrappers sit
    in the list, so the manager refers back to it weakly: a dropped CPU
    then frees its whole compiled program by reference counting instead
    of leaving it to the cyclic collector.
    """

    __slots__ = ("manager", "__weakref__")


def translate_traces(
    program: list[Instruction],
    ctx: RunContext,
    regs: list[int],
    flags: Flags,
    memory: Memory,
    coprocessor: ProteusCoprocessor,
    config: MachineConfig,
    pid: int,
    state,
) -> list[OpClosure]:
    """Compile a program block-tier style, then arm trace profiling.

    Drop-in replacement for :func:`repro.cpu.blocks.translate_blocks`:
    the returned list holds one callable per instruction index.  Block
    leaders start under a counting wrapper that records and installs a
    compiled trace once hot; every other index keeps its block-tier
    behaviour, which is also what every trace side-exit falls back on.
    """
    base = translate_blocks(
        program, ctx, regs, flags, memory, coprocessor, config, pid, state
    )
    ops = OpList(base)
    ops.manager = TraceManager(
        program, ops, ctx, regs, flags, memory, coprocessor, config, pid
    )
    return ops


class TraceManager:
    """Per-CPU trace recorder, compiler and invalidation bookkeeper."""

    def __init__(
        self,
        program: list[Instruction],
        ops: list[OpClosure],
        ctx: RunContext,
        regs: list[int],
        flags: Flags,
        memory: Memory,
        coprocessor: ProteusCoprocessor,
        config: MachineConfig,
        pid: int,
    ) -> None:
        self.program = program
        self.ops = weakref.proxy(ops)  # see OpList
        self.ctx = ctx
        self.config = config
        self.pid = pid
        self.dispatch = coprocessor.dispatch
        self.coprocessor = coprocessor
        #: The literals generated code compares against.
        self.layout = _layout(program, memory, coprocessor)
        #: Ops as compiled by the block tier — the fallback every trace
        #: side-exits into, and what a dead entry unwraps back to.
        self._base: list[OpClosure] = list(ops)
        #: Compiled trace per recording (entry, components,
        #: continuation, cyclic): bounded by the program's entries and
        #: the PFUs its CDPs resolve to.
        self._codes: dict[tuple, CodeType] = {}
        #: Lifetime counters (asserted by the eviction tests).
        self.installed = 0
        self.invalidations = 0
        self._env = _base_env(regs, ctx, flags, memory, coprocessor)
        self._env.update({
            "_PID": pid,
            "_DSP": self.dispatch,
            "_HWT": self.dispatch.hardware_tlb,
            "_DTR": self.dispatch.trace,
        })
        self._pfus = coprocessor.pfus.pfus
        for leader in block_leaders(program):
            ops[leader] = self._profile(leader)

    # ---- profiling ---------------------------------------------------------
    def _profile(self, entry: int) -> OpClosure:
        """A counting wrapper that turns ``entry`` hot after
        :data:`HOT_THRESHOLD` dispatches."""
        inner = self._base[entry]
        remaining = HOT_THRESHOLD

        def profiling(_b: int) -> int:
            nonlocal remaining
            remaining -= 1
            if remaining <= 0:
                return self._go_hot(entry, inner)(_b)
            return inner(_b)

        return profiling

    def _go_hot(self, entry: int, inner: OpClosure) -> OpClosure:
        components, continuation, cyclic = self._record(entry)
        # A trace that covers no more than one fused stretch buys
        # nothing over the block tier: unwrap and stop profiling.
        if not cyclic and len(components) < 2:
            self.ops[entry] = inner
            return inner
        # A re-heat after a circuit swap usually records a path seen
        # before: reuse its code instead of emitting it again.
        key = (entry, tuple(components), continuation, cyclic)
        code = self._codes.get(key)
        if code is None:
            code = self._codes[key] = _code_for(
                self._source(entry, components, continuation, cyclic),
                "<trace>",
            )
        env = dict(self._env)
        env["_FB"] = self._base[entry]
        env["_IVD"] = lambda _entry=entry: self._invalidate(_entry)
        env["_EG"] = self.dispatch.generation
        for component in components:
            if component[0] == "cdp":
                env[f"_P{component[1]}"] = self._pfus[component[2]].step
        exec(code, env)
        fn = env.pop(f"_trace_{entry}")  # no function <-> globals cycle
        self.installed += 1
        self.ops[entry] = fn
        return fn

    def _invalidate(self, entry: int) -> None:
        """Generation-guard eviction: drop the installed trace and start
        re-profiling (a re-heat re-records against the new mappings)."""
        self.invalidations += 1
        self.ops[entry] = self._profile(entry)

    # ---- recording ---------------------------------------------------------
    def _record(self, entry: int):
        """Walk the predicted path from ``entry``.

        Returns ``(components, continuation, cyclic)`` where components
        are ``("run", start, end)`` fused stretches, ``("branch", index,
        taken, target)`` decisions, ``("simple", index)`` coprocessor
        transfers and ``("cdp", index, pfu)`` hardware custom
        instructions.  The walk is state-independent apart from the TLB
        peek, so a recorded trace is a pure function of (program, entry,
        dispatch generation).
        """
        program = self.program
        length = len(program)
        components: list[tuple] = []
        visited: set[int] = set()
        count = 0
        idx = entry
        while True:
            if idx == entry and components:
                return components, entry, True
            if idx in visited or not 0 <= idx < length:
                break
            if count >= MAX_TRACE_INSTRUCTIONS:
                break
            instruction = program[idx]
            op = instruction.op
            if (op in PC_WRITERS and instruction.rd == 15) or any(
                i >= self.layout.fpl_registers
                for i in _fpl_indexes(instruction)
            ):
                # Raises on every tier; leave it to the block tier,
                # which stops on it with exact state.
                break
            if _fusible(instruction):
                start = idx
                while (
                    idx < length
                    and _fusible(program[idx])
                    and idx not in visited
                    and (idx == start or idx != entry)
                    and count < MAX_TRACE_INSTRUCTIONS
                ):
                    visited.add(idx)
                    count += 1
                    idx += 1
                components.append(("run", start, idx))
            elif op is Op.B or op is Op.BL:
                target = idx + 1 + instruction.imm
                if not 0 <= target < length:
                    break  # a translation-time raiser; end before it
                # Static prediction: unconditional and backward branches
                # taken, forward conditionals fall through.
                taken = instruction.cond is Cond.AL or target <= idx
                visited.add(idx)
                count += 1
                components.append(("branch", idx, taken, target))
                idx = target if taken else idx + 1
            elif op in _SIMPLE_OPS:
                visited.add(idx)
                count += 1
                components.append(("simple", idx))
                idx += 1
            elif (
                op is Op.CDP and self.coprocessor.completion_hook is None
            ):
                pfu = self._peek_hardware(instruction.imm)
                if pfu is None:
                    break  # software, faulting or unmapped: untraceable
                visited.add(idx)
                count += 1
                components.append(("cdp", idx, pfu))
                idx += 1
            else:
                break
        return components, idx, False

    def _peek_hardware(self, cid: int) -> int | None:
        """Side-effect-free hardware-TLB probe (``CAM.match`` is a pure
        dict lookup; ``DispatchTLB.lookup`` would bump statistics)."""
        tlb = self.dispatch.hardware_tlb
        slot = tlb.cam.match(IDTuple(self.pid, cid))
        return None if slot is None else tlb.ram[slot]

    # ---- code generation ---------------------------------------------------
    def _source(
        self,
        entry: int,
        components: list[tuple],
        continuation: int,
        cyclic: bool,
    ) -> str:
        """The trace function's source for one recording.

        The body runs inside one ``try``/``finally`` that flushes the
        retired count and spills the written registers, so an exit only
        pins ``_ctx.idx`` and returns.  Retired instructions accumulate
        in the local ``_n`` (nothing reads the counter mid-burst),
        saving an attribute read-modify-write per component per loop
        iteration.
        """
        program = self.program
        config = self.config
        referenced, written = _register_sets(program, components)
        needs: set[str] = set()
        pfu_params: list[str] = []
        body: list[str] = []
        entry_total = None

        def exit_at(index: int, cycles: str = "_u") -> list[str]:
            """An exit, indented for the ``if`` it ends."""
            return [f"    _ctx.idx = {index}", f"    return {cycles}"]

        for position, component in enumerate(components):
            kind = component[0]
            if kind == "run":
                _, start, end = component
                lines: list[str] = []
                total = 0
                for offset, index in enumerate(range(start, end)):
                    emitted, cycles = _emit_instruction(
                        index, program[index], offset, config, self.layout,
                        needs, reg=_local,
                    )
                    lines.extend(emitted)
                    total += cycles
                if position == 0:
                    # Tested ahead of the ``try`` (see below); a loop
                    # re-tests it on every later iteration.
                    entry_total = total
                if position or cyclic:
                    body.append(f"if _b - _u < {total}:")
                    body += exit_at(start)
                body += lines
                body.append(f"_u += {total}")
                body.append(f"_n += {end - start}")
            elif kind == "branch":
                _, index, taken, target = component
                instruction = program[index]
                link = instruction.op is Op.BL
                return_address = CODE_BASE + 4 * (index + 1)
                conditional = instruction.cond is not Cond.AL
                body.append("if _u >= _b:")
                body += exit_at(index)
                if conditional:
                    needs.add("_fl")
                    predicate = _COND_EXPR[instruction.cond]
                if taken:
                    if conditional:
                        body.append(f"if not ({predicate}):")
                        body.append("    _n += 1")
                        body += exit_at(index + 1, f"_u + {config.alu_cycles}")
                    if link:
                        body.append(f"_g14 = {return_address}")
                    body.append("_n += 1")
                    body.append(f"_u += {config.branch_cycles}")
                else:
                    body.append(f"if {predicate}:")
                    if link:
                        body.append(f"    _g14 = {return_address}")
                    body.append("    _n += 1")
                    body += exit_at(target, f"_u + {config.branch_cycles}")
                    body.append("_n += 1")
                    body.append(f"_u += {config.alu_cycles}")
            elif kind == "simple":
                _, index = component
                # Pin the cursor first so even a fatal coprocessor error
                # propagates with the same pc as stepping.
                body.append(f"_ctx.idx = {index}")
                body.append("if _u >= _b:")
                body.append("    return _u")
                effect, cost = _emit_instruction(
                    index, program[index], 0, config, self.layout, needs,
                    reg=_local,
                )
                body += effect
                body.append("_n += 1")
                body.append(f"_u += {cost}")
            else:  # cdp
                _, index, _ = component
                instruction = program[index]
                # The resolved PFU's ``step`` is bound per install
                # (``_p{index}``), not written into the source: every
                # instance of a program shares one code object whichever
                # PFUs its circuits occupy.
                pfu_params.append(f"_p{index}=_P{index}")
                needs.update(("_dsp", "_hwt", "_dtr", "_fw", "_ivd",
                              "_eg", "_pid"))
                issue = config.cdp_issue_cycles
                body.append(f"_ctx.idx = {index}")
                body.append("if _u >= _b:")
                body.append("    return _u")
                # Mapping-state guard: any management call since the
                # recording bumped the generation, so this trace's
                # resolution (and its arithmetic TLB replay) is stale.
                body.append("if _dsp.generation != _eg:")
                body.append("    _ivd()")
                body.append("    return _u")
                # The memoized warm path of the CDP closure, unrolled:
                # hardware probe hit, counters replayed arithmetically.
                body.append("_hwt.lookups += 1")
                body.append("_hwt.hits += 1")
                body.append(
                    f"_dtr.dispatch(_pid, {instruction.imm}, 'hit')"
                )
                # The CDP closure's ``max(1, budget - issue)``, inline.
                # The recorder admitted only in-range FPL registers and
                # a ``None`` completion hook, so the PFU gets no hook.
                body.append(
                    f"_c, _o = _p{index}(_fw[{instruction.rn}], "
                    f"_fw[{instruction.rm}], "
                    f"_b - _u - {issue} if _b - _u > {issue + 1} else 1)"
                )
                body.append("if _o is not None:")
                body.append(f"    _fw[{instruction.rd}] = _o")
                body.append("    _n += 1")
                body.append(f"    _u += {issue} + _c")
                body.append("else:")
                body.append("    _ctx.interrupted = True")
                body.append(f"    return _u + {issue} + _c")
        if not cyclic:
            body += [f"_ctx.idx = {continuation}", "return _u"]

        out = []
        if entry_total is not None:
            # The entry guard must make progress when nothing is
            # committed yet: delegate the whole burst remainder to the
            # pre-trace entry instead of re-dispatching this trace
            # forever.  Ahead of the ``try``, so the ``finally`` never
            # spills stale locals over what ``_fb`` wrote.
            needs.add("_fb")
            out += [f"    if _b < {entry_total}:", "        return _fb(_b)"]
        out += ["    _u = 0", "    _n = 0"]
        out += [f"    _g{reg} = _r[{reg}]" for reg in sorted(referenced)]
        out.append("    try:")
        if cyclic:
            out.append("        while True:")
            out += ["            " + line for line in body]
        else:
            out += ["        " + line for line in body]
        out += ["    finally:", "        _ctx.retired += _n"]
        out += [f"        _r[{reg}] = _g{reg}" for reg in sorted(written)]
        params = ["_b", "_r=_REGS", "_ctx=_CTX", *pfu_params] + [
            f"{param}={_TRACE_ENV_NAMES[param]}"
            for param in sorted(needs)
        ]
        return "\n".join([f"def _trace_{entry}({', '.join(params)}):"] + out)


# ---------------------------------------------------------------------------
# codegen helpers


def _local(index: int) -> str:
    return f"_g{index}"


def _fpl_indexes(instruction: Instruction) -> tuple[int, ...]:
    """The FPL registers an MCR/MRC/CDP names."""
    op = instruction.op
    if op is Op.MCR:
        return (instruction.rd,)
    if op is Op.MRC:
        return (instruction.rn,)
    if op is Op.CDP:
        return (instruction.rd, instruction.rn, instruction.rm)
    return ()


def _register_sets(
    program: list[Instruction], components: list[tuple]
) -> tuple[set[int], set[int]]:
    """(referenced, written) core-register sets over a trace."""
    referenced: set[int] = set()
    written: set[int] = set()

    def note(instruction: Instruction) -> None:
        op = instruction.op
        if op is Op.NOP:
            return
        if op is Op.B or op is Op.BL:
            if op is Op.BL:
                referenced.add(14)
                written.add(14)
            return
        if op is Op.MCR:
            referenced.add(instruction.rn)
            return
        if op is Op.MRC or op is Op.LDO:
            referenced.add(instruction.rd)
            written.add(instruction.rd)
            return
        if op is Op.STO:
            referenced.add(instruction.rn)
            return
        uses_rm = not instruction.uses_imm
        if op in (Op.MOV, Op.MVN):
            referenced.add(instruction.rd)
            written.add(instruction.rd)
            if uses_rm:
                referenced.add(instruction.rm)
            return
        if op in (Op.CMP, Op.CMN, Op.TST):
            referenced.add(instruction.rn)
            if uses_rm:
                referenced.add(instruction.rm)
            return
        if op in (Op.LDR, Op.LDRB):
            referenced.update((instruction.rd, instruction.rn))
            written.add(instruction.rd)
            if instruction.post_inc and instruction.imm:
                written.add(instruction.rn)
            return
        if op in (Op.STR, Op.STRB):
            referenced.update((instruction.rd, instruction.rn))
            if instruction.post_inc and instruction.imm:
                written.add(instruction.rn)
            return
        if op is Op.MUL:
            referenced.update(
                (instruction.rd, instruction.rn, instruction.rm)
            )
            written.add(instruction.rd)
            return
        # Remaining data-processing: rd = rn <op> op2.
        referenced.update((instruction.rd, instruction.rn))
        written.add(instruction.rd)
        if uses_rm:
            referenced.add(instruction.rm)

    for component in components:
        kind = component[0]
        if kind == "run":
            for index in range(component[1], component[2]):
                note(program[index])
        else:
            note(program[component[1]])
    return referenced, written
