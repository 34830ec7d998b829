"""Trace-JIT compiler — the ``jit`` execution tier.

The ``block`` tier (:mod:`repro.cpu.blocks`) fuses straight-line runs
into superinstruction closures, but a burst still dispatches once per
basic block and every register access is a list subscript.  This module
adds a fourth tier on top of it: when a block leader gets hot (a counted
block-entry / back-edge threshold), the recorder walks the program along
the *predicted* path — through fused runs, across branches (backward
taken, forward not taken), through coprocessor transfers, and through
hardware-resolved CDPs — and emits one straight-line Python function for
the whole trace:

* **registers as locals** — every core register the trace touches is
  loaded into a Python local once on entry and spilled back at every
  exit, so the hot path runs on ``LOAD_FAST``/``STORE_FAST`` instead of
  list subscripts;
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
consumed.  From that point the proven block/closure machinery continues
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
components — MCR/MRC/LDO/STO.  A CDP joins a trace only when no fault
plan is active (a :class:`~repro.cpu.exceptions.FabricFault` raised
mid-trace would discard committed cycles) and the recorder's
side-effect-free TLB peek resolves it in hardware; the generated code
then replays the memoized warm path of :mod:`repro.cpu.translate` —
TLB statistics, ``dispatch_resolved`` event and all — behind a
dispatch-generation guard.  Everything else (SWI, HALT, BX,
software/faulting CDPs, translation-time raisers) ends the trace at the
preceding instruction.

**Invalidation.**  A trace containing a CDP is valid only for the
mappings it was recorded against: its guard compares the live
:attr:`~repro.core.dispatch.DispatchUnit.generation` with ``_eg``, the
generation at recording, bound per install like the pid.  When a
management call (map/unmap/flush/restore) bumps the generation, the
guard drops the stale trace and re-installs the profiling wrapper; a
re-heat records the path again.  A manager keeps the source it emitted
for each recording, so a re-heat onto a path seen before emits nothing;
the source names no machine state, so the process-wide code cache of
:mod:`repro.cpu.blocks` usually already holds its code and a re-install
costs one ``exec``.
"""

from __future__ import annotations

from ..config import MachineConfig
from ..core.coprocessor import ProteusCoprocessor
from ..core.tlb import IDTuple
from .blocks import (
    _ENV_NAMES,
    _base_env,
    _code_for,
    _emit_instruction,
    _fusible,
    block_leaders,
    translate_blocks,
)
from .isa import CODE_BASE, Cond, Flags, Instruction, Op
from .memory import Memory
from .translate import OpClosure, RunContext

__all__ = ["translate_traces", "TraceManager", "HOT_THRESHOLD"]

#: Block-leader entries before a trace is recorded.  Low enough that the
#: short loops in the equivalence suite compile mid-run; a trace that
#: never re-heats costs one ``exec`` (and one ``compile()`` if new).
HOT_THRESHOLD = 4

#: Upper bound on instructions consumed by one trace (runaway guard).
MAX_TRACE_INSTRUCTIONS = 512

#: Ops traced as single components (budget-guarded, effects via bound
#: coprocessor methods).  CDP is handled separately.
_SIMPLE_OPS = (Op.MCR, Op.MRC, Op.LDO, Op.STO)

#: Condition -> inline predicate over the bound flags object ``_fl`` —
#: exactly :meth:`repro.cpu.isa.Flags.passes`, without the call.
_COND_EXPR = {
    Cond.EQ: "_fl.z",
    Cond.NE: "not _fl.z",
    Cond.LT: "_fl.n != _fl.v",
    Cond.LE: "_fl.z or _fl.n != _fl.v",
    Cond.GT: "not _fl.z and _fl.n == _fl.v",
    Cond.GE: "_fl.n == _fl.v",
    Cond.CC: "not _fl.c",
    Cond.CS: "_fl.c",
    Cond.HI: "_fl.c and not _fl.z",
    Cond.LS: "not _fl.c or _fl.z",
    Cond.MI: "_fl.n",
    Cond.PL: "not _fl.n",
}

#: Parameter name -> environment key for trace codegen, extending the
#: block compiler's table with the trace-only bindings.
_TRACE_ENV_NAMES = dict(
    _ENV_NAMES,
    _fl="_FL",
    _dsp="_DSP",
    _hwt="_HWT",
    _dtr="_DTR",
    _exec="_EXEC",
    _wrf="_WRF",
    _rdf="_RDF",
    _rdo="_RDO",
    _sto="_STO",
    _max="_MAX",
    _fb="_FB",
    _ivd="_IVD",
    _eg="_EG",
    _pid="_PID",
)


class OpList(list):
    """The ops list with its :class:`TraceManager` attached (the list is
    what :meth:`CPU._compile` hands back; tests and tooling reach the
    manager through it)."""

    __slots__ = ("manager",)


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
    compiled trace once hot; every other index keeps its block/closure
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
        self.ops = ops
        self.ctx = ctx
        self.config = config
        self.pid = pid
        self.dispatch = coprocessor.dispatch
        #: Ops as compiled by the block tier — the fallback every trace
        #: side-exits into, and what a dead entry unwraps back to.
        self._base: list[OpClosure] = list(ops)
        #: Generated source per recording (entry, components,
        #: continuation, cyclic): bounded by the program's entries and
        #: the PFUs its CDPs resolve to.
        self._sources: dict[tuple, str] = {}
        #: Lifetime counters (asserted by the eviction tests).
        self.installed = 0
        self.invalidations = 0
        self._env = _base_env(regs, ctx, flags, memory)
        self._env.update({
            "_PID": pid,
            "_FL": flags,
            "_DSP": self.dispatch,
            "_HWT": self.dispatch.hardware_tlb,
            "_DTR": self.dispatch.trace,
            "_EXEC": coprocessor.execute,
            "_WRF": coprocessor.regfile.write,
            "_RDF": coprocessor.regfile.read,
            "_RDO": coprocessor.operand_regs.read_operand,
            "_STO": coprocessor.store_soft_result,
            "_MAX": max,
        })
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
        # before: reuse its source instead of emitting it again.
        key = (entry, tuple(components), continuation, cyclic)
        source = self._sources.get(key)
        if source is None:
            source = self._sources[key] = self._source(
                entry, components, continuation, cyclic
            )
        env = dict(self._env)
        env["_FB"] = self._base[entry]
        env["_IVD"] = lambda _entry=entry: self._invalidate(_entry)
        env["_EG"] = self.dispatch.generation
        exec(_code_for(source, "<trace>"), env)
        fn = env[f"_trace_{entry}"]
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
                    break  # translate emits a raiser; end before it
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
            elif op is Op.CDP and self.config.fault_plan is None:
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
        """The trace function's source for one recording."""
        program = self.program
        config = self.config
        referenced, written = _register_sets(program, components)
        spill = [f"_r[{reg}] = _g{reg}" for reg in sorted(written)]
        needs: set[str] = set()
        body: list[str] = []
        # Retired instructions accumulate in the local ``_n`` and flush
        # to ``ctx.retired`` at every exit (nothing reads the counter
        # mid-burst), saving an attribute read-modify-write per
        # component per loop iteration.
        flush = "_ctx.retired += _n"

        def exit_to(index: int, extra: int = 0) -> list[str]:
            retired = f"{flush} + {extra}" if extra else flush
            return [*spill, retired, f"_ctx.idx = {index}", "return _u"]

        for position, component in enumerate(components):
            kind = component[0]
            if kind == "run":
                _, start, end = component
                lines: list[str] = []
                total = 0
                for offset, index in enumerate(range(start, end)):
                    emitted, cycles = _emit_instruction(
                        index, program[index], offset, config, needs,
                        reg=_local, fault_extra=[flush, *spill],
                    )
                    lines.extend(emitted)
                    total += cycles
                guard = [f"if _b - _u < {total}:"]
                if position == 0:
                    # The entry guard must make progress when nothing is
                    # committed yet: delegate the whole burst remainder
                    # to the pre-trace closure instead of re-dispatching
                    # this trace forever.
                    needs.add("_fb")
                    guard += ["    if _u:"]
                    guard += ["        " + line for line in exit_to(start)]
                    guard += ["    return _fb(_b)"]
                else:
                    guard += ["    " + line for line in exit_to(start)]
                body += guard
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
                body += ["    " + line for line in exit_to(index)]
                if conditional:
                    needs.add("_fl")
                    predicate = _COND_EXPR[instruction.cond]
                if taken:
                    if conditional:
                        body.append(f"if not ({predicate}):")
                        body += [
                            "    " + line
                            for line in [
                                *spill,
                                f"{flush} + 1",
                                f"_ctx.idx = {index + 1}",
                                f"return _u + {config.alu_cycles}",
                            ]
                        ]
                    if link:
                        body.append(f"_g14 = {return_address}")
                    body.append("_n += 1")
                    body.append(f"_u += {config.branch_cycles}")
                else:
                    body.append(f"if {predicate}:")
                    off_trace = []
                    if link:
                        off_trace.append(f"_g14 = {return_address}")
                    off_trace += [
                        *spill,
                        f"{flush} + 1",
                        f"_ctx.idx = {target}",
                        f"return _u + {config.branch_cycles}",
                    ]
                    body += ["    " + line for line in off_trace]
                    body.append("_n += 1")
                    body.append(f"_u += {config.alu_cycles}")
            elif kind == "simple":
                _, index = component
                instruction = program[index]
                # Pin the cursor first so even a fatal coprocessor error
                # propagates with the same pc as the unfused closures.
                body.append(f"_ctx.idx = {index}")
                body.append("if _u >= _b:")
                body += [
                    "    " + line for line in [*spill, flush, "return _u"]
                ]
                effect, cost = _simple_effect(instruction, config, needs)
                body.append(effect)
                body.append("_n += 1")
                body.append(f"_u += {cost}")
            else:  # cdp
                _, index, pfu = component
                instruction = program[index]
                needs.update(("_dsp", "_hwt", "_dtr", "_exec", "_max",
                              "_ivd", "_eg", "_pid"))
                issue = config.cdp_issue_cycles
                body.append(f"_ctx.idx = {index}")
                body.append("if _u >= _b:")
                body += [
                    "    " + line for line in [*spill, flush, "return _u"]
                ]
                # Mapping-state guard: any management call since the
                # recording bumped the generation, so this trace's
                # resolution (and its arithmetic TLB replay) is stale.
                body.append("if _dsp.generation != _eg:")
                body += [
                    "    " + line
                    for line in [*spill, flush, "_ivd()", "return _u"]
                ]
                # The memoized warm path of translate.py, unrolled:
                # hardware probe hit, counters replayed arithmetically.
                body.append("_hwt.lookups += 1")
                body.append("_hwt.hits += 1")
                body.append(
                    f"_dtr.dispatch_resolved(_pid, {instruction.imm}, 'hit')"
                )
                body.append(
                    f"_c, _o = _exec({pfu}, {instruction.rd}, "
                    f"{instruction.rn}, {instruction.rm}, "
                    f"_max(1, _b - _u - {issue}))"
                )
                body.append("if _o is not None:")
                body.append("    _n += 1")
                body.append(f"    _u += {issue} + _c")
                body.append("else:")
                body += [
                    "    " + line
                    for line in [
                        *spill,
                        flush,
                        "_ctx.interrupted = True",
                        f"return _u + {issue} + _c",
                    ]
                ]
        if not cyclic:
            body += [*spill, flush, f"_ctx.idx = {continuation}",
                     "return _u"]

        name = f"_trace_{entry}"
        params = ["_b", "_r=_REGS", "_ctx=_CTX"] + [
            f"{param}={_TRACE_ENV_NAMES[param]}"
            for param in sorted(needs)
        ]
        out = [f"def {name}({', '.join(params)}):", "    _u = 0",
               "    _n = 0"]
        out += [f"    _g{reg} = _r[{reg}]" for reg in sorted(referenced)]
        if cyclic:
            out.append("    while True:")
            out += ["        " + line for line in body]
        else:
            out += ["    " + line for line in body]
        return "\n".join(out)


# ---------------------------------------------------------------------------
# codegen helpers


def _local(index: int) -> str:
    return f"_g{index}"


def _simple_effect(
    instruction: Instruction, config: MachineConfig, needs: set[str]
) -> tuple[str, int]:
    """Source line + cycle cost for one MCR/MRC/LDO/STO component."""
    op = instruction.op
    if op is Op.MCR:
        needs.add("_wrf")
        return (
            f"_wrf({instruction.rd}, _g{instruction.rn})",
            config.coproc_transfer_cycles,
        )
    if op is Op.MRC:
        needs.add("_rdf")
        return (
            f"_g{instruction.rd} = _rdf({instruction.rn})",
            config.coproc_transfer_cycles,
        )
    if op is Op.LDO:
        needs.add("_rdo")
        return (
            f"_g{instruction.rd} = _rdo({instruction.imm})",
            config.operand_reg_cycles,
        )
    needs.add("_sto")  # STO
    return f"_sto(_g{instruction.rn})", config.operand_reg_cycles


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
