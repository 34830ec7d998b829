"""Optional feature plans: one registry for every consumer.

A *plan* is a frozen dataclass that switches an optional subsystem on
— fault injection, custom-instruction synthesis, speculative prefetch.
Each rides as a field of the same name on both
:class:`~repro.sim.experiment.ExperimentSpec` and
:class:`~repro.config.MachineConfig`, where ``None`` (the default)
disables the subsystem entirely.

:data:`PLANS` is the one place that knows which fields are plans.
Spec keys, machine configs, the spec codec shared by checkpoints, the
job journal and the serve protocol, the off/on figure sweeps and the
CLI all iterate it, so the serialisation rule lives here alone: a
disabled plan is *absent* from every payload, not ``null``.  A build
that predates a plan therefore produces byte-identical spec keys,
checkpoints and wire messages for every point that leaves it off — and
every cached result stays valid when a new plan is added.

Adding a plan means declaring its field on both dataclasses, writing
its module (the dataclass plus ``plan_to_dict``/``plan_from_dict``)
and appending one :class:`PlanEntry` here.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Callable, NamedTuple

from . import faults, prefetch
from .synth import plan as synthesis

__all__ = ["PLANS", "PlanEntry", "decode_plans", "encode_plans"]


class PlanEntry(NamedTuple):
    """How one optional plan is typed, serialised and labelled."""

    #: The plan dataclass.
    type: type
    to_dict: Callable[[Any], dict]
    from_dict: Callable[[dict], Any]
    #: Series mode text of the plan-on half of an off/on sweep (the
    #: plan-off half is always "Baseline").
    label: str
    #: Figure name (CSV/BENCH artefact stem) and title of that sweep.
    figure: str
    title: str


#: Field name -> entry, in declaration order.
PLANS: dict[str, PlanEntry] = {
    "fault_plan": PlanEntry(
        faults.FaultPlan, faults.plan_to_dict, faults.plan_from_dict,
        label="Faults", figure="faults", title="Fault Injection Test",
    ),
    "synthesis": PlanEntry(
        synthesis.SynthesisPlan, synthesis.plan_to_dict,
        synthesis.plan_from_dict,
        label="Synthesis", figure="synthesis",
        title="Profiler-Driven Synthesis Test",
    ),
    "prefetch": PlanEntry(
        prefetch.PrefetchPlan, prefetch.plan_to_dict, prefetch.plan_from_dict,
        label="Prefetch", figure="prefetch",
        title="Speculative Configuration Prefetch Test",
    ),
}


def encode_plans(obj: Any) -> dict:
    """``asdict(obj)`` for a spec or config, plans through their codecs.

    A disabled (``None``) plan is dropped from the payload.
    """
    payload = asdict(obj)
    for name, entry in PLANS.items():
        plan = getattr(obj, name)
        if plan is None:
            del payload[name]
        else:
            payload[name] = entry.to_dict(plan)
    return payload


def decode_plans(payload: dict) -> dict:
    """Inverse of :func:`encode_plans`: constructor keyword arguments
    with every present plan rebuilt (absent plans take the default)."""
    fields = dict(payload)
    for name, entry in PLANS.items():
        if fields.get(name) is not None:
            fields[name] = entry.from_dict(fields[name])
    return fields
