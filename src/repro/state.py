"""The machine-state base class every checkpointed component inherits.

Every stateful component of the simulated machine — CPU contexts,
coprocessor structures, kernel bookkeeping, trace counters — is a
:class:`Snapshotable` and names its plain state once, in a ``STATE``
tuple of attribute names.  The generic :meth:`~Snapshotable.snapshot`
and :meth:`~Snapshotable.restore` read that tuple:

* **Key.** A field's key is its attribute name without a leading
  underscore (``_fifo_hand`` is saved as ``"fifo_hand"``).
* **Child.** A :class:`Snapshotable` value is snapshotted and restored
  in place.
* **List.** A list is copied in place, never rebound: the compiled CPU
  tiers hold the register list by reference.  A list of components
  restores each item in place.  A saved list of another length raises
  :class:`~repro.errors.CheckpointError` naming the class and field.
* **Anything else** is set; a dict is copied, so the document and the
  component never share one.

The snapshot is a JSON-serialisable dictionary (plain ints, strings,
bools, lists and dicts; byte blobs go through :func:`encode_bytes`).

A component overrides ``snapshot``/``restore`` (calling ``super()``)
only for what the rules cannot express:

* references the facade resolves: the scheduler queue (pids), the
  circuit instance in each PFU (re-attached from the registrations that
  own it), the process table and the last-running process;
* bytes (:class:`~repro.cpu.memory.Memory`) and packed words (a circuit
  instance's state section, the operand registers' context layout, a
  TLB's CAM keys as lists of fields);
* int-keyed maps, which JSON stringifies (:func:`encode_int_keys`):
  fault bookkeeping, the transition model, LRU/second-chance history
  and the per-pid counters;
* enum values, sets and RNG state;
* sections that stay *absent* while a plan is off, so plan-free
  checkpoints keep their layout: the kernel's ``faults``/``prefetch``,
  the counters' ``faults``/``prefetch`` and a registration's
  ``synth``/``prefetched``;
* side effects: a dispatch-unit restore bumps its ``generation`` so
  jit traces re-record, and a TLB restore checks its CAM section (one
  valid entry per key), refills its ``targets`` in place and rebuilds
  its key and holder indexes.

The paper's state-section mechanism (§4.4) is the hardware seed of this
idea — circuit state is explicitly save/restorable so the OS can manage
it; here the whole machine gets the same treatment so experiments can be
checkpointed at any quantum boundary and resumed deterministically.
"""

from __future__ import annotations

import base64
import zlib
from typing import ClassVar

from .errors import CheckpointError

__all__ = [
    "Snapshotable",
    "encode_bytes",
    "decode_bytes",
    "encode_int_keys",
    "decode_int_keys",
]


class Snapshotable:
    """Base class of every checkpointed machine component."""

    __slots__ = ()

    #: Attribute names of the component's plain state, in document order.
    STATE: ClassVar[tuple[str, ...]] = ()

    def snapshot(self) -> dict:
        """Capture the ``STATE`` fields as a JSON-serialisable dict."""
        state = {}
        for name in self.STATE:
            value = getattr(self, name)
            if isinstance(value, Snapshotable):
                value = value.snapshot()
            elif isinstance(value, list):
                value = [
                    item.snapshot() if isinstance(item, Snapshotable) else item
                    for item in value
                ]
            elif isinstance(value, dict):
                value = dict(value)
            state[name.lstrip("_")] = value
        return state

    def restore(self, state: dict) -> None:
        """Reinstate the ``STATE`` fields of a snapshot in place."""
        for name in self.STATE:
            saved = state[name.lstrip("_")]
            value = getattr(self, name)
            if isinstance(value, Snapshotable):
                value.restore(saved)
            elif isinstance(value, list):
                if len(saved) != len(value):
                    raise CheckpointError(
                        f"{type(self).__name__}.{name}: checkpoint holds "
                        f"{len(saved)} items, expected {len(value)}"
                    )
                if value and isinstance(value[0], Snapshotable):
                    for item, entry in zip(value, saved):
                        item.restore(entry)
                else:
                    value[:] = saved
            else:
                setattr(
                    self, name, dict(saved) if isinstance(saved, dict) else saved
                )


def encode_bytes(data: bytes) -> str:
    """Encode a byte blob for a JSON snapshot (zlib + base64).

    Process memories are dominated by zero pages, so compression keeps
    whole-machine checkpoints small enough to ship through JSON.
    """
    return base64.b64encode(zlib.compress(bytes(data), level=6)).decode("ascii")


def decode_bytes(text: str) -> bytes:
    """Inverse of :func:`encode_bytes`."""
    return zlib.decompress(base64.b64decode(text.encode("ascii")))


def encode_int_keys(mapping: dict) -> dict:
    """An int-keyed map, nested maps included, with the string keys JSON
    needs, in key order; list values are copied."""
    return {
        str(key): (
            encode_int_keys(value) if isinstance(value, dict)
            else list(value) if isinstance(value, list)
            else value
        )
        for key, value in sorted(mapping.items())
    }


def decode_int_keys(saved: dict) -> dict:
    """Inverse of :func:`encode_int_keys`."""
    return {
        int(key): (
            decode_int_keys(value) if isinstance(value, dict)
            else list(value) if isinstance(value, list)
            else value
        )
        for key, value in saved.items()
    }
