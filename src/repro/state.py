"""The uniform machine-state protocol.

Every stateful component of the simulated machine — CPU contexts,
coprocessor structures, kernel bookkeeping, trace counters — implements
the same two-method protocol:

* ``snapshot() -> dict`` — capture the component's mutable state as a
  JSON-serialisable dictionary (plain ints, strings, bools, lists and
  dicts only; byte blobs go through :func:`encode_bytes`);
* ``restore(state)`` — reinstate a snapshot **in place**, mutating the
  existing object rather than rebinding it.  In-place restoration is
  load-bearing: the compiled CPU tiers capture the register list,
  flags and memory objects by reference, so a restore must never replace
  them.

Components that reference other live objects (the scheduler's ready
queue holds :class:`~repro.kernel.process.Process` objects, a PFU holds
a :class:`~repro.core.circuit.CircuitInstance`) serialise stable *keys*
(PIDs, (pid, cid) tuples) and take a resolver argument on ``restore``;
the :class:`~repro.machine.Machine` facade owns the cross-component
wiring.

The paper's state-section mechanism (§4.4) is the hardware seed of this
idea — circuit state is explicitly save/restorable so the OS can manage
it; here the whole machine gets the same treatment so experiments can be
checkpointed at any quantum boundary and resumed deterministically.
"""

from __future__ import annotations

import base64
import zlib
from typing import Any, Protocol, runtime_checkable

__all__ = ["Snapshotable", "encode_bytes", "decode_bytes"]


@runtime_checkable
class Snapshotable(Protocol):
    """The uniform capture/reinstate protocol for machine components."""

    def snapshot(self) -> dict:
        """Capture mutable state as a JSON-serialisable dictionary."""
        ...

    def restore(self, state: dict, *args: Any, **kwargs: Any) -> None:
        """Reinstate a snapshot in place."""
        ...


def encode_bytes(data: bytes) -> str:
    """Encode a byte blob for a JSON snapshot (zlib + base64).

    Process memories are dominated by zero pages, so compression keeps
    whole-machine checkpoints small enough to ship through JSON.
    """
    return base64.b64encode(zlib.compress(bytes(data), level=6)).decode("ascii")


def decode_bytes(text: str) -> bytes:
    """Inverse of :func:`encode_bytes`."""
    return zlib.decompress(base64.b64decode(text.encode("ascii")))
