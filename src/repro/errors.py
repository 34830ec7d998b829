"""Exception hierarchy for the Proteus reproduction.

Every error raised by the library derives from :class:`ReproError` so
applications can catch library failures with a single handler.  Hardware
events that are *architecturally visible* (custom-instruction faults,
traps) are modelled in :mod:`repro.cpu.exceptions`, not here; this
module only covers genuine misuse and configuration errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A :class:`~repro.config.MachineConfig` value is inconsistent."""


class FabricError(ReproError):
    """Base class for FPL fabric errors."""


class BitstreamError(FabricError):
    """A bitstream is malformed or fails security validation."""


class PlacementError(FabricError):
    """A circuit cannot be placed on the fabric (e.g. CLB budget exceeded)."""


class DispatchError(ReproError):
    """The dispatch hardware was driven illegally (simulator misuse)."""


class TLBError(DispatchError):
    """Illegal TLB operation (duplicate tuple, bad index, ...)."""


class PFUError(ReproError):
    """Illegal PFU operation (clocking an unconfigured PFU, ...)."""


class AssemblerError(ReproError):
    """Assembly source could not be assembled."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EncodingError(ReproError):
    """An instruction could not be encoded to / decoded from 32 bits."""


class CPUError(ReproError):
    """The CPU model was driven into an illegal state."""


class MemoryFault(CPUError):
    """An access fell outside the process address space."""

    def __init__(self, address: int, message: str = "") -> None:
        self.address = address
        detail = f" ({message})" if message else ""
        super().__init__(f"memory fault at {address:#010x}{detail}")


class KernelError(ReproError):
    """POrSCHE kernel invariant violation."""


class ProcessKilled(KernelError):
    """A process was terminated by the kernel (e.g. illegal CID use)."""

    def __init__(self, pid: int, reason: str) -> None:
        self.pid = pid
        self.reason = reason
        super().__init__(f"process {pid} killed: {reason}")


class SynthesisError(ReproError):
    """The custom-instruction synthesiser was misconfigured or misused."""


class PrefetchError(ReproError):
    """The speculative configuration prefetcher was misconfigured."""


class WorkloadError(ReproError):
    """A workload/application was constructed with invalid parameters."""


class ExperimentError(ReproError):
    """An experiment harness was configured inconsistently."""


class DaemonLostError(ExperimentError):
    """The connection to a ``repro serve`` daemon was lost (and could
    not be re-established within the client's reconnect budget).

    Distinct from a job *failing*: the job itself may be perfectly
    healthy — journaled, recovered and running in a restarted daemon —
    it is only this client's view of it that is gone.  Callers can
    catch this specifically to reconnect and resubmit idempotently;
    already-streamed lifecycle events remain on the
    :class:`~repro.sim.client.RemoteJob` handle.
    """


class CheckpointError(ReproError):
    """A machine checkpoint could not be taken, stored, or restored."""
