"""Workload abstraction shared by the three evaluation applications.

A :class:`Workload` knows how to build program images at any size and in
any variant, plus a pure-Python reference function used to verify that
hardware dispatch, software dispatch and the unaccelerated baseline all
compute identical results.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Protocol

from ..cpu.assembler import DATA_BASE
from ..cpu.program import Program
from ..errors import WorkloadError


class WorkloadVariant(enum.Enum):
    """Which program image of a workload to build."""

    #: Uses CDP custom instructions (the Proteus path).
    ACCELERATED = "accelerated"
    #: Pure software, no coprocessor at all (the paper's "unaccelerated"
    #: comparison point in §5.1.1).
    SOFTWARE = "software"


class ProgramBuilder(Protocol):
    def __call__(
        self,
        items: int,
        seed: int,
        variant: WorkloadVariant,
        register_soft: bool,
    ) -> Program: ...


@dataclass(frozen=True)
class Workload:
    """One evaluation application."""

    name: str
    #: Custom instructions each instance registers — determines where the
    #: contention knee falls on a 4-PFU array (paper §5.1).
    circuits_per_process: int
    #: Item count corresponding to a paper-scale (~1.3e8 cycle) run.
    paper_items: int
    #: Smallest item count that still exercises every code path.
    min_items: int
    builder: ProgramBuilder
    #: ``reference(items, seed) -> bytes`` — expected result bytes.
    reference: Callable[[int, int], bytes]
    #: Name of the program's result region.
    result_name: str = "dst"

    def items_for_scale(self, scale: float) -> int:
        """Item count for a given workload scale (1.0 = paper scale)."""
        if scale <= 0:
            raise WorkloadError(f"{self.name}: scale must be positive")
        return max(self.min_items, round(self.paper_items * scale))

    def build(
        self,
        items: int,
        seed: int = 0,
        variant: WorkloadVariant = WorkloadVariant.ACCELERATED,
        register_soft: bool = True,
    ) -> Program:
        if items < self.min_items:
            raise WorkloadError(
                f"{self.name}: needs at least {self.min_items} items"
            )
        return self.builder(
            items=items,
            seed=seed,
            variant=variant,
            register_soft=register_soft,
        )

    def expected(self, items: int, seed: int = 0) -> bytes:
        """The reference result, computed once per process for each
        ``(workload, items, seed)``: every point of a sweep that shares
        them checks its output against the same immutable bytes."""
        return _expected(self, items, seed)


#: References held per process (one per distinct point size of a sweep).
REFERENCE_CACHE_SIZE = 8


@lru_cache(maxsize=REFERENCE_CACHE_SIZE)
def _expected(workload: Workload, items: int, seed: int) -> bytes:
    return workload.reference(items, seed)


def build_variant(
    workload: Workload,
    items: int,
    variant: str | WorkloadVariant,
    seed: int = 0,
    register_soft: bool = True,
) -> Program:
    """Convenience wrapper accepting the variant as a string."""
    if isinstance(variant, str):
        variant = WorkloadVariant(variant)
    return workload.build(
        items=items, seed=seed, variant=variant, register_soft=register_soft
    )


def memory_size_for(data_bytes: int, stack_bytes: int = 8 * 1024) -> int:
    """Address-space size fitting a data image plus stack headroom."""
    needed = DATA_BASE + data_bytes + stack_bytes
    # Round up to a 4 KB page, with a 64 KB floor.
    page = 4 * 1024
    return max(64 * 1024, (needed + page - 1) // page * page)
