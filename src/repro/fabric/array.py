"""The FPL array: a set of PFU placement regions.

The ProteanARM partitions its fabric into fixed PFU regions (four regions
of 500 CLBs in the paper's experiments).  A region holds at most one
circuit's static configuration at a time; loading a circuit whose static
image is already resident requires only a state restore.  Regions hold
images as recipes and charge their section sizes; no section bytes are
generated here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import PlacementError
from ..state import Snapshotable
from .bitstream import Bitstream


@dataclass
class PFURegion(Snapshotable):
    """One PFU-sized placement region of the array.

    A snapshot records the resident image as its recipe, less the seed:
    the seed is the machine's, which the region keeps.
    """

    index: int
    clb_capacity: int
    resident: Bitstream | None = None
    #: The machine seed every resident image is built with.
    seed: int = 0

    @property
    def is_free(self) -> bool:
        return self.resident is None

    def load_static(self, bitstream: Bitstream) -> int:
        """Load a static configuration; returns bytes transferred."""
        if bitstream.clb_count > self.clb_capacity:
            raise PlacementError(
                f"circuit {bitstream.name!r} needs {bitstream.clb_count} "
                f"CLBs but region {self.index} has {self.clb_capacity}"
            )
        self.resident = bitstream
        return bitstream.static_bytes

    def load_state(self, bitstream: Bitstream) -> int:
        """Load only ``bitstream``'s state section; returns bytes moved."""
        if self.resident is None:
            raise PlacementError(
                f"region {self.index} has no static configuration"
            )
        if bitstream.name != self.resident.name:
            raise PlacementError(
                f"state for {bitstream.name!r} does not match "
                f"resident circuit {self.resident.name!r}"
            )
        return bitstream.state_bytes

    def unload(self) -> None:
        self.resident = None

    # ---- machine-state protocol -------------------------------------------
    def snapshot(self) -> dict:
        resident = self.resident
        if resident is None:
            return {"resident": None}
        return {
            "resident": {
                "name": resident.name,
                "clb_count": resident.clb_count,
                "state_words": resident.state_words,
                "static_bytes": resident.static_bytes,
                "state_bytes": resident.state_bytes,
                "uses_iobs": resident.uses_iobs,
                "mux_routing": resident.mux_routing,
            }
        }

    def restore(self, state: dict) -> None:
        recipe = state["resident"]
        self.resident = None
        if recipe is not None:
            # Through load_static, so an image read from a checkpoint
            # meets the same capacity check as a live load.
            self.load_static(Bitstream(**recipe, seed=self.seed))


@dataclass
class FPLArray(Snapshotable):
    """The whole reconfigurable array as seen by the CIS."""

    STATE = ("regions",)

    regions: list[PFURegion] = field(default_factory=list)

    @classmethod
    def build(cls, pfu_count: int, pfu_clbs: int, seed: int = 0) -> "FPLArray":
        if pfu_count <= 0:
            raise PlacementError("array needs at least one PFU region")
        return cls(
            regions=[
                PFURegion(index=i, clb_capacity=pfu_clbs, seed=seed)
                for i in range(pfu_count)
            ]
        )

    def __len__(self) -> int:
        return len(self.regions)

    def occupied_regions(self) -> list[int]:
        """Indices of regions holding a configuration (in index order).

        The fault injector targets these for configuration upsets, and
        the scrubber walks them in this order — a deterministic set for a
        deterministic machine.
        """
        return [
            region.index for region in self.regions if not region.is_free
        ]

    def region(self, index: int) -> PFURegion:
        if not 0 <= index < len(self.regions):
            raise PlacementError(f"no PFU region {index}")
        return self.regions[index]
