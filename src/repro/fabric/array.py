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
from .bitstream import Bitstream


@dataclass
class PFURegion:
    """One PFU-sized placement region of the array."""

    index: int
    clb_capacity: int
    resident: Bitstream | None = None

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
        """Record the resident image as its recipe, less the seed.

        The seed is the machine's, which :meth:`restore` is given back.
        """
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

    def restore(self, state: dict, seed: int = 0) -> None:
        recipe = state["resident"]
        self.resident = None
        if recipe is not None:
            # Through load_static, so an image read from a checkpoint
            # meets the same capacity check as a live load.
            self.load_static(Bitstream(**recipe, seed=seed))


@dataclass
class FPLArray:
    """The whole reconfigurable array as seen by the CIS."""

    regions: list[PFURegion] = field(default_factory=list)

    @classmethod
    def build(cls, pfu_count: int, pfu_clbs: int) -> "FPLArray":
        if pfu_count <= 0:
            raise PlacementError("array needs at least one PFU region")
        return cls(
            regions=[
                PFURegion(index=i, clb_capacity=pfu_clbs)
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

    # ---- machine-state protocol -------------------------------------------
    def snapshot(self) -> dict:
        return {"regions": [region.snapshot() for region in self.regions]}

    def restore(self, state: dict, seed: int = 0) -> None:
        saved = state["regions"]
        if len(saved) != len(self.regions):
            raise PlacementError("array snapshot does not match geometry")
        for region, entry in zip(self.regions, saved):
            region.restore(entry, seed=seed)
