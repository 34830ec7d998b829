"""Behavioural model of the Proteus FPL fabric (paper §4.1).

The fabric follows the Xilinx Virtex style assumed by the ProteanARM:

* CLBs containing LUTs and optional registers (state);
* a mux-based routing fabric, which by construction cannot be
  misconfigured into a short circuit;
* **no IOBs** — PFUs connect only to the processor datapath, removing the
  FPGA-virus class of physical attacks;
* configurations split into a *static* section (LUT contents + routing)
  and a *state* section (CLB register contents) so that context switches
  move only the small state section when the static image is resident.
"""

from .clb import CLB, CLBColumn, LUT
from .routing import MuxRouting, RouteError, RoutingGraph
from .bitstream import (
    Bitstream,
    build_bitstream,
    parse_bitstream,
)
from .array import FPLArray, PFURegion
from .validate import SecurityPolicy, ValidationReport, validate_bitstream

__all__ = [
    "CLB",
    "CLBColumn",
    "LUT",
    "MuxRouting",
    "RouteError",
    "RoutingGraph",
    "Bitstream",
    "build_bitstream",
    "parse_bitstream",
    "FPLArray",
    "PFURegion",
    "SecurityPolicy",
    "ValidationReport",
    "validate_bitstream",
]
