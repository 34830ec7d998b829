"""Configuration bitstreams with split static/state sections (paper §4.1).

Moving a full configuration on or off the ProteanARM costs 54 KB of
transfer per custom instruction, so the paper splits configurations into:

* a **static section** — LUT contents and routing, which never changes
  while a circuit exists; and
* a **state section** — CLB register contents only, which is all that has
  to be saved and restored when a stateful circuit is swapped.

A :class:`Bitstream` is the image's *recipe*: name, shape, section sizes,
seed and flags.  The management layer only ever charges section sizes
and checks flags, and a circuit's live state travels as words (see
``CircuitInstance.capture_words``), so the section bytes exist only when
:meth:`Bitstream.serialise` asks for them.  The serialised format keeps
the split, a checksum per section, and header flags recording the
security-relevant properties (IOB usage, routing style) that the
validator checks.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

from ..errors import BitstreamError

#: Magic number opening every Proteus bitstream.
MAGIC = b"PRBS"
#: Serialised format version.
VERSION = 2

#: Header flag bits.
FLAG_USES_IOBS = 0x01
FLAG_MUX_ROUTING = 0x02
FLAG_HAS_STATE = 0x04

_HEADER = struct.Struct("<4sHHII IIq")
# magic, version, flags, clb_count, state_words, static_len, state_len, seed


def _digest(payload: bytes) -> bytes:
    """8-byte section checksum (truncated SHA-256)."""
    return hashlib.sha256(payload).digest()[:8]


@dataclass(frozen=True)
class Bitstream:
    """A configuration image for one custom instruction, as its recipe.

    Real place-and-route output is replaced by a keyed byte stream, so
    the image is a pure function of these fields.
    """

    name: str
    clb_count: int
    state_words: int
    static_bytes: int
    state_bytes: int
    seed: int = 0
    uses_iobs: bool = False
    mux_routing: bool = True

    def __post_init__(self) -> None:
        if self.clb_count <= 0:
            raise BitstreamError("bitstream must configure at least one CLB")
        if self.state_words < 0:
            raise BitstreamError("state word count cannot be negative")
        if self.static_bytes <= 0:
            raise BitstreamError("static section size must be positive")
        if self.state_bytes < self.state_words * 4:
            raise BitstreamError("state section too small for state words")

    # ---- sizes -----------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return self.static_bytes + self.state_bytes

    @property
    def is_stateful(self) -> bool:
        return self.state_words > 0

    # ---- sections, generated on demand ----------------------------------
    @property
    def static_section(self) -> bytes:
        """LUT contents and routing: a keyed stream of the declared size."""
        return _pseudo_bytes(
            f"{self.name}:static:{self.seed}", self.static_bytes
        )

    @property
    def state_section(self) -> bytes:
        """The power-on state section: every CLB register cleared."""
        return bytes(self.state_bytes)

    # ---- serialisation --------------------------------------------------
    def serialise(self) -> bytes:
        """Pack the bitstream into its on-the-wire byte format."""
        flags = 0
        if self.uses_iobs:
            flags |= FLAG_USES_IOBS
        if self.mux_routing:
            flags |= FLAG_MUX_ROUTING
        if self.is_stateful:
            flags |= FLAG_HAS_STATE
        name_bytes = self.name.encode("utf-8")
        if len(name_bytes) > 0xFF:
            raise BitstreamError("circuit name too long to serialise")
        header = _HEADER.pack(
            MAGIC,
            VERSION,
            flags,
            self.clb_count,
            self.state_words,
            self.static_bytes,
            self.state_bytes,
            self.seed,
        )
        preamble = header + bytes([len(name_bytes)]) + name_bytes
        static, state = self.static_section, self.state_section
        return b"".join(
            [
                preamble,
                _digest(preamble),
                _digest(static),
                static,
                _digest(state),
                state,
            ]
        )


def parse_bitstream(blob: bytes) -> Bitstream:
    """Parse and integrity-check a serialised bitstream."""
    if len(blob) < _HEADER.size + 1:
        raise BitstreamError("bitstream truncated (no header)")
    (magic, version, flags, clb_count, state_words, static_len, state_len,
     seed) = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise BitstreamError(f"bad magic {magic!r}")
    if version != VERSION:
        raise BitstreamError(f"unsupported bitstream version {version}")
    offset = _HEADER.size
    name_len = blob[offset]
    offset += 1
    name_bytes = blob[offset:offset + name_len]
    offset += name_len
    header_digest = blob[offset:offset + 8]
    offset += 8
    if _digest(blob[:_HEADER.size + 1 + name_len]) != header_digest:
        raise BitstreamError("header checksum mismatch")
    try:
        name = name_bytes.decode("utf-8")
    except UnicodeDecodeError:
        raise BitstreamError("circuit name is not valid UTF-8") from None
    sections = []
    for length in (static_len, state_len):
        checksum = blob[offset:offset + 8]
        offset += 8
        payload = blob[offset:offset + length]
        offset += length
        if len(payload) != length:
            raise BitstreamError("bitstream truncated (section)")
        if _digest(payload) != checksum:
            raise BitstreamError("section checksum mismatch")
        sections.append(payload)
    if offset != len(blob):
        raise BitstreamError("trailing bytes after bitstream")
    bitstream = Bitstream(
        name=name,
        clb_count=clb_count,
        state_words=state_words,
        static_bytes=static_len,
        state_bytes=state_len,
        seed=seed,
        uses_iobs=bool(flags & FLAG_USES_IOBS),
        mux_routing=bool(flags & FLAG_MUX_ROUTING),
    )
    # Valid checksums prove only that the sections arrived intact; a
    # foreign payload must still not pass as this recipe's image.
    if sections != [bitstream.static_section, bitstream.state_section]:
        raise BitstreamError("section does not match its recipe")
    return bitstream


def build_bitstream(
    name: str,
    clb_count: int,
    state_words: int,
    static_bytes: int,
    state_bytes: int,
    seed: int = 0,
    uses_iobs: bool = False,
    mux_routing: bool = True,
) -> Bitstream:
    """Build a deterministic synthetic bitstream of the requested shape."""
    return Bitstream(
        name=name,
        clb_count=clb_count,
        state_words=state_words,
        static_bytes=static_bytes,
        state_bytes=state_bytes,
        seed=seed,
        uses_iobs=uses_iobs,
        mux_routing=mux_routing,
    )


def flip_bit(blob: bytes, bit_index: int) -> bytes:
    """Return ``blob`` with one bit flipped — an SEU on a serialised image.

    Used by the fault-injection campaigns and the robustness tests:
    because every byte of the wire format is covered by the header
    structure or a section checksum, any single-bit flip of a serialised
    bitstream must be rejected by :func:`parse_bitstream` rather than
    parse into a silently different circuit.
    """
    if not 0 <= bit_index < len(blob) * 8:
        raise BitstreamError(
            f"bit {bit_index} outside {len(blob)}-byte bitstream"
        )
    corrupted = bytearray(blob)
    corrupted[bit_index // 8] ^= 1 << (bit_index % 8)
    return bytes(corrupted)


def _pseudo_bytes(key: str, length: int) -> bytes:
    """Deterministic pseudo-random bytes derived from ``key``."""
    out = bytearray()
    counter = 0
    while len(out) < length:
        out += hashlib.sha256(f"{key}:{counter}".encode()).digest()
        counter += 1
    return bytes(out[:length])
