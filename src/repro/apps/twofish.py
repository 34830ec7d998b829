"""Twofish encryption workload (paper §5.1, one custom instruction).

A complete Twofish implementation (128-bit keys) backs this workload
three ways:

* the **functional model** — :class:`Twofish` implements the full cipher
  (q-permutations, MDS, RS code, PHT key schedule) and is validated
  against the known-answer vector from the Twofish specification;
* the **circuit model** — a stateful custom instruction streaming one
  128-bit block through the two-word PFU interface in five invocations
  (two absorb, one encrypt+drain, three drain);
* the **software kernels** — the classic "full keying" table
  implementation (4 x 1 KB key-dependent tables) written in ProteanARM
  assembly, used both as the registered software alternative and as the
  unaccelerated baseline.

All three produce byte-identical ciphertext.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import lru_cache

from ..core.circuit import CircuitSpec
from ..cpu.program import Program
from ..fabric.elements import ElementGraph, PhaseMachine, Wire
from ..errors import WorkloadError
from .data import (
    bytes_to_words,
    synthetic_plaintext,
    words_to_directive,
)
from .workloads import Workload, WorkloadVariant, memory_size_for

MASK32 = 0xFFFFFFFF

#: One 16-byte block as four little-endian words.
_BLOCK = struct.Struct("<4I")

# ---------------------------------------------------------------------------
# the cipher
# ---------------------------------------------------------------------------

#: 4-bit permutation tables building q0 and q1 (Twofish spec, table 5).
_Q0_T = (
    (0x8, 0x1, 0x7, 0xD, 0x6, 0xF, 0x3, 0x2, 0x0, 0xB, 0x5, 0x9, 0xE, 0xC, 0xA, 0x4),
    (0xE, 0xC, 0xB, 0x8, 0x1, 0x2, 0x3, 0x5, 0xF, 0x4, 0xA, 0x6, 0x7, 0x0, 0x9, 0xD),
    (0xB, 0xA, 0x5, 0xE, 0x6, 0xD, 0x9, 0x0, 0xC, 0x8, 0xF, 0x3, 0x2, 0x4, 0x7, 0x1),
    (0xD, 0x7, 0xF, 0x4, 0x1, 0x2, 0x6, 0xE, 0x9, 0xB, 0x3, 0x0, 0x8, 0x5, 0xC, 0xA),
)
_Q1_T = (
    (0x2, 0x8, 0xB, 0xD, 0xF, 0x7, 0x6, 0xE, 0x3, 0x1, 0x9, 0x4, 0x0, 0xA, 0xC, 0x5),
    (0x1, 0xE, 0x2, 0xB, 0x4, 0xC, 0x3, 0x7, 0x6, 0xD, 0xA, 0x5, 0xF, 0x9, 0x0, 0x8),
    (0x4, 0xC, 0x7, 0x5, 0x1, 0x6, 0x9, 0xA, 0x0, 0xE, 0xD, 0x8, 0x2, 0xB, 0x3, 0xF),
    (0xB, 0x9, 0x5, 0x1, 0xC, 0x3, 0xD, 0xE, 0x6, 0x4, 0x7, 0xF, 0x2, 0x0, 0x8, 0xA),
)

#: GF(2^8) reduction polynomials: MDS uses v(x), the RS code uses w(x).
_MDS_POLY = 0x169
_RS_POLY = 0x14D

_MDS = (
    (0x01, 0xEF, 0x5B, 0x5B),
    (0x5B, 0xEF, 0xEF, 0x01),
    (0xEF, 0x5B, 0x01, 0xEF),
    (0xEF, 0x01, 0xEF, 0x5B),
)
_RS = (
    (0x01, 0xA4, 0x55, 0x87, 0x5A, 0x58, 0xDB, 0x9E),
    (0xA4, 0x56, 0x82, 0xF3, 0x1E, 0xC6, 0x68, 0xE5),
    (0x02, 0xA1, 0xFC, 0xC1, 0x47, 0xAE, 0x3D, 0x19),
    (0xA4, 0x55, 0x87, 0x5A, 0x58, 0xDB, 0x9E, 0x03),
)

_RHO = 0x01010101


def _gf_mult(a: int, b: int, poly: int) -> int:
    """Multiply in GF(2^8) modulo ``poly``."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= poly
    return result & 0xFF


def _build_q(tables: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Materialise a q permutation from its four 4-bit tables."""
    t0, t1, t2, t3 = tables
    out = []
    for x in range(256):
        a0, b0 = x >> 4, x & 0xF
        a1 = a0 ^ b0
        b1 = (a0 ^ ((b0 >> 1) | ((b0 & 1) << 3)) ^ (8 * a0)) & 0xF
        a2, b2 = t0[a1], t1[b1]
        a3 = a2 ^ b2
        b3 = (a2 ^ ((b2 >> 1) | ((b2 & 1) << 3)) ^ (8 * a2)) & 0xF
        out.append((t3[b3] << 4) | t2[a3])
    return tuple(out)


Q0 = _build_q(_Q0_T)
Q1 = _build_q(_Q1_T)

#: q-permutation chains per byte lane for 128-bit keys: (first, middle,
#: last) stages applied around the key-byte XORs in h (Twofish spec §4.3.5).
_H_CHAINS = (
    (Q0, Q0, Q1),
    (Q1, Q0, Q0),
    (Q0, Q1, Q1),
    (Q1, Q1, Q0),
)


def _rol32(value: int, amount: int) -> int:
    amount %= 32
    value &= MASK32
    return ((value << amount) | (value >> (32 - amount))) & MASK32


def _ror32(value: int, amount: int) -> int:
    return _rol32(value, 32 - amount)


def _mds_word(column_bytes: list[int]) -> int:
    """Multiply a 4-byte column by the MDS matrix; pack little-endian."""
    out = 0
    for row in range(4):
        acc = 0
        for col in range(4):
            acc ^= _gf_mult(_MDS[row][col], column_bytes[col], _MDS_POLY)
        out |= acc << (8 * row)
    return out


def _h128(x: int, l0: int, l1: int) -> int:
    """The h function for 128-bit keys: ``l1`` is the inner key word."""
    y = []
    for lane in range(4):
        first, middle, last = _H_CHAINS[lane]
        b = first[(x >> (8 * lane)) & 0xFF]
        b = middle[b ^ ((l1 >> (8 * lane)) & 0xFF)]
        b = last[b ^ ((l0 >> (8 * lane)) & 0xFF)]
        y.append(b)
    return _mds_word(y)


def _sbox_lane(lane: int, b: int, inner: int, outer: int) -> int:
    """The key-dependent S-box for one byte lane of g."""
    first, middle, last = _H_CHAINS[lane]
    b = first[b]
    b = middle[b ^ ((inner >> (8 * lane)) & 0xFF)]
    b = last[b ^ ((outer >> (8 * lane)) & 0xFF)]
    return b


def _rs_encode(k0: int, k1: int) -> int:
    """RS-encode 8 key bytes into one S-box key word."""
    key_bytes = [(k0 >> (8 * i)) & 0xFF for i in range(4)]
    key_bytes += [(k1 >> (8 * i)) & 0xFF for i in range(4)]
    out = 0
    for row in range(4):
        acc = 0
        for col in range(8):
            acc ^= _gf_mult(_RS[row][col], key_bytes[col], _RS_POLY)
        out |= acc << (8 * row)
    return out


@dataclass
class Twofish:
    """Twofish with a 128-bit key.

    Exposes the expanded round keys and the key-dependent "full keying"
    tables so the assembly kernels can embed them as data.
    """

    key: bytes

    def __post_init__(self) -> None:
        if len(self.key) != 16:
            raise WorkloadError("Twofish-128 requires a 16-byte key")
        m = bytes_to_words(self.key)
        me = (m[0], m[2])
        mo = (m[1], m[3])
        # Spec S0 = RS(m0,m1) is the *inner* key word of the S-boxes,
        # spec S1 = RS(m2,m3) the *outer* one (S words apply in reverse).
        self.s_inner = _rs_encode(m[0], m[1])
        self.s_outer = _rs_encode(m[2], m[3])
        # Tuples: a cipher is shared by every build and reference check
        # of its key (see :func:`cipher_for`).
        self.round_keys = tuple(self._expand(me, mo))
        self.tables = tuple(tuple(column) for column in self._full_tables())

    def _expand(self, me: tuple[int, int], mo: tuple[int, int]) -> list[int]:
        keys = []
        for i in range(20):
            a = _h128(2 * i * _RHO & MASK32, me[0], me[1])
            b = _rol32(_h128((2 * i + 1) * _RHO & MASK32, mo[0], mo[1]), 8)
            keys.append((a + b) & MASK32)
            keys.append(_rol32((a + 2 * b) & MASK32, 9))
        return keys

    def _full_tables(self) -> list[list[int]]:
        """T[lane][byte] with g(X) = T0[x0] ^ T1[x1] ^ T2[x2] ^ T3[x3]."""
        tables: list[list[int]] = []
        for lane in range(4):
            column = []
            for value in range(256):
                s = _sbox_lane(lane, value, self.s_inner, self.s_outer)
                word = 0
                for row in range(4):
                    word |= _gf_mult(_MDS[row][lane], s, _MDS_POLY) << (8 * row)
                column.append(word)
            tables.append(column)
        return tables

    # ------------------------------------------------------------------
    def g(self, x: int) -> int:
        t = self.tables
        return (
            t[0][x & 0xFF]
            ^ t[1][(x >> 8) & 0xFF]
            ^ t[2][(x >> 16) & 0xFF]
            ^ t[3][(x >> 24) & 0xFF]
        )

    def encrypt_words(self, block: list[int]) -> list[int]:
        """Encrypt one block given as four little-endian words.

        :meth:`g`, :func:`_rol32` and :func:`_ror32` are inlined: this is
        the reference every Twofish point's output is checked against.
        """
        if len(block) != 4:
            raise WorkloadError("block must be four 32-bit words")
        k = self.round_keys
        t0, t1, t2, t3 = self.tables
        r0, r1, r2, r3 = (
            (block[i] ^ k[i]) & MASK32 for i in range(4)
        )
        for rnd in range(8, 40, 2):
            g0 = (t0[r0 & 0xFF] ^ t1[(r0 >> 8) & 0xFF]
                  ^ t2[(r0 >> 16) & 0xFF] ^ t3[r0 >> 24])
            # g(rol32(r1, 8)): the rotation only permutes the lanes.
            g1 = (t0[r1 >> 24] ^ t1[r1 & 0xFF]
                  ^ t2[(r1 >> 8) & 0xFF] ^ t3[(r1 >> 16) & 0xFF])
            f0 = (g0 + g1 + k[rnd]) & MASK32
            f1 = (g0 + 2 * g1 + k[rnd + 1]) & MASK32
            x = r2 ^ f0
            r0, r1, r2, r3 = (
                ((x >> 1) | (x << 31)) & MASK32,
                (((r3 << 1) | (r3 >> 31)) & MASK32) ^ f1,
                r0,
                r1,
            )
        return [r2 ^ k[4], r3 ^ k[5], r0 ^ k[6], r1 ^ k[7]]

    def decrypt_words(self, block: list[int]) -> list[int]:
        """Invert :meth:`encrypt_words`."""
        if len(block) != 4:
            raise WorkloadError("block must be four 32-bit words")
        k = self.round_keys
        r = [block[i] ^ k[4 + i] for i in range(4)]
        r = [r[2], r[3], r[0], r[1]]
        for rnd in range(15, -1, -1):
            r = [r[2], r[3], r[0], r[1]]
            t0 = self.g(r[0])
            t1 = self.g(_rol32(r[1], 8))
            f0 = (t0 + t1 + k[8 + 2 * rnd]) & MASK32
            f1 = (t0 + 2 * t1 + k[9 + 2 * rnd]) & MASK32
            r[2] = _rol32(r[2], 1) ^ f0
            r[3] = _ror32(r[3] ^ f1, 1)
        return [r[i] ^ k[i] for i in range(4)]

    def encrypt_block(self, plaintext: bytes) -> bytes:
        words = self.encrypt_words(bytes_to_words(plaintext))
        return b"".join(word.to_bytes(4, "little") for word in words)

    def decrypt_block(self, ciphertext: bytes) -> bytes:
        words = self.decrypt_words(bytes_to_words(ciphertext))
        return b"".join(word.to_bytes(4, "little") for word in words)

    def encrypt(self, plaintext: bytes) -> bytes:
        """ECB-encrypt a multiple of 16 bytes (the workload's mode)."""
        if len(plaintext) % 16:
            raise WorkloadError("plaintext must be a multiple of 16 bytes")
        out = bytearray(len(plaintext))
        for offset in range(0, len(plaintext), 16):
            _BLOCK.pack_into(
                out, offset,
                *self.encrypt_words(_BLOCK.unpack_from(plaintext, offset)),
            )
        return bytes(out)

    def decrypt(self, ciphertext: bytes) -> bytes:
        if len(ciphertext) % 16:
            raise WorkloadError("ciphertext must be a multiple of 16 bytes")
        return b"".join(
            self.decrypt_block(ciphertext[offset:offset + 16])
            for offset in range(0, len(ciphertext), 16)
        )


def workload_key(seed: int) -> bytes:
    """The deterministic per-seed key the workload programs use."""
    return hashlib.sha256(f"twofish-key:{seed}".encode()).digest()[:16]


@lru_cache(maxsize=8)
def cipher_for(key: bytes) -> Twofish:
    """The key-scheduled cipher for ``key``, once per process: a point's
    program data, its circuit and its reference all read the same one."""
    return Twofish(key=key)


# ---------------------------------------------------------------------------
# the custom instruction (stateful streaming circuit)
# ---------------------------------------------------------------------------

#: CLBs for a fully unrolled Twofish round core with key in LUTs: the
#: whole 500-CLB PFU (it is the paper's biggest circuit).
TWOFISH_CLBS = 500

#: Phase-1 latency: 16 pipelined rounds plus whitening.
ENCRYPT_LATENCY = 18

# State layout: [phase, in0..in3, out1..out3] (out0 returns directly).
_ST_PHASE = 0
_ST_IN = 1
_ST_OUT = 5


def _encrypt_graph(cipher: Twofish) -> ElementGraph:
    """Phase 1: absorb words 2-3 and run all 16 rounds, fully unrolled.

    The key-dependent "full keying" tables become lookup ROMs; round
    keys become constants; the PHT adds, rotates and XORs come straight
    off the FU menu.  ``rol32(v, n)`` is expressed as the ARM barrel
    shifter's ``ror`` by ``32 - n``.
    """
    g = ElementGraph("twofish_rounds")
    a, b = g.input_a(), g.input_b()
    k = cipher.round_keys
    tables = cipher.tables

    def gfunc(x: Wire) -> Wire:
        acc = g.lookup(tables[0], x)
        for lane in (1, 2, 3):
            byte = g.apply("lsr", x, g.const(8 * lane))
            acc = g.apply("eor", acc, g.lookup(tables[lane], byte))
        return acc

    def ror(x: Wire, amount: int) -> Wire:
        return g.apply("ror", x, g.const(amount % 32))

    def add_mod32(*terms: Wire) -> Wire:
        acc = terms[0]
        for term in terms[1:]:
            acc = g.apply("add", acc, term)
        return g.apply("wrap", acc)

    r = [
        g.apply("eor", g.state(_ST_IN), g.const(k[0])),
        g.apply("eor", g.state(_ST_IN + 1), g.const(k[1])),
        g.apply("eor", a, g.const(k[2])),
        g.apply("eor", b, g.const(k[3])),
    ]
    for rnd in range(16):
        t0 = gfunc(r[0])
        t1 = gfunc(ror(r[1], 24))  # rol32(r1, 8)
        f0 = add_mod32(t0, t1, g.const(k[8 + 2 * rnd]))
        f1 = add_mod32(t0, g.apply("add", t1, t1), g.const(k[9 + 2 * rnd]))
        r = [
            ror(g.apply("eor", r[2], f0), 1),
            g.apply("eor", ror(r[3], 31), f1),  # rol32(r3, 1) ^ f1
            r[0],
            r[1],
        ]
    r = [r[2], r[3], r[0], r[1]]
    out = [g.apply("eor", r[i], g.const(k[4 + i])) for i in range(4)]
    g.set_state(_ST_IN + 2, a)
    g.set_state(_ST_IN + 3, b)
    for word in range(3):
        g.set_state(_ST_OUT + word, out[word + 1])
    g.set_state(_ST_PHASE, g.const(2))
    g.set_output(out[0])
    return g


def make_twofish_circuit(key: bytes) -> CircuitSpec:
    """The streaming Twofish-128 encryptor as a custom instruction.

    Protocol per block (five invocations):

    1. absorb words 0-1 (returns 0);
    2. absorb words 2-3, encrypt (latency 18), return ciphertext word 0;
    3.-5. drain ciphertext words 1-3 (latency 1 each).

    Composed as a five-phase machine on the FU element library.  The
    explicit CLB count and latency record the hand floorplan: the
    unrolled-round graph maps onto an iterative round engine sharing one
    set of lookup ROMs, which is how the spec's 500-CLB budget and
    18-cycle encrypt were arrived at in the first place.
    """
    cipher = cipher_for(key)
    machine = PhaseMachine("twofish_enc", selector=_ST_PHASE)

    absorb = ElementGraph("twofish_absorb")
    a, b = absorb.input_a(), absorb.input_b()
    absorb.set_state(_ST_IN, a)
    absorb.set_state(_ST_IN + 1, b)
    absorb.set_state(_ST_PHASE, absorb.const(1))
    absorb.set_output(absorb.const(0))
    machine.phase(0, absorb, latency=1)

    machine.phase(1, _encrypt_graph(cipher), latency=ENCRYPT_LATENCY)

    for phase in (2, 3, 4):
        drain = ElementGraph(f"twofish_drain{phase - 1}")
        drain.set_output(drain.state(_ST_OUT + phase - 2))
        drain.set_state(
            _ST_PHASE, drain.const(0 if phase == 4 else phase + 1)
        )
        machine.phase(phase, drain, latency=1)

    return CircuitSpec.compose(
        "twofish_enc",
        machine,
        clb_count=TWOFISH_CLBS,
        app_state_words=8,
        initial_state=(0,) * 8,
        promotable=False,
    )


# ---------------------------------------------------------------------------
# assembly kernels
# ---------------------------------------------------------------------------

def _gfunc_asm() -> str:
    """g(r0) -> r1 via the four key-dependent tables; clobbers r2, r3."""
    lines = ["gfunc:"]
    for lane in range(4):
        if lane == 0:
            lines.append("    AND  r2, r0, #0xFF")
        else:
            lines.append(f"    LSR  r2, r0, #{8 * lane}")
            lines.append("    AND  r2, r2, #0xFF")
        lines += [
            "    LSL  r2, r2, #2",
            f"    MOV  r3, #tf_T{lane}",
            "    ADD  r2, r2, r3",
            "    LDR  r2, [r2]",
        ]
        lines.append("    MOV  r1, r2" if lane == 0 else "    EOR  r1, r1, r2")
    lines.append("    BX   lr")
    return "\n".join(lines)


_ENCRYPT_MEM = """\
encrypt_mem:
    ; encrypt tf_in -> tf_out using tf_K and tf_T0..3; clobbers r0-r12
    MOV  r9, lr
    MOV  r10, #tf_in
    MOV  r8, #tf_K
    LDR  r4, [r10]
    LDR  r0, [r8], #4
    EOR  r4, r4, r0
    LDR  r5, [r10, #4]
    LDR  r0, [r8], #4
    EOR  r5, r5, r0
    LDR  r6, [r10, #8]
    LDR  r0, [r8], #4
    EOR  r6, r6, r0
    LDR  r7, [r10, #12]
    LDR  r0, [r8], #4
    EOR  r7, r7, r0
    ADD  r8, r8, #16       ; skip K[4..7]; round keys start at K[8]
    MOV  r12, #16
tf_round:
    MOV  r0, r4
    BL   gfunc
    MOV  r11, r1           ; t0
    ROR  r0, r5, #24       ; ROL(R1, 8)
    BL   gfunc             ; t1
    LDR  r2, [r8], #4
    ADD  r0, r11, r1
    ADD  r0, r0, r2        ; f0 = t0 + t1 + K[2r+8]
    LDR  r2, [r8], #4
    ADD  r3, r11, r1
    ADD  r3, r3, r1
    ADD  r3, r3, r2        ; f1 = t0 + 2*t1 + K[2r+9]
    EOR  r6, r6, r0
    ROR  r6, r6, #1        ; R2 = ROR(R2 ^ f0, 1)
    ROR  r7, r7, #31       ; ROL(R3, 1)
    EOR  r7, r7, r3        ; R3 = ROL(R3,1) ^ f1
    MOV  r2, r4            ; swap halves
    MOV  r3, r5
    MOV  r4, r6
    MOV  r5, r7
    MOV  r6, r2
    MOV  r7, r3
    SUB  r12, r12, #1
    CMP  r12, #0
    BNE  tf_round
    MOV  r2, r4            ; undo the final swap
    MOV  r3, r5
    MOV  r4, r6
    MOV  r5, r7
    MOV  r6, r2
    MOV  r7, r3
    MOV  r8, #tf_K
    LDR  r0, [r8, #16]
    EOR  r4, r4, r0
    LDR  r0, [r8, #20]
    EOR  r5, r5, r0
    LDR  r0, [r8, #24]
    EOR  r6, r6, r0
    LDR  r0, [r8, #28]
    EOR  r7, r7, r0
    MOV  r10, #tf_out
    STR  r4, [r10]
    STR  r5, [r10, #4]
    STR  r6, [r10, #8]
    STR  r7, [r10, #12]
    BX   r9
"""

_SOFT_ROUTINE = """\
twofish_soft:
    ; software alternative implementing the circuit's phase protocol
    LDO  r0, #0
    LDO  r1, #1
    MOV  r2, #tf_phase
    LDR  r3, [r2]
    CMP  r3, #0
    BNE  tfs_p1
    MOV  r10, #tf_in       ; phase 0: absorb words 0-1
    STR  r0, [r10]
    STR  r1, [r10, #4]
    MOV  r3, #1
    STR  r3, [r2]
    MOV  r0, #0
    STO  r0
    BX   lr
tfs_p1:
    CMP  r3, #1
    BNE  tfs_drain
    MOV  r10, #tf_in       ; phase 1: absorb words 2-3 and encrypt
    STR  r0, [r10, #8]
    STR  r1, [r10, #12]
    MOV  r10, #tf_save     ; encrypt_mem clobbers r4-r7 and lr
    STR  lr, [r10]
    STR  r4, [r10, #4]
    STR  r5, [r10, #8]
    STR  r6, [r10, #12]
    STR  r7, [r10, #16]
    BL   encrypt_mem
    MOV  r10, #tf_save
    LDR  lr, [r10]
    LDR  r4, [r10, #4]
    LDR  r5, [r10, #8]
    LDR  r6, [r10, #12]
    LDR  r7, [r10, #16]
    MOV  r2, #tf_phase
    MOV  r3, #2
    STR  r3, [r2]
    MOV  r10, #tf_out
    LDR  r0, [r10]
    STO  r0
    BX   lr
tfs_drain:
    MOV  r10, #tf_out      ; phases 2-4: drain ciphertext words 1-3
    SUB  r0, r3, #1
    LSL  r0, r0, #2
    ADD  r10, r10, r0
    LDR  r0, [r10]
    ADD  r3, r3, #1
    CMP  r3, #5
    BNE  tfs_keep
    MOV  r3, #0
tfs_keep:
    STR  r3, [r2]
    STO  r0
    BX   lr
"""


def _kernel_data(cipher: Twofish) -> str:
    """Data section shared by the software kernels."""
    sections = [
        "tf_phase:\n    .word 0",
        "tf_in:\n    .space 16",
        "tf_out:\n    .space 16",
        "tf_save:\n    .space 20",
        "tf_K:\n" + words_to_directive(cipher.round_keys),
    ]
    for lane in range(4):
        sections.append(f"tf_T{lane}:\n" + words_to_directive(cipher.tables[lane]))
    return "\n".join(sections)


def _accelerated_source(blocks: int, plaintext_words: list[int],
                        cipher: Twofish, register_soft: bool) -> str:
    if register_soft:
        soft_setup = "    MOV  r2, #soft_ptr\n    LDR  r2, [r2]\n"
        soft_code = _SOFT_ROUTINE + "\n" + _ENCRYPT_MEM + "\n" + _gfunc_asm()
        soft_data = (
            "soft_ptr:\n    .word twofish_soft\n" + _kernel_data(cipher)
        )
    else:
        soft_setup = "    MOV  r2, #0\n"
        soft_code = ""
        soft_data = ""
    return f"""\
; Twofish-128 encryption, accelerated with the twofish_enc instruction
.equ N, {blocks}
.text
main:
    MOV  r0, #1            ; CID 1
    MOV  r1, #0
{soft_setup}    SWI  #1
    MOV  r4, #src
    MOV  r5, #dst
    MOV  r6, #N
loop:
    LDR  r0, [r4], #4      ; absorb words 0-1
    LDR  r1, [r4], #4
    MCR  f0, r0
    MCR  f1, r1
    CDP  #1, f4, f0, f1
    LDR  r0, [r4], #4      ; absorb words 2-3, encrypt
    LDR  r1, [r4], #4
    MCR  f0, r0
    MCR  f1, r1
    CDP  #1, f4, f0, f1
    MRC  r2, f4
    STR  r2, [r5], #4
    CDP  #1, f4, f0, f1    ; drain word 1
    MRC  r2, f4
    STR  r2, [r5], #4
    CDP  #1, f4, f0, f1    ; drain word 2
    MRC  r2, f4
    STR  r2, [r5], #4
    CDP  #1, f4, f0, f1    ; drain word 3
    MRC  r2, f4
    STR  r2, [r5], #4
    SUB  r6, r6, #1
    CMP  r6, #0
    BNE  loop
    MOV  r0, #0
    SWI  #0

{soft_code}
.data
{soft_data}
src:
{words_to_directive(plaintext_words)}
dst:
    .space {16 * blocks}
"""


def _software_source(blocks: int, plaintext_words: list[int],
                     cipher: Twofish) -> str:
    return f"""\
; Twofish-128 encryption, pure software (table implementation)
.equ N, {blocks}
.text
main:
    MOV  r4, #src
    MOV  r5, #dst
    MOV  r6, #N
uloop:
    MOV  r10, #tf_in
    LDR  r0, [r4], #4
    STR  r0, [r10]
    LDR  r0, [r4], #4
    STR  r0, [r10, #4]
    LDR  r0, [r4], #4
    STR  r0, [r10, #8]
    LDR  r0, [r4], #4
    STR  r0, [r10, #12]
    MOV  r10, #tf_save     ; encrypt_mem clobbers r4-r6
    STR  r4, [r10, #4]
    STR  r5, [r10, #8]
    STR  r6, [r10, #12]
    BL   encrypt_mem
    MOV  r10, #tf_save
    LDR  r4, [r10, #4]
    LDR  r5, [r10, #8]
    LDR  r6, [r10, #12]
    MOV  r10, #tf_out
    LDR  r0, [r10]
    STR  r0, [r5], #4
    LDR  r0, [r10, #4]
    STR  r0, [r5], #4
    LDR  r0, [r10, #8]
    STR  r0, [r5], #4
    LDR  r0, [r10, #12]
    STR  r0, [r5], #4
    SUB  r6, r6, #1
    CMP  r6, #0
    BNE  uloop
    MOV  r0, #0
    SWI  #0

{_ENCRYPT_MEM}
{_gfunc_asm()}

.data
{_kernel_data(cipher)}
src:
{words_to_directive(plaintext_words)}
dst:
    .space {16 * blocks}
"""


def build_twofish_program(
    items: int,
    seed: int = 0,
    variant: WorkloadVariant = WorkloadVariant.ACCELERATED,
    register_soft: bool = True,
) -> Program:
    """Build one Twofish process image encrypting ``items`` blocks."""
    key = workload_key(seed)
    cipher = cipher_for(key)
    plaintext = synthetic_plaintext(items, seed=seed)
    plaintext_words = bytes_to_words(plaintext)
    if variant is WorkloadVariant.ACCELERATED:
        source = _accelerated_source(items, plaintext_words, cipher, register_soft)
        circuits = [make_twofish_circuit(key)]
    else:
        source = _software_source(items, plaintext_words, cipher)
        circuits = []
    # Data: kernels (~4.5 KB tables + keys) + src + dst.
    data_bytes = 6 * 1024 + 32 * items
    return Program.from_source(
        name=f"twofish[{variant.value},{items}]",
        source=source,
        circuit_table=circuits,
        memory_size=memory_size_for(data_bytes),
        result_labels={"dst": 16 * items},
    )


def twofish_reference(items: int, seed: int = 0) -> bytes:
    """Expected ciphertext for a run of ``items`` blocks."""
    cipher = cipher_for(workload_key(seed))
    return cipher.encrypt(synthetic_plaintext(items, seed=seed))


#: Paper-scale block count: ~1.3e8 cycles at ~60 cycles/block.
PAPER_BLOCKS = 2_200_000


def make_twofish_workload() -> Workload:
    return Workload(
        name="twofish",
        circuits_per_process=1,
        paper_items=PAPER_BLOCKS,
        min_items=2,
        builder=build_twofish_program,
        reference=twofish_reference,
    )
