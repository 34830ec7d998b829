"""Synthetic workload data.

The paper's applications consumed real images, audio and plaintext; none
ship with the paper, so deterministic synthetic generators stand in.  The
management behaviour under study is data-independent (completion time
depends on item *counts*, not values), so any deterministic data
exercises the same paths while keeping runs reproducible.

A point's program build and its reference model read the same inputs,
so each generator runs once per argument tuple per process: the result
is held packed (four bytes a word, or the plaintext ``bytes`` itself)
and every caller gets a fresh list it is free to modify.
"""

from __future__ import annotations

import random
import struct
from functools import lru_cache

MASK32 = 0xFFFFFFFF

#: Generated inputs held per generator (a sweep reuses a handful).
INPUT_CACHE_SIZE = 8


def _pack(words: list[int]) -> bytes:
    return struct.pack(f"<{len(words)}I", *words)


def _unpack(packed: bytes) -> list[int]:
    return list(struct.unpack(f"<{len(packed) // 4}I", packed))


def synthetic_image(pixels: int, seed: int = 0) -> list[int]:
    """``pixels`` packed RGBA words with a structured-noise pattern."""
    return _unpack(_image(pixels, seed))


def synthetic_audio(samples: int, seed: int = 0, amplitude: int = 12000) -> list[int]:
    """Signed 16-bit samples (stored as 32-bit two's complement words).

    A decaying pseudo-tone with noise, bounded well inside 16 bits so the
    echo pipeline's saturation paths are exercised only by the feedback
    gain, not by the input itself.
    """
    return _unpack(_audio(samples, seed, amplitude))


def synthetic_words(count: int, seed: int = 0) -> list[int]:
    """``count`` full-range 32-bit words of deterministic random data."""
    return _unpack(_words(count, seed))


def synthetic_plaintext(blocks: int, seed: int = 0) -> bytes:
    """``blocks`` 16-byte plaintext blocks of deterministic random data."""
    return _plaintext(blocks, seed)


def _randbelow(bits, n: int, k: int) -> int:
    """``rng.randrange(n)`` drawn as CPython's ``Random`` draws it, with
    ``bits`` = ``rng.getrandbits`` and ``k`` = ``n.bit_length()``: ``k``
    fresh bits, redrawn until they are below ``n``.  The generators
    below draw through it, skipping ``randrange``'s argument checks and
    its extra frame; ``tests/test_workloads.py`` checks it against
    ``randrange``."""
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


@lru_cache(maxsize=INPUT_CACHE_SIZE)
def _image(pixels: int, seed: int) -> bytes:
    bits = random.Random(("image", seed).__repr__()).getrandbits
    out = []
    for index in range(pixels):
        # Smooth gradient plus noise: looks like a photograph to the
        # blender (all channel values exercised) without being uniform.
        # The draws are randrange(64) three times, then randrange(32).
        r = (index * 7 + _randbelow(bits, 64, 7)) & 0xFF
        g = (index * 13 + _randbelow(bits, 64, 7)) & 0xFF
        b = (index * 29 + _randbelow(bits, 64, 7)) & 0xFF
        a = (index * 3 + _randbelow(bits, 32, 6)) & 0xFF
        out.append((a << 24) | (b << 16) | (g << 8) | r)
    return _pack(out)


@lru_cache(maxsize=INPUT_CACHE_SIZE)
def _audio(samples: int, seed: int, amplitude: int) -> bytes:
    bits = random.Random(("audio", seed).__repr__()).getrandbits
    # randrange(low, low + width): low + randrange(width).
    low = -amplitude // 4
    width = amplitude // 4 + 1 - low
    if width <= 0:  # randrange's own check
        raise ValueError(f"empty noise range for amplitude {amplitude}")
    k = width.bit_length()
    out = []
    value = 0
    for index in range(samples):
        # A cheap integer oscillator with a random walk on top.
        value = (value * 3 // 4) + low + _randbelow(bits, width, k)
        phase = index % 64
        tone = amplitude if phase < 32 else -amplitude
        sample = max(-32768, min(32767, tone // 2 + value))
        out.append(sample & MASK32)
    return _pack(out)


@lru_cache(maxsize=INPUT_CACHE_SIZE)
def _words(count: int, seed: int) -> bytes:
    rng = random.Random(("words", seed).__repr__())
    return _pack([rng.getrandbits(32) for _ in range(count)])


@lru_cache(maxsize=INPUT_CACHE_SIZE)
def _plaintext(blocks: int, seed: int) -> bytes:
    bits = random.Random(("plaintext", seed).__repr__()).getrandbits
    return bytes([_randbelow(bits, 256, 9) for _ in range(16 * blocks)])


def words_to_directive(words: list[int], per_line: int = 8) -> str:
    """Render words as ``.word`` assembler directives."""
    lines = []
    for start in range(0, len(words), per_line):
        chunk = ", ".join(
            f"{word & MASK32:#010x}" for word in words[start:start + per_line]
        )
        lines.append(f"    .word {chunk}")
    return "\n".join(lines) if lines else "    .space 0"


def bytes_to_words(data: bytes) -> list[int]:
    """Little-endian repack of a byte string into 32-bit words."""
    if len(data) % 4:
        raise ValueError("byte length must be a multiple of 4")
    return _unpack(data)


def words_to_bytes(words: list[int]) -> bytes:
    """Inverse of :func:`bytes_to_words`."""
    return _pack([word & MASK32 for word in words])
