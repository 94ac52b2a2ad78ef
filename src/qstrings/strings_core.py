"""Binary strings and exact classical reference algorithms.

Everything here is deterministic and serves as ground truth for the
probabilistic quantum-simulation results elsewhere in the package.
Public positions are 1-indexed (substring(i, j) means bits i..j inclusive).
A BitString stores its bits as immutable `bytes`, one byte per bit, each
0 or 1; `BitString.array` views them as a read-only uint8 array without
copying.  This module is the only one that knows that format.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

_ASCII_TO_BIT = bytes.maketrans(b"01", b"\x00\x01")
_BIT_TO_ASCII = bytes.maketrans(b"\x00\x01", b"01")
_DROP_DIGITS = str.maketrans("", "", "01")


@dataclass(frozen=True)
class BitString:
    """Immutable sequence of bits with 1-indexed substring views."""

    bits: bytes

    def __post_init__(self) -> None:
        if type(self.bits) is not bytes or self.bits.translate(None, b"\x00\x01"):
            raise ValueError("bits must be bytes of 0 or 1")

    @property
    def array(self) -> np.ndarray:
        """The bits as a read-only uint8 array sharing memory with `bits`."""
        return np.frombuffer(self.bits, dtype=np.uint8)

    def to_int(self) -> int:
        """The bits as one little-endian integer: bit i weighs 2^(i-1)."""
        return int.from_bytes(np.packbits(self.array, bitorder="little").tobytes(), "little")

    @classmethod
    def from_text(cls, text: str) -> "BitString":
        """Parse a string of '0'/'1' characters."""
        if text.translate(_DROP_DIGITS):
            raise ValueError(f"not a bit string: {text!r}")
        return cls(text.encode("ascii").translate(_ASCII_TO_BIT))

    @classmethod
    def from_ascii(cls, text: str) -> "BitString":
        """Bit-expand bytes most-significant-bit first."""
        data = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
        return cls(np.unpackbits(data).tobytes())

    @classmethod
    def from_bits(cls, bits: Iterable) -> "BitString":
        """Bits from any iterable of values equal to 0 or 1, such as an int,
        bool or float array; anything else, such as 0.5 or "1", is rejected."""
        try:
            values = np.asarray(bits if isinstance(bits, np.ndarray) else list(bits))
            ok = (
                values.ndim == 1
                and values.dtype.kind in "biufO"
                and bool(np.all((values == 0) | (values == 1)))
            )
        except (TypeError, ValueError):  # such as a ragged [[1], 0]
            ok = False
        if not ok:
            raise ValueError("bits must be 0 or 1")
        return cls(values.astype(np.uint8).tobytes())

    def __len__(self) -> int:
        return len(self.bits)

    def bit(self, i: int) -> int:
        """The i-th bit, 1-indexed."""
        if not 1 <= i <= len(self.bits):
            raise IndexError(f"bit index {i} out of range 1..{len(self.bits)}")
        return self.bits[i - 1]

    def substring(self, i: int, j: int) -> "BitString":
        """Bits i..j inclusive, 1-indexed; substring(i, i-1) is empty."""
        if not (1 <= i <= j + 1 <= len(self.bits) + 1):
            raise IndexError(f"substring({i}, {j}) invalid for length {len(self.bits)}")
        return BitString(self.bits[i - 1 : j])

    def __str__(self) -> str:
        return self.bits.translate(_BIT_TO_ASCII).decode("ascii")


@dataclass(frozen=True)
class MatchInstance:
    """A text/pattern pair; N = n - m + 1 is the number of windows."""

    text: BitString
    pattern: BitString

    def __post_init__(self) -> None:
        if len(self.pattern) < 1:
            raise ValueError("empty pattern is not a valid instance")
        if len(self.pattern) > len(self.text):
            raise ValueError("pattern longer than text")

    @property
    def n(self) -> int:
        return len(self.text)

    @property
    def m(self) -> int:
        return len(self.pattern)

    @cached_property
    def num_windows(self) -> int:
        # computed once: the matcher reads it on every repetition of a run
        return self.n - self.m + 1

    def window(self, d: int) -> BitString:
        """The length-m window starting at 1-indexed position d."""
        return self.text.substring(d, d + self.m - 1)


def lcp_classical(u: BitString, v: BitString) -> int:
    """Length of the longest common prefix of u and v."""
    x = 0
    for a, b in zip(u.bits, v.bits):
        if a != b:
            break
        x += 1
    return x


def compare_classical(u: BitString, v: BitString) -> int:
    """Lexicographic comparison: -1 if u < v, +1 if u > v, 0 if equal.

    Decided at the first differing position, with the shorter string
    winning when it is a proper prefix of the other.
    """
    t = lcp_classical(u, v)
    if t < len(u) and t < len(v):
        return -1 if u.bits[t] < v.bits[t] else 1
    if len(u) == len(v):
        return 0
    return -1 if len(u) < len(v) else 1


def naive_match_all(inst: MatchInstance) -> set[int]:
    """All 1-indexed occurrence positions, by direct window comparison."""
    w = inst.pattern.bits
    return {
        d
        for d in range(1, inst.num_windows + 1)
        if inst.text.bits[d - 1 : d - 1 + inst.m] == w
    }
