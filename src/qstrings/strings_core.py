"""Binary strings and exact classical reference algorithms.

Everything here is deterministic and serves as ground truth for the
probabilistic quantum-simulation results elsewhere in the package.
Public positions are 1-indexed (substring(i, j) means bits i..j inclusive);
internal storage is a plain 0-indexed tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True)
class BitString:
    """Immutable sequence of bits with 1-indexed substring views."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            ok = {0, 1}.issuperset(self.bits)
        except TypeError:  # an unhashable element such as [1]
            ok = False
        if not ok:
            raise ValueError("bits must be 0 or 1")

    @classmethod
    def from_text(cls, text: str) -> "BitString":
        """Parse a string of '0'/'1' characters."""
        if any(c not in "01" for c in text):
            raise ValueError(f"not a bit string: {text!r}")
        return cls(tuple(int(c) for c in text))

    @classmethod
    def from_ascii(cls, text: str) -> "BitString":
        """Bit-expand bytes most-significant-bit first."""
        out: list[int] = []
        for byte in text.encode("ascii"):
            out.extend((byte >> (7 - i)) & 1 for i in range(8))
        return cls(tuple(out))

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitString":
        """Bits from any iterable of 0/1 values, such as an int, bool or
        float array; a value that int() would change is rejected."""
        values = tuple(bits)
        try:
            out = tuple(int(b) for b in values)
        except (TypeError, ValueError):  # such as [1], "x" or NaN
            raise ValueError("bits must be 0 or 1") from None
        if out != values:  # such as 0.5, which int() truncates to 0
            raise ValueError("bits must be 0 or 1")
        return cls(out)

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.bits)

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
        return "".join(str(b) for b in self.bits)


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

    @property
    def num_windows(self) -> int:
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
