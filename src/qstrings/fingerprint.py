"""Rolling-hash fingerprinting over binary strings.

A string u hashes to h_p(u) = (sum_i u_i * 2^(i-1)) mod p for a prime p
drawn uniformly from the first r primes, with r sized as
ceil(delta * max_len / epsilon) so that a run performing up to `delta`
hash comparisons on strings up to `max_len` bits keeps its total
false-equality probability at most epsilon.  Equal strings always hash
equal; only the converse is probabilistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import sympy

from .strings_core import BitString, compare_classical

# Largest universe the sieve-backed list operation will materialize.
SIEVE_R_CAP = 2_000_000
# Absolute universe cap for single-prime draws (nth-prime lookup).
UNIVERSE_R_CAP = 2**34

_SMALL_PRIMES = (2, 3, 5, 7, 11)


class UniverseSizeError(ValueError):
    """Requested prime universe exceeds the configured resource cap."""


def universe_size(delta: int, max_len: int, epsilon: float) -> int:
    """Number of candidate primes for `delta` comparisons at error budget epsilon."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    if delta < 1 or max_len < 1:
        raise ValueError("delta and max_len must be positive")
    return math.ceil(delta * max_len / epsilon)


def _sieve_upper_bound(r: int) -> int:
    # p_r < r(ln r + ln ln r) for r >= 6; small r handled by lookup.
    if r < 6:
        return _SMALL_PRIMES[r - 1] + 1
    x = math.log(r)
    return int(r * (x + math.log(x))) + 1


@lru_cache(maxsize=8)
def first_r_primes(r: int, cap: int = SIEVE_R_CAP) -> tuple[int, ...]:
    """The first r primes, in increasing order, via an Eratosthenes sieve."""
    if r < 1:
        raise ValueError("r must be positive")
    if r > cap:
        raise UniverseSizeError(f"universe of {r} primes exceeds sieve cap {cap}")
    bound = _sieve_upper_bound(r)
    flags = np.ones(bound, dtype=bool)
    flags[:2] = False
    for q in range(2, math.isqrt(bound - 1) + 1):
        if flags[q]:
            flags[q * q :: q] = False
    primes = np.flatnonzero(flags)
    if len(primes) < r:  # bound shortfall cannot happen for r >= 6, but be safe
        return first_r_primes.__wrapped__(r + max(16, r // 4), cap=max(cap, r * 2))[:r]
    return tuple(int(q) for q in primes[:r])


def nth_prime(i: int) -> int:
    """The i-th prime (1-indexed)."""
    if i < 1:
        raise ValueError("prime index must be positive")
    return int(sympy.prime(i))


@dataclass(frozen=True)
class HashParams:
    """A sized prime universe together with the drawn modulus."""

    p: int
    epsilon: float
    delta: int
    r: int
    max_len: int

    def __post_init__(self) -> None:
        if self.r < universe_size(self.delta, self.max_len, self.epsilon):
            raise ValueError("universe too small for the declared error budget")
        if not sympy.isprime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.p >= _sieve_upper_bound(self.r):
            raise ValueError(f"{self.p} lies beyond the first {self.r} primes")

    @property
    def width(self) -> int:
        """Bits needed for a residue register, ceil(log2 p)."""
        return hash_width(self.p)


def choose_prime(
    rng: np.random.Generator, delta: int, max_len: int, epsilon: float
) -> HashParams:
    """Draw p uniformly from the first ceil(delta*max_len/epsilon) primes.

    Deterministic given the generator state.  Universes beyond the sieve
    cap fall back to an nth-prime lookup of a uniformly drawn index.
    """
    r = universe_size(delta, max_len, epsilon)
    if r > UNIVERSE_R_CAP:
        raise UniverseSizeError(f"universe of {r} primes exceeds cap {UNIVERSE_R_CAP}")
    index = int(rng.integers(1, r + 1))
    if r <= SIEVE_R_CAP:
        p = first_r_primes(r)[index - 1]
    else:
        p = nth_prime(index)
    return HashParams(p=p, epsilon=epsilon, delta=delta, r=r, max_len=max_len)


def hash_width(p: int) -> int:
    """Register width ceil(log2 p) in bits, at least 1."""
    if p < 2:
        raise ValueError("modulus must be at least 2")
    return max(1, (p - 1).bit_length())


@dataclass(frozen=True)
class HashValue:
    """A residue mod p together with its fixed register width."""

    residue: int
    width: int

    def __post_init__(self) -> None:
        if not 0 <= self.residue < (1 << self.width):
            raise ValueError("residue does not fit the declared width")

    def bits_lsb_first(self) -> tuple[int, ...]:
        """Exactly `width` bits, least-significant first, as equality oracles read them."""
        return tuple((self.residue >> i) & 1 for i in range(self.width))


def rolling_hash(u: BitString, p: int) -> HashValue:
    """h_p(u), accumulated with modular powers of two (no big integers)."""
    width = hash_width(p)
    acc = 0
    power = 1 % p
    for b in u.bits:
        if b:
            acc = (acc + power) % p
        power = (power << 1) % p
    return HashValue(residue=acc, width=width)


# Residue arithmetic is exact in int64 for every p below this bound: in
# _mulmod each product of a residue and a limb of at most 21 bits, and the
# sum of two such terms, stays below 2^63.  Drawable primes lie below 2^39.
_MULMOD_P_CAP = 1 << 41
_LIMB_BITS = 20
_LIMB_MASK = (1 << _LIMB_BITS) - 1
# Prefix sums add at most this many residues before reducing mod p.
_CUMSUM_BLOCK = 1 << 20


def _mulmod(a: np.ndarray, b: np.ndarray | int, p: int) -> np.ndarray:
    """(a * b) mod p elementwise for residues below _MULMOD_P_CAP.

    b is split into 20-bit limbs, so no intermediate reaches 2^63.
    """
    hi = a * (b >> _LIMB_BITS) % p
    return ((hi << _LIMB_BITS) + a * (b & _LIMB_MASK)) % p


def _power_table(base: int, count: int, p: int) -> np.ndarray:
    """base^j mod p for j in [0, count), by block doubling."""
    out = np.empty(max(1, count), dtype=np.int64)
    out[0] = 1 % p
    filled = 1
    while filled < count:
        step = min(filled, count - filled)
        out[filled : filled + step] = _mulmod(out[:step], pow(base, filled, p), p)
        filled += step
    return out[:count]


def prefix_hashes(u: BitString, p: int) -> np.ndarray:
    """int64 residues of all prefixes; element i is h_p(u[1..i]), element 0 is 0."""
    if not 2 <= p < _MULMOD_P_CAP:
        raise ValueError(f"modulus {p} outside [2, 2^41) for int64 residue arithmetic")
    bits = np.asarray(u.bits, dtype=np.int64)
    terms = bits * _power_table(2, bits.size, p)
    out = np.zeros(bits.size + 1, dtype=np.int64)
    carry = 0
    for start in range(0, bits.size, _CUMSUM_BLOCK):
        block = np.cumsum(terms[start : start + _CUMSUM_BLOCK])
        block += carry
        block %= p
        out[start + 1 : start + 1 + block.size] = block
        carry = int(block[-1])
    return out


def window_hashes(text: BitString, m: int, p: int) -> np.ndarray:
    """int64 residues of every length-m window of `text`, in one linear pass.

    Window i (0-indexed start) satisfies
    h(text[i+1 .. i+m]) = (pref[i+m] - pref[i]) * inv2^i mod p for odd p;
    for p = 2 the hash of any window is simply its first bit.
    """
    n = len(text)
    if not 1 <= m <= n:
        raise ValueError("window length out of range")
    count = n - m + 1
    if p == 2:
        return np.asarray(text.bits[:count], dtype=np.int64)
    pref = prefix_hashes(text, p)
    diffs = (pref[m:] - pref[:count]) % p
    return _mulmod(diffs, _power_table((p + 1) // 2, count, p), p)


def lcp_by_prefix_hashes(u: BitString, v: BitString, p: int) -> tuple[int, int]:
    """Binary search for the longest hash-equal prefix length.

    Returns (lcp_estimate, hash_pair_comparisons).  The comparison count is
    exactly ceil(log2(k+1)) for k = min(|u|, |v|) > 0, and 0 for k = 0.
    """
    k = min(len(u), len(v))
    if k == 0:
        return 0, 0
    hu = prefix_hashes(u, p)
    hv = prefix_hashes(v, p)
    lo, hi = 0, k
    comparisons = math.ceil(math.log2(k + 1))
    for _ in range(comparisons):
        # re-test the endpoint once the bracket closes, keeping the
        # comparison count a function of k alone
        mid = (lo + hi + 1) // 2 if lo < hi else lo
        if hu[mid] == hv[mid]:
            lo = max(lo, mid)
        else:
            hi = mid - 1
    return lo, comparisons


def compare_by_hash_bsearch_classical(
    u: BitString, v: BitString, params: HashParams
) -> int:
    """Lexicographic verdict from prefix-hash binary search.

    Agrees with compare_classical with probability at least 1 - epsilon
    for correctly sized params; equal strings are always reported equal.
    """
    bound = math.ceil(math.log2(min(len(u), len(v)))) + 1 if min(len(u), len(v)) else 0
    if params.delta < bound:
        raise ValueError("params sized for fewer comparisons than the search performs")
    x, _ = lcp_by_prefix_hashes(u, v, params.p)
    t = x + 1
    if t <= len(u) and t <= len(v):
        return -1 if u.bits[x] < v.bits[x] else 1
    if len(u) == len(v):
        return 0
    return -1 if len(u) < len(v) else 1


def monte_carlo_collision_rate(
    rng: np.random.Generator,
    pairs: int,
    max_len: int,
    epsilon: float,
    delta: int = 1,
) -> float:
    """Empirical rate of h_p(u) = h_p(v) over random unequal pairs, fresh p each."""
    collisions = 0
    for _ in range(pairs):
        lu = int(rng.integers(1, max_len + 1))
        lv = int(rng.integers(1, max_len + 1))
        u = BitString.from_bits(rng.integers(0, 2, lu))
        v = BitString.from_bits(rng.integers(0, 2, lv))
        if compare_classical(u, v) == 0:
            continue
        params = choose_prime(rng, delta=delta, max_len=max(lu, lv), epsilon=epsilon)
        if rolling_hash(u, params.p).residue == rolling_hash(v, params.p).residue:
            collisions += 1
    return collisions / pairs
