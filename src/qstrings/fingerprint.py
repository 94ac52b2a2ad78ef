"""Rolling-hash fingerprinting over binary strings.

A string u hashes to h_p(u) = (sum_i u_i * 2^(i-1)) mod p for a prime p
drawn uniformly from the first r primes, with r sized as
ceil(delta * max_len / epsilon) so that a run performing up to `delta`
hash comparisons on strings up to `max_len` bits keeps its total
false-equality probability at most epsilon.  Equal strings always hash
equal; only the converse is probabilistic.  A hash is an int residue,
of register width `hash_width(p)`.  `window_hashes` reads every window
of up to 57 bits from one 64-bit word of the bit-packed text, and takes
longer windows by prefix differences.

The draw is the Karp-Rabin one: uniform integers in [2, p_r] until
`is_prime`, a deterministic Miller-Rabin test, accepts one; the check
`HashParams` makes of that p reuses the test's kept answer.  Only p_r,
the r-th prime, is computed (once per universe, by `top_prime`, from an
exact prime count at Cipolla's estimate of it: one Lucy_Hedgehog loop
over the primes up to its square root, then a sieve window to p_r);
`first_r_primes` is the exact list it is tested against.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .strings_core import BitString

# Largest universe top_prime counts, so a draw accepts; p_r then lies below 2^39.
UNIVERSE_R_CAP = 2**34

_SMALL_PRIMES = (2, 3, 5, 7, 11)
# is_prime's trial divisors, and its Miller-Rabin bases from _FEW_BASES_BOUND on.
_TRIAL_PRIMES = (2, 3, 5, 7, 11, 13, 17)
# psi_7: the least strong pseudoprime to all seven bases of _TRIAL_PRIMES.
_MR_BOUND = 341_550_071_728_321
# Miller-Rabin bases below _FEW_BASES_BOUND, the least strong pseudoprime
# to all three (48,781 * 97,561).
_FEW_BASES = (2, 7, 61)
_FEW_BASES_BOUND = 4_759_123_141


def universe_size(delta: int, max_len: int, epsilon: float) -> int:
    """Number of candidate primes for `delta` comparisons at error budget epsilon."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    if delta < 1 or max_len < 1:
        raise ValueError("delta and max_len must be positive")
    try:
        return math.ceil(delta * max_len / epsilon)
    except OverflowError:
        raise ValueError(
            f"universe of over ~{sys.float_info.max:.1e} primes exceeds cap {UNIVERSE_R_CAP}"
        ) from None


def _sieve_upper_bound(r: int) -> int:
    # p_r < r(ln r + ln ln r) for r >= 6; small r handled by lookup.
    if r < 6:
        return _SMALL_PRIMES[r - 1] + 1
    x = math.log(r)
    return int(r * (x + math.log(x))) + 1


def top_prime_bounds(r: int) -> tuple[int, int]:
    """(low, high) with low <= p_r <= high, for 6 <= r <= UNIVERSE_R_CAP.

    Dusart (1999): p_r >= r(ln r + ln ln r - 1) for r >= 2; and p_r below
    `_sieve_upper_bound`.  Each end moves one further out: at these r the
    float forms lie within 1e-3 of the real ones, a few roundings of
    numbers below 2^39.
    """
    x = math.log(r)
    return int(r * (x + math.log(x) - 1)) - 1, _sieve_upper_bound(r) + 1


def _sieve_segment(lo: int, hi: int) -> np.ndarray:
    """int64 array of the primes in [lo, hi), in increasing order."""
    lo = max(lo, 2)
    if hi <= lo:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(hi - lo, dtype=bool)
    for q in _sieve_segment(2, math.isqrt(hi - 1) + 1).tolist():
        start = max(q * q, -(-lo // q) * q)
        flags[start - lo :: q] = False
    return np.flatnonzero(flags).astype(np.int64) + lo


@lru_cache(maxsize=8)
def first_r_primes(r: int) -> np.ndarray:
    """The first r primes, in increasing order, as a read-only int64 array."""
    if r < 1:
        raise ValueError("r must be positive")
    primes = _sieve_segment(2, _sieve_upper_bound(r))[:r]
    primes.flags.writeable = False
    return primes


def prime_pi(x: int) -> int:
    """Number of primes <= x, by Lucy_Hedgehog's method in int64 numpy.

    S(v) starts as the count of 2..v and, after sieving by every prime up
    to sqrt(v), equals pi(v).  Sieving by p lowers S(v) for v >= p^2 by
    S(v // p) - S(p - 1).  Only the values x // i are ever needed: `small`
    holds S(v) for v <= sqrt(x) and `large[i]` holds S(x // i).  One loop
    sieves by each prime p <= sqrt(x) in turn, updating `large` by two
    slices and, while p^2 <= sqrt(x), `small` by one.
    """
    if x < 2:
        return 0
    r = math.isqrt(x)
    quot = np.zeros(r + 1, dtype=np.int64)
    quot[1:] = x // np.arange(1, r + 1, dtype=np.int64)
    large = quot - 1
    small = np.arange(r + 1, dtype=np.int64) - 1
    for p in _sieve_segment(2, r + 1).tolist():
        sp = int(small[p - 1])
        top = min(r, x // (p * p))
        mid = min(top, r // p)
        # S(x // (i p)) is large[i p] while i p <= r, else small[(x // i) // p]
        large[1 : mid + 1] -= large[p : mid * p + 1 : p] - sp
        large[mid + 1 : top + 1] -= small[quot[mid + 1 : top + 1] // p] - sp
        if p * p <= r:
            small[p * p :] -= np.repeat(small[p : r // p + 1], p)[: r + 1 - p * p] - sp
    return int(large[1])


def is_prime(n: int) -> bool:
    """Whether n is prime, exactly, for every n below psi_7 = 341,550,071,728,321.

    Trial division by the primes up to 17, then strong-probable-prime tests
    to the bases 2, 7 and 61 below 4,759,123,141 and to the seven primes up
    to 17 from there on.  Each bound is the least strong pseudoprime to its
    bases (Jaeschke, "On strong pseudoprimes to several bases", 1993), so
    no composite below it passes them; n >= psi_7 is refused.  Every
    drawable p lies below 2^39.
    """
    n = operator.index(n)  # numpy ints too; a float is a TypeError
    if n >= _MR_BOUND:
        raise ValueError(f"primality test is exact only below {_MR_BOUND}, got {n}")
    if n < 2:
        return False
    for q in _TRIAL_PRIMES:
        if n % q == 0:
            return n == q
    if n < 19 * 19:  # no prime factor up to 17, so none up to its square root
        return True
    return _strong_probable_prime(n)


@lru_cache(maxsize=1)
def _strong_probable_prime(n: int) -> bool:
    """The Miller-Rabin half of is_prime, for 19^2 <= n < psi_7 with no
    prime factor up to 17.  The last answer is kept: `choose_prime`'s last
    candidate is the p that `HashParams` then checks."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _FEW_BASES if n < _FEW_BASES_BOUND else _TRIAL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_estimate(i: int) -> int:
    """x near the i-th prime, by Cipolla's expansion (1902); it only places
    the sieve window, so no prime depends on its accuracy."""
    log_i = math.log(max(i, 2))
    log_log = math.log(log_i)
    x = i * (
        log_i + log_log - 1 + (log_log - 2) / log_i
        - (log_log**2 - 6 * log_log + 11) / (2 * log_i**2)
    )
    return int(max(2.0, x))


def nth_prime(i: int) -> int:
    """The i-th prime (1-indexed), exactly.

    Counts pi(x) at an estimate x of the i-th prime, then sieves windows
    forward or backward from x until the i-th prime is reached.
    """
    if i < 1:
        raise ValueError("prime index must be positive")
    x = _prime_estimate(i)
    count = prime_pi(x)  # primes <= x
    while True:
        gap = abs(i - count)
        width = int((gap + 2 * math.isqrt(gap) + 16) * math.log(x + 2))
        if count >= i:
            lo = max(0, x + 1 - width)
            found = _sieve_segment(lo, x + 1)
            need = count - i + 1
            if found.size >= need:
                return int(found[found.size - need])
            count -= found.size
            x = lo - 1
        else:
            found = _sieve_segment(x + 1, x + 1 + width)
            need = i - count
            if found.size >= need:
                return int(found[need - 1])
            count += found.size
            x += width


@lru_cache(maxsize=64)
def top_prime(r: int) -> int:
    """p_r, the largest prime of a universe of r; one nth_prime count per universe.

    Refuses r above UNIVERSE_R_CAP before counting anything.
    """
    if r > UNIVERSE_R_CAP:
        raise ValueError(f"universe of ~{r:.1e} primes exceeds cap {UNIVERSE_R_CAP}")
    return nth_prime(r)


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
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.p > top_prime(self.r):
            raise ValueError(f"{self.p} lies beyond the first {self.r} primes")

    @property
    def width(self) -> int:
        """Bits needed for a residue register, ceil(log2 p)."""
        return hash_width(self.p)


def choose_prime(
    rng: np.random.Generator, delta: int, max_len: int, epsilon: float
) -> HashParams:
    """Draw p uniformly from the first r = ceil(delta*max_len/epsilon) primes.

    Uniform integers in [2, p_r] are drawn until one is prime; every prime
    up to p_r is equally likely to be the first accepted.  A draw takes
    about ln p_r candidates.  Deterministic given the generator state.
    """
    r = universe_size(delta, max_len, epsilon)
    top = top_prime(r)
    while True:
        p = int(rng.integers(2, top + 1))
        if is_prime(p):
            return HashParams(p=p, epsilon=epsilon, delta=delta, r=r, max_len=max_len)


def hash_width(p: int) -> int:
    """Register width ceil(log2 p) in bits, at least 1."""
    if p < 2:
        raise ValueError("modulus must be at least 2")
    return max(1, (p - 1).bit_length())


def rolling_hash(u: BitString, p: int) -> int:
    """h_p(u), the int residue of u's little-endian integer value."""
    return u.to_int() % p


def segment_hash(value: int, start: int, stop: int, p: int) -> int:
    """h_p(u[start+1..stop]) from value = u.to_int(): bits start..stop-1
    (0-based), shifted down, mod p.  With start = 0 it is the prefix hash
    h_p(u[1..stop]); prefix hashes splice as
    h_p(u[1..stop]) = h_p(u[1..start]) + 2^start * segment_hash(...) mod p."""
    return ((value >> start) & ((1 << (stop - start)) - 1)) % p


# Residue arithmetic is exact in int64 for every p below this bound: in
# _mulmod each product of a residue and a limb of at most 21 bits, and the
# sum of two such terms, stays below 2^63.  Drawable primes lie below 2^39.
_MULMOD_P_CAP = 1 << 41
_LIMB_BITS = 20
_LIMB_MASK = (1 << _LIMB_BITS) - 1
# Prefix sums add at most this many residues before reducing mod p.
_CUMSUM_BLOCK = 1 << 20
# Longest window whose exact value window_hashes reads from one 64-bit
# word: a window starts up to 7 bits into its word's first byte.
_EXACT_WINDOW_BITS = 57


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
    bits = u.array
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


def _exact_windows(bits: np.ndarray, m: int, out: np.ndarray) -> None:
    """Write into the C-contiguous `out` the exact values
    sum_j bits[i+j] * 2^j of every length-m window, m <= 57.

    The bits are packed once, little-endian, with seven zero bytes after
    them.  Window i then lies in the little-endian 64-bit word at byte
    i // 8, shifted up by i % 8, and i % 8 + m <= 64.  The words are one
    overlapping view of the packed bytes at a stride of one byte; each
    is shifted down straight into the eight windows starting in its
    byte, and one mask keeps their low m bits.
    """
    rows, tail = divmod(out.size, 8)
    packed = np.concatenate((np.packbits(bits, bitorder="little"), np.zeros(7, np.uint8)))
    words = np.ndarray((rows + (tail > 0),), dtype="<u8", buffer=packed, strides=(1,))
    flat = out.view(np.uint64)
    shifts = np.arange(8, dtype=np.uint64)
    np.right_shift(words[:rows, None], shifts, out=flat[: 8 * rows].reshape(rows, 8))
    np.right_shift(words[rows:], shifts[:tail], out=flat[8 * rows :])
    flat &= np.uint64((1 << m) - 1)


def window_hashes(
    text: BitString, m: int, p: int, out: np.ndarray | None = None
) -> np.ndarray:
    """int64 residues of every length-m window of `text`, in one linear pass.

    The residues are written into `out` when it is given (a C-contiguous
    int64 array of one element per window) and into a new array
    otherwise; the array written is returned.  For m <= _EXACT_WINDOW_BITS
    (57) each window's exact value sum_j text[i+1+j] * 2^j lies in one
    64-bit word of the packed text, so it is read from there straight
    into `out` and reduced by one `% p`, which is skipped when p >= 2^m
    since every such value is below 2^m; no prefix table, power table or
    modular inverse is needed.  Longer windows take prefix differences,
    exact at every m: window i (0-indexed start) satisfies
    h(text[i+1 .. i+m]) = (pref[i+m] - pref[i]) * inv2^i mod p for odd
    p, and for p = 2 the hash of any window is simply its first bit.
    """
    n = len(text)
    if not 1 <= m <= n:
        raise ValueError("window length out of range")
    if not 2 <= p < _MULMOD_P_CAP:
        raise ValueError(f"modulus {p} outside [2, 2^41) for int64 residue arithmetic")
    count = n - m + 1
    if out is None:
        out = np.empty(count, dtype=np.int64)
    elif out.shape != (count,) or out.dtype != np.int64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a contiguous int64 array of {count} windows")
    if m <= _EXACT_WINDOW_BITS:
        _exact_windows(text.array, m, out)
        if p < 1 << m:
            out %= p
        return out
    if p == 2:
        out[:] = text.array[:count]
        return out
    pref = prefix_hashes(text, p)
    diffs = (pref[m:] - pref[:count]) % p
    out[:] = _mulmod(diffs, _power_table((p + 1) // 2, count, p), p)
    return out
