import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from qstrings import fingerprint as fp
from qstrings.strings_core import BitString, compare_classical

bits = st.lists(st.integers(0, 1), max_size=16).map(BitString.from_bits)
small_primes = st.sampled_from([2, 3, 5, 7, 11, 13, 31, 127])
# Just above 2^31.5, where a plain int64 product of two residues overflows,
# and the largest prime any draw can return (below the nth-prime cap's bound).
WIDE_PRIMES = (
    int(sympy.nextprime(3_037_000_500)),
    int(sympy.prevprime(fp._sieve_upper_bound(fp.UNIVERSE_R_CAP))),
)
any_prime = st.sampled_from([2, 3, 5, 7, 11, 13, 31, 127, *WIDE_PRIMES])


def test_first_r_primes_examples():
    assert fp.first_r_primes(5) == (2, 3, 5, 7, 11)
    assert fp.first_r_primes(1) == (2,)
    assert fp.first_r_primes(25)[-1] == 97


def test_first_r_primes_cap():
    with pytest.raises(fp.UniverseSizeError):
        fp.first_r_primes(10, cap=5)


def test_nth_prime_matches_sieve():
    primes = fp.first_r_primes(100)
    for i in (1, 2, 10, 57, 100):
        assert fp.nth_prime(i) == primes[i - 1]


def test_universe_size_examples():
    assert fp.universe_size(1, 4, 0.5) == 8
    assert fp.universe_size(13, 4, 0.5) == 104


def test_choose_prime_lands_in_universe():
    params = fp.choose_prime(np.random.default_rng(0), delta=1, max_len=4, epsilon=0.5)
    assert params.r == 8
    assert params.p in fp.first_r_primes(8)


def test_choose_prime_deterministic():
    a = fp.choose_prime(np.random.default_rng(42), 13, 4, 0.5)
    b = fp.choose_prime(np.random.default_rng(42), 13, 4, 0.5)
    assert a == b and a.r == 104


def test_choose_prime_beyond_sieve_cap_uses_nth_prime(monkeypatch):
    monkeypatch.setattr(fp, "SIEVE_R_CAP", 50)
    params = fp.choose_prime(np.random.default_rng(3), delta=10, max_len=10, epsilon=0.5)
    assert params.r == 200
    assert params.p in fp.first_r_primes(200)


def test_hash_width():
    assert fp.hash_width(2) == 1
    assert fp.hash_width(5) == 3
    assert fp.hash_width(11) == 4
    assert [fp.hash_width(p) for p in (3, 7, 13)] == [2, 3, 4]


def test_rolling_hash_examples():
    assert fp.rolling_hash(BitString.from_text("110"), 5).residue == 3
    assert fp.rolling_hash(BitString.from_bits([]), 7).residue == 0
    # 1+2+4 = 7 collides with the all-zero string mod 7
    assert fp.rolling_hash(BitString.from_text("111"), 7).residue == 0
    assert fp.rolling_hash(BitString.from_text("000"), 7).residue == 0


def test_hash_value_bits_lsb_first():
    hv = fp.HashValue(residue=3, width=3)
    assert hv.bits_lsb_first() == (1, 1, 0)
    with pytest.raises(ValueError):
        fp.HashValue(residue=8, width=3)


def test_prefix_hashes_examples():
    out = fp.prefix_hashes(BitString.from_text("101"), 3)
    assert out.dtype == np.int64
    assert out.tolist() == [0, 1, 1, 2]
    assert fp.prefix_hashes(BitString.from_text("00"), 5).tolist() == [0, 0, 0]
    assert fp.prefix_hashes(BitString.from_bits([]), 7).tolist() == [0]


@given(st.integers(0, 160), st.integers(0, 2**32 - 1), any_prime)
def test_prefix_hashes_match_rolling(n, seed, p):
    u = BitString.from_bits(np.random.default_rng(seed).integers(0, 2, n))
    out = fp.prefix_hashes(u, p)
    assert out.dtype == np.int64
    assert len(out) == len(u) + 1
    for i in range(len(u) + 1):
        assert int(out[i]) == fp.rolling_hash(u.substring(1, i), p).residue


@given(bits, bits, small_primes)
def test_equal_strings_always_hash_equal(u, v, p):
    if u.bits == v.bits:
        assert fp.rolling_hash(u, p).residue == fp.rolling_hash(v, p).residue


@settings(max_examples=80)
@given(st.integers(1, 120), st.integers(1, 60), any_prime)
def test_window_hashes_match_direct(n, m, p):
    rng = np.random.default_rng(n * 31 + m)
    text = BitString.from_bits(rng.integers(0, 2, n))
    m = min(m, n)
    hashes = fp.window_hashes(text, m, p)
    assert hashes.dtype == np.int64
    assert len(hashes) == n - m + 1
    for i in range(n - m + 1):
        assert int(hashes[i]) == fp.rolling_hash(text.substring(i + 1, i + m), p).residue


@pytest.mark.parametrize("p", WIDE_PRIMES)
def test_array_hashes_exact_across_sum_blocks(monkeypatch, p):
    # Shrink the prefix-sum block so the carry between blocks is exercised.
    monkeypatch.setattr(fp, "_CUMSUM_BLOCK", 3)
    text = BitString.from_bits(np.random.default_rng(p % 1000).integers(0, 2, 90))
    prefixes = fp.prefix_hashes(text, p)
    for i in range(len(text) + 1):
        assert int(prefixes[i]) == fp.rolling_hash(text.substring(1, i), p).residue
    windows = fp.window_hashes(text, 50, p)
    for i in range(len(windows)):
        assert int(windows[i]) == fp.rolling_hash(text.substring(i + 1, i + 50), p).residue


def test_array_hashes_reject_modulus_beyond_int64_bound():
    with pytest.raises(ValueError):
        fp.prefix_hashes(BitString.from_text("1"), int(sympy.nextprime(2**41)))


def test_collision_rate_bounded():
    rng = np.random.default_rng(11)
    rate = fp.monte_carlo_collision_rate(rng, pairs=1000, max_len=16, epsilon=0.25)
    assert rate <= 0.25


def test_collision_rate_scales_with_delta():
    # sizing for delta planned comparisons bounds each one by epsilon/delta
    rng = np.random.default_rng(12)
    rate = fp.monte_carlo_collision_rate(rng, pairs=1000, max_len=16, epsilon=0.25, delta=4)
    assert rate <= 0.25 / 4


def test_lcp_bsearch_comparison_count():
    rng = np.random.default_rng(5)
    for _ in range(200):
        k = int(rng.integers(1, 33))
        u = BitString.from_bits(rng.integers(0, 2, k))
        v = BitString.from_bits(rng.integers(0, 2, k))
        _, comparisons = fp.lcp_by_prefix_hashes(u, v, 101)
        assert comparisons == math.ceil(math.log2(k + 1))
        assert comparisons <= math.ceil(math.log2(k)) + 1 if k > 1 else comparisons <= 1


def _sized_params(u, v, epsilon, rng):
    k = max(len(u), len(v), 1)
    delta = max(1, math.ceil(math.log2(max(2, min(len(u), len(v))))) + 1)
    return fp.choose_prime(rng, delta=delta, max_len=k, epsilon=epsilon)


def test_compare_bsearch_classical_example():
    rng = np.random.default_rng(0)
    u, v = BitString.from_text("011"), BitString.from_text("010")
    params = _sized_params(u, v, 0.25, rng)
    assert fp.compare_by_hash_bsearch_classical(u, v, params) == 1


def test_compare_bsearch_classical_equal_strings_exact():
    rng = np.random.default_rng(1)
    for _ in range(100):
        k = int(rng.integers(1, 17))
        u = BitString.from_bits(rng.integers(0, 2, k))
        params = _sized_params(u, u, 0.25, rng)
        assert fp.compare_by_hash_bsearch_classical(u, u, params) == 0


def test_compare_bsearch_classical_monte_carlo():
    rng = np.random.default_rng(9)
    errors = 0
    total = 0
    for _ in range(1000):
        lu, lv = int(rng.integers(1, 17)), int(rng.integers(1, 17))
        u = BitString.from_bits(rng.integers(0, 2, lu))
        v = BitString.from_bits(rng.integers(0, 2, lv))
        if compare_classical(u, v) == 0:
            continue
        total += 1
        params = _sized_params(u, v, 0.25, rng)
        if fp.compare_by_hash_bsearch_classical(u, v, params) != compare_classical(u, v):
            errors += 1
    assert errors / total <= 0.25


def test_undersized_delta_rejected():
    u = BitString.from_bits([0, 1] * 16)
    params = fp.HashParams(p=3, epsilon=0.5, delta=1, max_len=32, r=64)
    with pytest.raises(ValueError):
        fp.compare_by_hash_bsearch_classical(u, u, params)


def test_hash_params_validation():
    with pytest.raises(ValueError):
        fp.HashParams(p=4, epsilon=0.5, delta=1, max_len=4, r=8)  # not prime
    with pytest.raises(ValueError):
        fp.HashParams(p=101, epsilon=0.5, delta=1, max_len=4, r=8)  # outside universe
    with pytest.raises(ValueError):
        fp.HashParams(p=5, epsilon=0.5, delta=10, max_len=10, r=8)  # r too small
    with pytest.raises(ValueError):
        fp.universe_size(1, 4, 1.5)
