import collections
import functools
import math

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from qstrings import fingerprint as fp
from qstrings.strings_core import BitString, compare_classical
from support import (
    compare_by_hash_bsearch_classical,
    lcp_by_prefix_hashes,
    monte_carlo_collision_rate,
    rolling_hash_reference,
)

bits = st.lists(st.integers(0, 1), max_size=16).map(BitString.from_bits)
small_primes = st.sampled_from([2, 3, 5, 7, 11, 13, 31, 127])
# Just above 2^31.5, where a plain int64 product of two residues overflows,
# and the largest prime any draw can return (below p_r's bound at the universe cap).
WIDE_PRIMES = (
    int(sympy.nextprime(3_037_000_500)),
    int(sympy.prevprime(fp._sieve_upper_bound(fp.UNIVERSE_R_CAP))),
)
any_prime = st.sampled_from([2, 3, 5, 7, 11, 13, 31, 127, *WIDE_PRIMES])


def test_first_r_primes_examples():
    assert fp.first_r_primes(5).tolist() == [2, 3, 5, 7, 11]
    assert fp.first_r_primes(1).tolist() == [2]
    assert fp.first_r_primes(25)[-1] == 97


def test_first_r_primes_cached_array_is_read_only():
    primes = fp.first_r_primes(30)
    assert primes.dtype == np.int64 and primes.size == 30
    with pytest.raises(ValueError):
        primes[0] = 4


def test_nth_prime_matches_sieve():
    primes = fp.first_r_primes(100)
    for i in (1, 2, 10, 57, 100):
        assert fp.nth_prime(i) == primes[i - 1]


PLAIN_LIMIT = 10**6


@functools.cache
def _plain_sieve() -> np.ndarray:
    """Primality flags of 0..PLAIN_LIMIT from a textbook Eratosthenes sieve."""
    flags = np.ones(PLAIN_LIMIT + 1, dtype=bool)
    flags[:2] = False
    for q in range(2, math.isqrt(PLAIN_LIMIT) + 1):
        if flags[q]:
            flags[q * q :: q] = False
    return flags


def test_prime_pi_edge_cases():
    pi = np.cumsum(_plain_sieve())
    cubes = [q**3 + d for q in range(2, 100) for d in (-1, 0, 1)]
    squares = [q * q for q in fp.first_r_primes(168).tolist()]  # primes below 1000
    for x in [0, 1, 2, 3, 4, 7, 8, 9, 97, 7919, 999_983, *cubes, *squares]:
        assert fp.prime_pi(x) == int(pi[x]), x
    assert fp.prime_pi(-5) == 0


@settings(max_examples=150)
@given(st.integers(0, PLAIN_LIMIT))
def test_prime_pi_matches_plain_sieve(x):
    assert fp.prime_pi(x) == int(np.count_nonzero(_plain_sieve()[: x + 1]))


def test_prime_pi_known_values():
    assert fp.prime_pi(10**9) == 50_847_534
    assert fp.prime_pi(10**10) == 455_052_511
    assert fp.prime_pi(10**11) == 4_118_054_813


@given(st.integers(-3, PLAIN_LIMIT), st.integers(0, 5000))
def test_sieve_segment_matches_plain_sieve(lo, width):
    hi = min(lo + width, PLAIN_LIMIT + 1)
    got = fp._sieve_segment(lo, hi)
    assert got.dtype == np.int64
    want = np.flatnonzero(_plain_sieve()[max(lo, 0) : max(hi, 0)]) + max(lo, 0)
    assert got.tolist() == want.tolist()


# The 5,000-wide windows nth_prime sieves near p_r for compare_bsearch's
# universe and for the largest one UNIVERSE_R_CAP allows.
@pytest.mark.parametrize("lo", [3_510_830_000, 442_795_480_000])
def test_sieve_segment_at_the_windows_the_draws_reach(lo):
    got = fp._sieve_segment(lo, lo + 5000)
    want = [n for n in range(lo, lo + 5000) if fp.is_prime(n)]
    assert got.dtype == np.int64 and got.tolist() == want


@settings(max_examples=60)
@given(st.integers(1, 2 * 10**5))
def test_nth_prime_matches_sympy(i):
    assert fp.nth_prime(i) == int(sympy.prime(i))


@pytest.mark.parametrize(
    "i, p",
    [(10**6, 15_485_863), (10**7, 179_424_673), (10**8, 2_038_074_743),
     (10**9, 22_801_763_489)],
)
def test_nth_prime_pinned_powers_of_ten(i, p):
    assert fp.nth_prime(i) == p


# (i, p_i) at the indices the benchmark's match_long (five ops and the
# warm-up op) and compare_bsearch (eight ops and the warm-up op) drew
# when a draw was an nth-prime lookup; a draw now tests uniform
# candidates with is_prime, and they stay as nth_prime checks at those sizes.
BENCHMARK_DRAWS = [
    (4_960_608, 85_309_591), (5_438_643, 94_063_451), (6_743_534, 118_172_231),
    (4_678_804, 80_171_717), (6_326_399, 110_429_681), (4_653_879, 79_716_979),
    (79_387_890, 1_598_646_209), (87_038_202, 1_761_155_729), (107_921_238, 2_208_202_631),
    (74_877_992, 1_503_205_021), (101_245_554, 2_064_785_351), (138_505_450, 2_870_399_611),
    (121_494_003, 2_501_097_383), (130_499_647, 2_696_298_433), (74_479_109, 1_494_773_191),
]


def test_nth_prime_benchmark_draws():
    for i, p in BENCHMARK_DRAWS:
        assert fp.nth_prime(i) == p, i


@pytest.mark.parametrize(
    "i, estimate",
    [
        (1, 2),  # the estimate is the prime itself: one step back
        (500, 3571),  # p(500): one step back
        (500, 3572),
        (500, 10_000),  # far above: back over many primes
        (500, 3570),  # just below: one step forward
        (500, 0),  # far below, and ln(x) undersizes the window: several windows
        (1000, 1),
        (10**5, 2_000_000),
        (10**5, 1_000_000),
    ],
)
def test_nth_prime_walk_from_any_estimate(monkeypatch, i, estimate):
    # the estimate only places the sieve window; it never decides the answer
    monkeypatch.setattr(fp, "_prime_estimate", lambda _i: estimate)
    assert fp.nth_prime(i) == int(sympy.prime(i))


def test_nth_prime_rejects_nonpositive_index():
    with pytest.raises(ValueError):
        fp.nth_prime(0)


def test_is_prime_matches_sympy_below_2e5():
    assert [n for n in range(2 * 10**5) if fp.is_prime(n)] == list(sympy.primerange(2 * 10**5))


def test_is_prime_matches_sympy_on_a_sample_below_the_mulmod_cap():
    sample = np.random.default_rng(17).integers(2, fp._MULMOD_P_CAP, 20_000).tolist()
    # a plain sample is mostly even or small-factor composites: add primes
    sample += [int(sympy.nextprime(n)) for n in sample[:500]]
    assert [fp.is_prime(n) for n in sample] == [sympy.isprime(n) for n in sample]


# The least strong pseudoprimes to the bases 2; 2, 3; 2, 3, 5; 2, 3, 5, 7;
# 2, 7, 61; the primes up to 11; the primes up to 13.
STRONG_PSEUDOPRIMES = (
    2047, 1_373_653, 25_326_001, 3_215_031_751, 4_759_123_141,
    2_152_302_898_747, 3_474_749_660_383,
)


@pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES)
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not sympy.isprime(n)
    assert not fp.is_prime(n)


def _is_strong_probable_prime(n, a):
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    return x in (1, n - 1) or any(pow(x, 2**j, n) == n - 1 for j in range(1, s))


def test_is_prime_refuses_the_least_strong_pseudoprime_to_2_7_61():
    # below this bound the bases 2, 7 and 61 decide; at it they all pass
    n = fp._FEW_BASES_BOUND
    assert n == 4_759_123_141 == 48_781 * 97_561
    assert all(_is_strong_probable_prime(n, a) for a in (2, 7, 61))
    assert not _is_strong_probable_prime(n, 3)
    assert not fp.is_prime(n)


def test_is_prime_matches_sympy_across_the_three_base_bound():
    bound = fp._FEW_BASES_BOUND
    sample = np.random.default_rng(61).integers(bound - 10**7, bound + 10**7, 20_000).tolist()
    sample += [int(sympy.nextprime(n)) for n in sample[:500]]
    assert min(sample) < bound < max(sample)
    assert [fp.is_prime(n) for n in sample] == [sympy.isprime(n) for n in sample]


def test_choose_prime_tests_the_accepted_prime_once(monkeypatch):
    powers = collections.Counter()  # modular powers by modulus

    def counting_pow(base, exp, mod):
        powers[mod] += 1
        return pow(base, exp, mod)

    monkeypatch.setattr(fp, "pow", counting_pow, raising=False)
    fp._strong_probable_prime.cache_clear()
    # the compare_bsearch universe at k = 4096: p lies below the three-base bound
    params = fp.choose_prime(np.random.default_rng(18), 4096, 4096, 0.1)
    assert sympy.isprime(params.p) and params.p < fp._FEW_BASES_BOUND
    # one strong-probable-prime test per base, once; HashParams reused it
    assert powers[params.p] == len(fp._FEW_BASES)
    assert fp.is_prime(np.int64(params.p))
    with pytest.raises(TypeError):
        fp.is_prime(float(params.p))


def test_is_prime_refuses_psi_7():
    psi_7 = 341_550_071_728_321  # a strong pseudoprime to every base up to 17
    assert fp.is_prime(psi_7 - 2) == sympy.isprime(psi_7 - 2)
    with pytest.raises(ValueError, match="exact only below"):
        fp.is_prime(psi_7)


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


@pytest.mark.parametrize("r", [1, 2, 6, 50, 1000])
def test_choose_prime_uniform_over_first_r_primes(monkeypatch, r):
    # r is set directly: an epsilon below 1 never sizes a universe of one prime
    monkeypatch.setattr(fp, "universe_size", lambda *_: r)
    rng = np.random.default_rng(2024 + r)
    primes = fp.first_r_primes(r)
    draws = np.array([fp.choose_prime(rng, 1, 1, 0.5).p for _ in range(50 * r)])
    assert np.isin(draws, primes).all()
    # chi-square goodness of fit against 50 expected draws per prime
    observed = np.bincount(np.searchsorted(primes, draws), minlength=r)
    stat = float(((observed - 50) ** 2).sum() / 50)
    if r > 1:
        p_value = float(mpmath.gammainc((r - 1) / 2, stat / 2, mpmath.inf, regularized=True))
        assert p_value > 1e-4, (r, stat, p_value)


# (delta, max_len, r) of the universes the benchmark draws from at epsilon
# 0.1: the smallest and largest match_sweep points (n = 64 and 4096,
# m = 8), match_long and compare_bsearch.
BENCHMARK_UNIVERSES = [
    (57, 8, 4_560), (4089, 8, 327_120), (65_521, 16, 10_483_360), (4096, 4096, 167_772_160),
]


@pytest.mark.parametrize("delta, max_len, r", BENCHMARK_UNIVERSES)
def test_choose_prime_benchmark_universes(delta, max_len, r):
    top = fp.top_prime(r)
    assert top == fp.nth_prime(r)
    rng = np.random.default_rng(r)
    for _ in range(50):
        params = fp.choose_prime(rng, delta, max_len, 0.1)
        assert params.r == r and params.p <= top and sympy.isprime(params.p), params


def test_p_r_is_counted_once_per_universe(monkeypatch):
    # choose_prime and HashParams each read p_r; top_prime's cache counts
    # it once per universe, not once per read
    counts = []
    nth_prime = fp.nth_prime
    monkeypatch.setattr(fp, "nth_prime", lambda i: counts.append(i) or nth_prime(i))
    fp.top_prime.cache_clear()
    rng = np.random.default_rng(37)
    draws = [fp.choose_prime(rng, 999, 10, 0.1) for _ in range(25)]
    assert {params.r for params in draws} == {99_900}
    assert counts == [99_900]


def test_hash_width():
    assert fp.hash_width(2) == 1
    assert fp.hash_width(5) == 3
    assert fp.hash_width(11) == 4
    assert [fp.hash_width(p) for p in (3, 7, 13)] == [2, 3, 4]


def test_rolling_hash_examples():
    assert fp.rolling_hash(BitString.from_text("110"), 5) == 3
    assert fp.rolling_hash(BitString.from_bits([]), 7) == 0
    # 1+2+4 = 7 collides with the all-zero string mod 7
    assert fp.rolling_hash(BitString.from_text("111"), 7) == 0
    assert fp.rolling_hash(BitString.from_text("000"), 7) == 0


@given(st.integers(0, 160), st.integers(0, 2**32 - 1), any_prime)
def test_rolling_hash_matches_reference(n, seed, p):
    u = BitString.from_bits(np.random.default_rng(seed).integers(0, 2, n))
    h = fp.rolling_hash(u, p)
    assert h == rolling_hash_reference(u, p) and h < 1 << fp.hash_width(p)


# Any modulus up to 2^39 - 1; every drawable prime lies below 2^39.
moduli = st.one_of(any_prime, st.integers(2, 2**39 - 1))


@given(st.integers(0, 160), st.integers(0, 2**32 - 1), moduli)
@example(0, 0, 2**39 - 1)  # the empty string
@example(160, 7, int(sympy.prevprime(2**39)))
@example(160, 11, 2)
def test_prefix_hash_matches_the_prefix_table(n, seed, p):
    u = BitString.from_bits(np.random.default_rng(seed).integers(0, 2, n))
    value = u.to_int()
    table = fp.prefix_hashes(u, p)
    assert [fp.segment_hash(value, 0, i, p) for i in range(n + 1)] == table.tolist()


@given(st.integers(0, 48), st.integers(0, 2**32 - 1), moduli)
@example(0, 0, 2)  # the empty string
@example(48, 3, 2)
@example(48, 5, int(sympy.prevprime(2**39)))
def test_segment_hashes_splice_into_prefix_hashes(n, seed, p):
    u = BitString.from_bits(np.random.default_rng(seed).integers(0, 2, n))
    value = u.to_int()
    table = fp.prefix_hashes(u, p).tolist()
    for start in range(n + 1):
        scale = pow(2, start, p)
        for stop in range(start, n + 1):
            segment = fp.segment_hash(value, start, stop, p)
            assert segment == rolling_hash_reference(u.substring(start + 1, stop), p)
            assert (table[start] + scale * segment) % p == table[stop], (start, stop)


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
        assert int(out[i]) == rolling_hash_reference(u.substring(1, i), p)


@given(bits, bits, small_primes)
def test_equal_strings_always_hash_equal(u, v, p):
    if u.bits == v.bits:
        assert fp.rolling_hash(u, p) == fp.rolling_hash(v, p)


def _assert_windows_match_direct(text, m, p):
    hashes = fp.window_hashes(text, m, p)
    assert hashes.dtype == np.int64
    assert len(hashes) == len(text) - m + 1
    for i in range(len(hashes)):
        assert int(hashes[i]) == rolling_hash_reference(text.substring(i + 1, i + m), p)


# m runs on both sides of the cut between exact window values and
# prefix differences
@settings(max_examples=80)
@given(st.integers(1, 160), st.integers(1, 2 * fp._EXACT_WINDOW_BITS), any_prime)
def test_window_hashes_match_direct(n, m, p):
    rng = np.random.default_rng(n * 31 + m)
    text = BitString.from_bits(rng.integers(0, 2, n))
    _assert_windows_match_direct(text, min(m, n), p)


@pytest.mark.parametrize("p", [2, WIDE_PRIMES[1]])
@pytest.mark.parametrize("m", [1, 56, 57, 58, 61, 62, 63, 64])
def test_window_hashes_at_the_exact_value_cut(m, p):
    assert fp._EXACT_WINDOW_BITS == 57
    rng = np.random.default_rng(m)
    for text in (BitString.from_bits([1] * 100), BitString.from_bits(rng.integers(0, 2, 100))):
        _assert_windows_match_direct(text, m, p)


# Every window count mod 8, so every tail of windows after the last full
# row of eight, with and without `out=`, from counts below eight up; p
# below 2^m takes the `% p` pass, p at or above 2^m skips it.
@settings(max_examples=40)
@given(
    st.integers(0, 20),
    st.integers(1, fp._EXACT_WINDOW_BITS),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@example(rows=0, m=1, wide=False, seed=3)
@example(rows=2, m=57, wide=False, seed=1)
@example(rows=5, m=40, wide=True, seed=2)
def test_window_hashes_at_every_tail_match_reference(rows, m, wide, seed):
    if wide and m <= 40:
        p = int(sympy.nextprime((1 << m) - 1))  # 2 when m = 1
    else:
        p = int(sympy.prevprime(min(1 << m, fp._MULMOD_P_CAP))) if m > 1 else 2
    for tail in range(8):
        count = 8 * rows + tail
        if not count:
            continue
        rng = np.random.default_rng((seed, tail))
        text = BitString.from_bits(rng.integers(0, 2, count + m - 1))
        want = [rolling_hash_reference(text.substring(i + 1, i + m), p) for i in range(count)]
        fresh = fp.window_hashes(text, m, p)
        out = np.full(count, -1, dtype=np.int64)
        written = fp.window_hashes(text, m, p, out=out)
        assert written is out and fresh.dtype == np.int64
        assert fresh.tolist() == want and out.tolist() == want


def test_window_hashes_reject_a_mismatched_out():
    text = BitString.from_text("011010")
    for out in (np.empty(3, dtype=np.int64), np.empty(4, dtype=np.int32)):
        with pytest.raises(ValueError, match="out"):
            fp.window_hashes(text, 3, 5, out=out)


def test_window_hashes_refuse_a_non_contiguous_out():
    # the exact path writes through a (rows, 8) reshape of `out`, which
    # of a strided array would be a copy, the residues lost with it
    text = BitString.from_bits(np.random.default_rng(4).integers(0, 2, 80))
    for m in (3, fp._EXACT_WINDOW_BITS + 3):  # both sides of the cut
        backing = np.zeros(2 * (len(text) - m + 1), dtype=np.int64)
        with pytest.raises(ValueError, match="contiguous"):
            fp.window_hashes(text, m, 5, out=backing[::2])
        assert not backing.any()


@pytest.mark.parametrize("p", WIDE_PRIMES)
def test_array_hashes_exact_across_sum_blocks(monkeypatch, p):
    # Shrink the prefix-sum block so the carry between blocks is exercised;
    # windows longer than the exact-value cut read the prefix table.
    monkeypatch.setattr(fp, "_CUMSUM_BLOCK", 3)
    text = BitString.from_bits(np.random.default_rng(p % 1000).integers(0, 2, 90))
    prefixes = fp.prefix_hashes(text, p)
    for i in range(len(text) + 1):
        assert int(prefixes[i]) == rolling_hash_reference(text.substring(1, i), p)
    m = fp._EXACT_WINDOW_BITS + 8
    windows = fp.window_hashes(text, m, p)
    for i in range(len(windows)):
        assert int(windows[i]) == rolling_hash_reference(text.substring(i + 1, i + m), p)


def test_array_hashes_reject_modulus_beyond_int64_bound():
    too_wide = int(sympy.nextprime(2**41))
    with pytest.raises(ValueError):
        fp.prefix_hashes(BitString.from_text("1"), too_wide)
    text = BitString.from_text("0110")
    for m in (1, 3):  # short windows never build a prefix table
        with pytest.raises(ValueError, match="outside"):
            fp.window_hashes(text, m, too_wide)
        with pytest.raises(ValueError, match="outside"):
            fp.window_hashes(text, m, 1)


def test_collision_rate_bounded():
    rng = np.random.default_rng(11)
    rate = monte_carlo_collision_rate(rng, pairs=1000, max_len=16, epsilon=0.25)
    assert rate <= 0.25


def test_collision_rate_scales_with_delta():
    # sizing for delta planned comparisons bounds each one by epsilon/delta
    rng = np.random.default_rng(12)
    rate = monte_carlo_collision_rate(rng, pairs=1000, max_len=16, epsilon=0.25, delta=4)
    assert rate <= 0.25 / 4


def test_lcp_bsearch_comparison_count():
    rng = np.random.default_rng(5)
    for _ in range(200):
        k = int(rng.integers(1, 33))
        u = BitString.from_bits(rng.integers(0, 2, k))
        v = BitString.from_bits(rng.integers(0, 2, k))
        _, comparisons = lcp_by_prefix_hashes(u, v, 101)
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
    assert compare_by_hash_bsearch_classical(u, v, params) == 1


def test_compare_bsearch_classical_equal_strings_exact():
    rng = np.random.default_rng(1)
    for _ in range(100):
        k = int(rng.integers(1, 17))
        u = BitString.from_bits(rng.integers(0, 2, k))
        params = _sized_params(u, u, 0.25, rng)
        assert compare_by_hash_bsearch_classical(u, u, params) == 0


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
        if compare_by_hash_bsearch_classical(u, v, params) != compare_classical(u, v):
            errors += 1
    assert errors / total <= 0.25


def test_undersized_delta_rejected():
    u = BitString.from_bits([0, 1] * 16)
    params = fp.HashParams(p=3, epsilon=0.5, delta=1, max_len=32)
    with pytest.raises(ValueError):
        compare_by_hash_bsearch_classical(u, u, params)


def test_hash_params_validation():
    with pytest.raises(ValueError):
        fp.HashParams(p=4, epsilon=0.5, delta=1, max_len=4)  # not prime
    with pytest.raises(ValueError, match="not prime"):
        fp.HashParams(p=2047, epsilon=0.5, delta=1, max_len=500)  # 23 * 89; r = 1000
    with pytest.raises(ValueError):
        fp.HashParams(p=101, epsilon=0.5, delta=1, max_len=4)  # outside universe
    with pytest.raises(ValueError, match="beyond the first 10 primes"):
        fp.HashParams(p=31, epsilon=0.5, delta=1, max_len=5)  # the 11th prime
    params = fp.HashParams(p=29, epsilon=0.5, delta=1, max_len=5)  # the 10th
    assert (params.p, params.r) == (29, 10)
    with pytest.raises(ValueError):
        fp.universe_size(1, 4, 1.5)
