"""Helpers only the tests use: a scalar reference hash, a per-query
reference Grover run, a reference structured measurement, a reference
oracle class key, a classical prefix-hash comparator, a collision-rate
Monte Carlo, a multi-occurrence instance generator and either backend's
index marginal."""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate, repeat

import numpy as np

from qstrings.fingerprint import HashParams, choose_prime, prefix_hashes, rolling_hash
from qstrings.grover import GroverOutcome, OracleSpec, amplification, charge_iterations
from qstrings.resources import ResourceLedger
from qstrings import sim
from qstrings.sim import SearchState, StructuredState
from qstrings.strings_core import BitString, MatchInstance, compare_classical, naive_match_all


def index_probabilities(search: SearchState) -> np.ndarray:
    """The index marginal of either backend; a structured state's is amps ** 2."""
    if isinstance(search, StructuredState):
        return search.amps**2
    return search.index_probabilities()


def rolling_hash_reference(u: BitString, p: int) -> int:
    """h_p(u), accumulated bit by bit with modular powers of two (no big integers)."""
    acc = 0
    power = 1 % p
    for b in u.bits:
        if b:
            acc = (acc + power) % p
        power = (power << 1) % p
    return acc


def grover_run_reference(
    search: SearchState,
    oracle: OracleSpec,
    iterations: int,
    rng: np.random.Generator,
    ledger: ResourceLedger | None = None,
    rho: int | None = None,
) -> GroverOutcome:
    """`grover.grover_run` as one query, one phase marking and one
    diffusion per step, each query drawing its own uniforms."""
    ledger = ledger if ledger is not None else ResourceLedger()
    before = ledger.snapshot()
    rho = amplification(oracle.error_prob, iterations) if rho is None else rho
    for _ in range(iterations):
        search.apply_phase_pattern(oracle.query_pattern(rng, rho))
        search.diffuse()
    charge_iterations(ledger, search, oracle, iterations, rho)
    found = search.measure_index(rng)
    ledger.close_phase(f"grover_run[{iterations}]", before)
    return GroverOutcome(
        found_index=found,
        verified=bool(oracle.truth[found]),
        iterations_used=iterations,
    )


def measure_index_reference(state: StructuredState, rng) -> int:
    """`StructuredState.measure_index` as one cdf over every state: the
    special indices (group and exceptions) merged and sorted with their
    amplitudes, each base run's mass before its index, summed in Python
    floats up to `sim.SCALAR_MEASURE_SEGMENTS` segments and in numpy past
    it, then the same collapse onto the outcome."""
    base_prob = state._base * state._base
    segments = 2 * (state._group.size + state._index.size) + 1
    if segments <= sim.SCALAR_MEASURE_SEGMENTS:
        index = state._group.tolist()
        if state._index.size:
            index += state._index.tolist()
            values = [state._group_amp] * state._group.size + state._values.tolist()
            if state._group.size:
                order = sorted(range(len(index)), key=index.__getitem__)
                index = [index[k] for k in order]
                values = [values[k] for k in order]
            probs = [value * value for value in values]
        else:
            probs = repeat(state._group_amp * state._group_amp)
        mass, start = [], 0
        for i, prob in zip(index, probs):
            mass += ((i - start) * base_prob, prob)
            start = i + 1
        mass.append((state.size - start) * base_prob)
        cdf = list(accumulate(mass))
        target = rng.random() * cdf[-1]
        seg = bisect_right(cdf, target)
    else:
        index = state._group
        mass = np.empty(segments)
        if state._index.size:
            index = np.concatenate((index, state._index))
            order = np.argsort(index)
            index = index[order]
            values = np.concatenate((np.full(state._group.size, state._group_amp),
                                     state._values))[order]
            np.multiply(values, values, out=mass[1::2])
        else:
            mass[1::2] = state._group_amp * state._group_amp
        runs = mass[0::2]  # base-run lengths, then their mass, in place
        runs[0] = index[0]
        np.subtract(index[1:], index[:-1], out=runs[1:-1])
        runs[1:-1] -= 1
        runs[-1] = state.size - 1 - index[-1]
        runs *= base_prob
        cdf = np.cumsum(mass)
        target = rng.random() * cdf[-1]
        seg = int(np.searchsorted(cdf, target, side="right"))
    # the pick: u times the total can round up to the total, so it stays
    # on the last segment with mass
    last = len(mass) - 1
    while not mass[last]:
        last -= 1
    seg = min(seg, last)
    run = seg // 2
    if seg % 2:
        outcome = int(index[run])
    else:
        start = int(index[run - 1]) + 1 if run else 0
        end = int(index[run]) if run < len(index) else state.size
        offset = int((target - (cdf[seg - 1] if seg else 0.0)) / base_prob)
        outcome = start + min(offset, end - start - 1)
    state._base = 0.0
    state._group = np.array([outcome], dtype=np.int64)
    state._group_amp = 1.0
    state._index = sim._NO_INDEX
    state._values = sim._NO_VALUES
    return outcome


def oracle_classes_reference(
    truth: np.ndarray, labels: np.ndarray, errors: tuple[float, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """OracleSpec's class fields (_key, _class_keys, _sizes, _class_errors)
    by one n-wide mask: every index keyed by its error's rank among the
    distinct errors, then every target and every zero-error index re-keyed
    to their count."""
    values, rank = np.unique(np.asarray(errors, dtype=float), return_inverse=True)
    rank = rank.astype(np.min_scalar_type(values.size))
    first_positive = int(values[0] == 0)  # a zero error has rank 0
    key = rank.take(labels)
    key[truth | (key < first_positive)] = values.size
    counts = np.bincount(key, minlength=values.size + 1)[:-1]
    used = counts > 0
    return key, np.flatnonzero(used), counts[used], values[used]


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
        if rolling_hash(u, params.p) == rolling_hash(v, params.p):
            collisions += 1
    return collisions / pairs


def random_multi_occurrence(
    n: int, m: int, count: int, rng: np.random.Generator, max_tries: int = 100_000
) -> tuple[MatchInstance, set[int]]:
    """Random instance with exactly `count` occurrences."""
    for _ in range(max_tries):
        text = BitString.from_bits(rng.integers(0, 2, n))
        start = int(rng.integers(1, n - m + 2))
        inst = MatchInstance(text, text.substring(start, start + m - 1))
        occurrences = naive_match_all(inst)
        if len(occurrences) == count:
            return inst, occurrences
    raise RuntimeError(f"no instance with {count} occurrences found")
