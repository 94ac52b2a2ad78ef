"""Helpers only the tests use: the single-copy match search, a scalar
reference hash, a per-query reference Grover run, a reference structured
measurement, a reference oracle class key, a reference structured
equality test, a classical prefix-hash comparator, a collision-rate Monte
Carlo, a multi-occurrence instance generator, either backend's index
marginal, the tables either backend binds and a copy of an evolved
structured state."""

from __future__ import annotations

import math

import numpy as np

from qstrings.fingerprint import HashParams, choose_prime, prefix_hashes, rolling_hash
from qstrings.grover import (
    GroverOutcome,
    OracleSpec,
    amplification,
    charge_iterations,
    grover_run,
    optimal_iterations,
)
from qstrings.qmatch import MatchResult, hit_probabilities, match_search, prepare_match_state
from qstrings.resources import ResourceLedger
from qstrings import sim
from qstrings.sim import SearchState, StructuredState, padded_size
from qstrings.strings_core import BitString, MatchInstance, compare_classical, naive_match_all


def match_unique(
    inst: MatchInstance,
    params: HashParams,
    rng: np.random.Generator,
    backend: type[SearchState] = StructuredState,
) -> MatchResult:
    """The match search calibrated for exactly one occurrence: one state
    copy and one Grover run of the one-target optimal count, then the
    exact window comparison.  A one-window instance is `match_search`'s
    degenerate case, which takes one copy and no run."""
    if inst.num_windows == 1:
        return match_search(inst, params, rng, backend)
    spec = prepare_match_state(inst, params)
    iterations = optimal_iterations(padded_size(inst.num_windows), 1)
    ledger = ResourceLedger()
    outcome = grover_run(spec.make_copy(backend), spec.oracle(), iterations, rng, ledger)
    measured, hash_ok = outcome.found_index, outcome.verified
    exact_ok = hash_ok and inst.window(measured + 1).bits == inst.pattern.bits
    return MatchResult(measured + 1 if exact_ok else None, measured, hash_ok, 1, ledger)


def index_probabilities(search: SearchState) -> np.ndarray:
    """The index marginal of either backend; a structured state's is amps ** 2."""
    if isinstance(search, StructuredState):
        return search.amps**2
    return search.index_probabilities()


def binds(search: SearchState, layout: sim.RegisterLayout, tables: dict) -> bool:
    """Whether a fresh uniform search state over `layout` binds `tables`
    at every index: a structured state holds them as its bindings, and a
    dense state, its flag projected out, is the expansion of the
    structured state over them."""
    reference = StructuredState(layout, search.size, tables)
    if isinstance(search, StructuredState):
        return all(np.array_equal(search.bindings[name], reference.bindings[name])
                   for name in tables)
    reduced = sim.project_flag_minus(search.state, search.flag_register)
    return np.allclose(reduced, sim.expand_structured(reference).amps)


def copy_state(state: StructuredState) -> StructuredState:
    """An independent state equal to `state`, sharing its validated
    layout and its one read-only mapping of bindings; only exception
    amplitudes are copied, and the copy's norm is checked."""
    out = StructuredState.__new__(StructuredState)
    out.__dict__ = state.__dict__.copy()
    if state._values.size:  # an empty array, such as _NO_VALUES, is shared
        out._values = state._values.copy()
    out.check_norm()
    return out


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
    diffusion per step, each query drawing its own uniforms; its phase
    record is what the run's charge moved each counter by, read off the
    ledger before and after."""
    ledger = ledger if ledger is not None else ResourceLedger()
    before = ledger.counters()
    rho = amplification(oracle.error_prob, iterations) if rho is None else rho
    for _ in range(iterations):
        search.apply_phase_pattern(oracle.query_pattern(rng, rho))
        search.diffuse()
    charge_iterations(ledger, search, oracle, iterations, rho)
    found = search.measure_index(rng)
    delta = tuple(after - before[name] for name, after in ledger.counters().items())
    ledger.phase_breakdown.append((f"grover_run[{iterations}]", delta))
    return GroverOutcome(
        found_index=found,
        verified=bool(oracle.truth[found]),
        iterations_used=iterations,
    )


def measure_index_reference(state: StructuredState, rng) -> int:
    """`StructuredState.measure_index` as one cdf over every state: the
    special indices (group and exceptions, none for a uniform state)
    merged and sorted with their amplitudes, each base run's mass from
    the differences of the sorted indices, summed with `np.cumsum`, then
    the same collapse onto the outcome."""
    base_prob = state._base * state._base
    index = np.concatenate((state._group, state._index))
    values = np.concatenate((np.full(state._group.size, state._group_amp), state._values))
    order = np.argsort(index)
    index, values = index[order], values[order]
    mass = np.empty(2 * index.size + 1)
    mass[0::2] = (np.diff(np.concatenate(([-1], index, [state.size]))) - 1) * base_prob
    mass[1::2] = values * values
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
    """A per-index class key and OracleSpec's class fields (_class_labels,
    _sizes, _class_errors) by one n-wide mask: every non-target of positive
    error keyed by its label, every other index by -1, and one class per
    label that keys an index, in ascending error with ties by label.
    Class c's members are the indices whose key is _class_labels[c]."""
    table = np.asarray(errors, dtype=float)
    key = labels.astype(np.intp)
    key[truth | (table[labels] == 0)] = -1
    ranked = sorted(set(key[key >= 0].tolist()), key=lambda label: (errors[label], label))
    class_labels = np.array(ranked, dtype=np.intp)
    sizes = np.array([np.count_nonzero(key == label) for label in ranked], dtype=np.intp)
    return key, class_labels, sizes, table[class_labels]


def hash_equality_eval_reference(
    reference: int, candidate: int, width: int, rho: int, rng: np.random.Generator
) -> bool:
    """The StructuredState branch of `qmatch.hash_equality_eval`, uncharged,
    as one generator expression per evaluation: each of the rho
    evaluations draws against the per-step hit probabilities until its
    first find, and every evaluation runs."""
    t = (reference ^ candidate).bit_count()
    if t == 0:
        return True
    hits = hit_probabilities(padded_size(width), t)
    finds = [any(rng.random() < hit for hit in hits) for _ in range(rho)]
    return not any(finds)


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
