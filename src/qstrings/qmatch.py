"""Hash-fingerprinted substring search via nested Grover runs.

The text's N windows of pattern length are fingerprinted once; the
search state is a uniform superposition over window indices with the
window-hash register bound to the index, replicated once per doubling
repetition (the measurement at the end of each repetition destroys a
copy).  The outer oracle marks windows whose hash equals the pattern
hash; it is realized by an inner Grover search over hash bit positions
for a differing bit, so a marked verdict is only ever wrong in one
direction (a differing bit was missed), with per-evaluation miss
probability below 1/3 for every differing-bit count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import fingerprint
from .fingerprint import HashParams
from .grover import (
    OracleSpec,
    doubling_schedule,
    grover_run,
    optimal_iterations,
    success_probability,
)
from .resources import (
    ResourceLedger,
    charge,
    index_width,
    qubit_count_match,
    qubit_count_match_unique,
)
from .sim import SearchState, StructuredState, padded_size, search_layout
from .strings_core import BitString, MatchInstance


def inner_schedule(bit_domain: int) -> list[int]:
    """Iteration counts for one equality evaluation over `bit_domain` positions.

    Doubling with one extra repetition, which caps the miss probability
    at 1/3 for every possible number of differing bits.
    """
    if bit_domain <= 1:
        return [1]
    reps = math.ceil(math.log2(math.sqrt(bit_domain))) + 2
    return [2**j for j in range(reps)]


@lru_cache(maxsize=1024)
def hit_probabilities(bit_domain: int, t: int) -> tuple[float, ...]:
    """P(a differing bit is found) at each inner-schedule step, when t of
    `bit_domain` bits differ."""
    return tuple(
        success_probability(bit_domain, t, iterations) for iterations in inner_schedule(bit_domain)
    )


@lru_cache(maxsize=32)
def miss_probability_table(bit_domain: int) -> tuple[float, ...]:
    """miss[t] = P(no verified differing bit | t of `bit_domain` bits differ)."""
    table = [1.0]  # t = 0: no witness exists, the schedule never finds one
    for t in range(1, bit_domain + 1):
        miss = 1.0
        for hit in hit_probabilities(bit_domain, t):
            miss *= 1.0 - hit
        table.append(miss)
    return tuple(table)


class Evaluation(NamedTuple):
    """Cost and error of one coherent equality evaluation."""

    gate_units: int  # per iteration: a diffusion over the bit positions and one bit compare
    worst_miss: float  # largest miss over all differing-bit counts
    inner_iterations: int


@lru_cache(maxsize=32)
def evaluation_constants(bit_domain: int) -> Evaluation:
    """The record of one evaluation over `bit_domain` bit positions."""
    iterations = sum(inner_schedule(bit_domain))
    return Evaluation(
        gate_units=iterations * (index_width(bit_domain) + 1),
        worst_miss=max(miss_probability_table(bit_domain)[1:]),
        inner_iterations=iterations,
    )


def hash_equality_eval(
    reference: int,
    candidate: int,
    width: int,
    rho: int,
    rng: np.random.Generator,
    backend: type[SearchState],
    ledger: ResourceLedger,
) -> bool:
    """rho-fold equality test: True if two `width`-bit residues are judged equal.

    Each of the rho independent evaluations runs the inner schedule
    searching bit positions where the two residues differ, and stops at
    its first verified differing bit; any such bit settles inequality,
    but every evaluation runs even after one has found a bit.  With the
    StructuredState backend the measured outcome is sampled from the
    closed-form distribution of the circuit, with no draw when the
    residues are equal; any other backend class evolves its own search
    state over the bit positions.
    """
    domain = padded_size(width)
    evaluation = evaluation_constants(domain)
    charge(ledger, "inner_grover_iterations", rho * evaluation.inner_iterations)
    charge(ledger, "hash_eval_units", rho * evaluation.gate_units)
    diff = reference ^ candidate
    if backend is StructuredState:
        t = diff.bit_count()
        if t == 0:
            return True  # no differing bit exists, so nothing is drawn
        hits = hit_probabilities(domain, t)
        finds = [any(rng.random() < hit for hit in hits) for _ in range(rho)]
    else:
        truth = np.array([(diff >> j) & 1 == 1 for j in range(domain)])
        oracle = OracleSpec(domain, truth, evaluation_cost=1)
        layout = search_layout(domain)
        schedule = inner_schedule(domain)
        finds = [
            any(
                grover_run(backend(layout, domain), oracle, iterations, rng).verified
                for iterations in schedule
            )
            for _ in range(rho)
        ]
    return not any(finds)


@dataclass(frozen=True)
class MatchStateSpec:
    """Layout and bindings of the prepared search state.

    One copy per doubling repetition, each a uniform superposition over
    the padded window-index domain with the window-hash register bound
    to the index.  Padding indices bind the bitwise complement of the
    pattern hash, so they can never be judged equal.  The table is
    read-only, and every copy comes from one structured template that
    validated it once.
    """

    instance: MatchInstance
    params: HashParams
    pattern_hash: int
    window_hash_table: np.ndarray  # padded domain -> residue

    @property
    def num_windows(self) -> int:
        return self.instance.num_windows

    @cached_property
    def _template(self) -> StructuredState:
        layout = search_layout(self.num_windows, whash=self.params.width)
        return StructuredState(layout, self.num_windows, {"whash": self.window_hash_table})

    def make_copy(self, backend: type[SearchState] = StructuredState) -> SearchState:
        """One fresh uniform search state."""
        return backend.like(self._template)

    def oracle(self) -> OracleSpec:
        """Window-hash-equality oracle with its one-sided error model."""
        bit_domain = padded_size(self.params.width)
        evaluation = evaluation_constants(bit_domain)
        # t <= width <= bit_domain: every residue, the sentinel too, has width bits
        t_counts = np.bitwise_count(self.window_hash_table ^ self.pattern_hash)
        truth = t_counts == 0
        truth[self.num_windows :] = False  # sentinel never equals the pattern hash
        # error class = differing-bit count t, with miss probability miss[t]
        return OracleSpec(
            self.num_windows,
            truth,
            evaluation_cost=evaluation.gate_units,
            error_prob=evaluation.worst_miss,
            error_classes=(t_counts, miss_probability_table(bit_domain)),
            inner_iterations_per_eval=evaluation.inner_iterations,
        )


def match_params(
    inst: MatchInstance, epsilon: float, rng: np.random.Generator
) -> HashParams:
    """Hash parameters sized for one comparison per window."""
    return fingerprint.choose_prime(
        rng, delta=inst.num_windows, max_len=inst.m, epsilon=epsilon
    )


def prepare_match_state(inst: MatchInstance, params: HashParams) -> MatchStateSpec:
    """Fingerprint the pattern and every window; fix layout and padding.

    The padded table is allocated once and the window residues are
    written straight into its head, so no n-sized copy is made.
    """
    if params.delta < inst.num_windows:
        raise ValueError("hash universe sized for fewer comparisons than windows")
    pattern_hash = fingerprint.rolling_hash(inst.pattern, params.p)
    table = np.empty(padded_size(inst.num_windows), dtype=np.int64)
    fingerprint.window_hashes(inst.text, inst.m, params.p, out=table[: inst.num_windows])
    sentinel = ~pattern_hash & ((1 << params.width) - 1)
    table[inst.num_windows :] = sentinel
    table.flags.writeable = False
    return MatchStateSpec(
        instance=inst, params=params, pattern_hash=pattern_hash, window_hash_table=table
    )


@dataclass(frozen=True)
class MatchResult:
    """Outcome of one matching run.

    `position` is a verified 1-indexed occurrence or None; the raw
    measured index (0-based, pre-verification) is kept for calibration.
    """

    position: int | None
    measured_index: int | None
    hash_verified: bool
    exactly_verified: bool
    copies_used: int
    ledger: ResourceLedger

    def __post_init__(self) -> None:
        if self.exactly_verified and self.position is None:
            raise ValueError("verified result must carry its position")


def _verify(inst: MatchInstance, spec: MatchStateSpec, measured: int) -> tuple[bool, bool]:
    hash_ok = bool(
        measured < inst.num_windows
        and spec.window_hash_table[measured] == spec.pattern_hash
    )
    exact_ok = hash_ok and inst.window(measured + 1).bits == inst.pattern.bits
    return hash_ok, exact_ok


def _search(
    inst: MatchInstance,
    params: HashParams,
    rng: np.random.Generator,
    backend: type[SearchState],
    schedule: list[int],
    qubits: int,
) -> MatchResult:
    """One fresh state copy and one Grover run per schedule entry; the
    first measured index that passes the exact window comparison wins,
    so a non-None position is always a true occurrence."""
    ledger = ResourceLedger()
    ledger.qubits_total = qubits
    if inst.num_windows == 1:
        # Single-window instance: the search domain has one element, so the
        # quantum search degenerates to verifying window 1 directly.
        ok = inst.window(1).bits == inst.pattern.bits
        return MatchResult(1 if ok else None, 0, ok, ok, 1, ledger)
    spec = prepare_match_state(inst, params)
    oracle = spec.oracle()
    for rep, iterations in enumerate(schedule):
        outcome = grover_run(spec.make_copy(backend), oracle, iterations, rng, ledger)
        measured = outcome.found_index
        hash_ok, exact_ok = _verify(inst, spec, measured)
        if exact_ok:
            break
    # hash_verified without exact verification marks a fingerprint collision
    return MatchResult(
        position=measured + 1 if exact_ok else None,
        measured_index=measured,
        hash_verified=hash_ok,
        exactly_verified=exact_ok,
        copies_used=rep + 1,
        ledger=ledger,
    )


def match_unique(
    inst: MatchInstance,
    params: HashParams,
    rng: np.random.Generator,
    backend: type[SearchState] = StructuredState,
) -> MatchResult:
    """Single fixed-length search, calibrated for exactly one occurrence."""
    schedule = [optimal_iterations(padded_size(inst.num_windows), 1)]
    qubits = qubit_count_match_unique(inst.n, inst.m, params.epsilon, p=params.p)
    return _search(inst, params, rng, backend, schedule, qubits)


def match_search(
    inst: MatchInstance,
    params: HashParams,
    rng: np.random.Generator,
    backend: type[SearchState] = StructuredState,
) -> MatchResult:
    """Doubling-schedule search handling any number of occurrences, with
    one state copy per index-register bit."""
    copies = max(1, index_width(inst.num_windows))
    schedule = doubling_schedule(inst.num_windows, max_repetitions=copies)
    qubits = qubit_count_match(inst.n, inst.m, params.epsilon, p=params.p)
    return _search(inst, params, rng, backend, schedule, qubits)


def random_single_occurrence(
    n: int, m: int, rng: np.random.Generator, max_rounds: int = 500
) -> tuple[MatchInstance, int]:
    """Random instance whose pattern occurs exactly once; returns (inst, d).

    Plants a random pattern at a random position d0, then destroys every
    other occurrence, leftmost first, by flipping one of its bits outside
    the planted window.  A flip at position j can only create occurrences
    starting in [j - m + 1, j], and none other than d0 starts before the
    destroyed one at `bad`, so the next search resumes at bad - m + 1
    instead of rescanning the text.  The text is edited in a bytearray
    of its bits and searched with `bytearray.find`.
    """
    for _ in range(max_rounds):
        text = bytearray(BitString.from_bits(rng.integers(0, 2, n)).bits)
        d0 = int(rng.integers(0, n - m + 1))
        word = BitString.from_bits(rng.integers(0, 2, m)).bits
        text[d0 : d0 + m] = word
        start = 0
        for _ in range(4 * n):
            bad = text.find(word, start)
            if bad == d0:
                bad = text.find(word, d0 + 1)
            if bad == -1:
                inst = MatchInstance(BitString(bytes(text)), BitString(word))
                return inst, d0 + 1
            spots = [j for j in range(bad, bad + m) if not d0 <= j < d0 + m]
            text[spots[int(rng.integers(0, len(spots)))]] ^= 1
            start = max(0, bad - m + 1)
    raise RuntimeError("failed to construct a single-occurrence instance")

