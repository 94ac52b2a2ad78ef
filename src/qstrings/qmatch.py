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

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import fingerprint, grover
from .fingerprint import HashParams
from .grover import (
    OracleSpec,
    bbht_search,
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

    The doubling schedule with one more doubling, which caps the miss
    probability at 1/3 for every possible number of differing bits.
    """
    if bit_domain <= 1:
        return [1]
    schedule = doubling_schedule(bit_domain)
    return schedule + [2 * schedule[-1]]


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
    residues are equal; any other backend class runs one `bbht_search`
    over the bit positions per evaluation.
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
        draw = rng.random
        found = False
        for _ in range(rho):
            for hit in hits:
                if draw() < hit:  # this evaluation stops at its first find
                    found = True
                    break
        return not found
    truth = np.array([(diff >> j) & 1 == 1 for j in range(domain)])
    oracle = OracleSpec(domain, truth, evaluation_cost=1)
    layout, schedule = search_layout(domain), inner_schedule(domain)
    finds = [bbht_search(oracle, rng, lambda: backend(layout, domain), schedule).verified
             for _ in range(rho)]
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

    @cached_property
    def _template(self) -> StructuredState:
        windows = self.instance.num_windows
        layout = search_layout(windows, whash=self.params.width)
        return StructuredState(layout, windows, {"whash": self.window_hash_table})

    def make_copy(self, backend: type[SearchState] = StructuredState) -> SearchState:
        """One fresh uniform search state."""
        return backend.like(self._template)

    def oracle(self) -> OracleSpec:
        """Window-hash-equality oracle with its one-sided error model.

        Each window's label is its differing-bit count t against the
        pattern hash, written chunk by chunk into one read-only uint8
        array through one reused int64 xor buffer, so no n-sized int64
        array is made.
        """
        bit_domain = padded_size(self.params.width)
        evaluation = evaluation_constants(bit_domain)
        table = self.window_hash_table
        # t <= width <= bit_domain: every residue, the sentinel too, has width bits
        t_counts = np.empty(table.size, dtype=np.uint8)
        buf = np.empty(min(table.size, grover.ORACLE_CHUNK), dtype=np.int64)
        for chunk in grover.chunks(table.size):
            part = table[chunk]
            xor = np.bitwise_xor(part, self.pattern_hash, out=buf[: part.size])
            np.bitwise_count(xor, out=t_counts[chunk])
        t_counts.flags.writeable = False
        truth = t_counts == 0
        # error class = differing-bit count t, with miss probability miss[t]
        return OracleSpec(
            self.instance.num_windows,
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
    # xors with the pattern hash to width one bits, never zero, so no
    # padding index is an oracle target (OracleSpec refuses a padded one)
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
    copies_used: int
    ledger: ResourceLedger

    @property
    def exactly_verified(self) -> bool:
        """Whether the exact window comparison verified `position`."""
        return self.position is not None


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
        return MatchResult(1 if ok else None, 0, ok, 1, ledger)
    spec = prepare_match_state(inst, params)
    oracle = spec.oracle()
    for rep, iterations in enumerate(schedule):
        outcome = grover_run(spec.make_copy(backend), oracle, iterations, rng, ledger)
        # the oracle's truth is the hash verdict, never true on padding
        measured, hash_ok = outcome.found_index, outcome.verified
        exact_ok = hash_ok and inst.window(measured + 1).bits == inst.pattern.bits
        if exact_ok:
            break
    # hash_verified without exact verification marks a fingerprint collision
    return MatchResult(
        position=measured + 1 if exact_ok else None,
        measured_index=measured,
        hash_verified=hash_ok,
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
    schedule = doubling_schedule(inst.num_windows)[:copies]
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

