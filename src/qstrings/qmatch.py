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

import numpy as np

from . import fingerprint
from .fingerprint import HashParams, HashValue
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
from .sim import (
    Register,
    RegisterLayout,
    SearchState,
    StructuredState,
    padded_size,
    search_copy,
    search_state,
)
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


@lru_cache(maxsize=32)
def miss_probability_table(bit_domain: int) -> tuple[float, ...]:
    """miss[t] = P(no verified differing bit | t of `bit_domain` bits differ)."""
    table = [1.0]  # t = 0: no witness exists, the schedule never finds one
    for t in range(1, bit_domain + 1):
        miss = 1.0
        for iterations in inner_schedule(bit_domain):
            miss *= 1.0 - success_probability(bit_domain, t, iterations)
        table.append(miss)
    return tuple(table)


def worst_eval_miss(bit_domain: int) -> float:
    """Largest single-evaluation miss over all differing-bit counts."""
    table = miss_probability_table(bit_domain)
    return max(table[1:]) if bit_domain >= 1 else 0.0


def inner_eval_gate_cost(bit_domain: int) -> int:
    """Gate units of one coherent evaluation: per iteration, a diffusion
    over the bit-position register plus one bit-compare query."""
    return sum(inner_schedule(bit_domain)) * (index_width(bit_domain) + 1)


@lru_cache(maxsize=32)
def _evaluation_constants(bit_domain: int) -> tuple[int, float, int]:
    """Gate units, worst miss and inner iterations of one evaluation."""
    return (
        inner_eval_gate_cost(bit_domain),
        worst_eval_miss(bit_domain),
        sum(inner_schedule(bit_domain)),
    )


def hash_equality_eval(
    reference: HashValue,
    candidate: HashValue,
    rng: np.random.Generator,
    mode: str = "structured",
    ledger: ResourceLedger | None = None,
) -> int:
    """One equality evaluation: 1 if the hashes are judged equal, else 0.

    Runs the inner schedule searching bit positions where the two
    residues differ; any verified differing bit settles inequality.  In
    dense mode the search actually evolves a small statevector; in
    structured mode the measured outcome is sampled from the closed-form
    distribution of the same circuit.
    """
    if reference.width != candidate.width:
        raise ValueError("hash widths differ")
    domain = padded_size(reference.width)
    diff = reference.residue ^ candidate.residue
    t = bin(diff).count("1")
    if ledger is not None:
        charge(ledger, "inner_grover_iterations", sum(inner_schedule(domain)))
        charge(ledger, "hash_eval_units", inner_eval_gate_cost(domain))
    if mode == "structured":
        for iterations in inner_schedule(domain):
            if t and rng.random() < success_probability(domain, t, iterations):
                return 0
        return 1
    truth = np.array(
        [(diff >> j) & 1 == 1 if j < reference.width else False for j in range(domain)]
    )
    oracle = OracleSpec(domain, truth, evaluation_cost=1)
    layout = RegisterLayout([Register("bit", max(1, index_width(domain)), "index")])
    for iterations in inner_schedule(domain):
        outcome = grover_run(search_state(mode, layout, domain), oracle, iterations, rng)
        if outcome.verified:
            return 0
    return 1


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
    pattern_hash: HashValue
    window_hash_table: np.ndarray  # padded domain -> residue
    copies: int

    @property
    def num_windows(self) -> int:
        return self.instance.num_windows

    @property
    def padded_windows(self) -> int:
        return padded_size(self.num_windows)

    @property
    def index_register_width(self) -> int:
        return max(1, index_width(self.num_windows))

    @property
    def qubit_count(self) -> int:
        return qubit_count_match(
            self.instance.n, self.instance.m, self.params.epsilon, p=self.params.p
        )

    def layout(self) -> RegisterLayout:
        return RegisterLayout(
            [
                Register("idx", self.index_register_width, "index"),
                Register("whash", self.params.width, "data", depends_on="idx"),
            ]
        )

    @cached_property
    def _template(self) -> StructuredState:
        return search_state(
            "structured", self.layout(), self.num_windows, {"whash": self.window_hash_table}
        )

    def make_copy(self, mode: str) -> SearchState:
        """One fresh uniform search state."""
        return search_copy(mode, self._template)

    def oracle(self) -> OracleSpec:
        """Window-hash-equality oracle with its one-sided error model."""
        bit_domain = padded_size(self.params.width)
        evaluation_cost, error_prob, inner_iterations = _evaluation_constants(bit_domain)
        # t <= width <= bit_domain: every residue, the sentinel too, has width bits
        t_counts = np.bitwise_count(self.window_hash_table ^ self.pattern_hash.residue)
        truth = t_counts == 0
        truth[self.num_windows :] = False  # sentinel never equals the pattern hash
        # error class = differing-bit count t, with miss probability miss[t]
        return OracleSpec(
            self.num_windows,
            truth,
            evaluation_cost=evaluation_cost,
            error_prob=error_prob,
            error_classes=(t_counts, miss_probability_table(bit_domain)),
            inner_iterations_per_eval=inner_iterations,
        )


def match_params(
    inst: MatchInstance, epsilon: float, rng: np.random.Generator
) -> HashParams:
    """Hash parameters sized for one comparison per window."""
    return fingerprint.choose_prime(
        rng, delta=inst.num_windows, max_len=inst.m, epsilon=epsilon
    )


def prepare_match_state(inst: MatchInstance, params: HashParams) -> MatchStateSpec:
    """Fingerprint the pattern and every window; fix layout and padding."""
    if params.delta < inst.num_windows:
        raise ValueError("hash universe sized for fewer comparisons than windows")
    pattern_hash = fingerprint.rolling_hash(inst.pattern, params.p)
    padded = padded_size(inst.num_windows)
    table = np.zeros(padded, dtype=np.int64)
    table[: inst.num_windows] = fingerprint.window_hashes(inst.text, inst.m, params.p)
    sentinel = (~pattern_hash.residue) & ((1 << params.width) - 1)
    if sentinel == pattern_hash.residue:  # width-0 complement cannot happen, be safe
        sentinel ^= 1
    table[inst.num_windows :] = sentinel
    table.flags.writeable = False
    copies = max(1, index_width(inst.num_windows))
    return MatchStateSpec(
        instance=inst,
        params=params,
        pattern_hash=pattern_hash,
        window_hash_table=table,
        copies=copies,
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
    seed: object = None

    def __post_init__(self) -> None:
        if self.exactly_verified and self.position is None:
            raise ValueError("verified result must carry its position")


def _verify(inst: MatchInstance, spec: MatchStateSpec, measured: int) -> tuple[bool, bool]:
    hash_ok = bool(
        measured < inst.num_windows
        and spec.window_hash_table[measured] == spec.pattern_hash.residue
    )
    exact_ok = hash_ok and inst.window(measured + 1).bits == inst.pattern.bits
    return hash_ok, exact_ok


def _trivial_match(inst: MatchInstance, params: HashParams, seed) -> MatchResult:
    # Single-window instance: the search domain has one element, so the
    # quantum search degenerates to verifying window 1 directly.
    ledger = ResourceLedger()
    ledger.qubits_total = qubit_count_match_unique(
        inst.n, inst.m, params.epsilon, p=params.p
    )
    ok = inst.window(1).bits == inst.pattern.bits
    return MatchResult(
        position=1 if ok else None,
        measured_index=0,
        hash_verified=ok,
        exactly_verified=ok,
        copies_used=1,
        ledger=ledger,
        seed=seed,
    )


def match_unique(
    inst: MatchInstance,
    params: HashParams,
    rng: np.random.Generator,
    mode: str = "structured",
    seed: object = None,
) -> MatchResult:
    """Single fixed-length search, calibrated for exactly one occurrence."""
    if inst.num_windows == 1:
        return _trivial_match(inst, params, seed)
    spec = prepare_match_state(inst, params)
    ledger = ResourceLedger()
    ledger.qubits_total = qubit_count_match_unique(
        inst.n, inst.m, params.epsilon, p=params.p
    )
    oracle = spec.oracle()
    iterations = optimal_iterations(spec.padded_windows, 1)
    search = spec.make_copy(mode)
    outcome = grover_run(search, oracle, iterations, rng, ledger)
    measured = outcome.found_index
    hash_ok, exact_ok = _verify(inst, spec, measured)
    return MatchResult(
        position=measured + 1 if exact_ok else None,
        measured_index=measured,
        hash_verified=hash_ok,
        exactly_verified=exact_ok,
        copies_used=1,
        ledger=ledger,
        seed=seed,
    )


def match_search(
    inst: MatchInstance,
    params: HashParams,
    rng: np.random.Generator,
    mode: str = "structured",
    seed: object = None,
) -> MatchResult:
    """Doubling-schedule search handling any number of occurrences.

    Consumes one fresh state copy per repetition; the first measured
    index that passes the exact window comparison is returned, so a
    non-None position is always a true occurrence.
    """
    if inst.num_windows == 1:
        return _trivial_match(inst, params, seed)
    spec = prepare_match_state(inst, params)
    ledger = ResourceLedger()
    ledger.qubits_total = spec.qubit_count
    oracle = spec.oracle()
    schedule = doubling_schedule(spec.num_windows, max_repetitions=spec.copies)
    measured = None
    hash_ok = False
    for rep, iterations in enumerate(schedule):
        outcome = grover_run(spec.make_copy(mode), oracle, iterations, rng, ledger)
        measured = outcome.found_index
        hash_ok, exact_ok = _verify(inst, spec, measured)
        if exact_ok:
            return MatchResult(
                position=measured + 1,
                measured_index=measured,
                hash_verified=hash_ok,
                exactly_verified=True,
                copies_used=rep + 1,
                ledger=ledger,
                seed=seed,
            )
    # hash_verified without exact verification marks a fingerprint collision
    return MatchResult(
        position=None,
        measured_index=measured,
        hash_verified=hash_ok,
        exactly_verified=False,
        copies_used=len(schedule),
        ledger=ledger,
        seed=seed,
    )


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


def random_multi_occurrence(
    n: int, m: int, count: int, rng: np.random.Generator, max_tries: int = 100_000
) -> tuple[MatchInstance, set[int]]:
    """Random instance with exactly `count` occurrences."""
    from .strings_core import naive_match_all

    for _ in range(max_tries):
        text = BitString.from_bits(rng.integers(0, 2, n))
        start = int(rng.integers(1, n - m + 2))
        inst = MatchInstance(text, text.substring(start, start + m - 1))
        occurrences = naive_match_all(inst)
        if len(occurrences) == count:
            return inst, occurrences
    raise RuntimeError(f"no instance with {count} occurrences found")
