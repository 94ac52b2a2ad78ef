"""Two lexicographic string comparators over the first k = min(|u|, |v|) symbols.

The search comparator runs threshold-descent minimum finding over the
ranks of the pairs (1 - [u_a != v_a], a), so the minimum key names the
first differing position; a sentinel threshold above every real rank
encodes "no differing position found yet".  The binary-search
comparator keeps prefix hashes of both strings bound to a position
register and locates the first hash-unequal prefix with exactly
ceil(log2 k) quantum equality tests, then reads the symbol pair at the
candidate position to settle the verdict.  Length cases are decided classically in both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fingerprint
from .fingerprint import HashParams, HashValue
from .grover import durr_hoyer_min
from .qmatch import hash_equality_eval, worst_eval_miss
from .resources import (
    ResourceLedger,
    charge,
    index_width,
    qubit_count_compare_bsearch,
    qubit_count_compare_grover,
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
from .strings_core import BitString


@dataclass(frozen=True, slots=True)
class PhaseRecord:
    """Running-best snapshot after one minimum-finding phase."""

    phi: int  # 1 - [symbols differ] at the current best index
    psi: int  # current best index
    phase: int


@dataclass(frozen=True)
class CompareResult:
    """Verdict plus per-run diagnostics and accounting."""

    verdict: int
    first_difference: int | None  # 1-indexed position within the compared prefix
    phases: int
    hash_comparisons: int
    copies_used: int
    records: tuple[PhaseRecord, ...]
    ledger: ResourceLedger


def compare_params(
    u: BitString, v: BitString, epsilon: float, rng: np.random.Generator
) -> HashParams:
    """Hash parameters sized for one comparison per prefix position."""
    k = min(len(u), len(v))
    if k < 1:
        raise ValueError("both strings must be non-empty to size hash parameters")
    return fingerprint.choose_prime(rng, delta=k, max_len=k, epsilon=epsilon)


def _length_verdict(u: BitString, v: BitString) -> int:
    if len(u) == len(v):
        return 0
    return -1 if len(u) < len(v) else 1


@dataclass(frozen=True)
class CompareInstanceState:
    """Bindings and copy budget for one comparator run.

    For the search comparator the data registers hold the symbol pair
    (u_a, v_a); for the binary-search comparator they hold the prefix
    hash pair of length a+1.  Padding entries bind equal sentinels so a
    padded index can never look like a differing position.  The symbol
    tables are read-only, and every symbol copy comes from one structured
    template that validated them once.
    """

    k: int
    u_bits: np.ndarray
    v_bits: np.ndarray
    prefix_u: np.ndarray | None = None
    prefix_v: np.ndarray | None = None
    hash_width: int | None = None

    @property
    def padded(self) -> int:
        return padded_size(self.k)

    @property
    def index_register_width(self) -> int:
        return max(1, index_width(self.k))

    def symbol_layout(self) -> RegisterLayout:
        return RegisterLayout(
            [
                Register("idx", self.index_register_width, "index"),
                Register("u", 1, "data", depends_on="idx"),
                Register("v", 1, "data", depends_on="idx"),
            ]
        )

    @cached_property
    def _symbol_template(self) -> StructuredState:
        return search_state(
            "structured", self.symbol_layout(), self.k, {"u": self.u_bits, "v": self.v_bits}
        )

    def symbol_copy(self, mode: str) -> SearchState:
        """One fresh uniform search state over positions with (u_a, v_a) bound."""
        return search_copy(mode, self._symbol_template)

    def hash_pair(self, prefix_len: int) -> tuple[HashValue, HashValue]:
        return (
            HashValue(int(self.prefix_u[prefix_len]), self.hash_width),
            HashValue(int(self.prefix_v[prefix_len]), self.hash_width),
        )


def build_compare_state(
    u: BitString, v: BitString, params: HashParams | None = None
) -> CompareInstanceState:
    """Bind symbols (and with params, prefix-hash pairs) over the padded domain."""
    k = min(len(u), len(v))
    padded = padded_size(k)
    u_bits = np.zeros(padded, dtype=np.int64)
    v_bits = np.zeros(padded, dtype=np.int64)
    u_bits[:k] = u.array[:k]
    v_bits[:k] = v.array[:k]
    u_bits.flags.writeable = v_bits.flags.writeable = False
    prefix_u = prefix_v = None
    width = None
    if params is not None:
        width = params.width
        prefix_u = fingerprint.prefix_hashes(u, params.p)
        prefix_v = fingerprint.prefix_hashes(v, params.p)
    return CompareInstanceState(
        k=k,
        u_bits=u_bits,
        v_bits=v_bits,
        prefix_u=prefix_u,
        prefix_v=prefix_v,
        hash_width=width,
    )


def access_element(
    state: SearchState,
    i: int,
    registers: tuple[str, ...],
    ledger: ResourceLedger | None = None,
    domain: int | None = None,
) -> tuple[int, ...]:
    """Bound data values at index i, charged at ceil(log2 k) units per access.

    The swap-to-front access trick costs the same for every index, so the
    charge is uniform and independent of i.
    """
    values = state.values_at(i, registers)
    if ledger is not None:
        size = domain if domain is not None else state.size
        charge(ledger, "access_units", index_width(size))
    return values


def compare_grover(
    u: BitString,
    v: BitString,
    rng: np.random.Generator,
    mode: str = "structured",
) -> CompareResult:
    """Minimum-finding comparator; agrees with the classical order with
    probability at least 1/2 (exactly 0 on equal prefixes of equal-length
    strings, where no differing position exists to find)."""
    k = min(len(u), len(v))
    ledger = ResourceLedger()
    if k == 0:
        return CompareResult(_length_verdict(u, v), None, 0, 0, 0, (), ledger)
    ledger.qubits_total = qubit_count_compare_grover(k)
    state = build_compare_state(u, v)
    differs = state.u_bits[:k] != state.v_bits[:k]
    # rank of the pair (1 - [u_a != v_a], a): differing positions first,
    # each group in position order; 2k lies above every rank
    rank = np.where(differs, 0, k) + np.arange(k)

    budget = {"used": 0}

    def factory(_phase: int, _rep: int):
        budget["used"] += 1
        return state.symbol_copy(mode)

    records: list[PhaseRecord] = []

    def on_phase(phase: int, found: int | None, _key) -> None:
        if found is not None:
            records.append(PhaseRecord(phi=int(not differs[found]), psi=found, phase=phase))

    best, phases, _ = durr_hoyer_min(
        rank,
        k,
        rng,
        factory,
        ledger,
        initial_key=2 * k,
        on_phase=on_phase,
    )
    if best is None or not differs[best]:
        # No differing position was adopted: equal within the compared
        # prefix, so string length decides.
        verdict = _length_verdict(u, v)
        return CompareResult(verdict, None, phases, 0, budget["used"], tuple(records), ledger)
    readout = state.symbol_copy(mode)
    u_bit, v_bit = access_element(readout, best, ("u", "v"), ledger, domain=k)
    verdict = -1 if u_bit < v_bit else 1
    return CompareResult(verdict, best + 1, phases, 0, budget["used"] + 1, tuple(records), ledger)


def compare_bsearch(
    u: BitString,
    v: BitString,
    params: HashParams,
    rng: np.random.Generator,
    mode: str = "structured",
) -> CompareResult:
    """Prefix-hash binary-search comparator.

    Performs exactly ceil(log2 k) quantum hash-equality tests, one fresh
    state copy each, then reads the symbol pair at the candidate first
    difference.  Each test's error is held below 1/(10 ceil(log2 k)) by
    independent re-evaluation, and a found differing hash bit is certain,
    so the verdict errs only through hash collisions (budget epsilon)
    or a missed difference (budget 1/10 overall).
    """
    k = min(len(u), len(v))
    ledger = ResourceLedger()
    if k == 0:
        return CompareResult(_length_verdict(u, v), None, 0, 0, 0, (), ledger)
    if params.delta < k:
        raise ValueError("hash parameters sized for fewer comparisons than k")
    ledger.qubits_total = qubit_count_compare_bsearch(k, params.epsilon, p=params.p)
    state = build_compare_state(u, v, params)
    log_k = index_width(k)
    bit_domain = padded_size(params.width)
    rho = _bsearch_amplification(log_k, bit_domain)

    # lo: longest prefix believed hash-equal; hi: candidate first difference.
    # A reported inequality carries a verified differing bit, so it always
    # wins; once the bracket closes, the remaining budget re-tests the
    # candidate, keeping the comparison count exact.
    lo, hi = 0, k
    tests = 0
    for _ in range(log_k):
        mid = (lo + hi) // 2 if hi - lo > 1 else hi
        charge(ledger, "access_units", index_width(k))  # swap-to-front fetch of mid
        href, hcand = state.hash_pair(mid)
        equal = _amplified_equality_test(href, hcand, rho, rng, mode, ledger)
        tests += 1
        if equal:
            if mid < hi:
                lo = mid
        else:
            hi = mid
    a0 = hi
    readout = state.symbol_copy(mode)
    u_bit, v_bit = access_element(readout, a0 - 1, ("u", "v"), ledger, domain=k)
    if u_bit == v_bit:
        # The candidate position does not actually differ: equal within
        # the compared prefix, so string length decides.
        verdict = _length_verdict(u, v)
        return CompareResult(verdict, None, tests, tests, tests, (), ledger)
    verdict = -1 if u_bit < v_bit else 1
    return CompareResult(verdict, a0, tests, tests, tests, (), ledger)


def _bsearch_amplification(log_k: int, bit_domain: int) -> int:
    worst = worst_eval_miss(bit_domain)
    if worst <= 0:
        return 1
    return max(1, math.ceil(math.log(10 * max(1, log_k)) / math.log(1 / worst)))


def _amplified_equality_test(
    href: HashValue,
    hcand: HashValue,
    rho: int,
    rng: np.random.Generator,
    mode: str,
    ledger: ResourceLedger,
) -> bool:
    """rho-fold equality evaluation; any verified differing bit settles it."""
    equal = True
    for _ in range(rho):
        if hash_equality_eval(href, hcand, rng, mode, ledger) == 0:
            equal = False
    return equal
