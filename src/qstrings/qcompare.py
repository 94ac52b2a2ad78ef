"""Two lexicographic string comparators over the first k = min(|u|, |v|) symbols.

The search comparator runs threshold-descent minimum finding over the
ranks of the pairs (1 - [u_a != v_a], a), so the minimum key names the
first differing position; a sentinel threshold above every real rank
encodes "no differing position found yet"; no step reads a symbol, so
both backends search the index register alone.  The binary-search
comparator hashes only the prefixes it probes, each to an int residue
fetched at ceil(log2 k) access units, and finds the first hash-unequal
one with exactly ceil(log2 k) rho-fold quantum equality tests: sampled
in closed form on the structured backend, which builds no search state,
and run as the reference statevector search on the dense one.  A
probe's residue is spliced from the residue at the bracket's low end
lo, h(x[1..mid]) = h(x[1..lo]) + 2^lo * h(x[lo+1..mid]) mod p, so it
reduces only the bits its bracket adds: about k per string over a run,
where a prefix reduced from scratch costs up to k bits per probe.  Both
read the symbol pair at the candidate position, at the same access
cost, to settle the verdict.  Length cases are decided classically in both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fingerprint
from .fingerprint import HashParams
from .grover import amplification, durr_hoyer_min
from .qmatch import evaluation_constants, hash_equality_eval
from .resources import (
    ResourceLedger,
    charge,
    index_width,
    qubit_count_compare_bsearch,
    qubit_count_compare_grover,
)
from .sim import SearchState, StructuredState, padded_size, search_layout
from .strings_core import BitString


@dataclass(frozen=True)
class CompareResult:
    """Verdict plus per-run diagnostics and accounting."""

    verdict: int
    first_difference: int | None  # 1-indexed position within the compared prefix
    phases: int
    hash_comparisons: int
    copies_used: int
    records: tuple[tuple[int, int], ...]  # durr_hoyer_min's adopted (phase, index)
    ledger: ResourceLedger


def compare_params(
    u: BitString, v: BitString, epsilon: float, rng: np.random.Generator
) -> HashParams | None:
    """Hash parameters sized for one comparison per prefix position; None,
    drawing no prime, when a string is empty and the lengths decide."""
    k = min(len(u), len(v))
    if k == 0:
        return None
    return fingerprint.choose_prime(rng, delta=k, max_len=k, epsilon=epsilon)


def _length_verdict(u: BitString, v: BitString) -> int:
    if len(u) == len(v):
        return 0
    return -1 if len(u) < len(v) else 1


def build_compare_state(u: BitString, v: BitString) -> StructuredState:
    """The bound template the crosscheck's bsearch instances check, which
    no run builds: positions a < k = min(|u|, |v|) with the symbol pair
    (u_a, v_a) bound.  Padding entries bind equal zeros, so a padded index
    can never look like a differing position."""
    k = min(len(u), len(v))
    u_bits = np.zeros(padded_size(k), dtype=np.int64)
    v_bits = np.zeros(padded_size(k), dtype=np.int64)
    u_bits[:k] = u.array[:k]
    v_bits[:k] = v.array[:k]
    # read-only here, so validation keeps them instead of copying them
    u_bits.flags.writeable = v_bits.flags.writeable = False
    return StructuredState(search_layout(k, u=1, v=1), k, {"u": u_bits, "v": v_bits})


def access_element(
    u: BitString, v: BitString, i: int, ledger: ResourceLedger
) -> tuple[int, int]:
    """The symbol pair (u_i, v_i) at 0-based position i < k = min(|u|, |v|),
    charged at ceil(log2 k) access units.

    The swap-to-front access trick costs the same for every index, so the
    charge is uniform and independent of i.
    """
    symbols = u.bit(i + 1), v.bit(i + 1)  # IndexError past either string
    charge(ledger, "access_units", index_width(min(len(u), len(v))))
    return symbols


def compare_grover(
    u: BitString,
    v: BitString,
    rng: np.random.Generator,
    backend: type[SearchState] = StructuredState,
) -> CompareResult:
    """Minimum-finding comparator; agrees with the classical order with
    probability at least 1/2 (exactly 0 on equal prefixes of equal-length
    strings, where no differing position exists to find)."""
    k = min(len(u), len(v))
    ledger = ResourceLedger()
    if k == 0:
        return CompareResult(_length_verdict(u, v), None, 0, 0, 0, (), ledger)
    ledger.qubits_total = qubit_count_compare_grover(k)
    # no step, oracle or measurement reads a symbol: only the index register
    template = StructuredState(search_layout(k), k)
    differs = u.array[:k] != v.array[:k]
    # rank of the pair (1 - [u_a != v_a], a): differing positions first,
    # each group in position order; 2k lies above every rank
    rank = np.where(differs, 0, k) + np.arange(k)

    found = durr_hoyer_min(rank, rng, lambda: backend.like(template), ledger, initial_key=2 * k)
    best, phases, copies, records = found.index, found.phases, found.copies, found.adopted
    if best is None or not differs[best]:
        # No differing position was adopted: equal within the compared
        # prefix, so string length decides.
        verdict = _length_verdict(u, v)
        return CompareResult(verdict, None, phases, 0, copies, records, ledger)
    # the readout consumes one more copy of the state in the algorithm
    u_bit, v_bit = access_element(u, v, best, ledger)
    verdict = -1 if u_bit < v_bit else 1
    return CompareResult(verdict, best + 1, phases, 0, copies + 1, records, ledger)


def compare_bsearch(
    u: BitString,
    v: BitString,
    params: HashParams | None,
    rng: np.random.Generator,
    backend: type[SearchState] = StructuredState,
) -> CompareResult:
    """Prefix-hash binary-search comparator.

    Performs exactly ceil(log2 k) quantum hash-equality tests, one fresh
    state copy each, then reads the symbol pair at the candidate first
    difference.  Each test's error is held below 1/(10 ceil(log2 k)) by
    independent re-evaluation, and a found differing hash bit is certain,
    so the verdict errs only through hash collisions (budget epsilon)
    or a missed difference (budget 1/10 overall).  `params` is read only
    when both strings are non-empty.

    Each test compares the exact prefix residues, spliced from those of
    the longest prefix believed hash-equal.  The ceil(log2 k) probe
    fetches are charged together, as one ceil(log2 k)^2 access-unit
    charge.
    """
    k = min(len(u), len(v))
    ledger = ResourceLedger()
    if k == 0:
        return CompareResult(_length_verdict(u, v), None, 0, 0, 0, (), ledger)
    if params is None or params.delta < k:
        raise ValueError("hash parameters sized for fewer comparisons than k")
    ledger.qubits_total = qubit_count_compare_bsearch(k, params.epsilon, p=params.p)
    value_u, value_v = u.to_int(), v.to_int()
    p, width = params.p, params.width
    log_k = index_width(k)
    rho = amplification(evaluation_constants(padded_size(width)).worst_miss, log_k)

    # lo: longest prefix believed hash-equal; hi: candidate first difference.
    # A reported inequality carries a verified differing bit, so it always
    # wins; once the bracket closes, the remaining budget re-tests the
    # candidate, keeping the comparison count exact.  ref_lo and cand_lo
    # are the residues of the length-lo prefixes, computed by the probe
    # that moved lo there, and scale is 2^lo mod p.
    lo, hi = 0, k
    ref_lo = cand_lo = 0
    scale = 1
    charge(ledger, "access_units", log_k * log_k)  # swap-to-front fetch of each mid
    for _ in range(log_k):
        mid = (lo + hi) // 2 if hi - lo > 1 else hi
        href = (ref_lo + scale * fingerprint.segment_hash(value_u, lo, mid, p)) % p
        hcand = (cand_lo + scale * fingerprint.segment_hash(value_v, lo, mid, p)) % p
        if hash_equality_eval(href, hcand, width, rho, rng, backend, ledger):
            if mid < hi:
                lo, ref_lo, cand_lo = mid, href, hcand
                scale = pow(2, lo, p)
        else:
            hi = mid
    a0 = hi
    u_bit, v_bit = access_element(u, v, a0 - 1, ledger)
    if u_bit == v_bit:
        # The candidate position does not actually differ: equal within
        # the compared prefix, so string length decides.
        verdict = _length_verdict(u, v)
        return CompareResult(verdict, None, log_k, log_k, log_k, (), ledger)
    verdict = -1 if u_bit < v_bit else 1
    return CompareResult(verdict, a0, log_k, log_k, log_k, (), ledger)

