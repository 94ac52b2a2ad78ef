import hashlib
import itertools
import math

import numpy as np
import pytest

from qstrings import fingerprint, qcompare
from qstrings.fingerprint import HashParams, universe_size
from qstrings.grover import OracleSpec, bbht_search, doubling_schedule
from qstrings.qcompare import (
    PhaseRecord,
    access_element,
    build_compare_state,
    compare_bsearch,
    compare_grover,
    compare_params,
)
from qstrings.resources import (
    ResourceLedger,
    index_width,
    qubit_count_compare_bsearch,
    qubit_count_compare_grover,
)
from qstrings.sim import DenseSearchState, StructuredState
from qstrings.strings_core import BitString, compare_classical
from support import binds


def _params(p, k, epsilon=0.5):
    return HashParams(p=p, epsilon=epsilon, delta=k, max_len=k,
                      r=universe_size(k, k, epsilon))


@pytest.mark.parametrize("u_text, v_text", [("1011", "1001"), ("10110", "100"), ("01", "0110")])
def test_access_element_reads_the_strings(u_text, v_text):
    u, v = BitString.from_text(u_text), BitString.from_text(v_text)
    k = min(len(u), len(v))
    ledger = ResourceLedger()
    for i in range(k):
        assert access_element(u, v, i, ledger) == (int(u_text[i]), int(v_text[i]))
        # uniform charge per access: ceil(log2 k) each
        assert ledger.access_units == (i + 1) * index_width(k)
    for i in (k, -1):  # past the shorter string, and before the first symbol
        with pytest.raises(IndexError):
            access_element(u, v, i, ledger)
    assert ledger.access_units == k * index_width(k)


def test_compare_template_binds_the_symbols_on_both_backends():
    template = build_compare_state(BitString.from_text("101"), BitString.from_text("11101"))
    # the padding index 3 binds equal zeros
    symbols = {"u": np.array([1, 0, 1, 0]), "v": np.array([1, 1, 1, 0])}
    for backend in (DenseSearchState, StructuredState):
        assert binds(backend.like(template), template.layout, symbols)


def test_symbol_copies_share_read_only_bindings_and_evolve_independently():
    template = build_compare_state(BitString.from_text("10110"), BitString.from_text("10011"))
    a, b = StructuredState.like(template), StructuredState.like(template)
    dense = DenseSearchState.like(template)
    for name in ("u", "v"):
        table = template.bindings[name]
        with pytest.raises(ValueError):
            table[0] = 1
        assert a.bindings[name] is b.bindings[name] is dense.bindings[name] is table
    a.apply_phase_pattern(np.array([2, 3]))
    a.diffuse()
    assert np.allclose(b.amps, np.full(8, 1 / math.sqrt(8)))


def test_compare_grover_example_agreement():
    u = BitString.from_text("101")
    v = BitString.from_text("111")
    agree = 0
    firsts = []
    for trial in range(1000):
        rng = np.random.default_rng((61, trial))
        result = compare_grover(u, v, rng)
        agree += int(result.verdict == -1)
        if result.first_difference is not None:
            firsts.append(result.first_difference)
    assert agree / 1000 >= 0.5
    assert 2 in firsts  # the true first unequal position


def test_compare_grover_equal_strings():
    u = BitString.from_text("0110")
    for trial in range(50):
        rng = np.random.default_rng((67, trial))
        result = compare_grover(u, u, rng)
        assert result.verdict == 0
        assert result.first_difference is None


def test_compare_grover_copy_budget():
    rng = np.random.default_rng(71)
    for trial in range(50):
        trng = np.random.default_rng((71, trial))
        k = int(trng.integers(2, 17))
        u = BitString.from_bits(trng.integers(0, 2, k))
        v = BitString.from_bits(trng.integers(0, 2, k))
        result = compare_grover(u, v, trng)
        lk = max(1, (k - 1).bit_length())
        assert result.copies_used <= 3 * lk * lk + 1


def test_compare_grover_length_cases():
    rng = np.random.default_rng(73)
    assert compare_grover(BitString.from_text("01"), BitString.from_text("011"), rng).verdict == -1
    assert compare_grover(BitString.from_text("011"), BitString.from_text("01"), rng).verdict == 1


def test_compare_grover_qubit_formula():
    u = BitString.from_text("10110100")
    result = compare_grover(u, u, np.random.default_rng(79))
    assert result.ledger.qubits_total == qubit_count_compare_grover(8)


def test_compare_grover_antisymmetry_on_paired_seeds():
    rng = np.random.default_rng(83)
    checked = 0
    for trial in range(200):
        trng = np.random.default_rng((83, trial))
        k = int(trng.integers(2, 17))
        u = BitString.from_bits(trng.integers(0, 2, k))
        v = BitString.from_bits(trng.integers(0, 2, k))
        if compare_classical(u, v) == 0:
            continue
        r1 = compare_grover(u, v, np.random.default_rng((1, trial)))
        r2 = compare_grover(v, u, np.random.default_rng((1, trial)))
        if r1.first_difference is not None and r1.first_difference == r2.first_difference:
            checked += 1
            assert r1.verdict == -r2.verdict
    assert checked > 50


def test_compare_grover_phase_records_monotone():
    rng = np.random.default_rng(89)
    for trial in range(100):
        trng = np.random.default_rng((89, trial))
        u = BitString.from_bits(trng.integers(0, 2, 12))
        v = BitString.from_bits(trng.integers(0, 2, 12))
        result = compare_grover(u, v, trng)
        keys = [(rec.phi, rec.psi) for rec in result.records]
        assert all(keys[i + 1] < keys[i] for i in range(len(keys) - 1))


def _reference_durr_hoyer_min(key_of, domain, rng, state_factory, ledger, initial_key, on_phase):
    """Minimum finding over a key function, one key_of call per index and
    phase: the form compare_grover used with tuple keys before it passed
    ranks."""
    best_index, best_key = None, initial_key
    log_m = max(1, math.ceil(math.log2(max(2, domain))))
    total_iterations = 0
    phases = 0
    for phase in range(3 * log_m):
        threshold = best_key
        truth = np.zeros(1 << max(1, (domain - 1).bit_length()), dtype=bool)
        for a in range(domain):
            truth[a] = key_of(a) < threshold
        oracle = OracleSpec(domain, truth, evaluation_cost=1)
        phases += 1
        outcome = bbht_search(
            oracle, rng, state_factory, doubling_schedule(domain)[:log_m], ledger,
        )
        total_iterations += outcome.iterations_used
        if outcome.found_index is None:
            on_phase(phase, None, best_key)
            break
        best_index = outcome.found_index
        best_key = key_of(best_index)
        on_phase(phase, best_index, best_key)
    return best_index, phases, total_iterations


def _reference_compare_grover(u, v, rng):
    """compare_grover's search over the keys (1 - [u_a != v_a], a)."""
    k = min(len(u), len(v))
    template = build_compare_state(u, v)
    differs = u.array[:k] != v.array[:k]
    ledger = ResourceLedger()
    records = []

    def on_phase(phase, found, key):
        if found is not None:
            records.append(PhaseRecord(phi=key[0], psi=key[1], phase=phase))

    out = _reference_durr_hoyer_min(
        lambda a: (int(not differs[a]), a), k, rng,
        lambda: StructuredState.like(template), ledger, (1, k), on_phase,
    )
    best = out[0]
    if best is not None and differs[best]:
        access_element(u, v, best, ledger)
    return out, tuple(records), ledger


def test_compare_grover_rank_keys_match_tuple_reference(monkeypatch):
    searches = []
    real = qcompare.durr_hoyer_min

    def recording(*args, **kwargs):
        searches.append(real(*args, **kwargs))
        return searches[-1]

    monkeypatch.setattr(qcompare, "durr_hoyer_min", recording)
    differing = 0
    for pair in range(60):
        make = np.random.default_rng((61, pair))
        k = int(make.integers(1, 41))
        u = make.integers(0, 2, k + int(make.integers(0, 3)))
        shared = int(make.integers(0, k + 1))  # shared == k: equal prefixes
        v = np.concatenate((u[:shared], make.integers(0, 2, k + 1 - shared)))[: k + 1]
        u, v = BitString.from_bits(u), BitString.from_bits(v)
        rng, ref_rng = np.random.default_rng((62, pair)), np.random.default_rng((62, pair))
        result = compare_grover(u, v, rng)
        (best, phases, iterations), records, ledger = _reference_compare_grover(u, v, ref_rng)
        found = searches[-1]
        assert (found.index, found.phases, found.iterations) == (best, phases, iterations)
        assert result.phases == phases
        assert result.records == records
        if result.first_difference is not None:
            differing += 1
            assert result.first_difference == best + 1
        assert result.ledger.counters() == ledger.counters()
        assert result.ledger.phase_breakdown == ledger.phase_breakdown
        assert rng.random() == ref_rng.random()
    assert 0 < differing < 60


def test_compare_bsearch_example():
    u = BitString.from_text("0110")
    v = BitString.from_text("0100")
    agree = 0
    for trial in range(300):
        rng = np.random.default_rng((97, trial))
        params = compare_params(u, v, 0.1, rng)
        result = compare_bsearch(u, v, params, rng)
        if result.verdict == 1:
            agree += 1
            if result.first_difference is not None:
                assert result.first_difference == 3
    assert agree / 300 >= 0.8


def test_compare_bsearch_builds_no_search_state(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("compare_bsearch built a search state")

    monkeypatch.setattr(StructuredState, "__init__", refuse)
    monkeypatch.setattr(StructuredState, "like", refuse)
    pairs = [("0110", "0100"), ("100110", "100110"), ("0111", "011")]
    for trial, (u_text, v_text) in enumerate(pairs):
        u, v = BitString.from_text(u_text), BitString.from_text(v_text)
        rng = np.random.default_rng((173, trial))
        params = compare_params(u, v, 0.01, rng)
        result = compare_bsearch(u, v, params, rng, backend=StructuredState)
        assert result.verdict == compare_classical(u, v), (u_text, v_text)


def test_compare_bsearch_equal_strings():
    u = BitString.from_text("100110")
    for trial in range(50):
        rng = np.random.default_rng((101, trial))
        params = compare_params(u, u, 0.25, rng)
        result = compare_bsearch(u, u, params, rng)
        assert result.verdict == 0 and result.first_difference is None


def _bits_reduced(monkeypatch):
    """Wrap fingerprint.segment_hash, which compare_bsearch calls through
    the module, to record (value, stop - start) per call."""
    calls = []
    segment_hash = fingerprint.segment_hash

    def record(value, start, stop, p):
        calls.append((value, stop - start))
        return segment_hash(value, start, stop, p)

    monkeypatch.setattr(fingerprint, "segment_hash", record)
    return calls


@pytest.mark.parametrize("k", [5, 100, 4096])
def test_compare_bsearch_reduces_fewer_than_k_bits_per_string(monkeypatch, k):
    """Each probe reduces only the bits its bracket adds past lo, so an
    op reduces at most k - 1 bits of each string, under real verdicts on
    random pairs and under every sequence of verdicts; hashing each
    probe's prefix from bit 0 reduces up to about k log2 k."""
    calls = _bits_reduced(monkeypatch)
    make = np.random.default_rng((79, k))

    def bits_per_string(u, v, params, rng):
        calls.clear()
        compare_bsearch(u, v, params, rng)
        return [sum(bits for value, bits in calls if value == string)
                for string in (u.to_int(), v.to_int())]

    for trial in range(20):
        u, v = _bsearch_pair(k, (0, 0), int(make.integers(1, k + 1)), make)
        rng = np.random.default_rng((83, k, trial))
        reduced = bits_per_string(u, v, compare_params(u, v, 0.5, rng), rng)
        assert reduced[0] == reduced[1] <= k - 1
    u, v = _bsearch_pair(k, (0, 0), k, make)
    params = _params(2, k)
    for verdicts in itertools.product((True, False), repeat=index_width(k)):
        answers = iter(verdicts)
        monkeypatch.setattr(qcompare, "hash_equality_eval", lambda *args: next(answers))
        reduced = bits_per_string(u, v, params, np.random.default_rng(89))
        assert reduced[0] == reduced[1] <= k - 1, verdicts


def test_compare_bsearch_exact_comparison_count():
    for trial in range(200):
        rng = np.random.default_rng((103, trial))
        ku = int(rng.integers(1, 33))
        kv = int(rng.integers(1, 33))
        u = BitString.from_bits(rng.integers(0, 2, ku))
        v = BitString.from_bits(rng.integers(0, 2, kv))
        k = min(ku, kv)
        params = compare_params(u, v, 0.25, rng)
        result = compare_bsearch(u, v, params, rng)
        assert result.hash_comparisons == (k - 1).bit_length()
        assert result.phases == result.hash_comparisons


def test_compare_bsearch_length_cases():
    rng = np.random.default_rng(107)
    u, v = BitString.from_text("01"), BitString.from_text("011")
    params = compare_params(u, v, 0.25, rng)
    assert compare_bsearch(u, v, params, rng).verdict == -1
    params = compare_params(v, u, 0.25, rng)
    assert compare_bsearch(v, u, params, rng).verdict == 1


def test_compare_bsearch_qubit_formula():
    rng = np.random.default_rng(109)
    u = BitString.from_bits(rng.integers(0, 2, 16))
    v = BitString.from_bits(rng.integers(0, 2, 16))
    params = compare_params(u, v, 0.1, rng)
    result = compare_bsearch(u, v, params, rng)
    assert result.ledger.qubits_total == qubit_count_compare_bsearch(16, 0.1, p=params.p)


def test_compare_bsearch_undersized_params_rejected():
    u = BitString.from_bits([0, 1] * 8)
    params = _params(5, k=4)
    with pytest.raises(ValueError):
        compare_bsearch(u, u, params, np.random.default_rng(0))


def test_compare_bsearch_collision_free_prime_tracks_classical():
    # p = 65537 exceeds every prefix value of 16-bit strings, so prefix
    # hashes are injective and only inner-search misses could interfere.
    params = HashParams(p=65537, epsilon=0.03, delta=16, max_len=16,
                        r=universe_size(16, 16, 0.03))
    agree = 0
    for trial in range(400):
        rng = np.random.default_rng((113, trial))
        u = BitString.from_bits(rng.integers(0, 2, 16))
        v = BitString.from_bits(rng.integers(0, 2, 16))
        result = compare_bsearch(u, v, params, rng)
        agree += int(result.verdict == compare_classical(u, v))
    assert agree / 400 >= 0.98


def test_compare_bsearch_agreement_random_pairs():
    agree = 0
    for trial in range(400):
        rng = np.random.default_rng((127, trial))
        ku = int(rng.integers(1, 65))
        kv = int(rng.integers(1, 65))
        u = BitString.from_bits(rng.integers(0, 2, ku))
        v = BitString.from_bits(rng.integers(0, 2, kv))
        params = compare_params(u, v, 0.1, rng)
        result = compare_bsearch(u, v, params, rng)
        agree += int(result.verdict == compare_classical(u, v))
    assert agree / 400 >= 0.8


def test_compare_grover_dense_and_structured_runs_agree():
    # same seed, same pair: the two backends must give the same whole run
    def run(u, v, trial, backend):
        r = compare_grover(u, v, np.random.default_rng((151, trial)), backend=backend)
        return (r.verdict, r.first_difference, r.phases, r.copies_used, r.records,
                r.ledger.counters())

    pair_rng = np.random.default_rng(149)
    for trial in range(60):
        u = BitString.from_bits(pair_rng.integers(0, 2, int(pair_rng.integers(1, 9))))
        v = BitString.from_bits(pair_rng.integers(0, 2, int(pair_rng.integers(1, 9))))
        assert run(u, v, trial, StructuredState) == run(u, v, trial, DenseSearchState), (str(u), str(v))


def test_compare_grover_binds_the_symbols_only_for_the_dense_backend(monkeypatch):
    # a structured run reads no bindings, so it starts from an unbound template
    built = []
    real = qcompare.build_compare_state

    def refuse(*args, **kwargs):
        raise AssertionError("a structured compare_grover built the bound template")

    def counted(u, v):
        built.append((str(u), str(v)))
        return real(u, v)

    pairs = [("0110", "0100"), ("100110", "100110"), ("0111", "011")]
    for backend, build in ((StructuredState, refuse), (DenseSearchState, counted)):
        monkeypatch.setattr(qcompare, "build_compare_state", build)
        for trial, (u_text, v_text) in enumerate(pairs):
            u, v = BitString.from_text(u_text), BitString.from_text(v_text)
            compare_grover(u, v, np.random.default_rng((181, trial)), backend=backend)
    assert built == pairs


def test_empty_string_edge():
    rng = np.random.default_rng(131)
    empty = BitString.from_bits([])
    one = BitString.from_text("1")
    assert compare_grover(empty, one, rng).verdict == -1
    assert compare_grover(empty, empty, rng).verdict == 0
    params = _params(5, k=2)
    assert compare_bsearch(empty, one, params, rng).verdict == -1


# (ku, kv, first difference or None, epsilon, seed): u is random, v copies
# u's first min(ku, kv) bits, flips the first difference and redraws what
# follows it (see _compare_pair).  Dense runs cover k <= 11 only.
COMPARE_CASES = [
    (1, 1, 1, 0.1, 201),
    (1, 1, None, 0.5, 202),
    (2, 3, None, 0.25, 203),
    (3, 2, 2, 0.1, 204),
    (4, 4, 3, 0.5, 205),
    (5, 5, None, 0.1, 206),
    (6, 9, 6, 0.25, 207),
    (7, 7, 1, 0.5, 208),
    (8, 8, 8, 0.1, 209),
    (9, 6, None, 0.25, 210),
    (10, 10, 4, 0.1, 211),
    (11, 11, None, 0.5, 212),
    (11, 12, 11, 0.25, 213),
    (33, 33, 17, 0.1, 214),
    (64, 70, None, 0.25, 215),
    (100, 100, None, 0.1, 216),
    (129, 128, 1, 0.5, 217),
    (200, 200, 150, 0.1, 218),
    (256, 300, 255, 0.25, 219),
    (300, 300, 299, 0.1, 220),
]

# (p or None, verdict, first_difference, phases, hash_comparisons,
# copies_used, ledger counters in ResourceLedger.counters() order,
# qubits_total, the generator's next random() after the run), one row
# per case, recorded before the rho-fold equality test became one call.
COMPARE_RUNS = {
    ("grover", "structured"): [
        (None, 0, None, 1, 0, 1, (1, 1, 0, 0, 1), 16, 0.5366333278673542),
        (None, 0, None, 2, 0, 2, (2, 2, 0, 0, 2), 16, 0.815755133576451),
        (None, -1, None, 3, 0, 3, (3, 3, 0, 0, 3), 16, 0.23097923943847576),
        (None, 1, 2, 2, 0, 3, (2, 2, 0, 1, 2), 16, 0.6185953810840853),
        (None, 0, None, 2, 0, 3, (8, 4, 0, 0, 4), 57, 0.1903906985834154),
        (None, 0, None, 3, 0, 7, (39, 13, 0, 0, 13), 146, 0.8604788528960651),
        (None, -1, None, 2, 0, 5, (30, 10, 0, 0, 10), 146, 0.4795159230367627),
        (None, -1, 1, 3, 0, 8, (45, 15, 0, 3, 15), 146, 0.9457603147220145),
        (None, 1, 8, 4, 0, 10, (54, 18, 0, 3, 18), 146, 0.34603335432472815),
        (None, 1, None, 4, 0, 8, (42, 14, 0, 0, 14), 146, 0.809723018338809),
        (None, -1, 4, 2, 0, 6, (40, 10, 0, 4, 10), 301, 0.9952068953773553),
        (None, 0, None, 4, 0, 8, (56, 14, 0, 0, 14), 301, 0.23822085167947937),
        (None, 1, 11, 5, 0, 10, (60, 15, 0, 4, 15), 301, 0.049766841677613805),
        (None, 1, 17, 3, 0, 7, (102, 17, 0, 6, 17), 881, 0.9633667646237928),
        (None, -1, None, 6, 0, 10, (132, 22, 0, 0, 22), 881, 0.32209063569141894),
        (None, 0, None, 5, 0, 14, (469, 67, 0, 0, 67), 1342, 0.9304995804832804),
        (None, -1, 1, 7, 0, 16, (469, 67, 0, 7, 67), 1342, 0.9408292886153033),
        (None, 1, 150, 8, 0, 18, (560, 70, 0, 8, 70), 1941, 0.7316771455697028),
        (None, -1, 255, 8, 0, 20, (496, 62, 0, 8, 62), 1941, 0.44429653766622423),
        (None, -1, 299, 6, 0, 16, (684, 76, 0, 9, 76), 2696, 0.8603522057887947),
    ],
    ("grover", "dense"): [
        (None, 0, None, 1, 0, 1, (1, 1, 0, 0, 1), 16, 0.5366333278673542),
        (None, 0, None, 2, 0, 2, (2, 2, 0, 0, 2), 16, 0.815755133576451),
        (None, -1, None, 3, 0, 3, (3, 3, 0, 0, 3), 16, 0.23097923943847576),
        (None, 1, 2, 2, 0, 3, (2, 2, 0, 1, 2), 16, 0.6185953810840853),
        (None, 0, None, 2, 0, 3, (8, 4, 0, 0, 4), 57, 0.1903906985834154),
        (None, 0, None, 3, 0, 7, (39, 13, 0, 0, 13), 146, 0.8604788528960651),
        (None, -1, None, 2, 0, 5, (30, 10, 0, 0, 10), 146, 0.4795159230367627),
        (None, -1, 1, 3, 0, 8, (45, 15, 0, 3, 15), 146, 0.9457603147220145),
        (None, 1, 8, 4, 0, 10, (54, 18, 0, 3, 18), 146, 0.34603335432472815),
        (None, 1, None, 4, 0, 8, (42, 14, 0, 0, 14), 146, 0.809723018338809),
        (None, -1, 4, 2, 0, 6, (40, 10, 0, 4, 10), 301, 0.9952068953773553),
        (None, 0, None, 4, 0, 8, (56, 14, 0, 0, 14), 301, 0.23822085167947937),
        (None, 1, 11, 5, 0, 10, (60, 15, 0, 4, 15), 301, 0.049766841677613805),
    ],
    ("bsearch", "structured"): [
        (29, -1, 1, 0, 0, 0, (0, 0, 0, 0, 0), 18, 0.5366333278673542),
        (2, 0, None, 0, 0, 0, (0, 0, 0, 0, 0), 10, 0.443655907974409),
        (19, -1, None, 1, 1, 1, (0, 0, 15, 2, 60), 20, 0.08744487235742626),
        (83, 1, 2, 1, 1, 1, (0, 0, 15, 2, 60), 24, 0.201697595768344),
        (31, 1, 3, 2, 2, 2, (0, 0, 60, 6, 240), 34, 0.13521806600135755),
        (1579, 0, None, 3, 3, 3, (0, 0, 180, 12, 900), 86, 0.3218525024234009),
        (659, 1, 6, 3, 3, 3, (0, 0, 180, 12, 900), 80, 0.5754378204739157),
        (109, -1, 1, 3, 3, 3, (0, 0, 90, 12, 360), 62, 0.9107359957257065),
        (53, 1, 8, 3, 3, 3, (0, 0, 90, 12, 360), 56, 0.1387807034803612),
        (701, 1, None, 3, 3, 3, (0, 0, 180, 12, 900), 80, 0.015554432061231305),
        (3539, -1, 4, 4, 4, 4, (0, 0, 240, 20, 1200), 124, 0.43693134692092306),
        (739, 0, None, 4, 4, 4, (0, 0, 240, 20, 1200), 108, 0.7864192775469916),
        (1487, 1, 11, 4, 4, 4, (0, 0, 240, 20, 1200), 116, 0.4045101542081371),
        (223, 1, 17, 6, 6, 6, (0, 0, 180, 42, 720), 146, 0.7793391150390931),
        (164431, -1, None, 6, 6, 6, (0, 0, 558, 42, 3348), 266, 0.04594512917235738),
        (41479, 0, None, 7, 7, 7, (0, 0, 420, 56, 2100), 288, 0.1017327564806878),
        (69029, -1, 1, 7, 7, 7, (0, 0, 651, 56, 3906), 302, 0.8061759807679142),
        (1200799, 1, 150, 8, 8, 8, (0, 0, 744, 72, 4464), 416, 0.42456226010376397),
        (3624811, -1, 255, 8, 8, 8, (0, 0, 744, 72, 4464), 432, 0.47048057382463715),
        (12477391, -1, 299, 9, 9, 9, (0, 0, 837, 90, 5022), 530, 0.31077035260824115),
    ],
    ("bsearch", "dense"): [
        (29, -1, 1, 0, 0, 0, (0, 0, 0, 0, 0), 18, 0.5366333278673542),
        (2, 0, None, 0, 0, 0, (0, 0, 0, 0, 0), 10, 0.443655907974409),
        (19, -1, None, 1, 1, 1, (0, 0, 15, 2, 60), 20, 0.6182494391315174),
        (83, 1, 2, 1, 1, 1, (0, 0, 15, 2, 60), 24, 0.7635376850713563),
        (31, 1, 3, 2, 2, 2, (0, 0, 60, 6, 240), 34, 0.8564519629435836),
        (1579, 0, None, 3, 3, 3, (0, 0, 180, 12, 900), 86, 0.5550057854448134),
        (659, 1, 6, 3, 3, 3, (0, 0, 180, 12, 900), 80, 0.30970505427697703),
        (109, -1, 1, 3, 3, 3, (0, 0, 90, 12, 360), 62, 0.9107359957257065),
        (53, 1, 8, 3, 3, 3, (0, 0, 90, 12, 360), 56, 0.8150749333726061),
        (701, 1, None, 3, 3, 3, (0, 0, 180, 12, 900), 80, 0.8137258167859861),
        (3539, -1, 4, 4, 4, 4, (0, 0, 240, 20, 1200), 124, 0.8699324686918725),
        (739, 0, None, 4, 4, 4, (0, 0, 240, 20, 1200), 108, 0.4531924597444502),
        (1487, 1, 11, 4, 4, 4, (0, 0, 240, 20, 1200), 116, 0.8713860809298071),
    ],
}


def _compare_pair(ku, kv, first_difference, seed):
    make = np.random.default_rng((7, seed))
    u = make.integers(0, 2, ku)
    v = np.concatenate((u, make.integers(0, 2, max(0, kv - ku))))[:kv]
    if first_difference is not None:
        v[first_difference - 1] ^= 1
        v[first_difference:] = make.integers(0, 2, kv - first_difference)
    return BitString.from_bits(u), BitString.from_bits(v)


@pytest.mark.parametrize("name, backend_id", list(COMPARE_RUNS))
def test_compare_runs_are_pinned(name, backend_id):
    backend = {"structured": StructuredState, "dense": DenseSearchState}[backend_id]
    cases = [c for c in COMPARE_CASES if backend_id == "structured" or min(c[:2]) <= 11]
    assert len(cases) == len(COMPARE_RUNS[name, backend_id])
    for case, expected in zip(cases, COMPARE_RUNS[name, backend_id]):
        ku, kv, first_difference, epsilon, seed = case
        u, v = _compare_pair(ku, kv, first_difference, seed)
        rng = np.random.default_rng(seed)
        if name == "bsearch":
            params = compare_params(u, v, epsilon, rng)
            result, p = compare_bsearch(u, v, params, rng, backend=backend), params.p
        else:
            result, p = compare_grover(u, v, rng, backend=backend), None
        got = (
            p,
            result.verdict,
            result.first_difference,
            result.phases,
            result.hash_comparisons,
            result.copies_used,
            tuple(result.ledger.counters().values()),
            result.ledger.qubits_total,
            rng.random(),
        )
        assert got == expected, case


def _bsearch_pair(k, extra, first_difference, make):
    """u random of length k + extra[0], v of length k + extra[1], equal up
    to `first_difference` (1-indexed), which is flipped unless None."""
    u = make.integers(0, 2, k + extra[0])
    v = np.concatenate((u[:k], make.integers(0, 2, extra[1])))
    if first_difference is not None:
        v[first_difference - 1] ^= 1
        v[first_difference:k] = make.integers(0, 2, k - first_difference)
    return BitString.from_bits(u), BitString.from_bits(v)


def _bsearch_runs_digest(k, runs, seed, backend):
    """sha256 over `runs` seeded compare_params + compare_bsearch runs at
    k: the prime, the result fields, the ledger (counters and phases) and
    the generator's next random() after each run.  One run in eight
    compares equal prefixes; lengths differ by up to two bits."""
    make = np.random.default_rng((53, seed))
    rows = []
    for run in range(runs):
        extra = tuple(int(e) for e in make.integers(0, 3, 2))
        first_difference = None if run % 8 == 7 else int(make.integers(1, k + 1))
        u, v = _bsearch_pair(k, extra, first_difference, make)
        rng = np.random.default_rng((seed, run))
        params = compare_params(u, v, 0.1, rng)
        result = compare_bsearch(u, v, params, rng, backend=backend)
        ledger = result.ledger
        rows.append((
            params.p, result.verdict, result.first_difference, result.phases,
            result.hash_comparisons, result.copies_used,
            tuple(ledger.counters().values()), ledger.qubits_total,
            tuple(ledger.phase_breakdown), rng.random(),
        ))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


# (k, runs, seed, backend, sha256 of the runs), recorded before the
# comparator spliced its probe residues from the bracket's low end.
BSEARCH_DIGESTS = [
    (4096, 64, 4096, StructuredState,
     "afba463797c213ce6d600f20acdd04d00d69e92bdbbe1a94097d1dec3092932b"),
    (5, 16, 5, StructuredState,
     "4098441af5b3c0d92985abe89e6578c33a3da208c1959a3592c5a60a362615da"),
    (5, 16, 5, DenseSearchState,
     "937b203a646c56040a27d68898f38dab569e9bae86c202d7cbec1c43fe14e93b"),
    (100, 16, 100, StructuredState,
     "ba5d81746cda1aacf34ea2bb17cc18628621f17bdeb67ed1fbed243ecd2e70af"),
    (20000, 8, 20000, StructuredState,
     "10f7adddac448ddcb6c68f69c7fd319af71bbb1cc1b158d108f26ab78f0ed537"),
]


@pytest.mark.parametrize("k, runs, seed, backend, digest", BSEARCH_DIGESTS)
def test_compare_bsearch_runs_are_pinned(k, runs, seed, backend, digest):
    assert _bsearch_runs_digest(k, runs, seed, backend) == digest


def _replay_probes(probes, k, u, v, p):
    """Replay the bisection from the recorded (reference, candidate,
    verdict) probes, asserting that each probe's residues are those of
    the probed prefixes, reduced from scratch; returns the final hi."""
    value_u, value_v = u.to_int(), v.to_int()
    assert len(probes) == index_width(k)
    lo, hi = 0, k
    for reference, candidate, equal in probes:
        mid = (lo + hi) // 2 if hi - lo > 1 else hi
        mask = (1 << mid) - 1
        assert (reference, candidate) == ((value_u & mask) % p, (value_v & mask) % p)
        if not equal:
            hi = mid
        elif mid < hi:
            lo = mid
    return hi


def _record_probes(monkeypatch, verdict=None):
    """Wrap qcompare.hash_equality_eval to record each probe; with
    `verdict`, a callable of no arguments, its answer replaces the
    evaluation's (which still runs)."""
    probes = []
    evaluate = qcompare.hash_equality_eval

    def record(reference, candidate, *args):
        equal = evaluate(reference, candidate, *args)
        if verdict is not None:
            equal = verdict()
        probes.append((reference, candidate, equal))
        return equal

    monkeypatch.setattr(qcompare, "hash_equality_eval", record)
    return probes


# (k, extra bits of (u, v), first difference or None, forced p or None
# for a drawn one, backend)
SPLICE_CASES = [
    (1, (0, 0), 1, None, StructuredState),
    (1, (0, 1), None, None, StructuredState),
    (2, (0, 0), 2, None, StructuredState),
    (2, (1, 0), None, None, DenseSearchState),
    (3, (0, 0), 2, None, StructuredState),
    (3, (0, 0), None, 2, DenseSearchState),
    (5, (0, 0), 3, None, StructuredState),
    (5, (0, 0), 4, None, DenseSearchState),
    (5, (0, 2), None, None, DenseSearchState),
    (5, (0, 0), 5, 2, StructuredState),
    (4096, (0, 0), 1000, None, StructuredState),
    (4096, (0, 2), None, None, StructuredState),
    (4096, (1, 0), 4000, 2, StructuredState),
    (20000, (0, 0), 12345, None, StructuredState),
    (20000, (0, 1), None, None, StructuredState),
    (20000, (0, 0), 19999, 2, StructuredState),
]


@pytest.mark.parametrize("k, extra, first_difference, forced_p, backend", SPLICE_CASES)
def test_compare_bsearch_spliced_residues_match_prefix_hashes(
    monkeypatch, k, extra, first_difference, forced_p, backend
):
    """Every probe's residues, spliced from the bracket's low end, equal
    the from-scratch residues of the probed prefixes."""
    probes = _record_probes(monkeypatch)
    make = np.random.default_rng((59, k))
    for trial in range(4):
        u, v = _bsearch_pair(k, extra, first_difference, make)
        rng = np.random.default_rng((61, k, trial))
        params = _params(forced_p, k) if forced_p else compare_params(u, v, 0.1, rng)
        probes.clear()
        result = compare_bsearch(u, v, params, rng, backend=backend)
        hi = _replay_probes(probes, k, u, v, params.p)
        assert result.first_difference in (None, hi)


def test_compare_bsearch_splices_exactly_under_any_verdicts(monkeypatch):
    """Scripted random verdicts walk the bisection down paths the real
    test rarely takes (a collision or a missed difference at any probe);
    the residues stay exact on every one."""
    script = np.random.default_rng(67)
    probes = _record_probes(monkeypatch, verdict=lambda: bool(script.random() < 0.5))
    make = np.random.default_rng(71)
    for k in [*range(1, 70), 4096]:
        for trial in range(8):
            u, v = _bsearch_pair(k, (0, 0), int(make.integers(1, k + 1)), make)
            rng = np.random.default_rng((73, k, trial))
            params = compare_params(u, v, 0.5, rng)
            probes.clear()
            compare_bsearch(u, v, params, rng)
            _replay_probes(probes, k, u, v, params.p)
