import math

import numpy as np
import pytest

from qstrings import qcompare
from qstrings.fingerprint import HashParams, universe_size
from qstrings.grover import OracleSpec, bbht_search
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
    qubit_count_compare_bsearch,
    qubit_count_compare_grover,
)
from qstrings.strings_core import BitString, compare_classical


def _params(p, k, epsilon=0.5):
    return HashParams(p=p, epsilon=epsilon, delta=k, max_len=k,
                      r=universe_size(k, k, epsilon))


def test_access_element_structured():
    u = BitString.from_text("1011")
    v = BitString.from_text("1001")
    state = build_compare_state(u, v)
    struct = state.symbol_copy("structured")
    ledger = ResourceLedger()
    assert access_element(struct, 0, ("u", "v"), ledger, domain=4) == (1, 1)
    assert access_element(struct, 2, ("u", "v"), ledger, domain=4) == (1, 0)
    assert access_element(struct, 3, ("u",), ledger, domain=4) == (1,)
    # uniform charge per access: ceil(log2 4) each
    assert ledger.access_units == 3 * 2
    with pytest.raises(IndexError):
        access_element(struct, 99, ("u",))


def test_access_element_dense_matches_structured():
    u = BitString.from_text("101")
    v = BitString.from_text("111")
    state = build_compare_state(u, v)
    dense = state.symbol_copy("dense")
    struct = state.symbol_copy("structured")
    for i in range(3):
        assert access_element(dense, i, ("u", "v")) == access_element(struct, i, ("u", "v"))


def test_symbol_copies_share_read_only_bindings_and_evolve_independently():
    state = build_compare_state(BitString.from_text("10110"), BitString.from_text("10011"))
    with pytest.raises(ValueError):
        state.u_bits[0] = 1
    a, b = state.symbol_copy("structured"), state.symbol_copy("structured")
    assert a.bindings["u"] is b.bindings["u"] is state.u_bits
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
            oracle, rng, lambda rep, _phase=phase: state_factory(_phase, rep), ledger,
            max_repetitions=log_m,
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
    state = build_compare_state(u, v)
    differs = state.u_bits[:k] != state.v_bits[:k]
    ledger = ResourceLedger()
    records = []

    def on_phase(phase, found, key):
        if found is not None:
            records.append(PhaseRecord(phi=key[0], psi=key[1], phase=phase))

    out = _reference_durr_hoyer_min(
        lambda a: (int(not differs[a]), a), k, rng,
        lambda _phase, _rep: state.symbol_copy("structured"), ledger, (1, k), on_phase,
    )
    best = out[0]
    if best is not None and differs[best]:
        access_element(state.symbol_copy("structured"), best, ("u", "v"), ledger, domain=k)
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
        assert searches[-1] == (best, phases, iterations)
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


def test_compare_bsearch_equal_strings():
    u = BitString.from_text("100110")
    for trial in range(50):
        rng = np.random.default_rng((101, trial))
        params = compare_params(u, u, 0.25, rng)
        result = compare_bsearch(u, u, params, rng)
        assert result.verdict == 0 and result.first_difference is None


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
    def run(u, v, trial, mode):
        r = compare_grover(u, v, np.random.default_rng((151, trial)), mode=mode)
        return (r.verdict, r.first_difference, r.phases, r.copies_used, r.records,
                r.ledger.counters())

    pair_rng = np.random.default_rng(149)
    for trial in range(60):
        u = BitString.from_bits(pair_rng.integers(0, 2, int(pair_rng.integers(1, 9))))
        v = BitString.from_bits(pair_rng.integers(0, 2, int(pair_rng.integers(1, 9))))
        assert run(u, v, trial, "structured") == run(u, v, trial, "dense"), (str(u), str(v))


def test_compare_bsearch_unknown_mode_rejected():
    u = BitString.from_text("1")
    v = BitString.from_text("0")
    params = _params(3, k=1)
    with pytest.raises(ValueError, match="unknown mode"):
        compare_bsearch(u, v, params, np.random.default_rng(0), mode="bogus")


def test_empty_string_edge():
    rng = np.random.default_rng(131)
    empty = BitString.from_bits([])
    one = BitString.from_text("1")
    assert compare_grover(empty, one, rng).verdict == -1
    assert compare_grover(empty, empty, rng).verdict == 0
    params = _params(5, k=2)
    assert compare_bsearch(empty, one, params, rng).verdict == -1
