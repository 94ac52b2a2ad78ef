import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qstrings import fingerprint, qmatch
from qstrings.fingerprint import HashParams, rolling_hash, universe_size
from qstrings.qmatch import (
    MatchResult,
    evaluation_constants,
    hash_equality_eval,
    inner_schedule,
    match_params,
    match_search,
    match_unique,
    miss_probability_table,
    prepare_match_state,
)
from qstrings.resources import ResourceLedger, qubit_count_match, qubit_count_match_unique
from qstrings.sim import DenseSearchState, StructuredState, expand_structured
from qstrings.strings_core import BitString, MatchInstance, naive_match_all
from support import random_multi_occurrence


def _params(p, delta, max_len, epsilon=0.5):
    return HashParams(p=p, epsilon=epsilon, delta=delta, max_len=max_len,
                      r=universe_size(delta, max_len, epsilon))


def test_inner_schedule_shape():
    assert inner_schedule(1) == [1]
    assert inner_schedule(4) == [1, 2, 4]
    assert inner_schedule(16) == [1, 2, 4, 8]
    assert inner_schedule(32) == [1, 2, 4, 8, 16]


@pytest.mark.parametrize("domain", [1, 2, 4, 8, 16, 32, 64, 128])
def test_worst_eval_miss_below_one_third(domain):
    # exhaustive over every possible differing-bit count
    assert evaluation_constants(domain).worst_miss <= 1 / 3 + 1e-12


def test_miss_table_endpoints():
    table = miss_probability_table(4)
    assert table[0] == 1.0  # no witness exists
    assert table[1] == pytest.approx(0.0, abs=1e-12)  # found with certainty
    assert table[4] == pytest.approx(0.0, abs=1e-12)  # all bits differ


@pytest.mark.parametrize("backend", [StructuredState, DenseSearchState], ids=["structured", "dense"])
def test_equal_hashes_always_judged_equal(backend):
    rng = np.random.default_rng(0)
    for _ in range(50):
        assert hash_equality_eval(5, 5, 4, 1, rng, backend, ResourceLedger()) == 1
    # no differing bit: the structured backend has nothing to draw
    assert hash_equality_eval(5, 5, 4, 4, rng, backend, ResourceLedger())
    if backend is StructuredState:
        assert rng.random() == np.random.default_rng(0).random()


def test_one_differing_bit_of_four_found_with_certainty_dense():
    rng = np.random.default_rng(1)
    a, b = 0b1010, 0b1000
    for _ in range(50):
        assert hash_equality_eval(a, b, 4, 1, rng, DenseSearchState, ResourceLedger()) == 0


def test_all_bits_differing_found_with_certainty():
    rng = np.random.default_rng(2)
    a, b = 0b0000, 0b1111
    for backend in (StructuredState, DenseSearchState):
        for _ in range(30):
            assert hash_equality_eval(a, b, 4, 1, rng, backend, ResourceLedger()) == 0


@pytest.mark.parametrize("backend", [StructuredState, DenseSearchState], ids=["structured", "dense"])
def test_rho_fold_test_runs_every_evaluation(backend):
    # one rho-fold test draws and charges as rho single evaluations do
    a, b = 0b0011, 0b0000
    for seed in range(20):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        ledger, ref_ledger = ResourceLedger(), ResourceLedger()
        equal = hash_equality_eval(a, b, 4, 3, rng, backend, ledger)
        singles = [hash_equality_eval(a, b, 4, 1, ref_rng, backend, ref_ledger) for _ in range(3)]
        assert equal == all(singles)
        assert ledger.counters() == ref_ledger.counters()
        assert ledger.hash_eval_units == 3 * evaluation_constants(4).gate_units
        assert rng.random() == ref_rng.random()


def test_eval_modes_agree_in_distribution():
    # two differing bits of four: per-evaluation miss 1/4 * 1/4 * 3/4
    a, b = 0b0011, 0b0000
    trials = 4000
    rates = {}
    for backend in (StructuredState, DenseSearchState):
        rng = np.random.default_rng(99)
        rates[backend] = sum(
            hash_equality_eval(a, b, 4, 1, rng, backend, ResourceLedger()) for _ in range(trials)
        ) / trials
    assert abs(rates[StructuredState] - rates[DenseSearchState]) < 0.05


def test_prepare_match_state_layout():
    inst = MatchInstance(BitString.from_text("010101"), BitString.from_text("010"))
    params = _params(7, delta=4, max_len=3)
    spec = prepare_match_state(inst, params)
    assert spec.make_copy().index_width == 2
    assert spec.window_hash_table.shape == (4,)  # the padded window domain
    assert spec.window_hash_table[0] == rolling_hash(inst.text.substring(1, 3), 7)


def test_prepare_match_state_padding_sentinel():
    inst = MatchInstance(BitString.from_text("01010"), BitString.from_text("01"))
    params = _params(5, delta=4, max_len=2)
    spec = prepare_match_state(inst, params)  # N=4, padded already; now force padding
    inst2 = MatchInstance(BitString.from_text("010100"), BitString.from_text("01"))
    spec2 = prepare_match_state(inst2, _params(5, delta=5, max_len=2))  # N=5 -> pad 8
    assert all(spec2.window_hash_table[5:] != spec2.pattern_hash)
    oracle = spec2.oracle()
    assert not oracle.truth[5:].any()
    assert spec.pattern_hash == rolling_hash(inst.pattern, 5)


def test_prepare_match_state_builds_the_table_in_place(monkeypatch):
    # window residues go straight into the padded table, through buffers
    # of one chunk, so the build allocates little beyond the table itself
    monkeypatch.setattr(fingerprint, "_WINDOW_CHUNK", 1 << 12)
    rng = np.random.default_rng(18)
    inst = MatchInstance(BitString.from_bits(rng.integers(0, 2, 1 << 18)),
                         BitString.from_bits(rng.integers(0, 2, 16)))
    params = qmatch.match_params(inst, 0.25, rng)
    tracemalloc.start()
    try:
        spec = prepare_match_state(inst, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = spec.window_hash_table
    assert table.size == 1 << 18 and table.dtype == np.int64
    assert peak < 1.25 * table.nbytes
    bits, count = inst.text.array.astype(np.int64), inst.num_windows
    exact = sum(bits[j : j + count] << j for j in range(16))
    assert np.array_equal(table[:count], exact % params.p)


def test_structured_copy_expansion_matches_dense_copy():
    from qstrings.sim import project_flag_minus

    inst = MatchInstance(BitString.from_text("0101"), BitString.from_text("01"))
    params = _params(5, delta=3, max_len=2)
    spec = prepare_match_state(inst, params)
    dense = spec.make_copy(DenseSearchState)
    structured = spec.make_copy(StructuredState)
    reduced = project_flag_minus(dense.state, dense.flag_register)
    assert np.allclose(reduced, expand_structured(structured).amps)


def test_copies_of_one_spec_evolve_independently():
    inst = MatchInstance(BitString.from_text("0110100110"), BitString.from_text("101"))
    spec = prepare_match_state(inst, _params(7, delta=8, max_len=3))
    oracle = spec.oracle()
    with pytest.raises(ValueError):
        spec.window_hash_table[0] = 0  # validated once, so never written after
    a, b = spec.make_copy(StructuredState), spec.make_copy(StructuredState)
    assert a is not b and not a.bindings["whash"].flags.writeable
    uniform = b.amps
    for _ in range(2):
        a.apply_phase_pattern(oracle.targets)
        a.diffuse()
    assert np.array_equal(b.amps, uniform)
    b.apply_phase_pattern(oracle.targets)
    b.diffuse()
    stepped = b.amps
    assert not np.array_equal(a.amps, stepped)
    a.measure_index(np.random.default_rng(1))
    assert np.array_equal(b.amps, stepped)
    assert np.array_equal(spec.make_copy(StructuredState).amps, uniform)
    dense = spec.make_copy(DenseSearchState)
    assert np.allclose(dense.index_probabilities(), uniform**2)


def test_match_unique_small_monte_carlo():
    inst = MatchInstance(BitString.from_text("0010"), BitString.from_text("1"))
    rng = np.random.default_rng(17)
    hits = 0
    for trial in range(500):
        trng = np.random.default_rng((17, trial))
        params = match_params(inst, 0.1, trng)
        result = match_unique(inst, params, trng)
        hits += int(result.position == 3)
    assert hits / 500 >= 0.45


def test_match_unique_single_window():
    inst = MatchInstance(BitString.from_text("101"), BitString.from_text("101"))
    params = _params(7, delta=1, max_len=3)
    result = match_unique(inst, params, np.random.default_rng(0))
    assert result.position == 1 and result.exactly_verified
    # index register is width 0 here, so both layout formulas coincide
    assert result.ledger.qubits_total == qubit_count_match_unique(3, 3, params.epsilon, p=7)
    assert result.ledger.qubits_total == qubit_count_match(3, 3, params.epsilon, p=7)


def test_match_unique_ledger_qubit_formula():
    # single-copy run: ceil(log2 N) + 2 ceil(log2 p) + ancillas
    inst = MatchInstance(BitString.from_text("00101100"), BitString.from_text("011"))
    params = _params(13, delta=6, max_len=3)
    result = match_unique(inst, params, np.random.default_rng(2))
    assert result.ledger.qubits_total == qubit_count_match_unique(8, 3, params.epsilon, p=13)
    assert result.ledger.qubits_total == 3 + 2 * 4 + 7


# (text, pattern, epsilon, seed, (position, measured_index, hash_verified,
# exactly_verified, copies_used, ledger counters in ResourceLedger.counters()
# order, qubits_total)), recorded from match_unique before it shared
# match_search's driver.  Both backends give the same run.
MATCH_UNIQUE_RUNS = [
    ("010000", "00", 0.1, 100, (None, 5, False, False, 1, (6, 2, 60, 0, 240), 26)),
    ("1110010", "001", 0.5, 101, (4, 3, True, True, 1, (6, 2, 60, 0, 240), 24)),
    ("00001111", "0", 0.9, 102, (None, 4, False, False, 1, (6, 2, 42, 0, 126), 18)),
    ("01100001", "000", 0.1, 103, (None, 6, False, False, 1, (6, 2, 60, 0, 240), 26)),
    ("111000010", "1011", 0.5, 104, (None, 5, False, False, 1, (6, 2, 60, 0, 240), 22)),
    ("1000110000", "00", 0.9, 105, (8, 7, True, True, 1, (12, 3, 90, 0, 360), 25)),
    ("1010011001", "10011", 0.1, 106, (3, 2, True, True, 1, (6, 2, 90, 0, 450), 32)),
    ("00001010000", "100", 0.5, 107, (7, 6, True, True, 1, (12, 3, 90, 0, 360), 27)),
    ("111100100010", "0000", 0.9, 108, (None, 3, False, False, 1, (12, 3, 42, 0, 84), 13)),
    ("110101010111", "010101", 0.1, 109, (None, 7, False, False, 1, (6, 2, 90, 0, 450), 32)),
    ("0010110110101", "11", 0.5, 110, (None, 6, False, False, 1, (12, 3, 90, 0, 360), 23)),
    ("00011010000101", "000", 0.9, 111, (None, 15, False, False, 1, (12, 3, 90, 0, 360), 25)),
    ("00010001001110", "0100111", 0.1, 112, (7, 6, True, True, 1, (6, 2, 90, 0, 450), 32)),
    ("110001100000011", "0000", 0.5, 113, (None, 2, False, False, 1, (12, 3, 90, 0, 360), 23)),
    ("0000111011100111", "101", 0.9, 114, (7, 6, True, True, 1, (12, 3, 90, 0, 360), 21)),
    ("1001010001101001", "01001", 0.1, 115, (12, 11, True, True, 1, (12, 3, 180, 0, 900), 33)),
    ("10000", "01001", 0.5, 116, (None, 0, False, False, 1, (0, 0, 0, 0, 0), 13)),
    ("000", "111", 0.9, 117, (None, 0, False, False, 1, (0, 0, 0, 0, 0), 9)),
    ("011111000101", "1", 0.1, 118, (5, 4, True, True, 1, (12, 3, 180, 0, 900), 29)),
    ("1001011110010000", "00100000", 0.5, 119, (None, 2, False, False, 1, (12, 3, 180, 0, 900), 29)),
    # fingerprint collisions: hash-verified, not exactly verified
    ("1111110000", "00001", 0.9, 224, (None, 4, True, False, 1, (6, 2, 42, 0, 126), 18)),
    ("010000011", "10011", 0.9, 287, (None, 1, True, False, 1, (6, 2, 28, 0, 56), 12)),
]


@pytest.mark.parametrize("backend", [StructuredState, DenseSearchState], ids=["structured", "dense"])
def test_match_unique_runs_are_pinned(backend):
    for text, pattern, epsilon, seed, expected in MATCH_UNIQUE_RUNS:
        inst = MatchInstance(BitString.from_text(text), BitString.from_text(pattern))
        rng = np.random.default_rng(seed)
        params = match_params(inst, epsilon, rng)
        result = match_unique(inst, params, rng, backend=backend)
        got = (
            result.position,
            result.measured_index,
            result.hash_verified,
            result.exactly_verified,
            result.copies_used,
            tuple(result.ledger.counters().values()),
            result.ledger.qubits_total,
        )
        assert got == expected, (text, pattern, seed)


def test_match_search_ledger_qubit_formula():
    inst = MatchInstance(BitString.from_text("00101100"), BitString.from_text("011"))
    params = _params(13, delta=6, max_len=3)
    result = match_search(inst, params, np.random.default_rng(2))
    assert result.ledger.qubits_total == qubit_count_match(8, 3, params.epsilon, p=13)


def test_match_search_finds_occurrences():
    inst = MatchInstance(BitString.from_text("010101"), BitString.from_text("010"))
    hits = 0
    for trial in range(600):
        rng = np.random.default_rng((23, trial))
        params = match_params(inst, 0.1, rng)
        result = match_search(inst, params, rng)
        if result.position is not None:
            assert result.position in {1, 3}
            hits += 1
    assert hits / 600 >= 0.45


def test_match_search_absent_pattern():
    inst = MatchInstance(BitString.from_text("0000"), BitString.from_text("11"))
    for trial in range(100):
        rng = np.random.default_rng((29, trial))
        params = match_params(inst, 0.1, rng)
        result = match_search(inst, params, rng)
        assert result.position is None
        assert not result.exactly_verified


def test_match_search_copy_budget():
    rng = np.random.default_rng(31)
    for trial in range(100):
        trng = np.random.default_rng((31, trial))
        inst, _ = qmatch.random_single_occurrence(32, 4, trng)
        params = match_params(inst, 0.1, trng)
        result = match_search(inst, params, trng)
        assert result.copies_used <= max(1, math.ceil(math.log2(inst.num_windows)))


def test_match_search_soundness():
    for trial in range(300):
        rng = np.random.default_rng((37, trial))
        n = int(rng.integers(4, 33))
        m = int(rng.integers(1, min(5, n + 1)))
        inst = MatchInstance(
            BitString.from_bits(rng.integers(0, 2, n)),
            BitString.from_bits(rng.integers(0, 2, m)),
        )
        params = match_params(inst, 0.1, rng)
        result = match_search(inst, params, rng)
        if result.position is not None:
            assert result.position in naive_match_all(inst)


def test_backend_trajectories_and_ledgers_agree():
    inst = MatchInstance(BitString.from_text("01010101"), BitString.from_text("10"))
    params = _params(11, delta=7, max_len=2)
    res_s = match_search(inst, params, np.random.default_rng(41), backend=StructuredState)
    res_d = match_search(inst, params, np.random.default_rng(41), backend=DenseSearchState)
    assert res_s.position == res_d.position
    assert res_s.measured_index == res_d.measured_index
    assert res_s.ledger.counters() == res_d.ledger.counters()
    assert res_s.ledger.qubits_total == res_d.ledger.qubits_total


def test_backend_fuzz_random_instances():
    # beyond the curated battery: random tiny instances, full runs, both
    # backends under one seed must walk the same trajectory
    import qstrings.fingerprint as fp

    for trial in range(100):
        rng = np.random.default_rng((777, trial))
        n = int(rng.integers(4, 17))
        m = int(rng.integers(1, 4))
        inst = MatchInstance(
            BitString.from_bits(rng.integers(0, 2, n)),
            BitString.from_bits(rng.integers(0, 2, m)),
        )
        params = fp.choose_prime(rng, delta=inst.num_windows, max_len=m, epsilon=0.5)
        res_s = match_search(inst, params, np.random.default_rng((778, trial)))
        res_d = match_search(inst, params, np.random.default_rng((778, trial)), backend=DenseSearchState)
        assert res_s.position == res_d.position
        assert res_s.measured_index == res_d.measured_index
        assert res_s.copies_used == res_d.copies_used
        assert res_s.ledger.counters() == res_d.ledger.counters()


def test_match_dense_and_structured_whole_runs_agree():
    # same seed, same instance, prime draw included: the two backends must
    # give the same whole run
    def run(inst, trial, backend):
        rng = np.random.default_rng((779, trial))
        params = match_params(inst, 0.1, rng)
        r = match_search(inst, params, rng, backend=backend)
        return (params.p, r.position, r.measured_index, r.hash_verified, r.exactly_verified,
                r.copies_used, r.ledger.counters(), r.ledger.qubits_total)

    inst_rng = np.random.default_rng(780)
    for trial in range(60):
        n = int(inst_rng.integers(4, 12))
        m = int(inst_rng.integers(1, 4))
        inst = MatchInstance(
            BitString.from_bits(inst_rng.integers(0, 2, n)),
            BitString.from_bits(inst_rng.integers(0, 2, m)),
        )
        assert run(inst, trial, StructuredState) == run(inst, trial, DenseSearchState), (
            str(inst.text), str(inst.pattern))


def test_run_is_deterministic_given_seed():
    inst = MatchInstance(BitString.from_text("0110100110"), BitString.from_text("101"))
    params = _params(13, delta=8, max_len=3)
    a = match_search(inst, params, np.random.default_rng(43))
    b = match_search(inst, params, np.random.default_rng(43))
    assert a.position == b.position
    assert a.ledger.counters() == b.ledger.counters()


def test_random_single_occurrence_generator():
    rng = np.random.default_rng(47)
    for n, m in ((16, 2), (32, 4), (256, 8), (1024, 8)):
        inst, d = qmatch.random_single_occurrence(n, m, rng)
        assert naive_match_all(inst) == {d}


def _rescan_single_occurrence(n, m, rng, max_rounds=500):
    """Reference builder: rescans the whole text after every flip."""
    for _ in range(max_rounds):
        bits = rng.integers(0, 2, n)
        d0 = int(rng.integers(0, n - m + 1))
        w = rng.integers(0, 2, m)
        bits[d0 : d0 + m] = w
        for _ in range(4 * n):
            windows = np.lib.stride_tricks.sliding_window_view(bits, m)
            occ = np.flatnonzero((windows == w).all(axis=1))
            if occ.size == 1:
                return (
                    MatchInstance(BitString.from_bits(bits), BitString.from_bits(w)),
                    d0 + 1,
                )
            bad = int(next(i for i in occ if i != d0))
            spots = [j for j in range(bad, bad + m) if not d0 <= j < d0 + m]
            bits[spots[int(rng.integers(0, len(spots)))]] ^= 1
    raise RuntimeError("failed to construct a single-occurrence instance")


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_random_single_occurrence_matches_rescan_reference(data, n, seed):
    m = data.draw(
        st.one_of(st.just(1), st.just(n), st.integers(1, min(n, 12)), st.integers(1, n))
    )
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    inst, d = qmatch.random_single_occurrence(n, m, rng)
    assert (inst, d) == _rescan_single_occurrence(n, m, ref_rng)
    assert naive_match_all(inst) == {d}
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("n, seed", [(11, 148), (14, 40), (16, 60)])
def test_random_single_occurrence_exhausted_rounds(n, seed):
    # with m = 2 these draws keep spawning occurrences for all 4n flips
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with pytest.raises(RuntimeError):
        qmatch.random_single_occurrence(n, 2, rng, max_rounds=1)
    with pytest.raises(RuntimeError):
        _rescan_single_occurrence(n, 2, ref_rng, max_rounds=1)
    assert rng.random() == ref_rng.random()


def test_random_single_occurrence_pinned_long_text():
    rng = np.random.default_rng(2024)
    inst, d = qmatch.random_single_occurrence(2**16, 8, rng)
    assert d == 34476 and inst.pattern.bits == bytes((0, 0, 1, 1, 1, 1, 0, 0))
    digest = hashlib.sha256(inst.text.bits).hexdigest()
    assert digest == "fd7cc2b86b3793bf34c848dd1e9684969d287198bbbe4896dfef748f0e19f665"
    assert naive_match_all(inst) == {d}
    assert rng.random() == 0.635809147666554


def test_random_multi_occurrence_generator():
    rng = np.random.default_rng(53)
    inst, occ = random_multi_occurrence(64, 4, 3, rng)
    assert naive_match_all(inst) == occ and len(occ) == 3


def test_match_result_validation():
    with pytest.raises(ValueError):
        MatchResult(
            position=None,
            measured_index=0,
            hash_verified=True,
            exactly_verified=True,
            copies_used=1,
            ledger=ResourceLedger(),
        )


def test_inner_eval_gate_cost():
    # schedule [1,2,4] over a width-2 bit register: 7 iterations x (2+1)
    assert evaluation_constants(4).gate_units == 7 * 3
    assert evaluation_constants(16).gate_units == 15 * 5
