import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qstrings import grover
from qstrings.grover import (
    OracleSpec,
    amplification,
    bbht_search,
    charge_iterations,
    doubling_schedule,
    durr_hoyer_min,
    grover_run,
    optimal_iterations,
    success_probability,
)
from qstrings.qmatch import evaluation_constants, miss_probability_table
from qstrings.resources import ResourceLedger, charge
from qstrings.sim import (
    DenseSearchState,
    RegisterLayout,
    StructuredState,
    padded_size,
)
from support import copy_state, grover_run_reference, index_probabilities, oracle_classes_reference


def _structured(domain):
    width = max(1, (domain - 1).bit_length())
    layout = RegisterLayout(idx=width)
    return StructuredState(layout, domain)


def _dense(domain):
    width = max(1, (domain - 1).bit_length())
    layout = RegisterLayout(idx=width)
    return DenseSearchState(layout, domain)


def test_optimal_iterations_examples():
    assert optimal_iterations(4, 1) == 1
    assert optimal_iterations(1, 1) == 1
    assert optimal_iterations(1024, 1) == 25
    with pytest.raises(ValueError):
        optimal_iterations(4, 0)
    with pytest.raises(ValueError):
        optimal_iterations(4, 5)


def test_success_probability_known_values():
    assert abs(success_probability(4, 1, 1) - 1.0) < 1e-12
    # sin^2(7 asin(1/4)) = (251/256)^2 = 63001/65536
    assert abs(success_probability(16, 1, 3) - 63001 / 65536) < 1e-12


@pytest.mark.parametrize("backend", ["structured", "dense"])
@pytest.mark.parametrize("domain,targets,iterations", [(4, (2,), 1), (8, (5,), 2), (16, (1, 9), 3)])
def test_amplitude_success_matches_closed_form(backend, domain, targets, iterations):
    search = _structured(domain) if backend == "structured" else _dense(domain)
    truth = np.zeros(domain, dtype=bool)
    truth[list(targets)] = True
    oracle = OracleSpec(domain, truth)
    for _ in range(iterations):
        search.apply_phase_pattern(oracle.query_pattern(np.random.default_rng(0), 1))
        search.diffuse()
    probs = index_probabilities(search)
    got = float(probs[list(targets)].sum())
    assert abs(got - success_probability(domain, len(targets), iterations)) < 1e-9


def test_grover_run_exact_case():
    # one target among four, one iteration: certain success
    for seed in range(10):
        search = _structured(4)
        oracle = OracleSpec(4, np.array([0, 0, 1, 0], dtype=bool))
        outcome = grover_run(search, oracle, 1, np.random.default_rng(seed))
        assert outcome.found_index == 2 and outcome.verified


def test_grover_run_zero_iterations_uniform():
    oracle = OracleSpec(8, np.array([0] * 8, dtype=bool))
    rng = np.random.default_rng(0)
    counts = np.zeros(8)
    for _ in range(4000):
        outcome = grover_run(_structured(8), oracle, 0, rng)
        counts[outcome.found_index] += 1
    assert np.all(np.abs(counts / 4000 - 0.125) < 0.03)


def test_grover_run_charges_ledger():
    oracle = OracleSpec(
        8, np.array([0, 1] + [0] * 6, dtype=bool), evaluation_cost=7,
        inner_iterations_per_eval=3,
    )
    for iterations, rho in ((3, None), (1, 4), (5, 2)):
        ledger = ResourceLedger()
        grover_run(_structured(8), oracle, iterations, np.random.default_rng(1), ledger, rho=rho)
        evaluations = iterations * (rho or 1)
        expected = {
            "diffusion_units": iterations * 3,  # width-3 index register
            "oracle_queries": iterations,
            "inner_grover_iterations": evaluations * 3,
            "access_units": 0,
            "hash_eval_units": evaluations * 7,
        }
        assert ledger.counters() == expected
        assert ledger.phase_breakdown == [(f"grover_run[{iterations}]", tuple(expected.values()))]


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("make", [_structured, _dense])
def test_each_run_records_the_counters_it_added(make, noisy):
    truth = np.zeros(8, dtype=bool)
    truth[[1, 6]] = True
    if noisy:
        labels = np.arange(8, dtype=np.uint8) % 3
        oracle = OracleSpec(8, truth, evaluation_cost=3, error_prob=0.25,
                            error_classes=(labels, (0.0, 0.25, 0.1)), inner_iterations_per_eval=2)
    else:
        oracle = OracleSpec(8, truth, evaluation_cost=5, inner_iterations_per_eval=2)
    ledger = ResourceLedger()
    charge(ledger, "access_units", 4)  # outside every run, so in no record
    rng = np.random.default_rng(3)
    for iterations in (0, 1, 3, 3, 2):
        before = ledger.counters()
        grover_run(make(8), oracle, iterations, rng, ledger)
        added = tuple(after - before[name] for name, after in ledger.counters().items())
        assert ledger.phase_breakdown[-1] == (f"grover_run[{iterations}]", added)
    assert len(ledger.phase_breakdown) == 5
    # a refused charge moves no counter and appends no record
    counters, records = ledger.counters(), list(ledger.phase_breakdown)
    with pytest.raises(ValueError, match="non-negative"):
        grover_run(make(8), OracleSpec(8, truth, evaluation_cost=-1), 2, rng, ledger)
    assert ledger.counters() == counters and ledger.phase_breakdown == records


def test_doubling_schedule():
    assert doubling_schedule(8) == [1, 2, 4]
    assert doubling_schedule(64) == [1, 2, 4, 8]
    assert doubling_schedule(64)[:2] == [1, 2]
    assert doubling_schedule(1) == [1, 2]  # single-element domains pad to one qubit
    # ceil(log2 sqrt(M)) + 1 repetitions, the float formula, on every padded width
    for bits in range(1, 62):
        for domain in (1 << bits, (1 << bits) - 1, (1 << bits) + 1):
            reps = math.ceil(math.log2(math.sqrt(padded_size(domain)))) + 1
            assert doubling_schedule(domain) == [2**j for j in range(reps)]


def test_bbht_verified_hit_rate():
    truth = np.zeros(8, dtype=bool)
    truth[5] = True
    oracle = OracleSpec(8, truth)
    rng = np.random.default_rng(77)
    hits = 0
    for _ in range(2000):
        outcome = bbht_search(oracle, rng, lambda: _structured(8), doubling_schedule(8))
        if outcome.verified:
            assert outcome.found_index == 5
            hits += 1
    assert hits / 2000 >= 0.5


def test_bbht_no_targets_never_returns():
    oracle = OracleSpec(8, np.zeros(8, dtype=bool))
    rng = np.random.default_rng(3)
    for _ in range(50):
        outcome = bbht_search(oracle, rng, lambda: _structured(8), doubling_schedule(8))
        assert outcome.found_index is None
        assert outcome.verified is False


def test_bbht_returns_only_targets():
    truth = np.zeros(8, dtype=bool)
    truth[[1, 4, 6]] = True
    oracle = OracleSpec(8, truth)
    rng = np.random.default_rng(4)
    for _ in range(200):
        outcome = bbht_search(oracle, rng, lambda: _structured(8), doubling_schedule(8))
        if outcome.found_index is not None:
            assert outcome.found_index in (1, 4, 6)


def test_padding_never_verified():
    truth = np.zeros(8, dtype=bool)
    truth[4] = True
    oracle = OracleSpec(5, truth)  # domain 5 padded to 8
    rng = np.random.default_rng(9)
    for _ in range(100):
        outcome = bbht_search(oracle, rng, lambda: _structured(5), doubling_schedule(5))
        if outcome.found_index is not None:
            assert outcome.found_index < 5


def test_padding_targets_rejected():
    truth = np.zeros(8, dtype=bool)
    truth[6] = True
    with pytest.raises(ValueError):
        OracleSpec(5, truth)


def test_amplification_policy():
    assert amplification(0.0, 64) == 1
    # miss^rho <= 1/(10*j)
    for j in (1, 4, 64):
        rho = amplification(0.25, j)
        assert 0.25**rho <= 1 / (10 * j)


# AMPLIFICATION[d - 2][s - 1]: evaluations per query for bit domain d in
# 2..64 and s in 1..16 steps, recorded from the binary-search comparator's
# rule before it shared the oracle's.
AMPLIFICATION = [
    "2222223333333333", "1122222222222222", "2333334444444444", "3444555555556666",
    "2222233333333333", "2233333333333444", "1222222222222222", "2333444444444445",
    "3444555555556666", "2333444444444455", "2222333333333333", "2233333333444444",
    "3344444555555555", "3444555555556666", "3344444455555555", "2333333344444444",
    "2223333333333333", "2223333333333333", "1222222222333333", "2223333333333333",
    "2333334444444444", "2233333333444444", "2222333333333333", "2222333333333333",
    "2223333333333333", "2333333344444444", "2333333444444444", "2233333333333444",
    "2223333333333333", "2222333333333333", "2233333333444444", "2333334444444444",
    "2333333344444444", "2233333333333334", "2223333333333333", "2233333333333444",
    "2333333444444444", "2333333444444444", "2233333334444444", "2223333333333333",
    "2223333333333333", "2333333344444444", "2333334444444444", "2333333444444444",
    "2233333333444444", "2223333333333333", "2233333333444444", "2333333444444444",
    "2333334444444444", "2333333344444444", "2233333333334444", "2233333333334444",
    "2333333344444444", "2333334444444444", "2333333444444444", "2233333334444444",
    "2233333333333444", "2233333334444444", "2333333444444444", "2333334444444444",
    "2333333444444444", "2233333334444444", "2233333333444444",
]


def test_amplification_rule_is_pinned_over_bit_domains_and_steps():
    for d, row in enumerate(AMPLIFICATION, start=2):
        error = evaluation_constants(d).worst_miss
        assert [amplification(error, s) for s in range(1, 17)] == [int(c) for c in row], d


def test_bounded_error_success_close_to_exact():
    truth = np.zeros(8, dtype=bool)
    truth[2] = True
    exact = OracleSpec(8, truth)
    # one error class of 0.1 over every index; targets are never missed
    noisy = OracleSpec(8, truth, error_prob=0.1,
                       error_classes=(np.zeros(8, dtype=np.uint8), (0.1,)))
    iterations = optimal_iterations(8, 1)
    rng = np.random.default_rng(21)
    exact_hits = noisy_hits = 0
    for _ in range(2000):
        a = grover_run(_structured(8), exact, iterations, rng)
        b = grover_run(_structured(8), noisy, iterations, rng, rho=5)
        exact_hits += int(a.verified)
        noisy_hits += int(b.verified)
    assert abs(noisy_hits - exact_hits) / 2000 <= 0.1


def test_query_pattern_marks_each_index_at_its_amplified_error():
    # mixed per-index errors: zeros, classes of several sizes, an error
    # above 1/2, and targets with and without evaluation error
    errors = np.array([0.0, 0.3, 0.05, 0.6])
    labels = np.array([0, 1, 1, 2, 3, 1, 0, 2, 1, 1, 3, 1, 2, 0, 2, 3])
    truth = np.zeros(16, dtype=bool)
    truth[[2, 9, 13]] = True
    rho, queries = 3, 100_000
    oracle = OracleSpec(16, truth, error_classes=(labels, errors))
    # a wrong mark needs all rho evaluations to miss; a target is never missed
    wrong = np.where(truth, 0.0, errors[labels] ** rho)
    expected = np.where(truth, 1.0, wrong)
    rng = np.random.default_rng(2024)
    marked = [oracle.query_pattern(rng, rho) for _ in range(queries)]
    for m in marked[:2000]:
        assert m.dtype == np.int64 and np.all(np.diff(m) > 0)
    counts = np.bincount(np.concatenate(marked), minlength=16)
    sigma = np.sqrt(expected * (1 - expected) / queries)
    assert np.all(np.abs(counts / queries - expected) <= 4 * sigma)
    assert counts[0] == counts[6] == 0  # zero-error non-targets are never marked
    assert counts[13] == queries  # a zero-error target is always marked
    # the marked-set size is a sum of independent Bernoulli(expected) terms
    sizes = np.array([m.size for m in marked])
    var = float(np.sum(expected * (1 - expected)))
    kappa4 = float(np.sum(expected * (1 - expected) * (1 - 6 * expected * (1 - expected))))
    assert abs(sizes.mean() - expected.sum()) <= 4 * math.sqrt(var / queries)
    assert abs(sizes.var() - var) <= 4 * math.sqrt((kappa4 + 2 * var**2) / queries)


def _reference_classes(truth, probs):
    """Error classes grouped from per-index evaluation errors, as OracleSpec
    built them when it took one error per index: non-targets with a
    positive error, one class per distinct error in ascending order,
    members in index order."""
    index = np.flatnonzero((probs > 0) & ~truth)
    errors, inverse, counts = np.unique(probs[index], return_inverse=True, return_counts=True)
    members = index[np.argsort(inverse, kind="stable")]
    return members, np.cumsum(counts) - counts, counts, errors


def _error_class_cases():
    rng = np.random.default_rng(17)
    # repeated errors, zeros, non-monotone order and unused labels
    table = np.array([0.3, 0.0, 0.05, 0.3, 0.9, 0.05, 0.0, 0.2])
    labels = rng.choice([0, 1, 2, 3, 5, 6, 7], size=64)  # label 4 unused
    yield table, labels, rng.random(64) < 0.2
    # the match oracle's miss table at width 27: not monotone in t, and
    # miss[8] is exactly 0
    miss = np.asarray(miss_probability_table(32))
    assert miss[8] == 0.0 and np.any(np.diff(miss[1:]) > 0)
    t_counts = np.minimum(rng.binomial(40, 0.4, size=256), 32).astype(np.uint8)
    yield miss, t_counts, rng.random(256) < 0.05
    # every index a target, and no index with a positive error
    yield np.array([0.25]), np.zeros(8, dtype=np.int64), np.ones(8, dtype=bool)
    yield np.array([0.0, 0.0]), rng.integers(0, 2, 16), np.zeros(16, dtype=bool)


@pytest.mark.parametrize("table, labels, truth", list(_error_class_cases()))
def test_error_classes_match_per_index_grouping(table, labels, truth):
    oracle = OracleSpec(truth.size, truth, error_classes=(labels, table))
    members, starts, sizes, errors = _reference_classes(truth, table[labels])
    assert not oracle._members  # no class is listed before a query flips it
    listed = [oracle._class_members(c) for c in range(oracle._sizes.size)]
    assert all(oracle._class_members(c) is m for c, m in enumerate(listed))
    assert np.array_equal(np.concatenate([np.empty(0, dtype=np.int64), *listed]), members)
    lengths = np.array([m.size for m in listed], dtype=np.int64)
    assert np.array_equal(np.cumsum(lengths) - lengths, starts)
    assert np.array_equal(oracle._sizes, sizes)
    assert np.array_equal(oracle._class_errors, errors)


class _ComparedLabels(np.ndarray):
    """A label array that records the dtype of every ufunc it meets."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, _ComparedLabels) else x for x in inputs]
        self.result_types.append(np.result_type(*plain))
        return getattr(ufunc, method)(*plain, **kwargs)


@pytest.mark.parametrize("table, labels, truth", list(_error_class_cases())[:2])
def test_class_listing_compares_in_the_keys_dtype(table, labels, truth):
    # a class is keyed by its labels: an int64 label casts all n uint8
    # labels to int64 on every listing; the cast is buffered, so no memory
    # peak shows it
    oracle = OracleSpec(truth.size, truth, error_classes=(labels, table))
    assert oracle._labels.dtype == labels.dtype
    compared = oracle._labels.view(_ComparedLabels)
    compared.result_types = []
    oracle._labels = compared
    classes = oracle._sizes.size
    listed = [oracle._class_members(c) for c in range(classes)]
    # one comparison per label of each listed class
    compares = int(np.isin(table, oracle._class_errors).sum())
    assert classes and compared.result_types == [labels.dtype] * compares
    assert sum(m.size for m in listed) == oracle._sizes.sum()


def _assert_classes_are_the_reference(oracle, truth, labels, errors):
    # the n-wide mask reference stays the oracle: its per-index key gives
    # each class's members
    key, *fields = oracle_classes_reference(truth, labels, errors)
    got = (oracle._class_keys, oracle._sizes, oracle._class_errors)
    for field, want in zip(got, fields):
        assert field.dtype == want.dtype and np.array_equal(field, want)
    for c, class_key in enumerate(oracle._class_keys.tolist()):
        assert np.array_equal(oracle._class_members(c), np.flatnonzero(key == class_key))


@settings(max_examples=150)
@given(
    st.integers(1, 40),
    st.lists(st.sampled_from([0.0, 0.05, 0.3, 0.6, 1.0]), min_size=1, max_size=6),
    st.sampled_from([np.uint8, np.int64]),
    st.integers(0, 2**32 - 1),
)
def test_oracle_class_key_matches_the_mask_reference(domain, errors, dtype, seed):
    # duplicated errors share a class, zero errors are never wrongly marked,
    # targets land in positive-error labels, and padding carries labels too
    rng = np.random.default_rng(seed)
    padded = padded_size(domain)
    labels = rng.integers(0, len(errors), padded).astype(dtype)
    truth = np.zeros(padded, dtype=bool)
    truth[:domain] = rng.random(domain) < 0.3
    oracle = OracleSpec(domain, truth, error_classes=(labels, tuple(errors)))
    _assert_classes_are_the_reference(oracle, truth, labels, tuple(errors))


def test_oracle_class_key_on_the_match_miss_table():
    # labels are differing-bit counts: miss[8] is exactly 0, and the
    # targets (t = 0) sit in a positive-error label only by their truth
    miss = tuple(miss_probability_table(32))
    rng = np.random.default_rng(3)
    labels = np.minimum(rng.binomial(40, 0.4, size=256), 32).astype(np.uint8)
    labels[[5, 77]] = 0
    truth = labels == 0
    truth[200:] = False
    oracle = OracleSpec(200, truth, error_classes=(labels, miss))
    _assert_classes_are_the_reference(oracle, truth, labels, miss)


def test_error_classes_rejected_when_malformed():
    truth = np.zeros(8, dtype=bool)
    for labels, table in [
        (np.zeros(4, dtype=np.int64), np.array([0.1])),  # does not cover the domain
        (np.full(8, 0.0), np.array([0.1])),  # float labels
        (np.full(8, 2), np.array([0.1, 0.2])),  # label past the table
        (np.full(8, -1), np.array([0.1])),
        (np.zeros(8, dtype=np.int64), np.array([1.5])),
        (np.full(8, 2, dtype=np.uint8), (0.1, 0.2)),  # unsigned label past the table
        (np.zeros(8, dtype=np.uint8), (0.1, -0.5)),  # a bad error in a tuple table
        (np.zeros(8, dtype=np.uint8), ()),
    ]:
        with pytest.raises(ValueError):
            OracleSpec(8, truth, error_classes=(labels, table))
    with pytest.raises(ValueError):
        OracleSpec(8, np.zeros(8, dtype=np.int64))  # truth must be bool


def test_exact_query_pattern_is_the_targets_and_draws_nothing():
    truth = np.zeros(8, dtype=bool)
    truth[[1, 6]] = True
    oracle = OracleSpec(8, truth)
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    assert oracle.query_pattern(rng, 1).tolist() == [1, 6]
    assert rng.bit_generator.state == state
    with pytest.raises(ValueError):
        oracle.query_pattern(rng, 1)[0] = 0  # shared with every query


@pytest.mark.filterwarnings("error")
@settings(max_examples=150, deadline=None)
@given(errors=st.lists(st.sampled_from([0.0, 1.0, 0.5, 0.02, 1e-300]) | st.floats(0, 1),
                       min_size=1, max_size=5),
       rho=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
def test_query_error_is_the_errstate_formula(errors, rho, seed):
    # bit for bit, with no floating-point warning: a class error of 1
    # leaves none of its members unmarked, and one of 0 forms no class
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, len(errors), 32).astype(np.uint8)
    truth = rng.random(32) < 0.2
    oracle = OracleSpec(32, truth, error_classes=(labels, tuple(errors)))
    wrong, none_wrong = oracle.query_error(rho)
    want_wrong = oracle._class_errors**rho
    with np.errstate(divide="ignore"):
        want = np.exp(oracle._sizes * np.log1p(-want_wrong))
    assert wrong.tobytes() == want_wrong.tobytes()
    assert none_wrong.tobytes() == want.tobytes()


@pytest.mark.parametrize("rho, expected_rho", [(None, 3), (3, 3), (5, 5)])
def test_grover_run_ledger_for_noisy_oracle(rho, expected_rho):
    truth = np.zeros(32, dtype=bool)
    truth[[5, 17]] = True
    labels = np.zeros(32, dtype=np.int64)
    labels[20:] = 1
    oracle = OracleSpec(
        32, truth, evaluation_cost=11, error_prob=0.2,
        error_classes=(labels, np.array([0.2, 0.1])), inner_iterations_per_eval=6,
    )
    ledger = ResourceLedger()
    grover_run(_structured(32), oracle, 4, np.random.default_rng(5), ledger, rho=rho)
    expected = {
        "diffusion_units": 4 * 5,
        "oracle_queries": 4,
        "inner_grover_iterations": 4 * expected_rho * 6,
        "access_units": 0,
        "hash_eval_units": 4 * expected_rho * 11,
    }
    assert ledger.counters() == expected
    assert ledger.phase_breakdown == [("grover_run[4]", tuple(expected.values()))]


def test_charge_iterations_refuses_a_negative_amount():
    truth = np.zeros(8, dtype=bool)
    truth[2] = True
    ledger = ResourceLedger()
    charge_iterations(ledger, _structured(8), OracleSpec(8, truth, evaluation_cost=3), 2, 1)
    assert ledger.counters()["hash_eval_units"] == 6
    with pytest.raises(ValueError, match="non-negative"):
        charge_iterations(ledger, _structured(8), OracleSpec(8, truth, evaluation_cost=-1), 2, 1)
    with pytest.raises(ValueError, match="non-negative"):
        charge_iterations(ledger, _structured(8), OracleSpec(8, truth), -1, 1)
    # a refused charge adds nothing
    assert ledger.counters() == {"diffusion_units": 6, "oracle_queries": 2,
                                 "inner_grover_iterations": 0, "access_units": 0,
                                 "hash_eval_units": 6}


def test_bounded_error_ledger_records_rho_times_cost():
    truth = np.zeros(8, dtype=bool)
    truth[2] = True
    oracle = OracleSpec(8, truth, evaluation_cost=7, error_prob=0.2,
                        error_classes=(np.zeros(8, dtype=np.uint8), (0.2,)))
    ledger = ResourceLedger()
    grover_run(_structured(8), oracle, 2, np.random.default_rng(0), ledger, rho=3)
    assert ledger.hash_eval_units == 2 * 3 * 7


def _dh_factory(domain):
    def factory():
        return _structured(domain)

    return factory


def test_durr_hoyer_small_list():
    values = [3, 1, 2]
    rng = np.random.default_rng(31)
    hits = sum(
        durr_hoyer_min(values, rng, _dh_factory(3)).index == 1 for _ in range(1000)
    )
    assert hits / 1000 >= 0.5


def test_durr_hoyer_all_equal():
    values = [5, 5, 5, 5]
    rng = np.random.default_rng(8)
    for _ in range(50):
        found = durr_hoyer_min(values, rng, _dh_factory(4))
        assert found.index in range(4)
        assert found.phases == 1  # the first phase already finds nothing smaller
        assert found.adopted == ()


def test_durr_hoyer_identity_permutation():
    values = list(range(8))
    rng = np.random.default_rng(13)
    hits = sum(
        durr_hoyer_min(values, rng, _dh_factory(8)).index == 0 for _ in range(1000)
    )
    assert hits / 1000 >= 0.5


def test_durr_hoyer_phase_cap():
    values = list(range(16))
    rng = np.random.default_rng(2)
    for _ in range(50):
        found = durr_hoyer_min(values, rng, _dh_factory(16))
        assert found.phases <= 3 * math.ceil(math.log2(16))


def test_durr_hoyer_sentinel_start():
    # ranks k + a of the pairs (1, a), k = 3, with a sentinel threshold no
    # real key can beat: the rank of (1, 0)
    keys = np.array([3, 4, 5])
    rng = np.random.default_rng(1)
    assert durr_hoyer_min(keys, rng, _dh_factory(3), initial_key=3).index is None
    # the domain is the key count, so only the keys' shape and kind can be bad
    for bad in (np.array([[3, 4, 5]]), np.array(["3", "4", "5"])):
        with pytest.raises(ValueError):
            durr_hoyer_min(bad, rng, _dh_factory(3), initial_key=3)


@pytest.mark.parametrize("initial_key", [None, 3])
def test_durr_hoyer_refuses_empty_keys_before_any_draw(initial_key):
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="keys must not be empty"):
        durr_hoyer_min(np.array([], dtype=np.int64), rng, _dh_factory(1), initial_key=initial_key)
    assert rng.bit_generator.state == before


def test_durr_hoyer_builds_its_schedule_once(monkeypatch):
    values = np.array([6, 2, 7, 4, 0, 5, 3, 1, 9, 8] * 6 + [11, 10, 12, 13])
    want = durr_hoyer_min(values, np.random.default_rng(5), _dh_factory(64))
    assert want.phases > 2
    calls = []
    schedule = grover.doubling_schedule

    def counted(domain, *args, **kwargs):
        calls.append(domain)
        return schedule(domain, *args, **kwargs)

    monkeypatch.setattr(grover, "doubling_schedule", counted)
    got = durr_hoyer_min(values, np.random.default_rng(5), _dh_factory(64))
    assert got == want
    assert calls == [64]  # once per call, not once per phase


def test_durr_hoyer_record_counts_copies_and_adoptions():
    values = np.array([6, 2, 7, 4, 0, 5, 3, 1, 9, 8])
    for seed in range(40):
        calls = []

        def factory():
            calls.append(1)
            return _structured(10)

        found = durr_hoyer_min(values, np.random.default_rng(seed), factory)
        assert found.copies == len(calls)
        assert 1 <= found.phases <= 3 * math.ceil(math.log2(10))
        phases = [phase for phase, _ in found.adopted]
        assert phases == sorted(set(phases)) and all(p < found.phases for p in phases)
        keys = [values[index] for _, index in found.adopted]
        assert keys == sorted(keys, reverse=True) and len(set(keys)) == len(keys)
        if found.adopted:
            assert found.index == found.adopted[-1][1]


def test_oracle_error_bound_enforced():
    with pytest.raises(ValueError):
        OracleSpec(8, np.zeros(8, dtype=bool), error_prob=0.6)
    with pytest.raises(ValueError, match="error classes"):
        OracleSpec(8, np.zeros(8, dtype=bool), error_prob=0.1)


def test_grover_outcome_verified_property():
    truth = np.zeros(8, dtype=bool)
    truth[5] = True
    oracle = OracleSpec(8, truth)
    rng = np.random.default_rng(4)
    seen = set()
    for _ in range(60):
        outcome = grover_run(_structured(8), oracle, 1, rng)
        assert outcome.verified is bool(truth[outcome.found_index])
        seen.add(outcome.verified)
    assert seen == {True, False}


def test_block_draws_are_the_per_query_draws():
    # a block of query uniforms drawn in one call is the stream of one
    # call per query, and a saved generator state replays it
    rng = np.random.default_rng(2024)
    state = rng.bit_generator.state
    block = rng.random((37, 5))
    after = rng.random()
    rng.bit_generator.state = state
    rows = [rng.random(5) for _ in range(37)]
    assert np.array_equal(block, np.array(rows))
    assert rng.random() == after
    rng.bit_generator.state = state
    assert np.array_equal(rng.random((37, 5)), block)


def _noisy_oracle(domain, truth, labels, errors):
    return OracleSpec(domain, truth, evaluation_cost=3, error_prob=0.25,
                      error_classes=(labels, errors), inner_iterations_per_eval=2)


def _run_record(run, search, oracle, iterations, seed, rho):
    """What a run leaves behind: the amplitudes just before its
    measurement, its outcome, its ledger and the generator's next draw."""
    before = []
    measure = search.measure_index

    def measure_index(rng):
        dense = isinstance(search, DenseSearchState)
        before.append(search.state.amps.copy() if dense else search.amps)
        return measure(rng)

    search.measure_index = measure_index
    rng = np.random.default_rng(seed)
    ledger = ResourceLedger()
    outcome = run(search, oracle, iterations, rng, ledger, rho)
    return before[0], outcome, ledger.counters(), ledger.phase_breakdown, rng.random()


def _assert_same_run(backend, oracle, iterations, seed, rho):
    make = _structured if backend == "structured" else _dense
    want = _run_record(grover_run_reference, make(oracle.domain_size), oracle, iterations, seed, rho)
    got = _run_record(grover_run, make(oracle.domain_size), oracle, iterations, seed, rho)
    assert np.array_equal(got[0], want[0])
    assert got[1:] == want[1:]


@st.composite
def _grover_runs(draw, max_width, max_iterations):
    """An exact or noisy oracle over a small domain, with a run's
    iterations, seed and rho."""
    padded = 1 << draw(st.integers(1, max_width))
    domain = draw(st.integers(padded // 2 + 1, padded))
    truth = np.zeros(padded, dtype=bool)
    truth[sorted(draw(st.sets(st.integers(0, domain - 1))))] = True
    if draw(st.booleans()):
        errors = tuple(draw(st.lists(st.sampled_from([0.0, 0.02, 0.1, 0.3, 1.0]),
                                     min_size=1, max_size=4)))
        labels = np.array(draw(st.lists(st.integers(0, len(errors) - 1),
                                        min_size=padded, max_size=padded)), dtype=np.uint8)
        oracle = _noisy_oracle(domain, truth, labels, errors)
    else:
        oracle = OracleSpec(domain, truth)
    iterations = draw(st.integers(0, max_iterations))
    return oracle, iterations, draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from([None, 1, 2]))


@settings(max_examples=150, deadline=None)
@given(_grover_runs(max_width=6, max_iterations=80))
def test_grover_run_is_the_per_query_loop_structured(run):
    _assert_same_run("structured", *run)


@settings(max_examples=40, deadline=None)
@given(_grover_runs(max_width=4, max_iterations=40))
def test_grover_run_is_the_per_query_loop_dense(run):
    _assert_same_run("dense", *run)


def _flip_steps(oracle, seed, rho, iterations):
    """The steps whose query marks more than the targets."""
    rng = np.random.default_rng(seed)
    return [s for s in range(iterations) if oracle.query_pattern(rng, rho) is not oracle.targets]


def _sixteen(error):
    """Targets 3 and 11 over 16 indices; the other indices split between
    a zero-error class, one of `error` and one of `error / 4`."""
    truth = np.zeros(16, dtype=bool)
    truth[[3, 11]] = True
    labels = np.arange(16, dtype=np.uint8) % 3
    return _noisy_oracle(16, truth, labels, (0.0, error, error / 4))


@pytest.mark.parametrize("backend", ["structured", "dense"])
@pytest.mark.parametrize("error, rho, iterations, seed, flips", [
    (0.02, 1, 6, 1, [0]),  # the group the flip adopts dissolves on the next step
    (0.02, 1, 6, 31, [5]),  # the last step
    (0.02, 1, 20, 1, [0, 11, 13, 16]),
    (0.2, 2, 40, 5, [4, 5, 6, 9, 12, 22, 23, 35, 37]),  # runs of flips, one block
    (0.2, 2, 40, 7, [0, 7, 8, 11, 18, 25, 26, 34, 35, 38]),
])
def test_grover_run_is_the_per_query_loop_around_flips(backend, error, rho, iterations, seed, flips):
    oracle = _sixteen(error)
    assert _flip_steps(oracle, seed, rho, iterations) == flips
    _assert_same_run(backend, oracle, iterations, seed, rho)


class _BlockCounter:
    """A generator that counts its 2-D `random` calls: the query blocks
    and each redraw up to a flip."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = 0

    def random(self, size=None):
        self.calls += isinstance(size, tuple) and len(size) == 2
        return self._rng.random(size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _query_block_draws(flips, iterations, block):
    """The 2-D draws of a noisy run with the given flip steps: a stretch of
    g flip-free steps takes g // block full blocks; a flip then takes the
    block holding it and the redraw up to it, and the steps after the
    last flip take ceil(g / block) blocks.  So F flips take at most
    ceil(iterations / block) + 2F."""
    draws, start = 0, 0
    for step in flips:
        draws += (step - start) // block + 2
        start = step + 1
    return draws + -(-(iterations - start) // block)


def test_a_flip_free_noisy_run_draws_one_block_per_query_block():
    oracle = _sixteen(1e-9)
    assert _flip_steps(oracle, 83, 1, 100) == []
    rng = _BlockCounter(83)
    grover_run(_structured(16), oracle, 100, rng, rho=1)
    assert rng.calls == 4  # ceil(100 / QUERY_BLOCK)


@pytest.mark.parametrize("error, rho, iterations, seed", [
    (0.02, 1, 6, 1), (0.02, 1, 20, 1), (0.2, 2, 40, 5), (0.2, 2, 40, 7),
    (0.005, 1, 100, 3), (0.005, 1, 200, 9), (0.02, 1, 100, 11),
])
def test_noisy_run_block_draws_around_flips(error, rho, iterations, seed):
    oracle = _sixteen(error)
    flips = _flip_steps(oracle, seed, rho, iterations)
    assert flips
    rng = _BlockCounter(seed)
    grover_run(_structured(16), oracle, iterations, rng, rho=rho)
    block = grover.QUERY_BLOCK
    assert rng.calls == _query_block_draws(flips, iterations, block)
    assert rng.calls <= -(-iterations // block) + 2 * len(flips)


@pytest.mark.parametrize("backend", ["structured", "dense"])
@pytest.mark.parametrize("targets", [[], [9], [0, 2, 5, 7, 8, 11, 12], list(range(13)),
                                     list(range(16))])
def test_grover_run_is_the_per_query_loop_for_exact_oracles(backend, targets):
    # no target, some, every index of a domain of 13, every padded index of 16
    truth = np.zeros(16, dtype=bool)
    truth[targets] = True
    domain = max(13, len(targets))
    for iterations in (0, 1, 2, 7, 33):
        _assert_same_run(backend, OracleSpec(domain, truth), iterations, iterations, None)


def test_group_steps_keep_the_norm_check(monkeypatch):
    truth = np.zeros(64, dtype=bool)
    truth[[9, 40]] = True
    oracle = OracleSpec(64, truth)
    search = _structured(64)
    search.apply_phase_pattern(oracle.targets)  # the targets become the group
    search.diffuse()
    search._base *= 1 + 1e-6

    def refuse(self):
        raise AssertionError("a group step took the per-step path")

    monkeypatch.setattr(StructuredState, "diffuse", refuse)
    with pytest.raises(ValueError, match="drifted beyond tolerance"):
        grover_run(search, oracle, 3, np.random.default_rng(0))


@pytest.mark.parametrize("steps", [1, 7, 40])
def test_group_steps_with_exceptions_run_the_loop(monkeypatch, steps):
    truth = np.zeros(64, dtype=bool)
    truth[[9, 40]] = True
    oracle = OracleSpec(64, truth)
    search = _structured(64)
    search.apply_phase_pattern(oracle.targets)  # the targets become the group
    search.diffuse()
    search.apply_phase_pattern(np.array([9, 17, 40, 50]))  # a flipped query: two exceptions
    search.diffuse()
    assert search._group is oracle.targets and search._index.tolist() == [17, 50]
    drifted = copy_state(search)
    drifted._base *= 1 + 1e-6
    want = copy_state(search)
    for _ in range(steps):
        want.apply_phase_pattern(oracle.targets)
        want.diffuse()

    def refuse(self, *args):
        raise AssertionError("a target-only step took the per-step path")

    monkeypatch.setattr(StructuredState, "diffuse", refuse)
    monkeypatch.setattr(StructuredState, "apply_phase_pattern", refuse)
    search.target_steps(oracle.targets, steps)
    assert np.array_equal(search.amps, want.amps)
    assert (search._base, search._group_amp) == (want._base, want._group_amp)
    assert np.array_equal(search._values, want._values)
    with pytest.raises(ValueError, match="drifted beyond tolerance"):
        drifted.target_steps(oracle.targets, steps)
