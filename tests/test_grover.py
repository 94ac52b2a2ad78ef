import math

import numpy as np
import pytest

from qstrings.grover import (
    GroverOutcome,
    OracleSpec,
    bbht_search,
    charge_iterations,
    doubling_schedule,
    durr_hoyer_min,
    grover_run,
    optimal_iterations,
    success_probability,
)
from qstrings.qmatch import miss_probability_table
from qstrings.resources import ResourceLedger
from qstrings.sim import (
    DenseSearchState,
    DenseState,
    Register,
    RegisterLayout,
    StructuredState,
    prepare_minus,
    prepare_uniform,
)


def _structured(domain):
    width = max(1, (domain - 1).bit_length())
    layout = RegisterLayout([Register("idx", width, "index")])
    return StructuredState(layout, domain)


def _dense(domain):
    width = max(1, (domain - 1).bit_length())
    layout = RegisterLayout([Register("idx", width, "index"), Register("xi", 1, "flag")])
    state = DenseState(layout)
    prepare_uniform(state, "idx")
    prepare_minus(state, "xi")
    return DenseSearchState(state, "idx", "xi")


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
    probs = search.index_probabilities()
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


def test_doubling_schedule():
    assert doubling_schedule(8) == [1, 2, 4]
    assert doubling_schedule(64) == [1, 2, 4, 8]
    assert doubling_schedule(64, max_repetitions=2) == [1, 2]
    assert doubling_schedule(1) == [1, 2]  # single-element domains pad to one qubit


def test_bbht_verified_hit_rate():
    truth = np.zeros(8, dtype=bool)
    truth[5] = True
    oracle = OracleSpec(8, truth)
    rng = np.random.default_rng(77)
    hits = 0
    for _ in range(2000):
        outcome = bbht_search(oracle, rng, lambda rep: _structured(8))
        if outcome.verified:
            assert outcome.found_index == 5
            hits += 1
    assert hits / 2000 >= 0.5


def test_bbht_no_targets_never_returns():
    oracle = OracleSpec(8, np.zeros(8, dtype=bool))
    rng = np.random.default_rng(3)
    for _ in range(50):
        outcome = bbht_search(oracle, rng, lambda rep: _structured(8))
        assert outcome.found_index is None
        assert outcome.predicate_value_at_found == 0


def test_bbht_returns_only_targets():
    truth = np.zeros(8, dtype=bool)
    truth[[1, 4, 6]] = True
    oracle = OracleSpec(8, truth)
    rng = np.random.default_rng(4)
    for _ in range(200):
        outcome = bbht_search(oracle, rng, lambda rep: _structured(8))
        if outcome.found_index is not None:
            assert outcome.found_index in (1, 4, 6)


def test_padding_never_verified():
    truth = np.zeros(8, dtype=bool)
    truth[4] = True
    oracle = OracleSpec(5, truth)  # domain 5 padded to 8
    rng = np.random.default_rng(9)
    for _ in range(100):
        outcome = bbht_search(oracle, rng, lambda rep: _structured(5))
        if outcome.found_index is not None:
            assert outcome.found_index < 5


def test_padding_targets_rejected():
    truth = np.zeros(8, dtype=bool)
    truth[6] = True
    with pytest.raises(ValueError):
        OracleSpec(5, truth)


def test_amplification_policy():
    exact = OracleSpec(8, np.zeros(8, dtype=bool))
    assert exact.amplification(64) == 1
    noisy = OracleSpec(8, np.zeros(8, dtype=bool), error_prob=0.25)
    # miss^rho <= 1/(10*j)
    for j in (1, 4, 64):
        rho = noisy.amplification(j)
        assert 0.25**rho <= 1 / (10 * j)


def test_bounded_error_success_close_to_exact():
    truth = np.zeros(8, dtype=bool)
    truth[2] = True
    exact = OracleSpec(8, truth)
    noisy = OracleSpec(8, truth, error_prob=0.1)
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
    assert np.array_equal(oracle._members, members)
    assert np.array_equal(oracle._starts, starts)
    assert np.array_equal(oracle._sizes, sizes)
    assert np.array_equal(oracle._class_errors, errors)


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
    oracle = OracleSpec(8, truth, evaluation_cost=7, error_prob=0.2)
    ledger = ResourceLedger()
    grover_run(_structured(8), oracle, 2, np.random.default_rng(0), ledger, rho=3)
    assert ledger.hash_eval_units == 2 * 3 * 7


def _dh_factory(domain):
    def factory(phase, rep):
        return _structured(domain)

    return factory


def test_durr_hoyer_small_list():
    values = [3, 1, 2]
    rng = np.random.default_rng(31)
    hits = sum(
        durr_hoyer_min(values, 3, rng, _dh_factory(3))[0] == 1 for _ in range(1000)
    )
    assert hits / 1000 >= 0.5


def test_durr_hoyer_all_equal():
    values = [5, 5, 5, 5]
    rng = np.random.default_rng(8)
    for _ in range(50):
        found, phases, _ = durr_hoyer_min(values, 4, rng, _dh_factory(4))
        assert found in range(4)
        assert phases == 1  # the first phase already finds nothing smaller


def test_durr_hoyer_identity_permutation():
    values = list(range(8))
    rng = np.random.default_rng(13)
    hits = sum(
        durr_hoyer_min(values, 8, rng, _dh_factory(8))[0] == 0 for _ in range(1000)
    )
    assert hits / 1000 >= 0.5


def test_durr_hoyer_phase_cap():
    values = list(range(16))
    rng = np.random.default_rng(2)
    for _ in range(50):
        _, phases, _ = durr_hoyer_min(values, 16, rng, _dh_factory(16))
        assert phases <= 3 * math.ceil(math.log2(16))


def test_durr_hoyer_sentinel_start():
    # ranks k + a of the pairs (1, a), k = 3, with a sentinel threshold no
    # real key can beat: the rank of (1, 0)
    keys = np.array([3, 4, 5])
    rng = np.random.default_rng(1)
    found, _, _ = durr_hoyer_min(keys, 3, rng, _dh_factory(3), initial_key=3)
    assert found is None
    for bad in (np.array([[3, 4, 5]]), np.array([3, 4])):
        with pytest.raises(ValueError):
            durr_hoyer_min(bad, 3, rng, _dh_factory(3), initial_key=3)


def test_oracle_error_bound_enforced():
    with pytest.raises(ValueError):
        OracleSpec(8, np.zeros(8, dtype=bool), error_prob=0.6)


def test_grover_outcome_verified_property():
    assert GroverOutcome(3, 1, 2).verified
    assert not GroverOutcome(None, 0, 2).verified
    assert not GroverOutcome(3, 0, 2).verified
