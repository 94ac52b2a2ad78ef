import math

import numpy as np
import pytest

from qstrings import resources
from qstrings.cli import main
from qstrings.fingerprint import hash_width, nth_prime, top_prime, top_prime_bounds, universe_size
from qstrings.grover import OracleSpec, grover_run
from qstrings.qmatch import inner_schedule
from qstrings.resources import (
    ANCILLA_COMPARE_BSEARCH,
    ANCILLA_MATCH,
    CSV_HEADER,
    ResourceLedger,
    SweepConfig,
    charge,
    fit_loglog_slope,
    index_width,
    nominal_hash_width,
    pool_map,
    qubit_count_compare_bsearch,
    qubit_count_compare_grover,
    qubit_count_match,
    run_sweep,
    sweep_csv,
)
from qstrings.sim import DenseSearchState, StructuredState, search_layout


def test_charge_examples():
    ledger = ResourceLedger()
    assert ledger.counters() == {k: 0 for k in ledger.counters()}  # fresh all-zero
    charge(ledger, "diffusion_units", 5)
    assert ledger.diffusion_units == 5
    charge(ledger, "diffusion_units", 3)
    charge(ledger, "diffusion_units", 4)
    other = ResourceLedger()
    charge(other, "diffusion_units", 12)
    assert ledger.diffusion_units == other.diffusion_units  # additivity
    with pytest.raises(ValueError):
        charge(ledger, "diffusion_units", -1)
    with pytest.raises(ValueError):
        charge(ledger, "teleportation", 1)


def test_gate_units_total_composition():
    ledger = ResourceLedger()
    charge(ledger, "diffusion_units", 10)
    charge(ledger, "oracle_queries", 4)
    charge(ledger, "access_units", 6)
    charge(ledger, "hash_eval_units", 30)
    charge(ledger, "inner_grover_iterations", 99)  # diagnostic count, priced via hash_eval_units
    assert ledger.gate_units_total == 10 + 4 + 6 + 30


def _run_on(ledger, iterations, evaluation_cost):
    """One exact Grover run over 8 indices (a width-3 index register)."""
    truth = np.zeros(8, dtype=bool)
    truth[5] = True
    oracle = OracleSpec(8, truth, evaluation_cost=evaluation_cost)
    grover_run(StructuredState(search_layout(8), 8), oracle, iterations,
               np.random.default_rng(0), ledger)


def test_phase_breakdown():
    # one record per Grover run, what it charged; a charge outside a run
    # is in no record
    ledger = ResourceLedger()
    _run_on(ledger, 2, 3)
    charge(ledger, "access_units", 3)
    _run_on(ledger, 2, 4)
    # deltas in counter order: diffusion, queries, inner iterations, access, hash
    assert ledger.phase_breakdown == [("grover_run[2]", (6, 2, 0, 0, 6)),
                                      ("grover_run[2]", (6, 2, 0, 0, 8))]
    assert ledger.phase_breakdown[0][0] is ledger.phase_breakdown[1][0]  # labels interned


def test_equal_phases_share_one_record():
    # kept ledgers refer to one record per distinct phase, not a copy each
    ledgers = [ResourceLedger(), ResourceLedger()]
    for ledger in ledgers:
        for iterations in (7, 7, 9):
            _run_on(ledger, iterations, 1)
    a, b = (ledger.phase_breakdown for ledger in ledgers)
    assert a == b == [("grover_run[7]", (21, 7, 0, 0, 7))] * 2 + [("grover_run[9]", (27, 9, 0, 0, 9))]
    assert a[0] is a[1] is b[0] and a[2] is b[2] and a[0] is not a[2]


def test_index_width():
    assert index_width(1) == 0
    assert index_width(2) == 1
    assert index_width(57) == 6
    assert index_width(64) == 6


def test_integer_ceil_log2_forms_equal_the_float_forms():
    # durr_hoyer_min's phase count and inner_schedule's repetitions, each once
    # written with math.log2: every domain up to 2^16, then around each power
    # of two up to 2^22
    domains = set(range(1, 1 << 16)).union(
        (1 << k) + d for k in range(16, 23) for d in (-1, 0, 1))
    for domain in sorted(domains):
        assert index_width(max(2, domain)) == max(1, math.ceil(math.log2(max(2, domain))))
        if domain > 1:
            reps = math.ceil(math.log2(math.sqrt(domain))) + 2
            assert inner_schedule(domain) == [2**j for j in range(reps)]


def test_nominal_hash_width_matches_universe_max():
    r = universe_size(29, 4, 0.1)
    assert nominal_hash_width(29, 4, 0.1) == hash_width(nth_prime(r))


def test_bound_width_is_the_counted_width():
    # every r up to 3,000, then a log grid to 2^27: the bounds hold p_r,
    # and where their widths agree, that is the width of p_r
    grid = sorted(set(range(6, 3_000)) | {int(r) for r in np.geomspace(3_000, 2**27, 50)})
    agreed = 0
    for r in grid:
        low, high = top_prime_bounds(r)
        p = top_prime(r)
        assert low <= p <= high, r
        if hash_width(low) == hash_width(high):
            agreed += 1
            assert hash_width(low) == hash_width(p), r
    assert agreed > len(grid) // 2
    # even r = 2 * delta at epsilon 1/2, through the cached width
    for delta in (3, 50, 1_000, 123_457):
        r = 2 * delta
        assert nominal_hash_width(delta, 1, 0.5) == hash_width(top_prime(r))


def test_qubit_count_match_formula():
    # n=8, m=3, p=13: width 4, N=6 -> index width 3, 3 copies
    assert qubit_count_match(8, 3, 0.5, p=13) == 4 + 3 * (3 + 4) + ANCILLA_MATCH


def test_qubit_count_match_single_window():
    # N=1: one copy of a width-0 index register, two hash registers total
    assert qubit_count_match(4, 4, 0.5, p=13) == 2 * 4 + ANCILLA_MATCH


def test_qubit_count_match_growth():
    counts = [qubit_count_match(n, 8, 0.1) for n in (64, 128, 256, 512)]
    deltas = np.diff(counts)
    assert (deltas > 0).all()
    # doubling n grows the count by Theta(log n) additively
    assert max(deltas) <= 4 * index_width(512) + index_width(512) ** 2


def test_qubit_count_compare_bsearch_formula():
    lk = 4
    lp = hash_width(251)
    expected = lk * (lk + 2 * lp) + lk + 1 + ANCILLA_COMPARE_BSEARCH
    assert qubit_count_compare_bsearch(16, 0.5, p=251) == expected


def test_qubit_count_compare_grover_cubic_growth():
    small = qubit_count_compare_grover(16)
    big = qubit_count_compare_grover(256)
    # (log k)^3 leading term: doubling log k multiplies copies by ~8
    assert 4 < big / small < 12


def test_fit_loglog_slope():
    xs = [64, 128, 256, 512]
    assert abs(fit_loglog_slope(xs, [x**0.5 for x in xs]) - 0.5) < 1e-9
    assert abs(fit_loglog_slope(xs, [7.0] * 4)) < 1e-9
    with pytest.raises(ValueError):
        fit_loglog_slope([1], [1])


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(algo="teleport", grid=(8,))
    with pytest.raises(ValueError):
        SweepConfig(algo="match", grid=())
    with pytest.raises(ValueError):
        SweepConfig(algo="match", grid=(8,), trials=0)


def test_run_sweep_match_rows():
    config = SweepConfig(algo="match", grid=(16, 32), m=4, epsilon=0.1, trials=3, seed=5)
    rows = run_sweep(config)
    assert len(rows) == 2
    for row, n in zip(rows, (16, 32)):
        assert row["qubits"] == qubit_count_match(n, 4, 0.1)
        assert row["oracle_queries"] > 0
        assert 0 <= row["success_rate"] <= 1
    assert sweep_csv(rows).splitlines()[0] == CSV_HEADER


def test_run_sweep_compare_rows():
    rows = run_sweep(SweepConfig(algo="compare_bsearch", grid=(8,), trials=2, seed=1))
    assert rows[0]["qubits"] == qubit_count_compare_bsearch(8, 0.1)
    rows = run_sweep(SweepConfig(algo="compare_grover", grid=(8,), trials=2, seed=1))
    assert rows[0]["qubits"] == qubit_count_compare_grover(8)


def test_sweep_deterministic():
    config = SweepConfig(algo="match", grid=(16,), m=4, trials=3, seed=9)
    a = run_sweep(config)
    b = run_sweep(config)
    assert sweep_csv(a) == sweep_csv(b)


def test_sweep_parallel_matches_serial():
    serial = run_sweep(SweepConfig(algo="match", grid=(16, 32), m=4, trials=2, seed=3))
    parallel = run_sweep(
        SweepConfig(algo="match", grid=(16, 32), m=4, trials=2, seed=3, jobs=2)
    )
    assert sweep_csv(serial) == sweep_csv(parallel)
    # minimum finding copies structured states in the workers, none sent
    serial = run_sweep(SweepConfig(algo="compare_grover", grid=(16, 32), trials=2, seed=3))
    parallel = run_sweep(
        SweepConfig(algo="compare_grover", grid=(16, 32), trials=2, seed=3, jobs=2)
    )
    assert sweep_csv(serial) == sweep_csv(parallel)


def test_backend_ledgers_identical_in_sweep():
    s = run_sweep(SweepConfig(algo="match", grid=(16,), m=3, trials=2, seed=7,
                              backend=StructuredState))
    d = run_sweep(SweepConfig(algo="match", grid=(16,), m=3, trials=2, seed=7,
                              backend=DenseSearchState))
    for key in ("diffusion_units", "oracle_queries", "hash_eval_units", "gate_units_total"):
        assert s[0][key] == d[0][key]


class _RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers and each
    map's chunksize and runs the tasks in this process, so no worker
    process is ever started."""

    sizes: list[int] = []
    chunksizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        self.chunksizes.append(chunksize)
        return map(fn, tasks)


@pytest.fixture
def recording_pool(monkeypatch):
    monkeypatch.setattr(_RecordingExecutor, "sizes", [])
    monkeypatch.setattr(_RecordingExecutor, "chunksizes", [])
    monkeypatch.setattr(resources, "ProcessPoolExecutor", _RecordingExecutor)
    monkeypatch.setattr(resources.os, "cpu_count", lambda: 4)
    return _RecordingExecutor.sizes


@pytest.mark.parametrize(
    "jobs, tasks, workers",
    [(10**6, 3, [3]), (10**6, 10, [4]), (2, 10, [2]), (1, 10, []), (8, 1, []), (8, 0, [])],
)
def test_pool_map_clamps_workers(recording_pool, jobs, tasks, workers):
    assert pool_map(str, list(range(tasks)), jobs) == [str(t) for t in range(tasks)]
    assert recording_pool == workers


def test_pool_map_without_cpu_count_runs_in_process(recording_pool, monkeypatch):
    monkeypatch.setattr(resources.os, "cpu_count", lambda: None)
    assert pool_map(str, [1, 2, 3], 8) == ["1", "2", "3"]
    assert recording_pool == []


def test_pool_map_sends_a_few_chunks_per_worker(recording_pool):
    # the executor pickles the worker once per chunk, not once per task
    tasks = range(10**4)
    assert pool_map(str, tasks, 2) == [str(t) for t in tasks]
    assert recording_pool == [2]
    assert math.ceil(len(tasks) / _RecordingExecutor.chunksizes[0]) <= 8


def test_sweep_sends_one_point_per_task(recording_pool):
    config = SweepConfig(algo="match", grid=tuple(range(8, 40)), m=4, trials=1, seed=1, jobs=2)
    assert len(run_sweep(config)) == 32
    assert (recording_pool, _RecordingExecutor.chunksizes) == ([2], [1])


def test_sweep_jobs_clamped(recording_pool):
    config = SweepConfig(algo="match", grid=(16, 32), m=4, trials=1, seed=1, jobs=10**6)
    assert run_sweep(config) == run_sweep(SweepConfig(**{**config.__dict__, "jobs": 1}))
    assert recording_pool == [2]


def test_cli_jobs_clamped_to_trials(recording_pool, capsys):
    args = ["match", "--text", "0110010110", "--pattern", "011", "--seed", "3", "--trials", "3"]
    assert main(args) == 0
    serial = capsys.readouterr().out
    assert main(args + ["--jobs", "1000000"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == serial.splitlines()[1:]
    assert recording_pool == [3]
