"""The four benchmark workloads: input generators, one op each, and the
per-op correctness gate.

Inputs are plain numpy arrays made from the benchmark seed before any
timing; `prepare` turns them into program objects, also untimed.  Every
program call goes through a module attribute (`qmatch.match_search`, not
an imported name) so that the traced pass sees it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qstrings import qcompare, qmatch, resources
from qstrings.strings_core import BitString, MatchInstance, compare_classical, naive_match_all

EPSILON = 0.1
COUNTERS = (
    "diffusion_units",
    "oracle_queries",
    "inner_grover_iterations",
    "access_units",
    "hash_eval_units",
)
OP_STREAM = 1
PLACE_STREAM = 2
# Warm-up ops draw from index streams far above any measured op index.
WARMUP_BASE = 10**6


@dataclass
class Checked:
    """What the gate makes of one op's output."""

    problem: str | None  # a broken hard guarantee, or None
    hits: int  # answers equal to the exact classical oracle's
    tries: int  # answers checked against the oracle
    gate_units: int
    counters: dict[str, int]
    record: list  # digest payload: the answer plus the five ledger counters
    ledger_phases: int  # entries in ResourceLedger.phase_breakdown
    compare_phases: int  # CompareResult.phases


def _ledger_fields(ledger) -> tuple[dict[str, int], int, int]:
    counters = {name: int(getattr(ledger, name)) for name in COUNTERS}
    return counters, int(ledger.gate_units_total), len(ledger.phase_breakdown)


class Workload:
    name = ""
    distinct = 1  # distinct ops; a run repeats them in passes, op i of every pass alike

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs = self.make_inputs(seed)

    @staticmethod
    def make_inputs(seed: int):
        raise NotImplementedError

    def prepare(self) -> None:
        """Build program objects from the inputs (untimed)."""

    def op_rng(self, i: int) -> np.random.Generator:
        # Seeded by the op index alone, so that op i makes the same draws
        # under every seed (above all the prime, whose nth-prime lookup is
        # most of a compare_bsearch op) and the spread between seeds shows
        # the host rather than the draws.  The seed picks the inputs.
        return np.random.default_rng([OP_STREAM, i])

    def run(self, i: int, rng: np.random.Generator):
        raise NotImplementedError

    def check(self, i: int, out) -> Checked:
        raise NotImplementedError


class MatchLong(Workload):
    name = "match_long"
    distinct = 5
    n = 2**16
    m = 16

    @staticmethod
    def make_inputs(seed: int) -> dict:
        """A random text in which a random pattern occurs exactly once, at
        the middle.  Where the one target sits decides, together with the
        op's draws, how many Grover repetitions an op takes (up to fourfold
        in cost), so it is fixed and every seed poses a search of the same
        cost; the seed varies the bits."""
        n, m = MatchLong.n, MatchLong.m
        rng = np.random.default_rng([seed, 0])
        text = rng.integers(0, 2, n, dtype=np.int8)
        pattern = rng.integers(0, 2, m, dtype=np.int8)
        start = (n - m) // 2
        text[start : start + m] = pattern
        while True:
            windows = np.lib.stride_tricks.sliding_window_view(text, m)
            others = [int(d) for d in np.flatnonzero((windows == pattern).all(axis=1)) if d != start]
            if not others:
                return {"text": text, "pattern": pattern, "start": start}
            for d in others:
                spots = [j for j in range(d, d + m) if not start <= j < start + m]
                text[spots[int(rng.integers(0, len(spots)))]] ^= 1

    def prepare(self) -> None:
        self.inst = MatchInstance(
            BitString.from_bits(self.inputs["text"]), BitString.from_bits(self.inputs["pattern"])
        )
        self.occurrences = naive_match_all(self.inst)

    def run(self, i, rng):
        params = qmatch.match_params(self.inst, EPSILON, rng)
        return params, qmatch.match_search(self.inst, params, rng)

    def check(self, i, out) -> Checked:
        params, res = out
        problem = None
        if res.position is not None and res.position not in self.occurrences:
            problem = f"returned position {res.position} is not an occurrence"
        expected = resources.qubit_count_match(self.n, self.m, EPSILON, p=params.p)
        if res.ledger.qubits_total != expected:
            problem = f"qubits_total {res.ledger.qubits_total} != layout formula {expected}"
        counters, units, phases = _ledger_fields(res.ledger)
        record = [params.p, res.position, res.measured_index, res.hash_verified,
                  res.exactly_verified, res.copies_used, *counters.values()]
        hit = int(res.position is not None and res.position in self.occurrences)
        return Checked(problem, hit, 1, units, counters, record, phases, 0)


class MatchSweep(Workload):
    name = "match_sweep"
    distinct = 16
    grid = (64, 128, 256, 512, 1024, 2048, 4096)
    m = 8
    trials = 4

    @staticmethod
    def make_inputs(seed: int) -> dict:
        # The sweep builds its own instances; the benchmark only fixes its seeds.
        return {"sweep_seed_base": seed * 10**7}

    def config(self, i: int) -> resources.SweepConfig:
        return resources.SweepConfig(
            algo="match", grid=self.grid, m=self.m, epsilon=EPSILON,
            trials=self.trials, seed=self.inputs["sweep_seed_base"] + i,
        )

    def op_rng(self, i):
        return None

    def run(self, i, rng):
        return resources.run_sweep(self.config(i))

    def check(self, i, rows) -> Checked:
        problem = None
        if [row["n"] for row in rows] != list(self.grid):
            problem = "sweep rows do not follow the grid"
        counters = {name: round(sum(row[name] * row["trials"] for row in rows)) for name in COUNTERS}
        units = round(sum(row["gate_units_total"] * row["trials"] for row in rows))
        hits = round(sum(row["success_rate"] * row["trials"] for row in rows))
        tries = sum(row["trials"] for row in rows)
        record = [resources.sweep_csv(rows)]
        return Checked(problem, hits, tries, units, counters, record, 0, 0)


class _ComparePairs(Workload):
    k = 4096
    pool = 64

    @staticmethod
    def make_inputs(seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """`pool` equal-length pairs; every eighth is equal, the others first
        differ at a position drawn uniformly from 1..k and, after it, at
        each position with probability 1/2.  Which positions differ decides
        what a comparator's search costs, so, like an op's draws, it is
        drawn by the pair's index alone: every seed poses searches of the
        same cost, and the seed varies the bits."""
        k = _ComparePairs.k
        rng = np.random.default_rng([seed, 0])
        places = np.random.default_rng([PLACE_STREAM, 0])
        pairs = []
        for j in range(_ComparePairs.pool):
            u = rng.integers(0, 2, k, dtype=np.int8)
            differ = np.zeros(k, dtype=np.int8)
            if j % 8 != 7:
                d = int(places.integers(1, k + 1))
                differ[d - 1] = 1
                differ[d:] = places.integers(0, 2, k - d, dtype=np.int8)
            pairs.append((u, u ^ differ))
        return pairs

    def prepare(self) -> None:
        self.pairs = [(BitString.from_bits(u), BitString.from_bits(v)) for u, v in self.inputs]
        self.truth = [compare_classical(u, v) for u, v in self.pairs]

    def pair(self, i: int) -> tuple[BitString, BitString]:
        return self.pairs[i % self.pool]

    def _check(self, i, p, res, expected_qubits) -> Checked:
        u, v = self.pair(i)
        problem = None
        fd = res.first_difference
        if fd is not None and not (1 <= fd <= self.k and u.bits[fd - 1] != v.bits[fd - 1]):
            problem = f"first_difference {fd} is not a differing position"
        if res.ledger.qubits_total != expected_qubits:
            problem = f"qubits_total {res.ledger.qubits_total} != layout formula {expected_qubits}"
        counters, units, phases = _ledger_fields(res.ledger)
        record = [p, res.verdict, fd, res.phases, res.hash_comparisons, res.copies_used,
                  *counters.values()]
        hit = int(res.verdict == self.truth[i % self.pool])
        return Checked(problem, hit, 1, units, counters, record, phases, res.phases)


class CompareBsearch(_ComparePairs):
    name = "compare_bsearch"
    distinct = 8  # pairs 0..7: seven that differ and the equal one

    def run(self, i, rng):
        u, v = self.pair(i)
        params = qcompare.compare_params(u, v, EPSILON, rng)
        return params, qcompare.compare_bsearch(u, v, params, rng)

    def check(self, i, out) -> Checked:
        params, res = out
        expected = resources.qubit_count_compare_bsearch(self.k, EPSILON, p=params.p)
        return self._check(i, params.p, res, expected)


class CompareGrover(_ComparePairs):
    name = "compare_grover"
    distinct = 64

    def run(self, i, rng):
        u, v = self.pair(i)
        return qcompare.compare_grover(u, v, rng)

    def check(self, i, res) -> Checked:
        return self._check(i, None, res, resources.qubit_count_compare_grover(self.k))


WORKLOADS = {w.name: w for w in (MatchLong, MatchSweep, CompareBsearch, CompareGrover)}
