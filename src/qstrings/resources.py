"""Qubit and abstract-gate-unit accounting, plus sweep/regression tooling.

Cost model: a diffusion over a width-q register charges q units; an
oracle query charges its declared evaluation cost (the gate cost of one
coherent evaluation, times the amplification factor actually applied);
accessing an indexed element charges ceil(log2 k) units.  The counter
`inner_grover_iterations` tallies nested-search iterations for
diagnostics; their gate cost is already inside the query charges, so the
total sums the other four counters only.
"""

from __future__ import annotations

import csv
import io
import operator
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from . import fingerprint

# Fixed ancilla allowances (phase-kickback flag, nested-search index and
# verdict registers at desk scale).  Excluded from asymptotic checks.
ANCILLA_MATCH = 7
ANCILLA_COMPARE_BSEARCH = 7
ANCILLA_COMPARE_GROVER = 2

# Largest structured-mode match text, and largest sweep n or k.
STRUCTURED_TEXT_CAP = 1 << 16

_COUNTERS = (
    "diffusion_units",
    "oracle_queries",
    "inner_grover_iterations",
    "access_units",
    "hash_eval_units",
)
_GATE_COUNTERS = tuple(c for c in _COUNTERS if c != "inner_grover_iterations")
_COUNTER_VALUES = operator.attrgetter(*_COUNTERS)

CSV_HEADER = ",".join(
    ("algo", "n", "m", "k", "epsilon", "seed", "trials", "success_rate", "qubits")
    + _COUNTERS
    + ("gate_units_total",)
)


@dataclass
class ResourceLedger:
    """Monotone counters for one algorithm run."""

    qubits_total: int = 0
    diffusion_units: int = 0
    oracle_queries: int = 0
    inner_grover_iterations: int = 0
    access_units: int = 0
    hash_eval_units: int = 0
    # (interned label, counter deltas in _COUNTERS order) per closed phase
    phase_breakdown: list[tuple[str, tuple[int, ...]]] = field(default_factory=list)

    def counters(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in _COUNTERS}

    @property
    def gate_units_total(self) -> int:
        return sum(getattr(self, name) for name in _GATE_COUNTERS)

    def snapshot(self) -> tuple[int, ...]:
        """Counter values in _COUNTERS order, for a later close_phase."""
        return _COUNTER_VALUES(self)

    def close_phase(self, label: str, before: tuple[int, ...]) -> None:
        delta = tuple(map(operator.sub, _COUNTER_VALUES(self), before))
        self.phase_breakdown.append(_phase_record(label, delta))


@lru_cache(maxsize=1024)
def _phase_record(label: str, delta: tuple[int, ...]) -> tuple[str, tuple[int, ...]]:
    """One shared, immutable (interned label, delta) record per distinct
    phase: Grover runs of one size charge equal deltas, so ledgers that
    are kept refer to one copy instead of holding their own."""
    return sys.intern(label), delta


def charge(ledger: ResourceLedger, counter: str, amount: int | float) -> ResourceLedger:
    """Add `amount` units to the ledger counter named `counter`."""
    if amount < 0:
        raise ValueError("charge amount must be non-negative")
    if counter not in _COUNTERS:
        raise ValueError(f"unknown ledger counter {counter!r}")
    setattr(ledger, counter, getattr(ledger, counter) + int(amount))
    return ledger


def index_width(domain: int) -> int:
    """ceil(log2 domain); 0 for a single-element domain."""
    if domain < 1:
        raise ValueError("domain must be positive")
    return (domain - 1).bit_length()


@lru_cache(maxsize=64)
def nominal_hash_width(delta: int, max_len: int, epsilon: float) -> int:
    """Register width of the largest prime in the sized universe."""
    r = fingerprint.universe_size(delta, max_len, epsilon)
    return fingerprint.hash_width(fingerprint.top_prime(r))


def qubit_count_match(n: int, m: int, epsilon: float, p: int | None = None) -> int:
    """Exact qubit count of the full multi-copy matching layout.

    hash(pattern) register + one (index, window-hash) pair per state copy
    + the fixed ancilla allowance.  With `p` given, uses that modulus
    width; otherwise the nominal (universe-maximum) width.
    """
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    num_windows = n - m + 1
    lp = (
        fingerprint.hash_width(p)
        if p is not None
        else nominal_hash_width(num_windows, m, epsilon)
    )
    ln = index_width(num_windows)
    copies = max(1, ln)
    return lp + copies * (ln + lp) + ANCILLA_MATCH


def qubit_count_match_unique(n: int, m: int, epsilon: float, p: int | None = None) -> int:
    """Qubit count of a single-copy matching run: one index register plus
    the window-hash and pattern-hash registers and the ancilla allowance."""
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    num_windows = n - m + 1
    lp = (
        fingerprint.hash_width(p)
        if p is not None
        else nominal_hash_width(num_windows, m, epsilon)
    )
    return index_width(num_windows) + 2 * lp + ANCILLA_MATCH


def qubit_count_compare_bsearch(k: int, epsilon: float, p: int | None = None) -> int:
    """Exact qubit count of the prefix-hash binary-search comparator layout."""
    if k < 1:
        raise ValueError("k must be positive")
    lp = fingerprint.hash_width(p) if p is not None else nominal_hash_width(k, k, epsilon)
    lk = index_width(k)
    copies = max(1, lk)
    return copies * (lk + 2 * lp) + lk + 1 + ANCILLA_COMPARE_BSEARCH


def qubit_count_compare_grover(k: int) -> int:
    """Exact qubit count of the symbol-pair comparator layout.

    One (index, u-bit, v-bit) triple for the readout register plus one
    per search copy across all phases, plus the running-best record.
    """
    if k < 1:
        raise ValueError("k must be positive")
    lk = index_width(k)
    copy_width = max(1, lk) + 2
    phases = 3 * max(1, lk)
    copies = phases * max(1, lk)
    return (copies + 1) * copy_width + (max(1, lk) + 1) + ANCILLA_COMPARE_GROVER


def fit_loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    if len(xs) < 2:
        raise ValueError("need at least two points to fit a slope")
    return float(np.polyfit(np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float)), 1)[0])


@dataclass(frozen=True)
class SweepConfig:
    """Parameter grid for a scaling regression."""

    algo: str  # match | compare_grover | compare_bsearch
    grid: tuple[int, ...]
    m: int = 8
    epsilon: float = 0.1
    trials: int = 20
    seed: int = 0
    backend: str = "structured"
    output_path: str | None = None
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.algo not in ("match", "compare_grover", "compare_bsearch"):
            raise ValueError(f"unknown sweep algo {self.algo!r}")
        if not self.grid:
            raise ValueError("sweep grid must be non-empty")
        if min(self.grid) < 1:
            raise ValueError("sweep grid values must be positive")
        if max(self.grid) > STRUCTURED_TEXT_CAP:
            raise ValueError(f"sweep grid values must be at most 2^16 = {STRUCTURED_TEXT_CAP}")
        if self.algo == "match" and not 1 <= self.m <= min(self.grid):
            raise ValueError(
                f"match sweep needs 1 <= m <= n for every grid value, got m={self.m}"
            )
        if self.trials < 1:
            raise ValueError("trials must be at least 1")


def _sweep_point(args: tuple) -> dict:
    algo, x, m, epsilon, trials, seed, backend = args
    from . import qcompare, qmatch
    from .strings_core import BitString, compare_classical

    counters = {name: 0.0 for name in _COUNTERS}
    counters["gate_units_total"] = 0.0
    successes = 0
    for trial in range(trials):
        rng = np.random.default_rng((seed, x, trial))
        if algo == "match":
            inst, d_true = qmatch.random_single_occurrence(x, m, rng)
            params = qmatch.match_params(inst, epsilon, rng)
            result = qmatch.match_search(inst, params, rng, mode=backend)
            expected = qubit_count_match(x, m, epsilon, p=params.p)
            if result.ledger.qubits_total != expected:
                raise AssertionError("ledger qubit count diverged from the layout formula")
            successes += int(result.position == d_true)
            ledger = result.ledger
        else:
            u = BitString.from_bits(rng.integers(0, 2, x))
            shared = u.bits[: int(rng.integers(0, x + 1))]
            v = BitString((shared + BitString.from_bits(rng.integers(0, 2, x)).bits)[:x])
            if algo == "compare_grover":
                result = qcompare.compare_grover(u, v, rng, mode=backend)
                ledger = result.ledger
                if ledger.qubits_total != qubit_count_compare_grover(min(len(u), len(v))):
                    raise AssertionError("ledger qubit count diverged from the layout formula")
            else:
                params = qcompare.compare_params(u, v, epsilon, rng)
                result = qcompare.compare_bsearch(u, v, params, rng, mode=backend)
                ledger = result.ledger
                expected = qubit_count_compare_bsearch(
                    min(len(u), len(v)), epsilon, p=params.p
                )
                if ledger.qubits_total != expected:
                    raise AssertionError("ledger qubit count diverged from the layout formula")
            successes += int(result.verdict == compare_classical(u, v))
        for name in _COUNTERS:
            counters[name] += getattr(ledger, name)
        counters["gate_units_total"] += ledger.gate_units_total
    for key in counters:
        counters[key] /= trials
    if algo == "match":
        qubits = qubit_count_match(x, m, epsilon)
        n_col, m_col, k_col = x, m, ""
    elif algo == "compare_grover":
        qubits = qubit_count_compare_grover(x)
        n_col, m_col, k_col = "", "", x
    else:
        qubits = qubit_count_compare_bsearch(x, epsilon)
        n_col, m_col, k_col = "", "", x
    return {
        "algo": algo,
        "n": n_col,
        "m": m_col,
        "k": k_col,
        "epsilon": epsilon,
        "seed": seed,
        "trials": trials,
        "success_rate": successes / trials,
        "qubits": qubits,
        **{name: counters[name] for name in _COUNTERS},
        "gate_units_total": counters["gate_units_total"],
    }


def pool_map(worker: Callable, tasks: Sequence, jobs: int) -> list:
    """`worker` applied to each task, results in task order.

    Runs in min(jobs, len(tasks), os.cpu_count()) worker processes, or
    in this process when that is one: an executor starts every worker on
    its first submit, so `jobs` alone must not size it.
    """
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks))


def run_sweep(config: SweepConfig) -> list[dict]:
    """One aggregated row per grid point; optionally written as CSV."""
    jobs = [
        (config.algo, x, config.m, config.epsilon, config.trials, config.seed, config.backend)
        for x in config.grid
    ]
    rows = pool_map(_sweep_point, jobs, config.jobs)
    if config.output_path:
        with open(config.output_path, "w", encoding="ascii", newline="") as fh:
            fh.write(sweep_csv(rows))
    return rows


def sweep_csv(rows: Iterable[dict], comment: str | None = None) -> str:
    """Render sweep rows under the fixed header."""
    buf = io.StringIO()
    if comment:
        buf.write(f"# {comment}\n")
    buf.write(CSV_HEADER + "\n")
    writer = csv.DictWriter(buf, fieldnames=CSV_HEADER.split(","), lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()
