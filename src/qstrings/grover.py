"""Grover-search primitives over either state backend.

Includes fixed-iteration search (answering each query of a
bounded-error oracle by rho independent re-evaluations), the doubling
schedule for unknown target counts (2^j iterations on repetition j,
first verified hit wins), and threshold-descent minimum finding.

Oracles are bool truth arrays.  Noisy ones are one-sided, like the
hash-equality oracle whose "differs" verdict carries a verified witness:
each query wrongly marks a fresh sample of non-targets, drawn per error
class at its amplified error.  Exact oracles mark their targets, so
their trajectories are deterministic given the measurement rng.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

# `charge` is unused here but stays importable as `grover.charge`, a name
# perfbench/tracer.py patches
from .resources import ResourceLedger, charge  # noqa: F401
from .sim import SearchState, padded_size


def optimal_iterations(domain: int, targets: int) -> int:
    """floor((pi/4) * sqrt(M/t)), clamped to at least one iteration."""
    if targets == 0:
        raise ValueError("no targets: use the doubling schedule instead")
    if not 1 <= targets <= domain:
        raise ValueError("target count out of range")
    return max(1, math.floor(math.pi / 4 * math.sqrt(domain / targets)))


def success_probability(domain: int, targets: int, iterations: int) -> float:
    """Closed-form sin^2((2j+1) * asin(sqrt(t/M))) for exact oracles."""
    theta = math.asin(math.sqrt(targets / domain))
    return math.sin((2 * iterations + 1) * theta) ** 2


_BAD_ERROR_CLASSES = "error_classes must map the padded domain to errors in [0, 1]"


@lru_cache(maxsize=64)
def _ranked_errors(errors: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray, int]:
    """The distinct errors ascending; each error's rank among them, as a
    small unsigned key that numpy radix-sorts; and the rank of the first
    positive error (a zero error has rank 0).  Read-only: every oracle
    over the same error table shares them."""
    table = np.asarray(errors, dtype=float)
    if not np.all((table >= 0) & (table <= 1)):
        raise ValueError(_BAD_ERROR_CLASSES)
    values, rank = np.unique(table, return_inverse=True)
    rank = rank.astype(np.min_scalar_type(values.size))
    values.flags.writeable = rank.flags.writeable = False
    return values, rank, int(values[0] == 0)


class OracleSpec:
    """Exact ground truth over a search domain with its cost and one-sided
    error model.

    `truth` is a bool array over the padded domain, False on padding.  An
    evaluation may miss the witness that rules a non-target out, so only
    non-targets are ever wrongly marked.  `error_classes=(labels, errors)`
    gives index a the single-evaluation error errors[labels[a]]; without
    it, `error_prob` > 0 applies to every non-target.  Non-targets are
    grouped once into classes of equal positive error (ascending, members
    in index order), so a query costs O(classes + marked indices).
    """

    def __init__(
        self,
        domain_size: int,
        truth: np.ndarray,
        evaluation_cost: int = 1,
        error_prob: float = 0.0,
        error_classes: tuple[np.ndarray, np.ndarray] | None = None,
        inner_iterations_per_eval: int = 0,
    ):
        if not 0 <= error_prob < 0.5:
            raise ValueError("declared error probability must lie in [0, 1/2)")
        self.domain_size = domain_size
        self.padded = padded_size(domain_size)
        if truth.dtype != bool or truth.shape != (self.padded,):
            raise ValueError("truth must be a bool array over the padded domain")
        if truth[domain_size:].any():
            raise ValueError("padding indices must be non-targets")
        self.truth = truth
        self.targets = np.flatnonzero(truth)
        self.targets.flags.writeable = False
        self.evaluation_cost = evaluation_cost
        self.error_prob = error_prob
        self.inner_iterations_per_eval = inner_iterations_per_eval
        if error_classes is None and error_prob > 0:
            error_classes = (np.zeros(self.padded, dtype=np.uint8), (error_prob,))
        # class c holds _members[_starts[c] : _starts[c] + _sizes[c]]
        self._class_errors: np.ndarray | None = None
        if error_classes is not None:
            labels, errors = error_classes
            if type(errors) is not tuple:
                errors = tuple(np.asarray(errors, dtype=float).tolist())
            if (labels.shape != (self.padded,) or labels.dtype.kind not in "iu"
                    or (labels.dtype.kind == "i" and labels.min() < 0)
                    or labels.max() >= len(errors)):
                raise ValueError(_BAD_ERROR_CLASSES)
            values, rank, first_positive = _ranked_errors(errors)
            key = rank.take(labels)
            index = (~truth & (key >= first_positive)).nonzero()[0]
            key = key.take(index)
            counts = np.bincount(key, minlength=values.size)
            used = counts > 0
            self._members = index.take(key.argsort(kind="stable"))
            self._sizes = counts[used]
            self._starts = np.cumsum(self._sizes) - self._sizes
            self._class_errors = values[used]
        self._query_errors: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def amplification(self, iterations: int) -> int:
        """Evaluations per query so the query error is <= 1/(10*iterations)."""
        if self.error_prob <= 0:
            return 1
        rho = math.ceil(math.log(10 * max(1, iterations)) / math.log(1 / self.error_prob))
        return max(1, rho)

    def query_error(self, rho: int) -> tuple[np.ndarray, np.ndarray] | None:
        """Per error class: the probability q = e^rho that all rho
        evaluations of a member miss its witness, and the probability
        (1-q)^n that none of the class's n members is wrongly marked.
        None for an exact oracle.

        Computed once per rho and shared by every later query; callers
        must not modify the returned arrays.
        """
        if self._class_errors is None:
            return None
        if rho not in self._query_errors:
            wrong = self._class_errors**rho
            with np.errstate(divide="ignore"):
                none_wrong = np.exp(self._sizes * np.log1p(-wrong))
            self._query_errors[rho] = (wrong, none_wrong)
        return self._query_errors[rho]

    def query_pattern(self, rng: np.random.Generator, rho: int) -> np.ndarray:
        """Sorted int64 indices marked by one query: the targets plus the
        wrongly marked non-targets.

        Every class member is wrongly marked, independently, with its
        class's amplified error.  Per class one uniform draw gives the
        number of wrong answers (by the binomial inverse cdf, 0 whenever
        it lies below (1-q)^n), then that many distinct members are
        drawn.  Exact oracles return `targets`, which callers must not
        modify.
        """
        err = self.query_error(rho)
        if err is None:
            return self.targets
        wrong, none_wrong = err
        u = rng.random(wrong.size)
        flipped = u >= none_wrong
        if not np.count_nonzero(flipped):
            return self.targets
        flips = []
        for c in np.flatnonzero(flipped):
            size = int(self._sizes[c])
            count = _binomial_count(float(u[c]), size, float(wrong[c]), float(none_wrong[c]))
            flips.append(self._members[self._starts[c] + rng.choice(size, count, replace=False)])
        return np.sort(np.concatenate([self.targets, *flips]))  # all disjoint


def _binomial_count(u: float, n: int, q: float, p0: float) -> int:
    """Inverse cdf of Binomial(n, q) at u, for u >= p0 = (1-q)^n.

    The smallest k >= 1 with u < P(X <= k); terms are summed in log
    space so a vanishing p0 cannot stall the walk.
    """
    if q >= 1.0:
        return n
    log_ratio = math.log(q) - math.log1p(-q)
    log_pmf = n * math.log1p(-q)
    cdf, k = p0, 0
    while u >= cdf and k < n:
        log_pmf += math.log((n - k) / (k + 1)) + log_ratio
        k += 1
        cdf += math.exp(log_pmf)
    return k


@dataclass
class GroverOutcome:
    """Result of one search: measured index plus run accounting."""

    found_index: int | None
    predicate_value_at_found: int
    iterations_used: int
    copies_used: int = 1

    @property
    def verified(self) -> bool:
        return self.found_index is not None and self.predicate_value_at_found == 1


def charge_iterations(
    ledger: ResourceLedger,
    search: SearchState,
    oracle: OracleSpec,
    iterations: int,
    rho: int,
) -> None:
    """Charge `iterations` query-and-diffusion steps on `search`, each
    query answered by `rho` evaluations of `oracle`, as one checked add
    of the four counters."""
    evaluations = iterations * rho
    hash_units = evaluations * oracle.evaluation_cost
    inner = evaluations * oracle.inner_iterations_per_eval
    diffusion = iterations * search.index_width
    if min(iterations, hash_units, inner, diffusion) < 0:
        raise ValueError("charge amount must be non-negative")
    ledger.oracle_queries += iterations
    ledger.hash_eval_units += hash_units
    ledger.inner_grover_iterations += inner
    ledger.diffusion_units += diffusion


def grover_run(
    search: SearchState,
    oracle: OracleSpec,
    iterations: int,
    rng: np.random.Generator,
    ledger: ResourceLedger | None = None,
    rho: int | None = None,
) -> GroverOutcome:
    """Alternate query and diffusion `iterations` times, then measure.

    The caller supplies a uniform index superposition.  Each query is
    answered by `rho` independent evaluations, by default enough for a
    per-query error of at most 1/(10 * iterations).  For exact oracles
    on power-of-two domains the pre-measurement success probability is
    exactly sin^2((2*iterations+1) * asin(sqrt(t/M_padded))).
    """
    ledger = ledger if ledger is not None else ResourceLedger()
    before = ledger.snapshot()
    rho = oracle.amplification(iterations) if rho is None else rho
    for _ in range(iterations):
        search.apply_phase_pattern(oracle.query_pattern(rng, rho))
        search.diffuse()
    # every iteration costs the same, so the run is charged once
    charge_iterations(ledger, search, oracle, iterations, rho)
    found = search.measure_index(rng)
    ledger.close_phase(f"grover_run[{iterations}]", before)
    return GroverOutcome(
        found_index=found,
        predicate_value_at_found=int(oracle.truth[found]),
        iterations_used=iterations,
    )


def doubling_schedule(domain: int, max_repetitions: int | None = None) -> list[int]:
    """Iteration counts 2^j for j = 0 .. ceil(log2 sqrt(M)), optionally capped."""
    reps = math.ceil(math.log2(math.sqrt(padded_size(domain)))) + 1
    if max_repetitions is not None:
        reps = min(reps, max_repetitions)
    return [2**j for j in range(max(1, reps))]


def bbht_search(
    oracle: OracleSpec,
    rng: np.random.Generator,
    state_factory: Callable[[int], SearchState],
    ledger: ResourceLedger | None = None,
    max_repetitions: int | None = None,
) -> GroverOutcome:
    """Doubling-schedule search for an unknown target count.

    Each repetition consumes one fresh state from the factory and its
    measured index is classically checked against the exact predicate;
    the first verified hit is returned.  With at least one target the
    hit probability is at least 1/2.  found_index None means every
    repetition failed verification.
    """
    ledger = ledger if ledger is not None else ResourceLedger()
    total = 0
    schedule = doubling_schedule(oracle.domain_size, max_repetitions)
    for rep, iterations in enumerate(schedule):
        outcome = grover_run(state_factory(rep), oracle, iterations, rng, ledger)
        total += iterations
        if outcome.verified:
            return GroverOutcome(
                found_index=outcome.found_index,
                predicate_value_at_found=1,
                iterations_used=total,
                copies_used=rep + 1,
            )
    return GroverOutcome(
        found_index=None,
        predicate_value_at_found=0,
        iterations_used=total,
        copies_used=len(schedule),
    )


def durr_hoyer_min(
    keys: np.ndarray,
    domain: int,
    rng: np.random.Generator,
    state_factory: Callable[[int, int], SearchState],
    ledger: ResourceLedger | None = None,
    initial_key: object | None = None,
    on_phase: Callable[[int, int | None, object], None] | None = None,
) -> tuple[int | None, int, int]:
    """Threshold-descent minimum finding over a 1-D numeric key array.

    Each phase searches for an index with key strictly below the current
    threshold (ties never improve) and adopts any verified hit; the run
    stops after 3 * ceil(log2 M) phases or when a phase finds nothing.
    Returns (argmin_estimate, phases_used, total_grover_iterations); the
    estimate is correct with probability at least 1/2.  With
    `initial_key` given, the threshold starts above every real key and
    the estimate is None if no phase ever improved on it.
    """
    keys = np.asarray(keys)
    if keys.shape != (domain,) or keys.dtype.kind not in "iuf":
        raise ValueError(f"keys must be a 1-D numeric array of length {domain}")
    ledger = ledger if ledger is not None else ResourceLedger()
    if initial_key is None:
        best_index: int | None = int(rng.integers(0, domain))
        best_key = keys[best_index]
    else:
        best_index = None
        best_key = initial_key
    log_m = max(1, math.ceil(math.log2(max(2, domain))))
    phase_cap = 3 * log_m
    total_iterations = 0
    phases = 0
    for phase in range(phase_cap):
        truth = np.zeros(padded_size(domain), dtype=bool)
        truth[:domain] = keys < best_key
        oracle = OracleSpec(domain, truth, evaluation_cost=1)
        phases += 1
        outcome = bbht_search(
            oracle,
            rng,
            lambda rep, _phase=phase: state_factory(_phase, rep),
            ledger,
            max_repetitions=log_m,
        )
        total_iterations += outcome.iterations_used
        if outcome.found_index is None:
            if on_phase is not None:
                on_phase(phase, None, best_key)
            break
        best_index = outcome.found_index
        best_key = keys[best_index]
        if on_phase is not None:
            on_phase(phase, best_index, best_key)
    return best_index, phases, total_iterations
