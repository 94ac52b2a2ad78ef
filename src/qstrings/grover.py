"""Grover-search primitives over either state backend.

Includes fixed-iteration search (answering each query of a
bounded-error oracle by rho independent re-evaluations), the doubling
schedule for unknown target counts (2^j iterations on repetition j,
first verified hit wins), and threshold-descent minimum finding.

Noisy oracles are modeled stochastically: each query samples a fresh
set of marked indices from the oracle's per-index evaluation error,
post-amplification.  Exact oracles always mark their targets, so their
trajectories are fully deterministic given the measurement rng.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .resources import ResourceLedger, charge
from .sim import SearchState, padded_size


class CopiesExhausted(RuntimeError):
    """A state factory ran out of fresh copies before the schedule ended."""


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


class OracleSpec:
    """A predicate over a search domain with its cost and error model.

    `predicate` is exact ground truth, total on [0, padded) and 0 on
    padding.  `eval_error_probs` gives the per-index probability that a
    single evaluation disagrees with the truth; `one_sided` marks
    witness-verified evaluators whose errors can only report false
    targets, which the amplifier suppresses exponentially.

    Indices that can answer wrongly are grouped once into classes of
    equal evaluation error, so one query costs O(classes + marked
    indices) instead of O(domain).
    """

    def __init__(
        self,
        domain_size: int,
        predicate: Callable[[int], int] | np.ndarray,
        evaluation_cost: int = 1,
        error_prob: float = 0.0,
        eval_error_probs: np.ndarray | None = None,
        one_sided: bool = False,
        inner_iterations_per_eval: int = 0,
    ):
        if not 0 <= error_prob < 0.5:
            raise ValueError("declared error probability must lie in [0, 1/2)")
        self.domain_size = domain_size
        self.padded = padded_size(domain_size)
        if isinstance(predicate, np.ndarray):
            truth = predicate.astype(bool)
            if truth.size != self.padded:
                raise ValueError("truth vector must cover the padded domain")
        else:
            truth = np.fromiter(
                (bool(predicate(a)) for a in range(self.padded)), bool, self.padded
            )
        if truth[domain_size:].any():
            raise ValueError("padding indices must be non-targets")
        self.truth = truth
        self.targets = np.flatnonzero(truth)
        self.targets.flags.writeable = False
        self.evaluation_cost = evaluation_cost
        self.error_prob = error_prob
        self.one_sided = one_sided
        self.inner_iterations_per_eval = inner_iterations_per_eval
        if eval_error_probs is not None:
            probs = np.asarray(eval_error_probs, dtype=float)
            if probs.shape != (self.padded,):
                raise ValueError("eval_error_probs must cover the padded domain")
            if not np.all((probs >= 0) & (probs <= 1)):
                raise ValueError("eval_error_probs must lie in [0, 1]")
        elif error_prob > 0:
            probs = np.full(self.padded, error_prob)
        else:
            probs = None
        # class c holds _members[_starts[c] : _starts[c] + _sizes[c]]
        self._class_errors: np.ndarray | None = None
        if probs is not None:
            live = probs > 0
            if one_sided:
                live &= ~truth
            index = np.flatnonzero(live)
            errors, inverse, counts = np.unique(
                probs[index], return_inverse=True, return_counts=True
            )
            # stable, so members stay in index order; a small unsigned key
            # lets numpy radix-sort it
            key = inverse.astype(np.min_scalar_type(errors.size))
            self._members = index[np.argsort(key, kind="stable")]
            self._starts = np.cumsum(counts) - counts
            self._sizes = counts
            self._class_errors = errors
        self._query_errors: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def amplification(self, iterations: int) -> int:
        """Evaluations per query so the query error is <= 1/(10*iterations)."""
        if self.error_prob <= 0:
            return 1
        rho = math.ceil(math.log(10 * max(1, iterations)) / math.log(1 / self.error_prob))
        rho = max(1, rho)
        if not self.one_sided and rho % 2 == 0:
            rho += 1  # odd majority, no ties
        return rho

    def query_error(self, rho: int) -> tuple[np.ndarray, np.ndarray] | None:
        """Per error class: the probability q that one amplified query
        output is wrong, and the probability (1-q)^n that none of the
        class's n indices is.  None for an exact oracle.

        Computed once per rho and shared by every later query; callers
        must not modify the returned arrays.
        """
        if self._class_errors is None:
            return None
        if rho not in self._query_errors:
            e = self._class_errors
            if self.one_sided:
                wrong = e**rho
            else:
                wrong = np.zeros_like(e)
                for i in range((rho + 1) // 2, rho + 1):
                    wrong += math.comb(rho, i) * e**i * (1 - e) ** (rho - i)
            with np.errstate(divide="ignore"):
                none_wrong = np.exp(self._sizes * np.log1p(-wrong))
            self._query_errors[rho] = (wrong, none_wrong)
        return self._query_errors[rho]

    def query_pattern(self, rng: np.random.Generator, rho: int) -> np.ndarray:
        """Sorted int64 indices marked by one query.

        Every index answers wrongly, independently, with its class's
        amplified error.  Per class one uniform draw gives the number
        of wrong answers (by the binomial inverse cdf, 0 whenever it
        lies below (1-q)^n), then that many distinct members are drawn.
        The marked set is targets | wrong for a one-sided oracle and
        targets ^ wrong otherwise.  Exact oracles return `targets`, which
        callers must not modify.
        """
        err = self.query_error(rho)
        if err is None:
            return self.targets
        wrong, none_wrong = err
        u = rng.random(wrong.size)
        flipped = np.flatnonzero(u >= none_wrong)
        if flipped.size == 0:
            return self.targets
        flips = []
        for c in flipped:
            size = int(self._sizes[c])
            count = _binomial_count(float(u[c]), size, float(wrong[c]), float(none_wrong[c]))
            flips.append(self._members[self._starts[c] + rng.choice(size, count, replace=False)])
        marked, seen = np.unique(np.concatenate([self.targets, *flips]), return_counts=True)
        return marked if self.one_sided else marked[seen == 1]

    def truth_at(self, index: int) -> int:
        return int(self.truth[index])


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
    width = search.index_width
    for _ in range(iterations):
        search.apply_phase_pattern(oracle.query_pattern(rng, rho))
        search.diffuse()
        charge(ledger, "oracle_queries", 1)
        charge(ledger, "hash_eval_units", rho * oracle.evaluation_cost)
        charge(ledger, "inner_grover_iterations", rho * oracle.inner_iterations_per_eval)
        charge(ledger, "diffusion_units", width)
    found = search.measure_index(rng)
    ledger.close_phase(f"grover_run[{iterations}]", before)
    return GroverOutcome(
        found_index=found,
        predicate_value_at_found=oracle.truth_at(found),
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
        try:
            search = state_factory(rep)
        except CopiesExhausted:
            if rep == 0:
                raise
            break
        outcome = grover_run(search, oracle, iterations, rng, ledger)
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
    keys: Callable[[int], object] | Sequence,
    domain: int,
    rng: np.random.Generator,
    state_factory: Callable[[int, int], SearchState],
    ledger: ResourceLedger | None = None,
    initial_key: object | None = None,
    on_phase: Callable[[int, int | None, object], None] | None = None,
) -> tuple[int | None, int, int]:
    """Threshold-descent minimum finding.

    Each phase searches for an index with key strictly below the current
    threshold (ties never improve) and adopts any verified hit; the run
    stops after 3 * ceil(log2 M) phases or when a phase finds nothing.
    Returns (argmin_estimate, phases_used, total_grover_iterations); the
    estimate is correct with probability at least 1/2.  With
    `initial_key` given, the threshold starts above every real key and
    the estimate is None if no phase ever improved on it.
    """
    key_of = keys if callable(keys) else (lambda a, _seq=tuple(keys): _seq[a])
    ledger = ledger if ledger is not None else ResourceLedger()
    if initial_key is None:
        best_index: int | None = int(rng.integers(0, domain))
        best_key = key_of(best_index)
    else:
        best_index = None
        best_key = initial_key
    log_m = max(1, math.ceil(math.log2(max(2, domain))))
    phase_cap = 3 * log_m
    total_iterations = 0
    phases = 0
    for phase in range(phase_cap):
        threshold = best_key
        truth = np.zeros(padded_size(domain), dtype=bool)
        for a in range(domain):
            truth[a] = key_of(a) < threshold
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
        best_key = key_of(best_index)
        if on_phase is not None:
            on_phase(phase, best_index, best_key)
    return best_index, phases, total_iterations
