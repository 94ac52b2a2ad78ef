"""Grover-search primitives over either state backend.

Includes fixed-iteration search (answering each query of a
bounded-error oracle by rho independent re-evaluations), the doubling
schedule for unknown target counts (2^j iterations on repetition j),
one doubling search over the schedule its caller passes (first verified
hit wins), and threshold-descent minimum finding.

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
from typing import Callable, Iterator, NamedTuple

import numpy as np

# `charge` is unused here but stays importable as `grover.charge`, a name
# perfbench/tracer.py patches
from .resources import ResourceLedger, _phase_record, charge, index_width  # noqa: F401
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


def amplification(error: float, steps: int) -> int:
    """Evaluations per query so that a query whose single evaluation errs
    with probability `error` errs with probability at most 1/(10*steps)."""
    if error <= 0:
        return 1
    return max(1, math.ceil(math.log(10 * max(1, steps)) / math.log(1 / error)))


# An n-wide oracle pass (a match oracle's labels, the class counts) runs
# over chunks of this many indices, so its int64 buffer and intp casts
# stay chunk-sized at any n.  At n = 2^16 and 2^24, 2^15 measured as fast
# with larger buffers, 2^13 slower, and 2^16 2.5 times slower at 2^16.
ORACLE_CHUNK = 1 << 14


def chunks(size: int) -> Iterator[slice]:
    """Consecutive slices of at most ORACLE_CHUNK indices covering range(size)."""
    step = ORACLE_CHUNK
    return (slice(start, start + step) for start in range(0, size, step))


# Query uniforms are drawn for up to this many steps in one call.  Each
# block saves the generator state once, and a flip discards the rest of
# its block; on match searches 16 was slower and 64 or 128 no faster.
QUERY_BLOCK = 32
_BAD_ERROR_CLASSES = "error_classes must map the padded domain to errors in [0, 1]"


@lru_cache(maxsize=64)
def _ranked_errors(errors: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct errors ascending, and each label's class key: its
    error's rank among them, or their count for a zero error, which is
    never wrongly marked.  Keys take the smallest unsigned type that holds
    the count.  Read-only: every oracle over the same error table shares
    them."""
    table = np.asarray(errors, dtype=float)
    if not np.all((table >= 0) & (table <= 1)):
        raise ValueError(_BAD_ERROR_CLASSES)
    values, rank = np.unique(table, return_inverse=True)
    key_of_label = rank.astype(np.min_scalar_type(values.size))
    key_of_label[table == 0] = values.size
    values.flags.writeable = key_of_label.flags.writeable = False
    return values, key_of_label


class OracleSpec:
    """Exact ground truth over a search domain with its cost and one-sided
    error model.

    `truth` is a bool array over the padded domain, False on padding.  An
    evaluation may miss the witness that rules a non-target out, so only
    non-targets are ever wrongly marked.  `error_classes=(labels, errors)`
    gives index a the single-evaluation error errors[labels[a]];
    `error_prob` is the declared worst such error, which sets the default
    rho, and an oracle that declares one must give its classes.
    Non-targets fall into classes of equal positive error, ascending; a
    class's members are listed, in index order, on the first query that
    wrongly marks one of them, so a query costs O(classes + marked
    indices) and a class no query flips is never listed.  The oracle
    keeps the labels, read-only, and no per-index key: class sizes are
    the labels' counts, taken chunk by chunk, less the targets' own,
    folded through a per-label key table shared by every oracle over the
    same errors, and a listing compares the labels with each label of
    its class.
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
        if error_prob > 0 and error_classes is None:
            raise ValueError("a declared error probability needs its error classes")
        self.domain_size = domain_size
        self.padded = padded_size(domain_size)
        if truth.dtype != bool or truth.shape != (self.padded,):
            raise ValueError("truth must be a bool array over the padded domain")
        if domain_size < self.padded and truth[domain_size:].any():
            raise ValueError("padding indices must be non-targets")
        self.truth = truth
        self.targets = truth.nonzero()[0]  # np.flatnonzero without its ravel
        self.targets.flags.writeable = False
        self.evaluation_cost = evaluation_cost
        self.error_prob = error_prob
        self.inner_iterations_per_eval = inner_iterations_per_eval
        self._class_errors: np.ndarray | None = None
        if error_classes is not None:
            labels, errors = error_classes
            if type(errors) is not tuple:
                errors = tuple(np.asarray(errors, dtype=float).tolist())
            if (labels.shape != (self.padded,) or labels.dtype.kind not in "iu"
                    or (labels.dtype.kind == "i" and labels.min() < 0)
                    or labels.max() >= len(errors)):
                raise ValueError(_BAD_ERROR_CLASSES)
            values, key_of_label = _ranked_errors(errors)
            if labels.flags.writeable or not labels.flags.owndata:
                # writable here or through the array it views: keep a copy
                labels = labels.copy()
                labels.flags.writeable = False
            # per label, its non-target indices; each bincount casts one chunk
            label_counts = -np.bincount(labels[self.targets], minlength=len(errors))
            for chunk in chunks(labels.size):
                label_counts += np.bincount(labels[chunk], minlength=len(errors))
            # folded by class key: a label's error rank, or values.size for
            # a zero error, which forms no class
            by_key = np.zeros(values.size + 1, dtype=np.intp)
            np.add.at(by_key, key_of_label, label_counts)
            counts = by_key[:-1]
            used = counts > 0
            self._labels = labels
            self._key_of_label = key_of_label
            self._class_keys = np.flatnonzero(used)
            self._sizes = counts[used]
            self._class_errors = values[used]
            self._members: dict[int, np.ndarray] = {}
        self._query_errors: dict[int, tuple[np.ndarray, np.ndarray]] = {}

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
            # log(1 - q), -inf where q = 1, without the divide warning
            log_right = np.log1p(-wrong, out=np.full(wrong.shape, -np.inf), where=wrong < 1)
            none_wrong = np.exp(self._sizes * log_right)
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
            flips.append(self._class_members(int(c))[rng.choice(size, count, replace=False)])
        return np.sort(np.concatenate([self.targets, *flips]))  # all disjoint

    def _class_members(self, c: int) -> np.ndarray:
        """The indices of error class c, ascending, listed on first use."""
        members = self._members.get(c)
        if members is None:
            # each label of class c compares as a Python int, so in the
            # labels' own dtype; nonzero()[0] is np.flatnonzero without its ravel
            first, *rest = (self._key_of_label == self._class_keys.item(c)).nonzero()[0].tolist()
            mask = self._labels == first
            for label in rest:
                mask |= self._labels == label
            mask[self.targets] = False
            members = self._members[c] = mask.nonzero()[0]
        return members

    def flipped_queries(
        self, rng: np.random.Generator, rho: int, count: int
    ) -> Iterator[tuple[int, np.ndarray]]:
        """The next `count` queries' flipped steps: (step, marked) for each
        query that marks more than the targets, in order.  Every other
        query marks exactly `targets`.

        Draws from `rng` exactly what `count` calls of `query_pattern`
        draw.  The uniforms of up to QUERY_BLOCK queries come in one
        call, the same doubles as one call per query.  When a row flips a
        class, the generator goes back to the block's start, redraws the
        rows before it, and `query_pattern` answers the flipped query, so
        its member draw comes at the same point of the stream.  An exact
        oracle yields nothing and draws nothing.
        """
        err = self.query_error(rho)
        if err is None or not err[1].size:
            return
        none_wrong = err[1]
        step = 0
        while step < count:
            start = rng.bit_generator.state
            block = rng.random((min(QUERY_BLOCK, count - step), none_wrong.size))
            flips = np.flatnonzero(block >= none_wrong)
            if not flips.size:
                step += len(block)
                continue
            row = int(flips[0]) // none_wrong.size
            rng.bit_generator.state = start
            rng.random((row, none_wrong.size))
            yield step + row, self.query_pattern(rng, rho)
            step += row + 1


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
    """Result of one search: measured index, whether the exact predicate
    holds there, and run accounting."""

    found_index: int | None
    verified: bool
    iterations_used: int
    copies_used: int = 1


class MinResult(NamedTuple):
    """Result of minimum finding: the argmin estimate, the phases run,
    the Grover iterations and state copies they used over every phase,
    and the (phase, index) of each improvement adopted, in order."""

    index: int | None
    phases: int
    iterations: int
    copies: int
    adopted: tuple[tuple[int, int], ...]


def charge_iterations(
    ledger: ResourceLedger,
    search: SearchState,
    oracle: OracleSpec,
    iterations: int,
    rho: int,
) -> tuple[int, ...]:
    """Charge `iterations` query-and-diffusion steps on `search`, each
    query answered by `rho` evaluations of `oracle`, as one checked add
    of the four counters, and return what was added, in the ledger's
    counter order (diffusion, queries, inner iterations, access, hash).
    A refused charge moves no counter."""
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
    return diffusion, iterations, inner, 0, hash_units


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
    per-query error of at most 1/(10 * iterations).  The steps between
    flipped queries mark exactly the targets and run as one
    `target_steps` call; the amplitudes, draws and measured index are
    those of one query, marking and diffusion per step.  For exact oracles
    on power-of-two domains the pre-measurement success probability is
    exactly sin^2((2*iterations+1) * asin(sqrt(t/M_padded))).

    The run is charged once, every iteration costing the same, and
    appends one `grover_run[iterations]` record of that charge to the
    ledger's `phase_breakdown` after its measurement.
    """
    ledger = ledger if ledger is not None else ResourceLedger()
    rho = amplification(oracle.error_prob, iterations) if rho is None else rho
    done = 0
    if oracle._class_errors is not None:  # an exact oracle's queries mark the targets
        for step, marked in oracle.flipped_queries(rng, rho, iterations):
            search.target_steps(oracle.targets, step - done)
            search.apply_phase_pattern(marked)
            search.diffuse()
            done = step + 1
    search.target_steps(oracle.targets, iterations - done)
    delta = charge_iterations(ledger, search, oracle, iterations, rho)
    found = search.measure_index(rng)
    ledger.phase_breakdown.append(_phase_record(f"grover_run[{iterations}]", delta))
    # positional: keywords cost a fixed share of a short run
    return GroverOutcome(found, bool(oracle.truth[found]), iterations)


def doubling_schedule(domain: int) -> list[int]:
    """Iteration counts 2^j for j = 0 .. ceil(log2 sqrt(M)); callers slice it."""
    # ceil(log2 sqrt(2^w)) = ceil(w / 2) for the w index bits
    reps = padded_size(domain).bit_length() // 2 + 1
    return [2**j for j in range(reps)]


def bbht_search(
    oracle: OracleSpec,
    rng: np.random.Generator,
    state_factory: Callable[[], SearchState],
    schedule: list[int],
    ledger: ResourceLedger | None = None,
) -> GroverOutcome:
    """Search for an unknown target count over `schedule`, the iteration
    counts the caller passes (`doubling_schedule` or a slice of it).

    Each repetition consumes one fresh state from the factory and its
    measured index is classically checked against the exact predicate;
    the first verified hit is returned.  With at least one target the
    full schedule hits with probability at least 1/2.  found_index None
    means every repetition failed verification.
    """
    total = 0
    for rep, iterations in enumerate(schedule):
        outcome = grover_run(state_factory(), oracle, iterations, rng, ledger)
        total += iterations
        if outcome.verified:
            return GroverOutcome(
                found_index=outcome.found_index,
                verified=True,
                iterations_used=total,
                copies_used=rep + 1,
            )
    return GroverOutcome(
        found_index=None,
        verified=False,
        iterations_used=total,
        copies_used=len(schedule),
    )


def durr_hoyer_min(
    keys: np.ndarray,
    rng: np.random.Generator,
    state_factory: Callable[[], SearchState],
    ledger: ResourceLedger | None = None,
    initial_key: object | None = None,
) -> MinResult:
    """Threshold-descent minimum finding over a non-empty 1-D numeric key
    array, whose length is the search domain M.

    Each phase searches for an index with key strictly below the current
    threshold (ties never improve), whose truth is `keys < threshold`
    with non-target padding, over one doubling schedule cut to
    ceil(log2 M) counts, and adopts any verified hit; the run stops
    after 3 * ceil(log2 M) phases or when a phase finds nothing.
    The estimate is correct with probability at least 1/2.  With
    `initial_key` given, the threshold starts above every real key and
    the estimate is None if no phase ever improved on it.
    """
    keys = np.asarray(keys)
    if keys.ndim != 1 or keys.dtype.kind not in "iuf":
        raise ValueError("keys must be a 1-D numeric array")
    domain = keys.size
    if not domain:
        raise ValueError("keys must not be empty")
    if initial_key is None:
        best_index: int | None = int(rng.integers(0, domain))
        best_key = keys[best_index]
    else:
        best_index = None
        best_key = initial_key
    log_m = index_width(max(2, domain))
    phase_cap = 3 * log_m
    padded = padded_size(domain)
    schedule = doubling_schedule(domain)[:log_m]
    iterations = copies = phases = 0
    adopted = []
    # one buffer for every phase: each oracle reads it only in its own
    # phase, and padding indices stay non-targets
    truth = np.zeros(padded, dtype=bool)
    for phase in range(phase_cap):
        np.less(keys, best_key, out=truth[:domain])
        oracle = OracleSpec(domain, truth, evaluation_cost=1)
        phases += 1
        outcome = bbht_search(oracle, rng, state_factory, schedule, ledger)
        iterations += outcome.iterations_used
        copies += outcome.copies_used
        if outcome.found_index is None:
            break
        best_index = outcome.found_index
        best_key = keys[best_index]
        adopted.append((phase, best_index))
    return MinResult(best_index, phases, iterations, copies, tuple(adopted))
