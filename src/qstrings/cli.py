"""Command-line surface: run algorithms, Monte Carlo trials, sweeps, checks.

All randomness derives from the mandatory --seed; a repeated invocation
with the same flags produces byte-identical CSV output.  Exit codes:
0 success, 1 verification/crosscheck failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

import numpy as np

from . import crosscheck as crosscheck_mod
from . import fingerprint, qcompare, qmatch, resources
from .grover import durr_hoyer_min
from .sim import (
    DENSE_WIDTH_CAP,
    DenseSearchState,
    StructuredState,
    dump_state,
    search_layout,
)
from .strings_core import BitString, MatchInstance, compare_classical

MATCH_HEADER = "trial,seed,result_d,hash_verified,exact_verified,copies_used,qubits,gate_units,inner_iters"
COMPARE_HEADER = "trial,seed,verdict,expected,a0,phases,qubits,gate_units"
MINFIND_HEADER = "trial,found_index,phases,iterations"
PRIMES_HEADER = "r,p,epsilon,delta,max_len"
# Most trials (per invocation, or per sweep point) one run accepts.
TRIALS_CAP = 10**6
# Hash error budget when --epsilon is not given.
DEFAULT_EPSILON = 0.1
# Comparator algos that draw no prime, so read no --epsilon.
_NO_PRIME_ALGOS = ("grover", "compare-grover")
# The state class each --mode choice names.
BACKENDS = {"dense": DenseSearchState, "structured": StructuredState}


def _parse_bits(flag: str, value: str, ascii_mode: bool) -> BitString:
    """The bits of `flag`'s value: the value itself, or the stripped text of
    the file after a leading @."""
    try:
        if value.startswith("@"):
            with open(value[1:], encoding="ascii") as fh:
                value = fh.read().strip()
        return BitString.from_ascii(value) if ascii_mode else BitString.from_text(value)
    except UnicodeError:
        raise ValueError(f"{flag} must be ASCII") from None
    except ValueError:
        raise ValueError(f"{flag} must be a bit string, got {value!r}") from None


def _parse_ints(flag: str, value: str) -> list[int]:
    """A comma-separated list of integers; an empty or non-integer field is an error."""
    try:
        return [int(field) for field in value.split(",")]
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated integers, got {value!r}") from None


def _emit(lines: list[str], csv_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if csv_path:
        with open(csv_path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _flag_echo(argv: list[str]) -> str:
    return "# qstrings " + " ".join(argv)


def _match_trial(
    inst: MatchInstance, epsilon: float, seed: int, backend: type, trial: int
) -> tuple[str, bool]:
    """One trial's CSV row, and whether it found an exactly verified match."""
    rng = np.random.default_rng((seed, trial))
    params = qmatch.match_params(inst, epsilon, rng)
    result = qmatch.match_search(inst, params, rng, backend=backend)
    ledger = result.ledger
    row = ",".join(
        str(x)
        for x in (
            trial,
            seed,
            result.position if result.position is not None else "",
            int(result.hash_verified),
            int(result.exactly_verified),
            result.copies_used,
            ledger.qubits_total,
            ledger.gate_units_total,
            ledger.inner_grover_iterations,
        )
    )
    return row, result.exactly_verified


def _compare_trial(
    u: BitString, v: BitString, algo: str, epsilon: float, seed: int, expected: int, trial: int
) -> str:
    """One trial's CSV row beside the classical verdict `expected`."""
    rng = np.random.default_rng((seed, trial))
    if algo == "grover":
        result = qcompare.compare_grover(u, v, rng)
    else:
        params = qcompare.compare_params(u, v, epsilon, rng)
        result = qcompare.compare_bsearch(u, v, params, rng)
    ledger = result.ledger
    return ",".join(
        str(x)
        for x in (
            trial,
            seed,
            result.verdict,
            expected,
            result.first_difference if result.first_difference is not None else "",
            result.phases,
            ledger.qubits_total,
            ledger.gate_units_total,
        )
    )


def _cmd_match(args, argv) -> int:
    inst_text = _parse_bits("--text", args.text, args.ascii)
    inst_pattern = _parse_bits("--pattern", args.pattern, args.ascii)
    inst = MatchInstance(inst_text, inst_pattern)
    cap = resources.STRUCTURED_TEXT_CAP
    if args.mode == "dense":
        # a text over the cap has N * m >= n, so its hash width alone is too wide
        whash = resources.nominal_hash_width(inst.num_windows, inst.m, args.epsilon)
        width = search_layout(inst.num_windows, whash=whash).total_width + 1  # phase flag
        if width > DENSE_WIDTH_CAP:
            raise ValueError(
                f"dense mode would need {width} qubits, above the {DENSE_WIDTH_CAP}-qubit cap"
            )
        if args.dump_state:
            rng = np.random.default_rng((args.seed, 0))
            params = qmatch.match_params(inst, args.epsilon, rng)
            spec = qmatch.prepare_match_state(inst, params)
            dump_state(spec.make_copy(DenseSearchState).state, args.dump_state)
    elif inst.n > cap:
        raise ValueError(f"text length {inst.n} exceeds structured-mode cap {cap}")
    elif args.dump_state:
        raise ValueError("--dump-state applies only to --mode dense")
    trial = partial(_match_trial, inst, args.epsilon, args.seed, BACKENDS[args.mode])
    rows, verified = zip(*resources.pool_map(trial, range(args.trials), args.jobs))
    _emit([_flag_echo(argv), MATCH_HEADER, *rows], args.csv)
    return 0 if any(verified) else 1


def _cmd_compare(args, argv) -> int:
    u = _parse_bits("--u", args.u, args.ascii)
    v = _parse_bits("--v", args.v, args.ascii)
    expected = compare_classical(u, v)
    trial = partial(_compare_trial, u, v, args.algo, args.epsilon, args.seed, expected)
    rows = resources.pool_map(trial, range(args.trials), args.jobs)
    _emit([_flag_echo(argv), COMPARE_HEADER, *rows], args.csv)
    return 0


def _cmd_min_find(args, argv) -> int:
    try:
        values = np.array(_parse_ints("--values", args.values), dtype=np.int64)
    except OverflowError:
        raise ValueError("--values must fit in int64") from None
    template = StructuredState(search_layout(values.size), values.size)
    rows = []
    for trial in range(args.trials):
        rng = np.random.default_rng((args.seed, trial))
        found = durr_hoyer_min(values, rng, lambda: StructuredState.like(template))
        rows.append(f"{trial},{found.index},{found.phases},{found.iterations}")
    _emit([_flag_echo(argv), MINFIND_HEADER, *rows], args.csv)
    return 0


def _cmd_sweep(args, argv) -> int:
    grid = tuple(_parse_ints("--grid", args.grid))
    if args.m is not None and args.algo != "match":
        raise ValueError(f"--m applies only to --algo match, not {args.algo}")
    config = resources.SweepConfig(
        algo=args.algo.replace("-", "_"),
        grid=grid,
        m=resources.SweepConfig.m if args.m is None else args.m,
        epsilon=args.epsilon,
        trials=args.trials,
        seed=args.seed,
        backend=BACKENDS[args.mode],
        jobs=args.jobs,
    )
    rows = resources.run_sweep(config)
    _emit([_flag_echo(argv), *resources.sweep_csv(rows).splitlines()], args.csv)
    return 0


def _cmd_crosscheck(args, argv) -> int:
    report = crosscheck_mod.run_crosscheck(args.seed)
    print(_flag_echo(argv))
    print(report.render())
    return 0 if report.passed else 1


def _cmd_primes(args, argv) -> int:
    rng = np.random.default_rng(args.seed)
    params = fingerprint.choose_prime(rng, args.delta, args.max_len, args.epsilon)
    _emit(
        [
            _flag_echo(argv),
            PRIMES_HEADER,
            f"{params.r},{params.p},{params.epsilon},{params.delta},{params.max_len}",
        ],
        args.csv,
    )
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises a usage error instead of printing usage and exiting, so
    `main` reports it on one line; subparsers inherit the class."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qstrings",
        description=(
            "Simulate hash-fingerprinted quantum string matching and comparison, "
            "with exact classical oracles and a qubit/gate-unit resource ledger."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, trials_default=1):
        p.add_argument("--seed", type=int, required=True, help="master seed; all randomness derives from it")
        p.add_argument("--trials", type=int, default=trials_default)
        p.add_argument("--csv", default=None, help="write output CSV here instead of stdout")

    def epsilon_and_jobs(p):
        p.add_argument(
            "--epsilon", type=float, default=None,
            help=f"hash error budget in (0,1), default {DEFAULT_EPSILON}; not for grover algos",
        )
        p.add_argument("--jobs", type=int, default=1, help="parallel workers for independent trials/points")

    p = sub.add_parser("match", help="search for a pattern in a text")
    p.add_argument("--text", required=True, help="bit string, or @path to read a file")
    p.add_argument("--pattern", required=True)
    p.add_argument("--ascii", action="store_true", help="bit-expand ASCII input, MSB first")
    p.add_argument("--mode", choices=tuple(BACKENDS), default="structured")
    p.add_argument("--dump-state", default=None, help="dump the prepared dense state of trial 0")
    common(p)
    epsilon_and_jobs(p)
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("compare", help="lexicographically compare two strings")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--ascii", action="store_true")
    p.add_argument("--algo", choices=("grover", "bsearch"), required=True)
    common(p)
    epsilon_and_jobs(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("min-find", help="minimum finding over a value list")
    p.add_argument("--values", required=True, help="comma-separated integers")
    common(p, trials_default=100)
    p.set_defaults(func=_cmd_min_find)

    p = sub.add_parser("sweep", help="scaling regression over a parameter grid")
    p.add_argument("--algo", choices=("match", "compare-grover", "compare-bsearch"), required=True)
    p.add_argument("--grid", required=True, help="comma-separated n (match) or k values")
    p.add_argument("--m", type=int, help=f"pattern length, match sweeps only (default {resources.SweepConfig.m})")
    p.add_argument("--mode", choices=tuple(BACKENDS), default="structured")
    common(p, trials_default=20)
    epsilon_and_jobs(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("crosscheck", help="dense/structured backend equivalence battery")
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_crosscheck)

    p = sub.add_parser("primes", help="print the sized prime universe and drawn modulus")
    p.add_argument("--delta", type=int, required=True, help="planned number of hash comparisons")
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=_cmd_primes)

    return parser


def _check_args(args) -> None:
    """Reject flag values no subcommand can run with."""
    if args.seed < 0:
        raise ValueError("--seed must be non-negative")
    if getattr(args, "trials", 1) < 1:
        raise ValueError("--trials must be at least 1")
    if getattr(args, "trials", 1) > TRIALS_CAP:
        raise ValueError(f"--trials must be at most {TRIALS_CAP}")
    if getattr(args, "jobs", 1) < 1:
        raise ValueError("--jobs must be at least 1")
    epsilon = getattr(args, "epsilon", DEFAULT_EPSILON)
    if epsilon is None:
        args.epsilon = DEFAULT_EPSILON
    elif getattr(args, "algo", None) in _NO_PRIME_ALGOS:
        raise ValueError(f"--epsilon applies only to algos that draw a prime, not {args.algo}")
    elif not 0 < epsilon < 1:
        raise ValueError("--epsilon must lie in (0, 1)")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_args(args)
        return args.func(args, argv)
    except SystemExit as exc:  # --help
        return 2 if exc.code not in (0, None) else 0
    except (ValueError, IndexError, OSError, RuntimeError) as exc:
        # RuntimeError covers failed instance construction; exit code 1
        # stays reserved for failed verification
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
