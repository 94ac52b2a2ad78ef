"""Backend-equivalence battery over tiny instances.

Runs every search step (oracle phase + diffusion) of the matching and
comparison algorithms in both backends with shared marked-index sets and
compares amplitudes after each step: the dense state, with its phase
flag projected out, must equal the expanded structured state to within
1e-9, and the two ledgers must agree exactly.  Binary-search comparator
instances check preparation instead: equal amplitudes prove that the
dense state binds the template's tables at every index, and those
tables must hold the strings' own bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fingerprint import HashParams, universe_size
from .grover import (
    OracleSpec,
    amplification,
    charge_iterations,
    doubling_schedule,
    optimal_iterations,
)
from .qcompare import build_compare_state
from .qmatch import prepare_match_state
from .resources import ResourceLedger
from .sim import (
    DenseSearchState,
    StructuredState,
    expand_structured,
    padded_size,
    project_flag_minus,
)
from .strings_core import BitString, MatchInstance

TOLERANCE = 1e-9


@dataclass
class InstanceReport:
    name: str
    max_deviation: float
    passed: bool
    detail: str = ""


@dataclass
class CrosscheckReport:
    instances: list[InstanceReport] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.instances)

    @property
    def max_deviation(self) -> float:
        return max((r.max_deviation for r in self.instances), default=0.0)

    def render(self) -> str:
        lines = []
        for r in self.instances:
            status = "pass" if r.passed else "FAIL"
            line = f"{status}  {r.name}  max_dev={r.max_deviation:.3e}"
            if r.detail:
                line += f"  {r.detail}"
            lines.append(line)
        lines.append(
            f"{'pass' if self.passed else 'FAIL'}  battery of {len(self.instances)} "
            f"instances, overall max_dev={self.max_deviation:.3e}"
        )
        return "\n".join(lines)


def _small_params(num_comparisons: int, max_len: int, p: int) -> HashParams:
    epsilon = 0.5
    r = universe_size(num_comparisons, max_len, epsilon)
    return HashParams(p=p, epsilon=epsilon, delta=num_comparisons, r=r, max_len=max_len)


def _deviation(dense_search, structured) -> tuple[float, int]:
    reduced = project_flag_minus(dense_search.state, dense_search.flag_register)
    expanded = expand_structured(structured)
    diff = np.abs(reduced - expanded.amps)
    worst = int(np.argmax(diff))
    return float(diff[worst]), worst


def _step_battery(
    name: str,
    dense_search,
    structured,
    oracle,
    iterations: int,
    rng: np.random.Generator,
) -> InstanceReport:
    """Drive both backends through `iterations` shared search steps."""
    max_dev, worst_idx = _deviation(dense_search, structured)
    rho = amplification(oracle.error_prob, iterations)
    for step in range(iterations):
        marked = oracle.query_pattern(rng, rho)
        dense_search.apply_phase_pattern(marked)
        structured.apply_phase_pattern(marked)
        dense_search.diffuse()
        structured.diffuse()
        dev, idx = _deviation(dense_search, structured)
        if not dev <= max_dev and max_dev == max_dev:  # the first NaN is kept
            max_dev, worst_idx = dev, idx
    led_dense = ResourceLedger()
    led_struct = ResourceLedger()
    charge_iterations(led_dense, dense_search, oracle, iterations, rho)
    charge_iterations(led_struct, structured, oracle, iterations, rho)
    if led_dense.counters() != led_struct.counters():
        return InstanceReport(name, max_dev, False, "ledger mismatch between backends")
    if not max_dev <= TOLERANCE:
        return InstanceReport(
            name, max_dev, False, f"amplitude mismatch at basis index {worst_idx}"
        )
    return InstanceReport(name, max_dev, True)


def _match_instance(name, text, pattern, p, schedule, rng) -> InstanceReport:
    inst = MatchInstance(BitString.from_text(text), BitString.from_text(pattern))
    params = _small_params(inst.num_windows, inst.m, p)
    spec = prepare_match_state(inst, params)
    oracle = spec.oracle()
    reports = []
    for rep_iters in schedule:
        dense_search = spec.make_copy(DenseSearchState)
        structured = spec.make_copy(StructuredState)
        reports.append(_step_battery(name, dense_search, structured, oracle, rep_iters, rng))
    max_dev = max(r.max_deviation for r in reports)
    failed = [r for r in reports if not r.passed]
    if failed:
        return InstanceReport(name, max_dev, False, failed[0].detail)
    return InstanceReport(name, max_dev, True)


def _compare_grover_instance(name, u_text, v_text, rng) -> InstanceReport:
    u = BitString.from_text(u_text)
    v = BitString.from_text(v_text)
    template = build_compare_state(u, v)
    k = template.domain_size
    truth = np.zeros(template.size, dtype=bool)
    truth[:k] = u.array[:k] != v.array[:k]
    oracle = OracleSpec(k, truth, evaluation_cost=1)
    iterations = optimal_iterations(template.size, max(1, int(truth.sum())))
    dense_search = DenseSearchState.like(template)
    structured = StructuredState.like(template)
    return _step_battery(name, dense_search, structured, oracle, iterations, rng)


def _compare_bsearch_instance(name, u_text, v_text) -> InstanceReport:
    u, v = BitString.from_text(u_text), BitString.from_text(v_text)
    template = build_compare_state(u, v)
    structured = StructuredState.like(template)
    dense_search = DenseSearchState.like(template)
    max_dev, worst_idx = _deviation(dense_search, structured)
    if not max_dev <= TOLERANCE:
        return InstanceReport(
            name, max_dev, False, f"amplitude mismatch at basis index {worst_idx}"
        )
    k, tables = template.domain_size, template.bindings
    wrong = (tables["u"][:k] != u.array[:k]) | (tables["v"][:k] != v.array[:k])
    if wrong.any():
        return InstanceReport(
            name, max_dev, False, f"element access mismatch at index {int(wrong.argmax())}"
        )
    return InstanceReport(name, max_dev, True)


def run_crosscheck(seed: int) -> CrosscheckReport:
    """The default battery: 22 tiny instances across all four algorithms."""
    rng = np.random.default_rng(seed)
    report = CrosscheckReport()

    unique_cases = [
        ("match_unique n4 m1 p5", "0010", "1", 5),
        ("match_unique n5 m2 p7", "01100", "11", 7),
        ("match_unique n6 m3 p11", "010110", "101", 11),
        ("match_unique n7 m2 p13", "0000100", "10", 13),
        ("match_unique n8 m3 p5", "00101100", "110", 5),
        ("match_unique n6 m2 p13", "011010", "01", 13),
        ("match_unique n8 m2 p7", "10000010", "11", 7),
        ("match_unique n7 m3 p5", "0101000", "010", 5),
        ("match_unique n8 m1 p11", "00010000", "1", 11),
        ("match_unique n5 m1 p3", "00100", "1", 3),
    ]
    for name, text, pattern, p in unique_cases:
        inst = MatchInstance(BitString.from_text(text), BitString.from_text(pattern))
        iters = optimal_iterations(padded_size(inst.num_windows), 1)
        report.instances.append(_match_instance(name, text, pattern, p, [iters], rng))

    search_cases = [
        ("match_search n6 m2 p7", "010101", "01", 7),
        ("match_search n8 m3 p11", "10110110", "011", 11),
        ("match_search n7 m3 p5", "1110111", "111", 5),
        ("match_search n8 m2 p13", "01010101", "10", 13),
    ]
    for name, text, pattern, p in search_cases:
        inst = MatchInstance(BitString.from_text(text), BitString.from_text(pattern))
        schedule = doubling_schedule(inst.num_windows)
        report.instances.append(_match_instance(name, text, pattern, p, schedule, rng))

    grover_cases = [
        ("compare_grover k4", "1011", "1111"),
        ("compare_grover k6", "101100", "101010"),
        ("compare_grover k8", "10110100", "10110101"),
        ("compare_grover k5", "11111", "11011"),
    ]
    for name, u_text, v_text in grover_cases:
        report.instances.append(_compare_grover_instance(name, u_text, v_text, rng))

    # the p in a bsearch name is a label only: the battery checks symbol access
    bsearch_cases = [
        ("compare_bsearch k4 p5", "0110", "0100"),
        ("compare_bsearch k6 p7", "011010", "011011"),
        ("compare_bsearch k8 p13", "01101001", "01101001"),
        ("compare_bsearch k5 p11", "10010", "10110"),
    ]
    for name, u_text, v_text in bsearch_cases:
        report.instances.append(_compare_bsearch_instance(name, u_text, v_text))

    return report
