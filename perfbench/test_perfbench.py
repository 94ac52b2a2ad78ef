"""Self-tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from qstrings import qcompare  # noqa: E402
from qstrings.strings_core import BitString  # noqa: E402


def _flat(inputs):
    if isinstance(inputs, dict):
        return tuple((key, _flat(value)) for key, value in sorted(inputs.items()))
    if isinstance(inputs, (list, tuple)):
        return tuple(_flat(item) for item in inputs)
    if isinstance(inputs, np.ndarray):
        return inputs.tobytes()
    return inputs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(name):
    make = workloads.WORKLOADS[name].make_inputs
    assert _flat(make(3)) == _flat(make(3))
    assert _flat(make(3)) != _flat(make(4))


def test_match_text_holds_the_pattern_once():
    inputs = workloads.MatchLong.make_inputs(2)
    windows = np.lib.stride_tricks.sliding_window_view(inputs["text"], len(inputs["pattern"]))
    found = np.flatnonzero((windows == inputs["pattern"]).all(axis=1))
    assert found.tolist() == [inputs["start"]]


def test_compare_pairs_first_differences():
    pairs = workloads.CompareBsearch.make_inputs(5)
    for j, (u, v) in enumerate(pairs):
        assert len(u) == len(v) == workloads.CompareBsearch.k
        assert (j % 8 == 7) == bool((u == v).all())


def test_self_times_on_a_synthetic_span_tree():
    #   0 [0, 100]
    #   +- 1 [10, 40]
    #   |  +- 2 [15, 25]
    #   +- 3 [50, 90]
    #      +- 4 [60, 70]
    #      +- 5 [75, 80]
    parent = np.array([-1, 0, 1, 0, 3, 3])
    start = np.array([0, 10, 15, 50, 60, 75])
    end = np.array([100, 40, 25, 90, 70, 80])
    assert tracer.self_times(parent, start, end).tolist() == [30, 20, 10, 25, 10, 5]
    summary = tracer.summarize(["op", "a", "b"], np.array([0, 1, 2, 1, 2, 2]), parent, start, end)
    assert summary["op"] == {"calls": 1, "total_ns": 100, "self_ns": 30}
    assert summary["a"] == {"calls": 2, "total_ns": 70, "self_ns": 45}
    assert summary["b"] == {"calls": 3, "total_ns": 25, "self_ns": 25}


def _small_compare(rng_seed):
    u = BitString.from_text("0110100110010110")
    v = BitString.from_text("0110100010010110")
    res = qcompare.compare_grover(u, v, np.random.default_rng(rng_seed))
    return res.verdict, res.first_difference, res.ledger.counters()


def test_traced_pass_restores_every_patched_name_and_keeps_results():
    before = tracer.patch_points()
    plain = _small_compare(7)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert any(tracer.patch_points()[p] is not obj for p, obj in before.items())
        traced = tr.run_op(0, _small_compare, 7)
    finally:
        tr.uninstall()
    probe = tracer.AllocProbe()
    probe.install()
    try:
        probed = _small_compare(7)
    finally:
        probe.uninstall()
    after = tracer.patch_points()
    assert all(after[p] is obj for p, obj in before.items())
    assert plain == traced == probed
    assert probe.peak["grover.grover_run"] > 0

    arrays = tr.arrays()
    names = [tr.names[i] for i in arrays["name_id"]]
    assert names[0] == tracer.OP_SPAN and arrays["parent"][0] == -1
    assert (arrays["parent"][1:] >= 0).all() and (arrays["op"] == 0).all()
    assert (arrays["end_ns"] >= arrays["start_ns"]).all()
    assert "qcompare.compare_grover" in names and "grover.grover_run" in names


class _Echo:
    """A workload whose op output is its own answer."""

    distinct = 2

    def check(self, i, out):
        counters = dict.fromkeys(workloads.COUNTERS, 0)
        return workloads.Checked(None, 1, 1, out, counters, [out], 0, 0)


def test_judge_flags_a_repeat_that_changes_its_answer():
    problems, simulated = worker._judge(_Echo(), [5, 7, 5, 7, 5])
    assert problems == [] and simulated["ops"] == 2 and simulated["gate_units_mean"] == 6
    problems, changed = worker._judge(_Echo(), [5, 7, 5, 8])
    assert problems == ["op 1: a repeat gave another answer"]
    assert changed["digest"] == simulated["digest"]


def test_tail_percentile_leaves_ten_ops_beyond():
    for ops in (16, 32, 40, 240, 1000):
        pct = worker._tail_percentile(ops)
        assert ops * (100 - pct) / 100 >= 10
        assert ops * (100 - pct - 1) / 100 < 10


def test_host_scale_uses_the_probes_around_each_op():
    at = np.arange(11.0)
    probe_s = np.full(11, worker.PROBE_REF_S)
    probe_s[5:] *= 2
    mids = np.array([0.5, 2.5, 4.6, 8.0, 20.0])
    scale = worker.host_scale(mids, at, probe_s, smooth=1.0)
    # 4.6 sees one quiet and one slow probe; 20.0 only the last probe.
    assert scale.tolist() == pytest.approx([1.0, 1.0, 2 / 3, 0.5, 0.5])
    # With no probe inside the window, the nearest one on each side counts.
    assert worker.host_scale(np.array([4.5]), at, probe_s, smooth=0.1).tolist() == pytest.approx([2 / 3])
