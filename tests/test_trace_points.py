"""The benchmark's tracer patches qstrings functions by name.

`perfbench/run.py --trace 1` resolves every patch point and LRU cache
it lists, and its hooks read the arguments and results of real calls;
a renamed function or a changed return shape breaks only that run.
These tests resolve every point and call every hook in the Tier-1
suite instead.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from qstrings import qmatch
from qstrings.grover import OracleSpec, doubling_schedule
from qstrings.resources import ResourceLedger
from qstrings.sim import StructuredState, search_layout
from qstrings.strings_core import BitString, MatchInstance

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracer


def test_every_patch_point_resolves(tracer):
    points = tracer.patch_points()
    assert len(points) == sum(len(spec[0]) for spec in tracer.LAYERS.values())
    assert all(callable(fn) for fn in points.values())


def test_every_traced_cache_has_cache_info(tracer):
    caches = tracer.lru_caches()
    assert caches.keys() == tracer.CACHES.keys()
    for name, fn in caches.items():
        assert callable(getattr(fn, "cache_info", None)), name


def _tiny_calls() -> dict[str, tuple]:
    """Positional arguments of one tiny real call per hooked span, in the
    shape the program's own call sites pass them."""
    rng = np.random.default_rng(1)
    inst = MatchInstance(BitString.from_text("01101001"), BitString.from_text("101"))
    truth = np.zeros(8, dtype=bool)
    truth[3] = True
    oracle = OracleSpec(8, truth)

    def fresh() -> StructuredState:
        return StructuredState(search_layout(8), 8)

    return {
        "fingerprint.prefix_hashes": (BitString.from_text("0110"), 7),
        "qmatch.match_search": (inst, qmatch.match_params(inst, 0.1, rng), rng),
        "grover.grover_run": (fresh(), oracle, 1, rng),
        "grover.durr_hoyer_min": (np.array([3, 1, 2, 0, 5, 4, 7, 6]), rng, fresh),
        "grover.bbht_search": (oracle, rng, fresh, doubling_schedule(8)[:3], ResourceLedger()),
    }


def test_every_hook_reads_ints_from_a_real_call(tracer):
    calls = _tiny_calls()
    hooked = {name for name, (_, units, result) in tracer.LAYERS.items() if units or result}
    assert hooked == calls.keys()
    for name, args in calls.items():
        points, units_of, result_of = tracer.LAYERS[name]
        owner, attr = tracer._resolve(*points[0])
        out = getattr(owner, attr)(*args)
        if units_of is not None:
            assert type(units_of(args, {})) is int, name
        if result_of is not None:
            values = result_of(out)
            assert values and all(type(v) is int for v in values.values()), (name, values)
