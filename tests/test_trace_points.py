"""The benchmark's tracer patches qstrings functions by name.

`perfbench/run.py --trace 1` resolves every patch point and LRU cache
it lists; a renamed or deleted function breaks only that run.  This
test resolves them all in the Tier-1 suite instead.
"""

import sys
from pathlib import Path

import pytest

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
