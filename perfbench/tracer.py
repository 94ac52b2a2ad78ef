"""Spans and counts recorded from outside the program.

`Tracer.install` replaces public functions and methods of the qstrings
modules with wrappers that record a span per call; `uninstall` puts every
original object back.  Modules import functions by name
(`from .grover import grover_run`), so a function is patched where its
callers resolve it, once per such module; methods are patched on their
class.  Spans stay in memory as flat arrays and are written out when the
run ends.
"""

from __future__ import annotations

import importlib
import time
import tracemalloc
from array import array

import numpy as np

OP_SPAN = "bench.op"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _prefix_bits(args, kwargs):
    return len(_arg(args, kwargs, 0, "u"))


def _amp_iterations(args, kwargs):
    return _arg(args, kwargs, 2, "iterations") * _arg(args, kwargs, 1, "oracle").padded


def _copies(out):
    return {"copies": out.copies_used}


def _phases(out):
    return {"phases": out[1]}


def _bbht(out):
    return {"hits": int(out.found_index is not None), "repetitions": out.copies_used}


# span name -> (module, attribute path) patch points, units hook, result hook
LAYERS = {
    "fingerprint.nth_prime": ([("fingerprint", "nth_prime")], None, None),
    "fingerprint.first_r_primes": ([("fingerprint", "first_r_primes")], None, None),
    "fingerprint.choose_prime": ([("fingerprint", "choose_prime")], None, None),
    "fingerprint.window_hashes": ([("fingerprint", "window_hashes")], None, None),
    "fingerprint.prefix_hashes": ([("fingerprint", "prefix_hashes")], _prefix_bits, None),
    "fingerprint.rolling_hash": ([("fingerprint", "rolling_hash")], None, None),
    "qmatch.prepare_match_state": ([("qmatch", "prepare_match_state")], None, None),
    "qmatch.MatchStateSpec.oracle": ([("qmatch", "MatchStateSpec.oracle")], None, None),
    "qmatch.MatchStateSpec.make_copy": ([("qmatch", "MatchStateSpec.make_copy")], None, None),
    "qmatch.match_search": ([("qmatch", "match_search")], None, _copies),
    "qmatch.random_single_occurrence": ([("qmatch", "random_single_occurrence")], None, None),
    "qmatch.hash_equality_eval": (
        [("qmatch", "hash_equality_eval"), ("qcompare", "hash_equality_eval")], None, None
    ),
    "grover.grover_run": ([("grover", "grover_run"), ("qmatch", "grover_run")], _amp_iterations, None),
    "grover.OracleSpec.init": ([("grover", "OracleSpec.__init__")], None, None),
    "grover.OracleSpec.query_error": ([("grover", "OracleSpec.query_error")], None, None),
    "grover.OracleSpec.query_pattern": ([("grover", "OracleSpec.query_pattern")], None, None),
    "grover.durr_hoyer_min": ([("qcompare", "durr_hoyer_min")], None, _phases),
    "grover.bbht_search": ([("grover", "bbht_search")], None, _bbht),
    "sim.StructuredState.init": ([("sim", "StructuredState.__init__")], None, None),
    "sim.StructuredState.apply_phase_pattern": ([("sim", "StructuredState.apply_phase_pattern")], None, None),
    "sim.StructuredState.diffuse": ([("sim", "StructuredState.diffuse")], None, None),
    "sim.StructuredState.measure_index": ([("sim", "StructuredState.measure_index")], None, None),
    "sim.StructuredState.check_norm": ([("sim", "StructuredState.check_norm")], None, None),
    "resources.charge": (
        [("grover", "charge"), ("qmatch", "charge"), ("qcompare", "charge")], None, None
    ),
    "resources.run_sweep": ([("resources", "run_sweep")], None, None),
    "qcompare.build_compare_state": ([("qcompare", "build_compare_state")], None, None),
    "qcompare.compare_bsearch": ([("qcompare", "compare_bsearch")], None, None),
    "qcompare.compare_grover": ([("qcompare", "compare_grover")], None, None),
    "qcompare.access_element": ([("qcompare", "access_element")], None, None),
    "strings_core.BitString.init": ([("strings_core", "BitString.__init__")], None, None),
}

# LRU caches read through their public cache_info(), never wrapped for it.
CACHES = {
    "fingerprint.first_r_primes": ("fingerprint", "first_r_primes"),
    "qmatch.miss_probability_table": ("qmatch", "miss_probability_table"),
    "resources.nominal_hash_width": ("resources", "nominal_hash_width"),
}

# Functions whose peak traced allocation is measured in the tracemalloc pass.
# None of them calls another, which the global peak reset relies on.
ALLOC_LAYERS = (
    "fingerprint.window_hashes",
    "fingerprint.choose_prime",
    "qmatch.MatchStateSpec.oracle",
    "grover.grover_run",
)


def _resolve(module: str, path: str):
    """(owner, attribute) for a patch point such as ("sim", "StructuredState.diffuse")."""
    owner = importlib.import_module(f"qstrings.{module}")
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    if attr not in vars(owner):
        raise LookupError(f"qstrings.{module}.{path} is not defined where it is patched")
    return owner, attr


def lru_caches() -> dict[str, object]:
    """The LRU-cached functions themselves; take them before any patching."""
    return {name: vars(_resolve(*point)[0])[point[1]] for name, point in CACHES.items()}


class Patches:
    """Replaced attributes and their originals, restorable in one call."""

    def __init__(self):
        self.saved: list[tuple[object, str, object]] = []

    def replace(self, module: str, path: str, make_wrapper) -> None:
        owner, attr = _resolve(module, path)
        original = vars(owner)[attr]
        self.saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)


def patch_points() -> dict[tuple[str, str], object]:
    """Every patch point's current object, to check that a pass restored them."""
    out = {}
    for points, _, _ in LAYERS.values():
        for module, path in points:
            owner, attr = _resolve(module, path)
            out[(module, path)] = vars(owner)[attr]
    return out


class Tracer:
    """In-memory span recorder: name, start, end, parent and op id per span."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.units: dict[str, int] = {}
        self.results: dict[str, dict[str, int]] = {}
        self._stack: list[int] = []
        self._op = -1
        self._patches = Patches()

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as op `op_id`, under a root span of its own."""
        self._op = op_id
        idx = self.open(self._intern(OP_SPAN))
        try:
            return fn(*args)
        finally:
            self.close(idx)
            self._op = -1

    def _wrapper(self, name: str, units_of, result_of):
        nid = self._intern(name)
        units = self.units
        results = self.results
        open_, close = self.open, self.close

        def make(fn):
            def traced(*args, **kwargs):
                if units_of is not None:
                    units[name] = units.get(name, 0) + units_of(args, kwargs)
                idx = open_(nid)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    close(idx)
                if result_of is not None:
                    acc = results.setdefault(name, {})
                    for key, value in result_of(out).items():
                        acc[key] = acc.get(key, 0) + value
                return out

            # first_r_primes calls its own __wrapped__, the uncached function
            traced.__wrapped__ = getattr(fn, "__wrapped__", fn)
            return traced

        return make

    def install(self) -> None:
        for name, (points, units_of, result_of) in LAYERS.items():
            make = self._wrapper(name, units_of, result_of)
            for module, path in points:
                self._patches.replace(module, path, make)

    def uninstall(self) -> None:
        self._patches.restore()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so siblings never overlap and the covered
    time is the sum of the children's durations.
    """
    dur = (end - start).astype(np.float64)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


def summarize(names: list[str], name_id: np.ndarray, parent: np.ndarray,
              start: np.ndarray, end: np.ndarray) -> dict[str, dict[str, float]]:
    """Per span name: call count, total and self time in ns."""
    dur = (end - start).astype(np.float64)
    own = self_times(parent, start, end)
    out = {}
    for nid, name in enumerate(names):
        mask = name_id == nid
        out[name] = {
            "calls": int(mask.sum()),
            "total_ns": float(dur[mask].sum()),
            "self_ns": float(own[mask].sum()),
        }
    return out


class AllocProbe:
    """Peak traced allocation per call of the ALLOC_LAYERS functions."""

    def __init__(self):
        self.peak: dict[str, int] = {}
        self._patches = Patches()

    def _wrapper(self, name: str):
        peak = self.peak

        def make(fn):
            def probed(*args, **kwargs):
                base, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                try:
                    return fn(*args, **kwargs)
                finally:
                    _, top = tracemalloc.get_traced_memory()
                    peak[name] = max(peak.get(name, 0), top - base)

            probed.__wrapped__ = getattr(fn, "__wrapped__", fn)
            return probed

        return make

    def install(self) -> None:
        for name in ALLOC_LAYERS:
            make = self._wrapper(name)
            for module, path in LAYERS[name][0]:
                self._patches.replace(module, path, make)
        tracemalloc.start()

    def uninstall(self) -> None:
        tracemalloc.stop()
        self._patches.restore()
