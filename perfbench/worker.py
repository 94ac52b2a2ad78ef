"""One workload in one fresh process: set-up, then the timed loop or the
traced passes.  run.py starts it with the thread pools pinned to 1 and
reads the JSON object it prints.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --out DIR
"""

import argparse
import hashlib
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path


def _parse(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    return ap.parse_args(argv)


class Failure:
    """An op that raised; kept in place of its output."""

    def __init__(self, text: str):
        self.text = text


def _attempt(call, *args):
    try:
        return call(*args)
    except Exception:  # any exception is a failed op, counted and reported
        return Failure(traceback.format_exc(limit=4))


# Host speed: the wall time of `probe`, a fixed mix of interpreter and
# numpy work, measured every PROBE_EVERY_S between ops.  A host time is
# reported at reference speed, scaled by PROBE_REF_S over the probe's
# median within SMOOTH_S of it.  PROBE_REF_S is about the probe's time on
# a quiet host of the 2-vCPU Xeon kind the bounds were set on.
PROBE_REF_S = 9e-3
PROBE_EVERY_S = 0.1
SMOOTH_S = 2.0
SETUP_PROBES = 9


def _tail_percentile(ops: int) -> int:
    """Highest whole percentile that leaves at least ten of `ops` ops beyond it."""
    return max(0, math.floor(100 * (1 - 10 / ops)))


_PROBE_DATA = []


def probe() -> float:
    """Wall seconds of a fixed mix of interpreter and numpy work."""
    import numpy as np

    if not _PROBE_DATA:
        _PROBE_DATA.append(np.random.default_rng(0).random(2**16) + 0j)
    t = time.perf_counter()
    acc = 0
    for j in range(60000):
        acc += j * j % 7
    a = _PROBE_DATA[0].copy()
    for _ in range(20):
        a *= -1.0
        a -= 2 * a.mean()
        np.abs(a) ** 2
    return time.perf_counter() - t


def host_scale(op_mid, probe_at, probe_s, smooth=SMOOTH_S):
    """Per op, PROBE_REF_S over the median probe time within `smooth`
    seconds of the op's midpoint, always counting the nearest probe on
    each side.  `probe_at` is sorted."""
    import numpy as np

    probe_at, probe_s = np.asarray(probe_at), np.asarray(probe_s)
    lo = np.minimum(np.searchsorted(probe_at, op_mid - smooth, "left"),
                    np.maximum(np.searchsorted(probe_at, op_mid, "left") - 1, 0))
    hi = np.maximum(np.searchsorted(probe_at, op_mid + smooth, "right"),
                    np.minimum(np.searchsorted(probe_at, op_mid, "right") + 1, len(probe_at)))
    return np.array([PROBE_REF_S / np.median(probe_s[a:b]) for a, b in zip(lo, hi)])


def _judge(wl, outputs):
    """Gate every op, and require a repeated op to repeat its answer.

    `outputs[n]` is op n % distinct; the simulated aggregates and the
    digest cover the first pass.
    """
    problems, first = [], []
    digest = hashlib.sha256()
    for n, out in enumerate(outputs):
        i = n % wl.distinct
        c = None if isinstance(out, Failure) else wl.check(i, out)
        if c is None:
            problems.append(f"op {i}: {out.text.strip().splitlines()[-1]}")
        elif c.problem:
            problems.append(f"op {i}: {c.problem}")
        if n < wl.distinct:
            first.append(c)
            digest.update(json.dumps(c.record if c else ["raised"]).encode() + b"\n")
        elif c and first[i] and c.record != first[i].record:
            problems.append(f"op {i}: a repeat gave another answer")
    ok = [c for c in first if c is not None]
    n_ops = len(first)
    counter_names = ok[0].counters if ok else ()
    simulated = {
        "ops": n_ops,
        "gate_units": [c.gate_units if c else None for c in first],
        "verified_frac": sum(c.hits for c in ok) / max(1, sum(c.tries for c in ok)),
        "gate_units_mean": sum(c.gate_units for c in ok) / n_ops,
        "ledger_means": {name: sum(c.counters[name] for c in ok) / n_ops for name in counter_names},
        "ledger_phases_mean": sum(c.ledger_phases for c in ok) / n_ops,
        "compare_phases_mean": sum(c.compare_phases for c in ok) / n_ops,
        "digest": digest.hexdigest(),
    }
    return problems, simulated


def timed_run(wl, seconds):
    """Passes over the distinct ops until `seconds` have passed and each
    op ran at least once, with a host-speed probe between ops.

    Other tenants of a shared host slow all of it, the probe and the ops
    alike though not always equally, by tens of percent for seconds to
    minutes at a time.  Each
    op's wall time is scaled by the host speed the probes measured around
    it; op i is timed by the median of its scaled repeats, and the median
    and the rate are taken over the distinct ops.
    """
    import numpy as np

    outputs, op_start, op_s, probe_at, probe_s = [], [], [], [], []

    def sample():
        probe_at.append(time.perf_counter())
        probe_s.append(probe())

    probe()
    sample()
    loop_start = time.perf_counter()
    n = 0
    while n < wl.distinct or time.perf_counter() - loop_start < seconds:
        i = n % wl.distinct
        rng = wl.op_rng(i)
        t = time.perf_counter()
        outputs.append(_attempt(wl.run, i, rng))
        op_start.append(t)
        op_s.append(time.perf_counter() - t)
        n += 1
        if time.perf_counter() - probe_at[-1] >= PROBE_EVERY_S:
            sample()
    wall = time.perf_counter() - loop_start
    sample()
    problems, simulated = _judge(wl, outputs)
    op_s = np.array(op_s)
    scaled_ms = op_s * host_scale(np.array(op_start) + op_s / 2, probe_at, probe_s) * 1e3
    op_ms = np.array([np.median(scaled_ms[i :: wl.distinct]) for i in range(wl.distinct)])
    wall_ms = np.array([np.median(op_s[i :: wl.distinct]) for i in range(wl.distinct)]) * 1e3
    host = {
        "ops": n,
        "distinct_ops": wl.distinct,
        "op_ms_p50": float(np.median(op_ms)),
        "ops_per_s": 1e3 * wl.distinct / float(op_ms.sum()),
        "op_ms_p50_wall": float(np.median(wall_ms)),
        "ops_per_s_wall": 1e3 * wl.distinct / float(wall_ms.sum()),
        "ops_per_s_loop": n / wall,
        "loop_s": wall,
        "probes": len(probe_s),
        "probe_ms_p50": float(np.median(probe_s)) * 1e3,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_frac": len(problems) / n,
    }
    return {"attempted": n, "failed": len(problems), "problems": problems[:5],
            "host": host, "simulated": simulated, "op_ms": op_ms.tolist(), "scaled_ms": scaled_ms.tolist()}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def traced_run(wl, out_dir: Path):
    """Each distinct op untraced and traced, then the first few under tracemalloc."""
    import numpy as np

    import tracer

    ops = wl.distinct
    caches = tracer.lru_caches()
    hits, lookups = dict.fromkeys(caches, 0), dict.fromkeys(caches, 0)
    originals = tracer.patch_points()
    tr = tracer.Tracer()
    plain_out, traced_out = [], []
    plain_s = traced_s = 0.0

    def traced(i):
        nonlocal traced_s
        before = {name: fn.cache_info() for name, fn in caches.items()}
        tr.install()
        try:
            t = time.perf_counter()
            traced_out.append(_attempt(tr.run_op, i, wl.run, i, wl.op_rng(i)))
            traced_s += time.perf_counter() - t
        finally:
            tr.uninstall()
        for name, fn in caches.items():
            info = fn.cache_info()
            hits[name] += info.hits - before[name].hits
            lookups[name] += info.hits + info.misses - before[name].hits - before[name].misses

    def plain(i):
        nonlocal plain_s
        t = time.perf_counter()
        plain_out.append(_attempt(wl.run, i, wl.op_rng(i)))
        plain_s += time.perf_counter() - t

    # Each op runs untraced and traced back to back, in alternating order,
    # so that host drift and warm caches fall on both alike; the wrappers
    # are in place only for the traced run.
    for i in range(ops):
        for run in (plain, traced) if i % 2 == 0 else (traced, plain):
            run(i)
    problems, plain_sim = _judge(wl, plain_out)
    traced_problems, traced_sim = _judge(wl, traced_out)

    alloc_ops = max(1, ops // 16)
    probe = tracer.AllocProbe()
    probe.install()
    try:
        alloc_out = [_attempt(wl.run, i, wl.op_rng(i)) for i in range(alloc_ops)]
    finally:
        probe.uninstall()
    alloc_problems, _ = _judge(wl, alloc_out)
    restored = tracer.patch_points()
    not_restored = [f"{m}.{p}" for (m, p), obj in originals.items() if restored[(m, p)] is not obj]

    problems += traced_problems + alloc_problems
    if traced_sim["digest"] != plain_sim["digest"]:
        problems.append("traced and untraced result digests differ")
    if not_restored:
        problems.append(f"patched names not restored: {not_restored}")

    arrays = tr.arrays()
    out_dir.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(out_dir / f"{wl.name}.spans.npz", names=np.array(tr.names), **arrays)
    summary = tracer.summarize(tr.names, arrays["name_id"], arrays["parent"],
                               arrays["start_ns"], arrays["end_ns"])
    idle = {"calls": 0, "total_ns": 0.0, "self_ns": 0.0}
    span = {name: summary.get(name, idle) for name in [*tracer.LAYERS, tracer.OP_SPAN]}
    counted = {name: tr.results.get(name, {}) for name in tracer.LAYERS}

    host = {}
    for name in tracer.LAYERS:
        host[f"{name}.ms"] = (span[name]["self_ns"] / 1e6 / ops, "ms")
        host[f"{name}.calls"] = (span[name]["calls"] / ops, "count")
    for name in tracer.CACHES:
        host[f"{name}.hit_ratio"] = (_ratio(hits[name], lookups[name]), "ratio")
    host["fingerprint.prefix_hashes.ns_per_bit"] = (_ratio(
        span["fingerprint.prefix_hashes"]["self_ns"], tr.units.get("fingerprint.prefix_hashes", 0)), "ns/bit")
    host["grover.grover_run.ns_per_amp_iter"] = (_ratio(
        span["grover.grover_run"]["self_ns"], tr.units.get("grover.grover_run", 0)), "ns/amp-iter")
    bbht = counted["grover.bbht_search"]
    host["grover.bbht_search.hit_ratio"] = (_ratio(bbht.get("hits", 0), bbht.get("repetitions", 0)), "ratio")
    for name in tracer.ALLOC_LAYERS:
        host[f"{name}.peak_alloc_mib"] = (probe.peak.get(name, 0) / 2**20, "MiB")
    host["trace.overhead_frac"] = ((traced_s - plain_s) / plain_s, "ratio")
    op_span = span[tracer.OP_SPAN]
    host["trace.unattributed_frac"] = (_ratio(op_span["self_ns"], op_span["total_ns"]), "ratio")

    simulated = {}
    for name, value in traced_sim["ledger_means"].items():
        unit = "gate_units" if name.endswith("_units") else "count"
        simulated[f"resources.ledger.{name}"] = (value, unit)
    simulated["resources.ledger.phases"] = (traced_sim["ledger_phases_mean"], "count")
    simulated["qmatch.match_search.copies"] = (counted["qmatch.match_search"].get("copies", 0) / ops, "count")
    simulated["grover.durr_hoyer_min.phases"] = (counted["grover.durr_hoyer_min"].get("phases", 0) / ops, "count")
    simulated["qcompare.CompareResult.phases"] = (traced_sim["compare_phases_mean"], "count")
    simulated["gate_units_mean"] = (traced_sim["gate_units_mean"], "gate_units")

    return {
        "attempted": 2 * ops + alloc_ops,
        "failed": len(problems),
        "problems": problems[:5],
        "ops": ops,
        "alloc_ops": alloc_ops,
        "host": {k: {"value": v, "unit": u} for k, (v, u) in host.items()},
        "simulated": {k: {"value": v, "unit": u} for k, (v, u) in simulated.items()},
        "digest": traced_sim["digest"],
        "untraced_digest": plain_sim["digest"],
        "span_count": len(arrays["name_id"]),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    # numpy, sympy and qstrings are imported here, not at the top, so that
    # set-up time covers them.
    t0 = time.perf_counter()
    import numpy
    import sympy

    from qstrings import fingerprint, grover, qcompare, qmatch, resources, sim, strings_core  # noqa: F401

    import_s = time.perf_counter() - t0
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.prepare()
    t1 = time.perf_counter()
    warm = wl.run(workloads.WARMUP_BASE, wl.op_rng(workloads.WARMUP_BASE))
    setup_s = import_s + time.perf_counter() - t1
    problem = wl.check(workloads.WARMUP_BASE, warm).problem
    if problem:
        raise SystemExit(f"warm-up op failed its check: {problem}")

    # Set-up is scaled like an op, by the host speed just after it.
    probe()
    probe_ms = 1e3 * float(numpy.median([probe() for _ in range(SETUP_PROBES)]))
    scale = 1e3 * PROBE_REF_S / probe_ms
    report = {"setup_s": setup_s * scale, "setup_wall_s": setup_s, "import_s": import_s,
              "setup_probe_ms": probe_ms, "probe_ref_ms": PROBE_REF_S * 1e3}
    report.update(traced_run(wl, args.out) if args.trace else timed_run(wl, args.seconds))
    report["versions"] = {
        "python": sys.version.split()[0], "numpy": numpy.__version__, "sympy": sympy.__version__,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
