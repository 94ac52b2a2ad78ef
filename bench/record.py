"""Record the benchmark and the Tier-1 suite at fixed seeds, or compare two records.

    python3 bench/record.py --label 9 --out BENCH_9.json
    python3 bench/record.py --label 8 --root ../parent --out BENCH_8.json
    python3 bench/record.py --compare BENCH_8.json BENCH_9.json
    python3 bench/record.py --pairs 10 --workload compare_grover --seed 11 --root ../parent

A record runs `perfbench/run.py --workload all` of the tree at --root
(default: this repository) for 20 s with `--trace 0` at seeds 3 and 5
and with `--trace 1` at seed 3, then its scale section, then times the
Tier-1 suite (`python -m pytest -q`, sources from the tree's `src/`).
The scale section builds one m = 16 match instance (one occurrence,
fixed seed) at each of n = 2^18, 2^20, 2^22 and 2^24, each in a fresh
interpreter of the tree, and gives the wall time of one untraced call
and the tracemalloc peak of a second call of `prepare_match_state`,
`MatchStateSpec.oracle` and `match_search`.  It writes one JSON file:
the git revision, a digest of the sources under `src/`, the line count
of each `src/qstrings/*.py` module and their total, the machine (cores,
CPU, Python, numpy, sympy), every metric each run printed, per seed the
four workloads' result digests, the scale section, and the Tier-1
summary line and wall time.  End-to-end metrics are the median over the
`--trace 0` seeds, with every sample.  The Tier-1 time is also given
host-scaled, as the benchmark scales its host times: times the
benchmark's reference probe time over the median of its host-speed
probe (`perfbench/worker.py`), run just before and just after the suite.

`--compare A B` prints each metric of A and B with B's change relative
to A, the source line total and each module whose count changed as
A -> B ("n/a" for a record without line counts), each scale stage's
time and peak as A -> B, and a loud DIGEST
CHANGED line for every workload and seed whose result digest differs;
it exits 1 when one does, since equal digests mean the same answers at
the same simulated cost.  It warns when a
workload's `host_probe_ms` differs by more than 25 % between the two
records: the host ran at another speed, and unscaled times do not
compare.  These are report lines; no gate depends on them.

`--pairs N --workload W --seed S --root PARENT` measures a gain the
way a claim must be shown: N pairs of `perfbench/run.py --trace 0` runs
of one workload, one in the tree at PARENT and one in this repository,
alternating which goes first.  It prints each pair's `op_ms_p50`, each
side's median and quartiles, the pairs the change won (ties count for
neither), and whether the medians differ by more than the spread
between the parent's quartiles.  It exits 1 when the two sides' result
digests differ.

Standard library only, so it runs on any tree the benchmark runs on.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
# Fixed, so records of different trees compare op for op; SECONDS is the
# run length BENCHMARK.json sets.
SEEDS = (3, 5)
SECONDS = 20
WORKLOAD_HEADER = re.compile(r"^== (\w+)$")
METRIC_LINE = re.compile(r"^  (\S+)\s+(\S+) (\S+)")
DIGEST_LINE = re.compile(r"^  result digest sha256:([0-9a-f]+)$")
TIER1_SUMMARY = re.compile(r"^=*\s*(\d+ passed.*?)\s*=*$")
# Beyond this relative change in host_probe_ms two records' hosts differ.
HOST_DRIFT = 0.25
PROBES = 9
PROBE_SCRIPT = (
    "import json, statistics, sys; sys.path.insert(0, 'perfbench'); import worker; "
    f"worker.probe(); times = [worker.probe() for _ in range({PROBES})]; "
    "print(json.dumps({'probe_ms': [1e3 * t for t in times], "
    "'probe_ref_ms': 1e3 * worker.PROBE_REF_S}))"
)

# The scale section: text lengths 2^SCALE_BITS, pattern length, seed and
# the match error bound of the match_long workload.
SCALE_BITS = (18, 20, 22, 24)
SCALE_M = 16
SCALE_SEED = 21
SCALE_EPSILON = 0.1
SCALE_STAGES = ("prepare_match_state", "oracle", "match_search")
SCALE_SCRIPT = """
import gc, json, sys, time, tracemalloc
import numpy as np
from qstrings import qmatch

def stage(fn):
    start = time.perf_counter()
    fn()
    ms = 1e3 * (time.perf_counter() - start)
    gc.collect()
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, {"ms": ms, "peak_mib": peak / 2**20}

bits, m, seed, epsilon = int(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3]), float(sys.argv[4])
inst, start = qmatch.random_single_occurrence(1 << bits, m, np.random.default_rng(seed))
params = qmatch.match_params(inst, epsilon, np.random.default_rng(seed))
spec, prepare = stage(lambda: qmatch.prepare_match_state(inst, params))
_, oracle = stage(spec.oracle)
res, search = stage(lambda: qmatch.match_search(inst, params, np.random.default_rng(seed)))
print(json.dumps({"prepare_match_state": prepare, "oracle": oracle, "match_search": search,
                  "found": res.position == start}))
"""


class RecordError(Exception):
    """A run the record needs failed or printed something unreadable."""


def parse_perfbench(stdout: str) -> tuple[dict, dict]:
    """(metrics, digests) from the output of `perfbench/run.py --workload all`.

    Metrics are keyed `<workload>.<name>` with value and unit.  Values come
    from the printed lines (six significant digits), replaced by the exact
    value where the closing JSON result line carries the metric.
    """
    lines = stdout.strip().splitlines()
    if not lines:
        raise RecordError("perfbench printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise RecordError(f"perfbench result line is not JSON: {exc}") from None
    metrics: dict[str, dict] = {}
    digests: dict[str, str] = {}
    workload = None
    for line in lines[:-1]:
        if header := WORKLOAD_HEADER.match(line):
            workload = header.group(1)
        elif workload and (digest := DIGEST_LINE.match(line)):
            digests[workload] = digest.group(1)
        elif workload and (metric := METRIC_LINE.match(line)):
            name, value, unit = metric.groups()
            try:
                metrics[f"{workload}.{name}"] = {"value": float(value), "unit": unit}
            except ValueError:
                continue  # a line that only looks like a metric
    metrics.update(result["metrics"])
    if not digests:
        raise RecordError("perfbench printed no result digest")
    return metrics, digests


def run_perfbench(root: Path, seed: int, trace: int, workload: str = "all") -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    print(f"record: {' '.join(cmd[1:])}", file=sys.stderr, flush=True)
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RecordError(f"perfbench exited {proc.returncode}:\n{proc.stderr.strip()}")
    metrics, digests = parse_perfbench(proc.stdout)
    return {"seed": seed, "metrics": metrics, "digests": digests}


def run_probe(root: Path) -> dict:
    """PROBES timings of the benchmark's host-speed probe in ms, and its reference."""
    proc = subprocess.run([sys.executable, "-c", PROBE_SCRIPT], cwd=root,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RecordError(f"host-speed probe exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout)


def _src_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def run_scale(root: Path) -> dict:
    """The scale section: per text length, each stage's ms and peak MiB."""
    sizes = {}
    for bits in SCALE_BITS:
        print(f"record: scale n = 2^{bits}", file=sys.stderr, flush=True)
        cmd = [sys.executable, "-c", SCALE_SCRIPT, str(bits), str(SCALE_M), str(SCALE_SEED),
               str(SCALE_EPSILON)]
        proc = subprocess.run(cmd, cwd=root, env=_src_env(root), capture_output=True, text=True)
        if proc.returncode != 0:
            raise RecordError(f"scale run at 2^{bits} exited {proc.returncode}:\n"
                              f"{proc.stderr.strip()}")
        sizes[str(bits)] = json.loads(proc.stdout)
    return {"m": SCALE_M, "seed": SCALE_SEED, "epsilon": SCALE_EPSILON, "sizes": sizes}


def run_tier1(root: Path) -> dict:
    env = _src_env(root)
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "--continue-on-collection-errors"]
    print(f"record: tier-1 suite in {root}", file=sys.stderr, flush=True)
    before = run_probe(root)
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    after = run_probe(root)
    summary = next(
        (m.group(1) for line in reversed(proc.stdout.splitlines())
         if (m := TIER1_SUMMARY.match(line.strip()))),
        None,
    )
    probe_ms = statistics.median(before["probe_ms"] + after["probe_ms"])
    return {
        "seconds": round(seconds, 2),
        "exit_code": proc.returncode,
        "summary": summary,
        "probe_ms": round(probe_ms, 4),
        "probe_ref_ms": before["probe_ref_ms"],
        "scaled_seconds": round(seconds * before["probe_ref_ms"] / probe_ms, 2),
    }


def _git(root: Path, *args: str) -> str | None:
    try:
        proc = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest(root: Path) -> str:
    """sha256 over the program's sources, naming the measured tree even when
    it differs from its git revision."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def source_lines(root: Path) -> dict:
    """Line count of each program module and their total."""
    modules = {path.name: len(path.read_text(encoding="utf-8").splitlines())
               for path in sorted((root / "src" / "qstrings").glob("*.py"))}
    return {"total": sum(modules.values()), "modules": modules}


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "sympy": _version("sympy"),
    }


def record(root: Path, label: str) -> dict:
    untraced = [run_perfbench(root, seed, 0) for seed in SEEDS]
    traced = run_perfbench(root, SEEDS[0], 1)
    metrics: dict[str, dict] = {}
    for name, first in untraced[0]["metrics"].items():
        samples = [run["metrics"][name]["value"] for run in untraced]
        metrics[name] = {"value": statistics.median(samples), "unit": first["unit"],
                         "samples": samples}
    metrics.update({name: {**m, "trace": 1} for name, m in traced["metrics"].items()})
    digests = {str(run["seed"]): run["digests"] for run in untraced}
    if traced["digests"] != digests[str(traced["seed"])]:
        raise RecordError("traced and untraced runs gave different result digests")
    return {
        "label": label,
        "git_revision": _git(root, "rev-parse", "HEAD"),
        "git_dirty": bool(_git(root, "status", "--porcelain", "--untracked-files=no")),
        "src_sha256": source_digest(root),
        "src_lines": source_lines(root),
        "machine": machine(),
        "perfbench": {"seeds": list(SEEDS), "seconds": SECONDS, "traced_seed": SEEDS[0]},
        "host_probe_ms": {name.split(".")[0]: m["value"] for name, m in metrics.items()
                          if name.endswith(".host_probe_ms")},
        "metrics": metrics,
        "digests": digests,
        "scale": run_scale(root),
        "tier1": run_tier1(root),
    }


def _quartiles(samples: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return q1, median, q3


def run_pairs(parent: Path, workload: str, seed: int, pairs: int) -> tuple[list[str], bool]:
    """Report lines for `pairs` alternating runs of `workload` in the tree
    at `parent` and in this repository, and whether a result digest differs."""
    trees = {"parent": parent, "change": REPO}
    samples: dict[str, list[float]] = {"parent": [], "change": []}
    digests: dict[str, set[str]] = {"parent": set(), "change": set()}
    lines = [f"{workload} op_ms_p50 at seed {seed}: parent {parent}, change {REPO}",
             "  pair  first     parent ms   change ms   change"]
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_perfbench(trees[side], seed, 0, workload)
            samples[side].append(run["metrics"][f"{workload}.op_ms_p50"]["value"])
            digests[side].add(run["digests"][workload])
        pa, ch = samples["parent"][-1], samples["change"][-1]
        lines.append(f"  {pair + 1:>4}  {order[0]:<8} {pa:>10.4g}  {ch:>10.4g}   "
                     f"{(ch - pa) / pa:+.1%}")
    for side in ("parent", "change"):
        q1, median, q3 = _quartiles(samples[side])
        lines.append(f"{side}: median {median:.4g} ms, quartiles {q1:.4g} .. {q3:.4g} ms")
    won = sum(ch < pa for pa, ch in zip(samples["parent"], samples["change"]))
    lines.append(f"change faster in {won} of {pairs} pairs")
    q1, parent_median, q3 = _quartiles(samples["parent"])
    gap = statistics.median(samples["change"]) - parent_median
    lines.append(f"medians differ by {gap:+.4g} ms; parent quartile spread {q3 - q1:.4g} ms: "
                 f"{'beyond' if abs(gap) > q3 - q1 else 'within'} it")
    changed = digests["parent"] != digests["change"]
    if changed:
        lines.append(f"!!! DIGEST CHANGED: {workload} at seed {seed}: "
                     f"{sorted(digests['parent'])} -> {sorted(digests['change'])}")
    else:
        lines.append("result digests: all equal")
    return lines, changed


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    """Report lines comparing record b against record a, and whether a digest changed."""
    lines = [f"{side}: {r.get('label')} {r.get('git_revision')} src sha256 {r.get('src_sha256')}"
             for side, r in (("A", a), ("B", b))]
    for name in sorted(set(a["metrics"]) | set(b["metrics"])):
        ma, mb = a["metrics"].get(name), b["metrics"].get(name)
        if ma is None or mb is None:
            lines.append(f"  {name:<60} only in {'B' if ma is None else 'A'}")
            continue
        va, vb = ma["value"], mb["value"]
        change = "=" if va == vb else "n/a" if va == 0 else f"{(vb - va) / abs(va):+.1%}"
        lines.append(f"  {name:<60} {va:>14.6g} -> {vb:<14.6g} {ma['unit']:<12} {change}")
    changed = False
    for seed in sorted(set(a["digests"]) & set(b["digests"]), key=int):
        for workload in sorted(set(a["digests"][seed]) | set(b["digests"][seed])):
            da, db = a["digests"][seed].get(workload), b["digests"][seed].get(workload)
            if da != db:
                changed = True
                lines.append(f"!!! DIGEST CHANGED: {workload} at seed {seed}: {da} -> {db}")
    if not set(a["digests"]) & set(b["digests"]):
        lines.append("no seed in common: result digests not compared")
    elif not changed:
        lines.append("result digests: all equal")
    lines.extend(_source_line_report(a.get("src_lines"), b.get("src_lines")))
    lines.extend(_scale_report(a.get("scale"), b.get("scale")))
    ta, tb = a.get("tier1", {}), b.get("tier1", {})
    lines.append(f"tier-1: {ta.get('summary')} in {ta.get('seconds')} s -> "
                 f"{tb.get('summary')} in {tb.get('seconds')} s")
    lines.append(f"tier-1 host-scaled: {_scaled_tier1(ta)} -> {_scaled_tier1(tb)}")
    probes_a, probes_b = a.get("host_probe_ms", {}), b.get("host_probe_ms", {})
    for workload in sorted(set(probes_a) & set(probes_b)):
        pa, pb = probes_a[workload], probes_b[workload]
        if abs(pb - pa) > HOST_DRIFT * pa:
            lines.append(f"warning: {workload} host_probe_ms {pa:.4g} -> {pb:.4g} ms "
                         f"({(pb - pa) / pa:+.0%}): the hosts ran at different speeds, "
                         "so compare host-scaled times only")
    return lines, changed


def _source_line_report(la: dict | None, lb: dict | None) -> list[str]:
    """The source line totals, then each module whose count changed."""
    if la is None or lb is None:
        total = ["n/a" if side is None else side["total"] for side in (la, lb)]
        return [f"src lines: {total[0]} -> {total[1]}"]
    lines = [f"src lines: {la['total']} -> {lb['total']} ({lb['total'] - la['total']:+d})"]
    for name in sorted(set(la["modules"]) | set(lb["modules"])):
        ma, mb = (side["modules"].get(name, "absent") for side in (la, lb))
        if ma != mb:
            lines.append(f"  {name:<20} {ma} -> {mb}")
    return lines


def _scale_report(sa: dict | None, sb: dict | None) -> list[str]:
    """Each scale stage's wall time and tracemalloc peak, A -> B."""
    if sa is None and sb is None:
        return ["scale: n/a -> n/a"]
    head = sa or sb
    sizes = [(sa or {}).get("sizes", {}), (sb or {}).get("sizes", {})]
    lines = [f"scale: m = {head['m']}, seed {head['seed']}; ms and tracemalloc peak MiB, A -> B"]
    for bits in sorted(set(sizes[0]) | set(sizes[1]), key=int):
        for name in SCALE_STAGES:
            stages = [side.get(bits, {}).get(name) for side in sizes]
            cells = ["n/a" if stage is None else f"{stage['ms']:.4g} ms {stage['peak_mib']:.4g} MiB"
                     for stage in stages]
            lines.append(f"  2^{bits:<3} {name:<20} {cells[0]:>24} -> {cells[1]}")
    return lines


def _scaled_tier1(tier1: dict) -> str:
    if "scaled_seconds" not in tier1:
        return "n/a (no probe around the suite)"
    return (f"{tier1['scaled_seconds']} s (probe {tier1['probe_ms']} ms, "
            f"reference {tier1['probe_ref_ms']:.4g} ms)")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two records")
    ap.add_argument("--label", help="name stored in the record, such as the change number")
    ap.add_argument("--out", help="record file to write")
    ap.add_argument("--root", default=str(REPO),
                    help="tree to measure, or with --pairs the parent tree (default: this one)")
    ap.add_argument("--pairs", type=int, metavar="N",
                    help="N alternating runs of one workload here and in --root")
    ap.add_argument("--workload", help="the workload --pairs runs")
    ap.add_argument("--seed", type=int, default=SEEDS[0], help="the seed --pairs runs at")
    args = ap.parse_args(argv)
    try:
        if args.pairs is not None:
            if args.pairs < 1 or not args.workload:
                ap.error("--pairs needs N >= 1 and --workload")
            lines, changed = run_pairs(Path(args.root).resolve(), args.workload, args.seed,
                                       args.pairs)
            print("\n".join(lines))
            return 1 if changed else 0
        if args.compare:
            a, b = (json.loads(Path(path).read_text(encoding="utf-8")) for path in args.compare)
            lines, changed = compare(a, b)
            print("\n".join(lines))
            return 1 if changed else 0
        if not args.out or not args.label:
            ap.error("a record needs --label and --out")
        result = record(Path(args.root).resolve(), args.label)
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    except (RecordError, OSError, ValueError, KeyError) as exc:
        print(f"record: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
