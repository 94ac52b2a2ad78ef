"""qstrings benchmark: end-to-end op metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload match_long --seed 1 --seconds 20 --trace 1

Run from the repository root.  Each workload runs in fresh worker
processes (perfbench/worker.py) with every BLAS/OpenMP pool pinned to one
thread: with --trace 0, TIMING_PROCESSES processes one after another
that each set up and time ops for an equal share of --seconds, their
each op timed by the median of its repeats in all of them; with
--trace 1, one process
that makes an untraced, a traced and a tracemalloc pass over the same
ops.  The last line of standard output is one JSON object with the
metrics BENCHMARK.json names; the full report goes to perfbench/out/.
Exit code 1 means an op failed its correctness gate, 2 a bad invocation
or a tree without the qstrings sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import _tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("match_long", "match_sweep", "compare_bsearch", "compare_grover")
TIMING_PROCESSES = 5
WORKER_TIMEOUT_S = 170
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args, workload: str, deadline: float, seconds: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(seconds),
        "--trace", str(args.trace), "--out", str(OUT),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_worker_env(), capture_output=True, text=True,
            timeout=max(1.0, min(WORKER_TIMEOUT_S, deadline - time.monotonic())),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker timed out after {exc.timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git(*cmd: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args) -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_revision": _git("rev-parse", "HEAD") or "unknown (not a git checkout)",
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "seed": args.seed,
        "seconds": args.seconds,
        "thread_env": {var: "1" for var in THREAD_VARS},
    }


def combine(reports: list[dict]) -> dict:
    """One report from the timing processes of a workload: op time, rate
    and tail from the scaled times of all their ops, other host figures
    the median over the processes.  Every process must have computed the
    same results."""
    import numpy as np

    first = reports[0]
    scaled_ms = [ms for r in reports for ms in r["scaled_ms"]]
    host = {name: statistics.median(r["host"][name] for r in reports) for name in first["host"]}
    # Every process starts at op 0, so its j-th op is op j % distinct.
    distinct = first["host"]["distinct_ops"]
    repeats = [[] for _ in range(distinct)]
    for r in reports:
        for j, ms in enumerate(r["scaled_ms"]):
            repeats[j % distinct].append(ms)
    op_ms = np.array([np.median(ms) for ms in repeats])
    host["op_ms_p50"] = float(np.median(op_ms))
    host["ops_per_s"] = 1e3 * distinct / float(op_ms.sum())
    for name in ("ops", "loop_s", "probes"):
        host[name] = sum(r["host"][name] for r in reports)
    pct = _tail_percentile(len(scaled_ms))
    host["op_ms_tail"] = float(np.percentile(scaled_ms, pct))
    host["op_ms_tail_percentile"] = pct
    problems = [p for r in reports for p in r["problems"]]
    differ = any(r["simulated"]["digest"] != first["simulated"]["digest"] for r in reports)
    if differ:
        problems.append("timing processes computed different result digests")
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports) + differ
    host["failed_frac"] = failed / attempted
    return {
        "attempted": attempted, "failed": failed, "problems": problems[:5], "host": host,
        "simulated": first["simulated"], "probe_ref_ms": first["probe_ref_ms"],
        "processes": [{k: r[k] for k in ("setup_s", "setup_wall_s", "host", "op_ms")} for r in reports],
        "scaled_ms": scaled_ms,
    }


def end_to_end(report: dict, setup: list[float]) -> dict:
    """Host times are at reference host speed (worker.host_scale)."""
    host, sim = report["host"], report["simulated"]
    pct = host["op_ms_tail_percentile"]
    procs = len(report["processes"])
    return {
        "op_ms_p50": (host["op_ms_p50"], "ms",
                      f"median over {host['distinct_ops']} distinct ops of each one's median repeat "
                      f"in {procs} processes; unscaled, median {host['op_ms_p50_wall']:.4g} ms"),
        "op_ms_tail": (host["op_ms_tail"], "ms", f"p{pct} of all {host['ops']} ops"),
        "ops_per_s": (host["ops_per_s"], "1/s",
                      f"from the median repeats; {host['ops']} ops in {host['loop_s']:.2f} s"),
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh processes"),
        "peak_rss_mib": (host["peak_rss_mib"], "MiB", f"ru_maxrss, median of {procs} processes"),
        "failed_frac": (host["failed_frac"], "ratio", f"{report['failed']} of {report['attempted']} ops"),
        "verified_frac": (sim["verified_frac"], "ratio", f"{sim['ops']} distinct ops, simulated"),
        "gate_units_mean": (sim["gate_units_mean"], "gate_units", f"{sim['ops']} distinct ops, simulated"),
        "host_probe_ms": (host["probe_ms_p50"], "ms",
                          f"median of {host['probes']} host-speed probes (reference {report['probe_ref_ms']:.4g} ms)"),
    }


def run_workload(args, workload: str, deadline: float) -> tuple[dict, dict]:
    """(metrics by name as (value, unit, note), full report) for one workload."""
    if args.trace:
        report = _worker(args, workload, deadline, args.seconds)
        metrics = {
            name: (m["value"], m["unit"], section)
            for section in ("host", "simulated")
            for name, m in report[section].items()
        }
        return metrics, report
    reports = [_worker(args, workload, deadline, args.seconds / TIMING_PROCESSES)
               for _ in range(TIMING_PROCESSES)]
    setup = [r["setup_s"] for r in reports]
    report = combine(reports)
    report["setup_samples_s"] = setup
    report["versions"] = reports[0]["versions"]
    return end_to_end(report, setup), report


def _print_workload(workload: str, metrics: dict, report: dict) -> None:
    print(f"== {workload}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit:<12} {note}")
    digest = report["digest"] if "digest" in report else report["simulated"]["digest"]
    print(f"  result digest sha256:{digest}")
    for problem in report["problems"]:
        print(f"  FAILED {problem}")


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        if not (ROOT / "src" / "qstrings" / "__init__.py").is_file():
            raise BenchError(f"no qstrings sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
        deadline = time.monotonic() + (10**6 if args.workload == "all" else WORKER_TIMEOUT_S)
        meta = metadata(args)
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in workloads:
            metrics, report = run_workload(args, workload, deadline)
            report["metadata"] = {**meta, **report.pop("versions", {})}
            OUT.mkdir(exist_ok=True)
            out_file = OUT / f"{workload}.trace{args.trace}.json"
            out_file.write_text(json.dumps(report, indent=1), encoding="utf-8")
            _print_workload(workload, metrics, report)
            missing = [name for name in wanted if name not in metrics]
            if missing:
                raise BenchError(f"{workload} reported no {missing}")
            prefix = "" if len(workloads) == 1 else f"{workload}."
            for name in wanted:
                value, unit, _ = metrics[name]
                result["metrics"][prefix + name] = {"value": value, "unit": unit}
            result["attempted"] += report["attempted"]
            result["failed"] += report["failed"]
        print(f"metadata {json.dumps(report['metadata'])}")
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
