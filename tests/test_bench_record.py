import importlib.util
import json
import os
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record)


def _record(label, op_ms, digest):
    return {
        "label": label,
        "git_revision": f"rev{label}",
        "metrics": {
            "match_sweep.op_ms_p50": {"value": op_ms, "unit": "ms", "samples": [op_ms]},
            "match_sweep.resources.ledger.oracle_queries": {"value": 702.125, "unit": "count"},
        },
        "digests": {"3": {"match_sweep": digest, "compare_grover": "c" * 64}},
        "tier1": {"summary": "354 passed, 1 xfailed", "seconds": 45.0},
    }


@pytest.fixture
def no_perfbench(monkeypatch):
    def fail(*_args, **_kwargs):
        raise AssertionError("--compare must not run the benchmark")

    monkeypatch.setattr(record, "run_perfbench", fail)
    monkeypatch.setattr(record, "run_tier1", fail)


@pytest.mark.parametrize("new_digest, code", [("a" * 64, 0), ("b" * 64, 1)])
def test_compare_reports_changes_and_flags_a_digest_change(
    tmp_path, capsys, no_perfbench, new_digest, code
):
    paths = []
    for label, op_ms, digest in (("8", 40.0, "a" * 64), ("9", 30.0, new_digest)):
        path = tmp_path / f"BENCH_{label}.json"
        path.write_text(json.dumps(_record(label, op_ms, digest)))
        paths.append(str(path))
    assert record.main(["--compare", *paths]) == code
    out = capsys.readouterr().out
    sweep = next(line for line in out.splitlines() if "match_sweep.op_ms_p50" in line)
    assert "40" in sweep and "30" in sweep and "-25.0%" in sweep
    ledger = next(line for line in out.splitlines() if "oracle_queries" in line)
    assert ledger.rstrip().endswith("=")
    changed = [line for line in out.splitlines() if line.startswith("!!! DIGEST CHANGED")]
    if code:
        assert changed == [f"!!! DIGEST CHANGED: match_sweep at seed 3: {'a' * 64} -> {'b' * 64}"]
    else:
        assert changed == [] and "result digests: all equal" in out


def test_parse_perfbench_reads_metrics_and_digests():
    stdout = "\n".join([
        "== match_sweep",
        "  op_ms_p50                                              28.1234 ms           median",
        "  host_probe_ms                                          9.01 ms           probes",
        f"  result digest sha256:{'d' * 64}",
        "== compare_grover",
        "  op_ms_p50                                              3.5 ms           median",
        f"  result digest sha256:{'e' * 64}",
        "  FAILED op 2 raised",
        'metadata {"seed": 3}',
        json.dumps({"correct": True, "metrics": {
            "match_sweep.op_ms_p50": {"value": 28.123456789, "unit": "ms"}}}),
    ])
    metrics, digests = record.parse_perfbench(stdout)
    assert metrics["match_sweep.op_ms_p50"]["value"] == 28.123456789  # exact from JSON
    assert metrics["match_sweep.host_probe_ms"] == {"value": 9.01, "unit": "ms"}
    assert metrics["compare_grover.op_ms_p50"]["value"] == 3.5
    assert digests == {"match_sweep": "d" * 64, "compare_grover": "e" * 64}


@pytest.mark.parametrize("probe_b, warned", [(6.1, True), (8.2, False), (12.0, False), (13.8, True)])
def test_compare_warns_when_the_hosts_ran_at_different_speeds(tmp_path, capsys, no_perfbench,
                                                              probe_b, warned):
    paths = []
    for label, probes in (("10", {"match_sweep": 10.8, "compare_grover": 10.0}),
                          ("11", {"match_sweep": probe_b, "compare_grover": 10.0})):
        path = tmp_path / f"BENCH_{label}.json"
        path.write_text(json.dumps({**_record(label, 20.0, "a" * 64), "host_probe_ms": probes}))
        paths.append(str(path))
    assert record.main(["--compare", *paths]) == 0  # a report line, not a gate
    warnings = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("warning:")]
    if warned:
        assert len(warnings) == 1 and warnings[0].startswith(
            f"warning: match_sweep host_probe_ms 10.8 -> {probe_b:.4g} ms")
    else:
        assert warnings == []


def test_tier1_time_is_host_scaled_by_the_benchmark_probe(monkeypatch):
    calls = []

    def fake_run(cmd, cwd=None, env=None, capture_output=None, text=None):
        calls.append(cmd)
        if cmd[1] == "-c":
            probes = [18.0] * 9 if len(calls) == 1 else [12.0] * 9
            out = json.dumps({"probe_ms": probes, "probe_ref_ms": 9.0})
        else:
            out = "....\n386 passed, 1 xfailed in 30.00s\n"
        return subprocess.CompletedProcess(cmd, 0, stdout=out, stderr="")

    monkeypatch.setattr(record.subprocess, "run", fake_run)
    tier1 = record.run_tier1(Path("."))
    assert [cmd[1] for cmd in calls] == ["-c", "-m", "-c"]  # probes around the suite
    assert tier1["summary"] == "386 passed, 1 xfailed in 30.00s"
    assert tier1["probe_ms"] == 15.0  # median of all 18 probes
    assert tier1["scaled_seconds"] == round(tier1["seconds"] * 9.0 / 15.0, 2)
    line = record.compare({"metrics": {}, "digests": {}, "tier1": {}},
                          {"metrics": {}, "digests": {}, "tier1": tier1})[0][-1]
    assert line == (f"tier-1 host-scaled: n/a (no probe around the suite) -> "
                    f"{tier1['scaled_seconds']} s (probe 15.0 ms, reference 9 ms)")


def test_probe_script_runs_the_benchmark_probe():
    probe = record.run_probe(record.REPO)
    assert len(probe["probe_ms"]) == record.PROBES and min(probe["probe_ms"]) > 0
    assert probe["probe_ref_ms"] == 9.0


def test_record_counts_source_lines_and_compare_prints_the_change(tmp_path):
    module_dir = tmp_path / "src" / "qstrings"
    module_dir.mkdir(parents=True)
    (module_dir / "sim.py").write_text("a = 1\nb = 2\nc = 3\n")
    (module_dir / "cli.py").write_text("x = 1\n")
    (tmp_path / "src" / "notes.txt").write_text("not a module\n")
    before = record.source_lines(tmp_path)
    assert before == {"total": 4, "modules": {"cli.py": 1, "sim.py": 3}}
    (module_dir / "sim.py").write_text("a = 1\n")
    (module_dir / "trace.py").write_text("t = 1\nu = 2\n")
    after = record.source_lines(tmp_path)
    assert after["total"] == 4
    blank = {"metrics": {}, "digests": {}, "tier1": {}}
    lines = record.compare({**blank, "src_lines": before}, {**blank, "src_lines": after})[0]
    start = next(i for i, line in enumerate(lines) if line.startswith("src lines:"))
    assert lines[start:start + 3] == [
        "src lines: 4 -> 4 (+0)",
        "  sim.py               3 -> 1",
        "  trace.py             absent -> 2",
    ]
    old = record.compare(blank, {**blank, "src_lines": after})[0]
    assert "src lines: n/a -> 4" in old
    assert "src lines: n/a -> n/a" in record.compare(blank, blank)[0]


def test_scale_runs_each_size_in_a_fresh_interpreter_and_compare_prints_it(monkeypatch, tmp_path):
    calls = []

    def fake_run(cmd, cwd=None, env=None, capture_output=None, text=None):
        calls.append((cmd, cwd, env["PYTHONPATH"].split(os.pathsep)[0]))
        scale = 2.0 ** (int(cmd[3]) - 18)
        samples = [1.5 * scale * t for t in (1.0, 0.75, 1.25, 1.0, 0.5)]
        out = json.dumps({name: {"ms": 1.5 * scale, "ms_samples": samples,
                                 "peak_mib": 6.0 * scale}
                          for name in record.SCALE_STAGES} | {"found": True})
        return subprocess.CompletedProcess(cmd, 0, stdout=out + "\n", stderr="")

    monkeypatch.setattr(record.subprocess, "run", fake_run)
    scale = record.run_scale(tmp_path)
    assert [cmd[3] for cmd, _, _ in calls] == ["18", "20", "22", "24"]
    assert all(cmd[1] == "-c" and cmd[2] == record.SCALE_SCRIPT
               and cmd[4:] == ["16", "21", "0.1", "5"] for cmd, _, _ in calls)
    assert {(cwd, src) for _, cwd, src in calls} == {(tmp_path, str(tmp_path / "src"))}
    assert scale["m"] == 16 and scale["sizes"]["22"]["prepare_match_state"] == {
        "ms": 24.0, "ms_samples": [24.0, 18.0, 30.0, 24.0, 12.0], "peak_mib": 96.0}
    blank = {"metrics": {}, "digests": {}, "tier1": {}}
    lines = record.compare(blank, {**blank, "scale": scale})[0]
    start = lines.index("scale: m = 16, seed 21; median ms [range] and tracemalloc peak MiB, "
                        "A -> B")
    assert lines[start + 1].split() == ["2^18", "prepare_match_state", "n/a", "->",
                                        "1.5", "ms", "[0.75-1.875]", "6", "MiB"]
    assert lines[start + 10].split()[:2] == ["2^24", "prepare_match_state"]
    assert lines[start + 10].endswith("-> 96 ms [48-120] 384 MiB")
    # a record made before the median has one time and no samples
    single = {name: {"ms": 3.0, "peak_mib": 6.0} for name in record.SCALE_STAGES}
    old = {**blank, "scale": {**scale, "sizes": {"18": single}}}
    lines = record.compare(old, blank)[0]
    assert lines[start + 1].split() == ["2^18", "prepare_match_state", "3", "ms", "6", "MiB",
                                        "->", "n/a"]
    assert "scale: n/a -> n/a" in record.compare(blank, blank)[0]


def test_scale_script_runs_against_this_tree(monkeypatch):
    monkeypatch.setattr(record, "SCALE_BITS", (10,))
    scale = record.run_scale(record.REPO)
    stages = scale["sizes"]["10"]
    assert stages["found"] is True
    for name in record.SCALE_STAGES:
        samples = stages[name]["ms_samples"]
        assert len(samples) == record.SCALE_CALLS and min(samples) > 0
        assert stages[name]["ms"] == sorted(samples)[2] and stages[name]["peak_mib"] > 0


def _perfbench_stdout(workload, op_ms, digest):
    return "\n".join([
        f"== {workload}",
        f"  op_ms_p50                                              {op_ms} ms           median",
        f"  result digest sha256:{digest}",
        json.dumps({"correct": True, "metrics": {f"{workload}.op_ms_p50": {"value": op_ms,
                                                                           "unit": "ms"}}}),
    ])


@pytest.mark.parametrize("change_digest, code", [("a" * 64, 0), ("b" * 64, 1)])
def test_pairs_alternate_the_trees_and_report_the_gain(monkeypatch, tmp_path, capsys,
                                                       change_digest, code):
    parent = tmp_path / "parent"
    parent_ms = iter([10.0, 11.0, 12.0, 10.5])
    change_ms = iter([8.0, 11.5, 9.0, 9.5])
    calls = []

    def fake_run(cmd, cwd=None, capture_output=None, text=None):
        if cmd[0] == "git":  # the source check: a tree git cannot read
            return subprocess.CompletedProcess(cmd, 128, stdout="", stderr="")
        calls.append((cmd, cwd))
        ms, digest = (next(parent_ms), "a" * 64) if cwd == parent else (next(change_ms),
                                                                         change_digest)
        return subprocess.CompletedProcess(cmd, 0, stdout=_perfbench_stdout("compare_grover",
                                                                          ms, digest), stderr="")

    monkeypatch.setattr(record.subprocess, "run", fake_run)
    argv = ["--pairs", "4", "--workload", "compare_grover", "--seed", "11", "--root", str(parent)]
    assert record.main(argv) == code
    assert [cwd for _, cwd in calls] == [parent, record.REPO, record.REPO, parent] * 2
    assert all(cmd[1:] == ["perfbench/run.py", "--workload", "compare_grover", "--seed", "11",
                           "--seconds", str(record.SECONDS), "--trace", "0"] for cmd, _ in calls)
    lines = capsys.readouterr().out.splitlines()
    pairs = [line.split() for line in lines if line.startswith("     ")]
    assert pairs == [["1", "parent", "10", "8", "-20.0%"], ["2", "change", "11", "11.5", "+4.5%"],
                     ["3", "parent", "12", "9", "-25.0%"], ["4", "change", "10.5", "9.5", "-9.5%"]]
    # quartiles as statistics.quantiles(n=4) takes them
    assert "parent: median 10.75 ms, quartiles 10.12 .. 11.75 ms" in lines
    assert "change: median 9.25 ms, quartiles 8.25 .. 11 ms" in lines
    assert "change better in 3 of 4 pairs" in lines
    assert "medians differ by -1.5 ms; parent quartile spread 1.625 ms: within it" in lines
    assert "ops_per_s: not printed by every run" in lines
    changed = [line for line in lines if line.startswith("!!! DIGEST CHANGED")]
    assert len(changed) == code and ("result digests: all equal" in lines) == (not code)


def test_pairs_need_a_workload(capsys):
    with pytest.raises(SystemExit):
        record.main(["--pairs", "3"])
    assert "--pairs needs N >= 1 and --workload" in capsys.readouterr().err


def test_pairs_report_every_end_to_end_metric_by_its_direction(monkeypatch, tmp_path):
    parent = tmp_path / "parent"
    names = [metric["name"] for metric in record.end_to_end_metrics()]
    assert names == ["op_ms_p50", "ops_per_s", "setup_s", "peak_rss_mib", "verified_frac"]
    # per side, one value per run of each metric: the change is lower in
    # op_ms_p50 and setup_s in every pair, higher in ops_per_s in three,
    # equal in peak_rss_mib and verified_frac
    values = {
        parent: {"op_ms_p50": [10.0, 11.0, 12.0, 10.5], "ops_per_s": [100.0, 90.0, 80.0, 95.0],
                 "setup_s": [2.0, 2.0, 2.0, 2.0], "peak_rss_mib": [60.0] * 4,
                 "verified_frac": [1.0] * 4},
        record.REPO: {"op_ms_p50": [9.0, 10.0, 11.0, 9.5], "ops_per_s": [110.0, 90.0, 85.0, 99.0],
                      "setup_s": [1.5, 1.6, 1.7, 1.8], "peak_rss_mib": [60.0] * 4,
                      "verified_frac": [1.0] * 4},
    }
    runs = {parent: 0, record.REPO: 0}

    def fake_run_perfbench(root, seed, trace, workload):
        assert (seed, trace, workload) == (11, 0, "match_long")
        k = runs[root]
        runs[root] += 1
        metrics = {f"match_long.{name}": {"value": v[k], "unit": "x"}
                   for name, v in values[root].items()}
        return {"seed": seed, "metrics": metrics, "digests": {"match_long": "a" * 64}}

    monkeypatch.setattr(record, "run_perfbench", fake_run_perfbench)
    lines, changed, _ = record.run_pairs(parent, "match_long", 11, 4)
    assert not changed and lines[-1] == "result digests: all equal"
    assert runs == {parent: 4, record.REPO: 4}
    reports = {line.split(" (")[0]: i for i, line in enumerate(lines) if " is better)" in line}
    assert list(reports) == names

    def report(name):
        return lines[reports[name]:reports[name] + 5]

    assert report("op_ms_p50")[0] == "op_ms_p50 (ms, lower is better)"
    assert report("op_ms_p50")[3] == "change better in 4 of 4 pairs"
    assert report("ops_per_s") == [
        "ops_per_s (1/s, higher is better)",
        "parent: median 92.5 1/s, quartiles 82.5 .. 98.75 1/s",
        "change: median 94.5 1/s, quartiles 86.25 .. 107.2 1/s",
        "change better in 3 of 4 pairs",  # the tie at 90 counts for neither
        "medians differ by +2 1/s; parent quartile spread 16.25 1/s: within it",
    ]
    assert report("setup_s")[3:] == [
        "change better in 4 of 4 pairs",
        "medians differ by -0.35 s; parent quartile spread 0 s: beyond it",
    ]
    assert report("peak_rss_mib")[3] == "change better in 0 of 4 pairs"
    assert report("verified_frac")[4] == (
        "medians differ by +0 ratio; parent quartile spread 0 ratio: within it")


def test_pairs_end_each_metric_with_a_verdict(monkeypatch, tmp_path):
    parent = tmp_path / "parent"
    base = [10.0, 10.2, 10.4, 10.6, 10.8, 11.0, 11.2, 11.4, 11.6, 11.8]
    values = {
        parent: {"op_ms_p50": base, "setup_s": [v / 10 for v in base],
                 "peak_rss_mib": [60.0 + k for k in range(10)], "ops_per_s": [100.0] * 10,
                 "verified_frac": [1.0] * 10},
        # op_ms_p50: 9 of 10 won, beyond the spread; setup_s: 8 of 10, beyond
        # it; peak_rss_mib: 10 of 10 within it; ops_per_s 30 % worse (bound
        # 25 %); verified_frac 15 % worse (bound 20 %)
        record.REPO: {"op_ms_p50": [8.0] * 9 + [12.0], "setup_s": [0.8] * 8 + [2.0] * 2,
                      "peak_rss_mib": [59.5 + k for k in range(10)], "ops_per_s": [70.0] * 10,
                      "verified_frac": [0.85] * 10},
    }
    runs = {parent: 0, record.REPO: 0}

    def fake_run_perfbench(root, seed, trace, workload):
        k = runs[root]
        runs[root] += 1
        metrics = {f"compare_grover.{name}": {"value": v[k], "unit": "x"}
                   for name, v in values[root].items()}
        return {"seed": seed, "metrics": metrics, "digests": {"compare_grover": "a" * 64}}

    monkeypatch.setattr(record, "run_perfbench", fake_run_perfbench)
    lines = record.run_pairs(parent, "compare_grover", 11, 10)[0]
    verdicts = {lines[i].split(" (")[0]: lines[i + 5] for i, line in enumerate(lines)
                if " is better)" in line}
    assert verdicts == {
        "op_ms_p50": "verdict: gain shown",
        "ops_per_s": "verdict: worse beyond bound",
        "setup_s": "verdict: no gain shown",
        "peak_rss_mib": "verdict: no gain shown",
        "verified_frac": "verdict: no gain shown",
    }
    assert lines[lines.index("op_ms_p50 (ms, lower is better)") + 3] == (
        "change better in 9 of 10 pairs")
    assert lines[lines.index("peak_rss_mib (MiB, lower is better)") + 3] == (
        "change better in 10 of 10 pairs")


def _git_tree(path):
    """A git repository at `path` with one committed module, and its revision."""
    module_dir = path / "src" / "qstrings"
    module_dir.mkdir(parents=True)
    (module_dir / "sim.py").write_text("a = 1\n")
    (module_dir / "__init__.py").write_text("")
    (path / "src" / "notes.txt").write_text("not a module\n")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "one module"]):
        subprocess.run(git + args, cwd=path, check=True, capture_output=True)
    return record._git(path, "rev-parse", "HEAD")


def test_pairs_out_writes_every_pair_and_both_trees(monkeypatch, tmp_path, capsys):
    parent = tmp_path / "parent"
    parent.mkdir()
    revision = _git_tree(parent)
    ms = {parent: iter([10.0, 11.0, 12.0]), record.REPO: iter([9.0, 11.5, 10.0])}

    def fake_run_perfbench(root, seed, trace, workload):
        value = next(ms[root])
        metrics = {"match_sweep.op_ms_p50": {"value": value, "unit": "ms"},
                   "match_sweep.verified_frac": {"value": 1.0, "unit": "ratio"}}
        return {"seed": seed, "metrics": metrics, "digests": {"match_sweep": "a" * 64}}

    monkeypatch.setattr(record, "run_perfbench", fake_run_perfbench)
    out = tmp_path / "pairs.json"
    argv = ["--pairs", "3", "--workload", "match_sweep", "--seed", "11", "--root", str(parent),
            "--out", str(out)]
    assert record.main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    pairs = json.loads(out.read_text())
    assert (pairs["workload"], pairs["seed"], pairs["seconds"]) == ("match_sweep", 11,
                                                                     record.SECONDS)
    assert pairs["digests"] == {"parent": ["a" * 64], "change": ["a" * 64]}
    assert pairs["trees"]["parent"] == {"git_revision": revision,
                                        "src_sha256": record.source_digest(parent)}
    assert pairs["trees"]["change"]["git_revision"] == record._git(record.REPO, "rev-parse",
                                                                    "HEAD")
    assert pairs["trees"]["change"]["src_sha256"] == record.source_digest(record.REPO)
    assert [(p["first"], p["parent"]["match_sweep.op_ms_p50"]["value"],
             p["change"]["match_sweep.op_ms_p50"]["value"]) for p in pairs["pairs"]] == [
        ("parent", 10.0, 9.0), ("change", 11.0, 11.5), ("parent", 12.0, 10.0)]
    assert pairs["pairs"][0]["change"]["match_sweep.verified_frac"] == {"value": 1.0,
                                                                        "unit": "ratio"}
    op_ms = pairs["metrics"][0]
    assert (op_ms["name"], op_ms["better"], op_ms["won"], op_ms["pairs"]) == (
        "op_ms_p50", "lower", 2, 3)
    assert op_ms["parent"] == {"median": 11.0, "q1": 10.0, "q3": 12.0}
    assert op_ms["change"]["median"] == 10.0 and op_ms["verdict"] == "no gain shown"
    # the file holds what the report printed, one metric for each report
    assert [m["name"] for m in pairs["metrics"]] == ["op_ms_p50", "verified_frac"]
    assert f"verdict: {op_ms['verdict']}" in printed
    assert pairs["digests_equal"] is True and printed[-1] == "result digests: all equal"


def test_compare_flags_a_record_of_uncommitted_sources(monkeypatch, tmp_path, capsys,
                                                        no_perfbench):
    revision = _git_tree(tmp_path)
    monkeypatch.setattr(record, "REPO", tmp_path)
    committed = record.source_digest(tmp_path)
    assert record.committed_source_digest(tmp_path, revision) == committed
    (tmp_path / "src" / "qstrings" / "sim.py").write_text("a = 2\n")  # edited, not committed
    edited = record.source_digest(tmp_path)
    paths = []
    for label, rev, digest in (("8", revision, committed), ("9", revision, edited)):
        path = tmp_path / f"BENCH_{label}.json"
        path.write_text(json.dumps({**_record(label, 20.0, "a" * 64), "git_revision": rev,
                                    "src_sha256": digest}))
        paths.append(str(path))
    assert record.main(["--compare", *paths]) == 0  # a report line, not a gate
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("!!!")] == [
        f"!!! SOURCES DIFFER: B measured src sha256 {edited}, but src/ at {revision} "
        f"has {committed}"]
    assert not any(line.startswith("A: sources not checked") for line in out)
    lines = record.compare(_record("7", 20.0, "a" * 64), {**_record("8", 20.0, "a" * 64),
                                                          "git_revision": "f" * 40,
                                                          "src_sha256": committed})[0]
    assert lines[2:4] == ["A: sources not checked: no git revision or src sha256",
                          f"B: sources not checked: git cannot read src/ at {'f' * 40}"]


def test_record_and_pairs_flag_uncommitted_sources(monkeypatch, tmp_path, capsys):
    parent, change, plain = tmp_path / "parent", tmp_path / "change", tmp_path / "plain"
    for tree in (parent, change):
        tree.mkdir()
    revision = _git_tree(parent)
    _git_tree(change)
    (change / "BENCHMARK.json").write_text((record.REPO / "BENCHMARK.json").read_text())
    (plain / "src").mkdir(parents=True)
    (plain / "src" / "sim.py").write_text("a = 1\n")

    def fake_run_perfbench(root, seed, trace, workload="all"):
        metrics = {"match_sweep.op_ms_p50": {"value": 10.0, "unit": "ms"}}
        return {"seed": seed, "metrics": metrics, "digests": {"match_sweep": "a" * 64}}

    monkeypatch.setattr(record, "run_perfbench", fake_run_perfbench)
    monkeypatch.setattr(record, "run_scale", lambda root: {})
    monkeypatch.setattr(record, "run_tier1", lambda root: {})
    monkeypatch.setattr(record, "REPO", change)
    pairs = ["--pairs", "2", "--workload", "match_sweep", "--root", str(parent)]

    def flagged():
        return [line for line in capsys.readouterr().err.splitlines() if line.startswith("!!!")]

    assert record.main(pairs) == 0 and flagged() == []
    record.record(parent, "9")
    assert flagged() == []
    committed = record.source_digest(parent)
    (parent / "src" / "qstrings" / "sim.py").write_text("a = 2\n")  # edited, not committed
    want = [f"!!! SOURCES DIFFER: {parent} measures src sha256 {record.source_digest(parent)}, "
            f"but src/ at {revision} has {committed}"]
    record.record(parent, "9")
    assert flagged() == want
    assert record.main(pairs) == 0  # a report line, not a gate
    assert flagged() == want  # one line, for the tree that differs
    record.record(plain, "9")
    assert flagged() == [f"!!! SOURCES DIFFER: {plain} measures src sha256 "
                         f"{record.source_digest(plain)}, but git cannot read src/ at HEAD"]


def test_compare_reports_a_pairs_file_and_checks_its_trees(monkeypatch, tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for tree in (parent, change):
        tree.mkdir()
    revision = _git_tree(parent)
    change_revision = _git_tree(change)
    committed = record.source_digest(change)
    (change / "src" / "qstrings" / "sim.py").write_text("a = 2\n")  # edited, not committed
    (change / "BENCHMARK.json").write_text((record.REPO / "BENCHMARK.json").read_text())
    ms = {parent: iter([10.0, 12.0]), change: iter([9.0, 11.0])}

    def fake_run_perfbench(root, seed, trace, workload):
        metrics = {"match_sweep.op_ms_p50": {"value": next(ms[root]), "unit": "ms"}}
        return {"seed": seed, "metrics": metrics, "digests": {"match_sweep": "a" * 64}}

    monkeypatch.setattr(record, "run_perfbench", fake_run_perfbench)
    monkeypatch.setattr(record, "REPO", change)
    out = tmp_path / "pairs.json"
    assert record.main(["--pairs", "2", "--workload", "match_sweep", "--seed", "11",
                        "--root", str(parent), "--out", str(out)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(record, "run_perfbench", None)  # --compare runs nothing
    plain = tmp_path / "BENCH_9.json"
    plain.write_text(json.dumps(_record("9", 20.0, "a" * 64)))
    assert record.main(["--compare", str(plain), str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "A: record 9, not a pairs file: not compared"
    assert lines[1] == "B: pairs of match_sweep at seed 11, 2 pairs of 20 s"
    assert [line for line in lines if "verdict:" in line] == [
        "  op_ms_p50      median 11 -> 10 ms, change better in 2 of 2 pairs; "
        "verdict: no gain shown"]
    edited = record.source_digest(change)
    assert [line for line in lines if line.startswith("!!!")] == [
        f"!!! SOURCES DIFFER: B change measured src sha256 {edited}, "
        f"but src/ at {change_revision} has {committed}"]
    assert f"B parent: {revision} src sha256 {record.source_digest(parent)}" in lines
    assert lines[-1] == "result digests: all equal"
    # a pairs file whose sides' digests differed exits 1
    pairs = json.loads(out.read_text())
    out.write_text(json.dumps({**pairs, "digests_equal": False,
                               "digests": {"parent": ["a" * 64], "change": ["b" * 64]}}))
    assert record.main(["--compare", str(out), str(out)]) == 1
    changed = [line for line in capsys.readouterr().out.splitlines() if "DIGEST" in line]
    assert changed == [f"!!! DIGEST CHANGED: match_sweep at seed 11: "
                       f"{['a' * 64]} -> {['b' * 64]}"] * 2
