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
        out = json.dumps({name: {"ms": 1.5 * scale, "peak_mib": 6.0 * scale}
                          for name in record.SCALE_STAGES} | {"found": True})
        return subprocess.CompletedProcess(cmd, 0, stdout=out + "\n", stderr="")

    monkeypatch.setattr(record.subprocess, "run", fake_run)
    scale = record.run_scale(tmp_path)
    assert [cmd[3] for cmd, _, _ in calls] == ["18", "20", "22", "24"]
    assert all(cmd[1] == "-c" and cmd[2] == record.SCALE_SCRIPT and cmd[4:6] == ["16", "21"]
               for cmd, _, _ in calls)
    assert {(cwd, src) for _, cwd, src in calls} == {(tmp_path, str(tmp_path / "src"))}
    assert scale["m"] == 16 and scale["sizes"]["22"]["prepare_match_state"] == {
        "ms": 24.0, "peak_mib": 96.0}
    blank = {"metrics": {}, "digests": {}, "tier1": {}}
    lines = record.compare(blank, {**blank, "scale": scale})[0]
    start = lines.index("scale: m = 16, seed 21; ms and tracemalloc peak MiB, A -> B")
    assert lines[start + 1].split() == ["2^18", "prepare_match_state", "n/a", "->",
                                        "1.5", "ms", "6", "MiB"]
    assert lines[start + 10].split()[:2] == ["2^24", "prepare_match_state"]
    assert lines[start + 10].endswith("-> 96 ms 384 MiB")
    assert "scale: n/a -> n/a" in record.compare(blank, blank)[0]


def test_scale_script_runs_against_this_tree(monkeypatch):
    monkeypatch.setattr(record, "SCALE_BITS", (10,))
    scale = record.run_scale(record.REPO)
    stages = scale["sizes"]["10"]
    assert stages["found"] is True
    assert all(stages[name]["ms"] > 0 and stages[name]["peak_mib"] > 0
               for name in record.SCALE_STAGES)


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
    assert "change faster in 3 of 4 pairs" in lines
    assert "medians differ by -1.5 ms; parent quartile spread 1.625 ms: within it" in lines
    changed = [line for line in lines if line.startswith("!!! DIGEST CHANGED")]
    assert len(changed) == code and ("result digests: all equal" in lines) == (not code)


def test_pairs_need_a_workload(capsys):
    with pytest.raises(SystemExit):
        record.main(["--pairs", "3"])
    assert "--pairs needs N >= 1 and --workload" in capsys.readouterr().err
