import importlib.util
import json
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
