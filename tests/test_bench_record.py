import importlib.util
import json
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
