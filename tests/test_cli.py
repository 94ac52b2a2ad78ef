import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qstrings
from qstrings import crosscheck as crosscheck_mod, qcompare, qmatch
from qstrings.cli import TRIALS_CAP, main
from qstrings.crosscheck import run_crosscheck
from qstrings.sim import DenseSearchState, StructuredState
from qstrings.strings_core import BitString, MatchInstance


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_primes_row(capsys):
    code, out, _ = run_cli(
        ["primes", "--delta", "4", "--max-len", "3", "--epsilon", "0.5", "--seed", "42"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "r,p,epsilon,delta,max_len"
    r, p, eps, delta, max_len = lines[2].split(",")
    assert (r, eps, delta, max_len) == ("24", "0.5", "4", "3")


def _run_python(*args):
    """A fresh interpreter that imports this qstrings first."""
    src = str(Path(qstrings.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def test_module_entry_point_matches_main(capsys):
    args = ["primes", "--delta", "29", "--max-len", "4", "--epsilon", "0.1", "--seed", "42"]
    assert main(args) == 0
    expected = capsys.readouterr().out
    proc = _run_python("-m", "qstrings", *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


def test_match_found_and_exit_codes(capsys):
    code, out, _ = run_cli(
        ["match", "--text", "010101", "--pattern", "010", "--seed", "5", "--trials", "10"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# qstrings match")
    assert lines[1].startswith("trial,seed,result_d")
    assert len(lines) == 12
    hits = [line for line in lines[2:] if line.split(",")[4] == "1"]
    assert hits and all(line.split(",")[2] in ("1", "3") for line in hits)


def test_match_absent_pattern_exit_code(capsys):
    code, _, _ = run_cli(
        ["match", "--text", "0000", "--pattern", "11", "--seed", "1", "--trials", "2"],
        capsys,
    )
    assert code == 1


def test_match_byte_identical_reruns(tmp_path):
    out = tmp_path / "a.csv"
    args = ["match", "--text", "01100101", "--pattern", "01", "--seed", "9",
            "--trials", "5", "--csv", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first


def test_match_jobs_parallel_identical(tmp_path, capsys):
    args = ["match", "--text", "0110010110", "--pattern", "011", "--seed", "3",
            "--trials", "6"]
    assert main(args) == 0
    serial = capsys.readouterr().out
    assert main(args + ["--jobs", "2"]) == 0
    parallel = capsys.readouterr().out
    # data rows identical; the comment line differs only by the --jobs flag
    assert serial.splitlines()[1:] == parallel.splitlines()[1:]


def test_match_dense_width_guard(capsys):
    code, _, err = run_cli(
        ["match", "--text", "0" * 2000 + "1" * 8, "--pattern", "1" * 8,
         "--seed", "1", "--mode", "dense"],
        capsys,
    )
    _assert_usage_error(code, err)
    assert "qubits" in err and "24" in err


def test_match_dense_width_guard_boundary(capsys):
    # 65 windows: a 7-bit index, a 17-bit nominal hash and the phase flag.
    # One bit less of text needs exactly the 24-qubit cap; it is not run,
    # since it would allocate 2^24 amplitudes.
    code, _, err = run_cli(
        ["match", "--text", "0" * 80, "--pattern", "1" * 16,
         "--seed", "1", "--mode", "dense"],
        capsys,
    )
    _assert_usage_error(code, err)
    assert "would need 25 qubits" in err


def test_match_structured_size_guard(capsys):
    big = "01" * 40000
    code, _, err = run_cli(
        ["match", "--text", big, "--pattern", "01", "--seed", "1"], capsys
    )
    _assert_usage_error(code, err)
    assert "cap" in err


def test_match_dense_dump_state(tmp_path, capsys):
    dump = tmp_path / "state.csv"
    # eight trials, so exit 0 does not rest on one draw of a search that
    # fails with probability 1/4
    code, _, _ = run_cli(
        ["match", "--text", "0101", "--pattern", "01", "--seed", "2", "--trials", "8",
         "--mode", "dense", "--dump-state", str(dump)],
        capsys,
    )
    assert code == 0
    rows = [line.split(",") for line in dump.read_text().splitlines()]
    assert all(len(row) == 3 for row in rows)
    parsed = [(int(i), float(re), float(im)) for i, re, im in rows]
    # the dumped state is trial 0's: index, window-hash and flag registers
    inst = MatchInstance(BitString.from_text("0101"), BitString.from_text("01"))
    params = qmatch.match_params(inst, 0.1, np.random.default_rng((2, 0)))
    assert len(parsed) == 2 ** (2 + params.width + 1)
    assert [i for i, _, _ in parsed] == list(range(len(parsed)))
    assert abs(sum(re * re + im * im for _, re, im in parsed) - 1.0) < 1e-9


def test_match_dump_state_needs_dense_mode(tmp_path, capsys):
    # the structured backend has no statevector to dump: refuse the flag
    # instead of running without writing the file
    dump = tmp_path / "d.txt"
    code, out, err = run_cli(
        ["match", "--text", "0110010110", "--pattern", "011", "--seed", "1",
         "--dump-state", str(dump)],
        capsys,
    )
    _assert_usage_error(code, err)
    assert "--dump-state" in err and "dense" in err
    assert out == "" and not dump.exists()


def test_match_ascii_and_file_input(tmp_path, capsys):
    path = tmp_path / "text.txt"
    path.write_text("AB")
    code, out, _ = run_cli(
        ["match", "--text", f"@{path}", "--pattern", "A", "--ascii", "--seed", "4"],
        capsys,
    )
    assert code == 0
    assert out.strip().splitlines()[2].split(",")[2] == "1"


@pytest.mark.parametrize("command, flag, other", [
    (["match"], "--text", ["--pattern", "A"]),
    (["compare", "--algo", "grover"], "--u", ["--v", "A"]),
])
def test_non_ascii_input_names_its_flag(tmp_path, capsys, command, flag, other):
    path = tmp_path / "input.txt"
    path.write_bytes(b"A\xffB")
    for value in ("caf\u00e9", f"@{path}"):  # a non-ASCII --ascii text, a non-ASCII file
        code, out, err = run_cli(
            [*command, flag, value, *other, "--ascii", "--seed", "1"], capsys
        )
        _assert_usage_error(code, err)
        assert err.strip() == f"error: {flag} must be ASCII" and out == ""


@pytest.mark.parametrize("flag, argv", [
    ("--text", ["match", "--text", "012", "--pattern", "1"]),
    ("--pattern", ["match", "--text", "0110", "--pattern", "1x"]),
    ("--u", ["compare", "--algo", "grover", "--u", "2", "--v", "01"]),
    ("--v", ["compare", "--algo", "bsearch", "--u", "01", "--v", "2"]),
])
def test_non_bit_input_names_its_flag(capsys, flag, argv):
    code, out, err = run_cli([*argv, "--seed", "1"], capsys)
    _assert_usage_error(code, err)
    bad = argv[argv.index(flag) + 1]
    assert err.strip() == f"error: {flag} must be a bit string, got {bad!r}" and out == ""


def test_import_loads_neither_sympy_nor_mpmath():
    # numpy is the only runtime dependency; sympy and mpmath are test references
    code = "import sys, qstrings.cli; print(sorted({'sympy', 'mpmath'} & set(sys.modules)))"
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_usage_errors(capsys):
    assert run_cli(["match", "--text", "01"], capsys)[0] == 2  # missing flags
    assert run_cli(["match", "--text", "01", "--pattern", "0", "--seed", "1",
                    "--mode", "sparse"], capsys)[0] == 2
    assert run_cli(["compare", "--u", "01", "--v", "01", "--algo", "grover"],
                   capsys)[0] == 2  # seed is mandatory
    assert run_cli(["nonsense"], capsys)[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--u", "01", "--v", "10"],  # --algo and --seed missing
        ["match", "--text", "01", "--pattern", "0", "--seed", "x"],
        ["sweep", "--algo", "foo", "--grid", "16", "--seed", "1"],
        ["primes", "--delta", "4", "--max-len", "3", "--seed", "1", "--bogus"],
        ["nonsense"],
        [],
    ],
)
def test_argument_errors_are_one_line(capsys, argv):
    code, out, err = run_cli(argv, capsys)
    _assert_usage_error(code, err)
    assert "usage:" not in err and out == ""


def test_help_still_prints_usage(capsys):
    code, out, err = run_cli(["compare", "--help"], capsys)
    assert code == 0 and out.startswith("usage: qstrings compare") and err == ""


@pytest.mark.parametrize(
    "epsilon, count", [("1e-300", "~1.2e+301"), ("1e-320", "over ~1.8e+308")]
)
def test_huge_universe_reported_in_short_form(capsys, epsilon, count):
    code, out, err = run_cli(
        ["primes", "--delta", "4", "--max-len", "3", "--epsilon", epsilon, "--seed", "1"],
        capsys,
    )
    _assert_usage_error(code, err)
    assert err == f"error: universe of {count} primes exceeds cap 17179869184\n"


def test_compare_csv(capsys):
    code, out, _ = run_cli(
        ["compare", "--u", "0110", "--v", "0100", "--algo", "bsearch",
         "--seed", "2", "--trials", "4"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "trial,seed,verdict,expected,a0,phases,qubits,gate_units"
    for line in lines[2:]:
        fields = line.split(",")
        assert fields[3] == "1"  # classical expectation echoed


def test_compare_grover_cli(capsys):
    code, out, _ = run_cli(
        ["compare", "--u", "101", "--v", "111", "--algo", "grover",
         "--seed", "7", "--trials", "3"],
        capsys,
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 5


@pytest.mark.parametrize("u, v, verdict", [("", "01", -1), ("10", "", 1), ("", "", 0)])
def test_compare_empty_string_gives_the_length_verdict_with_either_algo(capsys, u, v, verdict):
    rows = []
    for algo in ("grover", "bsearch"):
        code, out, err = run_cli(
            ["compare", "--u", u, "--v", v, "--algo", algo, "--seed", "1", "--trials", "2"],
            capsys,
        )
        assert code == 0 and err == ""
        rows.append(out.strip().splitlines()[2:])
    assert rows[0] == rows[1] == [f"{t},1,{verdict},{verdict},,0,0,0" for t in range(2)]


def test_min_find_csv(capsys):
    code, out, _ = run_cli(
        ["min-find", "--values", "3,1,2", "--seed", "9", "--trials", "5"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "trial,found_index,phases,iterations"
    found = [line.split(",")[1] for line in lines[2:]]
    assert found.count("1") >= 3  # argmin found most of the time


def test_sweep_cli(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--algo", "match", "--grid", "16,32", "--m", "4",
         "--seed", "1", "--trials", "2", "--csv", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("# qstrings")
    assert lines[1].startswith("algo,n,m,k,")
    assert len(lines) == 4


def test_crosscheck_cli(capsys):
    code, out, _ = run_cli(["crosscheck", "--seed", "1"], capsys)
    assert code == 0
    assert "battery of 22 instances" in out
    assert "FAIL" not in out


def test_crosscheck_fault_injection(monkeypatch):
    diffuse = StructuredState.diffuse

    def nudged_diffuse(self):
        diffuse(self)
        # only compare_grover k4 searches a domain of 4 with registers u and v
        if self.domain_size == 4 and set(self.layout.widths) == {"idx", "u", "v"}:
            # nudge the amplitude shared by every never-marked index, then
            # renormalize every stored amplitude: base, group and exceptions
            self._base += 1e-6
            norm = np.sqrt(np.sum(self.amps**2))
            self._base /= norm
            self._group_amp /= norm
            self._values = self._values / norm  # the empty one is shared read-only
            self.check_norm()
        return self

    monkeypatch.setattr(StructuredState, "diffuse", nudged_diffuse)
    report = run_crosscheck(1)
    assert not report.passed
    bad = [r for r in report.instances if not r.passed]
    assert bad and "basis index" in bad[0].detail


def test_crosscheck_ledger_check_covers_inner_iterations(monkeypatch):
    charge_iterations = crosscheck_mod.charge_iterations

    def drop_inner_on_structured(ledger, search, oracle, iterations, rho):
        charge_iterations(ledger, search, oracle, iterations, rho)
        if isinstance(search, StructuredState):
            ledger.inner_grover_iterations = 0

    monkeypatch.setattr(crosscheck_mod, "charge_iterations", drop_inner_on_structured)
    report = run_crosscheck(1)
    bad = {r.name for r in report.instances if not r.passed}
    # only the match oracles run inner Grover iterations
    assert bad == {r.name for r in report.instances if r.name.startswith("match_")}
    assert all(r.detail == "ledger mismatch between backends"
               for r in report.instances if not r.passed)


def test_crosscheck_reports_deviation_per_instance():
    report = run_crosscheck(2)
    assert len(report.instances) == 22
    assert all(r.max_deviation < 1e-9 for r in report.instances)


def _assert_usage_error(code, err):
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in err


# one valid invocation of each subcommand that reads --trials
_TRIALS_COMMANDS = [
    ["match", "--text", "0101", "--pattern", "01"],
    ["compare", "--u", "01", "--v", "00", "--algo", "grover"],
    ["min-find", "--values", "3,1,2"],
    ["sweep", "--algo", "match", "--grid", "16", "--m", "4"],
]


@pytest.mark.parametrize("trials", ["0", "-1"])
@pytest.mark.parametrize("command", _TRIALS_COMMANDS)
def test_nonpositive_trials_rejected(capsys, command, trials):
    code, out, err = run_cli(command + ["--seed", "1", "--trials", trials], capsys)
    _assert_usage_error(code, err)
    assert "--trials" in err and out == ""


def test_zero_jobs_rejected(capsys):
    code, out, err = run_cli(
        ["match", "--text", "0101", "--pattern", "01", "--seed", "1", "--jobs", "0"], capsys
    )
    _assert_usage_error(code, err)
    assert "--jobs" in err and out == ""


@pytest.mark.parametrize("epsilon", ["1.5", "0", "-0.1", "nan"])
def test_epsilon_out_of_range_rejected(capsys, epsilon):
    code, out, err = run_cli(
        ["compare", "--u", "01", "--v", "00", "--algo", "grover", "--seed", "1",
         "--epsilon", epsilon],
        capsys,
    )
    _assert_usage_error(code, err)
    assert "--epsilon" in err and out == ""


@pytest.mark.parametrize(
    "command, flag",
    [
        (["min-find", "--values", "3,,1"], "--values"),
        (["min-find", "--values", ""], "--values"),
        (["min-find", "--values", "3,1,"], "--values"),
        (["sweep", "--algo", "match", "--grid", "64,abc"], "--grid"),
    ],
)
def test_malformed_integer_list_rejected(capsys, command, flag):
    code, out, err = run_cli(command + ["--seed", "1"], capsys)
    _assert_usage_error(code, err)
    assert flag in err and "invalid literal" not in err and out == ""


@pytest.mark.parametrize(
    "command",
    [
        ["match", "--text", "0101", "--pattern", "01"],
        ["compare", "--u", "01", "--v", "00", "--algo", "grover"],
        ["min-find", "--values", "3,1,2"],
        ["sweep", "--algo", "match", "--grid", "16", "--m", "4"],
        ["crosscheck"],
        ["primes", "--delta", "4", "--max-len", "3"],
    ],
)
def test_negative_seed_rejected(capsys, command):
    code, out, err = run_cli(command + ["--seed", "-1"], capsys)
    _assert_usage_error(code, err)
    assert err == "error: --seed must be non-negative\n" and out == ""


@pytest.mark.parametrize("grid", ["65537", "16,99999999999999999999999"])
def test_sweep_grid_above_cap_rejected(capsys, grid):
    code, out, err = run_cli(
        ["sweep", "--algo", "match", "--grid", grid, "--m", "4", "--seed", "1"], capsys
    )
    _assert_usage_error(code, err)
    assert "65536" in err and "dimension" not in err and out == ""


@pytest.mark.parametrize(
    "values, code", [("1,99999999999999999999999", 2), ("1,-9223372036854775809", 2),
                     ("9223372036854775807,-9223372036854775808", 0)]
)
def test_min_find_values_must_fit_int64(capsys, values, code):
    got, out, err = run_cli(["min-find", f"--values={values}", "--seed", "1", "--trials", "2"],
                            capsys)
    if code == 2:
        _assert_usage_error(got, err)
        assert err == "error: --values must fit in int64\n" and out == ""
    else:
        assert got == 0 and err == "" and len(out.splitlines()) == 4


@pytest.mark.parametrize("flag", ["--epsilon=0.1", "--jobs=2"])
def test_min_find_rejects_flags_it_does_not_read(capsys, flag):
    code, out, err = run_cli(["min-find", "--values", "3,1,2", "--seed", "1", flag], capsys)
    _assert_usage_error(code, err)
    assert flag.split("=")[0] in err and out == ""


@pytest.mark.parametrize("algo", ["compare-grover", "compare-bsearch"])
def test_sweep_m_only_for_match(capsys, algo):
    code, out, err = run_cli(
        ["sweep", "--algo", algo, "--grid", "4", "--m", "7", "--seed", "1"], capsys
    )
    _assert_usage_error(code, err)
    assert err == f"error: --m applies only to --algo match, not {algo}\n" and out == ""


@pytest.mark.parametrize("epsilon", ["0.1", "0.5"])
def test_compare_grover_rejects_epsilon(capsys, epsilon):
    code, out, err = run_cli(
        ["compare", "--u", "0110", "--v", "0100", "--algo", "grover", "--seed", "3",
         "--epsilon", epsilon], capsys
    )
    _assert_usage_error(code, err)
    assert err == "error: --epsilon applies only to algos that draw a prime, not grover\n"
    assert out == ""


def test_sweep_compare_grover_rejects_epsilon(capsys):
    code, out, err = run_cli(
        ["sweep", "--algo", "compare-grover", "--grid", "8", "--trials", "2", "--seed", "1",
         "--epsilon", "0.1"], capsys
    )
    _assert_usage_error(code, err)
    assert err == (
        "error: --epsilon applies only to algos that draw a prime, not compare-grover\n"
    ) and out == ""


def test_sweep_match_m_defaults_to_8(capsys):
    code, out, _ = run_cli(
        ["sweep", "--algo", "match", "--grid", "16", "--seed", "1", "--trials", "1"], capsys
    )
    assert code == 0 and out.splitlines()[2].startswith("match,16,8,")


@pytest.mark.parametrize("command", _TRIALS_COMMANDS)
@pytest.mark.parametrize("trials", [str(TRIALS_CAP + 1), "9" * 23])
def test_trials_above_cap_rejected(capsys, command, trials):
    code, out, err = run_cli(command + ["--seed", "1", "--trials", trials], capsys)
    _assert_usage_error(code, err)
    assert err == f"error: --trials must be at most {TRIALS_CAP}\n" and out == ""


# Adversarial flag values: empty, negative, zero, not a number, an
# overflowing float and integer, non-bits and a file that does not exist.
_ADVERSARIAL = ["", "-1", "0", "nan", "1e400", "9" * 23, "0120", "@/nonexistent"]
_SMALL = [t for t in _ADVERSARIAL if t != "9" * 23]  # never start 10^23 workers
_EPSILON = {"--epsilon": ["0.1", "0.5"]}
_TRIALS = {"--trials": ["1", "2"]}
_JOBS = {"--jobs": ["1", "2"]}
# subcommand -> every flag it reads -> valid values
_ARGV_SPACE = {
    "match": {
        "--text": ["0110010110"], "--pattern": ["011"], "--mode": ["structured", "dense"],
        **_EPSILON, **_TRIALS, **_JOBS,
    },
    "compare": {
        "--u": ["0110101"], "--v": ["0110111"], "--algo": ["grover", "bsearch"],
        **_EPSILON, **_TRIALS, **_JOBS,
    },
    "min-find": {"--values": ["5,3,8,1"], **_TRIALS},
    "sweep": {
        "--algo": ["match", "compare-grover", "compare-bsearch"], "--grid": ["8,16"],
        "--m": ["4"], "--mode": ["structured", "dense"], **_EPSILON, **_TRIALS, **_JOBS,
    },
    "crosscheck": {},
    "primes": {"--delta": ["4"], "--max-len": ["3"], **_EPSILON},
}


@st.composite
def _argv(draw, command):
    """Valid flags for `command`, with up to two of them given a bad token."""
    space = {**_ARGV_SPACE[command], "--seed": ["1"]}
    bad = draw(st.sets(st.sampled_from(sorted(space)), max_size=2))
    argv = [command]
    for flag, valid in space.items():
        if flag == "--m" and "--algo=match" not in argv:
            continue  # --m applies to match sweeps only
        if flag == "--epsilon" and {"--algo=grover", "--algo=compare-grover"} & set(argv):
            continue  # the grover comparator draws no prime
        tokens = valid if flag not in bad else _SMALL if flag == "--jobs" else _ADVERSARIAL
        argv.append(f"{flag}={draw(st.sampled_from(tokens))}")
    # not for match: an ASCII-expanded dense match can reach the 24-qubit cap
    if command == "compare" and draw(st.booleans()):
        argv.append("--ascii")
    return argv


@pytest.mark.parametrize("command", sorted(_ARGV_SPACE))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_bad_input_fails_in_one_line(command, data):
    argv = data.draw(_argv(command))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2) and "Traceback" not in err, (argv, code, err)
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, err)


def test_sweep_pattern_longer_than_text_rejected(capsys):
    code, out, err = run_cli(
        ["sweep", "--algo", "match", "--grid", "8", "--m", "9", "--seed", "1"], capsys
    )
    _assert_usage_error(code, err)
    assert "m=9" in err and "high" not in err and out == ""


@pytest.mark.parametrize("exc", [RuntimeError("failed to construct an instance")])
def test_runtime_errors_exit_2(capsys, monkeypatch, exc):
    def fail(*_args, **_kwargs):
        raise exc

    monkeypatch.setattr(qmatch, "match_search", fail)
    code, _, err = run_cli(
        ["match", "--text", "0101", "--pattern", "01", "--seed", "1"], capsys
    )
    _assert_usage_error(code, err)
    assert str(exc) in err


@pytest.mark.parametrize("algo", ["compare-grover", "compare-bsearch"])
def test_sweep_mode_reaches_comparators(tmp_path, monkeypatch, algo):
    name = algo.replace("-", "_")
    real = getattr(qcompare, name)
    backends = []

    def spy(*args, backend=StructuredState, **kwargs):
        backends.append(backend)
        return real(*args, backend=backend, **kwargs)

    monkeypatch.setattr(qcompare, name, spy)
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--algo", algo, "--grid", "4", "--mode", "dense", "--seed", "1",
         "--trials", "2", "--csv", str(out)]
    )
    assert code == 0
    assert backends == [DenseSearchState, DenseSearchState]
    assert len(out.read_text().strip().splitlines()) == 3
