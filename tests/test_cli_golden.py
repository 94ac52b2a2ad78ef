"""Golden CLI outputs: stdout bytes and exit code pinned per invocation.

For the same flags and seed the CLI must print byte-identical output.
Each case below pins the sha256 of stdout together with the exit code.
A change that alters the rng stream on purpose updates the digests here
and says so in CHANGES.md; any other mismatch is a regression.
"""

import hashlib

import pytest

from qstrings.cli import main

GOLDEN = [
    (
        "match-structured",
        ["match", "--text", "0110010110", "--pattern", "011", "--seed", "9", "--trials", "5"],
        0,
        "0fb247bdee8ddb91e2036479697d4abb42d25574d799ce6e0e5e38dbc1ebe7bc",
    ),
    (
        "match-dense",
        ["match", "--text", "010110", "--pattern", "10", "--mode", "dense", "--seed", "4",
         "--trials", "3"],
        0,
        "8376368a2985005eeb7d87bf9e0644710639af75e0d26c313ba5f5e94c760d1a",
    ),
    (
        "compare-bsearch",
        ["compare", "--u", "0110101", "--v", "0110111", "--algo", "bsearch", "--seed", "3",
         "--trials", "4"],
        0,
        "6d2903bc85c51e8c7419008df2139fd598f1f08c13fac1f88fc71e02b8b66ab8",
    ),
    (
        "compare-grover",
        ["compare", "--u", "10110100", "--v", "1011", "--algo", "grover", "--seed", "3",
         "--trials", "4"],
        0,
        "d5d0516a78a88f48a152ab949f471c3a6a39817a0b486c53c230fffb78f58b68",
    ),
    (
        "min-find",
        ["min-find", "--values", "5,3,8,1,9,2", "--seed", "2", "--trials", "10"],
        0,
        "e8a3c69f166725cce3d67b94950a9580057ba4ddc85b6337614ae2700866de4d",
    ),
    (
        # negative and tied minima through the int64 key array
        "min-find-negatives",
        ["min-find", "--values=-3,7,-3,0,12,-9,-9,5", "--seed", "6", "--trials", "50"],
        0,
        "c56a75149a9d18eecd72aea0d49ed4bf3d2daa145bf8318834db582d454c8222",
    ),
    (
        # 64-bit strings first differing at position 38, through the rank keys
        "compare-grover-64",
        ["compare", "--u", "1111000011100111101010011100010111110111110101100110000011101110",
         "--v", "1111000011100111101010011100010111110011011100000011110011001001",
         "--algo", "grover", "--seed", "5", "--trials", "8"],
        0,
        "9ca616b95c04efe623b0ee68e073a212b8d8ec39a3b98874e5f0a4cf7d68addb",
    ),
    (
        "sweep-match",
        ["sweep", "--algo", "match", "--grid", "16,32", "--m", "4", "--trials", "2", "--seed", "5"],
        0,
        "1b199d8d1c2be657b1e3f88a8a2b1fac956fda558b51652007fcd77384ff0665",
    ),
    (
        "sweep-compare-grover-dense",
        ["sweep", "--algo", "compare-grover", "--grid", "4,8", "--trials", "2", "--seed", "5",
         "--mode", "dense"],
        0,
        "626b109aeaa0fd6c0cade9b52946c62f752f37e18301030af49866f700548832",
    ),
    (
        "sweep-compare-bsearch",
        ["sweep", "--algo", "compare-bsearch", "--grid", "8,16", "--trials", "2", "--seed", "5"],
        0,
        "3fcb0d5fe425e6bb1ce5e7b9adf3272388f3a6e873df0fa7f36d92c1d4161951",
    ),
    (
        "sweep-compare-bsearch-dense",
        ["sweep", "--algo", "compare-bsearch", "--grid", "8,16", "--trials", "2", "--seed", "5",
         "--mode", "dense"],
        0,
        "a8d2d2405dfe1f54924bcd66fa56b021a6b11e9815c31f4cc7d379356e3adcbe",
    ),
    (
        "crosscheck",
        ["crosscheck", "--seed", "1"],
        0,
        "cfdd496a7cc192c637d5cbe511c7495f94f89c2125dcc040a25fa29bb3a50eb7",
    ),
    (
        "primes",
        ["primes", "--delta", "4", "--max-len", "3", "--epsilon", "0.5", "--seed", "42"],
        0,
        "7cb27f9cad3dbaef9b087d9249bf63307f3417a2c1d52b48c8c385aee16b5c55",
    ),
    (
        # r = 167,772,160 lies past the sieve cap: an nth-prime lookup
        "primes-nth-prime",
        ["primes", "--delta", "4096", "--max-len", "4096", "--epsilon", "0.1", "--seed", "7"],
        0,
        "0f9fbb839475802915242007e1a5a0bc8b286925ff097995f4ccf5394805a151",
    ),
]


@pytest.mark.parametrize(
    "argv, code, digest", [case[1:] for case in GOLDEN], ids=[case[0] for case in GOLDEN]
)
def test_cli_output_pinned(argv, code, digest, capsys):
    got_code = main(list(argv))
    out = capsys.readouterr().out
    got_digest = hashlib.sha256(out.encode()).hexdigest()
    assert (got_code, got_digest) == (code, digest), (
        f"exit {got_code}, sha256 {got_digest}, stdout:\n{out}"
    )
