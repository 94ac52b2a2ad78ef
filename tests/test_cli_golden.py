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
        "ffd7c5fafba80ef4278bcc8fb7fddb81c4e3a94ea185ff3e2098adb1f43a9090",
    ),
    (
        "match-dense",
        ["match", "--text", "010110", "--pattern", "10", "--mode", "dense", "--seed", "4",
         "--trials", "3"],
        0,
        "2c6fe8c3da3993780a0676507c37a92329e30bf4f9697ceff7c3d50218597a9d",
    ),
    (
        "compare-bsearch",
        ["compare", "--u", "0110101", "--v", "0110111", "--algo", "bsearch", "--seed", "3",
         "--trials", "4"],
        0,
        "6712c3f3246ed3add6852d2b79433f84080deef14e450aa7d3abe988ea8f7b87",
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
        "f47d6ef9027e33390b4d066dd32636f6e1c59879f3e9d0758ae5550d03eef3d5",
    ),
    (
        # three queries flip: the noisy-oracle path, through the error-class order
        "sweep-match-flips",
        ["sweep", "--algo", "match", "--grid", "128,256", "--m", "8", "--trials", "4",
         "--seed", "2"],
        0,
        "54eaadc5ef38b164cc7fa06bf2662c2ee292347bd0ad6ef663b1f6c03812caed",
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
        "83739fa711eb063509a5786d59306f4bfe25cb2372423ff631bd2d6d1a9f401a",
    ),
    (
        "sweep-compare-bsearch-dense",
        ["sweep", "--algo", "compare-bsearch", "--grid", "8,16", "--trials", "2", "--seed", "5",
         "--mode", "dense"],
        0,
        "7903af31440a6338288c2aa95b8a8e009af99bd89b2a3ab7184cffab35f66afe",
    ),
    (
        "crosscheck",
        ["crosscheck", "--seed", "1"],
        0,
        "cfdd496a7cc192c637d5cbe511c7495f94f89c2125dcc040a25fa29bb3a50eb7",
    ),
    (
        "crosscheck-seed-7",
        ["crosscheck", "--seed", "7"],
        0,
        "64bbaa07ed745d056cab02aefdccba5a992b713ad01898b26b02a91b52c5b06b",
    ),
    (
        "primes",
        ["primes", "--delta", "4", "--max-len", "3", "--epsilon", "0.5", "--seed", "42"],
        0,
        "1ae16a7d3c947074060e9bb2475a36c64a3e400a45812891652ef65b8b39bdb3",
    ),
    (
        # r = 167,772,160: the largest universe the benchmark draws from
        "primes-nth-prime",
        ["primes", "--delta", "4096", "--max-len", "4096", "--epsilon", "0.1", "--seed", "7"],
        0,
        "fa4ba647b8274dc7c17d12739ae02c4e203c89789be2f13215b001287ece0b35",
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
