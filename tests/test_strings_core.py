import numpy as np
import pytest
from hypothesis import given, strategies as st

from qstrings.strings_core import (
    BitString,
    MatchInstance,
    compare_classical,
    lcp_classical,
    naive_match_all,
)

bits = st.lists(st.integers(0, 1), max_size=24).map(BitString.from_bits)


def test_lcp_examples():
    assert lcp_classical(BitString.from_text("011"), BitString.from_text("010")) == 2
    assert lcp_classical(BitString.from_text("101"), BitString.from_text("101")) == 3
    assert lcp_classical(BitString.from_bits([]), BitString.from_text("1")) == 0


def test_compare_examples():
    assert compare_classical(BitString.from_text("10"), BitString.from_text("11")) == -1
    # a proper prefix precedes its extension
    assert compare_classical(BitString.from_text("01"), BitString.from_text("011")) == -1
    assert compare_classical(BitString.from_text("1"), BitString.from_text("1")) == 0


def test_naive_match_examples():
    inst = MatchInstance(BitString.from_text("010101"), BitString.from_text("010"))
    assert naive_match_all(inst) == {1, 3}
    inst = MatchInstance(BitString.from_text("0000"), BitString.from_text("11"))
    assert naive_match_all(inst) == set()
    inst = MatchInstance(BitString.from_text("101"), BitString.from_text("101"))
    assert naive_match_all(inst) == {1}


@given(bits, bits)
def test_compare_antisymmetric(u, v):
    assert compare_classical(u, v) == -compare_classical(v, u)


@given(bits)
def test_compare_reflexive(u):
    assert compare_classical(u, u) == 0


@given(bits, bits)
def test_lcp_is_longest_common_prefix(u, v):
    t = lcp_classical(u, v)
    assert t <= min(len(u), len(v))
    assert u.bits[:t] == v.bits[:t]
    if t < min(len(u), len(v)):
        assert u.bits[t] != v.bits[t]


def _match_all_by_bit_loop(inst: MatchInstance) -> set[int]:
    # independent oracle: explicit window-by-window bit comparison
    found = set()
    for d in range(1, inst.num_windows + 1):
        if all(inst.text.bit(d + i) == inst.pattern.bit(1 + i) for i in range(inst.m)):
            found.add(d)
    return found


def test_naive_match_against_bit_loop():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        m = int(rng.integers(1, n + 1))
        inst = MatchInstance(
            BitString.from_bits(rng.integers(0, 2, n)),
            BitString.from_bits(rng.integers(0, 2, m)),
        )
        assert naive_match_all(inst) == _match_all_by_bit_loop(inst)


def test_substring_indexing():
    u = BitString.from_text("10110")
    assert str(u.substring(2, 4)) == "011"
    assert str(u.substring(1, 5)) == "10110"
    assert len(u.substring(3, 2)) == 0  # empty view
    assert u.bit(1) == 1 and u.bit(5) == 0
    with pytest.raises(IndexError):
        u.substring(0, 2)
    with pytest.raises(IndexError):
        u.substring(2, 6)
    with pytest.raises(IndexError):
        u.bit(6)


def test_ascii_expansion_msb_first():
    assert str(BitString.from_ascii("A")) == "01000001"
    assert str(BitString.from_ascii("ab")) == "0110000101100010"


def test_bad_inputs_rejected():
    for bad in ("012", "0 1", "１", "0b1", "\x00"):
        with pytest.raises(ValueError, match="not a bit string"):
            BitString.from_text(bad)
    with pytest.raises(ValueError):
        BitString.from_bits([0, 2])
    with pytest.raises(ValueError):
        MatchInstance(BitString.from_text("01"), BitString.from_bits([]))
    with pytest.raises(ValueError):
        MatchInstance(BitString.from_text("0"), BitString.from_text("01"))


@pytest.mark.parametrize(
    "make",
    [
        lambda b: np.array(b, dtype=np.int8),
        lambda b: np.array(b, dtype=np.uint8),
        lambda b: np.array(b, dtype=np.int64),
        lambda b: np.array(b, dtype=bool),
        lambda b: np.array(b, dtype=np.float64),
        list,
        lambda b: (x for x in b),
        lambda b: [True if x else 0.0 for x in b],
        bytes,
    ],
)
def test_from_bits_gives_tuple_of_python_ints(make):
    raw = [1, 0, 0, 1, 1, 0, 1]
    bits = BitString.from_bits(make(raw)).bits
    assert type(bits) is bytes and bits == bytes(raw)
    assert list(bits) == raw and all(type(x) is int for x in bits)
    assert BitString.from_bits(make([])).bits == b""


@pytest.mark.parametrize("bad", [2, -1, 0.5, "x", float("nan"), [1], 255, ord("1"), ord("x")])
def test_constructor_rejects_non_bits(bad):
    with pytest.raises(ValueError):
        BitString((0, bad, 1))
    if isinstance(bad, int) and 0 <= bad < 256:  # as a byte, in the form the constructor takes
        with pytest.raises(ValueError):
            BitString(bytes((0, bad, 1)))


@pytest.mark.parametrize(
    "bits",
    [(1.0, 0.0, True), (0, 1), [0, 1], bytearray(b"\x01"), memoryview(b"\x01"),
     np.array([0, 1], dtype=np.uint8), b"\x00\x02", b"01"],
)
def test_constructor_takes_only_bytes_of_0_1(bits):
    with pytest.raises(ValueError):
        BitString(bits)


def test_array_is_a_read_only_view_of_the_bits():
    u = BitString(b"\x01\x00\x01\x01")
    assert u.array.dtype == np.uint8 and u.array.tolist() == [1, 0, 1, 1]
    assert np.shares_memory(u.array, np.frombuffer(u.bits, dtype=np.uint8))
    assert not u.array.flags.writeable
    with pytest.raises(ValueError):
        u.array[0] = 0
    assert u.substring(2, 3).array.tolist() == [0, 1]


def test_to_int_weighs_bit_i_as_two_to_the_i_minus_one():
    assert BitString.from_text("1011").to_int() == 1 + 4 + 8
    assert BitString.from_text("0001").to_int() == 8
    assert BitString.from_bits([]).to_int() == 0


@given(st.text(alphabet="01", max_size=80))
def test_to_int_reads_the_reversed_binary_numeral(s):
    assert BitString.from_text(s).to_int() == int(s[::-1] or "0", 2)


@given(st.text(alphabet="01", max_size=40))
def test_text_round_trip(s):
    u = BitString.from_text(s)
    assert str(u) == s and u.bits == bytes(int(c) for c in s)


@pytest.mark.parametrize(
    "bad",
    [
        [0, 2], [-1], ["x"], ["1"], [float("nan")], [0.5], [1, 0.999], [[1]],
        np.array([0, 2]), np.array([1, -1], dtype=np.int8), np.array([0.7]),
        np.array([1.0, 0.5]),
    ],
)
def test_from_bits_rejects_non_bits(bad):
    with pytest.raises(ValueError):
        BitString.from_bits(bad)


def test_instance_window_and_counts():
    inst = MatchInstance(BitString.from_text("010101"), BitString.from_text("010"))
    assert (inst.n, inst.m, inst.num_windows) == (6, 3, 4)
    assert str(inst.window(3)) == "010"
