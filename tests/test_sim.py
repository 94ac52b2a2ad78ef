import copy
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qstrings import sim
from qstrings.sim import (
    DenseSearchState,
    DenseState,
    RegisterLayout,
    StructuredState,
    apply_gate,
    bind_data,
    diffusion,
    dump_state,
    expand_structured,
    phase_oracle,
    prepare_minus,
    prepare_uniform,
    project_flag_minus,
)
from support import index_probabilities, measure_index_reference

SQ2 = 1 / math.sqrt(2)


def _single_qubit():
    return DenseState(RegisterLayout(q=1))


def test_hadamard_on_zero():
    state = apply_gate(_single_qubit(), "H", [0])
    assert np.allclose(state.amps, [SQ2, SQ2])


def test_x_involution():
    state = _single_qubit()
    apply_gate(state, "H", [0])
    before = state.amps.copy()
    apply_gate(state, "X", [0])
    apply_gate(state, "X", [0])
    assert np.allclose(state.amps, before)


def test_z_flips_one_component():
    state = apply_gate(_single_qubit(), "H", [0])
    apply_gate(state, "Z", [0])
    assert np.allclose(state.amps, [SQ2, -SQ2])


def test_cnot_on_10():
    # qubit 0 is the LSB; |10> means qubit1=1, qubit0=0, i.e. basis index 2
    layout = RegisterLayout(r=2)
    amps = np.zeros(4)
    amps[2] = 1.0
    state = DenseState(layout, amps)
    apply_gate(state, "CNOT", [1, 0])  # control qubit 1, target qubit 0
    expected = np.zeros(4)
    expected[3] = 1.0
    assert np.allclose(state.amps, expected)


def test_gate_validation():
    state = _single_qubit()
    with pytest.raises(ValueError):
        apply_gate(state, "H", [1])
    with pytest.raises(ValueError):
        apply_gate(state, "CNOT", [0, 0])
    with pytest.raises(ValueError):
        apply_gate(state, "T", [0])


def test_prepare_uniform():
    for width in (1, 3):
        layout = RegisterLayout(idx=width)
        state = prepare_uniform(DenseState(layout), "idx")
        assert np.allclose(state.amps, np.full(2**width, 2 ** (-width / 2)))
        assert abs(np.sum(np.abs(state.amps) ** 2) - 1.0) < 1e-12


def test_phase_oracle_identity_and_global_phase():
    layout = RegisterLayout(idx=2)
    state = prepare_uniform(DenseState(layout), "idx")
    before = state.amps.copy()
    phase_oracle(state, np.zeros(4, dtype=bool), "idx")
    assert np.allclose(state.amps, before)
    phase_oracle(state, np.ones(4, dtype=bool), "idx")
    assert np.allclose(state.amps, -before)
    assert np.allclose(np.abs(state.amps) ** 2, np.abs(before) ** 2)


def test_phase_oracle_marks_single_index():
    layout = RegisterLayout(idx=2)
    state = prepare_uniform(DenseState(layout), "idx")
    phase_oracle(state, np.array([0, 0, 1, 0], dtype=bool), "idx")
    assert np.allclose(state.amps, [0.5, 0.5, -0.5, 0.5])


def test_phase_oracle_ancilla_kickback_equals_direct():
    layout = RegisterLayout(idx=2, xi=1)
    state = prepare_uniform(DenseState(layout), "idx")
    prepare_minus(state, "xi")
    phase_oracle(state, np.array([0, 1, 1, 0], dtype=bool), "idx", ancilla="xi")
    reduced = project_flag_minus(state, "xi")
    assert np.allclose(reduced, [0.5, -0.5, -0.5, 0.5])


def test_phase_oracle_takes_only_a_bool_pattern_over_the_index():
    layout = RegisterLayout(idx=2)
    state = prepare_uniform(DenseState(layout), "idx")
    for pattern in (np.array([0, 0, 1, 0]), np.zeros(8, dtype=bool)):
        with pytest.raises(ValueError):
            phase_oracle(state, pattern, "idx")


def test_phase_oracle_is_involution():
    layout = RegisterLayout(idx=3)
    state = prepare_uniform(DenseState(layout), "idx")
    before = state.amps.copy()
    pattern = np.array([0, 1, 1, 0, 1, 0, 0, 1], dtype=bool)
    phase_oracle(state, pattern, "idx")
    phase_oracle(state, pattern, "idx")
    assert np.max(np.abs(state.amps - before)) < 1e-12


def test_diffusion_examples():
    layout = RegisterLayout(idx=2)
    state = prepare_uniform(DenseState(layout), "idx")
    before = state.amps.copy()
    diffusion(state, "idx")
    assert np.allclose(state.amps, before)  # uniform is a fixed point

    state = DenseState(layout, np.array([1.0, 0, 0, 0]))
    diffusion(state, "idx")
    assert np.allclose(state.amps, [-0.5, 0.5, 0.5, 0.5])
    diffusion(state, "idx")
    expected = np.zeros(4)
    expected[0] = 1.0
    assert np.max(np.abs(state.amps - expected)) < 1e-12  # involution


def test_diffusion_acts_per_sector():
    # entangled data register: diffusion touches only the index factor
    layout = RegisterLayout(idx=1, d=1)
    amps = np.zeros(4)
    amps[0] = SQ2  # |idx=0, d=0>
    amps[3] = SQ2  # |idx=1, d=1>
    state = DenseState(layout, amps)
    diffusion(state, "idx")
    # sector d=0: amplitudes (a, 0) -> mean SQ2/2; sector d=1: (0, a)
    assert np.allclose(state.amps, [0, SQ2, SQ2, 0])


def _structured_identity(width=1):
    layout = RegisterLayout(idx=width, f=width)
    table = np.arange(2**width, dtype=np.int64)
    return StructuredState(layout, 2**width, bindings={"f": table})


def test_expand_structured_bell_like():
    dense = expand_structured(_structured_identity(1))
    assert np.allclose(dense.amps, [SQ2, 0, 0, SQ2])
    assert abs(np.sum(np.abs(dense.amps) ** 2) - 1.0) < 1e-12


def test_expand_structured_hash_table():
    layout = RegisterLayout(idx=2, h=2)
    table = np.array([2, 0, 1, 2], dtype=np.int64)  # residues mod 3 of some windows
    state = StructuredState(layout, 4, bindings={"h": table})
    dense = expand_structured(state)
    assert np.count_nonzero(dense.amps) == 4
    for a in range(4):
        assert abs(dense.amps[a | (int(table[a]) << 2)] - 0.5) < 1e-12


def test_expand_structured_cap():
    # 25 qubits, one above the dense cap: refused before anything is allocated
    layout = RegisterLayout(idx=4, h=21)
    state = StructuredState(layout, 16, bindings={"h": np.zeros(16, dtype=np.int64)})
    with pytest.raises(ValueError, match="exceeds cap"):
        expand_structured(state)


def test_bind_data_roundtrip():
    layout = RegisterLayout(idx=2, h=3)
    table = np.array([5, 1, 0, 7], dtype=np.int64)
    state = prepare_uniform(DenseState(layout), "idx")
    before = state.amps.copy()
    bind_data(state, "h", table)
    expanded = expand_structured(
        StructuredState(layout, 4, bindings={"h": table})
    )
    assert np.allclose(state.amps, expanded.amps)
    bind_data(state, "h", table)  # self-inverse
    assert np.allclose(state.amps, before)


def test_structured_phase_and_diffuse_match_dense():
    layout = RegisterLayout(idx=2)
    struct = StructuredState(layout, 4)
    dense = prepare_uniform(DenseState(RegisterLayout(idx=2)), "idx")
    pattern = np.array([0, 0, 1, 0], dtype=bool)
    struct.apply_phase_pattern(np.flatnonzero(pattern))
    phase_oracle(dense, pattern, "idx")
    struct.diffuse()
    diffusion(dense, "idx")
    assert np.allclose(struct.amps, dense.amps)


def _reference_step(amps: np.ndarray, marked: np.ndarray) -> np.ndarray:
    """One search step on the full amplitude vector, as the dense-array
    structured state did it: negate the marked amplitudes, then reflect
    every amplitude about the mean."""
    hit = np.zeros(amps.size, dtype=bool)
    hit[marked] = True
    amps = amps.copy()
    amps[hit] = -amps[hit]
    return 2.0 * amps.mean() - amps


def _reference_measure(amps: np.ndarray, rng: np.random.Generator) -> int:
    probs = np.abs(amps) ** 2
    probs /= probs.sum()
    return int(rng.choice(amps.size, p=probs))


def _marked_sequences(size: int, rng: np.random.Generator) -> list[list[np.ndarray]]:
    """Explicit marked-index sequences: fixed targets, targets plus sparse
    flips, exact steps after flips, fresh random sets, none, and every
    index."""
    targets = np.sort(rng.choice(size, max(1, size // 8), replace=False))
    flips = [np.sort(rng.choice(size, 2, replace=False)) for _ in range(8)]
    return [
        [targets] * 8,
        [np.union1d(targets, f) if k % 3 == 0 else targets for k, f in enumerate(flips)],
        # flip then exact: the same targets array again after each flip
        [targets, np.union1d(targets, flips[0]), targets, targets,
         np.union1d(targets, flips[1]), np.union1d(targets, flips[2]), targets],
        # a marking without every target, then the targets again
        [targets, targets[1:], targets, np.union1d(targets[:-1], flips[3]), targets],
        [np.sort(rng.choice(size, int(rng.integers(0, size + 1)), replace=False)) for _ in range(8)],
        [np.empty(0, dtype=np.int64), targets, np.arange(size), np.empty(0, dtype=np.int64)],
    ]


@pytest.mark.parametrize("size", [2, 4, 16, 256])
def test_structured_transitions_match_dense_reference(size):
    layout = RegisterLayout(idx=(size - 1).bit_length())
    rng = np.random.default_rng(size)
    for sequence in _marked_sequences(size, rng):
        state = StructuredState(layout, size)
        reference = np.full(size, 1 / math.sqrt(size))
        for marked in sequence:
            state.apply_phase_pattern(marked)
            state.diffuse()
            reference = _reference_step(reference, marked)
            assert np.max(np.abs(state.amps - reference)) < 1e-12
        for seed in range(40):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = copy.deepcopy(state).measure_index(got_rng)
            assert got == _reference_measure(reference, want_rng)
            assert got_rng.random() == want_rng.random()  # one draw each


@pytest.mark.parametrize("flip_at", [None, 2])
def test_phase_on_the_adopted_index_array_matches_a_fresh_copy_bit_for_bit(flip_at):
    # an exact query returns the same read-only targets array every time;
    # once a first marking adopts it, marking it again negates in place
    targets = np.array([3, 9, 10])
    targets.flags.writeable = False
    flip = np.array([3, 5, 9, 10])
    layout = RegisterLayout(idx=4)
    shared, fresh = StructuredState(layout, 16), StructuredState(layout, 16)
    for step in range(6):
        flipped = step == flip_at
        shared.apply_phase_pattern(flip if flipped else targets)
        fresh.apply_phase_pattern(flip.copy() if flipped else targets.copy())
        assert (shared.amps == fresh.amps).all()
        shared.diffuse()
        fresh.diffuse()
        assert (shared.amps == fresh.amps).all()
    # the first marking adopted the targets as the group, and a flip (a
    # superset of the targets) kept it, so every exact step stayed scalar
    assert shared._group is targets
    for seed in range(20):
        got, want = copy.deepcopy(shared), copy.deepcopy(fresh)
        assert got.measure_index(np.random.default_rng(seed)) == want.measure_index(
            np.random.default_rng(seed)
        )


class _Draw:
    """A stand-in generator whose every `random()` returns `u`."""

    def __init__(self, u: float):
        self.u = u
        self.draws = 0

    def random(self) -> float:
        self.draws += 1
        return self.u


def _measure_paths(state: StructuredState, u: float, monkeypatch) -> list[int]:
    """The index each measurement path picks from the draw u: the default
    path, then the Python-float path and the numpy path forced."""
    picks = []
    for cutoff in (sim.SCALAR_MEASURE_SEGMENTS, 10**9, 0):
        monkeypatch.setattr(sim, "SCALAR_MEASURE_SEGMENTS", cutoff)
        draw = _Draw(u)
        picks.append(copy.deepcopy(state).measure_index(draw))
        assert draw.draws == 1
    monkeypatch.undo()
    return picks


def _special_state(size: int, group: int, exceptions: int) -> StructuredState:
    """A state off the base at `group` targets and `exceptions` more indices."""
    layout = RegisterLayout(idx=(size - 1).bit_length())
    state = StructuredState(layout, size)
    index = np.arange(0, 2 * (group + exceptions), 2)
    targets, flips = index[:group], index[group:]
    for marked in (targets, np.union1d(targets, flips), targets):
        state.apply_phase_pattern(marked)
        state.diffuse()
    assert state._group is targets and state._index.size == exceptions
    return state


@pytest.mark.parametrize("group, exceptions", [(31, 0), (32, 0), (20, 11), (20, 12), (1, 0)])
def test_scalar_and_numpy_measurement_pick_the_same_index(group, exceptions, monkeypatch):
    # 2 * specials + 1 segments: 63 and 65 sit either side of the cutoff
    state = _special_state(256, group, exceptions)
    probs = state.amps**2
    cdf = np.cumsum(probs)
    # draws at every segment boundary and just either side of it, and u = 1,
    # where u times the total equals the total
    bounds = cdf / cdf[-1]
    draws = np.concatenate((np.linspace(0, 1, 101), bounds, np.nextafter(bounds, 0), [1.0]))
    for u in draws.clip(0, 1):
        picks = _measure_paths(state, float(u), monkeypatch)
        assert picks[0] == picks[1] == picks[2]
        assert probs[picks[0]] > 0


def _reference_mass(state: StructuredState) -> np.ndarray:
    """The measurement's segment masses by sorting every special index with
    its amplitude and differencing run ends against run starts."""
    index = np.concatenate((state._group, state._index))
    values = np.concatenate((np.full(state._group.size, state._group_amp), state._values))
    order = np.argsort(index)
    index, values = index[order], values[order]
    starts = np.concatenate(([0], index + 1))
    ends = np.concatenate((index, [state.size]))
    mass = np.empty(2 * index.size + 1)
    mass[0::2] = (ends - starts) * (state._base * state._base)
    mass[1::2] = values * values
    return mass


@pytest.mark.parametrize("group, exceptions", [(1, 0), (31, 0), (40, 0), (3, 2), (20, 12)])
def test_measurement_cdf_matches_the_sorted_reference_bit_for_bit(group, exceptions,
                                                                  monkeypatch):
    state = _special_state(256, group, exceptions)
    want = np.cumsum(_reference_mass(state))
    seen = []

    def spy(index, mass, cdf, *args):
        seen.append(list(cdf))
        return int(index[0])

    monkeypatch.setattr(sim, "_cdf_segment", spy)
    for cutoff in (10**9, 0):  # the Python-float path, then the numpy path
        monkeypatch.setattr(sim, "SCALAR_MEASURE_SEGMENTS", cutoff)
        copy.deepcopy(state).measure_index(np.random.default_rng(0))
    assert seen == [want.tolist(), want.tolist()]


def test_scalar_and_numpy_measurement_agree_with_zero_base(monkeypatch):
    # one target in four after one iteration: the base runs carry no mass,
    # so u = 1 must fall back onto the target, not the empty last run
    state = StructuredState(RegisterLayout(idx=2), 4)
    state.apply_phase_pattern(np.array([2]))
    state.diffuse()
    assert state._base == 0.0
    for u in (0.0, 0.25, 0.5, np.nextafter(1.0, 0), 1.0):
        assert _measure_paths(state, float(u), monkeypatch) == [2, 2, 2]


def test_structured_measure_with_zero_base_amplitude():
    # one target in four, one iteration: every other amplitude is exactly 0
    state = StructuredState(RegisterLayout(idx=2), 4)
    state.apply_phase_pattern(np.array([2]))
    state.diffuse()
    assert state.amps.tolist() == [0.0, 0.0, 1.0, 0.0]
    rng = np.random.default_rng(0)
    assert [copy.deepcopy(state).measure_index(rng) for _ in range(50)] == [2] * 50
    assert state.measure_index(rng) == 2
    assert state.amps.tolist() == [0.0, 0.0, 1.0, 0.0]  # collapsed onto the outcome


def _spec_state(kind: str, width: int, specials: int, seed: int, steps: int) -> StructuredState:
    """A state over 2^width indices of one kind: "uniform", after `steps`
    steps that mark nothing; "group", after `steps` target-only steps on
    `specials` targets; "exceptions", off the base at `specials` targets
    kept as the group and at flipped indices outside it, or, for odd
    `steps`, with the group dissolved into the exceptions."""
    size = 1 << width
    state = StructuredState(RegisterLayout(idx=width), size)
    rng = np.random.default_rng(seed)
    picked = rng.permutation(size)
    # an exception state leaves room for a flip outside the targets
    targets = np.sort(picked[:min(specials, size - (kind == "exceptions"))])
    if kind == "uniform":
        state.target_steps(np.empty(0, dtype=np.int64), steps)
    elif kind == "group":
        state.target_steps(targets, max(1, steps))
    else:
        flips = np.sort(picked[targets.size:targets.size + 1 + seed % 3])
        markings = [targets, np.union1d(targets, flips), targets]
        if steps % 2:
            markings.append(targets[1:])
        for marked in markings:
            state.apply_phase_pattern(marked)
            state.diffuse()
        assert state._index.size
    return state


def _collapsed(state: StructuredState) -> tuple:
    return (state._base, state._group.dtype, state._group.tolist(), state._group_amp,
            state._index is sim._NO_INDEX, state._values is sim._NO_VALUES)


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(["uniform", "group", "exceptions"]), width=st.integers(1, 7),
       specials=st.integers(1, 128), seed=st.integers(0, 2**32 - 1), steps=st.integers(0, 6),
       cutoff=st.sampled_from([sim.SCALAR_MEASURE_SEGMENTS, 1, 10**9]))
@example(kind="group", width=7, specials=31, seed=1, steps=1, cutoff=sim.SCALAR_MEASURE_SEGMENTS)
@example(kind="group", width=7, specials=32, seed=1, steps=1, cutoff=sim.SCALAR_MEASURE_SEGMENTS)
@example(kind="group", width=5, specials=32, seed=2, steps=3, cutoff=sim.SCALAR_MEASURE_SEGMENTS)
@example(kind="group", width=2, specials=1, seed=3, steps=1, cutoff=sim.SCALAR_MEASURE_SEGMENTS)
@example(kind="uniform", width=7, specials=1, seed=0, steps=0, cutoff=sim.SCALAR_MEASURE_SEGMENTS)
@example(kind="exceptions", width=7, specials=30, seed=2, steps=0, cutoff=sim.SCALAR_MEASURE_SEGMENTS)
def test_measurement_paths_are_the_reference(kind, width, specials, seed, steps, cutoff):
    # uniform, group-only (either side of the cutoff, every index a
    # target, a zero base) and exception states, each drawn at u = 0, at
    # every cdf boundary and one ulp below it, and at u = 1
    state = _spec_state(kind, width, specials, seed, steps)
    if (kind, width, specials, steps) == ("group", 2, 1, 1):
        assert state._base == 0.0  # one step on one target in four
    cdf = np.cumsum(_reference_mass(state))
    bounds = cdf / cdf[-1]
    draws = np.concatenate(([0.0, 1.0], bounds, np.nextafter(bounds, 0))).clip(0, 1)
    with mock.patch.object(sim, "SCALAR_MEASURE_SEGMENTS", cutoff):
        for u in draws.tolist():
            got, want = state.copy(), state.copy()
            got_draw, want_draw = _Draw(u), _Draw(u)
            assert got.measure_index(got_draw) == measure_index_reference(want, want_draw)
            assert _collapsed(got) == _collapsed(want)
            assert got_draw.draws == want_draw.draws == 1


def test_copy_evolves_independently_over_read_only_bindings():
    layout = RegisterLayout(idx=3, h=3)
    table = np.array([5, 1, 0, 7, 2, 2, 6, 3], dtype=np.int64)
    template = StructuredState(layout, 8, bindings={"h": table})
    table[0] = 4  # the caller's array was copied, not shared
    assert template.values_at(0, ("h",)) == (5,)
    view = table.view()
    view.flags.writeable = False
    table[0] = 5
    viewing = StructuredState(layout, 8, bindings={"h": view})
    table[0] = 4  # nor a read-only view of a writable array
    assert viewing.values_at(0, ("h",)) == (5,)
    binding = template.bindings["h"]
    with pytest.raises(ValueError):
        binding[0] = 7
    a, b = template.copy(), template.copy()
    assert a._values is b._values is sim._NO_VALUES  # an empty array is shared
    targets = np.array([3])
    a.apply_phase_pattern(targets)
    a.diffuse()
    assert np.array_equal(b.amps, template.amps)  # untouched by a's step
    b.apply_phase_pattern(np.array([1, 3, 6]))
    b.diffuse()
    assert a.measure_index(np.random.default_rng(0)) == 3
    assert np.allclose(template.amps, np.full(8, 1 / math.sqrt(8)))
    assert np.count_nonzero(b.amps) == 8  # a's collapse left b alone
    a.bindings["h"] = np.zeros(8, dtype=np.int64)
    assert b.bindings["h"] is binding and template.bindings["h"] is binding
    # a copy of an evolved state holds its own exception amplitudes
    b.apply_phase_pattern(np.array([1, 3]))
    c = b.copy()
    stepped = b.amps
    c.apply_phase_pattern(np.array([1, 3, 6]))  # in place: exceptions only
    c.diffuse()
    assert np.array_equal(b.amps, stepped)
    # every copy checks its norm
    template._base += 0.1
    with pytest.raises(ValueError, match="norm"):
        template.copy()


def test_structured_amps_is_a_read_only_copy():
    state = StructuredState(RegisterLayout(idx=2), 4)
    with pytest.raises(ValueError):
        state.amps[0] = 1.0
    with pytest.raises(AttributeError):
        state.amps = np.zeros(4)


def test_structured_norm_and_binding_validation():
    layout = RegisterLayout(idx=1, f=1)
    with pytest.raises(ValueError):
        StructuredState(layout, 2)  # missing binding
    with pytest.raises(ValueError):
        StructuredState(layout, 2, bindings={"f": np.array([0, 2])})  # overflow
    with pytest.raises(ValueError):
        StructuredState(layout, 2, bindings={"f": np.array([0])})  # wrong length


def test_layout_validation():
    with pytest.raises(ValueError, match="at least 1"):
        RegisterLayout(idx=2, r=0)
    layout = RegisterLayout(idx=2, h=3, xi=1)
    assert list(layout.widths.items()) == [("idx", 2), ("h", 3), ("xi", 1)]
    assert [layout.offset(name) for name in layout.widths] == [0, 2, 5]
    assert layout.total_width == 6
    assert layout.extract("h", np.array([0b101110, 0b011101])).tolist() == [3, 7]
    with pytest.raises(ValueError, match="taken by the phase flag"):
        DenseSearchState(RegisterLayout(idx=2, xi=1), 4, {"xi": [0] * 4})


def test_norm_guard():
    layout = RegisterLayout(idx=1)
    with pytest.raises(ValueError):
        DenseState(layout, np.array([1.0, 1.0]))


def test_gates_against_explicit_kron_matrices():
    # independent oracle: build the full unitary with Kronecker products
    # (qubit 0 is the LSB, so it sits rightmost in the kron chain)
    from qstrings.sim import GATES_1Q

    eye = np.eye(2, dtype=complex)
    rng = np.random.default_rng(2025)
    layout = RegisterLayout(r=3)
    for _ in range(30):
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        state = DenseState(layout, amps.copy())
        gate = rng.choice(["H", "X", "Z", "CNOT"])
        if gate == "CNOT":
            control, target = rng.choice(3, size=2, replace=False)
            full = np.zeros((8, 8), dtype=complex)
            for basis in range(8):
                out = basis ^ (1 << int(target)) if (basis >> int(control)) & 1 else basis
                full[out, basis] = 1.0
            apply_gate(state, "CNOT", [int(control), int(target)])
        else:
            qubit = int(rng.integers(0, 3))
            mats = [GATES_1Q[gate] if q == qubit else eye for q in (2, 1, 0)]
            full = np.kron(np.kron(mats[0], mats[1]), mats[2])
            apply_gate(state, gate, [qubit])
        assert np.allclose(state.amps, full @ amps, atol=1e-12)


def test_dump_state(tmp_path):
    layout = RegisterLayout(idx=1)
    state = prepare_uniform(DenseState(layout), "idx")
    path = tmp_path / "state.csv"
    dump_state(state, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("0,") and len(lines) == 2


both_backends = pytest.mark.parametrize(
    "backend", [StructuredState, DenseSearchState], ids=["structured", "dense"]
)


def _hash_layout():
    return RegisterLayout(idx=2, h=3)


def test_backends_share_one_constructor():
    layout = _hash_layout()
    table = np.array([5, 2, 7, 0])
    structured = StructuredState(layout, 3, {"h": table})
    dense = DenseSearchState(layout, 3, {"h": table})
    assert structured.index_width == dense.index_width == 2
    assert np.allclose(dense.index_probabilities(), structured.amps**2)
    reduced = project_flag_minus(dense.state, dense.flag_register)
    assert np.allclose(reduced, expand_structured(structured).amps)
    for i in range(4):
        assert dense.values_at(i, ("h",)) == structured.values_at(i, ("h",)) == (table[i],)
    for backend in (StructuredState, DenseSearchState):
        with pytest.raises(ValueError, match="cover"):
            backend(layout, 5, {"h": table})  # 2 index qubits cannot cover 5


@both_backends
def test_like_gives_independent_uniform_states(backend):
    table = np.array([5, 2, 7, 0])
    template = StructuredState(_hash_layout(), 3, {"h": table})
    a, b = backend.like(template), backend.like(template)
    assert type(a) is type(b) is backend and a is not template and a is not b
    uniform = np.full(4, 0.25)
    assert np.allclose(index_probabilities(a), uniform)
    assert [b.values_at(i, ("h",)) for i in range(4)] == [(5,), (2,), (7,), (0,)]
    a.apply_phase_pattern(np.array([1]))
    a.diffuse()
    assert np.allclose(index_probabilities(a), [0.0, 1.0, 0.0, 0.0])
    assert np.allclose(index_probabilities(b), uniform)
    assert np.allclose(template.amps**2, uniform)


@both_backends
def test_both_backends_refuse_bad_bindings(backend):
    layout = RegisterLayout(idx=2, f=2)
    with pytest.raises(ValueError, match="missing binding"):
        backend(layout, 4)
    with pytest.raises(ValueError, match="overflows"):
        backend(layout, 4, {"f": [0, 1, 2, 7]})  # 7 needs 3 bits
    with pytest.raises(ValueError, match="cover the padded domain"):
        backend(layout, 4, {"f": [0, 1, 2]})


def test_search_layout_pads_the_index_and_binds_data_in_order():
    layout = sim.search_layout(5, u=1, whash=3)
    assert list(layout.widths.items()) == [("idx", 3), ("u", 1), ("whash", 3)]
    assert layout.total_width == 7
    for domain, width in ((1, 1), (2, 1), (3, 2), (4, 2), (65, 7), (2**16, 16)):
        assert sim.search_layout(domain).total_width == width


@both_backends
def test_search_layout_has_exactly_one_index_register(backend):
    # a mapping holds "idx" at most once; a layout without it is refused
    with pytest.raises(ValueError, match="needs an index register 'idx'"):
        backend(RegisterLayout(q=2), 4)


@both_backends
def test_phase_pattern_rejects_a_bool_mask(backend):
    # a mask would be read as a mask by one backend and as 0/1 indices by
    # the other; both refuse it and keep their state
    layout = RegisterLayout(idx=2)
    search = backend(layout, 4)
    before = index_probabilities(search)
    with pytest.raises(ValueError, match="integer index array"):
        search.apply_phase_pattern(np.array([False, True, True, False]))
    with pytest.raises(ValueError):
        search.apply_phase_pattern(np.array([1.0, 2.0]))
    assert np.allclose(index_probabilities(search), before)
    search.apply_phase_pattern(np.array([2], dtype=np.int64))
    search.diffuse()
    assert np.allclose(index_probabilities(search), [0.0, 0.0, 1.0, 0.0])
