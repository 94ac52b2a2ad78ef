"""Two interchangeable quantum-state backends.

DenseState holds the full 2^q amplitude vector and evolves under the
four-gate set {H, X, Z, CNOT}, phase oracles, and index-register
diffusion.  StructuredState exploits the shape shared by every state in
this package: a superposition over an index register whose other
registers hold deterministic functions of the index.  It stores the
function tables ("bindings", validated once and read-only) and the index
amplitudes in three parts: one base amplitude shared by every
never-marked index; a group, the index array the first marking adopted,
with one shared amplitude; and sorted exception indices with their own
amplitudes.  A one-sided oracle marks every target in every query, so
the targets share one amplitude for the whole run, the two-dimensional
picture of multi-target search (Boyer, Brassard, Hoyer and Tapp, 1998).
A query that marks exactly the group then costs O(1) scalar work, and
any other step O(exceptions + marked).  The two backends must agree
amplitude-for-amplitude after expansion.

Dense diffusion acts on the index register only (identity elsewhere),
so algorithms that keep data registers entangled with the index must
unbind the data (XOR the binding out), diffuse, and rebind; the
structured backend gets the same effect for free.  DenseSearchState
does that bookkeeping, and `search_state` (with `search_copy` for
repeated copies of one search space) is the one place that builds a
fresh search state in either backend, so algorithm code never branches
on which one it holds.

Conventions: qubit 0 is the least-significant bit of the flat basis
index, and each register occupies a contiguous run of qubits with its
own LSB first.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping, Sequence

import numpy as np

NORM_TOL = 1e-9
DENSE_WIDTH_CAP = 24

_SQRT2_INV = 1.0 / math.sqrt(2.0)
GATES_1Q: dict[str, np.ndarray] = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

ROLES = ("index", "data", "ancilla", "flag")


@dataclass(frozen=True)
class Register:
    """A named run of qubits with a role tag.

    Data registers declare the index register they depend on; their
    evaluation map lives in the owning StructuredState (or is XORed into
    a DenseState by bind_data).
    """

    name: str
    width: int
    role: str
    depends_on: str | None = None

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValueError(f"unknown register role {self.role!r}")
        if self.width < 1:
            raise ValueError("register width must be at least 1")
        if self.role == "data" and self.depends_on is None:
            raise ValueError(f"data register {self.name!r} must declare its index register")


class RegisterLayout:
    """Ordered registers; total width is the sum of the widths."""

    def __init__(self, registers: Sequence[Register]):
        names = [r.name for r in registers]
        if len(set(names)) != len(names):
            raise ValueError("register names must be unique")
        self.registers = tuple(registers)
        self._by_name = {r.name: r for r in registers}
        self._offsets: dict[str, int] = {}
        off = 0
        for r in registers:
            self._offsets[r.name] = off
            off += r.width
        self.total_width = off
        for r in registers:
            if r.role == "data" and (
                r.depends_on not in self._by_name
                or self._by_name[r.depends_on].role != "index"
            ):
                raise ValueError(f"data register {r.name!r} depends on a non-index register")

    def register(self, name: str) -> Register:
        return self._by_name[name]

    def offset(self, name: str) -> int:
        return self._offsets[name]

    def width(self, name: str) -> int:
        return self._by_name[name].width

    def extract(self, name: str, basis_index: int | np.ndarray):
        """Value of a register within a flat basis index (vectorized)."""
        return (basis_index >> self._offsets[name]) & ((1 << self.width(name)) - 1)


def padded_size(domain: int) -> int:
    """Smallest power of two >= domain coverable by a register (so >= 2)."""
    if domain < 1:
        raise ValueError("domain must be positive")
    return 1 << max(1, (domain - 1).bit_length())


class DenseState:
    """Exact 2^q statevector over a register layout."""

    def __init__(self, layout: RegisterLayout, amps: np.ndarray | None = None):
        if layout.total_width > DENSE_WIDTH_CAP:
            raise ValueError(
                f"dense state of {layout.total_width} qubits exceeds cap {DENSE_WIDTH_CAP}"
            )
        self.layout = layout
        size = 1 << layout.total_width
        if amps is None:
            self.amps = np.zeros(size, dtype=complex)
            self.amps[0] = 1.0
        else:
            self.amps = np.asarray(amps, dtype=complex).reshape(size)
        self.check_norm()

    def check_norm(self) -> None:
        norm = float(np.vdot(self.amps, self.amps).real)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm} drifted beyond tolerance")

    def register_values(self, name: str) -> np.ndarray:
        return self.layout.extract(name, np.arange(self.amps.size))


def apply_gate(state: DenseState, gate: str, targets: Sequence[int]) -> DenseState:
    """Apply one of H, X, Z (single target) or CNOT (control, target) in place."""
    q = state.layout.total_width
    if len(set(targets)) != len(targets):
        raise ValueError("gate targets must be distinct")
    for t in targets:
        if not 0 <= t < q:
            raise ValueError(f"qubit {t} out of range for width {q}")
    if gate in GATES_1Q:
        (qubit,) = targets
        tensor = state.amps.reshape([2] * q)
        axis = q - 1 - qubit
        tensor = np.moveaxis(tensor, axis, -1)
        tensor = np.tensordot(tensor, GATES_1Q[gate], axes=([-1], [1]))
        state.amps = np.moveaxis(tensor, -1, axis).reshape(-1)
    elif gate == "CNOT":
        control, target = targets
        idx = np.arange(state.amps.size)
        sel = ((idx >> control) & 1).astype(bool)
        out = state.amps.copy()
        out[idx[sel]] = state.amps[idx[sel] ^ (1 << target)]
        state.amps = out
    else:
        raise ValueError(f"unknown gate {gate!r}")
    state.check_norm()
    return state


def prepare_uniform(state: DenseState, register: str) -> DenseState:
    """Equal superposition over a register, one Hadamard per qubit."""
    off = state.layout.offset(register)
    for qubit in range(off, off + state.layout.width(register)):
        apply_gate(state, "H", [qubit])
    return state


def prepare_minus(state: DenseState, register: str) -> DenseState:
    """Put a width-1 register into (|0> - |1>)/sqrt(2) via X then H."""
    if state.layout.width(register) != 1:
        raise ValueError("minus preparation expects a single-qubit register")
    off = state.layout.offset(register)
    apply_gate(state, "X", [off])
    apply_gate(state, "H", [off])
    return state


def phase_oracle(
    state: DenseState,
    pattern: np.ndarray,
    index_register: str = "idx",
    ancilla: str | None = None,
) -> DenseState:
    """Multiply the amplitude of index value a by -1 where pattern[a] is True.

    `pattern` is a bool array over the index register's values.  With
    `ancilla` given (a flag qubit prepared in |->), the oracle is
    realized as the XOR permutation on that qubit, which kicks the phase
    back onto the index register; without it the phase is applied
    directly.  Both act identically on |-> ancillas.
    """
    if pattern.dtype != bool or pattern.shape != (1 << state.layout.width(index_register),):
        raise ValueError("pattern must be a bool array over the index register's values")
    values = state.register_values(index_register)
    hit = pattern[values]
    if ancilla is None:
        state.amps[hit] = -state.amps[hit]
    else:
        bit = 1 << state.layout.offset(ancilla)
        idx = np.arange(state.amps.size)
        out = state.amps.copy()
        out[idx[hit]] = state.amps[idx[hit] ^ bit]
        state.amps = out
    state.check_norm()
    return state


def diffusion(state: DenseState, index_register: str) -> DenseState:
    """Reflect amplitudes about their mean over the index register.

    Acts as identity on all other registers (sector-wise reflection), so
    callers keeping data registers bound to the index must unbind first.
    """
    off = state.layout.offset(index_register)
    w = state.layout.width(index_register)
    low = 1 << off
    dim = 1 << w
    high = state.amps.size // (low * dim)
    tensor = state.amps.reshape(high, dim, low)
    mean = tensor.mean(axis=1, keepdims=True)
    state.amps = (2.0 * mean - tensor).reshape(-1)
    state.check_norm()
    return state


def bind_data(state: DenseState, data_register: str, table: np.ndarray) -> DenseState:
    """XOR table[a] into a data register (self-inverse: also unbinds)."""
    reg = state.layout.register(data_register)
    values = state.register_values(reg.depends_on)
    shift = state.layout.offset(data_register)
    src = np.arange(state.amps.size) ^ (table[values].astype(np.int64) << shift)
    state.amps = state.amps[src]
    state.check_norm()
    return state


def measure(state: DenseState, rng: np.random.Generator) -> dict[str, int]:
    """Sample all registers from the Born distribution and collapse."""
    probs = np.abs(state.amps) ** 2
    probs /= probs.sum()
    outcome = int(rng.choice(state.amps.size, p=probs))
    collapsed = np.zeros_like(state.amps)
    collapsed[outcome] = 1.0
    state.amps = collapsed
    return {r.name: int(state.layout.extract(r.name, outcome)) for r in state.layout.registers}


def project_flag_minus(state: DenseState, flag_register: str) -> np.ndarray:
    """Amplitudes over the remaining registers given the flag sits in |->.

    Raises if the flag is not exactly |->-factored (beyond NORM_TOL).
    """
    off = state.layout.offset(flag_register)
    bit = 1 << off
    idx = np.arange(state.amps.size)
    keep = (idx & bit) == 0
    a0 = state.amps[idx[keep]]
    a1 = state.amps[idx[keep] ^ bit]
    reduced = (a0 - a1) * _SQRT2_INV
    residual = float(np.sum(np.abs((a0 + a1) * _SQRT2_INV) ** 2))
    if residual > NORM_TOL:
        raise ValueError("flag register is not in the |-> state")
    return reduced


def _check_index_array(marked: np.ndarray) -> None:
    # both backends refuse a bool mask, which only one would read as a mask
    if marked.dtype.kind not in "iu":
        raise ValueError(f"marked must be an integer index array, got dtype {marked.dtype}")


# Up to this many cdf segments `measure_index` sums in Python floats; past
# it, numpy's fixed cost per call is the smaller one.
SCALAR_MEASURE_SEGMENTS = 64
# shared empty arrays, never written: every write replaces a non-empty one
_NO_INDEX = np.empty(0, dtype=np.int64)
_NO_VALUES = np.empty(0)
_NO_INDEX.flags.writeable = _NO_VALUES.flags.writeable = False


def _cdf_segment(
    index: Sequence[int], mass: Sequence[float], cdf: Sequence[float], seg: int,
    target: float, base_prob: float, size: int,
) -> int:
    """The basis index at `target` within cdf segment `seg`.

    Segments alternate: the run of base-amplitude indices before index[j]
    (each of probability `base_prob`), then index[j] itself, and finally
    the run after the last one.  u times the total can round up to the
    total, so the pick stays on the last segment with mass.
    """
    last = len(mass) - 1
    while not mass[last]:
        last -= 1
    seg = min(seg, last)
    run = seg // 2
    if seg % 2:
        return int(index[run])
    start = int(index[run - 1]) + 1 if run else 0
    end = int(index[run]) if run < len(index) else size
    offset = int((target - (cdf[seg - 1] if seg else 0.0)) / base_prob)
    return start + min(offset, end - start - 1)


class StructuredState:
    """Amplitudes over a padded index domain plus classical binding tables.

    Bindings map every padded index value to the content of the
    corresponding data register; padding entries carry whatever sentinel
    the caller installed.  They are validated once, held read-only, and
    shared by every `copy`.  A new state is the uniform superposition.

    Phase flips and reflections about the mean keep every amplitude real
    and keep equal the amplitudes of indices marked by the same queries.
    So the state is three things:

    - the base amplitude, shared by every never-marked index;
    - the group: the index array the first marking adopted, with one
      shared amplitude.  A one-sided oracle marks every target in every
      query, so its targets stay in the group for the whole run (the
      two-dimensional picture of Boyer, Brassard, Hoyer and Tapp);
    - sorted exception indices, disjoint from the group, each with its
      own amplitude: indices marked by some queries but not by all.

    A step that marks exactly the group costs O(1) scalar work; any other
    step costs O(exceptions + marked).
    """

    def __init__(
        self,
        layout: RegisterLayout,
        domain_size: int,
        bindings: Mapping[str, np.ndarray] | None = None,
        index_register: str = "idx",
    ):
        self.layout = layout
        self.domain_size = domain_size
        self.index_register = index_register
        self.size = padded_size(domain_size)
        if (1 << layout.width(index_register)) != self.size:
            raise ValueError("index register width does not cover the padded domain")
        self.bindings: dict[str, np.ndarray] = {}
        for r in layout.registers:
            if r.role != "data":
                continue
            if bindings is None or r.name not in bindings:
                raise ValueError(f"missing binding for data register {r.name!r}")
            table = np.asarray(bindings[r.name], dtype=np.int64)
            if table.shape != (self.size,):
                raise ValueError(f"binding for {r.name!r} must cover the padded domain")
            if table.max(initial=0) >= (1 << r.width):
                raise ValueError(f"binding for {r.name!r} overflows its register width")
            if table.flags.writeable or not table.flags.owndata:
                # writable here or through the array it views: keep a copy
                table = table.copy()
                table.flags.writeable = False
            self.bindings[r.name] = table
        self._base = 1.0 / math.sqrt(self.size)
        self._group = _NO_INDEX
        self._group_amp = 0.0
        self._index = _NO_INDEX
        self._values = _NO_VALUES
        self.check_norm()

    def copy(self) -> "StructuredState":
        """An independent state equal to this one, sharing its validated
        layout and read-only bindings."""
        out = StructuredState.__new__(StructuredState)
        out.__dict__ = self.__dict__.copy()
        out.bindings = dict(self.bindings)
        out._values = self._values.copy()
        out.check_norm()
        return out

    @property
    def amps(self) -> np.ndarray:
        """The full amplitude vector, built on each read; read-only."""
        out = np.full(self.size, self._base)
        out[self._group] = self._group_amp
        out[self._index] = self._values
        out.flags.writeable = False
        return out

    def check_norm(self) -> None:
        group = self._group.size
        rest = self.size - group - self._index.size
        norm = self._base * self._base * rest + self._group_amp * self._group_amp * group
        if self._index.size:
            norm += float(np.dot(self._values, self._values))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm} drifted beyond tolerance")

    def apply_phase_pattern(self, marked: np.ndarray) -> "StructuredState":
        """Negate the amplitudes at `marked`, sorted distinct indices.

        While every index holds the base amplitude, `marked` is adopted as
        the group, unmodified and uncopied: callers must not write an array
        they pass.  Marking the group again, or a superset of it, negates
        the group's one amplitude.  A marking that leaves out a group
        member dissolves the group into the exceptions.  A marked index
        outside the group that was never marked before leaves the base and
        becomes an exception holding the base amplitude before it is
        negated.
        """
        _check_index_array(marked)
        if marked is self._group:
            # an exact query's shared targets: every marked index is in the group
            self._group_amp = -self._group_amp
            return self
        if self._group.size == 0 and self._index.size == 0:
            # every amplitude is the base: adopt the marking as the group
            self._group = marked
            self._group_amp = -self._base
            return self
        if self._group.size:
            pos = np.searchsorted(marked, self._group)
            if marked.size and (marked.take(pos, mode="clip") == self._group).all():
                self._group_amp = -self._group_amp
                marked = np.delete(marked, pos)
            else:
                self._dissolve_group()
        if marked.size == 0:
            return self
        if self._index.size == 0:
            # no exception to look up (`take` needs one); the index array is
            # replaced, never written, so `marked` can be shared
            self._index = marked
            self._values = np.full(marked.size, -self._base)
            return self
        pos = np.searchsorted(self._index, marked)
        known = self._index.take(pos, mode="clip") == marked
        if not known.all():
            self._merge(marked[~known], np.full(int((~known).sum()), self._base))
            pos = np.searchsorted(self._index, marked)
        self._values[pos] *= -1.0
        return self

    def _merge(self, index: np.ndarray, values: np.ndarray) -> None:
        """Add exceptions at `index`, none of them an exception yet."""
        index = np.concatenate((self._index, index))
        order = np.argsort(index)
        self._index = index[order]
        self._values = np.concatenate((self._values, values))[order]

    def _dissolve_group(self) -> None:
        self._merge(self._group, np.full(self._group.size, self._group_amp))
        self._group = _NO_INDEX
        self._group_amp = 0.0

    def diffuse(self) -> "StructuredState":
        group = self._group.size
        rest = self.size - group - self._index.size
        total = self._base * rest + self._group_amp * group
        if self._index.size:
            total += float(self._values.sum())
        twice_mean = 2.0 * (total / self.size)
        self._base = twice_mean - self._base
        self._group_amp = twice_mean - self._group_amp
        if self._index.size:
            np.subtract(twice_mean, self._values, out=self._values)
        self.check_norm()
        return self

    def measure_index(self, rng: np.random.Generator) -> int:
        """Sample an index from the Born distribution and collapse onto it.

        One `rng.random()` is inverted through the cdf in index order,
        the draw `rng.choice(size, p=probs)` makes, so both backends pick
        the same index from the same generator state.  The cdf runs over
        alternating segments: the base run before each index off the base
        (group or exception), then that index itself, then the run after
        the last one.  Up to SCALAR_MEASURE_SEGMENTS segments it is summed
        in Python floats, left to right as `np.cumsum` adds, and searched
        with `bisect_right` as `searchsorted(side="right")` does, so both
        paths pick the same index from the same draw.
        """
        base_prob = self._base * self._base
        segments = 2 * (self._group.size + self._index.size) + 1
        if segments <= SCALAR_MEASURE_SEGMENTS:
            index = self._group.tolist() + self._index.tolist()
            values = [self._group_amp] * self._group.size + self._values.tolist()
            if self._group.size and self._index.size:
                order = sorted(range(len(index)), key=index.__getitem__)
                index = [index[k] for k in order]
                values = [values[k] for k in order]
            mass, start = [], 0
            for i, value in zip(index, values):
                mass += ((i - start) * base_prob, value * value)
                start = i + 1
            mass.append((self.size - start) * base_prob)
            cdf = list(accumulate(mass))
            target = rng.random() * cdf[-1]
            seg = bisect_right(cdf, target)
        else:
            index = np.concatenate((self._group, self._index))
            values = np.concatenate((np.full(self._group.size, self._group_amp), self._values))
            order = np.argsort(index)
            index, values = index[order], values[order]
            starts = np.concatenate(([0], index + 1))
            ends = np.concatenate((index, [self.size]))
            mass = np.empty(segments)
            mass[0::2] = (ends - starts) * base_prob
            mass[1::2] = values * values
            cdf = np.cumsum(mass)
            target = rng.random() * cdf[-1]
            seg = int(np.searchsorted(cdf, target, side="right"))
        outcome = _cdf_segment(index, mass, cdf, seg, target, base_prob, self.size)
        # collapsed: the outcome alone, a group of one, holds amplitude 1
        self._base = 0.0
        self._group = np.array([outcome], dtype=np.int64)
        self._group_amp = 1.0
        self._index = _NO_INDEX
        self._values = _NO_VALUES
        return outcome

    def index_probabilities(self) -> np.ndarray:
        return self.amps**2

    @property
    def index_width(self) -> int:
        return self.layout.width(self.index_register)

    def values_at(self, i: int, registers: Sequence[str]) -> tuple[int, ...]:
        """Bound data values at index value i, read from the binding tables."""
        if not 0 <= i < self.size:
            raise IndexError(f"index {i} outside padded domain {self.size}")
        return tuple(int(self.bindings[name][i]) for name in registers)


class DenseSearchState:
    """Adapter presenting a DenseState as a Grover search space.

    The phase oracle kicks back off the |-> flag register; diffusion
    unbinds any data registers, reflects the index register, and rebinds,
    so the index amplitudes evolve exactly as in the structured backend.
    Index measurement samples the index marginal (consuming one draw,
    keeping rng streams aligned across backends) and collapses.
    """

    def __init__(
        self,
        state: DenseState,
        index_register: str = "idx",
        flag_register: str | None = "xi",
        data_tables: dict[str, np.ndarray] | None = None,
    ):
        self.state = state
        self.index_register = index_register
        self.flag_register = flag_register
        self.data_tables = data_tables or {}
        self.size = 1 << state.layout.width(index_register)

    @property
    def index_width(self) -> int:
        return self.state.layout.width(self.index_register)

    def apply_phase_pattern(self, marked: np.ndarray) -> None:
        """Flip the phase of the index values in `marked`."""
        _check_index_array(marked)
        pattern = np.zeros(self.size, dtype=bool)
        pattern[marked] = True
        phase_oracle(self.state, pattern, self.index_register, ancilla=self.flag_register)

    def diffuse(self) -> None:
        for name, table in self.data_tables.items():
            bind_data(self.state, name, table)
        diffusion(self.state, self.index_register)
        for name, table in self.data_tables.items():
            bind_data(self.state, name, table)

    def index_probabilities(self) -> np.ndarray:
        probs = np.abs(self.state.amps) ** 2
        values = self.state.register_values(self.index_register)
        return np.bincount(values, weights=probs, minlength=self.size)

    def measure_index(self, rng: np.random.Generator) -> int:
        probs = self.index_probabilities()
        probs /= probs.sum()
        outcome = int(rng.choice(self.size, p=probs))
        keep = self.state.register_values(self.index_register) == outcome
        amps = np.where(keep, self.state.amps, 0.0)
        self.state.amps = amps / math.sqrt(float(np.sum(np.abs(amps) ** 2)))
        return outcome

    def values_at(self, i: int, registers: Sequence[str]) -> tuple[int, ...]:
        """Data values of a basis state with index value i and nonzero amplitude.

        Read from the amplitude support, not from `data_tables`, so it
        shows what the evolved state actually holds.
        """
        idx_values = self.state.register_values(self.index_register)
        support = np.flatnonzero((np.abs(self.state.amps) > 0) & (idx_values == i))
        if support.size == 0:
            raise IndexError(f"index {i} has no amplitude support")
        basis = int(support[0])
        return tuple(int(self.state.layout.extract(name, basis)) for name in registers)


SearchState = StructuredState | DenseSearchState


def search_state(
    mode: str,
    layout: RegisterLayout,
    domain_size: int,
    bindings: Mapping[str, np.ndarray] | None = None,
) -> SearchState:
    """A fresh uniform superposition over the index register of `layout`,
    with each data register bound to its table.

    `mode` names the backend: "structured" keeps one amplitude per index
    value; "dense" appends a phase-kickback flag register "xi", prepares
    the index uniformly, XORs in each table in order, and puts the flag
    in |->.
    """
    index = next(r.name for r in layout.registers if r.role == "index")
    if mode == "structured":
        return StructuredState(layout, domain_size, bindings, index_register=index)
    if mode != "dense":
        raise ValueError(f"unknown mode {mode!r}")
    if (1 << layout.width(index)) != padded_size(domain_size):
        raise ValueError("index register width does not cover the padded domain")
    bindings = bindings or {}
    state = DenseState(RegisterLayout([*layout.registers, Register("xi", 1, "flag")]))
    prepare_uniform(state, index)
    for name, table in bindings.items():
        bind_data(state, name, table)
    prepare_minus(state, "xi")
    return DenseSearchState(state, index, "xi", data_tables=bindings)


def search_copy(mode: str, template: StructuredState) -> SearchState:
    """A fresh uniform search state over the layout and bindings of
    `template`, a structured state that is never evolved: in the
    structured backend a copy of it, so its bindings are validated once
    for every copy; in the dense backend a state built from them."""
    if mode == "structured":
        return template.copy()
    return search_state(mode, template.layout, template.domain_size, template.bindings)


def expand_structured(state: StructuredState, cap: int = DENSE_WIDTH_CAP) -> DenseState:
    """Dense state with amplitude of |a>|f1(a)>... equal to the structured amplitude.

    Covers the index and data registers of the layout; ancilla and flag
    registers are algorithm-managed and excluded from expansion.
    """
    regs = [r for r in state.layout.registers if r.role in ("index", "data")]
    layout = RegisterLayout(regs)
    if layout.total_width > cap:
        raise ValueError(f"expansion of {layout.total_width} qubits exceeds cap {cap}")
    basis = np.arange(state.size, dtype=np.int64) << layout.offset(state.index_register)
    for name, table in state.bindings.items():
        basis |= table << layout.offset(name)
    amps = np.zeros(1 << layout.total_width, dtype=complex)
    amps[basis] = state.amps
    return DenseState(layout, amps)


def dump_state(state: DenseState, path: str) -> None:
    """Write `basis_index,re,im` lines for debugging."""
    with open(path, "w", encoding="ascii") as fh:
        for i, amp in enumerate(state.amps):
            fh.write(f"{i},{float(amp.real)!r},{float(amp.imag)!r}\n")
