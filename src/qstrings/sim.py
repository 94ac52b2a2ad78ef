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
any other step O(exceptions + marked); `target_steps` runs a stretch of
target-only steps as one loop over Python floats.  Measuring a uniform
state takes one division, and a state without exceptions builds its cdf
from the sorted group and its one amplitude, with no sort and no merge.
Every path picks the index that one cdf over all the segments picks
from the same draw.  The two backends must agree amplitude-for-amplitude
after expansion.

Dense diffusion acts on the index register only (identity elsewhere),
so algorithms that keep data registers entangled with the index must
unbind the data (XOR the binding out), diffuse, and rebind; the
structured backend gets the same effect for free.  DenseSearchState
does that bookkeeping.  The two search-state classes share one
interface, and algorithm code takes the backend as a class:
`backend(layout, domain_size, bindings)` builds a fresh uniform search
state, and `backend.like(template)` one over the layout and bindings of
a structured template validated once.

A register layout is an ordered map from register name to width, such
as `RegisterLayout(idx=3, whash=5)`.  `search_layout(domain_size,
**data_widths)` builds every search layout: first the index register,
found by its name "idx", over the padded domain, then the data
registers bound to it.  Every register but "idx" holds data; the dense
backend appends its phase flag "xi" as one more width.

Conventions: qubit 0 is the least-significant bit of the flat basis
index, and each register occupies a contiguous run of qubits with its
own LSB first.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate, repeat
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


class RegisterLayout:
    """Registers in order, each a name mapped to its width in qubits,
    such as `RegisterLayout(idx=3, whash=5)`.  Each register occupies the
    qubits after the one before it; the total width is the sum of the
    widths."""

    def __init__(self, **widths: int):
        if min(widths.values(), default=1) < 1:
            raise ValueError("register width must be at least 1")
        self.widths = widths
        self._offsets = dict(zip(widths, accumulate(widths.values(), initial=0)))
        self.total_width = sum(widths.values())

    def offset(self, name: str) -> int:
        return self._offsets[name]

    def width(self, name: str) -> int:
        return self.widths[name]

    def extract(self, name: str, basis_index: int | np.ndarray):
        """Value of a register within a flat basis index (vectorized)."""
        return (basis_index >> self._offsets[name]) & ((1 << self.widths[name]) - 1)


def padded_size(domain: int) -> int:
    """Smallest power of two >= domain coverable by a register (so >= 2)."""
    if domain < 1:
        raise ValueError("domain must be positive")
    return 1 << max(1, (domain - 1).bit_length())


def search_layout(domain_size: int, **data_widths: int) -> RegisterLayout:
    """An index register "idx" over the padded domain, then one data
    register of each given width, bound to it, in keyword order."""
    return RegisterLayout(idx=padded_size(domain_size).bit_length() - 1, **data_widths)


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
    """XOR table[a], at index value a of "idx", into a data register
    (self-inverse: also unbinds)."""
    values = state.register_values("idx")
    shift = state.layout.offset(data_register)
    src = np.arange(state.amps.size) ^ (table[values].astype(np.int64) << shift)
    state.amps = state.amps[src]
    state.check_norm()
    return state


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


def _check_index_register(layout: RegisterLayout, domain_size: int) -> None:
    """A search layout holds the index register "idx", covering the padded domain."""
    if "idx" not in layout.widths:
        raise ValueError("a search layout needs an index register 'idx'")
    if (1 << layout.width("idx")) != padded_size(domain_size):
        raise ValueError("index register width does not cover the padded domain")


def _validated_bindings(
    layout: RegisterLayout, size: int, bindings: Mapping[str, np.ndarray] | None
) -> dict[str, np.ndarray]:
    """One read-only int64 table over the `size` padded indices per data
    register (every register but the index), in layout order, each
    checked to fit its register."""
    tables = {}
    for name, width in layout.widths.items():
        if name == "idx":
            continue
        if bindings is None or name not in bindings:
            raise ValueError(f"missing binding for data register {name!r}")
        table = np.asarray(bindings[name], dtype=np.int64)
        if table.shape != (size,):
            raise ValueError(f"binding for {name!r} must cover the padded domain")
        if table.max(initial=0) >= (1 << width):
            raise ValueError(f"binding for {name!r} overflows its register width")
        if table.flags.writeable or not table.flags.owndata:
            # writable here or through the array it views: keep a copy
            table = table.copy()
            table.flags.writeable = False
        tables[name] = table
    return tables


def _check_index_array(marked: np.ndarray) -> None:
    # both backends refuse a bool mask, which only one would read as a mask
    if marked.dtype.kind not in "iu":
        raise ValueError(f"marked must be an integer index array, got dtype {marked.dtype}")


# Up to this many cdf segments `measure_index` sums in Python floats; past
# it, numpy's fixed cost per call is the smaller one.  Measured on a
# 2-vCPU Xeon VM (numpy 2.4.6), on group-only states of g random indices
# out of 4096, Python floats against numpy, best of 15 per state: 8-10
# against 11-13 us at 33 segments, 12-14 against 12-13 us from 57 to 65
# segments, where they cross, and 19-22 against 11-13 us at 129.
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

    A step that marks exactly the group costs O(1) scalar work, and
    `target_steps` runs a stretch of them as one loop over Python
    floats; any other step costs O(exceptions + marked).  Measuring a
    state without exceptions reads the group, already sorted, as is.
    A copy shares the bindings and the empty arrays, and copies only
    exception amplitudes.
    """

    def __init__(
        self,
        layout: RegisterLayout,
        domain_size: int,
        bindings: Mapping[str, np.ndarray] | None = None,
    ):
        _check_index_register(layout, domain_size)
        self.layout = layout
        self.domain_size = domain_size
        self.size = padded_size(domain_size)
        self.bindings = _validated_bindings(layout, self.size, bindings)
        self._base = 1.0 / math.sqrt(self.size)
        self._group = _NO_INDEX
        self._group_amp = 0.0
        self._index = _NO_INDEX
        self._values = _NO_VALUES
        self.check_norm()

    @classmethod
    def like(cls, template: "StructuredState") -> "StructuredState":
        """A fresh uniform state over the layout and bindings of `template`,
        a state that is never evolved: a copy of it, so its bindings are
        validated once for every copy."""
        return template.copy()

    def copy(self) -> "StructuredState":
        """An independent state equal to this one, sharing its validated
        layout and read-only bindings."""
        out = StructuredState.__new__(StructuredState)
        out.__dict__ = self.__dict__.copy()
        out.bindings = dict(self.bindings)
        if self._values.size:  # an empty array, such as _NO_VALUES, is shared
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

    def target_steps(self, targets: np.ndarray, count: int) -> "StructuredState":
        """`count` steps that each mark exactly `targets`, then diffuse.

        When `targets` is the group, or a uniform state adopts it, no
        step changes which indices are off the base, so the steps run as
        one scalar loop: each does the float operations of
        `apply_phase_pattern(targets)` then `diffuse()`, in the same
        order, norm check included.  Without exceptions the loop holds
        only Python floats: the index counts are hoisted as floats, which
        multiply and divide as the ints do.  Otherwise each step calls
        those two methods.
        """
        if count and not self._group.size and not self._index.size:
            # every amplitude is the base: the first marking adopts the
            # targets as the group, and the loop negates the base for it
            self._group, self._group_amp = targets, self._base
        if targets is not self._group:
            # the targets can become the group only in a uniform state
            for _ in range(count):
                self.apply_phase_pattern(targets)
                self.diffuse()
            return self
        base, amp, values = self._base, self._group_amp, self._values
        group = self._group.size
        rest = self.size - group - values.size
        tol = NORM_TOL
        if values.size:
            for _ in range(count):
                amp = -amp
                total = base * rest + amp * group + float(values.sum())
                twice_mean = 2.0 * (total / self.size)
                base = twice_mean - base
                amp = twice_mean - amp
                np.subtract(twice_mean, values, out=values)
                norm = base * base * rest + amp * amp * group + float(np.dot(values, values))
                if abs(norm - 1.0) > tol:
                    self._base, self._group_amp = base, amp
                    raise ValueError(f"state norm {norm} drifted beyond tolerance")
        else:
            group, rest, size = float(group), float(rest), float(self.size)
            for _ in range(count):
                amp = -amp
                twice_mean = 2.0 * ((base * rest + amp * group) / size)
                base = twice_mean - base
                amp = twice_mean - amp
                norm = base * base * rest + amp * amp * group
                if abs(norm - 1.0) > tol:
                    self._base, self._group_amp = base, amp
                    raise ValueError(f"state norm {norm} drifted beyond tolerance")
        self._base, self._group_amp = base, amp
        return self

    def measure_index(self, rng: np.random.Generator) -> int:
        """Sample an index from the Born distribution and collapse onto it.

        One `rng.random()` is inverted through the cdf in index order,
        the draw `rng.choice(size, p=probs)` makes, so both backends pick
        the same index from the same generator state.  The cdf runs over
        alternating segments: the base run before each index off the base
        (group or exception), then that index itself, then the run after
        the last one.  A uniform state has one segment, so its pick is
        the draw times the total, over the base probability, with no cdf
        built.  Up to SCALAR_MEASURE_SEGMENTS segments the cdf is summed
        in Python floats, left to right as `np.add.accumulate` adds, and
        searched with `bisect_right` as `searchsorted(side="right")` does;
        past it, in numpy.  So every path picks the same index from the
        same draw.  The group is sorted and shares one amplitude, so a
        state without exceptions builds its masses from the group's gaps
        and that amplitude, with no sort or merge; only exceptions need
        them.
        """
        base_prob = self._base * self._base
        segments = 2 * (self._group.size + self._index.size) + 1
        if segments == 1:
            # uniform: one segment, the base run over every index
            target = rng.random() * (self.size * base_prob)
            outcome = min(int(target / base_prob), self.size - 1)
        elif segments <= SCALAR_MEASURE_SEGMENTS:
            index = self._group.tolist()
            if self._index.size:
                index += self._index.tolist()
                values = [self._group_amp] * self._group.size + self._values.tolist()
                if self._group.size:
                    order = sorted(range(len(index)), key=index.__getitem__)
                    index = [index[k] for k in order]
                    values = [values[k] for k in order]
                probs = [value * value for value in values]
            else:
                probs = repeat(self._group_amp * self._group_amp)
            mass, start = [], 0
            for i, prob in zip(index, probs):
                mass += ((i - start) * base_prob, prob)
                start = i + 1
            mass.append((self.size - start) * base_prob)
            cdf = list(accumulate(mass))
            target = rng.random() * cdf[-1]
            seg = bisect_right(cdf, target)
            outcome = _cdf_segment(index, mass, cdf, seg, target, base_prob, self.size)
        else:
            index = self._group
            mass = np.empty(segments)
            if self._index.size:
                index = np.concatenate((index, self._index))
                order = np.argsort(index)
                index = index[order]
                values = np.concatenate((np.full(self._group.size, self._group_amp),
                                         self._values))[order]
                np.multiply(values, values, out=mass[1::2])
            else:
                mass[1::2] = self._group_amp * self._group_amp
            # each base run's mass, from the gaps between the sorted indices
            gaps = index[1:] - index[:-1]
            gaps -= 1
            np.multiply(gaps, base_prob, out=mass[2:-1:2])
            mass[0] = int(index[0]) * base_prob  # Python ints: numpy scalars cost more
            mass[-1] = (self.size - 1 - int(index[-1])) * base_prob
            cdf = np.add.accumulate(mass)
            target = rng.random() * float(cdf[-1])
            seg = int(cdf.searchsorted(target, "right"))
            outcome = _cdf_segment(index, mass, cdf, seg, target, base_prob, self.size)
        # collapsed: the outcome alone, a group of one, holds amplitude 1
        self._base = 0.0
        self._group = np.array([outcome], dtype=np.int64)
        self._group_amp = 1.0
        self._index = _NO_INDEX
        self._values = _NO_VALUES
        return outcome

    @property
    def index_width(self) -> int:
        return self.layout.width("idx")

    def values_at(self, i: int, registers: Sequence[str]) -> tuple[int, ...]:
        """Bound data values at index value i, read from the binding tables."""
        if not 0 <= i < self.size:
            raise IndexError(f"index {i} outside padded domain {self.size}")
        return tuple(int(self.bindings[name][i]) for name in registers)


class DenseSearchState:
    """A DenseState presented as a Grover search space.

    A new state appends a phase-kickback flag register "xi" to the
    layout, prepares the index uniformly, XORs in each binding table in
    order, and puts the flag in |->.  The phase oracle kicks back off the
    flag; diffusion unbinds the data registers, reflects the index
    register, and rebinds, so the index amplitudes evolve exactly as in
    the structured backend.  Index measurement samples the index
    marginal (consuming one draw, keeping rng streams aligned across
    backends) and collapses.
    """

    flag_register = "xi"

    def __init__(
        self,
        layout: RegisterLayout,
        domain_size: int,
        bindings: Mapping[str, np.ndarray] | None = None,
    ):
        _check_index_register(layout, domain_size)
        if self.flag_register in layout.widths:
            raise ValueError(f"register name {self.flag_register!r} is taken by the phase flag")
        self.size = padded_size(domain_size)
        self.data_tables = _validated_bindings(layout, self.size, bindings)
        self.state = DenseState(RegisterLayout(**layout.widths, **{self.flag_register: 1}))
        prepare_uniform(self.state, "idx")
        for name, table in self.data_tables.items():
            bind_data(self.state, name, table)
        prepare_minus(self.state, self.flag_register)

    @classmethod
    def like(cls, template: StructuredState) -> "DenseSearchState":
        """A fresh uniform state over the layout and bindings of `template`."""
        return cls(template.layout, template.domain_size, template.bindings)

    @property
    def index_width(self) -> int:
        return self.state.layout.width("idx")

    def apply_phase_pattern(self, marked: np.ndarray) -> None:
        """Flip the phase of the index values in `marked`."""
        _check_index_array(marked)
        pattern = np.zeros(self.size, dtype=bool)
        pattern[marked] = True
        phase_oracle(self.state, pattern, "idx", ancilla=self.flag_register)

    def diffuse(self) -> None:
        for name, table in self.data_tables.items():
            bind_data(self.state, name, table)
        diffusion(self.state, "idx")
        for name, table in self.data_tables.items():
            bind_data(self.state, name, table)

    def target_steps(self, targets: np.ndarray, count: int) -> None:
        """`count` steps that each mark exactly `targets`, then diffuse."""
        for _ in range(count):
            self.apply_phase_pattern(targets)
            self.diffuse()

    def index_probabilities(self) -> np.ndarray:
        probs = np.abs(self.state.amps) ** 2
        values = self.state.register_values("idx")
        return np.bincount(values, weights=probs, minlength=self.size)

    def measure_index(self, rng: np.random.Generator) -> int:
        probs = self.index_probabilities()
        probs /= probs.sum()
        outcome = int(rng.choice(self.size, p=probs))
        keep = self.state.register_values("idx") == outcome
        amps = np.where(keep, self.state.amps, 0.0)
        self.state.amps = amps / math.sqrt(float(np.sum(np.abs(amps) ** 2)))
        return outcome

    def values_at(self, i: int, registers: Sequence[str]) -> tuple[int, ...]:
        """Data values of a basis state with index value i and nonzero amplitude.

        Read from the amplitude support, not from `data_tables`, so it
        shows what the evolved state actually holds.
        """
        idx_values = self.state.register_values("idx")
        support = np.flatnonzero((np.abs(self.state.amps) > 0) & (idx_values == i))
        if support.size == 0:
            raise IndexError(f"index {i} has no amplitude support")
        basis = int(support[0])
        return tuple(int(self.state.layout.extract(name, basis)) for name in registers)


SearchState = StructuredState | DenseSearchState


def expand_structured(state: StructuredState) -> DenseState:
    """Dense state with amplitude of |a>|f1(a)>... equal to the structured
    amplitude, over the structured state's own layout."""
    layout = state.layout
    if layout.total_width > DENSE_WIDTH_CAP:
        raise ValueError(
            f"expansion of {layout.total_width} qubits exceeds cap {DENSE_WIDTH_CAP}"
        )
    basis = np.arange(state.size, dtype=np.int64) << layout.offset("idx")
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
