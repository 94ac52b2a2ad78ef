"""Two interchangeable quantum-state backends.

DenseState holds the full 2^q amplitude vector and evolves under the
gates H and X, phase oracles, and index-register diffusion.
StructuredState exploits the shape shared by every state in this
package: a superposition over an index register whose other registers
hold deterministic functions of the index.  It stores the
function tables ("bindings", validated once and read-only) and the index
amplitudes in three parts: one base amplitude shared by every
never-marked index; a group, the index array the first marking adopted,
with one shared amplitude; and sorted exception indices with their own
amplitudes.  A one-sided oracle marks every target in every query, so
the targets share one amplitude for the whole run, the two-dimensional
picture of multi-target search (Boyer, Brassard, Hoyer and Tapp, 1998).
A query that marks exactly the group then costs O(1) scalar work, and
any other step O(exceptions + marked).  One rule splits the steps: a
stretch of target-only steps runs as one loop over Python floats
(`target_steps`), and only a flipped query steps through
`apply_phase_pattern` and `diffuse`.  A uniform state with no targets,
as in the last phase of minimum finding, which searches below the
minimum, is a fixed point of a step: the query marks nothing, and
diffusion maps the base b to 2(b * size / size) - b, which is b exactly
in floats, as the padded size is a power of two; so `target_steps`
takes no step there and runs one norm check.  A state whose only off-base
indices are the group gets a certified closed-form measurement in
O(log g) for g targets: the cdf has a closed form at every segment end,
and the pick stands only where the error bound of a float sum cannot
move it.  A state with exceptions, or a pick the bound refuses, is
measured by the one exact cdf, summed with numpy over one sorted index
array (the group merged by `_merge` into the exceptions).  A uniform
state takes one division.  Every path picks the index that one cdf over
all the segments picks from the same draw.  The two backends must agree
amplitude-for-amplitude after expansion.

Dense diffusion acts on the index register only (identity elsewhere),
so algorithms that keep data registers entangled with the index must
unbind the data (XOR the binding out), diffuse, and rebind; the
structured backend gets the same effect for free.  DenseSearchState
does that bookkeeping.  The two search-state classes share one
interface, and algorithm code takes the backend as a class:
`backend(layout, domain_size, bindings)` builds a fresh uniform search
state, and `backend.like(template)` one over the layout and bindings of
a structured template validated once; it reads none of the template's
amplitudes, so every search state starts uniform on both backends.

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
from itertools import accumulate
from types import MappingProxyType
from typing import Mapping

import numpy as np

NORM_TOL = 1e-9
DENSE_WIDTH_CAP = 24

_SQRT2_INV = 1.0 / math.sqrt(2.0)
GATES_1Q: dict[str, np.ndarray] = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
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
        if not abs(norm - 1.0) <= NORM_TOL:  # also refuses a NaN norm
            raise ValueError(f"state norm {norm} drifted beyond tolerance")

    def register_values(self, name: str) -> np.ndarray:
        return self.layout.extract(name, np.arange(self.amps.size))


def apply_gate(state: DenseState, gate: str, qubit: int) -> DenseState:
    """Apply H or X to one qubit in place."""
    q = state.layout.total_width
    if not 0 <= qubit < q:
        raise ValueError(f"qubit {qubit} out of range for width {q}")
    if gate not in GATES_1Q:
        raise ValueError(f"unknown gate {gate!r}")
    tensor = state.amps.reshape([2] * q)
    axis = q - 1 - qubit
    tensor = np.moveaxis(tensor, axis, -1)
    tensor = np.tensordot(tensor, GATES_1Q[gate], axes=([-1], [1]))
    state.amps = np.moveaxis(tensor, -1, axis).reshape(-1)
    state.check_norm()
    return state


def prepare_uniform(state: DenseState) -> DenseState:
    """Equal superposition over the index register "idx", one Hadamard per qubit."""
    off = state.layout.offset("idx")
    for qubit in range(off, off + state.layout.width("idx")):
        apply_gate(state, "H", qubit)
    return state


def prepare_minus(state: DenseState, register: str) -> DenseState:
    """Put a width-1 register into (|0> - |1>)/sqrt(2) via X then H."""
    if state.layout.width(register) != 1:
        raise ValueError("minus preparation expects a single-qubit register")
    off = state.layout.offset(register)
    apply_gate(state, "X", off)
    apply_gate(state, "H", off)
    return state


def phase_oracle(
    state: DenseState, pattern: np.ndarray, ancilla: str | None = None
) -> DenseState:
    """Multiply the amplitude of index value a by -1 where pattern[a] is True.

    `pattern` is a bool array over the values of the index register
    "idx".  With `ancilla` given (a flag qubit prepared in |->), the
    oracle is realized as the XOR permutation on that qubit, which kicks
    the phase back onto the index register; without it the phase is
    applied directly.  Both act identically on |-> ancillas.
    """
    if pattern.dtype != bool or pattern.shape != (1 << state.layout.width("idx"),):
        raise ValueError("pattern must be a bool array over the index register's values")
    values = state.register_values("idx")
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


def diffusion(state: DenseState) -> DenseState:
    """Reflect amplitudes about their mean over the index register "idx".

    Acts as identity on all other registers (sector-wise reflection), so
    callers keeping data registers bound to the index must unbind first.
    """
    off = state.layout.offset("idx")
    w = state.layout.width("idx")
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
    if not residual <= NORM_TOL:  # also refuses a NaN residual
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
) -> Mapping[str, np.ndarray]:
    """One read-only int64 table over the `size` padded indices per data
    register (every register but the index), in layout order, each
    checked to fit its register, in a read-only mapping that every state
    `like` starts from the same template shares."""
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
    return MappingProxyType(tables)


def _check_index_array(marked: np.ndarray) -> None:
    # both backends refuse a bool mask, which only one would read as a mask
    if marked.dtype.kind not in "iu":
        raise ValueError(f"marked must be an integer index array, got dtype {marked.dtype}")


# shared empty arrays, never written: every write replaces a non-empty one
_NO_INDEX = np.empty(0, dtype=np.int64)
_NO_VALUES = np.empty(0)
_NO_INDEX.flags.writeable = _NO_VALUES.flags.writeable = False


def _cdf_segment(
    index: np.ndarray, mass: np.ndarray, cdf: np.ndarray, seg: int,
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
    shared by every state that `like` starts from the same template.  A
    new state is the uniform superposition.

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

    A step that marks exactly the group costs O(1) scalar work, plus
    O(exceptions); any other step O(exceptions + marked).  Target-only
    steps run as one loop (`target_steps`); only a flipped query takes
    `apply_phase_pattern` and `diffuse`.  A state without exceptions gets
    a certified closed-form pick in O(log g); one with exceptions, or a
    pick the closed form refuses, gets the one exact cdf, summed with
    numpy over the group and exceptions merged by `_merge`.
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
        which its constructor validated and normalised for this size, so
        nothing is copied or checked again; none of the template's
        amplitudes is read."""
        out = cls.__new__(cls)
        out.layout, out.domain_size = template.layout, template.domain_size
        out.size, out.bindings = template.size, template.bindings
        out._base = 1.0 / math.sqrt(out.size)
        out._group = out._index = _NO_INDEX
        out._group_amp = 0.0
        out._values = _NO_VALUES
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
        if not abs(norm - 1.0) <= NORM_TOL:  # also refuses a NaN norm
            raise ValueError(f"state norm {norm} drifted beyond tolerance")

    def apply_phase_pattern(self, marked: np.ndarray) -> "StructuredState":
        """Negate the amplitudes at `marked`, sorted distinct indices.

        A Grover run marks here only a flipped query (see `target_steps`).
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

        A uniform state with no targets is a fixed point: each step marks
        nothing and reflects the base onto itself, bit for bit (see the
        module docstring), so it takes no step and runs one norm check.
        A state whose group is `targets`, exceptions or not, or a uniform
        state that adopts them, runs its steps as one loop over Python
        floats: each does the float operations of
        `apply_phase_pattern(targets)` then `diffuse()`, in the same order,
        norm check included, with the index counts hoisted as floats,
        which multiply and divide as the ints do.  Only a state whose
        group is not `targets`, as after a flipped first query, takes
        those two methods per step.
        """
        _check_index_array(targets)
        if count and not self._group.size and not self._index.size:
            if not targets.size:
                self.check_norm()
                return self
            # every amplitude is the base: the first marking adopts the
            # targets as the group, and the loop negates the base for it
            self._group, self._group_amp = targets, self._base
        if targets is not self._group:
            for _ in range(count):
                self.apply_phase_pattern(targets)
                self.diffuse()
            return self
        base, amp, values = self._base, self._group_amp, self._values
        exceptions = values.size > 0  # hoisted: a test per step costs more
        group, size = float(self._group.size), float(self.size)
        rest = size - group - values.size
        tol = NORM_TOL
        for _ in range(count):
            amp = -amp
            total = base * rest + amp * group
            if exceptions:
                total += float(values.sum())
            twice_mean = 2.0 * (total / size)
            base = twice_mean - base
            amp = twice_mean - amp
            norm = base * base * rest + amp * amp * group
            if exceptions:
                np.subtract(twice_mean, values, out=values)
                norm += float(np.dot(values, values))
            if not abs(norm - 1.0) <= tol:  # also refuses a NaN norm
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
        built.  A group-only state gets a certified closed-form pick in
        O(log g) (`_group_pick`); an exception state, or a pick that the
        closed form refuses, gets the one exact cdf, summed with numpy
        (`_cdf_pick`), from the same draw.  So every path picks the same
        index from the same draw.
        """
        base_prob = self._base * self._base
        u = rng.random()
        if not self._group.size and not self._index.size:
            # uniform: one segment, the base run over every index
            target = u * (self.size * base_prob)
            outcome = min(int(target / base_prob), self.size - 1)
        elif self._index.size or (outcome := self._group_pick(u, base_prob)) is None:
            outcome = self._cdf_pick(u, base_prob)
        # collapsed: the outcome alone, a group of one, holds amplitude 1
        self._base = 0.0
        self._group = np.array([outcome], dtype=np.int64)
        self._group_amp = 1.0
        self._index = _NO_INDEX
        self._values = _NO_VALUES
        return outcome

    def _group_pick(self, u: float, base_prob: float) -> int | None:
        """The pick of a group-only state from the draw `u`, read off the
        cdf's closed form, or None where it might differ from the pick of
        the summed cdf.

        With G the sorted group of g members, b the base probability and a
        the group's, member j's segment ends at (G[j] - j) b + (j + 1) a,
        and the base run before it a below that; the total is
        (size - g) b + g a.  So a binary search over the members, written
        inline on that expression, finds the target's segment in O(log g):
        the first member whose end lies above the target, as
        `bisect_right` keyed on the ends would.  Every value the summed cdf
        compares the target with is a left-to-right float sum of at most
        N = 2g + 1 non-negative masses, within gamma_N times the total of
        this form (Higham, Accuracy and Stability of Numerical Algorithms,
        4.2), and so is the target, u times that sum's total.  The pick
        stands only where the target lies more than three such bounds
        inside its segment and, in a base run, where the offset floors
        alike at both ends of that margin; otherwise the caller sums the
        cdf.
        """
        group, amp_prob = self._group, self._group_amp * self._group_amp
        g = group.size
        total = (self.size - g) * base_prob + g * amp_prob
        n = 2 * g + 1
        # gamma_n with room for the roundings of each mass and of this form,
        # plus the absolute error of products that underflow
        margin = 3.0 * ((n + 8) * 2.0**-51 * total + n * 2.0**-1070)
        target = u * total
        j, hi = 0, g
        while j < hi:
            mid = (j + hi) // 2
            if target < (group.item(mid) - mid) * base_prob + (mid + 1) * amp_prob:
                hi = mid
            else:
                j = mid + 1
        if j:
            start = group.item(j - 1) + 1
            run_start = (start - j) * base_prob + j * amp_prob  # member j - 1's end
        else:
            start, run_start = 0, 0.0
        end = group.item(j) if j < g else self.size
        run_end = (end - j) * base_prob + j * amp_prob
        if run_start + margin < target < run_end - margin:
            # a base run, which has mass only where base_prob > 0
            offset = target - run_start
            low = int((offset - margin) / base_prob)
            high = int((offset + margin) / base_prob)
            return start + min(low, end - start - 1) if low == high else None
        if j < g:
            member_end = (end - j) * base_prob + (j + 1) * amp_prob
            if run_end + margin < target < member_end - margin:
                return end
        return None

    def _cdf_pick(self, u: float, base_prob: float) -> int:
        """The pick from the draw `u` by the exact cdf, for a state with a
        group or exceptions.

        The group is first dissolved into the exceptions with `_merge`, as
        the state collapses right after, so the cdf reads one sorted index
        array: its masses are the squared amplitudes and the base runs'
        index gaps times the base probability, summed left to right by
        `np.add.accumulate` and searched by `searchsorted(side="right")`.
        """
        if self._group.size:
            self._dissolve_group()
        index = self._index
        mass = np.empty(2 * index.size + 1)
        np.multiply(self._values, self._values, out=mass[1::2])
        # each base run's mass, from the gaps between the sorted indices
        gaps = index[1:] - index[:-1]
        gaps -= 1
        np.multiply(gaps, base_prob, out=mass[2:-1:2])
        mass[0] = int(index[0]) * base_prob  # Python ints: numpy scalars cost more
        mass[-1] = (self.size - 1 - int(index[-1])) * base_prob
        cdf = np.add.accumulate(mass)
        target = u * float(cdf[-1])
        seg = int(cdf.searchsorted(target, "right"))
        return _cdf_segment(index, mass, cdf, seg, target, base_prob, self.size)

    @property
    def index_width(self) -> int:
        return self.layout.width("idx")


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
        self.bindings = _validated_bindings(layout, self.size, bindings)
        self.state = DenseState(RegisterLayout(**layout.widths, **{self.flag_register: 1}))
        prepare_uniform(self.state)
        for name, table in self.bindings.items():
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
        phase_oracle(self.state, pattern, ancilla=self.flag_register)

    def diffuse(self) -> None:
        for name, table in self.bindings.items():
            bind_data(self.state, name, table)
        diffusion(self.state)
        for name, table in self.bindings.items():
            bind_data(self.state, name, table)

    def target_steps(self, targets: np.ndarray, count: int) -> None:
        """`count` steps that each mark exactly `targets`, then diffuse."""
        _check_index_array(targets)
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
