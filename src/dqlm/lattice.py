"""Lattice layouts, bit-basis conventions and sparse spin operators.

Basis conventions, pinned once and used everywhere:

* every lattice degree of freedom is one spin-1/2 "slot" holding one bit;
* basis index = sum_k bit_k * 2**k, slot 0 is the least significant bit;
* bit 1 means spin up (occupied site, flux-up link), index 0 is all-down;
* s^z eigenvalues are +1/2 (up) and -1/2 (down);
* operators are scipy CSR matrices in this basis, wrapped together with a
  basis tag so that mixing operators from different spaces fails loudly;
* an operator taking each state to at most one state, as every jump does,
  is a `Monomial` (a bit flip and an amplitude table), whose CSR is built
  only on request;
* an array over the whole register is split at chosen slots by
  `register_axes`: one axis of size 2 per slot, the runs of other bits
  between them merged, most significant first, so the states with a
  given bit at a slot, or their images under a bit flip, are a view
  picked by an index, not a gather.

Slot assignment per layout kind:

* ``chain-obc``  : site n -> 2(n-1) for n=1..L, link (n,n+1) -> 2n-1 for
  n=1..L-1; total 2L-1 spins (sites and links interleave).
* ``chain-pbc``  : same, plus the boundary link (L,1) at slot 2L-1;
  total 2L spins.
* ``hierarchical``: top spins sigma_n at slots 0..L-1, middle spins tau_m
  (m = link (m,m+1), m=1..L-1) at slots L..2L-2, bottom spins s_j
  (j=2..L-1) at slots 2L-1..3L-4; total 3L-3 spins.
* ``square-2d``  : sites (x,y) row-major (x fastest) at slots
  0..Lx*Ly-1, then horizontal links (x+1/2,y) for x=1..Lx-1, then vertical
  links (x,y+1/2) for y=1..Ly-1; total 3*Lx*Ly - Lx - Ly spins.

Every module walks the sites and the links through two slot lists of the
layout, so the order is pinned here once:

* ``site_slots``: chain sites n=1..L; the hierarchical top layer
  sigma_1..sigma_L; square-2d sites row-major (x fastest).
* ``link_slots``: chain links in order, the boundary link last; the
  hierarchical bottom layer s_2..s_{L-1}; square-2d horizontal links,
  then vertical links, each row-major.

Coordinates are 1-based, matching the analytic formulas they feed.
"""

import itertools
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

LAYOUT_KINDS = ("chain-obc", "chain-pbc", "hierarchical", "square-2d")


class LayoutError(ValueError):
    """Raised for an unknown layout kind or an unbuildable size."""


class BasisMismatchError(ValueError):
    """Raised when operators tagged with different bases are combined."""


def is_integer(value):
    """An integer that is not a bool: a JSON `true` or `4.0` is no size."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class LatticeLayout:
    """Geometry plus the slot map for one lattice kind.

    Parameters
    ----------
    kind : str
        One of `LAYOUT_KINDS`.
    L : int
        Chain length, hierarchical length, or Lx for ``square-2d``.
    Ly : int
        Second dimension, ``square-2d`` only (0 elsewhere).
    """

    kind: str
    L: int
    Ly: int = 0

    def __post_init__(self):
        if self.kind not in LAYOUT_KINDS:
            raise LayoutError(f"unknown layout kind {self.kind!r}")
        if not (is_integer(self.L) and is_integer(self.Ly)):
            raise LayoutError(
                f"L and Ly must be integers, got L={self.L!r}, Ly={self.Ly!r}")
        if self.kind == "chain-obc" and self.L < 2:
            raise LayoutError("chain-obc needs L >= 2")
        if self.kind == "chain-pbc" and self.L < 3:
            raise LayoutError("chain-pbc needs L >= 3")
        if self.kind == "hierarchical" and self.L < 3:
            raise LayoutError("hierarchical needs L >= 3 (bottom layer empty otherwise)")
        if self.kind == "square-2d" and (self.L < 2 or self.Ly < 2):
            raise LayoutError("square-2d needs Lx >= 2 and Ly >= 2")
        if self.kind != "square-2d" and self.Ly:
            raise LayoutError(f"Ly only applies to square-2d, got Ly={self.Ly}")

    @property
    def total_spins(self):
        if self.kind == "chain-obc":
            return 2 * self.L - 1
        if self.kind == "chain-pbc":
            return 2 * self.L
        if self.kind == "hierarchical":
            return 3 * self.L - 3
        return 3 * self.L * self.Ly - self.L - self.Ly

    @property
    def nstates(self):
        return 1 << self.total_spins

    @property
    def basis_tag(self):
        return f"spins:{self.total_spins}"

    @property
    def site_slots(self):
        """Slots of the sites, in the order of the module docstring."""
        if self.kind == "hierarchical":
            return [self.top_slot(n) for n in range(1, self.L + 1)]
        if self.kind == "square-2d":
            return [self.site_slot_2d(x, y) for y in range(1, self.Ly + 1)
                    for x in range(1, self.L + 1)]
        return [self.site_slot(n) for n in range(1, self.L + 1)]

    @property
    def link_slots(self):
        """Slots of the links, in the order of the module docstring."""
        if self.kind == "hierarchical":
            return [self.bot_slot(j) for j in range(2, self.L)]
        if self.kind == "square-2d":
            return ([self.hlink_slot(x, y) for y in range(1, self.Ly + 1)
                     for x in range(1, self.L)]
                    + [self.vlink_slot(x, y) for y in range(1, self.Ly)
                       for x in range(1, self.L + 1)])
        return [self.link_slot(m) for m in range(1, self.n_links + 1)]

    # -- chain slots -------------------------------------------------
    def site_slot(self, n):
        """Slot of site n (1-based), chain layouts."""
        self._need("chain-obc", "chain-pbc")
        if not 1 <= n <= self.L:
            raise LayoutError(f"site {n} outside 1..{self.L}")
        return 2 * (n - 1)

    def link_slot(self, n):
        """Slot of link (n, n+1); n = L means the boundary link (L, 1)."""
        self._need("chain-obc", "chain-pbc")
        nlinks = self.L - 1 if self.kind == "chain-obc" else self.L
        if not 1 <= n <= nlinks:
            raise LayoutError(f"link {n} outside 1..{nlinks}")
        return 2 * n - 1

    @property
    def n_links(self):
        self._need("chain-obc", "chain-pbc")
        return self.L - 1 if self.kind == "chain-obc" else self.L

    # -- hierarchical slots ------------------------------------------
    def top_slot(self, n):
        """Slot of top-layer spin sigma_n, n=1..L."""
        self._need("hierarchical")
        if not 1 <= n <= self.L:
            raise LayoutError(f"top spin {n} outside 1..{self.L}")
        return n - 1

    def mid_slot(self, m):
        """Slot of middle-layer spin tau on link (m, m+1), m=1..L-1."""
        self._need("hierarchical")
        if not 1 <= m <= self.L - 1:
            raise LayoutError(f"mid spin {m} outside 1..{self.L - 1}")
        return self.L + m - 1

    def bot_slot(self, j):
        """Slot of bottom-layer spin s_j, j=2..L-1."""
        self._need("hierarchical")
        if not 2 <= j <= self.L - 1:
            raise LayoutError(f"bot spin {j} outside 2..{self.L - 1}")
        return 2 * self.L - 1 + (j - 2)

    # -- square-2d slots ---------------------------------------------
    def site_slot_2d(self, x, y):
        """Slot of site (x, y), x=1..Lx, y=1..Ly."""
        self._need("square-2d")
        self._check_xy(x, y, self.L, self.Ly)
        return (y - 1) * self.L + (x - 1)

    def hlink_slot(self, x, y):
        """Slot of horizontal link (x+1/2, y), x=1..Lx-1."""
        self._need("square-2d")
        self._check_xy(x, y, self.L - 1, self.Ly)
        return self.L * self.Ly + (y - 1) * (self.L - 1) + (x - 1)

    def vlink_slot(self, x, y):
        """Slot of vertical link (x, y+1/2), y=1..Ly-1."""
        self._need("square-2d")
        self._check_xy(x, y, self.L, self.Ly - 1)
        return self.L * self.Ly + (self.L - 1) * self.Ly + (y - 1) * self.L + (x - 1)

    def _need(self, *kinds):
        if self.kind not in kinds:
            raise LayoutError(f"slot map not defined for {self.kind!r}")

    @staticmethod
    def _check_xy(x, y, xmax, ymax):
        if not (1 <= x <= xmax and 1 <= y <= ymax):
            raise LayoutError(f"coordinate ({x},{y}) outside 1..{xmax} x 1..{ymax}")


def build_layout(kind, L, Ly=0):
    """Validated `LatticeLayout` factory."""
    return LatticeLayout(kind, L, Ly)


def state_bit(state, slot):
    """Bit of `state` at `slot` (works on scalars and arrays)."""
    return (state >> slot) & 1


class SparseOperator:
    """A scipy CSR matrix carrying the tag of the basis it acts on.

    Kept canonical: sorted indices, duplicates summed, stored zeros pruned.
    Treat instances as immutable; operations return new objects. With
    `canonical`, `matrix` is a complex CSR known to be in that form
    already, and is kept as it is, with no copy and no check.
    """

    __slots__ = ("matrix", "basis")

    def __init__(self, matrix, basis, canonical=False):
        m = matrix
        if not canonical:
            m = sp.csr_matrix(matrix, dtype=np.complex128)
            m.sum_duplicates()
            m.sort_indices()
            m.eliminate_zeros()
        if m.shape[0] != m.shape[1]:
            raise BasisMismatchError(f"operator must be square, got {m.shape}")
        self.matrix = m
        self.basis = basis

    @property
    def dim(self):
        return self.matrix.shape[0]

    @property
    def nnz(self):
        return self.matrix.nnz

    def toarray(self):
        return self.matrix.toarray()

    def diagonal(self):
        return self.matrix.diagonal()

    def adjoint(self):
        return SparseOperator(self.matrix.conjugate().transpose(), self.basis)

    def scale(self, c):
        return SparseOperator(self.matrix * c, self.basis)

    def frobenius_norm(self):
        return float(np.linalg.norm(self.matrix.data)) if self.matrix.nnz else 0.0

    def check_basis(self, other):
        """Raise unless `other` is a SparseOperator on the same basis."""
        if not isinstance(other, SparseOperator):
            raise TypeError(f"expected SparseOperator, got {type(other).__name__}")
        if other.basis != self.basis or other.dim != self.dim:
            raise BasisMismatchError(
                f"basis mismatch: {self.basis!r} (dim {self.dim}) vs "
                f"{other.basis!r} (dim {other.dim})")

    def __add__(self, other):
        self.check_basis(other)
        return SparseOperator(self.matrix + other.matrix, self.basis)

    def __sub__(self, other):
        self.check_basis(other)
        return SparseOperator(self.matrix - other.matrix, self.basis)

    def __matmul__(self, other):
        self.check_basis(other)
        return SparseOperator(self.matrix @ other.matrix, self.basis)

    def __repr__(self):
        return f"SparseOperator(dim={self.dim}, nnz={self.nnz}, basis={self.basis!r})"


def commutator(a, b):
    """[a, b] with basis checking."""
    return (a @ b) - (b @ a)


def monomial_operator(total_spins, rows, flip, data):
    """sum_k data_k |r_k><r_k ^ flip| over the ascending states r_k of `rows`,
    one value of `data` per row.

    Each row holds at most one entry, so the CSR is built straight from
    the rows: indptr is their running count (indptr[r] = the number of
    rows below r), the columns are rows ^ flip, and nothing is sorted. A
    complex `data` array is kept, not copied; zero entries are left out,
    so the CSR is canonical as built and `SparseOperator` takes it as is.
    """
    n = 1 << total_spins
    rows = np.asarray(rows, dtype=np.int32)
    data = np.asarray(data, dtype=np.complex128)
    nonzero = data != 0
    if not nonzero.all():
        rows, data = rows[nonzero], data[nonzero]
    if rows.size == n:
        indptr = np.arange(n + 1, dtype=np.int32)   # every state is a row
    else:
        indptr = np.zeros(n + 1, dtype=np.int32)
        indptr[rows + 1] = 1
        np.cumsum(indptr, out=indptr)
    matrix = sp.csr_matrix((data, rows ^ np.int32(flip), indptr), shape=(n, n))
    matrix.has_canonical_format = True
    return SparseOperator(matrix, f"spins:{total_spins}", canonical=True)


@dataclass(frozen=True, eq=False)
class Monomial:
    """sum_c table[key(c)] |c ^ flip><c| on a 2**total_spins register,
    where bit k of key(c) is c's bit at slots[k]: each state goes to at
    most one state, as every jump of the models does. `values` evaluates
    it on any states; `operator()` builds its CSR.
    """

    total_spins: int
    flip: int
    slots: tuple
    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "table",
                           np.asarray(self.table, dtype=np.complex128))

    @property
    def basis(self):
        return f"spins:{self.total_spins}"

    def blocks(self):
        """The map as blocks of the register: (shape, [(source, target,
        amplitude)]). `shape` splits a register array at the slots and
        the flipped bits (`register_axes`); for each assignment of those
        bits whose amplitude is nonzero, `source` indexes that shape's
        array at the states c with the assignment and `target` at their
        images c ^ flip, each a view of 2**total_spins / 2**len(bits)
        states."""
        flipped = {s for s in range(self.total_spins) if self.flip >> s & 1}
        bits = sorted(flipped.union(self.slots))
        shape, axis = register_axes(self.total_spins, bits)
        out = []
        for assignment in itertools.product((0, 1), repeat=len(bits)):
            bit = dict(zip(bits, assignment))
            amplitude = self.table[sum(bit[s] << k
                                       for k, s in enumerate(self.slots))]
            if amplitude == 0:
                continue
            source, target = [slice(None)] * len(shape), [slice(None)] * len(shape)
            for s, b in bit.items():
                source[axis[s]], target[axis[s]] = b, b ^ (s in flipped)
            out.append((tuple(source), tuple(target), amplitude))
        return shape, out

    def values(self, states):
        """The amplitude taking each state c of `states` to c ^ flip."""
        key = np.zeros(np.shape(states), dtype=np.intp)
        for k, slot in enumerate(self.slots):
            key |= ((states >> slot) & 1) << k
        return self.table[key]

    def operator(self):
        """The map as a SparseOperator over the whole register: row r holds
        the amplitude of r ^ flip, at the column r ^ flip, each amplitude
        broadcast into its block of images (`blocks`)."""
        shape, blocks = self.blocks()
        data = np.zeros(1 << self.total_spins, dtype=np.complex128)
        view = data.reshape(shape)
        for _, target, amplitude in blocks:
            view[target] = amplitude
        rows = np.arange(1 << self.total_spins, dtype=np.int32)
        return monomial_operator(self.total_spins, rows, self.flip, data)


def register_axes(total_spins, slots):
    """Shape of a 2**total_spins register array split at `slots`, and the
    axis of each slot (a dict): one axis of size 2 per slot, and between
    them the runs of the other bits, each merged into one axis (of size 1
    where a run is empty), most significant first, as C order reshapes
    the register."""
    shape, axis = [], {}
    top = total_spins
    for slot in sorted(set(slots), reverse=True):
        shape.append(1 << (top - slot - 1))
        axis[slot] = len(shape)
        shape.append(2)
        top = slot
    shape.append(1 << top)
    return tuple(shape), axis


def _fixed_bit_rows(total_spins, bits):
    """The ascending states whose bit at each slot of `bits` (a dict
    slot -> 0 or 1) is as given, built by doubling over the slots, least
    significant first: a free slot repeats the states found so far
    shifted by its bit, a fixed one keeps one half. No mask of the
    register is formed."""
    rows = np.zeros(1, dtype=np.int32)
    for slot in range(total_spins):
        if slot not in bits:
            rows = np.concatenate([rows, rows + (1 << slot)])
        elif bits[slot]:
            rows = rows + (1 << slot)
    return rows


def diagonal_operator(total_spins, values):
    """Diagonal operator from a length-2**total_spins value array."""
    n = 1 << total_spins
    values = np.array(values, dtype=np.complex128)
    if values.shape != (n,):
        raise BasisMismatchError(f"need {n} diagonal values, got {values.shape}")
    return monomial_operator(total_spins, np.arange(n), 0, values)


def single_spin_operator(total_spins, slot, which, amplitude=1.0):
    """amplitude * s^+, s^- or s^z acting on one slot of a 2**total_spins
    register, as a `Monomial`.

    Parameters
    ----------
    total_spins : int
    slot : int
        Bit position, 0-based.
    which : str
        "+", "-", "z", or "+-" for a s^+ + b s^- with amplitude = (a, b).
    amplitude : complex, or a pair of them for "+-"
        The factor on every entry; 0 gives the empty operator.
    """
    if not 0 <= slot < total_spins:
        raise LayoutError(f"slot {slot} outside 0..{total_spins - 1}")
    if which == "z":
        return Monomial(total_spins, 0, (slot,),
                        (np.arange(2) - 0.5) * amplitude)
    # indexed by the slot's bit before the flip: s^+ raises a down spin
    tables = {"+": (amplitude, 0), "-": (0, amplitude), "+-": amplitude}
    if which not in tables:
        raise LayoutError(f"unknown spin operator {which!r}")
    return Monomial(total_spins, 1 << slot, (slot,), tables[which])


def transition_entries(total_spins, plus_slots, minus_slots):
    """Rows and columns of the nonzeros of `transition_operator`, rows
    ascending."""
    flip = transition_operator(total_spins, plus_slots, minus_slots).flip
    bits = {s: 1 for s in plus_slots} | {s: 0 for s in minus_slots}
    rows = _fixed_bit_rows(total_spins, bits)
    return rows, rows ^ np.int32(flip)


def transition_operator(total_spins, plus_slots, minus_slots, amplitude=1.0):
    """amplitude * prod s^+_(plus_slots) * prod s^-_(minus_slots), as a
    `Monomial`; all slots must be distinct. Its one nonzero amplitude sits
    at the key whose plus bits are down and whose minus bits are up. The
    h.c. partner is `.operator().adjoint()`.
    """
    slots = tuple(plus_slots) + tuple(minus_slots)
    if len(set(slots)) != len(slots):
        raise LayoutError(f"repeated slot in transition {plus_slots}/{minus_slots}")
    table = np.zeros(1 << len(slots), dtype=np.complex128)
    table[((1 << len(minus_slots)) - 1) << len(plus_slots)] = amplitude
    return Monomial(total_spins, sum(1 << s for s in slots), slots, table)
