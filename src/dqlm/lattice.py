"""Lattice layouts, bit-basis conventions and sparse spin operators.

Basis conventions, pinned once and used everywhere:

* every lattice degree of freedom is one spin-1/2 "slot" holding one bit;
* basis index = sum_k bit_k * 2**k, slot 0 is the least significant bit;
* bit 1 means spin up (occupied site, flux-up link), index 0 is all-down;
* s^z eigenvalues are +1/2 (up) and -1/2 (down);
* operators are scipy CSR matrices in this basis, wrapped together with a
  basis tag so that mixing operators from different spaces fails loudly.

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
    Treat instances as immutable; operations return new objects.
    """

    __slots__ = ("matrix", "basis")

    def __init__(self, matrix, basis):
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


def monomial_operator(total_spins, rows, flip, data, indptr=None):
    """sum_k data_k |r_k><r_k ^ flip| over the ascending states r_k of `rows`.

    Each row holds at most one entry, so the CSR is built straight from
    the rows: indptr is their running count (indptr[r] = the number of
    rows below r; counted here unless given), the columns are
    rows ^ flip, and nothing is sorted. `data` is one value or one per
    row, and a complex array is kept, not copied; zero entries are left
    out, as `SparseOperator` prunes them.
    """
    n = 1 << total_spins
    rows = np.asarray(rows, dtype=np.int32)
    data = np.asarray(data, dtype=np.complex128)
    nonzero = data != 0
    if data.ndim == 0:
        if not nonzero:
            rows, indptr = rows[:0], None
        data = np.full(rows.size, data)
    elif not nonzero.all():
        rows, data, indptr = rows[nonzero], data[nonzero], None
    if indptr is None and rows.size == n:
        indptr = np.arange(n + 1, dtype=np.int32)   # every state is a row
    elif indptr is None:
        indptr = np.zeros(n + 1, dtype=np.int32)
        indptr[rows + 1] = 1
        np.cumsum(indptr, out=indptr)
    matrix = sp.csr_matrix((data, rows ^ np.int32(flip), indptr), shape=(n, n))
    return SparseOperator(matrix, f"spins:{total_spins}")


def _fixed_bit_rows(total_spins, bits):
    """The ascending states whose bit at each slot of `bits` (a dict
    slot -> 0 or 1) is as given, and their running count as a CSR row
    pointer (see `monomial_operator`). Both are built by doubling over
    the slots, least significant first: a free slot repeats the states
    found so far shifted by its bit, a fixed one keeps one half. No mask
    of the register is formed."""
    rows = np.zeros(1, dtype=np.int32)
    indptr = np.array([0, 1], dtype=np.int32)
    for slot in range(total_spins):
        half = 1 << slot
        count = indptr[-1]
        if slot not in bits:
            rows = np.concatenate([rows, rows + half])
            indptr = np.concatenate([indptr[:-1], indptr + count])
        elif bits[slot]:
            rows = rows + half
            indptr = np.concatenate([np.zeros(half, dtype=np.int32), indptr])
        else:
            indptr = np.concatenate(
                [indptr, np.full(half, count, dtype=np.int32)])
    return rows, indptr


def diagonal_operator(total_spins, values):
    """Diagonal operator from a length-2**total_spins value array."""
    n = 1 << total_spins
    values = np.array(values, dtype=np.complex128)
    if values.shape != (n,):
        raise BasisMismatchError(f"need {n} diagonal values, got {values.shape}")
    return monomial_operator(total_spins, np.arange(n), 0, values)


def single_spin_operator(total_spins, slot, which, amplitude=1.0):
    """amplitude * s^+, s^- or s^z acting on one slot of a 2**total_spins
    space.

    Parameters
    ----------
    total_spins : int
    slot : int
        Bit position, 0-based.
    which : str
        "+", "-" or "z".
    amplitude : complex
        The factor on every entry; 0 gives the empty operator.
    """
    if not 0 <= slot < total_spins:
        raise LayoutError(f"slot {slot} outside 0..{total_spins - 1}")
    if which == "z":
        bit = (np.arange(1 << total_spins) >> slot) & 1
        return diagonal_operator(total_spins, (bit - 0.5) * amplitude)
    if which not in ("+", "-"):
        raise LayoutError(f"unknown spin operator {which!r}")
    # s^+ stores its entries in the rows with the bit up, s^- with it down
    rows, indptr = _fixed_bit_rows(total_spins, {slot: int(which == "+")})
    return monomial_operator(total_spins, rows, 1 << slot, amplitude, indptr)


def _transition_rows(total_spins, plus_slots, minus_slots):
    """The rows holding the entries of prod s^+_(plus_slots) *
    prod s^-_(minus_slots), their row pointer, and the bit flip from a
    row to its column."""
    slots = tuple(plus_slots) + tuple(minus_slots)
    if len(set(slots)) != len(slots):
        raise LayoutError(f"repeated slot in transition {plus_slots}/{minus_slots}")
    bits = {s: 1 for s in plus_slots} | {s: 0 for s in minus_slots}
    rows, indptr = _fixed_bit_rows(total_spins, bits)
    return rows, indptr, sum(1 << s for s in slots)


def transition_entries(total_spins, plus_slots, minus_slots):
    """Rows and columns of the nonzeros of prod s^+_(plus_slots) *
    prod s^-_(minus_slots), each 1, rows ascending; all slots must be
    distinct."""
    rows, _, flip = _transition_rows(total_spins, plus_slots, minus_slots)
    return rows, rows ^ np.int32(flip)


def transition_operator(total_spins, plus_slots, minus_slots, amplitude=1.0):
    """amplitude * prod s^+_(plus_slots) * prod s^-_(minus_slots).

    All slots must be distinct; built in one pass instead of multiplying
    single-spin factors. The h.c. partner is `.adjoint()`.
    """
    rows, indptr, flip = _transition_rows(total_spins, plus_slots, minus_slots)
    return monomial_operator(total_spins, rows, flip, amplitude, indptr)
