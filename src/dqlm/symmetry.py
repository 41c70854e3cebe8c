"""Gauss-law generators, conserved charges and symmetry-resolved bases.

Gauge eigenvalues are stored as doubled integers throughout (g stored as
2g), so interior values live in {-3,-1,1,3} and boundary values in
{-2,0,2} without any floating point. The generator operators themselves
carry the physical (halved) eigenvalues.

Each conserved charge is defined once, by its integer slot coefficients
a_k (`generator_slot_coefficients`, `hierarchical_charge_coefficients`);
every table here is the evaluation sum_k a_k 2 s^z_k of those
coefficients on all basis states, and `exact` builds its steady states
and its profile constraints from the same coefficients.

Two kinds of basis are built here:

* `SectorBasis`: states of the Hilbert space filtered by particle number,
  a full gauge configuration, or the hierarchical charge pair;
* `DoubleSectorBasis`: ordered pairs (ket, bra) of basis states, used for
  vectorized density matrices. Jump operators shift ket and bra gauge
  configurations identically, so the difference delta = g_ket - g_bra is
  conserved and partitions the double space into closed blocks.
  `full_pairs` is the whole double space and `partition_double_space`
  its split into those blocks; both are capped at
  `MAX_FULL_PAIR_STATES` basis states.

No spectrum is computed block by block along these labels: `numerics`
splits each assembled generator into the coupled components of its
nonzero pattern, a finer split. `partition_double_space` is kept as the
cross-check oracle that every such component lies inside one
charge-difference block.

Three maps of the register feed the symmetries `numerics` lifts to the
pair basis: translation on a periodic chain (`translate_states`), and on
an open chain the particle-hole reflection (`reflect_states`) and the
sign (-1)^(sum_n n N_n) (`sublattice_sign`); the last two are None on
every other layout.
"""

from dataclasses import dataclass

import numpy as np

from .lattice import LayoutError, diagonal_operator, state_bit

MAX_ENUM_SPINS = 22          # sector enumeration walks all 2**total_spins states
MAX_FULL_PAIR_STATES = 1024  # full pair-space bases hold nstates**2 pairs


class SectorLeakageError(ValueError):
    """An operator restricted to a sector has weight leaving the sector."""


class InfeasibleSectorError(ValueError):
    """Requested sector enumeration exceeds the supported size."""


def _index_column(layout):
    if layout.total_spins > MAX_ENUM_SPINS:
        raise InfeasibleSectorError(
            f"enumeration over {layout.total_spins} spins "
            f"(> {MAX_ENUM_SPINS}) is not supported")
    return np.arange(layout.nstates, dtype=np.int64)


def _z2(idx, slot):
    # doubled s^z eigenvalue, +-1
    return (((idx >> slot) & 1) * 2 - 1).astype(np.int8)


def _charge(idx, coeffs):
    """Doubled eigenvalue sum_k a_k 2 s^z_k of the charge with integer
    slot coefficients `coeffs`, on every state of `idx` (int16)."""
    out = np.zeros(idx.size, dtype=np.int16)
    for slot in np.flatnonzero(coeffs):
        out += int(coeffs[slot]) * _z2(idx, slot)
    return out


def gauge_charge_table(layout):
    """Doubled gauge eigenvalues for every basis state.

    Returns
    -------
    ndarray, shape (nstates, n_generators), int8
        Column order: `generator_sites`.
    """
    idx = _index_column(layout)
    sites = generator_sites(layout)
    G = np.zeros((idx.size, len(sites)), dtype=np.int8)
    for col, site in enumerate(sites):
        G[:, col] = _charge(idx, generator_slot_coefficients(layout, site))
    return G


def site_occupation_table(layout):
    """Occupied-site count per basis state (top layer for hierarchical)."""
    idx = _index_column(layout)
    occ = np.zeros(idx.size, dtype=np.int16)
    for slot in layout.site_slots:
        occ += state_bit(idx, slot).astype(np.int16)
    return occ


def translate_states(layout, states):
    """Basis states of a periodic chain translated by one unit cell: site
    n to site n+1 and link (n, n+1) to link (n+1, n+2), cyclically."""
    if layout.kind != "chain-pbc":
        raise LayoutError("translation needs a chain-pbc layout")
    states = np.asarray(states, dtype=np.int64)
    out = np.zeros_like(states)
    for n in range(1, layout.L + 1):
        m = n % layout.L + 1
        out |= state_bit(states, layout.site_slot(n)) << layout.site_slot(m)
        out |= state_bit(states, layout.link_slot(n)) << layout.link_slot(m)
    return out


def reflect_states(layout, states):
    """Basis states of an open chain under the particle-hole reflection:
    site n to site L+1-n with its occupation flipped, link (m, m+1) to
    link (L-m, L-m+1) unflipped. None for every other layout."""
    if layout.kind != "chain-obc":
        return None
    states = np.asarray(states, dtype=np.int64)
    L = layout.L
    out = np.zeros_like(states)
    for n in range(1, L + 1):
        out |= (1 - state_bit(states, layout.site_slot(n))) \
            << layout.site_slot(L + 1 - n)
    for m in range(1, L):
        out |= state_bit(states, layout.link_slot(m)) << layout.link_slot(L - m)
    return out


def sublattice_sign(layout, states):
    """The sign (-1)^q of open-chain basis states, q = sum_n n N_n the
    dipole of the occupations (int8). None for every other layout."""
    if layout.kind != "chain-obc":
        return None
    states = np.asarray(states, dtype=np.int64)
    odd = np.zeros(states.shape, dtype=np.int64)
    for n in range(1, layout.L + 1, 2):
        odd += state_bit(states, layout.site_slot(n))
    return (1 - 2 * (odd & 1)).astype(np.int8)


def hierarchical_charge_coefficients(layout):
    """Integer slot coefficients (qn, qd) of the hierarchical charges
    N = sum_n sigma_n^z and D = sum_n n sigma_n^z + sum_m tau_m^z."""
    if layout.kind != "hierarchical":
        raise LayoutError("hierarchical charges need the hierarchical layout")
    qn = np.zeros(layout.total_spins, dtype=np.int64)
    qd = np.zeros(layout.total_spins, dtype=np.int64)
    qn[layout.site_slots] = 1
    qd[layout.site_slots] = np.arange(1, layout.L + 1)
    qd[[layout.mid_slot(m) for m in range(1, layout.L)]] = 1
    return qn, qd


def hierarchical_charge_tables(layout):
    """Doubled (N2, D2) per state, int16: the evaluations of
    `hierarchical_charge_coefficients`."""
    qn, qd = hierarchical_charge_coefficients(layout)
    idx = _index_column(layout)
    return _charge(idx, qn), _charge(idx, qd)


def generator_slot_coefficients(layout, site):
    """Integer coefficients a_k with G_site = sum_k a_k s^z_k.

    The symbolic form of the Gauss generator; `gauge_charge_table` and
    `gauss_generator` evaluate it.
    """
    a = np.zeros(layout.total_spins, dtype=np.int8)
    k = layout.kind
    if k in ("chain-obc", "chain-pbc"):
        n = site
        if not 1 <= n <= layout.L:
            raise LayoutError(f"site {n} outside 1..{layout.L}")
        a[layout.site_slot(n)] = 1
        pbc = k == "chain-pbc"
        if n < layout.L or pbc:
            a[layout.link_slot(n if n < layout.L else layout.L)] -= 1
        if n > 1:
            a[layout.link_slot(n - 1)] += 1
        elif pbc:
            a[layout.link_slot(layout.L)] += 1
        return a
    if k == "hierarchical":
        n = site
        if not 1 <= n <= layout.L:
            raise LayoutError(f"site {n} outside 1..{layout.L}")
        a[layout.top_slot(n)] = 1
        for m, sign in ((n, -1), (n - 1, 1)):
            if not 1 <= m <= layout.L - 1:
                continue
            a[layout.mid_slot(m)] += sign
            if 2 <= m + 1 <= layout.L - 1:
                a[layout.bot_slot(m + 1)] -= sign
            if 2 <= m <= layout.L - 1:
                a[layout.bot_slot(m)] += sign
        return a
    x, y = site
    a[layout.site_slot_2d(x, y)] = 1
    if x < layout.L:
        a[layout.hlink_slot(x, y)] -= 1
    if x > 1:
        a[layout.hlink_slot(x - 1, y)] += 1
    if y < layout.Ly:
        a[layout.vlink_slot(x, y)] -= 1
    if y > 1:
        a[layout.vlink_slot(x, y - 1)] += 1
    return a


def generator_sites(layout):
    """Site labels in gauge-table column order."""
    if layout.kind == "square-2d":
        return [(x, y) for y in range(1, layout.Ly + 1)
                for x in range(1, layout.L + 1)]
    return list(range(1, layout.L + 1))


def gauss_generator(layout, site):
    """Gauss-law generator as a diagonal operator with physical eigenvalues.

    Parameters
    ----------
    site : int or (int, int)
        1-based site index; a coordinate pair for ``square-2d``.
    """
    g = _charge(_index_column(layout),
                generator_slot_coefficients(layout, site))
    return diagonal_operator(layout.total_spins, g * 0.5)


@dataclass(frozen=True)
class SectorSpec:
    """Constraints cutting out a Hilbert-space sector.

    n_particles  : occupied-site count (top layer for hierarchical)
    gauge        : full doubled gauge configuration, one value per generator
    hier_charges : doubled (N2, D2) pair, hierarchical only
    """

    n_particles: int = None
    gauge: tuple = None
    hier_charges: tuple = None

    def label(self):
        parts = []
        if self.n_particles is not None:
            parts.append(f"N={self.n_particles}")
        if self.gauge is not None:
            parts.append("g=" + ",".join(str(v) for v in self.gauge))
        if self.hier_charges is not None:
            parts.append(f"h={self.hier_charges[0]},{self.hier_charges[1]}")
        return "&".join(parts) if parts else "all"


class SectorBasis:
    """Sorted basis states satisfying a `SectorSpec`. May be empty."""

    def __init__(self, layout, spec, states):
        self.layout = layout
        self.spec = spec
        self.states = np.asarray(states, dtype=np.int64)
        self.tag = f"sector[{layout.basis_tag}:{spec.label()}]"

    @property
    def dim(self):
        return self.states.size


def enumerate_sector(layout, spec):
    """All basis states compatible with `spec`, ascending. Empty is legal."""
    idx = _index_column(layout)
    mask = np.ones(idx.size, dtype=bool)
    if spec.n_particles is not None:
        mask &= site_occupation_table(layout) == spec.n_particles
    if spec.gauge is not None:
        table = gauge_charge_table(layout)
        want = np.asarray(spec.gauge, dtype=np.int16)
        if want.size != table.shape[1]:
            raise LayoutError(
                f"gauge spec needs {table.shape[1]} values, got {want.size}")
        mask &= np.all(table == want, axis=1)
    if spec.hier_charges is not None:
        n2, d2 = hierarchical_charge_tables(layout)
        mask &= (n2 == spec.hier_charges[0]) & (d2 == spec.hier_charges[1])
    return SectorBasis(layout, spec, idx[mask])


def gauge_sector_census(layout):
    """Distinct gauge configurations and their state counts.

    Returns
    -------
    configs : ndarray (n_configs, n_generators) int8, lexicographically sorted
    counts : ndarray (n_configs,) of state counts d_g
    """
    table = gauge_charge_table(layout)
    configs, counts = np.unique(table, axis=0, return_counts=True)
    return configs, counts


class DoubleSectorBasis:
    """Ordered (ket, bra) state pairs, sorted by ket*nstates + bra."""

    def __init__(self, layout, kets, bras, label):
        kets = np.asarray(kets, dtype=np.int64)
        bras = np.asarray(bras, dtype=np.int64)
        keys = kets * layout.nstates + bras
        order = np.argsort(keys, kind="stable")
        self.layout = layout
        self.kets = kets[order]
        self.bras = bras[order]
        self.keys = keys[order]
        self.tag = f"pairs[{layout.basis_tag}:{label}]"
        # on the full pair space a pair's position is its key
        n_pairs = layout.nstates ** 2
        self._keys_are_positions = (
            self.keys.size == n_pairs
            and np.array_equal(self.keys, np.arange(n_pairs)))

    @property
    def dim(self):
        return self.kets.size

    @property
    def diag_positions(self):
        return np.nonzero(self.kets == self.bras)[0]

    def lookup(self, kets, bras):
        """Positions of (ket, bra) pairs; -1 where the pair is absent."""
        keys = np.asarray(kets, dtype=np.int64) * self.layout.nstates + bras
        if self._keys_are_positions:
            return keys
        if self.dim == 0:
            return np.full(keys.shape, -1, dtype=np.int64)
        pos = np.searchsorted(self.keys, keys)
        pos[pos >= self.dim] = self.dim - 1
        bad = self.keys[pos] != keys
        pos[bad] = -1
        return pos


def weak_sector(layout, n_particles=None):
    """Pairs (a, b) with identical gauge configurations, optionally at
    fixed particle number. This is the block reachable from any state
    with those quantum numbers: jumps act identically on ket and bra
    gauge charges."""
    table = gauge_charge_table(layout)
    idx = _index_column(layout)
    if n_particles is not None:
        keep = site_occupation_table(layout) == n_particles
        idx = idx[keep]
        table = table[keep]
    _, inverse = np.unique(table, axis=0, return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    sorted_states = idx[order]
    sorted_inv = inverse[order]
    boundaries = np.nonzero(np.diff(sorted_inv))[0] + 1
    groups = np.split(sorted_states, boundaries)
    kets, bras = [], []
    for g in groups:
        a, b = np.meshgrid(g, g, indexing="ij")
        kets.append(a.ravel())
        bras.append(b.ravel())
    kets = np.concatenate(kets) if kets else np.array([], dtype=np.int64)
    bras = np.concatenate(bras) if bras else np.array([], dtype=np.int64)
    label = "weak-g" + (f"&N={n_particles}" if n_particles is not None else "")
    return DoubleSectorBasis(layout, kets, bras, label)


def _check_full_pair_size(layout):
    if layout.nstates > MAX_FULL_PAIR_STATES:
        raise InfeasibleSectorError(
            f"full pair space of {layout.nstates}**2 pairs is not supported "
            f"(> {MAX_FULL_PAIR_STATES}**2); use a weak sector")


def full_pairs(layout):
    """Every (ket, bra) pair; key order ket*nstates + bra is the
    row-major vec order."""
    _check_full_pair_size(layout)
    n = layout.nstates
    keys = np.arange(n * n, dtype=np.int64)
    return DoubleSectorBasis(layout, keys // n, keys % n, "full")


def partition_double_space(layout):
    """Split all (ket, bra) pairs into blocks of constant
    delta = g_ket - g_bra.

    Returns a list of (delta_tuple, DoubleSectorBasis), covering the
    double space exactly once. Feasible only for small systems.
    """
    _check_full_pair_size(layout)
    table = gauge_charge_table(layout).astype(np.int16)
    n = layout.nstates
    delta = (table[:, None, :] - table[None, :, :]).reshape(n * n, -1)
    classes, inverse = np.unique(delta, axis=0, return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    pair_idx = np.arange(n * n, dtype=np.int64)[order]
    sorted_inv = inverse[order]
    boundaries = np.nonzero(np.diff(sorted_inv))[0] + 1
    chunks = np.split(pair_idx, boundaries)
    out = []
    for chunk in chunks:
        key = tuple(int(v) for v in classes[inverse[chunk[0]]])
        label = "delta=" + ",".join(str(v) for v in key)
        out.append((key, DoubleSectorBasis(layout, chunk // n, chunk % n, label)))
    return out
