"""Gauss-law generators, conserved charges and symmetry-resolved bases.

Gauge eigenvalues are stored as doubled integers throughout (g stored as
2g), so interior values live in {-3,-1,1,3} and boundary values in
{-2,0,2} without any floating point. The generator operators themselves
carry the physical (halved) eigenvalues.

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
"""

from dataclasses import dataclass

import numpy as np

from .lattice import LayoutError, SparseOperator, diagonal_operator, state_bit

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


def gauge_charge_table(layout):
    """Doubled gauge eigenvalues for every basis state.

    Returns
    -------
    ndarray, shape (nstates, n_generators), int8
        Column order: chain sites n=1..L; hierarchical n=1..L;
        square-2d sites row-major (x fastest).
    """
    idx = _index_column(layout)
    if layout.kind in ("chain-obc", "chain-pbc"):
        L = layout.L
        pbc = layout.kind == "chain-pbc"
        G = np.zeros((idx.size, L), dtype=np.int8)
        for n in range(1, L + 1):
            g = _z2(idx, layout.site_slot(n)).astype(np.int16)
            if n < L or pbc:
                g -= _z2(idx, layout.link_slot(n if n < L else L))
            if n > 1:
                g += _z2(idx, layout.link_slot(n - 1))
            elif pbc:
                g += _z2(idx, layout.link_slot(L))
            G[:, n - 1] = g
        return G
    if layout.kind == "hierarchical":
        L = layout.L
        def g_taus(m):
            # generator of the lower (tau, s) pair at position m, doubled
            if m < 1 or m > L - 1:
                return np.zeros(idx.size, dtype=np.int16)
            g = _z2(idx, layout.mid_slot(m)).astype(np.int16)
            if 2 <= m + 1 <= L - 1:
                g -= _z2(idx, layout.bot_slot(m + 1))
            if 2 <= m <= L - 1:
                g += _z2(idx, layout.bot_slot(m))
            return g
        G = np.zeros((idx.size, L), dtype=np.int8)
        for n in range(1, L + 1):
            g = _z2(idx, layout.top_slot(n)).astype(np.int16)
            g -= g_taus(n)
            g += g_taus(n - 1)
            G[:, n - 1] = g
        return G
    # square-2d
    Lx, Ly = layout.L, layout.Ly
    G = np.zeros((idx.size, Lx * Ly), dtype=np.int8)
    for y in range(1, Ly + 1):
        for x in range(1, Lx + 1):
            g = _z2(idx, layout.site_slot_2d(x, y)).astype(np.int16)
            if x < Lx:
                g -= _z2(idx, layout.hlink_slot(x, y))
            if x > 1:
                g += _z2(idx, layout.hlink_slot(x - 1, y))
            if y < Ly:
                g -= _z2(idx, layout.vlink_slot(x, y))
            if y > 1:
                g += _z2(idx, layout.vlink_slot(x, y - 1))
            G[:, (y - 1) * Lx + (x - 1)] = g
    return G


def gauge_charges(layout, state):
    """Doubled gauge eigenvalues of one basis state, as a tuple."""
    table = gauge_charge_table(layout)
    return tuple(int(v) for v in table[state])


def site_occupation_table(layout):
    """Occupied-site count per basis state (top layer for hierarchical)."""
    idx = _index_column(layout)
    occ = np.zeros(idx.size, dtype=np.int16)
    for slot in _site_slots(layout):
        occ += state_bit(idx, slot).astype(np.int16)
    return occ


def _site_slots(layout):
    if layout.kind in ("chain-obc", "chain-pbc"):
        return [layout.site_slot(n) for n in range(1, layout.L + 1)]
    if layout.kind == "hierarchical":
        return [layout.top_slot(n) for n in range(1, layout.L + 1)]
    return [layout.site_slot_2d(x, y)
            for y in range(1, layout.Ly + 1) for x in range(1, layout.L + 1)]


def hierarchical_charge_tables(layout):
    """Doubled (N2, D2) per state: N2 = sum_n 2 sigma_n^z,
    D2 = sum_n 2 n sigma_n^z + sum_m 2 tau_m^z."""
    if layout.kind != "hierarchical":
        raise LayoutError("hierarchical charges need the hierarchical layout")
    idx = _index_column(layout)
    L = layout.L
    n2 = np.zeros(idx.size, dtype=np.int16)
    d2 = np.zeros(idx.size, dtype=np.int16)
    for n in range(1, L + 1):
        z = _z2(idx, layout.top_slot(n)).astype(np.int16)
        n2 += z
        d2 += n * z
    for m in range(1, L):
        d2 += _z2(idx, layout.mid_slot(m))
    return n2, d2


def generator_slot_coefficients(layout, site):
    """Integer coefficients a_k with G_site = sum_k a_k s^z_k.

    The symbolic form of the Gauss generator; `gauge_charge_table` is its
    vectorized evaluation (they are cross-checked in tests).
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
    layout.site_slot_2d(x, y)
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
    coeffs = generator_slot_coefficients(layout, site)
    idx = _index_column(layout)
    g = np.zeros(idx.size, dtype=np.int16)
    for slot in np.nonzero(coeffs)[0]:
        g += coeffs[slot] * _z2(idx, slot)
    return diagonal_operator(layout.total_spins, g * 0.5)


def charge_operators(layout):
    """Conserved charges as diagonal operators.

    chains       : N (occupied sites), D (sum_n n * occupation),
                   Sz (sum of link s^z)
    hierarchical : N (occupied top spins), D (sum_n n*top_occ + mid_occ)
    square-2d    : N (occupied sites)
    """
    idx = _index_column(layout)
    tag_dim = layout.total_spins
    occ = site_occupation_table(layout).astype(np.float64)
    ops = {"N": diagonal_operator(tag_dim, occ)}
    if layout.kind in ("chain-obc", "chain-pbc"):
        d = np.zeros(idx.size)
        for n in range(1, layout.L + 1):
            d += n * state_bit(idx, layout.site_slot(n))
        ops["D"] = diagonal_operator(tag_dim, d)
        sz = np.zeros(idx.size)
        for m in range(1, layout.n_links + 1):
            sz += state_bit(idx, layout.link_slot(m)) - 0.5
        ops["Sz"] = diagonal_operator(tag_dim, sz)
    elif layout.kind == "hierarchical":
        d = np.zeros(idx.size)
        for n in range(1, layout.L + 1):
            d += n * state_bit(idx, layout.top_slot(n))
        for m in range(1, layout.L):
            d += state_bit(idx, layout.mid_slot(m))
        ops["D"] = diagonal_operator(tag_dim, d)
    return ops


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

    def positions(self, states):
        """Positions of full-space states inside this sector (must belong)."""
        pos = np.searchsorted(self.states, states)
        if np.any(pos >= self.dim) or np.any(self.states[pos] != states):
            raise SectorLeakageError("state outside sector")
        return pos

    def summary(self):
        return {
            "tag": self.tag,
            "dim": int(self.dim),
            "total_spins": self.layout.total_spins,
            "n_particles": self.spec.n_particles,
            "gauge": list(self.spec.gauge) if self.spec.gauge else None,
            "hier_charges": (list(self.spec.hier_charges)
                             if self.spec.hier_charges else None),
        }


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

    def summary(self):
        return {"tag": self.tag, "dim": int(self.dim),
                "total_spins": self.layout.total_spins}


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


def project_operator(op, sector, leak_tol=1e-12):
    """Restrict a full-space operator to a `SectorBasis`.

    Raises `SectorLeakageError` if the sector is not invariant:
    || (1-P) A P ||_F > leak_tol.
    """
    states = sector.states
    cols = op.matrix[:, states].tocsr()
    outside = np.ones(op.dim, dtype=bool)
    outside[states] = False
    leak = cols[outside]
    leak_norm = float(np.linalg.norm(leak.data)) if leak.nnz else 0.0
    if leak_norm > leak_tol:
        raise SectorLeakageError(
            f"operator leaks out of {sector.tag}: ||(1-P)AP||_F = {leak_norm:.3e}")
    return SparseOperator(cols[states], sector.tag)

