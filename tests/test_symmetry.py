import numpy as np
import pytest

from dqlm.lattice import build_layout
from dqlm.symmetry import (
    DoubleSectorBasis,
    InfeasibleSectorError,
    SectorSpec,
    enumerate_sector,
    full_pairs,
    gauge_charge_table,
    gauge_sector_census,
    gauss_generator,
    hierarchical_charge_tables,
    partition_double_space,
    reflect_states,
    site_occupation_table,
    sublattice_sign,
    weak_sector,
)


def bit(state, slot):
    return (state >> slot) & 1


def z2(state, slot):
    return 2 * bit(state, slot) - 1


def charges_by_hand(layout, state):
    """Scalar re-derivation of the doubled gauge eigenvalues."""
    k = layout.kind
    L = layout.L
    if k in ("chain-obc", "chain-pbc"):
        out = []
        for n in range(1, L + 1):
            g = z2(state, layout.site_slot(n))
            right = layout.link_slot(n) if (n < L or k == "chain-pbc") else None
            left = layout.link_slot(n - 1) if n > 1 else (
                layout.link_slot(L) if k == "chain-pbc" else None)
            if right is not None:
                g -= z2(state, right)
            if left is not None:
                g += z2(state, left)
            out.append(g)
        return tuple(out)
    if k == "hierarchical":
        def gts(m):
            if not 1 <= m <= L - 1:
                return 0
            g = z2(state, layout.mid_slot(m))
            if 2 <= m + 1 <= L - 1:
                g -= z2(state, layout.bot_slot(m + 1))
            if 2 <= m <= L - 1:
                g += z2(state, layout.bot_slot(m))
            return g
        return tuple(z2(state, layout.top_slot(n)) - gts(n) + gts(n - 1)
                     for n in range(1, L + 1))
    out = []
    for y in range(1, layout.Ly + 1):
        for x in range(1, L + 1):
            g = z2(state, layout.site_slot_2d(x, y))
            if x < L:
                g -= z2(state, layout.hlink_slot(x, y))
            if x > 1:
                g += z2(state, layout.hlink_slot(x - 1, y))
            if y < layout.Ly:
                g -= z2(state, layout.vlink_slot(x, y))
            if y > 1:
                g += z2(state, layout.vlink_slot(x, y - 1))
            out.append(g)
    return tuple(out)


def gauge_charges(layout, state):
    return tuple(gauge_charge_table(layout)[state])


def test_gauge_charges_hand_examples():
    lay = build_layout("chain-obc", 2)
    # site1 up, link up, site2 down
    assert gauge_charges(lay, 0b011) == (0, 0)
    assert gauge_charges(lay, 0) == (0, -2)
    lay3 = build_layout("chain-obc", 3)
    # all-down: interior generator is half-odd (doubled odd)
    assert gauge_charges(lay3, 0) == (0, -1, -2)
    pbc = build_layout("chain-pbc", 3)
    # only the boundary link (3,1) is up
    state = 1 << pbc.link_slot(3)
    g = gauge_charges(pbc, state)
    assert g[0] == 1 and g[2] == -3
    sq = build_layout("square-2d", 2, 2)
    assert gauge_charges(sq, 0)[0] == 1


def test_gauge_table_matches_scalar_rederivation():
    rng = np.random.default_rng(5)
    for lay in (build_layout("chain-obc", 4), build_layout("chain-pbc", 4),
                build_layout("hierarchical", 4), build_layout("square-2d", 2, 2)):
        table = gauge_charge_table(lay)
        for state in rng.integers(0, lay.nstates, size=40):
            assert tuple(int(v) for v in table[state]) == charges_by_hand(lay, int(state))


def test_boundary_even_interior_odd():
    for lay in (build_layout("chain-obc", 4), build_layout("chain-obc", 5)):
        table = gauge_charge_table(lay)
        assert np.all(table[:, 0] % 2 == 0)
        assert np.all(table[:, -1] % 2 == 0)
        for c in range(1, lay.L - 1):
            assert np.all(table[:, c] % 2 != 0)
    # periodic chains have no boundary: every generator half-odd
    table = gauge_charge_table(build_layout("chain-pbc", 4))
    assert np.all(table % 2 != 0)


def test_generator_sum_telescopes():
    for lay in (build_layout("chain-obc", 4), build_layout("chain-pbc", 4)):
        total = sum(gauss_generator(lay, n).operator().diagonal()
                    for n in range(1, lay.L + 1))
        occ = site_occupation_table(lay)
        assert np.allclose(total, occ - lay.L / 2)
    hl = build_layout("hierarchical", 4)
    total = sum(gauss_generator(hl, n).operator().diagonal() for n in range(1, 5))
    n2, _ = hierarchical_charge_tables(hl)
    assert np.allclose(total, n2 / 2)
    sq = build_layout("square-2d", 2, 2)
    total = sum(gauss_generator(sq, (x, y)).operator().diagonal()
                for x in (1, 2) for y in (1, 2))
    assert np.allclose(total, site_occupation_table(sq) - 2)


def test_hierarchical_charge_tables_example():
    lay = build_layout("hierarchical", 4)
    n2, d2 = hierarchical_charge_tables(lay)
    assert n2[0] == -4
    assert d2[0] == -(1 + 2 + 3 + 4) - 3


def test_enumerate_sector_counts_and_brute_force():
    lay = build_layout("chain-obc", 3)
    sec = enumerate_sector(lay, SectorSpec(n_particles=1))
    assert sec.dim == 3 * 4  # choose the site, links free
    # frozen: N=1 with all gauge charges zero is empty (interior g is half-odd)
    empty = enumerate_sector(lay, SectorSpec(n_particles=1, gauge=(0, 0, 0)))
    assert empty.dim == 0
    rng = np.random.default_rng(9)
    for lay in (build_layout("chain-obc", 3), build_layout("chain-pbc", 3),
                build_layout("hierarchical", 4), build_layout("square-2d", 2, 2)):
        s0 = int(rng.integers(0, lay.nstates))
        g = charges_by_hand(lay, s0)
        sec = enumerate_sector(lay, SectorSpec(gauge=g))
        brute = [s for s in range(lay.nstates) if charges_by_hand(lay, s) == g]
        assert sorted(sec.states.tolist()) == brute
        assert s0 in brute


def test_gauge_fixes_particle_number():
    lay = build_layout("chain-obc", 4)
    g = gauge_charges(lay, 0b0110011)
    sec = enumerate_sector(lay, SectorSpec(gauge=g))
    occ = site_occupation_table(lay)[sec.states]
    assert np.all(occ == occ[0])
    assert occ[0] == (sum(g) + 2 * lay.L) // 2 - lay.L // 2


def test_gauge_sector_census_frozen_values():
    lay = build_layout("chain-obc", 3)
    configs, counts = gauge_sector_census(lay)
    assert len(configs) == 24
    assert counts.sum() == 32
    assert int((counts.astype(int) ** 2).sum()) == 52


def test_weak_sector_structure():
    lay = build_layout("chain-obc", 3)
    dsec = weak_sector(lay, n_particles=2)
    assert dsec.dim == 22          # frozen: sum of d_g**2 over N=2 configs
    assert dsec.diag_positions.size == 12
    table = gauge_charge_table(lay)
    assert np.array_equal(table[dsec.kets], table[dsec.bras])
    occ = site_occupation_table(lay)
    assert np.all(occ[dsec.kets] == 2) and np.all(occ[dsec.bras] == 2)
    pos = dsec.lookup(dsec.kets[:5], dsec.bras[:5])
    assert np.array_equal(pos, np.arange(5))
    # 13 = sites 1, 2 and link (2,3) up; 17 = sites 1, 3: both g = (2, -1, 0).
    # Pairs sorted by ket*32 + bra: (5,5), (7,7), (13,13), then (13,17).
    assert dsec.lookup(np.array([13]), np.array([17]))[0] == 3
    # 15 = sites 1, 2 and both links up has N = 2 but g = (0, 1, 0)
    assert dsec.lookup(np.array([13]), np.array([15]))[0] == -1
    # 12 = site 2 and link (2,3) up has N = 1
    assert dsec.lookup(np.array([13]), np.array([12]))[0] == -1


def test_full_pair_lookup_matches_searchsorted():
    lay = build_layout("chain-obc", 3)
    full = full_pairs(lay)
    n = lay.nstates
    rng = np.random.default_rng(3)
    kets, bras = rng.integers(0, n, 500), rng.integers(0, n, 500)
    pos = full.lookup(kets, bras)
    assert np.array_equal(pos, np.searchsorted(full.keys, kets * n + bras))
    assert np.array_equal(full.kets[pos], kets)
    assert np.array_equal(full.bras[pos], bras)
    # the same pairs without the last one take the searchsorted path
    most = DoubleSectorBasis(lay, full.kets[:-1], full.bras[:-1], "most")
    kept = kets * n + bras < n * n - 1
    assert np.array_equal(most.lookup(kets[kept], bras[kept]), pos[kept])


def test_partition_double_space_covers_once():
    lay = build_layout("chain-obc", 2)
    blocks = partition_double_space(lay)
    total = sum(b.dim for _, b in blocks)
    assert total == lay.nstates ** 2
    table = gauge_charge_table(lay).astype(int)
    seen = set()
    for key, b in blocks:
        delta = table[b.kets] - table[b.bras]
        assert np.all(delta == np.asarray(key))
        seen.update((int(k), int(bb)) for k, bb in zip(b.kets, b.bras))
    assert len(seen) == lay.nstates ** 2
    zero = dict(blocks)[(0,) * lay.L]
    _, counts = gauge_sector_census(lay)
    assert zero.dim == int((counts.astype(int) ** 2).sum())
    with pytest.raises(InfeasibleSectorError):
        partition_double_space(build_layout("chain-pbc", 6))


def test_empty_sector_is_not_an_error():
    lay = build_layout("chain-obc", 3)
    empty = enumerate_sector(lay, SectorSpec(n_particles=1, gauge=(0, 0, 0)))
    assert empty.dim == 0 and empty.states.dtype == np.int64
    # a pair basis with no pairs finds none
    none = weak_sector(lay, n_particles=lay.L + 1)
    assert none.dim == 0
    assert np.array_equal(none.lookup(np.array([0, 3]), np.array([0, 3])),
                          [-1, -1])


def test_generator_coefficients_match_table():
    from dqlm.symmetry import generator_sites, generator_slot_coefficients
    for lay in (build_layout("chain-obc", 4), build_layout("chain-pbc", 4),
                build_layout("hierarchical", 5), build_layout("square-2d", 3, 2)):
        table = gauge_charge_table(lay).astype(int)
        idx = np.arange(lay.nstates)
        z2 = np.stack([(((idx >> k) & 1) * 2 - 1)
                       for k in range(lay.total_spins)], axis=1)
        for col, site in enumerate(generator_sites(lay)):
            a = generator_slot_coefficients(lay, site).astype(int)
            assert np.array_equal(z2 @ a, table[:, col])


def test_infeasible_enumeration_guard():
    big = build_layout("chain-obc", 12)  # 23 spins
    with pytest.raises(InfeasibleSectorError):
        gauge_charge_table(big)


def test_particle_hole_reflection_and_sublattice_sign():
    layout = build_layout("chain-obc", 4)
    idx = np.arange(layout.nstates)
    image = reflect_states(layout, idx)
    # an involution of the register
    assert np.array_equal(np.sort(image), idx)
    assert np.array_equal(reflect_states(layout, image), idx)
    # N -> L - N, and the Gauss charges reflected and negated
    occupation = site_occupation_table(layout)
    assert np.array_equal(occupation[image], layout.L - occupation)
    table = gauge_charge_table(layout)
    assert np.array_equal(table[image], -table[:, ::-1])
    # the sign of the dipole q = sum_n n N_n
    q = sum(n * bit(idx, layout.site_slot(n)) for n in range(1, 5))
    assert np.array_equal(sublattice_sign(layout, idx), (-1) ** q)
    for other in (build_layout("chain-pbc", 4), build_layout("hierarchical", 4),
                  build_layout("square-2d", 2, Ly=2)):
        assert reflect_states(other, idx) is None
    for other in (build_layout("chain-pbc", 5), build_layout("hierarchical", 4),
                  build_layout("square-2d", 2, Ly=2)):
        assert sublattice_sign(other, idx) is None
    # on a ring the wrap hop changes q by L - 1: only an even ring has it
    ring = build_layout("chain-pbc", 4)
    idx = np.arange(ring.nstates)
    q = sum(n * bit(idx, ring.site_slot(n)) for n in range(1, 5))
    assert np.array_equal(sublattice_sign(ring, idx), (-1) ** q)
