"""Eigensolver wrappers, kernel extraction, winding, and integration."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from dqlm import numerics
from dqlm.exact import exact_steady_state, link_polarization
from dqlm.lattice import build_layout
from dqlm.liouvillian import (
    assemble,
    assemble_twisted,
    diagonal_expectation,
    steady_residual,
    vectorize_into,
)
from dqlm.models import DisorderSpec, JumpSpec, ModelSpec, build_hamiltonian, \
    build_jump_set
from dqlm.numerics import (
    SolverError,
    Spectrum,
    canonical_order,
    eig_dense,
    evolve,
    full_spectrum,
    hausdorff_distance,
    hull_violation,
    kernel_dimension,
    link_z_diagonals,
    multiset_distance,
    positivity_defect,
    pure_state_vector,
    site_number_diagonals,
    state_fidelity,
    steady_states,
    weak_spectrum,
    winding_scan,
)
from dqlm.symmetry import (
    SectorLeakageError,
    partition_double_space,
    weak_sector,
)


def biased_chain(L, gamma_up, gamma_down, kind="chain-obc"):
    return ModelSpec(layout=build_layout(kind, L),
                     jumps=(JumpSpec(family="biased", gamma_up=gamma_up,
                                     gamma_down=gamma_down),))


def test_canonical_order_is_real_desc_then_imag_asc():
    vals = np.array([1 + 2j, 3 + 0j, -2 + 0j, 1 - 1j])
    expect = np.array([3 + 0j, 1 - 1j, 1 + 2j, -2 + 0j])
    assert np.array_equal(vals[canonical_order(vals)], expect)


def test_triangular_and_hermitian_oracles():
    rng = np.random.default_rng(11)
    upper = np.triu(rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)))
    spec = eig_dense(upper)
    assert multiset_distance(spec.eigenvalues, np.diag(upper)) < 1e-10

    herm = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    herm = herm + herm.conj().T
    spec_h = eig_dense(herm, want_vectors=True)
    assert np.abs(spec_h.eigenvalues.imag).max() < 1e-10
    oracle = np.linalg.eigvalsh(herm)
    assert multiset_distance(spec_h.eigenvalues, oracle) < 1e-10
    assert spec_h.residual_max < 1e-8


def test_single_link_dissipator_spectrum():
    gu, gd = 0.7, 0.4
    s = gu + gd
    mat = np.array([[-2 * gu, 0, 0, 2 * gd],
                    [0, -s, 0, 0],
                    [0, 0, -s, 0],
                    [2 * gu, 0, 0, -2 * gd]], dtype=complex)
    spec = eig_dense(mat)
    want = np.array([0.0, -s, -s, -2 * s], dtype=complex)
    assert multiset_distance(spec.eigenvalues, want) < 1e-12


def test_dense_cap_raises():
    with pytest.raises(SolverError):
        eig_dense(np.eye(8), cap=5)
    with pytest.raises(SolverError):
        eig_dense(sp.identity(8, format="csr"), cap=5)


def test_kernel_and_steady_states_match_exact():
    spec = biased_chain(4, 0.3, 0.2)
    spectrum, dsec, superop = weak_spectrum(spec)
    assert len(spectrum.kernel_indices()) == 5
    assert kernel_dimension(superop.matrix, method="svd") == 5
    assert spectrum.max_real() < 1e-10
    assert multiset_distance(spectrum.eigenvalues,
                             np.conj(spectrum.eigenvalues)) < 1e-8

    ham, jumps = build_hamiltonian(spec), build_jump_set(spec)
    states = steady_states(superop, dsec)
    assert len(states) == 5
    for rho in states:
        dense = rho.toarray()
        assert np.abs(dense - dense.conj().T).max() < 1e-12
        assert steady_residual(ham, jumps, rho) < 1e-8

    spectrum_n, dsec_n, superop_n = weak_spectrum(spec, n_particles=2)
    states_n = steady_states(superop_n, dsec_n)
    assert len(states_n) == 1
    rho_ed = states_n[0]
    assert abs(complex(rho_ed.matrix.diagonal().sum()) - 1) < 1e-10
    assert positivity_defect(rho_ed) < 1e-10
    rho_exact = exact_steady_state(spec.layout, 1.5, n_particles=2).materialize()
    assert state_fidelity(rho_ed, rho_exact) > 1 - 1e-10

    zdiags = link_z_diagonals(spec.layout)
    for diag in zdiags:
        val = float((rho_ed.matrix.diagonal().real * diag).sum())
        assert abs(val - link_polarization(1.5)) < 1e-9


def test_full_spectrum_covers_every_pair(monkeypatch):
    spec = biased_chain(3, 0.5, 0.2)
    union = full_spectrum(spec)
    assert union.dim == spec.layout.nstates ** 2
    unsplit = eig_dense(assemble(spec).matrix).eigenvalues
    assert multiset_distance(union.eigenvalues, unsplit) < 1e-8
    assert union.max_real() < 1e-10
    # L+1 steady states in the charge-matched sector plus the two dark
    # coherences between the frozen all-empty and all-full matter
    # configurations (tensored with the link steady state)
    assert len(union.kernel_indices()) == 6
    assert union.block_labels is not None and len(union.block_labels) == union.dim
    weak = weak_spectrum(spec)[0]
    assert len(weak.kernel_indices()) == 4

    # a wrong split: the first component's first pair cut off on its own.
    # Pair counts still add up, but the couplings of the cut pair are lost.
    components = numerics.coupled_components(assemble(spec).matrix)
    wrong = [components[0][:1], components[0][1:]] + components[1:]
    monkeypatch.setattr(numerics, "coupled_components", lambda _: wrong)
    with pytest.raises(SectorLeakageError):
        full_spectrum(spec)


def test_components_refine_charge_difference_blocks():
    spec = biased_chain(3, 0.5, 0.2)
    full = assemble(spec)
    owner = np.full(full.dim, -1)
    for i, (_, dsec) in enumerate(partition_double_space(spec.layout)):
        owner[dsec.keys] = i
    components = numerics.coupled_components(full.matrix)
    assert sum(comp.size for comp in components) == full.dim
    for comp in components:
        assert np.all(owner[comp] == owner[comp[0]])
    assert len(components) > len(partition_double_space(spec.layout))


def test_full_spectrum_partner_spectra_match_direct_eig():
    # every delta != 0 block is the rho -> rho^+ mirror of the -delta block,
    # so half of these eigenvalues are conjugates, not eigensolver output;
    # disorder makes each block's own spectrum not closed under conjugation
    spec = ModelSpec(layout=build_layout("chain-obc", 3),
                     jumps=(JumpSpec(family="biased", gamma_up=0.5,
                                     gamma_down=0.2),),
                     disorder=DisorderSpec(seed=3))
    union = full_spectrum(spec)
    matrix = assemble(spec).matrix
    checked = 0
    for delta, dsec in partition_double_space(spec.layout):
        if not any(delta):
            continue
        direct = eig_dense(matrix[dsec.keys][:, dsec.keys]).eigenvalues
        mine = [value for value, label
                in zip(union.eigenvalues, union.block_labels) if label == delta]
        assert multiset_distance(mine, direct) < 1e-10
        checked += 1
    assert checked > 0


def test_full_spectrum_refuses_a_non_lindblad_generator(monkeypatch):
    # the double-space twist is not of Lindblad form: the conjugate of a
    # component's mirror is not its partner, so the reuse must refuse
    spec = biased_chain(3, 0.5, 0.2, kind="chain-pbc")
    twisted = assemble_twisted(spec, 0.7, "double-space")
    monkeypatch.setattr(numerics, "assemble", lambda _: twisted)
    with pytest.raises(SolverError, match="conjugate mirror"):
        full_spectrum(spec)


def test_split_spectrum_matches_unsplit_eig():
    spec = biased_chain(4, 2.4, 1.6)
    dsec = weak_sector(spec.layout)
    superop = assemble(spec, sector=dsec)
    split = numerics.spectrum_of(superop, want_vectors=True)
    assert len(set(split.block_labels)) == spec.layout.L + 1
    unsplit = eig_dense(superop.matrix)
    assert multiset_distance(split.eigenvalues, unsplit.eigenvalues) < 1e-10
    assert np.array_equal(split.eigenvalues,
                          split.eigenvalues[canonical_order(split.eigenvalues)])
    dense = superop.matrix.toarray()
    residual = np.linalg.norm(dense @ split.vectors
                              - split.vectors * split.eigenvalues, axis=0)
    assert residual.max() < 1e-8
    assert split.residual_max < 1e-8


def test_dephasing_kernel_counts_gauge_configs():
    layout = build_layout("chain-obc", 3)
    spec = ModelSpec(layout=layout,
                     jumps=(JumpSpec(family="dephasing", gamma=0.7),))
    weak = weak_spectrum(spec)[0]
    assert len(weak.kernel_indices()) == 24

    # full pair space: dark space = link-diagonal operators commuting with
    # H; cross-check the Liouvillian count against that constraint kernel
    union = full_spectrum(spec)
    unsplit = eig_dense(assemble(spec).matrix).eigenvalues
    assert multiset_distance(union.eigenvalues, unsplit) < 1e-8
    ham = build_hamiltonian(spec).toarray()
    n = layout.nstates
    from dqlm.lattice import state_bit
    idx = np.arange(n, dtype=np.int64)
    link_bits = np.zeros(n, dtype=np.int64)
    for m in range(1, layout.n_links + 1):
        link_bits |= state_bit(idx, layout.link_slot(m)).astype(np.int64) << m
    pairs = [(a, b) for a in range(n) for b in range(n)
             if link_bits[a] == link_bits[b]]
    # columns: link-diagonal operators; rows: the full pair space, since
    # commuting with H must hold before re-projecting
    ad_h = np.zeros((n * n, len(pairs)), dtype=complex)
    for col, (a, b) in enumerate(pairs):
        for c in range(n):
            if ham[c, a] != 0:
                ad_h[c * n + b, col] += ham[c, a]
            if ham[b, c] != 0:
                ad_h[a * n + c, col] -= ham[b, c]
    sing = np.linalg.svd(ad_h, compute_uv=False)
    dark = len(pairs) - int(np.count_nonzero(sing > 1e-9))
    assert len(union.kernel_indices()) == dark == 88


def test_multiset_and_hausdorff_metrics():
    rng = np.random.default_rng(5)
    a = rng.normal(size=40) + 1j * rng.normal(size=40)
    perm = rng.permutation(40)
    assert multiset_distance(a, a[perm]) < 1e-15
    assert multiset_distance(a, a + 1e-6) == pytest.approx(1e-6, rel=1e-6)
    assert multiset_distance(a, a[:-1]) == np.inf

    big = rng.normal(size=2500) + 1j * rng.normal(size=2500)
    assert multiset_distance(big, big[rng.permutation(2500)]) < 1e-15

    assert hausdorff_distance([0, 1], [0, 1 + 0.5j]) == pytest.approx(0.5)
    assert hausdorff_distance([0, 1], [0.2]) == pytest.approx(0.8)


def test_hull_violation_signs():
    square = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
    assert hull_violation(np.array([0j]), square) == pytest.approx(-1.0)
    assert hull_violation(np.array([2 + 0j]), square) == pytest.approx(1.0)
    assert hull_violation(np.array([0j, 0.5 + 0.5j]), square) <= 0.0


def test_winding_scan_variants():
    spec = biased_chain(4, 2.4, 1.6, kind="chain-pbc")
    phis = [0.0, 0.3, 1.0]
    proper = winding_scan(spec, phis, "lindblad", n_particles=2)
    for later in proper[1:]:
        assert multiset_distance(proper[0].eigenvalues,
                                 later.eigenvalues) < 1e-8

    loop = winding_scan(spec, [0.0, np.pi / 2, np.pi], "double-space",
                        n_particles=2)
    assert multiset_distance(loop[0].eigenvalues,
                             loop[2].eigenvalues) < 1e-8
    assert hausdorff_distance(loop[0].eigenvalues,
                              loop[1].eigenvalues) > 1e-4


def test_evolve_single_link_closed_form():
    gu, gd = 0.9, 0.3
    spec = ModelSpec(layout=build_layout("chain-obc", 2), J=0.0,
                     jumps=(JumpSpec(family="biased", gamma_up=gu,
                                     gamma_down=gd),))
    layout = spec.layout
    dsec = weak_sector(layout)
    superop = assemble(spec, sector=dsec)
    start = 1  # site 1 occupied, link down, site 2 empty
    v0 = pure_state_vector(start, dsec)
    zdiag = link_z_diagonals(layout)[0]
    times = np.linspace(0.0, 4.0, 41)
    series = evolve(superop.matrix, v0, times,
                    observables={"sz": lambda v: diagonal_expectation(
                        v, dsec, zdiag)},
                    dsec=dsec, rtol=1e-10, atol=1e-12, track_positivity=True)
    beta = gu / gd
    closed = (link_polarization(beta)
              + (-0.5 - link_polarization(beta)) * np.exp(-2 * (gu + gd) * times))
    assert np.abs(series.observable("sz").real - closed).max() < 1e-8
    assert series.trace_defect.max() < 1e-9
    assert series.positivity_defect.max() < 1e-8


def test_evolve_matches_matrix_exponential():
    spec = biased_chain(3, 0.8, 0.5)
    dsec = weak_sector(spec.layout, n_particles=1)
    superop = assemble(spec, sector=dsec)
    assert dsec.dim <= 64
    rng = np.random.default_rng(7)
    raw = rng.normal(size=(dsec.dim,)) + 1j * rng.normal(size=(dsec.dim,))
    v0 = raw / np.linalg.norm(raw)
    times = np.array([0.0, 0.4, 1.1, 2.5])
    series = evolve(superop.matrix, v0, times, rtol=1e-11, atol=1e-13)
    dense = superop.matrix.toarray()
    oracle = scipy.linalg.expm(dense * times[-1]) @ v0
    assert np.abs(series.final_vector - oracle).max() < 1e-8


def test_evolve_guards():
    mat = np.zeros((2, 2))
    with pytest.raises(SolverError):
        evolve(mat, np.zeros(2), [0.0])
    with pytest.raises(SolverError):
        evolve(mat, np.zeros(2), [0.0, 0.0])
    with pytest.raises(SolverError):
        kernel_dimension(np.eye(3), method="qr")
    dsec = weak_sector(build_layout("chain-obc", 2), n_particles=1)
    with pytest.raises(SolverError):
        pure_state_vector(0, dsec)  # empty chain is N=0, not in N=1 sector


def test_site_number_diagonals_partition_total():
    for layout in (build_layout("chain-obc", 3),
                   build_layout("hierarchical", 3),
                   build_layout("square-2d", 2, Ly=2)):
        diags = site_number_diagonals(layout)
        total = sum(diags)
        assert total.min() >= 0
        idx = np.arange(layout.nstates)
        from dqlm.symmetry import site_occupation_table
        assert np.array_equal(total.astype(int), site_occupation_table(layout)[idx])


def test_empty_spectrum_helpers():
    empty = Spectrum(np.zeros(0, dtype=complex))
    assert empty.dim == 0
    assert empty.max_real() == -np.inf
    assert multiset_distance([], []) == 0.0
