"""Eigensolver wrappers, kernel extraction, winding, and integration."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from dqlm import krylov, numerics
from dqlm.exact import exact_steady_state, link_polarization
from dqlm.lattice import build_layout, state_bit
from dqlm.liouvillian import (
    NonFiniteGeneratorError,
    Superoperator,
    assemble,
    assemble_twisted,
    devectorize_from,
    diagonal_expectation,
    steady_residual,
    vectorize_into,
)
from dqlm.models import JUMP_FAMILIES, JUMP_RATES, DisorderSpec, JumpSpec, \
    ModelSpec, build_hamiltonian, build_jump_set
from dqlm.numerics import (
    BLOCK_COUNTS,
    SolverError,
    Spectrum,
    canonical_order,
    eig_dense,
    evolve,
    full_spectrum,
    hausdorff_distance,
    hull_violation,
    link_z_diagonals,
    multiset_distance,
    phase_partner,
    positivity_defect,
    pure_state_vector,
    site_number_diagonals,
    spectrum_of,
    steady_states,
    weak_spectrum,
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
    spec_h = eig_dense(herm)
    assert np.abs(spec_h.eigenvalues.imag).max() < 1e-10
    oracle = np.linalg.eigvalsh(herm)
    assert multiset_distance(spec_h.eigenvalues, oracle) < 1e-10


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
    spectrum, _, superop = weak_spectrum(spec)
    assert len(spectrum.kernel_indices()) == 5
    singular = np.linalg.svd(superop.matrix.toarray(), compute_uv=False)
    assert np.count_nonzero(singular < 1e-9) == 5
    assert spectrum.max_real() < 1e-10
    assert multiset_distance(spectrum.eigenvalues,
                             np.conj(spectrum.eigenvalues)) < 1e-8

    ham, jumps = build_hamiltonian(spec), build_jump_set(spec)
    states = steady_states(superop)
    assert len(states) == 5
    for rho in states:
        dense = rho.toarray()
        assert np.abs(dense - dense.conj().T).max() < 1e-12
        assert steady_residual(ham, jumps, rho) < 1e-8

    spectrum_n, _, superop_n = weak_spectrum(spec, n_particles=2)
    states_n = steady_states(superop_n)
    assert len(states_n) == 1
    rho_ed = states_n[0]
    assert abs(complex(rho_ed.matrix.diagonal().sum()) - 1) < 1e-10
    assert positivity_defect(rho_ed) < 1e-10
    rho_exact = exact_steady_state(spec.layout, 1.5, n_particles=2).materialize()
    assert (rho_ed - rho_exact).frobenius_norm() < 1e-10

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


def hermitian_steady_basis(superop, spectrum):
    """`steady_states` of a generator: one steady state per kernel
    eigenvalue, each Hermitian, all linearly independent (so over the
    reals too, being Hermitian). Returns the states."""
    states = steady_states(superop)
    assert len(states) == len(spectrum.kernel_indices())
    stacked = np.array([vectorize_into(rho, superop.sector)
                        for rho in states])
    assert np.linalg.matrix_rank(stacked) == len(states)
    for rho in states:
        assert abs(rho.matrix - rho.matrix.conj().T).max() < 1e-12
    assert max(steady_residual(superop.hamiltonian, superop.jumps,
                               states)) < 1e-10
    return states


def gauge_fixed(kind):
    layout = build_layout(kind, 4)
    spec = ModelSpec(layout=layout,
                     jumps=(JumpSpec(family="gauge-fix", strength=0.7),))
    return assemble(spec, sector=weak_sector(layout))


@pytest.mark.parametrize("build, kernel, most", [
    pytest.param(lambda: gauge_fixed("chain-pbc"), 280, 9, id="pbc-gauge-fix"),
    pytest.param(lambda: gauge_fixed("chain-obc"), 128, 5, id="obc-gauge-fix"),
    pytest.param(lambda: dict(mirror_cases())["hierarchical"], 18, 2,
                 id="hierarchical")])
def test_degenerate_kernels_give_independent_hermitian_states(build, kernel,
                                                              most):
    # `kernel` kernel eigenvalues, up to `most` in one block; on the
    # periodic chain blocks k and -k are mirror partners whose kernel
    # vectors share their Hermitian parts, taken from the first one's
    superop = build()
    split = spectrum_of(superop)
    labels = np.asarray(split.block_labels)[split.kernel_indices()]
    assert labels.size == kernel and np.bincount(labels).max() == most
    hermitian_steady_basis(superop, split)


def test_split_spectrum_matches_unsplit_eig():
    spec = biased_chain(4, 2.4, 1.6)
    dsec = weak_sector(spec.layout)
    superop = assemble(spec, sector=dsec)
    split = numerics.spectrum_of(superop)
    assert len(set(split.block_labels)) == spec.layout.L + 1
    unsplit = eig_dense(superop.matrix)
    assert multiset_distance(split.eigenvalues, unsplit.eigenvalues) < 1e-10
    assert np.array_equal(split.eigenvalues,
                          split.eigenvalues[canonical_order(split.eigenvalues)])
    hermitian_steady_basis(superop, split)


@pytest.mark.slow
@pytest.mark.parametrize("L, n_particles", [(4, 2), (5, 1)])
def test_momentum_blocks_match_unsplit_eig(L, n_particles):
    spec = biased_chain(L, 2.4, 1.6, kind="chain-pbc")
    dsec = weak_sector(spec.layout, n_particles)
    generators = [assemble_twisted(spec, phi, variant, sector=dsec)
                  for variant in ("lindblad", "double-space")
                  for phi in (0.0, 0.7, np.pi / 2, np.pi)]
    twisted = ModelSpec(layout=spec.layout, twist=1.1, jumps=spec.jumps)
    generators.append(assemble(twisted, sector=dsec))
    for superop in generators:
        split = spectrum_of(superop)
        assert np.bincount(split.block_labels).size >= L
        unsplit = eig_dense(superop.matrix).eigenvalues
        assert multiset_distance(split.eigenvalues, unsplit) < 1e-8


def test_periodic_steady_state_through_momentum_blocks():
    spec = biased_chain(5, 2.4, 1.6, kind="chain-pbc")
    dsec = weak_sector(spec.layout, 2)
    superop = assemble(spec, sector=dsec)
    split = spectrum_of(superop)
    assert np.array_equal(np.bincount(split.block_labels), [296] * 5)
    states = steady_states(superop)
    assert len(states) == 1
    rho = states[0]
    diag = rho.matrix.diagonal().real
    for occupation in site_number_diagonals(spec.layout):
        assert abs(float(diag @ occupation) - 2 / 5) < 1e-10
    assert positivity_defect(rho) < 1e-10
    assert steady_residual(superop.hamiltonian, superop.jumps, rho) < 1e-10


def mirror_cases():
    """Generators that commute with rho -> rho^+, on every layout."""
    rates = dict(gamma_up=2.4, gamma_down=1.6)
    obc = ModelSpec(layout=build_layout("chain-obc", 4),
                    jumps=(JumpSpec(family="biased", **rates),),
                    disorder=DisorderSpec(seed=5))
    yield "obc-disorder", assemble(obc, sector=weak_sector(obc.layout, 2))
    pbc = biased_chain(4, 2.4, 1.6, kind="chain-pbc")
    yield "pbc", assemble(pbc, sector=weak_sector(pbc.layout, 2))
    for phi in (0.7, 2.0):
        yield f"lindblad-{phi}", assemble_twisted(
            pbc, phi, "lindblad", sector=weak_sector(pbc.layout, 1))
    hier = ModelSpec(layout=build_layout("hierarchical", 3),
                     hamiltonian="hierarchical", J1=1.0, J2=0.8,
                     jumps=(JumpSpec(family="biased", **rates),))
    yield "hierarchical", assemble(hier, sector=weak_sector(hier.layout))
    grid = ModelSpec(layout=build_layout("square-2d", 2, Ly=2),
                     hamiltonian="qlm-2d", J1=1.0, J2=0.7,
                     jumps=(JumpSpec(family="biased", gamma_up_v=2.0,
                                     gamma_down_v=1.0, **rates),))
    yield "square-2d", assemble(grid, sector=weak_sector(grid.layout, 2))
    chain = build_layout("chain-obc", 3)
    dephasing = ModelSpec(layout=chain,
                          jumps=(JumpSpec(family="dephasing", gamma=0.7),))
    yield "dephasing", assemble(dephasing, sector=weak_sector(chain))
    gauge = ModelSpec(layout=chain,
                      jumps=(JumpSpec(family="biased", **rates),
                             JumpSpec(family="gauge-fix", strength=0.8)))
    yield "gauge-fix", assemble(gauge, sector=weak_sector(chain))


@pytest.mark.parametrize("superop", [pytest.param(superop, id=name)
                                     for name, superop in mirror_cases()])
def test_mirror_eig_matches_the_complex_path(superop):
    split = spectrum_of(superop)
    assert split.real_blocks > 0
    if superop.twists is not None:
        # momentum blocks k and -k are mirror partners
        assert split.conjugated_blocks > 0
    unsplit = eig_dense(superop.matrix).eigenvalues
    assert multiset_distance(split.eigenvalues, unsplit) < 1e-10
    hermitian_steady_basis(superop, split)
    # a real form's pieces are never larger than its block
    assert 0 < split.eig_max_dim <= np.bincount(split.block_labels).max()


def split_real_form(superop):
    """The coupled components of the real form of a one-component
    weak-sector generator."""
    mirror = numerics._mirror_map(superop.sector)
    _, rotated = numerics._real_form(superop.matrix, *mirror)
    return numerics.coupled_components(numerics._real_part(rotated))


def test_real_form_of_one_block_is_diagonalized_in_pieces():
    spec = biased_chain(5, 2.4, 1.6)
    superop = assemble(spec, sector=weak_sector(spec.layout, 2))
    assert len(numerics.coupled_components(superop.matrix)) == 1
    assert [c.size for c in split_real_form(superop)] == [339, 179]
    split = spectrum_of(superop)
    assert split.real_blocks == 1 and split.block_labels == (0,) * 518
    assert split.eig_max_dim == 339
    unsplit = eig_dense(superop.matrix).eigenvalues
    assert multiset_distance(split.eigenvalues, unsplit) < 1e-10
    assert np.array_equal(split.eigenvalues,
                          split.eigenvalues[canonical_order(split.eigenvalues)])
    hermitian_steady_basis(superop, split)


def test_disordered_real_form_does_not_split():
    # on-site disorder breaks the symmetry behind the real form's split
    spec = ModelSpec(layout=build_layout("chain-obc", 5),
                     jumps=(JumpSpec(family="biased", gamma_up=2.4,
                                     gamma_down=1.6),),
                     disorder=DisorderSpec(seed=3))
    superop = assemble(spec, sector=weak_sector(spec.layout, 2))
    assert len(split_real_form(superop)) == 1
    split = spectrum_of(superop)
    assert split.eig_max_dim == superop.dim == 518
    unsplit = eig_dense(superop.matrix).eigenvalues
    assert multiset_distance(split.eigenvalues, unsplit) < 1e-10
    hermitian_steady_basis(superop, split)
    # nothing to restrict: the frames are those of the whole real form
    v0 = pure_state_vector(initial_state(spec.layout, (1, 2)), superop.sector)
    times = np.linspace(0.0, 1.0, 3)
    series = evolve(superop.matrix, v0, times,
                    observables={"frame": lambda v: v.copy()},
                    dsec=superop.sector)
    assert series.real_form and series.evolved_dim == 518
    mirror = numerics._mirror_map(superop.sector)
    unitary, rotated = numerics._real_form(superop.matrix, *mirror)
    real = numerics._real_part(rotated)
    whole = krylov.integrate(lambda y: real @ y,
                             (unitary.conj().T @ v0).real, times,
                             rtol=1e-9, atol=1e-9)
    assert series.nfev == whole.nfev
    assert np.array_equal(series.observables["frame"],
                          np.array([unitary @ w for w in whole.frames.T]))


def test_mirror_guards_fall_back_to_the_complex_path():
    spec = biased_chain(4, 2.4, 1.6, kind="chain-pbc")
    dsec = weak_sector(spec.layout, 1)
    # the double-space twist away from 0 and pi is not of Lindblad form
    twisted = assemble_twisted(spec, 0.7, "double-space", sector=dsec)
    split = spectrum_of(twisted)
    assert split.real_blocks == split.conjugated_blocks == 0
    unsplit = eig_dense(twisted.matrix).eigenvalues
    assert multiset_distance(split.eigenvalues, unsplit) < 1e-10
    # its rho -> rho^+ image is the double-space generator at -phi ...
    mirror = assemble_twisted(spec, 2 * np.pi - 0.7, "double-space",
                              sector=dsec)
    image = phase_partner(twisted, split, mirror)
    assert image.conjugated_blocks == np.bincount(split.block_labels).size
    direct = eig_dense(mirror.matrix).eigenvalues
    assert multiset_distance(image.eigenvalues, direct) < 1e-10
    # ... while each lindblad generator is its own image, not the -phi one
    lindblad = [assemble_twisted(spec, phi, "lindblad", sector=dsec)
                for phi in (0.7, 2 * np.pi - 0.7)]
    assert phase_partner(lindblad[0], spectrum_of(lindblad[0]),
                             lindblad[1]) is None


def mutated(superop, kind):
    """`superop`, a generator on a pair basis, with its largest block of
    one kind perturbed by 1e-10 relative to that block: "partner", a real
    shift of a diagonal entry of a block that rho -> rho^+ maps onto
    another block; "imaginary", an imaginary one on a diagonal pair (a, a),
    which gives the real form of its self-mirror block an imaginary part."""
    matrix = superop.matrix
    image = numerics._mirror_map(superop.sector)[0]
    components = numerics.coupled_components(matrix)
    labels = np.empty(superop.dim, dtype=np.int64)
    for i, own in enumerate(components):
        labels[own] = i
    if kind == "partner":
        chosen = [c for c in components if labels[image[c[0]]] != labels[c[0]]]
    else:
        chosen = [c for c in components if np.any(image[c] == c)]
    own = max(chosen, key=len)
    if kind == "imaginary":
        return bumped(superop, own, own[image[own] == own][0], 1j)
    return bumped(superop, own, own[0])


def bumped(superop, own, g, unit=1.0):
    """`superop` with the diagonal entry g of its block `own` shifted by
    `unit` times 1e-10 relative to that block."""
    matrix = superop.matrix
    size = np.linalg.norm(matrix[own][:, own].data)
    shift = 1e-10 * size * unit
    bump = sp.csr_matrix(([shift], ([g], [g])), shape=matrix.shape)
    return Superoperator((matrix + bump).tocsr(), superop.sector,
                         superop.hamiltonian, superop.jumps, superop.twists)


@pytest.mark.parametrize("kind", ["partner", "imaginary"])
def test_mirror_check_catches_a_block_off_by_1e_10(kind, monkeypatch):
    spec = biased_chain(2, 2.4, 1.6)
    full = assemble(spec)
    clean = spectrum_of(full)
    assert clean.real_blocks > 0 and clean.conjugated_blocks > 0
    bad = mutated(full, kind)
    # the mutated block (and its partner) takes the complex eig
    split = spectrum_of(bad)
    if kind == "partner":
        assert split.conjugated_blocks == clean.conjugated_blocks - 1
        assert split.real_blocks == clean.real_blocks
    else:
        assert split.real_blocks == clean.real_blocks - 1
        assert split.conjugated_blocks == clean.conjugated_blocks
    unsplit = eig_dense(bad.matrix).eigenvalues
    assert multiset_distance(split.eigenvalues, unsplit) < 1e-10
    # steady_states takes the kernel of a block that does not commute
    # with rho -> rho^+ from the complex block (the mutated partner
    # block holds no kernel)
    kinds = []
    basis = numerics._kernel_basis

    def recorded(block, *args):
        kinds.append(block.dtype.kind)
        return basis(block, *args)

    monkeypatch.setattr(numerics, "_kernel_basis", recorded)
    steady_states(full)
    # the first block of each mirror pair is factored complex
    clean_kinds = kinds[:]
    assert "f" in clean_kinds and "c" in clean_kinds
    kinds.clear()
    states = steady_states(bad)
    moved = kind == "imaginary"
    assert kinds.count("c") == clean_kinds.count("c") + moved
    assert kinds.count("f") == clean_kinds.count("f") - moved
    assert len(states) == len(split.kernel_indices())
    vectors = np.array([vectorize_into(rho, bad.sector) for rho in states]).T
    assert np.linalg.matrix_rank(vectors) == len(states)
    # the kernel eigenvalue of the mutated block moved by about 1e-10
    assert np.abs(bad.matrix @ vectors).max() < 1e-9
    # full_spectrum refuses it
    monkeypatch.setattr(numerics, "assemble", lambda _: bad)
    with pytest.raises(SolverError, match="conjugate mirror"):
        full_spectrum(spec)


def open_chain(L, disorder=None):
    spec = ModelSpec(layout=build_layout("chain-obc", L),
                     jumps=biased_chain(L, 2.4, 1.6).jumps, disorder=disorder)
    return assemble(spec, sector=weak_sector(spec.layout))


def open_chain_L5(disorder=None):
    return open_chain(5, disorder)


@pytest.mark.parametrize("build, least_k", [
    pytest.param(open_chain_L5, 2, id="obc-L5"),
    pytest.param(lambda: open_chain_L5(DisorderSpec(seed=3)), 2,
                 id="obc-L5-disorder"),
    pytest.param(lambda: dict(mirror_cases())["dephasing"], 2,
                 id="dephasing"),
    # a block with 9 kernel states, factored at its own size: k = 16 > 9
    pytest.param(lambda: gauge_fixed("chain-pbc"), 16, id="pbc-gauge-fix"),
    pytest.param(lambda: dict(mirror_cases())["hierarchical"], 2,
                 id="hierarchical"),
    pytest.param(lambda: mutated(assemble(biased_chain(2, 2.4, 1.6)),
                                 "imaginary"), 2, id="complex-block")])
def test_kernel_count_matches_the_dense_spectrum(build, least_k, monkeypatch):
    # steady_states counts each kernel by shift-invert ARPACK, doubling k
    # until the k-th eigenvalue nearest sigma leaves the kernel; every
    # block large enough for ARPACK takes it here, however small
    import scipy.sparse.linalg

    monkeypatch.setattr(numerics, "KERNEL_DENSE_DIM", 0)
    superop = build()
    kernel = len(spectrum_of(superop).kernel_indices())
    ks = []
    real = scipy.sparse.linalg.eigs

    def recording(matrix, k, **kwargs):
        ks.append(k)
        return real(matrix, k, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigs", recording)
    assert len(steady_states(superop)) == kernel
    assert max(ks) >= least_k


@pytest.mark.parametrize("kind", ["chain-obc", "chain-pbc"])
def test_frozen_blocks_take_the_dense_fallback(kind, monkeypatch):
    # the 1 x 1 frozen configurations of the gauge-fix sectors are too
    # small for ARPACK, which needs k = 2 < n - 1
    superop = gauge_fixed(kind)
    kernel = len(spectrum_of(superop).kernel_indices())
    sizes = []
    real = numerics.eig_dense

    def recording(matrix, *args, **kwargs):
        sizes.append(matrix.shape[0])
        return real(matrix, *args, **kwargs)

    monkeypatch.setattr(numerics, "eig_dense", recording)
    stats = {}
    assert len(steady_states(superop, stats=stats)) == kernel
    plan = plan_of(superop)
    frozen = np.diff(plan.bounds) == 1
    # each frozen root alone; its conjugate and its copies are not counted
    assert frozen.any() and sizes.count(1) == np.count_nonzero(
        frozen[plan.roots])
    assert 2 not in sizes
    assert stats["eig_max_dim"] == max(sizes)


def reference_steady_states(superop, tol=numerics.KERNEL_TOL):
    """The reference of `steady_states`: its groups visited one at a time,
    a block or a C mirror pair of blocks sliced as the sorted union of its
    coordinates, each factored whole, in its real form where C holds."""
    from scipy.sparse.linalg import splu

    bloch, matrix, mirror = numerics._frame(superop)
    components, labels = numerics._split(matrix, numerics.DENSE_CAP)
    partner, gap = numerics._block_images(matrix, components, labels, mirror,
                                          antiunitary=True)
    lift = sp.identity(superop.dim, format="csc") if bloch is None else bloch
    tvec = numerics.trace_vector(superop.sector)
    rng = np.random.default_rng(0)
    done = np.zeros(len(components), dtype=bool)
    states = []
    for i in range(len(components)):
        if done[i]:
            continue
        real = gap[i] <= numerics.MIRROR_TOL
        group = np.unique([i, partner[i]]) if real else [i]
        done[group] = True
        own = np.sort(np.concatenate([components[g] for g in group]))
        block, unitary = matrix[own][:, own], sp.identity(own.size)
        if real:
            unitary, rotated = numerics._real_form(
                block, np.searchsorted(own, mirror[0][own]), mirror[1][own])
            block = numerics._real_part(rotated)
        lu = splu(sp.csc_matrix(
            block - tol * sp.identity(own.size, format="csc")))
        values = numerics._near_kernel(block, lu, tol)[0]
        count = np.count_nonzero(np.abs(values) < tol)
        if not count:
            continue
        basis = numerics._kernel_basis(block, lu, count, rng)[0]
        for vec in (lift[:, own] @ (unitary @ basis)).T:
            vec[np.abs(vec) <= numerics.MIRROR_TOL * np.abs(vec).max()] = 0
            trace = tvec @ vec
            vec = vec / (trace if abs(trace) > 1e-10 else np.linalg.norm(vec))
            states.append(devectorize_from(vec, superop.sector))
    return states


def plan_of(superop):
    """The block plan `steady_states` reads for a generator."""
    bloch, matrix, mirror = numerics._frame(superop)
    return numerics._plan(matrix, mirror,
                          pairs=superop.sector if bloch is None else None)


def kernel_groups(superop, states):
    """The vectorized states by the first block of the frame that each
    touches: a block, or the first of a C mirror pair."""
    bloch, matrix, _ = numerics._frame(superop)
    labels = numerics._split(matrix, numerics.DENSE_CAP)[1]
    groups = {}
    for rho in states:
        vec = vectorize_into(rho, superop.sector)
        coords = vec if bloch is None else bloch.conj().T @ vec
        first = labels[np.abs(coords) > 1e-12 * np.abs(coords).max()].min()
        groups.setdefault(first, []).append(vec)
    return {b: np.array(vectors).T for b, vectors in groups.items()}


def subspace_distance(a, b):
    """The sine of the largest principal angle between two column spans."""
    qa, qb = np.linalg.qr(a)[0], np.linalg.qr(b)[0]
    return np.linalg.norm(qa - qb @ (qb.conj().T @ qa), 2)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: open_chain(4), id="obc-L4"),
    pytest.param(lambda: open_chain(5), id="obc-L5"),
    pytest.param(lambda: open_chain(5, DisorderSpec(seed=3)),
                 id="obc-L5-disorder"),
    pytest.param(lambda: ring(4, None), id="ring-L4"),
    pytest.param(lambda: ring(4, 2), id="ring-L4-N2"),
    pytest.param(lambda: ring(5, 2), id="ring-L5-N2"),
    pytest.param(lambda: ring(6, 3), id="ring-L6-N3",
                 marks=pytest.mark.slow),
    pytest.param(lambda: gauge_fixed("chain-pbc"), id="pbc-gauge-fix"),
    pytest.param(lambda: gauge_fixed("chain-obc"), id="obc-gauge-fix")])
def test_planned_kernels_match_the_per_group_reference(build):
    # roots are factored as the reference factors them, so their states
    # are bit for bit the same; a Pi copy differs in its last bits, and a
    # degenerate kernel, a mirror pair's included, comes in another basis
    superop = build()
    states = steady_states(superop)
    reference = reference_steady_states(superop)
    assert len(states) == len(reference)
    plan = plan_of(superop)
    got, want = (kernel_groups(superop, s) for s in (states, reference))
    assert sorted(got) == sorted(want)
    for b, vectors in got.items():
        assert vectors.shape == want[b].shape
        if vectors.shape[1] > 1:
            assert subspace_distance(vectors, want[b]) < 1e-12
        elif plan.path[b] == numerics.COPIED:
            assert np.abs(vectors - want[b]).max() <= 1e-15
        else:
            assert np.array_equal(vectors, want[b])
    spectrum = spectrum_of(superop)
    assert len(states) == len(spectrum.kernel_indices())
    hermitian_steady_basis(superop, spectrum)


def factored_sizes(monkeypatch):
    """The dimension of every matrix `steady_states` hands to splu."""
    import scipy.sparse.linalg

    sizes = []
    real = scipy.sparse.linalg.splu

    def recording(matrix, *args, **kwargs):
        sizes.append(matrix.shape[0])
        return real(matrix, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recording)
    return sizes


def test_only_the_roots_of_the_plan_are_factored(monkeypatch):
    sizes = factored_sizes(monkeypatch)
    # the L=4 N=2 ring: each mirror pair's first block at its own size
    superop = ring(4, 2)
    plan = plan_of(superop)
    blocks = np.diff(plan.bounds)
    assert np.any(plan.path == numerics.CONJUGATED)
    assert len(steady_states(superop)) == 1
    assert sorted(sizes) == sorted(blocks[plan.roots].tolist())
    assert max(sizes) <= blocks.max() and 2 * blocks.max() not in sizes
    # the L=5 open chain without N: Pi copies N = 3, 4, 5 from 2, 1, 0
    sizes.clear()
    stats = {}
    assert len(steady_states(open_chain(5), stats=stats)) == 6
    assert sorted(sizes) == [16, 178, 518]
    assert stats["copied_blocks"] == 3 and stats["real_blocks"] == 3
    assert stats["conjugated_blocks"] == 0


@pytest.mark.slow
def test_ring_l6_n3_factors_under_3m_entries():
    stats = {}
    assert len(steady_states(ring(6, 3), stats=stats)) == 1
    assert stats["kernel_lu_nnz"] < 3.0e6
    assert stats["kernel_residual_ratio"] < 1e-12


def test_a_kernel_is_refused_unless_its_separation_resolves_it():
    spec = biased_chain(4, 2.4e6, 1.6e6)
    superop = assemble(spec, sector=weak_sector(spec.layout, 2))
    stats = {}
    with pytest.raises(numerics.UncertifiedKernelError, match="not resolved"):
        steady_states(superop, stats=stats)
    assert stats["kernel_residual_ratio"] > 1e-3
    # a zero generator: every block is a frozen kernel, with no separation
    zero = Superoperator(sp.csr_matrix(superop.matrix.shape), superop.sector,
                         superop.hamiltonian, superop.jumps)
    assert len(steady_states(zero, stats=stats)) == zero.dim
    assert stats["kernel_separation"] is None
    assert stats["kernel_residual_ratio"] is None


def test_mirror_check_runs_once_per_generator(monkeypatch):
    calls = []
    gaps = numerics._gaps

    def counted(*args, **kwargs):
        # C is the one antiunitary map; the others are unitary
        if kwargs.get("antiunitary"):
            calls.append(args[0].shape)
        return gaps(*args, **kwargs)

    monkeypatch.setattr(numerics, "_gaps", counted)
    spec = biased_chain(4, 2.4, 1.6, kind="chain-pbc")
    dsec = weak_sector(spec.layout, 1)
    # momentum blocks, each split into components, partners and real forms
    lindblad = spectrum_of(assemble(spec, sector=dsec))
    assert lindblad.real_blocks > 0 and lindblad.conjugated_blocks > 0
    assert len(calls) == 1
    full_spectrum(biased_chain(3, 2.4, 1.6))
    assert len(calls) == 2
    twisted = assemble_twisted(spec, 0.7, "double-space", sector=dsec)
    split = spectrum_of(twisted)
    assert len(calls) == 3
    mirror = assemble_twisted(spec, 2 * np.pi - 0.7, "double-space",
                              sector=dsec)
    assert phase_partner(twisted, split, mirror) is not None
    assert len(calls) == 4
    v0 = hermitian_vector(dsec, 3)
    assert frames_of(assemble(spec, sector=dsec), v0, dsec).real_form
    assert len(calls) == 5


# periodic weak sectors of at most 470 pairs, and the 1140-pair one-particle
# sector of the README winding call; L=5 N=2, 3 (1480 pairs) and L=6 N=2..5
# are left out: one unsplit eig of them takes seconds or is over the cap
@pytest.mark.parametrize("L, n_particles", [
    *((4, n) for n in range(5)), (5, 0),
    pytest.param(5, 1, marks=pytest.mark.slow),
    pytest.param(5, 4, marks=pytest.mark.slow), (5, 5), (6, 0),
    pytest.param(6, 1, marks=pytest.mark.slow), (6, 6)])
def test_parity_split_matches_the_unsplit_eig(L, n_particles, monkeypatch):
    spec = biased_chain(L, 2.4, 1.6, kind="chain-pbc")
    dsec = weak_sector(spec.layout, n_particles)
    for variant, phi in itertools.product(("double-space", "lindblad"),
                                          (0.0, 0.7, np.pi / 2, np.pi)):
        superop = assemble_twisted(spec, phi, variant, sector=dsec)
        split = spectrum_of(superop)
        unsplit = eig_dense(superop.matrix)
        assert multiset_distance(split.eigenvalues, unsplit.eigenvalues) < 1e-10
        assert len(split.kernel_indices()) == len(unsplit.kernel_indices())
        # W = Sigma (.)^T Sigma holds for the double-space twist on every
        # even ring; the lindblad twist at 0.7 breaks it wherever a
        # particle can cross the wrap link, and an odd ring has no Sigma
        if L % 2 == 0 and variant == "double-space":
            assert split.parity_split_blocks > 0
        if L % 2 or (variant == "lindblad" and phi == 0.7
                     and 0 < n_particles < L):
            assert split.parity_split_blocks == 0
            with monkeypatch.context() as patch:
                patch.setattr(numerics, "_transpose_map", lambda *_: None)
                unchanged = spectrum_of(superop)
            assert np.array_equal(split.eigenvalues, unchanged.eigenvalues)


def block_values(spectrum, i):
    """The eigenvalues of a `mirror_eig` spectrum that came from its
    component i, in canonical order."""
    return spectrum.eigenvalues[np.array(spectrum.block_labels) == i]


def test_a_block_off_w_by_1e_10_leaves_the_parity_split():
    spec = biased_chain(4, 2.4, 1.6, kind="chain-pbc")
    superop = assemble_twisted(spec, 0.7, "double-space",
                               sector=weak_sector(spec.layout, 1))
    bloch, matrix, mirror = numerics._frame(superop)
    clean, components, paths = numerics.mirror_eig(
        matrix, mirror, sector=superop.sector, bloch=bloch)
    assert paths.tolist() == [numerics.PARITY] * 4
    # a diagonal entry of the largest block whose coordinate W moves
    image = numerics._transpose_map(superop.sector, bloch)[0]
    own = max(components, key=len)
    g = own[image[own] != own][0]
    size = np.linalg.norm(matrix[own][:, own].data)
    bump = sp.csr_matrix(([1e-10 * size], ([g], [g])), shape=matrix.shape)
    split, _, paths = numerics.mirror_eig((matrix + bump).tocsr(), mirror,
                                          sector=superop.sector, bloch=bloch)
    hit = next(i for i, c in enumerate(components) if g in c)
    assert paths.tolist() == [numerics.PARITY if i != hit else -1
                              for i in range(4)]
    assert split.parity_split_blocks == 3
    for i in range(4):
        if i != hit:
            assert np.array_equal(block_values(split, i),
                                  block_values(clean, i))
    # the largest block, taken whole
    assert clean.eig_max_dim < own.size == split.eig_max_dim
    assert multiset_distance(block_values(split, hit),
                             block_values(clean, hit)) < 1e-8


def dense_gap(matrix, image, phase, rows, antiunitary=False):
    """||S M^ S^+ - M|| on `rows` relative to ||M|| there, densely."""
    m = matrix.toarray()
    s = np.zeros(m.shape, dtype=complex)
    s[image, np.arange(image.size)] = phase
    defect = s @ (m.conj() if antiunitary else m) @ s.conj().T - m
    return np.linalg.norm(defect[rows]) / np.linalg.norm(m[rows])


def test_block_images_of_a_synthetic_block_diagonal_matrix():
    rng = np.random.default_rng(7)

    def block(n):
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    # blocks A = {0, 1}, B = {2, 3}, C = {4, 5, 6}; B is A's image under
    # the swap of the two, up to a 1e-3 bump
    a = block(2)
    swap = np.array([[0, 1], [1, 0]])
    b = swap @ a @ swap.T + 1e-3 * block(2)
    matrix = sp.block_diag([a, b, block(3)], format="csr")
    components, labels = numerics._split(matrix, 3)
    assert [c.tolist() for c in components] == [[0, 1], [2, 3], [4, 5, 6]]
    with pytest.raises(numerics.DenseCapError):
        numerics._split(matrix, 2)
    # unit phases on A and B, others on C
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi, 7))
    phase[:4] = 1

    def images(image, antiunitary=False):
        return numerics._block_images(matrix, components, labels,
                                      (np.array(image), phase), antiunitary)

    # A <-> B, and 4 <-> 5 inside C
    image = np.array([3, 2, 1, 0, 5, 4, 6])
    target, gap = images(image)
    assert target.tolist() == [1, 0, 2]
    # A's gap is measured on B, B's on A; a unitary self-map's in full
    for i, rows in enumerate(([2, 3], [0, 1], [4, 5, 6])):
        assert gap[i] == pytest.approx(dense_gap(matrix, image, phase, rows),
                                       rel=1e-12)
    assert gap[0] < 1e-2 and 0 < gap[2] < np.inf
    # an antiunitary self-map's gap is halved
    target, gap = images(image, antiunitary=True)
    assert target.tolist() == [1, 0, 2]
    assert gap[2] == pytest.approx(
        dense_gap(matrix, image, phase, [4, 5, 6], antiunitary=True) / 2,
        rel=1e-12)
    assert gap[0] == pytest.approx(
        dense_gap(matrix, image, phase, [2, 3], antiunitary=True), rel=1e-12)
    # a map that splits every block has no targets
    target, gap = images([2, 4, 0, 5, 1, 3, 6])
    assert target.tolist() == [-1, -1, -1] and np.all(gap == np.inf)
    # A sent into C, a block of another size, and C split; B on itself
    target, gap = images([4, 5, 2, 3, 0, 1, 6])
    assert target.tolist() == [-1, 1, -1]
    assert gap[0] == gap[2] == np.inf and gap[1] < np.inf
    # no map
    target, gap = numerics._block_images(matrix, components, labels, None)
    assert target.tolist() == [-1, -1, -1] and np.all(gap == np.inf)


def test_transpose_check_runs_once_per_generator(monkeypatch):
    built, maps, checked = [], [], []
    transpose, gaps = numerics._transpose_map, numerics._gaps

    def counted_transpose(*args, **kwargs):
        built.append(args[0].dim)
        maps.append(transpose(*args, **kwargs))
        return maps[-1]

    def counted_gaps(*args, **kwargs):
        # a defect of W, not of C, Pi or the translation
        if any(args[1] is w for w in maps):
            checked.append(args[0].shape)
        return gaps(*args, **kwargs)

    monkeypatch.setattr(numerics, "_transpose_map", counted_transpose)
    monkeypatch.setattr(numerics, "_gaps", counted_gaps)
    spec = biased_chain(4, 2.4, 1.6, kind="chain-pbc")
    dsec = weak_sector(spec.layout, 1)
    # four momentum blocks, each split by W's parity, from one check
    twisted = spectrum_of(assemble_twisted(spec, 0.7, "double-space",
                                           sector=dsec))
    assert twisted.parity_split_blocks == 4
    assert len(built) == len(checked) == 1
    # the same for the first blocks of the mirror pairs at phi = 0
    lindblad = spectrum_of(assemble(spec, sector=dsec))
    assert lindblad.parity_split_blocks == 1 and lindblad.real_blocks == 2
    assert len(built) == len(checked) == 2
    # blocks that all take the real form never build W
    chain = biased_chain(4, 2.4, 1.6)
    spectrum_of(assemble(chain, sector=weak_sector(chain.layout, 2)))
    assert len(built) == 2


def test_phase_partner_copies_only_an_exact_image():
    spec = biased_chain(4, 2.4, 1.6, kind="chain-pbc")
    dsec = weak_sector(spec.layout, 1)

    def at(phi):
        return assemble_twisted(spec, phi, "double-space", sector=dsec)

    base = at(0.7)
    spectrum = spectrum_of(base)
    blocks = np.bincount(spectrum.block_labels).size
    # phi + pi: the wrap-link sign D maps the generator onto it, a copy
    shifted = at(0.7 + np.pi)
    copy = phase_partner(base, spectrum, shifted)
    assert copy.copied_blocks == blocks and copy.conjugated_blocks == 0
    assert np.array_equal(copy.eigenvalues, spectrum.eigenvalues)
    assert copy.eig_max_dim == 0
    assert multiset_distance(copy.eigenvalues,
                             eig_dense(shifted.matrix).eigenvalues) < 1e-10
    # pi - phi: C D, the conjugate spectrum
    turned = at(np.pi - 0.7)
    image = phase_partner(base, spectrum, turned)
    assert image.conjugated_blocks == blocks and image.copied_blocks == 0
    assert multiset_distance(image.eigenvalues,
                             eig_dense(turned.matrix).eigenvalues) < 1e-10
    # a 1e-10 bump on the phi + pi generator is refused, as is a phase
    # that no map reaches
    assert phase_partner(base, spectrum,
                         bumped(shifted, np.arange(dsec.dim), 0)) is None
    assert phase_partner(base, spectrum, at(1.1)) is None


def reductions(superop):
    """`mirror_eig` on a generator's own pair basis: the merged spectrum,
    the coupled components and the way each was found."""
    return numerics.mirror_eig(superop.matrix,
                               numerics._mirror_map(superop.sector),
                               sector=superop.sector)


def reduced_blocks(spectrum):
    return spectrum.copied_blocks + spectrum.gauge_real_blocks


@pytest.mark.slow
@settings(max_examples=10, deadline=None)
@given(st.integers(2, 4), st.sampled_from(JUMP_FAMILIES),
       st.integers(0, 2**32 - 1), st.booleans())
def test_reflection_and_transpose_reductions_match_the_unsplit_eig(
        L, family, seed, disordered):
    # the particle-hole reflection copies spectra between the sectors N
    # and L - N, and rho -> Sigma conj(rho) Sigma makes the first block of
    # each charge-difference mirror pair real. Random rates keep clear of
    # the exceptional points (such as equal rates at L = 2), where the
    # unsplit eig splits a defective eigenvalue by sqrt(eps).
    rng = np.random.default_rng(seed)
    jump = JumpSpec(family, **dict(zip(JUMP_RATES[family],
                                       rng.uniform(0.1, 3.0, size=2))))
    spec = ModelSpec(layout=build_layout("chain-obc", L),
                     J=rng.uniform(0.2, 2.0), jumps=(jump,),
                     disorder=DisorderSpec(seed=seed) if disordered else None)
    runs = []
    if family != "x-like":  # x-like jumps leave the weak sector
        runs.append(lambda model: weak_spectrum(model)[::2])
    if L <= 3:  # the L = 4 pair space has 16384 coordinates
        runs.append(lambda model: (full_spectrum(model), assemble(model)))
    for run in runs:
        split, superop = run(spec)
        unsplit = eig_dense(superop.matrix)
        assert multiset_distance(split.eigenvalues, unsplit.eigenvalues) < 1e-10
        assert len(split.kernel_indices()) == len(unsplit.kernel_indices())
        # each block, copied or not, has its own spectrum
        merged, components, _ = reductions(superop)
        for i, own in enumerate(components):
            direct = eig_dense(superop.matrix[own][:, own]).eigenvalues
            assert multiset_distance(block_values(merged, i), direct) < 1e-10
        clean = split if not disordered else run(replace(spec, disorder=None))[0]
        assert clean.copied_blocks > 0
        # disorder breaks both symmetries on blocks that its fields and
        # hops reach unlike their images (on some block from L = 3 on);
        # blocks that they shift alike, such as the empty and the full
        # chain, keep them
        if disordered:
            assert reduced_blocks(split) <= reduced_blocks(clean)
            assert reduced_blocks(split) < reduced_blocks(clean) or L == 2
    if disordered or L == 4:
        return
    # a bump on a reduced block takes it, and its reflection, out of both
    # reductions
    full = assemble(spec)
    _, components, paths = reductions(full)
    reduced = [i for i, way in enumerate(paths)
               if way in (numerics.COPIED, numerics.GAUGE)]
    b = max(reduced, key=lambda i: components[i].size)
    image = numerics._reflection_map(full.sector)[0][components[b][0]]
    k = next(i for i, own in enumerate(components) if image in own)
    bad = bumped(full, components[b], components[b][0])
    split, after, paths = reductions(bad)
    assert all(np.array_equal(x, y) for x, y in zip(after, components))
    assert paths[b] not in (numerics.COPIED, numerics.GAUGE)
    assert paths[k] != numerics.COPIED
    unsplit = eig_dense(bad.matrix).eigenvalues
    assert multiset_distance(split.eigenvalues, unsplit) < 1e-10


def recorded_eigs(monkeypatch):
    """Record every matrix that `np.linalg.eigvals` diagonalizes, through
    `eig_dense` or a stack of `numerics._eig_stacks`, as its (size, dtype
    kind), and the shape of each call's argument."""
    matrices, calls = [], []
    eigvals = np.linalg.eigvals

    def recorded(a):
        calls.append(a.shape)
        matrices.extend([(a.shape[-1], a.dtype.kind)] * int(
            np.prod(a.shape[:-2])))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", recorded)
    return matrices, calls


def test_reflection_and_transpose_halve_the_full_pair_space(monkeypatch):
    # L = 4: of 1811 components, three are their own rho -> rho^+ image,
    # in five real-form pieces; of the other 1808, 880 copy their
    # reflection, 464 are conjugated, and 464 are real in the gauge
    # i^(q(ket) - q(bra)): no complex eig is left
    matrices, calls = recorded_eigs(monkeypatch)
    split = full_spectrum(biased_chain(4, 2.4, 1.6))
    assert len(matrices) == 469 and {k for _, k in matrices} == {"f"}
    # stacked by size, in 50 calls
    assert len(calls) == 50
    assert (split.real_blocks, split.conjugated_blocks, split.copied_blocks,
            split.gauge_real_blocks) == (3, 464, 880, 464)
    assert len(split.kernel_indices()) == 7
    # the weak sector without N: the sectors 3, 4, 5 copy 2, 1, 0
    matrices.clear()
    weak = weak_spectrum(biased_chain(5, 2.4, 1.6))[0]
    assert len(matrices) == 5
    assert (weak.real_blocks, weak.copied_blocks) == (3, 3)


def test_real_form_roundoff_does_not_hide_a_split(monkeypatch):
    # the k = L/2 Bloch block's real form holds roundoff where its exact
    # zeros are; dropped, the 96 block splits as the k = 0 one does
    spec = biased_chain(4, 2.4, 1.6, kind="chain-pbc")
    superop = assemble(spec, sector=weak_sector(spec.layout, 2))
    eig = numerics.eig_dense
    matrices, _ = recorded_eigs(monkeypatch)
    split = spectrum_of(superop)
    # the real forms of k = 0 and k = 2 split 62 + 34; the first block of
    # the k = 1, 3 mirror pair (86) splits 53 + 33 by the parity of
    # rho -> Sigma rho^T Sigma
    assert sorted(matrices) == sorted([(62, "f"), (34, "f"), (53, "c"),
                                       (33, "c"), (62, "f"), (34, "f")])
    assert split.real_blocks == 2 and split.conjugated_blocks == 1
    assert split.parity_split_blocks == 1
    unsplit = eig(superop.matrix).eigenvalues
    assert multiset_distance(split.eigenvalues, unsplit) < 1e-10


def test_roundoff_cut_refuses_to_cut_weight():
    # a chain coupled by entries each below MIRROR_TOL relative, which
    # together are not
    n = 1001
    tol = numerics.MIRROR_TOL
    chain = sp.csr_matrix(sp.diags(np.full(n - 1, 0.9 * tol), 1)
                          + sp.eye(n, 1) @ sp.eye(1, n))
    with pytest.raises(SectorLeakageError, match="below"):
        numerics.coupled_components(chain, tol)
    assert len(numerics.coupled_components(chain[:2, :2], tol)) == 2
    assert len(numerics.coupled_components(chain)) == 1


def test_momentum_split_skips_a_generator_without_the_symmetry():
    spec = biased_chain(4, 2.4, 1.6, kind="chain-pbc")
    dsec = weak_sector(spec.layout, 2)
    superop = assemble(spec, sector=dsec)
    # a field on site 1 alone: -i h [N_1, rho]
    site = spec.layout.site_slot(1)
    field = -0.3j * (state_bit(dsec.kets, site) - state_bit(dsec.bras, site))
    pinned = Superoperator(superop.matrix + sp.diags(field, format="csr"),
                           dsec, superop.hamiltonian, superop.jumps,
                           superop.twists)
    # a charge-difference block that translation maps onto another block
    small = biased_chain(3, 2.4, 1.6, kind="chain-pbc")
    block = next(dsec for delta, dsec in partition_double_space(small.layout)
                 if len(set(delta)) > 1)
    # under the double-space twist a site hop across site 1 is dressed
    # differently on ket and bra, so no dressed translation is a symmetry
    asep = ModelSpec(layout=small.layout,
                     jumps=(JumpSpec(family="effective-asep", gamma_right=0.3,
                                     gamma_left=0.1),))
    twisted = assemble_twisted(asep, 0.7, "double-space",
                               sector=weak_sector(small.layout, 1))
    for generator in (pinned, assemble(small, sector=block), twisted):
        split = spectrum_of(generator)
        # no momentum blocks: one block per coupled component of the whole
        components = numerics.coupled_components(generator.matrix)
        blocks = (1 if split.block_labels is None
                  else np.bincount(split.block_labels).size)
        assert blocks == len(components)
        unsplit = eig_dense(generator.matrix).eigenvalues
        assert multiset_distance(split.eigenvalues, unsplit) < 1e-8


def test_oversized_block_is_refused_before_any_eig(monkeypatch):
    spec = biased_chain(4, 2.4, 1.6)
    superop = assemble(spec, sector=weak_sector(spec.layout))
    sizes = [c.size for c in numerics.coupled_components(superop.matrix)]
    # smaller components come before the largest one
    assert sizes.index(max(sizes)) > 0
    calls, _ = recorded_eigs(monkeypatch)
    monkeypatch.setattr(numerics, "eig_dense",
                        lambda *args, **kwargs: calls.append(args))
    with pytest.raises(numerics.DenseCapError, match="block of dimension"):
        spectrum_of(superop, cap=max(sizes) - 1)
    assert calls == []
    # the same holds for the components of the full pair space
    small = biased_chain(3, 2.4, 1.6)
    sizes = [c.size for c in
             numerics.coupled_components(assemble(small).matrix)]
    assert sizes.index(max(sizes)) > 0
    with pytest.raises(numerics.DenseCapError, match="block of dimension"):
        full_spectrum(small, cap=max(sizes) - 1)
    assert calls == []


def per_block_mirror_eig(matrix, mirror, basis="unknown",
                         cap=numerics.DENSE_CAP, strict=False, sector=None,
                         bloch=None):
    """The reference of `mirror_eig`: its blocks visited one at a time,
    each matrix diagonalized by its own `eig_dense` call, each block's
    spectrum its own Spectrum. Returns those and the components."""
    tol = numerics.MIRROR_TOL
    components, labels = numerics._split(matrix, cap)
    partner, gap = numerics._block_images(matrix, components, labels, mirror,
                                          antiunitary=True)
    if strict and not np.all(gap <= tol):
        raise SolverError("no conjugate mirror component")
    pairs = None if bloch is not None else sector
    reflection, reflection_gap = numerics._block_images(
        matrix, components, labels,
        None if pairs is None else numerics._reflection_map(pairs))
    order = np.concatenate(components) if components else np.arange(0)
    permuted = matrix[order][:, order]
    bounds = np.cumsum([0] + [c.size for c in components])

    def pieces_eig(form):
        return per_block_merge([
            eig_dense(form[c][:, c], basis, cap)
            for c in numerics.coupled_components(form, tol)])[0]

    parts = [None] * len(components)
    transpose = gauged = None
    for i, own in enumerate(components):
        if parts[i] is not None:
            continue
        j = partner[i]
        mirrored = gap[i] <= tol
        cut = slice(bounds[i], bounds[i + 1])
        if mirrored and j == i:
            parts[i] = pieces_eig(numerics._real_part(numerics._real_form(
                permuted[cut, cut], np.searchsorted(own, mirror[0][own]),
                mirror[1][own])[1]))
            parts[i].real_blocks = 1
        else:
            if transpose is None:
                w = (None if sector is None
                     else numerics._transpose_map(sector, bloch))
                transpose = (w, *numerics._block_images(matrix, components,
                                                        labels, w))
            w, target, w_gap = transpose
            if pairs is not None and mirrored and gap[i] + w_gap[i] <= tol:
                if gauged is None:
                    gauged = numerics._gauge_form(matrix, order, w)
                parts[i] = eig_dense(gauged[cut, cut], basis, cap)
                parts[i].gauge_real_blocks = 1
            elif target[i] == i and w_gap[i] <= tol:
                parts[i] = pieces_eig(numerics._parity_form(
                    permuted[cut, cut], np.searchsorted(own, w[0][own]),
                    w[1][own])[1])
                parts[i].parity_split_blocks = 1
            else:
                parts[i] = eig_dense(permuted[cut, cut], basis, cap)
        known = [i]
        if mirrored and parts[j] is None:
            parts[j] = numerics._conjugate(parts[i])
            parts[j].conjugated_blocks = 1
            known.append(j)
        for b in known:
            k = reflection[b]
            if k >= 0 and reflection_gap[b] <= tol and parts[k] is None:
                parts[k] = Spectrum(parts[b].eigenvalues.copy(), basis,
                                    copied_blocks=1)
    return parts, components


def per_block_merge(parts):
    """Per-block spectra merged in canonical order, and the order."""
    merged = np.concatenate([part.eigenvalues for part in parts])
    order = canonical_order(merged)
    return Spectrum(
        merged[order], parts[0].basis,
        eig_max_dim=max(part.eig_max_dim for part in parts),
        **{key: sum(getattr(part, key) for part in parts)
           for key in BLOCK_COUNTS}), order


def per_block_spectrum_of(superop):
    bloch, matrix, mirror = numerics._frame(superop)
    parts, _ = per_block_mirror_eig(matrix, mirror, superop.basis,
                                    sector=superop.sector, bloch=bloch)
    spectrum, order = per_block_merge(parts)
    labels = np.repeat(np.arange(len(parts)), [part.dim for part in parts])
    spectrum.block_labels = tuple(labels[order].tolist())
    return spectrum


def per_block_full_spectrum(spec):
    full = assemble(spec)
    n = spec.layout.nstates
    parts, components = per_block_mirror_eig(
        full.matrix, numerics._mirror_map(full.sector),
        basis=spec.layout.basis_tag, strict=True, sector=full.sector)
    table = numerics.gauge_charge_table(spec.layout).astype(np.int16)
    labels = []
    for comp, part in zip(components, parts):
        delta = table[comp[0] // n] - table[comp[0] % n]
        labels.extend([tuple(int(v) for v in delta)] * part.dim)
    spectrum, order = per_block_merge(parts)
    spectrum.block_labels = tuple(labels[i] for i in order)
    return spectrum


def ring(L, n_particles, phi=None):
    spec = biased_chain(L, 2.4, 1.6, kind="chain-pbc")
    dsec = weak_sector(spec.layout, n_particles)
    if phi is None:
        return assemble(spec, sector=dsec)
    return assemble_twisted(spec, phi, "double-space", sector=dsec)


@pytest.mark.parametrize("stacked, per_block", [
    *(pytest.param(lambda L=L: full_spectrum(biased_chain(L, 2.4, 1.6)),
                   lambda L=L: per_block_full_spectrum(
                       biased_chain(L, 2.4, 1.6)), id=f"full-L{L}")
      for L in (3, 4)),
    pytest.param(
        lambda: full_spectrum(replace(biased_chain(3, 2.4, 1.6),
                                      disorder=DisorderSpec(seed=3))),
        lambda: per_block_full_spectrum(replace(
            biased_chain(3, 2.4, 1.6), disorder=DisorderSpec(seed=3))),
        id="full-L3-disorder"),
    *(pytest.param(lambda kind=kind: weak_spectrum(
        biased_chain(5, 2.4, 1.6, kind=kind))[0],
                   lambda kind=kind: per_block_spectrum_of(weak_spectrum(
                       biased_chain(5, 2.4, 1.6, kind=kind))[2]),
                   id=f"weak-L5-{kind}")
      for kind in ("chain-obc", "chain-pbc")),
    pytest.param(lambda: spectrum_of(ring(4, 2)),
                 lambda: per_block_spectrum_of(ring(4, 2)), id="ring-L4-N2"),
    *(pytest.param(lambda phi=phi: spectrum_of(ring(6, 1, phi)),
                   lambda phi=phi: per_block_spectrum_of(ring(6, 1, phi)),
                   id=f"double-space-L6-{phi:.2f}")
      for phi in (0.7, np.pi / 2))])
def test_stacked_eigs_match_one_eig_per_block(stacked, per_block,
                                              monkeypatch):
    reference = per_block()
    _, calls = recorded_eigs(monkeypatch)
    spectrum = stacked()
    # bit for bit, signed zeros and dtype included
    assert spectrum.eigenvalues.dtype == reference.eigenvalues.dtype
    assert spectrum.eigenvalues.tobytes() == reference.eigenvalues.tobytes()
    assert spectrum.block_labels == reference.block_labels
    for key in (*BLOCK_COUNTS, "eig_max_dim", "basis"):
        assert getattr(spectrum, key) == getattr(reference, key)
    # no stack holds more entries than the largest matrix diagonalized
    assert all(np.prod(shape) <= spectrum.eig_max_dim ** 2 for shape in calls)


def test_stacks_hold_no_more_entries_than_the_largest_block(monkeypatch):
    # twenty 3 x 3 blocks and one 6 x 6: at most 36 / 9 = 4 in a stack
    rng = np.random.default_rng(11)
    blocks = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
              for n in [3] * 10 + [6] + [3] * 10]
    matrix = sp.block_diag(blocks, format="csr")
    _, calls = recorded_eigs(monkeypatch)
    spectrum, components, paths = numerics.mirror_eig(matrix, None)
    assert len(components) == 21 and np.all(paths == -1)
    assert calls == [(4, 3, 3)] * 5 + [(1, 6, 6)]
    reference = per_block_merge([eig_dense(b) for b in blocks])[0]
    assert spectrum.eigenvalues.tobytes() == reference.eigenvalues.tobytes()
    assert spectrum.eig_max_dim == 6


def planted_nan(matrix, row):
    """A copy of a CSR matrix whose first stored entry in `row` is NaN."""
    planted = matrix.copy()
    planted.data[planted.indptr[row]] = np.nan
    return planted


def test_a_nan_in_a_stacked_block_raises(monkeypatch):
    # the NaN block's stack fails as a whole: no partial spectrum
    spec = biased_chain(4, 2.4, 1.6)
    full = assemble(spec)
    _, components, paths = reductions(full)
    sizes = np.array([c.size for c in components])
    gauge = np.flatnonzero(paths == numerics.GAUGE)
    # the smallest gauge block that shares its size with another
    shared = [i for i in gauge
              if np.count_nonzero(sizes[gauge] == sizes[i]) > 1]
    i = min(shared, key=lambda i: sizes[i])
    _, calls = recorded_eigs(monkeypatch)
    # in the generator, it and its mirror block take the complex eig
    bad = bumped(full, components[i], components[i][0], np.nan)
    with pytest.raises(np.linalg.LinAlgError):
        spectrum_of(bad)
    assert calls[-1] == (2, sizes[i], sizes[i])
    # full_spectrum refuses that generator before any eig (not a
    # Lindbladian), so the NaN goes into its real gauge form
    calls.clear()
    gauge_form = numerics._gauge_form
    monkeypatch.setattr(numerics, "_gauge_form", lambda *args: planted_nan(
        gauge_form(*args), sizes[:i].sum()))
    with pytest.raises(np.linalg.LinAlgError):
        full_spectrum(spec)
    assert calls[-1][0] > 1 and calls[-1][1] == sizes[i]


def test_a_strict_mirror_check_names_a_nan_generator():
    # a NaN entry gives its block a NaN mirror gap: the strict check calls
    # the generator non-finite, not a generator without the symmetry
    full = assemble(biased_chain(3, 2.4, 1.6))
    bad = bumped(full, np.arange(full.dim), 0, np.nan)
    with pytest.raises(NonFiniteGeneratorError, match="non-finite"):
        numerics.mirror_eig(bad.matrix, numerics._mirror_map(bad.sector),
                            strict=True, sector=bad.sector)


def test_momentum_split_refuses_weight_off_the_blocks(monkeypatch):
    spec = biased_chain(4, 2.4, 1.6, kind="chain-pbc")
    superop = assemble(spec, sector=weak_sector(spec.layout, 2))
    real = numerics._bloch_basis

    def misgrouped(*args):
        # the last Bloch vector of k = 0 counted with k = 1
        basis, bounds = real(*args)
        return basis, [bounds[0], bounds[1] - 1] + list(bounds[2:])

    monkeypatch.setattr(numerics, "_bloch_basis", misgrouped)
    with pytest.raises(SectorLeakageError, match="squared Frobenius"):
        spectrum_of(superop)


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


def brute_bottleneck(a, b):
    """Min over all pairings of the largest moved distance (n <= 7)."""
    perms = np.array(list(itertools.permutations(range(len(a)))))
    return float(np.abs(a[None, :] - b[perms]).max(axis=1).min())


# grid points make exact ties in position and in distance
points = st.one_of(
    st.builds(lambda x, y: complex(x, y) / 4, st.integers(-4, 4),
              st.integers(-4, 4)),
    st.complex_numbers(max_magnitude=3, allow_nan=False,
                       allow_infinity=False))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda n: st.tuples(st.lists(points, min_size=n, max_size=n),
                        st.lists(points, min_size=n, max_size=n))))
def test_multiset_distance_is_the_bottleneck_matching(pair):
    a, b = (np.array(v, dtype=complex) for v in pair)
    brute = brute_bottleneck(a, b)
    assert multiset_distance(a, b) == pytest.approx(brute, rel=1e-12,
                                                    abs=1e-15)
    assert multiset_distance(b, a) == pytest.approx(brute, rel=1e-12,
                                                    abs=1e-15)
    gap = np.abs(a[:, None] - b[None, :])
    dense = max(gap.min(axis=1).max(), gap.min(axis=0).max())
    assert hausdorff_distance(a, b) == pytest.approx(dense, rel=1e-12,
                                                     abs=1e-15)
    assert hausdorff_distance(a, b) <= multiset_distance(a, b) + 1e-15


@settings(max_examples=10, deadline=None)
@given(st.integers(2001, 2700), st.integers(0, 2**32 - 1))
def test_multiset_distance_exact_on_near_ties(n, seed):
    # real parts tie exactly in a; in b they move by up to 1e-13, which
    # reorders every tie group under a sort by real part
    rng = np.random.default_rng(seed)
    a = rng.integers(-2, 3, size=n) + 1j * rng.uniform(-1, 1, size=n)
    noise = rng.uniform(-1e-13, 1e-13, size=(2, n))
    b = (a + noise[0] + 1j * noise[1])[rng.permutation(n)]
    # plus the rounding of a + noise, a few ulps of |a| <= 3
    bound = float(np.abs(noise[0] + 1j * noise[1]).max()) + 1e-15
    distance = multiset_distance(a, b)
    assert hausdorff_distance(a, b) <= distance <= bound
    assert multiset_distance(b, a) == distance


def test_multiset_distance_bisects_from_the_hausdorff_bound(monkeypatch):
    # each point moves far less than the distance to any other, so the
    # nearest neighbours pair off and the bottleneck is the Hausdorff
    # distance: the bisection starts next to the answer
    rng = np.random.default_rng(7)
    a = rng.normal(size=300) + 1j * rng.normal(size=300)
    b = a + 1e-6 * (rng.normal(size=300) + 1j * rng.normal(size=300))
    calls = []
    matching = numerics._perfect_matching

    def counted(*args):
        calls.append(args[0].size)
        return matching(*args)

    monkeypatch.setattr(numerics, "_perfect_matching", counted)
    distance = multiset_distance(a, b)
    assert distance == pytest.approx(hausdorff_distance(a, b), rel=1e-12)
    assert distance == pytest.approx(np.abs(a - b).max(), rel=1e-12)
    # the pairs within a few ulps above the Hausdorff radius (none of
    # them lost to the rounding of the kd-tree query against that of the
    # pair distances), then one bisection step; from a lower end of 0
    # there were 10 matchings, and 3 from the radius itself
    assert len(calls) <= 2


def test_hull_violation_signs():
    square = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
    assert hull_violation(np.array([0j]), square) == pytest.approx(-1.0)
    assert hull_violation(np.array([2 + 0j]), square) == pytest.approx(1.0)
    assert hull_violation(np.array([0j, 0.5 + 0.5j]), square) <= 0.0


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
    observables = {
        "sz": lambda v: diagonal_expectation(v, dsec, zdiag),
        "positivity": lambda v: positivity_defect(devectorize_from(v, dsec)),
    }
    series = evolve(superop.matrix, v0, times, observables=observables,
                    dsec=dsec, rtol=1e-10, atol=1e-12)
    beta = gu / gd
    closed = (link_polarization(beta)
              + (-0.5 - link_polarization(beta)) * np.exp(-2 * (gu + gd) * times))
    assert np.abs(series.observables["sz"].real - closed).max() < 1e-8
    assert series.trace_defect.max() < 1e-9
    assert series.observables["positivity"].max() < 1e-8


def test_evolve_integrates_through_the_module_solve_ivp(monkeypatch):
    # a tracer counts right-hand-side evaluations by rebinding this name
    seen, forward = [], numerics.solve_ivp

    def counting(*args, **kwargs):
        result = forward(*args, **kwargs)
        seen.append(result.nfev)
        return result

    monkeypatch.setattr(numerics, "solve_ivp", counting)
    spec = biased_chain(3, 0.8, 0.5)
    dsec = weak_sector(spec.layout, n_particles=1)
    superop = assemble(spec, sector=dsec)
    series = evolve(superop.matrix, pure_state_vector(1, dsec),
                    np.linspace(0.0, 1.0, 5), dsec=dsec)
    assert len(seen) == 1 and seen[0] > 0
    assert series.nfev == seen[0]


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


def hermitian_vector(dsec, seed):
    """vec of a random Hermitian operator on a pair basis closed under
    (a, b) -> (b, a)."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=dsec.dim) + 1j * rng.normal(size=dsec.dim)
    return raw + raw[dsec.lookup(dsec.bras, dsec.kets)].conj()


def frames_of(superop, v0, dsec):
    """`evolve` on a short grid, keeping every frame as an observable."""
    return evolve(superop.matrix, v0, np.linspace(0.0, 2.0, 6),
                  observables={"frame": lambda v: v.copy()}, dsec=dsec)


@pytest.mark.parametrize("superop", [pytest.param(superop, id=name)
                                     for name, superop in mirror_cases()])
def test_evolve_in_real_coordinates_matches_the_complex_path(superop):
    v0 = hermitian_vector(superop.sector, 3)
    real = frames_of(superop, v0, superop.sector)
    plain = frames_of(superop, v0, None)
    assert real.real_form and not plain.real_form
    assert real.status == plain.status == 0
    assert real.nfev == plain.nfev
    gap = np.abs(real.observables["frame"] - plain.observables["frame"])
    assert gap.max() < 1e-8
    assert np.array_equal(real.final_vector, real.observables["frame"][-1])
    assert real.trace_defect.max() < 1e-9


def test_evolve_falls_back_to_the_complex_path():
    spec = biased_chain(4, 2.4, 1.6, kind="chain-pbc")
    dsec = weak_sector(spec.layout, 1)
    lindblad = assemble(spec, sector=dsec)
    # a v0 that is not Hermitian, and a generator that is not a Lindbladian
    rng = np.random.default_rng(4)
    raw = rng.normal(size=dsec.dim) + 1j * rng.normal(size=dsec.dim)
    twisted = assemble_twisted(spec, 0.7, "double-space", sector=dsec)
    for superop, v0 in ((lindblad, raw),
                        (twisted, hermitian_vector(dsec, 3))):
        series = frames_of(superop, v0, dsec)
        plain = frames_of(superop, v0, None)
        assert not series.real_form
        assert series.nfev == plain.nfev
        assert np.array_equal(series.observables["frame"],
                              plain.observables["frame"])


def initial_state(layout, sites):
    """The product state with the given sites occupied, links down."""
    slots = layout.site_slots
    return sum(1 << slots[s - 1] for s in sites)


def test_evolve_integrates_only_the_reached_components():
    spec = biased_chain(5, 3.0, 1.0)
    dsec = weak_sector(spec.layout, 2)
    superop = assemble(spec, sector=dsec)
    v0 = pure_state_vector(initial_state(spec.layout, (1, 2)), dsec)
    times = np.linspace(0.0, 3.0, 7)
    # the reference is DOP853 on the whole real form, another integrator,
    # so both are held well below the 1e-8 gap
    tols = dict(rtol=1e-11, atol=1e-12)
    series = evolve(superop.matrix, v0, times,
                    observables={"frame": lambda v: v.copy()}, dsec=dsec,
                    **tols)
    assert series.real_form and series.evolved_dim == 339
    # the unrestricted integration: DOP853 on the whole real form
    mirror = numerics._mirror_map(dsec)
    unitary, rotated = numerics._real_form(superop.matrix, *mirror)
    w0 = (unitary.conj().T @ v0).real
    whole = solve_ivp(lambda _, y: rotated.real @ y, (0.0, 3.0), w0,
                      method="DOP853", t_eval=times, **tols)
    frames = series.observables["frame"]
    assert np.abs(frames - (unitary @ whole.y).T).max() < 1e-8
    assert series.trace_defect.max() < 1e-9
    # in the real coordinates U^+ v the components v0 does not touch stay 0
    coords = unitary.conj().T @ frames.T
    touched = coords[:, 0] != 0
    unreached = np.concatenate([c for c in split_real_form(superop)
                                if not touched[c].any()])
    assert unreached.size == 179
    assert np.all(coords[unreached] == 0)


def test_evolve_restricts_the_complex_path_too():
    # a vector that is not Hermitian, in the N = 1 sector of the whole weak
    # sector: the other particle numbers are never integrated
    spec = biased_chain(3, 0.8, 0.5)
    dsec = weak_sector(spec.layout)
    superop = assemble(spec, sector=dsec)
    one = weak_sector(spec.layout, 1)
    rows = dsec.lookup(one.kets, one.bras)
    rng = np.random.default_rng(5)
    v0 = np.zeros(dsec.dim, dtype=np.complex128)
    v0[rows] = rng.normal(size=rows.size) + 1j * rng.normal(size=rows.size)
    times = np.linspace(0.0, 2.0, 5)
    tols = dict(rtol=1e-11, atol=1e-12)
    series = evolve(superop.matrix, v0, times,
                    observables={"frame": lambda v: v.copy()}, dsec=dsec,
                    **tols)
    assert not series.real_form and series.evolved_dim == one.dim
    frames = series.observables["frame"]
    outside = np.setdiff1d(np.arange(dsec.dim), rows)
    assert np.all(frames[:, outside] == 0)
    whole = solve_ivp(lambda _, y: superop.matrix @ y, (0.0, 2.0), v0,
                      method="DOP853", t_eval=times, **tols)
    assert np.abs(frames - whole.y.T).max() < 1e-8


def test_evolve_guards():
    mat = np.zeros((2, 2))
    with pytest.raises(SolverError):
        evolve(mat, np.zeros(2), [0.0])
    with pytest.raises(SolverError):
        evolve(mat, np.zeros(2), [0.0, 0.0])
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


@pytest.mark.parametrize("kind", ["chain-obc", "chain-pbc"])
def test_an_empty_sector_has_no_blocks(kind):
    # three sites hold at most three particles
    spec = biased_chain(3, 2.4, 1.6, kind=kind)
    spectrum, dsec, superop = weak_spectrum(spec, n_particles=5)
    assert dsec.dim == 0
    assert numerics.coupled_components(superop.matrix) == []
    assert spectrum.dim == 0 and spectrum.block_labels == ()
    assert spectrum.max_real() == -np.inf
    assert spectrum_of(superop).dim == 0
    stats = {}
    assert steady_states(superop, stats=stats) == []
    assert stats["blocks"] == stats["max_block_dim"] == 0
