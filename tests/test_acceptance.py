"""Acceptance battery: one test per headline claim, pinned tolerances.

Each test prints one pass/fail line under ``pytest -v``. Shared heavy
objects (the L=4 all-blocks spectrum) are module fixtures.
"""

import math
import time

import numpy as np
import pytest

from dqlm.exact import (
    eigenoperator_set,
    ensemble_marginals,
    enumeration_marginals,
    exact_steady_state,
    link_polarization,
    special_steady_states,
)
from dqlm.lattice import build_layout
from dqlm.liouvillian import (
    assemble,
    assemble_twisted,
    diagonal_expectation,
    lindblad_apply,
    steady_residual,
)
from dqlm.models import (
    DisorderSpec,
    JumpSpec,
    ModelSpec,
    asep_rates,
    build_hamiltonian,
    build_jump_set,
)
from dqlm.numerics import (
    KERNEL_TOL,
    evolve,
    full_spectrum,
    hausdorff_distance,
    hull_violation,
    link_z_diagonals,
    multiset_distance,
    pure_state_vector,
    site_number_diagonals,
    spectrum_of,
    steady_states,
    weak_spectrum,
)
from dqlm.symmetry import gauge_sector_census, weak_sector

RATES = (2.4, 1.6)


def biased_model(layout, gamma_up, gamma_down, extra=(), disorder=None,
                 **kwargs):
    jumps = (JumpSpec(family="biased", gamma_up=gamma_up,
                      gamma_down=gamma_down),) + tuple(extra)
    return ModelSpec(layout=layout, jumps=jumps, disorder=disorder, **kwargs)


def relative_eigen_residual(ham, jumps, op, lam):
    image = lindblad_apply(ham, jumps, op)
    return (image - op.scale(lam)).frobenius_norm() / op.frobenius_norm()


@pytest.fixture(scope="module")
def l4_full():
    layout = build_layout("chain-obc", 4)
    return full_spectrum(biased_model(layout, *RATES))


def test_01_exact_steady_state_annihilated_with_and_without_disorder():
    t0 = time.perf_counter()
    for L in (4, 5, 6, 7):
        layout = build_layout("chain-obc", L)
        for gu, gd in ((2.4, 1.6), (3.0, 1.0)):
            rho = exact_steady_state(layout, gu / gd).materialize()
            for disorder in (None, DisorderSpec(seed=7)):
                spec = biased_model(layout, gu, gd, disorder=disorder)
                res = steady_residual(build_hamiltonian(spec),
                                      build_jump_set(spec), rho)
                assert res < 1e-10, (L, gu, gd, disorder, res)
    assert time.perf_counter() - t0 < 30.0


def test_02_eigenoperator_ladder_and_degeneracy_floor(l4_full):
    t0 = time.perf_counter()
    layout = build_layout("chain-obc", 5)
    spec = biased_model(layout, *RATES)
    ham, jumps = build_hamiltonian(spec), build_jump_set(spec)
    lams = set()
    ops = eigenoperator_set(layout, *RATES)
    assert len(ops) == 2 ** 4
    for bits, ens, lam in ops:
        op = ens.materialize(normalize="frobenius")
        assert relative_eigen_residual(ham, jumps, op, lam) < 1e-10
        assert lam == -2.0 * (RATES[0] + RATES[1]) * sum(bits)
        lams.add(lam)
    ladder = np.sort(np.array(sorted(lams)))[::-1]
    assert np.all(np.diff(ladder) == -8.0)

    # every flipped-link pattern contributes (L+1) copies across the
    # charge-difference blocks, so each -8K rung is at least that degenerate
    L = 4
    for K in range(L):
        floor = (L + 1) * math.comb(L - 1, K)
        assert l4_full.count_near(-8.0 * K, 1e-7) >= floor
    assert time.perf_counter() - t0 < 60.0


@pytest.mark.slow
def test_03_kernel_degeneracy_weak_sector_and_full_pair_space(l4_full):
    for L, full in ((4, l4_full), (5, None)):
        layout = build_layout("chain-obc", L)
        spec = biased_model(layout, *RATES)
        weak, dsec, _ = weak_spectrum(spec)
        assert len(weak.kernel_indices(KERNEL_TOL)) == L + 1
        if full is None:
            full = full_spectrum(spec)
        # the full pair space adds two frozen matter coherences
        # (all-empty ket against all-full bra and its adjoint), which the
        # Hamiltonian cannot move and every link jump leaves dark
        assert len(full.kernel_indices(KERNEL_TOL)) == L + 3


def test_04_link_polarization_uniform_and_exact():
    layout = build_layout("chain-obc", 5)
    link_diag = link_z_diagonals(layout)
    for beta in (1.5, 3.0):
        spec = biased_model(layout, beta, 1.0)
        for n_particles in (1, 2):
            superop = assemble(spec, sector=weak_sector(layout, n_particles))
            states = steady_states(superop)
            assert len(states) == 1
            diag = np.asarray(states[0].diagonal()).real
            values = np.array([(diag * arr).sum() for arr in link_diag])
            assert np.abs(values - link_polarization(beta)).max() < 1e-9
            assert values.max() - values.min() < 1e-9


def test_05_obc_spectrum_inside_pbc_hull():
    t0 = time.perf_counter()
    eigs = {}
    for kind in ("chain-obc", "chain-pbc"):
        layout = build_layout(kind, 5)
        spec = biased_model(layout, *RATES)
        spectrum, _, _ = weak_spectrum(spec, n_particles=2)
        eigs[kind] = spectrum.eigenvalues
    assert hull_violation(eigs["chain-obc"], eigs["chain-pbc"]) < 1e-6
    assert time.perf_counter() - t0 < 120.0


def test_06_proper_twist_leaves_spectrum_invariant():
    layout = build_layout("chain-pbc", 4)
    spec = biased_model(layout, *RATES)
    dsec = weak_sector(layout, 2)
    reference = None
    for phi in (0.0, 0.3, 1.0):
        superop = assemble_twisted(spec, phi, "lindblad", sector=dsec)
        values = spectrum_of(superop).eigenvalues
        if reference is None:
            reference = values
        else:
            assert multiset_distance(reference, values) < 1e-8


def test_07_double_space_twist_pi_periodic_but_phi_dependent():
    t0 = time.perf_counter()
    for L in (4, 5):
        layout = build_layout("chain-pbc", L)
        spec = biased_model(layout, *RATES)
        dsec = weak_sector(layout, 2)
        eigs = {}
        for phi in (0.0, np.pi / 2, np.pi):
            superop = assemble_twisted(spec, phi, "double-space", sector=dsec)
            eigs[phi] = spectrum_of(superop).eigenvalues
        assert multiset_distance(eigs[0.0], eigs[np.pi]) < 1e-8
        assert hausdorff_distance(eigs[np.pi / 2], eigs[0.0]) > 1e-4
    assert time.perf_counter() - t0 < 300.0


def test_08_quench_relaxes_to_boundary_dependent_profile():
    t0 = time.perf_counter()
    gu, gd, n_particles = 3.0, 1.0, 2
    targets = {}
    layout = build_layout("chain-obc", 7)
    targets["chain-obc"] = ensemble_marginals(
        exact_steady_state(layout, gu / gd,
                           n_particles=n_particles))["site_density"]
    targets["chain-pbc"] = np.full(7, n_particles / 7.0)
    horizons = {"chain-obc": 180.0, "chain-pbc": 100.0}
    for kind in ("chain-obc", "chain-pbc"):
        layout = build_layout(kind, 7)
        spec = biased_model(layout, gu, gd)
        dsec = weak_sector(layout, n_particles)
        superop = assemble(spec, sector=dsec)
        state = (1 << layout.site_slot(1)) | (1 << layout.site_slot(2))
        v0 = pure_state_vector(state, dsec)
        site_diag = site_number_diagonals(layout)
        obs = {f"N{n}": (lambda v, a=a: diagonal_expectation(v, dsec, a))
               for n, a in enumerate(site_diag, start=1)}
        times = np.linspace(0.0, horizons[kind], 10)
        series = evolve(superop.matrix, v0, times, observables=obs,
                        dsec=dsec, rtol=1e-11, atol=1e-11)
        assert series.trace_defect.max() < 1e-9
        final = np.array([series.observables[f"N{n}"][-1].real
                          for n in range(1, 8)])
        assert np.abs(final - targets[kind]).max() < 1e-6, kind
    assert time.perf_counter() - t0 < 300.0


def test_09_strong_dissipation_tracks_effective_asep():
    L, gu, gd, J = 4, 30.0, 10.0, 1.0
    gamma_right, gamma_left = asep_rates(gu, gd, J)
    layout = build_layout("chain-obc", L)
    dsec = weak_sector(layout, 2)
    state = (1 << layout.site_slot(1)) | (1 << layout.site_slot(2))
    v0 = pure_state_vector(state, dsec)
    site_diag = site_number_diagonals(layout)
    obs = {f"N{n}": (lambda v, a=a: diagonal_expectation(v, dsec, a))
           for n, a in enumerate(site_diag, start=1)}
    times = np.linspace(0.0, 5.0 / gamma_right, 41)
    runs = {}
    for tag, spec in (
            ("full", biased_model(layout, gu, gd, J=J)),
            ("asep", ModelSpec(layout=layout, J=0.0,
                               jumps=(JumpSpec(family="effective-asep",
                                               gamma_right=gamma_right,
                                               gamma_left=gamma_left),)))):
        runs[tag] = evolve(assemble(spec, sector=dsec).matrix, v0, times,
                           observables=obs, dsec=dsec)
    gap = max(
        np.abs(np.array([x.real for x in runs["full"].observables[f"N{n}"]])
               - np.array([x.real
                           for x in runs["asep"].observables[f"N{n}"]])).max()
        for n in range(1, L + 1))
    assert gap < 0.05


def test_10_alternative_jump_families():
    layout = build_layout("chain-obc", 4)
    # the diagonal eigenoperator ladder carries over to the x-like family
    spec_x = ModelSpec(layout=layout,
                       jumps=(JumpSpec(family="x-like", gamma_up=RATES[0],
                                       gamma_down=RATES[1]),))
    ham_x, jumps_x = build_hamiltonian(spec_x), build_jump_set(spec_x)
    for bits, ens, lam in eigenoperator_set(layout, *RATES):
        op = ens.materialize(normalize="frobenius")
        assert relative_eigen_residual(ham_x, jumps_x, op, lam) < 1e-10

    # balanced rates make every fixed-N identity a steady state
    spec_sym = ModelSpec(layout=layout,
                         jumps=(JumpSpec(family="x-like", gamma_up=0.7,
                                         gamma_down=0.7),))
    ham_s, jumps_s = build_hamiltonian(spec_sym), build_jump_set(spec_sym)
    for ens in special_steady_states(layout, "x-like-symmetric"):
        assert steady_residual(ham_s, jumps_s, ens.materialize()) < 1e-12

    # dephasing: one steady state per nonempty gauge configuration
    layout3 = build_layout("chain-obc", 3)
    charges, dims = gauge_sector_census(layout3)
    spec_d = ModelSpec(layout=layout3,
                       jumps=(JumpSpec(family="dephasing", gamma=0.7),))
    weak, _, _ = weak_spectrum(spec_d)
    assert len(weak.kernel_indices(KERNEL_TOL)) == len(charges) == 24


def test_11_hierarchical_steady_state_and_moment_profiles():
    layout = build_layout("hierarchical", 5)
    spec = ModelSpec(layout=layout, hamiltonian="hierarchical", J1=1.0,
                     J2=0.8, jumps=(JumpSpec(family="biased", gamma_up=3.0,
                                             gamma_down=1.0),))
    rho = exact_steady_state(layout, 3.0).materialize()
    res = steady_residual(build_hamiltonian(spec), build_jump_set(spec), rho)
    assert res < 1e-10

    big = build_layout("hierarchical", 14)
    marg = ensemble_marginals(
        exact_steady_state(big, 3.0, hier_charges=(0, 0)))
    mid = marg["mid_sz"]
    assert mid.min() < -1e-3 and mid.max() > 1e-3
    crossings = np.count_nonzero(np.diff(np.sign(mid)))
    assert crossings >= 1
    quad = float(np.sum((np.arange(1, 15) - 7.5) ** 2 * marg["top_sz"]))
    assert abs(quad) > 1.0

    small = build_layout("hierarchical", 4)
    for charges in (None, (0, 1)):
        ens = exact_steady_state(small, 3.0, alpha=1.2, alpha_prime=0.8,
                                 hier_charges=charges)
        dp = ensemble_marginals(ens)
        enum = enumeration_marginals(ens)
        gap = max(np.abs(dp[k] - enum[k]).max() for k in dp)
        assert gap < 1e-12


GRID_JUMPS = (JumpSpec(family="biased", gamma_up=3.0, gamma_down=1.0,
                       gamma_up_v=2.0, gamma_down_v=1.0),)


def test_12_two_dimensional_steady_state():
    for Lx, Ly in ((2, 2), (3, 2), (2, 3)):
        layout = build_layout("square-2d", Lx, Ly=Ly)
        spec = ModelSpec(layout=layout, hamiltonian="qlm-2d",
                         jumps=GRID_JUMPS)
        rho = exact_steady_state(layout, 3.0, beta_prime=2.0).materialize()
        res = steady_residual(build_hamiltonian(spec), build_jump_set(spec),
                              rho)
        assert res < 1e-10, (Lx, Ly, res)


def test_13_gauge_fixing_jumps_preserve_exactness():
    fix = JumpSpec(family="gauge-fix", strength=1.0)
    for L in (4, 5, 6, 7):
        layout = build_layout("chain-obc", L)
        for gu, gd in ((2.4, 1.6), (3.0, 1.0)):
            spec = biased_model(layout, gu, gd, extra=(fix,))
            rho = exact_steady_state(layout, gu / gd).materialize()
            res = steady_residual(build_hamiltonian(spec),
                                  build_jump_set(spec), rho)
            assert res < 1e-10

    hier = build_layout("hierarchical", 5)
    spec_h = ModelSpec(layout=hier, hamiltonian="hierarchical", J1=1.0,
                       J2=0.8, jumps=(JumpSpec(family="biased", gamma_up=3.0,
                                               gamma_down=1.0), fix))
    rho_h = exact_steady_state(hier, 3.0).materialize()
    assert steady_residual(build_hamiltonian(spec_h), build_jump_set(spec_h),
                           rho_h) < 1e-10

    for Lx, Ly in ((2, 2), (3, 2)):
        layout = build_layout("square-2d", Lx, Ly=Ly)
        spec_g = ModelSpec(layout=layout, hamiltonian="qlm-2d",
                           jumps=GRID_JUMPS + (fix,))
        rho_g = exact_steady_state(layout, 3.0, beta_prime=2.0).materialize()
        assert steady_residual(build_hamiltonian(spec_g),
                               build_jump_set(spec_g), rho_g) < 1e-10
