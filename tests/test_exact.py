"""Analytic ensembles: weights, profiles, residuals, eigenvalue ladder."""

import numpy as np
import pytest

from dqlm.exact import (
    DiagonalEnsemble,
    EmptySectorError,
    EnsembleError,
    centered_quadrupole,
    eigenoperator_set,
    ensemble_marginals,
    enumeration_marginals,
    exact_eigenoperator,
    exact_steady_state,
    generator_sum_coefficients,
    link_polarization,
    similarity_transform,
    special_steady_states,
    steady_site_coefficients,
)
from dqlm.lattice import build_layout, commutator, state_bit
from dqlm.liouvillian import lindblad_apply, steady_residual
from dqlm.models import JumpSpec, ModelSpec, build_hamiltonian, build_jump_set
from dqlm.symmetry import SectorSpec, gauge_sector_census


def hand_chain_marginals(L, beta, alpha, n_particles=None):
    """Chain profiles by brute force with weights written out by hand.

    Weight of a state: exp(sum_n c_n g_n) with c_n = ln(alpha) + n ln(beta)
    and g_n read off bit by bit (site slot 2(n-1), link slot 2n-1), never
    touching the package's charge tables.
    """
    total = 2 * L - 1
    c = [np.log(alpha) + n * np.log(beta) for n in range(1, L + 1)]
    site_w = np.zeros(L)
    link_w = np.zeros(L - 1)
    z = 0.0
    for state in range(2 ** total):
        bits = [(state >> k) & 1 for k in range(total)]
        if n_particles is not None:
            if sum(bits[2 * (n - 1)] for n in range(1, L + 1)) != n_particles:
                continue
        logw = 0.0
        for n in range(1, L + 1):
            g = bits[2 * (n - 1)] - 0.5
            if n <= L - 1:
                g -= bits[2 * n - 1] - 0.5
            if n >= 2:
                g += bits[2 * (n - 1) - 1] - 0.5
            logw += c[n - 1] * g
        w = np.exp(logw)
        z += w
        for n in range(1, L + 1):
            site_w[n - 1] += w * bits[2 * (n - 1)]
        for m in range(1, L):
            link_w[m - 1] += w * bits[2 * m - 1]
    return {"site_density": site_w / z, "link_sz": link_w / z - 0.5}


def chain_model(L, gamma_up, gamma_down, extra=(), seed=None):
    from dqlm.models import DisorderSpec
    dis = None if seed is None else DisorderSpec(seed=seed)
    spec = ModelSpec(layout=build_layout("chain-obc", L),
                     jumps=(JumpSpec(family="biased", gamma_up=gamma_up,
                                     gamma_down=gamma_down),) + tuple(extra),
                     disorder=dis)
    return build_hamiltonian(spec), build_jump_set(spec)


def test_coefficient_expansion_matches_hand_formulas():
    beta, alpha = 2.0, 0.7
    lb, la = np.log(beta), np.log(alpha)
    chain = build_layout("chain-obc", 4)
    zc = exact_steady_state(chain, beta, alpha).coefficient_array()
    for n in range(1, 5):
        assert abs(zc[chain.site_slot(n)] - (la + n * lb)) < 1e-14
    for m in range(1, 4):
        assert abs(zc[chain.link_slot(m)] - lb) < 1e-14

    hier = build_layout("hierarchical", 4)
    ap = 0.8
    zch = exact_steady_state(hier, beta, alpha, alpha_prime=ap).coefficient_array()
    for n in range(1, 5):
        want = np.log(ap) + n * la + n * (n - 1) / 2 * lb
        assert abs(zch[hier.top_slot(n)] - want) < 1e-13
    for m in range(1, 4):
        assert abs(zch[hier.mid_slot(m)] - (la + m * lb)) < 1e-13
    for j in range(2, 4):
        assert abs(zch[hier.bot_slot(j)] - lb) < 1e-13

    grid = build_layout("square-2d", 2, Ly=2)
    bp = 1.5
    zc2 = exact_steady_state(grid, beta, alpha, beta_prime=bp).coefficient_array()
    for y in range(1, 3):
        for x in range(1, 3):
            want = la + x * lb + y * np.log(bp)
            assert abs(zc2[grid.site_slot_2d(x, y)] - want) < 1e-13
        assert abs(zc2[grid.hlink_slot(1, y)] - lb) < 1e-13
    for x in range(1, 3):
        assert abs(zc2[grid.vlink_slot(x, 1)] - np.log(bp)) < 1e-13


def test_marginals_against_hand_oracle():
    layout = build_layout("chain-obc", 4)
    for n_part in (None, 2):
        ens = exact_steady_state(layout, 2.0, alpha=0.7, n_particles=n_part)
        hand = hand_chain_marginals(4, 2.0, 0.7, n_part)
        dp = ensemble_marginals(ens)
        enum = enumeration_marginals(ens)
        for key in hand:
            assert np.abs(dp[key] - hand[key]).max() < 1e-13
            assert np.abs(enum[key] - hand[key]).max() < 1e-13


def test_dp_matches_enumeration_everywhere():
    cases = []
    chain = build_layout("chain-obc", 5)
    cases.append(exact_steady_state(chain, 3.0, alpha=1.3))
    cases.append(exact_steady_state(chain, 3.0, alpha=1.3, n_particles=2))
    hier = build_layout("hierarchical", 4)
    cases.append(exact_steady_state(hier, 3.0, alpha=1.2, alpha_prime=0.8))
    cases.append(exact_steady_state(hier, 3.0, alpha=1.2, alpha_prime=0.8,
                                    hier_charges=(0, 1)))
    grid = build_layout("square-2d", 2, Ly=2)
    cases.append(exact_steady_state(grid, 3.0, beta_prime=2.0))
    cases.append(exact_steady_state(grid, 3.0, beta_prime=2.0, n_particles=2))
    for ens in cases:
        dp = ensemble_marginals(ens)
        enum = enumeration_marginals(ens)
        assert set(dp) == set(enum)
        for key in dp:
            assert np.abs(dp[key] - enum[key]).max() < 5e-14


def test_dp_with_gauge_constraints():
    layout = build_layout("chain-obc", 3)
    configs, counts = gauge_sector_census(layout)
    row = int(np.argmax(counts))
    spec = SectorSpec(gauge=tuple(int(v) for v in configs[row]))
    ens = DiagonalEnsemble(layout, tuple(np.full(layout.total_spins, 0.3 + 0j)),
                           spec, "gauge-pinned")
    dp = ensemble_marginals(ens)
    enum = enumeration_marginals(ens)
    for key in dp:
        assert np.abs(dp[key] - enum[key]).max() < 1e-14


def test_link_polarization_uniform_in_every_sector():
    beta = 3.0
    layout = build_layout("chain-obc", 6)
    want = link_polarization(beta)
    assert abs(want - 0.25) < 1e-15
    for n_part in (1, 3, 5):
        prof = ensemble_marginals(
            exact_steady_state(layout, beta, alpha=1.7, n_particles=n_part))
        assert np.abs(prof["link_sz"] - want).max() < 1e-12
    flat = ensemble_marginals(
        exact_steady_state(layout, 1.0, n_particles=4))
    assert np.abs(flat["site_density"] - 4 / 6).max() < 1e-12
    assert np.abs(flat["link_sz"]).max() < 1e-12


def test_alpha_drops_out_of_projected_state():
    layout = build_layout("chain-obc", 5)
    a = ensemble_marginals(exact_steady_state(layout, 2.2, alpha=0.5,
                                              n_particles=2))
    b = ensemble_marginals(exact_steady_state(layout, 2.2, alpha=2.0,
                                              n_particles=2))
    for key in a:
        assert np.abs(a[key] - b[key]).max() < 1e-12


def test_chain_steady_state_annihilated_by_generator():
    ham, jumps = chain_model(4, 0.3, 0.2)
    layout = build_layout("chain-obc", 4)
    rho = exact_steady_state(layout, 1.5).materialize()
    assert steady_residual(ham, jumps, rho) < 1e-12

    ham_g, jumps_g = chain_model(4, 0.3, 0.2,
                                 extra=(JumpSpec(family="gauge-fix",
                                                 strength=0.7),))
    assert steady_residual(ham_g, jumps_g, rho) < 1e-12

    ham_d, jumps_d = chain_model(4, 0.3, 0.2, seed=3)
    assert steady_residual(ham_d, jumps_d, rho) < 1e-12

    proj = exact_steady_state(layout, 1.5, n_particles=2).materialize()
    assert steady_residual(ham, jumps, proj) < 1e-12
    assert abs(proj.matrix.diagonal().sum() - 1.0) < 1e-12


def test_periodic_chain_has_no_closed_form():
    with pytest.raises(EnsembleError):
        exact_steady_state(build_layout("chain-pbc", 4), 2.0)


def test_hierarchical_and_grid_steady_states():
    hier = build_layout("hierarchical", 4)
    spec = ModelSpec(layout=hier, hamiltonian="hierarchical", J1=1.0, J2=0.8,
                     jumps=(JumpSpec(family="biased", gamma_up=0.9,
                                     gamma_down=0.3),))
    rho = exact_steady_state(hier, 3.0, alpha=1.4, alpha_prime=0.6).materialize()
    assert steady_residual(build_hamiltonian(spec), build_jump_set(spec),
                           rho) < 1e-11

    sector = exact_steady_state(hier, 3.0, hier_charges=(0, 1)).materialize()
    assert steady_residual(build_hamiltonian(spec), build_jump_set(spec),
                           sector) < 1e-11

    grid = build_layout("square-2d", 2, Ly=2)
    spec2 = ModelSpec(layout=grid, hamiltonian="qlm-2d", J1=1.0, J2=0.7,
                      jumps=(JumpSpec(family="biased", gamma_up=0.6,
                                      gamma_down=0.2, gamma_up_v=0.4,
                                      gamma_down_v=0.2),))
    rho2 = exact_steady_state(grid, 3.0, beta_prime=2.0).materialize()
    assert steady_residual(build_hamiltonian(spec2), build_jump_set(spec2),
                           rho2) < 1e-11


def test_eigenoperator_ladder():
    L = 4
    gu, gd = 0.24, 0.16
    ham, jumps = chain_model(L, gu, gd)
    layout = build_layout("chain-obc", L)
    family = eigenoperator_set(layout, gu, gd)
    assert len(family) == 2 ** (L - 1)
    seen = set()
    for bits, ens, lam in family:
        assert abs(lam + 2 * (gu + gd) * sum(bits)) < 1e-14
        seen.add(round(lam, 9))
        op = ens.materialize(normalize="frobenius")
        assert np.abs(op.matrix.data.imag).max() < 1e-12
        image = lindblad_apply(ham, jumps, op)
        assert (image - op.scale(lam)).frobenius_norm() < 1e-11
    assert seen == {round(-0.8 * k, 9) for k in range(L)}

    ground = exact_eigenoperator(layout, (0,) * (L - 1), gu, gd)[0]
    assert ground.materialize().matrix.diagonal().sum() == pytest.approx(1.0)


def test_special_families_are_steady():
    layout = build_layout("chain-obc", 3)
    spec_x = ModelSpec(layout=layout,
                       jumps=(JumpSpec(family="x-like", gamma_up=0.5,
                                       gamma_down=0.5),))
    ham, jumps = build_hamiltonian(spec_x), build_jump_set(spec_x)
    states = special_steady_states(layout, "x-like-symmetric")
    assert len(states) == layout.L + 1
    for ens in states:
        assert steady_residual(ham, jumps, ens.materialize()) < 1e-12

    spec_z = ModelSpec(layout=layout,
                       jumps=(JumpSpec(family="dephasing", gamma=0.7),))
    ham_z, jumps_z = build_hamiltonian(spec_z), build_jump_set(spec_z)
    ensembles = special_steady_states(layout, "dephasing")
    configs, _ = gauge_sector_census(layout)
    assert len(ensembles) == len(configs)
    for ens in ensembles:
        assert steady_residual(ham_z, jumps_z, ens.materialize()) < 1e-12


def test_similarity_transform_properties():
    layout = build_layout("chain-obc", 4)
    beta = 2.5
    coeffs = [np.log(beta) * n for n in range(1, 5)]
    ham, _ = chain_model(4, 0.5, 0.2)
    t_op = similarity_transform(layout, coeffs, scale=-0.5)
    assert commutator(ham, t_op).frobenius_norm() < 1e-10

    rho = exact_steady_state(layout, beta).materialize(normalize="raw")
    flattened = (t_op @ rho @ t_op).matrix.diagonal()
    assert np.abs(flattened - flattened[0]).max() < 1e-12 * abs(flattened[0])

    with pytest.raises(EnsembleError):
        generator_sum_coefficients(layout, [1.0, 2.0])


def slot_by_slot(coefficients, states):
    """sum_k c_k (bit_k - 1/2), accumulated over the slots in order."""
    out = np.zeros(states.shape, dtype=np.complex128)
    for k, c in enumerate(coefficients):
        out = out + c * (state_bit(states, k) - 0.5)
    return out


def test_log_weights_are_the_bits_of_the_slot_by_slot_sum():
    chain = build_layout("chain-obc", 6)
    hier = build_layout("hierarchical", 5)
    grid = build_layout("square-2d", 3, Ly=2)
    ensembles = [
        exact_steady_state(chain, 2.3),
        exact_steady_state(chain, 2.3, alpha=0.4, n_particles=3),
        exact_steady_state(hier, 1.7, alpha=0.6, alpha_prime=1.4),
        exact_steady_state(hier, 1.7, hier_charges=(-1, 1)),
        exact_steady_state(grid, 2.0, beta_prime=0.8, n_particles=2),
        # complex coefficients: ln(-1) on the flipped links
        exact_eigenoperator(chain, (1, 0, 1, 1, 0), 2.4, 1.6)[0],
        exact_eigenoperator(chain, (0, 1, 1, 0, 1), 2.4, 1.6,
                            n_particles=2)[0]]
    for ens in ensembles:
        states = ens.sector().states
        assert states.size
        for subset in (states, np.arange(ens.layout.nstates)):
            assert np.array_equal(
                ens.log_weight(subset),
                slot_by_slot(ens.coefficient_array(), subset))
    coeffs = steady_site_coefficients(chain, 2.3)
    t_op = similarity_transform(chain, coeffs, scale=-0.5)
    zc = generator_sum_coefficients(chain, coeffs) * -0.5
    assert np.array_equal(
        t_op.matrix.diagonal(),
        np.exp(slot_by_slot(zc, np.arange(chain.nstates))))


def test_quadrupole_helper():
    assert centered_quadrupole([0.2, 0.5, 0.2]) == pytest.approx(0.4)
    assert centered_quadrupole([1.0, 0.0, 0.0, 0.0, 1.0]) == pytest.approx(8.0)
    sym = np.array([0.1, -0.3, -0.3, 0.1])
    assert centered_quadrupole(sym) == pytest.approx(
        (1.5 ** 2 * 0.1 + 0.5 ** 2 * -0.3) * 2)


def test_error_paths():
    layout = build_layout("chain-obc", 4)
    with pytest.raises(EnsembleError):
        exact_steady_state(layout, -1.0)
    with pytest.raises(EnsembleError):
        exact_steady_state(layout, 2.0, alpha=0.0)
    with pytest.raises(EnsembleError):
        exact_eigenoperator(layout, (0, 1), 0.3, 0.2)
    with pytest.raises(EnsembleError):
        exact_eigenoperator(layout, (0, 1, 2), 0.3, 0.2)
    with pytest.raises(EnsembleError):
        exact_eigenoperator(build_layout("chain-pbc", 4), (0, 1, 0), 0.3, 0.2)
    with pytest.raises(EnsembleError):
        special_steady_states(layout, "unknown")
    grid = build_layout("square-2d", 2, Ly=2)
    with pytest.raises(EnsembleError):
        exact_steady_state(grid, 2.0)

    # an empty sector has its own type, which the CLI maps to exit 3
    empty = exact_steady_state(layout, 2.0, n_particles=9)
    with pytest.raises(EmptySectorError):
        empty.materialize()
    with pytest.raises(EmptySectorError):
        ensemble_marginals(empty)
    with pytest.raises(EmptySectorError):
        enumeration_marginals(empty)
    big = exact_steady_state(build_layout("chain-obc", 12), 2.0)
    with pytest.raises(EnsembleError):
        enumeration_marginals(big)
    with pytest.raises(EnsembleError):
        exact_steady_state(layout, 2.0).materialize(normalize="bogus")
