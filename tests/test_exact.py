"""Analytic ensembles: weights, profiles, residuals, eigenvalue ladder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqlm import exact
from dqlm.exact import (
    DiagonalEnsemble,
    EmptySectorError,
    EnsembleError,
    UnrepresentableWeightError,
    _constraint_list,
    _dp_bit_marginals,
    _register_log_weights,
    centered_quadrupole,
    eigenoperator_set,
    ensemble_marginals,
    enumeration_marginals,
    exact_eigenoperator,
    exact_steady_state,
    generator_sum_coefficients,
    link_polarization,
    materialize_each,
    similarity_transform,
    special_steady_states,
    steady_site_coefficients,
)
from dqlm.lattice import build_layout, commutator, monomial_operator, state_bit
from dqlm.liouvillian import lindblad_apply, steady_residual
from dqlm.models import JumpSpec, ModelSpec, build_hamiltonian, build_jump_set
from dqlm.symmetry import (
    SectorSpec,
    gauge_charge_table,
    gauge_sector_census,
    hierarchical_charge_tables,
    site_occupation_table,
)


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


# -- the array DP against the dict DP it replaced, and against enumeration --

def reference_dp_bit_marginals(zcoeff, constraints):
    """The dict-of-tuples DP that `_dp_bit_marginals` replaced, kept as the
    reference its arithmetic is pinned to: per-slot max-normalized
    weights, no rescaling, so it underflows on long chains."""
    total = len(zcoeff)
    c = np.asarray(zcoeff, dtype=np.complex128)
    shift = np.abs(c.real) / 2
    w_up = np.exp(c / 2 - shift)
    w_dn = np.exp(-c / 2 - shift)
    ncons = len(constraints)
    qup = np.array([q[0] for q in constraints], dtype=np.int64).reshape(ncons, total)
    qdn = np.array([q[1] for q in constraints], dtype=np.int64).reshape(ncons, total)
    target = tuple(int(q[2]) for q in constraints)
    zero = (0,) * ncons
    support = np.abs(qup) + np.abs(qdn) > 0
    first = [int(np.argmax(row)) if row.any() else total for row in support]
    last = [total - 1 - int(np.argmax(row[::-1])) if row.any() else -1
            for row in support]

    def step(table, w_up_k, w_dn_k, up_shift, dn_shift):
        nxt = {}
        for key, val in table.items():
            ku = tuple(a + b for a, b in zip(key, up_shift))
            nxt[ku] = nxt.get(ku, 0.0) + val * w_up_k
            kd = tuple(a + b for a, b in zip(key, dn_shift))
            nxt[kd] = nxt.get(kd, 0.0) + val * w_dn_k
        return nxt

    forward = [{zero: 1.0 + 0j}]
    for k in range(total):
        nxt = step(forward[k], w_up[k], w_dn[k], tuple(qup[:, k]),
                   tuple(qdn[:, k]))
        done = [j for j in range(ncons) if last[j] == k]
        forward.append({key: val for key, val in nxt.items()
                        if all(key[j] == target[j] for j in done)})
    z = forward[total].get(target, 0.0)
    backward = [None] * (total + 1)
    backward[total] = {zero: 1.0 + 0j}
    for k in range(total - 1, -1, -1):
        nxt = step(backward[k + 1], w_up[k], w_dn[k], tuple(qup[:, k]),
                   tuple(qdn[:, k]))
        done = [j for j in range(ncons) if first[j] == k]
        backward[k] = {key: val for key, val in nxt.items()
                       if all(key[j] == target[j] for j in done)}
    p_up = np.zeros(total, dtype=np.complex128)
    for k in range(total):
        acc = 0.0 + 0j
        for key, val in forward[k].items():
            need = tuple(t - a - b for t, a, b in zip(target, key, qup[:, k]))
            tail = backward[k + 1].get(need)
            if tail is not None:
                acc += val * w_up[k] * tail
        p_up[k] = acc / z
    return p_up


def profile_ensembles():
    """The README profile ensembles and a few more, all inside the range
    where the dict DP neither underflows nor goes subnormal."""
    chain = build_layout("chain-obc", 24)
    cases = [exact_steady_state(chain, beta, n_particles=n)
             for beta in (3.0, 0.45) for n in (6, 12, 18)]
    cases.append(exact_steady_state(build_layout("hierarchical", 14), 3.0,
                                    hier_charges=(0, 0)))
    cases.append(exact_steady_state(build_layout("hierarchical", 6), 2.0,
                                    alpha=1.3, alpha_prime=0.7,
                                    hier_charges=(0, 2)))
    cases.append(exact_steady_state(build_layout("square-2d", 3, Ly=3), 3.0,
                                    beta_prime=2.0, n_particles=4))
    layout = build_layout("chain-obc", 4)
    configs, counts = gauge_sector_census(layout)
    cases.append(DiagonalEnsemble(
        layout, tuple(np.linspace(-2.0, 3.0, layout.total_spins) + 0j),
        SectorSpec(gauge=tuple(int(v) for v in configs[np.argmax(counts)])),
        "gauge"))
    return cases


def test_array_dp_gives_the_floats_of_the_dict_dp():
    for ens in profile_ensembles():
        cons = _constraint_list(ens.layout, ens.constraints)
        zc = ens.coefficient_array()
        assert np.array_equal(_dp_bit_marginals(zc, cons),
                              reference_dp_bit_marginals(zc, cons)), ens.label


RANDOM_LAYOUTS = [build_layout("chain-obc", L) for L in (2, 4, 6)] + [
    build_layout("chain-pbc", L) for L in (3, 6)] + [
    build_layout("hierarchical", L) for L in (3, 5)] + [
    build_layout("square-2d", 2, Ly=2)]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(RANDOM_LAYOUTS), st.data())
def test_array_dp_matches_enumeration_on_random_sectors(layout, data):
    # random coefficients and a random mix of particle-number,
    # hierarchical-charge and gauge constraints, up to 12 spins; a target
    # is either some state's charge (a nonempty sector) or any value
    total = layout.total_spins
    zc = data.draw(st.lists(st.floats(-6.0, 6.0), min_size=total,
                            max_size=total))
    state = data.draw(st.integers(0, layout.nstates - 1))
    kinds = ["n_particles", "gauge"] + (
        ["hier_charges"] if layout.kind == "hierarchical" else [])
    chosen = data.draw(st.lists(st.sampled_from(kinds), unique=True))
    spec = {}
    for kind in chosen:
        if kind == "n_particles":
            spec[kind] = data.draw(st.one_of(
                st.just(int(site_occupation_table(layout)[state])),
                st.integers(-1, len(layout.site_slots) + 1)))
        elif kind == "gauge":
            own = tuple(int(v) for v in gauge_charge_table(layout)[state])
            spec[kind] = data.draw(st.one_of(st.just(own), st.tuples(
                *[st.integers(-4, 4)] * len(own))))
        else:
            n2, d2 = hierarchical_charge_tables(layout)
            spec[kind] = data.draw(st.one_of(
                st.just((int(n2[state]), int(d2[state]))),
                st.tuples(st.integers(-6, 6), st.integers(-20, 20))))
    ens = DiagonalEnsemble(layout, tuple(zc), SectorSpec(**spec), "random")
    if ens.sector().dim == 0:
        with pytest.raises(EmptySectorError):
            ensemble_marginals(ens)
        return
    dp, enum = ensemble_marginals(ens), enumeration_marginals(ens)
    assert set(dp) == set(enum)
    for key in dp:
        assert np.abs(dp[key] - enum[key]).max() <= 1e-12, key


def test_row_numbering_gives_the_floats_of_linear_codes(monkeypatch):
    # with many constraints the linear key codes would leave int64, and
    # keys are numbered by np.unique instead; forcing that numbering on
    # every case must not move a digit
    want = [ensemble_marginals(ens) for ens in profile_ensembles()]
    monkeypatch.setattr(exact, "_CODE_LIMIT", 0)
    for ens, marg in zip(profile_ensembles(), want):
        got = ensemble_marginals(ens)
        for key in marg:
            assert np.array_equal(got[key], marg[key]), (ens.label, key)


@pytest.mark.parametrize("L, beta, n", [(400, 0.1, 200), (150, 30.0, 40)])
def test_long_chains_do_not_underflow(L, beta, n):
    # the dict DP reported such nonempty sectors as empty from L = 72 at
    # beta = 3 (L = 50 at beta = 10; the CLI test runs those); with one
    # scale per key they pass the chain oracle: the densities sum to N and
    # every link holds the uniform polarization, for either bias
    marg = ensemble_marginals(exact_steady_state(
        build_layout("chain-obc", L), beta, n_particles=n))
    assert np.isfinite(marg["site_density"]).all()
    assert abs(marg["site_density"].sum() - n) < 1e-10
    assert np.abs(marg["link_sz"] - link_polarization(beta)).max() < 1e-9


def test_unconstrained_marginals_are_the_product_measure():
    # without a constraint the slots are independent, P(bit_k) = 1 / (1 +
    # e^-c_k); at L = 700 and beta = 10 a down weight exp(-c_k) underflows
    # on its own from c_k = 745 and is carried as a mantissa and an exponent
    ens = exact_steady_state(build_layout("chain-obc", 700), 10.0)
    c = ens.coefficient_array()
    assert c.real.max() > 1500
    want = np.exp(-np.logaddexp(0.0, -c.real))
    assert np.abs(_dp_bit_marginals(c, []) - want).max() < 1e-12


def test_emptiness_is_decided_by_reachability_alone():
    # (N2, D2) = (0, 0) at L = 20 has no state: D2 and N2 differ in parity
    hier = build_layout("hierarchical", 20)
    with pytest.raises(EmptySectorError):
        ensemble_marginals(exact_steady_state(hier, 3.0, hier_charges=(0, 0)))
    chain = build_layout("chain-obc", 6)
    for n in (-1, 7):
        with pytest.raises(EmptySectorError):
            ensemble_marginals(exact_steady_state(chain, 3.0, n_particles=n))
    # a reached sector without a floating-point weight is a different
    # failure; an unreached one stays empty whatever its coefficients
    for bad in (np.inf, -np.inf, np.nan):
        zc = (bad,) + (0.5,) * 10
        with pytest.raises(UnrepresentableWeightError):
            ensemble_marginals(DiagonalEnsemble(
                chain, zc, SectorSpec(n_particles=3), "bad"))
        with pytest.raises(EmptySectorError):
            ensemble_marginals(DiagonalEnsemble(
                chain, zc, SectorSpec(n_particles=8), "bad"))


# -- stacked materialization against the per-operand reference -------------

def reference_materialize(ens, normalize="trace", strip_phase=True):
    """`DiagonalEnsemble.materialize` as it was before the ladder shared one
    sector and one log-weight pass: each operand enumerates its sector
    and gathers its own log-weight table."""
    sec = ens.sector()
    logw = ens.log_weight(sec.states)
    w = np.exp(logw - logw.real.max())
    if strip_phase:
        lead = w[np.argmax(np.abs(w))]
        w = w * (np.abs(lead) / lead)
    if normalize == "trace":
        s = w.sum()
        w = w / s if np.abs(s) > 1e-12 * np.abs(w).sum() else w / np.linalg.norm(w)
    elif normalize == "frobenius":
        w = w / np.linalg.norm(w)
    return monomial_operator(ens.layout.total_spins, sec.states, 0, w)


def assert_same_operator(got, want):
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got.matrix, part),
                              getattr(want.matrix, part)), part


@pytest.mark.parametrize("stack_bytes", [None, 1, 3 * 16 << 9],
                         ids=["default", "one-row", "three-rows"])
@pytest.mark.parametrize("normalize", ["trace", "frobenius", "raw"])
def test_stacked_materialize_gives_the_per_operand_floats(
        normalize, stack_bytes, monkeypatch):
    # the stack is cut into chunks of whole rows (three rows: the L = 5
    # chain's 9 spins); every cut gives the same operators
    if stack_bytes is not None:
        monkeypatch.setattr(exact, "_STACK_BYTES", stack_bytes)
    chain = build_layout("chain-obc", 5)
    groups = [
        [ens for _, ens, _ in eigenoperator_set(chain, 2.4, 1.6)],
        [exact_steady_state(chain, beta) for beta in (1.5, 3.0)],
        [exact_steady_state(chain, beta, n_particles=2) for beta in (0.7, 3.0)],
        [exact_steady_state(build_layout("hierarchical", 5), 3.0,
                            hier_charges=(-1, 1))],
    ]
    for group in groups:
        for strip in (True, False):
            got = list(materialize_each(group, normalize, strip))
            assert len(got) == len(group)
            for ens, op in zip(group, got):
                want = reference_materialize(ens, normalize, strip)
                assert_same_operator(op, want)
                assert_same_operator(ens.materialize(normalize, strip), want)


def test_stacked_log_weights_are_each_rows_own():
    chain = build_layout("chain-obc", 6)
    rows = np.array([ens.coefficient_array() for _, ens, _ in
                     eigenoperator_set(chain, 2.4, 1.6)])
    stacked = _register_log_weights(rows)
    assert stacked.shape == (rows.shape[0], chain.nstates)
    for row, table in zip(rows, stacked):
        assert np.array_equal(table, _register_log_weights(row))


def test_stacked_materialize_needs_one_sector():
    chain = build_layout("chain-obc", 4)
    with pytest.raises(EnsembleError, match="one layout and one sector"):
        list(materialize_each([exact_steady_state(chain, 2.0),
                               exact_steady_state(chain, 2.0, n_particles=2)]))
    with pytest.raises(EmptySectorError):
        next(materialize_each([exact_steady_state(chain, 2.0, n_particles=9)]))
