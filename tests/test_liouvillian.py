import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dqlm.exact import eigenoperator_set
from dqlm.lattice import (
    BasisMismatchError,
    Monomial,
    SparseOperator,
    build_layout,
    monomial_operator,
    single_spin_operator,
    transition_operator,
)
from dqlm.liouvillian import (
    LEAK_TOL,
    AssemblyError,
    NonFiniteGeneratorError,
    SolverError,
    _DiagonalRoute,
    assemble,
    assemble_twisted,
    devectorize_from,
    diagonal_expectation,
    lindblad_apply,
    steady_residual,
    trace_vector,
    vectorize_into,
)
from dqlm.models import (
    JUMP_RATES,
    DisorderSpec,
    JumpSpec,
    ModelError,
    ModelSpec,
    build_hamiltonian,
    build_jump_set,
    bulk_hamiltonian,
    twist_term,
)
from dqlm.symmetry import (
    DoubleSectorBasis,
    InfeasibleSectorError,
    SectorLeakageError,
    SectorSpec,
    enumerate_sector,
    full_pairs,
    gauss_generator,
    partition_double_space,
    weak_sector,
)


def single_link_spec(gu, gd):
    # L=2 chain has one link; drop the Hamiltonian to isolate the link
    lay = build_layout("chain-obc", 2)
    return ModelSpec(lay, "none", jumps=(JumpSpec("biased", gamma_up=gu, gamma_down=gd),))


def hand_built_link_superop(gu, gd):
    """Independent 4x4 construction on pair order (00,01,10,11), 0 = down:
    d rho_00 = -2 gu rho_00 + 2 gd rho_11 ; coherences decay at gu+gd."""
    s = gu + gd
    return np.array([
        [-2 * gu, 0, 0, 2 * gd],
        [0, -s, 0, 0],
        [0, 0, -s, 0],
        [2 * gu, 0, 0, -2 * gd],
    ], dtype=complex)


def test_vectorize_conventions():
    lay = build_layout("chain-obc", 2)
    pairs = full_pairs(lay)
    n = lay.nstates
    assert pairs.tag == f"pairs[{lay.basis_tag}:full]"
    eye = SparseOperator(sp.identity(n, format="csr"), lay.basis_tag)
    assert np.array_equal(vectorize_into(eye, pairs),
                          np.identity(n).reshape(-1))
    rng = np.random.default_rng(2)
    dim = 4
    a, b, r = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
               for _ in range(3))
    lhs = (a @ r @ b).reshape(-1)
    rhs = np.kron(a, b.T) @ r.reshape(-1)
    assert np.linalg.norm(lhs - rhs) < 1e-13
    # gain-term orientation: vec(s+ rho s-) = (s+ (x) s+) vec(rho)
    sp_ = single_spin_operator(1, 0, "+").operator().toarray()
    sm = single_spin_operator(1, 0, "-").operator().toarray()
    lhs = (sp_ @ r[:2, :2] @ sm).reshape(-1)
    rhs = np.kron(sp_, sp_) @ r[:2, :2].reshape(-1)
    assert np.linalg.norm(lhs - rhs) < 1e-14
    rho = np.zeros((n, n))
    rho[:2, :2] = [[0.5, 0.2], [0.1, 0.5]]
    vec = vectorize_into(SparseOperator(rho, lay.basis_tag), pairs)
    assert np.array_equal(vec, rho.reshape(-1))
    assert trace_vector(pairs) @ vec == pytest.approx(1.0)
    back = devectorize_from(vec, pairs)
    assert back.toarray()[0, 1] == pytest.approx(0.2)
    assert (back - back.adjoint()).frobenius_norm() == pytest.approx(np.sqrt(2) * 0.1)


def test_single_link_superoperator_matches_hand_oracle():
    gu, gd = 2.4, 1.6
    lv = assemble(single_link_spec(gu, gd))
    # the register has 3 spins; restrict to the link by tracing structure:
    # instead compare on the full register against the hand kron
    hand_link = hand_built_link_superop(gu, gd)
    ev_hand = np.sort_complex(np.linalg.eigvals(hand_link))
    # analytic eigenvalues of the link generator
    s = gu + gd
    assert np.allclose(np.sort(ev_hand.real), [-2 * s, -s, -s, 0], atol=1e-12)
    # full-register spectrum is the link spectrum fattened by the idle sites:
    # each idle ket/bra pair contributes a zero mode factor, so the distinct
    # eigenvalues must coincide
    ev_full = np.linalg.eigvals(lv.matrix.toarray())
    distinct = np.unique(np.round(np.sort(ev_full.real), 10))
    assert np.allclose(distinct, [-2 * s, -s, 0], atol=1e-9)
    # assembled without a sector: the full pair basis
    assert lv.sector.tag == f"pairs[{lv.sector.layout.basis_tag}:full]"
    assert lv.dim == lv.sector.layout.nstates ** 2


def test_single_link_entrywise_via_sector():
    gu, gd = 3.0, 1.0
    spec = single_link_spec(gu, gd)
    layout = spec.layout
    # pairs over the link bit only, sites pinned down: states 0 and 2**1
    link_states = np.array([0, 1 << layout.link_slot(1)])
    kets, bras = np.meshgrid(link_states, link_states, indexing="ij")
    dsec = DoubleSectorBasis(layout, kets.ravel(), bras.ravel(), "link-only")
    lv = assemble(spec, sector=dsec)
    hand = hand_built_link_superop(gu, gd)
    assert np.linalg.norm(lv.matrix.toarray() - hand) < 1e-13


def test_relaxation_rate_pins_convention():
    gu, gd = 2.4, 1.6
    hand = hand_built_link_superop(gu, gd)
    v0 = np.array([1.0, 0, 0, 0], dtype=complex)  # spin down
    seq = (gu - gd) / (2 * (gu + gd))
    for t in (0.23, 0.77):
        v = scipy.linalg.expm(hand * t) @ v0
        sz = -0.5 * v[0] + 0.5 * v[3]
        expected = seq + (-0.5 - seq) * np.exp(-2 * (gu + gd) * t)
        assert sz == pytest.approx(expected, abs=1e-12)


def full_specs():
    l3 = build_layout("chain-obc", 3)
    p3 = build_layout("chain-pbc", 3)
    return [
        ModelSpec(l3, "qlm", J=1.0, jumps=(JumpSpec("biased", gamma_up=2.4, gamma_down=1.6),)),
        ModelSpec(p3, "qlm", J=0.7, jumps=(
            JumpSpec("x-like", gamma_up=1.0, gamma_down=0.5),
            JumpSpec("gauge-fix", strength=0.8))),
        ModelSpec(l3, "qlm", J=1.0, jumps=(JumpSpec("dephasing", gamma=1.3),)),
    ]


def test_trace_functional_is_left_null():
    for spec in full_specs():
        lv = assemble(spec)
        tvec = trace_vector(lv.sector)
        assert np.linalg.norm(lv.matrix.transpose() @ tvec) < 1e-12


def test_assembled_matches_operator_form_full_and_sector():
    rng = np.random.default_rng(7)
    spec = full_specs()[0]
    lv = assemble(spec)
    n = spec.layout.nstates
    rho = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho_op = SparseOperator(rho, spec.layout.basis_tag)
    direct = lindblad_apply(lv.hamiltonian, lv.jumps, rho_op).toarray()
    via_matrix = (lv.matrix @ rho.reshape(-1)).reshape(n, n)
    assert np.linalg.norm(direct - via_matrix) < 1e-10
    # sector path
    dsec = weak_sector(spec.layout, n_particles=2)
    lv_sec = assemble(spec, sector=dsec)
    v = rng.standard_normal(dsec.dim) + 1j * rng.standard_normal(dsec.dim)
    rho_sec = devectorize_from(v, dsec)
    direct = lindblad_apply(lv.hamiltonian, lv.jumps, rho_sec)
    expected = vectorize_into(direct, dsec)
    assert np.linalg.norm(lv_sec.matrix @ v - expected) < 1e-10


def test_sector_leakage_detected():
    spec = full_specs()[0]
    layout = spec.layout
    g_states = enumerate_sector(
        layout, SectorSpec(gauge=(0, 1, 0))).states
    if g_states.size == 0:
        g_states = enumerate_sector(layout, SectorSpec(gauge=(0, -1, 0))).states
    kets, bras = np.meshgrid(g_states, g_states, indexing="ij")
    frozen_g = DoubleSectorBasis(layout, kets.ravel(), bras.ravel(), "one-g")
    with pytest.raises(SectorLeakageError):
        assemble(spec, sector=frozen_g)


def test_weak_symmetry_generators_commute():
    spec = full_specs()[0]
    lv = assemble(spec)
    eye = sp.identity(spec.layout.nstates, format="csr")
    for n in range(1, 4):
        # the double-space generator O -> G O - O G
        gauss = gauss_generator(spec.layout, n).operator().matrix
        g = sp.kron(gauss, eye) - sp.kron(eye, gauss.transpose())
        comm = g @ lv.matrix - lv.matrix @ g
        assert (np.abs(comm.data).max() if comm.nnz else 0.0) < 1e-12


def test_detailed_balance_similarity():
    # dissipator-only chain: conjugating by T_s (x) I on the links gives
    # the conjugate transpose of the assembled generator
    gu, gd = 2.4, 1.6
    beta = gu / gd
    lay = build_layout("chain-obc", 3)
    spec = ModelSpec(lay, "none", jumps=(JumpSpec("biased", gamma_up=gu, gamma_down=gd),))
    lv = assemble(spec)
    idx = np.arange(lay.nstates)
    log_t = np.zeros(lay.nstates)
    for m in (1, 2):
        log_t += -np.log(beta) * (((idx >> lay.link_slot(m)) & 1) - 0.5)
    t_diag = np.exp(log_t)
    d = sp.diags(np.kron(t_diag, np.ones(lay.nstates)), format="csr")
    d_inv = sp.diags(np.kron(1.0 / t_diag, np.ones(lay.nstates)), format="csr")
    lhs = (d @ lv.matrix @ d_inv).toarray()
    rhs = lv.matrix.conjugate().transpose().toarray()
    assert np.linalg.norm(lhs - rhs) < 1e-10


def test_twisted_variants():
    lay = build_layout("chain-pbc", 3)
    spec = ModelSpec(lay, "qlm", J=1.0, jumps=(
        JumpSpec("biased", gamma_up=2.4, gamma_down=1.6),))
    plain = assemble(spec)
    double0 = assemble_twisted(spec, 0.0, "double-space")
    diff = double0.matrix - plain.matrix
    assert (np.abs(diff.data).max() if diff.nnz else 0.0) < 1e-14
    # proper Lindblad variant keeps the trace functional at any twist
    lind = assemble_twisted(spec, 1.1, "lindblad")
    tvec = trace_vector(lind.sector)
    assert np.linalg.norm(lind.matrix.transpose() @ tvec) < 1e-12
    # the double-space variant does not (it is not of Lindblad form)
    dbl = assemble_twisted(spec, np.pi / 2, "double-space")
    assert np.linalg.norm(dbl.matrix.transpose() @ tvec) > 1e-2
    with pytest.raises(AssemblyError):
        assemble_twisted(ModelSpec(build_layout("chain-obc", 3), "qlm"), 0.1, "lindblad")
    with pytest.raises(AssemblyError):
        assemble_twisted(spec, 0.1, "bogus")
    with pytest.raises(AssemblyError):
        assemble_twisted(ModelSpec(lay, "qlm", twist=0.3), 0.1, "lindblad")


def test_pair_vector_utilities():
    lay = build_layout("chain-obc", 3)
    dsec = weak_sector(lay, n_particles=1)
    rng = np.random.default_rng(4)
    v = rng.standard_normal(dsec.dim) + 1j * rng.standard_normal(dsec.dim)
    rho = devectorize_from(v, dsec)
    assert np.linalg.norm(vectorize_into(rho, dsec) - v) < 1e-14
    assert trace_vector(dsec) @ v == pytest.approx(np.trace(rho.toarray()))
    # diagonal expectation against the dense trace
    diag = np.arange(lay.nstates, dtype=float)
    dense = rho.toarray()
    want = np.trace(dense @ np.diag(diag))
    assert diagonal_expectation(v, dsec, diag) == pytest.approx(want)
    # embedding a state with support outside the sector fails
    outside = SparseOperator(np.identity(lay.nstates), lay.basis_tag)
    with pytest.raises(SectorLeakageError):
        vectorize_into(outside, dsec)


def test_full_assembly_guard():
    lay = build_layout("chain-obc", 6)
    spec = ModelSpec(lay, "qlm", jumps=(JumpSpec("biased", gamma_up=1, gamma_down=1),))
    with pytest.raises(InfeasibleSectorError):
        assemble(spec)


def test_spectrum_structure_smoke():
    spec = full_specs()[0]
    lv = assemble(spec)
    ev = np.linalg.eigvals(lv.matrix.toarray())
    assert ev.real.max() < 1e-10
    assert np.min(np.abs(ev)) < 1e-10
    # closed under conjugation
    ev_sorted = np.sort_complex(ev)
    conj_sorted = np.sort_complex(ev.conj())
    assert np.linalg.norm(ev_sorted - conj_sorted) < 1e-8


def random_operator(layout, rng):
    n = layout.nstates
    dense = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return SparseOperator(dense, layout.basis_tag)


def ladder_model(L):
    chain = build_layout("chain-obc", L)
    spec = ModelSpec(chain, jumps=(JumpSpec("biased", gamma_up=2.4,
                                            gamma_down=1.6),))
    return chain, build_hamiltonian(spec), build_jump_set(spec)


def test_streamed_images_equal_single_calls_bit_for_bit():
    spec = full_specs()[1]
    ham, jumps = build_hamiltonian(spec), build_jump_set(spec)
    rng = np.random.default_rng(11)
    rhos = [random_operator(spec.layout, rng) for _ in range(2)]
    images = lindblad_apply(ham, jumps, rhos)
    assert len(images) == 2
    for rho, image in zip(rhos, images):
        single = lindblad_apply(ham, jumps, rho)
        assert isinstance(single, SparseOperator)
        assert np.array_equal(image.matrix.indptr, single.matrix.indptr)
        assert np.array_equal(image.matrix.indices, single.matrix.indices)
        assert np.array_equal(image.matrix.data, single.matrix.data)


def test_ladder_residuals_with_eigenvalues():
    chain, ham, jumps = ladder_model(4)
    ladder = eigenoperator_set(chain, 2.4, 1.6)
    ops = [ens.materialize(normalize="frobenius") for _, ens, _ in ladder]
    lams = [lam for _, _, lam in ladder]
    residuals = steady_residual(ham, jumps, ops, lam=lams)
    assert len(residuals) == len(ladder) == 8
    for op, lam, res, image in zip(ops, lams, residuals,
                                   lindblad_apply(ham, jumps, ops)):
        want = (image - op.scale(lam)).frobenius_norm() / op.frobenius_norm()
        assert res == want
        assert res < 1e-12
        # L[op] = lam op, so without lam the residual is |lam|
        assert steady_residual(ham, jumps, op) == pytest.approx(abs(lam),
                                                                abs=1e-12)
    with pytest.raises(ValueError):
        steady_residual(ham, jumps, ops, lam=lams[:-1])


def test_generator_operands_give_one_float_each():
    chain, ham, jumps = ladder_model(3)
    rng = np.random.default_rng(5)
    rhos = [random_operator(chain, rng) for _ in range(3)]
    lazy = steady_residual(ham, jumps, (rho for rho in rhos))
    assert [type(x) for x in lazy] == [float] * 3
    assert lazy == steady_residual(ham, jumps, rhos)
    assert lazy == [steady_residual(ham, jumps, rho) for rho in rhos]
    assert len(lindblad_apply(ham, jumps, iter(rhos))) == 3
    assert steady_residual(ham, jumps, []) == []


def test_streamed_basis_mismatch_raises():
    chain, ham, jumps = ladder_model(3)
    rng = np.random.default_rng(3)
    good = random_operator(chain, rng)
    other = random_operator(build_layout("chain-obc", 2), rng)
    elsewhere = single_spin_operator(build_layout("chain-obc", 2).total_spins,
                                     1, "+")
    with pytest.raises(BasisMismatchError):
        lindblad_apply(ham, jumps + [elsewhere], [good])
    with pytest.raises(BasisMismatchError):
        lindblad_apply(ham, jumps, [good, other])
    with pytest.raises(BasisMismatchError):
        steady_residual(ham, jumps, iter([good, other]))


def family_jump(family, rates):
    return JumpSpec(family, **dict(zip(JUMP_RATES[family], rates)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((2, 3)),
       st.lists(st.sampled_from(("biased", "x-like", "dephasing",
                                 "gauge-fix", "effective-asep")),
                min_size=1, max_size=2, unique=True),
       st.lists(st.floats(0.1, 3.0), min_size=2, max_size=2),
       st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
def test_operator_form_matches_assembled_matrix(L, families, rates, disorder,
                                                diagonal, seed):
    # a diagonal rho takes the product-free route: every family is monomial
    chain = build_layout("chain-obc", L)
    spec = ModelSpec(chain, J=0.9,
                     jumps=tuple(family_jump(f, rates) for f in families),
                     disorder=DisorderSpec(seed=seed % 97) if disorder else None)
    superop = assemble(spec)
    rho = random_operator(chain, np.random.default_rng(seed))
    if diagonal:
        rho = SparseOperator(sp.diags(rho.diagonal()), chain.basis_tag)
    image = lindblad_apply(superop.hamiltonian, superop.jumps, rho).toarray()
    n = chain.nstates
    via_matrix = (superop.matrix @ rho.toarray().reshape(-1)).reshape(n, n)
    assert np.linalg.norm(image - via_matrix) <= 1e-12 * np.linalg.norm(via_matrix)


def admitted_jump_sets():
    """(layout kind, family, jumps) for every family on every layout kind
    whose spec it admits; all rates of the family set and distinct."""
    layouts = (build_layout("chain-obc", 3), build_layout("chain-pbc", 3),
               build_layout("hierarchical", 3),
               build_layout("square-2d", 2, Ly=2))
    found = []
    for layout in layouts:
        for family, names in JUMP_RATES.items():
            jump = JumpSpec(family, **dict(zip(names, (0.7, 1.3, 0.9, 1.1))))
            try:
                spec = ModelSpec(layout, "none", jumps=(jump,))
            except ModelError:
                continue
            found.append((layout.kind, family, build_jump_set(spec)))
    return found


def test_every_jump_csr_is_the_map_it_evaluates():
    # assembly and the diagonal route read a jump through `values` and its
    # flip, the product route through `operator()`: on the whole register,
    # each column of the CSR holds at most one entry, at the row c ^ flip,
    # with the value values(c)
    found = admitted_jump_sets()
    assert {(kind, family) for kind, family, _ in found} == {
        (kind, family) for kind in ("chain-obc", "chain-pbc")
        for family in JUMP_RATES} | {
        (kind, family) for kind in ("hierarchical", "square-2d")
        for family in ("biased", "gauge-fix")}
    for kind, family, jumps in found:
        assert jumps, (kind, family)
        for jump in jumps:
            matrix = jump.operator().matrix
            n = matrix.shape[0]
            states = np.arange(n)
            csc = matrix.tocsc()
            assert np.diff(csc.indptr).max() <= 1, (kind, family)
            # the image and value per column, -1 and 0 where it is empty
            img = np.full(n, -1)
            val = np.zeros(n, dtype=np.complex128)
            img[matrix.indices] = np.repeat(states, np.diff(matrix.indptr))
            val[matrix.indices] = matrix.data
            values = jump.values(states)
            assert np.array_equal(val, values), (kind, family)
            stored = values != 0
            assert np.array_equal(img[stored], (states ^ jump.flip)[stored])
            assert (img[~stored] == -1).all(), (kind, family)


class ReferenceDiagonalRoute(_DiagonalRoute):
    """`_DiagonalRoute` as it was before the register views: one weight
    array over the whole register per jump, from `values` gathered at
    every state, and the gain gathered as (w d)[states ^ flip]."""

    def __init__(self, ham, jumps):
        n = ham.shape[0]
        self.ham = ham
        self.states = np.arange(n, dtype=ham.indices.dtype)
        self.ham_rows = np.repeat(self.states, np.diff(ham.indptr))
        self.gains = [(jump.flip, np.abs(jump.values(self.states)) ** 2)
                      for jump in jumps]
        self.loss = np.zeros(n)
        for _, weight in self.gains:
            self.loss += weight

    def _parts(self, d):
        if not d.imag.any():
            d = d.real
        diff = d[self.ham.indices]
        diff -= d[self.ham_rows]
        rates = -self.loss * d
        for flip, weight in self.gains:
            rates += (weight * d)[self.states ^ flip]
        return d, diff, rates


def test_register_views_give_the_gathered_floats():
    # for every family on every layout kind, the view route's loss, rates,
    # residual and image are the floats of the gather route it replaced
    rng = np.random.default_rng(29)
    for kind, family, jumps in admitted_jump_sets():
        layout, hamiltonian, _ = RESIDUAL_LAYOUTS[kind]
        ham = build_hamiltonian(ModelSpec(layout, hamiltonian, J=0.9, J1=1.0,
                                          J2=0.7)).matrix
        route, reference = _DiagonalRoute(ham, jumps), \
            ReferenceDiagonalRoute(ham, jumps)
        assert np.array_equal(route.loss, reference.loss), (kind, family)
        n = layout.nstates
        for d in (rng.standard_normal(n) + 0j,
                  rng.standard_normal(n) + 1j * rng.standard_normal(n)):
            got, want = route._parts(d), reference._parts(d)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b), (kind, family)
            assert route.residual(d, 0.3) == reference.residual(d, 0.3)
            image, image_ref = route.image(d), reference.image(d)
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(image, part),
                                      getattr(image_ref, part))


def test_ladder_residuals_are_the_gathered_floats():
    chain, ham, jumps = ladder_model(5)
    ops = [ens.materialize(normalize="frobenius")
           for _, ens, _ in eigenoperator_set(chain, 2.4, 1.6)]
    route = _DiagonalRoute(ham.matrix, jumps)
    reference = ReferenceDiagonalRoute(ham.matrix, jumps)
    for op in ops:
        d = op.matrix.diagonal()
        assert route.residual(d, -8.0) == reference.residual(d, -8.0)


def test_register_values_broadcast_each_table():
    # operator() writes each amplitude into its block of the register;
    # values() on arange gathers by key, and the two agree, for one-slot
    # jumps and multi-slot tables, with flipped bits inside and outside
    # the slots
    rng = np.random.default_rng(7)
    table = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    table[[2, 5]] = 0
    maps = [transition_operator(6, (1, 4), (2,), 0.8),
            Monomial(6, 0b010010, (0, 3, 4), table),
            Monomial(5, 0, (4, 0, 2), table),
            Monomial(5, 0b10001, (), np.array([0.5 - 2j]))]
    maps += [jump for _, _, jumps in admitted_jump_sets() for jump in jumps]
    for jump in maps:
        states = np.arange(1 << jump.total_spins)
        # the CSR's data: row r holds the amplitude of r ^ flip
        want = monomial_operator(jump.total_spins, states, jump.flip,
                                 jump.values(states ^ jump.flip)).matrix
        got = jump.operator().matrix
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, part), getattr(want, part))


def test_zero_operand_raises_naming_its_position():
    chain, ham, jumps = ladder_model(3)
    n = chain.nstates
    zero = SparseOperator(sp.csr_matrix((n, n)), chain.basis_tag)
    rng = np.random.default_rng(29)
    good = SparseOperator(sp.diags(rng.uniform(0.1, 1.0, n)), chain.basis_tag)
    with pytest.raises(ValueError, match="operand 0 is zero"):
        steady_residual(ham, jumps, zero)
    with pytest.raises(ValueError, match="operand 1 is zero"):
        steady_residual(ham, jumps, iter([good, zero, good]))
    with pytest.raises(ValueError, match="operand 2 is zero"):
        steady_residual(ham, jumps, [good, good, zero], lam=[0.0, 1.0, 2.0])
    # an all-zero operator still has an image
    assert lindblad_apply(ham, jumps, zero).nnz == 0


RESIDUAL_LAYOUTS = {
    "chain-obc": (build_layout("chain-obc", 3), "qlm", tuple(JUMP_RATES)),
    "chain-pbc": (build_layout("chain-pbc", 3), "qlm", tuple(JUMP_RATES)),
    "hierarchical": (build_layout("hierarchical", 3), "hierarchical",
                     ("biased", "gauge-fix")),
    "square-2d": (build_layout("square-2d", 2, Ly=2), "qlm-2d",
                  ("biased", "gauge-fix")),
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(RESIDUAL_LAYOUTS)), st.data(),
       st.lists(st.floats(0.1, 3.0), min_size=4, max_size=4),
       st.lists(st.sampled_from(("real", "complex", "dense")), min_size=1,
                max_size=4),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_norm_only_residual_matches_the_image(kind, data, rates, kinds,
                                              per_operand, seed):
    # a structurally diagonal rho takes the norm-only route; a dense one
    # the product route, whose residual is its image's norm as before
    layout, hamiltonian, admitted = RESIDUAL_LAYOUTS[kind]
    families = data.draw(st.lists(st.sampled_from(admitted), min_size=1,
                                  max_size=len(admitted), unique=True))
    spec = ModelSpec(layout, hamiltonian, J=0.9, J1=1.0, J2=0.7,
                     jumps=tuple(family_jump(f, rates) for f in families))
    ham, jumps = build_hamiltonian(spec), build_jump_set(spec)
    rng = np.random.default_rng(seed)
    n = layout.nstates
    rhos = []
    for form in kinds:
        if form == "dense":
            rhos.append(random_operator(layout, rng))
            continue
        d = rng.standard_normal(n) * (rng.random(n) < 0.8)
        if form == "complex":
            d = d + 1j * rng.standard_normal(n)
        d[rng.integers(n)] = 1.0   # never the zero operator
        rhos.append(SparseOperator(sp.diags(d), layout.basis_tag))
    if per_operand:
        lam = list(rng.standard_normal(len(rhos))
                   + 1j * rng.standard_normal(len(rhos)) * rng.integers(2))
    else:
        lam = float(rng.standard_normal())
    lams = lam if per_operand else [lam] * len(rhos)
    got = steady_residual(ham, jumps, rhos, lam=lam)
    assert got == [steady_residual(ham, jumps, rho, lam=value)
                   for rho, value in zip(rhos, lams)]
    for rho, value, res, image in zip(rhos, lams, got,
                                      lindblad_apply(ham, jumps, rhos)):
        want = ((image - rho.scale(value)).frobenius_norm()
                / rho.frobenius_norm())
        assert abs(res - want) <= 1e-12 * want, (res, want)


# -- the single-pass assembly against the per-term reference ---------------

def reference_term_list(ham_ket, ham_bra, jumps):
    """(A, B) pairs meaning A rho B, summed: the coherent terms, then per
    jump the gain and the two losses, each as a SparseOperator (the
    jumps' own, from `operator()`)."""
    n = ham_ket.dim
    eye = SparseOperator(sp.identity(n, dtype=np.complex128, format="csr"),
                         ham_ket.basis)
    terms = [(ham_ket.scale(-1j), eye), (eye, ham_bra.scale(1j))]
    for op in (jump.operator() for jump in jumps):
        dag = op.adjoint()
        loss = (dag @ op).scale(-1.0)
        terms.append((op.scale(2.0), dag))
        terms.append((loss, eye))
        terms.append((eye, loss))
    return terms


def reference_assemble_on_pairs(terms, dsec, leak_tol=LEAK_TOL):
    """sum_k A_k rho B_k restricted to a DoubleSectorBasis, term by term
    through each term's CSC and CSR, with the per-term leakage summed."""
    dim = dsec.dim
    rows, cols, vals = [], [], []
    leak_sq = 0.0
    t_all = np.arange(dim, dtype=np.int64)
    for a_op, b_op in terms:
        acsc = a_op.matrix.tocsc()
        bcsr = b_op.matrix.tocsr()
        ca = np.diff(acsc.indptr)[dsec.kets]
        cb = np.diff(bcsr.indptr)[dsec.bras]
        reps = ca * cb
        total = int(reps.sum())
        if total == 0:
            continue
        t_idx = np.repeat(t_all, reps)
        starts = np.cumsum(reps) - reps
        k = np.arange(total, dtype=np.int64) - np.repeat(starts, reps)
        cb_rep = np.repeat(cb, reps)
        ia = k // cb_rep
        ib = k - ia * cb_rep
        a_entry = np.repeat(acsc.indptr[dsec.kets], reps) + ia
        b_entry = np.repeat(bcsr.indptr[dsec.bras], reps) + ib
        v = acsc.data[a_entry] * bcsr.data[b_entry]
        pos = dsec.lookup(acsc.indices[a_entry], bcsr.indices[b_entry])
        bad = pos < 0
        if bad.any():
            leak_sq += float(np.sum(np.abs(v[bad]) ** 2))
            keep = ~bad
            t_idx, pos, v = t_idx[keep], pos[keep], v[keep]
        rows.append(pos.astype(np.int32))
        cols.append(t_idx.astype(np.int32))
        vals.append(v)
    if np.sqrt(leak_sq) > leak_tol:
        raise SectorLeakageError(
            f"Liouvillian couples out of {dsec.tag}: "
            f"||(1-P) L P||_F >= {np.sqrt(leak_sq):.3e}")
    if not rows:
        return sp.csr_matrix((dim, dim), dtype=np.complex128)
    m = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim)).tocsr()
    m.sum_duplicates()
    m.sort_indices()
    m.eliminate_zeros()
    return m


def reference_matrix(spec, sector=None, phi=None, variant=None):
    """The reference generator of `assemble` (phi None) or of
    `assemble_twisted`, with its H_ket."""
    sector = full_pairs(spec.layout) if sector is None else sector
    jumps = build_jump_set(spec)
    if phi is None:
        h_ket = h_bra = build_hamiltonian(spec)
    else:
        bulk = bulk_hamiltonian(spec.layout, spec.J)
        h_ket = bulk + twist_term(spec.layout, spec.J, phi % (2 * np.pi))
        h_bra = h_ket if variant == "lindblad" else bulk + twist_term(
            spec.layout, spec.J, (-phi) % (2 * np.pi))
    terms = reference_term_list(h_ket, h_bra, jumps)
    return reference_assemble_on_pairs(terms, sector), h_ket


def assert_same_csr(got, want):
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


def battery():
    """(id, spec, sector) for every admitted jump family on the four
    layout kinds, each with its layout's Hamiltonian, and for weak sectors
    with and without N, the full pair space, charge-difference blocks and
    disorder."""
    rates = (0.7, 1.3, 0.9, 1.1)
    layouts = (build_layout("chain-obc", 3), build_layout("chain-pbc", 3),
               build_layout("hierarchical", 3),
               build_layout("square-2d", 2, Ly=2))
    cases = []
    for layout in layouts:
        for family, names in JUMP_RATES.items():
            jump = JumpSpec(family, **dict(zip(names, rates)))
            kind = {"hierarchical": "hierarchical",
                    "square-2d": "qlm-2d"}.get(layout.kind, "qlm")
            try:
                spec = ModelSpec(layout, kind, J=0.9, J1=0.8, J2=1.2,
                                 jumps=(jump,))
            except ModelError:
                continue
            sector = (weak_sector(layout) if layout.kind == "square-2d"
                      else None)
            cases.append((f"{layout.kind}-{family}", spec, sector))
    biased = JumpSpec("biased", gamma_up=2.9, gamma_down=1.1)
    chain = ModelSpec(build_layout("chain-obc", 5), J=0.8, jumps=(
        biased, JumpSpec("dephasing", gamma=0.3),
        JumpSpec("gauge-fix", strength=0.6)))
    cases += [("weak-N2", chain, weak_sector(chain.layout, 2)),
              ("weak", chain, weak_sector(chain.layout))]
    ring = ModelSpec(build_layout("chain-pbc", 4), twist=0.4, jumps=(biased,))
    cases.append(("ring-twist-weak-N2", ring, weak_sector(ring.layout, 2)))
    small = ModelSpec(build_layout("chain-obc", 4), jumps=(biased,))
    cases.append(("full-L4", small, None))
    blocks = partition_double_space(small.layout)
    for i in (0, 1, len(blocks) // 2, len(blocks) - 1):
        key, block = blocks[i]
        cases.append(("block" + "".join(f"{d:+d}" for d in key), small, block))
    disordered = ModelSpec(build_layout("chain-obc", 5), jumps=(biased,),
                           disorder=DisorderSpec(seed=3))
    cases += [("disorder", disordered, weak_sector(disordered.layout)),
              ("disorder-N2", disordered, weak_sector(disordered.layout, 2))]
    return cases


@pytest.mark.parametrize("spec, sector", [case[1:] for case in battery()],
                         ids=[case[0] for case in battery()])
def test_assembly_is_bit_identical_to_the_per_term_reference(spec, sector):
    superop = assemble(spec, sector=sector)
    want, ham = reference_matrix(spec, sector)
    assert superop.nnz > 0
    assert_same_csr(superop.matrix, want)
    assert_same_csr(superop.hamiltonian.matrix, ham.matrix)


PHASES = (0.0, 0.7, np.pi / 2, np.pi, 3 * np.pi / 2, 2 * np.pi - 1e-3)


@pytest.mark.parametrize("variant", ["lindblad", "double-space"])
@pytest.mark.parametrize("jumps", [
    (JumpSpec("biased", gamma_up=2.9, gamma_down=1.1),
     JumpSpec("dephasing", gamma=0.3)),
    (JumpSpec("effective-asep", gamma_right=0.3, gamma_left=0.1),)],
    ids=["biased-dephasing", "asep"])
def test_twisted_and_rephased_generators_are_bit_identical(variant, jumps):
    spec = ModelSpec(build_layout("chain-pbc", 4), J=0.8, jumps=jumps)
    dsec = weak_sector(spec.layout, 2)
    direct = {}
    for phi in PHASES:
        direct[phi] = assemble_twisted(spec, phi, variant, sector=dsec)
        want, ham = reference_matrix(spec, dsec, phi, variant)
        assert_same_csr(direct[phi].matrix, want)
        assert_same_csr(direct[phi].hamiltonian.matrix, ham.matrix)
    for source, phi in zip(PHASES, PHASES[1:] + PHASES[:1]):
        rephased = direct[source].rephase(phi)
        assert_same_csr(rephased.matrix, direct[phi].matrix)
        assert_same_csr(rephased.hamiltonian.matrix,
                        direct[phi].hamiltonian.matrix)
        assert rephased.twists == direct[phi].twists
        assert rephased.sector is dsec
        assert rephased.jumps is direct[source].jumps
        # the source keeps its own values
        assert_same_csr(direct[source].matrix,
                        reference_matrix(spec, dsec, source, variant)[0])


def test_only_twisted_generators_rephase():
    spec = ModelSpec(build_layout("chain-pbc", 3), jumps=(
        JumpSpec("biased", gamma_up=2.4, gamma_down=1.6),))
    with pytest.raises(AssemblyError):
        assemble(spec).rephase(0.3)


def leaky_sectors():
    """(id, spec, sector) where the Hamiltonian, the gain, or both leave
    the sector."""
    layout = build_layout("chain-obc", 3)
    biased = JumpSpec("biased", gamma_up=2.4, gamma_down=1.6)
    states = np.arange(layout.nstates)
    # the diagonal pairs: a hop of the ket alone leaves them
    diagonal = DoubleSectorBasis(layout, states, states, "diagonal")
    # the pairs whose first link is down: its s^+ gain leaves them
    down = states[(states >> layout.link_slot(1)) & 1 == 0]
    kets, bras = np.meshgrid(down, down, indexing="ij")
    link_down = DoubleSectorBasis(layout, kets.ravel(), bras.ravel(), "down")
    both = DoubleSectorBasis(layout, down, down, "diagonal-down")
    return [("coherent", ModelSpec(layout, jumps=(biased,)), diagonal),
            ("gain", ModelSpec(layout, "none", jumps=(biased,)), link_down),
            ("both", ModelSpec(layout, jumps=(biased,)), both)]


@pytest.mark.parametrize("spec, sector", [case[1:] for case in leaky_sectors()],
                         ids=[case[0] for case in leaky_sectors()])
def test_a_term_leaking_out_of_the_sector_raises(spec, sector):
    with pytest.raises(SectorLeakageError) as want:
        reference_matrix(spec, sector)
    with pytest.raises(SectorLeakageError) as got:
        assemble(spec, sector=sector)
    assert str(got.value) == str(want.value)
    # with the check off, the entries kept inside are the same
    ham = build_hamiltonian(spec)
    terms = reference_term_list(ham, ham, build_jump_set(spec))
    assert_same_csr(assemble(spec, sector, np.inf).matrix,
                    reference_assemble_on_pairs(terms, sector, np.inf))


@pytest.mark.parametrize("twisted", [False, True])
def test_an_overflowing_generator_is_refused_without_warnings(twisted):
    # every input is finite; the gain 2 L (x) L^* overflows
    spec = ModelSpec(build_layout("chain-pbc" if twisted else "chain-obc", 3),
                     jumps=(JumpSpec("biased", gamma_up=1e308,
                                     gamma_down=1.0),))
    dsec = weak_sector(spec.layout, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteGeneratorError, match="non-finite"):
            if twisted:
                assemble_twisted(spec, 0.5, "double-space", sector=dsec)
            else:
                assemble(spec, sector=dsec)
    assert issubclass(NonFiniteGeneratorError, SolverError)
    assert not issubclass(NonFiniteGeneratorError, AssemblyError)
