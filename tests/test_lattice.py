import numpy as np
import pytest
import scipy.sparse as sp

from dqlm.lattice import (
    BasisMismatchError,
    LayoutError,
    SparseOperator,
    build_layout,
    commutator,
    diagonal_operator,
    monomial_operator,
    register_axes,
    single_spin_operator,
    state_bit,
    transition_entries,
    transition_operator,
)


def test_total_spins_by_kind():
    assert build_layout("chain-obc", 7).total_spins == 13
    assert build_layout("chain-pbc", 7).total_spins == 14
    assert build_layout("hierarchical", 5).total_spins == 12
    assert build_layout("square-2d", 2, 3).total_spins == 13
    assert build_layout("square-2d", 2, 2).total_spins == 8


def test_chain_slots_interleave():
    lay = build_layout("chain-obc", 4)
    assert [lay.site_slot(n) for n in (1, 2, 3, 4)] == [0, 2, 4, 6]
    assert [lay.link_slot(n) for n in (1, 2, 3)] == [1, 3, 5]
    pbc = build_layout("chain-pbc", 4)
    assert pbc.link_slot(4) == 7
    assert pbc.n_links == 4
    assert lay.n_links == 3


def test_hierarchical_slots_blocked():
    lay = build_layout("hierarchical", 5)
    assert [lay.top_slot(n) for n in range(1, 6)] == [0, 1, 2, 3, 4]
    assert [lay.mid_slot(m) for m in range(1, 5)] == [5, 6, 7, 8]
    assert [lay.bot_slot(j) for j in range(2, 5)] == [9, 10, 11]


def test_square_slots_blocked():
    lay = build_layout("square-2d", 2, 3)
    # sites row-major, x fastest
    assert [lay.site_slot_2d(x, y) for y in (1, 2, 3) for x in (1, 2)] == list(range(6))
    assert [lay.hlink_slot(1, y) for y in (1, 2, 3)] == [6, 7, 8]
    assert [lay.vlink_slot(x, y) for y in (1, 2) for x in (1, 2)] == [9, 10, 11, 12]


@pytest.mark.parametrize("kind, L, Ly, sites, links", [
    ("chain-obc", 3, 0, [0, 2, 4], [1, 3]),
    ("chain-pbc", 3, 0, [0, 2, 4], [1, 3, 5]),
    ("hierarchical", 4, 0, [0, 1, 2, 3], [7, 8]),
    ("square-2d", 3, 2, list(range(6)), list(range(6, 13))),
])
def test_site_and_link_slot_lists(kind, L, Ly, sites, links):
    lay = build_layout(kind, L, Ly)
    assert lay.site_slots == sites
    assert lay.link_slots == links
    # the same order from the per-coordinate slot methods
    if kind == "hierarchical":
        by_coordinate = ([lay.top_slot(n) for n in range(1, L + 1)],
                         [lay.bot_slot(j) for j in range(2, L)])
    elif kind == "square-2d":
        by_coordinate = (
            [lay.site_slot_2d(x, y) for y in range(1, Ly + 1)
             for x in range(1, L + 1)],
            [lay.hlink_slot(x, y) for y in range(1, Ly + 1) for x in range(1, L)]
            + [lay.vlink_slot(x, y) for y in range(1, Ly) for x in range(1, L + 1)])
    else:
        by_coordinate = ([lay.site_slot(n) for n in range(1, L + 1)],
                         [lay.link_slot(m) for m in range(1, lay.n_links + 1)])
    assert (lay.site_slots, lay.link_slots) == by_coordinate


def test_layout_validation():
    with pytest.raises(LayoutError):
        build_layout("chain", 4)
    with pytest.raises(LayoutError):
        build_layout("chain-obc", 1)
    with pytest.raises(LayoutError):
        build_layout("chain-pbc", 2)
    with pytest.raises(LayoutError):
        build_layout("hierarchical", 2)
    with pytest.raises(LayoutError):
        build_layout("square-2d", 2, 1)
    with pytest.raises(LayoutError):
        build_layout("chain-obc", 4, Ly=2)
    # sizes are integers: not a float, even an integral one, nor a bool
    for L, Ly in ((4.0, 0), (True, 0), (3, 2.0)):
        with pytest.raises(LayoutError, match="must be integers"):
            build_layout("square-2d" if Ly else "chain-obc", L, Ly)
    assert build_layout("chain-obc", np.int64(4)) == build_layout("chain-obc", 4)
    lay = build_layout("chain-obc", 4)
    with pytest.raises(LayoutError):
        lay.site_slot(5)
    with pytest.raises(LayoutError):
        lay.link_slot(4)
    with pytest.raises(LayoutError):
        lay.top_slot(1)


def test_single_spin_matrices_one_slot():
    sz = single_spin_operator(1, 0, "z").operator().toarray()
    sp_ = single_spin_operator(1, 0, "+").operator().toarray()
    sm = single_spin_operator(1, 0, "-").operator().toarray()
    # index 0 = down, index 1 = up
    assert np.array_equal(sz, np.diag([-0.5, 0.5]))
    assert np.array_equal(sp_, np.array([[0, 0], [1, 0]], dtype=complex))
    assert np.array_equal(sm, np.array([[0, 1], [0, 0]], dtype=complex))
    num = (single_spin_operator(1, 0, "+").operator()
           @ single_spin_operator(1, 0, "-").operator())
    assert np.array_equal(num.toarray(), np.diag([0.0, 1.0]))


def test_spin_algebra_random_slots():
    rng = np.random.default_rng(11)
    total = 5
    for _ in range(10):
        a, b = rng.choice(total, size=2, replace=False)
        sza = single_spin_operator(total, a, "z").operator()
        spa = single_spin_operator(total, a, "+").operator()
        sma = single_spin_operator(total, a, "-").operator()
        spb = single_spin_operator(total, b, "+").operator()
        # [s^z, s^+-] = +-s^+- on the same slot
        assert (commutator(sza, spa) - spa).frobenius_norm() < 1e-14
        assert (commutator(sza, sma) + sma).frobenius_norm() < 1e-14
        # different slots commute
        assert commutator(spa, spb).frobenius_norm() == 0.0
        assert commutator(sza, spb).frobenius_norm() == 0.0
        # adjoint pairs and spin-1/2 identities
        assert (spa.adjoint() - sma).frobenius_norm() == 0.0
        eye = SparseOperator(sp.identity(1 << total), f"spins:{total}")
        assert ((sza @ sza) - eye.scale(0.25)).frobenius_norm() < 1e-14


def test_transition_matches_operator_product():
    rng = np.random.default_rng(23)
    total = 6
    for _ in range(8):
        slots = rng.choice(total, size=3, replace=False)
        amp = complex(rng.standard_normal(), rng.standard_normal())
        t = transition_operator(total, (slots[0], slots[1]), (slots[2],),
                                amp).operator()
        prod = (single_spin_operator(total, slots[0], "+").operator()
                @ single_spin_operator(total, slots[1], "+").operator()
                @ single_spin_operator(total, slots[2], "-").operator()
                ).scale(amp)
        assert (t - prod).frobenius_norm() < 1e-13
        assert (t.adjoint() - prod.adjoint()).frobenius_norm() < 1e-13
    with pytest.raises(LayoutError):
        transition_operator(total, (1,), (1,))


def test_sparse_operator_guards_and_canonical_form():
    a = single_spin_operator(2, 0, "+").operator()
    b = single_spin_operator(3, 0, "+").operator()
    with pytest.raises(BasisMismatchError):
        _ = a + b
    with pytest.raises(BasisMismatchError):
        _ = a @ b
    with pytest.raises(TypeError):
        _ = a @ np.eye(4)
    # subtraction prunes stored zeros
    assert (a - a).nnz == 0
    assert (a - a).frobenius_norm() == 0.0
    assert "dim=4" in repr(a)
    with pytest.raises(BasisMismatchError):
        diagonal_operator(2, np.ones(3))


def test_state_bit_and_format():
    assert state_bit(0b001, 0) == 1 and state_bit(0b001, 1) == 0
    assert np.array_equal(state_bit(np.array([1, 2, 4]), 1), np.array([0, 1, 0]))


AMPLITUDES = (1.0, 0.0, 0.37, -2.5j, 0.3 - 0.4j, 5e-324)


def coo_reference(total, rows, cols, values):
    """The canonical CSR of a COO triple, as `SparseOperator` keeps it."""
    n = 1 << total
    values = np.broadcast_to(np.asarray(values, dtype=np.complex128),
                             np.shape(rows))
    m = sp.coo_matrix((values, (rows, cols)), shape=(n, n)).tocsr()
    m.sum_duplicates()
    m.sort_indices()
    m.eliminate_zeros()
    return m


def assert_same_csr(op, ref):
    for name in ("indptr", "indices", "data"):
        got, want = getattr(op.matrix, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


def test_direct_csr_spin_operators_match_a_coo_reference():
    for total in (1, 3, 6):
        idx = np.arange(1 << total)
        for slot in range(total):
            bit = (idx >> slot) & 1
            up, down = idx[bit == 0], idx[bit == 1]
            for amp in AMPLITUDES:
                refs = {"+": coo_reference(total, up | (1 << slot), up, amp),
                        "-": coo_reference(total, down & ~(1 << slot), down,
                                           amp),
                        "z": coo_reference(total, idx, idx,
                                           (bit - 0.5) * amp)}
                for which, ref in refs.items():
                    op = single_spin_operator(total, slot, which,
                                              amp).operator()
                    assert op.basis == f"spins:{total}"
                    assert_same_csr(op, ref)
                    if amp == 0:
                        assert op.nnz == 0 and not op.matrix.indptr.any()
                    if amp == 1.0:
                        assert_same_csr(single_spin_operator(
                            total, slot, which).operator(), ref)


def test_direct_csr_transition_matches_a_coo_reference():
    total = 6
    idx = np.arange(1 << total)
    for plus, minus in (((0,), ()), ((), (5,)), ((0, 1), (3,)),
                        ((4,), (0, 2)), ((5, 1), (2, 0)), ((2, 3, 4), ())):
        keep = np.ones(idx.size, dtype=bool)
        for s in plus:
            keep &= ((idx >> s) & 1) == 0
        for s in minus:
            keep &= ((idx >> s) & 1) == 1
        cols = idx[keep]
        rows = cols ^ sum(1 << s for s in plus + minus)
        r, c = transition_entries(total, plus, minus)
        assert np.all(np.diff(r) > 0)
        order = np.argsort(rows)
        assert np.array_equal(r, rows[order]) and np.array_equal(c, cols[order])
        for amp in AMPLITUDES:
            op = transition_operator(total, plus, minus, amp).operator()
            assert_same_csr(op, coo_reference(total, rows, cols, amp))
            if amp == 0:
                assert op.nnz == 0 and not op.matrix.indptr.any()


def test_register_axes_split_the_register_at_the_slots():
    shape, axis = register_axes(7, (4, 0, 5))
    assert shape == (2, 2, 1, 2, 8, 2, 1)
    assert axis == {5: 1, 4: 3, 0: 5}
    # fixing a slot's axis picks the states with that bit
    states = np.arange(1 << 7).reshape(shape)
    for slot, ax in axis.items():
        for bit in (0, 1):
            picked = np.take(states, bit, axis=ax).ravel()
            assert picked.size == 64 and (state_bit(picked, slot) == bit).all()
    assert register_axes(3, ()) == ((8,), {})


def test_monomial_operators_are_canonical_as_built():
    # monomial_operator skips SparseOperator's canonicalization; the CSR
    # it builds must be the one that canonicalization would give
    rng = np.random.default_rng(3)
    for flip in (0, 0b101, 0b11111):
        rows = np.sort(rng.choice(32, size=20, replace=False))
        data = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        data[[1, 7]] = 0
        op = monomial_operator(5, rows, flip, data)
        want = SparseOperator(sp.csr_matrix(
            (data, (rows, rows ^ flip)), shape=(32, 32)), op.basis).matrix
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(op.matrix, part), getattr(want, part))
        assert op.matrix.has_canonical_format and op.nnz == 18
        assert op.matrix.dtype == np.complex128
