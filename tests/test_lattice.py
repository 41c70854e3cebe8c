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
    single_spin_operator,
    state_bit,
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
    sz = single_spin_operator(1, 0, "z").toarray()
    sp_ = single_spin_operator(1, 0, "+").toarray()
    sm = single_spin_operator(1, 0, "-").toarray()
    # index 0 = down, index 1 = up
    assert np.array_equal(sz, np.diag([-0.5, 0.5]))
    assert np.array_equal(sp_, np.array([[0, 0], [1, 0]], dtype=complex))
    assert np.array_equal(sm, np.array([[0, 1], [0, 0]], dtype=complex))
    num = single_spin_operator(1, 0, "+") @ single_spin_operator(1, 0, "-")
    assert np.array_equal(num.toarray(), np.diag([0.0, 1.0]))


def test_spin_algebra_random_slots():
    rng = np.random.default_rng(11)
    total = 5
    for _ in range(10):
        a, b = rng.choice(total, size=2, replace=False)
        sza = single_spin_operator(total, a, "z")
        spa = single_spin_operator(total, a, "+")
        sma = single_spin_operator(total, a, "-")
        spb = single_spin_operator(total, b, "+")
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
        t = transition_operator(total, (slots[0], slots[1]), (slots[2],), amp)
        prod = (single_spin_operator(total, slots[0], "+")
                @ single_spin_operator(total, slots[1], "+")
                @ single_spin_operator(total, slots[2], "-")).scale(amp)
        assert (t - prod).frobenius_norm() < 1e-13
        assert (t.adjoint() - prod.adjoint()).frobenius_norm() < 1e-13
    with pytest.raises(LayoutError):
        transition_operator(total, (1,), (1,))


def test_sparse_operator_guards_and_canonical_form():
    a = single_spin_operator(2, 0, "+")
    b = single_spin_operator(3, 0, "+")
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
