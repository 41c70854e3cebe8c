import numpy as np
import pytest

from dqlm.lattice import build_layout, commutator, diagonal_operator
from dqlm.models import (
    DisorderSpec,
    JumpSpec,
    ModelError,
    ModelSpec,
    asep_rates,
    build_hamiltonian,
    build_jump_set,
    bulk_hamiltonian,
    disorder_terms,
    twist_term,
)
from dqlm.symmetry import gauss_generator, site_occupation_table


def number_operator(layout):
    return diagonal_operator(layout.total_spins, site_occupation_table(layout))


def all_generators(layout):
    if layout.kind == "square-2d":
        return [gauss_generator(layout, (x, y))
                for x in range(1, layout.L + 1) for y in range(1, layout.Ly + 1)]
    return [gauss_generator(layout, n) for n in range(1, layout.L + 1)]


def test_single_term_matrix_element():
    lay = build_layout("chain-obc", 2)
    h = build_hamiltonian(ModelSpec(lay, "qlm", J=1.0))
    bra = 0b011  # site1 up, link up, site2 down
    ket = 0b100  # site2 up
    assert h.toarray()[bra, ket] == pytest.approx(1.0)
    assert h.toarray()[ket, bra] == pytest.approx(1.0)


def make_specs():
    return [
        ModelSpec(build_layout("chain-obc", 4), "qlm", J=1.3),
        ModelSpec(build_layout("chain-pbc", 4), "qlm", J=1.0, twist=0.7),
        ModelSpec(build_layout("chain-obc", 5), "qlm", J=0.8,
                  disorder=DisorderSpec(seed=7)),
        ModelSpec(build_layout("hierarchical", 3), "hierarchical", J1=1.0, J2=1.0),
        ModelSpec(build_layout("square-2d", 2, 2), "qlm-2d", J1=1.1, J2=0.9),
    ]


def test_hamiltonians_hermitian_and_symmetric():
    for spec in make_specs():
        h = build_hamiltonian(spec)
        assert (h - h.adjoint()).frobenius_norm() < 1e-13
        n_op = number_operator(spec.layout)
        assert commutator(n_op, h).frobenius_norm() < 1e-13
        for g in all_generators(spec.layout):
            assert commutator(g, h).frobenius_norm() < 1e-12


def test_twist_gauge_equivalence():
    lay = build_layout("chain-pbc", 4)
    phi = 0.7
    h_phi = build_hamiltonian(ModelSpec(lay, "qlm", twist=phi))
    h_0 = build_hamiltonian(ModelSpec(lay, "qlm"))
    idx = np.arange(lay.nstates)
    z = ((idx >> lay.link_slot(4)) & 1) - 0.5
    u = diagonal_operator(lay.total_spins, np.exp(-1j * phi * z))
    conj = (u @ h_phi @ u.adjoint()) - h_0
    assert conj.frobenius_norm() < 1e-13
    # twisted = bulk + boundary term
    resplit = bulk_hamiltonian(lay, 1.0) + twist_term(lay, 1.0, phi)
    assert (h_phi - resplit).frobenius_norm() == 0.0


def test_jump_counts_and_kinds():
    lay7 = build_layout("chain-obc", 7)
    biased = build_jump_set(ModelSpec(lay7, "qlm", jumps=(
        JumpSpec("biased", gamma_up=2.4, gamma_down=1.6),)))
    assert len(biased) == 12
    lay3 = build_layout("chain-obc", 3)
    deph = build_jump_set(ModelSpec(lay3, "qlm", jumps=(
        JumpSpec("dephasing", gamma=1.0),)))
    assert len(deph) == 2
    for op in deph:
        assert (op - op.adjoint()).frobenius_norm() < 1e-12
        for g in all_generators(lay3):
            assert commutator(g, op).frobenius_norm() == 0.0
    fix = build_jump_set(ModelSpec(lay3, "qlm", jumps=(
        JumpSpec("gauge-fix", strength=1.0),)))
    assert len(fix) == 3
    for op in fix:
        assert (op - op.adjoint()).frobenius_norm() < 1e-12
    xl = build_jump_set(ModelSpec(build_layout("chain-obc", 4), "qlm", jumps=(
        JumpSpec("x-like", gamma_up=2.0, gamma_down=2.0),)))
    assert len(xl) == 3
    for op in xl:
        # equal rates: proportional to s^x
        assert (op - op.adjoint()).frobenius_norm() < 1e-13
    sq = build_layout("square-2d", 2, 2)
    b2 = build_jump_set(ModelSpec(sq, "qlm-2d", jumps=(
        JumpSpec("biased", gamma_up=3, gamma_down=1, gamma_up_v=2, gamma_down_v=1),)))
    assert len(b2) == 8  # (2 hlinks + 2 vlinks) * 2


def test_jumps_conserve_particle_number_not_gauge():
    lay = build_layout("chain-obc", 3)
    spec = ModelSpec(lay, "qlm", jumps=(
        JumpSpec("biased", gamma_up=2.4, gamma_down=1.6),))
    n_op = number_operator(lay)
    gens = all_generators(lay)
    broke_gauge = False
    for op in build_jump_set(spec):
        assert commutator(n_op, op).frobenius_norm() == 0.0
        broke_gauge |= any(commutator(g, op).frobenius_norm() > 0.1 for g in gens)
    assert broke_gauge


def test_asep_family():
    assert asep_rates(30, 10, 1.0) == pytest.approx((0.01875, 0.00625))
    lay = build_layout("chain-obc", 4)
    ops = build_jump_set(ModelSpec(lay, "none", jumps=(
        JumpSpec("effective-asep", gamma_right=0.01875, gamma_left=0.00625),)))
    assert len(ops) == 6
    n_op = number_operator(lay)
    for op in ops:
        assert commutator(n_op, op).frobenius_norm() < 1e-14
    # rightward operator moves a particle from site 1 to site 2
    src = 1 << lay.site_slot(1)
    dst = 1 << lay.site_slot(2)
    right = ops[0].toarray()
    assert right[dst, src] == pytest.approx(np.sqrt(0.01875))
    pbc = build_layout("chain-pbc", 3)
    wrap = build_jump_set(ModelSpec(pbc, "none", jumps=(
        JumpSpec("effective-asep", gamma_right=1.0, gamma_left=0.5),)))
    assert len(wrap) == 6
    src = 1 << pbc.site_slot(3)
    dst = 1 << pbc.site_slot(1)
    assert wrap[-2].toarray()[dst, src] == pytest.approx(1.0)


def test_disorder_reproducible_and_symmetric():
    lay = build_layout("chain-obc", 5)
    d1 = disorder_terms(lay, DisorderSpec(seed=3))
    d2 = disorder_terms(lay, DisorderSpec(seed=3))
    d3 = disorder_terms(lay, DisorderSpec(seed=4))
    assert (d1 - d2).frobenius_norm() == 0.0
    assert (d1 - d3).frobenius_norm() > 1e-3
    assert (d1 - d1.adjoint()).frobenius_norm() < 1e-13
    for g in all_generators(lay):
        assert commutator(g, d1).frobenius_norm() < 1e-12


def test_spec_validation():
    lay = build_layout("chain-obc", 3)
    with pytest.raises(ModelError):
        JumpSpec("unknown")
    with pytest.raises(ModelError):
        JumpSpec("biased", gamma_up=-1.0)
    with pytest.raises(ModelError, match="do not read gamma_up"):
        JumpSpec("effective-asep", gamma_up=2.4, gamma_right=0.3)
    # an unread rate at zero is no rate at all
    JumpSpec("effective-asep", gamma_up=0.0, gamma_right=0.3)
    with pytest.raises(ModelError):
        ModelSpec(build_layout("square-2d", 2, 2), "qlm")
    with pytest.raises(ModelError):
        ModelSpec(lay, "qlm", twist=0.5)
    with pytest.raises(ModelError):
        ModelSpec(build_layout("chain-pbc", 3), "qlm",
                  disorder=DisorderSpec())
    with pytest.raises(ModelError):
        ModelSpec(build_layout("square-2d", 2, 2), "qlm-2d",
                  jumps=(JumpSpec("x-like", gamma_up=1, gamma_down=1),))
    with pytest.raises(ModelError):
        ModelSpec(lay, "qlm", twist=7.0)
    # numbers are numbers: not a string, nor a bool
    for bad in ("1", True, None):
        with pytest.raises(ModelError, match="gamma_up must be a number"):
            JumpSpec("biased", gamma_up=bad)
        with pytest.raises(ModelError, match="J must be a number"):
            ModelSpec(lay, "qlm", J=bad)
        with pytest.raises(ModelError, match="field_strength"):
            DisorderSpec(field_strength=bad)
    with pytest.raises(ModelError, match="twist must be a number"):
        ModelSpec(lay, "qlm", twist=True)
    with pytest.raises(ModelError, match="long_range_strength"):
        DisorderSpec(long_range_strength=-0.5)
    for seed in (-1, 1.0, "7", True):
        with pytest.raises(ModelError, match="seed must be an integer"):
            DisorderSpec(seed=seed)


def test_spec_roundtrip():
    specs = make_specs()
    specs.append(ModelSpec(build_layout("chain-obc", 4), "none", jumps=(
        JumpSpec("effective-asep", gamma_right=0.1, gamma_left=0.05),
        JumpSpec("gauge-fix", strength=1.0))))
    for spec in specs:
        again = ModelSpec.from_dict(spec.to_dict())
        assert again == spec
    # a "qlm" kind, given or by default, on a hierarchical or square-2d
    # layout is read as that layout's own Hamiltonian
    for spec in specs[3:5]:
        d = spec.to_dict()
        d["hamiltonian"]["kind"] = "qlm"
        assert ModelSpec.from_dict(d) == spec
        del d["hamiltonian"]["kind"]
        assert ModelSpec.from_dict(d) == spec


@pytest.mark.parametrize("d, named", [
    (3, "model must be an object"),
    ({}, "model needs 'layout'"),
    ({"layout": {"kind": "chain-obc", "L": 4}, "bogus": 1}, "'bogus' in model"),
    ({"layout": [4]}, "model.layout must be an object"),
    ({"layout": {"L": 4}}, "model.layout needs 'kind'"),
    ({"layout": {"kind": "chain-obc"}}, "model.layout needs 'L'"),
    ({"layout": {"kind": "chain-obc", "L": 4, "Lx": 4}}, "'Lx' in model.layout"),
    ({"layout": {"kind": "chain-obc", "L": 4}, "hamiltonian": "qlm"},
     "model.hamiltonian must be an object"),
    ({"layout": {"kind": "chain-obc", "L": 4}, "hamiltonian": {"phi": 1.0}},
     "'phi' in model.hamiltonian"),
    ({"layout": {"kind": "chain-obc", "L": 4}, "jumps": {"family": "biased"}},
     "model.jumps must be a list"),
    ({"layout": {"kind": "chain-obc", "L": 4}, "jumps": ["biased"]},
     r"model.jumps\[0\] must be an object"),
    ({"layout": {"kind": "chain-obc", "L": 4},
      "jumps": [{"family": "biased", "gamma_up": 1.0}, {"gamma": 1.0}]},
     r"model.jumps\[1\] needs 'family'"),
    ({"layout": {"kind": "chain-obc", "L": 4},
      "jumps": [{"family": "biased", "gamma_up": 1.0, "rate": 1.0}]},
     r"'rate' in model.jumps\[0\]"),
    ({"layout": {"kind": "chain-obc", "L": 4}, "disorder": [7]},
     "model.disorder must be an object"),
    ({"layout": {"kind": "chain-obc", "L": 4}, "disorder": {"strength": 1.0}},
     "'strength' in model.disorder"),
])
def test_from_dict_refuses_malformed_sections(d, named):
    with pytest.raises(ModelError, match=named):
        ModelSpec.from_dict(d)


def test_from_dict_reads_null_and_empty_disorder_as_none():
    for dis in (None, {}):
        spec = ModelSpec.from_dict({"layout": {"kind": "chain-obc", "L": 3},
                                    "disorder": dis})
        assert spec.disorder is None
