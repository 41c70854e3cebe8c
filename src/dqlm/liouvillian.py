"""Vectorization convention and Liouvillian superoperator assembly.

Convention (pinned): vec(rho) flattens row-major, so the pair (i, j) with
ket index i and bra index j sits at position i*dim + j, and

    A rho B   <->   kron(A, B^T) vec(rho).

The Lindblad generator is used exactly as printed,

    L[rho] = -i[H, rho] + sum_mu (2 L_mu rho L_mu^+ - {L_mu^+ L_mu, rho}),

i.e. with the factor 2 on the gain term and no 1/2 on the anticommutator;
all analytic rates downstream (relaxation at 2(gamma_u+gamma_d), the
eigenvalue ladder) assume this normalization.

Every superoperator is a sparse matrix assembled on a `DoubleSectorBasis`
of (ket, bra) pairs, with leakage detection: a weak sector, a
charge-difference block, or the full pair space (`full_pairs`, whose key
order is the vec order above). `lindblad_apply` applies the same generator
to a sparse density operator by operator products, without a basis.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .lattice import SparseOperator
from .models import build_hamiltonian, build_jump_set, bulk_hamiltonian, twist_term
from .symmetry import SectorLeakageError, full_pairs

CONVENTION = "vec-rowmajor/AxBT"
LEAK_TOL = 1e-12


class AssemblyError(ValueError):
    """Superoperator construction outside supported sizes or layouts."""


@dataclass
class VectorizedState:
    """A density operator flattened onto a pair basis, with diagnostics."""

    vector: np.ndarray
    basis: str
    trace: complex
    herm_defect: float


class Superoperator:
    """Liouvillian assembled on a pair basis.

    matrix     : scipy CSR on the pair basis
    sector     : the DoubleSectorBasis it is assembled on
    basis, dim : the sector's tag and dimension
    hamiltonian, jumps : the operators the generator closes over
    """

    def __init__(self, matrix, sector, hamiltonian, jumps):
        self.basis = sector.tag
        self.dim = sector.dim
        self.matrix = matrix
        self.sector = sector
        self.hamiltonian = hamiltonian
        self.jumps = jumps
        self.convention = CONVENTION

    @property
    def nnz(self):
        return self.matrix.nnz

    def apply(self, vec):
        return self.matrix @ vec

    def __repr__(self):
        return f"Superoperator(dim={self.dim}, nnz={self.nnz}, basis={self.basis!r})"


def lindblad_apply(hamiltonian, jumps, rho):
    """Operator-form L[rho] for SparseOperator rho."""
    out = (hamiltonian @ rho - rho @ hamiltonian).scale(-1j)
    for op in jumps:
        dag = op.adjoint()
        loss = dag @ op
        out = out + (op @ rho @ dag).scale(2.0) - loss @ rho - rho @ loss
    return out


def steady_residual(hamiltonian, jumps, rho):
    """|| L[rho] ||_F / || rho ||_F."""
    return lindblad_apply(hamiltonian, jumps, rho).frobenius_norm() / rho.frobenius_norm()


def _term_list(ham_ket, ham_bra, jumps):
    """(A, B) pairs meaning A rho B, summed. ham_bra is the operator that
    multiplies rho from the right in the coherent part (+i rho ham_bra);
    it differs from ham_ket only for the double-space twisted variant."""
    n = ham_ket.dim
    eye = SparseOperator(sp.identity(n, dtype=np.complex128, format="csr"),
                         ham_ket.basis)
    terms = [(ham_ket.scale(-1j), eye), (eye, ham_bra.scale(1j))]
    for op in jumps:
        dag = op.adjoint()
        loss = (dag @ op).scale(-1.0)
        terms.append((op.scale(2.0), dag))
        terms.append((loss, eye))
        terms.append((eye, loss))
    return terms


def _assemble_on_pairs(terms, dsec, leak_tol=LEAK_TOL):
    """Restrict sum_k A_k rho B_k to a DoubleSectorBasis.

    Every term individually maps the sector into itself for a legal
    sector, so per-term leakage is measured and summed.
    """
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
        a2 = acsc.indices[a_entry]
        b2 = bcsr.indices[b_entry]
        v = acsc.data[a_entry] * bcsr.data[b_entry]
        pos = dsec.lookup(a2, b2)
        bad = pos < 0
        if bad.any():
            leak_sq += float(np.sum(np.abs(v[bad]) ** 2))
            keep = ~bad
            t_idx, pos, v = t_idx[keep], pos[keep], v[keep]
        rows.append(pos)
        cols.append(t_idx)
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


def _build(terms, layout, sector, hamiltonian, jumps, leak_tol=LEAK_TOL):
    if sector is None:
        sector = full_pairs(layout)
    matrix = _assemble_on_pairs(terms, sector, leak_tol)
    return Superoperator(matrix, sector, hamiltonian, jumps)


def assemble(spec, sector=None, leak_tol=LEAK_TOL):
    """Assembled Liouvillian of a ModelSpec on `sector`, or on the full
    pair space when no sector is given."""
    h = build_hamiltonian(spec)
    jumps = build_jump_set(spec)
    return _build(_term_list(h, h, jumps), spec.layout, sector, h, jumps,
                  leak_tol)


def assemble_twisted(spec, phi, variant, sector=None, leak_tol=LEAK_TOL):
    """The two twisted-boundary constructions on a periodic chain.

    variant="lindblad"     : proper Lindbladian of H_pbc(phi); its spectrum
                             is phi-independent.
    variant="double-space" : the twist enters the ket and bra copies with
                             the same orientation (+i I (x) H_twist(phi) in
                             the matrix, NOT transposed), so it is not of
                             Lindblad form for phi != 0; spectrum winds and
                             is pi-periodic. Equals "lindblad" at phi = 0.
    """
    layout = spec.layout
    if layout.kind != "chain-pbc":
        raise AssemblyError("twisted assembly needs a chain-pbc layout")
    if spec.twist:
        raise AssemblyError("pass the twist angle explicitly, not via the spec")
    jumps = build_jump_set(spec)
    bulk = bulk_hamiltonian(layout, spec.J)
    h_ket = bulk + twist_term(layout, spec.J, phi % (2 * np.pi))
    if variant == "lindblad":
        h_bra = h_ket
    elif variant == "double-space":
        # (I (x) M) vec(rho) = rho M^T, so the right operand must be
        # M^T = H_bulk + H_twist(-phi) to realize +i I (x) (H_bulk+H_twist(phi))
        h_bra = bulk + twist_term(layout, spec.J, (-phi) % (2 * np.pi))
    else:
        raise AssemblyError(f"unknown twisted variant {variant!r}")
    return _build(_term_list(h_ket, h_bra, jumps), layout, sector, h_ket, jumps,
                  leak_tol)


# -- vectorization -------------------------------------------------------

def vectorize_into(rho, dsec, leak_tol=LEAK_TOL):
    """Embed a sparse density operator into a DoubleSectorBasis."""
    coo = rho.matrix.tocoo()
    pos = dsec.lookup(coo.row, coo.col)
    bad = pos < 0
    if bad.any():
        outside = float(np.linalg.norm(coo.data[bad]))
        if outside > leak_tol:
            raise SectorLeakageError(
                f"state has weight {outside:.3e} outside {dsec.tag}")
    vec = np.zeros(dsec.dim, dtype=np.complex128)
    np.add.at(vec, pos[~bad], coo.data[~bad])
    return VectorizedState(vec, dsec.tag, sector_trace(vec, dsec),
                           herm_defect(vec, dsec))


def devectorize_from(vec, dsec, basis=None):
    """Back to a full-space sparse operator."""
    n = dsec.layout.nstates
    m = sp.coo_matrix((np.asarray(vec, dtype=np.complex128),
                       (dsec.kets, dsec.bras)), shape=(n, n)).tocsr()
    return SparseOperator(m, basis or dsec.layout.basis_tag)


def trace_vector(dsec):
    """vec(I) restricted to the basis: the left null functional of L."""
    v = np.zeros(dsec.dim, dtype=np.complex128)
    v[dsec.diag_positions] = 1.0
    return v


def sector_trace(vec, dsec):
    return complex(np.sum(vec[dsec.diag_positions]))


def conjugate_pair_vector(vec, dsec):
    """vec(rho^+): conjugate and swap ket with bra."""
    pos = dsec.lookup(dsec.bras, dsec.kets)
    if np.any(pos < 0):
        raise SectorLeakageError("sector is not closed under conjugation")
    out = np.empty_like(vec)
    out[pos] = np.conj(vec)
    return out


def herm_defect(vec, dsec):
    try:
        return float(np.linalg.norm(vec - conjugate_pair_vector(vec, dsec)))
    except SectorLeakageError:
        return float("nan")


def diagonal_expectation(vec, dsec, diag_values):
    """Tr(rho A) for diagonal A given by its full-space diagonal."""
    d = dsec.diag_positions
    return complex(np.sum(vec[d] * np.asarray(diag_values)[dsec.kets[d]]))

