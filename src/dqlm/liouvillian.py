"""Vectorization conventions and Liouvillian superoperator assembly.

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
order is the vec order above). `lindblad_apply` and `steady_residual`
apply the same generator to sparse density operators by operator
products, without a basis; they take one operator or a stream of them
and form the jump-dependent part, K = sum_mu L_mu^+ L_mu, once per call.
"""

import itertools

import numpy as np
import scipy.sparse as sp

from .lattice import SparseOperator
from .models import build_hamiltonian, build_jump_set, bulk_hamiltonian, twist_term
from .symmetry import SectorLeakageError, full_pairs

LEAK_TOL = 1e-12


class AssemblyError(ValueError):
    """Superoperator construction outside supported sizes or layouts."""


class Superoperator:
    """Liouvillian assembled on a pair basis.

    matrix     : scipy CSR on the pair basis
    sector     : the DoubleSectorBasis it is assembled on
    basis, dim : the sector's tag and dimension
    hamiltonian, jumps : the operators the generator closes over
    twists     : (phi_ket, phi_bra) on a chain-pbc layout, else None: the
                 boundary twists of the ket and bra Hamiltonians, which fix
                 the generator's translation symmetry (see `numerics`)
    """

    def __init__(self, matrix, sector, hamiltonian, jumps, twists=None):
        self.basis = sector.tag
        self.dim = sector.dim
        self.matrix = matrix
        self.sector = sector
        self.hamiltonian = hamiltonian
        self.jumps = jumps
        self.twists = twists

    @property
    def nnz(self):
        return self.matrix.nnz

    def __repr__(self):
        return f"Superoperator(dim={self.dim}, nnz={self.nnz}, basis={self.basis!r})"


def _adjoint(matrix):
    return matrix.conjugate().transpose().tocsr()


def _image(ham, loss, ops, rho, basis):
    """L[rho] on raw CSR, given loss = sum_mu L_mu^+ L_mu."""
    out = (ham @ rho - rho @ ham) * -1j - (loss @ rho + rho @ loss)
    for op in ops:
        out = out + ((op @ rho) @ _adjoint(op)) * 2.0
    return SparseOperator(out, basis)


def _images(hamiltonian, jumps, rhos):
    """Yield (rho, L[rho]) for each SparseOperator rho of `rhos`.

    The bases of the jumps are checked and K = sum_mu L_mu^+ L_mu is formed
    once, on raw CSR; each rho then costs 4 + 2m products for m jumps,
    L[rho] = -i(H rho - rho H) - (K rho + rho K) + 2 sum_mu (L_mu rho) L_mu^+.
    Only K is held: an adjoint costs a transposition, far less than a
    product, and holding all m of them would double the jumps' memory.
    """
    for op in jumps:
        hamiltonian.check_basis(op)
    ops = [op.matrix for op in jumps]
    loss = sp.csr_matrix(hamiltonian.matrix.shape, dtype=np.complex128)
    for op in ops:
        loss = loss + _adjoint(op) @ op
    for rho in rhos:
        hamiltonian.check_basis(rho)
        yield rho, _image(hamiltonian.matrix, loss, ops, rho.matrix,
                          hamiltonian.basis)


def lindblad_apply(hamiltonian, jumps, rho):
    """Operator-form L[rho]: one image for a SparseOperator rho, a list of
    images for a sequence of them (the jump-dependent work done once)."""
    single = isinstance(rho, SparseOperator)
    images = [image for _, image in
              _images(hamiltonian, jumps, [rho] if single else rho)]
    return images[0] if single else images


def steady_residual(hamiltonian, jumps, rho, lam=0.0):
    """|| L[rho] - lam rho ||_F / || rho ||_F.

    A float for a SparseOperator rho; a list of floats for a sequence or
    any iterable of them, with `lam` a scalar or one value per rho. Each
    image is reduced to its float as soon as it is made, so no more than
    one image is held at a time.
    """
    single = isinstance(rho, SparseOperator)
    scalar = np.ndim(lam) == 0
    lams = itertools.repeat(lam) if scalar else lam
    out = []
    for (r, image), value in zip(
            _images(hamiltonian, jumps, [rho] if single else rho), lams,
            strict=not scalar):
        diff = image.matrix - r.matrix * value if value else image.matrix
        out.append(float(np.linalg.norm(diff.data)) / r.frobenius_norm())
        del image, diff
    return out[0] if single else out


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


def _build(terms, layout, sector, hamiltonian, jumps, leak_tol, twists):
    if sector is None:
        sector = full_pairs(layout)
    matrix = _assemble_on_pairs(terms, sector, leak_tol)
    return Superoperator(matrix, sector, hamiltonian, jumps, twists)


def assemble(spec, sector=None, leak_tol=LEAK_TOL):
    """Assembled Liouvillian of a ModelSpec on `sector`, or on the full
    pair space when no sector is given."""
    h = build_hamiltonian(spec)
    jumps = build_jump_set(spec)
    twists = ((spec.twist, spec.twist) if spec.layout.kind == "chain-pbc"
              else None)
    return _build(_term_list(h, h, jumps), spec.layout, sector, h, jumps,
                  leak_tol, twists)


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
        twists = (phi, phi)
    elif variant == "double-space":
        # (I (x) M) vec(rho) = rho M^T, so the right operand must be
        # M^T = H_bulk + H_twist(-phi) to realize +i I (x) (H_bulk+H_twist(phi))
        h_bra = bulk + twist_term(layout, spec.J, (-phi) % (2 * np.pi))
        twists = (phi, -phi)
    else:
        raise AssemblyError(f"unknown twisted variant {variant!r}")
    return _build(_term_list(h_ket, h_bra, jumps), layout, sector, h_ket, jumps,
                  leak_tol, twists)


# -- vectorization -------------------------------------------------------

def vectorize_into(rho, dsec, leak_tol=LEAK_TOL):
    """vec(rho) of a sparse density operator on a DoubleSectorBasis; the
    inverse of `devectorize_from`."""
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
    return vec


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


def diagonal_expectation(vec, dsec, diag_values):
    """Tr(rho A) for diagonal A given by its full-space diagonal."""
    d = dsec.diag_positions
    return complex(np.sum(vec[d] * np.asarray(diag_values)[dsec.kets[d]]))

