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
apply the same generator to sparse density operators without a basis;
they take one operator or a stream of them, and each operand takes one
of two routes:

* diagonal: rho = diag(d) is structurally diagonal and every jump is
  monomial (at most one stored entry per row and per column, as every
  `build_jump_set` family is). Then L[rho] is the coherent part
  -i H_ab (d_b - d_a) on H's own pattern plus the Pauli rate equation
  2 (Gamma - K) d on the diagonal, Gamma_rc = sum_mu |L_mu(r, c)|^2 and
  K_cc = sum_mu ||L_mu e_c||^2, with no sparse product;
* product: any other operand, by operator products with
  K = sum_mu L_mu^+ L_mu.

On the diagonal route `steady_residual` builds no image: the coherent
entries lie off the diagonal and the rates on it, so

    ||L[rho] - lam rho||_F^2 = sum_{stored H_ab} |H_ab|^2 |d_b - d_a|^2
                               + ||2 (Gamma d - K d) - lam d||^2,

from the same differences and rates that `lindblad_apply` turns into an
image. Each route's jump-dependent part (the weights |L_mu|^2 and K's
diagonal, or the sparse K) is formed once per call, when the first
operand that takes the route arrives.
"""

import functools
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


def _image(ham, loss, ops, rho):
    """L[rho] on raw CSR, given loss = sum_mu L_mu^+ L_mu."""
    out = (ham @ rho - rho @ ham) * -1j - (loss @ rho + rho @ loss)
    for op in ops:
        out = out + ((op @ rho) @ _adjoint(op)) * 2.0
    return out


def _is_monomial(matrix):
    """At most one stored entry in every row and every column."""
    per_col = np.bincount(matrix.indices, minlength=matrix.shape[1])
    return (np.diff(matrix.indptr).max(initial=0) <= 1
            and per_col.max(initial=0) <= 1)


class _DiagonalRoute:
    """L[diag d] for monomial jumps, in O(nnz) per operand, no product.

    The coherent part -i[H, rho] has the values -i H_ab (d_b - d_a) on H's
    own pattern, nonzero only off the diagonal. A monomial L_mu maps each
    basis state c to one state r (or to 0), so L_mu rho L_mu^+ and
    L_mu^+ L_mu rho are both diagonal and the dissipator is the Pauli rate
    equation 2 (Gamma d - K d), Gamma_rc = sum_mu |L_mu(r, c)|^2 and
    K_cc = sum_r Gamma_rc. Gamma is held as one weight matrix per jump on
    that jump's own pattern, so only the weights are new memory.

    `image` builds L[rho] as CSR; `residual` takes the Frobenius norm of
    L[rho] - lam rho from the same two parts without building it.
    """

    def __init__(self, ham, ops):
        n = ham.shape[0]
        self.ham = ham
        self.ham_rows = np.repeat(np.arange(n, dtype=ham.indices.dtype),
                                  np.diff(ham.indptr))
        self.gains = [sp.csr_matrix((np.abs(op.data) ** 2, op.indices,
                                     op.indptr), shape=op.shape)
                      for op in ops]
        self.loss = np.zeros(n)
        for gain in self.gains:
            self.loss += np.bincount(gain.indices, gain.data, minlength=n)

    @functools.cached_property
    def ham_weights(self):
        """|H_ab|^2 on H's pattern. Formed on the first residual, after its
        differences, so it is not held while they are gathered."""
        return np.abs(self.ham.data) ** 2

    def _parts(self, d):
        """(d, d_b - d_a on H's pattern in its storage order, Gamma d - K d),
        with d made real when its imaginary part is 0: the gathers at half
        the size."""
        if not d.imag.any():
            d = d.real
        diff = d[self.ham.indices]
        diff -= d[self.ham_rows]
        rates = -self.loss * d
        for gain in self.gains:
            rates += gain @ d
        return d, diff, rates

    def image(self, d):
        ham = self.ham
        _, diff, rates = self._parts(d)
        # the coherent entries with d_b != d_a, as CSR in H's storage order
        keep = np.flatnonzero(diff)
        coherent = sp.csr_matrix(
            (ham.data[keep] * diff[keep] * -1j, ham.indices[keep],
             np.searchsorted(keep, ham.indptr)), shape=ham.shape)
        del diff
        return coherent + sp.diags(2.0 * rates, format="csr")

    def residual(self, d, lam):
        """||L[diag d] - lam diag d||_F, as the root of
        sum_{stored H_ab} |H_ab|^2 |d_b - d_a|^2 + ||2 (Gamma d - K d) - lam d||^2:
        the coherent entries lie off the diagonal, the rest on it."""
        d, diff, rates = self._parts(d)
        if np.iscomplexobj(diff):
            diff = diff.real ** 2 + diff.imag ** 2
        else:
            diff *= diff
        coherent = float(np.dot(self.ham_weights, diff))
        del diff
        rates *= 2.0
        if lam:
            rates = rates - d * lam
        return float(np.sqrt(coherent + np.vdot(rates, rates).real))


class _Generator:
    """The generator of one call, applied operand by operand.

    The bases of the jumps are checked once, then each rho takes a route:

    * diagonal, when rho is structurally diagonal (every stored entry on
      the diagonal) and every jump is monomial: `_DiagonalRoute`, in
      O(nnz(H) + sum_mu nnz(L_mu)) with no sparse product;
    * product, for any other rho: 4 + 2m products for m jumps,
      L[rho] = -i(H rho - rho H) - (K rho + rho K) + 2 sum_mu (L_mu rho) L_mu^+.
      Only K is held: an adjoint costs a transposition, far less than a
      product, and holding all m of them would double the jumps' memory.

    Each route's jump-dependent part is formed on raw CSR once per call,
    when the first operand that takes the route arrives.
    """

    def __init__(self, hamiltonian, jumps):
        for op in jumps:
            hamiltonian.check_basis(op)
        self.hamiltonian = hamiltonian
        self.ops = [op.matrix for op in jumps]
        self.monomial = all(_is_monomial(op) for op in self.ops)
        self.diagonal = self._loss = None

    def diagonal_of(self, rho):
        """rho's diagonal when rho takes the diagonal route, else None."""
        self.hamiltonian.check_basis(rho)
        d = rho.matrix.diagonal()
        if not (self.monomial and np.count_nonzero(d) == rho.nnz):
            return None
        if self.diagonal is None:
            self.diagonal = _DiagonalRoute(self.hamiltonian.matrix, self.ops)
        return d

    def product(self, rho):
        """L[rho] by the product route, as a SparseOperator."""
        ham = self.hamiltonian.matrix
        if self._loss is None:
            self._loss = sp.csr_matrix(ham.shape, dtype=np.complex128)
            for op in self.ops:
                self._loss = self._loss + _adjoint(op) @ op
        return SparseOperator(_image(ham, self._loss, self.ops, rho.matrix),
                              self.hamiltonian.basis)

    def image(self, rho):
        d = self.diagonal_of(rho)
        if d is None:
            return self.product(rho)
        return SparseOperator(self.diagonal.image(d), self.hamiltonian.basis)


def lindblad_apply(hamiltonian, jumps, rho):
    """Operator-form L[rho]: one image for a SparseOperator rho, a list of
    images for a sequence of them (the jump-dependent work done once)."""
    generator = _Generator(hamiltonian, jumps)
    if isinstance(rho, SparseOperator):
        return generator.image(rho)
    return [generator.image(r) for r in rho]


def steady_residual(hamiltonian, jumps, rho, lam=0.0):
    """|| L[rho] - lam rho ||_F / || rho ||_F.

    A float for a SparseOperator rho; a list of floats for a sequence or
    any iterable of them, with `lam` a scalar or one value per rho. A
    diagonal-route rho never has its image built: the norm comes from
    the coherent differences and the rates (`_DiagonalRoute.residual`).
    A product-route image is reduced to its float as soon as it is made,
    so no more than one image is held at a time. A zero rho has no
    relative residual and raises ValueError.
    """
    single = isinstance(rho, SparseOperator)
    scalar = np.ndim(lam) == 0
    lams = itertools.repeat(lam) if scalar else lam
    generator = _Generator(hamiltonian, jumps)
    out = []
    for i, (r, value) in enumerate(zip([rho] if single else rho, lams,
                                       strict=not scalar)):
        d = generator.diagonal_of(r)
        norm = r.frobenius_norm()
        if not norm:
            raise ValueError(f"operand {i} is zero: its relative residual "
                             "is undefined")
        if d is not None:
            out.append(generator.diagonal.residual(d, value) / norm)
            continue
        image = generator.product(r).matrix
        diff = image - r.matrix * value if value else image
        out.append(float(np.linalg.norm(diff.data)) / norm)
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
        # int32, the index type scipy casts to anyway, halves what the
        # lists of all the terms hold
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

