"""Dense spectra, kernel extraction, and time evolution.

Eigenvalue lists are always returned in one canonical order (real part
descending, ties broken by imaginary part ascending) so that CSV output
and multiset comparisons are reproducible.

A periodic-chain generator (`Superoperator.twists` set) is first resolved
into total-momentum blocks (`momentum_blocks`). Translation by one unit
cell, dressed as X_phi = exp(-i phi N_1) T so that it carries the
wrap-bond twist phi along, commutes with the Hamiltonian H_pbc(phi) and
with every uniform jump family; on the pair basis it acts as the monomial
superoperator S(rho) = X_ket rho X_bra^+ (ket and bra translated
together). Each block is B_k^+ M B_k on the orthonormal Bloch basis B_k
of S's eigenvalues with momentum k, about L blocks of dimension d/L;
blocks whose Frobenius weights do not add up to the generator's raise
`SectorLeakageError`. A generator without this symmetry is not split by
momentum: one that does not commute with S (a model that is not
uniform, or the double-space twist with jumps that hop across site 1 at
phi outside {0, pi}), or one on a pair basis that translation does not
map onto itself, goes to the component split whole, as on any other
layout.

Before any dense eigendecomposition the generator, or on a periodic
chain its block-diagonal Bloch frame, is split into the weakly connected
components of its nonzero pattern (`coupled_components`): the finest
block-diagonal split the matrix itself proves, which refines momentum and
every weak-symmetry label at once (particle number inside a weak sector,
the charge difference and more in the full pair space). One label array,
the component of each coordinate, guards the split: no nonzero may join
two components (else `SectorLeakageError`).

Every block then goes through `mirror_eig`, which uses the antiunitary
symmetry C(rho) = rho^+ of a Lindbladian (Minganti, Biella, Bartolo &
Ciuti, PRA 98, 042118 (2018)); on the pair basis C is complex
conjugation followed by the swap (a, b) -> (b, a). A block that C maps
onto itself (every weak-sector component, the delta = 0 components of
the full pair space, the momentum blocks k = -k when phi_ket = phi_bra)
has a real form U^+ M U, diagonalized by real LAPACK one coupled
component of the real form at a time: without its entries up to
`MIRROR_TOL` relative (exact zeros, and the roundoff of Bloch blocks) the
real form often splits where the complex block does not (518 = 339 + 179
on the L=5 N=2 open chain; on-site disorder breaks this and nothing
splits). Of two blocks that C maps onto each other (charge differences
delta and -delta, momenta k and -k) one is diagonalized and the other
gets the conjugate spectrum; in the same way the CLI `winding` scan
takes the double-space generator at -phi as the conjugate of the one at
phi (`conjugate_partner`). C is checked once per generator: one defect
matrix D = C(M) - M gives every block its gap relative to the block
(`_mirror_gaps`; on a self-mirror block ||D||/2 = ||Im U^+ M U||), and a
reuse goes ahead within `MIRROR_TOL`; a generator without the symmetry
(the double-space twist away from 0 and pi) takes the complex eig, and
`full_spectrum` refuses it.

On the pair basis of an open chain (not a Bloch frame) two more exact
symmetries of the generator are used, after the classification of
Lindbladian symmetries by Sa, Ribeiro & Prosen (PRX 13, 031019 (2023)),
each a monomial map on the pairs checked once per generator by its own
defect matrix, with per-block gaps relative to the block (`_map_gaps`):

* the particle-hole reflection Pi (`reflect_states`: site n to L+1-n
  with its occupation flipped, link m to L-m), unitary, which maps the
  sector N onto L - N. Where the pair basis is closed under it, a block
  that Pi maps onto a block whose spectrum is known, within `MIRROR_TOL`
  of that block's image, takes a copy of it (`copied_blocks`): the weak
  sector without N diagonalizes the sectors N <= L/2 only.
* W(rho) = Sigma rho^T Sigma, Sigma = (-1)^q with q = sum_n n N_n
  (`sublattice_sign`). A = C W, rho -> Sigma conj(rho) Sigma, maps every
  pair onto itself, so in the diagonal gauge i^(q(ket) - q(bra)) (the
  real form of A, a diagonal unitary through `_real_form`) the whole
  generator is real. The first block of each C mirror pair, which C
  alone leaves complex, is diagonalized in this real form by real
  LAPACK where the gaps of C and W on the pair add up to at most
  `MIRROR_TOL` (`gauge_real_blocks`); W is built only once such a block
  is reached.

Both hold for every jump family of the open chain and break under
disorder (on-site and link fields, next-nearest hops) on the blocks that
it reaches unlike their images; periodic, hierarchical and square
layouts and the Bloch frames have neither. The block counts of a
`Spectrum` say which path each block took (`BLOCK_COUNTS`). Dense
eigendecomposition is capped (default
6000) per block because the cost is cubic (`DenseCapError`, raised
before the first block is diagonalized); sector projection is the
intended way to keep the blocks below the cap. Only eigenvalues are
computed densely.

Steady states (`steady_states`) split the same frame into the same
blocks, under the same dense cap, and compute no dense spectrum. Each
block, or pair of mirror blocks, is taken in its real form (so each
kernel vector is a Hermitian operator) and factored once by a sparse LU
of its matrix - tol I, tol the kernel bin (1e-9). That one LU serves
twice: shift-invert Arnoldi (ARPACK) on it finds the eigenvalues
nearest 0, doubling their number until one lies outside the bin, and
those below the bin count the kernel, as the dense spectrum's would;
two steps of subspace iteration with it then span the kernel. Only
blocks too small for ARPACK take a dense eig. Each group's kernel
residual is checked against `RESIDUAL_TOL` relative to its block.
Degeneracy counting bins eigenvalues within 1e-7 of the reference
value.

Time integration takes adaptive Krylov exponential steps (`evolve`,
with `krylov.KrylovExpm`): Arnoldi approximations of exp(h M) v whose
error estimates add up, over the time grid, to at most atol + rtol |v|
in the 2-norm, 1e-9 each by default; it records observables and the
trace defect. The same symmetry C makes a Hermitian state's coordinates
U^+ v real, so a Lindbladian quench is integrated as the real system
U^+ M U, and only on the coupled components of that system that the
initial state touches (the same split as the spectra's real forms).

Only numpy and scipy.sparse are imported with the module. The scipy
submodules are imported inside the functions that use them, so a task
loads only what it runs: `scipy.sparse.csgraph` (the component split
and the matching of `multiset_distance`), `scipy.sparse.linalg` (the
kernel LU and ARPACK), `scipy.spatial` (the kd-trees of the spectral
distances and the hull of `hull_violation`) and `scipy.integrate`
(`evolve`, through the `krylov` module). The closed-form tasks
(`profile`, `verify-exact`) load none of them. `solve_ivp` stays a
module-level function that forwards to scipy's, and `evolve` looks it
up when it is called, so rebinding `numerics.solve_ivp` reaches every
integration.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .lattice import state_bit
from .liouvillian import LEAK_TOL, assemble, devectorize_from, trace_vector
from .symmetry import (
    SectorLeakageError,
    gauge_charge_table,
    reflect_states,
    site_occupation_table,
    sublattice_sign,
    translate_states,
    weak_sector,
)

DENSE_CAP = 6000
KERNEL_TOL = 1e-9
DEGENERACY_BIN = 1e-7
RESIDUAL_TOL = 1e-8
MIRROR_TOL = 1e-12


class SolverError(RuntimeError):
    """Eigen- or ODE-solver breakdown, or a request over the dense cap."""


class DenseCapError(SolverError):
    """A block to diagonalize is larger than the dense cap."""


@dataclass
class Spectrum:
    """Canonically ordered eigenvalues and the blocks they came from."""

    eigenvalues: np.ndarray
    basis: str = "unknown"
    # provenance of each eigenvalue: the block index in `spectrum_of`,
    # the charge difference delta in `full_spectrum`
    block_labels: tuple = None
    # blocks diagonalized in the real form of rho -> rho^+, blocks whose
    # spectrum is the conjugate of a mirror block's, blocks whose spectrum
    # is a copy of their reflection's, and blocks diagonalized in the
    # diagonal real form of rho -> Sigma conj(rho) Sigma (see `mirror_eig`)
    real_blocks: int = 0
    conjugated_blocks: int = 0
    copied_blocks: int = 0
    gauge_real_blocks: int = 0
    # the largest matrix handed to LAPACK for this spectrum (0: none)
    eig_max_dim: int = 0

    @property
    def dim(self):
        return self.eigenvalues.size

    def kernel_indices(self, tol=KERNEL_TOL):
        return np.nonzero(np.abs(self.eigenvalues) < tol)[0]

    def count_near(self, value, radius=DEGENERACY_BIN):
        return int(np.count_nonzero(
            np.abs(self.eigenvalues - value) < radius))

    def max_real(self):
        return float(self.eigenvalues.real.max()) if self.dim else -np.inf


BLOCK_COUNTS = ("real_blocks", "conjugated_blocks", "copied_blocks",
                "gauge_real_blocks")


def canonical_order(values):
    """Sort key: real part descending, then imaginary part ascending."""
    return np.lexsort((values.imag, -values.real))


def eig_dense(matrix, basis="unknown", cap=DENSE_CAP):
    """Eigenvalues of a general complex matrix, canonically ordered."""
    n = np.shape(matrix)[0]
    if n > cap:
        raise DenseCapError(
            f"dimension {n} exceeds the dense cap {cap}; project onto a "
            "smaller sector or reduce L")
    dense = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix)
    vals = np.linalg.eigvals(dense)
    return Spectrum(vals[canonical_order(vals)], basis, eig_max_dim=n)


def coupled_components(matrix, tol=None):
    """Weakly connected components of a square CSR matrix's nonzero
    pattern: index arrays, each ascending, ordered by their first index.
    With `tol`, entries up to `tol` relative to the matrix (Frobenius
    norm) are left out, so roundoff where exact zeros belong hides no
    split; together they may weigh at most `tol` (else
    `SectorLeakageError`), as blocks sliced on the components cut them."""
    from scipy.sparse.csgraph import connected_components

    cut = -1.0 if tol is None else tol * np.linalg.norm(matrix.data)
    dropped = np.linalg.norm(matrix.data[np.abs(matrix.data) <= cut])
    if tol is not None and dropped > cut:
        raise SectorLeakageError(
            f"entries below {tol:.0e} relative hold {dropped:.3e} of a "
            f"block of Frobenius norm {cut / tol:.3e}")
    # a real 0/1 pattern: the graph routine would cast complex data to real
    pattern = sp.csr_matrix(
        ((np.abs(matrix.data) > cut).astype(np.int8), matrix.indices.copy(),
         matrix.indptr.copy()), shape=matrix.shape)
    pattern.eliminate_zeros()
    count, labels = connected_components(pattern, directed=True,
                                         connection="weak")
    _, first = np.unique(labels, return_index=True)
    rank = np.empty(count, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(count)
    labels = rank[labels]
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels, minlength=count))[:-1])


def _translation(dsec, twists):
    """The translation superoperator S(rho) = X_ket rho X_bra^+ on a
    periodic-chain pair basis, X = exp(-i phi N_1) T for the ket's and
    the bra's twist phi: pair p goes to `image[p]` with the phase
    exp(i `angle[p]`). None when the basis is not closed under
    translation."""
    layout = dsec.layout
    phi_ket, phi_bra = twists
    kets = translate_states(layout, dsec.kets)
    bras = translate_states(layout, dsec.bras)
    image = dsec.lookup(kets, bras)
    if np.any(image < 0):
        return None
    site = layout.site_slot(1)
    angle = -(phi_ket * state_bit(kets, site) - phi_bra * state_bit(bras, site))
    return image, angle


def _bloch_basis(dsec, twists, image, angle):
    """Orthonormal eigenbasis of the translation S (see `_translation`),
    sparse CSC with its columns grouped by momentum k = 0..L-1, and the
    column bounds of the groups.

    S^L is the phase exp(-i (phi_ket N_ket - phi_bra N_bra)) on a pair,
    so S's eigenvalues on it are lam0 exp(2 pi i k / L) with
    lam0 = exp(-i (phi_ket N_ket - phi_bra N_bra) / L). An orbit
    p_0 -> p_1 -> ... of length l (a divisor of L) carries the momenta k
    with k l = 0 mod L, each with the Bloch vector
    sum_m exp(i c_m - 2 pi i k m / L) e_{p_m} / sqrt(l), where c_m sums
    the angles of S over the first m steps, each less arg lam0.
    """
    layout = dsec.layout
    L = layout.L
    dim = dsec.dim
    occupation = site_occupation_table(layout)
    phi_ket, phi_bra = twists
    step = angle + (phi_ket * occupation[dsec.kets]
                    - phi_bra * occupation[dsec.bras]) / L
    walk = np.empty((L + 1, dim), dtype=np.int64)
    walk[0] = np.arange(dim)
    for t in range(L):
        walk[t + 1] = image[walk[t]]
    # T^L is the identity, so every orbit closes within L steps
    length = np.argmax(walk[1:] == walk[0], axis=0) + 1
    reps = np.nonzero(walk[:L].min(axis=0) == walk[0])[0]
    members = walk[:L, reps]
    phases = np.cumsum(np.vstack([np.zeros(reps.size), step[members[:-1]]]),
                       axis=0)
    span = length[reps]
    t = np.arange(L)[:, None]
    rows, cols, vals, bounds = [], [], [], [0]
    for k in range(L):
        keep = (k * span) % L == 0
        inside = t < span[keep]
        column = np.broadcast_to(bounds[-1] + np.arange(np.count_nonzero(keep)),
                                 inside.shape)
        rows.append(members[:, keep][inside])
        cols.append(column[inside])
        vals.append((np.exp(1j * (phases[:, keep] - 2 * np.pi * k * t / L))
                     / np.sqrt(span[keep]))[inside])
        bounds.append(bounds[-1] + np.count_nonzero(keep))
    basis = sp.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim))
    return basis, bounds


def momentum_blocks(superop):
    """A periodic-chain generator resolved into total-momentum blocks.

    Returns the sparse orthonormal Bloch basis B of the translation, its
    columns grouped by momentum k, and the CSR matrix B^+ M B with its
    entries between two momenta dropped: the blocks B_k^+ M B_k on its
    diagonal. Returns None when M has no such symmetry: its pair
    basis is not closed under translation, or M does not commute with the
    translation within `LEAK_TOL` relative. Raises `SectorLeakageError`
    when the blocks' squared Frobenius norms do not add up to M's (weight
    off the block diagonal).
    """
    matrix = superop.matrix
    dim = superop.dim
    translation = _translation(superop.sector, superop.twists)
    if translation is None:
        return None
    image, angle = translation
    shift = sp.csr_matrix((np.exp(1j * angle), (image, np.arange(dim))),
                          shape=(dim, dim))
    norm_sq = float(np.sum(np.abs(matrix.data) ** 2))
    commutator = (shift @ matrix - matrix @ shift).data
    if np.linalg.norm(commutator) > LEAK_TOL * np.sqrt(norm_sq):
        return None
    basis, bounds = _bloch_basis(superop.sector, superop.twists, image, angle)
    rotated = (basis.conj().T @ matrix @ basis).tocsr()
    momentum = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    rotated.data[momentum[rotated.tocoo().row] != momentum[rotated.indices]] = 0
    rotated.eliminate_zeros()
    kept_sq = float(np.sum(np.abs(rotated.data) ** 2))
    if abs(kept_sq - norm_sq) > LEAK_TOL * norm_sq:
        raise SectorLeakageError(
            f"momentum blocks hold {kept_sq:.17g} of the generator's squared "
            f"Frobenius norm {norm_sq:.17g}")
    return basis, rotated


def _mirror_map(dsec, basis=None):
    """C(rho) = rho^+ on the coordinates of a generator: the pair basis
    `dsec`, or the columns of a unitary `basis` over it. C takes the
    coordinate vector w to Q conj(w), with Q monomial:
    Q[image[g], g] = exp(i angle[g]). Returns (image, angle), or None when
    C does not map the coordinates onto themselves: the pair basis is not
    closed under (a, b) -> (b, a), or some column of `basis` is not mapped
    onto a single column, or `image` is not an involution (C^2 = 1)."""
    swap = dsec.lookup(dsec.bras, dsec.kets)
    if np.any(swap < 0):
        return None
    if basis is None:
        return swap, np.zeros(dsec.dim)
    # Q = B^+ P conj(B), P the swap of ket and bra
    q = (basis.conj().T @ basis.tocsr()[swap].conj()).tocoo()
    # a unit column holds at most one entry of modulus above 1/sqrt(2)
    keep = np.abs(q.data) ** 2 > 0.5
    rows, cols = q.row[keep], q.col[keep]
    if (cols.size != dsec.dim or np.unique(cols).size != cols.size
            or np.unique(rows).size != rows.size):
        return None
    image = np.empty(dsec.dim, dtype=np.int64)
    image[cols] = rows
    if np.any(image[image] != np.arange(dsec.dim)):
        return None
    angle = np.empty(dsec.dim)
    angle[cols] = np.angle(q.data[keep])
    return image, angle


def _monomial(image, phase):
    """The sparse monomial Q with Q[image[g], g] = phase[g]."""
    n = image.size
    return sp.csr_matrix((phase, (image, np.arange(n))), shape=(n, n))


def _row_gaps(defect, matrix, labels):
    """The norm of a defect's rows on each label, relative to the rows of
    `matrix` there."""
    count = int(labels.max(initial=0)) + 1
    gap, norm = (np.bincount(labels[m.row], np.abs(m.data) ** 2,
                             minlength=count)
                 for m in (defect.tocoo(), matrix.tocoo()))
    return np.sqrt(gap / np.maximum(norm, np.finfo(float).tiny))


def _mirror_gaps(matrix, mirror, labels=None, partner=None):
    """The defect D = Q conj(M) Q^+ - M' of a CSR generator M (C as
    `_mirror_map` gives it, M' the `partner`, or M), formed once: the norm
    of D's rows on each label (one per coordinate; None: one for all),
    relative to M's rows there. When C maps block i onto block j, D's rows
    on j are C(M_i) - M'_j: block j's distance from block i's image, or
    for i = j, as U^+ D U = -2i Im(U^+ M U) (`_real_form`), twice the
    imaginary part of the block's real form."""
    n = matrix.shape[0]
    labels = np.zeros(n, dtype=np.int64) if labels is None else labels
    q = _monomial(mirror[0], np.exp(1j * mirror[1]))
    defect = q @ matrix.conj() @ q.conj().T - (
        matrix if partner is None else partner)
    return _row_gaps(defect, matrix, labels)


def _map_gaps(matrix, symmetry, labels):
    """The defect D = S M S^+ - M of a CSR generator M under a unitary
    monomial map S on its coordinates, `symmetry` = (image, phase) with
    S[image[g], g] = phase[g], formed once: per label, as `_mirror_gaps`
    gives it. When S maps block i onto block j, D's rows on j are
    S(M_i) - M_j."""
    s = _monomial(*symmetry)
    return _row_gaps(s @ matrix @ s.conj().T - matrix, matrix, labels)


def _reflection_map(dsec):
    """The particle-hole reflection Pi (`reflect_states`) on a pair basis,
    (a, b) -> (Pi a, Pi b): (image, phase), or None when the layout has no
    reflection or the basis is not closed under it."""
    kets = reflect_states(dsec.layout, dsec.kets)
    if kets is None:
        return None
    image = dsec.lookup(kets, reflect_states(dsec.layout, dsec.bras))
    if np.any(image < 0):
        return None
    return image, np.ones(dsec.dim)


def _transpose_map(dsec, mirror):
    """W(rho) = Sigma rho^T Sigma on a pair basis, Sigma the sign of
    `sublattice_sign`: (a, b) -> (b, a) times sigma(a) sigma(b), so that
    C W is the diagonal antiunitary A(rho) = Sigma conj(rho) Sigma. Takes
    the swap from C (`mirror`); None where the layout has no sign."""
    signs = [sublattice_sign(dsec.layout, s) for s in (dsec.kets, dsec.bras)]
    if signs[0] is None:
        return None
    return mirror[0], (signs[0] * signs[1]).astype(np.complex128)


def _conjugate(part):
    """The spectrum of a block's C-image: conjugate eigenvalues, with the
    same block labels."""
    order = canonical_order(part.eigenvalues.conj())
    labels = None
    if part.block_labels is not None:
        labels = tuple(np.asarray(part.block_labels)[order].tolist())
    return Spectrum(part.eigenvalues.conj()[order], part.basis,
                    block_labels=labels)


def _real_form(block, within, phase):
    """The unitary U whose columns C maps onto themselves, and U^+ M U,
    which is real when the block commutes with C (Q[within[g], g] =
    phase[g], `within` an involution). A fixed coordinate g gives the
    column sqrt(phase[g]) e_g, a pair g <-> h the columns
    sqrt(phase[g]) (e_g + e_h) / sqrt(2) and i sqrt(phase[g]) (e_g - e_h)
    / sqrt(2); on the pair basis these are e_(a,a), (e_(a,b) + e_(b,a))
    / sqrt(2) and i (e_(a,b) - e_(b,a)) / sqrt(2)."""
    n = within.size
    g = np.arange(n)
    fixed, first = g[within == g], g[g < within]
    second = within[first]
    half = np.sqrt(phase)
    col = fixed.size + 2 * np.arange(first.size)
    rows = np.concatenate([fixed, first, second, first, second])
    cols = np.concatenate([np.arange(fixed.size), col, col, col + 1, col + 1])
    root = half[first] / np.sqrt(2)
    unitary = sp.csc_matrix(
        (np.concatenate([half[fixed], root, root, 1j * root, -1j * root]),
         (rows, cols)), shape=(n, n))
    return unitary, (unitary.conj().T @ block @ unitary).tocsr()


def _real_part(rotated):
    """Re(U^+ M U) of a real form (`_real_form`) as CSR with its exact
    zeros dropped."""
    real = rotated.real.copy()
    real.eliminate_zeros()
    return real


def _merge(parts):
    """Spectra of diagonal blocks merged in canonical order, and the order
    applied. The largest eig is the largest part's; the block counts
    (`BLOCK_COUNTS`) add up."""
    merged = np.concatenate([part.eigenvalues for part in parts])
    order = canonical_order(merged)
    spectrum = Spectrum(
        merged[order], parts[0].basis,
        eig_max_dim=max(part.eig_max_dim for part in parts),
        **{key: sum(getattr(part, key) for part in parts)
           for key in BLOCK_COUNTS})
    return spectrum, order


def _block_images(components, labels, image):
    """The component that a monomial map (coordinate g to `image[g]`) maps
    each component onto, or -1 where it does not map it onto a single
    component of its size."""
    sizes = np.array([c.size for c in components])
    mapped = labels[image]
    first = mapped[[c[0] for c in components]]
    whole = np.bincount(labels, mapped == first[labels], minlength=sizes.size)
    return np.where((whole == sizes) & (sizes[first] == sizes), first, -1)


def _mirror_blocks(matrix, mirror):
    """The coupled components of a CSR generator, guarded by one label
    array: they must cover the coordinates once and no nonzero may join
    two of them (else `SectorLeakageError`: the split cut a coupling).
    With each component i, the component j of its size that C (`mirror`
    as `_mirror_map` gives it, or None) maps it onto and the gap of
    `_mirror_gaps`, halved for j = i, where it is ||Im U^+ M U|| relative
    to the block; else -1 and infinity. C is checked once. Returns the
    components, the label array (the component of each coordinate), the
    partners j and the gaps."""
    components = coupled_components(matrix)
    n, count = matrix.shape[0], len(components)
    labels = np.full(n, -1, dtype=np.int64)
    for i, own in enumerate(components):
        labels[own] = i
    if sum(c.size for c in components) != n or np.any(labels < 0):
        raise SectorLeakageError(
            f"components do not cover the {n} indices exactly once")
    coo = matrix.tocoo()
    joined = np.count_nonzero(labels[coo.row] != labels[coo.col])
    if joined:
        raise SectorLeakageError(
            f"{joined} of the generator's {matrix.nnz} nonzeros join two "
            "components")
    partner, gap = np.full(count, -1), np.full(count, np.inf)
    if mirror is None:
        return components, labels, partner, gap
    gaps = _mirror_gaps(matrix, mirror, labels)
    partner = _block_images(components, labels, mirror[0])
    mapped = np.flatnonzero(partner >= 0)
    own = partner[mapped] == mapped
    gap[mapped] = np.where(own, gaps[mapped] / 2, gaps[partner[mapped]])
    return components, labels, partner, gap


def _reflection_images(matrix, components, labels, sector):
    """The component that the particle-hole reflection Pi
    (`_reflection_map` on the pair basis `sector`, or None) maps each
    component onto, or -1, and whether each component lies within
    `MIRROR_TOL` relative of Pi's image of the component Pi maps onto it
    (`_map_gaps`; Pi is an involution, so that is the same component).
    Pi is checked once."""
    count = len(components)
    reflection = None if sector is None else _reflection_map(sector)
    if reflection is None:
        return np.full(count, -1), np.zeros(count, dtype=bool)
    target = _block_images(components, labels, reflection[0])
    return target, _map_gaps(matrix, reflection, labels) <= MIRROR_TOL


def mirror_eig(matrix, mirror, basis="unknown", cap=DENSE_CAP, strict=False,
               sector=None):
    """Dense spectra of the coupled components of a CSR generator through
    the antiunitary symmetry C(rho) = rho^+ of a Lindbladian, C on its
    coordinates given by `mirror` (`_mirror_map`, or None), and, when the
    coordinates are the pair basis `sector` itself, through the
    particle-hole reflection Pi and the transpose map W of an open chain.

    The components and their mirror blocks come from `_mirror_blocks`; a
    block over the cap raises `DenseCapError` before any eig, and with
    `strict` a block that C does not map onto a block within `MIRROR_TOL`
    relative raises `SolverError` before any eig. A block that C maps
    onto itself, with ||Im U^+ M U|| within `MIRROR_TOL` relative, goes to
    real LAPACK in its real form U^+ M U, one eig per coupled component of
    the real form (`coupled_components` with roundoff up to `MIRROR_TOL`
    cut). Of two blocks that C maps onto each other the first is
    diagonalized, and the second, within `MIRROR_TOL` relative of its
    image, gets the conjugate spectrum without being sliced. The first is
    diagonalized in the real form of A = C W, which maps it onto itself
    (a diagonal unitary, `_real_form`), when the gaps of C and W on the
    pair add up to at most `MIRROR_TOL`; W is checked only once such a
    block is reached. Every other block takes the complex eig. Each block
    whose spectrum is known passes it on to the block that Pi maps it
    onto, as a copy, when that block is within `MIRROR_TOL` relative of
    its image (`_reflection_images`) and still open.

    Returns one Spectrum per component, which counts itself in the one
    of `BLOCK_COUNTS` that says how it was found (none for a complex
    eig), and the components.
    """
    components, labels, partner, gap = _mirror_blocks(matrix, mirror)
    _check_cap(components, cap)
    # a NaN gap counts as no mirror
    unmirrored = np.flatnonzero(~(gap <= MIRROR_TOL)) if strict else ()
    if len(unmirrored):
        i = unmirrored[0]
        raise SolverError(
            f"component {i} has no conjugate mirror component within "
            f"{MIRROR_TOL:.0e} (relative gap {gap[i]:.3e}); not a "
            "Lindbladian")
    reflection, reflects = _reflection_images(matrix, components, labels,
                                              sector)
    # the blocks are sliced from one symmetric permutation
    order = np.concatenate(components)
    permuted = matrix[order][:, order]
    bounds = np.cumsum([0] + [c.size for c in components])
    parts = [None] * len(components)
    gauged = gaps = None
    for i, own in enumerate(components):
        if parts[i] is not None:
            continue
        j = partner[i]
        mirrored = gap[i] <= MIRROR_TOL
        gauge = False
        if mirrored and j != i:
            if gaps is None:
                gauged, gaps = _gauge_form(matrix, order, mirror, labels,
                                           sector)
            gauge = gap[i] + gaps[j] <= MIRROR_TOL
        block = (gauged if gauge else permuted)[bounds[i]:bounds[i + 1],
                                                bounds[i]:bounds[i + 1]]
        if mirrored and j == i:
            form = _real_part(_real_form(
                block, np.searchsorted(own, mirror[0][own]),
                np.exp(1j * mirror[1][own]))[1])
            parts[i] = _merge([eig_dense(form[c][:, c], basis, cap) for c
                               in coupled_components(form, MIRROR_TOL)])[0]
            parts[i].real_blocks = 1
        else:
            parts[i] = eig_dense(block, basis, cap)
            parts[i].gauge_real_blocks = int(gauge)
        known = [i]
        if mirrored and parts[j] is None:
            parts[j] = _conjugate(parts[i])
            parts[j].conjugated_blocks = 1
            known.append(j)
        for b in known:
            k = reflection[b]
            if k >= 0 and reflects[k] and parts[k] is None:
                parts[k] = Spectrum(parts[b].eigenvalues.copy(), basis,
                                    copied_blocks=1)
    return parts, components


def _gauge_form(matrix, order, mirror, labels, sector):
    """The real form of a CSR generator under A = C W (`_transpose_map` on
    the pair basis `sector`), permuted symmetrically by `order`: A is
    diagonal, so its real form is Re(U^+ M U) for the diagonal unitary U
    of `_real_form`, real on every block that A maps onto itself within
    `MIRROR_TOL`. Returns it with W's gap on each block (`_map_gaps`), or
    (None, infinite gaps) when there is no W."""
    transpose = None if sector is None else _transpose_map(sector, mirror)
    if transpose is None:
        return None, np.full(int(labels.max(initial=0)) + 1, np.inf)
    n = matrix.shape[0]
    gauged = _real_part(_real_form(matrix, np.arange(n), transpose[1])[1])
    return gauged[order][:, order], _map_gaps(matrix, transpose, labels)


def _frame(superop):
    """The Bloch basis, the matrix a generator is split in, and C on its
    coordinates (`_mirror_map`): on a periodic chain with the translation
    symmetry, its block-diagonal Bloch frame (`momentum_blocks`);
    otherwise no basis and the generator itself."""
    resolved = (superop.twists is not None and superop.dim
                and momentum_blocks(superop))
    bloch, matrix = resolved or (None, superop.matrix)
    return bloch, matrix, _mirror_map(superop.sector, bloch)


def spectrum_of(superop, cap=DENSE_CAP):
    """Spectrum of an assembled generator, one dense eig per block.

    The generator's frame (`_frame`: on a periodic chain with the
    translation symmetry its Bloch frame, else the generator) is split
    into its coupled components, which go through `mirror_eig`.
    Eigenvalues are merged in canonical order and labelled by the running
    index of their block. A block over the cap raises `DenseCapError`
    before any block is diagonalized."""
    bloch, matrix, mirror = _frame(superop)
    parts, _ = mirror_eig(matrix, mirror, superop.basis, cap,
                          sector=superop.sector if bloch is None else None)
    spectrum, order = _merge(parts)
    labels = np.repeat(np.arange(len(parts)), [part.dim for part in parts])
    spectrum.block_labels = tuple(labels[order].tolist())
    return spectrum


def conjugate_partner(superop, spectrum, partner):
    """The spectrum of the generator `partner` when it is the C-image
    P conj(M) P of `superop` on the same pair basis (P the ket-bra swap),
    within `MIRROR_TOL` relative to M (`_mirror_gaps` with M' the
    partner): the conjugate of `spectrum`, each block counted as
    conjugated. None when it is not."""
    mirror = _mirror_map(superop.sector)
    if (partner.sector is not superop.sector or mirror is None
            or _mirror_gaps(superop.matrix, mirror,
                            partner=partner.matrix)[0] > MIRROR_TOL):
        return None
    image = _conjugate(spectrum)
    image.conjugated_blocks = len(set(spectrum.block_labels))
    return image


def _check_cap(components, cap):
    """`DenseCapError` when a block is larger than the dense cap."""
    largest = max(c.size for c in components)
    if largest > cap:
        raise DenseCapError(
            f"a block of dimension {largest} exceeds the dense cap {cap}; "
            "project onto a smaller sector or reduce L")
    return largest


def _near_kernel(block, lu, tol):
    """The eigenvalues of a sparse square `block` nearest sigma = tol,
    among them every one below `tol` in modulus, through the LU `lu` of
    block - tol I, and whether they came from the dense fallback.

    Shift-invert Arnoldi (ARPACK `eigs` on lu.solve; Lehoucq, Sorensen &
    Yang, SIAM 1998) returns the k eigenvalues nearest sigma, for
    k = 2, 4, 8, ... until the farthest of them lies at least 2 tol from
    sigma: every |lambda| < tol lies within 2 tol of sigma, so it is
    among them. A block too small for ARPACK, which needs k < n - 1, or
    one where k reaches that limit, takes `eig_dense` instead; its blocks
    passed the dense cap one by one before. ARPACK's start and restart
    vectors come from a generator of their own with a fixed seed, so the
    result repeats. An ARPACK failure raises `SolverError`."""
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigs

    n = block.shape[0]
    inverse = LinearOperator(block.shape, matvec=lu.solve, dtype=block.dtype)
    k = 2
    while k < n - 1:
        try:
            values = eigs(block, k, sigma=tol, OPinv=inverse,
                          return_eigenvectors=False, rng=0)
        except ArpackError as exc:  # ArpackNoConvergence too
            raise SolverError(f"ARPACK failed on a block of dimension {n}: "
                              f"{exc}") from exc
        if np.abs(values - tol).max() >= 2 * tol:
            return values, False
        k *= 2
    return eig_dense(block, cap=n).eigenvalues, True


def _kernel_basis(block, lu, count, rng):
    """An orthonormal basis of the `count`-dimensional kernel of a sparse
    square `block`: two steps of subspace iteration, from a random start
    (`rng`), with the sparse LU `lu` of block - tol I. A residual
    ||block X||_F above `RESIDUAL_TOL` relative to ||block||_F raises
    `SolverError`."""
    n = block.shape[0]
    basis = rng.standard_normal((n, count))
    for _ in range(2):
        basis = np.linalg.qr(lu.solve(basis))[0]
    # a zero block (a frozen 1 x 1) has residual 0, not 0/0; NaN fails
    norm = max(np.linalg.norm(block.data), np.finfo(float).tiny)
    residual = np.linalg.norm(block @ basis) / norm
    if not residual <= RESIDUAL_TOL:
        raise SolverError(f"kernel residual {residual:.3e} of a block of "
                          f"dimension {n} exceeds {RESIDUAL_TOL:.1e}")
    return basis


def steady_states(superop, tol=KERNEL_TOL, cap=DENSE_CAP, stats=None):
    """Kernel basis of a generator as trace-normalized density matrices.

    The generator's frame (`_frame`) is split into blocks as `mirror_eig`
    splits it; a block over the cap raises `DenseCapError` before any
    factorization. A block that C(rho) = rho^+ maps onto itself, or a
    block with the block C maps it onto, is one group, taken in its real
    form U^+ M U as `mirror_eig` decides; only a block that does not
    commute with C is taken complex. Each group is factored once, by a
    sparse LU of its matrix - tol I, which serves twice: its eigenvalues
    nearest 0 (`_near_kernel`) count the group's kernel, the eigenvalues
    below `tol` in modulus, and its kernel vectors w (`_kernel_basis`)
    give orthonormal Hermitian operators U w. No dense spectrum is
    computed, save for blocks too small for ARPACK. Vectors are lifted
    back through U and, on a periodic chain, the Bloch basis.

    Each vector loses its entries up to `MIRROR_TOL` relative to its
    largest (the roundoff coherences of diagonal steady states), then is
    scaled to unit trace, or where its trace vanishes (possible for
    degenerate kernels) to unit Frobenius norm. States come in the order
    of their groups' first blocks: a block with a one-dimensional kernel,
    such as one particle-number sector, gives that sector's own steady
    state.

    A dict `stats` receives the blocks (`blocks`, `max_block_dim`,
    `real_blocks`, `conjugated_blocks`, as `mirror_eig` counts them), the
    largest group that took the dense fallback (`eig_max_dim`, 0 for
    none), the entries SuperLU stores for all the LU factors
    (`kernel_lu_nnz`) and the
    smallest |lambda| outside the kernel among the eigenvalues the counts
    were decided from (`kernel_separation`, None for none).
    """
    from scipy.sparse.linalg import splu

    bloch, matrix, mirror = _frame(superop)
    components, _, partner, gap = _mirror_blocks(matrix, mirror)
    largest = _check_cap(components, cap)
    lift = sp.identity(superop.dim, format="csc") if bloch is None else bloch
    tvec = trace_vector(superop.sector)
    rng = np.random.default_rng(0)
    done = np.zeros(len(components), dtype=bool)
    states = []
    real_blocks = conjugated = eig_max_dim = lu_nnz = 0
    separation = np.inf
    for i in range(len(components)):
        if done[i]:
            continue
        real = gap[i] <= MIRROR_TOL
        group = np.unique([i, partner[i]]) if real else [i]
        done[group] = True
        if real:
            real_blocks += len(group) == 1
            conjugated += len(group) == 2
        own = np.sort(np.concatenate([components[g] for g in group]))
        block, unitary = matrix[own][:, own], sp.identity(own.size)
        if real:
            unitary, rotated = _real_form(
                block, np.searchsorted(own, mirror[0][own]),
                np.exp(1j * mirror[1][own]))
            block = _real_part(rotated)
        try:
            lu = splu(sp.csc_matrix(
                block - tol * sp.identity(own.size, format="csc")))
        except RuntimeError as exc:  # an exactly singular factor
            raise SolverError(f"sparse LU of a block of dimension "
                              f"{own.size} failed: {exc}") from exc
        lu_nnz += lu.nnz
        values, dense = _near_kernel(block, lu, tol)
        if dense:
            eig_max_dim = max(eig_max_dim, own.size)
        kernel = np.abs(values) < tol
        separation = np.abs(values[~kernel]).min(initial=separation)
        if not kernel.any():
            continue
        basis = _kernel_basis(block, lu, np.count_nonzero(kernel), rng)
        for vec in (lift[:, own] @ (unitary @ basis)).T:
            vec[np.abs(vec) <= MIRROR_TOL * np.abs(vec).max()] = 0
            trace = tvec @ vec
            vec = vec / (trace if abs(trace) > 1e-10 else np.linalg.norm(vec))
            states.append(devectorize_from(vec, superop.sector))
    if not states:
        raise SolverError("empty kernel; a Lindblad generator always has one")
    if stats is not None:
        stats.update(
            blocks=len(components), max_block_dim=largest,
            eig_max_dim=eig_max_dim, real_blocks=real_blocks,
            conjugated_blocks=conjugated, kernel_lu_nnz=lu_nnz,
            kernel_separation=(float(separation) if np.isfinite(separation)
                               else None))
    return states


def positivity_defect(rho):
    """Most negative eigenvalue (clipped at 0) of a Hermitian operator."""
    dense = rho.toarray()
    vals = np.linalg.eigvalsh((dense + dense.conj().T) / 2)
    return float(max(0.0, -vals.min()))


def full_spectrum(spec, cap=DENSE_CAP):
    """Union spectrum of the model's generator on the full pair space.

    The generator is assembled once and split into its coupled components
    (`coupled_components`); each eigenvalue appears exactly once and is
    labelled with the charge difference delta = g_ket - g_bra of its
    component's first pair. The components go through `mirror_eig`
    strictly: a Lindbladian maps rho^+ to L[rho]^+, so every delta = 0
    component is diagonalized in its real form and of each delta/-delta
    mirror pair only one is diagonalized. A generator without that
    symmetry raises `SolverError`. A component over the cap raises
    `DenseCapError` before any component is diagonalized.
    """
    full = assemble(spec)
    n = spec.layout.nstates
    parts, components = mirror_eig(
        full.matrix, _mirror_map(full.sector), basis=spec.layout.basis_tag,
        cap=cap, strict=True, sector=full.sector)
    table = gauge_charge_table(spec.layout).astype(np.int16)
    labels = []
    for comp, part in zip(components, parts):
        first = comp[0]
        delta = table[first // n] - table[first % n]
        labels.extend([tuple(int(v) for v in delta)] * part.dim)
    spectrum, order = _merge(parts)
    spectrum.block_labels = tuple(labels[i] for i in order)
    return spectrum


def weak_spectrum(spec, n_particles=None, cap=DENSE_CAP):
    """Spectrum on the weak gauge sector (matching ket/bra charges)."""
    dsec = weak_sector(spec.layout, n_particles)
    superop = assemble(spec, sector=dsec)
    return spectrum_of(superop, cap=cap), dsec, superop


def _plane(values):
    """Eigenvalues as (re, im) points."""
    values = np.asarray(values, dtype=np.complex128)
    return np.column_stack([values.real, values.imag])


def multiset_distance(a, b):
    """Bottleneck distance between two eigenvalue multisets: the least r
    such that some one-to-one pairing of a with b moves no value by more
    than r. Unequal sizes give infinity.

    Exact at every size. The Hausdorff distance is a lower bound; the
    radius is doubled from there until the pairs within it (a kd-tree
    query) admit a perfect matching, then bisected over the distances of
    those pairs (Efrat, Itai & Katz, Algorithmica 31, 1 (2001)). The
    bisection starts at the largest of those distances below the
    Hausdorff bound, one below the first at or above it, since the
    kd-tree query and the pair distances round separately; each matching
    found lowers the upper end to its own largest distance.
    """
    from scipy.spatial import cKDTree

    a, b = _plane(a), _plane(b)
    if a.shape != b.shape:
        return np.inf
    n = a.shape[0]
    if n == 0:
        return 0.0
    tree_a, tree_b = cKDTree(a), cKDTree(b)
    radius = bound = _hausdorff(tree_a, tree_b, a, b)
    while True:
        found = tree_a.sparse_distance_matrix(tree_b, radius,
                                              output_type="ndarray")
        found = found[np.lexsort((found["j"], found["i"]))]
        pairs = found["i"], found["j"], found["v"]
        worst = _perfect_matching(*pairs, n)
        if worst is not None:
            break
        # from a zero lower bound, any pairing bounds the distance above
        radius = 2 * radius or float(np.hypot(
            *(a[np.lexsort(a.T)] - b[np.lexsort(b.T)]).T).max())
    radii = np.unique(pairs[2])
    # radii[hi] admits a perfect matching, no radius below radii[lo] does
    lo = max(int(np.searchsorted(radii, bound)) - 1, 0)
    hi = int(np.searchsorted(radii, worst))
    while lo < hi:
        mid = (lo + hi) // 2
        keep = pairs[2] <= radii[mid]
        worst = _perfect_matching(*(column[keep] for column in pairs), n)
        if worst is None:
            lo = mid + 1
        else:
            hi = int(np.searchsorted(radii, worst))
    return float(radii[hi])


def _perfect_matching(rows, cols, distances, n):
    """The largest distance in a perfect matching of a_i with b_j over the
    pairs (rows[k], cols[k]) at `distances[k]`, sorted by row, then
    column; None when there is none.

    The matching is a unit-capacity maximum flow, source -> a_i -> b_j
    -> sink, by Dinic's algorithm: the bound of Hopcroft-Karp, but
    scipy's `maximum_bipartite_matching` takes seconds to prove that a
    graph of 1e5 pairs has no perfect matching."""
    from scipy.sparse.csgraph import maximum_flow

    source, sink = 2 * n, 2 * n + 1
    # graph rows a_0..a_n-1, then b_0..b_n-1, the source, the sink
    counts = np.concatenate([np.bincount(rows, minlength=n),
                             np.ones(n, dtype=np.int64), [n, 0]])
    indices = np.concatenate([n + cols, np.full(n, sink), np.arange(n)])
    graph = sp.csr_matrix(
        (np.ones(indices.size, dtype=np.int32), indices,
         np.concatenate([[0], np.cumsum(counts)])),
        shape=(2 * n + 2, 2 * n + 2))
    result = maximum_flow(graph, source, sink, method="dinic")
    if result.flow_value < n:
        return None
    flow = result.flow.tocoo()
    used = (flow.data > 0) & (flow.row < n)
    matched = np.searchsorted(rows * n + cols,
                              flow.row[used] * n + flow.col[used] - n)
    return float(distances[matched].max())


def _hausdorff(tree_a, tree_b, a, b):
    return float(max(tree_b.query(a)[0].max(), tree_a.query(b)[0].max()))


def hausdorff_distance(a, b):
    """Symmetric Hausdorff distance between spectra as planar point sets."""
    from scipy.spatial import cKDTree

    a, b = _plane(a), _plane(b)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.inf if a.shape[0] != b.shape[0] else 0.0
    return _hausdorff(cKDTree(a), cKDTree(b), a, b)


def hull_violation(inner, outer):
    """Largest distance by which ``inner`` points leave ``outer``'s hull.

    Points are complex eigenvalues treated as (re, im) pairs; the return
    value is <= 0 when every inner point is inside or on the hull.
    """
    from scipy.spatial import ConvexHull

    pts_out = np.column_stack([np.real(outer), np.imag(outer)])
    pts_in = np.column_stack([np.real(inner), np.imag(inner)])
    hull = ConvexHull(pts_out)
    # facet equations are normalized (|normal| = 1): signed distances
    dist = pts_in @ hull.equations[:, :2].T + hull.equations[:, 2]
    return float(dist.max())


@dataclass
class StateSeries:
    """Time grid, tracked observables, trace defect and integrator
    statistics of a run."""

    times: np.ndarray
    observables: dict = field(default_factory=dict)
    trace_defect: np.ndarray = None
    final_vector: np.ndarray = None
    # matrix-vector products, status, steps and largest Krylov dimension
    # of the integration, whether the real coordinates U^+ v were
    # integrated, and how many coordinates (see `evolve`)
    nfev: int = 0
    status: int = 0
    steps: int = 0
    krylov_dim_max: int = 0
    real_form: bool = False
    evolved_dim: int = 0


def solve_ivp(fun, t_span, y0, **options):
    """scipy.integrate.solve_ivp, imported on the first call. `evolve`
    looks this name up when it runs, so a caller may rebind it (to count
    right-hand-side evaluations, say)."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(fun, t_span, y0, **options)


def _real_coordinates(matrix, v0, dsec):
    """dv/dt = M v in the coordinates w = U^+ v of `_real_form` on the pair
    basis `dsec`: returns U, the real CSR U^+ M U (`_real_part`) and the
    real w0. None when C(rho) = rho^+ does not map `dsec` onto itself,
    when M does not commute with C (half the defect of `_mirror_gaps`,
    the imaginary part of U^+ M U, exceeds `MIRROR_TOL` relative to M),
    or when v0 is not Hermitian (the imaginary part of U^+ v0 exceeds
    `MIRROR_TOL` relative to v0)."""
    mirror = _mirror_map(dsec)
    if mirror is None or _mirror_gaps(matrix, mirror)[0] / 2 > MIRROR_TOL:
        return None
    unitary, rotated = _real_form(matrix, mirror[0], np.exp(1j * mirror[1]))
    w0 = unitary.conj().T @ v0
    if np.linalg.norm(w0.imag) > MIRROR_TOL * np.linalg.norm(w0):
        return None
    return unitary, _real_part(rotated), w0.real


def evolve(matrix, v0, t_grid, observables=None, dsec=None,
           rtol=1e-9, atol=1e-9):
    """Integrate dv/dt = M v on a time grid with adaptive Krylov steps.

    Each step approximates exp(h M) v on an Arnoldi basis
    (`krylov.KrylovExpm`, run through `solve_ivp`) with an error
    estimate of at most (atol + rtol |v|) h / T, T the span of the grid
    and |v| the 2-norm of the integrated coordinates at the step's start;
    an rtol below 100 machine epsilons is raised to that, with a
    warning. ``nfev`` in the result counts the products M v, ``steps``
    the steps and ``krylov_dim_max`` the largest basis.

    observables maps names to callables vec -> complex, evaluated at each
    grid time. With a pair basis the trace defect |tr(t) - tr(0)| is
    recorded.

    A Hermitian v0 stays Hermitian under a Lindbladian, which commutes
    with C(rho) = rho^+. So on a pair basis the real coordinates
    w = U^+ v of `_real_form` are integrated instead, with the real
    matrix U^+ M U, at half the arithmetic. Where the checks of
    `_real_coordinates` fail (the double-space twist away from 0 and pi,
    a v0 that is not Hermitian) or there is no pair basis, v is
    integrated as it is. ``real_form`` in the result tells which.

    Either way only the coupled components of the integrated matrix that
    the initial vector touches are integrated (`coupled_components`, with
    entries up to `MIRROR_TOL` relative cut); every other coordinate is 0
    for all t. The 2-norm is the same in all these coordinates, so each
    takes the same steps. Each grid frame maps back on its own through
    the kept columns of U (of the identity when v is integrated as it
    is), so no array of full-size frames is formed. ``evolved_dim`` in
    the result is the number of coordinates integrated.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2 or np.any(np.diff(t_grid) <= 0):
        raise SolverError("time grid must be strictly increasing, length >= 2")
    mat = sp.csr_matrix(matrix)
    v0 = np.asarray(v0, dtype=np.complex128)
    real = None if dsec is None else _real_coordinates(mat, v0, dsec)
    real_form = real is not None
    lift, rhs, y0 = real or (sp.identity(v0.size, format="csc"), mat, v0)
    del real  # the restriction below frees the unrestricted system
    reached = np.zeros(y0.size, dtype=bool)
    for comp in coupled_components(rhs, MIRROR_TOL):
        reached[comp] = np.any(y0[comp])
    kept = np.flatnonzero(reached)
    if kept.size < y0.size:
        # a union of whole components: no entry above MIRROR_TOL relative
        # couples it to the rest
        rhs, lift, y0 = rhs[kept][:, kept], lift[:, kept], y0[kept]

    from .krylov import KrylovExpm

    stats = {}
    result = solve_ivp(lambda _, y: rhs @ y, (t_grid[0], t_grid[-1]), y0,
                       method=KrylovExpm, t_eval=t_grid, rtol=rtol,
                       atol=atol, stats=stats)
    if not result.success:
        raise SolverError(f"integration failed: {result.message}")
    frames = result.y

    observables = observables or {}
    values = {name: [] for name in observables}
    for j in range(t_grid.size):
        vec = lift @ frames[:, j]
        for name, fn in observables.items():
            values[name].append(fn(vec))
    series = StateSeries(
        times=t_grid, final_vector=vec,
        observables={name: np.array(v) for name, v in values.items()},
        nfev=result.nfev, status=result.status, real_form=real_form,
        evolved_dim=kept.size, **stats)
    if dsec is not None:
        # tr(lift w) = (lift^T tvec) . w, a real functional of a real w
        tvec = (lift.T @ trace_vector(dsec)).real
        tr = frames.T @ tvec
        series.trace_defect = np.abs(tr - tr[0])
    return series


def pure_state_vector(state, dsec):
    """vec(|state><state|) on a pair basis containing that diagonal pair."""
    pos = dsec.lookup(np.asarray([state], dtype=np.int64),
                      np.asarray([state], dtype=np.int64))[0]
    if pos < 0:
        raise SolverError(f"basis state {state} is outside the sector")
    vec = np.zeros(dsec.dim, dtype=np.complex128)
    vec[pos] = 1.0
    return vec


def site_number_diagonals(layout):
    """Occupation diagonals n -> diag(N_n) over the full spin register,
    in `site_slots` order."""
    idx = np.arange(layout.nstates, dtype=np.int64)
    return [state_bit(idx, slot).astype(float) for slot in layout.site_slots]


def link_z_diagonals(layout):
    """Link s^z diagonals over the full spin register, in `link_slots`
    order."""
    idx = np.arange(layout.nstates, dtype=np.int64)
    return [state_bit(idx, slot).astype(float) - 0.5
            for slot in layout.link_slots]
