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
`full_spectrum` refuses it. Dense eigendecomposition is capped (default
6000) per block because the cost is cubic (`DenseCapError`, raised
before the first block is diagonalized); sector projection is the
intended way to keep the blocks below the cap. Eigenvectors are returned
as one dense array over the whole pair basis, so a request for them also
caps the basis dimension.

Steady states are taken from eigenpairs with |lambda| below the kernel
bin (1e-9), orthonormalized, devectorized, Hermitized, and
trace-normalized. Degeneracy counting bins eigenvalues within 1e-7 of
the reference value.

Time integration uses adaptive high-order explicit Runge-Kutta
(dormand-prince 8th order) with absolute/relative tolerances 1e-9 by
default and records observables plus trace and positivity defects. The
same symmetry C makes a Hermitian state's coordinates U^+ v real, so a
Lindbladian quench is integrated as the real system U^+ M U (`evolve`),
and only on the coupled components of that system that the initial
state touches (the same split as the spectra's real forms).
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.sparse.csgraph import connected_components, maximum_flow
from scipy.spatial import ConvexHull, cKDTree

from .lattice import state_bit
from .liouvillian import LEAK_TOL, assemble, devectorize_from, trace_vector
from .symmetry import (
    SectorLeakageError,
    gauge_charge_table,
    site_occupation_table,
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
    """Canonically ordered eigenvalues with optional right eigenvectors."""

    eigenvalues: np.ndarray
    vectors: np.ndarray = None
    basis: str = "unknown"
    residual_max: float = 0.0
    # provenance of each eigenvalue: the block index in `spectrum_of`,
    # the charge difference delta in `full_spectrum`
    block_labels: tuple = None
    # blocks diagonalized in their real form, and blocks whose spectrum is
    # the conjugate of a mirror block's (see `mirror_eig`)
    real_blocks: int = 0
    conjugated_blocks: int = 0
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


def canonical_order(values):
    """Sort key: real part descending, then imaginary part ascending."""
    return np.lexsort((values.imag, -values.real))


def eig_dense(matrix, want_vectors=False, basis="unknown", cap=DENSE_CAP):
    """Full spectrum of a general complex matrix, canonically ordered.

    With vectors requested, every eigenpair residual is checked against
    ``RESIDUAL_TOL`` and the worst one is reported in the result.
    """
    n = np.shape(matrix)[0]
    if n > cap:
        raise DenseCapError(
            f"dimension {n} exceeds the dense cap {cap}; project onto a "
            "smaller sector or reduce L")
    dense = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix)
    if n == 0:
        empty = np.zeros(0, dtype=np.complex128)
        vecs = np.zeros((0, 0), dtype=np.complex128) if want_vectors else None
        return Spectrum(empty, vecs, basis)
    if not want_vectors:
        vals = np.linalg.eigvals(dense)
        order = canonical_order(vals)
        return Spectrum(vals[order], None, basis, eig_max_dim=n)
    vals, vecs = np.linalg.eig(dense)
    order = canonical_order(vals)
    vals, vecs = vals[order], vecs[:, order]
    residual = np.linalg.norm(dense @ vecs - vecs * vals, axis=0)
    residual /= np.linalg.norm(vecs, axis=0)
    worst = float(residual.max())
    if worst > RESIDUAL_TOL:
        raise SolverError(f"eigenpair residual {worst:.3e} exceeds "
                          f"{RESIDUAL_TOL:.1e}")
    return Spectrum(vals, vecs, basis, residual_max=worst, eig_max_dim=n)


def coupled_components(matrix, tol=None):
    """Weakly connected components of a square CSR matrix's nonzero
    pattern: index arrays, each ascending, ordered by their first index.
    With `tol`, entries up to `tol` relative to the matrix (Frobenius
    norm) are left out, so roundoff where exact zeros belong hides no
    split; together they may weigh at most `tol` (else
    `SectorLeakageError`), as blocks sliced on the components cut them."""
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


def _component_labels(matrix, components):
    """The component of each coordinate of a CSR `matrix`. The components
    must cover the coordinates once and no nonzero may join two of them
    (else `SectorLeakageError`: the split cut a coupling)."""
    n = matrix.shape[0]
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
    return labels


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
    q = sp.csr_matrix((np.exp(1j * mirror[1]), (mirror[0], np.arange(n))),
                      shape=(n, n))
    defect = q @ matrix.conj() @ q.conj().T - (
        matrix if partner is None else partner)
    count = int(labels.max(initial=0)) + 1
    gap, norm = (np.bincount(labels[m.row], np.abs(m.data) ** 2,
                             minlength=count)
                 for m in (defect.tocoo(), matrix.tocoo()))
    return np.sqrt(gap / np.maximum(norm, np.finfo(float).tiny))


def _conjugate(part, within, phase):
    """The spectrum of a block's C-image: conjugate eigenvalues, the
    eigenvectors Q conj(v), and the same block labels."""
    order = canonical_order(part.eigenvalues.conj())
    vectors = labels = None
    if part.vectors is not None:
        vectors = np.empty_like(part.vectors)
        vectors[within] = phase[:, None] * part.vectors.conj()
        vectors = vectors[:, order]
    if part.block_labels is not None:
        labels = tuple(np.asarray(part.block_labels)[order].tolist())
    return Spectrum(part.eigenvalues.conj()[order], vectors, part.basis,
                    residual_max=part.residual_max, block_labels=labels)


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


def _merge(parts, coords, dim, lift=None):
    """Spectra of diagonal blocks merged in canonical order, and the order
    applied. `parts[i]` is the block on the coordinates `coords[i]`; its
    eigenvectors, when present, are scattered into one dense array over
    `dim` coordinates, or mapped through the columns `lift[:, coords[i]]`
    of a basis over them. The residual and the largest eig are the worst
    part's."""
    merged = np.concatenate([part.eigenvalues for part in parts])
    order = canonical_order(merged)
    vectors = None
    if parts[0].vectors is not None:
        column = np.empty(order.size, dtype=np.int64)
        column[order] = np.arange(order.size)
        vectors = np.zeros((dim, order.size), dtype=np.complex128)
        start = 0
        for own, part in zip(coords, parts):
            cols = column[start:start + part.dim]
            if lift is None:
                vectors[np.ix_(own, cols)] = part.vectors
            else:
                vectors[:, cols] = lift[:, own] @ part.vectors
            start += part.dim
    spectrum = Spectrum(
        merged[order], vectors, parts[0].basis,
        residual_max=max(part.residual_max for part in parts),
        eig_max_dim=max(part.eig_max_dim for part in parts))
    return spectrum, order


def _real_eig(unitary, rotated, want_vectors, basis, cap):
    """The spectrum of a block from its real form U^+ M U: one real eig
    per coupled component of the real form (`coupled_components` with
    roundoff up to `MIRROR_TOL` cut), merged in canonical order, the
    eigenvectors w of a component mapped back as U[:, component] w."""
    real = _real_part(rotated)
    components = coupled_components(real, MIRROR_TOL)
    if len(components) == 1:
        # U w straight away: no scatter into a second dense array
        part = eig_dense(real, want_vectors, basis, cap)
        if want_vectors:
            part.vectors = unitary @ part.vectors
        return part
    parts = [eig_dense(real[own][:, own], want_vectors, basis, cap)
             for own in components]
    return _merge(parts, components, real.shape[0], unitary)[0]


def mirror_eig(matrix, mirror, want_vectors=False, basis="unknown",
               cap=DENSE_CAP, strict=False):
    """Dense spectra of the coupled components of a CSR generator through
    the antiunitary symmetry C(rho) = rho^+ of a Lindbladian, C on its
    coordinates given by `mirror` (`_mirror_map`, or None).

    One label array guards the components (`_component_labels`); a block
    over the cap raises `DenseCapError` before any eig; C is checked once
    (`_mirror_gaps`). A block that C maps onto itself, with half its
    defect, ||Im U^+ M U||, within `MIRROR_TOL` relative, goes to real
    LAPACK in its real form U^+ M U (`_real_eig`). Of two blocks that C
    maps onto each other the first is diagonalized, and the second, within
    `MIRROR_TOL` relative of its image, gets the conjugate spectrum
    without being sliced. Every other block takes the complex eig, or with
    `strict` raises `SolverError`.

    Returns one Spectrum per component (eigenvectors in its coordinates),
    the components, and the numbers of real and of conjugated blocks.
    """
    components = coupled_components(matrix)
    labels = _component_labels(matrix, components)
    largest = max(c.size for c in components)
    if largest > cap:
        raise DenseCapError(
            f"a block of dimension {largest} exceeds the dense cap {cap}; "
            "project onto a smaller sector or reduce L")
    gaps = None if mirror is None else _mirror_gaps(matrix, mirror, labels)
    # the blocks are sliced from one symmetric permutation
    order = np.concatenate(components)
    permuted = matrix[order][:, order]
    bounds = np.cumsum([0] + [c.size for c in components])
    parts = [None] * len(components)
    real = conjugated = 0
    for i, own in enumerate(components):
        if parts[i] is not None:
            continue
        block = permuted[bounds[i]:bounds[i + 1], bounds[i]:bounds[i + 1]]
        gap = np.inf
        if mirror is not None and own.size:
            target = mirror[0][own]
            j = labels[target[0]]
            if components[j].size == own.size and np.all(labels[target] == j):
                gap = gaps[i] / 2 if j == i else gaps[j]
        if gap <= MIRROR_TOL:
            within = np.searchsorted(components[j], target)
            phase = np.exp(1j * mirror[1][own])
            if j == i:
                parts[i] = _real_eig(*_real_form(block, within, phase),
                                     want_vectors, basis, cap)
                real += 1
            else:
                parts[i] = eig_dense(block, want_vectors, basis, cap)
                parts[j] = _conjugate(parts[i], within, phase)
                conjugated += 1
        elif strict:
            raise SolverError(
                f"component {i} has no conjugate mirror component within "
                f"{MIRROR_TOL:.0e} (relative gap {gap:.3e}); not a "
                "Lindbladian")
        else:
            parts[i] = eig_dense(block, want_vectors, basis, cap)
    return parts, components, real, conjugated


def spectrum_of(superop, want_vectors=False, cap=DENSE_CAP):
    """Spectrum of an assembled generator, one dense eig per block.

    A periodic-chain generator with the translation symmetry is first
    rotated into its block-diagonal Bloch frame (`momentum_blocks`); that
    matrix, or the generator as it is otherwise, is split into its
    coupled components, which go through `mirror_eig`. Eigenvalues are
    merged in canonical order and labelled by the running index of their
    block; vectors are scattered back into the pair basis (through the
    Bloch basis on a periodic chain), and the residual is the worst
    block's. A block over the cap raises `DenseCapError` before any block
    is diagonalized. The eigenvectors come as one dense d x d array, so
    with `want_vectors` the whole dimension d is held to the cap too."""
    if want_vectors and superop.dim > cap:
        raise DenseCapError(
            f"eigenvectors of dimension {superop.dim} exceed the dense cap "
            f"{cap}; project onto a smaller sector or reduce L")
    resolved = (superop.twists is not None and superop.dim
                and momentum_blocks(superop))
    bloch, matrix = resolved or (None, superop.matrix)
    parts, components, real, conjugated = mirror_eig(
        matrix, _mirror_map(superop.sector, bloch), want_vectors,
        superop.basis, cap)
    spectrum, order = _merge(parts, components, superop.dim, bloch)
    labels = np.repeat(np.arange(len(parts)), [part.dim for part in parts])
    spectrum.block_labels = tuple(labels[order].tolist())
    spectrum.real_blocks, spectrum.conjugated_blocks = real, conjugated
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
    image = _conjugate(spectrum, mirror[0], np.exp(1j * mirror[1]))
    image.conjugated_blocks = len(set(spectrum.block_labels))
    return image


def steady_states(spectrum, dsec, tol=KERNEL_TOL):
    """Kernel basis as density matrices: Hermitized and trace-normalized.

    `spectrum` is the generator's `spectrum_of(..., want_vectors=True)`
    on the pair basis `dsec`. States come in block order (see
    `spectrum_of`), so a block with a one-dimensional kernel, such as one
    particle-number sector, always gives the same state, that sector's
    own steady state. Kernel vectors are orthonormalized before
    devectorization; operators whose trace vanishes (possible for
    degenerate kernels) fall back to Frobenius normalization.
    """
    idx = spectrum.kernel_indices(tol)
    if idx.size == 0:
        raise SolverError("empty kernel; a Lindblad generator always has one")
    if spectrum.block_labels is not None:
        labels = np.asarray(spectrum.block_labels)
        idx = idx[np.argsort(labels[idx], kind="stable")]
    block = spectrum.vectors[:, idx]
    block, _ = np.linalg.qr(block)
    tvec = trace_vector(dsec)
    out = []
    for col in range(block.shape[1]):
        vec = block[:, col]
        tr = complex(tvec @ vec)
        if abs(tr) > 1e-10:
            # rotate the arbitrary eigenvector phase so the trace is real
            vec = vec * (tr.conjugate() / abs(tr))
        rho = devectorize_from(vec, dsec)
        rho = (rho + rho.adjoint()).scale(0.5)
        if abs(tr) > 1e-10:
            rho = rho.scale(1.0 / complex(rho.matrix.diagonal().sum()).real)
        else:
            norm = rho.frobenius_norm()
            if norm > 0:
                rho = rho.scale(1.0 / norm)
        out.append(rho)
    return out


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
    parts, components, _, _ = mirror_eig(
        full.matrix, _mirror_map(full.sector), basis=spec.layout.basis_tag,
        cap=cap, strict=True)
    table = gauge_charge_table(spec.layout).astype(np.int16)
    labels = []
    for comp, part in zip(components, parts):
        first = comp[0]
        delta = table[first // n] - table[first % n]
        labels.extend([tuple(int(v) for v in delta)] * part.dim)
    spectrum, order = _merge(parts, components, full.dim)
    spectrum.block_labels = tuple(labels[i] for i in order)
    return spectrum


def weak_spectrum(spec, n_particles=None, want_vectors=False, cap=DENSE_CAP):
    """Spectrum on the weak gauge sector (matching ket/bra charges)."""
    dsec = weak_sector(spec.layout, n_particles)
    superop = assemble(spec, sector=dsec)
    return spectrum_of(superop, want_vectors, cap=cap), dsec, superop


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
    those pairs (Efrat, Itai & Katz, Algorithmica 31, 1 (2001)). Each
    matching found lowers the upper end to its own largest distance.
    """
    a, b = _plane(a), _plane(b)
    if a.shape != b.shape:
        return np.inf
    n = a.shape[0]
    if n == 0:
        return 0.0
    tree_a, tree_b = cKDTree(a), cKDTree(b)
    radius = _hausdorff(tree_a, tree_b, a, b)
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
    lo, hi = 0, int(np.searchsorted(radii, worst))
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
    a, b = _plane(a), _plane(b)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.inf if a.shape[0] != b.shape[0] else 0.0
    return _hausdorff(cKDTree(a), cKDTree(b), a, b)


def hull_violation(inner, outer):
    """Largest distance by which ``inner`` points leave ``outer``'s hull.

    Points are complex eigenvalues treated as (re, im) pairs; the return
    value is <= 0 when every inner point is inside or on the hull.
    """
    pts_out = np.column_stack([np.real(outer), np.imag(outer)])
    pts_in = np.column_stack([np.real(inner), np.imag(inner)])
    hull = ConvexHull(pts_out)
    # facet equations are normalized (|normal| = 1): signed distances
    dist = pts_in @ hull.equations[:, :2].T + hull.equations[:, 2]
    return float(dist.max())


@dataclass
class StateSeries:
    """Time grid, tracked observables, sanity defects and integrator
    statistics of a run."""

    times: np.ndarray
    observables: dict = field(default_factory=dict)
    trace_defect: np.ndarray = None
    positivity_defect: np.ndarray = None
    final_vector: np.ndarray = None
    # right-hand-side evaluations and status of solve_ivp, whether the
    # real coordinates U^+ v were integrated, and how many coordinates
    # (see `evolve`)
    nfev: int = 0
    status: int = 0
    real_form: bool = False
    evolved_dim: int = 0


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
           rtol=1e-9, atol=1e-9, track_positivity=False):
    """Integrate dv/dt = M v on a time grid with error-controlled RK.

    observables maps names to callables vec -> complex, evaluated at each
    grid time. With a pair basis the trace defect |tr(t) - tr(0)| is
    recorded; ``track_positivity`` additionally monitors the most
    negative eigenvalue of the Hermitized state (cost: one dense
    eigendecomposition per grid point).

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
    for all t. The same DOP853 runs on that diagonal block, and each grid
    frame maps back on its own through the kept columns of U (of the
    identity when v is integrated as it is), so no array of full-size
    frames is formed. ``evolved_dim`` in the result is the number of
    coordinates integrated.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2 or np.any(np.diff(t_grid) <= 0):
        raise SolverError("time grid must be strictly increasing, length >= 2")
    mat = sp.csr_matrix(matrix)
    v0 = np.asarray(v0, dtype=np.complex128)
    real = None if dsec is None else _real_coordinates(mat, v0, dsec)
    lift, rhs, y0 = real or (sp.identity(v0.size, format="csc"), mat, v0)
    reached = np.zeros(y0.size, dtype=bool)
    for comp in coupled_components(rhs, MIRROR_TOL):
        reached[comp] = np.any(y0[comp])
    kept = np.flatnonzero(reached)
    if kept.size < y0.size:
        # a union of whole components: no entry above MIRROR_TOL relative
        # couples it to the rest
        rhs, lift, y0 = rhs[kept][:, kept], lift[:, kept], y0[kept]

    result = solve_ivp(lambda _, y: rhs @ y, (t_grid[0], t_grid[-1]), y0,
                       method="DOP853", t_eval=t_grid, rtol=rtol, atol=atol)
    if not result.success:
        raise SolverError(f"integration failed: {result.message}")
    frames = result.y

    observables = observables or {}
    values = {name: [] for name in observables}
    defects = []
    for j in range(t_grid.size):
        vec = lift @ frames[:, j]
        for name, fn in observables.items():
            values[name].append(fn(vec))
        if dsec is not None and track_positivity:
            defects.append(positivity_defect(devectorize_from(vec, dsec)))
    series = StateSeries(
        times=t_grid, final_vector=vec,
        observables={name: np.array(v) for name, v in values.items()},
        nfev=result.nfev, status=result.status, real_form=real is not None,
        evolved_dim=kept.size)
    if dsec is not None:
        # tr(lift w) = (lift^T tvec) . w, a real functional of a real w
        tvec = (lift.T @ trace_vector(dsec)).real
        tr = frames.T @ tvec
        series.trace_defect = np.abs(tr - tr[0])
        if track_positivity:
            series.positivity_defect = np.array(defects)
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
    """Occupation diagonals n -> diag(N_n) over the full spin register."""
    from .symmetry import _site_slots
    idx = np.arange(layout.nstates, dtype=np.int64)
    return [state_bit(idx, slot).astype(float) for slot in _site_slots(layout)]


def link_z_diagonals(layout):
    """Link s^z diagonals over the full spin register, in link order."""
    idx = np.arange(layout.nstates, dtype=np.int64)
    out = []
    if layout.kind in ("chain-obc", "chain-pbc"):
        slots = [layout.link_slot(m) for m in range(1, layout.n_links + 1)]
    elif layout.kind == "hierarchical":
        slots = [layout.bot_slot(j) for j in range(2, layout.L)]
    else:
        slots = [layout.hlink_slot(x, y)
                 for y in range(1, layout.Ly + 1) for x in range(1, layout.L)]
        slots += [layout.vlink_slot(x, y)
                  for y in range(1, layout.Ly) for x in range(1, layout.L + 1)]
    for slot in slots:
        out.append(state_bit(idx, slot).astype(float) - 0.5)
    return out
