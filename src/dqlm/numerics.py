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
the component of each coordinate, guards the split (`_split`): no
nonzero may join two components (else `SectorLeakageError`).

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
gets the conjugate spectrum. C is checked once per generator: one defect
matrix D = C(M) - M gives every block its image and its gap relative to
the block (`_block_images` through `_gaps`; on a self-mirror block
||D||/2 = ||Im U^+ M U||), and a reuse goes ahead within `MIRROR_TOL`; a
generator without the symmetry (the double-space twist away from 0 and
pi) takes the complex eig, and `full_spectrum` refuses it.

Two more exact symmetries of the generator are used, after the
classification of Lindbladian symmetries by Sa, Ribeiro & Prosen (PRX
13, 031019 (2023)), each a monomial map checked once per generator by
its own defect matrix, with per-block images and gaps relative to the
block (`_block_images` and `_gaps`, as for C):

* the particle-hole reflection Pi of an open chain (`reflect_states`:
  site n to L+1-n with its occupation flipped, link m to L-m), unitary,
  which maps the sector N onto L - N. Where the pair basis is closed
  under it, a block that Pi maps onto a block whose spectrum is known,
  within `MIRROR_TOL` of that block's image, takes a copy of it
  (`copied_blocks`): the weak sector without N diagonalizes the sectors
  N <= L/2 only.
* W(rho) = Sigma rho^T Sigma, Sigma = (-1)^q with q = sum_n n N_n
  (`sublattice_sign`), on an open chain or an even ring, where every hop
  changes q by an odd amount. On the pair basis A = C W,
  rho -> Sigma conj(rho) Sigma, maps every pair onto itself, so in the
  diagonal gauge i^(q(ket) - q(bra)) (the real form of A, a diagonal
  unitary through `_real_form`) the whole generator is real. The first
  block of each C mirror pair, which C alone leaves complex, is
  diagonalized in this real form by real LAPACK where the gaps of C and
  W on the pair add up to at most `MIRROR_TOL` (`gauge_real_blocks`).
  W is a unitary involution, monomial in the Bloch frame as well
  (`_basis_image`, which also gives C there), and every other block that
  would take the complex eig and that W maps onto itself within
  `MIRROR_TOL` is rotated into W's +1 and -1 columns (`_parity_form`)
  and diagonalized one coupled component at a time
  (`parity_split_blocks`): on even rings these are the first blocks of
  the momentum mirror pairs and every block of the double-space twist
  away from 0 and pi (a 190-pair block of the L=6 N=1 ring splits
  127 + 63). W is built only once a block that could use it is reached.

Pi holds for every jump family of the open chain, W for every jump
family of the open chain and of an even ring and for the double-space
twist at every phase; the lindblad twist breaks W away from 0 and pi,
and disorder (on-site and link fields, next-nearest hops) breaks both on
the blocks that it reaches unlike their images. Hierarchical and square
layouts and odd rings have neither. The block counts of a `Spectrum`
say which path each block took (`BLOCK_COUNTS`).

One plan (`_plan`) decides, on the integer arrays of the maps and
before any block is sliced, which blocks are worked on (the roots) and
which take their spectrum or kernel from a root through C or Pi;
`mirror_eig` and `steady_states` both read it. `mirror_eig` takes every
matrix to diagonalize straight from the one sparse matrix it lies in:
the permuted generator, its gauge form, or a block's real or parity
form. Matrices of one size and dtype are densified into (k, n, n)
stacks (`_eig_stacks`), each diagonalized by one `np.linalg.eigvals`
call, which runs LAPACK geev matrix by matrix, so the eigenvalues are
bit for bit those of one call per matrix; no stack holds more entries,
k n^2, than the largest matrix diagonalized. The merged spectrum is
sorted once, in the tie order that per-block spectra merged in
component order have.

A spectrum can also come from another generator's (`phase_partner`):
the CLI `winding` scan takes the double-space generator at -phi as the
conjugate of the one at phi (C), the generator of either twist at
phi + pi as a copy of the one at phi (the diagonal sign D =
(-1)^(b_ket + b_bra) of the wrap link's state b flips the wrap hop in
ket and bra), and the double-space generator at pi - phi as the
conjugate (C D). Each map is decided by one defect of the assembled
partner within `MIRROR_TOL`, never from the phases: `_gaps`, which makes
every symmetry check here, the translation's included. Dense
eigendecomposition is capped (default 6000) per block because the cost
is cubic (`DenseCapError`, raised by `_split` before the first block is
diagonalized); sector projection is the intended way to keep the blocks
below the cap. Only eigenvalues are computed densely.

Steady states (`steady_states`) compute no dense spectrum. Each root of
the plan is factored once, at its own size, by a sparse LU of its matrix
- tol I, tol the kernel bin (1e-9). That one LU serves twice:
shift-invert Arnoldi (ARPACK) on it counts the eigenvalues below the
bin, as the dense spectrum's would, and two steps of subspace iteration
with it span the kernel (roots of at most `KERNEL_DENSE_DIM` coordinates
count theirs by a dense eig). Every other block's kernel is its root's
mapped through C or Pi. The kernel's residual over its separation from
the rest of the spectrum must stay below `KERNEL_ANGLE_TOL`. Degeneracy
counting bins eigenvalues within 1e-7 of the reference value.

Time integration takes adaptive Krylov exponential steps (`evolve`,
with `krylov.integrate`): Arnoldi approximations of exp(h M) v whose
error estimates add up, over the time grid, to at most atol + rtol |v|
in the 2-norm, 1e-9 each by default; it records observables and the
trace defect. The same symmetry C makes a Hermitian state's coordinates
U^+ v real, so a Lindbladian quench is integrated as the real system
U^+ M U, and only on the coupled components of that system that the
initial state touches (the same split as the spectra's real forms).

Only numpy and scipy.sparse are imported with the module. The scipy
submodules are imported inside the functions that use them, so a task
loads only what it runs: `scipy.sparse.csgraph` (the component split and
the matching of `multiset_distance`), `scipy.sparse.linalg` (the kernel
LU and ARPACK), `scipy.spatial` (the kd-trees of the spectral distances
and the hull of `hull_violation`) and the `krylov` module (`evolve`),
which needs `scipy.linalg` and no `scipy.integrate`. The closed-form
tasks (`profile`, `verify-exact`) load none of them. `solve_ivp` stays a
module-level function that forwards to `krylov.integrate`, and `evolve`
looks it up when it is called, so rebinding `numerics.solve_ivp` reaches
every integration.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .lattice import state_bit
from .liouvillian import (
    LEAK_TOL,
    NonFiniteGeneratorError,
    SolverError,
    assemble,
    devectorize_from,
    trace_vector,
)
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
# a kernel residual over the separation above this is refused: the ratio
# bounds the angle to the true kernel
KERNEL_ANGLE_TOL = 1e-8
# blocks up to this dimension count their kernel by a dense eig, which
# costs less there than shift-invert ARPACK
KERNEL_DENSE_DIM = 36


class DenseCapError(SolverError):
    """A block to diagonalize is larger than the dense cap."""


class UncertifiedKernelError(SolverError):
    """A kernel that its separation from the rest of the spectrum does
    not resolve (`steady_states`)."""


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
    # is a copy of their reflection's, blocks diagonalized in the
    # diagonal real form of rho -> Sigma conj(rho) Sigma, and blocks split
    # by the parity of rho -> Sigma rho^T Sigma (see `mirror_eig`)
    real_blocks: int = 0
    conjugated_blocks: int = 0
    copied_blocks: int = 0
    gauge_real_blocks: int = 0
    parity_split_blocks: int = 0
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
                "gauge_real_blocks", "parity_split_blocks")
# each block's way in `mirror_eig`, as its index in BLOCK_COUNTS
REAL, CONJUGATED, COPIED, GAUGE, PARITY = range(len(BLOCK_COUNTS))


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
    # cut after every component and drop the empty tail (none for 0 x 0)
    return np.split(order, np.cumsum(np.bincount(labels, minlength=count)))[:-1]


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
    translation S within `LEAK_TOL` relative (the defect S M S^+ - M of
    `_gaps`). Raises `SectorLeakageError` when the blocks' squared
    Frobenius norms do not add up to M's (weight off the block diagonal).
    """
    matrix = superop.matrix
    translation = _translation(superop.sector, superop.twists)
    if translation is None:
        return None
    image, angle = translation
    if _gaps(matrix, (image, np.exp(1j * angle)))[0] > LEAK_TOL:
        return None
    norm_sq = float(np.sum(np.abs(matrix.data) ** 2))
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
    Q[image[g], g] = phase[g] = exp(i angle[g]). Returns (image, phase),
    or None when C does not map the coordinates onto themselves: the pair
    basis is not closed under (a, b) -> (b, a), or `basis` fails
    `_basis_image`."""
    swap = dsec.lookup(dsec.bras, dsec.kets)
    if np.any(swap < 0):
        return None
    if basis is None:
        return swap, np.ones(dsec.dim, dtype=np.complex128)
    seen = _basis_image(basis, swap, antiunitary=True)
    return None if seen is None else (seen[0],
                                      np.exp(1j * np.angle(seen[1])))


def _basis_image(basis, image, sign=None, antiunitary=False):
    """A monomial involution on a pair basis, pair g to pair `image[g]`
    times the real `sign[g]` (None: 1), seen on the columns of a unitary
    `basis` over it: Q = B^+ S B, or for an antiunitary map, which acts
    on coordinates as w -> Q conj(w), Q = B^+ S conj(B). Returns (image,
    value) with Q[image[g], g] = value[g], or None when some column is not
    mapped onto a single column or the image is not an involution."""
    n = image.size
    moved = basis.tocsr()[image]
    if sign is not None:
        moved = sp.diags(sign[image]) @ moved
    q = (basis.conj().T @ (moved.conj() if antiunitary else moved)).tocoo()
    # a unit column holds at most one entry of modulus above 1/sqrt(2)
    keep = np.abs(q.data) ** 2 > 0.5
    rows, cols = q.row[keep], q.col[keep]
    if (cols.size != n or np.unique(cols).size != cols.size
            or np.unique(rows).size != rows.size):
        return None
    seen = np.empty(n, dtype=np.int64)
    seen[cols] = rows
    if np.any(seen[seen] != np.arange(n)):
        return None
    value = np.empty(n, dtype=np.complex128)
    value[cols] = q.data[keep]
    return seen, value


def _gaps(matrix, symmetry, labels=None, antiunitary=False, partner=None):
    """The defect D = S M^ S^+ - M' of a CSR generator M under a monomial
    map S on its coordinates (`symmetry` = (image, phase), S[image[g], g]
    = phase[g]; M^ = conj(M) for an antiunitary map, w -> S conj(w), such
    as C of `_mirror_map`, else M; M' the `partner`, or M), formed once:
    the norm of D's rows on each label (one per coordinate; None: one for
    all), relative to M's rows there. When S maps block i onto block j,
    D's rows on j are S(M_i) - M'_j; for C and i = j, as U^+ D U =
    -2i Im(U^+ M U) (`_real_form`), twice the imaginary part of the
    block's real form."""
    image, phase = symmetry
    n = image.size
    s = sp.csr_matrix((phase, (image, np.arange(n))), shape=(n, n))
    defect = s @ (matrix.conj() if antiunitary else matrix) @ s.conj().T - (
        matrix if partner is None else partner)
    if labels is None:
        labels = np.zeros(n, dtype=np.int64)
    count = int(labels.max(initial=0)) + 1
    gap, norm = (np.bincount(labels[m.row], np.abs(m.data) ** 2,
                             minlength=count)
                 for m in (defect.tocoo(), matrix.tocoo()))
    return np.sqrt(gap / np.maximum(norm, np.finfo(float).tiny))


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


def _transpose_map(dsec, basis=None):
    """W(rho) = Sigma rho^T Sigma, Sigma the sign of `sublattice_sign`, on
    the coordinates of a generator: on the pair basis `dsec` it takes
    (a, b) to (b, a) times sigma(a) sigma(b), so that C W is the diagonal
    antiunitary A(rho) = Sigma conj(rho) Sigma; on the columns of a
    unitary `basis` over it, as `_basis_image` sees it. Returns (image,
    phase) with W e_g = phase[g] e_image[g], or None where the layout has
    no sign, the pair basis is not closed under the swap, or some column
    of `basis` is not mapped onto a single column."""
    signs = [sublattice_sign(dsec.layout, s) for s in (dsec.kets, dsec.bras)]
    if signs[0] is None:
        return None
    swap = dsec.lookup(dsec.bras, dsec.kets)
    if np.any(swap < 0):
        return None
    sign = (signs[0] * signs[1]).astype(np.complex128)
    if basis is None:
        return swap, sign
    seen = _basis_image(basis, swap, sign.real)
    return None if seen is None else (seen[0], seen[1] / np.abs(seen[1]))


def _conjugate(part):
    """The spectrum of a block's C-image: conjugate eigenvalues, with the
    same block labels."""
    order = canonical_order(part.eigenvalues.conj())
    labels = None
    if part.block_labels is not None:
        labels = tuple(np.asarray(part.block_labels)[order].tolist())
    return Spectrum(part.eigenvalues.conj()[order], part.basis,
                    block_labels=labels)


def _paired_unitary(within, fixed, upper, lower):
    """A unitary whose columns an involution of the coordinates (g to
    `within[g]`) maps onto themselves: one column fixed[g] e_g per fixed
    coordinate g and two per pair g < h = within[g], upper[0][g] e_g +
    upper[1][g] e_h and lower[0][g] e_g + lower[1][g] e_h (arrays over the
    coordinates); the fixed coordinates first, then pair by pair."""
    n = within.size
    g = np.arange(n)
    fixed_at, first = g[within == g], g[g < within]
    second = within[first]
    col = fixed_at.size + 2 * np.arange(first.size)
    rows = np.concatenate([fixed_at, first, second, first, second])
    cols = np.concatenate([np.arange(fixed_at.size), col, col, col + 1,
                           col + 1])
    values = [fixed[fixed_at]] + [v[first] for v in (*upper, *lower)]
    return sp.csc_matrix((np.concatenate(values), (rows, cols)),
                         shape=(n, n))


def _real_form(block, within, phase):
    """The unitary U whose columns C maps onto themselves, and U^+ M U,
    which is real when the block commutes with C (Q[within[g], g] =
    phase[g], `within` an involution). A fixed coordinate g gives the
    column sqrt(phase[g]) e_g, a pair g <-> h the columns
    sqrt(phase[g]) (e_g + e_h) / sqrt(2) and i sqrt(phase[g]) (e_g - e_h)
    / sqrt(2); on the pair basis these are e_(a,a), (e_(a,b) + e_(b,a))
    / sqrt(2) and i (e_(a,b) - e_(b,a)) / sqrt(2)."""
    half = np.sqrt(phase)
    root = half / np.sqrt(2)
    unitary = _paired_unitary(within, half, (root, root),
                              (1j * root, -1j * root))
    return unitary, (unitary.conj().T @ block @ unitary).tocsr()


def _parity_form(block, within, phase):
    """The unitary U of the +1 and -1 eigenvectors of a monomial
    involution W (W e_g = phase[g] e_within[g]), and U^+ M U, which has no
    entry between the two signs when the block commutes with W. A fixed
    coordinate g gives the column e_g (eigenvalue phase[g] = +-1), a pair
    g <-> h the columns (e_g + phase[g] e_h) / sqrt(2) (+1) and
    (e_g - phase[g] e_h) / sqrt(2) (-1)."""
    root = np.full(within.size, 1 / np.sqrt(2))
    turn = phase / np.sqrt(2)
    unitary = _paired_unitary(within, np.ones(within.size), (root, turn),
                              (root, -turn))
    return unitary, (unitary.conj().T @ block @ unitary).tocsr()


def _real_part(rotated):
    """Re(U^+ M U) of a real form (`_real_form`) as CSR with its exact
    zeros dropped."""
    real = rotated.real.copy()
    real.eliminate_zeros()
    return real


def _split(matrix, cap):
    """The coupled components of a CSR generator and their guard, the
    label array of the component of each coordinate: they must cover the
    coordinates once and no nonzero may join two of them (else
    `SectorLeakageError`: the split cut a coupling); a component over the
    dense cap raises `DenseCapError`."""
    components = coupled_components(matrix)
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
    largest = max((c.size for c in components), default=0)
    if largest > cap:
        raise DenseCapError(
            f"a block of dimension {largest} exceeds the dense cap {cap}; "
            "project onto a smaller sector or reduce L")
    return components, labels


def _block_images(matrix, components, labels, symmetry, antiunitary=False):
    """For each component of a CSR generator (`_split`), the component
    that a monomial map (`symmetry` as `_gaps` takes it, or None) maps it
    onto, or -1 where it does not map it onto a single component of its
    size, and the map's gap on that target (`_gaps`: for block i mapped
    onto block j, ||S(M_i) - M_j|| relative to M_j), halved for an
    antiunitary map of a block onto itself, where it is ||Im U^+ M U||
    relative to the block; infinity without a target. The map is checked
    once."""
    count = len(components)
    target, gap = np.full(count, -1), np.full(count, np.inf)
    if symmetry is None:
        return target, gap
    sizes = np.array([c.size for c in components])
    mapped = labels[symmetry[0]]
    first = mapped[[c[0] for c in components]]
    whole = np.bincount(labels, mapped == first[labels], minlength=count)
    target = np.where((whole == sizes) & (sizes[first] == sizes), first, -1)
    gaps = _gaps(matrix, symmetry, labels, antiunitary=antiunitary)
    hit = np.flatnonzero(target >= 0)
    own = antiunitary & (target[hit] == hit)
    gap[hit] = np.where(own, gaps[hit] / 2, gaps[target[hit]])
    return target, gap


@dataclass
class _Plan:
    """The blocks of a generator and the way each one goes (`_plan`)."""

    components: list
    labels: np.ndarray
    order: np.ndarray
    permuted: sp.csr_matrix
    bounds: np.ndarray
    gap: np.ndarray
    source: np.ndarray
    turned: np.ndarray
    path: np.ndarray

    @property
    def roots(self):
        return np.flatnonzero(self.source == np.arange(self.source.size))


def _plan(matrix, mirror, cap=DENSE_CAP, strict=False, pairs=None):
    """Which block of a CSR generator takes its spectrum or kernel from
    which, decided once on the index arrays of the maps: C(rho) = rho^+
    on its coordinates (`mirror`, `_mirror_map`, or None) and, on the
    pair basis `pairs` (or None), the particle-hole reflection Pi.

    The components and their guard come from `_split`, which raises
    `DenseCapError` for a block over the cap, and each map's block images
    and gaps from one call of `_block_images`. With `strict` a block that
    C does not map onto a block within `MIRROR_TOL` relative raises
    `SolverError`, `NonFiniteGeneratorError` when its gap is NaN. The
    blocks are then taken in order. A block not yet known is a root, its
    own source: `REAL` when C maps it onto itself within `MIRROR_TOL`.
    It hands the conjugate of its spectrum to its C image, when that is
    within `MIRROR_TOL` and still open (`CONJUGATED`), and it and that
    image hand theirs to their Pi images, when those are within
    `MIRROR_TOL` and still open (`COPIED`, conjugated as the block they
    copy). The generator is permuted so that its blocks are contiguous,
    in component order."""
    components, labels = _split(matrix, cap)
    partner, gap = _block_images(matrix, components, labels, mirror,
                                 antiunitary=True)
    # a NaN gap counts as no mirror, from a non-finite generator
    unmirrored = np.flatnonzero(~(gap <= MIRROR_TOL)) if strict else ()
    if len(unmirrored):
        i = unmirrored[0]
        if np.isnan(gap[i]):
            raise NonFiniteGeneratorError(
                f"component {i} has a NaN conjugate-mirror gap: the "
                "generator has non-finite entries")
        raise SolverError(
            f"component {i} has no conjugate mirror component within "
            f"{MIRROR_TOL:.0e} (relative gap {gap[i]:.3e}); not a "
            "Lindbladian")
    reflection, reflection_gap = _block_images(
        matrix, components, labels,
        None if pairs is None else _reflection_map(pairs))
    count = len(components)
    partner, reflection = partner.tolist(), reflection.tolist()
    mirrored = (gap <= MIRROR_TOL).tolist()
    reflected = (reflection_gap <= MIRROR_TOL).tolist()
    source, turned, path = list(range(count)), [False] * count, [-1] * count
    done = [False] * count
    for i in range(count):
        if done[i]:
            continue
        done[i] = True
        known = [i]
        j = partner[i]
        if mirrored[i] and j == i:
            path[i] = REAL
        elif mirrored[i] and not done[j]:
            done[j], source[j], turned[j], path[j] = True, i, True, CONJUGATED
            known.append(j)
        for b in known:
            k = reflection[b]
            if reflected[b] and k >= 0 and not done[k]:
                done[k], path[k] = True, COPIED
                source[k], turned[k] = source[b], turned[b]
    order = np.concatenate(components) if count else np.arange(0)
    sizes = np.array([c.size for c in components], dtype=np.int64)
    return _Plan(components, labels, order, matrix[order][:, order],
                 np.concatenate([[0], np.cumsum(sizes)]), gap,
                 np.array(source, dtype=np.int64),
                 np.array(turned, dtype=bool), np.array(path, dtype=np.int64))


def mirror_eig(matrix, mirror, basis="unknown", cap=DENSE_CAP, strict=False,
               sector=None, bloch=None):
    """Dense spectra of the coupled components of a CSR generator, C on
    its coordinates given by `mirror` (`_mirror_map`, or None), on the
    pair basis `sector` (or None) or on the columns of the unitary `bloch`
    over it.

    `_plan` splits the generator and decides, before any eig, which
    blocks are diagonalized (its roots) and which take a conjugated or
    copied spectrum by index. A `REAL` root goes to real LAPACK in its
    real form U^+ M U, one eig per coupled component of the form
    (roundoff up to `MIRROR_TOL` cut). For the other roots the transpose
    map W (`_transpose_map`) is built and checked once: on the pair basis
    a root whose gaps of C and W add up to at most `MIRROR_TOL` is
    diagonalized in the real form of the diagonal A = C W
    (`_gauge_form`); a root that W maps onto itself within `MIRROR_TOL`
    is rotated into W's +1 and -1 columns (`_parity_form`), which never
    couple, and takes one complex eig per coupled component; every other
    root takes the complex eig. The matrices go to LAPACK in stacks of
    equal size and dtype (`_eig_stacks`).

    Returns the merged Spectrum, its eigenvalues in canonical order and
    labelled by the index of their component (`block_labels`), with the
    blocks counted in `BLOCK_COUNTS` by how they were found and the
    largest matrix handed to LAPACK (`eig_max_dim`); the components; and
    for each component the index in `BLOCK_COUNTS` of the count it went
    to, or -1 for a complex eig.
    """
    pairs = None if bloch is not None else sector
    plan = _plan(matrix, mirror, cap, strict, pairs)
    components, source, path = plan.components, plan.source, plan.path
    count = len(components)
    index = np.arange(count)
    roots = plan.roots
    rest = roots[path[roots] < 0]
    if rest.size:
        w = None if sector is None else _transpose_map(sector, bloch)
        target, w_gap = _block_images(matrix, components, plan.labels, w)
        # on the pair basis W maps each block where C does
        gauge = (pairs is not None) & (plan.gap + w_gap <= MIRROR_TOL)
        parity = (target == index) & (w_gap <= MIRROR_TOL)
        path[rest] = np.where(gauge[rest], GAUGE,
                              np.where(parity[rest], PARITY, -1))
    permuted, bounds = plan.permuted, plan.bounds
    sizes = np.diff(bounds)
    # each matrix to diagonalize: its source, first row there, size, and
    # the offset of its eigenvalues among all of them in component order
    sources, jobs = [permuted], []
    whole = roots[path[roots] < 0]
    jobs.append((np.zeros_like(whole), bounds[whole], sizes[whole],
                 bounds[whole]))
    whole = roots[path[roots] == GAUGE]
    if whole.size:
        sources.append(_gauge_form(matrix, plan.order, w))
        jobs.append((np.full_like(whole, len(sources) - 1), bounds[whole],
                     sizes[whole], bounds[whole]))
    for i in roots[(path[roots] == REAL) | (path[roots] == PARITY)]:
        cut, own = slice(bounds[i], bounds[i + 1]), components[i]
        real = path[i] == REAL
        image, phase = mirror if real else w
        form = (_real_form if real else _parity_form)(
            permuted[cut, cut], np.searchsorted(own, image[own]),
            phase[own])[1]
        if real:
            form = _real_part(form)
        # its components, made contiguous
        pieces = coupled_components(form, MIRROR_TOL)
        joined = np.concatenate(pieces)
        sources.append(form[joined][:, joined])
        size = np.array([p.size for p in pieces])
        start = np.cumsum(size) - size
        jobs.append((np.full_like(size, len(sources) - 1), start, size,
                     bounds[i] + start))
    which, starts, lengths, first = (np.concatenate(c) for c in zip(*jobs))
    # in component order, so that the eigenvalues fill the roots in order
    at = np.argsort(first)
    values, complex_typed = _eig_stacks(sources, which[at], starts[at],
                                        lengths[at])
    block = np.repeat(index, sizes)
    # a block's spectrum is complex-typed when one of its eigs is
    complex_part = np.bincount(block[first[at]], complex_typed,
                               minlength=count) > 0
    raw = np.empty(bounds[-1], dtype=np.complex128)
    raw[(source == index)[block]] = values
    # conjugate where the block's spectrum was complex-typed, so that a
    # real spectrum's zero imaginary parts keep their sign
    raw = raw[bounds[source][block] + np.arange(bounds[-1]) - bounds[block]]
    flip = (plan.turned & complex_part[source])[block]
    raw[flip] = raw[flip].conj()
    ranked = canonical_order(raw)
    if count and not complex_part.any():
        raw = raw.real
    counts = np.bincount(path[path >= 0], minlength=len(BLOCK_COUNTS))
    spectrum = Spectrum(raw[ranked], basis,
                        block_labels=tuple(block[ranked].tolist()),
                        eig_max_dim=int(lengths.max(initial=0)),
                        **dict(zip(BLOCK_COUNTS, counts.tolist())))
    return spectrum, components, path


def _eig_stacks(sources, which, starts, sizes):
    """Eigenvalues of diagonal blocks of CSR matrices, block t the
    sizes[t] x sizes[t] one from row starts[t] of sources[which[t]],
    concatenated in block order, and for each block whether
    `np.linalg.eigvals` types its spectrum complex (a complex block, or a
    real one with a complex pair).

    Blocks of one size and dtype are densified together (`_add_blocks`)
    into (k, n, n) stacks, and one `np.linalg.eigvals` call diagonalizes
    each stack, by LAPACK geev matrix by matrix: the eigenvalues are those
    of one call per block, bit for bit. No stack holds more entries,
    k n^2, than the largest block, so none needs more memory than that
    block's eig alone."""
    is_complex = np.array([m.dtype.kind == "c" for m in sources],
                          dtype=bool)[which]
    offsets = np.cumsum(sizes) - sizes
    values = np.empty(int(sizes.sum()), dtype=np.complex128)
    complex_typed = is_complex.copy()
    budget = int(sizes.max(initial=0)) ** 2
    key = 2 * sizes + is_complex
    for k in np.unique(key):
        group = np.flatnonzero(key == k)
        n = int(k // 2)
        per = budget // n ** 2
        for lo in range(0, group.size, per):
            stack = group[lo:lo + per]
            dense = np.zeros((stack.size, n, n),
                             dtype=np.complex128 if k % 2 else np.float64)
            for s in np.unique(which[stack]):
                slots = np.flatnonzero(which[stack] == s)
                _add_blocks(dense, slots, sources[s], starts[stack[slots]])
            found = np.linalg.eigvals(dense)
            if not k % 2:
                # a real block's spectrum is real unless it has a pair
                complex_typed[stack] = np.any(found.imag != 0, axis=1)
            values[offsets[stack, None] + np.arange(n)] = found
    return values, complex_typed


def _add_blocks(dense, slots, matrix, starts):
    """Add the n x n diagonal blocks of a CSR matrix that start at rows
    `starts` onto the zero matrices dense[slots], each entry in storage
    order, as `toarray` adds them. Entries outside the blocks, the
    roundoff a form's `coupled_components` cut, are left out, as slicing
    leaves them."""
    n = dense.shape[1]
    rows = (starts[:, None] + np.arange(n)).ravel()
    length = matrix.indptr[rows + 1] - matrix.indptr[rows]
    entry = np.repeat(matrix.indptr[rows] - np.cumsum(length) + length,
                      length) + np.arange(length.sum())
    col = matrix.indices[entry] - np.repeat(np.repeat(starts, n), length)
    # each entry's row among the k n rows of the stack
    row = np.repeat((slots[:, None] * n + np.arange(n)).ravel(), length)
    keep = (col >= 0) & (col < n)
    np.add.at(dense.reshape(-1), (row * n + col)[keep],
              matrix.data[entry][keep])


def _gauge_form(matrix, order, transpose):
    """The real form of a CSR generator on a pair basis under A = C W
    (`transpose`, W as `_transpose_map` gives it there), permuted
    symmetrically by `order`: A is diagonal, so its real form is
    Re(U^+ M U) for the diagonal unitary U of `_real_form`, real on every
    block that A maps onto itself within `MIRROR_TOL`."""
    n = matrix.shape[0]
    gauged = _real_part(_real_form(matrix, np.arange(n), transpose[1])[1])
    return gauged[order][:, order]


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
    """Spectrum of an assembled generator, block by block.

    The generator's frame (`_frame`: on a periodic chain with the
    translation symmetry its Bloch frame, else the generator) is split
    into its coupled components, which go through `mirror_eig`.
    Eigenvalues are merged in canonical order and labelled by the running
    index of their block. A block over the cap raises `DenseCapError`
    before any block is diagonalized. An empty sector gives an empty
    spectrum."""
    bloch, matrix, mirror = _frame(superop)
    return mirror_eig(matrix, mirror, superop.basis, cap,
                      sector=superop.sector, bloch=bloch)[0]


def _wrap_sign(dsec):
    """The diagonal sign D = (-1)^(b_ket + b_bra) on a periodic-chain pair
    basis, b the state of the wrap link (L, 1), which only the hop across
    it flips; None on every other layout."""
    layout = dsec.layout
    if layout.kind != "chain-pbc":
        return None
    slot = layout.link_slot(layout.L)
    parity = (state_bit(dsec.kets, slot) + state_bit(dsec.bras, slot)) & 1
    return 1.0 - 2.0 * parity


def phase_partner(superop, spectrum, partner):
    """The spectrum of the generator `partner` on the pair basis of
    `superop`, taken from `spectrum`, the spectrum of `superop` M, when
    one of three exact maps takes M onto the partner M':

    * C, M' = P conj(M) P (P the ket-bra swap): the conjugate spectrum;
      the double-space generator at -phi is the C image of the one at phi;
    * D, M' = D M D, D the diagonal sign of `_wrap_sign`: a copy; D flips
      the wrap hop in ket and bra, so it takes either twisted generator
      at phi onto the one at phi + pi;
    * C D: the conjugate spectrum; the double-space generator at pi - phi.

    Each is decided by one defect of the assembled partner, within
    `MIRROR_TOL` relative to M (`_gaps` with M' the partner; C D is the
    monomial of C times the sign D), and they are tried in this order;
    nothing is assumed from the phases. Each block of `spectrum` counts
    as conjugated or copied. None when no map holds."""
    dsec = superop.sector
    if partner.sector is not dsec:
        return None
    matrix, target = superop.matrix, partner.matrix
    mirror = _mirror_map(dsec)
    blocks = len(set(spectrum.block_labels))
    conjugate = _conjugate(spectrum)
    conjugate.conjugated_blocks = blocks
    if mirror is not None and _gaps(matrix, mirror, antiunitary=True,
                                    partner=target)[0] <= MIRROR_TOL:
        return conjugate
    sign = _wrap_sign(dsec)
    if sign is None:
        return None
    if _gaps(matrix, (np.arange(dsec.dim), sign),
             partner=target)[0] <= MIRROR_TOL:
        return Spectrum(spectrum.eigenvalues.copy(), spectrum.basis,
                        block_labels=spectrum.block_labels,
                        copied_blocks=blocks)
    if mirror is not None and _gaps(matrix, (mirror[0], mirror[1] * sign),
                                    antiunitary=True,
                                    partner=target)[0] <= MIRROR_TOL:
        return conjugate
    return None


def _near_kernel(block, lu, tol):
    """The eigenvalues of a sparse square `block` nearest sigma = tol,
    among them every one below `tol` in modulus, through the LU `lu` of
    block - tol I, and whether they came from the dense fallback.

    Shift-invert Arnoldi (ARPACK `eigs` on lu.solve; Lehoucq, Sorensen &
    Yang, SIAM 1998) returns the k eigenvalues nearest sigma, for
    k = 2, 4, 8, ... until the farthest of them lies at least 2 tol from
    sigma: every |lambda| < tol lies within 2 tol of sigma, so it is
    among them. A block of at most `KERNEL_DENSE_DIM` coordinates, or
    one where k reaches ARPACK's limit k < n - 1, takes `eig_dense`
    instead; its blocks passed the dense cap one by one before. ARPACK's
    start and restart vectors come from a generator of their own with a
    fixed seed, so the result repeats. An ARPACK failure raises
    `SolverError`."""
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigs

    n = block.shape[0]
    inverse = LinearOperator(block.shape, matvec=lu.solve, dtype=block.dtype)
    k = 2
    while KERNEL_DENSE_DIM < n and k < n - 1:
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
    square `block` and its residual ||block X||_F: two steps of subspace
    iteration, from a random start (`rng`), with the sparse LU `lu` of
    block - tol I. A residual above `RESIDUAL_TOL` relative to
    ||block||_F raises `SolverError`."""
    n = block.shape[0]
    basis = rng.standard_normal((n, count))
    for _ in range(2):
        basis = np.linalg.qr(lu.solve(basis))[0]
    residual = np.linalg.norm(block @ basis)
    # a zero block (a frozen 1 x 1) has residual 0, not 0/0; NaN fails
    norm = max(np.linalg.norm(block.data), np.finfo(float).tiny)
    if not residual / norm <= RESIDUAL_TOL:
        raise SolverError(f"kernel residual {residual / norm:.3e} of a block "
                          f"of dimension {n} exceeds {RESIDUAL_TOL:.1e}")
    return basis, residual


def steady_states(superop, tol=KERNEL_TOL, cap=DENSE_CAP, stats=None):
    """Kernel basis of a generator as trace-normalized density matrices.

    The generator's frame (`_frame`) is planned by `_plan`, as in
    `mirror_eig`; a block over the cap raises `DenseCapError` before any
    factorization. Only the roots are factored, each at its own size (a
    `REAL` root in its real form U^+ M U, any other as its complex
    block), once, by a sparse LU of its matrix - tol I: its eigenvalues
    nearest 0 (`_near_kernel`) count its kernel, those below `tol` in
    modulus, and its kernel vectors (`_kernel_basis`) are lifted back
    through U and, on a periodic chain, the Bloch basis. A block that the
    plan conjugates or copies takes its root's vectors v mapped on the
    pair basis, by C (conj(v[swap])), Pi (v[image]) or both; a block and
    its conjugate give the Hermitian parts (v + C v) / sqrt(2) and
    i (v - C v) / sqrt(2), at the first of the two.

    The largest residual ||M X||_F of a root's orthonormal kernel basis
    X, over the smallest |lambda| outside the kernel, bounds the angle to
    the true kernel (Davis & Kahan, SIAM J. Numer. Anal. 7, 1 (1970));
    above `KERNEL_ANGLE_TOL` it raises `UncertifiedKernelError`. Without
    a separation nothing is refused.

    Each vector loses its entries up to `MIRROR_TOL` relative to its
    largest (the roundoff coherences of diagonal steady states), then is
    scaled to unit trace, or where its trace vanishes to unit Frobenius
    norm. States come in block order: a block with a one-dimensional
    kernel, such as one particle-number sector, gives that sector's own
    steady state.

    A dict `stats` receives `blocks`, `max_block_dim`, `real_blocks`,
    `conjugated_blocks` and `copied_blocks` (as `mirror_eig` counts
    them), `eig_max_dim` (the largest root that took the dense fallback,
    0 for none), `kernel_lu_nnz` (the entries SuperLU stores for all the
    LU factors), `kernel_separation` (the smallest |lambda| outside the
    kernel among the eigenvalues the counts were decided from, None for
    none) and `kernel_residual_ratio` (the ratio above, None without a
    separation). An empty sector has no blocks and no states.
    """
    from scipy.sparse.linalg import splu

    bloch, matrix, mirror = _frame(superop)
    dsec = superop.sector
    plan = _plan(matrix, mirror, cap, pairs=None if bloch is not None
                 else dsec)
    components, bounds, path = plan.components, plan.bounds, plan.path
    lift = sp.identity(superop.dim, format="csc") if bloch is None else bloch
    rng = np.random.default_rng(0)
    kernels = {}
    eig_max_dim = lu_nnz = worst = 0
    separation = np.inf
    for i in plan.roots:
        cut, own = slice(bounds[i], bounds[i + 1]), components[i]
        block, unitary = plan.permuted[cut, cut], sp.identity(own.size)
        if path[i] == REAL:
            unitary, rotated = _real_form(
                block, np.searchsorted(own, mirror[0][own]), mirror[1][own])
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
        if kernel.any():
            basis, residual = _kernel_basis(block, lu,
                                            np.count_nonzero(kernel), rng)
            worst = max(worst, residual)
            kernels[i] = lift[:, own] @ (unitary @ basis)
    # C v = conj(v[swap]) and Pi v = v[image] on the pair basis
    swap = _mirror_map(dsec)[0] if plan.turned.any() else None
    image = _reflection_map(dsec)[0] if np.any(path == COPIED) else None
    found = {}
    for i, vectors in kernels.items():
        group = np.flatnonzero(plan.source == i)
        # i with its C image, then i's Pi image with that one's
        for copied in (False, True):
            mates = group[(path[group] == COPIED) == copied]
            if not mates.size:
                continue
            v = vectors[image] if copied else vectors
            if mates.size == 2:
                cv = v[swap].conj()
                found[mates[0]] = np.hstack([v + cv, 1j * (v - cv)]) \
                    / np.sqrt(2)
            else:
                found[mates[0]] = (v[swap].conj() if plan.turned[mates[0]]
                                   else v)
    tvec = trace_vector(dsec)
    states = []
    for b in sorted(found):
        for vec in found[b].T:
            vec = np.where(np.abs(vec) <= MIRROR_TOL * np.abs(vec).max(),
                           0, vec)
            trace = tvec @ vec
            vec = vec / (trace if abs(trace) > 1e-10 else np.linalg.norm(vec))
            states.append(devectorize_from(vec, dsec))
    if components and not states:
        raise SolverError("empty kernel; a Lindblad generator always has one")
    certified = np.isfinite(separation)
    ratio = float(worst / separation) if certified else None
    if stats is not None:
        counts = np.bincount(path[path >= 0], minlength=COPIED + 1)
        stats.update(
            blocks=len(components), eig_max_dim=eig_max_dim,
            max_block_dim=int(np.diff(bounds).max(initial=0)),
            kernel_lu_nnz=lu_nnz,
            **dict(zip(BLOCK_COUNTS, counts.tolist())),
            kernel_separation=float(separation) if certified else None,
            kernel_residual_ratio=ratio)
    if certified and not ratio <= KERNEL_ANGLE_TOL:
        raise UncertifiedKernelError(
            f"kernel residual {worst:.3e} over the separation "
            f"{separation:.3e} of the rest of the spectrum is {ratio:.3e}, "
            f"above {KERNEL_ANGLE_TOL:.0e}: the kernel is not resolved")
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
    `DenseCapError` before any component is diagonalized. The labels are
    gathered from each component's delta by the block index that
    `mirror_eig` gives each eigenvalue.
    """
    full = assemble(spec)
    n = spec.layout.nstates
    spectrum, components, _ = mirror_eig(
        full.matrix, _mirror_map(full.sector), basis=spec.layout.basis_tag,
        cap=cap, strict=True, sector=full.sector)
    table = gauge_charge_table(spec.layout).astype(np.int16)
    first = np.array([comp[0] for comp in components])
    delta = [tuple(d) for d in (table[first // n] - table[first % n]).tolist()]
    spectrum.block_labels = tuple(map(delta.__getitem__,
                                      spectrum.block_labels))
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
    kd-tree query and the pair distances round separately, so the first
    radius lies a few ulps above the Hausdorff bound, and the bisection
    starts at the largest pair distance below the bound, one below the
    first at or above it; each matching found lowers the upper end to its
    own largest distance.
    """
    from scipy.spatial import cKDTree

    a, b = _plane(a), _plane(b)
    if a.shape != b.shape:
        return np.inf
    n = a.shape[0]
    if n == 0:
        return 0.0
    tree_a, tree_b = cKDTree(a), cKDTree(b)
    bound = _hausdorff(tree_a, tree_b, a, b)
    # a few ulps above the bound, so that no pair at the bound is lost
    radius = bound + 4 * np.spacing(bound) if bound else 0.0
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
    # matrix-vector products, steps and largest Krylov dimension of the
    # integration, whether the real coordinates U^+ v were integrated, and
    # how many coordinates (see `evolve`); a failed integration raises
    nfev: int = 0
    steps: int = 0
    krylov_dim_max: int = 0
    real_form: bool = False
    evolved_dim: int = 0


def solve_ivp(matvec, y0, times, **options):
    """`krylov.integrate`, imported on the first call. `evolve` looks
    this name up when it runs, so a caller may rebind it (to count
    matrix-vector products, say)."""
    from .krylov import integrate

    return integrate(matvec, y0, times, **options)


def _real_coordinates(matrix, v0, dsec):
    """dv/dt = M v in the coordinates w = U^+ v of `_real_form` on the pair
    basis `dsec`: returns U, the real CSR U^+ M U (`_real_part`) and the
    real w0. None when C(rho) = rho^+ does not map `dsec` onto itself,
    when M does not commute with C (half the defect of `_gaps`,
    the imaginary part of U^+ M U, exceeds `MIRROR_TOL` relative to M),
    or when v0 is not Hermitian (the imaginary part of U^+ v0 exceeds
    `MIRROR_TOL` relative to v0)."""
    mirror = _mirror_map(dsec)
    if mirror is None or _gaps(matrix, mirror,
                               antiunitary=True)[0] / 2 > MIRROR_TOL:
        return None
    unitary, rotated = _real_form(matrix, *mirror)
    w0 = unitary.conj().T @ v0
    if np.linalg.norm(w0.imag) > MIRROR_TOL * np.linalg.norm(w0):
        return None
    return unitary, _real_part(rotated), w0.real


def evolve(matrix, v0, t_grid, observables=None, dsec=None,
           rtol=1e-9, atol=1e-9):
    """Integrate dv/dt = M v on a time grid with adaptive Krylov steps.

    Each step approximates exp(h M) v on an Arnoldi basis
    (`krylov.integrate`, called through `solve_ivp`) with an error
    estimate of at most (atol + rtol |v|) h / T, T the span of the grid
    and |v| the 2-norm of the integrated coordinates at the step's start;
    an rtol below 100 machine epsilons is raised to that, with a
    warning. ``nfev`` in the result counts the products M v, ``steps``
    the steps and ``krylov_dim_max`` the largest basis. A grid of fewer
    than two times, or not strictly increasing, raises `SolverError`.

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

    result = solve_ivp(lambda y: rhs @ y, y0, t_grid, rtol=rtol, atol=atol)
    frames = result.frames

    observables = observables or {}
    values = {name: [] for name in observables}
    for j in range(t_grid.size):
        vec = lift @ frames[:, j]
        for name, fn in observables.items():
            values[name].append(fn(vec))
    series = StateSeries(
        times=t_grid, final_vector=vec,
        observables={name: np.array(v) for name, v in values.items()},
        nfev=result.nfev, steps=result.steps,
        krylov_dim_max=result.krylov_dim_max, real_form=real_form,
        evolved_dim=kept.size)
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
