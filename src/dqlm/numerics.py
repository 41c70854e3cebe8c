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

Before any dense eigendecomposition each momentum block, or the whole
generator on every other layout, is split into the weakly connected
components of its nonzero pattern (`coupled_components`): the finest
block-diagonal split the matrix itself proves, which refines every
weak-symmetry label at once (particle number inside a weak sector, the
charge difference and more in the full pair space). Each component is
diagonalized on its own, and the blocks' nonzeros must add up to the
matrix's (else `SectorLeakageError`). In `full_spectrum` a component whose
rho -> rho^+ mirror is another component is diagonalized once: a
Lindbladian preserves Hermiticity, so the partner's spectrum is the
complex conjugate. Dense eigendecomposition is capped (default 6000) per
block because the cost is cubic (`DenseCapError`, raised before the
first block is diagonalized); sector projection is the intended way to
keep the blocks below the cap. Eigenvectors are
returned as one dense array over the whole pair basis, so a request for
them also caps the basis dimension.

Steady states are taken from eigenpairs with |lambda| below the kernel
bin (1e-9), orthonormalized, devectorized, Hermitized, and
trace-normalized. Degeneracy counting bins eigenvalues within 1e-7 of
the reference value.

Time integration uses adaptive high-order explicit Runge-Kutta
(dormand-prince 8th order) with absolute/relative tolerances 1e-9 by
default and records observables plus trace and positivity defects.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.optimize import linear_sum_assignment
from scipy.sparse.csgraph import connected_components
from scipy.spatial import ConvexHull

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
MATCH_DENSE_LIMIT = 2000
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
        return Spectrum(vals[order], None, basis)
    vals, vecs = np.linalg.eig(dense)
    order = canonical_order(vals)
    vals, vecs = vals[order], vecs[:, order]
    residual = np.linalg.norm(dense @ vecs - vecs * vals, axis=0)
    residual /= np.linalg.norm(vecs, axis=0)
    worst = float(residual.max())
    if worst > RESIDUAL_TOL:
        raise SolverError(f"eigenpair residual {worst:.3e} exceeds "
                          f"{RESIDUAL_TOL:.1e}")
    return Spectrum(vals, vecs, basis, residual_max=worst)


def coupled_components(matrix):
    """Weakly connected components of a square CSR matrix's nonzero
    pattern: index arrays, each ascending, ordered by their first index."""
    # a real 0/1 pattern: the graph routine would cast complex data to real
    pattern = sp.csr_matrix(
        (np.ones(matrix.nnz, dtype=np.int8), matrix.indices, matrix.indptr),
        shape=matrix.shape)
    count, labels = connected_components(pattern, directed=True,
                                         connection="weak")
    _, first = np.unique(labels, return_index=True)
    rank = np.empty(count, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(count)
    labels = rank[labels]
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels, minlength=count))[:-1])


def _diagonal_blocks(matrix, components):
    """The diagonal blocks of a CSR `matrix` on `components`, sliced from
    one symmetric permutation. Their nonzeros must add up to the matrix's:
    otherwise the split cut a coupling (`SectorLeakageError`)."""
    order = np.concatenate(components)
    if not np.array_equal(np.sort(order), np.arange(matrix.shape[0])):
        raise SectorLeakageError(
            f"components do not cover the {matrix.shape[0]} indices "
            "exactly once")
    permuted = matrix[order][:, order]
    bounds = np.cumsum([0] + [c.size for c in components])
    blocks = [permuted[a:b, a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    nnz = sum(block.nnz for block in blocks)
    if nnz != matrix.nnz:
        raise SectorLeakageError(
            f"{len(blocks)} diagonal blocks hold {nnz} of the generator's "
            f"{matrix.nnz} nonzeros")
    return blocks


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

    Returns (bloch, block) per momentum k: `bloch` is the sparse
    orthonormal Bloch basis B_k of the block and `block` = B_k^+ M B_k.
    Returns None when M has no such symmetry: its pair basis is not
    closed under translation, or M does not commute with the translation
    within `LEAK_TOL` relative. Raises `SectorLeakageError` when the
    blocks' squared Frobenius norms do not add up to M's (weight off the
    block diagonal).
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
    out = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        if b > a:
            out.append((basis[:, a:b], rotated[a:b, a:b]))
    kept_sq = sum(float(np.sum(np.abs(block.data) ** 2)) for _, block in out)
    if abs(kept_sq - norm_sq) > LEAK_TOL * norm_sq:
        raise SectorLeakageError(
            f"momentum blocks hold {kept_sq:.17g} of the generator's squared "
            f"Frobenius norm {norm_sq:.17g}")
    return out


def spectrum_of(superop, want_vectors=False, cap=DENSE_CAP):
    """Spectrum of an assembled generator, one dense eig per block.

    A periodic-chain generator with the translation symmetry is first
    resolved into its total-momentum blocks (`momentum_blocks`); every
    block, or the whole generator otherwise, is then split into its
    coupled components. Eigenvalues are merged in canonical order and
    labelled by the running index of their block; vectors are scattered
    back into the pair basis (through the Bloch basis on a periodic
    chain), and the residual is the worst block's. A single component of
    an unresolved generator is diagonalized as is. A block over the cap
    raises `DenseCapError` before any block is diagonalized. The
    eigenvectors come as one dense d x d array, so with `want_vectors`
    the whole dimension d is held to the cap too."""
    if want_vectors and superop.dim > cap:
        raise DenseCapError(
            f"eigenvectors of dimension {superop.dim} exceed the dense cap "
            f"{cap}; project onto a smaller sector or reduce L")
    frames = None
    if superop.twists is not None and superop.dim:
        frames = momentum_blocks(superop)
    if frames is None:
        frames = [(None, superop.matrix)]
    pieces = []
    for bloch, matrix in frames:
        components = coupled_components(matrix)
        blocks = ([matrix] if len(components) == 1
                  else _diagonal_blocks(matrix, components))
        pieces.extend((bloch, comp, block)
                      for comp, block in zip(components, blocks))
    largest = max(block.shape[0] for _, _, block in pieces)
    if largest > cap:
        raise DenseCapError(
            f"a block of dimension {largest} exceeds the dense cap {cap}; "
            "project onto a smaller sector or reduce L")
    if len(pieces) == 1 and pieces[0][0] is None:
        return eig_dense(superop.matrix, want_vectors, superop.basis, cap)
    parts = [eig_dense(block, want_vectors, superop.basis, cap)
             for _, _, block in pieces]
    merged = np.concatenate([part.eigenvalues for part in parts])
    labels = np.repeat(np.arange(len(parts)), [part.dim for part in parts])
    order = canonical_order(merged)
    vectors = None
    if want_vectors:
        column = np.empty(order.size, dtype=np.int64)
        column[order] = np.arange(order.size)
        vectors = np.zeros((superop.dim, superop.dim), dtype=np.complex128)
        start = 0
        for (bloch, comp, _), part in zip(pieces, parts):
            cols = column[start:start + part.dim]
            if bloch is None:
                vectors[np.ix_(comp, cols)] = part.vectors
            else:
                vectors[:, cols] = bloch[:, comp] @ part.vectors
            start += part.dim
    return Spectrum(merged[order], vectors, superop.basis,
                    residual_max=max(part.residual_max for part in parts),
                    block_labels=tuple(labels[order].tolist()))


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
    component's first pair. A component whose mirror {(b, a)} is another
    component is diagonalized once: the partner's spectrum is the complex
    conjugate, because a Lindbladian maps rho^+ to L[rho]^+. The partner
    block must equal the conjugate of the mirrored block within
    `MIRROR_TOL` (relative), else `SolverError`.
    """
    full = assemble(spec)
    n = spec.layout.nstates
    components = coupled_components(full.matrix)
    blocks = _diagonal_blocks(full.matrix, components)
    owner = np.empty(full.dim, dtype=np.int64)
    for c, comp in enumerate(components):
        owner[comp] = c
    table = gauge_charge_table(spec.layout).astype(np.int16)
    spectra = [None] * len(components)
    for c, comp in enumerate(components):
        if spectra[c] is not None:
            continue
        spectra[c] = eig_dense(blocks[c], cap=cap).eigenvalues
        mirror = (comp % n) * n + comp // n
        partner = owner[mirror[0]]
        if partner == c:
            continue
        if (components[partner].size != comp.size
                or np.any(owner[mirror] != partner)):
            raise SolverError(
                f"the mirror of component {c} is not a component")
        within = np.searchsorted(components[partner], mirror)
        mirrored = blocks[partner].toarray()[np.ix_(within, within)]
        own = blocks[c].toarray()
        gap = np.linalg.norm(mirrored - own.conj())
        if gap > MIRROR_TOL * np.linalg.norm(own):
            raise SolverError(
                f"component {partner} differs from the conjugate mirror of "
                f"component {c} by {gap:.3e}; not a Lindbladian")
        spectra[partner] = spectra[c].conj()
    merged = np.concatenate(spectra)
    labels = []
    for comp, values in zip(components, spectra):
        first = comp[0]
        delta = table[first // n] - table[first % n]
        labels.extend([tuple(int(v) for v in delta)] * values.size)
    order = canonical_order(merged)
    return Spectrum(merged[order], None, spec.layout.basis_tag,
                    block_labels=tuple(labels[i] for i in order))


def weak_spectrum(spec, n_particles=None, want_vectors=False, cap=DENSE_CAP):
    """Spectrum on the weak gauge sector (matching ket/bra charges)."""
    dsec = weak_sector(spec.layout, n_particles)
    superop = assemble(spec, sector=dsec)
    return spectrum_of(superop, want_vectors, cap=cap), dsec, superop


def multiset_distance(a, b):
    """Max matched distance between two eigenvalue multisets.

    Optimal bipartite matching below ``MATCH_DENSE_LIMIT`` entries,
    sorted-key matching above. Unequal sizes give infinity.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.size != b.size:
        return np.inf
    if a.size == 0:
        return 0.0
    if a.size <= MATCH_DENSE_LIMIT:
        cost = np.abs(a[:, None] - b[None, :])
        rows, cols = linear_sum_assignment(cost)
        return float(cost[rows, cols].max())
    a = a[canonical_order(a)]
    b = b[canonical_order(b)]
    return float(np.abs(a - b).max())


def hausdorff_distance(a, b):
    """Symmetric Hausdorff distance between spectra as planar point sets."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.size == 0 or b.size == 0:
        return np.inf if a.size != b.size else 0.0
    gap = np.abs(a[:, None] - b[None, :])
    return float(max(gap.min(axis=1).max(), gap.min(axis=0).max()))


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
    """Time grid, tracked observables, and sanity defects of a run."""

    times: np.ndarray
    observables: dict = field(default_factory=dict)
    trace_defect: np.ndarray = None
    positivity_defect: np.ndarray = None
    final_vector: np.ndarray = None


def evolve(matrix, v0, t_grid, observables=None, dsec=None,
           rtol=1e-9, atol=1e-9, track_positivity=False):
    """Integrate dv/dt = M v on a time grid with error-controlled RK.

    observables maps names to callables vec -> complex, evaluated at each
    grid time. With a pair basis the trace defect |tr(t) - tr(0)| is
    recorded; ``track_positivity`` additionally monitors the most
    negative eigenvalue of the Hermitized state (cost: one dense
    eigendecomposition per grid point).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2 or np.any(np.diff(t_grid) <= 0):
        raise SolverError("time grid must be strictly increasing, length >= 2")
    mat = matrix.tocsr() if sp.issparse(matrix) else np.asarray(matrix)
    v0 = np.asarray(v0, dtype=np.complex128)

    result = solve_ivp(lambda _, y: mat @ y, (t_grid[0], t_grid[-1]), v0,
                       method="DOP853", t_eval=t_grid, rtol=rtol, atol=atol)
    if not result.success:
        raise SolverError(f"integration failed: {result.message}")
    frames = result.y

    series = StateSeries(times=t_grid, final_vector=frames[:, -1].copy())
    if observables:
        for name, fn in observables.items():
            series.observables[name] = np.array(
                [fn(frames[:, j]) for j in range(t_grid.size)])
    if dsec is not None:
        tvec = trace_vector(dsec)
        tr = frames.T @ tvec
        series.trace_defect = np.abs(tr - tr[0])
        if track_positivity:
            defects = []
            for j in range(t_grid.size):
                rho = devectorize_from(frames[:, j], dsec)
                defects.append(positivity_defect(rho))
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
