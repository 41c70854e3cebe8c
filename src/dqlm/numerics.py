"""Dense spectra, kernel extraction, winding scans, and time evolution.

Eigenvalue lists are always returned in one canonical order (real part
descending, ties broken by imaginary part ascending) so that CSV output
and multiset comparisons are reproducible.

Before any dense eigendecomposition a generator is split into the weakly
connected components of its nonzero pattern (`coupled_components`): the
finest block-diagonal split the matrix itself proves, which refines every
weak-symmetry label at once (particle number inside a weak sector, the
charge difference and more in the full pair space). Each component is
diagonalized on its own, and the blocks' nonzeros must add up to the
matrix's (else `SectorLeakageError`). In `full_spectrum` a component whose
rho -> rho^+ mirror is another component is diagonalized once: a
Lindbladian preserves Hermiticity, so the partner's spectrum is the
complex conjugate. Dense eigendecomposition is capped (default 6000) per
component because the cost is cubic; sector projection is the intended
way to keep the components below the cap.

Steady states are taken from eigenpairs with |lambda| below the kernel
bin (1e-9), orthonormalized, devectorized, Hermitized, and
trace-normalized; an SVD cross-check of the kernel dimension is
available for matrices up to 1000 rows. Degeneracy counting bins
eigenvalues within 1e-7 of the reference value.

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

from .lattice import SparseOperator
from .liouvillian import (
    assemble,
    assemble_twisted,
    devectorize_from,
    trace_vector,
)
from .symmetry import SectorLeakageError, gauge_charge_table, weak_sector

DENSE_CAP = 6000
KERNEL_TOL = 1e-9
DEGENERACY_BIN = 1e-7
RESIDUAL_TOL = 1e-8
MATCH_DENSE_LIMIT = 2000
MIRROR_TOL = 1e-12


class SolverError(RuntimeError):
    """Eigen- or ODE-solver breakdown, or a request over the dense cap."""


@dataclass
class Spectrum:
    """Canonically ordered eigenvalues with optional right eigenvectors."""

    eigenvalues: np.ndarray
    vectors: np.ndarray = None
    basis: str = "unknown"
    residual_max: float = 0.0
    # provenance of each eigenvalue: the component index in `spectrum_of`,
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
    if sp.issparse(matrix):
        n = matrix.shape[0]
        if n > cap:
            raise SolverError(
                f"dimension {n} exceeds the dense cap {cap}; project onto a "
                "smaller sector or reduce L")
        dense = matrix.toarray()
    else:
        dense = np.asarray(matrix)
        n = dense.shape[0]
        if n > cap:
            raise SolverError(
                f"dimension {n} exceeds the dense cap {cap}; project onto a "
                "smaller sector or reduce L")
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


def spectrum_of(superop, want_vectors=False, cap=DENSE_CAP):
    """Spectrum of an assembled generator, one dense eig per coupled
    component. Eigenvalues are merged in canonical order and labelled by
    component; vectors are scattered block-diagonally, and the residual
    is the worst block's. A single component is diagonalized as is."""
    components = coupled_components(superop.matrix)
    if len(components) == 1:
        return eig_dense(superop.matrix, want_vectors, superop.basis, cap)
    parts = [eig_dense(block, want_vectors, superop.basis, cap)
             for block in _diagonal_blocks(superop.matrix, components)]
    merged = np.concatenate([part.eigenvalues for part in parts])
    labels = np.repeat(np.arange(len(parts)), [part.dim for part in parts])
    order = canonical_order(merged)
    vectors = None
    if want_vectors:
        column = np.empty(order.size, dtype=np.int64)
        column[order] = np.arange(order.size)
        vectors = np.zeros((superop.dim, superop.dim), dtype=np.complex128)
        start = 0
        for comp, part in zip(components, parts):
            vectors[np.ix_(comp, column[start:start + part.dim])] = part.vectors
            start += part.dim
    return Spectrum(merged[order], vectors, superop.basis,
                    residual_max=max(part.residual_max for part in parts),
                    block_labels=tuple(labels[order].tolist()))


def kernel_dimension(matrix, tol=KERNEL_TOL, method="eig"):
    """Kernel count by eigenvalue bin, or by SVD on small matrices."""
    if method == "svd":
        if matrix.shape[0] > 1000:
            raise SolverError("svd cross-check limited to dimension 1000")
        dense = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix)
        if dense.shape[0] == 0:
            return 0
        return int(np.count_nonzero(np.linalg.svd(dense, compute_uv=False) < tol))
    if method != "eig":
        raise SolverError(f"unknown kernel method {method!r}")
    return len(eig_dense(matrix).kernel_indices(tol))


def steady_states(superop, dsec, tol=KERNEL_TOL, cap=DENSE_CAP):
    """Kernel basis as density matrices: Hermitized and trace-normalized.

    States come in component order (see `spectrum_of`), so a component
    with a one-dimensional kernel, such as one particle-number sector,
    always gives the same state, that sector's own steady state. Kernel
    vectors are orthonormalized before devectorization; operators whose
    trace vanishes (possible for degenerate kernels) fall back to
    Frobenius normalization.
    """
    spec = spectrum_of(superop, want_vectors=True, cap=cap)
    idx = spec.kernel_indices(tol)
    if idx.size == 0:
        raise SolverError("empty kernel; a Lindblad generator always has one")
    if spec.block_labels is not None:
        idx = idx[np.argsort(np.asarray(spec.block_labels)[idx], kind="stable")]
    block = spec.vectors[:, idx]
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


def state_fidelity(rho, sigma):
    """Uhlmann fidelity of two (almost) positive density matrices."""
    a = rho.toarray() if hasattr(rho, "toarray") else np.asarray(rho)
    b = sigma.toarray() if hasattr(sigma, "toarray") else np.asarray(sigma)
    wa, va = np.linalg.eigh((a + a.conj().T) / 2)
    root = (va * np.sqrt(np.clip(wa, 0.0, None))) @ va.conj().T
    inner = root @ ((b + b.conj().T) / 2) @ root
    vals = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    return float(np.sqrt(np.clip(vals, 0.0, None)).sum() ** 2)


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


def winding_scan(spec, phis, variant, n_particles=None, cap=DENSE_CAP):
    """Weak-sector spectra of the twisted generator on a phase grid."""
    dsec = weak_sector(spec.layout, n_particles)
    out = []
    for phi in phis:
        superop = assemble_twisted(spec, float(phi), variant, sector=dsec)
        out.append(spectrum_of(superop, cap=cap))
    return out


@dataclass
class StateSeries:
    """Time grid, tracked observables, and sanity defects of a run."""

    times: np.ndarray
    observables: dict = field(default_factory=dict)
    trace_defect: np.ndarray = None
    positivity_defect: np.ndarray = None
    final_vector: np.ndarray = None

    def observable(self, name):
        return self.observables[name]


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
    from .lattice import state_bit
    from .symmetry import _site_slots
    idx = np.arange(layout.nstates, dtype=np.int64)
    return [state_bit(idx, slot).astype(float) for slot in _site_slots(layout)]


def link_z_diagonals(layout):
    """Link s^z diagonals over the full spin register, in link order."""
    from .lattice import state_bit
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
