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
order is the vec order above). The assembly is vectorized over the
pairs (`_assemble`): the coherent terms -i H_ket (x) 1 and
1 (x) +i H_bra^T are read off H's own CSR (and CSC), and every jump is a
`Monomial` map of the register states, whose image c ^ flip and value
on the pairs' kets and bras give the gain 2 L (x) L^* and the losses
-K (x) 1 and 1 (x) -K (K = L^+ L), jump by jump; no jump CSR, operator
product or identity is built. The entries come in one fixed order, so
duplicates are summed in a fixed order and the matrix repeats bit for
bit. A generator with an inf or NaN entry (finite rates whose products
overflow) raises `NonFiniteGeneratorError`, a `SolverError`. The
twisted-boundary phase enters only the wrap-around hop, whose entries
are single contributions: `assemble_twisted` records where they sit, and
`Superoperator.rephase` gives the generator at another phase by
rewriting them.

`lindblad_apply` and `steady_residual` apply the same generator to
sparse density operators without a basis; they take one operator or a
stream of them, and each operand takes one of two routes:

* diagonal: rho = diag(d) is structurally diagonal. Every jump is a
  `Monomial`, taking each state to at most one state, so L[rho] is the
  coherent part -i H_ab (d_b - d_a) on H's own pattern plus the Pauli
  rate equation 2 (Gamma - K) d on the diagonal,
  Gamma_rc = sum_mu |L_mu(r, c)|^2 and K_cc = sum_mu ||L_mu e_c||^2,
  with no sparse product;
* product: any other operand, by operator products of the jumps' CSRs
  (`Monomial.operator`) with K = sum_mu L_mu^+ L_mu.

On the diagonal route `steady_residual` builds no image: the coherent
entries lie off the diagonal and the rates on it, so

    ||L[rho] - lam rho||_F^2 = sum_{stored H_ab} |H_ab|^2 |d_b - d_a|^2
                               + ||2 (Gamma d - K d) - lam d||^2,

from the same differences and rates that `lindblad_apply` turns into an
image. Each route's jump-dependent part (the weights |L_mu|^2 and K's
diagonal, or the jumps' CSRs and the sparse K) is formed once per call,
when the first operand that takes the route arrives.
"""

import functools
import itertools

import numpy as np
import scipy.sparse as sp

from .lattice import BasisMismatchError, SparseOperator, state_bit
from .models import build_hamiltonian, build_jump_set, bulk_hamiltonian, twist_term
from .symmetry import SectorLeakageError, full_pairs

LEAK_TOL = 1e-12


class AssemblyError(ValueError):
    """Superoperator construction outside supported sizes or layouts."""


class SolverError(RuntimeError):
    """Eigen- or ODE-solver breakdown, a request over the dense cap, or a
    generator no solver can take."""


class NonFiniteGeneratorError(SolverError):
    """A generator with an inf or NaN entry: its rates and couplings are
    finite, but products of them overflow."""


class Superoperator:
    """Liouvillian assembled on a pair basis.

    matrix     : scipy CSR on the pair basis
    sector     : the DoubleSectorBasis it is assembled on
    basis, dim : the sector's tag and dimension
    hamiltonian, jumps : the operators the generator closes over
    twists     : (phi_ket, phi_bra) on a chain-pbc layout, else None: the
                 boundary twists of the ket and bra Hamiltonians, which fix
                 the generator's translation symmetry (see `numerics`)

    A generator of `assemble_twisted` also gives itself at another phase
    (`rephase`).
    """

    def __init__(self, matrix, sector, hamiltonian, jumps, twists=None,
                 wrap=None):
        self.basis = sector.tag
        self.dim = sector.dim
        self.matrix = matrix
        self.sector = sector
        self.hamiltonian = hamiltonian
        self.jumps = jumps
        self.twists = twists
        # from `assemble_twisted`: (J, variant, the `_wrap_slots`)
        self._wrap = wrap

    @property
    def nnz(self):
        return self.matrix.nnz

    def rephase(self, phi):
        """This `assemble_twisted` generator at the phase phi: a copy whose
        wrap-hop entries, in the matrix and in H_ket, take phi's values
        (`_wrap_values`), bit for bit what `assemble_twisted` builds at
        phi, with phi's twists and this generator's sector and jumps.
        Raises `AssemblyError` on any other generator."""
        if self._wrap is None:
            raise AssemblyError(
                "only a generator of assemble_twisted can be re-phased")
        J, variant, slots, kinds, ham_slots, ham_kinds = self._wrap
        twists, _, stored, values = _wrap_values(J, phi, variant)
        matrix = self.matrix.copy()
        matrix.data[slots] = values[kinds]
        ham = self.hamiltonian.matrix.copy()
        ham.data[ham_slots] = stored[ham_kinds]
        return Superoperator(matrix, self.sector,
                             SparseOperator(ham, self.hamiltonian.basis),
                             self.jumps, twists, self._wrap)

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


def _accumulate(out, weight, x):
    """out += weight * x on two register views of one shape. When a
    block's lowest bit is slot 1, its contiguous runs hold two states and
    numpy's inner loop would take them two at a time (three times slower
    at 2**13 states), so such views are walked along their first axis."""
    order = "F" if x.shape[-1] == 2 < x.shape[0] else "C"
    np.add(out, np.multiply(weight, x, order=order), out=out, order=order)


class _DiagonalRoute:
    """L[diag d] for `Monomial` jumps, in O(nnz) per operand, no product.

    The coherent part -i[H, rho] has the values -i H_ab (d_b - d_a) on H's
    own pattern, nonzero only off the diagonal. A jump L_mu maps each
    basis state c to the one state c ^ flip_mu (or to 0), so
    L_mu rho L_mu^+ and L_mu^+ L_mu rho are both diagonal and the
    dissipator is the Pauli rate equation 2 (Gamma d - K d),
    Gamma_rc = sum_mu |L_mu(r, c)|^2 and K_cc = sum_r Gamma_rc. The weight
    w_mu(c) = |L_mu(c ^ flip_mu, c)|^2 is one number per block of
    `Monomial.blocks`, so (Gamma d)_r = sum_mu (w_mu d)_(r ^ flip_mu) is
    added block by block: d's view at a block's source states, times its
    weight, into the rates' view at their images. The route holds K's
    diagonal (8 bytes per register state), the blocks' index tuples and
    the size of each of H's rows; no array over the register per jump and
    no index of the register states or of H's entries. Each product and
    sum is the one a gather of (w_mu d)[r ^ flip_mu] over the register
    would make, in the same jump order, so the rates are the same floats.

    `image` builds L[rho] as CSR; `residual` takes the Frobenius norm of
    L[rho] - lam rho from the same two parts without building it.
    """

    def __init__(self, ham, jumps):
        n = ham.shape[0]
        self.ham = ham
        self.ham_row_sizes = np.diff(ham.indptr)
        self.loss = np.zeros(n)
        self.gains = []
        for jump in jumps:
            shape, blocks = jump.blocks()
            weights = np.abs([amplitude for *_, amplitude in blocks]) ** 2
            blocks = [(source, target, weight) for (source, target, _), weight
                      in zip(blocks, weights)]
            loss = self.loss.reshape(shape)
            for source, _, weight in blocks:
                loss[source] += weight
            self.gains.append((shape, blocks))

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
        diff = d.take(self.ham.indices)
        diff -= np.repeat(d, self.ham_row_sizes)
        rates = -self.loss * d
        for shape, blocks in self.gains:
            into, source_of = rates.reshape(shape), d.reshape(shape)
            for source, target, weight in blocks:
                _accumulate(into[target], weight, source_of[source])
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

    The jumps are `Monomial`s; their bases are checked once, then each rho
    takes a route:

    * diagonal, when rho is structurally diagonal (every stored entry on
      the diagonal): `_DiagonalRoute`, in O(nnz(H) + m n) for m jumps on
      n states, with no sparse product;
    * product, for any other rho: 4 + 2m products,
      L[rho] = -i(H rho - rho H) - (K rho + rho K) + 2 sum_mu (L_mu rho) L_mu^+,
      on the jumps' CSRs, built for the first such rho. Only K is held
      besides them: an adjoint costs a transposition, far less than a
      product, and holding all m of them would double the jumps' memory.

    Each route's jump-dependent part is formed once per call, when the
    first operand that takes the route arrives.
    """

    def __init__(self, hamiltonian, jumps):
        for jump in jumps:
            if jump.basis != hamiltonian.basis:
                raise BasisMismatchError(
                    f"basis mismatch: jump on {jump.basis!r}, Hamiltonian "
                    f"on {hamiltonian.basis!r}")
        self.hamiltonian = hamiltonian
        self.jumps = jumps
        self.diagonal = self._ops = None

    def diagonal_of(self, rho):
        """rho's diagonal when rho takes the diagonal route, else None."""
        self.hamiltonian.check_basis(rho)
        d = rho.matrix.diagonal()
        if np.count_nonzero(d) != rho.nnz:
            return None
        if self.diagonal is None:
            self.diagonal = _DiagonalRoute(self.hamiltonian.matrix, self.jumps)
        return d

    def product(self, rho):
        """L[rho] by the product route, as a SparseOperator."""
        ham = self.hamiltonian.matrix
        if self._ops is None:
            self._ops = [jump.operator().matrix for jump in self.jumps]
            self._loss = sp.csr_matrix(ham.shape, dtype=np.complex128)
            for op in self._ops:
                self._loss = self._loss + _adjoint(op) @ op
        return SparseOperator(_image(ham, self._loss, self._ops, rho.matrix),
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


_ONE = 1 + 0j   # the identity factor of a term that acts on one side only


def _coherent_values(data, ket_side):
    """The generator's value of each entry of H: of -i H rho on the ket
    side, of rho (+i H_bra) on the bra side, with the identity factor
    multiplied in as the unit entry it is."""
    if ket_side:
        return (data * -1j) * _ONE
    return _ONE * (data * 1j)


def _coherent(ham, own, other, dsec, ket_side):
    """The entries of one coherent term on the pairs of dsec, pair by pair.

    `ham` is H_ket in CSC on the ket side (its column at the ket a gives
    the kets a2 of (-i H rho)_{a2 b}) or H_bra in CSR on the bra side (its
    row at the bra b gives the bras b2 of (rho i H_bra)_{a b2}); `own`
    and `other` are the pairs' states on that side and on the other one.
    Each pair's entries are in H's storage order. Returns the rows,
    columns and values inside the sector, and the squared weight of the
    values outside it."""
    count = np.diff(ham.indptr)[own]
    cols = np.repeat(np.arange(dsec.dim, dtype=np.int32), count)
    skip = ham.indptr[own] - (np.cumsum(count) - count)
    entry = np.arange(cols.size) + np.repeat(skip, count)
    del skip
    moved, fixed = ham.indices[entry], other[cols]
    pos = (dsec.lookup(moved, fixed) if ket_side
           else dsec.lookup(fixed, moved))
    del moved, fixed
    values = _coherent_values(ham.data, ket_side)[entry]
    del entry
    inside = pos >= 0
    leak = 0.0 if inside.all() else float(
        np.sum(np.abs(values[~inside]) ** 2))
    return (pos[inside].astype(np.int32), cols[inside], values[inside]), leak


def _dissipator(jumps, dsec):
    """The entries of the jump terms on the pairs of dsec, jump by jump:
    for the gain 2 L rho L^+, then the losses -K rho and -rho K, the
    rows, columns and values inside the sector, pair by pair; and the
    squared weight of each jump's gain entries outside it. The gain takes
    the pair (a, b) to (a ^ flip, b ^ flip) where the jump's values on a
    and on b are both nonzero; the losses stay on the pair itself."""
    kets, bras = dsec.kets, dsec.bras
    pieces, leaks = [], []
    for jump in jumps:
        on_ket, on_bra = jump.values(kets), jump.values(bras)
        hit = np.flatnonzero((on_ket != 0) & (on_bra != 0))
        pos = dsec.lookup(kets[hit] ^ jump.flip, bras[hit] ^ jump.flip)
        values = (on_ket[hit] * 2.0) * np.conj(on_bra[hit])
        inside = pos >= 0
        leaks.append(float(np.sum(np.abs(values[~inside]) ** 2)))
        pieces.append((pos[inside].astype(np.int32),
                       hit[inside].astype(np.int32), values[inside]))
        for bra_side, x in enumerate((on_ket, on_bra)):
            # -conj(x) x, rounded as a sparse product sums it, then times -1.0
            loss = np.empty_like(x)
            loss.real = x.real * x.real + x.imag * x.imag
            loss.imag = x.real * x.imag - x.imag * x.real
            loss *= -1.0
            kept = np.flatnonzero(loss).astype(np.int32)
            loss = loss[kept]
            pieces.append((kept, kept,
                           _ONE * loss if bra_side else loss * _ONE))
    return pieces, leaks


def _assemble(ham_ket, ham_bra, jumps, dsec, leak_tol):
    """L on the pairs of a DoubleSectorBasis, vectorized over the pairs.

    The terms, each A rho B, are -i H_ket rho and rho (+i H_bra) (ham_bra
    differs from ham_ket only for the double-space twisted variant), and
    for each jump the gain 2 L rho L^+ and the losses -K rho and -rho K,
    K = L^+ L. H is read from its own CSR (and CSC); the jumps, all
    `Monomial`s, from their flips and values on the pairs' states. No
    operator is formed.

    The COO entries come in a fixed order, which fixes how scipy orders
    (and so rounds) the sums of entries that share a position: the two
    coherent terms, then per jump its gain, -K rho and -rho K entries;
    within a term by pair, then by entry. Every term maps a legal sector
    into itself, so the weight of the entries outside it is summed term
    by term, in that order, and refused above `leak_tol`
    (`SectorLeakageError`). A generator with a non-finite entry, from
    rates or couplings whose products overflow, raises
    `NonFiniteGeneratorError`.
    """
    dim, kets, bras = dsec.dim, dsec.kets, dsec.bras
    with np.errstate(over="ignore", invalid="ignore"):
        ket, ket_leak = _coherent(ham_ket.matrix.tocsc(), kets, bras, dsec,
                                  True)
        bra, bra_leak = _coherent(ham_bra.matrix, bras, kets, dsec, False)
        jump_terms, gain_leaks = _dissipator(jumps, dsec)
    leak_sq = sum(gain_leaks, ket_leak + bra_leak)
    # an overflowing weight outside the sector is leakage too
    if not np.sqrt(leak_sq) <= leak_tol:
        raise SectorLeakageError(
            f"Liouvillian couples out of {dsec.tag}: "
            f"||(1-P) L P||_F >= {np.sqrt(leak_sq):.3e}")
    rows, cols, vals = (np.concatenate(p) for p in zip(ket, bra, *jump_terms))
    del ket, bra, jump_terms
    coo = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim))
    del rows, cols, vals
    matrix = coo.tocsr()
    del coo
    matrix.sum_duplicates()
    matrix.sort_indices()
    matrix.eliminate_zeros()
    bad = np.count_nonzero(~np.isfinite(matrix.data))
    if bad:
        raise NonFiniteGeneratorError(
            f"the Liouvillian on {dsec.tag} has {bad} non-finite entries: "
            "products of its rates or couplings overflow")
    return matrix


def _wrap_values(J, phi, variant):
    """Everything the wrap-around hop of `assemble_twisted` takes from the
    phase phi: the generator's twists; the twist phases of H_ket and H_bra,
    reduced to [0, 2 pi) for `twist_term`; the two values it stores in
    H_ket, J e^{i phi} on the rows that raise the wrap link and its
    conjugate on the rows that lower it, as H_bulk + H_twist holds them;
    and the four values of the generator's wrap entries, -i (that pair of
    H_ket) then +i (the same pair of H_bra), as `_assemble` computes
    them."""
    ket = phi % (2 * np.pi)
    if variant == "lindblad":
        twists, bra = (phi, phi), ket
    else:
        twists, bra = (phi, -phi), (-phi) % (2 * np.pi)
    stored = []
    for phase in (ket, bra):
        hop = J * np.exp(1j * phase)   # as `twist_term` forms it
        stored.append(np.array([hop, np.conj(hop)]) + 0j)
    values = np.concatenate([_coherent_values(stored[0], True),
                             _coherent_values(stored[1], False)])
    return twists, (ket, bra), stored[0], values


def _wrap_slots(matrix, ham, dsec):
    """Where a twisted generator and its H_ket hold the wrap-around hop:
    the data positions of the generator's entries that move the wrap link
    of the ket alone or of the bra alone, and which of `_wrap_values`'
    four values each takes; then the same for H_ket and its two values.
    Only the hop across the wrap link flips that link's state on one side
    (a jump's gain flips it on both), so each such entry is that hop's
    single contribution, and the pattern does not depend on the phase."""
    layout = dsec.layout
    slot = layout.link_slot(layout.L)
    rows = np.repeat(np.arange(dsec.dim), np.diff(matrix.indptr))
    ket_bit = state_bit(dsec.kets, slot)
    bra_bit = state_bit(dsec.bras, slot)
    ket_hop = ket_bit[rows] != ket_bit[matrix.indices]
    bra_hop = bra_bit[rows] != bra_bit[matrix.indices]
    slots = np.flatnonzero(ket_hop != bra_hop)
    # raising H entries first: the ket's on the row, the bra's (H_bra's
    # row is the column pair's bra) on the column
    kinds = np.where(ket_hop[slots], 1 - ket_bit[rows[slots]],
                     3 - bra_bit[matrix.indices[slots]])
    h = ham.matrix
    h_rows = np.repeat(np.arange(h.shape[0]), np.diff(h.indptr))
    h_hop = state_bit(h_rows, slot) != state_bit(h.indices, slot)
    ham_slots = np.flatnonzero(h_hop)
    return slots, kinds, ham_slots, 1 - state_bit(h_rows[ham_slots], slot)


def assemble(spec, sector=None, leak_tol=LEAK_TOL):
    """Assembled Liouvillian of a ModelSpec on `sector`, or on the full
    pair space when no sector is given."""
    if sector is None:
        sector = full_pairs(spec.layout)
    h = build_hamiltonian(spec)
    jumps = build_jump_set(spec)
    twists = ((spec.twist, spec.twist) if spec.layout.kind == "chain-pbc"
              else None)
    return Superoperator(_assemble(h, h, jumps, sector, leak_tol), sector, h,
                         jumps, twists)


def assemble_twisted(spec, phi, variant, sector=None, leak_tol=LEAK_TOL):
    """The two twisted-boundary constructions on a periodic chain.

    variant="lindblad"     : proper Lindbladian of H_pbc(phi); its spectrum
                             is phi-independent.
    variant="double-space" : the twist enters the ket and bra copies with
                             the same orientation (+i I (x) H_twist(phi) in
                             the matrix, NOT transposed), so it is not of
                             Lindblad form for phi != 0; spectrum winds and
                             is pi-periodic. Equals "lindblad" at phi = 0.

    The phase enters only the wrap-around hop, whose entries are single
    contributions, so the generator's pattern does not depend on it. The
    result records where the hop sits (`_wrap_slots`), and its `rephase`
    gives the generator at any other phase, bit for bit as this function
    would assemble it, without a new assembly.
    """
    layout = spec.layout
    if layout.kind != "chain-pbc":
        raise AssemblyError("twisted assembly needs a chain-pbc layout")
    if spec.twist:
        raise AssemblyError("pass the twist angle explicitly, not via the spec")
    if variant not in ("lindblad", "double-space"):
        raise AssemblyError(f"unknown twisted variant {variant!r}")
    if sector is None:
        sector = full_pairs(layout)
    twists, (ket, bra), _, _ = _wrap_values(spec.J, phi, variant)
    jumps = build_jump_set(spec)
    bulk = bulk_hamiltonian(layout, spec.J)
    h_ket = bulk + twist_term(layout, spec.J, ket)
    # (I (x) M) vec(rho) = rho M^T, so in the double-space variant the
    # right operand is M^T = H_bulk + H_twist(-phi), which realizes
    # +i I (x) (H_bulk + H_twist(phi))
    h_bra = (h_ket if variant == "lindblad"
             else bulk + twist_term(layout, spec.J, bra))
    matrix = _assemble(h_ket, h_bra, jumps, sector, leak_tol)
    wrap = (spec.J, variant, *_wrap_slots(matrix, h_ket, sector))
    return Superoperator(matrix, sector, h_ket, jumps, twists, wrap)


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

