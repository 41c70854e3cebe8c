"""Exact steady states, eigenoperators, and their layer profiles.

Everything here is diagonal in the spin-register basis and of the form

    rho  proportional to  exp[ sum_site c_site * G_site ],

stored per slot: expanding the generators gives one coefficient c_k per
spin, so the state weight of a basis state is exp(sum_k c_k z_k) with
z_k = bit_k - 1/2. Free parameters enter through the c_site:

* chain (open)   : c_n = ln(alpha) + n ln(beta),          beta = gamma_u/gamma_d
* hierarchical   : c_n = ln(alpha') + n ln(alpha) + n(n-1)/2 ln(beta)
* square-2d      : c_{x,y} = ln(alpha) + x ln(beta) + y ln(beta')

Eigenoperators replace ln(beta) on selected links by ln(-1) = i*pi; the
resulting diagonal is real and signed after removing one global phase
(the per-state phases differ by integer multiples of pi).

Profiles are computed by dynamic programming over the slots with integer
charge keys (doubled where half-integers appear), one row per key and
one column per constraint, moved a whole table per slot as numpy arrays.
Each value carries its own power-of-two exponent and is rescaled by an
exact power of two after every slot, so a long chain's weights never
leave floating-point range (a per-table scale would not do: one L = 100
chain table spans 1e-1360 between its keys), and wherever unscaled
floats stay normal the digits are the ones they would hold. Emptiness
is decided from the keys alone: a sector no key reaches raises
`EmptySectorError` (exit 3 in the CLI); a reached sector whose weight is
zero or not finite raises `UnrepresentableWeightError` (exit 4). A
brute-force enumeration of the same marginals is kept alongside as the
cross-check path.

Materializing many ensembles on one sector (`materialize_each`, the
eigenoperator ladder) enumerates the sector once and takes their log
weights from stacked passes over the register, up to 8 MB each (the
whole L = 7 ladder in one).
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .lattice import (
    LatticeLayout,
    diagonal_operator,
    monomial_operator,
    state_bit,
)
from .symmetry import (
    SectorSpec,
    enumerate_sector,
    gauge_sector_census,
    generator_sites,
    generator_slot_coefficients,
    hierarchical_charge_coefficients,
)


class EnsembleError(ValueError):
    """Malformed ensemble parameters or an empty projection sector."""


class EmptySectorError(EnsembleError):
    """A projection sector with no state."""


class UnrepresentableWeightError(EnsembleError):
    """A reachable charge sector whose weight has no floating-point value:
    an inf or nan coefficient, or complex weights that cancel to zero."""


@dataclass(frozen=True)
class DiagonalEnsemble:
    """Diagonal operator exp(sum_k zcoeff_k z_k), optionally projected."""

    layout: LatticeLayout
    zcoeff: tuple          # complex per-slot coefficients
    constraints: SectorSpec
    label: str

    def coefficient_array(self):
        return np.asarray(self.zcoeff, dtype=np.complex128)

    def log_weight(self, states):
        """Unnormalized log weight of basis states (vectorized), looked up
        in `_register_log_weights`."""
        return _register_log_weights(self.coefficient_array())[
            np.asarray(states)]

    def sector(self):
        return enumerate_sector(self.layout, self.constraints)

    def materialize(self, normalize="trace", strip_phase=True):
        """Full-space sparse diagonal operator on the projection sector,
        built as CSR straight from the ascending sector states.

        normalize: "trace" (fall back to Frobenius for traceless
        operators), "frobenius", or "raw" (still shifted by the largest
        magnitude, so "raw" is defined up to one overall constant).
        """
        return next(materialize_each([self], normalize, strip_phase))


_STACK_BYTES = 1 << 23   # stacked log weights materialize_each holds


def materialize_each(ensembles, normalize="trace", strip_phase=True):
    """`materialize` of each ensemble in turn, the same floats, for
    ensembles on one layout and one projection sector. The sector is
    enumerated once, and the log weights come from passes over the
    register (`_register_log_weights` on stacked coefficients, gathered
    at the sector's states unless the sector is the whole register),
    each stacking at most `_STACK_BYTES` of them: all 64 of the L = 7
    ladder in one, 4 rows at a time at L = 9. A generator: it builds
    one operator at a time."""
    first = ensembles[0]
    if any((ens.layout, ens.constraints) != (first.layout, first.constraints)
           for ens in ensembles):
        raise EnsembleError("materialize_each needs one layout and one sector")
    if normalize not in ("trace", "frobenius", "raw"):
        raise EnsembleError(f"unknown normalization {normalize!r}")
    sec = first.sector()
    if sec.dim == 0:
        raise EmptySectorError(f"empty projection sector for {first.label}")
    coeffs = np.array([ens.coefficient_array() for ens in ensembles])
    rows = max(1, _STACK_BYTES // (16 << first.layout.total_spins))
    for start in range(0, len(coeffs), rows):
        table = _register_log_weights(coeffs[start:start + rows])
        if sec.dim < first.layout.nstates:
            table = table[:, sec.states]
        for logw in table:
            w = np.exp(logw - logw.real.max())
            if strip_phase:
                lead = w[np.argmax(np.abs(w))]
                w = w * (np.abs(lead) / lead)
            if normalize == "trace":
                s = w.sum()
                if np.abs(s) > 1e-12 * np.abs(w).sum():
                    w = w / s
                else:
                    w = w / np.linalg.norm(w)
            elif normalize == "frobenius":
                w = w / np.linalg.norm(w)
            yield monomial_operator(first.layout.total_spins, sec.states, 0, w)


def _register_log_weights(zcoeff):
    """sum_k c_k z_k, z_k = bit_k - 1/2, on every basis state of the
    register, indexed by the state: one doubling per slot, least
    significant first, table -> (table - c_k/2, table + c_k/2). Each state
    gets the same terms in the same order as from a sum over the slots,
    so the values are the same bits. A stack of coefficient rows (shape
    (rows, slots)) gives one table per row from one pass, each the same
    floats as that row's own; the tables are filled in place, so the
    pass allocates them once."""
    zc = np.asarray(zcoeff, dtype=np.complex128)
    rows = np.atleast_2d(zc)
    table = np.zeros((rows.shape[0], 1 << rows.shape[1]), dtype=np.complex128)
    size = 1
    for half in rows.T * 0.5:
        half = half[:, None]
        np.add(table[:, :size], half, out=table[:, size:2 * size])
        table[:, :size] -= half
        size *= 2
    return table.reshape(zc.shape[:-1] + table.shape[-1:])


def generator_sum_coefficients(layout, site_coeffs):
    """Per-slot coefficients of sum_site c_site G_site."""
    sites = generator_sites(layout)
    if len(site_coeffs) != len(sites):
        raise EnsembleError(
            f"need {len(sites)} generator coefficients, got {len(site_coeffs)}")
    out = np.zeros(layout.total_spins, dtype=np.complex128)
    for c, site in zip(site_coeffs, sites):
        out += c * generator_slot_coefficients(layout, site)
    return out


def similarity_transform(layout, site_coeffs, scale=1.0):
    """Diagonal operator exp(scale * sum_site c_site G_site)."""
    zc = generator_sum_coefficients(layout, site_coeffs) * scale
    return diagonal_operator(layout.total_spins,
                             np.exp(_register_log_weights(zc)))


def steady_site_coefficients(layout, beta, alpha=1.0, alpha_prime=1.0,
                             beta_prime=None):
    """The c_site families quoted in the module docstring."""
    if beta <= 0:
        raise EnsembleError(f"beta must be positive, got {beta}")
    if alpha <= 0 or alpha_prime <= 0:
        raise EnsembleError("alpha weights must be positive")
    lb = np.log(beta)
    la = np.log(alpha)
    if layout.kind == "chain-obc":
        return [la + n * lb for n in range(1, layout.L + 1)]
    if layout.kind == "hierarchical":
        lap = np.log(alpha_prime)
        return [lap + n * la + n * (n - 1) / 2 * lb
                for n in range(1, layout.L + 1)]
    if layout.kind == "square-2d":
        if beta_prime is None or beta_prime <= 0:
            raise EnsembleError("square-2d needs a positive beta_prime")
        lbp = np.log(beta_prime)
        return [la + x * lb + y * lbp for (x, y) in generator_sites(layout)]
    raise EnsembleError(
        f"no closed-form steady state for layout {layout.kind!r}")


def exact_steady_state(layout, beta, alpha=1.0, alpha_prime=1.0,
                       beta_prime=None, n_particles=None, hier_charges=None):
    """The analytic steady-state ensemble, optionally charge-projected."""
    coeffs = steady_site_coefficients(layout, beta, alpha, alpha_prime, beta_prime)
    zc = generator_sum_coefficients(layout, coeffs)
    spec = SectorSpec(n_particles=n_particles, hier_charges=hier_charges)
    bits = f"beta={beta}"
    if beta_prime is not None:
        bits += f",beta'={beta_prime}"
    return DiagonalEnsemble(layout, tuple(zc), spec, f"steady[{bits}]")


def exact_eigenoperator(layout, bits, gamma_up, gamma_down, alpha=1.0,
                        n_particles=None):
    """One analytic eigenoperator and its eigenvalue.

    bits : length L-1 sequence over {0, 1}; 0 keeps ln(beta) on that link,
           1 substitutes ln(-1). The eigenvalue is
           -2 (gamma_up + gamma_down) * (number of 1 bits).
    """
    if layout.kind != "chain-obc":
        raise EnsembleError("eigenoperator family lives on open chains")
    if len(bits) != layout.L - 1 or any(b not in (0, 1) for b in bits):
        raise EnsembleError(f"bits must be {layout.L - 1} values in {{0,1}}")
    if gamma_up <= 0 or gamma_down <= 0:
        raise EnsembleError("rates must be positive")
    log_betas = [np.log(gamma_up / gamma_down) if b == 0 else 1j * np.pi
                 for b in bits]
    coeffs = [np.log(alpha) + np.sum(log_betas[:n - 1], initial=0.0)
              for n in range(1, layout.L + 1)]
    zc = generator_sum_coefficients(layout, coeffs)
    lam = -2.0 * (gamma_up + gamma_down) * sum(bits)
    ens = DiagonalEnsemble(layout, tuple(zc),
                           SectorSpec(n_particles=n_particles),
                           f"eig[k={''.join(str(b) for b in bits)}]")
    return ens, lam


def eigenoperator_set(layout, gamma_up, gamma_down, alpha=1.0):
    """All 2**(L-1) eigenoperators, lexicographic in the bit string."""
    out = []
    for bits in itertools.product((0, 1), repeat=layout.L - 1):
        ens, lam = exact_eigenoperator(layout, bits, gamma_up, gamma_down, alpha)
        out.append((bits, ens, lam))
    return out


def special_steady_states(layout, family, n_particles=None):
    """Steady families without a bias direction.

    family="x-like-symmetric": the per-N identity (steady when
    gamma_up = gamma_down); one ensemble per particle number, or the
    requested one.
    family="dephasing": the uniform mixture inside each nonempty gauge
    configuration.
    """
    if family == "x-like-symmetric":
        fillings = range(layout.L + 1) if n_particles is None else [n_particles]
        return [DiagonalEnsemble(layout, (0.0,) * layout.total_spins,
                                 SectorSpec(n_particles=n), f"identity[N={n}]")
                for n in fillings]
    if family == "dephasing":
        configs, _ = gauge_sector_census(layout)
        return [DiagonalEnsemble(
            layout, (0.0,) * layout.total_spins,
            SectorSpec(gauge=tuple(int(v) for v in cfg)),
            "uniform[g=" + ",".join(str(int(v)) for v in cfg) + "]")
            for cfg in configs]
    raise EnsembleError(f"unknown special family {family!r}")


# -- profiles ------------------------------------------------------------

def _constraint_list(layout, spec):
    """(q_up, q_down, target) integer triples for the DP charge lattice."""
    cons = []
    total = layout.total_spins
    if spec.n_particles is not None:
        qup = np.zeros(total, dtype=np.int64)
        qup[layout.site_slots] = 1
        cons.append((qup, np.zeros(total, dtype=np.int64), int(spec.n_particles)))
    if spec.hier_charges is not None:
        qn, qd = hierarchical_charge_coefficients(layout)
        n2, d2 = spec.hier_charges
        cons += [(qn, -qn, int(n2)), (qd, -qd, int(d2))]
    if spec.gauge is not None:
        for g2, site in zip(spec.gauge, generator_sites(layout)):
            a = generator_slot_coefficients(layout, site).astype(np.int64)
            cons.append((a, -a, int(g2)))
    return cons


_CODE_LIMIT = 2 ** 62   # the linear codes' range, slot included


class _KeyCodes:
    """int64 codes of charge keys (rows of integer charges, one column
    per constraint), equal exactly where the rows are equal.

    Every partial sum of a constraint's shifts, forward or backward, lies
    in [lo, hi] (lo <= 0 <= hi), and the marginals compare the sum of two
    such keys with a target in the same box. So the codes are linear,
    code(x) = sum_j x_j s_j with the mixed-radix strides s_j of
    2 (hi_j - lo_j) + 1: linear codes turn sums of keys into sums of codes,
    and these radices keep every difference the DP compares inside one
    digit. When the strides would leave int64 (many constraints, as gauge
    keys have), rows are numbered by `np.unique` instead.
    """

    def __init__(self, lo, hi, slots):
        radix = [2 * int(h - l) + 1 for l, h in zip(lo, hi)]
        self.span = int(np.prod(radix, dtype=object))
        self.strides = None
        if self.span * slots < _CODE_LIMIT:
            self.strides = np.cumprod([1] + radix, dtype=np.int64)[:-1]

    def __call__(self, rows, slot=None):
        """Codes of `rows`, and with `slot` (one slot index per row) of the
        pairs (slot, row). Codes from separate calls compare only when the
        strides are linear, so rows to be matched go into one call."""
        if self.strides is not None:
            codes = rows @ self.strides
            return codes if slot is None else slot * self.span + codes
        if slot is not None:
            rows = np.column_stack([slot, rows])
        return np.unique(rows, axis=0, return_inverse=True)[1].reshape(-1)


def _ldexp(values, exponents):
    """values * 2**exponents, exactly, for real or complex values."""
    if np.iscomplexobj(values):
        return np.ldexp(values.view(np.float64),
                        np.repeat(exponents, 2)).view(np.complex128)
    return np.ldexp(values, exponents)


def _normalized(values, exponents):
    """(mantissas, exponents) of values * 2**exponents, each mantissa's
    larger part in [1/2, 1) (or 0), by exact powers of two."""
    if not np.iscomplexobj(values):
        mant, shift = np.frexp(values)
        return mant, exponents + shift
    part = np.maximum(np.abs(values.real), np.abs(values.imag))
    shift = np.frexp(part)[1]
    return _ldexp(values, -shift), exponents + shift


def _combine(index, terms, exponents, size):
    """(mantissa, exponent) of sum_j terms[j] * 2**exponents[j] over
    index[j] = i, for every i < size, each added in input order from 0:
    the terms of one i are first brought to their largest exponent by
    exact powers of two, so the sum is the one unscaled floats would give
    wherever those stay normal. An i without terms gives 0."""
    top = np.zeros(size, dtype=np.int64)
    top[index] = exponents
    np.maximum.at(top, index, exponents)
    total = _add_by_index(index, _ldexp(terms, exponents - top[index]), size)
    return _normalized(total, top)


def _add_by_index(index, terms, size):
    """out[i] = the sum of terms[index == i], each in input order from 0."""
    if not np.iscomplexobj(terms):
        return np.bincount(index, terms, size)
    out = np.empty(size, dtype=np.complex128)
    out.real = np.bincount(index, terms.real, size)
    out.imag = np.bincount(index, terms.imag, size)
    return out


def _dp_step(table, weights, up, dn, moves, codes):
    """One slot of the DP: every key moves by the up and by the down shift,
    with its value times that shift's weight, and coinciding keys add.
    The keys come out in the order in which a dict filled key by key, up
    before down, would first see them; each sum has at most two terms
    (one from each shift), so the values are the floats such a dict
    would add up, times a power of two per key."""
    keys, mant, exps = table
    (w_up, e_up), (w_dn, e_dn) = weights
    if not moves:   # no constraint tells the two shifts apart: no merge
        index = np.concatenate([np.arange(len(keys))] * 2)
        return (keys + up, *_combine(
            index, np.concatenate([mant * w_up, mant * w_dn]),
            np.concatenate([exps + e_up, exps + e_dn]), len(keys)))
    # interleaved, as a dict meets them: up then down, key by key
    rows = np.empty((2 * len(keys), keys.shape[1]), dtype=np.int64)
    rows[0::2], rows[1::2] = keys + up, keys + dn
    terms = np.empty(2 * len(mant), dtype=mant.dtype)
    terms[0::2], terms[1::2] = mant * w_up, mant * w_dn
    powers = np.repeat(exps, 2)
    if e_up or e_dn:
        powers += np.tile([e_up, e_dn], len(exps))
    first, index = _first_seen(codes(rows))
    return rows[first], *_combine(index, terms, powers, first.size)


def _first_seen(codes):
    """The positions at which each distinct code of `codes` is first seen,
    ascending (the order in which a dict would first meet them), and for
    every code the rank of its value in that order. The first positions
    come from one table over the codes' range; a range much wider than
    the codes is first renumbered by `np.unique`."""
    n = codes.size
    if not n:
        return codes, codes
    if codes.max() - codes.min() > 8 * n + 1024:
        codes = np.unique(codes, return_inverse=True)[1].reshape(-1)
    codes = codes - codes.min()
    seen = np.full(codes.max() + 1, n)
    np.minimum.at(seen, codes, np.arange(n))
    first = np.sort(seen[seen < n])
    rank = np.empty(seen.size, dtype=np.int64)
    rank[codes[first]] = np.arange(first.size)
    return first, rank[codes]


def _dp_sweep(slot_order, weights, qup, qdn, target, closing, codes):
    """The DP tables over the slots in `slot_order`, each (keys, mantissas,
    exponents), a value being its mantissa times 2**exponent. After the
    step at a slot that `closing` maps to constraints, only keys at those
    constraints' targets are kept."""
    (w_up, e_up), (w_dn, e_dn) = weights
    moves = (qup != qdn).any(axis=1).tolist()
    e_up, e_dn = e_up.tolist(), e_dn.tolist()
    table = (np.zeros((1, len(target)), dtype=np.int64),
             np.ones(1, dtype=w_up.dtype), np.zeros(1, dtype=np.int64))
    tables = [table]
    for k in slot_order:
        table = _dp_step(table, ((w_up[k], e_up[k]), (w_dn[k], e_dn[k])),
                         qup[k], qdn[k], moves[k], codes)
        done = closing.get(k)
        if done is not None:
            keep = np.all(table[0][:, done] == target[done], axis=1)
            table = tuple(x[keep] for x in table)
        tables.append(table)
    return tables


def _slot_weight(x):
    """exp(x) as (mantissa, exponent), exp(x) = mantissa * 2**exponent:
    np.exp(x) itself with exponent 0 where it stays normal, and
    exp(x - e ln 2) with exponent e where it would underflow."""
    e = np.where(x.real < -700.0, np.ceil(x.real / np.log(2.0)), 0.0)
    return np.exp(x - e * np.log(2.0)), e.astype(np.int64)


def _dp_bit_marginals(zcoeff, constraints):
    """P(bit_k = 1) for the weighted, charge-constrained product measure.

    Charge keys are integer rows (doubled charges stay integer), one
    column per constraint, held as arrays: each slot moves a whole table
    at once (`_dp_step`). Weights are per-slot max-normalized, and every
    value carries its own power-of-two exponent, rescaled exactly after
    each slot (the scaled forward-backward recursion of Rabiner, Proc.
    IEEE 77, 257 (1989), with one scale per key: at L = 100 one chain
    table spans 1e-1360 between its keys, more than any one scale could
    hold). Where the floats stay normal the mantissas are the digits an
    unscaled DP would hold. Keys whose already-completed charge
    components miss their target are pruned as soon as the last
    supporting slot has been consumed.

    Emptiness is decided from the keys alone: a sector no key reaches
    raises `EmptySectorError`. A reached sector whose weight is not
    finite (an inf or nan coefficient) or zero (complex weights that
    cancel) raises `UnrepresentableWeightError`. Finite coefficients
    give finite, nonzero slot weights (`_slot_weight`), so every other
    reached sector has a weight.

    All slots' marginals come from one reduction: every forward key of
    every slot is matched with the backward key completing it to the
    target, and the products are summed per slot in forward-table order.
    """
    total = len(zcoeff)
    c = np.asarray(zcoeff, dtype=np.complex128)
    finite = np.isfinite(c).all()
    if not finite:   # the keys alone still decide emptiness
        c = np.zeros_like(c)
    shift = np.abs(c.real) / 2
    weights = [_slot_weight(c / 2 - shift), _slot_weight(-c / 2 - shift)]
    if not any(w.imag.any() for w, _ in weights):
        # the real parts are the products and sums a complex DP would form
        weights = [(w.real, e) for w, e in weights]
    ncons = len(constraints)
    qup = np.array([q[0] for q in constraints], dtype=np.int64).reshape(ncons, total).T
    qdn = np.array([q[1] for q in constraints], dtype=np.int64).reshape(ncons, total).T
    target = np.array([int(q[2]) for q in constraints], dtype=np.int64)
    lo = np.minimum(np.minimum(qup, qdn), 0).sum(axis=0)
    hi = np.maximum(np.maximum(qup, qdn), 0).sum(axis=0)
    if np.any((target < lo) | (target > hi)):
        raise EmptySectorError("no state reaches the charge sector")
    codes = _KeyCodes(lo, hi, total)
    supported = (qup != 0) | (qdn != 0)
    first, last = {}, {}
    for j in range(ncons):
        slots = np.flatnonzero(supported[:, j])
        if slots.size:
            first.setdefault(int(slots[0]), []).append(j)
            last.setdefault(int(slots[-1]), []).append(j)

    forward = _dp_sweep(range(total), weights, qup, qdn, target, last, codes)
    keys, mant, exps = forward[total]
    at_target = np.all(keys == target, axis=1)
    if not at_target.any():
        raise EmptySectorError("no state reaches the charge sector")
    if not finite:
        raise UnrepresentableWeightError(
            "the charge sector is reached, but its weight is not finite: "
            "a coefficient is inf or nan")
    z, z_exponent = mant[at_target][0], exps[at_target][0]
    if z == 0:
        raise UnrepresentableWeightError(
            "the charge sector is reached, but its weights cancel to zero")
    backward = _dp_sweep(range(total - 1, -1, -1), weights, qup, qdn, target,
                         first, codes)[::-1]

    # forward keys of slot k raised at k, and the backward keys of k+1 as
    # the keys that would complete them: target minus the backward key
    slot = np.arange(total)
    f_slot = np.repeat(slot, [len(forward[k][0]) for k in slot])
    b_slot = np.repeat(slot, [len(backward[k + 1][0]) for k in slot])
    both = codes(np.concatenate([forward[k][0] + qup[k] for k in slot]
                                + [target - backward[k + 1][0] for k in slot]),
                 np.concatenate([f_slot, b_slot]))
    f_codes, b_codes = both[:f_slot.size], both[f_slot.size:]
    (w_up, e_up), _ = weights
    f_vals = np.concatenate([forward[k][1] for k in slot]) * w_up[f_slot]
    f_exps = np.concatenate([forward[k][2] for k in slot]) + e_up[f_slot]
    b_vals = np.concatenate([backward[k + 1][1] for k in slot])
    b_exps = np.concatenate([backward[k + 1][2] for k in slot])
    order = np.argsort(b_codes)
    pos = np.searchsorted(b_codes, f_codes, sorter=order)
    match = order[np.minimum(pos, b_codes.size - 1)]
    hit = np.flatnonzero(b_codes[match] == f_codes)
    acc, acc_exponent = _combine(f_slot[hit], f_vals[hit] * b_vals[match[hit]],
                                 f_exps[hit] + b_exps[match[hit]], total)
    # complex division, as the scalars of a complex DP divide
    ratio = acc.astype(np.complex128) / np.complex128(z)
    return _ldexp(ratio, acc_exponent - z_exponent)


def _layer_views(layout, p_up):
    sites = p_up[layout.site_slots]
    links = p_up[layout.link_slots] - 0.5
    if layout.kind == "hierarchical":
        mid = p_up[[layout.mid_slot(m) for m in range(1, layout.L)]]
        return {"top_density": sites, "top_sz": sites - 0.5,
                "mid_sz": mid - 0.5, "bot_sz": links}
    if layout.kind == "square-2d":
        Lx, Ly = layout.L, layout.Ly
        return {"site_density": sites.reshape(Ly, Lx),
                "hlink_sz": links[:(Lx - 1) * Ly].reshape(Ly, Lx - 1),
                "vlink_sz": links[(Lx - 1) * Ly:].reshape(Ly - 1, Lx)}
    return {"site_density": sites, "link_sz": links}


def _realize(layers):
    out = {}
    for name, arr in layers.items():
        if np.abs(arr.imag).max(initial=0.0) > 1e-9:
            raise EnsembleError(f"marginal {name} has imaginary defect; "
                                "profiles need a positive ensemble")
        out[name] = arr.real
    return out


def ensemble_marginals(ens):
    """Per-layer occupation/polarization profiles by constrained DP."""
    cons = _constraint_list(ens.layout, ens.constraints)
    p_up = _dp_bit_marginals(ens.coefficient_array(), cons)
    return _realize(_layer_views(ens.layout, p_up))


def enumeration_marginals(ens, max_spins=16):
    """Brute-force marginals; the independent cross-check of the DP path."""
    if ens.layout.total_spins > max_spins:
        raise EnsembleError("enumeration limited to small registers")
    sec = ens.sector()
    if sec.dim == 0:
        raise EmptySectorError(f"empty projection sector for {ens.label}")
    logw = ens.log_weight(sec.states)
    w = np.exp(logw - logw.real.max())
    z = w.sum()
    p_up = np.array([np.sum(w * state_bit(sec.states, k)) / z
                     for k in range(ens.layout.total_spins)])
    return _realize(_layer_views(ens.layout, p_up))


def link_polarization(beta):
    """The uniform link magnetization (beta - 1) / (2 beta + 2)."""
    return (beta - 1.0) / (2.0 * beta + 2.0)


def centered_quadrupole(values):
    """sum_n (n - (L+1)/2)^2 v_n for a 1-based profile array."""
    v = np.asarray(values)
    n = np.arange(1, v.size + 1)
    return float(np.sum((n - (v.size + 1) / 2) ** 2 * v))
