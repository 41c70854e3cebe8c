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
charge lattices (doubled where half-integers appear), with per-slot
magnitude normalization so that L = 24 chains and L = 14 ladders stay in
floating-point range; a brute-force enumeration of the same marginals is
kept alongside as the cross-check path.
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
    """A projection sector with no state, or with a vanishing weight."""


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
        sec = self.sector()
        if sec.dim == 0:
            raise EmptySectorError(f"empty projection sector for {self.label}")
        logw = self.log_weight(sec.states)
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
        elif normalize != "raw":
            raise EnsembleError(f"unknown normalization {normalize!r}")
        return monomial_operator(self.layout.total_spins, sec.states, 0, w)


def _register_log_weights(zcoeff):
    """sum_k c_k z_k, z_k = bit_k - 1/2, on every basis state of the
    register, indexed by the state: one outer sum per slot, least
    significant first, table -> (table - c_k/2, table + c_k/2). Each state
    gets the same terms in the same order as from a sum over the slots,
    so the values are the same bits."""
    table = np.zeros(1, dtype=np.complex128)
    for c in np.asarray(zcoeff, dtype=np.complex128):
        half = c * 0.5
        table = np.concatenate([table - half, table + half])
    return table


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


def _dp_step(table, w_up_k, w_dn_k, up_shift, dn_shift):
    nxt = {}
    for key, val in table.items():
        ku = tuple(a + b for a, b in zip(key, up_shift))
        nxt[ku] = nxt.get(ku, 0.0) + val * w_up_k
        kd = tuple(a + b for a, b in zip(key, dn_shift))
        nxt[kd] = nxt.get(kd, 0.0) + val * w_dn_k
    return nxt


def _dp_bit_marginals(zcoeff, constraints):
    """P(bit_k = 1) for the weighted, charge-constrained product measure.

    Charge keys live on an integer lattice (doubled charges stay
    integer); weights are per-slot max-normalized so the partition ratio
    never leaves floating-point range. Keys whose already-completed
    charge components miss their target are pruned as soon as the last
    supporting slot has been consumed.
    """
    total = len(zcoeff)
    c = np.asarray(zcoeff, dtype=np.complex128)
    shift = np.abs(c.real) / 2
    w_up = np.exp(c / 2 - shift)
    w_dn = np.exp(-c / 2 - shift)
    ncons = len(constraints)
    qup = np.array([q[0] for q in constraints], dtype=np.int64).reshape(ncons, total)
    qdn = np.array([q[1] for q in constraints], dtype=np.int64).reshape(ncons, total)
    target = tuple(int(q[2]) for q in constraints)
    zero = (0,) * ncons
    support = np.abs(qup) + np.abs(qdn) > 0
    first = [int(np.argmax(row)) if row.any() else total for row in support]
    last = [total - 1 - int(np.argmax(row[::-1])) if row.any() else -1
            for row in support]

    forward = [None] * (total + 1)
    forward[0] = {zero: 1.0 + 0j}
    for k in range(total):
        nxt = _dp_step(forward[k], w_up[k], w_dn[k],
                       tuple(qup[:, k]), tuple(qdn[:, k]))
        done = [j for j in range(ncons) if last[j] == k]
        if done:
            nxt = {key: val for key, val in nxt.items()
                   if all(key[j] == target[j] for j in done)}
        forward[k + 1] = nxt

    z = forward[total].get(target, 0.0)
    if not forward[total] or abs(z) < 1e-300:
        raise EmptySectorError("empty or numerically vanishing charge sector")

    backward = [None] * (total + 1)
    backward[total] = {zero: 1.0 + 0j}
    for k in range(total - 1, -1, -1):
        nxt = _dp_step(backward[k + 1], w_up[k], w_dn[k],
                       tuple(qup[:, k]), tuple(qdn[:, k]))
        done = [j for j in range(ncons) if first[j] == k]
        if done:
            nxt = {key: val for key, val in nxt.items()
                   if all(key[j] == target[j] for j in done)}
        backward[k] = nxt

    p_up = np.zeros(total, dtype=np.complex128)
    for k in range(total):
        up_shift = tuple(qup[:, k])
        acc = 0.0 + 0j
        for key, val in forward[k].items():
            need = tuple(t - a - b for t, a, b in zip(target, key, up_shift))
            tail = backward[k + 1].get(need)
            if tail is not None:
                acc += val * w_up[k] * tail
        p_up[k] = acc / z
    return p_up


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
