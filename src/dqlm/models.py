"""Hamiltonians, jump-operator families, and symmetry-preserving disorder.

The Hamiltonian builders return `SparseOperator`s on the layout's spin
register; `build_jump_set` returns `Monomial`s on it (`lattice`), since
every jump takes each state to at most one state. Couplings: chains use
J (and the boundary twist phi enters only the wrap-around term, so
H_pbc(phi) = H_obc + H_twist(phi)); the hierarchical ladder and the 2D
lattice use (J1, J2) for the two term species.

Jump families, one list entry per operator:

* biased        : sqrt(gamma_up) s^+ and sqrt(gamma_down) s^- per link
                  (hierarchical: bottom layer; 2D: horizontal links with
                  (gamma_up, gamma_down), vertical with the _v rates)
* x-like        : sqrt(gamma_up) s^+ + sqrt(gamma_down) s^- per link, one
                  operator per link, chains only
* dephasing     : sqrt(gamma) s^z per link, chains only
* gauge-fix     : sqrt(strength) G_n per site, any layout
* effective-asep: sqrt(gamma_right) tau_{n+1}^+ tau_n^- and
                  sqrt(gamma_left) tau_n^+ tau_{n+1}^- per bond, acting on
                  sites only, chains only
"""

import math
import numbers
from dataclasses import asdict, dataclass, fields

import numpy as np
import scipy.sparse as sp

from .lattice import (
    LatticeLayout,
    SparseOperator,
    build_layout,
    is_integer,
    single_spin_operator,
    state_bit,
    transition_entries,
    transition_operator,
)
from .symmetry import gauss_generator, generator_sites

HAMILTONIAN_KINDS = ("qlm", "hierarchical", "qlm-2d", "none")
# each jump family and the JumpSpec rates it reads
JUMP_RATES = {
    "biased": ("gamma_up", "gamma_down", "gamma_up_v", "gamma_down_v"),
    "x-like": ("gamma_up", "gamma_down"),
    "dephasing": ("gamma",),
    "gauge-fix": ("strength",),
    "effective-asep": ("gamma_right", "gamma_left"),
}
JUMP_FAMILIES = tuple(JUMP_RATES)


class ModelError(ValueError):
    """Inconsistent model specification."""


def is_number(value):
    """A finite real number that is not a bool: JSON `true` is no rate,
    and `NaN` or `Infinity`, which `json.load` reads, is no number."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _check_numbers(spec, low=None):
    """Refuse a `float` field of `spec` that is not a number and an `int`
    field that is not an integer, or either below `low`."""
    for f in fields(spec):
        what, ok = {float: ("a number", is_number),
                    int: ("an integer", is_integer)}.get(f.type, ("", None))
        value = getattr(spec, f.name)
        if ok and not (ok(value) and (low is None or value >= low)):
            bound = "" if low is None else f" >= {low}"
            raise ModelError(f"{f.name} must be {what}{bound}, got {value!r}")


@dataclass(frozen=True)
class DisorderSpec:
    """Symmetry-preserving disorder: site fields h_n, link fields h'_m
    (both uniform on [-field_strength, field_strength]) and next-nearest
    couplings J'_n (uniform on [0, long_range_strength]), drawn in that
    order from one seeded generator."""

    field_strength: float = 0.5
    long_range_strength: float = 0.5
    seed: int = 0

    def __post_init__(self):
        _check_numbers(self, low=0)


@dataclass(frozen=True)
class JumpSpec:
    """One jump family and its rates. A nonzero rate that the family does
    not read (see `JUMP_RATES`) is refused."""

    family: str
    gamma_up: float = 0.0
    gamma_down: float = 0.0
    gamma_up_v: float = 0.0
    gamma_down_v: float = 0.0
    gamma: float = 0.0
    strength: float = 0.0
    gamma_right: float = 0.0
    gamma_left: float = 0.0

    def __post_init__(self):
        if self.family not in JUMP_FAMILIES:
            raise ModelError(f"unknown jump family {self.family!r}")
        _check_numbers(self, low=0)
        rates = [f.name for f in fields(self) if f.name != "family"]
        unread = [name for name in rates if getattr(self, name)
                  and name not in JUMP_RATES[self.family]]
        if unread:
            raise ModelError(
                f"{self.family} jumps do not read "
                + ", ".join(f"{name}={getattr(self, name)}" for name in unread)
                + f"; they read {'/'.join(JUMP_RATES[self.family])}")


@dataclass(frozen=True)
class ModelSpec:
    layout: LatticeLayout
    hamiltonian: str = "qlm"
    J: float = 1.0
    J1: float = 1.0
    J2: float = 1.0
    twist: float = 0.0
    jumps: tuple = ()
    disorder: DisorderSpec = None

    def __post_init__(self):
        if self.hamiltonian not in HAMILTONIAN_KINDS:
            raise ModelError(f"unknown hamiltonian kind {self.hamiltonian!r}")
        _check_numbers(self)
        kind = self.layout.kind
        if self.hamiltonian == "qlm" and kind not in ("chain-obc", "chain-pbc"):
            raise ModelError("qlm hamiltonian needs a chain layout")
        if self.hamiltonian == "hierarchical" and kind != "hierarchical":
            raise ModelError("hierarchical hamiltonian needs the hierarchical layout")
        if self.hamiltonian == "qlm-2d" and kind != "square-2d":
            raise ModelError("qlm-2d hamiltonian needs the square-2d layout")
        if not 0 <= self.twist < 2 * np.pi:
            raise ModelError(f"twist {self.twist} outside [0, 2pi)")
        if self.twist and kind != "chain-pbc":
            raise ModelError("twist only applies to chain-pbc")
        if self.disorder is not None and kind != "chain-obc":
            raise ModelError("disorder is defined for open chains only")
        for j in self.jumps:
            if not isinstance(j, JumpSpec):
                raise ModelError("jumps must be JumpSpec instances")
            if j.family in ("x-like", "dephasing", "effective-asep") and \
                    kind not in ("chain-obc", "chain-pbc"):
                raise ModelError(f"{j.family} jumps are defined on chains only")
        if self.jumps and not any(getattr(j, rate) for j in self.jumps
                                  for rate in JUMP_RATES[j.family]):
            raise ModelError(
                "every rate the jump families read is zero, so the model "
                "has no dissipation: " + ", ".join(
                    f"{j.family} reads {'/'.join(JUMP_RATES[j.family])}"
                    for j in self.jumps))

    def to_dict(self):
        d = {
            "layout": {"kind": self.layout.kind, "L": self.layout.L},
            "hamiltonian": {"kind": self.hamiltonian, "J": self.J,
                            "J1": self.J1, "J2": self.J2, "twist": self.twist},
            "jumps": [asdict(j) for j in self.jumps],
        }
        if self.layout.kind == "square-2d":
            d["layout"]["Ly"] = self.layout.Ly
        if self.disorder is not None:
            d["disorder"] = asdict(self.disorder)
        return d

    @staticmethod
    def from_dict(d):
        """Inverse of `to_dict`, and the one parser of a config's model
        section. A "qlm" Hamiltonian kind (the default) on a hierarchical
        or square-2d layout means that layout's own Hamiltonian. Refuses
        an unknown or missing key and a non-object where an object
        belongs; the dataclasses it fills check the values."""
        _section(d, "model", ("layout", "hamiltonian", "jumps", "disorder"),
                 ("layout",))
        lay = _section(d["layout"], "model.layout", ("kind", "L", "Ly"),
                       ("kind", "L"))
        layout = build_layout(lay["kind"], lay["L"], lay.get("Ly", 0))
        ham = _section(d.get("hamiltonian", {}), "model.hamiltonian",
                       ("kind", "J", "J1", "J2", "twist"))
        kind = ham.get("kind", "qlm")
        if kind == "qlm":
            kind = {"hierarchical": "hierarchical",
                    "square-2d": "qlm-2d"}.get(layout.kind, kind)
        jumps = d.get("jumps", [])
        if not isinstance(jumps, list):
            raise ModelError(f"model.jumps must be a list, got {jumps!r}")
        jump_keys = tuple(f.name for f in fields(JumpSpec))
        jumps = tuple(JumpSpec(**_section(j, f"model.jumps[{i}]", jump_keys,
                                          ("family",)))
                      for i, j in enumerate(jumps))
        dis = d.get("disorder")
        if dis is not None:
            _section(dis, "model.disorder",
                     tuple(f.name for f in fields(DisorderSpec)))
        dis = DisorderSpec(**dis) if dis else None
        return ModelSpec(layout, kind, J=ham.get("J", 1.0),
                         J1=ham.get("J1", 1.0), J2=ham.get("J2", 1.0),
                         twist=ham.get("twist", 0.0), jumps=jumps, disorder=dis)


def _section(value, where, keys, required=()):
    """`value` itself, once it is a dict holding only `keys` and every
    key in `required`."""
    if not isinstance(value, dict):
        raise ModelError(f"{where} must be an object, got {value!r}")
    for key in value:
        if key not in keys:
            raise ModelError(f"unknown key {key!r} in {where}")
    for key in required:
        if key not in value:
            raise ModelError(f"{where} needs {key!r}")
    return value


def _zero_operator(layout):
    n = layout.nstates
    return SparseOperator(sp.csr_matrix((n, n), dtype=np.complex128),
                          layout.basis_tag)


def _hopping_sum(layout, hops, diagonal=None):
    """The sum of a prod s^+_(plus) prod s^-_(minus) + h.c. over `hops`,
    (plus, minus, a) each, plus an optional diagonal, as one COO matrix
    converted once. Distinct terms never share an entry, so each entry is
    the one term that holds it, as in an operator sum taken term by term.
    A term fixes len(plus) + len(minus) spins, so it has 2^(spins - that)
    entries, and the COO arrays are filled in place."""
    total, n = layout.total_spins, layout.nstates
    sizes = [n >> (len(plus) + len(minus)) for plus, minus, _ in hops]
    nnz = 2 * sum(sizes) + (0 if diagonal is None else n)
    rows = np.empty(nnz, dtype=np.int32)
    cols = np.empty(nnz, dtype=np.int32)
    data = np.empty(nnz, dtype=np.complex128)
    at = 0
    for (plus, minus, amplitude), size in zip(hops, sizes):
        r, c = transition_entries(total, plus, minus)
        for rr, cc, value in ((r, c, amplitude), (c, r, np.conj(amplitude))):
            rows[at:at + size], cols[at:at + size] = rr, cc
            data[at:at + size] = value
            at += size
    if diagonal is not None:
        rows[at:] = cols[at:] = np.arange(n)
        data[at:] = diagonal
    return SparseOperator(sp.csr_matrix((data, (rows, cols)), shape=(n, n)),
                          layout.basis_tag)


def bulk_hamiltonian(layout, J):
    """Open-chain hopping sum on a chain register (PBC register included,
    boundary link untouched)."""
    return _hopping_sum(layout, [
        ((layout.site_slot(n), layout.link_slot(n)), (layout.site_slot(n + 1),), J)
        for n in range(1, layout.L)])


def twist_term(layout, J, phi):
    """The wrap-around hopping J e^{i phi} tau_L^+ s_{L,1}^+ tau_1^- + h.c."""
    if layout.kind != "chain-pbc":
        raise ModelError("twist term needs chain-pbc")
    return _hopping_sum(layout, [
        ((layout.site_slot(layout.L), layout.link_slot(layout.L)),
         (layout.site_slot(1),), J * np.exp(1j * phi))])


def disorder_terms(layout, dis):
    """delta-H (site and link fields) + delta-H' (next-nearest hops)."""
    rng = np.random.default_rng(dis.seed)
    L = layout.L
    W, W2 = dis.field_strength, dis.long_range_strength
    h = rng.uniform(-W, W, size=L)
    hp = rng.uniform(-W, W, size=L - 1)
    jp = rng.uniform(0.0, W2, size=max(L - 2, 0))
    idx = np.arange(layout.nstates, dtype=np.int64)
    diag = np.zeros(layout.nstates)
    for n in range(1, L + 1):
        diag += h[n - 1] * (state_bit(idx, layout.site_slot(n)) - 0.5)
    for m in range(1, L):
        diag += hp[m - 1] * (state_bit(idx, layout.link_slot(m)) - 0.5)
    return _hopping_sum(layout, [
        ((layout.site_slot(n), layout.link_slot(n), layout.link_slot(n + 1)),
         (layout.site_slot(n + 2),), jp[n - 1])
        for n in range(1, L - 1)], diag)


def build_hamiltonian(spec):
    """Hermitian Hamiltonian of a `ModelSpec` (zero operator for "none")."""
    layout = spec.layout
    if spec.hamiltonian == "none":
        return _zero_operator(layout)
    if spec.hamiltonian == "qlm":
        h = bulk_hamiltonian(layout, spec.J)
        if layout.kind == "chain-pbc":
            h = h + twist_term(layout, spec.J, spec.twist)
        if spec.disorder is not None:
            h = h + disorder_terms(layout, spec.disorder)
        return h
    if spec.hamiltonian == "hierarchical":
        hops = [((layout.top_slot(n), layout.mid_slot(n)),
                 (layout.top_slot(n + 1),), spec.J1)
                for n in range(1, layout.L)]
        hops += [((layout.mid_slot(n), layout.bot_slot(n + 1)),
                  (layout.mid_slot(n + 1),), spec.J2)
                 for n in range(1, layout.L - 1)]
        return _hopping_sum(layout, hops)
    # qlm-2d
    hops = [((layout.site_slot_2d(x, y), layout.hlink_slot(x, y)),
             (layout.site_slot_2d(x + 1, y),), spec.J1)
            for y in range(1, layout.Ly + 1) for x in range(1, layout.L)]
    hops += [((layout.site_slot_2d(x, y), layout.vlink_slot(x, y)),
              (layout.site_slot_2d(x, y + 1),), spec.J2)
             for y in range(1, layout.Ly) for x in range(1, layout.L + 1)]
    return _hopping_sum(layout, hops)


def build_jump_set(spec):
    """All jump operators of the spec as `Monomial`s, flattened in a
    pinned order: per family in spec order; within a family, link/site
    order; biased emits the s^+ operator before the s^- operator per
    link."""
    layout = spec.layout
    total = layout.total_spins
    links = layout.link_slots
    ops = []
    for j in spec.jumps:
        if j.family == "biased":
            # on square-2d the vertical links, after the horizontal
            # ones, take the _v rates
            n_horizontal = (layout.L - 1) * layout.Ly \
                if layout.kind == "square-2d" else len(links)
            for k, slot in enumerate(links):
                up, down = ((j.gamma_up, j.gamma_down) if k < n_horizontal
                            else (j.gamma_up_v, j.gamma_down_v))
                ops += [single_spin_operator(total, slot, "+", np.sqrt(up)),
                        single_spin_operator(total, slot, "-", np.sqrt(down))]
        elif j.family == "x-like":
            pair = (np.sqrt(j.gamma_up), np.sqrt(j.gamma_down))
            ops += [single_spin_operator(total, slot, "+-", pair)
                    for slot in links]
        elif j.family == "dephasing":
            ops += [single_spin_operator(total, slot, "z", np.sqrt(j.gamma))
                    for slot in links]
        elif j.family == "gauge-fix":
            root = np.sqrt(j.strength)
            ops += [gauss_generator(layout, site, root)
                    for site in generator_sites(layout)]
        else:  # effective-asep
            for n in range(1, layout.n_links + 1):
                m = n + 1 if n < layout.L else 1
                right = transition_operator(
                    total, (layout.site_slot(m),), (layout.site_slot(n),),
                    np.sqrt(j.gamma_right))
                left = transition_operator(
                    total, (layout.site_slot(n),), (layout.site_slot(m),),
                    np.sqrt(j.gamma_left))
                ops += [right, left]
    return ops


def asep_rates(gamma_up, gamma_down, J=1.0):
    """Effective hop rates of the strong-dissipation site model."""
    s = (gamma_up + gamma_down) ** 2
    return gamma_up * J ** 2 / s, gamma_down * J ** 2 / s
