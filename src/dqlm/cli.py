"""Config-driven experiment runner.

One JSON config document drives every task; subcommand flags override
config values. Each part of the config is checked in one place, and an
unknown key anywhere is refused: the model section by
`ModelSpec.from_dict` and the dataclasses it fills, every other key by
its row of `CONFIG_KEYS`. Each run writes CSV
artifacts (header row with column names and units, 17 significant
digits) plus a manifest JSON with the config echo, artifact hashes,
timings, and diagnostics. Files are written atomically (temp + rename)
and CSV payloads are byte-identical across reruns of the same config.

Exit codes: 0 success, 2 config/flag error, 3 infeasible sector or a
block over the dense cap, 4 solver or verification failure. Errors print
one JSON object on stderr.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import fields

import numpy as np

from . import __version__
from .exact import (
    EmptySectorError,
    EnsembleError,
    centered_quadrupole,
    eigenoperator_set,
    ensemble_marginals,
    enumeration_marginals,
    exact_steady_state,
    link_polarization,
    similarity_transform,
    special_steady_states,
    steady_site_coefficients,
)
from .lattice import LayoutError, build_layout, commutator, is_integer
from .liouvillian import LEAK_TOL, AssemblyError, assemble, assemble_twisted, \
    diagonal_expectation, steady_residual
from .models import (
    JUMP_FAMILIES,
    JUMP_RATES,
    DisorderSpec,
    JumpSpec,
    ModelError,
    ModelSpec,
    build_hamiltonian,
    build_jump_set,
    is_number,
)
from .numerics import (
    BLOCK_COUNTS,
    DENSE_CAP,
    KERNEL_TOL,
    RESIDUAL_TOL,
    DenseCapError,
    SolverError,
    evolve,
    hausdorff_distance,
    link_z_diagonals,
    multiset_distance,
    phase_partner,
    pure_state_vector,
    site_number_diagonals,
    spectrum_of,
    steady_states,
)
from .symmetry import InfeasibleSectorError, SectorLeakageError, weak_sector

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SECTOR = 3
EXIT_SOLVER = 4

TASKS = ("spectrum", "steady-state", "dynamics", "winding", "verify-exact",
         "profile")

_RATE_FIELDS = tuple(f.name for f in fields(JumpSpec) if f.name != "family")


# -- config checks: each a (what it expects, predicate) pair ---------------

def _integer(low):
    return f"an integer >= {low}", lambda v: is_integer(v) and v >= low


def _choice(*options):
    return f"one of {', '.join(options)}", lambda v: v in options


def _or_null(check):
    text, ok = check
    return f"{text}, or null", lambda v: v is None or ok(v)


def _list(check, low=0, exactly=None):
    text, ok = check
    size = exactly if exactly else f"{low} or more"
    return (f"a list of {size} items, each {text}",
            lambda v: isinstance(v, list) and all(ok(x) for x in v)
            and (len(v) == exactly if exactly else len(v) >= low))


_INTEGER = ("an integer", is_integer)
_POSITIVE = ("a number > 0", lambda v: is_number(v) and v > 0)
_RATE = ("a number >= 0", lambda v: is_number(v) and v >= 0)

# every config key outside `model`, by section (None: the top level)
CONFIG_KEYS = {
    None: {"task": _choice(*TASKS),
           "output_dir": ("a string", lambda v: isinstance(v, str))},
    "sector": {"n_particles": _or_null(_integer(0))},
    "spectrum": {"boundary": _choice("obc", "pbc", "both")},
    "winding": {"phi_steps": _integer(2),
                "variant": _choice("lindblad", "double-space")},
    "dynamics": {"t_final": _POSITIVE, "t_points": _integer(2),
                 "initial_sites": _list(_integer(1)),
                 "rtol": _POSITIVE, "atol": _POSITIVE},
    "profile": {"layout": _choice("chain", "hierarchical", "square-2d"),
                "L": _integer(2), "Ly": _integer(2),
                "beta": _POSITIVE, "beta_prime": _or_null(_POSITIVE),
                "alpha": _POSITIVE, "alpha_prime": _POSITIVE,
                "fillings": _list(_RATE, 1),
                "sector": _or_null(_list(_INTEGER, exactly=2))},
    "verify": {"L": _integer(3)},
    "tolerances": {"kernel_tol": _POSITIVE, "dense_cap": _integer(1),
                   "leak_tol": _POSITIVE},
}


def _validate(cfg):
    """Refuse a config key or value the CLI does not accept: the keys
    outside `model` against `CONFIG_KEYS` (`CliError`, kind "schema"),
    then the model section through `ModelSpec.from_dict` (`ModelError` or
    `LayoutError`), as configured and as each leg of the task builds it
    (`task_models`), so that no model error comes after the first output."""
    for section, checks in CONFIG_KEYS.items():
        node = cfg if section is None else cfg.get(section, {})
        if not isinstance(node, dict):
            raise CliError(EXIT_CONFIG, "schema",
                           f"config section {section!r} must be an object, "
                           f"got {json.dumps(node)}")
        for key, value in node.items():
            if section is None and (key in CONFIG_KEYS or key == "model"):
                continue
            path = key if section is None else f"{section}.{key}"
            if key not in checks:
                raise CliError(EXIT_CONFIG, "schema",
                               f"unknown config key {path!r}")
            text, ok = checks[key]
            if not ok(value):
                raise CliError(EXIT_CONFIG, "schema",
                               f"config key {path!r} must be {text}, "
                               f"got {json.dumps(value)}")
    ModelSpec.from_dict(cfg["model"])
    task_models(cfg)


class CliError(Exception):
    def __init__(self, code, kind, message):
        super().__init__(message)
        self.code = code
        self.kind = kind


class JsonArgumentParser(argparse.ArgumentParser):
    """argparse variant whose usage errors match the JSON error contract."""

    def error(self, message):
        _emit_error(EXIT_CONFIG, "usage", message)
        raise SystemExit(EXIT_CONFIG)


def _emit_error(code, kind, message):
    payload = {"error": {"exit_code": code, "kind": kind,
                         "message": str(message)}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


# -- formatting and atomic output -----------------------------------------

def format_number(x):
    """17-significant-digit decimal text, locale independent."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


# the %-conversion that gives a cell of each exact type the text of
# `format_number`; a row with a cell of another type takes that function
_CONVERSIONS = {str: "%s", int: "%d", np.int64: "%d", float: "%.17g",
                np.float64: "%.17g"}


def _atomic_write(path, text):
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_csv(path, header, rows):
    """Write the rows under `header`, each cell as `format_number` gives it
    (a string as it is), through one %-template per row type; return the
    file's SHA-256 and the row count."""
    lines = [",".join(header)]
    templates = {}
    for row in rows:
        row = tuple(row)
        kinds = tuple(map(type, row))
        if kinds not in templates:
            fields = [_CONVERSIONS.get(kind) for kind in kinds]
            templates[kinds] = None if None in fields else ",".join(fields)
        template = templates[kinds]
        lines.append(template % row if template else ",".join(
            cell if isinstance(cell, str) else format_number(cell)
            for cell in row))
    digest = _atomic_write(path, "\n".join(lines) + "\n")
    return digest, len(lines) - 1


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    return obj


def write_json(path, obj):
    return _atomic_write(path, json.dumps(_plain(obj), indent=2,
                                          sort_keys=True) + "\n")


class Recorder:
    """Collects artifacts, timings, and diagnostics into the manifest."""

    def __init__(self, out_dir, config):
        self.out_dir = out_dir
        self.config = config
        self.artifacts = []
        self.timings = {}
        self.diagnostics = {}

    def csv(self, name, header, rows, **meta):
        path = os.path.join(self.out_dir, name)
        digest, count = write_csv(path, header, rows)
        entry = {"file": name, "sha256": digest, "rows": count}
        entry.update(_plain(meta))
        self.artifacts.append(entry)
        return path

    def finish(self):
        # ru_maxrss is in KiB on Linux
        self.diagnostics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        overall = hashlib.sha256(
            "".join(a["sha256"] for a in self.artifacts).encode()).hexdigest()
        manifest = {
            "package_version": __version__,
            "task": self.config["task"],
            "config": self.config,
            "artifacts": self.artifacts,
            "content_hash": overall,
            "timings_s": self.timings,
            "diagnostics": self.diagnostics,
        }
        write_json(os.path.join(self.out_dir, "manifest.json"), manifest)


# -- config assembly -------------------------------------------------------

def default_config(task):
    cfg = {
        "task": task,
        "output_dir": "runs",
        "model": {
            "layout": {"kind": "chain-obc", "L": 4},
            "hamiltonian": {"kind": "qlm", "J": 1.0},
            "jumps": [{"family": "biased", "gamma_up": 2.4,
                       "gamma_down": 1.6}],
        },
        "sector": {},
        "tolerances": {"kernel_tol": KERNEL_TOL, "dense_cap": DENSE_CAP,
                       "leak_tol": LEAK_TOL},
    }
    if task == "spectrum":
        cfg["spectrum"] = {"boundary": "obc"}
        cfg["sector"] = {"n_particles": 2}
    elif task == "steady-state":
        cfg["sector"] = {"n_particles": None}
    elif task == "winding":
        cfg["model"]["layout"]["kind"] = "chain-pbc"
        cfg["winding"] = {"phi_steps": 8, "variant": "double-space"}
        cfg["sector"] = {"n_particles": 1}
    elif task == "dynamics":
        cfg["dynamics"] = {"t_final": 40.0, "t_points": 81,
                           "initial_sites": [1, 2],
                           "rtol": 1e-9, "atol": 1e-9}
    elif task == "profile":
        cfg["profile"] = {"layout": "chain", "L": 8, "beta": 3.0,
                          "alpha": 1.0, "alpha_prime": 1.0,
                          "beta_prime": None, "fillings": [0.5],
                          "sector": None, "Ly": 2}
    elif task == "verify-exact":
        cfg["verify"] = {"L": 4}
    return cfg


def _deep_merge(base, extra):
    for key, val in extra.items():
        if isinstance(val, dict) and isinstance(base.get(key), dict):
            _deep_merge(base[key], val)
        else:
            base[key] = val
    return base


def _section(cfg, dotted):
    """The config object at a dotted path, made empty where missing. A
    flag writes into it, so a non-object there is refused first (exit 2,
    kind "schema")."""
    node = cfg
    parts = dotted.split(".")
    for depth, key in enumerate(parts, start=1):
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise CliError(EXIT_CONFIG, "schema",
                           f"config section {'.'.join(parts[:depth])!r} "
                           f"must be an object, got {json.dumps(node)}")
    return node


def _set_path(cfg, dotted, value):
    section, _, key = dotted.rpartition(".")
    (_section(cfg, section) if section else cfg)[key] = value


def _jumps(cfg):
    """The config's jump list, made empty where missing; refused unless a
    list of objects, before a flag writes into it."""
    jumps = _section(cfg, "model").setdefault("jumps", [])
    if not (isinstance(jumps, list)
            and all(isinstance(jump, dict) for jump in jumps)):
        raise CliError(EXIT_CONFIG, "schema",
                       "config key 'model.jumps' must be a list of objects, "
                       f"got {json.dumps(jumps)}")
    return jumps


def _first_jump(cfg):
    jumps = _jumps(cfg)
    if not jumps:
        jumps.append({"family": "biased"})
    return jumps[0]


def build_config(args):
    task = args.task
    cfg = default_config(task)
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise CliError(EXIT_CONFIG, "config-io", str(exc))
        except json.JSONDecodeError as exc:
            raise CliError(EXIT_CONFIG, "config-parse", str(exc))
        if not isinstance(file_cfg, dict):
            raise CliError(EXIT_CONFIG, "config-parse",
                           "config root must be a JSON object")
        _deep_merge(cfg, file_cfg)
    cfg["task"] = task

    # profile and verify-exact build no model: their sizes go to their own
    # section
    sizes = {"profile": "profile", "verify-exact": "verify"}.get(
        task, "model.layout")
    simple = {
        "output_dir": "output_dir",
        "L": f"{sizes}.L",
        "Ly": f"{sizes}.Ly",
        "J": "model.hamiltonian.J",
        "J1": "model.hamiltonian.J1",
        "J2": "model.hamiltonian.J2",
        "n_particles": "sector.n_particles",
        "dense_cap": "tolerances.dense_cap",
        "kernel_tol": "tolerances.kernel_tol",
        "phi_steps": "winding.phi_steps",
        "variant": "winding.variant",
        "t_final": "dynamics.t_final",
        "t_points": "dynamics.t_points",
        "rtol": "dynamics.rtol",
        "atol": "dynamics.atol",
        "beta": "profile.beta",
        "beta_prime": "profile.beta_prime",
        "alpha": "profile.alpha",
        "alpha_prime": "profile.alpha_prime",
    }
    for attr, dotted in simple.items():
        value = getattr(args, attr, None)
        if value is not None:
            _set_path(cfg, dotted, value)
    if getattr(args, "jump_family", None) is not None:
        jump = _first_jump(cfg)
        jump["family"] = args.jump_family
        # the rates of the family it replaces (the defaults are biased);
        # a rate flag for a rate the new family does not read is refused
        for attr in _RATE_FIELDS:
            if attr not in JUMP_RATES[args.jump_family]:
                jump.pop(attr, None)
    for attr in _RATE_FIELDS:
        value = getattr(args, attr, None)
        if value is not None:
            _first_jump(cfg)[attr] = value
    if getattr(args, "add_gauge_fix", None) is not None:
        _jumps(cfg).append(
            {"family": "gauge-fix", "strength": args.add_gauge_fix})
    if getattr(args, "disorder_seed", None) is not None:
        model = _section(cfg, "model")
        if model.get("disorder") is None:
            model["disorder"] = {}
        _set_path(cfg, "model.disorder.seed", args.disorder_seed)
    if getattr(args, "boundary", None) is not None:
        # only the spectrum subparser accepts "both"
        if task == "spectrum":
            _set_path(cfg, "spectrum.boundary", args.boundary)
        else:
            _set_path(cfg, "model.layout.kind",
                      "chain-obc" if args.boundary == "obc" else "chain-pbc")
    if getattr(args, "initial_sites", None) is not None:
        _set_path(cfg, "dynamics.initial_sites",
                  _parse_int_list(args.initial_sites, "initial-sites"))
    if getattr(args, "fillings", None) is not None:
        _set_path(cfg, "profile.fillings",
                  _parse_float_list(args.fillings, "fillings"))
    if getattr(args, "sector", None) is not None:
        _set_path(cfg, "profile.sector",
                  _parse_int_list(args.sector, "sector"))
    if getattr(args, "layout", None) is not None:
        if task == "profile":
            _set_path(cfg, "profile.layout", args.layout)
        else:
            kind = {"chain": "chain-obc"}.get(args.layout, args.layout)
            _set_path(cfg, "model.layout.kind", kind)
            if kind == "hierarchical":
                _set_path(cfg, "model.hamiltonian.kind", "hierarchical")
            elif kind == "square-2d":
                _set_path(cfg, "model.hamiltonian.kind", "qlm-2d")
    _validate(cfg)
    return cfg


def _parse_int_list(text, name):
    try:
        return [int(tok) for tok in str(text).split(",") if tok != ""]
    except ValueError:
        raise CliError(EXIT_CONFIG, "usage",
                       f"--{name} expects comma-separated integers")


def _parse_float_list(text, name):
    try:
        return [float(tok) for tok in str(text).split(",") if tok != ""]
    except ValueError:
        raise CliError(EXIT_CONFIG, "usage",
                       f"--{name} expects comma-separated numbers")


# -- model construction ----------------------------------------------------

def task_models(cfg):
    """The model of each leg of the task: `spectrum` on a chain builds one
    per boundary, `winding` the periodic chain, every other task the model
    as configured."""
    model = cfg["model"]
    kinds = [model["layout"]["kind"]]
    if cfg["task"] == "winding":
        kinds = ["chain-pbc"]
    elif cfg["task"] == "spectrum" and kinds[0] in ("chain-obc", "chain-pbc"):
        kinds = {"obc": ["chain-obc"], "pbc": ["chain-pbc"],
                 "both": ["chain-obc", "chain-pbc"]}[cfg["spectrum"]["boundary"]]
    return [ModelSpec.from_dict({**model, "layout": {**model["layout"],
                                                     "kind": kind}})
            for kind in kinds]


def _block_diagnostics(spectrum):
    """The blocks behind a `spectrum_of` result: how many, the largest,
    the largest matrix handed to LAPACK, and how many were found each way
    (`BLOCK_COUNTS`: in real form, conjugated from their mirror block,
    copied from their reflection, in the diagonal real form, or split by
    the parity of rho -> Sigma rho^T Sigma)."""
    sizes = np.bincount(spectrum.block_labels)
    return {"blocks": sizes.size, "max_block_dim": int(sizes.max()),
            "eig_max_dim": spectrum.eig_max_dim,
            **{key: getattr(spectrum, key) for key in BLOCK_COUNTS}}


def _weak_sector_checked(layout, n_particles):
    dsec = weak_sector(layout, n_particles)
    if dsec.dim == 0:
        raise CliError(EXIT_SECTOR, "empty-sector",
                       f"sector N={n_particles} holds no states")
    return dsec


# -- task runners ----------------------------------------------------------

SPECTRUM_HEADER = ("re_lambda[J]", "im_lambda[J]")


def run_spectrum(cfg, rec):
    n_part = cfg.get("sector", {}).get("n_particles")
    tols = cfg["tolerances"]
    for spec in task_models(cfg):
        tag = {"chain-obc": "obc", "chain-pbc": "pbc"}.get(
            spec.layout.kind, spec.layout.kind)
        t0 = time.perf_counter()
        dsec = _weak_sector_checked(spec.layout, n_part)
        superop = assemble(spec, sector=dsec, leak_tol=tols["leak_tol"])
        spectrum = spectrum_of(superop, cap=tols["dense_cap"])
        rec.timings[f"spectrum_{tag}"] = time.perf_counter() - t0
        rec.csv(f"spectrum_{tag}.csv", SPECTRUM_HEADER,
                ((v.real, v.imag) for v in spectrum.eigenvalues),
                sector_dim=dsec.dim)
        rec.diagnostics[f"{tag}_dim"] = dsec.dim
        rec.diagnostics[f"{tag}_kernel"] = len(
            spectrum.kernel_indices(tols["kernel_tol"]))
        rec.diagnostics[f"{tag}_max_real"] = spectrum.max_real()
        for key, value in _block_diagnostics(spectrum).items():
            rec.diagnostics[f"{tag}_{key}"] = value


def run_steady_state(cfg, rec):
    n_part = cfg.get("sector", {}).get("n_particles")
    tols = cfg["tolerances"]
    spec, = task_models(cfg)
    t0 = time.perf_counter()
    dsec = _weak_sector_checked(spec.layout, n_part)
    superop = assemble(spec, sector=dsec, leak_tol=tols["leak_tol"])
    stats = {}
    states = steady_states(superop, tol=tols["kernel_tol"],
                           cap=tols["dense_cap"], stats=stats)
    rec.timings["kernel"] = time.perf_counter() - t0
    worst = float(max(steady_residual(superop.hamiltonian, superop.jumps,
                                      states)))
    # refused before any CSV is written; a NaN residual fails too
    if not worst <= RESIDUAL_TOL * np.linalg.norm(superop.matrix.data):
        raise CliError(EXIT_SOLVER, "solver", f"steady-state residual "
                       f"{worst:.3e} exceeds {RESIDUAL_TOL:.0e} x ||L||_F")
    site_diag = site_number_diagonals(spec.layout)
    link_diag = link_z_diagonals(spec.layout)
    rows = []
    for idx, rho in enumerate(states):
        diag = np.asarray(rho.diagonal()).real
        for pos, arr in enumerate(site_diag, start=1):
            rows.append((idx, "site_density", pos, float((diag * arr).sum())))
        for pos, arr in enumerate(link_diag, start=1):
            rows.append((idx, "link_sz", pos, float((diag * arr).sum())))
    rec.csv("steady_state_profiles.csv",
            ("state[index]", "kind[name]", "position[index]", "value[1]"),
            rows)
    rec.diagnostics["kernel_dim"] = len(states)
    rec.diagnostics["max_residual"] = worst
    rec.diagnostics["sector_dim"] = dsec.dim
    rec.diagnostics.update(stats)


def run_dynamics(cfg, rec):
    spec, = task_models(cfg)
    layout = spec.layout
    dyn = cfg["dynamics"]
    sites = dyn["initial_sites"]
    slots = layout.site_slots
    if any(s < 1 or s > len(slots) for s in sites) or len(set(sites)) != len(sites):
        raise CliError(EXIT_CONFIG, "usage", "initial sites must be distinct "
                       f"values in 1..{len(slots)}")
    n_part = cfg.get("sector", {}).get("n_particles")
    if n_part is None:
        n_part = len(sites)
    if n_part != len(sites):
        raise CliError(EXIT_CONFIG, "usage",
                       "sector.n_particles must match the initial occupation")
    dsec = _weak_sector_checked(layout, n_part)
    t0 = time.perf_counter()
    superop = assemble(spec, sector=dsec,
                       leak_tol=cfg["tolerances"]["leak_tol"])
    rec.timings["assemble"] = time.perf_counter() - t0

    v0 = pure_state_vector(sum(1 << slots[s - 1] for s in sites), dsec)
    times = np.linspace(0.0, dyn["t_final"], dyn["t_points"])
    site_diag = site_number_diagonals(layout)
    obs = {f"N_{n}": (lambda v, a=arr: diagonal_expectation(v, dsec, a))
           for n, arr in enumerate(site_diag, start=1)}
    t0 = time.perf_counter()
    try:
        series = evolve(superop.matrix, v0, times, observables=obs,
                        dsec=dsec, rtol=dyn["rtol"], atol=dyn["atol"])
    except SolverError as exc:
        raise CliError(EXIT_SOLVER, "integration", str(exc))
    rec.timings["evolve"] = time.perf_counter() - t0

    header = ["time[1/J]"] + [f"N_{n}[1]" for n in range(1, len(site_diag) + 1)]
    header.append("trace_defect[1]")
    rows = []
    for j, t in enumerate(times):
        row = [t]
        row += [series.observables[f"N_{n}"][j].real
                for n in range(1, len(site_diag) + 1)]
        row.append(series.trace_defect[j])
        rows.append(tuple(row))
    rec.csv("dynamics.csv", tuple(header), rows, sector_dim=dsec.dim)
    rec.diagnostics["sector_dim"] = dsec.dim
    rec.diagnostics["max_trace_defect"] = float(series.trace_defect.max())
    rec.diagnostics["rhs_evals"] = series.nfev
    rec.diagnostics["integrator_status"] = series.status
    rec.diagnostics["integrator_steps"] = series.steps
    rec.diagnostics["krylov_dim_max"] = series.krylov_dim_max
    rec.diagnostics["real_form"] = series.real_form
    rec.diagnostics["evolved_dim"] = series.evolved_dim
    rec.diagnostics["final_profile"] = [
        float(series.observables[f"N_{n}"][-1].real)
        for n in range(1, len(site_diag) + 1)]


def run_winding(cfg, rec):
    spec, = task_models(cfg)
    steps = cfg["winding"]["phi_steps"]
    variant = cfg["winding"]["variant"]
    n_part = cfg.get("sector", {}).get("n_particles")
    tols = cfg["tolerances"]
    dsec = _weak_sector_checked(spec.layout, n_part)
    phis = [2.0 * np.pi * j / steps for j in range(steps)]
    superops, spectra = [], []
    # source[j]: the phase whose spectrum phase j copies or conjugates
    source = [None] * steps
    summary_rows = []
    for j, phi in enumerate(phis):
        t0 = time.perf_counter()
        # one assembly; every other phase re-phases its wrap-hop entries
        if j:
            superop = superops[0].rephase(phi)
        else:
            try:
                superop = assemble_twisted(spec, phi, variant, sector=dsec,
                                           leak_tol=tols["leak_tol"])
            except AssemblyError as exc:
                raise CliError(EXIT_CONFIG, "usage", str(exc))
        spectrum = None
        for n in _partner_phases(j, steps):
            spectrum = phase_partner(superops[n], spectra[n], superop)
            if spectrum is not None:
                source[j] = n
                break
        if spectrum is None:
            spectrum = spectrum_of(superop, cap=tols["dense_cap"])
        rec.timings[f"phi_{j:03d}"] = time.perf_counter() - t0
        superops.append(superop)
        spectra.append(spectrum)
        rec.csv(f"spectrum_phi_{j:03d}.csv", SPECTRUM_HEADER,
                ((v.real, v.imag) for v in spectrum.eigenvalues),
                phi=phi, variant=variant)
        kernel = spectrum.kernel_indices(tols["kernel_tol"])
        summary_rows.append((phi, spectrum.max_real(), len(kernel)))
    rec.csv("winding_summary.csv",
            ("phi[rad]", "max_re_lambda[J]", "kernel_count[1]"), summary_rows)
    rec.diagnostics["variant"] = variant
    rec.diagnostics["sector_dim"] = dsec.dim
    blocks = [_block_diagnostics(s) for s in spectra]
    for key in blocks[0]:
        rec.diagnostics[key] = [b[key] for b in blocks]
    rec.diagnostics["spectrum_from"] = source
    drift, hausdorff = _distances_from_phi0(spectra, source)
    rec.diagnostics["max_drift_from_phi0"] = float(max(drift))
    rec.diagnostics["max_hausdorff_from_phi0"] = float(max(hausdorff))


def _partner_phases(j, steps):
    """The earlier phases n < j of a scan over 2 pi n / steps whose
    generators `phase_partner` may map onto the one at phase j: -phi_j
    (C), phi_j - pi (D) and pi - phi_j (C D), in that order. Each is only
    a candidate: the maps are checked on the assembled generators."""
    twice = [(-2 * j) % (2 * steps), (2 * j - steps) % (2 * steps),
             (steps - 2 * j) % (2 * steps)]
    return list(dict.fromkeys(t // 2 for t in twice
                              if t % 2 == 0 and t // 2 < j))


def _distances_from_phi0(spectra, source):
    """The bottleneck and Hausdorff distances of the phases j >= 1 from
    phase 0. A phase j that copies phase n (`source[j]`) has n's
    distances, 0 for n = 0. When phase 0's spectrum s0 is closed under
    conjugation, d(s0, conj s) = d(conj s0, s) = d(s0, s) bit for bit
    (|conj a - b| = |a - conj b|), so a phase that conjugates phase n
    takes n's distances too."""
    zero = spectra[0].eigenvalues
    closed = np.array_equal(np.sort_complex(zero), np.sort_complex(zero.conj()))
    drift, hausdorff = {0: 0.0}, {0: 0.0}
    for j in range(1, len(spectra)):
        n = source[j]
        if n is not None and (closed or spectra[j].copied_blocks):
            drift[j], hausdorff[j] = drift[n], hausdorff[n]
        else:
            values = spectra[j].eigenvalues
            drift[j] = multiset_distance(zero, values)
            hausdorff[j] = hausdorff_distance(zero, values)
    del drift[0], hausdorff[0]
    return drift.values(), hausdorff.values()


def _profile_layout(prof):
    kind = prof["layout"]
    if kind == "chain":
        return build_layout("chain-obc", prof["L"])
    if kind == "hierarchical":
        return build_layout("hierarchical", prof["L"])
    return build_layout("square-2d", prof["L"], prof["Ly"])


def _filling_to_count(f, n_sites):
    return int(round(f * n_sites)) if 0 < f < 1 else int(round(f))


def run_profile(cfg, rec):
    prof = cfg["profile"]
    layout = _profile_layout(prof)
    beta = prof["beta"]
    alpha = prof["alpha"]
    alpha_prime = prof["alpha_prime"]
    beta_prime = prof.get("beta_prime")
    t0 = time.perf_counter()
    if layout.kind == "chain-obc":
        fillings = prof["fillings"]
        counts = [_filling_to_count(f, layout.L) for f in fillings]
        if any(not 0 <= n <= layout.L for n in counts):
            raise CliError(EXIT_SECTOR, "empty-sector",
                           f"fillings {fillings} leave 0..{layout.L}")
        margs = []
        for n in counts:
            ens = exact_steady_state(layout, beta, alpha, n_particles=n)
            margs.append(ensemble_marginals(ens))
        site_rows = [(n,) + tuple(m["site_density"][n - 1] for m in margs)
                     for n in range(1, layout.L + 1)]
        link_rows = [(m,) + tuple(mm["link_sz"][m - 1] for mm in margs)
                     for m in range(1, layout.L)]
        site_head = ("n[site]",) + tuple(f"density_N{n}[1]" for n in counts)
        link_head = ("m[link]",) + tuple(f"link_sz_N{n}[1]" for n in counts)
        rec.csv("profile_sites.csv", site_head, site_rows, beta=beta)
        rec.csv("profile_links.csv", link_head, link_rows, beta=beta)
        rec.diagnostics["link_sz_expected"] = link_polarization(beta)
        rec.diagnostics["fillings"] = counts
    elif layout.kind == "hierarchical":
        sector = prof.get("sector")
        charges = tuple(sector) if sector is not None else None
        ens = exact_steady_state(layout, beta, alpha,
                                 alpha_prime=alpha_prime,
                                 hier_charges=charges)
        marg = ensemble_marginals(ens)
        rec.csv("profile_top.csv", ("n[site]", "sigma_z[1]", "density[1]"),
                [(n, marg["top_sz"][n - 1], marg["top_density"][n - 1])
                 for n in range(1, layout.L + 1)])
        rec.csv("profile_mid.csv", ("m[link]", "tau_z[1]"),
                [(m, marg["mid_sz"][m - 1]) for m in range(1, layout.L)])
        rec.csv("profile_bot.csv", ("j[link]", "s_z[1]"),
                [(j, marg["bot_sz"][j - 2]) for j in range(2, layout.L)])
        rec.diagnostics["top_quadrupole"] = centered_quadrupole(marg["top_sz"])
        rec.diagnostics["mid_sign_changes"] = int(
            np.count_nonzero(np.diff(np.sign(marg["mid_sz"]))))
        rec.diagnostics["sector"] = list(charges) if charges else None
    else:
        if beta_prime is None:
            raise CliError(EXIT_CONFIG, "usage",
                           "square-2d profile needs beta_prime")
        fillings = prof["fillings"]
        if len(fillings) != 1:
            raise CliError(EXIT_CONFIG, "usage",
                           f"square-2d profile takes one filling, got {fillings}")
        sites = len(layout.site_slots)
        n_part = _filling_to_count(fillings[0], sites)
        if not 0 <= n_part <= sites:
            raise CliError(EXIT_SECTOR, "empty-sector",
                           f"filling {fillings[0]} leaves 0..{sites}")
        ens = exact_steady_state(layout, beta, alpha, beta_prime=beta_prime,
                                 n_particles=n_part)
        marg = ensemble_marginals(ens)
        rows = [(x, y, marg["site_density"][y - 1][x - 1])
                for y in range(1, layout.Ly + 1)
                for x in range(1, layout.L + 1)]
        rec.csv("profile_sites.csv", ("x[col]", "y[row]", "density[1]"), rows)
        hrows = [(x, y, marg["hlink_sz"][y - 1][x - 1])
                 for y in range(1, layout.Ly + 1) for x in range(1, layout.L)]
        vrows = [(x, y, marg["vlink_sz"][y - 1][x - 1])
                 for y in range(1, layout.Ly) for x in range(1, layout.L + 1)]
        rec.csv("profile_hlinks.csv", ("x[col]", "y[row]", "s_z[1]"), hrows)
        rec.csv("profile_vlinks.csv", ("x[col]", "y[row]", "s_z[1]"), vrows)
        rec.diagnostics["n_particles"] = n_part
    rec.timings["profile"] = time.perf_counter() - t0


def _verify_rows(L):
    """The residual battery behind verify-exact: the rows as (name, value,
    bound), and the number of operands the generator was applied to."""
    rows = []
    chain = build_layout("chain-obc", L)
    ham = build_hamiltonian(ModelSpec(layout=chain))
    ham_dis = build_hamiltonian(ModelSpec(layout=chain,
                                          disorder=DisorderSpec(seed=1)))

    def chain_jumps(*families):
        return build_jump_set(ModelSpec(layout=chain, jumps=families))

    # build_jump_set emits families in spec order, so the gauge-fix model's
    # jumps are the plain ones followed by these
    gauge_fix = chain_jumps(JumpSpec(family="gauge-fix", strength=1.0))
    biased = {}
    for gu, gd in ((2.4, 1.6), (3.0, 1.0)):
        beta = gu / gd
        rho = exact_steady_state(chain, beta).materialize()
        rates = JumpSpec(family="biased", gamma_up=gu, gamma_down=gd)
        biased[gu, gd] = plain = chain_jumps(rates)
        for label, h, jumps in (
                ("plain", ham, plain),
                ("gauge-fix", ham, plain + gauge_fix),
                ("disorder", ham_dis, plain)):
            rows.append((f"chain_L{L}_b{beta:g}_{label}",
                         steady_residual(h, jumps, rho), 1e-10))
    operands = len(rows)

    # each eigenoperator has unit Frobenius norm, so its relative residual
    # is ||L[op] - lam op||_F
    ladder = eigenoperator_set(chain, 2.4, 1.6)
    worst = max(steady_residual(
        ham, biased[2.4, 1.6],
        (ens.materialize(normalize="frobenius") for _, ens, _ in ladder),
        lam=[lam for _, _, lam in ladder]))
    rows.append((f"eigenoperators_L{L}", worst, 1e-10))
    operands += len(ladder)

    identities = special_steady_states(chain, "x-like-symmetric")
    jumps_x = chain_jumps(JumpSpec(family="x-like", gamma_up=0.7,
                                   gamma_down=0.7))
    worst = max(steady_residual(ham, jumps_x,
                                (ens.materialize() for ens in identities)))
    rows.append((f"xlike_identity_L{L}", worst, 1e-12))
    operands += len(identities)

    coeffs = steady_site_coefficients(chain, 3.0)
    t_op = similarity_transform(chain, coeffs, scale=-0.5)
    rel = commutator(ham, t_op).frobenius_norm() / (
        ham.frobenius_norm() * t_op.frobenius_norm())
    rows.append((f"similarity_commutes_L{L}", rel, 1e-12))

    hier = build_layout("hierarchical", L)
    spec_h = ModelSpec(layout=hier, hamiltonian="hierarchical", J1=1.0,
                       J2=0.8, jumps=(JumpSpec(family="biased", gamma_up=3.0,
                                               gamma_down=1.0),))
    rho_h = exact_steady_state(hier, 3.0).materialize()
    res_h = steady_residual(build_hamiltonian(spec_h), build_jump_set(spec_h),
                            rho_h)
    rows.append((f"hierarchical_L{L}", res_h, 1e-10))

    grid = build_layout("square-2d", 2, Ly=2)
    spec_g = ModelSpec(layout=grid, hamiltonian="qlm-2d", J1=1.0, J2=0.7,
                       jumps=(JumpSpec(family="biased", gamma_up=3.0,
                                       gamma_down=1.0, gamma_up_v=2.0,
                                       gamma_down_v=1.0),))
    rho_g = exact_steady_state(grid, 3.0, beta_prime=2.0).materialize()
    res_g = steady_residual(build_hamiltonian(spec_g), build_jump_set(spec_g),
                            rho_g)
    rows.append(("grid_2x2", res_g, 1e-10))
    operands += 2   # the hierarchical and grid states

    enum_l = min(L, 5)
    small = build_layout("chain-obc", enum_l)
    ens = exact_steady_state(small, 3.0, alpha=1.3, n_particles=2)
    dp = ensemble_marginals(ens)
    enum = enumeration_marginals(ens)
    gap = max(np.abs(dp[k] - enum[k]).max() for k in dp)
    rows.append((f"dp_vs_enumeration_L{enum_l}", gap, 1e-12))
    return rows, operands


def run_verify_exact(cfg, rec):
    L = cfg["verify"]["L"]
    t0 = time.perf_counter()
    rows, operands = _verify_rows(L)
    rec.timings["battery"] = time.perf_counter() - t0
    table = [(name, value, bound, bool(value < bound))
             for name, value, bound in rows]
    rec.csv("verify_exact.csv",
            ("check[name]", "value[1]", "threshold[1]", "passed[bool]"),
            table)
    width = max(len(name) for name, *_ in table)
    for name, value, bound, ok in table:
        print(f"{name:<{width}}  {value:12.3e}  < {bound:g}  "
              f"{'PASS' if ok else 'FAIL'}")
    failed = [name for name, _, _, ok in table if not ok]
    rec.diagnostics["checks"] = len(table)
    rec.diagnostics["operands"] = operands
    rec.diagnostics["failed"] = failed
    if failed:
        rec.finish()
        raise CliError(EXIT_SOLVER, "verification",
                       f"{len(failed)} checks failed: {', '.join(failed)}")


RUNNERS = {
    "spectrum": run_spectrum,
    "steady-state": run_steady_state,
    "dynamics": run_dynamics,
    "winding": run_winding,
    "verify-exact": run_verify_exact,
    "profile": run_profile,
}


# -- argument parsing ------------------------------------------------------

def build_parser():
    parser = JsonArgumentParser(prog="dqlm",
                                description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="task", required=True,
                                parser_class=JsonArgumentParser)

    def common(p, layout_flag=True):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--output-dir", dest="output_dir")
        p.add_argument("--L", type=int, dest="L")
        p.add_argument("--Ly", type=int, dest="Ly")
        if layout_flag:
            p.add_argument("--layout",
                           choices=["chain", "chain-obc", "chain-pbc",
                                    "hierarchical", "square-2d"])
        p.add_argument("--J", type=float)
        p.add_argument("--J1", type=float)
        p.add_argument("--J2", type=float)
        p.add_argument("--jump-family", choices=JUMP_FAMILIES)
        for name in _RATE_FIELDS:
            p.add_argument(f"--{name.replace('_', '-')}", type=float,
                           dest=name)
        p.add_argument("--add-gauge-fix", type=float, dest="add_gauge_fix",
                       metavar="STRENGTH")
        p.add_argument("--disorder-seed", type=int, dest="disorder_seed")
        p.add_argument("--n-particles", type=int, dest="n_particles")
        p.add_argument("--dense-cap", type=int, dest="dense_cap")
        p.add_argument("--kernel-tol", type=float, dest="kernel_tol")

    p_spec = sub.add_parser("spectrum", help="sector-projected spectra")
    common(p_spec)
    p_spec.add_argument("--boundary", choices=["obc", "pbc", "both"])

    p_ss = sub.add_parser("steady-state", help="kernel states and profiles")
    common(p_ss)
    p_ss.add_argument("--boundary", choices=["obc", "pbc"])

    p_dyn = sub.add_parser("dynamics", help="quench time evolution")
    common(p_dyn)
    p_dyn.add_argument("--boundary", choices=["obc", "pbc"])
    p_dyn.add_argument("--t-final", type=float, dest="t_final")
    p_dyn.add_argument("--t-points", type=int, dest="t_points")
    p_dyn.add_argument("--initial-sites", dest="initial_sites",
                       metavar="N1,N2,...")
    p_dyn.add_argument("--rtol", type=float)
    p_dyn.add_argument("--atol", type=float)

    p_wind = sub.add_parser("winding", help="twisted-boundary phase scans")
    common(p_wind, layout_flag=False)
    p_wind.add_argument("--phi-steps", type=int, dest="phi_steps")
    p_wind.add_argument("--variant", choices=["lindblad", "double-space"])

    p_ver = sub.add_parser("verify-exact",
                           help="run the analytic residual battery")
    p_ver.add_argument("--config", help="JSON config file")
    p_ver.add_argument("--output-dir", dest="output_dir")
    p_ver.add_argument("--L", type=int, dest="L")

    p_prof = sub.add_parser("profile", help="analytic layer profiles")
    p_prof.add_argument("--config", help="JSON config file")
    p_prof.add_argument("--output-dir", dest="output_dir")
    p_prof.add_argument("--layout",
                        choices=["chain", "hierarchical", "square-2d"])
    p_prof.add_argument("--L", type=int, dest="L")
    p_prof.add_argument("--Ly", type=int, dest="Ly")
    p_prof.add_argument("--beta", type=float)
    p_prof.add_argument("--beta-prime", type=float, dest="beta_prime")
    p_prof.add_argument("--alpha", type=float)
    p_prof.add_argument("--alpha-prime", type=float, dest="alpha_prime")
    p_prof.add_argument("--fillings", metavar="F1,F2,...")
    p_prof.add_argument("--sector", metavar="N2,D2")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = build_config(args)
        out_dir = cfg["output_dir"]
        os.makedirs(out_dir, exist_ok=True)
        rec = Recorder(out_dir, cfg)
        RUNNERS[cfg["task"]](cfg, rec)
        rec.finish()
        return EXIT_OK
    except CliError as exc:
        _emit_error(exc.code, exc.kind, str(exc))
        return exc.code
    except EmptySectorError as exc:
        _emit_error(EXIT_SECTOR, "empty-sector", str(exc))
        return EXIT_SECTOR
    except (ModelError, EnsembleError, LayoutError) as exc:
        _emit_error(EXIT_CONFIG, "model", str(exc))
        return EXIT_CONFIG
    except InfeasibleSectorError as exc:
        _emit_error(EXIT_SECTOR, "infeasible-sector", str(exc))
        return EXIT_SECTOR
    except DenseCapError as exc:
        _emit_error(EXIT_SECTOR, "sector-too-large", str(exc))
        return EXIT_SECTOR
    except (SolverError, AssemblyError, SectorLeakageError,
            np.linalg.LinAlgError) as exc:
        _emit_error(EXIT_SOLVER, "solver", str(exc))
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
