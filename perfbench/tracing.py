"""Outside-in tracing of the dqlm layers.

The tracer wraps public functions of the package by rebinding each name
in every ``dqlm`` module that holds it (``cli`` and ``numerics`` import
``assemble``, ``spectrum_of`` and friends by name, so patching the
defining module alone would miss their calls). Methods are rebound on
their class. Nothing inside the package is edited.

Each call of a wrapped function records a span ``(name, start, end,
parent, ok)``; spans stay in memory until `write_spans`. A span's self
time is its duration minus the durations of its direct children (calls
are sequential, so children never overlap). Counters are taken at the
same boundaries from arguments and return values.
"""

import json
import os
import sys
import time
from collections import Counter

MODELS = ("models.build_hamiltonian", "models.build_jump_set",
          "models.bulk_hamiltonian", "models.twist_term")
SECTORS = ("symmetry.weak_sector", "symmetry.partition_double_space",
           "symmetry.enumerate_sector")
ASSEMBLY = ("liouvillian.assemble", "liouvillian.assemble_twisted")
APPLY = ("liouvillian.lindblad_apply", "liouvillian.steady_residual")
EIG = ("numerics.eig_dense", "numerics.spectrum_of")
DP = ("exact.ensemble_marginals",)
MATMUL = "lattice.SparseOperator.__matmul__"
MATERIALIZE = "exact.DiagonalEnsemble.materialize"

# per-layer time metric -> span names whose self time it sums
SELF_TIME = {
    "models.build_s": MODELS,
    "lattice.matmul_s": (MATMUL,),
    "symmetry.sector_s": SECTORS,
    "liouvillian.assemble_s": ASSEMBLY,
    "liouvillian.apply_s": APPLY,
    "numerics.eig_s": EIG,
    "numerics.evolve_s": ("numerics.evolve",),
    "exact.dp_s": DP,
    "exact.materialize_s": (MATERIALIZE,),
    "cli.config_s": ("cli.build_config",),
    "cli.write_s": ("cli.write_csv", "cli.write_json"),
}

# per-layer call metric -> span names it counts; models counts only the
# calls entering the layer from outside (build_hamiltonian calls
# bulk_hamiltonian itself)
CALLS = {
    "models.build_calls": MODELS,
    "liouvillian.assemble_calls": ASSEMBLY,
    "liouvillian.apply_calls": ("liouvillian.lindblad_apply",),
    "numerics.eig_calls": ("numerics.eig_dense",),
    "exact.dp_calls": DP,
}
OUTERMOST_ONLY = ("models.build_calls",)

COUNTERS = ("symmetry.blocks", "liouvillian.nnz", "numerics.eig_work",
            "numerics.rhs_evals", "lattice.sparse_ops", "cli.bytes_written")

# counters every pass reproduces exactly for a fixed seed
EXACT_COUNTERS = ("symmetry.blocks", "symmetry.max_block_dim",
                  "numerics.eig_work", "liouvillian.nnz", "numerics.rhs_evals",
                  "lattice.sparse_ops", "models.build_calls",
                  "liouvillian.assemble_calls", "liouvillian.apply_calls",
                  "numerics.eig_calls", "exact.dp_calls", "exact.dp_failures")

ROOT_PREFIX = "op:"


def self_times(spans, first=0):
    """Total self time per span name. `spans[i]` has absolute index
    `first + i`; parents are absolute indices."""
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for (_, _, _, parent, _), d in zip(spans, dur):
        if parent >= first:
            child[parent - first] += d
    totals = Counter()
    for (name, *_), d, c in zip(spans, dur, child):
        totals[name] += d - c
    return totals


def _blocks(result):
    """The DoubleSectorBasis objects a symmetry call returned."""
    if isinstance(result, list):
        return [block for _, block in result]
    if hasattr(result, "kets"):
        return [result]
    return []   # enumerate_sector: a Hilbert-space sector, not a block


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _count_blocks(_args, _kwargs, result):
    dims = [b.dim for b in _blocks(result)]
    return {"symmetry.blocks": len(dims)}, {"symmetry.max_block_dim": max(dims, default=0)}


def _count_nnz(_args, _kwargs, result):
    return {"liouvillian.nnz": result.nnz}, {}


def _count_eig_work(args, kwargs, _result):
    # computed from the block size, not measured
    return {"numerics.eig_work": int(_first(args, kwargs, "matrix").shape[0]) ** 3}, {}


def _count_bytes(args, kwargs, _result):
    return {"cli.bytes_written": os.path.getsize(_first(args, kwargs, "path"))}, {}


def _count_nfev(_args, _kwargs, result):
    return {"numerics.rhs_evals": int(result.nfev)}, {}


def _count_one(_args, _kwargs, _result):
    return {"lattice.sparse_ops": 1}, {}


class Tracer:
    """Span recorder with counters; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.enabled = True
        self._counters = Counter()
        self._peaks = Counter()
        self._stack = []
        self._mark = 0
        self._patches = []

    # -- recording -------------------------------------------------------
    def _tally(self, count, args, kwargs, result):
        sums, peaks = count(args, kwargs, result)
        self._counters.update(sums)
        for key, value in peaks.items():
            self._peaks[key] = max(self._peaks[key], value)

    def wrap(self, name, fn, count=None):
        """Span-recording stand-in for `fn`. `count(args, kwargs, result)`
        returns (increments, maxima) for a call that returned."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, ok)
            if count is not None:
                self._tally(count, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counting(self, fn, count):
        """Stand-in for `fn` that only updates counters (no span)."""
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.enabled:
                self._tally(count, args, kwargs, result)
            return result

        counted.__wrapped__ = fn
        return counted

    def op(self, name, fn):
        """Run `fn` under a root span for one workload operation."""
        return self.wrap(ROOT_PREFIX + name, fn)()

    # -- installing ------------------------------------------------------
    def _rebind(self, original, replacement):
        """Replace `original` under every name a dqlm module binds it to."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "dqlm":
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _replace(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap every traced function of the package."""
        from dqlm import cli, exact, lattice, liouvillian, models, numerics, symmetry

        functions = [(models, name, None) for name in
                     ("build_hamiltonian", "build_jump_set",
                      "bulk_hamiltonian", "twist_term")]
        functions += [(symmetry, name, _count_blocks) for name in
                      ("weak_sector", "partition_double_space",
                       "enumerate_sector")]
        functions += [
            (liouvillian, "assemble", _count_nnz),
            (liouvillian, "assemble_twisted", _count_nnz),
            (liouvillian, "lindblad_apply", None),
            (liouvillian, "steady_residual", None),
            (numerics, "eig_dense", _count_eig_work),
            (numerics, "spectrum_of", None),
            (numerics, "evolve", None),
            (exact, "ensemble_marginals", None),
            (cli, "build_config", None),
            (cli, "write_csv", _count_bytes),
            (cli, "write_json", _count_bytes),
        ]
        for mod, name, count in functions:
            fn = getattr(mod, name)
            label = f"{mod.__name__.split('.')[-1]}.{name}"
            self._rebind(fn, self.wrap(label, fn, count))

        # nfev of each integration, from the solve_ivp numerics bound at import
        self._replace(numerics, "solve_ivp",
                      self.counting(numerics.solve_ivp, _count_nfev))
        op_cls = lattice.SparseOperator
        self._replace(op_cls, "__init__", self.counting(op_cls.__init__, _count_one))
        self._replace(op_cls, "__matmul__", self.wrap(MATMUL, op_cls.__matmul__))
        ens_cls = exact.DiagonalEnsemble
        self._replace(ens_cls, "materialize",
                      self.wrap(MATERIALIZE, ens_cls.materialize))

    def uninstall(self):
        """Restore every binding `install` replaced."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading ---------------------------------------------------------
    def take(self):
        """Per-layer metrics of the spans and counters recorded since the
        previous `take`."""
        first = self._mark
        spans = self.spans[first:]
        self._mark = len(self.spans)
        self_time = self_times(spans, first)
        metrics = {metric: sum(self_time[n] for n in names)
                   for metric, names in SELF_TIME.items()}
        metrics["bench.other_s"] = sum(
            t for n, t in self_time.items() if n.startswith(ROOT_PREFIX))
        for metric, names in CALLS.items():
            outermost = metric in OUTERMOST_ONLY
            metrics[metric] = sum(
                1 for name, _, _, parent, _ in spans
                if name in names and not (
                    outermost and parent >= first
                    and self.spans[parent][0] in names))
        metrics["exact.dp_failures"] = sum(
            1 for name, _, _, _, ok in spans if name in DP and not ok)
        for key in COUNTERS:
            metrics[key] = self._counters[key]
        metrics["symmetry.max_block_dim"] = self._peaks["symmetry.max_block_dim"]
        self._counters.clear()
        self._peaks.clear()
        return metrics

    def write_spans(self, path):
        """Write every span recorded so far as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, ok in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "ok": ok}) + "\n")
