"""The four workloads: seeded inputs, operations and their oracle checks.

A workload is a list of operations run one after another (a closed loop
with one caller). Each operation is a callable that drives the package
through its public API, or through ``dqlm.cli.main(argv)`` for the README
examples, and a check that compares what it returned or wrote against a
closed-form oracle. Reference values are computed in `build`, before any
timing.
"""

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

BETA_RANGE = (2.75, 4.0)   # every quench relaxes within 1e-6 by t = 180
RATE_SUM = 4.0             # gamma_up + gamma_down, fixes the rung spacing
KERNEL_TOL = 1e-9          # the package default kernel bin
RUNG_BIN = 1e-7            # the package default degeneracy bin


class CheckFailed(AssertionError):
    """An operation returned a result its oracle rejects."""


class ExitCodeError(RuntimeError):
    """A CLI call exited with a code other than 0."""

    def __init__(self, code, message):
        super().__init__(f"exit {code}: {message}")
        self.code = code


@dataclass(frozen=True)
class Inputs:
    """Everything the seed decides; the program sees only these values."""

    seed: int
    gamma_up: float
    gamma_down: float
    disorder_seed: int
    initial_sites: tuple

    @property
    def beta(self):
        return self.gamma_up / self.gamma_down


def make_inputs(seed):
    rng = np.random.default_rng(seed)
    beta = float(rng.uniform(*BETA_RANGE))
    gamma_down = RATE_SUM / (1.0 + beta)
    sites = sorted(int(s) for s in rng.choice(np.arange(1, 8), size=2, replace=False))
    return Inputs(seed=seed, gamma_up=RATE_SUM - gamma_down,
                  gamma_down=gamma_down,
                  disorder_seed=int(rng.integers(0, 2**31 - 1)),
                  initial_sites=tuple(sites))


@dataclass
class Operation:
    """One call of a workload. `expect_exit` names the one way it is known
    to fail today, a CLI exit code; the run counts that exit as a failed
    operation but not as a wrong result. Any other exception, exit code
    or missed oracle is wrong."""

    name: str
    run: Callable     # () -> result
    check: Callable   # result -> None, raises CheckFailed
    expect_exit: Optional[int] = None


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# -- CLI helpers ----------------------------------------------------------

def cli_op(name, argv, check, expect_exit=None):
    """An operation running ``dqlm.cli.main(argv)``; stdout and stderr are
    captured so the benchmark's own output stays parseable."""
    from dqlm.cli import main

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        if code != 0:
            raise ExitCodeError(code, err.getvalue().strip())
        return code

    return Operation(name, run, lambda _code: check(), expect_exit)


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_eigenvalues(path):
    _, data = read_csv(path)
    return data[:, 0] + 1j * data[:, 1]


def read_manifest(out):
    with open(out / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


def link_polarization(beta):
    """Uniform link s^z of the biased steady state, (beta-1)/(2 beta+2);
    written out here so the oracle does not come from the code under test."""
    return (beta - 1.0) / (2.0 * beta + 2.0)


def rate_flags(inp):
    return ["--gamma-up", repr(inp.gamma_up), "--gamma-down", repr(inp.gamma_down)]


# -- workloads ------------------------------------------------------------

def block_sweep(inp, _workdir):
    """Acceptance-test 02/03 traffic through the library API."""
    from dqlm.lattice import build_layout
    from dqlm.models import JumpSpec, ModelSpec
    from dqlm.numerics import full_spectrum, weak_spectrum

    def model(L):
        return ModelSpec(layout=build_layout("chain-obc", L),
                         jumps=(JumpSpec(family="biased", gamma_up=inp.gamma_up,
                                         gamma_down=inp.gamma_down),))

    spec4, spec5 = model(4), model(5)

    def check_full(spectrum):
        L = 4
        require(spectrum.dim == 4 ** (2 * L - 1),
                f"{spectrum.dim} eigenvalues, expected 4^{2 * L - 1}")
        kernel = len(spectrum.kernel_indices(KERNEL_TOL))
        require(kernel == L + 3, f"kernel {kernel}, expected L+3 = {L + 3}")
        for K in range(L):
            rung = -2.0 * (inp.gamma_up + inp.gamma_down) * K
            have = spectrum.count_near(rung, RUNG_BIN)
            floor = (L + 1) * math.comb(L - 1, K)
            require(have >= floor, f"rung K={K} holds {have} < floor {floor}")
        require(spectrum.max_real() < KERNEL_TOL,
                f"max Re lambda {spectrum.max_real():.3e} > 0")

    def check_weak(result):
        spectrum, dsec, _ = result
        L = 5
        require(spectrum.dim == dsec.dim, "spectrum size != sector size")
        kernel = len(spectrum.kernel_indices(KERNEL_TOL))
        require(kernel == L + 1, f"weak kernel {kernel}, expected L+1 = {L + 1}")
        require(spectrum.max_real() < KERNEL_TOL,
                f"max Re lambda {spectrum.max_real():.3e} > 0")

    return [Operation("full_spectrum_L4", lambda: full_spectrum(spec4), check_full),
            Operation("weak_spectrum_L5", lambda: weak_spectrum(spec5), check_weak)]


def dense_spectra(inp, workdir):
    """The README spectrum, steady-state and winding calls."""
    from dqlm.numerics import hull_violation, multiset_distance

    spec_dir, ss_dir, wind_dir = (workdir / d for d in ("spectrum", "steady", "winding"))

    def check_spectrum():
        diag = read_manifest(spec_dir)["diagnostics"]
        for tag in ("obc", "pbc"):
            require(diag[f"{tag}_kernel"] == 1,
                    f"{tag} kernel {diag[f'{tag}_kernel']}, expected 1")
        obc = read_eigenvalues(spec_dir / "spectrum_obc.csv")
        pbc = read_eigenvalues(spec_dir / "spectrum_pbc.csv")
        require(obc.size == diag["obc_dim"] and pbc.size == diag["pbc_dim"],
                "eigenvalue count != sector dimension")
        gap = hull_violation(obc, pbc)
        require(gap < 1e-6, f"OBC spectrum leaves the PBC hull by {gap:.3e}")

    def check_steady():
        diag = read_manifest(ss_dir)["diagnostics"]
        L = 5
        require(diag["kernel_dim"] == L + 1,
                f"kernel {diag['kernel_dim']}, expected L+1 = {L + 1}")
        require(diag["max_residual"] < 1e-10,
                f"steady residual {diag['max_residual']:.3e} >= 1e-10")

    def check_winding():
        zero = read_eigenvalues(wind_dir / "spectrum_phi_000.csv")
        half = read_eigenvalues(wind_dir / "spectrum_phi_002.csv")
        gap = multiset_distance(zero, half)
        require(gap < 1e-8, f"double-space spectra at 0 and pi differ by {gap:.3e}")

    return [
        cli_op("spectrum_L5_both",
               ["spectrum", "--L", "5", "--boundary", "both", "--n-particles", "2",
                *rate_flags(inp), "--output-dir", str(spec_dir)], check_spectrum),
        cli_op("steady_state_L5",
               ["steady-state", "--L", "5", *rate_flags(inp),
                "--disorder-seed", str(inp.disorder_seed),
                "--output-dir", str(ss_dir)], check_steady),
        cli_op("winding_L6",
               ["winding", "--L", "6", "--phi-steps", "4", *rate_flags(inp),
                "--output-dir", str(wind_dir)], check_winding),
    ]


def quench(inp, workdir):
    """The README dynamics call from two seeded initial sites."""
    from dqlm.exact import enumeration_marginals, exact_steady_state
    from dqlm.lattice import build_layout

    L, out = 7, workdir / "quench"
    # brute-force marginals of the closed-form ensemble, not the DP path
    target = enumeration_marginals(exact_steady_state(
        build_layout("chain-obc", L), inp.beta,
        n_particles=len(inp.initial_sites)))["site_density"]

    def check():
        diag = read_manifest(out)["diagnostics"]
        require(diag["max_trace_defect"] < 1e-9,
                f"trace defect {diag['max_trace_defect']:.3e} >= 1e-9")
        gap = float(np.abs(np.asarray(diag["final_profile"]) - target).max())
        require(gap < 1e-6, f"final profile misses the exact one by {gap:.3e}")

    sites = ",".join(str(s) for s in inp.initial_sites)
    return [cli_op("dynamics_L7",
                   ["dynamics", "--L", str(L), *rate_flags(inp),
                    "--initial-sites", sites, "--t-final", "180",
                    "--output-dir", str(out)], check)]


def analytic(inp, workdir):
    """verify-exact, the README profiles and the L=100 underflow probe."""
    beta = inp.beta
    verify_dir, chain_dir, hier_dir, probe_dir = (
        workdir / d for d in ("verify", "chain", "hier", "probe"))

    def check_verify():
        with open(verify_dir / "verify_exact.csv", encoding="utf-8") as fh:
            header, *rows = fh.read().strip().splitlines()
        require(header.endswith(",passed[bool]") and len(rows) > 8,
                "verify_exact.csv lacks the battery")
        failed = [r.split(",")[0] for r in rows if not r.endswith(",true")]
        require(not failed, f"verify-exact checks failed: {failed}")

    def check_chain(out, L, counts, link_beta):
        def check():
            _, sites = read_csv(out / "profile_sites.csv")
            _, links = read_csv(out / "profile_links.csv")
            require(sites.shape == (L, len(counts) + 1), "profile_sites shape")
            for col, n in enumerate(counts, start=1):
                total = sites[:, col].sum()
                require(abs(total - n) < 1e-10,
                        f"site densities sum to {total!r}, expected N={n}")
            gap = np.abs(links[:, 1:] - link_polarization(link_beta)).max()
            require(gap < 1e-9, f"link s^z misses (b-1)/(2b+2) by {gap:.3e}")
        return check

    def check_hier():
        L = 14
        _, top = read_csv(hier_dir / "profile_top.csv")
        _, mid = read_csv(hier_dir / "profile_mid.csv")
        total = top[:, 2].sum()
        require(abs(total - L / 2) < 1e-10,
                f"top densities sum to {total!r}, expected N={L // 2}")
        mid_sz = mid[:, 1]
        require(np.count_nonzero(np.diff(np.sign(mid_sz))) >= 1,
                "middle-layer polarization never changes sign")
        quad = float(np.sum((np.arange(1, L + 1) - (L + 1) / 2) ** 2 * top[:, 1]))
        require(abs(quad) > 1.0, f"top quadrupole {quad:.3e} vanishes")

    return [
        cli_op("verify_exact_L7",
               ["verify-exact", "--L", "7", "--output-dir", str(verify_dir)],
               check_verify),
        cli_op("profile_chain_L24",
               ["profile", "--layout", "chain", "--L", "24", "--beta", repr(beta),
                "--fillings", "0.25,0.5,0.75", "--output-dir", str(chain_dir)],
               check_chain(chain_dir, 24, (6, 12, 18), beta)),
        cli_op("profile_hier_L14",
               ["profile", "--layout", "hierarchical", "--L", "14",
                "--beta", repr(beta), "--sector", "0,0",
                "--output-dir", str(hier_dir)], check_hier),
        # the known DP underflow: a nonempty sector reported empty (exit 3);
        # it stays in the workload and counts as a failed operation. Once
        # fixed, it exits 0 and must pass the same chain oracle.
        cli_op("profile_chain_L100_probe",
               ["profile", "--layout", "chain", "--L", "100", "--beta", "3",
                "--fillings", "0.25", "--output-dir", str(probe_dir)],
               check_chain(probe_dir, 100, (25,), 3.0), expect_exit=3),
    ]


WORKLOADS = {
    "block_sweep": block_sweep,
    "dense_spectra": dense_spectra,
    "quench": quench,
    "analytic": analytic,
}


def build(name, inputs, workdir):
    """The operations of one workload for one set of seeded inputs."""
    return WORKLOADS[name](inputs, workdir)
