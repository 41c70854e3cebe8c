"""End-to-end checks of the config-driven command line runner."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dqlm import cli, krylov, numerics
from dqlm.cli import main
from dqlm.exact import enumeration_marginals, ensemble_marginals, \
    exact_steady_state
from dqlm.lattice import build_layout
from dqlm.liouvillian import Superoperator, assemble, assemble_twisted, \
    devectorize_from, trace_vector
from dqlm.models import JumpSpec, ModelSpec
from dqlm.numerics import KERNEL_TOL, eig_dense, multiset_distance, \
    positivity_defect, weak_spectrum


def run(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def stderr_error(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    return json.loads(err[-1])["error"]


def test_verify_exact_battery_passes(tmp_path):
    out = tmp_path / "v"
    assert run("verify-exact", "--L", "3", "--output-dir", str(out)) == 0
    with open(out / "verify_exact.csv", encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "check[name],value[1],threshold[1],passed[bool]"
    assert len(lines) > 8
    assert all(line.endswith(",true") for line in lines[1:])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["diagnostics"]["failed"] == []
    # six chain states, 2^(L-1) eigenoperators, L+1 identities, and the
    # hierarchical and grid states
    assert manifest["diagnostics"]["operands"] == 6 + 4 + 4 + 2
    assert manifest["diagnostics"]["peak_rss_mb"] > 0


VERIFY_L4_ROWS = [
    ("chain_L4_b1.5_plain", 1e-10), ("chain_L4_b1.5_gauge-fix", 1e-10),
    ("chain_L4_b1.5_disorder", 1e-10), ("chain_L4_b3_plain", 1e-10),
    ("chain_L4_b3_gauge-fix", 1e-10), ("chain_L4_b3_disorder", 1e-10),
    ("eigenoperators_L4", 1e-10), ("xlike_identity_L4", 1e-12),
    ("similarity_commutes_L4", 1e-12), ("hierarchical_L4", 1e-10),
    ("grid_2x2", 1e-10), ("dp_vs_enumeration_L4", 1e-12),
]


def test_verify_exact_battery_is_pinned_at_l4(tmp_path):
    # every row, in order, with its threshold: none may be dropped or
    # loosened, and each value passes
    out = tmp_path / "v"
    assert run("verify-exact", "--L", "4", "--output-dir", str(out)) == 0
    with open(out / "verify_exact.csv", encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "check[name],value[1],threshold[1],passed[bool]"
    rows = [line.split(",") for line in lines[1:]]
    assert [(name, float(bound)) for name, _, bound, _ in rows] == \
        VERIFY_L4_ROWS
    for name, value, bound, passed in rows:
        assert passed == "true" and 0 <= float(value) < float(bound), name
    diagnostics = json.loads((out / "manifest.json").read_text())["diagnostics"]
    assert diagnostics["checks"] == len(VERIFY_L4_ROWS)
    assert diagnostics["failed"] == []
    # six chain states, 2^(L-1) = 8 eigenoperators, L+1 = 5 identities,
    # and the hierarchical and grid states
    assert diagnostics["operands"] == 6 + 8 + 5 + 2


def test_spectrum_both_boundaries_and_manifest(tmp_path):
    out = tmp_path / "s"
    code = run("spectrum", "--L", "4", "--boundary", "both",
               "--n-particles", "2", "--output-dir", str(out))
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    names = [a["file"] for a in manifest["artifacts"]]
    assert names == ["spectrum_obc.csv", "spectrum_pbc.csv"]
    for art in manifest["artifacts"]:
        payload = (out / art["file"]).read_bytes()
        assert hashlib.sha256(payload).hexdigest() == art["sha256"]
    header, data = read_csv(out / "spectrum_obc.csv")
    assert header == ["re_lambda[J]", "im_lambda[J]"]
    assert data.shape[0] == manifest["diagnostics"]["obc_dim"]
    assert data[0, 0] == data[:, 0].max()
    assert manifest["diagnostics"]["obc_kernel"] == 1
    assert manifest["diagnostics"]["pbc_kernel"] == 1
    assert abs(manifest["diagnostics"]["pbc_max_real"]) < 1e-9
    # the one open-chain block is real; of the four momentum blocks k = 0
    # and k = 2 are real, and k = 3 is the conjugate of k = 1
    diag = manifest["diagnostics"]
    assert (diag["obc_real_blocks"], diag["obc_conjugated_blocks"]) == (1, 0)
    # the open chain's real form splits into 86 + 38: LAPACK sees 86 at most
    assert diag["obc_max_block_dim"] == 124 and diag["obc_eig_max_dim"] == 86
    assert (diag["pbc_real_blocks"], diag["pbc_conjugated_blocks"]) == (2, 1)


def test_spectrum_records_reflection_copies(tmp_path):
    # the whole weak sector, every particle number
    cfg = tmp_path / "all.json"
    cfg.write_text(json.dumps({"sector": {"n_particles": None}}))
    out = tmp_path / "spec"
    assert run("spectrum", "--config", str(cfg), "--L", "4", "--boundary",
               "both", "--output-dir", str(out)) == 0
    diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
    # the open chain's sectors N = 3, 4 copy the spectra of N = 1, 0 (the
    # particle-hole reflection); every block of a weak sector is its own
    # rho -> rho^+ image, so none is left to the diagonal real form
    assert (diag["obc_real_blocks"], diag["obc_copied_blocks"],
            diag["obc_gauge_real_blocks"]) == (3, 2, 0)
    # the periodic chain has no reflection
    assert diag["pbc_copied_blocks"] == diag["pbc_gauge_real_blocks"] == 0


def test_rerun_writes_byte_identical_payloads(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert run("spectrum", "--L", "4", "--n-particles", "1",
                   "--output-dir", str(out)) == 0
        outs.append(out)
    first = (outs[0] / "spectrum_obc.csv").read_bytes()
    second = (outs[1] / "spectrum_obc.csv").read_bytes()
    assert first == second
    hashes = [json.loads((o / "manifest.json").read_text())["content_hash"]
              for o in outs]
    assert hashes[0] == hashes[1]


def test_flags_override_config_file(tmp_path):
    cfg = {"task": "spectrum",
           "model": {"layout": {"kind": "chain-obc", "L": 3}},
           "sector": {"n_particles": 1},
           "output_dir": str(tmp_path / "ignored")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert run("spectrum", "--config", str(cfg_path), "--L", "4",
               "--output-dir", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["model"]["layout"]["L"] == 4
    assert manifest["config"]["sector"]["n_particles"] == 1


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"task": "spectrum",
         "model": {"layout": {"kind": "chain-obc", "L": 3}},
         "bogus": 1}))
    code = run("spectrum", "--config", str(cfg_path),
               "--output-dir", str(tmp_path / "o"))
    assert code == 2
    err = stderr_error(capsys)
    assert err["exit_code"] == 2
    assert err["kind"] == "schema"
    assert "bogus" in err["message"]


def test_malformed_json_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{not json")
    code = run("spectrum", "--config", str(cfg_path))
    assert code == 2
    assert stderr_error(capsys)["kind"] == "config-parse"


def test_usage_error_prints_json(capsys):
    # only the spectrum subparser accepts --boundary both
    for argv in (("spectrum", "--boundary", "bogus"),
                 ("steady-state", "--boundary", "both"),
                 ("dynamics", "--boundary", "both")):
        assert run(*argv) == 2
        assert stderr_error(capsys)["kind"] == "usage"


PROFILE_L8 = ("profile", "--layout", "chain", "--L", "8", "--beta", "3")


@pytest.mark.parametrize("argv, cfg, code, kind", [
    (("spectrum", "--config", "missing.json"), None, 2, "config-io"),
    (("spectrum", "--config", "cfg.json"), [1], 2, "config-parse"),
    (PROFILE_L8 + ("--fillings", "9"), None, 3, "empty-sector"),
    # doubled charge and dipole of different parity: no state reaches it
    (("profile", "--layout", "hierarchical", "--L", "20", "--beta", "3",
      "--sector", "0,0"), None, 3, "empty-sector"),
    (("dynamics", "--L", "3", "--config", "cfg.json"),
     {"sector": {"n_particles": 1}, "dynamics": {"initial_sites": [1, 2]}},
     2, "usage"),
    (("dynamics", "--L", "3", "--initial-sites", "1,x"), None, 2, "usage"),
    (PROFILE_L8 + ("--fillings", "0.5,a"), None, 2, "usage"),
    (("winding", "--config", "cfg.json"),
     {"model": {"layout": {"kind": "chain-pbc", "L": 3},
                "hamiltonian": {"twist": 0.5}}}, 2, "usage"),
], ids=["missing-config", "list-root", "filling-outside-sites",
        "unreachable-hierarchical-sector", "sector-against-sites",
        "initial-sites-not-integers", "fillings-not-numbers",
        "winding-twist-in-config"])
def test_refused_input_exits_with_its_kind_and_no_csv(tmp_path, monkeypatch,
                                                      capsys, argv, cfg,
                                                      code, kind):
    monkeypatch.chdir(tmp_path)
    if cfg is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert run(*argv, "--output-dir", "out") == code
    error = stderr_error(capsys)
    assert (error["exit_code"], error["kind"]) == (code, kind)
    assert list(tmp_path.rglob("*.csv")) == []


def test_infeasible_sector_exits_3(tmp_path, capsys):
    code = run("spectrum", "--L", "4", "--n-particles", "9",
               "--output-dir", str(tmp_path / "o"))
    assert code == 3
    assert stderr_error(capsys)["exit_code"] == 3


def test_oversized_sector_exits_3(tmp_path, capsys):
    code = run("spectrum", "--L", "4", "--n-particles", "2",
               "--dense-cap", "10", "--output-dir", str(tmp_path / "o"))
    assert code == 3
    assert stderr_error(capsys)["kind"] == "sector-too-large"


def test_dense_cap_applies_to_blocks(tmp_path, capsys):
    # the periodic L=4, N=2 sector holds 364 pairs in momentum blocks of at
    # most 96: both tasks fit a cap of 100, and neither fits a cap of 50
    out = tmp_path / "s"
    assert run("spectrum", "--L", "4", "--boundary", "pbc", "--n-particles",
               "2", "--dense-cap", "100", "--output-dir", str(out)) == 0
    diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
    assert diag["pbc_dim"] == 364
    assert diag["pbc_blocks"] == 4 and diag["pbc_max_block_dim"] == 96
    steady = ("steady-state", "--L", "4", "--boundary", "pbc",
              "--n-particles", "2", "--dense-cap")
    out = tmp_path / "ss"
    assert run(*steady, "100", "--output-dir", str(out)) == 0
    diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
    assert diag["kernel_dim"] == 1 and diag["max_residual"] < 1e-10
    assert run(*steady, "50", "--output-dir", str(tmp_path / "s50")) == 3
    assert stderr_error(capsys)["kind"] == "sector-too-large"


def test_steady_state_cap_is_checked_before_any_factorization(tmp_path,
                                                              capsys,
                                                              monkeypatch):
    # the L=5 open chain's largest block has 518 pairs
    import scipy.sparse.linalg

    factored = []
    monkeypatch.setattr(scipy.sparse.linalg, "splu",
                        lambda *args, **kwargs: factored.append(args))
    out = tmp_path / "ss"
    assert run("steady-state", "--L", "5", "--dense-cap", "517",
               "--output-dir", str(out)) == 3
    assert stderr_error(capsys)["kind"] == "sector-too-large"
    assert factored == []
    assert not (out / "steady_state_profiles.csv").exists()


@pytest.mark.parametrize("name", ["eigs", "splu"])
def test_steady_state_solver_failure_exits_4(name, tmp_path, capsys,
                                             monkeypatch):
    # an ARPACK failure, or an exactly singular sparse LU
    import scipy.sparse.linalg

    def fails(*args, **kwargs):
        if name == "splu":
            raise RuntimeError("Factor is exactly singular")
        raise scipy.sparse.linalg.ArpackNoConvergence(
            "ARPACK error -1: No convergence", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(scipy.sparse.linalg, name, fails)
    out = tmp_path / "ss"
    assert run("steady-state", "--L", "4", "--output-dir", str(out)) == 4
    err = stderr_error(capsys)
    assert err["kind"] == "solver" and "block of dimension" in err["message"]
    assert not (out / "steady_state_profiles.csv").exists()


def test_a_nan_in_a_stacked_block_exits_4(tmp_path, capsys, monkeypatch):
    # a NaN on the diagonal of the smallest gauge block of the L=4 pair
    # space: it and its mirror block take the complex eig in one stack,
    # which fails whole, before any CSV is written
    spec = ModelSpec(layout=build_layout("chain-obc", 4),
                     jumps=(JumpSpec(family="biased", gamma_up=2.4,
                                     gamma_down=1.6),))
    full = assemble(spec)
    _, components, paths = numerics.mirror_eig(
        full.matrix, numerics._mirror_map(full.sector), sector=full.sector)
    own = min((components[i]
               for i in np.flatnonzero(paths == numerics.GAUGE)), key=len)
    nan = sp.csr_matrix(([np.nan], ([own[0]], [own[0]])),
                        shape=full.matrix.shape)
    bad = Superoperator((full.matrix + nan).tocsr(), full.sector,
                        full.hamiltonian, full.jumps, full.twists)
    stacks = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda a: stacks.append(a.shape) or eigvals(a))
    monkeypatch.setattr(cli, "assemble", lambda *args, **kwargs: bad)
    out = tmp_path / "s"
    assert run("spectrum", "--boundary", "obc", "--L", "4",
               "--output-dir", str(out)) == 4
    assert stderr_error(capsys)["kind"] == "solver"
    assert stacks[-1] == (2, own.size, own.size)
    assert not (out / "spectrum_obc.csv").exists()


@pytest.mark.parametrize("argv", [
    ("spectrum", "--boundary", "pbc", "--L", "2"),
    ("steady-state", "--layout", "hierarchical", "--L", "2"),
    ("spectrum", "--layout", "square-2d", "--L", "2"),
    ("spectrum", "--L", "4", "--Ly", "2"),
    ("winding", "--L", "2"),
])
def test_unbuildable_layout_exits_2(tmp_path, capsys, argv):
    code = run(*argv, "--output-dir", str(tmp_path / "o"))
    assert code == 2
    err = stderr_error(capsys)
    assert err["exit_code"] == 2
    assert err["kind"] == "model"


def test_dynamics_initial_site_validation(tmp_path, capsys):
    code = run("dynamics", "--L", "4", "--initial-sites", "1,9",
               "--output-dir", str(tmp_path / "o"))
    assert code == 2
    assert stderr_error(capsys)["kind"] == "usage"


def test_dynamics_counts_every_site_of_a_square_lattice(tmp_path, capsys):
    # a 2x2 grid has four sites, numbered row-major
    grid = ("--layout", "square-2d", "--L", "2", "--Ly", "2",
            "--t-final", "1", "--t-points", "3")
    out = tmp_path / "d"
    assert run("dynamics", *grid, "--initial-sites", "3",
               "--output-dir", str(out)) == 0
    header, data = read_csv(out / "dynamics.csv")
    assert header[1:5] == [f"N_{n}[1]" for n in range(1, 5)]
    assert data[0, 1:5].tolist() == [0.0, 0.0, 1.0, 0.0]
    assert data[:, -1].max() < 1e-9
    assert run("dynamics", *grid, "--initial-sites", "5",
               "--output-dir", str(tmp_path / "o")) == 2
    error = stderr_error(capsys)
    assert error["kind"] == "usage" and "1..4" in error["message"]


def test_dynamics_relaxes_to_exact_profile(tmp_path):
    out = tmp_path / "d"
    code = run("dynamics", "--L", "3", "--initial-sites", "1",
               "--t-final", "200", "--t-points", "21",
               "--output-dir", str(out))
    assert code == 0
    header, data = read_csv(out / "dynamics.csv")
    assert header[0] == "time[1/J]"
    assert header[-1] == "trace_defect[1]"
    assert np.all(data[:, -1] < 1e-8)
    # the state from one diagonal pair reaches 17 of the 22 real coordinates
    diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
    assert diag["sector_dim"] == 22 and diag["evolved_dim"] == 17
    layout = build_layout("chain-obc", 3)
    marg = ensemble_marginals(
        exact_steady_state(layout, beta=1.5, n_particles=1))
    final = data[-1, 1:4]
    assert np.abs(final - marg["site_density"]).max() < 1e-6


def test_dynamics_records_the_krylov_steps(tmp_path):
    out = tmp_path / "d"
    with pytest.warns(UserWarning, match="rtol"):
        code = run("dynamics", "--L", "3", "--initial-sites", "1",
                   "--t-final", "1", "--rtol", "1e-300",
                   "--output-dir", str(out))
    assert code == 0
    diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
    assert 0 < diag["integrator_steps"] <= diag["rhs_evals"]
    assert 0 < diag["krylov_dim_max"] <= krylov.KRYLOV_CAP


def test_dynamics_reports_a_step_below_the_smallest(tmp_path, capsys,
                                                   monkeypatch):
    monkeypatch.setattr(krylov, "KRYLOV_CAP", 1)
    out = tmp_path / "d"
    code = run("dynamics", "--L", "3", "--initial-sites", "1",
               "--gamma-up", "1e12", "--gamma-down", "1e12",
               "--t-final", "1", "--output-dir", str(out))
    assert code == 4
    error = stderr_error(capsys)
    assert error["kind"] == "integration" and "smallest step" in error["message"]
    assert not (out / "dynamics.csv").exists()


def test_winding_double_space_pi_periodicity(tmp_path):
    out = tmp_path / "w"
    code = run("winding", "--L", "3", "--phi-steps", "4",
               "--n-particles", "1", "--variant", "double-space",
               "--output-dir", str(out))
    assert code == 0
    header, data = read_csv(out / "winding_summary.csv")
    assert header == ["phi[rad]", "max_re_lambda[J]", "kernel_count[1]"]
    assert data.shape[0] == 4
    assert data[0, 2] == 1 and data[2, 2] == 1
    assert abs(data[2, 1]) < 1e-9
    zero, pi = read_csv(out / "spectrum_phi_000.csv")[1], \
        read_csv(out / "spectrum_phi_002.csv")[1]
    assert multiset_distance(zero[:, 0] + 1j * zero[:, 1],
                             pi[:, 0] + 1j * pi[:, 1]) < 1e-8
    # 66 pairs in three momentum blocks of 22, at every phase
    diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
    assert diag["blocks"] == [3] * 4 and diag["max_block_dim"] == [22] * 4
    # at 0 one block is real and one the conjugate of another; pi copies
    # 0 through the wrap-link sign, and 3 pi/2 is the conjugate of pi/2,
    # block by block
    assert diag["real_blocks"] == [1, 0, 0, 0]
    assert diag["conjugated_blocks"] == [1, 0, 0, 3]
    assert diag["copied_blocks"] == [0, 0, 3, 0]
    assert diag["spectrum_from"] == [None, None, 0, 1]
    assert diag["eig_max_dim"] == [22, 22, 0, 0]
    quarter, three = (read_csv(out / f"spectrum_phi_{j:03d}.csv")[1]
                      for j in (1, 3))
    assert multiset_distance(quarter[:, 0] - 1j * quarter[:, 1],
                             three[:, 0] + 1j * three[:, 1]) == 0.0


def test_winding_without_translation_symmetry_runs_unsplit(tmp_path,
                                                          monkeypatch):
    # effective-asep hops across site 1 break the dressed translation of
    # the double-space twist at phi = pi/2 and 3 pi/2: those phases are
    # diagonalized without the momentum split
    generators = []
    real = cli.spectrum_of

    def recording(superop, *args, **kwargs):
        generators.append(superop)
        return real(superop, *args, **kwargs)

    monkeypatch.setattr(cli, "spectrum_of", recording)
    cfg = tmp_path / "asep.json"
    cfg.write_text(json.dumps({"model": {"jumps": [
        {"family": "effective-asep", "gamma_right": 0.3, "gamma_left": 0.1}]}}))
    out = tmp_path / "w"
    assert run("winding", "--config", str(cfg), "--L", "4",
               "--n-particles", "1", "--phi-steps", "4",
               "--output-dir", str(out)) == 0
    diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
    assert diag["variant"] == "double-space"
    assert diag["blocks"] == [4, 1, 4, 1]
    assert diag["max_block_dim"] == [46, 184, 46, 184]
    # pi copies 0 through the wrap-link sign, and -pi/2 is the conjugate
    # of pi/2: no generator of their own goes to `spectrum_of`
    assert len(generators) == 2
    assert diag["spectrum_from"] == [None, None, 0, 1]
    # the first block of a mirror pair at 0 and the unsplit pi/2 block
    # are split by the parity of rho -> Sigma rho^T Sigma
    assert diag["parity_split_blocks"] == [1, 1, 0, 0]
    assert diag["eig_max_dim"] == [31, 124, 0, 0]
    asep = ModelSpec(layout=build_layout("chain-pbc", 4),
                     jumps=(JumpSpec(family="effective-asep", gamma_right=0.3,
                                     gamma_left=0.1),))
    for j in range(4):
        superop = assemble_twisted(asep, j * np.pi / 2, "double-space",
                                   sector=generators[0].sector)
        data = read_csv(out / f"spectrum_phi_{j:03d}.csv")[1]
        unsplit = eig_dense(superop.matrix).eigenvalues
        assert multiset_distance(data[:, 0] + 1j * data[:, 1], unsplit) < 1e-8


def test_winding_diagonalizes_a_phase_whose_partner_check_fails(
        tmp_path, monkeypatch):
    # the generator at pi, off by 1e-10 on one entry, is no longer the
    # wrap-link image of the one at 0: it takes its own eig
    real = Superoperator.rephase

    def rephased(superop, phi):
        superop = real(superop, phi)
        if phi == np.pi:
            data = superop.matrix.data
            data[0] += 1e-10 * np.linalg.norm(data)
        return superop

    monkeypatch.setattr(Superoperator, "rephase", rephased)
    out = tmp_path / "w"
    assert run("winding", "--L", "4", "--phi-steps", "4",
               "--output-dir", str(out)) == 0
    diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
    assert diag["spectrum_from"] == [None, None, None, 1]
    assert diag["eig_max_dim"][2] > 0 and diag["copied_blocks"][2] == 0
    zero, pi = (read_csv(out / f"spectrum_phi_{j:03d}.csv")[1]
                for j in (0, 2))
    assert 0 < multiset_distance(zero[:, 0] + 1j * zero[:, 1],
                                 pi[:, 0] + 1j * pi[:, 1]) < 1e-8


def test_jump_family_flag_keeps_only_the_rates_it_reads(tmp_path, capsys):
    # the biased default rates are not read by effective-asep: left alone,
    # the model would have no dissipation
    code = run("winding", "--L", "4", "--jump-family", "effective-asep",
               "--output-dir", str(tmp_path / "none"))
    assert code == 2
    err = stderr_error(capsys)
    assert err["kind"] == "model" and "no dissipation" in err["message"]
    out = tmp_path / "asep"
    assert run("winding", "--L", "4", "--jump-family", "effective-asep",
               "--gamma-right", "0.3", "--gamma-left", "0.1",
               "--phi-steps", "2", "--output-dir", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["model"]["jumps"] == [
        {"family": "effective-asep", "gamma_right": 0.3, "gamma_left": 0.1}]


def test_unread_jump_rates_are_refused(tmp_path, capsys):
    # a config file's jump keeps only the rates its family reads
    cfg = tmp_path / "asep.json"
    cfg.write_text(json.dumps({"model": {"jumps": [
        {"family": "effective-asep", "gamma_up": 2.4, "gamma_right": 0.3}]}}))
    code = run("dynamics", "--config", str(cfg), "--L", "3",
               "--initial-sites", "1", "--output-dir", str(tmp_path / "c"))
    assert code == 2
    err = stderr_error(capsys)
    assert err["kind"] == "model" and "gamma_up" in err["message"]
    # so does a rate flag the family given by --jump-family does not read
    code = run("winding", "--L", "4", "--jump-family", "effective-asep",
               "--gamma-right", "0.3", "--gamma-up", "2",
               "--output-dir", str(tmp_path / "f"))
    assert code == 2
    assert stderr_error(capsys)["kind"] == "model"


def test_steady_state_kernel_and_profiles(tmp_path):
    out = tmp_path / "ss"
    assert run("steady-state", "--L", "4", "--output-dir", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["diagnostics"]["kernel_dim"] == 5
    assert manifest["diagnostics"]["max_residual"] < 1e-8
    # one coupled block per particle number 0..4: N = 0, 1, 2 factored
    # in their real form, N = 3, 4 copied from N = 1, 0 through Pi
    assert manifest["diagnostics"]["blocks"] == 5
    assert manifest["diagnostics"]["real_blocks"] == 3
    assert manifest["diagnostics"]["copied_blocks"] == 2
    assert manifest["diagnostics"]["conjugated_blocks"] == 0
    assert (manifest["diagnostics"]["max_block_dim"]
            < manifest["diagnostics"]["sector_dim"])
    # the N = 0 block, 8 pairs, is counted by a dense eig
    # (`KERNEL_DENSE_DIM`), the others by ARPACK on their LU
    assert manifest["diagnostics"]["eig_max_dim"] == 8
    assert manifest["diagnostics"]["kernel_lu_nnz"] > 0
    assert manifest["diagnostics"]["kernel_residual_ratio"] < 1e-12
    # the smallest |lambda| outside the kernel is the dense spectrum's, to
    # the accuracy of a near-degenerate nonnormal eigenvalue
    spec = ModelSpec(layout=build_layout("chain-obc", 4),
                     jumps=(JumpSpec(family="biased", gamma_up=2.4,
                                     gamma_down=1.6),))
    moduli = np.abs(weak_spectrum(spec)[0].eigenvalues)
    assert abs(manifest["diagnostics"]["kernel_separation"]
               - moduli[moduli >= KERNEL_TOL].min()) < 1e-8
    with open(out / "steady_state_profiles.csv", encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "state[index],kind[name],position[index],value[1]"
    # five states, four sites and three links each
    assert len(lines) - 1 == 5 * 7


@pytest.mark.parametrize("args, code", [
    # rates x1e6: one state 1.3e-4 off the exact profile, ratio 1.2e-2
    (("--L", "4", "--n-particles", "2", "--gamma-up", "2.4e6",
      "--gamma-down", "1.6e6"), 4),
    # rates x1e-10: 15 states where the kernel has one, ratio 3.9
    (("--L", "4", "--n-particles", "2", "--gamma-up", "2.4e-10",
      "--gamma-down", "1.6e-10"), 4),
    # the README calls
    (("--L", "4"), 0),
    (("--L", "5", "--disorder-seed", "3"), 0)])
def test_steady_state_certifies_its_kernel_by_the_separation(
        tmp_path, capsys, args, code):
    out = tmp_path / "ss"
    assert run("steady-state", *args, "--output-dir", str(out)) == code
    if code:
        err = stderr_error(capsys)
        assert err["kind"] == "solver" and "not resolved" in err["message"]
        assert not (out / "steady_state_profiles.csv").exists()
    else:
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["diagnostics"]["kernel_residual_ratio"] < 1e-12


def test_steady_state_refuses_a_state_that_is_not_steady(tmp_path, capsys,
                                                        monkeypatch):
    # the maximally mixed state of the L=3 sector is not steady under
    # biased link jumps: its residual is far above 1e-8 x ||L||_F
    def mixed(superop, **_):
        diagonal = trace_vector(superop.sector)
        return [devectorize_from(diagonal / diagonal.sum(), superop.sector)]

    monkeypatch.setattr(cli, "steady_states", mixed)
    out = tmp_path / "ss"
    assert run("steady-state", "--L", "3", "--output-dir", str(out)) == 4
    assert stderr_error(capsys)["kind"] == "solver"
    assert not (out / "steady_state_profiles.csv").exists()


def test_steady_state_one_positive_state_per_particle_number(tmp_path,
                                                            monkeypatch):
    states = []
    real = cli.steady_states

    def recording(*args, **kwargs):
        states.extend(real(*args, **kwargs))
        return states

    monkeypatch.setattr(cli, "steady_states", recording)
    out = tmp_path / "ss5"
    assert run("steady-state", "--L", "5", "--disorder-seed", "7",
               "--output-dir", str(out)) == 0
    assert len(states) == 6
    assert max(positivity_defect(rho) for rho in states) < 1e-10
    # the exact states are diagonal: no roundoff coherence is kept
    for rho in states:
        coo = rho.matrix.tocoo()
        assert np.array_equal(coo.row, coo.col)
    with open(out / "steady_state_profiles.csv", encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().strip().splitlines()[1:]]
    layout = build_layout("chain-obc", 5)
    profiles = {}
    for state, kind, pos, value in rows:
        if kind == "site_density":
            profiles.setdefault(int(state), {})[int(pos)] = float(value)
    assert sorted(profiles) == list(range(6))
    for state, sites in profiles.items():
        density = np.array([sites[n] for n in range(1, 6)])
        # state k is the steady state of the k-particle sector
        assert abs(density.sum() - state) < 1e-10
        exact = enumeration_marginals(
            exact_steady_state(layout, beta=1.5, n_particles=state))
        assert np.abs(density - exact["site_density"]).max() < 1e-9
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["diagnostics"]["kernel_dim"] == 6
    assert manifest["diagnostics"]["max_residual"] < 1e-10


def test_leak_tol_reaches_assembly(tmp_path, monkeypatch):
    seen = []
    real = cli.assemble

    def recording(*args, **kwargs):
        seen.append(kwargs.get("leak_tol"))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "assemble", recording)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"task": "spectrum",
         "model": {"layout": {"kind": "chain-obc", "L": 3}},
         "tolerances": {"leak_tol": 3e-9}}))
    assert run("spectrum", "--config", str(cfg_path),
               "--output-dir", str(tmp_path / "o")) == 0
    assert run("steady-state", "--L", "3",
               "--output-dir", str(tmp_path / "p")) == 0
    assert seen == [3e-9, cli.LEAK_TOL]


def test_profile_chain_fraction_equals_absolute(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run("profile", "--layout", "chain", "--L", "8", "--beta", "3",
               "--fillings", "0.5", "--output-dir", str(out_a)) == 0
    assert run("profile", "--layout", "chain", "--L", "8", "--beta", "3",
               "--fillings", "4", "--output-dir", str(out_b)) == 0
    assert (out_a / "profile_sites.csv").read_bytes() == \
        (out_b / "profile_sites.csv").read_bytes()
    header, data = read_csv(out_a / "profile_links.csv")
    assert header == ["m[link]", "link_sz_N4[1]"]
    assert data.shape == (7, 2)


def test_profile_hierarchical_sector(tmp_path):
    out = tmp_path / "h"
    assert run("profile", "--layout", "hierarchical", "--L", "4",
               "--beta", "3", "--sector", "0,1",
               "--output-dir", str(out)) == 0
    _, top = read_csv(out / "profile_top.csv")
    _, mid = read_csv(out / "profile_mid.csv")
    _, bot = read_csv(out / "profile_bot.csv")
    assert top.shape[0] == 4 and mid.shape[0] == 3 and bot.shape[0] == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["diagnostics"]["sector"] == [0, 1]


def test_profile_grid_needs_beta_prime(tmp_path, capsys):
    code = run("profile", "--layout", "square-2d", "--L", "3", "--Ly", "2",
               "--beta", "3", "--output-dir", str(tmp_path / "g"))
    assert code == 2
    assert "beta_prime" in stderr_error(capsys)["message"]
    out = tmp_path / "g2"
    assert run("profile", "--layout", "square-2d", "--L", "3", "--Ly", "2",
               "--beta", "3", "--beta-prime", "2",
               "--output-dir", str(out)) == 0
    _, sites = read_csv(out / "profile_sites.csv")
    _, hl = read_csv(out / "profile_hlinks.csv")
    _, vl = read_csv(out / "profile_vlinks.csv")
    assert sites.shape[0] == 6 and hl.shape[0] == 4 and vl.shape[0] == 3


GRID_PROFILE = ("profile", "--layout", "square-2d", "--L", "3", "--Ly", "3",
                "--beta", "3", "--beta-prime", "2")


def test_grid_profile_takes_one_filling(tmp_path, capsys):
    out = tmp_path / "g"
    assert run(*GRID_PROFILE, "--fillings", "0.25,0.5,0.75",
               "--output-dir", str(out)) == 2
    assert stderr_error(capsys)["kind"] == "usage"
    assert list(out.iterdir()) == []


def test_grid_profile_refuses_a_count_outside_the_sites(tmp_path, capsys,
                                                        monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "exact_steady_state", lambda *a, **k: calls.append(
        k["n_particles"]) or exact_steady_state(*a, **k))
    out = tmp_path / "g"
    assert run(*GRID_PROFILE, "--fillings", "10", "--output-dir", str(out)) == 3
    error = stderr_error(capsys)
    assert error["kind"] == "empty-sector" and "0..9" in error["message"]
    assert calls == [] and list(out.iterdir()) == []
    assert run(*GRID_PROFILE, "--fillings", "9",
               "--output-dir", str(out)) == 0
    assert calls == [9]


@pytest.mark.parametrize("L, beta, filling", [(72, 3, 0.5), (100, 3, 0.25),
                                              (400, 3, 0.5), (400, 10, 0.5)])
def test_long_chain_profiles_pass_the_chain_oracle(tmp_path, L, beta,
                                                   filling):
    # these exited 3 (empty-sector) while the DP underflowed
    out = tmp_path / "p"
    assert run("profile", "--layout", "chain", "--L", str(L), "--beta",
               str(beta), "--fillings", str(filling),
               "--output-dir", str(out)) == 0
    _, sites = read_csv(out / "profile_sites.csv")
    _, links = read_csv(out / "profile_links.csv")
    assert abs(sites[:, 1].sum() - L * filling) < 1e-10
    assert np.abs(links[:, 1] - (beta - 1) / (2 * beta + 2)).max() < 1e-9


def test_an_unrepresentable_weight_exits_4_without_csv(tmp_path, monkeypatch,
                                                       capsys):
    def unrepresentable(ens):
        raise cli.UnrepresentableWeightError("weight nan")

    monkeypatch.setattr(cli, "ensemble_marginals", unrepresentable)
    out = tmp_path / "p"
    assert run(*PROFILE_L8, "--fillings", "0.5", "--output-dir", str(out)) == 4
    error = stderr_error(capsys)
    assert (error["exit_code"], error["kind"]) == (4, "unrepresentable-weight")
    assert not list(tmp_path.rglob("*.csv"))


def test_no_stray_temp_files(tmp_path):
    out = tmp_path / "t"
    assert run("profile", "--layout", "chain", "--L", "6", "--beta", "2",
               "--fillings", "0.5", "--output-dir", str(out)) == 0
    assert not [f for f in os.listdir(out) if ".tmp" in f]


# one config per rule the config checks enforce, each merged into the task's
# defaults; the task is the one whose section the config touches
REFUSED_CONFIGS = [
    # top level
    {"bogus": 1},
    {"output_dir": 5},
    {"sector": 3},
    {"tolerances": None},
    # model
    {"model": 3},
    {"model": {"bogus": 1}},
    {"model": {"layout": 3}},
    {"model": {"layout": {"bogus": 1}}},
    {"model": {"layout": {"kind": "ring"}}},
    {"model": {"layout": {"L": "4"}}},
    {"model": {"layout": {"L": True}}},
    {"model": {"layout": {"L": 1}}},
    {"model": {"layout": {"Ly": -1}}},
    {"model": {"layout": {"Ly": 1.5}}},
    {"model": {"hamiltonian": 3}},
    {"model": {"hamiltonian": {"bogus": 1}}},
    {"model": {"hamiltonian": {"kind": "ising"}}},
    {"model": {"hamiltonian": {"J": "1"}}},
    {"model": {"hamiltonian": {"J1": True}}},
    {"model": {"hamiltonian": {"J2": None}}},
    {"model": {"hamiltonian": {"twist": -0.5}}},
    {"model": {"hamiltonian": {"J": float("nan")}}},
    {"model": {"jumps": {"family": "biased"}}},
    {"model": {"jumps": None}},
    {"model": {"jumps": [3]}},
    {"model": {"jumps": [{"family": "biased", "gamma_up": 1.0, "bogus": 1}]}},
    {"model": {"jumps": [{"family": "flip", "gamma_up": 1.0}]}},
    {"model": {"jumps": [{"gamma_up": 1.0}]}},
    {"model": {"jumps": [{"family": "biased", "gamma_up": -1.0}]}},
    {"model": {"jumps": [{"family": "biased", "gamma_up": "1"}]}},
    {"model": {"jumps": [{"family": "biased", "gamma_up": True}]}},
    {"model": {"disorder": 3}},
    {"model": {"disorder": True}},
    {"model": {"disorder": {"bogus": 1}}},
    {"model": {"disorder": {"field_strength": -0.5}}},
    {"model": {"disorder": {"field_strength": "0.5"}}},
    {"model": {"disorder": {"long_range_strength": -0.5}}},
    {"model": {"disorder": {"long_range_strength": True}}},
    {"model": {"disorder": {"seed": -1}}},
    {"model": {"disorder": {"seed": "7"}}},
    {"model": {"disorder": {"seed": 1.5}}},
    # sector, spectrum, winding
    {"sector": {"bogus": 1}},
    {"sector": {"n_particles": -1}},
    {"sector": {"n_particles": "2"}},
    {"sector": {"n_particles": True}},
    {"spectrum": {"bogus": 1}},
    {"spectrum": {"boundary": "open"}},
    {"spectrum": 3},
    {"winding": {"bogus": 1}},
    {"winding": {"phi_steps": 1}},
    {"winding": {"phi_steps": 2.5}},
    {"winding": {"variant": "twisted"}},
    # dynamics
    {"dynamics": {"bogus": 1}},
    {"dynamics": {"t_final": 0}},
    {"dynamics": {"t_final": True}},
    {"dynamics": {"t_final": float("inf")}},
    {"dynamics": {"t_points": 1}},
    {"dynamics": {"t_points": "21"}},
    {"dynamics": {"initial_sites": "1,2"}},
    {"dynamics": {"initial_sites": [0]}},
    {"dynamics": {"initial_sites": [1.5]}},
    {"dynamics": {"rtol": -1e-9}},
    {"dynamics": {"atol": 0}},
    {"dynamics": {"atol": "1e-9"}},
    # profile
    {"profile": {"bogus": 1}},
    {"profile": {"layout": "ladder"}},
    {"profile": {"L": 1}},
    {"profile": {"Ly": 1}},
    {"profile": {"beta": 0}},
    {"profile": {"beta": "3"}},
    {"profile": {"beta_prime": 0}},
    {"profile": {"alpha": -1.0}},
    {"profile": {"alpha_prime": 0}},
    {"profile": {"alpha_prime": True}},
    {"profile": {"fillings": []}},
    {"profile": {"fillings": [-0.5]}},
    {"profile": {"fillings": 0.5}},
    {"profile": {"sector": [0]}},
    {"profile": {"sector": [0, 0, 0]}},
    {"profile": {"sector": [0, 0.5]}},
    {"profile": {"sector": "0,0"}},
    # verify and tolerances
    {"verify": {"bogus": 1}},
    {"verify": {"L": 2}},
    {"tolerances": {"bogus": 1}},
    {"tolerances": {"kernel_tol": 0}},
    {"tolerances": {"dense_cap": 0}},
    {"tolerances": {"dense_cap": 100.5}},
    {"tolerances": {"leak_tol": "1e-12"}},
    {"tolerances": {"leak_tol": -1.0}},
]

SECTION_TASKS = {"winding": "winding", "dynamics": "dynamics",
                 "profile": "profile", "verify": "verify-exact"}


def run_config(tmp_path, monkeypatch, task, cfg, *flags):
    """Run `task` on a config file in an empty working directory; returns
    the exit code and what the run left beside the config file."""
    monkeypatch.chdir(tmp_path)
    # json.dumps writes a non-finite float as NaN or Infinity, as
    # json.load reads them
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    code = run(task, "--config", "cfg.json", *flags)
    return code, sorted(set(os.listdir(tmp_path)) - {"cfg.json"})


@pytest.mark.parametrize("cfg", REFUSED_CONFIGS, ids=json.dumps)
def test_refused_config_exits_2_before_any_output(tmp_path, monkeypatch,
                                                  capsys, cfg):
    task = SECTION_TASKS.get(next(iter(cfg)), "spectrum")
    code, left = run_config(tmp_path, monkeypatch, task, cfg)
    assert code == 2
    assert stderr_error(capsys)["exit_code"] == 2
    assert left == []


@pytest.mark.parametrize("cfg, kind, named", [
    ({"model": {"layout": {"bogus": 1}}}, "model", "bogus"),
    ({"model": {"jumps": [{"family": "biased", "gamma_up": 1.0,
                           "rate": 2}]}}, "model", "rate"),
    ({"model": {"jumps": [{"gamma_up": 1.0}]}}, "model", "family"),
    ({"model": {"disorder": {"seed": -1}}}, "model", "seed"),
    ({"dynamics": {"bogus": 1}}, "schema", "dynamics.bogus"),
    ({"profile": {"sector": [0]}}, "schema", "profile.sector"),
    ({"tolerances": {"dense_cap": 0}}, "schema", "tolerances.dense_cap"),
    ({"model": {"hamiltonian": {"J": float("nan")}}}, "model", "J"),
    ({"dynamics": {"t_final": float("inf")}}, "schema", "dynamics.t_final"),
])
def test_config_errors_name_the_key(tmp_path, monkeypatch, capsys, cfg, kind,
                                    named):
    # errors under `model` come from the model parser, the rest from the
    # CLI's own key table
    task = SECTION_TASKS.get(next(iter(cfg)), "spectrum")
    assert run_config(tmp_path, monkeypatch, task, cfg)[0] == 2
    err = stderr_error(capsys)
    assert err["kind"] == kind
    assert named in err["message"]


@pytest.mark.parametrize("cfg, flags, named", [
    ({"sector": None}, ("--n-particles", "1"), "'sector'"),
    ({"model": {"layout": 3}}, ("--L", "4"), "'model.layout'"),
    ({"model": 3}, ("--boundary", "obc"), "'model'"),
    ({"model": {"hamiltonian": None}}, ("--J", "1.5"), "'model.hamiltonian'"),
    ({"model": {"jumps": 3}}, ("--gamma-up", "2"), "'model.jumps'"),
    ({"model": {"jumps": [3]}}, ("--add-gauge-fix", "0.5"), "'model.jumps'"),
    ({"model": {"disorder": 3}}, ("--disorder-seed", "2"), "'model.disorder'"),
], ids=lambda v: json.dumps(v) if isinstance(v, dict) else None)
def test_flags_refuse_to_write_into_a_non_object(tmp_path, monkeypatch, capsys,
                                                 cfg, flags, named):
    # the section a flag writes into is checked before the write
    code, left = run_config(tmp_path, monkeypatch, "steady-state", cfg, *flags)
    assert code == 2 and left == []
    err = stderr_error(capsys)
    assert err["kind"] == "schema"
    assert named in err["message"]


def test_disorder_seed_flag_fills_a_null_disorder(tmp_path, monkeypatch):
    cfg = {"model": {"layout": {"L": 3}, "disorder": None}}
    code, left = run_config(tmp_path, monkeypatch, "steady-state", cfg,
                            "--disorder-seed", "2", "--output-dir", "out")
    assert code == 0 and left == ["out"]
    with open(tmp_path / "out" / "manifest.json", encoding="utf-8") as fh:
        assert json.load(fh)["config"]["model"]["disorder"] == {"seed": 2}


@pytest.mark.parametrize("task, cfg", [
    ("spectrum", {"model": {"layout": {"L": 4.0}}}),
    ("spectrum", {"model": {"disorder": {"seed": 2.0}}}),
    ("dynamics", {"dynamics": {"t_points": 21.0}}),
    ("verify-exact", {"verify": {"L": 3.0}}),
    ("spectrum", {"sector": {"n_particles": 2.0}}),
    ("spectrum", {"tolerances": {"dense_cap": 100.0}}),
], ids=lambda v: json.dumps(v) if isinstance(v, dict) else v)
def test_integral_floats_are_not_integers(tmp_path, monkeypatch, capsys, task,
                                          cfg):
    # `4.0` where an integer belongs is refused, not carried into the run
    code, left = run_config(tmp_path, monkeypatch, task, cfg)
    assert code == 2
    assert stderr_error(capsys)["exit_code"] == 2
    assert left == []


def test_none_hamiltonian_is_a_config_kind(tmp_path):
    cfg = tmp_path / "none.json"
    cfg.write_text(json.dumps({"model": {"hamiltonian": {"kind": "none"}}}))
    out = tmp_path / "o"
    assert run("spectrum", "--config", str(cfg), "--L", "3",
               "--output-dir", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["model"]["hamiltonian"]["kind"] == "none"


def test_profile_and_verify_sizes_stay_out_of_the_model(tmp_path):
    out = tmp_path / "g"
    assert run("profile", "--layout", "square-2d", "--L", "3", "--Ly", "2",
               "--beta", "3", "--beta-prime", "2",
               "--output-dir", str(out)) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert (config["profile"]["L"], config["profile"]["Ly"]) == (3, 2)
    assert config["model"]["layout"] == {"kind": "chain-obc", "L": 4}


def test_empty_dp_sector_exits_3(tmp_path, capsys):
    code = run("profile", "--layout", "hierarchical", "--L", "5",
               "--beta", "3", "--sector", "1,0",
               "--output-dir", str(tmp_path / "h"))
    assert code == 3
    assert stderr_error(capsys)["kind"] == "empty-sector"


# modules that no task needs at import: the config checks need no schema
# library, no dqlm module imports scipy.integrate, scipy.optimize or
# scipy.special itself (the Krylov integrator steps on its own), and each
# other scipy submodule below is imported where it is used
DEFERRED = ("jsonschema", "scipy.integrate", "scipy.optimize", "scipy.special",
            "scipy.spatial", "scipy.sparse.linalg", "scipy.sparse.csgraph")


def fresh_interpreter(code, tmp_path=None):
    """Run `code` in a new interpreter with this package on its path; its
    last stdout line, parsed as JSON."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    result = subprocess.run([sys.executable, "-c", code], check=True,
                            capture_output=True, text=True, cwd=tmp_path,
                            env={**os.environ, "PYTHONPATH": src})
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_cli_import_leaves_unused_modules_out():
    loaded = fresh_interpreter(
        "import json, sys, dqlm.cli; "
        f"print(json.dumps([m for m in {DEFERRED!r} if m in sys.modules]))")
    assert loaded == []


@pytest.mark.parametrize("argv, absent", [
    (("profile", "--layout", "chain", "--L", "24", "--beta", "3",
      "--fillings", "0.25,0.5,0.75"), ("scipy.integrate", "scipy.spatial")),
    (("verify-exact", "--L", "5"), ("scipy.integrate", "scipy.spatial")),
    (("dynamics", "--L", "3", "--initial-sites", "1", "--t-final", "1",
      "--t-points", "3"),
     ("scipy.integrate", "scipy.optimize", "scipy.special")),
], ids=["profile", "verify-exact", "dynamics"])
def test_each_task_imports_only_what_it_runs(tmp_path, argv, absent):
    argv = list(argv) + ["--output-dir", "out"]
    code, loaded = fresh_interpreter(
        "import json, sys; from dqlm.cli import main; "
        f"code = main({argv!r}); "
        f"print(json.dumps([code, [m for m in {absent!r} "
        "if m in sys.modules]]))", tmp_path)
    assert code == 0
    assert loaded == []


@pytest.mark.parametrize("argv", [
    ("spectrum", "--L", "3"),
    ("steady-state", "--L", "3"),
    ("dynamics", "--L", "3", "--initial-sites", "1"),
    ("winding", "--L", "3", "--phi-steps", "2")],
    ids=lambda argv: argv[0])
def test_an_overflowing_generator_exits_4_with_one_line(argv, tmp_path,
                                                          capsys):
    # the rates pass validation, but the gain 2 L (x) L^* overflows
    out = tmp_path / "o"
    assert run(*argv, "--gamma-up", "1e308", "--gamma-down", "1",
               "--output-dir", str(out)) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    error = json.loads(err[0])["error"]
    assert error["kind"] == "solver"
    assert "non-finite entries" in error["message"]
    assert not list(out.glob("*.csv"))


CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.integers(-2**70, 2**70),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.booleans(), st.booleans().map(np.bool_),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1e16, 10**17 + 1,
                     np.int64(2**63 - 1), np.int64(-2**63)]),
    st.text(alphabet="abc_[]", max_size=4))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(CELLS, min_size=1, max_size=4), min_size=1,
                max_size=6))
def test_csv_rows_read_as_format_number_writes_each_cell(tmp_path_factory,
                                                          rows):
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    width = max(map(len, rows))
    rows = [tuple(row) + ("x",) * (width - len(row)) for row in rows]
    _, count = cli.write_csv(path, [f"c{i}" for i in range(width)], rows)
    want = [",".join(cell if isinstance(cell, str)
                     else cli.format_number(cell) for cell in row)
            for row in rows]
    assert count == len(rows)
    assert path.read_text(encoding="utf-8").splitlines()[1:] == want
