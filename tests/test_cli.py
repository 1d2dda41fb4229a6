import csv
import json
from pathlib import Path

import numpy as np
import pytest

from rsgmfg import cli
from rsgmfg.cli import main
from rsgmfg.core import Grids
from rsgmfg.gmfg import MeanFieldSolution
from rsgmfg.presets import benchmark_config, small_coupling_config

from conftest import make_config


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_check_benchmark_ok(tmp_path, capsys):
    cfg = make_config(n_t=300, n_alpha=40)
    code, out = run(capsys, "check", write_config(tmp_path, cfg))
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["h4_min_eigenvalue"] - 0.09) < 1e-12
    assert payload["contraction"]["C_Xi"] > 1.0
    assert payload["monotonicity"]["case"] == "neither"
    assert payload["h3_ok"] is True


def test_check_config_error_exit_1(tmp_path, capsys):
    cfg = make_config(coefficients={"Qf": -1.0})
    code, _ = run(capsys, "check", write_config(tmp_path, cfg))
    assert code == 1


def test_check_malformed_json_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _ = run(capsys, "check", str(path))
    assert code == 1


def test_check_assumption_failure_exit_2(tmp_path, capsys):
    # gamma = 1: 0.24 - 2 * 1 * 0.25 = -0.26 < 0
    cfg = make_config(n_t=100, gamma=1.0)
    code, out = run(capsys, "check", write_config(tmp_path, cfg))
    assert code == 2
    assert json.loads(out)["h4_min_eigenvalue"] < 0


def test_solve_both_methods_and_cross_diff(tmp_path, capsys):
    cfg = make_config(n_t=400, n_alpha=30, coefficients={"D": 0.2})
    out_dir = tmp_path / "out"
    code, out = run(capsys, "solve", write_config(tmp_path, cfg),
                    "--method", "both", "--out", str(out_dir))
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["cross_method_sup_diff"] <= 1e-4
    assert (out_dir / "solution_fixed_point.csv").exists()
    assert (out_dir / "solution_spectral.csv").exists()
    assert (out_dir / "manifest.json").exists()
    assert summary["methods"]["fixed_point"]["consistency_residual"] < 1e-5
    # n_alpha = 30 is below the top-L block's crossover
    assert summary["methods"]["spectral"]["eigensolver"] == "eigh"


@pytest.mark.parametrize("method", ["spectral", "fixed-point"])
def test_solve_rejects_non_finite_step_weights(tmp_path, capsys, method):
    # NaN fails every range test, so it must be refused by name before
    # eigh (spectral) or the contraction constant (fixed point) reads it
    (tmp_path / "w.csv").write_text("0.2,nan\nnan,0.4\n")
    cfg = make_config(n_t=50, n_alpha=10,
                      graphon={"kind": "step", "csv": "w.csv"})
    code = main(["solve", write_config(tmp_path, cfg), "--method", method,
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert "configuration error" in err and "finite" in err


def test_one_node_grid_solves_and_simulates(tmp_path, capsys):
    # n_alpha = 1: the kernel is one node, both solvers run on it and
    # agree within solve-both's bounds, and simulate runs on top of it
    cfg = small_coupling_config()
    cfg["grids"] = {"n_t": 50, "n_alpha": 1}
    cfg["simulation"] = {"N": 3, "M": 20, "seed": 1}
    path = write_config(tmp_path, cfg)
    out_dir = tmp_path / "solve"
    code, _ = run(capsys, "solve", path, "--method", "both",
                  "--out", str(out_dir))
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["cross_method_sup_diff"] <= 1e-4
    for method in ("fixed_point", "spectral"):
        assert summary["methods"][method]["consistency_residual"] <= 1e-5
        rows = list(csv.reader(open(out_dir / f"solution_{method}.csv")))
        assert len(rows) == 1 + 51
        assert np.all(np.isfinite(np.array(rows[1:], dtype=float)))
    assert summary["methods"]["spectral"]["rank"] == 1
    sim_dir = tmp_path / "simulate"
    code, _ = run(capsys, "simulate", path, "--out", str(sim_dir))
    assert code == 0
    costs = json.loads((sim_dir / "costs.json").read_text())
    assert all(np.isfinite(c["estimate"]["mean"]) for c in costs["costs"])


def test_solve_zero_kernel_writes_zero_columns(tmp_path, capsys):
    cfg = make_config(n_t=200, n_alpha=6,
                      graphon={"kind": "constant", "c": 0.0},
                      initial_law={"kind": "deterministic", "mean": 0.0})
    out_dir = tmp_path / "out"
    code, _ = run(capsys, "solve", write_config(tmp_path, cfg),
                  "--method", "spectral", "--out", str(out_dir))
    assert code == 0
    rows = (out_dir / "solution_spectral.csv").read_text().splitlines()
    header = rows[0].split(",")
    zi, si = header.index("z1"), header.index("S1")
    for row in rows[1:]:
        cells = row.split(",")
        assert float(cells[zi]) == 0.0
        assert float(cells[si]) == 0.0


def test_solve_nonconvergent_exit_3(tmp_path, capsys):
    cfg = make_config(n_t=200, n_alpha=10, coefficients={"D": 6.0})
    code, _ = run(capsys, "solve", write_config(tmp_path, cfg),
                  "--method", "fixed-point", "--out", str(tmp_path / "o"))
    assert code == 3


def test_solve_assumption_failure_names_condition(tmp_path, capsys):
    # the risk-sensitivity check runs before Pi, which escapes here
    cfg = make_config(n_t=100, n_alpha=10, coefficients={"sigma": 2.0})
    code = main(["solve", write_config(tmp_path, cfg), "--method", "both",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "risk-sensitivity condition fails" in capsys.readouterr().err


def test_simulate_zero_noise_zero_stderr(tmp_path, capsys):
    cfg = make_config(n_t=150, n_alpha=20, coefficients={"sigma": 0.0},
                      initial_law={"kind": "deterministic", "mean": 2.0},
                      simulation={"N": 4, "M": 3, "seed": 1})
    out_dir = tmp_path / "out"
    code, _ = run(capsys, "simulate", write_config(tmp_path, cfg),
                  "--out", str(out_dir))
    assert code == 0
    costs = json.loads((out_dir / "costs.json").read_text())
    assert all(c["estimate"]["std_error"] == 0.0 for c in costs["costs"])
    lines = (out_dir / "trajectories.csv").read_text().splitlines()
    assert lines[0].startswith("path,agent,t,x1,u1")
    assert len(lines) == 1 + 3 * 4 * 151


def test_nash_gap_command(tmp_path, capsys):
    cfg = make_config(n_t=150, n_alpha=40, coefficients={"D": 0.2},
                      simulation={"N": 4, "M": 300, "seed": 5})
    out_dir = tmp_path / "out"
    code, _ = run(capsys, "nash-gap", write_config(tmp_path, cfg),
                  "--N-list", "4,8", "--deviate", "0.5",
                  "--out", str(out_dir))
    assert code == 0
    payload = json.loads((out_dir / "nash_gap.json").read_text())
    assert {r["N"] for r in payload["rows"]} == {4, 8}
    dev_rows = [r for r in payload["rows"] if "deviation_cost" in r]
    assert dev_rows and dev_rows[0]["deviation_delta"] == 0.5
    # N = 4 is too small for the rank-3 subspace to pay and marches the
    # network's 4 modes; N = 8 runs factored: the decentralized and the
    # deviating runs march in the subspace of its three probes and the
    # rank-3 range
    assert payload["networks"] == [
        {"N": 4, "rank": 3, "factored": False, "march": "modal",
         "march_dim": 4},
        {"N": 8, "rank": 3, "factored": True, "march": "subspace",
         "march_dim": 6}]
    # the mean-field solve's kernel factorization, beside the rows
    spectral = payload["spectral"]
    assert (spectral["rank"], spectral["eigensolver"]) == (3, "eigh")
    assert 0.0 <= spectral["residual"] < 1e-12
    csv_lines = (out_dir / "nash_gap.csv").read_text().splitlines()
    assert csv_lines[0].split(",")[:3] == ["N", "agent", "alpha"]


def test_nash_gap_command_full_rank_marches_modes(tmp_path, capsys):
    # uniform attachment samples full-rank networks: every N's probes and
    # its deviating copy march the N modes of the network, and the rows
    # keep their columns
    cfg = make_config(n_t=50, n_alpha=40, coefficients={"D": 0.2},
                      graphon={"kind": "uniform_attachment"},
                      simulation={"N": 4, "M": 20, "seed": 2})
    out_dir = tmp_path / "out"
    code, _ = run(capsys, "nash-gap", write_config(tmp_path, cfg),
                  "--N-list", "4,10", "--deviate", "0.5",
                  "--out", str(out_dir))
    assert code == 0
    payload = json.loads((out_dir / "nash_gap.json").read_text())
    assert payload["networks"] == [
        {"N": N, "rank": N, "factored": False, "march": "modal",
         "march_dim": N} for N in (4, 10)]
    assert len(payload["rows"]) == 6
    assert sum("deviation_cost" in r for r in payload["rows"]) == 2
    header = (out_dir / "nash_gap.csv").read_text().splitlines()[0]
    assert header.split(",")[:3] == ["N", "agent", "alpha"]


def test_simulate_and_nash_gap_report_solve_and_warnings(tmp_path, capsys,
                                                         monkeypatch):
    # costs.json and nash_gap.json carry the mean-field solve's kernel
    # factorization and the assumption report's warnings, the benchmark
    # preset's Gaussian initial law giving one; Psi is not built for them
    from rsgmfg import gmfg, odesolve
    psi = _count_calls(monkeypatch, "fundamental_matrices", odesolve, gmfg)
    for law, expected in ((None, 1),
                          ({"kind": "deterministic", "mean": 2.0}, 0)):
        cfg = make_config(n_t=50, n_alpha=40, coefficients={"D": 0.2},
                          simulation={"N": 4, "M": 5, "seed": 1})
        if law is not None:
            cfg["initial_law"] = law
        path = write_config(tmp_path, cfg)
        for command, name, extra in (
                ("simulate", "costs.json", []),
                ("nash-gap", "nash_gap.json", ["--N-list", "4,8"])):
            out_dir = tmp_path / f"{command}-{expected}"
            code, _ = run(capsys, command, path, *extra, "--out", str(out_dir))
            assert code == 0
            payload = json.loads((out_dir / name).read_text())
            spectral = payload["spectral"]
            assert (spectral["rank"], spectral["eigensolver"]) == (3, "eigh")
            assert 0.0 <= spectral["residual"] < 1e-12
            assert len(payload["warnings"]) == expected
            assert all("unbounded support" in w for w in payload["warnings"])
    assert not psi


def _count_calls(monkeypatch, name, *modules):
    """Record the arguments of every call of ``name`` through the bindings
    of it in ``modules``; the first module defines it."""
    fn = getattr(modules[0], name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def test_curvature_solved_once_per_command(tmp_path, capsys, monkeypatch):
    # one problem per command: solve --method both and check run the
    # assumption check once and solve Pi once; nash-gap --deviate solves
    # only Pi and Pi_delta, each once
    from rsgmfg import control, core, gmfg, odesolve
    pis = _count_calls(monkeypatch, "solve_riccati_pi_delta",
                       odesolve, control)
    checks = _count_calls(monkeypatch, "validate_assumptions", core, gmfg)
    cfg = make_config(n_t=100, n_alpha=40, coefficients={"D": 0.2},
                      simulation={"N": 4, "M": 20, "seed": 5})
    path = write_config(tmp_path, cfg)
    code, _ = run(capsys, "solve", path, "--method", "both",
                  "--out", str(tmp_path / "solve"))
    assert code == 0 and [a[1] for a in pis] == [0.0] and len(checks) == 1
    pis.clear()
    checks.clear()
    code, _ = run(capsys, "check", path)
    assert code == 0 and [a[1] for a in pis] == [0.0] and len(checks) == 1
    pis.clear()
    code, _ = run(capsys, "nash-gap", path, "--N-list", "4,8",
                  "--deviate", "0.5", "--out", str(tmp_path / "gap"))
    assert code == 0 and sorted(a[1] for a in pis) == [0.0, 0.5]


def test_transition_matrices_built_only_for_certificates(tmp_path, capsys,
                                                         monkeypatch):
    # the spectral solver marches only Psi_z(t, 0); both transition families
    # are built once, shared by the Picard solver and the contraction
    # certificate
    from rsgmfg import gmfg, odesolve
    calls = _count_calls(monkeypatch, "fundamental_matrices", odesolve, gmfg)
    code, _ = run(capsys, "reproduce", "--figure", "z",
                  "--out", str(tmp_path / "z"))
    assert code == 0 and len(calls) == 0
    cfg = make_config(n_t=100, n_alpha=40, coefficients={"D": 0.2},
                      simulation={"N": 4, "M": 20, "seed": 5})
    path = write_config(tmp_path, cfg)
    code, _ = run(capsys, "nash-gap", path, "--N-list", "4,8",
                  "--deviate", "0.5", "--out", str(tmp_path / "gap"))
    assert code == 0 and len(calls) == 0
    code, _ = run(capsys, "solve", path, "--method", "both",
                  "--out", str(tmp_path / "solve"))
    assert code == 0 and len(calls) == 1
    calls.clear()
    code, _ = run(capsys, "check", path)
    assert code == 0 and len(calls) == 1


def test_march_tables_built_once_per_curvature(tmp_path, capsys,
                                               monkeypatch):
    # one table set per solved curvature, shared by the forward and the
    # backward marches and by the curvature march itself, which reads its
    # Pi-free rows: solve --method both and check tabulate once for the
    # problem; nash-gap --deviate once more for the damped spec of
    # acp_solve
    from rsgmfg import control, gmfg, odesolve
    calls = _count_calls(monkeypatch, "march_tables", odesolve, gmfg, control)
    path = write_config(tmp_path, make_config(
        n_t=100, n_alpha=40, coefficients={"D": 0.2},
        simulation={"N": 4, "M": 20, "seed": 5}))
    code, _ = run(capsys, "solve", path, "--method", "both",
                  "--out", str(tmp_path / "solve"))
    assert code == 0 and len(calls) == 1
    calls.clear()
    code, _ = run(capsys, "nash-gap", path, "--N-list", "4,8",
                  "--deviate", "0.5", "--out", str(tmp_path / "gap"))
    assert code == 0 and len(calls) == 2
    calls.clear()
    code, _ = run(capsys, "check", path)
    assert code == 0 and len(calls) == 1


def test_contraction_bound_computed_once_per_command(tmp_path, capsys,
                                                    monkeypatch):
    # the Picard solver and summary.json read the problem's one C_Xi
    from rsgmfg import gmfg
    calls = _count_calls(monkeypatch, "contraction_constant", gmfg)
    path = write_config(tmp_path, make_config(n_t=100, n_alpha=40,
                                              coefficients={"D": 0.2}))
    code, _ = run(capsys, "solve", path, "--method", "both",
                  "--out", str(tmp_path / "solve"))
    assert code == 0 and len(calls) == 1
    calls.clear()
    code, _ = run(capsys, "check", path)
    assert code == 0 and len(calls) == 1


def test_kernel_decomposed_once_per_solve(tmp_path, capsys, monkeypatch):
    # the kernel is sampled once per command, and both the spectral solver
    # and the monotonicity certificate read the one decomposition of it
    from rsgmfg import gmfg, graphon
    samples = _count_calls(monkeypatch, "grid_matrix", graphon, gmfg)
    decomps = _count_calls(monkeypatch, "spectral_decompose", graphon, gmfg)
    path = write_config(tmp_path, make_config(n_t=100, n_alpha=40,
                                              coefficients={"D": 0.2}))
    code, _ = run(capsys, "solve", path, "--method", "both",
                  "--out", str(tmp_path / "solve"))
    assert code == 0 and len(samples) == 1 and len(decomps) == 1
    samples.clear()
    decomps.clear()
    code, _ = run(capsys, "check", path)
    assert code == 0 and len(samples) == 1 and len(decomps) == 1


def test_solve_summary_lists_assumption_warnings(tmp_path, capsys):
    # the benchmark preset draws the initial states from a Gaussian law
    for law, expected in ((None, 1), ({"kind": "deterministic"}, 0)):
        cfg = make_config(n_t=100, n_alpha=10)
        if law is not None:
            cfg["initial_law"] = law
        out_dir = tmp_path / str(expected)
        code, _ = run(capsys, "solve", write_config(tmp_path, cfg),
                      "--method", "spectral", "--out", str(out_dir))
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        hits = [w for w in summary["warnings"] if "unbounded support" in w]
        assert len(hits) == expected
        assert len(summary["warnings"]) == expected


def _reference_csv(path, header, rows):
    """csv.writer with one format(float(v), ".12g") per value."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(float(v), ".12g") for v in row])


def _awkward_values(rng, shape):
    vals = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
    flat = vals.reshape(-1)
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e16, -1e16,
               0.1, 1.0 / 3.0, 123456789012.5, 2.5e-7]
    flat[rng.choice(flat.size, len(special), replace=False)] = special
    return vals


@pytest.mark.parametrize("block_values", [None, 20])
def test_float_csv_bytes_match_reference_writer(tmp_path, monkeypatch,
                                                block_values):
    # 40 x 31 rows of width 7 and 31 rows of width 41: neither row count
    # is a multiple of the rows per block, at the default or at 20 values
    if block_values is not None:
        monkeypatch.setattr(cli, "_BLOCK_VALUES", block_values)
    rng = np.random.default_rng(7)
    grid = Grids(T=1.0, n_t=30, n_alpha=40)
    z, S = (_awkward_values(rng, (40, 31, 2)) for _ in range(2))
    r = _awkward_values(rng, (40, 31))
    sol = MeanFieldSolution(z=z, S=S, r=r, method="spectral",
                            alphas=grid.alpha, grid=grid, Pi=None)
    cli._solution_csv(tmp_path / "sol.csv", sol)
    _reference_csv(tmp_path / "sol_ref.csv",
                   ["alpha", "t", "z1", "z2", "S1", "S2", "r"],
                   ([al, t, *z[a, k], *S[a, k], r[a, k]]
                    for a, al in enumerate(grid.alpha)
                    for k, t in enumerate(grid.t)))
    assert ((tmp_path / "sol.csv").read_bytes()
            == (tmp_path / "sol_ref.csv").read_bytes())

    surface = _awkward_values(rng, (40, 31))
    cli._wide_csv(tmp_path / "wide.csv", grid.t, grid.alpha, surface)
    _reference_csv(tmp_path / "wide_ref.csv",
                   ["t"] + [f"alpha={format(a, '.12g')}" for a in grid.alpha],
                   ([t, *surface[:, k]] for k, t in enumerate(grid.t)))
    assert ((tmp_path / "wide.csv").read_bytes()
            == (tmp_path / "wide_ref.csv").read_bytes())


def test_reproduce_riccati_terminal_row(tmp_path, capsys):
    out_dir = tmp_path / "fig"
    code, _ = run(capsys, "reproduce", "--figure", "riccati",
                  "--out", str(out_dir))
    assert code == 0
    lines = (out_dir / "riccati.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["t", "Pi", "P_perp"]
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == 1.0
    assert last[1] == pytest.approx(0.8, abs=1e-12)
    for v in last[2:]:
        assert v == pytest.approx(0.64, abs=1e-12)
    meta = json.loads((out_dir / "riccati_meta.json").read_text())
    assert meta["rank"] == 3
    assert (out_dir / "manifest.json").exists()


def test_reproduce_is_byte_deterministic(tmp_path, capsys):
    outs = []
    for tag in ("a", "b"):
        out_dir = tmp_path / tag
        code, _ = run(capsys, "reproduce", "--figure", "riccati",
                      "--out", str(out_dir))
        assert code == 0
        outs.append((out_dir / "riccati.csv").read_bytes())
    assert outs[0] == outs[1]


def test_output_dir_from_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RSGMFG_OUTPUT_DIR", str(tmp_path / "envout"))
    code, _ = run(capsys, "reproduce", "--figure", "riccati")
    assert code == 0
    assert (tmp_path / "envout" / "reproduce" / "riccati.csv").exists()


def test_manifest_written_before_data(tmp_path, capsys):
    cfg = make_config(n_t=100, n_alpha=6, coefficients={"D": 6.0})
    out_dir = tmp_path / "out"
    code, _ = run(capsys, "solve", write_config(tmp_path, cfg),
                  "--method", "fixed-point", "--out", str(out_dir))
    # solver fails with exit 3, but the manifest marks the attempted run
    assert code == 3
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert "config_sha256" in manifest and "versions" in manifest


def test_manifest_records_blas_thread_settings(tmp_path, capsys,
                                              monkeypatch):
    # output bytes may depend on the BLAS thread count, so the manifest
    # carries each thread variable as set (None when unset) and the CPUs
    import os
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    cfg = make_config(n_t=100, n_alpha=6, coefficients={"D": 0.2})
    out_dir = tmp_path / "out"
    code, _ = run(capsys, "solve", write_config(tmp_path, cfg),
                  "--method", "fixed-point", "--out", str(out_dir))
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["blas_threads"] == {"OPENBLAS_NUM_THREADS": "3",
                                        "OMP_NUM_THREADS": "1",
                                        "MKL_NUM_THREADS": None}
    assert manifest["cpu_count"] == os.cpu_count()


@pytest.mark.parametrize("coupling, expected_code", [(0.2, 0), (6.0, 3)])
def test_manifest_records_end_of_run(tmp_path, capsys, coupling,
                                     expected_code):
    # the end time and duration are written when the command returns,
    # on the exit-3 path of test_manifest_written_before_data as well
    cfg = make_config(n_t=100, n_alpha=6, coefficients={"D": coupling})
    out_dir = tmp_path / "out"
    code, _ = run(capsys, "solve", write_config(tmp_path, cfg),
                  "--method", "fixed-point", "--out", str(out_dir))
    assert code == expected_code
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["duration_s"] >= 0
    assert manifest["wall_clock_end"] >= manifest["wall_clock_start"]
    assert manifest["duration_s"] == pytest.approx(
        manifest["wall_clock_end"] - manifest["wall_clock_start"])


@pytest.mark.parametrize("argv, message", [
    (["--N-list", ""], "non-empty"),
    (["--N-list", "0"], "N >= 1"),
    (["--N-list", "4,-2"], "N >= 1"),
    (["--N-list", "4,11"], "4 * max(N) = 44"),
    (["--N-list", "4", "--deviate", "-1"], "delta_prime must be >= 0"),
    (["--N-list", "4", "--deviate", "nan"], "delta_prime must be >= 0"),
    (["--N-list", "4,8,4"], "repeats a population size"),
], ids=["empty", "zero", "negative", "grid-too-coarse", "negative-delta",
        "nan-delta", "repeated-N"])
def test_nash_gap_rejects_bad_inputs_before_solving(tmp_path, capsys,
                                                    monkeypatch, argv,
                                                    message):
    # exit 1 with a configuration error, no traceback, the manifest written
    # and neither the mean-field solve nor a report run
    solves = _count_calls(monkeypatch, "solve_spectral", cli)
    cfg = make_config(n_t=50, n_alpha=40, coefficients={"D": 0.2},
                      simulation={"N": 4, "M": 3, "seed": 5})
    out_dir = tmp_path / "out"
    code = main(["nash-gap", write_config(tmp_path, cfg), *argv,
                 "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 1
    assert "configuration error" in err and message in err
    assert "Traceback" not in err
    assert solves == []
    assert (out_dir / "manifest.json").exists()
    assert not (out_dir / "nash_gap.json").exists()


@pytest.mark.parametrize("argv, simulation, message", [
    (["--M", "0"], {}, "M >= 1"),
    (["--N", "0"], {}, "N must be >= 1"),
    (["--dt", "0"], {}, "dt > 0"),
    ([], {"dt": 0}, "dt > 0"),
], ids=["M", "N", "dt", "config-dt"])
def test_simulate_rejects_zero_settings_before_solving(tmp_path, capsys,
                                                      monkeypatch, argv,
                                                      simulation, message):
    # a zero typed on the command line is refused, not replaced by the
    # config's value; so is a zero step in the config
    solves = _count_calls(monkeypatch, "solve_spectral", cli)
    cfg = make_config(n_t=50, n_alpha=10, coefficients={"D": 0.2},
                      simulation={"N": 4, "M": 3, "seed": 5, **simulation})
    code = main(["simulate", write_config(tmp_path, cfg), *argv,
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert "configuration error" in err and message in err
    assert "Traceback" not in err
    assert solves == []


def test_simulate_refuses_oversized_recorded_run_before_solving(
        tmp_path, capsys, monkeypatch):
    # the shipped small-coupling config (M = 20000, N = 25, n_t = 500)
    # would record 7.52e+08 elements: exit 4 with the size named, before
    # the mean-field solve
    solves = _count_calls(monkeypatch, "solve_spectral", cli)
    out_dir = tmp_path / "out"
    code = main(["simulate", write_config(tmp_path, small_coupling_config()),
                 "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 4
    assert ("simulation failure: recorded run would hold 7.52e+08 elements"
            in err)
    assert "Traceback" not in err
    assert solves == []
    assert (out_dir / "manifest.json").exists()


def test_nash_gap_rejects_non_integer_N_list(tmp_path, capsys):
    cfg = make_config(n_t=50, n_alpha=40, coefficients={"D": 0.2},
                      simulation={"N": 4, "M": 3, "seed": 5})
    code = main(["nash-gap", write_config(tmp_path, cfg), "--N-list", "4,x",
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert "configuration error" in err and "'x'" in err
    assert "Traceback" not in err


def test_sample_step_and_acp_solve_raise_config_error():
    from rsgmfg import ConfigError, Graphon, acp_solve, sample_step
    from conftest import make_spec
    with pytest.raises(ConfigError):
        sample_step(Graphon.sinusoidal(), 0)
    spec = make_spec(n_t=20, n_alpha=10)
    with pytest.raises(ConfigError):
        acp_solve(spec, -1.0, np.zeros((1, 21, 1)), alpha=np.array([0.5]))


def test_solve_summary_keeps_picard_residual_history(tmp_path, capsys):
    cfg = make_config(n_t=100, n_alpha=30, coefficients={"D": 0.2})
    out_dir = tmp_path / "out"
    code, _ = run(capsys, "solve", write_config(tmp_path, cfg),
                  "--method", "fixed-point", "--out", str(out_dir))
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    fp = summary["methods"]["fixed_point"]
    history = fp["residual_history"]
    assert len(history) == fp["iterations"]
    assert history[-1] == fp["picard_residual"]
    assert history[-1] <= 1e-9 < history[0]


@pytest.mark.parametrize("command, simulation, key", [
    ("simulate", {"M": "ten"}, "M"),
    ("simulate", {"N": "x"}, "N"),
    ("nash-gap", {"dt": "x"}, "dt"),
    ("simulate", {"M": 2.7}, "M"),
    ("simulate", {"seed": 1.5}, "seed"),
], ids=["M-string", "N-string", "dt-string", "M-fraction", "seed-fraction"])
def test_malformed_simulation_settings_are_config_errors(tmp_path, capsys,
                                                         command, simulation,
                                                         key):
    # a config value of the wrong type exits 1 naming the key, with no
    # traceback and nothing solved
    cfg = make_config(n_t=50, n_alpha=40, coefficients={"D": 0.2},
                      simulation={"N": 4, "M": 3, "seed": 5, **simulation})
    argv = ["--N-list", "4"] if command == "nash-gap" else []
    out_dir = tmp_path / "out"
    code = main([command, write_config(tmp_path, cfg), *argv,
                 "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 1
    assert "configuration error" in err and f"'{key}'" in err
    assert "Traceback" not in err
    assert not list(out_dir.glob("*.csv")) and not list(out_dir.glob("*.json"))


@pytest.mark.parametrize("edit", [
    lambda c: c.update(gamma="abc"),
    lambda c: c["grids"].update(n_t="x"),
    lambda c: c["grids"].update(n_t=2.5),
    lambda c: c.update(grids=5),
    lambda c: c.update(initial_law=5),
    lambda c: c.update(simulation=5),
    lambda c: c.update(graphon={"kind": "constant", "c": "x"}),
    lambda c: c["coefficients"].update(A="x"),
    lambda c: c["coefficients"].update(A={"t": [0.0, 1.0],
                                          "values": [0.1, "x"]}),
    lambda c: c.update(graphon={"kind": "step", "csv": "w.csv"}),
    lambda c: c.update(graphon=5),
    lambda c: c.update(coefficients=5),
    lambda c: c["initial_law"].update(mean={"expr": [1]}),
    lambda c: c["coefficients"].update(A={"t": [0, 1],
                                          "values": [0.1, [[0.1, 0.2]]]}),
    lambda c: c["coefficients"].update(A=[[[0.5]]]),
    lambda c: c["coefficients"].update(A={"t": [0, 1], "values": 5}),
], ids=["gamma-string", "n_t-string", "n_t-fraction", "grids-number",
        "initial-law-number", "simulation-number", "constant-c-string",
        "coefficient-string", "coefficient-table-string", "step-csv-string",
        "graphon-number", "coefficients-number", "mean-preset-list",
        "coefficient-table-ragged", "coefficient-too-deep",
        "coefficient-table-values-number"])
def test_malformed_config_values_are_config_errors(tmp_path, capsys, edit):
    # every number of a config passes one rule: a value of the wrong type
    # or a fraction where an integer is due exits 1, with no traceback and
    # nothing written
    cfg = make_config(n_t=50, n_alpha=40, coefficients={"D": 0.2},
                      simulation={"N": 4, "M": 3, "seed": 5})
    edit(cfg)
    (tmp_path / "w.csv").write_text("0.5,x\n0.5,0.5\n")
    out_dir = tmp_path / "out"
    code = main(["simulate", write_config(tmp_path, cfg),
                 "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 1
    assert "configuration error" in err and "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("name, preset", [
    ("benchmark.json", benchmark_config),
    ("small_coupling.json", small_coupling_config),
])
def test_shipped_configs_equal_presets(name, preset):
    # users run the JSON files; reproduce and the tests use the presets
    path = Path(__file__).resolve().parents[1] / "configs" / name
    assert json.loads(path.read_text(encoding="utf-8")) == preset()
