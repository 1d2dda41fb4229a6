"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a PASS line (visible with pytest -s); the -v listing
itself serves as the per-criterion pass/fail report.  The Monte Carlo
criteria (6, 7) take a few minutes; everything else runs in seconds.
"""

import collections

import numpy as np
import pytest

from rsgmfg import (Graphon, MeanFieldProblem, SimConfig, closed_form_cost,
                    consistency_residual, cost_from_exponents, grid_matrix,
                    limit_cost_exponents, march_tables, nash_gap_experiment,
                    solve_fixed_point, solve_p_ell_stack,
                    solve_riccati_pi, solve_spectral, spec_from_dict,
                    spectral_decompose, validate_assumptions)
from rsgmfg.cli import main as cli_main
from rsgmfg.core import Grids
from rsgmfg.odesolve import _rk4_march

from conftest import make_config, make_spec


def test_criterion_1_riccati_analytic_oracle_and_rk4_order():
    # A = 0, Q = 0 reduction: dPi/dt = 0.09 Pi^2, Pi(1) = 0.8, so
    # Pi(0) = 0.8 / (1 + 0.8 * 0.09) = 0.746268657...
    spec = spec_from_dict(make_config(n_t=1000, n_alpha=10,
                                      coefficients={"A": 0.0, "Q": 0.0}))
    Pi = solve_riccati_pi(spec)
    target = 0.8 / (1.0 + 0.8 * 0.09)
    err = abs(Pi.values[0, 0, 0] - target)
    assert err < 1e-8

    errs = []
    for n_t in (100, 200):
        grid = Grids(T=1.0, n_t=n_t, n_alpha=1)
        values = _rk4_march(lambda y: y, np.array(1.0), grid, "forward")
        errs.append(abs(float(values[-1]) - np.e))
    ratio = errs[0] / errs[1]
    assert 14.0 <= ratio <= 18.0
    print(f"\nACCEPTANCE 1 PASS: Riccati analytic error {err:.2e} < 1e-8; "
          f"RK4 halving ratio {ratio:.2f} in [14, 18]")


def test_criterion_2_assumption_slack_and_terminal_values():
    spec = make_spec(n_t=1000, n_alpha=200)
    report = validate_assumptions(spec)
    assert abs(report.h4_min_eigenvalue - 0.09) < 1e-15
    Pi = solve_riccati_pi(spec)
    assert Pi.values[-1, 0, 0] == 0.8
    alphas = spec.grids.alpha
    decomp = spectral_decompose(grid_matrix(Graphon.sinusoidal(), alphas))
    tables = march_tables(spec).with_curvature(spec, Pi)
    stack = solve_p_ell_stack(spec, tables, decomp.eigenvalues)
    p_perp = solve_p_ell_stack(spec, tables, np.zeros(1))[0]
    assert abs(p_perp[-1, 0, 0] - 0.64) < 1e-15
    for j in range(decomp.rank):
        assert abs(stack[j, -1, 0, 0] - 0.64) < 1e-15
    print(f"\nACCEPTANCE 2 PASS: slack {report.h4_min_eigenvalue:.17g} "
          f"(=0.09); Pi(1)=0.8, P_perp(1)=P_lam(1)=0.64 for "
          f"{decomp.rank} retained eigenvalues")


def test_criterion_3_spectral_fidelity():
    mids = (np.arange(400) + 0.5) / 400
    ua = spectral_decompose(grid_matrix(Graphon.uniform_attachment(), mids))
    targets = [4 / (k ** 2 * np.pi ** 2) for k in (1, 3, 5)]
    errs = [abs(got - want) for got, want in zip(ua.eigenvalues[:3], targets)]
    assert all(e < 1e-3 for e in errs)
    sin = spectral_decompose(grid_matrix(Graphon.sinusoidal(), mids))
    assert sin.rank == 3
    assert sin.residual <= 1e-6
    print(f"\nACCEPTANCE 3 PASS: uniform-attachment eigenvalue errors "
          f"{[f'{e:.1e}' for e in errs]} < 1e-3; sinusoidal rank 3 with "
          f"residual {sin.residual:.1e} <= 1e-6")


def test_criterion_4_cross_solver_equivalence():
    spec = make_spec(n_t=1000, n_alpha=100, coefficients={"D": 0.2})
    g = Graphon.sinusoidal()
    problem = MeanFieldProblem(spec, g)
    fp = solve_fixed_point(problem, tol=1e-9)
    sp = solve_spectral(problem)
    diff = max(np.max(np.abs(fp.z - sp.z)), np.max(np.abs(fp.S - sp.S)),
               np.max(np.abs(fp.r - sp.r)))
    assert diff <= 1e-4
    res_fp = consistency_residual(fp, problem)
    res_sp = consistency_residual(sp, problem)
    assert res_fp <= 1e-5 and res_sp <= 1e-5
    print(f"\nACCEPTANCE 4 PASS: cross-solver sup diff {diff:.2e} <= 1e-4; "
          f"consistency residuals {res_fp:.2e}, {res_sp:.2e} <= 1e-5")


def test_criterion_5_node_symmetry_reproduction():
    # grid chosen so 0.25 and 0.75 are midpoint nodes (n ≡ 2 mod 4)
    spec = make_spec(n_t=1000, n_alpha=198)
    sol = solve_spectral(MeanFieldProblem(spec, Graphon.sinusoidal()))
    i25, i75 = sol.alpha_index(0.25), sol.alpha_index(0.75)
    assert sol.alphas[i25] == 0.25 and sol.alphas[i75] == 0.75
    dz = float(np.max(np.abs(sol.z[i25] - sol.z[i75])))
    dS = float(np.max(np.abs(sol.S[i25] - sol.S[i75])))
    assert dz <= 1e-6 and dS <= 1e-6
    print(f"\nACCEPTANCE 5 PASS: |z_0.25 - z_0.75| = {dz:.2e}, "
          f"|S_0.25 - S_0.75| = {dS:.2e}, both <= 1e-6")


def test_criterion_6_cost_identity_monte_carlo():
    # weak-coupling variant (D = 0.2): the strong-coupling benchmark's
    # exponentiated cost is too heavy-tailed for plain MC at M = 1e5
    lines = []
    for law_cfg, label in ((
            {"kind": "deterministic", "mean": 2.0}, "deterministic"), (
            {"kind": "gaussian", "mean": 2.0, "dispersion": 0.1},
            "gaussian")):
        spec = make_spec(n_t=1000, n_alpha=198, coefficients={"D": 0.2},
                         initial_law=law_cfg)
        g = Graphon.sinusoidal()
        sol = solve_spectral(MeanFieldProblem(spec, g))
        Pi = solve_riccati_pi(spec)
        idx = sol.alpha_index(0.5)
        alpha = float(sol.alphas[idx])
        target = closed_form_cost(spec, Pi, sol.S[idx], sol.r[idx],
                                  spec.initial, alpha)
        expo = limit_cost_exponents(spec, sol.z[idx], sol.S[idx], sol.Pi,
                                    SimConfig(M=100_000, seed=3, dt=1e-3),
                                    alpha)
        est = cost_from_exponents(expo)
        gap = abs(est.mean - target)
        assert gap <= 3 * est.std_error, \
            f"{label}: |{est.mean:.6g} - {target:.6g}| > 3*{est.std_error:.3g}"
        lines.append(f"{label} |MC-closed|/se = {gap / est.std_error:.2f}")
    print("\nACCEPTANCE 6 PASS: " + "; ".join(lines)
          + " (both within 3 standard errors, M=1e5, dt=1e-3)")


def test_criterion_7_near_nash_trend():
    spec = make_spec(n_t=500, n_alpha=1000, coefficients={"D": 0.2},
                     initial_law={"kind": "gaussian", "mean": 2.0,
                                  "dispersion": 0.1})
    g = Graphon.sinusoidal()
    sol = solve_spectral(MeanFieldProblem(spec, g))
    n_list = [25, 50, 100, 200]
    rep = nash_gap_experiment(spec, g, sol, n_list,
                              SimConfig(M=20_000, seed=11))

    by_n = collections.defaultdict(list)
    for row in rep.rows:
        by_n[row.N].append(row)
    # worst probe-agent gap per population size, with its 95% CI
    seq = []
    for N in n_list:
        worst = max(by_n[N], key=lambda r: r.gap)
        seq.append((N, worst.gap, 1.96 * worst.J_hat.std_error))
    inversions = [(a, b) for a, b in zip(seq, seq[1:]) if b[1] > a[1]]
    assert len(inversions) <= 1, f"gap sequence {seq}"
    for a, b in inversions:
        # the single allowed inversion must be inside overlapping 95% CIs
        assert b[1] - a[1] <= a[2] + b[2], f"CI-disjoint inversion {a} -> {b}"

    eps1 = [by_n[N][0].eps1 for N in n_list]
    eps2 = [by_n[N][0].eps2 for N in n_list]
    assert all(b < a for a, b in zip(eps1, eps1[1:])), eps1
    assert all(b < a for a, b in zip(eps2, eps2[1:])), eps2
    gaps = [f"N={N}: {gap:.1f}±{ci:.1f}" for N, gap, ci in seq]
    print("\nACCEPTANCE 7 PASS: max-probe gaps " + ", ".join(gaps)
          + f"; {len(inversions)} adjacent inversion(s) within CI overlap; "
          f"eps1 {eps1[0]:.1e}->{eps1[-1]:.1e} and eps2 "
          f"{eps2[0]:.2e}->{eps2[-1]:.2e} strictly decreasing")


def test_criterion_8_reproduction_is_byte_identical(tmp_path):
    figures = ("riccati", "z", "state")
    blobs = {}
    for tag in ("first", "second"):
        for fig in figures:
            out = tmp_path / tag / fig
            code = cli_main(["reproduce", "--figure", fig,
                             "--out", str(out)])
            assert code == 0
            blobs[(tag, fig)] = (out / f"{fig}.csv").read_bytes()
    for fig in figures:
        assert blobs[("first", fig)] == blobs[("second", fig)], fig
    sizes = {fig: len(blobs[("first", fig)]) for fig in figures}
    print(f"\nACCEPTANCE 8 PASS: byte-identical reruns for {figures} "
          f"(sizes {sizes})")
