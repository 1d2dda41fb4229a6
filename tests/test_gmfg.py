import numpy as np
import pytest

from rsgmfg import (AssumptionError, ConvergenceError, Graphon,
                    MeanFieldProblem, apply_xi, check_monotonicity,
                    consistency_residual, contraction_constant, grid_matrix,
                    march_tables, solve_fixed_point, solve_p_ell_stack,
                    solve_riccati_pi, solve_spectral, spec_from_dict)
from rsgmfg.gmfg import _apply_kernel, _solve_r_field

from conftest import make_config, make_spec

SIN = Graphon.sinusoidal()
ZERO = Graphon.constant(0.0)


def test_contraction_vanishes_without_coupling_or_weights():
    spec = make_spec(n_t=200, coefficients={"D": 0.0, "Q": 0.0, "Qf": 0.0})
    rep = contraction_constant(MeanFieldProblem(spec, SIN))
    assert rep.C_Xi == 0.0 and rep.contraction_ok


def test_contraction_vanishes_for_zero_kernel():
    spec = make_spec(n_t=200)
    rep = contraction_constant(MeanFieldProblem(spec, ZERO))
    assert rep.c_g == 0.0 and rep.C_Xi == 0.0


def test_contraction_formula_reconstructs_from_constituents():
    spec = make_spec(n_t=300)
    rep = contraction_constant(MeanFieldProblem(spec, SIN))
    rebuilt = (rep.c_g * rep.c_z * rep.norm_D * rep.T
               + rep.c_g * rep.c_z * rep.c_S * rep.norm_BRB
               * (rep.norm_QGammaPiD * rep.T + rep.norm_QfGammaf) * rep.T)
    assert rebuilt == rep.C_Xi


def test_contraction_benchmark_exceeds_one_and_grid_stable():
    # strong coupling: the sufficient bound fails, mandating the spectral
    # route; the value itself is stable under time-grid refinement
    vals = {}
    for n_t in (500, 1000):
        spec = make_spec(n_t=n_t, n_alpha=60)
        vals[n_t] = contraction_constant(MeanFieldProblem(spec, SIN)).C_Xi
    assert vals[1000] > 1.0
    assert abs(vals[500] - vals[1000]) < 1e-3


def test_apply_xi_linearity_anchors():
    spec = make_spec(n_t=200, n_alpha=20)
    zeros = np.zeros((20, 201, 1))
    assert np.all(apply_xi(MeanFieldProblem(spec, SIN), zeros) == 0.0)
    rng = np.random.default_rng(5)
    z = rng.standard_normal((20, 201, 1))
    assert np.all(apply_xi(MeanFieldProblem(spec, ZERO), z) == 0.0)


def test_apply_xi_respects_contraction_bound(rng):
    problem = MeanFieldProblem(make_spec(n_t=200, n_alpha=30), SIN)
    rep = contraction_constant(problem)
    for _ in range(10):
        z = rng.standard_normal((30, 201, 1))
        xi_z = apply_xi(problem, z)
        assert np.max(np.abs(xi_z)) <= rep.C_Xi * np.max(np.abs(z)) + 1e-8


def test_fixed_point_zero_kernel_decoupled():
    spec = make_spec(n_t=400, n_alpha=8,
                     initial_law={"kind": "deterministic", "mean": 0.0})
    sol = solve_fixed_point(MeanFieldProblem(spec, ZERO))
    assert np.all(sol.z == 0.0) and np.all(sol.S == 0.0)
    # r solves its own backward equation: r(t) = int_t^T Tr(ss^T Pi) ds
    Pi = solve_riccati_pi(spec)
    c = spec.coeffs
    tr = np.array([float(np.trace(c.sigma(t) @ c.sigma(t).T @ Pi.values[k]))
                   for k, t in enumerate(spec.grids.t)])
    h = spec.grids.h
    integral = np.concatenate([[0.0], np.cumsum(0.5 * h * (tr[:-1] + tr[1:]))])
    expected = integral[-1] - integral
    assert np.max(np.abs(sol.r[0] - expected)) < 1e-6


def test_fixed_point_no_backward_coupling_oracle():
    # D = 0, Gamma = 0, Gamma_f = 0: S vanishes and z is transported by the
    # mean transition matrix alone
    spec = make_spec(n_t=400, n_alpha=12,
                     coefficients={"D": 0.0, "Gamma": 0.0, "Gamma_f": 0.0})
    problem = MeanFieldProblem(spec, SIN)
    sol = solve_fixed_point(problem)
    assert np.max(np.abs(sol.S)) < 1e-12
    psi = problem.psi
    z0 = sol.z[:, 0]
    zT = np.einsum("ij,aj->ai", psi.z_fwd[-1] @ psi.z_inv[0], z0)
    assert np.max(np.abs(sol.z[:, -1] - zT)) < 1e-8


def test_fixed_point_requires_certificate_unless_forced():
    spec = make_spec(n_t=200, n_alpha=16)   # D = 2: C_Xi > 1
    with pytest.raises(AssumptionError, match="C_Xi"):
        solve_fixed_point(MeanFieldProblem(spec, SIN))


def test_fixed_point_converges_beyond_certificate():
    # the contraction bound is sufficient only: the strong-coupling
    # benchmark (C_Xi > 1) still converges when forced, and agrees with
    # the spectral route
    spec = make_spec(n_t=400, n_alpha=30)
    problem = MeanFieldProblem(spec, SIN)
    fp = solve_fixed_point(problem, force=True)
    sp = solve_spectral(problem)
    assert fp.iterations < 60
    assert np.max(np.abs(fp.z - sp.z)) < 1e-4


def test_fixed_point_divergence_reported():
    spec = make_spec(n_t=300, n_alpha=12, coefficients={"D": 6.0})
    with pytest.raises(ConvergenceError):
        solve_fixed_point(MeanFieldProblem(spec, SIN), force=True,
                          max_iter=300)


def test_fixed_point_rejects_failed_risk_condition():
    spec = make_spec(coefficients={"sigma": 2.0})   # h4 = -2.16
    with pytest.raises(AssumptionError, match="risk"):
        solve_fixed_point(MeanFieldProblem(spec, SIN))


def test_fixed_point_small_coupling_self_consistent():
    spec = make_spec(n_t=1000, n_alpha=50, coefficients={"D": 0.2})
    problem = MeanFieldProblem(spec, SIN)
    sol = solve_fixed_point(problem, tol=1e-9)
    assert sol.iterations < 50
    assert consistency_residual(sol, problem) <= 1e-8


def test_solution_boundary_invariants_both_methods():
    spec = make_spec(n_t=400, n_alpha=30, coefficients={"D": 0.2})
    W = grid_matrix(SIN, spec.grids.alpha)
    m = spec.initial.mean(spec.grids.alpha)
    z0 = W @ m / spec.grids.n_alpha
    c = spec.coeffs
    problem = MeanFieldProblem(spec, SIN)
    for sol in (solve_fixed_point(problem), solve_spectral(problem)):
        assert np.max(np.abs(sol.z[:, 0] - z0)) < 1e-10
        sT = -np.einsum("ij,aj->ai", c.Qf @ c.Gamma_f, sol.z[:, -1])
        assert np.max(np.abs(sol.S[:, -1] - sT)) < 1e-8
        GfQfGf = c.Gamma_f.T @ c.Qf @ c.Gamma_f
        rT = np.einsum("ai,ij,aj->a", sol.z[:, -1], GfQfGf, sol.z[:, -1])
        assert np.max(np.abs(sol.r[:, -1] - rT)) < 1e-8


def test_spectral_matches_fixed_point_zero_kernel():
    spec = make_spec(n_t=300, n_alpha=10)
    problem = MeanFieldProblem(spec, ZERO)
    a = solve_fixed_point(problem)
    b = solve_spectral(problem)
    assert b.extras["rank"] == 0
    assert np.max(np.abs(a.z - b.z)) < 1e-8
    assert np.max(np.abs(a.S - b.S)) < 1e-8
    assert np.max(np.abs(a.r - b.r)) < 1e-8


def test_spectral_constant_kernel_node_independent():
    spec = make_spec(n_t=500, n_alpha=24, coefficients={"D": 0.2})
    g = Graphon.constant(0.8)
    problem = MeanFieldProblem(spec, g)
    sol = solve_spectral(problem)
    # single eigencomponent along the constant eigenfunction
    assert sol.extras["rank"] == 1
    assert np.max(np.abs(sol.z - sol.z[:1])) < 1e-10
    fp = solve_fixed_point(problem)
    assert np.max(np.abs(sol.z - fp.z)) < 1e-4
    assert np.max(np.abs(sol.S - fp.S)) < 1e-4


def test_cross_solver_equivalence_small_coupling():
    spec = make_spec(n_t=500, n_alpha=50, coefficients={"D": 0.2})
    problem = MeanFieldProblem(spec, SIN)
    fp = solve_fixed_point(problem, tol=1e-9)
    sp = solve_spectral(problem)
    diff = max(np.max(np.abs(fp.z - sp.z)), np.max(np.abs(fp.S - sp.S)),
               np.max(np.abs(fp.r - sp.r)))
    assert diff < 1e-4


def test_spectral_rank_zero_forced_uncouples():
    spec = make_spec(n_t=300, n_alpha=16, coefficients={"D": 0.2})
    # discard every mode
    problem = MeanFieldProblem(spec, SIN, rank_tol=10.0)
    sol = solve_spectral(problem)
    assert sol.extras["rank"] == 0
    z_hom = np.einsum("tij,aj->ati", problem.psi.z_fwd, sol.z[:, 0])
    assert np.max(np.abs(sol.z - z_hom)) < 1e-12
    P_perp = solve_p_ell_stack(spec, problem.tables, np.zeros(1))[0]
    S_expected = np.einsum("tij,atj->ati", P_perp, sol.z)
    assert np.max(np.abs(sol.S - S_expected)) < 1e-12


def test_spectral_truncated_rank_matches_full_rank():
    # kernel with a spectral gap, eigenvalues 0.5, 0.15, 0.15, 1e-5, 1e-5:
    # rank_tol = 1e-4 keeps L = 3 modes and leaves the two 1e-5 modes to
    # the remainder, which follows the l = 0 dynamics through P_perp.  The
    # solution moves by about 1e-5 times their small share of z0; P^l of a
    # retained mode in place of P_perp would move S and r by about 1e-7
    a = (np.arange(40) + 0.5) / 40
    d = a[:, None] - a[None, :]
    g = Graphon.step(0.5 + 0.3 * np.cos(2 * np.pi * d)
                     + 2e-5 * np.cos(4 * np.pi * d))
    spec = make_spec(n_t=200, n_alpha=40,
                     initial_law={"kind": "deterministic",
                                  "mean": {"expr": "sin_pi_alpha"}})
    cut = solve_spectral(MeanFieldProblem(spec, g, rank_tol=1e-4))
    full = solve_spectral(MeanFieldProblem(spec, g, rank_tol=1e-8))
    assert (cut.extras["rank"], full.extras["rank"]) == (3, 5)
    for name in ("z", "S", "r"):
        gap = np.max(np.abs(getattr(cut, name) - getattr(full, name)))
        assert gap <= 1e-9, (name, gap)


def test_symmetry_transfer_duplicate_rows():
    # nodes with identical kernel rows and identical initial means carry
    # identical solution paths: bitwise for the Picard route
    W = np.array([[0.6, 0.6, 0.2, 0.3],
                  [0.6, 0.6, 0.2, 0.3],
                  [0.2, 0.2, 0.9, 0.1],
                  [0.3, 0.3, 0.1, 0.4]])
    g = Graphon.step(W)
    spec = make_spec(n_t=300, n_alpha=4, coefficients={"D": 0.2},
                     initial_law={"kind": "gaussian", "mean": 2.0,
                                  "dispersion": 0.1})
    problem = MeanFieldProblem(spec, g)
    fp = solve_fixed_point(problem)
    assert np.array_equal(fp.z[0], fp.z[1])
    assert np.array_equal(fp.S[0], fp.S[1])
    assert np.array_equal(fp.r[0], fp.r[1])
    sp = solve_spectral(problem)
    assert np.max(np.abs(sp.z[0] - sp.z[1])) < 1e-12
    assert np.max(np.abs(sp.S[0] - sp.S[1])) < 1e-12


def solve_r(spec, Pi, z, S):
    """One node's value offset r from its (z, S) paths."""
    return _solve_r_field(spec, march_tables(spec, Pi), z[None], S[None])[0]


def test_solve_r_zero_everything():
    spec = make_spec(n_t=200, coefficients={"sigma": 0.0})
    Pi = solve_riccati_pi(spec)
    K = spec.grids.n_t
    z = np.zeros((K + 1, 1))
    r = solve_r(spec, Pi, z, z)
    assert np.all(r == 0.0)


def test_solve_r_pure_trace_term():
    spec = make_spec(n_t=400)
    Pi = solve_riccati_pi(spec)
    K = spec.grids.n_t
    z = np.zeros((K + 1, 1))
    r = solve_r(spec, Pi, z, z)
    c = spec.coeffs
    tr = np.array([float(np.trace(c.sigma(t) @ c.sigma(t).T @ Pi.values[k]))
                   for k, t in enumerate(spec.grids.t)])
    h = spec.grids.h
    integral = np.concatenate([[0.0], np.cumsum(0.5 * h * (tr[:-1] + tr[1:]))])
    expected = integral[-1] - integral
    assert np.max(np.abs(r - expected)) < 1e-6


def test_nonfinite_input_path_names_failure_time():
    # a NaN in the frozen mean path at interior node k makes the backward
    # offset and value-offset marches non-finite first at node k
    from rsgmfg import IntegrationError, acp_solve
    spec = make_spec(n_t=50)
    Pi = solve_riccati_pi(spec)
    grid = spec.grids
    k = 20
    z = np.ones((grid.n_t + 1, 1))
    z[k] = np.nan
    with pytest.raises(IntegrationError) as exc:
        solve_r(spec, Pi, z, np.zeros_like(z))
    assert exc.value.t_fail == grid.t[k]
    with pytest.raises(IntegrationError) as exc:
        acp_solve(spec, 0.5, z[None], alpha=np.array([0.5]))
    assert exc.value.t_fail == grid.t[k]


def test_consistency_residual_detects_perturbation():
    spec = make_spec(n_t=400, n_alpha=30, coefficients={"D": 0.2})
    problem = MeanFieldProblem(spec, SIN)
    sol = solve_fixed_point(problem)
    base = consistency_residual(sol, problem)
    assert base < 1e-6
    from dataclasses import replace
    bad = replace(sol, z=sol.z + 0.1)
    assert consistency_residual(bad, problem) >= 0.05


def test_consistency_residual_zero_kernel():
    spec = make_spec(n_t=200, n_alpha=6,
                     initial_law={"kind": "deterministic", "mean": 0.0})
    problem = MeanFieldProblem(spec, ZERO)
    sol = solve_fixed_point(problem)
    assert consistency_residual(sol, problem) == 0.0


def test_monotonicity_trivial_case_a():
    # Q = Qf = D = 0 force Pi = 0 and make conditions (i), (iii) hold with
    # zero matrices; B R^-1 B^T lambda_min = 10 * 0.6 > 2 gives case A
    cfg = make_config(n_t=100, n_alpha=16, coefficients={
        "Q": 0.0, "Qf": 0.0, "D": 0.0, "B": np.sqrt(15.0), "R": 1.5})
    spec = spec_from_dict(cfg)
    rep = check_monotonicity(MeanFieldProblem(spec, Graphon.constant(0.6)))
    assert rep.case == "A"
    assert rep.mu > 0
    assert rep.inequality_margins[1] == pytest.approx(10 * 0.6 - 2, abs=1e-12)


def test_monotonicity_margin_arithmetic():
    # B R^-1 B^T = 10 with lambda_min = 0.5 gives margin 10*0.5 - 2 = 3
    cfg = make_config(n_t=100, n_alpha=16, coefficients={
        "Q": 0.0, "Qf": 0.0, "D": 0.0, "B": np.sqrt(15.0), "R": 1.5})
    spec = spec_from_dict(cfg)
    rep = check_monotonicity(MeanFieldProblem(spec, Graphon.constant(0.5)))
    assert rep.inequality_margins[1] == pytest.approx(3.0, abs=1e-12)
    assert rep.mu == pytest.approx(3.0, abs=1e-12)


def test_monotonicity_benchmark_is_neither():
    # the gain condition needs B R^-1 B^T lambda_min > 2, impossible at
    # 0.24 * lambda_min with kernel eigenvalues <= 1
    spec = make_spec(n_t=200, n_alpha=60)
    rep = check_monotonicity(MeanFieldProblem(spec, SIN))
    assert rep.case == "neither"
    assert rep.inequality_margins[1] < 0
    assert rep.lambda_min_positive > 0


def test_monotonicity_margins_equal_per_node_formulas():
    # 2x2 tabulated A and Q with non-symmetric D and Gamma: the certificate
    # reads its coefficients from the forward tables' node rows and
    # returns the margins of the per-node loop bit for bit
    from rsgmfg.core import eigmax, eigmin
    spec = spec_from_dict(make_config(n_t=40, n_alpha=12, gamma=0.2,
                                      coefficients={
        "A": {"t": [0.0, 0.33, 1.0],
              "values": [[[0.2, 0.1], [0.0, -0.3]], [[-0.4, 0.3], [0.1, 0.2]],
                         [[0.1, 0.2], [0.0, 0.3]]]},
        "Q": {"t": [0.0, 0.47, 1.0],
              "values": [[[0.3, 0.1], [0.1, 0.2]], [[0.6, 0.0], [0.0, 0.4]],
                         [[0.2, 0.05], [0.05, 0.3]]]},
        "B": [[1.0, 0.0], [0.3, 0.5]], "D": [[0.15, 0.05], [0.0, 0.1]],
        "sigma": [[0.2, 0.0], [0.05, 0.1]], "R": [[1.0, 0.2], [0.2, 2.0]],
        "Qf": [[0.3, 0.0], [0.0, 0.3]], "Gamma": [[1.0, 0.2], [0.0, 1.0]],
        "Gamma_f": [[-0.5, 0.0], [0.0, -0.5]]}))
    problem = MeanFieldProblem(spec, SIN)
    rep = check_monotonicity(problem)
    c = spec.coeffs
    lam_min = rep.lambda_min_positive
    m1 = m2 = lamR = np.inf
    lamQ = -np.inf
    for k, t in enumerate(spec.grids.t):
        P, D, sig = problem.Pi.values[k], c.D(t), c.sigma(t)
        ssT = sig @ sig.T
        QG = c.Q(t) @ c.Gamma
        M_q = (0.5 * (QG + QG.T - P @ D - D.T @ P)
               + c.gamma ** 2 * (P @ ssT @ ssT @ P) + 0.25 * (D @ D.T))
        M_r = c.BRBt(t) * lam_min - 2.0 * np.eye(2)
        m1, lamQ = min(m1, eigmin(-M_q)), max(lamQ, eigmax(M_q))
        m2, lamR = min(m2, eigmin(M_r)), min(lamR, abs(eigmax(-M_r)))
    assert rep.inequality_margins[:2] == (m1, m2)
    M_f = -(c.Qf @ c.Gamma_f + c.Gamma_f.T @ c.Qf)
    assert rep.nu == abs(max(lamQ, eigmax(-0.5 * M_f)))
    assert rep.mu == (0.0 if rep.case == "B" else lamR)


def test_apply_kernel_midpoint_quadrature():
    W = grid_matrix(SIN, (np.arange(40) + 0.5) / 40)
    fld = np.ones((40, 3, 1))
    out = _apply_kernel(W, fld)
    assert np.allclose(out[:, 0, 0], W.mean(axis=1), atol=1e-14)


@pytest.mark.parametrize("n_nodes", [1, 2, 5, 1000])
def test_alpha_index_is_argmin_lower_on_tie(n_nodes):
    # the searchsorted rule equals the argmin of |alphas - alpha|, the
    # lower node on a tie, at random points (some outside [0, 1]), the
    # cell edges of several populations, the nodes and their midpoints;
    # an array gives the index array, a scalar an int
    from rsgmfg.core import Grids
    from rsgmfg.gmfg import MeanFieldSolution
    grid = Grids(T=1.0, n_t=4, n_alpha=n_nodes)
    g = grid.alpha
    sol = MeanFieldSolution(z=None, S=None, r=None, method="manual",
                            alphas=g, grid=grid, Pi=None)
    rng = np.random.default_rng(n_nodes)
    points = np.concatenate([rng.uniform(-0.1, 1.1, 500), g,
                             0.5 * (g[:-1] + g[1:]),
                             *(np.arange(N + 1) / N for N in (1, 3, 25, 200))])
    dist = np.abs(g[None] - points[:, None])
    want = np.argmin(dist, axis=1)
    if n_nodes > 1:                 # some points tie between two nodes
        assert np.any(np.sum(dist == dist.min(axis=1)[:, None], axis=1) > 1)
    assert np.array_equal(sol.alpha_index(points), want)
    for v, w in zip(points, want):
        i = sol.alpha_index(v)
        assert type(i) is int and i == w


def test_benchmark_value_offset_regression():
    # end-to-end pipeline value frozen after verification against the
    # closed-form / sampling cross-checks on the same grids
    spec = make_spec(n_t=1000, n_alpha=198)
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    idx = sol.alpha_index(0.5)
    assert sol.r[idx, 0] == pytest.approx(76.92696737121486, rel=1e-9)
    assert sol.z[idx, 0, 0] == pytest.approx(1.6366064165627516, rel=1e-9)
    assert sol.z[idx, -1, 0] == pytest.approx(4.680093570377411, rel=1e-9)


def test_two_dimensional_end_to_end():
    # matrix-valued pipeline: both solvers, certificates, simulation, and
    # the closed-form cost all agree in 2-D
    from rsgmfg import (SimConfig, acp_solve, closed_form_cost, estimate_cost,
                        sample_step, simulate_population, validate_assumptions)
    cfg = make_config(n_t=300, n_alpha=24, coefficients={
        "A": [[0.1, 0.2], [0.0, -0.1]],
        "B": [[1.0, 0.0], [0.0, 0.5]],
        "D": [[0.15, 0.0], [0.0, 0.1]],
        "sigma": [[0.2, 0.0], [0.05, 0.1]],
        "Q": [[0.5, 0.1], [0.1, 0.4]],
        "R": [[1.0, 0.0], [0.0, 2.0]],
        "Qf": [[0.3, 0.0], [0.0, 0.3]],
        "Gamma": [[1.0, 0.0], [0.0, 1.0]],
        "Gamma_f": [[-0.5, 0.0], [0.0, -0.5]]},
        gamma=0.2,
        initial_law={"kind": "gaussian", "mean": [1.0, -0.5],
                     "dispersion": [[0.05, 0.0], [0.0, 0.05]]})
    spec = spec_from_dict(cfg)
    assert (spec.n, spec.m, spec.d) == (2, 2, 2)
    assert validate_assumptions(spec).h4_min_eigenvalue > 0
    g = Graphon.uniform_attachment()
    problem = MeanFieldProblem(spec, g)
    fp = solve_fixed_point(problem)
    sp = solve_spectral(problem)
    diff = max(np.max(np.abs(fp.z - sp.z)), np.max(np.abs(fp.S - sp.S)),
               np.max(np.abs(fp.r - sp.r)))
    assert diff < 1e-6
    assert consistency_residual(fp, problem) < 1e-6
    Pi = solve_riccati_pi(spec)
    assert contraction_constant(problem).contraction_ok

    gN = sample_step(g, 6)
    paths = simulate_population(spec, gN, fp, SimConfig(M=64, seed=4))
    est = estimate_cost(spec, paths, 2)
    idx = fp.alpha_index(paths.agent_alphas[2])
    j_lim = closed_form_cost(spec, Pi, fp.S[idx], fp.r[idx], spec.initial,
                             float(paths.agent_alphas[2]))
    assert abs(est.mean - j_lim) < max(3 * est.std_error, 0.15 * j_lim)
    acp = acp_solve(spec, 0.25, fp.z[[idx]], alpha=np.array([0.5]))
    assert np.isfinite(acp.cost[0])


def test_spectral_decoupled_two_dimensional_oracle():
    # diagonal 2x2 coefficients (A_11 tabulated in t) and a diagonal initial
    # law decouple into two n = 1 games on the same kernel
    def diag(a, b):
        return [[a, 0.0], [0.0, b]]

    A_t = [0.0, 0.37, 1.0]
    A_11 = [0.3, 0.1, 0.5]
    pairs = {"B": (0.8, 0.6), "D": (0.5, 0.3), "sigma": (0.3, 0.2),
             "Q": (0.4, 0.2), "R": (1.2, 0.9), "Qf": (0.8, 0.5),
             "Gamma": (1.5, 0.7), "Gamma_f": (-0.6, -0.4)}
    mean, disp = (1.0, -0.5), (0.1, 0.05)

    def config(coeffs, A, law_mean, law_disp):
        return make_config(n_t=200, n_alpha=30, gamma=0.5,
                           coefficients={**coeffs, "A": A},
                           initial_law={"kind": "gaussian", "mean": law_mean,
                                        "dispersion": law_disp})

    two = spec_from_dict(config(
        {k: diag(*v) for k, v in pairs.items()},
        {"t": A_t, "values": [diag(a, -0.2) for a in A_11]},
        list(mean), list(disp)))
    ones = [spec_from_dict(config(
        {k: v[i] for k, v in pairs.items()},
        {"t": A_t, "values": A_11} if i == 0 else -0.2, mean[i], disp[i]))
        for i in range(2)]
    prob2 = MeanFieldProblem(two, SIN)
    prob1 = [MeanFieldProblem(s, SIN) for s in ones]
    sol2 = solve_spectral(prob2)
    sol1 = [solve_spectral(p) for p in prob1]

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    for i in range(2):
        assert close(sol2.Pi.values[:, i, i], sol1[i].Pi.values[:, 0, 0])
        assert close(sol2.z[:, :, i], sol1[i].z[:, :, 0])
        assert close(sol2.S[:, :, i], sol1[i].S[:, :, 0])
    assert np.max(np.abs(sol2.Pi.values[:, 0, 1])) <= 1e-12
    assert close(sol2.r, sol1[0].r + sol1[1].r)

    # the Picard route, and the contraction bound through its n > 1 (SVD)
    # branch: each constituent is the larger of the two scalar ones
    fp2 = solve_fixed_point(prob2, force=True, tol=1e-11)
    fp1 = [solve_fixed_point(p, force=True, tol=1e-11) for p in prob1]
    for i in range(2):
        assert np.max(np.abs(fp2.z[:, :, i] - fp1[i].z[:, :, 0])) <= 1e-9
        assert np.max(np.abs(fp2.S[:, :, i] - fp1[i].S[:, :, 0])) <= 1e-9
    assert np.max(np.abs(fp2.r - (fp1[0].r + fp1[1].r))) <= 1e-9
    rep2 = contraction_constant(prob2)
    rep1 = [contraction_constant(p) for p in prob1]
    for key in ("c_g", "c_z", "c_S", "norm_D", "norm_BRB", "norm_QGammaPiD",
                "norm_QfGammaf"):
        assert getattr(rep2, key) == pytest.approx(
            max(getattr(r, key) for r in rep1), rel=1e-12)
