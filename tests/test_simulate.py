from dataclasses import replace

import numpy as np
import pytest

from rsgmfg import (Graphon, MeanFieldProblem, SimConfig, SimulationError,
                    approximation_errors, closed_form_cost,
                    cost_from_exponents, estimate_cost, lambda_from_paths,
                    limit_cost_exponents, nash_gap_experiment,
                    population_cost_exponents, sample_step,
                    simulate_population, solve_riccati_pi, solve_spectral)

from conftest import make_config, make_spec

SIN = Graphon.sinusoidal()
ZERO = Graphon.constant(0.0)


def small_run(seed=42, M=6, N=5, n_t=100, **overrides):
    spec = make_spec(n_t=n_t, n_alpha=20, coefficients={"D": 0.2},
                     **overrides)
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    gN = sample_step(SIN, N)
    sim = SimConfig(N=N, M=M, seed=seed)
    return spec, sol, gN, sim


def tabulated_2d_spec(**initial_law):
    """n = m = d = 2 with non-symmetric A and B and R tabulated in t."""
    from rsgmfg import spec_from_dict
    law = initial_law or {"kind": "deterministic", "mean": [1.0, -0.5]}
    return spec_from_dict(make_config(n_t=40, n_alpha=12, gamma=0.2,
                                      coefficients={
        "A": {"t": [0.0, 0.33, 1.0],
              "values": [[[0.2, 0.1], [0.0, -0.3]], [[-0.4, 0.3], [0.1, 0.2]],
                         [[0.1, 0.2], [0.0, 0.3]]]},
        "B": {"t": [0.0, 0.4, 1.0],
              "values": [[[1.0, 0.2], [0.0, 0.6]], [[0.7, 0.0], [0.3, 0.9]],
                         [[1.1, 0.1], [0.0, 0.5]]]},
        "R": {"t": [0.0, 0.6, 1.0],
              "values": [[[1.0, 0.2], [0.2, 2.0]], [[1.5, -0.1], [-0.1, 1.2]],
                         [[0.8, 0.0], [0.0, 1.7]]]},
        "D": [[0.15, 0.05], [0.0, 0.1]], "sigma": [[0.2, 0.0], [0.05, 0.1]],
        "Q": [[0.5, 0.1], [0.1, 0.4]], "Qf": [[0.3, 0.0], [0.0, 0.3]],
        "Gamma": [[1.0, 0.2], [0.0, 1.0]],
        "Gamma_f": [[-0.5, 0.0], [0.0, -0.5]]},
        initial_law=law))


def test_simulation_reproducible_and_chunk_invariant():
    spec, sol, gN, sim = small_run()
    a = simulate_population(spec, gN, sol, sim)
    b = simulate_population(spec, gN, sol, sim)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.u, b.u)
    # forcing single-path chunks must not change a single bit
    tiny = replace(sim, chunk_doubles=1)
    c = simulate_population(spec, gN, sol, tiny)
    assert np.array_equal(a.x, c.x)
    assert np.array_equal(a.xN, c.xN)


def test_seed_changes_paths():
    spec, sol, gN, sim = small_run()
    a = simulate_population(spec, gN, sol, sim)
    b = simulate_population(spec, gN, sol, replace(sim, seed=43))
    assert not np.array_equal(a.x, b.x)


def test_weighted_average_identity():
    spec, sol, gN, sim = small_run()
    paths = simulate_population(spec, gN, sol, sim)
    K = paths.x.shape[2]
    for k in (0, K // 2, K - 1):
        recomputed = np.matmul(gN.gN, paths.x[:, :, k]) / gN.N
        assert np.array_equal(paths.xN[:, :, k], recomputed)


def test_common_random_numbers_across_population_sizes():
    # agent j's noise and initial draw do not depend on N
    spec, sol, _, sim = small_run()
    a = simulate_population(spec, sample_step(SIN, 3), sol,
                            replace(sim, N=3, M=3))
    b = simulate_population(spec, sample_step(SIN, 5), sol,
                            replace(sim, N=5, M=3))
    assert np.array_equal(a.x[:, :, 0], b.x[:, :3, 0])


def test_pure_brownian_moments():
    # Q = Qf = 0 force Pi = 0 and S = 0, so u = 0 and the state is xi + W
    # even though B != 0 (keeping B R^-1 B^T - 2 gamma sigma sigma^T >= 0)
    spec = make_spec(n_t=200, n_alpha=4, coefficients={
        "A": 0.0, "B": 1.0, "D": 0.0, "sigma": 1.0, "Q": 0.0, "Qf": 0.0},
        initial_law={"kind": "deterministic", "mean": 0.0})
    sol = solve_spectral(MeanFieldProblem(spec, ZERO))
    gN = sample_step(ZERO, 1)
    expo_unused = SimConfig(N=1, M=100_000, seed=9)
    paths = simulate_population(spec, gN, sol, expo_unused)
    xT = paths.x[:, 0, -1, 0]
    M = len(xT)
    # mean ~ N(0, T/M), var estimator se ~ sqrt(2/M) * T
    assert abs(xT.mean()) < 3 * np.sqrt(1.0 / M)
    assert abs(xT.var() - 1.0) < 3 * np.sqrt(2.0 / M)


def test_zero_noise_matches_transition_matrix_first_order():
    # deterministic closed loop vs the RK4 transition matrix: the Euler
    # error is O(dt), so halving dt halves it
    spec = make_spec(n_t=400, n_alpha=4,
                     coefficients={"sigma": 0.0},
                     initial_law={"kind": "deterministic", "mean": 2.0})
    problem = MeanFieldProblem(spec, ZERO)
    sol = solve_spectral(problem)
    gN = sample_step(ZERO, 1)
    psi = problem.psi
    target = float((psi.z_fwd[400] @ psi.z_inv[0] @ np.array([2.0]))[0])
    errs = []
    for dt in (5e-3, 2.5e-3):
        paths = simulate_population(spec, gN, sol,
                                    SimConfig(N=1, M=1, seed=0, dt=dt))
        errs.append(abs(float(paths.x[0, 0, -1, 0]) - target))
    assert errs[0] > 0
    ratio = errs[0] / errs[1]
    assert 1.7 <= ratio <= 2.3


def test_estimate_cost_zero_weights_is_one():
    # Q = Qf = 0 kill the curvature and offsets, so u = 0 and the control
    # weight never enters: Lambda = 0 on every path
    spec = make_spec(n_t=100, n_alpha=20,
                     coefficients={"D": 0.2, "Q": 0.0, "Qf": 0.0, "B": 1.0})
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    gN = sample_step(SIN, 5)
    paths = simulate_population(spec, gN, sol, SimConfig(N=5, M=4, seed=1))
    est = estimate_cost(spec, paths, 0)
    assert est.mean == 1.0 and est.std_error == 0.0


def test_estimate_cost_known_lambda():
    # frozen state, no control, unit weights: Lambda = T * |xi|^2_Q
    #                                                + |xi|^2_Qf = 2
    spec = make_spec(n_t=80, n_alpha=8, coefficients={
        "A": 0.0, "B": 0.0, "D": 0.0, "sigma": 0.0,
        "Q": 1.0, "Qf": 1.0, "Gamma": 0.0, "Gamma_f": 0.0},
        initial_law={"kind": "deterministic", "mean": 1.0})
    sol = solve_spectral(MeanFieldProblem(spec, ZERO))
    gN = sample_step(ZERO, 2)
    paths = simulate_population(spec, gN, sol, SimConfig(N=2, M=3, seed=2))
    lam = lambda_from_paths(spec, paths, 0)
    assert np.allclose(lam, 2.0, atol=1e-12)
    est = estimate_cost(spec, paths, 0)
    assert est.mean == pytest.approx(np.exp(0.6), rel=1e-12)
    assert est.std_error == 0.0
    assert est.M_effective == pytest.approx(3.0)


def test_cost_overflow_reported():
    with pytest.raises(SimulationError, match="700"):
        cost_from_exponents(np.array([10.0, 800.0]))


def test_cost_pathwise_monotone_in_state_weight():
    # doubling Q dominates the running integrand on every recorded path
    spec1, sol1, gN, sim = small_run(M=16)
    paths = simulate_population(spec1, gN, sol1, sim)
    spec2 = make_spec(n_t=100, n_alpha=20,
                      coefficients={"D": 0.2, "Q": 0.6})
    lam1 = lambda_from_paths(spec1, paths, 1)
    lam2 = lambda_from_paths(spec2, paths, 1)
    assert np.all(lam2 >= lam1 - 1e-12)


def test_nonfinite_state_names_location():
    # stiff stable drift: the exact flow decays but the explicit Euler step
    # multiplies by (1 + A dt) = -49 each step and overflows mid-run
    spec = make_spec(n_t=200, n_alpha=4, coefficients={
        "A": -1e4, "B": 1.0, "D": 0.0, "sigma": 0.0, "Q": 0.0, "Qf": 0.0},
        initial_law={"kind": "deterministic", "mean": 1.0})
    from rsgmfg.gmfg import MeanFieldSolution
    K = spec.grids.n_t
    zeros = np.zeros((4, K + 1, 1))
    sol = MeanFieldSolution(z=zeros, S=zeros, r=zeros[..., 0],
                            method="manual", alphas=spec.grids.alpha,
                            grid=spec.grids, Pi=solve_riccati_pi(spec))
    gN = sample_step(ZERO, 2)
    with np.errstate(over="ignore"), \
            pytest.raises(SimulationError, match=r"path=\d+, agent=\d+"):
        simulate_population(spec, gN, sol, SimConfig(N=2, M=2, seed=3))


def test_limit_problem_matches_closed_form():
    # desk-scale verification identity: simulated optimal control of the
    # one-agent limit problem reproduces the closed-form cost
    spec = make_spec(n_t=500, n_alpha=50, coefficients={"D": 0.2},
                     initial_law={"kind": "deterministic", "mean": 2.0})
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    Pi = solve_riccati_pi(spec)
    idx = sol.alpha_index(0.5)
    alpha = float(sol.alphas[idx])
    target = closed_form_cost(spec, Pi, sol.S[idx], sol.r[idx],
                              spec.initial, alpha)
    expo = limit_cost_exponents(spec, sol.z[idx], sol.S[idx], sol.Pi,
                                SimConfig(N=1, M=20_000, seed=3), alpha)
    est = cost_from_exponents(expo)
    assert abs(est.mean - target) < 3 * est.std_error


def test_approximation_errors_constant_setup_vanishes():
    g = Graphon.constant(0.7)
    spec = make_spec(n_t=100, n_alpha=40, coefficients={"D": 0.2})
    sol = solve_spectral(MeanFieldProblem(spec, g))
    eps = approximation_errors(sol, sample_step(g, 10), g, spec)
    assert eps.eps1 == pytest.approx(0.0, abs=1e-15)
    assert eps.eps2 == pytest.approx(0.0, abs=1e-10)
    assert eps.eps3 == pytest.approx(0.0, abs=1e-15)


def test_approximation_errors_identity_mean_step_error():
    spec = make_spec(n_t=100, n_alpha=200, coefficients={"D": 0.2},
                     initial_law={"kind": "deterministic",
                                  "mean": {"expr": "alpha"}})
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    N = 25
    eps = approximation_errors(sol, sample_step(SIN, N), SIN, spec)
    assert eps.eps3 == pytest.approx(1.0 / (2 * N), abs=1e-12)


def test_approximation_errors_decrease_with_population():
    spec = make_spec(n_t=100, n_alpha=200, coefficients={"D": 0.2})
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    rows = [approximation_errors(sol, sample_step(SIN, N), SIN, spec)
            for N in (10, 25, 50)]
    assert rows[0].eps1 > rows[1].eps1 > rows[2].eps1
    assert rows[0].eps2 > rows[1].eps2 > rows[2].eps2


def test_approximation_errors_requires_fine_grid():
    spec = make_spec(n_t=100, n_alpha=20, coefficients={"D": 0.2})
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    from rsgmfg import ConfigError
    with pytest.raises(ConfigError, match="reference grid"):
        approximation_errors(sol, sample_step(SIN, 10), SIN, spec)


def test_nash_gap_zero_kernel_is_noise_level():
    spec = make_spec(n_t=100, n_alpha=40,
                     initial_law={"kind": "gaussian", "mean": 2.0,
                                  "dispersion": 0.1})
    sol = solve_spectral(MeanFieldProblem(spec, ZERO))
    rep = nash_gap_experiment(spec, ZERO, sol, [4, 8],
                              SimConfig(N=4, M=2000, seed=5))
    for row in rep.rows:
        assert row.gap <= 3 * row.J_hat.std_error
        assert row.eps1 == 0.0


def test_nash_gap_deviation_probe_nearly_optimal():
    # at delta' = 0 the deviation is the same law modulo resampling noise;
    # its cost cannot beat the decentralized cost by a significant margin
    spec = make_spec(n_t=200, n_alpha=40, coefficients={"D": 0.2},
                     initial_law={"kind": "gaussian", "mean": 2.0,
                                  "dispersion": 0.1})
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    rep = nash_gap_experiment(spec, SIN, sol, [8],
                              SimConfig(N=8, M=3000, seed=6),
                              deviate_delta=0.0)
    row = rep.rows[0]
    assert row.deviation_cost is not None
    combined = row.deviation_cost.std_error + row.J_hat.std_error
    assert row.deviation_cost.mean >= row.J_hat.mean - 3 * combined


def test_population_cost_exponents_match_recorded_paths():
    spec, sol, gN, sim = small_run(M=10)
    paths = simulate_population(spec, gN, sol, sim)
    lam_rec = lambda_from_paths(spec, paths, 2)
    expo = population_cost_exponents(spec, gN, sol, sim, np.array([2]))
    assert np.allclose(spec.gamma * lam_rec, expo[:, 0], atol=1e-12)


def test_population_trajectory_regression():
    # endpoint values frozen after the determinism and oracle checks above
    spec, sol, gN, sim = small_run()
    paths = simulate_population(spec, gN, sol, sim)
    assert paths.x[0, 0, -1, 0] == pytest.approx(2.576466366505942, rel=1e-9)
    assert paths.x[5, 4, -1, 0] == pytest.approx(2.7266545900218424, rel=1e-9)
    assert paths.u[2, 2, -1, 0] == pytest.approx(-1.0879273856948428, rel=1e-9)


def test_heavy_tail_flagged():
    # one dominant path carries nearly the whole mean
    expo = np.concatenate([np.zeros(199), [30.0]])
    est = cost_from_exponents(expo)
    assert est.tail_warning and est.tail_share > 0.5
    flat = cost_from_exponents(np.zeros(200))
    assert not flat.tail_warning


def test_probe_all_covers_every_agent():
    spec = make_spec(n_t=100, n_alpha=40, coefficients={"D": 0.2})
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    rep = nash_gap_experiment(spec, SIN, sol, [6],
                              SimConfig(N=6, M=50, seed=1), probe_all=True)
    assert [r.agent for r in rep.rows] == [1, 2, 3, 4, 5, 6]


def test_benchmark_population_tracks_limit_means():
    # strong-coupling benchmark, one path, N = 200: each agent's weighted
    # average stays in a tight envelope around its limit mean path, which
    # is the content of the mean-field approximation
    from rsgmfg.presets import benchmark_config
    from rsgmfg import spec_from_dict
    spec = spec_from_dict(benchmark_config())
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    gN = sample_step(SIN, 200)
    paths = simulate_population(spec, gN, sol,
                                SimConfig(N=200, M=1, seed=12345))
    mids = (np.arange(200) + 0.5) / 200
    idx = [sol.alpha_index(a) for a in mids]
    gap = np.abs(paths.xN[0, :, :, 0] - sol.z[idx][:, :, 0])
    assert float(gap.max()) <= 0.5
    assert np.all(np.isfinite(paths.x))


def test_dt_must_divide_horizon():
    spec, sol, gN, _ = small_run()
    from rsgmfg import ConfigError
    with pytest.raises(ConfigError, match="divide"):
        simulate_population(spec, gN, sol,
                            SimConfig(N=5, M=1, seed=0, dt=0.3))


def test_compact_uniform_draws_stay_in_box():
    spec = make_spec(n_t=50, n_alpha=10, coefficients={"D": 0.2},
                     initial_law={"kind": "compact_uniform", "mean": 2.0,
                                  "dispersion": 0.25})
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    gN = sample_step(SIN, 5)
    paths = simulate_population(spec, gN, sol, SimConfig(N=5, M=40, seed=8))
    x0 = paths.x[:, :, 0, 0]
    assert np.all(x0 >= 1.75) and np.all(x0 <= 2.25)
    assert x0.std() > 0.05


@pytest.mark.parametrize("N", [25, 200])
def test_low_rank_coupling_matches_dense_product(N):
    # the sampled sinusoidal network has rank 3, so 2r < N and the coupling
    # runs through its factor U Lambda U^T; it must reproduce gN x / N
    spec, sol, gN, sim = small_run(N=N, M=3)
    paths = simulate_population(spec, gN, sol, sim)
    dense = np.stack([np.matmul(gN.gN, paths.x[:, :, k]) / N
                      for k in range(paths.x.shape[2])], axis=2)
    scale = float(np.max(np.abs(paths.x)))
    assert np.max(np.abs(paths.xN - dense)) <= 1e-12 * scale
    # rounding differs somewhere, so the factored operator did run
    assert not np.array_equal(paths.xN, dense)


def test_full_rank_coupling_stays_dense():
    # uniform attachment gives a full-rank network: the dense product runs
    # unchanged, bit for bit
    g = Graphon.uniform_attachment()
    spec = make_spec(n_t=100, n_alpha=20, coefficients={"D": 0.2})
    sol = solve_spectral(MeanFieldProblem(spec, g))
    gN = sample_step(g, 40)
    paths = simulate_population(spec, gN, sol, SimConfig(N=40, M=3, seed=4))
    for k in range(paths.x.shape[2]):
        recomputed = np.matmul(gN.gN, paths.x[:, :, k]) / gN.N
        assert np.array_equal(paths.xN[:, :, k], recomputed)


def test_low_rank_coupling_chunk_invariant():
    spec, sol, gN, sim = small_run(N=40, M=5)
    tiny = replace(sim, chunk_doubles=1)
    a = simulate_population(spec, gN, sol, sim)
    b = simulate_population(spec, gN, sol, tiny)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.xN, b.xN)
    probe = np.array([0, 19, 39])
    assert np.array_equal(
        population_cost_exponents(spec, gN, sol, sim, probe),
        population_cost_exponents(spec, gN, sol, tiny, probe))


def test_nash_gap_shares_draws_between_runs(monkeypatch):
    # both scenarios march over one set of draws per chunk; each must equal
    # its standalone run bit for bit, whatever the chunking
    from rsgmfg import acp_solve, odesolve, control, simulate
    spec = make_spec(n_t=100, n_alpha=40, coefficients={"D": 0.2},
                     initial_law={"kind": "gaussian", "mean": 2.0,
                                  "dispersion": 0.1})
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    solve = odesolve.solve_riccati_pi_delta
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return solve(*args, **kwargs)

    for module in (odesolve, control, simulate):
        monkeypatch.setattr(module, "solve_riccati_pi_delta", counted)
    N_list = [4, 6, 8, 10]
    sim = SimConfig(N=4, M=7, seed=21, chunk_doubles=2500)  # 2-4 chunks
    rep = nash_gap_experiment(spec, SIN, sol, N_list, sim, deviate_delta=0.5)
    assert sorted(calls) == [0.5]   # Pi comes with sol; Pi_delta once
    monkeypatch.undo()

    N = 10
    gN = sample_step(SIN, N)
    run_sim = replace(sim, N=N, chunk_doubles=32_000_000)
    probes = simulate.default_probe_agents(N)
    rows = [r for r in rep.rows if r.N == N]
    expo = population_cost_exponents(spec, gN, sol, run_sim, probes)
    for j, row in enumerate(rows):
        assert row.J_hat == cost_from_exponents(expo[:, j])
    alpha = float(rows[0].alpha)
    acp = acp_solve(spec, 0.5, sol.z[sol.alpha_index(alpha)], grid=sol.grid,
                    law=spec.initial, alpha=alpha)
    dev = simulate._deviation_from_acp(spec, acp,
                                       simulate.sim_time_grid(spec, run_sim),
                                       int(probes[0]))
    expo_dev = population_cost_exponents(spec, gN, sol, run_sim,
                                         probes[:1], deviation=dev)
    assert rows[0].deviation_cost == cost_from_exponents(expo_dev[:, 0])


def test_offsets_exact_on_solver_nodes():
    # T = 2.5, n_t = 300: t_k / h lands a few ulps above k at some nodes,
    # where a floor-and-blend resampling returns a blend of two nodes; with
    # dt = h the offset table must be R^-1 B^T S at the nodes, bit for bit
    from rsgmfg.simulate import _population
    spec = make_spec(n_t=300, n_alpha=20, T=2.5, coefficients={"D": 0.2})
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    gN = sample_step(SIN, 5)
    pop = _population(spec, gN, sol, SimConfig(N=5, M=1, seed=0))
    idx = [sol.alpha_index(a) for a in (np.arange(5) + 0.5) / 5]
    expected = sol.S[idx] @ spec.coeffs._RinvBt(0.0).T
    assert pop.sim_grid.n_t == spec.grids.n_t
    assert np.array_equal(pop.tables.koff, expected)


def test_gain_tables_equal_per_node_formulas():
    # 2x2 tabulated A, B and R make R^-1 B^T vary in t; dt = h/2 puts every
    # other simulation node between two solver nodes.  The vectorized gain
    # and offset tables equal the per-node products bit for bit
    from rsgmfg import acp_solve, simulate
    spec = tabulated_2d_spec()
    c = spec.coeffs
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    sim_grid = simulate.sim_time_grid(
        spec, SimConfig(N=3, M=1, seed=0, dt=spec.grids.h / 2))
    ts = sim_grid.t
    S = sol.S[[0, 5, 11]]
    tables = simulate._build_tables(spec, sim_grid, sol.Pi, S)
    Pi_t = sol.Pi.Pi.at_times(ts)
    S_t = simulate._resampled(S, sol.grid, ts)
    acp = acp_solve(spec, 0.5, sol.z[5])
    dev = simulate._deviation_from_acp(spec, acp, sim_grid, 1)
    Pd_t = acp.Pi_delta.Pi.at_times(ts)
    Sd_t = simulate._resampled(acp.S_delta[None], sol.grid, ts)[0]
    for k, t in enumerate(ts):
        RinvBt = c._RinvBt(t)
        assert np.array_equal(tables.Kgain[k], RinvBt @ Pi_t[k])
        assert np.array_equal(tables.koff[:, k], S_t[:, k] @ RinvBt.T)
        assert np.array_equal(tables.A[k], c.A(t))
        assert np.array_equal(tables.B[k], c.B(t))
        assert np.array_equal(tables.R[k], c.R(t))
        assert np.array_equal(dev.K_path[k], RinvBt @ Pd_t[k])
        assert np.array_equal(dev.k_path[k], RinvBt @ Sd_t[k])


def reference_euler(tables, dt, draws, network, probe, dev):
    """The Euler march written with one einsum per matrix product."""
    x = draws.x0
    K = draws.noise.shape[0]
    lam = np.zeros((x.shape[0], len(probe)))
    xs, us, ys = [], [], []

    def quad(v, M):
        return np.einsum("...i,ij,...j->...", v, M, v)

    for k in range(K + 1):
        y = network(x)
        u = (-np.einsum("ij,paj->pai", tables.Kgain[k], x)
             - tables.koff[:, k][None])
        u[:, dev.agent] = (-np.einsum("ij,pj->pi", dev.K_path[k],
                                      x[:, dev.agent]) - dev.k_path[k][None])
        err = x[:, probe] - np.einsum("ij,paj->pai", tables.Gamma,
                                      y[:, probe])
        lam += ((0.5 * dt if k in (0, K) else dt)
                * (quad(err, tables.Q[k]) + quad(u[:, probe], tables.R[k])))
        xs.append(x)
        us.append(u)
        ys.append(y)
        if k == K:
            term = x[:, probe] - np.einsum("ij,paj->pai", tables.Gamma_f,
                                           y[:, probe])
            lam += quad(term, tables.Qf)
            break
        drift = (np.einsum("ij,paj->pai", tables.A[k], x)
                 + np.einsum("ij,paj->pai", tables.B[k], u)
                 + np.einsum("ij,paj->pai", tables.D[k], y))
        x = x + drift * dt + np.einsum("ij,paj->pai", tables.sig[k],
                                       draws.noise[k])
    return lam, np.stack(xs, 2), np.stack(us, 2), np.stack(ys, 2)


def test_euler_march_matches_einsum_reference_n2():
    # n = m = d = 2 with time-varying non-symmetric A, B and R, one agent
    # on its own affine law: the recorded paths and the cost accumulators
    # equal the per-product einsum march
    from rsgmfg import simulate
    spec = tabulated_2d_spec(kind="gaussian", mean=[1.0, -0.5],
                             dispersion=[[0.1, 0.02], [0.02, 0.05]])
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    N = 6
    sim = SimConfig(N=N, M=3, seed=13)
    pop = simulate._population(spec, sample_step(SIN, N), sol, sim)
    draws = simulate._draw_chunk(spec, sim, pop.sim_grid, pop.means,
                                 range(3))
    rng = np.random.default_rng(0)
    K = pop.sim_grid.n_t
    dev = simulate.DeviationSpec(agent=2,
                                 K_path=rng.normal(size=(K + 1, 2, 2)),
                                 k_path=rng.normal(size=(K + 1, 2)))
    probe = np.array([0, 2, 5])
    got = simulate._run_chunk(spec, pop.tables, pop.sim_grid, draws,
                              pop.network, None, probe, dev, record=True)
    want = reference_euler(pop.tables, pop.sim_grid.h, draws, pop.network,
                           probe, dev)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))


@pytest.mark.parametrize("chunk_doubles", [32_000_000, 1])
def test_draws_are_step_major_philox_increments(chunk_doubles):
    # path p's increments are stream 2p+1 drawn agent-major and scaled by
    # sqrt(h), stored step-major: noise[:, j] is that block, axes 0, 1
    # swapped, whatever the chunking
    from rsgmfg import simulate
    spec = tabulated_2d_spec()
    N, seed = 5, 17
    sim = SimConfig(N=N, M=3, seed=seed, chunk_doubles=chunk_doubles)
    grid = simulate.sim_time_grid(spec, sim)
    means = spec.initial.mean((np.arange(N) + 0.5) / N)
    chunks = list(simulate._chunks(spec, sim, grid, N))
    assert len(chunks) == (1 if chunk_doubles > 1 else 3)
    for paths in chunks:
        draws = simulate._draw_chunk(spec, sim, grid, means, paths)
        assert draws.noise.shape == (grid.n_t, len(paths), N, spec.d)
        for j, p in enumerate(paths):
            gen = np.random.Generator(np.random.Philox(
                key=np.array([seed, 2 * p + 1], dtype=np.uint64)))
            block = np.sqrt(grid.h) * gen.standard_normal((N, grid.n_t,
                                                           spec.d))
            assert np.array_equal(draws.noise[:, j], np.swapaxes(block, 0, 1))
