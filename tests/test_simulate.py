import re
from dataclasses import replace

import numpy as np
import pytest

from rsgmfg import (Graphon, MeanFieldProblem, SimConfig, SimulationError,
                    approximation_errors, closed_form_cost,
                    cost_from_exponents, estimate_cost, lambda_from_paths,
                    limit_cost_exponents, limit_ensemble, nash_gap_experiment,
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
    sim = SimConfig(M=M, seed=seed)
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


def test_h4_from_table_equals_per_node_minimum():
    # B and R tabulated in t: the assumption check reads one table of the
    # Riccati weight; its minimum is the per-node minimum, bit for bit
    from rsgmfg import validate_assumptions
    from rsgmfg.core import eigmin
    spec = tabulated_2d_spec()
    c = spec.coeffs
    report = validate_assumptions(spec)
    per_node = min(eigmin(c.riccati_quadratic(t)) for t in spec.grids.t)
    assert report.h4_min_eigenvalue == per_node


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


def assert_network_average(gN, paths, steps=None):
    """xN is gN x / N: each path's coupling computed alone equals the one
    recorded inside its block bit for bit, and agrees with the dense
    product to 1e-14 relative."""
    from rsgmfg import simulate
    coupling = simulate._network_operator(gN.gN)
    for k in range(paths.x.shape[2]) if steps is None else steps:
        x, xN = paths.x[:, :, k], paths.xN[:, :, k]
        for p in range(len(x)):
            assert np.array_equal(coupling(x[p:p + 1], k), xN[p:p + 1])
        dense = np.matmul(gN.gN, x) / gN.N
        assert np.max(np.abs(xN - dense)) <= 1e-14 * np.max(np.abs(dense))


def test_weighted_average_identity():
    spec, sol, gN, sim = small_run()
    paths = simulate_population(spec, gN, sol, sim)
    K = paths.x.shape[2]
    assert_network_average(gN, paths, steps=(0, K // 2, K - 1))


def test_common_random_numbers_across_population_sizes():
    # agent j's noise and initial draw do not depend on N
    spec, sol, _, sim = small_run()
    a = simulate_population(spec, sample_step(SIN, 3), sol,
                            replace(sim, M=3))
    b = simulate_population(spec, sample_step(SIN, 5), sol,
                            replace(sim, M=3))
    assert np.array_equal(a.x[:, :, 0], b.x[:, :3, 0])


def test_pure_brownian_moments():
    # Q = Qf = 0 force Pi = 0 and S = 0, so u = 0 and the state is xi + W
    # even though B != 0 (keeping B R^-1 B^T - 2 gamma sigma sigma^T >= 0)
    spec = make_spec(n_t=200, n_alpha=4, coefficients={
        "A": 0.0, "B": 1.0, "D": 0.0, "sigma": 1.0, "Q": 0.0, "Qf": 0.0},
        initial_law={"kind": "deterministic", "mean": 0.0})
    sol = solve_spectral(MeanFieldProblem(spec, ZERO))
    gN = sample_step(ZERO, 1)
    expo_unused = SimConfig(M=100_000, seed=9)
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
                                    SimConfig(M=1, seed=0, dt=dt))
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
    paths = simulate_population(spec, gN, sol, SimConfig(M=4, seed=1))
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
    paths = simulate_population(spec, gN, sol, SimConfig(M=3, seed=2))
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


def stiff_run(N, graphon):
    """Stiff stable drift: the exact flow decays but the explicit Euler
    step multiplies by (1 + A dt) = -49 each step and overflows mid-run;
    N agents on ``graphon``."""
    spec = make_spec(n_t=200, n_alpha=4, coefficients={
        "A": -1e4, "B": 1.0, "D": 0.0, "sigma": 0.0, "Q": 0.0, "Qf": 0.0},
        initial_law={"kind": "deterministic", "mean": 1.0})
    from rsgmfg.gmfg import MeanFieldSolution
    K = spec.grids.n_t
    zeros = np.zeros((4, K + 1, 1))
    sol = MeanFieldSolution(z=zeros, S=zeros, r=zeros[..., 0],
                            method="manual", alphas=spec.grids.alpha,
                            grid=spec.grids, Pi=solve_riccati_pi(spec))
    return spec, sol, sample_step(graphon, N)


def test_nonfinite_state_names_location():
    spec, sol, gN = stiff_run(2, ZERO)
    with np.errstate(over="ignore"), \
            pytest.raises(SimulationError, match=r"path=\d+, agent=\d+"):
        simulate_population(spec, gN, sol, SimConfig(M=2, seed=3))


def test_subspace_march_nonfinite_state_names_location():
    # the stiff spec on factored networks of 12 agents, probed at agents
    # 0, 5 and 11.  On the rank-0 network the march holds only the
    # probes' own states and fails as the full march does: same path,
    # agent and step.  On the rank-3 network a coordinate of its range,
    # a sum over the other agents' states, overflows a step sooner and is
    # named instead
    from rsgmfg import simulate
    sim = SimConfig(M=2, seed=3)
    probe = simulate.default_probe_agents(12)
    for graphon, q in ((ZERO, 3), (SIN, 6)):
        spec, sol, gN = stiff_run(12, graphon)
        pop = simulate._population(spec, gN, sol, sim)
        assert pop.coupling.factored
        assert len(simulate._probe_march(pop, probe).pop.means) == q
        draws = simulate._draw_chunk(spec, sim, pop.sim_grid, pop.means,
                                     range(2))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SimulationError) as full:
                simulate._run_chunk(spec, pop, draws, probe, record=False)
            with pytest.raises(SimulationError) as sub:
                population_cost_exponents(spec, gN, sol, sim, probe)
        if graphon is ZERO:
            assert str(full.value) == str(sub.value)
            assert str(sub.value).endswith("path=0, agent=0, step=182")
        else:
            assert re.search(r"path=0, subspace coordinate=[3-5], step=181$",
                             str(sub.value))


def test_state_sum_overflow_is_not_a_nonfinite_state():
    # two finite states of 1e308 whose sum overflows: the march carries
    # on (the states stay put, u = 0) instead of failing to find a
    # non-finite entry
    spec = make_spec(n_t=10, n_alpha=4, coefficients={
        "A": 0.0, "B": 1.0, "D": 0.0, "sigma": 0.0, "Q": 0.0, "Qf": 0.0},
        initial_law={"kind": "deterministic", "mean": 1e308})
    sol = solve_spectral(MeanFieldProblem(spec, ZERO))
    with np.errstate(over="ignore"):
        paths = simulate_population(spec, sample_step(ZERO, 2), sol,
                                    SimConfig(M=1, seed=0))
    assert np.all(paths.x == 1e308)


def test_subspace_march_nonfinite_coordinate_named():
    # increments of 1e308 on every agent outside the probes overflow the
    # network-range coordinates in the first step, while the probes'
    # own coordinates, which do not read those agents, stay finite
    from rsgmfg import simulate
    spec = make_spec(n_t=20, n_alpha=40, coefficients={"D": 0.2})
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    gN, sim = sample_step(SIN, 12), SimConfig(M=3, seed=2)
    pop = simulate._population(spec, gN, sol, sim)
    probe = simulate.default_probe_agents(12)
    march = simulate._probe_march(pop, probe)
    draws = simulate._draw_chunk(spec, sim, pop.sim_grid, pop.means,
                                 range(3))
    noise = draws.noise.copy()
    noise[0, 1, np.setdiff1d(np.arange(12), probe)] = 1e308
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            SimulationError,
            match=r"path=1, subspace coordinate=[3-5], step=1$"):
        population_cost_exponents(
            spec, gN, sol, sim, probe,
            shared=(march, march.project(replace(draws, noise=noise))))


def test_factored_probe_run_never_applies_network_coupling(monkeypatch):
    # on a rank-3 network of 12 agents the probe-only runs, alone and in
    # the epsilon-Nash experiment with a deviating agent, march in the
    # subspace and never form the N-agent network average
    from rsgmfg import simulate

    def refuse(self, x, k):
        raise AssertionError("the N-agent coupling was applied")

    spec = make_spec(n_t=60, n_alpha=48, coefficients={"D": 0.2})
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    gN, sim = sample_step(SIN, 12), SimConfig(M=5, seed=4)
    monkeypatch.setattr(simulate._Network, "__call__", refuse)
    probe = np.array([0, 5, 11])
    expo = population_cost_exponents(spec, gN, sol, sim, probe)
    assert expo.shape == (5, 3) and np.all(np.isfinite(expo))
    rep = nash_gap_experiment(spec, SIN, sol, [12], sim, deviate_delta=0.5)
    assert rep.networks[0]["march_dim"] == 6
    with pytest.raises(AssertionError, match="coupling was applied"):
        simulate_population(spec, gN, sol, sim)


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
                                SimConfig(M=20_000, seed=3), alpha)
    est = cost_from_exponents(expo)
    assert abs(est.mean - target) < 3 * est.std_error


def test_limit_cost_exponents_chunk_invariant():
    # single-path chunks must give the bits of one block: each path keeps
    # its own streams whatever the chunking
    spec = make_spec(n_t=50, n_alpha=10, coefficients={"D": 0.2},
                     initial_law={"kind": "gaussian", "mean": 2.0,
                                  "dispersion": 0.1})
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    idx = sol.alpha_index(0.5)
    sim = SimConfig(M=5, seed=7)
    args = (spec, sol.z[idx], sol.S[idx], sol.Pi)
    alpha = float(sol.alphas[idx])
    whole = limit_cost_exponents(*args, sim, alpha)
    tiny = limit_cost_exponents(*args, replace(sim, chunk_doubles=1), alpha)
    assert whole.shape == (5,) and len(np.unique(whole)) == 5
    assert np.array_equal(whole, tiny)


def test_limit_ensemble_records_M_paths_against_frozen_means():
    # path 0 of an M = 2 run is the M = 1 run bit for bit; every agent is
    # coupled to its own mean path z_alpha, exact on the solver nodes
    spec = make_spec(n_t=50, n_alpha=10, coefficients={"D": 0.2},
                     initial_law={"kind": "gaussian", "mean": 2.0,
                                  "dispersion": 0.1})
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    one = limit_ensemble(spec, sol, SimConfig(M=1, seed=4))
    two = limit_ensemble(spec, sol, SimConfig(M=2, seed=4))
    assert two.x.shape == (2, 10, 51, 1)
    for a, b in ((one.x, two.x), (one.u, two.u), (one.xN, two.xN)):
        assert np.array_equal(a[0], b[0])
    assert not np.array_equal(two.x[0], two.x[1])
    assert np.array_equal(two.xN[1], sol.z)
    assert np.array_equal(two.agent_alphas, sol.alphas)


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
                              SimConfig(M=2000, seed=5))
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
                              SimConfig(M=3000, seed=6),
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
                                SimConfig(M=1, seed=12345))
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
                            SimConfig(M=1, seed=0, dt=0.3))


def test_compact_uniform_draws_stay_in_box():
    spec = make_spec(n_t=50, n_alpha=10, coefficients={"D": 0.2},
                     initial_law={"kind": "compact_uniform", "mean": 2.0,
                                  "dispersion": 0.25})
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    gN = sample_step(SIN, 5)
    paths = simulate_population(spec, gN, sol, SimConfig(M=40, seed=8))
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
    from rsgmfg import simulate
    coupling = simulate._network_operator(gN.gN)
    assert coupling.factored and coupling.rank == 3


def test_full_rank_coupling_stays_dense():
    # uniform attachment gives a full-rank network: the coupling runs on
    # the dense weights gN / N
    from rsgmfg import simulate
    g = Graphon.uniform_attachment()
    spec = make_spec(n_t=100, n_alpha=20, coefficients={"D": 0.2})
    sol = solve_spectral(MeanFieldProblem(spec, g))
    gN = sample_step(g, 40)
    paths = simulate_population(spec, gN, sol, SimConfig(M=3, seed=4))
    coupling = simulate._network_operator(gN.gN)
    assert not coupling.factored and coupling.rank == 40
    assert_network_average(gN, paths)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("graphon", ["uniform_attachment", "sinusoidal"])
def test_network_coupling_chunk_invariant_across_groups(graphon, n):
    # 70 paths span several row groups of the coupling's GEMMs; chunks of
    # one path and of 33 paths must reproduce the one-block run bit for bit
    from rsgmfg import simulate
    g = getattr(Graphon, graphon)()
    spec = (make_spec(n_t=40, n_alpha=40, coefficients={"D": 0.2}) if n == 1
            else tabulated_2d_spec())
    sol = solve_spectral(MeanFieldProblem(spec, g))
    gN = sample_step(g, 10)
    assert simulate._network_operator(gN.gN).factored == (
        graphon == "sinusoidal")
    sim = SimConfig(M=70, seed=3)
    whole = simulate_population(spec, gN, sol, sim)
    per_path = spec.grids.n_t * spec.d * gN.N
    for paths_per_chunk in (1, 33):
        chunked = simulate_population(
            spec, gN, sol, replace(sim, chunk_doubles=paths_per_chunk
                                   * per_path))
        assert np.array_equal(whole.x, chunked.x)
        assert np.array_equal(whole.xN, chunked.xN)


@pytest.mark.parametrize("n", [1, 2])
def test_subspace_march_chunk_invariant_across_groups(n):
    # the probe-only march of a factored network: 70 paths span several
    # row groups of its GEMMs; chunks of one path and of 33 paths, with
    # and without a deviating agent, reproduce the one-block run bit for
    # bit
    from rsgmfg import simulate
    spec = (make_spec(n_t=40, n_alpha=40, coefficients={"D": 0.2}) if n == 1
            else tabulated_2d_spec())
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    gN, sim = sample_step(SIN, 10), SimConfig(M=70, seed=3)
    probe = simulate.default_probe_agents(10)
    pop = simulate._population(spec, gN, sol, sim)
    K = pop.sim_grid.n_t
    rng = np.random.default_rng(1)
    march = simulate._probe_march(pop, probe)
    dev = simulate._deviating(march, rng.normal(size=(K + 1, n, n)),
                              rng.normal(size=(K + 1, n)))
    per_path = spec.grids.n_t * spec.d * gN.N
    for m in (march, dev):
        assert len(m.pop.means) == 6

        def run(chunk_doubles):
            block = replace(sim, chunk_doubles=chunk_doubles)
            return np.concatenate([population_cost_exponents(
                spec, gN, sol, replace(block, M=len(paths)), probe,
                shared=(m, m.project(simulate._draw_chunk(
                    spec, block, pop.sim_grid, pop.means, paths))))
                for paths in simulate._chunks(spec, block, pop.sim_grid, 10)])

        whole = run(70 * per_path)
        for paths_per_chunk in (1, 33):
            assert np.array_equal(whole, run(paths_per_chunk * per_path))


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

    for module in (odesolve, control):
        monkeypatch.setattr(module, "solve_riccati_pi_delta", counted)
    N_list = [4, 6, 8, 10]
    sim = SimConfig(M=7, seed=21, chunk_doubles=2500)  # 2-4 chunks
    rep = nash_gap_experiment(spec, SIN, sol, N_list, sim, deviate_delta=0.5)
    assert sorted(calls) == [0.5]   # Pi comes with sol; Pi_delta once
    monkeypatch.undo()

    N = 10
    gN = sample_step(SIN, N)
    run_sim = replace(sim, chunk_doubles=32_000_000)
    probes = simulate.default_probe_agents(N)
    rows = [r for r in rep.rows if r.N == N]
    expo = population_cost_exponents(spec, gN, sol, run_sim, probes)
    for j, row in enumerate(rows):
        assert row.J_hat == cost_from_exponents(expo[:, j])
    alpha = float(rows[0].alpha)
    acp = acp_solve(spec, 0.5, sol.z[[sol.alpha_index(alpha)]],
                    alpha=np.array([alpha]))
    pop = simulate._population(spec, gN, sol, run_sim)
    K_dev, k_dev = simulate._affine_law(spec, pop.sim_grid.t, acp.Pi_delta,
                                        acp.S_delta)
    dev = simulate._deviating(simulate._probe_march(pop, probes), K_dev[0],
                              k_dev[0])
    draws = dev.project(simulate._draw_chunk(spec, run_sim, pop.sim_grid,
                                             pop.means, range(run_sim.M)))
    expo_dev = population_cost_exponents(spec, gN, sol, run_sim, probes,
                                         shared=(dev, draws))
    assert rows[0].deviation_cost == cost_from_exponents(expo_dev[:, 0])


def test_offsets_exact_on_solver_nodes():
    # T = 2.5, n_t = 300: t_k / h lands a few ulps above k at some nodes,
    # where a floor-and-blend resampling returns a blend of two nodes; with
    # dt = h the offset table must be R^-1 B^T S at the nodes, bit for bit
    from rsgmfg.simulate import _population
    spec = make_spec(n_t=300, n_alpha=20, T=2.5, coefficients={"D": 0.2})
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    gN = sample_step(SIN, 5)
    pop = _population(spec, gN, sol, SimConfig(M=1, seed=0))
    idx = [sol.alpha_index(a) for a in (np.arange(5) + 0.5) / 5]
    expected = sol.S[idx] @ spec.coeffs._RinvBt(0.0).T
    assert pop.sim_grid.n_t == spec.grids.n_t
    assert np.array_equal(pop.tables.koff, expected)


def test_gain_tables_equal_per_node_formulas():
    # 2x2 tabulated A, B and R make R^-1 B^T vary in t; dt = h/2 puts every
    # other simulation node between two solver nodes.  The vectorized gain
    # and offset tables equal the per-node products bit for bit
    from rsgmfg import MatrixPath, acp_solve, simulate
    spec = tabulated_2d_spec()
    c = spec.coeffs
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    sim_grid = simulate.sim_time_grid(
        spec, SimConfig(M=1, seed=0, dt=spec.grids.h / 2))
    ts = sim_grid.t
    S = sol.S[[0, 5, 11]]
    tables = simulate._build_tables(spec, sim_grid, sol.Pi, S)
    Pi_t = sol.Pi.at_times(ts)
    S_t = MatrixPath(np.swapaxes(S, 0, 1), sol.grid).at_times(ts)
    acp = acp_solve(spec, 0.5, sol.z[[5]], alpha=np.array([0.5]))
    K_dev, k_dev = simulate._affine_law(spec, ts, acp.Pi_delta, acp.S_delta)
    Pd_t = acp.Pi_delta.at_times(ts)
    Sd_t = MatrixPath(acp.S_delta[0], sol.grid).at_times(ts)
    for k, t in enumerate(ts):
        RinvBt = c._RinvBt(t)
        for a in range(len(S)):
            assert np.array_equal(tables.Kgain[a, k], RinvBt @ Pi_t[k])
        assert np.array_equal(tables.koff[:, k], S_t[k] @ RinvBt.T)
        assert np.array_equal(tables.A[k], c.A(t))
        assert np.array_equal(tables.B[k], c.B(t))
        assert np.array_equal(tables.R[k], c.R(t))
        assert np.array_equal(K_dev[0, k], RinvBt @ Pd_t[k])
        assert np.array_equal(k_dev[0, k], RinvBt @ Sd_t[k])


def test_deviating_population_replaces_only_agent_zero_rows():
    # the deviating march is its parent with agent 0's gain and offset
    # rows replaced, bit for bit, whether every agent marches (N = 5) or
    # the march runs in the 6 coordinates of the probes and the rank-3
    # range (N = 12); it shares the basis, coupling, means, grid and
    # coefficient tables, copies only the march's own rows, and marching
    # both leaves the parent's read-only broadcast gain as it was
    from dataclasses import fields
    from rsgmfg import acp_solve, simulate
    spec = tabulated_2d_spec()
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    sim = SimConfig(M=3, seed=9)
    for N, q in ((5, 5), (12, 6)):
        pop = simulate._population(spec, sample_step(SIN, N), sol, sim)
        march = simulate._probe_march(pop, simulate.default_probe_agents(N))
        assert len(march.pop.means) == q and (march.V is None) == (q == N)
        assert march.rows[0] == 0                 # agent 0's own state
        acp = acp_solve(spec, 0.5, sol.z[[sol.alpha_index(0.5 / N)]],
                        alpha=np.array([0.5 / N]))
        K_dev, k_dev = simulate._affine_law(spec, pop.sim_grid.t,
                                            acp.Pi_delta, acp.S_delta)
        t = march.pop.tables
        gain, koff = np.array(t.Kgain), t.koff.copy()
        dev = simulate._deviating(march, K_dev[0], k_dev[0])
        assert dev.V is march.V and dev.rows is march.rows
        for f in fields(march.pop):
            if f.name != "tables":
                assert getattr(dev.pop, f.name) is getattr(march.pop, f.name)
        for f in fields(t):
            if f.name not in ("Kgain", "koff"):
                assert getattr(dev.pop.tables, f.name) is getattr(t, f.name)
        assert dev.pop.tables.Kgain.shape[0] == q
        assert dev.pop.tables.koff.shape[0] == q
        assert np.array_equal(dev.pop.tables.Kgain[0], K_dev[0])
        assert np.array_equal(dev.pop.tables.koff[0], k_dev[0])
        assert not np.array_equal(dev.pop.tables.Kgain[0], gain[0])
        assert not np.array_equal(dev.pop.tables.koff[0], koff[0])
        assert np.array_equal(dev.pop.tables.Kgain[1:], gain[1:])
        assert np.array_equal(dev.pop.tables.koff[1:], koff[1:])
        draws = simulate._draw_chunk(spec, sim, pop.sim_grid, pop.means,
                                     range(sim.M))
        for m in (march, dev):
            simulate._run_chunk(spec, m.pop, m.project(draws), m.rows,
                                record=False)
        assert not t.Kgain.flags.writeable
        assert t.Kgain.strides[0] == 0            # one gain for all states
        assert np.array_equal(t.Kgain, gain)
        assert np.array_equal(t.koff, koff)


def reference_euler(c, tables, dt, draws, coupling, probe):
    """The Euler march written with one einsum per matrix product, with
    the coefficients ``c`` and each agent's own gain and offset."""
    x = draws.x0
    K = draws.noise.shape[0]
    lam = np.zeros((x.shape[0], len(probe)))
    xs, us, ys = [], [], []

    def quad(v, M):
        return np.einsum("...i,ij,...j->...", v, M, v)

    for k in range(K + 1):
        y = coupling(x, k)
        u = (-np.einsum("aij,paj->pai", tables.Kgain[:, k], x)
             - tables.koff[:, k][None])
        err = x[:, probe] - np.einsum("ij,paj->pai", c.Gamma, y[:, probe])
        lam += ((0.5 * dt if k in (0, K) else dt)
                * (quad(err, tables.Q[k]) + quad(u[:, probe], tables.R[k])))
        xs.append(x)
        us.append(u)
        ys.append(y)
        if k == K:
            term = x[:, probe] - np.einsum("ij,paj->pai", c.Gamma_f,
                                           y[:, probe])
            lam += quad(term, c.Qf)
            break
        drift = (np.einsum("ij,paj->pai", tables.A[k], x)
                 + np.einsum("ij,paj->pai", tables.B[k], u)
                 + np.einsum("ij,paj->pai", tables.D[k], y))
        x = x + drift * dt + np.einsum("ij,paj->pai", tables.sig[k],
                                       draws.noise[k])
    return lam, np.stack(xs, 2), np.stack(us, 2), np.stack(ys, 2)


def test_euler_march_matches_einsum_reference_n2():
    # n = m = d = 2 with time-varying non-symmetric A, B and R, agent 0 of
    # a deviating population on its own affine law: the recorded paths and
    # the cost accumulators equal the per-product einsum march
    from rsgmfg import simulate
    spec = tabulated_2d_spec(kind="gaussian", mean=[1.0, -0.5],
                             dispersion=[[0.1, 0.02], [0.02, 0.05]])
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    N = 6
    sim = SimConfig(M=3, seed=13)
    pop = simulate._population(spec, sample_step(SIN, N), sol, sim)
    draws = simulate._draw_chunk(spec, sim, pop.sim_grid, pop.means,
                                 range(3))
    rng = np.random.default_rng(0)
    K = pop.sim_grid.n_t
    probe = np.array([0, 2, 5])
    dev = simulate._deviating(simulate._probe_march(pop, probe),
                              rng.normal(size=(K + 1, 2, 2)),
                              rng.normal(size=(K + 1, 2)))
    assert dev.V is None
    got = simulate._run_chunk(spec, dev.pop, draws, probe, record=True)
    want = reference_euler(spec.coeffs, dev.pop.tables, pop.sim_grid.h,
                           draws, pop.coupling, probe)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))
    # 12 agents on the rank-3 network, agent 0 deviating as above: the
    # probe-only run marches in the 6 coordinates of the probes and the
    # network's range, and its cost accumulators equal the reference's
    N = 12
    gN = sample_step(SIN, N)
    pop = simulate._population(spec, gN, sol, sim)
    draws = simulate._draw_chunk(spec, sim, pop.sim_grid, pop.means,
                                 range(3))
    rng = np.random.default_rng(0)
    K_dev, k_dev = rng.normal(size=(K + 1, 2, 2)), rng.normal(size=(K + 1, 2))
    probe = np.array([0, 5, 11])
    # the same deviation in the subspace march and with every agent
    dev = simulate._deviating(simulate._probe_march(pop, probe), K_dev, k_dev)
    full = simulate._deviating(simulate._ProbeMarch(pop, probe), K_dev, k_dev)
    assert pop.coupling.factored and pop.coupling.rank == 3
    assert len(dev.pop.means) == 6
    got = population_cost_exponents(spec, gN, sol, sim, probe,
                                    shared=(dev, dev.project(draws)))
    want = spec.gamma * reference_euler(spec.coeffs, full.pop.tables,
                                        pop.sim_grid.h, draws, pop.coupling,
                                        probe)[0]
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("chunk_doubles", [32_000_000, 1])
def test_draws_are_step_major_philox_increments(chunk_doubles):
    # path p's increments are stream 2p+1 drawn agent-major and scaled by
    # sqrt(h), stored step-major: noise[:, j] is that block, axes 0, 1
    # swapped, whatever the chunking
    from rsgmfg import simulate
    spec = tabulated_2d_spec()
    N, seed = 5, 17
    sim = SimConfig(M=3, seed=seed, chunk_doubles=chunk_doubles)
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


def test_nash_gap_draws_each_path_noise_once(monkeypatch):
    # the increments (stream 2p+1) of every path are drawn once, at the
    # largest N, over several chunks; the initial states (stream 2p) once
    # per N, from that N's midpoint means
    from rsgmfg import simulate
    spec = make_spec(n_t=50, n_alpha=40, coefficients={"D": 0.2},
                     initial_law={"kind": "gaussian", "mean": 2.0,
                                  "dispersion": 0.1})
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    stream, ids = simulate._stream, []

    def counted(seed, stream_id):
        ids.append(stream_id)
        return stream(seed, stream_id)

    monkeypatch.setattr(simulate, "_stream", counted)
    N_list, M = [4, 10, 6], 7
    sim = SimConfig(M=M, seed=3, chunk_doubles=1500)   # 3 paths a chunk
    assert len(list(simulate._chunks(spec, sim, simulate.sim_time_grid(
        spec, sim), max(N_list)))) == 3
    nash_gap_experiment(spec, SIN, sol, N_list, sim, deviate_delta=0.5)
    assert sorted(i for i in ids if i % 2) == [2 * p + 1 for p in range(M)]
    assert sorted(i for i in ids if i % 2 == 0) == sorted(
        2 * p for p in range(M) for _ in N_list)


def test_nash_gap_projects_each_chunk_once_per_N(monkeypatch):
    # with a deviation on factored networks, each N's basis is built once,
    # and the decentralized and the deviating runs of an N march over one
    # projection of each chunk's draws: K + 1 products onto that N's
    # basis (the increments of each step and the initial states) per
    # chunk and N
    from rsgmfg import simulate
    spec = make_spec(n_t=60, n_alpha=48, coefficients={"D": 0.2})
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    row_product, agents = simulate._row_product, []
    qr, bases = np.linalg.qr, []

    def counted(x, factors):
        if len(factors) == 1 and factors[0].shape[0] > factors[0].shape[1]:
            agents.append(x.shape[1])            # onto a basis (N, q < N)
        return row_product(x, factors)

    def counted_qr(a, *args, **kwargs):
        bases.append(a.shape)
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(simulate, "_row_product", counted)
    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    N_list = [10, 12]
    sim = SimConfig(M=7, seed=21, chunk_doubles=2160)  # 3 paths a chunk
    assert len(list(simulate._chunks(spec, sim, simulate.sim_time_grid(
        spec, sim), max(N_list)))) == 3
    rep = nash_gap_experiment(spec, SIN, sol, N_list, sim, deviate_delta=0.5)
    assert len(bases) == len(N_list)
    assert sorted(agents) == sorted(N_list * 3 * (spec.grids.n_t + 1))
    assert [(n["factored"], n["march_dim"]) for n in rep.networks] == [
        (True, 6), (True, 6)]


@pytest.mark.parametrize("N", [4, 12])
def test_probe_agents_outside_population_rejected(N):
    # N = 4 marches every agent, N = 12 in the subspace; an index past the
    # last agent or a negative one is refused with the agent named
    from rsgmfg import ConfigError
    spec = make_spec(n_t=20, n_alpha=48, coefficients={"D": 0.2})
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    gN, sim = sample_step(SIN, N), SimConfig(M=2, seed=1)
    for bad in (N, -1):
        with pytest.raises(ConfigError, match=f"probe agent {bad} is outside"):
            population_cost_exponents(spec, gN, sol, sim, np.array([0, bad]))


def test_nash_gap_rows_follow_N_list_and_match_single_runs():
    # unsorted sizes: rows come in N_list order, and each N's rows equal
    # those of a run with that N alone, bit for bit; a repeated size would
    # march the same paths twice and is refused
    from rsgmfg import ConfigError
    spec = make_spec(n_t=60, n_alpha=40, coefficients={"D": 0.2},
                     initial_law={"kind": "gaussian", "mean": 2.0,
                                  "dispersion": 0.1})
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    sim = SimConfig(M=6, seed=8, chunk_doubles=1200)  # 2 paths a chunk
    with pytest.raises(ConfigError, match="repeats"):
        nash_gap_experiment(spec, SIN, sol, [10, 4, 8, 4], sim)
    N_list = [10, 4, 8]
    rep = nash_gap_experiment(spec, SIN, sol, N_list, sim, deviate_delta=0.5)
    alone = {N: nash_gap_experiment(spec, SIN, sol, [N], sim,
                                    deviate_delta=0.5).rows
             for N in set(N_list)}
    start = 0
    for N in N_list:
        rows = rep.rows[start:start + len(alone[N])]
        assert [r.N for r in rows] == [N] * len(rows)
        assert rows == alone[N]
        assert rows[0].deviation_cost is not None
        start += len(rows)
    assert start == len(rep.rows)
