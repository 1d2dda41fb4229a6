import re
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest

from rsgmfg import (Graphon, MeanFieldProblem, SimConfig, SimulationError,
                    approximation_errors, closed_form_cost,
                    cost_from_exponents, estimate_cost, lambda_from_paths,
                    limit_cost_exponents, limit_ensemble, nash_gap_experiment,
                    population_cost_exponents, sample_step,
                    simulate_population, solve_riccati_pi, solve_spectral)

from conftest import make_spec, tabulated_2d_spec

SIN = Graphon.sinusoidal()
UA = Graphon.uniform_attachment()       # full rank: probes march the modes
ZERO = Graphon.constant(0.0)


def small_run(seed=42, M=6, N=5, n_t=100, **overrides):
    spec = make_spec(n_t=n_t, n_alpha=20, coefficients={"D": 0.2},
                     **overrides)
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    gN = sample_step(SIN, N)
    sim = SimConfig(M=M, seed=seed)
    return spec, sol, gN, sim


Draws = namedtuple("Draws", "paths x0 noise")


def agent_draws(spec, sim, pop, paths):
    """Every agent's initial states and increments of a path block, drawn
    as the chunk loop draws them for a march of every agent."""
    from rsgmfg import simulate
    N = len(pop.means)
    fac = simulate._covariance_factor(spec.initial)
    return Draws(
        paths, simulate._initial_states(spec.initial, fac, pop.means,
                                        sim.seed, paths),
        simulate._increments(sim.seed, pop.sim_grid, spec.d, paths,
                             n_agents=N))


def lift(V, xi, eta):
    """dW = V xi + (I - V V^T) eta over (K, P, ., d) blocks: for independent
    N(0, h I) draws xi of the q coordinates and eta of the N agents, dW is
    exactly N(0, h I_N) per step, and V^T dW = xi to rounding."""
    return eta + np.einsum("nq,kpqd->kpnd", V,
                           xi - np.einsum("nq,kpnd->kpqd", V, eta))


def coordinate_basis(march):
    """The orthonormal basis V (N, q) of a march on an invariant subspace,
    whose coordinate increments V^T dW its keys draw: V = U Q^T for its
    modes U = V Q."""
    return march.V @ march.modes.rotation.T


def lifted_draws(spec, sim, pop, march, paths):
    """agent_draws with the increments replaced by the lift of ``march``'s
    coordinate increments, the agent-level draw serving as eta."""
    from rsgmfg import simulate
    draws = agent_draws(spec, sim, pop, paths)
    xi = simulate._increments(sim.seed, pop.sim_grid, spec.d, paths,
                              march.keys)
    return draws._replace(noise=lift(coordinate_basis(march), xi,
                                     draws.noise))


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


@pytest.mark.blas_kernels
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
    """xN is gN x / N: each path's coupling computed alone, by the single
    coupling block W, equals the one recorded inside its block bit for
    bit, and agrees with the dense product to 1e-14 relative."""
    from rsgmfg import simulate
    coupling = simulate._Subspace([simulate._Network(gN.gN).W.T])
    for k in range(paths.x.shape[2]) if steps is None else steps:
        x, xN = paths.x[:, :, k], paths.xN[:, :, k]
        for p in range(len(x)):
            assert np.array_equal(coupling(x[p:p + 1], k), xN[p:p + 1])
        dense = np.matmul(gN.gN, x) / gN.N
        assert np.max(np.abs(xN - dense)) <= 1e-14 * np.max(np.abs(dense))


@pytest.mark.blas_kernels
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


def test_cost_estimate_finite_up_to_its_bound():
    # exponents up to 700 pass the bound, and every field is finite: the
    # sums of exp(L) would overflow, those of the max-shifted weights do
    # not
    import math
    flat = cost_from_exponents(np.full(20000, 700.0))
    assert flat.mean == math.exp(700.0)
    assert flat.std_error == 0.0 and flat.tail_share == 0.01
    two = cost_from_exponents(np.array([400.0, 0.0]))
    assert two.mean == pytest.approx(0.5 * math.exp(400.0), rel=1e-15)
    assert two.std_error == pytest.approx(0.5 * math.exp(400.0), rel=1e-15)


def test_cost_pathwise_monotone_in_state_weight():
    # doubling Q dominates the running integrand on every recorded path
    spec1, sol1, gN, sim = small_run(M=16)
    paths = simulate_population(spec1, gN, sol1, sim)
    spec2 = make_spec(n_t=100, n_alpha=20,
                      coefficients={"D": 0.2, "Q": 0.6})
    lam1 = lambda_from_paths(spec1, paths, 1)
    lam2 = lambda_from_paths(spec2, paths, 1)
    assert np.all(lam2 >= lam1 - 1e-12)


def stiff_run(N, graphon, n_alpha=4):
    """Stiff stable drift: the exact flow decays but the explicit Euler
    step multiplies by (1 + A dt) = -49 each step and overflows mid-run;
    N agents on ``graphon``."""
    spec = make_spec(n_t=200, n_alpha=n_alpha, coefficients={
        "A": -1e4, "B": 1.0, "D": 0.0, "sigma": 0.0, "Q": 0.0, "Qf": 0.0},
        initial_law={"kind": "deterministic", "mean": 1.0})
    from rsgmfg.gmfg import MeanFieldSolution
    K = spec.grids.n_t
    zeros = np.zeros((n_alpha, K + 1, 1))
    sol = MeanFieldSolution(z=zeros, S=zeros, r=zeros[..., 0],
                            method="manual", alphas=spec.grids.alpha,
                            grid=spec.grids, Pi=solve_riccati_pi(spec))
    return spec, sol, sample_step(graphon, N)


def missing_network(N=6):
    """The step network 0.5 + 5e-9 v v^T in W = gN / N, v a unit vector
    orthogonal to the ones: its eigenvalue 5e-9 falls under the 1e-8 rank
    cut, so its rank-1 factor misses W by far more than 1e-12 max|W|."""
    v = np.cos(np.pi * (np.arange(N) + 0.5) / N)
    v /= np.linalg.norm(v)
    return Graphon.step(0.5 * np.ones((N, N)) + N * 5e-9 * np.outer(v, v))


def test_nonfinite_state_names_location():
    spec, sol, gN = stiff_run(2, ZERO)
    with np.errstate(over="ignore"), \
            pytest.raises(SimulationError, match=r"path=\d+, agent=\d+"):
        simulate_population(spec, gN, sol, SimConfig(M=2, seed=3))


@pytest.mark.blas_kernels
def test_subspace_march_nonfinite_state_names_location():
    # the stiff spec on low-rank networks of 12 agents, probed at agents
    # 0, 5 and 11, whose probes march the q modes of the invariant
    # subspace.  On the rank-0 network the modes are the probes' own
    # states; on the rank-3 network a mode mixes in the range, a sum over
    # the other agents' states.  Either march names its block, the path,
    # the first mode to overflow and the step, within a step of where the
    # every-agent march fails (a mode steps by M_k(lambda) formed first);
    # the standalone probe run fails alike, without a block name
    from rsgmfg import simulate
    sim = SimConfig(M=2, seed=3)
    probe = simulate.default_probe_agents(12)
    for graphon, q in ((ZERO, 3), (SIN, 6)):
        spec, sol, gN = stiff_run(12, graphon)
        pop = simulate._population(spec, gN, sol, sim)
        assert pop.network.rank == q - 3
        march = replace(simulate._probe_march(pop, probe), name="N=12")
        assert march.route == "subspace" and march.V.shape[1] == q
        every_agent = replace(pop, rows=probe)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SimulationError) as full:
                simulate._march(spec, sim, [every_agent])
            with pytest.raises(SimulationError) as sub:
                simulate._march(spec, sim, [march])
            with pytest.raises(SimulationError) as alone:
                population_cost_exponents(spec, gN, sol, sim, probe)
        found = re.fullmatch(r"non-finite state at path=0, N=12, "
                             r"mode=(\d+), step=(\d+)", str(sub.value))
        assert found and int(found[1]) < q
        assert str(full.value).startswith("non-finite state at path=0, "
                                          "agent=")
        assert abs(int(found[2]) - int(str(full.value).rsplit("=", 1)[1])) <= 1
        assert str(alone.value) == str(sub.value).replace("N=12, ", "")


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


@pytest.mark.blas_kernels
def test_subspace_march_nonfinite_coordinate_named():
    # increments of 1e308 on every agent outside the probes of path 1
    # overflow the network-range coordinates V^T dW in the first step, and
    # with them the modes that mix them in: the march names its block,
    # path 1, a mode of the 6 and step 1
    from rsgmfg import simulate
    spec = make_spec(n_t=20, n_alpha=40, coefficients={"D": 0.2})
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    gN, sim = sample_step(SIN, 12), SimConfig(M=3, seed=2)
    pop = simulate._population(spec, gN, sol, sim)
    probe = simulate.default_probe_agents(12)
    march = replace(simulate._probe_march(pop, probe), name="N=12")
    draws = agent_draws(spec, sim, pop, range(3))
    noise = draws.noise.copy()
    noise[0, 1, np.setdiff1d(np.arange(12), probe)] = 1e308
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            SimulationError, match=r"path=1, N=12, mode=[0-5], step=1$"):
        simulate._run_modal(spec, [march], draws.paths,
                            simulate._row_product(draws.x0, march.V),
                            np.matmul(coordinate_basis(march).T, noise),
                            slice(None))


@pytest.mark.blas_kernels
def test_factored_probe_run_never_applies_network_coupling(monkeypatch):
    # on a rank-3 network of 12 agents the probe-only runs, alone and in
    # the epsilon-Nash experiment with a deviating agent, march in the
    # subspace and never form the N-agent network average, the 12 x 12
    # coupling block of all 12 agents
    from rsgmfg import simulate
    call = simulate._Subspace.__call__

    def refuse(self, x, k=None):
        if any(f.shape[-2:] == (12, 12) for _, f in self._runs):
            raise AssertionError("the N-agent coupling was applied")
        return call(self, x, k)

    spec = make_spec(n_t=60, n_alpha=48, coefficients={"D": 0.2})
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    gN, sim = sample_step(SIN, 12), SimConfig(M=5, seed=4)
    monkeypatch.setattr(simulate._Subspace, "__call__", refuse)
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


@pytest.mark.blas_kernels
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


def test_approximation_errors_eps2_matches_dense_nearest_lookup():
    # eps2 looks up the fine node nearest each point by bisection; it
    # equals, bit for bit, the lookup by the argmin of a (points, nodes)
    # distance matrix, the lower node on a tie (the cell edges k / N fall
    # halfway between two nodes when n_alpha / N is even)
    for n_alpha, N_list in ((40, (1, 3, 10)), (200, (7, 25, 50))):
        spec = make_spec(n_t=50, n_alpha=n_alpha, coefficients={"D": 0.2})
        sol = solve_spectral(MeanFieldProblem(spec, SIN))
        for N in N_list:
            mids = (np.arange(N) + 0.5) / N
            points = np.unique(np.concatenate([sol.alphas,
                                               np.arange(N + 1) / N]))
            cell = np.clip(np.ceil(points * N).astype(int) - 1, 0, N - 1)

            def nearest(v):
                return np.argmin(np.abs(v[:, None] - sol.alphas[None, :]),
                                 axis=1)

            want = np.max(np.abs(sol.z[nearest(mids)][cell]
                                 - sol.z[nearest(points)]))
            got = approximation_errors(sol, sample_step(SIN, N), SIN, spec)
            assert got.eps2 == want


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


def test_population_cost_exponents_match_recorded_paths(monkeypatch):
    # N = 5 on the rank-3 network: the probe run marches the 5 modes on
    # stream 2p+1 read as U^T dW, so the recorded run of every agent
    # takes the lifted draw dW = U xi
    from rsgmfg import simulate
    spec, sol, gN, sim = small_run(M=10)
    pop = simulate._population(spec, gN, sol, sim)
    U = simulate._probe_march(pop, np.array([2])).V
    increments = simulate._increments
    monkeypatch.setattr(simulate, "_increments", lambda *args: np.einsum(
        "nl,kpld->kpnd", U, increments(*args)))
    paths = simulate_population(spec, gN, sol, sim)
    monkeypatch.undo()
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


@pytest.mark.blas_kernels
@pytest.mark.parametrize("N", [25, 200])
def test_low_rank_coupling_matches_dense_product(N):
    # the sampled sinusoidal network has rank 3, so 2r < N and its probes
    # march in the subspace; a recorded run of every agent couples through
    # the dense weights and must reproduce gN x / N
    spec, sol, gN, sim = small_run(N=N, M=3)
    paths = simulate_population(spec, gN, sol, sim)
    dense = np.stack([np.matmul(gN.gN, paths.x[:, :, k]) / N
                      for k in range(paths.x.shape[2])], axis=2)
    scale = float(np.max(np.abs(paths.x)))
    assert np.max(np.abs(paths.xN - dense)) <= 1e-12 * scale
    from rsgmfg import simulate
    pop = simulate._population(spec, gN, sol, sim)
    assert pop.network.rank == 3
    assert simulate._probe_march(pop, np.array([0])).V is not None


@pytest.mark.blas_kernels
def test_full_rank_coupling_stays_dense():
    # uniform attachment gives a full-rank network: a recorded run couples
    # through the dense weights gN / N, while even one probe marches in
    # the network's N eigenmodes
    from rsgmfg import simulate
    g = Graphon.uniform_attachment()
    spec = make_spec(n_t=100, n_alpha=20, coefficients={"D": 0.2})
    sol = solve_spectral(MeanFieldProblem(spec, g))
    gN = sample_step(g, 40)
    sim = SimConfig(M=3, seed=4)
    paths = simulate_population(spec, gN, sol, sim)
    pop = simulate._population(spec, gN, sol, sim)
    assert pop.network.rank == 40
    assert simulate._probe_march(pop, np.array([0])).route == "modal"
    assert_network_average(gN, paths)


@pytest.mark.blas_kernels
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
    sim = SimConfig(M=70, seed=3)
    pop = simulate._population(spec, gN, sol, sim)
    assert pop.network.rank == (3 if graphon == "sinusoidal" else 10)
    whole = simulate_population(spec, gN, sol, sim)
    per_path = spec.grids.n_t * spec.d * gN.N
    for paths_per_chunk in (1, 33):
        chunked = simulate_population(
            spec, gN, sol, replace(sim, chunk_doubles=paths_per_chunk
                                   * per_path))
        assert np.array_equal(whole.x, chunked.x)
        assert np.array_equal(whole.xN, chunked.xN)


@pytest.mark.blas_kernels
@pytest.mark.parametrize("n", [1, 2])
def test_subspace_march_chunk_invariant_across_groups(n):
    # the probe-only march of a low-rank network and its deviating copy,
    # marched as two scenarios of one run: 70 paths span several row
    # groups of its GEMMs; chunks of one path and of 33 paths reproduce
    # the one-block run bit for bit
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
    assert march.V.shape[1] == dev.V.shape[1] == 6
    per_path = spec.grids.n_t * spec.d * gN.N

    def run(paths_per_chunk):
        block = replace(sim, chunk_doubles=paths_per_chunk * per_path)
        return simulate._march(spec, block, [march, dev])

    whole = run(70)
    for paths_per_chunk in (1, 33):
        assert np.array_equal(whole, run(paths_per_chunk))


@pytest.mark.blas_kernels
@pytest.mark.parametrize("N", [4, 10])
def test_probe_cost_chunk_invariant_n2_few_probes(N):
    # n = 2 with one or two probes, in the modes (N = 4) or in the
    # subspace (N = 10): the cost accumulators of 1-path chunks equal the
    # one-block run bit for bit (the quadratic forms are elementwise)
    from rsgmfg import simulate
    spec = tabulated_2d_spec()
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    gN, sim = sample_step(SIN, N), SimConfig(M=70, seed=3)
    pop = simulate._population(spec, gN, sol, sim)
    for probe in (np.array([0]), np.array([0, N // 2])):
        assert simulate._probe_march(pop, probe).route == (
            "modal" if N == 4 else "subspace")
        whole = population_cost_exponents(spec, gN, sol, sim, probe)
        tiny = population_cost_exponents(
            spec, gN, sol, replace(sim, chunk_doubles=1), probe)
        assert np.array_equal(whole, tiny)


@pytest.mark.blas_kernels
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


@pytest.mark.blas_kernels
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
    expo_dev = simulate._march(spec, run_sim, [dev])[0]
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
    # and offset tables equal the per-node products bit for bit, each
    # agent's offsets R^-1 B^T s the per-agent product summed in column
    # order
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

    def product(M, v):
        return sum((M[:, j] * v[j] for j in range(1, len(v))), M[:, 0] * v[0])

    for k, t in enumerate(ts):
        RinvBt = c._RinvBt(t)
        for a in range(len(S)):
            assert np.array_equal(tables.Kgain[a, k], RinvBt @ Pi_t[k])
            assert np.array_equal(tables.koff[a, k], product(RinvBt,
                                                             S_t[k, a]))
        assert np.array_equal(tables.A[k], c.A(t))
        assert np.array_equal(tables.B[k], c.B(t))
        assert np.array_equal(tables.R[k], c.R(t))
        assert np.array_equal(K_dev[0, k], RinvBt @ Pd_t[k])
        assert np.array_equal(k_dev[0, k], product(RinvBt, Sd_t[k]))


@pytest.mark.blas_kernels
def test_affine_law_offsets_independent_of_agent_stack():
    # n = 2: each agent's offsets R^-1 B^T s have the same bits whether its
    # offset path is tabulated alone or in a stack of four agents (one
    # batched GEMM over the stack changed them with the stack's size)
    from rsgmfg import simulate
    spec = tabulated_2d_spec()
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    ts = simulate.sim_time_grid(spec, SimConfig(M=1, seed=0)).t
    S = sol.S[[0, 3, 7, 11]]
    stack = simulate._affine_law(spec, ts, sol.Pi, S)[1]
    assert stack.shape == (4, len(ts), 2)
    for a in range(4):
        alone = simulate._affine_law(spec, ts, sol.Pi, S[a:a + 1])[1]
        assert np.array_equal(alone[0], stack[a])


def test_deviating_population_replaces_only_agent_zero_rows():
    # the deviating march of every agent (N = 5) is its parent with agent
    # 0's gain and offset rows replaced, bit for bit; it shares the basis,
    # coupling, means, grid and coefficient tables, copies only the N
    # rows, and marching both leaves the parent's read-only broadcast gain
    # as it was.  The probes of N = 5 march the network's 5 modes, and
    # those of N = 12 the 6 modes of the invariant subspace of the probes
    # and the rank-3 range: that deviating march shares its parent's
    # population, tables, basis and modes, and keeps only agent 0's law
    # beside them
    from dataclasses import fields
    from rsgmfg import acp_solve, simulate
    spec = tabulated_2d_spec()
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    sim = SimConfig(M=3, seed=9)
    for N, q in ((5, 5), (12, 6)):
        pop = simulate._population(spec, sample_step(SIN, N), sol, sim)
        probe = simulate.default_probe_agents(N)
        acp = acp_solve(spec, 0.5, sol.z[[sol.alpha_index(0.5 / N)]],
                        alpha=np.array([0.5 / N]))
        K_dev, k_dev = simulate._affine_law(spec, pop.sim_grid.t,
                                            acp.Pi_delta, acp.S_delta)
        t = pop.tables
        gain, koff = np.array(t.Kgain), t.koff.copy()
        if N == 5:
            march = replace(pop, rows=probe)
            assert march.V is None
            assert march.rows[0] == 0             # agent 0's own state
            dev = simulate._deviating(march, K_dev[0], k_dev[0])
            assert dev.V is march.V and dev.rows is march.rows
            for f in fields(march):
                if f.name != "tables":
                    assert getattr(dev, f.name) is getattr(march, f.name)
            for f in fields(t):
                if f.name not in ("Kgain", "koff"):
                    assert getattr(dev.tables, f.name) is getattr(t, f.name)
            assert dev.tables.Kgain.shape[0] == N
            assert dev.tables.koff.shape[0] == N
            assert np.array_equal(dev.tables.Kgain[0], K_dev[0])
            assert np.array_equal(dev.tables.koff[0], k_dev[0])
            assert not np.array_equal(dev.tables.Kgain[0], gain[0])
            assert not np.array_equal(dev.tables.koff[0], koff[0])
            assert np.array_equal(dev.tables.Kgain[1:], gain[1:])
            assert np.array_equal(dev.tables.koff[1:], koff[1:])
            simulate._march(spec, sim, [march, dev])
            assert not t.Kgain.flags.writeable
            assert t.Kgain.strides[0] == 0        # one gain for all states
            assert np.array_equal(t.Kgain, gain)
            assert np.array_equal(t.koff, koff)
        modal = simulate._probe_march(pop, probe)
        dev = simulate._deviating(modal, K_dev[0], k_dev[0])
        assert modal.route == dev.route == ("modal" if q == N
                                            else "subspace")
        assert modal.V.shape[1] == q and modal.rows[0] == 0
        assert dev.tables is modal.tables and dev.means is modal.means
        assert dev.V is modal.V
        assert dev.rows is modal.rows
        assert dev.modes.lam is modal.modes.lam
        assert dev.modes.offsets is modal.modes.offsets
        assert dev.modes.rotation is modal.modes.rotation
        assert modal.modes.dev is None
        for held, law in zip(dev.modes.dev, (K_dev, k_dev)):
            assert np.array_equal(held, law[0])
            assert np.shares_memory(held, law)    # no copy
        simulate._march(spec, sim, [modal, dev])
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


@pytest.mark.blas_kernels
def test_euler_march_matches_einsum_reference_n2():
    # n = m = d = 2 with time-varying non-symmetric A, B and R, agent 0 of
    # a deviating population of every agent on its own affine law: the
    # recorded paths and the cost accumulators equal the per-product
    # einsum march
    from rsgmfg import simulate
    spec = tabulated_2d_spec(kind="gaussian", mean=[1.0, -0.5],
                             dispersion=[[0.1, 0.02], [0.02, 0.05]])
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    N = 6
    sim = SimConfig(M=3, seed=13)
    pop = simulate._population(spec, sample_step(SIN, N), sol, sim)
    draws = agent_draws(spec, sim, pop, range(3))
    rng = np.random.default_rng(0)
    K = pop.sim_grid.n_t
    probe = np.array([0, 2, 5])
    dev = simulate._deviating(replace(pop, rows=probe),
                              rng.normal(size=(K + 1, 2, 2)),
                              rng.normal(size=(K + 1, 2)))
    assert dev.V is None
    got = ([simulate._march(spec, sim, [dev])[0]]
           + list(simulate._march(spec, sim, [dev], record=True)))
    want = reference_euler(spec.coeffs, dev.tables, pop.sim_grid.h,
                           draws, simulate._Subspace([pop.network.W.T]),
                           probe)
    want = (spec.gamma * want[0],) + want[1:]
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))
    # 12 agents on the rank-3 network, agent 0 deviating as above: the
    # probe-only run marches the 6 modes of the invariant subspace of the
    # probes and the network's range on its coordinates' own increments,
    # and its cost accumulators equal the reference's on the lift of those
    # increments to every agent
    N = 12
    gN = sample_step(SIN, N)
    pop = simulate._population(spec, gN, sol, sim)
    rng = np.random.default_rng(0)
    K_dev, k_dev = rng.normal(size=(K + 1, 2, 2)), rng.normal(size=(K + 1, 2))
    probe = np.array([0, 5, 11])
    # the same deviation in the subspace march and with every agent
    dev = simulate._deviating(simulate._probe_march(pop, probe), K_dev, k_dev)
    full = simulate._deviating(replace(pop, rows=probe), K_dev, k_dev)
    assert pop.network.rank == 3
    assert dev.route == "subspace" and dev.V.shape[1] == 6
    draws = lifted_draws(spec, sim, pop, dev, range(3))
    got = simulate._march(spec, sim, [dev])[0]
    want = spec.gamma * reference_euler(
        spec.coeffs, full.tables, pop.sim_grid.h, draws,
        simulate._Subspace([pop.network.W.T]), probe)[0]
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
    chunks = list(simulate._chunks(spec, sim, grid, N))
    assert len(chunks) == (1 if chunk_doubles > 1 else 3)
    for paths in chunks:
        noise = simulate._increments(seed, grid, spec.d, paths,
                                     n_agents=N)
        assert noise.shape == (grid.n_t, len(paths), N, spec.d)
        for j, p in enumerate(paths):
            gen = np.random.Generator(np.random.Philox(
                key=np.array([seed, 2 * p + 1], dtype=np.uint64)))
            block = np.sqrt(grid.h) * gen.standard_normal((N, grid.n_t,
                                                           spec.d))
            assert np.array_equal(noise[:, j], np.swapaxes(block, 0, 1))


def test_nash_gap_draws_each_path_noise_once(monkeypatch):
    # over several chunks, every path draws its agent-level increments
    # (stream 2p+1) once, for the largest dense N (6), each coordinate key
    # of the subspace N (10) once, and its initial states (stream 2p) once
    # per N, from that N's midpoint means
    from rsgmfg import simulate
    spec = make_spec(n_t=50, n_alpha=40, coefficients={"D": 0.2},
                     initial_law={"kind": "gaussian", "mean": 2.0,
                                  "dispersion": 0.1})
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    stream, ids = simulate._stream, []
    increments, drawn = simulate._increments, []

    def counted(seed, stream_id, key=None):
        ids.append((stream_id, key))
        return stream(seed, stream_id, key)

    def counted_increments(*args):
        drawn.append(args[4:])
        return increments(*args)

    monkeypatch.setattr(simulate, "_stream", counted)
    monkeypatch.setattr(simulate, "_increments", counted_increments)
    N_list, M = [4, 10, 6], 7
    sim = SimConfig(M=M, seed=3, chunk_doubles=1500)   # 3 paths a chunk
    assert len(list(simulate._chunks(spec, sim, simulate.sim_time_grid(
        spec, sim), max(N_list)))) == 3
    rep = nash_gap_experiment(spec, SIN, sol, N_list, sim, deviate_delta=0.5)
    assert [n["march_dim"] for n in rep.networks] == [4, 6, 6]
    keys = [(1, 0), (1, 4), (1, 9), (2, 0), (2, 1), (2, 2)]
    assert drawn == [(tuple(keys), 6)] * 3
    assert sorted(i for i, key in ids if i % 2 and key is None) == [
        2 * p + 1 for p in range(M)]
    assert sorted((i, key) for i, key in ids if key is not None) == sorted(
        (2 * p + 1, key) for p in range(M) for key in keys)
    assert sorted(i for i, _ in ids if i % 2 == 0) == sorted(
        2 * p for p in range(M) for _ in N_list)


def test_nash_gap_projects_each_chunk_once_per_N(monkeypatch):
    # with a deviation on low-rank networks, each N's basis is built once;
    # each chunk draws every distinct coordinate key of the N once, in one
    # _increments call that draws no agent, projects each N's initial
    # states once, and marches both scenarios of every N in one stacked
    # modal march, no march of every agent
    from rsgmfg import simulate
    spec = make_spec(n_t=60, n_alpha=48, coefficients={"D": 0.2})
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    row_product, agents = simulate._row_product, []
    qr, bases = np.linalg.qr, []
    increments, draws = simulate._increments, []
    run_modal, marched = simulate._run_modal, []

    def counted(x, f):
        if f.ndim == 2 and f.shape[0] > f.shape[1]:
            agents.append(x.shape[1])            # onto a basis (N, q < N)
        return row_product(x, f)

    def counted_qr(a, *args, **kwargs):
        bases.append(a.shape)
        return qr(a, *args, **kwargs)

    def counted_increments(*args):
        draws.append(args[4:])
        return increments(*args)

    def counted_run(spec, blocks, *args):
        marched.append(sum(b.V.shape[1] for b in blocks))
        return run_modal(spec, blocks, *args)

    def refused(*args, **kwargs):
        raise AssertionError("a march of every agent ran")

    monkeypatch.setattr(simulate, "_row_product", counted)
    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    monkeypatch.setattr(simulate, "_increments", counted_increments)
    monkeypatch.setattr(simulate, "_run_modal", counted_run)
    monkeypatch.setattr(simulate, "_run_chunk", refused)
    N_list = [10, 12]
    sim = SimConfig(M=7, seed=21, chunk_doubles=2160)  # 3 paths a chunk
    assert len(list(simulate._chunks(spec, sim, simulate.sim_time_grid(
        spec, sim), max(N_list)))) == 3
    rep = nash_gap_experiment(spec, SIN, sol, N_list, sim, deviate_delta=0.5)
    assert len(bases) == len(N_list)
    assert sorted(agents) == sorted(N_list * 3)
    keys = ((1, 0), (1, 4), (1, 9), (2, 0), (2, 1), (2, 2), (1, 5), (1, 11))
    assert draws == [(keys, 0)] * 3
    assert marched == [2 * 6 * len(N_list)] * 3
    assert [(n["factored"], n["march_dim"]) for n in rep.networks] == [
        (True, 6), (True, 6)]


def test_nash_gap_chunk_makes_one_readout_per_step(monkeypatch):
    # each deviating copy reads its parent's three probes, so every keyed
    # block's readout factor is (6, 6) and the stacked readout is one
    # product: one chunk of the experiment on two low-rank networks makes
    # K + 1 readout products, K rotations of the coordinate increments
    # and one projection of the initial states per N
    from collections import Counter
    from rsgmfg import simulate
    spec = make_spec(n_t=60, n_alpha=48, coefficients={"D": 0.2})
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    row_product, stacks, projections = simulate._row_product, Counter(), []

    def counted(x, f):
        if f.ndim == 2:
            projections.append(f.shape)          # onto a basis (N, q)
        else:
            stacks[id(f)] += 1                  # a _Subspace run
            assert f.shape == (4, 1, 6, 6)
        return row_product(x, f)

    monkeypatch.setattr(simulate, "_row_product", counted)
    N_list, K = [10, 12], spec.grids.n_t
    rep = nash_gap_experiment(spec, SIN, sol, N_list, SimConfig(M=3, seed=2),
                              deviate_delta=0.5)
    assert [n["march"] for n in rep.networks] == ["subspace"] * 2
    assert sorted(stacks.values()) == [K, K + 1]
    assert sorted(projections) == [(N, 6) for N in N_list]


def test_nash_gap_missed_network_failure_names_mode():
    # the stiff spec on a network whose eigenpairs under the rank cut miss
    # W (see missing_network): the experiment's probes march all 6
    # eigenpairs, and the overflow names the path, the block's N, the mode
    # and the step, within a step of where the every-agent march fails
    from rsgmfg import simulate
    N, graphon = 6, missing_network()
    spec, sol, gN = stiff_run(N, graphon, n_alpha=4 * N)
    sim = SimConfig(M=2, seed=3)
    pop = simulate._population(spec, gN, sol, sim)
    probe = simulate.default_probe_agents(N)
    march = simulate._probe_march(pop, probe)
    assert march.route == "modal" and march.V.shape == (N, N)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SimulationError) as named:
            nash_gap_experiment(spec, graphon, sol, [N], sim)
        with pytest.raises(SimulationError) as full:
            simulate._march(spec, sim, [replace(pop, rows=probe)])
    found = re.fullmatch(r"non-finite state at path=0, N=6, mode=[0-5], "
                         r"step=(\d+)", str(named.value))
    assert found
    assert abs(int(found[1]) - int(str(full.value).rsplit("=", 1)[1])) <= 1


def test_nash_gap_decomposes_each_network_once(monkeypatch):
    # one dense N and two low-rank N, with a deviation: each sampled
    # network is factored by one eigh (the initial law's n x n dispersion
    # factor aside) and no eigvalsh, whether its probes march all N modes
    # or in its subspace
    spec = make_spec(n_t=40, n_alpha=48, coefficients={"D": 0.2},
                     initial_law={"kind": "gaussian", "mean": 2.0,
                                  "dispersion": 0.1})
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    N_list = [4, 10, 12]
    networks = {(N, N) for N in N_list}
    calls = []

    def counted(name):
        fn = getattr(np.linalg, name)

        def call(a, *args, **kwargs):
            if np.shape(a) in networks:
                calls.append((name, np.shape(a)[0]))
            return fn(a, *args, **kwargs)
        return call

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    rep = nash_gap_experiment(spec, SIN, sol, N_list, SimConfig(M=3, seed=1),
                              deviate_delta=0.5)
    assert [n["march_dim"] for n in rep.networks] == [4, 6, 6]
    assert sorted(calls) == [("eigh", N) for N in N_list]


@pytest.mark.parametrize("N", [4, 12])
def test_probe_agents_outside_population_rejected(N):
    # N = 4 marches its 4 modes, N = 12 in the subspace; an index past the
    # last agent or a negative one is refused with the agent named
    from rsgmfg import ConfigError
    spec = make_spec(n_t=20, n_alpha=48, coefficients={"D": 0.2})
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    gN, sim = sample_step(SIN, N), SimConfig(M=2, seed=1)
    for bad in (N, -1):
        with pytest.raises(ConfigError, match=f"probe agent {bad} is outside"):
            population_cost_exponents(spec, gN, sol, sim, np.array([0, bad]))


@pytest.mark.blas_kernels
def test_nash_gap_rows_follow_N_list_and_match_single_runs():
    # unsorted sizes: rows come in N_list order, and each N's rows equal
    # those of a run with that N alone, bit for bit, on the sinusoidal
    # kernel (N = 4 dense, 8 and 10 in the subspace) and on uniform
    # attachment (every N dense); a repeated size would march the same
    # paths twice and is refused
    from rsgmfg import ConfigError
    spec = make_spec(n_t=60, n_alpha=40, coefficients={"D": 0.2},
                     initial_law={"kind": "gaussian", "mean": 2.0,
                                  "dispersion": 0.1})
    sim = SimConfig(M=6, seed=8, chunk_doubles=1200)  # 2 paths a chunk
    N_list = [10, 4, 8]
    for g, dims in ((SIN, [6, 4, 6]), (UA, N_list)):
        sol = solve_spectral(MeanFieldProblem(spec, g))
        with pytest.raises(ConfigError, match="repeats"):
            nash_gap_experiment(spec, g, sol, [10, 4, 8, 4], sim)
        rep = nash_gap_experiment(spec, g, sol, N_list, sim,
                                  deviate_delta=0.5)
        assert [n["march_dim"] for n in rep.networks] == dims
        alone = {N: nash_gap_experiment(spec, g, sol, [N], sim,
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


@pytest.mark.blas_kernels
def test_nash_gap_stacked_march_matches_single_runs(monkeypatch):
    # n = 2, one modal N (q >= N) between two subspace N, with a
    # deviation: each N's rows equal those of a run with that N alone, bit
    # for bit, though the subspace N march stacked with each other; the
    # exponents equal to 1e-13 those of every-agent marches, which run on
    # the lift of each subspace N's coordinate increments (dW = V xi +
    # (I - V V^T) eta), and of the modal N's agent rows (dW = U xi)
    from rsgmfg import simulate
    spec = tabulated_2d_spec(n_alpha=48, kind="gaussian", mean=[1.0, -0.5],
                             dispersion=[[0.1, 0.02], [0.02, 0.05]])
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    sim = SimConfig(M=9, seed=5, chunk_doubles=3000)    # 3 paths a chunk
    N_list = [12, 4, 10]
    costs = simulate.cost_from_exponents
    exponents = []

    def recorded(expo):
        exponents.append(np.array(expo))
        return costs(expo)

    monkeypatch.setattr(simulate, "cost_from_exponents", recorded)
    rep = nash_gap_experiment(spec, SIN, sol, N_list, sim, deviate_delta=0.5)
    assert [n["march_dim"] for n in rep.networks] == [6, 4, 6]
    stacked = exponents[:]
    for N in N_list:
        alone = nash_gap_experiment(spec, SIN, sol, [N], sim,
                                    deviate_delta=0.5).rows
        assert [r for r in rep.rows if r.N == N] == list(alone)
    exponents.clear()
    probe_march, increments = simulate._probe_march, simulate._increments
    monkeypatch.setattr(simulate, "_probe_march",
                        lambda pop, probe, name=None: replace(
                            pop, rows=probe, name=name))
    for N in N_list:
        pop = simulate._population(spec, sample_step(SIN, N), sol, sim)
        sub = probe_march(pop, simulate.default_probe_agents(N))

        def lifted(seed, grid, d, paths, keys, n_agents, sub=sub):
            eta = increments(seed, grid, d, paths, keys, n_agents)
            if sub.route == "modal":
                return np.einsum("nl,kpld->kpnd", sub.V, eta)
            return lift(coordinate_basis(sub),
                        increments(seed, grid, d, paths, sub.keys), eta)

        monkeypatch.setattr(simulate, "_increments", lifted)
        full = nash_gap_experiment(spec, SIN, sol, [N], sim,
                                   deviate_delta=0.5)
        assert [n["march_dim"] for n in full.networks] == [N]
    assert len(exponents) == len(stacked) == 12
    for got, want in zip(stacked, exponents):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.blas_kernels
def test_nash_gap_experiment_chunk_invariant():
    # n = 2, with a deviation, on the sinusoidal kernel (one dense N,
    # q >= N, between two subspace N) and on uniform attachment (every N
    # dense): the rows of 1-path chunks equal the one-block rows bit for
    # bit
    spec = tabulated_2d_spec(n_alpha=48, kind="gaussian", mean=[1.0, -0.5],
                             dispersion=[[0.1, 0.02], [0.02, 0.05]])
    sim = SimConfig(M=40, seed=5)
    for g, dims in ((SIN, [6, 4, 6]), (UA, [12, 4, 10])):
        args = (spec, g, solve_spectral(MeanFieldProblem(spec, g)),
                [12, 4, 10])
        whole = nash_gap_experiment(*args, sim, deviate_delta=0.5)
        tiny = nash_gap_experiment(*args, replace(sim, chunk_doubles=1),
                                   deviate_delta=0.5)
        assert [n["march_dim"] for n in whole.networks] == dims
        assert whole.rows == tiny.rows


def test_every_monte_carlo_entry_point_marches_once(monkeypatch):
    # the recorded runs, the cost-only runs and the epsilon-Nash
    # experiment (dense and subspace N on the sinusoidal kernel, every N
    # dense on uniform attachment, each N with a deviating copy) each
    # make one pass of the one chunk loop, with one _increments call per
    # chunk: 3 chunks of one path
    from rsgmfg import simulate
    spec = make_spec(n_t=40, n_alpha=48, coefficients={"D": 0.2})
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    sol_ua = solve_spectral(MeanFieldProblem(spec, UA))
    gN, sim = sample_step(SIN, 12), SimConfig(M=3, seed=1, chunk_doubles=1)
    assert len(list(simulate._chunks(spec, sim, simulate.sim_time_grid(
        spec, sim), 1))) == 3
    idx = sol.alpha_index(0.5)
    march, calls = simulate._march, []
    increments, drawn = simulate._increments, []

    def counted(*args, **kwargs):
        calls.append(args)
        return march(*args, **kwargs)

    def counted_increments(*args, **kwargs):
        drawn.append(args)
        return increments(*args, **kwargs)

    monkeypatch.setattr(simulate, "_march", counted)
    monkeypatch.setattr(simulate, "_increments", counted_increments)
    runs = {
        "simulate_population": lambda: simulate_population(spec, gN, sol, sim),
        "limit_ensemble": lambda: limit_ensemble(spec, sol, sim),
        "population_cost_exponents": lambda: population_cost_exponents(
            spec, gN, sol, sim, np.array([0, 11])),
        "limit_cost_exponents": lambda: limit_cost_exponents(
            spec, sol.z[idx], sol.S[idx], sol.Pi, sim,
            float(sol.alphas[idx])),
        "nash_gap_experiment": lambda: nash_gap_experiment(
            spec, SIN, sol, [4, 12], sim, deviate_delta=0.5),
        "nash_gap_experiment (uniform attachment)":
            lambda: nash_gap_experiment(spec, UA, sol_ua, [4, 12], sim,
                                        deviate_delta=0.5)}
    counts = {}
    for name, run in runs.items():
        calls.clear()
        drawn.clear()
        run()
        counts[name] = (len(calls), len(drawn))
    assert counts == dict.fromkeys(runs, (1, 3))


@pytest.mark.blas_kernels
def test_factored_probe_runs_hold_no_agent_increments(monkeypatch):
    # on rank-3 networks every N marches in its subspace: the experiment
    # and a standalone probe run draw no agent-level increments, only
    # their distinct coordinate keys, (K, M, keys, d), and their
    # Python-level peak stays below one (K, M, max N, d) agent block
    import tracemalloc
    from rsgmfg import simulate
    spec = make_spec(n_t=200, n_alpha=320, coefficients={"D": 0.2})
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    sim = SimConfig(M=100, seed=2)
    block = spec.grids.n_t * sim.M * 80 * spec.d * 8      # bytes
    increments, drawn = simulate._increments, []

    def counted(*args):
        noise = increments(*args)
        drawn.append((noise.shape, args[5]))
        return noise

    monkeypatch.setattr(simulate, "_increments", counted)
    for run in (lambda: nash_gap_experiment(spec, SIN, sol, [40, 80], sim,
                                            deviate_delta=0.5),
                lambda: population_cost_exponents(
                    spec, sample_step(SIN, 80), sol, sim,
                    simulate.default_probe_agents(80))):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block
    # probes 0, 19, 39 and 0, 39, 79, and 3 range coordinates
    K = spec.grids.n_t
    assert drawn == [((K, sim.M, 7, 1), 0), ((K, sim.M, 6, 1), 0)]


@pytest.mark.blas_kernels
def test_factored_experiment_draws_only_coordinate_keys(monkeypatch):
    # with every N in its subspace, each path draws (distinct keys) K d
    # normals of increments, one key per call, and never K N_max d: the
    # sizes of 12 and 10 probe agents 0, 5, 11 and 0, 4, 9 and share 3
    # range keys, so 8 keys; the initial states draw N normals per N
    import collections
    from rsgmfg import simulate
    spec = make_spec(n_t=60, n_alpha=48, coefficients={"D": 0.2},
                     initial_law={"kind": "gaussian", "mean": 2.0,
                                  "dispersion": 0.1})
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    stream, calls = simulate._stream, collections.defaultdict(list)

    class Counting:
        def __init__(self, gen, stream_id):
            self.gen, self.stream_id = gen, stream_id

        def standard_normal(self, size=None, out=None):
            calls[self.stream_id].append(
                out.size if out is not None else int(np.prod(size)))
            return self.gen.standard_normal(size, out=out)

    monkeypatch.setattr(simulate, "_stream", lambda seed, stream_id, key=None:
                        Counting(stream(seed, stream_id, key), stream_id))
    N_list, M, K = [12, 10], 5, spec.grids.n_t
    rep = nash_gap_experiment(spec, SIN, sol, N_list, SimConfig(M=M, seed=2),
                              deviate_delta=0.5)
    assert [n["march_dim"] for n in rep.networks] == [6, 6]
    for p in range(M):
        assert calls[2 * p + 1] == [K * spec.d] * 8
        assert sorted(calls[2 * p]) == sorted(N_list)


@pytest.mark.blas_kernels
def test_coordinate_increments_common_across_N_and_disjoint_streams():
    # agent 0 is a probe and coordinate 0 for every N, and range coordinate
    # i is column 3 + i: both take the same increments for every N, while
    # the other probes, agents of their own N, take their own.  No
    # coordinate stream shares a value with another or with the first
    # 200 K d normals of stream 2p or 2p+1
    from rsgmfg import simulate
    spec = make_spec(n_t=40, n_alpha=100, coefficients={"D": 0.2})
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    sim, paths = SimConfig(M=3, seed=4), range(3)
    noise, keys = {}, set()
    for N in (12, 20, 25):
        pop = simulate._population(spec, sample_step(SIN, N), sol, sim)
        march = simulate._probe_march(pop, simulate.default_probe_agents(N))
        assert march.keys[0] == (simulate._PROBE_KEY, 0)
        assert march.keys[3:] == tuple((simulate._RANGE_KEY, i)
                                       for i in range(3))
        noise[N] = simulate._increments(sim.seed, pop.sim_grid, spec.d,
                                        paths, march.keys)
        keys.update(march.keys)
    for N in (20, 25):
        assert np.array_equal(noise[N][:, :, 0], noise[12][:, :, 0])
        assert np.array_equal(noise[N][:, :, 3:], noise[12][:, :, 3:])
        assert not np.any(noise[N][:, :, 1:3] == noise[12][:, :, 1:3])
    K, d = spec.grids.n_t, spec.d
    drawn = simulate._increments(sim.seed, pop.sim_grid, d, paths,
                                 tuple(sorted(keys)))
    assert len(keys) == 10          # probes 0, 5, 9, 11, 12, 19, 24
    assert len(np.unique(drawn)) == drawn.size
    for j, p in enumerate(paths):
        for stream_id in (2 * p, 2 * p + 1):
            agents = np.sqrt(pop.sim_grid.h) * simulate._stream(
                sim.seed, stream_id).standard_normal(200 * K * d)
            assert np.intersect1d(drawn[:, j], agents).size == 0


@pytest.mark.blas_kernels
def test_coordinate_increments_chunk_invariant():
    # a key's increments on a path do not depend on the paths or the keys
    # drawn with it
    from rsgmfg import simulate
    spec = tabulated_2d_spec()
    grid = simulate.sim_time_grid(spec, SimConfig(M=1, seed=0))
    keys = ((1, 0), (1, 7), (2, 0), (2, 1))
    whole = simulate._increments(9, grid, spec.d, range(7), keys)
    assert whole.shape == (grid.n_t, 7, 4, spec.d)
    for bounds in ((0, 1, 2, 3, 4, 5, 6, 7), (0, 3, 7)):
        parts = [simulate._increments(9, grid, spec.d, range(a, b), keys)
                 for a, b in zip(bounds, bounds[1:])]
        assert np.array_equal(np.concatenate(parts, axis=1), whole)
    alone = simulate._increments(9, grid, spec.d, range(7), keys[:0:-1])
    assert np.array_equal(alone, whole[:, :, :0:-1])


@pytest.mark.blas_kernels
def test_coordinate_draws_match_every_agent_law():
    # Monte Carlo law check, M = 2000, N = 12, n_t = 40, seed 31, every
    # agent starting at 0 so that the noise drives the cost: the probe
    # costs of the subspace march on its coordinate draws and of the
    # every-agent march on stream 2p+1, two independent samples, estimate
    # the same E[exp(gamma Lambda_T)]; their means agree within 4 combined
    # standard errors (coordinate increments scaled by 1.2 miss by 7)
    import math
    from rsgmfg import simulate
    spec = make_spec(n_t=40, n_alpha=48, coefficients={"D": 0.2},
                     initial_law={"kind": "deterministic", "mean": 0.0})
    sol = solve_spectral(MeanFieldProblem(spec, SIN))
    gN, sim = sample_step(SIN, 12), SimConfig(M=2000, seed=31)
    probe = simulate.default_probe_agents(12)
    pop = simulate._population(spec, gN, sol, sim)
    every = replace(pop, rows=probe)
    assert simulate._probe_march(pop, probe).V is not None
    sub = population_cost_exponents(spec, gN, sol, sim, probe)
    full = simulate._march(spec, sim, [every])[0]
    for j in range(len(probe)):
        a, b = cost_from_exponents(sub[:, j]), cost_from_exponents(full[:, j])
        assert a.mean != b.mean
        assert abs(a.mean - b.mean) <= 4 * math.hypot(a.std_error,
                                                      b.std_error)


def modal_and_dense(spec, graphon, N, sim, deviate):
    """The probe march of N agents on ``graphon`` (with agent 0 on the
    damped law when ``deviate``) and the same run of every agent."""
    from rsgmfg import acp_solve, simulate
    sol = solve_spectral(MeanFieldProblem(spec, graphon))
    pop = simulate._population(spec, sample_step(graphon, N), sol, sim)
    probe = simulate.default_probe_agents(N)
    march = simulate._probe_march(pop, probe)
    full = replace(pop, rows=probe)
    if deviate:
        acp = acp_solve(spec, 0.5, sol.z[[sol.alpha_index(0.5 / N)]],
                        alpha=np.array([0.5 / N]))
        K_dev, k_dev = simulate._affine_law(spec, pop.sim_grid.t,
                                            acp.Pi_delta, acp.S_delta)
        march = simulate._deviating(march, K_dev[0], k_dev[0])
        full = simulate._deviating(full, K_dev[0], k_dev[0])
    return pop, march, full


@pytest.mark.blas_kernels
@pytest.mark.parametrize("n", [1, 2])
def test_modal_march_matches_dense_on_lifted_draws(n, monkeypatch):
    # the lifted oracle: the modal march on its increments xi (agent rows
    # of stream 2p+1) and the march of every agent on dW = U xi give the
    # same probe costs within 1e-12 relative, on the full-rank network of
    # 12 agents and on the rank-3 network of 4; so do the march of the 6
    # modes of the rank-3 network of 12's invariant subspace, on its
    # coordinate increments xi_V, and the march of every agent on
    # dW = V xi_V + (I - V V^T) eta; and the march of all 6 modes of
    # missing_network, whose rank-1 factor misses W; each with and without
    # agent 0 on the damped law
    from rsgmfg import simulate
    spec = (make_spec(n_t=60, n_alpha=48, coefficients={"D": 0.2},
                      initial_law={"kind": "gaussian", "mean": 2.0,
                                   "dispersion": 0.1}) if n == 1
            else tabulated_2d_spec(n_alpha=48, kind="gaussian",
                                   mean=[1.0, -0.5],
                                   dispersion=[[0.1, 0.02], [0.02, 0.05]]))
    sim = SimConfig(M=9, seed=5)
    increments = simulate._increments
    for graphon, N, route in ((UA, 12, "modal"), (SIN, 4, "modal"),
                              (SIN, 12, "subspace"),
                              (missing_network(), 6, "modal")):
        for deviate in (False, True):
            pop, march, full = modal_and_dense(spec, graphon, N, sim, deviate)
            assert march.route == route and full.route == "agents"
            got = simulate._march(spec, sim, [march])[0]

            def lifted(seed, grid, d, paths, keys, n_agents, march=march):
                eta = increments(seed, grid, d, paths, keys, n_agents)
                if route == "modal":
                    return np.einsum("nl,kpld->kpnd", march.V, eta)
                return lift(coordinate_basis(march),
                            increments(seed, grid, d, paths, march.keys),
                            eta)

            monkeypatch.setattr(simulate, "_increments", lifted)
            want = simulate._march(spec, sim, [full])[0]
            monkeypatch.undo()
            assert got.shape == want.shape == (9, 3)
            assert not np.array_equal(got, want)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.blas_kernels
@pytest.mark.parametrize("n", [1, 2])
def test_modal_march_chunk_invariant_across_groups(n):
    # the modal march of a full-rank network and its deviating copy,
    # marched as two blocks of one run: 70 paths span several row groups
    # of the readout's GEMMs; chunks of one path and of 33 paths
    # reproduce the one-block run bit for bit
    from rsgmfg import simulate
    spec = (make_spec(n_t=40, n_alpha=40, coefficients={"D": 0.2}) if n == 1
            else tabulated_2d_spec())
    sim = SimConfig(M=70, seed=3)
    pop, dev, _ = modal_and_dense(spec, UA, 10, sim, True)
    march = simulate._probe_march(pop, simulate.default_probe_agents(10))
    assert march.route == dev.route == "modal"
    per_path = spec.grids.n_t * spec.d * 10

    def run(paths_per_chunk):
        block = replace(sim, chunk_doubles=paths_per_chunk * per_path)
        return simulate._march(spec, block, [march, dev])

    whole = run(70)
    for paths_per_chunk in (1, 33):
        assert all(np.array_equal(a, b)
                   for a, b in zip(whole, run(paths_per_chunk)))


def test_modal_march_nonfinite_state_names_location():
    # the stiff spec on the full-rank network of 4 agents: the probes march
    # the network's modes, and the first mode to overflow is named with
    # its block, path and step, within a step of where the every-agent
    # march fails (a mode is a combination of the agents' states)
    from rsgmfg import simulate
    spec, sol, gN = stiff_run(4, UA)
    sim = SimConfig(M=2, seed=3)
    pop = simulate._population(spec, gN, sol, sim)
    probe = simulate.default_probe_agents(4)
    march = replace(simulate._probe_march(pop, probe), name="N=4")
    assert march.route == "modal"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SimulationError) as modal:
            simulate._march(spec, sim, [march])
        with pytest.raises(SimulationError) as full:
            simulate._march(spec, sim, [replace(pop, rows=probe)])
    found = re.fullmatch(r"non-finite state at path=0, N=4, mode=[0-3], "
                         r"step=(\d+)", str(modal.value))
    assert found
    assert abs(int(found[1]) - int(str(full.value).rsplit("=", 1)[1])) <= 1


def test_rank_deficient_network_marches_its_complete_eigenbasis():
    # the sinusoidal network of 4 agents has rank 3, so 2r >= N and no
    # subspace pays: the probes march the 4 eigenpairs of the network's one
    # eigh, the fourth eigenvalue at rounding level under the rank cut
    from rsgmfg import simulate
    spec, sol, gN, sim = small_run(N=4)
    pop = simulate._population(spec, gN, sol, sim)
    net = pop.network
    march = simulate._probe_march(pop, simulate.default_probe_agents(4))
    assert net.rank == 3 and march.route == "modal"
    U, lam = march.V, march.modes.lam
    assert np.array_equal(U, net.U) and np.array_equal(lam, net.eigenvalues)
    assert np.max(np.abs(U.T @ U - np.eye(4))) <= 1e-14
    assert np.max(np.abs((U * lam) @ U.T - net.W)) <= 1e-14
    assert np.all(np.isfinite(simulate._march(spec, sim, [march])[0]))


def test_network_missing_its_eigenpairs_marches_all_modes():
    # the eigenvalue 5e-9 of missing_network falls under the 1e-8 rank
    # cut, so the rank-1 factor misses W by far more than 1e-12 max|W|:
    # the probes march all 6 eigenpairs of W, not the 4 modes of the
    # subspace of E and the range, and those reproduce W
    from rsgmfg import simulate
    spec, sol, _, sim = small_run()
    N = 6
    gN = sample_step(missing_network(), N)
    pop = simulate._population(spec, gN, sol, sim)
    net = pop.network
    U1, lam1 = net.U[:, net.kept], net.eigenvalues[net.kept]
    bound = 1e-12 * np.max(np.abs(net.W))
    assert net.rank == 1
    assert np.max(np.abs((U1 * lam1) @ U1.T - net.W)) > bound
    march = simulate._probe_march(pop, simulate.default_probe_agents(N))
    U, lam = march.V, march.modes.lam
    assert march.route == "modal" and U.shape == (N, N)
    assert np.max(np.abs((U * lam) @ U.T - net.W)) <= bound
    assert np.all(np.isfinite(simulate._march(spec, sim, [march])[0]))


def test_probe_runs_build_no_dense_coupling(monkeypatch):
    # probe-only runs in the modes (uniform attachment) and the subspace
    # (sinusoidal, N = 12) never build the N x N coupling block, which a
    # recorded run of every agent builds once
    from rsgmfg import simulate
    init, built = simulate._Subspace.__init__, []

    def counted(self, factors):
        built.extend(np.shape(f) for f in factors)
        init(self, factors)

    monkeypatch.setattr(simulate._Subspace, "__init__", counted)
    spec = make_spec(n_t=40, n_alpha=48, coefficients={"D": 0.2})
    sim = SimConfig(M=3, seed=1)
    for graphon in (UA, SIN):
        sol = solve_spectral(MeanFieldProblem(spec, graphon))
        rep = nash_gap_experiment(spec, graphon, sol, [4, 12], sim,
                                  deviate_delta=0.5)
        assert [n["march"] for n in rep.networks] == (
            ["modal", "modal"] if graphon is UA else ["modal", "subspace"])
        assert (12, 12) not in built
        population_cost_exponents(spec, sample_step(graphon, 12), sol, sim,
                                  np.array([0, 11]))
        assert (12, 12) not in built
    assert simulate._population(spec, sample_step(UA, 12), sol,
                                sim).coupling is None
    simulate_population(spec, sample_step(UA, 12), sol, sim)
    assert built.count((12, 12)) == 1
