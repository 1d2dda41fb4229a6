import numpy as np
import pytest

from rsgmfg import (DivergentCostError, Graphon, MatrixPath, MeanFieldProblem,
                    acp_solve, closed_form_cost, solve_fixed_point,
                    solve_riccati_pi, solve_spectral)
from rsgmfg.core import InitialLaw
from rsgmfg.simulate import _build_tables

from conftest import make_spec, tabulated_2d_spec

SIN = Graphon.sinusoidal()


@pytest.fixture(scope="module")
def bench():
    # Picard route (forced past the sufficient bound): its offset recovery
    # integrates the same backward equations the damped problem uses
    spec = make_spec(n_t=500, n_alpha=50)
    sol = solve_fixed_point(MeanFieldProblem(spec, SIN), force=True)
    Pi = solve_riccati_pi(spec)
    idx = sol.alpha_index(0.5)
    return spec, sol, Pi, idx


def feedback_law(spec, Pi, S):
    """u(k, x) = -(K_k x + k_k) from the simulator's gain table of one
    agent with offset path S, on the solver nodes."""
    tables = _build_tables(spec, spec.grids, Pi, S[None])
    return lambda k, x: -(tables.Kgain[0, k] @ x) - tables.koff[0, k]


def value(spec, Pi, S, r, k, x):
    """V(t_k, x) = x^T Pi x + 2 x^T S + r at node k, read back from the
    closed-form cost of the deterministic initial law at x: that cost is
    exp(gamma V) at the first row of the paths it is given."""
    law = InitialLaw(kind="deterministic", mean_expr=None,
                     _mean_const=np.asarray(x, dtype=float),
                     dispersion=np.zeros((1, 1)))
    tail = MatrixPath(values=Pi.values[k:], grid=spec.grids)
    return np.log(closed_form_cost(spec, tail, S[k:], r[k:], law, 0.5)) \
        / spec.gamma


def test_feedback_zero_state_zero_offset(bench):
    spec, sol, Pi, idx = bench
    S0 = np.zeros_like(sol.S[idx])
    u = feedback_law(spec, Pi, S0)
    assert np.all(u(round(0.3 / spec.grids.h), np.zeros(1)) == 0.0)


def test_feedback_terminal_values(bench):
    spec, sol, Pi, idx = bench
    S = sol.S[idx]
    zT = sol.z[idx, -1, 0]
    # S(T) = -Qf Gamma_f z(T) = 0.64 z(T)
    assert S[-1, 0] == pytest.approx(0.64 * zT, abs=1e-12)
    x = np.array([1.7])
    u = feedback_law(spec, Pi, S)(spec.grids.n_t, x)
    expected = -(0.6 / 1.5) * (0.8 * 1.7 + S[-1, 0])
    assert u[0] == pytest.approx(expected, abs=1e-12)


def test_feedback_affine_superposition(bench, rng):
    spec, sol, Pi, idx = bench
    u = feedback_law(spec, Pi, sol.S[idx])
    for _ in range(20):
        # strategies are held constant between nodes: the left node of t
        k = int(rng.uniform(0, spec.T) / spec.grids.h)
        x1 = rng.standard_normal(1)
        x2 = rng.standard_normal(1)
        lhs = u(k, x1 + x2) + u(k, np.zeros(1))
        rhs = u(k, x1) + u(k, x2)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_feedback_gain_terminal_identity(bench):
    spec, sol, Pi, idx = bench
    tables = _build_tables(spec, spec.grids, Pi, sol.S[idx][None])
    # K(T) = R^-1 B^T Qf
    assert tables.Kgain[0, -1, 0, 0] == pytest.approx((0.6 / 1.5) * 0.8,
                                                   abs=1e-15)


def test_value_at_zero_state_is_offset(bench):
    spec, sol, Pi, idx = bench
    for t in (0.0, 0.41, spec.T):
        k = round(t / spec.grids.h)
        v = value(spec, Pi, sol.S[idx], sol.r[idx], k, np.zeros(1))
        assert v == pytest.approx(sol.r[idx, k], abs=1e-12)


def test_value_terminal_square_form(bench):
    spec, sol, Pi, idx = bench
    zT = sol.z[idx, -1]
    c = spec.coeffs
    K = spec.grids.n_t
    # V(T, x) = |x - Gamma_f z(T)|^2_Qf ; vanishes at its minimizer
    x_min = c.Gamma_f @ zT
    v0 = value(spec, Pi, sol.S[idx], sol.r[idx], K, x_min)
    assert abs(v0) < 1e-8
    x = np.array([2.3])
    v = value(spec, Pi, sol.S[idx], sol.r[idx], K, x)
    err = x - c.Gamma_f @ zT
    assert v == pytest.approx(float(err @ c.Qf @ err), abs=1e-8)


def test_value_quadratic_scaling_identity(bench, rng):
    spec, sol, Pi, idx = bench
    S, r = sol.S[idx], sol.r[idx]
    for _ in range(10):
        t = rng.uniform(0, spec.T)
        x = rng.standard_normal(1)
        k = round(t / spec.grids.h)  # off-node t interpolates; use nodes
        lhs = value(spec, Pi, S, r, k, 2 * x) - 4 * value(spec, Pi, S, r, k, x)
        rhs = -4 * float(x @ S[k]) - 3 * float(r[k])
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_closed_form_flat_curvature_is_exponential_offset(bench):
    spec, sol, Pi, idx = bench
    zero_spec = make_spec(n_t=500, coefficients={"Q": 0.0, "Qf": 0.0})
    Pi0 = solve_riccati_pi(zero_spec)
    assert np.all(Pi0.values == 0.0)
    K = zero_spec.grids.n_t
    S0 = np.zeros((K + 1, 1))
    r0 = np.full(K + 1, 0.9)
    law = InitialLaw(kind="gaussian", mean_expr=None,
                     _mean_const=np.array([2.0]),
                     dispersion=np.array([[0.1]]))
    got = closed_form_cost(zero_spec, Pi0, S0, r0, law, 0.5)
    assert got == pytest.approx(np.exp(0.3 * 0.9), rel=1e-12)


def test_closed_form_deterministic_plug_in(bench):
    spec, sol, Pi, idx = bench
    law = InitialLaw(kind="deterministic", mean_expr=None,
                     _mean_const=np.array([2.0]),
                     dispersion=np.zeros((1, 1)))
    got = closed_form_cost(spec, Pi, sol.S[idx], sol.r[idx], law, 0.5)
    expo = 0.3 * (4 * Pi.values[0, 0, 0] + 4 * sol.S[idx, 0, 0]
                  + sol.r[idx, 0])
    assert got == pytest.approx(np.exp(expo), rel=1e-12)


def test_closed_form_gaussian_against_sampling(bench, rng):
    spec, sol, Pi, idx = bench
    got = closed_form_cost(spec, Pi, sol.S[idx], sol.r[idx], spec.initial, 0.5)
    xi = 2.0 + np.sqrt(0.1) * rng.standard_normal(1_000_000)
    expo = 0.3 * (xi ** 2 * Pi.values[0, 0, 0]
                  + 2 * xi * sol.S[idx, 0, 0] + sol.r[idx, 0])
    vals = np.exp(expo)
    se = vals.std() / 1000.0
    assert abs(got - vals.mean()) < 3 * se


def test_closed_form_uniform_against_sampling(bench, rng):
    spec, sol, Pi, idx = bench
    law = InitialLaw(kind="compact_uniform", mean_expr=None,
                     _mean_const=np.array([2.0]),
                     dispersion=np.diag([0.5]))
    got = closed_form_cost(spec, Pi, sol.S[idx], sol.r[idx], law, 0.5)
    xi = 2.0 + 0.5 * rng.uniform(-1, 1, 1_000_000)
    expo = 0.3 * (xi ** 2 * Pi.values[0, 0, 0]
                  + 2 * xi * sol.S[idx, 0, 0] + sol.r[idx, 0])
    vals = np.exp(expo)
    se = vals.std() / 1000.0
    assert abs(got - vals.mean()) < 3 * se


def test_closed_form_divergence_detected(bench):
    spec, sol, Pi, idx = bench
    # covariance large enough that I - 2 gamma cov Pi(0) loses positivity
    big = InitialLaw(kind="gaussian", mean_expr=None,
                     _mean_const=np.array([2.0]),
                     dispersion=np.array([[10.0]]))
    with pytest.raises(DivergentCostError):
        closed_form_cost(spec, Pi, sol.S[idx], sol.r[idx], big, 0.5)


def test_acp_delta_zero_reproduces_base_objects(bench):
    spec, sol, Pi, idx = bench
    alpha = float(sol.alphas[idx])
    acp = acp_solve(spec, 0.0, sol.z[[idx]], alpha=np.array([alpha]))
    assert np.max(np.abs(acp.Pi_delta.values - Pi.values)) < 1e-10
    assert np.max(np.abs(acp.S_delta[0] - sol.S[idx])) < 1e-10
    assert np.max(np.abs(acp.r_delta[0] - sol.r[idx])) < 1e-10
    base_cost = closed_form_cost(spec, Pi, sol.S[idx], sol.r[idx],
                                 spec.initial, alpha)
    assert acp.cost[0] == pytest.approx(base_cost, rel=1e-10)


def test_acp_terminal_condition(bench):
    spec, sol, Pi, idx = bench
    acp = acp_solve(spec, 0.5, sol.z[[idx]], alpha=sol.alphas[[idx]])
    assert acp.Pi_delta.values[-1, 0, 0] == 0.8
    assert np.all(np.isfinite(acp.S_delta[0]))
    assert np.isfinite(acp.cost[0])


def test_acp_continuity_in_delta(bench):
    spec, sol, Pi, idx = bench
    gaps = []
    for dp in (0.5, 0.25, 0.125, 0.0625):
        acp = acp_solve(spec, dp, sol.z[[idx]], alpha=sol.alphas[[idx]])
        gaps.append(np.max(np.abs(acp.Pi_delta.values - Pi.values)))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.05


def test_acp_rejects_negative_delta(bench):
    spec, sol, Pi, idx = bench
    with pytest.raises(ValueError):
        acp_solve(spec, -0.1, sol.z[[idx]], alpha=np.array([0.5]))


def test_acp_refuses_a_single_mean_path(bench):
    spec, sol, Pi, idx = bench
    with pytest.raises(ValueError, match="mean paths"):
        acp_solve(spec, 0.5, sol.z[idx], alpha=sol.alphas[[idx]])


@pytest.mark.blas_kernels
def test_acp_stack_equals_single_node_solves(bench):
    # one march over stacked mean paths gives each node's own solution,
    # bit for bit, also for n = 2, where a GEMM over the stack would make
    # a node's offsets depend on the nodes beside it
    spec, sol, Pi, idx = bench
    spec2 = tabulated_2d_spec()
    sol2 = solve_spectral(MeanFieldProblem(spec2, SIN))
    for spec, sol, nodes in ((spec, sol, [0, idx, len(sol.alphas) - 1]),
                             (spec2, sol2, [0, 5, 11])):
        alphas = sol.alphas[nodes]
        stack = acp_solve(spec, 0.5, sol.z[nodes], alpha=alphas)
        assert stack.S_delta.shape == (3, *sol.z.shape[1:])
        for j, (node, alpha) in enumerate(zip(nodes, alphas)):
            one = acp_solve(spec, 0.5, sol.z[[node]],
                            alpha=np.array([alpha]))
            assert np.array_equal(stack.S_delta[j], one.S_delta[0])
            assert np.array_equal(stack.r_delta[j], one.r_delta[0])
            assert stack.cost[j] == one.cost[0]
