from dataclasses import replace

import numpy as np
import pytest

from rsgmfg import (IntegrationError, fundamental_matrices, march_tables,
                    solve_p_ell_stack, solve_riccati_pi,
                    solve_riccati_pi_delta)
from rsgmfg.core import Grids
from rsgmfg.odesolve import _rk4_march, _stage_times

from conftest import make_spec


def transition_matrices(spec):
    tables = march_tables(spec).with_curvature(spec, solve_riccati_pi(spec))
    return fundamental_matrices(spec, tables)


def psi(fwd, inv, i, j):
    """Psi(t_i, t_j) from the factors through t = 0."""
    return fwd[i] @ inv[j]


def p_ell(spec, lambdas):
    """The P^l stack of ``lambdas`` from the tables of spec's Pi."""
    tables = march_tables(spec).with_curvature(spec, solve_riccati_pi(spec))
    return solve_p_ell_stack(spec, tables, np.asarray(lambdas, dtype=float))


def test_rk4_exponential():
    grid = Grids(T=1.0, n_t=100, n_alpha=1)
    values = _rk4_march(lambda y: y, np.array(1.0), grid, "forward")
    assert abs(values[-1] - np.e) < 1e-8


def test_rk4_fourth_order_convergence():
    errs = []
    for n_t in (100, 200):
        grid = Grids(T=1.0, n_t=n_t, n_alpha=1)
        values = _rk4_march(lambda y: y, np.array(1.0), grid, "forward")
        errs.append(abs(float(values[-1]) - np.e))
    ratio = errs[0] / errs[1]
    assert 14.0 <= ratio <= 18.0


def test_rk4_backward_constant():
    grid = Grids(T=2.0, n_t=50, n_alpha=1)
    values = _rk4_march(lambda y: 0.0 * y, np.array([3.0, -1.0]), grid,
                        "backward")
    assert np.all(values == [3.0, -1.0])


def test_rk4_backward_quadratic_analytic():
    # dy/dt = 0.09 y^2 with y(1) = 0.8 has y(0) = 0.8 / (1 + 0.8 * 0.09)
    grid = Grids(T=1.0, n_t=1000, n_alpha=1)
    values = _rk4_march(lambda y: 0.09 * y ** 2, np.array(0.8), grid,
                        "backward")
    assert abs(float(values[0]) - 0.8 / 1.072) < 1e-10


def test_rk4_nonfinite_reports_time():
    grid = Grids(T=1.0, n_t=100, n_alpha=1)
    with np.errstate(over="ignore"), pytest.raises(IntegrationError) as exc:
        _rk4_march(lambda y: y ** 2, np.array(5.0), grid, "forward")
    assert exc.value.t_fail is not None


def test_rk4_rejects_unknown_direction():
    grid = Grids(T=1.0, n_t=10, n_alpha=1)
    with pytest.raises(ValueError, match="direction"):
        _rk4_march(lambda y: y, np.array(1.0), grid, "sideways")


def test_riccati_scalar_analytic_oracle():
    # A = 0, Q = 0 reduces to dPi/dt = 0.09 Pi^2, Pi(1) = 0.8
    spec = make_spec(n_t=1000, coefficients={"A": 0.0, "Q": 0.0})
    Pi = solve_riccati_pi(spec)
    assert abs(Pi.values[0, 0, 0] - 0.8 / 1.072) < 1e-8


def test_riccati_zero_weights_zero_solution():
    spec = make_spec(coefficients={"Q": 0.0, "Qf": 0.0})
    Pi = solve_riccati_pi(spec)
    assert np.all(Pi.values == 0.0)


def test_riccati_benchmark_terminal_and_sign():
    spec = make_spec(n_t=1000)
    Pi = solve_riccati_pi(spec)
    assert Pi.values[-1, 0, 0] == 0.8
    assert np.all(np.isfinite(Pi.values))
    assert np.all(Pi.values >= -1e-8)


def test_riccati_residual_second_order():
    spec = make_spec(n_t=400)
    Pi = solve_riccati_pi(spec)
    c = spec.coeffs
    h = spec.grids.h
    worst = 0.0
    for k in range(1, spec.grids.n_t):
        t = spec.grids.t[k]
        dPi = (Pi.values[k + 1] - Pi.values[k - 1]) / (2 * h)
        P = Pi.values[k]
        A = c.A(t)
        rhs = -P @ A - A.T @ P + P @ c.riccati_quadratic(t) @ P - c.Q(t)
        worst = max(worst, float(np.max(np.abs(dPi - rhs))))
    assert worst <= 10.0 * h ** 2


def test_riccati_matrix_case_symmetric():
    spec = make_spec(coefficients={
        "A": [[0.1, 0.2], [0.0, -0.1]], "B": [[1.0], [0.5]],
        "D": [[0.0, 0.0], [0.0, 0.0]], "sigma": [[0.2], [0.1]],
        "Q": [[1.0, 0.1], [0.1, 1.0]], "R": 2.0,
        "Qf": [[0.5, 0.0], [0.0, 0.5]],
        "Gamma": [[1.0, 0.0], [0.0, 1.0]],
        "Gamma_f": [[0.0, 0.0], [0.0, 0.0]]})
    Pi = solve_riccati_pi(spec)
    sym = np.max(np.abs(Pi.values - np.swapaxes(Pi.values, 1, 2)))
    assert sym <= 1e-10
    assert np.array_equal(Pi.values[-1], [[0.5, 0.0], [0.0, 0.5]])


def test_riccati_blowup_detected_with_time():
    # strongly negative quadratic weight escapes backward in finite time
    spec = make_spec(T=5.0, n_t=2000, gamma=5.0,
                     coefficients={"sigma": 1.0, "Q": 1.0, "Qf": 1.0})
    with np.errstate(over="ignore"), pytest.raises(IntegrationError) as exc:
        solve_riccati_pi(spec)
    assert exc.value.t_fail is not None


def test_riccati_delta_zero_bitwise_identical():
    spec = make_spec()
    a = solve_riccati_pi(spec)
    b = solve_riccati_pi_delta(spec, 0.0)
    assert np.array_equal(a.values, b.values)


def test_riccati_delta_is_curvature_of_damped_spec():
    spec = make_spec()
    a = solve_riccati_pi_delta(spec, 0.5)
    b = solve_riccati_pi(spec.damped(0.5))
    assert a.values.tobytes() == b.values.tobytes()


def test_riccati_delta_monotone_damping():
    spec = make_spec(n_t=500)
    base = solve_riccati_pi(spec).values[0, 0, 0]
    prev = base
    for dp in (0.5, 2.0, 10.0):
        val = solve_riccati_pi_delta(spec, dp).values[0, 0, 0]
        assert val <= prev + 1e-12
        assert solve_riccati_pi_delta(spec, dp).values[-1, 0, 0] == 0.8
        prev = val


def test_fundamental_zero_coefficients_identity():
    spec = make_spec(coefficients={"A": 0.0, "B": 0.0, "D": 0.0,
                                   "sigma": 0.0, "Q": 0.0, "Qf": 0.0})
    fm = transition_matrices(spec)
    for i in (0, 13, spec.grids.n_t):
        for j in (0, 7, spec.grids.n_t):
            assert np.allclose(psi(fm.z_fwd, fm.z_inv, i, j), np.eye(1),
                               atol=1e-14)
            assert np.allclose(psi(fm.s_fwd, fm.s_inv, i, j), np.eye(1),
                               atol=1e-14)


def test_fundamental_matches_matrix_exponential():
    # B = 0 and Pi = 0  =>  Psi_z(t, s) = exp(A (t - s))
    A = np.array([[0.3, 0.4], [0.1, -0.2]])
    spec = make_spec(n_t=500, coefficients={
        "A": A.tolist(), "B": [[0.0], [0.0]],
        "D": [[0.0, 0.0], [0.0, 0.0]], "sigma": [[0.1], [0.1]],
        "Q": [[0.0, 0.0], [0.0, 0.0]], "R": 1.0,
        "Qf": [[0.0, 0.0], [0.0, 0.0]],
        "Gamma": [[0.0, 0.0], [0.0, 0.0]],
        "Gamma_f": [[0.0, 0.0], [0.0, 0.0]]})
    fm = transition_matrices(spec)
    w, V = np.linalg.eig(A)

    def expm(dt):
        return (V * np.exp(w * dt)) @ np.linalg.inv(V)

    for i_t, i_s in ((100, 0), (500, 250), (30, 400)):
        dt = spec.grids.t[i_t] - spec.grids.t[i_s]
        got = psi(fm.z_fwd, fm.z_inv, i_t, i_s)
        assert np.max(np.abs(got - expm(dt).real)) < 1e-8


def test_fundamental_composition_identity(rng):
    spec = make_spec(n_t=300)
    fm = transition_matrices(spec)
    K = spec.grids.n_t
    for _ in range(100):
        i, j, k = rng.integers(0, K + 1, size=3)
        lhs = psi(fm.z_fwd, fm.z_inv, i, j)
        rhs = psi(fm.z_fwd, fm.z_inv, i, k) @ psi(fm.z_fwd, fm.z_inv, k, j)
        assert np.max(np.abs(lhs - rhs)) < 1e-8
    for i in range(0, K + 1, 37):
        assert np.allclose(psi(fm.z_fwd, fm.z_inv, i, i), np.eye(1),
                           atol=1e-12)
        assert np.allclose(psi(fm.s_fwd, fm.s_inv, i, i), np.eye(1),
                           atol=1e-12)


def test_p_perp_benchmark_terminal():
    spec = make_spec(n_t=500)
    P = p_ell(spec, [0.0])[0]       # l = 0 is P_perp
    # -Qf Gamma_f = -0.8 * (-0.8) = 0.64
    assert abs(P[-1, 0, 0] - 0.64) < 1e-15
    assert np.all(np.isfinite(P))


def test_p_perp_zero_source_zero_solution():
    spec = make_spec(coefficients={"Q": 0.0, "D": 0.0, "Gamma_f": 0.0})
    Pi = solve_riccati_pi(spec)   # Q=0, Qf=0.8: Pi != 0 but source Q*Gamma=0
    spec2 = make_spec(coefficients={"Q": 0.0, "D": 0.0, "Qf": 0.0,
                                    "Gamma_f": 0.0})
    P = p_ell(spec2, [0.0])[0]
    assert np.all(P == 0.0)


def test_p_perp_constant_source_linear_ramp():
    # A = B = 0 and sigma = 0 freeze the dynamics; with D = 0 the source is
    # the constant Q*Gamma and P(t) = -Q*Gamma*(T - t) from P(T) = 0
    spec = make_spec(n_t=200, coefficients={
        "A": 0.0, "B": 0.0, "sigma": 0.0, "D": 0.0,
        "Q": 0.3, "Qf": 0.0, "Gamma": 2.0, "Gamma_f": 0.0})
    P = p_ell(spec, [0.0])[0]
    ts = spec.grids.t
    expected = -0.6 * (1.0 - ts)
    assert np.max(np.abs(P[:, 0, 0] - expected)) < 1e-12


def test_p_ell_benchmark_named_eigenvalues():
    spec = make_spec(n_t=500)
    for lam in (0.5, 0.25):
        P = p_ell(spec, [lam])[0]
        assert abs(P[-1, 0, 0] - 0.64) < 1e-15
        assert np.all(np.isfinite(P))


def test_p_ell_stack_matches_single_solves():
    spec = make_spec(n_t=200)
    lams = np.array([0.5, 0.25, 0.033])
    stack = p_ell(spec, lams)
    for j, lam in enumerate(lams):
        single = p_ell(spec, [lam])[0]
        assert np.array_equal(stack[j], single)


def test_separable_quadratic_backward_oracle():
    # dy/dt = kappa y^2 + s0, y(T) = 0  =>  y(t) = sqrt(s0/kappa)
    #                                         * tan(sqrt(s0 kappa) (t - T))
    kappa, s0, T = 1.0, 0.7, 1.0
    grid = Grids(T=T, n_t=800, n_alpha=1)
    values = _rk4_march(lambda y: kappa * y ** 2 + s0, np.array(0.0), grid,
                        "backward")
    a = np.sqrt(s0 * kappa)
    expected = np.sqrt(s0 / kappa) * np.tan(a * (grid.t - T))
    assert np.max(np.abs(values - expected)) < 1e-9


def test_fundamental_condition_number_warning():
    # strongly mixed growth/decay: cond(exp(diag(12,-12))) = e^24 > 1e10
    spec = make_spec(n_t=200, coefficients={
        "A": [[12.0, 0.0], [0.0, -12.0]], "B": [[0.0], [0.0]],
        "D": [[0.0, 0.0], [0.0, 0.0]], "sigma": [[0.0], [0.0]],
        "Q": [[0.0, 0.0], [0.0, 0.0]], "R": 1.0,
        "Qf": [[0.0, 0.0], [0.0, 0.0]],
        "Gamma": [[0.0, 0.0], [0.0, 0.0]],
        "Gamma_f": [[0.0, 0.0], [0.0, 0.0]]})
    fm = transition_matrices(spec)
    assert any("ill-conditioned" in w for w in fm.warnings)


def test_fundamental_extreme_stiffness_fails_cleanly():
    # one transition family contracts to underflow while its adjoint
    # explodes; either way the failure is an IntegrationError, never a
    # bare linear-algebra crash
    spec = make_spec(n_t=1000, coefficients={
        "A": -2000.0, "B": 0.0, "sigma": 0.0, "Q": 0.0, "Qf": 0.0})
    with np.errstate(over="ignore"), pytest.raises(IntegrationError):
        transition_matrices(spec)


def _interp_reference(path, t):
    """The interpolation formula of MatrixPath.at_times, one t at a time."""
    x = t / path.grid.h
    r = round(x)
    if abs(x - r) < 1e-9:
        return path.values[min(max(int(r), 0), path.grid.n_t)]
    if x <= 0:
        return path.values[0]
    if x >= path.grid.n_t:
        return path.values[-1]
    i = int(x)
    w = x - i
    return (1.0 - w) * path.values[i] + w * path.values[i + 1]


def test_matrix_path_at_times_matches_scalar_formula(rng):
    spec = make_spec(n_t=40, coefficients={
        "A": [[0.1, 0.2], [0.0, -0.1]], "B": [[1.0, 0.0], [0.0, 0.5]],
        "D": [[0.15, 0.0], [0.0, 0.1]], "sigma": [[0.2, 0.0], [0.05, 0.1]],
        "Q": [[0.5, 0.1], [0.1, 0.4]], "R": [[1.0, 0.0], [0.0, 2.0]],
        "Qf": [[0.3, 0.0], [0.0, 0.3]], "Gamma": [[1.0, 0.0], [0.0, 1.0]],
        "Gamma_f": [[-0.5, 0.0], [0.0, -0.5]]}, gamma=0.2)
    path = solve_riccati_pi(spec)
    h = spec.grids.h
    ts = np.concatenate([
        rng.uniform(-0.2, 1.2, 200), spec.grids.t, spec.grids.t + 1e-12,
        spec.grids.t[:-1] + 0.5 * h, spec.grids.t[1:] - 0.5 * h,
        [-1.0, 0.0, 1.0, 2.0]])
    got = path.at_times(ts)
    for t, v in zip(ts, got):
        assert v.tobytes() == _interp_reference(path, t).tobytes(), t


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_march_tables_equal_coefficients_at_stage_times(direction):
    # 2x2 tabulated A (not symmetric) and Q whose knots fall between the
    # grid nodes; h = 1/7 puts the midpoints off exact multiples of h/2.
    # One table set serves both directions.
    spec = make_spec(n_t=7, n_alpha=4, gamma=0.2, coefficients={
        "A": {"t": [0.0, 0.33, 0.71, 1.0],
              "values": [[[0.2, 0.1], [0.0, -0.3]], [[-0.4, 0.3], [0.1, 0.2]],
                         [[0.5, 0.0], [0.2, -0.1]], [[0.1, 0.2], [0.0, 0.3]]]},
        "Q": {"t": [0.0, 0.47, 1.0],
              "values": [[[0.3, 0.1], [0.1, 0.2]], [[0.6, 0.0], [0.0, 0.4]],
                         [[0.2, 0.05], [0.05, 0.3]]]},
        "B": [[1.0, 0.0], [0.3, 0.5]], "D": [[0.15, 0.05], [0.0, 0.1]],
        "sigma": [[0.2, 0.0], [0.05, 0.1]], "R": [[1.0, 0.2], [0.2, 2.0]],
        "Qf": [[0.3, 0.0], [0.0, 0.3]], "Gamma": [[1.0, 0.2], [0.0, 1.0]],
        "Gamma_f": [[-0.5, 0.0], [0.0, -0.5]]})
    c = spec.coeffs
    g = 0.7 * c.gamma
    Pi = solve_riccati_pi(spec)
    cg = replace(c, gamma=g)
    damped = replace(spec, coeffs=cg)
    tab = march_tables(damped).with_curvature(damped, Pi)
    names = ("A", "Q", "weight", "A_cl", "costate", "source", "trace")

    def expected(t):
        # the per-t coefficient formulas the tables replace
        P = _interp_reference(Pi, t)
        ssT = c.sigma(t) @ c.sigma(t).T
        A_cl = c.A(t) - c.BRBt(t) @ P
        return (c.A(t), c.Q(t), cg.riccati_quadratic(t), A_cl,
                c.A(t).T - P @ c.BRBt(t) + 2.0 * g * (P @ ssT),
                c.Q(t) @ c.Gamma - P @ c.D(t), np.trace(ssT @ P))

    seen = []

    def f(y, t, *values):
        seen.append(t)
        for name, got, want in zip(names, values, expected(t)):
            assert (np.asarray(got).tobytes()
                    == np.asarray(want, dtype=float).tobytes()), (name, t)
        return 0.0 * y

    # the stage times enter as one more stage table
    _rk4_march(f, np.zeros((2, 2)), spec.grids, direction,
               inputs=(_stage_times(spec.grids),
                       *(getattr(tab, name) for name in names)))
    # the stage times: t_k, the interval midpoint twice, t_k+1; both
    # directions visit the same midpoints 0.5 (t_i + t_i+1)
    tg = spec.grids.t
    mid = 0.5 * (tg[:-1] + tg[1:])
    steps = [(tg[i], mid[i], mid[i], tg[i + 1])
             for i in range(spec.grids.n_t)]
    if direction == "backward":
        steps = [step[::-1] for step in steps[::-1]]
    assert seen == [t for step in steps for t in step]
    assert len(np.unique(tab.A[:, 0, 0])) == len(tab.A)
