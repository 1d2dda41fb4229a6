"""Closed-form optimal costs and the damped-risk auxiliary problem.

The optimal strategy of the single-agent limit problem is affine,
u = -R^-1 B^T (Pi x + S_a), and its value function is the quadratic
V(t, x) = x^T Pi(t) x + 2 x^T S_a(t) + r_a(t); the simulator tabulates the
strategy's gains on its nodes.  The optimal exponentiated cost is
E[exp(gamma V(0, xi))] over the initial draw xi.  The damped variant
(delta' > 0) replaces gamma by gamma / (1 + delta') and is used to probe
strategy deviations from below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InitialLaw, ProblemSpec
from .errors import ConfigError, DivergentCostError
from .gmfg import _solve_S_field, _solve_r_field
from .odesolve import MatrixPath, march_tables, solve_riccati_pi_delta


def _gauss_quadratic_moment(F: np.ndarray, b: np.ndarray, cst: float,
                            mean: np.ndarray, cov: np.ndarray) -> float:
    """log E[exp(xi^T F xi + 2 xi^T b + cst)] for xi ~ N(mean, cov).

    Standard completion of the square: with y = xi - mean and
    v = F mean + b,

        E[...] = det(I - 2 cov F)^(-1/2)
                 * exp(mean^T F mean + 2 mean^T b + cst
                       + 2 v^T (I - 2 cov F)^(-1) cov v),

    finite iff I - 2 cov F is positive definite.
    """
    n = mean.size
    M = np.eye(n) - 2.0 * cov @ F
    sign, logdet = np.linalg.slogdet(M)
    evals = np.linalg.eigvals(M)
    if sign <= 0 or np.min(evals.real) <= 0:
        raise DivergentCostError(
            "gaussian exponential moment diverges: I - 2 gamma cov Pi(0) "
            "is not positive definite")
    v = F @ mean + b
    quad = 2.0 * float(v @ np.linalg.solve(M, cov @ v))
    return float(mean @ F @ mean + 2.0 * mean @ b + cst + quad - 0.5 * logdet)


def closed_form_cost(spec: ProblemSpec, Pi: MatrixPath,
                     S_alpha: np.ndarray, r_alpha: np.ndarray,
                     law: InitialLaw, alpha: float,
                     gamma_eff: float | None = None) -> float:
    """Optimal exponentiated cost  E[exp(g {xi^T Pi(0) xi + 2 xi^T S(0) + r(0)})].

    Deterministic initials evaluate directly; gaussian initials use the
    exact gaussian quadratic moment (finite only when I - 2 g cov Pi(0) is
    positive definite); compact-uniform initials integrate with a 64-point
    Gauss-Legendre rule per dimension.
    """
    g = spec.gamma if gamma_eff is None else gamma_eff
    P0 = np.asarray(Pi.values[0], dtype=float)
    S0 = np.asarray(S_alpha)[0]
    r0 = float(np.asarray(r_alpha)[0])
    mean = law.mean(alpha)

    if law.kind == "deterministic":
        return float(np.exp(g * (mean @ P0 @ mean + 2.0 * mean @ S0 + r0)))

    if law.kind == "gaussian":
        log_j = _gauss_quadratic_moment(g * P0, g * S0, g * r0,
                                        mean, law.dispersion)
        return float(np.exp(log_j))

    # compact uniform on the box mean +- radius per dimension
    radius = np.diag(law.dispersion)
    nodes, weights = np.polynomial.legendre.leggauss(64)
    n = mean.size
    node_grids = np.meshgrid(*([nodes] * n), indexing="ij")
    weight_grids = np.meshgrid(*([weights] * n), indexing="ij")
    pts = np.stack([g_.ravel() for g_ in node_grids], axis=1)  # (64^n, n)
    wts = np.ones(pts.shape[0])
    for wg in weight_grids:
        wts = wts * wg.ravel()
    xi = mean[None, :] + pts * radius[None, :]
    expo = g * (np.einsum("ki,ij,kj->k", xi, P0, xi)
                + 2.0 * xi @ S0 + r0)
    return float(np.sum(wts * np.exp(expo)) / 2.0 ** n)


@dataclass(frozen=True)
class AcpSolution:
    """Damped-risk auxiliary problem objects for one node or a stack.

    delta_prime = 0 reproduces the undamped best-response objects; larger
    values damp the risk weight to gamma / (1 + delta_prime) and give lower
    bounds for the deviation analysis.  For a stack of nodes, S_delta,
    r_delta and cost gain a leading node axis.
    """

    delta_prime: float
    Pi_delta: MatrixPath
    S_delta: np.ndarray
    r_delta: np.ndarray
    cost: float | np.ndarray


def acp_solve(spec: ProblemSpec, delta_prime: float, z_alpha: np.ndarray,
              alpha: float | np.ndarray = 0.5) -> AcpSolution:
    """Solve the damped-risk control problem against frozen mean paths.

    The curvature solves the damped backward quadratic equation once, on
    spec.grids, the offset and value constant follow with the damped risk
    weight, and the optimal cost is the closed form under the spec's
    initial law with exponent scaled by gamma / (1 + delta').  ``z_alpha``
    is one mean path (K+1, n) at node ``alpha``, or a stack (A, K+1, n) at
    nodes (A,), solved in one march from one table set.
    """
    if delta_prime < 0:
        raise ConfigError("delta_prime must be >= 0")
    g_eff = spec.gamma / (1.0 + delta_prime)
    Pi_d = solve_riccati_pi_delta(spec, delta_prime)
    z = np.asarray(z_alpha, dtype=float)
    zs = z.reshape(-1, *z.shape[-2:])
    tables = march_tables(spec, spec.grids, "backward", Pi_d, g_eff)
    S_d = _solve_S_field(spec, tables, zs)
    r_d = _solve_r_field(spec, tables, zs, S_d)
    alphas = np.broadcast_to(alpha, len(zs))
    cost = np.array([closed_form_cost(spec, Pi_d, S, r, spec.initial, a,
                                      gamma_eff=g_eff)
                     for S, r, a in zip(S_d, r_d, alphas)])
    if z.ndim == 2:
        S_d, r_d, cost = S_d[0], r_d[0], float(cost[0])
    return AcpSolution(delta_prime=float(delta_prime), Pi_delta=Pi_d,
                       S_delta=S_d, r_delta=r_d, cost=cost)
