"""Closed-form optimal costs and the damped-risk auxiliary problem.

The optimal strategy of the single-agent limit problem is affine,
u = -R^-1 B^T (Pi x + S_a), and its value function is the quadratic
V(t, x) = x^T Pi(t) x + 2 x^T S_a(t) + r_a(t); the simulator tabulates the
strategy's gains on its nodes.  The optimal exponentiated cost is
E[exp(gamma V(0, xi))] over the initial draw xi.  The damped-risk
auxiliary problem is the same problem at the risk weight
gamma / (1 + delta'), ``spec.damped(delta')``: ``acp_solve`` solves it
for a stack of frozen mean paths, and the epsilon-Nash experiment uses
its strategy to probe unilateral deviations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InitialLaw, ProblemSpec
from .errors import DivergentCostError
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
                     law: InitialLaw, alpha: float) -> float:
    """Optimal exponentiated cost  E[exp(g {xi^T Pi(0) xi + 2 xi^T S(0) + r(0)})].

    g is the spec's risk weight.  Deterministic initials evaluate
    directly; gaussian initials use the exact gaussian quadratic moment
    (finite only when I - 2 g cov Pi(0) is positive definite);
    compact-uniform initials integrate with a 64-point Gauss-Legendre rule
    per dimension.
    """
    g = spec.gamma
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
    """Damped-risk auxiliary problem objects for a stack of A nodes.

    delta_prime = 0 reproduces the undamped best-response objects; larger
    values damp the risk weight to gamma / (1 + delta_prime) and give lower
    bounds for the deviation analysis.  S_delta (A, K+1, n), r_delta
    (A, K+1) and cost (A,) have one row per node.
    """

    delta_prime: float
    Pi_delta: MatrixPath
    S_delta: np.ndarray
    r_delta: np.ndarray
    cost: np.ndarray


def acp_solve(spec: ProblemSpec, delta_prime: float, z_alpha: np.ndarray,
              alpha: np.ndarray) -> AcpSolution:
    """Solve the damped-risk control problem against frozen mean paths.

    The problem is ``spec.damped(delta_prime)`` on spec.grids: its
    curvature, its offsets and value constants (one backward march from
    one table set for the stack ``z_alpha`` (A, K+1, n) of mean paths at
    the nodes ``alpha`` (A,)), and its closed-form optimal costs under the
    spec's initial law.
    """
    damped = spec.damped(delta_prime)
    z = np.asarray(z_alpha, dtype=float)
    alphas = np.asarray(alpha, dtype=float)
    if z.ndim != 3 or alphas.shape != z.shape[:1]:
        raise ValueError(f"acp_solve takes mean paths (A, K+1, n) and nodes "
                         f"(A,); got {z.shape} and {alphas.shape}")
    coefficients = march_tables(damped)
    Pi_d = solve_riccati_pi_delta(spec, delta_prime, coefficients)
    tables = coefficients.with_curvature(damped, Pi_d)
    S_d = _solve_S_field(damped, tables, z)
    r_d = _solve_r_field(damped, tables, z, S_d)
    cost = np.array([closed_form_cost(damped, Pi_d, S, r, damped.initial, a)
                     for S, r, a in zip(S_d, r_d, alphas)])
    return AcpSolution(delta_prime=float(delta_prime), Pi_delta=Pi_d,
                       S_delta=S_d, r_delta=r_d, cost=cost)
