"""Best-response feedback laws, value functions, and closed-form costs.

The optimal strategy of the single-agent limit problem is affine,
u = -R^-1 B^T (Pi x + S_a), its value function is the quadratic
V(t, x) = x^T Pi(t) x + 2 x^T S_a(t) + r_a(t), and the optimal
exponentiated cost is E[exp(gamma V(0, xi))] over the initial draw xi.
The damped variant (delta' > 0) replaces gamma by gamma / (1 + delta')
and is used to probe strategy deviations from below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Grids, InitialLaw, ProblemSpec
from .errors import DivergentCostError
from .gmfg import _solve_S_field, _solve_r_field
from .odesolve import (MatrixPath, RiccatiSolution, march_tables,
                       solve_riccati_pi_delta)


def left_node(grid: Grids, t: float) -> int:
    """Index of the grid node at or left of t; strategies are held constant
    between nodes at resolution h."""
    x = t / grid.h
    idx = int(np.floor(x + 1e-9))
    return min(max(idx, 0), grid.n_t)


@dataclass(frozen=True)
class FeedbackLaw:
    """Affine control law u = -(K x + k) tabulated on the time grid."""

    K: np.ndarray          # (n_t+1, m, n) gain R^-1 B^T Pi
    k: np.ndarray          # (n_t+1, m) offset R^-1 B^T S
    grid: Grids

    def __call__(self, t: float, x: np.ndarray) -> np.ndarray:
        i = left_node(self.grid, t)
        return -(self.K[i] @ x) - self.k[i]


def feedback_gains(spec: ProblemSpec, Pi: RiccatiSolution,
                   S_alpha: np.ndarray, grid: Grids | None = None) -> FeedbackLaw:
    """Tabulate the gain and offset of the best-response law for one node."""
    grid = grid or spec.grids
    c = spec.coeffs
    K = np.empty((grid.n_t + 1, spec.m, spec.n))
    k = np.empty((grid.n_t + 1, spec.m))
    for i, t in enumerate(grid.t):
        RinvBt = c._RinvBt(t)
        K[i] = RinvBt @ Pi.values[i]
        k[i] = RinvBt @ S_alpha[i]
    return FeedbackLaw(K=K, k=k, grid=grid)


def feedback(spec: ProblemSpec, Pi: RiccatiSolution, S_alpha: np.ndarray,
             t: float, x: np.ndarray, grid: Grids | None = None) -> np.ndarray:
    """Best-response control  -R^-1 B^T Pi x - R^-1 B^T S  at time t.

    Time lookup uses the left grid node so that the law matches the
    piecewise-constant strategies applied by the simulator.
    """
    grid = grid or spec.grids
    c = spec.coeffs
    i = left_node(grid, t)
    RinvBt = c._RinvBt(grid.t[i])
    x = np.asarray(x, dtype=float)
    return -(RinvBt @ (Pi.values[i] @ x)) - RinvBt @ S_alpha[i]


def value(spec: ProblemSpec, Pi: RiccatiSolution, S_alpha: np.ndarray,
          r_alpha: np.ndarray, t: float, x: np.ndarray,
          grid: Grids | None = None) -> float:
    """Quadratic value  x^T Pi(t) x + 2 x^T S(t) + r(t)."""
    grid = grid or spec.grids
    x = np.asarray(x, dtype=float)
    P, S, r = (MatrixPath(np.asarray(v), grid).at(t)
               for v in (Pi.values, S_alpha, r_alpha))
    return float(x @ P @ x + 2.0 * x @ S + r)


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


def closed_form_cost(spec: ProblemSpec, Pi: RiccatiSolution,
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
    """Damped-risk auxiliary problem objects for one node.

    delta_prime = 0 reproduces the undamped best-response objects; larger
    values damp the risk weight to gamma / (1 + delta_prime) and give lower
    bounds for the deviation analysis.
    """

    delta_prime: float
    Pi_delta: RiccatiSolution
    S_delta: np.ndarray
    r_delta: np.ndarray
    cost: float


def acp_solve(spec: ProblemSpec, delta_prime: float, z_alpha: np.ndarray,
              grid: Grids | None = None, law: InitialLaw | None = None,
              alpha: float | None = None,
              Pi_delta: RiccatiSolution | None = None) -> AcpSolution:
    """Solve the damped-risk control problem against a frozen mean path.

    The curvature solves the damped backward quadratic equation, the offset
    and value constant follow with the damped risk weight, and the optimal
    cost is the closed form with exponent scaled by gamma / (1 + delta').
    The curvature does not depend on the mean path, so a caller solving
    several nodes may pass it as ``Pi_delta`` (on ``grid``, at this
    delta_prime) instead of having it solved again.
    """
    if delta_prime < 0:
        raise ValueError("delta_prime must be >= 0")
    grid = grid or spec.grids
    g_eff = spec.gamma / (1.0 + delta_prime)
    Pi_d = (solve_riccati_pi_delta(spec, delta_prime, grid)
            if Pi_delta is None else Pi_delta)
    z = np.asarray(z_alpha, dtype=float)
    tables = march_tables(spec, grid, "backward", Pi_d, g_eff)
    S_d = _solve_S_field(spec, tables, z[None])[0]
    r_d = _solve_r_field(spec, tables, z[None], S_d[None])[0]
    if law is None:
        law = spec.initial
    if alpha is None:
        alpha = 0.5
    cost = closed_form_cost(spec, Pi_d, S_d, r_d, law, alpha, gamma_eff=g_eff)
    return AcpSolution(delta_prime=float(delta_prime), Pi_delta=Pi_d,
                       S_delta=S_d, r_delta=r_d, cost=cost)
