"""Deterministic time stepping on the shared grid.

Classical fixed-step RK4 is used throughout: no adaptivity, so a given
grid produces identical output across runs and platforms.  The quadratic
backward equation for the value-function curvature, the linear offset
equations, and the state-transition (fundamental solution) matrices all
live here.

``_rk4_march`` is the one stepping loop of the package: every march here
and in gmfg (the offset S, the value offset r, the spectral components
and the consistency re-propagation) goes through it.  Inputs tabulated
on the grid nodes enter the half-step stages as the mean of the two
nodes, and Pi enters them by linear interpolation.  So only Pi itself is
4th order in h; z, S and r converge at 2nd order.  Measured with
solve_spectral on the benchmark preset at n_t = 125...1000 and
n_alpha = 20, the successive halving ratios are 15.95 and 14.78 for Pi
and 4.00 for z, S and r.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Grids, ProblemSpec
from .errors import IntegrationError

BLOWUP_LIMIT = 1e12


@dataclass(frozen=True)
class MatrixPath:
    """Grid-indexed path of arrays with linear interpolation in t."""

    values: np.ndarray  # (n_t + 1, ...) leading axis indexes the time grid
    grid: Grids
    direction: str = "forward"

    def at(self, t: float) -> np.ndarray:
        x = t / self.grid.h
        r = round(x)
        if abs(x - r) < 1e-9:
            return self.values[min(max(int(r), 0), self.grid.n_t)]
        if x <= 0:
            return self.values[0]
        if x >= self.grid.n_t:
            return self.values[-1]
        i = int(x)
        w = x - i
        return (1.0 - w) * self.values[i] + w * self.values[i + 1]

    def __len__(self) -> int:
        return self.values.shape[0]

    def to_csv(self, path) -> None:
        """Write the path as CSV: t, then the row-major entries."""
        import csv as _csv
        from pathlib import Path as _Path

        flat = self.values.reshape(self.values.shape[0], -1)
        with _Path(path).open("w", newline="", encoding="utf-8") as fh:
            writer = _csv.writer(fh)
            writer.writerow(["t"] + [f"v{j + 1}" for j in range(flat.shape[1])])
            for k, t in enumerate(self.grid.t):
                writer.writerow([format(t, ".12g")]
                                + [format(v, ".12g") for v in flat[k]])


@dataclass(frozen=True)
class RiccatiSolution:
    """Symmetric curvature path Pi with Pi(T) equal to the terminal weight."""

    Pi: MatrixPath

    def at(self, t: float) -> np.ndarray:
        return self.Pi.at(t)

    @property
    def values(self) -> np.ndarray:
        return self.Pi.values


def _rk4_march(f, boundary_value, grid: Grids, direction: str,
               inputs: tuple = (), post=None,
               blowup: float | None = None) -> np.ndarray:
    """Classical RK4 over every step of the grid: the one stepping loop.

    ``f(t, y, *u)`` returns dy/dt.  Each array in ``inputs`` is tabulated
    on the grid nodes (leading axis = node); ``f`` receives their node
    values at stages 1 and 4 and the mean of the two nodes at stages 2-3.
    Forward marches from t=0 and backward from t=T, both with the signed
    step s = +h / -h.  ``post`` maps each new value (e.g. symmetrizes it).
    Returns the (n_t + 1, ...) node values; a non-finite value, or one
    above ``blowup``, raises IntegrationError carrying the node time.
    """
    if direction == "forward":
        s, nxt, start = grid.h, 1, 0
    elif direction == "backward":
        s, nxt, start = -grid.h, -1, grid.n_t
    else:
        raise ValueError("direction must be 'forward' or 'backward'")
    y = np.asarray(boundary_value, dtype=float).copy()
    out = np.empty((grid.n_t + 1,) + y.shape)
    out[start] = y
    tg = grid.t
    for k in range(start, start + nxt * grid.n_t, nxt):
        t, j = tg[k], k + nxt
        u0 = [a[k] for a in inputs]
        u1 = [a[j] for a in inputs]
        um = [0.5 * (a + b) for a, b in zip(u0, u1)]
        k1 = f(t, y, *u0)
        k2 = f(t + 0.5 * s, y + 0.5 * s * k1, *um)
        k3 = f(t + 0.5 * s, y + 0.5 * s * k2, *um)
        k4 = f(t + s, y + s * k3, *u1)
        y = y + (s / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if post is not None:
            y = post(y)
        if not np.all(np.isfinite(y)):
            raise IntegrationError(
                f"integration produced non-finite values at t={tg[j]:.6g}",
                tg[j])
        if blowup is not None and np.max(np.abs(y)) > blowup:
            raise IntegrationError(
                f"solution magnitude exceeded {blowup:.0e} at t={tg[j]:.6g} "
                "(finite-time escape)", tg[j])
        out[j] = y
    return out


def rk4(f, boundary_value, grid: Grids, direction: str = "forward") -> MatrixPath:
    """Classical 4th-order Runge-Kutta over the grid.

    ``f(t, y)`` returns dy/dt with the same shape as y.  Forward marches
    from t=0, backward from t=T; the full path on the grid is returned.
    Non-finite values raise IntegrationError carrying the failure time.
    """
    values = _rk4_march(f, boundary_value, grid, direction)
    return MatrixPath(values=values, grid=grid, direction=direction)


def _symmetrize(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


def solve_riccati_pi_delta(spec: ProblemSpec, delta_prime: float,
                           grid: Grids | None = None) -> RiccatiSolution:
    """Backward quadratic curvature equation with damped risk weight.

        dPi/dt = -Pi A - A^T Pi + Pi (B R^-1 B^T - 2 g' sigma sigma^T) Pi - Q,
        Pi(T) = Qf,    g' = gamma / (1 + delta_prime).

    delta_prime = 0 is the undamped problem.  The path is symmetrized after
    every step; entries above 1e12 abort with the escape time.
    """
    if delta_prime < 0:
        raise ValueError("delta_prime must be >= 0")
    grid = grid or spec.grids
    c = spec.coeffs
    g_eff = c.gamma / (1.0 + delta_prime)

    def f(t, Pi):
        A = c.A(t)
        return (-Pi @ A - A.T @ Pi
                + Pi @ c.riccati_quadratic(t, g_eff) @ Pi - c.Q(t))

    values = _rk4_march(f, _symmetrize(c.Qf), grid, "backward",
                        post=_symmetrize, blowup=BLOWUP_LIMIT)
    return RiccatiSolution(Pi=MatrixPath(values=values, grid=grid,
                                         direction="backward"))


def solve_riccati_pi(spec: ProblemSpec, grid: Grids | None = None) -> RiccatiSolution:
    """Undamped backward curvature equation; see solve_riccati_pi_delta."""
    return solve_riccati_pi_delta(spec, 0.0, grid)


def closed_loop_drift(spec: ProblemSpec, Pi: RiccatiSolution):
    """t -> A(t) - B R^-1 B^T Pi(t), the optimally controlled mean drift."""
    c = spec.coeffs

    def A_cl(t):
        return c.A(t) - c.BRBt(t) @ Pi.at(t)

    return A_cl


def costate_drift(spec: ProblemSpec, Pi: RiccatiSolution,
                  gamma_eff: float | None = None):
    """t -> A^T - Pi B R^-1 B^T + 2 gamma Pi sigma sigma^T (offset operator)."""
    c = spec.coeffs
    g = c.gamma if gamma_eff is None else gamma_eff

    def M(t):
        P = Pi.at(t)
        sig = c.sigma(t)
        return c.A(t).T - P @ c.BRBt(t) + 2.0 * g * (P @ (sig @ sig.T))

    return M


@dataclass(frozen=True)
class FundamentalMatrices:
    """State-transition matrices of the mean and offset linear systems.

    Psi(t, s) maps a value at time s to the solution value at time t.  Both
    families are stored factored through t=0: the forward paths Psi(t, 0)
    and their inverses Psi(0, t), composed on demand as
    Psi(t, s) = Psi(t, 0) Psi(0, s).
    """

    z_fwd: np.ndarray   # (n_t+1, n, n) Psi_z(t, 0)
    z_inv: np.ndarray   # (n_t+1, n, n) Psi_z(0, t)
    s_fwd: np.ndarray
    s_inv: np.ndarray
    grid: Grids
    warnings: tuple[str, ...] = field(default=())

    def psi_z(self, i_t: int, i_s: int) -> np.ndarray:
        return self.z_fwd[i_t] @ self.z_inv[i_s]

    def psi_s(self, i_t: int, i_s: int) -> np.ndarray:
        return self.s_fwd[i_t] @ self.s_inv[i_s]


def fundamental_matrices(spec: ProblemSpec, Pi: RiccatiSolution,
                         grid: Grids | None = None) -> FundamentalMatrices:
    """Integrate both transition-matrix families on the grid.

    Psi_z solves dy/dt = (A - B R^-1 B^T Pi) y and Psi_s solves
    dy/dt = -(A^T - Pi B R^-1 B^T + 2 gamma Pi sigma sigma^T) y, each from
    the identity at t=0; inverses come from one LU solve per node.  A
    condition number above 1e10 is reported in ``warnings``.
    """
    grid = grid or spec.grids
    n = spec.n
    A_cl = closed_loop_drift(spec, Pi)
    M = costate_drift(spec, Pi)

    z_fwd = _rk4_march(lambda t, Y: A_cl(t) @ Y, np.eye(n), grid, "forward")
    s_fwd = _rk4_march(lambda t, Y: -M(t) @ Y, np.eye(n), grid, "forward")

    warnings: list[str] = []
    eye = np.eye(n)

    def invert(fwd, label):
        try:
            inv = np.linalg.solve(fwd, np.broadcast_to(eye, fwd.shape))
        except np.linalg.LinAlgError:
            raise IntegrationError(
                f"{label} transition matrix is numerically singular; the "
                "dynamics are too stiff for this grid") from None
        cond = np.linalg.cond(fwd)
        worst = float(np.max(cond))
        if worst > 1e10:
            warnings.append(
                f"{label} transition matrices are ill-conditioned "
                f"(max condition number {worst:.3e})")
        return inv

    z_inv = invert(z_fwd, "mean")
    s_inv = invert(s_fwd, "offset")
    return FundamentalMatrices(z_fwd=z_fwd, z_inv=z_inv, s_fwd=s_fwd,
                               s_inv=s_inv, grid=grid, warnings=tuple(warnings))


def solve_p_ell_stack(spec: ProblemSpec, Pi: RiccatiSolution,
                      lambdas: np.ndarray, grid: Grids | None = None) -> np.ndarray:
    """Backward decoupling matrices P^l for a batch of kernel eigenvalues.

        dP/dt = -P (A_cl + l D) - (A_cl^T + 2 gamma Pi sigma sigma^T) P
                + l P B R^-1 B^T P + (Q Gamma - Pi D),
        P(T) = -Qf Gamma_f,

    where A_cl = A - B R^-1 B^T Pi.  l = 0 gives the linear equation for
    the eigenfunction-orthogonal subspace.  Returns (L, n_t+1, n, n).
    """
    grid = grid or spec.grids
    c = spec.coeffs
    lam = np.asarray(lambdas, dtype=float).reshape(-1, 1, 1)
    n = spec.n

    def f(t, P):
        Pi_t = Pi.at(t)
        BRB = c.BRBt(t)
        A_cl = c.A(t) - BRB @ Pi_t
        D = c.D(t)
        sig = c.sigma(t)
        left = A_cl.T + 2.0 * c.gamma * (Pi_t @ (sig @ sig.T))
        src = c.Q(t) @ c.Gamma - Pi_t @ D
        return (-P @ (A_cl + lam * D) - left @ P
                + lam * (P @ BRB @ P) + src)

    terminal = np.broadcast_to(-c.Qf @ c.Gamma_f, (len(lam), n, n)).copy()
    try:
        values = _rk4_march(f, terminal, grid, "backward", blowup=BLOWUP_LIMIT)
    except IntegrationError as exc:
        if len(lam) == 1:
            raise IntegrationError(
                f"decoupling equation escaped for eigenvalue "
                f"{float(lam.ravel()[0]):.6g}: {exc}", exc.t_fail) from None
        # locate the offending eigenvalue by solving one at a time
        for l in np.ravel(lambdas):
            solve_p_ell_stack(spec, Pi, np.array([l]), grid)
        raise exc
    return np.swapaxes(values, 0, 1)


def solve_p_perp(spec: ProblemSpec, Pi: RiccatiSolution,
                 grid: Grids | None = None) -> MatrixPath:
    """Backward linear decoupling matrix on the orthogonal subspace (l = 0)."""
    grid = grid or spec.grids
    values = solve_p_ell_stack(spec, Pi, np.zeros(1), grid)[0]
    return MatrixPath(values=values, grid=grid, direction="backward")


def solve_p_ell(spec: ProblemSpec, Pi: RiccatiSolution, lambda_ell: float,
                grid: Grids | None = None) -> MatrixPath:
    """Backward quadratic decoupling matrix for one kernel eigenvalue."""
    grid = grid or spec.grids
    values = solve_p_ell_stack(spec, Pi, np.array([lambda_ell]), grid)[0]
    return MatrixPath(values=values, grid=grid, direction="backward")
