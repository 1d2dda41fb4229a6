"""Deterministic time stepping on the shared grid.

Classical fixed-step RK4 is used throughout: no adaptivity, so a given
grid produces identical output across runs and platforms.  The quadratic
backward equation for the value-function curvature, the decoupling
matrices P^l and the state-transition (fundamental solution) matrices
all live here.

``_rk4_march`` is the one stepping loop of the package: every march here
and in gmfg (the offset S, the value offset r, the spectral components
and the consistency re-propagation) goes through it.  Its inputs are
node tables (solution fields such as z, S or P^l), which enter the
half-step stages as the mean of the two nodes, or stage tables, which
hold a value at every node and at every half-step.  The coefficients are
stage tables built once per (spec, grid, Pi, direction) by
``march_tables``, with each half-step value taken at the march's own
stage time and Pi there by linear interpolation, so a right-hand side is
array arithmetic with no coefficient calls.  ``fundamental_matrices``
and ``solve_p_ell_stack`` read their coefficients from those tables.
The tables hold the values that per-stage coefficient calls would
give, so the measured order is the same as with those calls: only Pi
itself is 4th order in h; z, S and r converge at 2nd order.  Measured
with solve_spectral on the benchmark preset at n_t = 125...1000 and
n_alpha = 20, the successive halving ratios are 15.95 and 14.78 for Pi
and 4.00 for z, S and r.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import Grids, ProblemSpec
from .errors import IntegrationError

BLOWUP_LIMIT = 1e12


@dataclass(frozen=True)
class MatrixPath:
    """Grid-indexed path of arrays with linear interpolation in t."""

    values: np.ndarray  # (n_t + 1, ...) leading axis indexes the time grid
    grid: Grids

    def at_times(self, ts: np.ndarray) -> np.ndarray:
        """Values at each time in ``ts``: the node value within 1e-9 steps
        of a node, the end value outside [0, T], else the linear blend."""
        x = np.asarray(ts, dtype=float) / self.grid.h
        n_t = self.grid.n_t
        i = np.clip(np.floor(x), 0, n_t - 1).astype(int)
        w = (x - i).reshape(x.shape + (1,) * (self.values.ndim - 1))
        out = (1.0 - w) * self.values[i] + w * self.values[i + 1]
        r = np.round(x)
        node = np.where(np.abs(x - r) < 1e-9, np.clip(r, 0, n_t),
                        np.where(x <= 0, 0, np.where(x >= n_t, n_t, -1)))
        hit = node >= 0
        out[hit] = self.values[node[hit].astype(int)]
        return out


@dataclass(frozen=True)
class RiccatiSolution:
    """Symmetric curvature path Pi with Pi(T) equal to the terminal weight."""

    Pi: MatrixPath

    @property
    def values(self) -> np.ndarray:
        return self.Pi.values


def _signed_step(grid: Grids, direction: str) -> float:
    if direction == "forward":
        return grid.h
    if direction == "backward":
        return -grid.h
    raise ValueError("direction must be 'forward' or 'backward'")


def _stage_times(grid: Grids, direction: str) -> np.ndarray:
    """Times at which a march in ``direction`` evaluates its right-hand side.

    Row 2k is the node t_k and row 2i+1 the half-step of the interval
    [t_i, t_i+1], computed as the march steps onto it: t_i + h/2 forward,
    t_i+1 - h/2 backward.  A stage table has one row per stage time.
    """
    s = _signed_step(grid, direction)
    tg = grid.t
    out = np.empty(2 * grid.n_t + 1)
    out[0::2] = tg
    out[1::2] = (tg[:-1] if s > 0 else tg[1:]) + 0.5 * s
    return out


def _rk4_march(f, boundary_value, grid: Grids, direction: str,
               inputs: tuple = (), post=None,
               blowup: float | None = None) -> np.ndarray:
    """Classical RK4 over every step of the grid: the one stepping loop.

    ``f(t, y, *u)`` returns dy/dt at stage time t (see ``_stage_times``).
    Each array in ``inputs`` is a node table (leading axis n_t + 1: node
    values at stages 1 and 4, the mean of the two nodes at stages 2-3) or
    a stage table (leading axis 2 n_t + 1: node rows at stages 1 and 4,
    the half-step row at stages 2-3).  Forward marches from t=0 and
    backward from t=T, both with the signed step s = +h / -h.  ``post``
    maps each new value (e.g. symmetrizes it).  Returns the (n_t + 1, ...)
    node values; a non-finite value, or one above ``blowup``, raises
    IntegrationError carrying the node time.
    """
    s = _signed_step(grid, direction)
    nxt, start = (1, 0) if s > 0 else (-1, grid.n_t)
    times = _stage_times(grid, direction)
    node = [a.shape[0] == grid.n_t + 1 for a in inputs]
    y = np.asarray(boundary_value, dtype=float).copy()
    out = np.empty((grid.n_t + 1,) + y.shape)
    out[start] = y
    for k in range(start, start + nxt * grid.n_t, nxt):
        j = k + nxt
        u0 = [a[k] if nd else a[2 * k] for a, nd in zip(inputs, node)]
        u1 = [a[j] if nd else a[2 * j] for a, nd in zip(inputs, node)]
        # row k + j of a stage table is the half-step between nodes k and j
        um = [0.5 * (a0 + a1) if nd else a[k + j]
              for a, nd, a0, a1 in zip(inputs, node, u0, u1)]
        th = times[k + j]
        k1 = f(times[2 * k], y, *u0)
        k2 = f(th, y + 0.5 * s * k1, *um)
        k3 = f(th, y + 0.5 * s * k2, *um)
        k4 = f(times[2 * j], y + s * k3, *u1)
        y = y + (s / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if post is not None:
            y = post(y)
        if not np.all(np.isfinite(y)):
            raise IntegrationError(
                f"integration produced non-finite values at t={grid.t[j]:.6g}",
                grid.t[j])
        if blowup is not None and np.max(np.abs(y)) > blowup:
            raise IntegrationError(
                f"solution magnitude exceeded {blowup:.0e} at "
                f"t={grid.t[j]:.6g} (finite-time escape)", grid.t[j])
        out[j] = y
    return out


def _symmetrize(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


def _table(ts: np.ndarray, fn, *parts) -> np.ndarray:
    """fn(t) at every time in ``ts``, stacked along a leading axis.

    When every coefficient in ``parts`` is constant the table is a
    read-only broadcast view of the one value fn(ts[0]).  This one rule
    builds the stage tables of ``march_tables`` and the node tables of the
    simulator.
    """
    if all(p.is_constant for p in parts):
        v = np.asarray(fn(ts[0]), dtype=float)
        return np.broadcast_to(v, ts.shape + v.shape)
    return np.stack([fn(t) for t in ts])


class MarchTables(NamedTuple):
    """The coefficients of the marches as stage tables of one direction.

    Each array has one row per stage time of ``_stage_times``: constant
    coefficients are broadcast views of their one value, time-varying ones
    are evaluated at every stage time (see ``_table``).  ``weight`` is
    B R^-1 B^T - 2 gamma sigma sigma^T, and it, ``costate`` and ``p_left``
    use the risk weight gamma the tables were built with.  Tables built
    without Pi (for the curvature march itself) leave the Pi-derived ones
    None.
    """

    grid: Grids
    A: np.ndarray
    BRBt: np.ndarray
    Q: np.ndarray
    D: np.ndarray
    GammaTQGamma: np.ndarray
    ssT: np.ndarray                     # sigma sigma^T
    weight: np.ndarray
    Pi: np.ndarray | None = None
    A_cl: np.ndarray | None = None      # A - B R^-1 B^T Pi
    costate: np.ndarray | None = None   # A^T - Pi BRBt + 2 gamma Pi sig sig^T
    p_left: np.ndarray | None = None    # A_cl^T + 2 gamma Pi sig sig^T
    source: np.ndarray | None = None    # Q Gamma - Pi D
    trace: np.ndarray | None = None     # Tr(sig sig^T Pi)


def march_tables(spec: ProblemSpec, grid: Grids, direction: str,
                 Pi: RiccatiSolution | None = None,
                 gamma_eff: float | None = None) -> MarchTables:
    """Tabulate the march coefficients once for one direction on ``grid``.

    Pi enters at each stage time through ``MatrixPath.at_times``;
    ``gamma_eff`` defaults to the spec's gamma.  One set serves every march
    of a solve in that direction.
    """
    c = spec.coeffs
    g = c.gamma if gamma_eff is None else gamma_eff
    ts = _stage_times(grid, direction)

    A, BRB = _table(ts, c.A, c.A), _table(ts, c.BRBt, c.B, c.R)
    D, Q = _table(ts, c.D, c.D), _table(ts, c.Q, c.Q)
    ssT = _table(ts, lambda t: c.sigma(t) @ c.sigma(t).T, c.sigma)
    tables = MarchTables(
        grid=grid, A=A, BRBt=BRB, Q=Q, D=D,
        GammaTQGamma=_table(ts, lambda t: c.Gamma.T @ c.Q(t) @ c.Gamma, c.Q),
        ssT=ssT, weight=BRB - 2.0 * g * ssT)
    if Pi is None:
        return tables
    P = Pi.Pi.at_times(ts)
    A_cl = A - BRB @ P
    PssT = P @ ssT
    return tables._replace(
        Pi=P, A_cl=A_cl,
        costate=np.swapaxes(A, -1, -2) - P @ BRB + 2.0 * g * PssT,
        p_left=np.swapaxes(A_cl, -1, -2) + 2.0 * g * PssT,
        source=_table(ts, lambda t: c.Q(t) @ c.Gamma, c.Q) - P @ D,
        trace=np.trace(ssT @ P, axis1=-2, axis2=-1))


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
    tab = march_tables(spec, grid, "backward",
                       gamma_eff=spec.gamma / (1.0 + delta_prime))

    def f(t, Pi, A, K, Q):
        return -Pi @ A - A.T @ Pi + Pi @ K @ Pi - Q

    values = _rk4_march(f, _symmetrize(spec.coeffs.Qf), grid, "backward",
                        inputs=(tab.A, tab.weight, tab.Q),
                        post=_symmetrize, blowup=BLOWUP_LIMIT)
    return RiccatiSolution(Pi=MatrixPath(values=values, grid=grid))


def solve_riccati_pi(spec: ProblemSpec, grid: Grids | None = None) -> RiccatiSolution:
    """Undamped backward curvature equation; see solve_riccati_pi_delta."""
    return solve_riccati_pi_delta(spec, 0.0, grid)


@dataclass(frozen=True)
class FundamentalMatrices:
    """State-transition matrices of the mean and offset linear systems.

    Psi(t, s) maps a value at time s to the solution value at time t.  Both
    families are stored factored through t=0: the forward paths Psi(t, 0)
    and their inverses Psi(0, t), so that Psi(t_i, t_j) is
    ``z_fwd[i] @ z_inv[j]`` (and likewise for the offset family).
    """

    z_fwd: np.ndarray   # (n_t+1, n, n) Psi_z(t, 0)
    z_inv: np.ndarray   # (n_t+1, n, n) Psi_z(0, t)
    s_fwd: np.ndarray
    s_inv: np.ndarray
    warnings: tuple[str, ...] = field(default=())


def _transition_rhs(t, Y, M):
    return M @ Y


def _psi_z(tables: MarchTables) -> np.ndarray:
    """Psi_z(t, 0) on the grid from forward tables: dy/dt = A_cl y, y(0) = I."""
    return _rk4_march(_transition_rhs, np.eye(tables.A.shape[-1]),
                      tables.grid, "forward", inputs=(tables.A_cl,))


def fundamental_matrices(spec: ProblemSpec,
                         tables: MarchTables) -> FundamentalMatrices:
    """Integrate both transition-matrix families on the tables' grid.

    Psi_z solves dy/dt = (A - B R^-1 B^T Pi) y and Psi_s solves
    dy/dt = -(A^T - Pi B R^-1 B^T + 2 gamma Pi sigma sigma^T) y, each from
    the identity at t=0, with the coefficients read from the forward
    ``march_tables`` of (spec, grid, Pi); inverses come from one LU solve
    per node.  A condition number above 1e10 is reported in ``warnings``.
    """
    eye = np.eye(spec.n)
    z_fwd = _psi_z(tables)
    s_fwd = _rk4_march(_transition_rhs, eye, tables.grid, "forward",
                       inputs=(-tables.costate,))

    warnings: list[str] = []

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
                               s_inv=s_inv, warnings=tuple(warnings))


def solve_p_ell_stack(spec: ProblemSpec, tables: MarchTables,
                      lambdas: np.ndarray) -> np.ndarray:
    """Backward decoupling matrices P^l for a batch of kernel eigenvalues.

        dP/dt = -P (A_cl + l D) - (A_cl^T + 2 gamma Pi sigma sigma^T) P
                + l P B R^-1 B^T P + (Q Gamma - Pi D),
        P(T) = -Qf Gamma_f,

    where A_cl = A - B R^-1 B^T Pi, with the coefficients read from the
    backward ``march_tables`` of (spec, grid, Pi).  l = 0 gives the linear
    equation for the eigenfunction-orthogonal subspace (P_perp).  Returns
    (L, n_t+1, n, n).
    """
    c = spec.coeffs
    lam = np.asarray(lambdas, dtype=float).reshape(-1, 1, 1)
    n = spec.n

    def f(t, P, A_cl, D, left, BRB, src):
        return (-P @ (A_cl + lam * D) - left @ P
                + lam * (P @ BRB @ P) + src)

    terminal = np.broadcast_to(-c.Qf @ c.Gamma_f, (len(lam), n, n)).copy()
    try:
        values = _rk4_march(f, terminal, tables.grid, "backward",
                            inputs=(tables.A_cl, tables.D, tables.p_left,
                                    tables.BRBt, tables.source),
                            blowup=BLOWUP_LIMIT)
    except IntegrationError as exc:
        if len(lam) == 1:
            raise IntegrationError(
                f"decoupling equation escaped for eigenvalue "
                f"{float(lam.ravel()[0]):.6g}: {exc}", exc.t_fail) from None
        # locate the offending eigenvalue by solving one at a time
        for l in np.ravel(lambdas):
            solve_p_ell_stack(spec, tables, np.array([l]))
        raise exc
    return np.swapaxes(values, 0, 1)
