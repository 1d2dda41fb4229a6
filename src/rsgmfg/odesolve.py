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
hold a value at every node and at every interval midpoint.  The
coefficients are stage tables built once per spec by ``march_tables``
and shared by the forward and backward marches: the curvature march
reads the Pi-free rows, and ``MarchTables.with_curvature`` adds the
Pi-derived ones to the same set, with Pi at each midpoint by linear
interpolation, so a right-hand side
``f(y, *u)`` is array arithmetic with no time argument and no
coefficient calls.  ``fundamental_matrices`` and ``solve_p_ell_stack``
read their coefficients from those tables.
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

from .core import Grids, ProblemSpec, _table
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


def _stage_times(grid: Grids) -> np.ndarray:
    """Stage times of a march in either direction.

    Row 2k is the node t_k and row 2i+1 the midpoint 0.5 (t_i + t_i+1) of
    the interval [t_i, t_i+1], where RK4 puts its middle stages whichever
    way it steps.  A stage table has one row per stage time.
    """
    tg = grid.t
    out = np.empty(2 * grid.n_t + 1)
    out[0::2] = tg
    out[1::2] = 0.5 * (tg[:-1] + tg[1:])
    return out


def _rk4_march(f, boundary_value, grid: Grids, direction: str,
               inputs: tuple = (), post=None,
               blowup: float | None = None) -> np.ndarray:
    """Classical RK4 over every step of the grid: the one stepping loop.

    ``f(y, *u)`` returns dy/dt; it takes no time, since every coefficient
    arrives in ``inputs``.  Each array there is a node table (leading axis
    n_t + 1: node values at stages 1 and 4, the mean of the two nodes at
    stages 2-3) or a stage table (leading axis 2 n_t + 1, rows at
    ``_stage_times``: node rows at stages 1 and 4, the midpoint row at
    stages 2-3), so one table serves both directions.  Forward marches
    from t=0 and backward from t=T, with the signed step s = +h / -h.
    ``post`` maps each new value (e.g. symmetrizes it).  Returns the
    (n_t + 1, ...) node values; a non-finite value, or one above
    ``blowup``, raises IntegrationError carrying the node time.
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    s, nxt, start = ((grid.h, 1, 0) if direction == "forward"
                     else (-grid.h, -1, grid.n_t))
    node = [a.shape[0] == grid.n_t + 1 for a in inputs]
    y = np.asarray(boundary_value, dtype=float).copy()
    out = np.empty((grid.n_t + 1,) + y.shape)
    out[start] = y
    for k in range(start, start + nxt * grid.n_t, nxt):
        j = k + nxt
        u0 = [a[k] if nd else a[2 * k] for a, nd in zip(inputs, node)]
        u1 = [a[j] if nd else a[2 * j] for a, nd in zip(inputs, node)]
        # row k + j of a stage table is the midpoint of nodes k and j
        um = [0.5 * (a0 + a1) if nd else a[k + j]
              for a, nd, a0, a1 in zip(inputs, node, u0, u1)]
        k1 = f(y, *u0)
        k2 = f(y + 0.5 * s * k1, *um)
        k3 = f(y + 0.5 * s * k2, *um)
        k4 = f(y + s * k3, *u1)
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


class MarchTables(NamedTuple):
    """The coefficients of the marches as stage tables.

    Each array has one row per stage time of ``_stage_times``, so one set
    serves the forward and the backward marches alike: constant
    coefficients are broadcast views of their one value, time-varying ones
    are evaluated at every stage time (see ``core._table``).  ``weight`` is
    B R^-1 B^T - 2 gamma sigma sigma^T, and it and ``costate`` use the
    spec's risk weight gamma.  ``march_tables`` builds them without Pi
    (for the curvature march itself), the Pi-derived ones None;
    ``with_curvature`` adds those to that same set once Pi is solved.
    """

    grid: Grids
    A: np.ndarray
    BRBt: np.ndarray
    Q: np.ndarray
    D: np.ndarray
    GammaTQGamma: np.ndarray
    ssT: np.ndarray                     # sigma sigma^T
    weight: np.ndarray
    A_cl: np.ndarray | None = None      # A - B R^-1 B^T Pi
    costate: np.ndarray | None = None   # A^T - Pi BRBt + 2 gamma Pi sig sig^T
    source: np.ndarray | None = None    # Q Gamma - Pi D
    trace: np.ndarray | None = None     # Tr(sig sig^T Pi)

    def with_curvature(self, spec: ProblemSpec,
                       Pi: MatrixPath) -> MarchTables:
        """These Pi-free tables of ``spec`` with the Pi-derived rows added;
        Pi enters at each stage time through ``MatrixPath.at_times``."""
        c, g = spec.coeffs, spec.coeffs.gamma
        ts = _stage_times(self.grid)
        P = Pi.at_times(ts)
        return self._replace(
            A_cl=self.A - self.BRBt @ P,
            costate=(np.swapaxes(self.A, -1, -2) - P @ self.BRBt
                     + 2.0 * g * (P @ self.ssT)),
            source=_table(ts, lambda t: c.Q(t) @ c.Gamma, c.Q) - P @ self.D,
            trace=np.trace(self.ssT @ P, axis1=-2, axis2=-1))


def march_tables(spec: ProblemSpec) -> MarchTables:
    """Tabulate the Pi-free march coefficients once on the spec's grid.

    One set serves every march of a solve, forward and backward; once Pi
    is solved, ``MarchTables.with_curvature`` adds the Pi-derived rows.
    """
    c, grid = spec.coeffs, spec.grids
    ts = _stage_times(grid)

    A, BRB = _table(ts, c.A, c.A), _table(ts, c.BRBt, c.B, c.R)
    D, Q = _table(ts, c.D, c.D), _table(ts, c.Q, c.Q)
    ssT = _table(ts, lambda t: c.sigma(t) @ c.sigma(t).T, c.sigma)
    return MarchTables(
        grid=grid, A=A, BRBt=BRB, Q=Q, D=D,
        GammaTQGamma=_table(ts, lambda t: c.Gamma.T @ c.Q(t) @ c.Gamma, c.Q),
        ssT=ssT, weight=BRB - 2.0 * c.gamma * ssT)


def solve_riccati_pi_delta(spec: ProblemSpec, delta_prime: float,
                           tables: MarchTables | None = None) -> MatrixPath:
    """Backward quadratic curvature equation with damped risk weight.

        dPi/dt = -Pi A - A^T Pi + Pi (B R^-1 B^T - 2 g' sigma sigma^T) Pi - Q,
        Pi(T) = Qf,    g' = gamma / (1 + delta_prime),

    on spec.grids: the curvature of ``spec.damped(delta_prime)``, and
    delta_prime = 0 is the undamped problem.  ``tables`` are the Pi-free
    march tables of that damped spec when the caller already holds them
    (so that they are built once and later take the Pi rows); otherwise
    they are built here.  The path is symmetrized after every step;
    entries above 1e12 abort with the escape time.
    """
    grid = spec.grids
    tab = march_tables(spec.damped(delta_prime)) if tables is None else tables

    def f(Pi, A, K, Q):
        return -Pi @ A - A.T @ Pi + Pi @ K @ Pi - Q

    values = _rk4_march(f, _symmetrize(spec.coeffs.Qf), grid, "backward",
                        inputs=(tab.A, tab.weight, tab.Q),
                        post=_symmetrize, blowup=BLOWUP_LIMIT)
    return MatrixPath(values=values, grid=grid)


def solve_riccati_pi(spec: ProblemSpec,
                     tables: MarchTables | None = None) -> MatrixPath:
    """Undamped backward curvature equation; see solve_riccati_pi_delta."""
    return solve_riccati_pi_delta(spec, 0.0, tables)


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


def _transition_rhs(Y, M):
    return M @ Y


def _psi_z(tables: MarchTables) -> np.ndarray:
    """Psi_z(t, 0) on the tables' grid: dy/dt = A_cl y, y(0) = I."""
    return _rk4_march(_transition_rhs, np.eye(tables.A.shape[-1]),
                      tables.grid, "forward", inputs=(tables.A_cl,))


def fundamental_matrices(spec: ProblemSpec,
                         tables: MarchTables) -> FundamentalMatrices:
    """Integrate both transition-matrix families on the tables' grid.

    Psi_z solves dy/dt = (A - B R^-1 B^T Pi) y and Psi_s solves
    dy/dt = -(A^T - Pi B R^-1 B^T + 2 gamma Pi sigma sigma^T) y, each from
    the identity at t=0, with the coefficients read from the
    ``march_tables`` of (spec, Pi); inverses come from one LU solve
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
    ``march_tables`` of (spec, Pi): Pi and B R^-1 B^T are symmetric, so
    the left coefficient is the costate table A^T - Pi B R^-1 B^T +
    2 gamma Pi sigma sigma^T.  l = 0 gives the linear
    equation for the eigenfunction-orthogonal subspace (P_perp).  Returns
    (L, n_t+1, n, n).
    """
    c = spec.coeffs
    lam = np.asarray(lambdas, dtype=float).reshape(-1, 1, 1)
    n = spec.n

    def f(P, A_cl, D, left, BRB, src):
        return (-P @ (A_cl + lam * D) - left @ P
                + lam * (P @ BRB @ P) + src)

    terminal = np.broadcast_to(-c.Qf @ c.Gamma_f, (len(lam), n, n)).copy()
    try:
        values = _rk4_march(f, terminal, tables.grid, "backward",
                            inputs=(tables.A_cl, tables.D, tables.costate,
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
