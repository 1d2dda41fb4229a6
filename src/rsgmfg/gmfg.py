"""Equilibrium mean-field system: fixed-point and spectral solvers.

The unknowns are, per node alpha, the weighted mean state z_alpha (forward)
and the affine costate offset S_alpha (backward), coupled through the
kernel:

    dz/dt =  (A - BR^-1B^T Pi) z_a + D (G z)(a) - BR^-1B^T (G S)(a),
    dS/dt = -(A^T - Pi BR^-1B^T + 2 gamma Pi sigma sigma^T) S_a
            + (Q Gamma - Pi D) z_a,
    z_a(0) = (G m)(a),   S_a(T) = -Qf Gamma_f z_a(T),

plus the scalar value-offset r_a recovered backward once (z, S) is known.
Two independent routes are provided: Picard iteration of the equivalent
integral fixed-point map, and decoupling through the kernel's spectrum.

Every solver and certificate takes one ``MeanFieldProblem``, which builds
Pi, the kernel matrix W, its eigenpairs, the march tables and Psi once, on
first use; a solution keeps Pi but not the problem and its W.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import (AssumptionReport, Grids, ProblemSpec, _dot, _eigvalsh,
                   _matvec, _quad, eigmax, eigmin, validate_assumptions,
                   PSD_TOL)
from .errors import AssumptionError, ConvergenceError
from .graphon import (Graphon, SpectralDecomposition, grid_matrix,
                      spectral_decompose)
from .odesolve import (FundamentalMatrices, MarchTables, MatrixPath,
                       _psi_z, _rk4_march, fundamental_matrices, march_tables,
                       solve_p_ell_stack, solve_riccati_pi)


@dataclass(frozen=True)
class MeanFieldProblem:
    """One (spec, graphon) pair on ``spec.grids``, built piece by piece.

    Each cached member is built on its first use and then shared by every
    solver and certificate given the problem; ``rank_tol`` is the
    eigenvalue cut of ``decomp``.  ``Pi`` raises AssumptionError, before
    solving anything, when the risk-sensitivity condition fails.
    """

    spec: ProblemSpec
    g: Graphon
    rank_tol: float = 1e-8

    @cached_property
    def assumptions(self) -> AssumptionReport:
        return validate_assumptions(self.spec)

    @cached_property
    def Pi(self) -> MatrixPath:
        if not self.assumptions.h4_ok:
            raise AssumptionError(
                "risk-sensitivity condition fails: min eigenvalue "
                f"{self.assumptions.h4_min_eigenvalue:.6g} < 0")
        return solve_riccati_pi(self.spec, self.coefficient_tables)

    @cached_property
    def W(self) -> np.ndarray:
        """Kernel on the node grid, W_ij = g(alpha_i, alpha_j); read-only."""
        W = grid_matrix(self.g, self.spec.grids.alpha)
        W.setflags(write=False)
        return W

    @cached_property
    def decomp(self) -> SpectralDecomposition:
        return spectral_decompose(self.W, self.rank_tol)

    @cached_property
    def coefficient_tables(self) -> MarchTables:
        """The Pi-free march tables: the curvature march reads them and
        ``tables`` adds the Pi rows to the same set."""
        return march_tables(self.spec)

    @cached_property
    def tables(self) -> MarchTables:
        return self.coefficient_tables.with_curvature(self.spec, self.Pi)

    @cached_property
    def psi(self) -> FundamentalMatrices:
        return fundamental_matrices(self.spec, self.tables)

    @cached_property
    def contraction(self) -> ContractionReport:
        return contraction_constant(self)


@dataclass(frozen=True)
class MeanFieldSolution:
    """Solution fields on the (alpha, t) grid.

    z and S have shape (n_alpha, n_t + 1, n); r has shape (n_alpha, n_t + 1).
    Pi is the curvature the fields were solved with, on the same grid.
    """

    z: np.ndarray
    S: np.ndarray
    r: np.ndarray
    method: str
    alphas: np.ndarray
    grid: Grids
    Pi: MatrixPath
    iterations: int | None = None
    residual: float | None = None
    extras: dict = field(default_factory=dict)

    def alpha_index(self, alpha: float | np.ndarray) -> int | np.ndarray:
        """Index of the grid node nearest ``alpha``, the lower one on a tie
        (the argmin of |alphas - alpha|): an int for a scalar, an index
        array for an array of points, with no (points, nodes) matrix."""
        g = np.append(self.alphas, np.inf)     # a right neighbour for all
        v = np.asarray(alpha, dtype=float)
        r = np.clip(np.searchsorted(g, v), 1, len(g) - 1)
        i = np.where(np.abs(v - g[r - 1]) <= np.abs(v - g[r]), r - 1, r)
        return int(i) if i.ndim == 0 else i


@dataclass(frozen=True)
class ContractionReport:
    """Sufficient-contraction certificate for the fixed-point map.

    C_Xi bounds the operator norm of the integral map; C_Xi < 1 certifies a
    unique solution reachable by Picard iteration.  The bound is sufficient
    only: iteration may still converge when C_Xi >= 1.
    """

    c_g: float
    c_z: float
    c_S: float
    C_Xi: float
    contraction_ok: bool
    norm_D: float
    norm_BRB: float
    norm_QGammaPiD: float
    norm_QfGammaf: float
    T: float


@dataclass(frozen=True)
class MonotonicityReport:
    """Dominance-monotonicity certificate, identity-weight specialization.

    The three grid-checked matrix conditions are
      (i)   -(Q Gamma + Gamma^T Q - Pi D - D^T Pi)/2
            - gamma^2 Pi (sigma sigma^T)^2 Pi - D D^T / 4  >= 0,
      (ii)  B R^-1 B^T lambda_min - 2 I  > 0,
      (iii) -(Qf Gamma_f + Gamma_f^T Qf) >= 0,
    with lambda_min the smallest retained positive kernel eigenvalue.
    ``inequality_margins`` holds each condition's worst-case smallest
    eigenvalue over the time grid.
    """

    mu: float
    nu: float
    case: str  # "A", "B", or "neither"
    inequality_margins: tuple[float, float, float]
    lambda_min_positive: float


def _spec_norm(mats: np.ndarray) -> float:
    """Spectral norm of a matrix, or the largest over a stack of them."""
    if mats.shape[-2:] == (1, 1):
        return float(np.max(np.abs(mats)))
    return float(np.max(np.linalg.norm(mats, 2, axis=(-2, -1))))


def _apply_kernel(W: np.ndarray, fld: np.ndarray) -> np.ndarray:
    """Midpoint quadrature of the kernel operator on an (a, t, n) field."""
    n_alpha = W.shape[0]
    return (W @ fld.reshape(n_alpha, -1)).reshape(fld.shape) / n_alpha


def contraction_constant(problem: MeanFieldProblem) -> ContractionReport:
    """Evaluate the explicit operator-norm bound of the fixed-point map.

        C_Xi = c_g c_z |D| T
             + c_g c_z c_S |BR^-1B^T| (|Q Gamma - Pi D| T + |Qf Gamma_f|) T

    with c_g the largest kernel row mass, c_z / c_S the largest spectral
    norms of the two transition-matrix families over all grid time pairs,
    and time-varying coefficient norms maximized over the grid nodes.
    """
    c = problem.spec.coeffs
    psi = problem.psi
    nodes = problem.tables  # rows [0::2] are the grid nodes
    c_g = float(np.max(problem.W.mean(axis=1)))

    def pair_max(fwd, inv):
        if problem.spec.n == 1:     # max |Psi(t, 0)| max |Psi(0, s)|, O(K)
            return float(np.max(np.abs(fwd)) * np.max(np.abs(inv)))
        return max(_spec_norm(f @ inv) for f in fwd)

    c_z = pair_max(psi.z_fwd, psi.z_inv)
    c_S = pair_max(psi.s_fwd, psi.s_inv)

    norm_D = _spec_norm(nodes.D[0::2])
    norm_BRB = _spec_norm(nodes.BRBt[0::2])
    norm_QG = _spec_norm(nodes.source[0::2])
    norm_QfGf = _spec_norm(c.Qf @ c.Gamma_f)
    T = c.T
    C_Xi = (c_g * c_z * norm_D * T
            + c_g * c_z * c_S * norm_BRB * (norm_QG * T + norm_QfGf) * T)
    return ContractionReport(c_g=c_g, c_z=c_z, c_S=c_S, C_Xi=float(C_Xi),
                             contraction_ok=bool(C_Xi < 1.0), norm_D=norm_D,
                             norm_BRB=norm_BRB, norm_QGammaPiD=norm_QG,
                             norm_QfGammaf=norm_QfGf, T=T)


def apply_xi(problem: MeanFieldProblem, z_field: np.ndarray) -> np.ndarray:
    """Apply the integral fixed-point operator to a (alpha, t, n) field.

    Writing Psi_z / Psi_s for the transition matrices and G for the kernel
    quadrature, the image at (a, t) is

        int_0^t Psi_z(t,s) [ D (G z)(a,s) + BR^-1B^T (G w)(a,s) ] ds,
        w(b,s) = int_s^T Psi_s(s,r) (Q Gamma - Pi D) z(b,r) dr
               + Psi_s(s,T) Qf Gamma_f z(b,T),

    which is the source response of the mean equation once the backward
    offset is eliminated by variation of constants.  Time integrals use the
    trapezoid rule on the shared grid, node integrals the midpoint rule.
    """
    c = problem.spec.coeffs
    h = problem.spec.grids.h
    psi = problem.psi
    nodes = problem.tables
    E = psi.s_inv @ nodes.source[0::2]        # Psi_s(0,r)(Q Gamma - Pi D)
    q = np.einsum("tij,atj->ati", E, z_field)

    # I(b, s) = int_s^T q dr, backward cumulative trapezoid
    inc = 0.5 * h * (q[:, :-1] + q[:, 1:])
    I = np.zeros_like(q)
    I[:, :-1] = np.cumsum(inc[:, ::-1], axis=1)[:, ::-1]

    term = np.einsum("ij,aj->ai", psi.s_inv[-1] @ (c.Qf @ c.Gamma_f),
                     z_field[:, -1])
    w = np.einsum("tij,atj->ati", psi.s_fwd, I + term[:, None, :])

    Gz = _apply_kernel(problem.W, z_field)
    Gw = _apply_kernel(problem.W, w)

    ZD = psi.z_inv @ nodes.D[0::2]
    ZB = psi.z_inv @ nodes.BRBt[0::2]
    p = (np.einsum("tij,atj->ati", ZD, Gz)
         + np.einsum("tij,atj->ati", ZB, Gw))

    inc = 0.5 * h * (p[:, :-1] + p[:, 1:])
    C = np.zeros_like(p)
    C[:, 1:] = np.cumsum(inc, axis=1)
    return np.einsum("tij,atj->ati", psi.z_fwd, C)


def _solve_S_field(spec: ProblemSpec, tables: MarchTables,
                   z_field: np.ndarray) -> np.ndarray:
    """Backward RK4 for the offset equation, all nodes at once.

    The right-hand side applies M and the source by _matvec, so a node's
    offsets have the bits they have in any other stack of nodes: the
    epsilon-Nash experiment solves the damped law of every N in one
    stack, and each N's rows must equal a run with that N alone."""
    c = spec.coeffs
    S_T = np.einsum("ij,aj->ai", -(c.Qf @ c.Gamma_f),
                    z_field[:, tables.grid.n_t])

    def rhs(S_val, z_val, M, src):
        return -_matvec(M, S_val) + _matvec(src, z_val)

    S = _rk4_march(rhs, S_T, tables.grid, "backward",
                   inputs=(np.swapaxes(z_field, 0, 1), tables.costate,
                           tables.source))
    return np.swapaxes(S, 0, 1)


def _solve_r_field(spec: ProblemSpec, tables: MarchTables,
                   z_field: np.ndarray, S_field: np.ndarray) -> np.ndarray:
    """Backward RK4 for the scalar value offset, all nodes at once; the
    forms are elementwise (_quad, _dot), so a node's r has the bits it
    has in any other stack of nodes.

        dr/dt = S^T (BR^-1B^T - 2 gamma sigma sigma^T) S - 2 z^T D^T S
                - z^T Gamma^T Q Gamma z - Tr(sigma sigma^T Pi),
        r(T)  = z(T)^T Gamma_f^T Qf Gamma_f z(T),

    with gamma the risk weight the ``tables`` were built with.
    """
    c = spec.coeffs
    zT = z_field[:, tables.grid.n_t]
    r_T = _quad(zT, c.Gamma_f.T @ c.Qf @ c.Gamma_f)

    def rhs(r_val, z_val, S_val, Kq, D, GQG, trace):
        return (_quad(S_val, Kq) - 2.0 * _dot(_matvec(D, z_val), S_val)
                - _quad(z_val, GQG) - trace)

    r = _rk4_march(rhs, r_T, tables.grid, "backward",
                   inputs=(np.swapaxes(z_field, 0, 1),
                           np.swapaxes(S_field, 0, 1), tables.weight,
                           tables.D, tables.GammaTQGamma, tables.trace))
    return np.swapaxes(r, 0, 1)


def _initial_section(spec: ProblemSpec, W: np.ndarray, grids: Grids) -> np.ndarray:
    m = spec.initial.mean(grids.alpha)          # (n_alpha, n)
    return W @ m / grids.n_alpha


def solve_fixed_point(problem: MeanFieldProblem, tol: float = 1e-9,
                      max_iter: int = 500,
                      force: bool = False) -> MeanFieldSolution:
    """Picard iteration of the integral fixed-point equation.

    Starts from the frozen initial section z(a, t) = z(a, 0) and iterates
    z <- Xi z + Psi_z(t, 0) z(., 0) until the sup-norm change drops below
    ``tol``.  Requires the contraction certificate unless ``force`` is set;
    the bound is sufficient, not necessary, so forcing can still converge.
    """
    spec, grids = problem.spec, problem.spec.grids
    con = problem.contraction
    if not con.contraction_ok and not force:
        raise AssumptionError(
            f"contraction bound C_Xi = {con.C_Xi:.4g} >= 1; pass force=True "
            "to iterate anyway or use the spectral solver")

    z0 = _initial_section(spec, problem.W, grids)
    z_hom = np.einsum("tij,aj->ati", problem.psi.z_fwd, z0)

    z = np.repeat(z0[:, None, :], grids.n_t + 1, axis=1)
    change, history = np.inf, []
    for iterations in range(1, max_iter + 1):
        z_new = apply_xi(problem, z) + z_hom
        change = float(np.max(np.abs(z_new - z)))
        history.append(change)
        z = z_new
        if not np.isfinite(change) or change > 1e8:
            raise ConvergenceError(
                f"fixed-point iteration diverged at iteration {iterations} "
                f"(change {change:.3e}); the contraction bound C_Xi="
                f"{con.C_Xi:.4g} was not met", change)
        if change <= tol:
            break
    else:
        raise ConvergenceError(
            f"fixed-point iteration did not reach tol={tol:.3g} after "
            f"{max_iter} iterations (last change {change:.3e})", change)

    S = _solve_S_field(spec, problem.tables, z)
    r = _solve_r_field(spec, problem.tables, z, S)
    return MeanFieldSolution(z=z, S=S, r=r, method="fixed_point",
                             alphas=grids.alpha, grid=grids, Pi=problem.Pi,
                             iterations=iterations, residual=change,
                             extras={"C_Xi": con.C_Xi,
                                     "contraction_ok": con.contraction_ok,
                                     "residual_history": history})


def solve_spectral(problem: MeanFieldProblem) -> MeanFieldSolution:
    """Decouple the forward-backward system through the kernel's spectrum.

    The costate field is expressed as S = P z where P acts as P_perp on the
    subspace orthogonal to the retained eigenfunctions and as P_l along
    eigenfunction f_l.  Each eigencomponent c_l of z then obeys the closed
    forward equation

        dc_l/dt = (A - BR^-1B^T Pi + l D - l BR^-1B^T P_l) c_l,

    the orthogonal remainder follows the l = 0 dynamics, and the field is
    reassembled before recovering r node by node.
    """
    spec, grids = problem.spec, problem.spec.grids
    Pi = problem.Pi
    decomp = problem.decomp
    tables = problem.tables
    z0 = _initial_section(spec, problem.W, grids)

    F = decomp.eigenvectors                 # (n_alpha, L)
    lam = decomp.eigenvalues                # (L,)
    L = decomp.rank
    C0 = F.T @ z0 / grids.n_alpha           # (L, n)
    rho0 = z0 - F @ C0

    rho = np.einsum("tij,aj->ati", _psi_z(tables), rho0)
    # one backward march: row 0 is P_perp (l = 0), rows 1.. are P^l;
    # shape (L+1, K+1, n, n)
    P = solve_p_ell_stack(spec, tables, np.concatenate(([0.0], lam)))
    z = rho
    S = np.einsum("tij,atj->ati", P[0], rho)

    if L > 0:
        P_stack = P[1:]
        lam_c = lam[:, None, None]

        def comp_rhs(C_val, P_val, A_cl, D, BRB):
            M = A_cl[None] + lam_c * (D[None] - BRB[None] @ P_val)
            return np.einsum("lij,lj->li", M, C_val)

        C_path = np.swapaxes(_rk4_march(
            comp_rhs, C0, grids, "forward",
            inputs=(np.swapaxes(P_stack, 0, 1), tables.A_cl, tables.D,
                    tables.BRBt)), 0, 1)                 # (L, K+1, n)
        # reassembly as (n_alpha, L) @ (L, (K+1) n) GEMMs, added in place
        z += (F @ C_path.reshape(L, -1)).reshape(z.shape)
        PC = np.einsum("ltij,ltj->lti", P_stack, C_path)
        S += (F @ PC.reshape(L, -1)).reshape(S.shape)

    r = _solve_r_field(spec, tables, z, S)
    return MeanFieldSolution(z=z, S=S, r=r, method="spectral",
                             alphas=grids.alpha, grid=grids, Pi=Pi,
                             extras={"rank": L,
                                     "eigenvalues": lam.tolist(),
                                     "spectral_residual": decomp.residual,
                                     "eigensolver": decomp.eigensolver})


def consistency_residual(sol: MeanFieldSolution,
                         problem: MeanFieldProblem) -> float:
    """Self-consistency gap of a candidate solution of ``problem``.

    The mean state of every node is re-propagated forward,

        d(Ex_a)/dt = (A - BR^-1B^T Pi) Ex_a - BR^-1B^T S_a + D z_a,
        Ex_a(0) = mean of the initial law at a,

    and the result is the sup over the grid of
    | z_a(t) - (G Ex.(t))(a) |: zero exactly when z regenerates itself.
    ``sol`` lies on the problem's grids and was solved with its Pi.
    """
    grids = problem.spec.grids
    tables = problem.tables

    def rhs(X_val, z_val, S_val, A_cl, BRB, D):
        return X_val @ A_cl.T - S_val @ BRB.T + z_val @ D.T

    path = np.swapaxes(_rk4_march(
        rhs, problem.spec.initial.mean(grids.alpha), grids, "forward",
        inputs=(np.swapaxes(sol.z, 0, 1), np.swapaxes(sol.S, 0, 1),
                tables.A_cl, tables.BRBt, tables.D)), 0, 1)
    regenerated = _apply_kernel(problem.W, path)
    return float(np.max(np.abs(sol.z - regenerated)))


def check_monotonicity(problem: MeanFieldProblem) -> MonotonicityReport:
    """Evaluate the dominance-monotonicity certificate on the grid.

    Returns the worst-case eigenvalue margins of the three matrix
    conditions together with the constants (mu, nu) they induce.  Case "A"
    needs all conditions with the gain condition strict (mu > 0); case "B"
    is the boundary where the gain condition is tight but the state-weight
    conditions are strict (nu > 0); anything else is "neither".
    """
    c = problem.spec.coeffs
    nodes = problem.tables  # rows [0::2] are the grid nodes
    decomp = problem.decomp
    # decomp holds the eigenvalues with |lambda| > rank_tol only
    positive = decomp.eigenvalues[decomp.eigenvalues > 0]
    lam_min = float(positive.min()) if positive.size else 0.0

    P = problem.Pi.values
    D = nodes.D[0::2]
    Dt = np.swapaxes(D, -1, -2)
    ssT = nodes.ssT[0::2]
    QG = nodes.Q[0::2] @ c.Gamma
    M_q = (0.5 * (QG + np.swapaxes(QG, -1, -2) - P @ D - Dt @ P)
           + c.gamma ** 2 * (P @ ssT @ ssT @ P) + 0.25 * (D @ Dt))
    M_r = nodes.BRBt[0::2] * lam_min - 2.0 * np.eye(problem.spec.n)
    # worst case over the nodes of each condition's smallest eigenvalue
    margin1 = float(np.min(_eigvalsh(-M_q)[:, 0]))
    margin2 = float(np.min(_eigvalsh(M_r)[:, 0]))
    lamQ_max = np.max(_eigvalsh(M_q)[:, -1])            # sup_t, condition (i)
    lamR_min = np.min(np.abs(_eigvalsh(-M_r)[:, -1]))   # inf_t, condition (ii)
    M_f = -(c.Qf @ c.Gamma_f + c.Gamma_f.T @ c.Qf)
    margin3 = eigmin(M_f)
    lamQf = eigmax(-0.5 * M_f)

    mu = float(lamR_min)
    nu = float(abs(max(lamQ_max, lamQf)))

    cond1 = margin1 >= -PSD_TOL
    cond3 = margin3 >= -PSD_TOL
    if cond1 and cond3 and margin2 > PSD_TOL:
        case = "A"
    elif cond1 and cond3 and margin2 >= -PSD_TOL and nu > PSD_TOL:
        case = "B"
        mu = 0.0
    else:
        case = "neither"
    return MonotonicityReport(mu=mu, nu=nu, case=case,
                              inequality_margins=(float(margin1),
                                                  float(margin2),
                                                  float(margin3)),
                              lambda_min_positive=lam_min)
