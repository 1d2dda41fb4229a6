"""Finite-population SDE simulation and Monte Carlo cost estimation.

Euler-Maruyama on the shared time grid, with strategies held constant
between nodes.  All randomness comes from counter-based Philox streams
keyed by (seed, path): the increment consumed by a given (path, agent,
step) sits at a fixed counter offset, so results are bitwise reproducible
and independent of chunking, execution order, or worker count, and agent
j's noise is identical across population sizes (common random numbers);
increments are stored step-major, so each step reads one contiguous slab.

Agents couple through the network average gN x / N.  When the sampled
network has low rank r (2r < N) and its factor U Lambda U^T reproduces
gN / N to rounding, the average is applied as U Lambda (U^T x) in O(N r)
per path and step; otherwise as the dense product.  The epsilon-Nash
experiment draws each chunk of paths once and marches both the
decentralized and the deviation scenario over it, solves each Riccati
curvature once, and solves the damped deviation for every N in one
backward march.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple

import numpy as np

from .control import acp_solve, closed_form_cost
from .core import Grids, InitialLaw, ProblemSpec
from .errors import ConfigError, SimulationError
from .gmfg import MeanFieldSolution
from .graphon import Graphon, StepWeights, coupling_error_eps1, sample_step
from .odesolve import (MatrixPath, RiccatiSolution, _table,
                       solve_riccati_pi_delta)

_MASK64 = (1 << 64) - 1
_RECORD_LIMIT = 4 * 10 ** 8  # array elements; larger runs must stream costs
_RANK_TOL = 1e-8             # eigenvalue cut, as spectral_decompose's rank_tol


@dataclass(frozen=True)
class DeviationSpec:
    """One agent plays an alternative affine law u = -(K x + k)."""

    agent: int                  # 0-based index
    K_path: np.ndarray          # (n_steps+1, m, n)
    k_path: np.ndarray          # (n_steps+1, m)
    label: str = "custom"


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run description; dt defaults to the solver step."""

    N: int
    M: int
    seed: int
    dt: float | None = None
    deviation: DeviationSpec | None = None
    chunk_doubles: int = 32_000_000

    def __post_init__(self):
        if self.N < 1 or self.M < 1:
            raise ConfigError("simulation needs N >= 1 and M >= 1")


@dataclass(frozen=True)
class PopulationPaths:
    """Recorded trajectories: states, controls, and weighted averages.

    Arrays are indexed (path, agent, time); xN stores the network-weighted
    averages (1/N) sum_j g^N_ij x_j computed with the stored weights: as
    the dense product, or through the rank-factored operator
    U Lambda (U^T x) when the network has low rank (equal to the dense
    product up to rounding).
    """

    x: np.ndarray
    u: np.ndarray
    xN: np.ndarray
    t: np.ndarray
    gN: np.ndarray
    agent_alphas: np.ndarray
    seed: int


@dataclass(frozen=True)
class CostEstimate:
    """Monte Carlo estimate of E[exp(gamma Lambda_T)] with tail diagnostics.

    log_domain_max is the largest exponent seen; M_effective is the
    effective sample size (sum w)^2 / sum w^2 of the max-shifted weights.
    tail_share reports the fraction of the mean carried by the top 1% of
    paths; above 0.5 the estimate is flagged heavy-tailed.
    """

    mean: float
    std_error: float
    log_domain_max: float
    M_effective: float
    median_exponent: float
    tail_share: float
    tail_warning: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class NashGapRow:
    N: int
    agent: int                  # 1-based label
    alpha: float
    J_hat: CostEstimate
    J_limit: float
    gap: float
    eps1: float
    eps2: float
    eps3: float
    deviation_delta: float | None = None
    deviation_cost: CostEstimate | None = None


@dataclass(frozen=True)
class NashGapReport:
    rows: tuple[NashGapRow, ...]
    seed: int
    M: int

    def to_dict(self) -> dict:
        rows = [{k: v for k, v in asdict(r).items() if v is not None}
                for r in self.rows]
        return {"seed": self.seed, "M": self.M, "rows": rows}


def _stream(seed: int, stream_id: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=np.array([seed & _MASK64, stream_id & _MASK64],
                                      dtype=np.uint64)))


def _psd_factor(cov: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(0.5 * (cov + cov.T))
    return V * np.sqrt(np.clip(w, 0.0, None))


def _initial_draws(law: InitialLaw, fac: np.ndarray | None,
                   means: np.ndarray, seed: int, path: int) -> np.ndarray:
    """Initial states for one path, all agents; stream id 2*path; ``fac``
    is _psd_factor of a gaussian law's covariance."""
    A, n = means.shape
    if law.kind == "deterministic":
        return means.copy()
    gen = _stream(seed, 2 * path)
    if law.kind == "gaussian":
        return means + gen.standard_normal((A, n)) @ fac.T
    radius = np.diag(law.dispersion)
    return means + gen.uniform(-1.0, 1.0, (A, n)) * radius[None, :]


def _noise_block(seed: int, path: int, sqrt_dt: float, buf: np.ndarray,
                 out: np.ndarray) -> None:
    """Increments of one path into ``out`` (K, A, d), stream 2*path+1 drawn
    agent-major into ``buf`` (A, K, d); scaling ``buf`` in place and then
    copying beats one multiply into the strided ``out`` by about 25%."""
    _stream(seed, 2 * path + 1).standard_normal(out=buf)
    buf *= sqrt_dt
    out[...] = np.swapaxes(buf, 0, 1)


@dataclass(frozen=True)
class _Draws:
    """Initial states (P, A, n) and increments (K, P, A, d) of a path block."""

    paths: range
    x0: np.ndarray
    noise: np.ndarray


def _draw_chunk(spec: ProblemSpec, sim: SimConfig, sim_grid: Grids,
                means: np.ndarray, paths: range) -> _Draws:
    A_n, n = means.shape
    K, d = sim_grid.n_t, spec.d
    sqdt = math.sqrt(sim_grid.h)
    law = spec.initial
    fac = _psd_factor(law.dispersion) if law.kind == "gaussian" else None
    x0 = np.empty((len(paths), A_n, n))
    noise = np.empty((K, len(paths), A_n, d))
    buf = np.empty((A_n, K, d))
    for j, p in enumerate(paths):
        x0[j] = _initial_draws(law, fac, means, sim.seed, p)
        _noise_block(sim.seed, p, sqdt, buf, noise[:, j])
    return _Draws(paths=paths, x0=x0, noise=noise)


def _network_operator(gN: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """x -> gN x / N over (P, N, n) blocks, factored when that pays.

    r counts the eigenvalues of gN / N above _RANK_TOL, from the
    eigenvalues alone, so a full-rank network costs no eigenvectors.  The
    factor U Lambda U^T is used when it is cheaper (2r < N) and exact to
    rounding (entrywise within 1e-12 max|gN / N|); otherwise, e.g. for
    full-rank or asymmetric weights, the dense product.  Both are applied
    per path, so results do not depend on how paths are chunked.
    """
    N = gN.shape[0]
    W = gN / N
    if 2 * np.count_nonzero(np.abs(np.linalg.eigvalsh(W)) > _RANK_TOL) < N:
        w, V = np.linalg.eigh(W)
        keep = np.abs(w) > _RANK_TOL
        U_lam = V[:, keep] * w[keep]
        U_t = np.ascontiguousarray(V[:, keep].T)
        if np.max(np.abs(U_lam @ U_t - W)) <= 1e-12 * np.max(np.abs(W)):
            return lambda x: np.matmul(U_lam, np.matmul(U_t, x))
    return lambda x: np.matmul(gN, x) / N


def sim_time_grid(spec: ProblemSpec, sim: SimConfig) -> Grids:
    dt = sim.dt if sim.dt is not None else spec.grids.h
    steps = round(spec.T / dt)
    if steps < 1 or abs(steps * dt - spec.T) > 1e-9 * max(1.0, spec.T):
        raise ConfigError(f"dt={dt} does not divide the horizon T={spec.T}")
    return Grids(T=spec.T, n_t=steps, n_alpha=spec.grids.n_alpha)


def _resampled(paths: np.ndarray, grid: Grids, ts: np.ndarray) -> np.ndarray:
    """Per-agent paths (A, K+1, ...) on ``grid`` at the times ``ts``, as
    (A, len(ts), ...): ``MatrixPath.at_times``, exact on the nodes."""
    on_ts = MatrixPath(np.swapaxes(paths, 0, 1), grid).at_times(ts)
    return np.swapaxes(on_ts, 0, 1)


def _affine_law(spec: ProblemSpec, ts: np.ndarray, Pi: RiccatiSolution,
                S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gain and offsets of the laws u = -(K x + k) at the times ``ts``.

    K = R^-1 B^T Pi is (len(ts), m, n) and k = R^-1 B^T S is
    (A, len(ts), m), one row per offset path in S (A, K_sol+1, n); Pi and
    S lie on Pi's grid and are resampled onto ``ts``.
    """
    c = spec.coeffs
    RinvBt = _table(ts, c._RinvBt, c.B, c.R)
    S_t = MatrixPath(np.swapaxes(S, 0, 1), Pi.Pi.grid).at_times(ts)
    k = S_t @ np.swapaxes(RinvBt, -1, -2)              # (len(ts), A, m)
    return RinvBt @ Pi.Pi.at_times(ts), np.swapaxes(k, 0, 1)


@dataclass
class _RunTables:
    """Per-node coefficient and strategy tables for the Euler loop."""

    A: np.ndarray            # (K+1, n, n)
    B: np.ndarray            # (K+1, n, m)
    D: np.ndarray
    sig: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    Kgain: np.ndarray        # (K+1, m, n)  R^-1 B^T Pi
    koff: np.ndarray         # (A, K+1, m)  R^-1 B^T S_agent
    Gamma: np.ndarray
    Gamma_f: np.ndarray
    Qf: np.ndarray


def _build_tables(spec: ProblemSpec, sim_grid: Grids, Pi: RiccatiSolution,
                  S_agents: np.ndarray) -> _RunTables:
    """Tables on the simulation nodes for agents with offset paths
    S_agents (A, K_sol+1, n) on Pi's grid."""
    c = spec.coeffs
    ts = sim_grid.t
    Kgain, koff = _affine_law(spec, ts, Pi, S_agents)
    return _RunTables(A=_table(ts, c.A, c.A), B=_table(ts, c.B, c.B),
                      D=_table(ts, c.D, c.D), sig=_table(ts, c.sigma, c.sigma),
                      Q=_table(ts, c.Q, c.Q), R=_table(ts, c.R, c.R),
                      Kgain=Kgain, koff=koff, Gamma=c.Gamma,
                      Gamma_f=c.Gamma_f, Qf=c.Qf)


def _quad(vec: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Quadratic form over the trailing axis: <M v, v> per leading index."""
    return np.einsum("...i,ij,...j->...", vec, mat, vec)


def _matvec(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """M v over the trailing axis of ``vec``, one broadcast multiply per
    column of M, summed in column order."""
    out = vec[..., 0, None] * mat[:, 0]
    for j in range(1, mat.shape[1]):
        out += vec[..., j, None] * mat[:, j]
    return out


def _run_chunk(spec: ProblemSpec, tables: _RunTables, sim_grid: Grids,
               draws: _Draws,
               network: Callable[[np.ndarray], np.ndarray] | None,
               z_frozen: np.ndarray | None, probe: np.ndarray,
               deviation: DeviationSpec | None, record: bool):
    """Euler-Maruyama march for a block of paths.

    Population mode (network given): coupling through the weighted average
    xN = network(x) = gN x / N.  Limit mode (z_frozen given): each agent
    tracks its own frozen deterministic mean path.  The draws are only
    read, so several scenarios can march over the same block.  Each step
    forms u = -(K x) - k, then drift = (A x + B u) + D y, then
    x + drift dt + sigma dW, in that order.  Returns per-path cost
    accumulators for the probed agents and, when asked, full trajectories.
    """
    paths, x, noise = draws.paths, draws.x0, draws.noise
    P, A_n = x.shape[:2]
    n, m = spec.n, spec.m
    K = sim_grid.n_t
    dt = sim_grid.h

    lam = np.zeros((P, len(probe)))
    rec_x = rec_u = rec_xN = None
    if record:
        rec_x = np.empty((P, A_n, K + 1, n))
        rec_u = np.empty((P, A_n, K + 1, m))
        rec_xN = np.empty((P, A_n, K + 1, n))

    dev = deviation
    for k in range(K + 1):
        if network is not None:
            y = network(x)
        else:
            y = np.broadcast_to(z_frozen[:, k], (P, A_n, n))
        u = -_matvec(tables.Kgain[k], x) - tables.koff[:, k]
        if dev is not None:
            u[:, dev.agent] = (-_matvec(dev.K_path[k], x[:, dev.agent])
                               - dev.k_path[k])
        # running cost at this node, trapezoid weight
        err = x[:, probe] - _matvec(tables.Gamma, y[:, probe])
        lam_inc = _quad(err, tables.Q[k]) + _quad(u[:, probe], tables.R[k])
        weight = 0.5 * dt if k in (0, K) else dt
        lam += weight * lam_inc
        if record:
            rec_x[:, :, k] = x
            rec_u[:, :, k] = u
            rec_xN[:, :, k] = y
        if k == K:
            term = x[:, probe] - _matvec(tables.Gamma_f, y[:, probe])
            lam += _quad(term, tables.Qf)
            break
        drift = _matvec(tables.A[k], x)
        drift += _matvec(tables.B[k], u)
        drift += _matvec(tables.D[k], y)
        drift *= dt
        drift += x
        drift += _matvec(tables.sig[k], noise[k])
        x = drift
        if not np.isfinite(np.sum(x)):
            bad = np.argwhere(~np.isfinite(x))
            p_bad, a_bad = int(bad[0, 0]), int(bad[0, 1])
            raise SimulationError(
                f"non-finite state at path={paths[p_bad]}, agent={a_bad}, "
                f"step={k + 1}")
    return lam, rec_x, rec_u, rec_xN


def _chunks(spec: ProblemSpec, sim: SimConfig, sim_grid: Grids,
            n_agents: int):
    """Blocks of paths covering range(sim.M), each drawing at most about
    sim.chunk_doubles noise values.  Callers keep one block's draws alive
    at a time, so peak memory does not grow with M."""
    size = sim_grid.n_t * spec.d * n_agents
    chunk = max(1, sim.chunk_doubles // max(1, size))
    for start in range(0, sim.M, chunk):
        yield range(start, min(start + chunk, sim.M))


@dataclass(frozen=True)
class _Population:
    """Inputs of an N-agent march other than its draws, built once per N."""

    sim_grid: Grids
    tables: _RunTables
    means: np.ndarray        # (N, n) initial means at the cell midpoints
    network: Callable[[np.ndarray], np.ndarray]  # see _network_operator


def _population(spec: ProblemSpec, gN: StepWeights, mfsol: MeanFieldSolution,
                sim: SimConfig) -> _Population:
    sim_grid = sim_time_grid(spec, sim)
    mids = (np.arange(gN.N) + 0.5) / gN.N
    S_agents = mfsol.S[[mfsol.alpha_index(a) for a in mids]]
    return _Population(sim_grid=sim_grid,
                       tables=_build_tables(spec, sim_grid, mfsol.Pi,
                                            S_agents),
                       means=spec.initial.mean(mids),
                       network=_network_operator(gN.gN))


def simulate_population(spec: ProblemSpec, gN: StepWeights,
                        mfsol: MeanFieldSolution, sim: SimConfig) -> PopulationPaths:
    """Simulate the N-agent closed loop under the decentralized strategies.

        dx_i = [A x_i + B u_i + D xN_i] dt + sigma dW_i,
        u_i  = -R^-1 B^T Pi x_i - R^-1 B^T S_{I_i*},

    with initial states drawn independently from the configured law.  The
    full trajectory set is recorded; use the cost-only helpers for runs too
    large to hold in memory.
    """
    N = gN.N
    sim_grid = sim_time_grid(spec, sim)
    total = sim.M * N * (sim_grid.n_t + 1) * (2 * spec.n + spec.m)
    if total > _RECORD_LIMIT:
        raise SimulationError(
            f"recorded run would hold {total:.2e} elements; "
            "use nash_gap_experiment / cost streaming for runs this large")
    pop = _population(spec, gN, mfsol, sim)
    # each chunk's draws are freed when its march returns
    runs = [_run_chunk(spec, pop.tables, sim_grid,
                       _draw_chunk(spec, sim, sim_grid, pop.means, paths),
                       pop.network, None, np.arange(N), sim.deviation,
                       record=True)[1:]
            for paths in _chunks(spec, sim, sim_grid, N)]
    x, u, xN = (np.concatenate(parts) for parts in zip(*runs))
    return PopulationPaths(x=x, u=u, xN=xN, t=sim_grid.t, gN=gN.gN,
                           agent_alphas=(np.arange(N) + 0.5) / N,
                           seed=sim.seed)


def population_cost_exponents(spec: ProblemSpec, gN: StepWeights,
                              mfsol: MeanFieldSolution, sim: SimConfig,
                              probe_agents: np.ndarray,
                              deviation: DeviationSpec | None = None, *,
                              shared: tuple[_Population, _Draws] | None = None
                              ) -> np.ndarray:
    """Cost exponents gamma*Lambda_T for probed agents, without recording.

    Returns an (M, len(probe_agents)) array; memory use is bounded by the
    chunk size regardless of M.  ``shared`` = (population, draws), built
    by the caller from these arguments for one chunk of paths, lets
    several scenarios march over the same draws and per-N tables (see
    nash_gap_experiment); sim.M is then the chunk's number of paths.
    """
    probe = np.asarray(probe_agents, dtype=int)
    if shared is not None:
        pop, draws = shared
        if len(draws.paths) != sim.M:
            raise ConfigError(f"shared draws hold {len(draws.paths)} paths, "
                              f"sim.M is {sim.M}")
        return spec.gamma * _run_chunk(spec, pop.tables, pop.sim_grid, draws,
                                       pop.network, None, probe, deviation,
                                       record=False)[0]
    pop = _population(spec, gN, mfsol, sim)
    out = np.empty((sim.M, len(probe)))
    for paths in _chunks(spec, sim, pop.sim_grid, gN.N):
        draws = _draw_chunk(spec, sim, pop.sim_grid, pop.means, paths)
        out[paths.start:paths.stop] = spec.gamma * _run_chunk(
            spec, pop.tables, pop.sim_grid, draws, pop.network, None, probe,
            deviation, record=False)[0]
        del draws
    return out


def limit_cost_exponents(spec: ProblemSpec, z_path: np.ndarray,
                         S_path: np.ndarray, Pi: RiccatiSolution,
                         sim: SimConfig, alpha: float) -> np.ndarray:
    """Cost exponents for the one-agent limit problem under its own optimum.

    The agent follows dx = [A_cl x - BR^-1B^T S_a + D z_a] dt + sigma dW
    against the frozen deterministic mean path z_a; the running cost tracks
    z_a.  z_a and S_a lie on the grid of Pi, the curvature they were
    solved with.  Used to cross-check the closed-form optimal cost.
    """
    sim_grid = sim_time_grid(spec, sim)
    z_frozen = _resampled(z_path[None], Pi.Pi.grid, sim_grid.t)
    tables = _build_tables(spec, sim_grid, Pi, S_path[None])
    means = spec.initial.mean(np.array([alpha]))
    probe = np.array([0])

    out = np.empty((sim.M, 1))
    for paths in _chunks(spec, sim, sim_grid, 1):
        draws = _draw_chunk(spec, sim, sim_grid, means, paths)
        out[paths.start:paths.stop] = spec.gamma * _run_chunk(
            spec, tables, sim_grid, draws, None, z_frozen, probe, None,
            record=False)[0]
        del draws
    return out[:, 0]


def limit_ensemble(spec: ProblemSpec, mfsol: MeanFieldSolution,
                   sim: SimConfig) -> PopulationPaths:
    """One Brownian path per node of the mean-field solution grid.

    Every node alpha gets an independent agent following the limit
    dynamics against its own frozen z_alpha; used for trajectory fans.
    """
    sim_grid = sim_time_grid(spec, sim)
    alphas = mfsol.alphas
    A_n = len(alphas)
    z_frozen = _resampled(mfsol.z, mfsol.grid, sim_grid.t)
    tables = _build_tables(spec, sim_grid, mfsol.Pi, mfsol.S)
    means = spec.initial.mean(alphas)
    probe = np.array([0])
    draws = _draw_chunk(spec, sim, sim_grid, means, range(0, 1))
    lam, rx, ru, rxn = _run_chunk(spec, tables, sim_grid, draws, None,
                                  z_frozen, probe, None, record=True)
    return PopulationPaths(x=rx, u=ru, xN=rxn, t=sim_grid.t,
                           gN=np.zeros((A_n, A_n)), agent_alphas=alphas,
                           seed=sim.seed)


def lambda_from_paths(spec: ProblemSpec, paths: PopulationPaths,
                      agent: int) -> np.ndarray:
    """Recompute the cost functional Lambda_T per path from recorded arrays."""
    c = spec.coeffs
    ts = paths.t
    dt = ts[1] - ts[0]
    K = len(ts) - 1
    x = paths.x[:, agent]
    u = paths.u[:, agent]
    y = paths.xN[:, agent]
    lam = np.zeros(x.shape[0])
    for k in range(K + 1):
        t = ts[k]
        err = x[:, k] - y[:, k] @ c.Gamma.T
        inc = _quad(err, c.Q(t)) + _quad(u[:, k], c.R(t))
        weight = 0.5 * dt if k in (0, K) else dt
        lam += weight * inc
    term = x[:, K] - y[:, K] @ c.Gamma_f.T
    lam += _quad(term, c.Qf)
    return lam


def cost_from_exponents(exponents: np.ndarray) -> CostEstimate:
    """Assemble a CostEstimate from per-path exponents gamma*Lambda_T.

    The mean is accumulated after a max shift; an exponent above 700 after
    shifting (i.e. a mean too large for double precision) raises, since the
    estimate is then effectively infinite at this risk sensitivity.
    """
    L = np.asarray(exponents, dtype=float)
    M = L.size
    m_star = float(np.max(L))
    if m_star > 700.0:
        raise SimulationError(
            f"cost overflow: largest exponent {m_star:.1f} exceeds 700; "
            "the exponentiated cost is effectively infinite at this "
            "risk sensitivity")
    w = np.exp(L - m_star)
    vals = np.exp(L)
    mean = float(np.mean(vals))
    std_error = float(np.std(vals, ddof=1) / math.sqrt(M)) if M > 1 else 0.0
    ess = float((w.sum() ** 2) / np.sum(w ** 2))
    top = max(1, math.ceil(0.01 * M))
    share = float(np.sort(vals)[-top:].sum() / vals.sum())
    return CostEstimate(mean=mean, std_error=std_error, log_domain_max=m_star,
                        M_effective=ess, median_exponent=float(np.median(L)),
                        tail_share=share,
                        tail_warning=bool(M > 1 and share > 0.5))


def estimate_cost(spec: ProblemSpec, paths: PopulationPaths,
                  agent: int) -> CostEstimate:
    """Monte Carlo risk-sensitive cost of one agent from recorded paths."""
    lam = lambda_from_paths(spec, paths, agent)
    return cost_from_exponents(spec.gamma * lam)


class ApproximationErrors(NamedTuple):
    """(eps1, eps2, eps3) network, mean-path, and initial-mean step errors."""

    eps1: float
    eps2: float
    eps3: float


def approximation_errors(mfsol: MeanFieldSolution, gN: StepWeights,
                         g: Graphon, spec: ProblemSpec) -> ApproximationErrors:
    """Step-approximation error triple for a finite population of size N.

    eps1: row mass error between the sampled network and the kernel.
    eps2: sup over nodes and times of |z at the cell midpoint - z at alpha|,
          the gap between the step interpolation used by the N agents and
          the continuum solution; needs the solution on a reference grid at
          least 4x finer than N.
    eps3: sup over nodes of |step initial mean - continuum initial mean|.
    """
    N = gN.N
    n_fine = len(mfsol.alphas)
    if n_fine < 4 * N:
        raise ConfigError(
            f"eps2 needs a reference grid with >= {4 * N} nodes; "
            f"solution has {n_fine}")
    eps1 = coupling_error_eps1(gN, g)

    mids = (np.arange(N) + 0.5) / N
    # evaluation points: the fine solution grid plus the coarse cell edges
    edges = np.arange(N + 1) / N
    points = np.unique(np.concatenate([mfsol.alphas, edges]))
    cell = np.clip(np.ceil(points * N).astype(int) - 1, 0, N - 1)

    fine_idx_pts = np.argmin(
        np.abs(points[:, None] - mfsol.alphas[None, :]), axis=1)
    fine_idx_mids = np.argmin(
        np.abs(mids[:, None] - mfsol.alphas[None, :]), axis=1)

    z_at_pts = mfsol.z[fine_idx_pts]          # (P, K+1, n)
    z_step = mfsol.z[fine_idx_mids][cell]     # (P, K+1, n)
    eps2 = float(np.max(np.abs(z_step - z_at_pts)))

    m_pts = spec.initial.mean(points)
    m_step = spec.initial.mean(mids)[cell]
    eps3 = float(np.max(np.abs(m_step - m_pts)))
    return ApproximationErrors(float(eps1), eps2, eps3)


def default_probe_agents(N: int) -> np.ndarray:
    """First, middle, last agent (0-based indices, deduplicated)."""
    return np.array(list(dict.fromkeys([0, math.ceil(N / 2) - 1, N - 1])),
                    dtype=int)


def nash_gap_experiment(spec: ProblemSpec, g: Graphon,
                        mfsol: MeanFieldSolution, N_list: list[int],
                        sim: SimConfig, deviate_delta: float | None = None,
                        probe_all: bool = False) -> NashGapReport:
    """Compare simulated decentralized costs against the limit closed form.

    For each population size N the kernel is sampled at the midpoints, M
    paths are simulated under the decentralized strategies with common
    random numbers across sizes, and each probe agent's Monte Carlo cost is
    set against the closed-form limit cost at its node, together with the
    step-approximation error triple.  Optionally one probe agent deviates
    to the damped-risk strategy to bound the gain from unilateral
    deviation; both scenarios march over the same draws, one chunk of
    paths at a time.  Pi comes with the solution; Pi_delta and the damped
    offsets of every N come from one acp_solve over the stacked nodes.
    """
    # agent 0, the first probe for every N, deviates from its node 0.5 / N;
    # one backward march solves the damped law for all N at once
    dev_agent, devs = 0, None
    if deviate_delta is not None:
        alphas = np.array([0.5 / N for N in N_list])
        acp = acp_solve(spec, deviate_delta,
                        mfsol.z[[mfsol.alpha_index(a) for a in alphas]],
                        grid=mfsol.grid, law=spec.initial, alpha=alphas,
                        Pi_delta=solve_riccati_pi_delta(spec, deviate_delta,
                                                        mfsol.grid))
        devs = _deviation_from_acp(spec, acp, sim_time_grid(spec, sim),
                                   dev_agent)
    rows: list[NashGapRow] = []
    for i, N in enumerate(N_list):
        gNw = sample_step(g, N)
        probes = np.arange(N) if probe_all else default_probe_agents(N)
        run_sim = replace(sim, N=N)
        pop = _population(spec, gNw, mfsol, run_sim)
        mids = (np.arange(N) + 0.5) / N
        eps = approximation_errors(mfsol, gNw, g, spec)

        scenarios = [(probes, None)]
        if devs:
            scenarios.append((np.array([dev_agent]), devs[i]))
        expos = [np.empty((sim.M, len(probe))) for probe, _ in scenarios]
        for paths in _chunks(spec, run_sim, pop.sim_grid, N):
            draws = _draw_chunk(spec, run_sim, pop.sim_grid, pop.means, paths)
            block_sim = replace(run_sim, M=len(paths))
            for out, (probe, dev) in zip(expos, scenarios):
                out[paths.start:paths.stop] = population_cost_exponents(
                    spec, gNw, mfsol, block_sim, probe, dev,
                    shared=(pop, draws))
            del draws
        dev_cost = cost_from_exponents(expos[1][:, 0]) if devs else None

        for j, a in enumerate(probes):
            alpha = float(mids[a])
            idx = mfsol.alpha_index(alpha)
            est = cost_from_exponents(expos[0][:, j])
            j_lim = closed_form_cost(spec, mfsol.Pi, mfsol.S[idx], mfsol.r[idx],
                                     spec.initial, alpha)
            rows.append(NashGapRow(
                N=N, agent=int(a) + 1, alpha=alpha, J_hat=est,
                J_limit=float(j_lim), gap=float(abs(est.mean - j_lim)),
                eps1=eps.eps1, eps2=eps.eps2, eps3=eps.eps3,
                deviation_delta=deviate_delta if a == dev_agent else None,
                deviation_cost=dev_cost if a == dev_agent else None))
    return NashGapReport(rows=tuple(rows), seed=sim.seed, M=sim.M)


def _deviation_from_acp(spec: ProblemSpec, acp, sim_grid: Grids,
                        agent: int) -> DeviationSpec | list[DeviationSpec]:
    """Affine gains of the damped-risk strategy on the simulation nodes;
    a list, one per node, when ``acp`` holds a stack of nodes."""
    S, label = acp.S_delta, f"damped-risk delta'={acp.delta_prime}"
    K, k = _affine_law(spec, sim_grid.t, acp.Pi_delta,
                       S.reshape(-1, *S.shape[-2:]))
    devs = [DeviationSpec(agent, K, k_row, label) for k_row in k]
    return devs if S.ndim == 3 else devs[0]
