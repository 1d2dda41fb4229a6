"""Finite-population SDE simulation and Monte Carlo cost estimation.

Euler-Maruyama on the shared time grid, with strategies held constant
between nodes.  All randomness comes from counter-based Philox streams
keyed by (seed, path): stream 2p gives path p's initial states and 2p+1
its increments, drawn agent-major, so each (path, agent, step) increment
sits at a fixed counter offset.  Results are bitwise reproducible and
independent of chunking, execution order, or worker count, and the draw
for N agents is an exact prefix of the draw for any larger population
(common random numbers); increments are stored step-major.

Every march is one ``_Population`` (simulation grid, tables, initial
means and coupling) run through one chunk loop, ``_march``; agent a
plays its own row u = -(K_a x + k_a) of the law tables.  N agents
couple through the network average gN x / N: the block's (path,
component) rows go through BLAS in fixed-shape groups of _GROUP rows,
times U Lambda U^T in O(N r) per row when the sampled network has low
rank r (2r < N) and that factor reproduces gN / N to rounding, otherwise
times the dense gN / N.  Every call has the same shape, so a path's bits
do not depend on the block around it; a limit agent couples to its own
frozen mean path z_alpha.

Which march runs: a run that asks only for probe agents' costs on a
factored network marches in q = |E| + r coordinates (``_ProbeMarch``),
where E holds the probes; the rank-r range of the network and the
probes' unit vectors span a subspace that the closed loop maps into
itself, so the probes' costs follow from q coordinates per path,
whatever N is, and the draws enter through their projection on that
subspace.  This needs q < N.  Dense networks, q >= N, recorded runs and
limit populations march every agent (``_run_chunk``).  The epsilon-Nash
experiment builds each N's march once; a probe deviating alone replaces
one gain row and one offset row of it.  It draws each chunk's
increments once, for the largest N, projects the view of the first N
agents once per N, and marches both scenarios over that projection; it
solves each Riccati curvature once, and the damped deviation for every
N in one backward march.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple

import numpy as np

from .control import acp_solve, closed_form_cost
from .core import Grids, InitialLaw, ProblemSpec, _table
from .errors import ConfigError, SimulationError
from .gmfg import MeanFieldSolution
from .graphon import Graphon, StepWeights, coupling_error_eps1, sample_step
from .odesolve import MatrixPath

_MASK64 = (1 << 64) - 1
_RECORD_LIMIT = 4 * 10 ** 8  # array elements; larger runs must stream costs
_RANK_TOL = 1e-8             # eigenvalue cut, as spectral_decompose's rank_tol
_DEV_AGENT = 0               # the agent that deviates in the epsilon-Nash runs
_GROUP = 32                  # rows per BLAS call of the network coupling;
                             # faster than 16 or 64 at 150 paths, N <= 200
# (P, A, n) states at step k -> what each agent is coupled to
_Coupling = Callable[[np.ndarray, int], np.ndarray]


@dataclass(frozen=True)
class SimConfig:
    """M Monte Carlo paths from ``seed``; dt defaults to the solver step."""

    M: int
    seed: int
    dt: float | None = None
    chunk_doubles: int = 32_000_000

    def __post_init__(self):
        if self.M < 1:
            raise ConfigError(f"simulation needs M >= 1, got {self.M}")
        if self.dt is not None and not self.dt > 0:
            raise ConfigError(f"simulation needs dt > 0, got {self.dt}")


@dataclass(frozen=True)
class PopulationPaths:
    """Recorded trajectories: states, controls, and couplings.

    Arrays are indexed (path, agent, time); xN holds what each agent was
    coupled to: the network average (1/N) sum_j g^N_ij x_j (through the
    dense weights gN / N, or the rank-factored U Lambda U^T when the
    network has low rank, equal up to rounding; each path's bits are the
    same in any chunking), or in the limit ensemble the agent's frozen
    mean path z_alpha.
    """

    x: np.ndarray
    u: np.ndarray
    xN: np.ndarray
    t: np.ndarray
    agent_alphas: np.ndarray


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
    """Rows per N and probe agent; ``networks`` holds, per N, the sampled
    network's rank, whether its coupling ran factored, and ``march_dim``:
    the states per path of the march that the decentralized and the
    deviating runs share (q in the subspace, N when every agent marches)."""

    rows: tuple[NashGapRow, ...]
    seed: int
    M: int
    networks: tuple[dict, ...]

    def to_dict(self) -> dict:
        rows = [{k: v for k, v in asdict(r).items() if v is not None}
                for r in self.rows]
        return {"seed": self.seed, "M": self.M, "rows": rows,
                "networks": list(self.networks)}


def _stream(seed: int, stream_id: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=np.array([seed & _MASK64, stream_id & _MASK64],
                                      dtype=np.uint64)))


def _initial_states(law: InitialLaw, means: np.ndarray, seed: int,
                    paths: range) -> np.ndarray:
    """Initial states (P, A, n) of a path block around ``means`` (A, n);
    path p's agents draw from stream 2p."""
    if law.kind == "deterministic":
        return np.repeat(means[None], len(paths), axis=0)
    if law.kind == "gaussian":
        w, V = np.linalg.eigh(0.5 * (law.dispersion + law.dispersion.T))
        fac = V * np.sqrt(np.clip(w, 0.0, None))     # PSD covariance factor
        return np.stack([means + _stream(seed, 2 * p).standard_normal(
            means.shape) @ fac.T for p in paths])
    radius = np.diag(law.dispersion)
    return np.stack([means + _stream(seed, 2 * p).uniform(
        -1.0, 1.0, means.shape) * radius[None, :] for p in paths])


def _noise_block(seed: int, sim_grid: Grids, d: int, n_agents: int,
                 paths: range) -> np.ndarray:
    """Increments (K, P, A, d) of a path block: stream 2p+1 drawn agent-major
    into one (A, K, d) buffer, so agent j's do not depend on A, scaled in
    place and copied (25% faster than one multiply into the strided block)."""
    K, sqdt = sim_grid.n_t, math.sqrt(sim_grid.h)
    noise = np.empty((K, len(paths), n_agents, d))
    buf = np.empty((n_agents, K, d))
    for j, p in enumerate(paths):
        _stream(seed, 2 * p + 1).standard_normal(out=buf)
        buf *= sqdt
        noise[:, j] = np.swapaxes(buf, 0, 1)
    return noise


@dataclass(frozen=True)
class _Draws:
    """Initial states (P, A, n) and increments (K, P, A, d) of a path block;
    the increments may be a view of the first A agents of a wider block.
    For a subspace march, A counts coordinates (see _ProbeMarch.project)."""

    paths: range
    x0: np.ndarray
    noise: np.ndarray


def _draw_chunk(spec: ProblemSpec, sim: SimConfig, sim_grid: Grids,
                means: np.ndarray, paths: range) -> _Draws:
    return _Draws(paths, _initial_states(spec.initial, means, sim.seed, paths),
                  _noise_block(sim.seed, sim_grid, spec.d, len(means), paths))


def _row_product(x: np.ndarray, factors: tuple[np.ndarray, ...]) -> np.ndarray:
    """x (P, N, n) times each of ``factors`` in turn over its agent axis.

    The block's (path, component) rows are stacked as a (P n, N) matrix,
    zero-padded to a multiple of _GROUP rows and multiplied in stacked
    groups of _GROUP rows by each factor.  Every BLAS call then has the
    same shape, and a row's bits depend only on that row (checked on
    OpenBLAS's Katmai to SkylakeX kernels; one GEMM over the whole block
    changes a row's bits with the block's size), so results do not depend
    on how paths are chunked.  Returns (P, w, n) for a last factor of
    width w.
    """
    P, N, n = x.shape
    groups = -(-(P * n) // _GROUP)
    rows = np.empty((groups * _GROUP, N))
    rows[:P * n].reshape(P, n, N)[...] = np.swapaxes(x, 1, 2)
    rows[P * n:] = 0.0
    out = rows.reshape(groups, _GROUP, N)
    for f in factors:
        out = np.matmul(out, f)
    w = out.shape[-1]
    return np.swapaxes(out.reshape(-1, w)[:P * n].reshape(P, n, w), 1, 2)


@dataclass(frozen=True)
class _Network:
    """The coupling (x, k) -> gN x / N of one sampled network over (P, N, n)
    blocks, in _row_product's fixed-shape groups; the step k is not read.

    ``factors`` is (W^T,) for the dense weights W = gN / N, or
    (U, Lambda U^T) for the factored form W = U Lambda U^T, with U (N, r)
    orthonormal.
    """

    factors: tuple[np.ndarray, ...]
    rank: int                # eigenvalues of gN / N above _RANK_TOL

    @property
    def factored(self) -> bool:
        return len(self.factors) == 2

    def __call__(self, x: np.ndarray, k: int) -> np.ndarray:
        return _row_product(x, self.factors)


def _network_operator(gN: np.ndarray) -> _Network:
    """The coupling gN x / N, factored when that pays.

    The rank r counts the eigenvalues of W = gN / N above _RANK_TOL, from
    the eigenvalues alone, so a full-rank network costs no eigenvectors.
    The factor U Lambda U^T is used when it is cheaper (2r < N) and exact
    to rounding (entrywise within 1e-12 max|W|); otherwise, e.g. for
    full-rank or asymmetric weights, W itself.
    """
    N = gN.shape[0]
    W = gN / N
    rank = int(np.count_nonzero(np.abs(np.linalg.eigvalsh(W)) > _RANK_TOL))
    if 2 * rank < N:
        w, V = np.linalg.eigh(W)
        keep = np.abs(w) > _RANK_TOL
        U_lam = V[:, keep] * w[keep]
        U_t = np.ascontiguousarray(V[:, keep].T)
        if np.max(np.abs(U_lam @ U_t - W)) <= 1e-12 * np.max(np.abs(W)):
            return _Network((U_t.T, U_lam.T), rank)
    return _Network((W.T,), rank)


def sim_time_grid(spec: ProblemSpec, sim: SimConfig) -> Grids:
    dt = sim.dt if sim.dt is not None else spec.grids.h
    steps = round(spec.T / dt)
    if steps < 1 or abs(steps * dt - spec.T) > 1e-9 * max(1.0, spec.T):
        raise ConfigError(f"dt={dt} does not divide the horizon T={spec.T}")
    return Grids(T=spec.T, n_t=steps, n_alpha=spec.grids.n_alpha)


def _affine_law(spec: ProblemSpec, ts: np.ndarray, Pi: MatrixPath,
                S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gains and offsets of the laws u = -(K x + k) at the times ``ts``,
    one agent per offset path in S (A, K_sol+1, n): K = R^-1 B^T Pi, the
    same for all, as a read-only broadcast view (A, len(ts), m, n), and
    k = R^-1 B^T S (A, len(ts), m).  Pi and S lie on Pi's grid."""
    c = spec.coeffs
    RinvBt = _table(ts, c._RinvBt, c.B, c.R)
    S_t = MatrixPath(np.swapaxes(S, 0, 1), Pi.grid).at_times(ts)
    k = S_t @ np.swapaxes(RinvBt, -1, -2)              # (len(ts), A, m)
    K = RinvBt @ Pi.at_times(ts)
    return np.broadcast_to(K, (len(S),) + K.shape), np.swapaxes(k, 0, 1)


@dataclass(frozen=True)
class _RunTables:
    """Per-node coefficient and per-agent law tables for the Euler loop."""

    A: np.ndarray            # (K+1, n, n)
    B: np.ndarray            # (K+1, n, m)
    D: np.ndarray
    sig: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    Kgain: np.ndarray        # (A, K+1, m, n)  R^-1 B^T Pi of each agent
    koff: np.ndarray         # (A, K+1, m)     R^-1 B^T S of each agent


def _build_tables(spec: ProblemSpec, sim_grid: Grids, Pi: MatrixPath,
                  S_agents: np.ndarray) -> _RunTables:
    """Tables on the simulation nodes for agents with offset paths
    S_agents (A, K_sol+1, n) on Pi's grid."""
    c = spec.coeffs
    ts = sim_grid.t
    Kgain, koff = _affine_law(spec, ts, Pi, S_agents)
    return _RunTables(A=_table(ts, c.A, c.A), B=_table(ts, c.B, c.B),
                      D=_table(ts, c.D, c.D), sig=_table(ts, c.sigma, c.sigma),
                      Q=_table(ts, c.Q, c.Q), R=_table(ts, c.R, c.R),
                      Kgain=Kgain, koff=koff)


def _quad(vec: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Quadratic form over the trailing axis: <M v, v> per leading index."""
    return np.einsum("...i,ij,...j->...", vec, mat, vec)


def _matvec(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """M v over the trailing axis of ``vec``, one broadcast multiply per
    column of M (or of each agent's M in a stack), summed in column order."""
    out = vec[..., 0, None] * mat[..., 0]
    for j in range(1, mat.shape[-1]):
        out += vec[..., j, None] * mat[..., j]
    return out


@dataclass(frozen=True)
class _Population:
    """A march's inputs other than its draws, built once per population.

    ``coupling(x, k)`` is what each agent of the (P, A, n) block x is
    coupled to at step k: the network average of an N-agent population
    (see _network_operator), or each limit agent's frozen mean z_alpha.
    A failure names state a as ``labels[a]``, or as agent a without
    labels (the states of a subspace march are coordinates; see
    _ProbeMarch).
    """

    sim_grid: Grids
    tables: _RunTables
    means: np.ndarray        # (A, n) initial means
    coupling: _Coupling
    labels: tuple[str, ...] | None = None


def _population(spec: ProblemSpec, gN: StepWeights, mfsol: MeanFieldSolution,
                sim: SimConfig) -> _Population:
    """N agents at the cell midpoints, coupled through the network gN."""
    sim_grid = sim_time_grid(spec, sim)
    mids = (np.arange(gN.N) + 0.5) / gN.N
    S = mfsol.S[[mfsol.alpha_index(a) for a in mids]]
    return _Population(sim_grid=sim_grid,
                       tables=_build_tables(spec, sim_grid, mfsol.Pi, S),
                       means=spec.initial.mean(mids),
                       coupling=_network_operator(gN.gN))


def _limit_population(spec: ProblemSpec, sim: SimConfig, Pi: MatrixPath,
                      z: np.ndarray, S: np.ndarray,
                      alphas: np.ndarray) -> _Population:
    """Limit agents at the nodes ``alphas``, each coupled to its own frozen
    mean path; z and S are (A, K_sol+1, n) on the grid of Pi."""
    sim_grid = sim_time_grid(spec, sim)
    z_frozen = MatrixPath(np.swapaxes(z, 0, 1), Pi.grid).at_times(sim_grid.t)
    return _Population(sim_grid=sim_grid,
                       tables=_build_tables(spec, sim_grid, Pi, S),
                       means=spec.initial.mean(alphas),
                       coupling=lambda x, k: np.broadcast_to(z_frozen[k],
                                                             x.shape))


def _add_node_cost(lam: np.ndarray, spec: ProblemSpec, tables: _RunTables,
                   k: int, K: int, dt: float, x: np.ndarray, y: np.ndarray,
                   u: np.ndarray) -> None:
    """Add to ``lam`` (P, a) the cost at node k of agents with states x,
    couplings y and controls u (P, a, .): the trapezoid-weighted running
    cost, and at the last node K also the terminal cost."""
    c = spec.coeffs
    err = x - _matvec(c.Gamma, y)
    lam_inc = _quad(err, tables.Q[k]) + _quad(u, tables.R[k])
    weight = 0.5 * dt if k in (0, K) else dt
    lam += weight * lam_inc
    if k == K:
        lam += _quad(x - _matvec(c.Gamma_f, y), c.Qf)


def _run_chunk(spec: ProblemSpec, pop: _Population, draws: _Draws,
               probe: np.ndarray, record: bool):
    """Euler-Maruyama march of ``pop`` over a block of paths.

    Each agent is coupled to y = pop.coupling(x, k).  The draws are only
    read, so several populations can march over the same block.  Each step
    forms u = -(K x) - k, then drift = (A x + B u) + D y, then
    x + drift dt + sigma dW, in that order.  Returns per-path cost
    accumulators for the probed agents and, when asked, full trajectories.
    """
    paths, x, noise = draws.paths, draws.x0, draws.noise
    tables = pop.tables
    P, A_n = x.shape[:2]
    n, m = spec.n, spec.m
    K, dt = pop.sim_grid.n_t, pop.sim_grid.h

    lam = np.zeros((P, len(probe)))
    rec_x = rec_u = rec_xN = None
    if record:
        rec_x = np.empty((P, A_n, K + 1, n))
        rec_u = np.empty((P, A_n, K + 1, m))
        rec_xN = np.empty((P, A_n, K + 1, n))

    for k in range(K + 1):
        y = pop.coupling(x, k)
        u = -_matvec(tables.Kgain[:, k], x) - tables.koff[:, k]
        _add_node_cost(lam, spec, tables, k, K, dt, x[:, probe],
                       y[:, probe], u[:, probe])
        if record:
            rec_x[:, :, k] = x
            rec_u[:, :, k] = u
            rec_xN[:, :, k] = y
        if k == K:
            break
        drift = _matvec(tables.A[k], x)
        drift += _matvec(tables.B[k], u)
        drift += _matvec(tables.D[k], y)
        drift *= dt
        drift += x
        drift += _matvec(tables.sig[k], noise[k])
        x = drift
        if not (np.isfinite(np.sum(x)) or np.isfinite(x).all()):
            bad = np.argwhere(~np.isfinite(x))
            p_bad, a_bad = int(bad[0, 0]), int(bad[0, 1])
            at = (f"agent={a_bad}" if pop.labels is None
                  else pop.labels[a_bad])
            raise SimulationError(f"non-finite state at path={paths[p_bad]}, "
                                  f"{at}, step={k + 1}")
    return lam, rec_x, rec_u, rec_xN


@dataclass(frozen=True)
class _ProbeMarch:
    """The march of a population's probes, built once per population and
    set of probes; ``rows`` are the probes' states in ``pop``.

    Without a basis V, ``pop`` is the population and every agent marches.
    Else V (N, q) is an orthonormal basis of span{e_j : j in E} + range(U),
    where E holds the probes and W = gN / N = U Lambda U^T: its first |E|
    columns are those unit vectors, the others have zero rows at E.  Every
    agent outside E plays the shared gain K, and W vanishes on the
    complement of V, so c = V^T x obeys the agents' own Euler chain,

        u_c = -(K_c c) - V^T k,   c' = c + (A c + B u_c + D G c) h
                                      + sigma V^T dW,   G = V^T W V,

    where coordinate l plays K_c = K_j when it is agent j's unit vector
    and the shared K otherwise.  ``pop`` is that chain as a population of
    q states (coupling G c, offsets V^T k), so _run_chunk marches it;
    agent j in E is coordinate ``E.index(j)``, and its state, control,
    coupling (W x)_j and law rows are the agent's own.
    """

    pop: _Population
    rows: np.ndarray
    V: np.ndarray | None = None

    def project(self, draws: _Draws) -> _Draws:
        """V^T x0 and the increments V^T dW (K, P, q, d) of ``draws``, filled
        once, one _row_product call per step; ``draws`` itself without V."""
        if self.V is None:
            return draws
        K, P, _, d = draws.noise.shape
        noise = np.empty((K, P, self.V.shape[1], d))
        for k in range(K):
            noise[k] = _row_product(draws.noise[k], (self.V,))
        return _Draws(draws.paths, _row_product(draws.x0, (self.V,)), noise)


def _probe_march(pop: _Population, probe: np.ndarray) -> _ProbeMarch:
    """The march of ``pop``'s probes E: in the q = |E| + r coordinates of E
    and the rank-r range of a factored network when q < N, else by every
    agent.  The basis comes from the factor U that _network_operator
    accepted; every agent of ``pop`` plays the same gain."""
    net, N = pop.coupling, len(pop.means)
    E = np.unique(probe)
    if not (isinstance(net, _Network) and net.factored
            and len(E) + net.rank < N):
        return _ProbeMarch(pop, probe)
    U, LUt = net.factors                             # W = LUt^T U^T
    rest = np.delete(np.arange(N), E)
    V = np.zeros((N, len(E) + U.shape[1]))
    V[E, np.arange(len(E))] = 1.0
    V[rest, len(E):] = np.linalg.qr(U[rest])[0]
    G_T = (V.T @ (LUt.T @ (U.T @ V))).T
    t = pop.tables
    coords = _Population(
        sim_grid=pop.sim_grid,
        tables=replace(t, Kgain=np.broadcast_to(t.Kgain[0], (len(G_T),)
                                                + t.Kgain.shape[1:]),
                       koff=np.tensordot(V, t.koff, (0, 0))),
        means=V.T @ pop.means,
        coupling=lambda x, k: _row_product(x, (G_T,)),
        labels=tuple(f"agent={j}" for j in E) + tuple(
            f"subspace coordinate={i}" for i in range(len(E), len(G_T))))
    return _ProbeMarch(coords, np.searchsorted(E, probe), V)


def _deviating(march: _ProbeMarch, K_dev: np.ndarray,
               k_dev: np.ndarray) -> _ProbeMarch:
    """``march`` with its first probe on the law K_dev (K+1, m, n), k_dev
    (K+1, m): that probe's state is its own, so one gain row and one
    offset row change, in a copy of q (or N) rows; all else is shared."""
    t, row = march.pop.tables, march.rows[0]
    Kgain, koff = np.array(t.Kgain), t.koff.copy()
    Kgain[row], koff[row] = K_dev, k_dev
    return replace(march, pop=replace(march.pop, tables=replace(
        t, Kgain=Kgain, koff=koff)))


def _chunks(spec: ProblemSpec, sim: SimConfig, sim_grid: Grids,
            n_agents: int):
    """Blocks of paths covering range(sim.M), each drawing at most about
    sim.chunk_doubles noise values for ``n_agents`` agents (the largest N in
    an epsilon-Nash experiment); callers keep one block alive at a time."""
    size = sim_grid.n_t * spec.d * n_agents
    chunk = max(1, sim.chunk_doubles // max(1, size))
    for start in range(0, sim.M, chunk):
        yield range(start, min(start + chunk, sim.M))


def _march(spec: ProblemSpec, sim: SimConfig, pop: _Population,
           probe: np.ndarray | None = None):
    """The one chunk loop: sim.M paths of ``pop``, a block at a time.

    Each block is drawn, marched and its draws freed.  Returns the cost
    exponents gamma*Lambda_T of the ``probe`` agents, (M, len(probe));
    without probe agents, the recorded trajectories (x, u, xN), each
    (M, A, K+1, .), refused above _RECORD_LIMIT elements.
    """
    record, A_n = probe is None, len(pop.means)
    if record:
        total = sim.M * A_n * (pop.sim_grid.n_t + 1) * (2 * spec.n + spec.m)
        if total > _RECORD_LIMIT:
            raise SimulationError(
                f"recorded run would hold {total:.2e} elements; "
                "use nash_gap_experiment / cost streaming for runs this large")
    march = None if record else _probe_march(pop, probe)

    def run(paths: range):
        draws = _draw_chunk(spec, sim, pop.sim_grid, pop.means, paths)
        if record:
            return _run_chunk(spec, pop, draws, np.array([], dtype=int),
                              record=True)[1:]
        return _run_chunk(spec, march.pop, march.project(draws), march.rows,
                          record=False)[0]

    runs = [run(paths) for paths in _chunks(spec, sim, pop.sim_grid, A_n)]
    if record:
        return tuple(np.concatenate(parts) for parts in zip(*runs))
    return spec.gamma * np.concatenate(runs)


def simulate_population(spec: ProblemSpec, gN: StepWeights,
                        mfsol: MeanFieldSolution, sim: SimConfig) -> PopulationPaths:
    """Simulate the N-agent closed loop under the decentralized strategies.

        dx_i = [A x_i + B u_i + D xN_i] dt + sigma dW_i,
        u_i  = -R^-1 B^T Pi x_i - R^-1 B^T S_{I_i*},

    with initial states drawn independently from the configured law.  The
    full trajectory set is recorded; use the cost-only helpers for runs too
    large to hold in memory.
    """
    pop = _population(spec, gN, mfsol, sim)
    x, u, xN = _march(spec, sim, pop)
    return PopulationPaths(x=x, u=u, xN=xN, t=pop.sim_grid.t,
                           agent_alphas=(np.arange(gN.N) + 0.5) / gN.N)


def population_cost_exponents(spec: ProblemSpec, gN: StepWeights,
                              mfsol: MeanFieldSolution, sim: SimConfig,
                              probe_agents: np.ndarray, *,
                              shared: tuple[_ProbeMarch, _Draws] | None = None
                              ) -> np.ndarray:
    """Cost exponents gamma*Lambda_T for probed agents, without recording.

    Returns an (M, len(probe_agents)) array; memory use is bounded by the
    chunk size regardless of M.  On a factored network with q < N the
    march runs in the q coordinates of the probes and the network's range
    (see _ProbeMarch), over the projection of the same draws, and equals
    the full march up to rounding; otherwise every agent marches.  Probe
    agents lie in [0, N).  ``shared`` = (march, draws), the march of these
    arguments (or its _deviating copy) and one chunk's draws projected by
    it, lets several marches share one projection (nash_gap_experiment);
    sim.M is then the chunk's number of paths.
    """
    probe = np.asarray(probe_agents, dtype=int)
    bad = probe[(probe < 0) | (probe >= gN.N)]
    if bad.size:
        raise ConfigError(f"probe agent {bad[0]} is outside 0..{gN.N - 1}")
    if shared is None:
        return _march(spec, sim, _population(spec, gN, mfsol, sim), probe)
    march, draws = shared
    if len(draws.paths) != sim.M:
        raise ConfigError(f"shared draws hold {len(draws.paths)} paths, "
                          f"sim.M is {sim.M}")
    return spec.gamma * _run_chunk(spec, march.pop, draws, march.rows,
                                   record=False)[0]


def limit_cost_exponents(spec: ProblemSpec, z_path: np.ndarray,
                         S_path: np.ndarray, Pi: MatrixPath,
                         sim: SimConfig, alpha: float) -> np.ndarray:
    """Cost exponents for the one-agent limit problem under its own optimum.

    The agent follows dx = [A_cl x - BR^-1B^T S_a + D z_a] dt + sigma dW
    against the frozen deterministic mean path z_a; the running cost tracks
    z_a.  z_a and S_a lie on the grid of Pi, the curvature they were
    solved with.  Used to cross-check the closed-form optimal cost.
    """
    pop = _limit_population(spec, sim, Pi, z_path[None], S_path[None],
                            np.array([alpha]))
    return _march(spec, sim, pop, np.array([0]))[:, 0]


def limit_ensemble(spec: ProblemSpec, mfsol: MeanFieldSolution,
                   sim: SimConfig) -> PopulationPaths:
    """sim.M recorded paths of a limit agent at every node of the solution.

    The agent at node alpha follows the limit dynamics against its own
    frozen z_alpha; used for trajectory fans.
    """
    pop = _limit_population(spec, sim, mfsol.Pi, mfsol.z, mfsol.S,
                            mfsol.alphas)
    x, u, xN = _march(spec, sim, pop)
    return PopulationPaths(x=x, u=u, xN=xN, t=pop.sim_grid.t,
                           agent_alphas=mfsol.alphas)


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


def check_nash_gap_inputs(N_list: list[int], n_alpha: int,
                          deviate_delta: float | None = None) -> None:
    """ConfigError for inputs the epsilon-Nash experiment cannot run; cheap,
    so callers check before the mean-field solve."""
    if not N_list or min(N_list) < 1:
        raise ConfigError(f"N list must be non-empty with N >= 1: {N_list}")
    if len(set(N_list)) < len(N_list):
        raise ConfigError(f"N list repeats a population size: {N_list}")
    if n_alpha < 4 * max(N_list):
        raise ConfigError(f"eps2 needs n_alpha >= 4 * max(N) = "
                          f"{4 * max(N_list)}; the grid has {n_alpha}")
    if deviate_delta is not None and deviate_delta < 0:
        raise ConfigError("delta_prime must be >= 0")


def nash_gap_experiment(spec: ProblemSpec, g: Graphon,
                        mfsol: MeanFieldSolution, N_list: list[int],
                        sim: SimConfig, deviate_delta: float | None = None
                        ) -> NashGapReport:
    """Compare simulated decentralized costs against the limit closed form.

    For each population size N the kernel is sampled at the midpoints, M
    paths are simulated under the decentralized strategies with common
    random numbers across sizes, and each probe agent's Monte Carlo cost is
    set against the closed-form limit cost at its node, together with the
    step-approximation error triple.  Optionally agent 1 deviates on its
    own to the damped-risk strategy, to bound the gain from unilateral
    deviation: the deviating copy of each N's probe march replaces that
    agent's gain and offset rows.  Each chunk of paths draws its
    increments once, for the largest N; each N projects its view of the
    first N agents, its own draws, once for both scenarios.  Rows follow
    N_list.  Pi comes with the solution; Pi_delta and the damped offsets
    of every N come from one acp_solve over the stacked nodes.
    """
    check_nash_gap_inputs(N_list, len(mfsol.alphas), deviate_delta)
    sim_grid = sim_time_grid(spec, sim)
    nets = [sample_step(g, N) for N in N_list]
    pops = [_population(spec, gNw, mfsol, sim) for gNw in nets]
    probes = [default_probe_agents(N) for N in N_list]
    marches = [_probe_march(pop, p) for pop, p in zip(pops, probes)]
    # the deviating agent, the first probe for every N, deviates from its
    # node 0.5 / N; one backward march solves the damped law for all N
    devs = []
    if deviate_delta is not None:
        alphas = np.array([0.5 / N for N in N_list])
        acp = acp_solve(spec, deviate_delta,
                        mfsol.z[[mfsol.alpha_index(a) for a in alphas]],
                        alpha=alphas)
        K_dev, k_dev = _affine_law(spec, sim_grid.t, acp.Pi_delta,
                                   acp.S_delta)
        devs = [_deviating(*law) for law in zip(marches, K_dev, k_dev)]
    expos = [np.empty((sim.M, len(p))) for p in probes]
    dev_expos = np.empty((len(N_list), sim.M))
    # each chunk's increments are drawn once, for the largest N; every N
    # marches over the view of its first N agents (the prefix property of
    # the agent-major streams), so the sizes share their noise bit for bit
    for paths in _chunks(spec, sim, sim_grid, max(N_list)):
        noise = _noise_block(sim.seed, sim_grid, spec.d, max(N_list), paths)
        block_sim = replace(sim, M=len(paths))
        block = slice(paths.start, paths.stop)
        for i, (gNw, pop, march) in enumerate(zip(nets, pops, marches)):
            draws = march.project(_Draws(
                paths, _initial_states(spec.initial, pop.means, sim.seed,
                                       paths), noise[:, :, :gNw.N]))
            expos[i][block] = population_cost_exponents(
                spec, gNw, mfsol, block_sim, probes[i],
                shared=(march, draws))
            if devs:
                dev_expos[i, block] = population_cost_exponents(
                    spec, gNw, mfsol, block_sim, probes[i],
                    shared=(devs[i], draws))[:, 0]
            del draws
        del noise
    rows: list[NashGapRow] = []
    for i, gNw in enumerate(nets):
        eps = approximation_errors(mfsol, gNw, g, spec)
        dev_cost = cost_from_exponents(dev_expos[i]) if devs else None
        for j, a in enumerate(probes[i]):
            alpha = float((a + 0.5) / gNw.N)
            idx = mfsol.alpha_index(alpha)
            est = cost_from_exponents(expos[i][:, j])
            j_lim = closed_form_cost(spec, mfsol.Pi, mfsol.S[idx], mfsol.r[idx],
                                     spec.initial, alpha)
            rows.append(NashGapRow(
                N=gNw.N, agent=int(a) + 1, alpha=alpha, J_hat=est,
                J_limit=float(j_lim), gap=float(abs(est.mean - j_lim)),
                eps1=eps.eps1, eps2=eps.eps2, eps3=eps.eps3,
                deviation_delta=deviate_delta if a == _DEV_AGENT else None,
                deviation_cost=dev_cost if a == _DEV_AGENT else None))
    networks = tuple({"N": gNw.N, "rank": pop.coupling.rank,
                      "factored": pop.coupling.factored,
                      "march_dim": len(march.pop.means)}
                     for gNw, pop, march in zip(nets, pops, marches))
    return NashGapReport(rows=tuple(rows), seed=sim.seed, M=sim.M,
                         networks=networks)

