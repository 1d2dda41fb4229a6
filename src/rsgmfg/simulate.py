"""Finite-population SDE simulation and Monte Carlo cost estimation.

Euler-Maruyama on the shared time grid, with strategies held constant
between nodes.  All randomness comes from counter-based Philox streams
keyed by (seed, path): stream 2p gives path p's initial states, drawn per
agent.  The increments come in two families (see _increments):

* agent-level, for marches of every agent and of all N modes: stream
  2p+1, drawn agent-major in one call per path.  Ziggurat normals use a
  variable number of Philox outputs, so an increment's counter offset
  depends on the draws before it; what holds is the prefix property: the
  draw for N agents is an exact prefix of the draw for any larger
  population.
* coordinate-level, for marches on an invariant subspace: one stream per
  path and coordinate key, on key (seed, 2p+1) but started far past any
  counter stream 2p+1 reaches (see _stream).  Probe agent j's key gives
  j's own increments in every population that probes j; range key i
  gives the i-th range coordinate of every population.

Common random numbers hold per key: agent j's agent-level increments do
not depend on N, and in the epsilon-Nash experiment agent 0 (a probe for
every N) and the range coordinates take the same coordinate increments
for every N.  Results are bitwise reproducible and independent of
chunking, execution order, or worker count; increments are stored
step-major.

Every march is a list of blocks (``_Block``): a population's inputs
(simulation grid, tables, initial means, coupling, network), the agent
rows the block reads, the name its failures carry, and how it marches.
Agent a plays its own row u = -(K_a x + k_a) of the law tables.  N
agents couple through the network average W x, W = gN / N; a limit
agent couples to its own frozen mean path z_alpha.  Each sampled network
is eigendecomposed once, for its rank and eigenpairs
(graphon._eigenpairs: eigh below 500 nodes, else the certified top-L
block when it passes).

A run that asks only for probe agents' costs marches in eigenmodes of W
(see _Block) when the eigenpairs reproduce W: the shared gain keeps the
modes apart, so each steps on its own, and one modal runner, _run_modal,
marches them.  The basis follows from the network: on a network of low
rank r (q < N and 2r < N), the q = |E| + r eigenvectors of W on the
invariant subspace spanned by the probes E and the range, on coordinate
draws V^T dW ~ N(0, h I_q) rotated to the modes; otherwise all N
eigenmodes, on the agent-level draws read as U^T dW.  Recorded runs,
limit agents and networks whose eigenpairs miss W march every agent
through _run_chunk, coupled through the dense W.

One chunk loop, ``_march``, runs every Monte Carlo run.  Per block of
paths, one _increments call fills one noise buffer, and each block reads
its own columns of it; the blocks on coordinate keys march as one
stacked group, and each block on agent rows as its own group.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .control import acp_solve, closed_form_cost
from .core import Grids, InitialLaw, ProblemSpec, _matvec, _quad, _table
from .errors import ConfigError, SimulationError
from .gmfg import MeanFieldSolution
from .graphon import (Graphon, StepWeights, _eigenpairs, coupling_error_eps1,
                      sample_step)
from .odesolve import MatrixPath

_MASK64 = (1 << 64) - 1
_RECORD_LIMIT = 4 * 10 ** 8  # array elements; larger runs must stream costs
_DEV_AGENT = 0               # the agent that deviates in the epsilon-Nash runs
_PROBE_KEY, _RANGE_KEY = 1, 2  # families of coordinate keys (see _stream)
_GROUP = 32                  # rows per BLAS call of the network coupling;
                             # faster than 16 or 64 at 150 paths, N <= 200


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
    coupled to: the network average (1/N) sum_j g^N_ij x_j, through the
    dense weights gN / N (each path's bits are the same in any chunking),
    or in the limit ensemble the agent's frozen mean path z_alpha.
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
    network's rank, how its probes marched (``march``: "subspace",
    "modal" or "agents", see _Block; ``factored`` when in the
    subspace), and ``march_dim``: the states per path of the march that
    the decentralized and the deviating runs share (the q modes of the
    subspace, N modes, or N agents)."""

    rows: tuple[NashGapRow, ...]
    seed: int
    M: int
    networks: tuple[dict, ...]

    def to_dict(self) -> dict:
        rows = [{k: v for k, v in asdict(r).items() if v is not None}
                for r in self.rows]
        return {"seed": self.seed, "M": self.M, "rows": rows,
                "networks": list(self.networks)}


def _stream(seed: int, stream_id: int,
            key: tuple[int, int] | None = None) -> np.random.Generator:
    """Philox stream (seed, stream_id) from counter 0, or for a coordinate
    key (family, index) from counter (0, 0, index, family), counter words
    lowest first.  A family >= 1 starts 2^192 blocks past counter 0, and
    each index 2^128 blocks past the one before, so no stream reaches
    another's blocks."""
    counter = (None if key is None
               else np.array([0, 0, key[1], key[0]], dtype=np.uint64))
    return np.random.Generator(
        np.random.Philox(key=np.array([seed & _MASK64, stream_id & _MASK64],
                                      dtype=np.uint64), counter=counter))


def _covariance_factor(law: InitialLaw) -> np.ndarray | None:
    """A gaussian law's PSD covariance factor (n, n); None for others."""
    if law.kind != "gaussian":
        return None
    w, V = np.linalg.eigh(0.5 * (law.dispersion + law.dispersion.T))
    return V * np.sqrt(np.clip(w, 0.0, None))


def _initial_states(law: InitialLaw, fac: np.ndarray | None,
                    means: np.ndarray, seed: int, paths: range) -> np.ndarray:
    """Initial states (P, A, n) of a path block around ``means`` (A, n);
    path p's agents draw from stream 2p.  A gaussian law reads its
    covariance factor ``fac`` (see _covariance_factor), computed once per
    march."""
    if law.kind == "deterministic":
        return np.repeat(means[None], len(paths), axis=0)
    if law.kind == "gaussian":
        return np.stack([means + _stream(seed, 2 * p).standard_normal(
            means.shape) @ fac.T for p in paths])
    radius = np.diag(law.dispersion)
    return np.stack([means + _stream(seed, 2 * p).uniform(
        -1.0, 1.0, means.shape) * radius[None, :] for p in paths])


def _increments(seed: int, sim_grid: Grids, d: int, paths: range,
                keys: tuple[tuple[int, int], ...] = (), n_agents: int = 0
                ) -> np.ndarray:
    """Brownian increments of a path block, scaled by sqrt(h), in one
    step-major buffer (K, P, len(keys) + n_agents, d).

    The coordinate keys come first: column c holds key ``keys[c]``, whose
    stream on path p (see _stream) draws its K d normals in one call, so a
    key's increments do not depend on the keys beside it.  A march on an
    invariant subspace reads them as its V^T dW, whose law, N(0, h I) per
    step, they share because V is orthonormal; no agent is drawn for it.
    Agent rows 0..n_agents-1 follow: path p's stream 2p+1 draws them
    agent-major in one call, so agent j's increments do not depend on
    n_agents.  Every block of a march reads its own columns of this one
    buffer (see _march).
    """
    K, sqdt = sim_grid.n_t, math.sqrt(sim_grid.h)
    noise = np.empty((K, len(paths), len(keys) + n_agents, d))
    buf = np.empty((len(keys) + n_agents, K, d))
    for j, p in enumerate(paths):
        for c, key in enumerate(keys):
            _stream(seed, 2 * p + 1, key).standard_normal(out=buf[c])
        if n_agents:
            _stream(seed, 2 * p + 1).standard_normal(out=buf[len(keys):])
        buf *= sqdt
        noise[:, j] = np.swapaxes(buf, 0, 1)
    return noise


def _row_product(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """x (P, N, n) times the factor f (N, w) over its agent axis.

    The block's (path, component) rows are stacked as a (P n, N) matrix,
    zero-padded to a multiple of _GROUP rows and multiplied in stacked
    groups of _GROUP rows by f.  Every BLAS call then has the same shape,
    and a row's bits depend only on that row (checked on OpenBLAS's
    Katmai to SkylakeX kernels; one GEMM over the whole block changes a
    row's bits with the block's size), so results do not depend on how
    paths are chunked.  Returns (P, w, n).  For B blocks side by side, x
    is (P, B, N, n), f a (B, 1, N, w) stack of the blocks' own, and the
    result (P, B, w, n): block b makes the BLAS calls it would make alone.
    """
    L = x.ndim - 3                                   # 1 with blocks, else 0
    P, N, n = x.shape[0], x.shape[-2], x.shape[-1]
    lead = x.shape[1:1 + L]
    groups = -(-(P * n) // _GROUP)
    rows = np.empty(lead + (groups * _GROUP, N))
    rows[..., :P * n, :].reshape(lead + (P, n, N))[...] = x.transpose(
        *range(1, L + 1), 0, L + 2, L + 1)
    rows[..., P * n:, :] = 0.0
    out = np.matmul(rows.reshape(lead + (groups, _GROUP, N)), f)
    w = out.shape[-1]
    out = out.reshape(lead + (-1, w))[..., :P * n, :].reshape(lead + (P, n, w))
    return out.transpose(L, *range(L), L + 2, L + 1)


class _Network:
    """One sampled network: W = gN / N and its eigenpairs with
    |lambda| > 1e-8 (graphon._eigenpairs), U (N, rank) orthonormal, from
    which _probe_march builds its modes.  A march of every agent couples
    through the single _Subspace block W (see _Block)."""

    def __init__(self, gN: np.ndarray):
        self.W = gN / len(gN)
        self.eigenvalues, self.U = _eigenpairs(gN)[:2]
        self.rank = len(self.eigenvalues)

    def factor(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(U^T, U Lambda), U^T C-contiguous, when U Lambda U^T reproduces
        W entrywise within 1e-12 max|W|, else None: what keeps the
        modes of a probe march (see _Block) exact."""
        U_t = np.ascontiguousarray(self.U.T)
        U_lam = self.U * self.eigenvalues
        if np.max(np.abs(U_lam @ U_t - self.W)) > 1e-12 * np.max(
                np.abs(self.W)):
            return None
        return U_t, U_lam


class _Subspace:
    """The one fixed-shape block product: (P, Q, n) states side by side,
    block b's q_b states times its own factor f_b (q_b, w_b) over the
    state axis, (P, sum w_b, n) in block order; the step k is not read.
    The network average W x of N agents is the single block f = W^T; the
    modal readout and rotation are blocks too (see _run_modal).

    Each run of consecutive blocks of one shape is one _row_product call
    with the stack of their factors, whose GEMMs are those each block
    makes alone, so a block's bits do not depend on the blocks beside it
    (one block-diagonal factor does not keep them on OpenBLAS's SkylakeX
    kernel).  Only the stacks are kept.
    """

    def __init__(self, factors: list[np.ndarray]):
        self._runs, start = [], 0
        for (q, _), run in itertools.groupby(factors, key=np.shape):
            stack = np.stack(list(run))[:, None]       # (B, 1, q, w)
            self._runs.append((slice(start, start + len(stack) * q), stack))
            start += len(stack) * q

    def __call__(self, x: np.ndarray, k: int | None = None) -> np.ndarray:
        P, n = x.shape[0], x.shape[2]
        parts = [_row_product(x[:, cols].reshape(P, len(f), -1, n), f)
                 .reshape(P, -1, n) for cols, f in self._runs]
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


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
    k = R^-1 B^T S (A, len(ts), m) by _matvec, so an agent's offsets have
    the same bits in any stack of agents.  Pi and S lie on Pi's grid."""
    c = spec.coeffs
    RinvBt = _table(ts, c._RinvBt, c.B, c.R)
    S_t = MatrixPath(np.swapaxes(S, 0, 1), Pi.grid).at_times(ts)
    k = _matvec(RinvBt[:, None], S_t)                  # (len(ts), A, m)
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


@dataclass(frozen=True)
class _Modes:
    """The eigenmodes c = U^T x of a march of N agents (see _Block):
    mode l's eigenvalue ``lam[l]`` of W; the offset drift o_k of every
    step, step-major (K+1, w, n); on coordinate keys, the rotation Q (q,
    q) that turns their increments xi_V into the modes' Q^T xi_V; and, for
    a deviating march, the law (K_dev (K+1, m, n), k_dev (K+1, m)) of its
    first read agent."""

    lam: np.ndarray
    offsets: np.ndarray
    rotation: np.ndarray | None = None
    dev: tuple[np.ndarray, np.ndarray] | None = None


@dataclass(frozen=True)
class _Block:
    """One block of a march (see _march): a population's inputs, the
    agent rows ``rows`` whose costs the block reads (none for a
    population), the name its failures carry, and how it marches
    (``route``).

    A population's blocks share its grid, tables and initial means (A, n).
    ``coupling(x, k)`` is what each state of the (P, A, n) block x is
    coupled to at step k: each limit agent's frozen mean z_alpha.  The N
    agents of ``network``, their sampled network, hold None.

    "agents", without a basis V: every agent marches on agent rows
    0..A-1 of the noise buffer through _run_chunk; N agents couple
    through the single _Subspace block W that _march builds for them, the
    only march that applies it.

    Otherwise V = U (N, w) holds w orthonormal eigenvectors of
    W = gN / N that span a subspace the closed loop maps into itself, and
    ``modes`` their eigenvalues and offsets.  The shared gain makes the
    closed loop diagonal in U, so each mode steps on its own,

        c_l' = M_k(lam_l) c_l + o_{k,l} + sigma_k xi_l,   o_k = -B_k (U^T k) h,
        M_k(lam) = I + (A_k - B_k K_k + lam D_k) h,

    and the read agents' states and couplings are (x_E, (W x)_E) =
    (U_E c, (U Lambda)_E c), one readout per step (see _run_modal), with
    each read row's own law from the block's tables.  The basis is one of
    two:

    "subspace": w = q = |E| + r < N, where E holds the probes and W has
    rank r.  V (N, q), its first |E| columns the unit vectors of E and
    the others an orthonormal basis of range(W) restricted to the other
    agents, spans an invariant subspace, and U = V Q for the eigenvectors
    Q of G = V^T W V.  V^T dW is N(0, h I_q), so the march draws it
    directly: ``keys`` names each coordinate's column of the noise
    buffer, (_PROBE_KEY, j) for agent j's unit vector and (_RANGE_KEY, i)
    for the i-th range column, and xi = Q^T V^T dW.

    "modal": w = N, the r eigenvectors of W completed by an orthonormal
    basis of its null space (lambda = 0).  U^T dW is N(0, h I_N), so xi is
    read from agent rows 0..N-1 of the noise buffer.

    A deviating agent p, the first read row, adds the rank-one drift
    U_p^T (x) B_k (u_p' - u_p) h.
    """

    sim_grid: Grids
    tables: _RunTables
    means: np.ndarray        # (A, n) initial means
    coupling: Callable[[np.ndarray, int], np.ndarray] | None
    network: _Network | None = None
    rows: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    name: str | None = None
    V: np.ndarray | None = None
    keys: tuple[tuple[int, int], ...] = ()
    modes: _Modes | None = None

    @property
    def route(self) -> str:
        return ("agents" if self.V is None else
                "subspace" if self.keys else "modal")


def _population(spec: ProblemSpec, gN: StepWeights, mfsol: MeanFieldSolution,
                sim: SimConfig) -> _Block:
    """N agents at the cell midpoints, coupled through the network gN."""
    sim_grid = sim_time_grid(spec, sim)
    mids = (np.arange(gN.N) + 0.5) / gN.N
    S = mfsol.S[mfsol.alpha_index(mids)]
    return _Block(sim_grid=sim_grid,
                  tables=_build_tables(spec, sim_grid, mfsol.Pi, S),
                  means=spec.initial.mean(mids), coupling=None,
                  network=_Network(gN.gN))


def _limit_population(spec: ProblemSpec, sim: SimConfig, Pi: MatrixPath,
                      z: np.ndarray, S: np.ndarray,
                      alphas: np.ndarray) -> _Block:
    """Limit agents at the nodes ``alphas``, each coupled to its own frozen
    mean path; z and S are (A, K_sol+1, n) on the grid of Pi."""
    sim_grid = sim_time_grid(spec, sim)
    z_frozen = MatrixPath(np.swapaxes(z, 0, 1), Pi.grid).at_times(sim_grid.t)
    return _Block(sim_grid=sim_grid,
                  tables=_build_tables(spec, sim_grid, Pi, S),
                  means=spec.initial.mean(alphas),
                  coupling=lambda x, k: np.broadcast_to(z_frozen[k], x.shape))


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


def _run_chunk(spec: ProblemSpec, block: _Block, paths: range,
               x: np.ndarray, noise: np.ndarray, cols: slice, record: bool):
    """Euler-Maruyama march of every agent of ``block``, of a network or
    limit agents, over the path block ``paths`` from the initial states x
    (P, A, n).

    Each agent is coupled to y = block.coupling(x, k).  The noise buffer
    (K, P, C, d) of _increments is only read, so several blocks can march
    over it.  Each step forms u = -(K x) - k, then drift = (A x + B u) +
    D y, then x + drift dt + sigma dW, in that order, dW the step's
    columns ``cols``.  Returns per-path cost accumulators for the block's
    rows and, when asked, the trajectories [x, u, xN] (else []).
    """
    tables, probe = block.tables, block.rows
    K, dt = block.sim_grid.n_t, block.sim_grid.h
    lam = np.zeros((len(x), len(probe)))
    rec = [np.empty(x.shape[:2] + (K + 1, w))
           for w in (spec.n, spec.m, spec.n) if record]
    for k in range(K + 1):
        y = block.coupling(x, k)
        u = -_matvec(tables.Kgain[:, k], x) - tables.koff[:, k]
        _add_node_cost(lam, spec, tables, k, K, dt, x[:, probe],
                       y[:, probe], u[:, probe])
        for r, v in zip(rec, (x, u, y)):
            r[:, :, k] = v
        if k == K:
            break
        drift = _matvec(tables.A[k], x)
        drift += _matvec(tables.B[k], u)
        drift += _matvec(tables.D[k], y)
        drift *= dt
        drift += x
        drift += _matvec(tables.sig[k], noise[k][:, cols])
        x = drift
        if not (np.isfinite(np.sum(x)) or np.isfinite(x).all()):
            p_bad, a_bad = np.argwhere(~np.isfinite(x))[0, :2]
            where = "" if block.name is None else f"{block.name}, "
            raise SimulationError(f"non-finite state at path={paths[p_bad]}, "
                                  f"{where}agent={a_bad}, step={k + 1}")
    return lam, rec


def _probe_march(pop: _Block, probe: np.ndarray,
                 name: str | None = None) -> _Block:
    """The block of ``pop``, a population, that reads its probes E, named
    ``name``.  When the network's eigenpairs reproduce W (see
    _Network.factor), it marches in eigenmodes of W: the q = |E| + r modes
    of the invariant subspace spanned by E and the rank-r range of the
    network when q < N and 2r < N, else all N modes.  Otherwise, and for
    limit agents, it marches every agent.  Every agent of ``pop`` plays
    the same gain."""
    net, N = pop.network, len(pop.means)
    E = np.unique(probe)
    factor = None if net is None else net.factor()
    if factor is None:
        return replace(pop, rows=probe, name=name)
    U, lam, Q, keys = net.U, net.eigenvalues, None, ()
    # the subspace pays only with fewer coordinates than agents and a
    # factor U Lambda U^T thinner than W
    if len(E) + net.rank < N and 2 * net.rank < N:
        U_t, U_lam = factor
        rest = np.delete(np.arange(N), E)
        V = np.zeros((N, len(E) + net.rank))
        V[E, np.arange(len(E))] = 1.0
        V[rest, len(E):] = np.linalg.qr(U[rest])[0]
        lam, Q = np.linalg.eigh(V.T @ (U_lam @ (U_t @ V)))
        U = V @ Q
        keys = (tuple((_PROBE_KEY, int(j)) for j in E)
                + tuple((_RANGE_KEY, i) for i in range(net.rank)))
    elif net.rank < N:
        U = np.concatenate([U, np.linalg.qr(U, mode="complete")[0][
            :, net.rank:]], axis=1)
        lam = np.concatenate([lam, np.zeros(N - net.rank)])
    t = pop.tables
    offsets = np.tensordot(t.koff, U, (0, 0)).transpose(0, 2, 1)
    offsets = -pop.sim_grid.h * _matvec(t.B[:, None], offsets)
    return replace(pop, rows=probe, name=name, V=U, keys=keys,
                   modes=_Modes(lam, offsets, Q))


def _deviating(march: _Block, K_dev: np.ndarray,
               k_dev: np.ndarray) -> _Block:
    """``march`` with its first read agent on the law K_dev (K+1, m, n),
    k_dev (K+1, m).  A modal march keeps that law beside its parent's
    tables, which it shares (see _Modes); a march of every agent changes
    that agent's gain and offset rows, in a copy of the N rows.  All else
    is shared."""
    if march.modes is not None:
        return replace(march, modes=replace(march.modes, dev=(K_dev, k_dev)))
    t, row = march.tables, march.rows[0]
    Kgain, koff = np.array(t.Kgain), t.koff.copy()
    Kgain[row], koff[row] = K_dev, k_dev
    return replace(march, tables=replace(t, Kgain=Kgain, koff=koff))


def _run_modal(spec: ProblemSpec, blocks: list[_Block], paths: range,
               c: np.ndarray, noise: np.ndarray,
               cols: slice | np.ndarray) -> np.ndarray:
    """Euler-Maruyama march of modal blocks side by side (see _Block) over
    the path block ``paths``: c holds their modes U^T x0 in block order,
    and the columns ``cols`` of the noise buffer (K, P, C, d) the
    increments, which blocks on coordinate keys rotate to their modes.
    Per step, one _Subspace readout gives the rows' (x, W x), one
    _Subspace product rotates, and one elementwise add applies every
    deviating block's rank-one drift, so a path's bits depend neither on
    the chunk nor on the blocks beside it.  The coefficient tables, equal
    for all, come from the first block.  Returns the rows' per-path cost
    accumulators.
    """
    t, grid = blocks[0].tables, blocks[0].sim_grid
    K, h = grid.n_t, grid.h
    modes = [b.modes for b in blocks]
    starts = np.cumsum([0] + [len(m.lam) for m in modes])
    first = np.cumsum([0] + [len(b.rows) for b in blocks])
    readout = _Subspace([np.ascontiguousarray(np.concatenate(
        [b.V[b.rows], b.V[b.rows] * m.lam]).T) for b, m in zip(blocks, modes)])
    rotation = (None if modes[0].rotation is None
                else _Subspace([np.ascontiguousarray(m.rotation)
                                for m in modes]))
    # each block reads its rows' x, then their W x
    is_x = np.concatenate([np.repeat([True, False], len(b.rows))
                           for b in blocks])
    off = np.concatenate([b.tables.koff[b.rows] for b in blocks])
    lam = np.concatenate([m.lam for m in modes])[:, None, None]
    # one block reads its own table: a copy would sit beside the noise
    offsets = (modes[0].offsets if len(modes) == 1 else
               np.concatenate([m.offsets for m in modes], axis=1))
    dev = [i for i, m in enumerate(modes) if m.dev is not None]
    if dev:
        dev_at = first[dev]
        K_dev = np.stack([modes[i].dev[0] for i in dev])
        k_dev = np.stack([modes[i].dev[1] for i in dev])
        dev_modes = np.concatenate([np.arange(starts[i], starts[i + 1])
                                    for i in dev])
        if dev_modes[-1] - dev_modes[0] == len(dev_modes) - 1:
            dev_modes = slice(dev_modes[0], dev_modes[-1] + 1)  # a view
        # one deviating block broadcasts its drift, several gather theirs
        owner = (slice(0, 1) if len(dev) == 1 else
                 np.repeat(np.arange(len(dev)), np.diff(starts)[dev]))
        weight = np.concatenate([blocks[i].V[blocks[i].rows[0]]
                                 for i in dev])[:, None]
    closed = np.eye(spec.n) + h * (t.A - t.B @ t.Kgain[0])   # (K+1, n, n)
    Dh = h * t.D
    costs = np.zeros((len(c), len(off)))
    for k in range(K + 1):
        xy = readout(c)
        x, y = xy[:, is_x], xy[:, ~is_x]
        u = -_matvec(t.Kgain[0, k], x) - off[:, k]
        if dev:
            u_dev = -_matvec(K_dev[:, k], x[:, dev_at]) - k_dev[:, k]
            du = u_dev - u[:, dev_at]
            u[:, dev_at] = u_dev
        _add_node_cost(costs, spec, t, k, K, h, x, y, u)
        if k == K:
            break
        nxt = _matvec(closed[k] + lam * Dh[k], c)
        nxt += offsets[k]
        xi = noise[k][:, cols]
        nxt += _matvec(t.sig[k], xi if rotation is None else rotation(xi))
        if dev:
            nxt[:, dev_modes] += weight * (h * _matvec(t.B[k], du))[:, owner]
        c = nxt
        if not (np.isfinite(np.sum(c)) or np.isfinite(c).all()):
            p_bad, l_bad = np.argwhere(~np.isfinite(c))[0, :2]
            b = np.searchsorted(starts, l_bad, side="right") - 1
            where = ("" if blocks[b].name is None else f"{blocks[b].name}, ")
            raise SimulationError(f"non-finite state at path={paths[p_bad]}, "
                                  f"{where}mode={l_bad - starts[b]}, "
                                  f"step={k + 1}")
    return costs


def _chunks(spec: ProblemSpec, sim: SimConfig, sim_grid: Grids,
            n_agents: int):
    """Blocks of paths covering range(sim.M), each of at most about
    sim.chunk_doubles increments of ``n_agents`` agents, the largest
    population of the march; callers keep one block alive at a time.

    This bounds the noise buffer of a march on agent rows.  Marches on
    coordinate keys, which draw only those keys, get the same blocks:
    sized by what a block holds (33 coordinates a path, 11 blocks instead
    of 63), acceptance criterion 7 took 16.8 and 15.8 s against 14.7 and
    15.3 s and peaked at 328 MB against 109 MB, so the per-block loop of
    the stacked march costs less than the memory.
    """
    size = sim_grid.n_t * spec.d * n_agents
    chunk = max(1, sim.chunk_doubles // max(1, size))
    for start in range(0, sim.M, chunk):
        yield range(start, min(start + chunk, sim.M))


def _march(spec: ProblemSpec, sim: SimConfig, blocks: list[_Block],
           record: bool = False):
    """The one chunk loop: sim.M paths of every block of ``blocks``.

    Per block of paths, one _increments call fills one noise buffer: each
    distinct coordinate key of the blocks once, then the agent rows of the
    largest block on agent rows.  Each group of blocks reads its own
    columns of it, and no copy of the buffer is made: its keyed blocks'
    keys in block order, gathered one step at a time, so scenarios over
    the same keys (a deviating copy and its parent) take the same
    increments, or the agent rows 0..A-1 of its one block, as a view.
    Blocks that share their agents' means (a deviating copy and its
    parent) share one draw of their initial states, and one projection
    when they share a basis.  The blocks on coordinate keys march as one
    group, a single _run_modal call; marching each alone took the nash-gap
    experiment about 1.8 times as long (0.36-0.40 s against 0.21 s).
    Each block on agent rows marches as its own group, a modal block
    through _run_modal and a block of every agent through _run_chunk:
    stacking the eight dense blocks of nash-gap on a full-rank network ran
    the experiment about 7% slower (from the larger working set).

    Returns the exponents gamma*Lambda_T of each block's rows, (M,
    len(rows)) in block order; with ``record``, the one block's
    trajectories (x, u, xN), each (M, A, K+1, .), refused by
    check_record_size.
    """
    sim_grid = blocks[0].sim_grid
    n_max = max(len(b.means) for b in blocks)
    keys = tuple(dict.fromkeys(k for b in blocks for k in b.keys))
    n_agents = max((len(b.means) for b in blocks if not b.keys), default=0)
    keyed = [i for i, b in enumerate(blocks) if b.keys]
    groups = []
    for group in [keyed][:len(keyed)] + [
            [i] for i, b in enumerate(blocks) if not b.keys]:
        b = blocks[group[0]]
        cols = (np.array([keys.index(k) for i in group
                          for k in blocks[i].keys]) if b.keys
                else slice(len(keys), len(keys) + len(b.means)))
        if b.V is None and b.coupling is None:
            b = replace(b, coupling=_Subspace([b.network.W.T]))
        groups.append((group, cols, b))
    expos = [np.empty((sim.M, len(b.rows))) for b in blocks]
    recorded = []
    if record:
        check_record_size(spec, sim, n_max)
    # initial states are drawn once per agents' means, projected once per
    # basis; the blocks keep both alive, so their ids name them
    means = {id(b.means): b.means for b in blocks}
    bases = {(id(b.means), id(b.V)): b.V for b in blocks}
    fac = _covariance_factor(spec.initial)
    for paths in _chunks(spec, sim, sim_grid, n_max):
        noise = _increments(sim.seed, sim_grid, spec.d, paths, keys, n_agents)
        agents = {i: _initial_states(spec.initial, fac, m, sim.seed, paths)
                  for i, m in means.items()}
        x0 = {key: agents[key[0]] if V is None else _row_product(
            agents[key[0]], V) for key, V in bases.items()}
        for group, cols, b in groups:
            starts = [x0[id(blocks[i].means), id(blocks[i].V)] for i in group]
            c = starts[0] if len(starts) == 1 else np.concatenate(starts, 1)
            if b.V is None:
                lam, trajectories = _run_chunk(spec, b, paths, c, noise, cols,
                                               record)
            else:
                lam = _run_modal(spec, [blocks[i] for i in group], paths, c,
                                 noise, cols)
            splits = np.cumsum([len(blocks[i].rows) for i in group])[:-1]
            for i, part in zip(group, np.split(lam, splits, axis=1)):
                expos[i][paths.start:paths.stop] = spec.gamma * part
        if record:
            recorded.append(trajectories)
        del noise
    if record:
        return tuple(np.concatenate(parts) for parts in zip(*recorded))
    return expos


def _recorded(spec: ProblemSpec, sim: SimConfig, pop: _Block,
              alphas: np.ndarray) -> PopulationPaths:
    """sim.M recorded paths of every agent of ``pop``, at nodes ``alphas``."""
    x, u, xN = _march(spec, sim, [pop], record=True)
    return PopulationPaths(x=x, u=u, xN=xN, t=pop.sim_grid.t,
                           agent_alphas=alphas)


def simulate_population(spec: ProblemSpec, gN: StepWeights,
                        mfsol: MeanFieldSolution, sim: SimConfig) -> PopulationPaths:
    """Simulate the N-agent closed loop under the decentralized strategies.

        dx_i = [A x_i + B u_i + D xN_i] dt + sigma dW_i,
        u_i  = -R^-1 B^T Pi x_i - R^-1 B^T S_{I_i*},

    with initial states drawn independently from the configured law.  The
    full trajectory set is recorded; use the cost-only helpers for runs too
    large to hold in memory.
    """
    return _recorded(spec, sim, _population(spec, gN, mfsol, sim),
                     (np.arange(gN.N) + 0.5) / gN.N)


def population_cost_exponents(spec: ProblemSpec, gN: StepWeights,
                              mfsol: MeanFieldSolution, sim: SimConfig,
                              probe_agents: np.ndarray) -> np.ndarray:
    """Cost exponents gamma*Lambda_T for probed agents, without recording.

    Returns an (M, len(probe_agents)) array; memory use is bounded by the
    chunk size regardless of M.  The march runs in eigenmodes of the
    network (see _Block).  On a low-rank network they draw their
    subspace's coordinates V^T dW from their own keys: the costs have the
    law of the full march's, and equal it up to rounding on the lifted
    draw dW = V xi + (I - V V^T) eta, eta fresh, not on stream 2p+1.  The
    N modes of another network read stream 2p+1 as xi: the costs equal
    the full march's up to rounding on dW = U xi.  Only a network whose
    eigenpairs miss W marches every agent on stream 2p+1.  Probe agents
    lie in [0, N).
    """
    probe = np.asarray(probe_agents, dtype=int)
    bad = probe[(probe < 0) | (probe >= gN.N)]
    if bad.size:
        raise ConfigError(f"probe agent {bad[0]} is outside 0..{gN.N - 1}")
    pop = _population(spec, gN, mfsol, sim)
    return _march(spec, sim, [_probe_march(pop, probe)])[0]


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
    return _march(spec, sim, [_probe_march(pop, np.array([0]))])[0][:, 0]


def limit_ensemble(spec: ProblemSpec, mfsol: MeanFieldSolution,
                   sim: SimConfig) -> PopulationPaths:
    """sim.M recorded paths of a limit agent at every node of the solution.

    The agent at node alpha follows the limit dynamics against its own
    frozen z_alpha; used for trajectory fans.
    """
    pop = _limit_population(spec, sim, mfsol.Pi, mfsol.z, mfsol.S,
                            mfsol.alphas)
    return _recorded(spec, sim, pop, mfsol.alphas)


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

    dz = mfsol.z[mfsol.alpha_index(mids)][cell]     # (P, K+1, n), in place
    dz -= mfsol.z[mfsol.alpha_index(points)]
    eps2 = float(np.max(np.abs(dz, out=dz)))

    m_pts = spec.initial.mean(points)
    m_step = spec.initial.mean(mids)[cell]
    eps3 = float(np.max(np.abs(m_step - m_pts)))
    return ApproximationErrors(float(eps1), eps2, eps3)


def default_probe_agents(N: int) -> np.ndarray:
    """First, middle, last agent (0-based indices, deduplicated)."""
    return np.array(list(dict.fromkeys([0, math.ceil(N / 2) - 1, N - 1])),
                    dtype=int)


def check_record_size(spec: ProblemSpec, sim: SimConfig,
                      n_agents: int) -> None:
    """SimulationError for a recorded run of ``n_agents`` agents above
    _RECORD_LIMIT elements; cheap, so callers check before the mean-field
    solve."""
    total = (sim.M * n_agents * (sim_time_grid(spec, sim).n_t + 1)
             * (2 * spec.n + spec.m))
    if total > _RECORD_LIMIT:
        raise SimulationError(
            f"recorded run would hold {total:.2e} elements; "
            "use nash_gap_experiment / cost streaming for runs this large")


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
    if deviate_delta is not None and not deviate_delta >= 0:
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
    deviation: the deviating copy of each N's probe march puts that agent
    on its damped law (see _deviating), and that agent's cost is read
    from it.

    Every N, and every deviating copy, is one block of one _march call.
    Rows follow N_list.  Pi comes with the solution; Pi_delta and the
    damped laws of every N come from one acp_solve over the stacked
    nodes and one _affine_law over its offsets.
    """
    check_nash_gap_inputs(N_list, len(mfsol.alphas), deviate_delta)
    nets = [sample_step(g, N) for N in N_list]
    pops = [_population(spec, gNw, mfsol, sim) for gNw in nets]
    probes = [default_probe_agents(N) for N in N_list]
    marches = [_probe_march(pop, p, f"N={N}")
               for N, pop, p in zip(N_list, pops, probes)]
    blocks = list(marches)
    if deviate_delta is not None:
        # the deviating agent, the first probe for every N, deviates from
        # its node 0.5 / N; one backward march solves the damped law for
        # all N
        alphas = np.array([0.5 / N for N in N_list])
        acp = acp_solve(spec, deviate_delta,
                        mfsol.z[mfsol.alpha_index(alphas)], alpha=alphas)
        K_dev, k_dev = _affine_law(spec, pops[0].sim_grid.t, acp.Pi_delta,
                                   acp.S_delta)
        # each copy reads its parent's rows, so every keyed block's readout
        # factor has one shape and the stacked readout is one product
        blocks += [replace(_deviating(m, K_dev[i], k_dev[i]),
                           name=f"{m.name} deviating")
                   for i, m in enumerate(marches)]
    expos = _march(spec, sim, blocks)
    rows: list[NashGapRow] = []
    for i, gNw in enumerate(nets):
        eps = approximation_errors(mfsol, gNw, g, spec)
        dev_cost = (cost_from_exponents(expos[len(nets) + i][:, 0])
                    if deviate_delta is not None else None)
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
    networks = tuple({"N": gNw.N, "rank": pop.network.rank,
                      "factored": march.route == "subspace",
                      "march": march.route,
                      "march_dim": (len(march.means) if march.V is None
                                    else march.V.shape[1])}
                     for gNw, pop, march in zip(nets, pops, marches))
    return NashGapReport(rows=tuple(rows), seed=sim.seed, M=sim.M,
                         networks=networks)

