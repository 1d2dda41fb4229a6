"""Graphon kernels: evaluation, sampling, and spectra.

A graphon is a symmetric measurable kernel g: [0,1]^2 -> [0,1].  It acts
on node profiles h through (G h)(a) = int_0^1 g(a, b) h(b) db, discretized
everywhere here by the midpoint rule on the shared node grid.
"""

from __future__ import annotations

import csv
import warnings as _warnings
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import _number, _object, _reals
from .errors import ConfigError

KINDS = ("constant", "sinusoidal", "uniform_attachment", "half", "step")


@dataclass(frozen=True)
class Graphon:
    """Analytic kernel family plus step kernels induced by weight matrices.

    sinusoidal          cos^2(pi (a - b) / 2)
    uniform_attachment  1 - max(a, b)
    half                1{b >= a + 0.5 or a >= b + 0.5}   (non-strict >=)
    constant            c
    step                cell value of an N_g-regular step function
    """

    kind: str
    c: float = 1.0
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown graphon kind '{self.kind}'")
        if self.kind == "constant" and not (0.0 <= self.c <= 1.0):
            raise ConfigError("constant graphon level must lie in [0, 1]")
        if self.kind == "step":
            W = self.weights
            if W is None or W.ndim != 2 or W.shape[0] != W.shape[1]:
                raise ConfigError("step graphon needs a square weight matrix")
            if not np.all(np.isfinite(W)):     # NaN fails every test below
                raise ConfigError("step weights must be finite")
            if np.max(np.abs(W - W.T)) > 1e-12 or W.min() < 0 or W.max() > 1:
                raise ConfigError("step weights must be symmetric with entries in [0, 1]")

    @staticmethod
    def constant(c: float) -> "Graphon":
        return Graphon(kind="constant", c=float(c))

    @staticmethod
    def sinusoidal() -> "Graphon":
        return Graphon(kind="sinusoidal")

    @staticmethod
    def uniform_attachment() -> "Graphon":
        return Graphon(kind="uniform_attachment")

    @staticmethod
    def half() -> "Graphon":
        return Graphon(kind="half")

    @staticmethod
    def step(weights: np.ndarray) -> "Graphon":
        W = np.asarray(weights, dtype=float)
        # non-finite weights are refused by __post_init__, without warnings
        with np.errstate(invalid="ignore"):
            asym = np.max(np.abs(W - W.T)) if W.ndim == 2 else 0.0
            if asym > 1e-12:
                _warnings.warn(
                    f"step weights symmetrized; asymmetry was {asym:.3e}",
                    stacklevel=2)
            W = 0.5 * (W + W.T)
        return Graphon(kind="step", weights=W)


@dataclass(frozen=True)
class StepWeights:
    """Finite network weights g^N_ij in [0,1] on N nodes."""

    gN: np.ndarray

    @property
    def N(self) -> int:
        return self.gN.shape[0]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Retained eigenpairs of the discretized kernel operator.

    eigenvalues are ordered by decreasing |lambda|; eigenvectors holds the
    eigenfunction samples f_l on the node grid, column per eigenvalue,
    normalized so that mean(f_l^2) = 1 (grid orthonormality).  residual is
    the grid L2 norm of the kernel minus its retained-rank expansion, the
    Frobenius norm of the operator's remainder, which bounds every dropped
    eigenvalue; eigensolver names the path of _eigenpairs that ran,
    "top-L" or "eigh".
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    rank: int
    residual: float
    eigensolver: str


def _cell_index(x: np.ndarray, n_cells: int) -> np.ndarray:
    # cells (0, 1/N], ..., ((N-1)/N, 1] with 0 assigned to the first cell
    idx = np.ceil(np.asarray(x) * n_cells).astype(int) - 1
    return np.clip(idx, 0, n_cells - 1)


def evaluate(g: Graphon, alpha, beta):
    """Kernel value g(alpha, beta); vectorized with numpy broadcasting."""
    a = np.asarray(alpha, dtype=float)
    b = np.asarray(beta, dtype=float)
    if np.any(a < 0) or np.any(a > 1) or np.any(b < 0) or np.any(b > 1):
        raise ValueError("graphon arguments must lie in [0, 1]")
    if g.kind == "constant":
        out = np.full(np.broadcast_shapes(a.shape, b.shape), g.c)
    elif g.kind == "sinusoidal":
        out = np.cos(0.5 * np.pi * (a - b)) ** 2
    elif g.kind == "uniform_attachment":
        out = 1.0 - np.maximum(a, b)
    elif g.kind == "half":
        out = ((b >= a + 0.5) | (a >= b + 0.5)).astype(float)
    else:  # step
        W = g.weights
        out = W[_cell_index(a, W.shape[0]), _cell_index(b, W.shape[0])]
    if out.ndim == 0:
        return float(out)
    return out


def grid_matrix(g: Graphon, alphas: np.ndarray) -> np.ndarray:
    """Kernel sampled on a node grid: G_ij = g(alpha_i, alpha_j)."""
    a = np.asarray(alphas, dtype=float)
    return np.asarray(evaluate(g, a[:, None], a[None, :]), dtype=float)


def sample_step(g: Graphon, N: int) -> StepWeights:
    """Finite weights by midpoint sampling: g^N_ij = g(I_i*, I_j*)."""
    if N < 1:
        raise ConfigError("N must be >= 1")
    mids = (np.arange(N) + 0.5) / N
    return StepWeights(gN=grid_matrix(g, mids))


# The top-L block of _eigenpairs: randomized subspace iteration (Halko,
# Martinsson & Tropp, SIAM Rev. 53(2), 2011, Algs 4.4 and 5.3).  Measured
# on a 2-vCPU Xeon VM at one BLAS thread (OpenBLAS 0.3.31): eigh of the
# n x n operator takes 1.9, 19 and 137 ms at n = 200, 500 and 1000 on the
# sinusoidal kernel, where the block takes 0.4, 2.1 and 8.9 ms; on the
# full-rank uniform-attachment and half kernels the block fails its
# certificate in 0.5, 2.1 and 10.7 ms, and eigh runs as well.  Below
# n = 500 the saving is a few ms and the n_alpha = 200 benchmark figures
# rest on eigh's eigenvectors, so eigh alone runs there.  One block of
# L = 16 and no doubling: blocks of L = 8, 16, ..., 128 take 8 + 10 + 17 +
# 33 + 78 ms on a full-rank kernel at n = 1000, about one more eigh before
# the fallback.
_TOP_L = 16
_TOP_L_MIN_N = 500
_TOP_L_KEY = 0x746F704C    # the block's own Philox key, apart from any seed


class _Eigenpairs(NamedTuple):
    values: np.ndarray      # ascending
    vectors: np.ndarray     # orthonormal columns
    residual: float         # ||K - U diag(values) U^T||_F
    solver: str             # "top-L" or "eigh"


def _top_block(K: np.ndarray, rank_tol: float) -> _Eigenpairs | None:
    """The pairs of K with |lambda| > rank_tol from one block of _TOP_L
    Gaussian columns, two power steps and Rayleigh-Ritz, or None when the
    remainder R = K - U Theta U^T fails ||R||_F <= rank_tol.  By Weyl's
    inequality a passing R bounds every dropped eigenvalue by rank_tol.
    """
    rng = np.random.Generator(np.random.Philox(key=_TOP_L_KEY))
    Y = K @ rng.standard_normal((len(K), _TOP_L))
    for _ in range(2):
        Y = K @ np.linalg.qr(Y)[0]
    Q = np.linalg.qr(Y)[0]
    theta, S = np.linalg.eigh(Q.T @ (K @ Q))
    keep = np.abs(theta) > rank_tol
    U = Q @ S[:, keep]
    R = (U * theta[keep]) @ U.T
    R -= K
    residual = float(np.linalg.norm(R))
    if not residual <= rank_tol:      # a NaN residual fails as well
        return None
    return _Eigenpairs(theta[keep], U, residual, "top-L")


def _eigenpairs(G: np.ndarray, rank_tol: float = 1e-8) -> _Eigenpairs:
    """Eigenpairs of the operator G / N of a kernel sampled on N nodes.

    The pairs of the symmetrized K = G / N with |lambda| > rank_tol, in
    ascending order with orthonormal eigenvector columns, and the
    Frobenius norm of the remainder K - U diag(lambda) U^T.  From N =
    _TOP_L_MIN_N on, the certified top-L block (_top_block) is tried
    first; otherwise, or when it fails, ``eigh`` of K gives the pairs and
    the remainder norm sqrt(sum of the dropped lambda^2).  The one
    factorization of a sampled kernel or network.
    """
    # G may live through the caller's solve: drop G / N before eigh
    K = G / G.shape[0]
    K = 0.5 * (K + K.T)
    if len(K) >= _TOP_L_MIN_N:
        pairs = _top_block(K, rank_tol)
        if pairs is not None:
            return pairs
    evals, evecs = np.linalg.eigh(K)
    keep = np.abs(evals) > rank_tol
    return _Eigenpairs(evals[keep], evecs[:, keep],
                       float(np.sqrt(np.sum(evals[~keep] ** 2))), "eigh")


def spectral_decompose(G: np.ndarray,
                       rank_tol: float = 1e-8) -> SpectralDecomposition:
    """Eigendecomposition of the midpoint-discretized kernel operator.

    ``G`` is the kernel sampled on the node grid, G_ij = g(a_i, a_j) (see
    ``grid_matrix``), N x N.  The operator matrix is K_ij = G_ij / N, whose
    eigenvalues converge to the kernel's; eigenvectors are rescaled by
    sqrt(N) so the sampled eigenfunctions are orthonormal under the grid
    inner product (1/N) sum_i f(a_i) f'(a_i).  All eigenvalues with
    |lambda| > rank_tol are retained, and the residual is the remainder
    norm that _eigenpairs reports: the top-L block's certificate, or the
    dropped eigenvalues' root sum of squares after eigh.
    """
    N = G.shape[0]
    pairs = _eigenpairs(G, rank_tol)
    order = np.argsort(-np.abs(pairs.values), kind="stable")
    evals = pairs.values[order]
    evecs = pairs.vectors[:, order] * np.sqrt(N)
    # deterministic sign: largest-magnitude component positive
    for k in range(evecs.shape[1]):
        j = int(np.argmax(np.abs(evecs[:, k])))
        if evecs[j, k] < 0:
            evecs[:, k] = -evecs[:, k]
    return SpectralDecomposition(eigenvalues=evals, eigenvectors=evecs,
                                 rank=int(evals.size),
                                 residual=pairs.residual,
                                 eigensolver=pairs.solver)


def coupling_error_eps1(gN: StepWeights | np.ndarray, g: Graphon,
                        refine: int = 16) -> float:
    """Row-wise network-vs-kernel mass error.

        max_i sum_j | g^N_ij / N - int_{I_j} g(I_i*, b) db |

    with per-cell integrals by a ``refine``-point midpoint rule.
    """
    W = gN.gN if isinstance(gN, StepWeights) else np.asarray(gN, dtype=float)
    N = W.shape[0]
    mids = (np.arange(N) + 0.5) / N
    sub = (np.arange(N)[:, None] + (np.arange(refine)[None, :] + 0.5) / refine) / N
    fine = np.asarray(evaluate(g, mids[:, None], sub.reshape(-1)[None, :]),
                      dtype=float)
    cell_int = fine.reshape(N, N, refine).mean(axis=2) / N
    return float(np.max(np.abs(W / N - cell_int).sum(axis=1)))


def graphon_from_config(cfg: dict, base_dir: str | Path | None = None) -> Graphon:
    """Build a Graphon from the config sub-dictionary."""
    if cfg is None:
        raise ConfigError("missing 'graphon' configuration")
    kind = str(_object("graphon", cfg).get("kind", "")).lower()
    if kind == "constant":
        return Graphon.constant(_number("graphon 'c'", cfg.get("c", 1.0)))
    if kind in ("sinusoidal", "uniform_attachment", "half"):
        return Graphon(kind=kind)
    if kind == "step":
        if "weights" in cfg:
            return Graphon.step(_reals("graphon weights", cfg["weights"]))
        if "csv" in cfg:
            path = Path(cfg["csv"])
            if base_dir is not None and not path.is_absolute():
                path = Path(base_dir) / path
            return load_step_csv(path)
        raise ConfigError("step graphon needs 'weights' or 'csv'")
    raise ConfigError(f"unknown graphon kind '{kind}'")


def load_step_csv(path: str | Path) -> Graphon:
    """Read an N x N weight matrix from CSV; symmetrizes with a warning."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"step graphon file not found: {p}")
    with p.open(newline="") as fh:
        try:    # an entry that is not a number, or rows of unequal length
            W = np.array([[float(x) for x in r] for r in csv.reader(fh) if r])
        except ValueError as exc:
            raise ConfigError(f"step graphon CSV {p}: {exc}") from None
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ConfigError("step graphon CSV must be a square matrix")
    return Graphon.step(W)
