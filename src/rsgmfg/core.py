"""Problem specification, configuration ingestion, and assumption checks.

A model instance is a linear SDE for each agent,

    dx = (A x + B u + D y) dt + sigma dW,

with an exponentiated quadratic cost exp(gamma * Lambda_T) built from the
weights Q, R, Qf and the tracking maps Gamma, Gamma_f; y is the network-
weighted population average the agent is coupled to.  This module parses
that data from JSON, lifts constants to functions of t, and evaluates the
positivity conditions the solvers rely on.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError

# Eigenvalue slack treated as zero when testing matrix sign conditions;
# absorbs symmetrization round-off.
PSD_TOL = 1e-10

COEFFICIENT_KEYS = ("A", "B", "D", "sigma", "Q", "R", "Qf", "Gamma", "Gamma_f")

MEAN_PRESETS = {
    "alpha": lambda a: a,
    "one_minus_alpha": lambda a: 1.0 - a,
    "sin_pi_alpha": lambda a: np.sin(np.pi * a),
}


def _eigvalsh(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric part of a matrix, or of each
    matrix in a stack (..., n, n); exact for 1x1."""
    sym = 0.5 * (mat + np.swapaxes(mat, -1, -2))
    if sym.shape[-2:] == (1, 1):
        return sym[..., 0]
    return np.linalg.eigvalsh(sym)


def eigmin(mat: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetric part of ``mat`` (exact for 1x1)."""
    return float(_eigvalsh(mat)[0])


def eigmax(mat: np.ndarray) -> float:
    """Largest eigenvalue of the symmetric part of ``mat`` (exact for 1x1)."""
    return float(_eigvalsh(mat)[-1])


class TimeMatrix:
    """Matrix-valued function of t: a constant or a piecewise-linear table.

    Tabulated inputs are interpolated linearly and clamped outside their
    node range, so every coefficient stays bounded on [0, T].
    """

    __slots__ = ("_const", "_t", "_v", "shape")

    def __init__(self, const: np.ndarray | None = None,
                 t: np.ndarray | None = None, values: np.ndarray | None = None):
        if const is not None:
            self._const = np.asarray(const, dtype=float)
            self._t = None
            self._v = None
            self.shape = self._const.shape
        else:
            self._const = None
            self._t = np.asarray(t, dtype=float)
            self._v = np.asarray(values, dtype=float)
            self.shape = self._v.shape[1:]

    @property
    def is_constant(self) -> bool:
        return self._const is not None

    def __call__(self, t: float) -> np.ndarray:
        if self._const is not None:
            return self._const
        ts = self._t
        if t <= ts[0]:
            return self._v[0]
        if t >= ts[-1]:
            return self._v[-1]
        i = int(np.searchsorted(ts, t, side="right")) - 1
        w = (t - ts[i]) / (ts[i + 1] - ts[i])
        return (1.0 - w) * self._v[i] + w * self._v[i + 1]

    def table(self) -> np.ndarray | None:
        return self._v


@dataclass(frozen=True)
class Coefficients:
    """Model coefficients; A, B, D, sigma, Q, R vary in t, the rest are constant."""

    A: TimeMatrix
    B: TimeMatrix
    D: TimeMatrix
    sigma: TimeMatrix
    Q: TimeMatrix
    R: TimeMatrix
    Qf: np.ndarray
    Gamma: np.ndarray
    Gamma_f: np.ndarray
    gamma: float
    T: float

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def d(self) -> int:
        return self.sigma.shape[1]

    @cached_property
    def _RinvBt_const(self) -> np.ndarray:
        out = np.linalg.solve(self.R(0.0), self.B(0.0).T)
        out.setflags(write=False)
        return out

    def _RinvBt(self, t: float) -> np.ndarray:
        """R^{-1} B^T at time t, solved once when B and R are constant."""
        if self.B.is_constant and self.R.is_constant:
            return self._RinvBt_const
        return np.linalg.solve(self.R(t), self.B(t).T)

    def BRBt(self, t: float) -> np.ndarray:
        """B R^{-1} B^T at time t."""
        return self.B(t) @ self._RinvBt(t)

    def riccati_quadratic(self, t: float, gamma_eff: float | None = None) -> np.ndarray:
        """B R^{-1} B^T - 2*gamma*sigma*sigma^T, the quadratic-term weight."""
        g = self.gamma if gamma_eff is None else gamma_eff
        sig = self.sigma(t)
        return self.BRBt(t) - 2.0 * g * (sig @ sig.T)


@dataclass(frozen=True)
class Grids:
    """Uniform time grid on [0, T] and midpoint node grid on [0, 1]."""

    T: float
    n_t: int
    n_alpha: int
    t: np.ndarray = field(repr=False, default=None)
    alpha: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "t", np.linspace(0.0, self.T, self.n_t + 1))
        object.__setattr__(
            self, "alpha", (np.arange(self.n_alpha) + 0.5) / self.n_alpha)

    @property
    def h(self) -> float:
        return self.T / self.n_t


@dataclass(frozen=True)
class InitialLaw:
    """Initial state distribution: mean profile over nodes plus a dispersion.

    kind is one of ``deterministic``, ``compact_uniform`` (uniform on a box
    mean +- radius per dimension) or ``gaussian`` (covariance ``dispersion``).
    Gaussian support is unbounded; the assumption report carries a warning
    for it instead of refusing to solve.
    """

    kind: str
    mean_expr: str | None
    _mean_const: np.ndarray | None
    dispersion: np.ndarray

    def mean(self, alpha) -> np.ndarray:
        """Mean initial state at node alpha; vectorized over arrays."""
        a = np.asarray(alpha, dtype=float)
        n = self.dispersion.shape[0]
        if self.mean_expr is not None:
            prof = MEAN_PRESETS[self.mean_expr](a)
            return np.multiply.outer(prof, np.ones(n))
        return np.multiply.outer(np.ones_like(a), self._mean_const)

@dataclass(frozen=True)
class ProblemSpec:
    coeffs: Coefficients
    initial: InitialLaw
    grids: Grids
    graphon_cfg: dict | None
    simulation_cfg: dict | None
    config: dict

    @property
    def n(self) -> int:
        return self.coeffs.n

    @property
    def m(self) -> int:
        return self.coeffs.m

    @property
    def d(self) -> int:
        return self.coeffs.d

    @property
    def gamma(self) -> float:
        return self.coeffs.gamma

    @property
    def T(self) -> float:
        return self.coeffs.T


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the standing positivity checks.

    h3_ok: Q(t) >= 0, R(t) > 0 on every time node and Qf >= 0.
    h4_min_eigenvalue: min over the grid of the smallest eigenvalue of
    B R^{-1} B^T - 2*gamma*sigma*sigma^T; a negative value means the
    risk-sensitive Riccati equation may escape in finite time and is a
    hard error downstream.
    """

    h3_ok: bool
    h4_min_eigenvalue: float
    warnings: tuple[str, ...]

    @property
    def h4_ok(self) -> bool:
        return self.h4_min_eigenvalue >= -PSD_TOL


def _parse_matrix_entry(name: str, raw, rows: int | None, cols: int | None) -> TimeMatrix:
    """Accept scalar, nested array, or {"t": [...], "values": [...]} tables."""
    if isinstance(raw, dict):
        if "t" not in raw or "values" not in raw:
            raise ConfigError(
                f"coefficient '{name}': time table needs keys 't' and 'values'")
        ts = np.asarray(raw["t"], dtype=float)
        vals = [np.atleast_2d(np.asarray(v, dtype=float)) for v in raw["values"]]
        if ts.ndim != 1 or len(vals) != ts.size or ts.size < 2:
            raise ConfigError(f"coefficient '{name}': malformed time table")
        if np.any(np.diff(ts) <= 0):
            raise ConfigError(f"coefficient '{name}': table times must increase")
        mat = TimeMatrix(t=ts, values=np.stack(vals))
    else:
        arr = np.atleast_2d(np.asarray(raw, dtype=float))
        mat = TimeMatrix(const=arr)
    if not np.all(np.isfinite(mat.table() if mat.table() is not None else mat(0.0))):
        raise ConfigError(f"coefficient '{name}': non-finite entries")
    r, c = mat.shape
    if rows is not None and r != rows:
        raise ConfigError(f"coefficient '{name}': expected {rows} rows, got {r}")
    if cols is not None and c != cols:
        raise ConfigError(f"coefficient '{name}': expected {cols} columns, got {c}")
    return mat


def _require_symmetric(name: str, tm: TimeMatrix) -> None:
    mats = tm.table() if tm.table() is not None else tm(0.0)[None]
    for m in mats:
        if np.max(np.abs(m - m.T)) > PSD_TOL:
            raise ConfigError(f"coefficient '{name}' must be symmetric")


def spec_from_dict(config: dict) -> ProblemSpec:
    """Build a ProblemSpec from an in-memory configuration dictionary."""
    try:
        coeff_cfg = config["coefficients"]
    except KeyError:
        raise ConfigError("missing top-level key 'coefficients'") from None
    for key in COEFFICIENT_KEYS:
        if key not in coeff_cfg:
            raise ConfigError(f"missing coefficient '{key}'")

    A = _parse_matrix_entry("A", coeff_cfg["A"], None, None)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ConfigError("coefficient 'A' must be square")
    B = _parse_matrix_entry("B", coeff_cfg["B"], n, None)
    m = B.shape[1]
    D = _parse_matrix_entry("D", coeff_cfg["D"], n, n)
    sigma = _parse_matrix_entry("sigma", coeff_cfg["sigma"], n, None)
    Q = _parse_matrix_entry("Q", coeff_cfg["Q"], n, n)
    R = _parse_matrix_entry("R", coeff_cfg["R"], m, m)
    Qf_tm = _parse_matrix_entry("Qf", coeff_cfg["Qf"], n, n)
    Gamma_tm = _parse_matrix_entry("Gamma", coeff_cfg["Gamma"], n, n)
    Gamma_f_tm = _parse_matrix_entry("Gamma_f", coeff_cfg["Gamma_f"], n, n)
    for name, tm in (("Qf", Qf_tm), ("Gamma", Gamma_tm), ("Gamma_f", Gamma_f_tm)):
        if not tm.is_constant:
            raise ConfigError(f"coefficient '{name}' must be constant in t")
    _require_symmetric("Q", Q)
    _require_symmetric("R", R)
    _require_symmetric("Qf", Qf_tm)

    try:
        gamma = float(config["gamma"])
        T = float(config["T"])
    except KeyError as exc:
        raise ConfigError(f"missing top-level key '{exc.args[0]}'") from None
    if not (gamma > 0.0):
        raise ConfigError("gamma must be positive")
    if not (T > 0.0):
        raise ConfigError("T must be positive")

    # Statically checkable sign conditions are configuration errors; the
    # grid-wise re-check lives in validate_assumptions.
    Qf = Qf_tm(0.0)
    if eigmin(Qf) < -PSD_TOL:
        raise ConfigError("Qf must be positive semidefinite")
    for name, tm, strict in (("Q", Q, False), ("R", R, True)):
        mats = tm.table() if tm.table() is not None else tm(0.0)[None]
        for mat in mats:
            ev = eigmin(mat)
            if strict and ev <= PSD_TOL:
                raise ConfigError(f"'{name}' must be uniformly positive definite")
            if not strict and ev < -PSD_TOL:
                raise ConfigError(f"'{name}' must be positive semidefinite")

    grids_cfg = config.get("grids", {})
    n_t = int(grids_cfg.get("n_t", 1000))
    n_alpha = int(grids_cfg.get("n_alpha", 100))
    if n_t < 1 or n_alpha < 1:
        raise ConfigError("grids.n_t and grids.n_alpha must be >= 1")
    grids = Grids(T=T, n_t=n_t, n_alpha=n_alpha)

    initial = _parse_initial_law(config.get("initial_law", {}), n)

    coeffs = Coefficients(A=A, B=B, D=D, sigma=sigma, Q=Q, R=R, Qf=Qf,
                          Gamma=Gamma_tm(0.0), Gamma_f=Gamma_f_tm(0.0),
                          gamma=gamma, T=T)
    return ProblemSpec(coeffs=coeffs, initial=initial, grids=grids,
                       graphon_cfg=config.get("graphon"),
                       simulation_cfg=config.get("simulation"),
                       config=config)


def _parse_initial_law(cfg: dict, n: int) -> InitialLaw:
    kind = str(cfg.get("kind", "deterministic")).lower()
    if kind not in ("deterministic", "compact_uniform", "gaussian"):
        raise ConfigError(f"unknown initial_law kind '{kind}'")

    mean_raw = cfg.get("mean", 0.0)
    mean_expr = None
    mean_const = None
    if isinstance(mean_raw, dict):
        expr = mean_raw.get("expr")
        if expr not in MEAN_PRESETS:
            raise ConfigError(
                f"unknown initial mean preset '{expr}'; "
                f"available: {sorted(MEAN_PRESETS)}")
        mean_expr = expr
    else:
        mean_const = np.atleast_1d(np.asarray(mean_raw, dtype=float))
        if mean_const.size == 1 and n > 1:
            mean_const = np.full(n, mean_const[0])
        if mean_const.shape != (n,):
            raise ConfigError("initial mean must be a scalar or length-n array")
        if not np.all(np.isfinite(mean_const)):
            raise ConfigError("initial mean must be finite")

    disp_raw = cfg.get("dispersion", 0.0)
    disp = np.asarray(disp_raw, dtype=float)
    if kind == "gaussian":
        if disp.ndim == 0:
            disp = float(disp) * np.eye(n)
        elif disp.ndim == 1:
            disp = np.diag(disp)
        if disp.shape != (n, n) or eigmin(disp) < -PSD_TOL:
            raise ConfigError("gaussian dispersion must be an n-by-n covariance >= 0")
    else:
        if disp.ndim == 0:
            disp = np.full(n, float(disp))
        if disp.shape != (n,) or np.any(disp < 0):
            raise ConfigError("dispersion must be a nonnegative radius per dimension")
        disp = np.diag(disp)
    return InitialLaw(kind=kind, mean_expr=mean_expr,
                      _mean_const=mean_const, dispersion=disp)


def load_spec(path: str | Path) -> ProblemSpec:
    """Load and validate a JSON configuration file."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        config = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    return spec_from_dict(config)


def validate_assumptions(spec: ProblemSpec) -> AssumptionReport:
    """Evaluate the positivity conditions on every node of the time grid.

    Pure: identical specs produce identical reports.  Failures are carried
    in the report, not raised; solvers decide what is fatal.
    """
    c = spec.coeffs
    warnings: list[str] = []
    h3_ok = True
    h4_min = math.inf
    for t in spec.grids.t:
        if eigmin(c.Q(t)) < -PSD_TOL:
            h3_ok = False
            warnings.append(f"Q(t) loses semidefiniteness at t={t:.6g}")
        if eigmin(c.R(t)) <= PSD_TOL:
            h3_ok = False
            warnings.append(f"R(t) is not positive definite at t={t:.6g}")
        h4_min = min(h4_min, eigmin(c.riccati_quadratic(t)))
    if eigmin(c.Qf) < -PSD_TOL:
        h3_ok = False
        warnings.append("Qf loses semidefiniteness")
    if spec.initial.kind == "gaussian":
        warnings.append(
            "gaussian initial law has unbounded support; the compactness "
            "assumption behind the finite-population cost bounds does not "
            "hold, proceeding anyway")
    # keep first occurrence of each warning, in order
    seen: dict[str, None] = {}
    for w in warnings:
        seen.setdefault(w, None)
    return AssumptionReport(h3_ok=h3_ok, h4_min_eigenvalue=float(h4_min),
                            warnings=tuple(seen))
