"""In-memory span tracer for the rsgmfg layers, installed from outside.

The tracer wraps every public function of the layer modules and replaces
each binding of it anywhere inside the ``rsgmfg`` package.  The package
imports those names directly (``from .odesolve import solve_riccati_pi``),
so patching only the defining module would miss most calls.  Each wrapped
call records a span (name, start, end, parent); the spans stay in memory
and ``layer_metrics`` turns them into the per-layer metrics.

Everything runs in one thread, so spans nest strictly: a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

PACKAGE = "rsgmfg"
LAYERS = ("core", "graphon", "odesolve", "gmfg", "control", "simulate")
ROOT_SPAN = "cli.main"
N_LIST = (25, 50, 100, 200)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    notes: dict = field(default_factory=dict)


def _steps(args) -> int:
    grid = args.get("grid") or args["spec"].grids
    return grid.n_t


# Counts taken from a call's arguments and result, keyed by span name.
# They run after the span closes, so their cost lands in the parent's
# self time and in the tracing overhead, never in the traced layer.
NOTES = {
    "odesolve.rk4": lambda a, r: {"rk4_steps": a["grid"].n_t},
    "odesolve.solve_riccati_pi_delta": lambda a, r: {"rk4_steps": _steps(a)},
    "odesolve.fundamental_matrices": lambda a, r: {"rk4_steps": 2 * _steps(a)},
    "odesolve.solve_p_ell_stack":
        lambda a, r: {"rk4_steps": _steps(a) * len(r)},
    "gmfg.solve_fixed_point":
        lambda a, r: {"picard_iterations": r.iterations},
    "graphon.sample_step": lambda a, r: {"network": r.gN},
    "simulate.population_cost_exponents": lambda a, r: {
        "agent_steps": a["sim"].M * a["gN"].N * round(
            a["spec"].T / (a["sim"].dt or a["spec"].grids.h))},
    "simulate.cost_from_exponents":
        lambda a, r: {"ess_ratio": r.M_effective / len(a["exponents"])},
}


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._clock = clock
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        span = Span(name, self._clock(), parent=parent)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self._clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record one span around a block (used for the ``cli.main`` root)."""
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def _wrap(self, name: str, fn):
        note = NOTES.get(name)
        sig = inspect.signature(fn) if note else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(s)
            if note is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                s.notes = note(bound.arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the layers' public functions at every package binding."""
        wrapped: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapper = self._wrap(f"{layer}.{attr}", obj)
                    wrapped[id(obj)] = (obj, wrapper)
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, obj))

    def uninstall(self) -> None:
        """Put back every binding that ``install`` replaced."""
        while self._patches:
            mod, attr, obj = self._patches.pop()
            setattr(mod, attr, obj)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


# (span name, whether .calls is reported) for every function-level metric.
FUNCTIONS = (
    ("odesolve.solve_riccati_pi_delta", True),
    ("odesolve.fundamental_matrices", True),
    ("odesolve.solve_p_ell_stack", True),
    ("gmfg.apply_xi", True),
    ("gmfg.solve_fixed_point", False),
    ("gmfg.solve_spectral", True),
    ("gmfg.consistency_residual", True),
    ("gmfg.contraction_constant", True),
    ("gmfg.check_monotonicity", False),
    ("graphon.grid_matrix", True),
    ("graphon.spectral_decompose", True),
    ("graphon.sample_step", False),
    ("graphon.coupling_error_eps1", False),
    ("simulate.population_cost_exponents", True),
    ("simulate.limit_ensemble", False),
    ("simulate.approximation_errors", False),
    ("simulate.cost_from_exponents", False),
    ("control.acp_solve", True),
    ("control.closed_form_cost", True),
    ("core.validate_assumptions", True),
)

# Metrics derived from notes or totals.  Bytes, rk4_steps, network ranks,
# agent_steps, ns_per_agent_step and the trace differences are computed
# (from call arguments, results, file sizes or other metrics), not timed.
DERIVED = (
    ("cli.bytes_written", "B", "lower"),
    ("cli.write_mb_per_s", "MB/s", "higher"),
    ("odesolve.rk4_steps", "count", "lower"),
    ("gmfg.picard_iterations", "count", "lower"),
    *((f"graphon.network_rank.N{n}", "count", "lower") for n in N_LIST),
    ("simulate.agent_steps", "count", "higher"),
    ("simulate.ns_per_agent_step", "ns", "lower"),
    ("simulate.ess_ratio", "ratio", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
)


def metric_table() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    rows = [("cli.self_s", "s", "lower")]
    rows += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    for name, with_calls in FUNCTIONS:
        if with_calls:
            rows.append((f"{name}.calls", "count", "lower"))
        rows.append((f"{name}.self_s", "s", "lower"))
    rows += DERIVED
    return rows


# Notes that add up across calls, and the metric each one feeds.
SUMMED = {"rk4_steps": "odesolve.rk4_steps",
          "picard_iterations": "gmfg.picard_iterations",
          "agent_steps": "simulate.agent_steps"}


def layer_metrics(spans: list[Span], wall_s: float, untraced_wall_s: float,
                  bytes_written: int) -> dict[str, float]:
    """Every per-layer metric of ``metric_table`` from one traced pass."""
    import numpy as np

    own = self_times(spans)
    out = {name: 0 for name, _, _ in metric_table()}
    ess = []
    for s, t in zip(spans, own):
        layer = s.name.partition(".")[0]
        out[f"{layer}.self_s"] += t
        if f"{s.name}.self_s" in out:
            out[f"{s.name}.self_s"] += t
        if f"{s.name}.calls" in out:
            out[f"{s.name}.calls"] += 1
        for key, value in s.notes.items():
            if key in SUMMED:
                out[SUMMED[key]] += value
            elif key == "ess_ratio":
                ess.append(value)
            elif key == "network":
                rank = f"graphon.network_rank.N{len(value)}"
                if rank in out:
                    out[rank] = int(np.linalg.matrix_rank(value))
    out["simulate.ess_ratio"] = min(ess, default=0)
    cli_self = out["cli.self_s"]
    out["cli.bytes_written"] = bytes_written
    if cli_self:
        out["cli.write_mb_per_s"] = bytes_written / 1e6 / cli_self
    if out["simulate.agent_steps"]:
        out["simulate.ns_per_agent_step"] = (
            1e9 * out["simulate.population_cost_exponents.self_s"]
            / out["simulate.agent_steps"])
    out["trace.wall_s"] = wall_s
    out["trace.untraced_wall_s"] = untraced_wall_s
    out["trace.overhead_s"] = wall_s - untraced_wall_s
    out["trace.self_sum_s"] = sum(own)
    return out
