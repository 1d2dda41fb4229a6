"""Command-line front end.

Subcommands: check | solve | simulate | nash-gap | reproduce.  Every
command writes a manifest into its output directory before any data so
partial runs are detectable, and adds the end time and duration when the
command returns, on a failing exit too; reruns with identical manifest
inputs reproduce identical CSV bytes.

Exit codes: 0 ok, 1 configuration error, 2 assumption failure, 3 solver
non-convergence, 4 simulation failure.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import math
import os
import platform
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .core import ProblemSpec, load_spec, spec_from_dict
from .errors import (AssumptionError, ConfigError, ConvergenceError,
                     DivergentCostError, IntegrationError, SimulationError)
from .gmfg import (MeanFieldProblem, MeanFieldSolution, check_monotonicity,
                   consistency_residual, contraction_constant,
                   solve_fixed_point, solve_spectral)
from .graphon import Graphon, graphon_from_config, sample_step
from .odesolve import solve_p_ell_stack
from .presets import benchmark_config
from .simulate import (SimConfig, default_probe_agents, estimate_cost,
                       limit_ensemble, nash_gap_experiment,
                       simulate_population)

OUTPUT_ENV = "RSGMFG_OUTPUT_DIR"


def _fmt(x) -> str:
    return format(float(x), ".12g")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# Values formatted per '%' operation: bounds the text held in memory.
_BLOCK_VALUES = 1 << 10


def _write_float_csv(path: Path, header: list[str], n_rows: int,
                     block) -> None:
    """CSV of float rows, formatted a block of rows at a time.

    ``block(start, stop)`` returns rows [start, stop) as a 2-D float
    array.  '%.12g' % x is the text of _fmt(x), and rows end in
    csv.writer's line terminator, so the bytes equal a csv.writer of
    _fmt values.
    """
    width = len(header)
    step = max(1, _BLOCK_VALUES // width)
    line = ",".join(["%.12g"] * width) + "\r\n"
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, n_rows, step):
            rows = block(start, min(start + step, n_rows))
            fh.write(line * len(rows) % tuple(rows.ravel().tolist()))


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _resolve_outdir(arg_out: str | None, command: str) -> Path:
    base = arg_out or os.environ.get(OUTPUT_ENV) or "rsgmfg-output"
    out = Path(base) / command if arg_out is None else Path(arg_out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(run: argparse.Namespace, outdir: Path, command: str,
                    config_path: str, config: dict, seed: int | None,
                    args: dict) -> None:
    """Write the manifest; main adds the end of the run to run.manifest."""
    run.manifest = manifest = {
        "command": command,
        "config_path": config_path,
        "config_sha256": _config_hash(config),
        "seed": seed,
        "output_dir": str(outdir),
        "created_utc": datetime.datetime.now(datetime.timezone.utc)
                       .isoformat(timespec="seconds"),
        "wall_clock_start": time.time(),
        "versions": {"rsgmfg": __version__, "numpy": np.__version__,
                     "python": platform.python_version()},
        "args": args,
    }
    _write_json(outdir / "manifest.json", manifest)


def _spec_and_graphon(config_path: str) -> tuple[ProblemSpec, Graphon]:
    spec = load_spec(config_path)
    g = graphon_from_config(spec.graphon_cfg, Path(config_path).parent)
    return spec, g


def _solution_csv(path: Path, sol: MeanFieldSolution) -> None:
    n = sol.z.shape[2]
    header = (["alpha", "t"] + [f"z{i + 1}" for i in range(n)]
              + [f"S{i + 1}" for i in range(n)] + ["r"])
    ts = sol.grid.t

    def block(start, stop):
        a, k = np.divmod(np.arange(start, stop), len(ts))
        return np.column_stack([sol.alphas[a], ts[k], sol.z[a, k],
                                sol.S[a, k], sol.r[a, k]])

    _write_float_csv(path, header, len(sol.alphas) * len(ts), block)


def _wide_csv(path: Path, ts: np.ndarray, alphas: np.ndarray,
              surface: np.ndarray) -> None:
    """(alpha, t) scalar surface as one column per node."""
    header = ["t"] + [f"alpha={_fmt(a)}" for a in alphas]

    def block(start, stop):
        return np.column_stack([ts[start:stop], surface[:, start:stop].T])

    _write_float_csv(path, header, len(ts), block)


def _contraction_dict(rep) -> dict:
    return {"c_g": rep.c_g, "c_z": rep.c_z, "c_S": rep.c_S,
            "C_Xi": rep.C_Xi, "contraction_ok": rep.contraction_ok}


def cmd_check(args) -> int:
    problem = MeanFieldProblem(*_spec_and_graphon(args.config))
    report = problem.assumptions
    payload = {"h3_ok": report.h3_ok,
               "h4_min_eigenvalue": report.h4_min_eigenvalue,
               "h4_ok": report.h4_ok,
               "warnings": list(report.warnings),
               "contraction": None, "monotonicity": None}
    ok = report.h3_ok and report.h4_ok
    if ok:
        payload["contraction"] = _contraction_dict(
            contraction_constant(problem))
        payload["monotonicity"] = asdict(check_monotonicity(problem))
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if ok else 2


def cmd_solve(args) -> int:
    spec, g = _spec_and_graphon(args.config)
    outdir = _resolve_outdir(args.out, "solve")
    config = spec.config
    _write_manifest(args, outdir, "solve", args.config, config, None,
                    {"method": args.method})

    methods = (["fixed_point", "spectral"] if args.method == "both"
               else [args.method.replace("-", "_")])
    problem = MeanFieldProblem(spec, g)
    sols: dict[str, MeanFieldSolution] = {}
    summary: dict = {"methods": {}}
    for method in methods:
        if method == "fixed_point":
            sol = solve_fixed_point(problem, tol=args.tol, force=True)
        else:
            sol = solve_spectral(problem)
        sols[method] = sol
        _solution_csv(outdir / f"solution_{method}.csv", sol)
        summary["methods"][method] = {
            "iterations": sol.iterations,
            "picard_residual": sol.residual,
            "consistency_residual": consistency_residual(sol, problem),
            **sol.extras,
        }
    summary["contraction"] = _contraction_dict(contraction_constant(problem))
    summary["monotonicity"] = asdict(check_monotonicity(problem))
    summary["warnings"] = [*problem.assumptions.warnings,
                           *problem.psi.warnings]
    if len(sols) == 2:
        a, b = sols["fixed_point"], sols["spectral"]
        summary["cross_method_sup_diff"] = float(max(
            np.max(np.abs(a.z - b.z)), np.max(np.abs(a.S - b.S)),
            np.max(np.abs(a.r - b.r))))
    _write_json(outdir / "summary.json", summary)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _sim_config(spec: ProblemSpec, args) -> SimConfig:
    cfg = dict(spec.simulation_cfg or {})
    N = args.N if getattr(args, "N", None) else int(cfg.get("N", 10))
    M = args.M if getattr(args, "M", None) else int(cfg.get("M", 100))
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    dt = getattr(args, "dt", None) or cfg.get("dt")
    return SimConfig(N=N, M=M, seed=seed, dt=dt)


def cmd_simulate(args) -> int:
    spec, g = _spec_and_graphon(args.config)
    sim = _sim_config(spec, args)
    outdir = _resolve_outdir(args.out, "simulate")
    _write_manifest(args, outdir, "simulate", args.config, spec.config,
                    sim.seed, {"N": sim.N, "M": sim.M, "dt": sim.dt})

    mfsol = solve_spectral(MeanFieldProblem(spec, g))
    gN = sample_step(g, sim.N)
    paths = simulate_population(spec, gN, mfsol, sim)

    header = (["path", "agent", "t"] + [f"x{i + 1}" for i in range(spec.n)]
              + [f"u{i + 1}" for i in range(spec.m)])
    shape = paths.x.shape[:3]

    def block(start, stop):
        p, a, k = np.unravel_index(np.arange(start, stop), shape)
        return np.column_stack([p, a + 1, paths.t[k], paths.x[p, a, k],
                                paths.u[p, a, k]])

    _write_float_csv(outdir / "trajectories.csv", header,
                     math.prod(shape), block)

    probe = default_probe_agents(sim.N)
    costs = []
    for a in probe:
        est = estimate_cost(spec, paths, int(a))
        costs.append({"agent": int(a) + 1,
                      "alpha": float(paths.agent_alphas[a]),
                      "estimate": est.to_dict()})
    _write_json(outdir / "costs.json", {"seed": sim.seed, "M": sim.M,
                                        "costs": costs})
    print(json.dumps({"output_dir": str(outdir),
                      "probe_costs": costs}, indent=2, sort_keys=True))
    return 0


def cmd_nash_gap(args) -> int:
    spec, g = _spec_and_graphon(args.config)
    sim = _sim_config(spec, args)
    n_list = [int(x) for x in args.N_list.split(",") if x.strip()]
    outdir = _resolve_outdir(args.out, "nash-gap")
    _write_manifest(args, outdir, "nash-gap", args.config, spec.config,
                    sim.seed, {"N_list": n_list, "M": sim.M,
                               "deviate": args.deviate})

    mfsol = solve_spectral(MeanFieldProblem(spec, g))
    report = nash_gap_experiment(spec, g, mfsol, n_list, sim,
                                 deviate_delta=args.deviate)
    payload = report.to_dict()
    _write_json(outdir / "nash_gap.json", payload)

    header = ["N", "agent", "alpha", "J_hat", "std_error", "J_limit", "gap",
              "eps1", "eps2", "eps3", "deviation_cost"]

    def rows():
        for r in report.rows:
            dev = r.deviation_cost.mean if r.deviation_cost else ""
            yield [str(r.N), str(r.agent), _fmt(r.alpha), _fmt(r.J_hat.mean),
                   _fmt(r.J_hat.std_error), _fmt(r.J_limit), _fmt(r.gap),
                   _fmt(r.eps1), _fmt(r.eps2), _fmt(r.eps3),
                   _fmt(dev) if dev != "" else ""]

    _write_csv(outdir / "nash_gap.csv", header, rows())
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_reproduce(args) -> int:
    config = benchmark_config()
    spec = spec_from_dict(config)
    g = graphon_from_config(spec.graphon_cfg)
    outdir = _resolve_outdir(args.out, "reproduce")
    seed = int(config["simulation"]["seed"])
    _write_manifest(args, outdir, "reproduce", "<builtin:benchmark>", config,
                    seed, {"figure": args.figure})

    figure = args.figure
    if figure == "riccati":
        problem = MeanFieldProblem(spec, g)
        Pi, decomp = problem.Pi, problem.decomp
        stack = solve_p_ell_stack(
            spec, problem.bwd, np.concatenate(([0.0], decomp.eigenvalues)))
        header = (["t", "Pi", "P_perp"]
                  + [f"P_lam{j + 1}" for j in range(decomp.rank)])
        table = np.column_stack([spec.grids.t, Pi.values[:, 0, 0],
                                 *stack[:, :, 0, 0]])
        _write_float_csv(outdir / "riccati.csv", header, len(table),
                         lambda start, stop: table[start:stop])
        _write_json(outdir / "riccati_meta.json",
                    {"eigenvalues": [float(v) for v in decomp.eigenvalues],
                     "rank": decomp.rank,
                     "spectral_residual": decomp.residual})
    elif figure in ("z", "s"):
        mfsol = solve_spectral(MeanFieldProblem(spec, g))
        surface = mfsol.z[:, :, 0] if figure == "z" else mfsol.S[:, :, 0]
        _wide_csv(outdir / f"{figure}.csv", mfsol.grid.t, mfsol.alphas,
                  surface)
    elif figure in ("state", "control"):
        mfsol = solve_spectral(MeanFieldProblem(spec, g))
        sim = SimConfig(N=spec.grids.n_alpha, M=1, seed=seed)
        paths = limit_ensemble(spec, mfsol, sim)
        surface = (paths.x[0, :, :, 0] if figure == "state"
                   else paths.u[0, :, :, 0])
        _wide_csv(outdir / f"{figure}.csv", paths.t, paths.agent_alphas,
                  surface)
    else:
        raise ConfigError(f"unknown figure '{figure}'")
    print(json.dumps({"output_dir": str(outdir), "figure": figure},
                     indent=2, sort_keys=True))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsgmfg",
        description="Solvers and simulators for risk-sensitive LQG "
                    "mean-field games on graphons.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="Validate standing assumptions and "
                                     "well-posedness certificates.")
    p.add_argument("config")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="Solve the equilibrium mean-field system.")
    p.add_argument("config")
    p.add_argument("--method", choices=["fixed-point", "spectral", "both"],
                   default="spectral")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="Simulate the finite population "
                                        "under decentralized strategies.")
    p.add_argument("config")
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("nash-gap", help="Per-N comparison of simulated vs "
                                        "closed-form limit costs.")
    p.add_argument("config")
    p.add_argument("--N-list", dest="N_list", default="25,50,100,200")
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--deviate", type=float, default=None,
                   help="delta' of the damped-risk deviation probe")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_nash_gap)

    p = sub.add_parser("reproduce", help="Emit the benchmark figure data.")
    p.add_argument("--figure", required=True,
                   choices=["riccati", "state", "control", "z", "s"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (AssumptionError, IntegrationError) as exc:
        print(f"assumption failure: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return 3
    except (SimulationError, DivergentCostError) as exc:
        print(f"simulation failure: {exc}", file=sys.stderr)
        return 4
    finally:   # record the end of the run in the command's manifest
        manifest = getattr(args, "manifest", None)
        if manifest is not None:
            manifest["wall_clock_end"] = end = time.time()
            manifest["duration_s"] = end - manifest["wall_clock_start"]
            _write_json(Path(manifest["output_dir"]) / "manifest.json",
                        manifest)


if __name__ == "__main__":
    sys.exit(main())
