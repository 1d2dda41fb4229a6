#!/usr/bin/env python3
"""rsgmfg benchmark: named CLI workloads, checked outputs, JSON metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
``src/`` next to this directory, nothing is installed.  NAME is one of
``reproduce``, ``solve-both``, ``nash-gap``, ``nash-gap-fullrank`` or
``all`` (every workload in turn, same seed and seconds).

``--trace 0`` runs each command of the workload in a fresh interpreter,
as a user would, repeats the whole workload while another pass fits in
``--seconds``, and reports the end-to-end metrics: medians over passes of
times rescaled by a reference kernel timed around each command (see
``Reference``).
``--trace 1`` runs the workload once in-process without the tracer and
once with it, and reports the per-layer metrics of ``tracer.py``.  Every
command's output is checked either way; the last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.  See README.md for
why each workload exists and which metric each layer should move.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden" / "figures_sha256.json"
WORK = ROOT / ".perfbench-work"

THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0       # the whole run, set-up and checks included
SETUP_PER_PASS = 5       # set-up probes before every pass
REF_REPS = 3             # kernel runs per reference sample (median taken)
REF_S = 0.040            # kernel time that defines the reference speed
FIGURES = ("riccati", "state", "control", "z", "s")
N_LIST = (25, 50, 100, 200)
M_PATHS = 150            # Monte Carlo paths per N in both nash-gap workloads
SOLVE_N_T = 125          # time steps of solve-both (the shipped config has 500)
DEVIATE = 0.5
WORKLOADS = ("reproduce", "solve-both", "nash-gap", "nash-gap-fullrank")
# Gated end-to-end metrics and their units: the ones every workload has
# and that are never 0.  The workload-specific ones go in "detail".
E2E = {"setup_s": "s", "wall_ref_s": "s", "peak_rss_mb": "MB"}

# configs/small_coupling.json, owned here so that an edit to the shipped
# configs cannot change what the benchmark measures.
SMALL_COUPLING = {
    "coefficients": {"A": 0.5, "B": 0.6, "D": 0.2, "sigma": 0.5, "Q": 0.3,
                     "R": 1.5, "Qf": 0.8, "Gamma": 2.0, "Gamma_f": -0.8},
    "gamma": 0.3,
    "T": 1.0,
    "initial_law": {"kind": "gaussian", "mean": 2.0, "dispersion": 0.1},
    "grids": {"n_t": 500, "n_alpha": 1000},
    "graphon": {"kind": "sinusoidal"},
    "simulation": {"N": 25, "M": 20000, "seed": 11},
}

# A fresh interpreter imports the CLI and loads the workload's config and
# graphon, stopping before any solver call.
SETUP_PROBE = """
import sys
import rsgmfg.cli
from rsgmfg import graphon_from_config, load_spec, spec_from_dict
from rsgmfg.presets import benchmark_config
if sys.argv[1:]:
    spec = load_spec(sys.argv[1])
else:
    spec = spec_from_dict(benchmark_config())
graphon_from_config(spec.graphon_cfg)
"""


class CheckFailed(Exception):
    """A command ran but its output is wrong."""


@dataclass
class Command:
    argv: list[str]                 # after ``rsgmfg``, without --out
    check: Callable[[Path], dict]   # raises CheckFailed, else reports values


def pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: THREADS for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------- checks

def check_figure(figure: str):
    def check(outdir: Path) -> dict:
        golden = json.loads(GOLDEN.read_text())
        data = (outdir / f"{figure}.csv").read_bytes()
        if hashlib.sha256(data).hexdigest() != golden[f"{figure}.csv"]:
            raise CheckFailed(f"{figure}.csv does not match its golden digest")
        return {}
    return check


def check_solve_both(outdir: Path) -> dict:
    summary = json.loads((outdir / "summary.json").read_text())
    residual = max(summary["methods"][m]["consistency_residual"]
                   for m in ("fixed_point", "spectral"))
    diff = summary["cross_method_sup_diff"]
    for m in ("fixed_point", "spectral"):
        if (outdir / f"solution_{m}.csv").stat().st_size == 0:
            raise CheckFailed(f"solution_{m}.csv is empty")
    if not (math.isfinite(residual) and residual <= 1e-5):
        raise CheckFailed(f"consistency residual {residual} > 1e-5")
    if not (math.isfinite(diff) and diff <= 1e-4):
        raise CheckFailed(f"cross-method difference {diff} > 1e-4")
    return {"consistency_residual": residual, "cross_method_diff": diff}


def _numbers(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield obj


def check_nash_gap(outdir: Path) -> dict:
    rows = json.loads((outdir / "nash_gap.json").read_text())["rows"]
    if not all(math.isfinite(v) for v in _numbers(rows)):
        raise CheckFailed("nash_gap.json holds a non-finite value")
    if not (outdir / "nash_gap.csv").stat().st_size:
        raise CheckFailed("nash_gap.csv is empty")
    by_n = {n: [r for r in rows if r["N"] == n] for n in N_LIST}
    if sorted({r["N"] for r in rows}) != list(N_LIST):
        raise CheckFailed("nash_gap.json does not cover the N list")
    for n, group in by_n.items():
        if sum("deviation_cost" in r for r in group) != 1:
            raise CheckFailed(f"N={n} does not have exactly one deviation row")
    for key in ("eps1", "eps2"):
        seq = [by_n[n][0][key] for n in N_LIST]
        if not all(a > b for a, b in zip(seq, seq[1:])):
            raise CheckFailed(f"{key} does not strictly decrease in N: {seq}")
    return {}


# ------------------------------------------------------------- workloads

def agent_steps(config: dict) -> int:
    """Simulated agent-steps of one nash-gap command (probe and deviation)."""
    return sum(2 * M_PATHS * n * config["grids"]["n_t"] for n in N_LIST)


def workload_config(name: str, seed: int) -> dict | None:
    if name == "reproduce":
        return None          # the built-in preset; takes no seed
    config = copy.deepcopy(SMALL_COUPLING)
    if name == "solve-both":
        config["grids"]["n_t"] = SOLVE_N_T
    if name == "nash-gap-fullrank":
        config["graphon"] = {"kind": "uniform_attachment"}
    if name.startswith("nash-gap"):
        config["simulation"] = {"N": N_LIST[0], "M": M_PATHS, "seed": seed}
    return config


def workload_commands(name: str, config_path: Path | None,
                      seed: int) -> list[Command]:
    if name == "reproduce":
        return [Command(["reproduce", "--figure", f], check_figure(f))
                for f in FIGURES]
    if name == "solve-both":
        return [Command(["solve", str(config_path), "--method", "both"],
                        check_solve_both)]
    return [Command(["nash-gap", str(config_path),
                     "--N-list", ",".join(map(str, N_LIST)),
                     "--M", str(M_PATHS), "--seed", str(seed),
                     "--deviate", str(DEVIATE)], check_nash_gap)]


# ----------------------------------------------------------- subprocesses

class Deadline:
    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()


def run_process(args: list[str], log: Path, deadline: Deadline):
    """Run one child; return (exit code, wall seconds, peak RSS in MB).

    ``os.wait4`` gives the rusage of this child alone; RUSAGE_CHILDREN
    would give the maximum over every child so far.
    """
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=subprocess.STDOUT,
                                env=pinned_env(), cwd=ROOT)
        timer = threading.Timer(max(deadline.left(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def report_failure(what: str, detail: str) -> None:
    print(f"FAILED {what}: {detail}", file=sys.stderr)


def run_command(cmd: Command, outdir: Path, deadline: Deadline):
    """One command in a fresh interpreter; (ok, wall, rss, checked values)."""
    outdir.mkdir(parents=True)
    log = outdir.parent / f"{outdir.name}.log"
    code, wall, rss = run_process(
        [sys.executable, "-m", "rsgmfg.cli", *cmd.argv, "--out", str(outdir)],
        log, deadline)
    if code != 0:
        tail = log.read_text(errors="replace")[-2000:]
        report_failure(" ".join(cmd.argv), f"exit {code}\n{tail}")
        return False, wall, rss, {}
    try:
        return True, wall, rss, cmd.check(outdir)
    except (CheckFailed, OSError, KeyError, TypeError, ValueError) as exc:
        report_failure(" ".join(cmd.argv), f"output check: {exc!r}")
        return False, wall, rss, {}


def setup_times(config_path: Path | None, log: Path,
                deadline: Deadline) -> list[float]:
    """Wall times of SETUP_PER_PASS fresh interpreters running SETUP_PROBE."""
    args = [sys.executable, "-c", SETUP_PROBE]
    if config_path is not None:
        args.append(str(config_path))
    times = []
    for _ in range(SETUP_PER_PASS):
        code, wall, _ = run_process(args, log, deadline)
        if code != 0:
            raise RuntimeError("set-up probe failed:\n"
                               + log.read_text(errors="replace")[-2000:])
        times.append(wall)
    return times


# --------------------------------------------------------------- reference

class Reference:
    """A fixed CPU kernel, timed on the commands' CPU before and after each.

    On a shared host one core's speed drifts by up to ~45% (a busy sibling
    hyperthread), in spells from seconds to minutes, so raw times of the
    same code spread more than any useful bound.  ``scaled`` rescales a
    time measured between two samples to the speed at which one kernel run
    takes REF_S seconds.  The kernel does the kinds of work the commands
    do (CSV formatting, small matmuls, streaming array arithmetic), and no
    change to rsgmfg can move it.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._rows = rng.standard_normal((1500, 6)).tolist()
        self._a = rng.standard_normal((200, 200))
        self._x = rng.standard_normal(2_000_000)    # 16 MB
        self.samples: list[float] = []
        self._once()                                # warm-up

    def _once(self) -> float:
        start = time.perf_counter()
        writer = csv.writer(io.StringIO())
        for row in self._rows:
            writer.writerow([format(v, ".12g") for v in row])
        for _ in range(40):
            self._a @ self._a
        (self._x * 0.5 + 1.0).cumsum()
        return time.perf_counter() - start

    def sample(self) -> float:
        self.samples.append(
            statistics.median(self._once() for _ in range(REF_REPS)))
        return self.samples[-1]

    def scaled(self, seconds: float) -> float:
        """``seconds`` measured since the previous sample, at REF_S speed."""
        before = self.samples[-1]
        return seconds * 2 * REF_S / (before + self.sample())


# ------------------------------------------------------------- environment

def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"       # a checkout without .git has no commit
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.TimeoutExpired):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "rsgmfg").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(THREADS), "nproc": os.cpu_count(),
            "git_commit": commit, "source_sha256": digest.hexdigest(),
            "seed": seed, "M": M_PATHS}


# ------------------------------------------------------------------- runs

def prepare(name: str, seed: int, work: Path):
    """Write the workload's generated config; return it, its path, commands."""
    config = workload_config(name, seed)
    config_path = None
    if config is not None:
        config_path = work / "config.json"
        config_path.write_text(json.dumps(config, indent=2))
    return config, config_path, workload_commands(name, config_path, seed)


def run_untraced(name: str, seed: int, seconds: float, work: Path,
                 deadline: Deadline) -> dict:
    config, config_path, commands = prepare(name, seed, work)
    start = time.perf_counter()
    ref = Reference()
    ref.sample()
    setup, scaled = [], [[] for _ in commands]  # per command, per pass
    raw = [[] for _ in commands]
    rss, attempted, failed, values = 0.0, 0, 0, {}
    while True:
        pass_start = time.perf_counter()
        setup.append(ref.scaled(statistics.median(
            setup_times(config_path, work / "setup.log", deadline))))
        pass_dir = work / f"pass{len(raw[0])}"
        for i, cmd in enumerate(commands):
            ok, wall, peak, checked = run_command(cmd, pass_dir / f"cmd{i}",
                                                  deadline)
            scaled[i].append(ref.scaled(wall))
            raw[i].append(wall)
            attempted += 1
            failed += not ok
            rss = max(rss, peak)
            values.update(checked)
        shutil.rmtree(pass_dir)
        now = time.perf_counter()
        per_pass = now - pass_start
        # another pass only if it should end within --seconds and the deadline
        if now - start + per_pass > seconds or deadline.left() < 2 * per_pass:
            break

    wall_ref_s = sum(statistics.median(t) for t in scaled)
    metrics = {"setup_s": (statistics.median(setup), E2E["setup_s"]),
               "wall_ref_s": (wall_ref_s, E2E["wall_ref_s"]),
               "peak_rss_mb": (rss, E2E["peak_rss_mb"])}
    detail = {"failure_rate": (failed / attempted, "ratio"),
              "wall_s": (sum(statistics.median(t) for t in raw), "s"),
              "ref_kernel_s": (statistics.median(ref.samples), "s")}
    if name.startswith("nash-gap"):
        detail["agent_steps_per_s"] = (agent_steps(config) / wall_ref_s,
                                       "1/s")
    for key in ("consistency_residual", "cross_method_diff"):
        if key in values:
            detail[key] = (values[key], "1")
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "detail": detail, "times_s": raw, "ref_s": ref.samples}


def run_traced(name: str, seed: int, work: Path) -> dict:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rsgmfg.cli
    from tracer import ROOT_SPAN, Tracer, layer_metrics, metric_table

    _, _, commands = prepare(name, seed, work)
    tracer = Tracer()
    attempted = failed = 0
    walls = {}
    for label in ("untraced", "traced"):
        total = 0.0
        for i, cmd in enumerate(commands):
            outdir = work / label / f"cmd{i}"
            outdir.mkdir(parents=True)
            argv = [*cmd.argv, "--out", str(outdir)]
            attempted += 1
            try:
                with open(outdir.parent / f"cmd{i}.log", "w") as log, \
                        contextlib.redirect_stdout(log):
                    if label == "traced":
                        with tracer.installed():
                            start = time.perf_counter()
                            with tracer.span(ROOT_SPAN):
                                code = rsgmfg.cli.main(argv)
                            total += time.perf_counter() - start
                    else:
                        start = time.perf_counter()
                        code = rsgmfg.cli.main(argv)
                        total += time.perf_counter() - start
                if code != 0:
                    raise CheckFailed(f"exit {code}")
                cmd.check(outdir)
            except Exception:      # a failed command, not a failed run
                failed += 1
                report_failure(f"{label} {' '.join(cmd.argv)}",
                               traceback.format_exc())
        walls[label] = total
        if label == "untraced":   # else it is flushed during the traced pass
            shutil.rmtree(work / label)
    written = sum(p.stat().st_size for p in (work / "traced").rglob("*")
                  if p.is_file() and not p.name.endswith(".log"))
    values = layer_metrics(tracer.spans, walls["traced"], walls["untraced"],
                           written)
    units = {n: u for n, u, _ in metric_table()}
    metrics = {n: (values[n], units[n]) for n, _, _ in metric_table()}
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "detail": {}}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 deadline: Deadline) -> dict:
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if trace:
            return run_traced(name, seed, work)
        return run_untraced(name, seed, seconds, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def as_json(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rsgmfg" / "cli.py").is_file():
        print(f"rsgmfg sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:       # before numpy is first imported
        os.environ[var] = THREADS
    # one CPU for this process and every child, so that the reference
    # kernel runs where the commands do
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    deadline = Deadline(DEADLINE_S * (len(WORKLOADS)
                                      if args.workload == "all" else 1))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    env = environment(args.seed)
    results = {}
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds,
                               bool(args.trace), deadline)
        except RuntimeError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        results[name] = res
        for key, (value, unit) in {**res["metrics"], **res["detail"]}.items():
            print(f"{name:18s} {key:42s} {value:.6g} {unit}")
        print(json.dumps({"workload": name, "env": env,
                          "detail": as_json(res["detail"]),
                          "times_s": res.get("times_s"),
                          "ref_s": res.get("ref_s")}))

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items()
                   for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": as_json(metrics)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
