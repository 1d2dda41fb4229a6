"""Tests of the benchmark harness itself (not of rsgmfg).

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import rsgmfg  # noqa: E402
import rsgmfg.cli  # noqa: E402
import run  # noqa: E402
from tracer import (LAYERS, Span, Tracer, layer_metrics,  # noqa: E402
                    metric_table, self_times)

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bindings():
    return {(name, attr): obj
            for name, mod in list(sys.modules.items())
            if name == "rsgmfg" or name.startswith("rsgmfg.")
            for attr, obj in vars(mod).items()}


def test_wrappers_cover_and_restore_every_binding():
    before = _bindings()
    layer_functions = {id(obj) for (mod, attr), obj in before.items()
                       if mod.rpartition(".")[2] in LAYERS
                       and not attr.startswith("_")
                       and getattr(obj, "__module__", None) == mod
                       and callable(obj) and not isinstance(obj, type)}
    tracer = Tracer()
    with tracer.installed():
        during = _bindings()
        for key, obj in before.items():
            if id(obj) in layer_functions:
                assert during[key].__wrapped__ is obj, key
            else:
                assert during[key] is obj, key
        # the direct imports that make module-level patching insufficient
        assert rsgmfg.gmfg.solve_riccati_pi is not before[
            ("rsgmfg.odesolve", "solve_riccati_pi")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_time_is_inclusive_minus_children():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("cli.main"):              # 0 .. 10
        with tracer.span("gmfg.a"):            # 1 .. 4
            with tracer.span("odesolve.b"):    # 2 .. 3
                pass
        with tracer.span("simulate.c"):        # 5 .. 9
            pass
    spans = tracer.spans
    assert [s.parent for s in spans] == [None, 0, 1, 0]
    own = self_times(spans)
    assert own == [10 - 3 - 4, 3 - 1, 1, 4]
    for i, s in enumerate(spans):
        children = sum(c.end - c.start for c in spans if c.parent == i)
        assert own[i] == pytest.approx(s.end - s.start - children)
    values = layer_metrics(spans, 10.0, 9.0, 0)
    assert values["cli.self_s"] == 3
    assert values["trace.self_sum_s"] == pytest.approx(10.0)
    assert values["trace.overhead_s"] == pytest.approx(1.0)


def test_reference_rescales_to_the_reference_speed(monkeypatch):
    ref = run.Reference()
    monkeypatch.setattr(ref, "_once", lambda: 2 * run.REF_S)  # half speed
    ref.sample()
    assert ref.scaled(10.0) == pytest.approx(5.0)
    assert ref.samples == pytest.approx([2 * run.REF_S] * 2)


def test_metric_names_and_units_match_the_benchmark_file():
    table = metric_table()
    names = [n for n, _, _ in table]
    assert len(names) == len(set(names))
    for name in names + list(run.E2E):
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == table
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(layer_metrics([], 0.0, 0.0, 0)) == set(names)


@pytest.mark.parametrize("kind, rank", [("sinusoidal", lambda n: 3),
                                        ("uniform_attachment", lambda n: n)])
def test_network_rank_per_n(kind, rank):
    g = rsgmfg.graphon_from_config({"kind": kind})
    tracer = Tracer()
    with tracer.installed():
        for n in run.N_LIST:
            rsgmfg.graphon.sample_step(g, n)
    values = layer_metrics(tracer.spans, 1.0, 1.0, 0)
    for n in run.N_LIST:
        assert values[f"graphon.network_rank.N{n}"] == rank(n)


def _small_config(tmp_path):
    config = run.workload_config("nash-gap", 5)
    config["grids"] = {"n_t": 100, "n_alpha": 40}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


@pytest.mark.parametrize("argv", [
    ["reproduce", "--figure", "riccati"],
    ["solve", "{config}", "--method", "both"],
    ["nash-gap", "{config}", "--N-list", "5,10", "--M", "20", "--seed", "5",
     "--deviate", "0.5"],
])
def test_traced_command_writes_identical_csv(tmp_path, capsys, argv):
    config = _small_config(tmp_path)
    argv = [a.format(config=config) for a in argv]
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    code, _, _ = run.run_process(
        [sys.executable, "-m", "rsgmfg.cli", *argv, "--out", str(plain)],
        tmp_path / "plain.log", run.Deadline(120))
    assert code == 0
    tracer = Tracer()
    with tracer.installed():
        with tracer.span("cli.main"):
            assert rsgmfg.cli.main([*argv, "--out", str(traced)]) == 0
    assert len(tracer.spans) > 1
    csvs = sorted(p.name for p in plain.glob("*.csv"))
    assert csvs and csvs == sorted(p.name for p in traced.glob("*.csv"))
    for name in csvs:
        assert (plain / name).read_bytes() == (traced / name).read_bytes()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "reproduce",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
