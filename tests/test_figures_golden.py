"""Regression locks for the benchmark figure data.

The five CSVs were verified once (terminal Riccati values, mirror
symmetry of the z and S surfaces, terminal offset identity, finiteness)
and their SHA-256 digests frozen; any byte change is a regression.  The
digests are tied to this numpy/BLAS environment, down to the OpenBLAS
kernel: they hold for SkylakeX, and forcing OPENBLAS_CORETYPE=Haswell or
=Sandybridge fails 4 of the 7 tests in this module.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from rsgmfg.cli import main

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "figures_sha256.json").read_text())


@pytest.fixture(scope="module")
def figure_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("figures")
    for fig in ("riccati", "state", "control", "z", "s"):
        assert main(["reproduce", "--figure", fig,
                     "--out", str(root / fig)]) == 0
    return root


@pytest.mark.parametrize("fig", ["riccati", "state", "control", "z", "s"])
def test_figure_matches_golden_hash(figure_dir, fig):
    data = (figure_dir / fig / f"{fig}.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN[f"{fig}.csv"]


def test_z_surface_mirror_symmetry(figure_dir):
    lines = (figure_dir / "z" / "z.csv").read_text().splitlines()
    vals = np.array([[float(v) for v in ln.split(",")[1:]]
                     for ln in lines[1:]])
    assert vals.shape == (1001, 200)
    assert np.max(np.abs(vals - vals[:, ::-1])) < 1e-6


def test_riccati_terminal_values(figure_dir):
    lines = (figure_dir / "riccati" / "riccati.csv").read_text().splitlines()
    last = [float(v) for v in lines[-1].split(",")]
    assert last[1] == pytest.approx(0.8, abs=1e-12)
    assert all(v == pytest.approx(0.64, abs=1e-12) for v in last[2:])
