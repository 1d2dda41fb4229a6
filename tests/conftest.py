import copy

import numpy as np
import pytest

from rsgmfg import spec_from_dict
from rsgmfg.presets import benchmark_config, small_coupling_config


def make_config(n_t=400, n_alpha=50, **overrides):
    """Benchmark configuration with small grids and targeted overrides.

    ``coefficients``, ``initial_law``, ``graphon`` overrides are merged
    into the base config; anything else replaces the top-level key.
    """
    cfg = copy.deepcopy(benchmark_config())
    cfg["grids"] = {"n_t": n_t, "n_alpha": n_alpha}
    for key, val in overrides.items():
        if key in ("coefficients", "initial_law", "graphon", "simulation") \
                and isinstance(val, dict):
            cfg[key] = {**cfg[key], **val} if key in cfg else val
        else:
            cfg[key] = val
    return cfg


def make_spec(n_t=400, n_alpha=50, **overrides):
    return spec_from_dict(make_config(n_t=n_t, n_alpha=n_alpha, **overrides))


def tabulated_2d_spec(n_alpha=12, **initial_law):
    """n = m = d = 2 with non-symmetric A and B and R tabulated in t."""
    law = initial_law or {"kind": "deterministic", "mean": [1.0, -0.5]}
    return spec_from_dict(make_config(n_t=40, n_alpha=n_alpha, gamma=0.2,
                                      coefficients={
        "A": {"t": [0.0, 0.33, 1.0],
              "values": [[[0.2, 0.1], [0.0, -0.3]], [[-0.4, 0.3], [0.1, 0.2]],
                         [[0.1, 0.2], [0.0, 0.3]]]},
        "B": {"t": [0.0, 0.4, 1.0],
              "values": [[[1.0, 0.2], [0.0, 0.6]], [[0.7, 0.0], [0.3, 0.9]],
                         [[1.1, 0.1], [0.0, 0.5]]]},
        "R": {"t": [0.0, 0.6, 1.0],
              "values": [[[1.0, 0.2], [0.2, 2.0]], [[1.5, -0.1], [-0.1, 1.2]],
                         [[0.8, 0.0], [0.0, 1.7]]]},
        "D": [[0.15, 0.05], [0.0, 0.1]], "sigma": [[0.2, 0.0], [0.05, 0.1]],
        "Q": [[0.5, 0.1], [0.1, 0.4]], "Qf": [[0.3, 0.0], [0.0, 0.3]],
        "Gamma": [[1.0, 0.2], [0.0, 1.0]],
        "Gamma_f": [[-0.5, 0.0], [0.0, -0.5]]},
        initial_law=law))


@pytest.fixture(scope="session")
def benchmark_spec():
    """Full benchmark on its native grids (n_t=1000, n_alpha=200)."""
    return spec_from_dict(benchmark_config())


@pytest.fixture(scope="session")
def small_coupling_spec():
    return spec_from_dict(small_coupling_config())


@pytest.fixture
def rng():
    return np.random.default_rng(20230817)
