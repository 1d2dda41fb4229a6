from dataclasses import replace

import numpy as np
import pytest

from rsgmfg import ConfigError, spec_from_dict, validate_assumptions, load_spec
from rsgmfg.core import TimeMatrix
from rsgmfg.presets import benchmark_config

from conftest import make_config, make_spec


def test_benchmark_scalars_lift_to_matrices():
    spec = spec_from_dict(benchmark_config())
    assert spec.n == spec.m == spec.d == 1
    assert spec.coeffs.A(0.3) == np.array([[0.5]])
    assert spec.coeffs.Qf.shape == (1, 1)
    assert spec.gamma == 0.3 and spec.T == 1.0
    # constants are constant in t
    assert spec.coeffs.B(0.0) == spec.coeffs.B(0.77)


def test_missing_coefficient_names_the_key():
    cfg = make_config()
    del cfg["coefficients"]["R"]
    with pytest.raises(ConfigError, match="R"):
        spec_from_dict(cfg)


def test_negative_terminal_weight_rejected():
    with pytest.raises(ConfigError, match="Qf"):
        spec_from_dict(make_config(coefficients={"Qf": -1.0}))


def test_nonsymmetric_weight_rejected():
    cfg = make_config(coefficients={
        "A": [[0.0, 0.0], [0.0, 0.0]], "B": [[1.0], [0.0]],
        "D": [[0.0, 0.0], [0.0, 0.0]], "sigma": [[0.1], [0.1]],
        "Q": [[1.0, 0.5], [0.0, 1.0]], "R": 1.0,
        "Qf": [[0.0, 0.0], [0.0, 0.0]],
        "Gamma": [[0.0, 0.0], [0.0, 0.0]],
        "Gamma_f": [[0.0, 0.0], [0.0, 0.0]]})
    with pytest.raises(ConfigError, match="symmetric"):
        spec_from_dict(cfg)


@pytest.mark.parametrize("key,value", [("gamma", 0.0), ("gamma", -0.3),
                                       ("T", 0.0), ("T", -1.0)])
def test_nonpositive_scalars_rejected(key, value):
    with pytest.raises(ConfigError):
        spec_from_dict(make_config(**{key: value}))


def test_indefinite_control_weight_rejected():
    with pytest.raises(ConfigError, match="R"):
        spec_from_dict(make_config(coefficients={"R": 0.0}))


def test_load_spec_roundtrip(tmp_path):
    import json
    path = tmp_path / "config.json"
    path.write_text(json.dumps(make_config()))
    spec = load_spec(path)
    assert spec.coeffs.D(0.0)[0, 0] == 2.0


def test_load_spec_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_spec("/nonexistent/config.json")


def test_h4_slack_benchmark_value():
    # 0.6^2 / 1.5 - 2 * 0.3 * 0.5^2 = 0.09
    report = validate_assumptions(make_spec())
    assert report.h3_ok
    assert abs(report.h4_min_eigenvalue - 0.09) < 1e-15
    assert report.h4_ok


def test_h4_scalar_identity_machine_precision():
    spec = make_spec(coefficients={"B": 0.7, "R": 1.1, "sigma": 0.4},
                     gamma=0.45)
    report = validate_assumptions(spec)
    oracle = 0.7 * (0.7 / 1.1) - 2 * 0.45 * 0.4 ** 2
    assert abs(report.h4_min_eigenvalue - oracle) < 1e-15


def test_damped_spec_scales_only_the_risk_weight():
    spec = make_spec()
    assert spec.damped(0.0).gamma == spec.gamma
    damped = spec.damped(0.5)
    assert damped.gamma == spec.gamma / 1.5
    assert damped.grids is spec.grids and damped.config is spec.config
    for bad in (-1, float("nan")):
        with pytest.raises(ConfigError, match="delta_prime"):
            spec.damped(bad)


def test_h4_risk_neutral_limit_is_control_weight():
    # gamma -> 0 reduces the quadratic weight to B R^-1 B^T >= 0
    spec = make_spec()
    k0 = replace(spec.coeffs, gamma=0.0).riccati_quadratic(0.0)
    assert k0[0, 0] == pytest.approx(0.24, abs=1e-15)
    assert k0[0, 0] >= 0


def test_h3_failure_names_each_failing_node_in_time_order():
    # Q tabulated by hand (the parser refuses it): 0.3 -> -0.3 -> 0.3 is
    # negative on (0.25, 0.75), i.e. on the nodes t = 0.275 ... 0.725
    spec = make_spec(n_t=40, n_alpha=4,
                     initial_law={"kind": "deterministic", "mean": 2.0})
    Q = TimeMatrix(np.array([[[0.3]], [[-0.3]], [[0.3]]]),
                   t=np.array([0.0, 0.5, 1.0]))
    bad = replace(spec, coeffs=replace(spec.coeffs, Q=Q))
    report = validate_assumptions(bad)
    assert not report.h3_ok
    assert report.h4_min_eigenvalue == validate_assumptions(
        spec).h4_min_eigenvalue
    assert report.warnings == tuple(
        f"Q(t) loses semidefiniteness at t={t:.6g}"
        for t in spec.grids.t[11:30])


@pytest.mark.parametrize("sigma,expected", [(0.5, 0.09), (1.0, -0.36),
                                            (2.0, -2.16)])
def test_h4_noise_scan(sigma, expected):
    report = validate_assumptions(make_spec(coefficients={"sigma": sigma}))
    assert report.h4_min_eigenvalue == pytest.approx(expected, abs=1e-12)
    assert report.h4_ok == (expected >= 0)


def test_validate_assumptions_is_pure():
    spec = make_spec()
    a = validate_assumptions(spec)
    b = validate_assumptions(spec)
    assert a == b


def test_gaussian_initial_records_support_warning():
    report = validate_assumptions(make_spec())
    assert any("unbounded support" in w for w in report.warnings)
    report2 = validate_assumptions(
        make_spec(initial_law={"kind": "deterministic", "mean": 2.0}))
    assert not any("unbounded" in w for w in report2.warnings)


def test_tabulated_coefficient_interpolates_linearly():
    spec = make_spec(coefficients={"A": {"t": [0.0, 1.0],
                                         "values": [0.5, 1.0]}})
    assert spec.coeffs.A(0.5)[0, 0] == pytest.approx(0.75, abs=1e-15)
    # clamped outside the table
    assert spec.coeffs.A(2.0)[0, 0] == 1.0


def test_tabulated_weight_sign_checked_at_every_node():
    with pytest.raises(ConfigError):
        spec_from_dict(make_config(coefficients={
            "Q": {"t": [0.0, 0.5, 1.0], "values": [0.3, -0.1, 0.3]}}))


def test_initial_mean_presets():
    spec = make_spec(initial_law={"kind": "deterministic",
                                  "mean": {"expr": "alpha"}})
    a = np.array([0.0, 0.25, 1.0])
    assert np.allclose(spec.initial.mean(a)[:, 0], a)
    with pytest.raises(ConfigError, match="preset"):
        make_spec(initial_law={"kind": "deterministic",
                               "mean": {"expr": "nope"}})


def test_grids_layout():
    spec = make_spec(n_t=10, n_alpha=4)
    g = spec.grids
    assert g.h == 0.1 and len(g.t) == 11
    assert np.allclose(g.alpha, [0.125, 0.375, 0.625, 0.875])


def test_dimension_generic_2d():
    cfg = make_config(coefficients={
        "A": [[0.1, 0.0], [0.0, -0.2]], "B": [[1.0], [0.5]],
        "D": [[0.0, 0.0], [0.0, 0.0]], "sigma": [[0.2], [0.1]],
        "Q": [[1.0, 0.0], [0.0, 1.0]], "R": 2.0,
        "Qf": [[1.0, 0.0], [0.0, 1.0]],
        "Gamma": [[1.0, 0.0], [0.0, 1.0]],
        "Gamma_f": [[0.0, 0.0], [0.0, 0.0]]},
        initial_law={"kind": "deterministic", "mean": [1.0, -1.0]})
    spec = spec_from_dict(cfg)
    assert (spec.n, spec.m, spec.d) == (2, 1, 1)
    report = validate_assumptions(spec)
    assert report.h3_ok
