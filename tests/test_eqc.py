import json
from dataclasses import replace

import numpy as np
import pytest

from irtcalib import (
    CalibrationResult,
    ConfigurationError,
    EqcConfig,
    FeasibilityWarning,
    LatentSpec,
    ParameterError,
    PoolConfig,
    ScaleInterval,
    eqc_calibrate,
    reliability_curve,
)
from irtcalib.rng import child_seed

FLAGSHIP = EqcConfig(
    target_rho=0.75,
    latent=LatentSpec(shape="bimodal", shape_params={"delta": 0.8}),
    items=PoolConfig(model="rasch", source="empirical_pool", n_items=30),
    m_quadrature=20_000,
    interval=ScaleInterval(0.1, 10.0),
    seed=42,
)


def test_flagship_configuration():
    result = eqc_calibrate(FLAGSHIP)
    assert result.status == "success"
    assert 0.55 <= result.c_star <= 0.85
    assert abs(result.achieved_rho - 0.75) < 1e-4
    assert result.rho_lower < result.rho_upper


def test_fixed_point_self_consistency():
    curve = reliability_curve(FLAGSHIP, [1.0])
    rho_at_one = curve[0][1]
    cfg = replace(FLAGSHIP, target_rho=rho_at_one)
    result = eqc_calibrate(cfg)
    assert result.c_star == pytest.approx(1.0, abs=2e-8)


def test_boundary_high_with_warning():
    cfg = replace(FLAGSHIP, target_rho=0.995)
    with pytest.warns(FeasibilityWarning):
        result = eqc_calibrate(cfg)
    assert result.status == "boundary_high"
    assert result.c_star == 10.0


def test_boundary_low_with_warning():
    cfg = replace(FLAGSHIP, target_rho=0.01)
    with pytest.warns(FeasibilityWarning):
        result = eqc_calibrate(cfg)
    assert result.status == "boundary_low"
    assert result.c_star == 0.1


def test_determinism_bit_for_bit():
    a = eqc_calibrate(FLAGSHIP)
    b = eqc_calibrate(FLAGSHIP)
    assert a.c_star == b.c_star
    assert a.achieved_rho == b.achieved_rho
    np.testing.assert_array_equal(a.pool.beta, b.pool.beta)


def test_monotone_response_to_targets():
    low = eqc_calibrate(replace(FLAGSHIP, target_rho=0.55))
    high = eqc_calibrate(replace(FLAGSHIP, target_rho=0.80))
    assert low.c_star < high.c_star


@pytest.mark.parametrize("target", [0.3, 0.5, 0.7, 0.9])
def test_exactness_across_targets(target):
    result = eqc_calibrate(replace(FLAGSHIP, target_rho=target, m_quadrature=5000))
    assert result.status == "success"
    assert abs(result.achieved_rho - target) < 1e-4


def test_success_invariants():
    result = eqc_calibrate(FLAGSHIP)
    assert result.abs_error <= 1e-4
    assert FLAGSHIP.interval.c_lower < result.c_star < FLAGSHIP.interval.c_upper
    assert result.rho_lower < result.rho_upper
    assert result.evaluations >= 3


def test_curve_endpoints_match_bracket():
    result = eqc_calibrate(FLAGSHIP)
    curve = reliability_curve(FLAGSHIP, [0.1, 10.0])
    assert curve[0][1] == result.rho_lower
    assert curve[1][1] == result.rho_upper


def test_curve_strictly_increasing_on_geometric_grid():
    grid = np.geomspace(0.1, 10.0, 25)
    values = [rho for _, rho in reliability_curve(FLAGSHIP, grid)]
    assert np.all(np.diff(values) > 0)


def test_curve_empty_grid():
    assert reliability_curve(FLAGSHIP, []) == []


def test_msem_metric_rejected_at_config_time():
    with pytest.raises(ConfigurationError):
        EqcConfig(
            target_rho=0.6,
            latent=LatentSpec(),
            items=PoolConfig(model="rasch", source="parametric", n_items=30),
            metric="msem",
        )


@pytest.mark.parametrize("target", [0.0, 1.0, 1.2, -0.1])
def test_target_domain_validated(target):
    with pytest.raises(ParameterError):
        EqcConfig(
            target_rho=target,
            latent=LatentSpec(),
            items=PoolConfig(model="rasch", source="parametric", n_items=30),
        )


def test_quadrature_size_floor():
    with pytest.raises(ParameterError):
        EqcConfig(
            target_rho=0.5,
            latent=LatentSpec(),
            items=PoolConfig(model="rasch", source="parametric", n_items=30),
            m_quadrature=50,
        )


def test_explicit_pool_is_frozen_as_given():
    from conftest import make_rasch_pool

    pool = make_rasch_pool(np.linspace(-2, 2, 30))
    cfg = EqcConfig(target_rho=0.6, latent=LatentSpec(), items=pool, m_quadrature=5000, seed=1)
    result = eqc_calibrate(cfg)
    assert result.pool is pool
    assert result.status == "success"


def test_root_spread_shrinks_with_quadrature_size():
    base = EqcConfig(
        target_rho=0.6,
        latent=LatentSpec(),
        items=PoolConfig(model="rasch", source="parametric", n_items=15),
        interval=ScaleInterval(0.1, 10.0),
        seed=0,
    )
    def spread(m: int) -> float:
        roots = []
        for i in range(30):
            cfg = replace(base, m_quadrature=m, seed=child_seed(999, "m-consistency", m, i))
            roots.append(eqc_calibrate(cfg).c_star)
        return float(np.std(roots, ddof=1))

    assert spread(100_000) < spread(1000)


def test_pool_generation_failure_propagates():
    from irtcalib import IngestionError

    cfg = EqcConfig(
        target_rho=0.6,
        latent=LatentSpec(),
        items=PoolConfig(model="rasch", source="empirical_pool", n_items=30,
                         pool_path="missing/pool.csv"),
        m_quadrature=1000,
    )
    with pytest.raises(IngestionError):
        eqc_calibrate(cfg)


@pytest.mark.parametrize("version", [None, 0, 3, 4])
def test_result_document_with_unknown_schema_version_rejected(version):
    doc = eqc_calibrate(replace(FLAGSHIP, m_quadrature=1000)).to_dict()
    assert doc["schema_version"] == 2
    if version is None:
        del doc["schema_version"]
    else:
        doc["schema_version"] = version
    with pytest.raises(ConfigurationError, match=f"schema_version {version!r}"):
        CalibrationResult.from_dict(doc)


def test_result_json_roundtrip(tmp_path):
    result = eqc_calibrate(FLAGSHIP)
    doc = result.to_dict()
    path = tmp_path / "res.json"
    path.write_text(json.dumps(doc))
    clone = CalibrationResult.from_dict(json.loads(path.read_text()))
    assert clone.c_star == result.c_star
    assert clone.achieved_rho == result.achieved_rho
    assert clone.abs_error == result.abs_error
    assert clone.status == result.status
    assert clone.rho_lower == result.rho_lower
    assert clone.rho_upper == result.rho_upper
    assert clone.quadrature_sigma2 == result.quadrature_sigma2
    assert clone.config.target_rho == result.config.target_rho
    assert clone.config.interval == result.config.interval
    np.testing.assert_array_equal(clone.pool.beta, result.pool.beta)
    np.testing.assert_array_equal(clone.pool.lambda0, result.pool.lambda0)
    # Document-level identity at full precision.
    assert clone.to_dict() == doc
