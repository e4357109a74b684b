import json
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from irtcalib import (
    CalibrationResult,
    ConfigurationError,
    EqcConfig,
    FeasibilityWarning,
    LatentSpec,
    NumericalError,
    ParameterError,
    PoolConfig,
    ScaleInterval,
    eqc_calibrate,
    reliability_curve,
)
from irtcalib import eqc
from irtcalib.eqc import _MAX_ITER, _brent_root, _FrozenObjective
from irtcalib.items import MODELS, ItemPool
from irtcalib.latent import VALIDATION_SHAPE_PARAMS
from irtcalib.rng import child_seed
from irtcalib.study import DESK_PROFILE, calibrate_cell, make_desk_grid

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


@st.composite
def _near_pools(draw):
    """Rasch or 2PL pools of up to 8 items near a latent mean of 0."""
    n = draw(st.integers(1, 8))
    beta = np.array(draw(st.lists(st.floats(-1.5, 1.5), min_size=n, max_size=n)))
    if draw(st.booleans()):
        return ItemPool(model="rasch", beta=beta, lambda0=np.ones(n))
    return ItemPool(model="twopl", beta=beta,
                    lambda0=np.array(draw(st.lists(st.floats(0.5, 1.5), min_size=n, max_size=n))))


@settings(deadline=None, max_examples=40)
@given(pool=_near_pools(), sigma=st.floats(0.1, 0.4), c_upper=st.floats(0.1, 2.0),
       grid_size=st.integers(3, 10), m=st.integers(100, 400), seed=st.integers(0, 2**32 - 1))
def test_curve_and_msem_scan_rise_where_phi_is_positive(pool, sigma, c_upper, grid_size, m, seed):
    # With |c*lambda0*(theta - beta)| below phi's root (2.399) in every cell
    # up to c_upper, every item's information rises with c at every ability
    # of the frozen sample, so every person's J rises, and with it both
    # rho_tilde (from the mean of J) and w_bar (from the mean of 1/J).
    cfg = EqcConfig(target_rho=0.5, latent=LatentSpec(sigma=sigma), items=pool, m_quadrature=m,
                    interval=ScaleInterval(0.05, c_upper), seed=seed)
    theta = _FrozenObjective(cfg).sample.theta
    assume(np.max(np.abs(c_upper * pool.lambda0 * np.subtract.outer(theta, pool.beta))) < 2.399)
    grid = np.geomspace(0.05, c_upper, grid_size)
    rho = [r for _, r in reliability_curve(cfg, grid)]
    assert np.all(np.diff(rho) > 0)
    assert eqc.feasibility_report(cfg, scan_msem=True, grid_size=grid_size)["msem_scan"]["is_monotone"]


@pytest.mark.parametrize("grid_size", [3, 15])
def test_msem_scan_evaluates_each_grid_point_once(monkeypatch, grid_size):
    # The bracket ends are the scan's first and last points, not evaluated again.
    cfg = replace(FLAGSHIP, m_quadrature=500)
    calls = []
    summary = _FrozenObjective.summary
    monkeypatch.setattr(_FrozenObjective, "summary", lambda self, c: calls.append(c) or summary(self, c))
    report = eqc.feasibility_report(cfg, scan_msem=True, grid_size=grid_size)
    assert len(calls) == grid_size
    assert calls[0] == cfg.interval.c_lower and calls[-1] == cfg.interval.c_upper
    calls.clear()
    plain = eqc.feasibility_report(cfg)
    assert len(calls) == 2
    assert (report["rho_lower"], report["rho_upper"]) == (plain["rho_lower"], plain["rho_upper"])


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


@pytest.mark.parametrize("version", [None, 0, 7, 8, True, 3.0])
def test_result_document_with_unknown_schema_version_rejected(version):
    doc = eqc_calibrate(replace(FLAGSHIP, m_quadrature=1000)).to_dict()
    assert doc["schema_version"] == 6
    if version is None:
        del doc["schema_version"]
    else:
        doc["schema_version"] = version
    with pytest.raises(ConfigurationError, match=f"schema_version {version!r}"):
        CalibrationResult.from_dict(doc)


@pytest.mark.parametrize("status", [[1], "ok"])
def test_result_document_with_unknown_status_rejected(status):
    doc = eqc_calibrate(replace(FLAGSHIP, m_quadrature=1000)).to_dict()
    with pytest.raises(ConfigurationError, match=re.escape(f"status {status!r}")):
        CalibrationResult.from_dict({**doc, "status": status})


@pytest.mark.parametrize("target,repeats", [(0.75, 3), (0.999, 1), (0.01, 1)])
def test_older_documents_counted_every_call(target, repeats):
    # Schema 1 and 2 counted calls: a solve re-evaluated both bracket ends and
    # the root, and a boundary result re-evaluated its end.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FeasibilityWarning)
        doc = eqc_calibrate(replace(FLAGSHIP, target_rho=target, m_quadrature=1000)).to_dict()
    for version in (1, 2):
        old = {**doc, "schema_version": version, "evaluations": doc["evaluations"] + repeats}
        assert CalibrationResult.from_dict(old).to_dict() == doc


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


# Brent's method: the in-package port against scipy's brentq, its reference.

def _brentq(f, a, b, xtol):
    return optimize.brentq(f, a, b, xtol=xtol, maxiter=_MAX_ITER)


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from(sorted(VALIDATION_SHAPE_PARAMS)), model=st.sampled_from(MODELS),
       source=st.sampled_from(["parametric", "empirical_pool"]), n_items=st.sampled_from([5, 15, 30, 60]),
       tolerance=st.sampled_from([1e-4, 1e-8, 1e-12]), where=st.floats(0.01, 0.99),
       seed=st.integers(0, 2**16))
def test_brent_port_finds_brentqs_root_on_eqc_objectives(shape, model, source, n_items, tolerance,
                                                          where, seed):
    cfg = EqcConfig(target_rho=0.5, latent=LatentSpec(shape=shape, shape_params=VALIDATION_SHAPE_PARAMS[shape]),
                    items=PoolConfig(model=model, source=source, n_items=n_items), m_quadrature=500,
                    interval=ScaleInterval(0.1, 10.0), tolerance=tolerance, seed=seed)
    frozen = _FrozenObjective(cfg)
    rho_lo, rho_hi = frozen.rho(0.1), frozen.rho(10.0)
    target = rho_lo + where * (rho_hi - rho_lo)
    assume(rho_lo < target < rho_hi)
    expected = _brentq(lambda c: frozen.rho(c) - target, 0.1, 10.0, tolerance)
    c, rho_c = _brent_root(frozen.rho, target, 0.1, 10.0, rho_lo, rho_hi, tolerance)
    assert c == expected
    assert rho_c == frozen.rho(c)


@settings(max_examples=300, deadline=None)
@given(a=st.floats(0.01, 10.0), c=st.floats(0.01, 10.0), skew=st.floats(-0.99, 0.99),
       root=st.floats(-5.0, 5.0), below=st.floats(0.01, 10.0), above=st.floats(0.01, 10.0),
       sign=st.sampled_from([1.0, -1.0]), xtol=st.sampled_from([5e-324, 2e-12, 1e-8, 1e-3]))
@example(a=1.0, c=1.0, skew=0.0, root=0.3, below=1.0, above=2.0, sign=1.0, xtol=2e-12)
@example(a=1.0, c=1.0, skew=0.0, root=2.225073858507203e-309, below=2.0, above=1.0, sign=1.0, xtol=5e-324)
def test_brent_port_finds_brentqs_root_on_monotone_cubics(a, c, skew, root, below, above, sign, xtol):
    # b**2 < 3ac, so the derivative 3ax**2 + 2bx + c never vanishes.
    b = skew * np.sqrt(3.0 * a * c)
    d = -((a * root + b) * root + c) * root

    def cubic(x):
        return sign * (((a * x + b) * x + c) * x + d)

    lo, hi = root - below, root + above
    f_lo, f_hi = cubic(lo), cubic(hi)
    assume(f_lo != 0 and f_hi != 0 and (f_lo < 0) != (f_hi < 0))
    try:
        expected = _brentq(cubic, lo, hi, xtol)
    except RuntimeError:  # a root near 0 that xtol = 5e-324 asks for to the last subnormal
        with pytest.raises(NumericalError, match="did not converge"):
            _brent_root(cubic, 0.0, lo, hi, f_lo, f_hi, xtol)
        return
    x, f_x = _brent_root(cubic, 0.0, lo, hi, f_lo, f_hi, xtol)
    assert x == expected
    assert f_x == cubic(x)


@pytest.mark.parametrize("lo,hi", [(1.0, 3.0), (-1.0, 1.0)])
def test_brent_port_returns_a_root_at_an_endpoint_without_evaluating(lo, hi):
    def line(x):
        calls.append(x)
        return x - 1.0

    calls = []
    f_lo, f_hi = line(lo), line(hi)
    expected = _brentq(line, lo, hi, 1e-8)
    calls.clear()
    assert _brent_root(line, 0.0, lo, hi, f_lo, f_hi, 1e-8) == (expected, 0.0) == (1.0, 0.0)
    assert calls == []


def test_brent_port_needs_a_sign_change():
    with pytest.raises(ValueError, match="different signs"):
        _brentq(lambda x: x - 5.0, 1.0, 3.0, 1e-8)
    with pytest.raises(NumericalError, match="same sign"):
        _brent_root(lambda x: x, 5.0, 1.0, 3.0, 1.0, 3.0, 1e-8)


def test_brent_port_stops_after_the_iteration_cap():
    # A sign step at 1e-300 leaves every step a bisection, which needs about
    # a thousand halvings of [0, 1] to come within xtol = 5e-324.
    calls = []

    def step(x):
        calls.append(x)
        return -1.0 if x < 1e-300 else 1.0

    with pytest.raises(RuntimeError, match="converge"):
        _brentq(step, 0.0, 1.0, 5e-324)
    calls.clear()
    with pytest.raises(NumericalError, match=f"did not converge in {_MAX_ITER} iterations"):
        _brent_root(step, 0.0, 0.0, 1.0, -1.0, 1.0, 5e-324)
    assert len(calls) == len(set(calls)) == _MAX_ITER


@pytest.mark.parametrize("target,status", [(0.75, "success"), (0.999, "boundary_high"),
                                           (0.01, "boundary_low")])
def test_evaluations_count_distinct_scales(monkeypatch, target, status):
    scales = []

    def recording(theta, pool, c):
        scales.append(c)
        return information(theta, pool, c)

    information = eqc.test_information
    monkeypatch.setattr(eqc, "test_information", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FeasibilityWarning)
        result = eqc_calibrate(replace(FLAGSHIP, target_rho=target, m_quadrature=2000))
    assert result.status == status
    assert result.evaluations == len(scales) == len(set(scales))
    assert result.evaluations > 2 if status == "success" else result.evaluations == 2


# The solve in log coordinates: g(u) = log(sigma2 * Jbar(e^u)) - log(target / (1 - target)).

def _g(frozen, target, ends):
    """g on ``frozen``'s quadrature; the bracket ends ``ends`` (u to c) are evaluated at their own scales."""
    def g(u):
        summary = frozen.summary(ends.get(u, math.exp(u)))
        top = summary.sigma2_theta * summary.j_bar
        return (math.log(top) if top > 0 else -math.inf) - math.log(target / (1.0 - target))
    return g


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(sorted(VALIDATION_SHAPE_PARAMS)), model=st.sampled_from(MODELS),
       source=st.sampled_from(["parametric", "empirical_pool"]), n_items=st.sampled_from([5, 15, 30, 60]),
       tolerance=st.sampled_from([1e-4, 1e-8, 1e-12]), where=st.floats(0.01, 0.99),
       seed=st.integers(0, 2**16))
def test_eqc_root_is_brentqs_root_of_g_in_log_scale(shape, model, source, n_items, tolerance, where, seed):
    cfg = EqcConfig(target_rho=0.5, latent=LatentSpec(shape=shape, shape_params=VALIDATION_SHAPE_PARAMS[shape]),
                    items=PoolConfig(model=model, source=source, n_items=n_items), m_quadrature=500,
                    interval=ScaleInterval(0.1, 10.0), tolerance=tolerance, seed=seed)
    frozen = _FrozenObjective(cfg)
    rho_lo, rho_hi = frozen.rho(0.1), frozen.rho(10.0)
    target = rho_lo + where * (rho_hi - rho_lo)
    assume(rho_lo < target < rho_hi)
    result = eqc_calibrate(replace(cfg, target_rho=target))
    ends = {math.log(0.1): 0.1, math.log(10.0): 10.0}
    u = optimize.brentq(_g(frozen, target, ends), math.log(0.1), math.log(10.0), xtol=tolerance / 10.0,
                        maxiter=_MAX_ITER)
    assert result.status == "success"
    assert result.c_star == ends.get(u, math.exp(u))
    assert result.achieved_rho == frozen.rho(result.c_star)


@pytest.mark.parametrize("master_seed", [1, 7])
def test_desk_solves_take_at_most_nine_evaluations(master_seed):
    for condition in make_desk_grid():
        calibrations, skipped = calibrate_cell(master_seed, DESK_PROFILE, [condition])
        assert skipped == []
        result = calibrations[condition.condition_id]
        assert result.status == "success"
        assert result.evaluations <= 9
        assert abs(result.achieved_rho - condition.target_rho) < 1e-8


# At c = 1e-170 and below, (c*lambda0)^2 / 2 underflows to 0, so Jbar is 0 and g is -inf.
# One bisection in u finds a finite lower end before Brent starts; Brent from
# the -inf end took 11 evaluations at target 0.3 and 12 at 0.7.
@pytest.mark.parametrize("c_lower", [1e-300, 1e-200, 1e-170])
@pytest.mark.parametrize("target", [0.3, 0.7])
def test_a_bracket_end_where_information_underflows_still_gives_a_root(c_lower, target):
    cfg = replace(FLAGSHIP, target_rho=target, m_quadrature=2000, interval=ScaleInterval(c_lower, 10.0))
    result = eqc_calibrate(cfg)
    assert result.rho_lower == 0.0
    assert result.status == "success"
    assert c_lower < result.c_star < 10.0
    assert abs(result.achieved_rho - target) < 1e-8
    assert result.evaluations == {0.3: 10, 0.7: 11}[target]


def test_information_underflowing_across_the_bracket_is_a_boundary():
    with pytest.raises(ParameterError, match="below c_upper - c_lower"):  # the default 1e-8 solves nothing here
        replace(FLAGSHIP, interval=ScaleInterval(1e-200, 1e-190))
    cfg = replace(FLAGSHIP, m_quadrature=2000, interval=ScaleInterval(1e-200, 1e-190), tolerance=1e-201)
    with pytest.warns(FeasibilityWarning):
        result = eqc_calibrate(cfg)
    assert (result.status, result.c_star, result.achieved_rho) == ("boundary_high", 1e-190, 0.0)
    assert result.rho_lower == result.rho_upper == 0.0


def test_falling_curve_message_states_no_inverted_bracket():
    # Items far from a narrow latent mass: reliability falls from 0.0029 at c = 0.1 to 8e-11 at c = 10.
    pool = ItemPool(model="rasch", beta=np.repeat([-3.0, 3.0], 15), lambda0=np.ones(30))
    cfg = EqcConfig(target_rho=0.05, latent=LatentSpec(sigma=0.2), items=pool, m_quadrature=2000,
                    interval=ScaleInterval(0.1, 10.0))
    with pytest.warns(FeasibilityWarning) as caught:
        result = eqc_calibrate(cfg)
    assert result.status == "boundary_high"
    assert result.rho_upper < result.rho_lower
    message = str(caught[0].message)
    assert message == eqc.infeasible_message(result)
    assert "falls across c in [0.1, 10.0], from 0.0029 to 0.0000" in message
    assert "may peak inside the interval" in message and "irtcalib bounds" in message
    assert "attainable bracket" not in message
