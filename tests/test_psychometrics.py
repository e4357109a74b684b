import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import optimize

from irtcalib import (
    EmptyRequestError,
    ItemPool,
    LatentSpec,
    ParameterError,
    PoolConfig,
    ScaleInterval,
    analytic_ceiling,
    build_pool,
    item_information,
    jensen_gap_estimate,
    logistic_kernel,
    monotonicity_scan,
    phi,
    prob_correct,
    realized_reliability,
    reference_ceiling,
    reliability_summary,
    sample_latent,
)
from irtcalib.study import ResponseDataset
from irtcalib import test_information as total_information
from irtcalib import test_information_dc as total_information_dc
from irtcalib.psychometrics import _strictly_increasing, metric_value
from irtcalib.rng import stream

from conftest import make_rasch_pool


def random_pool(rng, max_items=20):
    n = int(rng.integers(1, max_items + 1))
    beta = rng.normal(0, 1, n)
    lam = np.exp(rng.normal(0, 0.3, n))
    from irtcalib import ItemPool

    return ItemPool(model="twopl", beta=beta, lambda0=lam)


# --- response probability ---------------------------------------------------


def test_prob_correct_symmetry():
    assert prob_correct(1.3, 1.3, 2.0) == pytest.approx(0.5)


def test_prob_correct_ln3():
    assert prob_correct(math.log(3.0), 0.0, 1.0) == pytest.approx(0.75)


def test_prob_correct_saturation_guard():
    p = prob_correct(40.0, 0.0, 1.0)
    assert 1.0 - 1e-15 < p < 1.0
    q = prob_correct(-40.0, 0.0, 1.0)
    assert 0.0 < q < 1e-15


def test_prob_correct_rejects_nonfinite_and_nonpositive_lam():
    with pytest.raises(ParameterError):
        prob_correct(float("nan"), 0.0, 1.0)
    with pytest.raises(ParameterError):
        prob_correct(0.0, 0.0, 0.0)


# --- kernel -----------------------------------------------------------------


def test_kernel_peak():
    assert logistic_kernel(0.0) == pytest.approx(0.25)


def test_kernel_symmetry():
    assert logistic_kernel(3.7) == pytest.approx(logistic_kernel(-3.7))


def test_kernel_tail_decay():
    v = logistic_kernel(50.0)
    assert 0.0 < v < 1e-20


def test_kernel_bound_property():
    rng = stream(101, "kernel")
    x = rng.uniform(-60, 60, 100_000)
    h = logistic_kernel(x)
    assert np.all(h > 0)
    assert np.all(h <= 0.25)
    assert np.all(h[x != 0.0] < 0.25)


# --- information ------------------------------------------------------------


def test_item_information_rasch_peak():
    assert item_information(0.0, 0.0, 1.0) == pytest.approx(0.25)


def test_item_information_lambda_scaling():
    assert item_information(0.0, 0.0, 2.0) == pytest.approx(1.0)


def test_item_information_at_p75():
    assert item_information(math.log(3.0), 0.0, 1.0) == pytest.approx(0.1875)


def test_test_information_single_item_matches():
    pool = make_rasch_pool([0.4])
    c = 1.7
    assert total_information(1.0, pool, c) == pytest.approx(item_information(1.0, 0.4, c))


def test_test_information_identical_rasch_items():
    pool = make_rasch_pool([0.0] * 12)
    assert total_information(0.0, pool, 1.0) == pytest.approx(12 * 0.25)


def test_test_information_upper_bound_property():
    rng = stream(102, "bound")
    for _ in range(300):
        pool = random_pool(rng)
        c = float(np.exp(rng.uniform(np.log(0.1), np.log(20))))
        theta = rng.normal(0, 2, 50)
        bound = c**2 / 4.0 * np.sum(pool.lambda0**2)
        assert np.all(total_information(theta, pool, c) <= bound * (1 + 1e-12))


# --- derivative and phi -----------------------------------------------------


def test_dc_derivative_at_peak():
    pool = make_rasch_pool([0.0])
    assert total_information_dc(0.0, pool, 1.0) == pytest.approx(0.5)


def test_dc_derivative_negative_beyond_root():
    pool = make_rasch_pool([0.0])
    assert total_information_dc(5.0, pool, 1.0) < 0.0


def test_dc_derivative_matches_finite_differences():
    rng = stream(103, "fd")
    step = 1e-5
    for _ in range(1000):
        pool = random_pool(rng)
        c = float(np.exp(rng.uniform(np.log(0.2), np.log(5))))
        theta = float(rng.normal(0, 2))
        analytic = total_information_dc(theta, pool, c)
        numeric = (total_information(theta, pool, c + step) - total_information(theta, pool, c - step)) / (
            2 * step
        )
        assert abs(analytic - numeric) < 1e-6 * (1.0 + abs(analytic))


def test_phi_values():
    assert phi(0.0) == pytest.approx(2.0)
    assert phi(3.0) == pytest.approx(2.0 - 3.0 * math.tanh(1.5))
    assert phi(3.0) == pytest.approx(-0.7154, abs=1e-4)


def test_phi_root_bracketed():
    root = optimize.brentq(phi, 1.0, 4.0)
    assert 2.39 < root < 2.41
    x = np.linspace(0.01, 10, 500)
    assert np.all(np.diff(phi(x)) < 0)


# --- reliability summaries --------------------------------------------------


def test_point_mass_sample_equalizes_metrics():
    pool = make_rasch_pool([0.3, -0.2, 1.0])
    theta = np.full(16, 0.7)
    s = reliability_summary(theta, pool, 1.1, sigma2=1.0)
    assert s.rho_tilde == pytest.approx(s.w_bar, rel=1e-14)


def test_jensen_ordering_random_samples():
    rng = stream(104, "jensen")
    for _ in range(1000):
        pool = random_pool(rng, max_items=10)
        theta = rng.normal(0, 1, int(rng.integers(2, 40)))
        c = float(np.exp(rng.uniform(np.log(0.2), np.log(5))))
        s = reliability_summary(theta, pool, c)
        assert s.rho_tilde >= s.w_bar - 1e-12


theta_samples = arrays(
    np.float64, st.integers(2, 200), elements=st.floats(-6.0, 6.0, allow_nan=False, allow_infinity=False)
)
scales = st.floats(0.1, 10.0)


@st.composite
def item_pools(draw):
    n = draw(st.integers(1, 40))
    beta = draw(arrays(np.float64, n, elements=st.floats(-4.0, 4.0)))
    if draw(st.booleans()):
        return ItemPool(model="rasch", beta=beta, lambda0=np.ones(n))
    return ItemPool(model="twopl", beta=beta, lambda0=draw(arrays(np.float64, n, elements=st.floats(0.25, 4.0))))


@settings(deadline=None)
@given(theta=theta_samples, pool=item_pools(), c=scales)
def test_jensen_ordering_property(theta, pool, c):
    s = reliability_summary(theta, pool, c)
    assert s.rho_tilde >= s.w_bar - 1e-15


@settings(deadline=None)
@given(theta=theta_samples, pool=item_pools(), c=scales)
def test_realized_reliability_matches_summary_property(theta, pool, c):
    dataset = ResponseDataset(
        responses=np.zeros((theta.size, pool.n_items), dtype=np.int8),
        theta_true=theta,
        pool=pool,
        c_applied=c,
        seed=0,
    )
    summary = reliability_summary(theta, pool, c)
    for metric in ("avg_info", "msem"):
        assert realized_reliability(dataset, metric) == metric_value(summary, metric)


def test_forced_mean_information_value():
    pool = make_rasch_pool([0.0] * 60)
    s = reliability_summary(np.zeros(8), pool, 1.0, sigma2=1.0)
    assert s.j_bar == pytest.approx(15.0)
    assert s.rho_tilde == pytest.approx(0.9375)


def test_reliability_summary_consistency_fields():
    pool = make_rasch_pool([0.0, 0.5])
    theta = sample_latent(LatentSpec(seed=3), 500).theta
    s = reliability_summary(theta, pool, 0.8)
    assert s.rho_tilde == pytest.approx(s.sigma2_theta * s.j_bar / (s.sigma2_theta * s.j_bar + 1))
    assert s.m_points == 500
    assert s.sigma2_theta == pytest.approx(np.var(theta, ddof=1))


def test_empty_sample_rejected():
    with pytest.raises(EmptyRequestError):
        reliability_summary(np.empty(0), make_rasch_pool([0.0]), 1.0)


def test_underflow_propagates_to_infinite_msem():
    pool = make_rasch_pool([100.0])
    s = reliability_summary(np.zeros(4), pool, 20.0, sigma2=1.0)
    assert s.underflow
    assert s.msem == float("inf")
    assert s.w_bar == 0.0
    assert np.isfinite(s.rho_tilde)


# --- ceilings ---------------------------------------------------------------


def test_analytic_ceiling_rasch30():
    pool = make_rasch_pool(np.linspace(-2, 2, 30))
    assert analytic_ceiling(pool, 1.0, 1.0) == pytest.approx(7.5 / 8.5)


def test_analytic_ceiling_vanishes_at_small_c():
    pool = make_rasch_pool(np.linspace(-2, 2, 30))
    assert analytic_ceiling(pool, 1.0, 1e-6) < 1e-10


def test_ceiling_dominates_monte_carlo():
    rng = stream(105, "ceiling")
    for _ in range(50):
        pool = random_pool(rng)
        theta = rng.normal(0, 1, 10_000)
        c = float(np.exp(rng.uniform(np.log(0.2), np.log(5))))
        s = reliability_summary(theta, pool, c)
        assert analytic_ceiling(pool, s.sigma2_theta, c) >= s.rho_tilde


@pytest.mark.parametrize("n_items,expected", [(15, 0.7895), (30, 0.8824), (60, 0.9375)])
def test_reference_ceiling_table(n_items, expected):
    assert abs(reference_ceiling(n_items) - expected) < 5e-5


# --- monotonicity scan and metric split -------------------------------------


def test_scan_parametric_rho_tilde_monotone():
    pool = build_pool(PoolConfig(model="rasch", source="parametric", n_items=30, seed=30))
    theta = sample_latent(LatentSpec(seed=31), 10_000).theta
    scan = monotonicity_scan(pool, theta, "avg_info", ScaleInterval(0.1, 10.0), 25)
    assert scan.is_monotone


def test_scan_gap_pool_msem_non_monotone(scan_gap_pool, narrow_latent):
    theta = sample_latent(narrow_latent, 20_000).theta
    scan = monotonicity_scan(scan_gap_pool, theta, "msem", ScaleInterval(1.0, 50.0), 25)
    assert not scan.is_monotone
    values = dict(scan.grid)
    grid_c = np.array([c for c, _ in scan.grid])
    w = {c: values[c] for c in grid_c}
    w5 = values[grid_c[np.argmin(np.abs(grid_c - 5.0))]]
    w50 = values[grid_c[-1]]
    assert w50 < w5


def test_msem_collapse_ordering(scan_gap_pool, narrow_latent):
    theta = sample_latent(narrow_latent, 20_000).theta
    w2 = reliability_summary(theta, scan_gap_pool, 2.0).w_bar
    w5 = reliability_summary(theta, scan_gap_pool, 5.0).w_bar
    w50 = reliability_summary(theta, scan_gap_pool, 50.0).w_bar
    assert w50 < w5 < w2


def test_strictly_increasing_helper_rejects_constants():
    assert not _strictly_increasing(np.array([0.5, 0.5, 0.5]))
    assert _strictly_increasing(np.array([0.1, 0.2, 0.3]))


def test_scan_constant_metric_not_monotone():
    # Items so remote that information underflows everywhere: w_bar is 0 on
    # the whole grid, which must count as non-monotone (ties).
    pool = make_rasch_pool([100.0] * 5)
    theta = np.linspace(-0.1, 0.1, 50)
    scan = monotonicity_scan(pool, theta, "msem", ScaleInterval(10.0, 20.0), 3)
    assert not scan.is_monotone
    assert np.all(scan.values() == 0.0)


def test_scan_grid_size_validated():
    with pytest.raises(ParameterError):
        monotonicity_scan(make_rasch_pool([0.0]), np.zeros(3), "avg_info", ScaleInterval(0.5, 2.0), 2)


# --- large-c growth ---------------------------------------------------------


def test_mean_information_grows_linearly_at_large_c():
    pool = build_pool(PoolConfig(model="rasch", source="parametric", n_items=30, seed=32))
    theta = sample_latent(LatentSpec(seed=33), 100_000).theta
    j50 = np.mean(total_information(theta, pool, 50.0))
    j100 = np.mean(total_information(theta, pool, 100.0))
    assert 1.8 <= j100 / j50 <= 2.2


# --- jensen gap -------------------------------------------------------------


def test_jensen_gap_point_mass_is_zero():
    pool = make_rasch_pool([0.0, 1.0])
    gaps = jensen_gap_estimate(np.full(16, 0.4), pool, 1.0, sigma2=1.0)
    assert gaps["gap_exact"] == pytest.approx(0.0, abs=1e-14)
    assert gaps["gap_second_order"] == pytest.approx(0.0, abs=1e-14)


def test_jensen_gap_second_order_accuracy_low_variance():
    # Dense difficulty grid at modest scale keeps information nearly flat.
    pool = make_rasch_pool(np.linspace(-3, 3, 40))
    theta = sample_latent(LatentSpec(seed=34), 100_000).theta
    gaps = jensen_gap_estimate(theta, pool, 0.5)
    assert gaps["gap_exact"] > 0
    assert abs(gaps["gap_exact"] - gaps["gap_second_order"]) < 0.2 * gaps["gap_exact"]


def test_jensen_gap_larger_for_heavy_tails():
    pool = build_pool(PoolConfig(model="rasch", source="parametric", n_items=30, seed=35))
    theta_n = sample_latent(LatentSpec(seed=36), 50_000).theta
    theta_t = sample_latent(
        LatentSpec(shape="heavy_tail", shape_params={"nu": 5.0}, seed=36), 50_000
    ).theta
    gap_n = jensen_gap_estimate(theta_n, pool, 1.0)["gap_exact"]
    gap_t = jensen_gap_estimate(theta_t, pool, 1.0)["gap_exact"]
    assert gap_t > gap_n
