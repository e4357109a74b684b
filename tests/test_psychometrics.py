import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import optimize
from scipy.special import expit

from irtcalib import (
    EmptyRequestError,
    ItemPool,
    LatentSpec,
    ParameterError,
    PoolConfig,
    ScaleInterval,
    analytic_ceiling,
    build_pool,
    logistic_kernel,
    monotonicity_scan,
    phi,
    prob_correct,
    realized_reliability,
    reference_ceiling,
    reliability_summary,
    sample_latent,
)
from irtcalib.latent import VALIDATION_SHAPE_PARAMS
from irtcalib.study import ResponseDataset
from irtcalib import test_information as total_information
from irtcalib import test_information_dc as total_information_dc
from irtcalib import psychometrics
from irtcalib.psychometrics import _P_HI, _P_LO, _strictly_increasing, metric_value
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


def _near_expit(p, x):
    # numpy's exp may differ from the C library's by 1 ulp and 1/(1 + e) rounds
    # twice, so p may differ from scipy's expit by 3 * 2**-52 relative (up to
    # 4 ulps on arrays), plus one subnormal step below the normal range.
    reference = np.clip(expit(x), _P_LO, _P_HI)
    return np.all(np.abs(p - reference) <= 3 * 2.0**-52 * reference + _P_LO)


@settings(max_examples=300, deadline=None)
@given(x=st.one_of(st.floats(-40.0, 40.0), st.floats(-1000.0, 1000.0)))
@example(x=-709.8)  # exp(-x) overflows from here on: p is 0 before the clip
@example(x=-745.2)
@example(x=-709.0)  # p is subnormal
@example(x=-34.11496977498038)  # 2 ulps from expit on arrays
@example(x=36.8)  # from here on p rounds to 1 before the clip
@example(x=710.0)
@example(x=0.0)
def test_prob_correct_matches_expit_to_rounding(x):
    assert _near_expit(prob_correct(x, 0.0, 1.0), x)
    xs = np.array([x, -x, x / 3, -x / 3])
    assert _near_expit(prob_correct(xs, 0.0, 1.0), xs)


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


def test_test_information_single_item_matches():
    pool = make_rasch_pool([0.4])
    c = 1.7
    # One item's information is c^2 lambda^2 h(c lambda (theta - beta)), with lambda = 1.
    assert total_information(1.0, pool, c) == pytest.approx(c**2 * logistic_kernel(c * (1.0 - 0.4)))


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


def _single_shot_information(theta, pool, c):
    """The information kernel as one (M, I) pass: the bit-level reference."""
    lam = c * pool.lambda0
    x = np.subtract.outer(theta, pool.beta)
    x *= lam
    np.abs(x, out=x)
    np.negative(x, out=x)
    np.exp(x, out=x)
    denom = x + 1.0
    denom *= denom
    x /= denom
    return x @ (lam * lam)


def _broadcast_information_dc(theta, pool, c):
    """dJ/dc as per-item broadcast terms, logistic_kernel times phi."""
    lam0 = pool.lambda0
    x = (c * lam0)[None, :] * (theta[:, None] - pool.beta[None, :])
    return (c * lam0[None, :] ** 2 * logistic_kernel(x) * phi(x)).sum(axis=1)


# M is a whole number of blocks plus a tail of 0, 1 or block - 1 rows, or any
# size up to a few blocks. M * I stays below about 460,000 cells, above which
# OpenBLAS splits a GEMV across threads and the single-shot reference's own
# bits depend on the thread count.
_BLOCK = psychometrics._BLOCK_ROWS
_kernel_sizes = st.one_of(
    st.builds(lambda k, tail: k * _BLOCK + tail, st.integers(0, 2), st.sampled_from([0, 1, _BLOCK - 1])),
    st.integers(1, 3 * _BLOCK),
)


@settings(deadline=None, max_examples=60)
@given(m=_kernel_sizes, n_items=st.integers(1, 60), log_c=st.floats(np.log(0.05), np.log(20.0)),
       seed=st.integers(0, 2**32 - 1))
@example(m=2 * _BLOCK + 1, n_items=60, log_c=0.0, seed=0)
@example(m=3 * _BLOCK - 1, n_items=60, log_c=1.0, seed=1)
def test_blocked_kernel_bit_identical_to_single_shot(m, n_items, log_c, seed):
    rng = np.random.default_rng(seed)
    pool = ItemPool(model="twopl", beta=rng.normal(0, 1.5, n_items), lambda0=np.exp(rng.normal(0, 0.3, n_items)))
    theta = rng.normal(0, 1.3, m)
    c = float(np.exp(log_c))
    expected = _single_shot_information(theta, pool, c)
    assert np.array_equal(total_information(theta, pool, c), expected)
    assert np.array_equal(total_information_dc(theta, pool, c), _broadcast_information_dc(theta, pool, c))


# The kernel takes |theta - beta| and then scales by -lam, where it used to scale,
# take the absolute value and negate: rounding is symmetric in sign, so both give
# -|lam*(theta - beta)| bit for bit, in either dtype.
_differences = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e-40, -1e-45, 1e308, -1e308]),
)


@settings(deadline=None, max_examples=200)
@given(d=arrays(np.float64, st.integers(1, 40), elements=_differences),
       lam=arrays(np.float64, st.integers(1, 8), elements=st.floats(1e-3, 1e3)),
       dtype=st.sampled_from([np.float64, np.float32]))
@example(d=np.array([0.0, -0.0, 5e-324, -1e308]), lam=np.array([1e-3, 1e3]), dtype=np.float32)
def test_kernel_negation_folded_into_the_scale_is_bit_identical(d, lam, dtype):
    beta = np.zeros(lam.size)
    with np.errstate(over="ignore", under="ignore"):  # float32 casts of +-1e308 and 1e-45
        x = np.subtract.outer(d.astype(dtype), beta.astype(dtype))
        old = np.negative(np.abs(x * lam.astype(dtype)))
        assert (np.abs(x) * (-lam).astype(dtype)).tobytes() == old.tobytes()
        np.exp(old, out=old)
        expected = old / (old + 1.0) ** 2
        block = psychometrics._kernel_block(d.astype(dtype), beta.astype(dtype), (-lam).astype(dtype))
        assert block.tobytes() == expected.tobytes()


def test_workspace_views_one_aligned_buffer_in_both_dtypes():
    for rows, n in ((3, 5), (2000, 60), (7, 1)):
        arrays64 = psychometrics._workspace(rows, n, np.dtype(np.float64))
        arrays32 = psychometrics._workspace(rows, n, np.dtype(np.float32))
        for arr, dtype in zip(arrays64 + arrays32, [np.float64] * 2 + [np.float32] * 2):
            assert arr.dtype == dtype and arr.shape == (rows, n) and arr.flags.c_contiguous
            assert arr.ctypes.data % 64 == 0
        assert arrays32[0].ctypes.data == arrays64[0].ctypes.data  # one buffer, no second allocation
        assert not np.shares_memory(*arrays32) and not np.shares_memory(*arrays64)


# SAC's avg_info iterations run the kernel in float32; the summary stays float64.
@settings(deadline=None, max_examples=100)
@given(m=st.one_of(st.integers(1, 2600), st.sampled_from([_BLOCK - 1, _BLOCK + 1, _BLOCK + 2])),
       n_items=st.integers(1, 60), c=st.floats(0.1, 10.0), rasch=st.booleans(),
       shape=st.sampled_from(["normal", "heavy_tail", "skew_pos", "bimodal"]), seed=st.integers(0, 2**32 - 1))
@example(m=2600, n_items=60, c=10.0, rasch=False, shape="heavy_tail", seed=0)
def test_float32_kernel_moves_rho_tilde_by_at_most_1e_6(m, n_items, c, rasch, shape, seed):
    rng = np.random.default_rng(seed)
    lam0 = np.ones(n_items) if rasch else np.exp(rng.normal(0, 0.3, n_items))
    pool = ItemPool(model="rasch" if rasch else "twopl", beta=rng.normal(0, 1.5, n_items), lambda0=lam0)
    theta = sample_latent(LatentSpec(shape=shape, shape_params=VALIDATION_SHAPE_PARAMS[shape]), m, rng=rng).theta
    exact = reliability_summary(theta, pool, c)
    fast = reliability_summary(theta, pool, c, dtype=np.float32)
    assert abs(fast.rho_tilde - exact.rho_tilde) <= 1e-6
    assert fast.j_bar == pytest.approx(exact.j_bar, rel=1e-5)
    assert fast.sigma2_theta == exact.sigma2_theta and fast.m_points == exact.m_points


def _traced_peak(fn, *args):
    import tracemalloc

    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernel_allocates_no_person_by_item_temporaries():
    rng = np.random.default_rng(5)
    pool = ItemPool(model="twopl", beta=rng.normal(0, 1, 60), lambda0=np.exp(rng.normal(0, 0.3, 60)))
    theta = rng.normal(0, 1, 20_000)
    total_information(theta, pool, 1.2)  # sizes the per-thread workspace
    assert _traced_peak(total_information, theta, pool, 1.2) < 4 * theta.nbytes
    # test_information_dc keeps block-sized temporaries, never one (M, I) array.
    assert _traced_peak(total_information_dc, theta, pool, 1.2) < theta.nbytes * pool.n_items


def test_information_keeps_the_shape_of_theta():
    rng = np.random.default_rng(6)
    pool = ItemPool(model="twopl", beta=rng.normal(0, 1, 30), lambda0=np.exp(rng.normal(0, 0.3, 30)))
    theta = rng.normal(0, 1, (3, 700))
    for kernel in (total_information, total_information_dc):
        grid = kernel(theta, pool, 0.8)
        assert grid.shape == theta.shape
        assert np.array_equal(grid, kernel(theta.ravel(), pool, 0.8).reshape(theta.shape))
    np.testing.assert_allclose(total_information(theta, pool, 0.8),
                               _single_shot_information(theta, pool, 0.8), rtol=1e-13)


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


# |x| below phi's root (2.3994) at every person-item cell: the regime where
# the eqc.py docstring states that reliability increases with the scale.
_PHI_REGIME = 2.399
_item_params = st.integers(1, 12).flatmap(lambda n: st.tuples(
    arrays(np.float64, n, elements=st.floats(-4, 4)),
    arrays(np.float64, n, elements=st.floats(0.2, 3.0)),
))


@settings(deadline=None)
@given(items=_item_params, theta=arrays(np.float64, st.integers(2, 30), elements=st.floats(-4, 4)),
       share=st.floats(0.01, 0.999))
def test_information_rises_with_scale_below_phi_root(items, theta, share):
    beta, lam0 = items
    pool = ItemPool(model="twopl", beta=beta, lambda0=lam0)
    spread = np.max(np.abs(lam0 * (theta[:, None] - beta)))  # the largest |x| / c
    with np.errstate(over="ignore"):  # a subnormal spread overflows the ratio, and min() takes 100
        c = share * min(_PHI_REGIME / spread, 100.0) if spread > 0 else share * 100.0
    assert np.all(total_information_dc(theta, pool, c) > 0)
    # A spread-out sample keeps the variance, and so the rise of rho, above rounding.
    if 1.05 * c * spread < _PHI_REGIME and np.ptp(theta) >= 0.01:
        assert reliability_summary(theta, pool, 1.05 * c).rho_tilde > reliability_summary(theta, pool, c).rho_tilde


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
    theta = sample_latent(LatentSpec(), 500, rng=stream(3, "latent")).theta
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
    pool = build_pool(PoolConfig(model="rasch", source="parametric", n_items=30), 30)
    theta = sample_latent(LatentSpec(), 10_000, rng=stream(31, "latent")).theta
    scan = monotonicity_scan(pool, theta, "avg_info", ScaleInterval(0.1, 10.0), 25)
    assert scan.is_monotone


def test_scan_gap_pool_msem_non_monotone(scan_gap_pool, narrow_latent):
    theta = sample_latent(narrow_latent, 20_000, rng=stream(11, "latent")).theta
    scan = monotonicity_scan(scan_gap_pool, theta, "msem", ScaleInterval(1.0, 50.0), 25)
    assert not scan.is_monotone
    values = dict(scan.grid)
    grid_c = np.array([c for c, _ in scan.grid])
    w = {c: values[c] for c in grid_c}
    w5 = values[grid_c[np.argmin(np.abs(grid_c - 5.0))]]
    w50 = values[grid_c[-1]]
    assert w50 < w5


def test_msem_collapse_ordering(scan_gap_pool, narrow_latent):
    theta = sample_latent(narrow_latent, 20_000, rng=stream(11, "latent")).theta
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
    assert all(r == 0.0 for _, r in scan.grid)


def test_scan_grid_size_validated():
    with pytest.raises(ParameterError):
        monotonicity_scan(make_rasch_pool([0.0]), np.zeros(3), "avg_info", ScaleInterval(0.5, 2.0), 2)


# --- large-c growth ---------------------------------------------------------


def test_mean_information_grows_linearly_at_large_c():
    pool = build_pool(PoolConfig(model="rasch", source="parametric", n_items=30), 32)
    theta = sample_latent(LatentSpec(), 100_000, rng=stream(33, "latent")).theta
    j50 = np.mean(total_information(theta, pool, 50.0))
    j100 = np.mean(total_information(theta, pool, 100.0))
    assert 1.8 <= j100 / j50 <= 2.2


# --- jensen gap -------------------------------------------------------------


def _jensen_gap(theta, pool, c, sigma2=None):
    summary = reliability_summary(theta, pool, c, sigma2)
    return summary.rho_tilde - summary.w_bar


def test_jensen_gap_point_mass_is_zero():
    pool = make_rasch_pool([0.0, 1.0])
    assert _jensen_gap(np.full(16, 0.4), pool, 1.0, sigma2=1.0) == pytest.approx(0.0, abs=1e-14)


def test_jensen_gap_larger_for_heavy_tails():
    pool = build_pool(PoolConfig(model="rasch", source="parametric", n_items=30), 35)
    theta_n = sample_latent(LatentSpec(), 50_000, rng=stream(36, "latent")).theta
    theta_t = sample_latent(
        LatentSpec(shape="heavy_tail", shape_params={"nu": 5.0}), 50_000, rng=stream(36, "latent")
    ).theta
    assert _jensen_gap(theta_t, pool, 1.0) > _jensen_gap(theta_n, pool, 1.0)
