import math
import os
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import optimize
from scipy.special import expit

from irtcalib import (
    DivergedObjectiveError,
    EmptyRequestError,
    EqcConfig,
    ItemPool,
    LatentSpec,
    ParameterError,
    PoolConfig,
    ScaleInterval,
    analytic_ceiling,
    build_pool,
    logistic_kernel,
    phi,
    prob_correct,
    realized_reliability,
    reference_ceiling,
    reliability_curve,
    reliability_summary,
    sample_latent,
)
from irtcalib.latent import VALIDATION_SHAPE_PARAMS
from irtcalib.study import ResponseDataset
from irtcalib import test_information as total_information
from irtcalib import test_information_dc as total_information_dc
from irtcalib import psychometrics, sac
from irtcalib.eqc import feasibility_report
from irtcalib.psychometrics import _P_HI, _P_LO, metric_value, reliability_from_information
from irtcalib.rng import stream
from irtcalib.sac import SacConfig, sac_calibrate

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
    a = c * pool.lambda0
    flat = np.ravel(theta)
    x = np.column_stack((flat, np.ones_like(flat))) @ np.array((a, -a * pool.beta))
    with np.errstate(over="ignore"):
        np.cosh(x, out=x)
    x += 1.0
    np.reciprocal(x, out=x)
    return (x @ (0.5 * a * a)).reshape(np.shape(theta))


def _prepared(theta, dtype=np.float64):
    """``theta`` as one prepared sample with its design in ``dtype``."""
    return psychometrics.prepare_samples(np.reshape(theta, (1, -1)), dtype)[0]


def _exp_form_information(theta, pool, c):
    """Test information through h = exp(-|x|) / (1 + exp(-|x|))^2: the numerical reference."""
    lam = c * pool.lambda0
    x = np.abs(np.subtract.outer(theta, pool.beta) * lam)
    np.negative(x, out=x)
    np.exp(x, out=x)
    return (x / (x + 1.0) ** 2) @ (lam * lam)


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


# h(x) = 1/(2 + 2*cosh x) at x = a*theta - a*beta against the exp form at
# x = a*(theta - beta): the two round x differently, by up to about
# eps/2 * (|a*theta| + |a*beta| + 2|x|), or 2.6e-13 relative in h here; 20,000
# random cases measured at most 1.14e-13. Totals below INFO_FLOOR count as zero.
# |x| reaches 1e3, past cosh's overflow in both dtypes, without a warning: the
# kernel ignores that overflow itself, and the caller sets no np.errstate.
_EXP_FORM_RTOL = 5e-13


@settings(deadline=None, max_examples=200)
@given(theta=arrays(np.float64, st.integers(1, 40), elements=st.floats(-10, 10)),
       items=st.integers(1, 8).flatmap(lambda n: st.tuples(
           arrays(np.float64, n, elements=st.floats(-10, 10)),
           arrays(np.float64, n, elements=st.floats(0.1, 5.0)))),
       c=st.floats(0.05, 10.0))
@example(theta=np.array([-10.0, 0.0, 10.0]), items=(np.array([10.0, -10.0]), np.array([5.0, 0.1])), c=10.0)
def test_kernel_matches_the_exp_form_without_warnings(theta, items, c):
    pool = ItemPool(model="twopl", beta=items[0], lambda0=items[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        info = total_information(theta, pool, c)
        fast = total_information(_prepared(theta, np.float32), pool, c)
        summaries = [reliability_summary(theta, pool, c, dtype=dtype) for dtype in (np.float64, np.float32)]
        for dtype in (np.float64, np.float32):
            summaries += [reliability_summary(_prepared(theta, prep), pool, c, dtype=dtype)
                          for prep in (np.float64, np.float32)]
    assert summaries[2:4] == [summaries[0]] * 2 and summaries[4:] == [summaries[1]] * 2
    with np.errstate(under="ignore"):
        np.testing.assert_allclose(info, _exp_form_information(theta, pool, c),
                                   rtol=_EXP_FORM_RTOL, atol=psychometrics.INFO_FLOOR)
    assert np.all(np.isfinite(fast)) and np.all(fast >= 0)


# Every item at |x| >= 720 leaves the total below INFO_FLOOR in both forms (cosh
# overflows to h = 0, exp(-|x|) to a subnormal); one item at |x| = 600 does not.
@pytest.mark.parametrize("xs,underflow", [([720.0], True), ([-720.0, 800.0, 1e3], True),
                                          ([600.0, 1e3, -1e3], False), ([-600.5], False)])
def test_kernel_underflow_flag_agrees_with_the_exp_form(xs, underflow):
    pool = ItemPool(model="twopl", beta=-np.array(xs), lambda0=np.ones(len(xs)))
    theta = np.zeros(3)
    with np.errstate(under="ignore"):
        reference = _exp_form_information(theta, pool, 1.0)
    for info in (reference, total_information(theta, pool, 1.0)):
        assert reliability_from_information(info, 1.0, 1.0).underflow is underflow


def test_kernel_is_thread_safe():
    # Two threads run the kernel at once, in opposite orders over prepared
    # samples of both dtypes at sizes around and across the 2048-row block;
    # every result equals the serial one bit for bit.
    rng = np.random.default_rng(8)
    pool = ItemPool(model="twopl", beta=rng.normal(0, 1.5, 40), lambda0=np.exp(rng.normal(0, 0.3, 40)))
    calls = [(psychometrics.prepare_samples(rng.normal(0, 1.3, (1, m)), dtype)[0], c)
             for m in (_BLOCK - 1, _BLOCK + 1, 2 * _BLOCK + 5, 3 * _BLOCK - 1)
             for dtype in (np.float64, np.float32) for c in (0.5, 2.0)]
    serial = [total_information(sample, pool, c).tobytes() for sample, c in calls]
    barrier = threading.Barrier(2, timeout=60)

    def run(order):
        barrier.wait()
        return [(k, total_information(calls[k][0], pool, calls[k][1]).tobytes())
                for _ in range(5) for k in order]

    order = list(range(len(calls)))
    with ThreadPoolExecutor(2) as executor:
        results = [r for rs in executor.map(run, (order, order[::-1])) for r in rs]
    assert len(results) == 2 * 5 * len(calls)
    assert all(info == serial[k] for k, info in results)


# The README's claim: the kernel's bits do not depend on the BLAS thread count.
_THREAD_PROBE = """
import hashlib, numpy as np
from irtcalib import ItemPool, psychometrics
rng = np.random.default_rng(0)
pool = ItemPool(model="twopl", beta=rng.normal(0, 1.5, 60), lambda0=np.exp(rng.normal(0, 0.3, 60)))
theta = rng.normal(0, 1.3, 20_000)
digest = hashlib.sha256()
for dtype in (np.float32, np.float64):
    for c in (0.3, 1.0, 4.0):
        sample = psychometrics.prepare_samples(theta.reshape(1, -1), dtype)[0]
        digest.update(psychometrics.test_information(sample, pool, c).tobytes())
print(digest.hexdigest())
"""


def test_kernel_bits_do_not_depend_on_blas_threads():
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


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
    # One block-sized temporary alive at a time, beside the design and the output.
    block = psychometrics._BLOCK_ROWS * pool.n_items * theta.itemsize
    assert _traced_peak(total_information, theta, pool, 1.2) < block + 4 * theta.nbytes
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
    s = reliability_from_information(total_information(theta, pool, 1.1), 1.0, 1.1)
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
    s = reliability_from_information(total_information(np.zeros(8), pool, 1.0), 1.0, 1.0)
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
    s = reliability_from_information(total_information(np.zeros(4), pool, 20.0), 1.0, 20.0)
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


def _scan(latent, pool, interval, grid_size, m_quadrature=2000, seed=0):
    """The ``msem`` scan that ``bounds --scan-msem`` reports for this design."""
    cfg = EqcConfig(target_rho=0.5, latent=latent, items=pool, m_quadrature=m_quadrature,
                    interval=interval, seed=seed)
    return feasibility_report(cfg, scan_msem=True, grid_size=grid_size)["msem_scan"]


def test_scan_parametric_rho_tilde_monotone():
    cfg = EqcConfig(target_rho=0.5, latent=LatentSpec(),
                    items=PoolConfig(model="rasch", source="parametric", n_items=30),
                    m_quadrature=10_000, interval=ScaleInterval(0.1, 10.0), seed=31)
    rho = [r for _, r in reliability_curve(cfg, np.geomspace(0.1, 10.0, 25))]
    assert np.all(np.diff(rho) > 1e-10)


def test_scan_gap_pool_msem_non_monotone(scan_gap_pool, narrow_latent):
    scan = _scan(narrow_latent, scan_gap_pool, ScaleInterval(1.0, 50.0), 25, m_quadrature=20_000, seed=11)
    assert not scan["is_monotone"]
    grid_c = np.array([c for c, _ in scan["grid"]])
    np.testing.assert_array_equal(grid_c, np.geomspace(1.0, 50.0, 25))
    values = dict(scan["grid"])
    w5 = values[grid_c[np.argmin(np.abs(grid_c - 5.0))]]
    w50 = values[grid_c[-1]]
    assert w50 < w5


def test_msem_collapse_ordering(scan_gap_pool, narrow_latent):
    theta = sample_latent(narrow_latent, 20_000, rng=stream(11, "latent")).theta
    w2 = reliability_summary(theta, scan_gap_pool, 2.0).w_bar
    w5 = reliability_summary(theta, scan_gap_pool, 5.0).w_bar
    w50 = reliability_summary(theta, scan_gap_pool, 50.0).w_bar
    assert w50 < w5 < w2


def test_scan_constant_metric_not_monotone():
    # Items so remote that information underflows everywhere: w_bar is 0 on
    # the whole grid, which must count as non-monotone (ties). cosh
    # overflows on every cell, and the scan raises no warning for it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scan = _scan(LatentSpec(sigma=0.05), make_rasch_pool([100.0] * 5), ScaleInterval(10.0, 20.0), 3)
    assert not scan["is_monotone"]
    assert len(scan["grid"]) == 3 and all(r == 0.0 for _, r in scan["grid"])


def test_scan_grid_size_validated():
    with pytest.raises(ParameterError, match="grid_size must be >= 3"):
        _scan(LatentSpec(), make_rasch_pool([0.0]), ScaleInterval(0.5, 2.0), 2)


# --- large-c growth ---------------------------------------------------------


def test_mean_information_grows_linearly_at_large_c():
    pool = build_pool(PoolConfig(model="rasch", source="parametric", n_items=30), 32)
    theta = sample_latent(LatentSpec(), 100_000, rng=stream(33, "latent")).theta
    j50 = np.mean(total_information(theta, pool, 50.0))
    j100 = np.mean(total_information(theta, pool, 100.0))
    assert 1.8 <= j100 / j50 <= 2.2


# --- jensen gap -------------------------------------------------------------


def _jensen_gap(theta, pool, c, sigma2=None):
    if sigma2 is None:
        summary = reliability_summary(theta, pool, c)
    else:
        summary = reliability_from_information(total_information(theta, pool, c), sigma2, c)
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


# --- the summary without numpy's mean and var wrappers ------------------------


def _wrapped_summary(theta, pool, c, dtype):
    """``reliability_summary`` computed with ``np.var`` and ``np.mean``, as it was before: the bit-level reference."""
    theta = np.asarray(theta, dtype=float)
    sigma2 = float(np.var(theta, ddof=1)) if theta.size > 1 else 0.0
    info = np.asarray(total_information(_prepared(theta, dtype), pool, c), dtype=float)
    j_bar = float(np.mean(info))
    underflow = bool(np.any(info < psychometrics.INFO_FLOOR))
    msem = float("inf") if underflow else float(np.mean(1.0 / info))
    w_bar = sigma2 / (sigma2 + msem) if np.isfinite(msem) else 0.0
    top = sigma2 * j_bar
    return {"j_bar": j_bar, "sigma2_theta": float(sigma2), "rho_tilde": top / (top + 1.0),
            "msem": msem, "w_bar": float(w_bar), "underflow": underflow}


def _bits(value):
    return (type(value), np.float64(value).tobytes())


# Far persons sit at a distance d of 600 to 3000 in x from every item, so
# their information is exactly 0 (cosh overflows) or, near d = 700 in float64,
# positive but below INFO_FLOOR.
@settings(deadline=None, max_examples=80)
@given(m=st.sampled_from([1, 2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 20_000]), n_items=st.integers(1, 40),
       log_c=st.floats(np.log(0.05), np.log(20.0)), dtype=st.sampled_from([np.float32, np.float64]),
       far=st.lists(st.floats(600.0, 3000.0).flatmap(lambda d: st.sampled_from([-d, d])), max_size=3),
       seed=st.integers(0, 2**32 - 1))
@example(m=2, n_items=1, log_c=0.0, dtype=np.float64, far=[700.0], seed=0)
@example(m=3, n_items=2, log_c=0.0, dtype=np.float64, far=[-650.0], seed=0)
@example(m=_BLOCK + 1, n_items=30, log_c=np.log(3.0), dtype=np.float32, far=[-720.0], seed=1)
def test_summary_matches_numpys_mean_and_var_bit_for_bit(m, n_items, log_c, dtype, far, seed):
    rng = np.random.default_rng(seed)
    pool = ItemPool(model="twopl", beta=rng.normal(0, 1.5, n_items), lambda0=np.exp(rng.normal(0, 0.3, n_items)))
    c = float(np.exp(log_c))
    theta = rng.normal(0, 1.3, m)
    reach = c * pool.lambda0.min()
    far_theta = [pool.beta.max() + d / reach if d > 0 else pool.beta.min() + d / reach for d in far]
    theta[rng.permutation(m)[: len(far)]] = far_theta[:m]
    expected = _wrapped_summary(theta, pool, c, dtype)
    other = np.float64 if dtype == np.float32 else np.float32
    with np.errstate(under="ignore"):
        summary = reliability_summary(theta, pool, c, dtype=dtype)
        # a sample prepared in the other dtype gets a design in dtype and keeps its variance
        reprepared = reliability_summary(_prepared(theta, other), pool, c, dtype=dtype)
    assert {k: _bits(getattr(summary, k)) for k in expected} == {k: _bits(v) for k, v in expected.items()}
    assert summary.m_points == m and summary.c == c
    assert {k: _bits(v) for k, v in vars(reprepared).items()} == {k: _bits(v) for k, v in vars(summary).items()}


# SAC's msem iterations read underflow first: the diverging iteration, its
# scale and every trace value stay where the wrapped formulas put them.
@settings(deadline=None, max_examples=12)
@given(sigma=st.sampled_from([25.0, 30.0]), metric=st.sampled_from(["avg_info", "msem"]),
       seed=st.integers(0, 2**32 - 1))
@example(sigma=30.0, metric="msem", seed=0)  # diverges at iteration 4
def test_sac_diverges_where_the_wrapped_summary_did(sigma, metric, seed):
    cfg = SacConfig(target_rho=0.6, latent=LatentSpec(sigma=sigma), metric=metric,
                    items=PoolConfig(model="rasch", source="parametric", n_items=10), n_iter=40, burn_in=20,
                    m_per_iter=200, interval=ScaleInterval(1.0, 10.0), eval_m=200, seed=seed)

    def outcome():
        try:
            result = sac_calibrate(cfg)
        except DivergedObjectiveError as exc:
            return str(exc)
        return result.trace_c.tobytes(), result.trace_rho.tobytes(), result.achieved_rho

    fast = outcome()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sac, "reliability_summary", lambda sample, pool, c, dtype=np.float64:
                      SimpleNamespace(**_wrapped_summary(sample.theta, pool, c, dtype)))
        assert outcome() == fast


# The variance prepare_samples records for each row of a chunk of k rows.
@settings(deadline=None, max_examples=300)
@given(k=st.integers(1, 4), n=st.one_of(st.integers(2, 70), st.integers(2, 65_537)),
       log_scale=st.floats(-30.0, 30.0), loc=st.floats(-1e3, 1e3), seed=st.integers(0, 2**32 - 1))
@example(k=1, n=65_537, log_scale=0.0, loc=0.0, seed=0)
@example(k=3, n=65_537, log_scale=0.0, loc=0.0, seed=0)
def test_sample_variance_is_np_var_bit_for_bit(k, n, log_scale, loc, seed):
    rows = loc + np.exp(log_scale) * np.random.default_rng(seed).standard_normal((k, n))
    samples = psychometrics.prepare_samples(rows)
    assert [_bits(s.sigma2) for s in samples] == [_bits(float(np.var(row, ddof=1))) for row in rows]
