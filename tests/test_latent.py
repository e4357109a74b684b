import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import integrate, optimize, stats

from irtcalib import (
    DegenerateInputError,
    EmptyRequestError,
    LatentSpec,
    ParameterError,
    describe_shapes,
    sample_latent,
    theoretical_moments,
)
from irtcalib.latent import _constant, _gaussian_kde, sample_moments
from irtcalib.rng import stream

BIG_N = 1_000_000


def bimodal_density(z, delta):
    s = np.sqrt(1.0 - delta**2)
    return 0.5 * stats.norm.pdf(z, delta, s) + 0.5 * stats.norm.pdf(z, -delta, s)


def test_theoretical_moments_normal():
    m = theoretical_moments(LatentSpec(shape="normal"))
    assert m == {"mean": 0.0, "variance": 1.0, "skewness": 0.0, "excess_kurtosis": 0.0}


def test_theoretical_moments_skew_pos_k4():
    m = theoretical_moments(LatentSpec(shape="skew_pos", shape_params={"k": 4.0}))
    assert m["skewness"] == pytest.approx(1.0)
    assert m["excess_kurtosis"] == pytest.approx(1.5)


def test_theoretical_moments_heavy_tail_nu5():
    m = theoretical_moments(LatentSpec(shape="heavy_tail", shape_params={"nu": 5.0}))
    assert m["excess_kurtosis"] == pytest.approx(6.0)


def test_heavy_tail_kurtosis_undefined_below_nu4():
    with pytest.warns(UserWarning):
        spec = LatentSpec(shape="heavy_tail", shape_params={"nu": 3.5})
    assert np.isnan(theoretical_moments(spec)["excess_kurtosis"])


def test_bimodal_kurtosis_matches_numeric_integration():
    # Independent oracle: integrate the mixture density directly.
    delta = 0.8
    m2, _ = integrate.quad(lambda z: z**2 * bimodal_density(z, delta), -10, 10)
    m4, _ = integrate.quad(lambda z: z**4 * bimodal_density(z, delta), -10, 10)
    oracle = m4 / m2**2 - 3.0
    assert oracle == pytest.approx(-0.8192, abs=1e-9)
    m = theoretical_moments(LatentSpec(shape="bimodal", shape_params={"delta": delta}))
    assert m["excess_kurtosis"] == pytest.approx(oracle, abs=1e-12)


def test_mixture_theoretical_moments_match_sample():
    spec = LatentSpec(
        shape="mixture",
        shape_params={
            "components": [
                {"weight": 0.3, "mean": -1.5, "sd": 0.5},
                {"weight": 0.5, "mean": 0.5, "sd": 1.2},
                {"weight": 0.2, "mean": 2.0, "sd": 0.3},
            ]
        },
    )
    sample = sample_latent(spec, BIG_N, rng=stream(3, "latent"))
    theo = theoretical_moments(spec)
    mom = sample.sample_moments
    assert abs(mom["mean"]) < 0.01
    assert abs(mom["var"] - 1.0) < 0.02
    assert mom["skew"] == pytest.approx(theo["skewness"], abs=0.02)
    assert mom["excess_kurtosis"] == pytest.approx(theo["excess_kurtosis"], abs=0.1)


def test_normal_sample_moments():
    mom = sample_latent(LatentSpec(), BIG_N, rng=stream(1, "latent")).sample_moments
    assert abs(mom["mean"]) < 0.005
    assert abs(mom["var"] - 1.0) < 0.01


def test_skew_pos_sample_moments():
    spec = LatentSpec(shape="skew_pos", shape_params={"k": 4.0})
    mom = sample_latent(spec, BIG_N, rng=stream(2, "latent")).sample_moments
    assert mom["skew"] == pytest.approx(1.00, abs=0.02)
    assert mom["excess_kurtosis"] == pytest.approx(1.50, abs=0.1)


def test_bimodal_sample_moments():
    spec = LatentSpec(shape="bimodal", shape_params={"delta": 0.8})
    mom = sample_latent(spec, BIG_N, rng=stream(4, "latent")).sample_moments
    assert mom["var"] == pytest.approx(1.0, abs=0.01)
    assert mom["excess_kurtosis"] == pytest.approx(-0.8192, abs=0.02)


def test_heavy_tail_sample_moments():
    spec = LatentSpec(shape="heavy_tail", shape_params={"nu": 5.0})
    mom = sample_latent(spec, BIG_N, rng=stream(12, "latent")).sample_moments
    assert abs(mom["var"] - 1.0) < 0.02
    # Fourth-moment convergence is slow for t(5); wide tolerance on purpose.
    assert mom["excess_kurtosis"] == pytest.approx(6.0, abs=1.0)


@pytest.mark.parametrize(
    "spec",
    [
        LatentSpec(),
        LatentSpec(shape="bimodal", shape_params={"delta": 0.8}),
        LatentSpec(shape="skew_pos", shape_params={"k": 4.0}),
        LatentSpec(shape="heavy_tail", shape_params={"nu": 5.0}),
    ],
)
@pytest.mark.parametrize("mu,sigma", [(0.0, 1.0), (-1.3, 2.5)])
def test_location_scale_invariants(spec, mu, sigma):
    from dataclasses import replace

    shifted = replace(spec, mu=mu, sigma=sigma)
    sample = sample_latent(shifted, BIG_N, rng=stream(10, "latent"))
    assert abs(sample.sample_moments["mean"] - mu) < 0.01 * max(1.0, sigma)
    assert abs(sample.sample_moments["var"] - sigma**2) < 0.02 * sigma**2
    # Equivariance: same seed, standardized spec, then shift by hand.
    base = sample_latent(replace(spec, mu=0.0, sigma=1.0), BIG_N, rng=stream(10, "latent"))
    np.testing.assert_array_equal(sample.theta, mu + sigma * base.z)
    np.testing.assert_array_equal(sample.theta, shifted.mu + shifted.sigma * sample.z)


def test_seed_determinism():
    spec = LatentSpec(shape="skew_pos", shape_params={"k": 4.0})
    a = sample_latent(spec, 10_000, rng=stream(77, "latent")).theta
    b = sample_latent(spec, 10_000, rng=stream(77, "latent")).theta
    np.testing.assert_array_equal(a, b)
    c = sample_latent(spec, 10_000, rng=stream(78, "latent")).theta
    assert not np.array_equal(a, c)


_COMPONENT = {"weight": 1, "mean": 0, "sd": 1}


@pytest.mark.parametrize(
    "shape,params,field",
    [
        ("bimodal", {"delta": 1.5}, "delta"),
        ("bimodal", {}, "delta"),
        ("skew_pos", {"k": -1.0}, "k"),
        ("heavy_tail", {"nu": 1.5}, "nu"),
        ("mixture", {"components": []}, "components"),
        ("normal", {"delta": 0.8}, "delta"),
        ("mixture", {"components": 5}, "components must be a nonempty list"),
        ("mixture", {"components": [7]}, r"components\[0\] must be an object"),
        ("mixture", {"components": [{"weight": 1, "mean": 0}]}, r"components\[0\] must be an object"),
        ("mixture", {"components": [{**_COMPONENT, "skew": 1}]}, r"components\[0\] must be an object"),
        ("mixture", {"components": [_COMPONENT, {**_COMPONENT, "weight": "a"}]},
         r"components\[1\].weight must be a real number"),
        ("mixture", {"components": [{**_COMPONENT, "sd": True}]}, r"components\[0\].sd must be a real number"),
        ("mixture", {"components": [{**_COMPONENT, "mean": float("inf")}]}, r"components\[0\].mean must be finite"),
    ],
)
def test_invalid_shape_params_name_the_field(shape, params, field):
    with pytest.raises(ParameterError, match=field):
        LatentSpec(shape=shape, shape_params=params)


@pytest.mark.parametrize(
    "kwargs,field",
    [
        ({"mu": "1"}, "mu"),
        ({"sigma": True}, "sigma"),
        ({"shape": "heavy_tail", "shape_params": {"nu": "7"}}, "shape_params.nu"),
        ({"shape": "skew_pos", "shape_params": {"k": None}}, "shape_params.k"),
        ({"shape": "bimodal", "shape_params": {"delta": False}}, "shape_params.delta"),
    ],
)
def test_non_numbers_rejected(kwargs, field):
    with pytest.raises(ParameterError, match=f"{field} must be a real number"):
        LatentSpec(**kwargs)


@pytest.mark.parametrize(
    "block,field",
    [
        ({"shape": "normal", "sigma": True}, "sigma must be a real number"),
        ({"shape": "normal", "mu": "0.5"}, "mu must be a real number"),
        ({"shape": "normal", "sigma": "2"}, "sigma must be a real number"),
        ({"shape": "normal", "mu": None}, "mu must be a real number"),
        ({"shape": "normal", "shape_params": [1]}, "shape_params must be an object"),
    ],
    ids=["bool_sigma", "string_mu", "string_sigma", "null_mu", "list_params"],
)
def test_from_dict_checks_types_before_converting(block, field):
    with pytest.raises(ParameterError, match=field):
        LatentSpec.from_dict(block)


_NON_FINITE_PARAMS = [(shape, key, value) for shape, key in (("skew_pos", "k"), ("heavy_tail", "nu"))
                      for value in ("nan", "inf", "-inf")] + [("skew_pos", "k", "1e30")]


@pytest.mark.parametrize("shape,key,value", [(shape, key, float(value)) for shape, key, value in _NON_FINITE_PARAMS],
                         ids=["-".join(case) for case in _NON_FINITE_PARAMS])
def test_non_finite_shape_parameters_rejected(shape, key, value):
    # NaN fails no ordered comparison, so a bound alone would let it through
    # to draw all-NaN abilities. A skew_pos k past 2**52 is finite, but its
    # draw has lost the resolution a sample needs.
    message = f"shape_params.{key} must be finite"
    with pytest.raises(ParameterError, match=message):
        LatentSpec(shape=shape, shape_params={key: value})
    with pytest.raises(ParameterError, match=message):
        LatentSpec.from_dict({"shape": shape, "shape_params": {key: value}})


def test_from_dict_converts_integers_to_floats():
    spec = LatentSpec.from_dict({"shape": "normal", "mu": 0, "sigma": 2})
    assert (repr(spec.mu), repr(spec.sigma)) == ("0.0", "2.0")


def test_zero_draws_rejected():
    with pytest.raises(EmptyRequestError):
        sample_latent(LatentSpec(), 0, rng=stream(0, "latent"))


def test_sigma_must_be_positive():
    with pytest.raises(ParameterError, match="sigma"):
        LatentSpec(sigma=0.0)


def test_describe_shapes_normal_peak():
    table = describe_shapes([LatentSpec()], 10_000, seeds=[6])
    peak = float(np.max(table.densities["normal"]))
    assert peak == pytest.approx(stats.norm.pdf(0.0), abs=0.05)
    peak_at = float(table.theta[np.argmax(table.densities["normal"])])
    assert abs(peak_at) < 0.25


def test_describe_shapes_bimodal_modes():
    delta = 0.8
    # Oracle: locate the analytic mode of the mixture density numerically.
    res = optimize.minimize_scalar(
        lambda z: -bimodal_density(z, delta), bounds=(0.0, 2.0), method="bounded"
    )
    mode = float(res.x)
    table = describe_shapes([LatentSpec(shape="bimodal", shape_params={"delta": delta})], 100_000, seeds=[8])
    dens = table.densities["bimodal"]
    interior = np.flatnonzero((dens[1:-1] > dens[:-2]) & (dens[1:-1] > dens[2:])) + 1
    maxima = table.theta[interior[dens[interior] > 0.2 * dens.max()]]
    assert maxima.size == 2
    assert maxima[0] == pytest.approx(-mode, abs=0.2)
    assert maxima[1] == pytest.approx(mode, abs=0.2)
    assert maxima[0] + maxima[1] == pytest.approx(0.0, abs=0.15)


def test_describe_shapes_empty_list():
    table = describe_shapes([], 1000, seeds=[])
    assert table.theta.size == 0
    assert table.densities == {}


def test_describe_shapes_duplicate_labels():
    table = describe_shapes([LatentSpec(), LatentSpec()], 500, seeds=[1, 2])
    assert set(table.densities) == {"normal", "normal_2"}


def test_density_table_csv_roundtrip(tmp_path):
    table = describe_shapes([LatentSpec()], 500, seeds=[6])
    path = tmp_path / "dens.csv"
    table.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "theta,normal"


@st.composite
def samples(draw):
    """1-D samples from one value up: ties on a scaled integer lattice, free floats, or one value repeated."""
    n = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["lattice", "floats", "constant"]))
    if kind == "lattice":
        ints = draw(arrays(np.int64, n, elements=st.integers(-20, 20)))
        scale = draw(st.sampled_from([2.0**-300, 2.0**-266, 2.0**-30, 1e-3, 0.37, 25.0, 2.0**300]))
        return ints * scale + draw(st.sampled_from([0.0, 1.0, -3.5]))
    if kind == "floats":
        return draw(arrays(np.float64, n, elements=st.floats(-10, 10)))
    return np.full(n, draw(st.floats(-10, 10)))


def _scipy(f, *args):
    with warnings.catch_warnings():  # scipy warns of cancellation on nearly equal values
        warnings.simplefilter("ignore", RuntimeWarning)
        return f(*args)


@settings(deadline=None)
@given(x=samples())
@example(x=np.array([-20.0, 3.0, 7.0, 7.0]) * 2.0**-300)
@example(x=np.array([-20.0, 3.0, 7.0, 7.0]) * 2.0**-266)
@example(x=np.array([-20.0, 3.0, 7.0, 7.0]) * 2.0**300)
@example(x=np.array([-20.0, 3.0, 7.0, 7.0]) * 2.0**-560)
@example(x=np.array([-20.0, 3.0, 7.0, 7.0]) * 2.0**560)
def test_sample_moments_equal_scipys(x):
    mom = sample_moments(x)
    got = [mom["skew"], mom["excess_kurtosis"]]
    if x.min() == x.max():
        # scipy's floor alone misses equal values whose mean rounds 2 or more
        # ulps off them; scipy then reports skewness +-1 and excess kurtosis -2.
        assert np.isnan(got).all()
    else:
        expected = np.array([_scipy(stats.skew, x), _scipy(stats.kurtosis, x)])
        mean = np.mean(x)
        with np.errstate(over="ignore"):  # past about 1e154 (the examples at 2^560) m2 overflows
            m2 = np.mean((x - mean) ** 2)
        if not _constant(x):
            # Past scales of about 1e-77 and 1e77 (the lattice at 2^-300, 2^-266
            # and 2^300, and the examples at 2^-560 and 2^560) a denominator
            # m2^1.5 or m2^2 is not a normal float, and scipy's ratio has lost
            # its bits or is not finite. It is then scipy's on the sample
            # rescaled exactly by the power of two that puts its largest
            # deviation in [0.5, 1).
            unit = np.ldexp(x, -np.frexp(np.max(np.abs(x - mean)))[1])
            with np.errstate(over="ignore"):
                normal = [np.finfo(float).tiny <= m2**p < np.inf for p in (1.5, 2)]
            expected = np.where(np.isfinite(expected) & normal, expected,
                                [_scipy(stats.skew, unit), _scipy(stats.kurtosis, unit)])
            assert np.isfinite(got).all()
        np.testing.assert_array_equal(got, expected)


@settings(deadline=None)
@given(x=samples())
@example(x=np.array([-14.0, -8.0, 16.0]) * 2.0**-300)
def test_gaussian_kde_is_scipys_up_to_rounding(x):
    assume(not _constant(x) and np.std(x) > 1e-100)
    h = np.std(x, ddof=1) * x.size**-0.2
    grid = np.linspace(x.min() - 40 * h, x.max() + 40 * h, 41)
    got = _gaussian_kde(x, grid)
    expected = _scipy(lambda: stats.gaussian_kde(x)(grid))
    # A term's exponent u^2/2, u = (g - x_i)/h, is a difference of g/h and
    # x_i/h, values up to R = max|g|/h, and its h may differ from scipy's in
    # the last bit. Where exp(-u^2/2) is a normal float (u < 37.6) that puts
    # the relative error near eps * (77*R + 1500), under 150 * eps * (R + 40);
    # the largest over 12,000 samples was 143 * eps * (R + 40). The grid also
    # reaches terms whose exp is subnormal (u in [37.6, 38.6)) or 0, rounded
    # absolutely by up to 2^-1074. scipy multiplies each such term by
    # 1/(h*sqrt(2*pi)) and divides it by n, so its density can be off by up
    # to 2^-1074/(h*sqrt(2*pi)) in all: at x = [-14, -8, 16] * 2^-300 one
    # term, exp(-719.77) = 2.6e-313, is 5.2e10 subnormal steps, and one step
    # is 1.9e-11 of the density 5.5e-225 it feeds. The package's own
    # subnormal terms round by up to 2^-1074 each as densities (see
    # test_gaussian_kde_keeps_its_precision_at_tiny_bandwidths).
    rtol = 512 * np.finfo(float).eps * (np.max(np.abs(grid)) / h + 40)
    atol = rtol * np.finfo(float).tiny + 2.0**-1074 * (x.size + 2 / (h * np.sqrt(2 * np.pi)))
    np.testing.assert_allclose(got, expected, rtol=rtol, atol=atol)


# The density in long double, whose exponent range leaves no term subnormal:
# at bandwidths below about 1/n the package keeps the relative precision of
# its normal terms on every density a float64 can hold, where scipy's
# rounds subnormal terms and loses the ones below 2^-1075.
@settings(deadline=None)
@given(x=samples())
@example(x=np.array([-14.0, -8.0, 16.0]) * 2.0**-300)
def test_gaussian_kde_keeps_its_precision_at_tiny_bandwidths(x):
    assume(not _constant(x) and np.std(x) > 1e-280)
    h = np.std(x, ddof=1) * x.size**-0.2
    grid = np.linspace(x.min() - 40 * h, x.max() + 40 * h, 41)
    got = _gaussian_kde(x, grid)
    u = (grid[:, None].astype(np.longdouble) - x) / np.longdouble(h)
    exact = np.exp(-u * u / 2).sum(axis=1) / (x.size * np.longdouble(h) * np.sqrt(2 * np.pi, dtype=np.longdouble))
    normal = (exact >= np.finfo(float).tiny) & (exact <= np.finfo(float).max)
    rtol = 512 * np.finfo(float).eps * (np.max(np.abs(grid)) / h + 40)
    np.testing.assert_allclose(got[normal], exact[normal].astype(float), rtol=rtol, atol=0)


# theta = sigma * z: at sigma = 1e200 the squared deviations overflow and at
# 1e-170 they underflow, yet the sample's shape and its density are sigma = 1's.
@pytest.mark.parametrize("sigma", [1e200, 1e-170])
def test_describe_shapes_does_not_depend_on_the_scale(sigma):
    specs = [LatentSpec(shape="skew_pos", shape_params={"k": 4.0}, sigma=s) for s in (1.0, sigma)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        unit, scaled = (describe_shapes([spec], 1000, seeds=[3]) for spec in specs)
    for key in ("skew", "excess_kurtosis"):
        assert scaled.moments["skew_pos"][key] == pytest.approx(unit.moments["skew_pos"][key], rel=1e-12)
    assert scaled.moments["skew_pos"]["var"] == (np.inf if sigma > 1 else 0.0)
    np.testing.assert_allclose(scaled.theta / sigma, unit.theta, rtol=1e-12)
    np.testing.assert_allclose(scaled.densities["skew_pos"] * sigma, unit.densities["skew_pos"], rtol=1e-9)


_CONSTANT_MIXTURE = LatentSpec(shape="mixture", shape_params={"components": [
    {"weight": 1, "mean": 0, "sd": 0}, {"weight": 1e-12, "mean": 1, "sd": 0}]})


@pytest.mark.parametrize("n", [128, 256, 1024])
def test_constant_sample_has_nan_moments_and_no_density(n):
    # Every draw comes from the sd-0 component; m2 = 4.5e-44 lies below (eps*mean)^2 = 4.9e-44.
    theta = sample_latent(_CONSTANT_MIXTURE, n, rng=stream(0, "latent")).theta
    assert np.unique(theta).size == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mom = sample_moments(theta)
    assert np.isnan(mom["skew"]) and np.isnan(mom["excess_kurtosis"])
    spread = LatentSpec(shape="mixture", shape_params={"components": [{"weight": 1, "mean": 0, "sd": 1}]})
    with pytest.raises(DegenerateInputError, match="'mixture_2'"):
        describe_shapes([spread, _CONSTANT_MIXTURE], n, seeds=[0, 0])
