import hashlib
import json
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import special, stats

from irtcalib import (
    ConfigurationError,
    DegenerateInputError,
    DiscriminationSpec,
    IngestionError,
    InsufficientDataError,
    ItemPool,
    ParameterError,
    PoolConfig,
    build_pool,
    bundled_pool_path,
    conditional_discriminations,
    copula_discriminations,
    gen_difficulties,
    independent_discriminations,
    load_pool_csv,
    save_pool_csv,
)
from irtcalib.items import (
    _average_ranks,
    _rank_quantiles,
    draw_pools,
    make_synthetic_pool,
)
from irtcalib.rng import stream


def test_parametric_difficulties_standard_normal():
    beta = gen_difficulties("parametric", 100_000, rng=stream(1, "difficulties"))
    assert np.std(beta, ddof=1) == pytest.approx(1.0, abs=0.01)
    assert np.mean(beta) == pytest.approx(0.0, abs=0.01)


def test_single_difficulty_draw():
    assert gen_difficulties("parametric", 1, rng=stream(2, "difficulties")).shape == (1,)


def test_bundled_pool_sd_and_bimodality():
    beta = gen_difficulties("empirical_pool", 100_000, rng=stream(3, "difficulties"))
    assert np.std(beta, ddof=1) == pytest.approx(1.6, abs=0.05)
    kde = stats.gaussian_kde(beta[:20_000])
    grid = np.linspace(-5, 4, 400)
    dens = kde(grid)
    interior = np.flatnonzero((dens[1:-1] > dens[:-2]) & (dens[1:-1] > dens[2:])) + 1
    modes = grid[interior[dens[interior] > 0.2 * dens.max()]]
    assert modes.size == 2
    assert -2.5 < modes[0] < -1.3
    assert 0.5 < modes[1] < 1.5


def test_bundled_pool_file_matches_generator():
    beta, lam = load_pool_csv(bundled_pool_path())
    assert lam is None
    np.testing.assert_array_equal(beta, make_synthetic_pool())


def test_missing_pool_file():
    with pytest.raises(IngestionError, match="no/such/pool.csv"):
        gen_difficulties("empirical_pool", 10, rng=stream(0, "difficulties"), pool_path="no/such/pool.csv")


def test_malformed_pool_row_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("beta\n0.1\nnot-a-number\n")
    with pytest.raises(IngestionError, match="row 3"):
        load_pool_csv(path)


def test_pool_csv_roundtrip_lossless(tmp_path):
    pool = build_pool(PoolConfig(model="twopl", source="parametric", n_items=37), 9)
    path = tmp_path / "pool.csv"
    save_pool_csv(pool, path)
    beta, lam = load_pool_csv(path)
    np.testing.assert_array_equal(beta, pool.beta)
    np.testing.assert_array_equal(lam, pool.lambda0)


@settings(deadline=None)
@given(items=st.integers(1, 40).flatmap(lambda n: st.tuples(
    arrays(np.float64, n, elements=st.floats(allow_nan=False, allow_infinity=False)),
    arrays(np.float64, n, elements=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
)))
def test_pool_csv_roundtrip_is_bit_exact(items):
    pool = ItemPool(model="twopl", beta=items[0], lambda0=items[1])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pool.csv"
        save_pool_csv(pool, path)
        beta, lam = load_pool_csv(path)
    assert (beta.tobytes(), lam.tobytes()) == (pool.beta.tobytes(), pool.lambda0.tobytes())


# The copula's rank-uniform transform u = rank/(n+1), from the average ranks.
def test_rank_uniform_three_points():
    np.testing.assert_allclose(_average_ranks(np.array([0.3, -1.0, 2.0])) / 4, [0.5, 0.25, 0.75])


def test_rank_uniform_ties_use_average_ranks():
    np.testing.assert_allclose(_average_ranks(np.array([1.0, 1.0, 0.0])) / 4, [0.625, 0.625, 0.25])


def test_copula_needs_two_items():
    with pytest.raises(InsufficientDataError):
        copula_discriminations(np.array([0.0]), DiscriminationSpec(), rng=stream(0, "discriminations"))


def test_copula_hits_target_spearman():
    betas = gen_difficulties("parametric", 1000, rng=stream(4, "difficulties"))
    lam = copula_discriminations(betas, DiscriminationSpec(rho=-0.3), rng=stream(5, "discriminations"))
    r = stats.spearmanr(betas, np.log(lam)).statistic
    assert r == pytest.approx(-0.3, abs=0.06)


def test_copula_zero_rho_uncorrelated():
    betas = gen_difficulties("parametric", 1000, rng=stream(6, "difficulties"))
    lam = copula_discriminations(betas, DiscriminationSpec(rho=0.0), rng=stream(7, "discriminations"))
    assert abs(stats.spearmanr(betas, np.log(lam)).statistic) < 0.07


def test_copula_comonotone_at_rho_one():
    betas = gen_difficulties("parametric", 200, rng=stream(8, "difficulties"))
    lam = copula_discriminations(betas, DiscriminationSpec(rho=1.0), rng=stream(9, "discriminations"))
    assert stats.spearmanr(betas, np.log(lam)).statistic == pytest.approx(1.0)


def test_copula_preserves_difficulty_marginal_and_lognormal_margin():
    betas = gen_difficulties("empirical_pool", 2000, rng=stream(10, "difficulties"))
    spec = DiscriminationSpec(mu_log=0.0, sigma_log=0.3, rho=-0.3)
    lam = copula_discriminations(betas, spec, rng=stream(11, "discriminations"))
    # The difficulty vector is untouched by construction; the pool assembly
    # must carry it through verbatim.
    pool = build_pool(
        PoolConfig(model="twopl", source="custom", n_items=2000, betas=betas), 11
    )
    assert sorted(pool.beta.tolist()) == sorted(betas.tolist())
    ks = stats.kstest(np.log(lam), stats.norm(0.0, 0.3).cdf).statistic
    assert ks < 0.05


def test_rank_quantiles_are_scipys_on_every_rank_lattice():
    for n in range(2, 501):
        expected = special.ndtri(np.arange(2, 2 * n + 1) / 2 / (n + 1))  # every rank/(n+1), ties included
        quantiles = _rank_quantiles(n)
        assert quantiles.shape == expected.shape and not quantiles.flags.writeable
        assert np.all(np.abs(quantiles - expected) <= 8 * np.spacing(np.abs(expected))), n


def _scipy_copula(betas, spec, rng):
    """The reference: the three-step copula computed with ``scipy.stats`` and ``scipy.special``."""
    u = stats.rankdata(betas, method="average", axis=-1) / (betas.shape[-1] + 1)
    z_lam = spec.rho * special.ndtri(u) + np.sqrt(1.0 - spec.rho**2) * rng.standard_normal(betas.shape)
    return np.exp(spec.mu_log + spec.sigma_log * z_lam)


@pytest.mark.parametrize("kind", ["drawn", "tied", "nan"])
def test_copula_batch_equals_the_scipy_construction(kind):
    betas = gen_difficulties("parametric", 60, rng=stream(31, "difficulties"), n_pools=300)
    spec = DiscriminationSpec(mu_log=0.1, sigma_log=0.4, rho=-0.5)
    if kind == "tied":
        betas = np.round(betas, 1)
    elif kind == "nan":
        betas[7, 13] = np.nan
        with pytest.raises(ParameterError, match="item parameters must be finite"):
            copula_discriminations(betas, spec, rng=stream(32, "discriminations"))
        return
    lam = copula_discriminations(betas, spec, rng=stream(32, "discriminations"))
    np.testing.assert_allclose(lam, _scipy_copula(betas, spec, stream(32, "discriminations")),
                               rtol=1e-13, atol=0)


def test_copula_tail_normals_give_finite_lognormal_discriminations():
    # Normals far past z = 8.29, from where the standard normal CDF rounds to 1.
    rng = SimpleNamespace(standard_normal=lambda shape: np.full(shape, 12.0))
    spec = DiscriminationSpec(mu_log=0.1, sigma_log=0.4, rho=0.0)
    lam = copula_discriminations(np.array([0.3, -1.0, 2.0]), spec, rng=rng)
    np.testing.assert_array_equal(lam, np.full(3, np.exp(0.1 + 0.4 * 12.0)))


def test_conditional_hits_target_spearman():
    betas = gen_difficulties("parametric", 1000, rng=stream(12, "difficulties"))
    lam = conditional_discriminations(betas, DiscriminationSpec(rho=-0.3), rng=stream(13, "discriminations"))
    assert stats.spearmanr(betas, np.log(lam)).statistic == pytest.approx(-0.29, abs=0.06)


def test_conditional_zero_rho_equals_independent():
    betas = gen_difficulties("parametric", 500, rng=stream(14, "difficulties"))
    lam_c = conditional_discriminations(betas, DiscriminationSpec(rho=0.0), rng=stream(15, "x"))
    lam_i = independent_discriminations(500, DiscriminationSpec(rho=0.0), rng=stream(15, "x"))
    np.testing.assert_array_equal(lam_c, lam_i)


def test_conditional_rejects_constant_difficulties():
    with pytest.raises(DegenerateInputError):
        conditional_discriminations(np.zeros(10), DiscriminationSpec(), rng=stream(0, "discriminations"))


@pytest.mark.parametrize("method", ["copula", "conditional"])
@pytest.mark.parametrize("n,seed", [(200, 21), (1000, 22), (5000, 23)])
def test_rank_correlation_targeting_tolerance(method, n, seed):
    cfg = PoolConfig(model="twopl", source="parametric", n_items=n, gen_method=method)
    pool = build_pool(cfg, seed)
    assert abs(pool.achieved_spearman - (-0.3)) < 3.0 / np.sqrt(n) + 0.02


def test_independent_method_near_zero_correlation():
    pool = build_pool(
        PoolConfig(model="twopl", source="parametric", n_items=2000, gen_method="independent"), 24
    )
    assert abs(pool.achieved_spearman) < 3.0 / np.sqrt(2000)


def test_build_rasch_pool_fixes_lambda():
    pool = build_pool(PoolConfig(model="rasch", source="parametric", n_items=30), 16)
    assert pool.n_items == 30
    assert np.all(pool.lambda0 == 1.0)
    assert pool.achieved_spearman is None


def test_rasch_with_copula_is_a_configuration_error():
    with pytest.raises(ConfigurationError):
        PoolConfig(model="rasch", source="parametric", n_items=30, gen_method="copula")


@pytest.mark.parametrize("source,extra", [
    ("empirical_pool", {}),
    ("custom", {"betas": [0.0, 1.0], "n_items": 2}),
], ids=["empirical_pool", "custom"])
@pytest.mark.parametrize("mu,sigma", [(2.0, 1.0), (0.0, 9.0)])
def test_difficulty_moments_rejected_for_non_parametric_sources(source, extra, mu, sigma):
    # Only the parametric source draws from Normal(mu, sigma); the others would ignore them.
    kwargs = {"n_items": 5, **extra}
    with pytest.raises(ConfigurationError, match="parametric"):
        PoolConfig(source=source, difficulty_mu=mu, difficulty_sigma=sigma, **kwargs)
    PoolConfig(source=source, **kwargs)  # the defaults stay valid


@pytest.mark.parametrize("field,value", [
    ("difficulty_mu", float("nan")),
    ("difficulty_mu", float("inf")),
    ("difficulty_sigma", 0.0),
    ("difficulty_sigma", -1.0),
    ("difficulty_sigma", float("inf")),
])
def test_difficulty_moments_must_be_finite_with_positive_sigma(field, value):
    with pytest.raises(ParameterError, match=field):
        PoolConfig(**{field: value})


def test_twopl_parametric_mean_lambda():
    pool = build_pool(PoolConfig(model="twopl", source="parametric", n_items=1000), 17)
    # log-normal mean is exp(sigma_log^2 / 2) = exp(0.045) ~ 1.046
    assert np.mean(pool.lambda0) == pytest.approx(np.exp(0.045), abs=0.05)
    assert pool.target_spearman == -0.3


def test_twopl_empirical_pool_beta_spread():
    pool = build_pool(PoolConfig(model="twopl", source="empirical_pool", n_items=1000), 18)
    # Resampled from the bundled pool, whose overall SD is matched to 1.6.
    assert np.std(pool.beta, ddof=1) == pytest.approx(1.6, abs=0.1)


def test_build_pool_deterministic():
    cfg = PoolConfig(model="twopl", source="empirical_pool", n_items=50)
    a, b = build_pool(cfg, 19), build_pool(cfg, 19)
    np.testing.assert_array_equal(a.beta, b.beta)
    np.testing.assert_array_equal(a.lambda0, b.lambda0)


def test_fixed_pool_is_passed_through_without_drawing():
    pool = build_pool(PoolConfig(model="twopl", n_items=8), 3)
    assert build_pool(pool, 99) is pool
    rng = stream(4, "pools")
    beta, lam = draw_pools(pool, 5, rng)
    assert rng.random() == stream(4, "pools").random()  # nothing was drawn
    assert beta.shape == lam.shape == (5, 8)
    assert not beta.flags.writeable and not lam.flags.writeable
    for row_beta, row_lam in zip(beta, lam):
        assert row_beta.tobytes() == pool.beta.tobytes()
        assert row_lam.tobytes() == pool.lambda0.tobytes()


def test_pool_invariants():
    with pytest.raises(ParameterError):
        ItemPool(model="rasch", beta=np.array([0.0]), lambda0=np.array([2.0]))
    with pytest.raises(ParameterError):
        ItemPool(model="twopl", beta=np.array([0.0]), lambda0=np.array([-1.0]))
    with pytest.raises(ParameterError):
        ItemPool(model="twopl", beta=np.empty(0), lambda0=np.empty(0))


def test_pool_dict_roundtrip():
    pool = build_pool(PoolConfig(model="twopl", source="parametric", n_items=12), 20)
    clone = ItemPool.from_dict(pool.to_dict())
    np.testing.assert_array_equal(clone.beta, pool.beta)
    np.testing.assert_array_equal(clone.lambda0, pool.lambda0)
    assert clone.achieved_spearman == pool.achieved_spearman


# Few distinct values, so ties are common; signed zeros tie with each other.
_TIE_VALUES = [-2.5, -1.0, -0.0, 0.0, 1e-300, 0.5, 3.0]
tied_samples = st.one_of(
    arrays(np.float64, st.integers(2, 200), elements=st.sampled_from(_TIE_VALUES)),
    st.builds(np.full, st.integers(2, 200), st.sampled_from(_TIE_VALUES)),
)


@settings(deadline=None)
@given(x=tied_samples)
def test_rank_uniform_bit_identical_to_scipy_rankdata(x):
    expected = stats.rankdata(x, method="average") / (x.size + 1)
    assert (_average_ranks(x) / (x.size + 1)).tobytes() == expected.tobytes()


@st.composite
def tied_batches(draw):
    """2-D samples whose rows have ties or are constant."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 40))
    x = draw(arrays(np.float64, (rows, cols), elements=st.sampled_from(_TIE_VALUES)))
    for row in x:
        if draw(st.booleans()):
            row[:] = row[0]
    return x


@settings(deadline=None)
@given(x=tied_batches())
def test_row_wise_ranks_match_one_dimensional_ranks_and_scipy(x):
    ranks = _average_ranks(x)
    for row, row_ranks in zip(x, ranks):
        np.testing.assert_array_equal(row_ranks, _average_ranks(row))
    np.testing.assert_array_equal(ranks, stats.rankdata(x, method="average", axis=1))


@settings(deadline=None)
@given(
    betas=tied_samples,
    method=st.sampled_from(["copula", "conditional", "independent"]),
    sigma_log=st.sampled_from([0.0, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_achieved_spearman_bit_identical_to_scipy(betas, method, sigma_log, seed):
    cfg = PoolConfig(model="twopl", source="custom", n_items=betas.size, betas=betas,
                     gen_method=method, discrimination=DiscriminationSpec(sigma_log=sigma_log))
    try:
        pool = build_pool(cfg, seed)
    except DegenerateInputError:
        assert method == "conditional" and betas.std(ddof=1) == 0
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", stats.ConstantInputWarning)
        expected = stats.spearmanr(pool.beta, np.log(pool.lambda0)).statistic
    if np.isnan(expected):
        assert np.isnan(pool.achieved_spearman)
    else:
        assert pool.achieved_spearman == expected


def test_constant_difficulties_give_nan_spearman_without_warning():
    cfg = PoolConfig(model="twopl", source="custom", n_items=5, betas=[0.7] * 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pool = build_pool(cfg, 21)
    assert np.isnan(pool.achieved_spearman)
    assert np.isnan(ItemPool.from_dict(pool.to_dict()).achieved_spearman)


# Every legal (model, gen_method) pair; "fixed" 2PL pools carry explicit lambdas.
_MODEL_METHODS = [("rasch", "fixed"), ("twopl", "copula"), ("twopl", "conditional"),
                  ("twopl", "independent"), ("twopl", "fixed")]


@settings(deadline=None)
@given(
    model_method=st.sampled_from(_MODEL_METHODS),
    source=st.sampled_from(["parametric", "empirical_pool", "custom"]),
    n_items=st.integers(1, 40),
    constant=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_built_pool_roundtrips_through_json(model_method, source, n_items, constant, seed):
    model, method = model_method
    draws = np.random.default_rng(seed)
    betas = np.full(n_items, 0.7) if constant else draws.normal(size=n_items)
    lambdas = draws.lognormal(0.0, 0.3, n_items) if (model, method) == ("twopl", "fixed") else None
    cfg = PoolConfig(model=model, source=source, n_items=n_items, gen_method=method,
                     betas=betas if source == "custom" else None, lambdas=lambdas)
    try:
        pool = build_pool(cfg, seed)
    except (InsufficientDataError, DegenerateInputError):
        reject()
    doc = pool.to_dict()
    clone = ItemPool.from_dict(json.loads(json.dumps(doc))).to_dict()
    # json.dumps compares floats by repr, so NaN matches NaN and -0.0 differs from 0.0.
    assert json.dumps(clone) == json.dumps(doc)


# sha256 of json.dumps(build_pool(config, seed).to_dict()) for every case below,
# recorded before build_pool became the one-row case of draw_pools: a single
# pool must keep its bits.
_POOL_DIGESTS_PATH = Path(__file__).parent / "data" / "build_pool_sha256.json"


def pool_digest_configs():
    """``(key, PoolConfig, seed)`` over model x source x legal gen_method x n_items x seed."""
    for model, method in _MODEL_METHODS:
        for source in ("parametric", "empirical_pool", "custom"):
            for n_items in (2, 3, 30):
                for seed in (0, 11, 2**63 + 5):
                    betas = [(-1) ** i * (i % 4) * 0.5 for i in range(n_items)]  # ties from 4 items on
                    lambdas = [1.0 + 0.1 * (i % 3) for i in range(n_items)]
                    yield f"{model}/{source}/{method}/{n_items}/{seed}", PoolConfig(
                        model=model, source=source, n_items=n_items, gen_method=method,
                        betas=betas if source == "custom" else None,
                        lambdas=lambdas if (model, method) == ("twopl", "fixed") else None), seed


def pool_digest(config: PoolConfig, seed: int) -> str:
    return hashlib.sha256(json.dumps(build_pool(config, seed).to_dict()).encode("utf-8")).hexdigest()


def test_build_pool_keeps_its_bytes():
    expected = json.loads(_POOL_DIGESTS_PATH.read_text())
    actual = {key: pool_digest(config, seed) for key, config, seed in pool_digest_configs()}
    assert len(actual) == 135
    assert {k for k in actual if actual[k] != expected.get(k)} == set()
