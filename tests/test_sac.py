import json
import re
import tracemalloc
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irtcalib import (
    ConfigurationError,
    DivergedObjectiveError,
    EmptyRequestError,
    EqcConfig,
    LatentSpec,
    ParameterError,
    PoolConfig,
    SacConfig,
    SacResult,
    ScaleInterval,
    eqc_calibrate,
    sac_calibrate,
    sac_deviation_study,
    step_size,
)
from irtcalib import psychometrics, sac
from irtcalib.items import ItemPool, build_pool, draw_pools
from irtcalib.latent import sample_latent
from irtcalib.psychometrics import reliability_summary
from irtcalib.rng import child_seed, stream

from conftest import make_rasch_pool

BASE = SacConfig(
    target_rho=0.6,
    latent=LatentSpec(),
    items=PoolConfig(model="rasch", source="parametric", n_items=30),
    n_iter=200,
    burn_in=100,
    m_per_iter=400,
    interval=ScaleInterval(0.1, 10.0),
    c_init=1.0,
    seed=1,
)


# --- step sizes ---------------------------------------------------------------


def test_step_size_harmonic_schedule():
    cfg = replace(BASE, step_a=1.0, step_A=0.0, step_gamma=1.0)
    assert step_size(2, cfg) == pytest.approx(0.5)


def test_step_size_default_schedule_first_step():
    cfg = replace(BASE, step_a=1.0, step_A=50.0, step_gamma=0.67)
    assert step_size(1, cfg) == pytest.approx(1.0 / 51.0**0.67)
    assert step_size(1, cfg) == pytest.approx(0.0718, abs=2e-4)


def test_step_size_strictly_decreasing():
    steps = np.array([step_size(n, BASE) for n in range(1, 500)])
    assert np.all(np.diff(steps) < 0)


def test_step_size_robbins_monro_conditions():
    # Divergent first sum: partial sums keep growing past any fixed bound
    # because the integral of (t+A)^-gamma grows like t^(1-gamma).
    a, A, gamma = BASE.step_a, BASE.step_A, BASE.step_gamma
    n = np.arange(1, 2_000_001)
    steps = a / (n + A) ** gamma
    partial = np.cumsum(steps)
    lower = a * ((n + 1 + A) ** (1 - gamma) - (1 + A) ** (1 - gamma)) / (1 - gamma)
    assert np.all(partial >= lower)
    assert lower[-1] > 300  # the lower bound itself is unbounded in n
    # Convergent squared sum: bounded above by the integral bound.
    sq_bound = a**2 * ((1 + A) ** (1 - 2 * gamma) / (2 * gamma - 1) + (1 + A) ** (-2 * gamma))
    assert np.all(np.cumsum(steps**2) <= sq_bound)


# --- core update loop ---------------------------------------------------------


def test_noise_free_fixed_point():
    # Exact measurements at the exact root: no update ever moves the iterate.
    target = 0.6
    chain = sac._Chain(replace(BASE, target_rho=target, c_init=0.9))
    for n in range(1, BASE.n_iter + 1):
        chain.update(n, target)
    assert np.all(chain.trace_c == 0.9)
    assert chain.clamps == 0


def test_projection_invariant_and_boundary_chatter():
    cfg = replace(
        BASE,
        target_rho=0.9,
        items=PoolConfig(model="rasch", source="parametric", n_items=5),
        interval=ScaleInterval(0.3, 1.5),
        c_init=1.0,
        n_iter=300,
        burn_in=150,
    )
    result = sac_calibrate(cfg)
    assert np.min(result.trace_c) >= 0.3
    assert np.max(result.trace_c) <= 1.5
    assert result.status == "hit_boundary_often"
    assert result.clamp_fraction > 0.10


def test_polyak_ruppert_average_recomputable():
    result = sac_calibrate(BASE)
    assert result.c_star == np.mean(result.trace_c[BASE.burn_in:])
    assert result.status == "ok"
    # Changing the burn-in changes the average exactly as the suffix mean of
    # the same trace (the iterate path itself does not depend on burn-in).
    for b in (0, 50, 150):
        shifted = sac_calibrate(replace(BASE, burn_in=b))
        np.testing.assert_array_equal(shifted.trace_c, result.trace_c)
        assert shifted.c_star == np.mean(result.trace_c[b:])


def test_determinism():
    a = sac_calibrate(BASE)
    b = sac_calibrate(BASE)
    assert a.c_star == b.c_star
    np.testing.assert_array_equal(a.trace_c, b.trace_c)


def test_warm_start_agreement_with_eqc():
    latent = LatentSpec(shape="bimodal", shape_params={"delta": 0.8})
    items = PoolConfig(model="rasch", source="empirical_pool", n_items=30)
    interval = ScaleInterval(0.1, 10.0)
    eqc_result = eqc_calibrate(
        EqcConfig(target_rho=0.75, latent=latent, items=items, m_quadrature=20_000,
                  interval=interval, seed=5)
    )
    sac_result = sac_calibrate(
        SacConfig(target_rho=0.75, latent=latent, items=items, n_iter=1000, burn_in=500,
                  m_per_iter=2000, interval=interval, c_init=eqc_result, seed=6)
    )
    assert abs(sac_result.c_star - eqc_result.c_star) / eqc_result.c_star < 0.05


def test_msem_requires_larger_scale_paired_seeds():
    latent = LatentSpec(shape="heavy_tail", shape_params={"nu": 5.0})
    items = PoolConfig(model="twopl", source="empirical_pool", n_items=30)
    wins = 0
    for i in range(10):
        seed = child_seed(77, "pair", i)
        common = dict(target_rho=0.6, latent=latent, items=items, n_iter=200, burn_in=100,
                      m_per_iter=400, interval=ScaleInterval(0.1, 10.0), c_init=1.0, seed=seed)
        info = sac_calibrate(SacConfig(metric="avg_info", **common))
        msem = sac_calibrate(SacConfig(metric="msem", **common))
        wins += msem.c_star >= info.c_star
    assert wins >= 9


def test_warm_start_shortens_transient():
    latent = LatentSpec()
    items = PoolConfig(model="rasch", source="parametric", n_items=30)
    interval = ScaleInterval(0.1, 10.0)
    eqc_result = eqc_calibrate(
        EqcConfig(target_rho=0.6, latent=latent, items=items, m_quadrature=5000,
                  interval=interval, seed=8)
    )
    diffs = []
    for i in range(20):
        seed = child_seed(88, "warm", i)
        common = dict(target_rho=0.6, latent=latent, items=items, n_iter=120, burn_in=60,
                      m_per_iter=300, interval=interval, seed=seed)
        warm = sac_calibrate(SacConfig(c_init=eqc_result, **common))
        cold = sac_calibrate(SacConfig(c_init=None, **common))
        warm_dev = np.mean(np.abs(warm.trace_c[:60] - warm.c_star))
        cold_dev = np.mean(np.abs(cold.trace_c[:60] - cold.c_star))
        diffs.append(cold_dev - warm_dev)
    assert np.mean(diffs) > 0


def test_edge_targets_have_larger_dispersion():
    # Same target, matched seeds: the short test sits at the edge of its
    # feasible range, the long test comfortably inside it.
    def sd_for(n_items: int) -> float:
        cfg = SacConfig(
            target_rho=0.6,
            latent=LatentSpec(),
            items=PoolConfig(model="rasch", source="parametric", n_items=n_items),
            n_iter=200,
            burn_in=100,
            m_per_iter=400,
            interval=ScaleInterval(0.1, 10.0),
            c_init=1.0,
            seed=99,
        )
        return sac_deviation_study(cfg, 12)["sd_delta"]

    assert sd_for(15) > sd_for(60)


def test_msem_divergence_is_reported_with_iteration():
    pool = make_rasch_pool([100.0] * 5)
    cfg = SacConfig(
        target_rho=0.5,
        latent=LatentSpec(sigma=0.2),
        items=pool,
        metric="msem",
        n_iter=10,
        burn_in=5,
        m_per_iter=50,
        interval=ScaleInterval(10.0, 20.0),
        c_init=15.0,
        seed=3,
    )
    with pytest.raises(DivergedObjectiveError, match="iteration 1"):
        sac_calibrate(cfg)


# --- deviation study ----------------------------------------------------------


def test_deviation_study_needs_two_seeds():
    with pytest.raises(ParameterError):
        sac_deviation_study(BASE, 1)


def test_deviation_study_smoke():
    cfg = replace(BASE, n_iter=60, burn_in=30, m_per_iter=200)
    out = sac_deviation_study(cfg, 5)
    assert set(out) == {
        "n_seeds", "mean_delta", "sd_delta", "mae",
        "pct_within_001", "pct_within_002", "pct_within_005",
    }
    assert out["mae"] >= abs(out["mean_delta"]) - 1e-12
    assert 0 <= out["pct_within_005"] <= 100


# --- config validation and serialization ---------------------------------------


def test_config_validation():
    with pytest.raises(ParameterError):
        replace(BASE, burn_in=200)  # burn_in must be < n_iter
    with pytest.raises(ParameterError):
        replace(BASE, step_gamma=0.4)
    with pytest.raises(ParameterError):
        replace(BASE, step_gamma=1.2)
    with pytest.raises(ConfigurationError):
        replace(BASE, c_init=50.0)  # outside the interval
    with pytest.raises(ParameterError):
        replace(BASE, metric="other")


def test_warm_start_reads_c_star_attribute():
    class Stub:
        c_star = 2.5

    cfg = replace(BASE, c_init=Stub())
    assert cfg.resolved_c_init() == 2.5


def test_result_roundtrip_and_trace_csv(tmp_path):
    cfg = replace(BASE, n_iter=40, burn_in=20, m_per_iter=100)
    result = sac_calibrate(cfg)
    doc = result.to_dict()
    clone = SacResult.from_dict(json.loads(json.dumps(doc)))
    assert clone.to_dict() == doc
    path = tmp_path / "trace.csv"
    result.save_trace_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,c_n,rho_hat_n"
    assert len(lines) == 41


def _small_twopl_run(**changes):
    return sac_calibrate(replace(BASE, items=PoolConfig(model="twopl", n_items=12), n_iter=30,
                                 burn_in=15, m_per_iter=100, **changes))


def test_twopl_result_roundtrip():
    doc = json.loads(json.dumps(_small_twopl_run().to_dict()))
    assert SacResult.from_dict(doc).to_dict() == doc


def test_schema_version_one_document_loads():
    doc = json.loads(json.dumps(_small_twopl_run().to_dict()))
    assert doc["schema_version"] == 8
    doc["schema_version"] = 1
    clone = SacResult.from_dict(doc)
    assert clone.c_star == doc["c_star"]
    assert clone.to_dict() == {**doc, "schema_version": 8}


@pytest.mark.parametrize("status", [[1], "success"])
def test_result_document_with_unknown_status_rejected(status):
    doc = _small_twopl_run().to_dict()
    with pytest.raises(ConfigurationError, match=re.escape(f"status {status!r}")):
        SacResult.from_dict({**doc, "status": status})


@pytest.mark.parametrize("version", [None, 0, 9, True, 3.0])
def test_unknown_schema_version_rejected(version):
    doc = _small_twopl_run().to_dict()
    if version is None:
        del doc["schema_version"]
    else:
        doc["schema_version"] = version
    with pytest.raises(ConfigurationError, match=f"schema_version {version!r}"):
        SacResult.from_dict(doc)


def test_frozen_pool_document_rejected():
    doc = _small_twopl_run().to_dict()
    doc["redraw_items"] = False
    with pytest.raises(ConfigurationError, match="redraw_items"):
        SacResult.from_dict(doc)


def test_builds_one_pool_per_iteration_and_evaluation_block(monkeypatch):
    # Iteration pools are the rows of one batch drawn up front; build_pool
    # runs only for the evaluation blocks.
    calls = Counter()
    seen = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("build_pool", "child_seed", "stream"):
        monkeypatch.setattr(sac, name, counting(name, getattr(sac, name)))
    monkeypatch.setattr(sac, "reliability_summary",
                        lambda theta, pool, c, dtype=np.float64: seen.append((pool, dtype))
                        or reliability_summary(theta, pool, c, dtype=dtype))
    result = _small_twopl_run(eval_m=350)  # 350 // 100 = 3 evaluation blocks
    assert calls["build_pool"] == 3
    cfg = result.config
    beta, lam = draw_pools(cfg.items, cfg.n_iter, stream(cfg.seed, "sac/pools"))
    assert len(seen) == 30 + 3
    for n, (pool, _) in enumerate(seen[:30]):
        assert (pool.beta.tobytes(), pool.lambda0.tobytes()) == (beta[n].tobytes(), lam[n].tobytes())
    # avg_info iterations run the kernel in float32; the evaluation blocks stay float64.
    assert [dtype for _, dtype in seen] == [np.float32] * 30 + [np.float64] * 3
    expected = build_pool(cfg.items, child_seed(cfg.seed, "sac/eval-pool", 0))
    assert result.pool.to_dict() == expected.to_dict()

    counts_at_30 = dict(calls)
    calls.clear()
    sac_calibrate(replace(cfg, n_iter=60))
    assert dict(calls) == counts_at_30

    # msem iterations run the kernel in float32 too; on this design every
    # batch's float32 summary proves its information far above the floor, so
    # none is evaluated again in float64.
    seen.clear()
    sac_calibrate(replace(cfg, metric="msem"))
    assert [dtype for _, dtype in seen] == [np.float32] * 30 + [np.float64] * 3

    # A fixed pool is passed through as it is; no pool is generated for it.
    built = []
    monkeypatch.setattr(sac, "build_pool", lambda *args: built.append(build_pool(*args)) or built[-1])
    fixed = replace(cfg, items=result.pool)
    sac_calibrate(fixed)
    assert len(built) == 3 and all(pool is fixed.items for pool in built)


_TRACK_CASES = [
    (LatentSpec(), PoolConfig(model="rasch", source="parametric", n_items=30), 400),
    (LatentSpec(shape="skew_pos", shape_params={"k": 4.0}),
     PoolConfig(model="twopl", source="empirical_pool", n_items=60), 2000),
    (LatentSpec(shape="heavy_tail", shape_params={"nu": 5.0}), PoolConfig(model="twopl", source="parametric", n_items=12), 100),
]


@pytest.mark.parametrize("latent, items, m_per_iter, metric",
                         [(*case, metric) for metric in ("avg_info", "msem") for case in _TRACK_CASES],
                         ids=[f"latent{i}-items{i}-{case[2]}" + ("-msem" if metric == "msem" else "")
                              for metric in ("avg_info", "msem") for i, case in enumerate(_TRACK_CASES)])
def test_float32_iterations_track_float64_seed_for_seed(monkeypatch, latent, items, m_per_iter, metric):
    cfg = replace(BASE, latent=latent, items=items, metric=metric, n_iter=100, burn_in=50, m_per_iter=m_per_iter,
                  eval_m=m_per_iter)
    fast = sac_calibrate(cfg)
    monkeypatch.setattr(sac, "reliability_summary",
                        lambda theta, pool, c, dtype=np.float64: reliability_summary(theta, pool, c))
    exact = sac_calibrate(cfg)
    assert fast.c_star == pytest.approx(exact.c_star, rel=1e-6, abs=0)
    assert fast.c_star != exact.c_star  # the iterations did run in float32
    assert np.allclose(fast.trace_rho, exact.trace_rho, rtol=0, atol=1e-6)


_CUSTOM_BETAS = [-1.5, -0.5, 0.0, 0.0, 0.5, 1.0, 1.0, 2.0]  # ties, as resampling makes
_ITEM_RECIPES = [("rasch", "fixed")] + [("twopl", m) for m in ("copula", "conditional", "independent", "fixed")]


@pytest.mark.parametrize("source", ["parametric", "empirical_pool", "custom"])
@pytest.mark.parametrize("model, method", _ITEM_RECIPES)
def test_runs_on_every_gen_method_and_source(model, method, source):
    items = PoolConfig(model=model, source=source, n_items=8, gen_method=method,
                       betas=_CUSTOM_BETAS if source == "custom" else None,
                       lambdas=[0.8, 1.2] * 4 if (model, method) == ("twopl", "fixed") else None)
    cfg = replace(BASE, items=items, n_iter=40, burn_in=20, m_per_iter=200, eval_m=600)
    result = sac_calibrate(cfg)
    assert cfg.interval.c_lower <= result.c_star <= cfg.interval.c_upper
    assert 0.0 < result.achieved_rho < 1.0
    assert result.pool.to_dict() == build_pool(items, child_seed(cfg.seed, "sac/eval-pool", 0)).to_dict()
    assert result.pool.gen_method == method
    np.testing.assert_array_equal(sac_calibrate(cfg).trace_c, result.trace_c)


def test_deviation_study_matches_reference_statistics(monkeypatch):
    achieved = [0.6071, 0.5931, 0.61, 0.5999, 0.6201, 0.56, 0.6502, 0.6]
    seeds = []

    def fake_calibrate(cfg):
        seeds.append(cfg.seed)
        return SimpleNamespace(achieved_rho=achieved[len(seeds) - 1])

    monkeypatch.setattr(sac, "sac_calibrate", fake_calibrate)
    out = sac_deviation_study(BASE, len(achieved))
    assert seeds == [child_seed(BASE.seed, "sac/study", i) for i in range(len(achieved))]
    d = np.asarray(achieved) - BASE.target_rho
    a = np.abs(d)
    assert out == {
        "n_seeds": len(achieved),
        "mean_delta": float(np.mean(d)),
        "sd_delta": float(np.std(d, ddof=1)),
        "mae": float(np.mean(a)),
        "pct_within_001": float(100.0 * np.mean(a < 0.01)),
        "pct_within_002": float(100.0 * np.mean(a < 0.02)),
        "pct_within_005": float(100.0 * np.mean(a < 0.05)),
    }
    assert list(out) == ["n_seeds", "mean_delta", "sd_delta", "mae",
                         "pct_within_001", "pct_within_002", "pct_within_005"]


# --- chunked iterations against the per-iteration loop -------------------------


def _iterate(config, c0, rho_of):
    """The projected update loop of one chain; ``rho_of(n, c)`` supplies the noisy measurement."""
    lo, hi = config.interval.c_lower, config.interval.c_upper
    trace_c = np.empty(config.n_iter)
    trace_rho = np.empty(config.n_iter)
    c = c0
    clamps = 0
    for n in range(1, config.n_iter + 1):
        rho_hat = rho_of(n, c)
        raw = c - step_size(n, config) * (rho_hat - config.target_rho)
        c = min(max(raw, lo), hi)
        if c != raw:
            clamps += 1
        trace_c[n - 1] = c
        trace_rho[n - 1] = rho_hat
    return trace_c, trace_rho, clamps


def _per_iteration_sac(cfg):
    """SAC as one draw and one whole summary per iteration and evaluation block:
    the loop before iterations ran in chunks, kept as the bit-level reference.
    Iterations run the kernel in float32. An msem iteration whose float32
    msem does not prove every information at least the float32 floor takes
    the float64 summary of the same batch, and so does every msem iteration
    after one whose summary did not prove the floor."""
    proven = [True]

    def summary(rng, pool, c, dtype=np.float64):
        theta = sample_latent(cfg.latent, cfg.m_per_iter, rng=rng).theta
        if cfg.metric == "msem" and dtype == np.float32 and not proven[0]:
            dtype = np.float64
        result = reliability_summary(theta, pool, c, dtype=dtype)
        if cfg.metric == "msem" and dtype == np.float32 and not result.msem * theta.size < 1 / sac._MSEM_FLOOR32:
            result = reliability_summary(theta, pool, c)
        proven[0] = result.msem * theta.size < 1 / sac._MSEM_FLOOR32
        return result

    theta_rng = stream(cfg.seed, "sac/theta")
    betas, lambdas = draw_pools(cfg.items, cfg.n_iter, stream(cfg.seed, "sac/pools"))

    def rho_of(n, c):
        result = summary(theta_rng, sac._PoolRow(betas[n - 1], lambdas[n - 1]), c, np.float32)
        if cfg.metric != "avg_info" and result.underflow:
            raise DivergedObjectiveError(
                f"error-variance objective diverged at iteration {n} (c={c}): "
                "test information underflowed to zero on the batch"
            )
        return sac.metric_value(result, cfg.metric)

    trace_c, trace_rho, clamps = _iterate(cfg, cfg.resolved_c_init(), rho_of)
    c_star = float(np.mean(trace_c[cfg.burn_in:]))
    eval_rng = stream(cfg.seed, "sac/eval")
    n_blocks = max(1, cfg.resolved_eval_m() // cfg.m_per_iter)
    pools = [build_pool(cfg.items, child_seed(cfg.seed, "sac/eval-pool", b)) for b in range(n_blocks)]
    achieved = float(np.mean([sac.metric_value(summary(eval_rng, pool, c_star), cfg.metric) for pool in pools]))
    return trace_c, trace_rho, clamps / cfg.n_iter, c_star, achieved


def _outcome(run, cfg):
    try:
        out = run(cfg)
    except DivergedObjectiveError as exc:
        return str(exc)
    if isinstance(out, SacResult):
        out = (out.trace_c, out.trace_rho, out.clamp_fraction, out.c_star, out.achieved_rho)
    trace_c, trace_rho, *rest = out
    return trace_c.tobytes(), trace_rho.tobytes(), *(np.float64(v).tobytes() for v in rest)


_SHAPES = {
    "normal": {}, "bimodal": {"delta": 0.8}, "skew_pos": {"k": 4.0}, "heavy_tail": {"nu": 5.0},
    "mixture": {"components": [{"weight": 1.0, "mean": -1.0, "sd": 0.5}, {"weight": 2.0, "mean": 1.0, "sd": 1.0}]},
}
_POOLS = [
    PoolConfig(model="rasch", source="parametric", n_items=12),
    PoolConfig(model="twopl", source="empirical_pool", n_items=20),
    PoolConfig(model="twopl", source="parametric", n_items=9, gen_method="conditional"),
    ItemPool(model="twopl", beta=np.linspace(-2.0, 2.0, 10), lambda0=np.linspace(0.6, 1.6, 10)),
]


# chunk_rows patches the chunk: with 4100 rows, m = 2047, 2048 and 2049 run
# two batches per chunk and m = 4097 one; an odd n_iter then ends on a part
# chunk. At sigma = 30 and c = 6, about one batch of 2048 in seven has a
# person whose information underflows, so msem iterations diverge.
@settings(deadline=None, max_examples=40)
@given(metric=st.sampled_from(["avg_info", "msem"]), shape=st.sampled_from(sorted(_SHAPES)),
       m=st.sampled_from([1, 2, 2047, 2048, 2049, 4097]), n_iter=st.integers(2, 9),
       chunk_rows=st.sampled_from([1, 4100, sac._CHUNK_ROWS]), items=st.sampled_from(range(len(_POOLS))),
       sigma=st.sampled_from([1.0, 30.0]), c_init=st.sampled_from([1.2, 6.0]), seed=st.integers(0, 2**32 - 1))
@example(metric="msem", shape="normal", m=2049, n_iter=9, chunk_rows=4100, items=0, sigma=30.0, c_init=6.0,
         seed=3)  # diverges at iteration 6, the second batch of the third chunk
@example(metric="avg_info", shape="bimodal", m=2, n_iter=7, chunk_rows=4100, items=3, sigma=1.0, c_init=1.2,
         seed=1)
def test_chunked_iterations_equal_the_per_iteration_loop(metric, shape, m, n_iter, chunk_rows, items, sigma,
                                                         c_init, seed):
    cfg = SacConfig(target_rho=0.6, latent=LatentSpec(shape=shape, shape_params=_SHAPES[shape], sigma=sigma),
                    items=_POOLS[items], metric=metric, n_iter=n_iter, burn_in=n_iter // 2, m_per_iter=m,
                    interval=ScaleInterval(0.5, 10.0), c_init=c_init, eval_m=3 * m, seed=seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sac, "_CHUNK_ROWS", chunk_rows)
        chunked = _outcome(sac_calibrate, cfg)
    assert chunked == _outcome(_per_iteration_sac, cfg)


# --- the float32 msem summary and its float64 re-check -------------------------


# An msem iteration keeps its float32 summary only where its msem proves every
# person's float32 information at least sac._MSEM_FLOOR32; otherwise it takes
# the float64 summary of the same batch. Over 34,000 random designs of this
# kind (sigma to 30, c to 10) a kept summary's w_bar was within 7.9e-7 of the
# float64 one, and within 1.5e-6 over 40,000 designs chosen to stress it
# (c in [5, 10], beta in [-4, 4], lambda0 = exp(N(0, 0.5)), two to ten draws);
# the bound below leaves room above that.
@settings(deadline=None, max_examples=400)
@given(shape=st.sampled_from(sorted(_SHAPES)), sigma=st.floats(0.05, 30.0), c=st.floats(0.05, 10.0),
       m=st.sampled_from([1, 2, 3, 100, 2047, 2048, 2049]), items=st.sampled_from(range(len(_POOLS))),
       seed=st.integers(0, 2**32 - 1))
@example(shape="normal", sigma=30.0, c=10.0, m=2048, items=0, seed=0)  # underflows in float64 too
@example(shape="normal", sigma=30.0, c=2.0, m=100, items=3, seed=1)  # a float32 J is 0, no float64 J is below 1e-41
def test_msem_summary_underflows_exactly_where_float64_does(shape, sigma, c, m, items, seed):
    pool = build_pool(_POOLS[items], seed)
    theta = sample_latent(LatentSpec(shape=shape, shape_params=_SHAPES[shape], sigma=sigma), m,
                          rng=np.random.default_rng(seed)).theta
    sample = psychometrics.prepare_samples(theta.reshape(1, -1), np.float32)[0]
    summary = sac._msem_summary(sample, pool, c)
    fast = reliability_summary(sample, pool, c, dtype=np.float32)
    floor32 = psychometrics.test_information(sample, pool, c).min()
    exact = reliability_summary(theta, pool, c)
    assert summary.underflow == exact.underflow
    if fast.msem * m < 1 / sac._MSEM_FLOOR32:
        assert summary == fast and floor32 >= sac._MSEM_FLOOR32
        assert summary.sigma2_theta == exact.sigma2_theta
        assert abs(summary.w_bar - exact.w_bar) <= 5e-6
    else:
        assert summary == exact


# Near the floor float32's cosh overflows on many cells and runs far slower,
# so after a batch whose summary does not prove the floor the next batch goes
# straight to float64, until a float64 summary proves it. At sigma = 3 and
# c near 6 batches both fail and pass the proof, so the run leaves float32
# and comes back; it still equals the per-iteration reference bit for bit.
_LEAVES_FLOAT32 = SacConfig(target_rho=0.6, latent=LatentSpec(sigma=3.0), metric="msem",
                            items=PoolConfig(model="rasch", source="parametric", n_items=12), n_iter=40,
                            burn_in=20, m_per_iter=200, interval=ScaleInterval(0.5, 10.0), c_init=6.0,
                            eval_m=200, seed=1)


def test_msem_batches_after_an_unproven_one_start_in_float64(monkeypatch):
    cfg = _LEAVES_FLOAT32
    calls = []
    monkeypatch.setattr(sac, "reliability_summary", lambda theta, pool, c, dtype=np.float64: calls.append(
        (np.dtype(dtype), reliability_summary(theta, pool, c, dtype=dtype))) or calls[-1][1])
    result = sac_calibrate(cfg)
    proves = [summary.msem * cfg.m_per_iter < 1 / sac._MSEM_FLOOR32 for _, summary in calls]
    dtypes = [dtype for dtype, _ in calls]
    first, proven, k = [], True, 0
    for _ in range(cfg.n_iter):
        first.append(dtypes[k])
        assert dtypes[k] == (np.float32 if proven else np.float64)
        if dtypes[k] == np.float32 and not proves[k]:
            k += 1
            assert dtypes[k] == np.float64
        proven = proves[k]
        k += 1
    assert k == len(calls) - 1  # the one evaluation block follows
    text = "".join("f" if d == np.float32 else "d" for d in first)
    assert "fd" in text and "df" in text  # leaves float32 and comes back
    monkeypatch.undo()
    assert _outcome(lambda _: result, cfg) == _outcome(_per_iteration_sac, cfg)


# --- shared runs: chains in lockstep on one draw sequence ----------------------


def _result_bytes(result):
    return (result.trace_c.tobytes(), result.trace_rho.tobytes(),
            *(np.float64(v).tobytes() for v in (result.c_star, result.achieved_rho, result.clamp_fraction)))


_SHARED_CASES = {
    # the msem chain leaves float32 and comes back (see the test above)
    "leaves-float32": _LEAVES_FLOAT32,
    "twopl-heavy-tail": replace(BASE, latent=LatentSpec(shape="heavy_tail", shape_params={"nu": 5.0}),
                                items=PoolConfig(model="twopl", source="empirical_pool", n_items=20), n_iter=60,
                                burn_in=30, m_per_iter=300, eval_m=900, seed=7),
}


@pytest.mark.parametrize("cfg", _SHARED_CASES.values(), ids=_SHARED_CASES.keys())
def test_each_shared_chain_equals_its_lone_run(cfg):
    configs = [replace(cfg, metric="avg_info"), replace(cfg, metric="msem"), replace(cfg, metric="avg_info")]
    shared = sac.sac_calibrate_chains(configs)
    assert [r.config for r in shared] == configs
    for config, result in zip(configs, shared):
        lone = sac_calibrate(config)
        assert _result_bytes(result) == _result_bytes(lone)
        assert (result.status, result.eval_m, result.pool.to_dict()) == (lone.status, lone.eval_m, lone.pool.to_dict())
    assert shared[0].c_star != shared[1].c_star


def test_shared_run_draws_once_whatever_the_number_of_chains(monkeypatch):
    cfg = replace(BASE, n_iter=30, burn_in=15, m_per_iter=100, eval_m=300)  # 3 evaluation blocks
    draws = Counter()

    def counting(*args, **kwargs):
        draws[len(configs)] += 1
        return sample_latent(*args, **kwargs)

    monkeypatch.setattr(sac, "sample_latent", counting)
    for configs in ([cfg], [cfg, replace(cfg, metric="msem")], [cfg, replace(cfg, metric="msem"), cfg]):
        sac.sac_calibrate_chains(configs)
    assert draws == {1: 30 + 3, 2: 30 + 3, 3: 30 + 3}


def test_diverging_chain_stops_the_shared_run_where_it_stops_alone():
    # About one batch of 2048 in seven has a person whose information underflows
    # at sigma = 30 and c = 6; alone, this msem run diverges at iteration 6.
    cfg = SacConfig(target_rho=0.6, latent=LatentSpec(sigma=30.0), items=_POOLS[0], metric="msem", n_iter=9,
                    burn_in=4, m_per_iter=2049, interval=ScaleInterval(0.5, 10.0), c_init=6.0, eval_m=3 * 2049,
                    seed=3)
    with pytest.raises(DivergedObjectiveError, match="iteration 6") as alone:
        sac_calibrate(cfg)
    with pytest.raises(DivergedObjectiveError) as shared:
        sac.sac_calibrate_chains([replace(cfg, metric="avg_info"), cfg])
    assert str(shared.value) == str(alone.value)


@pytest.mark.parametrize("field, value", [
    ("target_rho", 0.5), ("latent", LatentSpec(shape="skew_pos", shape_params={"k": 4.0})),
    ("items", PoolConfig(model="twopl", source="parametric", n_items=30)), ("n_iter", 201), ("burn_in", 99),
    ("step_a", 2.0), ("step_A", 10.0), ("step_gamma", 0.8), ("m_per_iter", 300),
    ("interval", ScaleInterval(0.2, 10.0)), ("c_init", 1.5), ("eval_m", 8000), ("seed", 2),
])
def test_shared_chains_may_differ_only_in_metric(field, value):
    with pytest.raises(ConfigurationError, match=field):
        sac.sac_calibrate_chains([BASE, replace(BASE, metric="msem", **{field: value})])


def test_shared_chains_read_a_warm_start_for_its_scale_only():
    pool = make_rasch_pool(np.linspace(-2.0, 2.0, 10))
    cfg = replace(BASE, items=pool, n_iter=4, burn_in=2, m_per_iter=50, c_init=SimpleNamespace(c_star=1.0))
    same = replace(cfg, metric="msem", c_init=1.0)
    assert [r.c_star for r in sac.sac_calibrate_chains([cfg, same])] == [sac_calibrate(cfg).c_star,
                                                                         sac_calibrate(same).c_star]
    with pytest.raises(ConfigurationError, match="items"):  # an equal pool that is another object
        sac.sac_calibrate_chains([cfg, replace(same, items=make_rasch_pool(np.linspace(-2.0, 2.0, 10)))])
    with pytest.raises(EmptyRequestError):
        sac.sac_calibrate_chains([])


def test_shared_run_holds_one_chunk_of_draws():
    cfg = replace(BASE, latent=LatentSpec(shape="heavy_tail", shape_params={"nu": 5.0}),
                  items=PoolConfig(model="twopl", source="parametric", n_items=30), n_iter=40, burn_in=20,
                  m_per_iter=2000, eval_m=4000)
    sac.sac_calibrate_chains([cfg, replace(cfg, metric="msem")])  # one-off costs (lazy imports) first
    peaks = []
    for configs in ([cfg], [cfg, replace(cfg, metric="msem")]):
        tracemalloc.start()
        try:
            sac.sac_calibrate_chains(configs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # A chunk of 16 batches of 2000 draws is 0.26 MB of abilities beside its
    # float32 design; a second chunk held at once would add about 0.5 MB.
    assert peaks[1] < peaks[0] + 100_000
