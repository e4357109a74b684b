import json
import re
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from irtcalib import (
    ConfigurationError,
    DivergedObjectiveError,
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
from irtcalib import sac
from irtcalib.items import build_pool, draw_pools
from irtcalib.psychometrics import reliability_summary
from irtcalib.sac import _iterate
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
    cfg = replace(BASE, target_rho=target)
    trace_c, trace_rho, clamps = _iterate(cfg, 0.9, lambda n, c: target)
    assert np.all(trace_c == 0.9)
    assert clamps == 0


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
    assert doc["schema_version"] == 5
    doc["schema_version"] = 1
    clone = SacResult.from_dict(doc)
    assert clone.c_star == doc["c_star"]
    assert clone.to_dict() == {**doc, "schema_version": 5}


@pytest.mark.parametrize("status", [[1], "success"])
def test_result_document_with_unknown_status_rejected(status):
    doc = _small_twopl_run().to_dict()
    with pytest.raises(ConfigurationError, match=re.escape(f"status {status!r}")):
        SacResult.from_dict({**doc, "status": status})


@pytest.mark.parametrize("version", [None, 0, 6, True, 3.0])
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

    # msem iterations and evaluation blocks all stay float64.
    seen.clear()
    sac_calibrate(replace(cfg, metric="msem"))
    assert len(seen) == 30 + 3 and {dtype for _, dtype in seen} == {np.float64}

    # A fixed pool is passed through as it is; no pool is generated for it.
    built = []
    monkeypatch.setattr(sac, "build_pool", lambda *args: built.append(build_pool(*args)) or built[-1])
    fixed = replace(cfg, items=result.pool)
    sac_calibrate(fixed)
    assert len(built) == 3 and all(pool is fixed.items for pool in built)


@pytest.mark.parametrize("latent, items, m_per_iter", [
    (LatentSpec(), PoolConfig(model="rasch", source="parametric", n_items=30), 400),
    (LatentSpec(shape="skew_pos", shape_params={"k": 4.0}),
     PoolConfig(model="twopl", source="empirical_pool", n_items=60), 2000),
    (LatentSpec(shape="heavy_tail", shape_params={"nu": 5.0}), PoolConfig(model="twopl", source="parametric", n_items=12), 100),
])
def test_float32_iterations_track_float64_seed_for_seed(monkeypatch, latent, items, m_per_iter):
    cfg = replace(BASE, latent=latent, items=items, n_iter=100, burn_in=50, m_per_iter=m_per_iter,
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
