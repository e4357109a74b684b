"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Budgets quoted in the assertions are wall-clock
ceilings for this desk-scale profile.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import optimize, stats

from irtcalib import (
    DiscriminationSpec,
    EqcConfig,
    ItemPool,
    LatentSpec,
    PoolConfig,
    SacConfig,
    ScaleInterval,
    StudyCondition,
    StudyProfile,
    analytic_ceiling,
    build_pool,
    copula_discriminations,
    conditional_discriminations,
    eqc_calibrate,
    gen_difficulties,
    logistic_kernel,
    make_desk_grid,
    phi,
    reference_ceiling,
    reliability_summary,
    run_validation_study,
    sac_calibrate,
    sample_latent,
)
from irtcalib import test_information as total_information
from irtcalib import test_information_dc as total_information_dc
from irtcalib.cli import main as cli_main
from irtcalib.rng import child_seed, stream

VALIDATION_INTERVAL = ScaleInterval(0.1, 10.0)


def _verdict(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


# -----------------------------------------------------------------------------


def test_criterion_01_reference_ceilings():
    expected = {15: 0.7895, 30: 0.8824, 60: 0.9375}
    errors = {i: abs(reference_ceiling(i) - v) for i, v in expected.items()}
    _verdict(
        "criterion 1 (reference ceilings exact)",
        all(e < 5e-5 for e in errors.values()),
        f"max |error| = {max(errors.values()):.2e} across I in {sorted(expected)}",
    )


def test_criterion_02_eqc_exactness_desk_grid(tmp_path):
    t0 = time.perf_counter()
    grid = make_desk_grid(algorithms=("eqc",), n_persons=100, replications=1)
    profile = StudyProfile(label="accept2", m_quadrature=20_000)
    summary = run_validation_study(grid, tmp_path, master_seed=20_260_809, profile=profile)
    elapsed = time.perf_counter() - t0
    deltas = np.array([c.delta for c in summary.conditions])
    row = summary.algorithm_rows[0]
    ok = (
        not summary.skipped
        and deltas.size == 48
        and np.all(np.abs(deltas) < 1e-4)
        and row["pct_within_001"] == 100.0
        and elapsed < 120.0
    )
    _verdict(
        "criterion 2 (EQC exactness on 48-condition grid)",
        ok,
        f"max |delta| = {np.max(np.abs(deltas)):.2e}, within 0.01: {row['pct_within_001']:.1f}%, "
        f"elapsed {elapsed:.1f}s",
    )


def test_criterion_03_sac_unbiasedness():
    t0 = time.perf_counter()
    conditions = [
        ("normal/rasch/parametric/I30", LatentSpec(), "rasch", "parametric", 30, 0.60),
        ("bimodal/twopl/pool/I30",
         LatentSpec(shape="bimodal", shape_params={"delta": 0.8}), "twopl", "empirical_pool", 30, 0.60),
        ("skew_pos/twopl/parametric/I60",
         LatentSpec(shape="skew_pos", shape_params={"k": 4.0}), "twopl", "parametric", 60, 0.70),
        ("heavy_tail/rasch/pool/I15",
         LatentSpec(shape="heavy_tail", shape_params={"nu": 5.0}), "rasch", "empirical_pool", 15, 0.50),
    ]
    from irtcalib import sac_deviation_study

    details, ok = [], True
    for i, (label, latent, model, source, n_items, target) in enumerate(conditions):
        items = PoolConfig(model=model, source=source, n_items=n_items)
        seed = child_seed(31, "accept3", i)
        eqc_result = eqc_calibrate(
            EqcConfig(target_rho=target, latent=latent, items=items, m_quadrature=20_000,
                      interval=VALIDATION_INTERVAL, seed=seed)
        )
        cfg = SacConfig(target_rho=target, latent=latent, items=items, metric="avg_info",
                        n_iter=1000, burn_in=500, m_per_iter=2000,
                        interval=VALIDATION_INTERVAL, c_init=eqc_result, seed=seed)
        out = sac_deviation_study(cfg, 50)
        ok = ok and abs(out["mean_delta"]) < 0.01 and out["sd_delta"] < 0.05
        details.append(f"{label}: mean {out['mean_delta']:+.5f}, sd {out['sd_delta']:.5f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 900.0
    _verdict("criterion 3 (SAC unbiasedness, 4 x 50 seeds)", ok,
             "; ".join(details) + f"; elapsed {elapsed:.0f}s")


def test_criterion_04_eqc_sac_agreement():
    latent = LatentSpec(shape="bimodal", shape_params={"delta": 0.8})
    items = PoolConfig(model="rasch", source="empirical_pool", n_items=30)
    agree = 0
    diffs = []
    for i in range(40):
        seed = child_seed(41, "accept4", i)
        eqc_result = eqc_calibrate(
            EqcConfig(target_rho=0.75, latent=latent, items=items, m_quadrature=20_000,
                      interval=VALIDATION_INTERVAL, seed=seed)
        )
        sac_result = sac_calibrate(
            SacConfig(target_rho=0.75, latent=latent, items=items, metric="avg_info",
                      n_iter=1000, burn_in=500, m_per_iter=2000,
                      interval=VALIDATION_INTERVAL, c_init=eqc_result,
                      seed=child_seed(seed, "sac"))
        )
        pct = 100.0 * abs(sac_result.c_star - eqc_result.c_star) / eqc_result.c_star
        diffs.append(pct)
        agree += pct < 5.0
    _verdict(
        "criterion 4 (EQC-SAC agreement within 5%)",
        agree >= 36,
        f"{agree}/40 runs agree (median diff {np.median(diffs):.2f}%)",
    )


def test_criterion_05_jensen_ordering():
    # (a) calibrated-scale ordering across metrics, matched seeds
    latent = LatentSpec(shape="heavy_tail", shape_params={"nu": 5.0})
    items = PoolConfig(model="twopl", source="empirical_pool", n_items=30)
    wins = 0
    for i in range(100):
        seed = child_seed(51, "accept5", i)
        common = dict(target_rho=0.6, latent=latent, items=items, n_iter=300, burn_in=150,
                      m_per_iter=500, interval=VALIDATION_INTERVAL, c_init=1.0, seed=seed)
        info = sac_calibrate(SacConfig(metric="avg_info", **common))
        msem = sac_calibrate(SacConfig(metric="msem", **common))
        wins += msem.c_star >= info.c_star

    # (b) pointwise functional ordering on random (sample, pool, scale) triples
    rng = stream(52, "accept5/pointwise")
    violations = 0
    n_evals = 100_000
    sizes = rng.integers(2, 13, n_evals)
    pool_sizes = rng.integers(1, 7, n_evals)
    cs = np.exp(rng.uniform(np.log(0.2), np.log(5.0), n_evals))
    for i in range(n_evals):
        pool = ItemPool(
            model="twopl",
            beta=rng.normal(0, 1.5, pool_sizes[i]),
            lambda0=np.exp(rng.normal(0, 0.3, pool_sizes[i])),
        )
        theta = rng.normal(0, 1, sizes[i])
        s = reliability_summary(theta, pool, cs[i])
        if not (s.rho_tilde >= s.w_bar - 1e-12):
            violations += 1
    _verdict(
        "criterion 5 (Jensen ordering)",
        wins >= 95 and violations == 0,
        f"scale ordering holds in {wins}/100 pairs; {violations} pointwise violations in {n_evals}",
    )


def test_criterion_06_derivative_oracle():
    rng = stream(61, "accept6")
    step = 1e-5
    worst = 0.0
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        pool = ItemPool(model="twopl", beta=rng.normal(0, 1, n),
                        lambda0=np.exp(rng.normal(0, 0.3, n)))
        c = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
        theta = float(rng.normal(0, 2))
        analytic = total_information_dc(theta, pool, c)
        numeric = (total_information(theta, pool, c + step)
                   - total_information(theta, pool, c - step)) / (2 * step)
        rel = abs(analytic - numeric) / (1.0 + abs(analytic))
        worst = max(worst, rel)
        ok = ok and rel < 1e-6
    root = optimize.brentq(phi, 1.0, 4.0)
    ok = ok and 2.39 < root < 2.41
    _verdict("criterion 6 (derivative oracle + phi root)", ok,
             f"worst relative error {worst:.2e}; phi root {root:.4f}")


def test_criterion_07_kernel_and_ceiling_bounds():
    rng = stream(71, "accept7")
    x = rng.uniform(-80, 80, 100_000)
    h = logistic_kernel(x)
    kernel_ok = bool(np.all((h > 0) & (h <= 0.25)))

    info_violations = 0
    ceiling_violations = 0
    for _ in range(2000):
        n = int(rng.integers(1, 16))
        pool = ItemPool(model="twopl", beta=rng.normal(0, 1.5, n),
                        lambda0=np.exp(rng.normal(0, 0.3, n)))
        c = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        theta = rng.normal(0, 1.2, 50)
        bound = c**2 / 4.0 * float(np.sum(pool.lambda0**2))
        if np.any(total_information(theta, pool, c) > bound * (1 + 1e-12)):
            info_violations += 1
        s = reliability_summary(theta, pool, c)
        if s.rho_tilde > analytic_ceiling(pool, s.sigma2_theta, c) + 1e-12:
            ceiling_violations += 1
    _verdict(
        "criterion 7 (kernel and ceiling bounds)",
        kernel_ok and info_violations == 0 and ceiling_violations == 0,
        f"kernel ok: {kernel_ok}; info-bound violations {info_violations}/2000; "
        f"ceiling violations {ceiling_violations}/2000 (100k pointwise checks each family)",
    )


def test_criterion_08_metric_split_on_gap_pool():
    pool = ItemPool(model="rasch", beta=np.array([-2.5] * 15 + [2.5] * 15),
                    lambda0=np.ones(30))
    theta = sample_latent(LatentSpec(), 20_000, rng=stream(81, "latent")).theta
    grid = np.geomspace(1.0, 50.0, 25)
    rho = np.array([reliability_summary(theta, pool, c).rho_tilde for c in grid])
    w = np.array([reliability_summary(theta, pool, c).w_bar for c in grid])
    w5 = w[np.argmin(np.abs(grid - 5.0))]
    ok = bool(np.all(np.diff(rho) > 1e-10) and w[-1] < w5)
    _verdict(
        "criterion 8 (metric split: error-variance collapse, average-information growth)",
        ok,
        f"w(50) = {w[-1]:.3e} < w(5) = {w5:.3e}; min rho step {np.min(np.diff(rho)):.2e}",
    )


def test_criterion_09_distribution_moments():
    n = 1_000_000
    sk = sample_latent(LatentSpec(shape="skew_pos", shape_params={"k": 4.0}), n,
                       rng=stream(2, "latent")).sample_moments
    hv = sample_latent(LatentSpec(shape="heavy_tail", shape_params={"nu": 5.0}), n,
                       rng=stream(12, "latent")).sample_moments
    bi = sample_latent(LatentSpec(shape="bimodal", shape_params={"delta": 0.8}), n,
                       rng=stream(4, "latent")).sample_moments
    ok = (
        abs(sk["skew"] - 1.00) < 0.02
        and abs(sk["excess_kurtosis"] - 1.5) < 0.1
        and abs(hv["excess_kurtosis"] - 6.0) < 1.0
        and abs(bi["excess_kurtosis"] - (-0.8192)) < 0.02
    )
    _verdict(
        "criterion 9 (distribution moments at n=1e6)",
        ok,
        f"skew_pos skew {sk['skew']:.3f}, kurt {sk['excess_kurtosis']:.3f}; "
        f"heavy_tail kurt {hv['excess_kurtosis']:.3f}; bimodal kurt {bi['excess_kurtosis']:.4f}",
    )


def test_criterion_10_copula_correlation():
    betas = gen_difficulties("empirical_pool", 1000, rng=stream(101, "difficulties"))
    spec = DiscriminationSpec(rho=-0.3)
    lam_cop = copula_discriminations(betas, spec, rng=stream(102, "discriminations"))
    lam_cond = conditional_discriminations(betas, spec, rng=stream(103, "discriminations"))
    r_cop = stats.spearmanr(betas, np.log(lam_cop)).statistic
    r_cond = stats.spearmanr(betas, np.log(lam_cond)).statistic
    pool = build_pool(PoolConfig(model="twopl", source="custom", n_items=1000, betas=betas), 104)
    marginal_exact = sorted(pool.beta.tolist()) == sorted(betas.tolist())
    ok = abs(r_cop + 0.3) < 0.06 and abs(r_cond + 0.3) < 0.06 and marginal_exact
    _verdict(
        "criterion 10 (copula correlation and marginal preservation)",
        ok,
        f"copula r_S {r_cop:.3f}, conditional r_S {r_cond:.3f}, marginal multiset equal: {marginal_exact}",
    )


def test_criterion_11_replication_variability(tmp_path):
    t0 = time.perf_counter()
    shapes = {
        "normal": LatentSpec(),
        "heavy_tail": LatentSpec(shape="heavy_tail", shape_params={"nu": 5.0}),
    }
    targets = {15: 0.50, 60: 0.70}
    conditions = []
    cid = 0
    for shape_name, latent in shapes.items():
        for n_items in (15, 60):
            for n_persons in (100, 2000):
                conditions.append(
                    StudyCondition(
                        condition_id=cid, latent=latent, model="rasch",
                        item_source="parametric", n_items=n_items, n_persons=n_persons,
                        target_rho=targets[n_items], algorithm="eqc", replications=200,
                    )
                )
                cid += 1
    profile = StudyProfile(label="accept11", m_quadrature=20_000)
    summary = run_validation_study(conditions, tmp_path / "sd", master_seed=111, profile=profile)
    cells_ok = True
    cell_info = []
    for shape_name in shapes:
        for n_items in (15, 60):
            sds = {
                c.n_persons: c.sd_realized
                for c in summary.conditions
                if c.shape == shapes[shape_name].shape and c.n_items == n_items
            }
            cells_ok = cells_ok and sds[2000] < sds[100]
            cell_info.append(f"{shape_name}/I{n_items}: {sds[100]:.4f}->{sds[2000]:.4f}")

    # SAC calibration error never consumes the generated-data sample size:
    # matched structural cells at N=100 and N=2000 must yield identical deltas.
    sac_conditions = []
    cid = 0
    for n_items, target in ((15, 0.45), (30, 0.55), (60, 0.65)):
        for shape_name, latent in shapes.items():
            for n_persons in (100, 2000):
                sac_conditions.append(
                    StudyCondition(
                        condition_id=cid, latent=latent, model="rasch",
                        item_source="parametric", n_items=n_items, n_persons=n_persons,
                        target_rho=target, algorithm="sac_info", replications=2,
                    )
                )
                cid += 1
    sac_profile = StudyProfile(label="accept11-sac", m_quadrature=8000, n_iter=300, m_per_iter=500)
    sac_summary = run_validation_study(sac_conditions, tmp_path / "mae", master_seed=112,
                                       profile=sac_profile)
    abs_low = np.array(sorted(abs(c.delta) for c in sac_summary.conditions if c.n_persons == 100))
    abs_high = np.array(sorted(abs(c.delta) for c in sac_summary.conditions if c.n_persons == 2000))
    paired_diff = abs_low - abs_high
    if np.all(paired_diff == 0.0):
        mae_indistinguishable = True  # identical by construction; any paired test has p = 1
    else:
        mae_indistinguishable = stats.ttest_rel(abs_low, abs_high).pvalue > 0.01
    elapsed = time.perf_counter() - t0
    _verdict(
        "criterion 11 (replication variability trends)",
        cells_ok and mae_indistinguishable and elapsed < 600.0,
        "; ".join(cell_info)
        + f"; SAC MAE diff across N: max |d| = {np.max(np.abs(paired_diff)):.2e}; elapsed {elapsed:.0f}s",
    )


def test_criterion_12_cli_determinism(tmp_path):
    gap_pool = tmp_path / "gap.csv"
    gap_pool.write_text("\n".join(["beta,lambda"] + ["-3.0,1.0"] * 15 + ["3.0,1.0"] * 15) + "\n")
    study_cfg = tmp_path / "study.json"
    study_cfg.write_text(json.dumps({
        "master_seed": 7, "replications": 2, "algorithms": ["eqc"],
        "shapes": [{"shape": "normal"}], "models": ["rasch"],
        "item_sources": ["parametric"], "test_lengths": [15],
        "n_persons": [100], "targets": {"15": 0.45},
    }))

    root = tmp_path / "out"
    root.mkdir()
    calib = root / "calib.json"
    invocations = [
        ["calibrate", "--target", "0.7", "--items", "30", "--model", "twopl",
         "--item-source", "pool", "--m", "4000", "--c-lower", "0.1",
         "--c-upper", "10", "--seed", "12", "--out", str(calib)],
        ["bounds", "--items", "30", "--model", "rasch", "--m", "2000",
         "--seed", "3", "--scan-msem", "--pool-file", str(gap_pool),
         "--item-source", "pool", "--latent-params", "sigma=0.2",
         "--c-lower", "1", "--c-upper", "50", "--out", str(root / "bounds.json")],
        ["generate", "--calibration", str(calib), "--n", "40", "--seed", "9",
         "--out", str(root / "resp.csv"), "--emit-theta"],
        ["validate", "--config", str(study_cfg), "--out-dir", str(root / "study"),
         "--threads", "1"],
        ["compare", "--first", str(calib), "--second", str(calib),
         "--out", str(root / "cmp.json")],
        ["shapes", "--shapes", "normal,bimodal:delta=0.8", "--n", "800",
         "--seed", "2", "--out", str(root / "dens.csv")],
    ]
    outputs = ("calib.json", "bounds.json", "resp.csv", "resp.csv.meta.json", "cmp.json",
               "dens.csv", "dens.csv.meta.json", "study/records.csv", "study/summary_by_algorithm.csv",
               "study/summary_by_target.csv", "study/replication_sd.csv",
               "study/study_summary.json")

    for argv in invocations:
        assert cli_main(argv) == 0
    snapshot = {rel: (root / rel).read_bytes() for rel in outputs}
    for argv in invocations:  # second pass: identical flags, identical paths
        assert cli_main(argv) == 0
    mismatched = [rel for rel in outputs if (root / rel).read_bytes() != snapshot[rel]]
    _verdict(
        "criterion 12 (CLI determinism, byte-identical reruns)",
        not mismatched,
        f"{len(outputs)} output files compared across all six subcommands"
        + (f"; mismatched: {mismatched}" if mismatched else ""),
    )
