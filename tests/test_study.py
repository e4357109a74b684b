from dataclasses import replace

import numpy as np
import pytest

from irtcalib import (
    ConfigurationError,
    EmptyRequestError,
    EqcConfig,
    InsufficientDataError,
    LatentSpec,
    PoolConfig,
    ResponseDataset,
    ScaleInterval,
    StudyCondition,
    StudyProfile,
    compare_calibrations,
    eqc_calibrate,
    make_desk_grid,
    realized_reliability,
    reliability_summary,
    run_validation_study,
    simulate_responses,
)
from irtcalib import study
from irtcalib.eqc import CalibrationResult
from irtcalib.rng import child_seed

from conftest import make_rasch_pool


@pytest.fixture(scope="module")
def flagship_result() -> CalibrationResult:
    return eqc_calibrate(
        EqcConfig(
            target_rho=0.75,
            latent=LatentSpec(shape="bimodal", shape_params={"delta": 0.8}),
            items=PoolConfig(model="rasch", source="empirical_pool", n_items=30),
            m_quadrature=20_000,
            interval=ScaleInterval(0.1, 10.0),
            seed=42,
        )
    )


# --- response generation ------------------------------------------------------


def test_response_matrix_shape(flagship_result):
    latent = flagship_result.config.latent
    dataset = simulate_responses(flagship_result, latent, 1000, seed=1)
    assert dataset.responses.shape == (1000, 30)
    assert set(np.unique(dataset.responses)) <= {0, 1}
    assert dataset.theta_true.shape == (1000,)


def test_response_determinism(flagship_result):
    latent = flagship_result.config.latent
    a = simulate_responses(flagship_result, latent, 200, seed=7)
    b = simulate_responses(flagship_result, latent, 200, seed=7)
    np.testing.assert_array_equal(a.responses, b.responses)
    np.testing.assert_array_equal(a.theta_true, b.theta_true)


def test_zero_persons_rejected(flagship_result):
    with pytest.raises(EmptyRequestError):
        simulate_responses(flagship_result, flagship_result.config.latent, 0, seed=1)


def test_near_deterministic_scale_gives_step_function():
    class Calib:
        pool = make_rasch_pool([0.0, -1.0, 1.0, 0.5])
        c_star = 1e6

    latent = LatentSpec(seed=0)
    dataset = simulate_responses(Calib(), latent, 500, seed=3)
    theta = dataset.theta_true
    for j, beta in enumerate(dataset.pool.beta):
        clear = np.abs(theta - beta) > 1e-3
        np.testing.assert_array_equal(
            dataset.responses[clear, j], (theta[clear] > beta).astype(np.int8)
        )


def test_marginal_probability_half():
    class Calib:
        pool = make_rasch_pool([0.0])
        c_star = 1.0

    dataset = simulate_responses(Calib(), LatentSpec(seed=5), 100_000, seed=6)
    assert np.mean(dataset.responses) == pytest.approx(0.5, abs=0.01)


# --- realized reliability -----------------------------------------------------


def test_realized_zero_for_constant_abilities():
    class Calib:
        pool = make_rasch_pool([0.0, 1.0])
        c_star = 1.0

    dataset = simulate_responses(Calib(), LatentSpec(seed=8), 50, seed=8)
    dataset.theta_true = np.zeros(50)
    assert realized_reliability(dataset, "avg_info") == 0.0
    assert realized_reliability(dataset, "msem") == 0.0


def test_realized_matches_design_at_scale(flagship_result):
    latent = flagship_result.config.latent
    dataset = simulate_responses(flagship_result, latent, 100_000, seed=9)
    value = realized_reliability(dataset, "avg_info")
    assert value == pytest.approx(0.75, abs=0.01)


def test_realized_monotone_in_scale(flagship_result):
    latent = flagship_result.config.latent
    dataset = simulate_responses(flagship_result, latent, 5000, seed=10)
    higher = replace_scale(dataset, dataset.c_applied * 1.5)
    assert realized_reliability(higher, "avg_info") > realized_reliability(dataset, "avg_info")


def replace_scale(dataset, c):
    from copy import copy

    clone = copy(dataset)
    clone.c_applied = c
    return clone


def test_realized_msem_applies_information_floor():
    # Information between 4e-305 and 3e-304: below INFO_FLOOR, so it counts as
    # zero and the error-variance reliability is exactly 0, as in the summary.
    pool = make_rasch_pool([0.0])
    theta = 700.0 + np.linspace(-1.0, 1.0, 50)
    dataset = ResponseDataset(
        responses=np.zeros((50, 1), dtype=np.int8), theta_true=theta, pool=pool, c_applied=1.0, seed=0
    )
    expected = reliability_summary(theta, pool, 1.0).w_bar
    assert expected == 0.0
    assert realized_reliability(dataset, "msem") == expected


def test_realized_needs_two_persons(flagship_result):
    dataset = simulate_responses(flagship_result, flagship_result.config.latent, 2, seed=11)
    dataset.theta_true = dataset.theta_true[:1]
    with pytest.raises(InsufficientDataError):
        realized_reliability(dataset)


# --- conditions ----------------------------------------------------------------


def test_adaptive_target_window_enforced():
    with pytest.raises(ConfigurationError):
        StudyCondition(
            condition_id=0, latent=LatentSpec(), model="rasch", item_source="parametric",
            n_items=15, n_persons=100, target_rho=0.7,
        )
    # override flag admits out-of-window targets
    StudyCondition(
        condition_id=0, latent=LatentSpec(), model="rasch", item_source="parametric",
        n_items=15, n_persons=100, target_rho=0.7, allow_any_target=True,
    )
    # nonstandard lengths carry no window
    StudyCondition(
        condition_id=1, latent=LatentSpec(), model="rasch", item_source="parametric",
        n_items=25, n_persons=100, target_rho=0.95,
    )


def test_calibration_key_excludes_sample_size_and_id():
    base = dict(latent=LatentSpec(), model="rasch", item_source="parametric",
                n_items=30, target_rho=0.6, algorithm="eqc")
    a = StudyCondition(condition_id=0, n_persons=100, **base)
    b = StudyCondition(condition_id=1, n_persons=2000, **base)
    assert a.calibration_key() == b.calibration_key()


def test_desk_grid_is_48_conditions():
    grid = make_desk_grid()
    assert len(grid) == 48
    assert len({c.condition_id for c in grid}) == 48
    assert {c.n_items for c in grid} == {15, 30, 60}
    assert {c.latent.shape for c in grid} == {"normal", "bimodal", "skew_pos", "heavy_tail"}


# --- study harness --------------------------------------------------------------


SMALL_PROFILE = StudyProfile(label="test", m_quadrature=4000, n_iter=40, m_per_iter=100)


def small_conditions(algorithm="eqc", n_persons=(100,), replications=4):
    conds = []
    for i, n in enumerate(n_persons):
        conds.append(
            StudyCondition(
                condition_id=i,
                latent=LatentSpec(),
                model="rasch",
                item_source="parametric",
                n_items=30,
                n_persons=n,
                target_rho=0.6,
                algorithm=algorithm,
                replications=replications,
            )
        )
    return conds


def test_study_outputs_and_bookkeeping(tmp_path):
    summary = run_validation_study(small_conditions(), tmp_path, master_seed=5, profile=SMALL_PROFILE)
    for name in ("records", "summary_by_algorithm", "summary_by_target", "replication_sd"):
        assert (tmp_path / f"{name}.csv").exists()
    assert len(summary.records) == 4
    for record in summary.records:
        assert record.delta == record.achieved_rho_design - 0.6
    header = (tmp_path / "records.csv").read_text().splitlines()[0]
    assert header == "condition_id,replicate,c_star,achieved_rho_design,realized_rho,delta"
    assert "runtime" not in header


def test_study_reruns_are_byte_identical(tmp_path):
    for sub in ("a", "b"):
        run_validation_study(small_conditions(), tmp_path / sub, master_seed=5, profile=SMALL_PROFILE)
    for name in ("records", "summary_by_algorithm", "summary_by_target", "replication_sd"):
        assert (tmp_path / "a" / f"{name}.csv").read_bytes() == (tmp_path / "b" / f"{name}.csv").read_bytes()


def test_parallel_matches_serial(tmp_path):
    conds = small_conditions(n_persons=(100, 300, 900))
    run_validation_study(conds, tmp_path / "serial", master_seed=6, profile=SMALL_PROFILE, n_jobs=1)
    run_validation_study(conds, tmp_path / "par", master_seed=6, profile=SMALL_PROFILE, n_jobs=3)
    for name in ("records", "replication_sd"):
        assert (tmp_path / "serial" / f"{name}.csv").read_bytes() == (tmp_path / "par" / f"{name}.csv").read_bytes()


def test_empty_condition_list_rejected(tmp_path):
    with pytest.raises(EmptyRequestError):
        run_validation_study([], tmp_path)


def test_infeasible_condition_skipped_with_warning(tmp_path, caplog):
    bad = StudyCondition(
        condition_id=0, latent=LatentSpec(), model="rasch", item_source="parametric",
        n_items=15, n_persons=100, target_rho=0.6, replications=2,
    )
    profile = StudyProfile(label="tiny", m_quadrature=2000, interval=ScaleInterval(0.101, 0.102))
    with caplog.at_level("WARNING"):
        summary = run_validation_study([bad], tmp_path, profile=profile)
    assert summary.skipped and summary.skipped[0][0] == 0
    assert "skipped" in caplog.text
    assert summary.records == []


@pytest.mark.parametrize("algorithm, metric", [("eqc", "avg_info"), ("sac_msem", "msem")])
def test_replicate_regenerates_from_public_api(tmp_path, algorithm, metric):
    # Each record's realized value is the realized reliability of the full
    # response dataset simulate_responses builds from the replicate's seed.
    master_seed = 9
    (condition,) = small_conditions(algorithm=algorithm, n_persons=(60,), replications=3)
    summary = run_validation_study([condition], tmp_path, master_seed=master_seed, profile=SMALL_PROFILE)
    calibration, reason = study._calibrate(master_seed, SMALL_PROFILE, condition)
    assert reason is None
    assert len(summary.records) == 3
    for record in summary.records:
        seed = child_seed(master_seed, "study/replicate", condition.condition_id, record.replicate)
        dataset = simulate_responses(calibration, condition.latent, condition.n_persons, seed)
        assert record.realized_rho == realized_reliability(dataset, metric)


def test_sample_size_invariance_of_calibration(tmp_path):
    # Same structural cell at two sample sizes: matched calibration seeds mean
    # the design-level deviation is identical; only realized values differ.
    conds = small_conditions(algorithm="sac_info", n_persons=(100, 2000))
    summary = run_validation_study(conds, tmp_path, master_seed=7, profile=SMALL_PROFILE)
    by_n = {c.n_persons: c for c in summary.conditions}
    assert by_n[100].delta == by_n[2000].delta
    assert by_n[100].c_star == by_n[2000].c_star
    assert by_n[100].sd_realized > by_n[2000].sd_realized


def test_replication_sd_shrinks_with_sample_size(tmp_path):
    conds = small_conditions(n_persons=(100, 2000), replications=30)
    summary = run_validation_study(conds, tmp_path, master_seed=8, profile=SMALL_PROFILE)
    by_n = {c.n_persons: c for c in summary.conditions}
    assert by_n[2000].sd_realized < by_n[100].sd_realized


# --- comparisons -----------------------------------------------------------------


def test_compare_identical_results(flagship_result):
    report = compare_calibrations(flagship_result, flagship_result)
    assert report["pct_diff"] == 0.0
    assert report["agree_5pct"] is True


def test_compare_rejects_mismatched_targets(flagship_result):
    other = eqc_calibrate(replace(flagship_result.config, target_rho=0.6))
    with pytest.raises(ConfigurationError):
        compare_calibrations(flagship_result, other)
