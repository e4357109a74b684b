import ast
import concurrent.futures
import csv
import functools
import os
import tempfile
import tracemalloc
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irtcalib import (
    ConfigurationError,
    EmptyRequestError,
    EqcConfig,
    InsufficientDataError,
    LatentSpec,
    ParameterError,
    PoolConfig,
    ResponseDataset,
    SacConfig,
    ScaleInterval,
    StudyCondition,
    StudyProfile,
    compare_calibrations,
    eqc_calibrate,
    make_desk_grid,
    prob_correct,
    realized_reliability,
    reliability_summary,
    run_validation_study,
    sac_calibrate,
    sac_calibrate_chains,
    sample_latent,
    simulate_responses,
)
from irtcalib import study
from irtcalib.eqc import CalibrationResult
from irtcalib.rng import child_seed, stream

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

    latent = LatentSpec()
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

    dataset = simulate_responses(Calib(), LatentSpec(), 100_000, seed=6)
    assert np.mean(dataset.responses) == pytest.approx(0.5, abs=0.01)


# --- blocked generation ---------------------------------------------------------

B = study._BLOCK_ROWS


def _one_shot_responses(calibration, latent, n_persons, seed):
    """The generator as one (N, I) pass, before it ran in row blocks: the bit-level reference."""
    pool = calibration.pool
    c_star = float(calibration.c_star)
    theta = sample_latent(latent, n_persons, rng=stream(seed, "responses/theta")).theta
    p = prob_correct(theta[:, None], pool.beta[None, :], (c_star * pool.lambda0)[None, :])
    u = stream(seed, "responses/bernoulli").random(p.shape)
    return (u < p).astype(np.int8), theta


@functools.lru_cache(maxsize=None)
def _small_calibration(algorithm, model, n_items):
    # A one-item 2PL pool has no ranks for the copula to pair.
    gen_method = "independent" if model == "twopl" and n_items < 2 else None
    items = PoolConfig(model=model, n_items=n_items, gen_method=gen_method)
    latent = LatentSpec(shape="skew_pos", shape_params={"k": 4})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a boundary scale serves as well: only pool and c* are read
        if algorithm == "eqc":
            return eqc_calibrate(EqcConfig(target_rho=0.5, latent=latent, items=items,
                                           m_quadrature=500, seed=n_items))
        return sac_calibrate(SacConfig(target_rho=0.5, latent=latent, items=items,
                                       n_iter=20, burn_in=10, m_per_iter=100, seed=n_items))


@pytest.mark.parametrize("n_items", [1, 2, 30, 60])
@pytest.mark.parametrize("n_persons", [1, B - 1, B, B + 1, 3 * B + 7])
@settings(deadline=None, max_examples=6)
@given(algorithm=st.sampled_from(["eqc", "sac"]), model=st.sampled_from(["rasch", "twopl"]),
       seed=st.integers(0, 2**32 - 1))
@example(algorithm="eqc", model="rasch", seed=0)
@example(algorithm="sac", model="twopl", seed=1)
def test_blocked_generation_matches_one_shot(n_persons, n_items, algorithm, model, seed):
    calibration = _small_calibration(algorithm, model, n_items)
    latent = calibration.config.latent
    dataset = simulate_responses(calibration, latent, n_persons, seed)
    responses, theta = _one_shot_responses(calibration, latent, n_persons, seed)
    assert dataset.responses.dtype == np.int8
    assert dataset.responses.shape == (n_persons, n_items)
    assert dataset.responses.tobytes() == responses.tobytes()
    assert dataset.theta_true.tobytes() == theta.tobytes()


def test_generate_memory_stays_near_the_int8_matrix(flagship_result, tmp_path):
    # The int8 matrix is N*I bytes; every float64 temporary is one row block.
    n = 200_000
    tracemalloc.start()
    try:
        dataset = simulate_responses(flagship_result, flagship_result.config.latent, n, seed=12)
        dataset.save_csv(tmp_path / "r.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "r.csv").stat().st_size == 2 * n * flagship_result.pool.n_items
    assert peak < 4 * n * flagship_result.pool.n_items


# --- realized reliability -----------------------------------------------------


def test_realized_zero_for_constant_abilities():
    class Calib:
        pool = make_rasch_pool([0.0, 1.0])
        c_star = 1.0

    dataset = simulate_responses(Calib(), LatentSpec(), 50, seed=8)
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


def test_cell_key_excludes_sample_size_id_and_algorithm():
    base = dict(latent=LatentSpec(), model="rasch", item_source="parametric", n_items=30, target_rho=0.6)
    a = StudyCondition(condition_id=0, n_persons=100, algorithm="eqc", **base)
    b = StudyCondition(condition_id=1, n_persons=2000, algorithm="sac_msem", **base)
    assert a.cell_key() == b.cell_key()
    assert replace(a, target_rho=0.55).cell_key() != a.cell_key()
    assert replace(a, n_items=15, target_rho=0.45).cell_key() != a.cell_key()


def test_desk_grid_is_48_conditions():
    grid = make_desk_grid()
    assert len(grid) == 48
    assert len({c.condition_id for c in grid}) == 48
    assert {c.n_items for c in grid} == {15, 30, 60}
    assert {c.latent.shape for c in grid} == {"normal", "bimodal", "skew_pos", "heavy_tail"}


def test_desk_grid_matches_nested_loop_reference():
    reference = []
    for algorithm in study.ALGORITHMS:
        for latent in study.DESK_SHAPES:
            for model in ("rasch", "twopl"):
                for source in ("parametric", "empirical_pool"):
                    for n_items in (15, 30, 60):
                        reference.append(
                            StudyCondition(
                                condition_id=len(reference),
                                latent=latent,
                                model=model,
                                item_source=source,
                                n_items=n_items,
                                n_persons=500,
                                target_rho=study.MID_RANGE_TARGETS[n_items],
                                algorithm=algorithm,
                                replications=200,
                            )
                        )
    assert make_desk_grid(algorithms=study.ALGORITHMS) == reference
    assert study.DESK_SHAPES == (
        LatentSpec(shape="normal"),
        LatentSpec(shape="bimodal", shape_params={"delta": 0.8}),
        LatentSpec(shape="skew_pos", shape_params={"k": 4.0}),
        LatentSpec(shape="heavy_tail", shape_params={"nu": 5.0}),
    )


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


RECORDS_HEADER = "condition_id,replicate,c_star,achieved_rho_design,realized_rho,delta"


def read_records(out_dir) -> list[dict]:
    with open(out_dir / "records.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def test_study_outputs_and_bookkeeping(tmp_path):
    run_validation_study(small_conditions(), tmp_path, master_seed=5, profile=SMALL_PROFILE)
    for name in ("records", "summary_by_algorithm", "summary_by_target", "replication_sd"):
        assert (tmp_path / f"{name}.csv").exists()
    records = read_records(tmp_path)
    assert len(records) == 4
    for record in records:
        assert float(record["delta"]) == float(record["achieved_rho_design"]) - 0.6
    header = (tmp_path / "records.csv").read_text().splitlines()[0]
    assert header == RECORDS_HEADER
    assert "runtime" not in header


def test_records_csv_is_read_off_the_condition_summaries(tmp_path):
    # Two structural cells x every algorithm x two sample sizes: 12 conditions.
    summary = run_validation_study(small_grid(study.ALGORITHMS), tmp_path, master_seed=8, profile=SMALL_PROFILE)
    conditions = summary.conditions
    assert [c.condition_id for c in conditions] == list(range(12))
    lines = [RECORDS_HEADER]
    for c in conditions:
        for k, rho in enumerate(c.realized):
            lines.append(f"{c.condition_id},{k},{c.c_star!r},{c.achieved_rho_design!r},{float(rho)!r},{c.delta!r}")
    assert len(lines) == 1 + 12 * 3
    assert (tmp_path / "records.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


def test_records_are_not_held_in_memory(tmp_path):
    # One eqc condition with many cheap replicates. The writer streams its
    # rows, so the traced peak stays near 0.2 MB; one object per replicate
    # held until the file is written would take it to about 1.2 MB.
    (condition,) = small_conditions(n_persons=(2,), replications=4000)
    profile = StudyProfile(label="tiny", m_quadrature=200)
    # An untraced warm-up run takes one-off costs (lazy imports) out of the
    # traced peak.
    run_validation_study([condition], tmp_path / "warm", master_seed=2, profile=replace(profile, replications=2))
    tracemalloc.start()
    try:
        summary = run_validation_study([condition], tmp_path, master_seed=2, profile=profile)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.conditions[0].replications == 4000
    assert len(read_records(tmp_path)) == 4000
    assert peak < 500_000


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


def test_process_pool_matches_serial(tmp_path, monkeypatch):
    # Two structural cells (two test lengths), each with every algorithm, so
    # n_jobs=2 hands the cells to worker processes.
    conds = study.make_grid([LatentSpec()], ["rasch"], ["parametric"], [15, 30], [100],
                            {15: 0.45, 30: 0.55}, algorithms=study.ALGORITHMS, replications=3)
    tiny = StudyProfile(label="tiny", m_quadrature=2000, n_iter=20, m_per_iter=100)
    started = []

    def recording_executor(*args, **kwargs):
        started.append(kwargs)
        return ProcessPoolExecutor(*args, **kwargs)

    # study imports the executor only on its n_jobs > 1 path, so patch it where that import reads it.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_executor)
    run_validation_study(conds, tmp_path / "serial", master_seed=4, profile=tiny, n_jobs=1)
    assert started == []
    run_validation_study(conds, tmp_path / "par", master_seed=4, profile=tiny, n_jobs=2)
    assert started == [{"max_workers": 2}]
    for name in ("records", "summary_by_algorithm", "summary_by_target", "replication_sd"):
        assert (tmp_path / "serial" / f"{name}.csv").read_bytes() == (tmp_path / "par" / f"{name}.csv").read_bytes()


def test_process_pool_starts_no_more_workers_than_cells(tmp_path, monkeypatch):
    # Under fork, every worker starts on the first submit, so n_jobs=64 on
    # three cells would start 61 idle processes. The fake runs the cells in
    # this process and starts none.
    conds = study.make_grid([LatentSpec()], ["rasch"], ["parametric"], [10, 15, 20], [60],
                            {10: 0.35, 15: 0.45, 20: 0.5}, algorithms=("eqc",), replications=2)
    tiny = StudyProfile(label="tiny", m_quadrature=500, n_iter=20, m_per_iter=100)
    workers = []

    class InProcessExecutor:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessExecutor)
    run_validation_study(conds, tmp_path / "serial", master_seed=4, profile=tiny, n_jobs=1)
    run_validation_study(conds, tmp_path / "par", master_seed=4, profile=tiny, n_jobs=64)
    assert workers == [3]
    for name in ("records", "summary_by_algorithm", "summary_by_target", "replication_sd"):
        assert (tmp_path / "serial" / f"{name}.csv").read_bytes() == (tmp_path / "par" / f"{name}.csv").read_bytes()
    with pytest.raises(ParameterError, match=r"n_jobs \(--threads\) must be >= 1"):
        run_validation_study(conds, tmp_path / "none", n_jobs=0)
    assert not (tmp_path / "none").exists()


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
    assert summary.conditions == []
    assert (tmp_path / "records.csv").read_text() == RECORDS_HEADER + "\n"


@pytest.mark.parametrize("permissive_first", [True, False])
def test_each_condition_of_a_cell_decides_its_own_skip(tmp_path, permissive_first):
    # Two conditions of one cell differ only in allow_any_target; the target is
    # above the cell's EQC bracket, so only the permissive one runs, in either order.
    strict, permissive = (
        StudyCondition(condition_id=cid, latent=LatentSpec(), model="rasch", item_source="parametric",
                       n_items=10, n_persons=50, target_rho=0.99, replications=2, allow_any_target=flag)
        for cid, flag in ((0, False), (1, True))
    )
    conditions = [permissive, strict] if permissive_first else [strict, permissive]
    summary = run_validation_study(conditions, tmp_path, profile=StudyProfile(label="tiny", m_quadrature=2000))
    assert [cid for cid, _ in summary.skipped] == [0]
    assert "infeasible" in summary.skipped[0][1]
    assert [c.condition_id for c in summary.conditions] == [1]


@pytest.mark.parametrize("algorithm, metric", [("eqc", "avg_info"), ("sac_info", "avg_info"), ("sac_msem", "msem")])
def test_replicate_regenerates_from_public_api(tmp_path, algorithm, metric):
    # Each record's realized value is the realized reliability of the full
    # response dataset simulate_responses builds from the replicate's seed,
    # bit for bit: the CSV holds repr(x), and float(repr(x)) == x.
    master_seed = 9
    (condition,) = small_conditions(algorithm=algorithm, n_persons=(60,), replications=3)
    run_validation_study([condition], tmp_path, master_seed=master_seed, profile=SMALL_PROFILE)
    calibrations, skipped = study.calibrate_cell(master_seed, SMALL_PROFILE, [condition])
    assert skipped == [] and list(calibrations) == [condition.condition_id]
    assert condition.metric == metric
    records = read_records(tmp_path)
    assert len(records) == 3
    for record in records:
        seed = condition.replicate_seed(master_seed, int(record["replicate"]))
        assert seed == child_seed(master_seed, "study/replicate/" + condition.cell_key(), condition.n_persons,
                                  int(record["replicate"]))
        dataset = simulate_responses(calibrations[condition.condition_id], condition.latent,
                                     condition.n_persons, seed)
        assert float(record["realized_rho"]) == realized_reliability(dataset, metric)


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_recipe():
    """The README's Reproducibility block: its statements, compiled, and its last line as an expression."""
    section = README.read_text(encoding="utf-8").split("## Reproducibility", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    *body, last = ast.parse(block).body
    assert isinstance(last, ast.Expr)
    return (compile(ast.Module(body=body, type_ignores=[]), "README.md", "exec"),
            compile(ast.Expression(last.value), "README.md", "eval"))


def test_readme_recipe_regenerates_every_algorithms_records(tmp_path):
    # One cell with every algorithm, so the recipe's one-condition calibration
    # must equal that condition's share of the cell's shared run.
    master_seed = 9
    grid = study.make_grid([LatentSpec()], ["rasch"], ["parametric"], [30], [60], {30: 0.55},
                           algorithms=study.ALGORITHMS, replications=2)
    run_validation_study(grid, tmp_path, master_seed=master_seed, profile=SMALL_PROFILE)
    statements, realized = _readme_recipe()
    assert not any(name.startswith("_") for name in statements.co_names + realized.co_names)
    records = read_records(tmp_path)
    assert len(records) == 2 * len(study.ALGORITHMS)
    for record in records:
        scope = {"master_seed": master_seed, "profile": SMALL_PROFILE,
                 "condition": grid[int(record["condition_id"])], "k": int(record["replicate"])}
        exec(statements, scope)
        assert scope["skipped"] == []
        assert eval(realized, scope) == float(record["realized_rho"])


def test_cell_calibration_rejects_an_empty_list_and_a_second_cell():
    with pytest.raises(EmptyRequestError):
        study.calibrate_cell(0, SMALL_PROFILE, [])
    (condition,) = small_conditions()
    other = replace(condition, condition_id=1, n_items=15, target_rho=0.45)
    with pytest.raises(ConfigurationError, match="one structural cell"):
        study.calibrate_cell(0, SMALL_PROFILE, [condition, other])


def small_grid(algorithms):
    # Two structural cells at two sample sizes; eqc conditions come first, so
    # their ids do not depend on which SAC algorithms follow.
    return study.make_grid([LatentSpec()], ["rasch"], ["parametric"], [15, 30], [60, 100],
                           {15: 0.45, 30: 0.55}, algorithms=algorithms, replications=3)


def test_eqc_solved_once_per_structural_cell(tmp_path, monkeypatch):
    solves = []

    def counting_eqc(config):
        solves.append(config.seed)
        return eqc_calibrate(config)

    monkeypatch.setattr(study, "eqc_calibrate", counting_eqc)
    conditions = small_grid(study.ALGORITHMS)
    run_validation_study(conditions, tmp_path, master_seed=3, profile=SMALL_PROFILE)
    assert len({c.cell_key() for c in conditions}) == 2
    assert len(solves) == 2 and len(set(solves)) == 2


def test_sac_warm_starts_from_cell_eqc_solve(tmp_path, monkeypatch):
    c_inits = {}

    def recording_sac(configs):
        for config in configs:
            c_inits[(config.target_rho, config.metric)] = config.resolved_c_init()
        return sac_calibrate_chains(configs)

    monkeypatch.setattr(study, "sac_calibrate_chains", recording_sac)
    summary = run_validation_study(small_grid(study.ALGORITHMS), tmp_path, master_seed=3, profile=SMALL_PROFILE)
    eqc_c = {c.target_rho: c.c_star for c in summary.conditions if c.algorithm == "eqc"}
    assert len(c_inits) == 4
    for (target, _metric), c_init in c_inits.items():
        assert c_init == eqc_c[target]


def test_eqc_rows_unchanged_by_sac_algorithms(tmp_path):
    def eqc_lines(out, name, ids):
        lines = (out / name).read_text().splitlines()
        return [lines[0]] + [line for line in lines[1:] if int(line.split(",")[0]) in ids]

    alone = small_grid(("eqc",))
    ids = {c.condition_id for c in alone}
    run_validation_study(alone, tmp_path / "eqc", master_seed=4, profile=SMALL_PROFILE)
    run_validation_study(small_grid(study.ALGORITHMS), tmp_path / "all", master_seed=4, profile=SMALL_PROFILE)
    for name in ("records.csv", "replication_sd.csv"):
        expected = eqc_lines(tmp_path / "eqc", name, ids)
        assert len(expected) > 1
        assert eqc_lines(tmp_path / "all", name, ids) == expected


def test_every_algorithm_of_a_cell_reads_the_same_abilities(tmp_path, monkeypatch):
    thetas = {}  # (c_applied, metric, n_persons) -> the abilities of each call, in replicate order

    def recording(dataset, metric):
        theta = dataset.theta_true.theta
        thetas.setdefault((dataset.c_applied, metric, theta.size), []).append(theta.tobytes())
        return realized_reliability(dataset, metric)

    monkeypatch.setattr(study, "realized_reliability", recording)
    grid = small_grid(study.ALGORITHMS)
    metrics = {c.condition_id: c.metric for c in grid}
    summary = run_validation_study(grid, tmp_path, master_seed=3, profile=SMALL_PROFILE)
    reads = {}
    for c in summary.conditions:
        key = (c.c_star, metrics[c.condition_id], c.n_persons)
        reads.setdefault((c.n_items, c.n_persons), {})[c.algorithm] = thetas[key]
    assert len(reads) == 4
    for by_algorithm in reads.values():
        assert len(by_algorithm) == 3
        eqc_reads = by_algorithm["eqc"]
        assert len(eqc_reads) == 3 and len(set(eqc_reads)) == 3
        assert by_algorithm["sac_info"] == eqc_reads and by_algorithm["sac_msem"] == eqc_reads


def _rows_by_condition(out, conditions):
    """Each condition's records.csv and replication_sd.csv rows without the id, keyed by its factors."""
    factors = {str(c.condition_id): (c.algorithm, c.n_items, c.n_persons, c.allow_any_target) for c in conditions}
    rows = {}
    for name in ("records.csv", "replication_sd.csv"):
        for line in (out / name).read_text().splitlines()[1:]:
            cid, rest = line.split(",", 1)
            rows.setdefault(factors[cid], []).append(rest)
    return rows


def test_condition_rows_do_not_depend_on_the_other_algorithms_or_ids(tmp_path):
    # small_grid numbers algorithms first, so the same condition gets another id in each grid.
    runs = {}
    for algorithms in (study.ALGORITHMS, ("sac_msem",), ("sac_info", "eqc"), ("sac_msem", "sac_info")):
        grid = small_grid(algorithms)
        out = tmp_path / "-".join(algorithms)
        run_validation_study(grid, out, master_seed=4, profile=SMALL_PROFILE)
        runs[algorithms] = _rows_by_condition(out, grid)
    full = runs[study.ALGORITHMS]
    assert len(full) == 12
    for rows in runs.values():
        assert rows == {key: full[key] for key in rows}


def test_condition_rows_do_not_depend_on_skipped_conditions(tmp_path):
    # EQC cannot reach 0.45 on [0.1, 0.2], so only conditions that allow any target run.
    profile = replace(SMALL_PROFILE, interval=ScaleInterval(0.1, 0.2))

    def condition(cid, algorithm, allow):
        return StudyCondition(condition_id=cid, latent=LatentSpec(), model="rasch", item_source="parametric",
                              n_items=30, n_persons=80, target_rho=0.45, algorithm=algorithm, replications=3,
                              allow_any_target=allow)

    grids = {
        "alone": [condition(0, "sac_info", True)],
        "others_skipped": [condition(5, "eqc", False), condition(3, "sac_msem", False), condition(9, "sac_info", True)],
        "others_run": [condition(1, "sac_msem", True), condition(2, "sac_info", True), condition(0, "eqc", True)],
    }
    runs = {}
    for name, grid in grids.items():
        summary = run_validation_study(grid, tmp_path / name, master_seed=6, profile=profile)
        assert len(summary.skipped) == (2 if name == "others_skipped" else 0)
        runs[name] = _rows_by_condition(tmp_path / name, grid)[("sac_info", 30, 80, True)]
    assert len(runs["alone"]) == 3 + 1
    assert runs["others_skipped"] == runs["alone"] and runs["others_run"] == runs["alone"]


def test_common_random_numbers_pair_eqc_with_sac(tmp_path):
    # Per cell, SD(realized_eqc - realized_sac_info) / SD(realized_eqc). With
    # independent abilities per algorithm the ratio is near sqrt(2): over 10
    # master seeds its median over these 8 cells was 1.38-1.51 and no cell was
    # below 0.91. With shared abilities only the two calibrations' c* and pools
    # differ: over 30 master seeds the median was at most 0.033 and no cell
    # exceeded 0.089.
    grid = study.make_grid([LatentSpec(), LatentSpec(shape="heavy_tail", shape_params={"nu": 5.0})],
                           ["rasch", "twopl"], ["parametric", "empirical_pool"], [30], [100], {30: 0.55},
                           algorithms=("eqc", "sac_info"), replications=20)
    summary = run_validation_study(grid, tmp_path, master_seed=0, profile=SMALL_PROFILE)
    cells = {}
    for c in summary.conditions:
        cells.setdefault((c.shape, c.model, c.item_source), {})[c.algorithm] = c.realized
    ratios = [np.std(v["eqc"] - v["sac_info"], ddof=1) / np.std(v["eqc"], ddof=1) for v in cells.values()]
    assert len(ratios) == 8
    assert np.median(ratios) < 0.1
    assert max(ratios) < 0.3


@pytest.mark.parametrize("field, value", [("model", "3pl"), ("item_source", "bank")])
def test_condition_rejects_unknown_model_or_source(field, value):
    base = dict(condition_id=0, latent=LatentSpec(), model="rasch", item_source="parametric",
                n_items=15, n_persons=100, target_rho=0.45)
    with pytest.raises(ParameterError):
        StudyCondition(**{**base, field: value})


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


def _row_by_row_csv(responses, header):
    """The response writer as a per-row Python loop: the byte-level reference."""
    lines = []
    if header:
        lines.append(",".join(f"item_{i + 1}" for i in range(responses.shape[1])))
    lines += [",".join(str(int(v)) for v in row) for row in responses]
    return "".join(line + "\n" for line in lines).encode("utf-8")


def _dataset(responses):
    n, i = responses.shape
    return ResponseDataset(responses=responses, theta_true=np.zeros(n),
                           pool=make_rasch_pool(np.zeros(i)), c_applied=1.0, seed=0)


@settings(deadline=None, max_examples=50)
@given(n=st.one_of(st.integers(1, 500), st.integers(B - 2, 2 * B + 2)), i=st.integers(1, 60),
       header=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(n=1, i=1, header=False, seed=0)
@example(n=1, i=1, header=True, seed=1)
@example(n=B + 1, i=2, header=True, seed=2)
@example(n=2 * B + 2, i=60, header=False, seed=3)
def test_save_csv_matches_row_by_row_writer(n, i, header, seed):
    responses = (np.random.default_rng(seed).random((n, i)) < 0.5).astype(np.int8)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "r.csv")
        _dataset(responses).save_csv(path, header=header)
        with open(path, "rb") as fh:
            assert fh.read() == _row_by_row_csv(responses, header)


def test_save_csv_rejects_non_binary_responses(tmp_path):
    # The second matrix's one bad value sits in the writer's last row block.
    late = np.zeros((2 * B + 1, 3), dtype=np.int8)
    late[-1, 2] = 2
    for responses in (np.array([[0, 1], [2, 0]], dtype=np.int8), late):
        with pytest.raises(ParameterError):
            _dataset(responses).save_csv(tmp_path / "r.csv")
        assert not (tmp_path / "r.csv").exists()


def _deviation_reference(deltas) -> dict:
    """Mean, SD (ddof=1, NaN for one value), MAE, max |delta| and the shares within 0.01/0.02/0.05."""
    d = np.asarray(deltas, dtype=float)
    a = np.abs(d)
    return {
        "mean_delta": float(np.mean(d)),
        "sd_delta": float(np.std(d, ddof=1)) if d.size > 1 else float("nan"),
        "mae": float(np.mean(a)),
        "max_abs_delta": float(np.max(a)),
        "pct_within_001": float(100.0 * np.mean(a < 0.01)),
        "pct_within_002": float(100.0 * np.mean(a < 0.02)),
        "pct_within_005": float(100.0 * np.mean(a < 0.05)),
    }


def _summary_with_delta(condition_id, algorithm, delta):
    return study.ConditionSummary(
        condition_id=condition_id, algorithm=algorithm, shape="normal", model="rasch",
        item_source="parametric", n_items=15, n_persons=100, target_rho=0.45, replications=1,
        c_star=1.0, achieved_rho_design=0.45 + delta, delta=delta, mean_realized=0.45,
        sd_realized=0.0, realized=np.array([0.45]),
    )


def test_records_writer_matches_generic_csv_writer(tmp_path):
    # numpy and Python floats, 0.0 and -0.0, NaN, a negative delta and a condition without replicates.
    conditions = [
        replace(_summary_with_delta(3, "eqc", -0.0125), c_star=np.float64(0.7312),
                realized=np.array([0.0, 0.4510000000000001, -0.0, 1e-300])),
        replace(_summary_with_delta(7, "sac_msem", np.float64(0.0)), achieved_rho_design=float("nan"),
                realized=np.array([np.nan, 0.45])),
        replace(_summary_with_delta(8, "sac_info", -0.05), realized=np.empty(0)),
        _summary_with_delta(12, "sac_info", 0.02),
    ]
    rows = ({"condition_id": c.condition_id, "replicate": k, "c_star": c.c_star,
             "achieved_rho_design": c.achieved_rho_design, "realized_rho": float(rho), "delta": c.delta}
            for c in conditions for k, rho in enumerate(c.realized))
    study._write_records(tmp_path / "records.csv", conditions)
    study._write_csv(tmp_path / "reference.csv", study._RECORD_COLUMNS, rows)
    assert (tmp_path / "records.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert "nan" in (tmp_path / "records.csv").read_text()


def test_by_algorithm_rows_match_reference_statistics(tmp_path):
    deltas = {
        "sac_msem": [0.004, -0.0125, 0.01, 0.0199, -0.05, 0.0731, -0.0002],
        "eqc": [1e-9, -3e-10, 2.5e-9],
        "sac_info": [-0.0333],  # one condition: its SD is NaN
    }
    pairs = [(algorithm, d) for algorithm, ds in deltas.items() for d in ds]
    conditions = [_summary_with_delta(i, algorithm, d) for i, (algorithm, d) in enumerate(pairs)]
    rows = study._aggregate_by_algorithm(conditions)
    assert [row["algorithm"] for row in rows] == sorted(deltas)
    for row in rows:
        assert tuple(row) == study._ALGORITHM_COLUMNS
        ds = deltas[row["algorithm"]]
        np.testing.assert_equal(  # NaN equals NaN here
            row, {"algorithm": row["algorithm"], "n_conditions": len(ds), **_deviation_reference(ds)})
    path = tmp_path / "by_algorithm.csv"
    study._write_csv(path, study._ALGORITHM_COLUMNS, rows)
    table = {r["algorithm"]: r for r in csv.DictReader(path.read_text().splitlines())}
    assert table["sac_info"]["sd_delta"] == "nan"
    assert table["sac_msem"]["sd_delta"] == repr(_deviation_reference(deltas["sac_msem"])["sd_delta"])
