"""Calibrated response generation and the factorial validation harness.

A study is a list of conditions (latent shape x model x item source x test
length x sample size x target x algorithm). For each condition the harness
calibrates the scale, draws replicate ability samples, computes the realized
plug-in reliability of each, and writes four CSV outputs:
``records.csv`` (one row per replicate), ``summary_by_algorithm.csv``,
``summary_by_target.csv``, and ``replication_sd.csv``.

Seeding: replicate ability samples derive from ``(master_seed, condition_id,
replicate)`` through the stream :func:`simulate_responses` draws abilities
from, so any row can be re-run in isolation as a full dataset. Calibration
seeds derive from the *structural* factors only (shape, model, source, test
length, target, algorithm) -- never from the sample size or condition id --
because calibration does not consume the generated-data sample size;
conditions differing only in ``n_persons`` therefore share one calibration,
matched seed for seed.

Realized reliability is a plug-in using the true abilities and the true
calibrated parameters, not a re-estimated quantity: it isolates exactly the
finite-sample variability of interest without involving an external
estimation stack; it reads no responses, so the harness draws none.
"""

from __future__ import annotations

import logging
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .eqc import STATUS_SUCCESS, VALIDATION_INTERVAL, EqcConfig, eqc_calibrate
from .errors import ConfigurationError, EmptyRequestError, InsufficientDataError, ParameterError
from .items import ItemPool, PoolConfig
from .latent import LatentSpec, sample_latent
from .psychometrics import (
    METRIC_AVG_INFO,
    METRIC_MSEM,
    ScaleInterval,
    metric_value,
    prob_correct,
    reliability_from_information,
    test_information,
)
from .rng import child_seed, stream
from .sac import SacConfig, sac_calibrate

logger = logging.getLogger("irtcalib.study")

ALGORITHMS = ("eqc", "sac_info", "sac_msem")

# Target windows judged attainable for each standard test length.
ADAPTIVE_TARGET_RANGE = {15: (0.30, 0.60), 30: (0.40, 0.70), 60: (0.50, 0.80)}


@dataclass
class ResponseDataset:
    """A generated binary response matrix with its generating truth."""

    responses: np.ndarray  # (n_persons, n_items) of 0/1
    theta_true: np.ndarray
    pool: ItemPool
    c_applied: float
    seed: int

    @property
    def n_persons(self) -> int:
        return int(self.responses.shape[0])

    @property
    def n_items(self) -> int:
        return int(self.responses.shape[1])

    def save_csv(self, path, header: bool = False) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            if header:
                fh.write(",".join(f"item_{i + 1}" for i in range(self.n_items)) + "\n")
            for row in self.responses:
                fh.write(",".join(str(int(v)) for v in row) + "\n")


def _draw_abilities(latent: LatentSpec, n_persons: int, seed: int) -> np.ndarray:
    """The true abilities of the dataset seeded ``seed``."""
    return sample_latent(latent, n_persons, rng=stream(seed, "responses/theta")).theta


def simulate_responses(calibration, latent: LatentSpec, n_persons: int, seed: int) -> ResponseDataset:
    """Generate a calibrated dichotomous response matrix.

    ``calibration`` is any object carrying ``pool`` and ``c_star`` (either
    calibration result type). Responses are independent Bernoulli draws with
    the two-parameter logistic success probability at the calibrated scale.
    """
    n_persons = int(n_persons)
    if n_persons < 1:
        raise EmptyRequestError(f"n_persons must be >= 1, got {n_persons}")
    pool: ItemPool = calibration.pool
    c_star = float(calibration.c_star)
    theta = _draw_abilities(latent, n_persons, seed)
    p = prob_correct(theta[:, None], pool.beta[None, :], (c_star * pool.lambda0)[None, :])
    u = stream(seed, "responses/bernoulli").random(p.shape)
    return ResponseDataset(
        responses=(u < p).astype(np.int8),
        theta_true=theta,
        pool=pool,
        c_applied=c_star,
        seed=int(seed),
    )


def realized_reliability(dataset: ResponseDataset, metric: str = METRIC_AVG_INFO) -> float:
    """Plug-in reliability realized by one dataset's ability sample.

    Reads only ``theta_true``, ``pool`` and ``c_applied``; the response
    matrix plays no part.
    """
    theta = dataset.theta_true
    if theta.size < 2:
        raise InsufficientDataError("realized reliability needs at least 2 persons")
    info = test_information(theta, dataset.pool, dataset.c_applied)
    summary = reliability_from_information(info, float(np.var(theta, ddof=1)), dataset.c_applied)
    return metric_value(summary, metric)


@dataclass(frozen=True)
class StudyCondition:
    """One cell of the factorial design."""

    condition_id: int
    latent: LatentSpec
    model: str
    item_source: str  # "parametric" or "empirical_pool"
    n_items: int
    n_persons: int
    target_rho: float
    algorithm: str = "eqc"
    replications: int = 200
    pool_path: str | None = None
    allow_any_target: bool = False

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ParameterError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.n_persons < 2:
            raise ParameterError(f"n_persons must be >= 2, got {self.n_persons}")
        if self.replications < 1:
            raise ParameterError(f"replications must be >= 1, got {self.replications}")
        if not 0.0 < self.target_rho < 1.0:
            raise ParameterError(f"target_rho must lie in (0, 1), got {self.target_rho}")
        window = ADAPTIVE_TARGET_RANGE.get(self.n_items)
        if window and not self.allow_any_target:
            lo, hi = window
            if not lo <= self.target_rho <= hi:
                raise ConfigurationError(
                    f"target {self.target_rho} is outside the adaptive window [{lo}, {hi}] "
                    f"for {self.n_items} items; set allow_any_target to override"
                )

    def pool_config(self) -> PoolConfig:
        return PoolConfig(
            model=self.model,
            source=self.item_source,
            n_items=self.n_items,
            pool_path=self.pool_path,
        )

    def calibration_key(self) -> str:
        """Structural identity of the calibration; excludes n_persons and id."""
        lat = self.latent
        params = ",".join(f"{k}={lat.shape_params[k]}" for k in sorted(lat.shape_params))
        return (
            f"{lat.shape}[{params}]mu={lat.mu},sigma={lat.sigma}|{self.model}|{self.item_source}"
            f"|{self.pool_path}|I={self.n_items}|rho={self.target_rho}|{self.algorithm}"
        )


@dataclass
class ValidationRecord:
    condition_id: int
    replicate: int
    c_star: float
    achieved_rho_design: float
    realized_rho: float
    delta: float


@dataclass(frozen=True)
class StudyProfile:
    """Calibration effort shared by every condition of a study run."""

    label: str = "desk"
    m_quadrature: int = 20_000
    n_iter: int = 300
    m_per_iter: int = 500
    interval: ScaleInterval = field(default_factory=lambda: VALIDATION_INTERVAL)
    replications: int | None = None  # None -> honor each condition's own K

    @property
    def burn_in(self) -> int:
        return self.n_iter // 2

    def echo(self) -> dict:
        return {
            "profile": self.label,
            "m_quadrature": self.m_quadrature,
            "n_iter": self.n_iter,
            "burn_in": self.burn_in,
            "m_per_iter": self.m_per_iter,
            "c_bounds": [self.interval.c_lower, self.interval.c_upper],
            "replications_override": self.replications,
        }


DESK_PROFILE = StudyProfile(label="desk")
FULL_PROFILE = StudyProfile(label="full", n_iter=1000, m_per_iter=2000, replications=2000)

MID_RANGE_TARGETS = {15: 0.45, 30: 0.55, 60: 0.65}

DESK_SHAPES = (
    LatentSpec(shape="normal"),
    LatentSpec(shape="bimodal", shape_params={"delta": 0.8}),
    LatentSpec(shape="skew_pos", shape_params={"k": 4.0}),
    LatentSpec(shape="heavy_tail", shape_params={"nu": 5.0}),
)


def make_desk_grid(
    algorithms=("eqc",),
    n_persons: int = 500,
    replications: int = 200,
    targets: dict[int, float] | None = None,
) -> list[StudyCondition]:
    """The stratified desk grid: 4 shapes x 2 models x 2 sources x 3 lengths."""
    targets = targets or MID_RANGE_TARGETS
    conditions = []
    cid = 0
    for algorithm in algorithms:
        for latent in DESK_SHAPES:
            for model in ("rasch", "twopl"):
                for source in ("parametric", "empirical_pool"):
                    for n_items in (15, 30, 60):
                        conditions.append(
                            StudyCondition(
                                condition_id=cid,
                                latent=latent,
                                model=model,
                                item_source=source,
                                n_items=n_items,
                                n_persons=n_persons,
                                target_rho=targets[n_items],
                                algorithm=algorithm,
                                replications=replications,
                            )
                        )
                        cid += 1
    return conditions


@dataclass
class ConditionSummary:
    condition_id: int
    algorithm: str
    shape: str
    model: str
    item_source: str
    n_items: int
    n_persons: int
    target_rho: float
    replications: int
    c_star: float
    achieved_rho_design: float
    delta: float
    mean_realized: float
    sd_realized: float


@dataclass
class StudySummary:
    records: list[ValidationRecord]
    conditions: list[ConditionSummary]
    skipped: list[tuple[int, str]]
    algorithm_rows: list[dict]
    target_rows: list[dict]
    paths: dict
    echo: dict


def _calibrate(master_seed: int, profile: StudyProfile, condition: StudyCondition):
    """Calibrate one structural cell; returns (result, reason-if-skipped)."""
    key = condition.calibration_key()
    eqc_cfg = EqcConfig(
        target_rho=condition.target_rho,
        latent=condition.latent,
        items=condition.pool_config(),
        m_quadrature=profile.m_quadrature,
        interval=profile.interval,
        seed=child_seed(master_seed, "study/eqc/" + key),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        eqc_result = eqc_calibrate(eqc_cfg)
    if eqc_result.status != STATUS_SUCCESS and not condition.allow_any_target:
        return None, (
            f"target {condition.target_rho} infeasible on "
            f"[{profile.interval.c_lower}, {profile.interval.c_upper}] "
            f"(bracket [{eqc_result.rho_lower:.4f}, {eqc_result.rho_upper:.4f}])"
        )
    if condition.algorithm == "eqc":
        return eqc_result, None
    sac_cfg = SacConfig(
        target_rho=condition.target_rho,
        latent=condition.latent,
        items=condition.pool_config(),
        metric=_record_metric(condition.algorithm),
        n_iter=profile.n_iter,
        burn_in=profile.burn_in,
        m_per_iter=profile.m_per_iter,
        interval=profile.interval,
        c_init=eqc_result,
        seed=child_seed(master_seed, "study/sac/" + key),
    )
    return sac_calibrate(sac_cfg), None


def _record_metric(algorithm: str) -> str:
    return METRIC_MSEM if algorithm == "sac_msem" else METRIC_AVG_INFO


def _run_group(args):
    """Worker: one calibration shared by all conditions in the group."""
    master_seed, profile, group = args
    calibration, reason = _calibrate(master_seed, profile, group[0])
    if calibration is None:
        return [], [], [(c.condition_id, reason) for c in group]

    records: list[ValidationRecord] = []
    summaries: list[ConditionSummary] = []
    c_star = float(calibration.c_star)
    for condition in group:
        delta = calibration.achieved_rho - condition.target_rho
        metric = _record_metric(condition.algorithm)
        n_reps = profile.replications or condition.replications
        realized = np.empty(n_reps)
        for k in range(n_reps):
            rep_seed = child_seed(master_seed, "study/replicate", condition.condition_id, k)
            theta = _draw_abilities(condition.latent, condition.n_persons, rep_seed)
            sample = SimpleNamespace(theta_true=theta, pool=calibration.pool, c_applied=c_star)
            realized[k] = realized_reliability(sample, metric)
            records.append(
                ValidationRecord(
                    condition_id=condition.condition_id,
                    replicate=k,
                    c_star=c_star,
                    achieved_rho_design=float(calibration.achieved_rho),
                    realized_rho=float(realized[k]),
                    delta=float(delta),
                )
            )
        summaries.append(
            ConditionSummary(
                condition_id=condition.condition_id,
                algorithm=condition.algorithm,
                shape=condition.latent.shape,
                model=condition.model,
                item_source=condition.item_source,
                n_items=condition.n_items,
                n_persons=condition.n_persons,
                target_rho=condition.target_rho,
                replications=n_reps,
                c_star=c_star,
                achieved_rho_design=float(calibration.achieved_rho),
                delta=float(delta),
                mean_realized=float(np.mean(realized)),
                sd_realized=float(np.std(realized, ddof=1)) if n_reps > 1 else float("nan"),
            )
        )
    return records, summaries, []


def _write_csv(path, header: list[str], rows) -> None:
    def fmt(v) -> str:
        if isinstance(v, float):
            return repr(float(v))
        return str(v)

    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def _aggregate_by_algorithm(conditions: list[ConditionSummary]) -> list[dict]:
    rows = []
    for algorithm in sorted({c.algorithm for c in conditions}):
        deltas = np.asarray([c.delta for c in conditions if c.algorithm == algorithm])
        abs_d = np.abs(deltas)
        rows.append(
            {
                "algorithm": algorithm,
                "n_conditions": int(deltas.size),
                "mean_delta": float(np.mean(deltas)),
                "sd_delta": float(np.std(deltas, ddof=1)) if deltas.size > 1 else float("nan"),
                "mae": float(np.mean(abs_d)),
                "max_abs_delta": float(np.max(abs_d)),
                "pct_within_001": float(100.0 * np.mean(abs_d < 0.01)),
                "pct_within_002": float(100.0 * np.mean(abs_d < 0.02)),
                "pct_within_005": float(100.0 * np.mean(abs_d < 0.05)),
            }
        )
    return rows


def _aggregate_by_target(conditions: list[ConditionSummary]) -> list[dict]:
    rows = []
    keys = sorted({(c.target_rho, c.algorithm) for c in conditions})
    for target, algorithm in keys:
        achieved = np.asarray(
            [c.achieved_rho_design for c in conditions if (c.target_rho, c.algorithm) == (target, algorithm)]
        )
        rows.append(
            {
                "target_rho": target,
                "algorithm": algorithm,
                "n_conditions": int(achieved.size),
                "mean_achieved": float(np.mean(achieved)),
                "sd_achieved": float(np.std(achieved, ddof=1)) if achieved.size > 1 else float("nan"),
                "mean_delta": float(np.mean(achieved - target)),
            }
        )
    return rows


def run_validation_study(
    conditions: list[StudyCondition],
    output_dir,
    master_seed: int = 0,
    profile: StudyProfile = DESK_PROFILE,
    n_jobs: int = 1,
) -> StudySummary:
    """Run every condition, write the four output CSVs, and return the summary.

    Work is grouped by calibration key so conditions differing only in sample
    size share one calibration. With ``n_jobs > 1`` groups run in separate
    processes; outputs are byte-identical to a serial run because every
    record derives only from ``(master_seed, condition)`` and rows are sorted
    before writing.
    """
    if not conditions:
        raise EmptyRequestError("condition list is empty")
    ids = [c.condition_id for c in conditions]
    if len(set(ids)) != len(ids):
        raise ConfigurationError("condition_id values must be unique")
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)

    groups: dict[str, list[StudyCondition]] = {}
    for condition in conditions:
        groups.setdefault(condition.calibration_key(), []).append(condition)
    work = [(master_seed, profile, group) for group in groups.values()]

    if n_jobs > 1 and len(work) > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            outputs = list(pool.map(_run_group, work))
    else:
        outputs = [_run_group(w) for w in work]

    records: list[ValidationRecord] = []
    summaries: list[ConditionSummary] = []
    skipped: list[tuple[int, str]] = []
    for recs, sums, skips in outputs:
        records.extend(recs)
        summaries.extend(sums)
        skipped.extend(skips)
    records.sort(key=lambda r: (r.condition_id, r.replicate))
    summaries.sort(key=lambda s: s.condition_id)
    skipped.sort(key=lambda s: s[0])
    for cid, reason in skipped:
        logger.warning("condition %d skipped: %s", cid, reason)

    paths = {
        "records": out / "records.csv",
        "summary_by_algorithm": out / "summary_by_algorithm.csv",
        "summary_by_target": out / "summary_by_target.csv",
        "replication_sd": out / "replication_sd.csv",
    }
    _write_csv(
        paths["records"],
        ["condition_id", "replicate", "c_star", "achieved_rho_design", "realized_rho", "delta"],
        (
            [r.condition_id, r.replicate, r.c_star, r.achieved_rho_design, r.realized_rho, r.delta]
            for r in records
        ),
    )
    algorithm_rows = _aggregate_by_algorithm(summaries)
    _write_csv(
        paths["summary_by_algorithm"],
        [
            "algorithm",
            "n_conditions",
            "mean_delta",
            "sd_delta",
            "mae",
            "max_abs_delta",
            "pct_within_001",
            "pct_within_002",
            "pct_within_005",
        ],
        ([*row.values()] for row in algorithm_rows),
    )
    target_rows = _aggregate_by_target(summaries)
    _write_csv(
        paths["summary_by_target"],
        ["target_rho", "algorithm", "n_conditions", "mean_achieved", "sd_achieved", "mean_delta"],
        ([*row.values()] for row in target_rows),
    )
    _write_csv(
        paths["replication_sd"],
        [
            "condition_id",
            "algorithm",
            "shape",
            "model",
            "item_source",
            "n_items",
            "n_persons",
            "target_rho",
            "replications",
            "mean_realized",
            "sd_realized",
        ],
        (
            [
                s.condition_id,
                s.algorithm,
                s.shape,
                s.model,
                s.item_source,
                s.n_items,
                s.n_persons,
                s.target_rho,
                s.replications,
                s.mean_realized,
                s.sd_realized,
            ]
            for s in summaries
        ),
    )
    return StudySummary(
        records=records,
        conditions=summaries,
        skipped=skipped,
        algorithm_rows=algorithm_rows,
        target_rows=target_rows,
        paths={k: str(v) for k, v in paths.items()},
        echo={"master_seed": master_seed, "n_conditions": len(conditions), **profile.echo()},
    )


def compare_calibrations(eqc_result, sac_result) -> dict:
    """Relative agreement of two calibrated scales for the same target."""
    t_eqc, t_sac = eqc_result.target_rho, sac_result.target_rho
    if t_eqc != t_sac:
        raise ConfigurationError(
            f"calibrations target different reliabilities ({t_eqc} vs {t_sac}); comparison is meaningless"
        )
    c_eqc, c_sac = float(eqc_result.c_star), float(sac_result.c_star)
    pct = 100.0 * abs(c_sac - c_eqc) / c_eqc
    return {
        "target_rho": t_eqc,
        "c_eqc": c_eqc,
        "c_sac": c_sac,
        "abs_diff": abs(c_sac - c_eqc),
        "pct_diff": pct,
        "agree_5pct": bool(pct < 5.0),
    }
