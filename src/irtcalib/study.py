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

Work is grouped by structural cell: the structural factors without the
algorithm. Each cell solves EQC once, seeded as its ``eqc`` condition; the
``eqc`` rows report that solve and the cell's ``sac_info``/``sac_msem``
calibrations (each on its own seed) warm-start from it, so the EQC-vs-SAC
comparison is paired within a cell.

Realized reliability is a plug-in using the true abilities and the true
calibrated parameters, not a re-estimated quantity: it isolates exactly the
finite-sample variability of interest without involving an external
estimation stack; it reads no responses, so the harness draws none.
"""

from __future__ import annotations

import itertools
import logging
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .eqc import STATUS_SUCCESS, VALIDATION_INTERVAL, CalibrationResult, EqcConfig, eqc_calibrate
from .errors import ConfigurationError, EmptyRequestError, InsufficientDataError, ParameterError
from .items import ItemPool, PoolConfig
from .latent import VALIDATION_SHAPE_PARAMS, LatentSpec, sample_latent
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
from .sac import SacConfig, deviation_statistics, sac_calibrate

logger = logging.getLogger("irtcalib.study")

ALGORITHMS = ("eqc", "sac_info", "sac_msem")

# Version of the study's output layout and seeding, written to
# study_summary.json. 2: each structural cell solves EQC once, and its SAC
# calibrations warm-start from that solve. 3: SAC draws its iteration pools
# in one batch (SacResult schema 2), so SAC rows change; eqc rows do not.
# 4: sac_info iterations run the information kernel in float32 (SacResult
# schema 4), so sac_info rows change; eqc and sac_msem rows do not.
# 5: 2PL copula pools take log lambda from z_lam directly (CalibrationResult
# schema 4, SacResult schema 5); a study's 2PL pools are copula pools, so
# 2PL rows change in their last bits and Rasch rows do not.
SCHEMA_VERSION = 5

# Target windows judged attainable for each standard test length.
ADAPTIVE_TARGET_RANGE = {15: (0.30, 0.60), 30: (0.40, 0.70), 60: (0.50, 0.80)}

# Rows per block of the response generator and the CSV writer. The uniforms
# are the next draws of one stream and every probability is elementwise, so
# the bytes do not depend on this number; it bounds each float64 temporary at
# _BLOCK_ROWS x I, so that only the int8 matrix grows with the person count.
_BLOCK_ROWS = 4096


def _row_blocks(n_rows: int):
    """``(start, stop)`` of each block of at most ``_BLOCK_ROWS`` rows, in order."""
    for start in range(0, n_rows, _BLOCK_ROWS):
        yield start, min(start + _BLOCK_ROWS, n_rows)


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
        """Write the matrix as CSV: ``0``/``1`` joined by ``,``, rows ended by ``\\n``.

        The optional header row names the items ``item_1,...,item_I``. Every
        row is checked before the file is opened; the bytes are then formatted
        one row block at a time in one reused buffer.
        """
        responses = np.asarray(self.responses)
        for start, stop in _row_blocks(self.n_persons):
            block = responses[start:stop]
            if ((block != 0) & (block != 1)).any():
                raise ParameterError("responses must be 0 or 1 to be written as CSV")
        # One byte per character: a digit then its separator, "," or "\n".
        buf = np.full((min(_BLOCK_ROWS, self.n_persons), 2 * self.n_items), ord(","), dtype=np.uint8)
        buf[:, -1] = ord("\n")
        with open(path, "wb") as fh:
            if header:
                names = ",".join(f"item_{i + 1}" for i in range(self.n_items))
                fh.write(f"{names}\n".encode("utf-8"))
            for start, stop in _row_blocks(self.n_persons):
                rows = buf[: stop - start]
                digits = rows[:, 0::2]
                digits[...] = responses[start:stop]
                digits += ord("0")
                fh.write(rows)


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
    beta = pool.beta[None, :]
    lam = (c_star * pool.lambda0)[None, :]
    uniforms = stream(seed, "responses/bernoulli")
    responses = np.empty((n_persons, pool.n_items), dtype=np.int8)
    for start, stop in _row_blocks(n_persons):
        p = prob_correct(theta[start:stop, None], beta, lam)
        np.less(uniforms.random(p.shape), p, out=responses[start:stop], casting="unsafe")
    return ResponseDataset(
        responses=responses,
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
        if self.condition_id < 0:
            raise ParameterError(f"condition_id must be >= 0, got {self.condition_id}")
        if self.n_persons < 2:
            raise ParameterError(f"n_persons must be >= 2, got {self.n_persons}")
        if self.replications < 1:
            raise ParameterError(f"replications must be >= 1, got {self.replications}")
        if not 0.0 < self.target_rho < 1.0:
            raise ParameterError(f"target_rho must lie in (0, 1), got {self.target_rho}")
        self.pool_config()  # rejects a bad model, item source or test length before any calibration
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

    def cell_key(self) -> str:
        """Structural cell: every calibration factor but the algorithm."""
        lat = self.latent
        params = ",".join(f"{k}={lat.shape_params[k]}" for k in sorted(lat.shape_params))
        return (
            f"{lat.shape}[{params}]mu={lat.mu},sigma={lat.sigma}|{self.model}|{self.item_source}"
            f"|{self.pool_path}|I={self.n_items}|rho={self.target_rho}"
        )

    def calibration_key(self) -> str:
        """Structural identity of the calibration; excludes n_persons and id."""
        return f"{self.cell_key()}|{self.algorithm}"


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

DESK_SHAPES = tuple(LatentSpec(shape=s, shape_params=dict(p)) for s, p in VALIDATION_SHAPE_PARAMS.items())


def make_grid(
    shapes,
    models,
    item_sources,
    test_lengths,
    n_persons,
    targets: dict[int, float],
    algorithms=("eqc",),
    replications: int = 200,
    pool_path: str | None = None,
    allow_any_target: bool = False,
) -> list[StudyCondition]:
    """Cross the factors into conditions numbered from 0.

    The crossing order is algorithm, shape, model, item source, test length,
    sample size, the last varying fastest; ``targets`` maps each test length
    to its target reliability.
    """
    cells = itertools.product(algorithms, shapes, models, item_sources, test_lengths, n_persons)
    return [
        StudyCondition(
            condition_id=cid,
            latent=latent,
            model=model,
            item_source=source,
            n_items=int(n_items),
            n_persons=int(n),
            target_rho=targets[n_items],
            algorithm=algorithm,
            replications=replications,
            pool_path=pool_path,
            allow_any_target=allow_any_target,
        )
        for cid, (algorithm, latent, model, source, n_items, n) in enumerate(cells)
    ]


def make_desk_grid(
    algorithms=("eqc",),
    n_persons: int = 500,
    replications: int = 200,
    targets: dict[int, float] | None = None,
) -> list[StudyCondition]:
    """The stratified desk grid: 4 shapes x 2 models x 2 sources x 3 lengths."""
    return make_grid(DESK_SHAPES, ("rasch", "twopl"), ("parametric", "empirical_pool"), (15, 30, 60),
                     (n_persons,), targets or MID_RANGE_TARGETS, algorithms, replications)


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
    realized: np.ndarray = field(repr=False, compare=False)  # one value per replicate


@dataclass
class StudySummary:
    conditions: list[ConditionSummary]
    skipped: list[tuple[int, str]]
    algorithm_rows: list[dict]
    target_rows: list[dict]
    paths: dict


def _solve_eqc(master_seed: int, profile: StudyProfile, condition: StudyCondition) -> CalibrationResult:
    """The one EQC solve of the condition's structural cell.

    Seeded by the cell's ``eqc`` calibration key, whatever the condition's
    algorithm, so ``eqc`` rows and SAC warm starts come from the same solve.
    """
    eqc_cfg = EqcConfig(
        target_rho=condition.target_rho,
        latent=condition.latent,
        items=condition.pool_config(),
        m_quadrature=profile.m_quadrature,
        interval=profile.interval,
        seed=child_seed(master_seed, "study/eqc/" + condition.cell_key() + "|eqc"),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return eqc_calibrate(eqc_cfg)


def _calibrate(master_seed: int, profile: StudyProfile, condition: StudyCondition, eqc_result=None):
    """Calibrate one condition; returns (result, reason-if-skipped).

    ``eqc_result`` is the cell's :func:`_solve_eqc` result, solved here when
    not given: an ``eqc`` condition returns it, and SAC warm-starts from it.
    """
    if eqc_result is None:
        eqc_result = _solve_eqc(master_seed, profile, condition)
    reason = _skip_reason(profile, condition, eqc_result)
    if reason is not None:
        return None, reason
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
        seed=child_seed(master_seed, "study/sac/" + condition.calibration_key()),
    )
    return sac_calibrate(sac_cfg), None


def _skip_reason(profile: StudyProfile, condition: StudyCondition, eqc_result) -> str | None:
    """Why ``condition`` is skipped, or None: ``allow_any_target`` runs it past a missed EQC solve."""
    if eqc_result.status == STATUS_SUCCESS or condition.allow_any_target:
        return None
    interval = profile.interval
    return (f"target {condition.target_rho} infeasible on [{interval.c_lower}, {interval.c_upper}] "
            f"(bracket [{eqc_result.rho_lower:.4f}, {eqc_result.rho_upper:.4f}])")


def _record_metric(algorithm: str) -> str:
    return METRIC_MSEM if algorithm == "sac_msem" else METRIC_AVG_INFO


def _run_group(args):
    """Worker: one structural cell, its one EQC solve and one calibration per algorithm."""
    master_seed, profile, cell = args
    eqc_result = _solve_eqc(master_seed, profile, cell[0])
    summaries: list[ConditionSummary] = []
    skipped: list[tuple[int, str]] = []
    calibrations = {}  # one per algorithm, by its first condition that is not skipped
    for condition in cell:
        reason = _skip_reason(profile, condition, eqc_result)
        if reason is not None:
            skipped.append((condition.condition_id, reason))
            continue
        if condition.algorithm not in calibrations:
            calibrations[condition.algorithm] = _calibrate(master_seed, profile, condition, eqc_result)[0]
        summaries.append(_summarize(master_seed, profile, condition, calibrations[condition.algorithm]))
    return summaries, skipped


def _summarize(master_seed: int, profile: StudyProfile, condition: StudyCondition,
               calibration) -> ConditionSummary:
    """Draw the condition's replicates and summarize their realized reliability."""
    c_star = float(calibration.c_star)
    metric = _record_metric(condition.algorithm)
    n_reps = profile.replications or condition.replications
    realized = np.empty(n_reps)
    for k in range(n_reps):
        rep_seed = child_seed(master_seed, "study/replicate", condition.condition_id, k)
        theta = _draw_abilities(condition.latent, condition.n_persons, rep_seed)
        sample = SimpleNamespace(theta_true=theta, pool=calibration.pool, c_applied=c_star)
        realized[k] = realized_reliability(sample, metric)
    return ConditionSummary(
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
        delta=float(calibration.achieved_rho - condition.target_rho),
        mean_realized=float(np.mean(realized)),
        sd_realized=_sd(realized),
        realized=realized,
    )


def _sd(values: np.ndarray) -> float:
    return float(np.std(values, ddof=1)) if values.size > 1 else float("nan")


# Column order of each output table; the aggregators build their rows in this order.
_RECORD_COLUMNS = ("condition_id", "replicate", "c_star", "achieved_rho_design", "realized_rho", "delta")
_ALGORITHM_COLUMNS = (
    "algorithm", "n_conditions", "mean_delta", "sd_delta", "mae", "max_abs_delta",
    "pct_within_001", "pct_within_002", "pct_within_005",
)
_TARGET_COLUMNS = ("target_rho", "algorithm", "n_conditions", "mean_achieved", "sd_achieved", "mean_delta")
_REPLICATION_SD_COLUMNS = (
    "condition_id", "algorithm", "shape", "model", "item_source", "n_items", "n_persons",
    "target_rho", "replications", "mean_realized", "sd_realized",
)


def _cell(v) -> str:
    """One CSV cell: floats (numpy's too) as ``repr``, anything else as ``str``."""
    return repr(float(v)) if isinstance(v, float) else str(v)


def _write_csv(path, columns, rows) -> None:
    """Write ``row[c]`` for each column of each mapping, one :func:`_cell` each."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_cell(row[c]) for c in columns) + "\n")


def _write_records(path, conditions: list[ConditionSummary]) -> None:
    """``records.csv`` as :func:`_write_csv` writes it: one row per replicate, conditions in order.

    Each condition's constant cells are formatted once, so a replicate costs one f-string.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_RECORD_COLUMNS) + "\n")
        for c in conditions:
            cid, delta = _cell(c.condition_id), _cell(c.delta)
            design = f"{_cell(c.c_star)},{_cell(c.achieved_rho_design)}"
            fh.writelines(f"{cid},{k},{design},{rho!r},{delta}\n" for k, rho in enumerate(c.realized.tolist()))


def _aggregate_by_algorithm(conditions: list[ConditionSummary]) -> list[dict]:
    rows = []
    for algorithm in sorted({c.algorithm for c in conditions}):
        deltas = np.asarray([c.delta for c in conditions if c.algorithm == algorithm])
        rows.append({"algorithm": algorithm, "n_conditions": int(deltas.size), **deviation_statistics(deltas)})
    return rows


def _aggregate_by_target(conditions: list[ConditionSummary]) -> list[dict]:
    rows = []
    keys = sorted({(c.target_rho, c.algorithm) for c in conditions})
    for target, algorithm in keys:
        achieved = np.asarray(
            [c.achieved_rho_design for c in conditions if (c.target_rho, c.algorithm) == (target, algorithm)]
        )
        values = (
            target,
            algorithm,
            int(achieved.size),
            float(np.mean(achieved)),
            _sd(achieved),
            float(np.mean(achieved - target)),
        )
        rows.append(dict(zip(_TARGET_COLUMNS, values)))
    return rows


def run_validation_study(
    conditions: list[StudyCondition],
    output_dir,
    master_seed: int = 0,
    profile: StudyProfile = DESK_PROFILE,
    n_jobs: int = 1,
) -> StudySummary:
    """Run every condition, write the four output CSVs, and return the summary.

    Work is grouped by structural cell (:meth:`StudyCondition.cell_key`):
    each cell solves EQC once, its ``eqc`` conditions use that solve and its
    ``sac_info``/``sac_msem`` calibrations warm-start from it, and conditions
    differing only in sample size share one calibration. With ``n_jobs > 1``
    cells run in separate processes (a cell is the unit of work, so
    processes beyond the number of cells stay idle); outputs are
    byte-identical to a serial run because every value derives only from
    ``(master_seed, condition)`` and the condition summaries are sorted by
    id before the per-replicate records are read off them.
    """
    if not conditions:
        raise EmptyRequestError("condition list is empty")
    ids = [c.condition_id for c in conditions]
    if len(set(ids)) != len(ids):
        raise ConfigurationError("condition_id values must be unique")
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)

    cells: dict[str, list[StudyCondition]] = {}
    for condition in conditions:
        cells.setdefault(condition.cell_key(), []).append(condition)
    work = [(master_seed, profile, cell) for cell in cells.values()]

    if n_jobs > 1 and len(work) > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing, which only this path needs

        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            outputs = list(pool.map(_run_group, work))
    else:
        outputs = [_run_group(w) for w in work]

    summaries: list[ConditionSummary] = []
    skipped: list[tuple[int, str]] = []
    for sums, skips in outputs:
        summaries.extend(sums)
        skipped.extend(skips)
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
    algorithm_rows = _aggregate_by_algorithm(summaries)
    target_rows = _aggregate_by_target(summaries)
    _write_records(paths["records"], summaries)
    _write_csv(paths["summary_by_algorithm"], _ALGORITHM_COLUMNS, algorithm_rows)
    _write_csv(paths["summary_by_target"], _TARGET_COLUMNS, target_rows)
    _write_csv(paths["replication_sd"], _REPLICATION_SD_COLUMNS, map(vars, summaries))
    return StudySummary(
        conditions=summaries,
        skipped=skipped,
        algorithm_rows=algorithm_rows,
        target_rows=target_rows,
        paths={k: str(v) for k, v in paths.items()},
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
