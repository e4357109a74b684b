"""Calibrated response generation and the factorial validation harness.

A study is a list of conditions (latent shape x model x item source x test
length x sample size x target x algorithm). For each condition the harness
calibrates the scale, draws replicate ability samples, computes the realized
plug-in reliability of each, and writes four CSV outputs:
``records.csv`` (one row per replicate), ``summary_by_algorithm.csv``,
``summary_by_target.csv``, and ``replication_sd.csv``.

Seeding is paired within a structural cell: the structural factors
(shape, model, source, test length, target) without the algorithm and the
sample size (:meth:`StudyCondition.cell_key`). Replicate ``k`` at sample size
``N`` draws its abilities from :meth:`StudyCondition.replicate_seed`, named
by ``(master_seed, cell, N, k)``, through the stream :func:`simulate_responses`
draws abilities from, so any row can be re-run in isolation as a full
dataset, and every algorithm of the cell reads the same abilities in that
replicate: they are drawn and prepared once and evaluated for each.
Calibration seeds never depend on the sample size or condition id, because
calibration does not consume the generated-data sample size; conditions
differing only in ``n_persons`` therefore share one calibration.

:func:`calibrate_cell` is the one calibration path, for the whole study and
for a single condition alike. It solves the cell's EQC once, seeded by the
cell: the ``eqc`` rows report that solve, and the cell's
``sac_info``/``sac_msem`` calibrations warm-start from it. Those two run as
one shared SAC run seeded by the cell (:func:`~irtcalib.sac.sac_calibrate_chains`),
so they see the same ability batches, pools and evaluation blocks; each chain
equals a lone run of its config bit for bit. The comparisons between
algorithms inside a cell are therefore paired (common random numbers): what
differs is the algorithm, not the draws.

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

from .eqc import STATUS_SUCCESS, VALIDATION_INTERVAL, EqcConfig, eqc_calibrate
from .errors import ConfigurationError, EmptyRequestError, InsufficientDataError, ParameterError
from .items import ItemPool, PoolConfig
from .latent import VALIDATION_SHAPE_PARAMS, LatentSpec, sample_latent
from .psychometrics import (
    METRIC_AVG_INFO,
    METRIC_MSEM,
    PreparedSample,
    ScaleInterval,
    metric_value,
    prob_correct,
    prepare_samples,
    reliability_from_information,
    test_information,
)
from .rng import child_seed, stream
# sac_calibrate is not called here: perfbench binds study.sac_calibrate until it reads spans (ROADMAP item 20).
from .sac import SacConfig, deviation_statistics, sac_calibrate, sac_calibrate_chains

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
# 6: the information kernel takes h(x) = 1/(2 + 2 cosh x) (CalibrationResult
# schema 5, SacResult schema 6), so rows of every algorithm move in their last bits.
# 7: EQC finds its root in u = log c (CalibrationResult schema 6, SacResult
# schema 7); eqc rows and the SAC rows that warm-start from them move.
# 8: sac_msem iterations run the information kernel in float32, re-checked in
# float64 near the information floor (SacResult schema 8), so sac_msem rows
# move; eqc and sac_info rows do not.
# 9: paired within a cell: a cell's SAC algorithms run as one shared run seeded
# by the cell, and replicate k of a sample size reads the same abilities for
# every algorithm (seeded by the cell, n_persons and k, not the condition id),
# so every row's realized values move and the SAC rows' calibrations too.
SCHEMA_VERSION = 9

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
    matrix plays no part. ``theta_true`` may also be the abilities as a
    :class:`~irtcalib.psychometrics.PreparedSample`, as the study passes one
    replicate, prepared once, for every algorithm of its cell.
    """
    sample = dataset.theta_true
    if not isinstance(sample, PreparedSample):
        sample = prepare_samples(sample.reshape(1, -1))[0]
    if sample.theta.size < 2:
        raise InsufficientDataError("realized reliability needs at least 2 persons")
    info = test_information(sample, dataset.pool, dataset.c_applied)
    summary = reliability_from_information(info, sample.sigma2, dataset.c_applied)
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

    @property
    def metric(self) -> str:
        """The reliability this condition's algorithm targets and its records report."""
        return METRIC_MSEM if self.algorithm == "sac_msem" else METRIC_AVG_INFO

    def replicate_seed(self, master_seed: int, k: int) -> int:
        """Seed of replicate ``k``: named by the cell and ``n_persons``, so every algorithm of the cell shares it."""
        return child_seed(master_seed, "study/replicate/" + self.cell_key(), self.n_persons, k)


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


def calibrate_cell(master_seed: int, profile: StudyProfile,
                   conditions: list[StudyCondition]) -> tuple[dict, list[tuple[int, str]]]:
    """Calibrate the conditions of one structural cell: ``(calibrations, skipped)``.

    The cell solves EQC once, seeded by the cell: its ``eqc`` conditions take
    that solve, and its ``sac_info``/``sac_msem`` conditions are the chains
    of one shared SAC run seeded by the cell and warm-started from it. Each
    chain equals a lone run of its config bit for bit, so a condition's
    calibration does not depend on the other conditions passed with it.
    ``calibrations`` maps the id of each condition that runs to its result;
    ``skipped`` lists ``(id, reason)`` for each condition whose target the
    EQC solve missed, unless the condition sets ``allow_any_target``.
    """
    if not conditions:
        raise EmptyRequestError("calibrate_cell needs at least one condition")
    first = conditions[0]
    cell = first.cell_key()
    if any(c.cell_key() != cell for c in conditions):
        raise ConfigurationError("calibrate_cell takes the conditions of one structural cell (cell_key)")
    eqc_cfg = EqcConfig(
        target_rho=first.target_rho,
        latent=first.latent,
        items=first.pool_config(),
        m_quadrature=profile.m_quadrature,
        interval=profile.interval,
        seed=child_seed(master_seed, "study/eqc/" + cell + "|eqc"),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        eqc_result = eqc_calibrate(eqc_cfg)
    feasible = eqc_result.status == STATUS_SUCCESS
    runs = [c for c in conditions if feasible or c.allow_any_target]
    interval = profile.interval
    reason = (f"target {first.target_rho} infeasible on [{interval.c_lower}, {interval.c_upper}] "
              f"(bracket [{eqc_result.rho_lower:.4f}, {eqc_result.rho_upper:.4f}])")
    skipped = [(c.condition_id, reason) for c in conditions if not (feasible or c.allow_any_target)]
    sac = {
        c.algorithm: SacConfig(
            target_rho=c.target_rho,
            latent=c.latent,
            items=c.pool_config(),
            metric=c.metric,
            n_iter=profile.n_iter,
            burn_in=profile.burn_in,
            m_per_iter=profile.m_per_iter,
            interval=profile.interval,
            c_init=eqc_result,
            seed=child_seed(master_seed, "study/sac/" + cell),
        )
        for c in runs if c.algorithm != "eqc"
    }
    by_algorithm = {"eqc": eqc_result}
    if sac:
        by_algorithm.update(zip(sac, sac_calibrate_chains(list(sac.values()))))
    return {c.condition_id: by_algorithm[c.algorithm] for c in runs}, skipped


def _run_group(args):
    """Worker: one structural cell, calibrated by :func:`calibrate_cell`, and its shared replicates."""
    master_seed, profile, cell = args
    calibrations, skipped = calibrate_cell(master_seed, profile, cell)
    runs = [c for c in cell if c.condition_id in calibrations]
    return _summarize(master_seed, profile, runs, calibrations), skipped


def _summarize(master_seed: int, profile: StudyProfile, conditions: list[StudyCondition],
               calibrations: dict) -> list[ConditionSummary]:
    """Draw the cell's replicates and summarize each condition's realized reliability.

    Replicate ``k`` at ``n_persons`` is the dataset seeded
    :meth:`StudyCondition.replicate_seed`; its abilities are drawn and
    prepared once and evaluated for every condition of that sample size, so
    the algorithms of a cell are compared on the same abilities.
    """
    realized = {c.condition_id: np.empty(profile.replications or c.replications) for c in conditions}
    by_size: dict[int, list[StudyCondition]] = {}
    for condition in conditions:
        by_size.setdefault(condition.n_persons, []).append(condition)
    for n_persons, group in by_size.items():
        for k in range(max(realized[c.condition_id].size for c in group)):
            theta = _draw_abilities(group[0].latent, n_persons, group[0].replicate_seed(master_seed, k))
            sample = prepare_samples(theta.reshape(1, -1))[0]
            for condition in group:
                values = realized[condition.condition_id]
                if k < values.size:
                    calibration = calibrations[condition.condition_id]
                    dataset = SimpleNamespace(theta_true=sample, pool=calibration.pool,
                                              c_applied=float(calibration.c_star))
                    values[k] = realized_reliability(dataset, condition.metric)
    return [_condition_summary(c, calibrations[c.condition_id], realized[c.condition_id]) for c in conditions]


def _condition_summary(condition: StudyCondition, calibration, realized: np.ndarray) -> ConditionSummary:
    return ConditionSummary(
        condition_id=condition.condition_id,
        algorithm=condition.algorithm,
        shape=condition.latent.shape,
        model=condition.model,
        item_source=condition.item_source,
        n_items=condition.n_items,
        n_persons=condition.n_persons,
        target_rho=condition.target_rho,
        replications=realized.size,
        c_star=float(calibration.c_star),
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

    Work is grouped by structural cell (:meth:`StudyCondition.cell_key`),
    each calibrated by :func:`calibrate_cell`. With ``n_jobs > 1``
    cells run in separate processes, at most one per cell, since a cell is
    the unit of work; outputs are byte-identical to a serial run because
    every value derives only from ``(master_seed, condition)`` and the
    condition summaries are sorted by id before the per-replicate records
    are read off them.
    """
    if n_jobs < 1:
        raise ParameterError(f"n_jobs (--threads) must be >= 1, got {n_jobs}")
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

        with ProcessPoolExecutor(max_workers=min(n_jobs, len(work))) as pool:
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
