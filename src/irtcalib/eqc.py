"""Deterministic scale calibration on a frozen Monte Carlo quadrature.

One latent sample and one pool realization are drawn up front and frozen;
conditional on them the empirical reliability function is smooth, strictly
increasing in the scale, and a bracketing scalar root-finder (Brent) pins
the scale that hits the target. Targets outside the bracket
``(rho(c_lower), rho(c_upper))`` return the nearer bound with a boundary
status and a :class:`~irtcalib.errors.FeasibilityWarning` instead of failing.

Only the average-information metric is supported here: the error-variance
objective can be non-monotone in the scale for sparse item grids, which
breaks root-finding; use stochastic calibration for that metric.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Union

import numpy as np
from scipy import optimize

from .errors import ConfigurationError, FeasibilityWarning, NumericalError, ParameterError
from .items import ItemPool, PoolConfig, build_pool
from .latent import LatentSpec, sample_latent
from .psychometrics import METRIC_AVG_INFO, ScaleInterval, reliability_from_information, test_information
from .rng import child_seed, stream

DEFAULT_INTERVAL = ScaleInterval(0.3, 3.0)
VALIDATION_INTERVAL = ScaleInterval(0.1, 10.0)

STATUS_SUCCESS = "success"
STATUS_BOUNDARY_LOW = "boundary_low"
STATUS_BOUNDARY_HIGH = "boundary_high"

_MAX_ITER = 200


@dataclass(frozen=True)
class EqcConfig:
    """Inputs for a quadrature calibration run."""

    target_rho: float
    latent: LatentSpec
    items: Union[PoolConfig, ItemPool]
    m_quadrature: int = 10_000
    interval: ScaleInterval = field(default_factory=lambda: DEFAULT_INTERVAL)
    tolerance: float = 1e-8
    metric: str = METRIC_AVG_INFO
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.target_rho < 1.0:
            raise ParameterError(f"target_rho must lie in (0, 1), got {self.target_rho}")
        if self.m_quadrature < 100:
            raise ParameterError(f"m_quadrature must be >= 100, got {self.m_quadrature}")
        if self.tolerance <= 0:
            raise ParameterError(f"tolerance must be positive, got {self.tolerance}")
        if self.metric != METRIC_AVG_INFO:
            raise ConfigurationError(
                "quadrature calibration supports only the average-information metric; "
                "the error-variance objective can be non-monotone -- use SAC for it"
            )


@dataclass
class CalibrationResult:
    """Calibrated scale plus the diagnostics needed to judge and reuse it."""

    c_star: float
    achieved_rho: float
    abs_error: float
    status: str
    rho_lower: float
    rho_upper: float
    pool: ItemPool
    quadrature_sigma2: float
    evaluations: int
    metric: str
    config: EqcConfig

    @property
    def target_rho(self) -> float:
        return self.config.target_rho

    def to_dict(self) -> dict:
        cfg = self.config
        return {
            "result_type": "eqc",
            "schema_version": 1,
            "target_rho": cfg.target_rho,
            "achieved_rho": self.achieved_rho,
            "abs_error": self.abs_error,
            "c_star": self.c_star,
            "status": self.status,
            "metric": self.metric,
            "n_items": self.pool.n_items,
            "m_quadrature": cfg.m_quadrature,
            "latent_variance": self.quadrature_sigma2,
            "evaluations": self.evaluations,
            "tolerance": cfg.tolerance,
            "seed": cfg.seed,
            "bracket": {
                "c_lower": cfg.interval.c_lower,
                "c_upper": cfg.interval.c_upper,
                "rho_lower": self.rho_lower,
                "rho_upper": self.rho_upper,
            },
            "latent": cfg.latent.to_dict(),
            "pool": self.pool.to_dict(),
        }

    @staticmethod
    def from_dict(d: Mapping[str, Any]) -> "CalibrationResult":
        if d.get("result_type") != "eqc":
            raise ConfigurationError(f"expected an eqc result document, got {d.get('result_type')!r}")
        pool = ItemPool.from_dict(d["pool"])
        cfg = EqcConfig(
            target_rho=float(d["target_rho"]),
            latent=LatentSpec.from_dict(d["latent"]),
            items=pool,
            m_quadrature=int(d["m_quadrature"]),
            interval=ScaleInterval(float(d["bracket"]["c_lower"]), float(d["bracket"]["c_upper"])),
            tolerance=float(d["tolerance"]),
            metric=d["metric"],
            seed=int(d["seed"]),
        )
        return CalibrationResult(
            c_star=float(d["c_star"]),
            achieved_rho=float(d["achieved_rho"]),
            abs_error=float(d["abs_error"]),
            status=d["status"],
            rho_lower=float(d["bracket"]["rho_lower"]),
            rho_upper=float(d["bracket"]["rho_upper"]),
            pool=pool,
            quadrature_sigma2=float(d["latent_variance"]),
            evaluations=int(d["evaluations"]),
            metric=d["metric"],
            config=cfg,
        )


def _resolve_pool(items: Union[PoolConfig, ItemPool], seed: int, purpose: str) -> ItemPool:
    """One frozen pool realization; generation seeds derive from the calibration seed."""
    if isinstance(items, ItemPool):
        return items
    return build_pool(replace(items, seed=child_seed(seed, purpose)))


class _FrozenObjective:
    """The empirical reliability function on the frozen quadrature."""

    def __init__(self, config: EqcConfig):
        theta_rng = stream(config.seed, "eqc/theta")
        self.theta = sample_latent(config.latent, config.m_quadrature, rng=theta_rng).theta
        self.pool = _resolve_pool(config.items, config.seed, "eqc/pool")
        self.sigma2 = float(np.var(self.theta, ddof=1))
        self.evaluations = 0

    def rho(self, c: float) -> float:
        self.evaluations += 1
        info = test_information(self.theta, self.pool, c)
        value = reliability_from_information(info, self.sigma2, c).rho_tilde
        if not np.isfinite(value):
            raise NumericalError(f"empirical reliability is non-finite at c={c}")
        return value


def eqc_calibrate(config: EqcConfig) -> CalibrationResult:
    """Calibrate the global discrimination scale to the target reliability.

    Deterministic given ``config``: the quadrature and pool are frozen from
    the config seed, boundary reliabilities are checked first (non-strict
    comparisons, so a target equal to a bracket endpoint is a boundary
    status), and the root is then bracketed to ``config.tolerance`` in the
    scale.
    """
    frozen = _FrozenObjective(config)
    c_lo, c_hi = config.interval.c_lower, config.interval.c_upper
    rho_lo, rho_hi = frozen.rho(c_lo), frozen.rho(c_hi)
    target = config.target_rho

    status = STATUS_SUCCESS
    if target <= rho_lo:
        status, c_star = STATUS_BOUNDARY_LOW, c_lo
    elif target >= rho_hi:
        status, c_star = STATUS_BOUNDARY_HIGH, c_hi
    else:
        try:
            c_star = optimize.brentq(
                lambda c: frozen.rho(c) - target,
                c_lo,
                c_hi,
                xtol=config.tolerance,
                maxiter=_MAX_ITER,
            )
        except RuntimeError as exc:
            raise NumericalError(f"root-finding did not converge: {exc}") from exc

    achieved = frozen.rho(c_star)
    if status != STATUS_SUCCESS:
        warnings.warn(
            f"target reliability {target} lies outside the attainable bracket "
            f"[{rho_lo:.4f}, {rho_hi:.4f}] on c in [{c_lo}, {c_hi}]; returning the "
            f"boundary solution c = {c_star}. Adjust the target, the test length, "
            "or the calibration interval.",
            FeasibilityWarning,
            stacklevel=2,
        )
    return CalibrationResult(
        c_star=float(c_star),
        achieved_rho=achieved,
        abs_error=abs(achieved - target),
        status=status,
        rho_lower=rho_lo,
        rho_upper=rho_hi,
        pool=frozen.pool,
        quadrature_sigma2=frozen.sigma2,
        evaluations=frozen.evaluations,
        metric=config.metric,
        config=config,
    )


def feasibility_report(config: EqcConfig, scan_msem: bool = False, grid_size: int = 15) -> dict:
    """Screening numbers for a configuration before committing to a target.

    Reports the Monte Carlo bracket reliabilities at the interval endpoints,
    the closed-form ceiling at ``c_upper``, the reference ceiling for the
    test length, and (on request) a monotonicity scan of the error-variance
    metric over the interval.
    """
    from .psychometrics import METRIC_MSEM, analytic_ceiling, monotonicity_scan, reference_ceiling

    frozen = _FrozenObjective(config)
    interval = config.interval
    rho_lo, rho_hi = frozen.rho(interval.c_lower), frozen.rho(interval.c_upper)
    report = {
        "n_items": frozen.pool.n_items,
        "c_lower": interval.c_lower,
        "c_upper": interval.c_upper,
        "rho_lower": rho_lo,
        "rho_upper": rho_hi,
        "analytic_ceiling": analytic_ceiling(frozen.pool, frozen.sigma2, interval.c_upper),
        "reference_ceiling": reference_ceiling(frozen.pool.n_items),
        "latent_variance": frozen.sigma2,
        "feasible": bool(rho_lo < config.target_rho < rho_hi),
    }
    if scan_msem:
        scan = monotonicity_scan(frozen.pool, frozen.theta, METRIC_MSEM, interval, grid_size)
        report["msem_scan"] = {"is_monotone": scan.is_monotone, "grid": scan.grid}
    return report


def reliability_curve(config: EqcConfig, grid) -> list[tuple[float, float]]:
    """Evaluate the frozen empirical reliability function on a grid of scales.

    Uses the same frozen quadrature and pool as :func:`eqc_calibrate` for the
    same config, so curve endpoints match the calibration's bracket values.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        return []
    if np.any(grid <= 0):
        raise ParameterError("grid scales must be positive")
    frozen = _FrozenObjective(config)
    return [(float(c), frozen.rho(float(c))) for c in grid]
