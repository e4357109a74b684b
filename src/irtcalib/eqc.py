"""Deterministic scale calibration on a frozen Monte Carlo quadrature.

One latent sample and one pool realization are drawn up front and frozen;
conditional on them the empirical reliability function is smooth in the
scale, and Brent's bracketing root-finder pins the scale that hits the
target. The solver, :func:`_brent_root`, is a port of scipy's ``brentq``
(Brent 1973, *Algorithms for Minimization without Derivatives*) that returns
the same root bit for bit without importing scipy; it starts from the bracket
values and returns the root's evaluation, so no scale is evaluated twice and
``evaluations`` counts distinct scales.

It solves where the curve is nearly straight: in ``u = log c``, for
``g(u) = log(sigma2*Jbar(e^u)) - log(rho*/(1 - rho*))``, the log-odds of
``rho_tilde`` less the target's. ``g`` is taken from ``Jbar``, so it stays
finite where ``rho_tilde`` rounds to 1, and is ``-inf`` where ``Jbar``
underflows to 0. A tolerance of ``tolerance / c_upper`` in ``u`` closes the
bracket in ``c`` below ``tolerance``. On the desk grid this takes 8-9
evaluations per solve, bracket ends included, where Brent on
``rho_tilde(c)`` took about 12.6.

The function increases with the scale while most of the latent mass lies
within ``|c*lambda0*(theta - beta)| < 2.399`` of the items (where
:func:`~irtcalib.psychometrics.phi` is positive); with items far from the
latent mass it can peak and fall inside the bracket, and the boundary check
below then misreads a reachable target as infeasible (ROADMAP open item 1).
Targets outside the bracket ``(rho(c_lower), rho(c_upper))`` return the
nearer bound with a boundary status and a
:class:`~irtcalib.errors.FeasibilityWarning` instead of failing.

Only the average-information metric is supported here: the error-variance
objective can be non-monotone in the scale for sparse item grids, which
breaks root-finding; use stochastic calibration for that metric.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from .errors import (
    ConfigurationError, FeasibilityWarning, NumericalError, ParameterError, real_number, whole_number,
)
from .items import ItemPool, PoolConfig, build_pool
from .latent import LatentSpec, sample_latent
from .psychometrics import (
    DEFAULT_INTERVAL, METRIC_AVG_INFO, ReliabilitySummary, ScaleInterval, analytic_ceiling, prepare_samples,
    reference_ceiling, reliability_from_information, test_information,
)
from .rng import child_seed, stream

VALIDATION_INTERVAL = ScaleInterval(0.1, 10.0)

STATUS_SUCCESS = "success"
STATUS_BOUNDARY_LOW = "boundary_low"
STATUS_BOUNDARY_HIGH = "boundary_high"
STATUSES = (STATUS_SUCCESS, STATUS_BOUNDARY_LOW, STATUS_BOUNDARY_HIGH)

# Brent's iteration cap, and the relative tolerance scipy's brentq uses by default.
_MAX_ITER = 200
_RTOL = 4 * sys.float_info.epsilon


@dataclass(frozen=True)
class EqcConfig:
    """Inputs for a quadrature calibration run."""

    target_rho: float
    latent: LatentSpec
    items: PoolConfig | ItemPool
    m_quadrature: int = 10_000
    interval: ScaleInterval = DEFAULT_INTERVAL
    tolerance: float = 1e-8
    metric: str = METRIC_AVG_INFO
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.target_rho < 1.0:
            raise ParameterError(f"target_rho must lie in (0, 1), got {self.target_rho}")
        if self.m_quadrature < 100:
            raise ParameterError(f"m_quadrature must be >= 100, got {self.m_quadrature}")
        width = self.interval.c_upper - self.interval.c_lower
        if not 0 < self.tolerance < width:  # False for NaN; a tolerance as wide as the bracket solves nothing
            raise ParameterError(
                f"tolerance must be positive and below c_upper - c_lower = {width}, got {self.tolerance}")
        if self.metric != METRIC_AVG_INFO:
            raise ConfigurationError(
                "quadrature calibration supports only the average-information metric; "
                "the error-variance objective can be non-monotone -- use SAC for it"
            )


class ResultDocument:
    """Base of both calibration results: their config's target and metric, and
    the one writer (:meth:`_document`) and one checked reader (:meth:`_read_shared`)
    of the keys both documents share. A subclass sets ``RESULT_TYPE``,
    ``SCHEMA_VERSION`` (versions 1 to it load) and ``STATUSES``."""

    @property
    def target_rho(self) -> float:
        return self.config.target_rho

    @property
    def metric(self) -> str:
        return self.config.metric

    @property
    def abs_error(self) -> float:
        return abs(self.achieved_rho - self.config.target_rho)

    def _document(self, own: dict, bracket: dict) -> dict:
        """The shared keys in their order, ``own`` keys before ``seed`` and ``bracket`` after the scales."""
        cfg = self.config
        return {
            "result_type": self.RESULT_TYPE,
            "schema_version": self.SCHEMA_VERSION,
            "target_rho": cfg.target_rho,
            "achieved_rho": self.achieved_rho,
            "abs_error": self.abs_error,
            "c_star": self.c_star,
            "status": self.status,
            "metric": cfg.metric,
            "n_items": self.pool.n_items,
            **own,
            "seed": cfg.seed,
            "bracket": {"c_lower": cfg.interval.c_lower, "c_upper": cfg.interval.c_upper, **bracket},
            "latent": cfg.latent.to_dict(),
            "pool": self.pool.to_dict(),
        }

    @classmethod
    def _read_shared(cls, d: Mapping[str, Any]) -> tuple[int, dict, dict]:
        """Check the shared keys of document ``d``; its schema version, and the
        shared fields of its config and of its result, as keyword arguments."""
        kind = cls.RESULT_TYPE
        if d.get("result_type") != kind:
            raise ConfigurationError(f"expected result_type {kind!r}, got {d.get('result_type')!r}")
        version, versions = d.get("schema_version"), range(1, cls.SCHEMA_VERSION + 1)
        if type(version) is not int or version not in versions:
            raise ConfigurationError(f"unsupported {kind} result schema_version {version!r}; "
                                     f"expected {', '.join(map(str, versions[:-1]))} or {versions[-1]}")
        status = d["status"]
        if status not in cls.STATUSES:
            raise ConfigurationError(
                f"unknown {kind} result status {status!r}; expected one of {cls.STATUSES}")
        real_number("abs_error", d["abs_error"])  # derived from the target and achieved_rho
        pool = ItemPool.from_dict(d["pool"])
        bracket = d["bracket"]
        if not isinstance(bracket, Mapping):
            raise ParameterError(f"bracket must be an object, got {bracket!r}")
        config = dict(
            target_rho=real_number("target_rho", d["target_rho"]), latent=LatentSpec.from_dict(d["latent"]),
            items=pool, interval=ScaleInterval(real_number("bracket.c_lower", bracket["c_lower"]),
                                               real_number("bracket.c_upper", bracket["c_upper"])),
            metric=d["metric"], seed=whole_number("seed", d["seed"]),
        )
        result = dict(c_star=real_number("c_star", d["c_star"]), status=status, pool=pool,
                      achieved_rho=real_number("achieved_rho", d["achieved_rho"]))
        return version, config, result


@dataclass
class CalibrationResult(ResultDocument):
    """Calibrated scale plus the diagnostics needed to judge and reuse it."""

    RESULT_TYPE = "eqc"
    # 6: the root is found in u = log c (c* moves by up to about 5e-9 relative);
    # 5: the information kernel takes h(x) = 1/(2 + 2 cosh x) (last-bit moves);
    # 4: 2PL copula pools take log lambda from z_lam directly, so their
    # discriminations move in the last bits;
    # 3: evaluations counts distinct scales; 2: it counted calls, which
    # re-evaluated both bracket ends and the root; 1: also held latent.seed
    SCHEMA_VERSION = 6
    STATUSES = STATUSES

    c_star: float
    achieved_rho: float
    status: str
    rho_lower: float
    rho_upper: float
    pool: ItemPool
    quadrature_sigma2: float
    evaluations: int
    config: EqcConfig

    def to_dict(self) -> dict:
        own = {"m_quadrature": self.config.m_quadrature, "latent_variance": self.quadrature_sigma2,
               "evaluations": self.evaluations, "tolerance": self.config.tolerance}
        return self._document(own, {"rho_lower": self.rho_lower, "rho_upper": self.rho_upper})

    @staticmethod
    def from_dict(d: Mapping[str, Any]) -> "CalibrationResult":
        version, config, shared = CalibrationResult._read_shared(d)
        evaluations = whole_number("evaluations", d["evaluations"])
        if version < 3:  # a count of calls: 3 repeats after a solve, 1 at a boundary
            evaluations -= 3 if shared["status"] == STATUS_SUCCESS else 1
        cfg = EqcConfig(
            **config,
            m_quadrature=whole_number("m_quadrature", d["m_quadrature"]),
            tolerance=real_number("tolerance", d["tolerance"]),
        )
        bracket = d["bracket"]
        return CalibrationResult(
            **shared,
            rho_lower=real_number("bracket.rho_lower", bracket["rho_lower"]),
            rho_upper=real_number("bracket.rho_upper", bracket["rho_upper"]),
            quadrature_sigma2=real_number("latent_variance", d["latent_variance"]),
            evaluations=evaluations,
            config=cfg,
        )


class _FrozenObjective:
    """The empirical reliability function on the frozen quadrature."""

    def __init__(self, config: EqcConfig):
        theta = sample_latent(config.latent, config.m_quadrature, rng=stream(config.seed, "eqc/theta")).theta
        self.sample = prepare_samples(theta.reshape(1, -1))[0]
        self.pool = build_pool(config.items, child_seed(config.seed, "eqc/pool"))
        self.evaluations = 0

    def summary(self, c: float) -> ReliabilitySummary:
        self.evaluations += 1
        info = test_information(self.sample, self.pool, c)
        summary = reliability_from_information(info, self.sample.sigma2, c)
        if not np.isfinite(summary.rho_tilde):
            raise NumericalError(f"empirical reliability is non-finite at c={c}")
        return summary

    def rho(self, c: float) -> float:
        return self.summary(c).rho_tilde


def _log_top(summary: ReliabilitySummary) -> float:
    """``log(sigma2 * Jbar)``, the log-odds of ``rho_tilde``; -inf where ``Jbar`` is 0."""
    top = summary.sigma2_theta * summary.j_bar
    return math.log(top) if top > 0 else -math.inf


def _log_scale_root(frozen: _FrozenObjective, target: float, lo: ReliabilitySummary, hi: ReliabilitySummary,
                    xtol: float) -> ReliabilitySummary:
    """The evaluation at the root of ``g(u) = log(sigma2*Jbar(e^u)) - log(target/(1 - target))``.

    :func:`_brent_root` solves ``g`` on ``[log c_lower, log c_upper]``, where
    the curve is nearly straight, to ``xtol`` in ``u``. It evaluates the
    scale ``e^u``; its bracket ends are the evaluations ``lo`` and ``hi``.
    Where ``Jbar`` is 0 at ``lo``, ``g`` is -inf there and Brent's steps
    from it are wasted, so the bracket is first bisected in ``u`` until its
    lower end is finite. (``hi`` reaches the target, so its ``g`` is finite.)
    """
    u_lo, u_hi = math.log(lo.c), math.log(hi.c)
    g_lo, g_hi = _log_top(lo), _log_top(hi)
    goal = math.log(target / (1.0 - target))
    seen = {u_lo: lo, u_hi: hi}

    def log_top(u: float) -> float:
        summary = seen[u] = frozen.summary(math.exp(u))
        return _log_top(summary)

    while g_lo == -math.inf and u_hi - u_lo > xtol:
        u = 0.5 * (u_lo + u_hi)
        g = log_top(u)
        if g < goal:
            u_lo, g_lo = u, g
        else:
            u_hi, g_hi = u, g
    u, _ = _brent_root(log_top, goal, u_lo, u_hi, g_lo, g_hi, xtol)
    return seen[u]


def _brent_root(rho, target, xa, xb, rho_a, rho_b, xtol):
    """The root ``c`` of ``rho(c) - target`` in ``[xa, xb]``, and ``rho(c)``.

    Brent's method as scipy's ``brentq.c`` implements it, step for step and
    operation for operation (``rtol = 4 eps``, at most ``_MAX_ITER``
    iterations), so the root is the one ``brentq`` returns, bit for bit. It
    takes ``rho_a = rho(xa)`` and ``rho_b = rho(xb)`` from the caller and
    calls ``rho`` only at new scales. ``pre`` is the previous iterate,
    ``cur`` the best one and ``blk`` the contrapoint that brackets the root
    with it; ``spre``/``scur`` are the previous two steps.
    """
    xpre, fpre, rpre = xa, rho_a - target, rho_a
    xcur, fcur, rcur = xb, rho_b - target, rho_b
    xblk = fblk = rblk = spre = scur = 0.0
    if fpre == 0:
        return xpre, rpre
    if fcur == 0:
        return xcur, rcur
    if (fpre < 0) == (fcur < 0):
        raise NumericalError(f"rho - target has the same sign at both ends of [{xa}, {xb}]")
    for _ in range(_MAX_ITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk, rblk = xpre, fpre, rpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
            rpre, rcur, rblk = rcur, rblk, rcur

        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, rcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)
                # C's division by zero gives an infinite or NaN step, which bisects below.
                stry = -fcur * (fblk * dblk - fpre * dpre) / denom if denom else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre, rpre = xcur, fcur, rcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        rcur = rho(xcur)
        fcur = rcur - target
    raise NumericalError(f"root-finding did not converge in {_MAX_ITER} iterations; last scale {xcur}")


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
    lo, hi = frozen.summary(c_lo), frozen.summary(c_hi)
    rho_lo, rho_hi = lo.rho_tilde, hi.rho_tilde
    target = config.target_rho

    status = STATUS_SUCCESS
    if target <= rho_lo:
        status, c_star, achieved = STATUS_BOUNDARY_LOW, c_lo, rho_lo
    elif target >= rho_hi:
        status, c_star, achieved = STATUS_BOUNDARY_HIGH, c_hi, rho_hi
    else:
        # A width below tolerance / c_upper in u is one below tolerance in c.
        root = _log_scale_root(frozen, target, lo, hi, config.tolerance / c_hi)
        c_star, achieved = root.c, root.rho_tilde

    result = CalibrationResult(
        c_star=float(c_star),
        achieved_rho=achieved,
        status=status,
        rho_lower=rho_lo,
        rho_upper=rho_hi,
        pool=frozen.pool,
        quadrature_sigma2=frozen.sample.sigma2,
        evaluations=frozen.evaluations,
        config=config,
    )
    if status != STATUS_SUCCESS:
        warnings.warn(infeasible_message(result), FeasibilityWarning, stacklevel=2)
    return result


def infeasible_message(result: CalibrationResult) -> str:
    """Why a boundary-status result was returned, and what to change.

    Where reliability is lower at ``c_upper`` than at ``c_lower`` there is no
    attainable bracket to state: the curve falls across the interval and may
    peak inside it.
    """
    cfg = result.config
    if result.rho_upper < result.rho_lower:
        return (
            f"target {cfg.target_rho} may be infeasible: reliability falls across c in "
            f"[{cfg.interval.c_lower}, {cfg.interval.c_upper}], from {result.rho_lower:.4f} to "
            f"{result.rho_upper:.4f}, and may peak inside the interval, where the target could be "
            f"reachable; the boundary solution c = {result.c_star} was returned. `irtcalib bounds` "
            "reports this configuration; EQC does not yet search for the peak (ROADMAP item 1)."
        )
    return (
        f"infeasible target: {cfg.target_rho} lies outside the attainable bracket "
        f"[{result.rho_lower:.4f}, {result.rho_upper:.4f}] for c in "
        f"[{cfg.interval.c_lower}, {cfg.interval.c_upper}]; the boundary solution "
        f"c = {result.c_star} was returned. Adjust the target, the test length, "
        "or widen the calibration interval."
    )


def feasibility_report(config: EqcConfig, scan_msem: bool = False, grid_size: int = 15) -> dict:
    """Screening numbers for a configuration before committing to a target.

    Reports the Monte Carlo bracket reliabilities at the interval endpoints,
    the closed-form ceiling at ``c_upper``, the reference ceiling for the
    test length, and (on request) a scan of the frozen objective's
    error-variance reliability ``w_bar`` over ``grid_size >= 3`` geometric
    grid points of the interval. The scan is monotone only if every step
    exceeds 1e-10, so ties count as non-monotone: the screen for whether
    error-variance targeting is well-posed on the interval.
    """
    if scan_msem and grid_size < 3:
        raise ParameterError(f"grid_size must be >= 3, got {grid_size}")
    frozen = _FrozenObjective(config)
    interval = config.interval
    if scan_msem:  # np.geomspace returns both ends exactly, so the scan's ends are the bracket's
        scan = [frozen.summary(float(c)) for c in np.geomspace(interval.c_lower, interval.c_upper, int(grid_size))]
        rho_lo, rho_hi = scan[0].rho_tilde, scan[-1].rho_tilde
    else:
        rho_lo, rho_hi = frozen.rho(interval.c_lower), frozen.rho(interval.c_upper)
    report = {
        "n_items": frozen.pool.n_items,
        "c_lower": interval.c_lower,
        "c_upper": interval.c_upper,
        "rho_lower": rho_lo,
        "rho_upper": rho_hi,
        "analytic_ceiling": analytic_ceiling(frozen.pool, frozen.sample.sigma2, interval.c_upper),
        "reference_ceiling": reference_ceiling(frozen.pool.n_items),
        "latent_variance": frozen.sample.sigma2,
        "feasible": bool(rho_lo < config.target_rho < rho_hi),
    }
    if scan_msem:
        grid = [(summary.c, summary.w_bar) for summary in scan]
        steps = np.diff([w for _, w in grid])
        report["msem_scan"] = {"is_monotone": bool(np.all(steps > 1e-10)), "grid": grid}
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
