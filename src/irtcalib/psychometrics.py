"""Closed-form IRT math for the two-parameter logistic model.

Conventions used throughout:

* ``h(x) = s(x)(1 - s(x))`` is the logistic variance kernel with
  ``s`` the inverse logit; ``0 < h(x) <= 1/4`` with equality only at 0.
* Item information at scale ``c`` is ``(c*lambda0)^2 * h(c*lambda0*(theta - beta))``
  and test information is the sum over items.
* Two marginal reliability functionals share the variance-ratio form:
  the average-information version ``rho_tilde = s2*Jbar / (s2*Jbar + 1)`` built
  from the arithmetic mean of information, and the error-variance version
  ``w_bar = s2 / (s2 + mean(1/J))`` built from the mean squared error of
  measurement (harmonic-mean structure). Jensen's inequality gives
  ``rho_tilde >= w_bar`` on any sample.

Information values below ``1e-300`` are treated as exact zeros: the mean
squared error of measurement is then infinite, ``w_bar`` collapses to 0, and
the summary carries an ``underflow`` flag instead of silent NaNs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import EmptyRequestError, ParameterError
from .items import ItemPool

INFO_FLOOR = 1e-300

METRIC_AVG_INFO = "avg_info"
METRIC_MSEM = "msem"
METRICS = (METRIC_AVG_INFO, METRIC_MSEM)

# Smallest/largest representable probabilities strictly inside (0, 1).
_P_LO = np.nextafter(0.0, 1.0)
_P_HI = np.nextafter(1.0, 0.0)


def prob_correct(theta, beta, lam):
    """Probability of a correct response; overflow-safe and strictly inside (0, 1)."""
    theta = np.asarray(theta, dtype=float)
    beta = np.asarray(beta, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(beta)) and np.all(np.isfinite(lam))):
        raise ParameterError("theta, beta, and lam must all be finite")
    if np.any(lam <= 0):
        raise ParameterError(f"lam must be positive, got {lam}")
    p = np.clip(expit(lam * (theta - beta)), _P_LO, _P_HI)
    return float(p) if p.ndim == 0 else p


def logistic_kernel(x):
    """The logistic variance kernel ``s(x)(1 - s(x))``, evaluated stably."""
    x = np.asarray(x, dtype=float)
    a = np.exp(-np.abs(x))
    out = a / (1.0 + a) ** 2
    return float(out) if out.ndim == 0 else out


def item_information(theta, beta, lam):
    """Fisher information of a single item: ``lam^2 * h(lam*(theta - beta))``."""
    theta = np.asarray(theta, dtype=float)
    lam = np.asarray(lam, dtype=float)
    out = lam**2 * logistic_kernel(lam * (theta - np.asarray(beta, dtype=float)))
    return float(out) if np.ndim(out) == 0 else out


def _test_info_values(theta: np.ndarray, pool: ItemPool, c: float) -> np.ndarray:
    """Per-person test information at scale ``c``; in-place kernel math, one GEMV."""
    lam = c * pool.lambda0
    x = np.subtract.outer(theta, pool.beta)
    x *= lam
    np.abs(x, out=x)
    np.negative(x, out=x)
    np.exp(x, out=x)  # now exp(-|x|)
    denom = x + 1.0
    denom *= denom
    x /= denom  # now the kernel h
    return x @ (lam * lam)


def test_information(theta, pool: ItemPool, c: float):
    """Test information: sum of item informations at scale ``c``."""
    if c <= 0:
        raise ParameterError(f"scale c must be positive, got {c}")
    arr = np.atleast_1d(np.asarray(theta, dtype=float))
    out = _test_info_values(arr, pool, float(c))
    return float(out[0]) if np.ndim(theta) == 0 else out


def test_information_dc(theta, pool: ItemPool, c: float):
    """Analytic derivative of test information with respect to the scale ``c``.

    Per item: ``c * lambda0^2 * h(x) * (2 - x*tanh(x/2))`` with
    ``x = c*lambda0*(theta - beta)``; matches central finite differences of
    :func:`test_information`.
    """
    if c <= 0:
        raise ParameterError(f"scale c must be positive, got {c}")
    arr = np.atleast_1d(np.asarray(theta, dtype=float))
    lam0 = pool.lambda0
    x = (c * lam0)[None, :] * (arr[:, None] - pool.beta[None, :])
    terms = c * lam0[None, :] ** 2 * logistic_kernel(x) * (2.0 - x * np.tanh(x / 2.0))
    out = terms.sum(axis=1)
    return float(out[0]) if np.ndim(theta) == 0 else out


def phi(x):
    """The scaling-response factor ``2 - x*tanh(x/2)``.

    Positive iff ``|x|`` is below its unique positive root (approximately
    2.399); beyond that, further scaling *reduces* an item's information at
    that point.
    """
    x = np.asarray(x, dtype=float)
    out = 2.0 - x * np.tanh(x / 2.0)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ScaleInterval:
    """Practical calibration interval ``0 < c_lower < c_upper``."""

    c_lower: float
    c_upper: float

    def __post_init__(self):
        if not (np.isfinite(self.c_lower) and np.isfinite(self.c_upper)):
            raise ParameterError("interval bounds must be finite")
        if not 0 < self.c_lower < self.c_upper:
            raise ParameterError(
                f"interval requires 0 < c_lower < c_upper, got [{self.c_lower}, {self.c_upper}]"
            )

    def midpoint(self) -> float:
        return 0.5 * (self.c_lower + self.c_upper)

    def to_dict(self) -> dict:
        return {"c_lower": self.c_lower, "c_upper": self.c_upper}

    @staticmethod
    def from_dict(d) -> "ScaleInterval":
        return ScaleInterval(float(d["c_lower"]), float(d["c_upper"]))


@dataclass
class ReliabilitySummary:
    """Both reliability functionals for one (sample, pool, scale) triple."""

    c: float
    j_bar: float
    msem: float
    rho_tilde: float
    w_bar: float
    sigma2_theta: float
    m_points: int
    underflow: bool = False


def reliability_from_information(info, sigma2: float, c: float) -> ReliabilitySummary:
    """Both reliability metrics from per-person test information at scale ``c``.

    The one home of the two variance-ratio transforms and the ``INFO_FLOOR``
    rule: every reliability the package reports is computed here.
    """
    info = np.asarray(info, dtype=float)
    j_bar = float(np.mean(info))
    underflow = bool(np.any(info < INFO_FLOOR))
    msem = float("inf") if underflow else float(np.mean(1.0 / info))
    w_bar = sigma2 / (sigma2 + msem) if np.isfinite(msem) else 0.0
    top = sigma2 * j_bar
    return ReliabilitySummary(
        c=float(c),
        j_bar=j_bar,
        msem=msem,
        rho_tilde=top / (top + 1.0),
        w_bar=float(w_bar),
        sigma2_theta=float(sigma2),
        m_points=int(info.size),
        underflow=underflow,
    )


def reliability_summary(
    theta_sample, pool: ItemPool, c: float, sigma2: float | None = None
) -> ReliabilitySummary:
    """Evaluate both reliability metrics on a latent sample.

    ``sigma2`` defaults to the unbiased sample variance of the supplied
    sample; pass 1.0 to use the theoretical variance of a standardized
    latent distribution instead.
    """
    return _summary_and_info(theta_sample, pool, c, sigma2)[0]


def _summary_and_info(theta_sample, pool: ItemPool, c: float, sigma2: float | None):
    theta = np.asarray(getattr(theta_sample, "theta", theta_sample), dtype=float)
    if theta.size == 0:
        raise EmptyRequestError("theta sample must be nonempty")
    if sigma2 is None:
        sigma2 = float(np.var(theta, ddof=1)) if theta.size > 1 else 0.0
    info = _test_info_values(theta, pool, float(c))
    return reliability_from_information(info, sigma2, c), info


def metric_value(summary: ReliabilitySummary, metric: str) -> float:
    if metric == METRIC_AVG_INFO:
        return summary.rho_tilde
    if metric == METRIC_MSEM:
        return summary.w_bar
    raise ParameterError(f"metric must be one of {METRICS}, got {metric!r}")


def analytic_ceiling(pool: ItemPool, sigma2: float, c: float) -> float:
    """Closed-form upper bound on the average-information reliability at scale ``c``.

    Uses the kernel bound ``h <= 1/4``: information can never exceed
    ``c^2 * sum(lambda0^2) / 4``, so the variance-ratio transform of that
    bound dominates ``rho_tilde`` for every latent distribution.
    """
    s2sum = float(np.sum(pool.lambda0**2))
    return reliability_from_information(c**2 * s2sum / 4.0, sigma2, c).rho_tilde


def reference_ceiling(n_items: int) -> float:
    """Back-of-envelope ceiling ``(I/4) / (I/4 + 1)`` for target-grid sanity checks.

    Assumes unit discriminations, unit latent variance, and information at
    its per-item maximum across the population; a conservative heuristic,
    not an attainable bound for a specific configuration.
    """
    n_items = int(n_items)
    if n_items < 1:
        raise ParameterError(f"n_items must be >= 1, got {n_items}")
    return reliability_from_information(n_items / 4.0, sigma2=1.0, c=1.0).rho_tilde


@dataclass
class MonotonicityScan:
    is_monotone: bool
    grid: list  # (c, reliability) pairs

    def values(self) -> np.ndarray:
        return np.asarray([r for _, r in self.grid])


def _strictly_increasing(values: np.ndarray, tol: float = 1e-10) -> bool:
    diffs = np.diff(np.asarray(values, dtype=float))
    return bool(diffs.size > 0 and np.all(diffs > tol))


def monotonicity_scan(
    pool: ItemPool,
    latent_sample,
    metric: str,
    interval: ScaleInterval,
    grid_size: int = 25,
) -> MonotonicityScan:
    """Evaluate a reliability metric on a geometric grid over the interval.

    ``is_monotone`` is True only if the metric is strictly increasing, every
    step exceeding 1e-10; ties or any decrease count as non-monotone. This is
    the practical screen for whether error-variance targeting is well-posed
    on the chosen interval.
    """
    if grid_size < 3:
        raise ParameterError(f"grid_size must be >= 3, got {grid_size}")
    theta = np.asarray(getattr(latent_sample, "theta", latent_sample), dtype=float)
    grid_c = np.geomspace(interval.c_lower, interval.c_upper, int(grid_size))
    values = [metric_value(reliability_summary(theta, pool, c), metric) for c in grid_c]
    return MonotonicityScan(
        is_monotone=_strictly_increasing(np.asarray(values)),
        grid=list(zip((float(c) for c in grid_c), (float(v) for v in values))),
    )


def jensen_gap_estimate(theta_sample, pool: ItemPool, c: float, sigma2: float | None = None) -> dict:
    """Exact and second-order estimates of the gap between the two metrics.

    The second-order form replaces ``mean(1/J)`` with
    ``1/mean(J) + var(J)/mean(J)^3`` before the variance-ratio transform, so
    the gap is governed by how unevenly information is spread across the
    sample.
    """
    summary, info = _summary_and_info(theta_sample, pool, c, sigma2)
    var = float(np.var(info, ddof=1)) if info.size > 1 else 0.0
    msem2 = 1.0 / summary.j_bar + var / summary.j_bar**3
    w_bar2 = summary.sigma2_theta / (summary.sigma2_theta + msem2)
    return {
        "gap_exact": summary.rho_tilde - summary.w_bar,
        "gap_second_order": summary.rho_tilde - w_bar2,
    }
