"""The 2PL information kernel, the reliability summaries on it and their closed-form bounds.

Conventions used throughout:

* ``h(x) = s(x)(1 - s(x)) = 1/(2 + 2*cosh x)`` is the logistic variance
  kernel with ``s`` the inverse logit; ``0 < h(x) <= 1/4`` with equality
  only at 0. The information kernel takes the cosh form, which is exactly 0
  past cosh's overflow (``|x|`` near 710.5, or 89.4 in float32); the kernel
  ignores that overflow itself, so no caller sets ``np.errstate`` for it.
* A latent sample reaches the kernel as a :class:`PreparedSample`, made only
  by :func:`prepare_samples`: its ``[theta, 1]`` design in the kernel dtype
  and its unbiased variance. :func:`test_information` and
  :func:`reliability_summary` take either a prepared sample or an array,
  which they prepare themselves.
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
the summary carries an ``underflow`` flag instead of silent NaNs. The
sample variance and the means of ``J`` and ``1/J`` are the reductions numpy's
``var(ddof=1)`` and ``mean`` run, bit for bit, without their Python wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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
    with np.errstate(over="ignore"):  # exp(-x) overflows to inf for x < -709, giving p = 0
        p = np.clip(1.0 / (1.0 + np.exp(-(lam * (theta - beta)))), _P_LO, _P_HI)
    return float(p) if p.ndim == 0 else p


def logistic_kernel(x):
    """The logistic variance kernel ``s(x)(1 - s(x))`` in its stable exp form: the scalar reference."""
    x = np.asarray(x, dtype=float)
    a = np.exp(-np.abs(x))
    out = a / (1.0 + a) ** 2
    return float(out) if out.ndim == 0 else out


# Rows of theta per kernel block: a power of two, never derived from the item
# count. GEMM and GEMV then group rows as one (M, I) call would, so the blocked
# result is bit-identical to the single-shot formula. 2048 keeps SAC's batches
# of up to 2000 draws in one block.
_BLOCK_ROWS = 2048


def _blocks(m: int):
    """``(start, stop)`` row ranges of the kernel blocks over ``m`` persons."""
    bounds = list(range(0, m, _BLOCK_ROWS)) + [m]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]  # numpy runs a 1-row matmul as a dot product, summed in another order
    return zip(bounds[:-1], bounds[1:])


class PreparedSample(NamedTuple):
    """A latent sample made ready for the information kernel and the summary.

    ``theta`` is the sample, ``design`` its ``[theta, 1]`` rows in the kernel
    dtype and ``sigma2`` its unbiased variance (0 for one value). Made by
    :func:`prepare_samples`.
    """

    theta: np.ndarray
    design: np.ndarray
    sigma2: float


def _design(theta: np.ndarray, dtype) -> np.ndarray:
    """The kernel's ``(n, 2)`` design ``[theta, 1]`` in ``dtype``."""
    design = np.ones((theta.size, 2), dtype)
    design[:, 0] = theta
    return design


def prepare_samples(rows: np.ndarray, dtype=np.float64) -> list[PreparedSample]:
    """One :class:`PreparedSample` per row of the float64 ``(k, m)`` array ``rows``.

    One design covers every row. Each row's variance is ``np.var(row,
    ddof=1)`` bit for bit: the same pairwise-summed mean, squared deviations
    and pairwise sum over ``m - 1``, taken along axis 1.
    """
    k, m = rows.shape
    design = _design(rows.ravel(), dtype)
    sigma2 = np.zeros(k)
    if m > 1:
        d = rows - (rows.sum(axis=1) / m)[:, None]
        d *= d
        sigma2 = d.sum(axis=1) / (m - 1)
    return [PreparedSample(row, design[j * m:(j + 1) * m], float(s2))
            for j, (row, s2) in enumerate(zip(rows, sigma2))]


def _prepared(sample, dtype) -> PreparedSample:
    """``sample`` ready for the kernel in ``dtype``.

    A :class:`PreparedSample` in ``dtype`` is used as it is; one in another
    dtype gets a design in ``dtype`` and keeps its variance; anything else
    is flattened and goes through :func:`prepare_samples`.
    """
    if isinstance(sample, PreparedSample):
        if sample.design.dtype == dtype:
            return sample
        return sample._replace(design=_design(sample.theta, dtype))
    theta = np.asarray(sample, dtype=float)
    if theta.size == 0:
        raise EmptyRequestError("theta sample must be nonempty")
    return prepare_samples(theta.reshape(1, -1), dtype)[0]


def _information(design: np.ndarray, pool: ItemPool, c: float) -> np.ndarray:
    """Per-person test information at scale ``c`` over a kernel design, in its dtype.

    With ``a = c*lambda0``, each row block takes ``x = a*theta - a*beta`` as
    one K=2 GEMM ``[theta, 1] @ [[a], [-a*beta]]``, turns it in place into
    ``1/(1 + cosh x) = 2*h(x)`` (0 where cosh overflows, past ``|x|`` near
    710.5, or 89.4 in float32; that overflow is ignored here), and sums it
    with one GEMV against ``a^2/2``. ``x`` is the block's own temporary: the
    kernel keeps no state, so threads may call it at once.
    """
    dtype = design.dtype
    a = c * pool.lambda0
    coef = np.array((a, -a * pool.beta, 0.5 * a * a), dtype)  # the GEMM's rows, then the GEMV's
    out = np.empty(len(design), dtype)
    with np.errstate(over="ignore"):
        for start, stop in _blocks(out.size):
            x = np.matmul(design[start:stop], coef[:2])
            np.cosh(x, out=x)
            x += 1.0
            np.reciprocal(x, out=x)
            np.matmul(x, coef[2], out=out[start:stop])
            del x  # so the next block's temporary is the only one alive
    return out


def test_information(theta, pool: ItemPool, c: float):
    """Test information: sum of item informations at scale ``c``, shaped like ``theta``.

    A :class:`PreparedSample` is evaluated on its own design, in its dtype.
    """
    if c <= 0:
        raise ParameterError(f"scale c must be positive, got {c}")
    if isinstance(theta, PreparedSample):
        return _information(theta.design, pool, float(c))
    arr = np.atleast_1d(np.asarray(theta, dtype=float))
    out = _information(_design(arr.ravel(), np.float64), pool, float(c))
    return float(out[0]) if np.ndim(theta) == 0 else out.reshape(arr.shape)


def test_information_dc(theta, pool: ItemPool, c: float):
    """Analytic derivative of test information with respect to the scale ``c``.

    Per item: ``c * lambda0^2 * h(x) * phi(x)`` (see :func:`phi`) with
    ``x = c*lambda0*(theta - beta)``; matches central finite differences of
    :func:`test_information`. Evaluated over the kernel's row blocks, so its
    temporaries stay block-sized.
    """
    if c <= 0:
        raise ParameterError(f"scale c must be positive, got {c}")
    arr = np.atleast_1d(np.asarray(theta, dtype=float))
    flat = arr.ravel()
    lam0 = pool.lambda0
    out = np.empty(flat.size)
    for start, stop in _blocks(flat.size):
        x = (c * lam0)[None, :] * (flat[start:stop, None] - pool.beta[None, :])
        out[start:stop] = (c * lam0[None, :] ** 2 * logistic_kernel(x) * phi(x)).sum(axis=1)
    return float(out[0]) if np.ndim(theta) == 0 else out.reshape(arr.shape)


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


DEFAULT_INTERVAL = ScaleInterval(0.3, 3.0)


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


def _mean(x: np.ndarray) -> float:
    """``np.mean`` of a float64 array: the same pairwise sum and division, without the wrapper."""
    return float(x.sum() / x.size)


def reliability_from_information(info, sigma2: float, c: float) -> ReliabilitySummary:
    """Both reliability metrics from per-person test information at scale ``c``.

    The one home of the two variance-ratio transforms and the ``INFO_FLOOR``
    rule: every reliability the package reports is computed here.
    """
    info = np.asarray(info, dtype=float)
    j_bar = _mean(info)
    underflow = bool((info < INFO_FLOOR).any())
    msem = float("inf") if underflow else _mean(1.0 / info)
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


def reliability_summary(theta_sample, pool: ItemPool, c: float, *, dtype=np.float64) -> ReliabilitySummary:
    """Evaluate both reliability metrics on a latent sample, with its unbiased variance.

    ``dtype`` is the precision of the information kernel only; the summary
    itself is float64 arithmetic. A :class:`PreparedSample` brings its
    variance, and its design when it was prepared in ``dtype``.
    """
    sample = _prepared(theta_sample, dtype)
    info = _information(sample.design, pool, float(c))
    return reliability_from_information(info, sample.sigma2, c)


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

