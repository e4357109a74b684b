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

import threading
from dataclasses import dataclass

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
    """The logistic variance kernel ``s(x)(1 - s(x))``, evaluated stably."""
    x = np.asarray(x, dtype=float)
    a = np.exp(-np.abs(x))
    out = a / (1.0 + a) ** 2
    return float(out) if out.ndim == 0 else out


# Rows of theta per kernel block: a power of two, never derived from the item
# count. GEMV then groups rows as one (M, I) call would, so the blocked result
# is bit-identical to the single-shot formula. 2048 keeps SAC's batches of up
# to 2000 draws in one block.
_BLOCK_ROWS = 2048
_local = threading.local()


def _workspace(rows: int, n: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """Two C-contiguous ``(rows, n)`` arrays of ``dtype`` in one per-thread buffer, reused across calls and grown only.

    Every dtype views the same float64 buffer, and each array starts on a
    64-byte boundary: at the 16-byte offset that large allocations get, a SAC
    calibration after an EQC solve (2PL, I=60, 500 draws) ran about 8% slower
    than with per-call temporaries, measured on an AVX-512 Xeon with one BLAS
    thread.
    """
    size = rows * n
    per_line = 64 // dtype.itemsize
    stride = -(-size // per_line) * per_line  # whole 64-byte lines
    words = stride * dtype.itemsize // 8
    buf = getattr(_local, "buf", None)
    if buf is None or buf.size < 2 * words:
        raw = np.empty(2 * words + 8)
        start = -raw.ctypes.data % 64 // 8
        buf = _local.buf = raw[start : start + 2 * words]
    flat = buf if dtype == buf.dtype else buf.view(dtype)
    return flat[:size].reshape(rows, n), flat[stride : stride + size].reshape(rows, n)


def _blocks(m: int):
    """``(start, stop)`` row ranges of the kernel blocks over ``m`` persons."""
    bounds = list(range(0, m, _BLOCK_ROWS)) + [m]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]  # numpy runs a 1-row matmul as a dot product, summed in another order
    return zip(bounds[:-1], bounds[1:])


def _kernel_block(theta: np.ndarray, beta: np.ndarray, neg_lam: np.ndarray) -> np.ndarray:
    """The logistic kernel ``h`` at ``lam*(theta - beta)``, built in the workspace in the dtype of its inputs.

    ``neg_lam`` is ``-lam``: rounding is symmetric in sign, so scaling
    ``|theta - beta|`` by it gives ``-|lam*(theta - beta)|`` bit for bit.
    """
    x, denom = _workspace(theta.size, beta.size, theta.dtype)
    np.subtract.outer(theta, beta, out=x)
    np.abs(x, out=x)
    x *= neg_lam
    np.exp(x, out=x)  # now exp(-|x|)
    np.add(x, 1.0, out=denom)
    denom *= denom
    x /= denom  # now the kernel h
    return x


def _test_info_values(theta: np.ndarray, pool: ItemPool, c: float, dtype=np.float64) -> np.ndarray:
    """Per-person test information at scale ``c`` over a 1-D ``theta``: one GEMV per row block, in ``dtype``."""
    neg_lam = -c * pool.lambda0
    weights = (neg_lam * neg_lam).astype(dtype, copy=False)
    theta = theta.astype(dtype, copy=False)
    beta = pool.beta.astype(dtype, copy=False)
    neg_lam = neg_lam.astype(dtype, copy=False)
    out = np.empty(theta.size, dtype)
    for start, stop in _blocks(theta.size):
        np.matmul(_kernel_block(theta[start:stop], beta, neg_lam), weights, out=out[start:stop])
    return out


def test_information(theta, pool: ItemPool, c: float):
    """Test information: sum of item informations at scale ``c``, shaped like ``theta``."""
    if c <= 0:
        raise ParameterError(f"scale c must be positive, got {c}")
    arr = np.atleast_1d(np.asarray(theta, dtype=float))
    out = _test_info_values(arr.ravel(), pool, float(c))
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
    theta_sample, pool: ItemPool, c: float, sigma2: float | None = None, *, dtype=np.float64
) -> ReliabilitySummary:
    """Evaluate both reliability metrics on a latent sample.

    ``sigma2`` defaults to the unbiased sample variance of the supplied
    sample; pass 1.0 to use the theoretical variance of a standardized
    latent distribution instead. ``dtype`` is the precision of the
    information kernel only; the summary itself is float64 arithmetic.
    """
    theta = np.asarray(theta_sample, dtype=float)
    if theta.size == 0:
        raise EmptyRequestError("theta sample must be nonempty")
    if sigma2 is None:
        sigma2 = float(np.var(theta, ddof=1)) if theta.size > 1 else 0.0
    return reliability_from_information(_test_info_values(theta, pool, float(c), dtype), sigma2, c)


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
    theta = np.asarray(latent_sample, dtype=float)
    grid_c = np.geomspace(interval.c_lower, interval.c_upper, int(grid_size))
    values = [metric_value(reliability_summary(theta, pool, c), metric) for c in grid_c]
    return MonotonicityScan(
        is_monotone=_strictly_increasing(np.asarray(values)),
        grid=list(zip((float(c) for c in grid_c), (float(v) for v in values))),
    )
