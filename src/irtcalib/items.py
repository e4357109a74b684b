"""Item parameter pools.

Difficulties come from a parametric normal source or by resampling an
empirical pool file; 2PL discriminations are log-normal with a target
Spearman rank correlation to difficulty, imposed by a Gaussian copula (or a
conditional-normal / independent fallback) while leaving the difficulty
marginal untouched. The copula's normal scores come from the standard
library's ``statistics.NormalDist``, imported only when a copula pool is
built; no scipy module is needed.

Pool CSV format: header ``beta,lambda`` (the ``lambda`` column is optional;
when absent the pool carries difficulties only), one item per row, UTF-8,
decimal point, full precision. ``save_pool_csv``/``load_pool_csv`` round-trip
losslessly.

The bundled synthetic pool stands in for a real operational item bank: a
two-component normal mixture 0.45*N(-2, 0.8^2) + 0.55*N(1, 0.9^2), rescaled
about its mean so the file's overall SD is exactly 1.6, giving the bimodal,
wide-spread difficulty structure typical of operational item banks.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from importlib import resources
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateInputError,
    IngestionError,
    InsufficientDataError,
    ParameterError,
    real_number,
    whole_number,
)
from .rng import stream

MODELS = ("rasch", "twopl")
SOURCES = ("parametric", "empirical_pool", "custom")
GEN_METHODS = ("copula", "conditional", "independent", "fixed")

_POOL_RESOURCE = "synthetic_pool.csv"


@dataclass(frozen=True)
class DiscriminationSpec:
    """Log-normal marginal for baseline discriminations and the rank-correlation target."""

    mu_log: float = 0.0
    sigma_log: float = 0.3
    rho: float = -0.3

    def __post_init__(self):
        if self.sigma_log < 0:
            raise ParameterError(f"sigma_log must be nonnegative, got {self.sigma_log}")
        if not -1.0 <= self.rho <= 1.0:
            raise ParameterError(f"rho must lie in [-1, 1], got {self.rho}")


@dataclass
class ItemPool:
    """Realized difficulties and discriminations; ``achieved_spearman`` is computed from them."""

    model: str
    beta: np.ndarray
    lambda0: np.ndarray
    source: str = "custom"
    gen_method: str = "fixed"
    seed: int | None = None
    target_spearman: float | None = None

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float)
        self.lambda0 = np.asarray(self.lambda0, dtype=float)
        _check_item_parameters(self.model, self.beta, self.lambda0)

    @property
    def n_items(self) -> int:
        return int(self.beta.size)

    @property
    def achieved_spearman(self) -> float | None:
        """Spearman(beta, log lambda0) of a generated 2PL pool of at least 2 items, else None."""
        if self.model != "twopl" or self.gen_method == "fixed" or self.n_items < 2:
            return None
        return _spearman(self.beta, np.log(self.lambda0))

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "source": self.source,
            "gen_method": self.gen_method,
            "seed": self.seed,
            "target_spearman": self.target_spearman,
            "achieved_spearman": self.achieved_spearman,
            "beta": [float(b) for b in self.beta],
            "lambda0": [float(l) for l in self.lambda0],
        }

    @staticmethod
    def from_dict(d: Mapping[str, Any]) -> "ItemPool":
        if not isinstance(d, Mapping):
            raise ParameterError(f"pool must be an object, got {d!r}")
        source, method = d.get("source", "custom"), d.get("gen_method", "fixed")
        if source not in SOURCES:
            raise ParameterError(f"pool.source must be one of {SOURCES}, got {source!r}")
        if method not in GEN_METHODS:
            raise ParameterError(f"pool.gen_method must be one of {GEN_METHODS}, got {method!r}")
        seed, spearman = d.get("seed"), d.get("target_spearman")
        if seed is not None and not 0 <= whole_number("pool.seed", seed) < 2**64:
            raise ParameterError(f"pool.seed must be in [0, 2^64), got {seed}")
        if spearman is not None and not -1.0 <= real_number("pool.target_spearman", spearman) <= 1.0:
            raise ParameterError(f"pool.target_spearman must lie in [-1, 1], got {spearman}")
        return ItemPool(
            model=d["model"],
            beta=np.asarray(d["beta"], dtype=float),
            lambda0=np.asarray(d["lambda0"], dtype=float),
            source=source,
            gen_method=method,
            seed=seed,
            target_spearman=spearman,
        )


def _check_item_parameters(model: str, beta: np.ndarray, lambda0: np.ndarray) -> None:
    """Reject parameters no pool may hold; ``beta``/``lambda0`` are one pool or a batch of them."""
    if model not in MODELS:
        raise ParameterError(f"model must be one of {MODELS}, got {model!r}")
    if beta.size == 0:
        raise ParameterError("pool must contain at least one item")
    if beta.shape != lambda0.shape:
        raise ParameterError("beta and lambda0 must have equal length")
    if not np.all(np.isfinite(beta)) or not np.all(np.isfinite(lambda0)):
        raise ParameterError("item parameters must be finite")
    if np.any(lambda0 <= 0):
        raise ParameterError("lambda0 must be positive for every item")
    if model == "rasch" and not np.all(lambda0 == 1.0):
        raise ParameterError("rasch pools require lambda0 = 1 for every item")


def bundled_pool_path() -> str:
    """Filesystem path of the bundled synthetic difficulty pool."""
    return str(resources.files("irtcalib").joinpath("data", _POOL_RESOURCE))


def make_synthetic_pool(n: int = 5000, seed: int = 902_114_551) -> np.ndarray:
    """Regenerate the bundled synthetic difficulty pool.

    Mixture draws are rescaled about their empirical mean so the pool SD is
    exactly 1.6. The defaults reproduce the shipped ``data/synthetic_pool.csv``
    byte-for-byte.
    """
    rng = stream(seed, "synthetic-pool")
    n = int(n)
    comp = rng.random(n) < 0.45
    draws = np.where(comp, rng.normal(-2.0, 0.8, n), rng.normal(1.0, 0.9, n))
    mean = draws.mean()
    return mean + (draws - mean) * (1.6 / draws.std(ddof=0))


# Parsed pool files keyed by (path, mtime_ns, size); a SAC calibration reads its
# pool file about a dozen times (one draw_pools, one build_pool per evaluation block).
_pool_cache: dict = {}


def _load_pool_cached(path) -> np.ndarray:
    try:
        st = os.stat(path)
    except OSError as exc:
        raise IngestionError(f"cannot read pool file {path}: {exc}") from exc
    key = (os.fspath(path), st.st_mtime_ns, st.st_size)
    if key not in _pool_cache:
        _pool_cache[key] = load_pool_csv(path)[0]
    return _pool_cache[key]


def load_pool_csv(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Read a pool CSV, returning ``(beta, lambda0-or-None)``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise IngestionError(f"cannot read pool file {path}: {exc}") from exc
    if not lines:
        raise IngestionError(f"pool file {path} is empty")
    header = [h.strip() for h in lines[0].split(",")]
    if header not in (["beta"], ["beta", "lambda"]):
        raise IngestionError(
            f"pool file {path}: header must be 'beta' or 'beta,lambda', got {lines[0]!r}"
        )
    has_lambda = len(header) == 2
    betas, lambdas = [], []
    for rownum, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise IngestionError(f"pool file {path}, row {rownum}: expected {len(header)} fields")
        try:
            betas.append(float(parts[0]))
            if has_lambda:
                lambdas.append(float(parts[1]))
        except ValueError as exc:
            raise IngestionError(f"pool file {path}, row {rownum}: non-numeric entry") from exc
    if not betas:
        raise IngestionError(f"pool file {path} contains no items")
    beta = np.asarray(betas)
    return beta, (np.asarray(lambdas) if has_lambda else None)


def save_pool_csv(pool: ItemPool, path) -> None:
    """Write a pool at full precision (header ``beta,lambda``)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("beta,lambda\n")
        for b, l in zip(pool.beta, pool.lambda0):
            fh.write(f"{float(b)!r},{float(l)!r}\n")


def gen_difficulties(
    source: str,
    n_items: int,
    *,
    rng: np.random.Generator,
    mu: float = 0.0,
    sigma: float = 1.0,
    pool_path=None,
    n_pools: int | None = None,
) -> np.ndarray:
    """Draw ``n_items`` difficulties from the parametric or empirical source.

    With ``n_pools`` the result is an ``(n_pools, n_items)`` batch drawn in
    one call, row by row; its first row is the ``n_pools=None`` draw.
    """
    n_items = int(n_items)
    if n_items < 1:
        raise ParameterError(f"n_items must be >= 1, got {n_items}")
    size = n_items if n_pools is None else (int(n_pools), n_items)
    if source == "parametric":
        return rng.normal(mu, sigma, size)
    if source == "empirical_pool":
        beta = _load_pool_cached(pool_path if pool_path is not None else bundled_pool_path())
        return rng.choice(beta, size=size, replace=True)
    raise ParameterError(f"difficulty source must be 'parametric' or 'empirical_pool', got {source!r}")


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks along the last axis, ties sharing the mean of their ranks.

    The ranks are half-integers, so every step is exact and each row is
    bit-identical to ``scipy.stats.rankdata(row, method="average")``.
    """
    n = x.shape[-1]
    order = np.argsort(x, axis=-1, kind="stable")
    y = np.take_along_axis(x, order, axis=-1)
    starts = np.ones(x.shape, dtype=bool)  # where a tie group starts; every row starts one
    np.not_equal(y[..., 1:], y[..., :-1], out=starts[..., 1:])
    first = np.flatnonzero(starts)
    counts = np.diff(first, append=starts.size)
    sorted_ranks = np.repeat(first % n + 1 + (counts - 1) / 2, counts)
    ranks = np.empty(x.shape)
    np.put_along_axis(ranks, order, sorted_ranks.reshape(x.shape), axis=-1)
    return ranks


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation, NaN when either input is constant.

    Pearson correlation of the average ranks, computed as
    ``scipy.stats.spearmanr`` computes it, so the value is bit-identical.
    """
    ranked = np.column_stack((_average_ranks(x), _average_ranks(y)))
    with np.errstate(invalid="ignore", divide="ignore"):
        return float(np.corrcoef(ranked, rowvar=False)[1, 0])


@functools.lru_cache(maxsize=32)
def _rank_quantiles(n: int) -> np.ndarray:
    """``Phi^-1(r/(n+1))`` for the 2n-1 average ranks r = 1, 1.5, ..., n, rank r at index 2r-2."""
    from statistics import NormalDist  # loads decimal and fractions: only copula pools pay for it

    inv_cdf = NormalDist().inv_cdf
    quantiles = np.array([inv_cdf(k / 2 / (n + 1)) for k in range(2, 2 * n + 1)])
    quantiles.setflags(write=False)
    return quantiles


def copula_discriminations(
    betas: np.ndarray, spec: DiscriminationSpec, *, rng: np.random.Generator
) -> np.ndarray:
    """Gaussian-copula discriminations with the target rank correlation to ``betas``.

    Three steps: (1) z_beta = Phi^-1(rank(beta)/(n+1)); (2) z_lam =
    rho*z_beta + sqrt(1-rho^2)*z_indep; (3) log lambda = mu_log +
    sigma_log*z_lam. The general copula maps z_lam to the target marginal by
    F^-1(Phi(z_lam)); for the log-normal marginal F^-1 is exp(mu_log +
    sigma_log*Phi^-1(.)), so Phi^-1(Phi(z_lam)) = z_lam cancels exactly and is
    not computed. The difficulty vector is never modified, so its marginal is
    preserved exactly. A 2-D ``betas`` is a batch of pools, one per row,
    ranked row by row. Step (1) reads a table of the 2n-1 values ranks can
    take, built once per item count n. A non-finite difficulty raises
    :class:`ParameterError`.
    """
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    n = betas.shape[-1]
    if n < 2:
        raise InsufficientDataError("copula needs at least 2 items to form ranks")
    if not np.all(np.isfinite(betas)):
        raise ParameterError("item parameters must be finite")
    z_beta = _rank_quantiles(n)[(2 * _average_ranks(betas)).astype(np.intp) - 2]
    z_indep = rng.standard_normal(betas.shape)
    z_lam = spec.rho * z_beta + np.sqrt(1.0 - spec.rho**2) * z_indep
    return np.exp(spec.mu_log + spec.sigma_log * z_lam)


def conditional_discriminations(
    betas: np.ndarray, spec: DiscriminationSpec, *, rng: np.random.Generator
) -> np.ndarray:
    """Conditional-normal regression on empirically standardized difficulties.

    A 2-D ``betas`` is a batch of pools, each row standardized on its own.
    """
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    if betas.shape[-1] < 2:
        raise InsufficientDataError("conditional method needs at least 2 items")
    sd = betas.std(ddof=1, axis=-1, keepdims=True)
    if np.any(sd == 0):
        raise DegenerateInputError("difficulties have zero variance; cannot standardize")
    b_std = (betas - betas.mean(axis=-1, keepdims=True)) / sd
    z = rng.standard_normal(betas.shape)
    log_lam = spec.mu_log + spec.sigma_log * (spec.rho * b_std + np.sqrt(1.0 - spec.rho**2) * z)
    return np.exp(log_lam)


def independent_discriminations(
    n_items, spec: DiscriminationSpec, *, rng: np.random.Generator
) -> np.ndarray:
    """Log-normal discriminations independent of difficulty.

    ``n_items`` is an item count, or the shape of a batch of pools.
    """
    return np.exp(spec.mu_log + spec.sigma_log * rng.standard_normal(n_items))


@dataclass(frozen=True)
class PoolConfig:
    """Recipe for generating an :class:`ItemPool`.

    ``gen_method`` defaults to ``fixed`` for Rasch and ``copula`` for 2PL.
    ``custom`` sources supply explicit difficulties (and optionally
    discriminations) instead of drawing them.
    """

    model: str = "rasch"
    source: str = "parametric"
    n_items: int = 30
    gen_method: str | None = None
    difficulty_mu: float = 0.0
    difficulty_sigma: float = 1.0
    pool_path: str | None = None
    discrimination: DiscriminationSpec = field(default_factory=DiscriminationSpec)
    betas: Sequence[float] | None = None
    lambdas: Sequence[float] | None = None

    def __post_init__(self):
        if self.model not in MODELS:
            raise ParameterError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.source not in SOURCES:
            raise ParameterError(f"source must be one of {SOURCES}, got {self.source!r}")
        if self.n_items < 1:
            raise ParameterError(f"n_items must be >= 1, got {self.n_items}")
        method = self.resolved_method()
        if method not in GEN_METHODS:
            raise ParameterError(f"gen_method must be one of {GEN_METHODS}, got {method!r}")
        if self.model == "rasch" and method != "fixed":
            raise ConfigurationError(
                "rasch fixes every discrimination at 1; gen_method must be 'fixed'"
            )
        if self.model == "twopl" and method == "fixed" and self.lambdas is None:
            raise ConfigurationError("twopl with gen_method='fixed' requires explicit lambdas")
        if self.source == "custom" and self.betas is None:
            raise ConfigurationError("custom source requires explicit betas")
        if not np.isfinite(self.difficulty_mu):
            raise ParameterError(f"difficulty_mu must be finite, got {self.difficulty_mu}")
        if not (np.isfinite(self.difficulty_sigma) and self.difficulty_sigma > 0):
            raise ParameterError(f"difficulty_sigma must be positive, got {self.difficulty_sigma}")
        if self.source != "parametric" and (self.difficulty_mu, self.difficulty_sigma) != (0.0, 1.0):
            raise ConfigurationError(
                f"difficulty_mu and difficulty_sigma apply only to the parametric source, "
                f"not to {self.source!r}"
            )

    def resolved_method(self) -> str:
        if self.gen_method is not None:
            return self.gen_method
        return "fixed" if self.model == "rasch" else "copula"


def draw_pools(
    config: PoolConfig | ItemPool, n_pools: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """``n_pools`` pool realizations of ``config`` as ``(n_pools, I)`` arrays ``(beta, lambda0)``.

    A fixed :class:`ItemPool` is broadcast to ``n_pools`` read-only rows and
    nothing is drawn from ``rng``. For a recipe, all difficulties are drawn
    first, in one call, then (for dependent methods) one independent normal
    per item, row by row; so the one-row batch is exactly the pool
    :func:`build_pool` draws from the same ``rng``. The whole batch passes
    the checks every :class:`ItemPool` applies.
    """
    if isinstance(config, ItemPool):
        shape = (n_pools, config.n_items)
        return np.broadcast_to(config.beta, shape), np.broadcast_to(config.lambda0, shape)
    method = config.resolved_method()
    if config.source == "custom":
        custom = np.asarray(config.betas, dtype=float)
        beta = np.broadcast_to(custom, (n_pools, custom.size))
    else:
        beta = gen_difficulties(
            config.source,
            config.n_items,
            rng=rng,
            mu=config.difficulty_mu,
            sigma=config.difficulty_sigma,
            pool_path=config.pool_path,
            n_pools=n_pools,
        )

    if config.model == "rasch":
        lam = np.ones(beta.shape)
    elif method == "fixed":
        fixed = np.asarray(config.lambdas, dtype=float)
        lam = np.broadcast_to(fixed, (n_pools, fixed.size))
    elif method == "copula":
        lam = copula_discriminations(beta, config.discrimination, rng=rng)
    elif method == "conditional":
        lam = conditional_discriminations(beta, config.discrimination, rng=rng)
    else:
        lam = independent_discriminations(beta.shape, config.discrimination, rng=rng)
    _check_item_parameters(config.model, beta, lam)
    return beta, lam


def build_pool(config: PoolConfig | ItemPool, seed: int) -> ItemPool:
    """Assemble difficulties and discriminations into an :class:`ItemPool`.

    A fixed :class:`ItemPool` is returned as it is, and ``seed`` is not read.
    For a recipe, all randomness comes from the single pool-generation stream
    of ``seed``: difficulties first, then (for dependent methods) one
    independent normal per item in item order, so pools are reproducible from
    ``(config, seed)`` alone. The pool is the one-row case of :func:`draw_pools`.
    """
    if isinstance(config, ItemPool):
        return config
    method = config.resolved_method()
    beta, lam = draw_pools(config, 1, stream(seed, "pool"))
    return ItemPool(
        model=config.model,
        beta=beta[0],
        lambda0=lam[0],
        source=config.source,
        gen_method=method,
        seed=seed,
        target_spearman=(config.discrimination.rho if method in ("copula", "conditional") else None),
    )
