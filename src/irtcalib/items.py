"""Item parameter pools.

Difficulties come from a parametric normal source or by resampling an
empirical pool file; 2PL discriminations are log-normal with a target
Spearman rank correlation to difficulty, imposed by a Gaussian copula (or a
conditional-normal / independent fallback) while leaving the difficulty
marginal untouched.

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
import math
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
    bit-identical to ``scipy.stats.rankdata(row, method="average")``; as
    there, a NaN makes every rank of its row NaN.
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
    nan_rows = np.isnan(x).any(axis=-1, keepdims=True)
    return np.where(nan_rows, np.nan, ranks) if nan_rows.any() else ranks


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation, NaN when either input is constant.

    Pearson correlation of the average ranks, computed as
    ``scipy.stats.spearmanr`` computes it, so the value is bit-identical.
    """
    ranked = np.column_stack((_average_ranks(x), _average_ranks(y)))
    with np.errstate(invalid="ignore", divide="ignore"):
        return float(np.corrcoef(ranked, rowvar=False)[1, 0])


def rank_uniform(betas: np.ndarray) -> np.ndarray:
    """Nonparametric CDF transform along the last axis: average ranks mapped to rank/(n+1)."""
    betas = np.asarray(betas, dtype=float)
    return _average_ranks(betas) / (betas.shape[-1] + 1)


# Cephes ``ndtr``/``ndtri`` (S. L. Moshier, *Methods and Programs for
# Mathematical Functions*, 1989), the code ``scipy.special`` runs for them. Each
# table holds the coefficients of one rational function, highest power first,
# as (numerator, denominator) pairs: the denominator's leading 1 of ``p1evl``
# is written out and a shorter numerator is padded with leading zeros, so one
# Horner pass computes both polynomials with cephes' operations.
def _rational_table(num: tuple, den: tuple) -> tuple:
    den = (1.0, *den)
    return tuple(np.array([(0.0,) * (len(den) - len(num)) + num, den]).T[:, :, None])


_ERF = _rational_table(  # erf(x) = x T(x^2) / U(x^2) for |x| < 1
    (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
     7.00332514112805075473E3, 5.55923013010394962768E4),
    (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
     2.26290000613890934246E4, 4.92673942608635921086E4))
_ERFC_NEAR = _rational_table(  # erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8
    (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
     4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
     9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2),
    (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
     9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
     1.65666309194161350182E3, 5.57535340817727675546E2))
_ERFC_FAR = _rational_table(  # the same with R(x) / S(x) for x >= 8
    (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
     6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0),
    (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
     1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0))
_NDTRI_CENTRAL = _rational_table(  # |y - 1/2| < 1/2 - e^-2
    (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
     1.39312609387279679503E1, -1.23916583867381258016E0),
    (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
     -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
     1.59056225126211695515E1, -1.18331621121330003142E0))
_NDTRI_TAIL = _rational_table(  # t = sqrt(-2 log y) in [2, 8)
    (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
     4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
     -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4),
    (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
     1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
     -3.80806407691578277194E-2, -9.33259480895457427372E-4))
_NDTRI_FAR_TAIL = _rational_table(  # t >= 8, i.e. y <= exp(-32)
    (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
     1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
     3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9),
    (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
     2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
     2.89247864745380683936E-6, 6.79019408009981274425E-9))
_SQRT1_2 = 7.07106781186547524401E-1
_SQRT_2PI = 2.50662827463100050242E0
_EXP_M2 = 1.3533528323661269189E-1  # e^-2
_MAXLOG = 7.09782712893383996843E2  # log(DBL_MAX): past it erfc underflows to 0


def _rational(w: np.ndarray, x: np.ndarray, table: tuple) -> np.ndarray:
    """``w * polevl(x, P) / p1evl(x, Q)`` on 1-D ``x``, operation for operation as cephes."""
    if not x.size:
        return x
    acc = np.empty((2, x.size))
    acc[...] = table[0]
    for coefficients in table[1:]:
        acc *= x
        acc += coefficients
    return w * acc[0] / acc[1]


def _two_piece(w: np.ndarray, x: np.ndarray, low: np.ndarray, below: tuple, above: tuple) -> np.ndarray:
    """:func:`_rational` with the table ``below`` where ``low`` holds and ``above`` elsewhere."""
    if low.all():  # ``above`` is cephes' rare far tail
        return _rational(w, x, below)
    out = np.empty(x.size)
    out[low] = _rational(w[low], x[low], below)
    out[~low] = _rational(w[~low], x[~low], above)
    return out


def _libm(f, x: np.ndarray) -> np.ndarray:
    """``math.exp`` or ``math.log`` on each element of 1-D ``x``.

    These are the C library's functions, which cephes calls; numpy's SIMD
    ``exp`` and ``log`` differ from them in the last bit on some inputs.
    """
    return np.fromiter(map(f, x.tolist()), float, x.size)


def _ndtr(a) -> np.ndarray:
    """The standard normal CDF, bit for bit as cephes' ``ndtr`` (``scipy.special.ndtr``)."""
    a = np.asarray(a, dtype=float)
    x = a.ravel() * _SQRT1_2
    z, sq = np.abs(x), x * x
    y = np.where(x > 0, 1.0, 0.0)  # the limits, left where erfc underflows
    y[np.isnan(x)] = np.nan
    near = z < 1.0
    y[near] = 0.5 + 0.5 * _rational(x[near], sq[near], _ERF)
    far = np.flatnonzero((z >= 1.0) & (sq <= _MAXLOG))
    zf = z[far]
    half = 0.5 * _two_piece(_libm(math.exp, -sq[far]), zf, zf < 8.0, _ERFC_NEAR, _ERFC_FAR)
    y[far] = np.where(x[far] > 0, 1.0 - half, half)
    return y.reshape(a.shape)


def _ndtri(y0) -> np.ndarray:
    """The standard normal quantile, bit for bit as cephes' ``ndtri`` (``scipy.special.ndtri``)."""
    y0 = np.asarray(y0, dtype=float)
    flat = y0.ravel()
    x = np.where(flat == 0.0, -np.inf, np.where(flat == 1.0, np.inf, np.nan))
    upper = flat > 1.0 - _EXP_M2  # reflected: y = 1 - y0
    y = np.where(upper, 1.0 - flat, flat)
    central = y > _EXP_M2
    yc = y[central] - 0.5
    y2 = yc * yc
    x[central] = (yc + yc * _rational(y2, y2, _NDTRI_CENTRAL)) * _SQRT_2PI
    tail = (y > 0.0) & ~central
    t = np.sqrt(-2.0 * _libm(math.log, y[tail]))
    r = 1.0 / t
    t = t - _libm(math.log, t) / t - _two_piece(r, r, t < 8.0, _NDTRI_TAIL, _NDTRI_FAR_TAIL)
    x[tail] = np.where(upper[tail], t, -t)
    return x.reshape(y0.shape)


@functools.lru_cache(maxsize=32)
def _rank_quantiles(n: int) -> np.ndarray:
    """``ndtri(r/(n+1))`` for the 2n-1 average ranks r = 1, 1.5, ..., n, rank r at index 2r-2."""
    quantiles = _ndtri(np.arange(2, 2 * n + 1) / 2 / (n + 1))
    quantiles.setflags(write=False)
    return quantiles


def copula_discriminations(
    betas: np.ndarray, spec: DiscriminationSpec, *, rng: np.random.Generator
) -> np.ndarray:
    """Gaussian-copula discriminations with the target rank correlation to ``betas``.

    Five-step construction: (1) u = rank(beta)/(n+1); (2) z_beta = ndtri(u);
    (3) z_lam = rho*z_beta + sqrt(1-rho^2)*z_indep; (4) v = ndtr(z_lam);
    (5) log lambda = mu_log + sigma_log*ndtri(v). The difficulty vector is
    never modified, so its marginal is preserved exactly. A 2-D ``betas`` is a
    batch of pools, one per row, ranked row by row.

    ``ndtr`` and ``ndtri`` are in-package ports of cephes' ``ndtr.c`` and
    ``ndtri.c``, which ``scipy.special`` runs, and return its values bit for
    bit: numpy evaluates the rational functions step for step, and the C
    library's ``exp`` and ``log`` (through ``math``) run only where cephes
    calls them, on erfc's branch |z|/sqrt(2) >= 1 and on ndtri's tails, y
    outside (e^-2, 1 - e^-2). Step (2) reads a table of the 2n-1 values ranks
    can take, built once per item count n.
    """
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    n = betas.shape[-1]
    if n < 2:
        raise InsufficientDataError("copula needs at least 2 items to form ranks")
    ranks = _average_ranks(betas)
    if np.isnan(ranks).any():  # a NaN difficulty: its row is NaN, and the pool checks reject it
        z_beta = _ndtri(rank_uniform(betas))
    else:
        z_beta = _rank_quantiles(n)[(2 * ranks).astype(np.intp) - 2]
    z_indep = rng.standard_normal(betas.shape)
    z_lam = spec.rho * z_beta + np.sqrt(1.0 - spec.rho**2) * z_indep
    log_lam = spec.mu_log + spec.sigma_log * _ndtri(_ndtr(z_lam))
    return np.exp(log_lam)


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
