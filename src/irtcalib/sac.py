"""Stochastic scale calibration by projected Robbins-Monro iteration.

Each iteration draws a fresh latent batch, measures the reliability of the
current scale on it with that iteration's pool realization (the same fixed
pool every time when ``items`` is an :class:`ItemPool`), and moves the scale
against the signed error with a decaying step; the reported scale is the
average of the post-burn-in iterates. Unlike the quadrature method this
integrates over all generation randomness and can target the error-variance
metric directly.

The pools do not depend on the scale, so all ``n_iter`` of them are drawn
up front in one batch from the stream ``"sac/pools"`` (row ``n - 1`` serves
iteration ``n``); the abilities are drawn one batch per iteration, in
iteration order, from the sequential stream ``"sac/theta"``. Neither do the
abilities, so they are drawn and prepared for the kernel (see
:func:`~irtcalib.psychometrics.prepare_samples`) a chunk of iterations at a
time: each iteration then runs only its scale's coefficients, the kernel
passes and the summary.

Every iteration runs the information kernel in float32: the update reads
only the sign and rough size of a measurement that is noisy at about 1e-2,
and float32 moves it by about 1e-8. Float32's ``cosh`` overflows, giving
``h = 0``, at ``|x|`` near 89.4 rather than 710.5, so an ``msem`` iteration
keeps its float32 summary only where that summary proves every person's
information far above the ``INFO_FLOOR`` (see :func:`_msem_summary`), and
evaluates the batch again in float64 otherwise; the ``INFO_FLOOR`` rule and
:class:`DivergedObjectiveError` therefore meet the same batches as in
float64. After a batch whose summary does not prove it, the next batches go
straight to float64 until one does. Everything reported (the evaluation
blocks behind ``achieved_rho``) stays float64.

Several chains whose configs differ only in ``metric`` can run in lockstep
(:func:`sac_calibrate_chains`): each iteration's batch and pool row, and
each evaluation block and its pool, are drawn once and handed to every
chain, which keeps its own scale, clamps, float32 flag and traces and makes
its own kernel calls. Each chain's result equals a lone run of its config
bit for bit; :func:`sac_calibrate` is the one-chain case. The validation
study runs a cell's ``sac_info`` and ``sac_msem`` chains this way, so the
two are compared on the same draws (common random numbers).

The reported ``achieved_rho`` comes from an independent evaluation stream:
``eval_m / m_per_iter`` blocks, each shaped exactly like an iteration batch
and each on its own pool (``build_pool`` at ``child_seed(seed,
"sac/eval-pool", b)``), whose metric values are averaged. This estimates
the same functional the iteration equilibrates on.

On heavy-tailed abilities the error-variance metric is itself heavy-tailed:
``1/J`` grows like ``exp(c*lambda*|theta|)`` while the tails of Student t
fall off polynomially, so ``E[1/J]`` is infinite at every scale and a rare
batch with an extreme ability collapses its ``w_bar``. The scale stays
right, but the average over the evaluation blocks misses the target now and
then (the README gives measurements).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Mapping, NamedTuple, Sequence

import numpy as np

from .eqc import ResultDocument
from .errors import (
    ConfigurationError, DivergedObjectiveError, EmptyRequestError, ParameterError, real_number, whole_number,
)
from .items import ItemPool, PoolConfig, build_pool, draw_pools
from .latent import LatentSpec, sample_latent
from .psychometrics import (
    DEFAULT_INTERVAL,
    METRIC_AVG_INFO,
    METRICS,
    PreparedSample,
    ReliabilitySummary,
    ScaleInterval,
    metric_value,
    prepare_samples,
    reliability_summary,
)
from .rng import child_seed, stream

STATUS_OK = "ok"
STATUS_BOUNDARY_CHATTER = "hit_boundary_often"
STATUSES = (STATUS_OK, STATUS_BOUNDARY_CHATTER)

_BOUNDARY_CHATTER_FRACTION = 0.10


@dataclass(frozen=True)
class SacConfig:
    """Inputs for a stochastic calibration run."""

    target_rho: float
    latent: LatentSpec
    items: PoolConfig | ItemPool
    metric: str = METRIC_AVG_INFO
    n_iter: int = 300
    burn_in: int = 150
    step_a: float = 1.0
    step_A: float = 50.0
    step_gamma: float = 0.67
    m_per_iter: int = 1000
    interval: ScaleInterval = DEFAULT_INTERVAL
    c_init: Any = None  # float, a calibration result (warm start), or None for the midpoint
    eval_m: int | None = None  # None -> 10 * m_per_iter
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.target_rho < 1.0:
            raise ParameterError(f"target_rho must lie in (0, 1), got {self.target_rho}")
        if self.metric not in METRICS:
            raise ParameterError(f"metric must be one of {METRICS}, got {self.metric!r}")
        if self.n_iter < 1:
            raise ParameterError(f"n_iter must be >= 1, got {self.n_iter}")
        if not 0 <= self.burn_in < self.n_iter:
            raise ParameterError(
                f"burn_in must satisfy 0 <= burn_in < n_iter, got {self.burn_in} vs {self.n_iter}"
            )
        if self.step_a <= 0:
            raise ParameterError(f"step_a must be positive, got {self.step_a}")
        if self.step_A < 0:
            raise ParameterError(f"step_A must be nonnegative, got {self.step_A}")
        if not 0.5 < self.step_gamma <= 1.0:
            raise ParameterError(f"step_gamma must lie in (0.5, 1], got {self.step_gamma}")
        if self.m_per_iter < 1:
            raise ParameterError(f"m_per_iter must be >= 1, got {self.m_per_iter}")
        if self.eval_m is not None and self.eval_m < 1:
            raise ParameterError(f"eval_m must be >= 1, got {self.eval_m}")
        c0 = self.resolved_c_init()
        if not self.interval.c_lower <= c0 <= self.interval.c_upper:
            raise ConfigurationError(
                f"c_init {c0} lies outside the calibration interval "
                f"[{self.interval.c_lower}, {self.interval.c_upper}]"
            )

    def resolved_c_init(self) -> float:
        if self.c_init is None:
            return self.interval.midpoint()
        c0 = getattr(self.c_init, "c_star", self.c_init)
        return float(c0)

    def resolved_eval_m(self) -> int:
        return self.eval_m if self.eval_m is not None else 10 * self.m_per_iter


@dataclass
class SacResult(ResultDocument):
    """Averaged scale, its independent evaluation, and the full iterate trace."""

    RESULT_TYPE = "sac"
    # 8: msem iterations run the kernel in float32, re-checked in float64 near the floor (c* moves by about 3e-9);
    # 7: a warm start from an EQC result starts from its schema 6 c* (a fixed c_init keeps every bit);
    # 6: the information kernel takes h(x) = 1/(2 + 2 cosh x) (c* moves by about 2e-9 relative);
    # 5: 2PL copula pools take log lambda from z_lam directly (last-bit moves);
    # 4: avg_info iterations run the information kernel in float32 (msem keeps its bits);
    # 3: no latent.seed or redraw_items (both constant in effect);
    # 2: iteration pools are drawn in one batch; 1: one build_pool per iteration
    SCHEMA_VERSION = 8
    STATUSES = STATUSES

    c_star: float
    achieved_rho: float
    trace_c: np.ndarray
    trace_rho: np.ndarray
    eval_m: int
    status: str
    clamp_fraction: float
    pool: ItemPool  # evaluation-stage pool; carried so response generation can reuse it
    config: SacConfig

    def save_trace_csv(self, path) -> None:
        """Write the ``(n, c_n, rho_hat_n)`` rows, n = 1..n_iter, as CSV."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("n,c_n,rho_hat_n\n")
            for n, (c, r) in enumerate(zip(self.trace_c, self.trace_rho), start=1):
                fh.write(f"{n},{float(c)!r},{float(r)!r}\n")

    def to_dict(self) -> dict:
        cfg = self.config
        own = {"n_iter": cfg.n_iter, "burn_in": cfg.burn_in,
               "step_a": cfg.step_a, "step_A": cfg.step_A, "step_gamma": cfg.step_gamma,
               "m_per_iter": cfg.m_per_iter, "eval_m": self.eval_m, "clamp_fraction": self.clamp_fraction,
               "c_init": cfg.resolved_c_init()}
        return self._document(own, {})

    @staticmethod
    def from_dict(d: Mapping[str, Any]) -> "SacResult":
        _, config, shared = SacResult._read_shared(d)
        if not d.get("redraw_items", True):
            raise ConfigurationError(
                "a sac result run on a frozen pool (redraw_items false) cannot be reproduced")
        eval_m = whole_number("eval_m", d["eval_m"])
        cfg = SacConfig(
            **config,
            n_iter=whole_number("n_iter", d["n_iter"]),
            burn_in=whole_number("burn_in", d["burn_in"]),
            step_a=real_number("step_a", d["step_a"]),
            step_A=real_number("step_A", d["step_A"]),
            step_gamma=real_number("step_gamma", d["step_gamma"]),
            m_per_iter=whole_number("m_per_iter", d["m_per_iter"]),
            c_init=real_number("c_init", d["c_init"]),
            eval_m=eval_m,
        )
        return SacResult(
            **shared,
            trace_c=np.empty(0),
            trace_rho=np.empty(0),
            eval_m=eval_m,
            clamp_fraction=real_number("clamp_fraction", d["clamp_fraction"]),
            config=cfg,
        )


def step_size(n: int, cfg: SacConfig) -> float:
    """Decaying gain ``a / (n + A)^gamma`` at iteration ``n`` (1-based)."""
    if n < 1:
        raise ParameterError(f"iteration index must be >= 1, got {n}")
    return cfg.step_a / (n + cfg.step_A) ** cfg.step_gamma


class _PoolRow(NamedTuple):
    """One pool of a batch: the ``beta``/``lambda0`` rows the kernel reads."""

    beta: np.ndarray
    lambda0: np.ndarray

    @property
    def n_items(self) -> int:
        return self.beta.size


# Abilities drawn and prepared per chunk of iterations: a fixed count of
# rows, so memory does not grow with n_iter; a chunk holds at least one batch.
_CHUNK_ROWS = 1 << 15


def _batches(config: SacConfig, rng: np.random.Generator, count: int, dtype):
    """``count`` batches of ``m_per_iter`` abilities from ``rng``, one ``sample_latent``
    call each in batch order, prepared for the kernel a chunk of batches at a time."""
    m = config.m_per_iter
    per_chunk = max(1, _CHUNK_ROWS // m)
    for first in range(0, count, per_chunk):
        rows = np.empty((min(per_chunk, count - first), m))
        for row in rows:
            row[:] = sample_latent(config.latent, m, rng=rng).theta
        yield from prepare_samples(rows, dtype)


# The float32 information floor T of an msem iteration. Per person, float32
# loses only terms of two kinds: those where cosh overflows (|x| > 89.4, and
# there the exact 1/(1 + cosh x) < 1/FLT_MAX = 2.94e-39), and those rounded
# in the subnormal range (each kernel value, product and partial sum below
# FLT_MIN = 1.18e-38 is off by at most 2^-150 = 7.0e-46). With weights
# w_i = (c*lambda0_i)^2/2 and W their sum over the I items, a person's J
# loses at most 2.94e-39*W + 7.0e-46*(W + 2I), so J >= T = 1e-20 keeps the
# loss below float32's own rounding 2^-24*J = 6.0e-28 while W <= 1e11 and
# I <= 1e17 (every W <= 1e11 is c*lambda0 <= 4.4e4 on 100 items). Because
# max(1/J) <= sum(1/J) = m*msem, an msem below 1/(m*T) proves every J >= T.
# The proof also keeps the INFO_FLOOR rule exact: the lost terms only lower
# float32's J, and float32's rounding of x = a*theta - a*beta, at most
# 4*2^-24*(|a*theta| + |a*beta|), moves h and so J by a factor below
# exp(640) < 1e278 while |a*theta| + |a*beta| < 2.6e9; the float64 J of a
# proven batch is then above 1e-298, clear of INFO_FLOOR = 1e-300.
_MSEM_FLOOR32 = 1e-20


def _proves_floor(summary: ReliabilitySummary, m: int) -> bool:
    """Whether the msem of ``m`` persons proves every information at least ``_MSEM_FLOOR32``."""
    return summary.msem * m < 1.0 / _MSEM_FLOOR32  # inf and nan fail too


def _msem_summary(sample: PreparedSample, pool: ItemPool | _PoolRow, c: float,
                  float32: bool = True) -> ReliabilitySummary:
    """An msem iteration's summary of a float32-prepared batch: its float32
    summary where that proves every person's information at least
    ``_MSEM_FLOOR32``, and the float64 one of the same batch (a float64
    design, the batch's own variance) otherwise, or at once when ``float32``
    is false."""
    if float32:
        summary = reliability_summary(sample, pool, c, dtype=np.float32)
        if _proves_floor(summary, sample.theta.size):
            return summary
    return reliability_summary(sample, pool, c)


class _Chain:
    """The state one chain of a shared run keeps for itself: its scale, clamps,
    float32 flag and traces. The batches and pools come from the run."""

    def __init__(self, config: SacConfig):
        self.config = config
        self.c = config.resolved_c_init()
        self.clamps = 0
        # An msem batch whose summary does not prove the float32 floor sends
        # the next batch straight to float64, until a float64 summary proves
        # it: near the floor float32's cosh overflows on many cells, where
        # numpy's cosh runs about 19 times slower (AVX-512 Xeon), and the
        # batch would be evaluated again anyway.
        self.float32 = True
        self.trace_c = np.empty(config.n_iter)
        self.trace_rho = np.empty(config.n_iter)

    def measure(self, n: int, sample: PreparedSample, pool: _PoolRow) -> float:
        """Iteration ``n``'s noisy reliability of the current scale on the batch and pool."""
        if self.config.metric == METRIC_AVG_INFO:
            return reliability_summary(sample, pool, self.c, dtype=np.float32).rho_tilde
        summary = _msem_summary(sample, pool, self.c, self.float32)
        self.float32 = _proves_floor(summary, sample.theta.size)
        if summary.underflow:
            raise DivergedObjectiveError(
                f"error-variance objective diverged at iteration {n} (c={self.c}): "
                "test information underflowed to zero on the batch"
            )
        return summary.w_bar

    def update(self, n: int, rho_hat: float) -> None:
        """The projected step of iteration ``n`` against the signed error of ``rho_hat``."""
        cfg = self.config
        raw = self.c - step_size(n, cfg) * (rho_hat - cfg.target_rho)
        self.c = min(max(raw, cfg.interval.c_lower), cfg.interval.c_upper)
        if self.c != raw:
            self.clamps += 1
        self.trace_c[n - 1] = self.c
        self.trace_rho[n - 1] = rho_hat


def _check_shared(configs) -> SacConfig:
    """The first of ``configs``, once every other one is known to differ from it only in ``metric``."""
    if not configs:
        raise EmptyRequestError("a shared SAC run needs at least one config")
    first = configs[0]
    for config in configs[1:]:
        for f in fields(SacConfig):
            if f.name == "metric":
                continue
            a, b = getattr(first, f.name), getattr(config, f.name)
            if f.name == "c_init":  # a warm start is read only for its c*
                a, b = first.resolved_c_init(), config.resolved_c_init()
            if not (a is b or _equal(a, b)):
                raise ConfigurationError(f"the chains of a shared SAC run differ in {f.name}, not only in metric")
    return first


def _equal(a, b) -> bool:
    try:
        return bool(a == b)
    except ValueError:  # dataclasses holding arrays (an ItemPool) count as equal only when identical
        return False


def sac_calibrate_chains(configs: Sequence[SacConfig]) -> list[SacResult]:
    """Run SAC chains in lockstep on one draw sequence: one result per config, in order.

    The configs may differ only in ``metric``. Each iteration draws one
    ability batch and one pool row, the ones a lone run of any of the configs
    draws, and every chain measures and moves its own scale on them; the
    evaluation blocks and their pools are shared the same way. So each
    result equals :func:`sac_calibrate` of its own config bit for bit, while
    the draws are made once and the chains differ only by their metric
    (common random numbers). Each chain still makes its own kernel calls.

    Raises :class:`DivergedObjectiveError` at the first iteration where any
    ``msem`` chain meets a batch whose information underflows to zero
    (infinite error variance), as that chain alone would; large but finite
    error variances are propagated as ordinary noise.
    """
    config = _check_shared(configs)
    chains = [_Chain(cfg) for cfg in configs]
    betas, lambdas = draw_pools(config.items, config.n_iter, stream(config.seed, "sac/pools"))
    batches = _batches(config, stream(config.seed, "sac/theta"), config.n_iter, np.float32)
    for n, sample in enumerate(batches, start=1):
        pool = _PoolRow(betas[n - 1], lambdas[n - 1])
        for chain in chains:
            chain.update(n, chain.measure(n, sample, pool))
    c_stars = [float(np.mean(chain.trace_c[config.burn_in:])) for chain in chains]

    # Independent evaluation: blocks shaped like iteration batches, fresh streams.
    n_blocks = max(1, config.resolved_eval_m() // config.m_per_iter)
    pools = [build_pool(config.items, child_seed(config.seed, "sac/eval-pool", b))
             for b in range(n_blocks)]
    blocks = _batches(config, stream(config.seed, "sac/eval"), n_blocks, np.float64)
    values = [[] for _ in chains]
    for sample, pool in zip(blocks, pools):
        for chain, c_star, chain_values in zip(chains, c_stars, values):
            chain_values.append(metric_value(reliability_summary(sample, pool, c_star), chain.config.metric))

    results = []
    for chain, c_star, chain_values in zip(chains, c_stars, values):
        clamp_fraction = chain.clamps / config.n_iter
        results.append(SacResult(
            c_star=c_star,
            achieved_rho=float(np.mean(chain_values)),
            trace_c=chain.trace_c,
            trace_rho=chain.trace_rho,
            eval_m=n_blocks * config.m_per_iter,
            status=STATUS_BOUNDARY_CHATTER if clamp_fraction > _BOUNDARY_CHATTER_FRACTION else STATUS_OK,
            clamp_fraction=clamp_fraction,
            pool=pools[0],
            config=chain.config,
        ))
    return results


def sac_calibrate(config: SacConfig) -> SacResult:
    """Run the full stochastic calibration: the one-chain case of :func:`sac_calibrate_chains`.

    Raises :class:`DivergedObjectiveError` if the error-variance metric meets
    a batch whose information underflows to zero (infinite error variance);
    large but finite error variances are propagated as ordinary noise.
    """
    return sac_calibrate_chains([config])[0]


def sac_deviation_study(config: SacConfig, n_seeds: int) -> dict:
    """Deviation statistics for one condition across independent seeds.

    Each run uses a seed derived from ``(config.seed, run index)``; deltas are
    ``achieved - target``. Returns the summary-table aggregates: mean, SD,
    mean absolute error, and the percentage of runs within 0.01 / 0.02 / 0.05.
    """
    if n_seeds < 2:
        raise ParameterError(f"n_seeds must be >= 2 for deviation statistics, got {n_seeds}")
    deltas = np.empty(n_seeds)
    for i in range(n_seeds):
        run_cfg = replace(config, seed=child_seed(config.seed, "sac/study", i))
        deltas[i] = sac_calibrate(run_cfg).achieved_rho - config.target_rho
    stats = deviation_statistics(deltas)
    del stats["max_abs_delta"]
    return {"n_seeds": int(n_seeds), **stats}


def deviation_statistics(deltas: np.ndarray) -> dict:
    """Mean, SD (``ddof=1``; NaN for one value), MAE, max ``|delta|`` and the
    percentages of ``|delta|`` below 0.01 / 0.02 / 0.05, in that key order."""
    abs_d = np.abs(deltas)
    return {
        "mean_delta": float(np.mean(deltas)),
        "sd_delta": float(np.std(deltas, ddof=1)) if deltas.size > 1 else float("nan"),
        "mae": float(np.mean(abs_d)),
        "max_abs_delta": float(np.max(abs_d)),
        "pct_within_001": float(100.0 * np.mean(abs_d < 0.01)),
        "pct_within_002": float(100.0 * np.mean(abs_d < 0.02)),
        "pct_within_005": float(100.0 * np.mean(abs_d < 0.05)),
    }
