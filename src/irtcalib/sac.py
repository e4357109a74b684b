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
iteration ``n``); the abilities are drawn one batch per iteration from the
sequential stream ``"sac/theta"``.

An ``avg_info`` iteration runs the information kernel in float32: the update
reads only the sign and rough size of a measurement that is noisy at about
1e-2, and float32 moves it by about 1e-8. Everything reported (the
evaluation blocks behind ``achieved_rho``) and every ``msem`` iteration stay
float64, since float32's ``exp(-|x|)`` underflows at ``|x|`` near 103 rather
than 745 and would move the ``INFO_FLOOR`` rule onto other batches.

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

from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping, NamedTuple

import numpy as np

from .eqc import ResultDocument
from .errors import (
    ConfigurationError, DivergedObjectiveError, ParameterError, real_number, whole_number,
)
from .items import ItemPool, PoolConfig, build_pool, draw_pools
from .latent import LatentSpec, sample_latent
from .psychometrics import (
    DEFAULT_INTERVAL,
    METRIC_AVG_INFO,
    METRICS,
    ScaleInterval,
    metric_value,
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
    # 5: 2PL copula pools take log lambda from z_lam directly (last-bit moves);
    # 4: avg_info iterations run the information kernel in float32 (msem keeps its bits);
    # 3: no latent.seed or redraw_items (both constant in effect);
    # 2: iteration pools are drawn in one batch; 1: one build_pool per iteration
    SCHEMA_VERSION = 5
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


def _iterate(
    config: SacConfig,
    c0: float,
    rho_of: Callable[[int, float], float],
) -> tuple[np.ndarray, np.ndarray, int]:
    """Run the projected update loop; ``rho_of(n, c)`` supplies the noisy measurement."""
    lo, hi = config.interval.c_lower, config.interval.c_upper
    trace_c = np.empty(config.n_iter)
    trace_rho = np.empty(config.n_iter)
    c = c0
    clamps = 0
    for n in range(1, config.n_iter + 1):
        rho_hat = rho_of(n, c)
        raw = c - step_size(n, config) * (rho_hat - config.target_rho)
        c = min(max(raw, lo), hi)
        if c != raw:
            clamps += 1
        trace_c[n - 1] = c
        trace_rho[n - 1] = rho_hat
    return trace_c, trace_rho, clamps


class _PoolRow(NamedTuple):
    """One pool of a batch: the ``beta``/``lambda0`` rows the kernel reads."""

    beta: np.ndarray
    lambda0: np.ndarray

    @property
    def n_items(self) -> int:
        return self.beta.size


def _summary(config: SacConfig, rng: np.random.Generator, pool, c: float, dtype=np.float64):
    """Draw ``m_per_iter`` abilities from ``rng`` and summarise them at scale ``c`` on ``pool``."""
    theta = sample_latent(config.latent, config.m_per_iter, rng=rng).theta
    return reliability_summary(theta, pool, c, dtype=dtype)


def sac_calibrate(config: SacConfig) -> SacResult:
    """Run the full stochastic calibration.

    Raises :class:`DivergedObjectiveError` if the error-variance metric meets
    a batch whose information underflows to zero (infinite error variance);
    large but finite error variances are propagated as ordinary noise.
    """
    c0 = config.resolved_c_init()
    theta_rng = stream(config.seed, "sac/theta")
    betas, lambdas = draw_pools(config.items, config.n_iter, stream(config.seed, "sac/pools"))
    dtype = np.float32 if config.metric == METRIC_AVG_INFO else np.float64

    def rho_of(n: int, c: float) -> float:
        summary = _summary(config, theta_rng, _PoolRow(betas[n - 1], lambdas[n - 1]), c, dtype)
        if config.metric != METRIC_AVG_INFO and summary.underflow:
            raise DivergedObjectiveError(
                f"error-variance objective diverged at iteration {n} (c={c}): "
                "test information underflowed to zero on the batch"
            )
        return metric_value(summary, config.metric)

    trace_c, trace_rho, clamps = _iterate(config, c0, rho_of)
    c_star = float(np.mean(trace_c[config.burn_in:]))

    # Independent evaluation: blocks shaped like iteration batches, fresh streams.
    eval_rng = stream(config.seed, "sac/eval")
    n_blocks = max(1, config.resolved_eval_m() // config.m_per_iter)
    pools = [build_pool(config.items, child_seed(config.seed, "sac/eval-pool", b))
             for b in range(n_blocks)]
    achieved = float(np.mean([metric_value(_summary(config, eval_rng, pool, c_star), config.metric)
                              for pool in pools]))

    clamp_fraction = clamps / config.n_iter
    status = STATUS_BOUNDARY_CHATTER if clamp_fraction > _BOUNDARY_CHATTER_FRACTION else STATUS_OK
    return SacResult(
        c_star=c_star,
        achieved_rho=achieved,
        trace_c=trace_c,
        trace_rho=trace_rho,
        eval_m=n_blocks * config.m_per_iter,
        status=status,
        clamp_fraction=clamp_fraction,
        pool=pools[0],
        config=config,
    )


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
