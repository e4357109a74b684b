"""Latent ability generation.

Each built-in shape is constructed so that the base variable ``z`` has mean 0
and variance 1 analytically; abilities are then ``theta = mu + sigma * z``.
Shapes:

* ``normal``      -- standard normal.
* ``bimodal``     -- z = s*delta + eps with s a random sign and
                     eps ~ Normal(0, 1 - delta^2); delta in (0, 1).
* ``skew_pos``    -- z = (Gamma(k, 1) - k) / sqrt(k); 0 < k <= 2**52.
* ``heavy_tail``  -- z = t_nu / sqrt(nu / (nu - 2)); finite nu > 2, and nu > 4 is
                     needed for a finite fourth moment.
* ``mixture``     -- arbitrary normal mixture, re-centered and re-scaled
                     analytically so the standardization invariant holds.

Because the construction is location-scale, changing a shape never changes
the first two moments of the generated abilities.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from .errors import DegenerateInputError, EmptyRequestError, ParameterError, real_number
from .rng import stream

# The shape_params keys each shape takes.
_SHAPE_KEYS = {
    "normal": (),
    "bimodal": ("delta",),
    "skew_pos": ("k",),
    "heavy_tail": ("nu",),
    "mixture": ("components",),
}
SHAPES = tuple(_SHAPE_KEYS)

VALIDATION_SHAPE_PARAMS = {
    "normal": {},
    "bimodal": {"delta": 0.8},
    "skew_pos": {"k": 4.0},
    "heavy_tail": {"nu": 5.0},
}


# Near its mean, Gamma(k, 1) is held to a spacing of about k * 2**-52, so
# skew_pos's z = (Gamma(k, 1) - k) / sqrt(k) moves in steps of about
# sqrt(k) * 2**-52: at most 2**-26 up to this k. Past it the sample loses its
# resolution (16 distinct values in 2000 draws at k = 1e30).
_SKEW_K_MAX = 2.0**52

_COMPONENT_KEYS = ("weight", "mean", "sd")


def _mixture_components(params: Mapping[str, Any]):
    comps = params.get("components")
    if not isinstance(comps, (list, tuple)) or not comps:
        raise ParameterError("shape_params.components must be a nonempty list for mixture")
    for i, comp in enumerate(comps):
        name = f"shape_params.components[{i}]"
        if not isinstance(comp, Mapping) or set(comp) != set(_COMPONENT_KEYS):
            raise ParameterError(
                f"{name} must be an object holding exactly weight, mean and sd, got {comp!r}")
        for key in _COMPONENT_KEYS:
            if not np.isfinite(real_number(f"{name}.{key}", comp[key])):
                raise ParameterError(f"{name}.{key} must be finite, got {comp[key]!r}")
    w, m, s = (np.asarray([c[key] for c in comps], dtype=float) for key in _COMPONENT_KEYS)
    if np.any(w <= 0):
        raise ParameterError("shape_params.components weights must be positive")
    if np.any(s < 0):
        raise ParameterError("shape_params.components sd must be nonnegative")
    w = w / w.sum()
    mean = float(np.sum(w * m))
    var = float(np.sum(w * (s**2 + m**2)) - mean**2)
    if var <= 0:
        raise ParameterError("mixture has zero variance; cannot standardize")
    return w, m, s, mean, var


@dataclass(frozen=True)
class LatentSpec:
    """Shape of the latent distribution plus location and scale; draws use the caller's rng."""

    shape: str = "normal"
    shape_params: Mapping[str, Any] = field(default_factory=dict)
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ParameterError(f"shape must be one of {SHAPES}, got {self.shape!r}")
        p = self.shape_params
        for key in p:
            if key not in _SHAPE_KEYS[self.shape]:
                raise ParameterError(
                    f"shape_params.{key} is not a parameter of shape {self.shape!r} "
                    f"(it takes {list(_SHAPE_KEYS[self.shape])})"
                )
        scalars = [("mu", self.mu), ("sigma", self.sigma)]
        if self.shape in ("bimodal", "skew_pos", "heavy_tail"):
            key = _SHAPE_KEYS[self.shape][0]
            scalars.append((f"shape_params.{key}", p.get(key)))
        for name, value in scalars:
            real_number(name, value)
        if not np.isfinite(self.mu):
            raise ParameterError("mu must be finite")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ParameterError(f"sigma must be positive, got {self.sigma}")
        if self.shape == "bimodal":
            delta = p["delta"]
            if not 0 < delta < 1:
                raise ParameterError(f"shape_params.delta must lie in (0, 1), got {delta}")
        elif self.shape == "skew_pos":
            k = p["k"]
            if not 0 < k <= _SKEW_K_MAX:  # False for NaN and inf
                raise ParameterError(f"shape_params.k must be finite and lie in (0, 2**52], got {k}")
        elif self.shape == "heavy_tail":
            nu = p["nu"]
            if not (np.isfinite(nu) and nu > 2):
                raise ParameterError(
                    f"shape_params.nu must be finite and exceed 2 (variance undefined), got {nu}"
                )
            if nu <= 4:
                warnings.warn(
                    f"heavy_tail with nu={nu} <= 4 has no fourth moment; "
                    "kurtosis diagnostics will be undefined",
                    UserWarning,
                    stacklevel=2,
                )
        elif self.shape == "mixture":
            _mixture_components(p)

    def to_dict(self) -> dict:
        return {
            "shape": self.shape,
            "shape_params": dict(self.shape_params),
            "mu": self.mu,
            "sigma": self.sigma,
        }

    @staticmethod
    def from_dict(d: Mapping[str, Any]) -> "LatentSpec":
        """Read a spec; the ``seed`` key of older documents governed no draw and is ignored."""
        if not isinstance(d, Mapping):
            raise ParameterError(f"latent must be an object, got {d!r}")
        shape = d["shape"]
        params = d.get("shape_params", {})
        if not isinstance(params, Mapping):
            raise ParameterError(f"shape_params must be an object, got {params!r}")
        return LatentSpec(
            shape=shape,
            shape_params=dict(params),
            mu=real_number("mu", d.get("mu", 0.0)),
            sigma=real_number("sigma", d.get("sigma", 1.0)),
        )


@dataclass
class LatentSample:
    """Generated abilities together with the pre-standardized draws."""

    theta: np.ndarray
    z: np.ndarray
    spec: LatentSpec

    @property
    def sample_moments(self) -> dict:
        return sample_moments(self.theta)


_TINY = np.finfo(float).tiny  # the smallest normal float64


def _unit_sample(x: np.ndarray) -> tuple:
    """Sample ``x`` scaled by the power of two ``2^-e`` that puts its largest
    deviation from its mean in [0.5, 1), and ``e``.

    The scaling is exact, and the largest scaled deviation's square and fourth
    power are normal floats at every scale of ``x``, where ``(x - mean)^2``
    overflows past about 1e154 and underflows below about 1e-154.
    """
    e = int(np.frexp(np.max(np.abs(x - np.mean(x))))[1])
    return np.ldexp(x, -e), e


def _constant(x: np.ndarray) -> bool:
    """Whether sample ``x`` is constant up to rounding.

    It is when ``m2 <= (eps*mean)^2``, with ``m2 = mean((x - mean)^2)``, the floor
    below which ``scipy.stats.skew`` and ``kurtosis`` return NaN, or when its
    values are all equal: the mean of equal values can round some ulps off
    them, and their m2 past the floor. The test runs on :func:`_unit_sample`,
    so it does not depend on the sample's scale.
    """
    unit, _ = _unit_sample(x)
    mean = np.mean(unit)
    d = unit - mean
    return bool(np.mean(d * d) <= (np.finfo(float).eps * mean) ** 2 or x.min() == x.max())


def _shape_ratios(d: np.ndarray) -> tuple:
    """Skewness m3/m2^1.5 and excess kurtosis m4/m2^2 - 3 of deviations ``d``, in scipy's order of operations.

    Each ratio comes with whether it kept its bits: it is finite and its
    denominator, m2^1.5 or m2^2, is a normal float.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d2 = d * d
        m2 = np.mean(d2)
        dens = m2**1.5, m2**2
        ratios = float(np.mean(d2 * d) / dens[0]), float(np.mean(d2 * d2) / dens[1] - 3.0)
    return ratios, [bool(np.isfinite(r) and _TINY <= den < np.inf) for r, den in zip(ratios, dens)]


def sample_moments(x: np.ndarray) -> dict:
    """Mean, unbiased variance, skewness, and excess kurtosis of a sample.

    Skewness m3/m2^1.5 and excess kurtosis m4/m2^2 - 3 are the biased ratios
    of the central moments m_k = mean((x - mean(x))^k), as ``scipy.stats``
    computes them by default. Both are NaN for a constant sample (see
    :func:`_constant`, which does not depend on the sample's scale). Past
    scales of about 1e-77 and 1e77 a ratio's denominator m2^1.5 or m2^2
    leaves the normal floats, and scipy's ratio loses its bits or is 0/0 or
    inf/inf. That ratio, or one that is not finite, is then scipy's on
    :func:`_unit_sample`. The rescaling is exact, and a ratio scipy computes
    over a normal denominator keeps its bits. The variance is ``inf`` or 0 at
    scales where float64 cannot hold it.
    """
    x = np.asarray(x, dtype=float)
    skew = kurt = float("nan")
    if not _constant(x):
        ratios, kept = _shape_ratios(x - np.mean(x))
        if not all(kept):
            unit, _ = _unit_sample(x)
            rescaled, _ = _shape_ratios(unit - np.mean(unit))
            ratios = [r if k else u for r, k, u in zip(ratios, kept, rescaled)]
        skew, kurt = ratios
    with np.errstate(over="ignore"):
        var = float(np.var(x, ddof=1)) if x.size > 1 else 0.0
    return {
        "mean": float(np.mean(x)),
        "var": var,
        "skew": skew,
        "excess_kurtosis": kurt,
    }


def _sample_z(spec: LatentSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    p = spec.shape_params
    if spec.shape == "normal":
        return rng.standard_normal(n)
    if spec.shape == "bimodal":
        delta = float(p["delta"])
        signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        eps = rng.normal(0.0, np.sqrt(1.0 - delta**2), n)
        return signs * delta + eps
    if spec.shape == "skew_pos":
        k = float(p["k"])
        return (rng.gamma(k, 1.0, n) - k) / np.sqrt(k)
    if spec.shape == "heavy_tail":
        nu = float(p["nu"])
        return rng.standard_t(nu, n) / np.sqrt(nu / (nu - 2.0))
    if spec.shape == "mixture":
        w, m, s, mean, var = _mixture_components(p)
        comp = rng.choice(len(w), size=n, p=w)
        draws = rng.normal(m[comp], s[comp])
        return (draws - mean) / np.sqrt(var)
    raise ParameterError(f"unknown shape {spec.shape!r}")


def sample_latent(spec: LatentSpec, n: int, rng: np.random.Generator) -> LatentSample:
    """Draw ``n`` abilities from ``spec`` with the caller's generator ``rng``."""
    n = int(n)
    if n < 1:
        raise EmptyRequestError(f"requested sample size must be >= 1, got {n}")
    z = _sample_z(spec, n, rng)
    theta = spec.mu + spec.sigma * z
    return LatentSample(theta=theta, z=z, spec=spec)


def theoretical_moments(spec: LatentSpec) -> dict:
    """Closed-form moments of the pre-standardized variable ``z``.

    Mean and variance are 0 and 1 for every shape by construction. The
    bimodal excess kurtosis follows from direct moment expansion of the
    sign-mixture construction: E[z^4] = 3 - 2*delta^4, so the excess is
    -2*delta^4. For ``heavy_tail`` with nu <= 4 the fourth moment does not
    exist and the excess kurtosis is reported as NaN.
    """
    p = spec.shape_params
    skew, kurt = 0.0, 0.0
    if spec.shape == "bimodal":
        kurt = -2.0 * float(p["delta"]) ** 4
    elif spec.shape == "skew_pos":
        k = float(p["k"])
        skew, kurt = 2.0 / np.sqrt(k), 6.0 / k
    elif spec.shape == "heavy_tail":
        nu = float(p["nu"])
        kurt = 6.0 / (nu - 4.0) if nu > 4 else float("nan")
    elif spec.shape == "mixture":
        w, m, s, mean, var = _mixture_components(p)
        m1 = np.sum(w * m)
        m2 = np.sum(w * (m**2 + s**2))
        m3 = np.sum(w * (m**3 + 3 * m * s**2))
        m4 = np.sum(w * (m**4 + 6 * m**2 * s**2 + 3 * s**4))
        mu3 = m3 - 3 * m1 * m2 + 2 * m1**3
        mu4 = m4 - 4 * m1 * m3 + 6 * m1**2 * m2 - 3 * m1**4
        skew = float(mu3 / var**1.5)
        kurt = float(mu4 / var**2 - 3.0)
    return {"mean": 0.0, "variance": 1.0, "skewness": float(skew), "excess_kurtosis": float(kurt)}


# Grid points times draws per temporary of the kernel density estimate (512 KiB).
_KDE_BLOCK_CELLS = 1 << 16


def _gaussian_kde(x: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Gaussian kernel density estimate of sample ``x`` at the points ``grid``.

    The bandwidth is Scott's rule, h = sd * n^(-1/5) with the sample SD
    (ddof=1), and the density is mean_i phi((g - x_i)/h) / h with phi the
    standard normal density: ``scipy.stats.gaussian_kde`` in one dimension.
    The SD is taken on :func:`_unit_sample` and scaled back: ``np.std``'s
    bits wherever ``np.std`` does not overflow or underflow, and finite there.
    A few grid points are evaluated at a time, so no temporary holds more
    than about ``_KDE_BLOCK_CELLS`` values.

    The sum of the terms exp(-u^2/2) is divided by ``norm = n*h*sqrt(2*pi)``.
    Where ``norm`` is below 1 (h below about 1/n), that division would
    magnify exp's rounding of a subnormal term, up to 2^-1074 absolute, into
    a relative error of up to 2e-11 in a normal density (and a term below
    2^-1075 would be lost). There ``-log(norm)``, capped at 700 so that its
    exp stays finite, joins each exponent instead, and the sum is divided by
    ``norm * exp(shift)``, near 1; elsewhere the shift is 0 and changes no bit.
    """
    n = x.size
    unit, e = _unit_sample(x)
    h = np.ldexp(np.std(unit, ddof=1), e) * n**-0.2
    norm = n * h * np.sqrt(2.0 * np.pi)
    shift = min(-np.log(norm), 700.0) if norm < 1.0 else 0.0
    scaled = x / h
    rows = max(1, _KDE_BLOCK_CELLS // n)
    sums = np.empty(grid.size)
    for start in range(0, grid.size, rows):
        block = grid[start:start + rows, None] / h - scaled
        block *= block
        block *= -0.5
        if shift:
            block += shift
        np.exp(block, out=block)
        block.sum(axis=1, out=sums[start:start + rows])
    return sums / (norm * np.exp(shift))


@dataclass
class DensityTable:
    """Grid of kernel density estimates plus per-shape sample moments."""

    # The version of the ``shapes`` meta document and of the CSV it describes;
    # 2 since the densities and moments are computed with numpy, not scipy.
    SCHEMA_VERSION = 2

    theta: np.ndarray
    densities: dict[str, np.ndarray]
    moments: dict[str, dict]

    def to_csv(self, path) -> None:
        labels = list(self.densities)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(["theta"] + labels) + "\n")
            for i in range(self.theta.size):
                row = [repr(float(self.theta[i]))]
                row += [repr(float(self.densities[lab][i])) for lab in labels]
                fh.write(",".join(row) + "\n")


def describe_shapes(specs: list[LatentSpec], n: int, seeds: list[int], grid_size: int = 256) -> DensityTable:
    """Sample spec ``k`` from ``stream(seeds[k], "latent")`` and tabulate kernel density
    estimates on a shared grid.

    A sample that is constant up to rounding has no density and NaN moments;
    it raises :class:`DegenerateInputError` naming its label.
    """
    if int(n) < 100:
        raise ParameterError(f"n must be >= 100 for density estimation, got {n}")
    if not specs:
        return DensityTable(theta=np.empty(0), densities={}, moments={})

    samples, labels = [], []
    counts: dict[str, int] = {}
    for spec, seed in zip(specs, seeds, strict=True):
        counts[spec.shape] = counts.get(spec.shape, 0) + 1
        label = spec.shape if counts[spec.shape] == 1 else f"{spec.shape}_{counts[spec.shape]}"
        theta = sample_latent(spec, n, rng=stream(seed, "latent")).theta
        if _constant(theta):
            raise DegenerateInputError(
                f"shape {label!r} drew a constant sample; it has no density to estimate")
        labels.append(label)
        samples.append(theta)

    lo = min(float(theta.min()) for theta in samples)
    hi = max(float(theta.max()) for theta in samples)
    pad = 0.05 * (hi - lo)
    grid = np.linspace(lo - pad, hi + pad, grid_size)

    densities = {label: _gaussian_kde(theta, grid) for label, theta in zip(labels, samples)}
    moments = {label: sample_moments(theta) for label, theta in zip(labels, samples)}
    return DensityTable(theta=grid, densities=densities, moments=moments)
