"""Command-line front end.

Subcommands: ``calibrate`` (solve for the scale), ``bounds`` (feasibility
screening), ``generate`` (response matrices from a stored calibration),
``validate`` (factorial study harness), ``compare`` (two calibrations), and
``shapes`` (latent density tables).

Exit codes: 0 success; 2 invalid flags or malformed config; 3 infeasible
target (boundary solution returned); 4 numerical failure; 5 missing input
file or unwritable output location.

Every output document embeds a reproducibility block (package version,
generator name, seeds, config echo) and contains nothing run-dependent, so
identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import warnings
from pathlib import Path

from . import __version__, rng
from .eqc import (
    CalibrationResult,
    EqcConfig,
    STATUS_BOUNDARY_HIGH,
    STATUS_BOUNDARY_LOW,
    STATUS_SUCCESS,
    eqc_calibrate,
    feasibility_report,
    infeasible_message,
)
from .errors import (
    ConfigurationError,
    IngestionError,
    IrtcalibError,
    NumericalError,
    ParameterError,
    real_number,
    whole_number,
)
from .items import GEN_METHODS, MODELS, DiscriminationSpec, PoolConfig
from .latent import (
    SHAPES,
    VALIDATION_SHAPE_PARAMS,
    DensityTable,
    LatentSpec,
    describe_shapes,
    theoretical_moments,
)
from .psychometrics import DEFAULT_INTERVAL, METRIC_AVG_INFO, METRIC_MSEM, ScaleInterval
from .sac import SacConfig, SacResult, sac_calibrate
from .study import (
    DESK_PROFILE,
    FULL_PROFILE,
    SCHEMA_VERSION as STUDY_SCHEMA_VERSION,
    StudyCondition,
    compare_calibrations,
    make_grid,
    run_validation_study,
    simulate_responses,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4
EXIT_IO = 5

_METRIC_ALIASES = {"info": METRIC_AVG_INFO, "msem": METRIC_MSEM}


# ----------------------------------------------------------------------------
# small helpers


def _repro_block(command: str, seed, config_echo: dict) -> dict:
    return {
        "package": "irtcalib",
        "package_version": __version__,
        "generator": rng.GENERATOR,
        "stream_scheme": rng.STREAM_SCHEME,
        "command": command,
        "seed": seed,
        "config": config_echo,
    }


def _write_json(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(doc, fh, indent=2, allow_nan=True)
        fh.write("\n")


def _parse_kv(text: str) -> dict:
    """Parse ``k=v,k2=v2`` (or a JSON object) into a dict of floats."""
    text = text.strip()
    if not text:
        return {}
    if text.startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"invalid JSON object {text!r}: {exc}") from exc
    out = {}
    for part in text.split(","):
        if "=" not in part:
            raise ParameterError(f"expected key=value pairs, got {part!r}")
        key, value = part.split("=", 1)
        try:
            out[key.strip()] = float(value)
        except ValueError:
            raise ParameterError(f"{key.strip()} must be a number, got {value!r}") from None
    return out


def _latent_from_args(shape: str, params_text: str | None) -> LatentSpec:
    params = _parse_kv(params_text) if params_text else {}
    mu = params.pop("mu", 0.0)
    sigma = params.pop("sigma", 1.0)
    if shape != "mixture" and not params:
        params = dict(VALIDATION_SHAPE_PARAMS.get(shape, {}))
    return LatentSpec(shape=shape, shape_params=params, mu=mu, sigma=sigma)


def _pool_config_from_args(args) -> PoolConfig:
    source = {"parametric": "parametric", "pool": "empirical_pool"}[args.item_source]
    return PoolConfig(
        model=args.model,
        source=source,
        n_items=args.items,
        gen_method=args.gen_method,
        difficulty_mu=args.difficulty_mu,
        difficulty_sigma=args.difficulty_sigma,
        pool_path=args.pool_file,
        discrimination=DiscriminationSpec(mu_log=args.mu_log, sigma_log=args.sigma_log, rho=args.rho),
    )


def _read_json(path, what: str) -> dict:
    """The JSON object in file ``path``; ``what`` names the file in errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise IngestionError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal longer than Python converts
        raise ConfigurationError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path}: top level must be a JSON object")
    return doc


_RESULT_TYPES = {cls.RESULT_TYPE: cls for cls in (CalibrationResult, SacResult)}


def _load_result(path):
    """Load a stored calibration result document of either type."""
    doc = _read_json(path, "calibration file")
    kind = doc.get("result_type")
    if not isinstance(kind, str) or kind not in _RESULT_TYPES:
        raise ConfigurationError(f"{path}: unknown result_type {kind!r}")
    try:
        return _RESULT_TYPES[kind].from_dict(doc)
    except KeyError as exc:
        raise ConfigurationError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def _fmt(value: float, digits: int = 4) -> str:
    return f"{value:.{digits}f}"


# ----------------------------------------------------------------------------
# calibrate


def _print_summary(result, algorithm: str, own: list[str], tail: tuple[str, ...] = ()) -> None:
    """The summary lines both result types print, around the type's ``own`` lines and ``tail``."""
    cfg = result.config
    lines = [
        f"Calibration results ({algorithm})",
        f"  Model                    : {result.pool.model.upper()}",
        f"  Target reliability       : {_fmt(cfg.target_rho)}",
        f"  Achieved reliability     : {_fmt(result.achieved_rho)}",
        f"  Absolute error           : {result.abs_error:.2e}",
        f"  Scaling factor (c*)      : {_fmt(result.c_star)}",
        f"  Number of items          : {result.pool.n_items}",
        *own,
        f"  Status                   : {result.status}",
        f"  Search bracket           : [{cfg.interval.c_lower:.3f}, {cfg.interval.c_upper:.3f}]",
        *tail,
    ]
    print("\n".join(lines))


def _print_eqc_summary(result: CalibrationResult) -> None:
    _print_summary(result, "EQC, deterministic quadrature", [
        f"  Quadrature points (M)    : {result.config.m_quadrature}",
        f"  Reliability metric       : average-information",
        f"  Latent variance          : {_fmt(result.quadrature_sigma2)}",
    ], (f"  Bracket reliabilities    : [{_fmt(result.rho_lower)}, {_fmt(result.rho_upper)}]",))


def _print_sac_summary(result: SacResult) -> None:
    cfg = result.config
    metric = "average-information" if result.metric == METRIC_AVG_INFO else "error-variance (MSEM)"
    _print_summary(result, "SAC, stochastic approximation", [
        f"  Iterations (N, burn-in)  : {cfg.n_iter}, {cfg.burn_in}",
        f"  Draws per iteration      : {cfg.m_per_iter}",
        f"  Evaluation sample        : {result.eval_m}",
        f"  Reliability metric       : {metric}",
    ])


def cmd_calibrate(args) -> int:
    if not 0.0 < args.target < 1.0:
        print(f"error: --target must lie in (0, 1), got {args.target}", file=sys.stderr)
        return EXIT_USAGE
    latent = _latent_from_args(args.latent_shape, args.latent_params)
    items = _pool_config_from_args(args)
    interval = ScaleInterval(args.c_lower, args.c_upper)
    metric = _METRIC_ALIASES[args.metric]

    eqc_cfg = EqcConfig(  # for --algorithm eqc it rejects msem itself; a warm start is avg_info
        target_rho=args.target,
        latent=latent,
        items=items,
        m_quadrature=args.m,
        interval=interval,
        tolerance=args.tolerance,
        metric=metric if args.algorithm == "eqc" else METRIC_AVG_INFO,
        seed=args.seed,
    )

    eqc_result = None  # solved only when read: EQC itself, or SAC's EQC warm start
    if args.algorithm == "eqc" or args.warm_start == "eqc":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            eqc_result = eqc_calibrate(eqc_cfg)

    if args.algorithm == "eqc":
        result = eqc_result
        _print_eqc_summary(result)
    else:
        if args.warm_start == "eqc" and eqc_result.status != STATUS_SUCCESS:
            _print_eqc_summary(eqc_result)
            print(infeasible_message(eqc_result), file=sys.stderr)
            return EXIT_INFEASIBLE
        sac_cfg = SacConfig(
            target_rho=args.target,
            latent=latent,
            items=items,
            metric=metric,
            n_iter=args.n_iter,
            burn_in=args.burn_in if args.burn_in is not None else args.n_iter // 2,
            m_per_iter=args.m_per_iter,
            interval=interval,
            c_init=eqc_result,
            seed=rng.child_seed(args.seed, "cli/sac"),
        )
        result = sac_calibrate(sac_cfg)
        _print_sac_summary(result)

    if args.out:
        doc = result.to_dict()
        doc["reproducibility"] = _repro_block("calibrate", args.seed, {"argv_target": args.target})
        _write_json(args.out, doc)
        print(f"result written to {args.out}")

    if result.status in (STATUS_BOUNDARY_LOW, STATUS_BOUNDARY_HIGH):
        print(infeasible_message(result), file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


# ----------------------------------------------------------------------------
# bounds


def cmd_bounds(args) -> int:
    latent = _latent_from_args(args.latent_shape, args.latent_params)
    items = _pool_config_from_args(args)
    interval = ScaleInterval(args.c_lower, args.c_upper)
    cfg = EqcConfig(
        target_rho=args.target if args.target is not None else 0.5,
        latent=latent,
        items=items,
        m_quadrature=args.m,
        interval=interval,
        seed=args.seed,
    )
    report = feasibility_report(cfg, scan_msem=args.scan_msem, grid_size=args.grid_size)
    print("Feasibility report")
    print(f"  Number of items          : {report['n_items']}")
    print(f"  Scale interval           : [{interval.c_lower}, {interval.c_upper}]")
    print(f"  Reliability at c_lower   : {_fmt(report['rho_lower'])}")
    print(f"  Reliability at c_upper   : {_fmt(report['rho_upper'])}")
    print(f"  Analytic ceiling (c_upper): {_fmt(report['analytic_ceiling'])}")
    print(f"  Reference ceiling (I/4)  : {_fmt(report['reference_ceiling'])}")
    if args.target is None:
        report["feasible"] = None  # the 0.5 above only fills EqcConfig's required target
    else:
        verdict = "feasible" if report["feasible"] else "infeasible"
        print(f"  Target {args.target}: {verdict}")
    if args.scan_msem:
        verdict = "monotone" if report["msem_scan"]["is_monotone"] else "non-monotone"
        print(f"  MSEM-metric scan         : {verdict} over {args.grid_size} grid points")
    if args.out:
        report["reproducibility"] = _repro_block("bounds", args.seed, {})
        _write_json(args.out, report)
    return EXIT_OK


# ----------------------------------------------------------------------------
# generate


def cmd_generate(args) -> int:
    if args.n < 1:
        print(f"error: --n must be >= 1, got {args.n}", file=sys.stderr)
        return EXIT_USAGE
    result = _load_result(args.calibration)
    latent = result.config.latent
    dataset = simulate_responses(result, latent, args.n, args.seed)
    dataset.save_csv(args.out, header=args.header)
    sidecar = {
        "n_persons": dataset.n_persons,
        "n_items": dataset.n_items,
        "c_applied": dataset.c_applied,
        "calibration_file": str(args.calibration),
        "reproducibility": _repro_block("generate", args.seed, {"n": args.n}),
    }
    if args.emit_theta:
        sidecar["theta_true"] = dataset.theta_true.tolist()
    _write_json(str(args.out) + ".meta.json", sidecar)
    print(f"wrote {dataset.n_persons} x {dataset.n_items} response matrix to {args.out}")
    return EXIT_OK


# ----------------------------------------------------------------------------
# validate


_CONFIG_SHAPE_KEYS = {"shape", "shape_params", "mu", "sigma"}
_CONDITION_KEYS = {"condition_id", "latent", "model", "item_source", "n_items", "n_persons",
                   "target_rho", "algorithm", "replications", "pool_file", "allow_any_target"}
_GRID_KEYS = {"shapes", "models", "item_sources", "test_lengths", "n_persons", "targets",
              "algorithms", "replications", "pool_file", "allow_any_target"}


def _config_error(field: str | None, message: str) -> ConfigurationError:
    return ConfigurationError(f"config field '{field}': {message}" if field else f"config: {message}")


def _check_keys(field: str | None, block: dict, allowed: set) -> None:
    """Reject the keys of a config object (``field``; None is the top level) not in ``allowed``."""
    extra = set(block) - allowed
    if extra:
        raise _config_error(field, f"unknown keys {sorted(extra)}")


def _list(field: str, value) -> list:
    if not isinstance(value, list):
        raise _config_error(field, f"must be a list, got {value!r}")
    return value


def _whole_numbers(field: str, value) -> list[int]:
    return [whole_number(f"{field}[{i}]", n) for i, n in enumerate(_list(field, value))]


def _flag(field: str, value) -> bool:
    if not isinstance(value, bool):
        raise _config_error(field, f"must be true or false, got {value!r}")
    return value


def _pool_file(field: str, value) -> str | None:
    if value is not None and not isinstance(value, str):
        raise _config_error(field, f"must be a file path, got {value!r}")
    return value


def _latent_from_config(field: str, block) -> LatentSpec:
    """A latent block of a study config: an object holding only ``_CONFIG_SHAPE_KEYS``."""
    if not isinstance(block, dict) or "shape" not in block:
        raise _config_error(field, "must be an object with a 'shape' key")
    _check_keys(field, block, _CONFIG_SHAPE_KEYS)
    return LatentSpec.from_dict(block)


def _conditions_from_config(cfg: dict) -> list[StudyCondition]:
    """The study's conditions; unknown keys, and values of the wrong type, are rejected."""
    if "conditions" in cfg:
        _check_keys(None, cfg, {"conditions", "master_seed"})
        conditions = []
        for i, c in enumerate(_list("conditions", cfg["conditions"])):
            field = f"conditions[{i}]"
            if not isinstance(c, dict):
                raise _config_error(field, f"must be an object, got {c!r}")
            _check_keys(field, c, _CONDITION_KEYS)
            try:
                conditions.append(
                    StudyCondition(
                        condition_id=whole_number(f"{field}.condition_id", c.get("condition_id", i)),
                        latent=_latent_from_config(f"{field}.latent", c["latent"]),
                        model=c["model"],
                        item_source=c["item_source"],
                        n_items=whole_number(f"{field}.n_items", c["n_items"]),
                        n_persons=whole_number(f"{field}.n_persons", c["n_persons"]),
                        target_rho=real_number(f"{field}.target_rho", c["target_rho"]),
                        algorithm=c.get("algorithm", "eqc"),
                        replications=whole_number(f"{field}.replications", c.get("replications", 200)),
                        pool_path=_pool_file(f"{field}.pool_file", c.get("pool_file")),
                        allow_any_target=_flag(f"{field}.allow_any_target",
                                               c.get("allow_any_target", False)),
                    )
                )
            except KeyError as exc:
                raise _config_error(field, f"missing key {exc}") from exc
        return conditions

    _check_keys(None, cfg, _GRID_KEYS | {"master_seed"})
    for key in ("shapes", "models", "item_sources", "test_lengths", "n_persons", "targets"):
        if key not in cfg:
            raise _config_error(key, "required when no explicit 'conditions' list is given")
    shapes = [_latent_from_config(f"shapes[{i}]", block)
              for i, block in enumerate(_list("shapes", cfg["shapes"]))]
    lengths = _whole_numbers("test_lengths", cfg["test_lengths"])
    if not isinstance(cfg["targets"], dict):
        raise _config_error("targets", f"must be an object mapping test lengths to targets, "
                                       f"got {cfg['targets']!r}")
    targets = {}
    for key, value in cfg["targets"].items():
        try:
            length = int(key)
        except ValueError:
            raise _config_error("targets", f"key {key!r} is not a test length") from None
        targets[length] = real_number(f"targets.{key}", value)
    for n_items in lengths:
        if n_items not in targets:
            raise _config_error("targets", f"no target given for test length {n_items}")
    return make_grid(
        shapes, _list("models", cfg["models"]), _list("item_sources", cfg["item_sources"]), lengths,
        _whole_numbers("n_persons", cfg["n_persons"]), targets,
        algorithms=_list("algorithms", cfg.get("algorithms", ["eqc"])),
        replications=whole_number("replications", cfg.get("replications", 200)),
        pool_path=_pool_file("pool_file", cfg.get("pool_file")),
        allow_any_target=_flag("allow_any_target", cfg.get("allow_any_target", False)),
    )


def cmd_validate(args) -> int:
    cfg = _read_json(args.config, "config")
    conditions = _conditions_from_config(cfg)
    config_seed = whole_number("master_seed", cfg.get("master_seed", 0))
    profile = FULL_PROFILE if args.profile == "full" else DESK_PROFILE
    master_seed = args.master_seed if args.master_seed is not None else config_seed

    echo = {"master_seed": master_seed, "n_conditions": len(conditions), **profile.echo()}
    print("Validation study configuration")
    for key, value in echo.items():
        print(f"  {key} : {value}")

    summary = run_validation_study(
        conditions,
        args.out_dir,
        master_seed=master_seed,
        profile=profile,
        n_jobs=args.threads,
    )
    doc = {
        "schema_version": STUDY_SCHEMA_VERSION,
        "echo": echo,
        "skipped": [{"condition_id": cid, "reason": reason} for cid, reason in summary.skipped],
        "by_algorithm": summary.algorithm_rows,
        "by_target": summary.target_rows,
        "reproducibility": _repro_block("validate", master_seed, echo),
    }
    _write_json(Path(args.out_dir) / "study_summary.json", doc)
    print(f"study outputs written to {args.out_dir}")
    for row in summary.algorithm_rows:
        print(
            f"  {row['algorithm']}: {row['n_conditions']} conditions, "
            f"mean delta {row['mean_delta']:+.5f}, MAE {row['mae']:.5f}, "
            f"within 0.01: {row['pct_within_001']:.1f}%"
        )
    if summary.skipped:
        print(f"  skipped {len(summary.skipped)} infeasible condition(s)", file=sys.stderr)
    return EXIT_OK


# ----------------------------------------------------------------------------
# compare


def cmd_compare(args) -> int:
    first = _load_result(args.first)
    second = _load_result(args.second)
    report = compare_calibrations(first, second)
    print("Calibration comparison")
    print(f"  Target reliability  : {_fmt(report['target_rho'])}")
    print(f"  First c*            : {report['c_eqc']:.6f}")
    print(f"  Second c*           : {report['c_sac']:.6f}")
    print(f"  Absolute difference : {report['abs_diff']:.6f}")
    print(f"  Percent difference  : {report['pct_diff']:.2f}%")
    print(f"  Agreement (< 5%)    : {'yes' if report['agree_5pct'] else 'no'}")
    if args.out:
        report["reproducibility"] = _repro_block("compare", None, {})
        _write_json(args.out, report)
    return EXIT_OK


# ----------------------------------------------------------------------------
# shapes


def _parse_shape_list(text: str, seed: int) -> tuple[list[LatentSpec], list[int]]:
    """The specs of a ``--shapes`` list, and ``child_seed(seed, "shapes", i)`` for chunk ``i``."""
    specs, seeds = [], []
    for i, chunk in enumerate(text.split(",")):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, _, params_text = chunk.partition(":")
        specs.append(_latent_from_args(name, params_text.replace(";", ",")))
        seeds.append(rng.child_seed(seed, "shapes", i))
    return specs, seeds


def _moment(x: float, sign: str = "") -> str:
    """``x`` to four decimals, or to four significant digits where four
    decimals would show a nonzero value as zero or run past six integer digits."""
    fmt = "f" if x == 0 or 5e-5 <= abs(x) < 1e6 else "g"
    return f"{x:{sign}.4{fmt}}"


def cmd_shapes(args) -> int:
    specs, seeds = _parse_shape_list(args.shapes, args.seed)
    table = describe_shapes(specs, args.n, seeds)
    table.to_csv(args.out)
    print(f"density table with {len(table.densities)} shape column(s) written to {args.out}")
    moment_block = {}
    for spec, (label, moments) in zip(specs, table.moments.items(), strict=True):
        theo = theoretical_moments(spec)
        moment_block[label] = {"sample": moments, "theoretical": theo}
        print(
            f"  {label}: sample mean {_moment(moments['mean'], '+')}, var {_moment(moments['var'])}, "
            f"skew {_moment(moments['skew'], '+')} (theory {_moment(theo['skewness'], '+')}), "
            f"excess kurtosis {_moment(moments['excess_kurtosis'], '+')} "
            f"(theory {_moment(theo['excess_kurtosis'], '+')})"
        )
    _write_json(
        str(args.out) + ".meta.json",
        {
            "schema_version": DensityTable.SCHEMA_VERSION,
            "n": args.n,
            "shapes": [s.to_dict() for s in specs],
            "moments": moment_block,
            "reproducibility": _repro_block("shapes", args.seed, {"shapes": args.shapes}),
        },
    )
    return EXIT_OK


# ----------------------------------------------------------------------------
# parser


def _add_structure_flags(p: argparse.ArgumentParser, with_target: bool) -> None:
    if with_target:
        p.add_argument("--target", type=float, required=True, help="target reliability in (0,1)")
    else:
        p.add_argument("--target", type=float, default=None, help="optional target to screen")
    p.add_argument("--items", type=int, default=30, help="test length I")
    p.add_argument("--model", choices=MODELS, default="rasch")
    p.add_argument("--latent-shape", default="normal", choices=SHAPES)
    p.add_argument("--latent-params", default=None,
                   help="key=value list (delta, k, nu, mu, sigma) or a JSON object")
    p.add_argument("--item-source", choices=("parametric", "pool"), default="parametric",
                   help="'pool' resamples an empirical difficulty pool")
    p.add_argument("--pool-file", default=None, help="custom pool CSV (default: bundled pool)")
    p.add_argument("--gen-method", choices=[m for m in GEN_METHODS if m != "fixed"], default=None)
    p.add_argument("--rho", type=float, default=-0.3, help="target Spearman(beta, log lambda)")
    p.add_argument("--mu-log", type=float, default=0.0)
    p.add_argument("--sigma-log", type=float, default=0.3)
    p.add_argument("--difficulty-mu", type=float, default=0.0)
    p.add_argument("--difficulty-sigma", type=float, default=1.0)
    p.add_argument("--m", type=int, default=10000, help="quadrature size M")
    p.add_argument("--c-lower", type=float, default=DEFAULT_INTERVAL.c_lower)
    p.add_argument("--c-upper", type=float, default=DEFAULT_INTERVAL.c_upper)
    p.add_argument("--seed", type=int, default=0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irtcalib",
        description="Reliability-targeted IRT simulation: calibrate, screen, generate, validate.",
    )
    parser.add_argument("--version", action="version", version=f"irtcalib {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="solve for the discrimination scale c*")
    _add_structure_flags(p, with_target=True)
    p.add_argument("--algorithm", choices=("eqc", "sac"), default="eqc")
    p.add_argument("--metric", choices=("info", "msem"), default="info")
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.add_argument("--n-iter", type=int, default=300)
    p.add_argument("--burn-in", type=int, default=None)
    p.add_argument("--m-per-iter", type=int, default=1000)
    p.add_argument("--warm-start", choices=("eqc", "midpoint"), default="eqc")
    p.add_argument("--out", default=None, help="write the result JSON here")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("bounds", help="feasibility screening for a configuration")
    _add_structure_flags(p, with_target=False)
    p.add_argument("--scan-msem", action="store_true",
                   help="also scan the MSEM metric for monotonicity on the interval")
    p.add_argument("--grid-size", type=int, default=15)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("generate", help="generate a response matrix from a stored calibration")
    p.add_argument("--calibration", required=True, help="result JSON from 'calibrate'")
    p.add_argument("--n", type=int, required=True, help="number of persons")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="response CSV path")
    p.add_argument("--header", action="store_true", help="write item ids as a header row")
    p.add_argument("--emit-theta", action="store_true", help="include true abilities in the sidecar")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("validate", help="run a factorial validation study")
    p.add_argument("--config", required=True, help="study config JSON")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--profile", choices=("desk", "full"), default="desk")
    p.add_argument("--master-seed", type=int, default=None, help="override the config's master_seed")
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("compare", help="compare two stored calibration results")
    p.add_argument("--first", required=True, help="result JSON (e.g. from EQC)")
    p.add_argument("--second", required=True, help="result JSON (e.g. from SAC)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("shapes", help="emit a latent density table")
    p.add_argument("--shapes", required=True,
                   help="comma list, optional params after a colon: 'normal,bimodal:delta=0.8'")
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_shapes)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and flag errors itself
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (IngestionError, OSError) as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_IO
    except IrtcalibError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # malformed inputs must never produce a traceback
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
