"""Workload definitions and output checks, shared by the timed and traced runs.

A workload is an endless sequence of *units*. A unit is a short list of CLI
invocations (argv lists, paths relative to the work directory) that the
benchmark runs in order. Every argv depends only on the workload seed and the
unit index, so the same seed always yields the same invocations, and the
program sees nothing but the generated argv and config files.

Units:

* ``cli-session``: EQC ``calibrate`` then ``generate --n 100000`` from it.
  The model alternates every unit and the item source every two units.
* ``calibrate-sac``: two full-effort SAC ``calibrate`` commands: rasch with
  parametric items and info, and twopl with the pool and msem, in even units;
  rasch/pool/msem and twopl/parametric/info in odd ones. 2PL, the pool and
  msem each cost more, so every unit holds about the same work and the
  median unit time does not depend on the seed.

The latent shape rotates through the four desk shapes, one per unit, from a
start the seed picks; the seed also picks the targets and ``--seed`` flags.
* ``validate-desk``: one ``validate`` of the 48-cell desk grid with the
  algorithms eqc, sac_info and sac_msem.

Each run checks that identical invocations write byte-identical files: the
identity unit (unit 0, except on validate-desk) runs twice with the same argv.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("cli-session", "calibrate-sac", "validate-desk")

DESK_SHAPES = (
    {"shape": "normal"},
    {"shape": "bimodal", "shape_params": {"delta": 0.8}},
    {"shape": "skew_pos", "shape_params": {"k": 4.0}},
    {"shape": "heavy_tail", "shape_params": {"nu": 5.0}},
)
_SAC_PAIRS = (
    (("rasch", "parametric", "info"), ("twopl", "pool", "msem")),
    (("rasch", "pool", "msem"), ("twopl", "parametric", "info")),
)

# Replications per validate condition: large enough that the replicate loop
# is a visible share of the study, small enough that the calibrations (the
# part the desk grid is about) still dominate.
VALIDATE_REPLICATIONS = 30

EQC_TOLERANCE = 1e-4  # acceptance criterion 2's bound on |achieved - target|
SAC_TOLERANCE = 0.05


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one benchmark mode (full or tiny)."""

    eqc_m: int = 20_000
    generate_n: int = 100_000
    sac_iter: int = 1000
    sac_m: int = 2000
    grid_shapes: tuple = DESK_SHAPES
    grid_models: tuple = ("rasch", "twopl")
    grid_sources: tuple = ("parametric", "empirical_pool")
    grid_lengths: tuple = (15, 30, 60)
    replications: int = VALIDATE_REPLICATIONS


FULL = Sizes()
TINY = Sizes(
    eqc_m=2000,
    generate_n=2000,
    sac_iter=40,
    sac_m=200,
    grid_shapes=DESK_SHAPES[:1],
    grid_models=("twopl",),
    grid_sources=("parametric",),
    grid_lengths=(15,),
    replications=3,
)


@dataclass
class Command:
    """One CLI invocation and what its outputs must satisfy."""

    kind: str  # calibrate_eqc | generate | calibrate_sac | validate
    argv: list
    outputs: list  # files the command writes, relative to the work directory
    expect: dict = field(default_factory=dict)


def _structure_flags(rnd: random.Random, shape: str, model: str, source: str) -> tuple[list, float]:
    # The CLI's default parameters for these shapes are the desk ones.
    target = round(rnd.uniform(0.45, 0.65), 3)
    flags = ["--target", str(target), "--items", "30", "--model", model,
             "--item-source", source, "--latent-shape", shape,
             "--c-lower", "0.1", "--c-upper", "10", "--seed", str(rnd.getrandbits(32))]
    return flags, target


def unit(workload: str, seed: int, index: int, sizes: Sizes = FULL, threads: int = 2) -> list[Command]:
    """The commands of unit ``index`` of ``workload`` under ``seed``."""
    rnd = random.Random(f"{workload}/{seed}/{index}")
    start = random.Random(f"{workload}/{seed}").randrange(len(DESK_SHAPES))
    shape = DESK_SHAPES[(start + index) % len(DESK_SHAPES)]["shape"]
    if workload == "cli-session":
        cal, csv = f"cal-{index}.json", f"gen-{index}.csv"
        model, source = ("rasch", "twopl")[index % 2], ("parametric", "pool")[index // 2 % 2]
        flags, target = _structure_flags(rnd, shape, model, source)
        n = sizes.generate_n
        return [
            Command("calibrate_eqc", ["calibrate", *flags, "--m", str(sizes.eqc_m), "--out", cal],
                    [cal], {"target": target}),
            Command("generate", ["generate", "--calibration", cal, "--n", str(n),
                                 "--seed", str(rnd.getrandbits(32)), "--out", csv],
                    [csv, csv + ".meta.json"], {"n": n, "items": 30, "calibration": cal}),
        ]
    if workload == "calibrate-sac":
        commands = []
        for j, (model, source, metric) in enumerate(_SAC_PAIRS[index % 2]):
            out = f"sac-{index}-{j}.json"
            flags, target = _structure_flags(rnd, shape, model, source)
            commands.append(Command(
                "calibrate_sac",
                ["calibrate", "--algorithm", "sac", "--metric", metric, *flags,
                 "--n-iter", str(sizes.sac_iter), "--m-per-iter", str(sizes.sac_m), "--out", out],
                [out], {"target": target}))
        return commands
    if workload == "validate-desk":
        return [_validate_command("desk.json", f"study-{index}", rnd, sizes, threads)]
    raise ValueError(f"unknown workload {workload!r}")


def identity_unit(workload: str, seed: int, threads: int = 2) -> list[Command] | None:
    """A unit to run twice for the byte-identity check; None means repeat unit 0.

    The desk study is too long to run twice in one run, so validate-desk
    repeats a one-cell study (one calibration group per algorithm) instead.
    """
    if workload != "validate-desk":
        return None
    return [_validate_command("identity.json", "identity", random.Random(f"identity/{seed}"), TINY, threads)]


def _validate_command(config: str, out: str, rnd: random.Random, sizes: Sizes, threads: int) -> Command:
    files = [f"{out}/{name}" for name in (
        "records.csv", "summary_by_algorithm.csv", "summary_by_target.csv",
        "replication_sd.csv", "study_summary.json")]
    n_cells = (len(sizes.grid_shapes) * len(sizes.grid_models) * len(sizes.grid_sources)
               * len(sizes.grid_lengths) * 3)
    return Command(
        "validate",
        ["validate", "--config", config, "--out-dir", out, "--profile", "desk",
         "--master-seed", str(rnd.getrandbits(32)), "--threads", str(threads)],
        files, {"records": n_cells * sizes.replications})


def write_inputs(workload: str, work: Path, sizes: Sizes = FULL) -> None:
    """Write the config files a workload's commands read."""
    if workload != "validate-desk":
        return
    for name, grid in (("desk.json", sizes), ("identity.json", TINY)):
        config = {
            "shapes": list(grid.grid_shapes),
            "models": list(grid.grid_models),
            "item_sources": list(grid.grid_sources),
            "test_lengths": list(grid.grid_lengths),
            "n_persons": [500],
            "targets": {"15": 0.45, "30": 0.55, "60": 0.65},
            "algorithms": ["eqc", "sac_info", "sac_msem"],
            "replications": grid.replications,
        }
        (work / name).write_text(json.dumps(config, indent=1) + "\n")


def digests(work: Path, command: Command) -> dict:
    """sha256 of every output file of ``command``."""
    return {name: hashlib.sha256((work / name).read_bytes()).hexdigest() for name in command.outputs}


def check(work: Path, command: Command, exit_code: int) -> str | None:
    """Return why ``command``'s run failed, or None when its outputs are correct."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    missing = [name for name in command.outputs if not (work / name).is_file()]
    if missing:
        return f"missing outputs {missing}"
    try:
        return _CHECKS[command.kind](work, command)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def _check_eqc(work: Path, command: Command) -> str | None:
    doc = json.loads((work / command.outputs[0]).read_text())
    error = abs(doc["achieved_rho"] - command.expect["target"])
    if doc["status"] != "success" or not error < EQC_TOLERANCE:
        return f"EQC status {doc['status']}, |achieved - target| = {error:.3g}"
    return None


def _check_sac(work: Path, command: Command) -> str | None:
    doc = json.loads((work / command.outputs[0]).read_text())
    error = abs(doc["achieved_rho"] - command.expect["target"])
    if not error < SAC_TOLERANCE:
        return f"SAC |achieved - target| = {error:.3g}"
    return None


def _check_generate(work: Path, command: Command) -> str | None:
    import numpy as np

    n, items = command.expect["n"], command.expect["items"]
    raw = np.frombuffer((work / command.outputs[0]).read_bytes(), dtype=np.uint8)
    width = 2 * items  # items digits, items - 1 commas, one newline
    if raw.size != n * width:
        return f"CSV holds {raw.size} bytes, expected {n} rows x {items} columns ({n * width} bytes)"
    rows = raw.reshape(n, width)
    cells, commas = rows[:, 0::2], rows[:, 1:-1:2]
    if not (np.all((cells == ord("0")) | (cells == ord("1"))) and np.all(commas == ord(","))
            and np.all(rows[:, -1] == ord("\n"))):
        return "CSV is not a matrix of 0/1"
    meta = json.loads((work / command.outputs[1]).read_text())
    calibration = json.loads((work / command.expect["calibration"]).read_text())
    if (meta["n_persons"], meta["n_items"]) != (n, items) or meta["c_applied"] != calibration["c_star"]:
        return f"sidecar disagrees: {meta['n_persons']} x {meta['n_items']}, c {meta['c_applied']}"
    return None


def _check_validate(work: Path, command: Command) -> str | None:
    records, _, _, _, summary_path = (work / name for name in command.outputs)
    summary = json.loads(summary_path.read_text())
    if summary["skipped"]:
        return f"{len(summary['skipped'])} condition(s) skipped"
    with open(records, "rb") as fh:
        n_records = sum(1 for _ in fh) - 1
    if n_records != command.expect["records"]:
        return f"{n_records} records, expected {command.expect['records']}"
    eqc = [row for row in summary["by_algorithm"] if row["algorithm"] == "eqc"]
    if not eqc or not eqc[0]["mae"] < EQC_TOLERANCE:
        return f"EQC MAE {eqc[0]['mae'] if eqc else 'missing'}"
    return None


_CHECKS = {
    "calibrate_eqc": _check_eqc,
    "calibrate_sac": _check_sac,
    "generate": _check_generate,
    "validate": _check_validate,
}
