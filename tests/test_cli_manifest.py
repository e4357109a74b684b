"""Every CLI subcommand keeps its output bytes across commits.

``tests/data/cli_manifest.json`` holds, for a fixed list of invocations with
relative paths, the exit code and the sha256 of stdout, of stderr and of
every file each invocation writes. The test runs the same list in-process
through ``cli.main`` in an empty directory and compares. The kernel's bits
come from numpy's SIMD ufuncs and the BLAS, so the manifest also records
numpy's version, the BLAS and the CPU's SIMD extensions. Only a digest that
moved fails the test; its message then names both environments, so a
mismatch that comes from another numpy, BLAS or CPU shows as such.

A change that moves output bytes on purpose re-records the manifest with::

    PYTHONPATH=src python tests/test_cli_manifest.py --record

which prints every invocation and key whose digest moved against the old
manifest, for the list of changed digests in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import logging
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from irtcalib import cli

MANIFEST_PATH = Path(__file__).parent / "data" / "cli_manifest.json"

_GAP_POOL = "\n".join(["beta,lambda"] + ["-3.0,1.0"] * 15 + ["3.0,1.0"] * 15) + "\n"
_STUDY = {
    "master_seed": 5, "replications": 3, "algorithms": ["eqc", "sac_info", "sac_msem"],
    "shapes": [{"shape": "normal"}, {"shape": "skew_pos", "shape_params": {"k": 4.0}}],
    "models": ["rasch", "twopl"], "item_sources": ["parametric"], "test_lengths": [15],
    "n_persons": [60], "targets": {"15": 0.45},
}
# Files each run starts from; their bytes are part of the fixture.
INPUTS = {"gap.csv": _GAP_POOL, "study.json": json.dumps(_STUDY)}

_SMALL_SAC = ["--algorithm", "sac", "--n-iter", "60", "--m-per-iter", "300", "--m", "2000"]

# (name, argv): every subcommand, both calibrators and both metrics, both warm
# starts, EQC's two boundaries, and failures that exit 2, 4 and 5.
INVOCATIONS = [
    ("eqc-success", ["calibrate", "--target", "0.7", "--items", "30", "--model", "twopl",
                     "--item-source", "pool", "--m", "4000", "--c-lower", "0.1", "--c-upper", "10",
                     "--seed", "12", "--out", "eqc.json"]),
    ("eqc-boundary-high", ["calibrate", "--target", "0.95", "--items", "10", "--m", "2000",
                           "--c-lower", "0.1", "--c-upper", "2", "--seed", "3", "--out", "eqc_high.json"]),
    ("eqc-boundary-low", ["calibrate", "--target", "0.05", "--items", "30", "--m", "2000",
                          "--c-lower", "1", "--c-upper", "10", "--seed", "4", "--out", "eqc_low.json"]),
    ("sac-info-eqc", ["calibrate", *_SMALL_SAC, "--metric", "info", "--target", "0.7", "--items", "20",
                      "--model", "twopl", "--latent-shape", "bimodal", "--latent-params", "delta=0.8",
                      "--seed", "5", "--out", "sac_info.json"]),
    ("sac-info-midpoint", ["calibrate", *_SMALL_SAC, "--metric", "info", "--warm-start", "midpoint",
                           "--target", "0.6", "--items", "30", "--model", "twopl", "--item-source", "pool",
                           "--seed", "6", "--out", "sac_info_mid.json"]),
    ("sac-msem-eqc", ["calibrate", *_SMALL_SAC, "--metric", "msem", "--target", "0.6", "--items", "15",
                      "--latent-shape", "skew_pos", "--latent-params", "k=4", "--seed", "7",
                      "--out", "sac_msem.json"]),
    ("sac-msem-midpoint", ["calibrate", *_SMALL_SAC, "--metric", "msem", "--warm-start", "midpoint",
                           "--target", "0.6", "--items", "15", "--item-source", "pool",
                           "--latent-shape", "heavy_tail", "--c-lower", "0.1", "--c-upper", "10",
                           "--seed", "8", "--out", "sac_msem_mid.json"]),
    ("generate-eqc", ["generate", "--calibration", "eqc.json", "--n", "300", "--seed", "9",
                      "--out", "resp_eqc.csv", "--header", "--emit-theta"]),
    ("generate-sac-info", ["generate", "--calibration", "sac_info.json", "--n", "200", "--seed", "10",
                           "--out", "resp_sac_info.csv"]),
    ("generate-sac-msem", ["generate", "--calibration", "sac_msem_mid.json", "--n", "200", "--seed", "11",
                           "--out", "resp_sac_msem.csv", "--emit-theta"]),
    ("bounds", ["bounds", "--items", "30", "--model", "twopl", "--m", "2000", "--seed", "3",
                "--out", "bounds.json"]),
    ("bounds-target-scan", ["bounds", "--target", "0.05", "--items", "30", "--m", "2000", "--seed", "3",
                            "--scan-msem", "--pool-file", "gap.csv", "--item-source", "pool",
                            "--latent-params", "sigma=0.2", "--c-lower", "0.1", "--c-upper", "50",
                            "--out", "bounds_scan.json"]),
    ("compare", ["compare", "--first", "eqc.json", "--second", "sac_info.json", "--out", "cmp.json"]),
    ("shapes", ["shapes", "--shapes", "normal,bimodal:delta=0.8,skew_pos:k=4,heavy_tail:nu=5",
                "--n", "800", "--seed", "2", "--out", "dens.csv"]),
    ("validate", ["validate", "--config", "study.json", "--out-dir", "study", "--threads", "2"]),
    ("fail-target", ["calibrate", "--target", "1.5", "--m", "2000"]),
    ("fail-missing-file", ["generate", "--calibration", "missing.json", "--n", "5", "--out", "x.csv"]),
    ("fail-sac-diverged", ["calibrate", *_SMALL_SAC, "--metric", "msem", "--warm-start", "midpoint",
                           "--target", "0.6", "--items", "10", "--latent-params", "sigma=300",
                           "--c-lower", "1", "--c-upper", "10", "--seed", "13"]),
]


def environment() -> dict:
    """The libraries whose bits the outputs depend on."""
    cfg = np.show_config(mode="dicts")
    blas = cfg["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas.get('version', '?')}",
        "simd": cfg["SIMD Extensions"].get("found", []),
    }


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): _sha256(p.read_bytes())
            for p in sorted(root.rglob("*")) if p.is_file()}


def _invoke(argv) -> tuple[int, str, str]:
    """``cli.main(argv)`` with stdout, stderr, log records and warnings captured the same way everywhere."""
    out, err = io.StringIO(), io.StringIO()
    handler = logging.StreamHandler(err)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root = logging.getLogger()
    root.addHandler(handler)  # cli.main's basicConfig then adds none of its own
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(argv)
    finally:
        root.removeHandler(handler)
    for w in caught:
        err.write(f"{w.category.__name__}: {w.message}\n")
    return code, out.getvalue(), err.getvalue()


def run_manifest(workdir: Path) -> dict:
    """Run every invocation in ``workdir`` (which must be empty) and return the manifest."""
    for name, text in INPUTS.items():
        (workdir / name).write_text(text)
    entries = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv in INVOCATIONS:
            before = _files(workdir)
            code, out, err = _invoke(argv)
            after = _files(workdir)
            entries[name] = {
                "argv": argv,
                "exit": code,
                "stdout": _sha256(out.encode()),
                "stderr": _sha256(err.encode()),
                "files": {k: v for k, v in after.items() if before.get(k) != v},
            }
    finally:
        os.chdir(cwd)
    return {"environment": environment(), "invocations": entries}


def moved_digests(expected: dict, actual: dict) -> dict:
    """``{invocation: [key, ...]}`` for each invocation of ``actual`` whose keys differ
    from ``expected``'s; a file written, moved or no longer written shows as ``files/<path>``."""
    moved = {}
    for name, entry in actual["invocations"].items():
        old = expected["invocations"].get(name, {})
        keys = [key for key in ("argv", "exit", "stdout", "stderr") if entry[key] != old.get(key)]
        files, old_files = entry["files"], old.get("files", {})
        keys += [f"files/{path}" for path in sorted(files.keys() | old_files.keys())
                 if files.get(path) != old_files.get(path)]
        if keys:
            moved[name] = keys
    return moved


def test_cli_outputs_match_manifest(tmp_path):
    expected = json.loads(MANIFEST_PATH.read_text())
    actual = run_manifest(tmp_path)
    moved = moved_digests(expected, actual)
    assert list(actual["invocations"]) == list(expected["invocations"]) and not moved, (
        f"outputs moved: {moved}; the manifest was recorded under {expected['environment']} "
        f"and this run has {actual['environment']}"
    )


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --record")
    old = json.loads(MANIFEST_PATH.read_text()) if MANIFEST_PATH.exists() else {"invocations": {}}
    with tempfile.TemporaryDirectory() as tmp:
        manifest = run_manifest(Path(tmp))
    MANIFEST_PATH.write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {MANIFEST_PATH}")
    for name, keys in moved_digests(old, manifest).items():
        print(f"moved: {name}: {', '.join(keys)}")
    for name in old["invocations"].keys() - manifest["invocations"].keys():
        print(f"dropped: {name}")
