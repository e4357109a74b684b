"""Import cost: scipy, multiprocessing and statistics stay off ``import irtcalib`` and every command that does not need them."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
_IMPORTED = re.compile(r"^import time:\s+\d+ \|\s+\d+ \|\s*(\S+)$", re.MULTILINE)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _run(code: str) -> str:
    done = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _package_imports(package: str, *args, cwd=None) -> set:
    """The modules of ``package`` a fresh ``python -X importtime ARGS`` imports."""
    done = subprocess.run([sys.executable, "-X", "importtime", *args], env=_env(), cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    modules = _IMPORTED.findall(done.stderr)
    assert "numpy" in modules  # the import log was read
    return {m for m in modules if m == package or m.startswith(package + ".")}


def _scipy_imports(*args, cwd=None) -> set:
    return _package_imports("scipy", *args, cwd=cwd)


def test_import_leaves_scipy_stats_and_optimize_unloaded():
    out = _run("import sys, irtcalib\n"
               "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    assert out.strip() == "[]"


def test_version_loads_no_scipy():
    assert _scipy_imports("-m", "irtcalib", "--version") == set()


def test_rasch_calibrations_and_generate_load_no_scipy(tmp_path):
    common = ["--target", "0.5", "--items", "15", "--model", "rasch", "--m", "500"]
    assert _scipy_imports("-m", "irtcalib", "calibrate", *common, "--out", "eqc.json", cwd=tmp_path) == set()
    assert _scipy_imports("-m", "irtcalib", "calibrate", *common, "--algorithm", "sac", "--n-iter", "20",
                          "--m-per-iter", "100", "--out", "sac.json", cwd=tmp_path) == set()
    assert _scipy_imports("-m", "irtcalib", "generate", "--calibration", "eqc.json", "--n", "50",
                          "--out", "r.csv", cwd=tmp_path) == set()


def test_twopl_copula_commands_load_no_scipy(tmp_path):
    common = ["--target", "0.5", "--items", "15", "--model", "twopl", "--gen-method", "copula", "--m", "500"]
    assert _scipy_imports("-m", "irtcalib", "calibrate", *common, "--out", "eqc.json", cwd=tmp_path) == set()
    assert _scipy_imports("-m", "irtcalib", "calibrate", *common, "--algorithm", "sac", "--n-iter", "20",
                          "--m-per-iter", "100", "--out", "sac.json", cwd=tmp_path) == set()
    assert _scipy_imports("-m", "irtcalib", "bounds", "--model", "twopl", "--items", "15", "--m", "500",
                          cwd=tmp_path) == set()
    # Two cells, so that --threads 2 runs them in worker processes, whose imports
    # are logged to the same stderr.
    study = {"shapes": [{"shape": "normal"}], "models": ["twopl"], "item_sources": ["parametric"],
             "test_lengths": [10, 12], "n_persons": [100], "targets": {"10": 0.4, "12": 0.45},
             "algorithms": ["eqc", "sac_info"], "replications": 2}
    (tmp_path / "study.json").write_text(json.dumps(study))
    assert _scipy_imports("-m", "irtcalib", "validate", "--config", "study.json", "--out-dir", "out",
                          "--threads", "2", cwd=tmp_path) == set()
    assert (tmp_path / "out" / "records.csv").is_file()


def test_commands_other_than_validate_load_no_multiprocessing(tmp_path):
    # Only validate's worker processes need it; it costs about 15 ms per fresh process.
    assert _package_imports("multiprocessing", "-c", "import irtcalib") == set()
    assert _package_imports("multiprocessing", "-m", "irtcalib", "--version") == set()
    assert _package_imports("multiprocessing", "-m", "irtcalib", "calibrate", "--algorithm", "sac",
                            "--target", "0.5", "--items", "15", "--model", "rasch", "--n-iter", "20",
                            "--m-per-iter", "100", "--out", "sac.json", cwd=tmp_path) == set()
    assert (tmp_path / "sac.json").is_file()


def test_only_copula_pools_load_statistics(tmp_path):
    # statistics.NormalDist gives the copula its normal scores; the module pulls
    # in decimal and fractions (3-4 ms), which nothing else needs.
    assert _package_imports("statistics", "-c", "import irtcalib") == set()
    assert _package_imports("statistics", "-m", "irtcalib", "--version") == set()
    assert _package_imports("statistics", "-m", "irtcalib", "calibrate", "--target", "0.5", "--items", "15",
                            "--model", "rasch", "--m", "500", "--out", "eqc.json", cwd=tmp_path) == set()
    assert _package_imports("statistics", "-m", "irtcalib", "calibrate", "--target", "0.5", "--items", "15",
                            "--model", "twopl", "--gen-method", "copula", "--m", "500", "--out", "twopl.json",
                            cwd=tmp_path) == {"statistics"}


def test_deferred_scipy_imports_resolve():
    out = _run(
        "from irtcalib import EqcConfig, LatentSpec, PoolConfig, describe_shapes, eqc_calibrate\n"
        "from irtcalib.latent import sample_latent\n"
        "from irtcalib.rng import stream\n"
        "table = describe_shapes([LatentSpec()], 200, seeds=[0], grid_size=8)\n"
        "moments = sample_latent(LatentSpec(shape='skew_pos', shape_params={'k': 4.0}), 500,\n"
        "                        rng=stream(0, 'latent')).sample_moments\n"
        "result = eqc_calibrate(EqcConfig(target_rho=0.6, latent=LatentSpec(),\n"
        "                                 items=PoolConfig(n_items=10), m_quadrature=500))\n"
        "print(table.densities['normal'].shape, sorted(moments), result.status)\n"
    )
    assert out.split("\n")[0] == "(8,) ['excess_kurtosis', 'mean', 'skew', 'var'] success"
