"""Dependencies and import cost.

scipy is a test-only dependency: no module of the package imports it and no
command loads it. multiprocessing and statistics stay off ``import irtcalib``
and every command that does not need them.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
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


def test_shapes_loads_no_scipy(tmp_path):
    assert _scipy_imports("-m", "irtcalib", "shapes", "--shapes", "normal,skew_pos:k=4", "--n", "500",
                          "--out", "shapes.csv", cwd=tmp_path) == set()
    assert (tmp_path / "shapes.csv.meta.json").is_file()


def test_no_package_module_imports_scipy():
    for path in sorted((ROOT / "src" / "irtcalib").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                assert name.split(".")[0] != "scipy", f"{path.name}:{node.lineno} imports {name}"


def test_shapes_moments_and_eqc_run_in_a_fresh_process():
    out = _run(
        "import sys\n"
        "from irtcalib import EqcConfig, LatentSpec, PoolConfig, describe_shapes, eqc_calibrate\n"
        "from irtcalib.latent import sample_latent\n"
        "from irtcalib.rng import stream\n"
        "table = describe_shapes([LatentSpec()], 200, seeds=[0], grid_size=8)\n"
        "moments = sample_latent(LatentSpec(shape='skew_pos', shape_params={'k': 4.0}), 500,\n"
        "                        rng=stream(0, 'latent')).sample_moments\n"
        "result = eqc_calibrate(EqcConfig(target_rho=0.6, latent=LatentSpec(),\n"
        "                                 items=PoolConfig(n_items=10), m_quadrature=500))\n"
        "print(table.densities['normal'].shape, sorted(moments), result.status)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    assert out.split("\n")[:2] == ["(8,) ['excess_kurtosis', 'mean', 'skew', 'var'] success", "[]"]


def test_scipy_is_a_test_dependency_only():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]

    def names(requirements):
        return {re.match(r"[A-Za-z0-9._-]+", r).group().lower() for r in requirements}

    assert "scipy" not in names(project["dependencies"])
    assert "scipy" in names(project["optional-dependencies"]["test"])


# Names a module imports only so that another module can bind them there.
# perfbench's tracer wraps study.sac_calibrate until it reads spans (ROADMAP item 20).
_BOUND_FOR_OTHERS = {("study.py", "sac_calibrate")}


def test_no_package_module_imports_a_name_it_never_reads():
    for path in sorted((ROOT / "src" / "irtcalib").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update({a.asname or a.name.split(".")[0]: node.lineno for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({a.asname or a.name: node.lineno for a in node.names})
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for name, lineno in imported.items():
            if (path.name, name) not in _BOUND_FOR_OTHERS:
                assert name in read, f"{path.name}:{lineno} imports {name} and never reads it"
