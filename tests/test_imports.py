"""Import cost: the slow scipy submodules stay off ``import irtcalib``."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_leaves_scipy_stats_and_optimize_unloaded():
    out = _run("import sys, irtcalib\n"
               "print(sorted(m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules))")
    assert out.strip() == "[]"


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
