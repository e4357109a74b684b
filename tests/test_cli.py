import copy
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irtcalib import cli, eqc, sac, study
from irtcalib.cli import main
from irtcalib.eqc import CalibrationResult
from irtcalib.items import GEN_METHODS, MODELS, SOURCES
from irtcalib.latent import SHAPES
from irtcalib.psychometrics import METRICS


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def eqc_json(tmp_path_factory):
    path = tmp_path_factory.mktemp("res") / "eqc.json"
    code = run(
        [
            "calibrate", "--target", "0.75", "--items", "30", "--model", "rasch",
            "--latent-shape", "bimodal", "--latent-params", "delta=0.8",
            "--item-source", "pool", "--algorithm", "eqc", "--m", "20000",
            "--c-lower", "0.1", "--c-upper", "10", "--seed", "42",
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


def test_calibrate_flagship_output(eqc_json, capsys):
    doc = json.loads(eqc_json.read_text())
    assert doc["result_type"] == "eqc"
    assert abs(doc["achieved_rho"] - 0.75) < 1e-4
    assert doc["status"] == "success"
    assert doc["reproducibility"]["package"] == "irtcalib"
    assert "generator" in doc["reproducibility"]


def test_calibrate_summary_fields(capsys, tmp_path):
    code = run(
        ["calibrate", "--target", "0.6", "--items", "15", "--model", "rasch",
         "--m", "2000", "--c-lower", "0.1", "--c-upper", "10", "--seed", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    for field in (
        "Target reliability", "Achieved reliability", "Absolute error",
        "Scaling factor (c*)", "Number of items", "Quadrature points",
        "Reliability metric", "Latent variance", "Status", "Bracket reliabilities",
    ):
        assert field in out


def test_calibrate_target_domain_guard(capsys):
    assert run(["calibrate", "--target", "1.2", "--items", "30"]) == 2
    assert "(0, 1)" in capsys.readouterr().err


def test_calibrate_infeasible_target_exit_code(capsys):
    code = run(
        ["calibrate", "--target", "0.995", "--items", "30", "--model", "rasch",
         "--latent-shape", "bimodal", "--latent-params", "delta=0.8",
         "--item-source", "pool", "--m", "20000",
         "--c-lower", "0.1", "--c-upper", "10", "--seed", "42"]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "infeasible" in err
    assert "boundary" in err


def test_calibrate_sac_algorithm(tmp_path, capsys):
    path = tmp_path / "sac.json"
    code = run(
        ["calibrate", "--target", "0.6", "--items", "30", "--model", "rasch",
         "--algorithm", "sac", "--n-iter", "60", "--m-per-iter", "200",
         "--m", "2000", "--c-lower", "0.1", "--c-upper", "10", "--seed", "2",
         "--out", str(path)]
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["result_type"] == "sac"
    assert "Iterations" in capsys.readouterr().out


def test_calibrate_sac_midpoint_skips_eqc_solve(tmp_path, monkeypatch):
    def unread_solve(config):
        raise AssertionError("a midpoint warm start must not run the EQC solve")

    monkeypatch.setattr(cli, "eqc_calibrate", unread_solve)
    path = tmp_path / "sac.json"
    argv = ["calibrate", "--target", "0.6", "--items", "15", "--model", "rasch",
            "--algorithm", "sac", "--warm-start", "midpoint", "--n-iter", "40",
            "--m-per-iter", "100", "--c-lower", "0.1", "--c-upper", "10", "--seed", "3"]
    assert run(argv + ["--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert doc["result_type"] == "sac"
    assert doc["c_init"] == pytest.approx(5.05)
    # The EQC flags are still validated although the solve is skipped.
    assert run(argv + ["--m", "50"]) == 2
    # inf and 1e300 close no bracket, so they would report the lower end as a success; NaN fails every comparison.
    for tolerance in ("0", "inf", "nan", "1e300"):
        assert run(argv + ["--tolerance", tolerance]) == 2


def test_calibrate_eqc_msem_rejected(capsys):
    code = run(["calibrate", "--target", "0.6", "--items", "30", "--metric", "msem"])
    assert code == 2


def test_result_roundtrip_full_precision(eqc_json):
    doc = json.loads(eqc_json.read_text())
    result = CalibrationResult.from_dict(doc)
    redumped = result.to_dict()
    for key, value in redumped.items():
        assert doc[key] == value


def test_generate_roundtrip_and_determinism(eqc_json, tmp_path, capsys):
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    for out in (out1, out2):
        code = run(
            ["generate", "--calibration", str(eqc_json), "--n", "80",
             "--seed", "5", "--out", str(out), "--emit-theta"]
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = out1.read_text().splitlines()
    assert len(rows) == 80
    assert len(rows[0].split(",")) == 30
    meta = json.loads((tmp_path / "r1.csv.meta.json").read_text())
    assert len(meta["theta_true"]) == 80
    assert meta["n_items"] == 30


def test_generate_header_flag(eqc_json, tmp_path):
    out = tmp_path / "rh.csv"
    assert run(["generate", "--calibration", str(eqc_json), "--n", "5",
                "--seed", "1", "--out", str(out), "--header"]) == 0
    assert out.read_text().splitlines()[0].startswith("item_1,item_2")


def test_generate_zero_persons(eqc_json, tmp_path):
    assert run(["generate", "--calibration", str(eqc_json), "--n", "0",
                "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("version", [None, 7])
def test_generate_rejects_unknown_schema_version(eqc_json, tmp_path, capsys, version):
    doc = json.loads(eqc_json.read_text())
    if version is None:
        del doc["schema_version"]
    else:
        doc["schema_version"] = version
    path = tmp_path / "future.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "x.csv"
    assert run(["generate", "--calibration", str(path), "--n", "5", "--out", str(out)]) == 2
    assert f"schema_version {version!r}" in capsys.readouterr().err
    assert not out.exists()


def test_generate_missing_calibration(tmp_path):
    assert run(["generate", "--calibration", str(tmp_path / "nope.json"),
                "--n", "5", "--out", str(tmp_path / "x.csv")]) == 5


def test_bounds_reference_ceiling(capsys):
    code = run(["bounds", "--items", "60", "--model", "rasch", "--m", "2000", "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "0.9375" in out


def test_bounds_feasible_line(capsys):
    code = run(["bounds", "--items", "30", "--model", "rasch", "--m", "2000",
                "--c-lower", "0.1", "--c-upper", "10", "--target", "0.6", "--seed", "3"])
    assert code == 0
    assert "feasible" in capsys.readouterr().out


def test_bounds_gap_pool_scan(tmp_path, capsys):
    pool_file = tmp_path / "gap.csv"
    lines = ["beta,lambda"] + ["-3.0,1.0"] * 15 + ["3.0,1.0"] * 15
    pool_file.write_text("\n".join(lines) + "\n")
    code = run(
        ["bounds", "--items", "30", "--model", "rasch", "--item-source", "pool",
         "--pool-file", str(pool_file), "--latent-params", "sigma=0.2",
         "--c-lower", "1", "--c-upper", "50", "--m", "4000",
         "--scan-msem", "--seed", "4"]
    )
    assert code == 0
    assert "non-monotone" in capsys.readouterr().out


def test_validate_desk_profile(tmp_path, capsys):
    cfg = {
        "master_seed": 11,
        "replications": 3,
        "algorithms": ["eqc"],
        "shapes": [{"shape": "normal"}],
        "models": ["rasch"],
        "item_sources": ["parametric"],
        "test_lengths": [15],
        "n_persons": [100],
        "targets": {"15": 0.45},
    }
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run(["validate", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out"),
                "--profile", "desk", "--threads", "1"])
    assert code == 0
    for name in ("records.csv", "summary_by_algorithm.csv", "summary_by_target.csv",
                 "replication_sd.csv", "study_summary.json"):
        assert (tmp_path / "out" / name).exists()


def test_validate_grid_matches_explicit_conditions(tmp_path):
    # The grid config and the condition list it stands for, numbered in the
    # documented crossing order, write byte-identical outputs.
    shapes = [{"shape": "normal"}, {"shape": "skew_pos", "shape_params": {"k": 4.0}}]
    targets = {15: 0.45, 30: 0.55}
    grid = {
        "master_seed": 13,
        "replications": 3,
        "algorithms": ["eqc", "sac_info"],
        "shapes": shapes,
        "models": ["rasch"],
        "item_sources": ["parametric"],
        "test_lengths": [15, 30],
        "n_persons": [60, 100],
        "targets": {str(k): v for k, v in targets.items()},
    }
    explicit = {
        "master_seed": 13,
        "conditions": [
            {"latent": latent, "model": "rasch", "item_source": "parametric", "n_items": n_items,
             "n_persons": n_persons, "target_rho": targets[n_items], "algorithm": algorithm,
             "replications": 3}
            for algorithm in grid["algorithms"]
            for latent in shapes
            for n_items in grid["test_lengths"]
            for n_persons in grid["n_persons"]
        ],
    }
    for name, cfg in (("grid", grid), ("explicit", explicit)):
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(["validate", "--config", str(cfg_path), "--out-dir", str(tmp_path / name),
                    "--profile", "desk", "--threads", "1"]) == 0
    for name in ("records.csv", "summary_by_algorithm.csv", "summary_by_target.csv",
                 "replication_sd.csv", "study_summary.json"):
        assert (tmp_path / "grid" / name).read_bytes() == (tmp_path / "explicit" / name).read_bytes()
    ids = [line.split(",")[0] for line in (tmp_path / "grid" / "replication_sd.csv").read_text().splitlines()[1:]]
    assert ids == [str(i) for i in range(16)]


def test_validate_rejects_unknown_model_before_calibrating(tmp_path, monkeypatch, capsys):
    from irtcalib import study

    def no_calibration(config):
        raise AssertionError("calibration ran")

    monkeypatch.setattr(study, "eqc_calibrate", no_calibration)
    monkeypatch.setattr(study, "sac_calibrate", no_calibration)
    monkeypatch.setattr(study, "sac_calibrate_chains", no_calibration)
    cfg = {
        "algorithms": ["sac_info"],
        "shapes": [{"shape": "normal"}],
        "models": ["rasch", "3pl"],
        "item_sources": ["parametric"],
        "test_lengths": [15, 30, 60],
        "n_persons": [100],
        "targets": {"15": 0.45, "30": 0.55, "60": 0.65},
    }
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    code = run(["validate", "--config", str(cfg_path), "--out-dir", str(out_dir), "--threads", "1"])
    assert code == 2
    assert "3pl" in capsys.readouterr().err
    assert not out_dir.exists()


def test_validate_summary_records_schema_version(tmp_path):
    cfg = {
        "replications": 2,
        "shapes": [{"shape": "normal"}],
        "models": ["rasch"],
        "item_sources": ["parametric"],
        "test_lengths": [15],
        "n_persons": [60],
        "targets": {"15": 0.45},
    }
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run(["validate", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out"), "--threads", "1"]) == 0
    summary = json.loads((tmp_path / "out" / "study_summary.json").read_text())
    assert summary["schema_version"] == 9


def test_validate_full_profile_echo(tmp_path, capsys):
    cfg = {
        "master_seed": 12,
        "conditions": [
            {
                "latent": {"shape": "normal"},
                "model": "rasch",
                "item_source": "parametric",
                "n_items": 15,
                "n_persons": 100,
                "target_rho": 0.45,
                "algorithm": "eqc",
                "replications": 2,
            }
        ],
    }
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run(["validate", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out"),
                "--profile", "full", "--threads", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "c_bounds : [0.1, 10.0]" in out
    summary = json.loads((tmp_path / "out" / "study_summary.json").read_text())
    assert summary["echo"]["c_bounds"] == [0.1, 10.0]
    assert summary["echo"]["m_quadrature"] == 20000
    assert summary["echo"]["n_iter"] == 1000
    assert summary["echo"]["m_per_iter"] == 2000


def test_validate_malformed_json_diagnostics(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text('{\n  "master_seed": 1,\n  "oops"\n}')
    code = run(["validate", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 4" in err and "column 1" in err


def test_validate_missing_field_diagnostics(tmp_path, capsys):
    cfg_path = tmp_path / "short.json"
    cfg_path.write_text(json.dumps({"shapes": [{"shape": "normal"}]}))
    code = run(["validate", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "config field" in capsys.readouterr().err


def test_compare_identical_files(eqc_json, capsys):
    code = run(["compare", "--first", str(eqc_json), "--second", str(eqc_json)])
    assert code == 0
    out = capsys.readouterr().out
    assert "0.00%" in out
    assert "Agreement (< 5%)    : yes" in out


def test_compare_mismatched_targets(eqc_json, tmp_path, capsys):
    other = tmp_path / "other.json"
    code = run(
        ["calibrate", "--target", "0.6", "--items", "30", "--model", "rasch",
         "--latent-shape", "bimodal", "--item-source", "pool", "--m", "2000",
         "--c-lower", "0.1", "--c-upper", "10", "--seed", "42", "--out", str(other)]
    )
    assert code == 0
    assert run(["compare", "--first", str(eqc_json), "--second", str(other)]) == 2


def test_shapes_four_columns(tmp_path, capsys):
    out = tmp_path / "dens.csv"
    code = run(["shapes", "--shapes", "normal,bimodal:delta=0.8,skew_pos:k=4,heavy_tail:nu=5",
                "--n", "2000", "--seed", "1", "--out", str(out)])
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == "theta,normal,bimodal,skew_pos,heavy_tail"


def test_shapes_deterministic(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert run(["shapes", "--shapes", "normal", "--n", "500", "--seed", "9",
                    "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_shapes_applies_mu_and_sigma(tmp_path):
    out = tmp_path / "dens.csv"
    assert run(["shapes", "--shapes", "normal:sigma=2,bimodal:delta=0.7;mu=1", "--n", "20000",
                "--seed", "4", "--out", str(out)]) == 0
    meta = json.loads((tmp_path / "dens.csv.meta.json").read_text())
    normal, bimodal = meta["shapes"]
    assert (normal["shape_params"], normal["mu"], normal["sigma"]) == ({}, 0.0, 2.0)
    assert (bimodal["shape_params"], bimodal["mu"], bimodal["sigma"]) == ({"delta": 0.7}, 1.0, 1.0)
    assert meta["moments"]["normal"]["sample"]["var"] == pytest.approx(4.0, abs=0.25)
    assert meta["moments"]["bimodal"]["sample"]["mean"] == pytest.approx(1.0, abs=0.05)


# Moments print to four decimals, and to four significant digits where four
# decimals would show a nonzero value as zero or run past six integer digits.
@pytest.mark.parametrize("sigma, mean", [("1e200", "-6.708e+197"), ("1e-170", "-6.708e-173")])
def test_shapes_prints_moments_readably_at_any_scale(sigma, mean, tmp_path, capsys):
    assert run(["shapes", "--shapes", f"normal:sigma={sigma}", "--n", "1000", "--out",
                str(tmp_path / "dens.csv")]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    meta = json.loads((tmp_path / "dens.csv.meta.json").read_text())["moments"]["normal"]["sample"]
    assert f"{meta['mean']:+.4g}" == mean
    assert line == (f"  normal: sample mean {mean}, var {meta['var']:.4f}, skew {meta['skew']:+.4f} (theory +0.0000), "
                    f"excess kurtosis {meta['excess_kurtosis']:+.4f} (theory +0.0000)")
    assert len(line) < 120


def test_shapes_keeps_four_decimals_within_six_integer_digits(tmp_path, capsys):
    assert run(["shapes", "--shapes", "normal:sigma=1e5", "--n", "1000", "--out", str(tmp_path / "d.csv")]) == 0
    assert "sample mean -670.7550, var 1.067e+10, skew -0.0370" in capsys.readouterr().out


def test_calibrate_rejects_parameter_the_shape_does_not_take(capsys):
    code = run(["calibrate", "--target", "0.5", "--latent-shape", "normal",
                "--latent-params", "delta=0.8", "--m", "500"])
    assert code == 2
    assert "delta" in capsys.readouterr().err


@pytest.mark.parametrize("params", ["seed=3", "df=7"])
def test_latent_params_rejects_keys_no_shape_takes(params, capsys):
    code = run(["calibrate", "--target", "0.5", "--latent-shape", "heavy_tail",
                "--latent-params", params, "--m", "500"])
    assert code == 2
    assert f"shape_params.{params.split('=')[0]} is not a parameter" in capsys.readouterr().err


@pytest.mark.parametrize("params,key", [('{"nu": "7"}', "shape_params.nu"), ('{"mu": "1"}', "mu")],
                         ids=["nu", "mu"])
def test_latent_params_rejects_values_that_are_not_numbers(params, key, capsys):
    code = run(["calibrate", "--target", "0.5", "--latent-shape", "heavy_tail",
                "--latent-params", params, "--m", "500"])
    assert code == 2
    assert f"{key} must be a real number" in capsys.readouterr().err


@pytest.mark.parametrize("flags,message", [
    (["--item-source", "pool", "--difficulty-mu", "2", "--difficulty-sigma", "9"],
     "apply only to the parametric source"),
    (["--difficulty-sigma", "-1"], "difficulty_sigma must be positive"),
], ids=["pool", "negative_sigma"])
def test_difficulty_flags_rejected_where_they_cannot_apply(flags, message, capsys):
    assert run(["calibrate", "--target", "0.5", "--m", "500", *flags]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("form", ["grid", "explicit"])
def test_validate_rejects_unknown_latent_keys(form, tmp_path, capsys):
    latent = {"shape": "normal", "seed": 3, "sigmaa": 2}
    if form == "grid":
        cfg = {"shapes": [latent], "models": ["rasch"], "item_sources": ["parametric"],
               "test_lengths": [15], "n_persons": [60], "targets": {"15": 0.45}}
        field = "shapes[0]"
    else:
        cfg = {"conditions": [{"latent": latent, "model": "rasch", "item_source": "parametric",
                               "n_items": 15, "n_persons": 60, "target_rho": 0.45}]}
        field = "conditions[0].latent"
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    assert run(["validate", "--config", str(cfg_path), "--out-dir", str(out_dir), "--threads", "1"]) == 2
    assert f"config field '{field}': unknown keys ['seed', 'sigmaa']" in capsys.readouterr().err
    assert not out_dir.exists()


# Result documents of past schema versions, written by the package at that
# version with these calibrate flags. Each still loads, re-serialises to the
# document the same flags write now, and generates the same responses. Since
# EQC schema 6 finds its root in u = log c, the root's keys (_ROOT_KEYS) move:
# an EQC document's c_star, achieved_rho, abs_error and evaluations, and a SAC
# document's c_init, warm-started from that root, and the numbers after it;
# c_star by less than 1e-8 relative. Every other key keeps its value. Only
# Rasch documents and sac_schema_7.json are listed: the 2PL copula pools of
# eqc_schema_2.json (`--target 0.6 --items 15 --model twopl --latent-shape
# skew_pos --m 500 --c-lower 0.1 --c-upper 10 --seed 5`) and of the 2PL
# fixtures up to eqc_schema_3.json and sac_schema_4.json moved in their last
# bits at EQC schema 4 and SAC schema 5. sac_schema_7.json is an avg_info
# document, which SAC schema 8 leaves as it was but for its schema_version.
_PAST_DOCS = [
    ("eqc_schema_1.json",
     ["--target", "0.5", "--items", "15", "--model", "rasch", "--latent-shape", "bimodal",
      "--m", "500", "--c-lower", "0.1", "--c-upper", "10", "--seed", "3"]),
    ("sac_schema_2.json",
     ["--algorithm", "sac", "--metric", "msem", "--target", "0.5", "--items", "15",
      "--model", "rasch", "--latent-shape", "heavy_tail", "--m", "500", "--n-iter", "40",
      "--m-per-iter", "200", "--c-lower", "0.1", "--c-upper", "10", "--seed", "4"]),
    ("sac_schema_7.json",
     ["--algorithm", "sac", "--target", "0.6", "--items", "12", "--model", "twopl", "--item-source", "pool",
      "--latent-shape", "skew_pos", "--m", "500", "--n-iter", "30", "--m-per-iter", "100", "--seed", "12"]),
]
_ROOT_KEYS = ("c_star", "achieved_rho", "abs_error", "evaluations", "c_init")


@pytest.mark.parametrize("name,flags", _PAST_DOCS, ids=[name for name, _ in _PAST_DOCS])
def test_past_schema_documents_load_and_generate_the_same_responses(name, flags, tmp_path):
    old_path = Path(__file__).parent / "data" / "result_docs" / name
    new_path = tmp_path / "new.json"
    assert run(["calibrate", *flags, "--out", str(new_path)]) == 0
    old, new = json.loads(old_path.read_text()), json.loads(new_path.read_text())
    assert old["schema_version"] < new["schema_version"]
    del new["reproducibility"]
    loaded = cli._load_result(old_path).to_dict()
    assert list(loaded) == list(new)
    assert {k: v for k, v in loaded.items() if k not in _ROOT_KEYS} == {
        k: v for k, v in new.items() if k not in _ROOT_KEYS}
    assert loaded["c_star"] == pytest.approx(new["c_star"], rel=1e-8, abs=0)
    csvs = []
    for path in (old_path, new_path):
        csv = tmp_path / f"{path.stem}.csv"
        assert run(["generate", "--calibration", str(path), "--n", "300", "--seed", "8",
                    "--out", str(csv)]) == 0
        csvs.append(csv.read_bytes())
    assert csvs[0] == csvs[1]


# Documents of the current schema, written by `calibrate --out`: loading one and
# writing it again gives its bytes back, key order included. eqc_schema_6.json
# was written with the flags of eqc_schema_3.json to eqc_schema_5.json:
# `calibrate --target 0.7 --items 12 --model twopl --latent-shape bimodal --m 500
# --seed 11`; sac_schema_8.json, an msem document, with those of
# sac_schema_3.json to sac_schema_7.json and `--metric msem`: `calibrate
# --algorithm sac --metric msem --target 0.6 --items 12 --model twopl
# --item-source pool --latent-shape skew_pos --m 500 --n-iter 30 --m-per-iter
# 100 --seed 12`.
@pytest.mark.parametrize("name", ["eqc_schema_6.json", "sac_schema_8.json"])
def test_current_schema_documents_keep_their_bytes(name):
    path = Path(__file__).parent / "data" / "result_docs" / name
    doc = json.loads(path.read_text())
    del doc["reproducibility"]
    assert json.dumps(cli._load_result(path).to_dict()) == json.dumps(doc)


# sha256 of `generate --n 300 --seed 8` from each past document. The schema-1 and
# schema-2 digests were recorded with scipy's expit as the logistic, which numpy's
# exp may differ from in the last bits; sac_schema_3.json's with numpy's logistic,
# while SAC's avg_info iterations still ran in float64; eqc_schema_3.json's and
# sac_schema_4.json's while copula pools still ran Phi^-1(Phi(z));
# eqc_schema_4.json's and sac_schema_5.json's while the information kernel
# still ran h = exp(-|x|) / (1 + exp(-|x|))^2; eqc_schema_5.json's and
# sac_schema_6.json's while EQC still found its root in c; sac_schema_7.json's
# while SAC's msem iterations still ran the kernel in float64.
_PAST_DOC_RESPONSES = {
    "eqc_schema_1.json": "6a3dfc40f41a750822c8bd14c34d1992435f2c15b5e037f045d51c4428b36505",
    "sac_schema_2.json": "b906c4ff61f059819fe130acc4fe1fdb891aa3d4433721fcdf5f309dff428ac7",
    "eqc_schema_2.json": "3b9c8535d4eb8d80797c95283b0b33f403cc506649a07fe677acbdd56dc2b084",
    "sac_schema_3.json": "2c915104d05558b76d5cc37b804e6063bee0160fae46794cd0fcd0576680fc4c",
    "eqc_schema_3.json": "f284b860a3ef6575d73137ba9cda8429dbb1e733a30814fb1b2416344abd7ddf",
    "sac_schema_4.json": "2c915104d05558b76d5cc37b804e6063bee0160fae46794cd0fcd0576680fc4c",
    "eqc_schema_4.json": "f284b860a3ef6575d73137ba9cda8429dbb1e733a30814fb1b2416344abd7ddf",
    "sac_schema_5.json": "2c915104d05558b76d5cc37b804e6063bee0160fae46794cd0fcd0576680fc4c",
    "eqc_schema_5.json": "f284b860a3ef6575d73137ba9cda8429dbb1e733a30814fb1b2416344abd7ddf",
    "sac_schema_6.json": "2c915104d05558b76d5cc37b804e6063bee0160fae46794cd0fcd0576680fc4c",
    "sac_schema_7.json": "2c915104d05558b76d5cc37b804e6063bee0160fae46794cd0fcd0576680fc4c",
}


@pytest.mark.parametrize("name,digest", _PAST_DOC_RESPONSES.items(), ids=_PAST_DOC_RESPONSES.keys())
def test_past_documents_generate_recorded_responses(name, digest, tmp_path):
    csv = tmp_path / "r.csv"
    assert run(["generate", "--calibration", str(Path(__file__).parent / "data" / "result_docs" / name),
                "--n", "300", "--seed", "8", "--out", str(csv)]) == 0
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == digest


def test_bounds_without_target_gives_no_verdict(tmp_path, capsys):
    out = tmp_path / "b.json"
    assert run(["bounds", "--items", "30", "--model", "rasch", "--m", "2000", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["feasible"] is None
    assert "Target" not in capsys.readouterr().out


def test_unknown_flag_exits_2():
    assert run(["calibrate", "--target", "0.5", "--no-such-flag"]) == 2


def test_help_exits_0():
    assert run(["--help"]) == 0


def test_threads_default_ignores_environment(monkeypatch, tmp_path):
    monkeypatch.setenv("IRTCALIB_THREADS", "two")
    code = run(["calibrate", "--target", "0.5", "--items", "10", "--m", "500",
                "--out", str(tmp_path / "r.json")])
    assert code == 0


def test_validate_zero_threads_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps({"conditions": [_tiny_condition()]}))
    out_dir = tmp_path / "out"
    assert run(["validate", "--config", str(cfg_path), "--out-dir", str(out_dir), "--threads", "0"]) == 2
    assert "n_jobs (--threads) must be >= 1, got 0" in capsys.readouterr().err
    assert not out_dir.exists()


_BAD_LATENT_PARAMS = {
    "mixture_string_weight": ("mixture", '{"components": [{"weight": "a", "mean": 0, "sd": 1}]}',
                              "components[0].weight must be a real number"),
    "mixture_missing_sd": ("mixture", '{"components": [{"weight": 1, "mean": 0}]}',
                           "components[0] must be an object holding exactly weight, mean and sd"),
    "mixture_not_a_list": ("mixture", '{"components": 5}', "components must be a nonempty list"),
    "json": ("normal", "{bad", "invalid JSON object"),
    "key_value": ("bimodal", "delta=abc", "delta must be a number"),
    **{f"{key}_{value}": (shape, f"{key}={value}", f"shape_params.{key} must be finite")
       for shape, key in (("skew_pos", "k"), ("heavy_tail", "nu")) for value in ("nan", "inf", "-inf")},
    # Past k = 2**52 the skew_pos draw loses its resolution.
    **{f"k_{value}": ("skew_pos", f"k={value}", "shape_params.k must be finite and lie in (0, 2**52]")
       for value in ("1e30", "1e308")},
}


@pytest.mark.parametrize("shape,params,message", _BAD_LATENT_PARAMS.values(), ids=_BAD_LATENT_PARAMS.keys())
def test_malformed_latent_params_exit_2(shape, params, message, capsys):
    code = run(["calibrate", "--target", "0.5", "--m", "500", "--latent-shape", shape,
                "--latent-params", params])
    assert code == 2
    assert message in capsys.readouterr().err


def _tiny_condition(**changes):
    condition = {"latent": {"shape": "normal"}, "model": "rasch", "item_source": "parametric",
                 "n_items": 15, "n_persons": 60, "target_rho": 0.45, "replications": 2}
    condition.update(changes)
    return condition


_GRID = {"shapes": [{"shape": "normal"}], "models": ["rasch"], "item_sources": ["parametric"],
         "test_lengths": [15], "n_persons": [60], "targets": {"15": 0.45}, "replications": 2}

_BAD_CONFIGS = {
    "latent_bool_sigma": ({"conditions": [_tiny_condition(latent={"shape": "normal", "sigma": True,
                                                                  "mu": "0.5"})]},
                          "must be a real number"),
    "latent_nan_nu": ({"conditions": [_tiny_condition(latent={"shape": "heavy_tail",
                                                              "shape_params": {"nu": float("nan")}})]},
                      "shape_params.nu must be finite"),
    "latent_huge_k": ({"conditions": [_tiny_condition(latent={"shape": "skew_pos", "shape_params": {"k": 1e30}})]},
                      "shape_params.k must be finite and lie in (0, 2**52]"),
    "latent_params_list": ({"conditions": [_tiny_condition(latent={"shape": "normal",
                                                                   "shape_params": [1]})]},
                           "shape_params must be an object"),
    "allow_any_target_string": ({"conditions": [_tiny_condition(n_items=30, target_rho=0.95,
                                                                allow_any_target="false")]},
                                "conditions[0].allow_any_target': must be true or false"),
    "fractional_n_persons": ({"conditions": [_tiny_condition(n_persons=50.9)]},
                             "conditions[0].n_persons must be an integer"),
    "fractional_replications": ({"conditions": [_tiny_condition(replications=2.7)]},
                                "conditions[0].replications must be an integer"),
    "string_target": ({"conditions": [_tiny_condition(target_rho="0.55")]},
                      "conditions[0].target_rho must be a real number"),
    "negative_condition_id": ({"conditions": [_tiny_condition(condition_id=-1)]},
                              "condition_id must be >= 0"),
    "misspelled_condition_key": ({"conditions": [_tiny_condition(replicatons=500)]},
                                 "'conditions[0]': unknown keys ['replicatons']"),
    "misspelled_grid_key": ({**_GRID, "algorithm": ["sac_info"]}, "unknown keys ['algorithm']"),
    "grid_keys_beside_conditions": ({**_GRID, "conditions": [_tiny_condition()]},
                                    "unknown keys ['item_sources'"),
    "grid_fractional_length": ({**_GRID, "test_lengths": [15.5]}, "test_lengths[0] must be an integer"),
    "grid_scalar_sizes": ({**_GRID, "n_persons": 60}, "'n_persons': must be a list"),
    "grid_target_key": ({**_GRID, "targets": {"15": 0.45, "x": 0.5}}, "key 'x' is not a test length"),
    "grid_pool_file_number": ({**_GRID, "pool_file": 3}, "'pool_file': must be a file path"),
    "string_master_seed": ({**_GRID, "master_seed": "7"}, "master_seed must be an integer"),
}


@pytest.mark.parametrize("cfg,message", _BAD_CONFIGS.values(), ids=_BAD_CONFIGS.keys())
def test_validate_rejects_coerced_or_ignored_config_values(cfg, message, tmp_path, monkeypatch, capsys):
    def no_calibration(config):
        raise AssertionError("calibration ran")

    monkeypatch.setattr(study, "eqc_calibrate", no_calibration)
    monkeypatch.setattr(study, "sac_calibrate", no_calibration)
    monkeypatch.setattr(study, "sac_calibrate_chains", no_calibration)
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    assert run(["validate", "--config", str(cfg_path), "--out-dir", str(out_dir), "--threads", "1"]) == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


def test_validate_reads_integral_floats_as_integers(tmp_path):
    outputs = []
    for name, n_persons in (("int", 60), ("float", 60.0)):
        cfg_path = tmp_path / f"{name}.json"
        cfg = {"master_seed": 5, "conditions": [_tiny_condition(n_persons=n_persons)]}
        cfg_path.write_text(json.dumps(cfg))
        assert run(["validate", "--config", str(cfg_path), "--out-dir", str(tmp_path / name),
                    "--threads", "1"]) == 0
        outputs.append((tmp_path / name / "records.csv").read_bytes())
    assert outputs[0] == outputs[1]


_BAD_DOCS = {
    "missing_pool": (lambda doc: doc.pop("pool"), "missing key 'pool'"),
    "string_c_star": (lambda doc: doc.update(c_star="x"), "c_star must be a real number"),
    "string_latent_sigma": (lambda doc: doc["latent"].update(sigma="2"), "sigma must be a real number"),
    "huge_integer_c_star": (lambda doc: doc.update(c_star=10**400), "c_star is an integer too large"),
    "bool_schema_version": (lambda doc: doc.update(schema_version=True), "schema_version True"),
    "list_status": (lambda doc: doc.update(status=[1]), "status [1]"),
    "string_pool_seed": (lambda doc: doc["pool"].update(seed="abc"), "pool.seed must be an integer"),
    "string_bracket": (lambda doc: doc.update(bracket="x"), "bracket must be an object, got 'x'"),
    "list_latent": (lambda doc: doc.update(latent=[1]), "latent must be an object, got [1]"),
}


@pytest.mark.parametrize("corrupt,message", _BAD_DOCS.values(), ids=_BAD_DOCS.keys())
def test_generate_rejects_malformed_result_documents(corrupt, message, eqc_json, tmp_path, capsys):
    doc = json.loads(eqc_json.read_text())
    corrupt(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "x.csv"
    assert run(["generate", "--calibration", str(path), "--n", "5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("text,message", [
    ("[{}]", "top level must be a JSON object"),
    ('{"c_star": 1' + "0" * 5000 + "}", "doc.json: "),  # past Python's int-conversion limit
], ids=["list", "endless_integer"])
def test_generate_rejects_documents_no_object_can_be_read_from(text, message, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert run(["generate", "--calibration", str(path), "--n", "5", "--out", str(tmp_path / "x.csv")]) == 2
    assert message in capsys.readouterr().err


@pytest.fixture(scope="module")
def sac_json(tmp_path_factory):
    path = tmp_path_factory.mktemp("res") / "sac.json"
    assert run(["calibrate", "--algorithm", "sac", "--metric", "msem", "--warm-start", "midpoint",
                "--target", "0.5", "--items", "15", "--n-iter", "20", "--m-per-iter", "100",
                "--c-lower", "0.1", "--c-upper", "10", "--seed", "6", "--out", str(path)]) == 0
    return path


# Corruptions that no value of a kind survives: "real" numbers, "int"egers,
# "flag"s (JSON booleans), "other" (objects, names, arrays of parameters), and
# the "real_or_null"/"int_or_null" numbers for which null is legal.
_DELETE = object()
_NAMES = (set(MODELS) | set(SOURCES) | set(GEN_METHODS) | set(SHAPES) | set(METRICS) | set(study.ALGORITHMS)
          | set(eqc.STATUSES) | set(sac.STATUSES))
_CORRUPTIONS = {
    "string": st.text(max_size=6).filter(lambda s: s not in _NAMES),
    "bool": st.booleans(),
    "list": st.lists(st.integers(-2, 2), max_size=3),
    "null": st.none(),
    "fraction": st.integers(-100, 100).map(lambda n: n + 0.5),
}
_BREAKS = {
    "real": ("string", "bool", "list", "null"),
    "int": ("string", "bool", "list", "null", "fraction"),
    "flag": ("string", "list", "null", "fraction"),
    "other": ("string", "bool", "list", "null", "fraction"),
    "real_or_null": ("string", "bool", "list"),
    "int_or_null": ("string", "bool", "list", "fraction"),
}

# (path, kind, required): required keys are also deleted.
_DOC_FIELDS = [
    (("schema_version",), "int", True), (("status",), "other", True),
    (("target_rho",), "real", True), (("c_star",), "real", True), (("seed",), "int", True),
    (("metric",), "other", True),
    (("bracket",), "other", True), (("bracket", "c_lower"), "real", True),
    (("bracket", "c_upper"), "real", True),
    (("latent",), "other", True), (("latent", "shape"), "other", True),
    (("latent", "shape_params"), "other", False), (("latent", "mu"), "real", False),
    (("latent", "sigma"), "real", False),
    (("pool",), "other", True), (("pool", "model"), "other", True), (("pool", "beta"), "other", True),
    (("pool", "lambda0"), "other", True), (("pool", "source"), "other", False),
    (("pool", "gen_method"), "other", False), (("pool", "seed"), "int_or_null", False),
    (("pool", "target_spearman"), "real_or_null", False),
]
_EQC_FIELDS = _DOC_FIELDS + [
    (("m_quadrature",), "int", True), (("tolerance",), "real", True),
    (("bracket", "rho_lower"), "real", True), (("latent_variance",), "real", True),
]
_SAC_FIELDS = _DOC_FIELDS + [
    (("n_iter",), "int", True), (("burn_in",), "int", True), (("eval_m",), "int", True),
    (("c_init",), "real", True), (("step_gamma",), "real", True), (("clamp_fraction",), "real", True),
]
_CONFIG_FIELDS = [
    (("master_seed",), "int", False), (("conditions",), "other", True),
    (("conditions", 0), "other", False),
    (("conditions", 0, "latent"), "other", True), (("conditions", 0, "latent", "shape"), "other", True),
    (("conditions", 0, "latent", "sigma"), "real", False),
    (("conditions", 0, "model"), "other", True), (("conditions", 0, "item_source"), "other", True),
    (("conditions", 0, "algorithm"), "other", False),
    (("conditions", 0, "condition_id"), "int", False), (("conditions", 0, "n_items"), "int", True),
    (("conditions", 0, "n_persons"), "int", True), (("conditions", 0, "replications"), "int", False),
    (("conditions", 0, "target_rho"), "real", True),
    (("conditions", 0, "allow_any_target"), "flag", False),
]


def _corrupted(data, doc, fields):
    """``doc`` with one field of ``fields`` deleted or replaced by a value no such field takes."""
    path, kind, required = data.draw(st.sampled_from(fields))
    how = data.draw(st.sampled_from(_BREAKS[kind] + (("delete",) if required else ())))
    doc = copy.deepcopy(doc)
    block = doc
    for key in path[:-1]:
        block = block[key]
    if how == "delete":
        del block[path[-1]]
    else:
        block[path[-1]] = data.draw(_CORRUPTIONS[how])
    return doc


def _exit_code_without_calibrating(argv):
    def unreachable(*args, **kwargs):
        raise AssertionError("malformed input reached a calibration or a generation")

    with pytest.MonkeyPatch.context() as mp:
        for owner, name in ((study, "eqc_calibrate"), (study, "sac_calibrate"), (study, "sac_calibrate_chains"),
                            (cli, "simulate_responses")):
            mp.setattr(owner, name, unreachable)
        return run(argv)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_malformed_result_document_never_an_unexpected_error(data, eqc_json, sac_json):
    path, fields = data.draw(st.sampled_from([(eqc_json, _EQC_FIELDS), (sac_json, _SAC_FIELDS)]))
    doc = _corrupted(data, json.loads(path.read_text()), fields)
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / "bad.json"
        bad.write_text(json.dumps(doc))
        code = _exit_code_without_calibrating(
            ["generate", "--calibration", str(bad), "--n", "3", "--out", str(Path(tmp) / "x.csv")])
    assert code in (cli.EXIT_USAGE, cli.EXIT_IO)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_malformed_validate_config_never_an_unexpected_error(data):
    cfg = {"master_seed": 3, "conditions": [_tiny_condition(algorithm="eqc", condition_id=0,
                                                            allow_any_target=False)]}
    cfg = _corrupted(data, cfg, _CONFIG_FIELDS)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "study.json"
        path.write_text(json.dumps(cfg))
        code = _exit_code_without_calibrating(
            ["validate", "--config", str(path), "--out-dir", str(Path(tmp) / "out"), "--threads", "1"])
    assert code in (cli.EXIT_USAGE, cli.EXIT_IO)
