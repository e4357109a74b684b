import json
from pathlib import Path

import numpy as np
import pytest

from irtcalib import cli
from irtcalib.cli import main
from irtcalib.eqc import CalibrationResult


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
    assert run(argv + ["--tolerance", "0"]) == 2


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


@pytest.mark.parametrize("version", [None, 3])
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
    assert summary["schema_version"] == 3


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
# document the same flags write now, and generates the same responses.
_PAST_DOCS = [
    ("eqc_schema_1.json",
     ["--target", "0.5", "--items", "15", "--model", "rasch", "--latent-shape", "bimodal",
      "--m", "500", "--c-lower", "0.1", "--c-upper", "10", "--seed", "3"]),
    ("sac_schema_2.json",
     ["--algorithm", "sac", "--metric", "msem", "--target", "0.5", "--items", "15",
      "--model", "rasch", "--latent-shape", "heavy_tail", "--m", "500", "--n-iter", "40",
      "--m-per-iter", "200", "--c-lower", "0.1", "--c-upper", "10", "--seed", "4"]),
]


@pytest.mark.parametrize("name,flags", _PAST_DOCS, ids=[name for name, _ in _PAST_DOCS])
def test_past_schema_documents_load_and_generate_the_same_responses(name, flags, tmp_path):
    old_path = Path(__file__).parent / "data" / "result_docs" / name
    new_path = tmp_path / "new.json"
    assert run(["calibrate", *flags, "--out", str(new_path)]) == 0
    old, new = json.loads(old_path.read_text()), json.loads(new_path.read_text())
    assert old["schema_version"] < new["schema_version"]
    del new["reproducibility"]
    assert cli._load_result(old_path).to_dict() == new
    csvs = []
    for path in (old_path, new_path):
        csv = tmp_path / f"{path.stem}.csv"
        assert run(["generate", "--calibration", str(path), "--n", "300", "--seed", "8",
                    "--out", str(csv)]) == 0
        csvs.append(csv.read_bytes())
    assert csvs[0] == csvs[1]


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
