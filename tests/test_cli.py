import csv
import json

import numpy as np
import pytest

from bicausal.cli import main
from bicausal.harness import pair_from_csv, sweep_from_csv


def run_cli(*argv):
    return main(list(argv))


def test_oracle_curve(tmp_path):
    code = run_cli("oracle", "--lp", "b_x=0.8", "b_y=0.4", "var_x=0.2", "var_y=0.2",
                   "--lambda", "0:1:0.1", "-o", str(tmp_path))
    assert code == 0
    rows = list(csv.DictReader(open(tmp_path / "oracle.csv")))
    assert len(rows) == 11
    assert all(float(r["te_xy"]) == 0.0 for r in rows)
    assert float(rows[0]["te_yx"]) == 0.0
    assert float(rows[-1]["te_yx"]) > 0.3


def test_oracle_with_ctir(tmp_path):
    code = run_cli("oracle", "--lambda", "0:0.4:0.2", "--tau-max", "3",
                   "-o", str(tmp_path))
    assert code == 0
    rows = list(csv.DictReader(open(tmp_path / "oracle.csv")))
    assert "ctir_yx" in rows[0]
    assert abs(float(rows[0]["ctir_yx"])) < 1e-10


def test_simulate_roundtrip(tmp_path):
    code = run_cli("simulate", "--preset", "ulam-1e3", "--coupling", "0.4",
                   "--T", "120", "--seed", "5", "-o", str(tmp_path))
    assert code == 0
    pair = pair_from_csv(tmp_path / "ulam_series.csv")
    assert pair.T == 120
    assert np.all(np.abs(pair.x) <= 2.0)


def test_indices_on_constant_series_exits_2(tmp_path):
    path = tmp_path / "const.csv"
    with open(path, "w") as fh:
        fh.write("t,x,y\n")
        for t in range(40):
            fh.write(f"{t},1.0,1.0\n")
    code = run_cli("indices", "--input", str(path), "--indices", "te_hist,te_ksg",
                   "-o", str(tmp_path))
    assert code == 2
    body = (tmp_path / "indices.csv").read_text()
    assert "NA" in body and "degenerate" in body


def test_indices_on_real_series_exits_0(tmp_path):
    run_cli("simulate", "--preset", "ulam-1e3", "--coupling", "0.5", "--T", "400",
            "-o", str(tmp_path))
    code = run_cli("indices", "--input", str(tmp_path / "ulam_series.csv"),
                   "--indices", "te_hist,si1", "-o", str(tmp_path))
    assert code == 0
    rows = list(csv.DictReader(open(tmp_path / "indices.csv")))
    assert {r["index"] for r in rows} == {"te_hist", "si1"}
    assert all(r["status"] == "ok" for r in rows)


def test_sweep_then_report_and_rerun_identical(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        code = run_cli("sweep", "--preset", "ulam-1e3", "--T", "300",
                       "--grid", "0.2:0.6:0.4", "--runs", "2",
                       "--indices", "te_hist,ete_hist", "--seed", "3",
                       "-o", str(out))
        assert code == 0
    a = sweep_from_csv(out1 / "sweep.csv")
    b = sweep_from_csv(out2 / "sweep.csv")
    for ra, rb in zip(a.records, b.records):
        assert ra.value == rb.value or (np.isnan(ra.value) and np.isnan(rb.value))
    manifest = json.load(open(out1 / "manifest.json"))
    assert manifest["prng"] == "PCG64"

    code = run_cli("report", "--input", str(out1 / "sweep.csv"), "-o", str(out1))
    assert code == 0
    assert (out1 / "corr_pearson.csv").exists()
    assert (out1 / "corr_spearman.csv").exists()
    assert (out1 / "timing.csv").exists()


def test_perturb_standardize_fg_row(tmp_path):
    code = run_cli("perturb", "--preset", "ulam-1e3", "--T", "500",
                   "--kind", "standardize", "--grid", "0.3:0.5:0.2", "--runs", "2",
                   "--indices", "te_hist,si1", "-o", str(tmp_path))
    assert code == 0
    rows = {r["index"]: r for r in csv.DictReader(open(tmp_path / "fg.csv"))}
    assert float(rows["te_hist"]["f"]) == 0.0
    assert float(rows["te_hist"]["g"]) == 1.0
    # neighbour distances are recomputed after the affine map: float-level only
    assert abs(float(rows["si1"]["f"])) < 1e-9


def test_bad_flags_exit_1(tmp_path):
    assert run_cli("sweep", "--preset", "nope", "-o", str(tmp_path)) == 1
    assert run_cli("oracle", "--lambda", "1:0:0.1", "-o", str(tmp_path)) == 1
    assert run_cli("indices", "--input", str(tmp_path / "missing.csv")) in (1, 2)


SWEEP_HEADER = "simulation,lambda_xy,lambda_yx,run,index,direction,value,elapsed_seconds,status\n"


@pytest.mark.parametrize("command,body,where", [
    ("indices", "t,x,y\n0,1.0,2.0\n1,1.5,abc\n", "line 3"),
    ("indices", "t,x,y\n0,1.0,2.0\n1,1.5\n", "line 3"),
    ("indices", "", "empty"),
    ("report", "", "empty"),
    ("report", SWEEP_HEADER + "ulam,0.0,0.1,0,te_hist,xy\n", "line 2"),
], ids=["indices-non-numeric", "indices-short-row", "indices-empty",
        "report-empty", "report-short-row"])
def test_malformed_csv_exits_1(tmp_path, capsys, command, body, where):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    assert run_cli(command, "--input", str(path), "-o", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err and where in err


@pytest.mark.parametrize("argv,config,workers,where", [
    (["oracle", "--lp", "b_x=abc"], None, None, "'b_x'"),
    (["oracle", "--lambda", "nan:1:0.1"], None, None, "nan:1:0.1"),
    (["oracle", "--lambda", "0:inf:0.1"], None, None, "0:inf:0.1"),
    (["oracle", "--tau-max", "0"], None, None, "tau_max"),
    (["sweep", "--preset", "ulam-1e3"], {"runs": "2"}, None, "'runs'"),
    (["oracle"], {"lp": [0.8]}, None, "'lp'"),
    (["simulate", "--preset", "ulam-1e3", "--T", "0"], None, None, "T must"),
    (["sweep", "--preset", "ulam-1e3", "--T", "0", "--grid", "0:0:1", "--runs", "1",
      "--indices", "te_hist"], None, None, "T must"),
    (["oracle"], None, "abc", "BICAUSAL_WORKERS"),
    (["oracle"], None, "0", "BICAUSAL_WORKERS"),
], ids=["oracle-lp-non-numeric", "oracle-lambda-nan", "oracle-lambda-inf",
        "oracle-tau-max-0", "sweep-config-runs-string", "oracle-config-lp-number",
        "simulate-T-0", "sweep-T-0",
        "workers-env-non-numeric", "workers-env-0"])
def test_malformed_input_exits_1(tmp_path, capsys, monkeypatch, argv, config, workers,
                                 where):
    if workers is not None:
        monkeypatch.setenv("BICAUSAL_WORKERS", workers)
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    out = tmp_path / "out"
    assert run_cli(*argv, "-o", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and where in err
    assert not out.exists()  # nothing written under a silent default


def test_config_file_merge(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"coupling": 0.2, "T": 80}))
    code = run_cli("simulate", "--preset", "ulam-1e3", "--coupling", "0.9",
                   "--config", str(cfg), "-o", str(tmp_path))
    assert code == 0
    pair = pair_from_csv(tmp_path / "ulam_series.csv")
    assert pair.T == 80  # file value wins


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"wavelets": True}))
    code = run_cli("simulate", "--preset", "ulam-1e3", "--config", str(cfg),
                   "-o", str(tmp_path))
    assert code == 1
