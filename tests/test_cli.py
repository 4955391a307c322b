import csv
import json
import warnings

import numpy as np
import pytest

from bicausal import harness
from bicausal.cli import PRESET_IDS, _parse_grid, main
from bicausal.harness import normalize_point, pair_from_csv, simulate_pair, sweep_from_csv


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


@pytest.mark.parametrize("text,want", [
    ("0:0.5:0.3", [0.0, 0.3]),
    ("0:0.35:0.1", [0.0, 0.1, 0.2, 0.3]),
    ("0:1:0.1", [round(0.1 * i, 12) for i in range(11)]),
    ("0:0.3:0.1", [0.0, 0.1, 0.2, 0.3]),  # 0.3 / 0.1 falls just below 3
])
def test_grid_stops_at_stop(text, want):
    # a step that does not divide the range ends at the last point before stop
    assert _parse_grid(text) == want


def test_grid_step_not_dividing_range_stays_in_range(tmp_path):
    # λ = 1.2 would be an invalid coupling, and λ = 0.6 lies outside 0:0.5
    assert run_cli("oracle", "--lambda", "0:1:0.6", "-o", str(tmp_path)) == 0
    rows = list(csv.DictReader(open(tmp_path / "oracle.csv")))
    assert [float(r["lambda"]) for r in rows] == [0.0, 0.6]
    code = run_cli("sweep", "--preset", "ulam-1e3", "--T", "200", "--grid", "0:0.5:0.3",
                   "--runs", "1", "--indices", "te_hist", "-o", str(tmp_path))
    assert code == 0
    assert sweep_from_csv(tmp_path / "sweep.csv").grid_points() == [(0.0, 0.0), (0.3, 0.0)]


def test_simulate_roundtrip(tmp_path):
    code = run_cli("simulate", "--preset", "ulam-1e3", "--coupling", "0.4",
                   "--T", "120", "--seed", "5", "-o", str(tmp_path))
    assert code == 0
    pair = pair_from_csv(tmp_path / "ulam-1e3_series.csv")
    assert pair.T == 120
    assert np.all(np.abs(pair.x) <= 2.0)


def test_simulate_names_the_file_after_the_preset(tmp_path):
    # two presets of one system, written to one directory, leave two files
    for preset, T in (("ulam-1e3", 40), ("ulam-1e5", 60)):
        assert run_cli("simulate", "--preset", preset, "--T", str(T), "-o", str(tmp_path)) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ulam-1e3_series.csv",
                                                         "ulam-1e5_series.csv"]
    assert pair_from_csv(tmp_path / "ulam-1e3_series.csv").T == 40
    assert pair_from_csv(tmp_path / "ulam-1e5_series.csv").T == 60


@pytest.mark.parametrize("preset", sorted(PRESET_IDS))
def test_simulate_default_coupling_is_half_the_range(tmp_path, preset):
    # 0.5 on the one-coupling systems, (0.2, 0.2) on the Henon-bi maps
    simulation, _ = PRESET_IDS[preset]
    assert run_cli("simulate", "--preset", preset, "--T", "50", "--seed", "3",
                   "-o", str(tmp_path)) == 0
    got = pair_from_csv(tmp_path / f"{preset}_series.csv")
    point = (0.2, 0.2) if simulation.startswith("henon_bi") else \
        normalize_point(simulation, 0.5)
    want = simulate_pair(simulation, point, 50, seed=3)
    assert np.array_equal(got.x, want.x) and np.array_equal(got.y, want.y)


def test_simulate_coupling_pair(tmp_path):
    # --coupling-yx makes the point explicit: (coupling, coupling_yx)
    assert run_cli("simulate", "--preset", "henon-bi-ni-1e4", "--coupling", "0.1",
                   "--coupling-yx", "0.3", "--T", "40", "-o", str(tmp_path)) == 0
    got = pair_from_csv(tmp_path / "henon-bi-ni-1e4_series.csv")
    assert np.array_equal(got.x, simulate_pair("henon_bi_ni", (0.1, 0.3), 40, seed=0).x)
    # a zero second coupling is the one-coupling system's own point
    assert run_cli("simulate", "--preset", "ulam-1e3", "--coupling", "0.4",
                   "--coupling-yx", "0", "--T", "40", "-o", str(tmp_path)) == 0
    got = pair_from_csv(tmp_path / "ulam-1e3_series.csv")
    assert np.array_equal(got.y, simulate_pair("ulam", (0.4, 0.0), 40, seed=0).y)


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
    code = run_cli("indices", "--input", str(tmp_path / "ulam-1e3_series.csv"),
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
    assert set(manifest["wall_seconds"]) == {"sweep"}
    assert manifest["wall_seconds"]["sweep"] > 0.0
    # 2 points x 2 runs x 2 indices x 2 directions
    assert manifest["status_counts"] == {
        "sweep": {"ok": 16, "degenerate": 0}}

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
    manifest = json.load(open(tmp_path / "manifest.json"))
    assert set(manifest["wall_seconds"]) == {"baseline", "perturbed"}
    assert all(v > 0.0 for v in manifest["wall_seconds"].values())
    counts = {"ok": 16, "degenerate": 0}
    assert manifest["status_counts"] == {"baseline": counts, "perturbed": counts}


@pytest.mark.parametrize("target", ["x", "y"])
def test_perturb_standardize_with_a_target_exits_1(tmp_path, capsys, target):
    # standardize maps both series: a narrower target is refused, not ignored
    out = tmp_path / "out"
    code = run_cli("perturb", "--preset", "ulam-1e3", "--T", "300", "--kind", "standardize",
                   "--target", target, "--grid", "0.4:0.6:0.2", "--runs", "2",
                   "--indices", "te_hist", "-o", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "standardize maps both series" in err
    assert not out.exists()


def test_perturb_all_degenerate_index_writes_na_without_warning(tmp_path):
    # nlgc is degenerate at every point of the rounded ulam sweep: its f and g
    # are NA, and summarize_fg warns nothing on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("perturb", "--preset", "ulam-1e3", "--T", "300", "--kind", "round",
                       "--grid", "0.4:0.6:0.2", "--runs", "2", "--indices", "nlgc,te_hist",
                       "-o", str(tmp_path))
    assert code == 0
    rows = {r["index"]: r for r in csv.DictReader(open(tmp_path / "fg.csv"))}
    assert (rows["nlgc"]["f"], rows["nlgc"]["g"]) == ("NA", "NA")
    assert rows["te_hist"]["f"] != "NA"
    perturbed = sweep_from_csv(tmp_path / "perturbed.csv")
    assert {r.status for r in perturbed.records if r.index == "nlgc"} == {"degenerate"}


def test_perturb_scale_past_overflow_records_degenerate(tmp_path):
    # at 1e200 squared distances overflow: pi used to abort the sweep with an
    # IndexError from the kNN query; te_ksg's max-norm counts stay finite
    code = run_cli("perturb", "--preset", "ulam-1e3", "--T", "300", "--kind", "scale",
                   "--factor", "1e200", "--grid", "0.4:0.4:0.1", "--runs", "1",
                   "--indices", "te_ksg,pi", "-o", str(tmp_path))
    assert code == 0
    rows = list(csv.DictReader(open(tmp_path / "perturbed.csv")))
    status = {(r["index"], r["direction"]): r["status"] for r in rows}
    assert status == {("pi", "xy"): "degenerate", ("pi", "yx"): "degenerate",
                      ("te_ksg", "xy"): "ok", ("te_ksg", "yx"): "ok"}
    assert all(r["value"] == "NA" for r in rows if r["index"] == "pi")
    assert (tmp_path / "fg.csv").exists()


def _rows_but_elapsed(path) -> list:
    return [{k: v for k, v in row.items() if k != "elapsed_seconds"}
            for row in csv.DictReader(open(path))]


def test_perturb_data_size_is_a_sweep_at_that_length(tmp_path):
    # the perturbed sweep simulates at --data-size's length with that
    # length's presets: perturbed.csv is `sweep --T 400`'s sweep.csv, and
    # baseline.csv is `sweep`'s at the preset's T
    flags = ["--preset", "ulam-1e3", "--grid", "0.3:0.3:0.1", "--runs", "2",
             "--indices", "te_hist,si1"]
    assert run_cli("perturb", *flags, "--kind", "data-size", "--data-size", "400",
                   "-o", str(tmp_path / "p")) == 0
    assert run_cli("sweep", *flags, "--T", "400", "-o", str(tmp_path / "s400")) == 0
    assert run_cli("sweep", *flags, "-o", str(tmp_path / "s")) == 0
    perturbed = _rows_but_elapsed(tmp_path / "p" / "perturbed.csv")
    assert len(perturbed) == 8
    assert perturbed == _rows_but_elapsed(tmp_path / "s400" / "sweep.csv")
    assert (_rows_but_elapsed(tmp_path / "p" / "baseline.csv")
            == _rows_but_elapsed(tmp_path / "s" / "sweep.csv"))
    assert perturbed != _rows_but_elapsed(tmp_path / "s" / "sweep.csv")
    # the manifest records the baseline length, the kind and the perturbed length
    manifest = json.load(open(tmp_path / "p" / "manifest.json"))
    assert manifest["T"] == 1000
    assert manifest["perturbation"] == {"kind": "data_size", "data_size": 400}


def test_preset_ids_are_the_published_lengths():
    # derived from SIMULATION_TABLE: a slip in the derivation changes an id
    assert PRESET_IDS == {
        "lp-1e4": ("lp", 10**4),
        "ulam-1e3": ("ulam", 10**3),
        "ulam-1e5": ("ulam", 10**5),
        "henon-uni-1e3": ("henon_uni", 10**3),
        "henon-uni-1e4": ("henon_uni", 10**4),
        "henon-uni-1e5": ("henon_uni", 10**5),
        "henon-bi-i-1e4": ("henon_bi_i", 10**4),
        "henon-bi-ni-1e4": ("henon_bi_ni", 10**4),
    }


def test_bad_flags_exit_1(tmp_path):
    assert run_cli("sweep", "--preset", "nope", "-o", str(tmp_path)) == 1
    assert run_cli("oracle", "--lambda", "1:0:0.1", "-o", str(tmp_path)) == 1
    assert run_cli("indices", "--input", str(tmp_path / "missing.csv")) in (1, 2)


def test_sweep_without_indices_exits_1_before_simulating(tmp_path, capsys, monkeypatch):
    # "--indices ," used to simulate every unit, exit 0 and write a
    # header-only sweep.csv that `bicausal report` rejects
    def simulate_units(*args, **kwargs):
        raise AssertionError("the sweep simulated a unit")

    monkeypatch.setattr(harness, "simulate_units", simulate_units)
    out = tmp_path / "out"
    assert run_cli("sweep", "--preset", "ulam-1e3", "--indices", ",", "-o", str(out)) == 1
    assert "no indices requested" in capsys.readouterr().err
    assert not out.exists()


SWEEP_HEADER = "simulation,lambda_xy,lambda_yx,run,index,direction,value,elapsed_seconds,status\n"


@pytest.mark.parametrize("command,body,where", [
    ("indices", "t,x,y\n0,1.0,2.0\n1,1.5,abc\n", "line 3"),
    ("indices", "t,x,y\n0,1.0,2.0\n1,1.5\n", "line 3"),
    ("indices", "", "empty"),
    ("report", "", "empty"),
    ("report", SWEEP_HEADER + "ulam,0.0,0.1,0,te_hist,xy\n", "line 2"),
    ("report", SWEEP_HEADER + "ulam,0.0,0.1,0,te_hist,xy,0.5,0.1,ok\n"
     "ulam,0.0,0.1,0,nosuch,xy,0.5,0.1,ok\n", "line 3: unknown indices: ['nosuch']"),
    ("report", SWEEP_HEADER + "ulam,0.0,0.1,0,te_hist,zx,0.5,0.1,ok\n",
     "line 2: unknown direction 'zx'"),
    ("report", SWEEP_HEADER + "ulam,0.0,0.1,0,te_hist,xy,0.5,0.1,bogus\n",
     "line 2: unknown status 'bogus'"),
    ("report", SWEEP_HEADER + "nosuch,0.0,0.1,0,te_hist,xy,0.5,0.1,ok\n",
     "line 2: unknown simulation 'nosuch'"),
    ("report", SWEEP_HEADER + "ulam,0.0,0.1,0,te_hist,xy,0.5,0.1,ok\n"
     "lp,0.0,0.1,0,te_hist,yx,0.5,0.1,ok\n", "line 3: simulation 'lp' after rows of 'ulam'"),
], ids=["indices-non-numeric", "indices-short-row", "indices-empty",
        "report-empty", "report-short-row", "report-unknown-index",
        "report-unknown-direction", "report-unknown-status", "report-unknown-simulation",
        "report-mixed-simulations"])
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
    (["oracle", "--lp", "b_x=nan"], None, None, "b_x must be finite"),
    (["oracle", "--lp", "var_y=inf"], None, None, "var_y must be finite"),
    (["perturb", "--preset", "ulam-1e3", "--kind", "scale", "--factor", "inf"],
     None, None, "must be finite"),
    (["perturb", "--preset", "ulam-1e3", "--kind", "noise", "--noise-var", "nan"],
     None, None, "must be finite"),
    (["perturb", "--preset", "ulam-1e3", "--kind", "data-size"], None, None,
     "--data-size must be an integer >= 1, got None"),
    (["perturb", "--preset", "ulam-1e3", "--kind", "data-size", "--data-size", "0"],
     None, None, "--data-size must be an integer >= 1, got 0"),
    (["perturb", "--preset", "ulam-1e3", "--kind", "data-size", "--data-size", "2.5"],
     None, None, "invalid int value: '2.5'"),
    (["perturb", "--preset", "ulam-1e3", "--kind", "data-size"], {"data-size": True},
     None, "'data-size' must be int"),
    (["simulate", "--preset", "ulam-1e3", "--coupling-yx", "0.3"], None, None,
     "the other must be 0"),
    (["simulate", "--preset", "lp-1e4", "--coupling", "0.3", "--coupling-yx", "0.3"],
     None, None, "the other must be 0"),
], ids=["oracle-lp-non-numeric", "oracle-lambda-nan", "oracle-lambda-inf",
        "oracle-tau-max-0", "sweep-config-runs-string", "oracle-config-lp-number",
        "simulate-T-0", "sweep-T-0",
        "workers-env-non-numeric", "workers-env-0", "oracle-lp-b_x-nan",
        "oracle-lp-var_y-inf", "perturb-factor-inf", "perturb-noise-var-nan",
        "perturb-data-size-missing", "perturb-data-size-0", "perturb-data-size-float",
        "perturb-config-data-size-bool",
        "simulate-ulam-coupling-yx", "simulate-lp-coupling-xy"])
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
    pair = pair_from_csv(tmp_path / "ulam-1e3_series.csv")
    assert pair.T == 80  # file value wins


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"wavelets": True}))
    code = run_cli("simulate", "--preset", "ulam-1e3", "--config", str(cfg),
                   "-o", str(tmp_path))
    assert code == 1
