import numpy as np
import pytest

from bicausal import (
    LpParams,
    PerturbationSpec,
    SeriesPair,
    SweepConfig,
    corr_matrix,
    run_sweep,
    sim_lp,
    summarize_fg,
    timing_table,
)
from bicausal.core import STATUS_SKIPPED_SYNCHRONY
from bicausal.errors import ValidationError
from bicausal import harness
from bicausal.harness import (
    Record,
    SweepResult,
    desk_grid,
    index_presets,
    normalize_point,
    pair_from_csv,
    pair_to_csv,
    sweep_from_csv,
    sweep_to_csv,
    write_manifest,
)


@pytest.fixture(scope="module")
def small_ulam_sweep():
    cfg = SweepConfig(simulation="ulam", couplings=(0.3, 0.4, 0.5, 0.6), T=1000,
                      runs=2, indices=("te_hist", "ete_hist"), base_seed=0)
    return run_sweep(cfg)


def test_presets_match_reference_table():
    lp = index_presets("lp", 10**4)
    assert lp["m"] == 2 and lp["egc"].L == 20 and lp["egc"].delta == 0.8
    assert lp["nlgc"].P == 10 and lp["pi"].R == 10 and lp["pi_m"] == 1
    assert lp["ctir"].tau_max == 20
    assert lp["si1"].R == 10 and lp["si2"].R == 30

    ul = index_presets("ulam", 10**3)
    assert ul["m"] == 1 and ul["egc"].delta == 0.5 and ul["nlgc"].P == 50
    assert ul["pi"].R == 1 and ul["ctir"].tau_max == 5
    assert ul["si1"].R == 20 and ul["si2"].R == 20
    assert index_presets("ulam", 10**5)["egc"].delta == 0.2

    hu = index_presets("henon_uni", 10**4)
    assert hu["m"] == 2 and hu["egc"].delta == 0.3
    assert index_presets("henon_uni", 10**5)["nlgc"].P == 100

    hb = index_presets("henon_bi_i", 10**4)
    assert hb["egc"].delta == 0.6 and hb["nlgc"].P == 10 and hb["si2"].R == 100
    # unlisted T falls back to the nearest listed size
    assert index_presets("henon_uni", 2 * 10**3)["egc"].delta == 0.5


def test_normalize_point_conventions():
    assert normalize_point("lp", 0.3) == (0.0, 0.3)
    assert normalize_point("ulam", 0.3) == (0.3, 0.0)
    assert normalize_point("henon_bi_i", (0.1, 0.2)) == (0.1, 0.2)
    with pytest.raises(ValidationError):
        normalize_point("ulam", 1.2)
    with pytest.raises(ValidationError):
        normalize_point("henon_bi_i", (0.5, 0.0))


def test_desk_grid_shapes():
    assert desk_grid("ulam")[:3] == [0.0, 0.05, 0.1]
    assert len(desk_grid("ulam")) == 21
    hb = desk_grid("henon_bi_i")
    assert len(hb) == 81 and hb[0] == (0.0, 0.0)


def test_record_counting():
    cfg = SweepConfig(simulation="lp", couplings=(0.0, 0.5), T=300, runs=2,
                      indices=("te_hist",), base_seed=1)
    res = run_sweep(cfg)
    assert len(res.records) == 2 * 2 * 1 * 2
    points = res.grid_points()
    assert points == [(0.0, 0.0), (0.0, 0.5)]


def test_sweep_determinism_modulo_timing(small_ulam_sweep):
    cfg = SweepConfig(simulation="ulam", couplings=(0.3, 0.4, 0.5, 0.6), T=1000,
                      runs=2, indices=("te_hist", "ete_hist"), base_seed=0)
    again = run_sweep(cfg)
    for a, b in zip(small_ulam_sweep.records, again.records):
        assert (a.simulation, a.lambda_xy, a.lambda_yx, a.run, a.index,
                a.direction, a.status) == \
               (b.simulation, b.lambda_xy, b.lambda_yx, b.run, b.index,
                b.direction, b.status)
        assert a.value == b.value or (np.isnan(a.value) and np.isnan(b.value))


def test_sweep_degenerate_never_aborts():
    # 90% missingness leaves (almost) no complete embedding rows; the sweep
    # must record flagged estimates instead of raising
    cfg = SweepConfig(simulation="lp", couplings=(0.0,), T=60, runs=1,
                      indices=("te_hist", "te_ksg"), base_seed=0,
                      perturbation=PerturbationSpec(kind="missing", fraction=0.9))
    res = run_sweep(cfg)
    assert len(res.records) == 4
    assert all(np.isfinite(r.value) or r.status != "ok" for r in res.records)
    assert any(r.status == "degenerate" for r in res.records)


def test_skip_synchrony_flag():
    cfg = SweepConfig(simulation="ulam", couplings=(0.18, 0.3), T=500, runs=1,
                      indices=("te_hist",), skip_synchrony=True)
    res = run_sweep(cfg)
    skipped = [r for r in res.records if r.lambda_xy == 0.18]
    assert all(r.status == STATUS_SKIPPED_SYNCHRONY for r in skipped)
    assert all(np.isnan(r.value) for r in skipped)
    normal = [r for r in res.records if r.lambda_xy == 0.3]
    assert all(r.status == "ok" for r in normal)


def test_data_size_perturbation_resimulates():
    base = SweepConfig(simulation="lp", couplings=(0.5,), T=400, runs=1,
                       indices=("te_hist",))
    bigger = SweepConfig(simulation="lp", couplings=(0.5,), T=400, runs=1,
                         indices=("te_hist",),
                         perturbation=PerturbationSpec(kind="data_size", data_size=900))
    res = run_sweep(bigger)
    assert res.T == 900
    assert run_sweep(base).T == 400


def test_corr_matrix_properties(small_ulam_sweep):
    names, mat = corr_matrix(small_ulam_sweep, "pearson", "d")
    assert names == ["te_hist", "ete_hist"]
    assert np.allclose(np.diag(mat), 1.0)
    assert mat[0, 1] == pytest.approx(mat[1, 0])
    # the shuffle correction tracks the raw histogram estimate very closely
    assert mat[0, 1] > 0.95
    names2, spear = corr_matrix(small_ulam_sweep, "spearman", "value", "xy")
    assert spear[0, 1] <= 1.0


def test_corr_matrix_monotone_transform():
    records = []
    rng = np.random.default_rng(0)
    vals = rng.normal(size=12)
    for i, v in enumerate(vals):
        for name, value in (("te_hist", v), ("te_ksg", float(np.exp(v)))):
            records.append(Record("lp", 0.0, round(0.05 * i, 2), 0, name, "xy", value, 0.0, "ok"))
            records.append(Record("lp", 0.0, round(0.05 * i, 2), 0, name, "yx", 0.0, 0.0, "ok"))
    res = SweepResult("lp", 100, 1, records)
    _, spear = corr_matrix(res, "spearman", "d")
    _, pear = corr_matrix(res, "pearson", "d")
    assert spear[0, 1] == pytest.approx(1.0)
    assert pear[0, 1] < 1.0


def test_corr_matrix_constant_column_is_nan():
    records = []
    for i in range(5):
        for name, value in (("te_hist", 1.0), ("te_ksg", float(i))):
            records.append(Record("lp", 0.0, 0.1 * i, 0, name, "xy", value, 0.0, "ok"))
            records.append(Record("lp", 0.0, 0.1 * i, 0, name, "yx", 0.0, 0.0, "ok"))
    res = SweepResult("lp", 100, 1, records)
    names, mat = corr_matrix(res, "pearson", "d")
    i = names.index("te_hist")
    assert np.isnan(mat[i][1 - i])


def test_timing_table_sums_directions(small_ulam_sweep):
    table = timing_table(small_ulam_sweep)
    assert set(table) == {"te_hist", "ete_hist"}
    for mean, std in table.values():
        assert mean >= 0 and std >= 0


def test_histogram_estimator_is_fastest():
    # rank property of the emitted timing table: the histogram TE is the
    # cheapest index on the linear process, and the shuffle-corrected variant
    # (which recomputes TE per shuffle) stays far below the expensive
    # neighbour-based estimators
    cfg = SweepConfig(simulation="lp", couplings=(0.5,), T=10_000, runs=1,
                      base_seed=0)
    table = timing_table(run_sweep(cfg))
    others = {k: v[0] for k, v in table.items() if k not in ("te_hist", "ete_hist")}
    assert table["te_hist"][0] <= min(others.values()), table
    slow_family = min(table[k][0] for k in ("pi", "te_ksg", "ctir", "si1", "si2", "ccm"))
    assert table["ete_hist"][0] < slow_family, table


def test_sweep_csv_roundtrip(tmp_path, small_ulam_sweep):
    path = tmp_path / "sweep.csv"
    sweep_to_csv(small_ulam_sweep, path)
    back = sweep_from_csv(path)
    assert back.records == small_ulam_sweep.records
    header = path.read_text().splitlines()[0]
    assert header == "simulation,lambda_xy,lambda_yx,run,index,direction,value,elapsed_seconds,status"


def test_csv_na_token(tmp_path):
    res = SweepResult("lp", 10, 1, [
        Record("lp", 0.0, 0.0, 0, "egc", "xy", float("nan"), 0.0, "degenerate")])
    path = tmp_path / "na.csv"
    sweep_to_csv(res, path)
    assert ",NA," in path.read_text()
    assert np.isnan(sweep_from_csv(path).records[0].value)


def test_pair_csv_roundtrip(tmp_path):
    x = np.array([1.0, np.nan, 3.0])
    pair = SeriesPair(x, [4.0, 5.0, 6.0])
    path = tmp_path / "pair.csv"
    pair_to_csv(pair, path)
    back = pair_from_csv(path)
    assert back.x_missing.tolist() == [False, True, False]
    assert np.array_equal(back.y, pair.y)


def test_manifest_contents(tmp_path):
    cfg = SweepConfig(simulation="ulam", couplings=(0.2,), T=100, runs=1,
                      indices=("te_hist",), base_seed=7)
    payload = write_manifest(tmp_path / "m.json", cfg, {"note": "test"})
    assert payload["prng"] == "PCG64"
    assert payload["base_seed"] == 7
    assert payload["presets_version"] == harness.PRESETS_VERSION
    assert (tmp_path / "m.json").exists()


def test_fg_pipeline_te_hist_standardize():
    # standardisation leaves the histogram TE bit-identical: f=0, g=1
    couplings = (0.3, 0.5)
    base = run_sweep(SweepConfig(simulation="ulam", couplings=couplings, T=1000,
                                 runs=2, indices=("te_hist",), base_seed=0))
    pert = run_sweep(SweepConfig(simulation="ulam", couplings=couplings, T=1000,
                                 runs=2, indices=("te_hist",), base_seed=0,
                                 perturbation=PerturbationSpec(kind="standardize")))
    summary = summarize_fg(base, pert)
    fg = summary.stats["te_hist"]
    assert fg.f == 0.0
    assert fg.g == 1.0


def test_config_validation():
    with pytest.raises(ValidationError):
        SweepConfig(simulation="lorenz")
    with pytest.raises(ValidationError):
        SweepConfig(simulation="lp", runs=0)
    with pytest.raises(ValidationError):
        SweepConfig(simulation="lp", indices=("bogus",))
    with pytest.raises(ValidationError):
        SweepConfig(simulation="lp", indices=("te_hist", "te_hist"))
