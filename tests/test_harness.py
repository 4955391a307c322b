import dataclasses
import functools
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bicausal import (
    EmbeddingSpec,
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
from bicausal.errors import NumericalEscapeError, ValidationError
from bicausal import crossmap, harness, info, regress, simulate
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


# the published parameters that differ between systems and lengths:
# (m, egc L, egc delta, nlgc P, pi R, pi_m, ctir tau_max, si1 R, si2 R)
PUBLISHED = {
    ("lp", 10**4): (2, 20, 0.8, 10, 10, 1, 20, 10, 30),
    ("ulam", 10**3): (1, 100, 0.5, 50, 1, 1, 5, 20, 20),
    ("ulam", 10**5): (1, 100, 0.2, 50, 1, 1, 5, 20, 20),
    ("henon_uni", 10**3): (2, 100, 0.5, 50, 1, 2, 5, 20, 20),
    ("henon_uni", 10**4): (2, 100, 0.3, 50, 1, 2, 5, 20, 20),
    ("henon_uni", 10**5): (2, 100, 0.2, 100, 1, 2, 5, 20, 20),
    ("henon_bi_i", 10**4): (2, 100, 0.6, 10, 1, 2, 5, 20, 100),
    ("henon_bi_ni", 10**4): (2, 100, 0.6, 10, 1, 2, 5, 20, 100),
}


def _varying(ps) -> tuple:
    return (ps["m"], ps["egc"].L, ps["egc"].delta, ps["nlgc"].P, ps["pi"].R, ps["pi_m"],
            ps["ctir"].tau_max, ps["si1"].R, ps["si2"].R)


def test_presets_match_reference_table():
    assert {(s, T) for s, sim in harness.SIMULATION_TABLE.items()
            for T in sim.presets} == set(PUBLISHED)
    for (simulation, T), want in PUBLISHED.items():
        ps = index_presets(simulation, T)
        assert _varying(ps) == want, (simulation, T)
        # the parameters every system shares
        assert ps["egc"].seed == 0 and ps["nlgc"].var == 0.05 and ps["nlgc"].seed == 0
        assert ps["pi"].include_self is True and ps["te_hist"].N == 8
        assert ps["ete_hist"].n_shuffle == 10 and ps["te_ksg"].k == 4 and ps["ctir"].k == 4
        assert ps["ccm"].n_t == 40 and ps["ccm"].delta_rho == 0.05
    # an unlisted T takes the nearest published length on a log scale
    assert index_presets("henon_uni", 2 * 10**3)["egc"].delta == 0.5
    assert index_presets("henon_uni", 3162)["egc"].delta == 0.5
    assert index_presets("henon_uni", 3163)["egc"].delta == 0.3
    assert index_presets("ulam", 10**4 - 1)["egc"].delta == 0.5
    # ulam's 10^4 lies midway between 10^3 and 10^5, but in floating point
    # log(10^4 / 10^3) rounds above -log(10^4 / 10^5): it takes 10^5's delta
    assert index_presets("ulam", 10**4)["egc"].delta == 0.2
    assert _varying(index_presets("lp", 8)) == PUBLISHED["lp", 10**4]


def test_normalize_point_conventions():
    assert normalize_point("lp", 0.3) == (0.0, 0.3)
    assert normalize_point("ulam", 0.3) == (0.3, 0.0)
    assert normalize_point("henon_bi_i", (0.1, 0.2)) == (0.1, 0.2)
    with pytest.raises(ValidationError):
        normalize_point("ulam", 1.2)
    with pytest.raises(ValidationError):
        normalize_point("henon_bi_i", (0.5, 0.0))
    # a pair holds exactly two couplings; a third was once dropped unchecked
    for entry in ((0.1,), [0.2], (0.0, 0.2, 9.0)):
        with pytest.raises(ValidationError, match="holds two values"):
            normalize_point("lp", entry)
    with pytest.raises(ValidationError, match="holds two values"):
        SweepConfig("lp", couplings=[(0.0, 0.2, 9.0)])


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


@functools.lru_cache(maxsize=None)
def _pair_at_half_range(simulation: str) -> SeriesPair:
    sim = harness.SIMULATION_TABLE[simulation]
    point = normalize_point(simulation, (sim.hi / 2,) * 2 if len(sim.axes) == 2 else sim.hi / 2)
    return harness.simulate_pair(simulation, point, 200, 0)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(simulation=st.sampled_from(sorted(harness.SIMULATION_TABLE)),
       exponent=st.integers(-300, 300), values=st.sampled_from(("raw", "rounded", "constant")),
       T=st.sampled_from((8, 30, 200)), missing=st.sampled_from((0.0, 0.5, 0.9)))
# squared distances overflow from about 1e154 on: these used to raise
# IndexError (pi, si1, si2, ccm) and ValueError (nlgc's k-means)
@example(simulation="lp", exponent=200, values="raw", T=200, missing=0.0)
@example(simulation="ulam", exponent=155, values="raw", T=200, missing=0.0)
@example(simulation="henon_bi_ni", exponent=300, values="rounded", T=200, missing=0.5)
def test_extreme_inputs_give_ok_or_degenerate_estimates(simulation, exponent, values, T,
                                                         missing):
    # scale 10^exponent, few distinct values (rounded before scaling) or a
    # constant x, short series and heavy missingness: every index comes
    # back ok or degenerate, and nothing raises
    pair = _pair_at_half_range(simulation)
    x, y = pair.x[:T].copy(), pair.y[:T].copy()
    if values == "rounded":
        x, y = np.round(x), np.round(y)
    elif values == "constant":
        x[:] = 1.0
    gone = np.random.default_rng(0).random((2, T)) < missing
    x[gone[0]], y[gone[1]] = np.nan, np.nan
    scaled = SeriesPair(x * 10.0**exponent, y * 10.0**exponent)
    with warnings.catch_warnings():
        # overflowed or underflowed arithmetic on the way to a degenerate fit
        warnings.simplefilter("ignore", RuntimeWarning)
        estimates = harness.compute_indices(scaled, simulation, T)
    assert [e.index for e in estimates] == list(harness.INDEX_NAMES)
    assert {e.status for e in estimates} <= {"ok", "degenerate"}


def test_corr_matrix_properties(small_ulam_sweep):
    names, mat = corr_matrix(small_ulam_sweep, "pearson", "d")
    assert names == ["te_hist", "ete_hist"]
    assert np.allclose(np.diag(mat), 1.0)
    assert mat[0, 1] == pytest.approx(mat[1, 0])
    # the shuffle correction tracks the raw histogram estimate very closely
    assert mat[0, 1] > 0.95
    names2, spear = corr_matrix(small_ulam_sweep, "spearman", "xy")
    assert spear[0, 1] <= 1.0


def test_corr_matrix_monotone_transform():
    records = []
    rng = np.random.default_rng(0)
    vals = rng.normal(size=12)
    for i, v in enumerate(vals):
        for name, value in (("te_hist", v), ("te_ksg", float(np.exp(v)))):
            records.append(Record("lp", 0.0, round(0.05 * i, 2), 0, name, "xy", value, 0.0, "ok"))
            records.append(Record("lp", 0.0, round(0.05 * i, 2), 0, name, "yx", 0.0, 0.0, "ok"))
    res = SweepResult("lp", records)
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
    res = SweepResult("lp", records)
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
    # neighbour-based estimators. Each index's time is its minimum over three
    # identical sweeps in this process, so one slow run of a ~10 ms index
    # (what ran before it, the scheduler) does not decide the ranking.
    # ete_hist (about 0.06 s on this lp-1e4 unit) is compared with ccm and
    # ctir, which cost several times more (about 0.2 s and 1.8 s). pi costs
    # only 1.0-1.5 times as much, a margin that a virtual machine's speed
    # drift of 10-25 % between runs can close
    cfg = SweepConfig(simulation="lp", couplings=(0.5,), T=10_000, runs=1,
                      base_seed=0)
    tables = [timing_table(run_sweep(cfg)) for _ in range(3)]
    table = {k: min(t[k][0] for t in tables) for k in tables[0]}
    others = {k: v for k, v in table.items() if k not in ("te_hist", "ete_hist")}
    assert table["te_hist"] <= min(others.values()), tables
    assert table["ete_hist"] < min(table["ccm"], table["ctir"]), tables


def test_sweep_csv_roundtrip(tmp_path, small_ulam_sweep):
    path = tmp_path / "sweep.csv"
    sweep_to_csv(small_ulam_sweep, path)
    back = sweep_from_csv(path)
    assert back.records == small_ulam_sweep.records
    header = path.read_text().splitlines()[0]
    assert header == "simulation,lambda_xy,lambda_yx,run,index,direction,value,elapsed_seconds,status"


def test_csv_na_token(tmp_path):
    res = SweepResult("lp", [
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
    assert set(payload["versions"]) == {"bicausal", "python", "numpy", "scipy"}
    assert payload["versions"]["numpy"] == np.__version__
    assert payload["cpus"] == harness._usable_cpus()
    # T = 100 is below the helper threads' cut-off whatever the cores
    assert payload["helper_threads"] is False
    assert "directions_concurrent" not in payload
    assert (tmp_path / "m.json").exists()


def test_manifest_directions_concurrent_follows_sweep_processes(tmp_path, monkeypatch):
    # the manifest records the decision every unit of the sweep takes: two
    # units on two workers are two processes, so helper threads from 4 cores
    # at a T from the cut-off, and never below it
    cut = harness.HELPER_THREADS_MIN_T
    cfg = SweepConfig(simulation="ulam", couplings=(0.2, 0.3), T=cut, runs=1,
                      indices=("te_hist",), workers=2)
    for cpus, T, split in ((3, cut, False), (4, cut, True), (4, cut - 1, False)):
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        payload = write_manifest(tmp_path / "m.json", dataclasses.replace(cfg, T=T))
        assert (payload["cpus"], payload["helper_threads"]) == (cpus, split)
        assert split == harness.helper_threads(T, processes=2)


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


def test_empty_index_list_or_grid_is_validation_error():
    # an empty grid used to run and return no records, and an empty index
    # list to simulate every unit for a header-only sweep.csv
    with pytest.raises(ValidationError, match="no indices requested"):
        harness.check_index_names([])
    with pytest.raises(ValidationError, match="no indices requested"):
        SweepConfig(simulation="ulam", indices=())
    with pytest.raises(ValidationError, match="coupling grid is empty"):
        SweepConfig(simulation="ulam", couplings=())


# each used to raise a TypeError or numpy's or math's ValueError (a negative
# seed, at the first generator), or to be accepted (T=True simulated one
# sample, decimals=1.5 rounded)
@pytest.mark.parametrize("make", [
    lambda: SweepConfig(simulation="lp", runs=2.5),
    lambda: SweepConfig(simulation="lp", workers=1.5),
    lambda: SweepConfig(simulation="lp", base_seed=-1),
    lambda: SweepConfig(simulation="lp", base_seed=0.5),
    lambda: SweepConfig(simulation="lp", T=True),
    lambda: SweepConfig(simulation="lp", T=0),
    lambda: harness.compute_indices(SeriesPair(np.arange(50.0), np.arange(50.0)), "ulam", 0),
    lambda: index_presets("lp", 1000.0),
    lambda: PerturbationSpec(kind="round", decimals=1.5),
    lambda: PerturbationSpec(kind="round", decimals=-1),
    lambda: PerturbationSpec(kind="noise", seed=-1),
    lambda: EmbeddingSpec(m=True),
    lambda: EmbeddingSpec(m=2, tau=1.0),
    lambda: LpParams(lam=0.1, T=True),
    lambda: LpParams(lam=0.1, T=10.0),
    lambda: LpParams(lam=0.1, T=10, seed=-1),
], ids=["runs-float", "workers-float", "base_seed-negative", "base_seed-float", "T-bool",
        "T-zero", "compute_indices-T-zero", "presets-T-float", "decimals-float", "decimals-negative", "perturb-seed-negative",
        "m-bool", "tau-float", "sim-T-bool", "sim-T-float", "sim-seed-negative"])
def test_integer_inputs_raise_validation_error(make):
    with pytest.raises(ValidationError, match="must be an integer >="):
        make()


def test_integer_inputs_accept_numpy_integers():
    cfg = SweepConfig(simulation="lp", T=np.int64(100), runs=np.int32(2),
                      base_seed=np.int64(0), workers=np.int64(1))
    assert (cfg.T, cfg.runs, cfg.base_seed, cfg.workers) == (100, 2, 0, 1)
    assert PerturbationSpec(kind="round", decimals=np.int64(0)).decimals == 0
    assert EmbeddingSpec(m=np.int64(2)).window == 1


def _same_records(a: SweepResult, b: SweepResult) -> bool:
    """Records equal in everything but elapsed time; NaN equals NaN."""
    def key(r):
        return (r.simulation, r.lambda_xy, r.lambda_yx, r.run, r.index,
                r.direction, r.status)
    return len(a.records) == len(b.records) and all(
        key(ra) == key(rb) and (ra.value == rb.value or
                                (np.isnan(ra.value) and np.isnan(rb.value)))
        for ra, rb in zip(a.records, b.records))


@pytest.mark.parametrize("simulation, couplings, T, extra", [
    ("ulam", (0.18, 0.3, 0.5), 300, {}),
    ("ulam", (0.1, 0.4, 0.7), 300,
     {"perturbation": PerturbationSpec(kind="round", decimals=1)}),
    ("ulam", (0.1, 0.4, 0.7), 300,
     {"perturbation": PerturbationSpec(kind="missing", fraction=0.1, seed=2)}),
    ("lp", (0.0, 0.3, 0.6), 500, {}),
    ("henon_uni", (0.0, 0.3, 0.6), 500, {}),
    ("henon_bi_i", ((0.0, 0.1), (0.2, 0.0), (0.3, 0.3)), 400, {}),
    ("henon_bi_ni", ((0.0, 0.1), (0.2, 0.0), (0.3, 0.3)), 400,
     {"perturbation": PerturbationSpec(kind="round", decimals=1)}),
])
def test_sweep_chunked_workers_match_serial(simulation, couplings, T, extra):
    # each worker simulates its strided chunk of units as one batch; the
    # records must not depend on how units are split between workers
    cfg = SweepConfig(simulation=simulation, couplings=couplings, T=T, runs=2,
                      indices=("egc", "te_hist", "si1"), base_seed=0, **extra)
    serial = run_sweep(cfg)
    assert _same_records(serial, run_sweep(dataclasses.replace(cfg, workers=2)))


@pytest.mark.parametrize("cpus, processes, concurrent", [
    (1, 1, False), (2, 1, True), (2, 2, False), (3, 2, False), (4, 2, True), (8, 3, True),
])
def test_worker_initializer_rule(monkeypatch, cpus, processes, concurrent):
    # the rule each unit of a sweep worker applies, one of `processes`: at and
    # above the cut-off, helper threads when every process has two cores;
    # below it, never
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    cut = harness.HELPER_THREADS_MIN_T
    assert harness.helper_threads(cut, processes) is concurrent
    assert harness.helper_threads(10 * cut, processes) is concurrent
    assert harness.helper_threads(cut - 1, processes) is False


def test_usable_cpus_without_affinity(monkeypatch):
    monkeypatch.delattr(harness.os, "sched_getaffinity")
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    assert harness._usable_cpus() == 3
    assert harness.helper_threads(harness.HELPER_THREADS_MIN_T) is True


def test_sweep_workers_fork_after_direction_threads(monkeypatch):
    # helper threads started in this process before the pool forks its
    # workers must not leave the workers anything to wait on
    monkeypatch.setattr(harness, "helper_threads", lambda T, processes=1: True)
    pair = simulate.sim_ulam(simulate.UlamParams(lam=0.3, T=300, seed=0))
    harness.compute_indices(pair, "ulam", 300, ("te_ksg", "ctir", "si1"))
    cfg = SweepConfig(simulation="ulam", couplings=(0.18, 0.3, 0.5), T=300, runs=2,
                      indices=("te_ksg", "ctir", "te_hist", "si1"), base_seed=0)
    pooled = run_sweep(dataclasses.replace(cfg, workers=2))
    monkeypatch.setattr(harness, "helper_threads", lambda T, processes=1: False)
    assert _same_records(run_sweep(cfg), pooled)


# ---------------------------------------------------------------------------
# the helper-thread path against the one-thread path


def _force_helper_threads(monkeypatch, split: bool):
    monkeypatch.setattr(harness, "helper_threads", lambda T, processes=1: split)


def _same_estimates(a: list, b: list) -> bool:
    """Estimates equal in index, values and status; NaN equals NaN."""
    def same(u, v):
        return u == v or (np.isnan(u) and np.isnan(v))
    return len(a) == len(b) and all(
        (ea.index, ea.status) == (eb.index, eb.status) and same(ea.value_xy, eb.value_xy)
        and same(ea.value_yx, eb.value_yx) for ea, eb in zip(a, b))


_LANE_CASES = {
    "raw": None,
    "round0": PerturbationSpec(kind="round", decimals=0),
    "missing10": PerturbationSpec(kind="missing", fraction=0.1, seed=4),
}


@pytest.mark.parametrize("perturbation", list(_LANE_CASES))
@pytest.mark.parametrize("simulation,point", [("lp", 0.3), ("henon_uni", 0.4)])
def test_helper_threads_records_equal_one_thread(monkeypatch, simulation, point,
                                                 perturbation):
    # all ten indices on a unit at the cut-off length, with the decision
    # forced each way: the records, NaNs and statuses included, are equal
    cfg = SweepConfig(simulation=simulation, couplings=(point,),
                      T=harness.HELPER_THREADS_MIN_T, runs=1, base_seed=3,
                      perturbation=_LANE_CASES[perturbation])
    got = []
    for split in (False, True):
        _force_helper_threads(monkeypatch, split)
        got.append(run_sweep(cfg))
    assert len(got[0].records) == 2 * len(harness.INDEX_NAMES)
    assert _same_records(*got)


def test_helper_threads_run_the_graph_readers_in_one_lane(monkeypatch):
    # forced on, the graph readers run on one helper thread and the other
    # indices on the calling thread; forced off, everything on the calling one
    pair = simulate.sim_lp(LpParams(lam=0.3, T=600, seed=0))
    threads = {}
    for module, name in ((regress, "egc"), (regress, "nlgc"), (regress, "pi"),
                         (info, "te_hist"), (info, "ete_hist"), (info, "te_ksg"),
                         (info, "ctir"), (crossmap, "si_pair"), (crossmap, "ccm")):
        def recorded(*args, _fn=getattr(module, name), _name=name, **kwargs):
            threads.setdefault(_name, set()).add(threading.get_ident())
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, recorded)
    main = threading.get_ident()
    for split in (False, True):
        threads.clear()
        _force_helper_threads(monkeypatch, split)
        harness.compute_indices(pair, "lp", 600)
        readers = threads.pop("pi") | threads.pop("si_pair") | threads.pop("ccm")
        assert set().union(*threads.values()) == {main}
        assert (readers == {main}) is not split and len(readers) == 1


def test_a_unit_starts_at_most_one_thread(monkeypatch):
    # all ten indices on lp at the cut-off length: forced on, the unit starts
    # its one helper thread, which runs the graph readers and then draws k-NN
    # terms of ctir; forced off, it starts none. While the estimators run, at
    # most one thread more than before the call is alive
    pair = simulate.sim_lp(LpParams(lam=0.3, T=harness.HELPER_THREADS_MIN_T, seed=0))
    starts, alive = [], []

    def counted(self, _start=threading.Thread.start):
        starts.append(self.name)
        return _start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    for module, name in ((regress, "egc"), (regress, "nlgc"), (regress, "pi"),
                         (info, "te_hist"), (info, "ete_hist"), (info, "_cmi_ksg_impl"),
                         (crossmap, "si_pair"), (crossmap, "ccm")):
        def sampled(*args, _fn=getattr(module, name), **kwargs):
            alive.append(threading.active_count())
            try:
                return _fn(*args, **kwargs)
            finally:
                alive.append(threading.active_count())
        monkeypatch.setattr(module, name, sampled)
    before = threading.active_count()
    for split in (False, True):
        starts.clear()
        alive.clear()
        _force_helper_threads(monkeypatch, split)
        estimates = harness.compute_indices(pair, "lp", pair.T)
        assert [est.status for est in estimates] == ["ok"] * len(harness.INDEX_NAMES)
        assert len(starts) == split
        # ctir's 2 x 20 KSG terms, which te_ksg reads, and the other
        # estimators among the samples
        assert len(alive) >= 2 * (2 * 20 + 2) and max(alive) <= before + split
        assert threading.active_count() == before


def test_helper_threads_failed_dimension_equal_one_thread(monkeypatch):
    # x missing at t = 2 mod 3: every m=1 row survives somewhere, no m=2 row
    # does. The lp presets read m=1 for pi and te_*, m=2 for egc, nlgc, si1,
    # si2 and ccm: m=2's readers on both lanes are degenerate, in both paths,
    # and the failed dimension is embedded once
    pair = simulate.sim_lp(LpParams(lam=0.3, T=harness.HELPER_THREADS_MIN_T, seed=0))
    x = pair.x.copy()
    x[2::3] = np.nan
    pair = SeriesPair(x, pair.y)
    calls = []

    def counted(pair, spec, _fn=harness.embed):
        calls.append(spec.m)
        return _fn(pair, spec)

    monkeypatch.setattr(harness, "embed", counted)
    got = []
    for split in (False, True):
        calls.clear()
        _force_helper_threads(monkeypatch, split)
        got.append(harness.compute_indices(pair, "lp", pair.T))
        assert sorted(calls) == [1, 2]
    assert _same_estimates(*got)
    assert [est.index for est in got[0] if est.status == "ok"] == [
        "pi", "te_hist", "ete_hist", "te_ksg", "ctir"]


def test_helper_threads_under_fast_thread_switching(monkeypatch):
    # the lanes share the unit's estimates dict (one key per index) and its
    # delay matrices, whose k-NN terms both threads fill, and ctir queues its
    # drawing behind the graph readers on the one helper thread: with the
    # interpreter switching threads every microsecond, every estimate still
    # equals the one-thread path's
    pair = simulate.sim_ulam(simulate.UlamParams(lam=0.4, T=300, seed=0))
    _force_helper_threads(monkeypatch, False)
    want = harness.compute_indices(pair, "ulam", 300)
    _force_helper_threads(monkeypatch, True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert _same_estimates(harness.compute_indices(pair, "ulam", 300), want)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("lane", ["helper", "calling"])
def test_helper_threads_error_propagates_after_the_join(monkeypatch, lane):
    # a non-BicausalError in either lane reaches the caller unchanged, and
    # only after the helper thread is joined: no thread is left behind
    failing = (crossmap, "ccm") if lane == "helper" else (info, "te_hist")

    def broken(*args, **kwargs):
        raise RuntimeError("estimator bug")

    monkeypatch.setattr(*failing, broken)
    _force_helper_threads(monkeypatch, True)
    pair = simulate.sim_lp(LpParams(lam=0.3, T=600, seed=0))
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="estimator bug"):
        harness.compute_indices(pair, "lp", 600)
    assert threading.active_count() == threads


def test_sweep_units_match_direct_simulation():
    # each batched unit gets its own coupling and seed: its records equal the
    # indices of the pair sim_ulam gives for that unit alone
    cfg = SweepConfig(simulation="ulam", couplings=(0.1, 0.4), T=300, runs=2,
                      indices=("te_hist", "si1"), base_seed=5)
    res = run_sweep(cfg)
    for (lxy, _), run in [(pt, run) for pt in cfg.couplings for run in range(2)]:
        pair = simulate.sim_ulam(simulate.UlamParams(lam=lxy, T=300, seed=5 + run))
        for est in harness.compute_indices(pair, "ulam", 300, cfg.indices):
            got = {r.direction: r for r in res.records
                   if (r.lambda_xy, r.run, r.index) == (lxy, run, est.index)}
            assert got["xy"].value == est.value_xy and got["yx"].value == est.value_yx
            assert got["xy"].status == est.status


def test_sweep_escaped_simulation_is_degenerate(monkeypatch):
    cfg = SweepConfig(simulation="ulam", couplings=(0.0, 0.3), T=300, runs=2,
                      indices=("te_hist", "si1"), base_seed=0)
    clean = run_sweep(cfg)
    # just below the attractor's edge at 2: the lam=0 rings reach the
    # threshold at a check, the lam=0.3 rings do not
    monkeypatch.setattr(simulate, "ESCAPE_THRESHOLD", 2.0 - 1e-6)
    res = run_sweep(cfg)
    escaped = [r for r in res.records if r.lambda_xy == 0.0]
    assert len(escaped) == 8
    assert all(r.status == "degenerate" and np.isnan(r.value) for r in escaped)
    kept = SweepResult("ulam", [r for r in res.records if r.lambda_xy == 0.3])
    assert _same_records(
        kept, SweepResult("ulam", [r for r in clean.records if r.lambda_xy == 0.3]))
    assert all(r.status == "ok" for r in kept.records)


def test_sweep_escaped_henon_is_degenerate(monkeypatch):
    # a Henon orbit leaves (-1, 1) at once, so every restart escapes
    monkeypatch.setattr(simulate, "ESCAPE_THRESHOLD", 1.0)
    res = run_sweep(SweepConfig(simulation="henon_uni", couplings=(0.2,), T=200,
                                runs=1, indices=("te_hist",)))
    assert [r.status for r in res.records] == ["degenerate", "degenerate"]
    assert all(np.isnan(r.value) for r in res.records)


# the simulator call each system made before the simulation table, at a point
DIRECT_CALLS = {
    "lp": lambda pt, T, seed: simulate.sim_lp(simulate.LpParams(lam=pt[1], T=T, seed=seed)),
    "ulam": lambda pt, T, seed: simulate.sim_ulam(
        simulate.UlamParams(lam=pt[0], T=T, seed=seed)),
    "henon_uni": lambda pt, T, seed: simulate.sim_henon_uni(
        simulate.HenonUniParams(lam=pt[0], T=T, seed=seed)),
    "henon_bi_i": lambda pt, T, seed: simulate.sim_henon_bi(
        simulate.HenonBiParams(lam_xy=pt[0], lam_yx=pt[1], T=T, seed=seed)),
    "henon_bi_ni": lambda pt, T, seed: simulate.sim_henon_bi(
        simulate.HenonBiParams(lam_xy=pt[0], lam_yx=pt[1], T=T, seed=seed, b_y=0.1)),
}


def _same_pair(a, b) -> bool:
    return all(np.array_equal(getattr(a, f), getattr(b, f), equal_nan=f in ("x", "y"))
               for f in ("x", "y", "x_missing", "y_missing"))


@pytest.mark.parametrize("simulation", sorted(DIRECT_CALLS))
def test_simulate_pair_matches_direct_call(simulation):
    # lp reads lambda_yx and the henon_bi points are asymmetric, so a table
    # entry reading the wrong coupling (or henon_bi_ni without b_y = 0.1) fails
    assert set(DIRECT_CALLS) == set(harness.SIMULATION_TABLE)
    point = normalize_point(simulation, (0.1, 0.3) if simulation.startswith("henon_bi")
                            else 0.3)
    for seed in (0, 4):
        assert _same_pair(harness.simulate_pair(simulation, point, 200, seed),
                          DIRECT_CALLS[simulation](point, 200, seed))


def test_simulate_units_match_unit_by_unit(monkeypatch):
    units = [((0.3, 0.0), 0), ((0.0, 0.0), 5), ((0.6, 0.0), 1), ((0.3, 0.0), 7)]
    # the simulator is looked up on `simulate` at call time: seed 7 escapes
    real = simulate.sim_henon_uni

    def escaping(p):
        if p.seed == 7:
            raise NumericalEscapeError("escaped")
        return real(p)

    monkeypatch.setattr(simulate, "sim_henon_uni", escaping)
    pairs = harness.simulate_units("henon_uni", units, 150)
    assert pairs[3] is None
    for (point, seed), pair in zip(units[:3], pairs):
        assert _same_pair(pair, DIRECT_CALLS["henon_uni"](point, 150, seed))
    with pytest.raises(NumericalEscapeError):
        harness.simulate_pair("henon_uni", (0.3, 0.0), 150, 7)


def test_simulate_units_batch_ulam(monkeypatch):
    # one batch with mixed points and seeds; rings at lambda = 0 reach the
    # lowered threshold at a check and come back as None
    units = [((0.3, 0.0), 0), ((0.0, 0.0), 0), ((0.5, 0.0), 1), ((0.3, 0.0), 1)]
    clean = harness.simulate_units("ulam", units, 120)
    for (point, seed), pair in zip(units, clean):
        assert _same_pair(pair, DIRECT_CALLS["ulam"](point, 120, seed))
    monkeypatch.setattr(simulate, "ESCAPE_THRESHOLD", 2.0 - 1e-6)
    pairs = harness.simulate_units("ulam", units, 120)
    assert pairs[1] is None
    assert all(_same_pair(a, b) for i, (a, b) in enumerate(zip(pairs, clean)) if i != 1)


def test_unknown_simulation_is_validation_error():
    for call in (lambda: harness.simulate_pair("lorenz", (0.1, 0.0), 10, 0),
                 lambda: normalize_point("lorenz", 0.1),
                 lambda: desk_grid("lorenz"),
                 lambda: index_presets("lorenz", 100)):
        with pytest.raises(ValidationError, match="unknown simulation"):
            call()
