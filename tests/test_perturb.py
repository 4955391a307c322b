import warnings

import numpy as np
import pytest

from bicausal import PerturbationSpec, SeriesPair, apply_perturbation, standardize
from bicausal.errors import UndefinedStatisticError, ValidationError
from bicausal.harness import SIMULATION_TABLE, Record, SweepResult
from bicausal.perturb import ULAM_SYNC_WINDOWS, _round_half_away, summarize_fg


def make_pair(T=100, seed=0):
    rng = np.random.default_rng(seed)
    return SeriesPair(rng.normal(size=T), rng.normal(size=T))


def test_round_half_away_from_zero():
    assert _round_half_away(np.array([0.25]), 1)[0] == pytest.approx(0.3)
    assert _round_half_away(np.array([-0.25]), 1)[0] == pytest.approx(-0.3)
    assert _round_half_away(np.array([0.349]), 2)[0] == pytest.approx(0.35)
    assert _round_half_away(np.array([0.0]), 1)[0] == 0.0


def test_round_perturbation():
    pair = make_pair()
    out = apply_perturbation(pair, PerturbationSpec(kind="round", decimals=1, target="x"))
    assert np.allclose(out.x * 10, np.round(out.x * 10))
    assert np.array_equal(out.y, pair.y)


def test_scale_targets_one_series():
    pair = make_pair()
    out = apply_perturbation(pair, PerturbationSpec(kind="scale", factor=10.0, target="x"))
    assert np.allclose(out.x, 10 * pair.x)
    assert np.array_equal(out.y, pair.y)


def test_standardize_kind():
    pair = make_pair()
    out = apply_perturbation(pair, PerturbationSpec(kind="standardize"))
    want = standardize(pair)
    assert np.allclose(out.x, want.x) and np.allclose(out.y, want.y)


def test_missing_exact_count_independent_masks():
    pair = make_pair(T=200)
    spec = PerturbationSpec(kind="missing", fraction=0.1, seed=4)
    out = apply_perturbation(pair, spec)
    assert out.x_missing.sum() == 20
    assert out.y_missing.sum() == 20
    assert not np.array_equal(out.x_missing, out.y_missing)
    again = apply_perturbation(pair, spec)
    assert np.array_equal(out.x_missing, again.x_missing)


def test_noise_variance_and_target():
    pair = make_pair(T=20_000, seed=1)
    out = apply_perturbation(pair, PerturbationSpec(kind="noise", noise_var=0.5,
                                                    target="y", seed=2))
    assert np.array_equal(out.x, pair.x)
    added = out.y - pair.y
    assert added.var() == pytest.approx(0.5, rel=0.05)


def test_spec_validation():
    with pytest.raises(ValidationError):
        PerturbationSpec(kind="wavelet")
    with pytest.raises(ValidationError):
        PerturbationSpec(kind="missing", fraction=1.5)
    with pytest.raises(ValidationError):
        PerturbationSpec(kind="noise", noise_var=0.0)
    with pytest.raises(ValidationError):
        PerturbationSpec(kind="round", target="z")
    # data size is a sweep at another length, not a transform of the pair
    for gone in ("data_size", "identity"):
        with pytest.raises(ValidationError, match="unknown perturbation kind"):
            PerturbationSpec(kind=gone)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="finite"):
            PerturbationSpec(kind="scale", factor=bad)
        with pytest.raises(ValidationError, match="finite"):
            PerturbationSpec(kind="noise", noise_var=bad)


# ---------------------------------------------------------------------------
# f/g summaries over synthetic sweeps


def synthetic_sweep(d_values, simulation="ulam"):
    """Build a SweepResult whose directed index per (lam, run) is given."""
    records = []
    for lam, per_run in d_values.items():
        for run, d in enumerate(per_run):
            records.append(Record(simulation, lam, 0.0, run, "te_hist", "xy",
                                  d, 0.0, "ok"))
            records.append(Record(simulation, lam, 0.0, run, "te_hist", "yx",
                                  0.0, 0.0, "ok"))
    return SweepResult(simulation, records)


def test_fg_identity():
    base = synthetic_sweep({0.3: [1.0, 1.2], 0.5: [2.0, 2.2]})
    summary = summarize_fg(base, base)
    fg = summary.stats["te_hist"]
    assert fg.f == 0.0 and fg.g == 1.0


def test_fg_halved_means():
    base = synthetic_sweep({0.3: [1.0, 1.0], 0.5: [2.0, 2.0]})
    pert = synthetic_sweep({0.3: [0.5, 0.5], 0.5: [1.0, 1.0]})
    summary = summarize_fg(base, pert)
    assert summary.stats["te_hist"].f == pytest.approx(0.5)


def test_standardize_takes_no_target():
    # standardize maps both series; a narrower target used to be ignored
    for target in ("x", "y"):
        with pytest.raises(ValidationError, match="standardize maps both series"):
            PerturbationSpec(kind="standardize", target=target)
    assert PerturbationSpec(kind="standardize").target == "both"


def test_fg_all_nan_index_warns_nothing():
    # an index with no finite perturbed value at any kept point: f and g are
    # NaN, computed without numpy's "Mean of empty slice" warning
    base = synthetic_sweep({0.3: [1.0, 1.2], 0.5: [2.0, 2.2]})
    pert = synthetic_sweep({0.3: [np.nan, np.nan], 0.5: [np.nan, np.nan]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fg = summarize_fg(base, pert).stats["te_hist"]
        assert np.isnan(fg.f) and np.isnan(fg.g)
        with pytest.raises(UndefinedStatisticError):
            summarize_fg(pert, base)


def test_fg_undefined_when_mu_vanishes():
    base = synthetic_sweep({0.3: [0.0, 0.0], 0.5: [0.0, 0.0]})
    with pytest.raises(UndefinedStatisticError):
        summarize_fg(base, base)


def test_fg_excludes_ulam_sync_windows():
    base = synthetic_sweep({0.18: [9.0, 9.0], 0.5: [1.0, 1.0], 0.82: [9.0, 9.0]})
    summary = summarize_fg(base, base)
    assert (0.18, 0.0) in summary.excluded
    assert (0.82, 0.0) in summary.excluded
    assert summary.couplings == [(0.5, 0.0)]
    # the excluded extreme values must not leak into f
    assert summary.stats["te_hist"].f == 0.0


def test_fg_no_exclusion_for_other_sims():
    base = synthetic_sweep({0.18: [1.0, 1.0]}, simulation="lp")
    summary = summarize_fg(base, base)
    assert summary.excluded == []


def test_fg_mismatched_grids():
    a = synthetic_sweep({0.3: [1.0, 1.0]})
    b = synthetic_sweep({0.4: [1.0, 1.0]})
    with pytest.raises(ValidationError):
        summarize_fg(a, b)


def test_sync_windows_cover_reported_couplings():
    for lam in (0.17, 0.18, 0.19, 0.81, 0.82, 0.83):
        assert any(lo <= lam <= hi for lo, hi in ULAM_SYNC_WINDOWS)
    for lam in (0.15, 0.2, 0.8, 0.85):
        assert not any(lo <= lam <= hi for lo, hi in ULAM_SYNC_WINDOWS)
    # summarize_fg reads the windows from the baseline system's table entry
    assert {name: sim.sync_windows for name, sim in SIMULATION_TABLE.items()
            if sim.sync_windows} == {"ulam": ULAM_SYNC_WINDOWS}
    assert SweepResult("ulam", []).sync_windows == ULAM_SYNC_WINDOWS
