"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavier sweeps are
shared through module-scoped fixtures and use two worker processes.
"""

import math
from collections import Counter

import numpy as np
import pytest

import bicausal as bc
from bicausal import harness

WORKERS = 2

TABLE_PARAMS = dict(b_x=0.8, b_y=0.4, var_x=0.2, var_y=0.2)

# Indices whose lam = 0 value depends on each series' own marginal dynamics,
# so D = value_xy - value_yx is zero at independence only when the two series
# share those dynamics. Measured on sim_lp at lam = 0, T = 1e4, seeds 0-9,
# mean D / std over runs:
#   b_x=0.8, b_y=0.4 (table): te_hist +0.0044/0.0014, si1 -0.0190/0.0058,
#                             si2 +0.389/0.012 (ete_hist +0.0005/0.0012)
#   b_x=0.4, b_y=0.8 (swap):  te_hist -0.0035/0.0019, si1 +0.0141/0.0032,
#                             si2 -0.391/0.014
#   b_x=b_y in {0.4, 0.6, 0.8}: |mean| / std <= 0.41 for all three
# te_hist is a plug-in over equal-width bins whose bias follows each series'
# bin occupancy (ete_hist removes it by shuffling); si2 and si1 compare own
# neighbour distances with distances to effectively random points, which is
# fixed by each embedding's geometry. Criterion 10 asserts them neutral on
# the linear process at these equal persistences.
MARGINAL_SENSITIVE = ("te_hist", "si1", "si2")
EQUAL_PERSISTENCE = (0.8, 0.4)


def _report(num, name):
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def _mean_by_point(res, index, direction):
    vals = res.values(index, direction)
    out = {}
    for (lxy, lyx, _run), v in vals.items():
        out.setdefault((lxy, lyx), []).append(v)
    return {pt: float(np.mean(v)) for pt, v in out.items()}


# ---------------------------------------------------------------------------
# shared sweeps


@pytest.fixture(scope="module")
def lp_te_sweep():
    cfg = bc.SweepConfig(simulation="lp", T=10_000, runs=3,
                         couplings=tuple(round(0.1 * i, 2) for i in range(11)),
                         indices=("te_ksg", "te_hist"), base_seed=0,
                         workers=WORKERS)
    return bc.run_sweep(cfg)


@pytest.fixture(scope="module")
def ulam_baseline_sweep():
    grid = [lam for lam in harness.desk_grid("ulam")
            if not any(lo <= lam <= hi for lo, hi in bc.perturb.ULAM_SYNC_WINDOWS)]
    cfg = bc.SweepConfig(simulation="ulam", T=1000, runs=3,
                         couplings=tuple(grid),
                         indices=("egc", "nlgc", "pi", "te_hist", "ete_hist",
                                  "si1", "si2", "ccm"),
                         base_seed=0, workers=WORKERS)
    return bc.run_sweep(cfg)


# ---------------------------------------------------------------------------
# criteria


def test_01_te_ksg_matches_analytic(lp_te_sweep):
    means_yx = _mean_by_point(lp_te_sweep, "te_ksg", "yx")
    means_xy = _mean_by_point(lp_te_sweep, "te_ksg", "xy")
    for (lxy, lyx), mean in sorted(means_yx.items()):
        want = bc.te_lp_analytic(bc.LpParams(lam=lyx, T=1, **TABLE_PARAMS))
        assert abs(mean - want) <= 0.03, (lyx, mean, want)
    for (lxy, lyx), mean in means_xy.items():
        assert abs(mean) <= 0.02, (lyx, mean)
    _report(1, "TE(KSG) tracks the analytic linear-process curve")


def test_02_te_hist_underestimates(lp_te_sweep):
    means = _mean_by_point(lp_te_sweep, "te_hist", "yx")
    for (lxy, lyx), mean in sorted(means.items()):
        if lyx >= 0.3:
            want = bc.te_lp_analytic(bc.LpParams(lam=lyx, T=1, **TABLE_PARAMS))
            assert mean < want, (lyx, mean, want)
    _report(2, "TE(H) underestimates the analytic value for lam >= 0.3")


def test_03_ctir_matches_numeric_oracle():
    cfg = bc.SweepConfig(simulation="lp", T=10_000, runs=2,
                         couplings=(0.0, 0.2, 0.4), indices=("ctir",),
                         base_seed=0, workers=WORKERS)
    res = bc.run_sweep(cfg)
    for direction in ("yx", "xy"):
        means = _mean_by_point(res, "ctir", direction)
        for (lxy, lyx), mean in means.items():
            p = bc.LpParams(lam=lyx, T=1, **TABLE_PARAMS)
            want = bc.ctir_lp_analytic(p, 20, direction)
            assert abs(mean - want) <= 0.03, (direction, lyx, mean, want)
    _report(3, "CTIR matches the numeric Gaussian oracle within 0.03 nats")


def test_04_exact_invariances():
    transforms = {
        "standardize": lambda pair: bc.standardize(pair),
        "scale_x_10": lambda pair: bc.SeriesPair(10.0 * pair.x, pair.y),
        "scale_y_10": lambda pair: bc.SeriesPair(pair.x, 10.0 * pair.y),
    }

    def estimates(pair):
        dm = bc.embed(pair, bc.EmbeddingSpec(m=1))
        te = bc.te_hist(dm)
        ete = bc.ete_hist(dm, e=bc.EteParams(n_shuffle=10, seed=0))
        si1, si2 = bc.si_pair(dm, bc.SiParams(R=20))
        cc = bc.ccm(dm, bc.CcmParams(seed=0))
        return {"te_hist": te, "ete_hist": ete, "si1": si1, "si2": si2, "ccm": cc}

    for lam in (0.3, 0.5):
        pair = bc.sim_ulam(bc.UlamParams(lam=lam, T=1000, seed=0))
        base = estimates(pair)
        for tname, tf in transforms.items():
            got = estimates(tf(pair))
            for index, est in base.items():
                for direction in ("xy", "yx"):
                    v0 = est.value(direction)
                    v1 = got[index].value(direction)
                    assert abs(v1 - v0) <= 1e-9 * max(1.0, abs(v0)), \
                        (lam, tname, index, direction, v0, v1)
    _report(4, "standardisation and x10 scalings leave SI/CCM/TE(H)/ETE(H) unchanged")


def test_05_directionality():
    cfg = bc.SweepConfig(simulation="ulam", T=1000, runs=10,
                         couplings=(0.4, 0.5, 0.6),
                         indices=("te_hist", "te_ksg", "egc", "nlgc", "pi"),
                         base_seed=0, workers=WORKERS)
    res = bc.run_sweep(cfg)
    for index in cfg.indices:
        by_point = res.directed_by_point(index)
        for pt, ds in sorted(by_point.items()):
            ds = np.asarray(ds)
            assert np.isfinite(ds).all(), (index, pt)
            assert ds.mean() > 0, (index, pt, ds.mean())
            assert ds.mean() > 2 * ds.std(), (index, pt, ds.mean(), ds.std())
    _report(5, "mean D_(X->Y) positive and > 2x run std at lam in {0.4, 0.5, 0.6}")


def _sweep_grand_mean(res, index):
    # per-point run means first, degenerate (NA) estimates dropped as in the
    # reference tables
    per_point = []
    for vals in res.directed_by_point(index).values():
        finite = [v for v in vals if np.isfinite(v)]
        if finite:
            per_point.append(float(np.mean(finite)))
    return float(np.mean(per_point))


def test_06_baseline_magnitudes(ulam_baseline_sweep):
    anchors = {"egc": 0.840, "te_hist": 0.673, "nlgc": 0.610, "pi": 0.380}
    near_zero = ("si1", "si2", "ccm")
    for index, anchor in anchors.items():
        mu = _sweep_grand_mean(ulam_baseline_sweep, index)
        assert abs(mu - anchor) <= 0.30 * anchor, (index, mu, anchor)
    for index in near_zero:
        mu = _sweep_grand_mean(ulam_baseline_sweep, index)
        assert abs(mu) <= 0.05, (index, mu)
    _report(6, "Ulam baseline magnitudes match the reference table within 30%")


def test_07_ete_corrects_spurious_te(ulam_baseline_sweep):
    lams = {round(0.05 * i, 2) for i in range(6, 13)}  # 0.3 .. 0.6
    te_vals, ete_vals = [], []
    for (lxy, lyx, _run), v in ulam_baseline_sweep.values("te_hist", "yx").items():
        if lxy in lams:
            te_vals.append(v)
    for (lxy, lyx, _run), v in ulam_baseline_sweep.values("ete_hist", "yx").items():
        if lxy in lams:
            ete_vals.append(v)
    assert abs(np.mean(ete_vals)) < np.mean(te_vals), \
        (np.mean(ete_vals), np.mean(te_vals))
    _report(7, "ETE(H) shrinks the spurious uncoupled-direction TE(H)")


def test_08_determinant_identities_and_expansion():
    for bx in np.linspace(-0.8, 0.8, 5):
        for by in np.linspace(-0.8, 0.8, 5):
            for lam in (0.15, 0.5, 0.85):
                p = bc.LpParams(lam=lam, T=1, b_x=float(bx), b_y=float(by),
                                var_x=0.2, var_y=0.2)
                c2 = np.linalg.det(bc.lp_cov_matrix(p, [("x", 0), ("y", 0)]))
                cx = np.linalg.det(bc.lp_cov_matrix(p, [("x", 0), ("y", 0), ("x", 1)]))
                cy = np.linalg.det(bc.lp_cov_matrix(p, [("x", 0), ("y", 0), ("y", 1)]))
                assert abs(cx - p.var_x * c2) <= 1e-10 * abs(p.var_x * c2)
                assert abs(cy - p.var_y * c2) <= 1e-10 * abs(p.var_y * c2)
    for lam in np.linspace(0.01, 0.2, 20):
        p = bc.LpParams(lam=float(lam), T=1, **TABLE_PARAMS)
        resid = bc.te_lp_analytic(p) - bc.te_lp_small_lam(p)
        assert abs(resid) <= 0.15 * lam**3
    _report(8, "appendix determinant identities hold; small-lam residual is O(lam^3)")


def test_09_monte_carlo_covariances():
    p = bc.LpParams(lam=0.5, T=1_000_000, seed=17, **TABLE_PARAMS)
    pair = bc.sim_lp(p)
    series = {"x": pair.x, "y": pair.y}
    n = pair.T
    for tau in (0, 1, 2, 5):
        for a in ("x", "y"):
            for b in ("x", "y"):
                want = bc.lp_covariance(p, (a, b), tau)
                sa = series[a][: n - tau or None]
                sb = series[b][tau:]
                got = float(np.cov(sa, sb, ddof=0)[0, 1])
                # one run carries irreducible sampling noise of about
                # sqrt((c_aa c_bb + c_ab^2)/n); allow 1% plus three sigmas
                sampling = math.sqrt(
                    (bc.lp_covariance(p, (a, a), 0) * bc.lp_covariance(p, (b, b), 0)
                     + want**2) / (n - tau))
                assert abs(got - want) <= 0.01 * abs(want) + 3 * sampling, \
                    (a, b, tau, got, want)
    _report(9, "closed-form covariances match a T=1e6 run within 1% (+3 sigma noise)")


def _null_violation(where, ds, statuses):
    """(where..., mean, std) if D breaks |mean D| < 2 std, else None."""
    ds = np.asarray(ds)
    ds = ds[np.isfinite(ds)]
    if len(ds) == 0:
        # every estimate is degenerate by the estimator's own contract
        # (e.g. NLGC on the uncoupled deterministic lattice: the self
        # model is already perfect); no null sample exists to test
        assert statuses == {"degenerate"}, where
        return None
    mean, std = ds.mean(), ds.std()
    if (mean == 0.0 and std == 0.0) or abs(mean) < 2 * std:
        return None
    return (*where, float(mean), float(std))


def test_10_null_property_all_systems():
    # Every index is asserted direction-neutral at lam = 0 wherever its
    # definition makes D vanish at independence: all ten on ulam, henon_uni
    # and henon_bi_i (the two series share their dynamics), and the seven
    # null-anchored indices on the table-parameter linear process. The
    # MARGINAL_SENSITIVE indices are not neutral there, because b_x=0.8 and
    # b_y=0.4 give the two series different persistence: there si2 has mean
    # D = +0.389 (31x its run std), swapping the persistences flips it to
    # -0.391, and at b_x = b_y all three stay within 0.41 std of zero (full
    # numbers at MARGINAL_SENSITIVE). They are asserted neutral on the linear
    # process with equal persistence instead, scored through the same
    # simulate-then-compute_indices path a sweep unit takes.
    runs = 10
    violations = []
    for simulation in ("lp", "ulam", "henon_uni", "henon_bi_i"):
        cfg = bc.SweepConfig(simulation=simulation, runs=runs,
                             couplings=((0.0, 0.0),) if simulation == "henon_bi_i"
                             else (0.0,),
                             base_seed=0, workers=WORKERS)
        res = bc.run_sweep(cfg)
        for index in bc.INDEX_NAMES:
            if simulation == "lp" and index in MARGINAL_SENSITIVE:
                continue
            ds = next(iter(res.directed_by_point(index).values()))
            statuses = {rec.status for rec in res.records if rec.index == index}
            violations.append(_null_violation((simulation, index), ds, statuses))
    for b in EQUAL_PERSISTENCE:
        units = []
        for run in range(runs):
            pair = bc.sim_lp(bc.LpParams(lam=0.0, T=10_000, seed=run, b_x=b, b_y=b,
                                         var_x=0.2, var_y=0.2))
            ests = bc.compute_indices(pair, "lp", 10_000, indices=MARGINAL_SENSITIVE)
            units.append({est.index: est for est in ests})
        for index in MARGINAL_SENSITIVE:
            violations.append(_null_violation(
                (f"lp b_x=b_y={b}", index), [u[index].d for u in units],
                {u[index].status for u in units}))
    violations = [v for v in violations if v is not None]
    assert not violations, f"null property violated for: {violations}"
    _report(10, "every index is direction-neutral at lam = 0 where its dynamics "
                "match (lp: te_hist/si1/si2 at equal persistence)")


def test_11_synchronisation_detection():
    pair = bc.sim_henon_uni(bc.HenonUniParams(lam=0.9, T=1000, seed=0))
    assert np.max(np.abs(pair.x - pair.y)) < 1e-6
    pair = bc.sim_ulam(bc.UlamParams(lam=0.18, T=1000, seed=0))
    assert abs(np.corrcoef(pair.x, pair.y)[0, 1]) > 0.98
    _report(11, "synchronisation detected (Henon lam=0.9 identical; Ulam lam=0.18)")


def test_12_micro_oracles():
    # histogram entropy vs a direct plug-in on a small discrete sample
    rng = np.random.default_rng(3)
    samples = rng.integers(0, 5, size=(100, 2)).astype(float)
    edges = [np.linspace(-0.5, 4.5, 6)] * 2
    counts = Counter(map(tuple, samples.astype(int)))
    want = -sum((c / 100) * math.log(c / 100) for c in counts.values())
    got = bc.hist_entropy(samples, edges)
    assert got == pytest.approx(want, abs=1e-12)

    # knn vs an exhaustive scan at n = 2000
    pts = rng.normal(size=(2000, 3))
    ps = bc.PointSet(pts)
    for qi in rng.choice(2000, size=12, replace=False):
        got_nn = bc.knn(ps, int(qi), 8)
        diff = pts - pts[qi]
        dists = np.sqrt((diff * diff).sum(axis=1))
        ranked = sorted((d, i) for i, d in enumerate(dists) if i != qi)[:8]
        assert [i for i, _ in got_nn] == [i for _, i in ranked]
    _report(12, "hist_entropy and knn agree exactly with brute-force oracles")
