import time

import numpy as np
import pytest

from bicausal import (
    EgcParams,
    EmbeddingSpec,
    LpParams,
    NlgcParams,
    PiParams,
    SeriesPair,
    egc,
    embed,
    kmeans,
    nlgc,
    ols_fit,
    pi,
    sim_lp,
)
from bicausal import harness, regress
from bicausal.core import STATUS_DEGENERATE
from bicausal.errors import InsufficientPointsError, ValidationError
from bicausal.neighbors import distinct_rows


# ---------------------------------------------------------------------------
# least squares


def test_ols_exact_line():
    x = np.linspace(0, 1, 20)[:, None]
    fit = ols_fit(x, 2.0 * x[:, 0])
    assert fit.coef[0] == pytest.approx(2.0, abs=1e-12)
    assert fit.residual_variance == pytest.approx(0.0, abs=1e-24)
    assert not fit.rank_deficient


def test_ols_orthogonal_target():
    design = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]])[:, :1]
    target = np.array([1.0, -1.0, 1.0, -1.0])
    fit = ols_fit(design, target)
    assert abs(fit.coef[0]) < 1e-12


def test_ols_vs_normal_equations():
    rng = np.random.default_rng(0)
    design = rng.normal(size=(50, 3))
    target = rng.normal(size=50)
    fit = ols_fit(design, target)
    want = np.linalg.solve(design.T @ design, design.T @ target)
    np.testing.assert_allclose(fit.coef, want, atol=1e-8)
    resid = target - design @ want
    assert fit.residual_variance == pytest.approx(resid @ resid / 50, rel=1e-10)


def test_ols_rank_deficient_flag():
    rng = np.random.default_rng(1)
    col = rng.normal(size=30)
    design = np.column_stack([col, col])
    fit = ols_fit(design, rng.normal(size=30))
    assert fit.rank_deficient
    assert np.isfinite(fit.coef).all()


def test_ols_shape_validation():
    with pytest.raises(ValidationError):
        ols_fit(np.ones((2, 3)), np.ones(2))


# ---------------------------------------------------------------------------
# k-means


def test_kmeans_two_blobs():
    pts = np.array([0.0, 0.0, 0.0, 10.0, 10.0, 10.0])
    centers = np.sort(kmeans(pts, 2, seed=0).ravel())
    np.testing.assert_allclose(centers, [0.0, 10.0])


def test_kmeans_p_equals_distinct():
    pts = np.array([1.0, 1.0, 2.0, 5.0, 5.0, 2.0, 9.0])
    centers = np.sort(kmeans(pts, 4, seed=3).ravel())
    np.testing.assert_allclose(centers, [1.0, 2.0, 5.0, 9.0])
    with pytest.raises(InsufficientPointsError):
        kmeans(pts, 5, seed=0)


def test_kmeans_fixed_point():
    # Lloyd iterations stop at a fixed point: one more assignment step from
    # the returned centres moves no centre
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(300, 2))
    centers = kmeans(pts, 8, seed=1)
    assign = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
    for j in range(8):
        np.testing.assert_allclose(pts[assign == j].mean(axis=0), centers[j],
                                   rtol=0, atol=1e-12)


def test_kmeans_deterministic():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(100, 2))
    assert np.array_equal(kmeans(pts, 5, seed=7), kmeans(pts, 5, seed=7))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_distinct_rows_equals_unique_rows(m):
    # kmeans' guard counts what np.unique(axis=0) counts, on random, rounded
    # (np.round leaves -0.0 beside 0.0) and shuffled duplicated sets
    rng = np.random.default_rng(10 + m)
    for case in range(30):
        pts = rng.normal(size=(int(rng.integers(1, 300)), m))
        if case % 3 == 1:
            pts = np.round(pts, int(rng.integers(0, 2)))
        elif case % 3 == 2:
            pts = np.repeat(pts[: max(1, len(pts) // 4)], 4, axis=0)
            rng.shuffle(pts)
        assert len(distinct_rows(pts)[0]) == len(np.unique(pts, axis=0)), (m, case)


def test_distinct_rows_counts_signed_zeros_once():
    rng = np.random.default_rng(0)
    for m in (1, 2, 3):
        pts = rng.choice([-0.0, 0.0, 1.0], size=(40, m))
        assert np.signbit(pts).any() and (pts == 0).any()
        assert len(distinct_rows(pts)[0]) == len(np.unique(pts, axis=0)) == 2 ** m
    with pytest.raises(InsufficientPointsError):
        kmeans(np.array([-0.0, 0.0, 1.0]), 3, seed=0)


def kmeans_reductions(pts, P, seed=0, max_iter=100):
    """k-means with its squared distances as numpy `.sum(axis=...)`
    reductions over difference arrays, the form `kmeans` replaced."""
    return lloyd_reductions(pts, seed_reductions(pts, P, seed), max_iter)


def seed_reductions(pts, P, seed=0):
    """`kmeans_reductions`' D^2-weighted start centres."""
    n = pts.shape[0]
    rng = np.random.default_rng(seed)
    centers = np.empty((P, pts.shape[1]))
    centers[0] = pts[rng.integers(n)]
    d2 = ((pts - centers[0]) ** 2).sum(axis=1)
    for j in range(1, P):
        total = d2.sum()
        if total > 0:
            centers[j] = pts[rng.choice(n, p=d2 / total)]
        else:
            centers[j] = pts[rng.integers(n)]
        d2 = np.minimum(d2, ((pts - centers[j]) ** 2).sum(axis=1))
    return centers


def lloyd_reductions(pts, centers, max_iter=100):
    """`kmeans_reductions`' Lloyd loop from the given centres: every pass
    recomputes every centre from its own boolean mask."""
    centers = centers.copy()
    assign = None
    for _ in range(max_iter):
        d2_all = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = d2_all.argmin(axis=1)
        for j in range(len(centers)):
            member = new_assign == j
            if member.any():
                centers[j] = pts[member].mean(axis=0)
            else:
                far = d2_all.min(axis=1).argmax()
                centers[j] = pts[far]
                new_assign[far] = j
        if assign is not None and np.array_equal(assign, new_assign):
            break
        assign = new_assign
    return centers


@pytest.mark.parametrize("simulation,T", [("ulam", 1000), ("lp", 2000)])
def test_kmeans_equals_numpy_reductions_at_presets(simulation, T):
    # the coordinate-wise squared distances are bit-identical to the numpy
    # reductions, so nlgc's centres are too (m=1, P=50 on ulam; m=2, P=10 on lp)
    presets = harness.index_presets(simulation, T)
    pair = harness.simulate_pair(simulation, (0.4, 0.4), T, seed=0)
    dm = embed(pair, EmbeddingSpec(m=presets["m"]))
    P = presets["nlgc"].P
    for emb, seed in ((dm.x_emb, [0, 0]), (dm.y_emb, [0, 1]),
                      (np.round(dm.x_emb, 2), [3, 0])):
        assert np.array_equal(kmeans(emb, P, seed=seed), kmeans_reductions(emb, P, seed=seed))


@pytest.mark.parametrize("n", [2, 3, 50, 1000])
def test_d2_draw_equals_generator_choice(n):
    # kmeans draws each D^2-weighted centre as Generator.choice(n, p=d2 / total)
    # does on this numpy (a cumulative sum, normalised, searched with one
    # random()), without choice's checks of p: the same index and the same
    # generator state after, with zero-weight rows among the weights
    for seed in range(40):
        rng = np.random.default_rng([seed, n])
        d2 = rng.random(n) ** 2
        d2[rng.random(n) < (0.5 if n > 2 else 0.3)] = 0.0
        if not d2.any():
            d2[int(rng.integers(n))] = 1.0
        total = d2.sum()
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            cdf = (d2 / total).cumsum()
            cdf /= cdf[-1]
            drawn = cdf.searchsorted(ours.random(), side="right")
            assert drawn == theirs.choice(n, p=d2 / total) and d2[drawn] > 0
        assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("P", [2, 5])
def test_kmeans_equals_numpy_reductions_with_zero_weight_rows(P):
    # duplicated rows have zero D^2 weight once one of them is a centre
    rng = np.random.default_rng(P)
    for case in range(10):
        pts = np.repeat(rng.normal(size=(P + case, 2)), 1 + case % 3, axis=0)
        assert np.array_equal(kmeans(pts, P, seed=case), kmeans_reductions(pts, P, seed=case))
    assert np.array_equal(kmeans([0.0, 1.0], 2, seed=4), kmeans_reductions(
        np.array([[0.0], [1.0]]), 2, seed=4))


def assert_lloyd_equals_reductions(pts, centers):
    pts = np.asarray(pts, dtype=float).reshape(len(pts), -1)
    centers = np.asarray(centers, dtype=float).reshape(len(centers), -1)
    got = regress._lloyd(pts, centers.copy())
    assert np.array_equal(got, lloyd_reductions(pts, centers))


@pytest.mark.parametrize("simulation,T", [("ulam", 1000), ("lp", 10_000),
                                          ("henon_uni", 10_000), ("henon_bi_i", 10_000)])
def test_lloyd_equals_reductions_from_kmeans_starts(simulation, T):
    # the Lloyd loop that recomputes only the changed centres gives the
    # centres of the one that recomputes them all, bit for bit, from kmeans'
    # own D^2 starts (the numpy-reduction starts, which `kmeans` matches)
    presets = harness.index_presets(simulation, T)
    P = presets["nlgc"].P
    for coupling, seed in ((0.0, 0), (0.4, 1)):
        pair = harness.simulate_pair(simulation, (coupling, coupling), T, seed=seed)
        dm = embed(pair, EmbeddingSpec(m=presets["m"]))
        for side, emb in enumerate((dm.x_emb, dm.y_emb)):
            assert_lloyd_equals_reductions(emb, seed_reductions(emb, P, seed=[seed, side]))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_lloyd_equals_reductions_on_random_rounded_and_duplicated_points(m):
    rng = np.random.default_rng(m)
    for case in range(12):
        pts = rng.normal(size=(int(rng.integers(40, 300)), m))
        if case % 3 == 1:
            pts = np.round(pts, 1)
        elif case % 3 == 2:
            pts = np.repeat(pts[: len(pts) // 4], 4, axis=0)
        P = int(rng.integers(2, min(25, len(np.unique(pts, axis=0))) + 1))
        assert_lloyd_equals_reductions(pts, seed_reductions(pts, P, seed=case))


def first_pass_reseed(pts, centers):
    """(empty cluster, cluster the farthest point leaves) of a first pass
    with exactly one empty cluster."""
    d2_all = ((pts[:, None] - centers[None, :]) ** 2)
    assign = d2_all.argmin(axis=1)
    (empty,) = np.setdiff1d(np.arange(len(centers)), assign)
    return empty, assign[d2_all.min(axis=1).argmax()]


def test_lloyd_equals_reductions_with_empty_clusters():
    pts = np.array([0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 30.0])
    # a start centre far outside the data, at the last index: the farthest
    # point (30) leaves cluster 1, whose centre was computed with it and is
    # stale for the next pass
    assert first_pass_reseed(pts, np.array([1.5, 11.0, 100.0])) == (2, 1)
    assert_lloyd_equals_reductions(pts, [1.5, 11.0, 100.0])
    # the same at index 0: 30 leaves cluster 2, recomputed later in the pass
    assert first_pass_reseed(pts, np.array([100.0, 1.5, 11.0])) == (0, 2)
    assert_lloyd_equals_reductions(pts, [100.0, 1.5, 11.0])
    # two coincident start centres: ties go to the smaller index, so the
    # larger one's cluster is empty
    assert first_pass_reseed(pts, np.array([1.5, 1.5, 11.0])) == (1, 2)
    assert_lloyd_equals_reductions(pts, [1.5, 1.5, 11.0])
    # 30 is the only member of cluster 2, which the re-seed of cluster 0
    # empties: cluster 2 takes 30 back in its turn, leaving cluster 0 empty
    lone = np.array([0.0, 1.0, 2.0, 3.0, 30.0])
    assert first_pass_reseed(lone, np.array([100.0, 1.5, 20.0])) == (0, 2)
    assert_lloyd_equals_reductions(lone, [100.0, 1.5, 20.0])
    # 40 leaves cluster 1 for the empty cluster 2; the next pass moves no
    # point and only recomputes cluster 1, and the loop stops there, before
    # 6.9 would move to cluster 1's new centre
    stops = np.array([0.0, 1.0, 2.0, 6.9, 10.0, 10.0, 11.0, 12.0, 12.0, 40.0])
    assert first_pass_reseed(stops, np.array([3.0, 11.0, 100.0])) == (2, 1)
    assert_lloyd_equals_reductions(stops, [3.0, 11.0, 100.0])
    # three clusters are empty in the first pass and all take 10; in the
    # second, cluster 1 is empty again and takes 8 from cluster 3, whose
    # members had not changed, so it is recomputed later in that pass
    assert_lloyd_equals_reductions([10.0, 6.0, 6.0, 8.0, 6.0], [13.0, -1.0, 14.0, 8.0])
    # and in two dimensions, with several far and coincident starts
    rng = np.random.default_rng(4)
    pts2 = rng.normal(size=(200, 2))
    starts = np.vstack([pts2[:6], pts2[:2], [[50.0, 50.0], [-40.0, 0.0]]])
    assert_lloyd_equals_reductions(pts2, starts)


@pytest.mark.parametrize("simulation,T", [("ulam", 1000), ("lp", 2000)])
def test_lloyd_from_kmeans_centres_is_a_fixed_point(simulation, T):
    presets = harness.index_presets(simulation, T)
    pair = harness.simulate_pair(simulation, (0.4, 0.4), T, seed=0)
    emb = embed(pair, EmbeddingSpec(m=presets["m"])).x_emb
    centers = kmeans(emb, presets["nlgc"].P, seed=[0, 0])
    assert np.array_equal(regress._lloyd(emb, centers.copy()), centers)


# ---------------------------------------------------------------------------
# EGC


def _driven_pair(T=2000, seed=0):
    # x(t+1) = y(t) with i.i.d. y: the joint model is exact in-sample
    rng = np.random.default_rng(seed)
    y = rng.normal(size=T)
    x = np.empty(T)
    x[0] = rng.normal()
    x[1:] = y[:-1]
    return SeriesPair(x, y)


def test_egc_perfect_joint_fit():
    dm = embed(_driven_pair(), EmbeddingSpec(m=1))
    est = egc(dm, EgcParams(L=20, delta=10.0, seed=1))
    assert est.value_yx == pytest.approx(1.0, abs=1e-9)
    assert est.status == "ok"


def test_egc_null_on_decoupled_lp():
    vals = []
    for run in range(10):
        pair = sim_lp(LpParams(lam=0.0, T=10_000, seed=run))
        dm = embed(pair, EmbeddingSpec(m=2))
        est = egc(dm, EgcParams(L=20, delta=0.8, seed=run))
        vals.append(est.value_yx)
    assert abs(np.mean(vals)) < 0.05


def test_egc_degenerate_when_no_neighbourhoods():
    dm = embed(_driven_pair(T=200), EmbeddingSpec(m=1))
    est = egc(dm, EgcParams(L=5, delta=1e-12, seed=0))
    assert est.status == STATUS_DEGENERATE
    assert np.isnan(est.value_yx) and np.isnan(est.d)


def test_egc_range():
    pair = sim_lp(LpParams(lam=0.6, T=3000, seed=2))
    dm = embed(pair, EmbeddingSpec(m=2))
    est = egc(dm, EgcParams(L=20, delta=0.8, seed=0))
    assert 0.0 <= est.value_yx <= 1.0 and 0.0 <= est.value_xy <= 1.0


# ---------------------------------------------------------------------------
# NLGC


def test_nlgc_exact_span():
    # x(t+1) = exp(-y(t)^2 / (2*0.05)) with y on {-1,0,1}: k-means puts a
    # center exactly at each level, so the joint model contains the truth
    rng = np.random.default_rng(4)
    T = 1500
    y = rng.choice([-1.0, 0.0, 1.0], size=T)
    x = np.empty(T)
    x[0] = 0.5
    x[1:] = np.exp(-y[:-1] ** 2 / 0.1) + 1e-3 * rng.normal(size=T - 1)
    dm = embed(SeriesPair(x, y), EmbeddingSpec(m=1))
    est = nlgc(dm, NlgcParams(P=3, var=0.05, seed=0))
    assert est.value_yx > 0.99


def test_nlgc_null_on_decoupled_lp():
    vals = []
    for run in range(3):
        pair = sim_lp(LpParams(lam=0.0, T=10_000, seed=100 + run))
        dm = embed(pair, EmbeddingSpec(m=2))
        est = nlgc(dm, NlgcParams(P=10, var=0.05, seed=run))
        vals.append(est.value_yx)
    assert abs(np.mean(vals)) < 0.05


def test_nlgc_range_and_params():
    with pytest.raises(ValidationError):
        NlgcParams(P=0)
    pair = sim_lp(LpParams(lam=0.7, T=2000, seed=0))
    dm = embed(pair, EmbeddingSpec(m=1))
    est = nlgc(dm, NlgcParams(P=8, seed=0))
    assert 0.0 <= est.value_yx <= 1.0


# ---------------------------------------------------------------------------
# PI


def test_pi_driven_magnitude():
    # predicting x(t+1) = y(t) from x-space fails (error ~ (1+1/R) Var(x));
    # the joint space pins y(t), so the improvement is about Var(x)
    pair = _driven_pair(T=4000, seed=6)
    dm = embed(pair, EmbeddingSpec(m=1))
    est = pi(dm, PiParams(R=10))
    var = pair.x.var()
    assert abs(est.value_yx - var) < 0.3 * var
    assert est.value_yx > 5 * abs(est.value_xy)


def test_pi_null_independent():
    ds = []
    for run in range(10):
        rng = np.random.default_rng(200 + run)
        pair = SeriesPair(rng.normal(size=1500), rng.normal(size=1500))
        dm = embed(pair, EmbeddingSpec(m=1))
        ds.append(pi(dm, PiParams(R=2)).d)
    assert abs(np.mean(ds)) < 2 * np.std(ds)


def test_pi_include_self_quarters_at_r1():
    pair = _driven_pair(T=800, seed=3)
    dm = embed(pair, EmbeddingSpec(m=1))
    excl = pi(dm, PiParams(R=1))
    incl = pi(dm, PiParams(R=1, include_self=True))
    assert incl.value_yx == pytest.approx(excl.value_yx / 4.0, rel=1e-12)
    assert incl.value_xy == pytest.approx(excl.value_xy / 4.0, rel=1e-12)


def test_pi_times_each_direction(monkeypatch):
    # on a fresh matrix yx builds the joint and the x graph, xy the y graph
    delay = 0.2

    def slow(*args, _fn=regress.knn_all, **kwargs):
        time.sleep(delay)
        return _fn(*args, **kwargs)

    monkeypatch.setattr(regress, "knn_all", slow)
    est = pi(embed(_driven_pair(T=600, seed=0), EmbeddingSpec(m=1)), PiParams(R=2))
    assert 2 * delay <= est.elapsed_yx < 3 * delay
    assert delay <= est.elapsed_xy < 2 * delay


def test_pi_requires_enough_rows():
    pair = _driven_pair(T=12, seed=0)
    dm = embed(pair, EmbeddingSpec(m=1))
    with pytest.raises(InsufficientPointsError):
        pi(dm, PiParams(R=10))


# ---------------------------------------------------------------------------
# shared translation invariance


def test_translation_invariance():
    pair = sim_lp(LpParams(lam=0.5, T=2000, seed=9))
    shifted = SeriesPair(pair.x + 37.0, pair.y + 37.0)
    dm = embed(pair, EmbeddingSpec(m=1))
    dm_s = embed(shifted, EmbeddingSpec(m=1))
    for fn, params in ((egc, EgcParams(L=10, delta=0.8, seed=2)),
                       (nlgc, NlgcParams(P=5, seed=2)),
                       (pi, PiParams(R=3))):
        a = fn(dm, params)
        b = fn(dm_s, params)
        assert a.value_yx == pytest.approx(b.value_yx, abs=1e-7)
        assert a.value_xy == pytest.approx(b.value_xy, abs=1e-7)
