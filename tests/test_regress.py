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
from bicausal.core import STATUS_DEGENERATE
from bicausal.errors import InsufficientPointsError, ValidationError


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
