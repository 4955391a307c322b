import math
import time
import warnings

import numpy as np
import pytest

from bicausal import (
    CcmParams,
    EmbeddingSpec,
    HenonUniParams,
    LpParams,
    SeriesPair,
    SiParams,
    ccm,
    ccm_rho_curve,
    embed,
    sim_henon_uni,
    sim_lp,
)
from bicausal.core import STATUS_DEGENERATE
from bicausal import crossmap, harness
from bicausal.crossmap import _smallest_library_knn, converged_value
from bicausal.errors import InsufficientPointsError, ValidationError
from bicausal.neighbors import PointSet, knn_points
from bicausal import si_pair


def chaotic_pair(T=600, seed=0):
    base = sim_henon_uni(HenonUniParams(lam=0.0, T=T, seed=seed))
    return base


# ---------------------------------------------------------------------------
# similarity indices


def test_si_identical_series():
    base = chaotic_pair(400, seed=1)
    pair = SeriesPair(base.x, base.x.copy())
    si1, si2 = si_pair(embed(pair, EmbeddingSpec(m=2)), SiParams(R=5))
    assert si2.value_yx == 0.0 and si2.value_xy == 0.0
    assert si1.value_yx > 0.5 and si1.value_xy > 0.5


def test_si_independent_series():
    # si1 keeps a small positive Jensen bias of order 1/R; si2 sits below zero
    si1_vals, si2_vals, d_vals = [], [], []
    for run in range(10):
        rng = np.random.default_rng(600 + run)
        pair = SeriesPair(rng.normal(size=500), rng.normal(size=500))
        si1, si2 = si_pair(embed(pair, EmbeddingSpec(m=2)), SiParams(R=20))
        si1_vals.append(si1.value_yx)
        si2_vals.append(si2.value_yx)
        d_vals.append(si1.d)
    assert abs(np.mean(si1_vals)) < 0.05
    assert all(v < 0.0 for v in si2_vals)
    # both series are N(0, 1) white noise, an equal-marginal pair, so the
    # bias is the same in either direction and the directed index centres
    # on zero (series with different dynamics do not; see si_pair)
    assert abs(np.mean(d_vals)) < 2 * np.std(d_vals) + 1e-12


def test_si_affine_invariance():
    base = chaotic_pair(400, seed=2)
    pair = SeriesPair(base.x, base.y)
    mapped = SeriesPair(7.0 * base.x - 3.0, -0.5 * base.y + 20.0)
    a1, a2 = si_pair(embed(pair, EmbeddingSpec(m=2)), SiParams(R=4))
    b1, b2 = si_pair(embed(mapped, EmbeddingSpec(m=2)), SiParams(R=4))
    for a, b in ((a1, b1), (a2, b2)):
        assert a.value_yx == pytest.approx(b.value_yx, abs=1e-10)
        assert a.value_xy == pytest.approx(b.value_xy, abs=1e-10)


def test_si_translation_invariance():
    # the all-points mean distance in si1 used to cancel away its precision
    # on data with a large mean (at +1e8, si1 yx was NaN with status ok)
    pair = sim_lp(LpParams(lam=0.4, T=2000, seed=0))
    spec = EmbeddingSpec(m=2)
    for R in (10, 30):
        base = si_pair(embed(pair, spec), SiParams(R=R))
        shifted = si_pair(embed(SeriesPair(pair.x + 1e6, pair.y + 1e6), spec), SiParams(R=R))
        for a, b in zip(base, shifted):
            assert a.value_xy == pytest.approx(b.value_xy, abs=1e-6)
            assert a.value_yx == pytest.approx(b.value_yx, abs=1e-6)
        far = si_pair(embed(SeriesPair(pair.x + 1e8, pair.y + 1e8), spec), SiParams(R=R))
        for est in far:
            assert np.isfinite(est.value_xy) and np.isfinite(est.value_yx)


def test_si_zero_distance_floor():
    x = np.tile([0.0, 1.0, 2.0, 3.0], 30)
    rng = np.random.default_rng(3)
    pair = SeriesPair(x, rng.normal(size=len(x)))
    si1, si2 = si_pair(embed(pair, EmbeddingSpec(m=1)), SiParams(R=2))
    assert si1.status == STATUS_DEGENERATE
    assert np.isfinite(si1.value_yx)


def test_si_on_a_constant_series_is_degenerate_without_warning():
    # a constant x has r(t) = 0: si1 on the x side has no value, where its log
    # was -inf with numpy's divide-by-zero warning. Its x graph searches one
    # distinct row (U = 1): each point's neighbours are the others by index
    base = harness.simulate_pair("ulam", (0.4, 0.0), 1000, seed=0)
    dm = embed(SeriesPair(np.full(1000, 0.3), base.y), EmbeddingSpec(m=1))
    R = harness.index_presets("ulam", 1000)["si1"].R
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        si1, si2 = si_pair(dm, SiParams(R=R))
    assert si1.status == si2.status == STATUS_DEGENERATE
    assert math.isnan(si1.value_yx)
    assert math.isfinite(si1.value_xy) and math.isfinite(si2.value_xy) and si2.value_yx == 0.0
    idx, dist = dm.knn_graph("x", R, crossmap.knn_all)
    n = dm.n_rows
    want = np.arange(R + 1) + (np.arange(R + 1) >= np.arange(n)[:, None])
    assert np.array_equal(idx, want[:, :R]) and not dist.any()


def test_si_times_each_direction(monkeypatch):
    # on a fresh matrix yx builds the x and the y graph, and xy only reads them
    delay = 0.2

    def slow(*args, _fn=crossmap.knn_all, **kwargs):
        time.sleep(delay)
        return _fn(*args, **kwargs)

    monkeypatch.setattr(crossmap, "knn_all", slow)
    for est in si_pair(embed(chaotic_pair(400, seed=1), EmbeddingSpec(m=2)), SiParams(R=5)):
        assert 2 * delay <= est.elapsed_yx < 3 * delay
        assert est.elapsed_xy < delay


def test_si_needs_rows():
    pair = SeriesPair(np.arange(8.0), np.arange(8.0))
    with pytest.raises(InsufficientPointsError):
        si_pair(embed(pair, EmbeddingSpec(m=1)), SiParams(R=10))


# ---------------------------------------------------------------------------
# convergent cross mapping


def test_ccm_self_map_converges():
    base = chaotic_pair(1000, seed=4)
    pair = SeriesPair(base.x, base.x.copy())
    est = ccm(embed(pair, EmbeddingSpec(m=2)))
    assert est.value_yx > 0.99
    assert est.value_xy > 0.99


def test_ccm_independent_noise_not_converged():
    for run in range(3):
        rng = np.random.default_rng(700 + run)
        pair = SeriesPair(rng.normal(size=800), rng.normal(size=800))
        est = ccm(embed(pair, EmbeddingSpec(m=2)))
        assert est.value_yx == 0.0 and est.value_xy == 0.0


def test_converged_value_arithmetic():
    assert converged_value(0.2, 0.8, 0.05) == 0.8
    assert converged_value(0.76, 0.8, 0.05) == 0.0
    assert converged_value(0.0, 0.04, 0.05) == 0.0


def test_ccm_deterministic():
    base = chaotic_pair(500, seed=5)
    dm = embed(SeriesPair(base.x, base.y), EmbeddingSpec(m=2))
    a = ccm(dm, CcmParams(seed=3))
    b = ccm(dm, CcmParams(seed=3))
    assert a.value_yx == b.value_yx and a.value_xy == b.value_xy


def default_library_sizes(n_rows, m, n_grid=20):
    """Geometric ladder of library sizes from m+2 to the full row count."""
    sizes = np.unique(np.round(np.geomspace(m + 2, n_rows, n_grid)).astype(int))
    return [int(s) for s in sizes]


def test_ccm_rho_curve_bounded():
    base = chaotic_pair(400, seed=6)
    dm = embed(SeriesPair(base.x, base.y), EmbeddingSpec(m=2))
    sizes = default_library_sizes(dm.n_rows, dm.m, n_grid=6)
    assert sizes[0] == dm.m + 2 and sizes[-1] == dm.n_rows
    assert all(a < b for a, b in zip(sizes, sizes[1:]))
    curve = ccm_rho_curve(dm, CcmParams(n_t=10, seed=1), sizes, "yx")
    assert all(-1.0 <= r <= 1.0 for r in curve)


def test_ccm_affine_invariance():
    base = chaotic_pair(400, seed=7)
    pair = SeriesPair(base.x, base.y)
    mapped = SeriesPair(10.0 * base.x, 0.1 * base.y + 4.0)
    a = ccm(embed(pair, EmbeddingSpec(m=2)), CcmParams(seed=2))
    b = ccm(embed(mapped, EmbeddingSpec(m=2)), CcmParams(seed=2))
    assert a.value_yx == pytest.approx(b.value_yx, abs=1e-9)
    assert a.value_xy == pytest.approx(b.value_xy, abs=1e-9)


def test_ccm_validation():
    base = chaotic_pair(100, seed=8)
    dm = embed(SeriesPair(base.x, base.y), EmbeddingSpec(m=2))
    with pytest.raises(ValidationError):
        ccm_rho_curve(dm, CcmParams(), [2], "yx")
    with pytest.raises(ValidationError):
        ccm_rho_curve(dm, CcmParams(), [10], "sideways")


def test_ccm_makes_no_knn_points_call(monkeypatch):
    # the full library reads the matrix's kNN graph and the smallest ranks
    # its own m+2 points; only other ladder sizes query a library set
    calls = []

    def points(*args, _fn=crossmap.knn_points, **kwargs):
        calls.append(len(args[0].points))
        return _fn(*args, **kwargs)
    monkeypatch.setattr(crossmap, "knn_points", points)
    base = chaotic_pair(300, seed=9)
    dm = embed(SeriesPair(base.x, base.y), EmbeddingSpec(m=2))
    ccm(dm)
    assert calls == []
    ccm_rho_curve(dm, CcmParams(n_t=2), [dm.m + 2, dm.m + 3, dm.n_rows], "xy")
    assert set(calls) == {dm.m + 3}


@pytest.mark.parametrize("decimals", [None, 1, 0])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_smallest_library_knn_equals_knn_points(m, decimals):
    # every row against the m+2 points of a library at the start, middle and
    # end of the embedding; library rows exclude themselves, the others none
    base = chaotic_pair(400, seed=m)
    pair = SeriesPair(base.x, base.y)
    if decimals is not None:
        pair = SeriesPair(np.round(base.x, decimals), np.round(base.y, decimals))
    emb = embed(pair, EmbeddingSpec(m=m)).x_emb
    n, k = emb.shape[0], m + 1
    rows = np.arange(n)
    for start in (0, n // 2, n - k - 1):
        inside = (rows >= start) & (rows <= start + k)
        exclude = np.where(inside, rows - start, -1)
        want = knn_points(PointSet(emb[start:start + k + 1]), emb, k, exclude_index=exclude)
        got = _smallest_library_knn(emb, start, k)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
