import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bicausal.errors import InsufficientPointsError, ValidationError
from bicausal.info import _strict_counts
from bicausal.neighbors import PointSet, knn, knn_all, knn_points, seeded_jitter

METRICS = ("l1", "l2", "linf")


def scan_distance(diff, metric):
    if metric == "l1":
        return float(np.abs(diff).sum())
    if metric == "l2":
        return float(np.sqrt((diff * diff).sum()))
    return float(np.abs(diff).max())


def brute_knn(points, query, k, metric, exclude=-1):
    """Independent O(n) scan; ties resolved by (distance, index)."""
    dists = [
        (scan_distance(p - query, metric), i)
        for i, p in enumerate(points)
        if i != exclude
    ]
    dists.sort()
    return [(i, d) for d, i in dists[:k]]


def test_knn_basic_1d():
    ps = PointSet(np.array([0.0, 1.0, 2.0, 10.0]))
    got = knn(ps, 0, 2, exclude_self=True)
    assert [i for i, _ in got] == [1, 2]
    assert [d for _, d in got] == [1.0, 2.0]


def test_linf_distance():
    ps = PointSet(np.array([[0.0, 0.0], [1.0, 2.0]]))
    (_, d), = knn(ps, 0, 1, metric="linf")
    assert d == 2.0


def test_duplicate_tie_order():
    ps = PointSet(np.array([5.0, 5.0, 5.0, 9.0]))
    got = knn(ps, 2, 2, exclude_self=True)
    assert got[0] == (0, 0.0) and got[1] == (1, 0.0)


def test_knn_insufficient_points():
    ps = PointSet(np.array([1.0, 2.0]))
    with pytest.raises(InsufficientPointsError):
        knn(ps, 0, 2, exclude_self=True)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 9999), n=st.integers(5, 80), k=st.integers(1, 4),
       metric=st.sampled_from(METRICS), dup=st.booleans())
def test_knn_matches_brute_force(seed, n, k, metric, dup):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 2))
    if dup:
        pts = np.round(pts, 1)  # heavy ties
    ps = PointSet(pts)
    for qi in rng.choice(n, size=min(5, n), replace=False):
        got = knn(ps, int(qi), k, metric, exclude_self=True)
        want = brute_knn(ps.points, ps.points[qi], k, metric, exclude=int(qi))
        assert [i for i, _ in got] == [i for i, _ in want]
        np.testing.assert_allclose([d for _, d in got], [d for _, d in want],
                                   rtol=1e-12, atol=1e-12)


def test_knn_all_matches_per_point_on_rounded_data():
    rng = np.random.default_rng(1)
    pts = np.round(rng.normal(size=(300, 2)), 1)
    ps = PointSet(pts)
    idx, dist = knn_all(ps, 3, "l2")
    for qi in range(0, 300, 17):
        want = brute_knn(pts, pts[qi], 3, "l2", exclude=qi)
        assert idx[qi].tolist() == [i for i, _ in want]


def test_knn_points_external_queries_with_exclusion():
    rng = np.random.default_rng(2)
    lib = rng.normal(size=(150, 3))
    queries = np.vstack([lib[10:40], rng.normal(size=(20, 3))])
    exclude = np.array([10 + i for i in range(30)] + [-1] * 20)
    idx, dist = knn_points(PointSet(lib), queries, 4, "linf", exclude)
    for row, (q, ex) in enumerate(zip(queries, exclude)):
        want = brute_knn(lib, q, 4, "linf", exclude=int(ex))
        assert idx[row].tolist() == [i for i, _ in want]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 9999), n=st.sampled_from((1, 2, 3, 8, 64, 65, 150)),
       k=st.integers(1, 8), dim=st.integers(1, 3), decimals=st.sampled_from((None, 1, 0)),
       metric=st.sampled_from(METRICS), exclusion=st.sampled_from(("self", "partial", "none")))
@example(seed=0, n=1, k=1, dim=1, decimals=None, metric="l2", exclusion="none")
@example(seed=0, n=66, k=64, dim=2, decimals=0, metric="linf", exclusion="self")
@example(seed=0, n=150, k=8, dim=1, decimals=0, metric="l1", exclusion="partial")
def test_knn_points_matches_scan(seed, n, k, dim, decimals, metric, exclusion):
    # both sides of 64 points, n <= k+2 (every point a candidate), kq == 1,
    # and rounded data whose coincident points can crowd out the excluded one
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, dim))
    if decimals is not None:
        pts = np.round(pts, decimals)
    exclude = {"self": np.arange(n),
               "partial": np.where(rng.random(n) < 0.5, np.arange(n), -1),
               "none": None}[exclusion]
    k = min(k, n - int(exclude is not None and (exclude >= 0).any()))
    assume(k >= 1)
    idx, dist = knn_points(PointSet(pts), pts, k, metric, exclude)
    assert idx.shape == dist.shape == (n, k)
    for row in range(n):
        ex = -1 if exclude is None else int(exclude[row])
        want = brute_knn(pts, pts[row], k, metric, exclude=ex)
        assert idx[row].tolist() == [i for i, _ in want]
        np.testing.assert_allclose(dist[row], [d for _, d in want], rtol=1e-12, atol=1e-12)


def strict_count(points, qi, radius):
    """The KSG counter's number of other points strictly within `radius`
    (max-norm) of point qi."""
    radii = np.zeros(len(points))
    radii[qi] = radius
    return int(_strict_counts(np.asarray(points, dtype=float), radii)[qi])


def test_count_within_examples():
    pts = np.array([[0.0], [0.5], [2.0]])
    assert strict_count(pts, 0, 1.0) == 1
    assert strict_count(pts, 0, 0.0) == 0
    # a point exactly at the radius is out; one ulp further it is in
    assert strict_count(pts, 0, 0.5) == 0
    assert strict_count(pts, 0, np.nextafter(0.5, np.inf)) == 1
    assert strict_count(pts, 0, np.nextafter(2.0, np.inf)) - strict_count(pts, 0, 2.0) == 1


def test_count_within_at_kth_distance():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(200, 2))
    ps = PointSet(pts)
    k = 6
    for qi in (0, 57, 133):
        d_k = knn(ps, qi, k, "linf")[-1][1]
        assert strict_count(pts, qi, d_k) == k - 1
    # ties at the k-th distance push the strict count below k-1
    tied = np.array([[0.0], [1.0], [1.0], [1.0], [5.0]])
    d_k = knn(PointSet(tied), 0, 3, "linf")[-1][1]
    assert d_k == 1.0
    assert strict_count(tied, 0, d_k) == 0


def test_radius_validation():
    with pytest.raises(ValidationError):
        PointSet(np.array([np.nan, 1.0]))


def test_seeded_jitter():
    pts = np.array([[1.0, 5.0]] * 4)
    a = seeded_jitter(pts, 1e-10, seed=0)
    b = seeded_jitter(pts, 1e-10, seed=0)
    c = seeded_jitter(pts, 1e-10, seed=1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.max(np.abs(a - pts)) < 1e-8
