import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.spatial import cKDTree

from bicausal import harness
from bicausal.core import EmbeddingSpec, embed
from bicausal.errors import InsufficientPointsError, ValidationError
from bicausal.info import _strict_counts, _tree_counts
from bicausal.neighbors import (
    PointSet,
    _sum_sq,
    knn,
    knn_all,
    knn_points,
    pairwise_distance,
    seeded_jitter,
)

def brute_knn(points, query, k, exclude=-1):
    """Independent O(n) scan; ties resolved by (distance, index)."""
    dists = [
        (float(np.sqrt(((p - query) ** 2).sum())), i)
        for i, p in enumerate(points)
        if i != exclude
    ]
    dists.sort()
    return [(i, d) for d, i in dists[:k]]


@pytest.mark.parametrize("data", ["random", "rounded", "small", "large"])
@pytest.mark.parametrize("d", range(1, 8))
def test_coordinate_sums_equal_numpy_reductions(d, data):
    # the kernels add one coordinate at a time; numpy adds a contiguous axis
    # shorter than 8 in the same order, so the results must agree bit for bit
    # (this pins that numpy behaviour for the build under test)
    rng = np.random.default_rng(d)
    a, b = rng.normal(size=(2, 300, d))
    if data == "rounded":
        a, b = np.round(a, 1), np.round(b, 1)
    scale = {"small": 1e-3, "large": 1e3}.get(data, 1.0)
    a, b = a * scale, b * scale
    diff = a[:, None, :] - b[None, :40, :]
    assert np.array_equal(_sum_sq(diff), (diff * diff).sum(axis=-1))
    assert np.array_equal(_sum_sq(a[:, None, :], b[:40]), (diff ** 2).sum(axis=-1))
    assert np.array_equal(_sum_sq(a, b[0]), ((a - b[0]) ** 2).sum(axis=-1))
    assert np.array_equal(pairwise_distance(diff), np.sqrt((diff * diff).sum(axis=-1)))


def test_knn_basic_1d():
    ps = PointSet(np.array([0.0, 1.0, 2.0, 10.0]))
    got = knn(ps, 0, 2)
    assert [i for i, _ in got] == [1, 2]
    assert [d for _, d in got] == [1.0, 2.0]


def test_duplicate_tie_order():
    ps = PointSet(np.array([5.0, 5.0, 5.0, 9.0]))
    got = knn(ps, 2, 2)
    assert got[0] == (0, 0.0) and got[1] == (1, 0.0)


def test_knn_insufficient_points():
    ps = PointSet(np.array([1.0, 2.0]))
    with pytest.raises(InsufficientPointsError):
        knn(ps, 0, 2)


@pytest.mark.parametrize("query_index", [-1, 4, 1.0, True, "0"])
def test_knn_bad_query_index(query_index):
    # -1 used to wrap to point 3 and return it as its own neighbour
    ps = PointSet(np.array([0.0, 1.0, 2.0, 10.0]))
    with pytest.raises(ValidationError):
        knn(ps, query_index, 2)


@pytest.mark.parametrize("k", [0, -1])
@pytest.mark.parametrize("call", [
    lambda ps, k: knn(ps, 0, k),
    lambda ps, k: knn_all(ps, k),
    lambda ps, k: knn_points(ps, ps.points[:2], k),
], ids=["knn", "knn_all", "knn_points"])
def test_k_below_one(call, k):
    # knn_all(ps, 0) used to return (n, 0) arrays and k = -1 an IndexError
    with pytest.raises(ValidationError):
        call(PointSet(np.array([0.0, 1.0, 2.0, 10.0])), k)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 9999), n=st.integers(5, 80), k=st.integers(1, 4),
       dup=st.booleans())
def test_knn_matches_brute_force(seed, n, k, dup):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 2))
    if dup:
        pts = np.round(pts, 1)  # heavy ties
    ps = PointSet(pts)
    for qi in rng.choice(n, size=min(5, n), replace=False):
        got = knn(ps, int(qi), k)
        want = brute_knn(ps.points, ps.points[qi], k, exclude=int(qi))
        assert [i for i, _ in got] == [i for i, _ in want]
        np.testing.assert_allclose([d for _, d in got], [d for _, d in want],
                                   rtol=1e-12, atol=1e-12)


def test_knn_all_matches_per_point_on_rounded_data():
    rng = np.random.default_rng(1)
    pts = np.round(rng.normal(size=(300, 2)), 1)
    ps = PointSet(pts)
    idx, dist = knn_all(ps, 3)
    for qi in range(0, 300, 17):
        want = brute_knn(pts, pts[qi], 3, exclude=qi)
        assert idx[qi].tolist() == [i for i, _ in want]


def test_knn_points_external_queries_with_exclusion():
    rng = np.random.default_rng(2)
    lib = rng.normal(size=(150, 3))
    queries = np.vstack([lib[10:40], rng.normal(size=(20, 3))])
    exclude = np.array([10 + i for i in range(30)] + [-1] * 20)
    idx, dist = knn_points(PointSet(lib), queries, 4, exclude)
    for row, (q, ex) in enumerate(zip(queries, exclude)):
        want = brute_knn(lib, q, 4, exclude=int(ex))
        assert idx[row].tolist() == [i for i, _ in want]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 9999), n=st.sampled_from((1, 2, 3, 8, 64, 65, 150)),
       k=st.integers(1, 8), dim=st.integers(1, 3), decimals=st.sampled_from((None, 1, 0)),
       exclusion=st.sampled_from(("self", "partial", "none")))
# n=1, k=1 retrieves every point with none beyond the cut: no tie test
@example(seed=0, n=1, k=1, dim=1, decimals=None, exclusion="none")
@example(seed=0, n=66, k=64, dim=2, decimals=0, exclusion="self")
@example(seed=0, n=150, k=8, dim=1, decimals=0, exclusion="partial")
@example(seed=0, n=600, k=20, dim=2, decimals=0, exclusion="self")
def test_knn_points_matches_scan(seed, n, k, dim, decimals, exclusion):
    # both sides of 64 points, n <= k+2 (every point a candidate), kq == 1,
    # rounded data whose coincident points can crowd out the excluded one,
    # and more tie rows than one ball-query block holds (n=600)
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, dim))
    if decimals is not None:
        pts = np.round(pts, decimals)
    exclude = {"self": np.arange(n),
               "partial": np.where(rng.random(n) < 0.5, np.arange(n), -1),
               "none": None}[exclusion]
    k = min(k, n - int(exclude is not None and (exclude >= 0).any()))
    assume(k >= 1)
    idx, dist = knn_points(PointSet(pts), pts, k, exclude)
    assert idx.shape == dist.shape == (n, k)
    for row in range(n):
        ex = -1 if exclude is None else int(exclude[row])
        want = brute_knn(pts, pts[row], k, exclude=ex)
        assert idx[row].tolist() == [i for i, _ in want]
        np.testing.assert_allclose(dist[row], [d for _, d in want], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("decimals", [None, 1])
@pytest.mark.parametrize("size", ["m+2", "m+4"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_knn_points_ccm_smallest_library(m, size, decimals):
    # cross mapping's library shapes: m+2 points (every point a candidate)
    # and m+4, k = m+1, 10^3 queries of which the library's own rows exclude
    # themselves. With an excluded member the tree pre-selects k+2 = m+3
    # candidates, so m+4 points is the smallest library where it drops some
    rng = np.random.default_rng(m)
    queries = rng.normal(size=(1000, m))
    if decimals is not None:
        queries = np.round(queries, decimals)
    start, n_lib = 500, m + 2 + 2 * (size == "m+4")
    lib = queries[start:start + n_lib]
    rows = np.arange(1000)
    exclude = np.where((rows >= start) & (rows < start + n_lib), rows - start, -1)
    pset = PointSet(lib)
    idx, dist = knn_points(pset, queries, m + 1, exclude)
    if size == "m+4" and decimals is None:
        assert pset._tree is not None  # no tie rows: the tree pre-selected
    for row in range(1000):
        want = brute_knn(lib, queries[row], m + 1, exclude=int(exclude[row]))
        assert idx[row].tolist() == [i for i, _ in want]
        np.testing.assert_allclose(dist[row], [d for _, d in want], rtol=1e-12, atol=1e-12)


def exact_neighbors_per_row(pset, queries, k, exclude_index):
    """The earlier per-row tie resolution, applied to every row: a k-NN
    query bounds the k-th distance, a radius query around it takes every
    candidate, and a stable sort of the sorted candidates breaks ties by
    index."""
    out_idx, out_dist = [], []
    for query, exclude in zip(queries, exclude_index):
        kq = min(k + (1 if exclude >= 0 else 0), pset.n)
        d_cand, _ = pset.tree.query(query, k=kq)
        radius = float(np.max(d_cand))
        radius += max(1e-12, 1e-6 * radius)
        cand = np.array(sorted(pset.tree.query_ball_point(query, r=radius)), dtype=int)
        if exclude >= 0:
            cand = cand[cand != exclude]
        dist = pairwise_distance(pset.points[cand] - query)
        chosen = np.argsort(dist, kind="stable")[:k]
        out_idx.append(cand[chosen])
        out_dist.append(dist[chosen])
    return np.array(out_idx), np.array(out_dist)


@pytest.mark.parametrize("decimals", [1, 0])
@pytest.mark.parametrize("simulation,T,point,k", [
    ("ulam", 1000, (0.4, 0.0), 20),
    ("lp", 2000, (0.0, 0.3), 30),
])
def test_knn_points_equals_per_row_resolution_on_rounded_embeddings(simulation, T, point, k,
                                                                    decimals):
    # rounded delay embeddings send most rows through the tie path; the
    # blocked ball queries must give the per-row resolution's rows exactly
    pair = harness.simulate_pair(simulation, point, T, seed=0)
    dm = embed(pair, EmbeddingSpec(m=harness.index_presets(simulation, T)["m"]))
    rng = np.random.default_rng(0)
    for emb in (dm.x_emb, dm.z_emb):
        pts = np.round(emb, decimals)
        pset, n = PointSet(pts), len(pts)
        for exclude in (np.arange(n), np.where(rng.random(n) < 0.5, np.arange(n), -1),
                        np.full(n, -1)):
            got = knn_points(pset, pts, k, exclude)
            want = exact_neighbors_per_row(pset, pts, k, exclude)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])


def lexsort_knn_points(pset, queries, k, exclude_index):
    """The full-lexsort ordering `knn_points` had before its stable argsort:
    the same candidates, every row ordered by `lexsort((idx, dist))`, and
    rows tied across the cut resolved per row."""
    nq = len(queries)
    exclude_index = np.full(nq, -1) if exclude_index is None else np.asarray(exclude_index)
    kq = min(k + int((exclude_index >= 0).any()) + 1, pset.n)
    if kq == pset.n:
        idx = np.broadcast_to(np.arange(pset.n), (nq, pset.n))
    else:
        _, idx = pset.tree.query(queries, k=range(1, kq + 1))
    dist = pairwise_distance(pset.points[idx] - queries[:, None, :])
    dist[idx == exclude_index[:, None]] = np.inf
    order = np.lexsort((idx, dist), axis=-1)
    dist = np.take_along_axis(dist, order, axis=-1)
    idx = np.take_along_axis(idx, order, axis=-1)
    out_idx, out_dist = idx[:, :k].copy(), dist[:, :k].copy()
    if kq < pset.n:
        tie = np.nonzero(dist[:, k] - dist[:, k - 1] <= 1e-9 * dist[:, k])[0]
        if len(tie):
            out_idx[tie], out_dist[tie] = exact_neighbors_per_row(
                pset, queries[tie], k, exclude_index[tie])
    return out_idx, out_dist


def ordering_cases():
    """(points, queries, k, exclude) sets: random, rounded, hand-built exact
    ties and cross mapping's every-point-a-candidate libraries."""
    rng = np.random.default_rng(7)
    for dim in (1, 2, 3):
        pts = rng.normal(size=(400, dim))
        for decimals in (None, 1, 0):
            rounded = pts if decimals is None else np.round(pts, decimals)
            n = len(rounded)
            for exclude in (np.arange(n), np.where(rng.random(n) < 0.5, np.arange(n), -1),
                            None):
                for k in (1, 3, 10):
                    yield rounded, rounded, k, exclude
    # exact ties inside the first k with none across the cut: a query at the
    # centre of a symmetric set, whose mirror points are equally far
    grid = np.array([[x, y] for x in range(-3, 4) for y in range(-3, 4)], dtype=float)
    for perm_seed in range(5):
        pts = grid[np.random.default_rng(perm_seed).permutation(len(grid))]
        yield pts, np.zeros((1, 2)), 5, None  # 4 at distance 1, then 4 at sqrt 2
        yield pts, pts, 4, np.arange(len(pts))
    # the m+2 and m+4 point libraries of CCM's smallest library size
    for m in (1, 2, 3):
        queries = np.round(rng.normal(size=(300, m)), 1)
        rows = np.arange(300)
        for n_lib in (m + 2, m + 4):
            lib = queries[100:100 + n_lib]
            inside = (rows >= 100) & (rows < 100 + n_lib)
            yield lib, queries, m + 1, np.where(inside, rows - 100, -1)


def test_knn_points_matches_full_lexsort_ordering():
    # the stable argsort re-sorts only rows with an exact equal pair (and no
    # row when every point is a candidate); outputs must equal a full
    # (distance, index) lexsort of every row
    for pts, queries, k, exclude in ordering_cases():
        pset = PointSet(pts)
        got = knn_points(pset, queries, k, exclude)
        want = lexsort_knn_points(pset, queries, k, exclude)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("decimals", [None, 1, 0])
@pytest.mark.parametrize("simulation,T,point", [
    ("ulam", 1000, (0.4, 0.0)),
    ("lp", 2000, (0.0, 0.3)),
])
def test_knn_all_prefix_is_smaller_graph(simulation, T, point, decimals):
    # pi, si and ccm read prefixes of one graph per series: the first j
    # columns of the 30-graph must be the j-graph, indices and distances
    pair = harness.simulate_pair(simulation, point, T, seed=0)
    m = harness.index_presets(simulation, T)["m"]
    dm = embed(pair, EmbeddingSpec(m=m))
    for emb in (dm.x_emb, dm.y_emb, dm.z_emb):
        pset = PointSet(emb if decimals is None else np.round(emb, decimals))
        idx, dist = knn_all(pset, 30)
        for j in sorted({1, 2, m + 1, 10, 20}):
            want_idx, want_dist = knn_all(pset, j)
            assert np.array_equal(idx[:, :j], want_idx)
            assert np.array_equal(dist[:, :j], want_dist)


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


def kth_max_norm_distance(points, qi, k):
    """Distance from point qi to its k-th nearest other point, max-norm."""
    return np.sort(np.delete(np.abs(points - points[qi]).max(axis=1), qi))[k - 1]


def test_count_within_at_kth_distance():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(200, 2))
    k = 6
    for qi in (0, 57, 133):
        d_k = kth_max_norm_distance(pts, qi, k)
        assert strict_count(pts, qi, d_k) == k - 1
    # ties at the k-th distance push the strict count below k-1
    tied = np.array([[0.0], [1.0], [1.0], [1.0], [5.0]])
    d_k = kth_max_norm_distance(tied, 0, 3)
    assert d_k == 1.0
    assert strict_count(tied, 0, d_k) == 0


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 9999), n=st.integers(2, 300), dim=st.sampled_from((1, 2)),
       decimals=st.sampled_from((None, 1, 0)), scale=st.sampled_from((1e-3, 1.0, 1e3)),
       radius=st.sampled_from(("pair", "pair_up", "pair_down", "zeros", "knn4")))
@example(seed=0, n=2, dim=1, decimals=0, scale=1.0, radius="pair")
@example(seed=1, n=300, dim=2, decimals=0, scale=1.0, radius="knn4")
def test_strict_counts_match_tree(seed, n, dim, decimals, scale, radius):
    # radii on the tree's own boundary: actual pairwise max-norm distances,
    # their neighbouring floats, zeros, and KSG's k-th neighbour distances
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, dim))
    if decimals is not None:
        pts = np.round(pts, decimals)
    pts = pts * scale
    dist = np.abs(pts - pts[rng.integers(0, n, size=n)]).max(axis=1)
    if radius == "pair_up":
        dist = np.nextafter(dist, np.inf)
    elif radius == "pair_down":
        dist = np.nextafter(dist, -np.inf)
    elif radius == "zeros":
        dist[rng.random(n) < 0.5] = 0.0
    elif radius == "knn4":
        dist = cKDTree(pts).query(pts, k=[min(4, n - 1) + 1], p=np.inf)[0][:, 0]
    assert np.array_equal(_strict_counts(pts, dist), _tree_counts(pts, dist))


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
