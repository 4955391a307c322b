"""Exact nearest-neighbour queries with deterministic tie-breaking.

All queries are Euclidean and run one exact algorithm (`knn_points`; `knn`
is one member's row of it and `knn_all` the whole set's, each member's own
point excluded, as every estimator here wants): a kd-tree pre-selects k+1
candidates per row (plus the excluded member), a stable argsort of the
package's own distances orders them (rows holding an exact equal pair by
(distance, index)), and rows whose cut at k is a near-tie take every point
within their k-th candidate distance, from one ball query per block of such
rows. A set no larger than the candidate count takes the same path: the
tree returns all of it. Ties in distance always go to the smaller point
index, so every row is in exact (distance, index) order, also on rounded
data, and the first j columns of a graph at k > j are the j-graph:
`core.DelayMatrix.knn_graph` shares one graph per embedding between
estimators on that prefix property.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np
from scipy.spatial import cKDTree

from .errors import DistanceOverflowError, InsufficientPointsError, ValidationError

# distances this close (relative) are treated as tied and resolved exactly
_TIE_RTOL = 1e-9
# tie rows per ball query; bounds the Python candidate lists held at once
_TIE_BLOCK = 256


def _sum_sq(a: np.ndarray, b: np.ndarray | None = None, rows=...) -> np.ndarray:
    """Sum over the last axis of (a[rows] - b)**2, or of a[rows]**2 without
    b; a[rows] and b broadcast against each other.

    The squares are added one coordinate at a time, in order (out = c0*c0;
    out += c1*c1; ...), so no (..., d) array of gathered rows (`rows` may be
    an index array), differences or squares is made. numpy adds a reduction
    over a contiguous axis shorter than 8 in the same order, so for fewer
    than 8 coordinates this equals `((a[rows] - b) ** 2).sum(axis=-1)` bit
    for bit. From 8 coordinates on numpy sums pairwise and the two may differ
    in the last bit; this stays the package's one squared-distance formula
    there too (every preset embeds at most 4 columns).
    """
    def square(j):
        c = a[rows, j] if b is None else a[rows, j] - b[..., j]
        return c * c

    out = square(0)
    for j in range(1, a.shape[-1]):
        out += square(j)
    return out


def pairwise_distance(a: np.ndarray, b: np.ndarray | None = None, rows=...) -> np.ndarray:
    """Euclidean distance between a[rows] and b along the last axis, or the
    length of a[rows] without b (a difference array).

    This is the package's single decisive distance formula: kd-trees only
    pre-select candidates, and any ordering or tie decision is made on these
    values, keeping tie-breaking reproducible across query paths.

    It is the square root of `_sum_sq`, which adds the squared coordinates
    one at a time, in order; for fewer than 8 coordinates that equals
    `np.sqrt((diff * diff).sum(axis=-1))` exactly, because numpy adds so
    short a contiguous axis in the same order.
    """
    return np.sqrt(_sum_sq(a, b, rows))


def check_distance_range(points: np.ndarray):
    """DistanceOverflowError unless n times the squared diagonal of the n
    points' bounding box is finite, which bounds every sum of up to n of
    their squared distances (the kd-tree drops overflowed neighbours)."""
    with np.errstate(over="ignore", invalid="ignore"):
        bound = len(points) * _sum_sq(np.ptp(points, axis=0))
    if not np.isfinite(bound):
        raise DistanceOverflowError("squared distances between the points overflow")


@dataclass(frozen=True, eq=False)
class PointSet:
    """Immutable set of fixed-dimension points, queried via a shared kd-tree."""

    points: np.ndarray = field(repr=False)
    _tree: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValidationError("points must be a non-empty (n, d) array")
        if not np.isfinite(pts).all():
            raise ValidationError("points must be finite")
        check_distance_range(pts)
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def tree(self) -> cKDTree:
        if self._tree is None:
            object.__setattr__(self, "_tree", cKDTree(self.points))
        return self._tree


def knn(pset: PointSet, query_index: int, k: int) -> list[tuple[int, float]]:
    """k nearest neighbours of one member point, itself excluded, sorted by
    ascending distance with ties broken by smaller index: row 0 of
    `knn_points`."""
    if (isinstance(query_index, bool) or not isinstance(query_index, (int, np.integer))
            or not 0 <= query_index < pset.n):
        raise ValidationError(f"query index must be an integer in [0, {pset.n})")
    idx, dist = knn_points(pset, pset.points[[query_index]], k, [query_index])
    return [(int(i), float(d)) for i, d in zip(idx[0], dist[0])]


def knn_points(pset: PointSet, queries: np.ndarray, k: int,
               exclude_index: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Bulk k-NN of arbitrary query points against `pset`.

    exclude_index[i] >= 0 removes that member index from query i's candidates
    (self-exclusion when the queries live in the set), -1 none; a non-finite
    query, or other than one entry in [-1, n) per query, is a ValidationError.
    Returns (indices, distances) of shape (n_queries, k), each row in exact
    (distance, index) order: the tree's k+1 candidates (plus the excluded
    member, at most the whole set) in a stable argsort, with rows that hold
    an exact equal pair lexsorted, and rows tied across the cut at k settled
    by a ball query.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    nq = queries.shape[0]
    if not np.isfinite(queries).all():
        raise ValidationError("queries must be finite")
    if exclude_index is None:
        exclude_index = np.full(nq, -1, dtype=int)
    exclude_index = np.asarray(exclude_index, dtype=int)
    if exclude_index.shape != (nq,) or ((exclude_index < -1) | (exclude_index >= pset.n)).any():
        raise ValidationError(f"exclude_index needs one entry in [-1, {pset.n}) per query")
    max_excluded = int((exclude_index >= 0).any())
    if k + max_excluded > pset.n:
        raise InsufficientPointsError(f"asked for {k} neighbours of {pset.n} points")

    kq = min(k + max_excluded + 1, pset.n)
    # a range keeps the result 2-D even when kq is 1
    idx = pset.tree.query(queries, k=range(1, kq + 1))[1]
    if (idx == pset.n).any():  # the tree's index of a neighbour it lost to overflow
        raise DistanceOverflowError("squared distances to a query overflow")
    # decisive distances come from the package formula, not the tree's
    dist = pairwise_distance(pset.points, queries[:, None, :], idx)
    dist[idx == exclude_index[:, None]] = np.inf
    order = np.argsort(dist, axis=-1, kind="stable")
    dist = np.take_along_axis(dist, order, axis=-1)
    idx = np.take_along_axis(idx, order, axis=-1)
    # the tree lists equal distances in its own order, so rows holding an
    # exact equal pair are re-sorted by (distance, index)
    eq = np.nonzero((dist[:, 1:] == dist[:, :-1]).any(axis=1))[0]
    idx[eq] = np.take_along_axis(idx[eq], np.lexsort((idx[eq], dist[eq]), axis=-1), axis=-1)
    out_idx, out_dist = idx[:, :k], dist[:, :k]
    # (near-)tie across the cut: the tree pre-selection may rank ulp-level
    # ties either way, so these rows take every point within their k-th
    # candidate distance. An excluded member the tree left out is no nearer
    # than any retrieved point, so it cannot be among the k. A row with no
    # candidate beyond the cut (kq == k: every point retrieved, none
    # excluded) cannot tie.
    tie = (np.nonzero(dist[:, k] - dist[:, k - 1] <= _TIE_RTOL * dist[:, k])[0]
           if kq > k else [])
    for start in range(0, len(tie), _TIE_BLOCK):
        rows = tie[start:start + _TIE_BLOCK]
        radius = dist[rows, k - 1]
        # widened: the tree's arithmetic may disagree with pairwise_distance
        # by an ulp, and a dropped boundary point would shrink the set
        radius = radius + np.maximum(1e-12, 1e-6 * radius)
        balls = pset.tree.query_ball_point(queries[rows], r=radius, return_sorted=True)
        # the block's candidates in one array, row by row, each row's
        # candidates in index order
        lens = [len(ball) for ball in balls]
        cand = np.fromiter(chain.from_iterable(balls), dtype=np.intp, count=sum(lens))
        slot = np.repeat(np.arange(len(rows)), lens)
        keep = cand != exclude_index[rows[slot]]
        cand, slot = cand[keep], slot[keep]
        d = pairwise_distance(pset.points, queries[rows[slot]], cand)
        # by row, then distance; lexsort is stable, so equal distances keep
        # the index order. Each row has at least k candidates.
        order = np.lexsort((d, slot))
        chosen = order[np.searchsorted(slot, np.arange(len(rows)))[:, None] + np.arange(k)]
        out_idx[rows], out_dist[rows] = cand[chosen], d[chosen]
    return out_idx, out_dist


def knn_all(pset: PointSet, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k nearest neighbours of every member point against its own set, each
    point itself excluded."""
    return knn_points(pset, pset.points, k, np.arange(pset.n))


def seeded_jitter(points: np.ndarray, scale: float, seed) -> np.ndarray:
    """Add seeded Gaussian jitter, amplitude scale x per-column std.

    Constant columns get absolute amplitude `scale`, and points that fail
    `check_distance_range` raise DistanceOverflowError. Used by neighbour
    estimators to break exact distance ties on discretised data.
    """
    pts = np.asarray(points, dtype=float)
    check_distance_range(pts)
    rng = np.random.default_rng(seed)
    amp = np.where(pts.std(axis=0) == 0.0, 1.0, pts.std(axis=0))
    return pts + rng.normal(0.0, 1.0, size=pts.shape) * (scale * amp)
