"""Exact nearest-neighbour queries with deterministic tie-breaking.

All queries are Euclidean and run one exact algorithm (`knn_points`; `knn`
is one member's row of it and `knn_all` the whole set's, each member's own
point excluded, as every estimator here wants). It searches the set's U
distinct rows (`distinct_rows`): all n points of raw data, a few dozen of
data rounded to 0 decimals. A kd-tree over them pre-selects k+1 distinct
candidates per query (plus one for an excluded member), a stable argsort of
the package's own distances orders them, and each candidate stands for its
coincident members in index order. Queries whose cut at k is a near-tie take
every distinct row within their cut distance, from one ball query per block
of such queries. Each row is then ordered by (distance, member index) and
drops its excluded member. `knn_all` makes one query per distinct row, shared
by the row's members, so a graph costs what its distinct values cost.

Ties in distance always go to the smaller point index, so every row is in
exact (distance, index) order, also on rounded data, and the first j columns
of a graph at k > j are the j-graph: `core.DelayMatrix.knn_graph` shares one
graph per embedding between estimators on that prefix property.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

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


def distinct_rows(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of n >= 1 finite (n, d) points, as (first, inverse):
    first[u] is the smallest index of distinct row u, the rows numbered in
    order of first occurrence, and points[i] equals points[first[inverse[i]]].

    A stable `np.lexsort` brings equal rows together, each run in index order,
    without `np.unique(axis=0)`'s sort of the rows as records. As in
    `np.unique`, -0.0 and 0.0 are one value. With no two rows equal, first
    and inverse are both `arange(n)`, which is all that a sort of the first
    coordinate, far cheaper than the lexsort, needs to show when it has no
    two values equal (raw data).
    """
    head = np.sort(points[:, 0])
    if (head[1:] != head[:-1]).all():
        return np.arange(len(points)), np.arange(len(points))
    order = np.lexsort(points.T)
    rows = points[order]
    new = np.ones(len(points), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    first = order[new]
    rank = np.argsort(first)
    label = np.empty(len(first), dtype=np.intp)
    label[rank] = np.arange(len(first))
    inverse = np.empty(len(points), dtype=np.intp)
    inverse[order] = label[np.cumsum(new) - 1]
    return first[rank], inverse


class Distinct(NamedTuple):
    """A point set's U distinct rows (`distinct_rows`) and their members."""

    rows: np.ndarray     # (U, d), numbered by first occurrence
    first: np.ndarray    # (U,) smallest member index of each row
    inverse: np.ndarray  # (n,) distinct row of each member
    counts: np.ndarray   # (U,) members per row
    members: np.ndarray  # (n,) member indices, row by row, each row's in index order
    starts: np.ndarray   # (U,) where each row's members begin in `members`
    tree: cKDTree        # over `rows`


@dataclass(frozen=True, eq=False)
class PointSet:
    """Immutable set of fixed-dimension points, queried via a shared kd-tree."""

    points: np.ndarray = field(repr=False)
    _tree: object = field(default=None, init=False, repr=False, compare=False)
    _distinct: object = field(default=None, init=False, repr=False, compare=False)

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
        """kd-tree over all n points, member indices as its indices."""
        if self._tree is None:
            object.__setattr__(self, "_tree", cKDTree(self.points))
        return self._tree

    @property
    def distinct(self) -> Distinct:
        """The distinct rows, whose kd-tree the k-NN queries search; with no
        two points equal the rows are the points and the tree is `tree`."""
        if self._distinct is None:
            first, inverse = distinct_rows(self.points)
            counts = np.bincount(inverse)
            if len(first) == self.n:
                rows, tree = self.points, self.tree
            else:
                rows = self.points[first]
                tree = cKDTree(rows)
            object.__setattr__(self, "_distinct", Distinct(
                rows, first, inverse, counts, np.argsort(inverse, kind="stable"),
                np.cumsum(counts) - counts, tree))
        return self._distinct


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
    (distance, index) order: the first k + 1 members of the set in that
    order when some query excludes one (`_ordered`, which searches the
    set's distinct rows and expands them to their members), less the
    excluded member, else the first k.
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
    excluded = bool((exclude_index >= 0).any())
    idx, dist = _ordered(pset, queries, _width(pset, k, excluded))
    return _drop(idx, dist, exclude_index) if excluded else (idx, dist)


def knn_all(pset: PointSet, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k nearest neighbours of every member point against its own set, each
    point itself excluded: `knn_points(pset, pset.points, k, arange(n))`.
    Coincident members share one query, from their distinct row, and each
    drops itself from that row's first k + 1 members."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    g = pset.distinct
    idx, dist = _ordered(pset, g.rows, _width(pset, k, True))
    if len(g.rows) < pset.n:  # else the distinct rows are the points
        idx, dist = idx[g.inverse], dist[g.inverse]
    return _drop(idx, dist, np.arange(pset.n))


def _width(pset: PointSet, k: int, excluded: bool) -> int:
    """k, plus one where a query excludes a member; InsufficientPointsError
    beyond the set's n points."""
    if k + excluded > pset.n:
        raise InsufficientPointsError(f"asked for {k} neighbours of {pset.n} points")
    return k + excluded


def _drop(idx: np.ndarray, dist: np.ndarray, exclude_index: np.ndarray):
    """Each row less its excluded member, or less its last entry where it
    holds none (-1 excludes nothing); a row holds a member at most once."""
    keep = idx != exclude_index[:, None]
    keep[keep.all(axis=1), -1] = False
    k = idx.shape[1] - 1
    return idx[keep].reshape(-1, k), dist[keep].reshape(-1, k)


def _ordered(pset: PointSet, queries: np.ndarray, kk: int) -> tuple[np.ndarray, np.ndarray]:
    """(indices, distances) of the first kk <= n members of `pset` for each
    query, in exact (distance, index) order.

    The search runs on the U distinct rows (`PointSet.distinct`): coincident
    members have the same coordinates (-0.0 and 0.0 square alike), so
    `pairwise_distance` gives each of them the same bits. The tree
    pre-selects kk+1 distinct candidates (at most all U) and a stable argsort
    of their package distances orders them; the cut is the first candidate
    whose member count, added to its predecessors', reaches kk. A query whose
    first kk candidates are single members, the kk-th nearer than the next,
    reads them as they are, with rows holding an exact equal pair re-sorted
    by (distance, index): with U = n nearly every query. The others expand
    every candidate as far as the cut's distance, or, where the last
    candidate is a near-tie with the cut, every distinct row within it from a
    ball query (`_expand`).
    """
    g = pset.distinct
    U, nq = len(g.rows), len(queries)
    kq = min(kk + 1, U)
    # a range keeps the result 2-D even when kq is 1
    cand = g.tree.query(queries, k=range(1, kq + 1))[1]
    if (cand == U).any():  # the tree's index of a neighbour it lost to overflow
        raise DistanceOverflowError("squared distances to a query overflow")
    # decisive distances come from the package formula, not the tree's
    dist = pairwise_distance(g.rows, queries[:, None, :], cand)
    order = np.argsort(dist, axis=-1, kind="stable")
    dist = np.take_along_axis(dist, order, axis=-1)
    cand = np.take_along_axis(cand, order, axis=-1)
    # rows whose first kk candidates are single members are read as they
    # are; the others cut at the first candidate whose members, added to its
    # predecessors', reach kk
    if U == pset.n:  # every candidate a single member, and kq >= kk
        single = np.ones(nq, dtype=bool)
    else:
        single = (g.counts[cand[:, :kk]] == 1).all(axis=1) if kq >= kk else np.zeros(nq, bool)
    cut = np.full(nq, kk - 1)
    rest = np.nonzero(~single)[0]
    cut[rest] = (np.cumsum(g.counts[cand[rest]], axis=1) < kk).sum(axis=1)
    d_cut = np.take_along_axis(dist, cut[:, None], axis=1)
    # the candidates as far as the cut's distance hold the first kk members,
    # unless a distinct row the tree left out is as near: it is no nearer than
    # the last candidate, up to the tree's ulp-level arithmetic, so rows whose
    # last candidate is a (near-)tie with the cut take every distinct row
    # within the cut's distance from a ball query. With every distinct row a
    # candidate, none is left out.
    last = (dist <= d_cut).sum(axis=1) - 1
    d_cut = d_cut[:, 0]
    tie = dist[:, -1] - d_cut <= _TIE_RTOL * dist[:, -1] if kq < U else np.zeros(nq, bool)
    single &= ~tie & (last == cut)

    if kq >= kk:  # else no row is single
        out_idx = cand[:, :kk] if U == pset.n else g.first[cand[:, :kk]]
        out_dist = dist[:, :kk]
        # the tree lists equal distances in its own order, so single rows
        # holding an exact equal pair are re-sorted by (distance, index)
        eq = np.nonzero(single & (out_dist[:, 1:] == out_dist[:, :-1]).any(axis=1))[0]
        out_idx[eq] = np.take_along_axis(
            out_idx[eq], np.lexsort((out_idx[eq], out_dist[eq]), axis=-1), axis=-1)
    else:
        out_idx, out_dist = np.empty((nq, kk), dtype=np.intp), np.empty((nq, kk))

    rows = np.nonzero(~single & ~tie)[0]
    upto = np.arange(kq) <= last[rows, None]
    _expand(g, rows, np.nonzero(upto)[0], cand[rows][upto], dist[rows][upto], kk,
            out_idx, out_dist)
    tie = np.nonzero(tie)[0]
    for start in range(0, len(tie), _TIE_BLOCK):
        rows = tie[start:start + _TIE_BLOCK]
        radius = d_cut[rows]
        # widened: the tree's arithmetic may disagree with pairwise_distance
        # by an ulp, and a dropped boundary row would shrink the set
        radius = radius + np.maximum(1e-12, 1e-6 * radius)
        balls = g.tree.query_ball_point(queries[rows], r=radius)
        lens = [len(ball) for ball in balls]
        slot = np.repeat(np.arange(len(rows)), lens)
        ball = np.fromiter(chain.from_iterable(balls), dtype=np.intp, count=len(slot))
        d = pairwise_distance(g.rows, queries[rows[slot]], ball)
        order = np.lexsort((d, slot))
        _expand(g, rows, slot[order], ball[order], d[order], kk, out_idx, out_dist)
    return out_idx, out_dist


def _expand(g: Distinct, rows, slot, cand, dist, kk, out_idx, out_dist):
    """Write the first kk members, in (distance, index) order, of query
    rows[s]'s distinct candidates cand[slot == s] at distances dist[slot == s]
    into out_idx[rows[s]] and out_dist[rows[s]]. The candidates come in
    (slot, distance) order and each row's cover at least kk members; no
    member past a candidate's kk-th can be among them, so each expands to at
    most kk, in index order. Members of equally far candidates interleave by
    index, also at distance 0 between distinct rows, where a squared
    difference underflows."""
    if len(rows) == 0:
        return
    take = np.minimum(g.counts[cand], kk)
    ends = np.cumsum(take)
    at = np.repeat(g.starts[cand] - (ends - take), take) + np.arange(ends[-1])
    member, dist, slot = g.members[at], np.repeat(dist, take), np.repeat(slot, take)
    # equally far candidates interleave their members: a stable sort by run of
    # equal (slot, distance), then member, which leaves most entries in place
    run = np.cumsum(np.r_[True, (slot[1:] != slot[:-1]) | (dist[1:] != dist[:-1])])
    order = np.argsort(run * len(g.members) + member, kind="stable")
    chosen = order[np.searchsorted(slot, np.arange(len(rows)))[:, None] + np.arange(kk)]
    out_idx[rows], out_dist[rows] = member[chosen], dist[chosen]


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
