"""Exact nearest-neighbour queries with deterministic tie-breaking.

All queries are exact: a kd-tree pre-selects candidates, the package's own
distance formula orders them, and rows whose cut at k is a near-tie are
resolved by a radius query. Ties in distance are always resolved toward the
smaller point index so that every downstream estimator is deterministic,
including on rounded/discretised data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import InsufficientPointsError, ValidationError

_MINKOWSKI = {"l1": 1.0, "l2": 2.0, "linf": np.inf}

# distances this close (relative) are treated as tied and resolved exactly
_TIE_RTOL = 1e-9


def metric_p(metric: str) -> float:
    try:
        return _MINKOWSKI[metric]
    except KeyError:
        raise ValidationError(f"unknown metric {metric!r}; expected one of {sorted(_MINKOWSKI)}")


def pairwise_distance(diff: np.ndarray, p: float) -> np.ndarray:
    """Distance along the last axis of a difference array.

    This is the package's single decisive distance formula: kd-trees only
    pre-select candidates, and any ordering or tie decision is made on these
    values, keeping tie-breaking reproducible across query paths.
    """
    if p == 1.0:
        return np.abs(diff).sum(axis=-1)
    if p == 2.0:
        return np.sqrt((diff * diff).sum(axis=-1))
    return np.abs(diff).max(axis=-1)


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
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def tree(self) -> cKDTree:
        if self._tree is None:
            object.__setattr__(self, "_tree", cKDTree(self.points))
        return self._tree


def _exact_neighbors(pset: PointSet, query: np.ndarray, k: int, p: float,
                     exclude: int) -> tuple[np.ndarray, np.ndarray]:
    """k nearest points of `query`, ordered by (distance, index), optionally
    excluding one point index. Exact under arbitrary ties."""
    # upper bound on the k-th distance: any k+1 candidates suffice
    kq = min(k + (1 if exclude >= 0 else 0), pset.n)
    d_cand, _ = pset.tree.query(query, k=kq, p=p)
    radius = float(np.max(d_cand))
    # inflate: the tree's arithmetic may disagree with pairwise_distance by
    # an ulp, and a dropped boundary point would silently shrink the set
    radius += max(1e-12, 1e-6 * radius)
    cand = pset.tree.query_ball_point(query, r=radius, p=p)
    cand = np.array(sorted(cand), dtype=int)
    if exclude >= 0:
        cand = cand[cand != exclude]
    dist = pairwise_distance(pset.points[cand] - query, p)
    order = np.argsort(dist, kind="stable")  # stable => ties by ascending index
    chosen = order[:k]
    return cand[chosen], dist[chosen]


def knn(pset: PointSet, query_index: int, k: int, metric: str = "l2",
        exclude_self: bool = True) -> list[tuple[int, float]]:
    """k nearest neighbours of one member point, sorted by ascending
    distance with ties broken by smaller index."""
    p = metric_p(metric)
    if k < 1:
        raise ValidationError("k must be >= 1")
    available = pset.n - 1 if exclude_self else pset.n
    if k > available:
        raise InsufficientPointsError(f"asked for {k} neighbours, only {available} available")
    q = pset.points[query_index]
    idx, dist = _exact_neighbors(pset, q, k, p, query_index if exclude_self else -1)
    return [(int(i), float(d)) for i, d in zip(idx, dist)]


def knn_points(pset: PointSet, queries: np.ndarray, k: int, metric: str = "l2",
               exclude_index: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Bulk k-NN of arbitrary query points against `pset`.

    exclude_index[i] >= 0 removes that member index from query i's candidates
    (use it for self-exclusion when the queries live in the set). Returns
    (indices, distances) of shape (n_queries, k), each row in exact
    (distance, index) order.
    """
    p = metric_p(metric)
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    nq = queries.shape[0]
    if exclude_index is None:
        exclude_index = np.full(nq, -1, dtype=int)
    else:
        exclude_index = np.asarray(exclude_index, dtype=int)
    max_excluded = int((exclude_index >= 0).any())
    if k + max_excluded > pset.n:
        raise InsufficientPointsError(f"asked for {k} neighbours of {pset.n} points")

    kq = min(k + max_excluded + 1, pset.n)
    # a range keeps the result 2-D even when kq is 1
    _, idx = pset.tree.query(queries, k=range(1, kq + 1), p=p)
    # decisive distances come from the package formula, not the tree's
    dist = pairwise_distance(pset.points[idx] - queries[:, None, :], p)
    dist[idx == exclude_index[:, None]] = np.inf
    order = np.lexsort((idx, dist), axis=-1)
    dist = np.take_along_axis(dist, order, axis=-1)
    idx = np.take_along_axis(idx, order, axis=-1)
    out_idx, out_dist = idx[:, :k], dist[:, :k]
    if kq < pset.n:
        # (near-)tie across the cut: the tree pre-selection may rank
        # ulp-level ties either way, so membership is resolved exactly. An
        # excluded member the tree left out is no nearer than any retrieved
        # point, so it cannot be among the k and needs no case of its own.
        # With kq == n every point is a candidate and no row is ambiguous.
        for i in np.nonzero(dist[:, k] - dist[:, k - 1] <= _TIE_RTOL * dist[:, k])[0]:
            out_idx[i], out_dist[i] = _exact_neighbors(
                pset, queries[i], k, p, exclude_index[i])
    return out_idx, out_dist


def knn_all(pset: PointSet, k: int, metric: str = "l2",
            exclude_self: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """k nearest neighbours of every member point against its own set."""
    exclude = np.arange(pset.n) if exclude_self else None
    return knn_points(pset, pset.points, k, metric, exclude)


def seeded_jitter(points: np.ndarray, scale: float, seed) -> np.ndarray:
    """Add seeded Gaussian jitter, amplitude scale x per-column std.

    Constant columns get absolute amplitude `scale`. Used by neighbour-based
    estimators to break exact distance ties on discretised data.
    """
    pts = np.asarray(points, dtype=float)
    rng = np.random.default_rng(seed)
    amp = np.where(pts.std(axis=0) == 0.0, 1.0, pts.std(axis=0))
    return pts + rng.normal(0.0, 1.0, size=pts.shape) * (scale * amp)
