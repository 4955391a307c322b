"""Regression-error causality indices: local linear (neighbourhood-based),
global RBF, and locally constant predictability improvement."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import (STATUS_DEGENERATE, STATUS_OK, DelayMatrix, IndexEstimate, both_directions,
                   check_integer, sides)
from .errors import InsufficientPointsError, ValidationError
from .neighbors import PointSet, _sum_sq, check_distance_range, distinct_rows, knn_all

# relative floor below which a local self-fit counts as deterministic
_EPS_FLOOR = 1e-13
# Lloyd iterations after which kmeans stops even if assignments still move
_KMEANS_MAX_ITER = 100


@dataclass(frozen=True)
class EgcParams:
    """Locally linear index over L random delta-neighbourhoods (l1 balls in
    the joint space)."""

    L: int = 100
    delta: float = 0.5
    seed: int = 0

    def __post_init__(self):
        check_integer(self.L, "L")
        check_integer(self.seed, "seed", minimum=0)
        if not math.isfinite(self.delta) or self.delta <= 0:
            raise ValidationError("neighbourhood radius must be finite and positive")


@dataclass(frozen=True)
class NlgcParams:
    """Global nonlinear autoregression with P Gaussian RBF kernels per space."""

    P: int = 50
    var: float = 0.05
    seed: int = 0

    def __post_init__(self):
        check_integer(self.P, "P")
        check_integer(self.seed, "seed", minimum=0)
        if not math.isfinite(self.var) or self.var <= 0:
            raise ValidationError("RBF variance must be finite and positive")


@dataclass(frozen=True)
class PiParams:
    """Locally constant predictor over R nearest neighbours.

    include_self=True averages the query point's own future into the
    prediction (an R+1 point mean). The published benchmark magnitudes are
    only reproducible with the self point included, so the simulation
    presets switch it on; the default keeps the plain self-excluded
    predictor.
    """

    R: int = 1
    include_self: bool = False

    def __post_init__(self):
        check_integer(self.R, "R")
        if not isinstance(self.include_self, bool):
            raise ValidationError(f"include_self must be a bool, got {self.include_self!r}")


@dataclass(frozen=True)
class OlsResult:
    coef: np.ndarray = field(repr=False)
    residual_variance: float = 0.0
    rank_deficient: bool = False


def ols_fit(design: np.ndarray, target: np.ndarray) -> OlsResult:
    """Least squares via SVD (minimum-norm under rank deficiency, flagged).

    residual_variance is SSR / n.
    """
    design = np.asarray(design, dtype=float)
    target = np.asarray(target, dtype=float)
    if design.ndim != 2 or design.shape[0] < design.shape[1]:
        raise ValidationError("design must be (n, p) with n >= p")
    if not (np.isfinite(design).all() and np.isfinite(target).all()):
        raise ValidationError("design and target must be finite")
    coef, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    resid = target - design @ coef
    return OlsResult(coef, float(resid @ resid) / design.shape[0],
                     rank < design.shape[1])


def kmeans(points, P: int, seed=0) -> np.ndarray:
    """Seeded k-means: D^2-weighted init, then Lloyd passes until the
    assignment is stable or `_KMEANS_MAX_ITER` have run. A pass recomputes,
    in index order, only the centres whose members changed, each as the mean
    of its members in index order (a slice of a stable sort of the
    assignment), so the centres are the full update's, bit for bit. An empty
    cluster, in its turn, takes the farthest point; the cluster that point
    left is recomputed in this pass if its index is larger, else in the next.
    Points whose squared distances overflow raise DistanceOverflowError."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    check_distance_range(pts)
    if P > len(distinct_rows(pts)[0]):
        raise InsufficientPointsError("P exceeds the number of distinct points")
    rng = np.random.default_rng(seed)

    centers = np.empty((P, pts.shape[1]))
    centers[0] = pts[rng.integers(n)]
    d2 = _sum_sq(pts, centers[0])
    for j in range(1, P):
        total = d2.sum()
        if total > 0:  # rng.choice(n, p=d2 / total)'s draw, without its checks of p
            cdf = (d2 / total).cumsum()
            cdf /= cdf[-1]
            centers[j] = pts[cdf.searchsorted(rng.random(), side="right")]
        else:
            centers[j] = pts[rng.integers(n)]
        d2 = np.minimum(d2, _sum_sq(pts, centers[j]))
    return _lloyd(pts, centers)


def _lloyd(pts: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """`kmeans`' Lloyd passes from these centres, which it updates in place."""
    P, stale, assign = len(centers), np.ones(len(centers), dtype=bool), None
    for _ in range(_KMEANS_MAX_ITER):
        d2_all = _sum_sq(pts[:, None, :], centers)
        new_assign = d2_all.argmin(axis=1).astype(np.min_scalar_type(P - 1))
        if assign is not None:
            moved = new_assign != assign
            stale[assign[moved]] = stale[new_assign[moved]] = True
        if not stale.any():  # every empty cluster's centre is stale
            break
        counts = None
        for j in (j for j in range(P) if stale[j]):  # a re-seed may make a later one stale
            if counts is None:  # group the rows by cluster, again after a re-seed
                counts = np.bincount(new_assign, minlength=P)
                order, ends = np.argsort(new_assign, kind="stable"), np.cumsum(counts)
            stale[j] = False
            if counts[j]:  # rows.mean(axis=0), bit for bit, without its overhead
                rows = pts[order[ends[j] - counts[j]:ends[j]]]
                centers[j] = np.add.reduce(rows, axis=0) / counts[j]
            else:
                far = d2_all.min(axis=1).argmax()
                stale[new_assign[far]], counts = True, None
                centers[j], new_assign[far] = pts[far], j
        if assign is not None and np.array_equal(assign, new_assign):
            break
        assign = new_assign
    return centers


def _local_index(rows, self_design, joint_design, target):
    """1 - eps_joint/eps_self on the given rows (a neighbourhood, or all of
    them); None when the self fit is already (numerically) deterministic."""
    eps_self = ols_fit(self_design[rows], target[rows]).residual_variance
    if eps_self <= _EPS_FLOOR * max(float(target[rows].var()), 1e-30):
        return None
    eps_joint = ols_fit(joint_design[rows], target[rows]).residual_variance
    return float(np.clip(1.0 - eps_joint / eps_self, 0.0, 1.0))


def egc(dm: DelayMatrix, p: EgcParams = EgcParams()) -> IndexEstimate:
    """Local linear error-reduction index averaged over delta-neighbourhoods.

    Neighbourhoods live in the joint embedding space and are shared by both
    directions, so the call's time is one shared cost, split evenly between
    them; a direction is degenerate when no neighbourhood admits a usable
    pair of fits (typical under synchrony).
    """
    n = dm.n_rows
    # smaller neighbourhoods are skipped: the joint fit has 2m + 1 coefficients
    min_pts = max(2 * dm.m + 2, 10)
    z = dm.z_emb
    zset = PointSet(z)

    t0 = time.perf_counter()
    rng = np.random.default_rng(p.seed)
    refs = np.arange(n) if p.L >= n else rng.choice(n, size=p.L, replace=False)
    hoods = zset.tree.query_ball_point(z[refs], r=p.delta, p=1.0)

    ones = np.ones((n, 1))
    design_x = np.hstack([ones, dm.x_emb])
    design_y = np.hstack([ones, dm.y_emb])
    design_z = np.hstack([ones, z])

    vals_yx, vals_xy = [], []
    for hood in hoods:
        rows = np.asarray(hood)
        if len(rows) < min_pts:
            continue
        v = _local_index(rows, design_x, design_z, dm.x_future)
        if v is not None:
            vals_yx.append(v)
        v = _local_index(rows, design_y, design_z, dm.y_future)
        if v is not None:
            vals_xy.append(v)
    elapsed = time.perf_counter() - t0

    v_yx = float(np.mean(vals_yx)) if vals_yx else float("nan")
    v_xy = float(np.mean(vals_xy)) if vals_xy else float("nan")
    status = STATUS_OK if (vals_yx and vals_xy) else STATUS_DEGENERATE
    return IndexEstimate("egc", v_xy, v_yx, elapsed / 2, elapsed / 2, status)


def _rbf_features(emb: np.ndarray, centers: np.ndarray, var: float) -> np.ndarray:
    d2 = _sum_sq(emb[:, None, :], centers)
    return np.exp(-d2 / (2.0 * var))


def nlgc(dm: DelayMatrix, p: NlgcParams = NlgcParams()) -> IndexEstimate:
    """Global RBF error-reduction index.

    Self model: intercept + P Gaussian kernels on the own embedding (centers
    from seeded k-means); joint model appends the other variable's kernels.
    Both directions read the kernels of both series, so the call's time is
    one shared cost, split evenly between them.
    """
    if p.P > dm.n_rows:
        raise InsufficientPointsError("more RBF centers than rows")

    t0 = time.perf_counter()
    feats_x = _rbf_features(dm.x_emb, kmeans(dm.x_emb, p.P, seed=[p.seed, 0]), p.var)
    feats_y = _rbf_features(dm.y_emb, kmeans(dm.y_emb, p.P, seed=[p.seed, 1]), p.var)
    # egc's formula on every row; own kernels before the other's, the column
    # order lstsq's rounding depends on
    design_x = np.hstack([np.ones((dm.n_rows, 1)), feats_x])
    design_y = np.hstack([np.ones((dm.n_rows, 1)), feats_y])
    v_yx = _local_index(slice(None), design_x, np.hstack([design_x, feats_y]), dm.x_future)
    v_xy = _local_index(slice(None), design_y, np.hstack([design_y, feats_x]), dm.y_future)
    elapsed = time.perf_counter() - t0

    status = STATUS_OK if (v_yx is not None and v_xy is not None) else STATUS_DEGENERATE
    return IndexEstimate("nlgc",
                         float("nan") if v_xy is None else v_xy,
                         float("nan") if v_yx is None else v_yx,
                         elapsed / 2, elapsed / 2, status)


def pi(dm: DelayMatrix, p: PiParams = PiParams()) -> IndexEstimate:
    """Predictability improvement: MSE(own-space k-NN predictor) minus
    MSE(joint-space k-NN predictor) for the horizon value; the kNN graphs are
    the matrix's own (`DelayMatrix.knn_graph`). yx reads the joint graph,
    then the x graph, and xy the y graph, so a graph this call builds is
    charged to the direction that reads it first."""
    n = dm.n_rows
    if n <= p.R + 1:
        raise InsufficientPointsError("need more rows than neighbours")
    self_col = np.arange(n)[:, None]

    def mse(neighbor_idx, future):
        if p.include_self:
            neighbor_idx = np.hstack([self_col, neighbor_idx])
        pred = future[neighbor_idx].mean(axis=1)
        return float(((future - pred) ** 2).mean())

    def direction(d):
        own, _ = sides(d)
        idx_z, _ = dm.knn_graph("z", p.R, knn_all)
        idx_own, _ = dm.knn_graph(own, p.R, knn_all)
        return mse(idx_own, dm.future(own)) - mse(idx_z, dm.future(own))

    (v_xy, t_xy), (v_yx, t_yx) = both_directions(direction)
    return IndexEstimate("pi", v_xy, v_yx, t_xy, t_yx)
