"""State-space similarity indices and convergent cross mapping."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (STATUS_DEGENERATE, STATUS_OK, DelayMatrix, IndexEstimate, both_directions,
                   check_integer, sides)
from .errors import InsufficientPointsError, ValidationError
from .neighbors import (PointSet, _sum_sq, check_distance_range, knn_all, knn_points,
                        pairwise_distance)

_SQDIST_FLOOR = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SiParams:
    R: int = 20

    def __post_init__(self):
        check_integer(self.R, "R")


@dataclass(frozen=True)
class CcmParams:
    """Cross-map settings: n_t random contiguous library segments per size,
    convergence when rho(largest) - rho(smallest) exceeds delta_rho."""

    n_t: int = 40
    delta_rho: float = 0.05
    seed: int = 0

    def __post_init__(self):
        check_integer(self.n_t, "n_t")
        check_integer(self.seed, "seed", minimum=0)
        if not math.isfinite(self.delta_rho):
            raise ValidationError("delta_rho must be finite")


def _mean_sq_dist_to_all(emb: np.ndarray) -> np.ndarray:
    """Mean squared euclidean distance from each point to all others,
    via the moment identity (no n^2 matrix).

    The identity subtracts terms of the size of |x|^2, so the points are
    centred on their mean first: distances do not change, and a large
    offset of the data no longer cancels away their precision."""
    n = emb.shape[0]
    emb = emb - emb.mean(axis=0)
    sq = _sum_sq(emb)
    total = n * sq + sq.sum() - 2.0 * emb @ emb.sum(axis=0)
    return total / (n - 1)


def si_pair(dm: DelayMatrix, p: SiParams = SiParams()) -> tuple[IndexEstimate, IndexEstimate]:
    """Both similarity indices with p.R neighbours, (si1, si2).

    With own-space neighbour distances r^R(t), cross-mapped distances
    r^R(t | other) (distances to the points picked by the *other* series'
    neighbour indices) and the all-points mean r(t):

        si1 = mean log( r(t) / r^R(t | other) )
        si2 = mean log( r^R(t) / r^R(t | other) )

    Squared euclidean distances throughout; identical series give si2 = 0.
    Both estimates are degenerate when a direction floors a neighbour
    distance at machine epsilon, or has an r(t) of 0 or one not finite, where
    its si1 is NaN.
    Each series' R-NN graph is the first R columns of the matrix's own graph
    (`DelayMatrix.knn_graph`). Both estimates come from this one call and
    carry its per-direction times: yx reads the x graph, then the y graph,
    so a graph this call builds is charged to yx.

    At independence r^R(t | other) is a distance to effectively random
    points, so each direction's value is set by the geometry of its own
    embedding. D = value_xy - value_yx is therefore zero at zero coupling
    only when the two series share their dynamics.
    """
    if dm.n_rows <= p.R + 1:
        raise InsufficientPointsError("need more rows than neighbours")

    def direction(d):
        own, other = sides(d)
        own_idx, _ = dm.knn_graph(own, p.R, knn_all)
        mapped_idx, _ = dm.knn_graph(other, p.R, knn_all)
        emb = dm.emb(own)

        # mean squared distance to a set of neighbour indices, in emb's space
        def msd(nbr):
            return _sum_sq(emb, emb[:, None, :], nbr).mean(axis=1)

        r_own = msd(own_idx)
        r_map = msd(mapped_idx)
        r_all = _mean_sq_dist_to_all(emb)
        # no spread (a constant series, or one whose squares underflow): si1
        # has no value, where its log would be of 0
        spread = bool(np.isfinite(r_all).all() and (r_all > 0).all())
        floored = bool((r_map < _SQDIST_FLOOR).any() or (r_own < _SQDIST_FLOOR).any())
        r_map = np.maximum(r_map, _SQDIST_FLOOR)
        r_own = np.maximum(r_own, _SQDIST_FLOOR)
        si1 = float(np.mean(np.log(r_all / r_map))) if spread else math.nan
        si2 = float(np.mean(np.log(r_own / r_map)))
        return si1, si2, floored or not spread

    ((si1_xy, si2_xy, f_xy), t_xy), ((si1_yx, si2_yx, f_yx), t_yx) = both_directions(direction)
    status = STATUS_DEGENERATE if (f_yx or f_xy) else STATUS_OK
    return (IndexEstimate("si1", si1_xy, si1_yx, t_xy, t_yx, status),
            IndexEstimate("si2", si2_xy, si2_yx, t_xy, t_yx, status))


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    sa, sb = a.std(), b.std()
    if sa == 0.0 or sb == 0.0:
        return 0.0
    return float(((a - a.mean()) * (b - b.mean())).mean() / (sa * sb))


def _smallest_library_knn(emb, start, k):
    """k nearest neighbours of every row of emb among the k+1 library rows
    from `start`, each library row excluding itself: distances to every
    library point, a stable argsort (equal distances to the smaller library
    position) and its first k columns, as `knn_points` returns them."""
    lib = emb[start:start + k + 1]
    dist = pairwise_distance(lib, emb[:, None, :])
    own = np.arange(k + 1)
    dist[start + own, own] = np.inf
    idx = np.argsort(dist, axis=-1, kind="stable")[:, :k]
    return idx, np.take_along_axis(dist, idx, axis=-1)


def _rho_for_size(dm, series, target_vals, size, k, n_t, seed):
    """Mean cross-map correlation over n_t seeded random contiguous library
    segments of the given size from the "x" or "y" embedding of dm; the full
    library is that embedding's kNN graph, and the smallest (k+1 = m+2
    points) ranks its own points (`_smallest_library_knn`)."""
    emb = dm.emb(series)
    n = emb.shape[0]
    # the segments are seeded by the library's series: x 0, y 1
    rng = np.random.default_rng([seed, "xy".index(series), size])
    starts = rng.integers(0, n - size + 1, size=n_t)
    uniq, counts = np.unique(starts, return_counts=True)
    rhos = np.empty(len(uniq))
    row_pos = np.arange(n)
    for i, start in enumerate(uniq):
        if size == n:
            idx, dist = dm.knn_graph(series, k, knn_all)
        elif size == k + 1:
            idx, dist = _smallest_library_knn(emb, start, k)
        else:
            lib = emb[start:start + size]
            inside = (row_pos >= start) & (row_pos < start + size)
            exclude = np.where(inside, row_pos - start, -1)
            idx, dist = knn_points(PointSet(lib), emb, k, exclude_index=exclude)
        d1 = dist[:, :1]
        with np.errstate(invalid="ignore", divide="ignore"):
            u = np.exp(-dist / d1)
        u[d1[:, 0] == 0.0] = 1.0  # equal weights when the nearest hit is exact
        w = u / u.sum(axis=1, keepdims=True)
        estimates = (w * target_vals[start + idx]).sum(axis=1)
        rhos[i] = _pearson(estimates, target_vals)
    return float(np.average(rhos, weights=counts))


def converged_value(rho_start: float, rho_end: float, delta_rho: float) -> float:
    """The cross-map index: rho at the largest library if convergence holds,
    else zero."""
    return float(rho_end) if (rho_end - rho_start) > delta_rho else 0.0


def ccm_rho_curve(dm: DelayMatrix, p: CcmParams, sizes: list[int],
                  direction: str) -> list[float]:
    """rho(library size) for one direction ("yx" cross-maps from the x
    manifold and detects Y -> X, per the cross-mapping inversion)."""
    own, other = sides(direction)
    target = dm.emb(other)[:, -1]
    n = dm.n_rows
    k = dm.m + 1
    for size in sizes:
        if not (dm.m + 2 <= size <= n):
            raise ValidationError("library sizes must lie in [m+2, n_rows]")
    # checked before the smallest library's distances or rho's squares overflow
    check_distance_range(np.column_stack([dm.emb(own), target]))
    return [_rho_for_size(dm, own, target, size, k, p.n_t, p.seed) for size in sizes]


def ccm(dm: DelayMatrix, p: CcmParams = CcmParams()) -> IndexEstimate:
    """Convergent cross mapping, both directions.

    Only the smallest (m+2) and largest (full) library sizes enter the index;
    use ccm_rho_curve for the whole convergence curve. The full library reads
    the first m+1 columns of each series' kNN graph (`DelayMatrix.knn_graph`),
    and the smallest ranks its own m+2 points, so ccm makes no `knn_points`
    call.
    """
    n = dm.n_rows
    if n < dm.m + 3:
        raise InsufficientPointsError("too few rows for cross mapping")

    (curve_xy, t_xy), (curve_yx, t_yx) = both_directions(ccm_rho_curve, dm, p, [dm.m + 2, n])
    return IndexEstimate("ccm", converged_value(curve_xy[0], curve_xy[-1], p.delta_rho),
                         converged_value(curve_yx[0], curve_yx[-1], p.delta_rho), t_xy, t_yx)
