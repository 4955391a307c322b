"""State-space similarity indices and convergent cross mapping."""

from __future__ import annotations

import time
from dataclasses import dataclass, asdict

import numpy as np

from .core import STATUS_DEGENERATE, STATUS_OK, DelayMatrix, IndexEstimate
from .errors import InsufficientPointsError, ValidationError
from .neighbors import Graphs, PointSet, _sum_sq, knn_all, knn_points

_SQDIST_FLOOR = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SiParams:
    R: int = 20

    def __post_init__(self):
        if self.R < 1:
            raise ValidationError("need at least one neighbour")


@dataclass(frozen=True)
class CcmParams:
    """Cross-map settings: n_t random contiguous library segments per size,
    convergence when rho(largest) - rho(smallest) exceeds delta_rho."""

    n_t: int = 40
    delta_rho: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.n_t < 1:
            raise ValidationError("need at least one segment per size")


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


def si_pair(dm: DelayMatrix, p: SiParams = SiParams(), p2: SiParams | None = None,
            graphs: Graphs | None = None) -> tuple[IndexEstimate, IndexEstimate]:
    """Both similarity indices at once: si1 with p.R neighbours, si2 with
    p2.R (default p.R).

    With own-space neighbour distances r^R(t), cross-mapped distances
    r^R(t | other) (distances to the points picked by the *other* series'
    neighbour indices) and the all-points mean r(t):

        si1 = mean log( r(t) / r^R(t | other) )
        si2 = mean log( r^R(t) / r^R(t | other) )

    Squared euclidean distances throughout; identical series give si2 = 0.
    One kNN graph per series at the larger R (read through `graphs`, see
    `neighbors.Graphs`) serves both indices: its first R columns are the R-NN
    graph. When only the larger R does not fit the rows, that index is
    degenerate with NaN values.

    At independence r^R(t | other) is a distance to effectively random
    points, so each direction's value is set by the geometry of its own
    embedding. D = value_xy - value_yx is therefore zero at zero coupling
    only when the two series share their dynamics.
    """
    p2 = p if p2 is None else p2
    n = dm.n_rows
    if n <= min(p.R, p2.R) + 1:
        raise InsufficientPointsError("need more rows than neighbours")
    fitting = sorted({q.R for q in (p, p2) if n > q.R + 1})

    t0 = time.perf_counter()
    graphs = Graphs() if graphs is None else graphs
    idx_x, _ = graphs.read((dm.m, "x"), dm.x_emb, fitting[-1], knn_all)
    idx_y, _ = graphs.read((dm.m, "y"), dm.y_emb, fitting[-1], knn_all)

    def direction(emb, own_idx, mapped_idx, R):
        # mean squared distance to a set of neighbour indices, in emb's space
        def msd(nbr):
            return _sum_sq(emb[:, None, :], emb[nbr[:, :R]]).mean(axis=1)

        r_own = msd(own_idx)
        r_map = msd(mapped_idx)
        r_all = _mean_sq_dist_to_all(emb)
        floored = bool((r_map < _SQDIST_FLOOR).any() or (r_own < _SQDIST_FLOOR).any())
        r_map = np.maximum(r_map, _SQDIST_FLOOR)
        r_own = np.maximum(r_own, _SQDIST_FLOOR)
        si1 = float(np.mean(np.log(r_all / r_map)))
        si2 = float(np.mean(np.log(r_own / r_map)))
        return si1, si2, floored

    values, status = {}, {}  # (name, R) -> (value_xy, value_yx); R -> status
    for R in fitting:
        si1_yx, si2_yx, f1 = direction(dm.x_emb, idx_x, idx_y, R)
        si1_xy, si2_xy, f2 = direction(dm.y_emb, idx_y, idx_x, R)
        values["si1", R] = (si1_xy, si1_yx)
        values["si2", R] = (si2_xy, si2_yx)
        status[R] = STATUS_DEGENERATE if (f1 or f2) else STATUS_OK
    elapsed = (time.perf_counter() - t0) / 4

    def estimate(name, q):
        if q.R not in status:
            return IndexEstimate(name, float("nan"), float("nan"), 0.0, 0.0, {},
                                 STATUS_DEGENERATE)
        params = {"m": dm.spec.m, "tau": dm.spec.tau, "h": dm.spec.h, **asdict(q)}
        return IndexEstimate(name, *values[name, q.R], elapsed, elapsed, params,
                             status[q.R])

    return estimate("si1", p), estimate("si2", p2)


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    sa, sb = a.std(), b.std()
    if sa == 0.0 or sb == 0.0:
        return 0.0
    return float(((a - a.mean()) * (b - b.mean())).mean() / (sa * sb))


def _rho_for_size(emb, target_vals, size, k, n_t, seed, dir_flag, graphs, key):
    """Mean cross-map correlation over n_t seeded random contiguous library
    segments of the given size; the full library is emb's graph `key`."""
    n = emb.shape[0]
    rng = np.random.default_rng([seed, dir_flag, size])
    starts = rng.integers(0, n - size + 1, size=n_t)
    uniq, counts = np.unique(starts, return_counts=True)
    rhos = np.empty(len(uniq))
    row_pos = np.arange(n)
    for i, start in enumerate(uniq):
        if size == n:
            idx, dist = graphs.read(key, emb, k, knn_all)
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


def default_library_sizes(n_rows: int, m: int, n_grid: int = 20) -> list[int]:
    """Geometric ladder of library sizes from m+2 to the full row count."""
    lo, hi = m + 2, n_rows
    if hi <= lo:
        raise InsufficientPointsError("too few rows for any cross-map library")
    sizes = np.unique(np.round(np.geomspace(lo, hi, n_grid)).astype(int))
    return [int(s) for s in sizes]


def ccm_rho_curve(dm: DelayMatrix, p: CcmParams, sizes: list[int], direction: str,
                  graphs: Graphs | None = None) -> list[float]:
    """rho(library size) for one direction ("yx" cross-maps from the x
    manifold and detects Y -> X, per the cross-mapping inversion)."""
    if direction == "yx":
        emb, target, series = dm.x_emb, dm.y_emb[:, -1], "x"
        dir_flag = 0
    elif direction == "xy":
        emb, target, series = dm.y_emb, dm.x_emb[:, -1], "y"
        dir_flag = 1
    else:
        raise ValidationError(f"unknown direction {direction!r}")
    n = dm.n_rows
    k = dm.m + 1
    for size in sizes:
        if not (dm.m + 2 <= size <= n):
            raise ValidationError("library sizes must lie in [m+2, n_rows]")
    graphs = Graphs() if graphs is None else graphs
    return [_rho_for_size(emb, target, size, k, p.n_t, p.seed, dir_flag, graphs, (dm.m, series))
            for size in sizes]


def ccm(dm: DelayMatrix, p: CcmParams = CcmParams(),
        graphs: Graphs | None = None) -> IndexEstimate:
    """Convergent cross mapping, both directions.

    Only the smallest (m+2) and largest (full) library sizes enter the index;
    use ccm_rho_curve for the whole convergence curve. The full library reads
    each series' kNN graph at m+1 through `graphs` (see `neighbors.Graphs`).
    """
    n = dm.n_rows
    if n < dm.m + 3:
        raise InsufficientPointsError("too few rows for cross mapping")
    sizes = [dm.m + 2, n]
    params = {"m": dm.spec.m, "tau": dm.spec.tau, "h": dm.spec.h,
              "T_max": n, **asdict(p)}

    t0 = time.perf_counter()
    curve_yx = ccm_rho_curve(dm, p, sizes, "yx", graphs)
    t1 = time.perf_counter()
    curve_xy = ccm_rho_curve(dm, p, sizes, "xy", graphs)
    t2 = time.perf_counter()

    v_yx = converged_value(curve_yx[0], curve_yx[-1], p.delta_rho)
    v_xy = converged_value(curve_xy[0], curve_xy[-1], p.delta_rho)
    return IndexEstimate("ccm", v_xy, v_yx, t2 - t1, t1 - t0, params, STATUS_OK)
