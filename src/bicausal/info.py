"""Histogram and k-NN information-theoretic causality estimators.

Transfer entropy via plug-in histogram entropies or via the k-nearest-
neighbour conditional mutual information estimate (max-norm, digamma
counts with strict radii), the shuffle-corrected effective variant, and
the coarse-grained transinformation rate: the k-NN transfer entropy
averaged over the horizons of m=1 delay matrices. Everything is reported
in nats. Every estimator here reads delay matrices: ctir reads te_ksg's
horizon-1 matrix and embeds its further horizons from the matrix's own
series and spec, so missing samples are dropped by `embed`'s row rule only.

The k-NN estimators count, per point, the other points strictly within its
k-th neighbour distance in each marginal space (`_strict_counts`). For one-
and two-column marginals the counts come from rank windows over the sorted
columns: each window edge starts at a `searchsorted` guess and is stepped to
where the kd-tree's own test fl(|x_j - x_i|) < r changes, which is monotone
in x_j, so the counts equal the tree's exactly. Two columns add an integer
rectangle count over the two rank orders. Marginals of three or more columns
use the kd-tree ball count (`_tree_counts`).

The histogram estimators compute one direction at a time through
`core.both_directions`. te_ksg and ctir read k-NN terms, one per (direction,
horizon), that the delay matrix keeps (`DelayMatrix.ksg_terms`): te_ksg its
horizon-1 terms, ctir horizons 1..tau_max, so a read computes only the terms
not yet kept. The calling thread and the unit's `helper` executor, if any,
draw the missing terms one at a time; the work releases the GIL, and values
do not depend on which thread drew a term.
"""

from __future__ import annotations

import copy
import threading
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import digamma

from .core import (
    SIDES,
    STATUS_DEGENERATE,
    STATUS_OK,
    DelayMatrix,
    IndexEstimate,
    beside,
    both_directions,
    check_integer,
    embed,
    sides,
)
from .errors import BicausalError, InsufficientDataError, InsufficientPointsError, ValidationError
from .neighbors import seeded_jitter

# amplitude of the tie-breaking jitter, relative to each column's std
_JITTER_SCALE = 1e-10


@dataclass(frozen=True)
class HistParams:
    """Equal-width binning with N bins per scalar dimension."""

    N: int = 8

    def __post_init__(self):
        check_integer(self.N, "N", minimum=2)


@dataclass(frozen=True)
class KsgParams:
    """k-NN estimator settings; the seed drives the jitter that breaks exact
    distance ties."""

    k: int = 4
    seed: int = 0

    def __post_init__(self):
        check_integer(self.k, "k")
        check_integer(self.seed, "seed", minimum=0)


@dataclass(frozen=True)
class EteParams:
    n_shuffle: int = 10
    seed: int = 0

    def __post_init__(self):
        check_integer(self.n_shuffle, "n_shuffle")
        check_integer(self.seed, "seed", minimum=0)


@dataclass(frozen=True)
class CtirParams(KsgParams):
    """te_ksg's settings plus the largest horizon averaged over."""

    tau_max: int = 5

    def __post_init__(self):
        super().__post_init__()
        check_integer(self.tau_max, "tau_max")


# ---------------------------------------------------------------------------
# histogram machinery


def hist_entropy(samples: np.ndarray, edges: list[np.ndarray]) -> float:
    """Plug-in Shannon entropy (nats) over the product bins defined by
    per-dimension edge arrays. Values exactly on the upper edge fall into
    the last bin; interior edges are right-open."""
    pts = np.asarray(samples, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[0] == 0:
        raise InsufficientDataError("cannot bin an empty sample")
    if pts.shape[1] != len(edges):
        raise ValidationError("one edge array per dimension required")
    codes = np.zeros(pts.shape[0], dtype=np.int64)
    for d, e in enumerate(edges):
        e = np.asarray(e, dtype=float)
        v = pts[:, d]
        if v.min() < e[0] or v.max() > e[-1]:
            raise ValidationError("edges do not cover the sample range")
        idx = np.searchsorted(e, v, side="right") - 1
        np.clip(idx, 0, len(e) - 2, out=idx)
        codes = codes * (len(e) - 1) + idx
    _, counts = np.unique(codes, return_counts=True)
    freq = counts / pts.shape[0]
    return float(-(freq * np.log(freq)).sum())


def _equal_width_edges(values: np.ndarray, n_bins: int) -> np.ndarray | None:
    lo, hi = float(values.min()), float(values.max())
    if hi <= lo:
        return None
    return np.linspace(lo, hi, n_bins + 1)


def _te_hist_one(cond_emb, src_emb, fut, cond_edge, src_edge):
    """TE = H(cond, fut) + H(cond, src) - H(cond) - H(cond, src, fut)."""
    m = cond_emb.shape[1]
    e_c = [cond_edge] * m
    e_s = [src_edge] * src_emb.shape[1]
    h_cf = hist_entropy(np.column_stack([cond_emb, fut]), e_c + [cond_edge])
    h_cs = hist_entropy(np.column_stack([cond_emb, src_emb]), e_c + e_s)
    h_c = hist_entropy(cond_emb, e_c)
    h_csf = hist_entropy(np.column_stack([cond_emb, src_emb, fut]), e_c + e_s + [cond_edge])
    return h_cf + h_cs - h_c - h_csf


def _te_hist_direction(dm: DelayMatrix, N: int, direction: str) -> float | None:
    """Histogram TE of one direction ("yx": Y -> X, "xy": X -> Y) over N
    equal-width bins per variable; None when either series is constant."""
    own, other = sides(direction)
    edges = {s: _equal_width_edges(np.concatenate([dm.emb(s).ravel(), dm.future(s)]), N)
             for s in ("x", "y")}
    if edges["x"] is None or edges["y"] is None:
        return None
    return _te_hist_one(dm.emb(own), dm.emb(other), dm.future(own), edges[own], edges[other])


def te_hist(dm: DelayMatrix, p: HistParams = HistParams()) -> IndexEstimate:
    """Histogram transfer entropy, both directions.

    Bin edges are N equal-width bins per variable spanning that variable's
    observed range in the delay matrix, so the estimate is exactly invariant
    under increasing affine maps of either series.

    The plug-in bias grows with the number of occupied cells, which follows
    each series' own dynamics. When the two marginal dynamics differ (e.g.
    AR(1) persistences 0.8 and 0.4), the two directions carry different bias
    and D != 0 at zero coupling; `ete_hist` is the shuffle-corrected form.
    """
    (v_xy, t_xy), (v_yx, t_yx) = both_directions(_te_hist_direction, dm, p.N)
    if v_yx is None or v_xy is None:
        return IndexEstimate("te_hist", float("nan"), float("nan"), status=STATUS_DEGENERATE)
    return IndexEstimate("te_hist", v_xy, v_yx, t_xy, t_yx)


def ete_hist(dm: DelayMatrix, p: HistParams = HistParams(),
             e: EteParams = EteParams()) -> IndexEstimate:
    """Effective transfer entropy: TE minus its mean over seeded whole-series
    permutations of the source variable (applied before re-embedding); a
    shuffle whose series is constant makes the estimate degenerate."""
    base = te_hist(dm, p)
    if base.status != STATUS_OK:
        return IndexEstimate("ete_hist", float("nan"), float("nan"), status=base.status)
    rng = np.random.default_rng(e.seed)
    perms = [rng.permutation(dm.source.T) for _ in range(e.n_shuffle)]

    def shuffled_mean(direction: str) -> float | None:
        source = sides(direction)[1]
        vals = []
        for perm in perms:
            pair = replace(dm.source, **{source: getattr(dm.source, source)[perm]})
            vals.append(_te_hist_direction(embed(pair, dm.spec), p.N, direction))
        return None if None in vals else float(np.mean(vals))

    (s_xy, t_xy), (s_yx, t_yx) = both_directions(shuffled_mean)
    if s_yx is None or s_xy is None:
        return IndexEstimate("ete_hist", float("nan"), float("nan"), status=STATUS_DEGENERATE)
    return IndexEstimate("ete_hist", base.value_xy - s_xy, base.value_yx - s_yx,
                         base.elapsed_xy + t_xy, base.elapsed_yx + t_yx)


# ---------------------------------------------------------------------------
# k-NN (max-norm, digamma-count) machinery


def _as_columns(arr) -> np.ndarray:
    if arr is None:
        return np.empty((0, 0))
    a = np.asarray(arr, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    return a


def _has_ties(data: np.ndarray) -> bool:
    for col in data.T:
        if len(np.unique(col)) < len(col):
            return True
    return False


def _prefix_end(s: np.ndarray, edge: np.ndarray, inside) -> np.ndarray:
    """Step each guess `edge[q]` to the exact end of the true prefix of
    `inside(q, j)`, a mask that is monotone (true, then false) over the sorted
    positions j of `s`. Each step jumps a whole run of tied values."""
    n = len(s)
    q = np.flatnonzero(edge < n)
    while q.size:
        q = q[inside(q, edge[q])]
        edge[q] = np.searchsorted(s, s[edge[q]], side="right")
        q = q[edge[q] < n]
    q = np.flatnonzero(edge > 0)
    while q.size:
        q = q[~inside(q, edge[q] - 1)]
        edge[q] = np.searchsorted(s, s[edge[q] - 1], side="left")
        q = q[edge[q] > 0]
    return edge


def _rank_windows(col: np.ndarray, radii: np.ndarray):
    """Sort order of `col` and, for the point at each sorted position q, the
    window [lo, hi) of sorted positions j with fl(|s_j - s_q|) < r, where s is
    `col` sorted and r that point's radius."""
    order = np.argsort(col)
    s, r = col[order], radii[order]
    # fl(s_q - s_j) and fl(s_j - s_q) are monotone in s_j, so each window edge
    # is the end of a monotone prefix, a few distinct values from s_q -/+ r
    lo = _prefix_end(s, np.searchsorted(s, s - r, side="right"),
                     lambda q, j: s[q] - s[j] >= r[q])
    hi = _prefix_end(s, np.searchsorted(s, s + r, side="left"),
                     lambda q, j: s[j] - s[q] < r[q])
    return order, lo, hi


def _range_counts(seq: np.ndarray, start, stop, low, high) -> np.ndarray:
    """Per query, #{p in [start, stop) : low <= seq[p] < high}, for `seq` a
    permutation of range(n). A wavelet matrix: one stable bit partition of
    `seq` per level, most significant bit first, O((n + queries) log n)."""
    n, m = len(seq), len(start)
    s, e = np.concatenate([start, start]), np.concatenate([stop, stop])
    x = np.concatenate([high, low])
    less = np.zeros(2 * m, dtype=np.int64)  # per query, #{p in [s, e): seq[p] < x}
    zeros = np.zeros(n + 1, dtype=np.int64)
    pos = np.arange(n)
    for level in range(n.bit_length() - 1, -1, -1):
        one = (seq >> level) & 1
        np.cumsum(1 - one, out=zeros[1:])
        nz = zeros[-1]
        # where x has a 1 bit, the range's 0-bit values are all below x;
        # the range then moves into the 0 or 1 part of the next level
        x_one = (x >> level) & 1
        zs, ze = zeros[s], zeros[e]
        less += x_one * (ze - zs)
        s = zs + x_one * (nz + s - 2 * zs)
        e = ze + x_one * (nz + e - 2 * ze)
        z = zeros[:-1]
        nxt = np.empty_like(seq)
        nxt[z + one * (nz + pos - 2 * z)] = seq
        seq = nxt
    return less[:m] - less[m:]


def _strict_counts(points: np.ndarray, radii: np.ndarray, cols=None,
                   windows: dict | None = None) -> np.ndarray:
    """Per-point count of *other* points strictly within each radius
    (max-norm distance fl(|x_j - x_i|) < r_i) in the columns `cols` of
    `points` (all of them by default); 0 where the radius is 0.

    One or two columns count from each column's rank windows
    (`_window_counts`). The windows are exact, not v -/+ r: the edges are
    stepped to where the kd-tree's own test fl(|x_j - x_i|) < r changes, and
    that test is monotone in x_j on each side of x_i, so the counts equal
    `_tree_counts`'s. Three or more columns use `_tree_counts`.

    `windows` maps a column of `points` to its rank windows at these radii
    and is filled as columns are windowed, so calls that pass the same dict
    (the marginals of one estimate) window each column once.
    """
    cols = list(range(points.shape[1])) if cols is None else cols
    if len(cols) > 2:
        return _tree_counts(points[:, cols], radii)
    windows = {} if windows is None else windows
    for j in cols:
        if j not in windows:
            windows[j] = _rank_windows(points[:, j], radii)
    return _window_counts([windows[j] for j in cols], radii)


def _window_counts(windows: list, radii: np.ndarray) -> np.ndarray:
    """`_strict_counts` from the `_rank_windows` of one or two columns.

    One column: a rank window [lo, hi) over the sorted values, counting
    hi - lo - 1. Two columns: a point is counted when its rank in each
    column lies in that column's window, which `_range_counts` counts over
    the column-0 ranks taken in column-1 order.
    """
    n = len(radii)
    counts = np.empty(n, dtype=np.int64)
    order0, lo0, hi0 = windows[0]
    if len(windows) == 1:
        counts[order0] = hi0 - lo0 - 1
    else:
        order1, lo1, hi1 = windows[1]
        rank0 = np.empty(n, dtype=np.int64)
        rank0[order0] = np.arange(n)
        own = rank0[order1]  # column-0 rank of the point at each column-1 position
        counts[order1] = _range_counts(own, lo1, hi1, lo0[own], hi0[own]) - 1
    return np.where(radii > 0.0, counts, 0)


def _tree_counts(points: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """`_strict_counts` by kd-tree ball counts at the radius shrunk by one ulp."""
    tree = cKDTree(points)
    counts = np.zeros(len(points), dtype=np.int64)
    pos = radii > 0.0
    if pos.any():
        shrunk = np.nextafter(radii[pos], -np.inf)
        counts[pos] = tree.query_ball_point(points[pos], r=shrunk, p=np.inf,
                                            return_length=True) - 1
    return counts


def _cmi_ksg_impl(a, b, c, p: KsgParams) -> tuple[float, bool]:
    """Returns (estimate, degenerate). Degenerate means both marginal strict
    counts saturated below k: the estimator hit its resolution ceiling."""
    A, B, C = _as_columns(a), _as_columns(b), _as_columns(c)
    n = A.shape[0]
    if B.shape[0] != n or (C.size and C.shape[0] != n):
        raise ValidationError("sample blocks must be aligned")
    # checked before jitter, trees and sorts: argsort and < order NaN silently
    for name, blk in (("a", A), ("b", B), ("c", C)):
        if not np.isfinite(blk).all():
            raise ValidationError(f"block {name} holds a NaN or infinite value")
    if p.k >= n:
        raise InsufficientPointsError("k must be smaller than the sample count")
    if not (A.std(axis=0).any() and B.std(axis=0).any()):
        # a constant block carries no information; jittered noise would only
        # fake an estimate
        return float("nan"), True

    blocks = [blk for blk in (A, B, C) if blk.size]
    joint = np.hstack(blocks)
    if _has_ties(joint):
        joint = seeded_jitter(joint, _JITTER_SCALE, p.seed)
    dims = [blk.shape[1] for blk in (A, B, C)]

    d_k = cKDTree(joint).query(joint, k=[p.k + 1], p=np.inf)[0][:, 0]
    a_cols = list(range(dims[0]))
    b_cols = list(range(dims[0], dims[0] + dims[1]))
    c_cols = list(range(dims[0] + dims[1], joint.shape[1]))
    windows = {}  # shared by the marginals: each column is windowed once
    n_ac = _strict_counts(joint, d_k, a_cols + c_cols, windows)
    n_bc = _strict_counts(joint, d_k, b_cols + c_cols, windows)
    if c_cols:
        n_c = _strict_counts(joint, d_k, c_cols, windows)
    else:
        n_c = np.where(d_k > 0.0, n - 1, 0)

    value = float(digamma(p.k) - np.mean(digamma(n_ac + 1) + digamma(n_bc + 1)
                                         - digamma(n_c + 1)))
    degenerate = bool(n_ac.mean() < p.k and n_bc.mean() < p.k)
    return value, degenerate


def cmi_ksg(a, b, c=None, p: KsgParams = KsgParams()) -> float:
    """Conditional mutual information I(a; b | c) in nats by the k-NN method.

    With c empty this reduces to the plain k-NN mutual information. Seeded
    jitter is applied automatically when any coordinate contains duplicate
    values. Saturated inputs (e.g. a == b exactly) stay finite, plateauing
    near digamma(n) - digamma(k); a constant a or b block is degenerate and
    yields NaN. A NaN or infinite value in any block raises ValidationError
    naming the block.
    """
    return _cmi_ksg_impl(a, b, c, p)[0]


def _ksg_term(dm: DelayMatrix, p: KsgParams, direction: str, tau: int) -> tuple:
    """(value, degenerate, seconds) of one direction's k-NN TE term at horizon
    tau: on `dm`, or on its source embedded at that horizon, dropped after."""
    t0 = time.perf_counter()
    lag = dm if tau == 1 else embed(dm.source, replace(dm.spec, h=tau))
    own, other = sides(direction)
    value, degenerate = _cmi_ksg_impl(lag.future(own), lag.emb(other), lag.emb(own), p)
    return value, degenerate, time.perf_counter() - t0


def _ksg_estimate(index: str, dm: DelayMatrix, p: KsgParams, tau_max: int,
                  helper) -> IndexEstimate:
    """Each direction's mean term over horizons 1..tau_max (`dm.ksg_terms`),
    timed by the sum of its terms' seconds. The calling thread and `helper`
    draw the missing terms from one list (`core.beside`); a BicausalError is
    kept, ends the drawing, and is raised once both threads have stopped."""
    kept = dm.ksg_terms.setdefault((p.k, p.seed), {})
    wanted = [(d, tau) for tau in range(1, tau_max + 1) for d in SIDES]
    pending, lock = [key for key in wanted if key not in kept], threading.Lock()

    def draw():
        with lock:
            return pending.pop(0) if pending else None

    def drain():
        while key := draw():
            try:
                kept[key] = _ksg_term(dm, p, *key)
            except BicausalError as exc:
                kept[key] = exc.with_traceback(None)
                with lock:
                    pending.clear()

    if pending:  # so that a read of kept terms never waits behind the helper's queue
        beside(helper, drain, drain)
    error = next((kept[key] for key in wanted if isinstance(kept[key], BicausalError)), None)
    if error is not None:  # raised as a copy, so that no traceback ties `dm` into a cycle
        raise copy.copy(error)
    (v_xy, deg_xy, t_xy), (v_yx, deg_yx, t_yx) = (
        (float(np.mean(v)), any(g), sum(s))
        for v, g, s in (zip(*(kept[d, tau] for tau in range(1, tau_max + 1))) for d in SIDES))
    status = STATUS_DEGENERATE if (deg_yx or deg_xy) else STATUS_OK
    return IndexEstimate(index, v_xy, v_yx, t_xy, t_yx, status)


def te_ksg(dm: DelayMatrix, p: KsgParams = KsgParams(), helper=None) -> IndexEstimate:
    """k-NN transfer entropy: I(future; source embedding | own embedding), the
    horizon-1 terms of `dm`, which ctir with the same k and seed shares."""
    return _ksg_estimate("te_ksg", dm, p, 1, helper)


def ctir(dm: DelayMatrix, p: CtirParams, helper=None) -> IndexEstimate:
    """Coarse-grained transinformation rate: the mean of te_ksg over horizons
    tau = 1..tau_max (net flow via D), read from a horizon-1 delay matrix
    (m=1 in the presets, te_ksg's own matrix).

    The lag-1 term is te_ksg's on `dm`, the same kept term; the lag-tau term
    is te_ksg's on `embed(dm.source, replace(dm.spec, h=tau))`, built when the
    term is drawn. At each lag both directions use the same rows, and missing
    samples are dropped by `embed`'s rule alone; a lag with no complete row
    raises. With tau_max = 1 this is te_ksg on `dm`.
    """
    if dm.spec.h != 1:
        raise ValidationError(f"ctir reads a horizon-1 delay matrix, got h={dm.spec.h}")
    if dm.source.T <= p.tau_max + 2:
        raise InsufficientDataError("series too short for the requested tau_max")
    return _ksg_estimate("ctir", dm, p, p.tau_max, helper)
