"""Series container, delay embedding, standardisation, the directed index,
the two directions every estimator reports (`SIDES`, `both_directions`) and
`beside`, which runs work on a caller's helper thread and waits for it.

A bivariate record is a pair of aligned scalar series in which a NaN marks a
missing sample. Missing data is handled in exactly one place: the embedding
step drops every row that references a missing sample. Nothing is ever
imputed.
"""

from __future__ import annotations

import time
from concurrent.futures import wait
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSeriesError, InsufficientDataError, ValidationError
from .neighbors import PointSet

STATUS_OK = "ok"
STATUS_DEGENERATE = "degenerate"
STATUSES = (STATUS_OK, STATUS_DEGENERATE)

# direction -> (own series, other series): "xy" (X -> Y) explains y's future
# from x, "yx" (Y -> X) x's future from y
SIDES = {"xy": ("y", "x"), "yx": ("x", "y")}


def sides(direction: str) -> tuple[str, str]:
    """(own series, other series) of a direction; an unknown direction is a
    ValidationError."""
    try:
        return SIDES[direction]
    except (KeyError, TypeError):
        raise ValidationError(f"unknown direction {direction!r}") from None


def beside(helper, main, side):
    """(main(), side()): main then side on the calling thread, or with
    `helper` (an executor) side on it while this thread runs main. side is
    waited for before this returns or raises, and an exception of either
    call propagates unchanged (main's when both raise)."""
    if helper is None:
        return main(), side()
    future = helper.submit(side)
    try:
        return main(), future.result()
    finally:
        wait([future])


def both_directions(fn, *args):
    """((result, seconds) of fn(*args, "xy"), (result, seconds) of
    fn(*args, "yx")): yx runs first, then xy, on the calling thread."""
    def timed(direction):
        t0 = time.perf_counter()
        result = fn(*args, direction)
        return result, time.perf_counter() - t0

    yx = timed("yx")
    return timed("xy"), yx


def _as_series(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional")
    return arr


def check_integer(value, name: str, minimum: int = 1):
    """A ValidationError unless `value` is an integer (a bool is not) of at
    least `minimum`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True, eq=False)
class SeriesPair:
    """Two aligned scalar series of equal length; a NaN marks a missing sample.

    Any non-finite input value is stored as NaN. `x_missing` and `y_missing`
    are read-only masks of the NaNs, computed once here.
    """

    x: np.ndarray
    y: np.ndarray
    x_missing: np.ndarray = field(init=False, repr=False)
    y_missing: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        x = _as_series(self.x, "x")
        y = _as_series(self.y, "y")
        if len(x) != len(y):
            raise ValidationError("x and y must have identical length")
        if len(x) == 0:
            raise ValidationError("series must be non-empty")
        mx = ~np.isfinite(x)
        my = ~np.isfinite(y)
        x = np.where(mx, np.nan, x)
        y = np.where(my, np.nan, y)
        for arr in (x, y, mx, my):
            arr.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x_missing", mx)
        object.__setattr__(self, "y_missing", my)

    @property
    def T(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class EmbeddingSpec:
    """Delay-embedding configuration: dimension m, lag tau, horizon h (the
    lag and horizon are 1 unless given)."""

    m: int
    tau: int = 1
    h: int = 1

    def __post_init__(self):
        for name in ("m", "tau", "h"):
            check_integer(getattr(self, name), name)

    @property
    def window(self) -> int:
        """Number of past samples consumed before the first usable row."""
        return (self.m - 1) * self.tau

    def valid_for(self, length: int) -> bool:
        return self.window + self.h < length


@dataclass(frozen=True, eq=False)
class DelayMatrix:
    """Aligned delay-embedding rows for both variables plus their futures.

    Row i describes time index t[i]: x_emb[i] = (x_{t-(m-1)tau}, ..., x_t),
    likewise for y, and the future values x_{t+h}, y_{t+h}. Only rows whose
    every component is present survive. One matrix serves both directions.

    The matrix also keeps, for its whole lifetime (as `PointSet` keeps its
    kd-tree), the kNN graphs read through `knn_graph`, one per embedding, which
    pi, si and ccm share, and in `ksg_terms` te_ksg's and ctir's k-NN terms,
    (k, seed) -> {(direction, horizon): (value, degenerate, seconds) or the
    BicausalError raised}, filled by `info`. A caller that holds on to a
    matrix holds on to both.
    """

    t: np.ndarray = field(repr=False)
    x_emb: np.ndarray = field(repr=False)
    y_emb: np.ndarray = field(repr=False)
    x_future: np.ndarray = field(repr=False)
    y_future: np.ndarray = field(repr=False)
    source: SeriesPair = field(repr=False)
    spec: EmbeddingSpec = None
    _graphs: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    ksg_terms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_rows(self) -> int:
        return len(self.t)

    @property
    def m(self) -> int:
        return self.spec.m

    @property
    def z_emb(self) -> np.ndarray:
        """Joint-space embedding (x columns then y columns)."""
        return np.hstack([self.x_emb, self.y_emb])

    def emb(self, series: str) -> np.ndarray:
        """The "x", "y" or "z" (joint) embedding."""
        return getattr(self, f"{series}_emb")

    def future(self, series: str) -> np.ndarray:
        """The "x" or "y" future values."""
        return getattr(self, f"{series}_future")

    def knn_graph(self, series: str, k: int, build) -> tuple[np.ndarray, np.ndarray]:
        """The first k columns (indices, distances) of the self-excluded kNN
        graph of the "x", "y" or "z" embedding.

        `build(pset, k)` is the caller's `knn_all`. It makes the graph on the
        first read and again only when a later read wants more columns; a
        smaller read slices the kept graph, whose rows are in exact (distance,
        index) order, so its first k columns are the k-graph.
        """
        if series not in ("x", "y", "z"):
            raise ValidationError(f"unknown embedding {series!r}")
        graph = self._graphs.get(series)
        if graph is None or graph[0].shape[1] < k:
            graph = self._graphs[series] = build(PointSet(self.emb(series)), k)
        idx, dist = graph
        return idx[:, :k], dist[:, :k]


def embed(pair: SeriesPair, spec: EmbeddingSpec) -> DelayMatrix:
    """Build the delay matrix, dropping rows that touch a missing sample.

    Raises InsufficientDataError when the spec does not fit in the series
    or no complete row survives the missing-data drop rule.
    """
    T = pair.T
    if not spec.valid_for(T):
        raise InsufficientDataError(
            f"embedding window {spec.window}+h={spec.h} does not fit series of length {T}"
        )
    t = np.arange(spec.window, T - spec.h)
    # columns of the embedding: t - (m-1-j)*tau for j = 0..m-1
    offsets = (np.arange(spec.m) - (spec.m - 1)) * spec.tau
    emb_idx = t[:, None] + offsets[None, :]

    miss = pair.x_missing | pair.y_missing
    complete = ~(miss[emb_idx].any(axis=1) | miss[t + spec.h])
    if not complete.any():
        raise InsufficientDataError("no complete embedding rows after dropping missing data")

    t = t[complete]
    emb_idx = emb_idx[complete]
    return DelayMatrix(
        t=t,
        x_emb=pair.x[emb_idx],
        y_emb=pair.y[emb_idx],
        x_future=pair.x[t + spec.h],
        y_future=pair.y[t + spec.h],
        source=pair,
        spec=spec,
    )


def standardize(pair: SeriesPair) -> SeriesPair:
    """Rescale each series to mean 0, standard deviation 1 (population
    denominator, computed over non-missing samples). Missing samples stay
    NaN."""
    out = []
    for values, mask in ((pair.x, pair.x_missing), (pair.y, pair.y_missing)):
        obs = values[~mask]
        if len(obs) < 2:
            raise DegenerateSeriesError("need at least two observed samples to standardize")
        mu = obs.mean()
        sd = obs.std()
        if sd == 0.0:
            raise DegenerateSeriesError("zero-variance series cannot be standardized")
        out.append((values - mu) / sd)
    return SeriesPair(out[0], out[1])


def directed_index(est_xy: float, est_yx: float) -> float:
    """Net directed value: estimate(X->Y) - estimate(Y->X).

    Non-finite inputs propagate as NaN rather than raising, so degenerate
    estimates flow through sweeps without aborting them.
    """
    if not (np.isfinite(est_xy) and np.isfinite(est_yx)):
        return float("nan")
    return float(est_xy) - float(est_yx)


@dataclass(frozen=True)
class IndexEstimate:
    """One causality-index evaluation: values, times and status.

    value_xy is the X->Y estimate, value_yx the Y->X estimate; `d` is their
    difference whenever both are finite. Elapsed seconds are wall-clock per
    direction, measured for each direction by `both_directions`, except egc
    and nlgc, whose two directions come from one joint computation that is
    split evenly, and te_ksg and ctir, each direction of which sums its k-NN
    terms' seconds. A unit with a helper thread (`harness.helper_threads`)
    runs the kNN-graph readers beside the other estimates, and both threads
    compute k-NN terms, so their times overlap.
    """

    index: str
    value_xy: float
    value_yx: float
    elapsed_xy: float = 0.0
    elapsed_yx: float = 0.0
    status: str = STATUS_OK

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValidationError(f"unknown status {self.status!r}")

    @property
    def d(self) -> float:
        """Directed index D_{X->Y} = value_xy - value_yx."""
        return directed_index(self.value_xy, self.value_yx)

    def value(self, direction: str) -> float:
        sides(direction)
        return getattr(self, f"value_{direction}")

    def rows(self) -> list[tuple]:
        """(index, direction, value, elapsed seconds, status) of each
        direction, xy first."""
        return [(self.index, d, self.value(d), getattr(self, f"elapsed_{d}"), self.status)
                for d in SIDES]
