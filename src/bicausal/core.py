"""Series container, delay embedding, standardisation and the directed index.

A bivariate record is a pair of aligned scalar series with an explicit
per-sample missing mask. Missing data is handled in exactly one place: the
embedding step drops every row that references a missing sample. Nothing is
ever imputed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSeriesError, InsufficientDataError, ValidationError

STATUS_OK = "ok"
STATUS_DEGENERATE = "degenerate"
STATUS_SKIPPED_SYNCHRONY = "skipped-synchrony"


def _as_series(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional")
    return arr


def _as_mask(mask, n: int, name: str) -> np.ndarray:
    if mask is None:
        return np.zeros(n, dtype=bool)
    arr = np.array(mask, dtype=bool)
    if arr.shape != (n,):
        raise ValidationError(f"{name} mask must match the series length")
    return arr


@dataclass(frozen=True, eq=False)
class SeriesPair:
    """Two aligned scalar series of equal length with missing-value masks.

    Missing entries are stored as NaN and flagged in the mask; non-finite
    values in the input are treated as missing automatically.
    """

    x: np.ndarray
    y: np.ndarray
    x_missing: np.ndarray | None = field(default=None, repr=False)
    y_missing: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        x = _as_series(self.x, "x")
        y = _as_series(self.y, "y")
        if len(x) != len(y):
            raise ValidationError("x and y must have identical length")
        if len(x) == 0:
            raise ValidationError("series must be non-empty")
        mx = _as_mask(self.x_missing, len(x), "x") | ~np.isfinite(x)
        my = _as_mask(self.y_missing, len(y), "y") | ~np.isfinite(y)
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
    """Delay-embedding configuration: dimension m, lag tau, horizon h."""

    m: int
    tau: int = 1
    h: int = 1

    def __post_init__(self):
        for name in ("m", "tau", "h"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ValidationError(f"{name} must be a positive integer")

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
    """

    t: np.ndarray = field(repr=False)
    x_emb: np.ndarray = field(repr=False)
    y_emb: np.ndarray = field(repr=False)
    x_future: np.ndarray = field(repr=False)
    y_future: np.ndarray = field(repr=False)
    source: SeriesPair = field(repr=False)
    spec: EmbeddingSpec = None

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
    denominator, computed over non-missing samples). Masks are preserved."""
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
    return SeriesPair(out[0], out[1], pair.x_missing, pair.y_missing)


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
    """One causality-index evaluation: both directions plus bookkeeping.

    value_xy is the X->Y estimate, value_yx the Y->X estimate; `d` is their
    difference whenever both are finite. Elapsed seconds are wall-clock per
    direction. `params` echoes the parameters the estimate was computed with.
    """

    index: str
    value_xy: float
    value_yx: float
    elapsed_xy: float = 0.0
    elapsed_yx: float = 0.0
    params: dict = field(default_factory=dict)
    status: str = STATUS_OK

    def __post_init__(self):
        if self.status not in (STATUS_OK, STATUS_DEGENERATE, STATUS_SKIPPED_SYNCHRONY):
            raise ValidationError(f"unknown status {self.status!r}")

    @property
    def d(self) -> float:
        """Directed index D_{X->Y} = value_xy - value_yx."""
        return directed_index(self.value_xy, self.value_yx)

    def value(self, direction: str) -> float:
        if direction == "xy":
            return self.value_xy
        if direction == "yx":
            return self.value_yx
        raise ValidationError(f"unknown direction {direction!r}")
