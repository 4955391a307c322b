"""Post-simulation data perturbations and the f/g deviation summary."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import SeriesPair, standardize
from .errors import UndefinedStatisticError, ValidationError

KINDS = ("identity", "data_size", "standardize", "scale", "round", "missing", "noise")
TARGETS = ("x", "y", "both")

# coupling windows where the Ulam lattice synchronises; grid points whose
# coupling falls inside are excluded from f/g averages
ULAM_SYNC_WINDOWS = ((0.17, 0.19), (0.81, 0.83))


@dataclass(frozen=True)
class PerturbationSpec:
    """One transform applied to a simulated pair before index estimation."""

    kind: str
    target: str = "both"
    factor: float = 10.0          # scale
    decimals: int = 1             # round
    fraction: float = 0.1         # missing
    noise_var: float = 0.1        # noise (variance of the added Gaussian)
    data_size: int | None = None  # data_size
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown perturbation kind {self.kind!r}")
        if self.target not in TARGETS:
            raise ValidationError(f"unknown target {self.target!r}")
        if self.kind == "missing" and not 0.0 < self.fraction < 1.0:
            raise ValidationError("missing fraction must lie in (0, 1)")
        if self.kind == "round" and self.decimals < 0:
            raise ValidationError("decimals must be >= 0")
        if self.kind == "noise" and self.noise_var <= 0:
            raise ValidationError("noise variance must be positive")
        if self.kind == "data_size" and (self.data_size is None or self.data_size < 1):
            raise ValidationError("data_size requires a positive length")


def _targets(spec: PerturbationSpec):
    return ("x", "y") if spec.target == "both" else (spec.target,)


def _round_half_away(values: np.ndarray, decimals: int) -> np.ndarray:
    scale = 10.0**decimals
    scaled = values * scale
    return np.sign(scaled) * np.floor(np.abs(scaled) + 0.5) / scale


def apply_perturbation(pair: SeriesPair, spec: PerturbationSpec,
                       rng: np.random.Generator | None = None) -> SeriesPair:
    """Apply one transform. `rng` overrides the spec seed (the sweep harness
    passes per-run generators); by default a fresh seeded generator is used.
    """
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    if spec.kind == "identity":
        return pair
    if spec.kind == "data_size":
        if spec.data_size > pair.T:
            raise ValidationError(
                "cannot extend an existing pair; rerun the simulation at the larger T")
        sl = slice(0, spec.data_size)
        return SeriesPair(pair.x[sl], pair.y[sl], pair.x_missing[sl], pair.y_missing[sl])
    if spec.kind == "standardize":
        return standardize(pair)

    data = {"x": pair.x.copy(), "y": pair.y.copy()}
    masks = {"x": pair.x_missing.copy(), "y": pair.y_missing.copy()}
    for name in _targets(spec):
        if spec.kind == "scale":
            data[name] = data[name] * spec.factor
        elif spec.kind == "round":
            data[name] = _round_half_away(data[name], spec.decimals)
        elif spec.kind == "missing":
            n_drop = int(np.floor(spec.fraction * pair.T))
            drop = rng.choice(pair.T, size=n_drop, replace=False)
            masks[name] = masks[name].copy()
            masks[name][drop] = True
        elif spec.kind == "noise":
            data[name] = data[name] + rng.normal(0.0, np.sqrt(spec.noise_var), pair.T)
    return SeriesPair(data["x"], data["y"], masks["x"], masks["y"])


@dataclass(frozen=True)
class IndexFg:
    """Per-index deviation summary against a baseline sweep."""

    f: float
    g: float
    mu: np.ndarray = field(repr=False)
    mu_hat: np.ndarray = field(repr=False)
    sigma: np.ndarray = field(repr=False)
    sigma_hat: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class PerturbSummary:
    couplings: list
    excluded: list
    stats: dict  # index name -> IndexFg


def point_in_windows(point, windows) -> bool:
    """Whether any coupling of a grid point lies in one of the windows."""
    return any(lo <= lam <= hi for lam in point for lo, hi in windows)


def _per_lambda_stats(result, index, points):
    """(mu, sigma) arrays of the directed index per grid point."""
    d_by_point = result.directed_by_point(index)
    mu = np.empty(len(points))
    sigma = np.empty(len(points))
    for i, pt in enumerate(points):
        vals = np.asarray(d_by_point[pt], dtype=float)
        vals = vals[np.isfinite(vals)]
        if len(vals) == 0:
            mu[i] = np.nan
            sigma[i] = np.nan
        else:
            mu[i] = vals.mean()
            sigma[i] = vals.std()
    return mu, sigma


def summarize_fg(baseline, perturbed, exclude=None) -> PerturbSummary:
    """f and g deviation statistics of the perturbed sweep vs the baseline.

    f = <mu - mu_hat> / <|mu|> and g = <sigma_hat> / <sigma>, averaged over
    grid points outside the synchrony exclusion windows. Identical sweeps
    give f = 0 and g = 1 exactly.
    """
    base_points = baseline.grid_points()
    if perturbed.grid_points() != base_points:
        raise ValidationError("baseline and perturbed sweeps use different grids")
    if exclude is None:
        exclude = ULAM_SYNC_WINDOWS if baseline.simulation == "ulam" else ()

    kept = [pt for pt in base_points if not point_in_windows(pt, exclude)]
    excluded = [pt for pt in base_points if point_in_windows(pt, exclude)]
    if not kept:
        raise ValidationError("all grid points excluded")

    indices = sorted(set(baseline.index_names()) & set(perturbed.index_names()))
    stats = {}
    for index in indices:
        mu, sigma = _per_lambda_stats(baseline, index, kept)
        mu_hat, sigma_hat = _per_lambda_stats(perturbed, index, kept)
        denom = np.nanmean(np.abs(mu))
        if not np.isfinite(denom) or denom == 0.0:
            raise UndefinedStatisticError(f"<|mu|> vanishes for index {index!r}")
        f = float(np.nanmean(mu - mu_hat) / denom)
        s_base = np.nanmean(sigma)
        s_pert = np.nanmean(sigma_hat)
        if s_pert == s_base:
            g = 1.0
        elif s_base == 0.0:
            g = float("nan")
        else:
            g = float(s_pert / s_base)
        stats[index] = IndexFg(f, g, mu, mu_hat, sigma, sigma_hat)
    return PerturbSummary(couplings=kept, excluded=excluded, stats=stats)
