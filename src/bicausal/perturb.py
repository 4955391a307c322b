"""Transforms of a simulated pair (`KINDS`) and the f/g deviation summary.
The paper's data-size experiment is a sweep at that length, not a transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SeriesPair, check_integer, standardize
from .errors import UndefinedStatisticError, ValidationError

KINDS = ("standardize", "scale", "round", "missing", "noise")
TARGETS = ("x", "y", "both")

# coupling windows where the Ulam lattice synchronises; grid points whose
# coupling falls inside are excluded from f/g averages (ulam's
# `harness.SIMULATION_TABLE` entry holds them as its sync windows)
ULAM_SYNC_WINDOWS = ((0.17, 0.19), (0.81, 0.83))


@dataclass(frozen=True)
class PerturbationSpec:
    """One transform of a simulated pair, applied before index estimation:
    a kind of `KINDS`, the series it targets (standardize maps both and takes
    no other) and the field its kind reads (named in the comments below)."""

    kind: str
    target: str = "both"
    factor: float = 10.0          # scale
    decimals: int = 1             # round
    fraction: float = 0.1         # missing
    noise_var: float = 0.1        # noise (variance of the added Gaussian)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown perturbation kind {self.kind!r}")
        if self.target not in TARGETS:
            raise ValidationError(f"unknown target {self.target!r}")
        if self.kind == "standardize" and self.target != "both":
            raise ValidationError(f"standardize maps both series, not target {self.target!r}")
        if not np.isfinite([self.factor, self.noise_var]).all():
            raise ValidationError("factor and noise_var must be finite")
        if self.kind == "missing" and not 0.0 < self.fraction < 1.0:
            raise ValidationError("missing fraction must lie in (0, 1)")
        if self.kind == "round":
            check_integer(self.decimals, "decimals", minimum=0)
        if self.kind == "noise" and self.noise_var <= 0:
            raise ValidationError("noise variance must be positive")
        check_integer(self.seed, "seed", minimum=0)


def _round_half_away(values: np.ndarray, decimals: int) -> np.ndarray:
    scale = 10.0**decimals
    scaled = values * scale
    return np.sign(scaled) * np.floor(np.abs(scaled) + 0.5) / scale


def apply_perturbation(pair: SeriesPair, spec: PerturbationSpec,
                       rng: np.random.Generator | None = None) -> SeriesPair:
    """The pair transformed by `spec`, as a new pair of the same length.

    `rng` overrides the spec seed (the sweep harness passes per-unit
    generators); by default a fresh generator seeded with `spec.seed` is used.
    """
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    if spec.kind == "standardize":
        return standardize(pair)

    data = {"x": pair.x.copy(), "y": pair.y.copy()}
    for name in ("x", "y") if spec.target == "both" else (spec.target,):
        if spec.kind == "scale":
            data[name] = data[name] * spec.factor
        elif spec.kind == "round":
            data[name] = _round_half_away(data[name], spec.decimals)
        elif spec.kind == "missing":
            n_drop = int(np.floor(spec.fraction * pair.T))
            drop = rng.choice(pair.T, size=n_drop, replace=False)
            data[name][drop] = np.nan
        elif spec.kind == "noise":
            data[name] = data[name] + rng.normal(0.0, np.sqrt(spec.noise_var), pair.T)
    return SeriesPair(data["x"], data["y"])


@dataclass(frozen=True)
class IndexFg:
    """Per-index deviation summary against a baseline sweep."""

    f: float
    g: float


@dataclass(frozen=True)
class PerturbSummary:
    couplings: list
    excluded: list
    stats: dict  # index name -> IndexFg


def _per_lambda_stats(result, index, points):
    """(mu, sigma) rows of the directed index per grid point: the mean and
    std of its finite values there, NaN where none is finite."""
    d_by_point = result.directed_by_point(index)
    stats = np.full((2, len(points)), np.nan)
    for i, pt in enumerate(points):
        vals = np.asarray(d_by_point[pt], dtype=float)
        vals = vals[np.isfinite(vals)]
        if len(vals):
            stats[:, i] = vals.mean(), vals.std()
    return stats


def _nanmean(values: np.ndarray) -> np.float64:
    """`np.nanmean`, but NaN without numpy's warning when all values are NaN."""
    return np.float64("nan") if np.isnan(values).all() else np.nanmean(values)


def summarize_fg(baseline, perturbed) -> PerturbSummary:
    """f and g deviation statistics of the perturbed sweep vs the baseline.

    f = <mu - mu_hat> / <|mu|> and g = <sigma_hat> / <sigma>, averaged over
    grid points outside the baseline system's synchrony windows
    (`baseline.sync_windows`: `ULAM_SYNC_WINDOWS` on ulam, none elsewhere).
    Identical sweeps give f = 0 and g = 1 exactly.
    """
    base_points = baseline.grid_points()
    if perturbed.grid_points() != base_points:
        raise ValidationError("baseline and perturbed sweeps use different grids")
    # a grid point is left out when any of its couplings lies in a window
    excluded = [pt for pt in base_points if any(
        lo <= lam <= hi for lam in pt for lo, hi in baseline.sync_windows)]
    kept = [pt for pt in base_points if pt not in excluded]
    if not kept:
        raise ValidationError("all grid points excluded")

    indices = sorted(set(baseline.index_names()) & set(perturbed.index_names()))
    stats = {}
    for index in indices:
        mu, sigma = _per_lambda_stats(baseline, index, kept)
        mu_hat, sigma_hat = _per_lambda_stats(perturbed, index, kept)
        denom = _nanmean(np.abs(mu))
        if not np.isfinite(denom) or denom == 0.0:
            raise UndefinedStatisticError(f"<|mu|> vanishes for index {index!r}")
        f = float(_nanmean(mu - mu_hat) / denom)
        s_base, s_pert = _nanmean(sigma), _nanmean(sigma_hat)
        if s_pert == s_base:
            g = 1.0
        elif s_base == 0.0:
            g = float("nan")
        else:
            g = float(s_pert / s_base)
        stats[index] = IndexFg(f, g)
    return PerturbSummary(couplings=kept, excluded=excluded, stats=stats)
