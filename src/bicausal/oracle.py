"""Closed-form Gaussian solutions for the coupled linear process.

Stationary covariances at arbitrary lags, the exact transfer entropy (which
vanishes in the X->Y direction), and a numeric lag-averaged conditional
mutual information built from covariance determinants. All values in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import sides
from .errors import NonStationaryError, ValidationError
from .simulate import LpParams

_DET_FLOOR = 1e-14


@dataclass(frozen=True)
class LpAuxiliary:
    """Shorthand quantities u = (1-b_y^2)/var_y, v = 1-b_x^2, w = 1-b_x*b_y."""

    u: float
    v: float
    w: float

    @classmethod
    def from_params(cls, p: LpParams) -> "LpAuxiliary":
        _check_oracle_params(p)
        return cls(
            u=(1.0 - p.b_y**2) / p.var_y,
            v=1.0 - p.b_x**2,
            w=1.0 - p.b_x * p.b_y,
        )


def _check_oracle_params(p: LpParams):
    if abs(p.b_x) >= 1 or abs(p.b_y) >= 1:
        raise NonStationaryError("closed forms require |b_x|, |b_y| < 1")
    if p.var_x <= 0 or p.var_y <= 0:
        raise ValidationError("closed forms require positive innovation variances")


def lp_covariance(p: LpParams, pair: tuple[str, str], lag: int = 0) -> float:
    """Stationary covariance c(a_t, b_{t+lag}) for a, b in {"x", "y"}, lag >= 0."""
    _check_oracle_params(p)
    if lag < 0:
        raise ValidationError("lag must be >= 0")
    bx, by, lam = p.b_x, p.b_y, p.lam
    vy = p.var_y
    tau = int(lag)

    c_yy0 = vy / (1.0 - by**2)
    c_xy0 = lam * by * vy / ((1.0 - by**2) * (1.0 - bx * by))

    a, b = pair
    if (a, b) == ("y", "y"):
        return c_yy0 * by**tau
    if (a, b) == ("x", "y"):
        return c_xy0 * by**tau
    if (a, b) == ("x", "x"):
        base = p.var_x * bx**tau / (1.0 - bx**2)
        geo = sum(by**k * bx ** (tau - k) for k in range(tau + 1))
        A = (1.0 - bx**2) * geo + bx ** (tau + 1) * (bx + by)
        return base + lam**2 * vy * A / ((1.0 - bx**2) * (1.0 - by**2) * (1.0 - bx * by))
    if (a, b) == ("y", "x"):
        # from c(y_t, x_{t+tau}) = b_x c(y_t, x_{t+tau-1}) + lam c(y_t, y_{t+tau-1});
        # at tau = 1 this reduces to lam/(u w), matching the tau-free identity
        geo = sum(by**k * bx ** (tau - 1 - k) for k in range(tau))
        B = bx**tau * by + (1.0 - bx * by) * geo
        return lam * vy * B / ((1.0 - by**2) * (1.0 - bx * by))
    raise ValidationError(f"unknown covariance pair {pair!r}")


def lp_cov_matrix(p: LpParams, terms: list[tuple[str, int]]) -> np.ndarray:
    """Covariance matrix of the listed (variable, time-offset) terms.

    Example: [("x", 0), ("y", 0), ("x", 1)] gives C(x_t + y_t + x_{t+1}).
    """
    k = len(terms)
    out = np.empty((k, k))
    for i, (a, s) in enumerate(terms):
        for j, (b, s2) in enumerate(terms):
            if s2 >= s:
                out[i, j] = lp_covariance(p, (a, b), s2 - s)
            else:
                out[i, j] = lp_covariance(p, (b, a), s - s2)
    return out


def te_lp_analytic(p: LpParams, direction: str = "yx") -> float:
    """Exact transfer entropy of the linear process at m = 1.

    The X->Y direction is exactly zero (y is autonomous); Y->X has the
    closed form in the u, v, w shorthands.
    """
    aux = LpAuxiliary.from_params(p)
    if sides(direction)[0] == "y":  # y is autonomous
        return 0.0
    u, w = aux.u, aux.w
    lam = p.lam
    sx2 = p.var_x
    num = u * w**2 * sx2**2 + 2.0 * lam**2 * w * sx2 + lam**4 * p.var_y
    den = u * w**2 * sx2**2 + lam**2 * w * (2.0 - w) * sx2
    return 0.5 * math.log(num / den)


def te_lp_small_lam(p: LpParams) -> float:
    """Leading-order expansion lam^2 * var_y / (2 var_x (1 - b_y^2))."""
    _check_oracle_params(p)
    return p.lam**2 * p.var_y / (2.0 * p.var_x * (1.0 - p.b_y**2))


def _gaussian_cmi(cov: np.ndarray) -> float:
    """I(v3; v2 | v1) of a trivariate Gaussian with covariance `cov`,
    variables ordered (conditioner, source, target)."""
    det_13 = _det(cov[np.ix_([0, 2], [0, 2])])
    det_12 = _det(cov[np.ix_([0, 1], [0, 1])])
    det_123 = _det(cov)
    det_1 = max(cov[0, 0], _DET_FLOOR)
    return 0.5 * math.log((det_13 * det_12) / (det_123 * det_1))


def _det(mat: np.ndarray) -> float:
    return max(float(np.linalg.det(mat)), _DET_FLOOR)


def ctir_lp_analytic(p: LpParams, tau_max: int, direction: str = "yx") -> float:
    """Lag-averaged Gaussian conditional mutual information of the linear
    process, computed numerically from the covariance determinants."""
    _check_oracle_params(p)
    if tau_max < 1:
        raise ValidationError("tau_max must be >= 1")
    own, other = sides(direction)
    vals = [_gaussian_cmi(lp_cov_matrix(p, [(own, 0), (other, 0), (own, tau)]))
            for tau in range(1, tau_max + 1)]
    return float(np.mean(vals))
