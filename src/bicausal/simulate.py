"""Seeded benchmark simulators: linear process, Ulam lattice, Henon maps.

Every generator is a pure function of its parameter object. Randomness comes
from numpy's PCG64 (`GENERATOR_NAME`), so a fixed seed reproduces the series
bit-for-bit on this implementation. Transients are discarded before any
sample is recorded: 10^4 iterations for the linear process, 10^5 for the
chaotic maps.

Ulam rings have one code path: `sim_ulam_batch` advances many rings as one
array, five ufunc calls and a copy per step for all of them (a sweep worker
passes all its rings), and `sim_ulam` is a batch of one. The state is
checked against ESCAPE_THRESHOLD after every step divisible by 4096 and
after the last; the batch marks each escaped ring on its own, and
`sim_ulam` raises NumericalEscapeError for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SeriesPair, check_integer
from .errors import NumericalEscapeError, ValidationError

GENERATOR_NAME = "PCG64"

TRANSIENTS_LP = 10_000
TRANSIENTS_MAP = 100_000

ESCAPE_THRESHOLD = 1e6
MAX_RESTARTS = 100
# rings advanced together by sim_ulam_batch (and simulated at a time by a
# sweep worker): 32 rings x 10^5 steps x 16 bytes is a 51 MB record
ULAM_BATCH_RINGS = 32


def _check_params(p, *finite):
    """T must be an integer >= 1, seed one >= 0 and the named fields finite."""
    check_integer(p.T, "T")
    check_integer(p.seed, "seed", minimum=0)
    for name in finite:
        if not math.isfinite(getattr(p, name)):
            raise ValidationError(f"{name} must be finite")


@dataclass(frozen=True)
class LpParams:
    """Coupled AR(1) pair: x(t+1) = b_x x(t) + lam y(t) + eps_x,
    y(t+1) = b_y y(t) + eps_y. The coupling runs Y -> X."""

    lam: float
    T: int
    seed: int = 0
    b_x: float = 0.8
    b_y: float = 0.4
    var_x: float = 0.2
    var_y: float = 0.2

    def __post_init__(self):
        _check_params(self, "b_x", "b_y", "var_x", "var_y")
        if abs(self.b_x) >= 1 or abs(self.b_y) >= 1:
            raise ValidationError("|b_x| and |b_y| must be < 1 for stationarity")
        if self.var_x < 0 or self.var_y < 0:
            raise ValidationError("innovation variances must be non-negative")
        if not 0.0 <= self.lam <= 1.0:
            raise ValidationError("coupling must lie in [0, 1]")


@dataclass(frozen=True)
class UlamParams:
    """Ring of N_L unidirectionally coupled Ulam maps f(s) = 2 - s^2;
    x = site 1, y = site 2 (so the coupling runs X -> Y)."""

    lam: float
    T: int
    seed: int = 0
    N_L: int = 100

    def __post_init__(self):
        _check_params(self)
        if self.N_L < 2:
            raise ValidationError("lattice needs at least two sites")
        if not 0.0 <= self.lam <= 1.0:
            raise ValidationError("coupling must lie in [0, 1]")


@dataclass(frozen=True)
class HenonUniParams:
    """Unidirectionally coupled Henon maps (X -> Y)."""

    lam: float
    T: int
    seed: int = 0
    a: float = 1.4
    b_x: float = 0.3
    b_y: float = 0.3
    init: tuple | None = None

    def __post_init__(self):
        _check_params(self, "a", "b_x", "b_y", "lam")
        if not 0.0 <= self.lam <= 1.0:
            raise ValidationError("coupling must lie in [0, 1]")
        if self.init is not None and len(self.init) != 4:
            raise ValidationError("init must be (x0, x1, y0, y1)")


@dataclass(frozen=True)
class HenonBiParams:
    """Bidirectionally coupled Henon maps; identical maps use b_y = 0.3,
    non-identical b_y = 0.1."""

    lam_xy: float
    lam_yx: float
    T: int
    seed: int = 0
    a: float = 1.4
    b_x: float = 0.3
    b_y: float = 0.3
    init: tuple | None = None

    def __post_init__(self):
        _check_params(self, "a", "b_x", "b_y")
        for name in ("lam_xy", "lam_yx"):
            v = getattr(self, name)
            if not 0.0 <= v <= 0.4:
                raise ValidationError(f"{name} must lie in [0, 0.4]")
        if self.init is not None and len(self.init) != 4:
            raise ValidationError("init must be (x0, x1, y0, y1)")


def _ar1(u: np.ndarray, b: float) -> np.ndarray:
    """The AR(1) recursion out[t] = u[t] + b*out[t-1], out[0] = u[0].

    Equal bit for bit to `scipy.signal.lfilter([1], [1, -b], u)`; a loop, so
    that importing the package does not import `scipy.signal`."""
    out = u.tolist()
    for t in range(1, len(out)):
        out[t] = out[t] + b * out[t - 1]
    return np.array(out)


def sim_lp(p: LpParams) -> SeriesPair:
    """Simulate the linear process, discarding 10^4 transient iterations."""
    rng = np.random.default_rng(p.seed)
    n = p.T + TRANSIENTS_LP
    sd_x = math.sqrt(p.var_x)
    sd_y = math.sqrt(p.var_y)
    x0 = rng.normal(0.0, sd_x)
    y0 = rng.normal(0.0, sd_y)
    eps_x = rng.normal(0.0, sd_x, size=n - 1)
    eps_y = rng.normal(0.0, sd_y, size=n - 1)

    y = _ar1(np.concatenate(([y0], eps_y)), p.b_y)
    x = _ar1(np.concatenate(([x0], p.lam * y[:-1] + eps_x)), p.b_x)

    return SeriesPair(x[TRANSIENTS_LP:], y[TRANSIENTS_LP:])


def _ulam_rings(s0, lam, T: int):
    """Advance U rings together from initial lattices s0 (shape (U, N_L)) at
    couplings lam (shape (U,)) through the transient and T recorded steps.

    Returns x and y (shape (U, T), sites 0 and 1 of each recorded step) and a
    per-ring escape flag. The state is held site-major as one flat vector,
    s[l * U + u] = site l of ring u, behind a copy of the last site (row 0
    of `state`) that closes the ring. A step is five ufunc calls on U * N_L
    elements; at a sweep's few rings, dispatch rather than arithmetic is most
    of its cost, so the calls are bound once and take positional outputs and
    a 0-d constant (a Python float is converted on every call), and the copy
    is a slice assignment. A row is bit-identical to a lone ring (same ops).
    """
    U, N_L = s0.shape
    lam_all, keep_all = np.tile(lam, N_L), np.tile(1.0 - lam, N_L)
    state = np.empty((N_L + 1, U))
    state[1:] = s0.T
    state[0] = state[-1]
    flat = state.reshape(-1)
    s, pred_src, head, tail, sites01 = flat[U:], flat[:-U], flat[:U], flat[-U:], flat[U:3 * U]
    pred, tmp, two = np.empty_like(s), np.empty_like(s), np.array(2.0)
    multiply, add, subtract = np.multiply, np.add, np.subtract
    record = np.empty((T, 2 * U))

    def advance(steps: int):
        # s_new[l] = f(lam * s[l-1] + (1-lam) * s[l]), ring-closed, f(s) = 2 - s^2
        for _ in range(steps):
            multiply(pred_src, lam_all, pred)
            multiply(s, keep_all, tmp)
            add(pred, tmp, pred)
            multiply(pred, pred, tmp)
            subtract(two, tmp, s)
            head[:] = tail

    total = TRANSIENTS_MAP + T
    escaped = np.zeros(U, dtype=bool)
    first = 0
    with np.errstate(over="ignore", invalid="ignore"):
        # the state is checked after every step divisible by 4096 and after the last
        for check in [*range(0, total, 4096), total - 1]:
            advance(max(0, min(check + 1, TRANSIENTS_MAP) - first))
            for step in range(max(first, TRANSIENTS_MAP), check + 1):
                advance(1)
                record[step - TRANSIENTS_MAP] = sites01
            escaped |= ~np.all(np.abs(state[1:]) <= ESCAPE_THRESHOLD, axis=0)
            first = check + 1
    return record[:, :U].T, record[:, U:].T, escaped


def sim_ulam_batch(params_list) -> list:
    """Simulate several Ulam lattices together; one result per ring, in order.

    Each ring's series is bit-identical to `sim_ulam` on its own parameters,
    whatever the batch around it. All rings must share T and N_L
    (ValidationError otherwise). A ring whose state leaves
    [-ESCAPE_THRESHOLD, ESCAPE_THRESHOLD] at one of the checks `sim_ulam`
    makes (after every step divisible by 4096 and after the last) comes back
    as None instead of a SeriesPair; the other rings are unaffected. At most
    ULAM_BATCH_RINGS rings are advanced at a time, which bounds the recording
    buffer at ULAM_BATCH_RINGS * T * 16 bytes (51 MB at T = 10^5).
    """
    params_list = list(params_list)
    for p in params_list:
        if not isinstance(p, UlamParams):
            raise ValidationError("sim_ulam_batch takes UlamParams")
        if (p.T, p.N_L) != (params_list[0].T, params_list[0].N_L):
            raise ValidationError("rings of one batch must share T and N_L")
    out = []
    for start in range(0, len(params_list), ULAM_BATCH_RINGS):
        batch = params_list[start:start + ULAM_BATCH_RINGS]
        s0 = np.array([np.random.default_rng(p.seed).uniform(-1.0, 1.0, size=p.N_L)
                       for p in batch])
        xs, ys, escaped = _ulam_rings(s0, np.array([p.lam for p in batch]), batch[0].T)
        out.extend(None if esc else SeriesPair(x, y)
                   for x, y, esc in zip(xs, ys, escaped))
    return out


def sim_ulam(p: UlamParams) -> SeriesPair:
    """Simulate the Ulam lattice, discarding 10^5 transient iterations.

    The initial lattice is drawn uniformly in (-1, 1). An escaped state
    raises NumericalEscapeError.
    """
    pair = sim_ulam_batch([p])[0]
    if pair is None:
        raise NumericalEscapeError("Ulam lattice state escaped")
    return pair


def _run_henon(p, x_update, y_update) -> SeriesPair:
    """Iterate a Henon pair with escape-restart handling.

    On divergence the initial conditions are re-drawn (uniform (-0.1, 0.1))
    and the whole run restarts; more than MAX_RESTARTS failures raise.
    """
    rng = np.random.default_rng(p.seed)
    limit = ESCAPE_THRESHOLD
    restarts = MAX_RESTARTS if p.init is None else 1
    for _ in range(restarts):
        if p.init is not None:
            x0, x1, y0, y1 = (float(v) for v in p.init)
        else:
            x0, x1, y0, y1 = (float(v) for v in rng.uniform(-0.1, 0.1, size=4))
        xs = np.empty(p.T)
        ys = np.empty(p.T)
        escaped = False
        for step in range(TRANSIENTS_MAP + p.T):
            if step >= TRANSIENTS_MAP:
                xs[step - TRANSIENTS_MAP] = x0
                ys[step - TRANSIENTS_MAP] = y0
            x2 = x_update(p, x0, x1, y0, y1)
            y2 = y_update(p, x0, x1, y0, y1)
            if not (-limit < x2 < limit and -limit < y2 < limit):
                escaped = True
                break
            x0, x1, y0, y1 = x1, x2, y1, y2
        if not escaped:
            return SeriesPair(xs, ys)
    raise NumericalEscapeError("Henon orbit escaped on every restart")


def _henon_plain_x(p, x0, x1, y0, y1):
    return p.a - x1 * x1 + p.b_x * x0


def _henon_uni_y(p, x0, x1, y0, y1):
    return p.a - (p.lam * x1 + (1.0 - p.lam) * y1) * y1 + p.b_y * y0


def _henon_bi_x(p, x0, x1, y0, y1):
    return p.a - x1 * x1 + p.lam_yx * (x1 * x1 - y1 * y1) + p.b_x * x0


def _henon_bi_y(p, x0, x1, y0, y1):
    return p.a - y1 * y1 + p.lam_xy * (y1 * y1 - x1 * x1) + p.b_y * y0


def sim_henon_uni(p: HenonUniParams) -> SeriesPair:
    """Simulate the unidirectional Henon pair (10^5 transients)."""
    return _run_henon(p, _henon_plain_x, _henon_uni_y)


def sim_henon_bi(p: HenonBiParams) -> SeriesPair:
    """Simulate the bidirectional Henon pair (10^5 transients)."""
    return _run_henon(p, _henon_bi_x, _henon_bi_y)
