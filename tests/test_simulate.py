import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.signal import lfilter

from bicausal import (
    HenonBiParams,
    HenonUniParams,
    LpParams,
    UlamParams,
    sim_henon_bi,
    sim_henon_uni,
    sim_lp,
    sim_ulam,
)
from bicausal.errors import NumericalEscapeError, ValidationError
from bicausal import simulate


def test_lp_seed_determinism():
    a = sim_lp(LpParams(lam=0.5, T=500, seed=42))
    b = sim_lp(LpParams(lam=0.5, T=500, seed=42))
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    c = sim_lp(LpParams(lam=0.5, T=500, seed=43))
    assert not np.array_equal(a.x, c.x)


def test_lp_zero_noise_zero_state():
    pair = sim_lp(LpParams(lam=0.0, T=100, seed=0, var_x=0.0, var_y=0.0))
    assert np.all(pair.x == 0.0) and np.all(pair.y == 0.0)


def test_lp_stationary_variance():
    # long-run Var(y) -> var_y / (1 - b_y^2) = 0.2 / 0.84
    p = LpParams(lam=0.0, T=100_000, seed=5)
    pair = sim_lp(p)
    target = p.var_y / (1 - p.b_y**2)
    assert abs(pair.y.var() - target) < 0.02 * target


def _lp_by_lfilter(p: LpParams):
    """The linear process from sim_lp's draws, its two AR(1) recursions run
    as IIR filters."""
    rng = np.random.default_rng(p.seed)
    n = p.T + simulate.TRANSIENTS_LP
    sd_x, sd_y = math.sqrt(p.var_x), math.sqrt(p.var_y)
    x0, y0 = rng.normal(0.0, sd_x), rng.normal(0.0, sd_y)
    eps_x = rng.normal(0.0, sd_x, size=n - 1)
    eps_y = rng.normal(0.0, sd_y, size=n - 1)
    y = lfilter([1.0], [1.0, -p.b_y], np.concatenate(([y0], eps_y)))
    x = lfilter([1.0], [1.0, -p.b_x], np.concatenate(([x0], p.lam * y[:-1] + eps_x)))
    return x[simulate.TRANSIENTS_LP:], y[simulate.TRANSIENTS_LP:]


@pytest.mark.parametrize("b_x, b_y", [(0.8, 0.4), (0.4, 0.8), (0.8, 0.8), (-0.5, 0.95)])
@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
def test_lp_equals_lfilter_recursion(b_x, b_y, lam):
    for seed, T in ((0, 2000), (1, 2000), (2, 100_000)):
        p = LpParams(lam=lam, b_x=b_x, b_y=b_y, T=T, seed=seed)
        x, y = _lp_by_lfilter(p)
        pair = sim_lp(p)
        assert np.array_equal(pair.x, x) and np.array_equal(pair.y, y)


def test_import_leaves_out_scipy_signal_and_stats():
    # both are slow to import; only corr_matrix's spearmanr reads scipy.stats
    code = ("import sys, bicausal; "
            "print(sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))")
    # the package as the tests import it, also where it is not installed
    src = os.path.dirname(os.path.dirname(simulate.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_lp_validation():
    with pytest.raises(ValidationError):
        LpParams(lam=0.5, T=100, b_x=1.0)
    with pytest.raises(ValidationError):
        LpParams(lam=1.5, T=100)
    with pytest.raises(ValidationError):
        LpParams(lam=0.5, T=0)


@pytest.mark.parametrize("params, name", [
    (LpParams, "b_x"), (LpParams, "b_y"), (LpParams, "var_x"), (LpParams, "var_y"),
    (HenonUniParams, "a"), (HenonUniParams, "b_x"), (HenonUniParams, "b_y"),
    (HenonBiParams, "a"), (HenonBiParams, "b_x"), (HenonBiParams, "b_y"),
])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_params_raise(params, name, value):
    # NaN passes every range test (all comparisons are false), so each
    # parameter is checked for finiteness on its own
    couplings = {"lam_xy": 0.1, "lam_yx": 0.1} if params is HenonBiParams else {"lam": 0.1}
    with pytest.raises(ValidationError, match=f"{name} must be finite"):
        params(T=10, **couplings, **{name: value})


def test_ulam_orbit_stays_bounded():
    pair = sim_ulam(UlamParams(lam=0.0, T=2000, seed=3))
    assert np.all(np.abs(pair.x) <= 2.0)
    assert np.all(np.abs(pair.y) <= 2.0)


def test_ulam_determinism_and_coupling_direction():
    a = sim_ulam(UlamParams(lam=0.3, T=300, seed=9))
    b = sim_ulam(UlamParams(lam=0.3, T=300, seed=9))
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


def test_ulam_synchronisation_window():
    pair = sim_ulam(UlamParams(lam=0.18, T=1000, seed=0))
    assert abs(np.corrcoef(pair.x, pair.y)[0, 1]) > 0.98


def test_ulam_escape_guard(monkeypatch):
    # an out-of-range state diverges under the map and is caught at the next
    # check; an in-range ring advanced in the same batch is not flagged
    s0 = np.array([[3.0, 3.0], [0.5, -0.5]])
    _, _, escaped = simulate._ulam_rings(s0, np.zeros(2), T=10)
    assert escaped.tolist() == [True, False]
    # a state outside the threshold is caught by sim_ulam_batch and sim_ulam
    monkeypatch.setattr(simulate, "ESCAPE_THRESHOLD", 0.5)
    p = UlamParams(lam=0.3, T=10, seed=0)
    assert simulate.sim_ulam_batch([p]) == [None]
    with pytest.raises(NumericalEscapeError):
        sim_ulam(p)


def _reference_sim_ulam(p: UlamParams):
    """The one-ring loop `sim_ulam` ran before rings were batched: the
    reference the batched simulator must reproduce bit for bit."""

    def step(s, lam, pred, tmp):
        pred[0] = s[-1]
        pred[1:] = s[:-1]
        np.multiply(pred, lam, out=pred)
        np.multiply(s, 1.0 - lam, out=tmp)
        pred += tmp
        np.multiply(pred, pred, out=tmp)
        np.subtract(2.0, tmp, out=s)

    def check(s):
        if not np.all(np.abs(s) <= simulate.ESCAPE_THRESHOLD):
            raise NumericalEscapeError("Ulam lattice state escaped")

    transients = simulate.TRANSIENTS_MAP
    rng = np.random.default_rng(p.seed)
    s = rng.uniform(-1.0, 1.0, size=p.N_L)
    pred = np.empty_like(s)
    tmp = np.empty_like(s)
    x = np.empty(p.T)
    y = np.empty(p.T)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(transients + p.T):
            step(s, p.lam, pred, tmp)
            if i % 4096 == 0:
                check(s)
            if i >= transients:
                x[i - transients] = s[0]
                y[i - transients] = s[1]
    check(s)
    return x, y


def _assert_batches_match(params, sizes):
    reference = [_reference_sim_ulam(p) for p in params]
    for size in sizes:
        for start in range(0, len(params), size):
            batch = params[start:start + size]
            got = simulate.sim_ulam_batch(batch)
            for p, pair, (x, y) in zip(batch, got, reference[start:start + size], strict=True):
                assert np.array_equal(pair.x, x) and np.array_equal(pair.y, y), (p, size)


def test_ulam_batch_matches_one_ring_loop(monkeypatch):
    # 21 desk-grid points x seeds 0-2, interleaved so that every batch of 3
    # or 21 mixes seeds and couplings. The update is the same at every step,
    # so a 7,800-step transient keeps 63 reference rings cheap; it also puts
    # the escape check after step 8,192 inside the recorded window.
    monkeypatch.setattr(simulate, "TRANSIENTS_MAP", 7_800)
    grid = [round(0.05 * i, 10) for i in range(21)]
    params = [UlamParams(lam=lam, T=1000, seed=(i + run) % 3)
              for run in range(3) for i, lam in enumerate(grid)]
    _assert_batches_match(params, (1, 3, 21))


def test_ulam_batch_matches_one_ring_loop_full_transient():
    params = [UlamParams(lam=0.05, T=1000, seed=2), UlamParams(lam=0.5, T=1000, seed=0),
              UlamParams(lam=0.95, T=1000, seed=1)]
    _assert_batches_match(params, (3,))


def _assert_batches_match_keeping_errstate(params, sizes):
    # under a raising error state, so that arithmetic outside the
    # simulator's own errstate would raise, and that state is left as it was
    with np.errstate(over="raise", invalid="raise"):
        before = np.geterr()
        _assert_batches_match(params, sizes)
        assert np.geterr() == before


@pytest.mark.parametrize("N_L, T", [(2, 300), (3, 300), (100, 1), (100, 393)])
def test_ulam_batch_matches_one_ring_loop_edge_cases(monkeypatch, N_L, T):
    # the smallest rings, a single recorded step, and T = 393, whose last
    # step (7,800 + 392 = 8,192) is also a step divisible by 4096; couplings
    # exactly 0 and 1 in every batch
    monkeypatch.setattr(simulate, "TRANSIENTS_MAP", 7_800)
    params = [UlamParams(lam=lam, T=T, seed=seed, N_L=N_L)
              for seed in range(2) for lam in (0.0, 0.35, 1.0)]
    _assert_batches_match_keeping_errstate(params, (1, len(params)))


def test_ulam_batch_splits_at_batch_rings(monkeypatch):
    monkeypatch.setattr(simulate, "TRANSIENTS_MAP", 7_800)
    params = [UlamParams(lam=round(0.03 * i, 10), T=200, seed=i % 4)
              for i in range(simulate.ULAM_BATCH_RINGS + 1)]
    _assert_batches_match_keeping_errstate(params, (len(params),))


def test_ulam_batch_of_eleven_matches_one_ring_loop_full_transient():
    # a ulam-sweep worker's batch (21 desk-grid points over two workers)
    # through the whole 10^5-step transient, couplings 0 to 1 included
    params = [UlamParams(lam=round(0.1 * i, 10), T=1000, seed=i % 3) for i in range(11)]
    _assert_batches_match_keeping_errstate(params, (len(params),))


def test_ulam_batch_escape_is_per_ring(monkeypatch):
    # just below the attractor's edge at 2, some rings reach the threshold at
    # a check and some do not; lam=0.25 seed 0 reaches it at the check after
    # step 12,288 (= 3 x 4096) and at no other check
    monkeypatch.setattr(simulate, "ESCAPE_THRESHOLD", 2.0 - 1e-6)
    params = [UlamParams(lam=lam, T=300, seed=seed)
              for lam, seed in ((0.25, 0), (0.1, 1), (0.5, 0), (0.6, 1))]
    batch = simulate.sim_ulam_batch(params)
    escaped = [pair is None for pair in batch]
    assert any(escaped) and not all(escaped)
    for p, pair in zip(params, batch):
        try:
            alone = sim_ulam(p)
        except NumericalEscapeError:
            assert pair is None, p
        else:
            assert np.array_equal(pair.x, alone.x) and np.array_equal(pair.y, alone.y)
        # the checks happen at the steps the one-ring loop checked
        try:
            _reference_sim_ulam(p)
        except NumericalEscapeError:
            assert pair is None, p
        else:
            assert pair is not None, p


def test_ulam_batch_validation():
    with pytest.raises(ValidationError):
        simulate.sim_ulam_batch([UlamParams(lam=0.1, T=100), UlamParams(lam=0.1, T=200)])
    with pytest.raises(ValidationError):
        simulate.sim_ulam_batch([UlamParams(lam=0.1, T=100), UlamParams(lam=0.1, T=100, N_L=50)])
    with pytest.raises(ValidationError):
        simulate.sim_ulam_batch([LpParams(lam=0.1, T=100)])
    assert simulate.sim_ulam_batch([]) == []


def test_henon_determinism_and_bounded():
    p = HenonUniParams(lam=0.0, T=10_000, seed=1)
    a = sim_henon_uni(p)
    b = sim_henon_uni(p)
    assert np.array_equal(a.x, b.x)
    assert np.all(np.abs(a.x) < 2.0) and np.all(np.abs(a.y) < 2.0)


def test_henon_bi_decoupled_matches_uni():
    uni = sim_henon_uni(HenonUniParams(lam=0.0, T=500, seed=11))
    bi = sim_henon_bi(HenonBiParams(lam_xy=0.0, lam_yx=0.0, T=500, seed=11))
    assert np.array_equal(uni.x, bi.x)
    assert np.array_equal(uni.y, bi.y)


def test_henon_uni_synchronises_at_high_coupling():
    pair = sim_henon_uni(HenonUniParams(lam=0.9, T=2000, seed=4))
    assert np.max(np.abs(pair.x - pair.y)) < 1e-6


def test_henon_bi_identical_swap_symmetry():
    # with equal couplings and identical maps, swapping the initial
    # conditions swaps the two series exactly
    init = (0.05, -0.02, 0.01, 0.07)
    swapped = (0.01, 0.07, 0.05, -0.02)
    a = sim_henon_bi(HenonBiParams(lam_xy=0.1, lam_yx=0.1, T=400, seed=0, init=init))
    b = sim_henon_bi(HenonBiParams(lam_xy=0.1, lam_yx=0.1, T=400, seed=0, init=swapped))
    assert np.array_equal(a.x, b.y)
    assert np.array_equal(a.y, b.x)


def test_henon_bi_synchronisation_region():
    pair = sim_henon_bi(HenonBiParams(lam_xy=0.2, lam_yx=0.15, T=1000, seed=2))
    assert np.max(np.abs(pair.x - pair.y)) < 1e-6


def test_henon_persistent_escape_raises():
    # a = 5 has no bounded attractor from these initial conditions
    with pytest.raises(NumericalEscapeError):
        sim_henon_uni(HenonUniParams(lam=0.0, T=50, seed=0, a=5.0))


def test_henon_bi_coupling_range():
    with pytest.raises(ValidationError):
        HenonBiParams(lam_xy=0.5, lam_yx=0.0, T=100)


def test_transient_counts():
    assert simulate.TRANSIENTS_LP == 10_000
    assert simulate.TRANSIENTS_MAP == 100_000
