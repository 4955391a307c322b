import contextlib
import gc
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bicausal import (
    CcmParams,
    EmbeddingSpec,
    IndexEstimate,
    LpParams,
    SeriesPair,
    UlamParams,
    ccm_rho_curve,
    ctir_lp_analytic,
    directed_index,
    embed,
    sim_ulam,
    standardize,
    te_lp_analytic,
)
from bicausal.core import beside, both_directions
from bicausal.errors import (
    DegenerateSeriesError,
    InsufficientDataError,
    ValidationError,
)
from bicausal.harness import simulate_pair
from bicausal.neighbors import PointSet, knn_all
from bicausal.perturb import PerturbationSpec, apply_perturbation


def test_embed_basic_example():
    pair = SeriesPair([1, 2, 3, 4, 5], [1, 2, 3, 4, 5])
    dm = embed(pair, EmbeddingSpec(m=2, tau=1, h=1))
    assert dm.x_emb.tolist() == [[1, 2], [2, 3], [3, 4]]
    assert dm.x_future.tolist() == [3, 4, 5]
    assert dm.y_future.tolist() == [3, 4, 5]
    assert dm.t.tolist() == [1, 2, 3]


def test_embed_m1():
    pair = SeriesPair([7, 8, 9], [0, 0, 0])
    dm = embed(pair, EmbeddingSpec(m=1))
    assert dm.x_emb.tolist() == [[7], [8]]
    assert dm.x_future.tolist() == [8, 9]


def test_embed_missing_sample_kills_all_rows():
    x = [1.0, 2.0, np.nan, 4.0, 5.0]
    pair = SeriesPair(x, [1, 2, 3, 4, 5])
    with pytest.raises(InsufficientDataError):
        embed(pair, EmbeddingSpec(m=2, tau=1, h=1))


def test_embed_too_short():
    pair = SeriesPair([1, 2], [1, 2])
    with pytest.raises(InsufficientDataError):
        embed(pair, EmbeddingSpec(m=2, tau=2, h=1))


@settings(max_examples=40, deadline=None)
@given(T=st.integers(5, 60), m=st.integers(1, 4), tau=st.integers(1, 3),
       h=st.integers(1, 3))
def test_embed_row_count(T, m, tau, h):
    if (m - 1) * tau + h >= T:
        return
    rng = np.random.default_rng(T * 100 + m * 10 + tau)
    pair = SeriesPair(rng.normal(size=T), rng.normal(size=T))
    dm = embed(pair, EmbeddingSpec(m=m, tau=tau, h=h))
    assert dm.n_rows == T - (m - 1) * tau - h


def test_embed_restriction_property():
    rng = np.random.default_rng(7)
    x = rng.normal(size=60)
    y = rng.normal(size=60)
    full = embed(SeriesPair(x, y), EmbeddingSpec(m=2, tau=2, h=1))
    x_gaps = x.copy()
    x_gaps[[5, 17, 40]] = np.nan
    sub = embed(SeriesPair(x_gaps, y), EmbeddingSpec(m=2, tau=2, h=1))
    full_by_t = {t: i for i, t in enumerate(full.t)}
    for i, t in enumerate(sub.t):
        j = full_by_t[t]
        assert np.array_equal(sub.x_emb[i], full.x_emb[j])
        assert np.array_equal(sub.y_emb[i], full.y_emb[j])
        assert sub.x_future[i] == full.x_future[j]
    assert sub.n_rows < full.n_rows


def test_embed_deterministic():
    rng = np.random.default_rng(0)
    pair = SeriesPair(rng.normal(size=50), rng.normal(size=50))
    a = embed(pair, EmbeddingSpec(m=3, tau=1, h=2))
    b = embed(pair, EmbeddingSpec(m=3, tau=1, h=2))
    assert np.array_equal(a.x_emb, b.x_emb)
    assert np.array_equal(a.t, b.t)


def test_standardize_two_points():
    out = standardize(SeriesPair([0.0, 2.0], [5.0, 7.0]))
    assert np.allclose(out.x, [-1.0, 1.0])
    assert np.allclose(out.y, [-1.0, 1.0])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_standardize_idempotent(seed):
    rng = np.random.default_rng(seed)
    pair = SeriesPair(rng.normal(2, 3, size=40), rng.uniform(-5, 5, size=40))
    once = standardize(pair)
    twice = standardize(once)
    assert np.allclose(once.x, twice.x, atol=1e-12)
    assert np.allclose(once.y, twice.y, atol=1e-12)


def test_standardize_zero_variance():
    with pytest.raises(DegenerateSeriesError):
        standardize(SeriesPair([3.0, 3.0, 3.0], [1.0, 2.0, 3.0]))


def test_standardize_preserves_mask():
    x = np.array([1.0, np.nan, 3.0, 4.0])
    pair = SeriesPair(x, [1, 2, 3, 4])
    out = standardize(pair)
    assert out.x_missing.tolist() == [False, True, False, False]
    assert np.isnan(out.x[1])
    obs = out.x[~out.x_missing]
    assert abs(obs.mean()) < 1e-12 and abs(obs.std() - 1) < 1e-12


def test_standardize_ulam_scale():
    # pre-standardisation spread of the lattice output sits near 1.2
    pair = sim_ulam(UlamParams(lam=0.4, T=1000, seed=0))
    assert 1.0 < pair.x.std() < 1.4
    assert 1.0 < pair.y.std() < 1.4
    out = standardize(pair)
    assert abs(out.x.std() - 1.0) < 1e-12


def test_directed_index_values():
    assert directed_index(0.5, 0.2) == pytest.approx(0.3)
    assert np.isnan(directed_index(float("nan"), 0.2))
    assert np.isnan(directed_index(0.1, float("inf")))


@settings(max_examples=50)
@given(a=st.floats(-1e6, 1e6), b=st.floats(-1e6, 1e6))
def test_directed_index_antisymmetric(a, b):
    assert directed_index(a, a) == 0.0
    assert directed_index(a, b) == -directed_index(b, a)


def test_directed_te_hist_on_coupled_lattice():
    # mid-coupling lattice: the histogram-TE directed index sits near the
    # reference baseline magnitude (~0.67)
    from bicausal import HistParams, te_hist

    ds = []
    for run in range(2):
        pair = sim_ulam(UlamParams(lam=0.5, T=1000, seed=run))
        dm = embed(pair, EmbeddingSpec(m=1))
        ds.append(te_hist(dm, HistParams(N=8)).d)
    assert np.mean(ds) == pytest.approx(0.673, abs=0.2)


def test_index_estimate_d_and_status():
    est = IndexEstimate("te_hist", 0.9, 0.2)
    assert est.d == pytest.approx(0.7)
    assert est.value("xy") == 0.9 and est.value("yx") == 0.2
    with pytest.raises(ValidationError):
        IndexEstimate("x", 0.0, 0.0, status="bogus")


def test_series_pair_validation():
    with pytest.raises(ValidationError):
        SeriesPair([1, 2, 3], [1, 2])
    pair = SeriesPair([1.0, np.nan], [np.inf, 2.0])
    assert pair.x_missing.tolist() == [False, True]
    assert pair.y_missing.tolist() == [True, False]
    with pytest.raises(ValueError):
        pair.x[0] = 9.0  # immutable storage


@pytest.mark.parametrize("decimals", [None, 1])
def test_knn_graph_reads_equal_knn_all(decimals):
    pair = simulate_pair("lp", (0.0, 0.3), 1000, seed=0)
    if decimals is not None:
        pair = apply_perturbation(pair, PerturbationSpec(kind="round", decimals=decimals))
    dm = embed(pair, EmbeddingSpec(m=2))
    for series in "xyz":
        pset = PointSet(getattr(dm, f"{series}_emb"))
        for k in (12, 1, 5):  # the first read builds, the smaller ones slice
            idx, dist = dm.knn_graph(series, k, knn_all)
            want_idx, want_dist = knn_all(pset, k)
            assert np.array_equal(idx, want_idx) and np.array_equal(dist, want_dist)


def test_knn_graph_builds_on_first_and_larger_reads():
    dm = embed(simulate_pair("ulam", (0.4, 0.0), 300, seed=0), EmbeddingSpec(m=1))
    builds = []

    def build(pset, k):
        builds.append(k)
        return knn_all(pset, k)

    assert dm._graphs == {}  # embedding builds nothing
    for series, k in (("x", 5), ("x", 2), ("x", 5), ("y", 2), ("x", 8), ("x", 1), ("y", 2)):
        dm.knn_graph(series, k, build)
    assert builds == [5, 2, 8]
    with pytest.raises(ValidationError):
        dm.knn_graph("w", 1, build)


def test_knn_graph_dies_with_its_matrix():
    refs = []

    def build(pset, k):
        idx, dist = knn_all(pset, k)
        refs.append(weakref.ref(idx))
        return idx, dist

    gc.collect()
    gc.disable()
    try:
        dm = embed(simulate_pair("ulam", (0.4, 0.0), 300, seed=0), EmbeddingSpec(m=1))
        dm.knn_graph("x", 3, build)
        assert refs[0]() is not None
        del dm
        assert refs[0]() is None
    finally:
        gc.enable()


def test_index_estimate_rows():
    est = IndexEstimate("pi", 1.0, 2.0, 0.5, 0.25)
    assert est.rows() == [("pi", "xy", 1.0, 0.5, "ok"), ("pi", "yx", 2.0, 0.25, "ok")]


_DIRECTION_READERS = {
    "IndexEstimate.value": lambda d: IndexEstimate("pi", 1.0, 2.0).value(d),
    "ccm_rho_curve": lambda d: ccm_rho_curve(
        embed(simulate_pair("ulam", (0.4, 0.0), 300, seed=0), EmbeddingSpec(m=1)),
        CcmParams(), [10], d),
    "te_lp_analytic": lambda d: te_lp_analytic(LpParams(lam=0.3, T=1), d),
    "ctir_lp_analytic": lambda d: ctir_lp_analytic(LpParams(lam=0.3, T=1), 3, d),
}


@pytest.mark.parametrize("reader", list(_DIRECTION_READERS))
def test_unknown_direction_is_a_validation_error(reader):
    call = _DIRECTION_READERS[reader]
    call("xy"), call("yx")
    for direction in ("sideways", "XY", "", None, ["xy"]):
        with pytest.raises(ValidationError, match="unknown direction"):
            call(direction)


def _helper(on: bool):
    """A one-thread executor, as `harness.compute_indices` makes for a unit,
    or none."""
    return ThreadPoolExecutor(1) if on else contextlib.nullcontext()


@pytest.mark.parametrize("helper", [False, True])
def test_both_directions_times_each_direction(helper):
    # both directions run on the thread that calls both_directions, yx first:
    # the calling thread, or the unit's helper thread, where the kNN-graph
    # readers call it. xy is the slower one, and each time is its own
    delays = {"xy": 0.15, "yx": 0.05}
    calls, done, caller = [], [], []

    def fn(tag, direction):
        calls.append((direction, threading.get_ident()))
        time.sleep(delays[direction])
        done.append(direction)
        return tag + direction

    def side():
        caller.append(threading.get_ident())
        return both_directions(fn, "v-")

    threads = threading.active_count()
    with _helper(helper) as pool:
        (xy, t_xy), (yx, t_yx) = beside(pool, lambda: None, side)[1]
        assert sorted(done) == ["xy", "yx"]
        # the only thread is the caller's helper
        assert threading.active_count() == threads + helper
    assert (xy, yx) == ("v-xy", "v-yx")
    assert delays["yx"] <= t_yx < delays["xy"] <= t_xy
    assert calls == [("yx", caller[0]), ("xy", caller[0])]
    assert (caller[0] == threading.get_ident()) is not helper
    assert threading.active_count() == threads


@pytest.mark.parametrize("failing", ["main", "side", "both"])
@pytest.mark.parametrize("helper", [False, True])
def test_beside_propagates_an_error_after_the_wait(helper, failing):
    # an exception of either function reaches the caller unchanged, main's
    # when both raise, and only once the helper's function has ended
    done = []

    def call(name, delay):
        def fn():
            time.sleep(delay)
            done.append(name)
            if failing in (name, "both"):
                raise RuntimeError(name)
            return name
        return fn

    with _helper(helper) as pool:
        with pytest.raises(RuntimeError, match="main" if failing != "side" else "side"):
            beside(pool, call("main", 0.0), call("side", 0.1))
        # serially, side never starts after main raised
        assert done == (["main"] if failing != "side" and not helper else ["main", "side"])
        assert beside(pool, lambda: "main", lambda: "side") == ("main", "side")
