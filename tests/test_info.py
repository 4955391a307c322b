import contextlib
import gc
import math
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from bicausal import (
    CtirParams,
    EmbeddingSpec,
    EteParams,
    KsgParams,
    LpParams,
    PerturbationSpec,
    SeriesPair,
    UlamParams,
    apply_perturbation,
    cmi_ksg,
    compute_indices,
    ctir,
    embed,
    ete_hist,
    hist_entropy,
    sim_lp,
    sim_ulam,
    te_hist,
    te_ksg,
    te_lp_analytic,
    te_lp_small_lam,
)
from bicausal.core import STATUS_DEGENERATE, STATUS_OK
from bicausal.errors import (
    InsufficientDataError,
    InsufficientPointsError,
    ValidationError,
)
from bicausal import harness, info
from bicausal.info import _cmi_ksg_impl


# ---------------------------------------------------------------------------
# histogram entropy


def brute_entropy(samples, edges):
    """Independent plug-in oracle: pure-python binning and summation."""
    counts = Counter()
    for row in np.atleast_2d(samples):
        code = []
        for v, e in zip(row, edges):
            idx = 0
            for b in range(len(e) - 1):
                if e[b] <= v < e[b + 1] or (b == len(e) - 2 and v == e[-1]):
                    idx = b
                    break
            code.append(idx)
        counts[tuple(code)] += 1
    n = sum(counts.values())
    return -sum((c / n) * math.log(c / n) for c in counts.values())


def test_hist_entropy_uniform_8_bins():
    centers = np.arange(8) + 0.5
    samples = np.repeat(centers, 1000)
    h = hist_entropy(samples, [np.linspace(0, 8, 9)])
    assert h == pytest.approx(math.log(8), abs=1e-12)


def test_hist_entropy_single_bin():
    assert hist_entropy(np.full(50, 2.5), [np.array([0.0, 5.0])]) == 0.0


def test_hist_entropy_matches_brute_force():
    rng = np.random.default_rng(0)
    for d in (1, 2, 3):
        edges = [np.linspace(-2, 2, 5)] * d
        samples = rng.integers(-2, 3, size=(97, d)).astype(float) * 0.9
        got = hist_entropy(samples, edges)
        want = brute_entropy(samples, edges)
        assert got == pytest.approx(want, abs=1e-12)


def test_hist_entropy_subadditive():
    rng = np.random.default_rng(1)
    a = rng.integers(0, 4, size=400).astype(float)
    b = rng.integers(0, 4, size=400).astype(float)
    e = [np.linspace(0, 3, 5)]
    joint = hist_entropy(np.column_stack([a, b]), e * 2)
    assert joint <= hist_entropy(a, e) + hist_entropy(b, e) + 1e-12


def test_hist_entropy_errors():
    with pytest.raises(InsufficientDataError):
        hist_entropy(np.empty((0, 1)), [np.array([0.0, 1.0])])
    with pytest.raises(ValidationError):
        hist_entropy(np.array([5.0]), [np.array([0.0, 1.0])])


# ---------------------------------------------------------------------------
# histogram TE / ETE


def test_te_hist_independent_small_bias():
    rng = np.random.default_rng(2)
    pair = SeriesPair(rng.uniform(size=10_000), rng.uniform(size=10_000))
    est = te_hist(embed(pair, EmbeddingSpec(m=1)))
    for v in (est.value_yx, est.value_xy):
        assert -0.005 < v < 0.05


def test_te_hist_period_two_is_zero():
    x = np.tile([0.0, 1.0], 200)
    est = te_hist(embed(SeriesPair(x, x.copy()), EmbeddingSpec(m=1)))
    assert est.value_yx == pytest.approx(0.0, abs=1e-12)
    assert est.value_xy == pytest.approx(0.0, abs=1e-12)


def test_te_hist_constant_degenerate():
    pair = SeriesPair(np.ones(50), np.arange(50.0))
    est = te_hist(embed(pair, EmbeddingSpec(m=1)))
    assert est.status == STATUS_DEGENERATE and np.isnan(est.value_yx)


def test_te_hist_affine_invariance():
    pair = sim_lp(LpParams(lam=0.4, T=3000, seed=3))
    mapped = SeriesPair(5.0 * pair.x - 2.0, 0.25 * pair.y + 11.0)
    a = te_hist(embed(pair, EmbeddingSpec(m=1)))
    b = te_hist(embed(mapped, EmbeddingSpec(m=1)))
    assert a.value_yx == pytest.approx(b.value_yx, abs=1e-12)
    assert a.value_xy == pytest.approx(b.value_xy, abs=1e-12)


def test_ete_corrects_independent_bias():
    te_vals, ete_vals = [], []
    for run in range(10):
        rng = np.random.default_rng(300 + run)
        pair = SeriesPair(rng.normal(size=2000), rng.normal(size=2000))
        dm = embed(pair, EmbeddingSpec(m=1))
        te_vals.append(te_hist(dm).value_yx)
        ete_vals.append(ete_hist(dm, e=EteParams(n_shuffle=5, seed=run)).value_yx)
    assert abs(np.mean(ete_vals)) < abs(np.mean(te_vals))
    assert abs(np.mean(ete_vals)) < 0.01


def test_ete_nonpositive_when_te_zero():
    x = np.tile([0.0, 1.0], 150)
    dm = embed(SeriesPair(x, x.copy()), EmbeddingSpec(m=1))
    est = ete_hist(dm, e=EteParams(n_shuffle=5, seed=0))
    assert est.value_yx <= 1e-12


def test_ete_degenerate_when_a_shuffle_leaves_a_constant_series():
    # x varies only in its last sample, the future of the last row; a
    # shuffled y that puts a gap on that row leaves x constant in the
    # shuffled embedding
    x = np.zeros(20)
    x[-1] = 1.0
    y = np.random.default_rng(0).normal(size=20)
    y[[2, 5, 8, 11, 14]] = np.nan
    dm = embed(SeriesPair(x, y), EmbeddingSpec(m=1))
    assert te_hist(dm).status == STATUS_OK
    est = ete_hist(dm)
    assert est.status == STATUS_DEGENERATE
    assert np.isnan(est.value_xy) and np.isnan(est.value_yx)


def test_ete_deterministic():
    pair = sim_lp(LpParams(lam=0.3, T=1000, seed=1))
    dm = embed(pair, EmbeddingSpec(m=1))
    a = ete_hist(dm, e=EteParams(n_shuffle=4, seed=9))
    b = ete_hist(dm, e=EteParams(n_shuffle=4, seed=9))
    assert a.value_yx == b.value_yx and a.value_xy == b.value_xy


# ---------------------------------------------------------------------------
# KSG machinery


def test_cmi_independent_near_zero():
    vals = []
    for run in range(10):
        rng = np.random.default_rng(400 + run)
        vals.append(cmi_ksg(rng.normal(size=10_000), rng.normal(size=10_000)))
    assert abs(np.mean(vals)) < 0.01


def test_mi_bivariate_gaussian():
    # I = -log(1 - r^2) / 2 for correlation r
    r = 0.6
    want = -0.5 * math.log(1 - r * r)
    vals = []
    for run in range(3):
        rng = np.random.default_rng(500 + run)
        a = rng.normal(size=10_000)
        b = r * a + math.sqrt(1 - r * r) * rng.normal(size=10_000)
        vals.append(cmi_ksg(a, b))
    assert np.mean(vals) == pytest.approx(want, abs=0.01)


def test_cmi_identical_inputs_saturate():
    rng = np.random.default_rng(6)
    a = rng.normal(size=500)
    value, degenerate = _cmi_ksg_impl(a, a.copy(), None, KsgParams(k=4))
    assert degenerate
    assert np.isfinite(value) and value > 1.0


def test_cmi_validation():
    rng = np.random.default_rng(7)
    with pytest.raises(InsufficientPointsError):
        cmi_ksg(rng.normal(size=4), rng.normal(size=4), p=KsgParams(k=4))
    with pytest.raises(ValidationError):
        cmi_ksg(rng.normal(size=10), rng.normal(size=9))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("block", ["a", "b", "c"])
def test_cmi_non_finite_is_validation_error(block, bad):
    rng = np.random.default_rng(9)
    blocks = {name: rng.normal(size=100) for name in "abc"}
    blocks[block][17] = bad
    with pytest.raises(ValidationError, match=f"block {block} "):
        cmi_ksg(blocks["a"], blocks["b"], blocks["c"])


def test_cmi_jitter_handles_ties():
    rng = np.random.default_rng(8)
    a = np.round(rng.normal(size=800), 1)
    b = np.round(rng.normal(size=800), 1)
    v1 = cmi_ksg(a, b, p=KsgParams(k=4, seed=1))
    v2 = cmi_ksg(a, b, p=KsgParams(k=4, seed=1))
    assert v1 == v2
    assert np.isfinite(v1)


# ---------------------------------------------------------------------------
# KSG transfer entropy


def test_te_ksg_decoupled_lp():
    pair = sim_lp(LpParams(lam=0.0, T=10_000, seed=10))
    est = te_ksg(embed(pair, EmbeddingSpec(m=1)))
    assert abs(est.value_yx) < 0.01
    assert abs(est.value_xy) < 0.01


def test_te_ksg_matches_analytic_mid_coupling():
    p = LpParams(lam=0.5, T=10_000, seed=11)
    est = te_ksg(embed(sim_lp(p), EmbeddingSpec(m=1)))
    assert est.value_yx == pytest.approx(te_lp_analytic(p), abs=0.02)


def test_te_ksg_small_coupling_leading_order():
    p = LpParams(lam=0.1, T=10_000, seed=12)
    est = te_ksg(embed(sim_lp(p), EmbeddingSpec(m=1)))
    assert est.value_yx == pytest.approx(te_lp_small_lam(p), abs=0.01)


def test_te_ksg_common_rescaling_invariance():
    pair = sim_lp(LpParams(lam=0.5, T=2000, seed=13))
    scaled = SeriesPair(3.0 * pair.x, 3.0 * pair.y)
    a = te_ksg(embed(pair, EmbeddingSpec(m=1)))
    b = te_ksg(embed(scaled, EmbeddingSpec(m=1)))
    assert a.value_yx == pytest.approx(b.value_yx, abs=1e-9)
    assert a.value_xy == pytest.approx(b.value_xy, abs=1e-9)


# ---------------------------------------------------------------------------
# CTIR


def test_ctir_independent_near_zero():
    rng = np.random.default_rng(14)
    pair = SeriesPair(rng.normal(size=3000), rng.normal(size=3000))
    est = ctir(embed(pair, EmbeddingSpec(m=1)), CtirParams(tau_max=5, k=4))
    assert abs(est.value_yx) < 0.02 and abs(est.value_xy) < 0.02


def _lp_with_gaps(seed: int) -> SeriesPair:
    return apply_perturbation(sim_lp(LpParams(lam=0.5, T=2000, seed=seed)),
                              PerturbationSpec(kind="missing", fraction=0.1, seed=3))


def test_ctir_single_lag_equals_te_ksg():
    # with missing samples too: ctir's lag-1 rows are embed's rows
    for pair in (sim_lp(LpParams(lam=0.5, T=2000, seed=15)), _lp_with_gaps(15)):
        a = ctir(embed(pair, EmbeddingSpec(m=1)), CtirParams(tau_max=1, k=4))
        b = te_ksg(embed(pair, EmbeddingSpec(m=1, tau=1, h=1)))
        assert (a.value_xy, a.value_yx, a.status) == (b.value_xy, b.value_yx, b.status)


def test_ctir_is_mean_of_te_ksg_over_horizons():
    # on missing data each lag keeps the rows of its own m=1 embedding, the
    # same rows in both directions
    pair = _lp_with_gaps(21)
    est = ctir(embed(pair, EmbeddingSpec(m=1)), CtirParams(tau_max=3, k=4))
    terms = [te_ksg(embed(pair, EmbeddingSpec(m=1, h=tau))) for tau in (1, 2, 3)]
    assert est.value_xy == np.mean([t.value_xy for t in terms])
    assert est.value_yx == np.mean([t.value_yx for t in terms])


def _ctir_from_shifted_slices(pair: SeriesPair, p: CtirParams) -> tuple[float, float]:
    """ctir of complete series from the public cmi_ksg: the lag-tau term of
    cause -> effect is I(effect[tau:]; cause[:-tau] | effect[:-tau])."""
    def mean(effect, cause):
        return np.mean([cmi_ksg(effect[tau:], cause[:-tau], effect[:-tau], p)
                        for tau in range(1, p.tau_max + 1)])

    return mean(pair.y, pair.x), mean(pair.x, pair.y)


@pytest.mark.parametrize("decimals", [None, 1, 0], ids=["raw", "round1", "round0"])
def test_ctir_equals_cmi_ksg_on_shifted_slices(decimals):
    pair = sim_lp(LpParams(lam=0.3, T=2000, seed=20))
    if decimals is not None:
        pair = apply_perturbation(pair, PerturbationSpec(kind="round", decimals=decimals))
    p = CtirParams(tau_max=5, k=4)
    est = ctir(embed(pair, EmbeddingSpec(m=1)), p)
    assert (est.value_xy, est.value_yx) == _ctir_from_shifted_slices(pair, p)


def test_ctir_requires_length():
    pair = SeriesPair(np.arange(6.0), np.arange(6.0))
    with pytest.raises(InsufficientDataError):
        ctir(embed(pair, EmbeddingSpec(m=1)), CtirParams(tau_max=5))


def test_ctir_requires_horizon_one():
    pair = sim_lp(LpParams(lam=0.3, T=300, seed=19))
    with pytest.raises(ValidationError, match="horizon-1"):
        ctir(embed(pair, EmbeddingSpec(m=1, h=2)), CtirParams(tau_max=2))


# ---------------------------------------------------------------------------
# rank-window counts against the kd-tree counts they replace


def _tree_strict_counts(points, radii, cols=None, windows=None):
    return info._tree_counts(points if cols is None else points[:, cols], radii)


def _with_tree_counts(monkeypatch, estimate):
    fast = estimate()
    with monkeypatch.context() as mp:
        mp.setattr(info, "_strict_counts", _tree_strict_counts)
        tree = estimate()
    return fast, tree


@pytest.mark.parametrize("variant", [
    None,
    PerturbationSpec(kind="round", decimals=1),
    PerturbationSpec(kind="missing", fraction=0.1, seed=3),
], ids=["raw", "round1", "missing"])
def test_ctir_counts_match_tree(monkeypatch, variant):
    pair = sim_lp(LpParams(lam=0.3, T=2000, seed=16))
    if variant is not None:
        pair = apply_perturbation(pair, variant)
    dm = embed(pair, EmbeddingSpec(m=1))
    fast, tree = _with_tree_counts(monkeypatch, lambda: ctir(dm, CtirParams(tau_max=20)))
    assert (fast.value_xy, fast.value_yx, fast.status) == (tree.value_xy, tree.value_yx,
                                                           tree.status)


@pytest.mark.parametrize("m", [1, 2])
def test_te_ksg_counts_match_tree(monkeypatch, m):
    # m=2 gives 3-column marginals, which take the tree path on both sides
    dm = embed(sim_lp(LpParams(lam=0.3, T=2000, seed=17)), EmbeddingSpec(m=m))
    fast, tree = _with_tree_counts(monkeypatch, lambda: te_ksg(dm))
    assert (fast.value_xy, fast.value_yx, fast.status) == (tree.value_xy, tree.value_yx,
                                                           tree.status)


# ---------------------------------------------------------------------------
# the k-NN terms drawn by two threads against one thread


_DIRECTION_CASES = {
    "lp-raw": lambda: sim_lp(LpParams(lam=0.3, T=2000, seed=18)),
    "lp-round1": lambda: apply_perturbation(sim_lp(LpParams(lam=0.3, T=2000, seed=18)),
                                            PerturbationSpec(kind="round", decimals=1)),
    "lp-missing": lambda: apply_perturbation(
        sim_lp(LpParams(lam=0.3, T=2000, seed=18)),
        PerturbationSpec(kind="missing", fraction=0.1, seed=3)),
    "ulam-1e3": lambda: sim_ulam(UlamParams(lam=0.4, T=1000, seed=0)),
}


def _fields(est):
    return est.value_xy, est.value_yx, est.status


@pytest.mark.parametrize("case", list(_DIRECTION_CASES))
def test_concurrent_directions_equal_serial(case):
    # each estimate on its own matrix, its terms drawn by the calling thread
    # alone or beside the helper; then te_ksg read after ctir on one matrix
    # reads ctir's horizon-1 terms, and equals te_ksg alone
    pair = _DIRECTION_CASES[case]()
    presets = harness.index_presets("lp" if case.startswith("lp") else "ulam", pair.T)
    with ThreadPoolExecutor(1) as pool:
        for estimate in (lambda dm, helper: te_ksg(dm, presets["te_ksg"], helper=helper),
                         lambda dm, helper: ctir(dm, presets["ctir"], helper=helper)):
            serial, concurrent = (estimate(embed(pair, EmbeddingSpec(m=1)), helper)
                                  for helper in (None, pool))
            assert _fields(concurrent) == _fields(serial)
            for est in (serial, concurrent):
                assert est.elapsed_xy > 0 and est.elapsed_yx > 0
        dm = embed(pair, EmbeddingSpec(m=1))
        shared = ctir(dm, presets["ctir"], helper=pool)
        assert _fields(shared) == _fields(serial)
        assert _fields(te_ksg(dm, presets["te_ksg"])) == _fields(
            te_ksg(embed(pair, EmbeddingSpec(m=1)), presets["te_ksg"]))


@pytest.mark.parametrize("failing", ["xy", "yx"])
@pytest.mark.parametrize("concurrent", [False, True])
def test_ksg_term_error_propagates_after_the_drawing_stops(monkeypatch, failing, concurrent):
    # ctir's horizon-1 term of one direction raises; every other term is
    # slower. The error reaches the caller only once no term is being
    # computed, no term is drawn after it but one the other thread may draw
    # at the same time, and the matrix keeps it: te_ksg on the same matrix
    # raises it again and starts no term, not even the other direction's
    pair = sim_lp(LpParams(lam=0.3, T=600, seed=19))
    short = embed(SeriesPair(pair.x[:4], pair.y[:4]), EmbeddingSpec(m=1))
    events, term = [], info._ksg_term

    def drawn(dm, p, direction, tau):
        events.append(("start", direction, tau))
        if (direction, tau) == (failing, 1):
            events.append(("fail", direction, tau))
            return term(short, p, direction, tau)
        time.sleep(0.05)
        result = term(dm, p, direction, tau)
        events.append(("end", direction, tau))
        return result

    monkeypatch.setattr(info, "_ksg_term", drawn)
    dm = embed(pair, EmbeddingSpec(m=1))
    threads = threading.active_count()
    with ThreadPoolExecutor(1) if concurrent else contextlib.nullcontext() as pool:
        with pytest.raises(InsufficientPointsError):
            ctir(dm, CtirParams(tau_max=3), helper=pool)
        started = [e[1:] for e in events if e[0] == "start"]
        ended = [e[1:] for e in events if e[0] in ("end", "fail")]
        assert sorted(started) == sorted(ended)
        after = events[events.index(("fail", failing, 1)) + 1:]
        assert sum(e[0] == "start" for e in after) <= concurrent
        assert isinstance(dm.ksg_terms[4, 0][failing, 1], InsufficientPointsError)
        events.clear()
        with pytest.raises(InsufficientPointsError):
            te_ksg(dm, KsgParams(), helper=pool)
        assert events == []
    assert threading.active_count() == threads


def test_ctir_no_complete_row_at_lag_one():
    # x missing at every odd t: no lag-1 row has x at both t and t+1, so the
    # m=1 matrix that te_ksg and ctir read cannot be built, and
    # compute_indices records ctir as degenerate
    pair = sim_lp(LpParams(lam=0.3, T=600, seed=19))
    x = pair.x.copy()
    x[1::2] = np.nan
    pair = SeriesPair(x, pair.y)
    with pytest.raises(InsufficientDataError, match="no complete embedding rows"):
        embed(pair, EmbeddingSpec(m=1))
    (est,) = compute_indices(pair, "lp", pair.T, ("ctir",))
    assert est.status == STATUS_DEGENERATE and math.isnan(est.value_xy)


def test_ctir_no_complete_row_at_a_later_lag(monkeypatch):
    # x missing at t = 2, 3 mod 4: lag-1 rows (t = 0 mod 4) survive, but no
    # lag-2 row has x at both t and t+2, so a lag-2 term's embed raises, after
    # the lag-1 terms, on whichever thread drew it. ctir is degenerate, and
    # te_ksg, which reads the lag-1 terms only, is not. The matrix keeps the
    # error, and raising it leaves no reference cycle
    pair = sim_lp(LpParams(lam=0.3, T=600, seed=19))
    x = pair.x.copy()
    x[(np.arange(600) % 4) >= 2] = np.nan
    pair = SeriesPair(x, pair.y)
    threads = threading.active_count()
    for concurrent in (False, True):
        with ThreadPoolExecutor(1) if concurrent else contextlib.nullcontext() as pool:
            with pytest.raises(InsufficientDataError, match="no complete embedding rows"):
                ctir(embed(pair, EmbeddingSpec(m=1)), CtirParams(tau_max=2), helper=pool)
        assert threading.active_count() == threads
    alone = te_ksg(embed(pair, EmbeddingSpec(m=1)), KsgParams())
    assert alone.status == STATUS_OK
    for split in (False, True):
        monkeypatch.setattr(harness, "helper_threads", lambda T, processes=1, s=split: s)
        (est,) = compute_indices(pair, "lp", pair.T, ("ctir",))
        assert est.status == STATUS_DEGENERATE and math.isnan(est.value_xy)
        gc.collect()
        gc.disable()
        try:
            est, ksg = compute_indices(pair, "lp", pair.T, ("ctir", "te_ksg"))
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert est.status == STATUS_DEGENERATE and math.isnan(est.value_xy)
        assert _fields(ksg) == _fields(alone)
        assert threading.active_count() == threads
