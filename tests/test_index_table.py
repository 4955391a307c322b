"""The index table of `harness.compute_indices` against direct estimator calls,
the delay matrices and kNN graphs one `compute_indices` call shares between
its indices, and the estimators' parameter checks."""

import gc
import math
import threading
import time
from collections import Counter

import numpy as np
import pytest

from bicausal import crossmap, harness, info, regress
from bicausal.core import STATUS_DEGENERATE, STATUS_OK, EmbeddingSpec, SeriesPair, embed
from bicausal.errors import BicausalError, InsufficientPointsError, ValidationError
from bicausal.perturb import PerturbationSpec, apply_perturbation

ESTIMATORS = ((regress, "egc"), (regress, "nlgc"), (regress, "pi"),
              (info, "te_hist"), (info, "ete_hist"), (info, "te_ksg"), (info, "ctir"),
              (crossmap, "si_pair"), (crossmap, "ccm"))


def direct_estimates(pair, simulation, T) -> dict:
    """Every index by its own estimator call with the preset parameters and
    embedding, si1 and si2 each from a single-R `si_pair` call. A failed call
    gives None."""
    ps = harness.index_presets(simulation, T)

    def dm(m):
        return embed(pair, EmbeddingSpec(m=m))

    calls = {
        "egc": lambda: regress.egc(dm(ps["m"]), ps["egc"]),
        "nlgc": lambda: regress.nlgc(dm(ps["m"]), ps["nlgc"]),
        "pi": lambda: regress.pi(dm(ps["pi_m"]), ps["pi"]),
        "te_hist": lambda: info.te_hist(dm(1), ps["te_hist"]),
        "ete_hist": lambda: info.ete_hist(dm(1), ps["te_hist"], ps["ete_hist"]),
        "te_ksg": lambda: info.te_ksg(dm(1), ps["te_ksg"]),
        "ctir": lambda: info.ctir(dm(1), ps["ctir"]),
        "si1": lambda: crossmap.si_pair(dm(ps["m"]), ps["si1"])[0],
        "si2": lambda: crossmap.si_pair(dm(ps["m"]), ps["si2"])[1],
        "ccm": lambda: crossmap.ccm(dm(ps["m"]), ps["ccm"]),
    }
    out = {}
    for name, call in calls.items():
        try:
            out[name] = call()
        except BicausalError:
            out[name] = None
    return out


def same_value(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def assert_same(got, want):
    assert got.index == want.index
    assert same_value(got.value_xy, want.value_xy), (got, want)
    assert same_value(got.value_yx, want.value_yx), (got, want)
    assert got.status == want.status, (got, want)


def assert_degenerate(est):
    assert est.status == STATUS_DEGENERATE
    assert math.isnan(est.value_xy) and math.isnan(est.value_yx)


@pytest.mark.parametrize("simulation,T,point,rounded", [
    ("lp", 2000, (0.0, 0.3), False),
    ("ulam", 1000, (0.4, 0.0), False),
    ("henon_uni", 1000, (0.3, 0.0), False),
    ("henon_bi_i", 2000, (0.1, 0.05), False),
    ("ulam", 1000, (0.4, 0.0), True),
])
def test_table_matches_direct_calls(simulation, T, point, rounded):
    pair = harness.simulate_pair(simulation, point, T, seed=0)
    if rounded:
        pair = apply_perturbation(pair, PerturbationSpec(kind="round", decimals=1))
    got = harness.compute_indices(pair, simulation, T)
    assert [est.index for est in got] == list(harness.INDEX_NAMES)
    want = direct_estimates(pair, simulation, T)
    for est in got:
        if want[est.index] is None:
            assert_degenerate(est)
        else:
            assert_same(est, want[est.index])
    reordered = harness.compute_indices(pair, simulation, T, ("si2", "te_hist", "si1"))
    assert [est.index for est in reordered] == ["si2", "te_hist", "si1"]


def test_si_only_larger_radius_too_large():
    # lp at T=30 embeds to 28 rows: si1 (R=10) fits, si2 (R=30) does not
    pair = harness.simulate_pair("lp", (0.0, 0.3), 30, seed=0)
    ps = harness.index_presets("lp", 30)
    dm = embed(pair, EmbeddingSpec(m=ps["m"]))
    with pytest.raises(InsufficientPointsError):
        crossmap.si_pair(dm, ps["si2"])
    got = harness.compute_indices(pair, "lp", 30, ("si1", "si2"))
    assert [(est.index, est.status) for est in got] == [("si1", STATUS_OK),
                                                        ("si2", STATUS_DEGENERATE)]
    assert_same(got[0], crossmap.si_pair(dm, ps["si1"])[0])
    assert_degenerate(got[1])


def test_ctir_reads_the_shared_m1_matrix(monkeypatch):
    # one lp unit of all ten indices builds 60 delay matrices: harness's m=1
    # and m=2, ete_hist's 10 shuffles per direction and ctir's horizons 2..20
    # per direction. ctir's horizon 1 is the m=1 matrix that te_hist, ete_hist
    # and te_ksg read
    built = Counter()
    for module in (harness, info):
        def counted(pair, spec, _fn=module.embed, _name=module.__name__):
            built[_name] += 1
            return _fn(pair, spec)
        monkeypatch.setattr(module, "embed", counted)
    pair = harness.simulate_pair("lp", (0.0, 0.3), 2000, seed=0)
    assert all(est.status == STATUS_OK for est in harness.compute_indices(pair, "lp", 2000))
    assert built == {"bicausal.harness": 2, "bicausal.info": 20 + 2 * 19}


def test_failed_embedding_is_tried_once_per_dimension(monkeypatch):
    # with x missing at every odd t no row survives at m = 1 or m = 2; each
    # is embedded once, and every index that reads it is degenerate
    calls = []

    def counted(pair, spec, _fn=harness.embed):
        calls.append(spec.m)
        return _fn(pair, spec)

    monkeypatch.setattr(harness, "embed", counted)
    pair = harness.simulate_pair("lp", (0.0, 0.3), 600, seed=0)
    x = pair.x.copy()
    x[1::2] = np.nan
    got = harness.compute_indices(SeriesPair(x, pair.y), "lp", 600)
    assert sorted(calls) == [1, 2]
    for est in got:
        assert_degenerate(est)


def _integer_field(cls, name, minimum):
    return pytest.param(cls, name, minimum, (minimum - 1, minimum + 0.5, float(minimum), True),
                        id=f"{cls.__name__}.{name}")


@pytest.mark.parametrize("cls,name,good,bad", [
    *(_integer_field(cls, name, minimum) for cls, name, minimum in (
        (info.KsgParams, "k", 1), (info.KsgParams, "seed", 0),
        (info.CtirParams, "tau_max", 1), (info.CtirParams, "k", 1), (info.CtirParams, "seed", 0),
        (info.HistParams, "N", 2), (info.EteParams, "n_shuffle", 1), (info.EteParams, "seed", 0),
        (crossmap.SiParams, "R", 1), (regress.PiParams, "R", 1),
        (regress.NlgcParams, "P", 1), (regress.NlgcParams, "seed", 0),
        (regress.EgcParams, "L", 1), (regress.EgcParams, "seed", 0),
        (crossmap.CcmParams, "n_t", 1), (crossmap.CcmParams, "seed", 0))),
    pytest.param(regress.EgcParams, "delta", 0.5, (math.nan, math.inf, 0.0), id="EgcParams.delta"),
    pytest.param(regress.NlgcParams, "var", 0.05, (math.nan, math.inf, 0.0), id="NlgcParams.var"),
    pytest.param(crossmap.CcmParams, "delta_rho", -0.1, (math.nan, math.inf, -math.inf),
                 id="CcmParams.delta_rho"),
    pytest.param(regress.PiParams, "include_self", True, ("no", 1, None),
                 id="PiParams.include_self"),
])
def test_estimator_params_reject_malformed_fields(cls, name, good, bad):
    assert getattr(cls(**{name: good}), name) == good
    for value in bad:
        with pytest.raises(ValidationError):
            cls(**{name: value})


def test_each_estimator_called_once_per_unit_through_its_module(monkeypatch):
    calls = Counter()
    for module, name in ESTIMATORS:
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    ks = []

    def recorded(pset, k, *args, _fn=crossmap.knn_all, **kwargs):
        ks.append(k)
        return _fn(pset, k, *args, **kwargs)

    monkeypatch.setattr(crossmap, "knn_all", recorded)
    runs = 2
    harness.run_sweep(harness.SweepConfig(simulation="lp", couplings=(0.2,), T=2000,
                                          runs=runs, base_seed=0))
    # te_hist is also called by ete_hist, for its unshuffled value, and
    # si_pair once for si1 and once for si2
    want = {name: runs for _, name in ESTIMATORS} | {"te_hist": 2 * runs, "si_pair": 2 * runs}
    assert dict(calls) == want

    # a lone si request builds its graphs, one per series, at its own R only
    pair = harness.simulate_pair("lp", (0.0, 0.3), 2000, seed=0)
    both = {est.index: est for est in harness.compute_indices(pair, "lp", 2000)}
    for names, k in ((("si1",), 10), (("si2",), 30), (("si1", "si2"), 30)):
        ks.clear()
        for est in harness.compute_indices(pair, "lp", 2000, names):
            assert_same(est, both[est.index])
        assert ks == [k, k]


def recorded_graph_builds(monkeypatch, *dms):
    """Record every kNN graph build through the `knn_all` names of `regress`
    and `crossmap`, as (module, series and embedding dimension, k), and the
    library size of every `crossmap.knn_points` call."""
    builds, library_sizes = [], []
    embeddings = {f"{name}{dm.m}": getattr(dm, f"{name}_emb")
                  for dm in dms for name in "xyz"}

    def series(points):
        return next(name for name, emb in embeddings.items()
                    if emb.shape == points.shape and (emb == points).all())

    for module in (regress, crossmap):
        def build(pset, k, *args, _fn=module.knn_all, _module=module.__name__, **kwargs):
            builds.append((_module.rsplit(".", 1)[1], series(pset.points), k))
            return _fn(pset, k, *args, **kwargs)
        monkeypatch.setattr(module, "knn_all", build)

    def points(pset, queries, *args, _fn=crossmap.knn_points, **kwargs):
        library_sizes.append(pset.n)
        return _fn(pset, queries, *args, **kwargs)
    monkeypatch.setattr(crossmap, "knn_points", points)
    return builds, library_sizes


def test_one_graph_per_series_on_ulam(monkeypatch):
    pair = harness.simulate_pair("ulam", (0.4, 0.0), 1000, seed=0)
    builds, library_sizes = recorded_graph_builds(monkeypatch, embed(pair, EmbeddingSpec(m=1)))
    harness.compute_indices(pair, "ulam", 1000)
    # si reads most (R = 20), so it builds x and y for itself, ccm's full
    # library (m+1 = 2) and pi (R 1); pi's joint graph is its own
    assert builds == [("crossmap", "x1", 20), ("crossmap", "y1", 20), ("regress", "z1", 1)]
    # ccm's two library sizes read the graph or rank their own m+2 points
    assert library_sizes == []

    builds.clear()
    harness.compute_indices(pair, "ulam", 1000, ("ccm", "si1"))
    assert builds == [("crossmap", "x1", 20), ("crossmap", "y1", 20)]


def test_si_and_ccm_share_one_graph_per_series_on_lp(monkeypatch):
    pair = harness.simulate_pair("lp", (0.0, 0.3), 2000, seed=0)
    builds, library_sizes = recorded_graph_builds(
        monkeypatch, embed(pair, EmbeddingSpec(m=1)), embed(pair, EmbeddingSpec(m=2)))
    harness.compute_indices(pair, "lp", 2000)
    # si (R 10 and 30) and ccm (m+1 = 3) share the 2-D pair at 30, which si
    # builds; pi, which runs between them, reads its own 1-D graphs at R = 10
    assert builds == [("crossmap", "x2", 30), ("crossmap", "y2", 30),
                      ("regress", "z1", 10), ("regress", "x1", 10), ("regress", "y1", 10)]
    assert library_sizes == []


@pytest.mark.parametrize("names", [("pi", "si1", "ccm"), ("ccm", "si1", "pi")])
def test_graph_build_time_goes_to_the_reader_of_the_whole_graph(monkeypatch, names):
    delay = 0.2
    for module in (regress, crossmap):
        def slow(*args, _fn=module.knn_all, **kwargs):
            time.sleep(delay)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, "knn_all", slow)
    pair = harness.simulate_pair("ulam", (0.4, 0.0), 1000, seed=0)
    got = {est.index: est.elapsed_xy + est.elapsed_yx
           for est in harness.compute_indices(pair, "ulam", 1000, names)}
    # in either order si1 (R = 20) builds x and y, ccm (k = 2) only reads
    # them, and pi (R = 1) reads them and builds its joint graph
    assert 2 * delay <= got["si1"] < 3 * delay
    assert got["ccm"] < delay
    assert delay <= got["pi"] < 2 * delay


@pytest.mark.parametrize("decimals", [None, 1])
@pytest.mark.parametrize("simulation,T,point", [
    ("lp", 2000, (0.0, 0.3)),
    ("ulam", 1000, (0.4, 0.0)),
    ("henon_bi_i", 2000, (0.1, 0.05)),
])
def test_compute_indices_leaves_no_reference_cycle(simulation, T, point, decimals):
    # the shared graphs are released by reference counting, not by the
    # cycle collector
    pair = harness.simulate_pair(simulation, point, T, seed=0)
    if decimals is not None:
        pair = apply_perturbation(pair, PerturbationSpec(kind="round", decimals=decimals))
    gc.collect()
    gc.disable()
    try:
        estimates = harness.compute_indices(pair, simulation, T)
        assert gc.collect() == 0
    finally:
        gc.enable()
    # each graph's build time stays with the estimate that builds it
    for est in estimates:
        if est.index in ("pi", "si1", "si2", "ccm"):
            assert est.elapsed_xy + est.elapsed_yx > 0.0


# ---------------------------------------------------------------------------
# the k-NN terms te_ksg and ctir share through their delay matrix


def _force_helper_threads(monkeypatch, split: bool):
    monkeypatch.setattr(harness, "helper_threads", lambda T, processes=1: split)


@pytest.mark.parametrize("split", [False, True])
def test_each_ksg_term_computed_once_per_unit(monkeypatch, split):
    # ctir reads horizons 1..tau_max of each direction and te_ksg horizon 1:
    # together they make 2 tau_max KSG calls, te_ksg alone 2 and ctir alone
    # 2 tau_max; with a helper thread, both threads draw ctir's terms
    pair = harness.simulate_pair("lp", (0.0, 0.3), harness.HELPER_THREADS_MIN_T, seed=0)
    tau_max = harness.index_presets("lp", pair.T)["ctir"].tau_max
    calls = []

    def counted(*args, _fn=info._cmi_ksg_impl):
        calls.append(threading.get_ident())
        return _fn(*args)

    monkeypatch.setattr(info, "_cmi_ksg_impl", counted)
    _force_helper_threads(monkeypatch, split)
    for names, n in ((harness.INDEX_NAMES, 2 * tau_max), (("te_ksg",), 2),
                     (("ctir",), 2 * tau_max), (("te_ksg", "ctir"), 2 * tau_max)):
        calls.clear()
        got = harness.compute_indices(pair, "lp", pair.T, names)
        assert [est.index for est in got] == list(names)
        assert len(calls) == n, names
        if names != ("te_ksg",):
            assert len(set(calls)) == 1 + split, names


@pytest.mark.parametrize("names", [("te_ksg",), harness.INDEX_NAMES])
def test_ksg_time_is_the_sum_of_the_terms_read(monkeypatch, names):
    # every KSG call takes at least `delay` more: each te_ksg direction reads
    # one term, whether or not ctir computed it, and each ctir direction
    # reads tau_max of them
    delay = 0.04
    pair = harness.simulate_pair("lp", (0.0, 0.3), 600, seed=0)
    tau_max = harness.index_presets("lp", pair.T)["ctir"].tau_max

    def slow(*args, _fn=info._cmi_ksg_impl):
        time.sleep(delay)
        return _fn(*args)

    monkeypatch.setattr(info, "_cmi_ksg_impl", slow)
    for split in (False, True):
        _force_helper_threads(monkeypatch, split)
        got = {est.index: est for est in harness.compute_indices(pair, "lp", pair.T, names)}
        for direction in ("xy", "yx"):
            assert delay <= getattr(got["te_ksg"], f"elapsed_{direction}") < 2 * delay
            if "ctir" in got:
                assert getattr(got["ctir"], f"elapsed_{direction}") >= tau_max * delay
