"""In-memory spans around the package's cross-module entry points.

The tracer replaces module attributes of `bicausal` with timing wrappers for
the duration of a `with` block and puts the originals back on exit. Only the
names one module looks up on another at call time are wrapped, so the
program itself is unchanged. Spans are plain lists kept in memory and
written out by the runner when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import time

# (module, attribute, span name, row-count function or None). The simulate
# wrappers catch `harness.simulate_pair`'s calls; `harness.embed` and
# `info.embed` are the two places a delay matrix is built; the estimators are
# wrapped on their home modules, which is where `harness` looks them up; the
# kNN entry points are the names `regress` and `crossmap` import.
PATCHES = (
    [("simulate", name, "simulate.sim", None)
     for name in ("sim_lp", "sim_ulam", "sim_henon_uni", "sim_henon_bi")]
    + [("harness", "embed", "core.embed", None), ("info", "embed", "core.embed", None)]
    + [("regress", name, f"regress.{name}", None) for name in ("egc", "nlgc", "pi")]
    + [("info", name, f"info.{name}", None)
       for name in ("te_hist", "ete_hist", "te_ksg", "ctir")]
    + [("crossmap", "si_pair", "crossmap.si", None), ("crossmap", "ccm", "crossmap.ccm", None)]
    # rows = query points: knn_all(pset, ...) queries every member of pset,
    # knn_points(pset, queries, ...) queries `queries`
    + [(module, "knn_all", "neighbors.knn", lambda args, kwargs: len(args[0].points))
       for module in ("regress", "crossmap")]
    + [("crossmap", "knn_points", "neighbors.knn", lambda args, kwargs: len(args[1]))]
    + [("harness", "apply_perturbation", "perturb.apply", None),
       ("harness", "compute_indices", "harness.compute", None)]
)

# column order of one span record
NAME, START, END, PARENT, UNIT, ROWS = range(6)


class Tracer:
    """Collects spans [name, start, end, parent, unit, rows] in memory.

    `parent` is the position of the enclosing span or -1. A new unit begins
    at every `simulate.sim` span, because each sweep unit simulates exactly
    once before its indices are computed.
    """

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._unit = -1
        self._saved: list[tuple] = []
        self.missing: list[str] = []

    @contextlib.contextmanager
    def span(self, name: str, rows: int = 0):
        if name == "simulate.sim":
            self._unit += 1
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent, self._unit, rows]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, rows_fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, rows_fn(args, kwargs) if rows_fn else 0):
                return fn(*args, **kwargs)
        return traced

    def __enter__(self):
        for module_name, attr, name, rows_fn in PATCHES:
            module = getattr(self.package, module_name, None)
            original = getattr(module, attr, None)
            if original is None:
                # the package no longer has this entry point: its spans are
                # absent and the result file lists it
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, rows_fn))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Spans are recorded by one thread, so children are nested and disjoint.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def direct_total(spans: list[list], name: str, parent_name: str) -> tuple[float, int]:
    """(seconds, calls) of the `name` spans opened directly under a
    `parent_name` span, e.g. an estimator as the harness calls it rather than
    as another estimator calls it."""
    total, calls = 0.0, 0
    for s in spans:
        if s[NAME] == name and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == parent_name:
            total += s[END] - s[START]
            calls += 1
    return total, calls


def layer_rows(spans: list[list]) -> dict:
    """name -> {"calls", "total_s", "self_s", "rows"} summed over all spans."""
    out: dict[str, dict] = {}
    for s, own in zip(spans, self_times(spans)):
        row = out.setdefault(s[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "rows": 0})
        row["calls"] += 1
        row["total_s"] += s[END] - s[START]
        row["self_s"] += own
        row["rows"] += s[ROWS]
    return out
