"""Sweep execution, the simulation and index tables, per-simulation parameter
presets, correlation matrices, timing summaries and CSV/manifest persistence:
sweep.csv's columns are `Record`'s fields, a manifest records every
`SweepConfig` field, and `SweepResult.values` reads every statistic.

`SIMULATION_TABLE` holds each simulated system's facts once: its coupling
range, its simulator, its synchrony windows and the published index
parameters at each series length it is studied at. `index_presets`, a sweep's
default T (the shortest published length), the f/g summary's exclusions and
the command line's preset ids read it, and `simulate_units`, the one simulate
path, runs the system's simulate field for `simulate_pair` and every unit.
`INDEX_TABLE` gives, for each of the ten indices, the embedding it reads and
the estimator call, with its preset parameters, that computes it;
`compute_indices` runs the requested entries on one pair and builds each
delay matrix once: te_hist, ete_hist, te_ksg and ctir read the same m=1
matrix. si1 and si2 are each one `crossmap.si_pair` call at their own R.
pi, si1, si2 and ccm share one kNN graph per series and embedding dimension,
and te_ksg and ctir one k-NN term per direction and horizon, which the delay
matrices keep; their readers run largest read first, so each is made once, by
the reader of all of it. With `helper_threads`, the graph readers run on the
unit's one helper thread, which then draws k-NN terms beside the calling
thread; a unit starts no other thread.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import platform
import time
from collections import Counter, namedtuple
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace

import numpy as np
import scipy

from . import __version__, crossmap, info, regress, simulate
from .core import (
    SIDES,
    STATUS_DEGENERATE,
    STATUSES,
    EmbeddingSpec,
    IndexEstimate,
    SeriesPair,
    beside,
    check_integer,
    directed_index,
    embed,
    sides,
)
from .errors import BicausalError, NumericalEscapeError, ValidationError
from .perturb import ULAM_SYNC_WINDOWS, PerturbationSpec, apply_perturbation


# The published index parameters, as far as the systems and lengths share
# them; SIMULATION_TABLE's presets hold what differs.
PRESETS_VERSION = "reference-parameters-v1"
_SHARED_PRESETS = {
    "m": 2, "egc": regress.EgcParams(L=100, delta=0.5),
    "nlgc": regress.NlgcParams(P=50, var=0.05), "pi": regress.PiParams(R=1, include_self=True),
    "pi_m": 2, "te_hist": info.HistParams(N=8), "ete_hist": info.EteParams(n_shuffle=10),
    "te_ksg": info.KsgParams(k=4), "ctir": info.CtirParams(tau_max=5, k=4),
    "si1": crossmap.SiParams(R=20), "si2": crossmap.SiParams(R=20),
    "ccm": crossmap.CcmParams(n_t=40, delta_rho=0.05),
}

# name -> Simulation(hi, axes, params, simulate, presets, sync_windows).
# Couplings lie in [0, hi]; a grid value sets those named in `axes` (lambda_xy
# "xy", lambda_yx "yx"), the other is 0. params(point, T, seed) is the
# simulator's parameter object at a (lambda_xy, lambda_yx) point; simulate(list
# of them) returns one pair per object, None where the orbit escaped (Ulam
# rings run as one `sim_ulam_batch`). presets maps each published series length
# to the index parameters that differ there from _SHARED_PRESETS: a value
# replaces a key's value, a dict the named fields of its parameter object.
# sync_windows are the couplings where the system synchronises (ulam's only),
# left out of f/g averages. Like INDEX_TABLE's calls, the lambdas look their
# names up on `simulate` when they run.
Simulation = namedtuple("Simulation", "hi axes params simulate presets sync_windows",
                        defaults=((),))


def _one_by_one(run):
    """A simulate field that runs `run` on each parameter object in turn."""
    def simulate_all(params):
        pairs = []
        for p in params:
            try:
                pairs.append(run(p))
            except NumericalEscapeError:
                pairs.append(None)
        return pairs
    return simulate_all


def _henon_bi(**kw) -> Simulation:
    return Simulation(0.4, ("xy", "yx"), lambda pt, T, seed: simulate.HenonBiParams(
        lam_xy=pt[0], lam_yx=pt[1], T=T, seed=seed, **kw),
        _one_by_one(lambda p: simulate.sim_henon_bi(p)),
        {10**4: {"egc": {"delta": 0.6}, "nlgc": {"P": 10}, "si2": {"R": 100}}})


SIMULATION_TABLE = {
    "lp": Simulation(1.0, ("yx",), lambda pt, T, seed: simulate.LpParams(
        lam=pt[1], T=T, seed=seed), _one_by_one(lambda p: simulate.sim_lp(p)),
        {10**4: {"egc": {"L": 20, "delta": 0.8}, "nlgc": {"P": 10}, "pi": {"R": 10},
                 "pi_m": 1, "ctir": {"tau_max": 20}, "si1": {"R": 10}, "si2": {"R": 30}}}),
    "ulam": Simulation(1.0, ("xy",), lambda pt, T, seed: simulate.UlamParams(
        lam=pt[0], T=T, seed=seed), lambda params: simulate.sim_ulam_batch(params),
        {10**3: {"m": 1, "pi_m": 1}, 10**5: {"m": 1, "pi_m": 1, "egc": {"delta": 0.2}}},
        ULAM_SYNC_WINDOWS),
    "henon_uni": Simulation(1.0, ("xy",), lambda pt, T, seed: simulate.HenonUniParams(
        lam=pt[0], T=T, seed=seed), _one_by_one(lambda p: simulate.sim_henon_uni(p)),
        {10**3: {}, 10**4: {"egc": {"delta": 0.3}},
         10**5: {"egc": {"delta": 0.2}, "nlgc": {"P": 100}}}),
    "henon_bi_i": _henon_bi(),
    "henon_bi_ni": _henon_bi(b_y=0.1),
}


def _entry(simulation: str) -> Simulation:
    """The table entry of a simulation; an unknown name is a ValidationError."""
    if simulation not in SIMULATION_TABLE:
        raise ValidationError(f"unknown simulation {simulation!r}")
    return SIMULATION_TABLE[simulation]


def index_presets(simulation: str, T: int) -> dict:
    """Published parameter set for every index on one simulated system.

    `_SHARED_PRESETS` with the changes from SIMULATION_TABLE of the published
    length with the smallest |log(T / length)| in floating point. No integer
    T lies exactly midway: ulam's T = 10^4, between 10^3 and 10^5, takes
    10^5's parameters, as |log(0.1)| rounds below log(10).
    """
    presets = _entry(simulation).presets
    check_integer(T, "T")
    nearest = min(presets, key=lambda t: abs(math.log(T / t)))
    out = dict(_SHARED_PRESETS)
    for key, value in presets[nearest].items():
        out[key] = replace(out[key], **value) if isinstance(value, dict) else value
    return out


# name -> (embedding dimension, call(dm, presets, helper), kept read).
# The dimension is a preset key or a fixed m, and the call gets that horizon-1
# delay matrix and returns the index's estimate; te_ksg and ctir draw k-NN terms
# on `helper` (`compute_indices`). Each call looks its estimator up on the
# module when it runs, never binding it at import, so that wrappers placed on
# the module attribute (perfbench/tracing.py times each layer that way) see
# every call. kept read(presets) is what an entry reads of its matrix's kept
# work, ("graph", k) of the x and y kNN graphs or ("terms", tau_max), or None.
INDEX_TABLE = {
    "egc": ("m", lambda dm, ps, _: regress.egc(dm, ps["egc"]), None),
    "nlgc": ("m", lambda dm, ps, _: regress.nlgc(dm, ps["nlgc"]), None),
    "pi": ("pi_m", lambda dm, ps, _: regress.pi(dm, ps["pi"]), lambda ps: ("graph", ps["pi"].R)),
    "te_hist": (1, lambda dm, ps, _: info.te_hist(dm, ps["te_hist"]), None),
    "ete_hist": (1, lambda dm, ps, _: info.ete_hist(dm, ps["te_hist"], ps["ete_hist"]), None),
    "te_ksg": (1, lambda dm, ps, helper: info.te_ksg(dm, ps["te_ksg"], helper),
               lambda ps: ("terms", 1)),
    "ctir": (1, lambda dm, ps, helper: info.ctir(dm, ps["ctir"], helper),
             lambda ps: ("terms", ps["ctir"].tau_max)),
    "si1": ("m", lambda dm, ps, _: crossmap.si_pair(dm, ps["si1"])[0],
            lambda ps: ("graph", ps["si1"].R)),
    "si2": ("m", lambda dm, ps, _: crossmap.si_pair(dm, ps["si2"])[1],
            lambda ps: ("graph", ps["si2"].R)),
    "ccm": ("m", lambda dm, ps, _: crossmap.ccm(dm, ps["ccm"]), lambda ps: ("graph", ps["m"] + 1)),
}
INDEX_NAMES = tuple(INDEX_TABLE)


def check_index_names(names) -> tuple:
    """The requested index names as a tuple; no name, an unknown name or a
    repeated one is a ValidationError."""
    names = tuple(names)
    if not names:
        raise ValidationError("no indices requested")
    unknown = set(names) - set(INDEX_NAMES)
    if unknown:
        raise ValidationError(f"unknown indices: {sorted(unknown)}")
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise ValidationError(f"repeated indices: {repeated}")
    return names


# ---------------------------------------------------------------------------
# sweep configuration and records


def normalize_point(simulation: str, coupling) -> tuple[float, float]:
    """Map a user grid entry to the (lambda_xy, lambda_yx) pair. Accepts an
    already-normalized pair for any simulation (idempotent); a tuple or list
    must hold exactly two couplings."""
    sim = _entry(simulation)
    if isinstance(coupling, (tuple, list)):
        if len(coupling) != 2:
            raise ValidationError(f"a coupling pair holds two values, got {coupling!r}")
        point = (float(coupling[0]), float(coupling[1]))
        if any(v != 0.0 for v, axis in zip(point, ("xy", "yx")) if axis not in sim.axes):
            raise ValidationError(f"{simulation} sweeps one coupling; the other must be 0")
    else:
        point = tuple(float(coupling) if axis in sim.axes else 0.0 for axis in ("xy", "yx"))
    for v in point:
        if not 0.0 <= v <= sim.hi:
            raise ValidationError(f"coupling {v} outside [0, {sim.hi}] for {simulation}")
    return point


def coupling_grid(simulation: str, values) -> list:
    """Grid entries for coupling values: the values themselves on a
    one-coupling system, every (lambda_xy, lambda_yx) pair of them on one
    with two."""
    if len(_entry(simulation).axes) == 2:
        return [(a, b) for a in values for b in values]
    return list(values)


def desk_grid(simulation: str, step: float = 0.05) -> list:
    n = int(round(_entry(simulation).hi / step))
    return coupling_grid(simulation, [round(step * i, 10) for i in range(n + 1)])


def paper_grid(simulation: str) -> list:
    return desk_grid(simulation, step=0.01)


@dataclass(frozen=True)
class SweepConfig:
    """`runs` simulations of length T (default: the shortest published one)
    per grid point, seeded base_seed + run, each transformed by `perturbation`
    if one is given; the indices take the presets of T."""

    simulation: str
    couplings: tuple = None
    T: int = None
    runs: int = 3
    indices: tuple = INDEX_NAMES
    base_seed: int = 0
    perturbation: PerturbationSpec | None = None
    workers: int = 1

    def __post_init__(self):
        sim = _entry(self.simulation)
        if self.T is None:
            object.__setattr__(self, "T", min(sim.presets))
        for name in ("T", "runs", "workers"):
            check_integer(getattr(self, name), name)
        check_integer(self.base_seed, "base_seed", minimum=0)
        couplings = self.couplings if self.couplings is not None else desk_grid(self.simulation)
        points = tuple(normalize_point(self.simulation, c) for c in couplings)
        if not points:
            raise ValidationError("the coupling grid is empty")
        object.__setattr__(self, "couplings", points)
        object.__setattr__(self, "indices", check_index_names(self.indices))


@dataclass(frozen=True)
class Record:
    """One row of sweep.csv: one direction's estimate at a grid point and run."""

    simulation: str
    lambda_xy: float
    lambda_yx: float
    run: int
    index: str
    direction: str
    value: float
    elapsed_seconds: float
    status: str


CSV_HEADER = [f.name for f in fields(Record)]


@dataclass
class SweepResult:
    simulation: str
    records: list

    @property
    def sync_windows(self) -> tuple:
        return _entry(self.simulation).sync_windows

    def grid_points(self) -> list:
        return sorted({(r.lambda_xy, r.lambda_yx) for r in self.records})

    def index_names(self) -> list:
        present = {r.index for r in self.records}
        return [n for n in INDEX_NAMES if n in present]

    def values(self, index: str, statistic: str) -> dict:
        """(lambda_xy, lambda_yx, run) -> the "xy" or "yx" estimate, or the directed
        index "d" (`core.directed_index`: NaN unless both are finite) of each xy key."""
        if statistic == "d":
            yx = self.values(index, "yx")
            return {k: directed_index(v, yx.get(k, float("nan")))
                    for k, v in self.values(index, "xy").items()}
        if statistic not in SIDES:
            raise ValidationError(f"unknown statistic {statistic!r}")
        return {(r.lambda_xy, r.lambda_yx, r.run): r.value
                for r in self.records if r.index == index and r.direction == statistic}

    def directed_by_point(self, index: str) -> dict:
        """Grid point -> list of D (`values(index, "d")`), one per run."""
        out = {}
        for (lxy, lyx, _), d in sorted(self.values(index, "d").items()):
            out.setdefault((lxy, lyx), []).append(d)
        return out


# ---------------------------------------------------------------------------
# execution


def simulate_units(simulation: str, units, T: int) -> list:
    """One pair per (point, seed) unit, or None where the orbit escaped: the
    system's simulate field on the units' parameter objects."""
    sim = _entry(simulation)
    return sim.simulate([sim.params(point, T, seed) for point, seed in units])


def simulate_pair(simulation: str, point: tuple[float, float], T: int,
                  seed: int) -> SeriesPair:
    """One simulated pair; an escaped orbit raises NumericalEscapeError."""
    (pair,) = simulate_units(simulation, [(point, seed)], T)
    if pair is None:
        raise NumericalEscapeError(f"{simulation} orbit escaped at {point}, seed {seed}")
    return pair


def _status_estimate(name: str, status: str) -> IndexEstimate:
    return IndexEstimate(name, float("nan"), float("nan"), status=status)


# The shortest series whose units get a helper thread: on 2 cores the ten indices
# took 0.81-1.03x one thread's time at T = 1000, 0.68-0.86x at T = 2000.
HELPER_THREADS_MIN_T = 2000


def _usable_cpus() -> int:
    """Cores this process may run on: its affinity set, else the machine's."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1)


def helper_threads(T: int, processes: int = 1) -> bool:
    """Whether a unit of length T, in one of `processes` processes, gets one
    helper thread (`compute_indices`): from HELPER_THREADS_MIN_T on, if each
    process has two cores."""
    return T >= HELPER_THREADS_MIN_T and _usable_cpus() >= 2 * processes


def compute_indices(pair: SeriesPair, simulation: str, T: int,
                    indices=INDEX_NAMES, processes: int = 1) -> list[IndexEstimate]:
    """The requested indices on one pair, in the requested order, using the
    simulation's presets, in one of `processes` processes (`helper_threads`).

    Estimator failures (too little data after missingness, degenerate fits,
    saturated estimators) become degenerate estimates, never exceptions.
    """
    indices = check_index_names(indices)
    presets = index_presets(simulation, T)
    dims = {n: presets[m] if isinstance(m, str) else m for n, (m, _, _) in INDEX_TABLE.items()}
    # every delay matrix is built first, so the lanes only read `dms`; a failed
    # embedding leaves its readers degenerate
    dms = {}
    for m in dict.fromkeys(dims[name] for name in indices):
        with contextlib.suppress(BicausalError):
            dms[m] = embed(pair, EmbeddingSpec(m=m))
    got = {}

    def run(names, helper):
        for name in names:
            got[name] = _status_estimate(name, STATUS_DEGENERATE)
            if dims[name] in dms:
                with contextlib.suppress(BicausalError):
                    got[name] = INDEX_TABLE[name][1](dms[dims[name]], presets, helper)

    # the graph readers run in one lane, largest k first, with no helper (no
    # task on the helper waits for it); the other lane ends with the k-NN term
    # readers, which both threads serve, largest tau_max first
    reads = {n: INDEX_TABLE[n][2](presets) if INDEX_TABLE[n][2] else (None, 0) for n in indices}
    order = sorted(indices, key=lambda n: (reads[n][0] is not None, -reads[n][1]))
    readers = [name for name in order if reads[name][0] == "graph"]
    others = [name for name in order if reads[name][0] != "graph"]
    with (ThreadPoolExecutor(1) if helper_threads(pair.T, processes)
          else contextlib.nullcontext()) as helper:  # joined before this returns or raises
        beside(helper, lambda: run(others, helper), lambda: run(readers, None))
    return [got[name] for name in indices]


def _unit_estimates(cfg: SweepConfig, point_index: int, run: int,
                    pair: SeriesPair | None, processes: int) -> list[IndexEstimate]:
    if pair is None:
        return [_status_estimate(name, STATUS_DEGENERATE) for name in cfg.indices]
    spec = cfg.perturbation
    if spec is not None:
        rng = np.random.default_rng([spec.seed, point_index, run])
        pair = apply_perturbation(pair, spec, rng)
    return compute_indices(pair, cfg.simulation, cfg.T, cfg.indices, processes)


def _run_chunk(cfg: SweepConfig, units: list, processes: int) -> list[Record]:
    """Records of one of `processes` workers' (point index, run) units.

    Up to `simulate.ULAM_BATCH_RINGS` units are simulated at a time (ulam as
    one batch), then their indices are computed unit by unit. A unit whose
    simulation escaped is recorded as degenerate.
    """
    records = []
    for start in range(0, len(units), simulate.ULAM_BATCH_RINGS):
        group = units[start:start + simulate.ULAM_BATCH_RINGS]
        pairs = simulate_units(cfg.simulation, [(cfg.couplings[i], cfg.base_seed + run)
                                                for i, run in group], cfg.T)
        for (i, run), pair in zip(group, pairs):
            point = cfg.couplings[i]
            records.extend(Record(cfg.simulation, point[0], point[1], run, *row)
                           for est in _unit_estimates(cfg, i, run, pair, processes)
                           for row in est.rows())
    return records


def _chunks(cfg: SweepConfig) -> list[list]:
    """Worker k's units k, k + workers, ...; no empty chunk."""
    units = [(i, run) for i in range(len(cfg.couplings)) for run in range(cfg.runs)]
    return [c for c in (units[k::cfg.workers] for k in range(cfg.workers)) if c]


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Execute the full (grid x runs) sweep; degenerate estimates and escaped
    simulations are recorded with their status and never abort the sweep.

    Worker k gets the units k, k + workers, ... as one chunk, so that its
    Ulam rings are simulated together; workers=1 runs the one chunk here.
    """
    chunks = _chunks(cfg)
    n = len(chunks)
    if n > 1:
        with ProcessPoolExecutor(max_workers=n) as pool:
            done = list(pool.map(_run_chunk, [cfg] * n, chunks, [n] * n))
    else:
        done = [_run_chunk(cfg, chunk, 1) for chunk in chunks]
    records = [rec for chunk in done for rec in chunk]
    records.sort(key=lambda r: (r.lambda_xy, r.lambda_yx, r.run, r.index, r.direction))
    return SweepResult(cfg.simulation, records)


# ---------------------------------------------------------------------------
# reporting


def status_counts(res: SweepResult) -> dict:
    """Number of records per status, zeros included."""
    return dict.fromkeys(STATUSES, 0) | Counter(rec.status for rec in res.records)


def timing_table(res: SweepResult) -> dict:
    """index -> (mean, std) of per-estimate elapsed seconds (directions
    summed), aggregated over grid points and runs."""
    sums: dict[str, dict] = {}
    for rec in res.records:
        key = (rec.lambda_xy, rec.lambda_yx, rec.run)
        sums.setdefault(rec.index, {}).setdefault(key, 0.0)
        sums[rec.index][key] += rec.elapsed_seconds
    return {index: (float(np.mean(list(v.values()))), float(np.std(list(v.values()))))
            for index, v in sums.items()}


def corr_matrix(res: SweepResult, kind: str = "pearson", statistic: str = "d"):
    """Correlation between indices across all (grid point, run) samples.

    statistic "d" correlates the directed index, "xy" or "yx" that
    direction's raw estimates. Undefined entries (constant or empty columns)
    are NaN. Returns (names, matrix).
    """
    # imported here: scipy.stats is slow to import and only this reads it
    from scipy.stats import spearmanr

    if kind not in ("pearson", "spearman"):
        raise ValidationError(f"unknown correlation kind {kind!r}")
    names = res.index_names()
    if len(names) < 2:
        raise ValidationError("need at least two indices")
    columns = {name: res.values(name, statistic) for name in names}
    if min(map(len, columns.values())) < 3:
        raise ValidationError("need at least three records per index")

    mat = np.full((len(names), len(names)), np.nan)
    for i, a in enumerate(names):
        for j, b in enumerate(names[i:], i):
            common = sorted(set(columns[a]) & set(columns[b]))
            va = np.array([columns[a][k] for k in common])
            vb = np.array([columns[b][k] for k in common])
            ok = np.isfinite(va) & np.isfinite(vb)
            va, vb = va[ok], vb[ok]
            if len(va) < 3 or va.std() == 0.0 or vb.std() == 0.0:
                continue
            if kind == "pearson":
                c = float(np.corrcoef(va, vb)[0, 1])
            else:
                c = float(spearmanr(va, vb).statistic)
            mat[i, j] = mat[j, i] = c
    return names, mat


# ---------------------------------------------------------------------------
# persistence


def write_csv(path, header, rows):
    """A headered CSV file, written by `csv.writer`: every float cell as
    repr(float(v)), or NA when it is not finite; other cells as they are."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [(repr(float(v)) if math.isfinite(v) else "NA") if isinstance(v, float) else v
             for v in row]
            for row in rows)


def sweep_to_csv(res: SweepResult, path):
    write_csv(path, CSV_HEADER, ([getattr(r, name) for name in CSV_HEADER] for r in res.records))


def _csv_rows(path, what: str):
    """(line number, row) of a CSV file, header first. Unreadable or empty
    files are a ValidationError."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            rows = [(reader.line_num, row) for row in reader]
    except (OSError, csv.Error, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {what} CSV {path}: {exc}")
    if not rows:
        raise ValidationError(f"{what} CSV {path} is empty")
    return rows


@contextlib.contextmanager
def _csv_line(path, line: int):
    """Turn a malformed row (wrong cell count, unparsable cell) into a
    ValidationError naming the file and the line."""
    try:
        yield
    except ValueError as exc:
        raise ValidationError(f"{path}, line {line}: {exc}") from None


def sweep_from_csv(path) -> SweepResult:
    (_, header), *rows = _csv_rows(path, "sweep")
    if header != CSV_HEADER:
        raise ValidationError(f"unexpected sweep CSV header: {header}")
    # column -> conversion, else str (NA or empty: NaN); strict: a row of another length fails
    convert = {"lambda_xy": float, "lambda_yx": float, "run": int, "elapsed_seconds": float,
               "value": lambda v: float("nan") if v in ("NA", "") else float(v)}
    records = []
    for line, row in rows:
        with _csv_line(path, line):
            r = Record(*(convert.get(c, str)(v) for c, v in zip(CSV_HEADER, row, strict=True)))
            _entry(r.simulation), check_index_names([r.index]), sides(r.direction)
            if records and r.simulation != (first := records[0].simulation):
                raise ValueError(f"simulation {r.simulation!r} after rows of {first!r}")
            if r.status not in STATUSES:
                raise ValueError(f"unknown status {r.status!r}")
            records.append(r)
    if not records:
        raise ValidationError("empty sweep CSV")
    return SweepResult(records[0].simulation, records)


def corr_to_csv(names, matrix, path):
    write_csv(path, ["index", *names], ([name, *row] for name, row in zip(names, matrix)))


def fg_to_csv(summary, path):
    write_csv(path, ["index", "f", "g"],
              ([index, fg.f, fg.g] for index, fg in summary.stats.items()))


def timing_to_csv(table: dict, path):
    write_csv(path, ["index", "mean_seconds", "std_seconds"],
              ([index, *table[index]] for index in INDEX_NAMES if index in table))


def pair_to_csv(pair: SeriesPair, path):
    """Headered t,x,y rows; missing samples are empty cells."""
    write_csv(path, ["t", "x", "y"], (
        [t, "" if mx else x, "" if my else y]
        for t, (x, y, mx, my) in enumerate(zip(pair.x.tolist(), pair.y.tolist(),
                                                pair.x_missing, pair.y_missing))))


def pair_from_csv(path) -> SeriesPair:
    xs, ys = [], []
    (_, header), *rows = _csv_rows(path, "series")
    if [h.strip() for h in header] != ["t", "x", "y"]:
        raise ValidationError("series CSV must have header t,x,y")
    for line, row in rows:
        with _csv_line(path, line):
            _, x, y = row
            xs.append(float(x) if x.strip() else float("nan"))
            ys.append(float(y) if y.strip() else float("nan"))
    return SeriesPair(np.array(xs), np.array(ys))


def write_manifest(path, cfg: SweepConfig, extra: dict | None = None):
    blas = {}
    with contextlib.suppress(TypeError, KeyError):  # numpy < 1.25 reports no dicts
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    payload = {
        **asdict(cfg),
        # every unit's decision: with a helper thread, estimates overlap in
        # time, and a unit's elapsed seconds may add up to more than its wall
        # time
        "cpus": _usable_cpus(),
        "helper_threads": helper_threads(cfg.T, len(_chunks(cfg))),
        "prng": simulate.GENERATOR_NAME,
        "presets_version": PRESETS_VERSION,
        "created_unix": time.time(),
        "versions": {
            "bicausal": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "blas": {key: blas.get(key) for key in ("name", "version")} | {var: os.environ.get(var)
                 for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    if extra:
        payload.update(extra)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=str)
    return payload
