"""Sweep execution, the simulation and index tables, per-simulation parameter
presets, correlation matrices, timing summaries and CSV/manifest persistence.

`SIMULATION_TABLE` describes each simulated system; `simulate_units`, the one
simulate path, serves `simulate_pair` and every sweep unit.
`INDEX_TABLE` gives, for each of the ten indices, the embedding it reads and
the estimator call, with its preset parameters, that computes it;
`compute_indices` runs the requested entries on one pair and builds each
delay matrix once: te_hist, ete_hist, te_ksg and ctir read the same m=1
matrix. si1 and si2 share one entry, so one `crossmap.si_pair` call yields
both, and a lone request builds the neighbour graphs at its own R only.
pi, si and ccm share one kNN graph per series and embedding dimension per
call: the call's delay matrices keep them (`DelayMatrix.knn_graph`), and the
graph readers run last, largest k first, so each graph is built once, by the
reader that reads all of it.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import platform
import time
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np
import scipy

from . import __version__, crossmap, info, regress, simulate
from .core import (
    STATUS_DEGENERATE,
    STATUS_OK,
    EmbeddingSpec,
    IndexEstimate,
    SeriesPair,
    check_integer,
    directed_index,
    embed,
)
from .errors import BicausalError, NumericalEscapeError, ValidationError
from .perturb import PerturbationSpec, apply_perturbation


# name -> Simulation(hi, axes, T, params, run). Couplings lie in [0, hi]; a
# grid value sets those named in `axes` (lambda_xy "xy", lambda_yx "yx"), the
# other is 0. T is the default length, params(point, T, seed) the simulator's
# parameters at a (lambda_xy, lambda_yx) point, run(params) the simulator (None
# for ulam: its rings run as one `sim_ulam_batch`). Like INDEX_TABLE's calls,
# the lambdas look their names up on `simulate` when they run.
Simulation = namedtuple("Simulation", "hi axes T params run")


def _henon_bi(**kw) -> Simulation:
    return Simulation(0.4, ("xy", "yx"), 10**4, lambda pt, T, seed: simulate.HenonBiParams(
        lam_xy=pt[0], lam_yx=pt[1], T=T, seed=seed, **kw), lambda p: simulate.sim_henon_bi(p))


SIMULATION_TABLE = {
    "lp": Simulation(1.0, ("yx",), 10**4, lambda pt, T, seed: simulate.LpParams(
        lam=pt[1], T=T, seed=seed), lambda p: simulate.sim_lp(p)),
    "ulam": Simulation(1.0, ("xy",), 10**3, lambda pt, T, seed: simulate.UlamParams(
        lam=pt[0], T=T, seed=seed), None),
    "henon_uni": Simulation(1.0, ("xy",), 10**3, lambda pt, T, seed: simulate.HenonUniParams(
        lam=pt[0], T=T, seed=seed), lambda p: simulate.sim_henon_uni(p)),
    "henon_bi_i": _henon_bi(),
    "henon_bi_ni": _henon_bi(b_y=0.1),
}


def _entry(simulation: str) -> Simulation:
    """The table entry of a simulation; an unknown name is a ValidationError."""
    if simulation not in SIMULATION_TABLE:
        raise ValidationError(f"unknown simulation {simulation!r}")
    return SIMULATION_TABLE[simulation]


# name -> (embedding dimension, call(dm, presets, names), graph k).
# The dimension is a preset key or a fixed m, and the call gets that horizon-1
# delay matrix (ctir reads te_ksg's m=1 matrix and embeds its later horizons
# itself). `names` are the requested indices. Each call looks its estimator up
# on the module when it runs, never binding it at import, so that wrappers
# placed on the module attribute (perfbench/tracing.py times each layer that
# way) see every call. si1 and si2 share one entry, which runs once per pair
# at the R of the requested ones only. graph k(presets, names) is the k an
# entry reads from the x and y kNN graphs of its matrix, None for an entry
# that reads none; it orders the calls: graph readers run last, largest k
# first.
_SI = ("m", lambda dm, ps, names: crossmap.si_pair(
    dm, *(ps[n] for n in ("si1", "si2") if n in names)),
    lambda ps, names: max(ps[n].R for n in ("si1", "si2") if n in names))
INDEX_TABLE = {
    "egc": ("m", lambda dm, ps, _: regress.egc(dm, ps["egc"]), None),
    "nlgc": ("m", lambda dm, ps, _: regress.nlgc(dm, ps["nlgc"]), None),
    "pi": ("pi_m", lambda dm, ps, _: regress.pi(dm, ps["pi"]), lambda ps, _: ps["pi"].R),
    "te_hist": (1, lambda dm, ps, _: info.te_hist(dm, ps["te_hist"]), None),
    "ete_hist": (1, lambda dm, ps, _: info.ete_hist(dm, ps["te_hist"], ps["ete_hist"]), None),
    "te_ksg": (1, lambda dm, ps, _: info.te_ksg(dm, ps["te_ksg"]), None),
    "ctir": (1, lambda dm, ps, _: info.ctir(dm, ps["ctir"]), None),
    "si1": _SI,
    "si2": _SI,
    "ccm": ("m", lambda dm, ps, _: crossmap.ccm(dm, ps["ccm"]), lambda ps, _: ps["m"] + 1),
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


CSV_HEADER = ["simulation", "lambda_xy", "lambda_yx", "run", "index",
              "direction", "value", "elapsed_seconds", "status"]

PRESETS_VERSION = "reference-parameters-v1"


# ---------------------------------------------------------------------------
# per-simulation index parameter presets


def _nearest(table: dict, T: int):
    key = min(table, key=lambda t: (abs(math.log(T / t)), t))
    return table[key]


def index_presets(simulation: str, T: int) -> dict:
    """Reference parameter set for every index on one simulated system.

    Values follow the published benchmark configuration; T values between
    the listed sizes fall back to the nearest listed size (log scale).
    """
    _entry(simulation)
    check_integer(T, "T")
    lp = simulation == "lp"
    ulam = simulation == "ulam"
    henon_bi = simulation.startswith("henon_bi")

    m_common = 1 if ulam else 2
    if lp:
        egc = regress.EgcParams(L=20, delta=0.8)
    elif ulam:
        egc = regress.EgcParams(L=100, delta=_nearest({10**3: 0.5, 10**5: 0.2}, T))
    elif henon_bi:
        egc = regress.EgcParams(L=100, delta=0.6)
    else:
        egc = regress.EgcParams(L=100, delta=_nearest({10**3: 0.5, 10**4: 0.3, 10**5: 0.2}, T))

    if lp or henon_bi:
        nlgc_P = 10
    elif ulam:
        nlgc_P = 50
    else:
        nlgc_P = _nearest({10**3: 50, 10**4: 50, 10**5: 100}, T)

    return {
        "m": m_common,
        "egc": egc,
        "nlgc": regress.NlgcParams(P=nlgc_P, var=0.05),
        "pi": regress.PiParams(R=10 if lp else 1, include_self=True),
        "pi_m": 1 if lp else m_common,
        "te_hist": info.HistParams(N=8),
        "ete_hist": info.EteParams(n_shuffle=10),
        "te_ksg": info.KsgParams(k=4),
        "ctir": info.CtirParams(tau_max=20 if lp else 5, k=4),
        "si1": crossmap.SiParams(R=10 if lp else 20),
        "si2": crossmap.SiParams(R=30 if lp else (100 if henon_bi else 20)),
        "ccm": crossmap.CcmParams(n_t=40, delta_rho=0.05),
    }


# ---------------------------------------------------------------------------
# sweep configuration and records


def normalize_point(simulation: str, coupling) -> tuple[float, float]:
    """Map a user grid entry to the (lambda_xy, lambda_yx) pair. Accepts an
    already-normalized pair for any simulation (idempotent)."""
    sim = _entry(simulation)
    if isinstance(coupling, (tuple, list)):
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
            object.__setattr__(self, "T", sim.T)
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
    simulation: str
    lambda_xy: float
    lambda_yx: float
    run: int
    index: str
    direction: str
    value: float
    elapsed_seconds: float
    status: str


@dataclass
class SweepResult:
    simulation: str
    records: list

    def grid_points(self) -> list:
        return sorted({(r.lambda_xy, r.lambda_yx) for r in self.records})

    def index_names(self) -> list:
        present = {r.index for r in self.records}
        return [n for n in INDEX_NAMES if n in present]

    def values(self, index: str, direction: str) -> dict:
        return {(r.lambda_xy, r.lambda_yx, r.run): r.value
                for r in self.records if r.index == index and r.direction == direction}

    def directed_by_point(self, index: str) -> dict:
        """Grid point -> list of D (`directed_series`), one per run."""
        out = {}
        for (lxy, lyx, _), d in zip(*self.directed_series(index)):
            out.setdefault((lxy, lyx), []).append(d)
        return out

    def directed_series(self, index: str) -> tuple[list, np.ndarray]:
        """Keys (point, run) sorted, with the matching D values
        (`core.directed_index`: NaN unless both directions are finite)."""
        xy = self.values(index, "xy")
        yx = self.values(index, "yx")
        keys = sorted(xy)
        vals = np.array([directed_index(xy[k], yx.get(k, float("nan"))) for k in keys])
        return keys, vals


# ---------------------------------------------------------------------------
# execution


def simulate_units(simulation: str, units, T: int) -> list:
    """One pair per (point, seed) unit, or None where the orbit escaped.
    Ulam rings are simulated as one batch, the other systems one by one."""
    sim = _entry(simulation)
    params = [sim.params(point, T, seed) for point, seed in units]
    if simulation == "ulam":
        return simulate.sim_ulam_batch(params)
    pairs = []
    for p in params:
        try:
            pairs.append(sim.run(p))
        except NumericalEscapeError:
            pairs.append(None)
    return pairs


def simulate_pair(simulation: str, point: tuple[float, float], T: int,
                  seed: int) -> SeriesPair:
    """One simulated pair; an escaped orbit raises NumericalEscapeError."""
    (pair,) = simulate_units(simulation, [(point, seed)], T)
    if pair is None:
        raise NumericalEscapeError(f"{simulation} orbit escaped at {point}, seed {seed}")
    return pair


def _status_estimate(name: str, status: str) -> IndexEstimate:
    return IndexEstimate(name, float("nan"), float("nan"), status=status)


def compute_indices(pair: SeriesPair, simulation: str, T: int,
                    indices=INDEX_NAMES) -> list[IndexEstimate]:
    """The requested indices on one pair, in the requested order, using the
    simulation's presets.

    Estimator failures (too little data after missingness, degenerate fits,
    saturated estimators) become degenerate estimates, never exceptions.
    """
    indices = check_index_names(indices)
    presets = index_presets(simulation, T)
    dms: dict[int, object] = {}

    def dm_for(m: int):
        if m not in dms:
            dms[m] = embed(pair, EmbeddingSpec(m=m))
        return dms[m]

    # the graph readers last, largest k first (a stable sort), so each kNN
    # graph is built once, by the reader that reads all of it
    entries = sorted(dict.fromkeys(INDEX_TABLE[name] for name in indices),
                     key=lambda e: (e[2] is not None, -e[2](presets, indices) if e[2] else 0))
    got = {}
    for m, call, _ in entries:
        m = presets[m] if isinstance(m, str) else m
        try:
            result = call(dm_for(m), presets, indices)
        except BicausalError:
            continue
        for est in result if isinstance(result, tuple) else (result,):
            got[est.index] = est
    return [got[name] if name in got else _status_estimate(name, STATUS_DEGENERATE)
            for name in indices]


def _sim_length(cfg: SweepConfig) -> int:
    """Length of each simulated series: T, or the data-size perturbation's."""
    spec = cfg.perturbation
    return spec.data_size if spec is not None and spec.kind == "data_size" else cfg.T


def _unit_estimates(cfg: SweepConfig, point_index: int, run: int,
                    pair: SeriesPair | None) -> list[IndexEstimate]:
    if pair is None:
        return [_status_estimate(name, STATUS_DEGENERATE) for name in cfg.indices]
    spec = cfg.perturbation
    if spec is not None and spec.kind != "data_size":
        rng = np.random.default_rng([spec.seed, point_index, run])
        pair = apply_perturbation(pair, spec, rng)
    return compute_indices(pair, cfg.simulation, _sim_length(cfg), cfg.indices)


def _run_chunk(cfg: SweepConfig, units: list) -> list[Record]:
    """Records of one worker's (point index, run) units.

    Up to `simulate.ULAM_BATCH_RINGS` units are simulated at a time (ulam as
    one batch), then their indices are computed unit by unit. A unit whose
    simulation escaped is recorded as degenerate.
    """
    records = []
    for start in range(0, len(units), simulate.ULAM_BATCH_RINGS):
        group = units[start:start + simulate.ULAM_BATCH_RINGS]
        pairs = simulate_units(cfg.simulation, [(cfg.couplings[i], cfg.base_seed + run)
                                                for i, run in group], _sim_length(cfg))
        for (i, run), pair in zip(group, pairs):
            point = cfg.couplings[i]
            records.extend(
                Record(cfg.simulation, point[0], point[1], run, est.index, direction,
                       est.value(direction),
                       est.elapsed_xy if direction == "xy" else est.elapsed_yx,
                       est.status)
                for est in _unit_estimates(cfg, i, run, pair)
                for direction in ("xy", "yx"))
    return records


def _chunks(cfg: SweepConfig) -> list[list]:
    """Worker k's units k, k + workers, ...; no empty chunk."""
    units = [(i, run) for i in range(len(cfg.couplings)) for run in range(cfg.runs)]
    return [c for c in (units[k::cfg.workers] for k in range(cfg.workers)) if c]


def _init_worker(processes: int):
    """Sweep pool initializer: a worker runs ctir's and te_ksg's two
    directions concurrently only when each of the `processes` workers has two
    cores, so that the pool never runs more threads than there are cores."""
    info._concurrent_directions = info.spare_core(processes)


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Execute the full (grid x runs) sweep; degenerate estimates and escaped
    simulations are recorded with their status and never abort the sweep.

    Worker k gets the units k, k + workers, ... as one chunk, so that its
    Ulam rings are simulated together; workers=1 runs the one chunk here.
    """
    chunks = _chunks(cfg)
    if len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=len(chunks), initializer=_init_worker,
                                 initargs=(len(chunks),)) as pool:
            done = list(pool.map(_run_chunk, [cfg] * len(chunks), chunks))
    else:
        done = [_run_chunk(cfg, chunk) for chunk in chunks]
    records = [rec for chunk in done for rec in chunk]
    records.sort(key=lambda r: (r.lambda_xy, r.lambda_yx, r.run, r.index, r.direction))
    return SweepResult(cfg.simulation, records)


# ---------------------------------------------------------------------------
# reporting


def status_counts(res: SweepResult) -> dict:
    """Number of records per status, zeros included."""
    counts = dict.fromkeys((STATUS_OK, STATUS_DEGENERATE), 0)
    for rec in res.records:
        counts[rec.status] += 1
    return counts


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


def corr_matrix(res: SweepResult, kind: str = "pearson",
                statistic: str = "d", direction: str | None = None):
    """Correlation between indices across all (grid point, run) samples.

    statistic "d" correlates the directed index; "value" correlates one
    direction's raw estimates (pass direction="xy"/"yx"). Undefined entries
    (constant or empty columns) are NaN. Returns (names, matrix).
    """
    # imported here: scipy.stats is slow to import and only this reads it
    from scipy.stats import spearmanr

    if kind not in ("pearson", "spearman"):
        raise ValidationError(f"unknown correlation kind {kind!r}")
    names = res.index_names()
    if len(names) < 2:
        raise ValidationError("need at least two indices")
    columns = {}
    for name in names:
        if statistic == "d":
            keys, vals = res.directed_series(name)
        elif statistic == "value":
            if direction not in ("xy", "yx"):
                raise ValidationError("statistic 'value' needs direction 'xy' or 'yx'")
            mapping = res.values(name, direction)
            keys = sorted(mapping)
            vals = np.array([mapping[k] for k in keys])
        else:
            raise ValidationError(f"unknown statistic {statistic!r}")
        if len(vals) < 3:
            raise ValidationError("need at least three records per index")
        columns[name] = dict(zip(keys, vals))

    mat = np.full((len(names), len(names)), np.nan)
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            if j < i:
                continue
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
    write_csv(path, CSV_HEADER, (
        [r.simulation, r.lambda_xy, r.lambda_yx, r.run, r.index, r.direction, r.value,
         r.elapsed_seconds, r.status] for r in res.records))


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
    records = []
    for line, row in rows:
        with _csv_line(path, line):
            sim, lxy, lyx, run, index, direction, value, elapsed, status = row
            records.append(Record(
                sim, float(lxy), float(lyx), int(run), index, direction,
                float("nan") if value in ("NA", "") else float(value),
                float(elapsed), status))
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
    payload = {
        "simulation": cfg.simulation,
        "T": cfg.T,
        "runs": cfg.runs,
        "couplings": [list(pt) for pt in cfg.couplings],
        "indices": list(cfg.indices),
        "base_seed": cfg.base_seed,
        "perturbation": None if cfg.perturbation is None else asdict(cfg.perturbation),
        "workers": cfg.workers,
        # ctir's and te_ksg's two directions overlap in time when each sweep
        # process has two cores: their elapsed_xy + elapsed_yx may then
        # exceed the unit's wall time
        "cpus": info.usable_cpus(),
        "directions_concurrent": info.spare_core(len(_chunks(cfg))),
        "prng": simulate.GENERATOR_NAME,
        "presets_version": PRESETS_VERSION,
        "created_unix": time.time(),
        "versions": {
            "bicausal": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    if extra:
        payload.update(extra)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=str)
    return payload
