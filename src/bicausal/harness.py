"""Sweep execution, per-simulation parameter presets, the index table,
correlation matrices, timing summaries and CSV/manifest persistence.

`INDEX_TABLE` gives, for each of the ten indices, the embedding it reads and
the estimator call, with its preset parameters, that computes it;
`compute_indices` runs the requested entries on one pair. si1 and si2 share
one entry, so one `crossmap.si_pair` call yields both, and a lone request
builds the neighbour graphs at its own R only. pi, si and ccm share one kNN
graph per series and embedding dimension per call (`neighbors.Graphs`).
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np
import scipy
from scipy.stats import spearmanr

from . import __version__, crossmap, info, regress, simulate
from .core import (
    STATUS_DEGENERATE,
    STATUS_OK,
    STATUS_SKIPPED_SYNCHRONY,
    EmbeddingSpec,
    IndexEstimate,
    SeriesPair,
    embed,
)
from .errors import BicausalError, NumericalEscapeError, ValidationError
from .neighbors import Graphs
from .perturb import (
    ULAM_SYNC_WINDOWS,
    PerturbationSpec,
    apply_perturbation,
    point_in_windows,
)

SIMULATIONS = ("lp", "ulam", "henon_uni", "henon_bi_i", "henon_bi_ni")

# name -> (embedding dimension, call(data, presets, names, graphs), graph k).
# The dimension is a preset key or a fixed m, and the call gets that delay
# matrix; None gives the call the pair itself. `names` are the requested
# indices. Each call looks its estimator up on the module when it runs, never
# binding it at import, so that wrappers placed on the module attribute
# (perfbench/tracing.py times each layer that way) see every call. si1 and si2
# share one entry, which runs once per pair at the R of the requested ones
# only. graph k(presets, names) is the k read from the x and y kNN graphs,
# which come from the call's one `neighbors.Graphs`.
_SI = ("m", lambda dm, ps, names, g: crossmap.si_pair(
    dm, *(ps[n] for n in ("si1", "si2") if n in names), graphs=g),
    lambda ps, names: max(ps[n].R for n in ("si1", "si2") if n in names))
INDEX_TABLE = {
    "egc": ("m", lambda dm, ps, *_: regress.egc(dm, ps["egc"]), None),
    "nlgc": ("m", lambda dm, ps, *_: regress.nlgc(dm, ps["nlgc"]), None),
    "pi": ("pi_m", lambda dm, ps, _, g: regress.pi(dm, ps["pi"], g), lambda ps, _: ps["pi"].R),
    "te_hist": (1, lambda dm, ps, *_: info.te_hist(dm, ps["te_hist"]), None),
    "ete_hist": (1, lambda dm, ps, *_: info.ete_hist(dm, ps["te_hist"], ps["ete_hist"]), None),
    "te_ksg": (1, lambda dm, ps, *_: info.te_ksg(dm, ps["te_ksg"]), None),
    "ctir": (None, lambda pair, ps, *_: info.ctir(pair, ps["ctir"]), None),
    "si1": _SI,
    "si2": _SI,
    "ccm": ("m", lambda dm, ps, _, g: crossmap.ccm(dm, ps["ccm"], g), lambda ps, _: ps["m"] + 1),
}
INDEX_NAMES = tuple(INDEX_TABLE)


def check_index_names(names) -> tuple:
    """The requested index names as a tuple; unknown or repeated names are a
    ValidationError."""
    names = tuple(names)
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
    if simulation not in SIMULATIONS:
        raise ValidationError(f"unknown simulation {simulation!r}")
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
        "tau": 1,
        "h": 1,
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


def _coupling_range(simulation: str) -> float:
    return 0.4 if simulation.startswith("henon_bi") else 1.0


def normalize_point(simulation: str, coupling) -> tuple[float, float]:
    """Map a user grid entry to the (lambda_xy, lambda_yx) pair. Accepts an
    already-normalized pair for any simulation (idempotent)."""
    hi = _coupling_range(simulation)
    if isinstance(coupling, (tuple, list)):
        lxy, lyx = (float(coupling[0]), float(coupling[1]))
        if not simulation.startswith("henon_bi"):
            dead_axis = lxy if simulation == "lp" else lyx
            if dead_axis != 0.0:
                raise ValidationError(
                    f"{simulation} sweeps one coupling; the other must be 0")
    elif simulation.startswith("henon_bi"):
        lam = float(coupling)
        lxy, lyx = lam, lam
    else:
        lam = float(coupling)
        lxy, lyx = (0.0, lam) if simulation == "lp" else (lam, 0.0)
    for v in (lxy, lyx):
        if not 0.0 <= v <= hi:
            raise ValidationError(f"coupling {v} outside [0, {hi}] for {simulation}")
    return (lxy, lyx)


def desk_grid(simulation: str, step: float = 0.05) -> list:
    hi = _coupling_range(simulation)
    vals = [round(step * i, 10) for i in range(int(round(hi / step)) + 1)]
    if simulation.startswith("henon_bi"):
        return [(a, b) for a in vals for b in vals]
    return vals


def paper_grid(simulation: str) -> list:
    return desk_grid(simulation, step=0.01)


DEFAULT_T = {"lp": 10**4, "ulam": 10**3, "henon_uni": 10**3,
             "henon_bi_i": 10**4, "henon_bi_ni": 10**4}


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
    skip_synchrony: bool = False

    def __post_init__(self):
        if self.simulation not in SIMULATIONS:
            raise ValidationError(f"unknown simulation {self.simulation!r}")
        if self.T is None:
            object.__setattr__(self, "T", DEFAULT_T[self.simulation])
        couplings = self.couplings if self.couplings is not None else desk_grid(self.simulation)
        points = tuple(normalize_point(self.simulation, c) for c in couplings)
        object.__setattr__(self, "couplings", points)
        if self.runs < 1:
            raise ValidationError("runs must be >= 1")
        object.__setattr__(self, "indices", check_index_names(self.indices))
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")


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
    T: int
    runs: int
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
        """Grid point -> list of D = value_xy - value_yx, one per run."""
        xy = self.values(index, "xy")
        yx = self.values(index, "yx")
        out = {}
        for (lxy, lyx, run), v_xy in sorted(xy.items()):
            v_yx = yx.get((lxy, lyx, run), float("nan"))
            out.setdefault((lxy, lyx), []).append(v_xy - v_yx)
        return out

    def directed_series(self, index: str) -> tuple[list, np.ndarray]:
        """Keys (point, run) sorted, with the matching D values."""
        xy = self.values(index, "xy")
        yx = self.values(index, "yx")
        keys = sorted(xy)
        vals = np.array([xy[k] - yx.get(k, float("nan")) for k in keys])
        return keys, vals


# ---------------------------------------------------------------------------
# execution


def simulate_pair(simulation: str, point: tuple[float, float], T: int,
                  seed: int) -> SeriesPair:
    if simulation == "lp":
        return simulate.sim_lp(simulate.LpParams(lam=point[1], T=T, seed=seed))
    if simulation == "ulam":
        return simulate.sim_ulam(simulate.UlamParams(lam=point[0], T=T, seed=seed))
    if simulation == "henon_uni":
        return simulate.sim_henon_uni(simulate.HenonUniParams(lam=point[0], T=T, seed=seed))
    if simulation == "henon_bi_i":
        return simulate.sim_henon_bi(simulate.HenonBiParams(
            lam_xy=point[0], lam_yx=point[1], T=T, seed=seed))
    if simulation == "henon_bi_ni":
        return simulate.sim_henon_bi(simulate.HenonBiParams(
            lam_xy=point[0], lam_yx=point[1], T=T, seed=seed, b_y=0.1))
    raise ValidationError(f"unknown simulation {simulation!r}")


def _status_estimate(name: str, status: str) -> IndexEstimate:
    return IndexEstimate(name, float("nan"), float("nan"), 0.0, 0.0, {}, status)


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
            dms[m] = embed(pair, EmbeddingSpec(m=m, tau=presets["tau"], h=presets["h"]))
        return dms[m]

    entries = dict.fromkeys(INDEX_TABLE[name] for name in indices)
    plan = {}
    for m, _, graph_k in entries:
        if graph_k is not None:  # a graph reader's dimension is a preset key
            for series in "xy":
                plan.setdefault((presets[m], series), []).append(graph_k(presets, indices))
    got, graphs = {}, Graphs(plan)
    for m, call, _ in entries:
        m = presets[m] if isinstance(m, str) else m
        try:
            result = call(pair if m is None else dm_for(m), presets, indices, graphs)
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


def _simulate_units(cfg: SweepConfig, units: list) -> list:
    """One pair per (point index, run) unit, or None where the simulator
    escaped. Ulam units are simulated as one batch, the others one by one."""
    T = _sim_length(cfg)
    if cfg.simulation == "ulam":
        return simulate.sim_ulam_batch([
            simulate.UlamParams(lam=cfg.couplings[i][0], T=T, seed=cfg.base_seed + run)
            for i, run in units])
    pairs = []
    for i, run in units:
        try:
            pairs.append(simulate_pair(cfg.simulation, cfg.couplings[i], T,
                                       cfg.base_seed + run))
        except NumericalEscapeError:
            pairs.append(None)
    return pairs


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
    one batch; units skipped for synchrony never simulate), then their
    indices are computed unit by unit. A unit whose simulation escaped is
    recorded as degenerate.
    """
    records = []
    for start in range(0, len(units), simulate.ULAM_BATCH_RINGS):
        group = units[start:start + simulate.ULAM_BATCH_RINGS]
        live = [(i, run) for i, run in group
                if not (cfg.skip_synchrony and cfg.simulation == "ulam"
                        and point_in_windows(cfg.couplings[i], ULAM_SYNC_WINDOWS))]
        pairs = dict(zip(live, _simulate_units(cfg, live)))
        for i, run in group:
            if (i, run) in pairs:
                estimates = _unit_estimates(cfg, i, run, pairs.pop((i, run)))
            else:
                estimates = [_status_estimate(name, STATUS_SKIPPED_SYNCHRONY)
                             for name in cfg.indices]
            point = cfg.couplings[i]
            records.extend(
                Record(cfg.simulation, point[0], point[1], run, est.index, direction,
                       est.value(direction),
                       est.elapsed_xy if direction == "xy" else est.elapsed_yx,
                       est.status)
                for est in estimates for direction in ("xy", "yx"))
    return records


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Execute the full (grid x runs) sweep; degenerate estimates and escaped
    simulations are recorded with their status and never abort the sweep.

    Worker k gets the units k, k + workers, ... as one chunk, so that its
    Ulam rings are simulated together; workers=1 runs the one chunk here.
    """
    units = [(i, run) for i in range(len(cfg.couplings)) for run in range(cfg.runs)]
    chunks = [c for c in (units[k::cfg.workers] for k in range(cfg.workers)) if c]
    if len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            done = list(pool.map(_run_chunk, [cfg] * len(chunks), chunks))
    else:
        done = [_run_chunk(cfg, chunk) for chunk in chunks]
    records = [rec for chunk in done for rec in chunk]
    records.sort(key=lambda r: (r.lambda_xy, r.lambda_yx, r.run, r.index, r.direction))
    return SweepResult(cfg.simulation, _sim_length(cfg), cfg.runs, records)


# ---------------------------------------------------------------------------
# reporting


def status_counts(res: SweepResult) -> dict:
    """Number of records per status, zeros included."""
    counts = dict.fromkeys((STATUS_OK, STATUS_DEGENERATE, STATUS_SKIPPED_SYNCHRONY), 0)
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


def _fmt(value: float) -> str:
    return "NA" if not np.isfinite(value) else repr(float(value))


def sweep_to_csv(res: SweepResult, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in res.records:
            writer.writerow([r.simulation, repr(r.lambda_xy), repr(r.lambda_yx),
                             r.run, r.index, r.direction, _fmt(r.value),
                             repr(r.elapsed_seconds), r.status])


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
    sim = records[0].simulation
    runs = max(r.run for r in records) + 1
    return SweepResult(sim, T=-1, runs=runs, records=records)


def corr_to_csv(names, matrix, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index"] + list(names))
        for name, row in zip(names, matrix):
            writer.writerow([name] + [_fmt(v) for v in row])


def fg_to_csv(summary, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "f", "g"])
        for index, fg in summary.stats.items():
            writer.writerow([index, _fmt(fg.f), _fmt(fg.g)])


def timing_to_csv(table: dict, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "mean_seconds", "std_seconds"])
        for index in INDEX_NAMES:
            if index in table:
                mean, std = table[index]
                writer.writerow([index, repr(mean), repr(std)])


def pair_to_csv(pair: SeriesPair, path):
    """Headered t,x,y rows; missing samples are empty cells."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "y"])
        for t in range(pair.T):
            x = "" if pair.x_missing[t] else repr(float(pair.x[t]))
            y = "" if pair.y_missing[t] else repr(float(pair.y[t]))
            writer.writerow([t, x, y])


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
