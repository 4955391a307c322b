"""Command-line entry point.

Subcommands: simulate, indices, sweep, perturb, oracle, report. Exit codes:
0 success, 1 configuration/validation error, 2 numerical failure. Flags can
also be supplied via --config (JSON); file values win over flags with a
warning. BICAUSAL_WORKERS sets the default worker count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import replace

from . import harness, oracle
from .core import STATUS_OK
from .errors import BicausalError, ValidationError
from .perturb import PerturbationSpec, summarize_fg
from .simulate import LpParams

PRESET_IDS = {
    "lp-1e4": ("lp", 10**4),
    "ulam-1e3": ("ulam", 10**3),
    "ulam-1e5": ("ulam", 10**5),
    "henon-uni-1e3": ("henon_uni", 10**3),
    "henon-uni-1e4": ("henon_uni", 10**4),
    "henon-uni-1e5": ("henon_uni", 10**5),
    "henon-bi-i-1e4": ("henon_bi_i", 10**4),
    "henon-bi-ni-1e4": ("henon_bi_ni", 10**4),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; our contract reserves 2 for numerical
    # failures, so funnel usage problems into ValidationError instead
    def error(self, message):
        raise ValidationError(message)


def _parse_grid(text: str) -> list[float]:
    """start:stop:step, stop inclusive when the step divides the range; no
    point lies past stop."""
    try:
        start, stop, step = (float(v) for v in text.split(":"))
    except ValueError:
        raise ValidationError(f"bad grid {text!r}; expected start:stop:step")
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
        raise ValidationError(f"bad grid {text!r}")
    # the relative slack keeps stop where the quotient rounds just below an
    # integer (0.3 / 0.1 = 2.9999999999999996)
    n = math.floor((stop - start) / step * (1 + 1e-9))
    return [round(start + i * step, 12) for i in range(n + 1)]


def _parse_kv(pairs: list[str]) -> dict:
    out = {}
    for item in pairs:
        if "=" not in item:
            raise ValidationError(f"expected key=value, got {item!r}")
        key, value = item.split("=", 1)
        try:
            out[key] = float(value)
        except ValueError:
            raise ValidationError(f"expected a number for {key!r}, got {value!r}")
    return out


def _config_value(action: argparse.Action, key: str, value):
    """A --config value, held to the type and choices of its flag."""
    if value is None and action.default is None:
        return value
    kind = action.type or str
    items = value if action.nargs == "*" else [value]
    if not isinstance(items, list) or not all(
            isinstance(v, (int, float) if kind is float else kind) and not isinstance(v, bool)
            for v in items):
        expected = f"a list of {kind.__name__}" if action.nargs == "*" else kind.__name__
        raise ValidationError(f"config key {key!r} must be {expected}, got {value!r}")
    if action.choices is not None and value not in action.choices:
        raise ValidationError(f"config key {key!r} must be one of {sorted(action.choices)}")
    return value


def _merge_config(args: argparse.Namespace, actions: dict):
    """Apply --config JSON over the parsed flags; file wins on conflict."""
    if not getattr(args, "config", None):
        return args
    try:
        with open(args.config) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read config {args.config}: {exc}")
    if not isinstance(payload, dict):
        raise ValidationError("config file must contain a JSON object")
    for key, value in payload.items():
        attr = key.replace("-", "_")
        if attr not in vars(args) or attr not in actions:
            raise ValidationError(f"unknown config key {key!r}")
        value = _config_value(actions[attr], key, value)
        current = getattr(args, attr)
        if current != actions[attr].default and current != value:
            print(f"warning: config file overrides --{key}={current!r} with {value!r}",
                  file=sys.stderr)
        setattr(args, attr, value)
    return args


def _workers_default() -> int:
    text = os.environ.get("BICAUSAL_WORKERS", "1")
    if not text.isdigit() or int(text) < 1:
        raise ValidationError(f"BICAUSAL_WORKERS must be a positive integer, got {text!r}")
    return int(text)


def _add_common(sub):
    sub.add_argument("--config", help="JSON file of flag values (wins over flags)")
    sub.add_argument("--out", "-o", default=".", help="output directory")


def build_parser() -> _Parser:
    parser = _Parser(prog="bicausal",
                     description="bivariate causality index benchmarking")
    subs = parser.add_subparsers(dest="command", required=True)

    p_sim = subs.add_parser("simulate", help="write one simulated pair as CSV")
    p_sim.add_argument("--preset", required=True, choices=sorted(PRESET_IDS))
    p_sim.add_argument("--coupling", type=float, default=None,
                       help="coupling (default: half the system's range)")
    p_sim.add_argument("--coupling-yx", type=float, default=None,
                       help="lambda_yx; with it, --coupling is lambda_xy")
    p_sim.add_argument("--T", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=0)
    _add_common(p_sim)

    p_idx = subs.add_parser("indices", help="compute indices on a t,x,y CSV")
    p_idx.add_argument("--input", required=True)
    p_idx.add_argument("--preset", default="ulam-1e3", choices=sorted(PRESET_IDS),
                       help="per-index parameter preset to apply")
    p_idx.add_argument("--indices", default="all")
    _add_common(p_idx)

    p_sweep = subs.add_parser("sweep", help="run a coupling sweep")
    p_sweep.add_argument("--preset", required=True, choices=sorted(PRESET_IDS))
    p_sweep.add_argument("--grid", default="desk",
                         help="'desk' (0.05), 'paper' (0.01) or start:stop:step")
    p_sweep.add_argument("--runs", type=int, default=3)
    p_sweep.add_argument("--T", type=int, default=None)
    p_sweep.add_argument("--indices", default="all")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--workers", type=int, default=_workers_default())
    _add_common(p_sweep)

    p_pert = subs.add_parser("perturb", help="baseline + perturbed sweep and f/g table")
    p_pert.add_argument("--preset", required=True, choices=sorted(PRESET_IDS))
    p_pert.add_argument("--kind", required=True,
                        choices=["standardize", "scale", "round", "missing",
                                 "noise", "data-size"])
    p_pert.add_argument("--target", default="both", choices=["x", "y", "both"])
    p_pert.add_argument("--factor", type=float, default=10.0)
    p_pert.add_argument("--decimals", type=int, default=1)
    p_pert.add_argument("--fraction", type=float, default=0.1)
    p_pert.add_argument("--noise-var", type=float, default=0.1)
    p_pert.add_argument("--data-size", type=int, default=None)
    p_pert.add_argument("--grid", default="desk")
    p_pert.add_argument("--runs", type=int, default=3)
    p_pert.add_argument("--T", type=int, default=None)
    p_pert.add_argument("--indices", default="all")
    p_pert.add_argument("--seed", type=int, default=0)
    p_pert.add_argument("--workers", type=int, default=_workers_default())
    _add_common(p_pert)

    p_or = subs.add_parser("oracle", help="analytic linear-process curves")
    p_or.add_argument("--lp", nargs="*", default=[],
                      help="key=value pairs: b_x b_y var_x var_y")
    p_or.add_argument("--lambda", dest="lam_grid", default="0:1:0.1")
    p_or.add_argument("--tau-max", type=int, default=None,
                      help="also emit the lag-averaged analytic curve")
    _add_common(p_or)

    p_rep = subs.add_parser("report", help="correlation + timing tables from a sweep CSV")
    p_rep.add_argument("--input", required=True)
    p_rep.add_argument("--statistic", default="d", choices=["d", "xy", "yx"])
    _add_common(p_rep)

    return parser


def _indices_list(text: str) -> tuple:
    if text == "all":
        return harness.INDEX_NAMES
    return harness.check_index_names(n.strip() for n in text.split(",") if n.strip())


def _grid_for(simulation: str, text: str):
    if text == "desk":
        return harness.desk_grid(simulation)
    if text == "paper":
        return harness.paper_grid(simulation)
    return harness.coupling_grid(simulation, _parse_grid(text))


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _cmd_simulate(args) -> int:
    simulation, T = PRESET_IDS[args.preset]
    T = T if args.T is None else args.T
    coupling = args.coupling
    if coupling is None:
        coupling = harness.SIMULATION_TABLE[simulation].hi / 2
    if args.coupling_yx is not None:
        coupling = (coupling, args.coupling_yx)
    point = harness.normalize_point(simulation, coupling)
    pair = harness.simulate_pair(simulation, point, T, args.seed)
    out = os.path.join(_outdir(args), f"{simulation}_series.csv")
    harness.pair_to_csv(pair, out)
    print(out)
    return 0


def _cmd_indices(args) -> int:
    pair = harness.pair_from_csv(args.input)
    simulation, T = PRESET_IDS[args.preset]
    estimates = harness.compute_indices(pair, simulation, T, _indices_list(args.indices))
    out = os.path.join(_outdir(args), "indices.csv")
    harness.write_csv(out, ["index", "direction", "value", "elapsed_seconds", "status"], (
        [est.index, direction, est.value(direction),
         est.elapsed_xy if direction == "xy" else est.elapsed_yx, est.status]
        for est in estimates for direction in ("xy", "yx")))
    print(out)
    if all(est.status != STATUS_OK for est in estimates):
        return 2
    return 0


def _sweep_config(args, perturbation=None) -> harness.SweepConfig:
    simulation, T = PRESET_IDS[args.preset]
    T = T if args.T is None else args.T
    return harness.SweepConfig(
        simulation=simulation,
        couplings=tuple(_grid_for(simulation, args.grid)),
        T=T,
        runs=args.runs,
        indices=_indices_list(args.indices),
        base_seed=args.seed,
        perturbation=perturbation,
        workers=args.workers,
    )


def _timed_sweeps(**cfgs) -> tuple[dict, dict]:
    """Run each named sweep; the results by name and the manifest totals:
    measured wall seconds and record counts per status, by name."""
    results, seconds, counts = {}, {}, {}
    for name, cfg in cfgs.items():
        t0 = time.perf_counter()
        results[name] = harness.run_sweep(cfg)
        seconds[name] = time.perf_counter() - t0
        counts[name] = harness.status_counts(results[name])
    return results, {"wall_seconds": seconds, "status_counts": counts}


def _cmd_sweep(args) -> int:
    cfg = _sweep_config(args)
    results, totals = _timed_sweeps(sweep=cfg)
    outdir = _outdir(args)
    harness.sweep_to_csv(results["sweep"], os.path.join(outdir, "sweep.csv"))
    harness.write_manifest(os.path.join(outdir, "manifest.json"), cfg, totals)
    print(os.path.join(outdir, "sweep.csv"))
    return 0


def _cmd_perturb(args) -> int:
    kind = args.kind.replace("-", "_")
    spec = PerturbationSpec(kind=kind, target=args.target, factor=args.factor,
                            decimals=args.decimals, fraction=args.fraction,
                            noise_var=args.noise_var, data_size=args.data_size,
                            seed=args.seed)
    base_cfg = _sweep_config(args)
    pert_cfg = replace(base_cfg, perturbation=spec)
    results, totals = _timed_sweeps(baseline=base_cfg, perturbed=pert_cfg)
    baseline, perturbed = results["baseline"], results["perturbed"]
    summary = summarize_fg(baseline, perturbed)
    outdir = _outdir(args)
    harness.sweep_to_csv(baseline, os.path.join(outdir, "baseline.csv"))
    harness.sweep_to_csv(perturbed, os.path.join(outdir, "perturbed.csv"))
    harness.fg_to_csv(summary, os.path.join(outdir, "fg.csv"))
    harness.write_manifest(os.path.join(outdir, "manifest.json"), pert_cfg, totals)
    print(os.path.join(outdir, "fg.csv"))
    return 0


def _cmd_oracle(args) -> int:
    kv = _parse_kv(args.lp)
    allowed = {"b_x", "b_y", "var_x", "var_y"}
    unknown = set(kv) - allowed
    if unknown:
        raise ValidationError(f"unknown linear-process keys: {sorted(unknown)}")
    header = ["lambda", "te_yx", "te_xy"]
    if args.tau_max is not None:
        header += ["ctir_yx", "ctir_xy"]
    rows = []
    for lam in _parse_grid(args.lam_grid):
        p = LpParams(lam=lam, T=1, **kv)
        row = [lam, oracle.te_lp_analytic(p, "yx"), oracle.te_lp_analytic(p, "xy")]
        if args.tau_max is not None:
            row += [oracle.ctir_lp_analytic(p, args.tau_max, "yx"),
                    oracle.ctir_lp_analytic(p, args.tau_max, "xy")]
        rows.append(row)
    out = os.path.join(_outdir(args), "oracle.csv")
    harness.write_csv(out, header, rows)
    print(out)
    return 0


def _cmd_report(args) -> int:
    res = harness.sweep_from_csv(args.input)
    outdir = _outdir(args)
    statistic = "d" if args.statistic == "d" else "value"
    direction = None if args.statistic == "d" else args.statistic
    for kind in ("pearson", "spearman"):
        names, mat = harness.corr_matrix(res, kind, statistic, direction)
        harness.corr_to_csv(names, mat, os.path.join(outdir, f"corr_{kind}.csv"))
    harness.timing_to_csv(harness.timing_table(res), os.path.join(outdir, "timing.csv"))
    print(outdir)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "indices": _cmd_indices,
    "sweep": _cmd_sweep,
    "perturb": _cmd_perturb,
    "oracle": _cmd_oracle,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        actions = {a.dest: a
                   for a in parser._subparsers._group_actions[0].choices[args.command]._actions}
        args = _merge_config(args, actions)
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BicausalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
