"""Benchmark runner for the bicausal package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lp-unit --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

It imports `bicausal` from the checkout's `src/` the way a user does and
drives it only through public functions. An untraced run (`--trace 0`)
repeats passes of its workload for about `--seconds` (at least two passes)
and reports the end-to-end metrics; a traced run (`--trace 1`) runs one pass untraced with
one worker, the same pass traced, and the same pass untraced with two
workers, and reports the per-layer metrics. Every pass is checked for
correctness. Human-readable lines go first; the last line of standard
output is one JSON object. The full result, with every unit's raw values,
is written to `.bench_results/` in the checkout.
"""

import os

# One BLAS thread per process, set before numpy is imported, so that the two
# sweep workers never run more BLAS threads than the machine has cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, n_units, run_pass  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
SETUP_PROBES = 3
MIN_PASSES = 2
CMI_CALLS = 3


def metric_units(trace: int) -> dict:
    """name -> unit of the metrics a run reports, as BENCHMARK.json lists them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def load_package():
    """Import bicausal from this checkout's src/, never from elsewhere."""
    pkg = SRC / "bicausal"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: {pkg} not found; run from the root of a bicausal checkout")
    sys.path.insert(0, str(SRC))
    import bicausal
    if Path(bicausal.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: imported bicausal from {bicausal.__file__}, not {pkg}")
    return bicausal


def machine_context(bc, workload, seed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas_version = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas_version, "bicausal": bc.__version__,
        "blas_threads_cap": BLAS_THREADS, "workers": workload.workers, "seed": seed,
    }


class Run:
    """Executes passes, checks each one and keeps the tallies of a run."""

    def __init__(self, bc, workload, seed: int, reference: dict | None):
        self.bc, self.workload, self.seed, self.reference = bc, workload, seed, reference
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.units: dict = {}
        self.fg: dict | None = None
        self.fg_warnings = 0
        self.oracle_err = 0.0
        self.passes: list = []
        self.detail: dict = {}

    def execute(self, configs, workers=None, tracer=None):
        """One checked pass; returns its PassResult, or None if it raised."""
        items = n_units(configs) + (1 if self.workload.fg else 0)
        self.attempted += items
        try:
            res = run_pass(self.bc, self.workload, configs, workers, tracer)
        except Exception:
            traceback.print_exc()
            self.failed += items
            self.problems.append(f"pass raised: {traceback.format_exc(limit=1)}")
            return None
        table = checks.unit_table(res.configs, res.sweeps)
        bad = checks.structure_problems(table, checks.expected_keys(res.configs))
        for found in (
            checks.reference_problems(table, self.reference["units"]) if self.reference else {},
            checks.reference_problems({k: v for k, v in table.items() if k in self.units},
                                      self.units, "earlier pass"),
        ):
            for key, msgs in found.items():
                bad.setdefault(key, []).extend(msgs)
        err, oracle_bad = checks.lp_oracle_errors(self.bc, table)
        self.oracle_err = max(self.oracle_err, err)
        for key, msgs in oracle_bad.items():
            bad.setdefault(key, []).extend(msgs)
        self.failed += len(bad)
        self.problems += [f"{key}: {msg}" for key, msgs in bad.items() for msg in msgs]
        for key, row in table.items():
            self.units.setdefault(key, row)
        if res.fg is not None:
            fg = checks.fg_table(res.fg)
            fg_bad = checks.fg_problems(fg, self.reference["fg"]) if self.reference else []
            if self.fg is not None:
                fg_bad += checks.fg_problems(fg, self.fg)
            self.failed += 1 if fg_bad else 0
            self.problems += fg_bad
            self.fg = self.fg or fg
            self.fg_warnings += res.fg_warnings
        self.passes.append(res)
        return res


def load_reference(workload) -> dict:
    with open(BENCH / "reference.json") as fh:
        ref = json.load(fh)
    return ref["workloads"][workload.name]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def setup_seconds(workers: int, probe: SpeedProbe) -> tuple[float, float]:
    """(raw, scaled) wall seconds from a fresh interpreter to bicausal
    imported and, with workers > 1, the process pool ready: the wall time of
    the whole probe process."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), str(workers)],
                   cwd=ROOT, check=True)
    t1 = time.perf_counter()
    return t1 - t0, (t1 - t0) * probe.scale(t0, t1)


def scaled_wall(p, probe: SpeedProbe) -> float:
    return p.wall_s * probe.scale(p.start, p.start + p.wall_s)


def untraced(run: Run, seconds: float) -> dict:
    wl = run.workload
    with SpeedProbe() as probe:
        t_start = time.perf_counter()
        for n, configs in enumerate(wl.passes(run.bc, run.seed, trace=False), start=1):
            run.execute(configs)
            elapsed = time.perf_counter() - t_start
            # at least two passes; then only one predicted to end within the run
            if n >= MIN_PASSES and elapsed * (n + 1) / n > seconds:
                break
        rss = peak_rss_mb()  # before the set-up probes, which are children too
        setup = [setup_seconds(wl.workers, probe) for _ in range(SETUP_PROBES)]
    done = run.passes
    if not done:
        return {}
    walls = [scaled_wall(p, probe) for p in done]
    units = [n_units(p.configs) for p in done]
    # pass wall x workers / units: the time one unit occupies a worker
    unit_samples = [w * p.configs[0].workers / u for w, p, u in zip(walls, done, units)]
    run.detail = {
        "pass_units": units,
        "pass_wall_s_raw": [p.wall_s for p in done],
        "pass_wall_s_scaled": walls,
        "pass_probe_median_s": [probe.median(p.start, p.start + p.wall_s) for p in done],
        "unit_s_samples": unit_samples,
        "setup_s_raw": [raw for raw, _ in setup],
        "setup_s_scaled": [scaled for _, scaled in setup],
        "tail_percentile": "none: fewer than 10 samples lie beyond any percentile",
    }
    return {
        "unit_s": statistics.median(unit_samples),
        "units_per_s": sum(units) / sum(walls),
        "setup_s": statistics.median(scaled for _, scaled in setup),
        "peak_rss_mb": rss,
    }


def cmi_call_seconds(bc, seed: int, probe: SpeedProbe) -> float:
    """Median scaled time of one public cmi_ksg call on ctir's lag-1 inputs
    (x[t+1], y[t], x[t]) of an lp-1e4 pair."""
    pair = bc.sim_lp(bc.LpParams(lam=0.2, T=10_000, seed=seed))
    x, y = pair.x, pair.y
    times = []
    for _ in range(CMI_CALLS):
        t0 = time.perf_counter()
        bc.cmi_ksg(x[1:], y[:-1], x[:-1], bc.KsgParams(k=4))
        t1 = time.perf_counter()
        times.append((t1 - t0) * probe.scale(t0, t1))
    return statistics.median(times)


def traced(run: Run) -> dict:
    configs = next(run.workload.passes(run.bc, run.seed, trace=True))
    n = n_units(configs)
    tracer = tracing.Tracer(run.bc)
    with SpeedProbe() as probe:
        plain = run.execute(configs, workers=1)
        with tracer:
            spans_pass = run.execute(configs, workers=1, tracer=tracer)
        pooled = run.execute(configs, workers=2)
        cmi_s = cmi_call_seconds(run.bc, run.seed, probe)
    if plain is None or spans_pass is None or pooled is None:
        return {}
    spans = tracer.spans
    rows = tracing.layer_rows(spans)
    # span seconds go on the reference scale with the traced pass's factor
    k = probe.scale(spans_pass.start, spans_pass.start + spans_pass.wall_s)

    def per_unit(name, field="total_s"):
        return rows.get(name, {}).get(field, 0) * (k if field.endswith("_s") else 1) / n

    def as_called(name):
        return tracing.direct_total(spans, name, "harness.compute")

    metrics = {
        "simulate.sim_s": per_unit("simulate.sim"),
        "simulate.calls": per_unit("simulate.sim", "calls"),
        "core.embed_s": per_unit("core.embed"),
        "core.embed_calls": per_unit("core.embed", "calls"),
    }
    for name in ("regress.egc", "regress.nlgc", "regress.pi", "info.te_hist",
                 "info.ete_hist", "info.te_ksg", "info.ctir", "crossmap.si", "crossmap.ccm"):
        metrics[f"{name}_s"] = as_called(name)[0] * k / n
    walls = {name: scaled_wall(p, probe) for name, p in
             (("untraced_w1", plain), ("traced_w1", spans_pass), ("untraced_w2", pooled))}
    metrics.update({
        "info.cmi_ksg_call_s": cmi_s,
        "crossmap.si_calls": as_called("crossmap.si")[1] / n,
        "crossmap.self_s": per_unit("crossmap.si", "self_s") + per_unit("crossmap.ccm", "self_s"),
        "neighbors.knn_s": per_unit("neighbors.knn"),
        "neighbors.knn_calls": per_unit("neighbors.knn", "calls"),
        "neighbors.knn_rows": per_unit("neighbors.knn", "rows"),
        "perturb.apply_s": per_unit("perturb.apply"),
        "perturb.fg_s": per_unit("perturb.fg"),
        "harness.compute_s": per_unit("harness.compute"),
        "harness.scaling_eff_w2": walls["untraced_w1"] / (2 * walls["untraced_w2"]),
        "trace.overhead_frac": walls["traced_w1"] / walls["untraced_w1"] - 1,
    })
    self_rows = sorted(((name, row["self_s"] * k / n) for name, row in rows.items()),
                       key=lambda item: -item[1])
    t0 = spans[0][tracing.START] if spans else 0.0
    run.detail = {
        "traced_units": n,
        "entry_points_not_found": tracer.missing,
        "pass_wall_s_raw": {"untraced_w1": plain.wall_s, "traced_w1": spans_pass.wall_s,
                            "untraced_w2": pooled.wall_s},
        "pass_wall_s_scaled": walls,
        "traced_pass_scale": k,
        "layers_per_unit_raw": {name: {f: v / n for f, v in row.items()}
                                for name, row in rows.items()},
        "self_s_per_unit": dict(self_rows),
        "largest_self_row": self_rows[0][0] if self_rows else None,
        "spans": [[s[tracing.NAME], s[tracing.START] - t0, s[tracing.END] - t0,
                   s[tracing.PARENT], s[tracing.UNIT], s[tracing.ROWS]] for s in spans],
    }
    return metrics


def run_one(args) -> int:
    bc = load_package()
    workload = WORKLOADS[args.workload]
    reference = load_reference(workload) if args.seed == DEFAULT_SEED else None
    run = Run(bc, workload, args.seed, reference)
    context = machine_context(bc, workload, args.seed)
    t0 = time.perf_counter()
    metrics = traced(run) if args.trace else untraced(run, args.seconds)
    wall = time.perf_counter() - t0
    names = metric_units(args.trace)
    correct = run.failed == 0 and set(metrics) == set(names)
    failed_frac = run.failed / max(run.attempted, 1)
    oracle_err = run.oracle_err if any(k.startswith("lp|") for k in run.units) else None

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
          f"{len(run.passes)} passes, {run.attempted} units attempted, {wall:.1f} s")
    print("  context: " + ", ".join(f"{k}={v}" for k, v in context.items()))
    for name, unit in names.items():
        if name in metrics:
            print(f"  {name:<24} {metrics[name]:.6g} {unit}")
    print(f"  {'failed_frac':<24} {failed_frac:.6g} ({run.failed}/{run.attempted})")
    if oracle_err is not None:
        print(f"  {'oracle_err_nats':<24} {oracle_err:.6g} nats "
              f"(bound {checks.ORACLE_TOL_NATS})")
    if args.trace and run.detail.get("self_s_per_unit"):
        print("  self time per unit, largest first:")
        for name, secs in run.detail["self_s_per_unit"].items():
            print(f"    {name:<22} {secs:.6g} s")
    for msg in run.problems[:20]:
        print(f"  FAILED {msg}")

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w") as fh:
        json.dump({
            "workload": workload.name, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "context": context, "wall_s": wall,
            "correct": correct, "attempted": run.attempted, "failed": run.failed,
            "failed_frac": failed_frac, "oracle_err_nats": oracle_err,
            "fg_empty_slice_warnings": run.fg_warnings,
            "problems": run.problems, "metrics": metrics, "detail": run.detail,
            "units": run.units, "fg": run.fg,
        }, fh, indent=1, allow_nan=False)
    print(f"  result file: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in names.items() if name in metrics},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process; one summary line at the end."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
