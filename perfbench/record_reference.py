"""Record the reference outputs that run.py checks at the default seed.

Usage, from the root of a checkout: python3 perfbench/record_reference.py

Runs every unit a run at the default seed can execute, on every workload,
and writes each unit's (value_xy, value_yx, status) for all ten indices and
the perturb workload's f/g table to perfbench/reference.json. Re-record only
when a change is meant to alter estimator outputs, and say so.
"""

import json
import sys

import run as runner
import checks
from workloads import DEFAULT_SEED, WORKLOADS, run_pass

if __name__ == "__main__":
    bc = runner.load_package()
    out = {"seed": DEFAULT_SEED, "rel_tol": checks.REL_TOL, "workloads": {}}
    for workload in WORKLOADS.values():
        res = run_pass(bc, workload, workload.reference_configs(bc, DEFAULT_SEED))
        units = checks.unit_table(res.configs, res.sweeps)
        bad = checks.structure_problems(units, checks.expected_keys(res.configs))
        if bad:
            sys.exit(f"{workload.name}: {bad}")
        out["workloads"][workload.name] = {
            "units": units, "fg": checks.fg_table(res.fg) if res.fg is not None else None}
        print(f"{workload.name}: {len(units)} units in {res.wall_s:.1f} s")
    with open(runner.BENCH / "reference.json", "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True, allow_nan=False)
