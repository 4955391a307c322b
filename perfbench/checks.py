"""Correctness checks applied to every pass of every run.

Outputs are reduced to a table of units: unit key -> index -> [value_xy,
value_yx, status_xy, status_yx], with NaN written as None so that the table
is plain JSON and can be diffed between two runs. At the default seed each
unit and the f/g table must match the reference recorded with the benchmark;
at every seed the structural checks apply, and on the linear process the
k-NN transfer entropy and CTIR must lie within the oracle bound.
"""

from __future__ import annotations

import math

INDEX_NAMES = ("egc", "nlgc", "pi", "te_hist", "ete_hist", "te_ksg", "ctir",
               "si1", "si2", "ccm")
STATUSES = ("ok", "degenerate", "skipped-synchrony")
REL_TOL = 1e-9            # acceptance 04's exact-invariance tolerance
ORACLE_TOL_NATS = 0.03    # acceptance 01/03 tolerance
ORACLE_TAU_MAX = 20       # the lp ctir preset


def _plain(value: float):
    return None if math.isnan(value) else float(value)


def unit_key(cfg, point, run: int) -> str:
    kind = cfg.perturbation.kind if cfg.perturbation is not None else "base"
    return f"{cfg.simulation}|{point[0]!r}|{point[1]!r}|seed={cfg.base_seed + run}|{kind}"


def expected_keys(configs) -> list:
    return [unit_key(cfg, point, run) for cfg in configs
            for point in cfg.couplings for run in range(cfg.runs)]


def unit_table(configs, sweeps) -> dict:
    table: dict[str, dict] = {}
    for cfg, res in zip(configs, sweeps):
        for rec in res.records:
            key = unit_key(cfg, (rec.lambda_xy, rec.lambda_yx), rec.run)
            row = table.setdefault(key, {}).setdefault(
                rec.index, [None, None, None, None])
            col = 0 if rec.direction == "xy" else 1
            row[col] = _plain(rec.value)
            row[col + 2] = rec.status
    return table


def fg_table(summary) -> dict:
    return {index: [_plain(fg.f), _plain(fg.g)] for index, fg in summary.stats.items()}


def same_value(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def structure_problems(units: dict, expected_keys) -> dict:
    """key -> problems: every expected unit present, every index present in
    both directions with a known status."""
    problems: dict[str, list] = {}
    for key in expected_keys:
        row = units.get(key)
        if row is None:
            problems.setdefault(key, []).append("unit missing")
            continue
        for index in INDEX_NAMES:
            cells = row.get(index)
            if cells is None or cells[2] is None or cells[3] is None:
                problems.setdefault(key, []).append(f"{index}: direction missing")
            elif cells[2] not in STATUSES or cells[3] not in STATUSES:
                problems.setdefault(key, []).append(f"{index}: status {cells[2:]}")
    return problems


def reference_problems(units: dict, reference: dict, label: str = "reference") -> dict:
    """key -> problems for units of `units` that differ from `reference`
    (the recorded reference, or the same units from an earlier pass)."""
    problems: dict[str, list] = {}
    for key, row in units.items():
        want = reference.get(key)
        if want is None:
            problems.setdefault(key, []).append(f"unit not in {label}")
            continue
        for index, cells in row.items():
            ref = want.get(index)
            if ref is None:
                problems.setdefault(key, []).append(f"{index}: not in {label}")
                continue
            if cells[2:] != ref[2:] or not all(map(same_value, cells[:2], ref[:2])):
                problems.setdefault(key, []).append(f"{index}: {cells} != {label} {ref}")
    return problems


def fg_problems(table: dict, reference: dict) -> list:
    if set(table) != set(reference):
        return [f"f/g indices {sorted(table)} != reference {sorted(reference)}"]
    return [f"{index}: f/g {table[index]} != reference {reference[index]}"
            for index in table
            if not all(map(same_value, table[index], reference[index]))]


def lp_oracle_errors(bc, units: dict) -> tuple[float, dict]:
    """Largest |estimate - oracle| over te_ksg and ctir on lp units, and the
    units that exceed the bound."""
    worst, problems = 0.0, {}
    for key, row in units.items():
        sim, _lxy, lyx, *_ = key.split("|")
        if sim != "lp":
            continue
        p = bc.LpParams(lam=float(lyx), T=1)
        for index, oracle in (("te_ksg", lambda d: bc.te_lp_analytic(p, d)),
                              ("ctir", lambda d: bc.ctir_lp_analytic(p, ORACLE_TAU_MAX, d))):
            for col, direction in ((0, "xy"), (1, "yx")):
                value = row.get(index, [None] * 4)[col]
                err = math.inf if value is None else abs(value - oracle(direction))
                worst = max(worst, err)
                if err > ORACLE_TOL_NATS:
                    problems.setdefault(key, []).append(
                        f"{index} {direction}: |{value} - oracle| = {err:.4f} nats")
    return worst, problems
