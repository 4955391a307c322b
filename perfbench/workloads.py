"""The three benchmark workloads and the code that runs one pass of each.

A pass is one or more `run_sweep` calls (plus `summarize_fg` on the perturb
workload). Every pass of a run repeats the same inputs, which are a function
of the workload seed alone, so repeated passes are identical work and every
one of them can be checked against the same reference.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
import warnings
from dataclasses import dataclass

LP_POINTS = (0.0, 0.2, 0.4)           # acceptance 03's coupling points
PERTURB_POINTS = (0.1, 0.4, 0.7)      # outside the Ulam synchrony windows
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    fg: bool          # baseline + perturbed sweep followed by summarize_fg

    def passes(self, bc, seed: int, trace: bool):
        """The run_sweep configs of each pass, in order, cycling forever.

        Untraced lp-unit passes are single units that cycle through the three
        coupling points; its traced pass is the first two units in one sweep,
        so that the same pass can also be run with two workers.
        """
        k = 0
        while True:
            yield self._configs(bc, seed, trace, k)
            k += 1

    def _configs(self, bc, seed, trace, k):
        if self.name == "lp-unit":
            points = LP_POINTS[:2] if trace else (LP_POINTS[k % len(LP_POINTS)],)
            return [bc.SweepConfig(simulation="lp", T=10_000, runs=1, couplings=points,
                                   base_seed=seed, workers=self.workers)]
        if self.name == "ulam-sweep":
            return [bc.SweepConfig(simulation="ulam", T=1000, runs=1,
                                   couplings=tuple(bc.desk_grid("ulam")),
                                   base_seed=seed, workers=self.workers)]
        base = bc.SweepConfig(simulation="ulam", T=1000, runs=2, couplings=PERTURB_POINTS,
                              base_seed=seed, workers=self.workers)
        rounded = bc.PerturbationSpec(kind="round", decimals=1)
        return [base, dataclasses.replace(base, perturbation=rounded)]

    def reference_configs(self, bc, seed: int):
        """Every config a run at `seed` can execute, for recording a reference."""
        if self.name == "lp-unit":
            return [bc.SweepConfig(simulation="lp", T=10_000, runs=1, couplings=LP_POINTS,
                                   base_seed=seed, workers=1)]
        return self._configs(bc, seed, False, 0)


WORKLOADS = {w.name: w for w in (
    Workload("lp-unit", workers=1, fg=False),
    Workload("ulam-sweep", workers=2, fg=False),
    Workload("ulam-perturb-round", workers=1, fg=True),
)}


def n_units(configs) -> int:
    return sum(len(cfg.couplings) * cfg.runs for cfg in configs)


@dataclass
class PassResult:
    configs: list
    start: float          # perf_counter at the start of the pass
    wall_s: float
    sweeps: list          # SweepResult per config
    fg: object            # PerturbSummary or None
    fg_warnings: int      # expected "Mean of empty slice" warnings suppressed


def run_pass(bc, workload: Workload, configs, workers: int | None = None,
             tracer=None) -> PassResult:
    """Run one pass; `workers` overrides the configs' worker count.

    Exceptions propagate: the caller counts the pass's units as failed.
    """
    if workers is not None:
        configs = [dataclasses.replace(cfg, workers=workers) for cfg in configs]
    sweeps, fg, n_warn = [], None, 0
    t0 = time.perf_counter()
    for cfg in configs:
        with _span(tracer, "harness.run_sweep"):
            sweeps.append(bc.run_sweep(cfg))
    if workload.fg:
        with _span(tracer, "perturb.fg"), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fg = bc.summarize_fg(sweeps[0], sweeps[1])
        wall = time.perf_counter() - t0
        for w in caught:
            if issubclass(w.category, RuntimeWarning) and "Mean of empty slice" in str(w.message):
                # nanmean over an index whose perturbed estimates are all
                # degenerate: the NaN f it yields is the expected output
                n_warn += 1
            else:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    else:
        wall = time.perf_counter() - t0
    return PassResult(configs, t0, wall, sweeps, fg, n_warn)


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()
