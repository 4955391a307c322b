"""Bivariate time-series causality indices, benchmark simulators and a
perturbation/robustness harness.

Ten directed indices (regression-error, information-theoretic and
cross-mapping families) over four seeded benchmark systems, with exact
Gaussian linear-process solutions for validation.
"""

# set before the submodule imports: `harness` records it in sweep manifests
__version__ = "0.1.0"

from .core import (
    DelayMatrix,
    EmbeddingSpec,
    IndexEstimate,
    SeriesPair,
    STATUS_DEGENERATE,
    STATUS_OK,
    directed_index,
    embed,
    standardize,
)
from .crossmap import CcmParams, SiParams, ccm, ccm_rho_curve, si_pair
from .harness import (
    INDEX_NAMES,
    SweepConfig,
    SweepResult,
    compute_indices,
    corr_matrix,
    desk_grid,
    index_presets,
    paper_grid,
    run_sweep,
    simulate_pair,
    timing_table,
)
from .info import (
    CtirParams,
    EteParams,
    HistParams,
    KsgParams,
    cmi_ksg,
    ctir,
    ete_hist,
    hist_entropy,
    te_hist,
    te_ksg,
)
from .neighbors import PointSet, knn, knn_all, seeded_jitter
from .oracle import (
    LpAuxiliary,
    ctir_lp_analytic,
    lp_cov_matrix,
    lp_covariance,
    te_lp_analytic,
    te_lp_small_lam,
)
from .perturb import PerturbationSpec, PerturbSummary, apply_perturbation, summarize_fg
from .regress import EgcParams, NlgcParams, PiParams, egc, kmeans, nlgc, ols_fit, pi
from .simulate import (
    HenonBiParams,
    HenonUniParams,
    LpParams,
    UlamParams,
    sim_henon_bi,
    sim_henon_uni,
    sim_lp,
    sim_ulam,
    sim_ulam_batch,
)

__all__ = [name for name in dir() if not name.startswith("_")]
