"""gaplab: a simulation lab for fixed-distribution vs distribution-independent PAC learning.

The package implements the projection class over the Boolean hypercube, the
product-distribution family with one hidden fair coordinate, disagreement
metrics and greedy covers, four learners (ERM, the cover learner, the
posterior rule, the consistent memorizer), and a seeded Monte Carlo harness
that reproduces the log(n) labeled-sample separation and the no-gap result
for the class of all functions.
"""

__version__ = "0.1.0"

from .concepts import (
    PointSet,
    ProjectionClass,
    TableClass,
    all_functions_class,
    build_shattered_set,
    enumerated_domain,
    full_hypercube,
    vc_dimension_bruteforce,
)
from .distributions import (
    FiniteSupportDistribution,
    PneFamily,
    PneMember,
    ProductDistribution,
    RngSeed,
    geometric_finite,
    make_pne,
    missing_mass_fraction,
    mix64,
    uniform_finite,
)
from .errors import (
    DimensionMismatchError,
    GaplabError,
    InconsistentSampleError,
    InvalidParameterError,
    OracleUnavailableError,
    PointNotInDomainError,
    SearchBracketError,
)
from .learners import (
    LabeledSample,
    MemorizerPredictor,
    consistent_memorizer,
    cover_learner,
    erm,
)
from .metric_cover import (
    CoverResult,
    EstimateWithCI,
    benedek_itai_m,
    corollary_m,
    disagreement_enumerate,
    disagreement_exact_projections,
    dudley_cover_bound,
    greedy_packing_cover,
    hoeffding_radius,
    pne_small_cover,
    sauer_bound,
    sauer_estimate,
)
from .mc_harness import (
    FixedTarget,
    KsSummary,
    NoGapRow,
    RandomConcept,
    RandomPair,
    SampleComplexityResult,
    TrialConfig,
    TrialPool,
    estimate_failure_prob,
    in_theorem_regime,
    ks_statistics_experiment,
    lower_bound_config,
    lower_bound_experiment,
    lower_bound_m,
    no_gap_configs,
    no_gap_experiment,
    run_trial,
    run_trials,
    sample_complexity_search,
)
