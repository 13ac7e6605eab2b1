"""pettis-forge: constructs step-carrier and continuous counterexample
functions on [0, 1) in l_p block-sequence backends and numerically certifies
their defining lower bounds with seeded, reproducible campaigns."""

from .blocks import BlockLayout, BlockVector, Functional, dual_exponent
from .carriers import (
    CarrierFamily,
    DisjointnessReport,
    allocate_carriers,
    verify_disjointness,
)
from .campaigns import (
    CampaignConfig,
    Report,
    run_blowup,
    run_bochner_divergence,
    run_continuous_campaign,
    run_halfpower_statistic,
    run_lower_bound_sweep,
    run_pairing_check,
    run_psi_validate,
)
from .continuous import (
    ContinuousModel,
    PairCheck,
    build_continuous_model,
    check_pair,
    eval_f,
    eval_fn,
    separation_lower_bound,
)
from .errors import PettisForgeError
from .intervals import (
    DyadicIndex,
    Interval,
    IntervalSet,
    dyadic_interval,
    find_inner_dyadic,
)
from .pettis import (
    IntegralEnclosure,
    PettisModel,
    TruncatedIntegral,
    build_model,
    evaluate_f,
    pettis_integral,
    scalar_integral,
    truncated_integral,
)
from .psi import (
    CoefficientTable,
    GrowthReport,
    PsiSpec,
    SequenceRule,
    coefficients,
    eval_psi_total,
    tail_bound,
    validate_growth,
    validate_summable,
)

__version__ = "0.1.0"
