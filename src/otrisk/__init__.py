"""Law-invariant coherent risk measures via optimal transport.

Evaluate CV@R, higher-moment risk measures, Kusuoka mixtures and
arbitrary finitely generated transport risk measures on discrete
distributions; solve the associated dual programs with certified gaps;
and audit the coherence axioms numerically.
"""

from .errors import (
    BadOptions,
    EmptyInput,
    InvalidMixture,
    InvalidOrder,
    InvalidParams,
    LengthMismatch,
    NegativeWeight,
    NonFiniteValue,
    OTRiskError,
    OutOfRange,
    WrongMode,
    ZeroTotalWeight,
)
from .measures import (
    INF,
    DiscreteMeasure,
    Order,
    as_order,
    conjugate_order,
    from_samples,
    merged_partition,
    point_mass,
    uniform_on,
    wasserstein_p,
)
from .transport import (
    Coupling,
    GeneratorSet,
    HullMode,
    comonotone_coupling,
    finite_set_value,
    lipschitz_constant,
    transport_value,
)
from .riskmeasures import (
    CVaR,
    Explicit,
    HigherMoment,
    KusuokaImage,
    KusuokaMixture,
    RiskSpec,
    cvar,
    cvar_target_set,
    evaluate_batch,
    evaluate_risk,
    higher_moment,
    higher_moment_certificate,
    kusuoka_image,
    lipschitz_and_order,
)
from .dualsolver import (
    DualPotential,
    GapReport,
    SolveStatus,
    SolverOptions,
    double_conjugate_refine,
    dual_objective,
    duality_gap_report,
    eval_conjugate,
    support_function,
)
from .verify import (
    AxiomCheck,
    AxiomReport,
    SplitMix64,
    check_axioms,
    check_bounds,
    default_tolerance,
    sample_pairs,
)

__version__ = "0.1.0"
