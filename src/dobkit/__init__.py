"""Discrete-time analysis, synthesis and simulation toolkit for
disturbance-observer-based motion control loops.

The package covers the z-domain closed forms of the observer inner loop for
acceleration, velocity and position measurement, the continuous-time
baseline, outer PD loop closure, sensitivity (waterbed) integral checks,
stability constraint evaluation, root-locus sweeps and a time-domain
simulator with a closed-form cross-validation oracle.
"""
from .loops import (
    DobConfig,
    LoopSet,
    MeasurementKind,
    OuterGains,
    PlantParams,
    classify_compensator,
    discrete_position_plant,
    discrete_velocity_plant,
    make_continuous_inner,
    make_inner_loop,
    make_outer_loop,
    make_pd,
    q_filter,
    velocity_estimator,
)
from .robustness import (
    BodeIntegralReport,
    FreqSweep,
    IllPosedIntegralError,
    Peak,
    bode_integral_continuous,
    bode_integral_discrete,
    freq_sweep,
)
from .sim import (
    DisturbancePulse,
    NoiseSpec,
    Reference,
    RejectionMetrics,
    Scenario,
    SimTrace,
    UnsupportedScenarioError,
    disturbance_rejection_metrics,
    simulate,
    simulate_linear_oracle,
)
from .stability import (
    BindingConstraint,
    LocusBranch,
    PoleClassification,
    StabilityVerdict,
    bisect_threshold,
    classify_poles,
    config_for_sweep,
    constraint_check,
    position_non_osc_bound,
    root_locus,
)
from .zalg import (
    DomainMismatchError,
    PoleEvaluationError,
    Polynomial,
    RationalTF,
    RootFindingError,
    RootSet,
    poly_roots,
    poly_roots_batch,
    schur_stable,
    tf_eval,
)

__version__ = "0.1.0"
