"""regvar: simulation, transformation and tail diagnostics for regularly
varying random vectors.

The library models laws on R^d whose tails are governed by a tail index
and a spectral measure on the unit sphere, applies direction and norm
transformations on both the Monte Carlo and the analytic side, and checks
one against the other. The named scenarios (see regvar.scenarios) exercise
each transformation theorem and each counterexample at desk scale.
"""

from .batch import SampleBatch
from .errors import (
    DegeneratePoint,
    DegenerateTail,
    DimensionMismatch,
    EmptyInput,
    EmptyMeasure,
    InvalidConstruction,
    InvalidGain,
    InvalidParameter,
    MomentDivergence,
    NonFiniteInput,
    RegvarError,
    SpecError,
    UnsupportedPair,
)
from .estimation import (
    EstimationReport,
    TailScan,
    empirical_spectral,
    estimate,
    hill_estimator,
    qn_measure,
    tail_scan,
)
from .measures import (
    RadialGain,
    RandomGainProcess,
    SpectralMeasure,
    SphereMap,
    StepAngles,
    constant_gain,
    constant_map,
    distance_ks,
    distance_tv,
    expected_gain_reweight,
    exponential_gain_process,
    identity_map,
    indicator_gain,
    matched_masses,
    moment_condition,
    power_cusp_gain,
    pushforward,
    quadrant_snap_map,
    quantile_transform_map,
    reweight,
    step_gain,
    step_map,
)
from .models import (
    Example1Model,
    Example2Gain,
    Example2Model,
    Example3Model,
    PolarIndependentModel,
    RegVarModel,
    example2_moment,
    staircase,
)
from .radial import AtomPlusParetoLaw, OscillatingTailLaw, ParetoLaw, RadialLaw
from .scenarios import SCENARIO_NAMES, Check, Report, Scenario, run_scenario
from .sphere import (
    ArcSet,
    CapSet,
    polar,
    unit_vector,
    wrap_angle,
)
from .transforms import (
    TransformedModel,
    radial_scale_apply,
    randomized_scale_apply,
    spherical_map_apply,
)

__version__ = "0.1.0"
