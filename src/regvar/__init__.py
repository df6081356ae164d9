"""regvar: simulation, transformation and tail diagnostics for regularly
varying random vectors.

The library models laws on R^d whose tails are governed by a tail index
and a spectral measure on the unit sphere, applies direction and norm
transformations on both the Monte Carlo and the analytic side, and checks
one against the other. The named scenarios (see regvar.scenarios) exercise
each transformation theorem and each counterexample at desk scale.
"""

import ctypes
import os

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

# mallopt's parameter numbers in glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """On glibc, keep freed arrays of up to 32 MiB in the process for reuse.

    Every pipeline stage frees its input and allocates an output of about
    the same size. With glibc's defaults a freed block of 128 KiB or more
    goes back to the kernel (mmap'd, or trimmed off the heap top), and the
    next stage faults the same pages in afresh: some 20 000 minor faults
    per pass of the eight verify scenarios at n = 2e5. These are the
    values glibc's own adaptive threshold moves to after a process frees
    one 32 MiB mapped block (DEFAULT_MMAP_THRESHOLD_MAX on 64-bit, and a
    trim threshold twice that), set once. The cost is up to 64 MiB of
    freed heap kept. On other C libraries, or where mallopt refuses the
    threshold (a 32-bit glibc), the defaults stay and nothing is raised.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20):
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_keep_freed_heap()
