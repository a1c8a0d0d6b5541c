"""Exact-arithmetic toolkit for Diophantine approximation decay on
digit-set products: brute-force value functions, nested-box
constructions with machine-checkable certificates, and root-isolated
exponent bounds."""

from .bounds import (
    ExponentBoundPair,
    PolyRootQuery,
    TransferenceConstants,
    badness_exponent,
    exponent_ratio_bound,
    hypersurface_exponent_bound,
    isolate_root,
    refined_exponent_bound,
    subspace_exponent_bounds,
    subspace_polynomial,
    transference_constants,
)
from .certificates import (
    AvoidedEntry,
    Certificate,
    ConstructionSpec,
    PhiSpec,
    Step,
    certificate_from_json,
    certificate_loads,
    default_avoidance_heights,
)
from .constructor import construct, extend_spec, refine_point
from .digitsets import (
    Cylinder,
    DigitSystem,
    ProductSet,
    rationals_in,
)
from .engine import (
    SUP_NORM,
    AffineSubspaceSpec,
    BadnessResult,
    NormSpec,
    RecordEntry,
    RecordSequence,
    SuiteReport,
    badness_infimum,
    dirichlet_check,
    dirichlet_suite,
    exponent_estimate,
    lift_affine,
    lower_bound_check,
    power_floor,
    psi,
    psi_enclosure,
    psi_simultaneous,
    record_sequence,
    signed_box,
    simultaneous_badness_min,
    witness_key,
)
from .errors import (
    BracketFailure,
    DegenerateRecord,
    DepthExhausted,
    EmptyRange,
    NoRationalFound,
    NonIsolating,
    NotPrimitive,
    PrecisionExhausted,
    SchemaError,
    SingvecError,
    UsageError,
    VerificationFailure,
    ZeroForm,
)
from .exact import Box, RatInterval, dist_interval, nearest_int_dist
from .hyperplanes import (
    Hyperplane,
    coordinate_hyperplane,
    enumerate_hyperplanes,
    hyperplanes_meeting,
    interval_linform,
    make_primitive,
)
from .powers import PowerValue, iroot
from .realdesc import (
    AlgebraicReal,
    ExactReal,
    LinearCombinationReal,
    ProductReal,
    RealDescriptor,
    parse_real,
)
from .verifier import (
    SpotCheck,
    StepReport,
    VerificationReport,
    default_spot_checks,
    verify_certificate,
)

__version__ = "0.1.0"
