"""Morse theory of the moment-map norm square on quiver representation
spaces: gradient flow, Harder-Narasimhan stratification, equivariant Poincare
series, and doubled-quiver (hyperkahler) level sets.
"""

from .quiver import (
    DimVector,
    HNType,
    Quiver,
    QuiverError,
    StabilityParam,
    check_hn_type,
    codimension,
    critical_value,
    degree,
    enumerate_hn_types,
    euler_form,
    rank,
    shifted_param,
    slope,
    two_filtered_param,
)
from .repspace import (
    GaugeElement,
    Representation,
    act,
    f_value,
    finite_difference_check,
    grad_norm,
    moment,
    neg_gradient,
    rep_inner,
    rho,
    rho_adjoint,
    shifted_moment,
)
from .flow import (
    FlowConfig,
    FlowError,
    FlowResult,
    FlowSample,
    SigmaTrace,
    StepUnderflowError,
    integrate_flow,
    paired_flow_sigma,
    sigma,
    sigma_from_gauge,
)
from .strata import (
    ClassificationError,
    ConstructionError,
    CriticalType,
    Filtration,
    GapCertificate,
    GradedLimitReport,
    HomSpace,
    IsoResult,
    RankAmbiguityError,
    SlopeMismatchError,
    certify_semistable,
    classify_critical,
    flow_to_critical,
    graded_object,
    hn_type_by_flow,
    refine_critical,
    hom_space,
    is_isomorphic,
    make_critical_point,
    make_hn_example,
    sample_semistable,
    semistable_gap,
    slope_generic,
    tangent_decomposition,
    verify_graded_limit,
)
from .series import (
    SeriesInvariantError,
    TruncatedSeries,
    nonempty_hn_types,
    poincare_BG,
    poincare_semistable,
    reconstruct_BG_check,
)
from .hyperkahler import (
    DoubledRep,
    FiltrationLengthError,
    LevelError,
    double,
    flow_on_level,
    level_linearization_residual,
    lt_perturbation,
    moment_complex,
    phi_c_norm,
)
from .catalog import BUILTINS, a2, jordan2, star21

__version__ = "0.1.0"
