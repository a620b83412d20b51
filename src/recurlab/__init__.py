"""Recurrence diagnostics for linear dynamical systems at finite horizon.

The package is organized around five stages: exact density bookkeeping on
finite sets of return times (``natset``), operator specs and spectral
structure (``linop``), orbit segments (``orbit``), window empirical measures
and their invariance diagnostics (``empmeasure``), and the recurrence
classifier plus structural cross-checks (``classify``). ``cli`` drives
batches of experiments from JSON configs.
"""

__version__ = "0.1.0"

from .natset import (
    BanachWindow,
    DensityEstimate,
    DensitySummary,
    FiniteNatSet,
    delta_witness_search,
    density_summary,
    dual_hit_test,
    ip_witness_search,
    lower_density,
    syndetic_gap,
    upper_banach_density,
    upper_density,
)
from .linop import (
    DenseMatrix,
    DiagonalUnimodular,
    DirectSum,
    Inverse,
    JordanBlock,
    LinearOperator,
    OperatorSpec,
    Power,
    Scale,
    SpectralData,
    WeightedBackwardShiftTruncation,
    direct_sum,
    eigen_span_residual,
    eigenvector_from_power_relation,
    jdg_split,
    principal_angle,
    realize,
    spec_from_json_dict,
    spec_to_json_dict,
    unimodular_eigenpairs,
)
from .orbit import (
    BoundednessReport,
    OrbitSegment,
    boundedness,
    iterate,
    iterate_many,
    part_orbits,
    return_set,
)
from .empmeasure import (
    CovarianceMatrix,
    EmpiricalMeasure,
    Moments,
    ball_mass,
    best_banach_window,
    conjugation_invariance_check,
    covariance,
    empirical_from_window,
    invariance_defect,
    mixture,
    moments,
    product_measure,
    support_span_vs_kernel,
    symmetrize,
)
from .classify import (
    BirkhoffReport,
    EigenSpanCheckReport,
    EpsilonRecord,
    InverseRecurrenceReport,
    ProductRecurrenceReport,
    RecurrenceReport,
    Thresholds,
    UnimodularReturnReport,
    birkhoff_frequent_check,
    classify_vector,
    default_epsilon_grid,
    eigen_span_check,
    eigen_span_entry,
    inverse_recurrence_check,
    product_recurrence_check,
    unimodular_return_set,
)
from . import errors
