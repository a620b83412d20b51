"""Recurrence diagnostics for linear dynamical systems at finite horizon.

The package is organized around five stages: exact density bookkeeping on
finite sets of return times (``natset``), operator specs and spectral
structure (``linop``), orbit segments (``orbit``), window empirical measures
and their invariance diagnostics (``empmeasure``), and the recurrence
classifier plus structural cross-checks (``classify``). ``cli`` drives
batches of experiments from JSON configs. Numerical caps and tolerances
are constants of the module that applies them, not parameters.
"""

__version__ = "0.1.0"

from .natset import (
    BanachWindow,
    DensityEstimate,
    DensitySummary,
    FiniteNatSet,
    density_summary,
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
    iterate,
    iterate_many,
    return_set,
)
from .empmeasure import (
    CovarianceMatrix,
    EmpiricalMeasure,
    Moments,
    ball_mass,
    conjugation_invariance_check,
    covariance,
    empirical_from_window,
    invariance_defect,
    moments,
    support_span_vs_kernel,
)
from .classify import (
    BirkhoffReport,
    EpsilonRecord,
    InverseRecurrenceReport,
    ProductRecurrenceReport,
    RecurrenceReport,
    Thresholds,
    UnimodularReturnReport,
    birkhoff_frequent_check,
    classify_vector,
    eigen_span_entry,
    inverse_recurrence_check,
    product_recurrence_check,
    unimodular_return_set,
)
from . import errors
