"""Analysis toolkit for matrix population models x_k = (T + F) x_{k-1}.

Computes growth rates and net reproductive rates of standard matrix
population models, classifies growth against the trichotomy that couples
them, analyzes the zero-pattern structure of the projection and next
generation matrices, rescales fertility to hit a prescribed growth rate,
and simulates trajectories with their long-run limits.
"""

__version__ = "0.1.0"

from .errors import (
    ConsistencyError,
    ConvergenceError,
    Error,
    ModelError,
    MortalityError,
    NumericalError,
    ScalingError,
    StructureError,
)
from .spectral import (
    SPECTRAL_TOL,
    SpectralPair,
    perron_pair,
    resolvent_inverse,
    spectral_radius,
)
from .structure import (
    QPatternReport,
    StructureReport,
    analyze_structure,
    next_gen_pattern,
)
from .model import (
    CLASSIFY_TOL,
    AnalysisReport,
    PopulationModel,
    TargetScaleResult,
    Trichotomy,
    analyze,
    r0_positive,
    stabilizing_scale,
    target_growth_scale,
    validate_model,
)
from .leslie import LeslieModel, assemble, leslie_growth_rate, leslie_r0, q_poly_eval
from .dynamics import (
    Fate,
    LimitResult,
    PeriodicLimits,
    PopulationClass,
    PopulationKind,
    classify_population,
    eventual_limit,
    iterate,
    periodic_limits,
)

__all__ = [
    "__version__",
    "AnalysisReport",
    "CLASSIFY_TOL",
    "ConsistencyError",
    "ConvergenceError",
    "Error",
    "Fate",
    "LeslieModel",
    "LimitResult",
    "ModelError",
    "MortalityError",
    "NumericalError",
    "PeriodicLimits",
    "PopulationClass",
    "PopulationKind",
    "PopulationModel",
    "QPatternReport",
    "SPECTRAL_TOL",
    "ScalingError",
    "SpectralPair",
    "StructureError",
    "StructureReport",
    "TargetScaleResult",
    "Trichotomy",
    "analyze",
    "analyze_structure",
    "assemble",
    "classify_population",
    "eventual_limit",
    "iterate",
    "leslie_growth_rate",
    "leslie_r0",
    "next_gen_pattern",
    "periodic_limits",
    "perron_pair",
    "q_poly_eval",
    "r0_positive",
    "resolvent_inverse",
    "spectral_radius",
    "stabilizing_scale",
    "target_growth_scale",
    "validate_model",
]
