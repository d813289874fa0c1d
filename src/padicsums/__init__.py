"""Exact p-adic oscillatory sums, local solution densities, and empirical
decay exponents for polynomial maps."""

from .decay import (
    DecayRecord,
    DecayReport,
    FitResult,
    degree_bound_report,
    fit_alpha,
    sup_at_level,
)
from .errors import (
    BudgetExceededError,
    ConsistencyError,
    ExactVanishingError,
    FitError,
    PadicSumsError,
    ParseError,
    PreconditionError,
    SeriesCertificationError,
    SeriesFloorError,
)
from .expsum import (
    EvalRequest,
    EvalResult,
    PruneStats,
    eval_naive,
    eval_recursive,
    eval_series,
    eval_unit_directions,
    primitive_directions,
)
from .padic import PhaseHistogram, PrimeContext, valuation
from .polymap import (
    BallTerm,
    DegreeData,
    PolyMap,
    RestrictedSeries,
    SchwartzBruhat,
    check_affine_independence,
    degree_data,
    parse_polymap,
    series_truncate,
)
from .singular import (
    DensityTable,
    StabilizationReport,
    count_fibers,
    fourier_check,
    stabilization_probe,
)

__version__ = "0.1.0"
