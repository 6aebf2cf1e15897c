"""Laplace inversion on automatically selected elliptic contours.

Approximates u(t) for linear ODE systems u' = A u + b(t) by trapezoidal
quadrature of the inverse Laplace transform along an elliptic arc placed
from the pseudospectral geometry of A, with error models, a truncation
fixed point, a round-off feasibility check, and time-window reuse.
"""

from .contour import (
    ContourParams,
    FeasibilityReport,
    InnerEllipse,
    TruncationResult,
    build_inner_ellipse,
    conformal_map,
    contour_from_a,
    feasibility_check,
    optimize_a,
    predicted_nodes,
    stability_constant,
    truncation_fixed_point,
)
from .errors import (
    ArccosDomainError,
    BromellError,
    ConvergenceError,
    DimensionLimitError,
    EigenSolverError,
    FormatError,
    GeometryError,
    SingularSystemError,
    StageError,
)
from .numerics import (
    Operator,
    ShiftedSystem,
    as_operator,
    eigenvalues,
    reference_solution,
    resolvent_cond,
)
from .problems import (
    LaplaceProblem,
    SourceTerm,
    black_scholes_problem,
    canonical_cd_problem,
    chebyshev_diff_matrix,
    load_operator,
    load_problem,
    load_vector,
    save_operator,
    save_vector,
)
from .pseudospectra import (
    GridSpec,
    LevelCurve,
    PseudoGrid,
    compute_grid,
    critical_curve,
    curve_to_csv,
    grid_to_csv,
    level_curve,
)
from .solver import (
    NodeCache,
    QuadratureResult,
    SolveOptions,
    SolveReport,
    TimeWindowPlan,
    b_term,
    error_model,
    format_report,
    full_sum,
    integrand,
    plan_window,
    prepare_contour,
    read_report,
    rigorous_error_bound,
    solve,
    solve_at,
    trapezoid_sum,
    truncation_bound,
    write_errors_csv,
    write_report,
)

__version__ = "0.1.0"
