"""Numerical workbench for H1 stability of planar elliptic Dirichlet problems
under coefficient perturbation and bi-Lipschitz domain perturbation."""

from .analytic import (
    SeparableSolution,
    SourceTerm,
    annulus_solution,
    h1_seminorm_separable,
    jump_solution,
    limit_solution,
    residual_check,
)
from .coefficients import (
    CoefficientField,
    EllipticityBounds,
    identity_field,
    lp_distance,
    matrix_positive_part,
    pullback_energy_gap,
    pullback_field,
    radial_jump_field,
)
from .error_norms import (
    DivergentNormError,
    cross_domain_gradient_error,
    h1_error_vs_analytic,
    lq_gradient_norm,
)
from .experiments import (
    BoundCheck,
    HypothesisViolation,
    RateFit,
    coefficient_rate_study,
    composition_inequality_check,
    domain_rate_study,
    fit_loglog,
    q_star,
    qualitative_convergence_study,
)
from .fem import (
    ConvergenceFailure,
    FemSolution,
    SparseSystem,
    assemble,
    solve_cg,
)
from .geometry import (
    BiLipschitzMap,
    GraphDomain,
    SectorDomain,
    radial_shift_map,
)
from .meshing import TriMesh, mesh_graph_domain, mesh_sector, refine_uniform

__version__ = "0.1.0"

__all__ = [
    "BiLipschitzMap",
    "BoundCheck",
    "CoefficientField",
    "ConvergenceFailure",
    "DivergentNormError",
    "EllipticityBounds",
    "FemSolution",
    "GraphDomain",
    "HypothesisViolation",
    "RateFit",
    "SectorDomain",
    "SeparableSolution",
    "SourceTerm",
    "SparseSystem",
    "TriMesh",
    "annulus_solution",
    "assemble",
    "coefficient_rate_study",
    "composition_inequality_check",
    "cross_domain_gradient_error",
    "domain_rate_study",
    "fit_loglog",
    "h1_error_vs_analytic",
    "h1_seminorm_separable",
    "identity_field",
    "jump_solution",
    "limit_solution",
    "lp_distance",
    "lq_gradient_norm",
    "matrix_positive_part",
    "mesh_graph_domain",
    "mesh_sector",
    "pullback_energy_gap",
    "pullback_field",
    "q_star",
    "qualitative_convergence_study",
    "radial_jump_field",
    "radial_shift_map",
    "refine_uniform",
    "residual_check",
    "solve_cg",
]
