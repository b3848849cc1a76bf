"""Panharmonic: screened-Poisson fields on planar domains.

The package solves lap(v) = mu^2 v with unit Dirichlet or mu-flux Neumann
data on polygons and discs, recovers boundary distance from the field
through -log(v)/mu, and evaluates the elementwise gradient bound
|grad v| <= mu v whose persistence across large mu is a convexity
certificate for the domain.
"""

from .geometry import (Disc, Domain, Point2, Polygon,
                       contains_point, disc_mean_distance,
                       distance_to_boundary, domain_from_dict, domain_to_dict,
                       dump_domain, is_convex_polygon, l_shape, load_domain,
                       regular_polygon, unit_disc, unit_square)
from .mesh import (Mesh, MeshBudgetError, MeshQuality, mesh_quality,
                   refine_uniform, save_mesh_text, triangulate)
from .solver import (ConvergenceError, GradientField, ResolutionWarning,
                     ScalarField, SpdSystem, gradient_field, save_field_text,
                     solve_dirichlet, solve_neumann, solve_spd_system)
from .special import (DiscSolution, bessel_i0, bessel_i1, disc_solution_eval,
                      halfplane_solution_eval, log_bessel_i0, log_bessel_i1)
from .analysis import (ConditionResult, ConvexityReport, DecayEnvelope,
                       NonpositiveFieldError, ProbeResult, VaradhanResult,
                       canonical_corner_probe, condition_margin,
                       convexity_sweep, decay_envelope_fit,
                       superharmonicity_probe, varadhan_error,
                       varadhan_estimate, write_margins_csv,
                       write_report_json)

__version__ = "0.1.0"

__all__ = [
    "Disc", "Domain", "Point2", "Polygon", "contains_point",
    "disc_mean_distance", "distance_to_boundary", "domain_from_dict",
    "domain_to_dict", "dump_domain", "is_convex_polygon", "l_shape",
    "load_domain", "regular_polygon", "unit_disc", "unit_square",
    "Mesh", "MeshBudgetError", "MeshQuality", "mesh_quality",
    "refine_uniform", "save_mesh_text", "triangulate",
    "ConvergenceError", "GradientField", "ResolutionWarning", "ScalarField",
    "SpdSystem", "gradient_field", "save_field_text", "solve_dirichlet",
    "solve_neumann", "solve_spd_system",
    "DiscSolution", "bessel_i0", "bessel_i1", "disc_solution_eval",
    "halfplane_solution_eval", "log_bessel_i0", "log_bessel_i1",
    "ConditionResult", "ConvexityReport", "DecayEnvelope",
    "NonpositiveFieldError", "ProbeResult", "VaradhanResult",
    "canonical_corner_probe", "condition_margin", "convexity_sweep",
    "decay_envelope_fit", "superharmonicity_probe", "varadhan_error",
    "varadhan_estimate", "write_margins_csv", "write_report_json",
    "__version__",
]
