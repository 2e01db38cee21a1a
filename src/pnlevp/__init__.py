"""Parametric nonlinear eigenvalue solver.

Finds all eigenvalues of T(lambda(p), p) v(p) = 0 inside a complex domain by
contour-integral sampling of the resolvent's pole part, bivariate barycentric
rational fitting in (z, p), and Loewner-pencil realization.  An expensive
offline phase samples and fits once; the online phase extracts eigenvalues
and eigenvectors at arbitrary parameter values cheaply.
"""

from .contour import (Disk, Ellipse, QuadratureRule, SamplingConfig,
                      build_trapezoid_rule, default_sampling, probe_samples,
                      scale_domain)
from .errors import (BranchCutError, EvaluationError, ModelFormatError,
                     PnlevpError, RankConsistencyError, RealizationError,
                     SingularMatrixError, UnsupportedProblemError)
from .loewner import (EigenRealization, TangentialData,
                      consistency_rank_check, realize)
from .paaa import BarycentricModel2D, paaa_fit
from .problems import (DampedStringProblem, DelayProblem, LinearDemoProblem,
                       PNlevpProblem, SyntheticRationalProblem, get_problem)
from .solver import (EigenSolution, OfflineModel, load_model, offline, online,
                     residuals, save_model, scalar_probe_eigenvalues)

__version__ = "0.1.0"

__all__ = [
    "BarycentricModel2D", "BranchCutError", "DampedStringProblem",
    "DelayProblem", "Disk", "EigenRealization", "EigenSolution", "Ellipse",
    "EvaluationError", "LinearDemoProblem", "ModelFormatError",
    "OfflineModel", "PNlevpProblem", "PnlevpError", "QuadratureRule",
    "RankConsistencyError", "RealizationError", "SamplingConfig",
    "SingularMatrixError", "SyntheticRationalProblem", "TangentialData",
    "UnsupportedProblemError", "build_trapezoid_rule",
    "consistency_rank_check", "default_sampling", "get_problem",
    "load_model", "offline", "online", "paaa_fit", "probe_samples",
    "realize", "residuals", "save_model", "scalar_probe_eigenvalues",
    "scale_domain",
]
