"""Comparative statics for equality-constrained optimization via
compensated parameter-space derivatives.

The pipeline: define a problem (`ProblemModel`), solve its first-order
system (`solve_interior`), differentiate the solution (`sensitivity`),
build tangent directions (`geometry`), assemble semidefinite
comparative-statics matrices (`csm`), and verify the structural claims
(`diagnostics`).  `benchmarks` ships nine catalog economies with analytic
oracles; the `compstat` CLI drives everything end to end.
"""

from .csm import (CsmResult, build_omega, build_omega_a1, build_omega_a2,
                  build_omega_b, build_omega_quadratic, build_silberberg,
                  build_universal, from_matrix, spectral_relation,
                  transform_csm)
from .diagnostics import (CheckReport, check_envelope, check_hatta_reduction,
                          check_invariance, check_rank_bound, check_semidefinite)
from .geometry import (IsovectorSet, build_isovectors, gcd_apply,
                       prescribe_isovectors, verify_conformance)
from .model import Blocks, InvarianceGenerator, ProblemModel, augment_with_scale
from .sensitivity import (SensitivityBundle, decision_jacobian_fd,
                          decision_jacobian_ift)
from .solver import SolutionPoint, SolverConfig, newton_solve, solve_interior

__version__ = "0.1.0"

__all__ = [
    "ProblemModel", "Blocks", "InvarianceGenerator", "augment_with_scale",
    "SolutionPoint", "SolverConfig", "solve_interior", "newton_solve",
    "SensitivityBundle", "decision_jacobian_fd", "decision_jacobian_ift",
    "IsovectorSet", "build_isovectors", "prescribe_isovectors",
    "gcd_apply", "verify_conformance",
    "CsmResult", "build_omega", "build_omega_quadratic",
    "build_omega_a1", "build_omega_a2", "build_omega_b", "build_silberberg",
    "build_universal", "transform_csm", "spectral_relation", "from_matrix",
    "CheckReport", "check_envelope", "check_invariance", "check_semidefinite",
    "check_rank_bound", "check_hatta_reduction",
    "__version__",
]
