"""Pointwise bounds and solvers for -u'' + V u^q = f via Green potentials.

The package computes sharp pointwise bounds for positive solutions of
semilinear problems on an interval, solves the associated integral equation
by monotone iteration, cross-validates everything against an independent
finite-difference Newton oracle, and ships scenario generators for the
oscillatory, distance-power and power-profile model problems.
"""

from .domain import (Grid, GridFn, Interval, make_grid, read_gridfn_csv,
                     sample, write_gridfn_csv)
from .errors import (ConfigError, DegenerateSourceError, DivergingBracketError,
                     DomainError, GreenboundError, InfeasibleStartError,
                     InvalidGridError, InvalidHError, InvalidScenarioError,
                     InvalidSignError, NotIntegrableError, NotOrderedError,
                     PreconditionFailedError, ResolutionInsufficientError,
                     SolverFailureError, WindowTooSmallError)
from .green import (ImproperPotential, Kernel, PotentialResult,
                    improper_potential_at, iterated_kernel, potential,
                    potential_improper, power_product)
from .phi import PhiFamily, phi_derivs, phi_eval, phi_inverse
from .estimates import (BoundReport, Problem, thm1_bound, thm2_bound,
                        thm3_bound, thm4_conditions, unified_bound)
from .fixedpoint import (IterationTrace, scalar_recurrence, sharp_constants,
                         solve_integral_equation)
from .bvp import (NewtonReport, check_sub_super, fd_solve, gradient_1d,
                  lemma41_identity_check, laplacian_1d)
from .scenarios import (AsymptoticFit, Ex1CancellationReport,
                        Ex4SharpnessReport, ScenarioSpec, build_scenario,
                        ex1_functions, ex4_functions, fit_boundary_rate,
                        sharpness_report_ex4, verify_cancellation_ex1)

__version__ = "0.1.0"
