"""Nested Galerkin solver and certification harness for Dirichlet problems
driven by competing power-law diffusion with convection."""

from .mesh import (Domain, MeshError, MeshLevel, QuadratureRule, build_mesh,
                   gauss2_rule, quadrature_for, refine, triangle_rule_degree4)
from .fespace import (FeFunction, FeSpace, cell_gradients, grad_norm_lp,
                      jsonable, lr_norm, prolongate, read_csv, sup_norm,
                      values_at_qp, write_csv)
from .operators import (AssemblyError, ConvectionFamily, GrowthH2, GrowthH4,
                        HypothesisViolation, Problem, ProblemOperator, SignH3,
                        SignH3a, WeightFunction, adversarial_convection,
                        constant_convection, constant_weight,
                        quadratic_weight, saturating_convection,
                        truncate_weight, zero_convection)
from .estimates import (CONVENTIONS, ConstantEstimate, EstimateReport,
                        HypothesisAudit, SamplingBox, apriori_radius,
                        audit_hypotheses, coercivity_polynomial,
                        compute_estimates, estimate_lambda1,
                        lambda1_interval, poincare_factor,
                        rhs_estimate_constant, sobolev_constant)
from .galerkin import (GuardRecord, HierarchyReport, LevelSolve, SolveError,
                       SolverConfig, brouwer_guard, run_hierarchy, solve_level)
from .verify import (Certificate, SProbe, check_generalized_conditions,
                     check_monotonicity_inequalities, check_strong_condition,
                     check_truncation_consistency, condition_S_probe,
                     run_certificates, weak_implies_generalized_demo)

__version__ = "0.1.0"
