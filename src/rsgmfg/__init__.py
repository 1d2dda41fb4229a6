"""Risk-sensitive LQG mean-field games on graphons.

Solvers for the coupled forward-backward equilibrium system (fixed-point
and spectral routes), closed-form exponentiated costs of the best-response
strategies, finite-population Monte Carlo simulation, and the near-Nash
convergence experiment.
"""

__version__ = "0.1.0"

from .core import (AssumptionReport, Coefficients, Grids, InitialLaw,
                   ProblemSpec, load_spec, spec_from_dict,
                   validate_assumptions)
from .errors import (AssumptionError, ConfigError, ConvergenceError,
                     DivergentCostError, IntegrationError, SimulationError)
from .gmfg import (ContractionReport, MeanFieldProblem, MeanFieldSolution,
                   MonotonicityReport, apply_xi, check_monotonicity,
                   consistency_residual, contraction_constant,
                   solve_fixed_point, solve_spectral)
from .graphon import (Graphon, SpectralDecomposition, StepWeights,
                      coupling_error_eps1, evaluate, graphon_from_config,
                      grid_matrix, sample_step, spectral_decompose)
from .control import AcpSolution, acp_solve, closed_form_cost
from .odesolve import (FundamentalMatrices, MatrixPath, fundamental_matrices,
                       march_tables, solve_p_ell_stack, solve_riccati_pi,
                       solve_riccati_pi_delta)
from .simulate import (ApproximationErrors, CostEstimate, NashGapReport,
                       NashGapRow, PopulationPaths, SimConfig,
                       approximation_errors, cost_from_exponents,
                       default_probe_agents, estimate_cost,
                       lambda_from_paths, limit_cost_exponents,
                       limit_ensemble, nash_gap_experiment,
                       population_cost_exponents, simulate_population)

__all__ = [name for name in dir() if not name.startswith("_")]
