"""Monte Carlo engine for one-dimensional mean-field SDEs with irregular
drift: simulation by Picard iteration on law flows, change of measure by
Doleans-Dade exponentials, and derivative-free sensitivities through
local-time-space integrals."""

from .drift import (DriftSpec, RegularityReport, StepFunction,
                    check_regularity, constant_drift, convolution_drift,
                    eval_drift, expectation_drift, expectation_square_drift,
                    mean_field_ou, mollify, sign_drift, zero_drift)
from .girsanov import (EstimatorResult, doleans_weights, epsilon_moment_probe,
                       reweighted_expectation)
from .grid import (BLOCK_SIZE, PathEnsemble, SeedSpec, TimeGrid, make_grid,
                   sample_brownian)
from .localtime import (ChainIdentityReport, check_chain_identity,
                        drift_cumulants, first_variation,
                        local_time_integral, malliavin_derivative)
from .measures import (EmpiricalMeasure, MeasureFlow, dirac, flow_distance,
                       kantorovich)
from .numerics import ExponentOverflowError, guarded_exp, mean_and_se
from .sensitivity import (DeltaSession, MollifyStudy, Payoff, WeightFunctionA,
                          call_payoff, constant_payoff, default_bump,
                          front_loaded_weight, identity_payoff,
                          mollified_convergence_study, square_payoff,
                          uniform_weight)
from .solver import (BlowUpError, MomentReport, PicardConfig,
                     PicardConvergenceError, SolveResult,
                     direct_particle_solve, euler_under_flow,
                     moment_diagnostics, picard_solve)

__version__ = "0.1.0"

__all__ = [
    "BLOCK_SIZE", "BlowUpError", "ChainIdentityReport", "DeltaSession",
    "DriftSpec",
    "EmpiricalMeasure", "EstimatorResult", "ExponentOverflowError",
    "MeasureFlow",
    "MollifyStudy", "MomentReport", "PathEnsemble", "Payoff", "PicardConfig",
    "PicardConvergenceError", "RegularityReport", "SeedSpec", "SolveResult",
    "StepFunction", "TimeGrid", "WeightFunctionA",
    "call_payoff", "check_chain_identity", "check_regularity",
    "constant_drift", "constant_payoff", "convolution_drift", "default_bump",
    "dirac", "direct_particle_solve", "doleans_weights",
    "drift_cumulants",
    "epsilon_moment_probe", "eval_drift",
    "euler_under_flow", "expectation_drift", "expectation_square_drift",
    "first_variation", "flow_distance", "front_loaded_weight", "guarded_exp",
    "identity_payoff", "kantorovich",
    "local_time_integral", "make_grid",
    "malliavin_derivative", "mean_and_se",
    "mean_field_ou", "moment_diagnostics", "mollified_convergence_study",
    "mollify", "picard_solve", "reweighted_expectation",
    "sample_brownian", "sign_drift", "square_payoff", "uniform_weight",
    "zero_drift",
]
