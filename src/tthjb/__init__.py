"""Tensor-train solver for stationary HJB equations with a benchmark CLI."""

from .amen import amen_solve_shifted
from .assembly import ControlPenalty, GalerkinSystem
from .basis import SpectralBasis, build_basis
from .cross import tt_cross
from .models import MODELS, ControlledDynamics, solve_riccati
from .policy import (
    NotStabilizable,
    PolicyDivergence,
    SolverConfig,
    ValueFunction,
    feedback,
    policy_iterate,
)
from .rollout import Trajectory, compare, rollout
from .tt import Accuracy, TTMatrix, TTTensor, load_tt, save_tt, tt_round

__version__ = "0.1.0"

__all__ = [
    "Accuracy",
    "ControlPenalty",
    "ControlledDynamics",
    "GalerkinSystem",
    "MODELS",
    "NotStabilizable",
    "PolicyDivergence",
    "SolverConfig",
    "SpectralBasis",
    "TTMatrix",
    "TTTensor",
    "Trajectory",
    "ValueFunction",
    "amen_solve_shifted",
    "build_basis",
    "compare",
    "feedback",
    "load_tt",
    "policy_iterate",
    "rollout",
    "save_tt",
    "solve_riccati",
    "tt_cross",
    "tt_round",
    "__version__",
]
