"""Central impact of two identical coherent electrons, in atomic units."""

from .errors import (
    CoherentPairError,
    DegenerateState,
    MalformedTrajectory,
    NonConvergence,
    NonFinite,
    PreconditionViolated,
)
from .meanfield import EnergyBreakdown, PhaseState, avg_hamiltonian, initial_state
from .pairstate import ExchangeSymmetry, PairConfig, kinetic_energy, overlap

__all__ = [
    "CoherentPairError",
    "DegenerateState",
    "EnergyBreakdown",
    "ExchangeSymmetry",
    "MalformedTrajectory",
    "NonConvergence",
    "NonFinite",
    "PairConfig",
    "PhaseState",
    "PreconditionViolated",
    "avg_hamiltonian",
    "initial_state",
    "kinetic_energy",
    "overlap",
]

__version__ = "0.1.0"
