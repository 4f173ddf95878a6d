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
from .pairstate import ExchangeSymmetry, PairConfig, overlap
from .wavepacket import PacketParams, SpreadLaw, kinetic_energy, spreading_rate

__all__ = [
    "CoherentPairError",
    "DegenerateState",
    "EnergyBreakdown",
    "ExchangeSymmetry",
    "MalformedTrajectory",
    "NonConvergence",
    "NonFinite",
    "PacketParams",
    "PairConfig",
    "PhaseState",
    "PreconditionViolated",
    "SpreadLaw",
    "avg_hamiltonian",
    "initial_state",
    "kinetic_energy",
    "overlap",
    "spreading_rate",
]

__version__ = "0.1.0"
