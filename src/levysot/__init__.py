"""Numerical diagnostics for Levy-triplet families and 1-d semimartingale
optimal transport.

Modules:
    measures    Levy measures (atoms + density pieces) and quadrature
    triplets    triplets, exponents, parametric families
    limits      triplet sequences, limit identification, closedness probes
    montecarlo  path simulation, marginal laws and distributional validation
    transport   primal/dual transport solvers and duality reports
    serialize   JSON document (de)serialization
    cli         command-line entry points
"""

from .measures import DensityPiece, MeasureStack, QuadratureError
from .triplets import ThetaFamily, TripletStack, levy_exponent, modified_triplet
from .limits import TripletSequence, closedness_probe, exponent_limit_profile
from .montecarlo import Marginal, SimulationConfig, simulate_paths
from .transport import (
    CostFunction,
    DualAscentConfig,
    HJBGridConfig,
    TransportInstance,
    duality_report,
)

__version__ = "0.1.0"

__all__ = [
    "DensityPiece",
    "MeasureStack",
    "QuadratureError",
    "TripletStack",
    "ThetaFamily",
    "levy_exponent",
    "modified_triplet",
    "TripletSequence",
    "closedness_probe",
    "exponent_limit_profile",
    "SimulationConfig",
    "simulate_paths",
    "CostFunction",
    "DualAscentConfig",
    "HJBGridConfig",
    "Marginal",
    "TransportInstance",
    "duality_report",
    "__version__",
]
