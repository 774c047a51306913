"""Simulation and numerical-analysis lab for a planar quadratic contact
process: stochastic lattice dynamics, their deterministic density
recursion, directional spreading speeds, and the triangular
vacant-region comparison process."""

__version__ = "0.1.0"

from .kernel import (DiscreteKernel, Kernel1D, KernelSpec, build_kernel,
                     discretize, marginal_1d)
from .mean_field import Equilibria, Params, equilibria, mean_field_trace
from .ide import Field2D, Profile1D, apply_Q_1d, apply_Q_2d, evolve
from .wavespeed import (PhiData, SpeedResult, build_phi, estimate_cstar,
                        front_speed_tracking, weinberger_step)
from .lattice import BoxStats, LatticeState, StepReport, box_stats, init, step
from .comparison import (ComparisonConfig, ContainmentReport, ErrorPoint,
                         RegionSet, VacantRegion, check_containment,
                         detect_errors, make_comparison_config)
from .rng import LatticeRng

__all__ = [
    "__version__",
    "KernelSpec", "DiscreteKernel", "Kernel1D", "build_kernel", "discretize",
    "marginal_1d",
    "Params", "Equilibria", "equilibria", "mean_field_trace",
    "Field2D", "Profile1D", "apply_Q_2d", "apply_Q_1d", "evolve",
    "SpeedResult", "PhiData", "weinberger_step",
    "estimate_cstar", "front_speed_tracking", "build_phi",
    "LatticeState", "BoxStats", "StepReport", "init", "step", "box_stats",
    "ComparisonConfig", "ErrorPoint", "VacantRegion", "RegionSet",
    "ContainmentReport", "make_comparison_config",
    "detect_errors", "check_containment",
    "LatticeRng",
]
