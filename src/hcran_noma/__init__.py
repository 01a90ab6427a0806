"""Energy-efficient power allocation and RRH selection for layered NOMA
cloud radio access networks: system model, fractional-programming solver with
a convex-approximation inner loop, a global branch-and-bound oracle,
an M/G/1 delay-to-rate transform, signalling-overhead estimates, and a
sweep harness whose output is identical for any number of worker
processes."""

from .model import (ChannelState, ConfigError, EnergyReport, FeasibilityReport,
                    NetworkConfig, PowerAllocation, Tolerances, UserSpec,
                    check_feasibility, derive_binaries, energy_efficiency,
                    sic_margin, sinr, total_power, user_rate, weighted_sum_rate)
from .traffic import (TrafficSpec, delay_roots, max_delay_from_queue,
                      min_rate_for_delay, validate_delay)
from .dinkelbach import (DinkelbachTrace, InfeasibleProblemError, InnerSolver,
                         solve, surplus)
from .scale import ScaleSolver, scale_coeffs
from .polyblock import PolyblockSolver
from .scenarios import Scenario, build_config, gen_channel, run_sweep
from .overhead import QuantizationTable, count_centralized, count_distributed

__all__ = [
    "ChannelState", "ConfigError", "EnergyReport", "FeasibilityReport",
    "NetworkConfig", "PowerAllocation", "Tolerances", "UserSpec",
    "check_feasibility", "derive_binaries", "energy_efficiency", "sic_margin",
    "sinr", "total_power", "user_rate", "weighted_sum_rate",
    "TrafficSpec", "delay_roots", "max_delay_from_queue", "min_rate_for_delay",
    "validate_delay",
    "DinkelbachTrace", "InfeasibleProblemError", "InnerSolver", "solve", "surplus",
    "ScaleSolver", "scale_coeffs",
    "PolyblockSolver",
    "Scenario", "build_config", "gen_channel", "run_sweep",
    "QuantizationTable", "count_centralized", "count_distributed",
]

__version__ = "0.1.0"
