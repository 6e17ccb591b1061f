"""treesink: source-sink tree growth simulation with factorized architecture
and global parameter identification."""

from .core import (GrowthParameters, TargetDataset, TrunkScriptEntry,
                   ZoneRule, ZoneRuleSet, default_zone_rules,
                   validate_parameters, validate_target)
from .engine import SimulationOutput, extract_targets, simulate
from .oracle import simulate_naive
from .sourcesink import (CycleAllocation, allocate_shoots, partition_rings,
                         production, ring_demand, shoot_demand,
                         solve_global_demand)
from .topology import (axis_total, distribute_axes, metamer_count,
                       organogenesis_step)
from .calibration import (AnnealSchedule, FitResult, FitSpec, FitStage,
                          FreeParameter, Scorer, compute_intervals, fit_continuous,
                          fit_topology, objective)

__version__ = "0.1.0"

__all__ = [
    "AnnealSchedule", "CycleAllocation", "FitResult", "FitSpec", "FitStage",
    "FreeParameter", "GrowthParameters", "Scorer", "SimulationOutput",
    "TargetDataset", "TrunkScriptEntry", "ZoneRule", "ZoneRuleSet",
    "allocate_shoots",
    "axis_total", "compute_intervals", "default_zone_rules",
    "distribute_axes", "extract_targets", "fit_continuous", "fit_topology",
    "metamer_count", "objective", "organogenesis_step",
    "partition_rings", "production", "ring_demand", "shoot_demand",
    "simulate", "simulate_naive", "solve_global_demand",
    "validate_parameters", "validate_target",
]
