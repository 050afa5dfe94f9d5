"""Online energy scheduling with battery storage and deferrable loads.

Drift-plus-penalty control of a grid-connected microgrid: each slot the
controller schedules newly arrived flexible loads, sets battery charge and
discharge, and splits renewable supply, using only current prices and queue
backlogs. Companion oracles replay the same decisions against brute-force
grid searches and short-frame look-ahead optima to check the published
performance and feasibility guarantees.
"""

from .controller import (
    ControllerState,
    design_params,
    drift_bound_G,
    init_state,
)
from .model import (
    BatteryParams,
    ConfigurationError,
    CostModel,
    GridParams,
    InfeasibleSlot,
    ModelBundle,
    QuadraticCost,
    StateConsistencyError,
    Weights,
    validate_config,
)
from .oracle import CheckReport, CheckResult, Frame, GridSpec, SearchSpaceError
from .scenario import LoadTask, SlotInput, StageProfile, Trace, generate_trace, load_trace, save_trace
from .simulator import POLICIES, RunSummary, SlotRecord, run, run_policy

__version__ = "0.1.0"

__all__ = [
    "BatteryParams",
    "CheckReport",
    "CheckResult",
    "ConfigurationError",
    "ControllerState",
    "CostModel",
    "Frame",
    "GridParams",
    "GridSpec",
    "InfeasibleSlot",
    "LoadTask",
    "ModelBundle",
    "POLICIES",
    "QuadraticCost",
    "RunSummary",
    "SearchSpaceError",
    "SlotInput",
    "SlotRecord",
    "StageProfile",
    "StateConsistencyError",
    "Trace",
    "Weights",
    "design_params",
    "drift_bound_G",
    "generate_trace",
    "init_state",
    "load_trace",
    "run",
    "run_policy",
    "save_trace",
    "validate_config",
]
