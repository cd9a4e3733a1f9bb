"""archsim: deterministic grid microsimulation of pedestrian egress.

Agents drain a long corridor through a centered exit while comparing
themselves to similar neighbors inside a 100-degree vision cone; the
package detects the arch-shaped clogs that form at the exit, measures
their onset time and axes, and sweeps crowd size against exit width to
quantify how those quantities scale.
"""

from .agent import Crowd
from .engine import SimConfig, StepRecord, initialize, run, step
from .errors import (
    ArchsimError,
    ConfigError,
    CrowdTooLargeError,
    DegenerateInputError,
    InvalidDimensionsError,
)
from .metrics import ArchMeasurement, clog_cluster, detect_arch_onset, measure_axes
from .analysis import RegressionFit, aggregate, ols_fit, trend_correlation
from .sweep import SweepConfig, derive_seed, run_sweep
from .world import Floor, WorldGrid, build_floor, nearest_exit_coordinate

__version__ = "0.1.0"

__all__ = [
    "ArchMeasurement",
    "ArchsimError",
    "ConfigError",
    "Crowd",
    "CrowdTooLargeError",
    "DegenerateInputError",
    "Floor",
    "InvalidDimensionsError",
    "RegressionFit",
    "SimConfig",
    "StepRecord",
    "SweepConfig",
    "WorldGrid",
    "aggregate",
    "build_floor",
    "clog_cluster",
    "derive_seed",
    "detect_arch_onset",
    "initialize",
    "measure_axes",
    "nearest_exit_coordinate",
    "ols_fit",
    "run",
    "run_sweep",
    "step",
    "trend_correlation",
    "__version__",
]
