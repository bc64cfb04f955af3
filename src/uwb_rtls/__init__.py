"""UWB time-difference-of-arrival real-time localization.

Simulates an anchor/tag radio network with imperfect clocks, synchronizes
the resulting timestamps in software, solves tag positions, and audits
anchor deployments.
"""

from .clock import ClockModel, read_clock, ts_diff
from .config import ConfigError, ScenarioConfig, load_config
from .engine import EngineParams, LocateResult, locate_reports
from .metrics import EvalSummary, evaluate
from .protocol import ReportColumns
from .simnet import Scenario, SimResult, TagSpec, run_scenario
from .solver import BlinkRows, FixTable, TrackerConfig, ls_solve, track
from .timebase import select_time_base
from .topology import AnchorConfig, NetworkTopology
from .wcs import ArrivalTable, multi_master_sync

__version__ = "0.1.0"

__all__ = [
    "AnchorConfig",
    "ArrivalTable",
    "BlinkRows",
    "ClockModel",
    "ConfigError",
    "EngineParams",
    "EvalSummary",
    "FixTable",
    "LocateResult",
    "NetworkTopology",
    "ReportColumns",
    "Scenario",
    "ScenarioConfig",
    "SimResult",
    "TagSpec",
    "TrackerConfig",
    "evaluate",
    "load_config",
    "locate_reports",
    "ls_solve",
    "multi_master_sync",
    "read_clock",
    "run_scenario",
    "select_time_base",
    "track",
    "ts_diff",
    "__version__",
]
