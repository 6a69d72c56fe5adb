"""Delta robot kinematics, workspace sizing, cut planning and supervision.

Coordinates: z points up, the base plane sits at z = 0 and the effector
works below it (z < 0).  Lengths are mm, angles rad, times s.
"""

from .errors import (
    CellBudgetExceeded,
    DomainError,
    EmptyProgram,
    InvalidFeed,
    InvalidStream,
    NoSolution,
    Singular,
    UnknownProcess,
    Unreachable,
    UnreachableSample,
)
from .geometry import (
    THETA_MAX,
    THETA_MIN,
    JointAngles,
    Pose,
    RobotGeometry,
    load_geometry,
    save_geometry,
)
from .kinematics import (
    forward_kinematics,
    inverse_kinematics,
    is_reachable,
)
from .workspace import (
    CELL_BUDGET,
    GridSpec,
    PrescribedWorkspace,
    WorkspaceGrid,
    compute_workspace,
    coverage,
    default_grid_spec,
    dump_grid,
    is_reachable_many,
    load_grid,
    load_prescribed,
    save_prescribed,
    volume_estimate,
)
from .design_opt import (
    DesignBounds,
    GaConfig,
    GaResult,
    candidate_fitness,
    load_bounds,
    load_ga_config,
    random_search,
    run_ga,
)
from .trajectory import (
    SAMPLE_BUDGET,
    ArcSegment,
    Contour,
    CutProgram,
    LineSegment,
    MachineLimits,
    SetpointStream,
    StreamReport,
    Violation,
    build_motions,
    load_program,
    plan_program,
    read_stream_csv,
    validate_stream,
    write_stream_csv,
)
from .control_sim import (
    FaultScript,
    FaultWindow,
    ProcessSpec,
    SimulationResult,
    TraceEvent,
    WatchdogConfig,
    default_processes,
    format_trace,
    load_fault_script,
    load_watchdog_config,
    read_trace,
    replay_check,
    save_fault_script,
    save_watchdog_config,
    simulate,
    write_trace,
)

__version__ = "0.1.0"

__all__ = [
    "ArcSegment", "CELL_BUDGET", "CellBudgetExceeded", "Contour", "CutProgram",
    "DesignBounds", "DomainError", "EmptyProgram", "FaultScript",
    "FaultWindow", "GaConfig", "GaResult", "GridSpec", "InvalidFeed",
    "InvalidStream", "JointAngles", "LineSegment", "MachineLimits",
    "NoSolution", "Pose", "PrescribedWorkspace", "ProcessSpec",
    "RobotGeometry", "SAMPLE_BUDGET", "SetpointStream", "SimulationResult",
    "Singular", "StreamReport", "THETA_MAX", "THETA_MIN", "TraceEvent",
    "UnknownProcess", "Unreachable", "UnreachableSample", "Violation",
    "WatchdogConfig", "WorkspaceGrid", "build_motions", "candidate_fitness",
    "compute_workspace", "coverage", "default_grid_spec", "default_processes",
    "dump_grid", "format_trace", "forward_kinematics", "inverse_kinematics",
    "is_reachable", "is_reachable_many", "load_bounds", "load_fault_script",
    "load_ga_config", "load_geometry", "load_grid", "load_prescribed",
    "load_program", "load_watchdog_config", "plan_program", "random_search",
    "read_stream_csv", "read_trace", "replay_check", "run_ga",
    "save_fault_script", "save_geometry", "save_prescribed",
    "save_watchdog_config", "simulate", "validate_stream", "volume_estimate",
    "write_stream_csv", "write_trace",
]
