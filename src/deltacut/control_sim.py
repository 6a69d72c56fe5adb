"""Deterministic tick-level execution of a setpoint stream under a watchdog.

One logical tick per stream sample.  Every supervised process is expected to
pulse every pulse_period ticks; a fault script suppresses pulses over closed
tick intervals.  The watchdog measures lateness from the first missed
expected pulse and trips on the first tick strictly later than that pulse's
tick plus the timeout.  Worked out for period 1, timeout 4, pulses suppressed
from tick 20: the last pulse lands at tick 19, the first missed one was due
at tick 20, and the trip fires at tick 25.

Severity decides the corrective action:

  critical  -> laser off and motion hold on the trip tick; run aborted.
  degraded  -> laser off on the trip tick; motion coasts to the end of the
               current laser-on run of samples, then holds.
  advisory  -> warning event only; run continues.

Gaps no longer than the timeout produce no events at all.  A received pulse
clears a process's tripped state, so a later gap can trip again.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import UnknownProcess, read_json
from .trajectory import SetpointStream

SEVERITIES = ("critical", "degraded", "advisory")
_BUILTIN_PROCESSES = ("motion", "laser", "logging")
_DEFAULT_SEVERITY = {"motion": "critical", "laser": "degraded", "logging": "advisory"}

EVENT_KINDS = (
    "pulse_missed", "watchdog_trip", "corrective_action",
    "laser_off", "motion_hold", "run_complete",
)


@dataclass(frozen=True, slots=True)
class ProcessSpec:
    """A supervised process and the severity of losing it."""

    name: str
    severity: str

    def __post_init__(self):
        if not (isinstance(self.name, str) and self.name):
            raise ValueError("process name must be a non-empty string")
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )


def default_processes() -> tuple[ProcessSpec, ...]:
    return tuple(ProcessSpec(n, _DEFAULT_SEVERITY[n]) for n in _BUILTIN_PROCESSES)


@dataclass(frozen=True, slots=True)
class WatchdogConfig:
    """Pulse schedule, trip timeout and the supervised process table."""

    pulse_period: int = 1
    timeout: int = 4
    processes: tuple[ProcessSpec, ...] = field(default_factory=default_processes)

    def __post_init__(self):
        period = self.pulse_period
        timeout = self.timeout
        if not (isinstance(period, int) and not isinstance(period, bool) and period >= 1):
            raise ValueError(f"pulse_period must be an integer >= 1, got {period!r}")
        if not (isinstance(timeout, int) and not isinstance(timeout, bool) and timeout >= period):
            raise ValueError(
                f"timeout must be an integer >= pulse_period ({period}), got {timeout!r}"
            )
        procs = tuple(self.processes)
        for p in procs:
            if not isinstance(p, ProcessSpec):
                raise ValueError("processes must be ProcessSpec instances")
        names = [p.name for p in procs]
        if len(set(names)) != len(names):
            raise ValueError("process names must be unique")
        missing = [n for n in _BUILTIN_PROCESSES if n not in names]
        if missing:
            raise ValueError(f"built-in processes missing from config: {missing}")
        object.__setattr__(self, "processes", procs)

    def to_dict(self) -> dict:
        return {
            "pulse_period": self.pulse_period,
            "timeout": self.timeout,
            "processes": [
                {"name": p.name, "severity": p.severity} for p in self.processes
            ],
        }


@dataclass(frozen=True, slots=True)
class FaultWindow:
    """Closed tick interval during which one process's pulses are suppressed."""

    process_name: str
    start_tick: int
    end_tick: int

    def __post_init__(self):
        if not (isinstance(self.process_name, str) and self.process_name):
            raise ValueError("process_name must be a non-empty string")
        s, e = self.start_tick, self.end_tick
        for label, v in (("start_tick", s), ("end_tick", e)):
            if not (isinstance(v, int) and not isinstance(v, bool) and v >= 0):
                raise ValueError(f"{label} must be a non-negative integer, got {v!r}")
        if e < s:
            raise ValueError(f"end_tick {e} precedes start_tick {s}")

    def covers(self, tick: int) -> bool:
        return self.start_tick <= tick <= self.end_tick


@dataclass(frozen=True, slots=True)
class FaultScript:
    """All pulse suppressions for one run; empty means a nominal run."""

    windows: tuple[FaultWindow, ...] = ()

    def __post_init__(self):
        windows = tuple(self.windows)
        for w in windows:
            if not isinstance(w, FaultWindow):
                raise ValueError("windows must be FaultWindow instances")
        object.__setattr__(self, "windows", windows)

    def to_dict(self) -> dict:
        return {
            "windows": [
                {
                    "process_name": w.process_name,
                    "start_tick": w.start_tick,
                    "end_tick": w.end_tick,
                }
                for w in self.windows
            ]
        }


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One audit-log line."""

    tick: int
    kind: str
    process_name: str = ""
    detail: str = ""

    def __post_init__(self):
        if not (isinstance(self.tick, int) and not isinstance(self.tick, bool) and self.tick >= 0):
            raise ValueError(f"tick must be a non-negative integer, got {self.tick!r}")
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")
        for label, text in (("process_name", self.process_name), ("detail", self.detail)):
            if "\t" in text or "\n" in text:
                raise ValueError(f"{label} must not contain tabs or newlines")

    def to_line(self) -> str:
        return f"{self.tick}\t{self.kind}\t{self.process_name}\t{self.detail}"


@dataclass(frozen=True, slots=True)
class SimulationResult:
    """Trace plus the machine state when the run stopped."""

    status: str  # complete | aborted | held
    final_tick: int
    final_pose: tuple[float, float, float]
    failed_processes: tuple[str, ...]
    trace: tuple[TraceEvent, ...]


class _ProcState:
    __slots__ = ("spec", "last_pulse", "tripped")

    def __init__(self, spec: ProcessSpec, period: int):
        self.spec = spec
        # Virtual pulse one period before tick 0: first expected pulse is at 0.
        self.last_pulse = -period
        self.tripped = False


def simulate(
    stream: SetpointStream,
    config: WatchdogConfig | None = None,
    faults: FaultScript | None = None,
) -> SimulationResult:
    """Run the stream tick by tick under watchdog supervision."""
    cfg = config if config is not None else WatchdogConfig()
    script = faults if faults is not None else FaultScript()

    known = {p.name for p in cfg.processes}
    for w in script.windows:
        if w.process_name not in known:
            raise UnknownProcess(
                f"fault script names unconfigured process {w.process_name!r}"
            )
    windows_by_proc: dict[str, list[FaultWindow]] = {name: [] for name in known}
    for w in script.windows:
        windows_by_proc[w.process_name].append(w)

    period = cfg.pulse_period
    timeout = cfg.timeout
    states = [_ProcState(p, period) for p in cfg.processes]
    laser_flags = stream.laser
    n_ticks = len(stream)

    trace: list[TraceEvent] = []
    failed: list[str] = []
    coast_hold_tick: int | None = None
    status = "complete"
    final_tick = n_ticks - 1

    for tick in range(n_ticks):
        # Pulses land before the lateness check on the same tick.
        if tick % period == 0:
            for st in states:
                if not any(w.covers(tick) for w in windows_by_proc[st.spec.name]):
                    st.last_pulse = tick
                    st.tripped = False

        stopping = False
        for st in states:
            if st.tripped:
                continue
            expected = st.last_pulse + period
            late = tick - expected
            if late <= timeout:
                continue
            st.tripped = True
            name = st.spec.name
            if name not in failed:
                failed.append(name)
            trace.append(TraceEvent(
                tick, "pulse_missed", name,
                f"missed pulse expected at tick {expected}",
            ))
            trace.append(TraceEvent(
                tick, "watchdog_trip", name,
                f"{late} ticks past expected pulse exceeds timeout {timeout}",
            ))
            severity = st.spec.severity
            if severity == "critical":
                trace.append(TraceEvent(
                    tick, "corrective_action", name,
                    "critical failure: disabling laser and holding motion",
                ))
                trace.append(TraceEvent(tick, "laser_off", name, "laser disabled"))
                trace.append(TraceEvent(
                    tick, "motion_hold", name, "motion held at current setpoint",
                ))
                status = "aborted"
                final_tick = tick
                stopping = True
                break
            if severity == "degraded":
                trace.append(TraceEvent(
                    tick, "corrective_action", name,
                    "degraded failure: disabling laser, finishing current cut",
                ))
                trace.append(TraceEvent(tick, "laser_off", name, "laser disabled"))
                if coast_hold_tick is None:
                    coast_hold_tick = _laser_run_end(laser_flags, tick)
            else:
                trace.append(TraceEvent(
                    tick, "corrective_action", name,
                    "advisory failure: warning logged, run continues",
                ))
        if stopping:
            break

        if coast_hold_tick is not None and tick >= coast_hold_tick:
            trace.append(TraceEvent(
                tick, "motion_hold", "", "motion held at end of current cut",
            ))
            status = "held"
            final_tick = tick
            break
    else:
        trace.append(TraceEvent(
            n_ticks - 1, "run_complete", "", f"{n_ticks} samples executed",
        ))

    pose = stream.poses[final_tick]
    return SimulationResult(
        status=status,
        final_tick=final_tick,
        final_pose=(float(pose[0]), float(pose[1]), float(pose[2])),
        failed_processes=tuple(failed),
        trace=tuple(trace),
    )


def _laser_run_end(laser_flags, tick: int) -> int:
    """Last index of the laser-on run covering tick; tick itself if laser is off."""
    n = laser_flags.shape[0]
    if not bool(laser_flags[tick]):
        return tick
    end = tick
    while end + 1 < n and bool(laser_flags[end + 1]):
        end += 1
    return end


def replay_check(
    trace: tuple[TraceEvent, ...] | list[TraceEvent],
    stream: SetpointStream,
    config: WatchdogConfig | None = None,
    faults: FaultScript | None = None,
) -> bool:
    """True iff a fresh run reproduces the trace byte for byte."""
    fresh = simulate(stream, config, faults)
    return format_trace(fresh.trace) == format_trace(tuple(trace))


def format_trace(trace) -> str:
    """Serialize events one per line, LF endings, trailing newline."""
    return "".join(ev.to_line() + "\n" for ev in trace)


def write_trace(trace, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_trace(trace))


def read_trace(path: str | Path) -> tuple[TraceEvent, ...]:
    events = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ValueError(f"trace file {path}: line {ln} has {len(parts)} fields")
            try:
                tick = int(parts[0])
            except ValueError as exc:
                raise ValueError(f"trace file {path}: line {ln}: bad tick") from exc
            events.append(TraceEvent(tick, parts[1], parts[2], parts[3]))
    return tuple(events)


def load_watchdog_config(path: str | Path) -> WatchdogConfig:
    raw = read_json(path, "watchdog config", expect_object=True)
    known = {"pulse_period", "timeout", "processes"}
    extra = set(raw) - known
    if extra:
        raise ValueError(f"watchdog config {path}: unknown keys {sorted(extra)}")
    kwargs = {}
    if "pulse_period" in raw:
        kwargs["pulse_period"] = _as_count(raw["pulse_period"], "pulse_period")
    if "timeout" in raw:
        kwargs["timeout"] = _as_count(raw["timeout"], "timeout")
    if "processes" in raw:
        if not isinstance(raw["processes"], list):
            raise ValueError(
                f"watchdog config {path}: processes must be a list, got {raw['processes']!r}"
            )
        procs = []
        for rp in raw["processes"]:
            if not (isinstance(rp, dict) and set(rp) == {"name", "severity"}):
                raise ValueError(
                    f"watchdog config {path}: each process needs exactly name and severity"
                )
            procs.append(ProcessSpec(rp["name"], rp["severity"]))
        kwargs["processes"] = tuple(procs)
    return WatchdogConfig(**kwargs)


def save_watchdog_config(config: WatchdogConfig, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_fault_script(path: str | Path) -> FaultScript:
    raw = read_json(path, "fault script")
    if isinstance(raw, dict):
        raw = raw.get("windows", raw)
    if not isinstance(raw, list):
        raise ValueError(f"fault script {path}: expected a JSON list of windows")
    windows = []
    for i, rw in enumerate(raw):
        if not (isinstance(rw, dict) and set(rw) == {"process_name", "start_tick", "end_tick"}):
            raise ValueError(
                f"fault script {path}: window {i} needs exactly "
                "process_name, start_tick, end_tick"
            )
        windows.append(FaultWindow(
            rw["process_name"],
            _as_count(rw["start_tick"], "start_tick"),
            _as_count(rw["end_tick"], "end_tick"),
        ))
    return FaultScript(tuple(windows))


def save_fault_script(script: FaultScript, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(script.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _as_count(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if isinstance(value, float):
        if not (math.isfinite(value) and value == int(value)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    return value
