"""Watchdog supervision of a setpoint stream, computed from the pulse schedule.

One logical tick per stream sample.  Every supervised process is expected to
pulse every pulse_period ticks; a fault script suppresses pulses over closed
tick intervals.  After each delivered pulse p, with a virtual pulse at
-pulse_period so that the first expected pulse is at tick 0, the process
trips on the first tick strictly later than its next expected pulse plus the
timeout:

  trip = p + pulse_period + timeout + 1

unless another pulse is delivered first (a pulse on the trip tick itself
lands first and prevents the trip) or the stream ends first.  Worked out for
period 1, timeout 4, pulses suppressed from tick 20: the last pulse lands at
tick 19, the first missed one was due at tick 20, and the trip fires at tick
25.  Gaps no longer than the timeout produce no events at all; a delivered
pulse clears a trip, so a later gap can trip again.

Severity decides the corrective action:

  critical  -> laser off and motion hold on the trip tick; run aborted.
  degraded  -> laser off on the trip tick; motion coasts to the end of the
               current laser-on run of samples, then holds.
  advisory  -> warning event only; run continues.

Trips apply in tick order and, on one tick, in the order of the config's
process table.  A critical trip ends the run at once, so processes after it
on its tick do not trip.  The first degraded trip fixes the hold tick; trips
on the hold tick are still logged, before its motion_hold event.
"""

from __future__ import annotations

import reprlib
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import UnknownProcess, as_count, as_list, fields, naming, read_json, write_json
from .trajectory import SetpointStream

SEVERITIES = ("critical", "degraded", "advisory")
_BUILTIN_PROCESSES = ("motion", "laser", "logging")
_DEFAULT_SEVERITY = {"motion": "critical", "laser": "degraded", "logging": "advisory"}

_ACTIONS = {
    "critical": "critical failure: disabling laser and holding motion",
    "degraded": "degraded failure: disabling laser, finishing current cut",
    "advisory": "advisory failure: warning logged, run continues",
}

EVENT_KINDS = (
    "pulse_missed", "watchdog_trip", "corrective_action",
    "laser_off", "motion_hold", "run_complete",
)


def _trace_text(name: str, text) -> str:
    """text, once it is a string that fits in one field of a trace line:
    no tab, LF or CR."""
    if not isinstance(text, str) or any(c in text for c in "\t\n\r"):
        raise ValueError(f"{name} must be a string without tabs or line breaks, "
                         f"got {reprlib.repr(text)}")
    return text


@dataclass(frozen=True, slots=True)
class ProcessSpec:
    """A supervised process and the severity of losing it."""

    name: str
    severity: str

    def __post_init__(self):
        if not _trace_text("process name", self.name):
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
        as_count("timeout", self.timeout, as_count("pulse_period", self.pulse_period, 1))
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
        return asdict(self)


@dataclass(frozen=True, slots=True)
class FaultWindow:
    """Closed tick interval during which one process's pulses are suppressed."""

    process_name: str
    start_tick: int
    end_tick: int

    def __post_init__(self):
        if not _trace_text("process_name", self.process_name):
            raise ValueError("process_name must be a non-empty string")
        s = as_count("start_tick", self.start_tick, 0)
        e = as_count("end_tick", self.end_tick, 0)
        if e < s:
            raise ValueError(f"end_tick {e} precedes start_tick {s}")


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
        return asdict(self)


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One audit-log line."""

    tick: int
    kind: str
    process_name: str = ""
    detail: str = ""

    def __post_init__(self):
        as_count("tick", self.tick, 0)
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")
        _trace_text("process_name", self.process_name)
        _trace_text("detail", self.detail)

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


def simulate(
    stream: SetpointStream,
    config: WatchdogConfig | None = None,
    faults: FaultScript | None = None,
) -> SimulationResult:
    """Run the stream under watchdog supervision: find every trip from the
    pulse schedule, then apply them in (tick, config order)."""
    cfg = config if config is not None else WatchdogConfig()
    script = faults if faults is not None else FaultScript()

    known = {p.name for p in cfg.processes}
    for w in script.windows:
        if w.process_name not in known:
            raise UnknownProcess(
                f"fault script names unconfigured process {w.process_name!r}"
            )

    period = cfg.pulse_period
    timeout = cfg.timeout
    lag = period + timeout + 1
    n_ticks = len(stream)
    trips = []
    for order, spec in enumerate(cfg.processes):
        delivered = np.zeros(n_ticks, dtype=bool)
        delivered[::period] = True
        for w in script.windows:
            if w.process_name == spec.name:
                delivered[w.start_tick:w.end_tick + 1] = False
        # A virtual pulse one period before tick 0 makes tick 0 the first
        # expected one.  A pulse trips lag ticks later unless the next one,
        # or the stream end, comes first; a pulse on the trip tick lands
        # first.  lag stays a Python int, as timeouts are unbounded.
        pulses = np.concatenate(([-period], np.flatnonzero(delivered)))
        late = np.diff(pulses, append=n_ticks) > lag
        trips += [(pulse + lag, order) for pulse in pulses[late].tolist()]
    trips.sort()

    trace: list[TraceEvent] = []
    failed: list[str] = []
    hold_tick: int | None = None
    for tick, order in trips:
        if hold_tick is not None and tick > hold_tick:
            break
        spec = cfg.processes[order]
        name = spec.name
        expected = tick - timeout - 1
        if name not in failed:
            failed.append(name)
        trace.append(TraceEvent(
            tick, "pulse_missed", name, f"missed pulse expected at tick {expected}",
        ))
        trace.append(TraceEvent(
            tick, "watchdog_trip", name,
            f"{timeout + 1} ticks past expected pulse exceeds timeout {timeout}",
        ))
        trace.append(TraceEvent(tick, "corrective_action", name, _ACTIONS[spec.severity]))
        if spec.severity == "advisory":
            continue
        trace.append(TraceEvent(tick, "laser_off", name, "laser disabled"))
        if spec.severity == "critical":
            trace.append(TraceEvent(
                tick, "motion_hold", name, "motion held at current setpoint",
            ))
            return _result(stream, "aborted", tick, failed, trace)
        if hold_tick is None:
            hold_tick = _laser_run_end(stream.laser, tick)

    if hold_tick is not None:
        trace.append(TraceEvent(
            hold_tick, "motion_hold", "", "motion held at end of current cut",
        ))
        return _result(stream, "held", hold_tick, failed, trace)
    trace.append(TraceEvent(
        n_ticks - 1, "run_complete", "", f"{n_ticks} samples executed",
    ))
    return _result(stream, "complete", n_ticks - 1, failed, trace)


def _result(stream, status: str, final_tick: int, failed, trace) -> SimulationResult:
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
    run = laser_flags[tick:]
    off = int(np.argmin(run))  # first laser-off sample, or 0 if there is none
    if run[off]:
        off = run.shape[0]
    return tick + max(off - 1, 0)


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
    with open(path, "r", encoding="utf-8", newline="") as fh, naming(f"trace file {path}"):
        for ln, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ValueError(f"line {ln} has {len(parts)} fields")
            with naming(f"line {ln}"):
                try:
                    tick = int(parts[0])
                except ValueError:
                    tick = None
                # Only the ticks to_line writes: no sign, padding, zeros or _.
                if str(tick) != parts[0]:
                    raise ValueError("bad tick")
                events.append(TraceEvent(tick, parts[1], parts[2], parts[3]))
    return tuple(events)


def load_watchdog_config(path: str | Path) -> WatchdogConfig:
    with read_json(path, "watchdog config") as raw:
        kwargs = dict(fields(raw, "top level", (), WatchdogConfig.__dataclass_fields__))
        if "processes" in raw:
            kwargs["processes"] = _load_each(raw["processes"], "processes", "process", ProcessSpec)
        return WatchdogConfig(**kwargs)


def save_watchdog_config(config: WatchdogConfig, path: str | Path) -> None:
    write_json(config.to_dict(), path)


def load_fault_script(path: str | Path) -> FaultScript:
    """Read a fault script: a list of windows, or {"windows": [...]}."""
    with read_json(path, "fault script") as raw:
        if isinstance(raw, dict):
            raw = fields(raw, "top level", ("windows",))["windows"]
        return FaultScript(_load_each(raw, "windows", "window", FaultWindow))


def _load_each(raw, name: str, noun: str, cls) -> tuple:
    """cls(**item) for each item of the list raw, an object holding exactly
    the fields of cls; errors name the item as "{noun} {index}"."""
    keys = cls.__dataclass_fields__
    items = []
    for i, item in enumerate(as_list(name, raw)):
        where = f"{noun} {i}"
        fields(item, where, keys)
        with naming(where):
            items.append(cls(**item))
    return tuple(items)


def save_fault_script(script: FaultScript, path: str | Path) -> None:
    write_json(script.to_dict(), path)
