"""Command-line front end.

Exit codes: 0 success, 1 domain failure (unreachable pose, no assembly,
aborted or held run), 2 usage or file-format error.  Results go to stdout at
17 significant digits; progress and effective-configuration echoes go to
stderr so output files and pipes stay clean.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import os
import sys
import time
from contextlib import contextmanager

from . import control_sim, design_opt, trajectory, workspace
from .errors import DomainError, write_json
from .geometry import JointAngles, Pose, load_geometry
from .kinematics import forward_kinematics, inverse_kinematics


def _keep_heap() -> None:
    """Keep freed kernel temporaries resident (README "Command line"); a
    no-op where the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 8 << 20)  # M_TRIM_THRESHOLD: above a coverage call's temporaries
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD: a 2 MB scan temporary stays on the heap


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _note(text: str) -> None:
    print(text, file=sys.stderr)


@contextmanager
def _claim(path):
    """Create --out before any work, so a path that cannot be written fails
    first; a file made here goes again if the command raises."""
    made = path is not None and not os.path.exists(path)
    if path is not None:
        open(path, "ab").close()
    try:
        yield
    except BaseException:
        if made:
            os.remove(path)
        raise


def _build_parser() -> argparse.ArgumentParser:
    limits = trajectory.MachineLimits()
    epilog = (
        "Units: lengths in mm, angles in rad, times in s. "
        f"Machine limit defaults: v_max {limits.v_max:g} mm/s, "
        f"a_max {limits.a_max:g} mm/s^2, tick {limits.tick:g} s."
    )
    parser = argparse.ArgumentParser(
        prog="deltacut",
        description="Delta robot kinematics, workspace sizing and cut planning.",
        epilog=epilog,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "ik", help="solve joint angles for a pose",
        description="Print theta1 theta2 theta3 (rad) for an effector pose (mm).",
        epilog=epilog,
    )
    p.add_argument("--geometry", required=True, help="geometry JSON file")
    p.add_argument("x", type=float, help="effector x (mm)")
    p.add_argument("y", type=float, help="effector y (mm)")
    p.add_argument("z", type=float, help="effector z (mm), negative below the base")
    p.set_defaults(func=_cmd_ik)

    p = sub.add_parser(
        "fk", help="solve the pose for joint angles",
        description="Print x y z (mm) for joint angles theta1 theta2 theta3 (rad).",
        epilog=epilog,
    )
    p.add_argument("--geometry", required=True, help="geometry JSON file")
    p.add_argument("theta1", type=float, help="arm 1 angle (rad)")
    p.add_argument("theta2", type=float, help="arm 2 angle (rad)")
    p.add_argument("theta3", type=float, help="arm 3 angle (rad)")
    p.set_defaults(func=_cmd_fk)

    p = sub.add_parser(
        "workspace", help="scan the reachable workspace onto a grid",
        description=(
            "Evaluate reachability on a cell-centre grid and write a text "
            "occupancy dump. Prints cells=, total=, volume= (mm^3) on stdout."
        ),
        epilog=epilog,
    )
    p.add_argument("--geometry", required=True, help="geometry JSON file")
    p.add_argument("--out", required=True, help="grid dump output file")
    p.add_argument("--resolution", type=float, default=10.0,
                   help="cubic cell edge in mm (default 10)")
    p.add_argument("--bounds", type=float, nargs=6, default=None,
                   metavar=("XMIN", "XMAX", "YMIN", "YMAX", "ZMIN", "ZMAX"),
                   help="scan box in mm (default: derived from the geometry)")
    p.add_argument("--prescribed", default=None,
                   help="optional points JSON; also prints coverage=")
    p.set_defaults(func=_cmd_workspace)

    p = sub.add_parser(
        "optimize", help="size the geometry for a prescribed workspace",
        description=(
            "Run the genetic algorithm against a prescribed point set and "
            "write the result JSON. Same inputs give a byte-identical file."
        ),
        epilog=epilog,
    )
    p.add_argument("--bounds", required=True, help="gene bounds JSON file")
    p.add_argument("--prescribed", required=True, help="prescribed points JSON file")
    p.add_argument("--config", default=None, help="GA config JSON (default: built-ins)")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed (u64)")
    p.add_argument("--out", required=True, help="result JSON output file")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser(
        "plan", help="plan a cut program into a setpoint stream",
        description=(
            "Sample a cut program on the controller tick and write the "
            "t,x,y,z,theta1,theta2,theta3,laser CSV."
        ),
        epilog=epilog,
    )
    p.add_argument("--geometry", required=True, help="geometry JSON file")
    p.add_argument("--program", required=True, help="cut program JSON file")
    p.add_argument("--out", required=True, help="stream CSV output file")
    p.add_argument("--v-max", type=float, default=limits.v_max,
                   help="speed limit in mm/s (default %(default)g)")
    p.add_argument("--a-max", type=float, default=limits.a_max,
                   help="acceleration limit in mm/s^2 (default %(default)g)")
    p.add_argument("--tick", type=float, default=limits.tick,
                   help="control period in s (default %(default)g)")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser(
        "simulate", help="execute a stream under watchdog supervision",
        description=(
            "Run a setpoint stream tick by tick with pulse monitoring and "
            "write the event trace. Exits 0 only if the run completes."
        ),
        epilog=epilog,
    )
    p.add_argument("--stream", required=True, help="stream CSV file (plan output)")
    p.add_argument("--config", default=None,
                   help="watchdog config JSON (default: period 1, timeout 4, "
                        "processes motion/laser/logging)")
    p.add_argument("--faults", default=None, help="fault script JSON (default: none)")
    p.add_argument("--out", required=True, help="trace output file")
    p.set_defaults(func=_cmd_simulate)

    return parser


def _cmd_ik(args) -> int:
    geometry = load_geometry(args.geometry)
    angles = inverse_kinematics(geometry, Pose(args.x, args.y, args.z))
    print(" ".join(_fmt(v) for v in angles.as_tuple()))
    return 0


def _cmd_fk(args) -> int:
    geometry = load_geometry(args.geometry)
    pose = forward_kinematics(
        geometry, JointAngles(args.theta1, args.theta2, args.theta3)
    )
    print(" ".join(_fmt(v) for v in (pose.x, pose.y, pose.z)))
    return 0


def _cmd_workspace(args) -> int:
    geometry = load_geometry(args.geometry)
    points = None if args.prescribed is None else workspace.load_prescribed(args.prescribed)
    if args.bounds is None:
        spec = workspace.default_grid_spec(geometry, resolution=args.resolution)
    else:
        xmin, xmax, ymin, ymax, zmin, zmax = args.bounds
        spec = workspace.GridSpec(xmin, xmax, ymin, ymax, zmin, zmax, args.resolution)
    nx, ny, nz = spec.dims
    _note(f"scanning {nx}x{ny}x{nz} cells at {spec.resolution} mm")
    t0 = time.perf_counter()
    grid = workspace.compute_workspace(geometry, spec)
    _note(f"scan took {time.perf_counter() - t0:.3f} s")
    workspace.dump_grid(grid, args.out, geometry=geometry)
    _note(f"grid dump written to {args.out}")
    print(f"cells={grid.occupied_count}")
    print(f"total={nx * ny * nz}")
    print(f"volume={_fmt(workspace.volume_estimate(grid))}")
    if points is not None:
        print(f"coverage={_fmt(workspace.coverage(geometry, points))}")
    return 0


def _cmd_optimize(args) -> int:
    bounds = design_opt.load_bounds(args.bounds)
    prescribed = workspace.load_prescribed(args.prescribed)
    config = design_opt.GaConfig() if args.config is None \
        else design_opt.load_ga_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    _note(
        f"running GA: population {config.population_size}, "
        f"{config.generations} generations, seed {config.seed}"
    )
    t0 = time.perf_counter()
    result = design_opt.run_ga(bounds, prescribed, config)
    _note(f"GA took {time.perf_counter() - t0:.3f} s "
          f"({result.evaluations} evaluations)")
    write_json(result.to_dict(), args.out)
    _note(f"result written to {args.out}")
    print(f"best_fitness={_fmt(result.best_fitness)}")
    if result.best is not None:
        cov = workspace.coverage(result.best, prescribed)
        print(f"coverage={_fmt(cov)}")
        for key, value in result.best.to_dict().items():
            print(f"{key}={_fmt(value)}")
    return 0


def _cmd_plan(args) -> int:
    geometry = load_geometry(args.geometry)
    program = trajectory.load_program(args.program)
    limits = trajectory.MachineLimits(
        v_max=args.v_max, a_max=args.a_max, tick=args.tick
    )
    _note(f"limits: v_max={limits.v_max} mm/s, a_max={limits.a_max} mm/s^2, "
          f"tick={limits.tick} s")
    stream = trajectory.plan_program(geometry, program, limits)
    trajectory.write_stream_csv(stream, args.out)
    _note(f"stream written to {args.out}")
    print(f"samples={len(stream)}")
    print(f"t_end={_fmt(stream.t[-1])}")
    return 0


def _cmd_simulate(args) -> int:
    stream = trajectory.read_stream_csv(args.stream)
    config = control_sim.WatchdogConfig() if args.config is None \
        else control_sim.load_watchdog_config(args.config)
    faults = control_sim.FaultScript() if args.faults is None \
        else control_sim.load_fault_script(args.faults)
    result = control_sim.simulate(stream, config, faults)
    control_sim.write_trace(result.trace, args.out)
    _note(f"trace written to {args.out}")
    print(f"status={result.status}")
    print(f"final_tick={result.final_tick}")
    print("final_pose=" + " ".join(_fmt(v) for v in result.final_pose))
    if result.failed_processes:
        print("failed=" + ",".join(result.failed_processes))
    return 0 if result.status == "complete" else 1


def app(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _keep_heap()
    try:
        with _claim(getattr(args, "out", None)):
            return args.func(args)
    except DomainError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(app())
