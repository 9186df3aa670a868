"""Command line front end.

Subcommands mirror the pipeline stages so each piece can be run and
inspected on its own:

  plan             full pipeline: sequence + trajectories + plan file
  sequence         element ordering only, written as JSON
  motion           trajectories for an existing sequence file
  validate         independent re-check of a plan file against its inputs
  stats            sequence search accounting, one table row per run
  export-geometry  model waypoints and robot collision shapes as JSON

`main` resolves the model, robot and configuration once and hands them to
the subcommand.  Input documents are read, and output documents written,
through `config.read_document` and `config.write_document`.

Exit codes: 0 success, 2 planning failed, 3 validation failed (including a
malformed plan file), 4 bad inputs or configuration (a missing or malformed
model, robot, config or sequence file, or an `--out` path that cannot be
written: a missing directory is caught before any planning starts, and a
failed write, such as a full disk, ends the run with one error line).  A
sequence search that aborts (`plan`, `sequence`, `stats`) first prints the
stats table of the work it did, its row labelled "(aborted)".
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .cartesian import CartesianPlanningError
from .config import (
    DocumentWriteError,
    PlannerConfig,
    PlannerConfigError,
    load_config,
    read_document,
    write_document,
)
from .fixtures import MODEL_FILES, ROBOT_FILES, resolve_model, resolve_robot
from .kinematics import RobotConfigError
from .pipeline import PipelineError, run_pipeline, validate_plan
from .postprocess import PlanFormatError, load_plan, save_plan
from .sequence import (
    SequenceFormatError,
    SequencePlanningError,
    plan_sequence,
    render_stats_table,
    sequence_from_dict,
    sequence_to_dict,
)
from .transition import TransitionPlanningError
from .truss import ModelError, discretize_element, serialize_model

EXIT_OK = 0
EXIT_PLANNING = 2
EXIT_VALIDATION = 3
EXIT_CONFIG = 4

_PLANNING_ERRORS = (
    SequencePlanningError,
    CartesianPlanningError,  # and its subclass MemoryBudgetError
    TransitionPlanningError,
    PipelineError,
)
_INPUT_ERRORS = (
    PlannerConfigError,
    ModelError,
    RobotConfigError,
    SequenceFormatError,
    DocumentWriteError,
    KeyError,
    FileNotFoundError,
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model",
        required=True,
        help=f"truss JSON path or bundled name ({', '.join(sorted(MODEL_FILES))})",
    )
    parser.add_argument(
        "--robot",
        required=True,
        help=f"robot JSON path or bundled name ({', '.join(sorted(ROBOT_FILES))})",
    )
    parser.add_argument("--config", help="planner configuration JSON")
    parser.add_argument("--seed", type=int, help="override the configured seed")
    parser.add_argument(
        "--timeout", type=float, help="override the sequence search timeout [s]"
    )
    parser.add_argument(
        "--no-decomposition",
        action="store_true",
        help="search the whole element set as one group",
    )
    parser.add_argument(
        "--collision-cost",
        action="store_true",
        help="order candidate elements by surviving peer directions",
    )


def _build_config(args: argparse.Namespace) -> PlannerConfig:
    cfg = load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.timeout is not None:
        overrides["search_timeout"] = args.timeout
    if args.no_decomposition:
        overrides["use_decomposition"] = False
    if args.collision_cost:
        overrides["collision_cost_ordering"] = True
    return cfg.replace(**overrides) if overrides else cfg


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trusspath",
        description="Plan robot extrusion of spatial trusses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="run the full pipeline and write a plan file")
    _add_common(p)
    p.add_argument("--out", default="plan.json", help="plan output path")

    p = sub.add_parser("sequence", help="plan the element ordering only")
    _add_common(p)
    p.add_argument("--out", default="sequence.json", help="sequence output path")

    p = sub.add_parser("motion", help="plan trajectories for a stored sequence")
    _add_common(p)
    p.add_argument(
        "--from-sequence", required=True, dest="from_sequence",
        help="sequence JSON produced by the sequence subcommand",
    )
    p.add_argument("--out", default="plan.json", help="plan output path")

    p = sub.add_parser("validate", help="re-check a plan against its inputs")
    _add_common(p)
    p.add_argument("--plan", required=True, help="plan JSON to validate")

    p = sub.add_parser("stats", help="print sequence search accounting")
    _add_common(p)

    p = sub.add_parser(
        "export-geometry", help="dump waypoints and collision shapes as JSON"
    )
    _add_common(p)
    p.add_argument("--out", default="geometry.json", help="geometry output path")
    return parser


def _label(config: PlannerConfig) -> str:
    """The stats table's row label for a search under `config`."""
    label = "layered" if config.use_decomposition else "flat"
    return label + "+coll-cost" if config.collision_cost_ordering else label


def _cmd_plan(args, model, robot, config) -> int:
    """`plan`, and `motion` with the sequence stored at `--from-sequence`."""
    sequence = None
    if args.command == "motion":
        doc = read_document(args.from_sequence, SequenceFormatError, "sequence")
        sequence = sequence_from_dict(doc)
    plan, report = run_pipeline(model, robot, config, sequence=sequence)
    save_plan(plan, args.out)
    print(report.table())
    print(f"plan written to {args.out}")
    return EXIT_OK


def _cmd_sequence(args, model, robot, config) -> int:
    """`sequence`, and `stats`, which writes no file."""
    result = plan_sequence(model, robot, config)
    print(render_stats_table([(_label(config), result.stats)]))
    if args.command == "sequence":
        write_document(sequence_to_dict(result), args.out)
        print(f"sequence written to {args.out}")
    return EXIT_OK


def _cmd_validate(args, model, robot, config) -> int:
    report = validate_plan(load_plan(args.plan), model, robot, config)
    print(report.table())
    if not report.passed:
        return EXIT_VALIDATION
    return EXIT_OK


def _cmd_export_geometry(args, model, robot, config) -> int:
    waypoints = {}
    for e in model.elements:
        pts = discretize_element(model, e.id, config.path_spacing)
        waypoints[str(e.id)] = [[float(v) for v in row] for row in pts]
    doc = {
        "model": serialize_model(model),
        "waypoints": waypoints,
        "robot": {
            "name": robot.name,
            "dof": robot.dof,
            "link_capsules": [
                {
                    "frame": lc.frame,
                    "a": [float(v) for v in lc.shape.a],
                    "b": [float(v) for v in lc.shape.b],
                    "radius": float(lc.shape.radius),
                }
                for lc in robot.link_capsules
            ],
            "ee_capsules": [
                {
                    "a": [float(v) for v in c.a],
                    "b": [float(v) for v in c.b],
                    "radius": float(c.radius),
                }
                for c in robot.ee.capsules
            ],
        },
    }
    write_document(doc, args.out)
    print(f"geometry written to {args.out}")
    return EXIT_OK


def _unwritable(out: str) -> str | None:
    """Why an output document cannot be written to `out`, or None."""
    path = Path(out)
    if not path.parent.is_dir():
        return f"output directory does not exist: {path.parent}"
    if path.is_dir():
        return f"output path is a directory: {path}"
    return None


# each subcommand gets the parsed arguments plus the model, robot and
# configuration that `main` resolved from them
_COMMANDS = {
    "plan": _cmd_plan,
    "sequence": _cmd_sequence,
    "motion": _cmd_plan,
    "validate": _cmd_validate,
    "stats": _cmd_sequence,
    "export-geometry": _cmd_export_geometry,
}


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    problem = _unwritable(args.out) if hasattr(args, "out") else None
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        model = resolve_model(args.model)
        robot = resolve_robot(args.robot)
        config = _build_config(args)
        return _COMMANDS[args.command](args, model, robot, config)
    except _PLANNING_ERRORS as exc:
        if isinstance(exc, SequencePlanningError) and exc.stats is not None:
            print(render_stats_table([(_label(config) + " (aborted)", exc.stats)]))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PLANNING
    except PlanFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
