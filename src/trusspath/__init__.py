"""Planning toolkit for robotic spatial extrusion of trusses.

The package turns a truss model plus a robot description into a full
build recipe: a structurally safe element ordering, collision-free
extrusion trajectories along each element, retraction moves that pull
the hot end clear of fresh material, and free-space transitions that
stitch everything together.  An independent validator re-derives every
guarantee from the finished plan file alone.

Typical use:

    from trusspath import load_bundled_model, load_bundled_robot, run_pipeline

    model = load_bundled_model("cube")
    robot = load_bundled_robot("arm")
    plan, report = run_pipeline(model, robot)
"""

from .cartesian import CartesianPlanningError, MemoryBudgetError
from .config import PlannerConfig, PlannerConfigError, TransitionSettings, load_config
from .fixtures import load_bundled_model, load_bundled_robot
from .kinematics import RobotConfigError, fk_frames, load_robot
from .pipeline import PipelineError, run_pipeline, validate_plan
from .postprocess import PlanFormatError, load_plan, plan_to_dict, save_plan
from .sequence import SequenceFormatError, SequencePlanningError, plan_sequence
from .transition import TransitionPlanningError
from .truss import ModelError, load_model

__version__ = "0.1.0"

__all__ = [
    "CartesianPlanningError",
    "MemoryBudgetError",
    "ModelError",
    "PipelineError",
    "PlanFormatError",
    "PlannerConfig",
    "PlannerConfigError",
    "RobotConfigError",
    "SequenceFormatError",
    "SequencePlanningError",
    "TransitionPlanningError",
    "TransitionSettings",
    "fk_frames",
    "load_bundled_model",
    "load_bundled_robot",
    "load_config",
    "load_model",
    "load_plan",
    "load_robot",
    "plan_sequence",
    "plan_to_dict",
    "run_pipeline",
    "save_plan",
    "validate_plan",
]
