"""Pattern formation for anonymous oblivious robots on the infinite grid."""

from .algorithm import (
    MoveDecision,
    PathInstance,
    Snapshot,
    StepPlan,
    compute,
    pf_on_path_step,
    plan_moves,
    snake_path,
)
from .canonical import (
    CornerString,
    brute_force_symmetries,
    canonical_frames,
    corner_strings,
    head_tail,
    is_asymmetric,
    to_frame_coords,
)
from .conditions import ConditionVector, classify_phase, evaluate_conditions
from .geometry import Isometry, Point, Rect, bounding_rect, similar
from .scheduler import Adversary, Event, Outcome, make_adversary, run
from .target import TargetPattern, canonicalize_target

__all__ = [
    "Adversary",
    "ConditionVector",
    "CornerString",
    "Event",
    "Isometry",
    "MoveDecision",
    "Outcome",
    "PathInstance",
    "Point",
    "Rect",
    "Snapshot",
    "StepPlan",
    "TargetPattern",
    "bounding_rect",
    "brute_force_symmetries",
    "canonical_frames",
    "canonicalize_target",
    "classify_phase",
    "compute",
    "corner_strings",
    "evaluate_conditions",
    "head_tail",
    "is_asymmetric",
    "make_adversary",
    "pf_on_path_step",
    "plan_moves",
    "run",
    "similar",
    "snake_path",
    "to_frame_coords",
]
