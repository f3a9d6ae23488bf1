"""Pattern formation for anonymous oblivious robots on the infinite grid."""

from .algorithm import StepPlan, plan_moves
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
    "Outcome",
    "Point",
    "Rect",
    "StepPlan",
    "TargetPattern",
    "bounding_rect",
    "brute_force_symmetries",
    "canonical_frames",
    "canonicalize_target",
    "classify_phase",
    "corner_strings",
    "evaluate_conditions",
    "head_tail",
    "is_asymmetric",
    "make_adversary",
    "plan_moves",
    "run",
    "similar",
    "to_frame_coords",
]
