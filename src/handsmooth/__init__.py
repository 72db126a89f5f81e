"""Offline refinement of articulated-hand trajectories.

Per-frame hand parameters (global orientation, wrist position, 15 joint
rotations, shared shape coefficients) are optimized jointly over a sequence
with AdamW under a composite objective: multi-view 2D reprojection error
plus temporal acceleration penalties. Gradients come from a small built-in
reverse-mode autodiff tape and are verifiable against finite differences.
"""

from .autodiff import ABS_SMOOTH_DELTA, Tape, Tensor, check_gradient, record_and_backprop
from .camera import (
    CameraRig,
    Extrinsics,
    Intrinsics,
    perturb_extrinsics,
    project,
    project_points_masked,
)
from .errors import (
    BehindCameraError,
    DegenerateObservationError,
    DivergedError,
    ModelFileError,
    SchemaError,
    SpecError,
)
from .formats import (
    SequenceFile,
    load_motion_spec,
    load_noise_spec,
    load_sequence,
    save_motion_spec,
    save_noise_spec,
    save_sequence,
)
from .hand_model import (
    DEFAULT_MODEL,
    NUM_ARTICULATED,
    NUM_JOINTS,
    NUM_SHAPE_PARAMS,
    HandSkeleton,
    bone_scales,
    load_skeleton,
)
from .metrics import (
    MetricReport,
    acceleration_error,
    evaluate,
    mpjpe,
    reprojection_px,
)
from .objective import (
    FRAME_PARAMS,
    MIN_FRAMES,
    REPROJECTION_NORMS,
    LossWeights,
    SequenceObservation,
    TrajectoryParams,
    acceleration_loss,
    loss_components,
    make_flat_objective,
    reprojection_loss,
    trajectory_joints,
)
from .smoother import (
    AdamWState,
    LossEntry,
    LossReport,
    SmootherConfig,
    adamw_step,
    cosine_lr,
    smooth,
)
from .synth import (
    MotionSpec,
    NoiseSpec,
    RigSpec,
    WristPath,
    corrupt_trajectory,
    generate_sequence,
    gradient_sweep,
    mirror_hand,
    mirror_skeleton,
    mirror_trajectory,
    random_problem,
    render_observations,
)

__version__ = "0.1.0"

__all__ = [
    "ABS_SMOOTH_DELTA",
    "AdamWState",
    "BehindCameraError",
    "CameraRig",
    "DEFAULT_MODEL",
    "DegenerateObservationError",
    "DivergedError",
    "Extrinsics",
    "FRAME_PARAMS",
    "HandSkeleton",
    "Intrinsics",
    "LossEntry",
    "LossReport",
    "LossWeights",
    "MetricReport",
    "MIN_FRAMES",
    "ModelFileError",
    "MotionSpec",
    "NoiseSpec",
    "NUM_ARTICULATED",
    "NUM_JOINTS",
    "NUM_SHAPE_PARAMS",
    "REPROJECTION_NORMS",
    "RigSpec",
    "SchemaError",
    "SequenceFile",
    "SequenceObservation",
    "SmootherConfig",
    "SpecError",
    "Tape",
    "Tensor",
    "TrajectoryParams",
    "WristPath",
    "acceleration_error",
    "acceleration_loss",
    "adamw_step",
    "bone_scales",
    "check_gradient",
    "corrupt_trajectory",
    "cosine_lr",
    "evaluate",
    "generate_sequence",
    "gradient_sweep",
    "load_motion_spec",
    "load_noise_spec",
    "load_sequence",
    "load_skeleton",
    "loss_components",
    "make_flat_objective",
    "mirror_hand",
    "mirror_skeleton",
    "mirror_trajectory",
    "mpjpe",
    "perturb_extrinsics",
    "project",
    "project_points_masked",
    "random_problem",
    "record_and_backprop",
    "render_observations",
    "reprojection_loss",
    "reprojection_px",
    "save_motion_spec",
    "save_noise_spec",
    "save_sequence",
    "smooth",
    "trajectory_joints",
]
