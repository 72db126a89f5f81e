"""Trajectory quality metrics.

Positional error against ground truth, temporal acceleration magnitude, and
mean reprojection distance, reported in millimeters and pixels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateObservationError
from .hand_model import HandSkeleton
from .objective import (
    SequenceObservation,
    TrajectoryParams,
    _reprojection,
    trajectory_joints,
)

MM_PER_M = 1000.0


def _joint_errors_mm(pred_joints, gt_joints):
    """Per-joint position error in millimeters, shape (N, J)."""
    return np.linalg.norm(pred_joints - gt_joints, axis=-1) * MM_PER_M


def _frame_accels_mm(joints):
    """Per-frame mean norm of the joints' second difference in mm, shape (N - 2,)."""
    d2 = joints[2:] - 2.0 * joints[1:-1] + joints[:-2]
    return np.linalg.norm(d2, axis=-1).mean(axis=-1) * MM_PER_M


def mpjpe(pred_joints: np.ndarray, gt_joints: np.ndarray) -> float:
    """Mean per-joint position error in millimeters, no alignment.

    Both inputs are (N, 21, 3) world-space joint arrays in meters.
    """
    pred_joints = np.asarray(pred_joints, dtype=float)
    gt_joints = np.asarray(gt_joints, dtype=float)
    if pred_joints.shape != gt_joints.shape or pred_joints.ndim != 3:
        raise ValueError("joint arrays must have matching (N, J, 3) shapes")
    return float(_joint_errors_mm(pred_joints, gt_joints).mean())


def acceleration_error(joints: np.ndarray) -> float:
    """Mean norm of the per-joint second difference, in mm per frame^2."""
    joints = np.asarray(joints, dtype=float)
    if joints.ndim != 3 or joints.shape[0] < 3:
        raise ValueError("need an (N, J, 3) array with N >= 3")
    return float(_frame_accels_mm(joints).mean())


def reprojection_px(
    traj: TrajectoryParams,
    obs: SequenceObservation,
    skeleton: HandSkeleton,
    norm: str = "l2",
) -> float:
    """Mean pixel distance between projected joints and visible landmarks.

    Unlike the optimization objective, an observation with nothing visible
    in front of any camera scores 0.0 here instead of raising.
    """
    return _joints_reprojection_px(trajectory_joints(traj, skeleton), obs, norm)


def _joints_reprojection_px(joints, obs: SequenceObservation, norm: str) -> float:
    """``reprojection_px`` of world joints (N, 21, 3)."""
    try:
        return float(_reprojection(joints, obs, norm))
    except DegenerateObservationError:
        return 0.0


@dataclass(frozen=True)
class MetricReport:
    """Evaluation summary for one trajectory.

    mpjpe_mm is None when no ground truth was available. Per-frame arrays
    carry the same quantities frame by frame; acceleration has N - 2 rows.
    """

    accel_error_mm: float
    reproj_px: float
    mpjpe_mm: float | None = None
    per_frame_mpjpe_mm: np.ndarray | None = None
    per_frame_accel_mm: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def format_table(self) -> str:
        rows = [("acceleration (mm/frame^2)", self.accel_error_mm),
                ("reprojection (px)", self.reproj_px)]
        if self.mpjpe_mm is not None:
            rows.insert(0, ("position error (mm)", self.mpjpe_mm))
        width = max(len(name) for name, _ in rows)
        lines = [f"{name:<{width}}  {value:12.6f}" for name, value in rows]
        return "\n".join(lines)


def evaluate(
    refined: TrajectoryParams,
    gt: TrajectoryParams | None,
    obs: SequenceObservation,
    skeleton: HandSkeleton,
    norm: str = "l2",
) -> MetricReport:
    """All metrics for a trajectory; position error needs ground truth."""
    joints = trajectory_joints(refined, skeleton)
    per_frame_accel = _frame_accels_mm(joints)
    mpjpe_mm = None
    per_frame_mpjpe = None
    if gt is not None:
        dist = _joint_errors_mm(joints, trajectory_joints(gt, skeleton))
        per_frame_mpjpe = dist.mean(axis=-1)
        mpjpe_mm = float(dist.mean())
    return MetricReport(
        mpjpe_mm=mpjpe_mm,
        accel_error_mm=float(per_frame_accel.mean()),
        reproj_px=_joints_reprojection_px(joints, obs, norm),
        per_frame_mpjpe_mm=per_frame_mpjpe,
        per_frame_accel_mm=per_frame_accel,
    )
