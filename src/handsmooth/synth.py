"""Synthetic hand sequences with known ground truth.

Generates smooth trajectories (sinusoidal finger flexion over a moving
wrist), builds camera rigs around them, corrupts trajectories with Gaussian
noise to simulate imperfect per-frame predictions, renders noisy 2D
observations, and mirrors data across the x = 0 plane for handedness
augmentation. Everything is deterministic given a motion spec and a seeded
generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import camera as cam
from .errors import SpecError
from .hand_model import NUM_ARTICULATED, NUM_SHAPE_PARAMS, HandSkeleton, load_skeleton
from .objective import SequenceObservation, TrajectoryParams, make_flat_objective, trajectory_joints

# Flexion amplitude caps in radians per chain slot (base, middle, distal).
# Keeps sampled motions inside plausible finger ranges.
MAX_AMPLITUDE = (1.3, 1.7, 1.2)

# The largest count numpy can size an array axis with; a larger num_frames or
# num_views fails when the spec loads instead of during generation.
_MAX_COUNT = np.iinfo(np.intp).max

_MIRROR_AA = np.array([1.0, -1.0, -1.0])
_MIRROR_POS = np.array([-1.0, 1.0, 1.0])
_MIRROR_MAT = np.diag(_MIRROR_POS)


@dataclass(frozen=True)
class WristPath:
    """Wrist motion: a straight line or a circular arc at constant speed."""

    kind: str = "line"
    start: np.ndarray = field(default_factory=lambda: np.zeros(3))
    direction: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0]))
    center: np.ndarray = field(default_factory=lambda: np.zeros(3))
    normal: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))
    radius: float = 0.1
    speed: float = 0.05  # m/s

    def __post_init__(self):
        if self.kind not in ("line", "arc"):
            raise ValueError("wrist path kind must be 'line' or 'arc'")
        if self.speed < 0 or not np.isfinite(self.speed):
            raise ValueError("speed must be finite and >= 0")
        for name in ("start", "direction", "center", "normal"):
            v = ad.readonly(getattr(self, name))
            if v.shape != (3,) or not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be a finite 3-vector")
            object.__setattr__(self, name, v)
        if self.kind == "line" and np.linalg.norm(self.direction) == 0:
            raise ValueError("line direction must be nonzero")
        if self.kind == "arc":
            if self.radius <= 0:
                raise ValueError("arc radius must be positive")
            if np.linalg.norm(self.normal) == 0:
                raise ValueError("arc normal must be nonzero")

    def positions(self, times: np.ndarray) -> np.ndarray:
        if self.kind == "line":
            d = self.direction / np.linalg.norm(self.direction)
            return self.start + times[:, None] * self.speed * d
        n = self.normal / np.linalg.norm(self.normal)
        helper = np.array([0.0, 0.0, 1.0])
        if abs(n @ helper) > 0.9:
            helper = np.array([1.0, 0.0, 0.0])
        e1 = np.cross(n, helper)
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(n, e1)
        ang = times * (self.speed / self.radius)
        return (
            self.center
            + self.radius * np.cos(ang)[:, None] * e1
            + self.radius * np.sin(ang)[:, None] * e2
        )


@dataclass(frozen=True)
class RigSpec:
    """Camera placement: views spread on a circle around the motion."""

    num_views: int = 2
    radius: float = 0.75
    elevation: float = 0.15
    fx: float = 350.0
    fy: float = 350.0
    width: int = 640
    height: int = 480
    center: np.ndarray | None = None  # None: mean wrist position

    def __post_init__(self):
        if not 1 <= self.num_views <= _MAX_COUNT:
            raise ValueError(f"num_views must be in [1, {_MAX_COUNT}]")
        if not (self.radius > 0 and np.isfinite(self.radius)):
            raise ValueError("rig radius must be finite and positive")
        if not np.isfinite(self.elevation):
            raise ValueError("rig elevation must be finite")
        self.intrinsics()  # fx, fy, width and height fail here, not in build_rig
        if self.center is not None:
            c = ad.readonly(self.center)
            if c.shape != (3,) or not np.all(np.isfinite(c)):
                raise ValueError("center must be a finite 3-vector")
            object.__setattr__(self, "center", c)

    def intrinsics(self) -> cam.Intrinsics:
        """The pinhole intrinsics every view shares, centred on the image."""
        return cam.Intrinsics(
            fx=self.fx,
            fy=self.fy,
            cx=self.width / 2.0,
            cy=self.height / 2.0,
            width=self.width,
            height=self.height,
        )


@dataclass(frozen=True)
class MotionSpec:
    """Full description of a synthetic sequence.

    Sinusoid arrays may be None, in which case generate_sequence samples
    them (deterministically from its rng) within the documented ranges.
    Amplitudes are radians of flexion about the joint x axis.
    """

    num_frames: int
    fps: float
    amplitude: np.ndarray | None = None  # (15,) rad
    frequency: np.ndarray | None = None  # (15,) Hz
    phase: np.ndarray | None = None      # (15,) rad
    wrist: WristPath = field(default_factory=WristPath)
    orient_start: np.ndarray = field(default_factory=lambda: np.zeros(3))
    orient_rate: np.ndarray = field(default_factory=lambda: np.zeros(3))  # rad/s
    beta: np.ndarray = field(default_factory=lambda: np.zeros(NUM_SHAPE_PARAMS))
    rig: RigSpec = field(default_factory=RigSpec)

    def __post_init__(self):
        if not 3 <= self.num_frames <= _MAX_COUNT:
            raise ValueError(f"num_frames must be in [3, {_MAX_COUNT}]")
        if self.fps <= 0 or not np.isfinite(self.fps):
            raise ValueError("fps must be positive")
        for name in ("amplitude", "frequency", "phase"):
            v = getattr(self, name)
            if v is None:
                continue
            v = ad.readonly(v)
            if v.shape != (NUM_ARTICULATED,) or not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be a finite (15,) array")
            object.__setattr__(self, name, v)
        if self.amplitude is not None:
            caps = np.array([MAX_AMPLITUDE[k % 3] for k in range(NUM_ARTICULATED)])
            if np.any(np.abs(self.amplitude) > caps):
                raise ValueError("amplitudes exceed plausible flexion ranges")
        for name in ("orient_start", "orient_rate"):
            v = ad.readonly(getattr(self, name))
            if v.shape != (3,) or not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be a finite 3-vector")
            object.__setattr__(self, name, v)
        beta = ad.readonly(self.beta)
        if beta.shape != (NUM_SHAPE_PARAMS,) or not np.all(np.isfinite(beta)):
            raise ValueError("beta must be a finite (10,) array")
        object.__setattr__(self, "beta", beta)


@dataclass(frozen=True)
class NoiseSpec:
    """Gaussian corruption levels and observation degradation."""

    sigma_position: float = 0.0  # m, per component of the wrist position
    sigma_orient: float = 0.0   # rad, per component of the wrist orientation
    sigma_pose: float = 0.0     # rad, per component of joint rotations
    sigma_pixel: float = 0.0    # px, per landmark coordinate
    visibility_dropout: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("sigma_position", "sigma_orient", "sigma_pose", "sigma_pixel"):
            v = getattr(self, name)
            if v < 0 or not np.isfinite(v):
                raise ValueError(f"{name} must be finite and >= 0")
        if not 0 <= self.visibility_dropout <= 1:
            raise ValueError("visibility_dropout must be in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _look_at(cam_pos: np.ndarray, target: np.ndarray) -> cam.Extrinsics:
    fwd = target - cam_pos
    fwd = fwd / np.linalg.norm(fwd)
    up = np.array([0.0, 0.0, 1.0])
    if abs(fwd @ up) > 0.98:
        up = np.array([0.0, 1.0, 0.0])
    right = np.cross(fwd, up)
    right /= np.linalg.norm(right)
    down = np.cross(fwd, right)
    r = np.stack([right, down, fwd])
    return cam.Extrinsics(rotation=r, translation=-r @ cam_pos)


def build_rig(spec: RigSpec, wrist_positions: np.ndarray) -> cam.CameraRig:
    """Cameras on a circle around the motion, all aimed at its center."""
    center = spec.center if spec.center is not None else wrist_positions.mean(axis=0)
    intr = spec.intrinsics()
    views = []
    for i in range(spec.num_views):
        ang = 2.0 * np.pi * i / spec.num_views
        pos = center + np.array(
            [spec.radius * np.cos(ang), spec.radius * np.sin(ang), spec.elevation]
        )
        views.append((intr, _look_at(pos, center)))
    return cam.CameraRig(views=tuple(views))


def _check_wrist_visible(rig: cam.CameraRig, wrist_positions: np.ndarray):
    planes = zip(*cam.project_views(wrist_positions, rig)[:3])
    for vi, ((intr, _), (u, v, in_front)) in enumerate(zip(rig.views, planes)):
        ok = (
            in_front.all()
            and np.all((u >= 0) & (u <= intr.width))
            and np.all((v >= 0) & (v <= intr.height))
        )
        if not ok:
            raise SpecError(f"camera {vi} cannot see the whole wrist path")


def generate_sequence(spec: MotionSpec, rng: np.random.Generator):
    """Ground-truth trajectory and camera rig for a motion spec.

    Sinusoid parameters left as None in the motion spec are sampled here, so
    the result is deterministic given (spec, seed). Raises SpecError when a
    camera cannot see the whole wrist path.
    """
    caps = np.array([MAX_AMPLITUDE[k % 3] for k in range(NUM_ARTICULATED)])
    amplitude = spec.amplitude
    if amplitude is None:
        amplitude = rng.uniform(0.1, 0.6, NUM_ARTICULATED) * caps
    frequency = spec.frequency
    if frequency is None:
        frequency = rng.uniform(0.3, 1.2, NUM_ARTICULATED)
    phase = spec.phase
    if phase is None:
        phase = rng.uniform(0.0, 2.0 * np.pi, NUM_ARTICULATED)

    times = np.arange(spec.num_frames) / spec.fps
    angles = amplitude[None, :] * np.sin(
        2.0 * np.pi * frequency[None, :] * times[:, None] + phase[None, :]
    )
    joint_rotations = np.zeros((spec.num_frames, NUM_ARTICULATED, 3))
    joint_rotations[:, :, 0] = angles  # flexion about the joint x axis
    positions = spec.wrist.positions(times)
    orients = spec.orient_start + times[:, None] * spec.orient_rate
    traj = TrajectoryParams(
        shape=spec.beta,
        orients=orients,
        positions=positions,
        joint_rotations=joint_rotations,
    )
    rig = build_rig(spec.rig, positions)
    _check_wrist_visible(rig, positions)
    return traj, rig


def corrupt_trajectory(
    gt: TrajectoryParams, noise: NoiseSpec, rng: np.random.Generator
) -> TrajectoryParams:
    """Add iid Gaussian noise to the per-frame parameters; shape untouched."""
    n = gt.num_frames
    return TrajectoryParams(
        shape=gt.shape,
        orients=gt.orients + noise.sigma_orient * rng.standard_normal((n, 3)),
        positions=gt.positions + noise.sigma_position * rng.standard_normal((n, 3)),
        joint_rotations=gt.joint_rotations
        + noise.sigma_pose * rng.standard_normal((n, NUM_ARTICULATED, 3)),
    )


def render_observations(
    gt: TrajectoryParams,
    rig: cam.CameraRig,
    skeleton: HandSkeleton,
    noise: NoiseSpec,
    rng: np.random.Generator,
) -> SequenceObservation:
    """Project ground-truth joints into every view with pixel noise and
    visibility dropout. Landmarks behind a camera are marked invisible."""
    if noise.visibility_dropout >= 1.0:
        raise SpecError("visibility_dropout of 1 leaves nothing visible")
    joints = trajectory_joints(gt, skeleton)
    n = gt.num_frames
    landmarks = np.zeros((n, rig.num_views, 21, 2))
    visibility = np.zeros((n, rig.num_views, 21), dtype=bool)
    for vi, (u, v, in_front) in enumerate(zip(*cam.project_views(joints, rig)[:3])):
        pix = rng.standard_normal((n, 21, 2))
        landmarks[:, vi, :, 0] = u + noise.sigma_pixel * pix[:, :, 0]
        landmarks[:, vi, :, 1] = v + noise.sigma_pixel * pix[:, :, 1]
        dropped = rng.random((n, 21)) < noise.visibility_dropout
        visibility[:, vi] = in_front & ~dropped
    if not visibility.any():
        raise SpecError("no landmark is visible in any view")
    return SequenceObservation(landmarks_2d=landmarks, visibility=visibility, rig=rig)


# ----- mirroring -----


def mirror_trajectory(traj: TrajectoryParams) -> TrajectoryParams:
    """Reflect a trajectory across the x = 0 plane.

    Positions negate x; axis-angle vectors map (ax, ay, az) to
    (ax, -ay, -az), which is conjugation of the rotation by the reflection.
    The mirrored parameters describe the opposite-handedness hand, whose
    skeleton is mirror_skeleton of the original.
    """
    return TrajectoryParams(
        shape=traj.shape,
        orients=traj.orients * _MIRROR_AA,
        positions=traj.positions * _MIRROR_POS,
        joint_rotations=traj.joint_rotations * _MIRROR_AA,
    )


def mirror_skeleton(skeleton: HandSkeleton) -> HandSkeleton:
    """Opposite-handedness skeleton: rest offsets reflected across x = 0."""
    return HandSkeleton(
        version=skeleton.version,
        parents=skeleton.parents,
        rest_offsets=skeleton.rest_offsets * _MIRROR_POS,
        shape_basis=skeleton.shape_basis,
    )


def _mirror_extrinsics(extr: cam.Extrinsics) -> cam.Extrinsics:
    # conjugate by the reflection; M R M stays a proper rotation
    return cam.Extrinsics(
        rotation=_MIRROR_MAT @ extr.rotation @ _MIRROR_MAT,
        translation=extr.translation * _MIRROR_POS,
    )


def mirror_hand(traj: TrajectoryParams, obs: SequenceObservation):
    """Reflect a trajectory and its observations across the x = 0 plane.

    Camera extrinsics are conjugated by the reflection and 2D landmarks flip
    about the principal-point column (u -> 2 cx - u), which is exactly the
    projection of the reflected scene. Applying it twice is the identity.
    """
    views = tuple(
        (intr, _mirror_extrinsics(extr)) for intr, extr in obs.rig.views
    )
    rig = cam.CameraRig(views=views)
    landmarks = obs.landmarks_2d.copy()
    for vi, (intr, _) in enumerate(obs.rig.views):
        landmarks[:, vi, :, 0] = 2.0 * intr.cx - landmarks[:, vi, :, 0]
    mirrored_obs = SequenceObservation(
        landmarks_2d=landmarks, visibility=obs.visibility, rig=rig
    )
    return mirror_trajectory(traj), mirrored_obs


# ----- random problems for gradient checking -----


def random_problem(num_frames: int, num_views: int, seed: int):
    """A random, well-posed smoothing instance for gradient verification.

    Observations are exact projections of a random trajectory plus large
    pixel noise. Each smoothed |.| of the objective stays far from its kink
    on the scale of the central-difference step h = ``autodiff.FD_STEP``
    (1e-6): a step moves a second difference by at most 2 h, and each is at
    least 10 h; it moves a landmark under 1e3 h px (7.1e2 h px measured over
    40 problems), and each visible residual is at least 100 times that,
    0.1 px. A draw that misses a margin is drawn again from the same
    generator, so a seed whose first draw meets them is unchanged. Returns
    (traj, obs, skeleton).
    """
    if num_frames < 3:
        raise ValueError("num_frames must be >= 3")
    if num_views < 1:
        raise ValueError("num_views must be >= 1")
    rng = np.random.default_rng(seed)
    skeleton = load_skeleton()
    intr = cam.Intrinsics(fx=350.0, fy=350.0, cx=320.0, cy=240.0, width=640, height=480)
    while True:
        traj = TrajectoryParams(
            shape=rng.normal(0.0, 0.5, NUM_SHAPE_PARAMS),
            orients=rng.normal(0.0, 0.4, (num_frames, 3)),
            positions=rng.normal(0.0, 0.04, (num_frames, 3)),
            joint_rotations=rng.normal(0.0, 0.3, (num_frames, NUM_ARTICULATED, 3)),
        )
        base = rng.uniform(0.0, 2.0 * np.pi)
        views = []
        for i in range(num_views):
            ang = base + 2.0 * np.pi * i / num_views
            radius = rng.uniform(0.7, 0.9)
            pos = np.array(
                [radius * np.cos(ang), radius * np.sin(ang), rng.uniform(0.1, 0.25)]
            )
            views.append((intr, _look_at(pos, np.zeros(3))))
        rig = cam.CameraRig(views=tuple(views))
        joints = trajectory_joints(traj, skeleton)
        landmarks = np.zeros((num_frames, num_views, 21, 2))
        visibility = np.zeros((num_frames, num_views, 21), dtype=bool)
        residual = np.inf
        for vi, (u, v, in_front) in enumerate(zip(*cam.project_views(joints, rig)[:3])):
            landmarks[:, vi, :, 0] = u + rng.normal(0.0, 20.0, (num_frames, 21))
            landmarks[:, vi, :, 1] = v + rng.normal(0.0, 20.0, (num_frames, 21))
            visibility[:, vi] = in_front & (rng.random((num_frames, 21)) < 0.9)
            gap = np.hypot(landmarks[:, vi, :, 0] - u, landmarks[:, vi, :, 1] - v)
            residual = gap[visibility[:, vi]].min(initial=residual)
        frames = traj.to_flat()[NUM_SHAPE_PARAMS:].reshape(num_frames, -1)
        accel = np.abs(np.diff(frames, 2, axis=0)).min()
        if accel >= 10 * ad.FD_STEP and residual >= 1e5 * ad.FD_STEP:
            obs = SequenceObservation(landmarks_2d=landmarks, visibility=visibility, rig=rig)
            return traj, obs, skeleton


def gradient_sweep(num_frames: int, num_views: int, count: int):
    """check_gradient over ``count`` seeded random instances; returns the
    per-instance max relative errors."""
    if count < 1:
        raise ValueError("count of seeds must be >= 1")
    errs = []
    for seed in range(count):
        traj, obs, skeleton = random_problem(num_frames, num_views, seed)
        objective = make_flat_objective(obs, skeleton)
        errs.append(ad.check_gradient(objective, traj.to_flat()))
    return errs
