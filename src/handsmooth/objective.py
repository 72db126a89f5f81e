"""Trajectory refinement objective: multi-view reprojection consistency plus
temporal acceleration penalties on pose, orientation, and position series.

All loss code is written against the autodiff dispatch helpers, so the same
functions evaluate with plain arrays (fast, tape-free) or record onto a tape
for gradients. The acceleration terms (all three as one node) and the
reprojection term are fused ops, evaluated on plain values with hand-written VJPs.
The tape-free route also takes leading batch axes: the flat
objective maps a (P,) vector to a scalar and a (B, P) block of vectors to
(B,) values, row by row.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import autodiff as ad
from . import camera as cam
from .errors import DegenerateObservationError
from .hand_model import (
    NUM_ARTICULATED,
    NUM_JOINTS,
    NUM_SHAPE_PARAMS,
    HandSkeleton,
    fk_joints,
)

# Flat layout per frame: orient (3), position (3), joint rotations (45).
FRAME_PARAMS = 51
MIN_FRAMES = 3

REPROJECTION_NORMS = ("l2", "l2_squared", "l1")
# The objective's unweighted terms, in the order their weighted sum is taken.
TERMS = ("acce_pose", "acce_orients", "acce_position", "loss_2d")

DELTA = ad.ABS_SMOOTH_DELTA


@dataclass(frozen=True)
class LossWeights:
    """Weights of the four objective terms."""

    acce_pose: float = 0.5
    acce_orients: float = 0.5
    acce_position: float = 0.5
    reprojection: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            if not 0 <= getattr(self, f.name) < np.inf:
                raise ValueError(f"{f.name} must be finite and >= 0")


def _split_flat(vec, num_frames: int):
    """The (shape, orients, positions, joint_rotations) parts of a flat
    vector (..., P), Tensor or array, in the layout of
    ``TrajectoryParams.to_flat``: (..., 10), (..., N, 3), (..., N, 3) and
    (..., N, 45), with any leading axes kept as batch axes."""
    lead = ad.value_of(vec).shape[:-1]
    shape = vec[..., :NUM_SHAPE_PARAMS]
    frames = ad.reshape(vec[..., NUM_SHAPE_PARAMS:], lead + (num_frames, FRAME_PARAMS))
    return shape, frames[..., 0:3], frames[..., 3:6], frames[..., 6:51]


@dataclass(frozen=True)
class TrajectoryParams:
    """Per-sequence trainable state: one shared shape vector plus per-frame
    wrist orientation, wrist position, and articulated joint rotations.

    Flattening order is [shape, then per frame: orient, position,
    joint_rotations], giving 10 + 51 * num_frames values.
    """

    shape: np.ndarray            # (10,)
    orients: np.ndarray          # (N, 3)
    positions: np.ndarray        # (N, 3)
    joint_rotations: np.ndarray  # (N, 15, 3)

    def __post_init__(self):
        shape = ad.readonly(self.shape)
        orients = ad.readonly(self.orients)
        positions = ad.readonly(self.positions)
        rots = ad.readonly(self.joint_rotations)
        if shape.shape != (NUM_SHAPE_PARAMS,):
            raise ValueError("shape must have shape (10,)")
        n = orients.shape[0] if orients.ndim else 0
        if orients.shape != (n, 3) or positions.shape != (n, 3):
            raise ValueError("orients and positions must have shape (N, 3)")
        if rots.shape != (n, NUM_ARTICULATED, 3):
            raise ValueError("joint_rotations must have shape (N, 15, 3)")
        if n < MIN_FRAMES:
            raise ValueError(f"a trajectory needs at least {MIN_FRAMES} frames")
        for a in (shape, orients, positions, rots):
            if not np.all(np.isfinite(a)):
                raise ValueError("trajectory values must be finite")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "orients", orients)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "joint_rotations", rots)

    @property
    def num_frames(self) -> int:
        return self.orients.shape[0]

    def to_flat(self) -> np.ndarray:
        n = self.num_frames
        frames = np.concatenate(
            [self.orients, self.positions, self.joint_rotations.reshape(n, 45)], axis=1
        )
        return np.concatenate([self.shape, frames.ravel()])

    @classmethod
    def from_flat(cls, vec: np.ndarray, num_frames: int) -> "TrajectoryParams":
        vec = np.asarray(vec, dtype=float)
        expected = NUM_SHAPE_PARAMS + FRAME_PARAMS * num_frames
        if vec.shape != (expected,):
            raise ValueError(f"flat vector must have length {expected}")
        shape, orients, positions, rots = _split_flat(vec, num_frames)
        return cls(shape, orients, positions, rots.reshape(num_frames, NUM_ARTICULATED, 3))


@dataclass(frozen=True)
class SequenceObservation:
    """Detected 2D landmarks with visibility over frames and views."""

    landmarks_2d: np.ndarray  # (N, V, 21, 2) pixels
    visibility: np.ndarray    # (N, V, 21) bool
    rig: cam.CameraRig

    def __post_init__(self):
        lm = ad.readonly(self.landmarks_2d)
        vis = ad.readonly(self.visibility, dtype=bool)
        n_views = self.rig.num_views
        if lm.ndim != 4 or lm.shape[1] != n_views or lm.shape[2:] != (21, 2):
            raise ValueError("landmarks_2d must have shape (N, V, 21, 2)")
        if vis.shape != lm.shape[:3]:
            raise ValueError("visibility must have shape (N, V, 21)")
        if not np.all(np.isfinite(lm)):
            raise ValueError("landmarks must be finite")
        if not vis.any():
            raise ValueError("at least one landmark must be visible")
        object.__setattr__(self, "landmarks_2d", lm)
        object.__setattr__(self, "visibility", vis)

    @property
    def num_frames(self) -> int:
        return self.landmarks_2d.shape[0]

    @property
    def num_views(self) -> int:
        return self.landmarks_2d.shape[1]

    @cached_property
    def _planes(self):
        """Landmark u, landmark v and visibility as (V, 1, N * 21) planes."""
        lm_u, lm_v = np.moveaxis(self.landmarks_2d, (3, 1), (0, 1))
        return tuple(ad.readonly(a.reshape(self.num_views, 1, -1), dtype=a.dtype)
                     for a in (lm_u, lm_v, np.swapaxes(self.visibility, 0, 1)))


def acceleration_loss(series):
    """Mean smoothed-|.| of discrete second differences along the time axis.

    ``series`` is (..., N, D), Tensor or array: time is axis -2, with
    N >= 3 frames of D values each, and any leading axes are batch axes, so
    the result has shape (...). Joint rotations enter as (..., N, 45). Per
    batch row it equals sum_t |x_t - 2 x_{t-1} + x_{t-2}| / ((N - 2) * D),
    using the smoothed absolute value, so a constant or constant-velocity
    series scores 0 and gradients exist there. It is ``_acceleration`` on
    this one series with weight 1.0, one tape node.

    The terms on wrist orients and positions are not invariant under a
    rotation of the world and rig, by construction: the first takes second
    differences of world axis-angle vectors, and the second smooths |.| per
    world coordinate. The pose term and the reprojection term are invariant.
    """
    return _acceleration((series,), (1.0,))[0]


def _acceleration(series, weights):
    """The weighted sum of ``acceleration_loss`` over several series, in
    their order, and the unweighted terms as plain values. A term whose
    weight is 0.0 is evaluated but left out of the sum, which is +0.0 per
    batch row when every weight is 0.0. The sum records one tape node, whose
    VJP is ``_acceleration_vjp``; a zero-weight series gets no gradient."""
    terms, ctx, total = [], [], None
    for s, weight in zip(series, weights):
        s = ad.value_of(s)
        if s.ndim < 2 or s.shape[-2] < MIN_FRAMES:
            raise ValueError("acceleration needs a (..., N, D) series with N >= 3 frames")
        d2 = s[..., 2:, :] - s[..., 1:-1, :] * 2.0 + s[..., :-2, :]
        root = np.sqrt(d2 * d2 + DELTA * DELTA)
        count = float(d2.shape[-2] * d2.shape[-1])
        terms.append((root - DELTA).sum(axis=(-2, -1)) / count)
        ctx.append((weight, d2, root, count) if weight != 0.0 else None)
        if weight != 0.0:
            total = terms[-1] * weight if total is None else total + terms[-1] * weight
    if total is None:
        total = np.zeros(terms[0].shape)[()]
    return ad._record(total, _acceleration_vjp, tuple(series), ctx), terms


def _acceleration_vjp(g, node):
    """D2^T applied to the gradient of each weighted second difference."""
    grads = []
    for x, term in zip(node.inputs, node.ctx):
        if term is None or not isinstance(x, ad.Tensor):
            grads.append(None)
            continue
        weight, d2, root, count = term
        gd = (g * weight / count)[..., None, None] * (d2 / root)
        out = np.zeros(x.value.shape)
        out[..., 2:, :] += gd
        out[..., 1:-1, :] -= gd * 2.0
        out[..., :-2, :] += gd
        grads.append(out)
    return grads


def trajectory_joints(traj: TrajectoryParams, skeleton: HandSkeleton) -> np.ndarray:
    """World joint positions for every frame, shape (N, 21, 3)."""
    return np.asarray(
        fk_joints(skeleton, traj.shape, traj.orients, traj.positions, traj.joint_rotations)
    )


def _residuals(u, v, in_front, landmarks_u, landmarks_v, visibility, norm: str):
    """The masked residual planes of projected pixels against landmarks, on
    plain planes of one shape (or broadcasting to it): (du, dv, ru, rv,
    dist, mask). du and dv are written over u and v; ru and rv are the
    denominators of d dist / d du and d dist / d dv; dist is the residual
    norm times the mask, which is 1.0 where a landmark is visible and
    strictly in front of the camera and 0.0 elsewhere."""
    if norm not in REPROJECTION_NORMS:
        raise ValueError(f"norm must be one of {REPROJECTION_NORMS}")
    mask = (visibility & in_front).astype(float)
    du = np.subtract(u, landmarks_u, out=u)
    dv = np.subtract(v, landmarks_v, out=v)
    if norm == "l2":
        ru = rv = np.sqrt(du * du + dv * dv + DELTA * DELTA)
        dist = ru - DELTA
    elif norm == "l2_squared":
        ru = rv = 0.5
        dist = du * du + dv * dv
    else:
        ru, rv = np.sqrt(du * du + DELTA * DELTA), np.sqrt(dv * dv + DELTA * DELTA)
        dist = (ru - DELTA) + (rv - DELTA)
    dist *= mask
    return du, dv, ru, rv, dist, mask


def _view_mean(dist, mask):
    """The mean of (V, R, K) residual planes per row, and the (R,) count of
    landmarks that count: each view is summed over its own rows, and the
    views are added in view order. Raises DegenerateObservationError when
    none counts in some row."""
    count = 0.0
    total = None
    for c, s in zip(mask.sum(axis=-1), dist.sum(axis=-1)):
        count = count + c
        total = s if total is None else total + s
    if np.any(count == 0.0):
        raise DegenerateObservationError("no landmark is visible and in front of a camera")
    return total / count, count


def _reprojection(joints, obs: SequenceObservation, norm: str):
    """Mean masked pixel distance over every view, for joints (..., N, 21, 3);
    the result has the batch shape (...).

    A landmark counts only when it is visible and strictly in front of the
    camera. Raises DegenerateObservationError when none counts in some batch
    row. ``camera.project_views`` projects all views at once on plain values,
    and ``_residuals`` scores its (V, B, N * 21) planes, which
    ``_view_mean`` averages. The whole term records one tape node, whose VJP
    is ``_reprojection_vjp``. The objective passes it the joints of one
    sequence, on the tape or plain, and sends plain blocks to
    ``_reprojection_by_frame``; the batch axes serve ``check_gradient`` on
    this fused op alone.
    """
    points = ad.value_of(joints)
    planes = (obs.num_views, -1, points.shape[-3] * points.shape[-2])
    u, v, in_front, *frame = (a.reshape(planes) for a in cam.project_views(points, obs.rig))
    du, dv, ru, rv, dist, mask = _residuals(u, v, in_front, *obs._planes, norm)
    value, count = _view_mean(dist, mask)
    ctx = (obs, count, (du, dv, ru, rv, mask), frame)
    # a numpy scalar when unbatched
    return ad._record(value.reshape(points.shape[:-3])[()], _reprojection_vjp, (joints,), ctx)


def _reprojection_by_frame(block, obs: SequenceObservation, skeleton: HandSkeleton, norm: str):
    """``_reprojection`` of the joints of each row of a plain block (..., P),
    with FK, the projection and the residual planes taken once per distinct
    (shape run, frame index, frame).

    A shape run is a maximal run of consecutive rows whose shape vectors are
    equal byte for byte: in ``check_gradient``'s first block each
    shape-stepping row is a run and the rest form one, and its other blocks
    are one run each. Keys are compared as bytes, so a frame copied to
    another index, which is scored against other landmarks, stays distinct,
    and so do -0.0 and +0.0. A (row, frame) pair equal to the pair above it
    in its run takes that pair's key, and only the other pairs are sorted:
    at most two per row in ``check_gradient``'s blocks, which step one
    coordinate per row. FK runs once on the distinct keys, with the shared
    shape when the block is one run, and with each key's own shape, on a
    (D, 1) lead, when it is several. ``_residuals`` scores the keys against the
    landmark planes of their index. The dist and mask planes are gathered
    back into the block's (V, B, N * 21) planes before ``_view_mean``, so
    every sum sees the addends ``_reprojection`` gives it, in its order, and
    every value keeps its bits.
    """
    n = obs.num_frames
    rows = np.asarray(block, dtype=float).reshape(-1, block.shape[-1])
    shapes = rows[:, :NUM_SHAPE_PARAMS].view(np.uint64)
    frames = rows[:, NUM_SHAPE_PARAMS:].reshape(len(rows), n, FRAME_PARAMS)
    words = frames.view(np.uint64)
    new_run = np.ones(len(rows), dtype=bool)
    new_run[1:] = (shapes[1:] != shapes[:-1]).any(axis=1)
    run = np.cumsum(new_run) - 1
    fresh = np.ones((len(rows), n), dtype=bool)  # differs from the pair above it in its run
    fresh[1:] = (words[1:] != words[:-1]).any(axis=2) | new_run[1:, None]
    row, index = np.nonzero(fresh)
    first, key = _distinct_rows(np.column_stack([run[row], index, frames[row, index]]))
    # a pair's ordinal among the fresh pairs is that of the last one at or above it
    ordinal = np.zeros(fresh.shape, dtype=np.intp)
    ordinal[fresh] = np.arange(len(row))
    inverse = key[np.maximum.accumulate(ordinal, axis=0)]
    row, index = row[first], index[first]
    distinct, beta = frames[row, index], rows[0, :NUM_SHAPE_PARAMS]
    if run[-1]:  # several runs: each key's own shape, on a (D, 1) lead
        distinct, beta = distinct[:, None], rows[row, :NUM_SHAPE_PARAMS]
    joints = fk_joints(skeleton, beta, distinct[..., :3], distinct[..., 3:6], distinct[..., 6:])
    u, v, in_front = cam.project_views(joints.reshape(-1, NUM_JOINTS, 3), obs.rig)[:3]  # (V, D, 21)
    observed = (a.reshape(obs.num_views, n, NUM_JOINTS)[:, index] for a in obs._planes)
    dist, mask = _residuals(u, v, in_front, *observed, norm)[4:]
    planes = (obs.num_views, -1, n * NUM_JOINTS)
    value, _ = _view_mean(dist[:, inverse].reshape(planes), mask[:, inverse].reshape(planes))
    return value.reshape(block.shape[:-1])


def _distinct_rows(keys):
    """(first, inverse) of the rows of a 2-D float64 array, compared as bytes:
    ``keys[first]`` holds each distinct row once, in byte order, and row i
    is ``keys[first][inverse[i]]``."""
    # np.unique's steps on the rows' bytes, with sorted neighbours compared
    # as integers: numpy compares void items several times slower
    order = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1])))[:, 0].argsort()
    words = keys.view(np.uint64)[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (words[1:] != words[:-1]).any(axis=1)
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _reprojection_vjp(g, node):
    """Through each view's residual norm, then the pinhole map on the
    landmarks that count, with the camera-frame points of the forward, then
    each view's world-to-camera rotation."""
    obs, count, (du, dv, ru, rv, mask), (x, y, z) = node.ctx
    views = obs.rig.views
    fx, fy = (f[:, :, None] for f in obs.rig._stacked[2:4])  # (V, 1, 1)
    w = (np.reshape(g, count.shape) / count)[:, None] * mask
    # (V, 3, B, N * 21) planes: the gradient of each view's camera-frame
    # points; z is 1 behind the camera, where the mask zeroes gu and gv
    g_cam = np.empty((len(mask), 3) + mask.shape[1:])
    gx, gy, gz = g_cam.swapaxes(0, 1)
    for gk, d, r, f in ((gx, du, ru, fx), (gy, dv, rv, fy)):
        np.multiply(w, d, out=gk)  # gu = w d / r, then gx = gu f / z
        gk /= r
        gk *= f
        gk /= z
    np.multiply(gx, x, out=gz)
    gz += np.multiply(gy, y, out=w)
    np.divide(np.negative(gz, out=gz), z, out=gz)  # gz = -(gx x + gy y) / z
    out = np.zeros((mask[0].size, 3))
    for (_, extr), g_view in zip(views, g_cam.reshape(len(mask), 3, -1)):  # in view order
        out += g_view.T @ extr.rotation
    return (out.reshape(node.inputs[0].value.shape),)


def loss_components(
    traj: TrajectoryParams,
    obs: SequenceObservation,
    skeleton: HandSkeleton,
    weights: LossWeights = LossWeights(),
    norm: str = "l2",
) -> dict:
    """All four unweighted components plus the weighted total, as floats.

    This is one tape-free call of the ``make_flat_objective`` closure, the
    one evaluator of the terms, on ``traj.to_flat()``. Components are
    evaluated regardless of their weights, so reports stay truthful when a
    term is disabled.
    """
    terms = {}
    total = make_flat_objective(obs, skeleton, weights, norm, terms)(traj.to_flat())
    return dict(terms, total=float(total))


def reprojection_loss(
    traj: TrajectoryParams,
    obs: SequenceObservation,
    skeleton: HandSkeleton,
    norm: str = "l2",
) -> float:
    """Mean pixel distance between projected joints and visible landmarks.

    Landmarks behind a camera (depth <= 1e-6 m) are excluded, not errors.
    The averaging is over included landmark terms, so the value does not
    scale with the number of views. Raises DegenerateObservationError when
    nothing is left to average.
    """
    return loss_components(traj, obs, skeleton, norm=norm)["loss_2d"]


def make_flat_objective(
    obs: SequenceObservation,
    skeleton: HandSkeleton,
    weights: LossWeights = LossWeights(),
    norm: str = "l2",
    terms_out: dict | None = None,
    optimize_shape: bool = True,
):
    """Objective over the flat parameter vector, and the one evaluator of
    the four terms: the tape, the finite-difference checker and
    ``loss_components`` all call its closure. The vector layout matches
    ``TrajectoryParams.to_flat``. A (P,) vector, Tensor or array, gives a
    scalar; a (B, P) block of plain vectors gives (B,) values, one per row.
    A block runs FK, the projection and the residuals once per distinct
    (shape run, frame index, frame) (``_reprojection_by_frame``), and each
    row's value is bitwise its value alone; the acceleration terms read
    neighbouring frames and stay per row.
    When ``terms_out`` is a dict, each scalar evaluation stores its four
    unweighted terms there as floats; block evaluations leave it alone. The
    total is the weighted sum of the acceleration terms (one node), plus the
    weighted reprojection term when its weight is not 0.0: a tape pass
    records 12 nodes, the leaf, the flat split (6), the acceleration terms,
    FK, the reprojection, its weight and the total. A zero-weight term is
    still reported, but stays out of the total and gets no gradient. Without
    ``optimize_shape`` the shape block is read as a plain value, and its
    gradient is exactly 0."""
    n = obs.num_frames
    accel_weights = (weights.acce_pose, weights.acce_orients, weights.acce_position)

    def objective(vec):
        shape_vec, orients, positions, joint_rots = _split_flat(vec, n)
        if not optimize_shape:
            shape_vec = ad.value_of(shape_vec)
        total, accel_terms = _acceleration((joint_rots, orients, positions), accel_weights)
        terms = dict(zip(TERMS, accel_terms))
        if not isinstance(vec, ad.Tensor) and np.ndim(vec) > 1:
            terms["loss_2d"] = _reprojection_by_frame(ad.value_of(vec), obs, skeleton, norm)
        else:
            fk_inputs = (shape_vec, orients, positions, joint_rots)
            if weights.reprojection == 0.0:  # reported, from plain values off the tape
                fk_inputs = tuple(ad.value_of(x) for x in fk_inputs)
            terms["loss_2d"] = _reprojection(fk_joints(skeleton, *fk_inputs), obs, norm)
        if weights.reprojection != 0.0:
            total = total + terms["loss_2d"] * weights.reprojection
        if terms_out is not None and ad.value_of(total).ndim == 0:
            terms_out.update((name, float(ad.value_of(v))) for name, v in terms.items())
        return total

    return objective
