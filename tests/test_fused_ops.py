"""The fused tape ops against the compositions they replaced.

``rotation_matrices``, ``acceleration_loss`` and ``objective._reprojection``
each record one node with a hand-written VJP. ``composed`` keeps the step by
step compositions they replaced. Values must agree bitwise, tape-free and
taped. Gradients must agree within 1e-12 of the reference's largest
component, since the two sum their gradients in different orders.

``composed`` also keeps the earlier fused forms of Rodrigues (stacked) and of
the reprojection (one view at a time). Against those, values and gradients
must agree bit for bit, signed zeros included.
"""

from dataclasses import replace

import numpy as np
import pytest

import handsmooth as hs
import handsmooth.autodiff as ad
from handsmooth.camera import MIN_DEPTH
from handsmooth.hand_model import SERIES_DERIVATIVE_SQ, SMALL_ANGLE_SQ, rotation_matrices
from handsmooth.objective import REPROJECTION_NORMS, _reprojection

from composed import (
    acceleration_reference,
    project_one_view,
    reprojection_per_view,
    reprojection_reference,
    rodrigues_reference,
    rodrigues_stacked,
)

PROBLEMS = pytest.mark.parametrize(
    "frames, seed, batched",
    [(frames, seed, batched) for frames in (5, 60) for seed in range(5) for batched in (False, True)],
)


# Rodrigues at both switch angles, either side of each, and near pi
ANGLE_EDGES = pytest.mark.parametrize(
    "theta, series, derivative_series",
    [
        (0.0, True, True),
        (0.999e-8, True, True),  # either side of the value switch
        (1.001e-8, False, True),
        (0.999e-2, False, True),  # either side of the derivative switch
        (1.001e-2, False, False),
        (np.pi - 1e-7, False, False),
        (-(np.pi - 1e-7), False, False),
    ],
)


def assert_fused_matches(op, reference, x, weights):
    """op and reference agree on x: values bitwise, and the gradient of
    sum(value * weights) within 1e-12 of the reference's largest component."""
    plain = np.asarray(op(x))
    assert plain.tobytes() == np.asarray(reference(x)).tobytes()
    taped = op(ad.Tensor(x, ad.Tape()))
    assert taped.value.tobytes() == plain.tobytes()

    def gradient(fn):
        return ad.record_and_backprop(lambda v: ad.sum(fn(v) * weights), x)

    (value, grad), (ref_value, ref_grad) = gradient(op), gradient(reference)
    assert value == ref_value
    assert grad.shape == x.shape
    assert np.all(np.abs(grad - ref_grad) <= 1e-12 * np.abs(ref_grad).max())


def assert_bitwise(op, reference, x, weights):
    """op and reference agree bit for bit on x: the value, tape-free and
    taped, and the gradient of sum(value * weights)."""
    plain = np.asarray(op(x))
    assert plain.tobytes() == np.asarray(reference(x)).tobytes()
    assert op(ad.Tensor(x, ad.Tape())).value.tobytes() == plain.tobytes()

    def gradient(fn):
        return ad.record_and_backprop(lambda v: ad.sum(fn(v) * weights), x)

    (value, grad), (ref_value, ref_grad) = gradient(op), gradient(reference)
    assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
    assert grad.tobytes() == ref_grad.tobytes()


def batch_of(a, seed):
    """a, stacked with two rows perturbed by seeded noise."""
    noise = np.random.default_rng(seed).normal(0.0, 0.01, a.shape)
    return np.stack([a, a + noise, a - noise])


def problem(frames, seed, batched, views=2):
    """(axis-angles (..., N, 16, 3), the three acceleration series, joints
    (..., N, 21, 3), obs) of random_problem(frames, views, seed)."""
    traj, obs, skeleton = hs.random_problem(frames, views, seed)
    aa = np.concatenate([traj.orients[:, None], traj.joint_rotations], axis=1)
    series = [traj.joint_rotations.reshape(frames, 45), traj.orients, traj.positions]
    joints = hs.trajectory_joints(traj, skeleton)
    if batched:
        aa, joints = batch_of(aa, seed), batch_of(joints, seed)
        series = [batch_of(s, seed) for s in series]
    return aa, series, joints, obs


class TestRodrigues:
    @PROBLEMS
    def test_matches_composition(self, frames, seed, batched):
        aa, _, _, _ = problem(frames, seed, batched)
        weights = np.random.default_rng(seed).normal(size=aa.shape[:-1] + (3, 3))
        assert_fused_matches(rotation_matrices, rodrigues_reference, aa, weights)

    @ANGLE_EDGES
    def test_matches_composition_at_angle_edges(self, theta, series, derivative_series):
        assert ((theta * theta) < SMALL_ANGLE_SQ) == series
        assert ((theta * theta) < SERIES_DERIVATIVE_SQ) == derivative_series
        aa = theta * np.array([[1.0, 2.0, 2.0], [0.0, -0.6, 0.8]]) / [[3.0], [1.0]]
        weights = np.arange(1.0, 19.0).reshape(2, 3, 3) / 9.0
        assert_fused_matches(rotation_matrices, rodrigues_reference, aa, weights)


class TestRodriguesBitwise:
    """``rotation_matrices`` against ``composed.rodrigues_stacked``."""

    @PROBLEMS
    def test_matches_stacked_form(self, frames, seed, batched):
        aa, _, _, _ = problem(frames, seed, batched)
        weights = np.random.default_rng(seed).normal(size=aa.shape[:-1] + (3, 3))
        assert_bitwise(rotation_matrices, rodrigues_stacked, aa, weights)

    @ANGLE_EDGES
    def test_matches_stacked_form_at_angle_edges(self, theta, series, derivative_series):
        assert ((theta * theta) < SMALL_ANGLE_SQ) == series
        assert ((theta * theta) < SERIES_DERIVATIVE_SQ) == derivative_series
        aa = theta * np.array([[1.0, 2.0, 2.0], [0.0, -0.6, 0.8]]) / [[3.0], [1.0]]
        weights = np.arange(1.0, 19.0).reshape(2, 3, 3) / 9.0
        assert_bitwise(rotation_matrices, rodrigues_stacked, aa, weights)

    def test_matches_stacked_form_on_signed_zeros(self):
        zero_pattern = np.array(np.meshgrid([-0.0, 0.0], [-0.0, 0.0], [-0.0, 0.0])).reshape(3, -1).T
        aa = np.concatenate([
            zero_pattern,  # every sign pattern of a zero vector
            [[0.3, -0.0, 0.0], [-0.0, -0.2, -0.0], [-0.0, 0.0, 0.5], [-1e-9, 0.0, -0.0],
             [1.0, -0.0, 2.0], [-0.0, -0.0, -(np.pi - 1e-7)]],
        ])
        rng = np.random.default_rng(5)
        weights = rng.normal(size=aa.shape[:-1] + (3, 3))
        weights[rng.random(weights.shape) < 0.4] = -0.0
        weights[:4] = -0.0
        assert_bitwise(rotation_matrices, rodrigues_stacked, aa, weights)


class TestAcceleration:
    @PROBLEMS
    def test_matches_composition(self, frames, seed, batched):
        _, series, _, _ = problem(frames, seed, batched)
        weights = np.arange(1.0, 4.0) if batched else 1.0
        for s in series:
            assert_fused_matches(hs.acceleration_loss, acceleration_reference, s, weights)

    @pytest.mark.parametrize("batched", [False, True])
    def test_three_frame_series(self, batched):
        series = np.random.default_rng(3).normal(0.0, 0.3, (3, 4))
        if batched:
            series = batch_of(series, 3)
        weights = np.arange(1.0, 4.0) if batched else 1.0
        assert_fused_matches(hs.acceleration_loss, acceleration_reference, series, weights)
        assert ad.check_gradient(
            lambda x: hs.acceleration_loss(ad.reshape(x, ad.value_of(x).shape[:-1] + (3, 4))),
            series[0].ravel() if batched else series.ravel(),
        ) < 1e-6


def moved_view(obs, joints, depth):
    """obs with view 0 moved along its optical axis until the nearest joint
    sits at ``depth``, and every landmark visible."""
    intr, extr = obs.rig.views[0]
    z = joints @ extr.rotation[2] + extr.translation[2]
    moved = replace(extr, translation=extr.translation - [0.0, 0.0, z.min() - depth])
    rig = hs.CameraRig(views=((intr, moved),) + obs.rig.views[1:])
    return replace(obs, rig=rig, visibility=np.ones_like(obs.visibility))


class TestReprojection:
    @PROBLEMS
    @pytest.mark.parametrize("norm", REPROJECTION_NORMS)
    def test_matches_composition(self, frames, seed, batched, norm):
        _, _, joints, obs = problem(frames, seed, batched)
        weights = np.arange(1.0, 4.0) if batched else 1.0
        assert_fused_matches(
            lambda j: _reprojection(j, obs, norm),
            lambda j: reprojection_reference(j, obs, norm),
            joints,
            weights,
        )

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("norm", REPROJECTION_NORMS)
    @pytest.mark.parametrize("edge", ["behind", "above_min_depth", "view_sees_nothing"])
    def test_matches_composition_at_edges(self, seed, norm, edge):
        traj, obs, skeleton = hs.random_problem(5, 2, seed)
        joints = hs.trajectory_joints(traj, skeleton)
        if edge == "view_sees_nothing":
            visibility = obs.visibility.copy()
            visibility[:, 1] = False
            obs = replace(obs, visibility=visibility)
        else:
            # a joint 1 cm behind view 0, or one at 1.5 MIN_DEPTH in front of it
            obs = moved_view(obs, joints, -1e-2 if edge == "behind" else 1.5 * MIN_DEPTH)
            extr = obs.rig.views[0][1]
            depth = joints @ extr.rotation[2] + extr.translation[2]
            assert np.any(depth > MIN_DEPTH)
            if edge == "behind":
                assert np.any(depth < 0.0)
            else:
                assert MIN_DEPTH < depth.min() < 2.0 * MIN_DEPTH
        assert_fused_matches(
            lambda j: _reprojection(j, obs, norm),
            lambda j: reprojection_reference(j, obs, norm),
            joints,
            1.0,
        )


def with_first_view(obs, extr):
    """obs with view 0's extrinsics replaced and every landmark visible."""
    intr = obs.rig.views[0][0]
    rig = hs.CameraRig(views=((intr, extr),) + obs.rig.views[1:])
    return replace(obs, rig=rig, visibility=np.ones_like(obs.visibility))


def assert_reprojection_bitwise(joints, obs, norm, weights):
    assert_bitwise(
        lambda j: _reprojection(j, obs, norm),
        lambda j: reprojection_per_view(j, obs, norm),
        joints,
        weights,
    )


class TestReprojectionBitwise:
    """``_reprojection`` against ``composed.reprojection_per_view``."""

    @PROBLEMS
    @pytest.mark.parametrize("norm", REPROJECTION_NORMS)
    def test_matches_per_view_form(self, frames, seed, batched, norm):
        _, _, joints, obs = problem(frames, seed, batched)
        weights = np.arange(1.0, 4.0) if batched else 1.0
        assert_reprojection_bitwise(joints, obs, norm, weights)

    @pytest.mark.parametrize("views", [1, 8])
    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("norm", REPROJECTION_NORMS)
    def test_one_and_eight_views(self, views, batched, norm):
        _, _, joints, obs = problem(5, 2, batched, views)
        assert obs.num_views == views
        weights = np.arange(1.0, 4.0) if batched else 1.0
        assert_reprojection_bitwise(joints, obs, norm, weights)

    @pytest.mark.parametrize("views", [1, 8])
    @pytest.mark.parametrize("norm", REPROJECTION_NORMS)
    def test_each_view_with_its_own_intrinsics(self, views, norm):
        _, _, joints, obs = problem(5, 2, True, views)
        # fx != fy, and no two views share a focal length or principal point
        rig = hs.CameraRig(views=tuple(
            (replace(intr, fx=intr.fx + 10.0 * v, fy=1.25 * intr.fy - 3.0 * v,
                     cx=intr.cx - v, cy=intr.cy + 2.0 * v), extr)
            for v, (intr, extr) in enumerate(obs.rig.views)
        ))
        assert_reprojection_bitwise(joints, replace(obs, rig=rig), norm, np.arange(1.0, 4.0))

    @pytest.mark.parametrize("views", [2, 8])
    @pytest.mark.parametrize("norm", REPROJECTION_NORMS)
    def test_view_with_every_landmark_behind(self, views, norm):
        _, _, joints, obs = problem(5, 1, False, views)
        # the joints lie within 0.5 m of the origin
        obs = with_first_view(obs, hs.Extrinsics(rotation=np.eye(3), translation=[0.0, 0.0, -1.0]))
        assert not project_one_view(joints, obs.rig.views[0])[2].any()
        assert_reprojection_bitwise(joints, obs, norm, 1.0)

    @pytest.mark.parametrize("views", [1, 2, 8])
    @pytest.mark.parametrize("norm", REPROJECTION_NORMS)
    def test_landmarks_at_and_just_above_min_depth(self, views, norm):
        _, _, joints, obs = problem(5, 3, False, views)
        # view 0 at the origin, looking along +z: about half the joints are
        # behind it, one sits at MIN_DEPTH and one at the next float above
        obs = with_first_view(obs, hs.Extrinsics(rotation=np.eye(3), translation=np.zeros(3)))
        joints = joints.copy()
        joints[0, 0, 2] = MIN_DEPTH
        joints[0, 1, 2] = np.nextafter(MIN_DEPTH, 1.0)
        in_front = project_one_view(joints, obs.rig.views[0])[2]
        assert not in_front[0, 0] and in_front[0, 1]
        assert 0 < in_front.sum() < in_front.size
        assert_reprojection_bitwise(joints, obs, norm, 1.0)
