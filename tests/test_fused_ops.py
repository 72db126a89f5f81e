"""The fused tape ops against the compositions they replaced.

``rotation_matrices``, ``acceleration_loss`` and ``objective._reprojection``
each record one node with a hand-written VJP. ``composed`` keeps the step by
step compositions they replaced. Values must agree bitwise, tape-free and
taped. Gradients must agree within 1e-12 of the reference's largest
component, since the two sum their gradients in different orders.
"""

from dataclasses import replace

import numpy as np
import pytest

import handsmooth as hs
import handsmooth.autodiff as ad
from handsmooth.camera import MIN_DEPTH
from handsmooth.hand_model import SERIES_DERIVATIVE_SQ, SMALL_ANGLE_SQ, rotation_matrices
from handsmooth.objective import REPROJECTION_NORMS, _reprojection

from composed import acceleration_reference, reprojection_reference, rodrigues_reference

PROBLEMS = pytest.mark.parametrize(
    "frames, seed, batched",
    [(frames, seed, batched) for frames in (5, 60) for seed in range(5) for batched in (False, True)],
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


def batch_of(a, seed):
    """a, stacked with two rows perturbed by seeded noise."""
    noise = np.random.default_rng(seed).normal(0.0, 0.01, a.shape)
    return np.stack([a, a + noise, a - noise])


def problem(frames, seed, batched):
    """(axis-angles (..., N, 16, 3), the three acceleration series, joints
    (..., N, 21, 3), obs) of random_problem(frames, 2, seed)."""
    traj, obs, skeleton = hs.random_problem(frames, 2, seed)
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

    @pytest.mark.parametrize(
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
    def test_matches_composition_at_angle_edges(self, theta, series, derivative_series):
        assert ((theta * theta) < SMALL_ANGLE_SQ) == series
        assert ((theta * theta) < SERIES_DERIVATIVE_SQ) == derivative_series
        aa = theta * np.array([[1.0, 2.0, 2.0], [0.0, -0.6, 0.8]]) / [[3.0], [1.0]]
        weights = np.arange(1.0, 19.0).reshape(2, 3, 3) / 9.0
        assert_fused_matches(rotation_matrices, rodrigues_reference, aa, weights)


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
