"""The fused tape ops against the compositions they replaced.

``rotation_matrices``, ``acceleration_loss`` and ``objective._reprojection``
each record one node with a hand-written VJP. ``composed`` keeps the step by
step compositions they replaced. Values must agree bitwise, tape-free and
taped. Gradients must agree within 1e-12 of the reference's largest
component, since the two sum their gradients in different orders.

``composed`` also keeps the earlier fused forms of Rodrigues (stacked) and of
the reprojection (one view at a time), and the objective as it was taped
before FK and the three acceleration terms became one node each. Against
those, values and gradients must agree bit for bit, signed zeros included.
"""

from dataclasses import replace

import numpy as np
import pytest

import handsmooth as hs
import handsmooth.autodiff as ad
from handsmooth.camera import MIN_DEPTH
from handsmooth.hand_model import SERIES_DERIVATIVE_SQ, SMALL_ANGLE_SQ, fk_joints, rotation_matrices
from handsmooth.objective import REPROJECTION_NORMS, TERMS, _reprojection

from composed import (
    acceleration_node,
    acceleration_reference,
    fk_glue,
    glue_objective,
    project_one_view,
    reprojection_per_view,
    reprojection_reference,
    rodrigues_reference,
    rodrigues_stacked,
    sum,
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
        return ad.record_and_backprop(lambda v: sum(fn(v) * weights), x)

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
        return ad.record_and_backprop(lambda v: sum(fn(v) * weights), x)

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

    @PROBLEMS
    def test_equals_single_node_form_bitwise(self, frames, seed, batched):
        _, series, _, _ = problem(frames, seed, batched)
        weights = np.arange(1.0, 4.0) if batched else 1.0
        for s in series:
            assert_bitwise(hs.acceleration_loss, acceleration_node, s, weights)

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


def split(vec, shapes):
    """Consecutive pieces of a flat vector, each reshaped to its shape."""
    pieces, start = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        pieces.append(ad.reshape(vec[start:start + size], shape))
        start += size
    return pieces


def fk_inputs(frames, seed, batched):
    """(beta, orients, positions, joint_rotations (..., N, 15, 3)) of
    random_problem(frames, 2, seed); batched stacks two perturbed copies."""
    traj, _, _ = hs.random_problem(frames, 2, seed)
    parts = (traj.shape, traj.orients, traj.positions, traj.joint_rotations)
    return tuple(batch_of(a, seed) for a in parts) if batched else parts


class TestFusedFKBitwise:
    """``fk_joints``, one node, against ``composed.fk_glue``, the nine nodes
    it replaced."""

    @pytest.mark.parametrize("live_shape", [False, True])
    @pytest.mark.parametrize("rotations", ["(N, 45)", "(N, 15, 3)"])
    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_glue(self, skeleton, seed, batched, rotations, live_shape):
        inputs = fk_inputs(6, seed, batched)
        grad = self.assert_matches_glue(skeleton, inputs, seed, rotations, live_shape)
        assert np.all(grad[:inputs[0].size] != 0.0) == live_shape

    @pytest.mark.parametrize("batched", [False, True])
    def test_signed_zeros_match_glue(self, skeleton, batched):
        """Each level's three products all -0.0, which random inputs never
        make: the axis-angles are +-0.0, so every rotation is the identity,
        and the steps are <= 0 with -0.0 for zero. Only a sum from +0.0
        rounds them as numpy's does, seen through the wrist's -0.0."""
        skeleton = hs.HandSkeleton(skeleton.version, skeleton.parents,
                                   -np.abs(skeleton.rest_offsets), skeleton.shape_basis)
        beta, orients, positions, rotations = fk_inputs(6, 0, batched)
        signs = np.random.default_rng(0).choice([-1.0, 1.0], size=orients.size + rotations.size)
        zeros = np.copysign(0.0, signs)
        inputs = (beta, zeros[:orients.size].reshape(orients.shape), np.full(positions.shape, -0.0),
                  zeros[orients.size:].reshape(rotations.shape))
        for live_shape in (False, True):
            self.assert_matches_glue(skeleton, inputs, 0, "(N, 15, 3)", live_shape)

    @staticmethod
    def assert_matches_glue(skeleton, inputs, seed, rotations, live_shape):
        """Assert that the joints, the loss and the gradient of a weighted
        sum of them are the glue's bytes; return the gradient."""
        lead = inputs[1].shape[:-1]
        shapes = [a.shape for a in inputs]
        shapes[3] = lead + ((45,) if rotations == "(N, 45)" else (15, 3))
        glue_shapes = shapes[:3] + [lead + (15, 3)]
        flat = np.concatenate([a.ravel() for a in inputs])
        weights = np.random.default_rng(seed).normal(size=lead + (21, 3))

        def objective(fk, shapes):
            def fn(vec):
                beta, *rest = split(vec, shapes)
                beta = beta if live_shape else ad.value_of(beta)
                return sum(fk(skeleton, beta, *rest) * weights)
            return fn

        plain = np.asarray(fk_joints(skeleton, *split(flat, shapes)))
        assert plain.tobytes() == np.asarray(fk_glue(skeleton, *split(flat, glue_shapes))).tobytes()
        loss, grad = ad.record_and_backprop(objective(fk_joints, shapes), flat)
        glue_loss, glue_grad = ad.record_and_backprop(objective(fk_glue, glue_shapes), flat)
        assert np.float64(loss).tobytes() == np.float64(glue_loss).tobytes()
        assert grad.tobytes() == glue_grad.tobytes()
        return grad

    def test_four_leaves_record_one_node(self, skeleton):
        tape = ad.Tape()
        leaves = [ad.Tensor(a, tape) for a in fk_inputs(6, 0, False)]
        joints = fk_joints(skeleton, *leaves)
        assert tape.nodes == leaves + [joints]


# (acce_pose, acce_orients, acce_position, reprojection): the defaults, weights
# that are not powers of two, so that every product by a weight rounds, each
# single zero weight, and every acceleration weight zero
WEIGHT_SETS = pytest.mark.parametrize("weights", [
    hs.LossWeights(),
    hs.LossWeights(0.3, 0.7, 1.3, 0.9),
    hs.LossWeights(acce_pose=0.0),
    hs.LossWeights(acce_orients=0.0),
    hs.LossWeights(acce_position=0.0),
    hs.LossWeights(reprojection=0.0),
    hs.LossWeights(0.0, 0.0, 0.0, 1.0),
], ids=["default", "uneven", "pose0", "orients0", "position0", "reprojection0", "accel0"])


def objective_bytes(make, obs, skeleton, weights, norm, optimize_shape, flat):
    """The bytes of the loss, the terms, the gradient and the tape-free
    values of five rows near ``flat``, through the objective ``make`` builds."""
    terms = {}
    objective = make(obs, skeleton, weights, norm, terms, optimize_shape)
    loss, grad = ad.record_and_backprop(objective, flat)
    block = flat + np.random.default_rng(0).normal(0.0, 1e-3, (5, flat.size))
    block[0] = flat
    rows = np.asarray(objective(block))
    return {"loss": np.float64(loss).tobytes(),
            "terms": [np.float64(terms[k]).tobytes() for k in TERMS],
            "gradient": grad.tobytes(), "rows": rows.tobytes()}


class TestFusedObjectiveBitwise:
    """``make_flat_objective`` (12 nodes) against ``composed.glue_objective``
    (23, 28 with a live shape), loss, terms, gradient and tape-free rows bit
    for bit."""

    @WEIGHT_SETS
    @pytest.mark.parametrize("norm", REPROJECTION_NORMS)
    @pytest.mark.parametrize("optimize_shape", [False, True])
    def test_matches_glue(self, weights, norm, optimize_shape):
        for seed in range(3):
            traj, obs, skeleton = hs.random_problem(5, 2, seed)
            args = (obs, skeleton, weights, norm, optimize_shape, traj.to_flat())
            assert (objective_bytes(hs.make_flat_objective, *args)
                    == objective_bytes(glue_objective, *args)), seed

    def test_all_zero_weights_gradient_has_no_sign_bit(self):
        # the glue's all-zero total, sum(orients * orients) * 0.0, gave -0.0
        # wherever an orient was negative; everything else is its bytes
        weights = hs.LossWeights(0.0, 0.0, 0.0, 0.0)
        for seed in range(3):
            traj, obs, skeleton = hs.random_problem(5, 2, seed)
            assert np.any(traj.orients < 0.0)
            args = (obs, skeleton, weights, "l2", True, traj.to_flat())
            ours = objective_bytes(hs.make_flat_objective, *args)
            glue = objective_bytes(glue_objective, *args)
            assert ours.pop("gradient") == bytes(8 * traj.to_flat().size)  # every entry +0.0
            glue.pop("gradient")
            assert ours == glue
