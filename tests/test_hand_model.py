"""Skeleton, rotations, shape scaling, and forward kinematics.

The FK oracle below is an independent reimplementation on top of
scipy.spatial.transform.Rotation; the package's own code never touches scipy.
"""

import importlib.util
import json
import pathlib

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

import handsmooth as hs
import handsmooth.autodiff as ad
from handsmooth.errors import ModelFileError
from handsmooth.formats import record_to_dict
from handsmooth.hand_model import (
    SMALL_ANGLE_SQ,
    default_model_dict,
    fk_joints,
    rotation_matrices,
    skeleton_from_dict,
)

from composed import bone_scales_taped, concat, matmul, stack, sum

MODEL_JSON = (
    pathlib.Path(__file__).parent.parent
    / "src"
    / "handsmooth"
    / "data"
    / "hand_model_v1.json"
)
GEN_HAND_MODEL = pathlib.Path(__file__).parent.parent / "tools" / "gen_hand_model.py"


def fk_oracle(skeleton, beta, orient, position, joint_rotations):
    """Brute-force FK of one frame: scipy rotations, explicit parent recursion."""
    scales = np.exp(skeleton.shape_basis @ beta)
    rot = {0: Rotation.from_rotvec(orient).as_matrix()}
    pos = {0: np.array(position, dtype=float)}
    slot = {j: k for k, j in enumerate(np.sort(skeleton.chains[:, :-1], axis=None))}
    for j in range(1, 21):
        parent = skeleton.parents[j]
        offset = scales[j] * skeleton.rest_offsets[j]
        pos[j] = pos[parent] + rot[parent] @ offset
        if j in slot:
            aa = joint_rotations[slot[j]]
            rot[j] = rot[parent] @ Rotation.from_rotvec(aa).as_matrix()
    return np.stack([pos[j] for j in range(21)])


def fk_reference(skeleton, beta, orients, positions, joint_rotations):
    """FK by a walk over the joints, one parent at a time, on tape primitives:
    the per-joint formulation whose values the chain-depth walk of
    ``fk_joints`` must reproduce bitwise, and whose gradients, which the sweep
    derives by the chain rule, its hand-written VJP must reproduce to within
    rounding."""
    scales = bone_scales_taped(skeleton, beta)
    lead = ad.value_of(orients).shape[:-1]  # (..., N)
    aa_all = concat([ad.reshape(orients, lead + (1, 3)), joint_rotations], axis=-2)
    rots = rotation_matrices(aa_all)  # (..., N, 16, 3, 3)
    articulated = np.sort(skeleton.chains[:, :-1], axis=None)
    slot = {int(j): k + 1 for k, j in enumerate(articulated)}
    world_rot = {0: rots[..., 0, :, :]}
    world_pos = {0: positions}
    for j in range(1, 21):
        p = int(skeleton.parents[j])
        offset = scales[..., j : j + 1] * skeleton.rest_offsets[j]  # (..., 3)
        rp = world_rot[p]
        step = ad.reshape(offset, lead[:-1] + (1, 1, 3))
        world_pos[j] = world_pos[p] + sum(rp * step, axis=-1)
        if j in slot:
            world_rot[j] = matmul(rp, rots[..., slot[j], :, :])
    return stack([world_pos[j] for j in range(21)], axis=-2)


def random_frames(rng, n, scale=0.4):
    """(orients, positions, joint_rotations) of n random frames."""
    return (
        rng.normal(0.0, scale, (n, 3)),
        rng.normal(0.0, 0.1, (n, 3)),
        rng.normal(0.0, scale, (n, 15, 3)),
    )


def fk(skeleton, beta, orients, positions, joint_rotations):
    return np.asarray(fk_joints(skeleton, beta, orients, positions, joint_rotations))


class TestRotations:
    def test_zero_is_identity_exactly(self):
        assert np.array_equal(rotation_matrices(np.zeros(3)), np.eye(3))

    def test_quarter_turn_about_z_sends_x_to_y(self):
        r = rotation_matrices(np.array([0.0, 0.0, np.pi / 2]))
        assert np.allclose(r @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-12)

    def test_orthonormal_and_proper(self):
        rng = np.random.default_rng(1)
        r = rotation_matrices(rng.normal(0.0, 2.0, (20, 3)))
        assert np.allclose(np.swapaxes(r, -1, -2) @ r, np.eye(3), atol=1e-12)
        assert np.allclose(np.linalg.det(r), 1.0, atol=1e-12)

    def test_matches_scipy_batch(self):
        rng = np.random.default_rng(2)
        aa = rng.normal(0.0, 1.5, (50, 3))
        ours = rotation_matrices(aa)
        theirs = Rotation.from_rotvec(aa).as_matrix()
        assert np.allclose(ours, theirs, atol=1e-12)

    def test_small_angle_branch_matches_scipy(self):
        aa = np.array(
            [
                [1e-9, 0.0, 0.0],
                [0.0, -3e-10, 4e-10],
                [1e-12, 1e-12, 1e-12],
                [0.0, 0.0, 0.0],
            ]
        )
        assert np.allclose(
            rotation_matrices(aa), Rotation.from_rotvec(aa).as_matrix(), atol=1e-15
        )

    def test_half_turn_sign_ambiguity(self):
        axis = np.array([1.0, 2.0, 2.0]) / 3.0
        assert np.allclose(
            rotation_matrices(np.pi * axis),
            rotation_matrices(-np.pi * axis),
            atol=1e-12,
        )

    @pytest.mark.parametrize(
        "theta, series",
        [
            (0.0, True),
            (0.999e-8, True),  # just below the series switch at 1e-8 rad
            (1.001e-8, False),  # just above it
            (0.999e-2, False),  # either side of the VJP's derivative switch
            (1.001e-2, False),
            (np.pi - 1e-7, False),
            (-(np.pi - 1e-7), False),
        ],
    )
    def test_gradient_at_angle_edges(self, theta, series):
        axis = np.array([1.0, 2.0, 2.0]) / 3.0
        assert ((theta * theta) < SMALL_ANGLE_SQ) == series
        weights = np.arange(1.0, 10.0).reshape(3, 3) / 9.0

        def fn(p):
            return sum(rotation_matrices(p) * weights, axis=(-2, -1))

        assert ad.check_gradient(fn, theta * axis) < 1e-9


class TestCanonicalize:
    def test_rotation_unchanged(self):
        # 23 of these 30 vectors turn by more than 2 pi
        rng = np.random.default_rng(4)
        aa = rng.normal(0.0, 5.0, (30, 3))
        assert np.allclose(
            rotation_matrices(aa), Rotation.from_rotvec(aa).as_matrix(), atol=1e-12
        )


class TestSkeletonStructure:
    def test_basic_counts(self, skeleton):
        assert skeleton.chains.shape == (5, 4)
        assert not skeleton.chains.flags.writeable
        assert tuple(skeleton.chains[:, -1]) == (4, 8, 12, 16, 20)
        assert skeleton.chains[:, :-1].size == 15
        assert skeleton.parents[0] == -1

    def test_five_linear_chains(self, skeleton):
        roots = [j for j in range(1, 21) if skeleton.parents[j] == 0]
        assert len(roots) == 5
        walked = []
        for root in roots:
            chain = [root]
            while True:
                children = [j for j in range(21) if skeleton.parents[j] == chain[-1]]
                if not children:
                    break
                assert len(children) == 1
                chain.append(children[0])
            assert len(chain) == 4
            walked.append(chain)
        assert np.array_equal(skeleton.chains, walked)

    def test_fingertips_carry_no_rotation_slot(self, skeleton):
        tips = set(skeleton.chains[:, -1].tolist())
        articulated = set(skeleton.chains[:, :-1].ravel().tolist())
        assert tips.isdisjoint(articulated)
        assert sorted(tips | articulated) == list(range(1, 21))

    def test_invalid_parents_rejected(self, skeleton):
        bad = np.array(skeleton.parents)
        bad[5] = 9  # forward reference
        with pytest.raises(ValueError):
            hs.HandSkeleton(
                version=skeleton.version,
                parents=bad,
                rest_offsets=skeleton.rest_offsets,
                shape_basis=skeleton.shape_basis,
            )

    def test_oversized_basis_rows_rejected(self, skeleton):
        with pytest.raises(ValueError):
            hs.HandSkeleton(
                version=skeleton.version,
                parents=skeleton.parents,
                rest_offsets=skeleton.rest_offsets,
                shape_basis=skeleton.shape_basis * 5.0,
            )


class TestShape:
    def test_zero_beta_is_identity(self, skeleton):
        scales = np.asarray(hs.bone_scales(skeleton, np.zeros(10)))
        assert np.array_equal(scales, np.ones(21))

    def test_scales_match_direct_formula(self, skeleton):
        rng = np.random.default_rng(6)
        beta = rng.normal(0.0, 1.0, 10)
        ours = np.asarray(hs.bone_scales(skeleton, beta))
        direct = np.exp(skeleton.shape_basis @ beta)
        assert np.allclose(ours, direct, atol=1e-15)

    def test_opposite_betas_cancel(self, skeleton):
        rng = np.random.default_rng(7)
        beta = rng.normal(0.0, 1.0, 10)
        up = np.asarray(hs.bone_scales(skeleton, beta))
        down = np.asarray(hs.bone_scales(skeleton, -beta))
        assert np.allclose(up * down, 1.0, atol=1e-12)

    def test_scales_are_bounded_multiplicatively(self, skeleton):
        # row norms <= 0.1 and |beta| <= 3 bound log-scales by 0.3 per row
        rng = np.random.default_rng(8)
        beta = rng.uniform(-3.0, 3.0, 10)
        scales = np.asarray(hs.bone_scales(skeleton, beta))
        assert np.all(scales > np.exp(-0.3 * np.sqrt(10)) - 1e-12)
        assert np.all(scales < np.exp(0.3 * np.sqrt(10)) + 1e-12)


class TestForwardKinematics:
    def test_flat_pose_accumulates_offsets(self, skeleton):
        zeros = np.zeros((1, 3))
        joints = fk(skeleton, np.zeros(10), zeros, zeros, np.zeros((1, 15, 3)))[0]
        expected = np.zeros((21, 3))
        for j in range(1, 21):
            expected[j] = expected[skeleton.parents[j]] + skeleton.rest_offsets[j]
        assert np.allclose(joints, expected, atol=1e-15)

    def test_matches_oracle_on_random_poses(self, skeleton):
        rng = np.random.default_rng(9)
        for _ in range(10):
            beta = rng.normal(0.0, 0.8, 10)
            frames = random_frames(rng, 3)
            ours = fk(skeleton, beta, *frames)
            for t in range(3):
                oracle = fk_oracle(skeleton, beta, *(a[t] for a in frames))
                assert np.allclose(ours[t], oracle, atol=1e-12)

    def test_bone_lengths_are_pose_invariant(self, skeleton):
        rng = np.random.default_rng(10)
        beta = rng.normal(0.0, 0.5, 10)
        scales = np.exp(skeleton.shape_basis @ beta)
        joints = fk(skeleton, beta, *random_frames(rng, 5))
        for j in range(1, 21):
            length = np.linalg.norm(joints[:, j] - joints[:, skeleton.parents[j]], axis=-1)
            expected = scales[j] * np.linalg.norm(skeleton.rest_offsets[j])
            assert np.all(np.abs(length - expected) < 1e-10)

    def test_rigid_motion_equivariance(self, skeleton):
        rng = np.random.default_rng(11)
        orients, positions, rots = random_frames(rng, 3)
        g_rot = Rotation.from_rotvec(rng.normal(0.0, 1.0, 3))
        g_t = rng.normal(0.0, 0.5, 3)
        moved_orients = (g_rot * Rotation.from_rotvec(orients)).as_rotvec()
        moved_positions = positions @ g_rot.as_matrix().T + g_t
        base = fk(skeleton, np.zeros(10), orients, positions, rots)
        transformed = fk(skeleton, np.zeros(10), moved_orients, moved_positions, rots)
        assert np.allclose(transformed, base @ g_rot.as_matrix().T + g_t, atol=1e-10)

    def test_batched_fk_matches_per_frame(self, skeleton):
        rng = np.random.default_rng(12)
        n = 4
        beta = rng.normal(0.0, 0.5, 10)
        orients = rng.normal(0.0, 0.4, (n, 3))
        positions = rng.normal(0.0, 0.1, (n, 3))
        rots = rng.normal(0.0, 0.4, (n, 15, 3))
        batched = fk(skeleton, beta, orients, positions, rots)
        assert batched.shape == (n, 21, 3)
        for t in range(n):
            one = slice(t, t + 1)
            single = fk(skeleton, beta, orients[one], positions[one], rots[one])
            assert np.allclose(batched[t], single[0], atol=1e-14)

    def test_shared_shape_batch_runs_distinct_frames_once_bitwise(self, skeleton, monkeypatch):
        # rows of one shape vector: single frame-coordinate steps, a frame
        # copied to another index, and two frames that differ only in the sign
        # of a zero position, which must not be merged
        traj, _, _ = hs.random_problem(5, 2, 0)
        frames = np.concatenate(
            [traj.orients, traj.positions, traj.joint_rotations.reshape(5, 45)], axis=1
        )
        frames[2, 3] = 0.0
        batch = np.tile(frames, (6, 1, 1))
        batch[1, 0, 7] += 1e-6
        batch[2, 4, 40] -= 1e-6
        batch[3, 3] = batch[3, 1]
        batch[4, 2, 3] = -0.0
        batch[5, 1, 0] += 1e-6
        beta = np.tile(traj.shape, (6, 1))
        calls, rodrigues = [], hs.hand_model._rodrigues

        def counted(w):
            calls.append(w.shape)
            return rodrigues(w)

        monkeypatch.setattr(hs.hand_model, "_rodrigues", counted)
        joints = fk(skeleton, beta, batch[..., 0:3], batch[..., 3:6], batch[..., 6:])
        assert calls == [(5 + 4, 16, 3)]  # the base frames, three steps and the -0.0
        assert joints.shape == (6, 5, 21, 3)
        for b in range(6):
            row = fk(skeleton, traj.shape, batch[b, :, 0:3], batch[b, :, 3:6], batch[b, :, 6:])
            assert row.tobytes() == joints[b].tobytes(), b
        assert joints[4, 2, 0, 0].tobytes() != joints[0, 2, 0, 0].tobytes()

    def test_wrist_is_position_exactly(self, skeleton):
        rng = np.random.default_rng(13)
        orients, positions, rots = random_frames(rng, 3)
        joints = fk(skeleton, np.zeros(10), orients, positions, rots)
        assert np.array_equal(joints[:, 0], positions)


def interleaved(skeleton):
    """The skeleton renumbered depth-major: joint (finger f, depth d) becomes
    1 + 5 d + f, so the chains interleave. Returns (skeleton, old index of
    each new joint, old rotation slot of each new rotation slot)."""
    new_to_old = [0] + [1 + 4 * f + d for d in range(4) for f in range(5)]
    parents = [-1] + [0 if d == 0 else 1 + 5 * (d - 1) + f for d in range(4) for f in range(5)]
    renumbered = hs.HandSkeleton(
        version=skeleton.version,
        parents=np.array(parents),
        rest_offsets=skeleton.rest_offsets[new_to_old],
        shape_basis=skeleton.shape_basis[new_to_old],
    )
    slot_to_old = [3 * f + d for d in range(3) for f in range(5)]
    return renumbered, new_to_old, slot_to_old


def fk_inputs(frames, seed, batched):
    """(beta, orients, positions, joint_rotations) of random_problem(frames, 2,
    seed); batched adds a leading axis of the problem and two perturbed rows."""
    traj, _, _ = hs.random_problem(frames, 2, seed)
    parts = (traj.shape, traj.orients, traj.positions, traj.joint_rotations)
    if not batched:
        return parts
    rng = np.random.default_rng(seed)
    return tuple(
        np.stack([a, a + rng.normal(0.0, 0.1, a.shape), a - rng.normal(0.0, 0.1, a.shape)])
        for a in parts
    )


def fk_objective(fk, skeleton, frames, seed, live_shape=True):
    """A seeded weighted sum of the joints through ``fk``, as a function of a
    flat trajectory vector (..., P): a scalar on the tape, (B,) values for
    the blocks check_gradient evaluates."""
    weights = np.random.default_rng(seed).normal(size=(frames, 21, 3))

    def objective(vec):
        lead = ad.value_of(vec).shape[:-1]
        beta = vec[..., :10] if live_shape else ad.value_of(vec[..., :10])
        per_frame = ad.reshape(vec[..., 10:], lead + (frames, 51))
        rots = ad.reshape(per_frame[..., 6:51], lead + (frames, 15, 3))
        joints = fk(skeleton, beta, per_frame[..., 0:3], per_frame[..., 3:6], rots)
        return sum(joints * weights, axis=(-3, -2, -1))

    return objective


def assert_gradient_matches_reference(skeleton, frames, seed, live_shape):
    """fk_joints against fk_reference at random_problem(frames, 2, seed):
    equal losses, and gradients within 1e-12 of the reference's largest
    component, since the two sum their gradients in different orders.
    Returns the gradient."""
    flat = hs.random_problem(frames, 2, seed)[0].to_flat()
    loss, grad = ad.record_and_backprop(
        fk_objective(fk_joints, skeleton, frames, seed, live_shape), flat
    )
    ref_loss, ref_grad = ad.record_and_backprop(
        fk_objective(fk_reference, skeleton, frames, seed, live_shape), flat
    )
    assert loss == ref_loss
    assert np.all(np.abs(grad - ref_grad) <= 1e-12 * np.abs(ref_grad).max())
    return grad


class TestChainDepthFK:
    """fk_joints walks the chain table by depth and records the walk as one
    node; the per-joint walk of fk_reference is the formulation it must
    reproduce, values bit for bit and gradients to within rounding."""

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("frames", [5, 60])
    def test_values_equal_reference_bitwise(self, skeleton, frames, seed, batched):
        inputs = fk_inputs(frames, seed, batched)
        ours = np.asarray(fk_joints(skeleton, *inputs))
        reference = np.asarray(fk_reference(skeleton, *inputs))
        assert ours.shape == reference.shape == inputs[1].shape[:-1] + (21, 3)
        assert ours.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("frames", [5, 60])
    def test_frozen_shape_gradient_equals_reference_bitwise(self, skeleton, frames, seed):
        # within rounding, not bitwise: the fused walk sums in its own order
        grad = assert_gradient_matches_reference(skeleton, frames, seed, live_shape=False)
        assert np.all(grad[:10] == 0.0)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("frames", [5, 60])
    def test_live_shape_gradient_matches_reference(self, skeleton, frames, seed):
        grad = assert_gradient_matches_reference(skeleton, frames, seed, live_shape=True)
        assert np.all(grad[:10] != 0.0)

    @pytest.mark.parametrize("live_shape", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_renumbered_gradient_matches_reference(self, skeleton, seed, live_shape):
        # the walk writes its levels through the chain table and reads their
        # gradients back through it, and its rotations through the slot table
        renumbered, _, _ = interleaved(skeleton)
        assert_gradient_matches_reference(renumbered, 6, seed, live_shape)

    @pytest.mark.parametrize("renumber", [False, True])
    @pytest.mark.parametrize("angle", [0.0, np.pi - 1e-7])
    def test_gradient_matches_finite_differences_at_angle_edges(self, skeleton, angle, renumber):
        # every wrist and joint rotation at zero, or at angle near pi about a
        # random axis
        if renumber:
            skeleton, _, _ = interleaved(skeleton)
        traj, _, _ = hs.random_problem(3, 2, 0)
        axes = np.random.default_rng(1).normal(size=(3, 16, 3))
        aa = angle * axes / np.linalg.norm(axes, axis=-1, keepdims=True)
        frames = np.concatenate([aa[:, 0], traj.positions, aa[:, 1:].reshape(3, 45)], axis=1)
        flat = np.concatenate([traj.shape, frames.ravel()])
        objective = fk_objective(fk_joints, skeleton, 3, 0)
        assert ad.check_gradient(objective, flat) < 1e-8

    def test_table_is_derived_from_parents(self, skeleton):
        renumbered, new_to_old, slot_to_old = interleaved(skeleton)
        assert renumbered.chains.tolist() == [[f + 1, f + 6, f + 11, f + 16] for f in range(5)]
        beta, orients, positions, rots = fk_inputs(6, 3, batched=False)
        canonical = fk(skeleton, beta, orients, positions, rots)
        permuted = fk(renumbered, beta, orients, positions, rots[:, slot_to_old])
        assert np.allclose(permuted, canonical[:, new_to_old], rtol=0.0, atol=1e-12)
        reference = np.asarray(
            fk_reference(renumbered, beta, orients, positions, rots[:, slot_to_old])
        )
        assert np.allclose(permuted, reference, rtol=0.0, atol=1e-12)


class TestModelFile:
    def test_committed_model_equals_generator(self):
        with open(MODEL_JSON) as f:
            on_disk = json.load(f)
        assert on_disk == default_model_dict()

    def test_generator_reproduces_model_file_byte_for_byte(self, tmp_path):
        spec = importlib.util.spec_from_file_location("gen_hand_model", GEN_HAND_MODEL)
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        gen.main(tmp_path / "model.json")
        assert (tmp_path / "model.json").read_bytes() == MODEL_JSON.read_bytes()

    def test_load_skeleton_roundtrip(self, skeleton):
        again = skeleton_from_dict(record_to_dict(skeleton))
        assert np.array_equal(again.rest_offsets, skeleton.rest_offsets)
        assert np.array_equal(again.shape_basis, skeleton.shape_basis)
        assert np.array_equal(again.parents, skeleton.parents)

    def test_unknown_model_name(self):
        with pytest.raises(ModelFileError):
            hs.load_skeleton("no_such_model")

    def test_missing_field_rejected(self, skeleton):
        d = record_to_dict(skeleton)
        del d["rest_offsets"]
        with pytest.raises(ModelFileError):
            skeleton_from_dict(d)

    def test_wrong_version_rejected(self, skeleton):
        d = record_to_dict(skeleton)
        d["version"] = "999"
        with pytest.raises(ModelFileError):
            skeleton_from_dict(d)
