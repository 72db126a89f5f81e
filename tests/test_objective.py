"""Composite loss: acceleration terms, reprojection term, weighting,
parameter flattening, and invariances."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

import handsmooth as hs
import handsmooth.autodiff as ad
from handsmooth.errors import DegenerateObservationError
from handsmooth.formats import read_json, trajectory_from_dict, trajectory_to_dict
from handsmooth.hand_model import NUM_SHAPE_PARAMS
from handsmooth.objective import FRAME_PARAMS, TERMS, acceleration_loss

from conftest import constant_velocity_motion, exact_sequence, load_gen_fixtures


def reprojection_oracle(traj, obs, skeleton):
    """Brute-force per-landmark mean pixel distance via the scalar projector."""
    joints = hs.trajectory_joints(traj, skeleton)
    total, count = 0.0, 0
    for t in range(traj.num_frames):
        for vi, view in enumerate(obs.rig.views):
            for j in range(21):
                if not obs.visibility[t, vi, j]:
                    continue
                try:
                    uv = hs.project(joints[t, j], view)
                except hs.BehindCameraError:
                    continue
                d = uv - obs.landmarks_2d[t, vi, j]
                total += float(np.hypot(d[0], d[1]))
                count += 1
    return total / count


class TestAccelerationLoss:
    def test_constant_series_is_zero(self):
        assert float(acceleration_loss(np.full((6, 3), 1.7))) == 0.0

    def test_linear_ramp_is_zero_within_smoothing(self):
        t = np.arange(8.0)[:, None]
        series = 0.1 * t + np.array([0.3, -0.2, 0.9])
        assert abs(float(acceleration_loss(series))) <= 1e-8

    def test_unit_spike_is_one(self):
        value = float(acceleration_loss(np.array([[0.0], [0.0], [1.0]])))
        assert abs(value - 1.0) <= 1.01e-8

    def test_hand_computed_mean(self):
        # second differences: [1, -2]; smoothed |.| mean ~ 1.5
        series = np.array([[0.0], [0.0], [1.0], [0.0]])
        value = float(acceleration_loss(series))
        assert abs(value - 1.5) <= 1.01e-8

    def test_translation_invariance(self):
        rng = np.random.default_rng(0)
        series = rng.normal(0.0, 0.2, (10, 4))
        shifted = series + np.array([1.0, -2.0, 0.5, 3.0])
        a = float(acceleration_loss(series))
        b = float(acceleration_loss(shifted))
        assert abs(a - b) < 1e-12

    def test_needs_three_frames(self):
        with pytest.raises(ValueError):
            acceleration_loss(np.zeros((2, 3)))


class TestReprojectionLoss:
    def test_exact_observations_score_zero(self):
        gt, _, obs, skeleton = exact_sequence(constant_velocity_motion(4))
        assert hs.reprojection_loss(gt, obs, skeleton) <= 1e-9

    def test_uniform_shift_gives_its_norm(self):
        gt, _, obs, skeleton = exact_sequence(constant_velocity_motion(4))
        shifted = hs.SequenceObservation(
            landmarks_2d=obs.landmarks_2d + np.array([3.0, 4.0]),
            visibility=obs.visibility,
            rig=obs.rig,
        )
        value = hs.reprojection_loss(gt, shifted, skeleton)
        assert abs(value - 5.0) <= 1.01e-8

    def test_matches_bruteforce_oracle(self):
        traj, obs, skeleton = hs.random_problem(4, 2, seed=31)
        ours = hs.reprojection_loss(traj, obs, skeleton)
        oracle = reprojection_oracle(traj, obs, skeleton)
        assert abs(ours - oracle) < 2e-8

    def test_l2_squared_norm(self):
        gt, _, obs, skeleton = exact_sequence(constant_velocity_motion(4))
        shifted = hs.SequenceObservation(
            landmarks_2d=obs.landmarks_2d + np.array([3.0, 4.0]),
            visibility=obs.visibility,
            rig=obs.rig,
        )
        value = hs.reprojection_loss(gt, shifted, skeleton, norm="l2_squared")
        assert abs(value - 25.0) < 1e-7

    def test_l1_norm(self):
        gt, _, obs, skeleton = exact_sequence(constant_velocity_motion(4))
        shifted = hs.SequenceObservation(
            landmarks_2d=obs.landmarks_2d + np.array([3.0, 4.0]),
            visibility=obs.visibility,
            rig=obs.rig,
        )
        value = hs.reprojection_loss(gt, shifted, skeleton, norm="l1")
        assert abs(value - 7.0) <= 1e-7

    def test_unknown_norm_rejected(self):
        gt, _, obs, skeleton = exact_sequence(constant_velocity_motion(4))
        with pytest.raises(ValueError):
            hs.reprojection_loss(gt, obs, skeleton, norm="linf")

    def test_all_behind_camera_is_degenerate(self, skeleton):
        traj, obs, _ = hs.random_problem(3, 1, seed=2)
        # camera 5 m down the optical axis: the whole hand sits behind it
        intr = obs.rig.views[0][0]
        extr = hs.Extrinsics(
            rotation=np.eye(3), translation=np.array([0.0, 0.0, -5.0])
        )
        behind = hs.SequenceObservation(
            landmarks_2d=obs.landmarks_2d,
            visibility=np.ones_like(obs.visibility),
            rig=hs.CameraRig(views=((intr, extr),)),
        )
        with pytest.raises(DegenerateObservationError):
            hs.reprojection_loss(traj, behind, skeleton)

    def test_rigid_world_reparameterization_invariance(self, skeleton):
        # moving the whole scene and the cameras together leaves pixels alone
        traj, obs, _ = hs.random_problem(4, 2, seed=8)
        g = Rotation.from_rotvec([0.3, -0.2, 0.5])
        g_m = g.as_matrix()
        g_t = np.array([0.4, -0.1, 0.25])
        orients = Rotation.from_rotvec(np.array(traj.orients))
        moved = hs.TrajectoryParams(
            shape=traj.shape,
            orients=(g * orients).as_rotvec(),
            positions=traj.positions @ g_m.T + g_t,
            joint_rotations=traj.joint_rotations,
        )
        views = []
        for intr, extr in obs.rig.views:
            views.append(
                (
                    intr,
                    hs.Extrinsics(
                        rotation=extr.rotation @ g_m.T,
                        translation=extr.translation - extr.rotation @ g_m.T @ g_t,
                    ),
                )
            )
        moved_obs = hs.SequenceObservation(
            landmarks_2d=obs.landmarks_2d,
            visibility=obs.visibility,
            rig=hs.CameraRig(views=tuple(views)),
        )
        a = hs.reprojection_loss(traj, obs, skeleton)
        b = hs.reprojection_loss(moved, moved_obs, skeleton)
        assert abs(a - b) < 1e-8


def moved_world(traj, obs, g_m, g_t, orients):
    """The scene mapped by p -> g_m p + g_t, with every camera moved along, so
    each camera sees what it saw; ``orients`` are the mapped wrist orients."""
    moved = hs.TrajectoryParams(
        shape=traj.shape,
        orients=orients,
        positions=traj.positions @ g_m.T + g_t,
        joint_rotations=traj.joint_rotations,
    )
    views = tuple(
        (intr, hs.Extrinsics(
            rotation=extr.rotation @ g_m.T,
            translation=extr.translation - extr.rotation @ g_m.T @ g_t,
        ))
        for intr, extr in obs.rig.views
    )
    return moved, replace(obs, rig=hs.CameraRig(views=views))


class TestInvariance:
    """Property tests on random_problem(6, 3, s): each map of the scene keeps
    the loss terms within 1e-12."""

    @pytest.mark.parametrize("seed", range(4))
    def test_world_and_rig_translation_keeps_every_term(self, seed):
        traj, obs, skeleton = hs.random_problem(6, 3, seed)
        g_t = np.random.default_rng(seed).normal(0.0, 0.3, 3)
        before = hs.loss_components(traj, obs, skeleton)
        after = hs.loss_components(*moved_world(traj, obs, np.eye(3), g_t, traj.orients), skeleton)
        for name, value in before.items():
            assert abs(after[name] - value) <= 1e-12, name

    @pytest.mark.parametrize("seed", range(4))
    def test_mirroring_hand_and_skeleton_keeps_every_term(self, seed):
        traj, obs, skeleton = hs.random_problem(6, 3, seed)
        before = hs.loss_components(traj, obs, skeleton)
        after = hs.loss_components(*hs.mirror_hand(traj, obs), hs.mirror_skeleton(skeleton))
        for name, value in before.items():
            assert abs(after[name] - value) <= 1e-12, name

    @pytest.mark.parametrize("seed", range(5))
    def test_world_and_rig_rotation_keeps_reprojection_and_pose(self, seed):
        # acce_orients and acce_position are not rotation-invariant by
        # construction (see acceleration_loss), so only these two are compared
        traj, obs, skeleton = hs.random_problem(6, 3, seed)
        g = Rotation.from_rotvec(np.random.default_rng(seed).normal(0.0, 1.0, 3))
        orients = (g * Rotation.from_rotvec(np.array(traj.orients))).as_rotvec()
        before = hs.loss_components(traj, obs, skeleton)
        after = hs.loss_components(
            *moved_world(traj, obs, g.as_matrix(), np.zeros(3), orients), skeleton
        )
        for name in ("loss_2d", "acce_pose"):
            assert abs(after[name] - before[name]) <= 1e-12, name


class TestTotalLoss:
    def test_default_weights(self):
        w = hs.LossWeights()
        assert (w.acce_pose, w.acce_orients, w.acce_position, w.reprojection) == (
            0.5,
            0.5,
            0.5,
            1.0,
        )

    def test_weighted_sum_of_components(self, skeleton):
        traj, obs, _ = hs.random_problem(5, 2, seed=17)
        weights = hs.LossWeights(
            acce_pose=0.5, acce_orients=0.5, acce_position=0.5, reprojection=1.0
        )
        comps = hs.loss_components(traj, obs, skeleton, weights)
        n = traj.num_frames
        expected = (
            weights.acce_pose * comps["acce_pose"]
            + weights.acce_orients * comps["acce_orients"]
            + weights.acce_position * comps["acce_position"]
            + weights.reprojection * comps["loss_2d"]
        )
        assert comps["total"] == pytest.approx(expected, rel=1e-12)
        # components equal their standalone public computations
        assert comps["acce_pose"] == pytest.approx(
            float(acceleration_loss(traj.joint_rotations.reshape(n, -1))), rel=1e-12
        )
        assert comps["acce_orients"] == pytest.approx(
            float(acceleration_loss(traj.orients)), rel=1e-12
        )
        assert comps["acce_position"] == pytest.approx(
            float(acceleration_loss(traj.positions)), rel=1e-12
        )
        assert comps["loss_2d"] == pytest.approx(
            hs.reprojection_loss(traj, obs, skeleton), rel=1e-12
        )

    def test_zero_weights_give_zero_total(self, skeleton):
        traj, obs, _ = hs.random_problem(3, 1, seed=3)
        weights = hs.LossWeights(0.0, 0.0, 0.0, 0.0)
        assert hs.loss_components(traj, obs, skeleton, weights)["total"] == 0.0

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            hs.LossWeights(acce_pose=-0.1)

    def test_flat_objective_equals_total_loss(self, skeleton):
        traj, obs, _ = hs.random_problem(4, 1, seed=9)
        objective = hs.make_flat_objective(obs, skeleton)
        value, grad = hs.record_and_backprop(objective, traj.to_flat())
        assert value == pytest.approx(
            hs.loss_components(traj, obs, skeleton)["total"], rel=1e-12
        )
        assert grad.shape == traj.to_flat().shape


# (seed, view hidden in every frame, weights, norm) of random_problem(5, 2, seed)
BLOCK_CASES = (
    [(seed, None, hs.LossWeights(), "l2") for seed in range(5)]
    + [(0, 1, hs.LossWeights(), "l2")]
    + [(1, None, hs.LossWeights(), norm) for norm in ("l2_squared", "l1")]
    + [
        (2, None, hs.LossWeights(acce_orients=0.0), "l2"),
        (3, None, hs.LossWeights(reprojection=0.0), "l2"),
        (4, None, hs.LossWeights(0.0, 0.0, 0.0, 0.0), "l2"),
    ]
)


def block_around(flat, seed):
    """Nine points near ``flat``: itself, four single-coordinate steps like
    check_gradient's, and four random moves of every coordinate."""
    rng = np.random.default_rng(seed)
    block = np.tile(flat, (9, 1))
    for row, (i, step) in enumerate([(0, 1e-6), (0, -1e-6), (37, 1e-6), (-1, -1e-6)], 1):
        block[row, i] += step
    block[5:] += rng.normal(0.0, 1e-2, (4, flat.size))
    return block


def frame_block_around(flat, seed):
    """Eight points near ``flat`` that share its shape block, so that the
    objective takes its distinct-frame route: itself, six single
    frame-coordinate steps like check_gradient's, and a copy of frame 1's
    values into frame 3, which is scored against frame 3's landmarks."""
    rng = np.random.default_rng(seed)
    block = np.tile(flat, (8, 1))
    coords = NUM_SHAPE_PARAMS + rng.choice(flat.size - NUM_SHAPE_PARAMS, 3, replace=False)
    for row, (i, step) in enumerate(((i, s) for i in coords for s in (1e-6, -1e-6)), 1):
        block[row, i] += step
    frames = block[7, NUM_SHAPE_PARAMS:].reshape(-1, FRAME_PARAMS)
    frames[3] = frames[1]
    return block


class TestBatchAxis:
    @pytest.mark.parametrize("seed, hidden, weights, norm", BLOCK_CASES)
    def test_block_rows_equal_scalar_calls_bitwise(self, seed, hidden, weights, norm):
        traj, obs, skeleton = hs.random_problem(5, 2, seed)
        if hidden is not None:
            visibility = obs.visibility.copy()
            visibility[:, hidden] = False
            obs = replace(obs, visibility=visibility)
        objective = hs.make_flat_objective(obs, skeleton, weights, norm)
        for block in (block_around(traj.to_flat(), seed), frame_block_around(traj.to_flat(), seed)):
            values = objective(block)
            assert values.shape == (len(block),)
            for i, row in enumerate(block):
                assert np.asarray(objective(row)).tobytes() == values[i].tobytes(), i

    def test_terms_out_is_filled_by_scalar_passes_only(self, skeleton):
        traj, obs, _ = hs.random_problem(5, 2, 0)
        terms = {}
        objective = hs.make_flat_objective(obs, skeleton, terms_out=terms)
        objective(block_around(traj.to_flat(), 0))
        assert terms == {}
        objective(traj.to_flat())
        assert sorted(terms) == sorted(TERMS)

    def test_row_where_nothing_counts_raises(self, skeleton):
        # 100 m above the rig, every joint is behind both cameras
        traj, obs, _ = hs.random_problem(5, 2, 0)
        objective = hs.make_flat_objective(obs, skeleton)
        flat = traj.to_flat()
        lifted = replace(traj, positions=traj.positions + [0.0, 0.0, 100.0]).to_flat()
        assert objective(np.stack([flat, flat])).shape == (2,)
        with pytest.raises(DegenerateObservationError):
            objective(lifted)
        # rows of one shape take the distinct-frame route; a stepped shape does not
        with pytest.raises(DegenerateObservationError):
            objective(np.stack([flat, lifted, flat]))
        stepped = flat.copy()
        stepped[0] += 1e-6
        with pytest.raises(DegenerateObservationError):
            objective(np.stack([stepped, lifted, flat]))

    def test_shared_shape_batch_runs_distinct_frames_once_bitwise(self, skeleton, monkeypatch):
        # rows of one shape vector: single frame-coordinate steps, a frame
        # copied to another index, and two frames that differ only in the sign
        # of a zero position, which must not be merged
        traj, obs, _ = hs.random_problem(5, 2, 0)
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
        block = np.concatenate([np.tile(traj.shape, (6, 1)), batch.reshape(6, -1)], axis=1)
        objective = hs.make_flat_objective(obs, skeleton)
        calls, rodrigues = [], hs.hand_model._rodrigues
        joints, fk = [], hs.objective.fk_joints

        def counted(w):
            calls.append(w.shape)
            return rodrigues(w)

        def kept(*args):
            joints.append(fk(*args))
            return joints[-1]

        monkeypatch.setattr(hs.hand_model, "_rodrigues", counted)
        monkeypatch.setattr(hs.objective, "fk_joints", kept)
        values = objective(block)
        # the base frames, three steps, the -0.0, and frame 1's values at
        # index 3, which are scored against frame 3's landmarks
        assert calls == [(5 + 5, 16, 3)]
        assert values.shape == (6,)
        for b in range(6):
            assert np.asarray(objective(block[b])).tobytes() == values[b].tobytes(), b
        wrist_x = {x.tobytes() for x in joints[0][:, 0, 0]}
        assert np.float64(-0.0).tobytes() in wrist_x and np.float64(0.0).tobytes() in wrist_x

    @pytest.mark.parametrize("norm", hs.REPROJECTION_NORMS)
    def test_shared_shape_block_with_joints_behind_a_camera_bitwise(self, skeleton, norm):
        # frame 2 lifted 100 m above the rig: its joints are behind both
        # cameras, so its mask planes hold zeros, while the other frames count
        traj, obs, _ = hs.random_problem(5, 2, 0)
        positions = traj.positions.copy()
        positions[2, 2] += 100.0
        lifted = replace(traj, positions=positions)
        in_front = hs.camera.project_views(hs.trajectory_joints(lifted, skeleton), obs.rig)[2]
        assert not in_front[:, 2].any() and in_front.any()
        objective = hs.make_flat_objective(obs, skeleton, norm=norm)
        block = frame_block_around(lifted.to_flat(), 0)
        values = objective(block)
        for i, row in enumerate(block):
            assert np.asarray(objective(row)).tobytes() == values[i].tobytes(), i

    def test_acceleration_over_a_batch_of_series(self):
        series = np.random.default_rng(1).normal(0.0, 0.3, (4, 6, 5))
        values = acceleration_loss(series)
        assert values.shape == (4,)
        for i in range(4):
            assert float(acceleration_loss(series[i])) == values[i]


class TestGradientOracle:
    def test_loss_terms_and_gradient_match_the_oracle(self, fixtures_dir):
        """The committed oracle was recorded once, before any change that
        reorders floating point; it is never regenerated to make a change
        pass. Terms agree within 1e-12 relative, the gradient within
        1e-9 * max(1, |g|)."""
        gen = load_gen_fixtures()
        oracle = read_json(fixtures_dir / gen.GRADIENT_ORACLE)
        cases = list(gen.gradient_oracle_cases())
        assert [case[0] for case in cases] == list(oracle)
        for name, obs, skeleton, flat in cases:
            got = gen.gradient_oracle_entry(obs, skeleton, flat)
            want = oracle[name]
            assert sorted(got["terms"]) == sorted(want["terms"]) == sorted(TERMS), name
            pairs = [("loss", got["loss"], want["loss"])] + [
                (term, got["terms"][term], want["terms"][term]) for term in TERMS
            ]
            for label, value, expected in pairs:
                assert abs(value - expected) <= 1e-12 * abs(expected), (name, label)
            g = np.asarray(want["gradient"])
            err = np.abs(np.asarray(got["gradient"]) - g) / np.maximum(1.0, np.abs(g))
            assert err.shape == g.shape and err.max() <= 1e-9, (name, err.max())


def accept_problem(fixtures_dir, skeleton):
    """(init, obs) of the acceptance fixture, as criterion 4 builds it."""
    motion = hs.load_motion_spec(fixtures_dir / "acceptance_motion.json")
    noise = hs.load_noise_spec(fixtures_dir / "acceptance_noise.json")
    rng = np.random.default_rng(noise.seed)
    gt, rig = hs.generate_sequence(motion, rng)
    init = hs.corrupt_trajectory(gt, noise, rng)
    return init, hs.render_observations(gt, rig, skeleton, noise, rng)


def tape_nodes(objective, flat):
    tape = ad.Tape()
    objective(ad.Tensor(flat, tape))
    return len(tape.nodes)


class TestFrozenShape:
    """Without optimize_shape the objective reads the shape block as a plain
    value, so bone scales and bone offsets stay off the tape."""

    def test_frozen_objective_records_the_shape_nodes_less(self, fixtures_dir, skeleton):
        init, obs = accept_problem(fixtures_dir, skeleton)
        live = hs.make_flat_objective(obs, skeleton)
        frozen = hs.make_flat_objective(obs, skeleton, optimize_shape=False)
        # the leaf, the flat split (6), the acceleration terms, FK, the
        # all-view reprojection and the weighted total (2): a live shape block
        # is one more input of the FK node, not nodes of its own
        assert tape_nodes(live, init.to_flat()) == tape_nodes(frozen, init.to_flat()) == 12
        _, grad = ad.record_and_backprop(frozen, init.to_flat())
        assert np.all(grad[:10] == 0.0)

    def test_frozen_gradient_is_the_live_one_off_the_shape_block(self, fixtures_dir, skeleton):
        init, obs = accept_problem(fixtures_dir, skeleton)
        live = ad.record_and_backprop(hs.make_flat_objective(obs, skeleton), init.to_flat())
        frozen = ad.record_and_backprop(
            hs.make_flat_objective(obs, skeleton, optimize_shape=False), init.to_flat()
        )
        assert frozen[0] == live[0]
        assert frozen[1][10:].tobytes() == live[1][10:].tobytes()
        assert np.all(frozen[1][:10] == 0.0)
        assert np.all(live[1][:10] != 0.0)

    def test_default_objective_checks_the_shape_block(self):
        traj, obs, skeleton = hs.random_problem(5, 2, 0)
        objective = hs.make_flat_objective(obs, skeleton)
        _, grad = ad.record_and_backprop(objective, traj.to_flat())
        assert np.all(grad[:10] != 0.0)
        assert ad.check_gradient(objective, traj.to_flat()) < 1e-4
        # the plain route is the same function either way
        frozen = hs.make_flat_objective(obs, skeleton, optimize_shape=False)
        block = traj.to_flat() + np.linspace(0.0, 1e-3, 3)[:, None]
        assert objective(block).tobytes() == frozen(block).tobytes()


class TestTrajectoryParams:
    def test_flatten_roundtrip_is_exact(self):
        traj, _, _ = hs.random_problem(5, 1, seed=12)
        again = hs.TrajectoryParams.from_flat(traj.to_flat(), traj.num_frames)
        assert np.array_equal(again.shape, traj.shape)
        assert np.array_equal(again.orients, traj.orients)
        assert np.array_equal(again.positions, traj.positions)
        assert np.array_equal(again.joint_rotations, traj.joint_rotations)

    def test_flat_layout_is_pinned(self):
        # [shape(10)] then per frame [orient(3), position(3), rotations(45)]
        n = 3
        traj = hs.TrajectoryParams(
            shape=np.arange(10.0),
            orients=np.arange(n * 3.0).reshape(n, 3) + 100,
            positions=np.arange(n * 3.0).reshape(n, 3) + 200,
            joint_rotations=np.arange(n * 45.0).reshape(n, 15, 3) + 300,
        )
        flat = traj.to_flat()
        assert flat.size == 10 + n * hs.FRAME_PARAMS
        assert np.array_equal(flat[:10], np.arange(10.0))
        frame0 = flat[10 : 10 + 51]
        assert np.array_equal(frame0[0:3], traj.orients[0])
        assert np.array_equal(frame0[3:6], traj.positions[0])
        assert np.array_equal(frame0[6:51], traj.joint_rotations[0].ravel())

    def test_wrong_flat_length_rejected(self):
        with pytest.raises(ValueError):
            hs.TrajectoryParams.from_flat(np.zeros(10 + 51 * 3 + 1), 3)

    def test_requires_three_frames(self):
        with pytest.raises(ValueError):
            hs.TrajectoryParams(
                shape=np.zeros(10),
                orients=np.zeros((2, 3)),
                positions=np.zeros((2, 3)),
                joint_rotations=np.zeros((2, 15, 3)),
            )

    def test_rejects_malformed_arrays(self):
        good = dict(
            shape=np.zeros(10),
            orients=np.zeros((3, 3)),
            positions=np.zeros((3, 3)),
            joint_rotations=np.zeros((3, 15, 3)),
        )
        hs.TrajectoryParams(**good)
        for field, value in [
            ("orients", np.zeros((3, 2))),
            ("joint_rotations", np.zeros((3, 14, 3))),
            ("shape", np.zeros(11)),
        ]:
            with pytest.raises(ValueError):
                hs.TrajectoryParams(**dict(good, **{field: value}))

    def test_dict_roundtrip(self):
        traj, _, _ = hs.random_problem(3, 1, seed=14)
        again = trajectory_from_dict(trajectory_to_dict(traj), "init")
        assert np.array_equal(again.to_flat(), traj.to_flat())


class TestSequenceObservation:
    def test_dimension_checks(self, skeleton):
        _, obs, _ = hs.random_problem(3, 2, seed=1)
        with pytest.raises(ValueError):
            hs.SequenceObservation(
                landmarks_2d=obs.landmarks_2d[:, :1],  # one view of data
                visibility=obs.visibility,
                rig=obs.rig,  # two-view rig
            )

    def test_requires_some_visibility(self):
        _, obs, _ = hs.random_problem(3, 1, seed=1)
        with pytest.raises(ValueError):
            hs.SequenceObservation(
                landmarks_2d=obs.landmarks_2d,
                visibility=np.zeros_like(obs.visibility),
                rig=obs.rig,
            )

    def test_rejects_nonfinite_landmarks(self):
        _, obs, _ = hs.random_problem(3, 1, seed=1)
        bad = obs.landmarks_2d.copy()
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            hs.SequenceObservation(
                landmarks_2d=bad, visibility=obs.visibility, rig=obs.rig
            )
