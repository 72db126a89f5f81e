"""Synthetic sequences: motion generation, corruption, rendering, mirroring."""

import numpy as np
import pytest

import handsmooth as hs
from handsmooth.errors import SchemaError, SpecError
from handsmooth.formats import record_from_dict, record_to_dict
from handsmooth.synth import MAX_AMPLITUDE, build_rig

from conftest import constant_velocity_motion, exact_sequence


def demo_motion(num_frames=12, num_views=2, **kw):
    defaults = dict(
        num_frames=num_frames,
        fps=30.0,
        amplitude=np.full(15, 0.3),
        frequency=np.full(15, 0.8),
        phase=np.linspace(0.0, 2.0, 15),
        wrist=hs.WristPath(speed=0.04),
        rig=hs.RigSpec(num_views=num_views),
    )
    defaults.update(kw)
    return hs.MotionSpec(**defaults)


class TestMotionSpec:
    def test_static_spec_is_constant(self):
        spec = demo_motion(
            amplitude=np.zeros(15),
            wrist=hs.WristPath(speed=0.0),
        )
        traj, _ = hs.generate_sequence(spec, np.random.default_rng(0))
        assert np.all(traj.joint_rotations == 0.0)
        assert np.all(traj.positions == traj.positions[0])
        assert np.all(traj.orients == traj.orients[0])

    def test_seeded_determinism_with_sampled_sinusoids(self):
        spec = demo_motion(amplitude=None, frequency=None, phase=None)
        a, _ = hs.generate_sequence(spec, np.random.default_rng(12))
        b, _ = hs.generate_sequence(spec, np.random.default_rng(12))
        assert np.array_equal(a.to_flat(), b.to_flat())

    def test_sampled_amplitudes_respect_caps(self):
        spec = demo_motion(amplitude=None)
        caps = np.array([MAX_AMPLITUDE[k % 3] for k in range(15)])
        for seed in range(5):
            traj, _ = hs.generate_sequence(spec, np.random.default_rng(seed))
            assert np.all(np.abs(traj.joint_rotations[:, :, 0]) <= caps)
            assert np.all(traj.joint_rotations[:, :, 1:] == 0.0)

    def test_sinusoid_second_difference_bound(self):
        spec = demo_motion(num_frames=90)
        traj, _ = hs.generate_sequence(spec, np.random.default_rng(1))
        omega = 2.0 * np.pi * 0.8 / 30.0
        bound = 4.0 * 0.3 * np.sin(omega / 2.0) ** 2
        flex = traj.joint_rotations[:, :, 0]
        d2 = flex[2:] - 2.0 * flex[1:-1] + flex[:-2]
        assert np.max(np.abs(d2)) <= bound + 1e-12

    def test_arc_path_stays_on_circle(self):
        wrist = hs.WristPath(
            kind="arc",
            center=np.array([0.1, 0.0, 0.05]),
            normal=np.array([0.0, 0.0, 1.0]),
            radius=0.2,
            speed=0.1,
        )
        spec = demo_motion(wrist=wrist)
        traj, _ = hs.generate_sequence(spec, np.random.default_rng(2))
        radii = np.linalg.norm(traj.positions - wrist.center, axis=-1)
        assert np.allclose(radii, 0.2, atol=1e-12)

    def test_orientation_is_linear_in_time(self):
        spec = demo_motion(
            orient_start=np.array([0.1, 0.2, -0.1]),
            orient_rate=np.array([0.3, -0.2, 0.5]),
        )
        traj, _ = hs.generate_sequence(spec, np.random.default_rng(3))
        d2 = traj.orients[2:] - 2.0 * traj.orients[1:-1] + traj.orients[:-2]
        assert np.max(np.abs(d2)) < 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            demo_motion(num_frames=2)
        with pytest.raises(ValueError):
            demo_motion(amplitude=np.full(15, 3.0))  # over the flexion caps
        with pytest.raises(ValueError):
            demo_motion(fps=0.0)
        with pytest.raises(ValueError):
            hs.WristPath(kind="spiral")
        with pytest.raises(ValueError):
            hs.WristPath(kind="arc", radius=0.0)
        with pytest.raises(ValueError):
            hs.RigSpec(num_views=0)

    def test_dict_roundtrip(self):
        spec = demo_motion()
        again = record_from_dict(hs.MotionSpec, record_to_dict(spec), "motion")
        assert record_to_dict(again) == record_to_dict(spec)

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(SchemaError, match="^motion: missing key 'num_frames'$"):
            record_from_dict(hs.MotionSpec, {"fps": 30.0}, "motion")
        with pytest.raises(SchemaError, match="^motion.num_frames: expected int, got 'many'$"):
            record_from_dict(hs.MotionSpec, {"num_frames": "many", "fps": 30.0}, "motion")

    def test_wrist_must_stay_visible(self):
        # path spans ~11 m while the rig circles 0.75 m from its midpoint,
        # so an endpoint always lands behind or far outside some camera
        spec = demo_motion(wrist=hs.WristPath(speed=30.0))
        with pytest.raises(SpecError, match="wrist"):
            hs.generate_sequence(spec, np.random.default_rng(0))


class TestRig:
    def test_build_rig_aims_each_camera_at_center(self):
        wrist = np.array([[0.0, 0.0, 0.0], [0.02, 0.0, 0.0]])
        rig = build_rig(hs.RigSpec(num_views=3), wrist)
        center = wrist.mean(axis=0)
        for intr, extr in rig.views:
            cam_center = extr.rotation @ center + extr.translation
            # center lands on the optical axis, in front
            assert cam_center[2] > 0
            assert np.allclose(cam_center[:2], 0.0, atol=1e-12)
            u, v = hs.project(center, (intr, extr))
            assert np.isclose(u, intr.cx) and np.isclose(v, intr.cy)


class TestNoiseSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            hs.NoiseSpec(sigma_pixel=-1.0)
        with pytest.raises(ValueError):
            hs.NoiseSpec(visibility_dropout=1.5)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            hs.NoiseSpec(seed=-1)

    def test_dict_roundtrip(self):
        spec = hs.NoiseSpec(
            sigma_position=0.01,
            sigma_orient=0.02,
            sigma_pose=0.03,
            sigma_pixel=1.5,
            visibility_dropout=0.25,
            seed=9,
        )
        assert record_from_dict(hs.NoiseSpec, record_to_dict(spec), "noise") == spec

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(SchemaError, match="^noise.sigma_pixel: expected float, got 'large'$"):
            record_from_dict(hs.NoiseSpec, {"sigma_pixel": "large"}, "noise")


class TestCorruption:
    def test_zero_noise_is_bitwise_identity(self):
        gt, init, _, _ = exact_sequence(constant_velocity_motion(6))
        assert np.array_equal(init.to_flat(), gt.to_flat())

    def test_shape_never_corrupted(self):
        traj, _, _ = hs.random_problem(4, 1, seed=0)
        noise = hs.NoiseSpec(sigma_position=0.1, sigma_orient=0.1, sigma_pose=0.1)
        out = hs.corrupt_trajectory(traj, noise, np.random.default_rng(1))
        assert np.array_equal(out.shape, traj.shape)
        assert not np.array_equal(out.positions, traj.positions)

    def test_noise_level_matches_sigma(self):
        spec = demo_motion(num_frames=200, amplitude=np.zeros(15))
        noise = hs.NoiseSpec(sigma_pose=0.1, seed=13)
        rng = np.random.default_rng(noise.seed)
        gt, _ = hs.generate_sequence(spec, rng)
        init = hs.corrupt_trajectory(gt, noise, rng)
        sample_std = (init.joint_rotations - gt.joint_rotations).std()
        assert abs(sample_std - 0.1) < 0.005


class TestRendering:
    def test_zero_pixel_noise_reprojects_exactly(self, skeleton):
        gt, _, obs, _ = exact_sequence(constant_velocity_motion(5))
        assert hs.reprojection_loss(gt, obs, skeleton) <= 1e-9

    def test_full_dropout_rejected(self, skeleton):
        gt, _, _, _ = exact_sequence(constant_velocity_motion(4))
        rig = build_rig(hs.RigSpec(num_views=1), np.asarray(gt.positions))
        with pytest.raises(SpecError):
            hs.render_observations(
                gt, rig, skeleton, hs.NoiseSpec(visibility_dropout=1.0),
                np.random.default_rng(0),
            )

    def test_dropout_rate_is_respected(self, skeleton):
        spec = demo_motion(num_frames=60, num_views=2)
        rng = np.random.default_rng(3)
        gt, rig = hs.generate_sequence(spec, rng)
        noise = hs.NoiseSpec(visibility_dropout=0.3)
        obs = hs.render_observations(gt, rig, skeleton, noise, rng)
        rate = 1.0 - obs.visibility.mean()
        assert abs(rate - 0.3) < 0.03

    def test_pixel_noise_magnitude_is_rayleigh(self, skeleton):
        # mean 2D offset norm for iid N(0, sigma^2) coordinates is
        # sigma * sqrt(pi/2); checked within 5% over >= 1e4 terms
        spec = demo_motion(num_frames=120, num_views=4, wrist=hs.WristPath(speed=0.04))
        noise = hs.NoiseSpec(sigma_pixel=2.0, seed=11)
        rng = np.random.default_rng(noise.seed)
        gt, rig = hs.generate_sequence(spec, rng)
        obs = hs.render_observations(gt, rig, skeleton, noise, rng)
        joints = hs.trajectory_joints(gt, skeleton)
        offsets = []
        for vi, view in enumerate(rig.views):
            u, v, in_front = hs.project_points_masked(joints, view)
            keep = in_front & obs.visibility[:, vi]
            du = obs.landmarks_2d[:, vi, :, 0] - u
            dv = obs.landmarks_2d[:, vi, :, 1] - v
            offsets.append(np.hypot(du, dv)[keep])
        sample = np.concatenate(offsets)
        expected = 2.0 * np.sqrt(np.pi / 2.0)
        assert sample.size >= 10_000
        assert abs(sample.mean() - expected) < 0.05 * expected

    def test_determinism(self, skeleton):
        spec = demo_motion()
        noise = hs.NoiseSpec(sigma_pixel=1.0, visibility_dropout=0.2, seed=4)

        def run():
            rng = np.random.default_rng(noise.seed)
            gt, rig = hs.generate_sequence(spec, rng)
            init = hs.corrupt_trajectory(gt, noise, rng)
            obs = hs.render_observations(gt, rig, skeleton, noise, rng)
            return init, obs

        a_init, a_obs = run()
        b_init, b_obs = run()
        assert np.array_equal(a_init.to_flat(), b_init.to_flat())
        assert np.array_equal(a_obs.landmarks_2d, b_obs.landmarks_2d)
        assert np.array_equal(a_obs.visibility, b_obs.visibility)


class TestMirroring:
    def test_involution_on_trajectory(self):
        traj, _, _ = hs.random_problem(4, 1, seed=5)
        twice = hs.mirror_trajectory(hs.mirror_trajectory(traj))
        assert np.allclose(twice.to_flat(), traj.to_flat(), atol=1e-12)

    def test_involution_on_observations(self):
        traj, obs, _ = hs.random_problem(4, 2, seed=6)
        t1, o1 = hs.mirror_hand(traj, obs)
        t2, o2 = hs.mirror_hand(t1, o1)
        assert np.allclose(t2.to_flat(), traj.to_flat(), atol=1e-12)
        assert np.allclose(o2.landmarks_2d, obs.landmarks_2d, atol=1e-12)
        assert np.array_equal(o2.visibility, obs.visibility)
        for (i1, e1), (i2, e2) in zip(obs.rig.views, o2.rig.views):
            assert i1 == i2
            assert np.allclose(e1.rotation, e2.rotation, atol=1e-12)
            assert np.allclose(e1.translation, e2.translation, atol=1e-12)

    def test_fk_commutes_with_reflection(self, skeleton):
        # reflecting parameters and skeleton = reflecting the joint cloud
        traj, _, _ = hs.random_problem(5, 1, seed=7)
        mirrored = hs.mirror_trajectory(traj)
        m_skel = hs.mirror_skeleton(skeleton)
        direct = hs.trajectory_joints(mirrored, m_skel)
        reflected = hs.trajectory_joints(traj, skeleton) * np.array([-1.0, 1.0, 1.0])
        assert np.allclose(direct, reflected, atol=1e-10)

    def test_mirrored_projection_matches_mirrored_landmarks(self, skeleton):
        # render, mirror everything, re-render with the mirrored skeleton:
        # the landmarks from the mirrored scene equal the mirrored landmarks
        gt, _, obs, _ = exact_sequence(constant_velocity_motion(4))
        m_gt, m_obs = hs.mirror_hand(gt, obs)
        m_joints = hs.trajectory_joints(m_gt, hs.mirror_skeleton(skeleton))
        for vi, view in enumerate(m_obs.rig.views):
            u, v, in_front = hs.project_points_masked(m_joints, view)
            assert np.all(in_front)
            assert np.allclose(u, m_obs.landmarks_2d[:, vi, :, 0], atol=1e-8)
            assert np.allclose(v, m_obs.landmarks_2d[:, vi, :, 1], atol=1e-8)

    def test_mirror_skeleton_stays_valid(self, skeleton):
        m = hs.mirror_skeleton(skeleton)
        assert np.array_equal(m.parents, skeleton.parents)
        assert np.array_equal(m.rest_offsets[:, 1:], skeleton.rest_offsets[:, 1:])
        assert np.array_equal(m.rest_offsets[:, 0], -skeleton.rest_offsets[:, 0])


class TestRandomProblem:
    def test_shapes_and_determinism(self):
        traj, obs, skeleton = hs.random_problem(6, 3, seed=42)
        assert traj.num_frames == 6
        assert obs.landmarks_2d.shape == (6, 3, 21, 2)
        assert obs.visibility.shape == (6, 3, 21)
        assert obs.rig.num_views == 3
        again, obs2, _ = hs.random_problem(6, 3, seed=42)
        assert np.array_equal(traj.to_flat(), again.to_flat())
        assert np.array_equal(obs.landmarks_2d, obs2.landmarks_2d)

    def test_validation(self):
        with pytest.raises(ValueError):
            hs.random_problem(2, 1, seed=0)
        with pytest.raises(ValueError):
            hs.random_problem(3, 0, seed=0)

    def test_gradient_sweep_returns_per_seed_errors(self):
        errs = hs.gradient_sweep(3, 1, count=3)
        assert len(errs) == 3
        assert all(e < 1e-4 for e in errs)

    @pytest.mark.parametrize("seed", [1778, 3397, 4894, 5681])
    def test_redrawn_problem_passes_the_gradient_check(self, seed):
        # The first draw at each seed put a visible residual (0.0029 px at
        # 1778) or a second difference (under 2e-6 at the others) so near a
        # smoothed |.|'s kink, on the scale of a central-difference step,
        # that the check read 1.2e-3 to 6.8e-3 against a correct tape
        # gradient.
        traj, obs, skeleton = hs.random_problem(5, 2, seed)
        objective = hs.make_flat_objective(obs, skeleton)
        assert hs.check_gradient(objective, traj.to_flat()) < 1e-4
