"""Metrics: position error, acceleration magnitude, reprojection distance."""

import numpy as np
import pytest

import handsmooth as hs
from handsmooth.camera import CameraRig, Extrinsics, Intrinsics
from handsmooth.formats import record_from_dict, record_to_dict
from handsmooth.metrics import MetricReport
from handsmooth.objective import SequenceObservation, trajectory_joints

from conftest import constant_velocity_motion, exact_sequence


def cloud(n, rng):
    return rng.standard_normal((n, 21, 3)) * 0.05


class TestMpjpe:
    def test_identity_is_zero(self):
        joints = cloud(4, np.random.default_rng(0))
        assert hs.mpjpe(joints, joints) == 0.0

    def test_hand_value(self):
        # a constant 3-4-5 offset of 5 mm on every joint
        joints = cloud(4, np.random.default_rng(1))
        shifted = joints + np.array([0.003, 0.0, 0.004])
        assert abs(hs.mpjpe(shifted, joints) - 5.0) < 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a, b = cloud(3, rng), cloud(3, rng)
        assert hs.mpjpe(a, b) == hs.mpjpe(b, a)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        a, b, c = cloud(3, rng), cloud(3, rng), cloud(3, rng)
        assert hs.mpjpe(a, c) <= hs.mpjpe(a, b) + hs.mpjpe(b, c) + 1e-12

    def test_shape_mismatch(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            hs.mpjpe(cloud(3, rng), cloud(4, rng))
        with pytest.raises(ValueError):
            hs.mpjpe(np.zeros((21, 3)), np.zeros((21, 3)))


class TestAccelerationError:
    def test_constant_velocity_is_zero(self):
        base = cloud(1, np.random.default_rng(5))[0]
        vel = np.array([0.01, 0.0, -0.02])
        joints = np.stack([base + i * vel for i in range(6)])
        assert hs.acceleration_error(joints) < 1e-9

    def test_hand_value(self):
        # single window, every joint kinks by 1 mm: 1.0 mm/frame^2
        joints = np.zeros((3, 21, 3))
        joints[2, :, 0] = 0.001
        assert abs(hs.acceleration_error(joints) - 1.0) < 1e-12

    def test_needs_three_frames(self):
        with pytest.raises(ValueError):
            hs.acceleration_error(np.zeros((2, 21, 3)))


class TestNoiseResponse:
    def test_position_noise_shifts_mpjpe_by_folded_normal_mean(self, skeleton):
        # corrupting only the wrist position by iid N(0, sigma^2) per axis
        # moves every joint rigidly, so MPJPE is the mean 3D norm of a
        # N(0, sigma^2 I3) vector: sigma * 2 * sqrt(2/pi)
        sigma = 0.01
        n = 600
        motion = hs.MotionSpec(
            num_frames=n,
            fps=30.0,
            amplitude=np.zeros(15),
            frequency=np.zeros(15),
            phase=np.zeros(15),
            wrist=hs.WristPath(speed=0.005),
            rig=hs.RigSpec(num_views=1),
        )
        noise = hs.NoiseSpec(sigma_position=sigma, seed=21)
        rng = np.random.default_rng(noise.seed)
        gt, _ = hs.generate_sequence(motion, rng)
        init = hs.corrupt_trajectory(gt, noise, rng)
        sample = hs.mpjpe(
            trajectory_joints(init, skeleton), trajectory_joints(gt, skeleton)
        )
        expected = sigma * 2.0 * np.sqrt(2.0 / np.pi) * 1000.0
        # all 21 joints share one offset per frame, so there are n
        # independent norms; allow a 3 sigma band around the analytic mean
        sd_norm = sigma * np.sqrt(3.0 - 8.0 / np.pi) * 1000.0
        band = 3.0 * sd_norm / np.sqrt(n)
        assert abs(sample - expected) < band


class TestReprojectionPx:
    def test_exact_projection_scores_zero(self, skeleton):
        gt, _, obs, _ = exact_sequence(constant_velocity_motion(5))
        assert hs.reprojection_px(gt, obs, skeleton) <= 1e-8

    def test_uniform_pixel_shift(self, skeleton):
        gt, _, obs, _ = exact_sequence(constant_velocity_motion(5))
        shifted = SequenceObservation(
            rig=obs.rig,
            landmarks_2d=obs.landmarks_2d + np.array([3.0, 4.0]),
            visibility=obs.visibility,
        )
        assert abs(hs.reprojection_px(gt, shifted, skeleton) - 5.0) < 1.01e-8

    def test_nothing_visible_scores_zero(self, skeleton):
        # the objective raises here; the metric stays total and reports 0.0
        gt, _, obs, _ = exact_sequence(constant_velocity_motion(4))
        behind = CameraRig(
            views=tuple(
                (
                    Intrinsics(fx=350.0, fy=350.0, cx=320.0, cy=240.0,
                               width=640, height=480),
                    Extrinsics(
                        rotation=np.eye(3),
                        translation=np.array([0.0, 0.0, -50.0]),
                    ),
                )
                for _ in obs.rig.views
            )
        )
        hidden = SequenceObservation(
            rig=behind,
            landmarks_2d=obs.landmarks_2d,
            visibility=obs.visibility,
        )
        assert hs.reprojection_px(gt, hidden, skeleton) == 0.0


class TestEvaluate:
    def test_fields_with_ground_truth(self, skeleton):
        gt, init, obs, _ = exact_sequence(constant_velocity_motion(6))
        report = hs.evaluate(init, gt, obs, skeleton)
        assert report.mpjpe_mm is not None
        assert report.per_frame_mpjpe_mm.shape == (6,)
        assert report.per_frame_accel_mm.shape == (4,)
        assert report.mpjpe_mm == pytest.approx(report.per_frame_mpjpe_mm.mean())
        assert report.accel_error_mm == pytest.approx(
            report.per_frame_accel_mm.mean()
        )

    def test_fields_without_ground_truth(self, skeleton):
        gt, _, obs, _ = exact_sequence(constant_velocity_motion(6))
        report = hs.evaluate(gt, None, obs, skeleton)
        assert report.mpjpe_mm is None
        assert report.per_frame_mpjpe_mm is None
        assert report.reproj_px <= 1e-8

    def test_matches_standalone_metrics(self, skeleton):
        gt, init, obs, _ = exact_sequence(constant_velocity_motion(6))
        report = hs.evaluate(init, gt, obs, skeleton)
        joints = trajectory_joints(init, skeleton)
        gt_joints = trajectory_joints(gt, skeleton)
        assert report.mpjpe_mm == hs.mpjpe(joints, gt_joints)
        assert report.accel_error_mm == hs.acceleration_error(joints)
        assert report.reproj_px == pytest.approx(
            hs.reprojection_px(init, obs, skeleton)
        )


class TestMetricReport:
    def test_dict_roundtrip(self, skeleton):
        gt, init, obs, _ = exact_sequence(constant_velocity_motion(5))
        report = hs.evaluate(init, gt, obs, skeleton)
        again = record_from_dict(MetricReport, record_to_dict(report), "report")
        assert record_to_dict(again) == record_to_dict(report)

    def test_dict_roundtrip_without_gt(self, skeleton):
        gt, _, obs, _ = exact_sequence(constant_velocity_motion(5))
        report = hs.evaluate(gt, None, obs, skeleton)
        again = record_from_dict(MetricReport, record_to_dict(report), "report")
        assert again.mpjpe_mm is None
        assert record_to_dict(again) == record_to_dict(report)

    def test_format_table(self, skeleton):
        gt, init, obs, _ = exact_sequence(constant_velocity_motion(5))
        table = hs.evaluate(init, gt, obs, skeleton).format_table()
        assert "position error (mm)" in table
        assert "acceleration (mm/frame^2)" in table
        assert "reprojection (px)" in table
        table_no_gt = hs.evaluate(gt, None, obs, skeleton).format_table()
        assert "position error" not in table_no_gt
