"""Pinhole projection, extrinsics validation, and translation perturbation."""

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

import handsmooth as hs
import handsmooth.autodiff as ad
from handsmooth.camera import MIN_DEPTH


def identity_view(fx=500.0, fy=500.0, cx=320.0, cy=240.0):
    intr = hs.Intrinsics(fx=fx, fy=fy, cx=cx, cy=cy, width=640, height=480)
    extr = hs.Extrinsics(rotation=np.eye(3), translation=np.zeros(3))
    return (intr, extr)


def random_view(rng):
    intr = hs.Intrinsics(fx=350.0, fy=360.0, cx=320.0, cy=240.0, width=640, height=480)
    extr = hs.Extrinsics(
        rotation=Rotation.random(rng=rng).as_matrix(),
        translation=rng.normal(0.0, 0.3, 3),
    )
    return (intr, extr)


# Extrinsics accepts a rotation when every entry of R^T R is within
# 1e-9 + 1e-5 * |I| of the identity (1e-9 off the diagonal) and when
# |det R - 1| <= 1e-9 + 1e-5. Each matrix below sits 1 % inside or outside one
# of these tolerances, and within the other.
ORTHO_TOL = 1e-9 + 1e-5
DET_TOL = 1e-9 + 1e-5


def stretched(d):
    """diag(1, 1, s) with s^2 = 1 + d: (R^T R)[2, 2] - 1 = d, det - 1 ~ d / 2."""
    return np.diag([1.0, 1.0, np.sqrt(1.0 + d)])


def sheared(e):
    """(R^T R)[0, 1] = e exactly, and det = 1."""
    r = np.eye(3)
    r[0, 1] = e
    return r


def scaled(d):
    """s * I with s^3 = 1 + d: det - 1 ~ d, (R^T R) - I ~ 2 d / 3 on the diagonal."""
    return np.cbrt(1.0 + d) * np.eye(3)


EXTRINSICS_BOUNDARY = [
    (stretched(0.99 * ORTHO_TOL), None),
    (stretched(-0.99 * ORTHO_TOL), None),
    (stretched(1.01 * ORTHO_TOL), "orthonormal"),
    (stretched(-1.01 * ORTHO_TOL), "orthonormal"),
    (sheared(0.99e-9), None),
    (sheared(-0.99e-9), None),
    (sheared(1.01e-9), "orthonormal"),
    (sheared(-1.01e-9), "orthonormal"),
    (scaled(0.99 * DET_TOL), None),
    (scaled(-0.99 * DET_TOL), None),
    (scaled(1.01 * DET_TOL), "determinant"),
    (scaled(-1.01 * DET_TOL), "determinant"),
]


def unproject(uv, depth, view):
    """Test-side inverse of project: pixel + depth back to world."""
    intr, extr = view
    cam = np.array(
        [
            (uv[0] - intr.cx) * depth / intr.fx,
            (uv[1] - intr.cy) * depth / intr.fy,
            depth,
        ]
    )
    return extr.rotation.T @ (cam - extr.translation)


class TestProjection:
    def test_hand_computed_example(self):
        uv = hs.project(np.array([0.1, -0.05, 0.5]), identity_view())
        assert np.allclose(uv, [420.0, 190.0], atol=1e-9)

    def test_principal_point_on_axis(self):
        uv = hs.project(np.array([0.0, 0.0, 1.0]), identity_view())
        assert np.array_equal(uv, [320.0, 240.0])

    def test_roundtrip_against_unproject(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            view = random_view(rng)
            world = rng.normal(0.0, 0.5, 3)
            cam_depth = (view[1].rotation @ world + view[1].translation)[2]
            if cam_depth <= MIN_DEPTH:
                continue
            uv = hs.project(world, view)
            assert np.allclose(unproject(uv, cam_depth, view), world, atol=1e-9)

    def test_behind_camera_raises(self):
        for z in (0.0, -1.0, MIN_DEPTH, MIN_DEPTH / 2):
            with pytest.raises(hs.BehindCameraError):
                hs.project(np.array([0.0, 0.0, z]), identity_view())

    def test_just_in_front_projects(self):
        uv = hs.project(np.array([0.0, 0.0, 1e-5]), identity_view())
        assert np.all(np.isfinite(uv))


class TestMaskedProjection:
    def test_agrees_with_single_point_projection(self):
        rng = np.random.default_rng(1)
        view = random_view(rng)
        points = rng.normal(0.0, 0.4, (6, 21, 3))
        u, v, in_front = hs.project_points_masked(points, view)
        for t in range(6):
            for j in range(21):
                if not in_front[t, j]:
                    continue
                uv = hs.project(points[t, j], view)
                assert np.allclose([u[t, j], v[t, j]], uv, atol=1e-9)

    def test_behind_points_flagged_and_finite(self):
        points = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.1, 0.1, 0.0]])
        u, v, in_front = hs.project_points_masked(points, identity_view())
        assert in_front.tolist() == [True, False, False]
        assert np.all(np.isfinite(u)) and np.all(np.isfinite(v))

    @pytest.mark.parametrize("lead", [(6, 21), (3, 5, 21), (4,), ()])
    def test_all_views_equal_each_view_bit_for_bit(self, lead):
        rng = np.random.default_rng(3)
        rig = hs.CameraRig(views=tuple(random_view(rng) for _ in range(4)))
        points = rng.normal(0.0, 0.4, lead + (3,))
        u, v, in_front, x, y, z_safe = hs.camera.project_views(points, rig)
        assert u.shape == v.shape == in_front.shape == z_safe.shape == (4,) + lead
        assert 0 < in_front.sum() < in_front.size or not lead
        for vi, view in enumerate(rig.views):
            one = hs.project_points_masked(points, view)
            for plane, own in zip((u, v, in_front), one):
                assert plane[vi].tobytes() == own.tobytes()
            assert np.all(z_safe[vi][~in_front[vi]] == 1.0)

    def test_tensor_input_is_read_and_not_recorded(self):
        rng = np.random.default_rng(4)
        view = random_view(rng)
        points = rng.normal(0.0, 0.4, (2, 21, 3))
        tape = ad.Tape()
        leaf = ad.Tensor(points, tape)
        out = hs.project_points_masked(leaf, view)
        assert len(tape.nodes) == 1
        for got, want in zip(out, hs.project_points_masked(points, view)):
            assert type(got) is np.ndarray
            assert got.tobytes() == want.tobytes()

    def test_gradient_flows_only_through_visible(self):
        # the objective's fused reprojection consumes the projection through
        # its mask: every landmark is visible, and the one joint behind the
        # camera gets exactly zero gradient
        rng = np.random.default_rng(7)
        points = rng.normal(0.0, 0.1, (1, 21, 3)) + [0.0, 0.0, 0.8]
        points[0, 5, 2] = -0.5
        obs = hs.SequenceObservation(
            landmarks_2d=rng.uniform(100.0, 400.0, (1, 1, 21, 2)),
            visibility=np.ones((1, 1, 21), dtype=bool),
            rig=hs.CameraRig(views=(identity_view(),)),
        )
        flat = points.ravel()
        for norm in hs.REPROJECTION_NORMS:

            def objective(x):
                # (..., 63) -> (..., 1, 21, 3): check_gradient also passes blocks
                joints = ad.reshape(x, ad.value_of(x).shape[:-1] + (1, 21, 3))
                return hs.objective._reprojection(joints, obs, norm)

            # FD and AD must agree (the mask is constant near this point)
            assert ad.check_gradient(objective, flat) < 1e-6, norm
            _, grad = ad.record_and_backprop(objective, flat)
            grad = grad.reshape(21, 3)
            assert np.all(grad[5] == 0.0), norm
            assert np.all(np.delete(grad, 5, axis=0).any(axis=-1)), norm


class TestValidation:
    def test_intrinsics_rejects_nonpositive_focals(self):
        with pytest.raises(ValueError):
            hs.Intrinsics(fx=0.0, fy=350.0, cx=320.0, cy=240.0, width=640, height=480)

    def test_extrinsics_rejects_nonorthonormal(self):
        with pytest.raises(ValueError):
            hs.Extrinsics(rotation=np.eye(3) * 1.01, translation=np.zeros(3))

    def test_extrinsics_rejects_reflection(self):
        refl = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            hs.Extrinsics(rotation=refl, translation=np.zeros(3))

    @pytest.mark.parametrize("rotated", [False, True])
    @pytest.mark.parametrize("matrix, rejected_for", EXTRINSICS_BOUNDARY)
    def test_extrinsics_tolerance_boundaries(self, matrix, rejected_for, rotated):
        if rotated:
            matrix = Rotation.from_rotvec([0.3, -1.1, 0.7]).as_matrix() @ matrix
        if rejected_for is None:
            hs.Extrinsics(rotation=matrix, translation=np.zeros(3))
        else:
            with pytest.raises(ValueError, match=rejected_for):
                hs.Extrinsics(rotation=matrix, translation=np.zeros(3))

    def test_rig_requires_a_view(self):
        with pytest.raises(ValueError):
            hs.CameraRig(views=())

    def test_rig_counts_views(self):
        rng = np.random.default_rng(2)
        rig = hs.CameraRig(views=(random_view(rng), random_view(rng)))
        assert rig.num_views == 2


class TestPerturbation:
    def test_translation_bounds_and_rotation_untouched(self):
        rng = np.random.default_rng(3)
        view = random_view(rng)
        extr = view[1]
        for _ in range(200):
            out = hs.perturb_extrinsics(extr, rng, noise_range=0.5)
            delta = out.translation - extr.translation
            assert np.all(np.abs(delta) < 0.5)
            assert np.array_equal(out.rotation, extr.rotation)

    def test_zero_range_is_identity(self):
        rng = np.random.default_rng(4)
        extr = random_view(rng)[1]
        out = hs.perturb_extrinsics(extr, np.random.default_rng(0), noise_range=0.0)
        assert np.array_equal(out.translation, extr.translation)

    def test_seeded_determinism(self):
        rng = np.random.default_rng(5)
        extr = random_view(rng)[1]
        a = hs.perturb_extrinsics(extr, np.random.default_rng(42), noise_range=0.5)
        b = hs.perturb_extrinsics(extr, np.random.default_rng(42), noise_range=0.5)
        assert np.array_equal(a.translation, b.translation)

    def test_negative_range_rejected(self):
        rng = np.random.default_rng(6)
        extr = random_view(rng)[1]
        # rng.uniform cannot draw from a range whose width 2 * r overflows
        for r in (-0.1, np.nan, np.inf, 1e308):
            with pytest.raises(ValueError, match="noise_range"):
                hs.perturb_extrinsics(extr, rng, noise_range=r)
