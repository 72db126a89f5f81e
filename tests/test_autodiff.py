"""Reverse-mode tape: hand-computed gradients, finite-difference checks,
and rejected inputs."""

import gc
from dataclasses import replace

import numpy as np
import pytest

import handsmooth as hs
import handsmooth.autodiff as ad
from handsmooth.errors import DegenerateObservationError

from composed import (
    abs_smooth,
    concat,
    cos,
    div,
    exp,
    matmul,
    mean,
    sin,
    sqrt,
    stack,
    sub,
    sum,
)


def backprop(fn, x):
    return ad.record_and_backprop(fn, np.asarray(x, dtype=float))


X = np.array([[0.5, -1.5], [2.0, 0.25]])
Y = np.array([[1.25, 0.75], [-0.5, 3.0]])
P = np.array([[0.3, 1.7], [4.0, 0.01]])  # a plain operand of stack and concat
AA = np.array([[0.3, -1.2, 0.5], [0.0, 0.0, 0.0], [2e-9, 0.0, -1e-9], [1.0, 2.0, 2.0]])
SERIES = np.array([[0.5, -1.5], [2.0, 0.25], [1.0, 1.0], [-0.5, 3.0]])


def reprojection_case(norm):
    """``objective._reprojection`` of joints (..., 3, 21, 3) against the
    observations of random_problem(3, 2, 0), as a function of the joints."""
    _, obs, _ = hs.random_problem(3, 2, 0)
    return lambda joints: hs.objective._reprojection(joints, obs, norm)


def fk_case():
    """``fk_joints`` at random_problem(3, 2, 0)'s shape, as a function of the
    orients, positions and joint rotations, and those three arrays."""
    traj, _, skeleton = hs.random_problem(3, 2, 0)

    def fn(orients, positions, rots):
        return hs.hand_model.fk_joints(skeleton, traj.shape, orients, positions, rots)

    return fn, (traj.orients, traj.positions, traj.joint_rotations)


def joints_of(frames, views, seed):
    traj, _, skeleton = hs.random_problem(frames, views, seed)
    return hs.trajectory_joints(traj, skeleton)


# (frames, views, seed, visibility entries hidden) of the full-objective gradient
# check: one plain problem, then frame 2 invisible in every view, then view 1
# seeing nothing
FULL_OBJECTIVE_CASES = [(4, 2, 123, None)] + [
    (5, 2, seed, hidden) for hidden in (np.s_[2], np.s_[:, 1]) for seed in range(3)
]

# (label, function, operands): the taped side makes each ndarray operand a
# Tensor and passes Python scalars and closed-over arrays as they are.
PRIMITIVE_CASES = [
    ("add", ad.add, (X, Y)),
    ("add scalar", ad.add, (2.0, X)),
    ("reflected add", lambda a: ad.add(Y, a), (X,)),
    ("sub", sub, (X, Y)),
    ("unary minus", lambda a: ad.mul(a, -1.0), (X,)),
    ("mul", ad.mul, (X, Y)),
    ("reflected mul", lambda a: 3.0 * a, (X,)),
    ("div", div, (X, Y)),
    ("div scalar", div, (X, 4.0)),
    ("matmul", matmul, (X, Y)),
    ("exp", exp, (X,)),
    ("reshape", lambda a: ad.reshape(a, (4,)), (X,)),
    ("sum", sum, (X,)),
    ("sum axis", lambda a: sum(a, axis=-1), (X,)),
    ("getitem", lambda a: ad.getitem(a, (slice(None), 1)), (X,)),
    ("getitem newaxis", lambda a: ad.getitem(a, (Ellipsis, None, 0)), (X,)),
    ("stack", lambda a, b: stack([a, b, P], axis=-1), (X, Y)),
    ("concat", lambda a, b: concat([P, a, b], axis=1), (X, Y)),
    # fused ops: one node each, with a hand-written VJP
    ("rotation_matrices", hs.hand_model.rotation_matrices, (AA,)),
    ("fk_joints", *fk_case()),
    ("acceleration_loss", hs.acceleration_loss, (SERIES,)),
] + [(f"reprojection {norm}", reprojection_case(norm), (joints_of(3, 2, 0),))
     for norm in hs.objective.REPROJECTION_NORMS]

# (label, function mapping a (..., n) input to (...), point): the fused ops
# under central differences
FUSED_GRADIENT_CASES = [
    (
        "rotation_matrices",
        lambda x: sum(
            hs.hand_model.rotation_matrices(ad.reshape(x, lead(x) + (4, 3)))
            * np.linspace(-1.0, 1.0, 9).reshape(3, 3),
            axis=(-3, -2, -1),
        ),
        AA.ravel(),
    ),
    (
        "acceleration_loss",
        lambda x: hs.acceleration_loss(ad.reshape(x, lead(x) + (4, 2))),
        SERIES.ravel(),
    ),
] + [
    (
        f"reprojection {norm}",
        lambda x, f=reprojection_case(norm): f(ad.reshape(x, lead(x) + (3, 21, 3))),
        joints_of(3, 2, 0).ravel(),
    )
    for norm in hs.objective.REPROJECTION_NORMS
]

# Every primitive that takes more than one operand, applied to two Tensors.
MULTI_OPERAND = [
    ad.add,
    sub,
    ad.mul,
    div,
    matmul,
    lambda a, b: stack([a, a, b]),
    lambda a, b: concat([a, b], axis=1),
]


class TestHandComputedGradients:
    def test_square(self):
        # f(x) = x^2 at 3: value 9, gradient 6, both exact
        value, grad = backprop(lambda x: sum(x * x), [3.0])
        assert value == 9.0
        assert grad.tolist() == [6.0]

    def test_product_plus_sine(self):
        # f(x, y) = x*y + sin(x) at (0, 5): value 0, gradient (y + cos x, x)
        def fn(p):
            return p[0] * p[1] + sin(p[0])

        value, grad = backprop(fn, [0.0, 5.0])
        assert value == 0.0
        assert grad.tolist() == [6.0, 0.0]

    def test_linear_gradient_is_coefficients(self):
        a = np.array([2.0, -3.0, 0.5, 7.0])
        value, grad = backprop(lambda x: sum(a * x), np.ones(4))
        assert value == a.sum()
        assert np.array_equal(grad, a)

    def test_division_and_reciprocal(self):
        # f(x) = 1/x at 2: grad -1/x^2 = -0.25
        value, grad = backprop(lambda x: sum(div(1.0, x)), [2.0])
        assert value == 0.5
        assert grad.tolist() == [-0.25]

    def test_mean_gradient(self):
        value, grad = backprop(lambda x: mean(x), np.arange(5.0))
        assert value == 2.0
        assert np.array_equal(grad, np.full(5, 0.2))

    def test_getitem_slice(self):
        value, grad = backprop(lambda x: sum(x[1:3]), np.arange(4.0))
        assert value == 3.0
        assert grad.tolist() == [0.0, 1.0, 1.0, 0.0]

    def test_getitem_reuse_accumulates(self):
        value, grad = backprop(lambda x: x[0] + x[0], [1.5])
        assert value == 3.0
        assert grad.tolist() == [2.0]

    @pytest.mark.parametrize("late_use", ["mul", "getitem"])
    def test_shared_gradient_array_is_not_written_in_place(self, late_use):
        # c = a + d hands a and d one gradient array; a's later-recorded use e
        # reaches a after that and before d is swept, so adding e's share in
        # place would leak it into d's gradient
        w, v = np.array([1.0, 10.0]), np.array([100.0, 1000.0])

        def fn(x):
            a, d = x * 2.0, x * 3.0
            e = a * 5.0 if late_use == "mul" else a[0:1] * 5.0
            return sum((a + d) * w) + sum(e * v[: e.value.size])

        _, grad = backprop(fn, [1.0, 2.0])
        e_share = 5.0 * v if late_use == "mul" else [500.0, 0.0]
        assert grad.tolist() == (2.0 * (w + e_share) + 3.0 * w).tolist()

    def test_broadcast_sum_over_rows(self):
        # x (3,) broadcast against a (4, 3) constant: gradient collapses rows
        m = np.ones((4, 3))
        value, grad = backprop(lambda x: sum(x + m), np.zeros(3))
        assert value == 12.0
        assert np.array_equal(grad, np.full(3, 4.0))

    def test_rsub_and_neg(self):
        value, grad = backprop(lambda x: sum(sub(1.0, ad.mul(x, -1.0))), [2.0, 3.0])
        assert value == 7.0
        assert grad.tolist() == [1.0, 1.0]


class TestTensorMechanics:
    def test_ndarray_left_operand_returns_tensor(self):
        tape = ad.Tape()
        t = ad.Tensor(np.array([1.0, 2.0]), tape)
        out = np.array([3.0, 4.0]) * t
        assert isinstance(out, ad.Tensor)
        assert out.value.tolist() == [3.0, 8.0]

    def test_value_of(self):
        tape = ad.Tape()
        t = ad.Tensor(np.array([1.0]), tape)
        assert np.array_equal(ad.value_of(t), np.array([1.0]))
        plain = np.array([2.0])
        assert ad.value_of(plain) is plain

    def test_mixed_tapes_rejected(self):
        a = ad.Tensor(np.array([[1.0]]), ad.Tape())
        b = ad.Tensor(np.array([[2.0]]), ad.Tape())
        with pytest.raises(ValueError):
            _ = a + b
        for op in MULTI_OPERAND:
            with pytest.raises(ValueError, match="different tapes"):
                op(a, b)

    def test_repeated_backprop_is_bitwise_identical(self):
        traj, obs, skeleton = hs.random_problem(3, 1, seed=4)
        objective = hs.make_flat_objective(obs, skeleton)
        x = traj.to_flat()
        v1, g1 = ad.record_and_backprop(objective, x)
        v2, g2 = ad.record_and_backprop(objective, x)
        assert v1 == v2
        assert np.array_equal(g1, g2)

    def test_backprop_leaves_no_cyclic_garbage(self):
        traj, obs, skeleton = hs.random_problem(5, 2, seed=0)
        objective = hs.make_flat_objective(obs, skeleton)
        x = traj.to_flat()
        gc.collect()
        gc.disable()
        try:
            ad.record_and_backprop(objective, x)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_raising_objective_empties_its_tape(self):
        # the one visible landmark is behind its camera, so the reprojection
        # term raises after forward kinematics has recorded its nodes
        traj, obs, skeleton = hs.random_problem(3, 1, seed=0)
        intr, extr = obs.rig.views[0]
        visibility = np.zeros_like(obs.visibility)
        visibility[0, 0, 0] = True
        behind = replace(extr, translation=np.array([0.0, 0.0, -10.0]))
        obs = replace(obs, visibility=visibility, rig=hs.CameraRig(views=((intr, behind),)))
        flat_objective = hs.make_flat_objective(obs, skeleton)
        tapes = []

        def objective(x):
            tapes.append(x.tape)
            return flat_objective(x)

        with pytest.raises(DegenerateObservationError):
            ad.record_and_backprop(objective, traj.to_flat())
        assert tapes[0].nodes == []

    def test_objective_must_return_scalar_tensor(self):
        with pytest.raises(TypeError):
            ad.record_and_backprop(lambda x: 1.0, np.zeros(2))
        with pytest.raises(ValueError):
            ad.record_and_backprop(lambda x: x * 2.0, np.zeros(2))

    def test_one_element_output_is_rejected_as_not_scalar(self):
        # a (1,) output has size 1 but is not a 0-d scalar
        with pytest.raises(ValueError, match="objective must be scalar-valued"):
            ad.record_and_backprop(lambda x: x[0:1] * 2.0, np.zeros(2))

    def test_dispatchers_pass_plain_arrays_through(self):
        x = np.array([0.5, 1.5])
        assert isinstance(ad.mul(x, x), np.ndarray)
        assert isinstance(hs.hand_model.rotation_matrices(AA), np.ndarray)
        # one definition per primitive: plain and taped values agree bitwise
        for label, fn, operands in PRIMITIVE_CASES:
            plain = fn(*operands)
            assert not isinstance(plain, ad.Tensor), label
            plain = np.asarray(plain)
            tape = ad.Tape()
            taped = fn(*(ad.Tensor(o, tape) if isinstance(o, np.ndarray) else o
                         for o in operands))
            assert isinstance(taped, ad.Tensor) and taped.tape is tape, label
            assert plain.dtype == float and plain.shape == taped.value.shape, label
            assert plain.tobytes() == taped.value.tobytes(), label


class TestDomainErrors:
    @pytest.mark.parametrize(
        "idx",
        [
            np.array([1, 0]),
            np.array([True, False, True]),
            [0, 2],
            (Ellipsis, np.array([[0, 1], [1, 2]])),
        ],
    )
    def test_getitem_rejects_index_that_could_repeat(self, idx):
        # the VJP assigns g, which is exact only for basic indices: an array
        # index could select an element twice, so every one is rejected
        for x in (np.arange(3.0), ad.Tensor(np.arange(3.0), ad.Tape())):
            with pytest.raises(ValueError, match="basic indices only"):
                ad.getitem(x, idx)

    def test_check_gradient_rejects_objective_without_batch_axis(self):
        # summing every axis maps each (B, P) block to one scalar
        with pytest.raises(ValueError, match=r"block to shape \(6,\), got \(\)"):
            ad.check_gradient(lambda x: sum(x * x), np.ones(3))


def lead(x):
    """The batch axes of a flat (..., P) input: () on the tape, (B,) for the
    blocks check_gradient evaluates."""
    return ad.value_of(x).shape[:-1]


class TestFiniteDifferenceAgreement:
    """AD against central finite differences on composites covering every op.

    check_gradient hands each objective (B, P) blocks of perturbed points, so
    every composite keeps leading axes and reduces over the trailing ones."""

    def assert_matches_fd(self, fn, x, tol=1e-6):
        err = ad.check_gradient(fn, np.asarray(x, dtype=float))
        assert err < tol, f"max relative error {err:.3e}"

    def test_trig_composite(self):
        rng = np.random.default_rng(0)

        def fn(x):
            return sum(sin(x) * cos(x * 0.5) + exp(x * 0.1), axis=-1)

        self.assert_matches_fd(fn, rng.normal(size=6))

    def test_abs_smooth_away_from_zero(self):
        def fn(x):
            return sum(abs_smooth(x), axis=-1)

        self.assert_matches_fd(fn, [0.5, -1.25, 2.0, -0.75])

    def test_matmul_chain(self):
        a = np.arange(6.0).reshape(2, 3) * 0.1 + 0.3

        def fn(x):
            m = ad.reshape(x, lead(x) + (3, 2))
            prod = matmul(a, m)
            return sum(prod * prod, axis=(-2, -1))

        self.assert_matches_fd(fn, np.linspace(0.2, 1.3, 6))

    def test_batched_matmul_broadcast(self):
        b = np.linspace(-0.4, 0.9, 12).reshape(4, 3)[None]  # (1, 4, 3)

        def fn(x):
            m = ad.reshape(x, lead(x) + (2, 3, 3))
            return sum(matmul(b, m), axis=(-3, -2, -1))

        self.assert_matches_fd(fn, np.linspace(0.1, 1.8, 18))

    def test_stack_and_concat(self):
        def fn(x):
            s = stack([x * 2.0, x + 1.0], axis=-2)
            c = concat([s, np.ones(lead(x) + (1, 3))], axis=-2)
            return sum(c * c, axis=(-2, -1))

        self.assert_matches_fd(fn, [0.3, -0.8, 1.1])

    def test_sum_with_axis_and_division(self):
        def fn(x):
            m = ad.reshape(x, lead(x) + (2, 4))
            row = sum(m, axis=-1)
            norm = sum(sum(m * m, axis=-1), axis=-1)[..., None]
            return sum(div(row, norm + 1.0), axis=-1)

        self.assert_matches_fd(fn, np.linspace(-1.0, 1.5, 8))

    def test_sqrt_positive(self):
        def fn(x):
            return sum(sqrt(x * x + 1.0), axis=-1)

        self.assert_matches_fd(fn, [0.7, -1.3, 2.4])

    @pytest.mark.parametrize(
        "fn, x", [case[1:] for case in FUSED_GRADIENT_CASES],
        ids=[case[0] for case in FUSED_GRADIENT_CASES],
    )
    def test_fused_op(self, fn, x):
        self.assert_matches_fd(fn, x)

    def test_full_objective_single_instance(self):
        for frames, views, seed, hidden in FULL_OBJECTIVE_CASES:
            traj, obs, skeleton = hs.random_problem(frames, views, seed)
            if hidden is not None:
                visibility = obs.visibility.copy()
                visibility[hidden] = False
                obs = replace(obs, visibility=visibility)
            objective = hs.make_flat_objective(obs, skeleton)
            err = ad.check_gradient(objective, traj.to_flat())
            assert err < 1e-4, f"{seed=} {hidden=}: max relative error {err:.3e}"

    def test_full_objective_near_camera_plane(self):
        # View 0 moves along its optical axis until the nearest joint sits at
        # each depth. Not asserted: at 2e-6 m the +-1e-6 central difference
        # pushes that joint across camera.MIN_DEPTH, the visibility mask
        # flips between the two evaluations and the error reaches 0.25. That
        # is a limit of finite differences, not of the tape.
        for seed in range(3):
            traj, obs, skeleton = hs.random_problem(5, 2, seed)
            intr, extr = obs.rig.views[0]
            depth = hs.trajectory_joints(traj, skeleton) @ extr.rotation[2] + extr.translation[2]
            for target in (1e-2, 1e-3):
                moved = replace(
                    extr, translation=extr.translation - [0.0, 0.0, depth.min() - target]
                )
                rig = hs.CameraRig(views=((intr, moved),) + obs.rig.views[1:])
                objective = hs.make_flat_objective(replace(obs, rig=rig), skeleton)
                err = ad.check_gradient(objective, traj.to_flat())
                assert err < 1e-5, f"{seed=} {target=}: max relative error {err:.3e}"
