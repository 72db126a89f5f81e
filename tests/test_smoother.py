"""AdamW updates, cosine schedule, the refinement loop, and loss reports."""

import dataclasses
import json

import numpy as np
import pytest

import handsmooth as hs
from handsmooth import smoother
from handsmooth.cli import build_parser
from handsmooth.errors import DivergedError
from handsmooth.formats import record_from_dict
from handsmooth.smoother import CSV_COLUMNS, AdamWState

from conftest import constant_velocity_motion, exact_sequence


def run_command(argv):
    """Run one CLI command, letting its exception out instead of mapping it
    to an exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


class TestCosineSchedule:
    def test_endpoints_exact(self):
        config = hs.SmootherConfig(learning_rate=1e-2, lr_min=0.0, max_iters=500)
        assert hs.cosine_lr(0, config) == 1e-2
        assert hs.cosine_lr(250, config) == 5e-3
        assert hs.cosine_lr(500, config) == 0.0

    def test_monotone_decay(self):
        config = hs.SmootherConfig(learning_rate=1e-2, max_iters=100)
        values = [hs.cosine_lr(s, config) for s in range(101)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_respects_floor(self):
        config = hs.SmootherConfig(learning_rate=1e-2, lr_min=1e-3, max_iters=10)
        assert hs.cosine_lr(10, config) == 1e-3
        assert all(hs.cosine_lr(s, config) >= 1e-3 for s in range(11))

    def test_step_out_of_range(self):
        config = hs.SmootherConfig(max_iters=10)
        with pytest.raises(ValueError):
            hs.cosine_lr(11, config)
        with pytest.raises(ValueError):
            hs.cosine_lr(-1, config)


class TestAdamWStep:
    def test_zero_gradient_is_exact_noop(self):
        params = np.array([1.0, -2.0, 0.5])
        state = AdamWState.zeros(3)
        out, new_state = hs.adamw_step(
            params, np.zeros(3), state, 1e-2, hs.SmootherConfig()
        )
        assert np.array_equal(out, params)
        assert new_state.step == 1

    def test_first_step_moves_by_lr_sign(self):
        # bias-corrected first step: m_hat/(sqrt(v_hat)+eps) ~ sign(g)
        params = np.zeros(3)
        grad = np.array([2.0, -0.5, 1e3])
        out, _ = hs.adamw_step(
            params, grad, AdamWState.zeros(3), 0.01, hs.SmootherConfig()
        )
        assert np.allclose(out, -0.01 * np.sign(grad), atol=1e-6)

    def test_decay_only_shrinks_parameters(self):
        config = hs.SmootherConfig(weight_decay=1e-3)
        params = np.array([1.0, -4.0])
        out, _ = hs.adamw_step(params, np.zeros(2), AdamWState.zeros(2), 1.0, config)
        assert np.allclose(out, params * 0.999, rtol=1e-12)

    def test_nonfinite_gradient_raises(self):
        with pytest.raises(DivergedError):
            hs.adamw_step(
                np.zeros(2),
                np.array([1.0, np.inf]),
                AdamWState.zeros(2),
                1e-2,
                hs.SmootherConfig(),
            )

    def test_two_steps_match_hand_rolled_recurrence(self):
        config = hs.SmootherConfig()
        b1, b2, eps = config.adam_beta1, config.adam_beta2, config.adam_eps
        params = np.array([0.3])
        grads = [np.array([0.7]), np.array([-0.2])]
        m = np.zeros(1)
        v = np.zeros(1)
        expected = params.copy()
        state = AdamWState.zeros(1)
        actual = params.copy()
        for step, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**step)
            v_hat = v / (1 - b2**step)
            expected = expected - 0.01 * m_hat / (np.sqrt(v_hat) + eps)
            actual, state = hs.adamw_step(actual, g, state, 0.01, config)
        assert np.allclose(actual, expected, rtol=1e-15)


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            hs.SmootherConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            hs.SmootherConfig(max_iters=0)
        with pytest.raises(ValueError):
            hs.SmootherConfig(adam_beta1=1.0)
        with pytest.raises(ValueError):
            hs.SmootherConfig(lr_min=0.02, learning_rate=0.01)
        with pytest.raises(ValueError):
            hs.SmootherConfig(weight_decay=-1.0)
        with pytest.raises(ValueError):
            hs.SmootherConfig(reprojection_norm="manhattan")

    @pytest.mark.parametrize(
        "make",
        [
            lambda: hs.SmootherConfig(adam_eps=float("nan")),
            lambda: hs.SmootherConfig(adam_eps=float("inf")),
            lambda: hs.SmootherConfig(max_iters=2.5),
            lambda: hs.gradient_sweep(5, 2, 0),
            lambda: run_command(["gradcheck", "--tolerance", "nan"]),
        ],
        ids=["adam_eps-nan", "adam_eps-inf", "max_iters-2.5", "sweep-count-0",
             "gradcheck-tolerance-nan"],
    )
    def test_rejects_setting_the_records_check(self, make):
        with pytest.raises(ValueError):
            make()


class TestSmoothLoop:
    def test_report_has_one_entry_per_iteration_plus_final(self):
        traj, obs, skeleton = hs.random_problem(3, 1, seed=0)
        _, report = hs.smooth(traj, obs, skeleton, hs.SmootherConfig(max_iters=1))
        assert len(report.entries) == 2
        assert report.entries[0].iteration == 0
        assert report.entries[-1].iteration == 1

    def test_deterministic_rerun_is_bitwise(self):
        traj, obs, skeleton = hs.random_problem(4, 2, seed=5)
        config = hs.SmootherConfig(max_iters=20)
        a, report_a = hs.smooth(traj, obs, skeleton, config)
        b, report_b = hs.smooth(traj, obs, skeleton, config)
        assert np.array_equal(a.to_flat(), b.to_flat())
        assert report_a.to_json_dict() == report_b.to_json_dict()

    def test_loss_decreases_on_noisy_input(self):
        traj, obs, skeleton = hs.random_problem(5, 2, seed=6)
        _, report = hs.smooth(traj, obs, skeleton, hs.SmootherConfig(max_iters=50))
        assert report.entries[-1].total < report.entries[0].total
        assert not report.non_improving

    def test_shape_frozen_by_default_even_with_decay(self):
        traj, obs, skeleton = hs.random_problem(3, 1, seed=7)
        config = hs.SmootherConfig(max_iters=10, weight_decay=0.1)
        refined, _ = hs.smooth(traj, obs, skeleton, config)
        assert np.array_equal(refined.shape, traj.shape)

    def test_optimize_shape_moves_shape(self):
        traj, obs, skeleton = hs.random_problem(3, 1, seed=8)
        config = hs.SmootherConfig(max_iters=10, optimize_shape=True)
        refined, _ = hs.smooth(traj, obs, skeleton, config)
        assert not np.array_equal(refined.shape, traj.shape)

    def test_all_zero_weights_change_nothing(self):
        traj, obs, skeleton = hs.random_problem(3, 1, seed=9)
        config = hs.SmootherConfig(
            max_iters=5, weights=hs.LossWeights(0.0, 0.0, 0.0, 0.0)
        )
        refined, report = hs.smooth(traj, obs, skeleton, config)
        assert np.array_equal(refined.to_flat(), traj.to_flat())
        assert all(e.total == 0.0 for e in report.entries)

    def test_zero_reprojection_weight_decouples_views(self):
        # with the 2D term off, the refinement must not depend on the rig
        traj, obs, skeleton = hs.random_problem(4, 2, seed=10)
        truncated = hs.SequenceObservation(
            landmarks_2d=obs.landmarks_2d[:, :1],
            visibility=obs.visibility[:, :1],
            rig=hs.CameraRig(views=obs.rig.views[:1]),
        )
        config = hs.SmootherConfig(
            max_iters=15, weights=hs.LossWeights(0.5, 0.5, 0.5, 0.0)
        )
        a, _ = hs.smooth(traj, obs, skeleton, config)
        b, _ = hs.smooth(traj, truncated, skeleton, config)
        assert np.array_equal(a.to_flat(), b.to_flat())

    def test_fixed_point_on_exact_constant_velocity(self):
        gt, init, obs, skeleton = exact_sequence(constant_velocity_motion(8))
        config = hs.SmootherConfig(max_iters=25)
        refined, report = hs.smooth(init, obs, skeleton, config)
        assert np.array_equal(refined.to_flat(), init.to_flat())
        assert all(e.total == 0.0 for e in report.entries)

    def test_divergence_raises_with_partial_report(self):
        traj, obs, skeleton = hs.random_problem(3, 1, seed=11)
        config = hs.SmootherConfig(learning_rate=1e200, max_iters=10)
        with pytest.raises(DivergedError) as err:
            hs.smooth(traj, obs, skeleton, config)
        assert err.value.report is not None
        assert len(err.value.report.entries) >= 1

    @pytest.mark.parametrize(
        "weights, term, block",
        [
            (hs.LossWeights(), "acce_pose", "orients"),
            # only the position term is live: its value overflows, its
            # gradient does not
            (hs.LossWeights(0.0, 0.0, 0.5, 0.0), "acce_position", "none"),
        ],
    )
    def test_divergence_names_iteration_term_and_block(self, fixtures_dir, weights, term, block):
        seq = hs.load_sequence(fixtures_dir / "sequence_small.json")
        config = hs.SmootherConfig(learning_rate=1e200, max_iters=10, weights=weights)
        with pytest.raises(DivergedError) as err:
            hs.smooth(seq.init, seq.observations, seq.skeleton, config)
        assert str(err.value) == (
            "non-finite loss or gradient at iteration 1: first non-finite "
            f"term {term}, first non-finite gradient block {block}"
        )

    def test_non_improving_flag(self):
        # a huge step on a pure-acceleration objective makes things worse
        traj, obs, skeleton = hs.random_problem(4, 1, seed=12)
        config = hs.SmootherConfig(
            learning_rate=1.0,
            max_iters=1,
            weights=hs.LossWeights(0.5, 0.5, 0.5, 0.0),
        )
        _, report = hs.smooth(traj, obs, skeleton, config)
        assert report.non_improving
        assert report.entries[-1].total > report.entries[0].total

    def test_frame_count_mismatch_rejected(self):
        traj, _, skeleton = hs.random_problem(4, 1, seed=13)
        _, obs, _ = hs.random_problem(5, 1, seed=13)
        with pytest.raises(ValueError):
            hs.smooth(traj, obs, skeleton)

    @pytest.mark.parametrize(
        "weights, disabled",
        [
            (hs.LossWeights(0.5, 0.0, 0.5, 1.0), ("acce_orients",)),
            (hs.LossWeights(0.5, 0.0, 0.5, 0.0), ("acce_orients", "loss_2d")),
        ],
    )
    def test_report_is_truthful_and_evaluated_once(self, monkeypatch, weights, disabled):
        traj, obs, skeleton = hs.random_problem(4, 2, seed=14)
        calls = []
        original = smoother.loss_components

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(smoother, "loss_components", spy)
        config = hs.SmootherConfig(max_iters=6, weights=weights)
        refined, report = hs.smooth(traj, obs, skeleton, config)
        assert len(calls) == 1
        first, last = vars(report.entries[0]), vars(report.entries[-1])
        for entry, at in ((first, traj), (last, refined)):
            comps = original(at, obs, skeleton, weights)
            assert {k: entry[k] for k in comps} == comps
        for name in disabled:
            assert first[name] > 0.0
        flat_objective = hs.make_flat_objective(obs, skeleton, weights)
        assert first["total"] == float(flat_objective(traj.to_flat()))


class TestLossReport:
    def test_csv_header_and_shape(self, tmp_path):
        traj, obs, skeleton = hs.random_problem(3, 1, seed=14)
        _, report = hs.smooth(traj, obs, skeleton, hs.SmootherConfig(max_iters=2))
        path = tmp_path / "trace.csv"
        report.save(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,lr,total,acce_pose,acce_orients,acce_position,loss_2d"
        assert len(lines) == 1 + 3
        assert CSV_COLUMNS == tuple(lines[0].split(","))

    def test_csv_floats_roundtrip(self, tmp_path):
        traj, obs, skeleton = hs.random_problem(3, 1, seed=15)
        _, report = hs.smooth(traj, obs, skeleton, hs.SmootherConfig(max_iters=2))
        path = tmp_path / "trace.csv"
        report.save(path)
        rows = path.read_text().splitlines()[1:]
        for row, entry in zip(rows, report.entries):
            cells = row.split(",")
            assert float(cells[2]) == entry.total

    def test_json_roundtrip(self, tmp_path):
        traj, obs, skeleton = hs.random_problem(3, 1, seed=16)
        _, report = hs.smooth(traj, obs, skeleton, hs.SmootherConfig(max_iters=2))
        report.initial_metrics = {"mpjpe_mm": 1.25}
        report.final_metrics = {"mpjpe_mm": 0.5}
        path = tmp_path / "trace.json"
        report.save(path)
        with open(path) as f:
            loaded = json.load(f)
        assert loaded == report.to_json_dict()
        entries = [record_from_dict(hs.LossEntry, e, "entry") for e in loaded["entries"]]
        assert entries == report.entries

    def test_entries_are_plain_field_dicts(self):
        # exactly int and float, so the CSV's repr never writes np.float64(...)
        traj, obs, skeleton = hs.random_problem(3, 1, seed=17)
        _, report = hs.smooth(traj, obs, skeleton, hs.SmootherConfig(max_iters=2))
        assert len(report.entries) == 3
        for entry in report.entries:
            values = dataclasses.asdict(entry)
            assert type(values.pop("iteration")) is int
            assert {type(v) for v in values.values()} == {float}
