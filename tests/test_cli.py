"""End-to-end command line checks, run in process via cli.main()."""

import json
from dataclasses import replace

import numpy as np
import pytest

import handsmooth as hs
from handsmooth import smoother
from handsmooth.cli import main
from handsmooth.formats import read_json
from handsmooth.hand_model import default_model_dict

from conftest import constant_velocity_motion


@pytest.fixture
def specs(tmp_path):
    """Constant-velocity motion spec and a zero-noise spec on disk."""
    motion = tmp_path / "motion.json"
    noise = tmp_path / "noise.json"
    hs.save_motion_spec(motion, constant_velocity_motion(8))
    hs.save_noise_spec(noise, hs.NoiseSpec(seed=5))
    return motion, noise


class TestGenerate:
    def test_writes_sequence_and_reports_seed(self, specs, tmp_path, capsys):
        motion, noise = specs
        out = tmp_path / "seq.json"
        assert main(["generate", str(motion), str(noise), str(out)]) == 0
        line = capsys.readouterr().out
        assert "8 frames" in line and "2 views" in line and "seed 5" in line
        seq = hs.load_sequence(out)
        assert seq.init.num_frames == 8

    def test_byte_identical_reruns(self, specs, tmp_path):
        motion, noise = specs
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["generate", str(motion), str(noise), str(a)])
        main(["generate", str(motion), str(noise), str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_flag_overrides_spec_seed(self, specs, tmp_path, capsys):
        # needs nonzero noise, otherwise the seed cannot show in the output
        motion, _ = specs
        noise = tmp_path / "noisy.json"
        hs.save_noise_spec(noise, hs.NoiseSpec(sigma_pixel=1.0, seed=5))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["generate", str(motion), str(noise), str(a)])
        main(["generate", str(motion), str(noise), str(b), "--seed", "6"])
        assert "seed 6" in capsys.readouterr().out
        assert a.read_bytes() != b.read_bytes()

    def test_zero_noise_init_equals_ground_truth(self, specs, tmp_path):
        motion, noise = specs
        out = tmp_path / "seq.json"
        main(["generate", str(motion), str(noise), str(out)])
        seq = hs.load_sequence(out)
        assert np.array_equal(seq.init.to_flat(), seq.ground_truth.to_flat())

    def test_missing_spec_file_exits_1(self, specs, tmp_path, capsys):
        _, noise = specs
        code = main(
            ["generate", str(tmp_path / "nope.json"), str(noise),
             str(tmp_path / "out.json")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_noise_file_exits_1(self, specs, tmp_path, capsys):
        motion, _ = specs
        noise = tmp_path / "noise.json"
        for content in (b"[]", b"\xff\xfe{}", b"[" * 100_000):
            noise.write_bytes(content)
            code = main(["generate", str(motion), str(noise), str(tmp_path / "out.json")])
            assert code == 1
            assert capsys.readouterr().err.startswith(f"error: {noise}: ")

    def test_negative_spec_seed_exits_1(self, specs, tmp_path, capsys):
        motion, _ = specs
        noise = tmp_path / "noise.json"
        noise.write_text('{"seed": -1}')
        assert main(["generate", str(motion), str(noise), str(tmp_path / "out.json")]) == 1
        assert capsys.readouterr().err == f"error: {noise}: seed must be >= 0\n"

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("fx", -1, "focal lengths must be positive"),
            ("fy", 0.0, "focal lengths must be positive"),
            ("width", 0, "image size must be positive"),
            ("height", -1, "image size must be positive"),
            ("width", 10**400, "int too large to convert to float"),
            ("num_views", 10**400, "num_views must be in"),
        ],
        ids=["fx", "fy", "width", "height", "huge-width", "huge-num_views"],
    )
    def test_bad_rig_value_exits_1_naming_its_key(
        self, specs, tmp_path, capsys, key, value, message
    ):
        motion, noise = specs
        spec = read_json(motion)
        spec["rig"][key] = value
        motion.write_text(json.dumps(spec))
        assert main(["generate", str(motion), str(noise), str(tmp_path / "out.json")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {motion}.rig: {message}")
        assert not (tmp_path / "out.json").exists()

    def test_negative_seed_flag_exits_1(self, specs, tmp_path, capsys):
        motion, noise = specs
        out = tmp_path / "out.json"
        assert main(["generate", str(motion), str(noise), str(out), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0\n"
        assert not out.exists()


class TestSmooth:
    def test_refines_and_writes_reports(self, fixtures_dir, tmp_path, capsys):
        out = tmp_path / "refined.json"
        report_json = tmp_path / "trace.json"
        code = main(
            ["smooth", str(fixtures_dir / "sequence_small.json"), str(out),
             "--iters", "10", "--report", str(report_json)]
        )
        assert code == 0
        assert "total loss" in capsys.readouterr().out
        refined = hs.load_sequence(out)
        assert refined.init.num_frames == 3
        assert refined.ground_truth is not None
        trace = read_json(report_json)
        assert len(trace["entries"]) == 11  # one per iteration plus the final
        # ground truth present, so both metric snapshots are attached
        assert trace["initial_metrics"]["mpjpe_mm"] is not None
        assert trace["final_metrics"]["mpjpe_mm"] is not None

    def test_csv_report(self, fixtures_dir, tmp_path):
        out = tmp_path / "refined.json"
        report_csv = tmp_path / "trace.csv"
        main(
            ["smooth", str(fixtures_dir / "sequence_small.json"), str(out),
             "--iters", "3", "--report", str(report_csv)]
        )
        lines = report_csv.read_text().splitlines()
        assert lines[0] == "iteration,lr,total,acce_pose,acce_orients,acce_position,loss_2d"
        assert len(lines) == 1 + 4

    def test_deterministic_rerun(self, fixtures_dir, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        src = str(fixtures_dir / "sequence_small.json")
        main(["smooth", src, str(a), "--iters", "5"])
        main(["smooth", src, str(b), "--iters", "5"])
        assert a.read_bytes() == b.read_bytes()

    def test_zero_iters_is_a_usage_error(self, fixtures_dir, tmp_path, capsys):
        out = tmp_path / "o.json"
        src = str(fixtures_dir / "sequence_small.json")
        assert main(["smooth", src, str(out), "--iters", "0"]) == 1
        assert capsys.readouterr().err == "error: max_iters must be an integer >= 1\n"
        assert not out.exists()

    def test_divergence_exits_2_and_flushes_report(
        self, fixtures_dir, tmp_path, capsys
    ):
        report = tmp_path / "partial.json"
        code = main(
            ["smooth", str(fixtures_dir / "sequence_small.json"),
             str(tmp_path / "o.json"), "--lr", "1e200", "--iters", "50",
             "--report", str(report)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()
        trace = read_json(report)
        assert len(trace["entries"]) >= 1


class _Stop(Exception):
    pass


def smooth_config(argv, fixtures_dir, tmp_path, monkeypatch):
    """The SmootherConfig that ``smooth IN OUT *argv`` hands to smooth()."""
    seen = []

    def spy(init, obs, skeleton, config):
        seen.append(config)
        raise _Stop

    monkeypatch.setattr(smoother, "smooth", spy)
    with pytest.raises(_Stop):
        main(["smooth", str(fixtures_dir / "sequence_small.json"),
              str(tmp_path / "o.json"), *argv])
    return seen[0]


# (flags, field of SmootherConfig or of its LossWeights, non-default value)
CONFIG_FLAGS = [
    (["--lr", "0.02"], "learning_rate", 0.02),
    (["--lr-min", "0.005"], "lr_min", 0.005),
    (["--iters", "7"], "max_iters", 7),
    (["--lambda-pose", "0.25"], "acce_pose", 0.25),
    (["--lambda-orients", "0.75"], "acce_orients", 0.75),
    (["--lambda-position", "1.5"], "acce_position", 1.5),
    (["--lambda-2d", "2.0"], "reprojection", 2.0),
    (["--weight-decay", "0.1"], "weight_decay", 0.1),
    (["--adam-beta1", "0.8"], "adam_beta1", 0.8),
    (["--adam-beta2", "0.99"], "adam_beta2", 0.99),
    (["--adam-eps", "1e-6"], "adam_eps", 1e-6),
    (["--optimize-shape"], "optimize_shape", True),
    (["--norm", "l1"], "reprojection_norm", "l1"),
]


class TestSmoothConfig:
    def test_no_flags_builds_the_default_config(self, fixtures_dir, tmp_path, monkeypatch):
        config = smooth_config([], fixtures_dir, tmp_path, monkeypatch)
        assert config == hs.SmootherConfig()

    @pytest.mark.parametrize(
        "flags, name, value", CONFIG_FLAGS, ids=[flags[0] for flags, _, _ in CONFIG_FLAGS]
    )
    def test_each_flag_lands_in_its_field(
        self, fixtures_dir, tmp_path, monkeypatch, flags, name, value
    ):
        default = hs.SmootherConfig()
        if hasattr(default.weights, name):
            expected = replace(default, weights=replace(default.weights, **{name: value}))
        else:
            expected = replace(default, **{name: value})
        assert expected != default
        config = smooth_config(flags, fixtures_dir, tmp_path, monkeypatch)
        for field in vars(default):
            assert getattr(config, field) == getattr(expected, field), field


class TestEval:
    def test_self_eval_prints_table(self, fixtures_dir, capsys):
        assert main(["eval", str(fixtures_dir / "sequence_small.json")]) == 0
        table = capsys.readouterr().out
        assert "position error (mm)" in table
        assert "reprojection (px)" in table

    def test_json_output(self, fixtures_dir, tmp_path):
        out = tmp_path / "metrics.json"
        main(["eval", str(fixtures_dir / "sequence_small.json"),
              "--json", str(out)])
        d = read_json(out)
        assert set(d) >= {"mpjpe_mm", "accel_error_mm", "reproj_px"}

    def test_missing_ground_truth_exits_1(self, fixtures_dir, tmp_path, capsys):
        stripped = tmp_path / "nogt.json"
        d = read_json(fixtures_dir / "sequence_small.json")
        d["ground_truth"] = None
        stripped.write_text(json.dumps(d))
        assert main(["eval", str(stripped)]) == 1
        assert "no ground truth" in capsys.readouterr().err

    def test_against_supplies_ground_truth(self, fixtures_dir, tmp_path, capsys):
        stripped = tmp_path / "nogt.json"
        d = read_json(fixtures_dir / "sequence_small.json")
        d["ground_truth"] = None
        stripped.write_text(json.dumps(d))
        code = main(
            ["eval", str(stripped), "--against",
             str(fixtures_dir / "sequence_small.json")]
        )
        assert code == 0
        assert "position error (mm)" in capsys.readouterr().out

    def test_frame_mismatch_exits_1(self, specs, tmp_path, fixtures_dir, capsys):
        motion, noise = specs
        other = tmp_path / "eight.json"
        main(["generate", str(motion), str(noise), str(other)])
        code = main(
            ["eval", str(fixtures_dir / "sequence_small.json"),
             "--against", str(other)]
        )
        assert code == 1
        assert "frames" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "mutate, where",
        [
            (lambda d: d["init"].update(joint_rotations=0.5), "init"),
            (lambda d: d["rig"]["views"][0]["intrinsics"].update(width=1e300),
             "rig.views[0].intrinsics.width"),
            (lambda d: d.update(skeleton={"inline": dict(default_model_dict(), rest_offsets="x")}),
             "skeleton.inline"),
        ],
    )
    def test_malformed_sequence_exits_1(self, fixtures_dir, tmp_path, capsys, mutate, where):
        d = read_json(fixtures_dir / "sequence_small.json")
        mutate(d)
        bad = tmp_path / "bad.json"
        # 1e300 becomes 1e400 in the file, which JSON reads as infinity
        bad.write_text(json.dumps(d).replace("1e+300", "1e400"))
        assert main(["eval", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{bad}.{where}: " in err


class TestPerturb:
    def test_zero_range_is_identity(self, fixtures_dir, tmp_path):
        out = tmp_path / "same.json"
        src = fixtures_dir / "sequence_small.json"
        assert main(["perturb", str(src), str(out), "--range", "0"]) == 0
        assert out.read_bytes() == src.read_bytes()

    def test_seeded_determinism(self, fixtures_dir, tmp_path):
        src = str(fixtures_dir / "sequence_small.json")
        a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
        main(["perturb", src, str(a), "--seed", "3"])
        main(["perturb", src, str(b), "--seed", "3"])
        main(["perturb", src, str(c), "--seed", "4"])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_negative_seed_flag_exits_1(self, fixtures_dir, tmp_path, capsys):
        src = str(fixtures_dir / "sequence_small.json")
        out = tmp_path / "out.json"
        assert main(["perturb", src, str(out), "--seed", "-1"]) == 1
        assert capsys.readouterr().err.startswith("error: seed: ")
        assert not out.exists()

    def test_overflowing_range_exits_1_without_output(self, fixtures_dir, tmp_path, capsys):
        # finite, but the sampled width 2 * range is not
        out = tmp_path / "out.json"
        src = str(fixtures_dir / "sequence_small.json")
        assert main(["perturb", src, str(out), "--range", "1e308"]) == 1
        assert capsys.readouterr().err.startswith("error: noise_range must be in [0, ")
        assert not out.exists()

    def test_only_translations_change(self, fixtures_dir, tmp_path):
        out = tmp_path / "moved.json"
        src = fixtures_dir / "sequence_small.json"
        main(["perturb", str(src), str(out), "--range", "0.2", "--seed", "1"])
        before, after = hs.load_sequence(src), hs.load_sequence(out)
        assert np.array_equal(
            before.observations.landmarks_2d, after.observations.landmarks_2d
        )
        assert np.array_equal(
            before.init.to_flat(), after.init.to_flat()
        )
        for (_, e1), (_, e2) in zip(before.rig.views, after.rig.views):
            assert np.array_equal(e1.rotation, e2.rotation)
            assert np.all(np.abs(e1.translation - e2.translation) < 0.2)
            assert not np.array_equal(e1.translation, e2.translation)


class TestGradcheck:
    def test_small_sweep_passes(self, capsys):
        code = main(["gradcheck", "--frames", "3", "--views", "1",
                     "--seeds", "3"])
        assert code == 0
        assert "gradcheck: 3/3 instances within" in capsys.readouterr().out

    def test_too_few_frames_is_a_usage_error(self, capsys):
        assert main(["gradcheck", "--frames", "2"]) == 1
        assert capsys.readouterr().err == "error: num_frames must be >= 3\n"


# Each range-checked flag with a value out of its range, and the setting the
# error names: a SmootherConfig or LossWeights field for smooth, else the
# record or function argument behind the flag.
OUT_OF_RANGE = [
    ("generate", "--seed", "-1", "seed"),
    ("smooth", "--lr", "0", "learning_rate"),
    ("smooth", "--lr-min", "-1", "lr_min"),
    ("smooth", "--iters", "0", "max_iters"),
    ("smooth", "--lambda-pose", "-1", "acce_pose"),
    ("smooth", "--lambda-orients", "nan", "acce_orients"),
    ("smooth", "--lambda-position", "inf", "acce_position"),
    ("smooth", "--lambda-2d", "-1", "reprojection"),
    ("smooth", "--weight-decay", "-1", "weight_decay"),
    ("smooth", "--adam-eps", "0", "adam_eps"),
    ("perturb", "--range", "-1", "noise_range"),
    ("perturb", "--seed", "-1", "seed"),
    ("gradcheck", "--frames", "2", "num_frames"),
    ("gradcheck", "--views", "0", "num_views"),
    ("gradcheck", "--seeds", "0", "count of seeds"),
    ("gradcheck", "--tolerance", "0", "tolerance"),
]


class TestFlagRanges:
    @pytest.mark.parametrize(
        "command, flag, value, setting", OUT_OF_RANGE,
        ids=[f"{c}{f}" for c, f, _, _ in OUT_OF_RANGE],
    )
    def test_out_of_range_flag_exits_1_naming_its_setting(
        self, fixtures_dir, tmp_path, capsys, command, flag, value, setting
    ):
        out = tmp_path / "out.json"
        # smooth and perturb check their flags before they read the input, so
        # a missing input still reports the flag
        seq = tmp_path / "missing.json"
        operands = {
            "generate": [fixtures_dir / "motion_demo.json", fixtures_dir / "noise_demo.json", out],
            "smooth": [seq, out],
            "perturb": [seq, out],
            "gradcheck": [],
        }[command]
        assert main([command, *map(str, operands), flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and setting in err
        assert "missing.json" not in err
        assert not out.exists()


class TestParser:
    def test_unknown_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["polish"])
        assert exc.value.code == 1

    def test_no_arguments_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_bad_norm_choice_exits_1(self, fixtures_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["smooth", str(fixtures_dir / "sequence_small.json"),
                  str(tmp_path / "o.json"), "--norm", "manhattan"])
        assert exc.value.code == 1
