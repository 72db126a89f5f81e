"""Release gate: eight end-to-end checks, one printed PASS/FAIL line each.

Run with -s to see the lines as they print:

    python3 -m pytest tests/test_acceptance.py -v -s
"""

import re
import time

import numpy as np

import handsmooth as hs
from handsmooth.camera import perturb_extrinsics
from handsmooth.cli import main as cli_main
from handsmooth.objective import acceleration_loss, loss_components
from handsmooth.smoother import SmootherConfig, cosine_lr, smooth
from handsmooth.synth import build_rig

from conftest import constant_velocity_motion, exact_sequence


def _line(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")


def test_criterion_1_gradients_match_finite_differences(capsys):
    # default sweep: 100 random problems, 5 frames, 2 views, tol 1e-4
    t0 = time.perf_counter()
    code = cli_main(["gradcheck"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    worst = float(re.search(r"worst (\S+)", out).group(1))
    ok = code == 0 and worst < 1e-4 and elapsed < 60.0
    with capsys.disabled():
        _line(1, "autodiff vs finite differences", ok,
              f"worst={worst:.3e}, runtime={elapsed:.1f}s")
    assert code == 0
    assert worst < 1e-4
    assert elapsed < 60.0


def test_criterion_2_loss_formulas_are_exact(capsys):
    # acceleration term: exact zeros for constant and linear series, and the
    # unit kink evaluates to 1 up to the 1e-8 smoothing offset
    const = np.tile(np.array([0.3, -0.2, 0.1]), (6, 1))
    zero_err = acceleration_loss(const)
    ramp = np.linspace(0.0, 1.0, 8)[:, None] * np.array([1.0, 2.0, 3.0])
    ramp_err = acceleration_loss(ramp)
    kink = np.zeros((3, 1))
    kink[2, 0] = 1.0
    kink_err = abs(acceleration_loss(kink) - 1.0)

    # composite: equals the weighted sum of its published components
    traj, obs, skeleton = hs.random_problem(5, 2, seed=202)
    weights = hs.LossWeights(
        acce_pose=0.7, acce_orients=0.2, acce_position=1.3, reprojection=2.0
    )
    parts = loss_components(traj, obs, skeleton, weights)
    # components are reported pre-weighting, so recombine explicitly
    recombined = (
        weights.acce_pose * parts["acce_pose"]
        + weights.acce_orients * parts["acce_orients"]
        + weights.acce_position * parts["acce_position"]
        + weights.reprojection * parts["loss_2d"]
    )
    total = parts["total"]
    sum_err = abs(total - recombined) / max(1.0, abs(total))
    defaults = hs.LossWeights()
    defaults_ok = (
        defaults.acce_pose,
        defaults.acce_orients,
        defaults.acce_position,
        defaults.reprojection,
    ) == (0.5, 0.5, 0.5, 1.0)

    ok = (
        zero_err == 0.0
        and ramp_err <= 1e-8
        and kink_err <= 1.01e-8
        and sum_err <= 1e-12
        and defaults_ok
    )
    with capsys.disabled():
        _line(2, "objective formula identities", ok,
              f"const={zero_err}, ramp={ramp_err:.2e}, kink_err={kink_err:.2e}, "
              f"sum_rel_err={sum_err:.2e}, defaults={defaults_ok}")
    assert zero_err == 0.0
    assert ramp_err <= 1e-8
    assert kink_err <= 1.01e-8
    assert sum_err <= 1e-12
    assert defaults_ok


def test_criterion_3_exact_data_is_a_fixed_point(capsys):
    # dyadic constant-velocity sequence: residuals are exactly zero, so 500
    # optimizer steps must not move any parameter
    gt, init, obs, skeleton = exact_sequence(constant_velocity_motion(20))
    assert np.array_equal(init.to_flat(), gt.to_flat())
    refined, report = smooth(init, obs, skeleton, SmootherConfig())
    drift = float(np.max(np.abs(refined.to_flat() - init.to_flat())))
    max_total = max(entry.total for entry in report.entries)
    ok = drift <= 1e-4 and max_total < 1e-8
    with capsys.disabled():
        _line(3, "noise-free input is left untouched", ok,
              f"max_param_drift={drift}, max_total={max_total}")
    assert drift <= 1e-4
    assert max_total < 1e-8


def test_criterion_4_refinement_improves_noisy_sequences(
    fixtures_dir, skeleton, capsys
):
    motion = hs.load_motion_spec(fixtures_dir / "acceptance_motion.json")
    noise = hs.load_noise_spec(fixtures_dir / "acceptance_noise.json")
    rng = np.random.default_rng(noise.seed)
    gt, rig = hs.generate_sequence(motion, rng)
    init = hs.corrupt_trajectory(gt, noise, rng)
    obs = hs.render_observations(gt, rig, skeleton, noise, rng)
    t0 = time.perf_counter()
    refined, report = smooth(init, obs, skeleton, SmootherConfig())
    elapsed = time.perf_counter() - t0
    before = hs.evaluate(init, gt, obs, skeleton)
    after = hs.evaluate(refined, gt, obs, skeleton)
    ok = (
        after.mpjpe_mm < before.mpjpe_mm
        and after.accel_error_mm < 0.5 * before.accel_error_mm
        and after.reproj_px < 0.1 * before.reproj_px
        and not report.non_improving
        and elapsed < 300.0
    )
    with capsys.disabled():
        _line(4, "noisy 60-frame benchmark improves", ok,
              f"mpjpe {before.mpjpe_mm:.3f}->{after.mpjpe_mm:.3f}mm, "
              f"accel {before.accel_error_mm:.3f}->{after.accel_error_mm:.3f}, "
              f"reproj {before.reproj_px:.4f}->{after.reproj_px:.4f}px, "
              f"runtime={elapsed:.1f}s")
    assert after.mpjpe_mm < before.mpjpe_mm
    assert after.accel_error_mm < 0.5 * before.accel_error_mm
    assert after.reproj_px < 0.1 * before.reproj_px
    assert not report.non_improving
    assert elapsed < 300.0


def test_criterion_5_camera_noise_is_bounded_and_centered(capsys):
    rig = build_rig(hs.RigSpec(num_views=1), np.zeros((2, 3)))
    _, extr = rig.views[0]
    rng = np.random.default_rng(99)
    deltas = np.empty((100_000, 3))
    rotation_moved = False
    for i in range(deltas.shape[0]):
        moved = perturb_extrinsics(extr, rng, 0.5)
        deltas[i] = moved.translation - extr.translation
        if not np.array_equal(moved.rotation, extr.rotation):
            rotation_moved = True
    peak = float(np.max(np.abs(deltas)))
    mean_off = float(np.max(np.abs(deltas.mean(axis=0))))
    ok = peak < 0.5 and mean_off < 0.01 and not rotation_moved
    with capsys.disabled():
        _line(5, "extrinsic perturbation bounds", ok,
              f"peak=|{peak:.6f}|<0.5, mean_offset={mean_off:.5f}<0.01, "
              f"rotation_moved={rotation_moved}")
    assert peak < 0.5
    assert mean_off < 0.01
    assert not rotation_moved


def test_criterion_6_mirroring_is_exactly_involutive(skeleton, capsys):
    worst_inv = 0.0
    worst_fk = 0.0
    for seed in (5, 6, 7):
        traj, obs, _ = hs.random_problem(5, 2, seed=seed)
        t1, o1 = hs.mirror_hand(traj, obs)
        t2, o2 = hs.mirror_hand(t1, o1)
        worst_inv = max(
            worst_inv,
            float(np.max(np.abs(t2.to_flat() - traj.to_flat()))),
            float(np.max(np.abs(o2.landmarks_2d - obs.landmarks_2d))),
        )
        direct = hs.trajectory_joints(
            hs.mirror_trajectory(traj), hs.mirror_skeleton(skeleton)
        )
        reflected = hs.trajectory_joints(traj, skeleton) * np.array([-1.0, 1.0, 1.0])
        worst_fk = max(worst_fk, float(np.max(np.abs(direct - reflected))))
    ok = worst_inv <= 1e-12 and worst_fk <= 1e-10
    with capsys.disabled():
        _line(6, "mirror involution and FK commutation", ok,
              f"involution={worst_inv:.2e}<=1e-12, fk={worst_fk:.2e}<=1e-10")
    assert worst_inv <= 1e-12
    assert worst_fk <= 1e-10


def test_criterion_7_everything_is_deterministic(fixtures_dir, tmp_path, capsys):
    # same inputs, same bytes: generation, refinement, and file round trips
    motion = str(fixtures_dir / "acceptance_motion.json")
    noise = str(fixtures_dir / "acceptance_noise.json")
    gen_a, gen_b = tmp_path / "gen_a.json", tmp_path / "gen_b.json"
    assert cli_main(["generate", motion, noise, str(gen_a)]) == 0
    assert cli_main(["generate", motion, noise, str(gen_b)]) == 0
    gen_same = gen_a.read_bytes() == gen_b.read_bytes()

    src = str(fixtures_dir / "sequence_small.json")
    out_a, out_b = tmp_path / "sm_a.json", tmp_path / "sm_b.json"
    rep_a, rep_b = tmp_path / "rep_a.json", tmp_path / "rep_b.json"
    args = ["--iters", "40", "--report"]
    assert cli_main(["smooth", src, str(out_a), *args, str(rep_a)]) == 0
    assert cli_main(["smooth", src, str(out_b), *args, str(rep_b)]) == 0
    smooth_same = out_a.read_bytes() == out_b.read_bytes()
    report_same = rep_a.read_bytes() == rep_b.read_bytes()

    reloaded = tmp_path / "roundtrip.json"
    hs.save_sequence(reloaded, hs.load_sequence(src))
    roundtrip_same = reloaded.read_bytes() == (fixtures_dir / "sequence_small.json").read_bytes()

    capsys.readouterr()  # drop the subcommand chatter
    ok = gen_same and smooth_same and report_same and roundtrip_same
    with capsys.disabled():
        _line(7, "bitwise determinism", ok,
              f"generate={gen_same}, smooth={smooth_same}, "
              f"report={report_same}, roundtrip={roundtrip_same}")
    assert gen_same and smooth_same and report_same and roundtrip_same


def test_criterion_8_learning_rate_schedule_endpoints(capsys):
    # decays over step in [0, max_iters]; the floor lands on the last step
    config = SmootherConfig(learning_rate=1e-2, lr_min=5e-3, max_iters=100)
    first = cosine_lr(0, config)
    last = cosine_lr(config.max_iters, config)
    floor = cosine_lr(100, SmootherConfig(learning_rate=1e-2, max_iters=100))
    # the midpoint rounds to exactly half the peak: cos(pi/2) is ~6e-17,
    # which vanishes below half an ulp of 5e-3
    mid = cosine_lr(50, SmootherConfig(learning_rate=1e-2, max_iters=100))
    ok = first == 1e-2 and last == 5e-3 and floor == 0.0 and mid == 5e-3
    with capsys.disabled():
        _line(8, "cosine schedule endpoints", ok,
              f"first={first}, last={last}, zero_floor={floor}, mid={mid}")
    assert first == 1e-2
    assert last == 5e-3
    assert floor == 0.0
    assert mid == 5e-3
