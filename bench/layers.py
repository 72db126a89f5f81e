"""Direct timings and counts of each layer on one workload's own arrays.

Each probe calls one public function of one module on the workload's input
at its initial parameters, with tracing off, and reports the median of its
repeats in ms. Tape counts are exact and repeat on every run.
"""

from __future__ import annotations

import gc
import os
import statistics
import time

import numpy as np

MB = 1e6
SMOOTH_PROBE_ITERS = 20  # gradcheck runs no smooth; this short one gives iter_ms


def repeat(fn, budget_s: float, max_reps: int = 15, min_reps: int = 3) -> float:
    """Median wall time of ``fn`` in ms over repeats that fit the budget."""
    gc.collect()
    times = []
    t_end = time.perf_counter() + budget_s
    while len(times) < max_reps and (len(times) < min_reps or time.perf_counter() < t_end):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def probe_layers(hs, problem, budget_s: float) -> dict:
    """Per-layer metrics for one problem.

    ``problem`` has ``traj``, ``obs``, ``skeleton``, ``truth`` (None when
    there is no ground truth), ``seq_path`` (a sequence file of the problem)
    and ``size`` = (frames, views, seed) for the synth control.
    """
    ad, hm, cam, obj, sm = hs.autodiff, hs.hand_model, hs.camera, hs.objective, hs.smoother
    traj, obs, skeleton = problem.traj, problem.obs, problem.skeleton
    objective = obj.make_flat_objective(obs, skeleton)
    flat = traj.to_flat()
    aa_all = np.concatenate([traj.orients[:, None], traj.joint_rotations], axis=1)
    joints = obj.trajectory_joints(traj, skeleton)
    _, grad = ad.record_and_backprop(objective, flat)
    config = sm.SmootherConfig()
    per = budget_s / 16
    out = {}

    def record():
        tape = ad.Tape()
        return tape, objective(ad.Tensor(flat.copy(), tape))

    tape, _ = record()
    out["autodiff.tape_nodes"] = len(tape.nodes)
    # values + gradients: every node's gradient has its value's shape
    out["autodiff.tape_mb"] = 2 * sum(t.value.nbytes for t in tape.nodes) / MB
    del tape
    out["autodiff.record_ms"] = repeat(record, per)
    out["autodiff.backprop_ms"] = repeat(lambda: ad.record_and_backprop(objective, flat), per)
    out["autodiff.backward_ms"] = out["autodiff.backprop_ms"] - out["autodiff.record_ms"]

    out["hand_model.rodrigues_ms"] = repeat(lambda: hm.rotation_matrices(aa_all), per)
    out["hand_model.fk_ms"] = repeat(
        lambda: hm.fk_joints(skeleton, traj.shape, traj.orients, traj.positions,
                             traj.joint_rotations), per)
    tape = ad.Tape()
    leaves = [ad.Tensor(a, tape) for a in
              (traj.shape, traj.orients, traj.positions, traj.joint_rotations)]
    hm.fk_joints(skeleton, *leaves)
    out["hand_model.fk_tape_nodes"] = len(tape.nodes) - len(leaves)

    def project():
        for view in obs.rig.views:
            cam.project_points_masked(joints, view)

    out["camera.project_ms"] = repeat(project, per)
    tape = ad.Tape()
    leaf = ad.Tensor(joints, tape)
    for view in obs.rig.views:
        cam.project_points_masked(leaf, view)
    out["camera.project_tape_nodes"] = len(tape.nodes) - 1
    del tape, leaf, leaves

    out["objective.forward_ms"] = repeat(lambda: objective(flat), per)
    out["objective.loss_components_ms"] = repeat(
        lambda: obj.loss_components(traj, obs, skeleton), per)

    def accel():
        for series in (traj.joint_rotations, traj.orients, traj.positions):
            obj.acceleration_loss(series)

    out["objective.accel_ms"] = repeat(accel, per)
    state = sm.AdamWState.zeros(flat.size)
    out["smoother.adamw_ms"] = repeat(
        lambda: sm.adamw_step(flat, grad, state, config.learning_rate, config), per)
    out["metrics.evaluate_ms"] = repeat(
        lambda: hs.metrics.evaluate(traj, problem.truth, obs, skeleton), per)
    seq = hs.formats.load_sequence(problem.seq_path)
    out["formats.load_ms"] = repeat(lambda: hs.formats.load_sequence(problem.seq_path), per)
    save_path = str(problem.seq_path) + ".probe.json"
    out["formats.save_ms"] = repeat(lambda: hs.formats.save_sequence(save_path, seq), per)
    os.remove(save_path)
    out["formats.file_mb"] = os.path.getsize(problem.seq_path) / MB
    frames, views, seed = problem.size
    out["synth.random_problem_ms"] = repeat(
        lambda: hs.synth.random_problem(frames, views, seed), per)
    return out


def smooth_iter_ms(hs, problem, budget_s: float) -> float:
    """smooth wall time per iteration on a short run of the problem."""
    config = hs.smoother.SmootherConfig(max_iters=SMOOTH_PROBE_ITERS)
    ms = repeat(lambda: hs.smoother.smooth(problem.traj, problem.obs, problem.skeleton, config),
                budget_s, max_reps=5, min_reps=1)
    return ms / SMOOTH_PROBE_ITERS


def probe_check_gradient(hs, traj, obs, skeleton) -> dict:
    """One check_gradient on a small problem, and its objective evaluations."""
    objective = hs.objective.make_flat_objective(obs, skeleton)
    calls = 0

    def counted(vec):
        nonlocal calls
        calls += 1
        return objective(vec)

    gc.collect()
    t0 = time.perf_counter()
    hs.autodiff.check_gradient(counted, traj.to_flat())
    ms = (time.perf_counter() - t0) * 1e3
    return {"autodiff.check_gradient_ms": ms, "autodiff.fd_evals": calls - 1}
