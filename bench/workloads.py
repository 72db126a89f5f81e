"""The benchmark's workloads: inputs made from a seed, and the operations
timed on them.

Every operation calls the program through its public modules. Each call goes
through a module attribute (``hs.cli.main``, ``hs.autodiff.check_gradient``),
so the wrappers that ``spans.py`` installs see it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import time
import traceback

import numpy as np

FIXTURES = ("tests", "fixtures")
GRADCHECK_TOLERANCE = 1e-4


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str        # "refine" or "gradcheck"
    frames: int
    views: int
    iters: int = 0   # smooth iterations, refine only


# Why these three: bench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("accept-60f2v", "refine", 60, 2, 500),
        Workload("wide-240f8v", "refine", 240, 8, 100),
        Workload("gradcheck-5f2v", "gradcheck", 5, 2),
    )
}

# Sizes for bench/selfcheck.py: big enough that every check still holds.
TINY = {
    "accept-60f2v": dict(frames=10, iters=300),
    "wide-240f8v": dict(frames=12, views=3, iters=80),
    "gradcheck-5f2v": dict(frames=3, views=1),
}


def tiny(wl: Workload) -> Workload:
    return dataclasses.replace(wl, **TINY[wl.name])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Failures:
    """Failed checks, each naming the workload and the operation."""

    def __init__(self, workload: str):
        self.workload = workload
        self.items = []

    def check(self, op: str, what: str, ok: bool, detail: str = "") -> bool:
        if not ok:
            self.items.append(
                {"workload": self.workload, "op": op, "check": what, "detail": detail}
            )
        return ok

    def crash(self, op: str, exc: BaseException):
        text = "".join(traceback.format_exception(exc)).strip()
        self.items.append(
            {"workload": self.workload, "op": op, "check": "raised", "detail": text}
        )


# ----- inputs -----


def refine_input(hs, root, wl: Workload, seed: int):
    """Motion and noise spec of a refine workload, from the committed
    acceptance fixtures; the workload seed replaces the noise seed."""
    fixtures = root.joinpath(*FIXTURES)
    motion = hs.load_motion_spec(fixtures / "acceptance_motion.json")
    rig = dataclasses.replace(motion.rig, num_views=wl.views)
    if wl.name.startswith("accept"):
        noise = dataclasses.replace(
            hs.load_noise_spec(fixtures / "acceptance_noise.json"), seed=seed
        )
        motion = dataclasses.replace(motion, num_frames=wl.frames, rig=rig)
    else:
        noise = hs.NoiseSpec(
            sigma_position=0.01, sigma_orient=0.05, sigma_pose=0.05,
            sigma_pixel=1.0, visibility_dropout=0.2, seed=seed,
        )
        arc = hs.WristPath(kind="arc", radius=0.1, speed=0.05)
        motion = dataclasses.replace(motion, num_frames=wl.frames, wrist=arc, rig=rig)
    return motion, noise


def make_refine_input(hs, root, wl: Workload, seed: int, path) -> None:
    """Synthesize the workload's sequence file, as `handsmooth generate` does."""
    motion, noise = refine_input(hs, root, wl, seed)
    rng = np.random.default_rng(noise.seed)
    skeleton = hs.load_skeleton()
    gt, rig = hs.generate_sequence(motion, rng)
    init = hs.corrupt_trajectory(gt, noise, rng)
    obs = hs.render_observations(gt, rig, skeleton, noise, rng)
    seq = hs.SequenceFile.for_model(hs.DEFAULT_MODEL, skeleton, init, obs, ground_truth=gt)
    hs.save_sequence(path, seq)


def window(hs, seq, frames: int):
    """The first frames of a sequence file as (trajectory, observations)."""
    init, obs = seq.init, seq.observations
    cut = slice(0, frames)
    traj = hs.TrajectoryParams(
        shape=init.shape,
        orients=init.orients[cut],
        positions=init.positions[cut],
        joint_rotations=init.joint_rotations[cut],
    )
    sub = hs.SequenceObservation(
        landmarks_2d=obs.landmarks_2d[cut],
        visibility=obs.visibility[cut],
        rig=obs.rig,
    )
    return traj, sub


# ----- operations -----


@dataclasses.dataclass
class Sample:
    """Timings of one operation, in seconds."""

    command_s: float | None = None  # the whole command
    smooth_s: float | None = None   # refine: the smooth() call inside it
    check_s: float | None = None    # gradcheck: check_gradient inside it
    evaluations: int = 0            # gradcheck: objective evaluations
    failed: bool = False


class SmoothTimer:
    """Stands in for ``smoother.smooth``, which the smooth command calls, and
    times each call."""

    def __init__(self, hs):
        self.inner = hs.smoother.smooth
        self.last = None
        hs.smoother.smooth = self

    def __call__(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return self.inner(*args, **kwargs)
        finally:
            self.last = time.perf_counter() - t0


class RefineOps:
    """One operation: `handsmooth smooth IN OUT --report R.json` in-process."""

    def __init__(self, hs, wl: Workload, seed: int, work, failures: Failures,
                 inject_failure: bool = False):
        self.hs = hs
        self.wl = wl
        self.failures = failures
        self.inject_failure = inject_failure
        stem = f"{wl.name}-{seed}"
        self.input = work / f"{stem}-input.json"
        self.output = work / f"{stem}-refined.json"
        self.report = work / f"{stem}-report.json"
        self.timer = SmoothTimer(hs)
        self.reference = None  # (refined bytes, report bytes) of the first op
        self.hashes = {}
        self.quality = None
        self.count = 0

    def run(self, span) -> Sample:
        op = f"smooth#{self.count}"
        fail = self.failures
        sample = Sample()
        n_before = len(fail.items)
        argv = ["smooth", str(self.input), str(self.output),
                "--iters", str(self.wl.iters), "--report", str(self.report)]
        try:
            self.timer.last = None
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                with span("bench.command"):
                    code = self.hs.cli.main(argv)
                sample.command_s = time.perf_counter() - t0
            sample.smooth_s = self.timer.last
            if fail.check(op, "exit code 0", code == 0, f"code {code}"):
                self._check_outputs(op)
        except Exception as e:  # noqa: BLE001 - a crash is a counted failure
            fail.crash(op, e)
        if self.inject_failure and self.count == 0:
            fail.check(op, "deliberate failure (selfcheck)", False)
        self.count += 1
        sample.failed = len(fail.items) > n_before
        return sample

    def _check_outputs(self, op: str):
        fail = self.failures
        refined = self.output.read_bytes()
        report_bytes = self.report.read_bytes()
        self.hashes = {"refined_sha256": sha256(refined), "report_sha256": sha256(report_bytes)}
        if self.reference is None:
            self.reference = (refined, report_bytes)
        fail.check(op, "refined sequence bytes identical across repeats",
                   refined == self.reference[0])
        fail.check(op, "loss report bytes identical across repeats",
                   report_bytes == self.reference[1])
        report = json.loads(report_bytes)
        first = report["initial_metrics"]
        last = report["final_metrics"]
        self.quality = {
            "initial_mpjpe_mm": first["mpjpe_mm"], "final_mpjpe_mm": last["mpjpe_mm"],
            "initial_reproj_px": first["reproj_px"], "final_reproj_px": last["reproj_px"],
            "initial_accel_mm": first["accel_error_mm"], "final_accel_mm": last["accel_error_mm"],
            "initial_total": report["entries"][0]["total"],
            "final_total": report["entries"][-1]["total"],
        }
        q = self.quality
        fail.check(op, "final mpjpe < initial", q["final_mpjpe_mm"] < q["initial_mpjpe_mm"],
                   f"{q['initial_mpjpe_mm']} -> {q['final_mpjpe_mm']}")
        if self.wl.name.startswith("accept"):
            fail.check(op, "accel < 0.5 x initial",
                       q["final_accel_mm"] < 0.5 * q["initial_accel_mm"],
                       f"{q['initial_accel_mm']} -> {q['final_accel_mm']}")
            fail.check(op, "reproj < 0.1 x initial",
                       q["final_reproj_px"] < 0.1 * q["initial_reproj_px"],
                       f"{q['initial_reproj_px']} -> {q['final_reproj_px']}")
            fail.check(op, "non_improving is false", not report["non_improving"])
        else:
            fail.check(op, "final total < initial", q["final_total"] < q["initial_total"],
                       f"{q['initial_total']} -> {q['final_total']}")


class GradcheckOps:
    """One operation: the `gradcheck` command for one seed, that is
    random_problem + make_flat_objective + check_gradient. Seeds run
    consecutively from the workload seed."""

    def __init__(self, hs, wl: Workload, seed: int, failures: Failures,
                 inject_failure: bool = False):
        self.hs = hs
        self.wl = wl
        self.seed = seed
        self.failures = failures
        self.inject_failure = inject_failure
        self.count = 0

    def run(self, span) -> Sample:
        hs = self.hs
        seed = self.seed + self.count
        op = f"gradcheck seed {seed}"
        sample = Sample()
        n_before = len(self.failures.items)
        try:
            t0 = time.perf_counter()
            with span("bench.command"):
                traj, obs, skeleton = hs.synth.random_problem(self.wl.frames, self.wl.views, seed)
                objective = hs.objective.make_flat_objective(obs, skeleton)
                params = traj.to_flat()
                t1 = time.perf_counter()
                err = hs.autodiff.check_gradient(objective, params)
            t2 = time.perf_counter()
            sample.command_s = t2 - t0
            sample.check_s = t2 - t1
            sample.evaluations = 2 * params.size + 1
            self.failures.check(op, f"gradient error < {GRADCHECK_TOLERANCE:g}",
                                err < GRADCHECK_TOLERANCE, f"{err:.3e}")
        except Exception as e:  # noqa: BLE001
            self.failures.crash(op, e)
        if self.inject_failure and self.count == 0:
            self.failures.check(op, "deliberate failure (selfcheck)", False)
        self.count += 1
        sample.failed = len(self.failures.items) > n_before
        return sample
