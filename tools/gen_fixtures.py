"""Regenerate the frozen test fixtures, by default under tests/fixtures/.

Every artifact is deterministic: fixed specs, fixed seeds, deterministic
JSON serialization. Run from the repository root after installing the
package: python3 tools/gen_fixtures.py [OUT_DIR]

``main`` writes seven fixtures. The gradient oracle is separate: its writer,
``write_gradient_oracle``, is not called by ``main``, because the oracle
records the gradients of one commit and a later change is checked against
it, not regenerated to match.
"""

import contextlib
import io
import pathlib
import sys
import tempfile

import numpy as np

import handsmooth as hs
from handsmooth import cli, formats

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"


def motion_demo() -> hs.MotionSpec:
    # sinusoid parameters left unset: the generator samples them from its rng
    return hs.MotionSpec(
        num_frames=8,
        fps=30.0,
        wrist=hs.WristPath(
            kind="line",
            start=np.zeros(3),
            direction=np.array([1.0, 0.0, 0.0]),
            speed=0.05,
        ),
        rig=hs.RigSpec(num_views=1),
    )


def noise_demo() -> hs.NoiseSpec:
    return hs.NoiseSpec(
        sigma_position=0.005,
        sigma_orient=0.02,
        sigma_pose=0.02,
        sigma_pixel=1.0,
        visibility_dropout=0.1,
        seed=3,
    )


def acceptance_motion() -> hs.MotionSpec:
    base = np.array([0.50, 0.70, 0.40])
    return hs.MotionSpec(
        num_frames=60,
        fps=30.0,
        amplitude=np.concatenate([base + 0.03 * i for i in range(5)]),
        frequency=0.5 + 0.04 * np.arange(15),
        phase=0.4 * np.arange(15),
        wrist=hs.WristPath(
            kind="line",
            start=np.zeros(3),
            direction=np.array([1.0, 0.2, 0.0]),
            speed=0.05,
        ),
        orient_start=np.array([0.2, -0.1, 0.3]),
        orient_rate=np.array([0.3, 0.2, -0.25]),
        rig=hs.RigSpec(num_views=2),
    )


def acceptance_noise() -> hs.NoiseSpec:
    return hs.NoiseSpec(
        sigma_position=0.01,
        sigma_orient=0.05,
        sigma_pose=0.05,
        sigma_pixel=0.0,
        visibility_dropout=0.0,
        seed=7,
    )


def small_sequence() -> hs.SequenceFile:
    spec = hs.MotionSpec(
        num_frames=3,
        fps=30.0,
        amplitude=np.full(15, 0.3),
        frequency=np.full(15, 0.8),
        phase=np.zeros(15),
        wrist=hs.WristPath(
            kind="line",
            start=np.zeros(3),
            direction=np.array([1.0, 0.0, 0.0]),
            speed=0.05,
        ),
        rig=hs.RigSpec(num_views=1),
    )
    noise = hs.NoiseSpec(sigma_position=0.004, sigma_pose=0.03, seed=5)
    rng = np.random.default_rng(noise.seed)
    skeleton = hs.load_skeleton()
    gt, rig = hs.generate_sequence(spec, rng)
    init = hs.corrupt_trajectory(gt, noise, rng)
    obs = hs.render_observations(gt, rig, skeleton, noise, rng)
    return hs.SequenceFile.for_model(
        hs.DEFAULT_MODEL, skeleton, init, obs, ground_truth=gt
    )


GRADIENT_ORACLE = "gradient_oracle.json"


def gradient_oracle_cases():
    """(name, observations, skeleton, flat point) of each oracle case:
    ``random_problem(5, 2, s)`` for s = 0..4, then the init of
    ``sequence_small.json``."""
    for seed in range(5):
        traj, obs, skeleton = hs.random_problem(5, 2, seed)
        yield f"random_problem(5, 2, {seed})", obs, skeleton, traj.to_flat()
    seq = formats.load_sequence(FIXTURES / "sequence_small.json")
    yield "sequence_small.json init", seq.observations, seq.skeleton, seq.init.to_flat()


def gradient_oracle_entry(obs, skeleton, flat) -> dict:
    """The loss, its four unweighted terms and the full flat gradient of the
    default objective at ``flat``, from one tape pass."""
    terms = {}
    objective = hs.make_flat_objective(obs, skeleton, terms_out=terms)
    loss, grad = hs.record_and_backprop(objective, flat)
    return {"loss": loss, "terms": terms, "gradient": grad.tolist()}


def write_gradient_oracle(out_dir=FIXTURES):
    """Write every oracle case's entry to ``gradient_oracle.json``. Run once,
    from the repository root:
    python3 -c "import sys; sys.path[:0] = ['src', 'tools']; import gen_fixtures as g; g.write_gradient_oracle()"
    """
    out = pathlib.Path(out_dir) / GRADIENT_ORACLE
    formats.dump_json(
        {
            name: gradient_oracle_entry(obs, skeleton, flat)
            for name, obs, skeleton, flat in gradient_oracle_cases()
        },
        out,
    )
    print(f"wrote {out} ({out.stat().st_size} bytes)")


def main(out_dir=FIXTURES):
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def target(name):
        written.append(out / name)
        return written[-1]

    formats.save_motion_spec(target("motion_demo.json"), motion_demo())
    formats.save_noise_spec(target("noise_demo.json"), noise_demo())
    formats.save_motion_spec(target("acceptance_motion.json"), acceptance_motion())
    formats.save_noise_spec(target("acceptance_noise.json"), acceptance_noise())

    small = target("sequence_small.json")
    formats.save_sequence(small, small_sequence())

    # the two reports come from the commands that write them for a user; the
    # refined sequence is not a fixture, and the commands' summaries are not
    # printed
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        refined = pathlib.Path(tmp) / "refined.json"
        for argv in (
            ["smooth", small, refined, "--iters", "2", "--report", target("loss_report.json")],
            ["eval", small, "--json", target("metric_report.json")],
        ):
            if cli.main([str(a) for a in argv]) != 0:
                raise SystemExit(f"handsmooth {argv[0]} failed")

    for p in written:
        print(f"wrote {p} ({p.stat().st_size} bytes)")


if __name__ == "__main__":
    main(*sys.argv[1:2])
