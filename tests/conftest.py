import importlib.util
import pathlib

import numpy as np
import pytest

import handsmooth as hs

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GEN_FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "tools" / "gen_fixtures.py"


@pytest.fixture(scope="session")
def skeleton():
    return hs.load_skeleton()


@pytest.fixture
def fixtures_dir():
    return FIXTURES


def load_gen_fixtures():
    """The fixture generator ``tools/gen_fixtures.py``, imported as a module."""
    spec = importlib.util.spec_from_file_location("gen_fixtures", GEN_FIXTURES)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def tiny_problem(num_frames=4, num_views=1, seed=0):
    """Small well-posed instance: (traj, obs, skeleton)."""
    return hs.random_problem(num_frames, num_views, seed)


def constant_velocity_motion(num_frames=20):
    """Motion whose parameters are exactly representable and exactly linear
    in the frame index, so second differences are exactly zero in float64."""
    zeros15 = np.zeros(15)
    return hs.MotionSpec(
        num_frames=num_frames,
        fps=32.0,
        amplitude=zeros15,
        frequency=zeros15,
        phase=zeros15,
        wrist=hs.WristPath(
            kind="line",
            start=np.zeros(3),
            direction=np.array([1.0, 0.0, 0.0]),
            speed=0.0625,
        ),
        rig=hs.RigSpec(num_views=2),
    )


def exact_sequence(motion, seed=0):
    """Generate (gt, init, obs, skeleton) with zero noise: init == gt and the
    observations are exact projections."""
    noise = hs.NoiseSpec()
    rng = np.random.default_rng(seed)
    skeleton = hs.load_skeleton()
    gt, rig = hs.generate_sequence(motion, rng)
    init = hs.corrupt_trajectory(gt, noise, rng)
    obs = hs.render_observations(gt, rig, skeleton, noise, rng)
    return gt, init, obs, skeleton
