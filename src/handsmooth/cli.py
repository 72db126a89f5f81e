"""Command-line interface.

Subcommands: generate (synthetic benchmark files), smooth (trajectory
refinement), eval (metrics against ground truth), perturb (camera extrinsic
noise), gradcheck (autodiff verification against finite differences).

Exit codes: 0 success, 1 usage or schema error, 2 numerical failure
(divergence, degenerate observations). Set HANDSMOOTH_LOG to
DEBUG/INFO/WARNING to control log verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import camera as cam
from . import formats, metrics, smoother, synth
from .errors import (
    DegenerateObservationError,
    DivergedError,
    SchemaError,
    SpecError,
)
from .hand_model import DEFAULT_MODEL, load_skeleton
from .objective import REPROJECTION_NORMS, LossWeights

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here reserves 2 for
    numerical failures, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def cmd_generate(args) -> int:
    motion = formats.load_motion_spec(args.motion_spec)
    noise = formats.load_noise_spec(args.noise_spec)
    if args.seed is not None:
        noise = replace(noise, seed=args.seed)
    rng = np.random.default_rng(noise.seed)
    skeleton = load_skeleton()
    gt, rig = synth.generate_sequence(motion, rng)
    init = synth.corrupt_trajectory(gt, noise, rng)
    obs = synth.render_observations(gt, rig, skeleton, noise, rng)
    seq = formats.SequenceFile.for_model(
        DEFAULT_MODEL, skeleton, init, obs, ground_truth=gt
    )
    formats.save_sequence(args.output, seq)
    print(
        f"wrote {args.output}: {gt.num_frames} frames, "
        f"{rig.num_views} views, seed {noise.seed}"
    )
    return 0


def cmd_smooth(args) -> int:
    def given(cls):  # the fields of cls that a flag set; the rest keep their defaults
        return {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}

    config = smoother.SmootherConfig(
        weights=LossWeights(**given(LossWeights)), **given(smoother.SmootherConfig)
    )
    seq = formats.load_sequence(args.input)
    try:
        refined, report = smoother.smooth(
            seq.init, seq.observations, seq.skeleton, config
        )
    except DivergedError as e:
        if args.report and e.report is not None:
            e.report.save(args.report)
            log.info("flushed partial report to %s", args.report)
        raise
    if seq.ground_truth is not None:
        report.initial_metrics, report.final_metrics = (
            formats.record_to_dict(
                metrics.evaluate(
                    traj, seq.ground_truth, seq.observations, seq.skeleton,
                    config.reprojection_norm,
                )
            )
            for traj in (seq.init, refined)
        )
    formats.save_sequence(args.output, replace(seq, init=refined))
    if args.report:
        report.save(args.report)
    first = report.entries[0].total
    last = report.entries[-1].total
    print(
        f"wrote {args.output}: total loss {first:.6g} -> {last:.6g} "
        f"after {config.max_iters} iterations"
    )
    if report.non_improving:
        print("warning: final loss is not below the initial loss", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    seq = formats.load_sequence(args.pred)
    gt = seq.ground_truth
    if args.against is not None:
        other = formats.load_sequence(args.against)
        gt = other.ground_truth if other.ground_truth is not None else other.init
    if gt is None:
        raise SpecError(
            "no ground truth: the file has none and --against was not given"
        )
    if gt.num_frames != seq.init.num_frames:
        raise SchemaError(
            f"ground truth has {gt.num_frames} frames, "
            f"prediction has {seq.init.num_frames}"
        )
    report = metrics.evaluate(seq.init, gt, seq.observations, seq.skeleton, args.norm)
    print(report.format_table())
    if args.json is not None:
        formats.dump_json(formats.record_to_dict(report), args.json)
    return 0


def cmd_perturb(args) -> int:
    try:
        rng = np.random.default_rng(args.seed)
    except ValueError as e:
        raise ValueError(f"seed: {e}") from None
    cam.check_noise_range(args.range)  # before the input is read, as smooth does
    seq = formats.load_sequence(args.input)
    views = tuple(
        (intr, cam.perturb_extrinsics(extr, rng, args.range))
        for intr, extr in seq.rig.views
    )
    obs = replace(seq.observations, rig=cam.CameraRig(views=views))
    formats.save_sequence(args.output, replace(seq, observations=obs))
    print(
        f"wrote {args.output}: camera translations perturbed within "
        f"(-{args.range}, {args.range}) m, seed {args.seed}"
    )
    return 0


def cmd_gradcheck(args) -> int:
    if not (args.tolerance > 0 and np.isfinite(args.tolerance)):
        raise ValueError("tolerance must be finite and positive")
    errs = synth.gradient_sweep(args.frames, args.views, args.seeds)
    failures = [
        (seed, err) for seed, err in enumerate(errs) if not err < args.tolerance
    ]
    for seed, err in failures:
        print(f"seed {seed}: max relative error {err:.3e} >= {args.tolerance:.1e}")
    worst = max(errs)
    passed = len(errs) - len(failures)
    print(
        f"gradcheck: {passed}/{len(errs)} instances within {args.tolerance:.1e}, "
        f"worst {worst:.3e}"
    )
    return 2 if failures else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="handsmooth", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a benchmark sequence file")
    p.add_argument("motion_spec", help="motion spec JSON path")
    p.add_argument("noise_spec", help="noise spec JSON path")
    p.add_argument("output", help="sequence file to write")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default: the noise spec's seed field)")
    p.set_defaults(func=cmd_generate)

    # Every config flag's dest is its SmootherConfig or LossWeights field,
    # and only --report has a default here: the dataclasses hold the rest.
    p = sub.add_parser("smooth", help="refine a trajectory against observations",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("input", help="sequence file to refine")
    p.add_argument("output", help="refined sequence file to write")
    p.add_argument("--lr", dest="learning_rate", metavar="LR", type=float)
    p.add_argument("--lr-min", type=float)
    p.add_argument("--iters", dest="max_iters", metavar="ITERS", type=int)
    p.add_argument("--lambda-pose", dest="acce_pose", metavar="LAMBDA_POSE",
                   type=float, help="joint-rotation acceleration weight")
    p.add_argument("--lambda-orients", dest="acce_orients", metavar="LAMBDA_ORIENTS",
                   type=float, help="wrist-orientation acceleration weight")
    p.add_argument("--lambda-position", dest="acce_position", metavar="LAMBDA_POSITION",
                   type=float, help="wrist-position acceleration weight")
    p.add_argument("--lambda-2d", dest="reprojection", metavar="LAMBDA_2D",
                   type=float, help="reprojection weight")
    p.add_argument("--weight-decay", type=float)
    p.add_argument("--adam-beta1", type=float)
    p.add_argument("--adam-beta2", type=float)
    p.add_argument("--adam-eps", type=float)
    p.add_argument("--optimize-shape", action="store_true",
                   help="let the shared shape coefficients move too")
    p.add_argument("--norm", dest="reprojection_norm", choices=REPROJECTION_NORMS)
    p.add_argument("--report", default=None,
                   help="loss trace path (.json for JSON, else CSV)")
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("eval", help="score a trajectory against ground truth")
    p.add_argument("pred", help="sequence file whose trajectory is scored")
    p.add_argument("--against", default=None,
                   help="sequence file supplying ground truth when pred has none")
    p.add_argument("--json", default=None, help="also write the metrics as JSON")
    p.add_argument("--norm", choices=REPROJECTION_NORMS, default="l2")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("perturb", help="add noise to camera translations")
    p.add_argument("input", help="sequence file to read")
    p.add_argument("output", help="sequence file to write")
    p.add_argument("--range", type=float, default=0.5,
                   help="uniform noise half-width in meters")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("gradcheck", help="verify gradients against finite differences")
    p.add_argument("--frames", type=int, default=5)
    p.add_argument("--views", type=int, default=2)
    p.add_argument("--seeds", type=int, default=100)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("HANDSMOOTH_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DegenerateObservationError, DivergedError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
