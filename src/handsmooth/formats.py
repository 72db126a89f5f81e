"""Versioned JSON file formats.

One sequence file carries everything a smoothing run needs: the skeleton
(by model name or inline), the camera rig, the initial per-frame trajectory,
the 2D observations, and optionally the ground-truth trajectory. Files are
written deterministically (sorted keys, two-space indent, repr-precision
floats, trailing newline), so identical content is byte identical on disk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import camera as cam
from .errors import ModelFileError, SchemaError
from .hand_model import (
    HandSkeleton,
    load_skeleton,
    skeleton_from_dict,
    skeleton_to_dict,
)
from .objective import SequenceObservation, TrajectoryParams
from .synth import MotionSpec, NoiseSpec

SEQUENCE_SCHEMA_VERSION = "1"


def dump_json(obj, path) -> None:
    """Deterministic JSON writer used for every file this package emits."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")


def read_json(path) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
        raise SchemaError(f"{path}: not valid JSON ({e})") from e


def _need(d: dict, key: str, where: str):
    if not isinstance(d, dict):
        raise SchemaError(f"{where}: expected an object")
    if key not in d:
        raise SchemaError(f"{where}: missing key '{key}'")
    return d[key]


def rig_to_dict(rig: cam.CameraRig) -> dict:
    views = []
    for intr, extr in rig.views:
        views.append(
            {
                "intrinsics": {
                    "fx": intr.fx,
                    "fy": intr.fy,
                    "cx": intr.cx,
                    "cy": intr.cy,
                    "width": intr.width,
                    "height": intr.height,
                },
                "extrinsics": {
                    "rotation": extr.rotation.tolist(),
                    "translation": extr.translation.tolist(),
                },
            }
        )
    return {"views": views}


def rig_from_dict(d: dict, where: str = "rig") -> cam.CameraRig:
    views_raw = _need(d, "views", where)
    if not isinstance(views_raw, list) or not views_raw:
        raise SchemaError(f"{where}.views: expected a non-empty list")
    views = []
    for i, v in enumerate(views_raw):
        here = f"{where}.views[{i}]"
        intr_d = _need(v, "intrinsics", here)
        extr_d = _need(v, "extrinsics", here)
        try:
            intr = cam.Intrinsics(
                fx=float(_need(intr_d, "fx", here)),
                fy=float(_need(intr_d, "fy", here)),
                cx=float(_need(intr_d, "cx", here)),
                cy=float(_need(intr_d, "cy", here)),
                width=int(_need(intr_d, "width", here)),
                height=int(_need(intr_d, "height", here)),
            )
            extr = cam.Extrinsics(
                rotation=np.asarray(_need(extr_d, "rotation", here), dtype=float),
                translation=np.asarray(
                    _need(extr_d, "translation", here), dtype=float
                ),
            )
        except SchemaError:
            raise
        except (TypeError, ValueError, OverflowError) as e:
            raise SchemaError(f"{here}: {e}") from e
        views.append((intr, extr))
    return cam.CameraRig(views=tuple(views))


def _trajectory_from_dict(d: dict, where: str) -> TrajectoryParams:
    for key in ("shape", "orients", "positions", "joint_rotations"):
        _need(d, key, where)
    try:
        return TrajectoryParams.from_dict(d)
    except (TypeError, ValueError, OverflowError) as e:
        raise SchemaError(f"{where}: {e}") from e


@dataclass(frozen=True)
class SequenceFile:
    """In-memory mirror of one sequence file.

    skeleton_ref is what gets written back out: {"model": name} to reference
    a packaged model file, or {"inline": {...}} to embed the skeleton.
    """

    skeleton: HandSkeleton
    skeleton_ref: dict
    init: TrajectoryParams
    observations: SequenceObservation
    ground_truth: TrajectoryParams | None = None

    @property
    def rig(self) -> cam.CameraRig:
        return self.observations.rig

    @classmethod
    def for_model(
        cls,
        model_name: str,
        skeleton: HandSkeleton,
        init: TrajectoryParams,
        observations: SequenceObservation,
        ground_truth: TrajectoryParams | None = None,
    ) -> "SequenceFile":
        return cls(
            skeleton=skeleton,
            skeleton_ref={"model": model_name},
            init=init,
            observations=observations,
            ground_truth=ground_truth,
        )

    def to_dict(self) -> dict:
        return {
            "version": SEQUENCE_SCHEMA_VERSION,
            "skeleton": self.skeleton_ref,
            "rig": rig_to_dict(self.rig),
            "init": self.init.to_dict(),
            "observations": {
                "landmarks_2d": self.observations.landmarks_2d.tolist(),
                "visibility": self.observations.visibility.tolist(),
            },
            "ground_truth": (
                None if self.ground_truth is None else self.ground_truth.to_dict()
            ),
        }


def _resolve_skeleton(ref, where: str) -> HandSkeleton:
    if not isinstance(ref, dict) or len(ref) != 1:
        raise SchemaError(
            f"{where}: expected exactly one of {{'model': name}} or "
            f"{{'inline': {{...}}}}"
        )
    if "model" in ref:
        name = ref["model"]
        if not isinstance(name, str):
            raise SchemaError(f"{where}.model: expected a string")
        try:
            return load_skeleton(name)
        except ModelFileError as e:
            raise SchemaError(f"{where}.model: {e}") from e
    if "inline" in ref:
        try:
            return skeleton_from_dict(ref["inline"])
        except ModelFileError as e:
            raise SchemaError(f"{where}.inline: {e}") from e
    raise SchemaError(f"{where}: unknown skeleton reference {sorted(ref)}")


def sequence_from_dict(d: dict, where: str = "sequence") -> SequenceFile:
    version = _need(d, "version", where)
    if version != SEQUENCE_SCHEMA_VERSION:
        raise SchemaError(
            f"{where}.version: expected '{SEQUENCE_SCHEMA_VERSION}', got {version!r}"
        )
    skeleton_ref = _need(d, "skeleton", where)
    skeleton = _resolve_skeleton(skeleton_ref, f"{where}.skeleton")
    rig = rig_from_dict(_need(d, "rig", where), f"{where}.rig")
    init = _trajectory_from_dict(_need(d, "init", where), f"{where}.init")
    obs_d = _need(d, "observations", where)
    try:
        observations = SequenceObservation(
            landmarks_2d=np.asarray(
                _need(obs_d, "landmarks_2d", f"{where}.observations"), dtype=float
            ),
            visibility=np.asarray(
                _need(obs_d, "visibility", f"{where}.observations"), dtype=bool
            ),
            rig=rig,
        )
    except SchemaError:
        raise
    except (TypeError, ValueError, OverflowError) as e:
        raise SchemaError(f"{where}.observations: {e}") from e
    gt_d = d.get("ground_truth")
    ground_truth = (
        None if gt_d is None else _trajectory_from_dict(gt_d, f"{where}.ground_truth")
    )
    if observations.landmarks_2d.shape[0] != init.num_frames:
        raise SchemaError(
            f"{where}: observations cover {observations.landmarks_2d.shape[0]} "
            f"frames but init has {init.num_frames}"
        )
    if ground_truth is not None and ground_truth.num_frames != init.num_frames:
        raise SchemaError(
            f"{where}: ground_truth has {ground_truth.num_frames} frames "
            f"but init has {init.num_frames}"
        )
    return SequenceFile(
        skeleton=skeleton,
        skeleton_ref=skeleton_ref,
        init=init,
        observations=observations,
        ground_truth=ground_truth,
    )


def save_sequence(path, seq: SequenceFile) -> None:
    dump_json(seq.to_dict(), path)


def load_sequence(path) -> SequenceFile:
    return sequence_from_dict(read_json(path), where=str(path))


def save_motion_spec(path, spec: MotionSpec) -> None:
    dump_json(spec.to_dict(), path)


def _load_spec(path, cls):
    d = read_json(path)
    if not isinstance(d, dict):
        raise SchemaError(f"{path}: expected an object")
    try:
        return cls.from_dict(d)
    except SchemaError as e:
        raise SchemaError(f"{path}: {e}") from e


def load_motion_spec(path) -> MotionSpec:
    return _load_spec(path, MotionSpec)


def save_noise_spec(path, spec: NoiseSpec) -> None:
    dump_json(spec.to_dict(), path)


def load_noise_spec(path) -> NoiseSpec:
    return _load_spec(path, NoiseSpec)


def save_model_file(path, skeleton: HandSkeleton) -> None:
    dump_json(skeleton_to_dict(skeleton), path)


def load_model_file(path) -> HandSkeleton:
    try:
        return skeleton_from_dict(read_json(path))
    except SchemaError as e:
        raise SchemaError(f"{path}: {e}") from e
