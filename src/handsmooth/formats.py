"""Versioned JSON file formats.

One sequence file carries everything a smoothing run needs: the skeleton
(by model name or inline), the camera rig, the initial per-frame trajectory,
the 2D observations, and optionally the ground-truth trajectory. Files are
written deterministically (sorted keys, two-space indent, repr-precision
floats, trailing newline), so identical content is byte identical on disk.
Arrays are laid out as every other value is, as the nested lists they hold.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from . import autodiff as ad
from . import camera as cam
from .errors import ModelFileError, SchemaError
from .hand_model import NUM_ARTICULATED, HandSkeleton, load_skeleton, skeleton_from_dict
from .objective import SequenceObservation, TrajectoryParams
from .synth import MotionSpec, NoiseSpec

SEQUENCE_SCHEMA_VERSION = "1"

# The JSON types a scalar field of each type takes; an int field also takes a
# float with an integral value.
_JSON_TYPES = {float: (float, int), int: (int,), str: (str,)}

# The text of each scalar of the arrays written one outer row at a time.
_JSON_TEXT = {np.dtype(float): float.__repr__, np.dtype(bool): ("false", "true").__getitem__}


def dump_json(obj, path) -> None:
    """Deterministic JSON writer used for every file this package emits.

    The file holds ``json.dumps(obj, indent=2, sort_keys=True,
    allow_nan=False)`` and a newline, where an ``np.ndarray`` that is
    ``obj`` or a value of its dicts stands for its ``tolist()``. It is
    written piece by piece: a float or bool array one outer row at a time,
    each row filled into a text template of its layout. An object JSON
    cannot hold (NaN, infinity, a non-JSON type) raises as ``json.dumps``
    does and removes the partly written file.
    """
    f = open(path, "w")
    try:
        with f:
            f.writelines(_chunks(obj, ""))
            f.write("\n")
    except Exception:
        Path(path).unlink(missing_ok=True)
        raise


def _dumps(obj, pad: str) -> str:
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    return text.replace("\n", "\n" + pad)


def _chunks(obj, pad: str):
    """The text of ``obj`` at indent ``pad``, in pieces: a dict key by key,
    a float or bool array row by row, and any other value whole."""
    inner = pad + "  "
    if isinstance(obj, np.ndarray) and obj.dtype in _JSON_TEXT and obj.ndim and obj.size:
        if not np.isfinite(obj).all():
            raise ValueError("Out of range float values are not JSON compliant")
        text = _JSON_TEXT[obj.dtype]
        row = _dumps(np.zeros(obj.shape[1:], int).tolist(), inner).replace("0", "%s")
        sep = "[\n" + inner
        for r in obj:
            yield sep + row % tuple(map(text, r.ravel().tolist()))
            sep = ",\n" + inner
        yield "\n" + pad + "]"
    elif isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj):
        sep = "{\n" + inner
        for key, value in sorted(obj.items()):
            yield sep + json.dumps(key) + ": "
            yield from _chunks(value, inner)
            sep = ",\n" + inner
        yield "\n" + pad + "}"
    else:
        yield _dumps(obj.tolist() if isinstance(obj, np.ndarray) else obj, pad)


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


@contextmanager
def _at(where: str):
    """Turn a conversion or validation error into ``SchemaError`` at ``where``.

    A ``SchemaError`` raised inside already names its own, deeper path.
    """
    try:
        yield
    except SchemaError:
        raise
    except (TypeError, ValueError, OverflowError) as e:
        raise SchemaError(f"{where}: {e}") from e


def record_to_dict(obj) -> dict:
    """A record's file object: one key per dataclass field, arrays as lists,
    nested records as objects."""
    return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)}


def _plain(value):
    if is_dataclass(value):
        return record_to_dict(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def record_from_dict(cls, d, where: str):
    """Build record ``cls`` from its file object.

    Each field is a key: a field without a default is required, a missing
    optional key takes the field's default, and unknown keys are ignored.
    Values convert to the field's annotated type (int, float, str, ndarray,
    an optional of one of them, or a nested record).
    """
    if not isinstance(d, dict):
        raise SchemaError(f"{where}: expected an object")
    hints = get_type_hints(cls)
    values = {}
    for f in fields(cls):
        required = f.default is MISSING and f.default_factory is MISSING
        if required or f.name in d:
            here = f"{where}.{f.name}"
            with _at(here):
                values[f.name] = _convert(hints[f.name], _need(d, f.name, where), here)
    with _at(where):
        return cls(**values)


def _convert(tp, value, where: str):
    options = get_args(tp)
    if type(None) in options:
        if value is None:
            return None
        tp = next(t for t in options if t is not type(None))
    if is_dataclass(tp):
        return record_from_dict(tp, value, where)
    if tp is np.ndarray:
        return ad.readonly(value)
    if tp is int and type(value) is float and value.is_integer():
        value = int(value)
    if type(value) not in _JSON_TYPES[tp]:
        raise TypeError(f"expected {_JSON_TYPES[tp][0].__name__}, got {value!r}")
    return tp(value)


def rig_to_dict(rig: cam.CameraRig) -> dict:
    return {
        "views": [
            {"intrinsics": record_to_dict(intr), "extrinsics": record_to_dict(extr)}
            for intr, extr in rig.views
        ]
    }


def rig_from_dict(d: dict, where: str = "rig") -> cam.CameraRig:
    views_raw = _need(d, "views", where)
    if not isinstance(views_raw, list) or not views_raw:
        raise SchemaError(f"{where}.views: expected a non-empty list")
    views = []
    for i, v in enumerate(views_raw):
        here = f"{where}.views[{i}]"
        intr_d = _need(v, "intrinsics", here)
        extr_d = _need(v, "extrinsics", here)
        views.append(
            (
                record_from_dict(cam.Intrinsics, intr_d, f"{here}.intrinsics"),
                record_from_dict(cam.Extrinsics, extr_d, f"{here}.extrinsics"),
            )
        )
    return cam.CameraRig(views=tuple(views))


def trajectory_to_dict(traj: TrajectoryParams) -> dict:
    """A trajectory's file object; joint rotations are stored as (N, 45) rows."""
    return {
        "shape": traj.shape,
        "orients": traj.orients,
        "positions": traj.positions,
        "joint_rotations": traj.joint_rotations.reshape(traj.num_frames, 45),
    }


def trajectory_from_dict(d: dict, where: str) -> TrajectoryParams:
    shape, orients, positions, rots = (
        _need(d, f.name, where) for f in fields(TrajectoryParams)
    )
    with _at(where):
        return TrajectoryParams(
            shape, orients, positions, np.reshape(rots, (-1, NUM_ARTICULATED, 3))
        )


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
            "init": trajectory_to_dict(self.init),
            "observations": {
                "landmarks_2d": self.observations.landmarks_2d,
                "visibility": self.observations.visibility,
            },
            "ground_truth": (
                None if self.ground_truth is None else trajectory_to_dict(self.ground_truth)
            ),
        }


def _resolve_skeleton(ref, where: str) -> HandSkeleton:
    if not isinstance(ref, dict) or len(ref) != 1:
        raise SchemaError(
            f"{where}: expected exactly one of {{'model': name}} or "
            f"{{'inline': {{...}}}}"
        )
    if "model" in ref and not isinstance(ref["model"], str):
        raise SchemaError(f"{where}.model: expected a string")
    for key, load in (("model", load_skeleton), ("inline", skeleton_from_dict)):
        if key in ref:
            try:
                return load(ref[key])
            except ModelFileError as e:
                raise SchemaError(f"{where}.{key}: {e}") from e
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
    init = trajectory_from_dict(_need(d, "init", where), f"{where}.init")
    obs_d = _need(d, "observations", where)
    here = f"{where}.observations"
    with _at(here):
        observations = SequenceObservation(
            _need(obs_d, "landmarks_2d", here), _need(obs_d, "visibility", here), rig
        )
    gt_d = d.get("ground_truth")
    ground_truth = (
        None if gt_d is None else trajectory_from_dict(gt_d, f"{where}.ground_truth")
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
    dump_json(record_to_dict(spec), path)


def load_motion_spec(path) -> MotionSpec:
    return record_from_dict(MotionSpec, read_json(path), str(path))


def save_noise_spec(path, spec: NoiseSpec) -> None:
    dump_json(record_to_dict(spec), path)


def load_noise_spec(path) -> NoiseSpec:
    return record_from_dict(NoiseSpec, read_json(path), str(path))
