"""Pinhole cameras: intrinsics, world-to-camera extrinsics, projection,
and extrinsic translation perturbation for robustness experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .errors import BehindCameraError

# Points with camera depth at or below this are treated as unprojectable.
MIN_DEPTH = 1e-6

# Rotation tolerances, in np.allclose's elementwise form |a - b| <= atol +
# rtol * |b| with atol = 1e-9 and rtol = 1e-5: on R^T R against the identity,
# and on det R against 1.
_EYE3 = np.eye(3)
_ORTHONORMAL_TOL = 1e-9 + 1e-5 * _EYE3
_DET_TOL = 1e-9 + 1e-5

# The largest translation noise range: rng.uniform needs the width 2 * range
# to be finite.
_MAX_NOISE_RANGE = np.finfo(float).max / 2.0


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole intrinsics in pixels; principal point (cx, cy)."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")
        if not (self.width > 0 and self.height > 0):
            raise ValueError("image size must be positive")
        vals = (self.fx, self.fy, self.cx, self.cy)
        if not np.all(np.isfinite(vals)):
            raise ValueError("intrinsics must be finite")


@dataclass(frozen=True)
class Extrinsics:
    """World-to-camera transform p_cam = rotation @ p_world + translation."""

    rotation: np.ndarray     # (3, 3)
    translation: np.ndarray  # (3,)

    def __post_init__(self):
        r = ad.readonly(self.rotation)
        t = ad.readonly(self.translation)
        if r.shape != (3, 3) or t.shape != (3,):
            raise ValueError("rotation must be (3, 3) and translation (3,)")
        if not (np.isfinite(r).all() and np.isfinite(t).all()):
            raise ValueError("extrinsics must be finite")
        if (np.abs(r.T @ r - _EYE3) > _ORTHONORMAL_TOL).any():
            raise ValueError("rotation must be orthonormal within 1e-9")
        (a, b, c), (d, e, f), (g, h, i) = r.tolist()
        det = a * (e * i - f * h) + b * (f * g - d * i) + c * (d * h - e * g)
        if not abs(det - 1.0) <= _DET_TOL:
            raise ValueError("rotation must have determinant +1")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)


@dataclass(frozen=True)
class CameraRig:
    """Ordered views; each view is an (Intrinsics, Extrinsics) pair."""

    views: tuple

    def __post_init__(self):
        views = tuple(tuple(v) for v in self.views)
        if len(views) < 1:
            raise ValueError("a rig needs at least one view")
        for v in views:
            if len(v) != 2 or not isinstance(v[0], Intrinsics) or not isinstance(v[1], Extrinsics):
                raise ValueError("each view must be an (Intrinsics, Extrinsics) pair")
        object.__setattr__(self, "views", views)

    @property
    def num_views(self) -> int:
        return len(self.views)

    @cached_property
    def _stacked(self):
        """In view order: rotations (3V, 3), translations (3V, 1), fx, fy, cx, cy (V, 1)."""
        intr, extr = zip(*self.views)
        return (
            ad.readonly(np.concatenate([e.rotation for e in extr])),
            ad.readonly(np.concatenate([e.translation for e in extr])[:, None]),
            *(ad.readonly([[getattr(i, k)] for i in intr]) for k in ("fx", "fy", "cx", "cy")),
        )


def project(point_world, view) -> np.ndarray:
    """Project one world point into pixel coordinates (u, v).

    Raises BehindCameraError when the camera-frame depth is <= MIN_DEPTH.
    No clamping to the image bounds is applied.
    """
    intr, extr = view
    p = np.asarray(point_world, dtype=float)
    if p.shape != (3,):
        raise ValueError("point must have shape (3,)")
    if not np.all(np.isfinite(p)):
        raise ValueError("point must be finite")
    cam = extr.rotation @ p + extr.translation
    if cam[2] <= MIN_DEPTH:
        raise BehindCameraError(f"depth {cam[2]:.3e} is at or behind the camera plane")
    return np.array(
        [
            intr.fx * cam[0] / cam[2] + intr.cx,
            intr.fy * cam[1] / cam[2] + intr.cy,
        ]
    )


def project_views(points, rig: CameraRig):
    """Project (..., 3) world points, Tensor or array, into every view of a
    rig, masking instead of raising; nothing is recorded. Returns plain
    (V, ...) planes, a row per view: the pixels u, v, the bool in_front, and
    the camera frame's x, y, z_safe, whose placeholder 1 behind the camera
    keeps the division finite (callers ignore those pixels via the mask).

    One matrix product maps the points into all views, each entry equal to
    the view's own ``points @ rotation.T + translation``. The objective and
    the synthetic renderer both project through this function, so exact
    observations reproduce bitwise under re-evaluation. The product's
    right operand is a contiguous (3, M) copy: OpenBLAS's SkylakeX kernel
    rounds the last 4-7 columns of a transposed operand differently, so a
    point's pixels would depend on how many points share the call. With the
    copy, each point's planes are bitwise the same for any M >= 2 (one
    point takes BLAS's matrix-vector product instead).
    """
    rotations, translations, fx, fy, cx, cy = rig._stacked
    p = ad.value_of(points)
    # (3V, M): view v's frame in rows 3v to 3v + 2
    cam = rotations @ np.ascontiguousarray(p.reshape(-1, 3).T)
    cam += translations
    x, y, z = cam.reshape(-1, 3, p.size // 3).swapaxes(0, 1)
    in_front = z > MIN_DEPTH
    m = in_front.astype(float)
    z *= m  # z_safe = z * m + (1 - m), in place
    z += np.subtract(1.0, m, out=m)
    u, v = x / z, y / z
    for pixel, f, c in ((u, fx, cx), (v, fy, cy)):
        pixel *= f
        pixel += c
    return tuple(a.reshape((-1,) + p.shape[:-1]) for a in (u, v, in_front, x, y, z))


def project_points_masked(points, view):
    """``project_views`` for one (Intrinsics, Extrinsics) view: (u, v,
    in_front), plain (...,) arrays."""
    return tuple(plane[0] for plane in project_views(points, CameraRig(views=(view,)))[:3])


def check_noise_range(noise_range: float) -> None:
    """Raise ValueError unless ``perturb_extrinsics`` can sample this range."""
    if not 0.0 <= noise_range <= _MAX_NOISE_RANGE:
        raise ValueError(
            f"noise_range must be in [0, {_MAX_NOISE_RANGE:.6g}], got {noise_range!r}"
        )


def perturb_extrinsics(
    extr: Extrinsics, rng: np.random.Generator, noise_range: float = 0.5
) -> Extrinsics:
    """Add per-component Uniform(-noise_range, noise_range) meters to the
    translation; the rotation is untouched. Deterministic given the rng state.
    """
    check_noise_range(noise_range)
    delta = rng.uniform(-noise_range, noise_range, size=3)
    return Extrinsics(extr.rotation, extr.translation + delta)
