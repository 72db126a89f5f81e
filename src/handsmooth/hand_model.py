"""Articulated 21-joint right-hand skeleton: shape scaling and forward kinematics.

Joint layout is wrist (0) plus five 4-joint chains in thumb, index, middle,
ring, pinky order. Within a chain the last joint is the fingertip and carries
no rotation parameters; the remaining 15 joints are articulated. The rest
pose is a flat right hand at the origin, fingers along +y, palm normal +z,
all lengths in meters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from importlib import resources

import numpy as np

from . import autodiff as ad
from .errors import ModelFileError

NUM_JOINTS = 21
NUM_ARTICULATED = 15
NUM_SHAPE_PARAMS = 10
NUM_FINGERS = 5
CHAIN_LENGTH = 4

DEFAULT_MODEL = "hand_model_v1"
MODEL_SCHEMA_VERSION = "1"

# Rodrigues switches to series coefficients below this squared angle
# (theta < 1e-8 rad), which keeps the map finite at zero.
SMALL_ANGLE_SQ = 1e-16
# Its VJP takes the coefficients' derivatives from their series below this
# squared angle (theta < 1e-2 rad), where the closed forms cancel.
SERIES_DERIVATIVE_SQ = 1e-4

_BASIS_SEED = 20240817
_MAX_BASIS_ROW_NORM = 0.1


@dataclass(frozen=True)
class HandSkeleton:
    """Rest-pose kinematic tree loaded from a versioned model file.

    parents[0] == -1 and parents[j] < j, so any topological walk can simply
    iterate j = 1..20. ``rest_offsets[j]`` is joint j's offset from its
    parent, expressed in the parent's frame. ``shape_basis`` rows are
    log-scale directions per joint with norm <= 0.1.
    """

    version: str
    parents: np.ndarray       # (21,) int
    rest_offsets: np.ndarray  # (21, 3) meters
    shape_basis: np.ndarray   # (21, 10)

    def __post_init__(self):
        parents = ad.readonly(self.parents, dtype=int)
        offsets = ad.readonly(self.rest_offsets)
        basis = ad.readonly(self.shape_basis)
        if parents.shape != (NUM_JOINTS,):
            raise ValueError("parents must have shape (21,)")
        if offsets.shape != (NUM_JOINTS, 3):
            raise ValueError("rest_offsets must have shape (21, 3)")
        if basis.shape != (NUM_JOINTS, NUM_SHAPE_PARAMS):
            raise ValueError("shape_basis must have shape (21, 10)")
        if parents[0] != -1:
            raise ValueError("joint 0 must be the root (parent -1)")
        for j in range(1, NUM_JOINTS):
            if not 0 <= parents[j] < j:
                raise ValueError(f"parents[{j}] must point to an earlier joint")
        children = [[] for _ in range(NUM_JOINTS)]
        for j in range(1, NUM_JOINTS):
            children[parents[j]].append(j)
        if len(children[0]) != NUM_FINGERS:
            raise ValueError("the wrist must have exactly 5 finger chains")
        chains = []
        for base in children[0]:
            chain = [base]
            while children[chain[-1]]:
                if len(children[chain[-1]]) != 1:
                    raise ValueError("finger chains must be linear")
                chain.append(children[chain[-1]][0])
            if len(chain) != CHAIN_LENGTH:
                raise ValueError("each finger chain must have 4 joints")
            chains.append(chain)
        if not (np.all(np.isfinite(offsets)) and np.all(np.isfinite(basis))):
            raise ValueError("model arrays must be finite")
        if np.any(np.linalg.norm(offsets[1:], axis=1) <= 0.0):
            raise ValueError("non-root rest offsets must have positive length")
        if np.any(np.linalg.norm(basis, axis=1) > _MAX_BASIS_ROW_NORM + 1e-12):
            raise ValueError("shape basis row norms must be <= 0.1")
        object.__setattr__(self, "parents", parents)
        object.__setattr__(self, "rest_offsets", offsets)
        object.__setattr__(self, "shape_basis", basis)
        object.__setattr__(self, "_chains", ad.readonly(chains, dtype=int))
        articulated = sorted(j for chain in chains for j in chain[:-1])
        slots = [[articulated.index(j) + 1 for j in chain[:-1]] for chain in chains]
        object.__setattr__(self, "_slots", ad.readonly(slots, dtype=int))

    @property
    def chains(self) -> np.ndarray:
        """Read-only (5, 4) joint table: row f is one finger's chain from its
        base joint to its tip, rows in order of base joint. The joints of
        columns 0-2 carry rotation parameters, in increasing joint order."""
        return self._chains

    @property
    def slots(self) -> np.ndarray:
        """Read-only (5, 3) table: the rotation slot of joint chains[f, d],
        1 + its rank in joint order among the 15 articulated joints (slot 0
        is the wrist's)."""
        return self._slots


def rotation_matrices(aa):
    """Rodrigues map for a batch of axis-angle vectors, shape (..., 3) -> (..., 3, 3).

    With w the axis-angle vector, K its cross-product matrix and t = |w|,
    R = I + a K + b (w w^T - t^2 I), where a = sin(t)/t and
    b = (1 - cos t)/t^2. Accepts a Tensor or a plain array and records one
    tape node, whose VJP is ``_rodrigues_vjp``.

    Below 1e-8 rad (``SMALL_ANGLE_SQ``) a and b come from their quadratic
    series, so there is no division by the vanishing angle. The VJP needs
    da/dt^2 and db/dt^2, whose closed forms lose every digit near 1e-8 rad;
    below 1e-2 rad (``SERIES_DERIVATIVE_SQ``) it takes them from their series
    to the t^4 term instead, so gradients stay accurate down to zero.
    """
    value, ctx = _rodrigues(ad.value_of(aa))
    return ad._record(value, _rodrigues_vjp, (aa,), ctx)


def _rodrigues_vjp(g, node):
    return (_rodrigues_grad(g, node.inputs[0].value, *node.ctx),)


def _rodrigues(w):
    """R of plain axis-angles w (..., 3), and the (t2, a, b) its gradient reads."""
    x = w[..., 0]
    y = w[..., 1]
    z = w[..., 2]
    t2 = x * x + y * y + z * z
    small = (t2 < SMALL_ANGLE_SQ).astype(float)
    big = 1.0 - small
    t2_safe = t2 * big + small  # 1.0 where masked, keeps sqrt and the division finite
    theta = np.sqrt(t2_safe)
    sin_c = np.sin(theta) / theta
    s_half = np.sin(theta * 0.5)
    ver_c = (s_half * s_half) * 2.0 / t2_safe  # (1 - cos t)/t^2 without cancellation
    a = big * sin_c + small * (1.0 - t2 * (1.0 / 6.0))
    b = big * ver_c + small * (0.5 - t2 * (1.0 / 24.0))

    # R = (I + a K) + b (w w^T - t2 I) entry by entry, rounded as that sum is:
    # a K's zeros vanish against I's ones, and I's 0.0 + a K turns -0.0 into +0.0
    value = np.empty(w.shape + (3,))
    ax, ay, az = a * x, a * y, a * z
    bxy, bxz, byz = b * (x * y), b * (x * z), b * (y * z)
    value[..., 0, 0] = 1.0 + b * (x * x - t2)
    value[..., 1, 1] = 1.0 + b * (y * y - t2)
    value[..., 2, 2] = 1.0 + b * (z * z - t2)
    value[..., 0, 1] = (0.0 - az) + bxy
    value[..., 1, 0] = (0.0 + az) + bxy
    value[..., 0, 2] = (0.0 + ay) + bxz
    value[..., 2, 0] = (0.0 - ay) + bxz
    value[..., 1, 2] = (0.0 - ax) + byz
    value[..., 2, 1] = (0.0 + ax) + byz
    return value, (t2, a, b)


def _rodrigues_grad(g, w, t2, a, b):
    """The gradient of the axis-angles w given the gradient g of their R."""
    # da/dt2 and db/dt2: series below the switch, closed forms above it
    # (cos t = 1 - t2 b)
    series = t2 < SERIES_DERIVATIVE_SQ
    t2_safe = np.where(series, 1.0, t2)
    da = np.where(
        series,
        -1.0 / 6.0 + t2 * (1.0 / 60.0 - t2 * (1.0 / 1680.0)),
        (1.0 - t2 * b - a) / (2.0 * t2_safe),
    )
    db = np.where(
        series,
        -1.0 / 24.0 + t2 * (1.0 / 360.0 - t2 * (1.0 / 13440.0)),
        (a - 2.0 * b) / (2.0 * t2_safe),
    )
    x, y, z = w[..., 0], w[..., 1], w[..., 2]
    # <g, K> = <w, s> for the axial vector s of g - g^T
    s = np.empty(w.shape)
    s[..., 0] = g[..., 2, 1] - g[..., 1, 2]
    s[..., 1] = g[..., 0, 2] - g[..., 2, 0]
    s[..., 2] = g[..., 1, 0] - g[..., 0, 1]
    sym_w = ((g + np.swapaxes(g, -1, -2)) @ w[..., None])[..., 0]  # (g + g^T) w
    # the sums as numpy's sum runs them: from +0.0, in index order
    trace = ((0.0 + g[..., 0, 0]) + g[..., 1, 1]) + g[..., 2, 2]
    g_a = ((0.0 + x * s[..., 0]) + y * s[..., 1]) + z * s[..., 2]
    w_sym_w = ((0.0 + x * sym_w[..., 0]) + y * sym_w[..., 1]) + z * sym_w[..., 2]
    g_b = 0.5 * w_sym_w - t2 * trace  # <g, outer - t2 I>
    g_t2 = g_a * da + g_b * db - b * trace
    return a[..., None] * s + b[..., None] * sym_w + (2.0 * g_t2)[..., None] * w


def bone_scales(skeleton: HandSkeleton, beta):
    """Per-joint offset scale factors exp(shape_basis @ beta), shape (..., 21)
    for beta (..., 10), Tensor or array. The result is a plain array and
    records nothing: ``fk_joints`` differentiates through it."""
    beta = ad.value_of(beta)[..., None, :]  # broadcasts against the (21, 10) basis
    return np.exp((skeleton.shape_basis * beta).sum(axis=-1))


def fk_joints(skeleton: HandSkeleton, beta, orients, positions, joint_rotations):
    """World joint positions for a batch of frames, shape (..., N, 21, 3).

    Shapes: beta (..., 10), orients (..., N, 3), positions (..., N, 3),
    joint_rotations (..., N, 15, 3) or (..., N, 45), with the same leading
    batch axes (none for one sequence). Any argument may be a tape Tensor.
    Joint j sits at parent + parent_world_rotation @ (scale_j * rest_offset_j);
    a joint's own rotation moves only its descendants, and fingertips have none.

    The whole map records one tape node, whose VJP is ``_fk_vjp``. On plain
    values it takes the bone scales, the scaled offsets, Rodrigues of the
    wrist and joint axis-angles, and then walks the chains of
    ``skeleton.chains`` by depth, one step per level over all five fingers,
    after smplx's ``batch_rigid_transform``. FK is per frame: each frame's
    joints are bitwise the same whatever other frames share the call.
    """
    o, p, j = (ad.value_of(x) for x in (orients, positions, joint_rotations))
    lead = o.shape[:-1]  # (..., N)
    scales = bone_scales(skeleton, beta)
    aa = np.concatenate([o.reshape(lead + (1, 3)), j.reshape(lead + (NUM_ARTICULATED, 3))], axis=-2)
    r, rodrigues = _rodrigues(aa)  # (..., N, 16, 3, 3)
    off = scales.reshape(lead[:-1] + (NUM_JOINTS, 1)) * skeleton.rest_offsets
    # levels[d]: the rotations of the depth-d joints, kept for the walk back;
    # parents[d]: the world rotation of level d's parents; the base joints share the wrist's
    levels = [r[..., level_slots, :, :] for level_slots in skeleton.slots.T]
    parents = [r[..., :1, :, :]]
    for level in levels:
        parents.append(parents[-1] @ level)
    steps = [off[..., c, :].reshape(lead[:-1] + (1, NUM_FINGERS, 1, 3)) for c in skeleton.chains.T]
    joints = np.empty(lead + (NUM_JOINTS, 3))
    joints[..., 0, :] = p
    pos = p[..., None, :]
    for level, parent, step in zip(skeleton.chains.T, parents, steps):
        # parent @ step as numpy's sum runs it: from +0.0, in index order
        move = 0.0 + parent[..., 0] * step[..., 0]
        move += parent[..., 1] * step[..., 1]
        move += parent[..., 2] * step[..., 2]
        pos = pos + move
        joints[..., level, :] = pos
    ctx = (skeleton, scales, aa, r, rodrigues, levels, parents, steps)
    return ad._record(joints, _fk_vjp, (beta, orients, positions, joint_rotations), ctx)


def _fk_vjp(g, node):
    """Back from the fingertips: a joint's position gradient reaches every
    ancestor unchanged, its parent's rotation through its step, and its
    scaled offset through its parent's rotation. Then back through Rodrigues
    to the axis-angles, and through the offsets and the scales to beta."""
    skeleton, scales, aa, r, rodrigues, levels, parents, steps = node.ctx
    chains, slots = skeleton.chains, skeleton.slots
    live_beta, live_orients, live_positions, live_rotations = (
        isinstance(x, ad.Tensor) for x in node.inputs
    )
    # (..., N, 5, 4, 3): each level's position gradient plus its descendants',
    # summed from the tip
    g_pos = g[..., chains, :]
    for depth in reversed(range(CHAIN_LENGTH - 1)):
        g_pos[..., depth, :] += g_pos[..., depth + 1, :]
    grads = [None, None, g.sum(axis=-2) if live_positions else None, None]
    if live_beta:
        g_off = np.zeros(scales.shape + (3,))
        for depth in range(CHAIN_LENGTH):  # parent^T g, summed over frames
            g_step = (parents[depth] * g_pos[..., depth, :, None]).sum(axis=-2)
            g_off[..., chains[:, depth], :] = g_step.sum(axis=-3)
        # offsets = scales * rest_offsets, scales = exp(sum(basis * beta))
        g_scales = (g_off * skeleton.rest_offsets).sum(axis=-1) * scales
        grads[0] = (g_scales[..., None] * skeleton.shape_basis).sum(axis=-2)
    if live_orients or live_rotations:
        g_r = np.zeros(r.shape)
        for depth in reversed(range(CHAIN_LENGTH)):
            g_parent = g_pos[..., depth, :, None] * steps[depth]
            if depth < CHAIN_LENGTH - 1:  # g_rot: the gradient of this level's rotations
                # contiguous transposes keep matmul on its fast path, with the same bits
                child_t = np.ascontiguousarray(np.swapaxes(levels[depth], -1, -2))
                parent_t = np.ascontiguousarray(np.swapaxes(parents[depth], -1, -2))
                g_parent = g_parent + g_rot @ child_t
                g_r[..., slots[:, depth], :, :] = parent_t @ g_rot
            g_rot = g_parent
        g_r[..., 0, :, :] = g_rot.sum(axis=-3)
        del g_pos, g_parent, g_rot, child_t, parent_t  # keeps the peak at one node's temporaries
        g_aa = _rodrigues_grad(g_r, aa, *rodrigues)
        if live_orients:
            grads[1] = g_aa[..., 0, :].reshape(node.inputs[1].value.shape)
        if live_rotations:
            grads[3] = g_aa[..., 1:, :].reshape(node.inputs[3].value.shape)
    return grads


# ----- model file -----


def skeleton_from_dict(d: dict) -> HandSkeleton:
    if not isinstance(d, dict):
        raise ModelFileError("model must be a JSON object")
    keys = ("version", "parents", "rest_offsets", "shape_basis")
    for key in keys:
        if key not in d:
            raise ModelFileError(f"model is missing field '{key}'")
    if d["version"] != MODEL_SCHEMA_VERSION:
        raise ModelFileError(f"unsupported model version {d['version']!r}")
    try:
        return HandSkeleton(**{key: d[key] for key in keys})
    except (ValueError, TypeError, OverflowError) as e:
        raise ModelFileError(str(e)) from e


@cache
def load_skeleton(name: str = DEFAULT_MODEL) -> HandSkeleton:
    """Load a packaged skeleton by name (currently only ``hand_model_v1``).

    The file is parsed on the first call for a name; later calls return the
    same frozen, read-only skeleton. A name that fails raises on every call.
    """
    ref = resources.files(__package__) / "data" / f"{name}.json"
    try:
        text = ref.read_text()
    except (FileNotFoundError, OSError) as e:
        raise ModelFileError(f"unknown model '{name}'") from e
    return skeleton_from_dict(json.loads(text))


# Rest offsets in meters for a median adult right hand, flat, fingers +y,
# palm normal +z, thumb toward +x. Rows are offsets from the parent joint.
_REST_OFFSETS = [
    [0.000, 0.000, 0.000],    # 0  wrist
    [0.030, 0.020, -0.010],   # 1  thumb base
    [0.025, 0.030, 0.000],    # 2  thumb middle
    [0.010, 0.028, 0.000],    # 3  thumb distal
    [0.008, 0.022, 0.000],    # 4  thumb tip
    [0.027, 0.088, 0.000],    # 5  index base
    [0.002, 0.042, 0.000],    # 6  index middle
    [0.000, 0.026, 0.000],    # 7  index distal
    [0.000, 0.023, 0.000],    # 8  index tip
    [0.008, 0.092, 0.000],    # 9  middle base
    [0.000, 0.047, 0.000],    # 10 middle middle
    [0.000, 0.029, 0.000],    # 11 middle distal
    [0.000, 0.025, 0.000],    # 12 middle tip
    [-0.011, 0.086, 0.000],   # 13 ring base
    [-0.002, 0.042, 0.000],   # 14 ring middle
    [0.000, 0.027, 0.000],    # 15 ring distal
    [0.000, 0.024, 0.000],    # 16 ring tip
    [-0.028, 0.076, 0.000],   # 17 pinky base
    [-0.004, 0.033, 0.000],   # 18 pinky middle
    [0.000, 0.021, 0.000],    # 19 pinky distal
    [0.000, 0.019, 0.000],    # 20 pinky tip
]

_PARENTS = [-1, 0, 1, 2, 3, 0, 5, 6, 7, 0, 9, 10, 11, 0, 13, 14, 15, 0, 17, 18, 19]


def _make_shape_basis() -> np.ndarray:
    """Fixed pseudo-random log-scale basis: orthonormal-ish columns via QR,
    rows renormalized to norm 0.1. Pinned by seed and by the committed file."""
    rng = np.random.default_rng(_BASIS_SEED)
    m = rng.standard_normal((NUM_JOINTS, NUM_SHAPE_PARAMS))
    q, _ = np.linalg.qr(m)
    rows = np.linalg.norm(q, axis=1, keepdims=True)
    return q / rows * _MAX_BASIS_ROW_NORM


def default_model_dict() -> dict:
    """The canonical content of ``data/hand_model_v1.json``."""
    return {
        "version": MODEL_SCHEMA_VERSION,
        "parents": list(_PARENTS),
        "rest_offsets": [list(map(float, row)) for row in _REST_OFFSETS],
        "shape_basis": _make_shape_basis().tolist(),
    }
