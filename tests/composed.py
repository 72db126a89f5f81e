"""The tape compositions that the fused ops replaced, kept as test-only
references, and the primitives they were built from.

``rotation_matrices``, ``acceleration_loss`` and ``_reprojection`` each record
one node with a hand-written VJP. The functions below record the same
computations step by step, on ops with one-line VJPs, so the sweep derives
their gradients by the chain rule. (``fk_joints`` is the fourth fused op; its
per-joint reference, ``fk_reference``, is in ``test_hand_model``.) The fused
ops must reproduce these values bitwise and their gradients to within
rounding. ``exp``, ``sum`` and ``concat`` were tape primitives of the package
until FK and the acceleration terms became one node each.

The section after that keeps earlier forms of two fused ops, each one node
with its own VJP: Rodrigues built with ``np.stack`` and broadcast sums, and
the reprojection that projected and differentiated one view at a time. The
current ops must reproduce their values and gradients bit for bit.

The last section keeps the objective as it was taped when FK was nine nodes
(``fk_glue``, over the taped ``bone_scales_taped`` and the ``chain_walk``
node) and each acceleration term its own node (``acceleration_node``), with
the weighted total as mul and add nodes (``glue_objective``). The fused
objective must reproduce its loss, terms and gradient bit for bit.

``autodiff.Tensor`` has operators for ``+``, ``*`` and indexing only;
subtraction, division and matrix products are called as the functions
:func:`sub`, :func:`div` and :func:`matmul`.
"""

from itertools import accumulate

import numpy as np

import handsmooth.autodiff as ad
from handsmooth import camera as cam
from handsmooth import hand_model as hm
from handsmooth.errors import DegenerateObservationError
from handsmooth.hand_model import (
    CHAIN_LENGTH,
    NUM_ARTICULATED,
    NUM_FINGERS,
    NUM_JOINTS,
    NUM_SHAPE_PARAMS,
    SERIES_DERIVATIVE_SQ,
    SMALL_ANGLE_SQ,
)
from handsmooth.objective import DELTA, TERMS, LossWeights, _reprojection, _split_flat

# ----- ops recorded as autodiff records its primitives -----


def each_operand(node, grad):
    """The VJP protocol's list: ``grad(i)`` for each Tensor operand i, None
    for the others."""
    return [grad(i) if isinstance(x, ad.Tensor) else None for i, x in enumerate(node.inputs)]


def exp(x):
    return ad._record(np.exp(ad.value_of(x)), _exp_vjp, (x,))


def _exp_vjp(g, node):
    return (g * node.value,)


def sum(x, axis=None):  # noqa: A001 - numpy-style name
    return ad._record(ad.value_of(x).sum(axis=axis), _sum_vjp, (x,), axis)


def _sum_vjp(g, node):
    if node.ctx is not None:
        g = np.expand_dims(g, node.ctx)
    return (np.broadcast_to(g, node.inputs[0].value.shape),)


def concat(parts, axis=0):
    vals = [ad.value_of(p) for p in parts]
    value = np.concatenate(vals, axis=axis)
    ax = axis % value.ndim
    ends = accumulate(v.shape[ax] for v in vals)
    keys = [slice(end - v.shape[ax], end) for end, v in zip(ends, vals)]
    return ad._record(value, _concat_vjp, tuple(parts), (ax, keys))


def _concat_vjp(g, node):
    """ctx is (axis, the slice of each part along that axis of the output)."""
    ax, keys = node.ctx
    return each_operand(node, lambda i: g[(slice(None),) * ax + (keys[i],)])



def sub(a, b):
    return ad._record(ad.value_of(a) - ad.value_of(b), _sub_vjp, (a, b))


def _sub_vjp(g, node):
    return each_operand(node, lambda i: -g if i else g)


def div(a, b):
    return ad._record(ad.value_of(a) / ad.value_of(b), _div_vjp, (a, b))


def _div_vjp(g, node):
    a, b = node.inputs
    bv = ad.value_of(b)
    return each_operand(node, lambda i: -g * ad.value_of(a) / (bv * bv) if i else g / bv)


def matmul(a, b):
    """Matrix product with broadcast leading batch dims; operands ndim >= 2."""
    av, bv = ad.value_of(a), ad.value_of(b)
    if av.ndim < 2 or bv.ndim < 2:
        raise ValueError("matmul operands must have ndim >= 2")
    return ad._record(av @ bv, _matmul_vjp, (a, b))


def _matmul_vjp(g, node):
    a, b = node.inputs
    return each_operand(node, lambda i: np.swapaxes(ad.value_of(a), -1, -2) @ g if i
                        else g @ np.swapaxes(ad.value_of(b), -1, -2))


def stack(parts, axis=0):
    value = np.stack([ad.value_of(p) for p in parts], axis=axis)
    return ad._record(value, _stack_vjp, tuple(parts), axis % value.ndim)


def _stack_vjp(g, node):
    return each_operand(node, lambda i: np.take(g, i, axis=node.ctx))


def neg(x):
    return ad._record(-ad.value_of(x), _neg_vjp, (x,))


def _neg_vjp(g, node):
    return (-g,)


def sin(x):
    return ad._record(np.sin(ad.value_of(x)), _sin_vjp, (x,))


def _sin_vjp(g, node):
    return (g * np.cos(node.inputs[0].value),)


def cos(x):
    return ad._record(np.cos(ad.value_of(x)), _cos_vjp, (x,))


def _cos_vjp(g, node):
    return (-g * np.sin(node.inputs[0].value),)


def sqrt(x):
    return ad._record(np.sqrt(ad.value_of(x)), _sqrt_vjp, (x,))


def _sqrt_vjp(g, node):
    return (g * (0.5 / node.value),)


def abs_smooth(x, delta=ad.ABS_SMOOTH_DELTA):
    """Smoothed absolute value sqrt(x^2 + delta^2) - delta."""
    v = ad.value_of(x)
    root = np.sqrt(v * v + delta * delta)
    return ad._record(root - delta, _abs_smooth_vjp, (x,), root)


def _abs_smooth_vjp(g, node):
    return (g * (node.inputs[0].value / node.ctx),)


def mean(x, axis=None):
    total = sum(x, axis)
    return div(total, float(ad.value_of(x).size // ad.value_of(total).size))


# ----- the compositions -----


def rodrigues_reference(aa):
    x = aa[..., 0]
    y = aa[..., 1]
    z = aa[..., 2]
    t2 = x * x + y * y + z * z
    small = (ad.value_of(t2) < SMALL_ANGLE_SQ).astype(float)  # constant mask
    big = 1.0 - small
    t2_safe = t2 * big + small
    theta = sqrt(t2_safe)
    sin_c = div(sin(theta), theta)
    s_half = sin(theta * 0.5)
    ver_c = div((s_half * s_half) * 2.0, t2_safe)
    a = big * sin_c + small * sub(1.0, t2 * (1.0 / 6.0))
    b = big * ver_c + small * sub(0.5, t2 * (1.0 / 24.0))

    zeros = np.zeros(ad.value_of(x).shape)
    k = stack(
        [
            stack([zeros, neg(z), y], axis=-1),
            stack([z, zeros, neg(x)], axis=-1),
            stack([neg(y), x, zeros], axis=-1),
        ],
        axis=-2,
    )
    lead = ad.value_of(aa).shape[:-1]
    col = ad.reshape(aa, lead + (3, 1))
    row = ad.reshape(aa, lead + (1, 3))
    outer = col * row
    eye = np.eye(3)
    a_m = ad.reshape(a, lead + (1, 1))
    b_m = ad.reshape(b, lead + (1, 1))
    t2_m = ad.reshape(t2, lead + (1, 1))
    return ad.add(eye, a_m * k) + b_m * sub(outer, t2_m * eye)


def acceleration_reference(series):
    d2 = sub(series[..., 2:, :], series[..., 1:-1, :] * 2.0) + series[..., :-2, :]
    return mean(abs_smooth(d2), axis=(-2, -1))


def project_reference(points, view):
    """``camera.project_points_masked`` recorded step by step: (u, v, in_front)
    of (..., 3) points, Tensor or array."""
    intr, extr = view
    p_cam = matmul(points, extr.rotation.T) + extr.translation
    x = p_cam[..., 0]
    y = p_cam[..., 1]
    z = p_cam[..., 2]
    in_front = ad.value_of(z) > cam.MIN_DEPTH
    m = in_front.astype(float)
    z_safe = z * m + (1.0 - m)
    u = div(x, z_safe) * intr.fx + intr.cx
    v = div(y, z_safe) * intr.fy + intr.cy
    return u, v, in_front


def reprojection_reference(joints, obs, norm):
    count = 0.0
    total = None
    for vi, view in enumerate(obs.rig.views):
        u, v, in_front = project_reference(joints, view)
        mask = (obs.visibility[:, vi] & in_front).astype(float)
        du = sub(u, obs.landmarks_2d[:, vi, :, 0])
        dv = sub(v, obs.landmarks_2d[:, vi, :, 1])
        if norm == "l2":
            dist = sub(sqrt(du * du + dv * dv + DELTA * DELTA), DELTA)
        elif norm == "l2_squared":
            dist = du * du + dv * dv
        else:
            dist = abs_smooth(du) + abs_smooth(dv)
        count = count + mask.sum(axis=(-2, -1))
        s = sum(dist * mask, axis=(-2, -1))
        total = s if total is None else total + s
    if np.any(count == 0.0):
        raise DegenerateObservationError("no landmark is visible and in front of a camera")
    return div(total, count)


# ----- earlier forms of the fused ops, bit for bit -----


def rodrigues_stacked(aa):
    """``hand_model.rotation_matrices`` with K stacked and R summed by
    broadcasting over (..., 3, 3)."""
    w = ad.value_of(aa)
    x = w[..., 0]
    y = w[..., 1]
    z = w[..., 2]
    t2 = x * x + y * y + z * z
    small = (t2 < SMALL_ANGLE_SQ).astype(float)
    big = 1.0 - small
    t2_safe = t2 * big + small
    theta = np.sqrt(t2_safe)
    sin_c = np.sin(theta) / theta
    s_half = np.sin(theta * 0.5)
    ver_c = (s_half * s_half) * 2.0 / t2_safe
    a = big * sin_c + small * (1.0 - t2 * (1.0 / 6.0))
    b = big * ver_c + small * (0.5 - t2 * (1.0 / 24.0))

    zeros = np.zeros(x.shape)
    k = np.stack(
        [
            np.stack([zeros, -z, y], axis=-1),
            np.stack([z, zeros, -x], axis=-1),
            np.stack([-y, x, zeros], axis=-1),
        ],
        axis=-2,
    )
    lead = w.shape[:-1]
    outer = w.reshape(lead + (3, 1)) * w.reshape(lead + (1, 3))
    eye = np.eye(3)
    t2_m = t2.reshape(lead + (1, 1))
    value = eye + a.reshape(lead + (1, 1)) * k + b.reshape(lead + (1, 1)) * (outer - t2_m * eye)
    return ad._record(value, _rodrigues_stacked_vjp, (aa,), (t2, a, b))


def _rodrigues_stacked_vjp(g, node):
    t2, a, b = node.ctx
    w = node.inputs[0].value
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
    s = np.stack(
        [g[..., 2, 1] - g[..., 1, 2], g[..., 0, 2] - g[..., 2, 0], g[..., 1, 0] - g[..., 0, 1]],
        axis=-1,
    )
    sym_w = ((g + np.swapaxes(g, -1, -2)) @ w[..., None])[..., 0]
    trace = np.trace(g, axis1=-2, axis2=-1)
    g_a = np.sum(w * s, axis=-1)
    g_b = 0.5 * np.sum(w * sym_w, axis=-1) - t2 * trace
    g_t2 = g_a * da + g_b * db - b * trace
    return (a[..., None] * s + b[..., None] * sym_w + (2.0 * g_t2)[..., None] * w,)


def project_one_view(points, view):
    """``camera.project_points_masked`` as its own product, (..., 3) @ R^T."""
    intr, extr = view
    p = ad.value_of(points) @ extr.rotation.T + extr.translation
    x = p[..., 0]
    y = p[..., 1]
    z = p[..., 2]
    in_front = z > cam.MIN_DEPTH
    m = in_front.astype(float)
    z_safe = z * m + (1.0 - m)
    u = x / z_safe * intr.fx + intr.cx
    v = y / z_safe * intr.fy + intr.cy
    return u, v, in_front


def reprojection_per_view(joints, obs, norm):
    """``objective._reprojection``, projecting and summing one view at a
    time; its VJP projects each view again."""
    points = ad.value_of(joints)
    count = 0.0
    total = None
    residuals = []
    for vi, view in enumerate(obs.rig.views):
        u, v, in_front = project_one_view(points, view)
        mask = (obs.visibility[:, vi] & in_front).astype(float)
        du = u - obs.landmarks_2d[:, vi, :, 0]
        dv = v - obs.landmarks_2d[:, vi, :, 1]
        if norm == "l2":
            ru = rv = np.sqrt(du * du + dv * dv + DELTA * DELTA)
            dist = ru - DELTA
        elif norm == "l2_squared":
            ru = rv = 0.5
            dist = du * du + dv * dv
        else:
            ru, rv = np.sqrt(du * du + DELTA * DELTA), np.sqrt(dv * dv + DELTA * DELTA)
            dist = (ru - DELTA) + (rv - DELTA)
        count = count + mask.sum(axis=(-2, -1))
        s = (dist * mask).sum(axis=(-2, -1))
        total = s if total is None else total + s
        residuals.append((du, dv, ru, rv, mask))
    if np.any(count == 0.0):
        raise DegenerateObservationError("no landmark is visible and in front of a camera")
    return ad._record(total / count, _reprojection_per_view_vjp, (joints,), (obs, count, residuals))


def _reprojection_per_view_vjp(g, node):
    obs, count, residuals = node.ctx
    points = node.inputs[0].value
    scale = (g / count)[..., None, None]
    out = np.zeros(points.shape)
    for (intr, extr), (du, dv, ru, rv, mask) in zip(obs.rig.views, residuals):
        w = scale * mask
        gu, gv = w * du / ru, w * dv / rv
        p = points @ extr.rotation.T + extr.translation
        z = np.where(mask > 0.0, p[..., 2], 1.0)
        gx = gu * intr.fx / z
        gy = gv * intr.fy / z
        gz = -(gx * p[..., 0] + gy * p[..., 1]) / z
        out += np.stack([gx, gy, gz], axis=-1) @ extr.rotation
    return (out,)


# ----- the objective as it was taped before FK and the acceleration terms
# ----- became one node each: the glue whose bytes the fused ops reproduce


def bone_scales_taped(skeleton, beta):
    """``hand_model.bone_scales`` recorded step by step: reshape (for a batch
    of shape vectors), mul, sum and exp nodes."""
    lead = ad.value_of(beta).shape[:-1]
    if lead:  # a batch of shape vectors broadcasts against the (21, 10) basis
        beta = ad.reshape(beta, lead + (1, NUM_SHAPE_PARAMS))
    return exp(sum(skeleton.shape_basis * beta, axis=-1))


def chain_walk(skeleton, rots, offsets, positions):
    """The chain walk of ``hand_model.fk_joints`` as its own node, on the
    rotation matrices, the scaled offsets and the wrist positions."""
    r, off, p = (ad.value_of(x) for x in (rots, offsets, positions))
    lead = p.shape[:-1]  # (..., N)
    parents = [r[..., :1, :, :]]
    for level_slots in skeleton.slots.T:
        parents.append(parents[-1] @ r[..., level_slots, :, :])
    steps = [off[..., c, :].reshape(lead[:-1] + (1, NUM_FINGERS, 1, 3)) for c in skeleton.chains.T]
    joints = np.empty(lead + (NUM_JOINTS, 3))
    joints[..., 0, :] = p
    pos = p[..., None, :]
    for level, parent, step in zip(skeleton.chains.T, parents, steps):
        pos = pos + (parent * step).sum(axis=-1)
        joints[..., level, :] = pos
    ctx = (skeleton.chains, skeleton.slots, parents, steps)
    return ad._record(joints, _chain_walk_vjp, (rots, offsets, positions), ctx)


def _chain_walk_vjp(g, node):
    return each_operand(node, lambda i: _chain_walk_grad(g, node, i))


def _chain_walk_grad(g, node, i):
    chains, slots, parents, steps = node.ctx
    if i == 2:
        return g.sum(axis=-2)
    g_pos = np.cumsum(g[..., chains[:, ::-1], :], axis=-2)[..., ::-1, :]
    out = np.zeros(node.inputs[i].value.shape)
    if i == 1:
        for depth in range(CHAIN_LENGTH):
            g_step = (parents[depth] * g_pos[..., depth, :, None]).sum(axis=-2)
            out[..., chains[:, depth], :] = g_step.sum(axis=-3)
        return out
    for depth in reversed(range(CHAIN_LENGTH)):
        g_parent = g_pos[..., depth, :, None] * steps[depth]
        if depth < CHAIN_LENGTH - 1:
            child = node.inputs[0].value[..., slots[:, depth], :, :]
            g_parent = g_parent + g_rot @ np.swapaxes(child, -1, -2)
            out[..., slots[:, depth], :, :] = np.swapaxes(parents[depth], -1, -2) @ g_rot
        g_rot = g_parent
    out[..., 0, :, :] = g_rot.sum(axis=-3)
    return out


def fk_glue(skeleton, beta, orients, positions, joint_rotations):
    """``hand_model.fk_joints`` as nine nodes: the taped bone scales, the
    orient reshape, the axis-angle concat, Rodrigues, the offset reshape and
    mul, and the chain walk. joint_rotations is (..., N, 15, 3)."""
    scales = bone_scales_taped(skeleton, beta)
    lead = ad.value_of(orients).shape[:-1]
    aa_all = concat([ad.reshape(orients, lead + (1, 3)), joint_rotations], axis=-2)
    rots = hm.rotation_matrices(aa_all)
    offsets = ad.reshape(scales, lead[:-1] + (NUM_JOINTS, 1)) * skeleton.rest_offsets
    return chain_walk(skeleton, rots, offsets, positions)


def acceleration_node(series):
    """``objective.acceleration_loss`` as its own node on one series."""
    s = ad.value_of(series)
    d2 = s[..., 2:, :] - s[..., 1:-1, :] * 2.0 + s[..., :-2, :]
    root = np.sqrt(d2 * d2 + DELTA * DELTA)
    count = float(d2.shape[-2] * d2.shape[-1])
    value = (root - DELTA).sum(axis=(-2, -1)) / count
    return ad._record(value, _acceleration_node_vjp, (series,), (d2, root, count))


def _acceleration_node_vjp(g, node):
    d2, root, count = node.ctx
    gd = (g / count)[..., None, None] * (d2 / root)
    out = np.zeros(node.inputs[0].value.shape)
    out[..., 2:, :] += gd
    out[..., 1:-1, :] -= gd * 2.0
    out[..., :-2, :] += gd
    return (out,)


def glue_objective(obs, skeleton, weights=LossWeights(), norm="l2", terms_out=None,
                   optimize_shape=True):
    """``objective.make_flat_objective`` with one node per acceleration term,
    FK as ``fk_glue``, the weighted total as mul and add nodes, and an
    all-zero-weights total of sum(orients * orients) * 0.0."""
    n = obs.num_frames
    ws = (weights.acce_pose, weights.acce_orients, weights.acce_position, weights.reprojection)

    def live(x, weight):
        return x if weight != 0.0 else ad.value_of(x)

    def objective(vec):
        shape_vec, orients, positions, joint_rots = _split_flat(vec, n)
        if not optimize_shape:
            shape_vec = ad.value_of(shape_vec)
        terms = {
            "acce_pose": acceleration_node(live(joint_rots, ws[0])),
            "acce_orients": acceleration_node(live(orients, ws[1])),
            "acce_position": acceleration_node(live(positions, ws[2])),
        }
        rots = ad.reshape(joint_rots, ad.value_of(joint_rots).shape[:-1] + (NUM_ARTICULATED, 3))
        joints = fk_glue(skeleton, *(live(x, ws[3]) for x in (shape_vec, orients, positions, rots)))
        terms["loss_2d"] = _reprojection(joints, obs, norm)
        total = None
        for name, weight in zip(TERMS, ws):
            if weight != 0.0:
                scaled = terms[name] * weight
                total = scaled if total is None else total + scaled
        if total is None:
            total = sum(orients * orients, axis=(-2, -1)) * 0.0
        if terms_out is not None and ad.value_of(total).ndim == 0:
            terms_out.update((name, float(ad.value_of(v))) for name, v in terms.items())
        return total

    return objective
