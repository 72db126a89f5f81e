"""The tape compositions that the fused ops replaced, kept as test-only
references, and the primitives they were built from.

``rotation_matrices``, ``acceleration_loss`` and ``_reprojection`` each record
one node with a hand-written VJP. The functions below record the same
computations step by step, on ops with one-line VJPs, so the sweep derives
their gradients by the chain rule. (The chain walk of ``fk_joints`` is the
fourth fused op; its reference, ``fk_reference``, is in ``test_hand_model``.)
The fused ops must reproduce these values bitwise and their gradients to
within rounding.

The last section keeps earlier forms of two fused ops, each one node with its
own VJP: Rodrigues built with ``np.stack`` and broadcast sums, and the
reprojection that projected and differentiated one view at a time. The
current ops must reproduce their values and gradients bit for bit.

``autodiff.Tensor`` has operators for ``+``, ``*`` and indexing only;
subtraction, division and matrix products are called as the functions
:func:`sub`, :func:`div` and :func:`matmul`.
"""

import numpy as np

import handsmooth.autodiff as ad
from handsmooth import camera as cam
from handsmooth.errors import DegenerateObservationError
from handsmooth.hand_model import SERIES_DERIVATIVE_SQ, SMALL_ANGLE_SQ
from handsmooth.objective import DELTA

# ----- ops recorded as autodiff records its primitives -----


def sub(a, b):
    return ad._record(ad.value_of(a) - ad.value_of(b), _sub_vjp, (a, b))


def _sub_vjp(g, node, i):
    return -g if i else g


def div(a, b):
    return ad._record(ad.value_of(a) / ad.value_of(b), _div_vjp, (a, b))


def _div_vjp(g, node, i):
    a, b = node.inputs
    bv = ad.value_of(b)
    return -g * ad.value_of(a) / (bv * bv) if i else g / bv


def matmul(a, b):
    """Matrix product with broadcast leading batch dims; operands ndim >= 2."""
    av, bv = ad.value_of(a), ad.value_of(b)
    if av.ndim < 2 or bv.ndim < 2:
        raise ValueError("matmul operands must have ndim >= 2")
    return ad._record(av @ bv, _matmul_vjp, (a, b))


def _matmul_vjp(g, node, i):
    a, b = node.inputs
    if i:
        return np.swapaxes(ad.value_of(a), -1, -2) @ g
    return g @ np.swapaxes(ad.value_of(b), -1, -2)


def stack(parts, axis=0):
    value = np.stack([ad.value_of(p) for p in parts], axis=axis)
    return ad._record(value, _stack_vjp, tuple(parts), axis % value.ndim)


def _stack_vjp(g, node, i):
    return np.take(g, i, axis=node.ctx)


def neg(x):
    return ad._record(-ad.value_of(x), _neg_vjp, (x,))


def _neg_vjp(g, node, i):
    return -g


def sin(x):
    return ad._record(np.sin(ad.value_of(x)), _sin_vjp, (x,))


def _sin_vjp(g, node, i):
    return g * np.cos(node.inputs[0].value)


def cos(x):
    return ad._record(np.cos(ad.value_of(x)), _cos_vjp, (x,))


def _cos_vjp(g, node, i):
    return -g * np.sin(node.inputs[0].value)


def sqrt(x):
    return ad._record(np.sqrt(ad.value_of(x)), _sqrt_vjp, (x,))


def _sqrt_vjp(g, node, i):
    return g * (0.5 / node.value)


def abs_smooth(x, delta=ad.ABS_SMOOTH_DELTA):
    """Smoothed absolute value sqrt(x^2 + delta^2) - delta."""
    v = ad.value_of(x)
    root = np.sqrt(v * v + delta * delta)
    return ad._record(root - delta, _abs_smooth_vjp, (x,), root)


def _abs_smooth_vjp(g, node, i):
    return g * (node.inputs[0].value / node.ctx)


def mean(x, axis=None):
    total = ad.sum(x, axis)
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
        s = ad.sum(dist * mask, axis=(-2, -1))
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


def _rodrigues_stacked_vjp(g, node, i):
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
    return a[..., None] * s + b[..., None] * sym_w + (2.0 * g_t2)[..., None] * w


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


def _reprojection_per_view_vjp(g, node, i):
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
    return out
