"""Reverse-mode automatic differentiation on an explicit recording tape.

Values are float64 numpy arrays (scalars are 0-d arrays). Each of the four
primitives (:func:`add`, :func:`mul`, :func:`reshape`, :func:`getitem`) is
defined once, as a module function. It computes its value with numpy on the
plain values of its operands and passes that value to ``_record``:

* when no operand is a :class:`Tensor`, ``_record`` returns the plain value,
  so numerical code written against these functions runs tape-free at numpy
  speed on arrays, which is what the central-difference checker uses, on
  blocks of perturbed points at a time;
* otherwise ``_record`` checks that every Tensor operand is on one
  :class:`Tape` and appends a node: a Tensor holding the value, the op's
  module-level VJP function, the operand tuple and a small ``ctx``.

Both paths compute the value with the same expression, so they agree bitwise.
The Tensor operators (``+``, ``*``, reflected ``*`` and indexing) delegate
to the same functions.

A fused op is the same pattern one level up: a function in another module
that evaluates a whole composition with numpy on plain values and makes one
``_record`` call with a hand-written module-level VJP, instead of recording
each step. The pipeline records three: ``hand_model.fk_joints`` (bone
scales, Rodrigues and the chain walk of forward kinematics, one node),
``objective._acceleration`` (the weighted second-difference terms, one node
for all three; on one series it is ``objective.acceleration_loss``) and
``objective._reprojection`` (all views projected by one product in
``camera.project_views``, then the masked residual).
``hand_model.rotation_matrices`` (Rodrigues alone) is a fused op too, but
no pipeline pass records it. A fused op's ``ctx`` holds only forward
intermediates, such as the camera-frame points the reprojection VJP reads
instead of projecting again; anything the VJP alone needs is computed in the
VJP, so the tape-free route pays nothing for it.

``vjp(g, node)`` returns one gradient per operand, in operand order, given
the gradient ``g`` of the node's value, or ``None`` for an operand that is
not a Tensor (a fused op also returns ``None`` for a Tensor operand its
value does not depend on). Tape order is a valid topological order, so one
reverse sweep yields exact gradients of a scalar output with respect to the
leaf parameter vector. It has one rule for every node: call its VJP once,
sum away broadcast axes, and add each operand's gradient, in operand order,
to that operand's gradient, never in place. Each node points back at its
tape, so :func:`record_and_backprop` empties the tape when the sweep ends (or
the objective raises): its nodes are then freed by reference counting,
without waiting for the cyclic garbage collector.

Indexing takes basic numpy indices only (ints, slices, ``Ellipsis``,
``None``), which select each element at most once, so the :func:`getitem` VJP
assigns ``g`` into a zero array; :func:`getitem` raises on any array index.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

# |x| is smoothed as sqrt(x^2 + delta^2) - delta so gradients exist at 0.
# The same constant is used in the loss and gradient paths.
ABS_SMOOTH_DELTA = 1e-8

# Perturbed points per tape-free objective call in check_gradient. On a
# 5-frame, 2-view problem (P = 265) a 128-row block is 5 calls instead of 530.
# The objective runs FK once per distinct (shape run, frame index, frame) of a
# block, so each row adds about two frames to FK, not one per frame. Over random_problem(5, 2, s),
# s = 0..19, on a 2-core Xeon, the median check took 11.4 ms with 32 rows,
# 8.7 with 64, 8.7 with 128 and 8.2 with 256 (six alternated sweeps, glibc's
# default malloc settings); with tools/ab_pass.py's fixed malloc thresholds,
# 128 rows ran 1.22-1.24 times as fast as 64. tracemalloc's peak over one
# check on random_problem(5, 2, 0) was 0.87, 1.16, 1.74 and 2.89 MB; of these
# sizes, 128 is the largest that keeps it under 2 MB.
FD_BLOCK = 128

# The central-difference step of check_gradient.
FD_STEP = 1e-6


class Tape:
    """Append-only record of one evaluation."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes = []


class Tensor:
    """A value on a tape, and the node that recorded it.

    A leaf has no ``vjp`` and no ``inputs``. Do not mutate ``value`` after
    construction.
    """

    __slots__ = ("value", "tape", "grad", "vjp", "inputs", "ctx")

    # Keep numpy from absorbing Tensor operands into object arrays; binary
    # ops with an ndarray on the left then fall through to our reflected ops.
    __array_ufunc__ = None

    def __init__(self, value, tape, vjp=None, inputs=(), ctx=None):
        self.value = np.asarray(value, dtype=float)
        self.tape = tape
        self.grad = None
        self.vjp = vjp
        self.inputs = inputs
        self.ctx = ctx
        tape.nodes.append(self)

    def __repr__(self):
        return f"Tensor(shape={self.value.shape})"

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __getitem__(self, idx):
        return getitem(self, idx)


def value_of(x):
    """The plain numpy value of ``x`` whether or not it is on a tape."""
    return x.value if isinstance(x, Tensor) else np.asarray(x, dtype=float)


# The array kinds each target kind takes (a float array numbers, an int array
# integers, a bool array booleans), and the words an error names kinds by.
_TAKES = {"f": "fiu", "i": "iu", "b": "b"}
_KINDS = {"f": "numbers", "i": "integers", "u": "integers", "b": "booleans",
          "c": "complex numbers", "U": "strings"}


def readonly(a, dtype=float):
    """A read-only copy of ``a`` as a numpy array of ``dtype``.

    ``a`` is read as numpy infers it, and a kind ``dtype`` does not take
    raises TypeError instead of being cast: strings, objects and complex
    values everywhere, booleans as numbers, numbers as booleans.
    """
    a = np.array(a)
    dtype = np.dtype(dtype)
    if a.dtype.kind not in _TAKES[dtype.kind]:
        got = _KINDS.get(a.dtype.kind, "other values")
        raise TypeError(f"expected {_KINDS[dtype.kind]}, got {got}")
    a = a.astype(dtype, copy=False)
    a.setflags(write=False)
    return a


def _record(value, vjp, inputs, ctx=None):
    """``value`` itself when no input is a Tensor, else a new node for it."""
    tape = None
    for x in inputs:
        if isinstance(x, Tensor):
            if tape is None:
                tape = x.tape
            elif x.tape is not tape:
                raise ValueError("operands were recorded on different tapes")
    if tape is None:
        return value
    return Tensor(value, tape, vjp, inputs, ctx)


def _unbroadcast(g, shape):
    """Reduce gradient ``g`` back to ``shape`` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ----- primitives: plain operands in, plain value out; Tensor in, Tensor out -----


def add(a, b):
    return _record(value_of(a) + value_of(b), _add_vjp, (a, b))


def _add_vjp(g, node):
    return [g if isinstance(x, Tensor) else None for x in node.inputs]


def mul(a, b):
    return _record(value_of(a) * value_of(b), _mul_vjp, (a, b))


def _mul_vjp(g, node):
    a, b = node.inputs
    return (g * value_of(b) if isinstance(a, Tensor) else None,
            g * value_of(a) if isinstance(b, Tensor) else None)


def reshape(x, shape):
    return _record(np.reshape(value_of(x), shape), _reshape_vjp, (x,))


def _reshape_vjp(g, node):
    return (g.reshape(node.inputs[0].value.shape),)


def getitem(x, idx):
    basic = (int, np.integer, slice, type(None), type(Ellipsis))
    if not all(isinstance(k, basic) for k in (idx if isinstance(idx, tuple) else (idx,))):
        raise ValueError("getitem takes basic indices only: ints, slices, Ellipsis and None")
    return _record(value_of(x)[idx], _getitem_vjp, (x,), idx)


def _getitem_vjp(g, node):
    # a basic index selects each element at most once
    out = np.zeros(node.inputs[0].value.shape)
    out[node.ctx] = g
    return (out,)


# ----- entry points -----


def record_and_backprop(
    objective: Callable, params: np.ndarray
) -> Tuple[float, np.ndarray]:
    """Evaluate ``objective`` on a fresh tape and backpropagate.

    Args:
        objective: maps a parameter vector (Tensor here, array under finite
            differences) to a scalar; must be composed of the operations this
            module provides and must not mutate its input.
        params: flat float vector of leaf parameters.

    Returns:
        (loss, grad) with ``grad[i] = d loss / d params[i]``. Re-running at
        the same params produces bitwise-identical results. The tape is
        emptied before returning or raising.
    """
    params = np.asarray(params, dtype=float)
    tape = Tape()
    try:
        leaf = Tensor(params.copy(), tape)
        out = objective(leaf)
        if not isinstance(out, Tensor):
            raise TypeError(f"objective must return a tape value, got {type(out)!r}")
        if out.value.ndim != 0:
            raise ValueError("objective must be scalar-valued")
        out.grad = np.ones_like(out.value)
        for node in reversed(tape.nodes):
            if node.grad is None or not node.inputs:
                continue
            for x, gx in zip(node.inputs, node.vjp(node.grad, node)):
                if gx is not None:
                    gx = _unbroadcast(gx, x.value.shape)
                    x.grad = gx if x.grad is None else x.grad + gx
    finally:
        tape.nodes.clear()
    grad = leaf.grad
    if grad is None:
        grad = np.zeros_like(params)
    return float(out.value), np.asarray(grad, dtype=float).reshape(params.shape)


def check_gradient(objective: Callable, params: np.ndarray) -> float:
    """Compare tape gradients against central finite differences.

    Returns max_i |grad_ad[i] - grad_fd[i]| / max(1, |grad_fd[i]|), with
    grad_fd[i] = (f(params + h e_i) - f(params - h e_i)) / (2 h) and
    h = ``FD_STEP``.

    ``params`` is a flat (P,) vector and the tape side is one
    :func:`record_and_backprop` there. The finite-difference side is an
    independent, tape-free route: it calls the objective on plain (B, P)
    blocks of at most ``FD_BLOCK`` (128) perturbed points, each a copy of
    ``params`` with one coordinate set to ``params[i] + h`` or
    ``params[i] - h``. The objective must return (B,) values, row b's equal
    to its value at row b alone; any other shape raises ValueError.
    """
    h = FD_STEP
    params = np.asarray(params, dtype=float)
    _, grad_ad = record_and_backprop(objective, params)
    # values[2i] = f(params + h e_i), values[2i + 1] = f(params - h e_i)
    values = np.empty(2 * params.size)
    for start in range(0, values.size, FD_BLOCK):
        rows = np.arange(start, min(start + FD_BLOCK, values.size))
        coord = rows // 2
        block = np.tile(params, (rows.size, 1))
        block[np.arange(rows.size), coord] = params[coord] + np.where(rows % 2, -h, h)
        out = value_of(objective(block))
        if out.shape != rows.shape:
            raise ValueError(
                f"objective must map a {block.shape} block to shape {rows.shape}, "
                f"got {out.shape}"
            )
        values[rows] = out
    grad_fd = (values[0::2] - values[1::2]) / (2.0 * h)
    err = np.abs(grad_ad - grad_fd) / np.maximum(1.0, np.abs(grad_fd))
    return float(err.max())
