"""Reverse-mode automatic differentiation on an explicit recording tape.

Values are float64 numpy arrays (scalars are 0-d arrays). Every operation on
a :class:`Tensor` appends one node to the evaluation's :class:`Tape`; tape
order is a valid topological order, so a single reverse sweep yields exact
gradients of a scalar output with respect to the leaf parameter vector.

The module-level helpers (:func:`sin`, :func:`sqrt`, :func:`stack`, ...)
accept either a Tensor or plain numpy data and return the matching kind.
Numerical code written against them runs tape-free at raw numpy speed when
given arrays, which is what the central-difference checker uses, and records
when given Tensors. Both paths execute the same numpy calls in the same
order, so values agree bitwise.

Indexing supports basic numpy indexing only (ints, slices, ellipsis); the
gradient scatter assumes non-overlapping selections.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from .errors import AutodiffDomainError

# |x| is smoothed as sqrt(x^2 + delta^2) - delta so gradients exist at 0.
# The same constant is used in the loss and gradient paths.
ABS_SMOOTH_DELTA = 1e-8


class Tape:
    """Append-only record of one evaluation."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes = []


def _val(x):
    return x.value if isinstance(x, Tensor) else np.asarray(x, dtype=float)


def _accum(t, g):
    t.grad = g if t.grad is None else t.grad + g


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


def _tape_of(a, b=None):
    ta = a.tape if isinstance(a, Tensor) else None
    tb = b.tape if isinstance(b, Tensor) else None
    if ta is not None and tb is not None and ta is not tb:
        raise ValueError("operands were recorded on different tapes")
    return ta if ta is not None else tb


class Tensor:
    """A value on a tape. Do not mutate ``value`` after construction."""

    __slots__ = ("value", "tape", "grad", "_backward")

    # Keep numpy from absorbing Tensor operands into object arrays; binary
    # ops with an ndarray on the left then fall through to our reflected ops.
    __array_ufunc__ = None

    def __init__(self, value, tape):
        self.value = np.asarray(value, dtype=float)
        self.tape = tape
        self.grad = None
        self._backward = None
        tape.nodes.append(self)

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    @property
    def size(self):
        return self.value.size

    def __repr__(self):
        return f"Tensor(shape={self.value.shape})"

    # ----- arithmetic -----

    def __add__(self, other):
        if isinstance(other, Tensor):
            a, b = self, other

            def backward(g):
                _accum(a, _unbroadcast(g, a.value.shape))
                _accum(b, _unbroadcast(g, b.value.shape))

            return _make(_tape_of(a, b), a.value + b.value, backward)
        c = np.asarray(other, dtype=float)
        a = self

        def backward(g):
            _accum(a, _unbroadcast(g, a.value.shape))

        return _make(a.tape, a.value + c, backward)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Tensor):
            a, b = self, other

            def backward(g):
                _accum(a, _unbroadcast(g, a.value.shape))
                _accum(b, _unbroadcast(-g, b.value.shape))

            return _make(_tape_of(a, b), a.value - b.value, backward)
        c = np.asarray(other, dtype=float)
        a = self

        def backward(g):
            _accum(a, _unbroadcast(g, a.value.shape))

        return _make(a.tape, a.value - c, backward)

    def __rsub__(self, other):
        c = np.asarray(other, dtype=float)
        a = self

        def backward(g):
            _accum(a, _unbroadcast(-g, a.value.shape))

        return _make(a.tape, c - a.value, backward)

    def __neg__(self):
        a = self

        def backward(g):
            _accum(a, -g)

        return _make(a.tape, -a.value, backward)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            a, b = self, other
            av, bv = a.value, b.value

            def backward(g):
                _accum(a, _unbroadcast(g * bv, av.shape))
                _accum(b, _unbroadcast(g * av, bv.shape))

            return _make(_tape_of(a, b), av * bv, backward)
        c = np.asarray(other, dtype=float)
        a = self
        av = a.value

        def backward(g):
            _accum(a, _unbroadcast(g * c, av.shape))

        return _make(a.tape, av * c, backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        bv = _val(other)
        if np.any(bv == 0.0):
            raise AutodiffDomainError("div", "zero denominator")
        if isinstance(other, Tensor):
            a, b = self, other
            av = a.value

            def backward(g):
                _accum(a, _unbroadcast(g / bv, av.shape))
                _accum(b, _unbroadcast(-g * av / (bv * bv), bv.shape))

            return _make(_tape_of(a, b), av / bv, backward)
        a = self
        av = a.value

        def backward(g):
            _accum(a, _unbroadcast(g / bv, av.shape))

        return _make(a.tape, av / bv, backward)

    def __rtruediv__(self, other):
        a = self
        av = a.value
        if np.any(av == 0.0):
            raise AutodiffDomainError("div", "zero denominator")
        c = np.asarray(other, dtype=float)

        def backward(g):
            _accum(a, _unbroadcast(-g * c / (av * av), av.shape))

        return _make(a.tape, c / av, backward)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    # ----- elementwise functions -----

    def sin(self):
        a = self
        av = a.value

        def backward(g):
            _accum(a, g * np.cos(av))

        return _make(a.tape, np.sin(av), backward)

    def cos(self):
        a = self
        av = a.value

        def backward(g):
            _accum(a, -g * np.sin(av))

        return _make(a.tape, np.cos(av), backward)

    def exp(self):
        a = self
        out_val = np.exp(a.value)

        def backward(g):
            _accum(a, g * out_val)

        return _make(a.tape, out_val, backward)

    def sqrt(self):
        a = self
        if np.any(a.value < 0.0):
            raise AutodiffDomainError("sqrt", "negative operand")
        out_val = np.sqrt(a.value)

        def backward(g):
            # derivative is unbounded at 0; callers pad with a positive delta
            _accum(a, g * (0.5 / out_val))

        return _make(a.tape, out_val, backward)

    def abs_smooth(self, delta=ABS_SMOOTH_DELTA):
        a = self
        av = a.value
        root = np.sqrt(av * av + delta * delta)

        def backward(g):
            _accum(a, g * (av / root))

        return _make(a.tape, root - delta, backward)

    # ----- structure -----

    def sum(self, axis=None, keepdims=False):
        a = self
        av = a.value
        out_val = av.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            gg = g
            if axis is not None and not keepdims:
                gg = np.expand_dims(gg, axis)
            _accum(a, np.broadcast_to(gg, av.shape))

        return _make(a.tape, out_val, backward)

    def reshape(self, shape):
        a = self
        av = a.value

        def backward(g):
            _accum(a, g.reshape(av.shape))

        return _make(a.tape, av.reshape(shape), backward)

    def __getitem__(self, idx):
        a = self
        av = a.value

        def backward(g):
            buf = np.zeros_like(av)
            buf[idx] += g
            _accum(a, buf)

        return _make(a.tape, av[idx], backward)


def _make(tape, value, backward):
    out = Tensor(value, tape)
    out._backward = backward
    return out


# ----- dispatch helpers: Tensor in, Tensor out; array in, array out -----


def value_of(x):
    """The plain numpy value of ``x`` whether or not it is on a tape."""
    return x.value if isinstance(x, Tensor) else np.asarray(x, dtype=float)


def readonly(a, dtype=float):
    """A read-only copy of ``a`` as a numpy array of ``dtype``."""
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


def sin(x):
    return x.sin() if isinstance(x, Tensor) else np.sin(x)


def cos(x):
    return x.cos() if isinstance(x, Tensor) else np.cos(x)


def exp(x):
    return x.exp() if isinstance(x, Tensor) else np.exp(x)


def sqrt(x):
    if isinstance(x, Tensor):
        return x.sqrt()
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise AutodiffDomainError("sqrt", "negative operand")
    return np.sqrt(x)


def abs_smooth(x, delta=ABS_SMOOTH_DELTA):
    """Smoothed absolute value sqrt(x^2 + delta^2) - delta."""
    if isinstance(x, Tensor):
        return x.abs_smooth(delta)
    x = np.asarray(x, dtype=float)
    return np.sqrt(x * x + delta * delta) - delta


def reshape(x, shape):
    return x.reshape(shape) if isinstance(x, Tensor) else np.reshape(x, shape)


def sum(x, axis=None, keepdims=False):  # noqa: A001 - numpy-style name
    if isinstance(x, Tensor):
        return x.sum(axis=axis, keepdims=keepdims)
    return np.asarray(x, dtype=float).sum(axis=axis, keepdims=keepdims)


def mean(x, axis=None):
    v = value_of(x)
    if axis is None:
        n = v.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        n = 1
        for ax in axes:
            n *= v.shape[ax]
    return sum(x, axis=axis) / float(n)


def norm_smooth(x, axis=None, delta=ABS_SMOOTH_DELTA):
    """Smoothed Euclidean norm sqrt(sum(x^2) + delta^2) - delta.

    Exact to within delta, and differentiable at the origin.
    """
    s = sum(x * x, axis=axis)
    return sqrt(s + delta * delta) - delta


def matmul(a, b):
    """Matrix product with broadcast leading batch dims; operands ndim >= 2."""
    av, bv = _val(a), _val(b)
    if av.ndim < 2 or bv.ndim < 2:
        raise ValueError("matmul operands must have ndim >= 2")
    out_val = av @ bv
    ta = a if isinstance(a, Tensor) else None
    tb = b if isinstance(b, Tensor) else None
    if ta is None and tb is None:
        return out_val
    tape = _tape_of(a if ta is not None else b, b if ta is not None else None)

    def backward(g):
        if ta is not None:
            _accum(ta, _unbroadcast(g @ np.swapaxes(bv, -1, -2), av.shape))
        if tb is not None:
            _accum(tb, _unbroadcast(np.swapaxes(av, -1, -2) @ g, bv.shape))

    return _make(tape, out_val, backward)


def stack(parts, axis=0):
    vals = [_val(p) for p in parts]
    out_val = np.stack(vals, axis=axis)
    tensors = [(i, p) for i, p in enumerate(parts) if isinstance(p, Tensor)]
    if not tensors:
        return out_val
    tape = tensors[0][1].tape
    for _, p in tensors[1:]:
        if p.tape is not tape:
            raise ValueError("operands were recorded on different tapes")
    ax = axis if axis >= 0 else out_val.ndim + axis

    def backward(g):
        base = [slice(None)] * g.ndim
        for i, p in tensors:
            idx = list(base)
            idx[ax] = i
            _accum(p, g[tuple(idx)])

    return _make(tape, out_val, backward)


def concat(parts, axis=0):
    vals = [_val(p) for p in parts]
    out_val = np.concatenate(vals, axis=axis)
    tensors = [(i, p) for i, p in enumerate(parts) if isinstance(p, Tensor)]
    if not tensors:
        return out_val
    tape = tensors[0][1].tape
    for _, p in tensors[1:]:
        if p.tape is not tape:
            raise ValueError("operands were recorded on different tapes")
    ax = axis if axis >= 0 else out_val.ndim + axis
    offsets = np.cumsum([0] + [v.shape[ax] for v in vals])

    def backward(g):
        base = [slice(None)] * g.ndim
        for i, p in tensors:
            idx = list(base)
            idx[ax] = slice(offsets[i], offsets[i + 1])
            _accum(p, g[tuple(idx)])

    return _make(tape, out_val, backward)


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
        the same params produces bitwise-identical results.
    """
    params = np.asarray(params, dtype=float)
    tape = Tape()
    leaf = Tensor(params.copy(), tape)
    out = objective(leaf)
    if not isinstance(out, Tensor):
        raise TypeError(f"objective must return a tape value, got {type(out)!r}")
    if out.value.size != 1:
        raise ValueError("objective must be scalar-valued")
    out.grad = np.ones_like(out.value)
    for node in reversed(tape.nodes):
        if node.grad is not None and node._backward is not None:
            node._backward(node.grad)
    loss = float(out.value)
    grad = leaf.grad
    if grad is None:
        grad = np.zeros_like(params)
    return loss, np.asarray(grad, dtype=float).reshape(params.shape)


def _scalar(out):
    return float(out.value) if isinstance(out, Tensor) else float(out)


def check_gradient(objective: Callable, params: np.ndarray, h: float = 1e-6) -> float:
    """Compare tape gradients against central finite differences.

    Returns max_i |grad_ad[i] - grad_fd[i]| / max(1, |grad_fd[i]|). The
    finite-difference side calls the objective with plain arrays, an
    independent tape-free evaluation route.
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    params = np.asarray(params, dtype=float)
    _, grad_ad = record_and_backprop(objective, params)
    work = params.copy()
    grad_fd = np.empty_like(work)
    for i in range(work.size):
        orig = work.flat[i]
        work.flat[i] = orig + h
        f_hi = _scalar(objective(work))
        work.flat[i] = orig - h
        f_lo = _scalar(objective(work))
        work.flat[i] = orig
        grad_fd.flat[i] = (f_hi - f_lo) / (2.0 * h)
    err = np.abs(grad_ad - grad_fd) / np.maximum(1.0, np.abs(grad_fd))
    return float(err.max())
