"""Node-by-node reference ops that the product's fused ops are held to.

Where the model once composed these elementwise and shaping ops it now runs
one fused node (``linear``, ``rearrange``, ``dtam_attention`` and the
one-node losses). The tests compose them into the same computations, one
tape node per step, and compare. Each op is built on ``autodiff.node`` with
autodiff's own broadcasting and reduction helpers, so its forward and
adjoints are the float operations the fused ops replaced.
"""

import numpy as np

from phasesynth.autodiff import _broadcast_shape, _spread, _unbroadcast, as_tensor, node
from phasesynth.errors import DomainError


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_shape(a.shape, b.shape)
    return node(a.data - b.data, (a, b),
                lambda g: _unbroadcast(g, a.shape), lambda g: _unbroadcast(-g, b.shape))


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_shape(a.shape, b.shape)
    return node(a.data * b.data, (a, b),
                lambda g: _unbroadcast(g * b.data, a.shape),
                lambda g: _unbroadcast(g * a.data, b.shape))


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_shape(a.shape, b.shape)
    return node(a.data / b.data, (a, b),
                lambda g: _unbroadcast(g / b.data, a.shape),
                lambda g: _unbroadcast(-g * a.data / (b.data * b.data), b.shape))


def scale(a, c):
    a = as_tensor(a)
    c = float(c)
    return node(a.data * c, (a,), lambda g: g * c)


def exp(a):
    a = as_tensor(a)
    y = np.exp(a.data)
    return node(y, (a,), lambda g: g * y)


def log(a):
    a = as_tensor(a)
    if np.any(a.data <= 0):
        raise DomainError("log requires strictly positive input")
    return node(np.log(a.data), (a,), lambda g: g / a.data)


def abs_val(a):
    a = as_tensor(a)
    s = np.sign(a.data)
    return node(np.abs(a.data), (a,), lambda g: g * s)


def clip_min(a, floor):
    """max(a, floor) elementwise; gradient passes only where a > floor."""
    a = as_tensor(a)
    floor = float(floor)
    keep = a.data > floor
    return node(np.where(keep, a.data, floor), (a,), lambda g: g * keep)


def transpose(a, axes=None):
    a = as_tensor(a)
    axes_t = tuple(axes) if axes is not None else tuple(reversed(range(a.data.ndim)))
    return node(a.data.transpose(axes_t), (a,), lambda g: g.transpose(np.argsort(axes_t)))


def reduce_sum(a, axis=None):
    a = as_tensor(a)
    return node(a.data.sum(axis=axis), (a,), lambda g: _spread(g, axis, a.shape))
