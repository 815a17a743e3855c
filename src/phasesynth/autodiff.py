"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph built during a forward pass *is* the tape: every produced Tensor
remembers its parents and a closure that pushes adjoints to them.
``backward`` walks that record once, in reverse topological order.

Gradient policy: ``backward`` consumes the graph. Each operation node
drops its adjoint, closure and parents once it has pushed its adjoint
on, so only leaves keep ``grad``, and a second ``backward`` through a
consumed graph raises ``ContractError``. Leaves accumulate across
``backward`` calls on new graphs (callers reset with ``zero_grads``
between steps). Adjoint arrays may be shared between tensors, so they
are never updated in place.

Broadcasting is limited to leading-axis expansion: two operands are
compatible when their shapes are equal or one shape is a suffix of the
other (a scalar broadcasts against anything).

Fused nodes keep the training tape short; each does in one node what a
composition of the ops above did, with the same float operations in the
same order in the forward:

- ``linear``: ``x @ w (+ b)`` for a 1-D or 2-D x, one adjoint each for
  x, w and b;
- ``rearrange``: reshape, transpose, reshape (the model's depatchify);
- ``node``: any op whose backward is written by hand; the losses use it
  for ``syn_loss`` and ``seg_loss``;
- ``dtam_attention``: multi-head attention, with a backward batched over
  heads. It keeps every head's weights only when an input requires a
  gradient or the caller asks for them; without a tape the heads share
  one reused score buffer.

Live rows: ``dtam_attention``'s backward works on the query rows up to
the last one whose adjoint is not all zero. A later row adds exactly
zero to every gradient, so cutting it changes the gradients only by
rounding. The model keeps only the current block's rows of the output,
so the rows of the prior blocks are cut.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError, DomainError


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def _accumulate(self, g):
        self.grad = g if self.grad is None else self.grad + g


def _result(data, parents, backward_fn):
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def node(data, parents, adjoints):
    """One node with a backward written by hand, for a fused composite op.

    ``adjoints(g)`` maps the output's adjoint ``g`` to an iterable of one
    adjoint per parent, in order; parents without a gradient drop theirs.
    """
    parents = tuple(parents)

    def backward(out):
        for p, g in zip(parents, adjoints(out.grad)):
            if p.requires_grad:
                p._accumulate(g)

    return _result(data, parents, backward)


def _broadcast_shape(sa, sb):
    if sa == sb:
        return sa
    if len(sa) >= len(sb) and sa[len(sa) - len(sb):] == sb:
        return sa
    if len(sb) > len(sa) and sb[len(sb) - len(sa):] == sa:
        return sb
    raise DimensionError(f"shapes {sa} and {sb} do not broadcast along leading axes")


def _unbroadcast(g, shape):
    # sum the adjoint over the expanded leading axes
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    return g


# ---------------------------------------------------------------------------
# elementwise suite


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_shape(a.shape, b.shape)

    def backward(out):
        g = out.grad
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _result(a.data + b.data, (a, b), backward)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_shape(a.shape, b.shape)

    def backward(out):
        g = out.grad
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.shape))

    return _result(a.data - b.data, (a, b), backward)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_shape(a.shape, b.shape)

    def backward(out):
        g = out.grad
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _result(a.data * b.data, (a, b), backward)


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_shape(a.shape, b.shape)

    def backward(out):
        g = out.grad
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _result(a.data / b.data, (a, b), backward)


def scale(a, c):
    a = as_tensor(a)
    c = float(c)

    def backward(out):
        if a.requires_grad:
            a._accumulate(out.grad * c)

    return _result(a.data * c, (a,), backward)


def exp(a):
    a = as_tensor(a)
    y = np.exp(a.data)

    def backward(out):
        if a.requires_grad:
            a._accumulate(out.grad * y)

    return _result(y, (a,), backward)


def log(a):
    a = as_tensor(a)
    if np.any(a.data <= 0):
        raise DomainError("log requires strictly positive input")
    y = np.log(a.data)

    def backward(out):
        if a.requires_grad:
            a._accumulate(out.grad / a.data)

    return _result(y, (a,), backward)


def sigmoid(a):
    a = as_tensor(a)
    y = 1.0 / (1.0 + np.exp(-a.data))

    def backward(out):
        if a.requires_grad:
            a._accumulate(out.grad * y * (1.0 - y))

    return _result(y, (a,), backward)


def relu(a):
    a = as_tensor(a)
    keep = a.data > 0

    def backward(out):
        if a.requires_grad:
            a._accumulate(out.grad * keep)

    return _result(np.where(keep, a.data, 0.0), (a,), backward)


def abs_val(a):
    a = as_tensor(a)
    s = np.sign(a.data)

    def backward(out):
        if a.requires_grad:
            a._accumulate(out.grad * s)

    return _result(np.abs(a.data), (a,), backward)


def clip_min(a, floor):
    """max(a, floor) elementwise; gradient passes only where a > floor."""
    a = as_tensor(a)
    floor = float(floor)
    keep = a.data > floor

    def backward(out):
        if a.requires_grad:
            a._accumulate(out.grad * keep)

    return _result(np.where(keep, a.data, floor), (a,), backward)


# ---------------------------------------------------------------------------
# linear algebra and shaping


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul shapes incompatible: {a.shape} x {b.shape}")

    def backward(out):
        g = out.grad
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return _result(a.data @ b.data, (a, b), backward)


def transpose(a, axes=None):
    a = as_tensor(a)
    axes_t = tuple(axes) if axes is not None else tuple(reversed(range(a.data.ndim)))
    inv = np.argsort(axes_t)

    def backward(out):
        if a.requires_grad:
            a._accumulate(out.grad.transpose(inv))

    return _result(a.data.transpose(axes_t), (a,), backward)


def reshape(a, shape):
    a = as_tensor(a)
    old = a.shape

    def backward(out):
        if a.requires_grad:
            a._accumulate(out.grad.reshape(old))

    return _result(a.data.reshape(shape), (a,), backward)


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise DimensionError("concat of empty tensor list")
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(out):
        pieces = np.split(out.grad, splits, axis=axis)
        for t, g in zip(tensors, pieces):
            if t.requires_grad:
                t._accumulate(g)

    return _result(np.concatenate([t.data for t in tensors], axis=axis), tensors, backward)


def slice_axis(a, axis, start, stop):
    a = as_tensor(a)
    if not (0 <= start <= stop <= a.shape[axis]):
        raise IndexError(f"slice [{start}:{stop}] out of range for axis {axis} of {a.shape}")
    sl = [slice(None)] * a.data.ndim
    sl[axis] = slice(start, stop)
    sl = tuple(sl)

    def backward(out):
        if a.requires_grad:
            g = np.zeros_like(a.data)
            g[sl] = out.grad
            a._accumulate(g)

    return _result(a.data[sl], (a,), backward)


def reduce_sum(a, axis=None):
    a = as_tensor(a)

    def backward(out):
        if a.requires_grad:
            g = out.grad
            if axis is not None:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, a.shape).copy())

    return _result(a.data.sum(axis=axis), (a,), backward)


def reduce_mean(a, axis=None):
    a = as_tensor(a)
    n = a.data.size if axis is None else a.shape[axis]

    def backward(out):
        if a.requires_grad:
            g = out.grad / n
            if axis is not None:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, a.shape).copy())

    return _result(a.data.mean(axis=axis), (a,), backward)


def softmax_last_axis(a, bias=None):
    """softmax(a + bias) over the last axis; ``bias`` is a constant array.

    The bias is added into the one buffer that is then shifted,
    exponentiated and normalized in place, so it costs no extra node.
    """
    a = as_tensor(a)
    if a.data.size == 0 or a.shape[-1] < 1:
        raise DimensionError("softmax over an empty last axis")
    if bias is None:
        y = a.data - a.data.max(axis=-1, keepdims=True)
    else:
        bias = np.asarray(bias, dtype=np.float64)
        if _broadcast_shape(a.shape, bias.shape) != a.shape:
            raise DimensionError(f"softmax bias {bias.shape} does not fit logits {a.shape}")
        y = a.data + bias
        y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def backward(out):
        if a.requires_grad:
            # y * (g - sum(y * g)) in one buffer
            g = out.grad
            buf = y * g
            np.subtract(g, buf.sum(axis=-1, keepdims=True), out=buf)
            buf *= y
            a._accumulate(buf)

    return _result(y, (a,), backward)


def _split_heads(x, heads):
    """(rows, H * d_h) -> (H, rows, d_h) view of the column blocks."""
    rows, width = x.shape
    return x.reshape(rows, heads, width // heads).transpose(1, 0, 2)


def _merge_heads(x):
    """(H, rows, d_h) -> (rows, H * d_h), the inverse of ``_split_heads``."""
    heads, rows, head_dim = x.shape
    return x.transpose(1, 0, 2).reshape(rows, heads * head_dim)


def dtam_attention(q, k, v, bias, heads, weights_out=None):
    """Multi-head ``softmax(q_h k_h^T + bias) v_h``, heads concatenated, as one node.

    q: (n, D), k and v: (nk, D); head h owns columns [h d_h, (h+1) d_h)
    with d_h = D / heads. ``bias`` is a constant (n, nk) array shared by
    every head, or None. Returns the (n, D) concatenation of the heads.

    Each head's weights are filled in place (scores, + bias, shift, exp,
    normalize) into one of two buffers. They are kept, as an (H, n, nk)
    array, only when some input requires a gradient (the hand-written
    backward, batched over heads, reads them) or when ``weights_out``, a
    list, is given; it then receives one (n, nk) array per head. Otherwise
    every head reuses one (n, nk) scratch, so a forward pass without a
    tape holds a single score matrix at a time.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.data.ndim != 2 or k.data.ndim != 2 or v.data.ndim != 2:
        raise DimensionError(f"dtam_attention needs 2-D q, k, v: {q.shape}, {k.shape}, {v.shape}")
    n, dim = q.shape
    nk = k.shape[0]
    if k.shape[1] != dim or v.shape[1] != dim or heads < 1 or dim % heads:
        raise DimensionError(
            f"q, k, v widths {dim}, {k.shape[1]}, {v.shape[1]} must be equal "
            f"and divisible by {heads} heads")
    if v.shape[0] != nk or nk == 0:
        raise DimensionError(f"keys {k.shape} and values {v.shape} need the same nonzero rows")
    if bias is not None:
        bias = np.asarray(bias, dtype=np.float64)
        if bias.shape != (n, nk):
            raise DimensionError(f"attention bias {bias.shape} is not ({n}, {nk})")
    qh, kh, vh = (_split_heads(t.data, heads) for t in (q, k, v))
    keep = weights_out is not None or any(t.requires_grad for t in (q, k, v))
    w = np.empty((heads if keep else 1, n, nk))
    z = np.empty((heads, n, dim // heads))
    for h in range(heads):
        wh = w[h if keep else 0]
        np.matmul(qh[h], kh[h].T, out=wh)
        if bias is not None:
            wh += bias
        wh -= wh.max(axis=-1, keepdims=True)
        np.exp(wh, out=wh)
        wh /= wh.sum(axis=-1, keepdims=True)
        np.matmul(wh, vh[h], out=z[h])
    if weights_out is not None:
        weights_out.extend(w)

    def backward(out):
        # live rows: a query row after the last one with a nonzero adjoint
        # adds exactly zero to every gradient, so only the first r count
        live = np.flatnonzero(out.grad.any(axis=1))
        r = int(live[-1]) + 1 if live.size else 0
        g = _split_heads(out.grad[:r], heads)
        wr = w[:, :r]
        if v.requires_grad:
            v._accumulate(_merge_heads(np.matmul(wr.transpose(0, 2, 1), g)))
        if not (q.requires_grad or k.requires_grad):
            return
        # softmax backward w * (dw - sum(w * dw)), formed in dw's buffer
        s = np.matmul(g, vh.transpose(0, 2, 1))
        s -= (wr * s).sum(axis=-1, keepdims=True)
        s *= wr
        if q.requires_grad:
            dq = np.zeros((n, dim))
            dq[:r] = _merge_heads(np.matmul(s, kh))
            q._accumulate(dq)
        if k.requires_grad:
            dk = np.matmul(qh[:, :r].transpose(0, 2, 1), s)
            k._accumulate(_merge_heads(dk.transpose(0, 2, 1)))

    return _result(_merge_heads(z), (q, k, v), backward)


def linear(x, w, b=None):
    """x @ w (+ b) as one node. Accepts a 1-D or 2-D x; w is (in, out).

    The forward does what a matmul node and an add node did, in the same
    order (a 1-D x is multiplied as one row), and the backward gives x, w
    and b one adjoint each; b's sums the rows, as ``_unbroadcast`` does.
    """
    x, w = as_tensor(x), as_tensor(w)
    if x.data.ndim not in (1, 2) or w.data.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise DimensionError(f"linear shapes incompatible: {x.shape} x {w.shape}")
    x2 = x.data.reshape(1, -1) if x.data.ndim == 1 else x.data
    y = x2 @ w.data
    if x.data.ndim == 1:
        y = y.reshape(w.shape[1])
    parents = (x, w)
    if b is not None:
        b = as_tensor(b)
        _broadcast_shape(y.shape, b.shape)
        y = y + b.data
        parents = (x, w, b)

    def backward(out):
        g = out.grad
        g2 = g.reshape(1, -1) if g.ndim == 1 else g
        if x.requires_grad:
            x._accumulate((g2 @ w.data.T).reshape(x.shape))
        if w.requires_grad:
            w._accumulate(x2.T @ g2)
        if b is not None and b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _result(y, parents, backward)


def rearrange(a, split, axes, shape):
    """``a.reshape(split).transpose(axes).reshape(shape)`` as one node."""
    a = as_tensor(a)
    old = a.shape
    inv = np.argsort(axes)
    moved = tuple(split[i] for i in axes)

    def backward(out):
        if a.requires_grad:
            a._accumulate(out.grad.reshape(moved).transpose(inv).reshape(old))

    return _result(a.data.reshape(split).transpose(axes).reshape(shape), (a,), backward)


def embedding_lookup(table, index):
    table = as_tensor(table)
    index = int(index)
    if not 0 <= index < table.shape[0]:
        raise IndexError(f"embedding index {index} out of range for table {table.shape}")

    def backward(out):
        if table.requires_grad:
            g = np.zeros_like(table.data)
            g[index] = out.grad
            table._accumulate(g)

    return _result(table.data[index], (table,), backward)


# ---------------------------------------------------------------------------
# backward pass


def _consumed(node):
    raise ContractError("graph already consumed by backward; run the forward pass again")


def backward(loss):
    """Accumulate ``grad`` on every leaf reachable from loss; frees the graph as it goes."""
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        if node._backward is _consumed:
            _consumed(node)
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))

    loss._accumulate(np.ones_like(loss.data))
    while topo:  # reverse topological order; popping drops the walk's reference
        node = topo.pop()
        if node._backward is not None:
            node._backward(node)
            node.grad = None
            node._backward = _consumed
            node._parents = ()


def zero_grads(tensors):
    for t in tensors:
        t.grad = None
