"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph built during a forward pass *is* the tape. Every op makes its
output with one constructor, ``node(data, parents, *adjoints)``:
``adjoints[i](g)`` maps the output's adjoint ``g`` to parent i's. The
node joins the tape only when some parent requires a gradient.
``backward`` walks that record once, in reverse topological order; it is
the one place that checks which parents require a gradient, calls their
adjoints and accumulates the results.

Gradient policy: ``backward`` consumes the graph. Each operation node
drops its adjoint, adjoint functions and parents once it has pushed its
adjoint on, so only leaves keep ``grad``, and a second ``backward``
through a consumed graph raises ``ContractError``. Leaves accumulate
across ``backward`` calls on new graphs (callers reset with
``zero_grads`` between steps). Adjoint arrays may be shared between
tensors, so they are never updated in place.

Broadcasting is limited to leading-axis expansion: two operands are
compatible when their shapes are equal or one shape is a suffix of the
other (a scalar broadcasts against anything).

Fused ops keep the training tape short: ``linear`` (``x @ w (+ b)``),
``rearrange`` (reshape, transpose, reshape: the model's depatchify) and
``dtam_attention`` (multi-head attention, its backward batched over
heads) each do in one node what a composition of elementwise and shaping
ops does; the tests build that composition, one node per step, from the
reference ops in ``tests/refops.py``. ``linear``, ``rearrange`` and the
one-node losses (``syn_loss``, ``seg_loss``, ``cls_loss``, ``total_loss``,
``tcc_loss``) do the same float operations in the same order in the
forward.
``dtam_attention`` does not: it adds the decay bias inside the score
matmul, exponentiates the scores without subtracting the row maximum
(unless that could leave float range), and takes the softmax row sums
from the value matmul, through a column of ones beside the values, so
its output and gradients differ from the composition's by rounding. It
works one tile at a time: some rows of one run of query rows (one phase
block) for one group of heads, so a tile of scores fits
``SCORE_CHUNK_BYTES``; a tile is two matmuls and one ``exp``. The range
check of the row sums and the normalisation run once per head group.
It keeps every head's weights only when an input requires a gradient or
the caller asks for them; without a tape the tiles share one scratch
buffer.

Live rows: ``dtam_attention``'s adjoints work on the query rows up to
the last one whose adjoint is not all zero. A later row adds exactly
zero to every gradient, so cutting it changes the gradients only by
rounding. The model keeps only the current block's rows of the output,
so the rows of the prior blocks are cut.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_adjoints")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._adjoints = None

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


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def node(data, parents, *adjoints):
    """A Tensor holding ``data``, on the tape when some parent requires a gradient.

    ``adjoints[i](g)`` maps the output's adjoint ``g`` to the adjoint of
    ``parents[i]``; ``backward`` calls it only when that parent requires
    a gradient.
    """
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._adjoints = adjoints
    return out


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


def _scatter(like, index, g):
    """Zeros shaped like ``like`` with ``g`` written at ``index``."""
    full = np.zeros_like(like)
    full[index] = g
    return full


def _spread(g, axis, shape):
    """A reduction's adjoint broadcast back over the reduced axis, as a fresh array."""
    if axis is not None:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape).copy()


# ---------------------------------------------------------------------------
# elementwise suite


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_shape(a.shape, b.shape)
    return node(a.data + b.data, (a, b),
                lambda g: _unbroadcast(g, a.shape), lambda g: _unbroadcast(g, b.shape))


def sigmoid(a):
    a = as_tensor(a)
    y = 1.0 / (1.0 + np.exp(-a.data))
    return node(y, (a,), lambda g: g * y * (1.0 - y))


def relu(a):
    a = as_tensor(a)
    keep = a.data > 0
    return node(np.where(keep, a.data, 0.0), (a,), lambda g: g * keep)


# ---------------------------------------------------------------------------
# linear algebra and shaping


def matmul(a, b):  # no product caller: phasebench/trace.py counts it by name
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul shapes incompatible: {a.shape} x {b.shape}")
    return node(a.data @ b.data, (a, b), lambda g: g @ b.data.T, lambda g: a.data.T @ g)


def reshape(a, shape):
    a = as_tensor(a)
    return node(a.data.reshape(shape), (a,), lambda g: g.reshape(a.shape))


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise DimensionError("concat of empty tensor list")
    bounds = [0]
    for t in tensors:
        bounds.append(bounds[-1] + t.shape[axis])
    data = np.concatenate([t.data for t in tensors], axis=axis)
    lead = (slice(None),) * (axis % data.ndim)
    return node(data, tensors, *(lambda g, piece=lead + (slice(lo, hi),): g[piece]
                                 for lo, hi in zip(bounds, bounds[1:])))


def slice_axis(a, axis, start, stop):
    a = as_tensor(a)
    if not (0 <= start <= stop <= a.shape[axis]):
        raise IndexError(f"slice [{start}:{stop}] out of range for axis {axis} of {a.shape}")
    sl = [slice(None)] * a.data.ndim
    sl[axis] = slice(start, stop)
    sl = tuple(sl)
    return node(a.data[sl], (a,), lambda g: _scatter(a.data, sl, g))


def reduce_mean(a, axis=None):
    a = as_tensor(a)
    n = a.data.size if axis is None else a.shape[axis]
    return node(a.data.mean(axis=axis), (a,), lambda g: _spread(g / n, axis, a.shape))


def softmax_last_axis(a):
    """softmax(a) over the last axis, shifted, exponentiated and normalized in one buffer."""
    a = as_tensor(a)
    if a.data.size == 0 or a.shape[-1] < 1:
        raise DimensionError("softmax over an empty last axis")
    y = a.data - a.data.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def adjoint(g):
        # y * (g - sum(y * g)) in one buffer
        buf = y * g
        np.subtract(g, buf.sum(axis=-1, keepdims=True), out=buf)
        buf *= y
        return buf

    return node(y, (a,), adjoint)


SCORE_CHUNK_BYTES = 1 << 18  # one tile of attention scores stays in L2 cache


def _split_heads(x, heads):
    """(rows, H * d_h) -> (H, rows, d_h) view of the column blocks."""
    rows, width = x.shape
    return x.reshape(rows, heads, width // heads).transpose(1, 0, 2)


def _merge_heads(x):
    """(H, rows, d_h) -> (rows, H * d_h), the inverse of ``_split_heads``."""
    heads, rows, head_dim = x.shape
    return x.transpose(1, 0, 2).reshape(rows, heads * head_dim)


def dtam_attention(q, k, v, bias, heads, runs, weights_out=None):
    """Multi-head ``softmax(q_h k_h^T + bias) v_h``, heads concatenated, as one node.

    q: (n, D), k and v: (nk, D); head h owns columns [h d_h, (h+1) d_h)
    with d_h = D / heads. ``runs`` splits the n query rows into runs of
    the given lengths (in the model, one run per phase block; ``[1] * n``
    gives each row its own); every row of run i gets the constant key
    bias ``bias[i]``, so ``bias`` is a (len(runs), nk) array shared by
    every head, or None. Returns the (n, D) concatenation of the heads.

    The weights are formed one tile at a time. Each run's rows split into
    equal tiles of at most ``SCORE_CHUNK_BYTES // (8 nk)`` rows, and the
    heads into equal groups (a divisor of ``heads``, at least one head)
    whose tile of scores fits the budget. Per head group, the queries get
    a trailing 1 and the keys a trailing row, rewritten to ``bias[i]`` as
    the tiles reach run i, so one matmul gives ``q k^T + bias``; the
    values get a trailing column of ones. A tile is that matmul, the
    exponential in place without subtracting the row maximum, and the
    matmul by the values, whose last column is each row's sum of
    weights. After the group's tiles the row sums are checked once: a
    tile holding a row whose sum is not finite, is below 1e-200, or times
    ``max|v|`` exceeds 1e200 is redone with the row maximum subtracted,
    so the result stays within rounding of the exact softmax and NaN
    inputs still give NaN. Then the value product, not the weights, is
    divided by the row sums, once for the group, into the heads' columns
    of the output. The (H, n, nk) weights are kept only when some input
    requires a gradient (the adjoints, batched over heads, read them) or
    when ``weights_out``, a list, is given; it then receives one (n, nk)
    array per head. Kept weights are divided by the row sums after the
    value product, so the output has the same bits either way. Otherwise
    each tile is scratch, so a forward pass without a tape holds one
    tile of scores at a time.

    The backward's softmax row term ``sum_j w_ij (g_i . v_j)`` is formed
    as ``g_i . z_i``, over (H, rows, d_h) rather than (H, rows, nk).
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
    runs = [int(r) for r in runs]
    if min(runs, default=1) < 1 or sum(runs) != n:
        raise DimensionError(f"query runs {runs} are not positive lengths summing to {n}")
    if bias is not None:
        bias = np.asarray(bias, dtype=np.float64)
        if bias.shape != (len(runs), nk):
            raise DimensionError(f"attention bias {bias.shape} is not ({len(runs)}, {nk})")
    qh, kh, vh = (_split_heads(t.data, heads) for t in (q, k, v))
    kt = kh.transpose(0, 2, 1)
    d_h = dim // heads
    keep = weights_out is not None or any(t.requires_grad for t in (q, k, v))
    w = np.empty((heads, n, nk)) if keep else None
    out = np.empty((n, dim))
    z = _split_heads(out, heads)  # each head's view of its output columns
    # tiles: each run's rows split into equal tiles of at most `cap` rows, and
    # the heads into equal groups whose tile of scores fits SCORE_CHUNK_BYTES
    cap = max(1, SCORE_CHUNK_BYTES // (8 * nk))
    tiles, lo = [], 0
    for i, rows in enumerate(runs):
        parts = -(-rows // cap)
        cuts = [lo + rows * j // parts for j in range(parts + 1)]
        tiles += [(i, a, b) for a, b in zip(cuts, cuts[1:])]
        lo += rows
    t = max((hi - lo for _, lo, hi in tiles), default=0)
    group = max((g for g in range(1, heads + 1)
                 if heads % g == 0 and 8 * g * t * nk <= SCORE_CHUNK_BYTES), default=1)
    scratch = None if keep else np.empty(group * t * nk)
    # per head group, the queries get a trailing 1 and the keys a trailing row
    # holding the run's ln G (zeros without one), so the score matmul adds the
    # bias; the values get a trailing column of ones, so the value matmul also
    # forms each row's sum of weights, in z1's last column. Tiles are views.
    q1, v1, z1 = (np.empty((group, rows, d_h + 1)) for rows in (n, nk, n))
    q1[..., d_h] = v1[..., d_h] = 1.0
    k1 = np.zeros((group, d_h + 1, nk))
    total = z1[..., d_h:]
    # each tile's views of the query and output buffers (and of the score
    # scratch without a tape), shared by every head group
    views = [(i, lo, hi, q1[:, lo:hi], z1[:, lo:hi],
              None if keep else scratch[:group * (hi - lo) * nk].reshape(group, hi - lo, nk))
             for i, lo, hi in tiles]

    def sweep(hs, ok=None):
        # the tiles of head group hs: score matmul, exp in place, value
        # matmul. With ok, only the tiles holding a row that failed the range
        # check, redone with the row max subtracted
        run = None
        for i, lo, hi, qc, zc, wc in views:
            if ok is not None and ok[:, lo:hi].all():
                continue
            if bias is not None and i != run:
                k1[:, d_h], run = bias[i], i
            wc = w[hs, lo:hi] if keep else wc
            np.matmul(qc, k1, out=wc)
            if ok is not None:
                wc -= wc.max(axis=-1, keepdims=True)
            np.exp(wc, out=wc)
            np.matmul(wc, v1, out=zc)

    # the unshifted softmax loses nothing to the shifted one unless a row sum
    # or the value product leaves float range. A tile holding such a row (an
    # infinite sum fails the ceiling test, a NaN both tests) is redone with
    # the row max, so overflow and invalid values in the first pass are
    # expected and not reported
    vmax = max(v.data.max(), -v.data.min())
    with np.errstate(over="ignore"):
        for h in range(0, heads, group):
            hs = slice(h, h + group)
            q1[..., :d_h], v1[..., :d_h], k1[:, :d_h] = qh[hs], vh[hs], kt[hs]
            with np.errstate(invalid="ignore"):
                sweep(hs)
                ok = (total >= 1e-200) & (total * vmax <= 1e200)
            if not ok.all():
                sweep(hs, ok)
            np.divide(z1[..., :d_h], total, out=z[hs])
            if keep:
                w[hs] /= total
    if weights_out is not None:
        weights_out.extend(w)

    shared = {}  # formed once per backward, read by every adjoint that needs it

    def live(g):
        # live rows: a query row after the last one with a nonzero adjoint
        # adds exactly zero to every gradient, so only the first r count
        if not shared:
            rows = np.flatnonzero(g.any(axis=1))
            r = int(rows[-1]) + 1 if rows.size else 0
            shared.update(r=r, g=_split_heads(g[:r], heads), w=w[:, :r])
        return shared

    def softmax_back(g):
        # w * (dw - sum(w * dw)), formed in dw's buffer; the row term
        # sum_j w_ij (g_i . v_j) is g_i . z_i
        cut = live(g)
        if "s" not in cut:
            s = np.matmul(cut["g"], vh.transpose(0, 2, 1))
            s -= (cut["g"] * z[:, :cut["r"]]).sum(axis=-1, keepdims=True)
            s *= cut["w"]
            cut["s"] = s
        return cut["r"], cut["s"]

    def dq(g):
        r, s = softmax_back(g)
        full = np.zeros((n, dim))
        full[:r] = _merge_heads(np.matmul(s, kh))
        return full

    def dk(g):
        r, s = softmax_back(g)
        return _merge_heads(np.matmul(qh[:, :r].transpose(0, 2, 1), s).transpose(0, 2, 1))

    def dv(g):
        cut = live(g)
        return _merge_heads(np.matmul(cut["w"].transpose(0, 2, 1), cut["g"]))

    return node(out, (q, k, v), dq, dk, dv)


def _rows(g):
    return g.reshape(1, -1) if g.ndim == 1 else g


def linear(x, w, b=None):
    """x @ w (+ b) as one node. Accepts a 1-D or 2-D x; w is (in, out).

    The forward does what a matmul node and an add node did, in the same
    order (a 1-D x is multiplied as one row), and x, w and b get one
    adjoint each; b's sums the rows, as ``_unbroadcast`` does. The bias is
    added in place into the fresh product, so no second (rows, out) array
    is made; b must therefore broadcast to the product's shape.
    """
    x, w = as_tensor(x), as_tensor(w)
    if x.data.ndim not in (1, 2) or w.data.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise DimensionError(f"linear shapes incompatible: {x.shape} x {w.shape}")
    x2 = x.data.reshape(1, -1) if x.data.ndim == 1 else x.data
    y = x2 @ w.data
    if x.data.ndim == 1:
        y = y.reshape(w.shape[1])

    def dx(g):
        return (_rows(g) @ w.data.T).reshape(x.shape)

    def dw(g):
        return x2.T @ _rows(g)

    if b is None:
        return node(y, (x, w), dx, dw)
    b = as_tensor(b)
    if _broadcast_shape(y.shape, b.shape) != y.shape:
        raise DimensionError(f"linear bias {b.shape} does not fit the product {y.shape}")
    y += b.data
    return node(y, (x, w, b), dx, dw, lambda g: _unbroadcast(g, b.shape))


def rearrange(a, split, axes, shape):
    """``a.reshape(split).transpose(axes).reshape(shape)`` as one node."""
    a = as_tensor(a)
    moved = tuple(split[i] for i in axes)
    return node(a.data.reshape(split).transpose(axes).reshape(shape), (a,),
                lambda g: g.reshape(moved).transpose(np.argsort(axes)).reshape(a.shape))


# ---------------------------------------------------------------------------
# backward pass


def _consumed(t):
    raise ContractError("graph already consumed by backward; run the forward pass again")


def backward(loss):
    """Accumulate ``grad`` on every leaf reachable from loss; frees the graph as it goes."""
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            topo.append(t)
            continue
        if id(t) in seen or not t.requires_grad:
            continue
        if t._adjoints is _consumed:
            _consumed(t)
        seen.add(id(t))
        stack.append((t, True))
        for p in t._parents:
            stack.append((p, False))

    loss._accumulate(np.ones_like(loss.data))
    while topo:  # reverse topological order; popping drops the walk's reference
        t = topo.pop()
        if t._adjoints is not None:
            g = t.grad
            for p, adjoint in zip(t._parents, t._adjoints):
                if p.requires_grad:
                    p._accumulate(adjoint(g))
            t.grad = None
            t._adjoints = _consumed
            t._parents = ()


def zero_grads(tensors):
    for t in tensors:
        t.grad = None
