"""Tensor engine: forward semantics, error contracts, and gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_gradients
from phasesynth import autodiff as ad
from phasesynth.errors import ContractError, DimensionError, DomainError

rng = np.random.default_rng(0)


# ---------------------------------------------------------------------------
# forward semantics


def test_matmul_identity():
    a = rng.uniform(-1, 1, (3, 3))
    out = ad.matmul(ad.Tensor(np.eye(3)), ad.Tensor(a))
    np.testing.assert_array_equal(out.data, a)


def test_matmul_hand_oracle():
    out = ad.matmul(ad.Tensor([[1.0, 2.0], [3.0, 4.0]]), ad.Tensor([[0.0], [1.0]]))
    np.testing.assert_array_equal(out.data, [[2.0], [4.0]])


def test_matmul_zeros():
    out = ad.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(rng.uniform(-1, 1, (3, 4))))
    np.testing.assert_array_equal(out.data, np.zeros((2, 4)))


def test_matmul_shape_mismatch_names_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
        ad.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 3))))


def test_softmax_uniform():
    out = ad.softmax_last_axis(ad.Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3] * 3, rtol=0, atol=1e-15)


def test_softmax_single_element():
    assert ad.softmax_last_axis(ad.Tensor([123.4])).data[0] == 1.0


def test_softmax_closed_form():
    out = ad.softmax_last_axis(ad.Tensor([0.0, np.log(3.0)]))
    np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-14)


def test_softmax_leaves_input_unmodified_and_matches_formula():
    x = np.random.default_rng(4).normal(scale=5.0, size=(7, 11))
    before = x.copy()
    out = ad.softmax_last_axis(ad.Tensor(x)).data
    np.testing.assert_array_equal(x, before)
    e = np.exp(before - before.max(axis=-1, keepdims=True))
    np.testing.assert_array_equal(out, e / e.sum(axis=-1, keepdims=True))


def test_softmax_empty_rejected():
    with pytest.raises(DimensionError):
        ad.softmax_last_axis(ad.Tensor(np.zeros((2, 0))))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
def test_softmax_rows_sum_to_one(values):
    out = ad.softmax_last_axis(ad.Tensor(values))
    assert abs(out.data.sum() - 1.0) < 1e-12
    assert (out.data >= 0).all()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-20, 20), min_size=2, max_size=6), st.randoms())
def test_softmax_permutation_equivariant(values, rand):
    perm = list(range(len(values)))
    rand.shuffle(perm)
    direct = ad.softmax_last_axis(ad.Tensor(np.array(values)[perm])).data
    permuted = ad.softmax_last_axis(ad.Tensor(values)).data[perm]
    np.testing.assert_allclose(direct, permuted, atol=1e-12)


def test_elementwise_trivia():
    assert ad.exp(ad.Tensor(0.0)).item() == 1.0
    assert ad.sigmoid(ad.Tensor(0.0)).item() == 0.5
    assert ad.relu(ad.Tensor(-2.5)).item() == 0.0
    assert ad.relu(ad.Tensor(2.5)).item() == 2.5


def test_log_domain_error():
    with pytest.raises(DomainError):
        ad.log(ad.Tensor([1.0, 0.0]))


def test_suffix_broadcast_allowed():
    out = ad.add(ad.Tensor(np.ones((2, 3))), ad.Tensor([1.0, 2.0, 3.0]))
    np.testing.assert_array_equal(out.data, [[2, 3, 4], [2, 3, 4]])


def test_leading_broadcast_rejected():
    with pytest.raises(DimensionError):
        ad.add(ad.Tensor(np.ones((3, 2))), ad.Tensor(np.ones(3)))


def test_concat_shapes():
    out = ad.concat([ad.Tensor(np.zeros(4)), ad.Tensor(np.zeros(3))], axis=0)
    assert out.shape == (7,)


def test_concat_empty_list_rejected():
    with pytest.raises(DimensionError):
        ad.concat([], axis=0)


def test_embedding_lookup_row():
    table = rng.uniform(-1, 1, (3, 8))
    out = ad.embedding_lookup(ad.Tensor(table), 2)
    np.testing.assert_array_equal(out.data, table[2])


def test_embedding_out_of_range():
    with pytest.raises(IndexError):
        ad.embedding_lookup(ad.Tensor(np.zeros((3, 8))), 3)


def test_slice_out_of_range():
    with pytest.raises(IndexError):
        ad.slice_axis(ad.Tensor(np.zeros((3, 2))), 0, 1, 5)


def test_reduce_mean_oracle():
    assert ad.reduce_mean(ad.Tensor([1.0, 2.0, 3.0, 4.0])).item() == 2.5


def test_forward_determinism():
    a = rng.uniform(-1, 1, (4, 4))
    one = ad.softmax_last_axis(ad.matmul(ad.Tensor(a), ad.Tensor(a))).data
    two = ad.softmax_last_axis(ad.matmul(ad.Tensor(a), ad.Tensor(a))).data
    assert (one == two).all()


# ---------------------------------------------------------------------------
# backward semantics


def test_backward_sum_gives_ones():
    x = ad.Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
    ad.backward(ad.reduce_sum(x))
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_square_oracle():
    x = ad.Tensor([1.0, -2.0], requires_grad=True)
    ad.backward(ad.reduce_sum(ad.mul(x, x)))
    np.testing.assert_allclose(x.grad, [2.0, -4.0])


def test_backward_unreachable_tensor_untouched():
    x = ad.Tensor([1.0], requires_grad=True)
    y = ad.Tensor([1.0], requires_grad=True)
    ad.backward(ad.reduce_sum(ad.mul(x, x)))
    assert y.grad is None  # no contribution means an all-zero adjoint


def test_backward_requires_scalar():
    x = ad.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ContractError):
        ad.backward(ad.mul(x, x))


def test_backward_accumulates_across_calls():
    x = ad.Tensor([3.0], requires_grad=True)
    loss = ad.reduce_sum(ad.mul(x, x))
    ad.backward(loss)
    first = x.grad.copy()
    loss2 = ad.reduce_sum(ad.mul(x, x))
    ad.backward(loss2)
    np.testing.assert_allclose(x.grad, 2 * first)
    ad.zero_grads([x])
    assert x.grad is None


def test_backward_shared_subexpression_counted_once_per_use():
    x = ad.Tensor([2.0], requires_grad=True)
    y = ad.mul(x, x)  # used twice below
    ad.backward(ad.reduce_sum(ad.add(y, y)))
    np.testing.assert_allclose(x.grad, [8.0])  # d/dx 2x^2 = 4x


def test_backward_frees_operation_nodes_and_keeps_leaf_grads():
    x = ad.Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
    w = ad.Tensor(rng.uniform(-1, 1, (3, 2)), requires_grad=True)
    hidden = ad.sigmoid(ad.matmul(x, w))
    loss = ad.reduce_sum(ad.mul(hidden, hidden))
    ad.backward(loss)
    for node in (hidden, loss):
        assert node.grad is None and node._parents == ()
    assert x.grad.shape == (2, 3) and w.grad.shape == (3, 2)
    assert hidden.data.shape == (2, 2)  # values stay readable


def test_second_backward_on_consumed_graph_raises():
    x = ad.Tensor([3.0], requires_grad=True)
    loss = ad.reduce_sum(ad.mul(x, x))
    ad.backward(loss)
    first = x.grad.copy()
    with pytest.raises(ContractError):
        ad.backward(loss)
    # a new loss over a consumed intermediate is refused too, before any push
    y = ad.exp(x)
    ad.backward(ad.reduce_sum(y))
    with pytest.raises(ContractError):
        ad.backward(ad.reduce_sum(ad.add(y, x)))
    np.testing.assert_array_equal(x.grad, first + np.exp(3.0))


def test_add_of_one_tensor_twice_doubles_the_adjoint():
    x = ad.Tensor(rng.uniform(-1, 1, (3, 2)), requires_grad=True)
    probe = rng.uniform(-1, 1, (3, 2))
    ad.backward(ad.reduce_sum(ad.mul(ad.add(x, x), ad.Tensor(probe))))
    np.testing.assert_array_equal(x.grad, probe + probe)


def test_overlapping_slices_of_one_tensor_sum_their_adjoints():
    x = ad.Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
    head = ad.slice_axis(x, 0, 0, 3)
    tail = ad.slice_axis(x, 0, 1, 4)
    ad.backward(ad.add(ad.reduce_sum(head), ad.scale(ad.reduce_sum(tail), 2.0)))
    np.testing.assert_array_equal(x.grad, [[1.0] * 3, [3.0] * 3, [3.0] * 3, [2.0] * 3])


def test_concat_of_one_tensor_twice_sums_both_pieces():
    x = ad.Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
    probe = rng.uniform(-1, 1, (2, 6))
    ad.backward(ad.reduce_sum(ad.mul(ad.concat([x, x], axis=1), ad.Tensor(probe))))
    np.testing.assert_array_equal(x.grad, probe[:, :3] + probe[:, 3:])


@pytest.mark.parametrize("x_first", [True, False])
@pytest.mark.parametrize("other_use", ["mul", "slice"])
def test_adjoint_shared_by_two_parents_is_never_updated_in_place(x_first, other_use):
    # add() hands one adjoint array to both parents; a later adjoint of x
    # must not write into it, or w's gradient changes too
    x = ad.Tensor(rng.uniform(-1, 1, (3, 2)), requires_grad=True)
    w = ad.Tensor(rng.uniform(-1, 1, (3, 2)), requires_grad=True)
    probe = rng.uniform(-1, 1, (3, 2))
    shared = ad.reduce_sum(ad.mul(ad.add(x, w), ad.Tensor(probe)))
    if other_use == "mul":
        other, extra = ad.reduce_sum(ad.scale(x, 3.0)), np.full((3, 2), 3.0)
    else:
        other, extra = ad.reduce_sum(ad.slice_axis(x, 0, 1, 3)), np.ones((3, 2))
        extra[0] = 0.0
    ad.backward(ad.add(shared, other) if x_first else ad.add(other, shared))
    np.testing.assert_array_equal(w.grad, probe)
    np.testing.assert_array_equal(x.grad, probe + extra)


def test_softmax_bias_equals_adding_the_bias_first():
    logits = rng.uniform(-3, 3, (5, 7))
    bias = np.log(rng.uniform(0.05, 1.0, (5, 7)))
    probe = ad.Tensor(rng.uniform(-1, 1, (5, 7)))
    fused_in = ad.Tensor(logits, requires_grad=True)
    fused = ad.softmax_last_axis(fused_in, bias=bias)
    added_in = ad.Tensor(logits, requires_grad=True)
    added = ad.softmax_last_axis(ad.add(added_in, ad.Tensor(bias)))
    np.testing.assert_array_equal(fused.data, added.data)
    ad.backward(ad.reduce_sum(ad.mul(fused, probe)))
    ad.backward(ad.reduce_sum(ad.mul(added, probe)))
    np.testing.assert_array_equal(fused_in.grad, added_in.grad)


def test_softmax_bias_must_fit_the_logits():
    with pytest.raises(DimensionError):
        ad.softmax_last_axis(ad.Tensor(np.zeros((2, 3))), bias=np.zeros((4, 2, 3)))


def per_head_attention(q, k, v, bias, heads, runs=None):
    """The loop dtam_attention replaces: for each run of query rows (default:
    one run of all rows) and each head, slices, matmuls, softmax, concat.
    ``bias`` is per query row, (n, nk), or None."""
    d = q.shape[1] // heads
    blocks, lo = [], 0
    for rows in runs or (q.shape[0],):
        outs = []
        for h in range(heads):
            cols = h * d, (h + 1) * d
            scores = ad.matmul(ad.slice_axis(ad.slice_axis(q, 0, lo, lo + rows), 1, *cols),
                               ad.transpose(ad.slice_axis(k, 1, *cols)))
            run_bias = None if bias is None else bias[lo:lo + rows]
            outs.append(ad.matmul(ad.softmax_last_axis(scores, bias=run_bias),
                                  ad.slice_axis(v, 1, *cols)))
        blocks.append(ad.concat(outs, axis=1))
        lo += rows
    return ad.concat(blocks, axis=0)


def longdouble_attention(q, k, v, bias, heads):
    """An independent oracle: per-head softmax(q_h k_h^T + bias) v_h and the
    weights, in np.longdouble. ``bias`` is per query row, (n, nk), or None."""
    q, k, v = (np.asarray(a, dtype=np.longdouble) for a in (q, k, v))
    d = q.shape[1] // heads
    out, weights = np.empty_like(q), []
    for h in range(heads):
        cols = slice(h * d, (h + 1) * d)
        scores = q[:, cols] @ k[:, cols].T
        if bias is not None:
            scores = scores + bias
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        weights.append(e / e.sum(axis=1, keepdims=True))
        out[:, cols] = weights[-1] @ v[:, cols]
    return out, weights


def assert_near_oracle(got, oracle, rtol=1e-13):
    assert np.isfinite(got).all()
    assert np.abs(got - oracle).max() <= rtol * np.abs(oracle).max()


@pytest.mark.parametrize("with_bias", [True, False])
@pytest.mark.parametrize("n, nk, heads", [(6, 6, 4), (5, 9, 2), (7, 3, 1)])
def test_dtam_attention_equals_per_head_composition(n, nk, heads, with_bias):
    """The op adds the bias inside the score matmul and normalises after the
    value product, so its float operations differ from the composition's.
    The output is held to a longdouble oracle, and the gradients to the
    float64 composition within rounding, for runs of several rows (as the
    model's phase blocks are) and for runs of one row (a per-token bias)."""
    dim = 4 * heads
    arrays = {"q": rng.uniform(-2, 2, (n, dim)), "k": rng.uniform(-2, 2, (nk, dim)),
              "v": rng.uniform(-1, 1, (nk, dim))}
    runs = [n // 2, n - n // 2]
    bias = np.log(rng.uniform(0.05, 1.0, (2, nk))) if with_bias else None
    token_bias = None if bias is None else bias.repeat(runs, axis=0)
    (out, *grads), (_, *composed) = run_both(
        lambda t: ad.dtam_attention(t["q"], t["k"], t["v"], bias, heads, runs),
        lambda t: per_head_attention(t["q"], t["k"], t["v"], token_bias, heads), arrays)
    oracle, _ = longdouble_attention(arrays["q"], arrays["k"], arrays["v"], token_bias, heads)
    np.testing.assert_allclose(out, oracle, rtol=1e-13, atol=1e-15)
    for fused, ref in zip(grads, composed):
        np.testing.assert_allclose(fused, ref, rtol=1e-13, atol=1e-15)

    token_bias = np.log(rng.uniform(0.05, 1.0, (n, nk))) if with_bias else None
    (out, *grads), (_, *composed) = run_both(
        lambda t: ad.dtam_attention(t["q"], t["k"], t["v"], token_bias, heads),
        lambda t: per_head_attention(t["q"], t["k"], t["v"], token_bias, heads, [1] * n),
        arrays)
    oracle, _ = longdouble_attention(arrays["q"], arrays["k"], arrays["v"], token_bias, heads)
    np.testing.assert_allclose(out, oracle, rtol=1e-13, atol=1e-15)
    for fused, ref in zip(grads, composed):
        np.testing.assert_allclose(fused, ref, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("with_bias", [True, False])
def test_dtam_attention_output_is_the_same_with_and_without_a_tape(with_bias):
    # kept weights are divided by the row sums after the value product is
    # formed from the unnormalised ones, so keeping them changes no output bit
    n, nk, heads = 9, 9, 2
    q, k, v = rng.uniform(-2, 2, (n, 8)), rng.uniform(-2, 2, (nk, 8)), rng.uniform(-1, 1, (nk, 8))
    runs = [3, 3, 3]
    bias = np.log(rng.uniform(0.05, 1.0, (3, nk))) if with_bias else None
    free = ad.dtam_attention(q, k, v, bias, heads, runs)
    taped_weights, free_weights = [], []
    taped = ad.dtam_attention(ad.Tensor(q, requires_grad=True), k, v, bias, heads, runs,
                              weights_out=taped_weights)
    recorded = ad.dtam_attention(q, k, v, bias, heads, runs, weights_out=free_weights)
    assert taped.requires_grad and not free.requires_grad
    np.testing.assert_array_equal(taped.data, free.data)
    np.testing.assert_array_equal(recorded.data, free.data)
    _, oracle = longdouble_attention(q, k, v, None if bias is None else bias.repeat(runs, axis=0),
                                     heads)
    assert len(taped_weights) == len(free_weights) == heads
    for kept, also_kept, ref in zip(taped_weights, free_weights, oracle):
        np.testing.assert_array_equal(kept, also_kept)
        np.testing.assert_allclose(kept.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert_near_oracle(kept, ref)


@pytest.mark.parametrize("with_bias", [True, False])
def test_dtam_attention_at_extreme_scores_matches_the_longdouble_oracle(with_bias):
    # scores near +-600 and ln G down to -1e3: exp underflows below about
    # -745, so the shift must be taken after the bias is added
    r = np.random.default_rng(11)
    n, nk, heads, d = 6, 7, 2, 4
    q, k, v = r.uniform(-1, 1, (n, heads * d)), r.uniform(-1, 1, (nk, heads * d)), \
        r.uniform(-1, 1, (nk, heads * d))
    for h in range(heads):  # each query row's largest |score| becomes 600
        cols = slice(h * d, (h + 1) * d)
        q[:, cols] *= 600.0 / np.abs(q[:, cols] @ k[:, cols].T).max(axis=1, keepdims=True)
    runs = [3, 3]
    bias = -r.uniform(0.0, 1e3, (2, nk))
    scores = q[0, :d] @ k[:, :d].T
    top = scores.argmax()
    bias[0, top] = -1e3  # row 0's largest score sits behind the most negative bias
    assert scores.max() > 500 and (scores + bias[0]).argmax() != top
    bias = bias if with_bias else None
    out = ad.dtam_attention(q, k, v, bias, heads, runs).data
    oracle, _ = longdouble_attention(q, k, v, None if bias is None else bias.repeat(runs, axis=0),
                                     heads)
    assert_near_oracle(out, oracle)


@pytest.mark.parametrize("with_bias", [True, False])
@pytest.mark.parametrize("budget, tile_rows, group", [
    (8 * 9 * 2, [1, 2, 2, 2, 1, 2, 2], 1),  # at most 2 rows a tile, one head a group
    (8 * 9 * 4, [3, 4, 2, 3], 1),  # at most 4 rows a tile
    (8 * 9 * 14, [7, 5], 2),  # a run a tile, two heads a group
])
def test_dtam_attention_in_small_tiles_matches_the_longdouble_oracle(
        monkeypatch, budget, tile_rows, group, with_bias):
    # a smaller score budget splits the runs [7, 5] into equal row tiles and
    # the 4 heads into equal groups; the tiles are what np.exp sees
    n, nk, heads = 12, 9, 4
    q, k, v = rng.uniform(-2, 2, (n, 8)), rng.uniform(-2, 2, (nk, 8)), rng.uniform(-1, 1, (nk, 8))
    runs = [7, 5]
    bias = np.log(rng.uniform(0.05, 1.0, (2, nk))) if with_bias else None
    exp, tiles = np.exp, []

    def spy(x, *args, **kwargs):
        tiles.append(x.shape)
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(ad, "SCORE_CHUNK_BYTES", budget)
    with monkeypatch.context() as patch:
        patch.setattr(np, "exp", spy)
        free = ad.dtam_attention(q, k, v, bias, heads, runs).data
    assert tiles == [(group, rows, nk) for rows in tile_rows] * (heads // group)
    kept = []
    taped = ad.dtam_attention(ad.Tensor(q, requires_grad=True), k, v, bias, heads, runs,
                              weights_out=kept)
    np.testing.assert_array_equal(taped.data, free)
    oracle, weights = longdouble_attention(
        q, k, v, None if bias is None else bias.repeat(runs, axis=0), heads)
    assert_near_oracle(free, oracle)
    for w, ref in zip(kept, weights):
        np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert_near_oracle(w, ref)


@pytest.mark.parametrize("trigger", ["overflow", "underflow", "ceiling"])
def test_dtam_attention_falls_back_to_the_shifted_softmax(trigger):
    # each case breaks the unshifted exp(q k^T + ln G) of one tile: a row sum
    # overflows (a score near 800), underflows (every ln G of a run at most
    # -1e3) or times max|v| passes 1e200 (scores near 700, |v| up to 1e10)
    r = np.random.default_rng(13)
    n, nk, heads, d = 6, 7, 2, 4
    q, k, v = r.uniform(-1, 1, (n, heads * d)), r.uniform(-1, 1, (nk, heads * d)), \
        r.uniform(-1, 1, (nk, heads * d))
    runs = [3, 3]
    bias = np.log(r.uniform(0.05, 1.0, (2, nk)))
    if trigger == "underflow":
        bias[0] = -r.uniform(1e3, 1.2e3, nk)
    else:
        top = 800.0 if trigger == "overflow" else 700.0
        q[1, :d] *= top / (q[1, :d] @ k[:, :d].T).max()
        if trigger == "ceiling":
            v[:, :d] *= 1e10
    out = ad.dtam_attention(q, k, v, bias, heads, runs).data
    oracle, _ = longdouble_attention(q, k, v, bias.repeat(runs, axis=0), heads)
    assert_near_oracle(out, oracle)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("damage", ["nan_q_row", "nan_v", "inf_k_row", "ninf_bias"])
def test_dtam_attention_with_non_finite_inputs_matches_the_longdouble_oracle(damage):
    # the row sums come from the value matmul and are range-checked once per
    # head group: a non-finite input must still give the oracle's NaN and
    # infinite entries, and leave every other entry within rounding
    r = np.random.default_rng(17)
    n, nk, heads = 6, 7, 2
    q, k, v = r.uniform(-1, 1, (n, 8)), r.uniform(-1, 1, (nk, 8)), r.uniform(-1, 1, (nk, 8))
    runs = [3, 3]
    bias = np.log(r.uniform(0.05, 1.0, (2, nk)))
    if damage == "nan_q_row":
        q[4] = np.nan
    elif damage == "nan_v":
        v[2, 5] = np.nan
    elif damage == "inf_k_row":
        k[3] = np.inf
    else:
        bias[1, 2] = -np.inf
    out = ad.dtam_attention(q, k, v, bias, heads, runs).data
    oracle, _ = longdouble_attention(q, k, v, bias.repeat(runs, axis=0), heads)
    np.testing.assert_array_equal(np.isnan(out), np.isnan(oracle))
    np.testing.assert_array_equal(np.isinf(out), np.isinf(oracle))
    finite = np.isfinite(oracle)
    assert finite.any() and (damage == "ninf_bias" or not finite.all())
    assert np.abs(out[finite] - oracle[finite]).max() <= 1e-13 * np.abs(oracle[finite]).max()


@pytest.mark.parametrize("trigger", ["overflow", "underflow", "ceiling"])
def test_dtam_attention_redoes_only_the_tile_with_a_failing_row(monkeypatch, trigger):
    # a 288-byte budget splits runs [7, 5] into tiles of 3, 4, 2 and 3 rows,
    # one head a group; row 4, in the second tile of the first run, breaks
    # the unshifted softmax of head 0 only, so that one tile is redone
    r = np.random.default_rng(19)
    n, nk, heads, d = 12, 9, 4, 2
    q, k, v = r.uniform(-1, 1, (n, 8)), r.uniform(-1, 1, (nk, 8)), r.uniform(-1, 1, (nk, 8))
    runs = [7, 5]
    bias = np.log(r.uniform(0.05, 1.0, (2, nk)))
    if trigger == "underflow":  # every score of the row at most -600
        k[:, :d] = r.uniform(0.5, 1.0, (nk, d))
        q[4, :d] = -600.0
    else:
        q[4, :d] *= (800.0 if trigger == "overflow" else 700.0) / (q[4, :d] @ k[:, :d].T).max()
        if trigger == "ceiling":
            v[:, :d] *= 1e10
    exp, tiles = np.exp, []

    def spy(x, *args, **kwargs):
        tiles.append(x.shape)
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(ad, "SCORE_CHUNK_BYTES", 8 * 9 * 4)
    with monkeypatch.context() as patch:
        patch.setattr(np, "exp", spy)
        out = ad.dtam_attention(q, k, v, bias, heads, runs).data
    first_pass = [(1, rows, nk) for rows in (3, 4, 2, 3)]
    assert tiles == first_pass + [(1, 4, nk)] + first_pass * (heads - 1)
    oracle, _ = longdouble_attention(q, k, v, bias.repeat(runs, axis=0), heads)
    assert_near_oracle(out, oracle)


@pytest.mark.parametrize("shapes, heads, bias_shape", [
    (((4, 8), (5, 8), (5, 8, 1)), 2, None),  # v not 2-D
    (((4, 8), (5, 6), (5, 8)), 2, None),  # key width differs
    (((4, 8), (5, 8), (5, 6)), 2, None),  # value width differs
    (((4, 6), (5, 6), (5, 6)), 4, None),  # width not divisible by heads
    (((4, 8), (5, 8), (3, 8)), 2, None),  # keys and values differ in rows
    (((4, 8), (0, 8), (0, 8)), 2, None),  # no keys
    (((4, 8), (5, 8), (5, 8)), 2, (5, 4)),  # bias transposed
    (((4, 8), (5, 8), (5, 8)), 2, (5,)),  # bias not (n, nk)
    # a fourth entry gives the query runs
    (((4, 8), (5, 8), (5, 8), (1, 2)), 2, None),  # runs do not sum to n
    (((4, 8), (5, 8), (5, 8), (2, 2, 0)), 2, None),  # an empty run
    (((4, 8), (5, 8), (5, 8), (2, 2)), 2, (4, 5)),  # a bias row per query, not per run
])
def test_dtam_attention_rejects_bad_shapes(shapes, heads, bias_shape):
    q, k, v = (ad.Tensor(np.zeros(s)) for s in shapes[:3])
    runs = shapes[3] if len(shapes) == 4 else None
    bias = None if bias_shape is None else np.zeros(bias_shape)
    with pytest.raises(DimensionError):
        ad.dtam_attention(q, k, v, bias, heads, runs)


def test_detached_dtam_attention_holds_one_score_matrix_at_a_time():
    # the 128 px model's delay phase: three blocks of 257 tokens; beyond the
    # output, only tiles of SCORE_CHUNK_BYTES scores and their scratch
    import tracemalloc
    n, dim, heads = 771, 64, 4
    q, k, v = (ad.Tensor(rng.uniform(-1, 1, (n, dim))) for _ in range(3))
    runs = [257, 257, 257]
    bias = np.log(rng.uniform(0.05, 1.0, (3, n)))
    tracemalloc.start()
    try:
        out = ad.dtam_attention(q, k, v, bias, heads, runs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (n, dim)
    assert peak < n * dim * 8 + 4 * ad.SCORE_CHUNK_BYTES, f"peak {peak / 2**20:.2f} MiB"


# ---------------------------------------------------------------------------
# finite-difference spot checks (the exhaustive suite lives in acceptance)


def test_gradients_elementwise_chain():
    arrays = {"x": rng.uniform(-1, 1, (3, 4)), "y": rng.uniform(0.1, 1, (3, 4))}
    check_gradients(
        lambda t: ad.reduce_sum(ad.mul(ad.sigmoid(t["x"]), ad.log(t["y"]))),
        arrays)


def test_gradients_matmul_softmax():
    arrays = {"a": rng.uniform(-1, 1, (3, 3)), "b": rng.uniform(-1, 1, (3, 2))}
    probe = rng.uniform(-1, 1, (3, 2))
    check_gradients(
        lambda t: ad.reduce_sum(
            ad.mul(ad.softmax_last_axis(ad.matmul(t["a"], t["b"])), ad.Tensor(probe))),
        arrays)


def test_gradients_slice_concat_reshape():
    arrays = {"x": rng.uniform(-1, 1, (4, 4))}

    def build(t):
        a = ad.slice_axis(t["x"], 0, 0, 2)
        b = ad.slice_axis(t["x"], 0, 2, 4)
        joined = ad.transpose(ad.concat([a, b], axis=0))
        return ad.reduce_mean(ad.mul(joined, joined))

    check_gradients(build, arrays)


# ---------------------------------------------------------------------------
# fused nodes against the compositions they replace


def linear_composition(x, w, b=None):
    """The matmul (+ reshapes) and add nodes one ``linear`` node replaces."""
    if x.data.ndim == 1:
        y = ad.reshape(ad.matmul(ad.reshape(x, (1, -1)), w), (w.shape[1],))
    else:
        y = ad.matmul(x, w)
    return ad.add(y, b) if b is not None else y


def run_both(fused, composed, arrays):
    """Forward values and leaf gradients of both builders under one probe."""
    results = []
    probe = None
    for op in (fused, composed):
        leaves = {name: ad.Tensor(a, requires_grad=True) for name, a in arrays.items()}
        out = op(leaves)
        if probe is None:
            probe = ad.Tensor(rng.uniform(-1, 1, out.shape))
        ad.backward(ad.reduce_sum(ad.mul(out, probe)))
        results.append([out.data] + [leaves[name].grad for name in sorted(arrays)])
    return results


@pytest.mark.parametrize("x_shape", [(5,), (3, 5)])
@pytest.mark.parametrize("with_bias", [True, False])
def test_linear_is_one_node_equal_to_the_composition(x_shape, with_bias):
    arrays = {"x": rng.uniform(-1, 1, x_shape), "w": rng.uniform(-1, 1, (5, 4))}
    if with_bias:
        arrays["b"] = rng.uniform(-1, 1, 4)

    def build(op):
        return lambda t: op(t["x"], t["w"], t.get("b"))

    fused, composed = run_both(build(ad.linear), build(linear_composition), arrays)
    for a, b in zip(fused, composed):
        np.testing.assert_array_equal(a, b)
    leaves = [ad.Tensor(a, requires_grad=True) for a in arrays.values()]
    assert ad.linear(*leaves)._parents == tuple(leaves)


@pytest.mark.parametrize("x_shape", [(5,), (3, 5)])
def test_linear_adds_the_bias_in_place_without_touching_its_inputs(x_shape):
    # x @ w + b bit for bit (a 1-D x multiplied as one row); the bias goes
    # into the fresh product, never into x, w or b, also when two calls share b
    x, w, b = rng.uniform(-1, 1, x_shape), rng.uniform(-1, 1, (5, 4)), rng.uniform(-1, 1, 4)
    kept = [a.copy() for a in (x, w, b)]
    bias = ad.Tensor(b, requires_grad=True)
    for rows in (x, 2.0 * x):
        y = ad.linear(ad.Tensor(rows), ad.Tensor(w), bias).data
        np.testing.assert_array_equal(y, (np.atleast_2d(rows) @ w).reshape(y.shape) + b)
        assert not np.shares_memory(y, b)
    for a, orig in zip((x, w, b, bias.data), kept + [kept[2]]):
        np.testing.assert_array_equal(a, orig)


def test_linear_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        ad.linear(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((4, 2))))
    with pytest.raises(DimensionError):
        ad.linear(ad.Tensor(np.zeros((2, 2, 3))), ad.Tensor(np.zeros((3, 2))))
    with pytest.raises(DimensionError):
        ad.linear(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((3, 2))),
                  ad.Tensor(np.zeros(3)))
    with pytest.raises(DimensionError):  # a bias wider than the product
        ad.linear(ad.Tensor(np.zeros(3)), ad.Tensor(np.zeros((3, 2))),
                  ad.Tensor(np.zeros((4, 2))))


def test_rearrange_is_one_node_equal_to_reshape_transpose_reshape():
    split, axes, shape = (2, 3, 4, 5), (0, 2, 1, 3), (8, 15)

    def composed(t):
        return ad.reshape(ad.transpose(ad.reshape(t["x"], split), axes), shape)

    arrays = {"x": rng.uniform(-1, 1, (6, 20))}
    fused, composed = run_both(lambda t: ad.rearrange(t["x"], split, axes, shape),
                               composed, arrays)
    for a, b in zip(fused, composed):
        np.testing.assert_array_equal(a, b)


def syn_loss_composition(preds, gts):
    """The sub, abs, mean and add nodes of ``syn_loss`` before it was fused."""
    total = ad.Tensor(0.0)
    for pred, gt in zip(preds, gts):
        total = ad.add(total, ad.reduce_mean(ad.abs_val(ad.sub(pred, ad.Tensor(gt)))))
    return total


def seg_loss_composition(logits_per_phase, gt, weights, eps=1e-6, clamp=1e-7):
    """Sigmoid, soft Dice and BCE node by node, as ``seg_loss`` was before it was fused."""
    total = ad.Tensor(0.0)
    for logits in logits_per_phase:
        probs = ad.sigmoid(logits)
        inter = ad.reduce_sum(ad.mul(probs, ad.Tensor(gt)))
        denom = ad.add(ad.reduce_sum(probs), ad.Tensor(float(gt.sum())))
        overlap = ad.div(ad.add(ad.scale(inter, 2.0), ad.Tensor(eps)),
                         ad.add(denom, ad.Tensor(eps)))
        dice = ad.sub(ad.Tensor(1.0), overlap)
        p = ad.clip_min(probs, clamp)
        q = ad.clip_min(ad.sub(ad.Tensor(np.ones_like(gt)), probs), clamp)
        pos = ad.mul(ad.Tensor(gt), ad.log(p))
        neg = ad.mul(ad.Tensor(1.0 - gt), ad.log(q))
        bce = ad.scale(ad.reduce_mean(ad.add(pos, neg)), -1.0)
        total = ad.add(total, ad.add(ad.scale(dice, weights.dice), ad.scale(bce, weights.ce)))
    return ad.scale(total, 1.0 / len(logits_per_phase))


def test_syn_loss_is_one_node_equal_to_the_composition():
    from phasesynth.losses import syn_loss
    arrays = {name: rng.uniform(0, 1, (6, 6)) for name in ("a", "b", "c")}
    gts = [rng.uniform(0, 1, (6, 6)) for _ in range(3)]
    fused, composed = run_both(lambda t: syn_loss([t["a"], t["b"], t["c"]], gts),
                               lambda t: syn_loss_composition([t["a"], t["b"], t["c"]], gts),
                               arrays)
    for a, b in zip(fused, composed):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("dice_w, ce_w", [(1.0, 1.0), (0.7, 1.3), (0.0, 2.0)])
def test_seg_loss_is_one_node_equal_to_the_composition(dice_w, ce_w):
    from phasesynth.losses import LossWeights, seg_loss
    weights = LossWeights(dice=dice_w, ce=ce_w)
    gt = (rng.uniform(0, 1, (8, 8)) > 0.6).astype(float)
    # one phase confident enough that both clamps cut in
    arrays = {"a": rng.uniform(-4, 4, (8, 8)), "b": rng.uniform(-4, 4, (8, 8)),
              "c": np.where(gt > 0, 40.0, -40.0) * rng.choice([-1.0, 1.0], (8, 8))}
    fused, composed = run_both(
        lambda t: seg_loss([t["a"], t["b"], t["c"]], gt, weights),
        lambda t: seg_loss_composition([t["a"], t["b"], t["c"]], gt, weights), arrays)
    for a, b in zip(fused, composed):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("cls_w, tcc_w", [(1.0, 1.0), (0.3, 2.5), (1.7, 0.0)])
def test_total_loss_is_one_node_equal_to_the_composition(cls_w, tcc_w):
    from phasesynth.losses import LossWeights, total_loss
    weights = LossWeights(cls=cls_w, tcc=tcc_w)
    names = ("syn", "seg", "cls", "tcc")
    arrays = {name: rng.uniform(0.1, 3.0, ()) for name in names}

    def composed(t):
        # the add and scale nodes of ``total_loss`` before it was fused
        return ad.add(ad.add(t["syn"], t["seg"]),
                      ad.add(ad.scale(t["cls"], cls_w), ad.scale(t["tcc"], tcc_w)))

    fused, composed = run_both(lambda t: total_loss(*(t[name] for name in names), weights),
                               composed, arrays)
    for a, b in zip(fused, composed):
        np.testing.assert_array_equal(a, b)
    leaves = [ad.Tensor(arrays[name], requires_grad=True) for name in names]
    assert total_loss(*leaves, weights)._parents == tuple(leaves)


@pytest.mark.parametrize("live", ["trailing_zero_rows", "all_zero", "middle_zero_rows"])
def test_dtam_attention_backward_over_live_rows(live):
    n, nk, heads = 9, 9, 2
    dim = 4 * heads
    arrays = {"q": rng.uniform(-2, 2, (n, dim)), "k": rng.uniform(-2, 2, (nk, dim)),
              "v": rng.uniform(-1, 1, (nk, dim))}
    runs = [3, 3, 3]
    bias = np.log(rng.uniform(0.05, 1.0, (3, nk)))
    probe = rng.uniform(-1, 1, (n, dim))
    zero = {"trailing_zero_rows": slice(4, n), "all_zero": slice(0, n),
            "middle_zero_rows": slice(2, 6)}[live]
    probe[zero] = 0.0
    results = []
    for op in (lambda q, k, v: ad.dtam_attention(q, k, v, bias, heads, runs),
               lambda q, k, v: per_head_attention(q, k, v, bias.repeat(runs, axis=0), heads)):
        leaves = {name: ad.Tensor(a, requires_grad=True) for name, a in arrays.items()}
        out = op(leaves["q"], leaves["k"], leaves["v"])
        ad.backward(ad.reduce_sum(ad.mul(out, ad.Tensor(probe))))
        results.append([out.data] + [leaves[name].grad for name in "qkv"])
    (out, dq, dk, dv), looped = results
    oracle, _ = longdouble_attention(arrays["q"], arrays["k"], arrays["v"],
                                     bias.repeat(runs, axis=0), heads)
    np.testing.assert_allclose(out, oracle, rtol=1e-13, atol=1e-15)
    # the op's float operations differ from the composition's, and the cut
    # rows add exact zeros: only rounding may differ
    for fused, ref in zip((dq, dk, dv), looped[1:]):
        np.testing.assert_allclose(fused, ref, rtol=1e-13, atol=1e-15)
    assert not dq[zero].any()
    if live == "all_zero":
        for g in (dq, dk, dv):
            assert g.shape in ((n, dim), (nk, dim)) and not g.any()


def test_backward_calls_no_adjoint_of_a_parent_without_a_gradient():
    def refuse(g):
        raise AssertionError("adjoint of a constant parent was called")

    x = ad.Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
    const = ad.Tensor(rng.uniform(-1, 1, (2, 3)))
    out = ad.node(x.data * const.data, (const, x), refuse, lambda g: g * const.data)
    assert out.requires_grad and out._parents == (const, x)
    ad.backward(ad.reduce_sum(out))
    np.testing.assert_array_equal(x.grad, const.data)
    assert const.grad is None
    # without any parent that requires a gradient the node stays off the tape
    assert ad.node(const.data, (const,), refuse)._parents == ()
