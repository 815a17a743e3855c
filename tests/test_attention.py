"""Gaussian-decayed attention: decay math, weight properties, block behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_gradients, dtam_weights
import refops as ro
from phasesynth import autodiff as ad
from phasesynth.attention import DtamConfig, decay_log_bias, gaussian_decay, mmhsa_block
from phasesynth.errors import ConfigError, ContractError, DimensionError

rng = np.random.default_rng(2)


# ---------------------------------------------------------------------------
# gaussian decay


def test_decay_zero_distance():
    assert gaussian_decay(0.3, 0.3, 0.7) == 1.0


def test_decay_at_sigma_frozen():
    # e^(-1/2), frozen from closed form
    assert gaussian_decay(1.0, 0.3, 0.7) == pytest.approx(0.6065306597126334, abs=1e-12)


def test_decay_large_sigma():
    assert gaussian_decay(0.0, 1.0, 1e6) == pytest.approx(1.0, abs=1e-12)


def test_decay_symmetry_and_range():
    for _ in range(100):
        ti, tk = rng.uniform(0, 1, 2)
        sigma = rng.uniform(0.05, 2.0)
        g = gaussian_decay(ti, tk, sigma)
        assert g == gaussian_decay(tk, ti, sigma)
        assert 0.0 < g <= 1.0
        assert (g == 1.0) == (ti == tk)


def test_decay_sigma_validation():
    with pytest.raises(ConfigError):
        gaussian_decay(0.0, 1.0, 0.0)
    with pytest.raises(ConfigError):
        DtamConfig(sigma=-1.0).validate(64)


def test_decay_log_bias_matrix():
    bias = decay_log_bias([0.1, 1.0], [0.1], 0.7)
    assert bias.shape == (2, 1)
    assert bias[0, 0] == 0.0
    assert bias[1, 0] == pytest.approx(-(0.9 ** 2) / (2 * 0.49))


def entrywise_log_bias(tq, tk, sigma):
    return np.log(gaussian_decay(np.asarray(tq)[:, None], np.asarray(tk)[None, :], sigma))


def test_decay_log_bias_equals_entrywise_on_block_stamps():
    # one stamp per phase block, as the model assembles them (257/514/771 keys)
    stamps = [0.0, 0.31, 0.58, 0.93]
    for sizes in ([257], [257, 257], [257, 257, 257], [3, 5, 2, 7]):
        times = np.concatenate([np.full(n, t) for n, t in zip(sizes, stamps)])
        for sigma in (0.05, 0.7, 3.0):
            np.testing.assert_array_equal(decay_log_bias(times, times, sigma),
                                          entrywise_log_bias(times, times, sigma))


def test_decay_log_bias_equals_entrywise_on_distinct_stamps():
    for nq, nk in ((1, 1), (6, 9), (40, 25)):
        tq, tk = rng.uniform(-1, 2, nq), rng.uniform(-1, 2, nk)
        sigma = rng.uniform(0.05, 2.0)
        np.testing.assert_array_equal(decay_log_bias(tq, tk, sigma),
                                      entrywise_log_bias(tq, tk, sigma))


# ---------------------------------------------------------------------------
# dtam weights


def test_single_key_weight_is_one():
    q = ad.Tensor(rng.uniform(-1, 1, (1, 4)))
    k = ad.Tensor(rng.uniform(-1, 1, (1, 4)))
    w = dtam_weights(q, k, [0.5], [0.5], sigma=0.7)
    assert w.data[0, 0] == pytest.approx(1.0)


def test_equal_logits_equal_times_symmetric():
    q = ad.Tensor(np.zeros((1, 4)))
    k = ad.Tensor(np.zeros((2, 4)))
    w = dtam_weights(q, k, [0.5], [0.5, 0.5], sigma=0.7)
    np.testing.assert_allclose(w.data, [[0.5, 0.5]])


def test_empty_keys_rejected():
    with pytest.raises(ContractError):
        dtam_weights(ad.Tensor(np.zeros((1, 4))), ad.Tensor(np.zeros((0, 4))),
                     [0.5], [], sigma=0.7)


def test_weights_match_unstabilized_formula():
    """Direct (unstabilized) evaluation of the decayed softmax as oracle."""
    for _ in range(50):
        nq, nk, d = 3, 4, 5
        q = rng.uniform(-1, 1, (nq, d))
        k = rng.uniform(-1, 1, (nk, d))
        tq = rng.uniform(0, 1, nq)
        tk = rng.uniform(0, 1, nk)
        sigma = rng.uniform(0.2, 1.5)
        w = dtam_weights(ad.Tensor(q), ad.Tensor(k), tq, tk, sigma).data
        g = np.exp(-((tq[:, None] - tk[None, :]) ** 2) / (2 * sigma ** 2))
        raw = g * np.exp(q @ k.T)
        oracle = raw / raw.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(w, oracle, atol=1e-12)


def test_row_stochastic_thousand_draws():
    for _ in range(1000):
        nq = rng.integers(1, 5)
        nk = rng.integers(1, 6)
        q = ad.Tensor(rng.uniform(-3, 3, (nq, 8)))
        k = ad.Tensor(rng.uniform(-3, 3, (nk, 8)))
        w = dtam_weights(q, k, rng.uniform(0, 1, nq), rng.uniform(0, 1, nk),
                         sigma=rng.uniform(0.1, 2.0)).data
        assert (w >= 0).all()
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)


def test_decay_monotone_under_equal_logits():
    for _ in range(200):
        nk = int(rng.integers(2, 6))
        tk = np.sort(rng.uniform(0, 1, nk))
        ti = float(rng.uniform(0, 1))
        sigma = float(rng.uniform(0.1, 1.5))
        w = dtam_weights(ad.Tensor(np.zeros((1, 4))), ad.Tensor(np.zeros((nk, 4))),
                         [ti], tk, sigma).data[0]
        dist = np.abs(tk - ti)
        order = np.argsort(dist)
        assert all(w[order[i]] >= w[order[i + 1]] - 1e-12 for i in range(nk - 1))


def test_large_sigma_equals_plain_softmax():
    for _ in range(100):
        q = rng.uniform(-2, 2, (3, 6))
        k = rng.uniform(-2, 2, (4, 6))
        w = dtam_weights(ad.Tensor(q), ad.Tensor(k), rng.uniform(0, 1, 3),
                         rng.uniform(0, 1, 4), sigma=1e6).data
        logits = q @ k.T
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        plain = e / e.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(w, plain, atol=1e-6)


def test_no_decay_flag_ignores_times():
    q = ad.Tensor(rng.uniform(-1, 1, (2, 4)))
    k = ad.Tensor(rng.uniform(-1, 1, (3, 4)))
    a = dtam_weights(q, k, [0.0, 1.0], [0.1, 0.5, 0.9], 0.7, use_decay=False).data
    b = dtam_weights(q, k, [0.5, 0.5], [0.5, 0.5, 0.5], 0.7, use_decay=False).data
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# block level


def block_params(d, n_max, seed=0):
    r = np.random.default_rng(seed)
    return {
        "att.in_w": ad.Tensor(np.eye(d) + 0.05 * r.normal(size=(d, d)), requires_grad=True),
        "att.in_b": ad.Tensor(np.zeros(d), requires_grad=True),
        "att.pos": ad.Tensor(0.1 * r.normal(size=(n_max, d)), requires_grad=True),
        "att.q_w": ad.Tensor(0.3 * r.normal(size=(d, d)), requires_grad=True),
        "att.k_w": ad.Tensor(0.3 * r.normal(size=(d, d)), requires_grad=True),
        "att.v_w": ad.Tensor(0.3 * r.normal(size=(d, d)), requires_grad=True),
        "att.out_w": ad.Tensor(0.3 * r.normal(size=(d, d)), requires_grad=True),
        "att.out_b": ad.Tensor(np.zeros(d), requires_grad=True),
    }


def test_zero_out_projection_is_identity():
    d = 8
    params = block_params(d, 10)
    params["att.out_w"] = ad.Tensor(np.zeros((d, d)))
    params["att.out_b"] = ad.Tensor(np.zeros(d))
    tokens = ad.Tensor(rng.uniform(-1, 1, (5, d)))
    out = mmhsa_block(tokens, np.full(5, 0.25), DtamConfig(head_count=4), params)
    np.testing.assert_array_equal(out.data, tokens.data)


def test_block_output_shape_matches_input():
    d = 8
    params = block_params(d, 10)
    tokens = ad.Tensor(rng.uniform(-1, 1, (7, d)))
    out = mmhsa_block(tokens, np.full(7, 0.1), DtamConfig(head_count=4), params)
    assert out.shape == (7, d)


def test_block_width_that_heads_do_not_divide_is_refused():
    # mmhsa_block trusts a validated config; the attention op still refuses the width
    d = 8
    tokens = ad.Tensor(rng.uniform(-1, 1, (5, d)))
    with pytest.raises(DimensionError):
        mmhsa_block(tokens, np.full(5, 0.25), DtamConfig(head_count=3), block_params(d, 10))
    with pytest.raises(ConfigError, match="not divisible"):
        DtamConfig(head_count=3).validate(d)


def test_block_records_head_weights():
    d = 8
    params = block_params(d, 10)
    weights = []
    mmhsa_block(ad.Tensor(rng.uniform(-1, 1, (4, d))), np.full(4, 0.1),
                DtamConfig(head_count=4), params, weights_out=weights)
    assert len(weights) == 4
    for w in weights:
        assert w.shape == (4, 4)


@pytest.mark.parametrize("use_decay, expected", [(True, 1), (False, 0)])
def test_block_builds_decay_bias_once_for_all_heads(monkeypatch, use_decay, expected):
    import phasesynth.attention as attention
    calls = []

    def counting(*args):
        calls.append(args)
        return decay_log_bias(*args)

    monkeypatch.setattr(attention, "decay_log_bias", counting)
    d = 8
    times = np.array([0.4, 0.4, 0.4, 0.1, 0.1])
    mmhsa_block(ad.Tensor(rng.uniform(-1, 1, (5, d))), times,
                DtamConfig(head_count=4), block_params(d, 10), use_decay=use_decay)
    assert len(calls) == expected


@pytest.mark.parametrize("use_decay", [True, False])
def test_block_bias_equals_the_token_level_entrywise_bias(monkeypatch, use_decay):
    # the current block first, then the prior blocks in time order
    seen = []

    def spy(q, k, v, bias, heads, runs, weights_out=None):
        seen.append((bias, runs))
        return attention_op(q, k, v, bias, heads, runs, weights_out)

    attention_op = ad.dtam_attention
    monkeypatch.setattr(ad, "dtam_attention", spy)
    d, sigma = 8, 0.35
    times = np.repeat([0.9, 0.25, 0.55], [4, 3, 5])
    mmhsa_block(ad.Tensor(rng.uniform(-1, 1, (12, d))), times, DtamConfig(sigma=sigma),
                block_params(d, 12), use_decay=use_decay)
    (bias, runs), = seen
    assert runs == [4, 3, 5]
    if use_decay:
        np.testing.assert_array_equal(bias.repeat(runs, axis=0),
                                      entrywise_log_bias(times, times, sigma))
    else:
        assert bias is None


def test_block_heads_match_per_head_dtam_weights():
    d, heads = 8, 4
    tokens = ad.Tensor(rng.uniform(-1, 1, (6, d)))
    times = np.array([0.6, 0.6, 0.3, 0.3, 0.0, 0.0])
    trained = block_params(d, 10, seed=5)
    # detached parameters are what synthesize --dump-attention loads
    detached = {name: ad.Tensor(t.data) for name, t in trained.items()}
    records = []
    for params in (trained, detached):
        weights = []
        records.append(weights)
        mmhsa_block(tokens, times, DtamConfig(head_count=heads), params, weights_out=weights)
        h = ad.add(ad.linear(tokens, params["att.in_w"], params["att.in_b"]),
                   ad.slice_axis(params["att.pos"], 0, 0, 6))
        q, k = ad.linear(h, params["att.q_w"]), ad.linear(h, params["att.k_w"])
        hd = d // heads
        assert len(weights) == heads
        for i, w in enumerate(weights):
            ref = dtam_weights(ad.slice_axis(q, 1, i * hd, (i + 1) * hd),
                               ad.slice_axis(k, 1, i * hd, (i + 1) * hd), times, times, 0.7)
            # the kernel's softmax is unshifted, the composition's shifted
            np.testing.assert_allclose(w, ref.data, rtol=1e-13, atol=0)
    for kept, also_kept in zip(*records):
        np.testing.assert_array_equal(kept, also_kept)


@pytest.mark.parametrize("phase", [1, 2, 3])
def test_block_at_the_128px_model_shapes_matches_dense_softmax(phase):
    # blocks of 257 tokens (16 x 16 patches and the conditional token), the
    # current block first, then the prior blocks in time order
    d, heads, sigma = 64, 4, 0.7
    stamps = [(0.25, 0.55, 0.9)[phase - 1], 0.25, 0.55][:phase]
    times = np.repeat(stamps, 257)
    n = times.size
    tokens = rng.uniform(-1, 1, (n, d))
    trained = block_params(d, 771, seed=phase)
    a = {name: t.data for name, t in trained.items()}
    h = tokens @ a["att.in_w"] + a["att.in_b"] + a["att.pos"][:n]
    q, k, v = h @ a["att.q_w"], h @ a["att.k_w"], h @ a["att.v_w"]
    dt = times[:, None] - times[None, :]
    log_g = -(dt * dt) / (2.0 * sigma * sigma)
    z = np.empty_like(h)
    for cols in np.split(np.arange(d), heads):
        logits = q[:, cols] @ k[:, cols].T + log_g
        w = np.exp(logits - logits.max(axis=1, keepdims=True))
        z[:, cols] = w / w.sum(axis=1, keepdims=True) @ v[:, cols]
    ref = z @ a["att.out_w"] + a["att.out_b"] + tokens
    detached = {name: ad.Tensor(t) for name, t in a.items()}
    for params in (trained, detached):
        out = mmhsa_block(ad.Tensor(tokens), times, DtamConfig(sigma, heads), params)
        assert np.abs(out.data - ref).max() <= 1e-13 * np.abs(ref).max()


def test_block_gradients_match_finite_differences():
    d = 8
    tokens = rng.uniform(-1, 1, (4, d))
    times = np.array([0.1, 0.1, 0.25, 0.25])
    probe = rng.uniform(-1, 1, (4, d))
    names = ("att.in_w", "att.q_w", "att.k_w", "att.v_w", "att.out_w", "att.pos")
    template = block_params(d, 6, seed=3)
    arrays = {n: template[n].data.copy() for n in names}

    def build(t):
        params = {n: template[n] for n in template}
        params.update({n: t[n] for n in names})
        out = mmhsa_block(ad.Tensor(tokens), times, DtamConfig(head_count=4), params)
        return ro.reduce_sum(ro.mul(out, ad.Tensor(probe)))

    check_gradients(build, arrays)
