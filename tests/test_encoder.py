"""Token construction: patch features, time encoding, conditioning."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_gradients
import refops as ro
from phasesynth import autodiff as ad
from phasesynth.encoder import (PHASE_INDEX, build_conditional_token, depatchify,
                                encode_features, neighbor_mix_matrix, patchify,
                                phase_embedding, time_encoding)
from phasesynth.errors import ConfigError, ContractError, DomainError
from phasesynth.model import ModelConfig, init_params

rng = np.random.default_rng(1)


def small_model():
    cfg = ModelConfig(image_size=16, patch_size=8, embed_dim=16, depth=1, head_count=4)
    params = init_params(cfg, np.random.default_rng(0))
    return cfg, params


# ---------------------------------------------------------------------------
# patchify / mixing


def test_patchify_layout():
    img = np.arange(16.0).reshape(4, 4)
    patches = patchify([img], 2)
    assert patches.shape == (4, 4)
    # top-left patch is rows 0-1 x cols 0-1 in row-major order
    np.testing.assert_array_equal(patches[0], [0, 1, 4, 5])
    np.testing.assert_array_equal(patches[3], [10, 11, 14, 15])


def test_patchify_channel_concat():
    a, b = np.zeros((4, 4)), np.ones((4, 4))
    patches = patchify([a, b], 2)
    assert patches.shape == (4, 8)
    np.testing.assert_array_equal(patches[:, :4], 0.0)
    np.testing.assert_array_equal(patches[:, 4:], 1.0)


@pytest.mark.parametrize("size", [16, 64, 128])
def test_depatchify_inverts_patchify(size):
    a, b = rng.uniform(0, 1, (2, size, size))
    patches = patchify([a, b], 8)
    assert patches.shape == ((size // 8) ** 2, 2 * 64)
    np.testing.assert_array_equal(depatchify(patches[:, :64], size // 8, 8).data, a)
    np.testing.assert_array_equal(depatchify(patches[:, 64:], size // 8, 8).data, b)


def test_neighbor_mix_rows_are_averages():
    mix = neighbor_mix_matrix(3)
    assert mix.shape == (9, 9)
    np.testing.assert_allclose(mix.sum(axis=1), 1.0)
    # corner token averages itself and its 2 neighbors
    assert mix[0, 0] == pytest.approx(1 / 3)


def test_neighbor_mix_is_cached_read_only_and_matches_definition():
    grid = 4
    expected = np.zeros((grid * grid, grid * grid))
    for r in range(grid):
        for c in range(grid):
            neigh = [(r, c)] + [(r + dr, c + dc) for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1))
                                if 0 <= r + dr < grid and 0 <= c + dc < grid]
            for nr, nc in neigh:
                expected[r * grid + c, nr * grid + nc] = 1.0 / len(neigh)
    mix = neighbor_mix_matrix(grid)
    np.testing.assert_array_equal(mix, expected)
    assert neighbor_mix_matrix(grid) is mix
    assert not mix.flags.writeable
    with pytest.raises(ValueError):
        mix[0, 0] = 0.0


# ---------------------------------------------------------------------------
# encode_features


def test_encode_shape_default():
    cfg = ModelConfig()
    params = init_params(cfg, np.random.default_rng(0))
    t_ot = encode_features(rng.uniform(0, 1, (64, 64)),
                           np.zeros((64, 64)), cfg, params)
    assert t_ot.shape == (64, 64)


def test_encode_indivisible_size_rejected():
    cfg, params = small_model()
    with pytest.raises(ContractError, match="image size"):
        encode_features(np.zeros((20, 20)), np.zeros((20, 20)), cfg, params)
    with pytest.raises(ConfigError, match="not divisible"):
        ModelConfig(image_size=20, patch_size=8, embed_dim=16).validate()


def test_encode_shape_mismatch_rejected():
    cfg, params = small_model()
    with pytest.raises(ContractError):
        encode_features(np.zeros((16, 16)), np.zeros((8, 8)), cfg, params)


def test_patch_permutation_equivariance_depth_zero():
    """With no mixing stages the encoder is a per-patch map."""
    cfg = ModelConfig(image_size=16, patch_size=8, embed_dim=16, depth=0)
    params = init_params(cfg, np.random.default_rng(0))
    img = rng.uniform(0, 1, (16, 16))
    mask = (rng.uniform(0, 1, (16, 16)) > 0.8).astype(float)
    base = encode_features(img, mask, cfg, params).data
    # swap the two top patches (patch grid is 2x2)
    img2, mask2 = img.copy(), mask.copy()
    img2[:8, :8], img2[:8, 8:] = img[:8, 8:], img[:8, :8].copy()
    mask2[:8, :8], mask2[:8, 8:] = mask[:8, 8:], mask[:8, :8].copy()
    swapped = encode_features(img2, mask2, cfg, params).data
    np.testing.assert_allclose(swapped[[1, 0, 2, 3]], base, atol=1e-12)


def test_encode_gradient_flows_to_parameters():
    cfg, params = small_model()
    img = rng.uniform(0, 1, (16, 16))
    mask = np.zeros((16, 16))
    mask[4:9, 5:10] = 1.0
    arrays = {"enc.patch_w": params["enc.patch_w"].data.copy(),
              "enc.proj_w": params["enc.proj_w"].data.copy()}

    def build(t):
        p = {k: (t[k] if k in t else ad.Tensor(v.data)) for k, v in params.items()}
        return ad.reduce_mean(ro.mul(encode_features(img, mask, cfg, p),
                                     encode_features(img, mask, cfg, p)))

    check_gradients(build, arrays, sample=60)


# ---------------------------------------------------------------------------
# time encoding


def test_time_encoding_endpoints():
    np.testing.assert_allclose(time_encoding(0.0), [0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(time_encoding(0.5, math.pi), [1.0, 0.0], atol=1e-12)


def test_time_encoding_frozen_value():
    # sin(0.1 pi), cos(0.1 pi) frozen from high-precision evaluation
    np.testing.assert_allclose(time_encoding(0.1, math.pi),
                               [0.3090169943749474, 0.9510565162951535], atol=1e-12)


def test_time_encoding_domain():
    with pytest.raises(DomainError):
        time_encoding(-0.01)
    with pytest.raises(DomainError):
        time_encoding(1.01)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1.0))
def test_time_encoding_unit_norm(t):
    assert abs(np.linalg.norm(time_encoding(t)) - 1.0) < 1e-12


def test_time_encoding_injective_on_grid():
    ts = np.linspace(0, 1, 101)
    encs = np.array([time_encoding(t) for t in ts])
    dists = np.linalg.norm(encs[:, None] - encs[None, :], axis=2)
    off_diag = dists + np.eye(len(ts))
    assert off_diag.min() > 1e-3


# ---------------------------------------------------------------------------
# phase embedding and assembly


def test_phase_embedding_lookup():
    cfg, params = small_model()
    art1 = phase_embedding("art", params).data
    art2 = phase_embedding(PHASE_INDEX["art"], params).data
    np.testing.assert_array_equal(art1, art2)


def test_phase_rows_distinct_and_nonzero():
    cfg, params = small_model()
    table = params["enc.phase_table"].data
    assert all(np.linalg.norm(row) > 0 for row in table)
    assert not np.allclose(table[0], table[1])


def test_conditional_token_shape():
    cfg, params = small_model()
    t_ot = encode_features(rng.uniform(0, 1, (16, 16)), np.zeros((16, 16)),
                           cfg, params)
    cond = build_conditional_token(t_ot, "art", 0.1, cfg, params)
    assert cond.tokens.shape == (5, 16)  # 4 image tokens + 1 condition token


def test_conditional_token_locality():
    cfg, params = small_model()
    t_ot = encode_features(rng.uniform(0, 1, (16, 16)), np.zeros((16, 16)),
                           cfg, params)
    early = build_conditional_token(t_ot, "art", 0.1, cfg, params)
    late = build_conditional_token(t_ot, "art", 1.0, cfg, params)
    np.testing.assert_array_equal(early.tokens.data[:4], late.tokens.data[:4])
    assert not np.allclose(early.tokens.data[4], late.tokens.data[4])


def test_conditional_token_ablation_flags():
    cfg, params = small_model()
    t_ot = encode_features(rng.uniform(0, 1, (16, 16)), np.zeros((16, 16)),
                           cfg, params)
    bare = build_conditional_token(t_ot, "pv", 0.25, cfg, params,
                                   use_phase=False, use_time=False)
    assert bare.tokens.shape == (4, 16)
    no_time = build_conditional_token(t_ot, "pv", 0.25, cfg, params,
                                      use_time=False)
    with_time = build_conditional_token(t_ot, "pv", 0.25, cfg, params)
    assert not np.allclose(no_time.tokens.data[4], with_time.tokens.data[4])


def test_no_phase_token_means_no_condition_token():
    # the time encoding alone must not carry the phase row into the sequence
    cfg, params = small_model()
    t_ot = encode_features(rng.uniform(0, 1, (16, 16)), np.zeros((16, 16)),
                           cfg, params)
    time_only = build_conditional_token(t_ot, "pv", 0.25, cfg, params,
                                        use_phase=False, use_time=True)
    assert time_only.tokens is t_ot
    assert time_only.time == 0.25
