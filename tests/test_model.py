"""Autoregressive core: phase loop, decoding, voting, classification."""

import hashlib

import numpy as np
import pytest

from conftest import check_gradients
from phasesynth import autodiff as ad
from phasesynth import attention
from phasesynth.encoder import build_conditional_token, encode_features
from phasesynth.errors import ContractError
from phasesynth.model import (ABLATIONS, ModelConfig, aggregate_segmentation,
                              fuse_and_classify, init_params, param_shapes,
                              run_autoregressive, synthesize_phase)
from phasesynth.phantom import DEFAULT_TIMES

rng = np.random.default_rng(3)


def small_setup(seed=0):
    cfg = ModelConfig(image_size=16, patch_size=8, embed_dim=16, depth=1)
    params = init_params(cfg, np.random.default_rng(seed))
    return cfg, params


def random_case(seed=0, size=16):
    r = np.random.default_rng(seed)
    img = r.uniform(0, 1, (size, size))
    mask = np.zeros((size, size))
    mask[4:9, 6:11] = 1.0
    return img, mask


def test_default_ablation_table():
    assert set(ABLATIONS) == {"full", "no_dtam", "no_cte", "no_t_encoding", "baseline"}
    assert ABLATIONS["full"] == (True, True, True, True)
    assert ABLATIONS["baseline"] == (False, False, False, False)


def test_unknown_ablation_rejected():
    cfg, params = small_setup()
    img, mask = random_case()
    with pytest.raises(ContractError):
        run_autoregressive(img, mask, DEFAULT_TIMES, params, cfg, ablation="typo")


def test_prior_count_contract():
    cfg, params = small_setup()
    img, mask = random_case()
    t_ot = encode_features(img, mask, cfg, params)
    cond = build_conditional_token(t_ot, "pv", 0.25, cfg, params)
    with pytest.raises(ContractError):
        synthesize_phase(1, cond, [], cfg, params)  # pv expects 1 prior block


def test_prior_blocks_must_be_in_time_order():
    cfg, params = small_setup()
    img, mask = random_case()
    t_ot = encode_features(img, mask, cfg, params)
    cond = build_conditional_token(t_ot, "delay", 1.0, cfg, params)
    block = ad.Tensor(np.zeros((5, 16)))
    with pytest.raises(ContractError, match="non-decreasing time order"):
        synthesize_phase(2, cond, [(block, 0.25), (block, 0.1)], cfg, params)
    early = build_conditional_token(t_ot, "delay", 0.2, cfg, params)
    with pytest.raises(ContractError, match="non-decreasing time order"):
        synthesize_phase(2, early, [(block, 0.1), (block, 0.25)], cfg, params)
    po, _ = synthesize_phase(2, cond, [(block, 0.1), (block, 0.25)], cfg, params)
    assert po.image.shape == (16, 16)


def test_phase_output_shapes_and_range():
    cfg, params = small_setup()
    img, mask = random_case()
    bundle = run_autoregressive(img, mask, DEFAULT_TIMES, params, cfg)
    assert len(bundle.phase_outputs) == 3
    for po in bundle.phase_outputs:
        assert po.image.shape == (16, 16)
        assert po.seg_logits.shape == (16, 16)
        assert po.feature.shape == (16,)
        assert po.image.data.min() >= 0.0 and po.image.data.max() <= 1.0
    assert bundle.aggregated_mask.shape == (16, 16)
    assert bundle.aggregated_mask.dtype == np.uint8


def test_sequence_lengths_grow_per_phase():
    cfg, params = small_setup()
    img, mask = random_case()
    record = []
    run_autoregressive(img, mask, DEFAULT_TIMES, params, cfg, record=record)
    assert [r["phase"] for r in record] == ["art", "pv", "delay"]
    assert [sum(r["block_sizes"]) for r in record] == [5, 10, 15]
    assert record[2]["block_times"] == [1.0, 0.1, 0.25]


def test_forward_determinism():
    cfg, params = small_setup()
    img, mask = random_case()
    a = run_autoregressive(img, mask, DEFAULT_TIMES, params, cfg)
    b = run_autoregressive(img, mask, DEFAULT_TIMES, params, cfg)
    for pa, pb in zip(a.phase_outputs, b.phase_outputs):
        assert (pa.image.data == pb.image.data).all()
    assert (a.class_probs.data == b.class_probs.data).all()


def test_causality_truncated_vs_full_twenty_cases():
    cfg, params = small_setup()
    for seed in range(20):
        img, mask = random_case(seed)
        full = run_autoregressive(img, mask, DEFAULT_TIMES, params, cfg)
        t_ot = encode_features(img, mask, cfg, params)
        blocks = []
        for i, (name, t) in enumerate(zip(("art", "pv"), DEFAULT_TIMES[:2])):
            cond = build_conditional_token(t_ot, name, t, cfg, params)
            po, block = synthesize_phase(i, cond, blocks, cfg, params)
            assert (po.image.data == full.phase_outputs[i].image.data).all()
            assert (po.seg_logits.data == full.phase_outputs[i].seg_logits.data).all()
            blocks.append((block, t))


def test_decoder_zeroed_gives_half_gray():
    cfg, params = small_setup()
    params["dec.img_w"] = ad.Tensor(np.zeros_like(params["dec.img_w"].data))
    params["dec.img_b"] = ad.Tensor(np.zeros_like(params["dec.img_b"].data))
    img, mask = random_case()
    bundle = run_autoregressive(img, mask, DEFAULT_TIMES, params, cfg)
    for po in bundle.phase_outputs:
        np.testing.assert_array_equal(po.image.data, np.full((16, 16), 0.5))


# ---------------------------------------------------------------------------
# majority vote


def vote_oracle(logit_maps):
    votes = sum((m > 0).astype(int) for m in logit_maps)
    return (votes >= 2).astype(np.uint8)


def test_vote_unanimous():
    m = rng.uniform(-1, 1, (4, 4))
    np.testing.assert_array_equal(aggregate_segmentation(m, m, m),
                                  (m > 0).astype(np.uint8))


def test_vote_majority_rules():
    pos = np.full((2, 2), 1.0)
    neg = np.full((2, 2), -1.0)
    np.testing.assert_array_equal(aggregate_segmentation(pos, pos, neg), 1)
    np.testing.assert_array_equal(aggregate_segmentation(neg, neg, pos), 0)


def test_vote_brute_force_oracle():
    for seed in range(100):
        r = np.random.default_rng(seed)
        maps = [r.uniform(-1, 1, (4, 4)) for _ in range(3)]
        np.testing.assert_array_equal(aggregate_segmentation(*maps), vote_oracle(maps))


def test_vote_shape_mismatch():
    with pytest.raises(ContractError):
        aggregate_segmentation(np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# classification head


def test_class_probs_sum_to_one():
    cfg, params = small_setup()
    img, mask = random_case()
    bundle = run_autoregressive(img, mask, DEFAULT_TIMES, params, cfg)
    assert bundle.class_probs.shape == (2,)
    assert abs(bundle.class_probs.data.sum() - 1.0) < 1e-12


def test_zeroed_head_gives_uniform():
    cfg, params = small_setup()
    params["cls.fuse_w"] = ad.Tensor(np.zeros_like(params["cls.fuse_w"].data))
    params["cls.fuse_b"] = ad.Tensor(np.zeros(2))
    img, mask = random_case()
    bundle = run_autoregressive(img, mask, DEFAULT_TIMES, params, cfg)
    np.testing.assert_allclose(bundle.class_probs.data, [0.5, 0.5])


def test_fused_width_is_four_d():
    cfg, params = small_setup()
    img, mask = random_case()
    t_ot = encode_features(img, mask, cfg, params)
    pooled = ad.reduce_mean(t_ot, axis=0)
    bundle = run_autoregressive(img, mask, DEFAULT_TIMES, params, cfg)
    joint = ad.concat([pooled] + [po.feature for po in bundle.phase_outputs], axis=0)
    assert joint.shape == (4 * cfg.embed_dim,)
    with pytest.raises(ContractError):
        fuse_and_classify(pooled, bundle.phase_outputs[:2], params)


def test_signals_and_labels_emitted():
    from phasesynth.tcc import TAU

    cfg, params = small_setup()
    img, mask = random_case()
    bundle = run_autoregressive(img, mask, DEFAULT_TIMES, params, cfg)
    lesion = mask > 0.5
    # each signal is the in-lesion enhancement of that phase's generated image
    assert bundle.signals == [float(np.mean(po.image.data[lesion] - img[lesion]))
                              for po in bundle.phase_outputs]
    assert all(type(s) is float for s in bundle.signals)
    threshold = TAU * max(bundle.signals)
    assert bundle.signal_labels == [int(s > threshold) for s in bundle.signals]
    assert len(bundle.per_phase_cls) == 3


def test_default_model_parameter_count():
    params = init_params(ModelConfig(), np.random.default_rng(0))
    assert len(params) == 27
    assert sum(p.data.size for p in params.values()) == 71_299
    assert not any(name.startswith("tcc.") for name in params)
    assert set(ModelConfig().echo()) == {"image_size", "patch_size", "embed_dim", "depth",
                                         "sigma", "head_count", "omega"}


@pytest.mark.parametrize("cfg", [
    ModelConfig(), ModelConfig(image_size=128), small_setup()[0],
    ModelConfig(image_size=16, patch_size=8, embed_dim=16, depth=0)])
def test_param_shapes_match_init_params(cfg):
    params = init_params(cfg, np.random.default_rng(0))
    assert param_shapes(cfg) == {name: p.shape for name, p in params.items()}


@pytest.mark.parametrize("cfg, digest", [
    (ModelConfig(), "a319d8e2bd2796be94eb314cf17829167ed78b4ddc0c60007fa2335a84a52e8c"),
    (ModelConfig(image_size=128),
     "6d968241a966b0c7c6df81ae5f932f815941ff11f54dcfbdaa73346d8f3d3d5b"),
    (small_setup()[0], "cceb4f5fd50302509683a9fceaa4000bb1677c0e793bb4a296c407e3c53f5ab0"),
    (ModelConfig(image_size=16, patch_size=8, embed_dim=16, depth=0),
     "60b7661f32857fe1658192839061a5cbaa401e99131965ece2ef069d92b44949"),
], ids=["default", "128px", "16px-depth1", "16px-depth0"])
def test_init_params_bytes_are_pinned(cfg, digest):
    # SHA-256 over the names and bytes of the tensors, sorted by name: a change
    # to the draws or the structured init changes every trained model
    params = init_params(cfg, np.random.default_rng(42))
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(params[name].data.tobytes())
    assert h.hexdigest() == digest


# ---------------------------------------------------------------------------
# ablation switches


def test_baseline_never_calls_gaussian_decay(monkeypatch):
    cfg, params = small_setup()
    img, mask = random_case()
    calls = {"n": 0}
    original = attention.gaussian_decay

    def counting(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(attention, "gaussian_decay", counting)
    run_autoregressive(img, mask, DEFAULT_TIMES, params, cfg, ablation="baseline")
    assert calls["n"] == 0
    run_autoregressive(img, mask, DEFAULT_TIMES, params, cfg, ablation="full")
    assert calls["n"] > 0


def test_no_cte_drops_condition_token():
    cfg, params = small_setup()
    img, mask = random_case()
    record = []
    run_autoregressive(img, mask, DEFAULT_TIMES, params, cfg,
                       ablation="no_cte", record=record)
    assert [sum(r["block_sizes"]) for r in record] == [4, 8, 12]


def test_ablation_variants_diverge():
    cfg, params = small_setup()
    # the tiny model skips the beacon init, so activate attention output
    # explicitly; otherwise every variant reduces to the residual path
    params["att.out_w"] = ad.Tensor(
        np.random.default_rng(0).normal(0, 0.05, params["att.out_w"].shape),
        requires_grad=True)
    img, mask = random_case()
    outs = {name: run_autoregressive(img, mask, DEFAULT_TIMES, params, cfg,
                                     ablation=name)
            for name in ("full", "no_dtam", "no_t_encoding")}
    assert not np.allclose(outs["full"].phase_outputs[2].image.data,
                           outs["no_dtam"].phase_outputs[2].image.data)
    assert not np.allclose(outs["full"].phase_outputs[2].image.data,
                           outs["no_t_encoding"].phase_outputs[2].image.data)


# ---------------------------------------------------------------------------
# end-to-end gradient


def test_end_to_end_gradient_sampled_parameters():
    from phasesynth.losses import LossWeights, cls_loss, seg_loss, syn_loss, total_loss
    from phasesynth.tcc import tcc_loss

    cfg, params = small_setup()
    img, mask = random_case()
    gt_phases = [np.clip(img + 0.05 * (i + 1), 0, 1) for i in range(3)]
    weights = LossWeights()
    names = ("enc.patch_w", "att.q_w", "dec.img_w", "cls.fuse_w", "att.out_w")
    arrays = {n: params[n].data.copy() for n in names}

    def build(t):
        p = dict(params)
        p.update({n: t[n] for n in names})
        bundle = run_autoregressive(img, mask, DEFAULT_TIMES, p, cfg)
        l_syn = syn_loss([po.image for po in bundle.phase_outputs], gt_phases)
        l_seg = seg_loss([po.seg_logits for po in bundle.phase_outputs], mask, weights)
        l_cls = cls_loss(bundle.class_probs, 1)
        l_tcc = tcc_loss(bundle.per_phase_cls, bundle.signal_labels)
        return total_loss(l_syn, l_seg, l_cls, l_tcc, weights)

    check_gradients(build, arrays, sample=25)


# parameters the full model cannot train: none
FROZEN_UNTIL_TCC_FIX = set()


def default_training_case():
    """The default model and one synthetic 64x64 training case."""
    from phasesynth.phantom import CaseRecord

    cfg = ModelConfig()
    params = init_params(cfg, np.random.default_rng(0))
    img, mask = random_case(size=64)
    case = CaseRecord(ncmri=img, tumor_mask=mask,
                      phases=[np.clip(img + 0.05 * (i + 1), 0, 1) for i in range(3)],
                      times=DEFAULT_TIMES, class_label=1, seed=0)
    return cfg, params, case


def test_only_listed_parameters_get_no_gradient():
    from phasesynth.losses import LossWeights
    from phasesynth.training import case_losses

    # the default model: small_setup has no beacon head, so its att.out_w
    # starts at zero and blocks every upstream attention gradient at step 0
    cfg, params, case = default_training_case()
    _, parts = case_losses(case, params, cfg, "full", LossWeights())
    ad.backward(parts["total"])
    frozen = {name for name, p in params.items()
              if p.grad is None or not np.any(p.grad)}
    assert frozen == FROZEN_UNTIL_TCC_FIX


def test_backward_releases_the_tape_of_a_training_case():
    import tracemalloc

    from phasesynth.losses import LossWeights
    from phasesynth.training import case_losses

    cfg, params, case = default_training_case()
    case_losses(case, params, cfg, "full", LossWeights())  # warm one-time caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        bundle, parts = case_losses(case, params, cfg, "full", LossWeights())
        tape = tracemalloc.get_traced_memory()[0] - base
        ad.backward(parts["total"])
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    # what stays is the parameter gradients and the outputs the caller holds
    assert held < tape / 4, (held, tape)
    assert bundle.phase_outputs[0].image.data.shape == (64, 64)
