"""Objective terms, schedule, and optimizer."""

import math

import numpy as np
import pytest

from phasesynth import autodiff as ad
from phasesynth.errors import ContractError, NumericalError
from phasesynth.losses import (AdamState, LossWeights, adam_step, cls_loss,
                               lr_at, seg_loss, syn_loss, total_loss)

rng = np.random.default_rng(5)


def tensor_images(arrays):
    return [ad.Tensor(a) for a in arrays]


# ---------------------------------------------------------------------------
# synthesis loss


def test_syn_zero_on_match():
    imgs = [rng.uniform(0, 1, (4, 4)) for _ in range(3)]
    assert syn_loss(tensor_images(imgs), imgs).item() == 0.0


def test_syn_constant_offset():
    base = rng.uniform(0.2, 0.8, (4, 4))
    preds = tensor_images([base + 0.1, base, base])
    assert syn_loss(preds, [base, base, base]).item() == pytest.approx(0.1)


def test_syn_brute_force_oracle():
    preds = [rng.uniform(0, 1, (4, 4)) for _ in range(3)]
    gts = [rng.uniform(0, 1, (4, 4)) for _ in range(3)]
    expect = sum(np.abs(p - g).mean() for p, g in zip(preds, gts))
    assert syn_loss(tensor_images(preds), gts).item() == pytest.approx(expect)


def test_syn_shape_mismatch():
    with pytest.raises(ContractError):
        syn_loss(tensor_images([np.zeros((4, 4))]), [np.zeros((2, 2))])


# ---------------------------------------------------------------------------
# segmentation loss


def big(x):
    """Logits that sigmoid to (nearly) exact 0/1."""
    return np.where(x > 0.5, 50.0, -50.0)


def test_seg_zero_on_perfect_confident_prediction():
    mask = (rng.uniform(0, 1, (6, 6)) > 0.6).astype(float)
    logits = [ad.Tensor(big(mask))] * 3
    assert seg_loss(logits, mask, LossWeights()).item() == pytest.approx(0.0, abs=1e-6)


def test_seg_uniform_half_gives_ln2_ce():
    mask = (rng.uniform(0, 1, (6, 6)) > 0.5).astype(float)
    logits = [ad.Tensor(np.zeros((6, 6)))] * 3
    value = seg_loss(logits, mask, LossWeights(dice=0.0, ce=1.0)).item()
    assert value == pytest.approx(math.log(2.0), abs=1e-12)


def test_seg_empty_mask_dice_vanishes_via_epsilon():
    mask = np.zeros((6, 6))
    logits = [ad.Tensor(np.full((6, 6), -50.0))] * 3
    value = seg_loss(logits, mask, LossWeights(dice=1.0, ce=0.0)).item()
    assert value == pytest.approx(0.0, abs=1e-6)


def test_seg_nonbinary_mask_rejected():
    with pytest.raises(ContractError):
        seg_loss([ad.Tensor(np.zeros((4, 4)))], np.full((4, 4), 0.5), LossWeights())


def test_seg_dice_matches_hand_formula():
    mask = np.zeros((4, 4))
    mask[1:3, 1:3] = 1.0
    probs = rng.uniform(0.1, 0.9, (4, 4))
    logits = np.log(probs / (1 - probs))
    value = seg_loss([ad.Tensor(logits)], mask, LossWeights(dice=1.0, ce=0.0)).item()
    inter = (probs * mask).sum()
    expect = 1 - (2 * inter + 1e-6) / (probs.sum() + mask.sum() + 1e-6)
    assert value == pytest.approx(expect, abs=1e-9)


# ---------------------------------------------------------------------------
# classification loss


def test_cls_examples():
    assert cls_loss(ad.Tensor([0.0, 1.0]), 1).item() == pytest.approx(0.0)
    assert cls_loss(ad.Tensor([0.5, 0.5]), 0).item() == pytest.approx(math.log(2.0))
    assert cls_loss(ad.Tensor([0.1, 0.9]), 1).item() == pytest.approx(
        0.10536051565782628, abs=1e-12)  # -ln 0.9 frozen from closed form


def test_cls_invalid_label():
    with pytest.raises(ContractError):
        cls_loss(ad.Tensor([0.5, 0.5]), 2)


def test_cls_of_a_nan_probability_is_nan_and_total_refuses_it():
    # the clamp keeps p > PROB_CLAMP; a NaN must not be clamped into a finite loss
    probs = ad.Tensor([np.nan, np.nan], requires_grad=True)
    loss = cls_loss(probs, 1)
    assert np.isnan(loss.item())
    ad.backward(loss)
    assert probs.grad[0] == 0.0 and np.isnan(probs.grad[1])
    parts = scalars(1, 2, 3, 4)
    parts[2] = cls_loss(ad.Tensor([np.nan, np.nan]), 1)
    with pytest.raises(NumericalError, match="non-finite cls loss"):
        total_loss(*parts, LossWeights())


# ---------------------------------------------------------------------------
# total loss


def scalars(*values):
    return [ad.Tensor(float(v)) for v in values]


def test_total_unit_weights_sum():
    parts = scalars(1, 2, 3, 4)
    assert total_loss(*parts, LossWeights()).item() == pytest.approx(10.0)


def test_total_zero_parts():
    assert total_loss(*scalars(0, 0, 0, 0), LossWeights()).item() == 0.0


def test_total_tcc_weight_zero_drops_term():
    parts = scalars(1, 2, 3, 4)
    no_tcc = total_loss(*parts, LossWeights(tcc=0.0)).item()
    assert no_tcc == pytest.approx(6.0)


def test_total_linear_in_cls_weight():
    parts = scalars(0.5, 0.25, 2.0, 0.0)
    lo = total_loss(*parts, LossWeights(cls=1.0)).item()
    hi = total_loss(*parts, LossWeights(cls=3.0)).item()
    assert hi - lo == pytest.approx(4.0)


def test_total_names_nonfinite_part():
    parts = scalars(1, 2, 3, 4)
    parts[2] = ad.Tensor(float("nan"))
    with pytest.raises(NumericalError, match="cls"):
        total_loss(*parts, LossWeights())


def test_weights_must_be_nonnegative():
    with pytest.raises(ContractError):
        LossWeights(dice=-0.1).validate()


# ---------------------------------------------------------------------------
# learning-rate schedule


def test_lr_warmup_constant():
    for epoch in range(20):
        assert lr_at(epoch, 1e-4, 20, 100) == 1e-4


def test_lr_continuous_at_boundary():
    assert lr_at(20, 1e-4, 20, 100) == pytest.approx(1e-4)


def test_lr_midpoint_and_endpoint():
    assert lr_at(60, 1e-4, 20, 100) == pytest.approx(5e-5)
    assert lr_at(99, 1e-4, 20, 100) > 0.0
    # formula value at the (never-reached) endpoint epochs is exactly 0
    progress_end = 1e-4 * 0.5 * (1 + math.cos(math.pi))
    assert progress_end == pytest.approx(0.0, abs=1e-20)


def test_lr_non_increasing_after_warmup():
    values = [lr_at(e, 1e-4, 20, 100) for e in range(20, 100)]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_lr_epoch_out_of_range():
    with pytest.raises(ContractError):
        lr_at(100, 1e-4, 20, 100)
    with pytest.raises(ContractError):
        lr_at(-1, 1e-4, 20, 100)


# ---------------------------------------------------------------------------
# optimizer


def make_param(value):
    t = ad.Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)
    return {"p": t}


def test_adam_zero_gradient_no_change():
    params = make_param([1.0, 2.0])
    state = AdamState(params)
    params["p"].grad = np.zeros(2)
    adam_step(params, state, lr=0.1)
    np.testing.assert_array_equal(params["p"].data, [1.0, 2.0])


def test_adam_skips_missing_gradient():
    params = make_param([1.0])
    state = AdamState(params)
    adam_step(params, state, lr=0.1)
    np.testing.assert_array_equal(params["p"].data, [1.0])


def test_adam_first_step_magnitude():
    """Bias correction makes the first update ~lr regardless of |g|."""
    for g in (1e-3, 1.0, 50.0):
        params = make_param([0.0])
        state = AdamState(params)
        params["p"].grad = np.array([g])
        adam_step(params, state, lr=1e-2)
        assert params["p"].data[0] == pytest.approx(-1e-2, rel=1e-4)


def test_adam_nonfinite_gradient_rejected():
    params = make_param([0.0])
    state = AdamState(params)
    params["p"].grad = np.array([float("inf")])
    with pytest.raises(NumericalError, match="'p'"):
        adam_step(params, state, lr=1e-2)


def test_adam_descends_convex_quadratic():
    # f(x) = (x - 3)^2, start at 0, small steps strictly decrease f
    params = make_param([0.0])
    state = AdamState(params)
    prev = (params["p"].data[0] - 3.0) ** 2
    for _ in range(50):
        params["p"].grad = 2 * (params["p"].data - 3.0)
        adam_step(params, state, lr=1e-2)
        params["p"].grad = None
        current = (params["p"].data[0] - 3.0) ** 2
        assert current < prev
        prev = current


def test_adam_deterministic_trajectories():
    def run():
        params = make_param([0.5])
        state = AdamState(params)
        for _ in range(20):
            params["p"].grad = np.sin(params["p"].data)
            adam_step(params, state, lr=3e-3)
            params["p"].grad = None
        return params["p"].data.copy()

    assert run() == run()
