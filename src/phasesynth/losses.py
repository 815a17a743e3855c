"""Multi-task objective, learning-rate schedule, and Adam."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ContractError, NumericalError

DICE_EPS = 1e-6
PROB_CLAMP = 1e-7


@dataclass
class LossWeights:
    dice: float = 1.0
    ce: float = 1.0
    cls: float = 1.0
    tcc: float = 1.0

    def validate(self):
        if min(self.dice, self.ce, self.cls, self.tcc) < 0:
            raise ContractError("loss weights must be non-negative")


def syn_loss(pred_images, gt_images):
    """Sum over phases of the mean absolute pixel error."""
    if len(pred_images) != len(gt_images):
        raise ContractError("phase count mismatch")
    total = ad.Tensor(0.0)
    for pred, gt in zip(pred_images, gt_images):
        gt = np.asarray(gt, dtype=np.float64)
        if pred.shape != gt.shape:
            raise ContractError(f"image shape mismatch: {pred.shape} vs {gt.shape}")
        total = ad.add(total, ad.reduce_mean(ad.abs_val(ad.sub(pred, ad.Tensor(gt)))))
    return total


def _bce(probs, target):
    p = ad.clip_min(probs, PROB_CLAMP)
    q = ad.clip_min(ad.sub(ad.Tensor(np.ones_like(target)), probs), PROB_CLAMP)
    pos = ad.mul(ad.Tensor(target), ad.log(p))
    neg = ad.mul(ad.Tensor(1.0 - target), ad.log(q))
    return ad.scale(ad.reduce_mean(ad.add(pos, neg)), -1.0)


def _soft_dice(probs, target):
    inter = ad.reduce_sum(ad.mul(probs, ad.Tensor(target)))
    denom = ad.add(ad.reduce_sum(probs), ad.Tensor(float(target.sum())))
    overlap = ad.div(ad.add(ad.scale(inter, 2.0), ad.Tensor(DICE_EPS)),
                     ad.add(denom, ad.Tensor(DICE_EPS)))
    return ad.sub(ad.Tensor(1.0), overlap)


def seg_loss(seg_logits_per_phase, gt_mask, weights):
    """Soft Dice + pixel BCE on each phase's logits, averaged over phases.

    The majority vote is not differentiable, so supervision applies to
    the per-phase maps against the shared ground-truth mask.
    """
    gt = np.asarray(gt_mask, dtype=np.float64)
    if not np.all((gt == 0) | (gt == 1)):
        raise ContractError("segmentation ground truth must be binary")
    total = ad.Tensor(0.0)
    for logits in seg_logits_per_phase:
        if logits.shape != gt.shape:
            raise ContractError(f"mask shape mismatch: {logits.shape} vs {gt.shape}")
        probs = ad.sigmoid(logits)
        term = ad.add(ad.scale(_soft_dice(probs, gt), weights.dice),
                      ad.scale(_bce(probs, gt), weights.ce))
        total = ad.add(total, term)
    return ad.scale(total, 1.0 / len(seg_logits_per_phase))


def cls_loss(class_probs, label):
    """Negative log probability of the true class."""
    if label not in (0, 1):
        raise ContractError(f"invalid class label {label}")
    p_true = ad.slice_axis(class_probs, 0, label, label + 1)
    return ad.reshape(ad.scale(ad.log(ad.clip_min(p_true, PROB_CLAMP)), -1.0), ())


def total_loss(l_syn, l_seg, l_cls, l_tcc, weights):
    """Weighted sum; dice/ce weights are already folded into l_seg."""
    for name, part in (("syn", l_syn), ("seg", l_seg), ("cls", l_cls), ("tcc", l_tcc)):
        if not np.isfinite(part.data).all():
            raise NumericalError(f"non-finite {name} loss")
    return ad.add(ad.add(l_syn, l_seg),
                  ad.add(ad.scale(l_cls, weights.cls), ad.scale(l_tcc, weights.tcc)))


def lr_at(epoch, base_lr, warmup_epochs, epochs):
    """Constant warmup, then cosine decay to zero at the final epoch count."""
    if not 0 <= epoch < epochs:
        raise ContractError(f"epoch {epoch} outside [0, {epochs})")
    if epoch < warmup_epochs:
        return base_lr
    progress = (epoch - warmup_epochs) / (epochs - warmup_epochs)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


class AdamState:
    def __init__(self, params):
        self.step = 0
        self.m = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.items()}


def adam_step(params, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """In-place bias-corrected Adam update from accumulated ``grad`` buffers."""
    state.step += 1
    t = state.step
    for name in sorted(params):
        p = params[name]
        g = p.grad
        if g is None:
            continue
        if not np.isfinite(g).all():
            raise NumericalError(f"non-finite gradient for parameter {name!r}")
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)
