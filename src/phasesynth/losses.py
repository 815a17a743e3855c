"""Multi-task objective, learning-rate schedule, and Adam."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .config import Config
from .errors import ContractError, NumericalError

DICE_EPS = 1e-6
PROB_CLAMP = 1e-7


@dataclass
class LossWeights(Config):
    dice: float = 1.0
    ce: float = 1.0
    cls: float = 1.0
    tcc: float = 1.0
    noun = "loss weights"

    def validate(self):
        if min(self.dice, self.ce, self.cls, self.tcc) < 0:
            raise ContractError("loss weights must be non-negative")


def syn_loss(pred_images, gt_images):
    """Sum over phases of the mean absolute pixel error, as one node.

    The adjoint of each prediction is sign(pred - gt) * g / pixels.
    """
    if len(pred_images) != len(gt_images):
        raise ContractError("phase count mismatch")
    preds = [ad.as_tensor(p) for p in pred_images]
    adjoints = []
    total = np.float64(0.0)
    for pred, gt in zip(preds, gt_images):
        gt = np.asarray(gt, dtype=np.float64)
        if pred.shape != gt.shape:
            raise ContractError(f"image shape mismatch: {pred.shape} vs {gt.shape}")
        d = pred.data - gt
        total = total + np.abs(d).mean()
        adjoints.append(lambda g, d=d: (g / d.size) * np.sign(d))
    return ad.node(total, preds, *adjoints)


def _dice_bce(logits, target, t_sum, weights):
    """One phase's weighted soft Dice + BCE on sigmoid(logits), and a function
    of the term's adjoint that returns the logits' adjoint."""
    y = 1.0 / (1.0 + np.exp(-logits))
    num = (y * target).sum() * 2.0 + DICE_EPS
    den = (y.sum() + t_sum) + DICE_EPS
    keep_p = y > PROB_CLAMP
    p = np.where(keep_p, y, PROB_CLAMP)
    q = 1.0 - y
    keep_q = q > PROB_CLAMP
    q = np.where(keep_q, q, PROB_CLAMP)
    bce = (target * np.log(p) + (1.0 - target) * np.log(q)).mean() * -1.0
    term = (1.0 - num / den) * weights.dice + bce * weights.ce

    def adjoint(g):
        # the float operations, in the order the node-by-node graph ran them
        g_num = -(g * weights.dice) / den
        g_den = (g * weights.dice) * num / (den * den)
        g_ce = (g * weights.ce * -1.0) / y.size
        dy = g_num * 2.0 * target + g_den
        dy = dy + (g_ce * target / p) * keep_p
        dy = dy - (g_ce * (1.0 - target) / q) * keep_q
        return dy * y * (1.0 - y)

    return term, adjoint


def seg_loss(seg_logits_per_phase, gt_mask, weights):
    """Soft Dice + pixel BCE on each phase's logits, averaged over phases,
    as one node.

    The majority vote is not differentiable, so supervision applies to
    the per-phase maps against the shared ground-truth mask. Dice is
    1 - (2 sum(y t) + eps) / (sum(y) + sum(t) + eps) and BCE the mean of
    -(t log y + (1 - t) log(1 - y)), with y = sigmoid(logits) and both
    logs' arguments clamped below at PROB_CLAMP (no gradient below it).
    """
    gt = np.asarray(gt_mask, dtype=np.float64)
    if not np.all((gt == 0) | (gt == 1)):
        raise ContractError("segmentation ground truth must be binary")
    logits = [ad.as_tensor(t) for t in seg_logits_per_phase]
    t_sum = float(gt.sum())
    scale = 1.0 / len(logits)
    total = np.float64(0.0)
    adjoints = []
    for t in logits:
        if t.shape != gt.shape:
            raise ContractError(f"mask shape mismatch: {t.shape} vs {gt.shape}")
        term, adjoint = _dice_bce(t.data, gt, t_sum, weights)
        total = total + term
        adjoints.append(lambda g, adjoint=adjoint: adjoint(g * scale))
    return ad.node(total * scale, logits, *adjoints)


def cls_loss(class_probs, label):
    """Negative log probability of the true class."""
    if label not in (0, 1):
        raise ContractError(f"invalid class label {label}")
    p_true = ad.slice_axis(class_probs, 0, label, label + 1)
    return ad.reshape(ad.scale(ad.log(ad.clip_min(p_true, PROB_CLAMP)), -1.0), ())


def total_loss(l_syn, l_seg, l_cls, l_tcc, weights):
    """Weighted sum ``(syn + seg) + (cls w_cls + tcc w_tcc)`` of the scalar
    parts, as one node; dice/ce weights are already folded into l_seg.

    The forward does the float operations of the add and scale nodes it
    replaces, in their order; the adjoints are g, g, g w_cls and g w_tcc.
    """
    parts = [ad.as_tensor(p) for p in (l_syn, l_seg, l_cls, l_tcc)]
    for name, part in zip(("syn", "seg", "cls", "tcc"), parts):
        if not np.isfinite(part.data).all():
            raise NumericalError(f"non-finite {name} loss")
    w_cls, w_tcc = float(weights.cls), float(weights.tcc)
    syn, seg, cls, tcc = (p.data for p in parts)
    return ad.node((syn + seg) + (cls * w_cls + tcc * w_tcc), parts,
                   lambda g: g, lambda g: g, lambda g: g * w_cls, lambda g: g * w_tcc)


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
