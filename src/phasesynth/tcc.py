"""Temporal classification consistency.

The signal of a phase is the mean in-lesion enhancement of the generated
image over the non-contrast input. A phase is labelled 1 when its signal
exceeds ``TAU`` times the case's largest signal, so wash-in and washout
(malignant on the phantom) label the arterial phase 1 and the delayed
phase 0, and progressive fill (benign) the other way round. The
consistency loss pulls the per-phase classification probabilities toward
those detached labels; nothing here has parameters.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import ContractError

# fraction of the case's peak signal a phase must exceed to be labelled 1
TAU = 0.5


def predict_signal(image, ncmri, mask):
    """Mean of ``image - ncmri`` over the (H, W) lesion pixels ``mask > 0.5``; 0.0 if none."""
    if not np.shape(image) == np.shape(ncmri) == np.shape(mask):
        raise ContractError("image, ncmri and mask differ in shape")
    lesion = mask > 0.5
    if not lesion.any():
        return 0.0
    return float(np.mean(image[lesion] - ncmri[lesion]))


def signal_label(signal, tau):
    """1 iff the float signal strictly exceeds tau. No gradient flows."""
    return 1 if signal > tau else 0


def tcc_loss(per_phase_cls, signal_labels):
    """Sum over phases of ``(p - label) ** 2``, as one node.

    Labels are plain ints (detached targets); gradients reach only the
    classification probabilities. The forward and the adjoints,
    ``g * d + g * d`` with ``d = p - label``, do the float operations of
    the sub, mul and add nodes they replace, in their order.
    """
    if len(per_phase_cls) != len(signal_labels):
        raise ContractError("per-phase predictions and labels differ in length")
    preds = [ad.as_tensor(p) for p in per_phase_cls]
    gaps = [p.data - float(lab) for p, lab in zip(preds, signal_labels)]
    total = sum((d * d for d in gaps), np.float64(0.0))
    return ad.node(total, preds, *(lambda g, d=d: g * d + g * d for d in gaps))
