"""Evaluation metrics and the split-level evaluation harness.

Geometric metrics use explicit boundary extraction and exact Euclidean
distances so they can be checked against brute-force references. SSIM
uses uniform 8x8 windows (stride 1) with population statistics
(var = E[x^2] - mu^2); every window mean comes from a separable box sum,
8 shifted row slices and then 8 shifted column slices, divided by 64, so
no per-window copy of the image is made. HD95 interpolates the sorted
distances exactly as ``np.percentile`` does by default. PSNR is capped
at 100 dB so aggregates over identical images stay finite; a NaN error
gives a NaN PSNR, never the cap.

Validation takes the means of ``score_case``; ``evaluate`` builds each report
entry on it and adds SSIM, IoU, the surface distances and ``class_record``.
"""

from __future__ import annotations

import json
import os

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ContractError
from .model import ModelConfig, TrainConfig, param_shapes, run_autoregressive
from .phantom import PHASE_NAMES, load_case, load_manifest
from .tensorio import load_archive

PSNR_CAP = 100.0
SSIM_WINDOW = 8
SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2
# the figures a report aggregates and the ablation table shows, by report
# section; "phase" stands for each of PHASE_NAMES
REPORT_METRICS = {"phase": ("mse", "psnr", "ssim"), "seg": ("dice", "iou", "hd95", "asd"),
                  "classification": ("accuracy", "sensitivity", "specificity", "f1")}


def mse(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ContractError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


def psnr(a, b):
    """10 log10(1 / MSE) for data range 1, capped at 100 dB; NaN for a NaN MSE."""
    return _psnr_of_mse(mse(a, b))


def _psnr_of_mse(err):
    if err <= 0.0:
        return PSNR_CAP
    # np.minimum keeps a NaN error NaN; min(PSNR_CAP, nan) would read as a perfect score
    return float(np.minimum(PSNR_CAP, 10.0 * np.log10(1.0 / err)))


def ssim(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ContractError(f"shape mismatch: {a.shape} vs {b.shape}")
    if min(a.shape) < SSIM_WINDOW:
        raise ContractError(f"image smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} SSIM window")
    mu_a, mu_b = _box_mean(a), _box_mean(b)
    var_a = _box_mean(a * a) - mu_a ** 2
    var_b = _box_mean(b * b) - mu_b ** 2
    cov = _box_mean(a * b) - mu_a * mu_b
    score = ((2 * mu_a * mu_b + SSIM_C1) * (2 * cov + SSIM_C2)) / (
        (mu_a ** 2 + mu_b ** 2 + SSIM_C1) * (var_a + var_b + SSIM_C2))
    return float(score.mean())


def _box_mean(x):
    """Mean of every SSIM_WINDOW x SSIM_WINDOW window of x (stride 1)."""
    w = SSIM_WINDOW
    rows, cols = x.shape[0] - w + 1, x.shape[1] - w + 1
    col_sums = x[:rows].copy()
    for i in range(1, w):
        col_sums += x[i:i + rows]
    sums = col_sums[:, :cols].copy()
    for j in range(1, w):
        sums += col_sums[:, j:j + cols]
    return sums / (w * w)


def _check_binary(mask):
    arr = np.asarray(mask)
    if not np.all((arr == 0) | (arr == 1)):
        raise ContractError("mask must be binary")
    return arr.astype(bool)


def dice(p, q):
    p, q = _check_binary(p), _check_binary(q)
    if p.shape != q.shape:
        raise ContractError(f"shape mismatch: {p.shape} vs {q.shape}")
    denom = p.sum() + q.sum()
    if denom == 0:
        return 1.0
    return float(2.0 * np.logical_and(p, q).sum() / denom)


def iou(p, q):
    p, q = _check_binary(p), _check_binary(q)
    if p.shape != q.shape:
        raise ContractError(f"shape mismatch: {p.shape} vs {q.shape}")
    union = np.logical_or(p, q).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(p, q).sum() / union)


def boundary_pixels(mask):
    """Mask pixels with at least one background 4-neighbor (image border counts)."""
    m = _check_binary(mask)
    padded = np.pad(m, 1, constant_values=False)
    interior = (padded[:-2, 1:-1] & padded[2:, 1:-1]
                & padded[1:-1, :-2] & padded[1:-1, 2:])
    return np.argwhere(m & ~interior)


def _surface_distances(p, q):
    bp = boundary_pixels(p)
    bq = boundary_pixels(q)
    if len(bp) == 0 or len(bq) == 0:
        return None
    d = np.sqrt(((bp[:, None, :] - bq[None, :, :]) ** 2).sum(axis=2))
    return np.concatenate([d.min(axis=1), d.min(axis=0)])


def hd95(p, q):
    """95th percentile (linear interpolation) of symmetric boundary distances."""
    return _hd95_asd(_surface_distances(p, q))[0]


def asd(p, q):
    """Mean of the pooled symmetric boundary distance set."""
    return _hd95_asd(_surface_distances(p, q))[1]


def _hd95_asd(dists):
    """(hd95, asd) of one pooled distance set; both infinite when it is None."""
    if dists is None:
        return float("inf"), float("inf")
    return _percentile95(dists), float(dists.mean())


def _percentile95(values):
    """np.percentile(values, 95.0) to the bit, without np.percentile.

    Linear interpolation between the sorted neighbours of 0.95 (n - 1),
    with NumPy's rule for which end to interpolate from.
    (``np.percentile`` goes through ``np.unique``, which imports numpy.ma.)
    """
    s = np.sort(values)
    pos = 0.95 * (len(s) - 1)
    i = int(pos)
    t = pos - i
    a, b = s[i], s[min(i + 1, len(s) - 1)]
    diff = b - a
    return float(b - diff * (1 - t) if t >= 0.5 else a + diff * t)


def classification_metrics(predictions, labels):
    """Accuracy, sensitivity, specificity, F1 with malignant (1) positive.

    Zero-denominator cases contribute 0 and are listed in the flags.
    """
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if predictions.shape != labels.shape:
        raise ContractError("prediction/label length mismatch")
    tp = int(np.sum((predictions == 1) & (labels == 1)))
    tn = int(np.sum((predictions == 0) & (labels == 0)))
    fp = int(np.sum((predictions == 1) & (labels == 0)))
    fn = int(np.sum((predictions == 0) & (labels == 1)))
    flags = []

    def ratio(num, den, name):
        if den == 0:
            flags.append(name)
            return 0.0
        return num / den

    accuracy = ratio(tp + tn, tp + tn + fp + fn, "accuracy")
    sensitivity = ratio(tp, tp + fn, "sensitivity")
    specificity = ratio(tn, tn + fp, "specificity")
    precision = ratio(tp, tp + fp, "precision")
    if precision + sensitivity == 0:
        flags.append("f1")
        f1 = 0.0
    else:
        f1 = 2 * precision * sensitivity / (precision + sensitivity)
    return {
        "accuracy": accuracy,
        "sensitivity": sensitivity,
        "specificity": specificity,
        "f1": f1,
        "confusion": {"tp": tp, "tn": tn, "fp": fp, "fn": fn},
        "flags": flags,
    }


# ---------------------------------------------------------------------------
# harness


def load_checkpoint(path):
    """Return (params, ModelConfig, meta). The stored config is read once, as a
    complete ``TrainConfig`` that passes ``validate``, and ``meta["config"]`` is
    its echo, so callers read ``ablation`` and ``seed`` from it unchecked. The
    tensors must be exactly the names and shapes ``param_shapes`` gives for the
    model config, and hold only finite values."""
    arrays, meta = load_archive(path)
    try:
        train_cfg = TrainConfig.from_dict(meta["config"], complete=True)
        train_cfg.validate()
    except (KeyError, TypeError, ValueError) as exc:
        # an archive from an earlier model version: name what it holds beyond today's
        stale = sorted(arrays.keys() - param_shapes(ModelConfig()).keys())
        raise ContractError(f"{path}: missing or malformed train or model config ({exc!r})"
                            + (f"; tensors the default model lacks: {stale}" if stale else "")
                            ) from None
    meta["config"] = train_cfg.echo()
    expected = param_shapes(train_cfg.model)
    missing = sorted(expected.keys() - arrays.keys())
    extra = sorted(arrays.keys() - expected.keys())
    if missing or extra:
        raise ContractError(f"{path}: parameters missing {missing}, unexpected {extra}")
    for name, shape in expected.items():
        if arrays[name].shape != shape:
            raise ContractError(
                f"{path}: parameter {name!r} has shape {arrays[name].shape}, "
                f"the model config needs {shape}")
        if not np.isfinite(arrays[name]).all():
            raise ContractError(f"{path}: parameter {name!r} holds a NaN or infinite value")
    params = {name: ad.Tensor(arr) for name, arr in arrays.items()}
    return params, train_cfg.model, meta


def score_case(bundle, case):
    """The figures of one forward pass that validation and ``evaluate`` share:
    per-phase MSE and PSNR, the Dice of the majority-vote mask, the predicted
    class and the label, keyed as in a report entry."""
    per_phase = {}
    for name, po, gt in zip(PHASE_NAMES, bundle.phase_outputs, case.phases):
        err = mse(po.image.data, gt)
        per_phase[name] = {"mse": err, "psnr": _psnr_of_mse(err)}
    return {
        "label": case.class_label,
        "predicted": bundle.predicted,
        "per_phase": per_phase,
        "seg": {"dice": dice(bundle.aggregated_mask, case.tumor_mask)},
    }


def class_record(bundle):
    """One pass's class fields, as ``evaluate``'s entries and ``<id>_class.json`` hold them."""
    return {"class_probs": bundle.class_probs.data.tolist(), "predicted": bundle.predicted,
            "per_phase_cls": [p.item() for p in bundle.per_phase_cls],
            "signals": bundle.signals, "signal_labels": bundle.signal_labels}


def _finite_mean(values):
    vals = [v for v in values if v is not None and np.isfinite(v)]
    return float(np.mean(vals)) if vals else None


def evaluate(checkpoint_path, data_dir, split="test", out_path=None):
    """Run the model over one split and assemble a MetricsReport."""
    params, cfg, meta = load_checkpoint(checkpoint_path)
    manifest = load_manifest(data_dir, cfg.image_size)
    entries = [e for e in manifest["cases"] if e["split"] == split]
    if not entries:
        raise ConfigError(f"split {split!r} has no cases")

    cases_out = []
    for entry in entries:
        case = load_case(data_dir, entry, cfg.image_size)
        bundle = run_autoregressive(case.ncmri, case.tumor_mask, case.times,
                                    params, cfg, ablation=meta["config"]["ablation"])
        scores = score_case(bundle, case)
        for name, po, gt in zip(PHASE_NAMES, bundle.phase_outputs, case.phases):
            scores["per_phase"][name]["ssim"] = ssim(po.image.data, gt)
        h, a = _hd95_asd(_surface_distances(bundle.aggregated_mask, case.tumor_mask))
        empty = not np.isfinite(h)
        scores["seg"].update(iou=iou(bundle.aggregated_mask, case.tumor_mask),
                             hd95=None if empty else h, asd=None if empty else a,
                             empty_mask=empty)
        cases_out.append({"id": entry["id"], "split": split, **scores, **class_record(bundle)})

    aggregates = {"classification": classification_metrics(
        [c["predicted"] for c in cases_out], [c["label"] for c in cases_out])}
    for name in PHASE_NAMES:
        aggregates[name] = {
            k: _finite_mean(c["per_phase"][name][k] for c in cases_out)
            for k in REPORT_METRICS["phase"]
        }
    aggregates["seg"] = {
        k: _finite_mean(c["seg"][k] for c in cases_out)
        for k in REPORT_METRICS["seg"]
    }
    aggregates["seg"]["empty_mask_count"] = sum(c["seg"]["empty_mask"] for c in cases_out)

    report = {
        "schema_version": 1,
        "split": split,
        "case_count": len(cases_out),
        "checkpoint_config": meta["config"],
        "cases": cases_out,
        "aggregates": aggregates,
    }
    if out_path is not None:
        os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
        with open(out_path, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
    return report
