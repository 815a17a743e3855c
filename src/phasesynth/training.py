"""Training loop, checkpointing, and the ablation sweep. ``TrainConfig`` lives
in ``model``; validation scores with ``metrics.score_case``, as ``evaluate`` does."""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, NumericalError
from .losses import AdamState, adam_step, cls_loss, lr_at, seg_loss, syn_loss, total_loss
from .metrics import REPORT_METRICS, evaluate, score_case
from .model import ABLATIONS, TrainConfig, init_params, run_autoregressive
from .phantom import PHASE_NAMES, load_case, load_manifest
from .tcc import tcc_loss
from .tensorio import save_archive

ABLATION_ORDER = tuple(ABLATIONS)


def manifest_hash(data_dir):
    with open(os.path.join(data_dir, "manifest.json"), "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def case_losses(case, params, cfg, ablation, weights):
    """Forward pass plus all loss parts for one case."""
    bundle = run_autoregressive(case.ncmri, case.tumor_mask, case.times,
                                params, cfg, ablation=ablation)
    l_syn = syn_loss([po.image for po in bundle.phase_outputs], case.phases)
    l_seg = seg_loss([po.seg_logits for po in bundle.phase_outputs],
                     case.tumor_mask, weights)
    l_cls = cls_loss(bundle.class_probs, case.class_label)
    tcc_on = ABLATIONS[ablation][3]
    l_tcc = tcc_loss(bundle.per_phase_cls, bundle.signal_labels) if tcc_on else ad.Tensor(0.0)
    l_total = total_loss(l_syn, l_seg, l_cls, l_tcc, weights)
    return bundle, {"syn": l_syn, "seg": l_seg, "cls": l_cls, "tcc": l_tcc, "total": l_total}


def _validation_pass(cases, params, cfg, ablation, weights):
    """Validation loss and the means of ``score_case``'s figures; ``val_loss``
    leaves out ``l_tcc``, which trains only the auxiliary head and feeds no
    image, mask or class output."""
    params = {name: ad.Tensor(t.data) for name, t in params.items()}  # no tape
    losses, scores = [], []
    for case in cases:
        bundle, parts = case_losses(case, params, cfg, ablation, weights)
        losses.append(parts["syn"].item() + parts["seg"].item()
                      + weights.cls * parts["cls"].item())
        scores.append(score_case(bundle, case))
    return {
        "val_loss": float(np.mean(losses)),
        "val_psnr": float(np.mean([np.mean([s["per_phase"][name]["psnr"] for name in PHASE_NAMES])
                                   for s in scores])),
        "val_dice": float(np.mean([s["seg"]["dice"] for s in scores])),
        "val_acc": sum(s["predicted"] == s["label"] for s in scores) / len(cases),
    }


def train(cfg, data_dir, out_dir, log_hook=None):
    """Run the full loop; writes the best-validation checkpoint and a JSONL log.

    The checkpoint is saved, atomically, each time validation improves, so a
    run that fails later (``NumericalError``) leaves the best epoch so far.
    Deterministic given cfg (including seed): identical configs produce
    bit-identical checkpoints and logs.
    """
    cfg.validate()
    manifest = load_manifest(data_dir, cfg.model.image_size)
    by_split = {"train": [], "val": [], "test": []}
    for entry in manifest["cases"]:
        by_split[entry["split"]].append(entry)
    train_cases = [load_case(data_dir, e, cfg.model.image_size) for e in by_split["train"]]
    val_cases = [load_case(data_dir, e, cfg.model.image_size) for e in by_split["val"]]
    if not train_cases or not val_cases:
        raise ConfigError("dataset must provide non-empty train and val splits")

    rng = np.random.default_rng(cfg.seed)
    params = init_params(cfg.model, rng)
    state = AdamState(params)

    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "train_log.jsonl")
    checkpoint_path = os.path.join(out_dir, "checkpoint.ntar")
    data_hash = manifest_hash(data_dir)

    best = {"val_loss": float("inf"), "epoch": -1, "stats": None}
    records = []
    last_finite_epoch = -1
    with open(log_path, "w") as log_file:
        for epoch in range(cfg.epochs):
            lr = lr_at(epoch, cfg.base_lr, cfg.warmup_epochs, cfg.epochs)
            order = rng.permutation(len(train_cases))
            sums = {"syn": 0.0, "seg": 0.0, "cls": 0.0, "tcc": 0.0, "total": 0.0}
            for start in range(0, len(order), cfg.batch_size):
                batch = sorted(order[start:start + cfg.batch_size])
                ad.zero_grads(params.values())
                for idx in batch:  # grads sum across the batch in case-index order
                    _, parts = case_losses(train_cases[idx], params, cfg.model,
                                           cfg.ablation, cfg.weights)
                    value = parts["total"].item()
                    if not np.isfinite(value):
                        raise NumericalError(
                            f"non-finite loss at epoch {epoch}, case {idx}; "
                            f"last fully finite epoch was {last_finite_epoch}")
                    ad.backward(parts["total"])
                    for key in sums:
                        sums[key] += parts[key].item()
                adam_step(params, state, lr)
            means = {k: v / len(train_cases) for k, v in sums.items()}
            last_finite_epoch = epoch

            stats = _validation_pass(val_cases, params, cfg.model, cfg.ablation, cfg.weights)
            record = {
                "epoch": epoch,
                "lr": lr,
                "l_syn": means["syn"],
                "l_seg": means["seg"],
                "l_cls": means["cls"],
                "l_tcc": means["tcc"],
                "l_total": means["total"],
                **stats,
            }
            records.append(record)
            log_file.write(json.dumps(record, sort_keys=True) + "\n")
            log_file.flush()
            if log_hook is not None:
                log_hook(record)
            if stats["val_loss"] < best["val_loss"]:
                best = {"val_loss": stats["val_loss"], "epoch": epoch, "stats": stats}
                save_archive(checkpoint_path, {name: t.data for name, t in params.items()},
                             meta={"config": cfg.echo(), "epoch": epoch, "val_stats": stats,
                                   "data_manifest_hash": data_hash})
    return {
        "checkpoint": checkpoint_path,
        "log": log_path,
        "best_epoch": best["epoch"],
        "best_val": best["stats"],
        "records": records,
    }


def run_ablation(base_cfg, data_dir, out_dir):
    """Train and evaluate every ablation variant with a shared seed and data.

    Returns the comparison rows in the fixed variant order.
    """
    rows = []
    for variant in ABLATION_ORDER:
        cfg = TrainConfig.from_dict(base_cfg.echo())
        cfg.ablation = variant
        variant_dir = os.path.join(out_dir, variant)
        result = train(cfg, data_dir, variant_dir)
        report = evaluate(result["checkpoint"], data_dir, split="test",
                          out_path=os.path.join(variant_dir, "report.json"))
        agg = report["aggregates"]
        row = {"variant": variant, "data_manifest_hash": manifest_hash(data_dir)}
        for section, names in REPORT_METRICS.items():
            for k in names:  # a phase figure is the mean over the three phases
                row[k] = (float(np.mean([agg[p][k] for p in PHASE_NAMES])) if section == "phase"
                          else agg[section][k])
        rows.append(row)
    return rows


def format_ablation_table(rows):
    cols = ("variant", *(k for names in REPORT_METRICS.values() for k in names))
    lines = ["  ".join(f"{c:>12}" for c in cols)]
    for row in rows:
        cells = []
        for c in cols:
            v = row[c]
            cells.append(f"{v:>12}" if isinstance(v, str) else
                         f"{'n/a':>12}" if v is None else f"{v:>12.4f}")
        lines.append("  ".join(cells))
    return "\n".join(lines)
