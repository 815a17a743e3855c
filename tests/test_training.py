"""Training loop: logging, checkpointing, determinism, ablation plumbing."""

import json
import os

import numpy as np
import pytest

from phasesynth.errors import ConfigError
from phasesynth.losses import LossWeights
from phasesynth.metrics import load_checkpoint
from phasesynth.phantom import load_case, load_manifest
from phasesynth.tensorio import load_archive
from phasesynth.training import (ABLATION_ORDER, TrainConfig, case_losses,
                                 format_ablation_table, manifest_hash, train)

LOG_FIELDS = {"epoch", "lr", "l_syn", "l_seg", "l_cls", "l_tcc", "l_total",
              "val_loss", "val_psnr", "val_dice", "val_acc"}


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=5, warmup_epochs=5).validate()
    with pytest.raises(ConfigError):
        TrainConfig(base_lr=0.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(ablation="nope").validate()


def test_config_round_trip():
    cfg = TrainConfig(epochs=7, seed=9, ablation="no_dtam")
    again = TrainConfig.from_dict(cfg.echo())
    assert again.echo() == cfg.echo()


def test_ablation_order_matches_reported_table():
    assert ABLATION_ORDER == ("baseline", "no_dtam", "no_cte", "no_t_encoding", "full")


def test_train_outputs_and_log_schema(tiny_run):
    assert os.path.exists(tiny_run["checkpoint"])
    with open(tiny_run["log"]) as f:
        records = [json.loads(line) for line in f]
    assert len(records) == 2
    for rec in records:
        assert set(rec) == LOG_FIELDS
    assert records[0]["epoch"] == 0
    _, cfg, meta = load_checkpoint(tiny_run["checkpoint"])
    assert meta["config"]["seed"] == 3
    assert meta["config"]["ablation"] == "full"
    assert meta["data_manifest_hash"] == manifest_hash(tiny_run["data"])
    assert meta["epoch"] == tiny_run["best_epoch"]


def test_checkpoint_holds_every_parameter(tiny_run):
    from phasesynth.model import ModelConfig, init_params

    arrays, _ = load_archive(tiny_run["checkpoint"])
    reference = init_params(ModelConfig(), np.random.default_rng(0))
    assert set(arrays) == set(reference)
    for name, tensor in reference.items():
        assert arrays[name].shape == tensor.data.shape


def test_train_determinism_bit_identical(tiny_dataset, tmp_path):
    cfg = TrainConfig(epochs=2, warmup_epochs=1, seed=11)
    train(cfg, tiny_dataset, str(tmp_path / "a"))
    cfg2 = TrainConfig(epochs=2, warmup_epochs=1, seed=11)
    train(cfg2, tiny_dataset, str(tmp_path / "b"))
    ck_a = (tmp_path / "a" / "checkpoint.ntar").read_bytes()
    ck_b = (tmp_path / "b" / "checkpoint.ntar").read_bytes()
    assert ck_a == ck_b
    log_a = (tmp_path / "a" / "train_log.jsonl").read_bytes()
    log_b = (tmp_path / "b" / "train_log.jsonl").read_bytes()
    assert log_a == log_b


def test_seed_changes_checkpoint(tiny_dataset, tmp_path):
    train(TrainConfig(epochs=1, warmup_epochs=0, seed=1), tiny_dataset,
          str(tmp_path / "a"))
    train(TrainConfig(epochs=1, warmup_epochs=0, seed=2), tiny_dataset,
          str(tmp_path / "b"))
    assert (tmp_path / "a" / "checkpoint.ntar").read_bytes() \
        != (tmp_path / "b" / "checkpoint.ntar").read_bytes()


def test_loss_decreases_on_tiny_run(tiny_run):
    records = tiny_run["records"]
    assert records[-1]["l_total"] < records[0]["l_total"]


def test_baseline_training_skips_decay_and_tcc(tiny_dataset, tmp_path, monkeypatch):
    from phasesynth import attention

    calls = {"n": 0}
    original = attention.gaussian_decay

    def counting(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(attention, "gaussian_decay", counting)
    cfg = TrainConfig(epochs=1, warmup_epochs=0, seed=5, ablation="baseline")
    result = train(cfg, tiny_dataset, str(tmp_path / "run"))
    assert calls["n"] == 0
    assert result["records"][0]["l_tcc"] == 0.0


def test_case_losses_parts_are_finite(tiny_dataset):
    from phasesynth.model import ModelConfig, init_params

    manifest = load_manifest(tiny_dataset)
    case = load_case(tiny_dataset, manifest["cases"][0])
    cfg = ModelConfig()
    params = init_params(cfg, np.random.default_rng(0))
    _, parts = case_losses(case, params, cfg, "full", LossWeights())
    for name, part in parts.items():
        assert np.isfinite(part.item()), name


def test_val_loss_leaves_out_tcc(tiny_dataset):
    from phasesynth.model import ModelConfig, init_params
    from phasesynth.training import _validation_pass

    case = load_case(tiny_dataset, load_manifest(tiny_dataset)["cases"][0])
    cfg = ModelConfig()
    params = init_params(cfg, np.random.default_rng(0))
    weights = LossWeights(cls=2.0, tcc=5.0)
    stats = _validation_pass([case], params, cfg, "full", weights)
    _, parts = case_losses(case, params, cfg, "full", weights)
    assert parts["tcc"].item() > 0.0
    assert stats["val_loss"] == (parts["syn"].item() + parts["seg"].item()
                                 + 2.0 * parts["cls"].item())


def test_image_size_mismatch_rejected(tiny_dataset, tmp_path):
    cfg = TrainConfig(epochs=1, warmup_epochs=0)
    cfg.model.image_size = 32
    cfg.model.patch_size = 8
    with pytest.raises(ConfigError):
        train(cfg, tiny_dataset, str(tmp_path / "run"))


def test_format_ablation_table_shape():
    rows = [{"variant": v, "mse": 0.01, "psnr": 25.0, "ssim": 0.9, "dice": 0.9,
             "iou": 0.8, "hd95": None, "asd": 1.0, "accuracy": 1.0,
             "sensitivity": 1.0, "specificity": 1.0, "f1": 1.0}
            for v in ABLATION_ORDER]
    table = format_ablation_table(rows)
    lines = table.splitlines()
    assert len(lines) == 6
    assert "baseline" in lines[1] and "full" in lines[5]
    assert "n/a" in lines[1]


def count_tape_nodes(loss):
    """Operation nodes behind ``loss``: tensors with a gradient and parents,
    the count the benchmark reports as ``autodiff.tape_nodes``."""
    seen, stack, count = set(), [loss], 0
    while stack:
        node = stack.pop()
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        if node._parents:
            count += 1
            stack.extend(node._parents)
    return count


def test_default_model_case_tape_is_short_and_keeps_its_parts():
    from phasesynth import autodiff as ad
    from phasesynth.model import ModelConfig, init_params
    from phasesynth.phantom import LesionSpec, generate_case

    spec = LesionSpec(center=(30, 33), radii=(8.0, 6.0), class_label=1,
                      base_intensity=0.6, amplitude=0.25, noise_sigma=0.01)
    case = generate_case(spec, (0.1, 0.25, 1.0), seed=3)
    cfg = ModelConfig()
    params = init_params(cfg, np.random.default_rng(0))
    _, parts = case_losses(case, params, cfg, "full", LossWeights())
    # the benchmark's finite-difference probe reads these parts
    for name in ("syn", "seg", "cls", "total"):
        assert isinstance(parts[name], ad.Tensor) and parts[name].shape == ()
    assert count_tape_nodes(parts["total"]) <= 108


def test_evaluate_report_numbers_are_python_scalars(tiny_run):
    from phasesynth.metrics import evaluate

    report = evaluate(tiny_run["checkpoint"], tiny_run["data"], split="test")
    found = []

    def walk(value, path):
        if isinstance(value, dict):
            for key, item in value.items():
                walk(item, f"{path}.{key}")
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                walk(item, f"{path}[{i}]")
        elif value is not None and not isinstance(value, str):
            found.append((path, type(value)))

    walk(report, "report")
    assert found
    bad = [(path, t) for path, t in found if t not in (float, int, bool)]
    assert not bad, bad[:5]
