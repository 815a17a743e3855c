"""Each benchmark check passes on a correct output and fails on a perturbed one."""

import json

import numpy as np
import pytest

from phasebench import checks
from phasesynth import autodiff as ad
from phasesynth import metrics, tensorio
from phasesynth.attention import DtamConfig, mmhsa_block

rng = np.random.default_rng(5)


def test_fd_probe_catches_a_perturbed_gradient():
    scale = rng.uniform(0.5, 2.0, (4, 3))
    arrays = {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=3)}

    def loss_of(values):
        return float(np.sum(scale * values["w"] ** 2) + np.sum(np.sin(values["b"])))

    grads = {"w": 2.0 * scale * arrays["w"], "b": np.cos(arrays["b"])}
    ok, _ = checks.check_fd_probe(loss_of, arrays, grads, np.random.default_rng(0), per_param=12)
    assert ok
    grads["b"] = grads["b"] * 1.001
    ok, detail = checks.check_fd_probe(loss_of, arrays, grads, np.random.default_rng(0),
                                       per_param=12)
    assert not ok and "b[" in detail


def test_loss_decrease_and_finite_and_identical():
    assert checks.check_loss_decreased([{"l_total": 2.0}, {"l_total": 1.5}])[0]
    assert not checks.check_loss_decreased([{"l_total": 2.0}, {"l_total": 2.0}])[0]
    arrays = {"a": np.ones(3), "b": np.zeros((2, 2))}
    assert checks.check_finite(arrays)[0]
    arrays["b"][1, 0] = np.nan
    assert not checks.check_finite(arrays)[0]
    assert checks.check_identical(["x", "x"])[0]
    assert not checks.check_identical(["x", "y"])[0]
    assert not checks.check_identical(["x"])[0]


def test_readers_match_the_program_writers(tmp_path):
    named = {"m": rng.normal(size=(3, 4)), "s": np.array(2.5), "v": rng.normal(size=5)}
    tensorio.save_archive(tmp_path / "a.ntar", named, meta={"k": 1})
    arrays, meta = checks.read_ntar(tmp_path / "a.ntar")
    assert meta == {"k": 1} and sorted(arrays) == sorted(named)
    for name, value in named.items():
        assert np.array_equal(arrays[name], value)
    image = rng.uniform(0, 1, (6, 9))
    tensorio.save_pgm(tmp_path / "i.pgm", image)
    assert np.array_equal(checks.read_pgm(tmp_path / "i.pgm"), np.round(image * 255))


def test_dtam_reference_matches_and_catches_perturbation():
    dim, heads, sigma = 16, 4, 0.7
    keys = ("att.in_w", "att.in_b", "att.pos", "att.q_w", "att.k_w", "att.v_w",
            "att.out_w", "att.out_b")
    shapes = {"att.in_b": (dim,), "att.out_b": (dim,), "att.pos": (30, dim)}
    arrays = {k: rng.normal(0, 0.3, shapes.get(k, (dim, dim))) for k in keys}
    params = {k: ad.Tensor(v) for k, v in arrays.items()}
    calls = []
    for times in ([0.1] * 4, [0.25] * 4 + [0.1] * 4, [0.6] * 4 + [0.1] * 4 + [0.25] * 4):
        tokens = rng.normal(size=(len(times), dim))
        out = mmhsa_block(ad.Tensor(tokens), np.array(times), DtamConfig(sigma, heads), params)
        calls.append((tokens, np.array(times), out.data))
    assert checks.check_dtam(calls, arrays, sigma, heads)[0]
    bumped = calls[2][2].copy()
    bumped[1, 2] += 1e-6
    assert not checks.check_dtam(calls[:2] + [calls[2][:2] + (bumped,)], arrays, sigma, heads)[0]
    assert not checks.check_dtam(calls[:2], arrays, sigma, heads)[0]
    # the reference depends on sigma, so the decay really enters it
    assert not checks.check_dtam(calls, arrays, 0.8, heads)[0]


def test_class_json_check():
    assert checks.check_class_json({"class_probs": [0.3, 0.7], "predicted": 1})[0]
    assert not checks.check_class_json({"class_probs": [0.3, 0.7], "predicted": 0})[0]
    assert not checks.check_class_json({"class_probs": [0.3, 0.71], "predicted": 1})[0]


def test_mask_vote_check():
    logits = [rng.normal(size=(8, 8)) for _ in range(3)]
    votes = sum((s > 0).astype(int) for s in logits)
    pgm = np.where(votes >= 2, 255, 0).astype(np.uint8)
    assert checks.check_mask_vote(pgm, logits)[0]
    flipped = pgm.copy()
    flipped[3, 4] = 255 - flipped[3, 4]
    assert not checks.check_mask_vote(flipped, logits)[0]
    assert not checks.check_mask_vote(np.where(pgm > 0, 254, 0).astype(np.uint8), logits)[0]


def _report_entry(images, gts, pred, gt):
    per_phase = {p: {"mse": metrics.mse(i, g), "psnr": metrics.psnr(i, g),
                     "ssim": metrics.ssim(i, g)} for p, i, g in zip(checks.PHASES, images, gts)}
    return {"id": "case_0000", "per_phase": per_phase,
            "seg": {"dice": metrics.dice(pred, gt), "iou": metrics.iou(pred, gt),
                    "hd95": metrics.hd95(pred, gt), "asd": metrics.asd(pred, gt)}}


@pytest.mark.parametrize("field", ["ssim", "psnr", "dice", "hd95", "asd"])
def test_case_metrics_check(field):
    images = [rng.uniform(0, 1, (16, 16)) for _ in range(3)]
    gts = [np.clip(i + rng.normal(0, 0.05, i.shape), 0, 1) for i in images]
    gt = np.zeros((16, 16), np.uint8)
    gt[4:11, 3:12] = 1
    pred = np.zeros_like(gt)
    pred[5:12, 4:10] = 1
    entry = _report_entry(images, gts, pred, gt)
    assert checks.check_case_metrics(entry, images, gts, pred, gt)[0]
    if field in ("ssim", "psnr"):
        entry["per_phase"]["pv"][field] += 1e-6
    else:
        entry["seg"][field] += 1e-6
    assert not checks.check_case_metrics(entry, images, gts, pred, gt)[0]


def _report():
    cases = []
    for i, (pred, label) in enumerate([(1, 1), (0, 1), (0, 0), (1, 0), (1, 1)]):
        cases.append({
            "id": f"case_{i:04d}", "predicted": pred, "label": label,
            "per_phase": {p: {"mse": 0.01 * i, "psnr": 20.0 + i, "ssim": 0.5 + 0.1 * i}
                          for p in checks.PHASES},
            "seg": {"dice": 0.8, "iou": 0.7, "hd95": None if i == 2 else 1.5 * i,
                    "asd": None if i == 2 else 0.5 * i}})
    agg = {p: {k: float(np.mean([c["per_phase"][p][k] for c in cases]))
               for k in ("mse", "psnr", "ssim")} for p in checks.PHASES}
    agg["seg"] = {k: float(np.mean([c["seg"][k] for c in cases if c["seg"][k] is not None]))
                  for k in ("dice", "iou", "hd95", "asd")}
    agg["classification"] = {"confusion": {"tp": 2, "tn": 1, "fp": 1, "fn": 1}}
    return {"case_count": len(cases), "cases": cases, "aggregates": agg}


def test_aggregates_check():
    report = _report()
    assert checks.check_aggregates(report)[0]
    bad = json.loads(json.dumps(report))
    bad["aggregates"]["delay"]["ssim"] += 1e-6
    assert not checks.check_aggregates(bad)[0]
    bad = json.loads(json.dumps(report))
    bad["aggregates"]["classification"]["confusion"]["tn"] = 2
    assert not checks.check_aggregates(bad)[0]
    bad = json.loads(json.dumps(report))
    bad["aggregates"]["classification"]["confusion"].update(tp=1, fn=2)
    assert not checks.check_aggregates(bad)[0]
