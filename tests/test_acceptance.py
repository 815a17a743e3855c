"""Acceptance suite: one test (and one verbose pass/fail line) per criterion.

Criteria, in order:
  1. gradient suite           -- analytic vs finite-difference, every op
  2. decayed-attention laws   -- stochasticity, monotonicity, large-sigma oracle
  3. causality                -- truncated vs full phase loops, bit-identical
  4. metric oracles           -- brute-force / closed-form references
  5. phantom end-to-end       -- default-scale training hits quality bars
  6. ablation trend           -- mechanism components help, direction only
  7. consistency-loss behavior-- zero iff agreement; participates in training
  8. determinism              -- identical runs, bit-identical artifacts

The two training-based criteria (5, 6) run real trainings and dominate
the suite's wall time.
"""

import itertools
import json
import time
from functools import partial

import numpy as np
import pytest

from conftest import FD_RTOL, FD_STEP, check_gradients, dtam_weights, numeric_grad_at
import refops as ro
from phasesynth import autodiff as ad
from phasesynth.attention import DtamConfig, decay_log_bias, mmhsa_block
from phasesynth.encoder import build_conditional_token, depatchify, encode_features
from phasesynth.losses import LossWeights, seg_loss, syn_loss
from phasesynth.metrics import (asd, dice, evaluate, hd95, iou, load_checkpoint,
                                mse, psnr, ssim)
from phasesynth.model import ModelConfig, init_params, run_autoregressive, synthesize_phase
from phasesynth.phantom import PhantomConfig, generate_dataset, load_case, load_manifest
from phasesynth.tcc import TAU, tcc_loss
from phasesynth.training import ABLATION_ORDER, TrainConfig, train

rng = np.random.default_rng(2024)

# frozen configuration for the ablation-trend criterion: a 60-case phantom
# and a 100-epoch budget, shared across all five variants
ABLATION_CASES = 60
ABLATION_DATA_SEED = 42
ABLATION_TRAIN_SEED = 2


def small_model(seed=0):
    cfg = ModelConfig(image_size=16, patch_size=8, embed_dim=16, depth=1)
    return cfg, init_params(cfg, np.random.default_rng(seed))


def random_case(seed, size=16):
    r = np.random.default_rng(seed)
    img = r.uniform(0, 1, (size, size))
    mask = np.zeros((size, size))
    mask[4:9, 6:11] = 1.0
    return img, mask


# ---------------------------------------------------------------------------
# shared fixtures (session scope: each training runs once)


@pytest.fixture(scope="session")
def small_ds(tmp_path_factory):
    out = tmp_path_factory.mktemp("acc_small_ds")
    cfg = PhantomConfig(case_count=12, master_seed=7, split_fractions=(0.5, 0.25, 0.25))
    generate_dataset(cfg, str(out))
    return str(out)


@pytest.fixture(scope="session")
def default_run(tmp_path_factory):
    """Default-scale pipeline: 200-case dataset, 100-epoch training, report."""
    data = tmp_path_factory.mktemp("acc_default_ds")
    run = tmp_path_factory.mktemp("acc_default_run")
    t0 = time.time()
    generate_dataset(PhantomConfig(), str(data))
    result = train(TrainConfig(), str(data), str(run))
    report = evaluate(result["checkpoint"], str(data), split="test",
                      out_path=str(run / "report.json"))
    elapsed = time.time() - t0
    return {"data": str(data), "report": report, "elapsed": elapsed}


@pytest.fixture(scope="session")
def ablation_rows(tmp_path_factory):
    """All five variants trained on the frozen shared dataset and seed."""
    data = tmp_path_factory.mktemp("acc_ablation_ds")
    cfg = PhantomConfig(case_count=ABLATION_CASES, master_seed=ABLATION_DATA_SEED)
    generate_dataset(cfg, str(data))
    rows = {}
    for variant in ABLATION_ORDER:
        tc = TrainConfig(epochs=100, warmup_epochs=20,
                         seed=ABLATION_TRAIN_SEED, ablation=variant)
        out = tmp_path_factory.mktemp(f"acc_abl_{variant}")
        result = train(tc, str(data), str(out))
        report = evaluate(result["checkpoint"], str(data), split="test")
        agg = report["aggregates"]
        rows[variant] = {
            "psnr": float(np.mean([agg[p]["psnr"] for p in ("art", "pv", "delay")])),
            "dice": agg["seg"]["dice"],
            "accuracy": agg["classification"]["accuracy"],
        }
    return rows


# ---------------------------------------------------------------------------
# criterion 1: gradient suite


def _probed(op, r, *arg_names):
    """Builder computing sum(op(args) * random_probe); probe fixed per trial."""
    probe = {}

    def build(t):
        out = op(*[t[n] for n in arg_names])
        if "p" not in probe:
            probe["p"] = r.uniform(-1, 1, out.shape)
        return ro.reduce_sum(ro.mul(out, ad.Tensor(probe["p"])))

    return build


def _op_cases(r):
    """(name, arrays, builder) triples; inputs avoid non-differentiable kinks."""
    def away_from_zero(shape):
        return r.uniform(0.1, 1.0, shape) * r.choice([-1.0, 1.0], shape)

    a34 = lambda: r.uniform(-1, 1, (3, 4))
    syn_a, syn_b = a34(), a34()
    syn_gts = [syn_a - away_from_zero((3, 4)), syn_b - away_from_zero((3, 4))]
    seg_gt = (r.uniform(0, 1, (3, 4)) > 0.5).astype(float)
    cases = [
        ("add", {"a": a34(), "b": r.uniform(-1, 1, 4)}, ad.add, ("a", "b")),
        ("sub", {"a": a34(), "b": a34()}, ro.sub, ("a", "b")),
        ("mul", {"a": a34(), "b": a34()}, ro.mul, ("a", "b")),
        ("div", {"a": a34(), "b": away_from_zero((3, 4))}, ro.div, ("a", "b")),
        ("scale", {"a": a34()}, lambda x: ro.scale(x, -1.7), ("a",)),
        ("exp", {"a": a34()}, ro.exp, ("a",)),
        ("log", {"a": r.uniform(0.1, 2.0, (3, 4))}, ro.log, ("a",)),
        ("sigmoid", {"a": 3 * a34()}, ad.sigmoid, ("a",)),
        ("relu", {"a": away_from_zero((3, 4))}, ad.relu, ("a",)),
        ("abs", {"a": away_from_zero((3, 4))}, ro.abs_val, ("a",)),
        ("clip_min", {"a": 0.5 + away_from_zero((3, 4))},
         lambda x: ro.clip_min(x, 0.5), ("a",)),
        ("matmul", {"a": a34(), "b": r.uniform(-1, 1, (4, 2))}, ad.matmul, ("a", "b")),
        ("transpose", {"a": a34()}, ro.transpose, ("a",)),
        ("reshape", {"a": a34()}, lambda x: ad.reshape(x, (4, 3)), ("a",)),
        ("concat", {"a": a34(), "b": a34()},
         lambda x, y: ad.concat([x, y], axis=0), ("a", "b")),
        ("slice", {"a": a34()}, lambda x: ad.slice_axis(x, 1, 1, 3), ("a",)),
        ("reduce_sum", {"a": a34()}, lambda x: ro.reduce_sum(x, axis=0), ("a",)),
        ("reduce_mean", {"a": a34()}, lambda x: ad.reduce_mean(x, axis=1), ("a",)),
        ("softmax", {"a": 2 * a34()}, ad.softmax_last_axis, ("a",)),
        ("linear", {"a": a34(), "b": r.uniform(-1, 1, (4, 2))},
         lambda x, w: ad.linear(x, w), ("a", "b")),
        ("linear_bias", {"a": a34(), "b": r.uniform(-1, 1, (4, 2)), "c": r.uniform(-1, 1, 2)},
         ad.linear, ("a", "b", "c")),
        ("linear_bias_1d", {"a": r.uniform(-1, 1, 4), "b": r.uniform(-1, 1, (4, 2)),
                            "c": r.uniform(-1, 1, 2)},
         ad.linear, ("a", "b", "c")),
        ("depatchify", {"a": r.uniform(-1, 1, (4, 4))},
         lambda x: depatchify(x, 2, 2), ("a",)),
        ("syn_loss", {"a": syn_a, "b": syn_b},
         lambda x, y: syn_loss([x, y], syn_gts), ("a", "b")),
        ("seg_loss", {"a": 3 * a34(), "b": 3 * a34()},
         lambda x, y: seg_loss([x, y], seg_gt, LossWeights(dice=0.7, ce=1.3)), ("a", "b")),
        ("dtam_attention", {"a": a34(), "b": r.uniform(-1, 1, (5, 4)),
                            "c": r.uniform(-1, 1, (5, 4))},
         lambda x, y, z: ad.dtam_attention(x, y, z, None, 2, [1] * 3), ("a", "b", "c")),
        ("dtam_attention_bias", {"a": a34(), "b": r.uniform(-1, 1, (5, 4)),
                                 "c": r.uniform(-1, 1, (5, 4))},
         partial(ad.dtam_attention, bias=np.log(r.uniform(0.05, 1.0, (3, 5))), heads=2,
                 runs=[1] * 3),
         ("a", "b", "c")),
    ]
    return [(name, arrays, _probed(op, r, *args)) for name, arrays, op, args in cases]


def _probe_composite(build_loss, arrays, trials, r):
    """FD-check `trials` random parameter coordinates of a composite graph."""
    tensors = {k: ad.Tensor(v, requires_grad=True) for k, v in arrays.items()}
    loss = build_loss(tensors)
    ad.backward(loss)

    def scalar(values):
        return build_loss({k: ad.Tensor(v) for k, v in values.items()}).item()

    names = sorted(n for n in arrays if tensors[n].grad is not None)
    for _ in range(trials):
        name = names[r.integers(len(names))]
        idx = int(r.integers(arrays[name].size))
        numeric = numeric_grad_at(scalar, arrays, name, [idx], step=FD_STEP)[0]
        analytic = tensors[name].grad.ravel()[idx]
        denom = max(abs(analytic) + abs(numeric), 1.0)
        assert abs(analytic - numeric) / denom < FD_RTOL, (
            f"gradient mismatch at {name}[{idx}]")


def test_criterion_1_gradient_suite():
    t0 = time.time()
    r = np.random.default_rng(11)
    # every tensor op: 100 trials each, full-coordinate comparison
    for trial in range(100):
        for name, arrays, builder in _op_cases(r):
            check_gradients(builder, arrays, seed=trial)

    # decayed-attention block: >= 100 random coordinate probes
    d, n = 8, 4
    rb = np.random.default_rng(5)
    block_arrays = {
        "att.in_w": np.eye(d) + 0.05 * rb.normal(size=(d, d)),
        "att.in_b": np.zeros(d),
        "att.pos": 0.1 * rb.normal(size=(6, d)),
        "att.q_w": 0.3 * rb.normal(size=(d, d)),
        "att.k_w": 0.3 * rb.normal(size=(d, d)),
        "att.v_w": 0.3 * rb.normal(size=(d, d)),
        "att.out_w": 0.3 * rb.normal(size=(d, d)),
        "att.out_b": np.zeros(d),
    }
    tokens = rb.uniform(-1, 1, (n, d))
    probe = rb.uniform(-1, 1, (n, d))
    times = np.array([0.1, 0.1, 0.25, 0.25])

    def block_loss(t):
        out = mmhsa_block(ad.Tensor(tokens), times, DtamConfig(head_count=4), t)
        return ro.reduce_sum(ro.mul(out, ad.Tensor(probe)))

    _probe_composite(block_loss, block_arrays, 120, np.random.default_rng(6))

    # 16x16 end-to-end total loss: >= 100 random parameter coordinate probes
    from phasesynth.training import case_losses
    from phasesynth.phantom import CaseRecord

    cfg, params = small_model(seed=1)
    img, mask = random_case(0)
    phases = [np.clip(img + 0.1 * (i + 1), 0, 1) for i in range(3)]
    case = CaseRecord(ncmri=img, tumor_mask=mask, phases=phases,
                      times=(0.12, 0.3, 0.9), class_label=1, seed=0)
    arrays = {name: t.data.copy() for name, t in params.items()}

    # the thresholded consistency labels are piecewise constant; require a
    # comfortable margin to the threshold so finite differences stay on
    # one side of the step
    bundle = run_autoregressive(img, mask, case.times, params, cfg)
    threshold = TAU * max(bundle.signals)
    assert all(abs(s - threshold) > 1e-3 for s in bundle.signals)

    def total(t):
        _, parts = case_losses(case, t, cfg, "full", LossWeights())
        return parts["total"]

    _probe_composite(total, arrays, 110, np.random.default_rng(3))

    elapsed = time.time() - t0
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s (budget 120s)"
    print(f"\n[criterion 1] PASS gradient suite in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: decayed-attention properties


def _kernel_weights(q, k, tq, tk, sigma):
    """One head's weights as the product kernel forms them: ``dtam_attention``
    with a run per query row and each row's decay bias."""
    weights = []
    ad.dtam_attention(q, k, k, decay_log_bias(tq, tk, sigma), 1, [1] * q.shape[0],
                      weights_out=weights)
    return weights[0]


def test_criterion_2_attention_properties():
    t0 = time.time()
    r = np.random.default_rng(7)
    for draw in range(1000):
        nq = int(r.integers(1, 6))
        nk = int(r.integers(1, 8))
        d = int(r.choice([4, 8]))
        q = ad.Tensor(r.normal(0, 1, (nq, d)))
        k = ad.Tensor(r.normal(0, 1, (nk, d)))
        tq = np.sort(r.uniform(0.05, 1.0, nq))
        tk = np.sort(r.uniform(0.05, 1.0, nk))
        sigma = float(r.uniform(0.2, 2.0))
        plain = ad.softmax_last_axis(ad.matmul(q, ro.transpose(k))).data
        zq, zk = ad.Tensor(np.zeros((1, d))), ad.Tensor(np.zeros((nk, d)))
        dist = np.abs(tk - tk[-1])
        order = np.argsort(dist, kind="stable")
        # each law on the test reference and on the product kernel
        for weights in (lambda *a: dtam_weights(*a).data, _kernel_weights):
            w = weights(q, k, tq, tk, sigma)
            assert np.all(w >= 0.0)
            np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-9)

            # equal logits: weights ordered by time distance (monotone decay)
            wz = weights(zq, zk, [tk[-1]], tk, sigma)[0]
            assert np.all(np.diff(wz[order]) <= 1e-15)

            # sigma -> infinity recovers the plain softmax (oracle comparison)
            w_inf = weights(q, k, tq, tk, 1e6)
            np.testing.assert_allclose(w_inf, plain, atol=1e-6)
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"attention properties took {elapsed:.1f}s (budget 60s)"
    print(f"\n[criterion 2] PASS 1000 attention draws in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: causality


def test_criterion_3_causality_bit_identical():
    cfg, params = small_model()
    times = (0.12, 0.31, 0.88)
    names = ("art", "pv", "delay")
    for seed in range(20):
        img, mask = random_case(seed)
        full = run_autoregressive(img, mask, times, params, cfg)
        # truncated loop: stop after each prefix; prefix outputs must be
        # bit-identical to the full run (later phases cannot leak back)
        t_ot = encode_features(img, mask, cfg, params)
        blocks = []
        for i, (name, t) in enumerate(zip(names, times)):
            cond = build_conditional_token(t_ot, name, t, cfg, params)
            po, block = synthesize_phase(i, cond, blocks, cfg, params)
            assert (po.image.data == full.phase_outputs[i].image.data).all()
            assert (po.seg_logits.data == full.phase_outputs[i].seg_logits.data).all()
            assert (po.feature.data == full.phase_outputs[i].feature.data).all()
            blocks.append((block, t))
    print("\n[criterion 3] PASS truncated vs full loops bit-identical on 20 cases")


# ---------------------------------------------------------------------------
# criterion 4: metric oracles


def _brute_overlap(p, q):
    inter = sum(1 for i in range(p.shape[0]) for j in range(p.shape[1])
                if p[i, j] and q[i, j])
    sp = int(p.sum())
    sq = int(q.sum())
    union = sp + sq - inter
    d = 1.0 if sp + sq == 0 else 2.0 * inter / (sp + sq)
    i_ = 1.0 if union == 0 else inter / union
    return d, i_


def _brute_boundary(m):
    pts = []
    h, w = m.shape
    for i in range(h):
        for j in range(w):
            if not m[i, j]:
                continue
            nb = [(i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)]
            if any(not (0 <= a < h and 0 <= b < w) or not m[a, b] for a, b in nb):
                pts.append((i, j))
    return pts


def _brute_distances(p, q):
    bp, bq = _brute_boundary(p), _brute_boundary(q)
    if not bp or not bq:
        return None
    one = [min(np.hypot(a - c, b - d) for c, d in bq) for a, b in bp]
    two = [min(np.hypot(a - c, b - d) for c, d in bp) for a, b in bq]
    return np.array(one + two)


def test_criterion_4_metric_oracles():
    t0 = time.time()
    r = np.random.default_rng(13)
    for size in (4, 8):
        for _ in range(60):
            p = (r.uniform(size=(size, size)) < 0.45).astype(np.uint8)
            q = (r.uniform(size=(size, size)) < 0.45).astype(np.uint8)
            bd, bi = _brute_overlap(p, q)
            assert dice(p, q) == bd
            assert iou(p, q) == bi
            pooled = _brute_distances(p, q)
            if pooled is None:
                assert hd95(p, q) == float("inf")
                assert asd(p, q) == float("inf")
            else:
                assert abs(hd95(p, q) - np.percentile(pooled, 95)) < 1e-9
                assert abs(asd(p, q) - pooled.mean()) < 1e-9

    # closed-form image metrics: constant offset and one 8x8 window
    base = r.uniform(0.2, 0.8, (16, 16))
    assert abs(psnr(base, base + 0.1) - 20.0) < 1e-9
    assert mse(base, base + 0.1) == pytest.approx(0.01)
    a = r.uniform(0, 1, (8, 8))
    b = r.uniform(0, 1, (8, 8))
    mu_a, mu_b = a.mean(), b.mean()
    va, vb = a.var(), b.var()
    cov = ((a - mu_a) * (b - mu_b)).mean()
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    expected = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a ** 2 + mu_b ** 2 + c1) * (va + vb + c2))
    assert ssim(a, b) == pytest.approx(expected, abs=1e-12)

    elapsed = time.time() - t0
    assert elapsed < 60.0, f"metric oracles took {elapsed:.1f}s (budget 60s)"
    print(f"\n[criterion 4] PASS metric oracles in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 5: phantom end-to-end at default scale


def test_criterion_5_phantom_end_to_end(default_run):
    agg = default_run["report"]["aggregates"]
    manifest = load_manifest(default_run["data"])
    copy_psnr = float(np.mean([
        psnr(case.ncmri, case.phases[2])
        for case in (load_case(default_run["data"], e)
                     for e in manifest["cases"] if e["split"] == "test")
    ]))
    delay = agg["delay"]["psnr"]
    d = agg["seg"]["dice"]
    acc = agg["classification"]["accuracy"]
    elapsed = default_run["elapsed"]
    assert elapsed <= 45 * 60, f"default-scale run took {elapsed:.0f}s (budget 2700s)"
    assert delay >= copy_psnr + 3.0, (
        f"delay PSNR {delay:.2f} vs copy baseline {copy_psnr:.2f}")
    assert d >= 0.80, f"dice {d:.3f} below 0.80"
    assert acc >= 0.95, f"accuracy {acc:.3f} below 0.95"
    print(f"\n[criterion 5] PASS delay PSNR {delay:.2f} dB "
          f"(copy baseline {copy_psnr:.2f}, margin {delay - copy_psnr:+.2f}), "
          f"dice {d:.3f}, accuracy {acc:.3f}, wall {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 6: ablation trend


def test_criterion_6_ablation_trend(ablation_rows):
    full = ablation_rows["full"]
    no_dtam = ablation_rows["no_dtam"]
    base = ablation_rows["baseline"]
    for key in ("psnr", "dice", "accuracy"):
        assert full[key] >= no_dtam[key], (
            f"full {key} {full[key]:.4f} < no_dtam {no_dtam[key]:.4f}")
        for variant in ("no_dtam", "no_cte", "no_t_encoding", "full"):
            assert base[key] <= ablation_rows[variant][key], (
                f"baseline {key} {base[key]:.4f} beats {variant} "
                f"{ablation_rows[variant][key]:.4f}")
    summary = "; ".join(
        f"{v}: psnr {ablation_rows[v]['psnr']:.2f} dice {ablation_rows[v]['dice']:.3f} "
        f"acc {ablation_rows[v]['accuracy']:.2f}" for v in ABLATION_ORDER)
    print(f"\n[criterion 6] PASS ablation direction holds ({summary})")


# ---------------------------------------------------------------------------
# criterion 7: consistency-loss behavior


def test_criterion_7_consistency_loss(small_ds, tmp_path_factory):
    # exact-zero law: loss is 0 iff every probability equals its label
    r = np.random.default_rng(17)
    for _ in range(200):
        labels = [int(x) for x in r.integers(0, 2, 3)]
        exact = [ad.Tensor(float(l)) for l in labels]
        assert tcc_loss(exact, labels).item() == 0.0
        probs = [ad.Tensor(float(r.uniform(0, 1))) for _ in range(3)]
        loss = tcc_loss(probs, labels).item()
        agrees = all(p.item() == float(l) for p, l in zip(probs, labels))
        assert (loss == 0.0) == agrees
        assert loss >= 0.0

    # participation: enabling the term changes the trained per-phase heads
    outputs = {}
    for tag, tcc_weight in (("on", 1.0), ("off", 0.0)):
        cfg = TrainConfig(epochs=4, warmup_epochs=1, seed=3,
                          weights=LossWeights(tcc=tcc_weight))
        out = tmp_path_factory.mktemp(f"acc_tcc_{tag}")
        result = train(cfg, small_ds, str(out))
        params, mcfg, _ = load_checkpoint(result["checkpoint"])
        manifest = load_manifest(small_ds)
        case = load_case(small_ds, manifest["cases"][0])
        bundle = run_autoregressive(case.ncmri, case.tumor_mask, case.times,
                                    params, mcfg)
        outputs[tag] = [p.item() for p in bundle.per_phase_cls]
    assert outputs["on"] != outputs["off"], (
        "per-phase probabilities identical with and without the consistency term")
    print(f"\n[criterion 7] PASS zero-iff law holds; per-phase probs "
          f"{outputs['off']} (off) vs {outputs['on']} (on)")


# ---------------------------------------------------------------------------
# criterion 8: determinism


def test_criterion_8_determinism(small_ds, tmp_path_factory):
    blobs = []
    for tag in ("one", "two"):
        cfg = TrainConfig(epochs=3, warmup_epochs=1, seed=5)
        out = tmp_path_factory.mktemp(f"acc_det_{tag}")
        result = train(cfg, small_ds, str(out))
        report = evaluate(result["checkpoint"], small_ds, split="test")
        with open(result["checkpoint"], "rb") as f:
            ckpt = f.read()
        with open(result["log"], "rb") as f:
            log = f.read()
        blobs.append((ckpt, log, json.dumps(report, sort_keys=True)))
    assert blobs[0][0] == blobs[1][0], "checkpoints differ"
    assert blobs[0][1] == blobs[1][1], "training logs differ"
    assert blobs[0][2] == blobs[1][2], "evaluation reports differ"
    print("\n[criterion 8] PASS two identical runs produced bit-identical artifacts")
