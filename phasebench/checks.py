"""Correctness checks, with references built apart from the program.

The readers for the NTAR archive and the PGM images, the DTAM attention,
the majority vote and every metric here are written from the formats and
formulas the phasesynth README and docstrings state, not by calling the
code they check. Each ``check_*`` function returns ``(ok, detail)``; the
workload-level functions at the bottom collect them per workload.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct

import numpy as np

from phasesynth import autodiff as ad
from phasesynth import model, training
from phasesynth.metrics import load_checkpoint
from phasesynth.phantom import load_case, load_manifest

PHASES = ("art", "pv", "delay")
PSNR_CAP = 100.0
SSIM_WINDOW = 8
SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2
# finite-difference probe: |analytic - numeric| may be at most
# FD_RTOL * max(|analytic|, |numeric|) + FD_ATOL for one of the central or
# one-sided differences at one of the steps. A central difference that
# straddles a kink of |x|, relu or a clamp is wrong at that step only, and
# at a kink right at the probed point the tape's derivative is the one of
# one side; a wrong gradient disagrees with all of them.
FD_STEPS = (1e-6, 1e-7, 1e-5)
FD_RTOL = 1e-4
FD_ATOL = 1e-8
FD_PER_PARAM = 3
# float64 agreement of two computations of the same formula
CLOSE = 1e-9


# ---------------------------------------------------------------------------
# independent readers


def read_ntar(path):
    """NTAR v1: magic, u64 index length, JSON index, TNSR v1 payloads."""
    with open(path, "rb") as f:
        blob = f.read()
    magic = b"NTAR v1\n"
    if not blob.startswith(magic):
        raise ValueError(f"{path}: bad magic")
    (n,) = struct.unpack_from("<Q", blob, len(magic))
    start = len(magic) + 8
    index = json.loads(blob[start:start + n])
    body = blob[start + n:]
    arrays = {}
    for entry in index["tensors"]:
        payload = body[entry["offset"]:entry["offset"] + entry["length"]]
        header, _, data = payload.partition(b"\n")
        fields = header.split()
        if fields[:2] != [b"TNSR", b"v1"]:
            raise ValueError(f"{path}: {entry['name']} is not TNSR v1")
        shape = tuple(int(d) for d in fields[3:3 + int(fields[2])])
        arrays[entry["name"]] = np.frombuffer(data, dtype="<f8").reshape(shape)
    return arrays, index["meta"]


def read_pgm(path):
    """Binary 8-bit PGM (P5) -> (height, width) uint8 array."""
    with open(path, "rb") as f:
        blob = f.read()
    fields = blob.split(b"\n", 3)
    if fields[0] != b"P5" or fields[2] != b"255":
        raise ValueError(f"{path}: not an 8-bit P5 PGM")
    width, height = (int(v) for v in fields[1].split())
    pixels = np.frombuffer(fields[3], dtype=np.uint8)
    if pixels.size != width * height:
        raise ValueError(f"{path}: {pixels.size} pixels for {width}x{height}")
    return pixels.reshape(height, width)


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


# ---------------------------------------------------------------------------
# references


def dtam_reference(tokens, times, arrays, sigma, heads, use_decay=True):
    """Per-head softmax(q k^T + ln G), output projection and residual.

    ln G_ij = -(t_i - t_j)^2 / (2 sigma^2) is written directly, not as
    the log of the decay factor.
    """
    n, dim = tokens.shape
    h = tokens @ arrays["att.in_w"] + arrays["att.in_b"] + arrays["att.pos"][:n]
    q, k, v = h @ arrays["att.q_w"], h @ arrays["att.k_w"], h @ arrays["att.v_w"]
    dt = np.asarray(times)[:, None] - np.asarray(times)[None, :]
    log_g = -(dt * dt) / (2.0 * sigma * sigma) if use_decay else 0.0
    width = dim // heads
    z = np.empty_like(h)
    for i in range(heads):
        cols = slice(i * width, (i + 1) * width)
        logits = q[:, cols] @ k[:, cols].T + log_g
        w = np.exp(logits - logits.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        z[:, cols] = w @ v[:, cols]
    return z @ arrays["att.out_w"] + arrays["att.out_b"] + tokens


def majority_vote(seg_logits):
    """Pixel is lesion when at least two of the three phase maps say so."""
    votes = sum((np.asarray(s) > 0.0).astype(np.int64) for s in seg_logits)
    return votes >= 2


def psnr_ref(a, b):
    diffs = (np.asarray(a, float) - np.asarray(b, float)).ravel().tolist()
    err = math.fsum(d * d for d in diffs) / len(diffs)
    return PSNR_CAP if err <= 0.0 else min(PSNR_CAP, 10.0 * math.log10(1.0 / err))


def dice_ref(p, q):
    p, q = np.asarray(p, bool), np.asarray(q, bool)
    both = int(np.count_nonzero(p & q))
    total = int(np.count_nonzero(p)) + int(np.count_nonzero(q))
    return 1.0 if total == 0 else 2.0 * both / total


def boundary_ref(mask):
    """Mask pixels with a 4-neighbour outside the mask or the image."""
    m = np.asarray(mask, bool)
    rows, cols = m.shape
    out = []
    for r in range(rows):
        for c in range(cols):
            if not m[r, c]:
                continue
            for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if not (0 <= rr < rows and 0 <= cc < cols) or not m[rr, cc]:
                    out.append((r, c))
                    break
    return out


def surface_ref(p, q):
    """(hd95, asd) from all boundary pairs; None when a boundary is empty."""
    bp, bq = boundary_ref(p), boundary_ref(q)
    if not bp or not bq:
        return None

    def nearest(src, dst):
        return [min(math.hypot(r - rr, c - cc) for rr, cc in dst) for r, c in src]

    dists = sorted(nearest(bp, bq) + nearest(bq, bp))
    pos = 0.95 * (len(dists) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(dists) - 1)
    hd95 = dists[lo] + (pos - lo) * (dists[hi] - dists[lo])
    return hd95, math.fsum(dists) / len(dists)


def ssim_ref(a, b):
    """Mean SSIM over every 8x8 window (stride 1), population statistics."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    rows, cols = a.shape[0] - SSIM_WINDOW + 1, a.shape[1] - SSIM_WINDOW + 1
    total = 0.0
    for r in range(rows):
        for c in range(cols):
            wa = a[r:r + SSIM_WINDOW, c:c + SSIM_WINDOW]
            wb = b[r:r + SSIM_WINDOW, c:c + SSIM_WINDOW]
            ma, mb = wa.mean(), wb.mean()
            va, vb = ((wa - ma) ** 2).mean(), ((wb - mb) ** 2).mean()
            cov = ((wa - ma) * (wb - mb)).mean()
            total += ((2 * ma * mb + SSIM_C1) * (2 * cov + SSIM_C2)) / (
                (ma * ma + mb * mb + SSIM_C1) * (va + vb + SSIM_C2))
    return total / (rows * cols)


# ---------------------------------------------------------------------------
# single checks


def close(a, b, tol=CLOSE):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def check_fd_probe(loss_of, arrays, grads, rng, per_param=FD_PER_PARAM):
    """Finite differences of loss_of(arrays) against the analytic grads.

    grads maps each parameter that received a gradient to it; arrays is
    perturbed in place and restored. Probes per_param random entries each.
    """
    worst = (0.0, None)
    probes = 0
    base = loss_of(arrays)
    for name in sorted(grads):
        flat = arrays[name].reshape(-1)
        for i in rng.choice(flat.size, size=min(per_param, flat.size), replace=False):
            analytic = float(grads[name].reshape(-1)[i])
            orig = flat[i]
            best = None
            for step in FD_STEPS:
                flat[i] = orig + step
                hi = loss_of(arrays)
                flat[i] = orig - step
                lo = loss_of(arrays)
                flat[i] = orig
                for numeric in ((hi - lo) / (2.0 * step), (hi - base) / step,
                                (base - lo) / step):
                    excess = abs(analytic - numeric) / (
                        FD_RTOL * max(abs(analytic), abs(numeric)) + FD_ATOL)
                    if best is None or excess < best[0]:
                        best = (excess,
                                f"{name}[{i}] analytic {analytic:.6e} numeric {numeric:.6e}")
                if best[0] <= 1.0:
                    break
            probes += 1
            if best[0] > worst[0]:
                worst = best
    ok = probes > 0 and worst[0] <= 1.0
    return ok, (f"{probes} probes over {len(grads)} parameters; "
                f"worst {worst[1]} ({worst[0]:.3g} of tolerance)")


def check_loss_decreased(records):
    first, last = records[0]["l_total"], records[-1]["l_total"]
    return last < first, f"epoch-mean training loss {first:.6f} -> {last:.6f}"


def check_finite(arrays):
    bad = sorted(name for name, a in arrays.items() if not np.isfinite(a).all())
    return not bad, f"{len(arrays)} tensors, non-finite: {bad}"


def check_identical(digests):
    distinct = len(set(digests))
    return len(digests) >= 2 and distinct == 1, f"{len(digests)} checkpoints, {distinct} distinct"


def check_dtam(captured, arrays, sigma, heads):
    """captured: (tokens, times, output) of each mmhsa_block call."""
    if len(captured) != len(PHASES):
        return False, f"{len(captured)} attention calls captured, expected {len(PHASES)}"
    worst = 0.0
    for tokens, times, out in captured:
        ref = dtam_reference(tokens, times, arrays, sigma, heads)
        if ref.shape != out.shape:
            return False, f"shape {out.shape} vs reference {ref.shape}"
        worst = max(worst, float(np.max(np.abs(ref - out)) / max(1.0, np.max(np.abs(ref)))))
    return worst <= CLOSE, f"max relative deviation from the NumPy DTAM reference {worst:.3e}"


def check_class_json(entry):
    probs = entry["class_probs"]
    ok = (len(probs) == 2 and all(0.0 <= p <= 1.0 for p in probs)
          and abs(math.fsum(probs) - 1.0) <= 1e-12
          and entry["predicted"] == max(range(len(probs)), key=probs.__getitem__))
    return ok, f"probs {probs} predicted {entry['predicted']}"


def check_mask_vote(mask_pgm, seg_logits):
    if not set(np.unique(mask_pgm).tolist()) <= {0, 255}:
        return False, "mask PGM is not binary"
    expected = majority_vote(seg_logits)
    diff = int(np.count_nonzero((mask_pgm == 255) != expected))
    return diff == 0, f"{diff} pixels differ from the majority vote"


def check_case_metrics(entry, images, gts, pred_mask, gt_mask):
    """Brute-force PSNR, SSIM, Dice, HD95 and ASD against one report entry."""
    bad = []
    for phase, img, gt in zip(PHASES, images, gts):
        for key, ref in (("psnr", psnr_ref(img, gt)), ("ssim", ssim_ref(img, gt))):
            if not close(entry["per_phase"][phase][key], ref):
                bad.append(f"{phase}.{key} {entry['per_phase'][phase][key]} vs {ref}")
    seg = entry["seg"]
    if not close(seg["dice"], dice_ref(pred_mask, gt_mask)):
        bad.append(f"dice {seg['dice']} vs {dice_ref(pred_mask, gt_mask)}")
    surf = surface_ref(pred_mask, gt_mask)
    got = None if seg["hd95"] is None else (seg["hd95"], seg["asd"])
    if (surf is None) != (got is None) or (
            surf is not None and not (close(got[0], surf[0]) and close(got[1], surf[1]))):
        bad.append(f"hd95/asd {got} vs {surf}")
    return not bad, "; ".join(bad) or f"{entry['id']}: psnr, ssim, dice, hd95, asd agree"


def check_aggregates(report):
    cases = report["cases"]
    bad = []

    def mean(values):
        vals = [v for v in values if v is not None and math.isfinite(v)]
        return math.fsum(vals) / len(vals) if vals else None

    agg = report["aggregates"]
    expect = {(p, k): mean(c["per_phase"][p][k] for c in cases)
              for p in PHASES for k in ("mse", "psnr", "ssim")}
    expect.update({("seg", k): mean(c["seg"][k] for c in cases)
                   for k in ("dice", "iou", "hd95", "asd")})
    for (group, key), value in expect.items():
        got = agg[group][key]
        if (got is None) != (value is None) or (value is not None and not close(got, value)):
            bad.append(f"{group}.{key} {got} vs {value}")
    conf = agg["classification"]["confusion"]
    pairs = [(c["predicted"], c["label"]) for c in cases]
    recount = {"tp": pairs.count((1, 1)), "tn": pairs.count((0, 0)),
               "fp": pairs.count((1, 0)), "fn": pairs.count((0, 1))}
    if sum(conf.values()) != report["case_count"] or conf != recount:
        bad.append(f"confusion {conf} vs {recount} over {report['case_count']} cases")
    return not bad, "; ".join(bad) or f"aggregates and confusion over {len(cases)} cases agree"


# ---------------------------------------------------------------------------
# per workload


def forward_capturing_attention(case, params, cfg, ablation):
    """run_autoregressive with every mmhsa_block call's input and output kept."""
    captured = []
    original = model.mmhsa_block

    def capture(*args, **kwargs):
        out = original(*args, **kwargs)
        captured.append((args[0].data.copy(), np.asarray(args[1], float), out.data.copy()))
        return out

    model.mmhsa_block = capture
    try:
        bundle = model.run_autoregressive(case.ncmri, case.tumor_mask, case.times,
                                          params, cfg, ablation=ablation)
    finally:
        model.mmhsa_block = original
    return bundle, captured


def train_checks(ctx, results, seed, retrain):
    """results: what each timed training call returned; retrain() runs one more."""
    checks = []
    ckpt = results[0]["checkpoint"]
    arrays, meta = read_ntar(ckpt)
    checks.append(("finite checkpoint tensors",) + check_finite(arrays))
    checks.append(("last-epoch loss below the first",)
                  + check_loss_decreased(results[0]["records"]))
    digests = [sha256(r["checkpoint"]) for r in results[:2]]
    if len(digests) < 2:
        digests.append(sha256(retrain()["checkpoint"]))
    checks.append(("byte-identical checkpoints for one seed",) + check_identical(digests))

    rng = np.random.default_rng(seed)
    _, cfg, _ = load_checkpoint(ckpt)
    weights = training.TrainConfig.from_dict(meta["config"]).weights
    ablation = meta["config"]["ablation"]
    entries = [e for e in load_manifest(ctx["data"])["cases"] if e["split"] == "train"]
    case = load_case(ctx["data"], entries[int(rng.integers(len(entries)))])
    work = {name: np.array(a) for name, a in arrays.items()}
    params = {name: ad.Tensor(a, requires_grad=True) for name, a in work.items()}
    bundle, parts = training.case_losses(case, params, cfg, ablation, weights)
    ad.backward(parts["total"])
    grads = {name: t.grad for name, t in params.items() if t.grad is not None}
    # the program feeds the auxiliary head a detached copy of each phase
    # feature and uses thresholded (detached) signal labels; the probe holds
    # both at their unperturbed values, so it differentiates the same loss
    features = [po.feature.data.copy() for po in bundle.phase_outputs]
    labels = [float(v) for v in bundle.signal_labels]
    tcc_weight = weights.tcc if model.ABLATIONS[ablation][3] else 0.0

    def loss_of(values):
        tensors = {name: ad.Tensor(a) for name, a in values.items()}
        p = training.case_losses(case, tensors, cfg, ablation, weights)[1]
        w, b = values["cls.aux_w"][:, 0], values["cls.aux_b"][0]
        aux = [1.0 / (1.0 + math.exp(-float(f @ w + b))) for f in features]
        tcc = math.fsum((a - y) ** 2 for a, y in zip(aux, labels))
        return (p["syn"].item() + p["seg"].item() + weights.cls * p["cls"].item()
                + tcc_weight * tcc)

    checks.append(("finite-difference probe of the per-case loss",)
                  + check_fd_probe(loss_of, work, grads, rng))
    return checks


def synth_checks(ctx, result, seed, samples=2):
    checks = []
    out = result["out"]
    if result["code"] != 0:
        return [("synthesize exit code", False, f"exit code {result['code']}")]
    entries = [e for e in load_manifest(ctx["data"])["cases"] if e["split"] == "test"]
    arrays, meta = read_ntar(ctx["checkpoint"])
    size = meta["config"]["model"]["image_size"]
    missing, shapes, classes = [], [], []
    for e in entries:
        cid = e["id"]
        names = [f"{cid}_phase_{p}.pgm" for p in PHASES] + [f"{cid}_mask.pgm", f"{cid}_class.json"]
        missing += [n for n in names if not os.path.isfile(os.path.join(out, n))]
        if missing:
            continue
        shapes += [n for n in names[:4] if read_pgm(os.path.join(out, n)).shape != (size, size)]
        with open(os.path.join(out, names[4])) as f:
            ok, detail = check_class_json(json.load(f))
        if not ok:
            classes.append(f"{cid}: {detail}")
    checks.append(("expected output files", not missing,
                   f"{len(entries)} cases, missing {missing[:3]}"))
    checks.append((f"{size}x{size} PGM images", not shapes, f"wrong shape: {shapes[:3]}"))
    checks.append(("class probabilities sum to 1, predicted = argmax", not classes,
                   "; ".join(classes[:3]) or f"{len(entries)} class files"))
    if missing:
        return checks

    params, cfg, _ = load_checkpoint(ctx["checkpoint"])
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(entries), size=min(samples, len(entries)), replace=False)
    model_cfg = meta["config"]["model"]
    for n, i in enumerate(picks):
        case = load_case(ctx["data"], entries[i])
        bundle, captured = forward_capturing_attention(case, params, cfg,
                                                       meta["config"]["ablation"])
        if n == 0:
            checks.append((f"DTAM per phase vs NumPy reference ({entries[i]['id']})",)
                          + check_dtam(captured, arrays, model_cfg["sigma"],
                                       model_cfg["head_count"]))
        mask = read_pgm(os.path.join(out, f"{entries[i]['id']}_mask.pgm"))
        checks.append((f"mask PGM = majority vote ({entries[i]['id']})",)
                      + check_mask_vote(mask, [po.seg_logits.data for po in bundle.phase_outputs]))
    return checks


def eval_checks(ctx, report, seed, samples=2):
    checks = [("aggregates are means of the cases; confusion sums to the count",)
              + check_aggregates(report)]
    params, cfg, meta = load_checkpoint(ctx["checkpoint"])
    entries = {e["id"]: e for e in load_manifest(ctx["data"])["cases"]}
    rng = np.random.default_rng(seed)
    for i in rng.choice(len(report["cases"]), size=min(samples, len(report["cases"])),
                        replace=False):
        entry = report["cases"][i]
        case = load_case(ctx["data"], entries[entry["id"]])
        bundle = model.run_autoregressive(case.ncmri, case.tumor_mask, case.times, params, cfg,
                                          ablation=meta["config"]["ablation"])
        pred = majority_vote([po.seg_logits.data for po in bundle.phase_outputs])
        checks.append((f"brute-force metrics ({entry['id']})",) + check_case_metrics(
            entry, [po.image.data for po in bundle.phase_outputs], case.phases, pred,
            case.tumor_mask > 0.5))
    return checks
