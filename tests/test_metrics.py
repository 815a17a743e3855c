"""Evaluation metrics against brute-force and closed-form references."""

import tracemalloc

import numpy as np
import pytest

from phasesynth.errors import ContractError
from phasesynth.metrics import (_percentile95, asd, boundary_pixels, classification_metrics,
                                dice, hd95, iou, mse, psnr, ssim)

rng = np.random.default_rng(6)


# ---------------------------------------------------------------------------
# brute-force references


def brute_dice(p, q):
    p, q = p.astype(bool), q.astype(bool)
    inter = sum(1 for i in range(p.shape[0]) for j in range(p.shape[1])
                if p[i, j] and q[i, j])
    total = int(p.sum()) + int(q.sum())
    return 1.0 if total == 0 else 2.0 * inter / total


def brute_iou(p, q):
    p, q = p.astype(bool), q.astype(bool)
    inter = np.logical_and(p, q).sum()
    union = np.logical_or(p, q).sum()
    return 1.0 if union == 0 else inter / union


def brute_boundary(mask):
    m = mask.astype(bool)
    h, w = m.shape
    pts = []
    for i in range(h):
        for j in range(w):
            if not m[i, j]:
                continue
            edge = False
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ni, nj = i + di, j + dj
                if not (0 <= ni < h and 0 <= nj < w) or not m[ni, nj]:
                    edge = True
            if edge:
                pts.append((i, j))
    return pts


def brute_distance_set(p, q):
    bp, bq = brute_boundary(p), brute_boundary(q)
    if not bp or not bq:
        return None
    d_pq = [min(np.hypot(a[0] - b[0], a[1] - b[1]) for b in bq) for a in bp]
    d_qp = [min(np.hypot(a[0] - b[0], a[1] - b[1]) for a in bp) for b in bq]
    return np.array(d_pq + d_qp)


def brute_ssim(a, b):
    """Mean over every 8x8 window (stride 1) of SSIM with centred population moments."""
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    scores = []
    for i in range(a.shape[0] - 7):
        for j in range(a.shape[1] - 7):
            wa, wb = a[i:i + 8, j:j + 8], b[i:i + 8, j:j + 8]
            ma, mb = wa.mean(), wb.mean()
            cov = ((wa - ma) * (wb - mb)).mean()
            scores.append(((2 * ma * mb + c1) * (2 * cov + c2))
                          / ((ma * ma + mb * mb + c1) * (wa.var() + wb.var() + c2)))
    return float(np.mean(scores))


def random_mask(shape, fill, seed):
    return (np.random.default_rng(seed).uniform(0, 1, shape) < fill).astype(np.uint8)


# ---------------------------------------------------------------------------
# mse / psnr


def test_mse_psnr_identity():
    a = rng.uniform(0, 1, (8, 8))
    assert mse(a, a) == 0.0
    assert psnr(a, a) == 100.0  # cap


def test_psnr_constant_offset_closed_form():
    a = np.full((8, 8), 0.4)
    assert mse(a, a + 0.1) == pytest.approx(0.01)
    assert psnr(a, a + 0.1) == pytest.approx(20.0)


def test_psnr_maximal_error():
    assert psnr(np.zeros((4, 4)), np.ones((4, 4))) == pytest.approx(0.0)


def test_psnr_monotone_in_mse():
    base = np.zeros((8, 8))
    values = [psnr(base, np.full((8, 8), v)) for v in (0.1, 0.2, 0.4, 0.8)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_psnr_of_a_nan_image_is_nan_not_the_cap():
    a = rng.uniform(0, 1, (8, 8))
    b = a.copy()
    b[3, 4] = np.nan
    assert np.isnan(psnr(a, b))
    assert np.isnan(psnr(b, b))


def test_mse_shape_mismatch():
    with pytest.raises(ContractError):
        mse(np.zeros((4, 4)), np.zeros((4, 5)))


# ---------------------------------------------------------------------------
# ssim


def test_ssim_identity():
    a = rng.uniform(0, 1, (8, 8))
    assert ssim(a, a) == pytest.approx(1.0)


def test_ssim_inversion_below_one():
    a = rng.uniform(0, 1, (12, 12))
    assert ssim(a, 1 - a) < 1.0


def test_ssim_single_window_closed_form():
    a = rng.uniform(0, 1, (8, 8))
    b = rng.uniform(0, 1, (8, 8))
    mu_a, mu_b = a.mean(), b.mean()
    var_a, var_b = a.var(), b.var()
    cov = ((a - mu_a) * (b - mu_b)).mean()
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    expect = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2))
    assert ssim(a, b) == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("shape", [(64, 64), (128, 128), (20, 33), (8, 8)])
def test_ssim_matches_per_window_loop(shape):
    r = np.random.default_rng(shape[0] * 1000 + shape[1])
    a = r.uniform(0, 1, shape)
    for b in (np.clip(a + r.normal(0, 0.2, shape), 0, 1), r.uniform(0, 1, shape)):
        assert abs(ssim(a, b) - brute_ssim(a, b)) <= 1e-13


def test_ssim_peak_memory_is_a_few_images():
    a = rng.uniform(0, 1, (128, 128))
    b = rng.uniform(0, 1, (128, 128))
    tracemalloc.start()
    try:
        ssim(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * a.nbytes


def test_ssim_too_small_rejected():
    with pytest.raises(ContractError):
        ssim(np.zeros((4, 4)), np.zeros((4, 4)))


# ---------------------------------------------------------------------------
# overlap metrics


def test_dice_iou_trivia():
    p = random_mask((4, 4), 0.5, 1)
    if p.sum() == 0:
        p[0, 0] = 1
    assert dice(p, p) == 1.0
    assert iou(p, p) == 1.0
    q = 1 - p
    assert dice(p, q) == 0.0
    assert iou(p, q) == 0.0
    empty = np.zeros((4, 4), dtype=np.uint8)
    assert dice(empty, empty) == 1.0
    assert iou(empty, empty) == 1.0


def test_dice_iou_nonbinary_rejected():
    with pytest.raises(ContractError):
        dice(np.full((4, 4), 0.5), np.zeros((4, 4)))


def test_dice_iou_brute_force_4x4_and_8x8():
    for trial in range(300):
        shape = (4, 4) if trial % 2 == 0 else (8, 8)
        p = random_mask(shape, 0.4, 1000 + trial)
        q = random_mask(shape, 0.4, 2000 + trial)
        assert dice(p, q) == brute_dice(p, q)
        assert iou(p, q) == brute_iou(p, q)


def test_dice_iou_relation():
    for trial in range(100):
        p = random_mask((8, 8), 0.4, trial)
        q = random_mask((8, 8), 0.4, 500 + trial)
        d, i = dice(p, q), iou(p, q)
        assert d == pytest.approx(2 * i / (1 + i))


# ---------------------------------------------------------------------------
# surface distances


def test_boundary_matches_brute_force():
    for trial in range(100):
        m = random_mask((8, 8), 0.45, 3000 + trial)
        ours = {tuple(p) for p in boundary_pixels(m)}
        assert ours == set(brute_boundary(m))


def test_hd95_asd_identity():
    m = random_mask((8, 8), 0.4, 1)
    if m.sum() == 0:
        m[2, 2] = 1
    assert hd95(m, m) == 0.0
    assert asd(m, m) == 0.0


def test_single_pixel_pair():
    p = np.zeros((8, 8), dtype=np.uint8)
    q = np.zeros((8, 8), dtype=np.uint8)
    p[2, 2] = 1
    q[2, 5] = 1
    assert hd95(p, q) == pytest.approx(3.0)
    assert asd(p, q) == pytest.approx(3.0)


def test_empty_mask_gives_infinity():
    p = np.zeros((8, 8), dtype=np.uint8)
    q = random_mask((8, 8), 0.4, 2)
    q[0, 0] = 1
    assert hd95(p, q) == float("inf")
    assert asd(q, p) == float("inf")


def test_distances_brute_force_oracle():
    checked = 0
    for trial in range(200):
        shape = (4, 4) if trial % 2 == 0 else (8, 8)
        p = random_mask(shape, 0.35, 4000 + trial)
        q = random_mask(shape, 0.35, 5000 + trial)
        ref = brute_distance_set(p, q)
        if ref is None:
            assert hd95(p, q) == float("inf")
            continue
        checked += 1
        assert hd95(p, q) == pytest.approx(np.percentile(ref, 95), abs=1e-9)
        assert asd(p, q) == pytest.approx(ref.mean(), abs=1e-9)
    assert checked > 100


def test_percentile95_is_bitwise_np_percentile():
    r = np.random.default_rng(11)
    for trial in range(2000):
        n = int(r.integers(1, 301))
        # integer squares under the root repeat, so the sets have ties
        d = np.sqrt(r.integers(0, 50 if trial % 2 else 5000, n).astype(np.float64))
        assert _percentile95(d) == np.percentile(d, 95.0)


def test_distance_symmetry():
    for trial in range(50):
        p = random_mask((8, 8), 0.4, 6000 + trial)
        q = random_mask((8, 8), 0.4, 7000 + trial)
        if p.sum() == 0 or q.sum() == 0:
            continue
        assert hd95(p, q) == hd95(q, p)
        # pooled set is order-permuted between calls; mean differs by ulps
        assert asd(p, q) == pytest.approx(asd(q, p), rel=1e-12)


# ---------------------------------------------------------------------------
# classification metrics


def test_classification_perfect():
    out = classification_metrics([1, 0, 1, 0], [1, 0, 1, 0])
    assert (out["accuracy"], out["sensitivity"], out["specificity"], out["f1"]) \
        == (1.0, 1.0, 1.0, 1.0)
    assert out["flags"] == []


def test_classification_all_negative():
    out = classification_metrics([0, 0, 0, 0], [1, 0, 1, 0])
    assert out["sensitivity"] == 0.0
    assert out["specificity"] == 1.0
    assert "precision" in out["flags"]


def test_classification_confusion_oracle():
    # TP=3, FP=1, FN=1, TN=5
    preds = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
    labels = [1, 1, 1, 0, 1, 0, 0, 0, 0, 0]
    out = classification_metrics(preds, labels)
    assert out["confusion"] == {"tp": 3, "tn": 5, "fp": 1, "fn": 1}
    assert out["accuracy"] == pytest.approx(0.8)
    assert out["sensitivity"] == pytest.approx(0.75)
    assert out["f1"] == pytest.approx(0.75)


def test_classification_length_mismatch():
    with pytest.raises(ContractError):
        classification_metrics([1, 0], [1])


def test_psnr_is_a_python_float():
    a = np.zeros((4, 4))
    assert type(psnr(a, a + 0.1)) is float
    assert type(psnr(a, a)) is float
