"""Lesion-enhancement signal, threshold labeling, and the consistency loss."""

import numpy as np
import pytest

from phasesynth import autodiff as ad
from phasesynth.errors import ContractError
from phasesynth.phantom import PhantomConfig, generate_dataset, load_case, load_manifest
from phasesynth.tcc import TAU, predict_signal, signal_label, tcc_loss

rng = np.random.default_rng(4)


def test_config_defaults():
    # a phase is labelled 1 above half of the case's peak signal
    assert TAU == 0.5


def test_signal_hand_oracle():
    ncmri = np.full((4, 4), 0.2)
    image = ncmri + 0.9  # outside the lesion: ignored
    mask = np.zeros((4, 4))
    mask[1, 1], image[1, 1] = 1.0, 0.3
    mask[2, 3], image[2, 3] = 0.6, 0.5
    mask[0, 0], image[0, 0] = 0.5, 0.0  # not above 0.5: not lesion
    assert predict_signal(image, ncmri, mask) == pytest.approx((0.1 + 0.3) / 2, abs=1e-15)


def test_empty_mask_gives_zero():
    image = rng.uniform(0, 1, (8, 8))
    assert predict_signal(image, image * 0.5, np.zeros((8, 8))) == 0.0
    assert predict_signal(image, image * 0.5, np.full((8, 8), 0.5)) == 0.0


def test_signal_bounded_and_deterministic():
    for _ in range(50):
        image, ncmri = rng.uniform(0, 1, (2, 8, 8))
        mask = (rng.uniform(0, 1, (8, 8)) > 0.5).astype(float)
        a = predict_signal(image, ncmri, mask)
        assert type(a) is float
        assert -1.0 <= a <= 1.0
        assert a == predict_signal(image.copy(), ncmri.copy(), mask.copy())


def test_signal_shape_contract():
    with pytest.raises(ContractError):
        predict_signal(np.zeros((8, 8)), np.zeros((8, 8)), np.zeros((4, 4)))
    with pytest.raises(ContractError):
        predict_signal(np.zeros((8, 8)), np.zeros((8, 9)), np.zeros((8, 8)))


def test_phantom_labels_follow_class_at_art_and_delay(tmp_path):
    # malignant lesions peak early and wash out, benign ones fill slowly:
    # labels from the true phases are [1, ., 0] and [0, ., 1]
    generate_dataset(PhantomConfig(case_count=40, master_seed=11), str(tmp_path))
    for entry in load_manifest(str(tmp_path))["cases"]:
        case = load_case(str(tmp_path), entry)
        signals = [predict_signal(p, case.ncmri, case.tumor_mask) for p in case.phases]
        labels = [signal_label(s, TAU * max(signals)) for s in signals]
        assert labels[0] == case.class_label, (entry["id"], signals)
        assert labels[2] == 1 - case.class_label, (entry["id"], signals)


# ---------------------------------------------------------------------------
# labeling rule


def test_label_examples():
    assert signal_label(0.7, 0.5) == 1
    assert signal_label(0.5, 0.5) == 0  # strict inequality at the boundary
    assert signal_label(0.0, 0.3) == 0


def test_label_monotone_in_signal():
    taus = [0.2, 0.5, 0.8]
    for tau in taus:
        values = np.linspace(0, 1, 41)
        labels = [signal_label(v, tau) for v in values]
        assert labels == sorted(labels)


# ---------------------------------------------------------------------------
# consistency loss


def test_tcc_zero_iff_exact_match():
    preds = [ad.Tensor(1.0), ad.Tensor(0.0), ad.Tensor(1.0)]
    assert tcc_loss(preds, [1, 0, 1]).item() == 0.0
    assert tcc_loss(preds, [0, 0, 1]).item() > 0.0


def test_tcc_maximal_distance():
    preds = [ad.Tensor(1.0)] * 3
    assert tcc_loss(preds, [0, 0, 0]).item() == pytest.approx(3.0)


def test_tcc_hand_oracle():
    preds = [ad.Tensor(0.5), ad.Tensor(0.2), ad.Tensor(0.9)]
    assert tcc_loss(preds, [1, 0, 1]).item() == pytest.approx(0.30)


def test_tcc_length_mismatch():
    with pytest.raises(ContractError):
        tcc_loss([ad.Tensor(0.5)], [1, 0])


def test_tcc_nonnegative_random():
    for _ in range(200):
        preds = [ad.Tensor(rng.uniform(0, 1)) for _ in range(3)]
        labels = list(rng.integers(0, 2, 3))
        assert tcc_loss(preds, labels).item() >= 0.0


def test_tcc_gradient_reaches_predictions_not_labels():
    preds = [ad.Tensor(v, requires_grad=True) for v in (0.5, 0.2, 0.9)]
    labels = [1, 0, 1]
    loss = tcc_loss(preds, labels)
    ad.backward(loss)
    np.testing.assert_allclose([p.grad for p in preds],
                               [2 * (0.5 - 1), 2 * 0.2, 2 * (0.9 - 1)])
    assert all(isinstance(lab, int) for lab in labels)  # detached targets
