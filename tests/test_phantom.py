"""Phantom generator: curves, invariants, determinism, and manifests."""

import hashlib
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasesynth.errors import ConfigError, ContractError, DomainError, GenerationError
from phasesynth.phantom import (CASE_TENSORS, DEFAULT_TIMES, PARENCHYMA_RATE,
                                CaseRecord, LesionSpec, PhantomConfig, assign_splits,
                                enhancement_curve, generate_case,
                                generate_dataset, load_case, load_manifest)
from phasesynth.tensorio import load_archive, save_archive


def make_spec(**kw):
    base = dict(center=(32, 30), radii=(8.0, 6.0), class_label=1,
                base_intensity=0.6, amplitude=0.25, noise_sigma=0.0)
    base.update(kw)
    return LesionSpec(**base)


# ---------------------------------------------------------------------------
# enhancement curve


def test_benign_zero_at_injection():
    assert enhancement_curve(0, 0.0) == 0.0


def test_malignant_peak_normalized():
    assert enhancement_curve(1, DEFAULT_TIMES[0]) == pytest.approx(1.0)


def test_benign_final_value_frozen():
    # 1 - e^-3, frozen from closed form
    assert enhancement_curve(0, 1.0) == pytest.approx(0.9502129316321360, abs=1e-12)


def test_curve_domain_error():
    with pytest.raises(DomainError):
        enhancement_curve(0, 1.5)


def test_malignant_washout_at_configured_times():
    art, pv, delay = (enhancement_curve(1, t) for t in DEFAULT_TIMES)
    assert art > pv > delay


@settings(max_examples=100, deadline=None)
@given(st.floats(0.01, 1.0), st.floats(0.0, 1.0))
def test_curve_bounded(peak, t):
    assert 0.0 <= enhancement_curve(1, t, peak_time=peak) <= 1.0
    assert 0.0 <= enhancement_curve(0, t) <= 1.0


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 0.999), st.floats(0.001, 0.5))
def test_benign_curve_monotone(t, dt):
    assert enhancement_curve(0, min(t + dt, 1.0)) >= enhancement_curve(0, t)


# ---------------------------------------------------------------------------
# spec validation


def test_spec_margin_enforced():
    with pytest.raises(GenerationError, match="margin"):
        make_spec(center=(5, 32), radii=(8.0, 6.0)).validate(64)


def test_spec_headroom_enforced():
    with pytest.raises(GenerationError, match="exceeds 1"):
        make_spec(base_intensity=0.9, amplitude=0.2).validate(64)


def test_spec_noise_cap():
    with pytest.raises(GenerationError, match="noise_sigma"):
        make_spec(noise_sigma=0.2).validate(64)


def test_spec_bad_label():
    with pytest.raises(GenerationError, match="class_label"):
        make_spec(class_label=2).validate(64)


# ---------------------------------------------------------------------------
# case generation


def test_case_determinism():
    a = generate_case(make_spec(), DEFAULT_TIMES, seed=11)
    b = generate_case(make_spec(), DEFAULT_TIMES, seed=11)
    assert (a.ncmri == b.ncmri).all()
    assert (a.tumor_mask == b.tumor_mask).all()
    for pa, pb in zip(a.phases, b.phases):
        assert (pa == pb).all()


def test_case_shapes_and_ranges():
    case = generate_case(make_spec(), DEFAULT_TIMES, seed=5)
    assert case.ncmri.shape == (64, 64)
    assert case.tumor_mask.shape == (64, 64)
    assert set(np.unique(case.tumor_mask)) <= {0.0, 1.0}
    for img in [case.ncmri] + case.phases:
        assert img.min() >= 0.0 and img.max() <= 1.0


def test_degenerate_lesion_only_parenchyma():
    spec = make_spec(amplitude=0.0, noise_sigma=0.0)
    case = generate_case(spec, DEFAULT_TIMES, seed=2)
    mask = case.tumor_mask.astype(bool)
    for t, phase in zip(case.times, case.phases):
        np.testing.assert_array_equal(phase[mask], case.ncmri[mask])
        outside = np.clip(case.ncmri[~mask] + PARENCHYMA_RATE * t, 0, 1)
        np.testing.assert_allclose(phase[~mask], outside, atol=1e-12)


def test_malignant_washout_signature():
    for seed in range(10):
        case = generate_case(make_spec(noise_sigma=0.0), DEFAULT_TIMES, seed=seed)
        mask = case.tumor_mask.astype(bool)
        means = [case.ncmri[mask].mean()] + [p[mask].mean() for p in case.phases]
        assert means[1] > means[0]  # wash-in to Art
        assert means[2] > means[3]  # washout PV -> Delay


def test_benign_progressive_fill():
    for seed in range(10):
        spec = make_spec(class_label=0, base_intensity=0.3, noise_sigma=0.0)
        case = generate_case(spec, DEFAULT_TIMES, seed=seed)
        mask = case.tumor_mask.astype(bool)
        means = [case.ncmri[mask].mean()] + [p[mask].mean() for p in case.phases]
        assert all(b >= a for a, b in zip(means, means[1:]))


def test_bayes_separability_zero_noise():
    """Art-minus-Delay masked intensity thresholds the classes perfectly."""
    gaps, labels = [], []
    for i in range(40):
        label = i % 2
        intensity = 0.6 if label else 0.3
        spec = make_spec(class_label=label, base_intensity=intensity, noise_sigma=0.0)
        case = generate_case(spec, DEFAULT_TIMES, seed=100 + i)
        mask = case.tumor_mask.astype(bool)
        gaps.append(case.phases[0][mask].mean() - case.phases[2][mask].mean())
        labels.append(label)
    gaps, labels = np.array(gaps), np.array(labels)
    threshold = (gaps[labels == 1].min() + gaps[labels == 0].max()) / 2
    assert ((gaps > threshold).astype(int) == labels).all()


def test_bad_times_rejected():
    with pytest.raises(GenerationError):
        generate_case(make_spec(), (0.5, 0.25, 1.0), seed=1)
    with pytest.raises(GenerationError):
        generate_case(make_spec(), (0.0, 0.5, 1.0), seed=1)


# ---------------------------------------------------------------------------
# dataset level


def test_split_fractions_default():
    rng = np.random.default_rng(0)
    splits = assign_splits(200, (0.70, 0.15, 0.15), rng)
    assert splits.count("train") == 140
    assert splits.count("val") == 30
    assert splits.count("test") == 30


def test_generate_dataset_layout_and_balance(tmp_path):
    cfg = PhantomConfig(case_count=10, master_seed=9,
                        split_fractions=(0.6, 0.2, 0.2))
    path = generate_dataset(cfg, str(tmp_path))
    manifest = load_manifest(str(tmp_path))
    assert os.path.basename(path) == "manifest.json"
    assert manifest["schema_version"] == 2
    assert len(manifest["cases"]) == 10
    labels = [c["label"] for c in manifest["cases"]]
    assert labels.count(1) == 5 and labels.count(0) == 5
    case = load_case(str(tmp_path), manifest["cases"][3])
    assert isinstance(case, CaseRecord)
    # per-case jittered times: strictly increasing, inside (0,1]
    assert list(case.times) == sorted(case.times)
    assert all(0.0 < t <= 1.0 for t in case.times)
    assert case.times != tuple(DEFAULT_TIMES)


def test_generate_dataset_deterministic(tmp_path):
    cfg = PhantomConfig(case_count=6, master_seed=21, split_fractions=(0.5, 0.25, 0.25))
    generate_dataset(cfg, str(tmp_path / "a"))
    generate_dataset(cfg, str(tmp_path / "b"))
    man_a = (tmp_path / "a" / "manifest.json").read_bytes()
    man_b = (tmp_path / "b" / "manifest.json").read_bytes()
    assert man_a == man_b
    blob_a = (tmp_path / "a" / "case_0002.ntar").read_bytes()
    blob_b = (tmp_path / "b" / "case_0002.ntar").read_bytes()
    assert blob_a == blob_b
    (named_a, meta_a), (named_b, meta_b) = (load_archive(tmp_path / side / "case_0002.ntar")
                                            for side in ("a", "b"))
    assert meta_a == meta_b
    np.testing.assert_array_equal(named_a["ncmri"], named_b["ncmri"])


def test_generate_dataset_writes_one_archive_per_case(tmp_path):
    cfg = PhantomConfig(case_count=5, master_seed=2, split_fractions=(0.6, 0.2, 0.2))
    generate_dataset(cfg, str(tmp_path))
    assert sorted(os.listdir(tmp_path)) == \
        [f"case_{i:04d}.ntar" for i in range(5)] + ["manifest.json"]
    assert not [p for p in tmp_path.iterdir() if p.is_dir()]
    manifest = load_manifest(str(tmp_path))
    assert [e["path"] for e in manifest["cases"]] == [f"{e['id']}.ntar" for e in manifest["cases"]]
    named, meta = load_archive(tmp_path / "case_0001.ntar")
    assert sorted(named) == sorted(CASE_TENSORS)
    assert sorted(meta) == ["label", "seed", "times"]


def test_config_validation():
    with pytest.raises(ConfigError):
        PhantomConfig(case_count=1).validate()
    with pytest.raises(ConfigError):
        PhantomConfig(class_balance=0.0).validate()


@pytest.mark.parametrize("field, value", [
    ("times", (0.5, 0.2, 0.9)), ("times", (0.0, 0.5, 1.0)), ("times", (0.2, 0.5, 1.2)),
    ("radius", (0.0, 5.0)), ("radius", (8.0, 5.0)), ("radius", (29.0, 29.0)),
])
def test_config_validation_checks_times_and_radius(field, value):
    with pytest.raises(ConfigError, match=field):
        PhantomConfig(**{field: value}).validate()


@pytest.mark.parametrize("field, value", [
    ("benign_intensity", (-0.1, 0.3)), ("malignant_intensity", (0.7, 0.6)),
    ("amplitude", (0.3, 0.2)), ("amplitude", (0.9, 0.95)), ("background", (0.5, 1.2)),
    ("malignant_intensity", (0.55, 0.8)), ("benign_intensity", (0.2, 0.75)),
    ("noise_sigma", 0.2), ("noise_sigma", -0.01),
])
def test_config_validation_checks_intensity_ranges_and_noise(field, value):
    with pytest.raises(ConfigError, match=field):
        PhantomConfig(**{field: value}).validate()


def test_intensity_ranges_at_their_bounds_generate(tmp_path):
    # the largest intensity high plus the amplitude high may reach 1 exactly
    cfg = PhantomConfig(image_size=32, case_count=4, benign_intensity=(0.0, 0.0),
                        malignant_intensity=(0.5, 0.75), amplitude=(0.25, 0.25),
                        background=(1.0, 1.0), noise_sigma=0.05)
    generate_dataset(cfg, str(tmp_path))
    assert len(load_manifest(str(tmp_path))["cases"]) == 4


def test_radius_at_its_bound_generates(tmp_path):
    # high + 3 == (image_size - 1) / 2: a lesion centre has one possible value
    generate_dataset(PhantomConfig(image_size=31, case_count=2, radius=(12.0, 12.0)),
                     str(tmp_path))
    assert len(load_manifest(str(tmp_path))["cases"]) == 2
    with pytest.raises(ConfigError, match="radius"):
        PhantomConfig(image_size=31, radius=(12.0, 12.5)).validate()


@pytest.mark.parametrize("fractions", [(0.5, 0.8, 0.0), (-0.2, 0.1, 0.0)])
def test_split_fractions_validated(fractions):
    # (0.5, 0.8, 0.0) used to give 100/100/0 of 200 cases, (-0.2, 0.1, 0.0) all 200 to test
    with pytest.raises(ConfigError, match="split_fractions"):
        PhantomConfig(split_fractions=fractions).validate()


@pytest.mark.parametrize("fractions", [(0.70, 0.15, 0.15), (0.11, 0.06, 0.83),
                                       (0.05, 0.03, 0.92), (0.5, 0.25, 0.25), (0.5, 0.5, 0.0)])
def test_split_fractions_that_sum_to_one_pass(fractions):
    PhantomConfig(split_fractions=fractions).validate()


def test_class_intensity_ranges_disjoint():
    """The static class cue: benign and malignant baselines never overlap."""
    cfg = PhantomConfig()
    assert cfg.benign_intensity[1] < cfg.malignant_intensity[0]


# ---------------------------------------------------------------------------
# per-case acquisition times


def test_sample_times_zero_jitter_is_nominal():
    from phasesynth.phantom import sample_times

    rng = np.random.default_rng(0)
    assert sample_times(DEFAULT_TIMES, 0.0, rng) == DEFAULT_TIMES


def test_sample_times_windows_disjoint_and_ordered():
    from phasesynth.phantom import sample_times

    rng = np.random.default_rng(1)
    for _ in range(500):
        t = sample_times(DEFAULT_TIMES, 1.0, rng)
        assert list(t) == sorted(t)
        assert all(0.0 < x <= 1.0 for x in t)
        # each time stays within 40% of the gap toward its neighbors
        assert 0.06 <= t[0] <= 0.16
        assert 0.19 <= t[1] <= 0.55
        assert 0.70 <= t[2] <= 1.00


def test_sample_times_deterministic():
    from phasesynth.phantom import sample_times

    a = sample_times(DEFAULT_TIMES, 0.5, np.random.default_rng(9))
    b = sample_times(DEFAULT_TIMES, 0.5, np.random.default_rng(9))
    assert a == b


def test_sample_times_rejects_bad_base():
    from phasesynth.phantom import sample_times

    with pytest.raises(GenerationError):
        sample_times((0.3, 0.2, 1.0), 1.0, np.random.default_rng(0))


def test_time_jitter_config_validation():
    with pytest.raises(ConfigError):
        PhantomConfig(time_jitter=1.5).validate()


# ---------------------------------------------------------------------------
# config and dataset format checks


def test_config_from_manifest_echo_round_trip(tmp_path):
    cfg = PhantomConfig(case_count=4, master_seed=3, split_fractions=(0.5, 0.25, 0.25))
    generate_dataset(cfg, str(tmp_path))
    assert PhantomConfig.from_dict(load_manifest(str(tmp_path))["config"]) == cfg


def damaged_case(root, damage):
    """The manifest entry of a generated case whose tensors ``damage`` edited in place."""
    cfg = PhantomConfig(case_count=2, master_seed=3, split_fractions=(0.5, 0.5, 0.0))
    generate_dataset(cfg, str(root))
    entry = load_manifest(str(root))["cases"][0]
    path = root / entry["path"]
    named, meta = load_archive(path)
    damage(named)
    save_archive(path, named, meta=meta)
    return entry


def test_load_case_rejects_images_of_different_shapes(tmp_path):
    entry = damaged_case(tmp_path, lambda named: named.update(mask=np.zeros((32, 32))))
    with pytest.raises(ContractError, match="shape"):
        load_case(str(tmp_path), entry)


def test_load_case_refuses_a_case_of_another_image_size(tmp_path):
    entry = damaged_case(tmp_path, lambda named: None)
    assert load_case(str(tmp_path), entry, 64).ncmri.shape == (64, 64)
    with pytest.raises(ContractError, match="model's image size"):
        load_case(str(tmp_path), entry, 32)


def _extra_tensor(named):
    named["phase_late"] = named["ncmri"]


def _all_three_d(named):
    for name in named:
        named[name] = named[name][None]


@pytest.mark.parametrize("damage", [_extra_tensor, _all_three_d])
def test_load_case_rejects_archives_without_the_five_2d_images(tmp_path, damage):
    entry = damaged_case(tmp_path, damage)
    with pytest.raises(ContractError):
        load_case(str(tmp_path), entry)


def write_manifest(root, schema_version=2, path="a.ntar", split="train"):
    (root / "manifest.json").write_text(json.dumps(
        {"schema_version": schema_version, "config": {"image_size": 64},
         "cases": [{"id": "a", "path": path, "split": split}]}))


def test_load_manifest_rejects_unknown_split(tmp_path):
    write_manifest(tmp_path, split="dev")
    with pytest.raises(ContractError):
        load_manifest(str(tmp_path))


@pytest.mark.parametrize("version", [1, None, "2"])
def test_load_manifest_asks_to_regenerate_an_old_dataset(tmp_path, version):
    write_manifest(tmp_path, schema_version=version)
    with pytest.raises(ContractError, match="phasesynth generate"):
        load_manifest(str(tmp_path))


@pytest.mark.parametrize("path", ["../x", "/abs", "sub/case.ntar", ".hidden", "", 3])
def test_load_manifest_rejects_a_path_that_is_not_a_bare_file_name(tmp_path, path):
    write_manifest(tmp_path, path=path)
    with pytest.raises(ContractError, match="bare file name"):
        load_manifest(str(tmp_path))


def tree_sha256(root):
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for dirpath, dirnames, files in os.walk(root):
        dirnames.sort()
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


@pytest.mark.parametrize("size, count, seed, digest", [
    (64, 6, 3, "449e715cdd23eacf65dd4cf255a13133428b9abfe494ea63d63a4b2ea449f5c4"),
    (48, 4, 11, "9b81b1bc41517c149fbc05d410c0b515a055505cae56d8875d794dcfe44784b2"),
], ids=["64-6-3", "48-4-11"])
def test_generated_dataset_bytes_are_pinned(tmp_path, size, count, seed, digest):
    # every later input (training, benchmarks, criteria) derives from these
    # bytes, so a change to them has to be deliberate
    generate_dataset(PhantomConfig(image_size=size, case_count=count, master_seed=seed),
                     str(tmp_path))
    assert tree_sha256(str(tmp_path)) == digest


def content_sha256(data_dir):
    """sha256 over each case's id, its five images as <f8 bytes and its meta,
    in manifest order: the dataset's content, whatever the file format."""
    h = hashlib.sha256()
    for entry in load_manifest(data_dir)["cases"]:
        case = load_case(data_dir, entry)
        h.update(entry["id"].encode() + b"\0")
        for image in [case.ncmri, case.tumor_mask, *case.phases]:
            h.update(np.asarray(image, dtype="<f8").tobytes())
        h.update(json.dumps({"times": list(case.times), "label": case.class_label,
                             "seed": case.seed}, sort_keys=True).encode())
    return h.hexdigest()


@pytest.mark.parametrize("size, count, seed, digest", [
    (64, 6, 3, "0e9f02897ee9a13da73db0e5e08063d8762083086f31c6dc86aad267119a13b0"),
    (48, 4, 11, "3c78f69a0a722ff4fab644f7c69ecaee774bc42a9eb8250eef5fad1265cfd6f6"),
], ids=["64-6-3", "48-4-11"])
def test_generated_dataset_content_is_pinned(tmp_path, size, count, seed, digest):
    # the same values as the one-file-per-tensor layout that came before the
    # archives: the format moved, the arrays and meta did not
    generate_dataset(PhantomConfig(image_size=size, case_count=count, master_seed=seed),
                     str(tmp_path))
    assert content_sha256(str(tmp_path)) == digest
