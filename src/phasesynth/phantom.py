"""Synthetic contrast-dynamics phantom dataset.

Each case pairs a non-contrast image and tumor mask with three
contrast-phase images whose in-lesion enhancement follows a
class-dependent intensity-time curve: malignant lesions wash in fast and
wash out by the delayed phase (gamma-variate profile), benign lesions
fill progressively. Lesion baseline intensity ranges are disjoint per
class, so both the dynamic signature (in the phase images) and a static
cue (in the non-contrast image) carry the label.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .config import Config
from .errors import ConfigError, ContractError, DomainError, GenerationError
from .tensorio import load_archive, save_archive

PHASE_NAMES = ("art", "pv", "delay")
# nominal normalized acquisition times: 30 s / 75 s / 300 s over the
# delayed-phase time; per-case times are drawn around these (sample_times)
DEFAULT_TIMES = (0.1, 0.25, 1.0)
PARENCHYMA_RATE = 0.25
SPLITS = ("train", "val", "test")
# a dataset is manifest.json plus one case_NNNN.ntar archive per case that
# holds these tensors, with {"label", "times", "seed"} as its meta
MANIFEST_SCHEMA = 2
CASE_TENSORS = ("ncmri", "mask") + tuple(f"phase_{name}" for name in PHASE_NAMES)


@dataclass
class LesionSpec:
    center: tuple  # (row, col) pixels
    radii: tuple  # (r_row, r_col) pixels
    class_label: int  # 0 benign, 1 malignant
    base_intensity: float
    amplitude: float
    noise_sigma: float = 0.0

    def validate(self, image_size):
        r, c = self.center
        rr, rc = self.radii
        if rr <= 0 or rc <= 0:
            raise GenerationError("lesion radii must be positive")
        if not (r - rr >= 2 and c - rc >= 2 and r + rr <= image_size - 3 and c + rc <= image_size - 3):
            raise GenerationError("lesion ellipse must lie inside the image with a 2-pixel margin")
        if self.class_label not in (0, 1):
            raise GenerationError("class_label must be 0 (benign) or 1 (malignant)")
        if not 0.0 <= self.base_intensity <= 1.0:
            raise GenerationError("base_intensity outside [0,1]")
        if not 0.0 <= self.amplitude <= 1.0:
            raise GenerationError("amplitude outside [0,1]")
        if self.base_intensity + self.amplitude > 1.0:
            raise GenerationError("base_intensity + amplitude exceeds 1")
        if not 0.0 <= self.noise_sigma <= 0.05:
            raise GenerationError("noise_sigma outside [0, 0.05]")


@dataclass
class CaseRecord:
    ncmri: np.ndarray
    tumor_mask: np.ndarray
    phases: list  # [art, pv, delay]
    times: tuple
    class_label: int
    seed: int


@dataclass
class PhantomConfig(Config):
    image_size: int = 64
    case_count: int = 200
    class_balance: float = 0.5  # malignant fraction
    times: tuple = DEFAULT_TIMES
    benign_intensity: tuple = (0.25, 0.40)
    malignant_intensity: tuple = (0.55, 0.70)
    amplitude: tuple = (0.20, 0.30)
    radius: tuple = (6.0, 12.0)
    background: tuple = (0.35, 0.55)
    noise_sigma: float = 0.01
    time_jitter: float = 1.0  # 0 = every case at the nominal times
    master_seed: int = 42
    split_fractions: tuple = (0.70, 0.15, 0.15)
    noun = "phantom config"

    def validate(self):
        if self.case_count < 2:
            raise ConfigError("case_count must be at least 2")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be non-negative")
        if not 0.0 < self.class_balance < 1.0:
            raise ConfigError("class_balance must lie in (0,1)")
        if self.image_size < 16:
            raise ConfigError("image_size too small")
        if not _increasing_unit_times(self.times):
            raise ConfigError("times must be strictly increasing in (0,1]")
        # _draw_spec keeps every lesion 3 pixels inside the image
        lo, hi = self.radius
        if not (0.0 < lo <= hi and hi + 3.0 <= (self.image_size - 1) / 2):
            raise ConfigError("radius needs 0 < low <= high and high + 3 <= (image_size - 1) / 2")
        for name in ("benign_intensity", "malignant_intensity", "amplitude", "background"):
            lo, hi = getattr(self, name)
            if not 0.0 <= lo <= hi <= 1.0:
                raise ConfigError(f"{name} needs 0 <= low <= high <= 1")
        # LesionSpec.validate asks this of every drawn lesion
        if max(self.benign_intensity[1], self.malignant_intensity[1]) + self.amplitude[1] > 1.0:
            raise ConfigError("amplitude high plus the larger benign_intensity or "
                              "malignant_intensity high exceeds 1")
        if not 0.0 <= self.noise_sigma <= 0.05:
            raise ConfigError("noise_sigma outside [0, 0.05]")
        if not 0.0 <= self.time_jitter <= 1.0:
            raise ConfigError("time_jitter outside [0,1]")
        # the slack lets decimal fractions such as (0.70, 0.15, 0.15) through
        if not (all(f >= 0.0 for f in self.split_fractions)
                and math.fsum(self.split_fractions) <= 1.0 + 1e-9):
            raise ConfigError("split_fractions must be non-negative and sum to at most 1")


def enhancement_curve(class_label, t, peak_time=DEFAULT_TIMES[0]):
    """Intensity multiplier E(t) in [0,1] for the lesion interior."""
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"normalized time {t} outside [0,1]")
    if class_label == 1:
        # gamma-variate wash-in/washout, peak normalized to 1 at peak_time
        if t == 0.0:
            return 0.0
        x = t / peak_time
        return x * math.exp(1.0 - x)
    return 1.0 - math.exp(-3.0 * t)


def _increasing_unit_times(times):
    return all(0.0 < t <= 1.0 for t in times) and list(times) == sorted(set(times))


def sample_times(base, jitter, rng):
    """Per-case acquisition times in disjoint windows around nominal ones.

    Each time moves at most 40% of the gap toward its neighbor (0 and 1
    at the ends), scaled by ``jitter``, so the sampled times stay
    strictly increasing in (0,1] for any strictly increasing base.
    """
    base = tuple(base)
    if not _increasing_unit_times(base):
        raise GenerationError("times must be strictly increasing in (0,1]")
    if jitter == 0.0:
        return base
    bounds = (0.0,) + base + (1.0,)
    times = []
    for i, t in enumerate(base):
        down = 0.4 * jitter * (t - bounds[i])
        up = 0.4 * jitter * (bounds[i + 2] - t)
        times.append(rng.uniform(t - down, t + up))
    return tuple(times)


@functools.lru_cache(maxsize=None)
def _bilinear_plan(size, coarse):
    """Flat gather indices and weight matrices of the four corners of a
    bilinear upsample from a coarse x coarse grid to size x size; built
    once per pair and returned read-only, since every caller shares them."""
    src = np.linspace(0.0, coarse - 1.0, size)
    i0 = np.floor(src).astype(int)
    i1 = np.minimum(i0 + 1, coarse - 1)
    frac = src - i0
    plan = (i0[:, None] * coarse + i0, i0[:, None] * coarse + i1,
            i1[:, None] * coarse + i0, i1[:, None] * coarse + i1,
            np.outer(1 - frac, 1 - frac), np.outer(1 - frac, frac),
            np.outer(frac, 1 - frac), np.outer(frac, frac))
    for a in plan:
        a.flags.writeable = False
    return plan


def _smooth_field(rng, size, lo, hi, coarse=8):
    """Low-frequency random field: bilinear upsample of a coarse grid."""
    grid = rng.uniform(lo, hi, size=(coarse, coarse))
    g00, g01, g10, g11, w00, w01, w10, w11 = _bilinear_plan(size, coarse)
    return (grid.take(g00) * w00 + grid.take(g01) * w01
            + grid.take(g10) * w10 + grid.take(g11) * w11)


def _ellipse_mask(size, center, radii):
    r = np.arange(size)
    return (((r[:, None] - center[0]) / radii[0]) ** 2
            + ((r[None, :] - center[1]) / radii[1]) ** 2) <= 1.0


def generate_case(spec, times, seed, image_size=64, background=(0.35, 0.55)):
    spec.validate(image_size)
    times = tuple(times)
    if not _increasing_unit_times(times):
        raise GenerationError("times must be strictly increasing in (0,1]")
    rng = np.random.default_rng(seed)
    mask = _ellipse_mask(image_size, spec.center, spec.radii)
    ncmri = _smooth_field(rng, image_size, background[0], background[1])
    ncmri = np.clip(np.where(mask, spec.base_intensity, ncmri), 0.0, 1.0)

    peak = times[0]
    phases = []
    for t in times:
        # one addition per pixel: the lesion's enhancement or the parenchyma's
        img = ncmri + np.where(
            mask, spec.amplitude * enhancement_curve(spec.class_label, t, peak_time=peak),
            PARENCHYMA_RATE * t)
        if spec.noise_sigma > 0:
            img += rng.normal(0.0, spec.noise_sigma, img.shape)
        phases.append(np.clip(img, 0.0, 1.0))
    return CaseRecord(
        ncmri=ncmri,
        tumor_mask=mask.astype(np.float64),
        phases=phases,
        times=times,
        class_label=spec.class_label,
        seed=seed,
    )


def _draw_spec(cfg, class_label, rng):
    lo, hi = cfg.radius
    radii = (rng.uniform(lo, hi), rng.uniform(lo, hi))
    margin = max(radii) + 3.0
    center = (
        rng.uniform(margin, cfg.image_size - 1 - margin),
        rng.uniform(margin, cfg.image_size - 1 - margin),
    )
    intensity = cfg.malignant_intensity if class_label == 1 else cfg.benign_intensity
    return LesionSpec(
        center=center,
        radii=radii,
        class_label=class_label,
        base_intensity=rng.uniform(*intensity),
        amplitude=rng.uniform(*cfg.amplitude),
        noise_sigma=cfg.noise_sigma,
    )


def assign_splits(case_count, fractions, rng):
    n_train = int(case_count * fractions[0])
    n_val = int(case_count * fractions[1])
    order = rng.permutation(case_count)
    splits = [""] * case_count
    for pos, idx in enumerate(order):
        if pos < n_train:
            splits[idx] = "train"
        elif pos < n_train + n_val:
            splits[idx] = "val"
        else:
            splits[idx] = "test"
    return splits


def _write_case(cfg, out_dir, index, label):
    """Generate one case and write it as one archive; pure given (cfg, index, label)."""
    seed = cfg.master_seed + index
    rng = np.random.default_rng(seed)
    spec = _draw_spec(cfg, label, rng)
    times = sample_times(cfg.times, cfg.time_jitter, rng)
    case = generate_case(spec, times, seed, cfg.image_size, cfg.background)
    name = f"case_{index:04d}.ntar"
    save_archive(os.path.join(out_dir, name),
                 dict(zip(CASE_TENSORS, [case.ncmri, case.tumor_mask, *case.phases])),
                 meta={"label": label, "times": list(times), "seed": seed})
    return name


def generate_dataset(cfg, out_dir):
    """Write one archive per case and a manifest; fully determined by cfg.master_seed."""
    cfg.validate()
    os.makedirs(out_dir, exist_ok=True)
    n_mal = int(round(cfg.case_count * cfg.class_balance))
    labels = [1] * n_mal + [0] * (cfg.case_count - n_mal)
    split_rng = np.random.default_rng(cfg.master_seed)
    splits = assign_splits(cfg.case_count, cfg.split_fractions, split_rng)
    cases = [
        {"id": f"case_{i:04d}", "label": labels[i], "seed": cfg.master_seed + i,
         "split": splits[i], "path": _write_case(cfg, out_dir, i, labels[i])}
        for i in range(cfg.case_count)
    ]

    manifest = {
        "schema_version": MANIFEST_SCHEMA,
        "config": cfg.echo(),
        "cases": cases,
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    return manifest_path


def _check(ok, path, problem):
    if not ok:
        raise ContractError(f"{path}: {problem}")


def _bare_name(path):
    """A non-empty file name with no directory part and no leading '.', so
    that joined to the data directory it stays inside it."""
    return (isinstance(path, str) and path != "" and path == os.path.basename(path)
            and not path.startswith("."))


def load_manifest(data_dir, image_size=None):
    """The manifest, format-checked; ConfigError if ``image_size`` is given and differs."""
    path = os.path.join(data_dir, "manifest.json")
    with open(path) as f:
        m = json.load(f)
    version = m.get("schema_version") if isinstance(m, dict) else None
    _check(version == MANIFEST_SCHEMA, path,
           f"manifest schema_version {version!r} is not {MANIFEST_SCHEMA}; datasets from "
           "earlier versions must be regenerated with `phasesynth generate`")
    _check(isinstance(m.get("config"), dict)
           and type(m["config"].get("image_size")) is int and isinstance(m.get("cases"), list)
           and all(isinstance(e, dict) and isinstance(e.get("id"), str)
                   and _bare_name(e.get("path")) and e.get("split") in SPLITS
                   for e in m["cases"]),
           path, "manifest needs an integer config.image_size and a cases list of "
           "entries with a string id, a path that is a bare file name (no separator, "
           f"no leading '.') and a split in {SPLITS}")
    if image_size is not None and m["config"]["image_size"] != image_size:
        raise ConfigError(f"model image size {image_size} does not match dataset "
                          f"{m['config']['image_size']}")
    return m


def load_case(data_dir, entry, image_size=None):
    """One case archive; its meta and tensors are checked against the generator's
    format, its images against ``image_size`` when that is given, and every
    pixel: finite and within [0, 1], the mask's 0 or 1."""
    path = os.path.join(data_dir, entry["path"])
    named, meta = load_archive(path)
    times = meta.get("times") if isinstance(meta, dict) else None
    _check(isinstance(times, list) and len(times) == len(PHASE_NAMES)
           and all(type(t) in (int, float) for t in times) and _increasing_unit_times(times)
           and meta.get("label") in (0, 1) and type(meta["label"]) is int
           and type(meta.get("seed")) is int,
           path, "meta needs 3 strictly increasing times in (0,1], "
           "a 0 or 1 label and an integer seed")
    _check(sorted(named) == sorted(CASE_TENSORS), path,
           f"archive holds tensors {sorted(named)}, not {sorted(CASE_TENSORS)}")
    images = [named[name] for name in CASE_TENSORS]
    _check(len({a.shape for a in images}) == 1 and images[0].ndim == 2,
           path, "images differ in shape or are not 2-D")
    _check(image_size is None or images[0].shape == (image_size,) * 2, path,
           f"images are {images[0].shape}, not {(image_size,) * 2}, the model's image size")
    for name, a in zip(CASE_TENSORS, images):  # a NaN fails every comparison
        ok = np.all((a == 0) | (a == 1)) if name == "mask" else a.min() >= 0 and a.max() <= 1
        _check(ok, path, f"tensor {name!r} must hold finite values in [0, 1] (a mask 0 or 1)")
    return CaseRecord(images[0], images[1], images[2:], tuple(times), meta["label"], meta["seed"])
