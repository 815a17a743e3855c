"""Autoregressive multi-phase synthesis core.

One forward pass encodes the non-contrast inputs once, then synthesizes
the three contrast phases strictly in time order. Each step attends over
the current conditional tokens plus the token blocks retained from
earlier phases (the model's own outputs; no teacher forcing), decodes an
image, segmentation logits, and a pooled feature vector, and keeps the
updated conditional block as context for later phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import tcc as tcc_mod
from .attention import DtamConfig, mmhsa_block
from .config import Config
from .encoder import build_conditional_token, depatchify, encode_features
from .errors import ConfigError, ContractError
from .losses import LossWeights
from .phantom import PHASE_NAMES

# ablation -> (gaussian decay, phase token, time token, TCC participates),
# in the order of the ablation table
ABLATIONS = {
    "baseline": (False, False, False, False),
    "no_dtam": (False, True, True, True),
    "no_cte": (True, False, False, True),
    "no_t_encoding": (True, True, False, True),
    "full": (True, True, True, True),
}


@dataclass
class ModelConfig(Config):
    image_size: int = 64
    patch_size: int = 8  # CTE patch side
    embed_dim: int = 64  # token width
    depth: int = 2  # neighbour-mixing stages of the patch encoder
    sigma: float = 0.7  # DTAM Gaussian-decay width
    head_count: int = 4
    omega: float = math.pi  # time-encoding frequency
    noun = "model config"

    def validate(self):
        if min(self.image_size, self.patch_size, self.embed_dim) < 1 or self.depth < 0:
            raise ConfigError("image_size, patch_size and embed_dim must be positive "
                              "and depth non-negative")
        if self.image_size % self.patch_size != 0:
            raise ConfigError(f"image size {self.image_size} not divisible by "
                              f"patch size {self.patch_size}")
        if self.embed_dim % 2 != 0:
            raise ConfigError("embed_dim must be even")
        DtamConfig(self.sigma, self.head_count).validate(self.embed_dim)


# here, not in training, so that metrics can read a checkpoint's whole config
@dataclass
class TrainConfig(Config):
    epochs: int = 100
    batch_size: int = 8
    base_lr: float = 1e-4
    warmup_epochs: int = 20
    seed: int = 42
    ablation: str = "full"
    weights: LossWeights = field(default_factory=LossWeights)
    model: ModelConfig = field(default_factory=ModelConfig)
    noun = "train config"

    def validate(self):
        if self.base_lr <= 0:
            raise ConfigError("base_lr must be positive")
        if not 0 <= self.warmup_epochs < self.epochs:
            raise ConfigError("warmup_epochs must be smaller than epochs")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"unknown ablation {self.ablation!r}")
        self.weights.validate()
        self.model.validate()


@dataclass
class PhaseOutput:
    image: ad.Tensor  # (H, W) in [0,1]
    seg_logits: ad.Tensor  # (H, W)
    feature: ad.Tensor  # (D,)


@dataclass
class PredictionBundle:
    phase_outputs: list
    aggregated_mask: np.ndarray
    class_probs: ad.Tensor  # (2,) softmax over {benign, malignant}
    per_phase_cls: list  # 3 scalar Tensors
    signals: list  # 3 floats, detached
    signal_labels: list  # 3 ints, detached

    @property
    def predicted(self):  # 0 benign, 1 malignant
        return int(np.argmax(self.class_probs.data))


# amplification applied to the masked-image token dims at init, keeping the
# class-discriminative lesion-intensity signal comparable in scale to the
# background-dominated image dims after mean pooling
GATE_GAIN = 8.0


def _group_average_map(n_in, n_out):
    """(n_in, n_out) matrix averaging contiguous groups; None if indivisible."""
    if n_out <= 0 or n_in % n_out != 0:
        return None
    m = n_in // n_out
    p = np.zeros((n_in, n_out))
    for j in range(n_out):
        p[j * m:(j + 1) * m, j] = 1.0 / m
    return p


def param_shapes(cfg):
    """{name: shape} of the parameters ``init_params(cfg, rng)`` makes, drawing nothing."""
    cfg.validate()
    d = cfg.embed_dim
    p2 = cfg.patch_size ** 2
    n = (cfg.image_size // cfg.patch_size) ** 2
    shapes = {
        "enc.patch_w": (3 * p2, d), "enc.patch_b": (d,),
        "enc.proj_w": (d, d), "enc.proj_b": (d,),
        "enc.phase_table": (3, d), "enc.fuse_w": (d + 2, d), "enc.fuse_b": (d,),
        "att.in_w": (d, d), "att.in_b": (d,), "att.pos": (3 * (n + 1), d),
        "att.q_w": (d, d), "att.k_w": (d, d), "att.v_w": (d, d),
        "att.out_w": (d, d), "att.out_b": (d,),
        "dec.img_w": (d, p2), "dec.img_b": (p2,), "dec.seg_w": (d, p2), "dec.seg_b": (p2,),
        "cls.fuse_w": (4 * d, 2), "cls.fuse_b": (2,), "cls.aux_w": (d, 1), "cls.aux_b": (1,),
    }
    for s in range(cfg.depth):
        shapes[f"enc.mix{s}_w"] = (d, d)
        shapes[f"enc.mix{s}_b"] = (d,)
    return shapes


def init_params(cfg, rng):
    """Seeded parameter initialization.

    Every tensor starts as zeros of its ``param_shapes`` shape. The drawn
    ones are then replaced by normal draws in a fixed order (a change to
    that order changes every trained model), and the structure below is
    written over them.

    The patch embedding and decoder start structure-preserving where the
    dimensions allow it: half the token dims carry a pooled copy of the
    image channel, a quarter the mask channel, an eighth the amplified
    masked image (the classification cue), and the decoder inverts the
    pooling, so the model reconstructs its input from the first step and
    training only has to learn the phase-dependent corrections.

    The remaining "carrier" dims stay empty in anatomical tokens and are
    where the conditional token writes its time/phase content. One
    attention head starts wired as a beacon: every token's query matches
    a constant marker in the conditional token's key, and the value/
    output projections pass the attended carrier content into the image
    dims as a global offset. That makes the conditioning pathway active
    from the first epoch instead of waiting for attention weights to
    grow out of zero.
    """
    arrays = {name: np.zeros(shape) for name, shape in param_shapes(cfg).items()}
    d = cfg.embed_dim
    p2 = cfg.patch_size ** 2
    head_dim = d // cfg.head_count
    half = d // 2
    mq = d // 4
    gate_n = d // 8
    cb = half + mq + gate_n  # first carrier dim
    carrier = d - cb
    pool_half = _group_average_map(p2, half)
    pool_mq = _group_average_map(p2, mq)
    pool_gate = _group_average_map(p2, gate_n)
    pooled = pool_half is not None and pool_mq is not None and pool_gate is not None
    beacon = pooled and carrier >= 4 and head_dim >= 4

    for name, std in (("enc.patch_w", 0.02), ("dec.img_w", 0.02), ("dec.seg_w", 0.02),
                      ("enc.fuse_w", 0.1), ("att.q_w", 0.05), ("att.k_w", 0.05),
                      ("att.v_w", 0.1), ("enc.proj_w", 0.02), ("enc.phase_table", 0.5),
                      ("att.in_w", 0.02), ("att.pos", 0.02)):
        arrays[name] = rng.normal(0.0, std, size=arrays[name].shape)
    # unused draws, as many as the TCC signal network once took, keep enc.mix* init bit-identical
    rng.normal(size=256 * d + 41_280)
    for s in range(cfg.depth):
        arrays[f"enc.mix{s}_w"] = rng.normal(0.0, 0.02, size=(d, d))
    arrays["enc.proj_w"] += np.eye(d)
    arrays["att.in_w"] += np.eye(d)

    if pooled:
        patch_w, img_w, seg_w = arrays["enc.patch_w"], arrays["dec.img_w"], arrays["dec.seg_w"]
        # dims [0, half): pooled image; [half, half+mq): pooled mask;
        # [half+mq, cb): amplified pooled masked image; [cb, d): carriers
        patch_w[:p2, :half] += pool_half
        patch_w[p2:2 * p2, half:half + mq] += pool_mq
        patch_w[2 * p2:, half + mq:cb] += GATE_GAIN * pool_gate
        img_w[:half, :] += 4.0 * (p2 // half) * pool_half.T
        seg_w[half:half + mq, :] += 8.0 * (p2 // mq) * pool_mq.T
        arrays["dec.img_b"][:] = -2.0
        arrays["dec.seg_b"][:] = -2.0

    if beacon:
        fuse_w, fuse_b = arrays["enc.fuse_w"], arrays["enc.fuse_b"]
        q_w, k_w, v_w, out_w = (arrays[f"att.{m}_w"] for m in ("q", "k", "v", "out"))
        n_phase = min(carrier - 3, head_dim - 3)
        # condition token: time encoding into the first two carrier dims,
        # a constant marker into the third; keep those three columns free
        # of phase-embedding leakage
        fuse_w[:, cb:cb + 3] = 0.0
        fuse_w[d, cb] = 1.0
        fuse_w[d + 1, cb + 1] = 1.0
        fuse_b[cb + 2] = 1.0
        # head 0: queries read the (always-positive) image dims, keys the
        # marker, so every token attends to the conditional token
        q_w[:half, 0] += 3.2 / half
        k_w[cb + 2, 0] += 4.0
        # values pass only carrier content; output seeds a global image
        # offset driven by the attended time/phase content
        v_w[:, :head_dim] = 0.0
        v_w[cb, 1] = 1.0
        v_w[cb + 1, 2] = 1.0
        for i in range(n_phase):
            v_w[cb + 3 + i, 3 + i] = 1.0
        out_w[1, :half] = 0.05
        out_w[2, :half] = 0.05
        out_w[3:3 + n_phase, :half] = 0.02

    return {name: ad.Tensor(a, requires_grad=True) for name, a in arrays.items()}


def synthesize_phase(index, cond, prior_blocks, cfg, params, use_decay=True, weights_out=None):
    """One autoregressive step. Returns (PhaseOutput, retained token block).
    The sequence is ``[cond, *prior_blocks]`` of ``(block, t)`` pairs, each token stamped
    with its block's time. ``weights_out``, a list, receives each head's attention weights."""
    if len(prior_blocks) != index:
        raise ContractError(f"phase {index} expects {index} prior blocks, got {len(prior_blocks)}")
    seq = [cond, *prior_blocks]
    block_times = [t for _, t in seq]
    if block_times[1:] + block_times[:1] != sorted(block_times):  # prior blocks, then cond
        raise ContractError("token blocks must appear in non-decreasing time order")

    tokens = ad.concat([b for b, _ in seq], axis=0) if prior_blocks else cond.tokens
    stamps = np.repeat(block_times, [b.shape[0] for b, _ in seq])
    out = mmhsa_block(tokens, stamps, cfg, params, use_decay=use_decay, weights_out=weights_out)
    block = ad.slice_axis(out, 0, 0, cond.tokens.shape[0])

    grid = cfg.image_size // cfg.patch_size
    img_tokens = ad.slice_axis(block, 0, 0, grid * grid)
    image = ad.sigmoid(depatchify(
        ad.linear(img_tokens, params["dec.img_w"], params["dec.img_b"]),
        grid, cfg.patch_size))
    seg = depatchify(
        ad.linear(img_tokens, params["dec.seg_w"], params["dec.seg_b"]),
        grid, cfg.patch_size)
    feature = ad.reduce_mean(block, axis=0)
    return PhaseOutput(image=image, seg_logits=seg, feature=feature), block


def aggregate_segmentation(s_art, s_pv, s_delay):
    """Per-pixel majority vote of the three thresholded segmentations."""
    maps = []
    for s in (s_art, s_pv, s_delay):
        arr = s.data if isinstance(s, ad.Tensor) else np.asarray(s)
        maps.append(arr > 0.0)  # sigmoid(logit) > 0.5 iff logit > 0
    if not (maps[0].shape == maps[1].shape == maps[2].shape):
        raise ContractError("segmentation maps differ in shape")
    votes = maps[0].astype(np.int64) + maps[1] + maps[2]
    return (votes >= 2).astype(np.uint8)


def fuse_and_classify(ncmri_feature, phase_outputs, params):
    """Fused classification head plus per-phase auxiliary probabilities."""
    if len(phase_outputs) != 3:
        raise ContractError(f"expected 3 phase outputs, got {len(phase_outputs)}")
    joint = ad.concat([ncmri_feature] + [po.feature for po in phase_outputs], axis=0)
    logits = ad.linear(joint, params["cls.fuse_w"], params["cls.fuse_b"])
    probs = ad.softmax_last_axis(logits)
    per_phase = [
        # detached feature input: the consistency loss trains only the
        # auxiliary head, never pulling on the shared synthesis trunk
        ad.reshape(ad.sigmoid(ad.linear(ad.Tensor(po.feature.data),
                                        params["cls.aux_w"], params["cls.aux_b"])), ())
        for po in phase_outputs
    ]
    return probs, per_phase


def run_autoregressive(ncmri, mask, times, params, cfg, ablation="full", record=None):
    """Full forward pass for one case; see module docstring."""
    if ablation not in ABLATIONS:
        raise ContractError(f"unknown ablation {ablation!r}")
    use_decay, use_phase, use_time, _ = ABLATIONS[ablation]
    times = tuple(times)

    t_ot = encode_features(ncmri, mask, cfg, params)
    pooled = ad.reduce_mean(t_ot, axis=0)

    phase_outputs = []
    blocks = []
    for i, (name, t) in enumerate(zip(PHASE_NAMES, times)):
        cond = build_conditional_token(t_ot, name, t, cfg, params,
                                       use_phase=use_phase, use_time=use_time)
        heads = [] if record is not None else None
        po, block = synthesize_phase(i, cond, blocks, cfg, params,
                                     use_decay=use_decay, weights_out=heads)
        if record is not None:
            seq = [cond, *blocks]
            record.append({"phase": name, "heads": heads,
                           "block_sizes": [b.shape[0] for b, _ in seq],
                           "block_times": [bt for _, bt in seq]})
        phase_outputs.append(po)
        blocks.append((block, t))

    aggregated = aggregate_segmentation(*[po.seg_logits for po in phase_outputs])
    class_probs, per_phase = fuse_and_classify(pooled, phase_outputs, params)

    signals = [tcc_mod.predict_signal(po.image.data, ncmri, mask) for po in phase_outputs]
    threshold = tcc_mod.TAU * max(signals)
    labels = [tcc_mod.signal_label(s, threshold) for s in signals]

    return PredictionBundle(
        phase_outputs=phase_outputs,
        aggregated_mask=aggregated,
        class_probs=class_probs,
        per_phase_cls=per_phase,
        signals=signals,
        signal_labels=labels,
    )
