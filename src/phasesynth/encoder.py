"""Conditional token construction.

A patch/conv feature encoder turns the (non-contrast image, tumor mask)
stack into a grid of anatomical tokens. Each synthesis step additionally
receives a learnable phase embedding and a sinusoidal encoding of the
normalized acquisition time; the two are fused by a learned linear map
into a single conditioning token appended to the grid.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .errors import ContractError, DomainError
from .phantom import PHASE_NAMES

PHASE_INDEX = {name: i for i, name in enumerate(PHASE_NAMES)}


class ConditionalToken(NamedTuple):
    """A step's token block and its time, shaped as a retained ``(block, t)`` pair."""
    tokens: ad.Tensor  # (N+1, D) assembled sequence, or (N, D) without conditioning
    time: float  # normalized acquisition time, also the decay stamp


def patchify(images, patch_size):
    """Stack of (H, W) channel images -> (N, channels * patch_size**2): row-major
    patches, each row every channel's patch in turn; ``depatchify`` inverts it."""
    x = np.asarray(images, dtype=np.float64)
    c, h, w, p = *x.shape, patch_size
    return x.reshape(c, h // p, p, w // p, p).transpose(1, 3, 0, 2, 4).reshape(-1, c * p * p)


def depatchify(tokens, grid, patch):
    """(N, patch^2) one-channel token maps -> (H, W) image on the tape; ``patchify``'s inverse."""
    return ad.rearrange(tokens, (grid, grid, patch, patch), (0, 2, 1, 3),
                        (grid * patch, grid * patch))


@functools.lru_cache(maxsize=None)
def neighbor_mix_matrix(grid):
    """Constant (N, N) operator averaging each token with its 4-neighbors.

    Built once per grid size and returned read-only, since every caller
    shares the cached array.
    """
    n = grid * grid
    a = np.zeros((n, n))
    for r in range(grid):
        for c in range(grid):
            i = r * grid + c
            neigh = [i]
            if r > 0:
                neigh.append(i - grid)
            if r < grid - 1:
                neigh.append(i + grid)
            if c > 0:
                neigh.append(i - 1)
            if c < grid - 1:
                neigh.append(i + 1)
            for j in neigh:
                a[i, j] = 1.0 / len(neigh)
    a.flags.writeable = False
    return a


def encode_features(ncmri, tumor_mask, cfg, params):
    """(ncmri, mask), both cfg.image_size square -> token grid t_OT of shape (N, D)."""
    ncmri = np.asarray(ncmri, dtype=np.float64)
    tumor_mask = np.asarray(tumor_mask, dtype=np.float64)
    if ncmri.shape != (cfg.image_size,) * 2 or tumor_mask.shape != ncmri.shape:
        raise ContractError(f"image {ncmri.shape} and mask {tumor_mask.shape} must both be "
                            f"{(cfg.image_size,) * 2}, the model's image size")
    grid = cfg.image_size // cfg.patch_size
    # third channel: image gated by the mask, so lesion-interior intensity
    # reaches the tokens free of any background contribution
    patches = ad.Tensor(patchify([ncmri, tumor_mask, ncmri * tumor_mask], cfg.patch_size))
    x = ad.linear(patches, params["enc.patch_w"], params["enc.patch_b"])
    mix = ad.Tensor(neighbor_mix_matrix(grid))
    for s in range(cfg.depth):
        h = ad.relu(ad.linear(x, params[f"enc.mix{s}_w"], params[f"enc.mix{s}_b"]))
        x = ad.linear(mix, h, x)  # the residual rides in as the bias
    return ad.linear(x, params["enc.proj_w"], params["enc.proj_b"])


def time_encoding(t, omega=math.pi):
    """Continuous time token [sin(omega t), cos(omega t)]; unit norm."""
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"normalized time {t} outside [0,1]")
    return np.array([math.sin(omega * t), math.cos(omega * t)])


def phase_embedding(phase, params):
    idx = PHASE_INDEX[phase] if isinstance(phase, str) else int(phase)
    return ad.slice_axis(params["enc.phase_table"], 0, idx, idx + 1)


def build_conditional_token(t_ot, phase, t, cfg, params, use_phase=True, use_time=True):
    """Assemble [t_OT, fused(phase, time)] for one synthesis step.

    use_phase / use_time implement the conditioning ablations. No phase token,
    no condition token: without use_phase the sequence is the bare token grid;
    without use_time the fusion's time input is zero.
    """
    t_enc = time_encoding(t, cfg.omega)  # validates t on every path
    if not use_phase:
        return ConditionalToken(tokens=t_ot, time=t)
    parts = [phase_embedding(phase, params),
             ad.Tensor((t_enc if use_time else np.zeros(2)).reshape(1, 2))]
    fused = ad.linear(ad.concat(parts, axis=1), params["enc.fuse_w"], params["enc.fuse_b"])
    if fused.shape[1] != t_ot.shape[1]:
        raise ContractError("fused condition token width differs from token grid width")
    tokens = ad.concat([t_ot, fused], axis=0)
    return ConditionalToken(tokens=tokens, time=t)
