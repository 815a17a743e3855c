"""Gaussian-decayed, causally masked multi-head self-attention.

Causality is structural: the token sequence passed in only ever contains
the current conditional block and previously generated phase blocks, so
no masking of future positions is needed. Temporal decay multiplies each
attention weight by exp(-(t_i - t_k)^2 / (2 sigma^2)) and renormalizes;
numerically this folds ln G into the logits before the softmax, which
is mathematically identical.

Time stamps are constant within a phase block, so every query row of a
block has the same ln G over the keys. ``mmhsa_block`` finds the runs of
equal stamps, evaluates ln G once for each pair of run stamps and
repeats it over each run's keys: one bias row per run, a (runs, n)
array that every head shares.

All heads run in one tape node, ``autodiff.dtam_attention``, one tile
at a time: some rows of one run for a group of heads, as many as fit a
fixed score budget. Each run's bias row rides in the score matmul as
one more key row. The softmax is taken without the row-maximum shift,
since ln G <= 0 and each query's own block has ln G = 0, and its row
sums come from the value matmul, through a column of ones beside the
values. The range check of those sums (a tile whose sums leave float
range is redone with the shift) and the normalisation run once per head
group, after the value product. It keeps the (heads, n, n) weights only
when training needs them for ``backward`` or the caller asks for them
(``weights_out``, as ``synthesize --dump-attention`` does); a forward pass
without either holds one tile of scores at a time.

``DtamConfig`` holds the two fields the block reads and checks them
against the token width; ``ModelConfig.validate`` uses it, and a caller
may pass one to ``mmhsa_block`` in place of the model config.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .config import Config
from .errors import ConfigError


@dataclass
class DtamConfig(Config):
    sigma: float = 0.7
    head_count: int = 4
    noun = "dtam config"

    def validate(self, embed_dim):
        if self.sigma <= 0:
            raise ConfigError("sigma must be positive")
        if self.head_count < 1:
            raise ConfigError("head_count must be positive")
        if embed_dim % self.head_count != 0:
            raise ConfigError(f"embed_dim {embed_dim} not divisible by head_count {self.head_count}")


def gaussian_decay(t_i, t_k, sigma):
    """exp(-(t_i - t_k)^2 / (2 sigma^2)); accepts scalars or arrays."""
    if sigma <= 0:
        raise ConfigError("sigma must be positive")
    d = np.asarray(t_i, dtype=np.float64) - np.asarray(t_k, dtype=np.float64)
    out = np.exp(-(d * d) / (2.0 * sigma * sigma))
    return float(out) if out.ndim == 0 else out


def decay_log_bias(times_q, times_k, sigma):
    """ln G of each query stamp against each key stamp; constant w.r.t. the tape."""
    tq = np.asarray(times_q, dtype=np.float64)
    tk = np.asarray(times_k, dtype=np.float64)
    return np.log(gaussian_decay(tq[:, None], tk[None, :], sigma))


def mmhsa_block(tokens, token_times, cfg, params, use_decay=True, weights_out=None):
    """Masked multi-head self-attention with position encoding and residual.

    tokens: (n, D) assembled input; token_times: per-token time stamps;
    cfg: any validated config with ``sigma`` and ``head_count``. Returns
    the updated (n, D) sequence (attention output + residual). With
    ``weights_out`` a list, it receives each head's (n, n) weights.
    """
    n = tokens.shape[0]

    h = ad.linear(tokens, params["att.in_w"], params["att.in_b"])
    # absolute sequence positions: the current block always occupies the
    # leading slots, and the rows after it tag the prior blocks in time
    # order, arterial first
    pos = ad.slice_axis(params["att.pos"], 0, 0, n)
    h = ad.add(h, pos)

    q = ad.linear(h, params["att.q_w"])
    k = ad.linear(h, params["att.k_w"])
    v = ad.linear(h, params["att.v_w"])

    # runs of equal stamps (the phase blocks) share one bias row over the keys;
    # a run starts wherever the stamp differs from the one before
    times = np.asarray(token_times, dtype=np.float64)
    starts = [0, *(np.flatnonzero(times[1:] != times[:-1]) + 1).tolist()]
    runs = [b - a for a, b in zip(starts, starts[1:] + [n])]
    stamps = times[starts]
    bias = np.repeat(decay_log_bias(stamps, stamps, cfg.sigma), runs, axis=1) if use_decay else None
    z = ad.dtam_attention(q, k, v, bias, cfg.head_count, runs, weights_out=weights_out)
    out = ad.linear(z, params["att.out_w"], params["att.out_b"])
    return ad.add(out, tokens)
