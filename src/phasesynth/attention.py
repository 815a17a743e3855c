"""Gaussian-decayed, causally masked multi-head self-attention.

Causality is structural: the token sequence passed in only ever contains
the current conditional block and previously generated phase blocks, so
no masking of future positions is needed. Temporal decay multiplies each
attention weight by exp(-(t_i - t_k)^2 / (2 sigma^2)) and renormalizes;
numerically this folds ln G into the logits before the stabilized
softmax, which is mathematically identical.

Time stamps are constant within a phase block, so ln G is evaluated once
per pair of distinct stamps and gathered to token level; one bias matrix
serves every head of a block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ContractError


@dataclass
class DtamConfig:
    sigma: float = 0.7
    head_count: int = 4

    def validate(self, embed_dim):
        if self.sigma <= 0:
            raise ConfigError("sigma must be positive")
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
    """ln G matrix for per-token time stamps; constant w.r.t. the tape.

    Each entry is evaluated on the distinct stamps only, then gathered to
    token level, so it equals the entrywise formula bit for bit.
    """
    uq, iq = np.unique(np.asarray(times_q, dtype=np.float64), return_inverse=True)
    uk, ik = np.unique(np.asarray(times_k, dtype=np.float64), return_inverse=True)
    small = np.log(gaussian_decay(uq[:, None], uk[None, :], sigma))
    return small.take(iq, axis=0).take(ik, axis=1)


def _biased_softmax(queries, keys, bias):
    """softmax(q k^T + bias) over keys; ``bias`` None means no decay."""
    return ad.softmax_last_axis(ad.matmul(queries, ad.transpose(keys)), bias=bias)


def dtam_weights(queries, keys, times_q, times_k, sigma, use_decay=True):
    """Row-stochastic attention weights with Gaussian time decay.

    queries: (nq, d), keys: (nk, d); times are per-token stamps. The key
    set must already be restricted to the causal past.
    """
    if keys.shape[0] == 0:
        raise ContractError("empty key set")
    bias = decay_log_bias(times_q, times_k, sigma) if use_decay else None
    return _biased_softmax(queries, keys, bias)


def mmhsa_block(tokens, token_times, cfg, params, use_decay=True, record=None):
    """Masked multi-head self-attention with position encoding and residual.

    tokens: (n, D) assembled input; token_times: per-token time stamps.
    Returns the updated (n, D) sequence (attention output + residual).
    """
    n, dim = tokens.shape
    cfg.validate(dim)
    head_dim = dim // cfg.head_count

    h = ad.linear(tokens, params["att.in_w"], params["att.in_b"])
    # absolute sequence positions: the current block always occupies the
    # leading slots, so later rows tag progressively older retained blocks
    pos = ad.slice_axis(params["att.pos"], 0, 0, n)
    h = ad.add(h, pos)

    q = ad.linear(h, params["att.q_w"])
    k = ad.linear(h, params["att.k_w"])
    v = ad.linear(h, params["att.v_w"])

    # the decay depends only on the stamps, so every head shares one bias
    bias = decay_log_bias(token_times, token_times, cfg.sigma) if use_decay else None
    heads = []
    for i in range(cfg.head_count):
        lo, hi = i * head_dim, (i + 1) * head_dim
        w = _biased_softmax(ad.slice_axis(q, 1, lo, hi), ad.slice_axis(k, 1, lo, hi), bias)
        if record is not None:
            record.setdefault("weights", []).append(w.data.copy())
        heads.append(ad.matmul(w, ad.slice_axis(v, 1, lo, hi)))
    z = ad.concat(heads, axis=1)
    out = ad.linear(z, params["att.out_w"], params["att.out_b"])
    return ad.add(out, tokens)
