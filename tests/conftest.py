"""Shared fixtures, the finite-difference gradient checker and the per-head
attention reference."""

import numpy as np
import pytest

import refops as ro
from phasesynth import autodiff as ad
from phasesynth.attention import decay_log_bias
from phasesynth.errors import ContractError

FD_STEP = 1e-5
FD_RTOL = 1e-4


def numeric_grad_at(fn, arrays, which, indices, step=FD_STEP):
    """Central finite differences of scalar fn(arrays) at selected flat indices."""
    flat = arrays[which].ravel()
    out = np.empty(len(indices))
    for j, i in enumerate(indices):
        orig = flat[i]
        flat[i] = orig + step
        hi = fn(arrays)
        flat[i] = orig - step
        lo = fn(arrays)
        flat[i] = orig
        out[j] = (hi - lo) / (2.0 * step)
    return out


def check_gradients(build_loss, arrays, rtol=FD_RTOL, step=FD_STEP, sample=None,
                    seed=0):
    """Compare analytic gradients of build_loss against central differences.

    build_loss receives a dict name -> Tensor (requires_grad) and must
    return a scalar Tensor. arrays maps name -> ndarray (mutated in place
    by the finite-difference probe, restored afterwards). With ``sample``
    set, only that many randomly chosen entries per tensor are probed.
    """
    tensors = {k: ad.Tensor(v, requires_grad=True) for k, v in arrays.items()}
    loss = build_loss(tensors)
    ad.backward(loss)

    def scalar(values):
        ts = {k: ad.Tensor(v) for k, v in values.items()}
        return build_loss(ts).item()

    pick = np.random.default_rng(seed)
    for name in arrays:
        analytic = tensors[name].grad
        assert analytic is not None, f"no gradient reached {name!r}"
        size = arrays[name].size
        if sample is not None and sample < size:
            indices = pick.choice(size, size=sample, replace=False)
        else:
            indices = np.arange(size)
        numeric = numeric_grad_at(scalar, arrays, name, indices, step=step)
        picked = analytic.ravel()[indices]
        scale = np.maximum(np.abs(picked) + np.abs(numeric), 1.0)
        err = np.max(np.abs(picked - numeric) / scale)
        assert err < rtol, f"gradient mismatch for {name!r}: rel err {err:.3e}"


def dtam_weights(queries, keys, times_q, times_k, sigma, use_decay=True):
    """One head's row-stochastic DTAM weights, built from tape primitives:
    softmax(q k^T + ln G), the reference ``autodiff.dtam_attention`` must match.

    queries: (nq, d), keys: (nk, d); times are per-token stamps. The key
    set must already be restricted to the causal past.
    """
    if keys.shape[0] == 0:
        raise ContractError("empty key set")
    scores = ad.matmul(queries, ro.transpose(keys))
    if use_decay:
        scores = ad.add(scores, ad.Tensor(decay_log_bias(times_q, times_k, sigma)))
    return ad.softmax_last_axis(scores)


@pytest.fixture(scope="session")
def tiny_dataset(tmp_path_factory):
    """12-case 64x64 phantom dataset for pipeline-level tests."""
    from phasesynth.phantom import PhantomConfig, generate_dataset

    out = tmp_path_factory.mktemp("tiny_ds")
    cfg = PhantomConfig(case_count=12, master_seed=7,
                        split_fractions=(0.5, 0.25, 0.25))
    generate_dataset(cfg, str(out))
    return str(out)


@pytest.fixture(scope="session")
def tiny_run(tiny_dataset, tmp_path_factory):
    """A 2-epoch training run on the tiny dataset (checkpoint + log)."""
    from phasesynth.training import TrainConfig, train

    out = tmp_path_factory.mktemp("tiny_run")
    cfg = TrainConfig(epochs=2, warmup_epochs=1, seed=3)
    result = train(cfg, tiny_dataset, str(out))
    return {"dir": str(out), "data": tiny_dataset, "config": cfg, **result}
