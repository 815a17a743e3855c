"""The three workloads: their inputs, their set-up and one timed call each.

Every input is a phantom dataset made by ``phantom.generate_dataset``
from the run's seed (``master_seed = seed``); training in the workloads
and in set-up uses the same seed. Set-up runs in a child process (see
``prepare.py``), so the peak memory of the timed calls in the parent is
not masked by the checkpoint training of set-up.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from phasesynth import cli, metrics, training
from phasesynth.model import ModelConfig
from phasesynth.phantom import PhantomConfig, generate_dataset, load_manifest

SMOKE_CASES = 8
SMOKE_SPLIT = (0.5, 0.25, 0.25)  # 4 train, 2 val, 2 test


@dataclass(frozen=True)
class Workload:
    name: str
    image_size: int
    case_count: int
    split: tuple  # PhantomConfig.split_fractions
    setup_checkpoint: bool  # set-up trains a checkpoint for the timed calls

    def phantom(self, seed, smoke):
        return PhantomConfig(
            image_size=self.image_size, master_seed=seed,
            case_count=SMOKE_CASES if smoke else self.case_count,
            split_fractions=SMOKE_SPLIT if smoke else self.split)


WORKLOADS = {w.name: w for w in (
    # 200 cases split 140/30/30 (the phantom defaults); 2 epochs of the
    # default TrainConfig, so each call runs 280 training cases
    Workload("train-64", 64, 200, (0.70, 0.15, 0.15), False),
    # 38 cases split 4/2/32: a small train split for the set-up checkpoint
    # and a 32-case test split to synthesize
    Workload("synth-128", 128, 38, (0.11, 0.06, 0.83), True),
    # 138 cases split 6/4/128: the test split is what evaluate scores
    Workload("eval-64", 64, 138, (0.05, 0.03, 0.92), True),
)}

TRAIN_EPOCHS = 2  # the last-epoch loss must be comparable to the first
TRAIN_WARMUP = 1


def train_config(seed):
    """The timed train-64 configuration: defaults but a reduced epoch count."""
    return training.TrainConfig(epochs=TRAIN_EPOCHS, warmup_epochs=TRAIN_WARMUP, seed=seed)


def setup_config(seed, image_size):
    """One epoch over the small train split: enough to write a checkpoint."""
    return training.TrainConfig(epochs=1, warmup_epochs=0, seed=seed,
                                model=ModelConfig(image_size=image_size))


def prepare(workload, seed, out_dir, smoke):
    """Generate the inputs (and the checkpoint) into out_dir; returns timings."""
    data = os.path.join(out_dir, "data")
    cfg = workload.phantom(seed, smoke)
    t0 = time.perf_counter()
    generate_dataset(cfg, data)
    t1 = time.perf_counter()
    splits = [e["split"] for e in load_manifest(data)["cases"]]
    info = {"data": data, "cases": cfg.case_count, "generate_s": t1 - t0, "train_s": 0.0,
            "checkpoint": None, "split_sizes": {s: splits.count(s) for s in set(splits)}}
    if workload.setup_checkpoint:
        run = os.path.join(out_dir, "setup_run")
        result = training.train(setup_config(seed, workload.image_size), data, run)
        info["checkpoint"] = result["checkpoint"]
        info["train_s"] = time.perf_counter() - t1
    return info


def call(workload, ctx, seed, out_dir, log_hook=None):
    """One timed call of the program; returns (cases done, result, exit ok)."""
    if workload.name == "train-64":
        result = training.train(train_config(seed), ctx["data"], out_dir, log_hook=log_hook)
        return TRAIN_EPOCHS * ctx["split_sizes"]["train"], result, True
    if workload.name == "synth-128":
        code = cli.main(["synthesize", "--checkpoint", ctx["checkpoint"], "--data", ctx["data"],
                         "--split", "test", "--out", out_dir])
        return ctx["split_sizes"]["test"], {"out": out_dir, "code": code}, code == 0
    report = metrics.evaluate(ctx["checkpoint"], ctx["data"], split="test",
                              out_path=os.path.join(out_dir, "report.json"))
    return report["case_count"], report, True
