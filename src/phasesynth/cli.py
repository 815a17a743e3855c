"""Command-line surface: generate, train, evaluate, synthesize, ablate.

Exit codes: 0 success, 2 usage error (bad arguments, phantom generation
or domain errors), 3 config, data or checkpoint error (truncated or
malformed archives and JSON that is not UTF-8 included), 4 numerical
failure. A config is validated before its command writes anything.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import shutil
import sys
import time

import numpy as np

from .errors import ConfigError, ContractError, DomainError, GenerationError, NumericalError
from .metrics import class_record, evaluate, load_checkpoint
from .model import run_autoregressive
from .phantom import PHASE_NAMES, PhantomConfig, generate_dataset, load_case, load_manifest
from .tensorio import save_pgm
from .training import ABLATION_ORDER, TrainConfig, format_ablation_table, run_ablation, train

USAGE_ERROR = 2
DATA_ERROR = 3
NUMERIC_ERROR = 4


def _load_json(path):
    with open(path) as f:
        return json.load(f)


def _check_out_dir(path, force):
    """Refuse a non-empty ``path`` without ``--force``; the command itself creates
    the directory when it first writes, so a data error leaves nothing behind."""
    if os.path.isdir(path) and os.listdir(path) and not force:
        raise ConfigError(f"output directory {path!r} is not empty (use --force to overwrite)")


def _write_run_manifest(out_dir, command, args, seed, started, outputs):
    manifest = {
        "command": command,
        "args": {k: v for k, v in vars(args).items() if k != "func"},
        "seed": seed,
        "started": started,
        "finished": _now(),
        "outputs": [os.path.abspath(p) for p in outputs],
    }
    for p in manifest["outputs"]:
        if not os.path.exists(p):
            raise ContractError(f"run manifest names missing output {p}")
    os.makedirs(out_dir, exist_ok=True)  # synthesize over an empty split writes only this
    tmp = os.path.join(out_dir, "run_manifest.json.tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    os.replace(tmp, os.path.join(out_dir, "run_manifest.json"))


def cmd_generate(args):
    started = _now()
    cfg = PhantomConfig.from_dict(_load_json(args.config)) if args.config else PhantomConfig()
    if args.seed is not None:
        cfg.master_seed = args.seed
    cfg.validate()
    _check_out_dir(args.out, args.force)
    manifest_path = generate_dataset(cfg, args.out)
    _write_run_manifest(args.out, "generate", args, cfg.master_seed, started, [manifest_path])
    print(manifest_path)
    return 0


def _train_config(args):
    """``--config`` (or the defaults) with the ``--seed``, ``--epochs`` and, for
    ``train``, ``--ablation`` overrides, validated."""
    cfg = TrainConfig.from_dict(_load_json(args.config)) if args.config else TrainConfig()
    for name in ("seed", "epochs", "ablation"):
        if getattr(args, name, None) is not None:
            setattr(cfg, name, getattr(args, name))
    cfg.validate()
    return cfg


def cmd_train(args):
    started = _now()
    cfg = _train_config(args)
    _check_out_dir(args.out, args.force)
    result = train(cfg, args.data, args.out)
    _write_run_manifest(args.out, "train", args, cfg.seed, started,
                        [result["checkpoint"], result["log"]])
    print(result["checkpoint"])
    return 0


def cmd_evaluate(args):
    report = evaluate(args.checkpoint, args.data, split=args.split, out_path=args.out)
    agg = report["aggregates"]
    print(json.dumps({"split": args.split,
                      "psnr_delay": agg["delay"]["psnr"],
                      "dice": agg["seg"]["dice"],
                      "accuracy": agg["classification"]["accuracy"]}))
    return 0


def _dump_attention(record, out_dir, case_id, paths):
    """Write one block-mean CSV per phase, naming each in ``paths`` first."""
    for entry in record:
        sizes = entry["block_sizes"]
        bounds = np.cumsum([0] + sizes)
        nb = len(sizes)
        mean_w = np.mean(entry["heads"], axis=0)
        block = np.zeros((nb, nb))
        for qi in range(nb):
            for ki in range(nb):
                block[qi, ki] = mean_w[bounds[qi]:bounds[qi + 1],
                                       bounds[ki]:bounds[ki + 1]].mean()
        path = os.path.join(out_dir, f"{case_id}_{entry['phase']}_attention.csv")
        paths.append(path)
        labels = ["cond"] + [f"prior_{i}" for i in range(nb - 1)]
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow([""] + labels)
            for qi in range(nb):
                writer.writerow([labels[qi]] + [f"{block[qi, ki]:.8f}" for ki in range(nb)])


def cmd_synthesize(args):
    started = _now()
    params, cfg, meta = load_checkpoint(args.checkpoint)
    manifest = load_manifest(args.data, cfg.image_size)
    _check_out_dir(args.out, args.force)
    made_out = not os.path.isdir(args.out)
    outputs, attention = [], []
    try:
        for entry in manifest["cases"]:
            if entry["split"] != args.split:
                continue
            case = load_case(args.data, entry, cfg.image_size)
            record = [] if args.dump_attention else None
            bundle = run_autoregressive(case.ncmri, case.tumor_mask, case.times,
                                        params, cfg, ablation=meta["config"]["ablation"],
                                        record=record)
            os.makedirs(args.out, exist_ok=True)
            cid = entry["id"]
            for name, po in zip(PHASE_NAMES, bundle.phase_outputs):
                outputs.append(os.path.join(args.out, f"{cid}_phase_{name}.pgm"))
                save_pgm(outputs[-1], po.image.data)
            outputs.append(os.path.join(args.out, f"{cid}_mask.pgm"))
            save_pgm(outputs[-1], bundle.aggregated_mask.astype(np.float64))
            outputs.append(os.path.join(args.out, f"{cid}_class.json"))
            with open(outputs[-1], "w") as f:
                json.dump(class_record(bundle), f, indent=1, sort_keys=True)
            if record is not None:
                _dump_attention(record, args.out, cid, attention)
    except BaseException:
        # a failed run leaves --out as it found it, less the files it overwrote
        if made_out:
            shutil.rmtree(args.out, ignore_errors=True)
        for path in outputs + attention:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        raise
    _write_run_manifest(args.out, "synthesize", args, meta["config"]["seed"], started, outputs)
    return 0


def cmd_ablate(args):
    started = _now()
    cfg = _train_config(args)
    _check_out_dir(args.out, args.force)
    rows = run_ablation(cfg, args.data, args.out)
    json_path = os.path.join(args.out, "ablation.json")
    with open(json_path, "w") as f:
        json.dump({"schema_version": 1, "config": cfg.echo(), "rows": rows},
                  f, indent=1, sort_keys=True)
    table = format_ablation_table(rows)
    table_path = os.path.join(args.out, "ablation_table.txt")
    with open(table_path, "w") as f:
        f.write(table + "\n")
    print(table)
    _write_run_manifest(args.out, "ablate", args, cfg.seed, started, [json_path, table_path])
    return 0


def _now():
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def build_parser():
    parser = argparse.ArgumentParser(
        prog="phasesynth",
        description="Multi-phase contrast MRI synthesis, segmentation, and "
                    "classification on synthetic phantom data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a phantom dataset")
    p.add_argument("--config", help="PhantomConfig JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_generate)

    run = argparse.ArgumentParser(add_help=False)  # the options train and ablate share
    run.add_argument("--config", help="TrainConfig JSON")
    run.add_argument("--data", required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--epochs", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--force", action="store_true")

    p = sub.add_parser("train", parents=[run], help="train a model")
    p.add_argument("--ablation", choices=ABLATION_ORDER)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synthesize", help="emit synthesized images for a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--out", required=True)
    p.add_argument("--dump-attention", action="store_true")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("ablate", parents=[run], help="train and compare all ablation variants")
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GenerationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ConfigError, ContractError, OSError, json.JSONDecodeError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
