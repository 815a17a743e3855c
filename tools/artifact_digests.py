"""Run one small fixed pipeline and print the SHA-256 of every file it writes.

    python3 tools/artifact_digests.py --out DIR

Through ``phasesynth.cli.main``, in this process and on this checkout's
``src/``: ``generate`` a 24-case 64 px phantom (seed 11, split
0.5/0.25/0.25) into ``DIR/data``, ``train`` it for 3 epochs (warm-up 1,
seed 3) into ``DIR/run``, ``evaluate`` the checkpoint on test and on val
into ``DIR/eval_test.json`` and ``DIR/eval_val.json``, ``synthesize
--dump-attention`` on test into ``DIR/synth``, and ``ablate`` with the same
train config into ``DIR/ablation``. A 128 px stage follows, so DTAM's
multi-tile path is covered too (at 64 px every call fits in one row tile):
``generate`` 4 cases (seed 11, split 0.5/0.25/0.25) into ``DIR/data128``,
``train`` 1 epoch (seed 3) into ``DIR/run128`` and ``synthesize
--dump-attention`` on test into ``DIR/synth128``. Then print one JSON object
that maps each file's path relative to DIR to its SHA-256, sorted by
path. The ``run_manifest.json`` files are left out: they hold timestamps.
Two checkouts that print the same JSON wrote the same bytes.

Exit code 2, with nothing run, when DIR exists and is not empty; a
command's own exit code when it fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PHANTOM = {"case_count": 24, "master_seed": 11, "split_fractions": [0.5, 0.25, 0.25]}
TRAIN = {"epochs": 3, "warmup_epochs": 1, "seed": 3}
PHANTOM128 = {"image_size": 128, "case_count": 4, "master_seed": 11,
              "split_fractions": [0.5, 0.25, 0.25]}
TRAIN128 = {"epochs": 1, "warmup_epochs": 0, "seed": 3, "model": {"image_size": 128}}


def run_pipeline(out):
    """The nine commands; 0, or the exit code of the first that fails."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from phasesynth.cli import main

    data, run = os.path.join(out, "data"), os.path.join(out, "run")
    data128, run128 = os.path.join(out, "data128"), os.path.join(out, "run128")
    with tempfile.TemporaryDirectory() as tmp:
        configs = []
        for name, config in (("phantom.json", PHANTOM), ("train.json", TRAIN),
                             ("phantom128.json", PHANTOM128), ("train128.json", TRAIN128)):
            configs.append(os.path.join(tmp, name))
            Path(configs[-1]).write_text(json.dumps(config))
        checkpoint = os.path.join(run, "checkpoint.ntar")
        commands = [
            ["generate", "--config", configs[0], "--out", data],
            ["train", "--config", configs[1], "--data", data, "--out", run],
            *(["evaluate", "--checkpoint", checkpoint, "--data", data, "--split", split,
               "--out", os.path.join(out, f"eval_{split}.json")] for split in ("test", "val")),
            ["synthesize", "--checkpoint", checkpoint, "--data", data, "--split", "test",
             "--out", os.path.join(out, "synth"), "--dump-attention"],
            ["ablate", "--config", configs[1], "--data", data,
             "--out", os.path.join(out, "ablation")],
            ["generate", "--config", configs[2], "--out", data128],
            ["train", "--config", configs[3], "--data", data128, "--out", run128],
            ["synthesize", "--checkpoint", os.path.join(run128, "checkpoint.ntar"),
             "--data", data128, "--split", "test", "--out", os.path.join(out, "synth128"),
             "--dump-attention"],
        ]
        for argv in commands:
            with contextlib.redirect_stdout(sys.stderr):  # stdout holds only the digests
                code = main(argv)
            if code:
                return code
    return 0


def digests(out):
    """{relative path: SHA-256} of every file under ``out`` but the run manifests."""
    found = {}
    for path in sorted(Path(out).rglob("*")):
        if path.is_file() and path.name != "run_manifest.json":
            found[path.relative_to(out).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="directory for the run; must be empty or absent")
    args = parser.parse_args(argv)
    if os.path.exists(args.out) and (not os.path.isdir(args.out) or os.listdir(args.out)):
        print(f"error: {args.out!r} is not an empty directory", file=sys.stderr)
        return 2
    code = run_pipeline(args.out)
    if code:
        return code
    print(json.dumps(digests(args.out), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
