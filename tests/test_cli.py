"""Command-line surface: subcommands, artifacts, exit codes."""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import phasesynth
from phasesynth.cli import DATA_ERROR, main
from phasesynth.losses import LossWeights
from phasesynth.model import ModelConfig
from phasesynth.phantom import PhantomConfig
from phasesynth.tensorio import load_archive, save_archive
from phasesynth.training import TrainConfig

PHANTOM_CFG = {"case_count": 12, "master_seed": 7,
               "split_fractions": [0.5, 0.25, 0.25]}
TRAIN_CFG = {"epochs": 2, "warmup_epochs": 1, "seed": 3}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Dataset generated and a 2-epoch model trained through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    phantom_cfg = root / "phantom.json"
    phantom_cfg.write_text(json.dumps(PHANTOM_CFG))
    train_cfg = root / "train.json"
    train_cfg.write_text(json.dumps(TRAIN_CFG))
    data = root / "data"
    run = root / "run"
    assert main(["generate", "--config", str(phantom_cfg), "--out", str(data)]) == 0
    assert main(["train", "--config", str(train_cfg), "--data", str(data),
                 "--out", str(run)]) == 0
    return {"root": root, "data": data, "run": run,
            "checkpoint": run / "checkpoint.ntar"}


def test_generate_outputs(workspace):
    manifest = json.loads((workspace["data"] / "manifest.json").read_text())
    assert len(manifest["cases"]) == 12
    run_manifest = json.loads((workspace["data"] / "run_manifest.json").read_text())
    assert run_manifest["command"] == "generate"
    for path in run_manifest["outputs"]:
        assert os.path.exists(path)


def test_generate_refuses_nonempty_without_force(workspace):
    assert main(["generate", "--config",
                 str(workspace["root"] / "phantom.json"),
                 "--out", str(workspace["data"])]) == DATA_ERROR


@pytest.mark.parametrize("config", [{"case_count": 1}, {"times": [0.5, 0.2, 0.9]},
                                    {"radius": [40, 50]}, {"radius": [0, 5]},
                                    {"radius": [8, 5]}, {"amplitude": [0.3, 0.2]},
                                    {"amplitude": [0.9, 0.95]}, {"background": [0.5, 1.2]},
                                    {"background": [math.nan, 0.5]},
                                    {"benign_intensity": [-0.1, 0.3]},
                                    {"malignant_intensity": [0.55, 0.8]},
                                    {"noise_sigma": 0.2}, {"noise_sigma": -0.01}],
                         ids=["case_count_1", "times_unsorted", "radius_40_50", "radius_0_5",
                              "radius_8_5", "amplitude_0.3_0.2", "amplitude_0.9_0.95",
                              "background_0.5_1.2", "background_nan_0.5",
                              "benign_intensity_-0.1_0.3", "malignant_intensity_0.55_0.8",
                              "noise_sigma_0.2", "noise_sigma_-0.01"])
def test_generate_out_of_range_config_is_data_error(tmp_path, config, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    out = tmp_path / "d"
    assert main(["generate", "--config", str(bad), "--out", str(out)]) == DATA_ERROR
    assert next(iter(config)) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fractions", [[0.5, 0.8, 0.0], [-0.2, 0.1, 0.0]])
def test_generate_bad_split_fractions_is_data_error(tmp_path, fractions, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"case_count": 10, "split_fractions": fractions}))
    out = tmp_path / "d"
    assert main(["generate", "--config", str(bad), "--out", str(out)]) == DATA_ERROR
    assert "split_fractions" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config", [{"times": 5}, {"times": [0.1, 0.5]},
                                    {"image_size": "x"}, {"radius": None}, [PHANTOM_CFG],
                                    {"case_cnt": 10}, {"image_size": 64.7}])
def test_generate_malformed_config_is_data_error(tmp_path, config, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    out = tmp_path / "d"
    assert main(["generate", "--config", str(bad), "--out", str(out)]) == DATA_ERROR
    assert "phantom config" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config", [{"weights": {"foo": 1}}, {"weights": [1]},
                                    {"epochs": "abc"}, {"batch_size": None},
                                    {"model": {"image_size": "x"}}, [TRAIN_CFG],
                                    {"epoch": 5}, {"batch_size": 2.9},
                                    {"model": {"embed_dims": 32}},
                                    {"model": {"image_size": 64.5}}])
def test_train_malformed_config_is_data_error(workspace, tmp_path, config, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert main(["train", "--config", str(bad), "--data", str(workspace["data"]),
                 "--out", str(out)]) == DATA_ERROR
    assert "train config" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("model", [{"head_count": 0}, {"head_count": -1}, {"patch_size": 0},
                                   {"patch_size": -8}, {"embed_dim": 0}, {"depth": -1},
                                   {"image_size": -64}])
def test_train_nonpositive_model_size_is_data_error(workspace, tmp_path, model, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**TRAIN_CFG, "model": model}))
    out = tmp_path / "run"
    assert main(["train", "--config", str(bad), "--data", str(workspace["data"]),
                 "--out", str(out)]) == DATA_ERROR
    assert "must be positive" in capsys.readouterr().err
    assert not out.exists()


def _number_fields(cls):
    """The fields of ``cls`` whose default is a float or a tuple of floats."""
    return [f.name for f in dataclasses.fields(cls)
            if isinstance(getattr(cls(), f.name), (float, tuple))]


NOT_FINITE_NUMBERS = {"nan": math.nan, "inf": math.inf, "true": True, "str": "0.5"}
NUMBER_FIELDS = ([("generate", (), name) for name in _number_fields(PhantomConfig)]
                 + [("train", (), name) for name in _number_fields(TrainConfig)]
                 + [("train", ("weights",), name) for name in _number_fields(LossWeights)]
                 + [("train", ("model",), name) for name in _number_fields(ModelConfig)])


@pytest.mark.parametrize("bad", NOT_FINITE_NUMBERS.values(), ids=NOT_FINITE_NUMBERS.keys())
@pytest.mark.parametrize("command, path, name", NUMBER_FIELDS,
                         ids=[".".join(path + (name,)) for _, path, name in NUMBER_FIELDS])
def test_number_field_refuses_what_is_not_a_finite_number(tmp_path, command, path, name, bad,
                                                          capsys):
    owner = PhantomConfig() if command == "generate" else TrainConfig()
    for key in path:
        owner = getattr(owner, key)
    default = getattr(owner, name)
    value = [bad, *default[1:]] if isinstance(default, tuple) else bad
    config = {name: value}
    for key in reversed(path):
        config = {key: config}
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if command == "train":
        argv += ["--data", str(tmp_path / "absent")]
    assert main(argv) == DATA_ERROR
    err = capsys.readouterr().err
    assert f"{'phantom' if command == 'generate' else 'train'} config" in err
    assert repr(name) in err
    assert not out.exists()


def _write_not_utf8(path):
    path.write_bytes(b'{"case_count": 10, "note": "\xff"}')


@pytest.mark.parametrize("command", ["generate", "train", "evaluate", "train_manifest"])
def test_json_input_that_is_not_utf8_is_data_error(workspace, tmp_path, command, capsys):
    out = tmp_path / "out"
    bad = tmp_path / "bad.json"
    _write_not_utf8(bad)
    data = tmp_path / "data"
    if command == "generate":
        argv = ["generate", "--config", str(bad)]
    elif command == "train":
        argv = ["train", "--config", str(bad), "--data", str(workspace["data"])]
    else:  # the manifest.json of the dataset
        shutil.copytree(workspace["data"], data)
        _write_not_utf8(data / "manifest.json")
        argv = (["evaluate", "--checkpoint", str(workspace["checkpoint"])]
                if command == "evaluate" else ["train"]) + ["--data", str(data)]
    assert main(argv + ["--out", str(out)]) == DATA_ERROR
    assert "utf-8" in capsys.readouterr().err
    assert not out.exists()


def test_train_artifacts(workspace):
    assert workspace["checkpoint"].exists()
    assert (workspace["run"] / "train_log.jsonl").exists()
    run_manifest = json.loads((workspace["run"] / "run_manifest.json").read_text())
    assert run_manifest["command"] == "train"
    assert run_manifest["seed"] == 3


def test_train_missing_dataset_is_data_error(tmp_path):
    assert main(["train", "--data", str(tmp_path / "absent"),
                 "--out", str(tmp_path / "run")]) == DATA_ERROR
    assert not (tmp_path / "run").exists()


def _shrink_to_32px(named, meta):
    named.update({name: a[:32, :32] for name, a in named.items()})


def _first_case_of(data, split):
    manifest = json.loads((data / "manifest.json").read_text())
    return data / next(e for e in manifest["cases"] if e["split"] == split)["path"]


@pytest.mark.parametrize("command, split", [("train", "train"), ("synthesize", "test")])
def test_case_of_the_wrong_size_is_data_error(workspace, tmp_path, command, split, capsys):
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    path = _first_case_of(data, split)
    named, meta = load_archive(path)
    _shrink_to_32px(named, meta)
    save_archive(path, named, meta=meta)
    out = tmp_path / "out"
    if command == "train":
        argv = ["train", "--config", str(workspace["root"] / "train.json")]
    else:
        argv = ["synthesize", "--checkpoint", str(workspace["checkpoint"])]
    assert main(argv + ["--data", str(data), "--out", str(out)]) == DATA_ERROR
    assert "model's image size" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def one_epoch_checkpoint(workspace):
    config = workspace["root"] / "train_1_epoch.json"
    config.write_text(json.dumps(dict(TRAIN_CFG, epochs=1, warmup_epochs=0)))
    run = workspace["root"] / "run_1_epoch"
    assert main(["train", "--config", str(config), "--data", str(workspace["data"]),
                 "--out", str(run)]) == 0
    return run / "checkpoint.ntar"


@pytest.mark.parametrize("dump_attention", [False, True])
@pytest.mark.parametrize("out_state", ["absent", "forced"])
def test_synthesize_removes_what_it_wrote_when_a_later_case_fails(
        workspace, one_epoch_checkpoint, tmp_path, monkeypatch, out_state, dump_attention,
        capsys):
    import phasesynth.cli as cli
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    manifest = json.loads((data / "manifest.json").read_text())
    second = data / [e for e in manifest["cases"] if e["split"] == "test"][1]["path"]
    named, meta = load_archive(second)
    _shrink_to_32px(named, meta)
    save_archive(second, named, meta=meta)
    saved = []
    monkeypatch.setattr(cli, "save_pgm", lambda path, image: saved.append(path) or
                        phasesynth.tensorio.save_pgm(path, image))
    out = tmp_path / "out"
    argv = ["synthesize", "--checkpoint", str(one_epoch_checkpoint), "--data", str(data),
            "--out", str(out)]
    if out_state == "forced":
        out.mkdir()
        (out / "notes.txt").write_text("not ours")
        argv.append("--force")
    if dump_attention:
        argv.append("--dump-attention")
    assert main(argv) == DATA_ERROR
    assert "model's image size" in capsys.readouterr().err
    assert len(saved) == 4  # the first test case's three phases and mask were written
    if out_state == "absent":
        assert not out.exists()
    else:
        assert [p.name for p in out.iterdir()] == ["notes.txt"]


def test_evaluate_report(workspace, tmp_path):
    report_path = tmp_path / "report.json"
    assert main(["evaluate", "--checkpoint", str(workspace["checkpoint"]),
                 "--data", str(workspace["data"]), "--split", "val",
                 "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["schema_version"] == 1
    assert report["split"] == "val"
    assert report["case_count"] == 3
    for case in report["cases"]:
        assert set(case["per_phase"]) == {"art", "pv", "delay"}
        assert case["seg"]["dice"] is not None
    agg = report["aggregates"]
    assert set(agg) >= {"art", "pv", "delay", "seg", "classification"}


def test_evaluate_bad_checkpoint_is_data_error(workspace, tmp_path):
    missing = tmp_path / "none.ntar"
    assert main(["evaluate", "--checkpoint", str(missing),
                 "--data", str(workspace["data"]),
                 "--out", str(tmp_path / "r.json")]) == DATA_ERROR


@pytest.mark.parametrize("size", [3_003, 20_001])
def test_evaluate_truncated_checkpoint_is_data_error(workspace, tmp_path, size, capsys):
    cut = tmp_path / "cut.ntar"
    cut.write_bytes(workspace["checkpoint"].read_bytes()[:size])
    assert main(["evaluate", "--checkpoint", str(cut),
                 "--data", str(workspace["data"]),
                 "--out", str(tmp_path / "r.json")]) == DATA_ERROR
    assert "error:" in capsys.readouterr().err


def _drop_image_size(meta):
    del meta["config"]["model"]["image_size"]


def _model_not_a_dict(meta):
    meta["config"]["model"] = ["image_size", 64]


def _no_config(meta):
    del meta["config"]


def _zero_head_count(meta):
    meta["config"]["model"]["head_count"] = 0


def _zero_patch_size(meta):
    meta["config"]["model"]["patch_size"] = 0


def _infinite_omega(meta):
    meta["config"]["model"]["omega"] = math.inf


def _nan_sigma(meta):
    meta["config"]["model"]["sigma"] = math.nan


def _string_sigma(meta):
    meta["config"]["model"]["sigma"] = "0.7"


@pytest.mark.parametrize("command", ["evaluate", "synthesize"])
@pytest.mark.parametrize("damage", [_drop_image_size, _model_not_a_dict, _no_config,
                                    _zero_head_count, _zero_patch_size, _infinite_omega,
                                    _nan_sigma, _string_sigma])
def test_checkpoint_without_model_config_is_data_error(workspace, tmp_path, command,
                                                       damage, capsys):
    arrays, meta = load_archive(workspace["checkpoint"])
    damage(meta)
    broken = tmp_path / "broken.ntar"
    save_archive(broken, arrays, meta=meta)
    out = tmp_path / "out"
    assert main([command, "--checkpoint", str(broken),
                 "--data", str(workspace["data"]), "--out", str(out)]) == DATA_ERROR
    assert "model config" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "synthesize"])
@pytest.mark.parametrize("ablation", [[], {}, "no_tcc"], ids=["list", "dict", "unknown"])
def test_checkpoint_ablation_must_be_a_known_name(workspace, tmp_path, command, ablation,
                                                  capsys):
    arrays, meta = load_archive(workspace["checkpoint"])
    meta["config"]["ablation"] = ablation
    broken = tmp_path / "broken.ntar"
    save_archive(broken, arrays, meta=meta)
    out = tmp_path / "out"
    assert main([command, "--checkpoint", str(broken),
                 "--data", str(workspace["data"]), "--out", str(out)]) == DATA_ERROR
    assert "ablation" in capsys.readouterr().err
    assert not out.exists()


def _drop_q_w(arrays):
    del arrays["att.q_w"]


def _narrow_q_w(arrays):
    arrays["att.q_w"] = arrays["att.q_w"][:, :32]


def _short_img_b(arrays):
    arrays["dec.img_b"] = arrays["dec.img_b"][:10]


@pytest.mark.parametrize("command", ["evaluate", "synthesize"])
@pytest.mark.parametrize("damage", [_drop_q_w, _narrow_q_w, _short_img_b])
def test_checkpoint_parameters_must_match_the_model_config(workspace, tmp_path, command,
                                                          damage, capsys):
    arrays, meta = load_archive(workspace["checkpoint"])
    damage(arrays)
    broken = tmp_path / "broken.ntar"
    save_archive(broken, arrays, meta=meta)
    out = tmp_path / "out"
    assert main([command, "--checkpoint", str(broken),
                 "--data", str(workspace["data"]), "--out", str(out)]) == DATA_ERROR
    assert "parameter" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "synthesize"])
@pytest.mark.parametrize("name, bad", [("dec.img_w", math.nan), ("att.q_w", math.inf),
                                       ("cls.fuse_b", -math.inf)])
def test_checkpoint_with_a_non_finite_parameter_is_data_error(workspace, tmp_path, command,
                                                              name, bad, capsys):
    # a NaN weight made evaluate score PSNR 100 and synthesize write NaN signals
    arrays, meta = load_archive(workspace["checkpoint"])
    arrays[name].flat[0] = bad
    broken = tmp_path / "broken.ntar"
    save_archive(broken, arrays, meta=meta)
    out = tmp_path / "out"
    assert main([command, "--checkpoint", str(broken),
                 "--data", str(workspace["data"]), "--out", str(out)]) == DATA_ERROR
    assert repr(name) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "synthesize"])
def test_checkpoint_with_tcc_signal_network_is_data_error(workspace, tmp_path, command,
                                                          capsys):
    # a checkpoint from before the TCC signal became parameter-free
    arrays, meta = load_archive(workspace["checkpoint"])
    arrays.update({"tcc.latent_w": np.zeros((64, 256)), "tcc.fc3_b": np.zeros(1)})
    meta["config"]["model"].update({"latent_width": 256, "hidden": [128, 64, 1],
                                    "tau": 0.5})
    old = tmp_path / "old.ntar"
    save_archive(old, arrays, meta=meta)
    out = tmp_path / "out"
    assert main([command, "--checkpoint", str(old),
                 "--data", str(workspace["data"]), "--out", str(out)]) == DATA_ERROR
    err = capsys.readouterr().err
    assert "tcc.latent_w" in err and "tcc.fc3_b" in err
    assert not out.exists()


def _manifest_without_cases(data):
    manifest = json.loads((data / "manifest.json").read_text())
    del manifest["cases"]
    (data / "manifest.json").write_text(json.dumps(manifest))


def _manifest_without_image_size(data):
    manifest = json.loads((data / "manifest.json").read_text())
    del manifest["config"]["image_size"]
    (data / "manifest.json").write_text(json.dumps(manifest))


def _manifest_schema_1(data):
    # the layout before one archive per case: schema 1, a directory per case
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["schema_version"] = 1
    for entry in manifest["cases"]:
        entry["path"] = entry["id"]
    (data / "manifest.json").write_text(json.dumps(manifest))


def _val_path_escapes(data):
    manifest = json.loads((data / "manifest.json").read_text())
    next(e for e in manifest["cases"] if e["split"] == "val")["path"] = "../x"
    (data / "manifest.json").write_text(json.dumps(manifest))


def _val_archive_edit(edit):
    def damage(data):
        manifest = json.loads((data / "manifest.json").read_text())
        entry = next(e for e in manifest["cases"] if e["split"] == "val")
        path = data / entry["path"]
        named, meta = load_archive(path)
        edit(named, meta)
        save_archive(path, named, meta=meta)
    return damage


def _val_meta_edit(edit):
    return _val_archive_edit(lambda named, meta: edit(meta))


@pytest.mark.parametrize("damage", [
    _manifest_without_cases,
    _manifest_without_image_size,
    _val_meta_edit(lambda m: m.pop("times")),
    _val_meta_edit(lambda m: m.update(times=m["times"][:2])),
    _val_meta_edit(lambda m: m.update(times=m["times"][:2] + [1.5])),
    _val_meta_edit(lambda m: m.update(label="x")),
    _manifest_schema_1,
    _val_path_escapes,
    _val_archive_edit(lambda named, meta: named.pop("phase_pv")),
    _val_archive_edit(_shrink_to_32px),
], ids=["no_cases", "no_image_size", "no_times", "two_times", "time_1.5", "label_x",
        "schema_1", "path_dotdot", "no_phase_pv", "case_32px"])
def test_evaluate_malformed_dataset_is_data_error(workspace, tmp_path, damage, capsys):
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    damage(data)
    report = tmp_path / "r.json"
    assert main(["evaluate", "--checkpoint", str(workspace["checkpoint"]),
                 "--data", str(data), "--split", "val", "--out", str(report)]) == DATA_ERROR
    assert "error:" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("seed", [None, "3", 2.5])
def test_synthesize_without_integer_seed_writes_nothing(workspace, tmp_path, seed, capsys):
    arrays, meta = load_archive(workspace["checkpoint"])
    if seed is None:
        del meta["config"]["seed"]
    else:
        meta["config"]["seed"] = seed
    broken = tmp_path / "no_seed.ntar"
    save_archive(broken, arrays, meta=meta)
    out = tmp_path / "out"
    assert main(["synthesize", "--checkpoint", str(broken),
                 "--data", str(workspace["data"]), "--out", str(out)]) == DATA_ERROR
    assert "seed" in capsys.readouterr().err
    assert not out.exists() or not list(out.glob("*.pgm"))


SCORING_IMPORTS = """
import json, sys
from phasesynth import cli, metrics
data, checkpoint, out = sys.argv[1:]
metrics.evaluate(checkpoint, data, out_path=out + "/report.json")
assert cli.main(["synthesize", "--checkpoint", checkpoint, "--data", data,
                 "--out", out + "/synth"]) == 0
print(json.dumps(sorted(m for m in ("numpy.random", "numpy.ma") if m in sys.modules)))
"""


def test_evaluate_and_synthesize_import_neither_numpy_random_nor_ma(workspace, tmp_path):
    # a fresh interpreter: generating and training, done above, import numpy.random
    src = os.path.dirname(os.path.dirname(phasesynth.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", SCORING_IMPORTS, str(workspace["data"]),
         str(workspace["checkpoint"]), str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_synthesize_emits_five_files_per_case(workspace, tmp_path):
    out = tmp_path / "synth"
    assert main(["synthesize", "--checkpoint", str(workspace["checkpoint"]),
                 "--data", str(workspace["data"]), "--split", "test",
                 "--out", str(out)]) == 0
    manifest = json.loads((workspace["data"] / "manifest.json").read_text())
    test_ids = [c["id"] for c in manifest["cases"] if c["split"] == "test"]
    assert test_ids
    for cid in test_ids:
        for suffix in ("phase_art.pgm", "phase_pv.pgm", "phase_delay.pgm",
                       "mask.pgm", "class.json"):
            assert (out / f"{cid}_{suffix}").exists()
        record = json.loads((out / f"{cid}_class.json").read_text())
        assert len(record["class_probs"]) == 2
        assert record["predicted"] in (0, 1)
        assert len(record["signals"]) == 3


def test_synthesize_dump_attention(workspace, tmp_path):
    out = tmp_path / "synth_att"
    assert main(["synthesize", "--checkpoint", str(workspace["checkpoint"]),
                 "--data", str(workspace["data"]), "--split", "test",
                 "--out", str(out), "--dump-attention"]) == 0
    manifest = json.loads((workspace["data"] / "manifest.json").read_text())
    test_ids = [c["id"] for c in manifest["cases"] if c["split"] == "test"]
    for cid in test_ids:
        for phase in ("art", "pv", "delay"):
            assert (out / f"{cid}_{phase}_attention.csv").exists()
    # delay-phase summary is a 3x3 block matrix plus labels
    lines = (out / f"{test_ids[0]}_delay_attention.csv").read_text().splitlines()
    assert len(lines) == 4


def test_ablate_table(workspace, tmp_path):
    cfg = tmp_path / "ablate.json"
    cfg.write_text(json.dumps({"epochs": 1, "warmup_epochs": 0, "seed": 2}))
    out = tmp_path / "ablate_out"
    assert main(["ablate", "--config", str(cfg),
                 "--data", str(workspace["data"]), "--out", str(out)]) == 0
    result = json.loads((out / "ablation.json").read_text())
    variants = [row["variant"] for row in result["rows"]]
    assert variants == ["baseline", "no_dtam", "no_cte", "no_t_encoding", "full"]
    hashes = {row["data_manifest_hash"] for row in result["rows"]}
    assert len(hashes) == 1
    table = (out / "ablation_table.txt").read_text()
    assert len(table.strip().splitlines()) == 6


def test_cli_determinism(tmp_path):
    cfg = tmp_path / "phantom.json"
    cfg.write_text(json.dumps(PHANTOM_CFG))
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "a"),
                 "--seed", "13"]) == 0
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "b"),
                 "--seed", "13"]) == 0
    a = (tmp_path / "a" / "manifest.json").read_bytes()
    b = (tmp_path / "b" / "manifest.json").read_bytes()
    assert a == b
