"""tools/artifact_digests.py: SHA-256 of every output of one fixed pipeline run."""

import hashlib
import importlib.util
import json
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "artifact_digests", Path(__file__).resolve().parent.parent / "tools" / "artifact_digests.py")
artifact_digests = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(artifact_digests)


def run(out, capsys):
    code = artifact_digests.main(["--out", str(out)])
    return code, capsys.readouterr().out


def test_every_output_but_the_run_manifests_is_digested_the_same_twice(tmp_path, capsys):
    code, printed = run(tmp_path / "one", capsys)
    assert code == 0
    digests = json.loads(printed)
    on_disk = {p.relative_to(tmp_path / "one").as_posix()
               for p in (tmp_path / "one").rglob("*") if p.is_file()}
    manifests = {f"{d}/run_manifest.json" for d in ("data", "run", "synth", "ablation",
                                                    "data128", "run128", "synth128")}
    assert manifests <= on_disk
    assert set(digests) == on_disk - manifests
    for path in ("data/manifest.json", "run/checkpoint.ntar", "run/train_log.jsonl",
                 "eval_test.json", "eval_val.json"):
        assert digests[path] == hashlib.sha256((tmp_path / "one" / path).read_bytes()).hexdigest()
    # 6 test cases: three phases and a mask as PGM, a class JSON, three attention CSVs
    assert len([p for p in digests if p.startswith("synth/")]) == 6 * 8
    # the table, its JSON, and a checkpoint, log and report per variant
    assert {p for p in digests if p.startswith("ablation/")} == {
        "ablation/ablation.json", "ablation/ablation_table.txt",
        *(f"ablation/{v}/{f}" for v in ("baseline", "no_dtam", "no_cte", "no_t_encoding", "full")
          for f in ("checkpoint.ntar", "train_log.jsonl", "report.json"))}
    # the 128 px stage: 4 cases, 1 epoch, and one test case synthesized with attention
    assert {p for p in digests if p.startswith(("data128/", "run128/"))} == {
        "data128/manifest.json", *(f"data128/case_{i:04d}.ntar" for i in range(4)),
        "run128/checkpoint.ntar", "run128/train_log.jsonl"}
    assert len([p for p in digests if p.startswith("synth128/")]) == 8
    assert run(tmp_path / "two", capsys) == (0, printed)


def test_a_directory_that_is_not_empty_is_refused(tmp_path, capsys):
    (tmp_path / "keep.txt").write_text("x")
    assert run(tmp_path, capsys) == (2, "")
    assert [p.name for p in tmp_path.iterdir()] == ["keep.txt"]
