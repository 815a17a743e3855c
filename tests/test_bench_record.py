"""tools/bench_record.py: one BENCH_<label>.json from benchmark result files."""

import importlib.util
import json
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parent.parent / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_record)

ENV = {"cpu": "Test CPU @ 2.0GHz", "cpus_usable": 2, "blas_threads": "1",
       "git_sha": "0123abc", "src_sha256": "f" * 64}


def fabricate(tmp_path, seed, cases_per_s, peak_rss_mb, **env):
    """A result file as phasebench/run.py --trace 0 writes it."""
    record = {
        "workload": "synth-128", "seed": seed, "seconds": 25.0, "smoke": False,
        "environment": dict(ENV, **env), "setup": [], "call_walls_s": [1.0, 1.1],
        "traced_call_walls_s": [],
        "checks": [{"check": "dtam", "ok": True, "detail": ""}],
        "result": {"correct": True, "attempted": 64, "failed": 0, "metrics": {
            "cases_per_s": {"value": cases_per_s, "unit": "cases/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": 0.5, "unit": "s"}}},
    }
    path = tmp_path / f"synth-128-seed{seed}-trace0.json"
    path.write_text(json.dumps(record))
    return str(path)


def test_two_runs_give_median_quartiles_seeds_and_machine(tmp_path):
    files = [fabricate(tmp_path, 12, 30.0, 46.0), fabricate(tmp_path, 11, 20.0, 48.0)]
    assert bench_record.main(["--label", "demo", "--out-dir", str(tmp_path), *files]) == 0
    bench = json.loads((tmp_path / "BENCH_demo.json").read_text())
    assert bench["label"] == "demo"
    entry = bench["workloads"]["synth-128"]
    assert entry["seeds"] == [11, 12] and entry["runs"] == 2
    assert (entry["nproc"], entry["cpu"]) == (2, "Test CPU @ 2.0GHz")
    assert (entry["git_sha"], entry["src_sha256"]) == ("0123abc", "f" * 64)
    assert entry["all_correct"] and entry["failed"] == 0 and entry["attempted"] == 128
    # inclusive quartiles of two values lie a quarter of the way in from each end
    assert entry["metrics"]["cases_per_s"] == {"median": 25.0, "q1": 22.5, "q3": 27.5,
                                               "iqr": 5.0, "unit": "cases/s"}
    assert entry["metrics"]["peak_rss_mb"]["median"] == 47.0
    assert entry["metrics"]["setup_s"]["iqr"] == 0.0


@pytest.mark.parametrize("second", [
    {"src_sha256": "e" * 64},  # another source
    {"cpus_usable": 4},  # another machine
])
def test_runs_of_different_sources_or_machines_are_refused(tmp_path, second, capsys):
    files = [fabricate(tmp_path, 1, 30.0, 46.0), fabricate(tmp_path, 2, 31.0, 46.0, **second)]
    assert bench_record.main(["--label", "mixed", "--out-dir", str(tmp_path), *files]) == 2
    assert "differ" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_mixed.json").exists()


def test_a_traced_run_is_refused(tmp_path, capsys):
    path = fabricate(tmp_path, 1, 30.0, 46.0)
    record = json.loads(Path(path).read_text())
    record["traced_call_walls_s"] = [1.2]
    Path(path).write_text(json.dumps(record))
    assert bench_record.main(["--label", "traced", "--out-dir", str(tmp_path), path]) == 2
    assert "untraced" in capsys.readouterr().err


@pytest.mark.parametrize("content", ["[]", "[1, 2]", "3", "null", '"text"'])
def test_a_result_that_is_not_a_json_object_is_refused(tmp_path, content, capsys):
    # a JSON list exited 1 with an AttributeError traceback at read_result
    path = tmp_path / "synth-128-seed1-trace0.json"
    path.write_text(content)
    assert bench_record.main(["--label", "list", "--out-dir", str(tmp_path), str(path)]) == 2
    assert "JSON object" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_list.json").exists()
