"""Smoke tests of the benchmark at toy size: python3 -m pytest benchmarks"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    out = subprocess.run([sys.executable, str(Path(cwd) / "benchmarks" / "run.py"),
                          "--size", "toy", "--seconds", "0.3", *args],
                         cwd=cwd, capture_output=True, text=True, timeout=300)
    return out


def result(*args):
    out = bench(*args)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_all_workloads_report_every_end_to_end_metric():
    res = result("--trace", "0")
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    for workload in SPEC["workloads"]:
        for metric in SPEC["end_to_end"]:
            got = res["metrics"][f"{workload['name']}.{metric['name']}"]
            assert got["unit"] == metric["unit"]
            assert got["value"] > 0


@pytest.mark.parametrize("workload", ["train-gen", "train-plain", "eval-full"])
def test_traced_run_separates_layers(workload):
    res = result("--workload", workload, "--trace", "1")
    assert res["correct"]
    metrics = res["metrics"]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        {name: v["unit"] for name, v in metrics.items()}
    calls = metrics["model.generate_noise_calls"]["value"]
    ranked = metrics["metrics.users_ranked"]["value"]
    nodes = metrics["diffcore.tape_nodes"]["value"]
    if workload == "train-gen":
        assert calls == 6 and ranked == 0 and nodes > 0
    elif workload == "train-plain":
        assert calls == 0 and ranked == 0 and nodes > 0
    else:
        assert calls == 0 and ranked > 0 and nodes == 0
    assert metrics["graphs.comp_nnz"]["value"] > 0


def test_tape_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        m = result("--workload", "train-gen", "--trace", "1", "--seed", "4")["metrics"]
        counts.append((m["diffcore.tape_nodes"]["value"],
                       m["diffcore.tape_bytes"]["value"]))
    assert counts[0] == counts[1]


def test_wrong_ranking_is_counted_as_failed():
    res = result("--workload", "eval-full", "--inject", "wrong-ranking")
    assert not res["correct"]
    assert res["failed"] >= 1


def test_same_seed_same_log():
    sys.path.insert(0, str(HERE))
    try:
        import workload
    finally:
        sys.path.remove(str(HERE))
    size = workload.SIZES["toy"]
    a, b = workload.generate_pairs(size, 5), workload.generate_pairs(size, 5)
    assert (a == b).all()
    assert not (a == workload.generate_pairs(size, 6)).all()
    assert len({tuple(p) for p in a.tolist()}) == size.pairs
    assert set(a[:, 0]) == set(range(size.users))
    assert set(a[:, 1]) == set(range(size.items))


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "train-plain", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
