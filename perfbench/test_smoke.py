"""Smoke test of the benchmark: every workload at tiny size, untraced and
traced, through the correctness gate.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNTS = (
    "analyzer.analyze.calls", "cartier.build.calls", "synthesis.synthesize.calls",
    "weighted.unload.calls", "weighted.unload.steps", "weighted.excesses.calls",
    "cluster.validate.calls", "cluster.require_valid.calls", "cluster.dual_graph.calls",
    "cartier.added_points", "cartier.trace_len", "synthesis.points_out",
    "dsl.bytes_in", "dsl.bytes_out",
)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run(workload):
    args = ("--workload", workload, "--seed", "0", "--seconds", "0.5", "--scale", "tiny")
    plain = result_of(bench(*args, "--trace", "0"))
    traced = [result_of(bench(*args, "--trace", "1")) for _ in range(2)]
    for result, section in ((plain, "end_to_end"), (traced[0], "per_layer")):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC[section]
        }
    for name in COUNTS:
        assert traced[0]["metrics"][name] == traced[1]["metrics"][name], name


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "corpus", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
