"""Start-up ladder for the CLI: the wall time of one `python -m sandwiched.cli`
child process per subcommand, on seeded files of 10 and 100 points, and of
`python -c "import sandwiched.cli"`.

Each child is timed between two bare interpreter starts (`python -S -c
pass`) and scaled by perfbench's reference start time over the mean of the
two, as perfbench scales its `cli` workload; the median of the scaled times
over the ROUNDS rounds is recorded.  Two modes:

- `nocache`: bytecode writes off (PYTHONDONTWRITEBYTECODE=1), so every child
  compiles each package module it imports from source;
- `cache`: bytecode writes on, into a fresh PYTHONPYCACHEPREFIX directory
  (nothing lands in the source tree), filled by one untimed round.

The tree to time is named by its `src` directory.  The input files are made
by this checkout's package, so two trees are timed on the same bytes.  A
tree that holds a `__pycache__` is refused, because a stale cache would let
`nocache` read bytecode.  A run is written in the layout of pytest-benchmark's
JSON, so `bench_ladders.py` merges it like its own ladders: one series
per mode and subcommand (`nocache_analyze`, `cache_import`, ...), sized by
`points` (0 for the bare import, which reads no file), with the scaled median
as `calibrated_median_s`, and each child's exit code and stdout digest as
counts that the merge requires to agree across runs.  From the root of a
checkout, with the parent commit's tree at PARENT:

    python benchmarks/bench_startup.py PARENT/src > parent1.json
    python benchmarks/bench_startup.py src > change1.json
    python benchmarks/bench_startup.py src > change2.json
    python benchmarks/bench_startup.py PARENT/src > parent2.json
    PYTHONPATH=src python benchmarks/bench_ladders.py parent1.json change1.json \\
        change2.json parent2.json > BENCH_N.json
"""

import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import cpuinfo

sys.dont_write_bytecode = True  # the trees timed must stay free of caches
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from run import CLI_CALIBRATION_REF_NS, bare_start  # noqa: E402
from workloads import sized_cluster, tree_spec  # noqa: E402

import sandwiched  # noqa: E402

SIZES = (10, 100)
SEED = 5
ROUNDS = 20
MODES = ("nocache", "cache")


def inputs(workdir: Path) -> list:
    """(kind, points, argv, exit code) of every timed child; writes its files."""
    rng = random.Random(SEED)
    ops = [("import", 0, ["-c", "import sandwiched.cli"], 0)]
    for n in SIZES:
        cluster = sized_cluster(sandwiched, rng, n)
        (workdir / f"k{n}.cluster").write_text(sandwiched.dsl.serialize(f"k{n}", cluster), encoding="utf-8")
        spec = tree_spec(sandwiched, rng, n, "random", 2)
        (workdir / f"g{n}.graph").write_text(sandwiched.synthesis.serialize_graph_spec(spec), encoding="utf-8")
        first = sandwiched.enumerate_singularities(cluster)[0]
        alpha = ",".join(f"{cluster.skeleton.tags[p]}=1" for p in first.Kplus_Q)
        commands = (
            ("validate", ["validate", f"k{n}.cluster"], 0),
            ("unload", ["unload", f"k{n}.cluster", "--format", "json"], 0),
            ("analyze", ["analyze", f"k{n}.cluster", "--at", "c0"], 2),
            ("singularities", ["singularities", f"k{n}.cluster"], 2),
            ("cartier", ["cartier", f"k{n}.cluster", "--at", "c0", "--alpha", alpha], 0),
            ("synthesize", ["synthesize", f"g{n}.graph"], 0),
            ("export_dot", ["export", f"k{n}.cluster", "--view", "dual", "--format", "dot"], 0),
            ("export_json", ["export", f"k{n}.cluster", "--format", "json"], 0),
        )
        ops += [(kind, n, ["-m", "sandwiched.cli", *argv], code) for kind, argv, code in commands]
    return ops


def child_env(src: Path, mode: str, prefix: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    env["PYTHONPATH"] = str(src)
    if mode == "nocache":
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        env["PYTHONPYCACHEPREFIX"] = prefix
    return env


def bare_ns() -> int:
    start = time.perf_counter_ns()
    bare_start()
    return time.perf_counter_ns() - start


def time_mode(src: Path, mode: str, ops: list, workdir: Path) -> list:
    """One pytest-benchmark record per op, timed ROUNDS times in `mode`."""
    with tempfile.TemporaryDirectory(prefix="pycache-") as prefix:
        env = child_env(src, mode, prefix)

        def child(argv):
            return subprocess.run([sys.executable, *argv], cwd=workdir, env=env, capture_output=True, check=False)

        if mode == "cache":
            for _, _, argv, _ in ops:  # fills the prefix; untimed
                child(argv)
        raw = {(kind, points): [] for kind, points, *_ in ops}
        scaled = {(kind, points): [] for kind, points, *_ in ops}
        digest = {}
        before = bare_ns()
        for _ in range(ROUNDS):
            for kind, points, argv, code in ops:
                start = time.perf_counter_ns()
                proc = child(argv)
                ns = time.perf_counter_ns() - start
                if proc.returncode != code:
                    raise SystemExit(f"{kind}: exit {proc.returncode}, expected {code}: {proc.stderr.decode()}")
                digest[kind, points] = hashlib.sha256(proc.stdout).hexdigest()[:16]
                after = bare_ns()
                raw[kind, points].append(ns / 1e9)
                scaled[kind, points].append(ns * CLI_CALIBRATION_REF_NS / ((before + after) / 2) / 1e9)
                before = after
    records = []
    for kind, points, _, code in ops:
        name = f"{mode}_{kind}[{points}]"
        records.append({
            "name": name,
            "fullname": f"benchmarks/bench_startup.py::{name}",
            "stats": {"median": statistics.median(raw[kind, points])},
            "extra_info": {
                "points": points,
                "calibrated_median_s": statistics.median(scaled[kind, points]),
                "exit": code,
                "stdout_sha256": digest[kind, points],
            },
        })
    return records


def run(src: Path) -> dict:
    src = src.resolve()
    if not (src / "sandwiched" / "__init__.py").is_file():
        raise SystemExit(f"{src}: no sandwiched package")
    stale = sorted(str(p) for p in src.rglob("__pycache__"))
    if stale:
        raise SystemExit(f"remove the bytecode caches first: {' '.join(stale)}")
    with tempfile.TemporaryDirectory(prefix="bench-startup-") as workdir:
        ops = inputs(Path(workdir))
        benchmarks = [record for mode in MODES for record in time_mode(src, mode, ops, Path(workdir))]
    return {
        "machine_info": {"cpu": cpuinfo.get_cpu_info(), "python_version": platform.python_version()},
        "benchmarks": benchmarks,
    }


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: bench_startup.py SRC")
    print(json.dumps(run(Path(sys.argv[1])), indent=2))
