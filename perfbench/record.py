"""Record the reference output digests that run.py compares against.

    python3 perfbench/record.py --seeds 0-15 [--workload deep]

Runs every op of each seed's full op list once, requires its oracle check to
pass, and writes into perfbench/reference/<workload>.json, for each seed, the
concatenated 8-hex-digit digests of the ops in index order.  Record only from
a commit whose outputs are known good; a later change that alters any output
then shows up as failed ops.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run
import workloads


def record(workload_name, seeds):
    path = run.REFERENCE_DIR / f"{workload_name}.json"
    table = json.loads(path.read_text(encoding="utf-8"))["seeds"] if path.is_file() else {}
    for seed in seeds:
        pkg = run.Package()
        workdir = run.ROOT / ".perfbench-work" / f"{workload_name}-seed{seed}"
        workload = workloads.build(workload_name, pkg, seed, False, workdir)
        digests = []
        for op in workload.ops:
            output = op.run()
            message = op.check(output) if op.check else None
            if message:
                raise SystemExit(f"{workload_name} seed {seed} op {op.index}: {message}")
            digests.append(workloads.digest(op.encode(output)))
        table[str(seed)] = "".join(digests)
        print(f"{workload_name} seed {seed}: {len(digests)} ops", flush=True)
    path.parent.mkdir(exist_ok=True)
    table = dict(sorted(table.items(), key=lambda item: int(item[0])))
    path.write_text(json.dumps({"seeds": table}, indent=0) + "\n", encoding="utf-8")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-15", help="inclusive range A-B")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.ROOT / "src"))
    for name in [args.workload] if args.workload else workloads.WORKLOADS:
        record(name, seeds)


if __name__ == "__main__":
    main()
