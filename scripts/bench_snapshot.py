#!/usr/bin/env python3
"""Record a benchmark snapshot: ``BENCH_<label>.json`` at the repository root.

Runs the checkout's own ``perfbench/run.py`` for every workload on the main
and hold-out seeds untraced, and ``leaf-flows`` traced on both seeds, each
for the ``run_seconds`` that checkout's ``BENCHMARK.json`` sets.  The file
keeps each run's result and ``info`` lines, the checkout's git commit (and
whether its sources differ from it) and its ``src/foliate`` line count, so
two snapshots on one machine compare a change with its parent.

Usage:
    python3 scripts/bench_snapshot.py LABEL [--tree CHECKOUT]
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1805, 1673)
WORKLOADS = ("leaf-flows", "profile-odes", "batch-geometry")
TRACED = ("leaf-flows",)


def _run(tree: Path, workload: str, seed: int, trace: int, seconds) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=True)
    *_, info, result = done.stdout.strip().splitlines()
    return {"workload": workload, "seed": seed, "trace": trace,
            "result": json.loads(result), "info": json.loads(info)["info"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label")
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="checkout to benchmark (default: this one)")
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    seconds = json.loads((tree / "BENCHMARK.json").read_text())["run_seconds"]
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree,
                            capture_output=True, text=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain", "--", "src",
                            "perfbench", "BENCHMARK.json"], cwd=tree,
                           capture_output=True, text=True).stdout.strip()
    lines = sum(len(p.read_text().splitlines())
                for p in (tree / "src" / "foliate").glob("*.py"))
    runs = []
    for trace in (0, 1):
        for seed in SEEDS:
            for workload in (WORKLOADS if trace == 0 else TRACED):
                runs.append(_run(tree, workload, seed, trace, seconds))
                res = runs[-1]["result"]
                print(f"{workload} seed {seed} trace {trace}: "
                      f"correct={res['correct']} failed={res['failed']}",
                      file=sys.stderr)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps({
        "label": args.label, "git_commit": commit or "unknown",
        "uncommitted_changes": bool(dirty),
        "src_foliate_lines": lines, "run_seconds": seconds, "runs": runs},
        indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
