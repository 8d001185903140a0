#!/usr/bin/env python3
"""foliate benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload leaf-flows --seed 1805 \
        --seconds 22 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` repeats the same
tasks with spans around foliate's public entry points and prints the
per-layer metrics.  The last stdout line is the result object; the line
before it is an ``info`` record (environment, fail ratio, digests), also
written to ``.perfbench_out/``.  See perfbench/README.md.
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOAD_NAMES = ("leaf-flows", "profile-odes", "batch-geometry")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "foliate" / "__init__.py").is_file():
        print(f"perfbench: no foliate sources at {SRC}", file=sys.stderr)
        return 2
    # one BLAS thread, set before NumPy loads: the single-threaded baseline
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import runner

    result, info = runner.run(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    for summary in info["passes"].values():
        for line in summary["failures"]:
            print(f"perfbench: FAILED {line}", file=sys.stderr)
    runner.write_record(result, info)
    info.pop("span_samples", None)
    info.pop("task_latencies_s", None)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
