"""Time one fresh interpreter's set-up: import foliate, then build gallery items.

Usage: python3 perfbench/setup_probe.py '[["hopf_s3", {}], ...]'

Prints ``{"setup_s": seconds}`` on its last line.  The clock starts before
NumPy or foliate is imported, so import work counts.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import foliate  # noqa: E402

for name, params in json.loads(sys.argv[1]):
    foliate.builtin(name, **params)
print(json.dumps({"setup_s": time.perf_counter() - START}))
