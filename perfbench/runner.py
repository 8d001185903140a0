"""Closed-loop passes over a workload, the end-to-end metrics, the traced
pass and the environment record.  ``run.py`` is the command-line entry."""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from foliate import identities
from spans import PER_LAYER, LayerTotals, Tracer, traced, unrestored
from workloads import WORKLOADS, Env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

MAIN_SEED = 1805
HOLDOUT_SEED = 1673
MIN_TASKS = 100          # so task_p90_ms has at least 10 samples beyond it
SETUP_REPEATS = 6        # fresh interpreters before the pass, and 6 after
SPAN_SAMPLE_CAP = 2000

# (name, unit, better) of the metrics every untraced run prints
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("work_per_s", "units/s", "higher"),
    ("task_p50_ms", "ms", "lower"),
    ("task_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


@dataclass
class PassResult:
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    latencies: list = field(default_factory=list)
    units: int = 0
    busy_s: float = 0.0      # time inside public calls, all rounds
    failures: list = field(default_factory=list)
    digest: object = field(default_factory=hashlib.sha256)
    span_samples: dict = field(default_factory=dict)


def _fold(digest, label: str, arrays) -> None:
    digest.update(label.encode())
    for a in arrays:
        if a is None:
            digest.update(b"None")
        else:
            digest.update(np.ascontiguousarray(a, dtype=float).tobytes())


def _run_round(workload, env, seed, r, res, timed, tracer=None, totals=None):
    rng = np.random.default_rng([seed, r])
    rounds = workload.round(env, rng, r)
    out = None
    for i in itertools.count():
        try:
            task = rounds.send(out)
        except StopIteration:
            break
        res.attempted += 1
        if tracer is not None:
            tracer.task = f"{r}:{i}:{task.label}"
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = task.call()
        except Exception:  # a raising call is a failed task; the round stops
            res.failed += 1
            res.failures.append(f"round {r} {task.label}: "
                                + traceback.format_exc(limit=3))
            rounds.close()
            break
        finally:
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
                spans = tracer.drain()
                totals.add(spans)
                if task.label not in res.span_samples:
                    res.span_samples[task.label] = [
                        s.as_dict() for s in spans[:SPAN_SAMPLE_CAP]]
        res.busy_s += dt
        problems = task.check(out)
        if problems:
            res.failed += 1
            res.failures.append(f"round {r} {task.label}: "
                                + "; ".join(problems))
        if timed:
            res.latencies.append(dt)
            res.units += task.units(out)
        _fold(res.digest, task.label, task.arrays(out))
    res.rounds = r + 1


def run_pass(workload, env, seed, seconds=0.0, rounds=None, tracer=None,
             totals=None) -> PassResult:
    """Round 0 warms caches and is checked but not timed.  Timed rounds
    follow until ``seconds`` have passed and ``MIN_TASKS`` timed tasks are
    done (capped at twice ``seconds``), or for exactly ``rounds`` rounds."""
    res = PassResult()
    _run_round(workload, env, seed, 0, res, False, tracer, totals)
    start = time.perf_counter()
    r = 1
    while True:
        _run_round(workload, env, seed, r, res, True, tracer, totals)
        r += 1
        elapsed = time.perf_counter() - start
        if rounds is not None:
            if r >= rounds:
                break
        elif elapsed >= seconds and (len(res.latencies) >= MIN_TASKS
                                     or elapsed >= 2.0 * seconds):
            break
    return res


def measure_setup(workload) -> list:
    """Fresh-interpreter set-up times: import foliate and build the
    workload's gallery items, once per child process."""
    spec = json.dumps([[name, params] for _, name, params in workload.gallery])
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), spec], cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    src = ROOT / "src" / "foliate"
    lines = sum(len(p.read_text().splitlines()) for p in src.glob("*.py"))
    return {
        "seed": seed, "main_seed": MAIN_SEED, "holdout_seed": HOLDOUT_SEED,
        "git_commit": _git_commit(), "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: v for k, v in sorted(os.environ.items())
                         if k.endswith("_THREADS")},
        "src_foliate_lines": lines,
    }


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(res: PassResult, setup_times) -> dict:
    ms = [1e3 * x for x in res.latencies]
    values = {
        "setup_s": statistics.median(setup_times),
        "work_per_s": res.units / sum(res.latencies),
        "task_p50_ms": statistics.median(ms),
        "task_p90_ms": _quantile(ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in END_TO_END}


def _summary(res: PassResult) -> dict:
    return {"rounds": res.rounds, "attempted": res.attempted,
            "failed": res.failed, "timed_tasks": len(res.latencies),
            "work_units": res.units, "busy_s": res.busy_s,
            "digest": res.digest.hexdigest(), "failures": res.failures[:10]}


def run(workload_name: str, seed: int, seconds: float, trace: bool):
    """Run one benchmark invocation; return the result line's object and
    an ``info`` record of the environment and both passes."""
    workload = WORKLOADS[workload_name]
    info = {"workload": workload_name, "work_unit": workload.unit,
            "environment": environment(seed), "seconds": seconds,
            "notes": list(workload.notes)}
    if not trace:
        # probes on both sides of the pass, so set-up sees the same drift
        setup_times = measure_setup(workload)
        plain = run_pass(workload, Env(workload.build_items()), seed, seconds)
        setup_times += measure_setup(workload)
        metrics = end_to_end(plain, setup_times)
        info.update(setup_times=setup_times, passes={"untraced": _summary(plain)},
                    task_latencies_s=plain.latencies)
        correct = plain.failed == 0
        attempted, failed = plain.attempted, plain.failed
    else:
        # half the time untraced, then the same rounds traced, so a traced
        # run takes about as long as an untraced one
        plain = run_pass(workload, Env(workload.build_items()), seed,
                         seconds / 2.0)
        tracer = Tracer()
        totals = LayerTotals(identities.QUAD_CHUNK)
        with traced(tracer) as patches:
            tracer.active = True
            items = workload.build_items()
            tracer.active = False
            totals.add(tracer.drain())
            again = run_pass(workload, Env(items, tracer.profile), seed,
                             rounds=plain.rounds, tracer=tracer, totals=totals)
        leftovers = unrestored(patches)
        same = plain.digest.hexdigest() == again.digest.hexdigest()
        layer = totals.metrics()
        layer["trace.overhead_s"] = again.busy_s - plain.busy_s
        layer["trace.overhead_ratio"] = layer["trace.overhead_s"] / plain.busy_s
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
        info.update(passes={"untraced": _summary(plain),
                            "traced": _summary(again)},
                    digests_match=same, unrestored=leftovers,
                    wrapped_entry_points=len(patches))
        correct = (plain.failed == 0 and again.failed == 0 and same
                   and not leftovers)
        attempted = plain.attempted + again.attempted
        failed = plain.failed + again.failed
        info["span_samples"] = again.span_samples
    info["fail_ratio"] = failed / attempted
    return {"correct": bool(correct), "attempted": attempted,
            "failed": failed, "metrics": metrics}, info


def write_record(result: dict, info: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    env = info["environment"]
    path = OUT_DIR / (f"{info['workload']}-seed{env['seed']}-"
                      f"trace{int('traced' in info['passes'])}.json")
    path.write_text(json.dumps({"result": result, "info": info}, indent=1))
    return path
