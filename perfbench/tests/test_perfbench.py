"""The benchmark's own tests: span arithmetic, wrapper install/restore, a
one-round smoke run of every workload on both seeds, and the command line.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import foliate  # noqa: E402
import run  # noqa: E402
import runner  # noqa: E402
import spans  # noqa: E402
from foliate import geodesics, manifold  # noqa: E402
from workloads import POLE_TOL, WORKLOADS, Env  # noqa: E402


def _span(sid, parent, name, start, end, **counts):
    s = spans.Span(sid, parent, name, "t", start)
    s.end = end
    for key, value in counts.items():
        setattr(s, key, value)
    return s


def test_self_time_on_a_nested_tree(monkeypatch):
    # root [0, 10] holds a [1, 4] (which holds leaf [2, 3]) and b [6, 9]
    clock = iter([0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 9.0, 10.0, 11.0, 12.0, 13.0])
    monkeypatch.setattr(spans, "perf_counter", lambda: next(clock))
    tracer = spans.Tracer()
    root = tracer.enter("root")
    a = tracer.enter("a")
    tracer.exit(tracer.enter("leaf"))
    tracer.exit(a)
    tracer.exit(tracer.enter("b"))
    tracer.exit(root)
    tree = tracer.drain()
    assert [(s.name, s.parent, s.self_s) for s in tree] == [
        ("leaf", a.sid, 1.0), ("a", root.sid, 2.0), ("b", root.sid, 3.0),
        ("root", None, 4.0)]
    with pytest.raises(RuntimeError):
        outer = tracer.enter("outer")
        tracer.enter("inner")
        tracer.exit(outer)


def test_layer_totals_ratios():
    tree = [
        _span(0, None, "geodesics.jacobi_ode", 0.0, 8.0, steps=2,
              child_s=0.8),
        *[_span(1 + i, 0, "geodesics.R_fn", i + 0.1, i + 0.2)
          for i in range(8)],
        _span(9, None, "geodesics.R_fn", 8.0, 9.0),   # outside any ODE
        _span(10, None, "identities.quadrature_integral", 10.0, 20.0,
              points=100),
        _span(11, 10, "manifold.point_geometry", 11.0, 12.0, points=60),
        _span(12, 11, "manifold.point_geometry", 11.5, 11.9, points=60),
        _span(13, 10, "manifold.point_geometry", 13.0, 14.0, points=40),
    ]
    totals = spans.LayerTotals(quad_chunk=60)
    totals.add(tree)
    m = totals.metrics()
    assert m["geodesics.rhs_evals_per_step"] == 4.0
    assert m["geodesics.R_fn.calls"] == 9
    assert m["identities.quadrature.geometry_builds_per_chunk"] == 1.5
    assert m["manifold.point_geometry.builds"] == 3
    assert m["geodesics.jacobi_ode.self_s"] == pytest.approx(8.0 - 0.8)
    assert set(m) | {"trace.overhead_s", "trace.overhead_ratio"} == {
        name for name, _, _ in spans.PER_LAYER}


def test_wrappers_record_and_restore():
    cached = vars(manifold.PointGeometry)["gamma"]
    fn = geodesics.integrate_geodesic
    tracer = spans.Tracer()
    W = foliate.builtin("hopf_s3").W
    p = np.array([0.7, 0.1, 0.2])
    with pytest.raises(ZeroDivisionError):
        with spans.traced(tracer) as patches:
            assert foliate.integrate_geodesic is not fn
            assert vars(manifold.PointGeometry)["gamma"] is not cached
            tracer.active = True
            trace = geodesics.integrate_geodesic(W, p, np.array([0, 1.0, 1]),
                                                 0.1, n_steps=4)
            tracer.active = False
            recorded = tracer.drain()
            1 / 0
    assert spans.unrestored(patches) == []
    assert foliate.integrate_geodesic is fn
    assert vars(manifold.PointGeometry)["gamma"] is cached
    names = {s.name for s in recorded}
    assert {"geodesics.integrate_geodesic", "manifold.gamma",
            "manifold.metric_jet", "expr.eval_jet"} <= names
    root = next(s for s in recorded if s.name == "geodesics.integrate_geodesic")
    assert root.parent is None and root.steps == len(trace.times) - 1
    assert all(s.parent is not None for s in recorded if s is not root)


@pytest.mark.parametrize("seed", [runner.MAIN_SEED, runner.HOLDOUT_SEED])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_one_timed_round(name, seed):
    workload = WORKLOADS[name]
    res = runner.run_pass(workload, Env(workload.build_items()), seed,
                          rounds=2)
    assert res.rounds == 2 and res.failures == [] and res.failed == 0
    assert res.units > 0 and len(res.latencies) == res.attempted // 2


@pytest.mark.xfail(strict=True, reason="known riccati_ode defect: late poles "
                   "from B0 = b0 id, b0 > 0, land more than 1e-4 off")
def test_late_pole_with_positive_start():
    k, b0 = 0.565, 0.323
    rk = math.sqrt(k)
    t_star = (math.pi / 2.0 + math.atan(b0 / rk)) / rk
    rt = geodesics.riccati_ode(lambda t: k * np.eye(2), b0 * np.eye(2),
                               t_star + 0.4)
    assert abs(rt.blow_up - t_star) <= POLE_TOL


def _cli(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_cli_traced_run_matches_untraced_digest():
    done = _cli(ROOT, "--workload", "profile-odes", "--seed", "3",
                "--seconds", "0", "--trace", "1")
    assert done.returncode == 0, done.stderr
    *_, info, last = done.stdout.strip().splitlines()
    result, info = json.loads(last), json.loads(info)["info"]
    assert result["correct"] and result["failed"] == 0
    assert info["digests_match"] and info["unrestored"] == []
    assert {name for name, _, _ in spans.PER_LAYER} == set(result["metrics"])
    assert result["metrics"]["geodesics.rhs_evals_per_step"]["value"] >= 4.0


def test_cli_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _cli(tmp_path, "--workload", "leaf-flows", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0 and done.stdout == ""


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) \
        == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(runner.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(spans.PER_LAYER)
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert all(0 < m["bound"] <= 0.25 and math.isfinite(m["bound"])
               for m in spec["end_to_end"])
