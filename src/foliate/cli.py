"""Command-line interface.

Exit codes: 0 success, 1 a checked tolerance failed, 2 bad input
(manifests, expressions, flags), 3 numerical failure (singular metric,
chart breakdown).  All machine output is JSON; traces export to CSV.
Randomized commands take ``--seed`` with a fixed default and echo the seed
so every run is reproducible.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import gallery as gallery_mod
from .almost_product import (AdaptedPoint, WeightedAlmostProduct,
                             mixed_invariants, second_fundamental)
from .bounds import (DiameterBoundInput, Thm418Params, diameter_bound,
                     f_delta, focal_inequality, nullity_threshold,
                     pinching_inequality, radon_hurwitz, rho_bound_check,
                     thm418_hypothesis)
from .errors import FoliateError, InputError, NumericalError
from .geodesics import (export_trace_csv, integrate_geodesic, riccati_flow,
                        turbulence)
from .identities import integral_formula_1, pointwise_suite
from .manifest import load_manifest, save_manifest
from .manifold import random_points
from .suite import DEFAULT_SEED, format_suite, run_suite
from .weighted import cd_check, weighted_jacobi_operator

DEFAULT_POINTS = 200


def _emit(data, as_json: bool, text: str | None = None) -> None:
    if as_json or text is None:
        print(json.dumps(data, indent=2, default=_jsonable))
    else:
        print(text)


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def _parse_params(pairs) -> dict:
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise InputError(f"expected key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        try:
            out[key] = int(raw)
        except ValueError:
            try:
                out[key] = float(raw)
            except ValueError:
                out[key] = raw
    return out


def _load_structure(args) -> WeightedAlmostProduct:
    if getattr(args, "manifest", None):
        return load_manifest(args.manifest)
    name = getattr(args, "gallery", None)
    if not name:
        raise InputError("supply --gallery NAME or --manifest FILE")
    return gallery_mod.builtin(name, **_parse_params(args.param)).W


def _parse_vector(text: str, dim: int, what: str) -> np.ndarray:
    try:
        vec = np.array([float(tok) for tok in text.split(",")])
    except ValueError as exc:
        raise InputError(f"{what} must be comma-separated numbers: {exc}")
    if vec.shape != (dim,):
        raise InputError(f"{what} must have {dim} components, got {len(vec)}")
    return vec


def _sample(W: WeightedAlmostProduct, count: int, seed: int) -> np.ndarray:
    return random_points(W.manifold, np.random.default_rng(seed), count)


# -- subcommand bodies ---------------------------------------------------------

def cmd_report(args) -> int:
    W = _load_structure(args)
    p = _parse_vector(args.point, W.dim, "--point")
    ap = AdaptedPoint(W, p)
    inv = mixed_invariants(W, p, ap=ap)
    pack = second_fundamental(W, p, ap)
    E_tan, _ = ap.frames
    spectra = [np.linalg.eigvalsh(
        weighted_jacobi_operator(W, p, E_tan[:, a], ap)).tolist()
        for a in range(W.nu)]
    report = {
        "label": W.label or getattr(args, "gallery", None) or "manifest",
        "dim": W.dim, "split": [W.nu, W.n],
        "point": p.tolist(),
        "gamma_max_abs": float(np.max(np.abs(ap.gamma))),
        "invariants": {k: float(np.asarray(v).reshape(-1)[0])
                       if np.asarray(v).ndim <= 1 and np.asarray(v).size == 1
                       else np.asarray(v).tolist()
                       for k, v in inv.items()},
        "extrinsic_norms": {k: float(v) for k, v in pack.norms.items()},
        "weighted_jacobi_spectra": spectra,
    }
    _emit(report, True)
    return 0


def cmd_verify_pointwise(args) -> int:
    W = _load_structure(args)
    pts = _sample(W, args.points, args.seed)
    reports = pointwise_suite(W, pts, tol=args.tol)
    data = {"seed": args.seed, "points": args.points,
            "reports": [r.as_dict() for r in reports]}
    _emit(data, args.json, "\n".join(str(r) for r in reports))
    return 0 if all(r.passed for r in reports) else 1


def cmd_verify_integral(args) -> int:
    W = _load_structure(args)
    value = integral_formula_1(W, args.grid)
    ok = abs(value) <= args.tol
    _emit({"grid": args.grid, "value": value, "tol": args.tol, "passed": ok},
          args.json,
          f"[{'pass' if ok else 'FAIL'}] closed-chart integral = {value:.3e} "
          f"(grid {args.grid}/circle, tol {args.tol:g})")
    return 0 if ok else 1


def cmd_verify_cd(args) -> int:
    W = _load_structure(args)
    pts = _sample(W, args.points, args.seed)
    rep = cd_check(W, pts, args.c, args.q, side=args.side, synth=args.synth)
    data = {"seed": args.seed, "holds": rep.holds, "margin": rep.margin,
            "c": rep.c, "q": rep.q, "side": rep.side, "synth": rep.synth,
            "worst_value": rep.worst_value,
            "worst_point": rep.worst_point.tolist(),
            "n_points": rep.n_points}
    _emit(data, args.json,
          f"[{'pass' if rep.holds else 'FAIL'}] CD_{rep.side}(c={rep.c:g}, "
          f"q={rep.q}): min partial Ricci = {rep.worst_value:.6f} "
          f"(margin {rep.margin:+.3e})")
    return 0 if rep.holds else 1


def _run_items(keys, seed: int, as_json: bool) -> int:
    items = []
    for key in keys:
        items.extend(run_suite(only=key, seed=seed))
    if as_json:
        _emit([it.as_dict() for it in items], True)
    else:
        print(format_suite(items))
    return 0 if all(it.passed for it in items) else 1


def cmd_verify_riccati(args) -> int:
    return _run_items(["riccati-blowup", "riccati-jacobi"], args.seed,
                      args.json)


def cmd_verify_bounds(args) -> int:
    ok = rho_bound_check(args.rho_max)
    _emit({"rho_max": args.rho_max, "passed": ok}, args.json,
          f"[{'pass' if ok else 'FAIL'}] dimension bound checked for "
          f"n = 1..{args.rho_max}")
    return 0 if ok else 1


def cmd_riccati(args) -> int:
    W = _load_structure(args)
    p = _parse_vector(args.point, W.dim, "--point")
    v = _parse_vector(args.velocity, W.dim, "--velocity")
    trace = integrate_geodesic(W, p, v, args.time, n_steps=args.steps)
    rt = riccati_flow(W, trace, weighted=args.weighted)
    if args.csv:
        export_trace_csv(args.csv, trace, riccati=rt)
    final = None if rt.blow_up is not None else rt.final().tolist()
    data = {"time": args.time, "steps": args.steps, "weighted": rt.weighted,
            "blow_up": rt.blow_up, "final_matrix": final,
            "speed_drift": trace.speed_drift,
            "tangency_drift": trace.tangency_drift}
    text = (f"blow-up at t = {rt.blow_up:.6f}" if rt.blow_up is not None
            else f"no blow-up in [0, {args.time:g}]; final |B|_F = "
                 f"{float(np.linalg.norm(rt.final())):.6f}")
    _emit(data, args.json, text)
    return 0


def cmd_geodesic(args) -> int:
    W = _load_structure(args)
    p = _parse_vector(args.point, W.dim, "--point")
    v = _parse_vector(args.velocity, W.dim, "--velocity")
    trace = integrate_geodesic(W, p, v, args.time, n_steps=args.steps,
                               home=args.home)
    if args.csv:
        export_trace_csv(args.csv, trace)
    data = {"time": args.time, "steps": args.steps, "home": args.home,
            "end_point": trace.points[-1].tolist(),
            "end_velocity": trace.velocities[-1].tolist(),
            "speed_drift": trace.speed_drift,
            "tangency_drift": trace.tangency_drift,
            "frame_orth_drift": trace.frame_orth_drift}
    _emit(data, args.json,
          f"end point {np.array2string(trace.points[-1], precision=6)}  "
          f"(speed drift {trace.speed_drift:.2e})")
    return 0


def cmd_turbulence(args) -> int:
    W = _load_structure(args)
    pts = _sample(W, args.points, args.seed)
    rep = turbulence(W, pts, n_dirs=args.dirs)
    data = {"seed": args.seed, "value": rep.value,
            "antisym_value": rep.antisym_value, "h_tan_max": rep.h_tan_max,
            "warned": rep.warned, "n_points": rep.n_points,
            "n_dirs": rep.n_dirs}
    text = f"turbulence estimate a = {rep.value:.6f} ({rep.n_points} points)"
    if rep.warned:
        text += "  [warning: leaves are not totally geodesic on this sample]"
    _emit(data, args.json, text)
    return 0


def cmd_bounds_rho(args) -> int:
    rho = radon_hurwitz(args.n)
    bound = 2.0 * math.log2(args.n) + 2.0 if args.n >= 1 else float("nan")
    _emit({"n": args.n, "rho": rho, "log_bound": bound}, args.json,
          f"rho({args.n}) = {rho}  (<= {bound:.3f})")
    return 0


def cmd_bounds_nu(args) -> int:
    value = nullity_threshold(args.n)
    _emit({"n": args.n, "max_nu": value}, args.json,
          f"largest admissible nu for n = {args.n}: {value}")
    return 0


def cmd_bounds_diameter(args) -> int:
    res = diameter_bound(DiameterBoundInput(
        c=args.c, q=args.q, nu=args.nu, n=args.n,
        x_nor_norm=args.x_nor, h_norm=args.h))
    inputs = {"c": args.c, "q": args.q, "nu": args.nu, "n": args.n,
              "x_nor_norm": args.x_nor, "h_norm": args.h}
    _emit({**res, "inputs": inputs}, args.json,
          f"case {res['case']}: diam <= {res['value']:.6f}")
    return 0


def cmd_bounds_f_delta(args) -> int:
    value = f_delta(args.delta)
    pinch = pinching_inequality(args.delta, args.tau)
    focal = focal_inequality(args.delta, args.tau)
    _emit({"delta": args.delta, "tau": args.tau, "f": value,
           "pinching": pinch, "focal": focal}, args.json,
          f"f({args.delta:g}) = {value:.12f}; pinching "
          f"{'holds' if pinch['holds'] else 'fails'} at tau = {args.tau:g}")
    return 0


def cmd_bounds_thm418(args) -> int:
    params = Thm418Params(k1=args.k1, k2=args.k2, eps=args.eps, a=args.a)
    res = thm418_hypothesis(params, variant=args.variant)
    rel = "<=" if res["holds"] else ">"
    _emit(res, args.json,
          f"[{'holds' if res['holds'] else 'fails'}] {res['variant']} "
          f"hypothesis: {res['lhs']:.6f} {rel} {res['rhs']:.6f}")
    return 0


def cmd_gallery_list(args) -> int:
    cat = gallery_mod.catalog()
    _emit(cat, args.json,
          "\n".join(f"{name:32s} {desc}" for name, desc in cat.items()))
    return 0


def cmd_gallery_export(args) -> int:
    item = gallery_mod.builtin(args.name, **_parse_params(args.param))
    path = args.out or f"{args.name}.json"
    save_manifest(item.W, path)
    print(path)
    return 0


def cmd_suite(args) -> int:
    items = run_suite(only=args.only, seed=args.seed)
    if args.json:
        _emit({"seed": args.seed, "items": [it.as_dict() for it in items]},
              True)
    else:
        print(f"seed {args.seed}")
        print(format_suite(items))
    return 0 if all(it.passed for it in items) else 1


# -- parser ---------------------------------------------------------------------

def _add_structure_flags(p) -> None:
    p.add_argument("--gallery", help="built-in example name")
    p.add_argument("--manifest", help="path to a structure manifest (JSON)")
    p.add_argument("--param", action="append", metavar="KEY=VALUE",
                   help="gallery constructor parameter (repeatable)")


def _add_json(p) -> None:
    p.add_argument("--json", action="store_true", help="machine output")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="foliate",
        description="curvature laboratory for weighted almost-product "
                    "structures on charted manifolds")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="curvature report at a point")
    _add_structure_flags(p)
    p.add_argument("--point", required=True, help="comma-separated chart point")
    p.set_defaults(fn=cmd_report)

    pv = sub.add_parser("verify", help="identity and bound checks")
    vsub = pv.add_subparsers(dest="target", required=True)

    p = vsub.add_parser("pointwise", help="pointwise divergence identities")
    _add_structure_flags(p)
    p.add_argument("--points", type=int, default=DEFAULT_POINTS)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_json(p)
    p.set_defaults(fn=cmd_verify_pointwise)

    p = vsub.add_parser("integral", help="closed-chart integral formula")
    _add_structure_flags(p)
    p.add_argument("--grid", type=int, default=48, help="nodes per circle")
    p.add_argument("--tol", type=float, default=1e-6)
    _add_json(p)
    p.set_defaults(fn=cmd_verify_integral)

    p = vsub.add_parser("cd", help="curvature-dimension condition")
    _add_structure_flags(p)
    p.add_argument("--c", type=float, required=True, help="lower bound")
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--side", choices=("tan", "nor"), default="tan")
    p.add_argument("--synth", type=float, default=None,
                   help="synthetic dimension (default: home rank)")
    p.add_argument("--points", type=int, default=25)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_json(p)
    p.set_defaults(fn=cmd_verify_cd)

    p = vsub.add_parser("riccati", help="blow-up and Jacobi consistency")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_json(p)
    p.set_defaults(fn=cmd_verify_riccati)

    p = vsub.add_parser("bounds", help="exhaustive dimension-bound check")
    p.add_argument("--rho-max", type=int, default=4096)
    _add_json(p)
    p.set_defaults(fn=cmd_verify_bounds)

    p = sub.add_parser("riccati", help="co-nullity flow along a geodesic")
    _add_structure_flags(p)
    p.add_argument("--point", required=True)
    p.add_argument("--velocity", required=True)
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--csv", help="write the trace to this CSV file")
    _add_json(p)
    p.set_defaults(fn=cmd_riccati)

    p = sub.add_parser("geodesic", help="integrate a geodesic")
    _add_structure_flags(p)
    p.add_argument("--point", required=True)
    p.add_argument("--velocity", required=True)
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--home", choices=("tan", "nor", "free"), default="tan")
    p.add_argument("--csv", help="write the trace to this CSV file")
    _add_json(p)
    p.set_defaults(fn=cmd_geodesic)

    p = sub.add_parser("turbulence", help="leaf turbulence estimate")
    _add_structure_flags(p)
    p.add_argument("--points", type=int, default=25)
    p.add_argument("--dirs", type=int, default=64)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_json(p)
    p.set_defaults(fn=cmd_turbulence)

    pb = sub.add_parser("bounds", help="arithmetic and scalar bounds")
    bsub = pb.add_subparsers(dest="target", required=True)

    p = bsub.add_parser("rho", help="composition-algebra dimension bound")
    p.add_argument("--n", type=int, required=True)
    _add_json(p)
    p.set_defaults(fn=cmd_bounds_rho)

    p = bsub.add_parser("nu", help="largest admissible co-rank")
    p.add_argument("--n", type=int, required=True)
    _add_json(p)
    p.set_defaults(fn=cmd_bounds_nu)

    p = bsub.add_parser("diameter", help="leaf-space diameter bound")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x-nor", type=float, default=0.0)
    p.add_argument("--h", type=float, default=0.0)
    _add_json(p)
    p.set_defaults(fn=cmd_bounds_diameter)

    p = bsub.add_parser("f-delta", help="pinching function and inequalities")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--tau", type=float, default=0.5)
    _add_json(p)
    p.set_defaults(fn=cmd_bounds_f_delta)

    p = bsub.add_parser("thm418", help="two-sided curvature hypothesis")
    p.add_argument("--k1", type=float, required=True)
    p.add_argument("--k2", type=float, required=True)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--variant", choices=("local", "decomposition"),
                   default="local")
    _add_json(p)
    p.set_defaults(fn=cmd_bounds_thm418)

    pg = sub.add_parser("gallery", help="built-in example catalog")
    gsub = pg.add_subparsers(dest="target", required=True)

    p = gsub.add_parser("list", help="list built-in examples")
    _add_json(p)
    p.set_defaults(fn=cmd_gallery_list)

    p = gsub.add_parser("export", help="write a manifest for an example")
    p.add_argument("name")
    p.add_argument("--out", help="output path (default NAME.json)")
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    p.set_defaults(fn=cmd_gallery_export)

    p = sub.add_parser("suite", help="run the full verification suite")
    p.add_argument("--json", action="store_true")
    p.add_argument("--only", help="substring filter on item keys")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(fn=cmd_suite)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except FoliateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
