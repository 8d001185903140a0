"""End-to-end verification suite.

Eleven independent items, each a self-contained check with its own tolerance
and (where stated) runtime budget.  The CLI ``suite`` subcommand and the
acceptance tests both run these functions, so a passing suite here is the
same evidence either way.  All randomness flows from a caller-supplied seed
(default 1234) that is echoed in the item details.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .almost_product import (AdaptedPoint, WeightedAlmostProduct, co_nullity,
                             co_nullity_weighted, mixed_invariants,
                             second_fundamental)
from .bounds import (DiameterBoundInput, diameter_bound, f_delta,
                     pinching_inequality, radon_hurwitz, rho_bound_check)
from .errors import InputError
from .expr import eval_jet, parse
from .gallery import (conformal_torus, conformal_torus_weighted,
                      default_suite_items, doubly_twisted_torus,
                      doubly_twisted_torus_weighted, hopf_s3, hopf_s3_weighted)
from .geodesics import (integrate_geodesic, jacobi_ode, lemma47_envelope,
                        random_admissible_R, riccati_flow, riccati_ode,
                        vt_machinery)
from .identities import (integral_formula_1, integral_formula_2_leafwise,
                         pointwise_suite)
from .manifold import VectorFieldSpec
from .weighted import cd_check, jacobi_operator_bracket, partial_ricci_q

DEFAULT_SEED = 1234

__all__ = ["SuiteItem", "SUITE_KEYS", "run_item", "run_suite",
           "format_suite", "DEFAULT_SEED"]


@dataclass
class SuiteItem:
    key: str
    description: str
    passed: bool
    seconds: float
    details: dict

    def __post_init__(self):
        # items compute their flags from NumPy scalars
        self.passed = bool(self.passed)

    def as_dict(self) -> dict:
        return {"key": self.key, "description": self.description,
                "passed": self.passed, "seconds": round(self.seconds, 3),
                "details": self.details}

    def __str__(self) -> str:
        tag = "pass" if self.passed else "FAIL"
        return f"[{tag}] {self.key}: {self.description} ({self.seconds:.1f}s)"


def _sym(rng, n: int, scale: float) -> np.ndarray:
    A = rng.normal(size=(n, n))
    return scale * 0.5 * (A + A.T)


# -- item 1: pointwise identity residuals -------------------------------------

def item_pointwise(seed: int) -> tuple[bool, dict]:
    """Divergence identities <= 1e-6 on 200 points x 5 items, within 60 s."""
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    per_item = {}
    ok = True
    for item in default_suite_items():
        pts = item.sample_points(200, rng)
        reports = pointwise_suite(item.W, pts, tol=1e-6)
        per_item[item.name] = {r.identity: r.max_residual for r in reports}
        ok = ok and all(r.passed for r in reports)
    elapsed = time.perf_counter() - t0
    return ok and elapsed <= 60.0, {
        "seed": seed, "elapsed_s": round(elapsed, 2), "budget_s": 60.0,
        "max_residuals": per_item}


# -- item 2: integral formulas -------------------------------------------------

def _decreases(v_coarse: float, v_fine: float, floor: float = 1e-9) -> bool:
    return abs(v_fine) <= abs(v_coarse) or (abs(v_coarse) <= floor
                                            and abs(v_fine) <= floor)


def item_integral(seed: int) -> tuple[bool, dict]:
    """Both integral formulas vanish (<= 1e-6 at 64 nodes/circle, X != 0)."""
    conf = conformal_torus_weighted()
    conf_tan = conformal_torus_weighted(phi="0.3*sin(x0)",
                                        potential="0.25*cos(x0)")
    twisted = doubly_twisted_torus_weighted()
    out: dict = {"seed": seed}
    ok = True
    for label, item in (("conformal", conf), ("twisted", twisted)):
        v32 = integral_formula_1(item.W, 32)
        v64 = integral_formula_1(item.W, 64)
        out[f"if1_{label}"] = {"at32": v32, "at64": v64}
        ok = ok and abs(v64) <= 1e-6 and _decreases(v32, v64)
    rng = np.random.default_rng(seed)
    for label, item in (("conformal_tan", conf_tan), ("twisted", twisted)):
        for j in range(2):
            base = np.zeros(3)
            base[1:] = rng.uniform(0.0, 2.0 * math.pi, size=2)
            w32 = integral_formula_2_leafwise(item.W, base, nodes_per_circle=32)
            w64 = integral_formula_2_leafwise(item.W, base, nodes_per_circle=64)
            out[f"if2_{label}_{j}"] = {"at32": w32, "at64": w64,
                                       "base": [float(b) for b in base]}
            ok = ok and abs(w64) <= 1e-6 and _decreases(w32, w64)
    return ok, out


# -- item 3: weighted reduction and synthetic-dimension shift ------------------

def item_weighted_reduction(seed: int) -> tuple[bool, dict]:
    """X == 0 reduces weighted quantities (<= 1e-12); synthetic shift identity."""
    rng = np.random.default_rng(seed)
    worst_zero = 0.0
    for item in (conformal_torus(3, 1), hopf_s3()):
        W = item.W
        Wz = W.with_weight(VectorFieldSpec.zero(W.dim))
        pts = item.sample_points(40, rng)
        inv_w = mixed_invariants(Wz, pts)
        inv_0 = mixed_invariants(W, pts)
        worst_zero = max(worst_zero,
                         float(np.max(np.abs(inv_w["s_w"] - inv_0["s_mix"]))))
        for p in pts[:8]:
            ap = AdaptedPoint(Wz, p)
            E_tan, _ = ap.frames
            x = E_tan @ _unit(rng, W.nu)
            dB = co_nullity_weighted(Wz, p, x, ap) - co_nullity(W, p, x)
            worst_zero = max(worst_zero, float(np.max(np.abs(dB))))
        bw = jacobi_operator_bracket(Wz, pts[:5], weighted=True)
        bu = jacobi_operator_bracket(Wz, pts[:5], weighted=False)
        worst_zero = max(worst_zero, abs(bw[0] - bu[0]), abs(bw[1] - bu[1]))
        p0 = pts[0]
        ap0 = AdaptedPoint(Wz, p0)
        x0 = ap0.frames[0][:, 0]
        trace = integrate_geodesic(Wz, p0, x0, 0.8, n_steps=400)
        r_w = riccati_flow(Wz, trace, weighted=True)
        r_u = riccati_flow(Wz, trace, weighted=False)
        worst_zero = max(worst_zero,
                         float(np.max(np.abs(r_w.mats - r_u.mats))))

    items = [conformal_torus_weighted(), doubly_twisted_torus_weighted(),
             hopf_s3_weighted()]
    worst_shift = 0.0
    count = 0
    while count < 1000:
        item = items[count % len(items)]
        W = item.W
        p = item.sample_points(1, rng)[0]
        ap = AdaptedPoint(W, p)
        E_tan, E_nor = ap.frames
        X, _ = ap.weight
        for side in ("tan", "nor"):
            E_arg, E_y = (E_tan, E_nor) if side == "tan" else (E_nor, E_tan)
            r_home = E_arg.shape[1]
            q = int(rng.integers(1, r_home + 1))
            Q, _ = np.linalg.qr(rng.normal(size=(r_home, r_home)))
            basis = E_arg @ Q[:, :q]
            y = E_y @ _unit(rng, E_y.shape[1])
            NN = float(rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0]))
            v1 = partial_ricci_q(W, p, y, basis, side, synth=NN, ap=ap)
            v2 = partial_ricci_q(W, p, y, basis, side, synth=float(r_home),
                                 ap=ap)
            gxy = float(np.einsum("i,ij,j->", X, ap.g, y))
            shift = q * (r_home - NN) / (r_home ** 2 * NN) * gxy ** 2
            worst_shift = max(worst_shift, abs(v1 - v2 - shift))
            count += 1
            if count >= 1000:
                break
    ok = worst_zero <= 1e-12 and worst_shift <= 1e-12
    return ok, {"seed": seed, "max_zero_weight_gap": worst_zero,
                "max_shift_residual": worst_shift, "n_configs": count}


def _unit(rng, r: int) -> np.ndarray:
    v = rng.normal(size=r)
    return v / np.linalg.norm(v)


# -- item 4: diameter bound on the round-sphere example -----------------------

def _hopf_chart_to_r4(P) -> np.ndarray:
    P = np.asarray(P, dtype=float)
    x0, x1, x2 = P[..., 0], P[..., 1], P[..., 2]
    return np.stack([np.cos(x0) * np.cos(x1), np.cos(x0) * np.sin(x1),
                     np.sin(x0) * np.cos(x2), np.sin(x0) * np.sin(x2)],
                    axis=-1)


def item_hopf_diameter(seed: int) -> tuple[bool, dict]:
    """Diameter bound exactly pi/2; measured fiber-space diameter pi/2 +- 1e-3."""
    res = diameter_bound(DiameterBoundInput(c=1.0, q=1, nu=1, n=2))
    exact = (res["case"] == 1 and res["value"] == math.pi / 2.0)

    # sampled inter-fiber distances via the unit-sphere embedding of the chart
    p0 = np.array([math.pi / 4.0, 0.0, 0.0])
    z0 = _hopf_chart_to_r4(p0)
    eta = np.linspace(0.05, math.pi / 2.0 - 0.05, 65)[:, None, None]
    psi = (np.arange(64) * (2.0 * math.pi / 64.0))[None, :, None]
    t = (np.arange(512) * (2.0 * math.pi / 512.0))[None, None, :]
    fibers = np.stack([np.broadcast_arrays(eta, psi + t, t +
                                           np.zeros_like(psi))[i]
                       for i in range(3)], axis=-1)
    dots = _hopf_chart_to_r4(fibers) @ z0
    dist = np.arccos(np.clip(np.max(dots, axis=-1), -1.0, 1.0))
    measured = float(np.max(dist))

    # the same distance measured by the geodesic integrator: a unit normal
    # geodesic from p0 must enter the farthest fiber at arc length pi/2
    W = hopf_s3().W
    v = np.array([0.0, -1.0, 1.0])
    trace = integrate_geodesic(W, p0, v, 1.7, n_steps=1700, home="nor")
    gap = trace.points[:, 1] - trace.points[:, 2] - math.pi
    gap = (gap + math.pi) % (2.0 * math.pi) - math.pi
    miss2 = (trace.points[:, 0] - math.pi / 4.0) ** 2 + gap ** 2
    i = int(np.argmin(miss2))
    ts = trace.times[i - 1:i + 2]
    ms = miss2[i - 1:i + 2]
    coef = np.polyfit(ts, ms, 2)
    t_hit = float(-coef[1] / (2.0 * coef[0]))

    ok = (exact and abs(measured - math.pi / 2.0) <= 1e-3
          and abs(t_hit - math.pi / 2.0) <= 1e-3)
    return ok, {"seed": seed, "bound_value": res["value"],
                "bound_exact_half_pi": exact, "sampled_max_distance": measured,
                "geodesic_first_passage": t_hit,
                "min_miss": float(math.sqrt(max(np.min(miss2), 0.0)))}


# -- item 5: Riccati blow-up time and convergence order ------------------------

def item_riccati_blowup(seed: int) -> tuple[bool, dict]:
    """t* = pi/(2 sqrt(k)) +- 1e-4 for k in {0.5, 1, 2}; halving ratio 16 +- 3."""
    out: dict = {"seed": seed}
    ok = True
    for k in (0.5, 1.0, 2.0):
        t_true = math.pi / (2.0 * math.sqrt(k))
        rt = riccati_ode(lambda t, _k=k: _k * np.eye(2), np.zeros((2, 2)),
                         t_true + 0.4)
        err = (abs(rt.blow_up - t_true) if rt.blow_up is not None
               else math.inf)
        out[f"k={k}"] = {"t_star": rt.blow_up, "error": err}
        ok = ok and err <= 1e-4

    exact = -math.tan(1.2)
    e1 = abs(riccati_ode(lambda t: np.array([[1.0]]), 0.0, 1.2,
                         dt=0.01).final()[0, 0] - exact)
    e2 = abs(riccati_ode(lambda t: np.array([[1.0]]), 0.0, 1.2,
                         dt=0.005).final()[0, 0] - exact)
    ratio = e1 / e2
    out["halving"] = {"err_dt_0.01": e1, "err_dt_0.005": e2, "ratio": ratio}
    return ok and 13.0 <= ratio <= 19.0, out


# -- item 6: Riccati/Jacobi consistency ----------------------------------------

def item_riccati_jacobi(seed: int) -> tuple[bool, dict]:
    """|B - Ydot Y^-1| <= 1e-6 where sigma_min(Y) > 1e-4, 20 profiles."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    min_sigma = math.inf
    T, dt = 1.0, 1.0 / 2000.0
    for _ in range(20):
        S0 = 0.7 * np.eye(3) + _sym(rng, 3, 0.15)
        S1 = _sym(rng, 3, 0.12)
        a = float(rng.uniform(0.5, 2.0))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))

        def R_fn(t, _S0=S0, _S1=S1, _a=a, _ph=phase):
            return _S0 + math.sin(_a * t + _ph) * _S1

        B0 = _sym(rng, 3, 0.1)
        jt = jacobi_ode(R_fn, np.eye(3), B0, T, dt)
        rt = riccati_ode(R_fn, B0, T, dt)
        n_common = min(len(rt.times), len(jt.times))
        if np.max(np.abs(rt.times[:n_common] - jt.times[:n_common])) > 1e-9:
            raise InputError("integrator node schedules diverged")
        mask, mats = jt.co_nullity_track(floor=1e-4)
        sig = np.linalg.svd(jt.Y, compute_uv=False)[:, -1]
        min_sigma = min(min_sigma, float(np.min(sig)))
        sel = np.nonzero(mask[:n_common])[0]
        diff = rt.mats[sel] - mats[sel]
        worst = max(worst, float(np.max(np.linalg.norm(diff, axis=(1, 2)))))
    return worst <= 1e-6, {"seed": seed, "max_gap": worst,
                           "min_sigma_min": min_sigma, "profiles": 20}


# -- item 7: perturbation envelope ----------------------------------------------

def item_envelope(seed: int) -> tuple[bool, dict]:
    """Envelope bound holds at every node, 100 admissible perturbations."""
    rng = np.random.default_rng(seed)
    violations = 0
    worst = -math.inf
    for _ in range(100):
        k = float(rng.uniform(0.6, 2.5))
        eps1 = k * float(rng.uniform(0.05, 0.45))
        R_fn = random_admissible_R(3, k, eps1, math.pi / math.sqrt(k), rng)
        y0 = rng.normal(size=3)
        yd0 = 0.5 * rng.normal(size=3)
        rep = lemma47_envelope(k, eps1, R_fn, y0, yd0, n_steps=2000)
        worst = max(worst, rep.max_violation)
        if not rep.holds:
            violations += 1
    return violations == 0, {"seed": seed, "violations": violations,
                             "runs": 100, "worst_gap": worst}


# -- item 8: area-invariant machinery -------------------------------------------

def item_vt(seed: int) -> tuple[bool, dict]:
    """|V'| bound on 50 bracketed profiles; V drift <= 1e-7 when constant."""
    rng = np.random.default_rng(seed)
    ok = True
    worst_fd = worst_an = -math.inf
    for _ in range(50):
        k1 = float(rng.uniform(0.3, 1.5))
        k2 = k1 + float(rng.uniform(0.1, 1.0))
        C0, C1 = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        s = (np.linalg.norm(C0, 2) + np.linalg.norm(C1, 2)) ** 2
        om = float(rng.uniform(0.5, 2.0))
        ph = float(rng.uniform(0.0, 2.0 * math.pi))

        def R_fn(t, _C0=C0, _C1=C1, _s=s, _k1=k1, _k2=k2, _om=om, _ph=ph):
            C = _C0 + math.sin(_om * t + _ph) * _C1
            return _k1 * np.eye(3) + (_k2 - _k1) / _s * (C.T @ C)

        y0 = rng.normal(size=(3, 1))
        yd0 = 0.4 * rng.normal(size=(3, 1))
        jt = jacobi_ode(R_fn, y0, yd0, 1.5, dt=1.5 / 3000.0)
        rep = vt_machinery(jt, k1, k2, 0.0, R_fn=R_fn)
        ok = ok and rep.holds_central and (rep.holds_analytic is not False)
        worst_fd = max(worst_fd, rep.max_violation_central)
        if rep.max_violation_analytic is not None:
            worst_an = max(worst_an, rep.max_violation_analytic)

    drift = 0.0
    for _ in range(10):
        k = float(rng.uniform(0.4, 2.0))
        jt = jacobi_ode(lambda t, _k=k: _k * np.eye(3),
                        rng.normal(size=(3, 1)), 0.4 * rng.normal(size=(3, 1)),
                        1.5, dt=1.5 / 3000.0)
        rep = vt_machinery(jt, k, k, 0.0)
        drift = max(drift, rep.v_drift)
        ok = ok and rep.holds_central
    return ok and drift <= 1e-7, {
        "seed": seed, "bracketed_runs": 50, "worst_fd_gap": worst_fd,
        "worst_analytic_gap": worst_an, "constant_drift": drift}


# -- item 9: arithmetic bounds ---------------------------------------------------

def item_bounds(seed: int) -> tuple[bool, dict]:
    """Radon-Hurwitz bound to 4096, f(0.7) chain, pinching grid; <= 5 s."""
    t0 = time.perf_counter()
    rho_ok = rho_bound_check(4096)
    margin = min(2.0 * math.log2(n) + 2.0 - radon_hurwitz(n)
                 for n in range(2, 4097))
    f07 = f_delta(0.7)
    chain_ok = f07 > 0.63 > 0.15 * (math.pi + 1.0)
    deltas = np.arange(0.7, 1.0 + 1e-12, 1e-3)
    grid_ok = all(pinching_inequality(float(d), 0.5)["holds"] for d in deltas)
    elapsed = time.perf_counter() - t0
    ok = rho_ok and margin >= 0.0 and chain_ok and grid_ok and elapsed <= 5.0
    return ok, {"seed": seed, "rho_check": rho_ok, "min_margin": margin,
                "f_0.7": f07, "threshold": 0.15 * (math.pi + 1.0),
                "grid_points": len(deltas), "grid_ok": grid_ok,
                "elapsed_s": round(elapsed, 2)}


# -- item 10: twisted-product closed forms ---------------------------------------

def item_twisted_forms(seed: int) -> tuple[bool, dict]:
    """Numerical h, H match the twisted-product closed forms to 1e-8."""
    rng = np.random.default_rng(seed)
    item = doubly_twisted_torus(1, 2)
    W = item.W
    d, nu, n = W.dim, W.nu, W.n
    log_u = parse(f"log({item.known_facts['twist_u']})", d)
    log_v = parse(f"log({item.known_facts['twist_v']})", d)
    pts = item.sample_points(100, rng)
    worst = 0.0
    for p in pts:
        ap = AdaptedPoint(W, p)
        pack = second_fundamental(W, p, ap)
        grad_u = ap.q_tan @ eval_jet(log_u, p).grad
        grad_v = ap.q_nor @ eval_jet(log_v, p).grad

        def gnorm(vec):
            return math.sqrt(max(float(vec @ ap.g @ vec), 0.0))

        worst = max(worst, gnorm(pack.H_nor + n * grad_u),
                    gnorm(pack.H_tan + nu * grad_v))
        for i in range(n):
            for j in range(n):
                exact = -grad_u if i == j else np.zeros(d)
                worst = max(worst, gnorm(pack.h_nor[i, j] - exact))
        for a in range(nu):
            for b in range(nu):
                exact = -grad_v if a == b else np.zeros(d)
                worst = max(worst, gnorm(pack.h_tan[a, b] - exact))
    return worst <= 1e-8, {"seed": seed, "points": len(pts),
                           "max_gap": worst}


# -- item 11: curvature-dimension check and exact inner minimum ------------------

def item_cd(seed: int) -> tuple[bool, dict]:
    """CD margins straddle the sharp constant; eigen minimum beats sampling."""
    rng = np.random.default_rng(seed)
    item = hopf_s3()
    pts = item.sample_points(10, rng)
    below = cd_check(item.W, pts, 1.0 - 1e-3, 1, side="tan")
    above = cd_check(item.W, pts, 1.0 + 1e-3, 1, side="tan")

    worst_margin = math.inf
    for _ in range(25):
        r = int(rng.integers(3, 6))
        q = int(rng.integers(1, r))
        M = _sym(rng, r, 1.0)
        lam = np.linalg.eigvalsh(M)
        ky_fan = float(np.sum(lam[:q]))
        V = np.linalg.qr(rng.normal(size=(10_000, r, q)))[0]
        brute = float(np.min(np.einsum("sia,ij,sja->s", V, M, V,
                                       optimize=True)))
        worst_margin = min(worst_margin, brute - ky_fan)
    ok = below.holds and not above.holds and worst_margin >= -1e-7
    return ok, {"seed": seed, "margin_below": below.margin,
                "margin_above": above.margin,
                "min_kyfan_advantage": worst_margin,
                "brute_samples": 10_000}


# -- driver -----------------------------------------------------------------------

_ITEMS = [
    ("pointwise", "divergence identities on five gallery items",
     item_pointwise),
    ("integral", "closed-chart integral formulas vanish", item_integral),
    ("weighted-reduction", "zero-weight reduction and synthetic shift",
     item_weighted_reduction),
    ("hopf-diameter", "diameter bound exact and tight on the round sphere",
     item_hopf_diameter),
    ("riccati-blowup", "blow-up time and fourth-order convergence",
     item_riccati_blowup),
    ("riccati-jacobi", "co-nullity flow matches the Jacobi quotient",
     item_riccati_jacobi),
    ("envelope", "near-constant-curvature perturbation envelope",
     item_envelope),
    ("v-machinery", "area-invariant derivative bound and drift", item_vt),
    ("bounds", "arithmetic bounds and scalar inequality grid", item_bounds),
    ("twisted-forms", "twisted-product closed forms", item_twisted_forms),
    ("cd-check", "curvature-dimension margins and exact inner minimum",
     item_cd),
]

SUITE_KEYS = tuple(key for key, _, _ in _ITEMS)


def run_item(key: str, seed: int = DEFAULT_SEED) -> SuiteItem:
    for k, desc, fn in _ITEMS:
        if k == key:
            t0 = time.perf_counter()
            passed, details = fn(seed)
            return SuiteItem(k, desc, passed, time.perf_counter() - t0,
                             details)
    raise InputError(f"unknown suite item {key!r}; known: "
                     + ", ".join(SUITE_KEYS))


def run_suite(only: str | None = None, seed: int = DEFAULT_SEED) -> list:
    keys = [k for k in SUITE_KEYS if only is None or only in k]
    if not keys:
        raise InputError(f"no suite item matches {only!r}")
    return [run_item(k, seed) for k in keys]


def format_suite(items) -> str:
    lines = [str(it) for it in items]
    n_pass = sum(it.passed for it in items)
    total = sum(it.seconds for it in items)
    lines.append(f"{n_pass}/{len(items)} items passed in {total:.1f}s")
    return "\n".join(lines)
