"""The benchmark's workloads: seeded rounds of public foliate calls, each
checked against an oracle that does not run the code path it checks (the
one exception, ``pointwise_suite``, is gated on its own residuals).

A *task* is one call into a public foliate function.  A *round* is a
generator of tasks; later tasks of a round receive earlier results (a
Riccati flow needs its geodesic trace), so the runner sends each result back
into the generator.  Every round of a workload has the same mix of calls and
sizes, and the seed only moves points, velocities and profiles, so latency
quantiles compare across seeds.  The closed forms below restate the gallery
items' default parameters in plain NumPy, independent of foliate's
expression engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad, solve_ivp

from foliate import almost_product, gallery, geodesics, identities, weighted

TWO_PI = 2.0 * math.pi

# Suite gates, reused unchanged: foliate.geodesics.SPEED_DRIFT_CAP and the
# suite's riccati-jacobi, riccati-blowup, v-machinery, pointwise and integral
# items.
SPEED_DRIFT = 1e-5
FLOW_GAP = 1e-6
SIGMA_FLOOR = 1e-4
POLE_TOL = 1e-4
V_DRIFT = 1e-7
IDENTITY_TOL = 1e-6
# Exact zeros and closed forms of O(1) quantities built from a few hundred
# products of O(1) entries: roundoff stays below 1e-13.
ZERO_TOL = 1e-12
CLOSED_FORM_TOL = 1e-10
# RK4 at h <= 5e-4 on profiles with O(1) derivatives has global error
# ~1e-13 (~1e-10 at the envelope's h = pi/(400 sqrt k) <= 0.01); the DOP853
# reference is run at rtol = atol = 1e-12.
ODE_REF_TOL = 1e-8
# Defaults of lemma47_envelope's slack and vt_machinery's analytic_slack.
ENVELOPE_SLACK = 1e-8
AREA_SLACK = 1e-9
# Composite trapezoid at h = T/400 on integrands g with |g''| of a few k|g|:
# relative error <= (h/T)^2 pi^2/12 * few ~ 2e-5 (quadrature reference at
# epsrel = 1e-12).
TRAPEZOID_TOL = 1e-4
# V = sqrt(|y|^2 |ydot|^2 - (y.ydot)^2) rounded two ways: the squares differ
# by <= 8 eps |y|^2 |ydot|^2, so V by <= sqrt(8 eps) |y||ydot| ~ 3e-8.
AREA_ROUNDOFF = 1e-7


@dataclass
class Task:
    """One public call, its work units, oracle and digest inputs."""

    label: str
    call: Callable[[], object]
    units: Callable[[object], int]
    check: Callable[[object], list]
    arrays: Callable[[object], list]


def _identity(fn):
    return fn


@dataclass
class Env:
    """Gallery items of a workload and the wrapper applied to every profile
    ``R(t)`` handed to foliate (the identity unless the run is traced)."""

    items: dict
    profile: Callable = _identity


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    gallery: tuple
    round: Callable
    notes: tuple = ()      # input ranges narrowed around known defects

    def build_items(self) -> dict:
        return {label: gallery.builtin(name, **params)
                for label, name, params in self.gallery}


def _steps(result) -> int:
    return len(result.times) - 1


def _none(_result) -> int:
    return 0


def _problems(*pairs) -> list:
    return [msg for ok, msg in pairs if not ok]


# -- closed-form geometry of the gallery defaults -------------------------------

def _diag(*entries):
    entries = np.broadcast_arrays(*entries)
    g = np.zeros(entries[0].shape + (3, 3))
    for i, e in enumerate(entries):
        g[..., i, i] = e
    return g


def _hopf_metric(P):
    x0 = P[..., 0]
    return _diag(np.ones_like(x0), np.cos(x0) ** 2, np.sin(x0) ** 2)


def _conformal_metric(P):
    e2phi = np.exp(0.4 * np.sin(P[..., 0]) * np.cos(P[..., 1]))
    return _diag(e2phi, e2phi, e2phi)


def _twisted_metric(P):
    u2 = np.exp(0.3 * np.sin(P[..., 0]) + 0.2 * np.cos(P[..., 1]))
    return _diag(np.exp(0.2 * np.cos(P[..., 0])), u2, u2)


def _hopf_weight(P):
    X = np.zeros(P.shape)
    X[..., 1:] = 0.5
    return X


def _conformal_weight(P):
    x0, x1 = P[..., 0], P[..., 1]
    e2phi = np.exp(0.4 * np.sin(x0) * np.cos(x1))
    grad = np.stack([-0.2 * np.sin(x0), 0.3 * np.cos(x1),
                     np.zeros_like(x0)], axis=-1)
    return grad / e2phi[..., None]


def _twisted_weight(P):
    X = np.zeros(P.shape)
    X[..., 0] = 0.2 + 0.1 * np.sin(P[..., 0])
    return X


# label -> (builtin name, params, metric, weight field or None, hopf chart?)
CHARTS = {
    "hopf_s3": ("hopf_s3", {}, _hopf_metric, None, True),
    "hopf_s3_weighted": ("hopf_s3_weighted", {}, _hopf_metric, _hopf_weight,
                         True),
    "twisted_w": ("doubly_twisted_torus_weighted", {}, _twisted_metric,
                  _twisted_weight, False),
    "conformal_w": ("conformal_torus_weighted", {}, _conformal_metric,
                    _conformal_weight, False),
    "conformal_tan": ("conformal_torus_weighted",
                      {"phi": "0.3*sin(x0)", "potential": "0.25*cos(x0)"},
                      None, None, False),
}


def _gallery(*labels) -> tuple:
    return tuple((label, CHARTS[label][0], CHARTS[label][1])
                 for label in labels)


def _points(label, count, rng):
    """Chart points: the Hopf polar angle stays 0.2 away from the chart's
    degenerate ends; torus coordinates cover the whole period."""
    P = rng.uniform(0.0, TWO_PI, size=(count, 3))
    if CHARTS[label][4]:
        P[:, 0] = rng.uniform(0.2, math.pi / 2.0 - 0.2, size=count)
    return P


def _co_nullity_from_jacobi(Y, Yd):
    """``B = Yd Y^-1`` and the mask of nodes where sigma_min(Y) > floor."""
    mask = np.linalg.svd(Y, compute_uv=False)[:, -1] > SIGMA_FLOOR
    B = np.full_like(Y, np.nan)
    B[mask] = np.swapaxes(np.linalg.solve(np.swapaxes(Y[mask], 1, 2),
                                          np.swapaxes(Yd[mask], 1, 2)), 1, 2)
    return mask, B


def _riccati_jacobi_gap(rt, Y, Yd, times):
    if len(rt.times) != len(times) or np.max(np.abs(rt.times - times)) > 1e-9:
        return ["Riccati and Jacobi node schedules differ"]
    mask, B = _co_nullity_from_jacobi(Y, Yd)
    gap = float(np.max(np.linalg.norm(rt.mats[mask] - B[mask], axis=(1, 2))))
    return _problems((gap <= FLOW_GAP,
                      f"Riccati vs Jacobi gap {gap:.3e} > {FLOW_GAP}"))


# -- leaf-flows -------------------------------------------------------------------

LEAF_ITEMS = ("hopf_s3", "hopf_s3_weighted", "twisted_w", "conformal_w")
LEAF_STEPS = (24, 32, 40, 48)


def _leaf_start(label, rng):
    """A start point and a unit velocity in D_tan (the fiber field on Hopf,
    the first coordinate direction on the tori)."""
    p = _points(label, 1, rng)[0]
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    if CHARTS[label][4]:
        return p, sign * np.array([0.0, 1.0, 1.0])
    g00 = CHARTS[label][2](p)[0, 0]
    return p, np.array([sign / math.sqrt(g00), 0.0, 0.0])


def _check_geodesic(label, p, v):
    metric, is_hopf = CHARTS[label][2], CHARTS[label][4]

    def check(trace):
        g = metric(trace.points)
        speeds = np.einsum("ki,kij,kj->k", trace.velocities, g,
                           trace.velocities)
        drift = float(np.max(np.abs(speeds / speeds[0] - 1.0)))
        out = _problems((drift <= SPEED_DRIFT,
                         f"speed drift {drift:.3e} > {SPEED_DRIFT}"))
        if is_hopf:
            # Hopf fibers are unit-speed great circles: p + t (0, 1, 1).
            exact = p + trace.times[:, None] * v
            err = float(np.max(np.abs(trace.points - exact)))
            out += _problems((err <= CLOSED_FORM_TOL,
                              f"fiber departs from p + t v by {err:.3e}"))
        return out
    return check


def _check_weighted(label, trace, unweighted):
    weight = CHARTS[label][3]

    def check(rw):
        if weight is None:
            same = (np.array_equal(rw.times, unweighted.times)
                    and np.array_equal(rw.mats, unweighted.mats))
            return _problems((same, "weighted flow with X = 0 differs "
                              "bitwise from the unweighted flow"))
        # B_w = B - s id with s = g(X/n, v) solves the weighted equation
        # exactly, so both RK4 solutions carry the same O(h^4) error budget.
        n = rw.mats.shape[-1]
        g = CHARTS[label][2](trace.points)
        s = np.einsum("ki,kij,kj->k", weight(trace.points), g,
                      trace.velocities) / n
        if len(rw.times) != len(unweighted.times):
            return ["weighted and unweighted node schedules differ"]
        gap = float(np.max(np.linalg.norm(
            rw.mats + s[:, None, None] * np.eye(n) - unweighted.mats,
            axis=(1, 2))))
        return _problems((gap <= FLOW_GAP,
                          f"B_w + s id vs B gap {gap:.3e} > {FLOW_GAP}"))
    return check


def _riccati_arrays(rt):
    return [rt.times, rt.mats]


def _jacobi_arrays(jt):
    return [jt.times, jt.Y, jt.Yd]


def leaf_flows_round(env, rng, r):
    for i, label in enumerate(LEAF_ITEMS):
        W = env.items[label].W
        n_steps = LEAF_STEPS[(i + r) % len(LEAF_STEPS)]
        T = float(rng.uniform(0.4, 0.8))
        p, v = _leaf_start(label, rng)
        trace = yield Task(
            "integrate_geodesic",
            lambda: geodesics.integrate_geodesic(W, p, v, T, n_steps=n_steps),
            _steps, _check_geodesic(label, p, v),
            lambda t: [t.points, t.velocities, t.frames])
        ru = yield Task(
            "riccati_flow", lambda: geodesics.riccati_flow(W, trace), _steps,
            lambda rt: _problems((rt.blow_up is None, "unexpected pole"),
                                 (len(rt.times) == n_steps + 1,
                                  "Riccati left the geodesic grid")),
            _riccati_arrays)
        yield Task(
            "riccati_flow(weighted)",
            lambda: geodesics.riccati_flow(W, trace, weighted=True), _steps,
            _check_weighted(label, trace, ru), _riccati_arrays)
        yield Task(
            "jacobi_flow", lambda: geodesics.jacobi_flow(W, trace), _steps,
            lambda jt: _riccati_jacobi_gap(ru, jt.Y, jt.Yd, jt.times),
            _jacobi_arrays)


# -- profile-odes -----------------------------------------------------------------

ODE_T = 0.5
ODE_STEPS = 1000
ENVELOPE_STEPS = 400
ENVELOPE_NODES = 8
POLE_B0_RANGE = (-0.5, 0.0)
POLE_NOTE = (
    f"pole tasks draw b0 in {list(POLE_B0_RANGE)}, not [-0.5, 0.5]: "
    f"riccati_ode places late poles from b0 > 0 more than {POLE_TOL} off "
    "(strict xfail test_late_pole_with_positive_start), so the positive-b0 "
    "pole path is not exercised until ROADMAP item 4 replaces the pole marcher")


def _sym(rng, n, scale):
    A = rng.normal(size=(n, n))
    return scale * 0.5 * (A + A.T)


def _check_admissible(k, eps1, T):
    def check(R):
        ts = np.linspace(0.0, T, 3001)
        A = np.stack([R(t) for t in ts]) - k * np.eye(3)
        sup = float(np.max(np.abs(np.linalg.eigvalsh(A))))
        return _problems(
            (np.array_equal(A, np.swapaxes(A, 1, 2)), "R(t) is not symmetric"),
            (sup <= eps1, f"sup |R - k id| = {sup:.6e} > eps1 = {eps1:.6e}"))
    return check


def _check_against_dop853(R, y0, yd0):
    """Compare the final Jacobi state with an independent DOP853 solve."""
    def rhs(t, z):
        return np.concatenate([z[3:], -R(t) @ z[:3]])

    def check(jt):
        ref = solve_ivp(rhs, (0.0, ODE_T), np.concatenate([y0, yd0]),
                        method="DOP853", rtol=1e-12, atol=1e-12).y[:, -1]
        got = np.concatenate([jt.Y[-1, :, 0], jt.Yd[-1, :, 0]])
        err = float(np.max(np.abs(got - ref)))
        tol = ODE_REF_TOL * (1.0 + float(np.max(np.abs(ref))))
        return _problems((err <= tol, f"Jacobi end state off DOP853 by "
                          f"{err:.3e}"))
    return check


def _check_envelope(k, eps1, R, y0, yd0):
    """Recompute the Lemma 4.7 envelope at a few nodes without foliate: y
    from a DOP853 solve, ybar in closed form, the kernel integral
    int_0^t sqrt(k) |ybar(s)| sin(sqrt(k)(t - s)) ds by adaptive quadrature.
    The envelope must hold on these numbers, and the report's |y - ybar|
    and bound must match them."""
    rk = math.sqrt(k)

    def ybar(t):
        return y0 * np.cos(rk * t) + yd0 * np.sin(rk * t) / rk

    def rhs(t, z):
        return np.concatenate([z[3:], -R(t) @ z[:3]])

    def check(rep):
        idx = np.linspace(0, len(rep.times) - 1, ENVELOPE_NODES + 1)
        idx = idx.round().astype(int)[1:]
        ts = rep.times[idx]
        y = solve_ivp(rhs, (0.0, ts[-1]), np.concatenate([y0, yd0]),
                      method="DOP853", t_eval=ts, rtol=1e-12,
                      atol=1e-12).y[:3].T
        u = np.linalg.norm(y - np.stack([ybar(t) for t in ts]), axis=1)
        kernel = np.array([quad(
            lambda s, t=t: rk * np.linalg.norm(ybar(s)) * math.sin(rk * (t - s)),
            0.0, t, epsabs=1e-13, epsrel=1e-12, limit=200)[0] for t in ts])
        bound = eps1 / (k - (1.0 - np.cos(rk * ts)) * eps1) * kernel
        viol = float(np.max(u - bound))
        u_err = float(np.max(np.abs(rep.u_norm[idx] - u)))
        b_err = float(np.max(np.abs(rep.bound[idx] - bound)))
        b_tol = TRAPEZOID_TOL * (1.0 + float(np.max(bound)))
        return _problems(
            (viol <= ENVELOPE_SLACK, f"envelope violated by {viol:.3e}"),
            (u_err <= ODE_REF_TOL * (1.0 + float(np.max(np.abs(y)))),
             f"|y - ybar| off DOP853 by {u_err:.3e}"),
            (b_err <= b_tol, f"envelope bound off quadrature by {b_err:.3e}"),
            (rep.holds, f"report says the envelope is violated by "
             f"{rep.max_violation:.3e}"))
    return check


def _check_area(jt, k1, k2, R=None):
    """Recompute the area V = |y| |ydot_perp| from the Jacobi trace in plain
    NumPy.  With R, check |V'| <= (k2 - k1)/2 |y|^2 on the exact derivative
    (V^2)' = 2 [(R y . y)(y . ydot) - (R y . ydot)|y|^2] of y'' = -R y;
    without R (constant curvature) V is constant."""
    y, yd = jt.Y[:, :, 0], jt.Yd[:, :, 0]
    y2, yd2, dot = (y * y).sum(1), (yd * yd).sum(1), (y * yd).sum(1)
    V = np.sqrt(np.maximum(y2 * yd2 - dot ** 2, 0.0))
    v_tol = AREA_ROUNDOFF * float(np.max(np.sqrt(y2 * yd2)))

    def check(rep):
        v_err = float(np.max(np.abs(rep.V - V)))
        out = _problems((v_err <= v_tol, f"report's V off by {v_err:.3e}"))
        if R is None:
            drift = float(np.max(np.abs(V - V[0])))
            return out + _problems((drift <= V_DRIFT,
                                    f"V drift {drift:.3e} > {V_DRIFT}"))
        Ry = np.stack([R(t) @ yi for t, yi in zip(jt.times, y)])
        dV2 = 2.0 * ((Ry * y).sum(1) * dot - (Ry * yd).sum(1) * y2)
        ok = V > 1e-12 * (1.0 + float(np.max(V)))
        viol = float(np.max(np.abs(dV2[ok] / (2.0 * V[ok]))
                            - 0.5 * (k2 - k1) * y2[ok]))
        return out + _problems((viol <= AREA_SLACK,
                                f"|V'| bound violated by {viol:.3e}"))
    return check


def _check_constant_jacobi(k, y0, yd0):
    def check(jt):
        rk = math.sqrt(k)
        t = jt.times[:, None]
        exact = y0 * np.cos(rk * t) + yd0 * np.sin(rk * t) / rk
        err = float(np.max(np.abs(jt.Y[:, :, 0] - exact)))
        return _problems((err <= ODE_REF_TOL,
                          f"constant-curvature Jacobi off closed form by "
                          f"{err:.3e}"))
    return check


def _check_pole(t_star):
    def check(rt):
        if rt.blow_up is None:
            return ["no pole found"]
        err = abs(rt.blow_up - t_star)
        return _problems((err <= POLE_TOL, f"pole off by {err:.3e}"))
    return check


def profile_odes_round(env, rng, r):
    I2, I3 = np.eye(2), np.eye(3)
    # perturbation envelope on an admissible random profile
    k = float(rng.uniform(0.6, 2.5))
    eps1 = k * float(rng.uniform(0.05, 0.45))
    T = math.pi / math.sqrt(k)
    child = np.random.default_rng(rng.integers(2 ** 63))
    R_env = yield Task(
        "random_admissible_R",
        lambda: geodesics.random_admissible_R(3, k, eps1, T, child), _none,
        _check_admissible(k, eps1, T),
        lambda R: [R(t) for t in np.linspace(0.0, T, 7)])
    y0, yd0 = rng.normal(size=3), 0.5 * rng.normal(size=3)
    yield Task(
        "lemma47_envelope",
        lambda: geodesics.lemma47_envelope(k, eps1, env.profile(R_env), y0,
                                           yd0, n_steps=ENVELOPE_STEPS),
        _steps, _check_envelope(k, eps1, R_env, y0, yd0),
        lambda rep: [rep.u_norm, rep.bound])

    # bracketed profile k1 id <= R(t) <= k2 id, then the area machinery
    k1 = float(rng.uniform(0.3, 1.5))
    k2 = k1 + float(rng.uniform(0.1, 1.0))
    C0, C1 = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    scale = (np.linalg.norm(C0, 2) + np.linalg.norm(C1, 2)) ** 2
    om, ph = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.0, TWO_PI))

    def R_br(t):
        C = C0 + math.sin(om * t + ph) * C1
        return k1 * I3 + (k2 - k1) / scale * (C.T @ C)

    y0, yd0 = rng.normal(size=3), 0.4 * rng.normal(size=3)
    jt = yield Task(
        "jacobi_ode",
        lambda: geodesics.jacobi_ode(env.profile(R_br), y0[:, None],
                                     yd0[:, None], ODE_T, dt=ODE_T / ODE_STEPS),
        _steps, _check_against_dop853(R_br, y0, yd0), _jacobi_arrays)
    yield Task(
        "vt_machinery",
        lambda: geodesics.vt_machinery(jt, k1, k2, 0.0,
                                       R_fn=env.profile(R_br)),
        _none, _check_area(jt, k1, k2, R_br),
        lambda rep: [rep.V, rep.Vdot_analytic])

    # constant curvature: closed-form Jacobi field and a constant area
    kc = float(rng.uniform(0.4, 2.0))
    y0, yd0 = rng.normal(size=3), 0.4 * rng.normal(size=3)
    jt = yield Task(
        "jacobi_ode",
        lambda: geodesics.jacobi_ode(env.profile(lambda t: kc * I3),
                                     y0[:, None], yd0[:, None], ODE_T,
                                     dt=ODE_T / ODE_STEPS),
        _steps, _check_constant_jacobi(kc, y0, yd0), _jacobi_arrays)
    yield Task(
        "vt_machinery", lambda: geodesics.vt_machinery(jt, kc, kc, 0.0),
        _none, _check_area(jt, kc, kc), lambda rep: [rep.V])

    # Riccati against the Jacobi quotient on one profile
    S0, S1 = 0.7 * I3 + _sym(rng, 3, 0.15), _sym(rng, 3, 0.12)
    a, phase = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.0, TWO_PI))
    B0 = _sym(rng, 3, 0.1)

    def R_c(t):
        return S0 + math.sin(a * t + phase) * S1

    rt = yield Task(
        "riccati_ode",
        lambda: geodesics.riccati_ode(env.profile(R_c), B0, ODE_T,
                                      dt=ODE_T / ODE_STEPS),
        _steps, lambda rt: _problems((rt.blow_up is None, "unexpected pole")),
        _riccati_arrays)
    yield Task(
        "jacobi_ode",
        lambda: geodesics.jacobi_ode(env.profile(R_c), I3, B0, ODE_T,
                                     dt=ODE_T / ODE_STEPS),
        _steps, lambda jt: _riccati_jacobi_gap(rt, jt.Y, jt.Yd, jt.times),
        _jacobi_arrays)

    # poles of R = k id: pi/(2 sqrt k) from B0 = 0, the scalar closed form
    # (pi/2 + arctan(b0/sqrt k))/sqrt k from B0 = b0 id, b0 in POLE_B0_RANGE
    kp = float(rng.uniform(0.5, 2.0))
    rk = math.sqrt(kp)
    b0 = float(rng.uniform(*POLE_B0_RANGE))
    for B_start, t_star in ((np.zeros((2, 2)), math.pi / (2.0 * rk)),
                            (b0 * I2, (math.pi / 2.0 + math.atan(b0 / rk)) / rk)):
        yield Task(
            "riccati_ode(pole)",
            lambda: geodesics.riccati_ode(env.profile(lambda t: kp * I2),
                                          B_start, t_star + 0.4),
            _steps, _check_pole(t_star), _riccati_arrays)


# -- batch-geometry ---------------------------------------------------------------

MI_SIZES = tuple(round(1000 * 10 ** (j / 15)) for j in range(16))
PW_POINTS = 200
IF1_SCHEDULE = (("conformal_w", 24), ("twisted_w", 32), ("twisted_w", 24),
                ("conformal_w", 32))
IF2_NODES = 32
CD_POINTS = 3


def _check_hopf_invariants(inv):
    out = []
    for key, value in (("s_mix", 2.0), ("T_nor2", 2.0), ("h_tan2", 0.0),
                       ("h_nor2", 0.0)):
        err = float(np.max(np.abs(inv[key] - value)))
        out += _problems((err <= ZERO_TOL,
                          f"Hopf {key} off {value} by {err:.3e}"))
    return out


def _check_twisted_invariants(P):
    """Doubly twisted closed forms: both sides umbilical and integrable,
    H_nor = -n grad_tan(log u), H_tan = 0 (v depends on x0 only), X tangent."""
    x0 = P[:, 0]
    g00 = np.exp(0.2 * np.cos(x0))
    H_nor2 = 4.0 * (0.15 * np.cos(x0)) ** 2 / g00
    expect = {"H_nor2": H_nor2, "h_nor2": H_nor2 / 2.0,
              "X_tan2": g00 * (0.2 + 0.1 * np.sin(x0)) ** 2}
    zeros = ("H_tan2", "h_tan2", "T_tan2", "T_nor2", "X_nor2")

    def check(inv):
        out = []
        for key in zeros:
            err = float(np.max(np.abs(inv[key])))
            out += _problems((err <= ZERO_TOL, f"{key} = {err:.3e} != 0"))
        for key, value in expect.items():
            err = float(np.max(np.abs(inv[key] - value)))
            out += _problems((err <= CLOSED_FORM_TOL,
                              f"{key} off closed form by {err:.3e}"))
        return out
    return check


def _check_value(name, tol):
    def check(value):
        return _problems((abs(value) <= tol,
                          f"{name} = {value:.3e}, |.| > {tol}"))
    return check


def batch_geometry_round(env, rng, r):
    for j, size in enumerate(MI_SIZES):
        label = "hopf_s3" if j % 2 == 0 else "twisted_w"
        W, P = env.items[label].W, _points(label, size, rng)
        yield Task(
            "mixed_invariants",
            lambda: almost_product.mixed_invariants(W, P),
            lambda _inv: len(P),
            (_check_hopf_invariants if label == "hopf_s3"
             else _check_twisted_invariants(P)),
            lambda inv: [inv[key] for key in sorted(inv)])

    label = "conformal_w" if r % 2 == 0 else "twisted_w"
    W, P = env.items[label].W, _points(label, PW_POINTS, rng)
    yield Task(
        "pointwise_suite",
        lambda: identities.pointwise_suite(W, P, tol=IDENTITY_TOL),
        lambda _reps: len(P),
        lambda reps: [f"{rep.identity} residual {rep.max_residual:.3e}"
                      for rep in reps if not rep.max_residual <= IDENTITY_TOL],
        lambda reps: [[rep.max_residual, rep.mean_residual] for rep in reps])

    label, nodes = IF1_SCHEDULE[r % len(IF1_SCHEDULE)]
    W = env.items[label].W
    yield Task(
        "integral_formula_1",
        lambda: identities.integral_formula_1(W, nodes),
        lambda _v: nodes ** W.dim, _check_value("integral 1", IDENTITY_TOL),
        lambda v: [v])

    for label in ("conformal_tan", "twisted_w"):
        W = env.items[label].W
        base = np.zeros(3)
        base[1:] = rng.uniform(0.0, TWO_PI, size=2)
        yield Task(
            "integral_formula_2_leafwise",
            lambda: identities.integral_formula_2_leafwise(
                W, base, nodes_per_circle=IF2_NODES),
            lambda _v: IF2_NODES ** W.nu,
            _check_value("leafwise integral 2", IDENTITY_TOL),
            lambda v: [v])

    # every sectional curvature of the round S3 is 1, so CD(c) holds exactly
    # for c < 1 and fails for c > 1
    W, P = env.items["hopf_s3"].W, _points("hopf_s3", CD_POINTS, rng)
    for c, holds in ((0.999, True), (1.001, False)):
        yield Task(
            "cd_check", lambda: weighted.cd_check(W, P, c, 1),
            lambda _rep: len(P),
            lambda rep: _problems((rep.holds == holds,
                                   f"CD({c}) holds = {rep.holds}")),
            lambda rep: [rep.margin, rep.worst_value])


WORKLOADS = {w.name: w for w in (
    Workload("leaf-flows", "RK4 steps", _gallery(*LEAF_ITEMS),
             leaf_flows_round),
    Workload("profile-odes", "RK4 steps", (), profile_odes_round,
             notes=(POLE_NOTE,)),
    Workload("batch-geometry", "points+nodes",
             _gallery("hopf_s3", "twisted_w", "conformal_w", "conformal_tan"),
             batch_geometry_round),
)}
