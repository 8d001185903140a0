"""Leaf geodesics, Riccati/Jacobi flows, index form, turbulence."""

import csv
import math

import numpy as np
import pytest

from foliate import (AdaptedPoint, InputError, NumericalError, builtin,
                     co_nullity, extremal_angle_bases, export_trace_csv,
                     index_form, integrate_geodesic, jacobi_flow, jacobi_ode,
                     lemma47_envelope, pair_sup_bruteforce, riccati_flow,
                     riccati_ode, scalar_blowup_time, tangent_weight_series,
                     turbulence, turbulence_at, vt_machinery)


def _sym(rng, n, scale):
    A = rng.normal(size=(n, n))
    return scale * (A + A.T) / 2.0


# ---------------------------------------------------------------------------
# geodesic integration
# ---------------------------------------------------------------------------

def test_flat_geodesics_are_straight(flat_item):
    W = flat_item.W
    p0 = np.array([0.3, 1.1, 2.0])
    v0 = np.array([1.0, 0.0, 0.0])
    tr = integrate_geodesic(W, p0, v0, 2.0, n_steps=200)
    np.testing.assert_allclose(tr.points, p0 + tr.times[:, None] * v0,
                               atol=1e-12)
    np.testing.assert_allclose(tr.velocities - v0, 0.0, atol=1e-12)
    assert tr.speed_drift < 1e-13
    assert tr.tangency_drift < 1e-13
    assert tr.frame_orth_drift < 1e-13
    assert tr.dt == pytest.approx(0.01)
    assert tr.tangent_frames.shape == (201, 3, 1)
    assert tr.normal_frames.shape == (201, 3, 2)


def test_hopf_fiber_closes_after_full_turn(hopf_item):
    # the fiber through any point is a unit-speed closed geodesic of
    # length 2 pi: coordinates advance by exactly (0, 2 pi, 2 pi)
    W = hopf_item.W
    p0 = np.array([np.pi / 4, 0.3, 0.7])
    v0 = np.array([0.0, 1.0, 1.0])
    tr = integrate_geodesic(W, p0, v0, 2.0 * np.pi, n_steps=2048)
    np.testing.assert_allclose(tr.points[-1],
                               p0 + np.array([0.0, 2 * np.pi, 2 * np.pi]),
                               atol=1e-10)
    assert tr.speed_drift < 1e-10
    assert tr.tangency_drift < 1e-10


def test_velocity_membership_is_enforced(hopf_item):
    W = hopf_item.W
    p0 = np.array([np.pi / 4, 0.0, 0.0])
    with pytest.raises(InputError):
        integrate_geodesic(W, p0, np.array([1.0, 0.0, 0.0]), 1.0)
    # the same velocity is normal, and anything goes for home="free"
    integrate_geodesic(W, p0, np.array([1.0, 0.0, 0.0]), 0.3, 64, home="nor")
    integrate_geodesic(W, p0, np.array([1.0, 1.0, 0.0]), 0.3, 64, home="free")
    with pytest.raises(InputError):
        integrate_geodesic(W, p0, np.array([0.0, 1.0, 1.0]), -1.0)
    with pytest.raises(InputError):
        integrate_geodesic(W, p0, np.zeros(3), 1.0)


def test_chart_exit_aborts_with_location(hopf_item):
    W = hopf_item.W
    p0 = np.array([np.pi / 4, 0.0, 0.0])
    with pytest.raises(NumericalError, match="aborted at t"):
        integrate_geodesic(W, p0, np.array([1.0, 0.0, 0.0]), 2.0, 256,
                           home="free")


def test_curved_trace_diagnostics(conformal_item, rng):
    W = conformal_item.W
    p0 = conformal_item.sample_points(1, rng)[0]
    v0 = np.array([1.0, 0.0, 0.0])
    tr = integrate_geodesic(W, p0, v0, 1.5, n_steps=600)
    assert tr.speed_drift < 1e-9
    assert tr.frame_orth_drift < 1e-8
    # conformal leaves are not totally geodesic, so the velocity leaves
    # D_tan measurably but slowly
    assert 0.0 < tr.tangency_drift < 1.0


# ---------------------------------------------------------------------------
# Riccati flows and blow-up
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lam0,k,shift", [
    (0.0, 1.0, 0.0),
    (0.5, 2.0, 0.0),
    (-0.3, 1.5, 0.4),
    (-3.0, -1.0, 0.0),   # hyperbolic branch
    (-2.0, 0.0, 0.0),    # parabolic branch, pole at 1/2
])
def test_scalar_blowup_time_matches_integration(lam0, k, shift):
    t_true = scalar_blowup_time(lam0, k, shift)
    assert t_true is not None
    tr = riccati_ode(lambda t: k, lam0, t_true + 0.3, dt=2.5e-4,
                     linear_coeff=2.0 * shift)
    assert tr.blow_up == pytest.approx(t_true, abs=1e-5)
    assert tr.refined


def test_scalar_blowup_time_none_branches():
    assert scalar_blowup_time(0.3, -1.0, 0.0) is None
    assert scalar_blowup_time(1.0, 0.0, 0.0) is None
    tr = riccati_ode(lambda t: -1.0, 0.3, 6.0, dt=2e-3)
    assert tr.blow_up is None
    # bounded solutions keep the fixed grid
    assert not tr.refined
    assert tr.final().shape == (1, 1)


def test_parabolic_pole_value():
    assert scalar_blowup_time(-2.0, 0.0) == pytest.approx(0.5, abs=1e-15)


def test_hopf_fiber_riccati_is_stationary(hopf_item):
    # along a fiber the co-nullity operator is a constant antisymmetric
    # matrix: a fixed point of the Riccati flow with |B|_F = sqrt(2)
    W = hopf_item.W
    p0 = np.array([np.pi / 4, 0.2, 0.5])
    tr = integrate_geodesic(W, p0, np.array([0.0, 1.0, 1.0]), 1.0,
                            n_steps=500)
    B0 = co_nullity(W, p0, tr.velocities[0])
    np.testing.assert_allclose(B0, -B0.T, atol=1e-12)
    rt = riccati_flow(W, tr)
    assert rt.blow_up is None
    np.testing.assert_allclose(rt.mats - B0, 0.0, atol=1e-9)
    assert np.linalg.norm(rt.final()) == pytest.approx(math.sqrt(2.0),
                                                       abs=1e-9)


def test_riccati_flow_checks_home(hopf_item):
    W = hopf_item.W
    p0 = np.array([np.pi / 4, 0.0, 0.0])
    tr = integrate_geodesic(W, p0, np.array([1.0, 0.0, 0.0]), 0.5, 100,
                            home="nor")
    with pytest.raises(InputError):
        riccati_flow(W, tr)  # default B0 needs a leaf-tangent trace


HOPF_P0 = np.array([np.pi / 4, 0.2, 0.5])
HOPF_FIBER = np.array([0.0, 1.0, 1.0])


def test_jacobi_flow_on_hopf_fiber(hopf_item):
    # in the parallel normal frame of a fiber R_nor = id, and the co-nullity
    # operator J of the unit fiber velocity squares to -id; so Y'' = -Y from
    # (Y, Ydot) = (id, J) is Y = cos t id + sin t J, and Ydot Y^-1 = J is
    # the stationary Riccati solution
    W = hopf_item.W
    tr = integrate_geodesic(W, HOPF_P0, HOPF_FIBER, 2.0, n_steps=400)
    J = co_nullity(W, HOPF_P0, tr.velocities[0])
    np.testing.assert_allclose(J @ J, -np.eye(2), atol=1e-12)
    jt = jacobi_flow(W, tr)
    t = tr.times[:, None, None]
    np.testing.assert_allclose(jt.times, tr.times, rtol=0, atol=0)
    np.testing.assert_allclose(jt.Y, np.cos(t) * np.eye(2) + np.sin(t) * J,
                               rtol=0, atol=1e-9)
    np.testing.assert_allclose(jt.Yd, -np.sin(t) * np.eye(2) + np.cos(t) * J,
                               rtol=0, atol=1e-9)
    rt = riccati_flow(W, tr)
    assert rt.blow_up is None and not rt.refined
    np.testing.assert_allclose(rt.mats, jt.Yd @ np.linalg.inv(jt.Y),
                               rtol=0, atol=1e-9)


@pytest.mark.parametrize("b0", [-0.5, 0.3])
def test_jacobi_flow_scalar_start_on_hopf_fiber(hopf_item, b0):
    W = hopf_item.W
    tr = integrate_geodesic(W, HOPF_P0, HOPF_FIBER, 2.0, n_steps=400)
    jt = jacobi_flow(W, tr, Y0=np.eye(2), Yd0=b0 * np.eye(2))
    t = tr.times[:, None, None]
    np.testing.assert_allclose(jt.Y, (np.cos(t) + b0 * np.sin(t)) * np.eye(2),
                               rtol=0, atol=1e-9)


@pytest.mark.parametrize("name", ["doubly_twisted_torus_weighted",
                                  "conformal_torus_weighted"])
def test_weighted_riccati_flow_is_the_shifted_flow(name):
    # B_w = B - s id with s = g(X/n, v) solves the weighted equation exactly,
    # so the two RK4 solutions agree to their O(h^4) error budgets
    W = builtin(name).W
    p0 = np.array([0.4, 1.1, 2.0])
    x0 = AdaptedPoint(W, p0).frames[0][:, 0]
    tr = integrate_geodesic(W, p0, x0, 0.8, n_steps=160)
    ru = riccati_flow(W, tr)
    rw = riccati_flow(W, tr, weighted=True)
    assert len(ru.times) == len(rw.times) == 161
    assert ru.blow_up is None and rw.blow_up is None
    s = tangent_weight_series(W, tr)
    assert np.max(np.abs(s)) > 1e-3
    gap = np.linalg.norm(rw.mats + s[:, None, None] * np.eye(W.n) - ru.mats,
                         axis=(1, 2))
    assert float(np.max(gap)) <= 1e-6


def test_weighted_riccati_flow_without_weight_is_unweighted(hopf_item):
    W = hopf_item.W
    tr = integrate_geodesic(W, HOPF_P0, HOPF_FIBER, 1.0, n_steps=200)
    ru = riccati_flow(W, tr)
    rw = riccati_flow(W, tr, weighted=True)
    assert np.array_equal(rw.times, ru.times)
    assert np.array_equal(rw.mats, ru.mats)


@pytest.mark.parametrize("k, b0", [(0.5303578441159724, 0.0), (0.565, 0.323)])
def test_riccati_ode_late_pole(k, b0):
    # scalar closed form of b' = -b^2 - k: t* = (pi/2 + atan(b0/sqrt k))/sqrt k
    rk = math.sqrt(k)
    t_star = (math.pi / 2.0 + math.atan(b0 / rk)) / rk
    rt = riccati_ode(lambda t: k * np.eye(2), b0 * np.eye(2), t_star + 0.4)
    assert rt.blow_up is not None
    assert abs(rt.blow_up - t_star) <= 1e-4


def test_riccati_flow_pole_on_hopf_fiber(hopf_item):
    # with R_nor = id the flow from b0 id stays b(t) id, b' = -b^2 - 1,
    # whose pole is at pi/2 + atan(b0)
    W = hopf_item.W
    tr = integrate_geodesic(W, HOPF_P0, HOPF_FIBER, 2.5, n_steps=500)
    for b0 in np.linspace(-0.5, 0.5, 11):
        rt = riccati_flow(W, tr, B0=b0 * np.eye(2))
        assert rt.blow_up is not None and rt.refined
        t_star = math.pi / 2.0 + math.atan(b0)
        assert abs(rt.blow_up - t_star) <= 1e-4, b0


def test_jacobi_vs_riccati_consistency(rng):
    S = _sym(rng, 2, 0.1)
    R_fn = lambda t: 0.7 * np.eye(2) + np.sin(2.0 * t) * S
    B0 = _sym(rng, 2, 0.05)
    rt = riccati_ode(R_fn, B0, 1.0, dt=1e-3)
    jt = jacobi_ode(R_fn, np.eye(2), B0, 1.0, dt=1e-3)
    np.testing.assert_allclose(rt.times, jt.times, atol=1e-12)
    assert float(np.min(jt.sigma_min)) > 0.5
    assert jt.wronskian_drift < 1e-10
    gap = max(np.linalg.norm(rt.mats[i] - jt.Yd[i] @ np.linalg.inv(jt.Y[i]))
              for i in range(len(jt.times)))
    assert gap < 1e-7


def test_conjugate_point_of_constant_curvature():
    # Y(t) = sin(sqrt(k) t)/sqrt(k) vanishes first at pi/sqrt(k)
    k = 2.0
    jt = jacobi_ode(lambda t: k * np.eye(2), np.zeros((2, 2)), np.eye(2),
                    2.5, dt=1e-3)
    mask, mats = jt.co_nullity_track(floor=2e-3)
    # Y(0) = 0 is masked out, as is a symmetric window around t_conj whose
    # width matches the floor (sigma_min ~ |t - t_conj| there)
    assert not mask[0]
    t_conj = np.pi / np.sqrt(k)
    near = jt.times[~mask]
    near = near[near > 1.0]
    assert near.size > 0
    assert abs(near.mean() - t_conj) < 2e-3
    assert np.isnan(mats[~mask]).all()
    assert np.isfinite(mats[mask]).all()


# ---------------------------------------------------------------------------
# index form
# ---------------------------------------------------------------------------

def test_index_form_flat_leaf(flat_item):
    # flat leaf, variation f(t) e with f = sin(pi t / T):
    # I = int f'^2 = pi^2 / (2 T)
    W = flat_item.W
    T = 2.0
    tr = integrate_geodesic(W, np.zeros(3), np.array([1.0, 0.0, 0.0]), T,
                            n_steps=1600)
    x = lambda t: math.sin(math.pi * t / T) * np.array([1.0, 0.0, 0.0])
    val = index_form(W, tr, x)
    assert val == pytest.approx(np.pi ** 2 / (2.0 * T), abs=1e-9)


def test_index_form_hopf_normal_geodesic(hopf_item):
    # along a unit normal geodesic the fiber field e has |grad_v e| = 1,
    # which exactly cancels K(v, e) = 1 in the index form; the sine
    # variation again gives pi^2 / (2 T)
    W = hopf_item.W
    T = 2.0
    p0 = np.array([np.pi / 4, 0.0, 0.0])
    v0 = np.array([0.0, -1.0, 1.0])
    tr = integrate_geodesic(W, p0, v0, T, n_steps=1600, home="nor")
    x = lambda t: math.sin(math.pi * t / T) * np.array([0.0, 1.0, 1.0])
    val = index_form(W, tr, x)
    assert val == pytest.approx(np.pi ** 2 / (2.0 * T), abs=1e-8)


def test_index_form_rejects_non_tangent_variations(hopf_item):
    W = hopf_item.W
    tr = integrate_geodesic(W, np.array([np.pi / 4, 0.0, 0.0]),
                            np.array([0.0, 1.0, 1.0]), 1.0, n_steps=100)
    bad = lambda t: np.array([1.0, 0.0, 0.0])
    with pytest.raises(InputError, match="tangent to D_tan"):
        index_form(W, tr, bad)
    with pytest.raises(InputError):
        index_form(W, tr, np.zeros((5, 3)))  # wrong node count


# ---------------------------------------------------------------------------
# envelope and parallelogram machinery
# ---------------------------------------------------------------------------

def test_envelope_hypotheses_are_enforced():
    R = lambda t: np.eye(2)
    with pytest.raises(InputError):
        lemma47_envelope(1.0, 0.5, R, np.ones(2), np.zeros(2))  # eps1 = k/2
    with pytest.raises(InputError):
        lemma47_envelope(-1.0, 0.1, R, np.ones(2), np.zeros(2))
    with pytest.raises(InputError):
        lemma47_envelope(1.0, 0.6, lambda t: 1.6 * np.eye(2),
                         np.ones(2), np.zeros(2))  # R strays beyond eps1


def test_envelope_constant_curvature_is_tight():
    rep = lemma47_envelope(1.3, 0.2, lambda t: 1.3 * np.eye(2),
                           np.array([1.0, 0.5]), np.array([0.0, 0.3]),
                           n_steps=1500)
    assert rep.holds
    # with R = k id the perturbation u vanishes identically, leaving only
    # integrator error against the closed-form reference
    assert float(np.max(rep.u_norm)) < 1e-9
    assert np.all(rep.bound >= 0.0)


def test_vt_constant_curvature_drift():
    k = 0.9
    om = math.sqrt(k)
    R_fn = lambda t: k * np.eye(2)
    jt = jacobi_ode(R_fn, np.array([[1.0], [0.0]]),
                    np.array([[0.0], [om]]), 1.5, dt=5e-4)
    rep = vt_machinery(jt, k, k, 0.0, R_fn=R_fn)
    assert rep.v_drift < 1e-7
    assert rep.holds_central
    assert rep.holds_analytic
    assert rep.V[0] == pytest.approx(om, abs=1e-12)
    # a field with a genuine norm minimum gets it located to grid accuracy
    jt2 = jacobi_ode(R_fn, np.array([[1.0], [0.0]]),
                     np.array([[0.0], [0.0]]), 2.5, dt=1e-3)
    rep2 = vt_machinery(jt2, k, k, 0.0)
    assert rep2.t_min_first == pytest.approx(np.pi / (2 * om), abs=2e-3)


def test_vt_requires_single_column(rng):
    jt = jacobi_ode(lambda t: np.eye(2), np.eye(2), np.zeros((2, 2)), 0.5,
                    dt=1e-3)
    with pytest.raises(InputError):
        vt_machinery(jt, 1.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# turbulence
# ---------------------------------------------------------------------------

def test_hopf_turbulence_is_one(hopf_item, rng):
    W = hopf_item.W
    pts = hopf_item.sample_points(4, rng)
    rep = turbulence(W, pts, n_dirs=8)
    assert rep.value == pytest.approx(1.0, abs=1e-10)
    assert rep.antisym_value == pytest.approx(1.0, abs=1e-10)
    assert not rep.warned
    assert rep.per_point.shape == (4,)


def test_turbulence_exact_vs_bruteforce(rng, conformal_item, hopf_item):
    # the spectral reduction must dominate Monte-Carlo pair sampling and
    # agree with it to sampling accuracy
    for item in (conformal_item, hopf_item):
        W = item.W
        p = item.sample_points(1, rng)[0]
        from foliate import AdaptedPoint
        ap = AdaptedPoint(W, p)
        x = ap.frames[0][:, 0]
        exact = turbulence_at(W, p, x, ap)
        brute = pair_sup_bruteforce(co_nullity(W, p, x, ap), n_pairs=20000,
                                    rng=rng)
        assert brute <= exact + 1e-9
        assert exact - brute < 5e-3


def test_turbulence_warns_off_hypothesis(conformal_item, rng):
    W = conformal_item.W
    pts = conformal_item.sample_points(2, rng)
    with pytest.warns(UserWarning, match="totally geodesic"):
        rep = turbulence(W, pts, n_dirs=4)
    assert rep.warned and rep.h_tan_max > 1e-8


# ---------------------------------------------------------------------------
# extremal-angle bases
# ---------------------------------------------------------------------------

def test_extremal_angle_pairing(rng):
    V1 = rng.normal(size=(4, 2))
    V2 = rng.normal(size=(4, 2))
    A, B, angles = extremal_angle_bases(V1, V2)
    np.testing.assert_allclose(A.T @ A, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(B.T @ B, np.eye(2), atol=1e-12)
    cross = A.T @ B
    np.testing.assert_allclose(cross - np.diag(np.diag(cross)), 0.0,
                               atol=1e-12)
    np.testing.assert_allclose(np.diag(cross), np.cos(angles), atol=1e-12)
    assert np.all(np.diff(angles) >= -1e-12)
    # the spans are preserved
    for col in A.T:
        resid = col - V1 @ np.linalg.lstsq(V1, col, rcond=None)[0]
        assert np.linalg.norm(resid) < 1e-10


def test_extremal_angle_metric_and_validation(rng):
    g = _sym(rng, 4, 0.1) + 2.0 * np.eye(4)
    V1 = rng.normal(size=(4, 2))
    V2 = rng.normal(size=(4, 2))
    A, B, angles = extremal_angle_bases(V1, V2, metric=g)
    np.testing.assert_allclose(A.T @ g @ A, np.eye(2), atol=1e-12)
    cross = A.T @ g @ B
    np.testing.assert_allclose(cross, np.diag(np.cos(angles)), atol=1e-12)
    with pytest.raises(InputError):
        extremal_angle_bases(rng.normal(size=(4, 2)), rng.normal(size=(4, 3)))


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def test_export_trace_csv(tmp_path, hopf_item):
    W = hopf_item.W
    p0 = np.array([np.pi / 4, 0.0, 0.0])
    tr = integrate_geodesic(W, p0, np.array([0.0, 1.0, 1.0]), 0.5,
                            n_steps=100)
    rt = riccati_flow(W, tr)
    out = tmp_path / "trace.csv"
    export_trace_csv(out, tr, riccati=rt)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "t"
    assert len(rows) == 102  # header + 101 nodes
    assert float(rows[1][0]) == 0.0
    assert float(rows[-1][0]) == pytest.approx(0.5)
