"""Charted manifolds: metric jets, Christoffel symbols, curvature."""

import math

import numpy as np
import pytest

from foliate import (ChartedManifold, InputError, NumericalError,
                     PointGeometry, VectorFieldSpec, christoffel, divergence,
                     lie_derivative_metric, random_points, ricci, riemann,
                     sectional, wrap_point)

TWO_PI = 2.0 * math.pi


def flat3():
    return ChartedManifold(3, [["1", "0", "0"], ["0", "1", "0"],
                               ["0", "0", "1"]], label="flat")


def sphere2():
    # unit round 2-sphere, polar cap chart
    return ChartedManifold(
        2, [["1", "0"], ["0", "sin(x0)^2"]],
        box=((0.3, math.pi - 0.3), None), periodic=(None, TWO_PI))


def conformal3():
    phi = "0.2*sin(x0)*cos(x1) + 0.1*sin(x2)"
    g = [[f"exp(2*({phi}))" if i == j else "0" for j in range(3)]
         for i in range(3)]
    return ChartedManifold(3, g, periodic=(TWO_PI,) * 3)


def test_flat_chart_is_flat(rng):
    M = flat3()
    p = rng.uniform(0, 1, size=3)
    assert not christoffel(M, p).any()
    assert not riemann(M, p).any()


def test_sphere_sectional_curvature_is_one(rng):
    M = sphere2()
    for p in random_points(M, rng, 10):
        K = sectional(M, p, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert K == pytest.approx(1.0, abs=1e-12)


def test_sphere_ricci_equals_metric(rng):
    M = sphere2()
    for p in random_points(M, rng, 5):
        geo = PointGeometry(M, p)
        np.testing.assert_allclose(ricci(M, p), geo.g, atol=1e-12)


def test_christoffel_against_fd_of_metric(rng):
    M = conformal3()
    h = 1e-4
    for p in random_points(M, rng, 5):
        geo = PointGeometry(M, p)
        dg_fd = np.empty_like(geo.dg)
        for k in range(3):
            pp, pm = p.copy(), p.copy()
            pp[k] += h
            pm[k] -= h
            dg_fd[:, :, k] = (M.metric_values(pp) - M.metric_values(pm)) / (2 * h)
        np.testing.assert_allclose(geo.dg, dg_fd, atol=1e-7)
        # direct formula: Gamma^k_ij = 1/2 g^kl (d_i g_jl + d_j g_il - d_l g_ij)
        d = 3
        gam_ref = np.zeros((d, d, d))
        for k in range(d):
            for i in range(d):
                for j in range(d):
                    s = 0.0
                    for l in range(d):
                        s += geo.ginv[k, l] * (dg_fd[j, l, i] + dg_fd[i, l, j]
                                               - dg_fd[i, j, l])
                    gam_ref[k, i, j] = 0.5 * s
        np.testing.assert_allclose(geo.gamma, gam_ref, atol=1e-7)


def test_metric_compatibility(rng):
    # nabla g = 0: d_k g_ij = Gamma^l_ki g_lj + Gamma^l_kj g_il
    M = conformal3()
    for p in random_points(M, rng, 5):
        geo = PointGeometry(M, p)
        rebuilt = (np.einsum("lki,lj->ijk", geo.gamma, geo.g)
                   + np.einsum("lkj,il->ijk", geo.gamma, geo.g))
        np.testing.assert_allclose(geo.dg, rebuilt, atol=1e-12)


def test_riemann_symmetries(rng):
    M = conformal3()
    p = random_points(M, rng, 1)[0]
    R = riemann(M, p)  # R_{abcd} fully covariant
    np.testing.assert_allclose(R, -R.transpose(1, 0, 2, 3), atol=1e-11)
    np.testing.assert_allclose(R, -R.transpose(0, 1, 3, 2), atol=1e-11)
    np.testing.assert_allclose(R, R.transpose(2, 3, 0, 1), atol=1e-11)
    bianchi = R + R.transpose(0, 2, 3, 1) + R.transpose(0, 3, 1, 2)
    np.testing.assert_allclose(bianchi, 0.0, atol=1e-11)


def test_point_geometry_batched_matches_single(rng):
    M = conformal3()
    P = random_points(M, rng, 6)
    geo = PointGeometry(M, P)
    for k, p in enumerate(P):
        single = PointGeometry(M, p)
        np.testing.assert_array_equal(geo.g[k], single.g)
        np.testing.assert_array_equal(geo.gamma[k], single.gamma)
        np.testing.assert_allclose(geo.sqrt_det[k], single.sqrt_det, rtol=0)


def test_lie_derivative_and_divergence(rng):
    M = flat3()
    X = VectorFieldSpec.from_strings(("sin(x1)", "x0^2", "x2"), 3)
    p = rng.uniform(0.1, 1.0, size=3)
    lie = lie_derivative_metric(M, p, X)
    # flat metric: (L_X g)_ij = d_i X^j + d_j X^i
    expect = np.array([
        [0.0, math.cos(p[1]) + 2 * p[0], 0.0],
        [math.cos(p[1]) + 2 * p[0], 0.0, 0.0],
        [0.0, 0.0, 2.0]])
    np.testing.assert_allclose(lie, expect, atol=1e-13)
    assert divergence(M, p, X) == pytest.approx(1.0, abs=1e-13)
    assert divergence(M, p, X) == pytest.approx(0.5 * np.trace(
        np.linalg.solve(PointGeometry(M, p).g, lie)), abs=1e-12)


def test_second_derivatives_are_evaluated_on_first_use(rng):
    # construction evaluates (g, dg) only; dgamma/riemann pull in d2g
    M = conformal3()
    P = random_points(M, rng, 5)
    geo = PointGeometry(M, P)
    assert "d2g" not in vars(geo)
    g, dg, d2g = M.metric_jet(P)
    np.testing.assert_array_equal(geo.g, g)
    np.testing.assert_array_equal(geo.dg, dg)
    geo.riemann
    np.testing.assert_array_equal(vars(geo)["d2g"], d2g)
    g1, dg1 = M.metric_jet(P, 1)
    np.testing.assert_array_equal(g1, g)
    np.testing.assert_array_equal(dg1, dg)
    np.testing.assert_array_equal(M.metric_values(P), g)


def test_empty_batch_evaluates_to_empty_arrays():
    M = conformal3()
    X = VectorFieldSpec.from_strings(["sin(x1)", "x0*x2", "1"])
    P = np.empty((0, 3))
    g, dg, d2g = M.metric_jet(P)
    assert (g.shape, dg.shape, d2g.shape) == ((0, 3, 3), (0, 3, 3, 3),
                                              (0, 3, 3, 3, 3))
    assert M.metric_values(P).shape == (0, 3, 3)
    Xv, dX = X.jets(P)
    assert (Xv.shape, dX.shape, X.values(P).shape) == ((0, 3), (0, 3, 3), (0, 3))


def test_metric_symmetry_check():
    with pytest.raises(InputError, match="not symmetric"):
        ChartedManifold(2, [["1", "0.1*x0"], ["0.1*x1", "1"]])
    # equal entries written differently pass the numerical comparison
    M = ChartedManifold(2, [["1", "0.1*x0*x1"], ["x1*x0*0.1", "1"]])
    assert M.metric_values(np.array([0.3, 0.4]))[0, 1] == pytest.approx(0.012)


def test_wrap_point_and_sampling(rng):
    M = sphere2()
    pts = random_points(M, rng, 50)
    lo, hi = M.box[0]
    width = hi - lo
    assert np.all(pts[:, 0] > lo + 0.04 * width)
    assert np.all(pts[:, 0] < hi - 0.04 * width)
    assert np.all((pts[:, 1] >= 0) & (pts[:, 1] < TWO_PI))
    w = wrap_point(M, np.array([1.0, 13.0]))
    assert w[1] == pytest.approx(13.0 - 2 * TWO_PI)


def test_validation_errors():
    with pytest.raises(InputError):
        ChartedManifold(1, [["1"]])
    with pytest.raises(InputError):
        ChartedManifold(2, [["1", "x0"], ["0", "1"]])  # asymmetric
    with pytest.raises(InputError):
        ChartedManifold(2, [["1", "0"], ["0", "1"]],
                        periodic=(1.0, None), box=((0, 1), None))
    M = ChartedManifold(2, [["x0", "0"], ["0", "1"]], box=((-2, 2), None))
    with pytest.raises(NumericalError):
        PointGeometry(M, np.array([-1.0, 0.0]))  # not positive definite
