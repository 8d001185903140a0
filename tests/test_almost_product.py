"""Adapted splittings: projectors, extrinsic tensors, co-nullity."""

import math
import tracemalloc

import numpy as np
import pytest

from foliate import (AdaptedPoint, ChartedManifold, DistributionSpec,
                     InputError, NumericalError, VectorFieldSpec,
                     WeightedAlmostProduct, builtin, co_nullity,
                     co_nullity_weighted, mixed_invariants, random_points,
                     second_fundamental)

TWO_PI = 2.0 * math.pi


def radial_rays():
    """Punctured plane in polar coordinates, foliated by the rays."""
    M = ChartedManifold(2, [["1", "0"], ["0", "x0^2"]],
                        box=((0.5, 2.0), None), periodic=(None, TWO_PI),
                        label="radial_rays")
    dist = DistributionSpec((VectorFieldSpec.from_strings(("1", "0"), 2),))
    return WeightedAlmostProduct(M, dist)


def skew_flat():
    """Flat 3-torus with a non-coordinate-aligned, point-dependent splitting."""
    M = ChartedManifold(3, [["1" if i == j else "0" for j in range(3)]
                            for i in range(3)], periodic=(TWO_PI,) * 3)
    span = VectorFieldSpec.from_strings(("1", "0.3*sin(x1)", "0.2*cos(x0)"), 3)
    return WeightedAlmostProduct(M, DistributionSpec((span,)))


def test_projector_algebra(rng):
    W = skew_flat()
    P = random_points(W.manifold, rng, 12)
    ap = AdaptedPoint(W, P)
    np.testing.assert_allclose(
        np.einsum("kij,kjl->kil", ap.proj_tan, ap.proj_tan), ap.proj_tan,
        atol=1e-13)
    np.testing.assert_allclose(ap.proj_tan + ap.proj_nor,
                               np.broadcast_to(np.eye(3), ap.proj_tan.shape),
                               atol=1e-14)
    # g-self-adjointness: g P = (g P)^T
    gp = np.einsum("kij,kjl->kil", ap.g, ap.proj_tan)
    np.testing.assert_allclose(gp, gp.transpose(0, 2, 1), atol=1e-13)


def test_projector_derivative_against_fd(rng):
    W = skew_flat()
    p = random_points(W.manifold, rng, 1)[0]
    ap = AdaptedPoint(W, p)
    h = 1e-5
    for m in range(3):
        pp, pm = p.copy(), p.copy()
        pp[m] += h
        pm[m] -= h
        fd = (AdaptedPoint(W, pp).proj_tan
              - AdaptedPoint(W, pm).proj_tan) / (2 * h)
        np.testing.assert_allclose(ap.dproj_tan[:, :, m], fd, atol=1e-9)


def test_frames_are_orthonormal_and_adapted(rng):
    W = skew_flat()
    p = random_points(W.manifold, rng, 1)[0]
    ap = AdaptedPoint(W, p)
    E_tan, E_nor = ap.frames
    E = np.concatenate([E_tan, E_nor], axis=1)
    np.testing.assert_allclose(E.T @ ap.g @ E, np.eye(3), atol=1e-13)
    np.testing.assert_allclose(ap.proj_tan @ E_tan, E_tan, atol=1e-13)
    np.testing.assert_allclose(ap.proj_tan @ E_nor, 0.0, atol=1e-13)


def test_second_fundamental_symmetries(rng, twisted_item):
    W = twisted_item.W
    p = twisted_item.sample_points(1, rng)[0]
    pack = second_fundamental(W, p)
    np.testing.assert_allclose(pack.h_tan, pack.h_tan.transpose(1, 0, 2),
                               atol=1e-13)
    np.testing.assert_allclose(pack.h_nor, pack.h_nor.transpose(1, 0, 2),
                               atol=1e-13)
    np.testing.assert_allclose(pack.T_tan, -pack.T_tan.transpose(1, 0, 2),
                               atol=1e-13)
    ap = AdaptedPoint(W, p)
    # values land in the opposite distribution
    for block in (pack.h_tan, pack.T_tan):
        v = block.reshape(-1, 3)
        np.testing.assert_allclose(
            np.einsum("ij,kj->ki", ap.proj_tan, v), 0.0, atol=1e-12)


def test_extrinsic_values_are_spanning_invariant(rng):
    # rescaling and recombining the spanning fields leaves h, T, B unchanged
    M = ChartedManifold(3, [["1" if i == j else "0" for j in range(3)]
                            for i in range(3)], periodic=(TWO_PI,) * 3)
    s1 = VectorFieldSpec.from_strings(("1", "0.3*sin(x1)", "0"), 3)
    s2 = VectorFieldSpec.from_strings(("0", "0", "1"), 3)
    s1_alt = VectorFieldSpec.from_strings(
        ("2 + sin(x0)", "(2 + sin(x0))*0.3*sin(x1)", "0"), 3)
    # second spanning set: scaled first field, plus a mix of both
    s2_alt = VectorFieldSpec.from_strings(
        ("0.5 + 0.2*cos(x1)", "(0.5 + 0.2*cos(x1))*0.3*sin(x1)",
         "1 + 0.4*sin(x2)"), 3)

    Wa = WeightedAlmostProduct(M, DistributionSpec((s1, s2)))
    Wb = WeightedAlmostProduct(M, DistributionSpec((s1_alt, s2_alt)))

    for p in random_points(M, rng, 6):
        inv_a = mixed_invariants(Wa, p)
        inv_b = mixed_invariants(Wb, p)
        for key in ("s_mix", "h_tan2", "h_nor2", "T_tan2", "T_nor2",
                    "H_tan2", "H_nor2"):
            assert inv_a[key] == pytest.approx(inv_b[key], abs=1e-11), key
        x = np.array([0.0, 0.0, 1.0])
        x = AdaptedPoint(Wa, p).proj_tan @ x
        x = x / math.sqrt(x @ AdaptedPoint(Wa, p).g @ x)
        Ba = co_nullity(Wa, p, x)
        Bb = co_nullity(Wb, p, x)
        # B is frame-dependent only up to orthogonal conjugation
        np.testing.assert_allclose(np.sort(np.linalg.eigvals(Ba).real),
                                   np.sort(np.linalg.eigvals(Bb).real),
                                   atol=1e-11)
        assert np.trace(Ba) == pytest.approx(np.trace(Bb), abs=1e-11)


def test_radial_rays_co_nullity(rng):
    W = radial_rays()
    for p in random_points(W.manifold, rng, 8):
        x = np.array([1.0, 0.0])  # unit radial direction
        B = co_nullity(W, p, x)
        assert B.shape == (1, 1)
        assert B[0, 0] == pytest.approx(1.0 / p[0], rel=1e-12)


def test_hopf_co_nullity_antisymmetric(rng, hopf_item):
    W = hopf_item.W
    for p in hopf_item.sample_points(6, rng):
        ap = AdaptedPoint(W, p)
        x = ap.frames[0][:, 0]
        B = co_nullity(W, p, x, ap)
        np.testing.assert_allclose(B + B.T, 0.0, atol=1e-12)
        s = np.linalg.svd(B, compute_uv=False)
        np.testing.assert_allclose(s, 1.0, atol=1e-12)


def test_weighted_co_nullity_shift(rng, hopf_item):
    W = hopf_item.W.with_weight(
        VectorFieldSpec.from_strings(("0", "0.5", "0.5"), 3))
    for p in hopf_item.sample_points(4, rng):
        ap = AdaptedPoint(W, p)
        x = ap.frames[0][:, 0]
        X, _ = ap.weight
        gXx = float(X @ ap.g @ x)
        expect = co_nullity(W, p, x, ap) - (gXx / W.n) * np.eye(W.n)
        np.testing.assert_allclose(co_nullity_weighted(W, p, x, ap), expect,
                                   atol=1e-13)
    with pytest.raises(InputError):
        co_nullity(W, hopf_item.sample_points(1, rng)[0],
                   np.array([1.0, 0.0, 0.0]))  # not in D_tan


def test_mixed_invariants_batched_and_validated(rng, conformal_item):
    W = conformal_item.W
    P = conformal_item.sample_points(9, rng)
    inv = mixed_invariants(W, P, validate=True)
    assert inv["s_mix"].shape == (9,)
    for k, p in enumerate(P):
        single = mixed_invariants(W, p)
        assert inv["s_mix"][k] == pytest.approx(float(single["s_mix"]),
                                                abs=1e-12)


SQUARED_NORMS = ("h_tan2", "T_tan2", "H_tan2", "h_nor2", "T_nor2", "H_nor2")


@pytest.mark.parametrize("item_name", ["hopf_s3", "doubly_twisted_torus"])
def test_mixed_norms_are_projected_sums_of_squares(rng, item_name):
    # The batched norms square components already projected into the
    # distribution, so an exact zero stays at O(eps^2) (~1e-30, far below
    # the 1e-22 bound) and no norm is negative; the frame route
    # (second_fundamental) projects first too, so both agree to roundoff.
    item = builtin(item_name)
    P = item.sample_points(300, rng)
    inv = mixed_invariants(item.W, P)
    if item_name == "hopf_s3":
        for key in ("h_tan2", "h_nor2", "T_tan2"):
            assert float(np.max(inv[key])) < 1e-22
    for key in SQUARED_NORMS + ("X_tan2", "X_nor2"):
        assert np.all(inv[key] >= 0.0), key
    frame = [second_fundamental(item.W, p).norms for p in P]
    for key in SQUARED_NORMS:
        np.testing.assert_allclose(inv[key], [f[key] for f in frame],
                                   rtol=0.0, atol=1e-12, err_msg=key)


def test_mixed_invariants_reject_indefinite_metric():
    M = ChartedManifold(2, [["1", "0"], ["0", "x0"]])
    W = WeightedAlmostProduct(
        M, DistributionSpec((VectorFieldSpec.from_strings(("1", "0"), 2),)))
    with pytest.raises(NumericalError):
        mixed_invariants(W, np.array([[-1.0, 0.0]]))


def test_umbilic_conformal_structure(rng, conformal_item):
    # conformal metric: both distributions totally umbilical, so
    # |h|^2 == |H|^2 / rank on each side
    W = conformal_item.W
    for p in conformal_item.sample_points(6, rng):
        inv = mixed_invariants(W, p)
        assert float(inv["h_tan2"]) == pytest.approx(
            float(inv["H_tan2"]) / W.nu, rel=1e-10, abs=1e-13)
        assert float(inv["h_nor2"]) == pytest.approx(
            float(inv["H_nor2"]) / W.n, rel=1e-10, abs=1e-13)
        assert float(inv["T_tan2"]) == pytest.approx(0.0, abs=1e-13)
        assert float(inv["T_nor2"]) == pytest.approx(0.0, abs=1e-13)


def test_structure_validation():
    M = ChartedManifold(2, [["1", "0"], ["0", "1"]], periodic=(TWO_PI,) * 2)
    span = VectorFieldSpec.from_strings(("1", "0"), 2)
    with pytest.raises(InputError):
        WeightedAlmostProduct(M, DistributionSpec((span,)), nu_synth=0.0)
    with pytest.raises(InputError):
        WeightedAlmostProduct(
            M, DistributionSpec((span, span)))  # rank-deficient spanning


def _most_live_temporaries(source: str) -> int:
    """Largest number of temporaries a generated program holds at once."""
    live, most = set(), 0
    for line in source.splitlines():
        line = line.strip()
        if line.startswith("t"):
            live.add(line.split("=")[0].strip())
            most = max(most, len(live))
        elif line.startswith("del "):
            live -= {name.strip() for name in line[4:].split(",")}
    return most


def test_weight_jets_peak_at_kept_arrays_plus_live_temporaries():
    # X and dX only: no second jets, and each temporary is freed after its
    # last use, so the traced peak is the two kept arrays plus the most
    # batch-sized temporaries the order-1 program holds at once (64 KiB
    # covers array headers and lists)
    item = builtin("conformal_torus_weighted")
    W = item.W
    P = item.sample_points(32768, np.random.default_rng(0))
    ap = AdaptedPoint(W, P)
    W.weight_field.jets(P[:2])  # compile outside the trace
    live = _most_live_temporaries(W.weight_field._program.source(1))
    tracemalloc.start()
    try:
        X, dX = ap.weight
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = X.nbytes + dX.nbytes
    assert kept == 12 * len(P) * 8
    assert peak <= kept + live * len(P) * 8 + 64 * 1024
