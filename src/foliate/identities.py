"""Divergence identities and closed-chart integral formulas.

Every identity here relates a divergence of a mean-curvature (or weight)
field to an algebraic combination of the mixed scalar invariants.  The two
sides are computed along deliberately independent paths: divergences of
derived fields use fourth-order finite-difference stencils on fresh point
evaluations, while the algebraic side comes from exact metric and projector
jets.  Agreement to ~1e-10 on generic charts is therefore meaningful
evidence, not a tautology.

Conventions.  ``Div`` is the full (metric) divergence; ``Div_tan`` /
``Div_nor`` trace the covariant derivative against one distribution only,
``Div_side V = sum_a g(nabla_{E_a} V, E_a)`` over a g-orthonormal frame of
that side.  ``H_tan`` is the mean curvature vector of the tangent
distribution (it lies in the normal one) and vice versa.  Checked identities:

  * partial-divergence splitting, for any vector field ``xi``::

        Div_tan(xi_tan) = Div(xi_tan) + g(xi, H_nor)
        Div_nor(xi_nor) = Div(xi_nor) + g(xi, H_tan)

  * divergence of the total mean curvature::

        Div(H_tan + H_nor) = s_mix - |T_tan|^2 - |T_nor|^2
                             + |h_tan|^2 + |h_nor|^2 - |H_tan|^2 - |H_nor|^2

  * mixed partial divergences::

        Div_tan(H_nor) + Div_nor(H_tan) = s_mix + |h_nor|^2 + |h_tan|^2
                                          - |T_nor|^2 - |T_tan|^2

On a closed chart (every coordinate periodic) the divergence theorem turns
the second identity, rewritten through the weighted mixed scalar ``s_w``,
into an integral formula whose value must vanish; a leafwise variant
integrates over a single closed leaf of the tangent distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .almost_product import (AdaptedPoint, WeightedAlmostProduct,
                             mixed_invariants, second_fundamental)
from .errors import InputError
from .manifold import ChartedManifold, PointGeometry, VectorFieldSpec

FD_STEP = 1e-3
QUAD_CHUNK = 32768

__all__ = [
    "FD_STEP", "QUAD_CHUNK", "ResidualReport", "bench_field",
    "mean_curvature_fields", "check_div_dd", "check_pw_identity",
    "check_div_if2", "pointwise_suite", "closed_chart_grid",
    "quadrature_integral", "divergence_integral", "integral_formula_1",
    "integral_formula_2_leafwise", "leaf_coordinate_axes",
    "splitting_integrands",
]


@dataclass
class ResidualReport:
    """Aggregate of one identity's residuals over a point sample."""

    identity: str
    n_samples: int
    max_residual: float
    mean_residual: float
    worst_point: np.ndarray
    tolerance: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "identity": self.identity,
            "n_samples": self.n_samples,
            "max_residual": self.max_residual,
            "mean_residual": self.mean_residual,
            "worst_point": [float(x) for x in np.atleast_1d(self.worst_point)],
            "tolerance": self.tolerance,
            "passed": self.passed,
        }

    def __str__(self) -> str:
        tag = "pass" if self.passed else "FAIL"
        return (f"[{tag}] {self.identity}: max |r| = {self.max_residual:.3e} "
                f"(mean {self.mean_residual:.3e}, n = {self.n_samples}, "
                f"tol = {self.tolerance:.1e})")


# -- field evaluation and finite differences --------------------------------

def bench_field(dim: int, seed: int = 0) -> VectorFieldSpec:
    """A deterministic smooth vector field for exercising the identities.

    Components are small trigonometric waves in rotated coordinates, so the
    field is bounded with bounded derivatives on any chart.
    """
    rng = np.random.default_rng(seed)
    comps = []
    for k in range(dim):
        a, b = rng.uniform(0.2, 0.8, size=2)
        pa, pb = rng.uniform(0.0, 6.28, size=2)
        j = (k + 1) % dim
        comps.append(f"{a:.6f}*sin(x{k} + {pa:.6f}) + {b:.6f}*cos(x{j} + {pb:.6f})")
    return VectorFieldSpec.from_strings(comps)


def _stencil_jacobian(fn, P, step: float = FD_STEP):
    """Value and coordinate Jacobian of a batched field ``fn: (m, d) -> (m, k)``.

    Fourth-order central differences; each shifted batch is a fresh
    evaluation, so nothing from the centre points leaks into the derivative.
    Returns ``(V, dV)`` with ``dV[:, k, a] = d_a V^k``.
    """
    P = np.asarray(P, dtype=float)
    V = np.asarray(fn(P), dtype=float)
    dV = np.empty(V.shape + (P.shape[-1],))
    for a in range(P.shape[-1]):
        e = np.zeros(P.shape[-1])
        e[a] = step
        f1, f2 = np.asarray(fn(P - 2.0 * e)), np.asarray(fn(P - e))
        f3, f4 = np.asarray(fn(P + e)), np.asarray(fn(P + 2.0 * e))
        dV[..., a] = (f1 - 8.0 * f2 + 8.0 * f3 - f4) / (12.0 * step)
    return V, dV


def mean_curvature_fields(W: WeightedAlmostProduct, P,
                          ap: AdaptedPoint | None = None):
    """Batched mean curvature vectors ``(H_tan, H_nor)`` at points ``P``.

    Frame-free: traces the configuration tensors against the contravariant
    projectors, so the result is smooth in ``P`` and safe to differentiate.
    """
    ap = AdaptedPoint(W, P) if ap is None else ap
    H_tan = np.einsum("...kmn,...mn->...k", ap.c_tan, ap.q_tan)
    H_nor = np.einsum("...kmn,...mn->...k", ap.c_nor, ap.q_nor)
    return H_tan, H_nor


def _divergence(geo, V, dV, side: str | None = None):
    """Divergence from values and coordinate Jacobian of a field.

    ``geo`` supplies ``gamma`` (and ``g`` plus the contravariant projectors
    when ``side`` is given).  ``side=None`` is the full divergence; ``"tan"``
    and ``"nor"`` trace only over the corresponding distribution.
    """
    nabla = dV + np.einsum("...kmj,...j->...km", geo.gamma, V)
    if side is None:
        return np.einsum("...kk->...", nabla)
    if side not in ("tan", "nor"):
        raise InputError(f"side must be 'tan' or 'nor', got {side!r}")
    Q = geo.q_tan if side == "tan" else geo.q_nor
    return np.einsum("...km,...kl,...ml->...", nabla, geo.g, Q, optimize=True)


def _flatten_points(points):
    P = np.asarray(points, dtype=float)
    single = P.ndim == 1
    return (P[None] if single else P.reshape(-1, P.shape[-1])), single, P.shape[:-1]


# -- pointwise identity checks ----------------------------------------------

def check_div_dd(W: WeightedAlmostProduct, xi: VectorFieldSpec, points,
                 step: float = FD_STEP) -> dict:
    """Residuals of both partial-divergence splitting identities at ``points``.

    The left sides ``Div_tan(xi_tan)`` and ``Div_nor(xi_nor)`` differentiate
    the projected fields by finite differences; the right sides use the exact
    projector derivative and the field's own jets.  Returns
    ``{"tan": r_tan, "nor": r_nor}`` with signed residuals (LHS - RHS).
    """
    P, single, batch = _flatten_points(points)
    d = W.dim

    def fn(Q):
        apq = AdaptedPoint(W, Q)
        v = xi.values(Q)
        vt = np.einsum("...ik,...k->...i", apq.proj_tan, v)
        return np.concatenate([vt, v - vt], axis=-1)

    V, dV = _stencil_jacobian(fn, P, step)
    Vt, Vn = V[:, :d], V[:, d:]
    dVt, dVn = dV[:, :d, :], dV[:, d:, :]

    ap = AdaptedPoint(W, P)
    H_tan, H_nor = mean_curvature_fields(W, P, ap)
    Xi, dXi = xi.jets(P)
    PXi = np.einsum("...ik,...k->...i", ap.proj_tan, Xi)
    dPXi = (np.einsum("...kjm,...j->...km", ap.dproj_tan, Xi)
            + np.einsum("...kj,...jm->...km", ap.proj_tan, dXi))
    QXi, dQXi = Xi - PXi, dXi - dPXi

    lhs_t = _divergence(ap, Vt, dVt, side="tan")
    lhs_n = _divergence(ap, Vn, dVn, side="nor")
    rhs_t = (_divergence(ap, PXi, dPXi)
             + np.einsum("...i,...ij,...j->...", Xi, ap.g, H_nor))
    rhs_n = (_divergence(ap, QXi, dQXi)
             + np.einsum("...i,...ij,...j->...", Xi, ap.g, H_tan))

    def _out(r):
        return float(r[0]) if single else r.reshape(batch)

    return {"tan": _out(lhs_t - rhs_t), "nor": _out(lhs_n - rhs_n)}


def check_pw_identity(W: WeightedAlmostProduct, points, step: float = FD_STEP):
    """Residual of the total mean-curvature divergence identity at ``points``.

    ``Div(H_tan + H_nor)`` by finite differences of the frame-free mean
    curvature field, against the algebraic side assembled from exact jets.
    Both mean-curvature norms enter squared.
    """
    P, single, batch = _flatten_points(points)

    def fn(Q):
        H_tan, H_nor = mean_curvature_fields(W, Q)
        return H_tan + H_nor

    V, dV = _stencil_jacobian(fn, P, step)
    ap = AdaptedPoint(W, P)
    inv = mixed_invariants(W, P, ap=ap)
    lhs = _divergence(ap, V, dV)
    rhs = (inv["s_mix"] - inv["T_tan2"] - inv["T_nor2"]
           + inv["h_tan2"] + inv["h_nor2"] - inv["H_tan2"] - inv["H_nor2"])
    r = lhs - rhs
    return float(r[0]) if single else r.reshape(batch)


def check_div_if2(W: WeightedAlmostProduct, points, step: float = FD_STEP):
    """Residual of the mixed partial-divergence identity at ``points``."""
    P, single, batch = _flatten_points(points)

    def fn(Q):
        H_tan, H_nor = mean_curvature_fields(W, Q)
        return np.concatenate([H_nor, H_tan], axis=-1)

    d = W.dim
    V, dV = _stencil_jacobian(fn, P, step)
    ap = AdaptedPoint(W, P)
    inv = mixed_invariants(W, P, ap=ap)
    lhs = (_divergence(ap, V[:, :d], dV[:, :d, :], side="tan")
           + _divergence(ap, V[:, d:], dV[:, d:, :], side="nor"))
    rhs = (inv["s_mix"] + inv["h_nor2"] + inv["h_tan2"]
           - inv["T_nor2"] - inv["T_tan2"])
    r = lhs - rhs
    return float(r[0]) if single else r.reshape(batch)


def pointwise_suite(W: WeightedAlmostProduct, points, tol: float = 1e-6,
                    xi: VectorFieldSpec | None = None,
                    step: float = FD_STEP) -> list[ResidualReport]:
    """Run all pointwise identity checks over a point sample.

    Returns one :class:`ResidualReport` per identity; a report passes when
    its worst absolute residual is at most ``tol``.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    xi = bench_field(W.dim) if xi is None else xi
    dd = check_div_dd(W, xi, P, step)
    r_pw = check_pw_identity(W, P, step)
    r_if2 = check_div_if2(W, P, step)

    def rep(name, resid):
        a = np.abs(np.atleast_1d(np.asarray(resid, dtype=float)))
        i = int(np.argmax(a))
        return ResidualReport(
            identity=name, n_samples=int(a.size),
            max_residual=float(a[i]), mean_residual=float(a.mean()),
            worst_point=np.array(P[i]), tolerance=float(tol),
            passed=bool(a[i] <= tol))

    return [
        rep("partial-divergence-tan", dd["tan"]),
        rep("partial-divergence-nor", dd["nor"]),
        rep("mean-curvature-divergence", r_pw),
        rep("mixed-partial-divergence", r_if2),
    ]


# -- closed-chart quadrature -------------------------------------------------

def closed_chart_grid(M: ChartedManifold, nodes_per_circle: int = 48):
    """Uniform product grid on a closed chart and its coordinate cell volume.

    Periodic trapezoid quadrature (which the uniform grid realizes) is
    spectrally accurate for smooth periodic integrands, so modest node counts
    already resolve the integrands used here to near machine precision.
    """
    if any(T is None for T in M.periodic):
        raise InputError("quadrature needs a closed chart: every coordinate "
                         "must be periodic")
    m = int(nodes_per_circle)
    if m < 4:
        raise InputError(f"nodes_per_circle must be at least 4, got {m}")
    axes = [np.arange(m) * (T / m) for T in M.periodic]
    mesh = np.meshgrid(*axes, indexing="ij")
    P = np.stack([ax.reshape(-1) for ax in mesh], axis=-1)
    cell = float(np.prod([T / m for T in M.periodic]))
    return P, cell


def _chunks(P, size: int = QUAD_CHUNK):
    for i in range(0, len(P), size):
        yield P[i:i + size]


def quadrature_integral(W: WeightedAlmostProduct, f,
                        nodes_per_circle: int = 48) -> float:
    """Integral of ``f`` over the closed chart against the metric volume.

    ``f`` maps a batch of points ``(m, d)`` to scalar values ``(m,)``.  Work
    is chunked so large grids keep a bounded memory footprint; the chunking
    is fixed by the grid order, so results are deterministic.
    """
    P, cell = closed_chart_grid(W.manifold, nodes_per_circle)
    total = 0.0
    for chunk in _chunks(P):
        vals = np.asarray(f(chunk), dtype=float)
        geo = PointGeometry(W.manifold, chunk)
        total += float(np.sum(vals * geo.sqrt_det))
    return total * cell


def divergence_integral(W: WeightedAlmostProduct, xi: VectorFieldSpec,
                        nodes_per_circle: int = 48) -> float:
    """Integral of ``Div(xi)`` over the closed chart (zero in exact arithmetic)."""

    def f(P):
        ap = AdaptedPoint(W, P)
        V, dV = xi.jets(P)
        return _divergence(ap, V, dV)

    return quadrature_integral(W, f, nodes_per_circle)


def _if1_integrand(W: WeightedAlmostProduct, P):
    inv = mixed_invariants(W, P)
    return (inv["s_w"] - inv["T_tan2"] - inv["T_nor2"]
            + inv["h_tan2"] + inv["h_nor2"] - inv["H_tan2"] - inv["H_nor2"]
            - inv["X_tan2"] / (2.0 * W.n_synth)
            - inv["X_nor2"] / (2.0 * W.nu_synth))


def integral_formula_1(W: WeightedAlmostProduct,
                       nodes_per_circle: int = 48) -> float:
    """Total-space integral formula; the value must vanish on a closed chart.

    The integrand is the weighted mixed scalar minus the extrinsic norms and
    the weight-field norms with matching synthetic-dimension factors::

        s_w - |T_tan|^2 - |T_nor|^2 + |h_tan|^2 + |h_nor|^2
            - |H_tan|^2 - |H_nor|^2 - |X_tan|^2/(2 n_synth)
            - |X_nor|^2/(2 nu_synth)

    which equals ``Div(H_tan + H_nor + X/2)``, so the choice of synthetic
    dimensions cancels out of the integral.
    """
    return quadrature_integral(W, lambda P: _if1_integrand(W, P),
                               nodes_per_circle)


def leaf_coordinate_axes(W: WeightedAlmostProduct, p,
                         tol: float = 1e-10) -> tuple:
    """Coordinate directions spanned by the tangent distribution at ``p``.

    Only meaningful when the distribution is a coordinate subtorus; raises
    otherwise.
    """
    ap = AdaptedPoint(W, np.asarray(p, dtype=float))
    d = W.dim
    eye = np.eye(d)
    idx = tuple(i for i in range(d)
                if np.max(np.abs(ap.proj_tan[:, i] - eye[:, i])) <= tol)
    if len(idx) != W.nu:
        raise InputError("tangent distribution does not align with coordinate "
                         f"directions at {np.asarray(p)}; cannot identify a "
                         "coordinate leaf")
    return idx


def integral_formula_2_leafwise(W: WeightedAlmostProduct, base_point,
                                leaf_coords=None, nodes_per_circle: int = 48,
                                hypothesis_tol: float = 1e-8) -> float:
    """Leafwise integral formula over the closed leaf through ``base_point``.

    The leaf must be a coordinate subtorus of the chart (all leaf coordinates
    periodic, tangent distribution aligned with them).  Hypotheses checked on
    every grid point: the tangent distribution has vanishing mean curvature
    (``H_tan = 0``) and the weight field is tangent to the leaves.  The
    integrand, against the induced leaf volume, is::

        s_w - |T_nor|^2 + |h_tan|^2 + |h_nor|^2 + g(X, H_nor)/2
            - |X|^2/(2 n_synth)

    and the integral must vanish on every closed leaf.
    """
    p0 = np.asarray(base_point, dtype=float)
    leaf = (leaf_coordinate_axes(W, p0) if leaf_coords is None
            else tuple(int(i) for i in leaf_coords))
    if len(leaf) != W.nu:
        raise InputError(f"expected {W.nu} leaf coordinates, got {len(leaf)}")
    M = W.manifold
    for i in leaf:
        if not 0 <= i < M.dim:
            raise InputError(f"leaf coordinate index {i} out of range")
        if M.periodic[i] is None:
            raise InputError(f"leaf coordinate x{i} must be periodic so the "
                             "leaf is closed")

    m = int(nodes_per_circle)
    if m < 4:
        raise InputError(f"nodes_per_circle must be at least 4, got {m}")
    axes = [np.arange(m) * (M.periodic[i] / m) for i in leaf]
    mesh = np.meshgrid(*axes, indexing="ij")
    P = np.tile(p0, (m ** len(leaf), 1))
    for col, ax in zip(leaf, mesh):
        P[:, col] = ax.reshape(-1)
    cell = float(np.prod([M.periodic[i] / m for i in leaf]))

    eye_cols = np.eye(M.dim)[:, list(leaf)]
    total = 0.0
    for chunk in _chunks(P):
        ap = AdaptedPoint(W, chunk)
        align = float(np.max(np.abs(ap.proj_tan[..., :, list(leaf)] - eye_cols)))
        if align > hypothesis_tol:
            raise InputError("tangent distribution leaves the coordinate "
                             f"directions on the leaf (deviation {align:.3e})")
        inv = mixed_invariants(W, chunk, ap=ap)
        h_top = float(np.sqrt(np.max(inv["H_tan2"])))
        if h_top > hypothesis_tol:
            raise InputError("leafwise integral formula needs minimal leaves "
                             f"(H_tan = 0); found |H_tan| up to {h_top:.3e}")
        x_nor = float(np.sqrt(np.max(inv["X_nor2"])))
        if x_nor > hypothesis_tol:
            raise InputError("weight field must be tangent to the leaves; "
                             f"found |X_nor| up to {x_nor:.3e}")
        vals = (inv["s_w"] - inv["T_nor2"] + inv["h_tan2"] + inv["h_nor2"]
                + 0.5 * inv["g_X_Hnor"]
                - (inv["X_tan2"] + inv["X_nor2"]) / (2.0 * W.n_synth))
        g_leaf = ap.g[..., list(leaf), :][..., :, list(leaf)]
        vol = np.sqrt(np.linalg.det(g_leaf))
        total += float(np.sum(vals * vol))
    return total * cell


# -- splitting-theorem integrands --------------------------------------------

def _umbilic_deviation(h, H, g, rank: int) -> float:
    """Worst g-norm of ``h(E_a, E_b) - delta_ab H / rank`` over frame pairs."""
    dev = h - np.einsum("ab,k->abk", np.eye(h.shape[0]), H / float(rank))
    n2 = np.einsum("abk,kl,abl->ab", dev, g, dev)
    return float(np.sqrt(max(np.max(n2), 0.0)))


def splitting_integrands(W: WeightedAlmostProduct, p, variant: str = "harmonic",
                         step: float = FD_STEP,
                         hypothesis_tol: float = 1e-8) -> dict:
    """Term-by-term splitting-theorem integrand at a single point.

    ``variant="harmonic"`` assumes both distributions integrable, minimal
    leaves (``H_tan = 0``), a leaf-tangent weight field, and ``X`` orthogonal
    to ``H_nor``; it evaluates::

        Div_tan(H_nor + X/2) = s_w + |h_nor|^2 + |h_tan|^2 - |X|^2/(2 n_synth)

    ``variant="umbilic"`` assumes both distributions totally umbilical and
    evaluates, with ``xi = H_nor + H_tan + X/2``::

        Div(xi) = s_w - |T_tan|^2 - |T_nor|^2 - (n-1)/n |H_nor|^2
                  - (nu-1)/nu |H_tan|^2 - |X_tan|^2/(2 n_synth)
                  - |X_nor|^2/(2 nu_synth)

    Hypothesis violations raise :class:`InputError`.  Returns the divergence
    side, the named algebraic terms, their total, the residual, and the
    hypothesis diagnostics.  Note the weight-norm terms can make the
    right-hand side positive when a synthetic dimension is negative: the
    values are reported as-is, signs included.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise InputError("splitting_integrands expects a single point")
    P = p[None]
    ap = AdaptedPoint(W, P)
    inv = {k: v[0] if np.ndim(v) else v for k, v in
           mixed_invariants(W, P, ap=ap).items()}

    if W.weight_field is not None:
        x_fn = W.weight_field.values
    else:
        def x_fn(Q):
            return np.zeros_like(np.asarray(Q, dtype=float))

    if variant == "harmonic":
        hyp = {
            "H_tan_norm": float(np.sqrt(inv["H_tan2"])),
            "X_nor_norm": float(np.sqrt(inv["X_nor2"])),
            "g_X_H_nor": float(abs(inv["g_X_Hnor"])),
            "T_tan_norm": float(np.sqrt(inv["T_tan2"])),
            "T_nor_norm": float(np.sqrt(inv["T_nor2"])),
        }
        bad = {k: v for k, v in hyp.items() if v > hypothesis_tol}
        if bad:
            msg = ", ".join(f"{k} = {v:.3e}" for k, v in bad.items())
            raise InputError(f"harmonic splitting hypotheses violated: {msg}")

        def fn(Q):
            _, H_nor = mean_curvature_fields(W, Q)
            return H_nor + 0.5 * x_fn(Q)

        V, dV = _stencil_jacobian(fn, P, step)
        lhs = float(_divergence(ap, V, dV, side="tan")[0])
        terms = {
            "s_w": float(inv["s_w"]),
            "h_nor_sq": float(inv["h_nor2"]),
            "h_tan_sq": float(inv["h_tan2"]),
            "weight_sq": -float(inv["X_tan2"] + inv["X_nor2"]) / (2.0 * W.n_synth),
        }
    elif variant == "umbilic":
        ap0 = AdaptedPoint(W, p)
        pack = second_fundamental(W, p, ap0)
        hyp = {
            "umbilic_dev_tan": _umbilic_deviation(pack.h_tan, pack.H_tan,
                                                  ap0.g, W.nu),
            "umbilic_dev_nor": _umbilic_deviation(pack.h_nor, pack.H_nor,
                                                  ap0.g, W.n),
        }
        bad = {k: v for k, v in hyp.items() if v > hypothesis_tol}
        if bad:
            msg = ", ".join(f"{k} = {v:.3e}" for k, v in bad.items())
            raise InputError(f"umbilic splitting hypotheses violated: {msg}")

        def fn(Q):
            H_tan, H_nor = mean_curvature_fields(W, Q)
            return H_tan + H_nor + 0.5 * x_fn(Q)

        V, dV = _stencil_jacobian(fn, P, step)
        lhs = float(_divergence(ap, V, dV)[0])
        nu, n = float(W.nu), float(W.n)
        terms = {
            "s_w": float(inv["s_w"]),
            "T_tan_sq": -float(inv["T_tan2"]),
            "T_nor_sq": -float(inv["T_nor2"]),
            "H_nor_sq": -(n - 1.0) / n * float(inv["H_nor2"]),
            "H_tan_sq": -(nu - 1.0) / nu * float(inv["H_tan2"]),
            "X_tan_sq": -float(inv["X_tan2"]) / (2.0 * W.n_synth),
            "X_nor_sq": -float(inv["X_nor2"]) / (2.0 * W.nu_synth),
        }
    else:
        raise InputError(f"variant must be 'harmonic' or 'umbilic', got {variant!r}")

    rhs = float(sum(terms.values()))
    return {
        "variant": variant,
        "lhs_divergence": lhs,
        "terms": terms,
        "rhs_total": rhs,
        "residual": lhs - rhs,
        "hypotheses": hyp,
    }
