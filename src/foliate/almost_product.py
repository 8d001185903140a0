"""Almost-product structure on a chart: projectors, frames, extrinsic tensors.

A :class:`WeightedAlmostProduct` is ``(M, g, X, D_tan, D_nor)`` plus two real
"synthetic dimension" parameters: ``nu_synth`` paired with the tangent
distribution (rank ``nu``) and ``n_synth`` paired with the normal one
(rank ``n``).  ``D_tan`` is given by ``nu`` spanning vector fields; ``D_nor``
is its orthogonal complement.

Extrinsic tensors use projector-field extensions: with ``S`` the spanning
matrix, ``P = S (S^T g S)^{-1} S^T g`` is the g-orthogonal projector onto
``D_tan`` and its exact first derivatives come from metric/spanning jets.
For ``u, v`` in ``D_tan``,

* ``h_tan(u,v) = 1/2 (nabla_u(Pv) + nabla_v(Pu))  projected to D_nor``
* ``T_tan(u,v) = 1/2 (nabla_u(Pv) - nabla_v(Pu))  projected to D_nor``
* ``B_x y     = (nabla_y (Px))  projected to D_nor``   (co-nullity of x)

and dually for the normal side.  These are tensorial (extension independent),
which the test suite verifies against an independent constant-coefficient
spanning extension.  Mean curvatures are the g-traces, ``H_tan = tr_g h_tan``.

Frame-dependent outputs (orthonormal adapted frames, operator matrices) are
pointwise.  The scalar invariants used by the integral formulas are batched
via :func:`mixed_invariants`, which squares components already projected
into the distribution (through Cholesky factors of ``g`` and ``g^{-1}``, not
per-point frames): its squared norms are never negative, and an exact zero
stays at O(eps^2) instead of an O(eps) remainder of a signed cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, NumericalError
from .manifold import ChartedManifold, PointGeometry, VectorFieldSpec

__all__ = [
    "DistributionSpec", "WeightedAlmostProduct", "AdaptedPoint",
    "ExtrinsicPack", "adapted_frame", "second_fundamental", "co_nullity",
    "co_nullity_weighted", "weingarten", "integrability_sharp",
    "mixed_invariants",
]

FRAME_TOL = 1e-10


@dataclass(frozen=True)
class DistributionSpec:
    """The tangent distribution, as a tuple of spanning vector fields."""

    spanning: tuple[VectorFieldSpec, ...]

    @property
    def rank(self) -> int:
        return len(self.spanning)


@dataclass(frozen=True)
class WeightedAlmostProduct:
    """Chart + tangent distribution + weight field + synthetic dimensions."""

    manifold: ChartedManifold
    dist: DistributionSpec
    weight_field: VectorFieldSpec | None = None
    nu_synth: float | None = None
    n_synth: float | None = None
    label: str = ""

    def __post_init__(self):
        d = self.manifold.dim
        nu = self.dist.rank
        if not 1 <= nu < d:
            raise InputError(f"tangent rank must be in [1, {d - 1}], got {nu}")
        for f in self.dist.spanning:
            if f.dim != d:
                raise InputError("spanning field dimension mismatch")
        if self.weight_field is not None and self.weight_field.dim != d:
            raise InputError("weight field dimension mismatch")
        if self.nu_synth is None:
            object.__setattr__(self, "nu_synth", float(nu))
        if self.n_synth is None:
            object.__setattr__(self, "n_synth", float(d - nu))
        if self.nu_synth == 0.0 or self.n_synth == 0.0:
            raise InputError("synthetic dimensions must be nonzero")

    @property
    def dim(self) -> int:
        return self.manifold.dim

    @property
    def nu(self) -> int:
        return self.dist.rank

    @property
    def n(self) -> int:
        return self.manifold.dim - self.dist.rank

    def with_weight(self, X: VectorFieldSpec | None, nu_synth=None, n_synth=None):
        return WeightedAlmostProduct(
            self.manifold, self.dist, X,
            self.nu_synth if nu_synth is None else nu_synth,
            self.n_synth if n_synth is None else n_synth,
            self.label)


class AdaptedPoint(PointGeometry):
    """Point geometry extended with projector/extrinsic data (batched)."""

    def __init__(self, W: WeightedAlmostProduct, p, validate: bool = True):
        super().__init__(W.manifold, p, validate=validate)
        self.W = W

    @cached_property
    def span(self) -> tuple[np.ndarray, np.ndarray]:
        """Spanning matrix ``S[..., k, a]`` and ``dS[..., k, a, m] = d_m S^k_a``."""
        batch, d, nu = self.p.shape[:-1], self.W.dim, self.W.nu
        S = np.empty(batch + (d, nu))
        dS = np.empty(batch + (d, nu, d))
        for a, fld in enumerate(self.W.dist.spanning):
            X, dX = fld.jets(self.p)
            S[..., :, a] = X
            dS[..., :, a, :] = dX
        return S, dS

    @cached_property
    def span_gram(self) -> tuple[np.ndarray, np.ndarray]:
        S, _ = self.span
        G = np.einsum("...ia,...ij,...jb->...ab", S, self.g, S)
        lam = np.linalg.eigvalsh(G)
        if np.min(lam) <= FRAME_TOL**0.5 * np.max(np.abs(lam)) or np.min(lam) <= 0:
            raise NumericalError("spanning fields are (nearly) linearly dependent")
        return G, np.linalg.inv(G)

    @cached_property
    def proj_tan(self) -> np.ndarray:
        """g-orthogonal projector onto D_tan, ``P[..., i, k]`` acting on vectors."""
        S, _ = self.span
        _, Ginv = self.span_gram
        return np.einsum("...ia,...ab,...jb,...jk->...ik", S, Ginv, S, self.g,
                         optimize=True)

    @cached_property
    def proj_nor(self) -> np.ndarray:
        P = self.proj_tan
        return np.eye(self.W.dim) - P

    @cached_property
    def q_tan(self) -> np.ndarray:
        """Contravariant projector ``Q^{ik} = sum_a E_a^i E_a^k = S Ginv S^T``."""
        S, _ = self.span
        _, Ginv = self.span_gram
        return np.einsum("...ia,...ab,...kb->...ik", S, Ginv, S)

    @cached_property
    def q_nor(self) -> np.ndarray:
        return self.ginv - self.q_tan

    @cached_property
    def dproj_tan(self) -> np.ndarray:
        """Exact derivative ``dP[..., i, k, m] = d_m P^i_k`` by product rule."""
        S, dS = self.span
        G, Ginv = self.span_gram
        g, dg = self.g, self.dg
        dG = (np.einsum("...iam,...ij,...jb->...abm", dS, g, S)
              + np.einsum("...ia,...ijm,...jb->...abm", S, dg, S)
              + np.einsum("...ia,...ij,...jbm->...abm", S, g, dS))
        dGinv = -np.einsum("...ac,...cdm,...db->...abm", Ginv, dG, Ginv)
        t1 = np.einsum("...iam,...ab,...jb,...jk->...ikm", dS, Ginv, S, g, optimize=True)
        t2 = np.einsum("...ia,...abm,...jb,...jk->...ikm", S, dGinv, S, g, optimize=True)
        t3 = np.einsum("...ia,...ab,...jbm,...jk->...ikm", S, Ginv, dS, g, optimize=True)
        t4 = np.einsum("...ia,...ab,...jb,...jkm->...ikm", S, Ginv, S, dg, optimize=True)
        return t1 + t2 + t3 + t4

    @cached_property
    def c_tan(self) -> np.ndarray:
        """``C[..., k, m, n]``: normal part of ``nabla_{d_m} (P_tan . )`` on slot n.

        For u, v in D_tan, ``h_tan(u,v)^k = 1/2 (C[k,m,n] + C[k,n,m]) u^m v^n``
        (the n slot projects automatically; contract the m slot with D_tan
        vectors only, or with Q_tan when summing frames).
        """
        inner = (np.einsum("...jnm->...jmn", self.dproj_tan)
                 + np.einsum("...jml,...ln->...jmn", self.gamma, self.proj_tan))
        return np.einsum("...kj,...jmn->...kmn", self.proj_nor, inner)

    @cached_property
    def c_nor(self) -> np.ndarray:
        inner = (-np.einsum("...jnm->...jmn", self.dproj_tan)
                 + np.einsum("...jml,...ln->...jmn", self.gamma, self.proj_nor))
        return np.einsum("...kj,...jmn->...kmn", self.proj_tan, inner)

    # -- weight field ------------------------------------------------------

    @cached_property
    def weight(self) -> tuple[np.ndarray, np.ndarray]:
        """Weight field values and Jacobian ``(X, dX)``; zeros if absent."""
        if self.W.weight_field is None:
            batch, d = self.p.shape[:-1], self.W.dim
            return np.zeros(batch + (d,)), np.zeros(batch + (d, d))
        X, dX = self.W.weight_field.jets(self.p)
        return X, dX

    @cached_property
    def weight_div(self) -> np.ndarray:
        X, dX = self.weight
        return (np.einsum("...kk->...", dX)
                + np.einsum("...kka,...a->...", self.gamma, X))

    @cached_property
    def weight_lie(self) -> np.ndarray:
        """``(L_X g)_ij`` for the weight field."""
        X, dX = self.weight
        term = np.einsum("...k,...ijk->...ij", X, self.dg)
        mix = np.einsum("...kj,...ki->...ij", self.g, dX)
        return term + mix + np.swapaxes(mix, -1, -2)

    # -- pointwise frames (batch shape must be ()) ---------------------------

    @cached_property
    def frames(self) -> tuple[np.ndarray, np.ndarray]:
        if self.p.ndim != 1:
            raise NumericalError("adapted frames are pointwise; got a batch")
        S, _ = self.span
        E_tan = _gram_schmidt(S, self.g, self.W.nu)
        resid = self.proj_nor @ np.eye(self.W.dim)
        E_nor = _gram_schmidt(resid, self.g, self.W.n)
        return E_tan, E_nor


def _gram_schmidt(cols: np.ndarray, g: np.ndarray, need: int) -> np.ndarray:
    """Modified Gram-Schmidt with column pivoting under the g-inner product."""
    work = [cols[:, j].astype(float) for j in range(cols.shape[1])]
    out = []
    while len(out) < need:
        norms = [float(v @ g @ v) for v in work]
        j = int(np.argmax(norms))
        if norms[j] <= FRAME_TOL:
            raise NumericalError("frame construction degenerate: "
                                 f"need {need} directions, found {len(out)}")
        e = work.pop(j) / np.sqrt(norms[j])
        out.append(e)
        work = [v - (e @ g @ v) * e for v in work]
    return np.stack(out, axis=1)


# ---------------------------------------------------------------------------
# pointwise extrinsic operations
# ---------------------------------------------------------------------------

@dataclass
class ExtrinsicPack:
    """Second fundamental forms, integrability tensors, mean curvatures.

    ``h_tan[a, b, :]`` are coordinate components of ``h_tan(E_a, E_b)`` in the
    adapted orthonormal tangent frame; likewise for the normal side.  The
    ``norms`` dict holds the squared norms used by the identity benches.
    """

    point: np.ndarray
    E_tan: np.ndarray
    E_nor: np.ndarray
    h_tan: np.ndarray
    T_tan: np.ndarray
    h_nor: np.ndarray
    T_nor: np.ndarray
    H_tan: np.ndarray
    H_nor: np.ndarray
    norms: dict


def adapted_frame(W: WeightedAlmostProduct, p) -> tuple[np.ndarray, np.ndarray]:
    """g-orthonormal frames ``(E_tan (d, nu), E_nor (d, n))`` at ``p``."""
    return AdaptedPoint(W, p).frames


def second_fundamental(W: WeightedAlmostProduct, p,
                       ap: AdaptedPoint | None = None) -> ExtrinsicPack:
    ap = AdaptedPoint(W, p) if ap is None else ap
    E_tan, E_nor = ap.frames
    g = ap.g

    def _pack_side(C, E):
        full = np.einsum("kmn,ma,nb->abk", C, E, E)
        h = 0.5 * (full + np.swapaxes(full, 0, 1))
        T = 0.5 * (full - np.swapaxes(full, 0, 1))
        H = np.einsum("aak->k", h)
        return h, T, H

    h_tan, T_tan, H_tan = _pack_side(ap.c_tan, E_tan)
    h_nor, T_nor, H_nor = _pack_side(ap.c_nor, E_nor)

    def _norm2(t):
        return float(np.einsum("abk,abl,kl->", t, t, g))

    norms = {
        "h_tan2": _norm2(h_tan), "T_tan2": _norm2(T_tan),
        "h_nor2": _norm2(h_nor), "T_nor2": _norm2(T_nor),
        "H_tan2": float(H_tan @ g @ H_tan), "H_nor2": float(H_nor @ g @ H_nor),
    }
    return ExtrinsicPack(ap.p, E_tan, E_nor, h_tan, T_tan, h_nor, T_nor,
                         H_tan, H_nor, norms)


def co_nullity(W: WeightedAlmostProduct, p, x,
               ap: AdaptedPoint | None = None) -> np.ndarray:
    """Co-nullity operator of ``x in D_tan`` as a matrix in the adapted
    normal frame: ``B[i, j] = g(B_x E_nor_j, E_nor_i)`` with
    ``B_x y = (nabla_y x~)`` projected to D_nor."""
    ap = AdaptedPoint(W, p) if ap is None else ap
    _, E_nor = ap.frames
    x = np.asarray(x, dtype=float)
    off = ap.proj_nor @ x
    x2 = float(x @ ap.g @ x)
    if x2 <= 0.0 or float(off @ ap.g @ off) > 1e-16 * x2:
        raise InputError("x must be a nonzero vector in D_tan")
    vec = np.einsum("kmn,mj,n->kj", ap.c_tan, E_nor, x)
    return np.einsum("ki,kl,lj->ij", E_nor, ap.g, vec)


def co_nullity_weighted(W: WeightedAlmostProduct, p, x,
                        ap: AdaptedPoint | None = None) -> np.ndarray:
    """``B^X_x = B_x - g(X/n, x) id`` on D_nor."""
    ap = AdaptedPoint(W, p) if ap is None else ap
    B = co_nullity(W, p, x, ap)
    X, _ = ap.weight
    shift = float(np.einsum("i,ij,j->", X, ap.g, np.asarray(x, float))) / W.n
    return B - shift * np.eye(W.n)


def weingarten(W: WeightedAlmostProduct, p, vec, side: str = "tan",
               pack: ExtrinsicPack | None = None) -> np.ndarray:
    """Weingarten operator of ``h_side`` paired with a complementary vector,
    as a symmetric matrix in the adapted frame of ``side``."""
    pack = second_fundamental(W, p) if pack is None else pack
    g = W.manifold.metric_values(p)
    h = pack.h_tan if side == "tan" else pack.h_nor
    return np.einsum("abk,kl,l->ab", h, g, np.asarray(vec, float))


def integrability_sharp(W: WeightedAlmostProduct, p, vec, side: str = "tan",
                        pack: ExtrinsicPack | None = None) -> np.ndarray:
    """Antisymmetric operator ``g(T_side(E_a, E_b), vec)``."""
    pack = second_fundamental(W, p) if pack is None else pack
    g = W.manifold.metric_values(p)
    T = pack.T_tan if side == "tan" else pack.T_nor
    return np.einsum("abk,kl,l->ab", T, g, np.asarray(vec, float))


# ---------------------------------------------------------------------------
# batched invariants (identity benches, integral formulas)
# ---------------------------------------------------------------------------

def mixed_invariants(W: WeightedAlmostProduct, P, validate: bool = False,
                     ap: AdaptedPoint | None = None) -> dict:
    """Scalar invariants at point(s) ``P`` of shape ``(..., d)``, batched.

    Returns a dict of batched arrays with keys: ``s_mix``, squared norms
    ``h_tan2 / h_nor2 / T_tan2 / T_nor2 / H_tan2 / H_nor2``, mean curvature
    vectors ``H_tan / H_nor``, weight data ``div_X / X_tan2 / X_nor2 /
    g_X_Hnor``, and the weighted mixed scalar ``s_w``:

        s_w = s_mix + 1/2 Div X + 1/(2 n_synth) |X_tan|^2
                             + 1/(2 nu_synth) |X_nor|^2.

    (The synthetic dimension paired with each distribution divides the norm
    of the projection onto that distribution's *complement*; for the default
    synthetic dimensions this reduces to the unweighted scalar plus
    1/2 Div X + |X_tan|^2/(2n) + |X_nor|^2/(2 nu).)

    Every squared norm is a sum of squares of components already projected
    into the distribution: ``|v|^2_g = sum (L^T v)^2`` with ``g = L L^T``, and
    ``|h|^2`` / ``|T|^2`` square the symmetric / antisymmetric parts of ``C``
    after both form slots are projected.  So the norms are never negative, and
    an exact zero comes out as at most ``d^3`` squares of O(eps) components,
    not as the O(eps |C|^2) signed remainder of the O(1) entries that ``C``
    has off the distribution.
    """
    ap = AdaptedPoint(W, P, validate=validate) if ap is None else ap
    # ap's lazy fields first: evaluating them is the memory peak, which the
    # metric factors below need not add to
    g, Rm = ap.g, ap.riemann
    Qt, Qn = ap.q_tan, ap.q_nor
    C_tan, C_nor = ap.c_tan, ap.c_nor
    X, _ = ap.weight
    div_X = ap.weight_div
    try:
        L = np.linalg.cholesky(g)
        M = np.linalg.cholesky(ap.ginv)
    except np.linalg.LinAlgError:
        raise NumericalError("metric is not positive definite at a sampled "
                             "point") from None

    def _norm2(v):
        Lv = np.einsum("...ka,...k->...a", L, v)
        return np.einsum("...a,...a->...", Lv, Lv)

    out = {}
    out["s_mix"] = np.einsum("...ijkl,...il,...jk->...", Rm, Qt, Qn, optimize=True)

    # F = P M with g^{-1} = M M^T has F F^T = P g^{-1} P^T = Q on each side,
    # so contracting a form slot with F projects it into the distribution.
    def _side(C, proj, Q):
        F = proj @ M
        Ct = np.einsum("...ka,...kmn,...mb,...nc->...abc", L, C, F, F,
                       optimize=True)
        # one buffer holds the symmetric, then the antisymmetric part
        part = Ct + np.swapaxes(Ct, -1, -2)
        h2 = 0.25 * np.einsum("...abc,...abc->...", part, part)
        np.subtract(Ct, np.swapaxes(Ct, -1, -2), out=part)
        T2 = 0.25 * np.einsum("...abc,...abc->...", part, part)
        H = np.einsum("...kmn,...mn->...k", C, Q)
        return h2, T2, H, _norm2(H)

    out["h_tan2"], out["T_tan2"], out["H_tan"], out["H_tan2"] = _side(
        C_tan, ap.proj_tan, Qt)
    out["h_nor2"], out["T_nor2"], out["H_nor"], out["H_nor2"] = _side(
        C_nor, ap.proj_nor, Qn)

    X_tan = np.einsum("...ik,...k->...i", ap.proj_tan, X)
    X_nor = X - X_tan
    out["X_tan2"] = _norm2(X_tan)
    out["X_nor2"] = _norm2(X_nor)
    out["div_X"] = div_X
    out["g_X_Hnor"] = np.einsum("...i,...ij,...j->...", X, g, out["H_nor"])
    out["s_w"] = (out["s_mix"] + 0.5 * out["div_X"]
                  + out["X_tan2"] / (2.0 * W.n_synth)
                  + out["X_nor2"] / (2.0 * W.nu_synth))
    return out
