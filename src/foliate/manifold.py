"""Charted Riemannian manifolds and pointwise tensor calculus.

Sign conventions (fixed here, used everywhere; see docs/conventions.md):

* curvature  ``R(u,v)w = nabla_u nabla_v w - nabla_v nabla_u w - nabla_[u,v] w``,
* covariant components ``Rm[i,j,k,l] = g(R(d_i, d_j) d_k, d_l)``,
* sectional ``K(u,v) = g(R(u,v)v, u) / (|u|^2 |v|^2 - g(u,v)^2)``,

so the round sphere has K = +1.  All derivatives of the metric come from
exact second-order jets of its entry expressions; nothing here uses finite
differences.

Everything is batch-capable: a "point" argument of shape ``(..., d)`` yields
tensors with the same leading batch shape.  Frame-dependent operations in
:mod:`foliate.almost_product` are the only pointwise-only exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DomainError, InputError, NumericalError
from .expr import Expr, Num, Program, eval_jet, max_coord, parse, to_source

__all__ = [
    "VectorFieldSpec", "ChartedManifold", "PointGeometry",
    "christoffel", "riemann", "sectional", "ricci", "lie_derivative_metric",
    "divergence", "random_points", "wrap_point", "check_in_chart",
]

COND_CAP = 1e6


def _as_expr(x, dim: int) -> Expr:
    e = parse(x, dim) if isinstance(x, str) else x
    if not isinstance(e, Expr):
        raise InputError(f"expected Expr or source string, got {type(x).__name__}")
    if max_coord(e) >= dim:
        raise InputError(f"expression '{to_source(e)}' uses coordinates beyond x{dim - 1}")
    return e


@dataclass(frozen=True)
class VectorFieldSpec:
    """A vector field given by one component expression per coordinate."""

    components: tuple[Expr, ...]

    @staticmethod
    def from_strings(sources: Sequence[str], dim: int | None = None) -> "VectorFieldSpec":
        dim = len(sources) if dim is None else dim
        if len(sources) != dim:
            raise InputError(f"expected {dim} components, got {len(sources)}")
        return VectorFieldSpec(tuple(_as_expr(s, dim) for s in sources))

    @staticmethod
    def zero(dim: int) -> "VectorFieldSpec":
        return VectorFieldSpec(tuple(Num(0.0) for _ in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.components)

    @cached_property
    def _program(self) -> Program:
        return Program(self.components, self.dim)

    def values(self, p) -> np.ndarray:
        return eval_jet(self._program, np.asarray(p, dtype=float), 0)[0]

    def jets(self, p) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(X, dX)`` with ``dX[..., k, m] = d_m X^k``."""
        return eval_jet(self._program, p, 1)


@dataclass(frozen=True)
class ChartedManifold:
    """A single coordinate chart with metric entry expressions.

    ``periodic[i]`` is the period of coordinate ``i`` (``None`` if not
    periodic); ``box[i]`` is an open interval ``(lo, hi)`` for a bounded
    non-periodic coordinate, ``None`` otherwise.  The upper-triangle entries
    are compiled together into one program on first evaluation.
    """

    dim: int
    metric: tuple[tuple[Expr, ...], ...]
    periodic: tuple[float | None, ...] = None  # type: ignore[assignment]
    box: tuple[tuple[float, float] | None, ...] = None  # type: ignore[assignment]
    label: str = ""

    def __post_init__(self):
        d = self.dim
        if d < 2:
            raise InputError("charts need dimension >= 2")
        metric = tuple(tuple(_as_expr(e, d) for e in row) for row in self.metric)
        if len(metric) != d or any(len(row) != d for row in metric):
            raise InputError(f"metric must be a {d}x{d} grid of expressions")
        object.__setattr__(self, "metric", metric)
        periodic = self.periodic if self.periodic is not None else (None,) * d
        box = self.box if self.box is not None else (None,) * d
        if len(periodic) != d or len(box) != d:
            raise InputError("periodic/box must have one entry per coordinate")
        for i in range(d):
            if periodic[i] is not None:
                if periodic[i] <= 0:
                    raise InputError(f"period of x{i} must be positive")
                if box[i] is not None:
                    raise InputError(f"x{i} cannot be both periodic and boxed")
            if box[i] is not None and not box[i][0] < box[i][1]:
                raise InputError(f"box of x{i} must satisfy lo < hi")
        object.__setattr__(self, "periodic", tuple(periodic))
        object.__setattr__(self, "box", tuple(box))
        self._check_symmetry()

    def _check_symmetry(self):
        """Compare the entries ``g_ij`` and ``g_ji`` that differ as
        expressions at three sample points (points outside an entry's domain
        are skipped)."""
        d = self.dim
        pairs = [(i, j) for i in range(d) for j in range(i + 1, d)
                 if self.metric[i][j] != self.metric[j][i]]
        if not pairs:
            return
        program = Program([self.metric[i][j] for i, j in pairs]
                          + [self.metric[j][i] for i, j in pairs], d)
        for p in random_points(self, np.random.default_rng(2718), 3):
            try:
                upper, lower = np.split(eval_jet(program, p, 0)[0], 2)
            except DomainError:
                continue
            if not (np.allclose(upper, lower, atol=1e-12, rtol=1e-12)
                    and np.allclose(lower, upper, atol=1e-12, rtol=1e-12)):
                raise InputError("metric expressions are not symmetric")

    @cached_property
    def _metric_program(self) -> Program:
        d = self.dim
        upper = [(i, j) for i in range(d) for j in range(i, d)]
        return Program([self.metric[i][j] for i, j in upper], d, (d, d),
                       tuple(((i, j), (j, i)) if i != j else ((i, j),)
                             for i, j in upper))

    def metric_jet(self, p, order: int = 2) -> tuple[np.ndarray, ...]:
        """Exact ``(g, dg, d2g)`` at point(s) ``p``; ``dg[..., i, j, k] =
        d_k g_ij`` and ``d2g[..., i, j, k, l] = d_k d_l g_ij``.  ``order=1``
        returns ``(g, dg)`` and computes no second derivative."""
        p = np.asarray(p, dtype=float)
        if p.shape[-1] != self.dim:
            raise InputError(f"point has {p.shape[-1]} coordinates, chart has {self.dim}")
        return eval_jet(self._metric_program, p, order)

    def metric_values(self, p) -> np.ndarray:
        return eval_jet(self._metric_program, np.asarray(p, dtype=float), 0)[0]


class PointGeometry:
    """Lazy bundle of pointwise (or batched) metric/curvature data.

    Construction evaluates the metric and its first derivatives, validates
    positive-definiteness and caps the metric condition number at 1e6 unless
    ``validate=False``.  Second derivatives are evaluated on first use.
    """

    def __init__(self, manifold: ChartedManifold, p, validate: bool = True):
        self.M = manifold
        self.p = np.asarray(p, dtype=float)
        self.g, self.dg = manifold.metric_jet(self.p, 1)
        if validate:
            self._validate_metric()

    def _validate_metric(self):
        if not np.all(np.isfinite(self.g)):
            raise NumericalError("metric evaluated to non-finite values")
        lam = np.linalg.eigvalsh(self.g)
        lo, hi = np.min(lam), np.max(np.abs(lam))
        if lo <= 0.0:
            raise NumericalError("metric is not positive definite at a sampled point")
        if hi / lo > COND_CAP:
            raise NumericalError(
                f"metric condition number exceeds the {COND_CAP:.0e} cap; "
                "point is too close to a chart degeneracy")

    @cached_property
    def d2g(self) -> np.ndarray:
        """``d2g[..., i, j, k, l] = d_k d_l g_ij``."""
        return self.M.metric_jet(self.p, 2)[2]

    @cached_property
    def ginv(self) -> np.ndarray:
        return np.linalg.inv(self.g)

    @cached_property
    def sqrt_det(self) -> np.ndarray:
        return np.sqrt(np.linalg.det(self.g))

    @cached_property
    def gamma(self) -> np.ndarray:
        """Christoffel symbols ``gamma[..., k, i, j] = Gamma^k_ij``."""
        dg = self.dg
        # A[..., l, i, j] = d_i g_jl + d_j g_il - d_l g_ij
        A = (np.einsum("...jli->...lij", dg) + np.einsum("...ilj->...lij", dg)
             - np.einsum("...ijl->...lij", dg))
        return 0.5 * np.einsum("...kl,...lij->...kij", self.ginv, A)

    @cached_property
    def dgamma(self) -> np.ndarray:
        """Derivatives ``dgamma[..., m, k, i, j] = d_m Gamma^k_ij``."""
        dg, d2g, ginv = self.dg, self.d2g, self.ginv
        A = (np.einsum("...jli->...lij", dg) + np.einsum("...ilj->...lij", dg)
             - np.einsum("...ijl->...lij", dg))
        # dA[..., m, l, i, j] = d_m A[l, i, j]
        dA = (np.einsum("...jlim->...mlij", d2g) + np.einsum("...iljm->...mlij", d2g)
              - np.einsum("...ijlm->...mlij", d2g))
        dginv = -np.einsum("...ka,...abm,...bl->...mkl", ginv, dg, ginv)
        return 0.5 * (np.einsum("...mkl,...lij->...mkij", dginv, A)
                      + np.einsum("...kl,...mlij->...mkij", ginv, dA))

    @cached_property
    def riemann(self) -> np.ndarray:
        """Covariant curvature ``Rm[..., i, j, k, l] = g(R(d_i,d_j)d_k, d_l)``."""
        gam, dgam = self.gamma, self.dgamma
        rup = (np.einsum("...imjk->...ijkm", dgam) - np.einsum("...jmik->...ijkm", dgam)
               + np.einsum("...mia,...ajk->...ijkm", gam, gam)
               - np.einsum("...mja,...aik->...ijkm", gam, gam))
        return np.einsum("...ijkm,...ml->...ijkl", rup, self.g)

    @cached_property
    def ricci(self) -> np.ndarray:
        """Ricci tensor ``ric[..., j, k] = g^{il} Rm[..., i, j, k, l]``."""
        return np.einsum("...il,...ijkl->...jk", self.ginv, self.riemann)

    # -- small helpers -----------------------------------------------------

    def inner(self, u, v) -> np.ndarray:
        return np.einsum("...i,...ij,...j->...", u, self.g, v)

    def norm2(self, u) -> np.ndarray:
        return self.inner(u, u)

    def sectional(self, u, v) -> np.ndarray:
        num = np.einsum("...ijkl,...i,...j,...k,...l->...",
                        self.riemann, u, v, v, u)
        gram = self.norm2(u) * self.norm2(v) - self.inner(u, v) ** 2
        gram = np.asarray(gram)
        if np.any(np.abs(gram) < 1e-14):
            raise NumericalError("sectional curvature of a degenerate plane")
        return num / gram


# ---------------------------------------------------------------------------
# functional API (thin wrappers; tests and the CLI use these)
# ---------------------------------------------------------------------------

def christoffel(M: ChartedManifold, p, validate: bool = True) -> np.ndarray:
    return PointGeometry(M, p, validate=validate).gamma


def riemann(M: ChartedManifold, p, validate: bool = True) -> np.ndarray:
    return PointGeometry(M, p, validate=validate).riemann


def ricci(M: ChartedManifold, p) -> np.ndarray:
    return PointGeometry(M, p).ricci


def sectional(M: ChartedManifold, p, u, v) -> np.ndarray:
    return PointGeometry(M, p).sectional(np.asarray(u, float), np.asarray(v, float))


def lie_derivative_metric(M: ChartedManifold, p, X: VectorFieldSpec) -> np.ndarray:
    """``(L_X g)_ij = X^k d_k g_ij + g_kj d_i X^k + g_ik d_j X^k``."""
    geo = PointGeometry(M, p)
    Xv, dX = X.jets(geo.p)
    term = np.einsum("...k,...ijk->...ij", Xv, geo.dg)
    mix = np.einsum("...kj,...ki->...ij", geo.g, dX)
    return term + mix + np.swapaxes(mix, -1, -2)


def divergence(M: ChartedManifold, p, X: VectorFieldSpec) -> np.ndarray:
    """``Div X = d_k X^k + Gamma^k_{k a} X^a`` (trace of nabla X)."""
    geo = PointGeometry(M, p)
    Xv, dX = X.jets(geo.p)
    return (np.einsum("...kk->...", dX)
            + np.einsum("...kka,...a->...", geo.gamma, Xv))


def wrap_point(M: ChartedManifold, p) -> np.ndarray:
    """Reduce periodic coordinates to ``[0, period)``."""
    p = np.array(p, dtype=float)
    for i, period in enumerate(M.periodic):
        if period is not None:
            p[..., i] = np.mod(p[..., i], period)
    return p


def check_in_chart(M: ChartedManifold, p, margin: float = 0.0) -> None:
    """Raise :class:`NumericalError` if a boxed coordinate left its domain."""
    p = np.asarray(p, dtype=float)
    for i, bounds in enumerate(M.box):
        if bounds is None:
            continue
        lo, hi = bounds
        pad = margin * (hi - lo)
        if np.any(p[..., i] <= lo + pad) or np.any(p[..., i] >= hi - pad):
            raise NumericalError(
                f"coordinate x{i} left the chart box ({lo}, {hi})")


def random_points(M: ChartedManifold, rng: np.random.Generator, count: int,
                  margin: float = 0.05) -> np.ndarray:
    """Uniform sample points, shrinking boxed coordinates by ``margin``
    (fraction of the box width) to stay clear of chart degeneracies."""
    cols = []
    for i in range(M.dim):
        if M.periodic[i] is not None:
            cols.append(rng.uniform(0.0, M.periodic[i], size=count))
        elif M.box[i] is not None:
            lo, hi = M.box[i]
            pad = margin * (hi - lo)
            cols.append(rng.uniform(lo + pad, hi - pad, size=count))
        else:
            cols.append(rng.uniform(-1.5, 1.5, size=count))
    return np.stack(cols, axis=-1)
