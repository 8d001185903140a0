"""Flows along geodesics: parallel frames, Riccati/Jacobi integration,
blow-up localization, the index form, comparison envelopes, turbulence,
and the parallelogram-area diagnostics.

Everything here steps with classical fixed-step RK4.  A leaf geodesic is
integrated once, jointly with a parallel-transported frame, and the trace
keeps the ``(q, w, F)`` state of all four RK4 stages of every step.  The
Riccati and Jacobi flows along it never feed back into that state, so their
RK4 stages sit at exactly these stage states: the curvature matrix ``R_nor``
(and the weight terms ``s``, ``s'``) is evaluated there once per trace, in
one batch, and each flow is then plain matrix RK4 over that table.  Nothing
is interpolated, so the 4th-order accuracy is not polluted by O(dt^2)
interpolation error.

Riccati solutions reach poles in finite time.  With ``B = Y'Y^{-1}`` the
Riccati equation ``B' = -B^2 - c B - R`` is the linear Jacobi system
``Y'' + c Y' + R Y = 0`` from ``(Y, Y') = (id, B0)``, which has no poles
(the Moebius-scheme idea of Schiff & Shnider, SIAM J. Numer. Anal. 36,
1999).  So the Riccati flows march that system with the same RK4 steps and
stage inputs as the Jacobi flows and read ``B`` at the grid nodes before the
first pole.  A pole of ``B`` is a point where ``Y`` becomes singular: every
``_POLE_BLOCK`` steps a batched test asks whether ``Y_k^{-1} Y_{k+1}`` has a
real eigenvalue <= 0, and the first step that does is bisected on the cubic
Hermite interpolant of ``(Y, Y')``.  The pole therefore carries only the
O(h^4) error of the march: on constant profiles it lands within 2e-13 of
the closed form at the default step.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_trapezoid, simpson
from scipy.linalg import svd
from scipy.optimize import minimize_scalar

from .almost_product import (AdaptedPoint, WeightedAlmostProduct,
                             _gram_schmidt, co_nullity, co_nullity_weighted,
                             second_fundamental)
from .errors import InputError, NumericalError
from .manifold import check_in_chart
from .weighted import sphere_directions

DEFAULT_STEPS = 2000
_POLE_BLOCK = 64      # Riccati steps between two batched crossing tests
_REAL_TOL = 1e-8      # imaginary parts below this are roundoff (see _crosses)
SPEED_DRIFT_CAP = 1e-5


# ---------------------------------------------------------------------------
# RK4 plumbing over tuples of arrays
# ---------------------------------------------------------------------------

def _axpy(y, k, a):
    return tuple(yi + a * ki for yi, ki in zip(y, k))


def _rk4_step(rhs, cs, y, h, stages=None):
    """One classical RK4 step of ``y' = rhs(cs[i], y)`` over tuple states.

    ``cs`` holds what the right-hand side reads at the four stages: the
    coefficients at the stage times ``(t, t + h/2, t + h/2, t + h)``.  The
    four stage states are appended to ``stages`` when it is given.
    """
    k1 = rhs(cs[0], y)
    y2 = _axpy(y, k1, 0.5 * h)
    k2 = rhs(cs[1], y2)
    y3 = _axpy(y, k2, 0.5 * h)
    k3 = rhs(cs[2], y3)
    y4 = _axpy(y, k3, h)
    k4 = rhs(cs[3], y4)
    if stages is not None:
        stages.extend((y, y2, y3, y4))
    return tuple(yi + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                 for yi, a, b, c, d in zip(y, k1, k2, k3, k4))


def _jacobi_rhs(coeffs, y):
    """``(Y, Y')' = (Y', -R Y - c Y')`` on the stacked state ``[Y; Y']``,
    for the stage input ``(R, c)``; ``c`` is None (or 0) when undamped."""
    (R, c), (S,) = coeffs, y
    n = len(R)
    dS = np.empty_like(S)
    dS[:n] = S[n:]
    np.matmul(-R, S[:n], out=dS[n:])
    if c:
        dS[n:] -= c * S[n:]
    return (dS,)


def _march(inputs, S, h, steps) -> list:
    """Stacked node states ``[Y; Y']`` after each RK4 step ``k`` in
    ``steps``, starting from ``S``; ``inputs(k)`` gives the four stage inputs
    ``(R, c)`` of step ``k``.  The one stepping loop of every Riccati and
    Jacobi flow."""
    out = []
    for k in steps:
        (S,) = _rk4_step(_jacobi_rhs, inputs(k), (S,), h)
        out.append(S)
    return out


def _grid(T: float, dt: float | None):
    """Nodes and step of the profile ODEs: ``round(T/dt)`` steps of ``T/n``."""
    if T <= 0.0:
        raise InputError("integration time must be positive")
    n_steps = DEFAULT_STEPS if dt is None else max(1, int(round(T / dt)))
    return np.linspace(0.0, T, n_steps + 1), T / n_steps


def _profile_inputs(R_fn, coeff, times, h):
    """Stage inputs of a profile ODE: ``(R(t), c(t))`` at the stage times of
    step ``k`` (``c`` None without a linear coefficient)."""
    def at(t):
        return (np.atleast_2d(np.asarray(R_fn(t), dtype=float)),
                None if coeff is None else coeff(t))

    def inputs(k):
        t = times[k]
        half = t + 0.5 * h
        return at(t), at(half), at(half), at(t + h)
    return inputs


# ---------------------------------------------------------------------------
# geodesic traces
# ---------------------------------------------------------------------------

@dataclass
class LeafGeodesicTrace:
    """Fixed-step geodesic record with a parallel-transported full frame.

    ``frames[k]`` has d g-orthonormal columns; columns ``0..nu-1`` start in
    D_tan and columns ``nu..d-1`` in D_nor (they stay there exactly when the
    home distribution is invariant under parallel transport, e.g. leaf
    geodesics of a totally geodesic foliation -- ``tangency_drift`` reports
    the measured departure of the velocity from its home distribution).
    Points are stored unwrapped; periodic metric components do not care.

    ``stage_points[k, i]``, ``stage_velocities[k, i]`` and
    ``stage_frames[k, i]`` are the state ``(q, w, F)`` at which RK4 stage
    ``i`` of step ``k`` evaluated the geodesic equation: ``i = 0`` is node
    ``k``, ``i = 1, 2`` the two half-step states, ``i = 3`` the full-step
    trial.  The Riccati and Jacobi flows evaluate their curvature at these
    states, so a trace's geometry is computed once for all its flows.
    """

    W: WeightedAlmostProduct
    home: str
    times: np.ndarray
    points: np.ndarray
    velocities: np.ndarray
    frames: np.ndarray
    speed_drift: float
    tangency_drift: float
    frame_orth_drift: float
    stage_points: np.ndarray
    stage_velocities: np.ndarray
    stage_frames: np.ndarray
    _stage_cache: tuple | None = field(default=None, init=False, repr=False,
                                       compare=False)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def nu(self) -> int:
        return self.W.nu

    @property
    def tangent_frames(self) -> np.ndarray:
        return self.frames[:, :, :self.nu]

    @property
    def normal_frames(self) -> np.ndarray:
        return self.frames[:, :, self.nu:]


def _stage_table(W: WeightedAlmostProduct, trace: LeafGeodesicTrace):
    """``(R_nor, s, s')`` at every RK4 stage state of the trace, row
    ``4 k + i`` for stage ``i`` of step ``k``: one batched geometry
    evaluation, computed on first use and cached on the trace (per ``W``).

    ``R_nor = N^T Rm(., w, w, .) N`` (symmetrised) in the normal columns
    ``N`` of the frame, ``s = g(X/n, w)`` and its derivative along the
    geodesic ``s' = (L_X g)(w, w)/(2n)``.
    """
    cache = trace._stage_cache
    if cache is None or cache[0] is not W:
        q, w, F = (a.reshape((-1,) + a.shape[2:]) for a in (
            trace.stage_points, trace.stage_velocities, trace.stage_frames))
        ap = AdaptedPoint(W, q)
        N = F[:, :, W.nu:]
        R = np.einsum("kabcd,kaj,kb,kc,kdi->kij", ap.riemann, N, w, w, N,
                      optimize=True)
        X, _ = ap.weight
        s = np.einsum("ki,kij,kj->k", X, ap.g, w) / W.n
        sdot = 0.5 * np.einsum("ki,kij,kj->k", w, ap.weight_lie, w) / W.n
        cache = trace._stage_cache = (W, 0.5 * (R + np.swapaxes(R, 1, 2)),
                                      s, sdot)
    return cache[1:]


def integrate_geodesic(W: WeightedAlmostProduct, p, v, T: float,
                       n_steps: int = DEFAULT_STEPS,
                       home: str = "tan") -> LeafGeodesicTrace:
    """RK4 geodesic with joint parallel transport of a full adapted frame.

    Parameters
    ----------
    W : WeightedAlmostProduct
    p, v : array_like
        Start point and velocity.  ``v`` must lie in the home distribution
        (relative residual below 1e-8) unless ``home="free"``.
    T : float
        Integration time (parameter length; for unit ``v`` also arclength).
    n_steps : int
        Number of fixed RK4 steps.
    home : {"tan", "nor", "free"}
        Which distribution the velocity is supposed to live in; drives the
        initial membership check and the tangency-drift diagnostic.

    Raises
    ------
    NumericalError
        On chart exit, metric degeneracy along the way, or speed drift
        beyond 1e-5 (relative).
    """
    if T <= 0.0:
        raise InputError("integration time must be positive")
    if n_steps < 4:
        raise InputError("need at least 4 steps")
    if home not in ("tan", "nor", "free"):
        raise InputError(f"home must be 'tan', 'nor' or 'free', got {home!r}")
    p0 = np.asarray(p, dtype=float)
    v0 = np.asarray(v, dtype=float)
    ap0 = AdaptedPoint(W, p0)
    vnorm = float(np.sqrt(ap0.norm2(v0)))
    if vnorm == 0.0:
        raise InputError("velocity must be nonzero")
    if home != "free":
        proj = ap0.proj_tan if home == "tan" else ap0.proj_nor
        resid = v0 - proj @ v0
        if np.sqrt(ap0.norm2(resid)) > 1e-8 * vnorm:
            raise InputError(f"velocity is not in the {home!r} distribution")
    E_tan, E_nor = ap0.frames
    F0 = np.concatenate([E_tan, E_nor], axis=1)

    def rhs(_, state):
        q, w, F = state
        gam = AdaptedPoint(W, q).gamma
        return (w, -np.einsum("kij,i,j->k", gam, w, w),
                -np.einsum("kij,i,ja->ka", gam, w, F))

    h = T / n_steps
    times = np.linspace(0.0, T, n_steps + 1)
    pts = np.empty((n_steps + 1, W.dim))
    vel = np.empty_like(pts)
    frames = np.empty((n_steps + 1, W.dim, W.dim))
    pts[0], vel[0], frames[0] = p0, v0, F0
    state = (p0, v0, F0)
    stages: list = []
    for k in range(n_steps):
        try:
            state = _rk4_step(rhs, (None,) * 4, state, h, stages)
            check_in_chart(W.manifold, state[0])
        except NumericalError as err:
            raise NumericalError(
                f"geodesic trace aborted at t = {times[k + 1]:.6g}: {err}") \
                from err
        pts[k + 1], vel[k + 1], frames[k + 1] = state
    stage_q, stage_w, stage_F = (np.array(a).reshape((n_steps, 4) + a[0].shape)
                                 for a in zip(*stages))

    # batched diagnostics over the recorded nodes
    apb = AdaptedPoint(W, pts)
    g = apb.g
    speeds = np.einsum("ki,kij,kj->k", vel, g, vel)
    speed_drift = float(np.max(np.abs(speeds / speeds[0] - 1.0)))
    gram = np.einsum("kia,kij,kjb->kab", frames, g, frames)
    orth = float(np.max(np.abs(gram - np.eye(W.dim))))
    if home == "free":
        tang = float("nan")
    else:
        P = apb.proj_nor if home == "tan" else apb.proj_tan
        off = np.einsum("kij,kj->ki", P, vel)
        tang = float(np.sqrt(np.max(np.einsum("ki,kij,kj->k", off, g, off))))
    if speed_drift > SPEED_DRIFT_CAP:
        raise NumericalError(
            f"geodesic speed drifted by {speed_drift:.3e} (> {SPEED_DRIFT_CAP:.0e}); "
            "the step is too coarse or the chart is degenerate")
    return LeafGeodesicTrace(W, home, times, pts, vel, frames,
                             speed_drift, tang, orth, stage_q, stage_w,
                             stage_F)


def tangent_weight_series(W: WeightedAlmostProduct,
                          trace: LeafGeodesicTrace) -> np.ndarray:
    """``s(t) = g(X/n, velocity)`` at the trace nodes (zeros without X)."""
    apb = AdaptedPoint(W, trace.points)
    X, _ = apb.weight
    return np.einsum("ki,kij,kj->k", X, apb.g, trace.velocities) / W.n


# ---------------------------------------------------------------------------
# Riccati flows
# ---------------------------------------------------------------------------

@dataclass
class RiccatiTrace:
    """Riccati solution record in the parallel frame.

    ``mats[k] = Y'Y^{-1}`` at the grid nodes ``times`` (step ``base_dt``)
    up to the last node before the first pole.  ``blow_up`` is the pole
    time, where ``Y`` becomes singular (None if it stays regular to T).
    """

    times: np.ndarray
    mats: np.ndarray
    weighted: bool
    blow_up: float | None
    base_dt: float

    @property
    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.mats, axis=(-2, -1))

    def final(self) -> np.ndarray:
        return self.mats[-1]


def _crosses(Y0, Y):
    """Whether ``Y0^{-1} Y`` has a real eigenvalue <= 0, batched.

    Along the flow ``Y0^{-1} Y(t)`` starts at id, so within one step an
    eigenvalue can only reach the closed negative half-line through 0,
    i.e. through a singular ``Y``.  A complex pair that passes by 0 (a
    rotating, never singular ``Y``) is no crossing.  Eigenvalues whose
    imaginary part is below ``_REAL_TOL`` times ``max(1, spectral radius)``
    count as real, so roundoff cannot split a double eigenvalue into a
    complex pair and hide a pole.
    """
    lam = np.linalg.eigvals(np.linalg.solve(Y0, Y))
    scale = np.maximum(1.0, np.max(np.abs(lam), axis=-1, keepdims=True))
    real = np.abs(lam.imag) <= _REAL_TOL * scale
    return np.any(real & (lam.real <= 0.0), axis=-1)


def _first_pole(nodes, times, h):
    """First pole of ``Y`` over the steps between consecutive stacked node
    states ``[Y; Y']``: ``(k, t*)`` with ``times[k] < t* <= times[k + 1]``,
    or None.

    A node where ``Y`` is exactly singular is a pole itself.  Otherwise the
    first crossing step is bisected, to the last bit of ``t``, on the cubic
    Hermite interpolant of ``(Y, Y')`` over the step.  The linear march stays
    finite on finite coefficients, so a non-finite node is an error.
    """
    if not np.all(np.isfinite(nodes)):
        raise NumericalError("Riccati flow met non-finite coefficients")
    n = nodes.shape[2]
    Y, Yd = nodes[:, :n], nodes[:, n:]
    singular = np.flatnonzero(np.linalg.det(Y) == 0.0)
    m = singular[0] if singular.size else len(Y) - 1
    hits = np.flatnonzero(_crosses(Y[:m], Y[1:m + 1]))
    if not hits.size:
        return (m - 1, float(times[m])) if singular.size else None
    k = int(hits[0])
    (Ya, Yb), (Yda, Ydb) = Y[k:k + 2], Yd[k:k + 2]
    lo, hi = times[k], times[k + 1]
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        u = (mid - times[k]) / h
        Ym = ((1.0 + 2.0 * u) * (1.0 - u) ** 2 * Ya
              + u * (1.0 - u) ** 2 * h * Yda
              + u * u * (3.0 - 2.0 * u) * Yb - u * u * (1.0 - u) * h * Ydb)
        if _crosses(Ya, Ym):
            hi = mid
        else:
            lo = mid
    return k, float(hi)


def _riccati(inputs, B0, times, h, weighted: bool) -> RiccatiTrace:
    """``B = Y'Y^{-1}`` from the march of ``(Y, Y')`` from ``(id, B0)`` over
    the grid ``times``, in blocks of ``_POLE_BLOCK`` steps; the march stops
    after the first block in which ``Y`` becomes singular."""
    n, n_steps = len(B0), len(times) - 1
    nodes = [np.concatenate([np.eye(n), B0])]
    blow_up = None
    for k0 in range(0, n_steps, _POLE_BLOCK):
        nodes += _march(inputs, nodes[-1], h,
                        range(k0, min(k0 + _POLE_BLOCK, n_steps)))
        pole = _first_pole(np.array(nodes[k0:]), times[k0:], h)
        if pole is not None:
            k, blow_up = pole
            del nodes[k0 + k + 1:]
            break
    YT = np.swapaxes(np.array(nodes), 1, 2)
    mats = np.swapaxes(np.linalg.solve(YT[:, :, :n], YT[:, :, n:]), 1, 2)
    return RiccatiTrace(times[:len(nodes)], mats, weighted, blow_up, h)


def riccati_ode(R_fn, B0, T: float, dt: float | None = None,
                linear_coeff=None) -> RiccatiTrace:
    """Integrate ``dB/dt = -B^2 - c(t) B - R(t)`` with blow-up detection.

    ``R_fn(t)`` returns the curvature matrix; ``linear_coeff`` is an
    optional scalar function (or constant) ``c(t)`` -- the weighted equation
    uses ``c = 2 g(X/n, velocity)``.  Scalars are accepted for ``B0`` and
    promoted to 1x1 matrices.  Runs on :func:`jacobi_ode`'s grid of
    ``round(T/dt)`` steps (``DEFAULT_STEPS`` without ``dt``) as the Jacobi
    system ``Y'' + c Y' + R Y = 0`` from ``(id, B0)``.
    """
    B0 = np.atleast_2d(np.asarray(B0, dtype=float))
    if B0.shape[0] != B0.shape[1]:
        raise InputError("B0 must be square")
    times, h = _grid(T, dt)
    if linear_coeff is None or callable(linear_coeff):
        coeff = linear_coeff
    else:
        cval = float(linear_coeff)
        coeff = (lambda t: cval)
    return _riccati(_profile_inputs(R_fn, coeff, times, h), B0, times, h,
                    linear_coeff is not None)


def riccati_flow(W: WeightedAlmostProduct, trace: LeafGeodesicTrace,
                 B0=None, weighted: bool = False) -> RiccatiTrace:
    """Riccati flow along a leaf geodesic, in the transported normal frame.

    The Jacobi march of :func:`jacobi_flow` from ``(id, B0)``, over the
    trace's table of stage coefficients, read as ``B = Y'Y^{-1}`` at the
    trace nodes before the first pole.  Unweighted form::

        dB/dt = -B^2 - R_nor(t)

    weighted form (``B`` is then the shifted operator ``B - g(X/n, v) id``)::

        dB/dt = -B^2 - 2 s B - (R_nor + (s' + s^2) id),  s = g(X/n, v),

    i.e. ``Y'' + 2 s Y' + (R_nor + (s' + s^2) id) Y = 0``.  With ``X = 0``
    the weighted branch only adds exact zeros, so it matches the unweighted
    flow bit for bit.  Default ``B0`` is the (weighted) co-nullity operator
    of the initial velocity.
    """
    n = W.n
    p0 = trace.points[0]
    v0 = trace.velocities[0]
    if B0 is None:
        if trace.home != "tan":
            raise InputError("default B0 needs a leaf-tangent trace")
        B0 = (co_nullity_weighted if weighted else co_nullity)(W, p0, v0)
    B0 = np.asarray(B0, dtype=float)
    if B0.shape != (n, n):
        raise InputError(f"B0 must be {n}x{n}")
    R, s, sdot = _stage_table(W, trace)
    if weighted:
        stages = list(zip(R + (sdot + s * s)[:, None, None] * np.eye(n),
                          2.0 * s))
    else:
        stages = [(Rk, None) for Rk in R]
    return _riccati(lambda k: stages[4 * k:4 * k + 4], B0, trace.times,
                    trace.dt, weighted)


def scalar_blowup_time(lam0: float, k: float, shift: float = 0.0):
    """Pole of the scalar Riccati solution of
    ``l' + l^2 + 2 shift l + k = 0``, or None if it never blows up.

    Substituting ``m = l + shift`` gives ``m' = -m^2 - (k - shift^2)``:
    for ``k > shift^2`` every solution reaches -inf at

        t* = (pi/2 + arctan(m0 / sqrt(k - shift^2))) / sqrt(k - shift^2).
    """
    m0 = lam0 + shift
    a2 = k - shift * shift
    if a2 > 0.0:
        rk = np.sqrt(a2)
        return float((np.pi / 2 + np.arctan(m0 / rk)) / rk)
    if a2 == 0.0:
        return float(-1.0 / m0) if m0 < 0.0 else None
    a = np.sqrt(-a2)
    if m0 >= -a:
        return None
    return float(-np.arctanh(a / m0) / a)


# ---------------------------------------------------------------------------
# Jacobi flows
# ---------------------------------------------------------------------------

@dataclass
class JacobiTrace:
    """Matrix Jacobi solution (Y, Ydot) on a fixed grid.

    ``sigma_min[k]`` is the smallest singular value of the stacked
    ``[Y; Ydot]`` -- it staying away from 0 certifies
    ker Y(t) and ker Ydot(t) intersect trivially.  ``wronskian_drift`` is
    the worst Frobenius departure of ``Ydot^T Y - Y^T Ydot`` from its
    initial value (a first integral of the flow when R is symmetric).
    """

    times: np.ndarray
    Y: np.ndarray
    Yd: np.ndarray
    sigma_min: np.ndarray
    wronskian_drift: float

    def vector(self, j: int):
        """(times, y, ydot) arrays of solution column ``j``."""
        return self.times, self.Y[:, :, j], self.Yd[:, :, j]

    def co_nullity_track(self, floor: float = 1e-4):
        """``B = Ydot Y^{-1}`` wherever ``sigma_min(Y) > floor``.

        Returns ``(mask, mats)``; masked-out nodes hold NaN matrices.
        """
        K, nn, m = self.Y.shape
        if nn != m:
            raise InputError("co-nullity track needs a square Y")
        sig = np.linalg.svd(self.Y, compute_uv=False)[:, -1]
        mask = sig > floor
        mats = np.full_like(self.Y, np.nan)
        for k in np.nonzero(mask)[0]:
            mats[k] = self.Yd[k] @ np.linalg.inv(self.Y[k])
        return mask, mats


def _jacobi_diagnostics(times, nodes):
    stacked = np.array(nodes)
    n = len(stacked[0]) // 2
    Y, Yd = stacked[:, :n], stacked[:, n:]
    sig = np.linalg.svd(stacked, compute_uv=False)[:, -1]
    wr = np.einsum("kim,kin->kmn", Yd, Y) - np.einsum("kim,kin->kmn", Y, Yd)
    drift = float(np.max(np.linalg.norm(wr - wr[0], axis=(1, 2))))
    return JacobiTrace(np.asarray(times), Y, Yd, sig, drift)


def _as_columns(A, name):
    A = np.asarray(A, dtype=float)
    if A.ndim == 1:
        A = A[:, None]
    if A.ndim != 2:
        raise InputError(f"{name} must be a vector or a matrix")
    return A


def _stacked_start(Y0, Yd0):
    """``[Y0; Yd0]``, checked to have full column rank."""
    S0 = np.concatenate([Y0, Yd0])
    s = np.linalg.svd(S0, compute_uv=False)
    if s[-1] <= 1e-12 * (s[0] + 1.0):
        raise InputError("[Y0; Yd0] must have full column rank")
    return S0


def jacobi_ode(R_fn, Y0, Yd0, T: float, dt: float | None = None) -> JacobiTrace:
    """Integrate ``Y'' + R(t) Y = 0`` for a matrix (or single-column) Y."""
    Y0 = _as_columns(Y0, "Y0")
    Yd0 = _as_columns(Yd0, "Yd0")
    if Y0.shape != Yd0.shape:
        raise InputError("Y0 and Yd0 shapes differ")
    S0 = _stacked_start(Y0, Yd0)
    times, h = _grid(T, dt)
    return _jacobi_diagnostics(times, [S0] + _march(
        _profile_inputs(R_fn, None, times, h), S0, h, range(len(times) - 1)))


def jacobi_flow(W: WeightedAlmostProduct, trace: LeafGeodesicTrace,
                Y0=None, Yd0=None) -> JacobiTrace:
    """Jacobi flow ``Y'' + R_nor Y = 0`` along a geodesic trace: matrix RK4
    over the trace's table of stage coefficients, like :func:`riccati_flow`.

    Defaults ``Y0 = id`` and ``Yd0 = co_nullity`` make ``Ydot Y^{-1}``
    reproduce the Riccati flow started from its own default.
    """
    n = W.n
    Y0 = np.eye(n) if Y0 is None else _as_columns(Y0, "Y0")
    if Yd0 is None:
        if trace.home != "tan":
            raise InputError("default Yd0 needs a leaf-tangent trace")
        Yd0 = co_nullity(W, trace.points[0], trace.velocities[0]) @ Y0
    Yd0 = _as_columns(Yd0, "Yd0")
    if Y0.shape != Yd0.shape or Y0.shape[0] != n:
        raise InputError(f"Y0, Yd0 must be {n}xm with equal shapes")
    S0 = _stacked_start(Y0, Yd0)
    stages = [(Rk, None) for Rk in _stage_table(W, trace)[0]]
    return _jacobi_diagnostics(trace.times, [S0] + _march(
        lambda k: stages[4 * k:4 * k + 4], S0, trace.dt,
        range(len(trace.times) - 1)))


# ---------------------------------------------------------------------------
# index form
# ---------------------------------------------------------------------------

def _fd4(arr: np.ndarray, h: float) -> np.ndarray:
    """4th-order finite differences along axis 0 (5-point stencils)."""
    if arr.shape[0] < 5:
        raise InputError("need at least 5 nodes for the derivative stencil")
    d = np.empty_like(arr)
    d[2:-2] = (arr[:-4] - 8 * arr[1:-3] + 8 * arr[3:-1] - arr[4:]) / (12 * h)
    d[0] = (-25 * arr[0] + 48 * arr[1] - 36 * arr[2]
            + 16 * arr[3] - 3 * arr[4]) / (12 * h)
    d[1] = (-3 * arr[0] - 10 * arr[1] + 18 * arr[2]
            - 6 * arr[3] + arr[4]) / (12 * h)
    d[-2] = (3 * arr[-1] + 10 * arr[-2] - 18 * arr[-3]
             + 6 * arr[-4] - arr[-5]) / (12 * h)
    d[-1] = (25 * arr[-1] - 48 * arr[-2] + 36 * arr[-3]
             - 16 * arr[-4] + 3 * arr[-5]) / (12 * h)
    return d


def index_form(W: WeightedAlmostProduct, trace: LeafGeodesicTrace, x,
               synth: float | None = None, validate: bool = True) -> float:
    """Second-variation index form of a geodesic for a D_tan variation field.

    Computes, by composite Simpson over the trace nodes,

        I(x,x) = int ( |x' - g(v,X) x|^2 - K_w(v,x) |x|^2 ) dt
                 + [ g(v,X) |x|^2 ]_a^b,

    where ``x'`` is the covariant derivative along the trace (4th-order
    finite differences on the supplied node values plus the Christoffel
    term), and ``K_w`` is the weighted mixed sectional curvature of the
    plane (v, x) with the weight evaluated on the velocity.  ``synth``
    defaults to the D_tan rank itself, the value under which this form
    arises from differentiating the energy twice.

    ``x`` is either an array of node values ``(K+1, d)`` in chart
    coordinates or a callable ``t -> (d,)``.
    """
    times = trace.times
    K1, d = len(times), W.dim
    if callable(x):
        xv = np.stack([np.asarray(x(t), dtype=float) for t in times])
    else:
        xv = np.asarray(x, dtype=float)
    if xv.shape != (K1, d):
        raise InputError(f"variation field must have shape ({K1}, {d})")
    synth = float(W.nu if synth is None else synth)
    if synth == 0.0:
        raise InputError("synthetic dimension must be nonzero")

    ap = AdaptedPoint(W, trace.points)
    g = ap.g
    v = trace.velocities
    x2 = np.einsum("ki,kij,kj->k", xv, g, xv)
    scale = float(np.max(x2))
    if validate and scale > 0.0:
        off = xv - np.einsum("kij,kj->ki", ap.proj_tan, xv)
        bad = np.einsum("ki,kij,kj->k", off, g, off)
        if np.max(bad) > 1e-12 * scale:
            raise InputError("variation field must be tangent to D_tan "
                             f"(residual {float(np.sqrt(np.max(bad))):.2e})")

    xdot = _fd4(xv, trace.dt) + np.einsum("kmij,ki,kj->km", ap.gamma, v, xv)
    X, _ = ap.weight
    sX = np.einsum("ki,kij,kj->k", v, g, X)
    w = xdot - sX[:, None] * xv
    kinetic = np.einsum("ki,kij,kj->k", w, g, w)

    num = np.einsum("kabcd,ka,kb,kc,kd->k", ap.riemann, v, xv, xv, v,
                    optimize=True)
    v2 = np.einsum("ki,kij,kj->k", v, g, v)
    gxv = np.einsum("ki,kij,kj->k", v, g, xv)
    gram = v2 * x2 - gxv ** 2
    guard = gram > 1e-14 * max(scale, 1.0) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        sect_term = np.where(guard, num * x2 / np.where(guard, gram, 1.0), 0.0)

    lie_vv = np.einsum("ki,kij,kj->k", v, ap.weight_lie, v) / W.nu
    gXv = np.einsum("ki,kij,kj->k", X, g, v) / W.nu
    weight_vv = 0.5 * lie_vv + (W.nu / synth) * gXv ** 2

    integrand = kinetic - sect_term - weight_vv * x2
    value = simpson(integrand, x=times)
    value += sX[-1] * x2[-1] - sX[0] * x2[0]
    return float(value)


# ---------------------------------------------------------------------------
# comparison envelope
# ---------------------------------------------------------------------------

@dataclass
class EnvelopeReport:
    times: np.ndarray
    u_norm: np.ndarray
    bound: np.ndarray
    holds: bool
    max_violation: float
    k: float
    eps1: float


def lemma47_envelope(k: float, eps1: float, R_fn, y0, yd0,
                     T: float | None = None, n_steps: int = 4000,
                     slack: float = 1e-8) -> EnvelopeReport:
    """Perturbation envelope for ``y'' + R(t) y = 0`` against the
    constant-curvature reference.

    With ``ybar(t) = y0 cos(sqrt(k) t) + yd0 sin(sqrt(k) t)/sqrt(k)`` and
    ``u = y - ybar``, verifies at every node

        |u(t)| <= eps1 / (k - (1 - cos(sqrt(k) t)) eps1)
                  * int_0^t sqrt(k) |ybar(s)| sin(sqrt(k)(t-s)) ds + slack.

    Requires ``eps1 < k/2`` (rejected otherwise) and checks
    ``||R(t) - k id||_2 <= eps1`` on the integration nodes.  The running
    integral splits through the sine addition formula into two cumulative
    trapezoid integrals, so the whole envelope costs O(n_steps).
    """
    if k <= 0.0:
        raise InputError("k must be positive")
    if not eps1 < 0.5 * k:
        raise InputError(f"eps1 must satisfy eps1 < k/2, got {eps1} vs k = {k}")
    if eps1 < 0.0:
        raise InputError("eps1 must be nonnegative")
    T = float(np.pi / np.sqrt(k)) if T is None else float(T)
    y0 = np.asarray(y0, dtype=float)
    yd0 = np.asarray(yd0, dtype=float)
    tr = jacobi_ode(R_fn, y0, yd0, T, dt=T / n_steps)
    times, y, _ = tr.vector(0)

    rk = np.sqrt(k)
    dev = max(float(np.linalg.norm(
        np.atleast_2d(np.asarray(R_fn(t), float)) - k * np.eye(len(y0)), 2))
        for t in times)
    if dev > eps1 + 1e-12:
        raise InputError(
            f"R(t) deviates from k*id by {dev:.3e} > eps1 = {eps1:.3e}")

    ybar = (np.cos(rk * times)[:, None] * y0
            + (np.sin(rk * times) / rk)[:, None] * yd0)
    u_norm = np.linalg.norm(y - ybar, axis=1)
    ybar_norm = np.linalg.norm(ybar, axis=1)

    # int_0^t |ybar| sin(sqrt(k)(t-s)) ds, via sin(a-b) = sin a cos b - cos a sin b
    ic = cumulative_trapezoid(ybar_norm * np.cos(rk * times), times, initial=0.0)
    is_ = cumulative_trapezoid(ybar_norm * np.sin(rk * times), times, initial=0.0)
    kernel = rk * (np.sin(rk * times) * ic - np.cos(rk * times) * is_)
    denom = k - (1.0 - np.cos(rk * times)) * eps1
    bound = eps1 / denom * kernel
    viol = float(np.max(u_norm - bound))
    return EnvelopeReport(times, u_norm, bound, bool(viol <= slack), viol,
                          float(k), float(eps1))


def random_admissible_R(n: int, k: float, eps1: float, T: float,
                        rng: np.random.Generator, n_modes: int = 3):
    """Smooth random symmetric profile ``R(t) = k id + A(t)`` with
    ``sup_t ||A(t)||_2 <= eps1`` (rescaled on a dense sample).

    Returns a callable; deterministic given the generator state.
    """
    coeffs = []
    for m in range(n_modes):
        C = rng.normal(size=(n, n))
        S = rng.normal(size=(n, n))
        coeffs.append(((C + C.T) / 2, (S + S.T) / 2, (m + 1) * 2 * np.pi / T))

    def raw(t):
        A = np.zeros((n, n))
        for C, S, om in coeffs:
            A += C * np.cos(om * t) + S * np.sin(om * t)
        return A

    # the sampled sup of a 3-mode trig profile at 2048 nodes can undershoot
    # the true sup by ~1e-5 relative; the margin must dominate that gap
    ts = np.linspace(0.0, T, 2048)
    sup = max(float(np.linalg.norm(raw(t), 2)) for t in ts)
    factor = 0.0 if sup == 0.0 else eps1 * (1.0 - 1e-4) / sup
    eye = np.eye(n)

    def R(t):
        return k * eye + factor * raw(t)

    return R


# ---------------------------------------------------------------------------
# parallelogram-area machinery
# ---------------------------------------------------------------------------

@dataclass
class VtReport:
    times: np.ndarray
    V: np.ndarray
    Vdot_central: np.ndarray
    Vdot_analytic: np.ndarray | None
    rhs_bound: np.ndarray
    holds_central: bool
    max_violation_central: float
    holds_analytic: bool | None
    max_violation_analytic: float | None
    v_drift: float
    t_min_first: float | None


def vt_machinery(sol, k1: float, k2: float, eps: float, R_fn=None,
                 fd_slack: float = 1e-6,
                 analytic_slack: float = 1e-9) -> VtReport:
    """Area-of-parallelogram diagnostics for a single Jacobi vector field.

    ``sol`` is a single-column :class:`JacobiTrace` or a tuple
    ``(times, y, ydot)`` of arrays.  Computes ``V = |y| |ydot_perp|``
    (the area spanned by y and ydot), checks the slow-variation bound

        |V'(t)| <= (0.5 (k2 - k1) + eps) |y(t)|^2

    with V' from central differences (``fd_slack`` absorbs the O(h^2)
    stencil error), and -- when ``R_fn`` is supplied -- cross-checks with
    the analytic derivative

        (V^2)' = -2 [ g(R y, y') g(y, y) - g(R y, y) g(y, y') ].

    Also locates the first interior local minimum of |y(t)| (parabolic
    refinement); ``v_drift`` is max |V - V(0)| for the constant-curvature
    sanity check.
    """
    if isinstance(sol, JacobiTrace):
        if sol.Y.shape[2] != 1:
            raise InputError("pass a single-column trace or (times, y, ydot)")
        times, y, yd = sol.vector(0)
    else:
        times, y, yd = sol
        y = np.asarray(y, dtype=float)
        yd = np.asarray(yd, dtype=float)
    times = np.asarray(times, dtype=float)
    h = float(times[1] - times[0])

    y2 = np.einsum("ki,ki->k", y, y)
    yd2 = np.einsum("ki,ki->k", yd, yd)
    dot = np.einsum("ki,ki->k", y, yd)
    V2 = np.maximum(y2 * yd2 - dot ** 2, 0.0)
    V = np.sqrt(V2)

    Vdot_c = np.full_like(V, np.nan)
    Vdot_c[1:-1] = (V[2:] - V[:-2]) / (2 * h)
    rhs = (0.5 * (k2 - k1) + eps) * y2
    inner = slice(1, -1)
    vio_c = float(np.max(np.abs(Vdot_c[inner]) - rhs[inner]))
    holds_c = bool(vio_c <= fd_slack)

    Vdot_a, holds_a, vio_a = None, None, None
    if R_fn is not None:
        Ry = np.stack([np.atleast_2d(np.asarray(R_fn(t), float)) @ y[i]
                       for i, t in enumerate(times)])
        dV2 = -2.0 * (np.einsum("ki,ki->k", Ry, yd) * y2
                      - np.einsum("ki,ki->k", Ry, y) * dot)
        ok = V > 1e-12 * (1.0 + float(np.max(V)))
        Vdot_a = np.where(ok, dV2 / np.where(ok, 2.0 * V, 1.0), np.nan)
        gaps = np.abs(Vdot_a[ok]) - rhs[ok]
        vio_a = float(np.max(gaps)) if gaps.size else 0.0
        holds_a = bool(vio_a <= analytic_slack)

    v_drift = float(np.max(np.abs(V - V[0])))

    t_min = None
    for i in range(1, len(times) - 1):
        if y2[i] <= y2[i - 1] and y2[i] < y2[i + 1]:
            denom = y2[i - 1] - 2 * y2[i] + y2[i + 1]
            off = 0.5 * h * (y2[i - 1] - y2[i + 1]) / denom if denom > 0 else 0.0
            t_min = float(times[i] + off)
            break
    return VtReport(times, V, Vdot_c, Vdot_a, rhs, holds_c, vio_c,
                    holds_a, vio_a, v_drift, t_min)


# ---------------------------------------------------------------------------
# turbulence
# ---------------------------------------------------------------------------

def _min_shift_spectral(B: np.ndarray) -> float:
    """min over real c of the spectral norm of ``B - c id``.

    This equals the exact pairwise supremum sup { z.B y : y, z unit, y _|_ z }:
    any shift by c*id drops out of z.B y when z _|_ y, which proves <=; the
    map c -> ||B - c id||_2 is convex, and at its minimizer some top
    singular pair (u, v) of B - c id has u _|_ v (the derivative is -u.v),
    so the pair (y, z) = (v, u) attains the value.  The spectral norm of
    the antisymmetric part is in general only a lower bound; the two agree
    when B is antisymmetric.
    """
    n = B.shape[0]
    a = float(np.linalg.norm(B, 2)) + 1.0
    res = minimize_scalar(lambda c: np.linalg.norm(B - c * np.eye(n), 2),
                          bounds=(-a, a), method="bounded",
                          options={"xatol": 1e-12})
    return float(res.fun)


def turbulence_at(W: WeightedAlmostProduct, p, x,
                  ap: AdaptedPoint | None = None) -> float:
    """sup { g(B_x y, z) : y, z unit, y _|_ z in D_nor } at a point."""
    ap = AdaptedPoint(W, p) if ap is None else ap
    B = co_nullity(W, p, x, ap)
    return _min_shift_spectral(B)


def pair_sup_bruteforce(B: np.ndarray, n_pairs: int = 10000,
                        rng: np.random.Generator | None = None) -> float:
    """Monte-Carlo lower bound on the pairwise supremum (test oracle)."""
    rng = np.random.default_rng(0) if rng is None else rng
    n = B.shape[0]
    best = 0.0
    for _ in range(n_pairs):
        yv = rng.normal(size=n)
        yv /= np.linalg.norm(yv)
        z = rng.normal(size=n)
        z -= (z @ yv) * yv
        zn = np.linalg.norm(z)
        if zn < 1e-12:
            continue
        z /= zn
        best = max(best, abs(float(z @ B @ yv)))
    return best


@dataclass
class TurbulenceReport:
    value: float
    antisym_value: float
    per_point: np.ndarray
    h_tan_max: float
    warned: bool
    n_points: int
    n_dirs: int


def turbulence(W: WeightedAlmostProduct, points, n_dirs: int = 64,
               h_tol: float = 1e-8) -> TurbulenceReport:
    """Leaf turbulence estimate: sup of the pairwise co-nullity pairing over
    sampled points and unit tangent directions.

    The inner supremum over orthonormal pairs is exact per (point,
    direction) -- see :func:`_min_shift_spectral`; the outer supremum is by
    direction sampling.  Also reports the antisymmetric-part spectral norm
    (a lower bound that is tight for antisymmetric co-nullity, e.g. flows
    by isometries).  Warns when the tangent distribution is not totally
    geodesic on the sample, where the leafwise notion loses its meaning.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    per_point = np.empty(len(pts))
    anti = 0.0
    h_max = 0.0
    for i, p in enumerate(pts):
        ap = AdaptedPoint(W, p)
        pack = second_fundamental(W, p, ap)
        h_max = max(h_max, pack.norms["h_tan2"])
        E_tan, _ = ap.frames
        dirs = sphere_directions(W.nu, n_dirs) @ E_tan.T
        best = 0.0
        for x in dirs:
            B = co_nullity(W, p, x, ap)
            best = max(best, _min_shift_spectral(B))
            anti = max(anti, float(np.linalg.norm(0.5 * (B - B.T), 2)))
        per_point[i] = best
    warned = h_max > h_tol
    if warned:
        warnings.warn("tangent distribution is not totally geodesic on the "
                      f"sample (|h_tan|^2 up to {h_max:.2e}); turbulence is "
                      "only meaningful for leaf-forming D_tan", stacklevel=2)
    return TurbulenceReport(float(np.max(per_point)), anti, per_point,
                            float(h_max), warned, len(pts), n_dirs)


# ---------------------------------------------------------------------------
# extremal-angle bases
# ---------------------------------------------------------------------------

def extremal_angle_bases(V1, V2, metric=None):
    """Orthonormal bases of two equal-rank subspaces paired by principal
    angles: ``a_i _|_ b_j`` for i != j.

    Columns span the subspaces; ``metric`` switches the inner product from
    Euclidean to a given SPD matrix.  Returns ``(A, B, angles)`` with the
    angle of (a_i, b_i) ascending.
    """
    A1 = _as_columns(V1, "V1")
    A2 = _as_columns(V2, "V2")
    if A1.shape != A2.shape:
        raise InputError("subspaces must sit in the same space with equal rank")
    r = A1.shape[1]
    if metric is None:
        g = np.eye(A1.shape[0])
    else:
        g = np.asarray(metric, dtype=float)
    Q1 = _gram_schmidt(A1, g, r)
    Q2 = _gram_schmidt(A2, g, r)
    M = Q1.T @ g @ Q2
    U, s, Vt = svd(M)
    return Q1 @ U, Q2 @ Vt.T, np.arccos(np.clip(s, -1.0, 1.0))


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def export_trace_csv(path, trace: LeafGeodesicTrace,
                     riccati: RiccatiTrace | None = None,
                     vt: VtReport | None = None) -> None:
    """Write trace data for external plotting: t, the point, |B|_F and the
    eigenvalues of B where a Riccati trace is given, V(t) where available.

    Rows are the union of the node times; fields missing at a node (e.g.
    ``B`` past a Riccati pole) are left empty.
    """
    d = trace.points.shape[1]
    n = 0 if riccati is None else riccati.mats.shape[1]
    key = lambda t: round(float(t), 12)
    rows: dict = {}
    for k, t in enumerate(trace.times):
        rows.setdefault(key(t), {})["point"] = trace.points[k]
    if riccati is not None:
        for k, t in enumerate(riccati.times):
            rows.setdefault(key(t), {})["B"] = riccati.mats[k]
    if vt is not None:
        for k, t in enumerate(vt.times):
            rows.setdefault(key(t), {})["V"] = vt.V[k]

    header = (["t"] + [f"x{i}" for i in range(d)] + ["B_frob"]
              + [f"B_eig{i}_re" for i in range(n)]
              + [f"B_eig{i}_im" for i in range(n)] + ["V"])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for t in sorted(rows):
            row = [f"{t:.12g}"]
            data = rows[t]
            pt = data.get("point")
            row += [f"{c:.17g}" for c in pt] if pt is not None else [""] * d
            B = data.get("B")
            if B is not None:
                lam = np.sort_complex(np.linalg.eigvals(B))
                row += [f"{np.linalg.norm(B):.17g}"]
                row += [f"{z.real:.17g}" for z in lam]
                row += [f"{z.imag:.17g}" for z in lam]
            else:
                row += [""] * (1 + 2 * n)
            vval = data.get("V")
            row += [f"{vval:.17g}" if vval is not None else ""]
            w.writerow(row)
