"""Second-order forward-mode jets.

A :class:`Jet2` carries the value, gradient and Hessian of a scalar quantity
with respect to ``d`` chart coordinates.  Arithmetic propagates all three
exactly (to machine precision), so curvature formulas downstream never touch
finite differences.  These are the reference rules: the compiled programs of
:mod:`foliate.expr` perform the same operations in the same order, and the
test suite checks them against a one-``Jet2``-per-node interpreter.
``eval_jet`` on a single expression returns its result as a ``Jet2``.

Jets are batch-capable: ``val`` has an arbitrary leading shape ``B``,
``grad`` has shape ``B + (d,)`` and ``hess`` has shape ``B + (d, d)``.
A single chart point is the ``B == ()`` case.

The Hessian is kept exactly symmetric by construction: every operation
assembles it from symmetric ingredients (``outer(a, b) + outer(b, a)`` is
bitwise symmetric because float addition and multiplication commute), so
``j.hess == j.hess.swapaxes(-1, -2)`` holds bitwise.  Mixing with plain
floats/arrays is supported and treats them as constants.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = ["Jet2", "jet_vars", "as_jet2", "apply_named"]


def _outer2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # symmetrized outer product of two gradient stacks, exactly symmetric
    return a[..., :, None] * b[..., None, :] + b[..., :, None] * a[..., None, :]


def _outer(a: np.ndarray) -> np.ndarray:
    return a[..., :, None] * a[..., None, :]


class Jet2:
    """(value, gradient, Hessian) triple with forward-mode arithmetic."""

    __slots__ = ("val", "grad", "hess")

    def __init__(self, val, grad, hess):
        self.val = np.asarray(val, dtype=float)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = np.asarray(hess, dtype=float)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def variable(value, index: int, dim: int) -> "Jet2":
        """Jet of the coordinate function ``x_index`` at ``value``."""
        value = np.asarray(value, dtype=float)
        batch = value.shape
        grad = np.zeros(batch + (dim,))
        grad[..., index] = 1.0
        hess = np.zeros(batch + (dim, dim))
        return Jet2(value, grad, hess)

    @staticmethod
    def constant(value, dim: int, batch: tuple = ()) -> "Jet2":
        value = np.broadcast_to(np.asarray(value, dtype=float), batch).copy()
        return Jet2(value, np.zeros(batch + (dim,)), np.zeros(batch + (dim, dim)))

    @property
    def dim(self) -> int:
        return self.grad.shape[-1]

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.val + other.val, self.grad + other.grad,
                        self.hess + other.hess)
        return Jet2(self.val + other, self.grad, self.hess)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.val, -self.grad, -self.hess)

    def __sub__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.val - other.val, self.grad - other.grad,
                        self.hess - other.hess)
        return Jet2(self.val - other, self.grad, self.hess)

    def __rsub__(self, other):
        return Jet2(other - self.val, -self.grad, -self.hess)

    def __mul__(self, other):
        if isinstance(other, Jet2):
            val = self.val * other.val
            grad = self.val[..., None] * other.grad + other.val[..., None] * self.grad
            hess = (self.val[..., None, None] * other.hess
                    + other.val[..., None, None] * self.hess
                    + _outer2(self.grad, other.grad))
            return Jet2(val, grad, hess)
        other = np.asarray(other, dtype=float)
        return Jet2(self.val * other, self.grad * other[..., None],
                    self.hess * other[..., None, None])

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet2":
        if np.any(self.val == 0.0):
            raise DomainError("division by zero")
        return self._lift(1.0 / self.val, -1.0 / self.val**2, 2.0 / self.val**3)

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            return self * other.reciprocal()
        other = np.asarray(other, dtype=float)
        if np.any(other == 0.0):
            raise DomainError("division by zero")
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, p):
        if isinstance(p, Jet2):
            # general exponent: b^p = exp(p*log(b)), requires b > 0
            return (p * self.log()).exp()
        pf = float(p)
        if pf == int(pf):
            return self._int_pow(int(pf))
        if np.any(self.val <= 0.0):
            raise DomainError("fractional power of nonpositive base")
        return self._lift(self.val**pf, pf * self.val**(pf - 1.0),
                          pf * (pf - 1.0) * self.val**(pf - 2.0))

    def __rpow__(self, base):
        base = np.asarray(base, dtype=float)
        if np.any(base <= 0.0):
            raise DomainError("power with nonpositive base and non-integer jet exponent")
        return (self * np.log(base)).exp()

    def _int_pow(self, n: int) -> "Jet2":
        if n == 0:
            return Jet2(np.ones_like(self.val), np.zeros_like(self.grad),
                        np.zeros_like(self.hess))
        if n < 0:
            return self.reciprocal()._int_pow(-n)
        # binary exponentiation by repeated jet multiplication (exact rules)
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- chain rule for elementary functions --------------------------------

    def _lift(self, u, du, d2u) -> "Jet2":
        """Compose with a scalar function given (u, u', u'') at ``val``."""
        u = np.asarray(u, dtype=float)
        du = np.asarray(du, dtype=float)
        d2u = np.asarray(d2u, dtype=float)
        grad = du[..., None] * self.grad
        hess = du[..., None, None] * self.hess + d2u[..., None, None] * _outer(self.grad)
        return Jet2(u, grad, hess)

    def sin(self):
        s, c = np.sin(self.val), np.cos(self.val)
        return self._lift(s, c, -s)

    def cos(self):
        s, c = np.sin(self.val), np.cos(self.val)
        return self._lift(c, -s, -c)

    def tan(self):
        t = np.tan(self.val)
        sec2 = 1.0 + t * t
        return self._lift(t, sec2, 2.0 * t * sec2)

    def exp(self):
        e = np.exp(self.val)
        return self._lift(e, e, e)

    def log(self):
        if np.any(self.val <= 0.0):
            raise DomainError("log of nonpositive value")
        return self._lift(np.log(self.val), 1.0 / self.val, -1.0 / self.val**2)

    def sqrt(self):
        if np.any(self.val <= 0.0):
            # the derivative of sqrt blows up at 0, so jets require val > 0
            raise DomainError("sqrt of nonpositive value (jet derivative undefined at 0)")
        r = np.sqrt(self.val)
        return self._lift(r, 0.5 / r, -0.25 / (r * self.val))

    def sinh(self):
        s, c = np.sinh(self.val), np.cosh(self.val)
        return self._lift(s, c, s)

    def cosh(self):
        s, c = np.sinh(self.val), np.cosh(self.val)
        return self._lift(c, s, c)

    def tanh(self):
        t = np.tanh(self.val)
        sech2 = 1.0 - t * t
        return self._lift(t, sech2, -2.0 * t * sech2)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Jet2(val={self.val!r}, grad={self.grad!r})"


def jet_vars(p, dim: int) -> list[Jet2]:
    """Coordinate jets ``[x_0, ..., x_{dim-1}]`` seeded at point(s) ``p``.

    ``p`` has shape ``(..., dim)``; each returned jet carries the batch shape.
    """
    p = np.asarray(p, dtype=float)
    return [Jet2.variable(p[..., i], i, dim) for i in range(dim)]


def as_jet2(x, dim: int, batch: tuple = ()) -> Jet2:
    """Lift a constant (or pass through a jet) to a Jet2 of given shape."""
    if isinstance(x, Jet2):
        return x
    return Jet2.constant(x, dim, batch)


_VALUE_FUNCS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
    "log": np.log, "sqrt": np.sqrt, "sinh": np.sinh, "cosh": np.cosh,
    "tanh": np.tanh,
}


def apply_named(name: str, x):
    """Apply elementary function ``name`` to a float/array or a Jet2."""
    if isinstance(x, Jet2):
        return getattr(x, name)()
    if name == "log" and np.any(np.asarray(x) <= 0.0):
        raise DomainError("log of nonpositive value")
    if name == "sqrt" and np.any(np.asarray(x) < 0.0):
        raise DomainError("sqrt of negative value")
    return _VALUE_FUNCS[name](x)
