"""Reference interpreter for chart expressions: the oracle of the compiled path.

``interpret`` walks the AST over any scalar family (floats, NumPy arrays or
:class:`~foliate.jets.Jet2` jets), one ``Jet2`` per node.  The compiled
programs of :mod:`foliate.expr` mirror its rules operation by operation, so
on well-defined inputs they must agree with it bit for bit.
"""

import numpy as np

from foliate.errors import DomainError
from foliate.expr import (Add, Call, Coord, Div, Expr, Mul, Neg, Num, Pow,
                          Sub, to_source)
from foliate.jets import Jet2, apply_named, jet_vars


def _is_int_literal(e: Expr):
    match e:
        case Num(value=v) if v == int(v):
            return int(v)
        case Neg(arg=Num(value=v)) if v == int(v):
            return -int(v)
    return None


def _attach(err: DomainError, e: Expr) -> DomainError:
    if err.expr_text is None:
        return DomainError(str(err), to_source(e))
    return err


def _int_pow_value(base, n: int):
    if isinstance(base, Jet2):
        return base._int_pow(n)
    if n < 0:
        if np.any(np.asarray(base) == 0.0):
            raise DomainError("division by zero")
        base = 1.0 / base
        n = -n
    result = None
    b = base
    while n:
        if n & 1:
            result = b if result is None else result * b
        n >>= 1
        if n:
            b = b * b
    return 1.0 if result is None else result


def interpret(e: Expr, coords):
    """Evaluate ``e`` with ``coords[i]`` standing for ``x{i}``."""
    match e:
        case Num(value=v):
            return v
        case Coord(index=i):
            return coords[i]
        case Neg(arg=a):
            return -interpret(a, coords)
        case Add(left=a, right=b):
            return interpret(a, coords) + interpret(b, coords)
        case Sub(left=a, right=b):
            return interpret(a, coords) - interpret(b, coords)
        case Mul(left=a, right=b):
            return interpret(a, coords) * interpret(b, coords)
        case Div(left=a, right=b):
            try:
                return interpret(a, coords) / interpret(b, coords)
            except DomainError as err:
                raise _attach(err, e) from None
        case Pow(base=a, exponent=b):
            base = interpret(a, coords)
            n = _is_int_literal(b)
            try:
                if n is not None:
                    return _int_pow_value(base, n)
                return base ** interpret(b, coords)
            except DomainError as err:
                raise _attach(err, e) from None
        case Call(func=f, arg=a):
            try:
                return apply_named(f, interpret(a, coords))
            except DomainError as err:
                raise _attach(err, e) from None
    raise TypeError(f"not an Expr: {e!r}")


def oracle_value(e: Expr, p):
    """Plain values at point(s) ``p`` of shape ``(..., d)``, in ``p``'s dtype."""
    p = np.asarray(p)
    return interpret(e, [p[..., i] for i in range(p.shape[-1])])


def oracle_jet(e: Expr, p) -> Jet2:
    """Second-order jet at point(s) ``p``, one ``Jet2`` per AST node."""
    p = np.asarray(p, dtype=float)
    out = interpret(e, jet_vars(p, p.shape[-1]))
    if isinstance(out, Jet2):
        return out
    return Jet2.constant(out, p.shape[-1], p.shape[:-1])
