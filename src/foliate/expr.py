"""Tiny closed-form expression language for chart data.

Metric entries, spanning fields and weight fields are given as strings like
``"exp(0.2*sin(2*pi*x0))"`` over chart coordinates ``x0..x{d-1}``.  A tuple
of parsed expressions compiles into a :class:`Program`: one generated Python
function per jet order (0: values; 1: values and gradients; 2: values,
gradients and Hessians) that works on one point or a batch of points.  The
generated code shares equal subexpressions across the tuple, folds
constants, skips derivative components that are structurally zero and
deletes each temporary after its last use, so batches keep only the live
ones.  It performs the operations of :class:`~foliate.jets.Jet2` arithmetic
(forward-mode automatic differentiation, Griewank & Walther, *Evaluating
Derivatives*, 2008) in the same order, so it agrees with a one-jet-per-node
interpreter bit for bit wherever the results are finite.  :func:`eval_jet`
is the one place programs run; :func:`eval_value` is its order 0.

Grammar (EBNF, also in docs/grammar.md)::

    expr    = term , { ("+" | "-") , term } ;
    term    = factor , { ("*" | "/") , factor } ;
    factor  = "-" , factor | power ;
    power   = atom , [ "^" , factor ] ;
    atom    = number | coord | func , "(" , expr , ")" | "(" , expr , ")"
            | "pi" | "e" ;
    coord   = "x" , digit , { digit } ;
    func    = "sin" | "cos" | "tan" | "exp" | "log" | "sqrt"
            | "sinh" | "cosh" | "tanh" ;

``^`` binds tightest and is right-associative; unary minus binds next
(so ``-x0^2 == -(x0^2)``); ``*``/``/`` then ``+``/``-`` are left-associative.
``pi`` and ``e`` parse to numeric literals.  Integer exponents are detected
syntactically and evaluated by repeated multiplication, so ``x0^2`` is exact
for any sign of ``x0``.

Syntax errors raise :class:`~foliate.errors.ParseError` with the character
offset of the offending token; evaluation domain errors raise
:class:`~foliate.errors.DomainError` carrying the offending subexpression.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError, ParseError
from .jets import Jet2

__all__ = [
    "Expr", "Num", "Coord", "Neg", "Add", "Sub", "Mul", "Div", "Pow", "Call",
    "parse", "to_source", "Program", "eval_value", "eval_jet", "differentiate",
    "max_coord", "FUNCTIONS",
]

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh", "tanh")
CONSTANTS = {"pi": math.pi, "e": math.e}


class Expr:
    """Base class for AST nodes (frozen dataclasses, structural equality)."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Num(Expr):
    value: float


@dataclass(frozen=True, slots=True)
class Coord(Expr):
    index: int


@dataclass(frozen=True, slots=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, slots=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Pow(Expr):
    base: Expr
    exponent: Expr


@dataclass(frozen=True, slots=True)
class Call(Expr):
    func: str
    arg: Expr


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


_COORD = re.compile(r"x(\d+)\Z")


class _Parser:
    def __init__(self, tokens, dim: int | None):
        self.tokens = tokens
        self.i = 0
        self.dim = dim

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.next()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                rhs = self.parse_term()
                node = Add(node, rhs) if text == "+" else Sub(node, rhs)
            else:
                return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.next()
                rhs = self.parse_factor()
                node = Mul(node, rhs) if text == "*" else Div(node, rhs)
            else:
                return node

    def parse_factor(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.next()
            return Neg(self.parse_factor())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.next()
            return Pow(base, self.parse_factor())
        return base

    def parse_atom(self) -> Expr:
        kind, text, pos = self.next()
        if kind == "num":
            return Num(float(text))
        if kind == "name":
            if text in CONSTANTS:
                return Num(CONSTANTS[text])
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.parse_expr()
                self.expect_op(")")
                return Call(text, arg)
            m = _COORD.match(text)
            if m:
                index = int(m.group(1))
                if self.dim is not None and index >= self.dim:
                    raise ParseError(
                        f"coordinate x{index} out of range for a {self.dim}-dimensional chart",
                        pos)
                return Coord(index)
            raise ParseError(f"unknown identifier {text!r}", pos)
        if kind == "op" and text == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", pos)


def parse(src: str, dim: int | None = None) -> Expr:
    """Parse ``src`` into an AST.

    If ``dim`` is given, coordinates ``x{i}`` with ``i >= dim`` are rejected
    with a positioned :class:`ParseError`.
    """
    parser = _Parser(_tokenize(src), dim)
    node = parser.parse_expr()
    kind, text, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing token {text!r}", pos)
    return node


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4}


def _prec(e: Expr) -> int:
    return _PREC.get(type(e), 5)


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_source(e: Expr) -> str:
    """Render an AST back to source; ``parse(to_source(e)) == e`` holds
    structurally for any tree built from nonnegative ``Num`` literals."""
    match e:
        case Num(value=v):
            return _fmt_num(v)
        case Coord(index=i):
            return f"x{i}"
        case Neg(arg=a):
            inner = to_source(a)
            return f"-({inner})" if _prec(a) < 3 else f"-{inner}"
        case Add(left=a, right=b) | Sub(left=a, right=b):
            op = "+" if isinstance(e, Add) else "-"
            ls = to_source(a) if _prec(a) >= 1 else f"({to_source(a)})"
            rs = to_source(b) if _prec(b) > 1 else f"({to_source(b)})"
            return f"{ls}{op}{rs}"
        case Mul(left=a, right=b) | Div(left=a, right=b):
            op = "*" if isinstance(e, Mul) else "/"
            ls = to_source(a) if _prec(a) >= 2 else f"({to_source(a)})"
            rs = to_source(b) if _prec(b) > 2 else f"({to_source(b)})"
            return f"{ls}{op}{rs}"
        case Pow(base=a, exponent=b):
            ls = to_source(a) if _prec(a) > 4 else f"({to_source(a)})"
            # exponent position admits '-' and chained '^' without parens
            rs = to_source(b) if _prec(b) >= 3 else f"({to_source(b)})"
            return f"{ls}^{rs}"
        case Call(func=f, arg=a):
            return f"{f}({to_source(a)})"
    raise TypeError(f"not an Expr: {e!r}")


def max_coord(e: Expr) -> int:
    """Largest coordinate index appearing in ``e`` (-1 if none)."""
    match e:
        case Num():
            return -1
        case Coord(index=i):
            return i
        case Neg(arg=a) | Call(arg=a):
            return max_coord(a)
        case Add(left=a, right=b) | Sub(left=a, right=b) | Mul(left=a, right=b) \
                | Div(left=a, right=b) | Pow(base=a, exponent=b):
            return max(max_coord(a), max_coord(b))
    raise TypeError(f"not an Expr: {e!r}")


# ---------------------------------------------------------------------------
# evaluation: expressions compiled to straight-line NumPy code
# ---------------------------------------------------------------------------

def _is_int_literal(e: Expr) -> int | None:
    """Return the integer exponent if ``e`` is an integral literal (or its
    negation), else None.  Detection is syntactic, per the grammar note."""
    match e:
        case Num(value=v) if v == int(v):
            return int(v)
        case Neg(arg=Num(value=v)) if v == int(v):
            return -int(v)
    return None


class _K:
    """A folded constant: the float or NumPy scalar that a coordinate-free
    subtree evaluates to (plain Python/NumPy scalar arithmetic)."""

    __slots__ = ("obj",)

    def __init__(self, obj):
        self.obj = obj

    def key(self):
        return ("k", type(self.obj).__name__, float(self.obj).hex())


class _Jet:
    """Operands of a jet: value, gradient and upper-triangle Hessian (in
    ``_Tape.pairs`` order); ``None`` is a structural zero."""

    __slots__ = ("v", "g", "h")

    def __init__(self, v, g, h):
        self.v, self.g, self.h = v, g, h


def _constant(fn, *args):
    """Fold ``fn(*args)`` on plain scalars; a complex result or a Python
    ``ZeroDivisionError`` is a domain error."""
    try:
        out = fn(*args)
    except ZeroDivisionError:
        raise DomainError("division by zero") from None
    if isinstance(out, complex):
        raise DomainError("fractional power of negative base")
    return _K(out)


def _call_value(f: str, x):
    if f == "log" and np.any(np.asarray(x) <= 0.0):
        raise DomainError("log of nonpositive value")
    if f == "sqrt" and np.any(np.asarray(x) < 0.0):
        raise DomainError("sqrt of negative value")
    return getattr(np, f)(x)


def _int_pow_value(base, n: int):
    """``base ** n`` by binary powering (a negative ``n`` inverts first)."""
    if n < 0:
        if np.any(np.asarray(base) == 0.0):
            raise DomainError("division by zero")
        base = 1.0 / base
        n = -n
    result = None
    while n:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    return 1.0 if result is None else result


class _Tape:
    """Straight-line code for a tuple of expressions, one scalar node per
    value or derivative component, with equal nodes shared.

    Value tapes (``jet=False``) reproduce plain evaluation over floats and
    arrays.  Jet tapes reproduce forward-mode second-order arithmetic rule
    by rule (the rules of :class:`~foliate.jets.Jet2`), skipping components
    that are structurally zero, so every value, gradient and Hessian entry
    is computed by the same floating-point operations in the same order.
    Coordinate-free subtrees fold to constants, as in plain evaluation.
    """

    def __init__(self, dim: int, jet: bool):
        self.dim, self.jet = dim, jet
        self.pairs = [(k, m) for k in range(dim) for m in range(k, dim)]
        self.nodes: list[tuple] = []
        self.ids: dict = {}
        self.fails: list[tuple[str, str]] = []
        self.src = ""

    # -- nodes: (kind, operands, attribute) ------------------------------------

    def node(self, kind: str, *operands, attr=None):
        if kind in ("+", "*"):
            # IEEE addition and multiplication commute bitwise
            operands = sorted(operands, key=lambda a: (
                (1, a.key()) if isinstance(a, _K) else (0, a)))
        key = (kind, attr, *(a.key() if isinstance(a, _K) else a for a in operands))
        if key not in self.ids:
            self.ids[key] = len(self.nodes)
            self.nodes.append((kind, tuple(operands), attr))
        return self.ids[key]

    def fold(self, fn, *args):
        """Constant result, or an unconditional raise where folding fails."""
        try:
            return _constant(fn, *(a.obj for a in args))
        except DomainError as err:
            self.fail(str(err))
            return _K(1.0)

    def fold_component(self, fn, *args):
        """Fold inside a jet component, where a zero is a structural zero."""
        out = self.fold(fn, *args)
        return None if self.jet and out.obj == 0.0 else out

    def check(self, test: str, a, message: str):
        """Raise the domain error where ``any(a test 0)``; the first check
        of a value wins, as the first failing node raises in evaluation."""
        key = ("check", test, a)
        if key not in self.ids:
            self.ids[key] = len(self.nodes)
            self.nodes.append(("check", (a,), (test, len(self.fails))))
            self.fails.append((message, self.src))

    def fail(self, message: str):
        self.nodes.append(("raise", (), len(self.fails)))
        self.fails.append((message, self.src))

    # -- scalar arithmetic (None is a structural zero of a jet component) -------

    def add(self, a, b):
        if a is None or b is None:
            return b if a is None else a
        if isinstance(a, _K) and isinstance(b, _K):
            return self.fold_component(lambda x, y: x + y, a, b)
        return self.node("+", a, b)

    def sub(self, a, b):
        if b is None:
            return a
        if a is None:
            return self.neg(b)
        if isinstance(a, _K) and isinstance(b, _K):
            return self.fold_component(lambda x, y: x - y, a, b)
        return self.node("-", a, b)

    def neg(self, a):
        if a is None:
            return None
        if isinstance(a, _K):
            return self.fold_component(lambda x: -x, a)
        if self.jet and self.nodes[a][0] == "neg":
            return self.nodes[a][1][0]
        return self.node("neg", a)

    def mul(self, a, b):
        if a is None or b is None:
            return None
        if isinstance(a, _K) and isinstance(b, _K):
            return self.fold_component(lambda x, y: x * y, a, b)
        if self.jet:
            # exact in IEEE arithmetic; plain evaluation keeps the product,
            # since ``**`` of a bare coordinate takes the array path
            for u, w in ((a, b), (b, a)):
                if isinstance(u, _K) and u.obj == 1.0:
                    return w
                if isinstance(u, _K) and u.obj == -1.0:
                    return self.neg(w)
        return self.node("*", a, b)

    def div(self, a, b):
        if isinstance(a, _K) and isinstance(b, _K):
            return self.fold(lambda x, y: x / y, a, b)
        return self.node("/", a, b)

    # -- plain evaluation ------------------------------------------------------

    def value(self, e: Expr):
        match e:
            case Num(value=v):
                return _K(v)
            case Coord(index=i):
                return self.node("x", attr=i)
            case Neg(arg=a):
                return self.neg(self.value(a))
            case Add(left=a, right=b):
                return self.add(self.value(a), self.value(b))
            case Sub(left=a, right=b):
                return self.sub(self.value(a), self.value(b))
            case Mul(left=a, right=b):
                return self.mul(self.value(a), self.value(b))
            case Div(left=a, right=b):
                num, den = self.value(a), self.value(b)
                self.src = to_source(e)
                return self.div(num, den)
            case Pow(base=a, exponent=b):
                base = self.value(a)
                n = _is_int_literal(b)
                self.src = to_source(e)
                if n is not None:
                    if isinstance(base, _K):
                        return self.fold(lambda x: _int_pow_value(x, n), base)
                    return self.int_pow(base, n)
                expo = self.value(b)
                self.src = to_source(e)
                if isinstance(base, _K) and isinstance(expo, _K):
                    return self.fold(lambda x, y: x ** y, base, expo)
                return self.node("**", base, expo)
            case Call(func=f, arg=a):
                x = self.value(a)
                self.src = to_source(e)
                if isinstance(x, _K):
                    return self.fold(lambda y: _call_value(f, y), x)
                if f in ("log", "sqrt"):
                    self.check("<=" if f == "log" else "<", x,
                               "log of nonpositive value" if f == "log"
                               else "sqrt of negative value")
                return self.node("call", x, attr=f)
        raise TypeError(f"not an Expr: {e!r}")

    def int_pow(self, base, n: int):
        if n < 0:
            self.check("==", base, "division by zero")
            base = self.div(_K(1.0), base)
            n = -n
        result = None
        while n:
            if n & 1:
                result = base if result is None else self.mul(result, base)
            n >>= 1
            if n:
                base = self.mul(base, base)
        return _K(1.0) if result is None else result

    # -- jets --------------------------------------------------------------------

    def jet_of(self, e: Expr):
        """A ``_Jet``, or a ``_K`` for a coordinate-free subtree."""
        match e:
            case Num(value=v):
                return _K(v)
            case Coord(index=i):
                g = [None] * self.dim
                g[i] = _K(1.0)
                return _Jet(self.node("x", attr=i), g, [None] * len(self.pairs))
            case Neg(arg=a):
                a = self.jet_of(a)
                if isinstance(a, _K):
                    return self.fold(lambda x: -x, a)
                return self.each(self.neg, a)
            case Add(left=a, right=b):
                return self.j_add(self.jet_of(a), self.jet_of(b))
            case Sub(left=a, right=b):
                return self.j_sub(self.jet_of(a), self.jet_of(b))
            case Mul(left=a, right=b):
                a, b = self.jet_of(a), self.jet_of(b)
                if isinstance(a, _K) and isinstance(b, _K):
                    return self.fold(lambda x, y: x * y, a, b)
                if isinstance(a, _K) or isinstance(b, _K):
                    return self.scale(*((b, a) if isinstance(a, _K) else (a, b)))
                return self.j_mul(a, b)
            case Div(left=a, right=b):
                a, b = self.jet_of(a), self.jet_of(b)
                self.src = to_source(e)
                return self.j_div(a, b)
            case Pow(base=a, exponent=b):
                base = self.jet_of(a)
                n = _is_int_literal(b)
                self.src = to_source(e)
                if n is not None:
                    if isinstance(base, _K):
                        return self.fold(lambda x: _int_pow_value(x, n), base)
                    return self.j_int_pow(base, n)
                expo = self.jet_of(b)
                self.src = to_source(e)
                return self.j_pow(base, expo)
            case Call(func=f, arg=a):
                x = self.jet_of(a)
                self.src = to_source(e)
                if isinstance(x, _K):
                    return self.fold(lambda y: _call_value(f, y), x)
                return self.j_call(f, x)
        raise TypeError(f"not an Expr: {e!r}")

    def each(self, op, a: _Jet) -> _Jet:
        return _Jet(op(a.v), [op(x) for x in a.g], [op(x) for x in a.h])

    def j_add(self, a, b):
        if isinstance(a, _K) and isinstance(b, _K):
            return self.fold(lambda x, y: x + y, a, b)
        if isinstance(a, _K) or isinstance(b, _K):
            a, b = (b, a) if isinstance(a, _K) else (a, b)
            return _Jet(self.add(a.v, b), a.g, a.h)
        return _Jet(self.add(a.v, b.v), list(map(self.add, a.g, b.g)),
                    list(map(self.add, a.h, b.h)))

    def j_sub(self, a, b):
        if isinstance(a, _K) and isinstance(b, _K):
            return self.fold(lambda x, y: x - y, a, b)
        if isinstance(b, _K):
            return _Jet(self.sub(a.v, b), a.g, a.h)
        if isinstance(a, _K):
            return _Jet(self.sub(a, b.v), [self.neg(x) for x in b.g],
                        [self.neg(x) for x in b.h])
        return _Jet(self.sub(a.v, b.v), list(map(self.sub, a.g, b.g)),
                    list(map(self.sub, a.h, b.h)))

    def scale(self, a: _Jet, c: _K) -> _Jet:
        """Jet times a constant."""
        return self.each(lambda x: self.mul(x, c), a)

    def j_mul(self, a: _Jet, b: _Jet) -> _Jet:
        mul, add = self.mul, self.add
        g = [add(mul(a.v, bg), mul(b.v, ag)) for ag, bg in zip(a.g, b.g)]
        h = [add(add(mul(a.v, bh), mul(b.v, ah)),
                 add(mul(a.g[k], b.g[m]), mul(b.g[k], a.g[m])))
             for (k, m), ah, bh in zip(self.pairs, a.h, b.h)]
        return _Jet(mul(a.v, b.v), g, h)

    def lift(self, a: _Jet, u, du, d2u) -> _Jet:
        """Compose with a scalar function given ``(u, u', u'')`` at ``a.v``."""
        mul, add = self.mul, self.add
        return _Jet(u, [mul(du, x) for x in a.g],
                    [add(mul(du, ah), mul(d2u, mul(a.g[k], a.g[m])))
                     for (k, m), ah in zip(self.pairs, a.h)])

    def power(self, v, c):
        """``v ** c`` as on an array (a NumPy scalar would take another path)."""
        return self.node("**", v, _K(c))

    def reciprocal(self, a: _Jet) -> _Jet:
        self.check("==", a.v, "division by zero")
        v = a.v
        return self.lift(a, self.div(_K(1.0), v),
                         self.div(_K(-1.0), self.power(v, 2)),
                         self.div(_K(2.0), self.power(v, 3)))

    def j_div(self, a, b):
        if isinstance(a, _K) and isinstance(b, _K):
            return self.fold(lambda x, y: x / y, a, b)
        if isinstance(a, _K):
            return self.scale(self.reciprocal(b), a)
        if isinstance(b, _K):
            other = np.asarray(b.obj, dtype=float)
            if np.any(other == 0.0):
                self.fail("division by zero")
                return a
            return self.scale(a, _K(1.0 / other))
        return self.j_mul(a, self.reciprocal(b))

    def j_int_pow(self, a: _Jet, n: int) -> _Jet:
        if n == 0:
            return _Jet(self.node("ones", a.v), [None] * self.dim,
                        [None] * len(self.pairs))
        if n < 0:
            return self.j_int_pow(self.reciprocal(a), -n)
        result = None
        while n:
            if n & 1:
                result = a if result is None else self.j_mul(result, a)
            n >>= 1
            if n:
                a = self.j_mul(a, a)
        return result

    def j_pow(self, a, b):
        if isinstance(a, _K) and isinstance(b, _K):
            return self.fold(lambda x, y: x ** y, a, b)
        if isinstance(a, _K):
            # c ** f = exp(f log c), for c > 0
            base = np.asarray(a.obj, dtype=float)
            if np.any(base <= 0.0):
                self.fail("power with nonpositive base and non-integer jet exponent")
                return b
            return self.j_call("exp", self.scale(b, _K(np.log(base))))
        if isinstance(b, _Jet):
            # f ** h = exp(h log f)
            return self.j_call("exp", self.j_mul(b, self.j_call("log", a)))
        pf = float(b.obj)
        if pf == int(pf):
            return self.j_int_pow(a, int(pf))
        self.check("<=", a.v, "fractional power of nonpositive base")
        return self.lift(a, self.power(a.v, pf),
                         self.mul(_K(pf), self.power(a.v, pf - 1.0)),
                         self.mul(_K(pf * (pf - 1.0)), self.power(a.v, pf - 2.0)))

    def j_call(self, f: str, a: _Jet) -> _Jet:
        v, mul, call = a.v, self.mul, (lambda name: self.node("call", a.v, attr=name))
        if f in ("sin", "cos"):
            s, c = call("sin"), call("cos")
            return (self.lift(a, s, c, self.neg(s)) if f == "sin"
                    else self.lift(a, c, self.neg(s), self.neg(c)))
        if f in ("sinh", "cosh"):
            s, c = call("sinh"), call("cosh")
            return self.lift(a, s, c, s) if f == "sinh" else self.lift(a, c, s, c)
        if f == "exp":
            e = call("exp")
            return self.lift(a, e, e, e)
        if f == "tan":
            t = call("tan")
            sec2 = self.add(_K(1.0), mul(t, t))
            return self.lift(a, t, sec2, mul(mul(_K(2.0), t), sec2))
        if f == "tanh":
            t = call("tanh")
            sech2 = self.sub(_K(1.0), mul(t, t))
            return self.lift(a, t, sech2, mul(mul(_K(-2.0), t), sech2))
        if f == "log":
            self.check("<=", v, "log of nonpositive value")
            return self.lift(a, call("log"), self.div(_K(1.0), v),
                             self.div(_K(-1.0), self.power(v, 2)))
        if f == "sqrt":
            # the derivative of sqrt blows up at 0, so jets require v > 0
            self.check("<=", v, "sqrt of nonpositive value (jet derivative "
                       "undefined at 0)")
            r = call("sqrt")
            return self.lift(a, r, self.div(_K(0.5), r),
                             self.div(_K(-0.25), mul(r, v)))
        raise TypeError(f"unknown function {f!r}")

    # -- code generation -----------------------------------------------------------

    def source(self, outputs, order: int) -> tuple[str, dict]:
        """Python source of ``_f(p, o0, ..., o{order})`` and its globals.

        ``outputs`` lists ``(array, positions, operand)``: the function
        stores the operand at those flat positions of output ``o{array}``
        (value, gradient, Hessian) right where it is computed, and deletes
        every temporary after its last use.
        """
        nodes, consts = self.nodes, {}
        outputs = [out for out in outputs if out[0] <= order and out[2] is not None]
        stores: dict = {}
        for arr, pos, ref in outputs:
            stores.setdefault(ref if isinstance(ref, int) else -1, []).append(
                (arr, pos, ref))

        def refs(i):
            return [a for a in nodes[i][1] if isinstance(a, int)]

        live = set()
        stack = [i for i in stores if i >= 0]
        stack += [i for i, op in enumerate(nodes) if op[0] in ("check", "raise")]
        while stack:
            i = stack.pop()
            if i not in live:
                live.add(i)
                stack.extend(refs(i))
        last = {r: i for i in sorted(live) for r in refs(i)}

        def name(a):
            if isinstance(a, int):
                kind, _, attr = nodes[a]
                return f"x{attr}" if kind == "x" else f"t{a}"
            if type(a.obj) in (float, int) and math.isfinite(a.obj):
                text = repr(a.obj)
                return f"({text})" if text.startswith("-") else text
            return consts.setdefault(a.key(), (f"_c{len(consts)}", a.obj))[0]

        def pow_operand(a):
            # arrays, not NumPy scalars, reach ``**`` in jets and as bare
            # coordinates in plain evaluation
            if isinstance(a, int) and (self.jet or nodes[a][0] == "x"):
                return f"_ap({name(a)})"
            return name(a)

        def store(key):
            return ["    " + " = ".join([*(f"o{arr}[{q}]" for q in pos), name(ref)])
                    for arr, pos, ref in stores.get(key, ())]

        coords = ", ".join(f"x{i}" for i in range(self.dim))
        body = [f"    {coords}, = p if p.ndim == 1 else _np.moveaxis(p, -1, 0)"]
        body += store(-1)
        for i in sorted(live):
            kind, args, attr = nodes[i]
            if kind == "raise":
                body.append(f"    raise _E(*_F[{attr}])")
                continue
            if kind == "check":
                body.append(f"    if ({name(args[0])} {attr[0]} 0.0).any():"
                            f" raise _E(*_F[{attr[1]}])")
            elif kind != "x":
                a = [name(x) for x in args]
                rhs = {"neg": lambda: f"-{a[0]}",
                       "call": lambda: f"_np.{attr}({a[0]})",
                       "ones": lambda: f"_np.ones_like({a[0]})",
                       "**": lambda: " ** ".join(map(pow_operand, args)),
                       }.get(kind, lambda: f"{a[0]} {kind} {a[1]}")()
                body.append(f"    t{i} = {rhs}")
            body += store(i)
            dead = sorted({r for r in [*refs(i), i]
                           if last.get(r, i) == i and nodes[r][0] not in ("x", "check")})
            if dead:
                body.append("    del " + ", ".join(f"t{r}" for r in dead))
        args = ", ".join(f"o{k}" for k in range(order + 1))
        namespace = {"_np": np, "_ap": np.asarray, "_E": DomainError,
                     "_F": list(self.fails), **dict(consts.values())}
        return f"def _f(p, {args}):\n" + "\n".join(body) + "\n", namespace


class Program:
    """A tuple of expressions compiled together into straight-line code.

    ``shape`` is the layout of one output and ``slots[k]`` the positions in
    it that expression ``k`` fills (an off-diagonal entry of a symmetric
    matrix fills two).  By default expression ``k`` fills position ``(k,)``.
    Nothing is generated on construction: the code for an order is built
    and compiled on its first evaluation by :func:`eval_jet`, and kept.
    """

    __slots__ = ("exprs", "dim", "shape", "slots", "_sizes", "_shapes", "_code")

    def __init__(self, exprs, dim: int, shape: tuple | None = None,
                 slots: tuple | None = None):
        self.exprs = tuple(exprs)
        self.dim = dim
        self.shape = (len(self.exprs),) if shape is None else tuple(shape)
        self.slots = (tuple(((k,),) for k in range(len(self.exprs)))
                      if slots is None else slots)
        for e in self.exprs:
            if max_coord(e) >= dim:
                raise InputError(f"expression '{to_source(e)}' uses coordinates "
                                 f"beyond x{dim - 1}")
        size = math.prod(self.shape)
        self._sizes = (size, size * dim, size * dim * dim)
        self._shapes = (self.shape, self.shape + (dim,), self.shape + (dim, dim))
        self._code: dict = {}

    def source(self, order: int) -> str:
        """The generated Python source for ``order`` (0, 1 or 2)."""
        return self._build(order)[0]

    def _build(self, order: int):
        tape = _Tape(self.dim, jet=order > 0)
        d, outputs = self.dim, []
        for e, slots in zip(self.exprs, self.slots):
            flat = [int(np.ravel_multi_index(s, self.shape)) for s in slots]
            if order == 0:
                outputs.append((0, flat, tape.value(e)))
                continue
            j = tape.jet_of(e)
            if isinstance(j, _K):
                outputs.append((0, flat, j))
                continue
            outputs.append((0, flat, j.v))
            for k, x in enumerate(j.g):
                outputs.append((1, [f * d + k for f in flat], x))
            for (k, m), x in zip(tape.pairs, j.h):
                pos = {(f * d + k) * d + m for f in flat} | {(f * d + m) * d + k for f in flat}
                outputs.append((2, sorted(pos), x))
        return tape.source(outputs, order)

    def _function(self, order: int):
        fn = self._code.get(order)
        if fn is None:
            text, namespace = self._build(order)
            exec(compile(text, f"<foliate program, order {order}>", "exec"),
                 namespace)
            fn = self._code[order] = namespace["_f"]
        return fn


@functools.lru_cache(maxsize=256)
def _single(e: Expr, dim: int) -> Program:
    return Program((e,), dim, (), (((),),))


def eval_jet(e, p, order: int = 2):
    """Evaluate compiled expressions at point(s) ``p`` of shape ``(..., d)``.

    For a :class:`Program` this returns the first ``order + 1`` of
    ``(values, gradients, Hessians)``, shaped ``batch + shape``, then
    ``+ (d,)``, then ``+ (d, d)``.  Order 0 is plain evaluation in the dtype
    of ``p`` (float64 or longdouble); orders 1 and 2 evaluate jets in
    float64, and order 1 never computes a Hessian entry.  A single
    :class:`Expr` evaluates at order 2 to a :class:`~foliate.jets.Jet2`.
    """
    if order not in (0, 1, 2):
        raise InputError(f"jet order must be 0, 1 or 2, got {order!r}")
    if isinstance(e, Expr):
        if order != 2:
            raise InputError("a single expression evaluates at order 2; "
                             "compile a Program for other orders")
        program = _single(e, np.shape(p)[-1])
    else:
        program = e
    p = np.asarray(p, dtype=float) if order else np.asarray(p)
    if p.ndim == 0 or p.shape[-1] != program.dim:
        raise InputError(f"points need {program.dim} coordinates, got shape {p.shape}")
    dtype = np.result_type(p.dtype, np.float64) if order == 0 else np.float64
    fn, shapes = program._function(order), program._shapes[:order + 1]
    if p.ndim == 1:
        # one point: NumPy scalars through the program, stored in lists
        outs = [[0.0] * n for n in program._sizes[:order + 1]]
        fn(p, *outs)
        out = tuple(np.array(o, dtype).reshape(s) for o, s in zip(outs, shapes))
    else:
        batch = p.shape[:-1]
        out = (np.empty(batch + shapes[0], dtype),
               *(np.zeros(batch + s) for s in shapes[1:]))
        fn(p, *(np.moveaxis(o.reshape(batch + (n,)), -1, 0)
                for o, n in zip(out, program._sizes)))
    return Jet2(*out) if isinstance(e, Expr) else out


def eval_value(e: Expr, p):
    """Evaluate at point(s) ``p`` of shape ``(..., d)``.

    The dtype of ``p`` is respected (float64 or longdouble), which test
    oracles use for extended-precision finite differences.
    """
    p = np.asarray(p)
    return eval_jet(_single(e, p.shape[-1]), p, 0)[0][()]


# ---------------------------------------------------------------------------
# symbolic differentiation (used to build exact gradient fields and as an
# independent cross-check of jet arithmetic)
# ---------------------------------------------------------------------------

def _simp_add(a: Expr, b: Expr) -> Expr:
    if a == Num(0.0):
        return b
    if b == Num(0.0):
        return a
    return Add(a, b)


def _simp_mul(a: Expr, b: Expr) -> Expr:
    if a == Num(0.0) or b == Num(0.0):
        return Num(0.0)
    if a == Num(1.0):
        return b
    if b == Num(1.0):
        return a
    return Mul(a, b)


def differentiate(e: Expr, i: int) -> Expr:
    """Exact partial derivative d(e)/d(x_i) as a new AST."""
    match e:
        case Num():
            return Num(0.0)
        case Coord(index=j):
            return Num(1.0) if j == i else Num(0.0)
        case Neg(arg=a):
            da = differentiate(a, i)
            return Num(0.0) if da == Num(0.0) else Neg(da)
        case Add(left=a, right=b):
            da, db = differentiate(a, i), differentiate(b, i)
            if db == Num(0.0):
                return da
            if da == Num(0.0):
                return db
            return Add(da, db)
        case Sub(left=a, right=b):
            da, db = differentiate(a, i), differentiate(b, i)
            if db == Num(0.0):
                return da
            if da == Num(0.0):
                return Neg(db)
            return Sub(da, db)
        case Mul(left=a, right=b):
            return _simp_add(_simp_mul(differentiate(a, i), b),
                             _simp_mul(a, differentiate(b, i)))
        case Div(left=a, right=b):
            num = Sub(_simp_mul(differentiate(a, i), b),
                      _simp_mul(a, differentiate(b, i)))
            return Div(num, Pow(b, Num(2.0)))
        case Pow(base=a, exponent=b):
            n = _is_int_literal(b)
            if n is not None:
                return _simp_mul(Mul(Num(float(n)), Pow(a, Num(float(n - 1)))),
                                 differentiate(a, i))
            # b^a with general exponent: d = b^a * (b' log a ... ) general rule
            return _simp_mul(Pow(a, b),
                             _simp_add(_simp_mul(differentiate(b, i), Call("log", a)),
                                       Div(_simp_mul(b, differentiate(a, i)), a)))
        case Call(func=f, arg=a):
            da = differentiate(a, i)
            if da == Num(0.0):
                return Num(0.0)
            outer = {
                "sin": lambda u: Call("cos", u),
                "cos": lambda u: Neg(Call("sin", u)),
                "tan": lambda u: Add(Num(1.0), Pow(Call("tan", u), Num(2.0))),
                "exp": lambda u: Call("exp", u),
                "log": lambda u: Div(Num(1.0), u),
                "sqrt": lambda u: Div(Num(0.5), Call("sqrt", u)),
                "sinh": lambda u: Call("cosh", u),
                "cosh": lambda u: Call("sinh", u),
                "tanh": lambda u: Sub(Num(1.0), Pow(Call("tanh", u), Num(2.0))),
            }[f](a)
            return _simp_mul(outer, da)
    raise TypeError(f"not an Expr: {e!r}")
