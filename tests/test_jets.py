"""Forward-mode second-order jets against high-precision finite differences
and against the reference interpreter.

The FD oracle evaluates the plain expression in longdouble at 4th-order
central stencils, an entirely independent path from the jet arithmetic.
The interpreter oracle (``tests/oracle.py``) builds one ``Jet2`` per AST
node; compiled programs mirror its operations, so on the gallery they agree
bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliate import DomainError, builtin, catalog, eval_jet, eval_value, parse
from foliate.expr import Program
from foliate.jets import Jet2, jet_vars
from oracle import oracle_jet, oracle_value

CASES = [
    ("sin(x0)*exp(x1)", 2),
    ("x0^3 - 2*x0*x1 + x1^2", 2),
    ("log(2 + cos(x0))*sqrt(1 + x1^2)", 2),
    ("tanh(x0*x1)", 2),
    ("1/(1 + x0^2 + x1^2)", 2),
    ("x0^2.5 + 2^x1", 2),
    ("exp(0.15*sin(x0) + 0.1*cos(x1))^2", 2),
    ("sinh(x0)/cosh(x1)", 2),
]

_W4 = np.array([1.0, -8.0, 8.0, -1.0], dtype=np.longdouble) / 12.0
_S4 = np.array([-2.0, -1.0, 1.0, 2.0], dtype=np.longdouble)


def _fd_grad_hess(e, p, h=1e-3):
    """4th-order FD gradient and Hessian in longdouble."""
    p = np.asarray(p, dtype=np.longdouble)
    d = len(p)

    def f(q):
        return np.longdouble(eval_value(e, np.asarray(q, dtype=float)))

    grad = np.empty(d, dtype=np.longdouble)
    for i in range(d):
        vals = [f(p + s * h * np.eye(d, dtype=np.longdouble)[i]) for s in _S4]
        grad[i] = np.dot(_W4, vals) / h

    hess = np.empty((d, d), dtype=np.longdouble)
    for i in range(d):
        for j in range(d):
            ei = np.eye(d, dtype=np.longdouble)[i]
            ej = np.eye(d, dtype=np.longdouble)[j]
            acc = np.longdouble(0.0)
            for si, wi in zip(_S4, _W4):
                for sj, wj in zip(_S4, _W4):
                    acc += wi * wj * f(p + (si * ei + sj * ej) * h)
            hess[i, j] = acc / (h * h)
    return np.asarray(grad, float), np.asarray(hess, float)


@pytest.mark.parametrize("src,dim", CASES)
def test_jet_grad_hess_match_fd(src, dim, rng):
    e = parse(src, dim)
    for p in rng.uniform(0.3, 1.2, size=(4, dim)):
        jet = eval_jet(e, p)
        grad, hess = _fd_grad_hess(e, p)
        np.testing.assert_allclose(jet.grad, grad, rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(jet.hess, hess, rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(jet.hess, jet.hess.T, atol=0.0)


def test_jet_batched_matches_loop(rng):
    e = parse("sin(x0)*cos(x1) + x0*x1^2", 2)
    P = rng.uniform(-1.0, 1.0, size=(7, 2))
    jets = eval_jet(e, P)
    assert jets.val.shape == (7,)
    assert jets.grad.shape == (7, 2)
    assert jets.hess.shape == (7, 2, 2)
    for k, p in enumerate(P):
        single = eval_jet(e, p)
        np.testing.assert_array_equal(jets.val[k], single.val)
        np.testing.assert_array_equal(jets.grad[k], single.grad)
        np.testing.assert_array_equal(jets.hess[k], single.hess)


def test_variable_and_constant_jets():
    x = Jet2.variable(2.0, 0, 2)
    assert x.val == 2.0
    np.testing.assert_array_equal(x.grad, [1.0, 0.0])
    np.testing.assert_array_equal(x.hess, np.zeros((2, 2)))
    c = Jet2.constant(5.0, 2)
    assert c.val == 5.0 and not c.grad.any() and not c.hess.any()


def test_jet_arithmetic_identities(rng):
    p = rng.uniform(0.2, 1.0, size=2)
    x, y = jet_vars(p, 2)
    quotient = (x * y) / y
    np.testing.assert_allclose(quotient.val, x.val, rtol=1e-15)
    np.testing.assert_allclose(quotient.grad, x.grad, atol=1e-14)
    np.testing.assert_allclose(quotient.hess, x.hess, atol=1e-13)

    # exp(log(x)) == x on the positive axis
    back = x.log().exp()
    np.testing.assert_allclose(back.val, x.val, rtol=1e-15)
    np.testing.assert_allclose(back.grad, x.grad, atol=1e-13)
    np.testing.assert_allclose(back.hess, x.hess, atol=1e-12)


def test_integer_power_matches_repeated_product(rng):
    p = rng.uniform(-1.0, 1.0, size=2)
    x, y = jet_vars(p, 2)
    cube = (x + y) ** 3
    prod = (x + y) * (x + y) * (x + y)
    np.testing.assert_allclose(cube.val, prod.val, rtol=1e-14)
    np.testing.assert_allclose(cube.grad, prod.grad, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(cube.hess, prod.hess, rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.3, 1.5), st.floats(0.3, 1.5))
def test_chain_rule_pythagoras(a, b):
    # sin^2 + cos^2 == 1 with zero derivatives, through full jet arithmetic
    x, y = jet_vars(np.array([a, b]), 2)
    u = (x * y).sin() ** 2 + (x * y).cos() ** 2
    assert u.val == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(u.grad, 0.0, atol=1e-13)
    np.testing.assert_allclose(u.hess, 0.0, atol=1e-12)


# Compiled and interpreted jets run the same IEEE operations in the same
# order; the tolerance allows a few roundings of reassociation should a rule
# ever be written differently, and nothing more.
TOL = 4.0 * np.finfo(float).eps


def _assert_close(a, b):
    b = np.asarray(b)
    scale = max(1.0, float(np.max(np.abs(b)))) if b.size else 1.0
    np.testing.assert_allclose(a, b, rtol=TOL, atol=TOL * scale)


def _gallery_exprs(W):
    d = W.dim
    exprs = [W.manifold.metric[i][j] for i in range(d) for j in range(i, d)]
    for field in W.dist.spanning:
        exprs += field.components
    if W.weight_field is not None:
        exprs += W.weight_field.components
    return exprs


@pytest.mark.parametrize("name", sorted(catalog()))
def test_compiled_gallery_matches_oracle_bitwise(name):
    item = builtin(name)
    W, d = item.W, item.W.dim
    exprs = _gallery_exprs(W)
    program = Program(exprs, d)
    P = item.sample_points(12, np.random.default_rng(5))
    for pts in (P[0], P, P.reshape(3, 4, d)):
        (val0,) = eval_jet(program, pts, 0)
        val1, grad1 = eval_jet(program, pts, 1)
        val2, grad2, hess2 = eval_jet(program, pts, 2)
        for lower, upper in ((val0, val2), (val1, val2), (grad1, grad2)):
            np.testing.assert_array_equal(lower, upper)
        for k, e in enumerate(exprs):
            ref = oracle_jet(e, pts)
            np.testing.assert_array_equal(val2[..., k], ref.val)
            np.testing.assert_array_equal(grad2[..., k, :], ref.grad)
            np.testing.assert_array_equal(hess2[..., k, :, :], ref.hess)
            np.testing.assert_array_equal(
                val0[..., k], np.broadcast_to(oracle_value(e, pts), pts.shape[:-1]))


@pytest.mark.parametrize("name", sorted(catalog()))
def test_chart_programs_lay_out_the_oracle(name):
    item = builtin(name)
    W, d = item.W, item.W.dim
    P = item.sample_points(6, np.random.default_rng(6))
    g, dg, d2g = W.manifold.metric_jet(P)
    for i in range(d):
        for j in range(d):
            ref = oracle_jet(W.manifold.metric[i][j], P)
            np.testing.assert_array_equal(g[:, i, j], ref.val)
            np.testing.assert_array_equal(dg[:, i, j], ref.grad)
            np.testing.assert_array_equal(d2g[:, i, j], ref.hess)
    fields = list(W.dist.spanning) + [W.weight_field] * (W.weight_field is not None)
    for field in fields:
        X, dX = field.jets(P)
        np.testing.assert_array_equal(field.values(P), X)
        for k, e in enumerate(field.components):
            ref = oracle_jet(e, P)
            np.testing.assert_array_equal(X[:, k], ref.val)
            np.testing.assert_array_equal(dX[:, k], ref.grad)


@pytest.mark.parametrize("src,dim", CASES)
def test_compiled_cases_match_oracle(src, dim, rng):
    e = parse(src, dim)
    P = rng.uniform(0.3, 1.2, size=(6, dim))
    for pts in (P[0], P):
        jet, ref = eval_jet(e, pts), oracle_jet(e, pts)
        _assert_close(jet.val, ref.val)
        _assert_close(jet.grad, ref.grad)
        _assert_close(jet.hess, ref.hess)
        _assert_close(eval_value(e, pts), oracle_value(e, pts))


def test_plain_evaluation_keeps_longdouble():
    e = parse("exp(x0)*sin(x1) + x0^3", 2)
    p = np.array([0.4, 0.7], dtype=np.longdouble)
    value = eval_value(e, p)
    assert value.dtype == np.longdouble
    assert value == oracle_value(e, p)


def test_order_one_computes_no_second_derivative():
    W = builtin("conformal_torus_weighted").W
    program = Program(_gallery_exprs(W), W.dim)
    assert "o2" not in program.source(1) and "o2" in program.source(2)
    # every temporary is released after its last use
    for order in range(3):
        text = program.source(order)
        assigned = {line.split("=")[0].strip() for line in text.splitlines()
                    if line.lstrip().startswith("t")}
        deleted = {name.strip() for line in text.splitlines()
                   if line.lstrip().startswith("del ")
                   for name in line.split("del ", 1)[1].split(",")}
        assert assigned == deleted


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["sin(x0)^2 + cos(x0)^2", "sin(x0*x1)^2 + cos(x0*x1)^2"]),
       st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_compiled_matches_oracle_on_pythagoras(src, a, b):
    e, p = parse(src, 2), np.array([a, b])
    jet, ref = eval_jet(e, p), oracle_jet(e, p)
    for x, y in ((jet.val, ref.val), (jet.grad, ref.grad), (jet.hess, ref.hess)):
        _assert_close(x, y)
    _assert_close(eval_value(e, p), oracle_value(e, p))


_LEAVES = st.one_of(st.integers(0, 1).map(lambda i: f"x{i}"),
                    st.sampled_from(["0.5", "2", "1.7", "3"]))


def _combine(children):
    unary = st.tuples(st.sampled_from(["sin", "cos", "exp", "tanh", "-"]),
                      children).map(lambda t: f"{t[0]}({t[1]})")
    binary = st.tuples(children, st.sampled_from("+-*/"), children).map(
        lambda t: f"({t[0]}){t[1]}({t[2]})")
    power = st.tuples(children, st.sampled_from(["2", "3", "-1", "0.5"])).map(
        lambda t: f"({t[0]})^{t[1]}")
    return st.one_of(unary, binary, power)


@settings(max_examples=80, deadline=None)
@given(st.recursive(_LEAVES, _combine, max_leaves=8),
       st.floats(0.3, 1.5), st.floats(0.3, 1.5))
def test_compiled_matches_oracle_on_random_expressions(src, a, b):
    e = parse(src, 2)
    p = np.array([a, b])
    outcomes = []
    for evaluate in (lambda: eval_jet(e, p), lambda: oracle_jet(e, p)):
        try:
            with np.errstate(all="ignore"):
                jet = evaluate()
            outcomes.append((jet.val, jet.grad, jet.hess))
        except DomainError as err:
            outcomes.append(err.expr_text)
        except TypeError:
            # the interpreter folds a negative constant to a fractional
            # power into a complex number; compiled code rejects it
            outcomes.append("complex")
    got, ref = outcomes
    if ref == "complex":
        assert isinstance(got, str)
        return
    if isinstance(ref, str) or isinstance(got, str):
        assert got == ref
        return
    if all(np.all(np.isfinite(part)) for part in ref):
        for x, y in zip(got, ref):
            _assert_close(x, y)
