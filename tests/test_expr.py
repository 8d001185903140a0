"""Parser, printer, evaluator, and symbolic derivative."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliate import (DomainError, InputError, ParseError, differentiate,
                     eval_jet, eval_value, parse, to_source)
from foliate.expr import Program

SAMPLES = [
    ("1.5", 2),
    ("x0", 1),
    ("x0 + 2*x1", 2),
    ("x0*x1 - x1^2", 2),
    ("-x0^2", 1),
    ("2^-x0", 1),
    ("sin(x0)*cos(x1) + exp(0.3*x0)", 2),
    ("log(2 + sin(x0))", 1),
    ("sqrt(x0^2 + 1)", 1),
    ("tanh(x0) + sinh(x1)*cosh(x1)", 2),
    ("(x0 + x1)^3 / (1 + x0^2)", 2),
    ("exp(0.15*sin(x0) + 0.1*cos(x1))^2", 3),
]


def _reference(src):
    env = {name: getattr(math, name)
           for name in ("sin", "cos", "tan", "exp", "log", "sqrt",
                        "sinh", "cosh", "tanh")}
    py = src.replace("^", "**")
    return lambda p: eval(py, env, {f"x{i}": v for i, v in enumerate(p)})


@pytest.mark.parametrize("src,dim", SAMPLES)
def test_eval_matches_python(src, dim, rng):
    e = parse(src, dim)
    f = _reference(src)
    for p in rng.uniform(-1.2, 1.2, size=(20, dim)):
        assert eval_value(e, p) == pytest.approx(f(p), rel=1e-14, abs=1e-14)


@pytest.mark.parametrize("src,dim", SAMPLES)
def test_print_parse_round_trip(src, dim, rng):
    e = parse(src, dim)
    again = parse(to_source(e), dim)
    for p in rng.uniform(-1.2, 1.2, size=(10, dim)):
        assert eval_value(again, p) == eval_value(e, p)


@pytest.mark.parametrize("src,dim", SAMPLES)
def test_symbolic_derivative_against_fd(src, dim, rng):
    e = parse(src, dim)
    h = 1e-5
    for i in range(dim):
        de = differentiate(e, i)
        for p in rng.uniform(-1.0, 1.0, size=(10, dim)):
            pp, pm = p.copy(), p.copy()
            pp[i] += h
            pm[i] -= h
            fd = (eval_value(e, pp) - eval_value(e, pm)) / (2 * h)
            assert eval_value(de, p) == pytest.approx(fd, rel=2e-9, abs=2e-9)


def test_jet_value_agrees_with_eval():
    e = parse("sin(x0)*exp(x1) + x0^3", 2)
    p = np.array([0.4, -0.2])
    assert eval_jet(e, p).val == pytest.approx(eval_value(e, p), abs=0.0)


def test_eval_is_batched():
    e = parse("x0^2 + cos(x1)", 2)
    P = np.array([[0.1, 0.2], [1.0, -1.0], [2.0, 0.5]])
    vals = eval_value(e, P)
    assert vals.shape == (3,)
    assert vals[1] == pytest.approx(1.0 + math.cos(-1.0))


def test_power_is_right_associative():
    e = parse("2^3^2", 2)
    assert eval_value(e, np.zeros(2)) == 512.0


def test_unary_minus_precedence():
    e = parse("-x0^2", 1)
    assert eval_value(e, np.array([3.0])) == -9.0


def test_dim_inference():
    e = parse("x0 + x3")
    assert eval_value(e, np.array([1.0, 0.0, 0.0, 2.0])) == 3.0


def test_unknown_variable_out_of_range():
    with pytest.raises(ParseError):
        parse("x5 + 1", dim=2)


@pytest.mark.parametrize("src,offset", [
    ("sin(x0", 6),
    ("0.3*sin(x0) +", 13),
    ("x0 @ x1", 3),
])
def test_parse_error_carries_offset(src, offset):
    with pytest.raises(ParseError) as err:
        parse(src, 2)
    assert err.value.offset == offset
    assert str(offset) in str(err.value)


def test_parse_error_is_input_error():
    assert issubclass(ParseError, InputError)


def test_derivative_of_printed_form_matches():
    e = parse("sqrt(1 + x0^2)*tanh(x1)", 2)
    d0 = differentiate(e, 0)
    d0_reparsed = differentiate(parse(to_source(e), 2), 0)
    p = np.array([0.7, 0.3])
    assert eval_value(d0, p) == eval_value(d0_reparsed, p)


@settings(max_examples=60, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_composite_derivative_identity(a, b):
    # d/dx0 of sin(x0)^2 + cos(x0)^2 is identically zero
    e = parse("sin(x0)^2 + cos(x0)^2", 2)
    de = differentiate(e, 0)
    assert eval_value(de, np.array([a, b])) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("src,point,text", [
    ("log(x0-1)", [0.5, 0.0], "log(x0-1)"),
    ("exp(1 + log(x0-1))", [0.5, 0.0], "log(x0-1)"),
    ("1/(x0-x1)", [0.3, 0.3], "1/(x0-x1)"),
    ("sqrt(x0)", [0.0, 0.3], "sqrt(x0)"),
])
def test_domain_error_names_the_failing_node(src, point, text):
    e = parse(src, 2)
    batch = np.array([[0.7, 0.1], point])
    calls = [lambda: eval_jet(e, np.array(point)), lambda: eval_jet(e, batch),
             lambda: eval_jet(Program([parse("x1"), e], 2), batch, 1)]
    if not src.startswith(("1/", "sqrt")):
        # plain evaluation divides without a check and allows sqrt(0)
        calls.append(lambda: eval_value(e, batch))
    for call in calls:
        with pytest.raises(DomainError) as err:
            call()
        assert err.value.expr_text == text
        assert f"in subexpression '{text}'" in str(err.value)


def test_plain_evaluation_allows_sqrt_at_zero():
    assert eval_value(parse("sqrt(x0)", 1), np.zeros(1)) == 0.0


def test_constant_division_by_zero_is_a_domain_error():
    with pytest.raises(DomainError) as err:
        eval_value(parse("x0 + 1/(2-2)", 1), np.ones(1))
    assert err.value.expr_text == "1/(2-2)"
