import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import jet_allclose, jet_div_loop, jet_from_poly, jet_mul_loop, scaled_gap, series_jet
from plap.jets import (
    BinOp,
    Call,
    DivisionByZeroConstantTerm,
    Jet,
    JetDomainError,
    Num,
    ParseError,
    Var,
    eval_jet,
    eval_numpy,
    eval_on_jets,
    eval_point,
    extract_normal_slice,
    jet_compose1,
    jet_const,
    jet_div,
    jet_matvec,
    jet_mul,
    jet_partial,
    jet_pow,
    jet_truncate,
    jet_unary,
    jet_variable,
    parse_expr,
    set_normal_slice,
)
from plap.jets import _degree_mask, _product_table


def _x(nvars, order, axis, base=0.0):
    return jet_variable(nvars, order, axis, base=base)


# -- arithmetic -------------------------------------------------------------------


def test_product_of_conjugates():
    one_plus = 1.0 + _x(1, 2, 0)
    one_minus = 1.0 - _x(1, 2, 0)
    prod = one_plus * one_minus
    assert prod.coefficient((0,)) == 1.0
    assert prod.coefficient((1,)) == 0.0
    assert prod.coefficient((2,)) == -1.0


def test_geometric_series_inverse():
    inv = jet_pow(1.0 + _x(1, 3, 0), -1.0)
    assert np.allclose([inv.coefficient((k,)) for k in range(4)], [1.0, -1.0, 1.0, -1.0], atol=1e-14)


def test_pow_against_sympy_oracle():
    # (1 + 0.1 x1 + 0.2 x2)^(1/(p-1)) with p = 3: exact repeated differentiation
    p = 3.0
    expo = 1.0 / (p - 1.0)
    base = 1.0 + 0.1 * _x(2, 4, 0) + 0.2 * _x(2, 4, 1)
    jet = jet_pow(base, expo)
    x1, x2 = sympy.symbols("x1 x2")
    expr = (1 + sympy.Rational(1, 10) * x1 + sympy.Rational(1, 5) * x2) ** sympy.Rational(1, 2)
    for a1 in range(5):
        for a2 in range(5 - a1):
            d = sympy.diff(expr, x1, a1, x2, a2)
            truth = float(d.subs({x1: 0, x2: 0})) / (math.factorial(a1) * math.factorial(a2))
            assert jet.coefficient((a1, a2)) == pytest.approx(truth, abs=1e-12)


def test_integer_pow_allows_nonpositive_base():
    base = -2.0 + _x(1, 3, 0)
    sq = jet_pow(base, 2.0)
    assert sq.coefficient((0,)) == 4.0
    assert sq.coefficient((1,)) == -4.0
    assert sq.coefficient((2,)) == 1.0
    with pytest.raises(JetDomainError):
        jet_pow(base, 0.5)
    with pytest.raises(JetDomainError):
        jet_pow(jet_const(1, 3, 0.0), -1.0)


def test_division_requires_nonzero_constant_term():
    with pytest.raises(DivisionByZeroConstantTerm):
        jet_div(jet_const(1, 2, 1.0), _x(1, 2, 0))
    with pytest.raises(DivisionByZeroConstantTerm):
        jet_div(jet_const(3, 4, 1.0), _x(3, 4, 0) * (1.0 + _x(3, 4, 2)))


def test_unary_domain_errors():
    with pytest.raises(JetDomainError):
        jet_unary("log", jet_const(1, 2, -1.0))
    with pytest.raises(JetDomainError):
        jet_unary("sqrt", jet_const(1, 2, 0.0))


def test_partial_derivative_examples():
    xy = _x(2, 3, 0) * _x(2, 3, 1)
    d1 = jet_partial(xy, 0)
    assert d1.coefficient((0, 1)) == 1.0
    assert abs(d1.coefficient((0, 0))) == 0.0
    d2 = jet_partial(jet_const(2, 3, 5.0), 1)
    assert np.max(np.abs(d2.coeffs)) == 0.0


def test_partial_matches_derivative_expression():
    e = parse_expr("exp(2*x1)")
    j = eval_jet(e, (0.3,), 6)
    dj = jet_partial(j, 0)
    truth = eval_jet(parse_expr("2*exp(2*x1)"), (0.3,), 5)
    assert jet_allclose(dj, truth, rtol=1e-12, atol=1e-12)


# -- ring laws and structural properties ---------------------------------------------


def _jets(nvars=2, order=3):
    shape = (order + 1,) * nvars
    n_entries = int(np.prod(shape))
    return st.lists(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        min_size=n_entries,
        max_size=n_entries,
    ).map(lambda vals: _masked_jet(np.array(vals).reshape(shape), nvars, order))


def _masked_jet(arr, nvars, order):
    arr = arr.copy()
    arr[np.indices(arr.shape).sum(axis=0) > order] = 0.0
    return Jet(nvars, order, arr)


@given(_jets(), _jets())
@settings(max_examples=60, deadline=None)
def test_mul_commutes(a, b):
    ab = jet_mul(a, b)
    ba = jet_mul(b, a)
    assert np.allclose(ab.coeffs, ba.coeffs, rtol=1e-13, atol=1e-13)


@given(_jets(), _jets(), _jets())
@settings(max_examples=40, deadline=None)
def test_mul_associates_and_distributes(a, b, c):
    left = jet_mul(jet_mul(a, b), c)
    right = jet_mul(a, jet_mul(b, c))
    assert np.allclose(left.coeffs, right.coeffs, rtol=1e-12, atol=1e-12)
    dist_l = jet_mul(a, b + c)
    dist_r = jet_mul(a, b) + jet_mul(a, c)
    assert np.allclose(dist_l.coeffs, dist_r.coeffs, rtol=1e-12, atol=1e-12)


@given(_jets(), _jets())
@settings(max_examples=60, deadline=None)
def test_leibniz_rule(a, b):
    lhs = jet_partial(jet_mul(a, b), 0)
    rhs = jet_mul(jet_partial(a, 0), jet_truncate(b, b.order - 1)) + jet_mul(
        jet_truncate(a, a.order - 1), jet_partial(b, 0)
    )
    assert np.allclose(lhs.coeffs, rhs.coeffs, rtol=1e-12, atol=1e-12)


@given(_jets(order=4), _jets(order=4))
@settings(max_examples=40, deadline=None)
def test_truncation_stability(a, b):
    # multiply at order 4 then truncate to 2 == multiply the truncations at order 2
    high = jet_truncate(jet_mul(a, b), 2)
    low = jet_mul(jet_truncate(a, 2), jet_truncate(b, 2))
    assert np.array_equal(high.coeffs, low.coeffs)


def test_division_roundtrip():
    rng = np.random.default_rng(3)
    a = _masked_jet(rng.normal(size=(4, 4)), 2, 3)
    b = _masked_jet(rng.normal(size=(4, 4)), 2, 3)
    b.coeffs[(0, 0)] = 1.5
    q = jet_div(a, b)
    assert np.allclose(jet_mul(q, b).coeffs, a.coeffs, atol=1e-12)


_SHAPES = [(n, order) for n in (1, 2, 3) for order in range(10)]


def _random_pairs(nvars, order, count=5):
    """Random jet pairs, masked to degree, with some exact and negative zeros;
    the divisor's constant term is kept away from zero."""
    rng = np.random.default_rng(100 * nvars + order)
    shape = (order + 1,) * nvars
    pairs = []
    for _ in range(count):
        a = _masked_jet(rng.uniform(-1.0, 1.0, shape), nvars, order)
        b = _masked_jet(rng.uniform(-1.0, 1.0, shape), nvars, order)
        a.coeffs[rng.uniform(size=shape) < 0.2] = -0.0
        b.coeffs[rng.uniform(size=shape) < 0.2] = 0.0
        b.coeffs[(0,) * nvars] = rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 2.0)
        pairs.append((a, b))
    return pairs


def _same_bits(x, y):
    return np.array_equal(x.view(np.int64), y.view(np.int64))


@pytest.mark.parametrize("nvars, order", _SHAPES)
def test_mul_and_div_bitwise_equal_loop_reference(nvars, order):
    for a, b in _random_pairs(nvars, order):
        assert _same_bits(jet_mul(a, b).coeffs, jet_mul_loop(a, b).coeffs)
        q = jet_div(a, b)
        assert _same_bits(q.coeffs, jet_div_loop(a, b).coeffs)
        back = jet_mul(q, b)
        assert np.max(np.abs(back.coeffs - a.coeffs)) <= 1e-13 * np.max(np.abs(q.coeffs))


@pytest.mark.parametrize("nvars, order", [(1, 6), (2, 5), (3, 4)])
def test_coefficients_above_degree_stay_zero(nvars, order):
    rng = np.random.default_rng(7)
    shape = (order + 1,) * nvars
    a = Jet(nvars, order, rng.uniform(-1.0, 1.0, shape))  # nonzero above the degree too
    b = Jet(nvars, order, rng.uniform(-1.0, 1.0, shape))
    b.coeffs[(0,) * nvars] = 1.5
    above = np.indices(shape).sum(axis=0) > order
    outs = (jet_mul(a, b), jet_div(a, b), jet_pow(b, 0.5), jet_unary("exp", a), jet_unary("sin", a))
    for out in outs:
        assert np.all(out.coeffs[above] == 0.0)


@st.composite
def _windowed_case(draw):
    """A jet pair of random shape (nvars 1-3, order <= 10), with exact and
    negative zeros, the divisor's constant term in [1, 2], and a random
    window (K, T)."""
    nvars, order = draw(st.integers(1, 3)), draw(st.integers(0, 10))
    window = (draw(st.integers(0, order + 1)), draw(st.integers(0, order + 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (order + 1,) * nvars
    a = _masked_jet(rng.uniform(-1.0, 1.0, shape), nvars, order)
    b = _masked_jet(rng.uniform(-1.0, 1.0, shape), nvars, order)
    a.coeffs[rng.uniform(size=shape) < 0.2] = -0.0
    b.coeffs[rng.uniform(size=shape) < 0.2] = 0.0
    b.coeffs[(0,) * nvars] = rng.uniform(1.0, 2.0)
    return a, b, window


@given(_windowed_case())
@settings(max_examples=80, deadline=None)
def test_windowed_operations_match_full_inside_and_vanish_outside(case):
    a, b, (k, t) = case
    idx = np.indices(a.coeffs.shape)
    deg = idx.sum(axis=0)
    inside = (deg <= a.order) & (idx[0] <= k) & (deg - idx[0] <= t)
    pairs = [(jet_mul(a, b), jet_mul(a, b, (k, t))), (jet_div(a, b), jet_div(a, b, (k, t)))]
    pairs += [(jet_pow(b, e), jet_pow(b, e, (k, t))) for e in (1, 2, 3, -2, 0.5, -0.35)]
    for full, windowed in pairs:
        assert _same_bits(windowed.coeffs[inside], full.coeffs[inside])
        assert not np.any(windowed.coeffs[~inside])
    assert jet_pow(b, 1) is not b and jet_pow(b, 1, (k, t)) is not b


@pytest.mark.parametrize("nvars, order", [(1, 0), (1, 5), (2, 0), (2, 4), (2, 7), (3, 3)])
def test_matvec_bitwise_equal_truncated_products(nvars, order):
    vec = [pair[0] for pair in _random_pairs(nvars, order, count=3)]
    rows = [[pair[1] for pair in _random_pairs(nvars, order + k, count=3)] for k in (0, 1, 3)]
    got = jet_matvec(rows, vec)
    for row, out in zip(rows, got):
        want = jet_mul(jet_truncate(row[0], order), vec[0])
        for w, x in zip(row[1:], vec[1:]):
            want = want + jet_mul(jet_truncate(w, order), x)
        assert (out.nvars, out.order) == (nvars, order)
        assert _same_bits(out.coeffs, want.coeffs)
    if order:  # a matrix entry below the vector's order
        with pytest.raises(ValueError):
            jet_matvec([[jet_truncate(w, order - 1) for w in rows[0]]], vec)


@pytest.mark.parametrize(
    "nvars, order, size", [(1, 0, 1), (1, 8, 45), (2, 8, 495), (3, 8, 3003), (3, 12, 18564)]
)
def test_product_table_size(nvars, order, size):
    assert size == math.comb(order + 2 * nvars, 2 * nvars)
    ia, ib, tgt = _product_table(nvars, order)
    assert ia.size == ib.size == tgt.size == size
    # the triples of a loop over a, then b, both in graded order (total
    # degree, then lexicographic), as flat hypercube indices
    graded = sorted(
        (a for a in itertools.product(range(order + 1), repeat=nvars) if sum(a) <= order), key=sum
    )
    shape = (order + 1,) * nvars
    want = [
        tuple(int(np.ravel_multi_index(m, shape)) for m in (a, b, tuple(np.add(a, b))))
        for a in graded
        for b in graded
        if sum(a) + sum(b) <= order
    ]
    assert list(zip(ia.tolist(), ib.tolist(), tgt.tolist())) == want
    assert not _degree_mask(nvars, order).flags.writeable  # shared by every caller


def test_chain_consistency():
    # evaluating a composite expression equals composing the jets
    inner = eval_jet(parse_expr("x1*x2"), (0.4, -0.7), 5)
    direct = eval_jet(parse_expr("exp(x1*x2)"), (0.4, -0.7), 5)
    composed = jet_unary("exp", inner)
    assert jet_allclose(direct, composed, rtol=1e-12, atol=1e-12)


def _poly_base(nvars):
    """A dyadic polynomial base 5/4 + linear + quadratic terms in ``nvars`` variables."""
    base = {(0,) * nvars: Fraction(5, 4)}

    def mono(*pairs):
        alpha = [0] * nvars
        for axis, k in pairs:
            alpha[axis] = k
        return tuple(alpha)

    for axis, c in zip(range(nvars), (Fraction(3, 8), Fraction(-1, 4), Fraction(1, 8))):
        base[mono((axis, 1))] = c
    base[mono((0, 2))] = Fraction(-1, 16)
    if nvars >= 2:
        base[mono((0, 1), (1, 1))] = Fraction(1, 16)
    if nvars >= 3:
        base[mono((2, 2))] = Fraction(-1, 32)
    return base


_SERIES_CASES = [
    *[(f"pow {e}", lambda j, e=e: jet_pow(j, e), lambda s, r=r: s**r)
      for e, r in [(-0.35, sympy.Rational(-7, 20)), (0.5, sympy.Rational(1, 2)),
                   (-1.35, sympy.Rational(-27, 20)), (2.5, sympy.Rational(5, 2))]],
    *[(name, lambda j, name=name: jet_unary(name, j), getattr(sympy, name))
      for name in ("exp", "log", "sin", "cos", "sqrt")],
]


@pytest.mark.parametrize("nvars", [1, 2, 3])
@pytest.mark.parametrize("name, apply, truth", _SERIES_CASES, ids=[c[0] for c in _SERIES_CASES])
def test_jet_functions_match_sympy_series(nvars, name, apply, truth):
    base = _poly_base(nvars)
    got = apply(jet_from_poly(base, 10))
    assert scaled_gap(got, series_jet(truth, base, 10)) <= 1e-15


@pytest.mark.parametrize("nvars", [1, 2, 3])
@pytest.mark.parametrize(
    "profile", [lambda s: sympy.exp(s / 5), lambda s: 1 / (1 + s / 5)], ids=["exp", "inverse"]
)
def test_compose_linear_matches_sympy_series(nvars, profile):
    # f(s0 + zeta . x) from the univariate jet of f at s0
    s0 = Fraction(1, 4)
    inner = {(0,) * nvars: s0}
    for axis, c in zip(range(nvars), (Fraction(3, 8), Fraction(-1, 2), Fraction(5, 8))):
        inner[tuple(int(k == axis) for k in range(nvars))] = c
    outer = series_jet(profile, {(0,): s0, (1,): Fraction(1)}, 10)
    got = jet_compose1(outer, jet_from_poly(inner, 10))
    assert scaled_gap(got, series_jet(profile, inner, 10)) <= 1e-15


def test_compose_needs_linear_inner_form():
    outer = jet_unary("exp", _x(1, 4, 0))
    with pytest.raises(ValueError):
        jet_compose1(outer, _x(2, 4, 0) * _x(2, 4, 1))
    with pytest.raises(ValueError):
        jet_compose1(_x(2, 4, 0), _x(2, 4, 1))


def test_normal_slice_roundtrip():
    j = eval_jet(parse_expr("exp(x1)*sin(x2)+x3^2"), (0.1, 0.2, 0.3), 5)
    m = 2
    sl = extract_normal_slice(j, m)
    assert sl.nvars == 2 and sl.order == 3
    back = set_normal_slice(j, m, sl)
    assert np.array_equal(back.coeffs, j.coeffs)
    # the slice really is the jet of d^m f/dx1^m on the patch
    truth = eval_jet(parse_expr("exp(x1)*sin(x2)"), (0.1, 0.2, 0.3), 5)
    assert sl.coefficient((0, 0)) == pytest.approx(math.exp(0.1) * math.sin(0.2), rel=1e-12)


# -- expression parsing ---------------------------------------------------------------


def test_parse_precedence():
    e = parse_expr("1+0.1*x1")
    assert e == BinOp("+", Num(1.0), BinOp("*", Num(0.1), Var(0)))


def test_parse_power_of_call():
    e = parse_expr("exp(x2)^2")
    assert e == BinOp("^", Call("exp", Var(1)), Num(2.0))


def test_parse_power_right_associative():
    e = parse_expr("2^3^2")
    assert eval_point(e, ()) == 512.0


def test_parse_error_offset():
    with pytest.raises(ParseError) as err:
        parse_expr("1+*x1")
    assert err.value.offset == 2
    assert "NUMBER" in err.value.expected


def test_parse_error_cases():
    with pytest.raises(ParseError):
        parse_expr("(x1")
    with pytest.raises(ParseError):
        parse_expr("x7 + 1")
    with pytest.raises(ParseError):
        parse_expr("sin x1")
    with pytest.raises(ParseError):
        parse_expr("")
    with pytest.raises(ParseError):
        parse_expr("x1 x2")


def test_unary_minus_binds_inside_power():
    # per the grammar, -x1^2 parses as (-x1)^2
    assert eval_point(parse_expr("-2^2"), ()) == 4.0
    assert eval_point(parse_expr("0-2^2"), ()) == -4.0


def test_variable_exponent_rejected():
    with pytest.raises(JetDomainError):
        eval_point(parse_expr("x1^x2"), (2.0, 3.0))
    with pytest.raises(JetDomainError):
        eval_jet(parse_expr("2^x1"), (1.0,), 3)


# -- evaluation -----------------------------------------------------------------------


def test_eval_jet_product_example():
    j = eval_jet(parse_expr("x1*x2"), (2.0, 3.0), 2)
    assert j.value == 6.0
    assert j.derivative((1, 0)) == 3.0
    assert j.derivative((0, 1)) == 2.0
    assert j.derivative((1, 1)) == 1.0


def test_eval_jet_exponential_coefficients():
    j = eval_jet(parse_expr("exp(x1)"), (0.0,), 5)
    for k in range(6):
        assert j.coefficient((k,)) == pytest.approx(1.0 / math.factorial(k), rel=1e-14)


def test_eval_jet_against_finite_differences():
    text = "1+0.1*sin(x1)+0.05*x2^2"
    e = parse_expr(text)
    pt = (0.3, 0.7)
    j = eval_jet(e, pt, 6)
    h = 1e-3

    def fd(alpha):
        # nested central differences
        def deriv(fn, axis):
            def bumped(q):
                qp = list(q)
                qp[axis] += h
                qm = list(q)
                qm[axis] -= h
                return (fn(qp) - fn(qm)) / (2.0 * h)

            return bumped

        fn = lambda q: eval_point(e, q)
        for axis, k in enumerate(alpha):
            for _ in range(k):
                fn = deriv(fn, axis)
        return fn(pt)

    for a1 in range(4):
        for a2 in range(4 - a1):
            assert j.derivative((a1, a2)) == pytest.approx(fd((a1, a2)), abs=1e-6)


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("2.5", id="num"),
        pytest.param("x2", id="var"),
        pytest.param("-x1", id="neg"),
        pytest.param("x1 + x2", id="add"),
        pytest.param("x1 - x2", id="sub"),
        pytest.param("x1 * x2", id="mul"),
        pytest.param("x1 / x2", id="div"),
        pytest.param("(1 + x1)^2.5", id="pow"),
        pytest.param("sin(x1)", id="sin"),
        pytest.param("cos(x2)", id="cos"),
        pytest.param("exp(x1)", id="exp"),
        pytest.param("log(x2)", id="log"),
        pytest.param("sqrt(1+x1^2)*cos(x2)", id="sqrt"),
    ],
)
def test_eval_numpy_matches_eval_point(text):
    # the three algebras of one expression agree at every grid node
    e = parse_expr(text)
    xs = np.linspace(0.1, 0.9, 5)
    ys = np.linspace(0.2, 1.0, 5)
    grid = eval_numpy(e, [xs[:, None] * np.ones(5), np.ones((5, 1)) * ys[None, :]])
    assert grid.shape == (5, 5)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            point = eval_point(e, (x, y))
            assert grid[i, j] == pytest.approx(point, rel=1e-14, abs=1e-15)
            assert eval_jet(e, (x, y), 2).value == pytest.approx(point, rel=1e-14, abs=1e-15)


def test_eval_jet_lifts_constants():
    # a constant is a jet, so x1/3 is a jet division, bit for bit; at 2.5 a
    # scaling by 1/3 rounds differently
    x = jet_variable(1, 4, 0, base=2.5)
    j = eval_jet("x1/3", (2.5,), 4)
    assert np.array_equal(j.coeffs, jet_div(x, jet_const(1, 4, 3.0)).coeffs)
    assert not np.array_equal(j.coeffs, (x / 3.0).coeffs)


def test_eval_point_domain_checks():
    with pytest.raises(ValueError):
        eval_point(parse_expr("x3"), (1.0, 2.0))
    with pytest.raises(JetDomainError):
        eval_point(parse_expr("log(x1)"), (-1.0,))


@pytest.mark.parametrize(
    "text, point",
    [("1/(x1-x1)", (0.3,)), ("exp(1000)", ()), ("2^5000", ()), ("(0-8)^(1/3)", ())],
)
def test_eval_point_out_of_range_is_domain_error(text, point):
    with pytest.raises(JetDomainError):
        eval_point(parse_expr(text), point)
