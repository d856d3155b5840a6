import collections
import dataclasses
import math

import numpy as np
import pytest
import sympy

from plap.jets import (
    Jet,
    eval_jet,
    jet_const,
    jet_partial,
    jet_truncate,
    jet_variable,
    extract_normal_slice,
    parse_expr,
    set_normal_slice,
)
from oracles import flux_divergence_jet, probed_columns, recover_order0_2d, scaled_gap
from plap import jets, recover
from plap.recover import (
    BoundaryJets,
    IllConditioned,
    NormalGradientZero,
    RecoveryError,
    Scenario,
    TangentialDegenerate,
    oracle_tilted_profile,
    recover_order0,
    run_recovery,
    synthesize_measurements,
    taylor_reconstruct,
    theta_det_direct,
    theta_det_closed_form,
    theta_matrix,
)

ZETA = np.array([0.6, 0.64, 0.48])


def _scenario(profile="1+0.1*x1", p=3.0, z=(0.0, 0.2, -0.1), order=8, zeta=ZETA, c=1.0):
    return Scenario(profile=profile, c=c, zeta=np.asarray(zeta, float), p=p, z=np.asarray(z, float), order=order)


def _linear_jet(coeffs, const, nvars, order):
    out = jet_const(nvars, order, const)
    for i, ci in enumerate(coeffs):
        out = out + ci * jet_variable(nvars, order, i)
    return out


# -- scenario and oracle ------------------------------------------------------------


def test_scenario_validation():
    with pytest.raises(ValueError):
        _scenario(zeta=(1.0, 0.0, 0.0))  # no tangential part
    with pytest.raises(ValueError):
        _scenario(zeta=(0.0, 0.6, 0.8))  # no normal part
    with pytest.raises(ValueError):
        _scenario(p=2.0)
    with pytest.raises(ValueError):
        _scenario(c=-1.0)
    with pytest.raises(ValueError):
        Scenario(profile="1", c=1.0, zeta=np.array([0.6, 0.8, 0.0]) * 1.1, p=3.0, z=np.zeros(3), order=6)


def test_oracle_constant_profile_is_linear():
    sc = _scenario(profile="1", order=6)
    gj, uj = oracle_tilted_profile(sc)
    assert gj.value == 1.0
    higher = np.array(gj.coeffs)
    higher[(0, 0, 0)] = 0.0
    assert np.max(np.abs(higher)) < 1e-15
    for a in range(3):
        e = tuple(int(a == k) for k in range(3))
        assert uj.derivative(e) == pytest.approx(ZETA[a], abs=1e-14)
    assert uj.value == pytest.approx(float(ZETA @ sc.z), abs=1e-14)


def test_oracle_linear_profile_against_sympy():
    # gamma = 1 + 0.1 s, G' = (1 + 0.1 s)^(-1/2) for p = 3
    sc = _scenario(order=6)
    gj, uj = oracle_tilted_profile(sc)
    s = sympy.symbols("s")
    s0 = float(ZETA @ sc.z)
    gprime = (1 + sympy.Rational(1, 10) * s) ** sympy.Rational(-1, 2)
    for m in range(6):
        truth = float(sympy.diff(gprime, s, m).subs(s, s0)) * float(ZETA[0]) ** (m + 1)
        # d^(m+1) u0/dx1^(m+1) = G^(m+1)(s0) * zeta1^(m+1)
        rec = uj.derivative((m + 1, 0, 0))
        assert rec == pytest.approx(truth, rel=1e-12, abs=1e-12)


def test_oracle_flux_is_exactly_divergence_free():
    sc = _scenario(profile="exp(0.2*x1)", p=2.5, order=7)
    gj, uj = oracle_tilted_profile(sc)
    div = flux_divergence_jet(gj, uj, sc.p)
    assert np.max(np.abs(div.coeffs)) < 1e-13


def test_oracle_rejects_nonpositive_profile():
    with pytest.raises(ValueError):
        oracle_tilted_profile(_scenario(profile="0-1+0*x1", order=6))


# -- synthesis -----------------------------------------------------------------------


def test_synthesize_constant_profile_tensor():
    sc = _scenario(profile="1", p=3.0, order=6)
    gj, uj = oracle_tilted_profile(sc)
    bj = synthesize_measurements(gj, uj, sc.p)
    for j in range(3):
        for k in range(3):
            a0 = bj.a[(j, k)][0]
            expected = (1.0 if j == k else 0.0) + (sc.p - 2.0) * ZETA[j] * ZETA[k]
            assert a0.value == pytest.approx(expected, abs=1e-12)
            rest = np.array(a0.coeffs)
            rest[(0, 0)] = 0.0
            assert np.max(np.abs(rest)) < 1e-12
            for m in range(1, 4):
                assert np.max(np.abs(bj.a[(j, k)][m].coeffs)) < 1e-12


def test_synthesize_p2_gives_weight_times_identity():
    order = 5
    gj = eval_jet(parse_expr("1+0.1*x1+0.05*x2"), (0.0, 0.0, 0.0), order)
    uj = _linear_jet([0.8, 0.6, 0.0], 0.0, 3, order + 1)
    bj = synthesize_measurements(gj, uj, 2.0)
    for j in range(3):
        for k in range(3):
            for m in range(order + 1):
                slice_truth = extract_normal_slice(gj, m) if j == k else None
                got = bj.a[(j, k)][m]
                if j == k:
                    assert np.allclose(got.coeffs, slice_truth.coeffs, atol=1e-12)
                else:
                    assert np.max(np.abs(got.coeffs)) < 1e-12


def test_synthesize_flux_contraction_identity():
    # e1 . A grad u0 = (p-1) * flux for the exact family
    sc = _scenario(profile="1+0.1*x1", p=2.5, order=6)
    gj, uj = oracle_tilted_profile(sc)
    bj = synthesize_measurements(gj, uj, sc.p)
    from plap.jets import jet_partial, jet_truncate

    grads = [extract_normal_slice(jet_partial(uj, a), 0) for a in range(3)]
    contracted = None
    for k in range(3):
        term = bj.a[(0, k)][0] * jet_truncate(grads[k], bj.a[(0, k)][0].order)
        contracted = term if contracted is None else contracted + term
    target = (sc.p - 1.0) * bj.flux
    assert np.allclose(contracted.coeffs, target.coeffs, atol=1e-11)


def test_synthesize_order0_flux_value():
    sc = _scenario(profile="1+0.1*x1", p=2.5, order=6, z=(0.0, 0.0, 0.0))
    gj, uj = oracle_tilted_profile(sc)
    bj = synthesize_measurements(gj, uj, sc.p)
    # flux at z equals c * zeta1 when zeta . z = 0 (G'(0) normalizes the constant)
    assert bj.flux.value == pytest.approx(sc.c * ZETA[0], abs=1e-12)


# -- order 0 -------------------------------------------------------------------------


def test_order0_constant_profile():
    sc = _scenario(profile="1", p=3.0, order=6)
    gj, uj = oracle_tilted_profile(sc)
    bj = synthesize_measurements(gj, uj, sc.p)
    o0 = recover_order0(bj)
    assert o0.gamma_z == pytest.approx(1.0, abs=1e-12)
    assert o0.normal_slope == pytest.approx(ZETA[0], abs=1e-12)
    assert o0.grad_norm == pytest.approx(1.0, abs=1e-12)
    assert o0.consistency < 1e-12


def test_order0_linear_profile_at_zero_offset():
    sc = _scenario(profile="1+0.1*x1", p=3.0, z=(0.0, 0.0, 0.0), order=6)
    gj, uj = oracle_tilted_profile(sc)
    bj = synthesize_measurements(gj, uj, sc.p)
    o0 = recover_order0(bj)
    assert o0.gamma_z == pytest.approx(1.0, abs=1e-12)
    assert o0.normal_slope == pytest.approx(ZETA[0], abs=1e-12)  # G'(0) = 1
    assert o0.grad_norm == pytest.approx(1.0, abs=1e-12)


def test_order0_degenerate_when_gradient_normal():
    # handmade measurements with u0 = x1: tangential slope vanishes
    order = 5
    gj = jet_const(3, order, 1.0)
    uj = _linear_jet([1.0, 0.0, 0.0], 0.0, 3, order + 1)
    bj = synthesize_measurements(gj, uj, 3.0)
    with pytest.raises(TangentialDegenerate):
        run_recovery(bj)
    with pytest.raises(TangentialDegenerate):
        recover_order0(bj)


def test_order0_2d_split():
    p, gamma, d, t = 2.5, 2.0, 0.8, 0.6
    w2 = d * d + t * t
    kappa = gamma * w2 ** ((p - 2.0) / 2.0)
    a22 = kappa * (1.0 + (p - 2.0) * t * t / w2)
    flux = kappa * d
    g, dd, w = recover_order0_2d(a22, t, flux, p)
    assert g == pytest.approx(gamma, rel=1e-12)
    assert dd == pytest.approx(d, rel=1e-12)
    assert w == pytest.approx(math.sqrt(w2), rel=1e-12)


def test_order0_2d_degenerate_inputs():
    with pytest.raises(TangentialDegenerate):
        recover_order0_2d(1.0, 0.0, 0.5, 2.5)
    with pytest.raises(NormalGradientZero):
        recover_order0_2d(1.0, 0.5, 0.0, 2.5)


# -- theta system ----------------------------------------------------------------------


def test_theta_canonical_matrix():
    th = theta_matrix(1.0, np.array([1.0, 0.0, 0.0]), 3.0)
    expected = np.array([[1.0, 2.0, 0.0], [2.0, 2.0, 2.0], [1.0, 1.0, -1.0]])
    assert np.array_equal(th, expected)


def test_theta_p2_rows_vanish():
    th = theta_matrix(1.0, np.array([1.0, 0.0, 0.0]), 2.0)
    assert th[1, 1] == 0.0
    assert th[2, 1] == 0.0
    assert np.array_equal(th, np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [1.0, 0.0, -1.0]]))
    assert theta_det_direct(th) == 2.0


def test_theta_requires_normal_slope():
    with pytest.raises(NormalGradientZero):
        theta_matrix(1.0, np.array([0.0, 1.0, 0.0]), 3.0)


def test_theta_determinant_discrepancy_documented():
    grad = np.array([1.0, 0.0, 0.0])
    assert theta_det_direct(theta_matrix(1.0, grad, 3.0)) == 4.0
    assert theta_det_closed_form(1.0, grad, 3.0) == 6.0


def test_theta_det_closed_form_p2_reduces_to_twice_grad_sq():
    # at p = 2 the closed form collapses to 2 |grad|^2 times the scale factor
    grad = np.array([0.3, 0.4, 0.0])
    w2 = float(grad @ grad)
    lam = 4.0 * w2 ** ((3.0 * 2.0 - 8.0) / 2.0)
    assert theta_det_closed_form(2.0, grad, 2.0) == pytest.approx(lam * 2.0 * w2, rel=1e-14)
    assert theta_det_closed_form(2.0, grad, 2.0) > 0.0


def test_theta_det_matches_derived_factorization():
    # det = 2 gamma^2 |grad|^(3p-8) (|grad|^2 + (p-2) d^4 / |grad|^2)
    rng = np.random.default_rng(2)
    for _ in range(200):
        p = float(rng.uniform(1.05, 9.5))
        if abs(p - 2.0) < 1e-3:
            continue
        gamma = float(rng.uniform(0.2, 3.0))
        d = float(rng.uniform(0.05, 1.0))
        t = float(rng.uniform(0.0, 1.0))
        grad = np.array([d, t, 0.0])
        w2 = d * d + t * t
        det = theta_det_direct(theta_matrix(gamma, grad, p))
        derived = 2.0 * gamma**2 * w2 ** ((3.0 * p - 8.0) / 2.0) * (w2 + (p - 2.0) * d**4 / w2)
        assert det == pytest.approx(derived, rel=1e-10)


def test_theta_det_sweep_nonvanishing():
    ps = np.concatenate([np.linspace(1.02, 1.98, 25), np.linspace(2.02, 10.0, 25)])
    ratios = np.linspace(0.02, 1.0, 25)
    for p in ps:
        for r in ratios:
            grad = np.array([r, math.sqrt(max(1.0 - r * r, 0.0)), 0.0])
            assert abs(theta_det_direct(theta_matrix(1.0, grad, p))) > 1e-6
            assert theta_det_closed_form(1.0, grad, p) > 1e-6


# -- coefficient columns ------------------------------------------------------------------


def _order_rows(state, m):
    """The order-m system's rows: ``state.columns`` truncated to its degree."""
    return [tuple(jet_truncate(c, state.order - m) for c in row) for row in state.columns]


def _max_scaled_gap(rows, oracle):
    """Largest coefficient gap between the X, Y jets of ``rows`` and the
    oracle's, on the max(|c|, 1) scale."""
    return max(
        scaled_gap(got, want) for row, ref in zip(rows, oracle) for got, want in zip(row[:2], ref)
    )


def test_extracted_columns_match_theta_formulas():
    # handmade constants: gamma = 2, grad u0 = (0.8, 0.6, 0), p = 2.5
    p = 2.5
    order = 6
    gj = jet_const(3, order, 2.0)
    uj = _linear_jet([0.8, 0.6, 0.0], 0.0, 3, order + 1)
    bj = synthesize_measurements(gj, uj, p)
    state = run_recovery(bj, max_order=0)
    # the tangential slope lies along axis 1, so row (iii) reads axis 2
    assert np.allclose(state.tangent, [0.0, 0.0, 1.0])
    assert _max_scaled_gap(_order_rows(state, 1), probed_columns(state, 1)) < 1e-13
    # the point values are the closed-form matrix, gauge column included
    matrix = np.array([[c.value for c in row] for row in state.columns])
    expected = theta_matrix(2.0, np.array([0.8, 0.6, 0.0]), p)
    assert np.max(np.abs(matrix - expected)) < 1e-10
    # measured data of the exact scenario is consistent with zero unknowns:
    # the order-1 right-hand sides, measured minus known, with tau = e3
    f1, f2, f3 = recover._step_functional(state, 1)
    rhs = np.array([-f1.value, bj.a[(0, 0)][1].value - f2.value, bj.a[(2, 2)][1].value - f3.value])
    assert np.max(np.abs(rhs)) < 1e-12


_CRITERION_08 = [
    (1.3, "1 + 0.1*x1"),
    (1.7, "exp(0.2*x1)"),
    (2.5, "sqrt(1 + 0.3*x1)"),
    (3.0, "1/(1 + 0.2*x1)"),
    (6.0, "1 + 0.1*x1 + 0.03*x1^2"),
]


def _columns_gap_every_order(bj, truth=None):
    """Largest scaled gap between the closed-form and probed columns over
    every order of a recovery run.  With ``truth`` = (gamma, u0) jets, each
    order is filled from them instead of by the recovery's solve."""
    state = run_recovery(bj, max_order=0)
    gap = 0.0
    for m in range(1, bj.order - 1):
        gap = max(gap, _max_scaled_gap(_order_rows(state, m), probed_columns(state, m)))
        if truth is None:
            recover.recover_order_m(state, bj, m)
        else:
            state.gamma = set_normal_slice(state.gamma, m, extract_normal_slice(truth[0], m))
            state.u0 = set_normal_slice(state.u0, m + 1, extract_normal_slice(truth[1], m + 1))
            state.filled_order = m
    assert state.filled_order == bj.order - 2
    return gap


@pytest.mark.parametrize(
    "p, profile, order, z, zeta",
    [(p, prof, 8, (0.0, 0.2, -0.1), ZETA) for p, prof in _CRITERION_08]
    + [
        (2.5, "exp(0.2*x1)", 7, (0.1, 0.0, 0.0), (0.48, -0.6, 0.64)),  # rotated tilt
        (1.7, "exp(0.2*x1)", 12, (0.1, -0.3, 0.2), ZETA),
    ],
)
def test_closed_form_columns_match_probes_at_every_order(p, profile, order, z, zeta):
    sc = _scenario(profile=profile, p=p, order=order, z=z, zeta=zeta)
    gj, uj = oracle_tilted_profile(sc)
    assert _columns_gap_every_order(synthesize_measurements(gj, uj, p)) < 1e-13


@pytest.mark.parametrize("p", [1.3, 2.5, 6.0])
def test_closed_form_columns_match_probes_off_the_tilted_family(p):
    # on the tilted family the slope along tau vanishes on the whole patch;
    # a curved base function gives it tangential coefficients, so row (iii)
    # is exercised beyond its point value.  The base solves no equation, so
    # the orders are filled from it: solving would fill them with values
    # that grow by orders of magnitude, and the probes' differences with them
    order = 8
    gj = eval_jet(parse_expr("2 + 0.1*x2 + 0.05*x3^2 + 0.1*x1*x3"), (0.0, 0.0, 0.0), order)
    uj = eval_jet(
        parse_expr("0.8*x1 + 0.6*x2 + 0.3*x3^2 + 0.1*x2*x3 + 0.2*x1*x3 - 0.1*x1^2"),
        (0.0, 0.0, 0.0),
        order + 1,
    )
    assert _columns_gap_every_order(synthesize_measurements(gj, uj, p), truth=(gj, uj)) < 1e-13


def test_probe_refuses_state_with_unknowns_set():
    sc = _scenario(order=6)
    gj, uj = oracle_tilted_profile(sc)
    bj = synthesize_measurements(gj, uj, sc.p)
    state = run_recovery(bj, max_order=1)
    clean = state.gamma
    state.gamma = set_normal_slice(clean, 2, jet_const(2, 4, 1e-3))
    with pytest.raises(RecoveryError):
        recover.recover_order_m(state, bj, 2)
    state.gamma = clean
    state.u0 = set_normal_slice(state.u0, 3, jet_const(2, 4, 1e-3))
    with pytest.raises(RecoveryError):
        recover.recover_order_m(state, bj, 2)


@pytest.mark.parametrize("order", [3, 6, 9])
def test_one_forward_evaluation_per_order(monkeypatch, order):
    sc = _scenario(order=order)
    gj, uj = oracle_tilted_profile(sc)
    bj = synthesize_measurements(gj, uj, sc.p)
    calls = []
    original = recover._flux_pieces

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(recover, "_flux_pieces", counted)
    state = run_recovery(bj)
    assert state.filled_order == order - 2
    assert len(calls) == order - 2


def _criterion_08_measurements(p, profile, order=8):
    sc = _scenario(profile=profile, p=p, order=order)
    gj, uj = oracle_tilted_profile(sc)
    return synthesize_measurements(gj, uj, p)


@pytest.mark.parametrize("p, profile", _CRITERION_08)
def test_inverse_times_matrix_is_identity_over_jets(p, profile):
    state = run_recovery(_criterion_08_measurements(p, profile), max_order=0)
    nt = state.order - 1
    for k, w_row in enumerate(state.inverse):
        for i in range(3):
            product = sum((w_row[j] * state.columns[j][i] for j in range(3)), jet_const(2, nt, 0.0))
            assert scaled_gap(product, jet_const(2, nt, float(k == i))) <= 1e-13


def test_singular_order_system_is_ill_conditioned(monkeypatch):
    bj = _criterion_08_measurements(3.0, "1 + 0.1*x1")
    monkeypatch.setattr(recover, "_det3", lambda rows: jet_const(2, bj.order - 1, 0.0))
    with pytest.raises(IllConditioned):
        run_recovery(bj)


def _count_jet_calls(monkeypatch, calls):
    """Count the jet products and quotients of everything run afterwards in
    ``calls``, and under "triples" the product-table triples the products
    read; ``recover`` holds its own references to both functions."""
    mul, div = jets.jet_mul, jets.jet_div

    def counted_mul(a, b, slices=None):
        calls["mul"] += 1
        calls["triples"] += jets._product_table(a.nvars, a.order, slices and slices[:2])[0].size
        return mul(a, b, slices)

    def counted_div(a, b, slices=None):
        calls["div"] += 1
        return div(a, b, slices)

    for module in (jets, recover):
        monkeypatch.setattr(module, "jet_mul", counted_mul)
        monkeypatch.setattr(module, "jet_div", counted_div)


@pytest.mark.parametrize("p, mul_calls, div_calls", [(1.3, 134, 12), (6.0, 142, 13)])
def test_recovery_jet_call_counts(monkeypatch, p, mul_calls, div_calls):
    # order 8: order 0, the columns and their inverse once, then one forward
    # evaluation (12 products, 13 at p = 6) and one jet_matvec per induction order
    bj = _criterion_08_measurements(p, "exp(0.2*x1)")
    calls = collections.Counter()
    _count_jet_calls(monkeypatch, calls)
    run_recovery(bj)
    assert (calls["mul"], calls["div"]) == (mul_calls, div_calls)


def test_recovery_reads_windowed_product_tables(monkeypatch):
    # the jet_mul triples one order-8 recovery reads; its 72 forward-row
    # products read 63,696 of them (12 per order, each on the normal slices
    # m - 1 and m), where full order-8 tables (3003 triples each) would make
    # the total 238,491
    bj = _criterion_08_measurements(1.3, "exp(0.2*x1)")
    calls = collections.Counter()
    _count_jet_calls(monkeypatch, calls)
    run_recovery(bj)
    assert calls["triples"] == 85_971


def _assert_same_bits(got, want):
    assert (got.nvars, got.order) == (want.nvars, want.order)
    assert np.array_equal(got.coeffs.view(np.uint64), want.coeffs.view(np.uint64))


def _assert_slice_range_rows_equal_full_rows(monkeypatch, state, m):
    """``_step_functional`` at order m, which extends the state's
    intermediates by the window of normal slices m - 1 and m, equals, bit
    for bit, the same rows from whole jets; its divergence row also equals
    the slice of the whole divergence jet, summed over the axes in jet
    arithmetic."""
    ranged = recover._step_functional(state, m)
    with monkeypatch.context() as patch:
        for name in ("jet_mul", "jet_div", "jet_pow"):
            fn = getattr(jets, name)
            patch.setattr(recover, name, lambda a, b, slices=None, fn=fn: fn(a, b))
        full = recover._step_functional(dataclasses.replace(state, intermediates={}), m)
    for got, want in zip(ranged, full):
        _assert_same_bits(got, want)
    grads, _, _, gk = recover._flux_pieces(state.gamma, state.u0, state.p)
    div = jet_partial(gk * grads[0], 0) + jet_partial(gk * grads[1], 1) + jet_partial(gk * grads[2], 2)
    _assert_same_bits(ranged[0], extract_normal_slice(div, m - 1))


@pytest.mark.parametrize("order", [8, 12, 16])
@pytest.mark.parametrize("p, profile", _CRITERION_08 + [(8.0, "exp(0.2*x1)"), (10.0, "1 + 0.1*x1")])
def test_windowed_rows_equal_full_rows_bitwise(monkeypatch, p, profile, order):
    # p = 8 and 10 take the integer powers 3 and 4, whose chain products
    # run on the slices 0..m
    bj = _criterion_08_measurements(p, profile, order=order)
    state = run_recovery(bj, max_order=0)
    for m in range(1, order - 1):
        _assert_slice_range_rows_equal_full_rows(monkeypatch, state, m)
        recover.recover_order_m(state, bj, m)


def test_windowed_rows_equal_full_rows_bitwise_off_the_tilted_family(monkeypatch):
    # the curved base of the probe test, each order filled from it
    order = 8
    gj = eval_jet(parse_expr("2 + 0.1*x2 + 0.05*x3^2 + 0.1*x1*x3"), (0.0, 0.0, 0.0), order)
    uj = eval_jet(
        parse_expr("0.8*x1 + 0.6*x2 + 0.3*x3^2 + 0.1*x2*x3 + 0.2*x1*x3 - 0.1*x1^2"),
        (0.0, 0.0, 0.0),
        order + 1,
    )
    for p in (1.3, 2.5, 6.0, 8.0):
        state = run_recovery(synthesize_measurements(gj, uj, p), max_order=0)
        for m in range(1, order - 1):
            _assert_slice_range_rows_equal_full_rows(monkeypatch, state, m)
            state.gamma = set_normal_slice(state.gamma, m, extract_normal_slice(gj, m))
            state.u0 = set_normal_slice(state.u0, m + 1, extract_normal_slice(uj, m + 1))
            state.filled_order = m


def test_condition_number_taken_once_per_recovery(monkeypatch):
    calls = []
    cond = np.linalg.cond

    def counted(matrix):
        calls.append(matrix)
        return cond(matrix)

    monkeypatch.setattr(np.linalg, "cond", counted)
    state = run_recovery(_criterion_08_measurements(1.7, "exp(0.2*x1)"))
    assert len(calls) == 1
    assert state.conds == [state.cond] * 6
    assert state.cond == float(cond(np.array([[c.value for c in row] for row in state.columns])))


def _sample_scenario(p, order):
    """The sample ``recover`` config: exp(0.2 x1) along zeta at z."""
    return Scenario(
        profile="exp(0.2*x1)", c=1.0, zeta=np.array([0.48, -0.6, 0.64]), p=p,
        z=np.array([0.1, -0.3, 0.2]), order=order,
    )


def _same_floats(got, want):
    """Floats, or arrays or lists of them, equal bit for bit."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


# the sample p values and five more; over the oracle's 1/(p - 1) and the
# exponents (p - 2)/2, (2 - p)/2 and (p - 4)/2 they take every path of
# jet_pow: the integers 2 (p = 1.5), 0, 1 and -1 (p = 4), 1, 2 and -2
# (p = 6) and 2, 3 and -3 (p = 8), and the real recurrence
_BATCH_P = [1.3, 1.7, 2.5, 3.0, 6.0, 1.35, 1.5, 2.9, 4.0, 8.0]


def test_batched_recovery_equals_one_p_recoveries_bitwise():
    sc = _sample_scenario(np.array(_BATCH_P), 8)
    gj, uj = oracle_tilted_profile(sc)
    assert gj.batch == () and uj.batch == (len(_BATCH_P),)
    batch = run_recovery(synthesize_measurements(gj, uj, sc.p))
    assert batch.conds == [max(float(c) for c in batch.cond)] * 6
    for k, p in enumerate(_BATCH_P):
        gj1, uj1 = oracle_tilted_profile(_sample_scenario(p, 8))
        one = run_recovery(synthesize_measurements(gj1, uj1, p))
        got = batch.scenario(k)
        for a, b in [(gj.take(k), gj1), (uj.take(k), uj1), (got.gamma, one.gamma), (got.u0, one.u0)]:
            _assert_same_bits(a, b)
        for a, b in zip(sum(got.columns + got.inverse, ()), sum(one.columns + one.inverse, ())):
            _assert_same_bits(a, b)
        assert got.p == p and got.filled_order == one.filled_order == 6
        assert _same_floats(got.tangent, one.tangent)
        assert _same_floats(got.cond, one.cond) and _same_floats(got.conds, one.conds)
        assert len(got.gauge_by_degree) == len(one.gauge_by_degree)
        assert all(map(_same_floats, got.gauge_by_degree, one.gauge_by_degree))
        o0, w0 = got.order0, one.order0
        _assert_same_bits(o0.gamma_jet, w0.gamma_jet)
        _assert_same_bits(o0.slope_jet, w0.slope_jet)
        for name in ("gamma_z", "normal_slope", "grad_norm", "consistency"):
            assert _same_floats(getattr(o0, name), getattr(w0, name)), name


@pytest.mark.parametrize("p", [1.3, 1.7, 2.5, 3.0, 6.0])
def test_order_16_sample_against_closed_form(p):
    # gamma = exp(0.2 zeta . x) and G' = exp(-0.2 s / (p - 1)) (c = 1), so
    # d1^m gamma(z) = (0.2 zeta1)^m e^(0.2 s0) and
    # d1^m u0(z) = zeta1^m (-0.2 / (p - 1))^(m - 1) e^(-0.2 s0 / (p - 1)) for m >= 1
    sc = _sample_scenario(p, 16)
    zeta1, s0 = sc.zeta[0], float(sc.zeta @ sc.z)
    gamma_truth = [(0.2 * zeta1) ** m * math.exp(0.2 * s0) for m in range(17)]
    u0_truth = [zeta1**m * (-0.2 / (p - 1.0)) ** (m - 1) * math.exp(-0.2 * s0 / (p - 1.0)) for m in range(18)]
    gj, uj = oracle_tilted_profile(sc)
    for m in range(17):
        assert gj.derivative((m, 0, 0)) == pytest.approx(gamma_truth[m], rel=1e-14)
    for m in range(1, 18):
        assert abs(uj.derivative((m, 0, 0)) - u0_truth[m]) <= 1e-14 * max(1.0, abs(u0_truth[m]))
    state = run_recovery(synthesize_measurements(gj, uj, p))
    for m in range(15):
        rec = state.gamma.derivative((m, 0, 0))
        assert abs(rec - gamma_truth[m]) <= 1e-10 * max(1.0, abs(gamma_truth[m]))
    assert max(state.gauge_residuals) <= 1e-10


def test_extract_requires_consistent_state():
    sc = _scenario(order=6)
    gj, uj = oracle_tilted_profile(sc)
    bj = synthesize_measurements(gj, uj, sc.p)
    state = run_recovery(bj, max_order=1)
    with pytest.raises(RecoveryError):
        recover.recover_order_m(state, bj, 3)


# -- induction ----------------------------------------------------------------------------


def test_recovery_constant_profile_all_zero():
    sc = _scenario(profile="1", p=2.5, order=7)
    gj, uj = oracle_tilted_profile(sc)
    bj = synthesize_measurements(gj, uj, sc.p)
    state = run_recovery(bj)
    for m in range(1, 6):
        assert abs(state.gamma.coefficient((m, 0, 0))) < 1e-12
    # the system right-hand sides are consistent with zero unknowns throughout:
    # the matrix is invertible, so the unknowns u0 and Z vanish with them
    for m in range(2, 7):
        assert abs(state.u0.coefficient((m, 0, 0))) < 1e-12
    assert max(state.gauge_residuals) < 1e-12


def test_recovery_linear_profile_delta_pattern():
    sc = _scenario(profile="1+0.1*x1", p=3.0, order=8)
    gj, uj = oracle_tilted_profile(sc)
    bj = synthesize_measurements(gj, uj, sc.p)
    state = run_recovery(bj)
    assert state.gamma.derivative((1, 0, 0)) == pytest.approx(0.1 * ZETA[0], abs=1e-10)
    for m in range(2, 7):
        idx = (m,) + (0, 0)
        assert abs(state.gamma.derivative(idx)) < 1e-8


@pytest.mark.parametrize("p", [1.5, 6.0])
def test_recovery_exp_profile_chain_rule(p):
    sc = _scenario(profile="exp(0.2*x1)", p=p, order=8, z=(0.1, -0.3, 0.2))
    gj, uj = oracle_tilted_profile(sc)
    bj = synthesize_measurements(gj, uj, p)
    state = run_recovery(bj)
    s0 = float(ZETA @ sc.z)
    for m in range(7):
        truth = 0.2**m * ZETA[0] ** m * math.exp(0.2 * s0)
        rec = state.gamma.derivative((m, 0, 0))
        assert rec == pytest.approx(truth, rel=1e-7)
    assert max(state.gauge_residuals) < 1e-8


def test_recovery_round_trip_family():
    for p, profile in [(1.3, "1+0.1*x1"), (2.5, "sqrt(1+0.3*x1)"), (3.0, "1/(1+0.2*x1)")]:
        sc = _scenario(profile=profile, p=p, order=7)
        gj, uj = oracle_tilted_profile(sc)
        bj = synthesize_measurements(gj, uj, p)
        state = run_recovery(bj)
        for m in range(sc.order - 1):
            truth = gj.coefficient((m, 0, 0))
            rec = state.gamma.coefficient((m, 0, 0))
            assert abs(rec - truth) <= 1e-7 * max(1.0, abs(truth))
        for m in range(1, sc.order):
            truth = uj.coefficient((m, 0, 0))
            rec = state.u0.coefficient((m, 0, 0))
            assert abs(rec - truth) <= 1e-7 * max(1.0, abs(truth))


def test_recovery_mixed_coefficients_mode_a():
    # the tangential-jet solve reproduces mixed derivatives, not just normal ones
    sc = _scenario(profile="exp(0.2*x1)", p=2.5, order=7)
    gj, uj = oracle_tilted_profile(sc)
    bj = synthesize_measurements(gj, uj, sc.p)
    state = run_recovery(bj)
    idx = np.indices(gj.coeffs.shape)
    claimed = (idx[0] <= sc.order - 2) & (idx.sum(axis=0) <= sc.order)
    err = np.abs(state.gamma.coeffs - gj.coeffs)[claimed]
    assert np.max(err) < 1e-9


def test_recovery_gauge_residuals_small():
    sc = _scenario(profile="1+0.1*x1", p=1.7, order=8)
    gj, uj = oracle_tilted_profile(sc)
    bj = synthesize_measurements(gj, uj, sc.p)
    state = run_recovery(bj)
    assert max(state.gauge_residuals) < 1e-8
    assert len(state.conds) == sc.order - 2
    assert all(c < 1e3 for c in state.conds)


def test_recovery_condition_limit(monkeypatch):
    sc = _scenario(order=6)
    gj, uj = oracle_tilted_profile(sc)
    bj = synthesize_measurements(gj, uj, sc.p)
    monkeypatch.setattr(recover, "_COND_LIMIT", 1.0)
    with pytest.raises(IllConditioned):
        run_recovery(bj)


def test_ill_conditioned_system_fails_before_any_forward_work(monkeypatch):
    def refuse(state, m):
        raise AssertionError(f"order {m} evaluated its forward rows")

    monkeypatch.setattr(recover, "_step_functional", refuse)
    monkeypatch.setattr(recover, "_COND_LIMIT", 1.0)
    with pytest.raises(IllConditioned) as err:
        run_recovery(_criterion_08_measurements(3.0, "1 + 0.1*x1"))
    assert err.value.order == 1


def test_non_finite_order_system_is_ill_conditioned(monkeypatch):
    # a NaN in the constant term of the gauge column reaches the recovery's
    # one condition number, taken before order 1
    columns = recover._columns

    def poisoned(*args):
        rows = columns(*args)
        gauge = Jet(2, rows[1][2].order, rows[1][2].coeffs.copy())
        gauge.coeffs[0, 0] = np.nan
        return (rows[0], (rows[1][0], rows[1][1], gauge), rows[2])

    monkeypatch.setattr(recover, "_columns", poisoned)
    with pytest.raises(IllConditioned) as err:
        run_recovery(_criterion_08_measurements(3.0, "1 + 0.1*x1"))
    assert (err.value.order, err.value.cond) == (1, math.inf)


def test_recovery_invariant_under_tangential_rotation():
    # a tilt whose tangential part is turned onto the first tangent axis gives
    # the same normal derivatives and condition numbers (z lies on the normal)
    order = 7
    states = []
    for zeta in ([0.48, -0.6, 0.64], [0.48, math.hypot(0.6, 0.64), 0.0]):
        sc = _scenario(profile="exp(0.2*x1)", p=2.5, order=order, z=(0.1, 0.0, 0.0), zeta=zeta)
        gj, uj = oracle_tilted_profile(sc)
        states.append(run_recovery(synthesize_measurements(gj, uj, sc.p)))
    a, b = states
    for m in range(order - 1):
        ga, gb = a.gamma.derivative((m, 0, 0)), b.gamma.derivative((m, 0, 0))
        assert abs(ga - gb) <= 1e-12 * max(1.0, abs(gb))
    for m in range(1, order):
        ua, ub = a.u0.derivative((m, 0, 0)), b.u0.derivative((m, 0, 0))
        assert abs(ua - ub) <= 1e-12 * max(1.0, abs(ub))
    assert np.allclose(a.conds, b.conds, rtol=1e-12, atol=0.0)


def test_recovery_with_negative_normal_tilt():
    # the base solution may exit through the face (negative normal slope)
    zeta = np.array([-0.6, 0.64, 0.48])
    sc = Scenario(profile="1+0.1*x1", c=1.0, zeta=zeta, p=2.5, z=np.array([0.0, 0.2, -0.1]), order=7)
    gj, uj = oracle_tilted_profile(sc)
    bj = synthesize_measurements(gj, uj, sc.p)
    assert bj.flux.value < 0.0
    state = run_recovery(bj)
    assert state.order0.normal_slope < 0.0
    for m in range(sc.order - 1):
        truth = gj.coefficient((m, 0, 0))
        assert abs(state.gamma.coefficient((m, 0, 0)) - truth) <= 1e-9 * max(1.0, abs(truth))


def test_recovery_deterministic():
    sc = _scenario(profile="exp(0.2*x1)", p=2.5, order=6)
    gj, uj = oracle_tilted_profile(sc)
    bj = synthesize_measurements(gj, uj, sc.p)
    s1 = run_recovery(bj)
    s2 = run_recovery(bj)
    assert np.array_equal(s1.gamma.coeffs, s2.gamma.coeffs)
    assert np.array_equal(s1.u0.coeffs, s2.u0.coeffs)


def test_recovery_order0_identifiability_sensitivity():
    # bumping the flux trace by delta moves the recovered point values by
    # O(delta): the normal slope responds in 3D (gamma there is split from the
    # tangential tensor block alone), and gamma itself responds through the
    # 2D single-tangent split
    sc = _scenario(profile="1", p=3.0, order=5)
    gj, uj = oracle_tilted_profile(sc)
    bj = synthesize_measurements(gj, uj, sc.p)
    base = recover_order0(bj)
    p, gamma, d, t = 2.5, 2.0, 0.8, 0.6
    w2 = d * d + t * t
    kappa = gamma * w2 ** ((p - 2.0) / 2.0)
    a22 = kappa * (1.0 + (p - 2.0) * t * t / w2)
    for delta in (1e-3, 1e-4, 1e-5):
        bumped = BoundaryJets(
            p=bj.p,
            order=bj.order,
            a=bj.a,
            trace=bj.trace,
            flux=bj.flux + delta,
        )
        o = recover_order0(bumped)
        slope_move = abs(o.normal_slope - base.normal_slope)
        assert 0.0 < slope_move < 10.0 * delta
        gamma_move = abs(recover_order0_2d(a22, t, kappa * d + delta, p)[0] - gamma)
        assert 0.0 < gamma_move < 10.0 * delta


# -- Taylor reconstruction ------------------------------------------------------------------


def test_reconstruct_linear_profile_exact():
    sc = _scenario(profile="1+0.1*x1", p=3.0, order=6)
    gj, uj = oracle_tilted_profile(sc)
    bj = synthesize_measurements(gj, uj, sc.p)
    state = run_recovery(bj)
    depths = np.array([0.05, 0.2, 0.4])
    s0 = float(ZETA @ sc.z)
    truth = 1.0 + 0.1 * (s0 - ZETA[0] * depths)
    assert np.max(np.abs(taylor_reconstruct(state, depths) - truth)) < 1e-9


def test_reconstruct_constant_profile_flat():
    sc = _scenario(profile="1", p=3.0, order=5)
    gj, uj = oracle_tilted_profile(sc)
    bj = synthesize_measurements(gj, uj, sc.p)
    state = run_recovery(bj)
    vals = taylor_reconstruct(state, np.array([0.1, 0.5, 1.0]))
    assert np.max(np.abs(vals - 1.0)) < 1e-10


def test_reconstruct_exp_profile_within_remainder():
    sc = _scenario(profile="exp(0.2*x1)", p=3.0, order=8, z=(0.0, 0.0, 0.0))
    gj, uj = oracle_tilted_profile(sc)
    bj = synthesize_measurements(gj, uj, sc.p)
    state = run_recovery(bj)
    s = 0.3
    val = taylor_reconstruct(state, np.array([s]))[0]
    truth = math.exp(0.2 * (-ZETA[0] * s))
    m_top = state.filled_order
    bound = (0.2 * ZETA[0] * s) ** (m_top + 1) / math.factorial(m_top + 1) * math.exp(0.2 * ZETA[0] * s)
    assert abs(val - truth) <= 10.0 * bound + 1e-14


def test_reconstruct_rejects_nonpositive_depths():
    sc = _scenario(profile="1", p=3.0, order=5)
    gj, uj = oracle_tilted_profile(sc)
    bj = synthesize_measurements(gj, uj, sc.p)
    state = run_recovery(bj)
    with pytest.raises(ValueError):
        taylor_reconstruct(state, np.array([0.0, 0.1]))
