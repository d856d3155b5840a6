from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plap.grid import (
    ScalarField,
    TensorField,
    anisotropic_operator,
    build_domain,
    face_values_combine,
    face_values_max_abs,
)
from plap import cli, linearize, psolve
from plap.linearize import (
    DegenerateGradient,
    SegmentDegenerate,
    assemble_A,
    dn_linear,
    dn_matrix,
    rescale_translation_invariant,
    solve_linear,
    verify_linearization,
)

from oracles import J, anisotropic_operator_chain, dJ, fd_jacobian, same_sparse, taylor_identity_check

# the epsilon schedule of the CLI's linearize runs
EPS_SCHEDULE = cli.ExperimentConfig().eps_schedule


# -- flux map algebra ---------------------------------------------------------------


def test_j_basic_values():
    assert np.allclose(J([1.0, 0.0], 3.0), [1.0, 0.0])
    assert np.allclose(J([2.0, 0.0], 3.0), [4.0, 0.0])
    assert np.allclose(J([3.0, 4.0], 2.0), [3.0, 4.0])


def test_j_at_zero():
    assert np.allclose(J([0.0, 0.0], 3.0), [0.0, 0.0])
    with pytest.raises(ValueError):
        J([0.0, 0.0], 1.5)
    # dJ is undefined at xi = 0, so the linearization tensor refuses a zero gradient
    dom = build_domain((1.0, 1.0), (9, 9))
    with pytest.raises(DegenerateGradient):
        assemble_A(ScalarField.constant(dom, 1.0), 3.0, ScalarField.constant(dom, 0.5))


def test_dj_unit_vector_case():
    assert np.allclose(psolve.flux_derivative(np.array([1.0, 0.0, 0.0]), 3.0), np.diag([2.0, 1.0, 1.0]))
    assert np.allclose(psolve.flux_derivative(np.array([0.3, -0.4]), 2.0), np.eye(2))


def test_dj_against_finite_difference_jacobian():
    xi = np.array([1.0, 1.0]) / np.sqrt(2.0)
    p = 3.0
    expected = np.array([[1.5, 0.5], [0.5, 1.5]])
    assert np.allclose(psolve.flux_derivative(xi, p), expected, atol=1e-12)
    fd = fd_jacobian(lambda v: J(v, p), xi, step=1e-6)
    assert np.allclose(psolve.flux_derivative(xi, p), fd, atol=1e-6)


@given(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=1.05, max_value=9.5),
    st.floats(min_value=0.1, max_value=5.0),
)
@settings(max_examples=120, deadline=None)
def test_j_homogeneity(x, y, p, t):
    xi = np.array([x, y])
    if np.linalg.norm(xi) < 1e-3 or abs(p - 2.0) < 1e-3:
        return
    lhs = J(t * xi, p)
    rhs = t ** (p - 1.0) * J(xi, p)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_dj_spectrum_sample():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        n = int(rng.integers(2, 4))
        xi = rng.normal(size=n)
        if np.linalg.norm(xi) < 1e-2:
            continue
        p = float(rng.uniform(1.05, 9.5))
        if abs(p - 2.0) < 1e-3:
            continue
        mat = psolve.flux_derivative(xi, p)
        assert np.allclose(mat, dJ(xi, p), rtol=1e-13, atol=0.0)
        scaled = mat / np.linalg.norm(xi) ** (p - 2.0)
        eig = np.sort(np.linalg.eigvalsh(scaled))
        expected = np.sort(np.array([1.0] * (n - 1) + [p - 1.0]))
        assert np.max(np.abs(eig - expected)) < 1e-12


def test_taylor_identity_same_point():
    assert taylor_identity_check([0.7, 0.1], [0.7, 0.1], 2.5) == 0.0


def test_taylor_identity_1d_segment():
    assert taylor_identity_check([2.0, 0.0], [1.0, 0.0], 3.0) < 1e-10


def test_taylor_identity_random_annulus():
    # of the 17 segments clear of the origin, the rule refuses the one that
    # would need more than its 64 nodes (77, passing 0.33 from the origin)
    rng = np.random.default_rng(9)
    checked = 0
    for _ in range(20):
        xi = rng.normal(size=2)
        xi *= rng.uniform(0.5, 2.0) / np.linalg.norm(xi)
        zeta = rng.normal(size=2)
        zeta *= rng.uniform(0.5, 2.0) / np.linalg.norm(zeta)
        if linearize._segment_min_distance(xi, zeta) < 0.2:
            continue
        try:
            defect = taylor_identity_check(zeta, xi, 2.5)
        except SegmentDegenerate as exc:
            assert "would need 77 > 64 nodes" in str(exc)
            continue
        assert defect < 1e-8
        checked += 1
    assert checked == 16


def test_taylor_identity_rejects_origin_segment():
    with pytest.raises(SegmentDegenerate):
        taylor_identity_check([1.0, 0.0], [-1.0, 0.0], 2.5)


# -- tensor assembly ------------------------------------------------------------------


@pytest.fixture
def square():
    return build_domain((1.0, 1.0), (17, 17))


def test_assemble_a_p2_is_weight_times_identity(square):
    gam = ScalarField.from_function(square, lambda x, y: 1.0 + 0.3 * x)
    u0 = ScalarField.from_function(square, lambda x, y: x + 0.5 * y)
    a = assemble_A(gam, 2.0, u0)
    expected = gam.values[..., None, None] * np.eye(2)
    assert np.max(np.abs(a.values - expected)) < 1e-13


def test_assemble_a_axis_gradient(square):
    gam = ScalarField.constant(square, 1.0)
    u0 = ScalarField.from_function(square, lambda x, y: x)
    p = 2.7
    a = assemble_A(gam, p, u0)
    assert np.allclose(a.values[3, 4], np.diag([p - 1.0, 1.0]), atol=1e-13)


def test_assemble_a_diagonal_direction(square):
    gam = ScalarField.constant(square, 2.0)
    u0 = ScalarField.from_function(square, lambda x, y: (x + y) / np.sqrt(2.0))
    a = assemble_A(gam, 3.0, u0)
    expected = np.array([[3.0, 1.0], [1.0, 3.0]])
    assert np.max(np.abs(a.values - expected)) < 1e-12
    # independent check through the finite-difference Jacobian of J
    fd = 2.0 * fd_jacobian(lambda v: J(v, 3.0), np.array([1.0, 1.0]) / np.sqrt(2.0))
    assert np.allclose(a.values[5, 5], fd, atol=1e-6)


def test_assemble_a_spectrum_bounds(square):
    from plap.grid import gradient

    gam = ScalarField.from_function(square, lambda x, y: 1.0 + 0.2 * y)
    u0 = ScalarField.from_function(square, lambda x, y: x + 0.3 * np.sin(y))
    gnorm = np.sqrt(np.sum(gradient(u0).values ** 2, axis=-1))
    for p in (1.5, 3.0):
        a = assemble_A(gam, p, u0)
        kap = gam.values * gnorm ** (p - 2.0)
        eigs = np.linalg.eigvalsh(a.values / kap[..., None, None])
        assert eigs.min() > min(1.0, p - 1.0) - 1e-12
        assert eigs.max() < max(1.0, p - 1.0) + 1e-12


def test_assemble_a_of_sample_config_matches_chain():
    # the linearize sample config (gamma = 1, data x1): grad u0 is (1, ~1e-16),
    # so the off-diagonal entries of A are exactly zero at some nodes only, and
    # the blocks' pattern follows them; it matches the sparse products bit for
    # bit.  The stored-entry count follows the roundoff of u0, so it moves
    # whenever the forward solve's LU does
    cfg = cli.load_config(Path(__file__).resolve().parents[1] / "scripts" / "configs" / "linearize.cfg")
    dom = cli._build_domain(cfg)
    gamma, (phi0, _) = cli._gamma_field(cfg, dom), cli._data_field(cfg, dom)
    a = assemble_A(gamma, cfg.p, psolve.solve_p_laplace(gamma, cfg.p, phi0, min(cfg.tol, 1e-10)).u)
    cross = a.values[..., 0, 1]
    assert 0 < np.count_nonzero(cross == 0.0) < cross.size
    blocks, chain = anisotropic_operator(dom, a.values), anisotropic_operator_chain(dom, a.values)
    assert all(same_sparse(b, c) for b, c in zip(blocks, chain))
    assert [b.nnz for b in blocks] == [7587, 411]


def test_assemble_a_rejects_critical_points():
    dom = build_domain((2.0, 1.0), (17, 9), origin=(-1.0, 0.0))
    gam = ScalarField.constant(dom, 1.0)
    u0 = ScalarField.from_function(dom, lambda x, y: x**2)
    with pytest.raises(DegenerateGradient):
        assemble_A(gam, 3.0, u0)


# -- linear solves and DN maps ---------------------------------------------------------


def test_solve_linear_identity_tensor(square):
    a = TensorField(square, np.broadcast_to(np.eye(2), square.shape + (2, 2)).copy())
    phi = ScalarField.from_function(square, lambda x, y: x)
    u = solve_linear(a, phi)
    assert np.max(np.abs(u.values - square.coords[0])) < 1e-11


def test_solve_linear_constant_anisotropic(square):
    p = 3.5
    vals = np.broadcast_to(np.diag([p - 1.0, 1.0]), square.shape + (2, 2)).copy()
    a = TensorField(square, vals)
    phi = ScalarField.from_function(square, lambda x, y: x)
    u = solve_linear(a, phi)
    assert np.max(np.abs(u.values - square.coords[0])) < 1e-11


def test_solve_linear_singular_operator_is_nonconvergence():
    dom = build_domain((1.0, 1.0), (9, 9))
    zero = TensorField(dom, np.zeros(dom.shape + (2, 2)))
    with pytest.raises(psolve.NonConvergence, match="singular"):
        solve_linear(zero, ScalarField.from_function(dom, lambda x, y: x))


def test_solve_linear_singular_operator_with_reused_factor():
    # a held factor of a healthy operator: GMRES misses, the refactor is singular
    dom = build_domain((1.0, 1.0), (9, 9))
    phi = ScalarField.from_function(dom, lambda x, y: x)
    lu = psolve._ReusedLU()
    solve_linear(TensorField(dom, np.broadcast_to(np.eye(2), dom.shape + (2, 2)).copy()), phi, lu=lu)
    zero = TensorField(dom, np.zeros(dom.shape + (2, 2)))
    with pytest.raises(psolve.NonConvergence, match="singular"):
        solve_linear(zero, phi, source=ScalarField.constant(dom, 1.0), lu=lu)
    assert lu.factorizations == 1


@pytest.mark.parametrize("error, raises", [(1e-12, False), (1e-4, True)])
def test_linear_residual_guard(monkeypatch, error, raises):
    # the interior vector of each solve is off by a relative error: the guard
    # on A_II u_I + A_IB u_B lets rounding through and stops a wrong solve
    dom = build_domain((1.0, 1.0), (9, 9))
    a = TensorField(dom, np.broadcast_to(np.diag([1.0, 2.0]), dom.shape + (2, 2)).copy())
    phi = ScalarField.from_function(dom, lambda x, y: x + y**2)
    solve = psolve._ReusedLU.solve
    monkeypatch.setattr(psolve._ReusedLU, "solve", lambda *args: solve(*args) * (1.0 + error))
    for run in (lambda: solve_linear(a, phi), lambda: dn_matrix(a)):
        if raises:
            with pytest.raises(psolve.NonConvergence, match="linear solve left residual"):
                run()
        else:
            run()


def test_dn_matrix_matches_per_column_dn_linear():
    dom = build_domain((1.0, 1.0), (17, 17))
    gam = ScalarField.from_function(dom, lambda x, y: 1.0 + 0.3 * np.sin(np.pi * x) * np.sin(np.pi * y))
    phi0 = ScalarField.from_function(dom, lambda x, y: np.cos(0.3) * x + np.sin(0.3) * y)
    a = assemble_A(gam, 2.7, psolve.solve_p_laplace(gam, 2.7, phi0).u)
    matrix, nodes = dn_matrix(a)
    assert nodes == [tuple(int(i) for i in k) for k in np.argwhere(dom.boundary_mask)]
    cols = []
    for node in nodes:
        bump = np.zeros(dom.shape)
        bump[node] = 1.0
        flux = dn_linear(a, ScalarField(dom, bump))
        cols.append(np.concatenate([flux[f.key].ravel() for f in dom.faces]))
    loop = np.stack(cols, axis=1)
    assert matrix.shape == loop.shape == (68, 64)
    assert np.max(np.abs(matrix - loop)) <= 1e-13 * np.max(np.abs(loop))


def test_base_solution_solves_its_own_linearization():
    # the linear problem with trace of u0 reproduces u0 itself
    dom = build_domain((1.0, 1.0), (33, 33))
    gam = ScalarField.from_function(dom, lambda x, y: 1.0 + 0.2 * y**2)
    phi0 = ScalarField.from_function(dom, lambda x, y: np.cos(0.3) * x + np.sin(0.3) * y)
    p = 2.5
    u0 = psolve.solve_p_laplace(gam, p, phi0, 1e-11).u
    udot = solve_linear(assemble_A(gam, p, u0), ScalarField(dom, np.array(u0.values)))
    assert np.max(np.abs(udot.values - u0.values)) < 1e-6


def test_dn_linear_trivials(square):
    a = TensorField(square, np.broadcast_to(np.eye(2), square.shape + (2, 2)).copy())
    phi = ScalarField.from_function(square, lambda x, y: x)
    flux = dn_linear(a, phi)
    assert np.max(np.abs(flux[(0, 1)] - 1.0)) < 1e-10
    p = 3.0
    a2 = TensorField(square, np.broadcast_to(np.diag([p - 1.0, 1.0]), square.shape + (2, 2)).copy())
    flux2 = dn_linear(a2, phi)
    assert np.max(np.abs(flux2[(0, 1)] - (p - 1.0))) < 1e-10


def test_dn_linear_pseudo1d_family_flux_prediction():
    # for gamma(x1) with data G(x1) the conormal flux of the linearized
    # problem at the base data is (p-1) c on the x1 faces and 0 elsewhere
    from oracles import pseudo1d_fields

    p = 3.0
    dom, gam, f = pseudo1d_fields(lambda t: 1.0 + t, p, 33)
    sol = psolve.solve_p_laplace(gam, p, f, 1e-11)
    a = assemble_A(gam, p, sol.u)
    flux = dn_linear(a, ScalarField(dom, np.array(sol.u.values)))
    h2 = dom.h[0] ** 2
    assert np.max(np.abs(flux[(0, 1)] - (p - 1.0))) < 100 * h2
    assert np.max(np.abs(flux[(0, -1)] + (p - 1.0))) < 100 * h2
    assert np.max(np.abs(flux[(1, 1)])) < 100 * h2


def test_dn_linear_at_base_data_is_p_minus_one_times_nonlinear():
    # A grad u0 = (p-1) gamma |grad u0|^(p-2) grad u0, so the two DN maps at the
    # base data differ by exactly the factor p-1
    dom = build_domain((1.0, 1.0), (17, 17))
    gam = ScalarField.from_function(dom, lambda x, y: 1.0 + 0.2 * y)
    phi0 = ScalarField.from_function(dom, lambda x, y: x + 0.1 * y)
    p = 3.0
    sol = psolve.solve_p_laplace(gam, p, phi0, 1e-11)
    lin = dn_linear(assemble_A(gam, p, sol.u), phi0)
    nonlin = psolve.dn_apply(gam, p, phi0, 1e-11)
    dev = face_values_max_abs(face_values_combine(lambda a, b: a - (p - 1.0) * b, lin, nonlin))
    assert dev < 1e-8


def test_quotient_zero_direction(square):
    gam = ScalarField.constant(square, 1.0)
    phi0 = ScalarField.from_function(square, lambda x, y: x)
    zero = ScalarField.constant(square, 0.0)
    rep = verify_linearization(gam, 3.0, phi0, zero, eps_schedule=[1e-2])
    assert face_values_max_abs(rep.quotients[1e-2]) == 0.0


def test_quotient_nearly_linear_problem(square):
    # p close to 2: the map is essentially linear, so the quotient barely moves in eps
    gam = ScalarField.constant(square, 1.0)
    phi0 = ScalarField.from_function(square, lambda x, y: x)
    phi = ScalarField.from_function(square, lambda x, y: y**2 - y)
    p = 2.001
    q = verify_linearization(gam, p, phi0, phi, eps_schedule=[1e-1, 1e-3], tol=1e-12).quotients
    assert face_values_max_abs(face_values_combine(lambda a, b: a - b, q[1e-1], q[1e-3])) < 2e-4


def test_verify_linearization_monotone(square):
    gam = ScalarField.constant(square, 1.0)
    phi0 = ScalarField.from_function(square, lambda x, y: x)
    phi = ScalarField.from_function(square, lambda x, y: y**2 - y)
    rep = verify_linearization(gam, 3.0, phi0, phi, EPS_SCHEDULE)
    assert rep.passed
    assert rep.floor_value < rep.deviations[0]
    assert list(rep.quotients) == list(rep.eps_schedule)


def _sample_problem():
    # the linearize sample config: 33^2, p = 3, gamma = 1, data x1, phi = x2^2 - x2
    dom = build_domain((1.0, 1.0), (33, 33))
    gam = ScalarField.constant(dom, 1.0)
    phi0 = ScalarField.from_function(dom, lambda x, y: x)
    phi = ScalarField.from_function(dom, lambda x, y: y**2 - y)
    return gam, phi0, phi, 1e-10


def test_verify_linearization_factors_twice(monkeypatch):
    # the base solve's LU, and the LU of A that serves the reference solve
    # and preconditions all five quotient solves
    import scipy.sparse.linalg as spla

    fills = []
    splu = spla.splu

    def counting(*args, **kwargs):
        lu = splu(*args, **kwargs)
        fills.append(lu.nnz)
        return lu

    monkeypatch.setattr(spla, "splu", counting)
    gam, phi0, phi, tol = _sample_problem()
    rep = verify_linearization(gam, 3.0, phi0, phi, EPS_SCHEDULE, tol=tol)
    assert rep.passed
    assert rep.factorizations == 2
    # one SuperLU per level: 3 for the isotropic base operator, 1 for A
    assert rep.factor_fill == sum(fills) == 66_259 and len(fills) == 4
    assert rep.krylov_iterations > 0


def test_failing_quotient_solve_reports_its_own_history(monkeypatch):
    gam, phi0, phi, tol = _sample_problem()
    dn_apply = psolve.dn_apply
    histories = []

    def first_ok_then_zero_jacobians(*args, **kwargs):
        # after the first quotient solve every Newton Jacobian is zero: GMRES
        # misses and the refactor of the shared LU is singular
        flux = dn_apply(*args, **kwargs)
        histories.append(list(args[-1].history))
        monkeypatch.setattr(psolve, "flux_derivative", lambda g, p, eps=0.0: np.zeros(g.shape + (2,)))
        return flux

    monkeypatch.setattr(psolve, "dn_apply", first_ok_then_zero_jacobians)
    with pytest.raises(psolve.NonConvergence, match="Newton Jacobian is singular") as err:
        verify_linearization(gam, 3.0, phi0, phi, EPS_SCHEDULE, tol=tol)
    # the second solve's starting residual alone, not the first solve's history
    assert len(histories) == 1 and len(histories[0]) > 1
    assert len(err.value.history) == 1
    assert err.value.history[0] > tol


def test_report_validates_schedule():
    with pytest.raises(ValueError):
        linearize.LinearizationReport(eps_schedule=[1e-2, 1e-1], deviations=[1.0, 2.0])


# -- rescaling reduction ----------------------------------------------------------------


def test_rescale_p2_is_identity(square):
    gam = ScalarField.constant(square, 1.0)
    out = rescale_translation_invariant(gam, (1.0, 0.0), 2.0)
    assert out.stretch == 1.0
    assert out.domain == square


def test_rescale_stretch_factor(square):
    gam = ScalarField.constant(square, 1.0)
    out = rescale_translation_invariant(gam, (1.0, 0.0), 3.0)
    assert out.stretch == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-15)
    assert out.domain.extents[0] == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-15)
    assert out.domain.extents[1] == 1.0


def test_rescale_rejections(square):
    gam = ScalarField.from_function(square, lambda x, y: 1.0 + 0.5 * x)
    with pytest.raises(ValueError):
        rescale_translation_invariant(gam, (1.0, 0.0), 3.0)  # gamma varies along zeta
    gam2 = ScalarField.constant(square, 1.0)
    with pytest.raises(ValueError):
        rescale_translation_invariant(gam2, (0.6, 0.8), 3.0)  # not axis aligned


def test_rescale_dn_match():
    # stretched isotropic problem reproduces the anisotropic DN fluxes
    dom = build_domain((1.0, 1.0), (33, 33))
    gam = ScalarField.from_function(dom, lambda x, y: 1.0 + y**2)
    p = 3.0
    u0 = ScalarField.from_function(dom, lambda x, y: x)
    a = assemble_A(gam, p, u0)
    phi = ScalarField.from_function(dom, lambda x, y: y**2 - y + 0.2 * x)
    flux_aniso = dn_linear(a, phi)

    out = rescale_translation_invariant(gam, (1.0, 0.0), p)
    iso = TensorField(out.domain, out.weight.values[..., None, None] * np.eye(2))
    flux_iso = dn_linear(iso, ScalarField(out.domain, np.array(phi.values)))
    for face in dom.faces:
        scale = out.flux_scale if face.axis == out.axis else 1.0
        assert np.max(np.abs(flux_aniso[face.key] - scale * flux_iso[face.key])) < 1e-10
