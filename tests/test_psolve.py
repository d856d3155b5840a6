import math
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from plap import psolve
from plap.grid import ScalarField, anisotropic_operator, build_domain, integrate_boundary
from plap.psolve import (
    DegenerateGradientWarning,
    NonConvergence,
    boundary_flux,
    boundary_pairing,
    dn_apply,
    flux_derivative,
    p_energy,
    residual,
    solve_p_laplace,
)

from oracles import (
    anisotropic_operator_loop,
    convergence_orders,
    fd_jacobian,
    pseudo1d_boundary_profile,
    pseudo1d_fields,
)


@pytest.fixture
def square17():
    return build_domain((1.0, 1.0), (17, 17))


def test_config_validation(square17):
    # p is checked by test_rejects_p_outside_range, and the Newton budget
    # and the regularization are module constants, so tol is the one setting
    gam = ScalarField.constant(square17, 1.0)
    f = ScalarField.from_function(square17, lambda x, y: x)
    for tol in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="tol must be positive"):
            solve_p_laplace(gam, 3.0, f, tol)


def test_flux_derivative_is_jacobian_of_regularized_flux():
    # a (2, 3) batch of 3-vectors, one of them zero (finite thanks to eps)
    rng = np.random.default_rng(5)
    grads = rng.normal(size=(2, 3, 3))
    grads[1, 2] = 0.0
    p, eps = 1.5, 0.3

    def flux(v):
        return (v @ v + eps * eps) ** ((p - 2.0) / 2.0) * v

    tensors = flux_derivative(grads, p, eps)
    assert tensors.shape == (2, 3, 3, 3)
    for idx in np.ndindex(2, 3):
        assert np.allclose(tensors[idx], fd_jacobian(flux, grads[idx]), atol=1e-7)


def test_p_energy_unit_gradient(square17):
    gam = ScalarField.constant(square17, 1.0)
    u = ScalarField.from_function(square17, lambda x, y: x)
    for p in (1.5, 3.0):
        assert p_energy(gam, p, u, 0.0) == pytest.approx(1.0 / p, abs=1e-14)


def test_p_energy_constant_field_is_zero(square17):
    gam = ScalarField.constant(square17, 2.0)
    u = ScalarField.constant(square17, 4.0)
    assert p_energy(gam, 3.0, u, 0.0) == 0.0


def test_p_energy_scaled_gradient(square17):
    gam = ScalarField.constant(square17, 1.0)
    u = ScalarField.from_function(square17, lambda x, y: 2.0 * x)
    assert p_energy(gam, 3.0, u, 0.0) == pytest.approx(8.0 / 3.0, abs=1e-13)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_affine_data_solved_exactly(square17, p):
    gam = ScalarField.constant(square17, 1.0)
    zeta = np.array([np.cos(0.4), np.sin(0.4)])
    f = ScalarField.from_function(square17, lambda x, y: zeta[0] * x + zeta[1] * y)
    sol = solve_p_laplace(gam, p, f)
    assert sol.residual_norm <= 1e-8
    assert np.max(np.abs(sol.u.values - f.values)) < 1e-8
    # boundary rows match the data bitwise
    assert np.array_equal(sol.u.values[square17.boundary_mask], f.values[square17.boundary_mask])


def test_transverse_weight_keeps_affine_solution(square17):
    gam = ScalarField.from_function(square17, lambda x, y: 1.0 + 0.7 * y**2)
    f = ScalarField.from_function(square17, lambda x, y: x)
    sol = solve_p_laplace(gam, 2.5, f)
    assert np.max(np.abs(sol.u.values - square17.coords[0])) < 1e-9


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_pseudo1d_quadrature_solution(p):
    errs = []
    for res in (17, 33):
        dom, gam, f = pseudo1d_fields(lambda t: 1.0 + t, p, res)
        sol = solve_p_laplace(gam, p, f)
        errs.append(np.max(np.abs(sol.u.values - f.values)))
    assert errs[1] < errs[0]
    assert convergence_orders(errs)[0] > 1.8


_PROFILE_WEIGHTS = {
    "1+x1": lambda t: 1.0 + t,
    "exp(x1)": math.exp,
    "1+0.5*sin(3*x1)": lambda t: 1.0 + 0.5 * math.sin(3.0 * t),
    # dips to 0.1 six times over [0, 1]: coarse cells need many subcells
    "1+0.9*sin(40*x1)": lambda t: 1.0 + 0.9 * math.sin(40.0 * t),
}


@pytest.mark.parametrize("res", [5, 17, 65])
@pytest.mark.parametrize("gamma", list(_PROFILE_WEIGHTS))
@pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 6.0, 8.0])
def test_pseudo1d_profile_matches_adaptive_quadrature(p, gamma, res):
    xs = np.linspace(0.0, 1.0, res)
    got = psolve.pseudo1d_profile(gamma, p, xs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # quad warns of roundoff at its 1e-14 target
        ref = pseudo1d_boundary_profile(_PROFILE_WEIGHTS[gamma], p, xs)
    assert got[0] == 0.0
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_pseudo1d_profile_checks_the_weight_between_nodes():
    # positive at the five nodes, negative between them
    xs = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="strictly positive"):
        psolve.pseudo1d_profile("0.5 + cos(8*3.14159265358979*x1)", 3.0, xs)
    with pytest.raises(psolve.ProfileNotResolved, match="not finite"):
        psolve.pseudo1d_profile("1+x1", 3.0, xs, c=-1.0)
    assert not np.any(psolve.pseudo1d_profile("1+x1", 3.0, xs, c=0.0))


def test_pseudo1d_profile_refuses_an_unresolved_integrand():
    # a near pole at x1 = 1e-6 i: 1024 nodes on a cell of width 1/4 do not settle
    with pytest.raises(psolve.ProfileNotResolved, match="1024 nodes per cell"):
        psolve.pseudo1d_profile("1e-12 + x1^2", 1.2, np.linspace(0.0, 1.0, 5))


@pytest.mark.parametrize(
    "case, p",
    [("pseudo1d", 1.2), ("pseudo1d", 6.0), ("quadratic", 1.05), ("quadratic", 8.0)],
)
def test_newton_decreases_residual_monotonically(case, p):
    if case == "pseudo1d":
        _, gam, f = pseudo1d_fields(lambda t: 1.0 + t, p, 33)
    else:
        dom = build_domain((1.0, 1.0), (33, 33))
        gam = ScalarField.from_function(dom, lambda x, y: 1.0 + 0.5 * y**2)
        f = ScalarField.from_function(dom, lambda x, y: x + 0.2 * (y**2 - y) + 0.3 * x * y)
    sol = solve_p_laplace(gam, p, f)
    hist = sol.residual_history
    assert all(b < a for a, b in zip(hist, hist[1:])), hist
    assert sol.iterations <= 8


def test_solution_in_3d():
    dom = build_domain((1.0, 1.0, 1.0), (7, 7, 7))
    gam = ScalarField.from_function(dom, lambda x, y, z: 1.0 + 0.1 * x)
    f = ScalarField.from_function(dom, lambda x, y, z: x + 0.2 * y - 0.1 * z)
    sol = solve_p_laplace(gam, 3.0, f)
    assert sol.residual_norm <= 1e-8


def test_dn_unit_weight_affine_flux(square17):
    gam = ScalarField.constant(square17, 1.0)
    f = ScalarField.from_function(square17, lambda x, y: x)
    flux = dn_apply(gam, 3.0, f)
    assert np.max(np.abs(flux[(0, 1)] - 1.0)) < 1e-7
    assert np.max(np.abs(flux[(0, -1)] + 1.0)) < 1e-7
    assert np.max(np.abs(flux[(1, 1)])) < 1e-7


def test_dn_scaled_weight(square17):
    gam = ScalarField.constant(square17, 2.0)
    zeta = np.array([0.6, 0.8])
    f = ScalarField.from_function(square17, lambda x, y: zeta[0] * x + zeta[1] * y)
    flux = dn_apply(gam, 2.5, f)
    for face in square17.faces:
        nu = square17.normal(face)
        assert np.max(np.abs(flux[face.key] - 2.0 * float(nu @ zeta))) < 1e-7


def test_dn_metamorphic_relations():
    # Lambda(f) is the DN map of a weight with no symmetry.  Swapping x1 and
    # x2 in weight and data swaps the faces, and the p-Laplacian is
    # homogeneous of degree p - 1: Lambda(2 f) = 2^(p-1) Lambda(f).  Both
    # hold bit for bit on this problem, so both are checked exactly
    dom = build_domain((1.0, 1.0), (33, 33))
    p = 3.0

    def weight(x, y):
        return 1.0 + 0.3 * np.sin(np.pi * x) * np.sin(2.0 * np.pi * y) + 0.2 * x

    def data(x, y):
        return 3.0 * x + y**2 + 0.1 * x * y

    def dn(w, f):
        return dn_apply(ScalarField.from_function(dom, w), p, ScalarField.from_function(dom, f))

    flux = dn(weight, data)
    swapped = dn(lambda x, y: weight(y, x), lambda x, y: data(y, x))
    doubled = dn(weight, lambda x, y: 2.0 * data(x, y))
    assert 13.0 < max(float(np.max(np.abs(v))) for v in flux.values()) < 15.0
    for axis, side in flux:
        assert np.array_equal(swapped[(1 - axis, side)], flux[(axis, side)])
        assert np.array_equal(doubled[(axis, side)], 2.0 ** (p - 1.0) * flux[(axis, side)])


def test_dn_pseudo1d_flux_is_constant():
    p = 3.0
    dom, gam, f = pseudo1d_fields(lambda t: 1.0 + t, p, 33)
    sol = solve_p_laplace(gam, p, f)
    flux = boundary_flux(gam, p, sol.u)
    h2 = dom.h[0] ** 2
    assert np.max(np.abs(flux[(0, 1)] - 1.0)) < 50 * h2
    assert np.max(np.abs(flux[(0, -1)] + 1.0)) < 50 * h2
    assert np.max(np.abs(flux[(1, 1)])) < 50 * h2


def test_residual_affine_exact_zero(square17):
    gam = ScalarField.constant(square17, 1.0)
    # dyadic slopes make the nodal values exact, so the flux is bitwise constant
    # and the interior (central) divergence rows cancel exactly
    u = ScalarField.from_function(square17, lambda x, y: 2.0 * x - 3.0 * y)
    r = residual(gam, 2.5, u, 0.0)
    assert np.max(np.abs(r.values[square17.interior_mask])) == 0.0
    # generic slopes leave only ulp-level noise in the nodal differences
    u2 = ScalarField.from_function(square17, lambda x, y: 0.3 * x - 0.9 * y)
    r2 = residual(gam, 2.5, u2, 0.0)
    assert np.max(np.abs(r2.values[square17.interior_mask])) < 1e-12


def test_residual_of_converged_solve_below_tol(square17):
    gam = ScalarField.from_function(square17, lambda x, y: 1.0 + 0.3 * x)
    f = ScalarField.from_function(square17, lambda x, y: x + 0.1 * y)
    sol = solve_p_laplace(gam, 3.0, f, 1e-9)
    r = residual(gam, 3.0, sol.u, 1e-8)
    assert np.max(np.abs(r.values[square17.interior_mask])) <= 1e-9


def test_residual_generic_field_nonzero(square17):
    rng = np.random.default_rng(0)
    gam = ScalarField.constant(square17, 1.0)
    u = ScalarField(square17, rng.normal(size=square17.shape))
    r = residual(gam, 3.0, u, 1e-8)
    assert np.max(np.abs(r.values[square17.interior_mask])) > 1.0


def test_energy_monotonicity_of_minimizer(square17):
    # solved field beats 20 random same-trace competitors
    rng = np.random.default_rng(11)
    gam = ScalarField.from_function(square17, lambda x, y: 1.0 + 0.5 * y**2)
    f = ScalarField.from_function(square17, lambda x, y: x + 0.2 * (y**2 - y))
    p = 2.5
    sol = solve_p_laplace(gam, p, f)
    e0 = p_energy(gam, p, sol.u, 1e-8)
    for _ in range(20):
        pert = np.zeros(square17.shape)
        amp = rng.uniform(0.01, 0.2)
        pert[square17.interior_mask] = amp * rng.normal(size=int(square17.interior_mask.sum()))
        e1 = p_energy(gam, p, ScalarField(square17, sol.u.values + pert), 1e-8)
        assert e1 >= e0 - 1e-12


def test_maximum_principle_surrogate():
    rng = np.random.default_rng(23)
    dom = build_domain((1.0, 1.0), (17, 17))
    x, y = dom.coords
    for p in (1.5, 2.5, 3.0):
        a = rng.normal(size=4) * 0.4
        f = ScalarField(dom, a[0] * x + a[1] * y + a[2] * np.sin(2 * x + 1) + a[3] * np.cos(2 * y))
        gam = ScalarField(dom, 1.0 + 0.3 * np.sin(np.pi * x) * np.sin(np.pi * y))
        sol = solve_p_laplace(gam, p, f)
        fb = f.values[dom.boundary_mask]
        assert sol.u.values.max() <= fb.max() + 1e-10
        assert sol.u.values.min() >= fb.min() - 1e-10


def test_flux_balance_refines_at_second_order():
    balances = []
    for res in (17, 33):
        dom = build_domain((1.0, 1.0), (res, res))
        gam = ScalarField.from_function(dom, lambda x, y: 1.0 + x)
        f = ScalarField.from_function(dom, lambda x, y: x + 0.3 * y)
        sol = solve_p_laplace(gam, 3.0, f)
        flux = boundary_flux(gam, 3.0, sol.u)
        balances.append(abs(integrate_boundary(dom, flux)))
    assert balances[0] < 0.05
    assert balances[1] < 0.35 * balances[0]


def test_energy_boundary_pairing():
    dom = build_domain((1.0, 1.0), (33, 33))
    gam = ScalarField.from_function(dom, lambda x, y: 1.0 + y**2)
    f = ScalarField.from_function(dom, lambda x, y: x + 0.2 * (y**2 - y))
    p = 2.5
    sol = solve_p_laplace(gam, p, f)
    flux = boundary_flux(gam, p, sol.u)
    lhs = boundary_pairing(f, flux)
    rhs = p * p_energy(gam, p, sol.u, 0.0)
    assert abs(lhs - rhs) / abs(rhs) < 5e-3


def test_nonconvergence_reports_history(square17, monkeypatch):
    gam = ScalarField.from_function(square17, lambda x, y: 1.0 + 0.4 * x)
    f = ScalarField.from_function(square17, lambda x, y: x + 0.2 * y)
    monkeypatch.setattr(psolve, "_MAX_NEWTON_STEPS", 0)
    with pytest.raises(NonConvergence) as err:
        solve_p_laplace(gam, 3.0, f)
    assert len(err.value.history) >= 1


def _count_factorizations(monkeypatch) -> list:
    # one block-triangular order per factorization, whatever its levels
    calls = []
    order = psolve._block_triangular_order
    monkeypatch.setattr(psolve, "_block_triangular_order", lambda mat: calls.append(1) or order(mat))
    return calls


def _wavy_problem(n):
    dom = build_domain((1.0, 1.0), (n, n))
    gam = ScalarField.from_function(dom, lambda x, y: 1.0 + 0.3 * np.sin(np.pi * x) * np.sin(np.pi * y))
    f = ScalarField.from_function(dom, lambda x, y: np.cos(0.3) * x + np.sin(0.3) * y + 0.2 * x * y)
    return gam, f


def test_newton_reuses_one_factor(monkeypatch):
    gam, f = _wavy_problem(33)
    calls = _count_factorizations(monkeypatch)
    sol = solve_p_laplace(gam, 3.0, f)
    assert sol.residual_norm <= 1e-8
    assert sol.iterations >= 2 and sol.krylov_iterations > 0
    assert len(calls) == sol.factorizations <= 2


def test_start_skips_isotropic_solve(monkeypatch):
    gam, f = _wavy_problem(33)
    cold = solve_p_laplace(gam, 3.0, f, 1e-11)
    start = ScalarField(f.domain, cold.u.values + 1e-3 * np.sin(np.pi * f.domain.coords[0]))
    calls = _count_factorizations(monkeypatch)
    warm = solve_p_laplace(gam, 3.0, f, 1e-11, start=start)
    assert len(calls) == warm.factorizations == 1
    assert warm.residual_norm <= 1e-11
    assert np.max(np.abs(warm.u.values - cold.u.values)) < 1e-10
    assert np.array_equal(warm.u.values[f.domain.boundary_mask], f.values[f.domain.boundary_mask])


def test_singular_newton_jacobian_is_nonconvergence(square17, monkeypatch):
    gam = ScalarField.from_function(square17, lambda x, y: 1.0 + 0.4 * x)
    f = ScalarField.from_function(square17, lambda x, y: x + 0.2 * y**2)
    # an all-zero Jacobian: GMRES misses, the refactor finds it singular
    monkeypatch.setattr(psolve, "flux_derivative", lambda g, p, eps=0.0: np.zeros(g.shape + (2,)))
    with pytest.raises(NonConvergence, match="Newton Jacobian is singular") as err:
        solve_p_laplace(gam, 3.0, f)
    assert len(err.value.history) == 1


def test_reused_lu_solves_many_and_near(square17):
    # the interior blocks of two nearby isotropic operators
    idx = square17.interior_flat

    def block(scale):
        eye = (1.0 + scale * square17.coords[0])[..., None, None] * np.eye(2)
        return anisotropic_operator(square17, eye)[0]

    mat0, mat1 = block(0.0), block(0.3)
    rhs = np.random.default_rng(0).standard_normal((idx.size, 3))
    lu = psolve._ReusedLU()
    cols = lu.solve(mat0, rhs, 1e-10, "test operator")
    for k in range(3):
        one = psolve._ReusedLU().solve(mat0, np.array(rhs[:, k]), 1e-10, "test operator")
        assert np.array_equal(cols[:, k], one)
    x = lu.solve(mat1, rhs[:, 0], 1e-10, "test operator")
    assert lu.factorizations == 1 and lu.krylov_iterations > 0
    assert np.linalg.norm(mat1 @ x - rhs[:, 0]) <= 1e-10 * np.linalg.norm(rhs[:, 0])
    # far from the held factor: one restart cycle misses and the matrix is factored
    far, _ = anisotropic_operator(square17, np.broadcast_to(np.diag([1.0, 1e-4]), square17.shape + (2, 2)))
    x = lu.solve(far, rhs[:, 1], 1e-12, "test operator")
    assert lu.factorizations == 2
    assert np.linalg.norm(far @ x - rhs[:, 1]) <= 1e-12 * np.linalg.norm(rhs[:, 1])


def test_gmres_spends_one_factor_solve_per_step(square17, monkeypatch):
    eye = np.eye(2)
    mat0, mat1 = (anisotropic_operator(square17, (1.0 + s * square17.coords[0])[..., None, None] * eye)[0]
                  for s in (0.0, 0.3))
    rhs = np.random.default_rng(1).standard_normal(mat0.shape[0])
    lu = psolve._ReusedLU()
    lu.solve(mat0, rhs, 1e-10, "test operator")
    calls = []
    factor_solve = psolve._ReusedLU._factor_solve
    monkeypatch.setattr(psolve._ReusedLU, "_factor_solve",
                        lambda self, r: calls.append(1) or factor_solve(self, r))
    x = lu.solve(mat1, rhs, 1e-10, "test operator")
    assert lu.factorizations == 1 and lu.krylov_iterations > 1
    assert len(calls) == lu.krylov_iterations + 1
    assert np.linalg.norm(mat1 @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)
    # scipy's GMRES on the same right-preconditioned operator takes as many steps
    steps = []
    op = spla.LinearOperator(mat1.shape, matvec=lambda y: mat1 @ factor_solve(lu, y), dtype=float)
    spla.gmres(op, rhs, rtol=1e-10, atol=0.0, restart=50, maxiter=1,
               callback=steps.append, callback_type="pr_norm")
    assert len(steps) == lu.krylov_iterations


def test_each_level_takes_a_minimum_degree_lu(monkeypatch):
    calls = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda *a, **k: calls.append(k) or splu(*a, **k))
    gam, f = _wavy_problem(17)
    sol = solve_p_laplace(gam, 3.0, f)
    # the isotropic start, one factorization in 3 levels, preconditions every Newton step
    assert sol.factorizations == 1
    assert calls == [{"permc_spec": "MMD_AT_PLUS_A", "options": {"SymmetricMode": True}}] * 3


def _isotropic_tensor(shape):
    dom = build_domain((1.0,) * len(shape), shape)
    gam = 1.0 + 0.3 * np.sin(np.pi * dom.coords[0]) * np.cos(np.pi * dom.coords[-1])
    return dom, gam[..., None, None] * np.eye(dom.n)


@pytest.mark.parametrize("shape, most", [((129, 129), 850_000), ((17, 17, 17), 400_000)])
def test_isotropic_lu_fill(shape, most, monkeypatch):
    # L.nnz + U.nnz of one LU of the whole block: C order with COLAMD 1.46M
    # at 129^2 and 0.98M at 17^3; nested dissection without the component
    # order 1.00M and 0.68M.  SuperLU.nnz of one LU per level, minimum
    # degree on each: 498,220 and 138,386
    factors = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda *a, **k: factors.append(splu(*a, **k)) or factors[-1])
    dom, tensor = _isotropic_tensor(shape)
    a_ii, _ = anisotropic_operator(dom, tensor)
    lu = psolve._ReusedLU()
    lu.solve(a_ii, np.ones(a_ii.shape[0]), 1e-12, "isotropic operator")
    assert lu.factorizations == 1 and len(factors) == dom.n + 1
    assert lu.factor_fill == sum(f.nnz for f in factors) == {2: 498_220, 3: 138_386}[dom.n]
    assert sum(f.L.nnz + f.U.nnz for f in factors) <= most


@pytest.mark.parametrize("shape", [(129, 129), (17, 17, 17), (9, 33)])
def test_diagonal_tensor_block_is_block_lower_triangular(shape):
    # the wide stencil splits a diagonal-tensor block into 2^n parity
    # lattices, joined only by the one-sided boundary-flux rows, which on
    # odd-resolution grids all point one way
    dom, tensor = _isotropic_tensor(shape)
    a_ii, _ = anisotropic_operator(dom, tensor)
    count, labels = connected_components(a_ii, directed=True, connection="strong")
    assert count == 2**dom.n
    perm, bounds = psolve._block_triangular_order(a_ii)
    assert np.array_equal(np.sort(perm), np.arange(a_ii.shape[0]))
    # 3 levels in 2-D, 4 in 3-D, each holding whole components, its rows in
    # their given order
    assert len(bounds) == dom.n + 2 and bounds[0] == 0 and bounds[-1] == a_ii.shape[0]
    level = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        assert np.all(np.diff(perm[lo:hi]) > 0)
    runs = labels[perm]
    assert all(np.unique(level[runs == c]).size == 1 for c in range(count))
    # strictly block lower triangular by levels: nothing above the block
    # diagonal, something below it, and no coupling inside a level between
    # two components
    coo = a_ii[perm][:, perm].tocoo()
    row_level, col_level = level[coo.row], level[coo.col]
    assert np.all(row_level >= col_level)
    assert np.any(row_level > col_level)
    same = row_level == col_level
    assert np.array_equal(runs[coo.row[same]], runs[coo.col[same]])


@pytest.mark.parametrize("shape", [(129, 129), (17, 17, 17), (9, 33)])
def test_block_triangular_solve_matches_unpermuted(shape):
    dom, tensor = _isotropic_tensor(shape)
    a_ii, _ = anisotropic_operator(dom, tensor)
    rhs = np.random.default_rng(4).standard_normal((a_ii.shape[0], 3))
    ref = spla.splu(a_ii, permc_spec="NATURAL").solve(rhs)
    lu = psolve._ReusedLU()
    cols = lu.solve(a_ii, rhs, 1e-12, "isotropic operator")
    one = lu.solve(a_ii, rhs[:, 1], 1e-12, "isotropic operator")  # GMRES on the held factor
    assert lu.factorizations == 1
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(cols - ref)) <= 1e-12 * scale
    assert np.max(np.abs(one - ref[:, 1])) <= 1e-12 * scale


def _full_tensor_jacobian(shape):
    # gamma dJ(g) of a gradient field that turns across the grid
    dom, tensor = _isotropic_tensor(shape)
    g = np.stack([np.cos(0.3 + 2.0 * c) for c in dom.coords], axis=-1)
    return anisotropic_operator(dom, tensor @ flux_derivative(g, 3.0))[0]


@pytest.mark.parametrize("kind, shape", [
    ("full", (33, 33)), ("full", (9, 9, 17)), ("isotropic", (64, 64)),
])
def test_one_component_takes_the_plain_path(kind, shape):
    # one strong component: one level in the given order, and the factor and
    # its solves are bitwise those of SuperLU on the block as given
    if kind == "full":
        a_ii = _full_tensor_jacobian(shape)
    else:
        dom, tensor = _isotropic_tensor(shape)
        a_ii = anisotropic_operator(dom, tensor)[0]
    assert connected_components(a_ii, directed=True, connection="strong")[0] == 1
    perm, bounds = psolve._block_triangular_order(a_ii)
    assert np.array_equal(perm, np.arange(a_ii.shape[0])) and bounds.tolist() == [0, a_ii.shape[0]]
    rhs = np.random.default_rng(5).standard_normal((a_ii.shape[0], 2))
    ref = spla.splu(a_ii, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
    lu = psolve._ReusedLU()
    assert np.array_equal(lu.solve(a_ii, rhs, 1e-12, "operator"), ref.solve(rhs))
    assert np.array_equal(psolve._ReusedLU().solve(a_ii, rhs[:, 0], 1e-12, "operator"), ref.solve(rhs[:, 0]))
    assert lu.factor_fill == ref.nnz


@pytest.mark.parametrize("shape", [(65, 65), (17, 17, 17)])
def test_isotropic_solve_matches_colamd_reference(shape):
    dom, tensor = _isotropic_tensor(shape)
    op = anisotropic_operator_loop(dom, tensor)
    rng = np.random.default_rng(3)
    u_bnd = rng.standard_normal(dom.boundary_flat.size)
    c_order = np.flatnonzero(dom.interior_mask.ravel())
    ref = np.zeros(dom.n_nodes)
    ref[c_order] = spla.splu(op[c_order][:, c_order].tocsc(), permc_spec="COLAMD").solve(
        -(op[c_order][:, dom.boundary_flat] @ u_bnd)
    )
    a_ii, a_ib = anisotropic_operator(dom, tensor)
    got = np.zeros(dom.n_nodes)
    got[dom.interior_flat] = psolve._ReusedLU().solve(
        a_ii, -(a_ib @ u_bnd), 1e-12, "isotropic operator"
    )
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_degenerate_gradient_warning(square17):
    gam = ScalarField.constant(square17, 1.0)
    f = ScalarField.constant(square17, 0.0)
    with pytest.warns(DegenerateGradientWarning):
        sol = solve_p_laplace(gam, 3.0, f)
    assert sol.degenerate_gradient


def test_rejects_p_outside_range(square17):
    gam = ScalarField.constant(square17, 1.0)
    f = ScalarField.from_function(square17, lambda x, y: x)
    for p in (2.0, 1.0, 0.5, float("nan")):
        with pytest.raises(ValueError, match=r"p must lie in \(1,2\) or \(2,inf\)"):
            solve_p_laplace(gam, p, f)


def test_rejects_nonpositive_weight(square17):
    gam = ScalarField.from_function(square17, lambda x, y: x - 0.5)
    f = ScalarField.from_function(square17, lambda x, y: x)
    with pytest.raises(ValueError):
        solve_p_laplace(gam, 3.0, f)


def test_rejects_nonfinite_boundary_data(square17):
    gam = ScalarField.constant(square17, 1.0)
    vals = np.zeros(square17.shape)
    vals[0, 3] = np.inf
    with pytest.raises(ValueError):
        solve_p_laplace(gam, 3.0, ScalarField(square17, vals))
