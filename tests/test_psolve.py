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
    PSolveConfig,
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


def test_config_validation():
    with pytest.raises(ValueError):
        PSolveConfig(p=2.0)
    with pytest.raises(ValueError):
        PSolveConfig(p=0.5)
    with pytest.raises(ValueError):
        PSolveConfig(p=3.0, tol=0.0)


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
    with pytest.raises(ValueError, match="not finite"):
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


def test_dn_pseudo1d_flux_is_constant():
    p = 3.0
    dom, gam, f = pseudo1d_fields(lambda t: 1.0 + t, p, 33)
    sol = solve_p_laplace(gam, p, f)
    flux = boundary_flux(gam, p, sol.u, 1e-8)
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
    cfg = PSolveConfig(p=3.0, tol=1e-9)
    sol = solve_p_laplace(gam, 3.0, f, cfg)
    r = residual(gam, 3.0, sol.u, cfg.eps_reg)
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
        flux = boundary_flux(gam, 3.0, sol.u, 1e-8)
        balances.append(abs(integrate_boundary(dom, flux)))
    assert balances[0] < 0.05
    assert balances[1] < 0.35 * balances[0]


def test_energy_boundary_pairing():
    dom = build_domain((1.0, 1.0), (33, 33))
    gam = ScalarField.from_function(dom, lambda x, y: 1.0 + y**2)
    f = ScalarField.from_function(dom, lambda x, y: x + 0.2 * (y**2 - y))
    p = 2.5
    sol = solve_p_laplace(gam, p, f)
    flux = boundary_flux(gam, p, sol.u, 1e-8)
    lhs = boundary_pairing(f, flux)
    rhs = p * p_energy(gam, p, sol.u, 0.0)
    assert abs(lhs - rhs) / abs(rhs) < 5e-3


def test_nonconvergence_reports_history(square17):
    gam = ScalarField.from_function(square17, lambda x, y: 1.0 + 0.4 * x)
    f = ScalarField.from_function(square17, lambda x, y: x + 0.2 * y)
    cfg = PSolveConfig(p=3.0, max_iter=0)
    with pytest.raises(NonConvergence) as err:
        solve_p_laplace(gam, 3.0, f, cfg)
    assert len(err.value.history) >= 1


def test_zero_gradient_in_newton_loop_is_named():
    # p > 2: the flux is 0 at a zero gradient, so the first residual is
    # defined; the Jacobian is not, on the midline x1 = 0.5 of this start
    dom = build_domain((1.0, 1.0), (9, 9))
    gam = ScalarField.constant(dom, 1.0)
    f = ScalarField.from_function(dom, lambda x, y: (x - 0.5) ** 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonConvergence) as err:
            solve_p_laplace(gam, 3.0, f, PSolveConfig(p=3.0, eps_reg=0.0), start=f)
    assert "gradient is exactly zero at 9 of the nodes" in str(err.value)
    assert "the flux derivative is undefined" in str(err.value)
    assert len(err.value.history) == 1


def _count_factorizations(monkeypatch) -> list:
    calls = []
    splu = spla.splu

    def counting(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
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
    cold = solve_p_laplace(gam, 3.0, f, PSolveConfig(p=3.0, tol=1e-11))
    start = ScalarField(f.domain, cold.u.values + 1e-3 * np.sin(np.pi * f.domain.coords[0]))
    calls = _count_factorizations(monkeypatch)
    warm = solve_p_laplace(gam, 3.0, f, PSolveConfig(p=3.0, tol=1e-11), start=start)
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


def test_lu_factors_in_the_grid_order(monkeypatch):
    specs = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda *a, **k: specs.append(k.get("permc_spec")) or splu(*a, **k))
    gam, f = _wavy_problem(17)
    solve_p_laplace(gam, 3.0, f)
    assert specs == ["NATURAL"]


def _isotropic_tensor(shape):
    dom = build_domain((1.0,) * len(shape), shape)
    gam = 1.0 + 0.3 * np.sin(np.pi * dom.coords[0]) * np.cos(np.pi * dom.coords[-1])
    return dom, gam[..., None, None] * np.eye(dom.n)


@pytest.mark.parametrize("shape, most", [((129, 129), 850_000), ((17, 17, 17), 400_000)])
def test_isotropic_lu_fill(shape, most, monkeypatch):
    # L.nnz + U.nnz: C order with COLAMD 1.46M at 129^2 and 0.98M at 17^3;
    # nested dissection without the component order 1.00M and 0.68M
    factors = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda *a, **k: factors.append(splu(*a, **k)) or factors[-1])
    dom, tensor = _isotropic_tensor(shape)
    a_ii, _ = anisotropic_operator(dom, tensor)
    lu = psolve._ReusedLU()
    lu.solve(a_ii, np.ones(a_ii.shape[0]), 1e-12, "isotropic operator")
    assert len(factors) == lu.factorizations == 1
    assert lu.factor_fill == factors[0].nnz
    assert factors[0].L.nnz + factors[0].U.nnz <= most


@pytest.mark.parametrize("shape", [(129, 129), (17, 17, 17), (9, 33)])
def test_diagonal_tensor_block_is_block_lower_triangular(shape):
    # the wide stencil splits a diagonal-tensor block into 2^n parity
    # lattices, joined only by the one-sided boundary-flux rows, which on
    # odd-resolution grids all point one way
    dom, tensor = _isotropic_tensor(shape)
    a_ii, _ = anisotropic_operator(dom, tensor)
    count, labels = connected_components(a_ii, directed=True, connection="strong")
    assert count == 2**dom.n
    perm = psolve._block_triangular_order(a_ii)
    assert np.array_equal(np.sort(perm), np.arange(a_ii.shape[0]))
    # each component is one run of the order, its rows in their given order
    runs = labels[perm]
    assert np.count_nonzero(np.diff(runs)) == count - 1
    for c in range(count):
        assert np.all(np.diff(perm[runs == c]) > 0)
    # strictly block lower triangular: nothing above the block diagonal,
    # something below it
    block = np.r_[0, np.cumsum(np.diff(runs) != 0)]
    coo = a_ii[perm][:, perm].tocoo()
    row_block, col_block = block[coo.row], block[coo.col]
    assert np.all(row_block >= col_block)
    assert np.any(row_block > col_block)


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
    # one strong component: no permutation, the factor and its solves are
    # bitwise those of SuperLU on the block as given
    if kind == "full":
        a_ii = _full_tensor_jacobian(shape)
    else:
        dom, tensor = _isotropic_tensor(shape)
        a_ii = anisotropic_operator(dom, tensor)[0]
    assert connected_components(a_ii, directed=True, connection="strong")[0] == 1
    assert psolve._block_triangular_order(a_ii) is None
    rhs = np.random.default_rng(5).standard_normal((a_ii.shape[0], 2))
    ref = spla.splu(a_ii, permc_spec="NATURAL")
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


def test_rejects_mismatched_p(square17):
    gam = ScalarField.constant(square17, 1.0)
    f = ScalarField.from_function(square17, lambda x, y: x)
    with pytest.raises(ValueError):
        solve_p_laplace(gam, 3.0, f, PSolveConfig(p=2.5))


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
