import numpy as np
import pytest

from plap.grid import ScalarField, VectorField, build_domain
from plap import criticalfree, linearize, psolve
from plap.criticalfree import (
    BallEscape,
    assemble_B,
    boundary_cycle,
    extremal_boundary_data_2d,
    fixed_point_u0,
    min_gradient,
)

from oracles import gauss_legendre_matrix_integral


@pytest.fixture
def square():
    return build_domain((1.0, 1.0), (17, 17))


def _const_vector_field(dom, vec):
    return VectorField(dom, np.broadcast_to(np.asarray(vec, dtype=float), dom.shape + (dom.n,)).copy())


# -- segment-averaged tensor -----------------------------------------------------------


def test_b_zero_displacement(square):
    gam = ScalarField.constant(square, 1.0)
    p = 2.7
    b = assemble_B(gam, p, _const_vector_field(square, [0.0, 0.0]))
    assert np.max(np.abs(b.values - np.diag([p - 1.0, 1.0]))) < 1e-12


def test_b_p2_is_identity(square):
    gam = ScalarField.from_function(square, lambda x, y: 1.0 + 0.1 * x)
    b = assemble_B(gam, 2.0, _const_vector_field(square, [0.2, 0.4]))
    expected = gam.values[..., None, None] * np.eye(2)
    assert np.max(np.abs(b.values - expected)) < 1e-12


def test_b_against_gauss_legendre_oracle():
    # xi of one length in every direction, and anti-aligned with zeta at one
    # node, where the singularity of the integrand comes nearest to [0, 1]
    dom = build_domain((1.0, 1.0), (9, 9))
    gam = ScalarField.from_function(dom, lambda x, y: 1.0 + 0.2 * x * y)
    angle = np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, dom.shape)
    e1 = np.array([1.0, 0.0])
    for p in (1.1, 1.5, 3.0, 6.0, 12.0):
        for radius in (0.02, 0.3, 0.49, 0.9):
            xi = radius * np.stack([np.cos(angle), np.sin(angle)], axis=-1)
            xi[4, 5] = -radius * e1
            b = assemble_B(gam, p, VectorField(dom, xi))
            oracle = gam.values[..., None, None] * gauss_legendre_matrix_integral(
                lambda t: psolve.flux_derivative(e1 + t * xi, p), npts=64
            )
            assert np.max(np.abs(b.values - oracle)) <= 1e-13 * np.max(np.abs(oracle)), (p, radius)


def test_b_ellipticity_bounds(square):
    gam = ScalarField.from_function(square, lambda x, y: 1.0 + 0.2 * y)
    p = 3.0
    xi = np.array([0.1, 0.3])
    b = assemble_B(gam, p, _const_vector_field(square, xi))
    eigs = np.linalg.eigvalsh(b.values / gam.values[..., None, None])
    e1 = np.array([1.0, 0.0])
    seg = [np.linalg.norm(e1 + t * xi) for t in np.linspace(0.0, 1.0, 101)]
    lo = min(s ** (p - 2.0) for s in seg) * min(1.0, p - 1.0)
    hi = max(s ** (p - 2.0) for s in seg) * max(1.0, p - 1.0)
    assert eigs.min() > lo - 1e-9
    assert eigs.max() < hi + 1e-9


def test_b_rejects_degenerate_segment(square):
    gam = ScalarField.constant(square, 1.0)
    with pytest.raises(linearize.SegmentDegenerate):
        assemble_B(gam, 1.5, _const_vector_field(square, [-1.0, 0.0]))


def test_b_rejects_segment_needing_too_many_nodes(square):
    # |xi| = 0.99 anti-aligned: the segment stays 0.01 from the origin, but
    # the rule for the error target 1e-12 would need 73 > 64 nodes
    gam = ScalarField.constant(square, 1.0)
    xi = np.zeros(square.shape + (2,))
    xi[8, 8] = [-0.99, 0.0]
    with pytest.raises(linearize.SegmentDegenerate, match="73 > 64 nodes"):
        assemble_B(gam, 3.0, VectorField(square, xi))
    xi[8, 8] = [-0.9, 0.0]  # 26 nodes
    assemble_B(gam, 3.0, VectorField(square, xi))


# -- fixed point ------------------------------------------------------------------------


def test_constant_weight_fixed_in_one_iteration(square):
    rep = fixed_point_u0(ScalarField.constant(square, 2.0), 3.0, np.array([1.0, 0.0]))
    assert rep.iterations == 1
    assert np.max(np.abs(rep.R.values)) == 0.0
    assert rep.residual_norm < 1e-12


def test_transverse_weight_keeps_linear_solution(square):
    gam = ScalarField.from_function(square, lambda x, y: 1.0 + 0.05 * y)
    rep = fixed_point_u0(gam, 3.0, np.array([1.0, 0.0]))
    assert np.max(np.abs(rep.R.values)) < 1e-12
    assert np.max(np.abs(rep.u0.values - square.coords[0])) < 1e-12


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_slow_weight_certificates(p):
    dom = build_domain((1.0, 1.0), (33, 33))
    gam = ScalarField.from_function(dom, lambda x, y: 1.0 + 0.05 * x)
    rep = fixed_point_u0(gam, p, np.array([1.0, 0.0]))
    assert rep.sup_grad_R <= 0.5
    assert rep.min_grad_u0 > 0.5
    assert rep.residual_norm < 1e-6


def test_picard_steps_share_one_factor(monkeypatch):
    import scipy.sparse.linalg as spla

    fills = []
    splu = spla.splu

    def counting(*args, **kwargs):
        lu = splu(*args, **kwargs)
        fills.append(lu.nnz)
        return lu

    monkeypatch.setattr(spla, "splu", counting)
    dom = build_domain((1.0, 1.0), (33, 33))
    gam = ScalarField.from_function(dom, lambda x, y: 1.0 + 0.05 * x)
    rep = fixed_point_u0(gam, 1.5, np.array([1.0, 0.0]))
    assert rep.iterations >= 3
    assert rep.factorizations == 1
    # B of step 0 has a diagonal tensor: one factorization in 3 levels
    assert rep.factor_fill == sum(fills) == 15_308 and len(fills) == 3
    assert rep.krylov_iterations > 0


def test_picard_step_quadrature_stays_small(monkeypatch):
    # the first step has xi = 0 and takes one node; the later steps stay in
    # the 1/2 ball, which bounds the rule at 12 nodes
    calls = []
    flux_derivative = psolve.flux_derivative
    monkeypatch.setattr(
        psolve, "flux_derivative", lambda *a, **k: calls.append(1) or flux_derivative(*a, **k)
    )
    b_calls = []

    def counted(*args, **kwargs):
        before = len(calls)
        out = assemble_B(*args, **kwargs)
        b_calls.append(len(calls) - before)
        return out

    monkeypatch.setattr(criticalfree, "assemble_B", counted)
    dom = build_domain((1.0, 1.0), (33, 33))
    gam = ScalarField.from_function(dom, lambda x, y: 1.0 + 0.05 * x)
    fixed_point_u0(gam, 1.5, np.array([1.0, 0.0]))
    assert b_calls[0] == 1
    assert len(b_calls) >= 3 and max(b_calls) <= 12


def test_fixed_point_in_3d():
    # the construction is dimension-agnostic; run it once on a small cube
    dom = build_domain((1.0, 1.0, 1.0), (9, 9, 9))
    gam = ScalarField.from_function(dom, lambda x, y, z: 1.0 + 0.05 * x)
    rep = fixed_point_u0(gam, 3.0, np.array([1.0, 0.0, 0.0]))
    assert rep.sup_grad_R <= 0.5
    assert rep.min_grad_u0 > 0.5
    assert rep.residual_norm < 1e-6


def test_tilted_direction(square):
    zeta = np.array([np.cos(0.4), np.sin(0.4)])
    gam = ScalarField.from_function(square, lambda x, y: 1.0 + 0.04 * (x + y))
    rep = fixed_point_u0(gam, 2.5, zeta)
    assert rep.min_grad_u0 > 0.5
    assert rep.residual_norm < 1e-7


def test_ball_escape_on_steep_weight(square):
    gam = ScalarField.from_function(square, lambda x, y: 1.0 + 5.0 * x)
    with pytest.raises(BallEscape) as err:
        fixed_point_u0(gam, 3.0, np.array([1.0, 0.0]))
    assert err.value.sup_grad >= 0.5


def test_nonconvergence_budget(square, monkeypatch):
    gam = ScalarField.from_function(square, lambda x, y: 1.0 + 0.05 * x)
    monkeypatch.setattr(criticalfree, "_MAX_PICARD_STEPS", 1)
    with pytest.raises(psolve.NonConvergence, match="did not settle in 1 steps"):
        fixed_point_u0(gam, 3.0, np.array([1.0, 0.0]))


def test_monotone_smallness_trend():
    # heuristic sanity trend (not a guaranteed bound): the converged remainder
    # gradient grows with the weight slope
    dom = build_domain((1.0, 1.0), (17, 17))
    sups = []
    for delta in (0.01, 0.04, 0.07, 0.1):
        gam = ScalarField.from_function(dom, lambda x, y: 1.0 + delta * x)
        rep = fixed_point_u0(gam, 3.0, np.array([1.0, 0.0]))
        sups.append(rep.sup_grad_R)
    assert all(b >= a for a, b in zip(sups, sups[1:]))


def test_fixed_point_input_validation(square):
    gam = ScalarField.constant(square, 1.0)
    with pytest.raises(ValueError):
        fixed_point_u0(gam, 3.0, np.array([1.0, 1.0]))  # not unit
    with pytest.raises(ValueError):
        fixed_point_u0(gam, 3.0, np.array([1.0, 0.0, 0.0]))  # wrong dimension


# -- gradient minima and extremal data ----------------------------------------------------


def test_min_gradient_linear(square):
    u = ScalarField.from_function(square, lambda x, y: 0.8 * x + 0.6 * y)
    val, _ = min_gradient(u)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_min_gradient_shifted_box():
    dom = build_domain((1.0, 1.0), (17, 17), origin=(1.0, 0.0))
    u = ScalarField.from_function(dom, lambda x, y: x**2)
    val, node = min_gradient(u)
    assert val == pytest.approx(2.0, abs=1e-12)
    assert node[0] == 0  # attained on the x1 = 1 edge


def test_min_gradient_of_fixed_point_solution():
    dom = build_domain((1.0, 1.0), (17, 17))
    gam = ScalarField.from_function(dom, lambda x, y: 1.0 + 0.05 * x)
    rep = fixed_point_u0(gam, 3.0, np.array([1.0, 0.0]))
    val, _ = min_gradient(rep.u0)
    assert val > 0.5


def test_boundary_cycle_covers_loop(square):
    cyc = boundary_cycle(square)
    assert len(cyc) == int(square.boundary_mask.sum())
    assert len(set(cyc)) == len(cyc)


def test_extremal_data_default_certified(square):
    ed = extremal_boundary_data_2d(square)
    assert ed.certified
    assert ed.n_strict_max == 1 and ed.n_strict_min == 1


def test_extremal_data_diagonal(square):
    ed = extremal_boundary_data_2d(square, zeta=(1.0, 1.0))
    assert ed.certified
    vals = ed.phi.values
    assert vals[-1, -1] == vals.max()
    assert vals[0, 0] == vals.min()


def test_extremal_data_axis_aligned_flagged(square):
    ed = extremal_boundary_data_2d(square, zeta=(1.0, 0.0))
    assert ed.has_flat_extremum
    assert not ed.certified


def test_extremal_data_rejects_3d():
    dom = build_domain((1.0, 1.0, 1.0), (5, 5, 5))
    with pytest.raises(ValueError):
        extremal_boundary_data_2d(dom)


def test_downstream_no_critical_points():
    # tilted linear data on a wavy weight keeps the gradient away from zero
    dom = build_domain((1.0, 1.0), (33, 33))
    gam = ScalarField.from_function(
        dom, lambda x, y: 1.0 + 0.3 * np.sin(np.pi * x) * np.sin(np.pi * y)
    )
    ed = extremal_boundary_data_2d(dom)
    sol = psolve.solve_p_laplace(gam, 2.7, ed.phi)
    assert sol.min_gradient > 0.1
