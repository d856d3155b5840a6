"""Linearization of the weighted p-Laplace flux around a base solution.

The nonlinear flux map is J(xi) = |xi|^(p-2) xi with derivative

    dJ(xi) = |xi|^(p-2) (I + (p-2) xi xi^T / |xi|^2),

a symmetric matrix whose eigenvalues are |xi|^(p-2) {1, ..., 1, p-1}.
Around a base solution u0 with nonvanishing gradient the first variation of
the Dirichlet problem solves the linear anisotropic equation
div(A grad v) = 0 with A = gamma * dJ(grad u0), and the corresponding linear
DN map is the limit of difference quotients of the nonlinear one.  This
module provides that algebra, the linear solver and DN map on the same grid
discretization as the forward solver, the quotient convergence report, and
the rescaling that turns a weight constant along one axis into an isotropic
conductivity problem on a stretched box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import psolve
from .grid import (
    Domain,
    ScalarField,
    TensorField,
    VectorField,
    anisotropic_operator,
    face_values_combine,
    face_values_max_abs,
    gradient,
    normal_component,
    require_positive_weight,
)

__all__ = [
    "DegenerateInput",
    "DegenerateGradient",
    "SegmentDegenerate",
    "LinearizationReport",
    "RescaledProblem",
    "J",
    "taylor_identity_check",
    "segment_integral_dJ",
    "assemble_A",
    "solve_linear",
    "linear_boundary_flux",
    "dn_linear",
    "dn_matrix",
    "verify_linearization",
    "rescale_translation_invariant",
]


class DegenerateInput(Exception):
    """The flux map or its derivative was evaluated at (or too near) zero."""


class DegenerateGradient(Exception):
    """The base gradient vanishes somewhere, so the tensor A is undefined."""


class SegmentDegenerate(Exception):
    """An integration segment passes through (or too near) the origin."""


def J(xi, p: float) -> np.ndarray:
    """The flux map |xi|^(p-2) xi.

    At xi = 0 this is 0 for p > 2 and undefined for p < 2 (raises
    :class:`DegenerateInput`).
    """
    xi = np.asarray(xi, dtype=float)
    norm = float(np.linalg.norm(xi))
    if norm == 0.0:
        if p < 2.0:
            raise DegenerateInput("J undefined at xi = 0 for p < 2")
        return np.zeros_like(xi)
    return norm ** (p - 2.0) * xi


# Gauss-Legendre rule of segment_integral_dJ: its error target, the most
# nodes it takes by default before a segment counts as degenerate, and the
# most for the single segment of taylor_identity_check
_QUAD_TOL = 1e-12
_MAX_QUAD_NODES = 64
_MAX_TAYLOR_NODES = 256

# assemble_A refuses a base gradient below this anywhere
_GRAD_THRESHOLD = 1e-8


def _segment_min_distance(xi, zeta):
    """Distance from the origin to the segment [xi, zeta], per vector along the last axis."""
    xi = np.asarray(xi, dtype=float)
    d = np.asarray(zeta, dtype=float) - xi
    dd = np.sum(d * d, axis=-1)
    moving = dd > 0.0
    t = np.where(moving, np.clip(-np.sum(xi * d, axis=-1) / np.where(moving, dd, 1.0), 0.0, 1.0), 0.0)
    return np.sqrt(np.sum((xi + t[..., None] * d) ** 2, axis=-1))


def segment_integral_dJ(start, step, p: float, max_nodes: int = _MAX_QUAD_NODES) -> np.ndarray:
    """int_0^1 dJ(start + t step) dt for every segment, by one Gauss-Legendre rule.

    ``start`` and ``step`` hold vectors along their last axis and broadcast
    against each other; the result has one n x n matrix per segment.  The
    integrand is analytic in t away from the complex zeros of
    |start + t step|^2.  The nearest zero over all segments lies on the
    Bernstein ellipse of [0, 1] with semi-axis sum rho = a + sqrt(a^2 - 1),
    a = (|start| + |start + step|) / |step|, and one rule of
    ceil(log(1/tol) / (2 log rho)) + 4 nodes with tol = 1e-12 serves every
    segment (one node, exact, when every step is zero).  Raises
    :class:`SegmentDegenerate` when some segment passes within 1e-6 times
    the largest end-point norm of the origin, or the rule would need more
    than ``max_nodes`` nodes.
    """
    start, step = np.broadcast_arrays(np.asarray(start, dtype=float), np.asarray(step, dtype=float))
    end = start + step
    start_norm = np.sqrt(np.sum(start**2, axis=-1))
    end_norm = np.sqrt(np.sum(end**2, axis=-1))
    min_dist = float(np.min(_segment_min_distance(start, end)))
    if min_dist < 1e-6 * max(float(np.max(start_norm)), float(np.max(end_norm))):
        raise SegmentDegenerate(f"some segment passes within {min_dist:.2e} of the origin")

    step_sq = np.sum(step**2, axis=-1)
    moving = step_sq > 0.0
    n_nodes = 1
    if np.any(moving):
        a = float(np.min((start_norm[moving] + end_norm[moving]) / np.sqrt(step_sq[moving])))
        rho = a + math.sqrt(a * a - 1.0)
        n_nodes = math.ceil(math.log(1.0 / _QUAD_TOL) / (2.0 * math.log(rho))) + 4
        if n_nodes > max_nodes:
            raise SegmentDegenerate(
                f"some segment passes within {min_dist:.2e} of the origin; the "
                f"quadrature in t would need {n_nodes} > {max_nodes} nodes"
            )
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    integral = np.zeros(step.shape + (step.shape[-1],))
    for t, w in zip(0.5 * (nodes + 1.0), 0.5 * weights):
        integral += w * psolve.flux_derivative(start + t * step, p)
    return integral


def taylor_identity_check(zeta, xi, p: float) -> float:
    """Defect of J(zeta) = J(xi) + [int_0^1 dJ(xi + t (zeta - xi)) dt] (zeta - xi).

    The integral takes the Gauss-Legendre rule of :func:`segment_integral_dJ`
    (at most 256 nodes); the defect should sit at roundoff whenever the
    segment stays away from the origin.
    """
    xi = np.asarray(xi, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    if np.array_equal(xi, zeta):
        return 0.0
    d = zeta - xi
    integral = segment_integral_dJ(xi, d, p, _MAX_TAYLOR_NODES)
    defect = J(zeta, p) - J(xi, p) - integral @ d
    return float(np.max(np.abs(defect)))


# -- the linearized problem -------------------------------------------------------


def assemble_A(gamma: ScalarField, p: float, u0: ScalarField) -> TensorField:
    """Nodewise tensor A = gamma * dJ(grad u0); requires |grad u0| >= 1e-8 everywhere."""
    require_positive_weight(gamma)
    g = gradient(u0).values
    mn = float(np.sqrt(np.min(np.sum(g**2, axis=-1))))
    if mn < _GRAD_THRESHOLD:
        raise DegenerateGradient(
            f"minimum |grad u0| = {mn:.3e} below threshold {_GRAD_THRESHOLD:.1e}"
        )
    return TensorField(u0.domain, gamma.values[..., None, None] * psolve.flux_derivative(g, p))


def _solve_interior(dom: Domain, blocks, u, source, tol: float, lu: psolve._ReusedLU):
    """Fill the interior rows of ``u`` (nodes, or nodes x columns) from its
    boundary rows, with ``blocks`` = (A_II, A_IB) from
    :func:`~plap.grid.anisotropic_operator`; raises as :func:`solve_linear`
    documents."""
    a_ii, a_ib = blocks
    int_idx = dom.interior_flat
    rhs = -(a_ib @ u[dom.boundary_flat])
    if source is not None:
        rhs = rhs - source.values.ravel()[int_idx]
    u[int_idx] = lu.solve(a_ii, rhs, psolve._LINEAR_RTOL, "linear operator")
    # the interior rows A_II u_I + A_IB u_B + source
    res_norm = float(np.max(np.abs(a_ii @ u[int_idx] - rhs)))
    # singularity guard: a healthy solve leaves residual near machine
    # precision times the scale of the rows it solves
    op_scale = max(1.0, *(float(np.max(np.abs(b.data), initial=0.0)) for b in blocks))
    op_scale *= max(1.0, float(np.max(np.abs(u))))
    if not np.isfinite(res_norm) or res_norm > tol * op_scale:
        raise psolve.NonConvergence(f"linear solve left residual {res_norm:.3e}", [res_norm])


def solve_linear(
    A: TensorField,
    phi: ScalarField | None = None,
    source: ScalarField | None = None,
    tol: float = 1e-8,
    lu: psolve._ReusedLU | None = None,
) -> ScalarField:
    """Solve div(A grad u) = -source with Dirichlet trace phi.

    ``phi`` gives boundary values (full-grid field, boundary nodes used);
    omitted means zero trace.  ``source`` is a full-grid field read at
    interior nodes.  Without ``lu`` the interior block is factored by sparse
    LU; a ``lu`` that holds the factor of a nearby operator (an earlier
    call's, as in a Picard iteration) preconditions GMRES instead and is
    refactored when that misses.  Raises :class:`psolve.NonConvergence` if
    the operator is singular or the solve leaves a residual above ``tol``
    (an absurdly conditioned operator).
    """
    dom = A.domain
    u_flat = np.zeros(dom.n_nodes)
    if phi is not None:
        u_flat[dom.boundary_flat] = phi.values.ravel()[dom.boundary_flat]
    blocks = anisotropic_operator(dom, A.values)
    _solve_interior(dom, blocks, u_flat, source, tol, psolve._ReusedLU() if lu is None else lu)
    return ScalarField(dom, u_flat.reshape(dom.shape))


def linear_boundary_flux(A: TensorField, u: ScalarField) -> dict:
    """Per-face conormal flux nu . (A grad u) with one-sided normal stencils."""
    dom = u.domain
    g = gradient(u).values
    ag = np.einsum("...ab,...b->...a", A.values, g)
    return normal_component(VectorField(dom, ag))


def dn_linear(A: TensorField, phi: ScalarField) -> dict:
    """Linear DN map for div(A grad u) = 0: Dirichlet data -> conormal flux."""
    u = solve_linear(A, phi)
    return linear_boundary_flux(A, u)


def dn_matrix(A: TensorField) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Dense linear DN matrix over nodal boundary bumps, with its node list.

    Column j is the :func:`dn_linear` flux of the unit bump at the j-th
    boundary node (C order), its faces concatenated in ``domain.faces``
    order.  All columns come from one LU and one multi-column solve.
    """
    dom = A.domain
    bnd_idx = dom.boundary_flat
    u = np.zeros((dom.n_nodes, bnd_idx.size))
    u[bnd_idx, np.arange(bnd_idx.size)] = 1.0
    _solve_interior(dom, anisotropic_operator(dom, A.values), u, None, 1e-8, psolve._ReusedLU())
    cols = []
    for column in u.T:
        flux = linear_boundary_flux(A, ScalarField(dom, column.reshape(dom.shape)))
        cols.append(np.concatenate([flux[f.key].ravel() for f in dom.faces]))
    nodes = [tuple(int(i) for i in np.unravel_index(k, dom.shape)) for k in bnd_idx]
    return np.stack(cols, axis=1), nodes


# -- quotient verification --------------------------------------------------------

# the epsilon schedule of verify_linearization and of the CLI's linearize runs
_DEFAULT_EPS_SCHEDULE = tuple(10.0**e for e in (-1.0, -1.5, -2.0, -2.5, -3.0))


@dataclass
class LinearizationReport:
    eps_schedule: list[float]
    deviations: list[float]
    quotients: dict[float, dict] = field(repr=False, default_factory=dict)
    reference: dict = field(repr=False, default_factory=dict)
    floor_index: int = -1
    floor_value: float = float("nan")
    passed: bool = False
    factorizations: int = 0
    krylov_iterations: int = 0
    factor_fill: int = 0

    def __post_init__(self):
        eps = self.eps_schedule
        if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
            raise ValueError("eps schedule must be strictly decreasing")
        if not all(np.isfinite(d) for d in self.deviations):
            raise ValueError("deviations must be finite")


def verify_linearization(
    gamma: ScalarField,
    p: float,
    phi0: ScalarField,
    phi: ScalarField,
    eps_schedule=None,
    cfg: psolve.PSolveConfig | None = None,
) -> LinearizationReport:
    """Measure how difference quotients of the nonlinear DN map approach the
    linear one, over a decreasing epsilon schedule.

    The verdict passes when the max-norm deviation from the linear DN flux is
    strictly decreasing up to its minimum (the discretization/solver floor);
    a failing verdict still returns the full history.  The reference linear
    solve factors A once; that LU preconditions the Newton steps of every
    quotient solve, which start from the first-order guess u0 + eps v.  The
    report counts the factorizations, their fill and the Krylov iterations
    of the whole call, base solve included.
    """
    if eps_schedule is None:
        eps_schedule = _DEFAULT_EPS_SCHEDULE
    eps_schedule = [float(e) for e in eps_schedule]
    if cfg is None:
        cfg = psolve.PSolveConfig(p=p, tol=1e-10)
    sol = psolve.solve_p_laplace(gamma, p, phi0, cfg)
    A = assemble_A(gamma, p, sol.u)
    lu = psolve._ReusedLU()
    v = solve_linear(A, phi, tol=1e-10, lu=lu)
    reference = linear_boundary_flux(A, v)
    base = psolve.boundary_flux(gamma, p, sol.u, cfg.eps_reg)
    dom = phi0.domain
    deviations = []
    quotients = {}
    for eps in eps_schedule:
        bumped = ScalarField(dom, phi0.values + eps * phi.values)
        start = ScalarField(dom, sol.u.values + eps * v.values)
        shifted = psolve.dn_apply(gamma, p, bumped, cfg, start, lu)
        quotient = face_values_combine(lambda s, b: (s - b) / eps, shifted, base)
        quotients[eps] = quotient
        deviations.append(
            face_values_max_abs(face_values_combine(lambda q, r: q - r, quotient, reference))
        )
    floor_index = int(np.argmin(deviations))
    decreasing = all(
        deviations[k + 1] < deviations[k] for k in range(floor_index)
    )
    return LinearizationReport(
        eps_schedule=eps_schedule,
        deviations=deviations,
        quotients=quotients,
        reference=reference,
        floor_index=floor_index,
        floor_value=deviations[floor_index],
        passed=decreasing,
        factorizations=sol.factorizations + lu.factorizations,
        krylov_iterations=sol.krylov_iterations + lu.krylov_iterations,
        factor_fill=sol.factor_fill + lu.factor_fill,
    )


# -- rescaling reduction -----------------------------------------------------------


@dataclass
class RescaledProblem:
    """Isotropic conductivity problem equivalent to A = gamma (I + (p-2) z z^T).

    Obtained by stretching the box by 1/sqrt(p-1) along the distinguished axis.
    Node values carry over one-to-one; the conormal flux of the original
    anisotropic problem equals the isotropic flux times ``flux_scale`` on the
    two faces normal to the distinguished axis and matches it elsewhere.
    """

    domain: Domain
    weight: ScalarField
    axis: int
    stretch: float
    flux_scale: float


def rescale_translation_invariant(
    gamma: ScalarField, zeta, p: float, tol: float = 1e-8
) -> RescaledProblem:
    """Reduce the linearized problem for a weight with zeta . grad gamma = 0 to
    an isotropic conductivity problem on a stretched box.

    ``zeta`` must be axis-aligned; the directional derivative is checked
    numerically against ``tol``.
    """
    dom = gamma.domain
    zeta = np.asarray(zeta, dtype=float)
    if zeta.shape != (dom.n,):
        raise ValueError("zeta must be a grid-dimension vector")
    nz = np.flatnonzero(np.abs(zeta) > 1e-14)
    if nz.size != 1 or abs(abs(zeta[nz[0]]) - 1.0) > 1e-12:
        raise ValueError("zeta must be an axis-aligned unit vector")
    axis = int(nz[0])
    dgam = gradient(gamma).values[..., axis]
    dev = float(np.max(np.abs(dgam)))
    if dev > tol:
        raise ValueError(
            f"gamma varies along zeta: max |zeta . grad gamma| = {dev:.3e} > {tol:.1e}"
        )
    stretch = 1.0 / np.sqrt(p - 1.0)
    extents = np.array(dom.extents)
    origin = np.array(dom.origin)
    extents[axis] *= stretch
    origin[axis] *= stretch
    new_dom = Domain(extents, dom.shape, origin=origin)
    return RescaledProblem(
        domain=new_dom,
        weight=ScalarField(new_dom, np.array(gamma.values)),
        axis=axis,
        stretch=float(stretch),
        flux_scale=float(np.sqrt(p - 1.0)),
    )
