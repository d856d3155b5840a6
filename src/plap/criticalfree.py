"""Construction and certification of base solutions without critical points.

For a unit direction zeta, the ansatz u0 = zeta . x + R turns the weighted
p-Laplace equation into a quasilinear problem for the remainder R,

    div(B(grad R) grad R) = -zeta . grad gamma,   R = 0 on the boundary,

where B(xi) integrates the flux derivative along the segment from zeta to
zeta + xi:

    B(xi) = gamma * int_0^1 dJ(zeta + t xi) dt.

When the directional derivative of gamma is small the solution map is a
contraction near zero; we realize it by Picard iteration V -> solve with
frozen coefficients B(grad V), starting from V = 0.  A converged run is
certified by the three quantities that make the construction useful
downstream: sup |grad R| <= 1/2 (``BALL_RADIUS``), min |grad u0| > 1/2, and
a nonlinear residual of u0 below 1e-6 (``RESIDUAL_TOL``).  The iteration
aborts with :class:`BallEscape` the moment an iterate leaves the 1/2 ball,
and with :class:`~plap.psolve.NonConvergence` when the budget runs out
(Picard may in principle cycle; we report rather than assert).

In 2D, tilted linear boundary data has a single strict maximum and minimum
corner on the boundary loop of a convex box, which is the classical route to
gradient nonvanishing; :func:`extremal_boundary_data_2d` builds such data and
certifies the extremum count by scanning the boundary cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linearize, psolve
from .grid import (
    Domain,
    ScalarField,
    TensorField,
    VectorField,
    gradient,
    require_positive_weight,
)

__all__ = [
    "BallEscape",
    "FixedPointReport",
    "ExtremalData",
    "assemble_B",
    "fixed_point_u0",
    "min_gradient",
    "extremal_boundary_data_2d",
    "boundary_cycle",
]


# the sup-norm gradient ball every Picard iterate must stay in, and the bound
# on the nonlinear residual of u0 that certifies a converged run
BALL_RADIUS = 0.5
RESIDUAL_TOL = 1e-6

# Picard stops when successive iterates differ by less than this in the max
# norm, and gives up after this many steps
_PICARD_TOL = 1e-10
_MAX_PICARD_STEPS = 60


class BallEscape(Exception):
    """An iterate left the sup-norm gradient ball of radius 1/2."""

    def __init__(self, iteration: int, sup_grad: float):
        self.iteration = iteration
        self.sup_grad = sup_grad
        super().__init__(
            f"iterate {iteration} has sup |grad V| = {sup_grad:.4f} >= {BALL_RADIUS}; "
            "the smallness condition on the weight is violated"
        )


@dataclass
class FixedPointReport:
    u0: ScalarField
    R: ScalarField
    zeta: np.ndarray
    iterations: int
    sup_grad_history: list[float] = field(default_factory=list)
    sup_grad_R: float = float("nan")
    min_grad_u0: float = float("nan")
    residual_norm: float = float("nan")
    factorizations: int = 0
    krylov_iterations: int = 0
    factor_fill: int = 0


def assemble_B(
    gamma: ScalarField,
    p: float,
    xi_field: VectorField,
    zeta=None,
) -> TensorField:
    """Nodewise B = gamma * int_0^1 dJ(zeta + t xi) dt by Gauss-Legendre quadrature.

    One rule in t serves every node: :func:`~plap.linearize.segment_integral_dJ`
    sizes it from the Bernstein ellipse of the nearest complex singularity
    (one node, exact, when xi = 0 everywhere; 7 to 12 nodes while
    sup |xi| < 1/2).  ``zeta`` defaults to the first coordinate direction.
    Fails with :class:`~plap.linearize.SegmentDegenerate` when some segment
    comes too close to the origin (guaranteed not to happen while
    sup |xi| < 1) or the rule would need more than 64 nodes.
    """
    require_positive_weight(gamma)
    dom = gamma.domain
    if zeta is None:
        zeta = np.zeros(dom.n)
        zeta[0] = 1.0
    integral = linearize.segment_integral_dJ(zeta, xi_field.values, p)
    return TensorField(dom, gamma.values[..., None, None] * integral)


def fixed_point_u0(gamma: ScalarField, p: float, zeta) -> FixedPointReport:
    """Picard iteration for the remainder R of the ansatz u0 = zeta . x + R.

    Iterates V^0 = 0, V^{k+1} = solution of div(B(grad V^k) grad V) =
    -zeta . grad gamma with zero trace, until the sup-norm iterate difference
    drops below 1e-10, and raises :class:`~plap.psolve.NonConvergence` if 60
    steps do not get there.  The returned report carries the certificates
    (gradient bounds and the nonlinear residual of u0).
    """
    require_positive_weight(gamma)
    dom = gamma.domain
    zeta = np.asarray(zeta, dtype=float)
    if zeta.shape != (dom.n,):
        raise ValueError("zeta must be a grid-dimension vector")
    if abs(np.linalg.norm(zeta) - 1.0) > 1e-12:
        raise ValueError("zeta must be a unit vector")

    dgamma = gradient(gamma).values
    # numpy's own loop, not the BLAS, whose sum order follows its thread count
    rhs = ScalarField(dom, np.einsum("...a,a->...", dgamma, zeta))

    v = np.zeros(dom.shape)
    history: list[float] = []
    lu = psolve._ReusedLU(history)  # the LU of step 0 preconditions the later steps
    for k in range(_MAX_PICARD_STEPS):
        grad_v = gradient(ScalarField(dom, v))
        sup_grad = float(np.max(np.sqrt(np.sum(grad_v.values**2, axis=-1))))
        history.append(sup_grad)
        if sup_grad >= BALL_RADIUS:
            raise BallEscape(k, sup_grad)
        b = assemble_B(gamma, p, grad_v, zeta=zeta)
        u_next = linearize.solve_linear(b, phi=None, source=rhs, lu=lu)
        diff = float(np.max(np.abs(u_next.values - v)))
        v = u_next.values
        if diff < _PICARD_TOL:
            iterations = k + 1
            break
    else:
        raise psolve.NonConvergence(
            f"Picard iteration did not settle in {_MAX_PICARD_STEPS} steps", history
        )

    r = ScalarField(dom, v)
    zeta_dot_x = np.zeros(dom.shape)
    for a in range(dom.n):
        zeta_dot_x += zeta[a] * dom.coords[a]
    u0 = ScalarField(dom, zeta_dot_x + v)
    grad_r = gradient(r).values
    sup_grad_r = float(np.max(np.sqrt(np.sum(grad_r**2, axis=-1))))
    res = psolve.residual(gamma, p, u0, eps_reg=0.0)
    res_norm = float(np.max(np.abs(res.values[dom.interior_mask])))
    report = FixedPointReport(
        u0=u0,
        R=r,
        zeta=zeta,
        iterations=iterations,
        sup_grad_history=history,
        sup_grad_R=sup_grad_r,
        min_grad_u0=psolve.min_interior_gradient(u0),
        residual_norm=res_norm,
        factorizations=lu.factorizations,
        krylov_iterations=lu.krylov_iterations,
        factor_fill=lu.factor_fill,
    )
    return report


def min_gradient(u: ScalarField) -> tuple[float, tuple[int, ...]]:
    """Minimum of |grad u| over all nodes (boundary included), with the argmin node."""
    dom = u.domain
    mags = np.sqrt(np.sum(gradient(u).values ** 2, axis=-1))
    flat = int(np.argmin(mags))
    idx = np.unravel_index(flat, dom.shape)
    return float(mags[idx]), tuple(int(i) for i in idx)


# -- 2D extremal boundary data ---------------------------------------------------


def boundary_cycle(domain: Domain) -> list[tuple[int, int]]:
    """Indices of the boundary nodes of a 2D grid, ordered around the loop."""
    if domain.n != 2:
        raise ValueError("boundary cycle is defined for 2D domains only")
    n0, n1 = domain.shape
    cycle = [(i, 0) for i in range(n0)]
    cycle += [(n0 - 1, j) for j in range(1, n1)]
    cycle += [(i, n1 - 1) for i in range(n0 - 2, -1, -1)]
    cycle += [(0, j) for j in range(n1 - 2, 0, -1)]
    return cycle


@dataclass
class ExtremalData:
    phi: ScalarField
    zeta: np.ndarray
    n_strict_max: int
    n_strict_min: int
    has_flat_extremum: bool

    @property
    def certified(self) -> bool:
        return (
            self.n_strict_max == 1 and self.n_strict_min == 1 and not self.has_flat_extremum
        )


def extremal_boundary_data_2d(domain: Domain, zeta=None) -> ExtremalData:
    """Tilted linear boundary data zeta . x on a 2D box, with a scan of the
    boundary loop certifying exactly one strict maximum and minimum.

    The default tilt (cos 0.3, sin 0.3) avoids the axis-aligned degeneracy in
    which an extremum is attained along a whole edge; an axis-aligned ``zeta``
    is accepted but comes back flagged as flat.
    """
    if domain.n != 2:
        raise ValueError("extremal boundary data is a 2D construction")
    if zeta is None:
        zeta = np.array([np.cos(0.3), np.sin(0.3)])
    zeta = np.asarray(zeta, dtype=float)
    zeta = zeta / np.linalg.norm(zeta)
    vals = zeta[0] * domain.coords[0] + zeta[1] * domain.coords[1]
    phi = ScalarField(domain, vals)

    cycle = boundary_cycle(domain)
    seq = np.array([vals[idx] for idx in cycle])
    m = len(seq)
    n_max = n_min = 0
    flat = False
    for k in range(m):
        prev_v, here, next_v = seq[k - 1], seq[k], seq[(k + 1) % m]
        if here == prev_v or here == next_v:
            flat = True
            continue
        if here > prev_v and here > next_v:
            n_max += 1
        if here < prev_v and here < next_v:
            n_min += 1
    return ExtremalData(
        phi=phi,
        zeta=zeta,
        n_strict_max=n_max,
        n_strict_min=n_min,
        has_flat_extremum=flat,
    )
