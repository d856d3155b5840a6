"""Forward solver for the weighted p-Laplace Dirichlet problem.

The discrete problem: find the node field u matching the boundary data that
zeroes the pointwise finite-difference divergence of the regularized flux

    F(u) = gamma * (|grad u|^2 + eps_reg^2)^((p-2)/2) * grad u

at every interior node.  The smoothing parameter eps_reg keeps Newton
well-posed where the equation degenerates (grad u -> 0); with the default
1e-8 and data whose gradients stay O(1) the bias is far below solver
tolerance.

Solution strategy: start from the solution of the isotropic linear problem
div(gamma grad u) = 0 with the same boundary data (or from a given interior
start), then run Newton on the pointwise divergence residual until its max
norm over the interior nodes is below the requested tolerance.  The steps
are inexact and share one sparse LU: GMRES, right-preconditioned by the LU
of the isotropic operator (or, from a given start, by the caller's factor of
a nearby operator, or else the first Jacobian's), solves each Jacobian to a
relative residual of 1e-4.  Only when one restart cycle misses is the
current Jacobian refactored, its factor replacing the old one, which is
dropped first.  Interior unknowns come in the nested-dissection order of
:attr:`~plap.grid.Domain.interior_flat`.  The isotropic operator and each
Jacobian are assembled directly as their interior blocks in that order
(:func:`~plap.grid.anisotropic_operator`), already in CSC.  The LU takes
no column permutation of its own: on every grid, it orders a block only by
its strongly connected components, block lower triangularly, keeping the
grid order inside each.  The isotropic operator of an odd-resolution grid
splits into 2^n parity lattices this way, and its fill drops by a quarter
in 2-D and by half in 3-D; a Jacobian, with its full tensor, is one
component and is factored as given.
Each Newton step is halved until the max norm of the residual drops.
Everything is deterministic: fixed iteration order, no randomness.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import jets
from .grid import (
    ScalarField,
    VectorField,
    anisotropic_operator,
    boundary_trace,
    divergence,
    gradient,
    integrate_boundary,
    integrate_volume,
    normal_component,
    require_positive_weight,
)

__all__ = [
    "PSolveConfig",
    "ForwardSolution",
    "NonConvergence",
    "DegenerateGradientWarning",
    "flux_derivative",
    "p_energy",
    "solve_p_laplace",
    "boundary_flux",
    "dn_apply",
    "residual",
    "boundary_pairing",
    "min_interior_gradient",
    "ProfileNotResolved",
    "pseudo1d_profile",
]


# Newton backtracking: halve the step, at most this many trial steps
_STEP_SHRINK = 0.5
_MAX_LINESEARCH = 40

# Reused LU (see _ReusedLU): relative residual of an inexact Newton step, of
# a linear solve with a reused factor, and the GMRES restart length
_NEWTON_FORCING = 1e-4
_LINEAR_RTOL = 1e-12
_KRYLOV_RESTART = 50

# Composite Gauss-Legendre rule of pseudo1d_profile: nodes per subcell, the
# most subcells per cell, and how closely two successive rules must agree
_PROFILE_RULE = 8
_PROFILE_MAX_PARTS = 128
_PROFILE_RTOL = 1e-14


class NonConvergence(Exception):
    """The Newton iteration cannot reach the tolerance; carries the residual history."""

    def __init__(self, message: str, history):
        super().__init__(message)
        self.history = list(history)


class ProfileNotResolved(Exception):
    """The quadrature of the pseudo-1D profile did not settle within its node cap."""


class DegenerateGradientWarning(UserWarning):
    """The solution gradient dipped below eps_reg somewhere; downstream
    linearization at this solution is unsafe."""


@dataclass
class PSolveConfig:
    p: float
    eps_reg: float = 1e-8
    tol: float = 1e-8
    max_iter: int = 60

    def __post_init__(self):
        if not (self.p > 1.0 and self.p != 2.0):
            raise ValueError(f"p must lie in (1,2) or (2,inf), got {self.p}")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.eps_reg < 0.0:
            raise ValueError("eps_reg must be nonnegative")


@dataclass
class ForwardSolution:
    u: ScalarField
    iterations: int
    residual_norm: float
    min_gradient: float
    energy: float
    residual_history: list[float] = field(default_factory=list)
    degenerate_gradient: bool = False
    factorizations: int = 0
    krylov_iterations: int = 0
    factor_fill: int = 0


# -- nodewise flux algebra -------------------------------------------------------


def _kappa(grad_sq: np.ndarray, p: float, eps: float) -> np.ndarray:
    return (grad_sq + eps * eps) ** ((p - 2.0) / 2.0)


def _flux(gamma: ScalarField, p: float, u: ScalarField, eps: float) -> VectorField:
    """The regularized flux gamma * (|grad u|^2 + eps^2)^((p-2)/2) * grad u."""
    g = gradient(u).values
    gsq = np.sum(g**2, axis=-1)
    return VectorField(u.domain, (gamma.values * _kappa(gsq, p, eps))[..., None] * g)


def flux_derivative(grad_vals, p: float, eps: float = 0.0) -> np.ndarray:
    """Derivative of the regularized flux map xi -> (|xi|^2 + eps^2)^((p-2)/2) xi.

    Evaluates m^(p-2) (I + (p-2) g g^T / m^2) with m^2 = |g|^2 + eps^2 for
    every vector g along the last axis of ``grad_vals`` (leading axes are
    kept), so the result has shape ``grad_vals.shape + (n,)``.  With eps = 0
    this is the matrix dJ(xi) of the paper; the forward Newton Jacobian
    gamma * dJ_eps(grad u), the linearization tensor A = gamma * dJ(grad u0)
    and the fixed-point integrand of B = gamma * int_0^1 dJ(zeta + t xi) dt
    all come from here.  The caller guarantees m > 0.
    """
    g = np.asarray(grad_vals, dtype=float)
    gsq = np.sum(g**2, axis=-1)
    m2 = gsq + eps * eps
    outer = g[..., :, None] * g[..., None, :]
    tensor = np.eye(g.shape[-1]) + (p - 2.0) * outer / m2[..., None, None]
    return _kappa(gsq, p, eps)[..., None, None] * tensor


def p_energy(gamma: ScalarField, p: float, u: ScalarField, eps_reg: float = 0.0) -> float:
    """Regularized p-energy (1/p) * integral of gamma (|grad u|^2 + eps^2)^(p/2)."""
    require_positive_weight(gamma)
    g = gradient(u).values
    gsq = np.sum(g**2, axis=-1)
    dens = gamma.values * (gsq + eps_reg * eps_reg) ** (p / 2.0)
    return integrate_volume(u.domain, dens) / p


def residual(gamma: ScalarField, p: float, u: ScalarField, eps_reg: float = 0.0) -> ScalarField:
    """Pointwise discrete divergence of the flux field (meaningful at interior nodes)."""
    return divergence(_flux(gamma, p, u, eps_reg))


def pseudo1d_profile(gamma, p: float, xs, c: float = 1.0) -> np.ndarray:
    """G(x) = int_{xs[0]}^x (c / gamma(t))^(1/(p-1)) dt at every point of ``xs``.

    With a weight gamma(x1) of x1 alone, G(x1) is an exact solution of the
    weighted p-Laplace equation whose flux along x1 is the constant c.
    ``gamma`` is an expression of :mod:`plap.jets` (text or parsed) in x1;
    ``xs`` are increasing nodes.  Each cell between consecutive nodes is cut
    into 1, 2, 4, ... equal subcells, each with the 8-node Gauss-Legendre
    rule, so the nodes per cell double; gamma is evaluated at once over all
    cells, and G is the running sum of the cell integrals.  The cuts stop
    when two successive rules differ by at most 1e-14 max|G| summed over
    the cells; the finer one is kept.  Raises ``ValueError`` as
    :func:`~plap.grid.require_positive_weight` does when gamma is not finite
    and positive at some quadrature point, ``ValueError`` when the integrand
    is not finite there, and :class:`ProfileNotResolved` when 1024 nodes
    per cell do not settle.
    """
    xs = np.asarray(xs, dtype=float)
    width = np.diff(xs)[:, None, None]
    nodes, weights = np.polynomial.legendre.leggauss(_PROFILE_RULE)
    expo = 1.0 / (p - 1.0)
    parts, prev = 1, None
    while parts <= _PROFILE_MAX_PARTS:
        half = 0.5 * width / parts
        t = xs[:-1, None, None] + width * ((np.arange(parts)[:, None] + 0.5) / parts) + half * nodes
        gam = jets.eval_numpy(gamma, (t,))
        require_positive_weight(gam)
        with np.errstate(all="ignore"):
            slope = (c / gam) ** expo
        if not np.all(np.isfinite(slope)):
            bad = float(t[~np.isfinite(slope)][0])
            raise ValueError(f"pseudo-1D slope (c/gamma)^(1/(p-1)) is not finite at x1 = {bad:g}")
        cells = np.sum(half * slope * weights, axis=(1, 2))
        profile = np.concatenate([[0.0], np.cumsum(cells)])
        change = np.inf if prev is None else float(np.sum(np.abs(cells - prev)))
        if change <= _PROFILE_RTOL * float(np.max(np.abs(profile))):
            return profile
        parts, prev = 2 * parts, cells
    raise ProfileNotResolved(
        f"pseudo-1D profile: rules of {_PROFILE_RULE * _PROFILE_MAX_PARTS // 2} and "
        f"{_PROFILE_RULE * _PROFILE_MAX_PARTS} nodes per cell differ by {change:.3e}, "
        f"above {_PROFILE_RTOL:g} max|G|"
    )


def min_interior_gradient(u: ScalarField) -> float:
    g = gradient(u).values
    mags = np.sqrt(np.sum(g**2, axis=-1))
    return float(np.min(mags[u.domain.interior_mask]))


# -- solver ----------------------------------------------------------------------


def _block_triangular_order(mat):
    """Symmetric permutation that makes ``mat`` block lower triangular, or None.

    The diagonal blocks are the strongly connected components of the graph
    of ``mat``, sorted topologically so that every entry between two
    components lies below the block diagonal: a column's component comes
    before its row's (the block-triangular preorder of Duff & Reid, ACM
    TOMS 4, 1978, as in KLU).  Inside a component the rows keep their given
    order.  A matrix with one component gets None.  The diagonal-tensor
    blocks of the solvers, the isotropic operator and Picard step 0, split
    into the 2^n parity lattices of the wide stencil on grids of odd
    resolution; full-tensor blocks do not split.
    """
    from scipy.sparse.csgraph import connected_components

    mat = mat.tocsc()
    # the transpose, a CSR view, has the same components and spares a copy
    count, labels = connected_components(mat.T, directed=True, connection="strong")
    if count == 1:
        return None
    row, col = labels[mat.indices], np.repeat(labels, np.diff(mat.indptr))
    cross = row != col
    src, dst = col[cross], row[cross]
    # longest-path depth of each component in the acyclic component graph,
    # one pass per link of its longest chain
    depth = np.zeros(count, dtype=np.int64)
    while True:
        deeper = depth.copy()
        np.maximum.at(deeper, dst, depth[src] + 1)
        if np.array_equal(deeper, depth):
            return np.argsort(depth[labels] * count + labels, kind="stable")
        depth = deeper


class _ReusedLU:
    """One sparse LU of an interior block, reused while the matrices stay near.

    ``solve(mat, rhs, rtol, name)`` solves mat x = rhs for a CSC
    interior block ``mat``.  With no factor held it factors ``mat`` and
    solves directly; ``rhs`` may then be 2-D, one column per right-hand
    side.  The factor is one SuperLU (natural column order, default partial
    pivoting) of ``P mat P^T``, where ``P`` orders the strongly connected
    components of ``mat`` block lower triangularly
    (:func:`_block_triangular_order`) and keeps the nested-dissection order
    of :attr:`~plap.grid.Domain.interior_flat` inside each; right-hand sides
    are permuted in and solutions out.  A matrix with one component is
    factored as given.
    With a factor held, GMRES, right-preconditioned by it, runs one restart
    cycle, and its result stands when the true residual satisfies
    |mat x - rhs| <= rtol |rhs|; on a miss the old factor is dropped and
    ``mat`` factored in its place.  A singular factorization raises
    :class:`NonConvergence` carrying ``history``, which a solver sharing the
    object points at its own residual list.  ``factor_fill`` sums the
    entries SuperLU stores for L and U (``SuperLU.nnz``) over the
    factorizations; reading ``L.nnz + U.nnz`` instead would make scipy build
    CSC copies of both factors and keep them as long as the factor.
    ``scipy.sparse.linalg`` and ``scipy.sparse.csgraph`` are imported at the
    first factorization, and ``splu`` is looked up on its module at every
    call.
    """

    def __init__(self, history=()):
        self.history = history
        self.factorizations = 0
        self.krylov_iterations = 0
        self.factor_fill = 0
        self._lu = None
        self._perm = None

    def solve(self, mat, rhs, rtol: float, name: str):
        if self._lu is not None:
            x = self._preconditioned_gmres(mat, rhs, rtol)
            if np.linalg.norm(mat @ x - rhs) <= rtol * np.linalg.norm(rhs):
                return x
        import scipy.sparse.linalg as spla

        self._lu = None  # never two factors at once
        self._perm = _block_triangular_order(mat)
        try:
            self._lu = spla.splu(
                mat if self._perm is None else mat[self._perm][:, self._perm], permc_spec="NATURAL"
            )
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise NonConvergence(f"{name} is singular: {exc}", self.history) from exc
        self.factorizations += 1
        self.factor_fill += self._lu.nnz
        return self._factor_solve(rhs)

    def _factor_solve(self, rhs):
        if self._perm is None:
            return self._lu.solve(rhs)
        y = self._lu.solve(rhs[self._perm])
        x = np.empty_like(y)
        x[self._perm] = y
        return x

    def _preconditioned_gmres(self, mat, rhs, rtol: float):
        import scipy.sparse.linalg as spla

        # right preconditioning, so GMRES minimizes the true residual
        op = spla.LinearOperator(mat.shape, matvec=lambda y: mat @ self._factor_solve(y), dtype=float)
        y, _info = spla.gmres(
            op, rhs, rtol=rtol, atol=0.0, restart=_KRYLOV_RESTART, maxiter=1,
            callback=self._count_iteration, callback_type="pr_norm",
        )
        return self._factor_solve(y)

    def _count_iteration(self, _residual):
        self.krylov_iterations += 1


def solve_p_laplace(
    gamma: ScalarField,
    p: float,
    f: ScalarField,
    cfg: PSolveConfig | None = None,
    start: ScalarField | None = None,
    lu: _ReusedLU | None = None,
) -> ForwardSolution:
    """Solve the Dirichlet problem for the weighted p-Laplace equation.

    ``f`` supplies the boundary values (a full-grid field whose boundary nodes
    are used; interior values are ignored).  ``start``, if given, supplies
    the interior values Newton starts from instead of the isotropic linear
    solve.  ``lu``, if given, is a :class:`_ReusedLU` whose factor (of a
    nearby operator, such as the linearization at a neighbouring solution)
    preconditions the Newton steps; it is refactored on a miss and keeps
    whatever factor the solve ends with.  Returns a :class:`ForwardSolution`
    whose ``u`` matches ``f`` on the boundary exactly, whose pointwise
    divergence residual is below ``cfg.tol`` at all interior nodes, and whose
    counts are this solve's own.

    Raises :class:`NonConvergence` when the iteration budget runs out, the
    residual is not finite, a Newton Jacobian is singular or, with
    eps_reg = 0, the gradient is exactly zero where the flux (p < 2) or its
    derivative is needed; warns
    with :class:`DegenerateGradientWarning` when min |grad u| < eps_reg.
    """
    if cfg is None:
        cfg = PSolveConfig(p=p)
    elif cfg.p != p:
        raise ValueError(f"cfg.p = {cfg.p} does not match p = {p}")
    require_positive_weight(gamma)
    if not np.all(np.isfinite(f.values[f.domain.boundary_mask])):
        raise ValueError("boundary data must be finite")

    dom = gamma.domain
    for other in (f, start):
        if other is not None and not (other.domain is dom or other.domain == dom):
            raise ValueError("weight, boundary data and start live on different domains")
    eps = cfg.eps_reg
    int_idx = dom.interior_flat

    history: list[float] = []
    if lu is None:
        lu = _ReusedLU()
    lu.history = history  # a singular factor reports this solve's residuals
    factorizations, krylov_iterations, fill = lu.factorizations, lu.krylov_iterations, lu.factor_fill
    u_flat = np.array(f.values, dtype=float).ravel()
    if start is None:
        # initial guess: linear solve with tensor gamma*I, same boundary data;
        # its LU then preconditions the Newton steps
        eye_t = gamma.values[..., None, None] * np.eye(dom.n)
        lin_ii, lin_ib = anisotropic_operator(dom, eye_t)
        u_flat[int_idx] = lu.solve(
            lin_ii, -(lin_ib @ u_flat[dom.boundary_flat]), _NEWTON_FORCING, "isotropic operator"
        )
    else:
        u_flat[int_idx] = start.values.ravel()[int_idx]

    # with eps_reg = 0 the flux derivative (any p) and the flux itself
    # (p < 2 only) are undefined at a zero gradient; these are the nodes the
    # interior equations read
    read = None
    if eps == 0.0:
        read = np.unique(np.concatenate([m[int_idx].indices for m in dom.diff_matrices]))

    def as_field(values) -> ScalarField:
        return ScalarField(dom, values.reshape(dom.shape))

    def zero_gradients(values) -> int:
        if read is None:
            return 0
        g = gradient(as_field(values)).values
        return int(np.count_nonzero(np.sum(g**2, axis=-1).ravel()[read] == 0.0))

    def require_nonzero_gradient(values, undefined: str):
        n_zero = zero_gradients(values)
        if n_zero:
            raise NonConvergence(
                f"gradient is exactly zero at {n_zero} of the nodes the interior equations read; "
                f"the {undefined} undefined there with eps_reg = 0",
                history,
            )

    def interior_residual(values) -> np.ndarray:
        return residual(gamma, p, as_field(values), eps).values.ravel()[int_idx]

    iterations = 0
    if p < 2.0:
        require_nonzero_gradient(u_flat, "flux and its derivative are")
    res = interior_residual(u_flat)
    res_norm = float(np.max(np.abs(res)))
    history.append(res_norm)
    while not res_norm <= cfg.tol:  # NaN compares false: it enters and is rejected
        if not np.isfinite(res_norm):
            raise NonConvergence(f"residual is {res_norm} after {iterations} iterations", history)
        if iterations >= cfg.max_iter:
            raise NonConvergence(
                f"residual {res_norm:.3e} above tol {cfg.tol:.1e} after {iterations} iterations",
                history,
            )
        require_nonzero_gradient(u_flat, "flux derivative is")
        g = gradient(as_field(u_flat)).values
        blocks = gamma.values[..., None, None] * flux_derivative(g, p, eps)
        jac, _ = anisotropic_operator(dom, blocks, boundary=False)
        step = lu.solve(jac, -res, _NEWTON_FORCING, "Newton Jacobian")
        t = 1.0
        for _ls in range(_MAX_LINESEARCH):
            trial = np.array(u_flat)
            trial[int_idx] += t * step
            if p >= 2.0 or not zero_gradients(trial):
                res_t = interior_residual(trial)
                norm_t = float(np.max(np.abs(res_t)))
                if norm_t < res_norm:
                    u_flat, res, res_norm = trial, res_t, norm_t
                    break
            t *= _STEP_SHRINK
        else:
            raise NonConvergence(
                f"line search stalled at residual {res_norm:.3e}", history + [res_norm]
            )
        iterations += 1
        history.append(res_norm)

    u = as_field(u_flat)
    min_grad = min_interior_gradient(u)
    degenerate = min_grad < eps
    if degenerate:
        warnings.warn(
            f"minimum interior |grad u| = {min_grad:.3e} is below eps_reg = {eps:.1e}; "
            "linearization at this solution is unsafe",
            DegenerateGradientWarning,
            stacklevel=2,
        )
    return ForwardSolution(
        u=u,
        iterations=iterations,
        residual_norm=res_norm,
        min_gradient=min_grad,
        energy=p_energy(gamma, p, u, eps),
        residual_history=history,
        degenerate_gradient=degenerate,
        factorizations=lu.factorizations - factorizations,
        krylov_iterations=lu.krylov_iterations - krylov_iterations,
        factor_fill=lu.factor_fill - fill,
    )


# -- Dirichlet-to-Neumann --------------------------------------------------------


def boundary_flux(gamma: ScalarField, p: float, u: ScalarField, eps_reg: float = 0.0) -> dict:
    """Per-face normal component of the flux of :func:`residual`,
    gamma * (|grad u|^2 + eps^2)^((p-2)/2) * du/dnu.

    The normal derivative comes from the one-sided boundary rows of the
    gradient stencils, so the extraction is second order.
    """
    return normal_component(_flux(gamma, p, u, eps_reg))


def dn_apply(
    gamma: ScalarField,
    p: float,
    f: ScalarField,
    cfg: PSolveConfig | None = None,
    start: ScalarField | None = None,
    lu: _ReusedLU | None = None,
) -> dict:
    """Nonlinear Dirichlet-to-Neumann map: boundary data -> boundary flux.

    ``start`` and ``lu`` are passed on to :func:`solve_p_laplace`.
    """
    if cfg is None:
        cfg = PSolveConfig(p=p)
    sol = solve_p_laplace(gamma, p, f, cfg, start, lu)
    return boundary_flux(gamma, p, sol.u, cfg.eps_reg)


def boundary_pairing(f: ScalarField, flux: dict) -> float:
    """Surface integral of f times the boundary flux."""
    dom = f.domain
    tr = boundary_trace(f)
    return integrate_boundary(dom, {k: tr[k] * flux[k] for k in tr})
