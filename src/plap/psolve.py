"""Forward solver for the weighted p-Laplace Dirichlet problem.

The discrete problem: find the node field u matching the boundary data that
zeroes the pointwise finite-difference divergence of the regularized flux

    F(u) = gamma * (|grad u|^2 + eps^2)^((p-2)/2) * grad u

at every interior node.  The smoothing constant eps = 1e-8 keeps Newton
well-posed where the equation degenerates (grad u -> 0); for data whose
gradients stay O(1), as at the solutions without critical points that the
paper linearizes at, the bias is far below solver tolerance.

Solution strategy: start from the solution of the isotropic linear problem
div(gamma grad u) = 0 with the same boundary data (or from a given interior
start), then run Newton on the pointwise divergence residual until its max
norm over the interior nodes is below the requested tolerance.  The steps
are inexact and share one sparse LU: GMRES, right-preconditioned by the LU
of the isotropic operator (or, from a given start, by the caller's factor of
a nearby operator, or else the first Jacobian's), solves each Jacobian to a
relative residual of 1e-4 in one restart cycle, one LU solve per Krylov
step.  Only when the cycle misses is the current Jacobian refactored, its
factor replacing the old one, which is dropped first.  Interior unknowns
come in the C order of :attr:`~plap.grid.Domain.interior_flat`, and the
isotropic operator and each Jacobian are assembled directly as their
interior blocks in that order (:func:`~plap.grid.anisotropic_operator`),
already in CSC.  The LU orders a block by its strongly connected
components, block lower triangularly, and factors each depth level of that
order with its own minimum-degree SuperLU.  The isotropic operator of an
odd-resolution grid splits into 2^n parity lattices in n + 1 levels this
way, with no fill in the blocks below the diagonal; a Jacobian, with its
full tensor, is one level.  GMRES sums its inner products in a fixed
order, never in the BLAS, so no digit depends on the BLAS thread count.
Each Newton step is halved until the max norm of the residual drops.
Everything is deterministic: fixed iteration order, no randomness.
"""

from __future__ import annotations

import math
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


# the regularization eps of the flux that the forward solve zeroes
_EPS_REG = 1e-8

# Newton: at most this many steps; backtracking halves a step, at most
# this many trial steps
_MAX_NEWTON_STEPS = 60
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
    """The pseudo-1D profile's integrand is not finite at a quadrature point,
    or its quadrature did not settle within its node cap."""


class DegenerateGradientWarning(UserWarning):
    """The solution gradient dipped below the regularization 1e-8 somewhere;
    downstream linearization at this solution is unsafe."""


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


def _squared_norm(v) -> np.ndarray:
    """|v|^2 of every vector along the last axis of ``v``, its squared
    components summed in component order, as ``np.sum(v**2, axis=-1)`` sums
    them, without an array of all the squares."""
    total = v[..., 0] * v[..., 0]
    for k in range(1, v.shape[-1]):
        total += v[..., k] * v[..., k]
    return total


def _kappa(grad_sq: np.ndarray, p: float, eps: float) -> np.ndarray:
    return (grad_sq + eps * eps) ** ((p - 2.0) / 2.0)


def _flux(gamma: ScalarField, p: float, u: ScalarField, eps: float) -> VectorField:
    """The regularized flux gamma * (|grad u|^2 + eps^2)^((p-2)/2) * grad u."""
    g = gradient(u).values
    gsq = _squared_norm(g)
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

    The tensor is formed one entry (i, j), i <= j, at a time as
    kappa * (delta_ij + (p-2) (g_i g_j) / m^2), kappa = m^(p-2), and written
    into the result and its mirror entry, so no temporary holds more than
    one component.  An off-diagonal entry is 0.0 + term, the identity's
    zero plus the term, so a -0.0 term comes out +0.0 as in I + (p-2) g g^T / m^2.
    """
    g = np.asarray(grad_vals, dtype=float)
    n = g.shape[-1]
    gsq = _squared_norm(g)
    m2 = gsq + eps * eps
    kappa = _kappa(gsq, p, eps)
    out = np.empty(g.shape + (n,))
    for i in range(n):
        for j in range(i, n):
            term = (p - 2.0) * (g[..., i] * g[..., j]) / m2
            out[..., i, j] = kappa * ((1.0 if i == j else 0.0) + term)
            out[..., j, i] = out[..., i, j]
    return out


def p_energy(gamma: ScalarField, p: float, u: ScalarField, eps_reg: float = 0.0) -> float:
    """Regularized p-energy (1/p) * integral of gamma (|grad u|^2 + eps^2)^(p/2)."""
    require_positive_weight(gamma)
    g = gradient(u).values
    gsq = _squared_norm(g)
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
    the cells; the finer one is kept.  Raises
    :class:`~plap.grid.InvalidWeight` when gamma is not finite and positive
    at some quadrature point, and :class:`ProfileNotResolved` when the
    integrand is not finite there or 1024 nodes per cell do not settle.
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
            raise ProfileNotResolved(f"pseudo-1D slope (c/gamma)^(1/(p-1)) is not finite at x1 = {bad:g}")
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
    mags = np.sqrt(_squared_norm(gradient(u).values))
    return float(np.min(mags[u.domain.interior_mask]))


# -- solver ----------------------------------------------------------------------


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of two vectors summed by numpy's own loop, never the
    BLAS, so its digits do not depend on the BLAS thread count."""
    return float(np.einsum("i,i->", a, b))


def _norm(a: np.ndarray) -> float:
    return math.sqrt(_dot(a, a))


def _block_triangular_order(mat):
    """Symmetric permutation that makes ``mat`` block lower triangular, and
    the bounds of its levels.

    The diagonal blocks are the strongly connected components of the graph
    of ``mat``; every entry between two components runs from a column
    component to a row component of greater depth, the length of the
    longest chain of components that leads to it (the block-triangular
    preorder of Duff & Reid, ACM TOMS 4, 1978, as in KLU).  Returns
    ``(perm, bounds)``: ``perm`` lists the rows by depth, in their given
    order within a depth, and level l, rows ``bounds[l]:bounds[l + 1]`` of
    ``P mat P^T``, holds the components of depth l, which never couple.  The
    diagonal-tensor blocks of the solvers, the isotropic operator and Picard
    step 0, split into the 2^n parity lattices of the wide stencil on grids
    of odd resolution, in 3 levels in 2-D and 4 in 3-D; a full-tensor block
    is one component and one level.
    """
    from scipy.sparse.csgraph import connected_components

    mat = mat.tocsc()
    # the transpose, a CSR view, has the same components and spares a copy
    count, labels = connected_components(mat.T, directed=True, connection="strong")
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
            break
        depth = deeper
    level = depth[labels]
    return np.argsort(level, kind="stable"), np.concatenate([[0], np.cumsum(np.bincount(level))])


class _ReusedLU:
    """One sparse LU of an interior block, reused while the matrices stay near.

    ``solve(mat, rhs, rtol, name)`` solves mat x = rhs for a CSC
    interior block ``mat``.  With no factor held it factors ``mat`` and
    solves directly; ``rhs`` may then be 2-D, one column per right-hand
    side.  A factorization orders ``mat`` block lower triangularly by the
    levels of :func:`_block_triangular_order` and factors each level's
    diagonal block with its own SuperLU, minimum degree on A^T + A
    (``MMD_AT_PLUS_A``) with symmetric-mode diagonal pivoting; a solve runs
    the levels in order, subtracting each level's coupling to the earlier
    ones before its LU solve.  A matrix with one component is one level.
    With a factor held, :meth:`_gmres` runs one restart cycle
    right-preconditioned by it, and its result stands when the true
    residual satisfies |mat x - rhs| <= rtol |rhs|; on a miss the old
    factor is dropped and ``mat`` factored in its place.  A singular factor
    of any level raises :class:`NonConvergence` carrying ``history``, which
    a solver sharing the object points at its own residual list.
    Between solves the object holds only the factor: the permutation and,
    per level, its coupling block and SuperLU; no matrix it was given and
    no Krylov basis outlives the call.
    ``factorizations`` counts the factorizations, not the SuperLU calls, and
    ``factor_fill`` sums the entries SuperLU stores for L and U
    (``SuperLU.nnz``) over all of them; reading ``L.nnz + U.nnz`` instead
    would make scipy build CSC copies of both factors and keep them as long
    as the factor.  ``scipy.sparse.linalg`` and ``scipy.sparse.csgraph`` are
    imported at the first factorization, and ``splu`` is looked up on its
    module at every call.
    """

    def __init__(self, history=()):
        self.history = history
        self.factorizations = 0
        self.krylov_iterations = 0
        self.factor_fill = 0
        self._perm = None
        self._levels = None  # (lo, hi, coupling to rows :lo or None, SuperLU) per level

    def solve(self, mat, rhs, rtol: float, name: str):
        if self._levels is not None:
            x = self._gmres(mat, rhs, rtol, name)
            if _norm(mat @ x - rhs) <= rtol * _norm(rhs):
                return x
        import scipy.sparse.linalg as spla

        self._levels = None  # never two factors at once
        self._perm, bounds = _block_triangular_order(mat)
        permuted = mat[self._perm][:, self._perm]
        levels = []
        try:
            for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
                lu = spla.splu(permuted[lo:hi, lo:hi], permc_spec="MMD_AT_PLUS_A",
                               options={"SymmetricMode": True})
                levels.append((lo, hi, permuted[lo:hi, :lo] if lo else None, lu))
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise NonConvergence(f"{name} is singular: {exc}", self.history) from exc
        self._levels = levels
        self.factorizations += 1
        self.factor_fill += sum(lu.nnz for *_, lu in levels)
        return self._factor_solve(rhs)

    def _factor_solve(self, rhs):
        y = rhs[self._perm]
        for lo, hi, coupling, lu in self._levels:
            if coupling is not None:
                y[lo:hi] -= coupling @ y[:lo]
            y[lo:hi] = lu.solve(y[lo:hi])
        x = np.empty_like(y)
        x[self._perm] = y
        return x

    def _finite_norm(self, v, name: str) -> float:
        norm = _norm(v)
        if not math.isfinite(norm):
            raise NonConvergence(
                f"{name}: a GMRES vector's 2-norm is {norm}, its squares beyond float64", self.history
            )
        return norm

    def _gmres(self, mat, rhs, rtol: float, name: str):
        """One cycle of GMRES from x = 0 on mat M^-1, M the held factor.

        Restarted GMRES (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 1986)
        with modified Gram-Schmidt and Givens rotations, right-preconditioned
        so that its residual estimate is that of mat x: one factor solve per
        Krylov step, and one to form x.  It stops when the estimate drops to
        rtol |rhs|, at an exact breakdown, or after 50 steps.  A right-hand
        side or Krylov vector whose 2-norm is not finite (its squares
        overflow) raises :class:`NonConvergence`.

        The basis is one array that grows by a row per step
        (``ndarray.resize``, which reallocates in place when it can), so a
        cycle of k steps holds k + 1 basis vectors, not a block for the
        whole restart; x is formed from its used rows by one ``einsum``, and
        the basis is dropped before the factor solve that ends the cycle.
        Between two steps the cycle holds only the basis, the (51, 50)
        Hessenberg matrix and the rotations.
        """
        beta = self._finite_norm(rhs, name)
        if beta == 0.0:
            return np.zeros_like(rhs)
        basis = np.empty((1, rhs.size))
        np.divide(rhs, beta, out=basis[0])
        hess = np.zeros((_KRYLOV_RESTART + 1, _KRYLOV_RESTART))
        rotations = []
        g = np.zeros(_KRYLOV_RESTART + 1)  # the rotated right-hand side beta e_1
        g[0] = beta
        for j in range(_KRYLOV_RESTART):
            w = mat @ self._factor_solve(basis[j])
            h = hess[:, j]
            before = self._finite_norm(w, name)
            for i in range(j + 1):
                h[i] = _dot(basis[i], w)
                w -= h[i] * basis[i]
            after = _norm(w)
            breakdown = after <= np.finfo(float).eps * before
            if not breakdown:
                h[j + 1] = after
                basis.resize((j + 2, rhs.size))
                np.divide(w, after, out=basis[j + 1])
            del w  # not held through the next step's factor solve
            for i, (c, s) in enumerate(rotations):
                h[i], h[i + 1] = c * h[i] + s * h[i + 1], c * h[i + 1] - s * h[i]
            r = math.copysign(math.hypot(h[j], h[j + 1]), h[j])
            c, s = (h[j] / r, h[j + 1] / r) if r else (1.0, 0.0)
            rotations.append((c, s))
            h[j], h[j + 1] = r, 0.0
            g[j], g[j + 1] = c * g[j], -s * g[j]
            self.krylov_iterations += 1
            if abs(g[j + 1]) <= rtol * beta or breakdown:
                break
        # back substitution; a zero pivot can only be the last, at a breakdown
        y = g[:j + 1]
        if hess[j, j] == 0.0:
            y[j] = 0.0
        for i in range(j, -1, -1):
            if y[i]:
                y[i] /= hess[i, i]
                y[:i] -= y[i] * hess[:i, i]
        combined = np.einsum("i,ij->j", y, basis[:j + 1])
        del basis  # not held through the factor solve that forms x
        return self._factor_solve(combined)


def solve_p_laplace(
    gamma: ScalarField,
    p: float,
    f: ScalarField,
    tol: float = 1e-8,
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
    divergence residual is below ``tol`` at all interior nodes, and whose
    counts are this solve's own.  The flux is regularized by eps = 1e-8
    (see the module docstring).

    Raises :class:`ValueError` unless p lies in (1, 2) or (2, inf) and
    ``tol`` is positive, and :class:`NonConvergence` when 60 Newton steps do
    not reach ``tol``, the residual or a GMRES vector norm is not finite
    (the flux exceeds float64) or a Newton Jacobian is singular; warns with
    :class:`DegenerateGradientWarning` when min |grad u| < eps.
    """
    if not (p > 1.0 and p != 2.0):
        raise ValueError(f"p must lie in (1,2) or (2,inf), got {p}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    require_positive_weight(gamma)
    if not np.all(np.isfinite(f.values[f.domain.boundary_mask])):
        raise ValueError("boundary data must be finite")

    dom = gamma.domain
    for other in (f, start):
        if other is not None and not (other.domain is dom or other.domain == dom):
            raise ValueError("weight, boundary data and start live on different domains")
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
        lin_ii, lin_ib = anisotropic_operator(dom, gamma.values[..., None, None] * np.eye(dom.n))
        u_flat[int_idx] = lu.solve(
            lin_ii, -(lin_ib @ u_flat[dom.boundary_flat]), _NEWTON_FORCING, "isotropic operator"
        )
        del lin_ii, lin_ib  # of the isotropic operator, the steps read only its factor
    else:
        u_flat[int_idx] = start.values.ravel()[int_idx]

    def as_field(values) -> ScalarField:
        return ScalarField(dom, values.reshape(dom.shape))

    def interior_residual(values) -> np.ndarray:
        # a flux beyond float64 gives a non-finite residual: at the start the
        # loop refuses it, and a trial step that meets one is shrunk
        with np.errstate(over="ignore", invalid="ignore"):
            return residual(gamma, p, as_field(values), _EPS_REG).values.ravel()[int_idx]

    iterations = 0
    res = interior_residual(u_flat)
    res_norm = float(np.max(np.abs(res)))
    history.append(res_norm)
    while not res_norm <= tol:  # NaN compares false: it enters and is rejected
        if not np.isfinite(res_norm):
            raise NonConvergence(
                f"residual is {res_norm} after {iterations} iterations: the flux "
                "gamma |grad u|^(p-2) grad u or its divergence is not finite in float64",
                history,
            )
        if iterations >= _MAX_NEWTON_STEPS:
            raise NonConvergence(
                f"residual {res_norm:.3e} above tol {tol:.1e} after {iterations} iterations",
                history,
            )
        # the gradient, the tensor blocks and the Jacobian each go once the
        # next is formed: the line search reads only the step
        grad = gradient(as_field(u_flat)).values
        blocks = flux_derivative(grad, p, _EPS_REG)
        blocks *= gamma.values[..., None, None]
        del grad
        jac, _ = anisotropic_operator(dom, blocks, boundary=False)
        del blocks
        step = lu.solve(jac, -res, _NEWTON_FORCING, "Newton Jacobian")
        del jac
        t = 1.0
        for _ls in range(_MAX_LINESEARCH):
            trial = np.array(u_flat)
            trial[int_idx] += t * step
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
    degenerate = min_grad < _EPS_REG
    if degenerate:
        warnings.warn(
            f"minimum interior |grad u| = {min_grad:.3e} is below eps = {_EPS_REG:.1e}; "
            "linearization at this solution is unsafe",
            DegenerateGradientWarning,
            stacklevel=2,
        )
    return ForwardSolution(
        u=u,
        iterations=iterations,
        residual_norm=res_norm,
        min_gradient=min_grad,
        energy=p_energy(gamma, p, u, _EPS_REG),
        residual_history=history,
        degenerate_gradient=degenerate,
        factorizations=lu.factorizations - factorizations,
        krylov_iterations=lu.krylov_iterations - krylov_iterations,
        factor_fill=lu.factor_fill - fill,
    )


# -- Dirichlet-to-Neumann --------------------------------------------------------


def boundary_flux(gamma: ScalarField, p: float, u: ScalarField) -> dict:
    """Per-face normal component of the flux the forward solve zeroes,
    gamma * (|grad u|^2 + eps^2)^((p-2)/2) * du/dnu with eps = 1e-8.

    The normal derivative comes from the one-sided boundary rows of the
    gradient stencils, so the extraction is second order.
    """
    return normal_component(_flux(gamma, p, u, _EPS_REG))


def dn_apply(
    gamma: ScalarField,
    p: float,
    f: ScalarField,
    tol: float = 1e-8,
    start: ScalarField | None = None,
    lu: _ReusedLU | None = None,
) -> dict:
    """Nonlinear Dirichlet-to-Neumann map: boundary data -> boundary flux.

    ``tol``, ``start`` and ``lu`` are passed on to :func:`solve_p_laplace`.
    """
    sol = solve_p_laplace(gamma, p, f, tol, start, lu)
    return boundary_flux(gamma, p, sol.u)


def boundary_pairing(f: ScalarField, flux: dict) -> float:
    """Surface integral of f times the boundary flux."""
    dom = f.domain
    tr = boundary_trace(f)
    return integrate_boundary(dom, {k: tr[k] * flux[k] for k in tr})
