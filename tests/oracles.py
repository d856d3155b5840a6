"""Independent oracles shared by the test modules.

Everything here is deliberately dumb and independent of the library code it
checks: 1D quadrature for the pseudo-1D solution family, finite differences
for Jacobians, convergence-order measurement, the flux map J and the
closed form of its derivative dJ, the broadcast form of the regularized
flux derivative tensor, the defect of the integral Taylor
identity of the flux map, a tensor symmetry defect, loop versions of the jet
product and quotient, coefficientwise jet comparison, the jet of the flux
divergence, the closed-form order-0 split in two dimensions, the coefficient
columns of a recovery order by probing its forward rows, and the
divergence-form operator twice: in full as a sum of sparse triple products,
and as its interior blocks from a chain of three sparse products, whose sums
the library's assembly must reproduce bit for bit.  ``series_jet`` is the
truth for the jet powers and elementary functions: sympy's series of the
function at the base's constant term, composed with the rest of a
polynomial base in exact rational arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
import scipy.sparse as sp
import sympy
from scipy.integrate import quad

from plap.grid import ScalarField, build_domain
from plap.jets import Jet, extract_normal_slice, jet_const, jet_partial, jet_pow, set_normal_slice
from plap.linearize import segment_integral_dJ
from plap.recover import NormalGradientZero, RecoveryError, TangentialDegenerate


def pseudo1d_boundary_profile(gamma_of_t, p: float, xs: np.ndarray, c: float = 1.0, x0: float = 0.0) -> np.ndarray:
    """G(x) = int_x0^x (c / gamma(t))^(1/(p-1)) dt at increasing ``xs``, by
    adaptive quadrature over each cell from x0 through the xs, summed."""
    expo = 1.0 / (p - 1.0)
    edges = np.concatenate([[x0], np.asarray(xs, dtype=float)])
    cells = [
        quad(lambda t: (c / gamma_of_t(t)) ** expo, a, b, epsabs=1e-14, epsrel=1e-14, limit=200)[0]
        for a, b in zip(edges[:-1], edges[1:])
    ]
    return np.cumsum(cells)


def pseudo1d_fields(gamma_of_t, p: float, res: int, c: float = 1.0):
    """Unit-square domain, weight gamma(x1), and the exact pseudo-1D data G(x1)."""
    dom = build_domain((1.0, 1.0), (res, res))
    gam = ScalarField(dom, gamma_of_t(dom.coords[0]))
    gvals = pseudo1d_boundary_profile(gamma_of_t, p, dom.axes[0], c=c)
    f = ScalarField(dom, np.broadcast_to(gvals[:, None], dom.shape).copy())
    return dom, gam, f


def fd_jacobian(fn, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of a vector map."""
    x = np.asarray(x, dtype=float)
    cols = []
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = step
        cols.append((np.asarray(fn(x + e)) - np.asarray(fn(x - e))) / (2.0 * step))
    return np.stack(cols, axis=1)


def convergence_orders(errors) -> list[float]:
    """Empirical orders from errors at successively halved spacings."""
    errors = list(errors)
    return [float(np.log2(errors[i] / errors[i + 1])) for i in range(len(errors) - 1)]


def J(xi, p: float) -> np.ndarray:
    """Reference flux map |xi|^(p-2) xi: 0 at xi = 0 for p > 2, undefined
    there for p < 2 (raises ValueError)."""
    xi = np.asarray(xi, dtype=float)
    norm = float(np.linalg.norm(xi))
    if norm == 0.0:
        if p < 2.0:
            raise ValueError("J undefined at xi = 0 for p < 2")
        return np.zeros_like(xi)
    return norm ** (p - 2.0) * xi


def dJ(xi, p: float) -> np.ndarray:
    """The paper's flux derivative |xi|^(p-2) (I + (p-2) e e^T), e = xi/|xi|,
    of one nonzero vector by its closed form."""
    xi = np.asarray(xi, dtype=float)
    norm = math.sqrt(float(xi @ xi))
    e = xi / norm
    return norm ** (p - 2.0) * (np.eye(xi.size) + (p - 2.0) * np.outer(e, e))


def flux_derivative_broadcast(grad_vals, p: float, eps: float = 0.0) -> np.ndarray:
    """m^(p-2) (I + (p-2) g g^T / m^2), m^2 = |g|^2 + eps^2, for every vector
    g along the last axis, by whole-tensor broadcasting: the outer products,
    the identity plus their scaled batch, times kappa.  The library forms
    the same tensor one component at a time and must match it bit for bit,
    zero signs included."""
    g = np.asarray(grad_vals, dtype=float)
    gsq = np.sum(g**2, axis=-1)
    m2 = gsq + eps * eps
    outer = g[..., :, None] * g[..., None, :]
    tensor = np.eye(g.shape[-1]) + (p - 2.0) * outer / m2[..., None, None]
    return ((gsq + eps * eps) ** ((p - 2.0) / 2.0))[..., None, None] * tensor


def symmetry_defect(tensor_values) -> float:
    """Largest |T_ab - T_ba| over the last two axes."""
    t = np.asarray(tensor_values, dtype=float)
    return float(np.max(np.abs(t - np.swapaxes(t, -1, -2))))


def taylor_identity_check(zeta, xi, p: float) -> float:
    """Defect of J(zeta) = J(xi) + [int_0^1 dJ(xi + t (zeta - xi)) dt] (zeta - xi),
    with the integral by the library's Gauss-Legendre rule
    (``linearize.segment_integral_dJ``); it should sit at roundoff whenever
    the segment stays away from the origin."""
    xi = np.asarray(xi, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    if np.array_equal(xi, zeta):
        return 0.0
    d = zeta - xi
    integral = segment_integral_dJ(xi, d, p)
    defect = J(zeta, p) - J(xi, p) - integral @ d
    return float(np.max(np.abs(defect)))


def gauss_legendre_matrix_integral(fn, npts: int = 64) -> np.ndarray:
    """High-order fixed quadrature of a matrix-valued function on [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(npts)
    t = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    return sum(wi * np.asarray(fn(ti)) for ti, wi in zip(t, w))


def _graded_indices(nvars: int, order: int) -> list[tuple[int, ...]]:
    idx = [a for a in np.ndindex(*(order + 1,) * nvars) if sum(a) <= order]
    return sorted(idx, key=lambda a: (sum(a), a))


def jet_mul_loop(a: Jet, b: Jet) -> Jet:
    """Truncated Cauchy product as a loop over a in graded order, adding
    a_alpha times the shifted b; zero coefficients of a are skipped."""
    n, order = a.nvars, a.order
    out = np.zeros((order + 1,) * n)
    for alpha in _graded_indices(n, order):
        ca = a.coeffs[alpha]
        if ca == 0.0:
            continue
        dst = tuple(slice(k, None) for k in alpha)
        src = tuple(slice(None, order + 1 - k) for k in alpha)
        out[dst] += ca * b.coeffs[src]
    out[np.indices(out.shape).sum(axis=0) > order] = 0.0
    return Jet(n, order, out)


def jet_div_loop(a: Jet, b: Jet) -> Jet:
    """Graded long division, one coefficient at a time:
    out_g = (a_g - sum_{0 != beta <= g} b_beta out_{g - beta}) / b_0."""
    n, order = a.nvars, a.order
    b0 = b.coeffs[(0,) * n]
    out = np.zeros((order + 1,) * n)
    for g in _graded_indices(n, order):
        acc = a.coeffs[g]
        for beta in np.ndindex(*[k + 1 for k in g]):
            if any(beta):
                acc -= b.coeffs[beta] * out[tuple(k - kb for k, kb in zip(g, beta))]
        out[g] = acc / b0
    return Jet(n, order, out)


def jet_allclose(a: Jet, b: Jet, rtol: float = 1e-12, atol: float = 1e-12) -> bool:
    """Coefficientwise np.allclose of two jets of equal shape."""
    if (a.nvars, a.order) != (b.nvars, b.order):
        raise ValueError(f"jet mismatch: {(a.nvars, a.order)} vs {(b.nvars, b.order)}")
    return bool(np.allclose(a.coeffs, b.coeffs, rtol=rtol, atol=atol))


@lru_cache(maxsize=None)
def _poly_powers(base: tuple, nvars: int, order: int) -> list[dict]:
    """Powers 0..order of a polynomial without constant term, given as
    ((alpha, Fraction), ...), each a dict alpha -> Fraction truncated at
    total degree ``order``."""
    powers = [{(0,) * nvars: Fraction(1)}]
    for _ in range(order):
        nxt: dict = {}
        for a, ca in powers[-1].items():
            for b, cb in base:
                ab = tuple(x + y for x, y in zip(a, b))
                if sum(ab) <= order:
                    nxt[ab] = nxt.get(ab, 0) + ca * cb
        powers.append(nxt)
    return powers


@lru_cache(maxsize=None)
def _series_coefficients(f, b0: Fraction, order: int) -> tuple[str, ...]:
    """The Taylor coefficients 0..order of f at b0, from sympy's series, to 40 digits."""
    h = sympy.Symbol("h")
    ser = sympy.series(f(sympy.Rational(b0.numerator, b0.denominator) + h), h, 0, order + 1).removeO()
    return tuple(str(sympy.N(ser.coeff(h, k), 40)) for k in range(order + 1))


def series_jet(f, base: dict, order: int) -> Jet:
    """Jet of f(base) for a polynomial base {alpha: Fraction} with a nonzero
    constant term b0: the coefficients f_k of sympy's series of f at b0,
    taken to 40 digits, times the exact powers of base - b0,
    c_alpha = sum_k f_k [x^alpha] (base - b0)^k, rounded once to floats.
    ``f`` maps a sympy expression to a sympy expression."""
    nvars = len(next(iter(base)))
    zero = (0,) * nvars
    rest = tuple(sorted((a, c) for a, c in base.items() if a != zero and c != 0))
    out = np.zeros((order + 1,) * nvars)
    with mpmath.workdps(40):
        fk = [mpmath.mpf(c) for c in _series_coefficients(f, base[zero], order)]
        total: dict = {}
        for k, power in enumerate(_poly_powers(rest, nvars, order)):
            for a, c in power.items():
                total[a] = total.get(a, 0) + fk[k] * mpmath.mpf(c.numerator) / c.denominator
        for a, value in total.items():
            out[a] = float(value)
    return Jet(nvars, order, out)


def jet_from_poly(base: dict, order: int) -> Jet:
    """The jet of a polynomial {alpha: Fraction} with dyadic (float-exact) coefficients."""
    nvars = len(next(iter(base)))
    out = np.zeros((order + 1,) * nvars)
    for a, c in base.items():
        out[a] = float(c)
    return Jet(nvars, order, out)


def scaled_gap(got: Jet, want: Jet) -> float:
    """Largest |got - want| over the coefficients, on the max(|want|, 1) scale."""
    if (got.nvars, got.order) != (want.nvars, want.order):
        raise ValueError(f"jet mismatch: {(got.nvars, got.order)} vs {(want.nvars, want.order)}")
    return float(np.max(np.abs(got.coeffs - want.coeffs) / np.maximum(np.abs(want.coeffs), 1.0)))


def flux_divergence_jet(gamma_jet: Jet, u0_jet: Jet, p: float) -> Jet:
    """Jet of div(gamma |grad u0|^(p-2) grad u0); identically zero for exact data.

    ``u0_jet`` carries one order more than ``gamma_jet``, so the gradient
    jets match the weight's order.
    """
    grads = [jet_partial(u0_jet, a) for a in range(u0_jet.nvars)]
    w2 = grads[0] * grads[0]
    for g in grads[1:]:
        w2 = w2 + g * g
    gk = gamma_jet * jet_pow(w2, (p - 2.0) / 2.0)
    div = jet_partial(gk * grads[0], 0)
    for a in range(1, len(grads)):
        div = div + jet_partial(gk * grads[a], a)
    return div


def probed_columns(state, m: int) -> list[tuple[Jet, Jet]]:
    """The (X, Y) coefficient jets of rows (i)-(iii) of the order-m recovery
    system, by probing the forward rows at (X, Y) = (0, 0), (1, 0), (0, 1).

    Each row is affine in the unknowns X = d1^m gamma and Y = d1^(m+1) u0,
    so its differences from the (0, 0) probe are its columns, up to
    roundoff.  The rows are the flux divergence at normal order m - 1, A_00
    and tau . A tau at order m, formed from scratch in jet arithmetic.
    """
    p, nt = state.p, state.order - m
    tau1, tau2 = float(state.tangent[1]), float(state.tangent[2])

    def rows(x: float, y: float):
        gamma = set_normal_slice(state.gamma, m, jet_const(2, nt, x))
        u0 = set_normal_slice(state.u0, m + 1, jet_const(2, nt, y))
        grads = [jet_partial(u0, a) for a in range(3)]
        w2 = grads[0] * grads[0] + grads[1] * grads[1] + grads[2] * grads[2]
        gk = gamma * jet_pow(w2, (p - 2.0) / 2.0)
        gt = tau1 * grads[1] + tau2 * grads[2]
        return (
            extract_normal_slice(flux_divergence_jet(gamma, u0, p), m - 1),
            extract_normal_slice(gk * (1.0 + (p - 2.0) * (grads[0] * grads[0] / w2)), m),
            extract_normal_slice(gk * (1.0 + (p - 2.0) * (gt * gt / w2)), m),
        )

    f0, fx, fy = rows(0.0, 0.0), rows(1.0, 0.0), rows(0.0, 1.0)
    return [(a - b, c - b) for a, c, b in zip(fx, fy, f0)]


def recover_order0_2d(a_tangent: float, tangential_slope: float, flux: float, p: float):
    """Order-0 identification in two dimensions (single tangent direction).

    Unknowns gamma and d = normal slope from the tangential tensor entry
    q = tau . A tau, the tangential slope t of the trace, and the flux value.
    Eliminating gamma leaves the cubic q d (d^2 + t^2) = flux (d^2 + (p-1) t^2)
    whose unique admissible root (sign matching the flux) is required.
    Returns (gamma, d, |grad u0|).
    """
    q, t, phi = float(a_tangent), float(tangential_slope), float(flux)
    if abs(t) < 1e-12:
        raise TangentialDegenerate("tangential slope vanishes; 2D split needs it")
    if abs(phi) < 1e-14:
        raise NormalGradientZero("flux vanishes at z, so the normal slope does too")
    roots = np.roots([q, -phi, q * t * t, -phi * (p - 1.0) * t * t])
    admissible: list[float] = []
    for root in roots:
        if abs(root.imag) > 1e-9 * max(1.0, abs(root)):
            continue
        d = float(root.real)
        if d * phi <= 0.0:
            continue
        # keep distinct roots only (np.roots may split a double root)
        if all(abs(d - other) > 1e-9 * max(1.0, abs(d)) for other in admissible):
            admissible.append(d)
    if len(admissible) != 1:
        raise RecoveryError(
            f"expected a unique admissible normal slope, found {sorted(admissible)}"
        )
    d = admissible[0]
    kappa = phi / d
    w2 = d * d + t * t
    gamma = kappa * w2 ** ((2.0 - p) / 2.0)
    return gamma, d, math.sqrt(w2)


def anisotropic_operator_loop(domain, tensor_values) -> sp.csr_matrix:
    """Sparse matrix of u -> div(T grad u) on every node, in C order: the sum
    over a, b of the triple products D_a diag(T_ab) D_b."""
    mats = domain.diff_matrices
    total = None
    for a in range(domain.n):
        for b in range(domain.n):
            term = mats[a] @ sp.diags(tensor_values[..., a, b].ravel()) @ mats[b]
            total = term if total is None else total + term
    return total.tocsr()


def anisotropic_operator_chain(domain, tensor_values) -> tuple[sp.csc_matrix, sp.csc_matrix]:
    """The interior blocks (A_II, A_IB) of u -> div(T grad u), as CSC with
    sorted indices, from three sparse products.

    With Dcat = [D_0 ... D_{n-1}] (nodes x n nodes), Dstack its vertical
    counterpart and Tblk the node-block-diagonal matrix with entry
    ((a, k), (b, k)) = T[k, a, b], the operator is Dcat Tblk Dstack.  Here
    M = Tblk^T Dcat_I^T over the interior rows I, and each block is the
    transpose of Dstack^T, restricted to the interior or boundary nodes,
    times M.  The products sum their terms one after another and drop exact
    zeros.
    """
    mats = domain.diff_matrices
    n_nodes, n = domain.n_nodes, domain.n
    dcat_int_t = sp.hstack(mats, format="csr")[domain.interior_flat].T.tocsr()
    dstack_t = sp.hstack([m.T for m in mats], format="csr")
    node = np.arange(n * n_nodes) % n_nodes
    t_indices = (node[:, None] + n_nodes * np.arange(n)).ravel()
    t_indptr = np.arange(0, n * n * n_nodes + 1, n)
    t_data = np.reshape(tensor_values, (n_nodes, n, n)).transpose(2, 0, 1).ravel()
    m = sp.csr_matrix((t_data, t_indices, t_indptr), shape=(n * n_nodes, n * n_nodes)) @ dcat_int_t
    blocks = []
    for nodes in (domain.interior_flat, domain.boundary_flat):
        block = (dstack_t[nodes] @ m).T
        block.sort_indices()
        blocks.append(block)
    return tuple(blocks)


def same_sparse(got, ref) -> bool:
    """Whether two compressed sparse matrices store the same format, shape,
    ``indptr``, ``indices`` and ``data``, bit for bit."""
    return (
        got.format == ref.format
        and got.shape == ref.shape
        and np.array_equal(got.indptr, ref.indptr)
        and np.array_equal(got.indices, ref.indices)
        and np.array_equal(got.data.view(np.uint64), ref.data.view(np.uint64))
    )
