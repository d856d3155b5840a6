"""Independent oracles shared by the test modules.

Everything here is deliberately dumb and independent of the library code it
checks: 1D quadrature for the pseudo-1D solution family, finite differences
for Jacobians, convergence-order measurement, and loop versions of the jet
product and quotient.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad

from plap.grid import ScalarField, build_domain
from plap.jets import Jet


def pseudo1d_boundary_profile(gamma_of_t, p: float, xs: np.ndarray, c: float = 1.0, x0: float = 0.0) -> np.ndarray:
    """G(x) = int_x0^x (c / gamma(t))^(1/(p-1)) dt by adaptive quadrature."""
    expo = 1.0 / (p - 1.0)
    out = np.empty_like(xs, dtype=float)
    for i, x in enumerate(xs):
        out[i], _ = quad(lambda t: (c / gamma_of_t(t)) ** expo, x0, x, epsabs=1e-14, epsrel=1e-14, limit=200)
    return out


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
