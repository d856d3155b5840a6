#!/usr/bin/env python3
"""Grid-refinement study for the forward solver on the pseudo-1D family.

For gamma(x) = 1 + x1 and boundary data G(x1) with
G'(t) = (c / gamma(t))^(1/(p-1)), the exact solution is G(x1) and the flux
is the constant c on the faces normal to x1, so both the solution error and
the flux error should shrink at second order.
"""

import numpy as np

from plap.grid import ScalarField, build_domain
from plap import psolve


def pseudo1d(p, res, c=1.0):
    dom = build_domain((1.0, 1.0), (res, res))
    gam = ScalarField(dom, 1.0 + dom.coords[0])
    g_axis = psolve.pseudo1d_profile("1 + x1", p, dom.axes[0], c)
    f = ScalarField(dom, np.broadcast_to(g_axis[:, None], dom.shape).copy())
    sol = psolve.solve_p_laplace(gam, p, f)
    flux = psolve.boundary_flux(gam, p, sol.u)
    u_err = float(np.max(np.abs(sol.u.values - f.values)))
    flux_err = float(np.max(np.abs(flux[(0, 1)] - c)))
    return u_err, flux_err, sol.iterations


def main():
    for p in (1.5, 3.0):
        print(f"p = {p}")
        print(f"  {'res':>5} {'max|u-G|':>12} {'order':>7} {'flux err':>12} {'order':>7} {'its':>4}")
        prev = None
        for res in (17, 33, 65, 129):
            u_err, f_err, its = pseudo1d(p, res)
            if prev is None:
                orders = ("", "")
            else:
                orders = (f"{np.log2(prev[0] / u_err):.2f}", f"{np.log2(prev[1] / f_err):.2f}")
            print(f"  {res:>5} {u_err:>12.3e} {orders[0]:>7} {f_err:>12.3e} {orders[1]:>7} {its:>4}")
            prev = (u_err, f_err)


if __name__ == "__main__":
    main()
