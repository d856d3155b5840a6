"""Numerical laboratory for the weighted p-Laplace inverse boundary value problem.

Modules by role:

- :mod:`plap.grid` -- box grids, fields, finite-difference calculus;
- :mod:`plap.psolve` -- forward solver and nonlinear Dirichlet-to-Neumann map;
- :mod:`plap.linearize` -- flux-derivative algebra, the anisotropic linearized
  problem, and numerical verification that difference quotients of the
  nonlinear DN map converge to the linear one;
- :mod:`plap.criticalfree` -- construction and certification of base solutions
  whose gradient stays away from zero;
- :mod:`plap.jets` -- truncated multivariate Taylor arithmetic plus a small
  analytic expression language;
- :mod:`plap.recover` -- layer stripping: recovery of all normal-direction
  derivatives of the weight at a flat boundary point, and Taylor resummation
  into the interior;
- :mod:`plap.planecheck` -- machine-precision checks of the 2D projector and
  determinant algebra;
- :mod:`plap.cli` -- the ``plap`` batch experiment runner.

``import plap`` loads none of them: a module named in ``__all__`` is imported
on its first attribute access (``plap.psolve.solve_p_laplace``), so a program
pays only for the modules it uses.  ``plap.cli`` is reached by importing it.
"""

import importlib

__all__ = [
    "grid",
    "jets",
    "psolve",
    "linearize",
    "criticalfree",
    "recover",
    "planecheck",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
