"""Machine-precision checks of the two-dimensional projector algebra.

In 2D the anisotropy tensor of the linearized problem has the special shape
kappa (I + (p-2) P) with P a rank-1 orthogonal projector, and

    det(I + (p-2) v v^T) = p - 1        for any unit v.

A symmetric matrix F that commutes with P decomposes as theta P + eta (I - P),
and the compatibility identity

    F + alpha (p-2) F P F = I + (p-2) P

reduces on the two eigenspaces to the scalar constraints

    theta + alpha (p-2) theta^2 = p - 1,      eta = 1,

which together with det F = theta eta = 1 force theta = eta = 1, and are
consistent only for alpha = 1.  This module evaluates those statements at the
matrix level, plus the energy/boundary pairing that links the interior
p-energy of a forward solution to the boundary pairing of its DN flux.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import psolve
from .grid import ScalarField

__all__ = [
    "ProjectorPair",
    "FPResiduals",
    "PairingResult",
    "det_identity_2d",
    "projector",
    "fp_identity_residuals",
    "solve_theta_eta",
    "energy_pairing_check",
]


def det_identity_2d(v, p: float) -> float:
    """det(I + (p-2) v v^T) for a unit 2-vector v; equals p - 1 identically."""
    v = np.asarray(v, dtype=float)
    if v.shape != (2,):
        raise ValueError("v must be a 2-vector")
    if abs(np.linalg.norm(v) - 1.0) > 1e-12:
        raise ValueError(f"v must be a unit vector, |v| = {np.linalg.norm(v):.12f}")
    m = np.eye(2) + (p - 2.0) * np.outer(v, v)
    return float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def projector(v) -> np.ndarray:
    """Rank-1 orthogonal projector v v^T / |v|^2."""
    v = np.asarray(v, dtype=float)
    nsq = float(v @ v)
    if nsq == 0.0:
        raise ValueError("cannot project onto the zero vector")
    return np.outer(v, v) / nsq


@dataclass
class ProjectorPair:
    F: np.ndarray
    P: np.ndarray
    alpha: float
    p: float

    def __post_init__(self):
        self.F = np.asarray(self.F, dtype=float)
        self.P = np.asarray(self.P, dtype=float)
        if self.F.shape != (2, 2) or self.P.shape != (2, 2):
            raise ValueError("F and P must be 2x2")
        if np.max(np.abs(self.P - self.P.T)) > 1e-12:
            raise ValueError("P must be symmetric")
        if np.max(np.abs(self.P @ self.P - self.P)) > 1e-10:
            raise ValueError("P must be idempotent")
        if abs(np.trace(self.P) - 1.0) > 1e-10:
            raise ValueError("P must have rank 1")
        if np.max(np.abs(self.F - self.F.T)) > 1e-12:
            raise ValueError("F must be symmetric")
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")


@dataclass
class FPResiduals:
    master: float      # ||F + alpha (p-2) F P F - I - (p-2) P||_F
    pf_minus_pfp: float
    fp_minus_pf: float

    def max(self) -> float:
        return max(self.master, self.pf_minus_pfp, self.fp_minus_pf)


def fp_identity_residuals(pair: ProjectorPair) -> FPResiduals:
    """Frobenius residuals of the master identity and the commutation identities."""
    f, pmat, alpha, p = pair.F, pair.P, pair.alpha, pair.p
    eye = np.eye(2)
    master = f + alpha * (p - 2.0) * (f @ pmat @ f) - eye - (p - 2.0) * pmat
    pf = pmat @ f
    fp = f @ pmat
    pfp = pmat @ f @ pmat
    return FPResiduals(
        master=float(np.linalg.norm(master)),
        pf_minus_pfp=float(np.linalg.norm(pf - pfp)),
        fp_minus_pf=float(np.linalg.norm(fp - pf)),
    )


def solve_theta_eta(alpha: float, p: float):
    """Joint solve of theta + alpha (p-2) theta^2 = p - 1 with eta = 1 and
    theta eta = 1.

    The constraints pin theta = eta = 1, which satisfies the quadratic exactly
    when alpha = 1 (to 1e-12 max(1, |p - 1|)); for any other alpha the
    system is inconsistent and the function returns None.
    """
    if p == 2.0:
        raise ValueError("p must differ from 2")
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    theta = eta = 1.0
    defect = abs(theta + alpha * (p - 2.0) * theta**2 - (p - 1.0))
    if defect <= 1e-12 * max(1.0, abs(p - 1.0)):
        return (theta, eta)
    return None


@dataclass
class PairingResult:
    interior_energy: float
    boundary_pairing: float

    @property
    def rel_gap(self) -> float:
        scale = max(abs(self.interior_energy), abs(self.boundary_pairing), 1e-30)
        return abs(self.interior_energy - self.boundary_pairing) / scale


def energy_pairing_check(
    gamma: ScalarField, p: float, f: ScalarField, cfg: psolve.PSolveConfig | None = None
) -> PairingResult:
    """Compare the interior integral of gamma |grad u|^p against the boundary
    pairing of f with the DN flux of f (the weak form of the equation)."""
    if cfg is None:
        cfg = psolve.PSolveConfig(p=p)
    sol = psolve.solve_p_laplace(gamma, p, f, cfg)
    flux = psolve.boundary_flux(gamma, p, sol.u, cfg.eps_reg)
    interior = p * psolve.p_energy(gamma, p, sol.u, 0.0)
    boundary = psolve.boundary_pairing(f, flux)
    return PairingResult(interior_energy=interior, boundary_pairing=boundary)
