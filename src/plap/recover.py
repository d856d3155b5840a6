"""Layer stripping at a flat boundary point: jets of the weight from boundary data.

Geometry and conventions.  Everything happens at one boundary point z of a
3D domain whose boundary is flat near z.  Coordinates are rotated so the
outward normal is the +x1 axis (variable index 0 in code) and the domain
occupies x1 <= z1; depths into the domain move along -e1.  The measured data
is the gauge-fixed jet package a boundary-determination step would produce:
for every normal order m, the tangential Taylor expansions at z of
d^m/dx1^m applied to the linearization tensor entries A_jk, plus the
Dirichlet trace of the base solution u0 and its flux

    gamma |grad u0|^(p-2) d u0/dx1

on the patch.  The synthesizer in this module produces exactly that package
(with the trivial gauge) from an exact solution family.

Exact scenarios.  For a profile gamma(x) = profile(zeta . x) and
u0(x) = G(zeta . x) with G' = (c / profile)^(1/(p-1)), the nonlinear flux
gamma |grad u0|^(p-2) grad u0 = c zeta is constant, so the equation holds
identically and all jets are available in closed jet arithmetic.  The tilt
zeta must have nonzero normal and tangential parts so that the recovery is
nondegenerate at z.

Recovery.  Order 0 splits gamma(z), d1 u0(z) and |grad u0|(z) out of the
tangential block of A plus the flux.  Each induction step m solves a 3x3
linear system for the leading unknowns

    X = d1^m gamma(z),   Y = d1^(m+1) u0(z),   Z = gauge jet (expected 0),

whose rows are (i) the interior equation differentiated m-1 times in the
normal direction, (ii) the measured normal-normal tensor entry at order m,
(iii) the measured entry tau . A tau in the tangential direction tau
orthogonal to the slope at z.  The recovery runs in the frame the
measurements arrive in: tau is one fixed unit vector, so no coordinate change
is needed.  Each row is affine in (X, Y), and by the Leibniz rule the
unknowns enter it multiplied by order-0 values alone, so the X and Y columns
are the closed-form entries of :func:`theta_matrix` at every order.  One
function writes those entries for floats and for jets alike; evaluated over
the ring of tangential jets, once per recovery, it gives whole tangential
expansions of the columns, which each order truncates to its own degree.
The Z column is the measured order-0 gauge, so the whole coefficient matrix
is order-0 data and the same at every order.  The recovery inverts it once
over tangential jets, as its adjugate times one reciprocal of its
determinant; each order multiplies its right-hand sides by that inverse
truncated to its own degree (one :func:`plap.jets.jet_matvec`), which equals
solving the truncated system because truncation commutes with products.  Since the matrix is the same
at every order, its condition number (the one SVD) is taken at order 1 and
reported again for each later order.  The known part of each row is
one forward jet evaluation per order at the state, where the unknowns are
still zero: the jet flux pieces, 1/|grad u0|^2 among them, are built once,
and only the three rows read are formed (the flux divergence and the
entries A_00 and tau . A tau).  Order m reads those rows at normal index
m - 1 and m and tangential degree at most n - m + 1 only, so every product,
quotient and power of its evaluation runs on the jet window (m, n - m + 1)
of :mod:`plap.jets`, and the divergence is formed on its slice m - 1 alone;
this gives the rows bit for bit while computing only the coefficients read.  Solving over the ring fills the mixed
(tangential x normal) derivatives without finite differencing.  The tests
check the columns against probing the forward rows at (X, Y) = (0, 0),
(1, 0) and (0, 1), and the inverse against the identity.

The 3x3 determinant is evaluated two ways: a fixed cofactor expansion of the
assembled matrix (authoritative) and a verbatim closed-form expression kept
for documentation.  At gamma = 1, grad u0 = e1, p = 3 they give 4 and 6
respectively; the discrepancy is reproduced and logged on purpose, and both
forms stay nonzero on the admissible parameter range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .jets import (
    Expr,
    Jet,
    eval_jet,
    jet_compose1,
    jet_const,
    jet_div,
    jet_matvec,
    jet_mul,
    jet_partial,
    jet_pow,
    jet_truncate,
    jet_variable,
    parse_expr,
    set_normal_slice,
    extract_normal_slice,
)

__all__ = [
    "RecoveryError",
    "TangentialDegenerate",
    "NormalGradientZero",
    "IllConditioned",
    "Scenario",
    "BoundaryJets",
    "ThetaSystem",
    "Order0Result",
    "RecoveryState",
    "oracle_tilted_profile",
    "synthesize_measurements",
    "recover_order0",
    "theta_matrix",
    "theta_det_direct",
    "theta_det_closed_form",
    "extract_affine_coefficients",
    "recover_order_m",
    "run_recovery",
    "taylor_reconstruct",
]


class RecoveryError(Exception):
    pass


class TangentialDegenerate(RecoveryError):
    """The tangential part of grad u0 at z is (numerically) zero."""


class NormalGradientZero(RecoveryError):
    """d u0/dx1 vanishes at z; the induction system is degenerate."""


class IllConditioned(RecoveryError):
    def __init__(self, order: int, cond: float, limit: float):
        self.order = order
        self.cond = cond
        super().__init__(
            f"order-{order} system condition number {cond:.3e} exceeds {limit:.1e}"
        )


# -- scenario and measurements ----------------------------------------------------


@dataclass
class Scenario:
    """Exact tilted-profile data for the recovery round trip.

    ``profile`` is an expression in x1 for the weight profile along the tilt;
    it must be positive near zeta . z.  ``zeta`` needs a nonzero normal
    component (zeta[0]) and a nonzero tangential part.
    """

    profile: Expr | str
    c: float
    zeta: np.ndarray
    p: float
    z: np.ndarray
    order: int

    def __post_init__(self):
        if isinstance(self.profile, str):
            self.profile = parse_expr(self.profile)
        self.zeta = np.asarray(self.zeta, dtype=float)
        self.z = np.asarray(self.z, dtype=float)
        if self.zeta.shape != (3,) or self.z.shape != (3,):
            raise ValueError("scenario lives in three dimensions")
        if abs(np.linalg.norm(self.zeta) - 1.0) > 1e-12:
            raise ValueError("zeta must be a unit vector")
        if abs(self.zeta[0]) < 1e-10:
            raise ValueError("zeta must have a nonzero normal component")
        if np.hypot(self.zeta[1], self.zeta[2]) < 1e-10:
            raise ValueError("zeta must have a nonzero tangential part")
        if not self.c > 0.0:
            raise ValueError("flux constant c must be positive")
        if not (self.p > 1.0 and self.p != 2.0):
            raise ValueError("p must lie in (1,2) or (2,inf)")
        if self.order < 3:
            raise ValueError("jet order must be at least 3")


@dataclass
class BoundaryJets:
    """Gauge-fixed boundary measurement package at the point z.

    ``a[(j, k)][m]`` is the tangential jet (variables = offsets along axes 1
    and 2) of the m-th normal derivative of the tensor entry A_jk, truncated
    at tangential order ``order - m``.  ``trace`` and ``flux`` are the
    tangential jets of u0 and of its conormal flux on the patch.
    """

    p: float
    order: int
    a: dict[tuple[int, int], list[Jet]]
    trace: Jet
    flux: Jet


def _linear_form_jet(coeffs: np.ndarray, const: float, nvars: int, order: int) -> Jet:
    out = jet_const(nvars, order, const)
    for i, ci in enumerate(coeffs):
        if ci != 0.0:
            out = out + ci * jet_variable(nvars, order, i)
    return out


def oracle_tilted_profile(sc: Scenario) -> tuple[Jet, Jet]:
    """Exact jets of (gamma, u0) at z for the tilted-profile family.

    gamma(x) = profile(zeta . x), u0(x) = G(zeta . x) with
    G' = (c / profile)^(1/(p-1)) and G(zeta . z) normalized to zeta . z, so
    the constant-profile case collapses to u0 = zeta . x.
    """
    n = sc.order
    s0 = float(sc.zeta @ sc.z)
    prof = eval_jet(sc.profile, (s0,), n)
    if prof.value <= 0.0:
        raise ValueError(f"profile must be positive at zeta . z, got {prof.value:g}")
    gprime = jet_pow(jet_div(jet_const(1, n, sc.c), prof), 1.0 / (sc.p - 1.0))
    # antiderivative with G(s0) = s0
    gcoeffs = np.zeros(n + 2)
    gcoeffs[0] = s0
    for k in range(1, n + 2):
        if k - 1 <= n:
            gcoeffs[k] = gprime.coeffs[(k - 1,)] / k
    g_jet = Jet(1, n + 1, gcoeffs)

    s3_n = _linear_form_jet(sc.zeta, s0, 3, n)
    s3_np1 = _linear_form_jet(sc.zeta, s0, 3, n + 1)
    gamma_jet = jet_compose1(prof, s3_n)
    u0_jet = jet_compose1(g_jet, s3_np1)
    return gamma_jet, u0_jet


def _flux_pieces(
    gamma_jet: Jet, u0_jet: Jet, p: float, window: tuple[int, int] | None = None
) -> tuple[list[Jet], Jet, Jet, Jet]:
    """Jets of grad u0, g0 * g0 with g0 = d u0/dx1, 1/w2 with
    w2 = |grad u0|^2, and gk = gamma |grad u0|^(p-2), on the coefficients
    of ``window`` (see :mod:`plap.jets`) if given."""
    grads = [jet_partial(u0_jet, a) for a in range(3)]
    g00 = jet_mul(grads[0], grads[0], window)
    w2 = g00 + jet_mul(grads[1], grads[1], window) + jet_mul(grads[2], grads[2], window)
    if w2.value <= 0.0:
        raise NormalGradientZero("grad u0 vanishes at z")
    gk = jet_mul(gamma_jet, jet_pow(w2, (p - 2.0) / 2.0, window), window)
    inv_w2 = jet_div(jet_const(w2.nvars, w2.order, 1.0), w2, window)
    return grads, g00, inv_w2, gk


def _entry(
    guv: Jet, inv_w2: Jet, gk: Jet, p: float, same: bool, window: tuple[int, int] | None = None
) -> Jet:
    """Jet of u . A v = gk (u . v + (p-2) (u . g)(v . g) / w2) for unit
    directions u, v that are equal (``same``) or orthogonal; ``guv`` is the
    product (u . g)(v . g) of the slopes, and ``inv_w2`` is 1/w2."""
    term = (p - 2.0) * jet_mul(guv, inv_w2, window)
    if same:
        term = term + 1.0
    return jet_mul(gk, term, window)


def _divergence_slice(
    grads: list[Jet], gk: Jet, k: int, window: tuple[int, int] | None = None
) -> Jet:
    """Normal slice k of div(gk grad u0), as ``extract_normal_slice`` of the
    divergence jet would give it, formed on that slice alone: d_a F_a
    multiplies each coefficient of F_a = gk g_a by its index along axis a
    plus one, and the three terms are added in axis order, as
    :func:`plap.jets.jet_partial` and jet addition do."""
    f = [jet_mul(gk, g, window).coeffs for g in grads]
    nt = gk.order - 1 - k
    t = np.arange(1, nt + 2)
    div = (
        f[0][k + 1, : nt + 1, : nt + 1] * (k + 1)
        + f[1][k, 1 : nt + 2, : nt + 1] * t[:, None]
        + f[2][k, : nt + 1, 1 : nt + 2] * t
    )
    return Jet(2, nt, div * math.factorial(k))


def _a_entries(gamma_jet: Jet, u0_jet: Jet, p: float) -> tuple[dict, Jet]:
    """Full jets of the tensor entries and the normal flux."""
    grads, g00, inv_w2, gk = _flux_pieces(gamma_jet, u0_jet, p)
    entries = {}
    for j in range(3):
        for k in range(j, 3):
            guv = g00 if j == k == 0 else grads[j] * grads[k]
            entries[(j, k)] = entries[(k, j)] = _entry(guv, inv_w2, gk, p, j == k)
    return entries, gk * grads[0]


def synthesize_measurements(gamma_jet: Jet, u0_jet: Jet, p: float) -> BoundaryJets:
    """Boundary measurement package from exact jets, in the trivial gauge."""
    n = gamma_jet.order
    if u0_jet.order != n + 1:
        raise ValueError("u0 jet must carry one order more than the gamma jet")
    entries, flux = _a_entries(gamma_jet, u0_jet, p)
    a: dict[tuple[int, int], list[Jet]] = {}
    for key, jet in entries.items():
        a[key] = [extract_normal_slice(jet, m) for m in range(n + 1)]
    return BoundaryJets(
        p=p,
        order=n,
        a=a,
        trace=extract_normal_slice(u0_jet, 0),
        flux=extract_normal_slice(flux, 0),
    )


# -- order 0 -----------------------------------------------------------------------


@dataclass
class Order0Result:
    gamma_z: float
    normal_slope: float       # d u0/dx1 at z
    grad_norm: float          # |grad u0| at z
    gamma_jet: Jet            # tangential jet of gamma on the patch
    slope_jet: Jet            # tangential jet of d u0/dx1 on the patch
    consistency: float        # | |grad'|^2 + slope^2 - |grad|^2 | over the patch jets


def recover_order0(bj: BoundaryJets, threshold: float = 1e-8) -> Order0Result:
    """Split gamma(z), the normal slope and the gradient norm out of the
    order-0 tensor block and the flux.

    Uses the tangential block contracted with the measured tangential slope:
    trace minus the slope-direction quadratic form isolates
    kappa = gamma |grad u0|^(p-2); the p-2 part then gives |grad u0|^2, and
    the flux divides out to the normal slope.  Everything is done in
    tangential-jet arithmetic so the result carries whole patch expansions.
    """
    n = bj.order
    g1 = jet_partial(bj.trace, 0)
    g2 = jet_partial(bj.trace, 1)
    g1 = jet_truncate(g1, n)
    g2 = jet_truncate(g2, n)
    gp2 = g1 * g1 + g2 * g2
    if gp2.value < threshold**2:
        raise TangentialDegenerate(
            f"|tangential grad u0(z)| = {math.sqrt(max(gp2.value, 0.0)):.3e} below threshold"
        )
    a11, a12, a22 = bj.a[(1, 1)][0], bj.a[(1, 2)][0], bj.a[(2, 2)][0]
    s = jet_div(g1 * (a11 * g1 + a12 * g2) + g2 * (a12 * g1 + a22 * g2), gp2)
    kappa = (a11 + a22) - s
    denom = s - kappa
    if abs(denom.value) < 1e-14 * max(1.0, abs(kappa.value)):
        raise RecoveryError("tensor block is isotropic; cannot separate the gradient norm")
    w2 = jet_div((bj.p - 2.0) * (gp2 * kappa), denom)
    slope = jet_div(bj.flux, kappa)
    gamma0 = kappa * jet_pow(w2, (2.0 - bj.p) / 2.0)
    cons = slope * slope + gp2 - w2
    return Order0Result(
        gamma_z=gamma0.value,
        normal_slope=slope.value,
        grad_norm=math.sqrt(w2.value),
        gamma_jet=gamma0,
        slope_jet=slope,
        consistency=float(np.max(np.abs(cons.coeffs))),
    )


# -- the 3x3 induction system -------------------------------------------------------


@dataclass
class ThetaSystem:
    matrix: np.ndarray
    rhs: np.ndarray
    order: int

    @property
    def cond(self) -> float:
        """2-norm condition number; inf for a non-finite matrix."""
        if not np.all(np.isfinite(self.matrix)):
            return math.inf
        return float(np.linalg.cond(self.matrix))


def _theta_rows(gamma, d, t, w2, p):
    """Rows (i)-(iii) of the induction system, columns (X, Y, Z), in closed form.

    ``gamma``, ``d`` and ``w2`` are gamma, d u0/dx1 and |grad u0|^2 at order
    0, and ``t`` is the slope of u0 along the direction of row (iii).  The
    arguments are all floats (point values at z) or all tangential jets (the
    whole patch); only ``+ - * / **`` touch them.  By the Leibniz rule the
    unknowns d1^m gamma and d1^(m+1) u0 enter the order-m rows multiplied by
    order-0 values alone, so the X and Y columns are the same at every order.
    The Z column is the order-0 gauge (A_00 and -tau . A tau).
    """
    r = d * d / w2
    rt = t * t / w2
    kp2 = w2 ** ((p - 2.0) / 2.0)
    kp4 = w2 ** ((p - 4.0) / 2.0)
    a, at = 1.0 + (p - 2.0) * r, 1.0 + (p - 2.0) * rt
    gk = gamma * kp2
    gdk = (p - 2.0) * gamma * d * kp4
    a00 = gk * a
    return (
        (d * kp2, a00, 0.0),
        (kp2 * a, gdk * (3.0 + (p - 4.0) * r), a00),
        (kp2 * at, gdk * (1.0 + (p - 4.0) * rt), -gk * at),
    )


def theta_matrix(gamma_z: float, grad_u0: np.ndarray, p: float, j: int = 2) -> np.ndarray:
    """The 3x3 coefficient matrix of the induction step at z (point values).

    ``grad_u0`` is the full gradient at z; ``j`` names the tangential axis
    of the third row, which the recovery reads in the direction with
    vanishing tangential slope (grad_u0[j] = 0).
    """
    grad_u0 = np.asarray(grad_u0, dtype=float)
    d = grad_u0[0]
    w2 = float(grad_u0 @ grad_u0)
    if abs(d) < 1e-14 or w2 <= 0.0:
        raise NormalGradientZero("theta matrix needs a nonzero normal slope")
    if j not in (1, 2):
        raise ValueError("j must name a tangential axis (1 or 2)")
    return np.array(_theta_rows(gamma_z, d, grad_u0[j], w2, p))


def _det3(rows):
    """Cofactor expansion of a 3x3 determinant along the first row, in a
    fixed arithmetic order; the entries may be floats or jets."""
    (m11, m12, m13), (m21, m22, m23), (m31, m32, m33) = rows
    return (
        m11 * (m22 * m33 - m23 * m32)
        - m12 * (m21 * m33 - m23 * m31)
        + m13 * (m21 * m32 - m22 * m31)
    )


def theta_det_direct(theta: np.ndarray) -> float:
    """The authoritative determinant of the induction system (:func:`_det3`)."""
    return float(_det3(np.asarray(theta, dtype=float)))


def theta_det_closed_form(gamma_z: float, grad_u0: np.ndarray, p: float) -> float:
    """Documented closed-form determinant expression, evaluated verbatim:

        gamma^2 |grad|^(3p-8) [ 2 |grad|^2 + (p-2) d^2 + p (p-2) d^4 / |grad|^2 ].

    Kept for the record: at gamma = 1, grad = e1, p = 3 it gives 6 while the
    cofactor expansion of the assembled matrix gives 4 (a row-reduction slip
    in the derivation of the closed form).  Both stay positive for all
    p in (1,2) or (2,inf) and 0 < d <= |grad|, which is the property the
    induction actually needs; the cofactor value is authoritative.
    """
    grad_u0 = np.asarray(grad_u0, dtype=float)
    d = grad_u0[0]
    w2 = float(grad_u0 @ grad_u0)
    lam = gamma_z**2 * w2 ** ((3.0 * p - 8.0) / 2.0)
    return float(lam * (2.0 * w2 + (p - 2.0) * d * d + p * (p - 2.0) * d**4 / w2))


@dataclass
class RecoveryState:
    p: float
    order: int
    gamma: Jet
    u0: Jet
    filled_order: int
    order0: Order0Result
    tangent: np.ndarray       # unit tau = (0, -t2, t1) / |(t1, t2)| of row (iii)
    columns: tuple            # rows (i)-(iii) of (X, Y, Z) coefficient jets, tangential order ``order - 1``
    inverse: tuple            # the inverse of ``columns`` over the same jets, row k giving unknown k
    conds: list[float] = field(default_factory=list)
    gauge_by_degree: list[list[float]] = field(default_factory=list)  # max |Z| per tangential degree
    theta_systems: list[ThetaSystem] = field(default_factory=list)

    @property
    def gauge_residuals(self) -> list[float]:
        """max |Z| over the tangential jet, per order."""
        return [max(by_degree) for by_degree in self.gauge_by_degree]


def _columns(gamma: Jet, u0: Jet, tangent: np.ndarray, bj: BoundaryJets):
    """The coefficient matrix of every induction order, from the order-0
    slices of the state and the measured order-0 gauge, as tangential jets
    of order ``gamma.order - 1`` (order 1's truncation; each later order
    truncates them further)."""
    nt = gamma.order - 1
    u0_face = extract_normal_slice(u0, 0, order=nt + 1)
    g1, g2 = jet_partial(u0_face, 0), jet_partial(u0_face, 1)
    d = extract_normal_slice(u0, 1, order=nt)
    t = float(tangent[1]) * g1 + float(tangent[2]) * g2
    w2 = d * d + g1 * g1 + g2 * g2
    rows = _theta_rows(extract_normal_slice(gamma, 0, order=nt), d, t, w2, bj.p)
    gauge = (
        jet_const(2, nt, 0.0),
        jet_truncate(bj.a[(0, 0)][0], nt),
        -_tangential_entry(bj, tangent, 0, nt),
    )
    return tuple((x, y, z) for (x, y, _), z in zip(rows, gauge))


def _inverse3(rows, det):
    """The inverse adj(M) / det of a 3x3 matrix of jets, with one reciprocal
    of its determinant ``det``."""
    (m11, m12, m13), (m21, m22, m23), (m31, m32, m33) = rows
    adj = (
        (m22 * m33 - m23 * m32, m13 * m32 - m12 * m33, m12 * m23 - m13 * m22),
        (m23 * m31 - m21 * m33, m11 * m33 - m13 * m31, m13 * m21 - m11 * m23),
        (m21 * m32 - m22 * m31, m12 * m31 - m11 * m32, m11 * m22 - m12 * m21),
    )
    inv_det = 1.0 / det
    return tuple(tuple(entry * inv_det for entry in row) for row in adj)


def _step_functional(state: RecoveryState, m: int):
    """The three order-m row functionals at the state as it stands, where the
    unknowns d1^m gamma and d1^(m+1) u0 are still zero: the known part of
    each row.

    The rows read the flux pieces at normal index m - 1 and m only, and at
    tangential degree at most n - m + 1 (the divergence differentiates once
    tangentially), so every product, quotient and power runs on the window
    (m, n - m + 1), and only the read slice of the divergence is formed."""
    if np.any(state.gamma.coeffs[m]) or np.any(state.u0.coeffs[m + 1]):
        raise RecoveryError(f"the order-{m} unknowns are already set in the state")
    p = state.p
    window = (m, state.order - m + 1)
    tau1, tau2 = float(state.tangent[1]), float(state.tangent[2])
    grads, g00, inv_w2, gk = _flux_pieces(state.gamma, state.u0, p, window)
    f1 = _divergence_slice(grads, gk, m - 1, window)
    f2 = extract_normal_slice(_entry(g00, inv_w2, gk, p, True, window), m)
    gt = tau1 * grads[1] + tau2 * grads[2]
    f3 = extract_normal_slice(_entry(jet_mul(gt, gt, window), inv_w2, gk, p, True, window), m)
    return f1, f2, f3


def _tangential_entry(bj: BoundaryJets, tau: np.ndarray, m: int, order: int) -> Jet:
    """Measured tangential jet of tau . A tau at normal order m, truncated."""
    t1, t2 = float(tau[1]), float(tau[2])
    a = bj.a
    jet = t1 * t1 * a[(1, 1)][m] + 2.0 * t1 * t2 * a[(1, 2)][m] + t2 * t2 * a[(2, 2)][m]
    return jet_truncate(jet, order)


def _order_rhs(state: RecoveryState, bj: BoundaryJets, m: int):
    """The right-hand sides of the order-m system (the measurements minus
    one forward evaluation of the rows at the state) and its scalar record,
    whose matrix is the constant terms of ``state.columns``."""
    if state.filled_order != m - 1:
        raise RecoveryError(
            f"state is filled to order {state.filled_order}, cannot run order {m}"
        )
    nt = state.order - m
    f0 = _step_functional(state, m)
    rhs = [
        -f0[0],
        jet_truncate(bj.a[(0, 0)][m], nt) - f0[1],
        _tangential_entry(bj, state.tangent, m, nt) - f0[2],
    ]
    theta = ThetaSystem(
        matrix=np.array([[c.value for c in row] for row in state.columns]),
        rhs=np.array([r.value for r in rhs]),
        order=m,
    )
    return rhs, theta


def extract_affine_coefficients(state: RecoveryState, bj: BoundaryJets, m: int):
    """Assemble the order-m system over the tangential-jet ring.

    The rows are ``state.columns`` truncated to this order (the X and Y
    columns of :func:`_theta_rows` and the measured order-0 gauge as Z), and
    the right-hand sides are the measurements minus one forward evaluation
    of the rows at the state.
    Returns (rows, rhs, theta) where rows[i] = (coefficient jets of X, Y, Z),
    rhs[i] is the measured-minus-known jet, and theta records the scalar
    (constant-term) system for reporting.
    """
    rhs, theta = _order_rhs(state, bj, m)
    nt = state.order - m
    rows = [tuple(jet_truncate(c, nt) for c in row) for row in state.columns]
    return rows, rhs, theta


@lru_cache(maxsize=None)
def _degree_groups(nvars: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices of a jet's coefficients sorted by total degree, and
    where each degree 0..order starts among them."""
    deg = np.indices((order + 1,) * nvars).sum(axis=0).ravel()
    perm = np.flatnonzero(deg <= order)
    perm = perm[np.argsort(deg[perm], kind="stable")]
    starts = np.searchsorted(deg[perm], np.arange(order + 1))
    for arr in (perm, starts):
        arr.setflags(write=False)  # shared by every caller
    return perm, starts


def recover_order_m(
    state: RecoveryState,
    bj: BoundaryJets,
    m: int,
    cond_limit: float = 1e8,
) -> RecoveryState:
    """One induction step: fill d1^m gamma and d1^(m+1) u0 at z.

    The solve happens over the tangential-jet ring, so the filled rows carry
    their mixed tangential coefficients: each unknown is the row of
    ``state.inverse`` for it, truncated to this order, times the right-hand
    sides.  Truncation commutes with products, so this is the inverse of the
    truncated system.  The matrix is the same at every order, so its
    condition number is computed at the first order and reused.
    """
    rhs, theta = _order_rhs(state, bj, m)
    cond = state.conds[0] if state.conds else theta.cond
    if cond > cond_limit:
        raise IllConditioned(m, cond, cond_limit)
    x, y, z = jet_matvec(state.inverse, rhs)
    state.gamma = set_normal_slice(state.gamma, m, x)
    state.u0 = set_normal_slice(state.u0, m + 1, y)
    state.filled_order = m
    state.conds.append(cond)
    perm, starts = _degree_groups(z.nvars, z.order)
    state.gauge_by_degree.append(
        np.maximum.reduceat(np.abs(z.coeffs.ravel()[perm]), starts).tolist()
    )
    state.theta_systems.append(theta)
    return state


def run_recovery(
    bj: BoundaryJets,
    max_order: int | None = None,
    cond_limit: float = 1e8,
) -> RecoveryState:
    """Full recovery pipeline in the measured frame: fix the tangential
    direction tau orthogonal to the slope of the trace at z, split order 0,
    invert the induction system once, and run the induction, whose third
    row reads tau . A tau.  A system whose determinant vanishes at z is
    ill-conditioned at every order.

    ``max_order`` defaults to ``bj.order - 2``, the deepest normal order of
    gamma the measurement package determines exactly.
    """
    n = bj.order
    if max_order is None:
        max_order = n - 2
    if max_order > n - 2:
        raise ValueError(f"max_order {max_order} exceeds recoverable depth {n - 2}")
    t1 = bj.trace.derivative((1, 0))
    t2 = bj.trace.derivative((0, 1))
    r = math.hypot(t1, t2)
    if r < 1e-12:
        raise TangentialDegenerate("tangential slope of the trace vanishes at z")
    o0 = recover_order0(bj)
    gamma = set_normal_slice(jet_const(3, n, 0.0), 0, o0.gamma_jet)
    u0 = set_normal_slice(jet_const(3, n + 1, 0.0), 0, bj.trace)
    u0 = set_normal_slice(u0, 1, o0.slope_jet)
    tangent = np.array([0.0, -t2 / r, t1 / r])
    columns = _columns(gamma, u0, tangent, bj)
    det = _det3(columns)
    if det.value == 0.0:
        raise IllConditioned(1, math.inf, cond_limit)
    state = RecoveryState(
        p=bj.p,
        order=n,
        gamma=gamma,
        u0=u0,
        filled_order=0,
        order0=o0,
        tangent=tangent,
        columns=columns,
        inverse=_inverse3(columns, det),
    )
    for m in range(1, max_order + 1):
        recover_order_m(state, bj, m, cond_limit=cond_limit)
    return state


def taylor_reconstruct(state: RecoveryState, depths) -> np.ndarray:
    """Partial Taylor sums of gamma at z - s e1 from the recovered normal jets."""
    depths = np.asarray(depths, dtype=float)
    if np.any(depths <= 0.0):
        raise ValueError("depths must be positive")
    out = np.zeros_like(depths)
    for m in range(state.filled_order + 1):
        cm = state.gamma.coefficient((m, 0, 0))
        out += cm * (-depths) ** m
    return out
