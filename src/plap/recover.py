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

Batches.  ``Scenario.p`` may be an array of p values.  The p values share
the profile, the tilt, the point and the jet order, so the whole pipeline
(oracle, synthesis, order 0 and every induction order) runs them in
lockstep: the jets of u0, of the measurements and of the state carry one
leading batch axis over p (see :mod:`plap.jets`), the profile's jets carry
none, and every per-p scalar (an exponent, a norm, a condition number) is
an array over the batch.  Each entry of a batched recovery equals its
one-p recovery bit for bit: the jet operations are bitwise per entry, and
the scalars that numpy would round differently (``**``, ``hypot``, the SVD
behind the condition number) are taken per entry as a one-p run takes
them.  A check that fails for any entry raises for the whole batch, so a
caller that needs the error of the first failing p reruns the p values one
at a time; :meth:`RecoveryState.scenario` gives one entry's record.

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
solving the truncated system because truncation commutes with products.
The recovery keeps one record of that system: its jets, their inverse and
the 2-norm condition number of its constant terms (the one SVD), taken
before any order runs and reported once for each order.  The known part of
each row is one forward jet evaluation per order at the state, where the
unknowns are still zero: only the three rows read are formed (the flux
divergence and the entries A_00 and tau . A tau).  Order m reads those rows
at normal index m - 1 and m only, and normal slice k of every flux piece
depends on the state's slices up to k alone, so the state keeps each
piece's jet and order m extends it by its slices m - 1 and m (relaxed
series evaluation, van der Hoeven, J. Symbolic Comput. 34, 2002): each
slice is finalised once, at the order after it is formed, and the rows come
out bit for bit those of whole jets.  Solving over the ring fills the mixed
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

import numpy as np

from .jets import (
    Expr,
    Jet,
    _multi_indices,
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
    "Order0Result",
    "RecoveryState",
    "oracle_tilted_profile",
    "synthesize_measurements",
    "recover_order0",
    "theta_matrix",
    "theta_det_direct",
    "theta_det_closed_form",
    "recover_order_m",
    "run_recovery",
    "taylor_reconstruct",
]


# recover_order0 refuses a tangential slope of the trace below this at z, and
# run_recovery an order system whose condition number exceeds _COND_LIMIT
_TANGENTIAL_MIN = 1e-8
_COND_LIMIT = 1e8


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
    component (zeta[0]) and a nonzero tangential part.  ``p`` is a float, or
    a 1-D array of p values for a batch (see the module docstring).
    """

    profile: Expr | str
    c: float
    zeta: np.ndarray
    p: float | np.ndarray
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
        if not np.all((self.p > 1.0) & (self.p != 2.0)):
            raise ValueError("p must lie in (1,2) or (2,inf)")
        if self.order < 3:
            raise ValueError("jet order must be at least 3")


@dataclass
class BoundaryJets:
    """Gauge-fixed boundary measurement package at the point z.

    ``a[(j, k)][m]`` is the tangential jet (variables = offsets along axes 1
    and 2) of the m-th normal derivative of the tensor entry A_jk, truncated
    at tangential order ``order - m``.  ``trace`` and ``flux`` are the
    tangential jets of u0 and of its conormal flux on the patch.  For an
    array ``p`` the jets carry its batch axis.
    """

    p: float | np.ndarray
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
    the constant-profile case collapses to u0 = zeta . x.  gamma does not
    depend on p: for an array ``sc.p`` it is one jet without batch axes, and
    u0 carries the batch axis over p.
    """
    n = sc.order
    s0 = float(sc.zeta @ sc.z)
    prof = eval_jet(sc.profile, (s0,), n)
    if prof.value <= 0.0:
        raise ValueError(f"profile must be positive at zeta . z, got {prof.value:g}")
    gprime = jet_pow(jet_div(jet_const(1, n, sc.c), prof), 1.0 / (sc.p - 1.0))
    # antiderivative with G(s0) = s0
    gcoeffs = np.zeros(gprime.batch + (n + 2,))
    gcoeffs[..., 0] = s0
    gcoeffs[..., 1:] = gprime.coeffs / np.arange(1, n + 2)
    g_jet = Jet(1, n + 1, gcoeffs)

    s3_np1 = _linear_form_jet(sc.zeta, s0, 3, n + 1)
    s3_n = jet_truncate(s3_np1, n)
    gamma_jet = jet_compose1(prof, s3_n)
    u0_jet = jet_compose1(g_jet, s3_np1)
    return gamma_jet, u0_jet


def _whole(name: str, op, *args) -> Jet:
    """Run a jet operation on whole jets (see :func:`_extend`)."""
    return op(*args)


def _extend(jets: dict[str, Jet], lo: int, hi: int):
    """A runner of jet operations on the normal slices lo..hi (see
    :mod:`plap.jets`): each keeps its result in ``jets`` under its name and
    reads its slices below lo from the result kept there before."""

    def run(name: str, op, *args) -> Jet:
        jets[name] = op(*args, slices=(lo, hi, jets.get(name)))
        return jets[name]

    return run


def _flux_pieces(gamma_jet: Jet, u0_jet: Jet, p: float, run=_whole) -> tuple[list[Jet], Jet, Jet, Jet]:
    """Jets of grad u0, g0 * g0 with g0 = d u0/dx1, 1/w2 with
    w2 = |grad u0|^2, and gk = gamma |grad u0|^(p-2), every product,
    quotient and power run by ``run``."""
    grads = [jet_partial(u0_jet, a) for a in range(3)]
    g00 = run("g0 g0", jet_mul, grads[0], grads[0])
    w2 = g00 + run("g1 g1", jet_mul, grads[1], grads[1]) + run("g2 g2", jet_mul, grads[2], grads[2])
    if any(v <= 0.0 for v in _floats(w2.value)):
        raise NormalGradientZero("grad u0 vanishes at z")
    gk = run("gk", jet_mul, gamma_jet, run("w2^((p-2)/2)", jet_pow, w2, (p - 2.0) / 2.0))
    inv_w2 = run("1/w2", jet_div, jet_const(w2.nvars, w2.order, 1.0), w2)
    return grads, g00, inv_w2, gk


def _entry(guv: Jet, inv_w2: Jet, gk: Jet, p: float, same: bool, run=_whole, name: str = "") -> Jet:
    """Jet of u . A v = gk (u . v + (p-2) (u . g)(v . g) / w2) for unit
    directions u, v that are equal (``same``) or orthogonal; ``guv`` is the
    product (u . g)(v . g) of the slopes, and ``inv_w2`` is 1/w2.  ``run``
    runs the two products, under ``name``."""
    term = (p - 2.0) * run(name + " / w2", jet_mul, guv, inv_w2)
    if same:
        term = term + 1.0
    return run(name, jet_mul, gk, term)


def _divergence_slice(grads: list[Jet], gk: Jet, k: int, run) -> Jet:
    """Normal slice k of div(gk grad u0), as ``extract_normal_slice`` of the
    divergence jet would give it, formed on that slice alone: d_a F_a
    multiplies each coefficient of F_a = gk g_a (run by ``run``) by its
    index along axis a plus one, and the three terms are added in axis
    order, as :func:`plap.jets.jet_partial` and jet addition do."""
    f = [run(f"gk g{a}", jet_mul, gk, g).coeffs for a, g in enumerate(grads)]
    nt = gk.order - 1 - k
    t = np.arange(1, nt + 2)
    div = (
        f[0][..., k + 1, : nt + 1, : nt + 1] * (k + 1)
        + f[1][..., k, 1 : nt + 2, : nt + 1] * t[:, None]
        + f[2][..., k, : nt + 1, 1 : nt + 2] * t
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
    for (j, k), jet in entries.items():  # A is symmetric: (k, j) shares the slices of (j, k)
        a[(j, k)] = a.get((k, j)) or [extract_normal_slice(jet, m) for m in range(n + 1)]
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
    """The order-0 split; for a batch, each float is an array over it."""

    gamma_z: float
    normal_slope: float       # d u0/dx1 at z
    grad_norm: float          # |grad u0| at z
    gamma_jet: Jet            # tangential jet of gamma on the patch
    slope_jet: Jet            # tangential jet of d u0/dx1 on the patch
    consistency: float        # | |grad'|^2 + slope^2 - |grad|^2 | over the patch jets


def recover_order0(bj: BoundaryJets) -> Order0Result:
    """Split gamma(z), the normal slope and the gradient norm out of the
    order-0 tensor block and the flux.

    Uses the tangential block contracted with the measured tangential slope:
    trace minus the slope-direction quadratic form isolates
    kappa = gamma |grad u0|^(p-2); the p-2 part then gives |grad u0|^2, and
    the flux divides out to the normal slope.  Everything is done in
    tangential-jet arithmetic so the result carries whole patch expansions.
    Raises :class:`TangentialDegenerate` when the tangential slope at z is
    below 1e-8.
    """
    n = bj.order
    g1 = jet_partial(bj.trace, 0)
    g2 = jet_partial(bj.trace, 1)
    g1 = jet_truncate(g1, n)
    g2 = jet_truncate(g2, n)
    gp2 = g1 * g1 + g2 * g2
    for v in _floats(gp2.value):
        if v < _TANGENTIAL_MIN**2:
            raise TangentialDegenerate(
                f"|tangential grad u0(z)| = {math.sqrt(max(v, 0.0)):.3e} below threshold"
            )
    a11, a12, a22 = bj.a[(1, 1)][0], bj.a[(1, 2)][0], bj.a[(2, 2)][0]
    s = jet_div(g1 * (a11 * g1 + a12 * g2) + g2 * (a12 * g1 + a22 * g2), gp2)
    kappa = (a11 + a22) - s
    denom = s - kappa
    if any(abs(d) < 1e-14 * max(1.0, abs(k)) for d, k in zip(_floats(denom.value), _floats(kappa.value))):
        raise RecoveryError("tensor block is isotropic; cannot separate the gradient norm")
    w2 = jet_div((bj.p - 2.0) * (gp2 * kappa), denom)
    slope = jet_div(bj.flux, kappa)
    gamma0 = kappa * jet_pow(w2, (2.0 - bj.p) / 2.0)
    cons = slope * slope + gp2 - w2
    return Order0Result(
        gamma_z=gamma0.value,
        normal_slope=slope.value,
        grad_norm=_per_entry(math.sqrt, w2.value),
        gamma_jet=gamma0,
        slope_jet=slope,
        consistency=_scalar(np.max(np.abs(cons.coeffs), axis=(-2, -1))),
    )


def _floats(x) -> list[float]:
    """A one-p float, or each entry of a batch array, as Python floats."""
    return x.ravel().tolist() if isinstance(x, np.ndarray) else [x]


def _scalar(x):
    """A 0-d array as the one-p float it holds; a batch array as it is."""
    return float(x) if x.ndim == 0 else x


def _per_entry(fn, *args):
    """``fn`` of Python floats, once per batch entry.  The arguments are all
    one-p floats or all arrays over the batch, and so is the result: a
    one-p run takes these scalars with ``math``, whose results numpy's
    vectorized functions need not match bit for bit."""
    if not isinstance(args[0], np.ndarray):
        return fn(*args)
    return np.array([fn(*entry) for entry in zip(*map(_floats, args))])


# -- the 3x3 induction system -------------------------------------------------------


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


def theta_matrix(gamma_z: float, grad_u0: np.ndarray, p: float) -> np.ndarray:
    """The 3x3 coefficient matrix of the induction step at z (point values).

    ``grad_u0`` is the full gradient at z; the third row reads the
    tangential axis 2, the direction with vanishing tangential slope
    (grad_u0[2] = 0) when the slope lies along axis 1.
    """
    grad_u0 = np.asarray(grad_u0, dtype=float)
    d = grad_u0[0]
    w2 = float(grad_u0 @ grad_u0)
    if abs(d) < 1e-14 or w2 <= 0.0:
        raise NormalGradientZero("theta matrix needs a nonzero normal slope")
    return np.array(_theta_rows(gamma_z, d, grad_u0[2], w2, p))


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
    """The record of a recovery; for a batch, each per-p float is an array
    over it (``tangent`` gets the batch axis first), and each order's
    ``gauge_by_degree`` entry holds one list per p."""

    p: float
    order: int
    gamma: Jet
    u0: Jet
    filled_order: int
    order0: Order0Result
    tangent: np.ndarray       # unit tau = (0, -t2, t1) / |(t1, t2)| of row (iii)
    columns: tuple            # rows (i)-(iii) of (X, Y, Z) coefficient jets, tangential order ``order - 1``
    inverse: tuple            # the inverse of ``columns`` over the same jets, row k giving unknown k
    cond: float               # 2-norm condition number of the constant terms of ``columns``
    conds: list[float] = field(default_factory=list)  # ``cond`` (the batch's largest) once per order run
    gauge_by_degree: list[list[float]] = field(default_factory=list)  # max |Z| per tangential degree
    # the forward rows' products, quotient and power by name, normal slices below ``filled_order`` final
    intermediates: dict[str, Jet] = field(default_factory=dict)

    @property
    def gauge_residuals(self) -> list[float]:
        """max |Z| over the tangential jet, per order (of a one-p state)."""
        return [max(by_degree) for by_degree in self.gauge_by_degree]

    def scenario(self, k: int) -> RecoveryState:
        """The record of entry k of a batched recovery, equal to the one-p
        recovery of that p; a one-p record is its own only entry."""
        if np.ndim(self.p) == 0:
            return self
        o0 = self.order0
        cond = float(self.cond[k])
        return RecoveryState(
            p=float(self.p[k]),
            order=self.order,
            gamma=self.gamma.take(k),
            u0=self.u0.take(k),
            filled_order=self.filled_order,
            order0=Order0Result(
                *(float(getattr(o0, f)[k]) for f in ("gamma_z", "normal_slope", "grad_norm")),
                gamma_jet=o0.gamma_jet.take(k),
                slope_jet=o0.slope_jet.take(k),
                consistency=float(o0.consistency[k]),
            ),
            tangent=self.tangent[k],
            columns=tuple(tuple(c.take(k) for c in row) for row in self.columns),
            inverse=tuple(tuple(c.take(k) for c in row) for row in self.inverse),
            cond=cond,
            conds=[cond] * len(self.conds),
            gauge_by_degree=[by_degree[k] for by_degree in self.gauge_by_degree],
            intermediates={name: jet.take(k) for name, jet in self.intermediates.items()},
        )


def _columns(gamma: Jet, u0: Jet, tangent: np.ndarray, bj: BoundaryJets):
    """The coefficient matrix of every induction order, from the order-0
    slices of the state and the measured order-0 gauge, as tangential jets
    of order ``gamma.order - 1`` (order 1's truncation; each later order
    truncates them further)."""
    nt = gamma.order - 1
    u0_face = extract_normal_slice(u0, 0, order=nt + 1)
    g1, g2 = jet_partial(u0_face, 0), jet_partial(u0_face, 1)
    d = extract_normal_slice(u0, 1, order=nt)
    t = _scalar(tangent[..., 1]) * g1 + _scalar(tangent[..., 2]) * g2
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

    The rows read the flux pieces at normal index m - 1 and m only, and
    slice k of every piece reads the state's slices up to k alone.  So every
    product, quotient and power extends its jet in ``state.intermediates``
    by the slices m - 1 and m: slice m - 1 is finalised with the order-(m - 1)
    unknowns in place, slice m formed with the order-m unknowns zero, and the
    slices below are the earlier orders' (see :mod:`plap.jets`).  Only the
    read slice of the divergence is formed."""
    if np.any(state.gamma.coeffs[..., m, :, :]) or np.any(state.u0.coeffs[..., m + 1, :, :]):
        raise RecoveryError(f"the order-{m} unknowns are already set in the state")
    p = state.p
    run = _extend(state.intermediates, m - 1, m)
    tau1, tau2 = _scalar(state.tangent[..., 1]), _scalar(state.tangent[..., 2])
    grads, g00, inv_w2, gk = _flux_pieces(state.gamma, state.u0, p, run)
    f1 = _divergence_slice(grads, gk, m - 1, run)
    f2 = extract_normal_slice(_entry(g00, inv_w2, gk, p, True, run, "A00"), m)
    gt = tau1 * grads[1] + tau2 * grads[2]
    f3 = extract_normal_slice(_entry(run("gt gt", jet_mul, gt, gt), inv_w2, gk, p, True, run, "Att"), m)
    return f1, f2, f3


def _tangential_entry(bj: BoundaryJets, tau: np.ndarray, m: int, order: int) -> Jet:
    """Measured tangential jet of tau . A tau at normal order m, truncated."""
    t1, t2 = _scalar(tau[..., 1]), _scalar(tau[..., 2])
    a = bj.a
    jet = t1 * t1 * a[(1, 1)][m] + 2.0 * t1 * t2 * a[(1, 2)][m] + t2 * t2 * a[(2, 2)][m]
    return jet_truncate(jet, order)


def recover_order_m(state: RecoveryState, bj: BoundaryJets, m: int) -> RecoveryState:
    """One induction step: fill d1^m gamma and d1^(m+1) u0 at z.

    The right-hand sides are the measurements minus one forward evaluation
    of the rows at the state.  The solve happens over the tangential-jet
    ring, so the filled rows carry their mixed tangential coefficients: each
    unknown is the row of ``state.inverse`` for it, truncated to this order,
    times the right-hand sides.  Truncation commutes with products, so this
    is the inverse of the truncated system.  The matrix is the same at every
    order, so the order records the recovery's one condition number,
    ``state.cond`` (a batch's largest), in ``state.conds``.
    """
    if state.filled_order != m - 1:
        raise RecoveryError(
            f"state is filled to order {state.filled_order}, cannot run order {m}"
        )
    nt = state.order - m
    f1, f2, f3 = _step_functional(state, m)
    rhs = (
        -f1,
        jet_truncate(bj.a[(0, 0)][m], nt) - f2,
        _tangential_entry(bj, state.tangent, m, nt) - f3,
    )
    x, y, z = jet_matvec(state.inverse, rhs)
    state.gamma = set_normal_slice(state.gamma, m, x)
    state.u0 = set_normal_slice(state.u0, m + 1, y)
    state.filled_order = m
    state.conds.append(max(_floats(state.cond)))
    # z's coefficients in graded order, and where each degree starts among them
    _, deg, graded = _multi_indices(z.nvars, z.order)
    starts = np.searchsorted(deg[graded], np.arange(z.order + 1))
    zc = z.coeffs.reshape(z.batch + (-1,))[..., graded]
    state.gauge_by_degree.append(np.maximum.reduceat(np.abs(zc), starts, axis=-1).tolist())
    return state


def run_recovery(bj: BoundaryJets, max_order: int | None = None) -> RecoveryState:
    """Full recovery pipeline in the measured frame: split order 0 (which
    checks the tangential slope of the trace at z), fix the tangential
    direction tau orthogonal to that slope, form the induction system and
    invert it once, and run the induction, whose third row reads
    tau . A tau.  The system is the same at every order, so its 2-norm
    condition number at z is taken once (inf for a vanishing determinant or
    a non-finite matrix); above 1e8 the recovery raises
    :class:`IllConditioned` at order 1, before any order runs.  A batch
    takes one condition number per p, and raises if any exceeds the limit.

    ``max_order`` defaults to ``bj.order - 2``, the deepest normal order of
    gamma the measurement package determines exactly.
    """
    n = bj.order
    if max_order is None:
        max_order = n - 2
    if max_order > n - 2:
        raise ValueError(f"max_order {max_order} exceeds recoverable depth {n - 2}")
    o0 = recover_order0(bj)
    t1 = bj.trace.derivative((1, 0))
    t2 = bj.trace.derivative((0, 1))
    r = _per_entry(math.hypot, t1, t2)
    gamma = set_normal_slice(jet_const(3, n, 0.0), 0, o0.gamma_jet)
    u0 = set_normal_slice(jet_const(3, n + 1, 0.0), 0, bj.trace)
    u0 = set_normal_slice(u0, 1, o0.slope_jet)
    tangent = np.zeros(np.shape(r) + (3,))
    tangent[..., 1], tangent[..., 2] = -t2 / r, t1 / r
    columns = _columns(gamma, u0, tangent, bj)
    det = _det3(columns)
    matrix = np.empty(det.batch + (3, 3))
    for i, row in enumerate(columns):
        for j, c in enumerate(row):
            matrix[..., i, j] = c.value
    conds = [
        math.inf if d == 0.0 or not np.all(np.isfinite(entry)) else float(np.linalg.cond(entry))
        for d, entry in zip(_floats(det.value), matrix.reshape(-1, 3, 3))
    ]
    cond = np.array(conds).reshape(det.batch) if det.batch else conds[0]
    for c in conds:
        if c > _COND_LIMIT:
            raise IllConditioned(1, c, _COND_LIMIT)
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
        cond=cond,
    )
    for m in range(1, max_order + 1):
        recover_order_m(state, bj, m)
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
