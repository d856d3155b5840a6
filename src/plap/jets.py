"""Truncated multivariate Taylor (jet) arithmetic and a small expression language.

A jet stores the Taylor coefficients c[alpha] = d^alpha f / alpha! of a smooth
function at a point, for all multi-indices with total degree |alpha| <= order.
Coefficients are held densely in an (order+1)^nvars hypercube; entries above
the truncation degree are kept at zero, so slicing and differentiation need
no mask, and arithmetic never reads them, so it is closed at the stated
order.  The Taylor normalization keeps high-order arithmetic overflow-free.
Products and quotients read one cached table per (nvars, order) of the flat
index triples (a, b, a + b) with |a| + |b| <= order: a product is one
``np.bincount`` over it, a quotient one ``np.add.at`` per degree level.
Each coefficient adds its terms in the same fixed order as a loop over
multi-indices would.  :func:`jet_matvec` forms all the products of a matrix
and a vector of jets in one gather and one ``np.bincount``, each product
into bins of its own, so each product is bitwise the one of :func:`jet_mul`.

A caller that reads only some coefficients can pass a window (K, T) to
:func:`jet_mul`, :func:`jet_div` and :func:`jet_pow`: the coefficients alpha
with |alpha| <= order, alpha_0 <= K and alpha_1 + ... + alpha_{nvars-1} <= T
(the normal index and the tangential degree when x1 is the normal
variable).  The window is downward closed, so every term of a coefficient
inside it reads only coefficients inside it.  A windowed operation keeps
the triples of its table whose target lies in the window, in their order,
so each kept coefficient sums the same terms in the same order as the full
operation and is bitwise equal to it; the coefficients outside the window
come out zero.  Integer powers square through windowed products.  The
filtered tables are built on first use and kept in a bounded cache per
(nvars, order, window).

Powers with real exponents and the unary functions sin, cos, exp, log, sqrt
are graded recurrences on the same levels as division.  Applying the Euler
operator E = sum_i x_i d/dx_i, which multiplies a degree-d coefficient by d,
to c = f(g) gives a linear relation between E c and E g (b E c = e c E b for
c = b^e, E c = c E g for exp, g E c = E g for log, and the coupled pair
E sin g = cos g E g, E cos g = -sin g E g), which fixes each degree-d
coefficient of c from those of lower degree (Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 13).  log, sqrt, and
non-integer powers need a positive constant term.  Division is graded long
division and needs a nonzero one.  Integer powers use exact repeated
squaring and work for any base.  A univariate jet composed with a linear
inner form is the multinomial closed form of :func:`jet_compose1`.

The expression language is the carrier for analytic weights.  Grammar
(ASCII, whitespace insensitive)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' factor)?
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')' | '-' atom
    IDENT  := x1 | x2 | x3 | sin | cos | exp | log | sqrt

``^`` is right associative and its exponent subexpression must be constant
(no variables).  Note that under this grammar a leading minus binds before
``^``: ``-x1^2`` parses as ``(-x1)^2``.

One fold walks an expression, over three algebras: floats with real-domain
checks (:func:`eval_point`), numpy arrays (:func:`eval_numpy`) and jets
(:func:`eval_on_jets`).  ``+ - * /`` and negation are the values' own
operators; the :class:`Jet` operators are the one implementation of jet
addition, subtraction and scaling.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Jet",
    "JetError",
    "JetDomainError",
    "DivisionByZeroConstantTerm",
    "jet_const",
    "jet_variable",
    "jet_mul",
    "jet_matvec",
    "jet_div",
    "jet_pow",
    "jet_unary",
    "jet_partial",
    "jet_truncate",
    "extract_normal_slice",
    "set_normal_slice",
    "jet_compose1",
    "Expr",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "ParseError",
    "parse_expr",
    "eval_point",
    "eval_numpy",
    "eval_on_jets",
    "eval_jet",
    "free_variables",
]


class JetError(Exception):
    pass


class JetDomainError(JetError):
    """log/sqrt/pow asked for outside their real domain at the expansion point."""


class DivisionByZeroConstantTerm(JetError):
    pass


@lru_cache(maxsize=None)
def _degree_mask(nvars: int, order: int) -> np.ndarray:
    grids = np.indices((order + 1,) * nvars)
    return grids.sum(axis=0) <= order


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Lock cached index arrays, which every caller shares."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _window_mask(nvars: int, order: int, window: tuple[int, int] | None) -> np.ndarray:
    """Flat hypercube mask of the coefficients an operation computes: total
    degree at most ``order`` and, with a window (K, T), normal index alpha_0
    at most K and tangential degree |alpha| - alpha_0 at most T."""
    grids = np.indices((order + 1,) * nvars).reshape(nvars, -1)
    deg = grids.sum(axis=0)
    keep = deg <= order
    if window is not None:
        k, t = window
        keep &= (grids[0] <= k) & (deg - grids[0] <= t)
    return keep


@lru_cache(maxsize=256)
def _product_table(
    nvars: int, order: int, window: tuple[int, int] | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat hypercube indices (ia, ib, tgt) of every pair of multi-indices
    a, b with |a| + |b| <= order, and tgt the index of a + b.

    The triples run over a in graded order (total degree, then lexicographic),
    so each target receives its terms in the order of a graded loop over a.
    There are C(order + 2 nvars, 2 nvars) of them.  With a window, only the
    triples whose target lies in it are kept, in the same order.
    """
    if window is not None:
        ia, ib, tgt = _product_table(nvars, order)
        keep = _window_mask(nvars, order, window)[tgt]
        return _read_only(ia[keep], ib[keep], tgt[keep])
    idx = np.argwhere(_degree_mask(nvars, order))  # lexicographic
    idx = idx[np.argsort(idx.sum(axis=1), kind="stable")]
    deg = idx.sum(axis=1)
    strides = (order + 1) ** np.arange(nvars - 1, -1, -1)
    ia, ib = np.nonzero(deg[:, None] + deg[None, :] <= order)
    return _read_only(idx[ia] @ strides, idx[ib] @ strides, (idx[ia] + idx[ib]) @ strides)


@lru_cache(maxsize=None)
def _monomials(nvars: int, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per flat hypercube index: the exponents alpha (one row each), the total
    degree |alpha| capped at ``order``, and the multinomial coefficient
    |alpha|! / alpha! (0 above the truncation degree)."""
    idx = np.indices((order + 1,) * nvars).reshape(nvars, -1).T
    deg = idx.sum(axis=1)
    multinomial = np.zeros(deg.size)
    for k in np.flatnonzero(deg <= order):
        count = math.factorial(int(deg[k]))
        for a in idx[k]:
            count //= math.factorial(int(a))
        multinomial[k] = count
    return _read_only(idx, np.minimum(deg, order), multinomial)


@lru_cache(maxsize=256)
def _division_levels(nvars: int, order: int, window: tuple[int, int] | None = None):
    """The part of :func:`_product_table` that graded division and the
    graded recurrences read: the triples (a, b, a + b) with |b| > 0, grouped
    by the total degree d = |a + b| into levels.

    Returns (levels, ib, nb, nd).  Over all the triples, level by level,
    ``ib`` is the flat index of b, ``nb`` = |b| and ``nd`` = d as floats, so
    a recurrence forms its per-triple weights in one pass.  ``levels[d]`` is
    (targets, ia, pos, sl): the flat indices of the degree-d coefficients,
    and over the level's triples (the slice ``sl`` of the arrays above) the
    flat index of a and the position of a + b among the targets.  With a
    window, only its targets and the triples into them are kept, and pos
    numbers the kept targets.

    A level's triples run over b in lexicographic order, so each target
    sums its terms in the order of a loop over b.
    """
    ia, ib, tgt = _product_table(nvars, order)
    deg = np.indices((order + 1,) * nvars).sum(axis=0).ravel()
    inside = _window_mask(nvars, order, window)
    pos = np.zeros(deg.size, dtype=np.intp)
    level_targets, sels = [], []
    for d in range(order + 1):
        targets = np.flatnonzero((deg == d) & inside)
        pos[targets] = np.arange(targets.size)
        sel = np.flatnonzero((deg[tgt] == d) & (deg[ib] > 0) & inside[tgt])
        level_targets.append(targets)
        sels.append(sel[np.argsort(ib[sel], kind="stable")])
    sel = np.concatenate(sels)
    ia_all, pos_all = _read_only(ia[sel], pos[tgt[sel]])
    bounds = np.cumsum([0] + [s.size for s in sels])
    levels = tuple(
        (*_read_only(targets), ia_all[lo:hi], pos_all[lo:hi], slice(lo, hi))
        for targets, lo, hi in zip(level_targets, bounds[:-1], bounds[1:])
    )
    return (levels, *_read_only(ib[sel], deg[ib[sel]].astype(float), deg[tgt[sel]].astype(float)))


class Jet:
    """Truncated Taylor expansion; ``coeffs[alpha] = d^alpha f / alpha!``."""

    __slots__ = ("nvars", "order", "coeffs")

    def __init__(self, nvars: int, order: int, coeffs: np.ndarray):
        if coeffs.shape != (order + 1,) * nvars:
            raise ValueError(f"coefficient array must have shape {(order + 1,) * nvars}")
        self.nvars = nvars
        self.order = order
        self.coeffs = coeffs

    def __repr__(self):
        return f"Jet(nvars={self.nvars}, order={self.order}, coeffs={self.coeffs!r})"

    @property
    def value(self) -> float:
        """Constant term (evaluation at the expansion point)."""
        return float(self.coeffs[(0,) * self.nvars])

    def derivative(self, alpha: tuple[int, ...]) -> float:
        """d^alpha f at the expansion point (de-normalized coefficient)."""
        if len(alpha) != self.nvars or sum(alpha) > self.order:
            raise ValueError(f"multi-index {alpha} out of range")
        fact = 1.0
        for a in alpha:
            fact *= math.factorial(a)
        return float(self.coeffs[tuple(alpha)]) * fact

    def coefficient(self, alpha: tuple[int, ...]) -> float:
        return float(self.coeffs[tuple(alpha)])

    def __add__(self, other):
        if not (isinstance(other, Jet) and other.nvars == self.nvars and other.order == self.order):
            other = _coerce(other, self)
        return Jet(self.nvars, self.order, self.coeffs + other.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other, self)
        return Jet(self.nvars, self.order, self.coeffs - other.coeffs)

    def __rsub__(self, other):
        return _coerce(other, self) - self

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Jet(self.nvars, self.order, self.coeffs * float(other))
        return jet_mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return self * (1.0 / float(other))
        return jet_div(self, other)

    def __rtruediv__(self, other):
        return jet_div(_coerce(other, self), self)

    def __pow__(self, exponent):
        return jet_pow(self, float(exponent))

    def __neg__(self):
        return self * -1.0


def _coerce(x, like: Jet) -> Jet:
    """``x`` as a jet of the same shape as ``like``: a number is lifted, a jet checked."""
    if isinstance(x, Jet):
        _check_compatible(like, x)
        return x
    return jet_const(like.nvars, like.order, float(x))


def _check_compatible(a: Jet, b: Jet):
    if a.nvars != b.nvars or a.order != b.order:
        raise ValueError(
            f"jet mismatch: ({a.nvars} vars, order {a.order}) vs ({b.nvars} vars, order {b.order})"
        )


def jet_const(nvars: int, order: int, value: float) -> Jet:
    c = np.zeros((order + 1,) * nvars)
    c[(0,) * nvars] = value
    return Jet(nvars, order, c)


def jet_variable(nvars: int, order: int, axis: int, base: float = 0.0) -> Jet:
    """The jet of ``x_axis`` expanded at ``base`` (value base, unit slope)."""
    c = np.zeros((order + 1,) * nvars)
    c[(0,) * nvars] = base
    if order >= 1:
        e = [0] * nvars
        e[axis] = 1
        c[tuple(e)] = 1.0
    return Jet(nvars, order, c)


def jet_mul(a: Jet, b: Jet, window: tuple[int, int] | None = None) -> Jet:
    """Truncated Cauchy product, on the coefficients of ``window`` if given."""
    _check_compatible(a, b)
    n, order = a.nvars, a.order
    ia, ib, tgt = _product_table(n, order, window)
    terms = a.coeffs.ravel()[ia] * b.coeffs.ravel()[ib]
    out = np.bincount(tgt, weights=terms, minlength=a.coeffs.size)
    return Jet(n, order, out.reshape(a.coeffs.shape))


def jet_matvec(rows, vec) -> list[Jet]:
    """The jets sum_i rows[k][i] * vec[i], one per row, each entry of ``rows``
    first truncated to the order of the jets in ``vec``.

    All the products are one gather and one ``np.bincount`` over
    :func:`_product_table`, each product into bins of its own, and each row
    adds its products left to right, so every result is bit for bit
    ``jet_truncate(rows[k][0], order) * vec[0] + jet_truncate(rows[k][1], order) * vec[1] + ...``.
    """
    n, order = vec[0].nvars, vec[0].order
    for x in vec:
        _check_compatible(vec[0], x)
    if any(w.nvars != n or w.order < order for row in rows for w in row):
        raise ValueError("matrix jets must have the vector's variables and at least its order")
    ia, ib, tgt = _product_table(n, order)
    size, shape = (order + 1) ** n, (order + 1,) * n
    sl = (slice(0, order + 1),) * n
    mat = np.array([[w.coeffs[sl] for w in row] for row in rows]) * _degree_mask(n, order)
    mat = mat.reshape(len(rows), len(vec), size)
    terms = mat[:, :, ia] * np.array([x.coeffs.ravel() for x in vec])[:, ib]
    bins = tgt + size * np.arange(mat.shape[0] * mat.shape[1])[:, None]
    prods = np.bincount(bins.ravel(), terms.ravel(), bins.shape[0] * size)
    out = []
    for row in prods.reshape(mat.shape):
        acc = row[0]
        for p in row[1:]:
            acc = acc + p
        out.append(Jet(n, order, acc.reshape(shape)))
    return out


def jet_div(a: Jet, b: Jet, window: tuple[int, int] | None = None) -> Jet:
    """Graded long division; the denominator needs a nonzero constant term.

    Solves out * b = a one total degree at a time: each degree-d coefficient
    is (a_gamma - sum_{0 != beta <= gamma} b_beta out_{gamma - beta}) / b0,
    subtracted term by term with beta in lexicographic order.  With a
    window, only its coefficients are solved for.
    """
    _check_compatible(a, b)
    b0 = b.value
    if b0 == 0.0:
        raise DivisionByZeroConstantTerm("division by a jet with zero constant term")
    levels, ib, _, _ = _division_levels(a.nvars, a.order, window)
    af = a.coeffs.ravel()
    neg_b = -b.coeffs.ravel()[ib]  # out * (-b) is -(out * b) bit for bit
    out = np.zeros(a.coeffs.size)
    for targets, ia, pos, sl in levels:
        acc = af[targets]
        np.add.at(acc, pos, out[ia] * neg_b[sl])
        out[targets] = acc / b0
    return Jet(a.nvars, a.order, out.reshape(a.coeffs.shape))


def _graded_levels(g: Jet, weight, window: tuple[int, int] | None = None):
    """Per total degree d >= 1: d, the flat indices of the degree-d
    coefficients, and over the pairs (alpha - beta, beta) with |alpha| = d
    and beta != 0: the flat index of alpha - beta, the position of alpha
    among the targets, and the weight of each pair, where
    ``weight(nb, nd, gb)`` forms the weights of all the levels at once from
    |beta|, d and g_beta.  A recurrence sums its terms per target with
    ``np.bincount(pos, w * c[ia], len(targets))``, in the order of a loop
    over beta."""
    levels, ib, nb, nd = _division_levels(g.nvars, g.order, window)
    w = weight(nb, nd, g.coeffs.ravel()[ib])
    for d in range(1, len(levels)):
        targets, ia, pos, sl = levels[d]
        yield d, targets, ia, pos, w[sl]


def jet_pow(base: Jet, exponent: float, window: tuple[int, int] | None = None) -> Jet:
    """base**exponent, on the coefficients of ``window`` if given.

    Integer exponents use exact repeated squaring and allow any nonzero
    constant term (any at all when the exponent is a nonnegative integer);
    real exponents need a positive constant term.  A real power c = b^e
    solves b E c = e c E b, which per total degree d reads
    c_alpha = sum_{0 != beta <= alpha} ((e + 1) |beta| - d) b_beta c_{alpha - beta} / (d b0).
    """
    n, order = base.nvars, base.order
    b0 = base.value
    e = float(exponent)
    is_int = abs(e - round(e)) < 1e-12 and abs(e) < 1e6
    if is_int:
        k = int(round(e))
        if k >= 0:
            acc = jet_const(n, order, 1.0)
            pw = base
            m = k
            while m:
                if m & 1:
                    acc = jet_mul(acc, pw, window)
                m >>= 1
                if m:
                    pw = jet_mul(pw, pw, window)
            return acc
        if b0 == 0.0:
            raise JetDomainError("negative integer power of a jet with zero constant term")
        inv = jet_div(jet_const(n, order, 1.0), base, window)
        return jet_pow(inv, -k, window)
    if b0 <= 0.0:
        raise JetDomainError(
            f"real power {e:g} needs a positive constant term, got {b0:g}"
        )
    out = np.zeros(base.coeffs.size)
    out[0] = b0**e
    weights = _graded_levels(base, lambda nb, nd, bb: ((e + 1.0) * nb - nd) * bb, window)
    for d, targets, ia, pos, w in weights:
        out[targets] = np.bincount(pos, w * out[ia], targets.size) / (d * b0)
    return Jet(n, order, out.reshape(base.coeffs.shape))


_UNARY_NAMES = ("sin", "cos", "exp", "log", "sqrt")


def jet_unary(name: str, g: Jet) -> Jet:
    """Compose an elementary function with a jet, by its graded recurrence:
    d c_alpha = sum_{0 != beta <= alpha} |beta| g_beta c_{alpha - beta} for
    c = exp g; d g0 c_alpha = d g_alpha - sum (d - |beta|) g_beta c_{alpha - beta}
    for c = log g; and the coupled pair s = sin g, k = cos g with
    d s_alpha = sum |beta| g_beta k_{alpha - beta},
    d k_alpha = -sum |beta| g_beta s_{alpha - beta}."""
    g0 = g.value
    out = np.zeros(g.coeffs.size)
    if name == "exp":
        out[0] = math.exp(g0)
        for d, targets, ia, pos, w in _graded_levels(g, lambda nb, nd, gb: nb * gb):
            out[targets] = np.bincount(pos, w * out[ia], targets.size) / d
    elif name in ("sin", "cos"):
        other = np.zeros(g.coeffs.size)
        s, k = (out, other) if name == "sin" else (other, out)
        s[0], k[0] = math.sin(g0), math.cos(g0)
        for d, targets, ia, pos, w in _graded_levels(g, lambda nb, nd, gb: nb * gb):
            s[targets] = np.bincount(pos, w * k[ia], targets.size) / d
            k[targets] = -np.bincount(pos, w * s[ia], targets.size) / d
    elif name == "log":
        if g0 <= 0.0:
            raise JetDomainError(f"log of jet with non-positive constant term {g0:g}")
        gf = g.coeffs.ravel()
        out[0] = math.log(g0)
        for d, targets, ia, pos, w in _graded_levels(g, lambda nb, nd, gb: (nd - nb) * gb):
            acc = np.bincount(pos, w * out[ia], targets.size)
            out[targets] = (d * gf[targets] - acc) / (d * g0)
    elif name == "sqrt":
        if g0 <= 0.0:
            raise JetDomainError(f"sqrt of jet with non-positive constant term {g0:g}")
        return jet_pow(g, 0.5)
    else:
        raise ValueError(f"unknown unary function {name!r}")
    return Jet(g.nvars, g.order, out.reshape(g.coeffs.shape))


def jet_partial(j: Jet, axis: int) -> Jet:
    """Partial derivative along one variable; the order drops by one."""
    if j.order < 1:
        raise ValueError("cannot differentiate an order-0 jet")
    n, order = j.nvars, j.order
    new_order = order - 1
    src = [slice(0, new_order + 1)] * n
    src[axis] = slice(1, new_order + 2)
    mult_shape = [1] * n
    mult_shape[axis] = new_order + 1
    mult = np.arange(1, new_order + 2).reshape(mult_shape)
    # entries above the new degree come from ones above the old, which are zero
    return Jet(n, new_order, j.coeffs[tuple(src)] * mult)


def jet_truncate(j: Jet, order: int) -> Jet:
    """Drop coefficients above a lower truncation order."""
    if order > j.order:
        raise ValueError("can only truncate to a lower order")
    if order == j.order:
        return j
    sl = tuple(slice(0, order + 1) for _ in range(j.nvars))
    return Jet(j.nvars, order, j.coeffs[sl] * _degree_mask(j.nvars, order))


def extract_normal_slice(j: Jet, m: int, axis: int = 0, order: int | None = None) -> Jet:
    """Jet of d^m f / d x_axis^m restricted to the hyperplane x_axis = const.

    The result lives in the remaining nvars-1 variables; by default its order
    is ``j.order - m`` (entries beyond that are not represented in ``j``).
    """
    if m > j.order:
        raise ValueError("normal order exceeds jet order")
    default = j.order - m
    if order is None:
        order = default
    sl = [slice(0, order + 1)] * j.nvars
    sl[axis] = m
    block = j.coeffs[tuple(sl)]
    if order == default:
        # the block is the whole slice, and zero above its degree already
        return Jet(j.nvars - 1, order, block * math.factorial(m))
    c = np.zeros((order + 1,) * (j.nvars - 1))
    c[tuple(slice(0, s) for s in block.shape)] = block * math.factorial(m)
    c[~_degree_mask(j.nvars - 1, order)] = 0.0
    return Jet(j.nvars - 1, order, c)


def set_normal_slice(j: Jet, m: int, tangential: Jet, axis: int = 0) -> Jet:
    """Copy of ``j`` whose x_axis-order-m coefficient row is taken from a
    tangential jet of d^m f / d x_axis^m (inverse of :func:`extract_normal_slice`).

    Tangential coefficients that would exceed the total degree of ``j`` are
    dropped.
    """
    if tangential.nvars != j.nvars - 1:
        raise ValueError("tangential jet must have one variable fewer")
    c = np.array(j.coeffs)
    keep = min(tangential.order, j.order - m)
    src = tangential.coeffs[tuple(slice(0, keep + 1) for _ in range(tangential.nvars))]
    dst = [slice(0, keep + 1)] * j.nvars
    dst[axis] = m
    c[tuple(dst)] = np.where(_degree_mask(tangential.nvars, keep), src / math.factorial(m), 0.0)
    return Jet(j.nvars, j.order, c)


def jet_compose1(outer: Jet, inner: Jet) -> Jet:
    """Compose a univariate jet with a linear inner form s0 + zeta . x.

    ``outer`` is a 1-variable jet of f at s0 with coefficients f_k; ``inner``
    must be a first-degree jet, whose constant term is taken to be that same
    s0 (the univariate jet does not store its expansion point, so the caller
    owns this convention).  The result is the jet of f(inner), by the
    multinomial closed form c_alpha = f_|alpha| |alpha|!/alpha! zeta^alpha.
    """
    if outer.nvars != 1:
        raise ValueError("outer jet must be univariate")
    n, order = inner.nvars, inner.order
    idx, deg, multinomial = _monomials(n, order)
    flat = inner.coeffs.ravel()
    if np.any(flat[deg > 1]):
        raise ValueError("inner jet must be a linear form")
    # the unit multi-indices sit at the flat strides of the hypercube
    zeta = flat[(order + 1) ** np.arange(n - 1, -1, -1)] if order else np.zeros(n)
    series = np.zeros(order + 1)
    series[: min(order, outer.order) + 1] = outer.coeffs[: order + 1]
    c = series[deg] * multinomial * np.prod(zeta ** idx, axis=1)
    return Jet(n, order, c.reshape(inner.coeffs.shape))


# -- expression language --------------------------------------------------------


class Expr:
    """Base class for expression AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    index: int  # 0-based: x1 -> 0


@dataclass(frozen=True)
class Neg(Expr):
    child: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # '+', '-', '*', '/', '^'
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr


class ParseError(Exception):
    def __init__(self, offset: int, expected: tuple[str, ...], found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        super().__init__(
            f"parse error at offset {offset}: expected one of {', '.join(expected)}; found {found!r}"
        )


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_VARIABLES = {"x1": 0, "x2": 1, "x3": 2}


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ParseError(bad_at, ("NUMBER", "IDENT", "operator"), text[bad_at])
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected: tuple[str, ...]):
        kind, text, pos = self.peek()
        found = text if kind != "eof" else "<end of input>"
        raise ParseError(pos, expected, found)

    def expect_op(self, op: str):
        kind, text, _ = self.peek()
        if kind == "op" and text == op:
            return self.advance()
        self.fail((repr(op),))

    def parse(self) -> Expr:
        e = self.expr()
        if self.peek()[0] != "eof":
            self.fail(("operator", "<end of input>"))
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                e = BinOp(text, e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                e = BinOp(text, e, self.factor())
            else:
                return e

    def factor(self) -> Expr:
        e = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return BinOp("^", e, self.factor())  # right associative
        return e

    def atom(self) -> Expr:
        kind, text, pos = self.peek()
        if kind == "num":
            self.advance()
            return Num(float(text))
        if kind == "ident":
            self.advance()
            if text in _VARIABLES:
                return Var(_VARIABLES[text])
            if text in _UNARY_NAMES:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            raise ParseError(
                pos, tuple(sorted(_VARIABLES)) + _UNARY_NAMES, text
            )
        if kind == "op" and text == "(":
            self.advance()
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.atom())
        self.fail(("NUMBER", "IDENT", "'('", "'-'"))


def parse_expr(text: str) -> Expr:
    """Parse an expression; raises :class:`ParseError` with a byte offset."""
    return _Parser(text).parse()


def _as_expr(e) -> Expr:
    return parse_expr(e) if isinstance(e, str) else e


def _constant_exponent(e: Expr) -> float:
    """Exponents must be variable-free; evaluate them to a float."""
    if free_variables(e):
        raise JetDomainError("exponent expressions must not contain variables")
    return eval_point(e, ())


def free_variables(e) -> set[int]:
    e = _as_expr(e)
    out: set[int] = set()

    def walk(node):
        if isinstance(node, Var):
            out.add(node.index)
        elif isinstance(node, Neg):
            walk(node.child)
        elif isinstance(node, BinOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, Call):
            walk(node.arg)

    walk(e)
    return out


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _evaluate(e: Expr, num, var, call, power):
    """Fold an expression over one algebra of values.

    ``num(value)`` lifts a constant, ``var(index)`` binds a variable,
    ``call(fn, x)`` applies a unary function and ``power(base, exponent)``
    raises a value to a constant float exponent; ``+ - * /`` and negation
    are the values' own operators.
    """

    def ev(node):
        if isinstance(node, Num):
            return num(node.value)
        if isinstance(node, Var):
            return var(node.index)
        if isinstance(node, Neg):
            return -ev(node.child)
        if isinstance(node, BinOp):
            if node.op == "^":  # the base first, then the exponent
                return power(ev(node.left), _constant_exponent(node.right))
            return _BINARY[node.op](ev(node.left), ev(node.right))
        if isinstance(node, Call):
            return call(node.fn, ev(node.arg))
        raise TypeError(f"not an expression node: {node!r}")

    return ev(e)


def _point_power(base: float, exponent: float) -> float:
    value = base**exponent
    if isinstance(value, complex):
        raise JetDomainError(f"negative base {base:g} to a fractional power")
    return float(value)


def _point_call(fn: str, x: float) -> float:
    if fn == "log" and x <= 0.0:
        raise JetDomainError(f"log of non-positive value {x:g}")
    if fn == "sqrt" and x < 0.0:
        raise JetDomainError(f"sqrt of negative value {x:g}")
    return float(getattr(math, fn)(x))


def eval_point(e, point) -> float:
    """Evaluate at a point of floats.

    A value outside the real floats (a division by zero, an overflow, a
    negative base to a fractional power) raises :class:`JetDomainError`.
    """

    def var(index):
        if index >= len(point):
            raise ValueError(f"expression uses x{index + 1} but the point has {len(point)} components")
        return float(point[index])

    try:
        return _evaluate(_as_expr(e), lambda value: value, var, _point_call, _point_power)
    except (ZeroDivisionError, OverflowError) as exc:
        raise JetDomainError(f"{type(exc).__name__} evaluating an expression: {exc}") from exc


def eval_numpy(e, arrays) -> np.ndarray:
    """Vectorized evaluation with coordinate arrays in place of variables."""
    e = _as_expr(e)
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    shape = np.broadcast_shapes(*(a.shape for a in arrays)) if arrays else ()

    def num(value):
        return np.full(shape, value) if shape else np.float64(value)

    def var(index):
        if index >= len(arrays):
            raise ValueError(f"expression uses x{index + 1} but only {len(arrays)} coordinates given")
        return arrays[index]

    value = _evaluate(e, num, var, lambda fn, x: getattr(np, fn)(x), lambda base, k: base**k)
    return np.asarray(value, dtype=float)


def eval_on_jets(e, env: dict[int, Jet], nvars: int | None = None, order: int | None = None) -> Jet:
    """Evaluate the AST with variables bound to jets from ``env``; constants are
    lifted by :func:`jet_const`, so ``x1/3`` is ``jet_div(x1, jet_const(3))``."""
    e = _as_expr(e)
    sample = next(iter(env.values()), None)
    if sample is None:
        if nvars is None or order is None:
            raise ValueError("need nvars/order for a variable-free evaluation")
    else:
        nvars, order = sample.nvars, sample.order

    def var(index):
        if index not in env:
            raise ValueError(f"no jet bound for variable x{index + 1}")
        return env[index]

    return _evaluate(e, lambda value: jet_const(nvars, order, value), var, jet_unary, jet_pow)


def eval_jet(e, point, order: int) -> Jet:
    """Jet of the expression at a point, one jet variable per coordinate."""
    e = _as_expr(e)
    point = tuple(float(x) for x in point)
    nvars = len(point)
    env = {i: jet_variable(nvars, order, i, base=point[i]) for i in range(nvars)}
    return eval_on_jets(e, env, nvars=nvars, order=order)
