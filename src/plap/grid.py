"""Axis-aligned box grids, node-centered fields, and finite-difference calculus.

Everything in this package runs on tensor-product node grids over boxes, so
every boundary face is flat with an axis-aligned outward normal.  That is
exactly the geometry the boundary-recovery machinery needs, and it keeps the
discrete calculus small: differentiation uses second-order stencils, central
at interior nodes and 3-point one-sided on the boundary, so affine fields
differentiate exactly everywhere and quadratics are exact at interior nodes.

Volume sums use tensor-product trapezoid weights (half weight on boundary
nodes), face sums use the same rule restricted to a face.  Both are exact for
fields with constant integrand, which several test oracles rely on.

The divergence-form operator u -> div(T grad u) of the solvers is assembled
only as they use it: its interior rows, split into the interior block and
the boundary columns, both CSC with sorted row indices.  A gather map, built
once per grid shape and spacing, turns the tensor values into the data of
both blocks, bit for bit the sums the three sparse products D_a diag(T_ab)
D_b would form.  The difference matrices and that map sit in one bounded
cache shared by every grid of one shape and spacing, as read-only arrays.
``scipy.sparse`` is imported at the first sparse build, not with the module,
so a run that solves no PDE (``recover``) never loads scipy.

All operations here are pure functions of immutable inputs and are evaluated
with a fixed summation order, so repeated calls are bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "Domain",
    "Face",
    "ScalarField",
    "VectorField",
    "TensorField",
    "build_domain",
    "gradient",
    "divergence",
    "boundary_trace",
    "normal_component",
    "anisotropic_operator",
    "integrate_volume",
    "integrate_boundary",
    "face_values_max_abs",
    "face_values_combine",
    "require_positive_weight",
    "InvalidWeight",
]


@dataclass(frozen=True)
class Face:
    """One flat boundary face of a box: an axis and a side (-1 lower, +1 upper)."""

    axis: int
    side: int

    @property
    def key(self) -> tuple[int, int]:
        return (self.axis, self.side)


def _stencil_1d(n: int, h: float) -> sp.csr_matrix:
    """Second-order first-derivative matrix on n nodes with spacing h.

    Central differences at rows 1..n-2, 3-point one-sided at the end rows.
    Exact for quadratics at every row.
    """
    import scipy.sparse as sp
    inv = 1.0 / (2.0 * h)
    mid = np.arange(1, n - 1)
    rows = np.concatenate([[0, 0, 0], mid, mid, [n - 1] * 3])
    cols = np.concatenate([[0, 1, 2], mid - 1, mid + 1, [n - 3, n - 2, n - 1]])
    vals = np.concatenate([
        [-3.0 * inv, 4.0 * inv, -1.0 * inv],
        np.full(n - 2, -inv),
        np.full(n - 2, inv),
        [1.0 * inv, -4.0 * inv, 3.0 * inv],
    ])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


# Grid shapes and spacings whose calculus stays cached (see _grid_calculus)
_CALCULUS_CACHE_SIZE = 8


class _GridCalculus:
    """The tensor-independent calculus of one grid shape and spacing, built on
    first use, every array read-only."""

    def __init__(self, shape: tuple[int, ...], h: tuple[float, ...]):
        self.shape, self.h = shape, h

    @cached_property
    def diff_matrices(self) -> tuple[sp.csr_matrix, ...]:
        """Per-axis first-derivative CSR matrices on C-raveled fields: the 1-D
        stencil of :func:`_stencil_1d` along its axis, the identity across."""
        import scipy.sparse as sp
        mats = []
        for a in range(len(self.shape)):
            m = _stencil_1d(self.shape[a], self.h[a])
            left, right = int(np.prod(self.shape[:a])), int(np.prod(self.shape[a + 1:]))
            if left > 1:
                m = sp.kron(sp.identity(left, format="csr"), m, format="csr")
            if right > 1:
                m = sp.kron(m, sp.identity(right, format="csr"), format="csr")
            for arr in (m.data, m.indices, m.indptr):
                arr.flags.writeable = False
            mats.append(m)
        return tuple(mats)

    @cached_property
    def gather(self) -> tuple:
        """The map from tensor values to the data of both blocks of
        :func:`anisotropic_operator`, in the sparse products' summation order.

        Entry (i, r) sums D_a[k, r] * (T[k, b, a] * D_b[I_i, k]) over the axes a
        and the nodes k = I_i +- e_b next to the row node I_i, in the order of
        (a, k).  Stage 1 fills ``m[b, side, a]`` over the interior box with the
        inner products; stage 2 is the CSR matrix whose row j holds the terms
        of the j-th stored entry, in the sorted CSC order of A_II, then A_IB:
        each term's index into ``m`` and its coefficient D_a[k, r].
        ``stage2`` is that matrix over the entries of A_II alone, then over
        both blocks, the first a prefix view of the second's one coefficient
        array.  ``rows`` and ``col_ptr`` give the blocks' structural pattern,
        ``central[b]`` the central stencil values (-1/2h_b, 1/2h_b) of axis b.
        """
        import scipy.sparse as sp
        shape, diff = self.shape, self.diff_matrices
        n, n_nodes = len(shape), int(np.prod(shape))
        inside = np.pad(np.ones([s - 2 for s in shape], dtype=bool), 1).ravel()
        interior = np.flatnonzero(inside).astype(np.int32)
        col = np.empty(n_nodes, dtype=np.int32)  # column of each node: A_II's, then A_IB's
        col[np.concatenate([interior, np.flatnonzero(~inside)])] = np.arange(n_nodes)
        row = np.arange(interior.size, dtype=np.int32)
        # steps to the neighbours k = I_i +- e_b, ascending, so that terms come in (a, k) order
        steps = sorted((s * int(np.prod(shape[b + 1:])), b, (s + 1) // 2) for b in range(n) for s in (-1, 1))
        parts = []
        for a in range(n):
            for step, b, side in steps:
                stencil = diff[a][interior + step]  # row k of D_a for each row node
                rows = np.repeat(row, np.diff(stencil.indptr))
                # the interior box in C order: row i is box node i
                parts.append((col[stencil.indices], rows, ((b * 2 + side) * n + a) * interior.size + rows,
                              stencil.data))
        cols, rows, terms, coefs = map(np.concatenate, zip(*parts))
        del parts
        order = np.lexsort((rows, cols))  # stable: each entry's terms keep the loop order
        terms, coefs = terms[order], coefs[order]
        cols, rows = cols[order], rows[order]
        del order
        first = np.flatnonzero(np.concatenate([[True], (cols[1:] != cols[:-1]) | (rows[1:] != rows[:-1])]))
        cols, rows = cols[first], rows[first]
        term_ptr = np.append(first, terms.size).astype(np.int32)
        col_ptr = np.searchsorted(cols, np.arange(n_nodes + 1)).astype(np.int32)
        central = np.array([d[int(interior[0])].data for d in diff])
        for arr in (terms, coefs, term_ptr, rows, col_ptr, central):
            arr.flags.writeable = False
        stage2 = tuple(sp.csr_matrix((coefs[:term_ptr[e]], terms[:term_ptr[e]], term_ptr[:e + 1]),
                                     shape=(int(e), n * 2 * n * interior.size))
                       for e in (col_ptr[interior.size], col_ptr[-1]))  # A_II's entries, then both blocks'
        return stage2, rows, col_ptr, central


@lru_cache(maxsize=_CALCULUS_CACHE_SIZE)
def _grid_calculus(shape: tuple[int, ...], h: tuple[float, ...]) -> _GridCalculus:
    return _GridCalculus(shape, h)


class Domain:
    """Structured node grid on the box prod_a [origin_a, origin_a + extent_a].

    Nodes are indexed in C order; node (i_0, ..., i_{n-1}) sits at
    origin_a + i_a * h_a with h_a = extent_a / (resolution_a - 1).  Interior
    and boundary index sets partition the nodes; each boundary node belongs
    to at least one of the 2n flat faces.  Both index sets are in C order.
    """

    def __init__(self, extents, resolution, origin=None):
        extents = np.asarray(extents, dtype=float)
        if extents.ndim != 1 or extents.size not in (2, 3):
            raise ValueError("dimension must be 2 or 3")
        if np.any(extents <= 0.0):
            raise ValueError(f"extents must be positive, got {extents.tolist()}")
        resolution = tuple(int(r) for r in resolution)
        if len(resolution) != extents.size:
            raise ValueError("resolution and extents must have equal length")
        if any(r < 3 for r in resolution):
            raise ValueError(f"need at least 3 nodes per axis, got {resolution}")
        if origin is None:
            origin = np.zeros(extents.size)
        origin = np.asarray(origin, dtype=float)
        if origin.shape != extents.shape:
            raise ValueError("origin and extents must have equal length")

        self.n = int(extents.size)
        self.extents = extents
        self.origin = origin
        self.shape = resolution
        self.h = extents / (np.array(resolution) - 1.0)
        self.faces = [Face(a, s) for a in range(self.n) for s in (-1, +1)]

    # -- geometry -----------------------------------------------------------

    @cached_property
    def axes(self) -> list[np.ndarray]:
        return [
            self.origin[a] + self.h[a] * np.arange(self.shape[a])
            for a in range(self.n)
        ]

    @cached_property
    def coords(self) -> list[np.ndarray]:
        """Meshgrid coordinate arrays, one per axis, each of shape ``self.shape``."""
        return list(np.meshgrid(*self.axes, indexing="ij"))

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.shape))

    @cached_property
    def interior_mask(self) -> np.ndarray:
        m = np.ones(self.shape, dtype=bool)
        for a in range(self.n):
            sl = [slice(None)] * self.n
            sl[a] = 0
            m[tuple(sl)] = False
            sl[a] = -1
            m[tuple(sl)] = False
        return m

    @cached_property
    def boundary_mask(self) -> np.ndarray:
        return ~self.interior_mask

    @cached_property
    def interior_flat(self) -> np.ndarray:
        """Flat indices of the interior nodes, in C order.

        The rows and interior columns of the blocks that
        :func:`anisotropic_operator` returns, and every interior vector of
        the solvers, come in this order.  The sparse LU of the solvers picks
        its own fill-reducing order per block, and finds no lower fill from
        a nested-dissection order than from this one.
        """
        return np.flatnonzero(self.interior_mask.ravel())

    @cached_property
    def boundary_flat(self) -> np.ndarray:
        return np.flatnonzero(self.boundary_mask.ravel())

    def normal(self, face: Face) -> np.ndarray:
        nu = np.zeros(self.n)
        nu[face.axis] = float(face.side)
        return nu

    def face_slice(self, face: Face) -> tuple:
        """Index tuple selecting the nodes of a face from a full grid array."""
        sl = [slice(None)] * self.n
        sl[face.axis] = 0 if face.side < 0 else -1
        return tuple(sl)

    def face_axes(self, face: Face) -> tuple[int, ...]:
        return tuple(a for a in range(self.n) if a != face.axis)

    def face_coords(self, face: Face) -> list[np.ndarray]:
        """Coordinate arrays of the face nodes (full n-vector components)."""
        return [c[self.face_slice(face)] for c in self.coords]

    def _trapezoid(self, axes) -> np.ndarray:
        """Tensor-product trapezoid weights over ``axes`` (half weight at both ends)."""
        w = np.ones(tuple(self.shape[a] for a in axes))
        for k, a in enumerate(axes):
            wa = np.full(self.shape[a], self.h[a])
            wa[0] *= 0.5
            wa[-1] *= 0.5
            shape = [1] * len(axes)
            shape[k] = self.shape[a]
            w = w * wa.reshape(shape)
        return w

    @cached_property
    def _face_weights(self) -> dict[tuple[int, int], np.ndarray]:
        return {face.key: self._trapezoid(self.face_axes(face)) for face in self.faces}

    def face_area_weights(self, face: Face) -> np.ndarray:
        """Trapezoid surface-quadrature weights on a face (sums to face area)."""
        return self._face_weights[face.key]

    @cached_property
    def volume_weights(self) -> np.ndarray:
        """Trapezoid volume-quadrature weights (sum equals the box volume)."""
        return self._trapezoid(range(self.n))

    # -- difference operators ------------------------------------------------

    @cached_property
    def _calculus(self) -> _GridCalculus:
        return _grid_calculus(self.shape, tuple(self.h.tolist()))

    @property
    def diff_matrices(self) -> tuple[sp.csr_matrix, ...]:
        """Per-axis sparse first-derivative operators acting on C-raveled
        fields, shared read-only by every grid of this shape and spacing."""
        return self._calculus.diff_matrices

    def __eq__(self, other):
        return (
            isinstance(other, Domain)
            and self.shape == other.shape
            and np.array_equal(self.extents, other.extents)
            and np.array_equal(self.origin, other.origin)
        )

    def __hash__(self):
        return hash((self.shape, tuple(self.extents), tuple(self.origin)))

    def __repr__(self):
        return f"Domain(extents={self.extents.tolist()}, resolution={self.shape}, origin={self.origin.tolist()})"


def build_domain(extents, resolution, origin=None) -> Domain:
    """Build an axis-aligned box grid; rejects dimensions outside {2,3}."""
    return Domain(extents, resolution, origin=origin)


# -- fields -------------------------------------------------------------------


@dataclass
class ScalarField:
    domain: Domain
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.domain.shape:
            raise ValueError(
                f"scalar field shape {self.values.shape} != grid shape {self.domain.shape}"
            )

    @classmethod
    def from_function(cls, domain: Domain, fn) -> "ScalarField":
        """Evaluate ``fn(*coords)`` on the node coordinates."""
        return cls(domain, np.asarray(fn(*domain.coords), dtype=float) * np.ones(domain.shape))

    @classmethod
    def constant(cls, domain: Domain, value: float) -> "ScalarField":
        return cls(domain, np.full(domain.shape, float(value)))


@dataclass
class VectorField:
    domain: Domain
    values: np.ndarray  # shape = grid shape + (n,)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.domain.shape + (self.domain.n,):
            raise ValueError("vector field shape mismatch")


@dataclass
class TensorField:
    domain: Domain
    values: np.ndarray  # shape = grid shape + (n, n), symmetric in the last two axes

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.domain.shape + (self.domain.n, self.domain.n):
            raise ValueError("tensor field shape mismatch")


class InvalidWeight(ValueError):
    """A weight that is not finite and strictly positive at every node."""


def require_positive_weight(gamma: ScalarField | np.ndarray):
    """A weight field, or an array of its values at any points, must be finite
    and strictly positive at every node; raises :class:`InvalidWeight`."""
    values = gamma.values if isinstance(gamma, ScalarField) else gamma
    if not np.all(np.isfinite(values)):
        raise InvalidWeight("weight must be finite at every node")
    mn = float(np.min(values))
    if not mn > 0.0:
        raise InvalidWeight(f"weight must be strictly positive, min value {mn:g}")


# -- calculus -------------------------------------------------------------------


def gradient(u: ScalarField) -> VectorField:
    """Nodewise gradient: central interior stencils, one-sided on the boundary."""
    dom = u.domain
    flat = u.values.ravel()
    comps = [ (g @ flat).reshape(dom.shape) for g in dom.diff_matrices ]
    return VectorField(dom, np.stack(comps, axis=-1))


def divergence(v: VectorField) -> ScalarField:
    """Nodewise divergence with the same stencils as :func:`gradient`.

    The values are meaningful at interior nodes (the contract used by solver
    residuals); boundary rows use one-sided stencils for completeness.
    """
    dom = v.domain
    out = np.zeros(dom.shape)
    for a, g in enumerate(dom.diff_matrices):
        out += (g @ v.values[..., a].ravel()).reshape(dom.shape)
    return ScalarField(dom, out)


def boundary_trace(u: ScalarField) -> dict[tuple[int, int], np.ndarray]:
    """Per-face arrays of node values on the boundary."""
    dom = u.domain
    return {f.key: np.array(u.values[dom.face_slice(f)]) for f in dom.faces}


def normal_component(v: VectorField) -> dict[tuple[int, int], np.ndarray]:
    """Per-face outward normal component nu . v."""
    dom = v.domain
    out = {}
    for f in dom.faces:
        sl = dom.face_slice(f) + (f.axis,)
        out[f.key] = float(f.side) * np.array(v.values[sl])
    return out


def anisotropic_operator(
    domain: Domain, tensor_values: np.ndarray, boundary: bool = True
) -> tuple[sp.csc_matrix, sp.csc_matrix | None]:
    """Interior rows of u -> div(T grad u) = sum_ab D_a diag(T_ab) D_b u.

    ``tensor_values`` has shape grid + (n, n).  Returns the blocks
    ``(A_II, A_IB)`` of the interior rows, which are the consistent
    approximation of the divergence form: rows and the columns of ``A_II``
    in ``domain.interior_flat`` order, the columns of ``A_IB`` in
    ``domain.boundary_flat`` order.  Both are CSC with sorted row indices,
    so a sparse LU takes ``A_II`` as given.  With ``boundary=False`` only
    ``A_II`` is assembled, bit for bit the same, and ``A_IB`` is None.

    Only stage 1, the products of the tensor values with the central
    stencil, depends on ``tensor_values``.  Stage 2, the CSR matrix that
    sums them into the blocks' data, is built once per grid with its
    coefficients (:attr:`_GridCalculus.gather`); A_II alone takes a prefix
    view of it.  The data is bit for bit what the sparse products
    D_a diag(T_ab) D_b sum, a non-symmetric T included; like them, the
    assembly drops exact-zero sums, so the zero off-diagonal entries of a
    diagonal T store nothing.
    """
    import scipy.sparse as sp
    stage2, rows, col_ptr, central = domain._calculus.gather
    shape, n, n_int = domain.shape, domain.n, domain.interior_flat.size
    m = np.empty((n, 2, n) + tuple(s - 2 for s in shape))
    for b, side in np.ndindex(n, 2):
        shift = [(2 * side - 1) * (a == b) for a in range(n)]
        box = tuple(slice(1 + d, s - 1 + d) for d, s in zip(shift, shape))
        np.multiply(np.moveaxis(tensor_values[box + (b,)], -1, 0), central[b, side], out=m[b, side])
    spans = ((0, n_int), (n_int, col_ptr.size - 1)) if boundary else ((0, n_int),)
    # each entry's terms sum on their own, so A_II alone takes the leading entries
    data = stage2[boundary] @ m.ravel()
    blocks = []
    for lo, hi in spans:
        start, stop = col_ptr[lo], col_ptr[hi]
        block = sp.csc_matrix((data[start:stop], rows[start:stop].copy(), col_ptr[lo:hi + 1] - start),
                              shape=(n_int, hi - lo))
        block.eliminate_zeros()
        blocks.append(block)
    return blocks[0], (blocks[1] if boundary else None)


# -- quadrature helpers ---------------------------------------------------------


def integrate_volume(domain: Domain, values: np.ndarray) -> float:
    return float(np.sum(domain.volume_weights * values))


def integrate_boundary(domain: Domain, face_values: dict) -> float:
    total = 0.0
    for f in domain.faces:
        total += float(np.sum(domain.face_area_weights(f) * face_values[f.key]))
    return total


def face_values_max_abs(face_values: dict) -> float:
    return max(float(np.max(np.abs(v))) for v in face_values.values())


def face_values_combine(fn, *face_values: dict) -> dict:
    """Apply ``fn`` elementwise across matching faces of several face maps."""
    keys = face_values[0].keys()
    return {k: fn(*(fv[k] for fv in face_values)) for k in keys}
