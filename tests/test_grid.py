import numpy as np
import pytest

from plap import psolve
from plap.grid import (
    ScalarField,
    TensorField,
    VectorField,
    anisotropic_operator,
    boundary_trace,
    build_domain,
    divergence,
    gradient,
    integrate_boundary,
    integrate_volume,
    normal_component,
    require_positive_weight,
    _CALCULUS_CACHE_SIZE,
    _grid_calculus,
    _stencil_1d,
)
from plap.linearize import rescale_translation_invariant

from oracles import (
    anisotropic_operator_chain,
    anisotropic_operator_loop,
    convergence_orders,
    same_sparse,
    symmetry_defect,
)


def test_counting_2d():
    dom = build_domain((1.0, 1.0), (5, 5))
    assert int(dom.interior_mask.sum()) == 9
    assert int(dom.boundary_mask.sum()) == 16
    assert dom.n_nodes == 25


def test_counting_3d():
    dom = build_domain((1.0, 1.0, 1.0), (3, 3, 3))
    assert int(dom.interior_mask.sum()) == 1
    assert len(dom.faces) == 6


def test_contract_rejections():
    with pytest.raises(ValueError):
        build_domain((-1.0, 0.0), (5, 5))
    with pytest.raises(ValueError):
        build_domain((1.0,), (5,))
    with pytest.raises(ValueError):
        build_domain((1.0, 1.0, 1.0, 1.0), (3, 3, 3, 3))
    with pytest.raises(ValueError):
        build_domain((1.0, 1.0), (2, 5))


def test_partition_and_spacing():
    dom = build_domain((2.0, 3.0), (5, 7), origin=(-1.0, 0.5))
    assert np.allclose(dom.h, [0.5, 0.5])
    assert np.all(dom.interior_mask ^ dom.boundary_mask)
    # every boundary node sits on at least one face
    on_face = np.zeros(dom.shape, dtype=bool)
    for f in dom.faces:
        sl = np.zeros(dom.shape, dtype=bool)
        sl[dom.face_slice(f)] = True
        on_face |= sl
    assert np.array_equal(on_face, dom.boundary_mask)


@pytest.mark.parametrize("shape", [(3, 3), (9, 33), (129, 129), (5, 5, 17), (17, 17, 17)])
def test_interior_order_is_a_deterministic_permutation(shape):
    # C order, on every grid of the shape
    dom = build_domain((1.0,) * len(shape), shape)
    order = dom.interior_flat
    assert np.array_equal(order, np.flatnonzero(dom.interior_mask.ravel()))
    moved = build_domain((2.0,) * len(shape), shape, origin=(1.0,) * len(shape))
    assert np.array_equal(moved.interior_flat, order)


def test_small_grids_keep_c_order():
    # small grids and large ones alike
    for shape in [(9, 9), (3, 9), (9, 9, 9), (10, 10), (3, 10), (9, 33), (9, 9, 10)]:
        dom = build_domain((1.0,) * len(shape), shape)
        assert np.array_equal(dom.interior_flat, np.flatnonzero(dom.interior_mask.ravel()))


def _tensor(kind, dom):
    rng = np.random.default_rng(7)
    n = dom.n
    if kind == "zero":
        return np.zeros(dom.shape + (n, n))
    if kind == "diagonal":
        return rng.uniform(0.5, 2.0, dom.shape + (n,))[..., None] * np.eye(n)
    t = rng.standard_normal(dom.shape + (n, n))
    if kind == "symmetric":
        return t @ np.swapaxes(t, -1, -2) + np.eye(n)
    return t


@pytest.mark.parametrize("kind", ["symmetric", "diagonal", "nonsymmetric", "zero"])
@pytest.mark.parametrize("shape", [(9, 9), (33, 33), (65, 65), (5, 5, 17), (17, 17, 17)])
def test_operator_blocks_match_loop_oracle(shape, kind):
    dom = build_domain((1.0, 0.7, 1.3)[: len(shape)], shape)
    tensor = _tensor(kind, dom)
    a_ii, a_ib = anisotropic_operator(dom, tensor)
    full = anisotropic_operator_loop(dom, tensor)[dom.interior_flat]
    ref_ii, ref_ib = full[:, dom.interior_flat], full[:, dom.boundary_flat]
    scale = abs(full).max()
    for got, ref in [(a_ii, ref_ii), (a_ib, ref_ib)]:
        assert got.format == "csc" and got.shape == ref.shape
        assert abs(got - ref).max() <= 1e-13 * scale
        if kind in ("diagonal", "zero"):
            # the zero off-diagonal entries store nothing
            assert got.nnz == ref.nnz
        assert got.has_canonical_format
    # and bit for bit the sums of the sparse products
    chain = anisotropic_operator_chain(dom, tensor)
    assert same_sparse(a_ii, chain[0]) and same_sparse(a_ib, chain[1])


@pytest.mark.parametrize("kind", ["symmetric", "diagonal", "nonsymmetric", "zero"])
def test_operator_blocks_match_chain_on_unequal_spacing(kind):
    # even and odd resolution, unequal spacing on a 2 x 1 box
    dom = build_domain((2.0, 1.0), (20, 11))
    tensor = _tensor(kind, dom)
    got, chain = anisotropic_operator(dom, tensor), anisotropic_operator_chain(dom, tensor)
    assert all(same_sparse(g, c) for g, c in zip(got, chain))


@pytest.mark.parametrize("kind", ["symmetric", "diagonal", "nonsymmetric", "zero", "nan"])
@pytest.mark.parametrize(
    "extents, shape", [((1.0, 1.0), (65, 65)), ((2.0, 1.0), (20, 11)), ((1.0, 0.7, 1.3), (17, 17, 17))]
)
def test_interior_block_alone_matches_both_blocks(extents, shape, kind):
    # the Newton loop assembles A_II alone; it must be bit for bit the A_II of both blocks
    dom = build_domain(extents, shape)
    tensor = _tensor("symmetric" if kind == "nan" else kind, dom)
    if kind == "nan":
        tensor[(4,) * dom.n] = np.nan
    a_ii, a_ib = anisotropic_operator(dom, tensor)
    alone, none = anisotropic_operator(dom, tensor, boundary=False)
    assert none is None and a_ib is not None
    assert same_sparse(alone, a_ii) and alone.has_canonical_format


def test_operator_keeps_nan_and_drops_exact_zeros():
    # like the sparse products: on a square grid the constant antisymmetric
    # part of T cancels exactly in every cross entry, which stores nothing,
    # while a NaN sum stays stored
    dom = build_domain((1.0, 1.0), (9, 9))
    eye = np.broadcast_to(np.eye(2), dom.shape + (2, 2))
    tensor = eye + np.array([[0.0, 0.7], [-0.7, 0.0]])
    got, chain = anisotropic_operator(dom, tensor), anisotropic_operator_chain(dom, tensor)
    assert all(same_sparse(g, c) for g, c in zip(got, chain))
    assert [g.nnz for g in got] == [b.nnz for b in anisotropic_operator(dom, eye)]
    tensor[4, 4] = np.nan
    got, chain = anisotropic_operator(dom, tensor), anisotropic_operator_chain(dom, tensor)
    assert np.isnan(got[0].data).any()
    assert all(same_sparse(g, c) for g, c in zip(got, chain))


def test_calculus_is_cached_per_shape_and_spacing():
    dom = build_domain((1.0, 0.5), (33, 17))
    calc = dom._calculus
    # grids of one shape and spacing share one entry, wherever they sit
    twin = build_domain((1.0, 0.5), (33, 17), origin=(-2.0, 5.0))
    assert twin._calculus is calc and twin.diff_matrices is dom.diff_matrices
    assert _grid_calculus(dom.shape, tuple(dom.h.tolist())) is calc
    # another spacing is another entry
    assert build_domain((1.0, 1.0), (33, 17))._calculus is not calc
    maxsize = _grid_calculus.cache_info().maxsize
    assert maxsize == _CALCULUS_CACHE_SIZE and 0 < maxsize < 100


def test_rescaled_domain_has_its_own_calculus():
    dom = build_domain((1.0, 1.0), (17, 17))
    gamma = ScalarField.from_function(dom, lambda x, y: 1.0 + 0.3 * y)
    new = rescale_translation_invariant(gamma, (1.0, 0.0), 3.0).domain
    assert new.shape == dom.shape and new.h[0] != dom.h[0]
    assert new._calculus is not dom._calculus
    assert _grid_calculus(new.shape, tuple(new.h.tolist())) is new._calculus
    new_ii = anisotropic_operator(new, np.broadcast_to(np.eye(2), new.shape + (2, 2)))[0]
    old_ii = anisotropic_operator(dom, np.broadcast_to(np.eye(2), dom.shape + (2, 2)))[0]
    assert not np.array_equal(new_ii.data, old_ii.data)


def test_cached_calculus_arrays_are_read_only():
    dom = build_domain((1.0, 1.0, 1.0), (5, 6, 7))
    anisotropic_operator(dom, np.broadcast_to(np.eye(3), dom.shape + (3, 3)))
    stage2, *arrays = dom._calculus.gather
    arrays += [arr for m in dom.diff_matrices + stage2 for arr in (m.data, m.indices, m.indptr)]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = arr[0]


def test_stencil_1d_matches_hand_written():
    inv = 1.0 / (2.0 * 0.25)
    expect = inv * np.array([
        [-3.0, 4.0, -1.0, 0.0, 0.0],
        [-1.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, -1.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, -4.0, 3.0],
    ])
    s = _stencil_1d(5, 0.25)
    assert s.format == "csr" and s.has_canonical_format and s.nnz == 12
    assert np.array_equal(s.toarray(), expect)


def test_gradient_affine_exact():
    dom = build_domain((1.0, 2.0), (7, 9))
    u = ScalarField.from_function(dom, lambda x, y: 3.0 * x - 2.0 * y + 0.5)
    g = gradient(u).values
    assert np.max(np.abs(g[..., 0] - 3.0)) == 0.0
    assert np.max(np.abs(g[..., 1] + 2.0)) == 0.0


def test_gradient_quadratic_exact():
    # central and 3-point one-sided stencils are both exact on quadratics
    dom = build_domain((1.0, 1.0), (9, 9))
    u = ScalarField.from_function(dom, lambda x, y: x**2)
    g = gradient(u).values
    assert np.max(np.abs(g[..., 0] - 2.0 * dom.coords[0])) < 1e-13


def test_gradient_richardson_ratio():
    # halving h should shrink the sin error about 4x
    errs = []
    for res in (17, 33):
        dom = build_domain((1.0, 1.0), (res, res))
        u = ScalarField.from_function(dom, lambda x, y: np.sin(x))
        g = gradient(u).values
        errs.append(np.max(np.abs(g[..., 0] - np.cos(dom.coords[0]))))
    ratio = errs[0] / errs[1]
    assert 3.3 < ratio < 4.7


def test_divergence_constant_and_linear():
    dom = build_domain((1.0, 1.0), (9, 9))
    v = VectorField(dom, np.broadcast_to(np.array([2.0, -1.0]), dom.shape + (2,)).copy())
    assert np.max(np.abs(divergence(v).values)) == 0.0
    w = VectorField(dom, np.stack([dom.coords[0], dom.coords[1]], axis=-1))
    assert np.max(np.abs(divergence(w).values - 2.0)) < 1e-13


def test_divergence_transverse_field_exact_zero():
    # (sin x2, 0) is constant along x1, so the discrete divergence vanishes
    dom = build_domain((1.0, 1.0), (17, 17))
    v = VectorField(dom, np.stack([np.sin(dom.coords[1]), np.zeros(dom.shape)], axis=-1))
    assert np.max(np.abs(divergence(v).values)) < 1e-14


def test_divergence_convergence_order():
    errs = []
    for res in (17, 33, 65):
        dom = build_domain((1.0, 1.0), (res, res))
        v = VectorField(dom, np.stack([np.sin(dom.coords[0]), np.cos(dom.coords[1])], axis=-1))
        truth = np.cos(dom.coords[0]) - np.sin(dom.coords[1])
        errs.append(np.max(np.abs(divergence(v).values[dom.interior_mask] - truth[dom.interior_mask])))
    assert min(convergence_orders(errs)) > 1.9


def test_boundary_trace_matches_coordinates():
    dom = build_domain((1.0, 1.0), (6, 6))
    u = ScalarField.from_function(dom, lambda x, y: x)
    tr = boundary_trace(u)
    for f in dom.faces:
        assert np.array_equal(tr[f.key], dom.face_coords(f)[0])


def test_normal_component_signs():
    dom = build_domain((1.0, 1.0), (6, 6))
    e1 = VectorField(dom, np.broadcast_to(np.array([1.0, 0.0]), dom.shape + (2,)).copy())
    nc = normal_component(e1)
    assert np.all(nc[(0, -1)] == -1.0)
    assert np.all(nc[(0, 1)] == 1.0)
    assert np.all(nc[(1, 1)] == 0.0)


def test_normal_component_of_product_gradient():
    # grad(x1 x2) . e1 on the x1+ face of the unit square is the x2 coordinate
    dom = build_domain((1.0, 1.0), (9, 9))
    u = ScalarField.from_function(dom, lambda x, y: x * y)
    nc = normal_component(gradient(u))
    x2_on_face = dom.face_coords(dom.faces[1])[1]
    assert np.max(np.abs(nc[(0, 1)] - x2_on_face)) < 1e-13


def test_quadrature_weights_are_exact_for_constants():
    dom = build_domain((2.0, 0.5), (7, 11))
    assert integrate_volume(dom, np.ones(dom.shape)) == pytest.approx(1.0, abs=1e-14)
    ones = {f.key: np.ones_like(dom.face_area_weights(f)) for f in dom.faces}
    assert integrate_boundary(dom, ones) == pytest.approx(5.0, abs=1e-13)


def test_integration_by_parts_defect_order():
    # |int u div v + int grad u . v - boundary term| should vanish at order >= 1
    defects = []
    for res in (9, 17, 33):
        dom = build_domain((1.0, 1.0), (res, res))
        x, y = dom.coords
        u = ScalarField(dom, np.sin(x) * np.cos(y))
        v = VectorField(dom, np.stack([y**2 + 1.0, np.exp(x) * 0.5], axis=-1))
        vol = integrate_volume(dom, u.values * divergence(v).values) + integrate_volume(
            dom, np.sum(gradient(u).values * v.values, axis=-1)
        )
        tr = boundary_trace(u)
        nc = normal_component(v)
        bnd = integrate_boundary(dom, {k: tr[k] * nc[k] for k in tr})
        defects.append(abs(vol - bnd))
    assert min(convergence_orders(defects)) > 1.0


def test_field_shape_validation():
    dom = build_domain((1.0, 1.0), (5, 5))
    with pytest.raises(ValueError):
        ScalarField(dom, np.zeros((4, 5)))
    with pytest.raises(ValueError):
        VectorField(dom, np.zeros((5, 5, 3)))
    with pytest.raises(ValueError):
        TensorField(dom, np.zeros((5, 5, 2, 3)))


def test_tensor_symmetry_check():
    dom = build_domain((1.0, 1.0), (5, 5))
    vals = np.zeros(dom.shape + (2, 2))
    vals[..., 0, 1] = 1.0
    assert symmetry_defect(TensorField(dom, vals).values) == 1.0
    # the flux-derivative tensors the solvers assemble are symmetric bit for bit
    grads = np.random.default_rng(3).normal(size=dom.shape + (2,))
    assert symmetry_defect(psolve.flux_derivative(grads, 3.7, 0.1)) == 0.0


def test_weight_positivity():
    dom = build_domain((1.0, 1.0), (5, 5))
    require_positive_weight(ScalarField.constant(dom, 0.5))
    with pytest.raises(ValueError):
        require_positive_weight(ScalarField.from_function(dom, lambda x, y: x - 0.5))
    with pytest.raises(ValueError, match="finite"):
        require_positive_weight(ScalarField.constant(dom, np.inf))
