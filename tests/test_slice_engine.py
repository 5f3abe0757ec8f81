"""The slice-norm engine against the dense pair formulas it replaces.

The reference builds every pair value from an (N, N) array of |k - l|^2,
the five region masks from it, and one masked copy of the kernel per
region; the engine raises <k - l> once per difference and reduces each
region in place.
"""

import tracemalloc

import numpy as np
import pytest

from flwave.bilinear import (PowerKernelSpec, _fitted_constant,
                             _slice_bound_regions12, _slice_bound_regions345,
                             kernel_slice_norms, power_kernel,
                             tail_slice_norms)
from flwave.cli import _verify_slice_norms
from flwave.cones import omega_masks
from flwave.grid import (FrequencyLattice, TorusGrid, _lp_reduce,
                         finite_kernel, lattice)

# the cases of ``verify slice-norms``
TRIPLES = [(0, 0, -2), (0, 0, -1), (0, 0, -0.5), (0, -2, 0), (0, -1, 0),
           (0, -0.5, 0), (0.5, -0.3, -0.4), (-0.5, 0, 0), (-1, 0, 0),
           (-2, 0, 0), (0.3, -1.2, -0.7), (-1.5, -1, -1)]
TAILS = [(1.0, (0, 0, -2)), (1.0, (0, -2, 0)), (2.0, (0.5, -1, -1)),
         (np.inf, (1, -1, 0))]


def _pair_sq_dists(grid):
    lat = lattice(grid)
    pairs = lat.points[:, None, :] - lat.points[None, :, :]
    return np.sum(pairs.astype(float) ** 2, axis=-1)


def _dense_kernel(grid, spec):
    lat = lattice(grid)
    kl_br = np.sqrt(1.0 + _pair_sq_dists(grid))
    return finite_kernel(lat.brackets[:, None]**spec.t0 * kl_br**spec.t1
                         * lat.brackets[None, :]**spec.t2)


def _dense_masks(grid, delta, R):
    lat = lattice(grid)
    k_abs, k_br = lat.norms[:, None], lat.brackets[:, None]
    l_br = lat.brackets[None, :]
    kl_br = np.sqrt(1.0 + _pair_sq_dists(grid))
    om1 = l_br < delta * k_br
    om2 = (kl_br < delta * k_br) & ~om1
    low = delta * k_br <= np.minimum(l_br, kl_br)
    om3 = low & (k_abs <= R)
    om4 = low & (k_abs > R) & (kl_br <= l_br)
    om5 = low & (k_abs > R) & (l_br <= kl_br) & ~om4
    return om1, om2, om3, om4, om5


def _dense_slice_norms(grid, mags, masks, spec, p):
    """kernel_slice_norms with one masked copy per region, and the
    largest slice of each region."""
    brackets = lattice(grid).brackets
    out = {}
    for j, mask in enumerate(masks, start=1):
        vals = mags * mask
        if j in (1, 2):
            slices = _lp_reduce(vals, p, axis=1)
            bound, branch = _slice_bound_regions12(spec, p, brackets, j)
        else:
            slices = _lp_reduce(vals, p, axis=0)
            bound, branch = _slice_bound_regions345(spec, p, brackets, j)
        out[j] = _fitted_constant(slices, bound, branch), slices.max()
    return out


def _dense_tail(grid, spec, c, R, p):
    lat = lattice(grid)
    sep = np.sqrt(_pair_sq_dists(grid)) >= c * lat.norms[:, None]
    mask = sep & (lat.brackets[:, None] >= R) & (lat.brackets[None, :] >= R)
    slices = _lp_reduce(_dense_kernel(grid, spec) * mask, p, axis=1)
    dp = grid.d / p
    if spec.t2 >= -dp:
        bound, branch = lat.brackets**spec.t0, "t2 >= -d/p"
    else:
        bound = lat.brackets**spec.t0 * (1.0 + lat.brackets**spec.t1)
        branch = "t2 < -d/p"
    return _fitted_constant(slices, bound, branch), slices.max()


def _assert_same_fit(got, want, top):
    # numpy may add a masked row in another order, so C moves in its last
    # bits; the residual is rounding noise at the scale of the slices
    assert (got["branch"], got["slices"]) == (want["branch"], want["slices"])
    assert got["C"] == pytest.approx(want["C"], rel=1e-12, abs=0)
    assert abs(got["max_residual"] - want["max_residual"]) <= 1e-12 * top


@pytest.mark.parametrize("d, n", [(1, 64), (1, 256), (2, 16)])
def test_power_kernels_and_masks_are_the_pair_formulas(d, n):
    grid = TorusGrid(d, n)
    for triple in TRIPLES:
        spec = PowerKernelSpec(*triple)
        assert power_kernel(grid, spec).tobytes() == \
            _dense_kernel(grid, spec).tobytes(), triple
    got = omega_masks(grid, 0.5, 8.0).masks
    for mine, dense in zip(got, _dense_masks(grid, 0.5, 8.0)):
        assert mine.tobytes() == dense.tobytes()


@pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
def test_slice_norms_match_one_masked_copy_per_region(p):
    grid = TorusGrid(1, 256)
    regions = omega_masks(grid, 0.5, 8.0)
    masks = _dense_masks(grid, 0.5, 8.0)
    for triple in TRIPLES:
        spec = PowerKernelSpec(*triple)
        got = kernel_slice_norms(spec, regions, p)
        want = _dense_slice_norms(grid, _dense_kernel(grid, spec), masks,
                                  spec, p)
        assert set(got) == set(want) == {1, 2, 3, 4, 5}
        for j in got:
            _assert_same_fit(got[j], *want[j])


@pytest.mark.parametrize("p, triple", TAILS)
def test_tail_slice_norms_match_a_masked_copy(p, triple):
    grid, spec = TorusGrid(1, 256), PowerKernelSpec(*triple)
    _assert_same_fit(tail_slice_norms(grid, spec, 0.5, 4.0, p),
                     *_dense_tail(grid, spec, 0.5, 4.0, p))


@pytest.mark.parametrize("d, n", [(1, 8), (2, 6), (3, 4)])
def test_pairs_read_the_difference_table(d, n):
    grid = TorusGrid(d, n)
    lat = FrequencyLattice(grid)
    pairs = lat.points[:, None, :] - lat.points[None, :, :]
    assert np.array_equal(lat.over_pairs(lat.diff_sq_norms),
                          np.sum(pairs.astype(float) ** 2, axis=-1))
    assert np.array_equal(lat.wrap_index, grid.flat(pairs + n // 2))
    assert lat.wrap_index.flags.c_contiguous


def test_one_dimensional_pairs_are_a_view_of_the_table():
    lat = FrequencyLattice(TorusGrid(1, 256))
    table = np.sqrt(1.0 + lat.diff_sq_norms)
    pairs = lat.over_pairs(table)
    assert table.shape == (511,) and pairs.shape == (256, 256)
    assert np.shares_memory(pairs, table) and not pairs.flags.writeable


def test_pairs_keep_the_kernel_size_limit():
    lat = FrequencyLattice(TorusGrid(1, 8192))
    with pytest.raises(ValueError, match="kernel lattice too large"):
        lat.over_pairs(lat.diff_sq_norms)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
@pytest.mark.parametrize("axis", [0, 1])
def test_masked_reduction_is_the_reduction_of_the_masked_copy(p, axis):
    # rows that overflow, rows whose kept terms underflow, a row whose
    # only large term is masked out, and a row with nothing kept
    rng = np.random.default_rng(5)
    mags = rng.uniform(0.0, 1.0, (6, 7))
    mags[1] *= 1e300
    mags[2] *= 1e-200
    mags[3, 0] = 1e300
    mask = rng.uniform(size=mags.shape) < 0.6
    mask[3, 0] = False
    mask[4] = False
    mags, mask = (np.moveaxis(a, 0, axis) for a in (mags, mask))
    got = _lp_reduce(mags, p, axis=1 - axis, where=mask)
    want = _lp_reduce(mags * mask, p, axis=1 - axis)
    assert np.all(np.isfinite(got)) and got[4] == 0.0
    assert got == pytest.approx(want, rel=1e-14, abs=0)


@pytest.mark.parametrize("p, arrays", [(1.0, 1.5), (np.inf, 1.5),
                                       (2.0, 2.25)])
def test_each_region_is_reduced_in_place(p, arrays):
    # N = 256: one (N, N) float array is 512 KiB.  The kernel is one
    # array and its finiteness check an eighth; at p = 2 the terms
    # kernel**2 are a second.  A masked copy per region would add one
    spec = PowerKernelSpec(0.3, -1.2, -0.7)
    grid = TorusGrid(1, 256)
    regions = omega_masks(grid, 0.5, 8.0)
    kernel_slice_norms(spec, regions, p)
    tracemalloc.start()
    try:
        kernel_slice_norms(spec, regions, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < arrays * 8 * grid.size**2, peak / (8 * grid.size**2)


def test_no_float_pair_array_stays_on_the_lattice():
    grid = TorusGrid(1, 64)
    _verify_slice_norms(None)  # runs on the n = 256 lattice
    omega_masks(grid, 0.5, 8.0)
    tail_slice_norms(grid, PowerKernelSpec(0, 0, -2), 0.5, 4.0, 1.0)
    lattice(grid).wrap_index
    for lat in (lattice(grid), lattice(TorusGrid(1, 256))):
        side = lat.grid.size
        pair_arrays = {name for name, value in vars(lat).items()
                       if getattr(value, "shape", None) == (side, side)}
        assert pair_arrays <= {"wrap_index"}
        assert lat.wrap_index.dtype.kind == "i"
