"""Cone membership and the five-region frequency-pair decomposition."""

import numpy as np
import pytest

from flwave.cones import FULL_APERTURE, Cone, cone_mask, omega_masks
from flwave.grid import TorusGrid, lattice


def contains(c: Cone, k) -> bool:
    """Reference membership of one lattice point k != 0, for cone_mask."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    norm = np.linalg.norm(k)
    if norm == 0:
        raise ValueError("cone membership is undefined at the origin")
    if c.aperture >= FULL_APERTURE - 1e-12:
        return True
    cosang = np.clip(np.dot(c.axis, k) / norm, -1.0, 1.0)
    return bool(np.arccos(cosang) < c.aperture)


def _member(c: Cone, k) -> bool:
    """cone_mask's entry at k, checked against the reference."""
    g = TorusGrid(len(k), 16)
    got = bool(cone_mask(g, c)[lattice(g).index_of(k)])
    assert got == contains(c, k)
    return got


def test_full_cone_contains_everything():
    c = Cone((1.0, 0.0), np.pi)
    for k in [(1, 0), (0, 5), (-3, -2), (-1, 0)]:
        assert _member(c, k)


def test_orthogonal_excluded():
    c = Cone((1.0, 0.0), np.pi / 6)
    assert not _member(c, (0, 5))


def test_diagonal_membership():
    c = Cone((1 / np.sqrt(2), 1 / np.sqrt(2)), np.pi / 4)
    # angle((1,1)/sqrt2, (3,1)) ~ 26.57 degrees < 45
    assert _member(c, (3, 1))
    assert not _member(c, (-3, 1))


def test_origin_rejected():
    with pytest.raises(ValueError):
        contains(Cone((1.0,), np.pi / 2), (0,))
    g = TorusGrid(1, 16)
    assert not cone_mask(g, Cone((1.0,), np.pi))[lattice(g).index_of((0,))]


def test_axis_normalized():
    c = Cone((3.0, 4.0), np.pi / 2)
    assert np.isclose(np.hypot(*c.axis), 1.0)


def test_mask_matches_pointwise():
    g = TorusGrid(2, 8)
    c = Cone((0.6, 0.8), np.pi / 5)
    mask = cone_mask(g, c)
    lat = lattice(g)
    for i, k in enumerate(lat.points):
        if np.all(k == 0):
            assert not mask[i]
        else:
            assert mask[i] == contains(c, k)


def test_omega_mask_examples():
    g = TorusGrid(2, 32)
    regions = omega_masks(g, delta=0.5, R=8.0)
    lat = lattice(g)

    def flat(k):
        return lat.index_of(k)

    # <l> < delta <k> puts ((10,0),(1,0)) in the first region
    i, j = flat((10, 0)), flat((1, 0))
    assert regions.masks[0][i, j]
    # small |k| with both brackets large lands in the third region
    i, j = flat((2, 0)), flat((15, 0))
    assert regions.masks[2][i, j]


def test_omega_masks_partition_1d():
    g = TorusGrid(1, 16)
    regions = omega_masks(g, delta=0.5, R=8.0)
    total = sum(m.astype(int) for m in regions.masks)
    assert np.all(total == 1)


def test_omega_masks_partition_2d():
    g = TorusGrid(2, 8)
    regions = omega_masks(g, delta=0.5, R=8.0)
    total = sum(m.astype(int) for m in regions.masks)
    assert np.all(total == 1)


def test_omega_masks_parameter_validation():
    g = TorusGrid(1, 16)
    with pytest.raises(ValueError):
        omega_masks(g, delta=1.5, R=8.0)
    with pytest.raises(ValueError):
        omega_masks(g, delta=0.5, R=4.0)  # R below 4/delta


def test_aperture_monotonicity():
    g = TorusGrid(2, 16)
    small = cone_mask(g, Cone((1.0, 0.0), np.pi / 8))
    large = cone_mask(g, Cone((1.0, 0.0), np.pi / 4))
    assert np.all(large[small])
    assert np.count_nonzero(small) < np.count_nonzero(large)
