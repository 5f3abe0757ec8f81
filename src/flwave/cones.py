"""Conic frequency regions and the five-region kernel decomposition.

Cones are angular: an axis direction plus a half-angle aperture.  An
aperture of pi means the full punctured space (every k != 0 belongs);
otherwise membership is strict: angle(axis, k) < aperture.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import TorusGrid, lattice

__all__ = ["Cone", "cone_mask", "RegionMask", "omega_masks", "parse_direction"]

FULL_APERTURE = np.pi


@dataclass(frozen=True)
class Cone:
    """Open cone in R^d minus 0: unit axis and half-angle aperture."""

    axis: tuple
    aperture: float

    def __post_init__(self):
        ax = np.atleast_1d(np.asarray(self.axis, dtype=float))
        norm = np.linalg.norm(ax)
        if abs(norm - 1.0) > 1e-12:
            if norm == 0:
                raise ValueError("cone axis must be nonzero")
            ax = ax / norm
        if not (0 < self.aperture <= np.pi):
            raise ValueError(
                f"aperture must lie in (0, pi], got {self.aperture}"
            )
        object.__setattr__(self, "axis", tuple(float(a) for a in ax))


def cone_mask(grid: TorusGrid, c: Cone) -> np.ndarray:
    """Boolean mask over the centered lattice; origin always False."""
    if len(c.axis) != grid.d:
        raise ValueError(f"cone axis has {len(c.axis)} components, the "
                         f"grid has d = {grid.d}")
    lat = lattice(grid)
    nonzero = lat.norms > 0
    if c.aperture >= FULL_APERTURE - 1e-12:
        return nonzero
    axis = np.asarray(c.axis)
    with np.errstate(invalid="ignore", divide="ignore"):
        cosang = (lat.points @ axis) / np.where(lat.norms > 0, lat.norms, 1.0)
    ang = np.arccos(np.clip(cosang, -1.0, 1.0))
    return nonzero & (ang < c.aperture)


def parse_direction(text: str) -> tuple:
    """CLI direction syntax: "dir:<theta>" (planar angle in radians) or
    "axis:x1,...,xd" (any nonzero vector, normalized here)."""
    if text.startswith("dir:"):
        theta = float(text[4:])
        return (float(np.cos(theta)), float(np.sin(theta)))
    if text.startswith("axis:"):
        vec = np.asarray([float(v) for v in text[5:].split(",")])
        norm = np.linalg.norm(vec)
        if norm == 0:
            raise ValueError("direction axis must be nonzero")
        return tuple(float(v) for v in vec / norm)
    raise ValueError(f"cannot parse direction spec {text!r}")


@dataclass(frozen=True)
class RegionMask:
    """Boolean masks over (k, l) pairs for the five kernel regions.

    Index [k_flat, l_flat]; differences k - l are plain integer vectors
    (no periodic wrap), matching the continuum region definitions.
    """

    grid: TorusGrid
    delta: float
    R: float
    masks: tuple = field(repr=False)  # five (N, N) boolean arrays


def omega_masks(grid: TorusGrid, delta: float, R: float) -> RegionMask:
    """Build the five frequency-pair regions used by the product bounds.

    The second region drops its overlap with the first and ties between
    regions 4 and 5 resolve to region 4, so the five masks tile all pairs
    exactly once.
    """
    if not (0 < delta < 1):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if R < 4.0 / delta:
        raise ValueError(f"R must be >= 4/delta = {4.0 / delta}, got {R}")

    lat = lattice(grid)
    k_abs = lat.norms[:, None]  # |k|, broadcast over l
    k_br = lat.brackets[:, None]  # <k>
    l_br = lat.brackets[None, :]  # <l>
    kl_br = lat.over_pairs(np.sqrt(1.0 + lat.diff_sq_norms))  # <k - l>

    om1 = l_br < delta * k_br
    om2 = (kl_br < delta * k_br) & ~om1
    low = delta * k_br <= np.minimum(l_br, kl_br)
    om3 = low & (k_abs <= R)
    om4 = low & (k_abs > R) & (kl_br <= l_br)
    om5 = low & (k_abs > R) & (l_br <= kl_br) & ~om4
    return RegionMask(grid, delta, R, (om1, om2, om3, om4, om5))
