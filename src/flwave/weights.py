"""Polynomially moderate weights on the frequency lattice.

Supported kinds:

* ``power``: w(k) = <k>^s = (1+|k|^2)^(s/2);
* ``table``: explicit positive values on the centered lattice of a grid.

Whether a weight is moderate, w(k+l) <= C w1(k) w2(l), is scanned over
every lattice pair by ``calculus.moderation_constant``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .grid import TorusGrid, _read_json_object, lattice

__all__ = ["Weight", "parse_weight"]


@dataclass(frozen=True)
class Weight:
    """Weight function on integer (or real) frequency vectors."""

    kind: str = "power"
    s: float = 0.0
    table: np.ndarray | None = field(default=None, repr=False, compare=False)
    table_grid: TorusGrid | None = None
    # content digest of ``table``: equality and hashing go through it
    table_digest: str | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("power", "table"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.kind == "table":
            if self.table is None or self.table_grid is None:
                raise ValueError("table weight needs table and table_grid")
            tab = np.asarray(self.table, dtype=float).ravel()
            if tab.size != self.table_grid.size:
                raise ValueError("table size does not match grid")
            if np.any(tab <= 0):
                raise ValueError("weights must be strictly positive")
            object.__setattr__(self, "table", tab)
            object.__setattr__(self, "table_digest",
                               hashlib.sha256(tab.tobytes()).hexdigest())

    @staticmethod
    def power(s: float) -> "Weight":
        return Weight(kind="power", s=s)

    @staticmethod
    def from_table(grid: TorusGrid, values) -> "Weight":
        return Weight(kind="table", table=np.asarray(values, dtype=float),
                      table_grid=grid)

    def evaluate_points(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on an (N, d) array of lattice/real points."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.kind == "power":
            return np.sqrt(1.0 + np.sum(pts**2, axis=-1))**self.s
        # table: exact lattice lookup
        ints = np.rint(pts).astype(int)
        if np.any(np.abs(ints - pts) > 1e-9):
            raise ValueError("table weight defined on lattice points only")
        return self.table[lattice(self.table_grid).index_of(ints)]

    def __call__(self, k) -> float:
        return float(self.evaluate_points(np.atleast_2d(k))[0])

    def on_lattice(self, grid: TorusGrid) -> np.ndarray:
        """Weight values over the full centered lattice of a grid."""
        if self.kind == "power":
            return lattice(grid).brackets**self.s
        return self.evaluate_points(lattice(grid).points)


def parse_weight(text: str) -> Weight:
    """Parse the CLI weight syntax: "s:<float>" or "table:<path>"."""
    if text.startswith("s:"):
        return Weight.power(float(text[2:]))
    if text.startswith("table:"):
        payload = _read_json_object(text[6:], ("d", "n", "values"))
        grid = TorusGrid(int(payload["d"]), int(payload["n"]))
        return Weight.from_table(grid, payload["values"])
    raise ValueError(f"cannot parse weight spec {text!r}")
