"""Polynomially moderate weights on the frequency lattice.

Supported kinds:

* ``power``: w(k) = <k>^s = (1+|k|^2)^(s/2), optionally scaled;
* ``block``: product of powers over disjoint coordinate blocks;
* ``table``: explicit positive values on the centered lattice of a grid.

A weight may carry a moderation witness ``v`` (a power weight); whether
w(x+y) <= C w(x) v(y) actually holds is checked numerically by
``check_moderate``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .grid import TorusGrid, lattice

__all__ = ["Weight", "TwoVariableWeight", "check_moderate", "parse_weight"]


@dataclass(frozen=True)
class Weight:
    """Weight function on integer (or real) frequency vectors."""

    kind: str = "power"
    s: float = 0.0
    scale: float = 1.0
    blocks: tuple = ()  # ((axis indices), order) pairs for kind="block"
    table: np.ndarray | None = field(default=None, repr=False, compare=False)
    table_grid: TorusGrid | None = None
    witness: "Weight | None" = None
    # content digest of ``table``: equality and hashing go through it
    table_digest: str | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("power", "block", "table"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.scale <= 0:
            raise ValueError("weight scale must be positive")
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
    def power(s: float, scale: float = 1.0, witness: "Weight | None" = None):
        return Weight(kind="power", s=s, scale=scale, witness=witness)

    @staticmethod
    def block(blocks, scale: float = 1.0):
        """Product of <k_B>^{s_B} over disjoint index blocks B."""
        seen: set = set()
        for axes, _ in blocks:
            if seen & set(axes):
                raise ValueError("blocks must use disjoint coordinates")
            seen |= set(axes)
        return Weight(kind="block", blocks=tuple(
            (tuple(axes), float(order)) for axes, order in blocks
        ), scale=scale)

    @staticmethod
    def from_table(grid: TorusGrid, values) -> "Weight":
        return Weight(kind="table", table=np.asarray(values, dtype=float),
                      table_grid=grid)

    def evaluate_points(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on an (N, d) array of lattice/real points."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.kind == "power":
            br = np.sqrt(1.0 + np.sum(pts**2, axis=-1))
            return self.scale * br**self.s
        if self.kind == "block":
            out = np.full(pts.shape[0], self.scale)
            for axes, order in self.blocks:
                sub = pts[:, list(axes)]
                out *= np.sqrt(1.0 + np.sum(sub**2, axis=-1)) ** order
            return out
        # table: exact lattice lookup
        lat = lattice(self.table_grid)
        n = self.table_grid.n
        ints = np.rint(pts).astype(int)
        if np.any(np.abs(ints - pts) > 1e-9):
            raise ValueError("table weight defined on lattice points only")
        if np.any(ints < -n // 2) or np.any(ints >= n // 2):
            raise ValueError("lattice point outside table range")
        idx = np.ravel_multi_index(tuple((ints + n // 2).T),
                                   self.table_grid.shape)
        return self.scale * self.table[idx]

    def __call__(self, k) -> float:
        return float(self.evaluate_points(np.atleast_2d(k))[0])

    def on_lattice(self, grid: TorusGrid) -> np.ndarray:
        """Weight values over the full centered lattice of a grid."""
        if self.kind == "power":
            return self.scale * lattice(grid).brackets**self.s
        return self.evaluate_points(lattice(grid).points)


@dataclass(frozen=True)
class TwoVariableWeight:
    """Product weight w(x, k) = u(x) * <k>^s reduced to k-sections.

    Kept only so the norm-equivalence across x-sections can be tested;
    all norms consume the k-only section returned by ``section``.
    """

    s: float
    u: Weight  # spatial factor, power kind

    def section(self, x) -> Weight:
        """The k-only weight w(x, .) at a fixed spatial point."""
        return Weight.power(self.s, scale=self.u(np.atleast_1d(x)))


def check_moderate(w: Weight, v: Weight, sample_count: int = 1000,
                   seed: int = 0, window: int = 64, d: int = 1) -> dict:
    """Scan max of w(x+y) / (w(x) v(y)) over lattice pairs.

    Combines ``sample_count`` random pairs from [-window, window]^d with a
    deterministic sweep along the axes (which catches the unbounded
    direction when v is too weak).  Returns max_ratio, the witness pair,
    and a coarse unbounded flag.
    """
    rng = np.random.default_rng(seed)
    xs = rng.integers(-window, window + 1, size=(sample_count, d))
    ys = rng.integers(-window, window + 1, size=(sample_count, d))
    # structured extremes: x = 0 with y sweeping, and x = -y
    sweep = np.arange(-window, window + 1)
    axis = np.zeros((sweep.size, d), dtype=int)
    axis[:, 0] = sweep
    xs = np.vstack([xs, np.zeros_like(axis), axis])
    ys = np.vstack([ys, axis, -axis])

    num = w.evaluate_points(xs + ys)
    den = w.evaluate_points(xs) * v.evaluate_points(ys)
    ratio = num / den
    i = int(np.argmax(ratio))
    return {
        "max_ratio": float(ratio[i]),
        "witness_pair": (xs[i].tolist(), ys[i].tolist()),
        "flagged_unbounded": bool(ratio[i] > 10.0),
    }


def parse_weight(text: str) -> Weight:
    """Parse the CLI weight syntax: "s:<float>" or "table:<path>"."""
    if text.startswith("s:"):
        return Weight.power(float(text[2:]))
    if text.startswith("table:"):
        with open(text[6:]) as fh:
            payload = json.load(fh)
        grid = TorusGrid(int(payload["d"]), int(payload["n"]))
        return Weight.from_table(grid, payload["values"])
    raise ValueError(f"cannot parse weight spec {text!r}")
