"""Seeded per-trial random streams and adversarial instance generators.

Each trial derives its own generator from (master seed XOR trial index);
checks draw their trials in order into stacks, one row per trial, and
evaluate each stack as one array.  Random instances are complex Gaussian
with one-hot and heavy-tail adversaries mixed in at roughly ten percent
each, to exercise the equality cases of the Hoelder-type bounds.
"""

from __future__ import annotations

import numpy as np

from .grid import TorusGrid
from .norms import KernelGrid

__all__ = ["trial_rng", "random_coeffs", "random_kernel", "trial_stacks"]

# Bytes of instances per stack.  Stacking only saves per-call overhead,
# which small instances need, and a check's temporaries take a few times
# this; a kernel above it (n^d above about 90) is stacked alone.
STACK_BYTES = 1 << 17


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.uint64(seed) ^ np.uint64(trial))


def random_coeffs(grid: TorusGrid, rng: np.random.Generator) -> np.ndarray:
    """Coefficient array on the lattice: Gaussian / one-hot / heavy-tail."""
    N = grid.size
    kind = rng.integers(0, 10)
    if kind == 0:
        out = np.zeros(N, dtype=complex)
        out[rng.integers(0, N)] = rng.standard_normal() + 1j * rng.standard_normal()
        return out
    if kind == 1:
        mags = rng.pareto(1.5, size=N) + 0.01
        phases = rng.uniform(0, 2 * np.pi, size=N)
        return mags * np.exp(1j * phases)
    return rng.standard_normal(N) + 1j * rng.standard_normal(N)


def random_kernel(grid: TorusGrid, rng: np.random.Generator) -> KernelGrid:
    N = grid.size
    kind = rng.integers(0, 10)
    if kind == 0:
        vals = np.zeros((N, N), dtype=complex)
        vals[rng.integers(0, N), rng.integers(0, N)] = 1.0
        return KernelGrid(grid, vals)
    if kind == 1:
        mags = rng.pareto(1.5, size=(N, N)) + 0.01
        phases = rng.uniform(0, 2 * np.pi, size=(N, N))
        return KernelGrid(grid, mags * np.exp(1j * phases))
    vals = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    return KernelGrid(grid, vals)


def trial_stacks(grid: TorusGrid, seed: int, trials: range, coeffs: int,
                 kernel: bool = False):
    """Instances of the given trials, drawn in order, as row stacks.

    Trial t draws a kernel (with ``kernel``), then ``coeffs`` coefficient
    arrays, from ``trial_rng(seed, t)``.  Yields the kernels (T, N, N) and
    coefficient stacks (T, N) of each run of trials within STACK_BYTES.
    """
    N = grid.size
    step = max(1, STACK_BYTES // (16 * N * (coeffs + N * kernel)))
    for lo in range(0, len(trials), step):
        draws = [([random_kernel(grid, rng).values] if kernel else [])
                 + [random_coeffs(grid, rng) for _ in range(coeffs)]
                 for rng in (trial_rng(seed, t) for t in trials[lo:lo + step])]
        yield tuple(np.stack(stack) for stack in zip(*draws))
