"""Seeded blocks of random trials and adversarial instance generators.

A target's trials come in blocks of BLOCK.  Block b holds trials
b*BLOCK ... (b+1)*BLOCK - 1 and is drawn from its own generator keyed by
(seed, target, b), the counter-based scheme of Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3" (SC'11).  The generator draws the
block in chunks of consecutive trials, one array per kind of draw in each,
so that one draw holds at most CHUNK_VALUES values (or one trial's, if
more).  Trial t is row t % BLOCK of block t // BLOCK, so one trial is
redrawn from its block alone, and different seeds or targets draw
different trials.  Checks evaluate the trials in order as row stacks.
Random instances are complex Gaussian with one-hot and heavy-tail
adversaries mixed in at roughly ten percent each, to exercise the
equality cases of the Hoelder-type bounds.
"""

from __future__ import annotations

import zlib

import numpy as np

from .grid import TorusGrid, finite_kernel, kernel_size

__all__ = ["trial_rng", "gaussian", "random_coeffs", "random_kernel",
           "block_chunks", "trial_stacks", "gaussian_trials"]

# Trials per block.  The block is the unit of seeding, so it must not
# depend on STACK_BYTES: a trial's instance would then depend on it too.
BLOCK = 50

# Values per chunk of a block.  A chunk's arrays and their temporaries
# take a few times 16 bytes per value, whatever BLOCK is; a trial above
# half of it (a kernel's at n^d above about 180) is drawn alone.
CHUNK_VALUES = 1 << 16

# Bytes of instances per stack.  Stacking only saves per-call overhead,
# which small instances need, and a check's temporaries take a few times
# this; a kernel above it (n^d above about 90) is stacked alone.
STACK_BYTES = 1 << 17


def trial_rng(seed: int, target: str, block: int) -> np.random.Generator:
    """The generator of one block of a target's trials.  A target is
    keyed by the CRC-32 of its name, which every process computes alike."""
    return np.random.default_rng([seed, zlib.crc32(target.encode()), block])


def gaussian(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Standard complex Gaussian values (real and imaginary parts N(0, 1))."""
    return rng.standard_normal((*shape, 2)).view(complex)[..., 0]


def _mixture(rng: np.random.Generator, rows: int, size: int) -> np.ndarray:
    """(rows, size) instances, each of one kind: one-hot (kind 0), heavy
    tail (kind 1) or Gaussian; each kind's rows are drawn as one array.

    The Gaussian rows, drawn as ``gaussian`` draws them, and then the
    heavy rows, formed in place by the same operations as on whole
    arrays, are written into the leading rows of the output and then
    moved to their places.  Only rows that move are copied, and a single
    row (a large kernel) never moves, so it is never held twice.
    """
    kind = rng.integers(0, 10, size=rows)
    gauss = np.count_nonzero(kind >= 2)
    places = np.concatenate([np.flatnonzero(kind >= 2),
                             np.flatnonzero(kind == 1)])
    out = np.empty((rows, size), dtype=complex)
    rng.standard_normal(out=out[:gauss].view(float))
    heavy = out[gauss:places.size]
    moduli = rng.pareto(1.5, size=heavy.shape)
    moduli += 0.01
    np.exp(np.multiply(1j, rng.uniform(0, 2 * np.pi, size=heavy.shape),
                       out=heavy), out=heavy)
    heavy *= moduli
    moves = places != np.arange(places.size)
    out[places[moves]] = out[:places.size][moves]
    hot = np.flatnonzero(kind == 0)
    out[hot] = 0.0
    out[hot, rng.integers(0, size, size=hot.size)] = gaussian(rng, hot.size)
    return out


def random_coeffs(grid: TorusGrid, rng: np.random.Generator,
                  rows: int) -> np.ndarray:
    """(rows, N) coefficient arrays on the lattice: Gaussian / one-hot /
    heavy-tail."""
    return _mixture(rng, rows, grid.size)


def random_kernel(grid: TorusGrid, rng: np.random.Generator,
                  rows: int) -> np.ndarray:
    """(rows, N, N) kernels over lattice pairs, checked once as a stack."""
    N = kernel_size(grid)
    return finite_kernel(_mixture(rng, rows, N * N).reshape(rows, N, N))


def block_chunks(grid: TorusGrid, seed: int, target: str, block: int,
                 coeffs: int, kernel: bool):
    """The instances of one block of trials, in order, chunk by chunk.

    Each chunk is drawn after the last from the block's generator: with
    ``kernel`` a kernel stack (T, N, N), then ``coeffs`` coefficient
    stacks (T, N), with T trials of at most CHUNK_VALUES values in all.
    """
    N = grid.size
    step = min(BLOCK, max(1, CHUNK_VALUES // (N * (coeffs + N * kernel))))
    rng = trial_rng(seed, target, block)
    for lo in range(0, BLOCK, step):
        rows = min(step, BLOCK - lo)
        kernels = (random_kernel(grid, rng, rows),) if kernel else ()
        yield kernels + tuple(random_coeffs(grid, rng, coeffs * rows).reshape(
            coeffs, rows, N))


def _trial_chunks(grid: TorusGrid, seed: int, target: str, trials: range,
                  coeffs: int, kernel: bool):
    """The chunks holding the given trials, cut to them."""
    if not trials:
        return
    first = trials.start - trials.start % BLOCK  # of the next chunk
    for b in range(trials.start // BLOCK, -(-trials.stop // BLOCK)):
        for chunk in block_chunks(grid, seed, target, b, coeffs, kernel):
            lo, first = first, first + len(chunk[0])
            if first > trials.start:
                yield tuple(a[max(trials.start - lo, 0):trials.stop - lo]
                            for a in chunk)
            if first >= trials.stop:
                return


def trial_stacks(grid: TorusGrid, seed: int, target: str, trials: range,
                 coeffs: int, kernel: bool = False):
    """Instances of the given trials, in order, as row stacks.

    Trial t is row t % BLOCK of block t // BLOCK (see ``block_chunks``).
    Yields the kernels (T, N, N) and coefficient stacks (T, N) of each run
    of consecutive trials within STACK_BYTES (at least one trial), cut
    from the chunks.
    """
    N = grid.size
    step = max(1, STACK_BYTES // (16 * N * (coeffs + N * kernel)))
    rest = ()  # rows drawn and not yet yielded
    for chunk in _trial_chunks(grid, seed, target, trials, coeffs, kernel):
        rest = tuple(np.concatenate(p) for p in zip(rest, chunk)) \
            if rest and len(rest[0]) else chunk
        while len(rest[0]) >= step:
            yield tuple(a[:step] for a in rest)
            rest = tuple(a[step:] for a in rest)
    if rest and len(rest[0]):
        yield rest


def gaussian_trials(seed: int, target: str, trials: range, size: int):
    """Each of the given trials' row of ``size`` standard complex Gaussian
    values; trial t is row t % BLOCK of its block's one draw."""
    for b in range(trials.start // BLOCK, -(-trials.stop // BLOCK)):
        rows = gaussian(trial_rng(seed, target, b), BLOCK, size)
        yield from rows[max(trials.start - b * BLOCK, 0):
                        trials.stop - b * BLOCK]
