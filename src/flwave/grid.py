"""Sampled signals on the d-torus and the discrete Fourier transform.

Grid convention: n equispaced samples per axis on [0, 2*pi), spacing
h = 2*pi/n.  Frequencies live on the centered integer lattice
k in {-n/2, ..., n/2 - 1}^d, enumerated row-major.

Transform normalization: the forward transform carries the prefactor
(2*pi)^(-d/2) * h^d, i.e. a Riemann sum of the continuum integral.
Frequency sums use counting measure.  With this pairing Parseval is
exact on the lattice:

    sum_k |F(k)|^2 = h^d * sum_j |f(x_j)|^2
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

__all__ = [
    "TorusGrid",
    "Signal",
    "Spectrum",
    "FrequencyLattice",
    "forward_transform",
    "inverse_transform",
    "cyclic_convolve",
    "lp_norm",
    "read_signal",
    "write_signal",
]

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid on the d-torus.

    Attributes:
        d: dimension (>= 1)
        n: samples per axis, even, >= 4
    """

    d: int
    n: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be positive, got {self.d}")
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"n must be even and >= 4, got {self.n}")

    @property
    def h(self) -> float:
        """Grid spacing 2*pi/n."""
        return TWO_PI / self.n

    @property
    def size(self) -> int:
        """Total number of samples n^d."""
        return self.n**self.d

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.d

    def sample_points(self) -> np.ndarray:
        """All sample points x_j = h*j, shape (n^d, d), row-major in j."""
        axes = [np.arange(self.n) * self.h for _ in range(self.d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def wrap(self, delta):
        """Shortest periodic offset of ``delta`` (in cells, any shape), in
        [-n/2, n/2); integer for integer ``delta``."""
        return (delta + self.n // 2) % self.n - self.n // 2

    def flat(self, index):
        """Row-major flat position of grid indices, each taken mod n: one
        index of shape (d,) or an array of them, shape (..., d)."""
        index = np.asarray(index)
        return np.ravel_multi_index(tuple(np.moveaxis(index, -1, 0)),
                                    self.shape, mode="wrap")

    def distances(self, center=0) -> np.ndarray:
        """Periodic Euclidean distance in cells from every cell to
        ``center`` (a number or a d-vector, integer or not), row-major:
        wrapped per axis, then broadcast."""
        center = np.broadcast_to(np.asarray(center, dtype=float), (self.d,))
        sq = 0
        for axis, c in enumerate(center):
            delta = self.wrap(np.arange(self.n) - c)
            sq = sq + (delta**2).reshape((-1,) + (1,) * (self.d - 1 - axis))
        return np.sqrt(sq).ravel()

    def cell_distance(self, j1, j2) -> float:
        """Periodic Euclidean distance between grid indices, in cells."""
        delta = self.wrap(np.atleast_1d(np.asarray(j1, dtype=float))
                          - np.atleast_1d(np.asarray(j2, dtype=float)))
        return float(np.sqrt(np.sum(delta**2)))


KERNEL_SIZE_LIMIT = 4096  # arrays over lattice pairs only for small lattices


def kernel_size(grid: TorusGrid) -> int:
    """N, the side of an (N, N) array over the lattice pairs of ``grid``."""
    if grid.size > KERNEL_SIZE_LIMIT:
        raise ValueError(f"kernel lattice too large "
                         f"({grid.size} > {KERNEL_SIZE_LIMIT})")
    return grid.size


def finite_kernel(values: np.ndarray) -> np.ndarray:
    """``values`` of a kernel over lattice pairs, all of them finite."""
    if not np.all(np.isfinite(values)):
        raise ValueError("kernel values must be finite")
    return values


class FrequencyLattice:
    """Centered integer frequency lattice of a grid, with cached geometry.

    Enumerates k in {-n/2, ..., n/2-1}^d row-major; exposes |k|, the
    Japanese bracket <k> = (1+|k|^2)^(1/2) and the table ``diff_sq_norms``
    of |m|^2 over the plain differences m = k - l.  ``over_pairs`` lays
    such a table over the pairs (k, l), for lattices of at most
    KERNEL_SIZE_LIMIT points; ``wrap_index`` is the one array over the
    pairs that stays cached.
    """

    def __init__(self, grid: TorusGrid):
        self.grid = grid
        n, d = grid.n, grid.d
        axis = np.arange(-n // 2, n // 2)
        mesh = np.meshgrid(*([axis] * d), indexing="ij")
        self.points = np.stack([m.ravel() for m in mesh], axis=-1)  # (n^d, d)
        self.norms = np.sqrt(np.sum(self.points.astype(float) ** 2, axis=-1))
        self.brackets = np.sqrt(1.0 + self.norms**2)

    def index_of(self, k):
        """Row-major flat index of a lattice point, or the flat indices of
        the rows of an (M, d) array of lattice points."""
        n = self.grid.n
        k = np.atleast_1d(np.asarray(k, dtype=int))
        rows = np.atleast_2d(k)
        bad = np.any((rows < -n // 2) | (rows >= n // 2), axis=-1)
        if np.any(bad):
            raise ValueError(f"lattice point {rows[bad][0]} out of range "
                             f"for n={n}")
        return self.grid.flat(k + n // 2)

    def _differences(self) -> np.ndarray:
        """Every plain difference m = k - l in (-n, n)^d, shape
        (2n-1, ..., 2n-1, d)."""
        axis = np.arange(1 - self.grid.n, self.grid.n)
        return np.stack(np.meshgrid(*([axis] * self.grid.d), indexing="ij"),
                        axis=-1)

    @cached_property
    def diff_sq_norms(self) -> np.ndarray:
        """|m|^2 over the plain differences m = k - l, shape (2n-1,)*d."""
        return np.sum(self._differences().astype(float) ** 2, axis=-1)

    def over_pairs(self, table: np.ndarray) -> np.ndarray:
        """``table[k - l]`` over the lattice pairs (N, N), row k and column
        l, for a table over the plain differences (shape (2n-1,)*d).

        At d = 1 this is a read-only strided view of the table, with no
        copy; above d = 1 it is one copy.
        """
        n, d, size = self.grid.n, self.grid.d, kernel_size(self.grid)
        # windows[a, b] = table[a + b] per axis; with b reversed it is
        # table[a - b + n-1] = table[k - l + n-1] at a = k + n/2, b = l + n/2
        windows = np.lib.stride_tricks.sliding_window_view(table, (n,) * d)
        back = (Ellipsis,) + (slice(None, None, -1),) * d
        return windows[back].reshape(size, size)

    @cached_property
    def wrap_index(self) -> np.ndarray:
        """Flat index of wrap(k - l) over lattice pairs (N, N)."""
        return np.ascontiguousarray(self.over_pairs(
            self.grid.flat(self._differences() + self.grid.n // 2)))


@cache
def lattice(grid: TorusGrid) -> FrequencyLattice:
    """Shared FrequencyLattice for a grid (cached)."""
    return FrequencyLattice(grid)


@dataclass(frozen=True)
class Signal:
    """Complex samples on a torus grid, row-major over grid indices.

    Read-only, so derived values are cached: a complex array that owns
    its data is taken over (a later write by the caller raises), a view
    the caller could write through is copied.
    """

    grid: TorusGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        root = vals = np.asarray(self.values, dtype=complex)
        while isinstance(root.base, np.ndarray):
            root = root.base
        if vals.base is not None and root.flags.writeable:
            vals = vals.copy()
        flat = vals.ravel()
        if flat.size != self.grid.size:
            raise ValueError(
                f"expected {self.grid.size} samples, got {flat.size}"
            )
        if not np.all(np.isfinite(flat)):
            raise ValueError("signal values must be finite")
        vals.flags.writeable = flat.flags.writeable = False
        object.__setattr__(self, "values", flat)

    @cached_property
    def peak_off_origin(self) -> float:
        """Largest |F(k)| off k = 0: the global scale of wave-front floors."""
        mags = np.abs(forward_transform(self).coeffs)
        mags.reshape(self.grid.shape)[(self.grid.n // 2,) * self.grid.d] = 0
        return float(mags.max())

    def reshaped(self) -> np.ndarray:
        return self.values.reshape(self.grid.shape)

    def __add__(self, other: "Signal") -> "Signal":
        _check_same_grid(self.grid, other.grid)
        return Signal(self.grid, self.values + other.values)

    def __sub__(self, other: "Signal") -> "Signal":
        _check_same_grid(self.grid, other.grid)
        return Signal(self.grid, self.values - other.values)

    def __mul__(self, other):
        if isinstance(other, Signal):
            _check_same_grid(self.grid, other.grid)
            return Signal(self.grid, self.values * other.values)
        return Signal(self.grid, self.values * other)

    __rmul__ = __mul__


@dataclass(frozen=True)
class Spectrum:
    """DFT coefficients on the centered frequency lattice, row-major."""

    grid: TorusGrid
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        co = np.asarray(self.coeffs, dtype=complex).ravel()
        if co.size != self.grid.size:
            raise ValueError(
                f"expected {self.grid.size} coefficients, got {co.size}"
            )
        if not np.all(np.isfinite(co)):
            raise ValueError("spectrum coefficients must be finite")
        object.__setattr__(self, "coeffs", co)

    def reshaped(self) -> np.ndarray:
        return self.coeffs.reshape(self.grid.shape)


def _check_same_grid(g1: TorusGrid, g2: TorusGrid):
    if g1 != g2:
        raise ValueError(f"grid mismatch: {g1} vs {g2}")


def _prefactor(grid: TorusGrid) -> float:
    return (TWO_PI ** (-grid.d / 2.0)) * grid.h**grid.d


def forward_transform(f: Signal) -> Spectrum:
    """Forward DFT: F(k) = (2*pi)^(-d/2) h^d sum_j f(x_j) e^(-i k.x_j)."""
    spec = np.fft.fftshift(np.fft.fftn(f.reshaped()))
    return Spectrum(f.grid, spec.ravel() * _prefactor(f.grid))


def inverse_transform(F: Spectrum) -> Signal:
    """Inverse of forward_transform (exact round trip up to rounding)."""
    vals = np.fft.ifftn(np.fft.ifftshift(F.reshaped()))
    return Signal(F.grid, vals.ravel() / _prefactor(F.grid))


def cyclic_convolve(f: Signal, g: Signal) -> Signal:
    """Periodic convolution (f*g)(x_j) = h^d sum_l f(x_l) g(x_{j-l}).

    Satisfies the spectral identity F(f*g) = (2*pi)^(d/2) F(f).F(g).
    """
    _check_same_grid(f.grid, g.grid)
    return Signal(f.grid, _convolve_rows(f.grid, f.values[None],
                                         g.values[None])[0])


def _transform_rows(grid: TorusGrid, values: np.ndarray) -> np.ndarray:
    """forward_transform of each row of a (T, n^d) value stack."""
    axes = tuple(range(1, grid.d + 1))
    spec = np.fft.fftn(values.reshape((-1,) + grid.shape), axes=axes)
    return np.fft.fftshift(spec, axes=axes).reshape(len(values), -1) \
        * _prefactor(grid)


def _convolve_rows(grid: TorusGrid, v1: np.ndarray,
                   v2: np.ndarray) -> np.ndarray:
    """cyclic_convolve of each pair of rows of two (T, n^d) value stacks."""
    axes, shape = tuple(range(1, grid.d + 1)), (-1,) + grid.shape
    fa, ga = (np.fft.fftn(v.reshape(shape), axes=axes) for v in (v1, v2))
    return (np.fft.ifftn(fa * ga, axes=axes) * grid.h**grid.d).reshape(
        len(v1), -1)


_TINY = np.finfo(float).tiny  # the smallest normal float


def _lp_reduce(mags: np.ndarray, p: float, axis: int = -1,
               where=True) -> np.ndarray:
    """l^p norm of magnitudes along ``axis`` (the max at p = inf).

    Only the terms where the boolean ``where`` (broadcast against
    ``mags``) holds count, every term by default: a region of a kernel is
    reduced in place, with no masked copy.  The mask goes to every
    reduction and guard below.

    Where the plain sum of mags**p overflows, or at p > 1 underflows below
    the normal floats over nonzero terms, terms are rescaled by their max.
    The root is ``np.float_power``, the libm ``pow`` of a scalar ``**``
    (an array ``**`` may take a SIMD ``pow`` off in the last bit).  The
    reductions are the bare ufunc ones of ``np.sum`` and ``np.max``: this
    runs several times on every trial stack.
    """
    if math.isinf(p):
        return np.maximum.reduce(mags, axis=axis, where=where, initial=0.0)
    with np.errstate(over="ignore"):
        # mags**1 would be a copy of mags
        sums = np.add.reduce(mags if p == 1 else mags**p, axis=axis,
                             where=where)
        total = np.add.reduce(sums, axis=None)
    norms = np.float_power(sums, 1.0 / p)
    # a finite total means every sum is finite
    redo = None if total < np.inf else np.isinf(sums)
    if p > 1 and np.fmin.reduce(sums, axis=None) < _TINY:
        low = sums < _TINY  # 0, or subnormal with few digits
        # rows of zeros are exact; only low rows with a nonzero term redo
        if _kept_rows(mags, where, axis, low).any():
            under = low & (np.maximum.reduce(mags, axis=axis, where=where,
                                             initial=0.0) > 0)
            redo = under if redo is None else redo | under
    if redo is None or not redo.any():
        return norms
    norms = np.array(norms)
    rows = _kept_rows(mags, where, axis, redo)
    peak = np.max(rows, axis=-1, keepdims=True)
    norms[redo] = peak[..., 0] * np.float_power(
        np.sum((rows / peak)**p, axis=-1), 1.0 / p)
    return norms


def _kept_rows(mags: np.ndarray, where, axis: int, pick) -> np.ndarray:
    """The rows of ``mags`` along ``axis`` that ``pick`` selects, with the
    terms off ``where`` set to 0."""
    rows = np.moveaxis(mags, axis, -1)[pick]
    if where is True:
        return rows
    return rows * np.moveaxis(np.broadcast_to(where, mags.shape), axis,
                              -1)[pick]


def lp_norm(f: Signal, p: float) -> float:
    """L^p norm (h^d sum_j |f(x_j)|^p)^(1/p); max norm at p=inf.

    The L^p side of the lattice Parseval identity and of Young's
    convolution inequality (the transform's normalization pairs h^d on
    the samples with counting measure on frequencies).
    """
    if p < 1:
        raise ValueError(f"exponent must satisfy p >= 1, got {p}")
    return float(f.grid.h ** (f.grid.d / p) * _lp_reduce(np.abs(f.values), p))


# ---------------------------------------------------------------------------
# Signal file formats
# ---------------------------------------------------------------------------

_MAGIC = b"FLW1"


def write_signal(f: Signal, path: str):
    """Write a signal as JSON ({"d","n","re","im"}) to a path ending in
    .json, else as FLW1 binary."""
    if str(path).endswith(".json"):
        payload = {
            "d": f.grid.d,
            "n": f.grid.n,
            "re": f.values.real.tolist(),
            "im": f.values.imag.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
    else:
        # 16-byte header: magic, u32 d, u32 n, u32 reserved; then
        # interleaved little-endian float64 re/im pairs.
        header = _MAGIC + struct.pack("<III", f.grid.d, f.grid.n, 0)
        inter = np.empty(2 * f.values.size, dtype="<f8")
        inter[0::2] = f.values.real
        inter[1::2] = f.values.imag
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(inter.tobytes())


def _read_json_object(path: str, keys) -> dict:
    """The JSON object in a file; ValueError unless it holds every key."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: not a JSON object but a "
                         f"{type(payload).__name__}")
    for key in keys:
        if key not in payload:
            raise ValueError(f"{path}: missing key {key!r}")
    return payload


def read_signal(path: str) -> Signal:
    """Read a signal written by write_signal."""
    if str(path).endswith(".json"):
        payload = _read_json_object(path, ("d", "n", "re", "im"))
        grid = TorusGrid(int(payload["d"]), int(payload["n"]))
        vals = np.asarray(payload["re"], dtype=float) + 1j * np.asarray(
            payload["im"], dtype=float
        )
        return Signal(grid, vals)
    with open(path, "rb") as fh:
        header = fh.read(16)
        if header[:4] != _MAGIC:
            raise ValueError("bad magic; not an FLW1 signal file")
        d, n, _ = struct.unpack("<III", header[4:])
        inter = np.frombuffer(fh.read(), dtype="<f8")
    grid = TorusGrid(int(d), int(n))
    return Signal(grid, inter[0::2] + 1j * inter[1::2])


# ---------------------------------------------------------------------------
# Convenience constructors used throughout the tests and the corpus
# ---------------------------------------------------------------------------


def zero_signal(grid: TorusGrid) -> Signal:
    return Signal(grid, np.zeros(grid.size, dtype=complex))


def single_mode(grid: TorusGrid, k) -> Signal:
    """Pure mode e^(i k.x) on the grid."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    pts = grid.sample_points()
    return Signal(grid, np.exp(1j * pts @ k))


def impulse(grid: TorusGrid, j=None, value: complex = 1.0) -> Signal:
    """Signal with a single nonzero sample at grid index j (default 0)."""
    vals = np.zeros(grid.size, dtype=complex)
    if j is None:
        j = (0,) * grid.d
    vals[grid.flat(np.atleast_1d(np.asarray(j, dtype=int)))] = value
    return Signal(grid, vals)


def random_signal(grid: TorusGrid, rng: np.random.Generator) -> Signal:
    """Complex Gaussian white signal."""
    vals = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    return Signal(grid, vals)
