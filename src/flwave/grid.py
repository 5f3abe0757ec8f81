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
import struct
from dataclasses import dataclass, field
from functools import cached_property

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

    def cell_distance(self, j1, j2) -> float:
        """Periodic Euclidean distance between grid indices, in cells."""
        j1 = np.atleast_1d(np.asarray(j1, dtype=float))
        j2 = np.atleast_1d(np.asarray(j2, dtype=float))
        delta = (j1 - j2 + self.n / 2) % self.n - self.n / 2
        return float(np.sqrt(np.sum(delta**2)))


class FrequencyLattice:
    """Centered integer frequency lattice of a grid, with cached geometry.

    Enumerates k in {-n/2, ..., n/2-1}^d row-major; exposes |k| and
    the Japanese bracket <k> = (1+|k|^2)^(1/2).
    """

    def __init__(self, grid: TorusGrid):
        self.grid = grid
        n, d = grid.n, grid.d
        axis = np.arange(-n // 2, n // 2)
        mesh = np.meshgrid(*([axis] * d), indexing="ij")
        self.points = np.stack([m.ravel() for m in mesh], axis=-1)  # (n^d, d)
        self.norms = np.sqrt(np.sum(self.points.astype(float) ** 2, axis=-1))
        self.brackets = np.sqrt(1.0 + self.norms**2)

    def index_of(self, k) -> int:
        """Row-major flat index of a lattice point."""
        n = self.grid.n
        k = np.atleast_1d(np.asarray(k, dtype=int))
        if np.any(k < -n // 2) or np.any(k >= n // 2):
            raise ValueError(f"lattice point {k} out of range for n={n}")
        return int(np.ravel_multi_index(tuple(k + n // 2), self.grid.shape))


_LATTICE_CACHE: dict = {}


def lattice(grid: TorusGrid) -> FrequencyLattice:
    """Shared FrequencyLattice for a grid (cached; immutable)."""
    key = (grid.d, grid.n)
    if key not in _LATTICE_CACHE:
        _LATTICE_CACHE[key] = FrequencyLattice(grid)
    return _LATTICE_CACHE[key]


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


def lp_norm(f: Signal, p: float, spatial_weight=None) -> float:
    """Weighted L^p norm (h^d sum_j |f(x_j) w(x_j)|^p)^(1/p); max norm at p=inf.

    ``spatial_weight`` is evaluated at the sample points x_j (a Weight of
    power kind, or any callable mapping an (N, d) array to positive values).
    """
    if p < 1:
        raise ValueError(f"exponent must satisfy p >= 1, got {p}")
    mags = np.abs(f.values)
    if spatial_weight is not None:
        pts = f.grid.sample_points()
        if hasattr(spatial_weight, "evaluate_points"):
            w = spatial_weight.evaluate_points(pts)
        else:
            w = np.asarray(spatial_weight(pts), dtype=float)
        mags = mags * w
    peak = float(np.max(mags)) if mags.size else 0.0
    if np.isinf(p) or peak == 0.0:
        return peak
    # scaled by the peak, so that mags**p cannot overflow
    hd = f.grid.h**f.grid.d
    return float(peak * (hd * np.sum((mags / peak) ** p)) ** (1.0 / p))


# ---------------------------------------------------------------------------
# Signal file formats
# ---------------------------------------------------------------------------

_MAGIC = b"FLW1"


def write_signal(f: Signal, path: str, fmt: str | None = None):
    """Write a signal as JSON ({"d","n","re","im"}) or FLW1 binary.

    Format is inferred from the extension (.json -> JSON) unless given
    explicitly as ``fmt`` in {"json", "bin"}.
    """
    fmt = fmt or ("json" if str(path).endswith(".json") else "bin")
    if fmt == "json":
        payload = {
            "d": f.grid.d,
            "n": f.grid.n,
            "re": f.values.real.tolist(),
            "im": f.values.imag.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
    elif fmt == "bin":
        # 16-byte header: magic, u32 d, u32 n, u32 reserved; then
        # interleaved little-endian float64 re/im pairs.
        header = _MAGIC + struct.pack("<III", f.grid.d, f.grid.n, 0)
        inter = np.empty(2 * f.values.size, dtype="<f8")
        inter[0::2] = f.values.real
        inter[1::2] = f.values.imag
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(inter.tobytes())
    else:
        raise ValueError(f"unknown signal format {fmt!r}")


def read_signal(path: str, fmt: str | None = None) -> Signal:
    """Read a signal written by write_signal."""
    fmt = fmt or ("json" if str(path).endswith(".json") else "bin")
    if fmt == "json":
        with open(path) as fh:
            payload = json.load(fh)
        grid = TorusGrid(int(payload["d"]), int(payload["n"]))
        vals = np.asarray(payload["re"], dtype=float) + 1j * np.asarray(
            payload["im"], dtype=float
        )
        return Signal(grid, vals)
    if fmt == "bin":
        with open(path, "rb") as fh:
            header = fh.read(16)
            if header[:4] != _MAGIC:
                raise ValueError("bad magic; not an FLW1 signal file")
            d, n, _ = struct.unpack("<III", header[4:])
            inter = np.frombuffer(fh.read(), dtype="<f8")
        grid = TorusGrid(int(d), int(n))
        return Signal(grid, inter[0::2] + 1j * inter[1::2])
    raise ValueError(f"unknown signal format {fmt!r}")


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
    j = tuple(np.atleast_1d(np.asarray(j, dtype=int)))
    vals[np.ravel_multi_index(j, grid.shape, mode="wrap")] = value
    return Signal(grid, vals)


def random_signal(grid: TorusGrid, rng: np.random.Generator) -> Signal:
    """Complex Gaussian white signal."""
    vals = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    return Signal(grid, vals)
