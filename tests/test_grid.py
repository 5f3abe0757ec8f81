"""Transform normalization, Parseval, convolution theorem, signal IO."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flwave.grid import (
    Signal,
    Spectrum,
    TorusGrid,
    cyclic_convolve,
    forward_transform,
    impulse,
    inverse_transform,
    lp_norm,
    random_signal,
    read_signal,
    single_mode,
    write_signal,
    zero_signal,
)

TWO_PI = 2.0 * np.pi


def test_grid_invariants():
    with pytest.raises(ValueError):
        TorusGrid(1, 7)
    with pytest.raises(ValueError):
        TorusGrid(1, 2)
    with pytest.raises(ValueError):
        TorusGrid(0, 8)
    g = TorusGrid(2, 8)
    assert g.size == 64
    assert np.isclose(g.h, TWO_PI / 8)


def test_zero_signal_zero_spectrum():
    g = TorusGrid(1, 8)
    F = forward_transform(zero_signal(g))
    assert np.all(F.coeffs == 0)


def test_single_mode_spectrum():
    # e^{ix} on 8 points puts sqrt(2*pi) at k = 1 and nothing elsewhere
    g = TorusGrid(1, 8)
    F = forward_transform(single_mode(g, 1.0))
    idx = 4 + 1
    assert abs(F.coeffs[idx] - np.sqrt(TWO_PI)) < 1e-12
    rest = np.delete(F.coeffs, idx)
    assert np.max(np.abs(rest)) < 1e-12


def test_impulse_flat_spectrum_direct_sum():
    g = TorusGrid(1, 8)
    F = forward_transform(impulse(g))
    # direct-summation oracle
    pts = g.sample_points()[:, 0]
    vals = impulse(g).values
    for i, k in enumerate(range(-4, 4)):
        direct = (TWO_PI**-0.5) * g.h * np.sum(vals * np.exp(-1j * k * pts))
        assert abs(F.coeffs[i] - direct) < 1e-14
    assert np.allclose(np.abs(F.coeffs), (TWO_PI**-0.5) * g.h)


def test_round_trip_random():
    rng = np.random.default_rng(0)
    f = random_signal(TorusGrid(2, 16), rng)
    back = inverse_transform(forward_transform(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-12


def test_single_coefficient_inverse():
    g = TorusGrid(1, 8)
    coeffs = np.zeros(8, dtype=complex)
    coeffs[4 + 1] = np.sqrt(TWO_PI)
    f = inverse_transform(
        forward_transform(single_mode(g, 1.0)))
    from flwave.grid import Spectrum

    inv = inverse_transform(Spectrum(g, coeffs))
    assert np.max(np.abs(inv.values - single_mode(g, 1.0).values)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000),
       st.sampled_from([(1, 8), (1, 16), (2, 8), (3, 4), (3, 8)]))
def test_parseval(seed, shape):
    d, n = shape
    g = TorusGrid(d, n)
    f = random_signal(g, np.random.default_rng(seed))
    F = forward_transform(f)
    lhs = np.sum(np.abs(F.coeffs) ** 2)
    rhs = g.h**d * np.sum(np.abs(f.values) ** 2)
    assert abs(lhs - rhs) <= 1e-10 * max(lhs, 1e-300)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_transform_linearity(seed):
    g = TorusGrid(1, 16)
    rng = np.random.default_rng(seed)
    f, h = random_signal(g, rng), random_signal(g, rng)
    a = complex(rng.standard_normal(), rng.standard_normal())
    lhs = forward_transform(Signal(g, a * f.values + h.values)).coeffs
    rhs = a * forward_transform(f).coeffs + forward_transform(h).coeffs
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_convolution_single_modes():
    # e^{ix} * e^{ix} = 2*pi e^{ix}; cross-checked against a direct sum
    g = TorusGrid(1, 8)
    f = single_mode(g, 1.0)
    conv = cyclic_convolve(f, f)
    # direct double-sum oracle
    expected = np.zeros(8, dtype=complex)
    for j in range(8):
        acc = 0.0 + 0.0j
        for l in range(8):
            acc += f.values[l] * f.values[(j - l) % 8]
        expected[j] = g.h * acc
    assert np.max(np.abs(conv.values - expected)) < 1e-12
    assert np.max(np.abs(conv.values - TWO_PI * f.values)) < 1e-10


def test_convolution_identity_element():
    g = TorusGrid(1, 8)
    rng = np.random.default_rng(1)
    f = random_signal(g, rng)
    unit = impulse(g, value=1.0 / g.h)
    conv = cyclic_convolve(unit, f)
    assert np.max(np.abs(conv.values - f.values)) < 1e-12


def test_convolution_with_zero():
    g = TorusGrid(1, 8)
    f = random_signal(g, np.random.default_rng(2))
    conv = cyclic_convolve(f, zero_signal(g))
    assert np.all(conv.values == 0)


def test_convolution_theorem_random_pairs():
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(trial)
        d, n = [(1, 16), (1, 32), (2, 8)][trial % 3]
        g = TorusGrid(d, n)
        f, h2 = random_signal(g, rng), random_signal(g, rng)
        lhs = forward_transform(cyclic_convolve(f, h2)).coeffs
        rhs = (TWO_PI ** (d / 2.0)) * forward_transform(f).coeffs \
            * forward_transform(h2).coeffs
        scale = max(np.max(np.abs(rhs)), 1e-300)
        worst = max(worst, np.max(np.abs(lhs - rhs)) / scale)
    assert worst < 1e-12


def test_lp_norm_examples():
    g = TorusGrid(1, 8)
    assert lp_norm(zero_signal(g), 2.0) == 0.0
    ones = Signal(g, np.ones(8))
    assert abs(lp_norm(ones, 1.0) - TWO_PI) < 1e-12
    with pytest.raises(ValueError):
        lp_norm(ones, 0.5)
    # direct-summation oracle on a random signal
    f = random_signal(g, np.random.default_rng(3))
    direct = (g.h * np.sum(np.abs(f.values) ** 3)) ** (1 / 3)
    assert abs(lp_norm(f, 3.0) - direct) < 1e-14
    assert abs(lp_norm(f, np.inf) - np.max(np.abs(f.values))) < 1e-14


def test_lp_norm_large_exponent_stays_finite():
    # unscaled, max|f * h|^512 overflows; the norm lies between the max
    # and the max times (N h^d)^(1/p), with h > 1 at n = 4
    g = TorusGrid(1, 4)
    rng = np.random.default_rng(0)  # max |f * h| = 6.08 > 4 = 1e308^(1/512)
    conv = cyclic_convolve(random_signal(g, rng), random_signal(g, rng))
    peak = np.max(np.abs(conv.values))
    got = lp_norm(conv, 512)
    assert np.isfinite(got)
    assert peak <= got <= peak * (g.size * g.h) ** (1 / 512)


def test_lp_norm_of_huge_constant():
    g = TorusGrid(1, 8)
    got = lp_norm(Signal(g, np.full(g.size, 1e200)), 2.0)
    assert np.isclose(got, 1e200 * np.sqrt(TWO_PI), rtol=1e-14, atol=0)


def test_signal_io_roundtrip(tmp_path):
    g = TorusGrid(2, 8)
    f = random_signal(g, np.random.default_rng(4))
    for name in ("sig.json", "sig.flw"):
        path = tmp_path / name
        write_signal(f, str(path))
        back = read_signal(str(path))
        assert back.grid == g
        assert np.max(np.abs(back.values - f.values)) < 1e-15


def test_signal_validation():
    g = TorusGrid(1, 8)
    with pytest.raises(ValueError):
        Signal(g, np.ones(7))
    with pytest.raises(ValueError):
        Signal(g, np.full(8, np.nan))


def test_spectrum_validation():
    g = TorusGrid(1, 8)
    with pytest.raises(ValueError, match="expected 8 coefficients, got 7"):
        Spectrum(g, np.ones(7))
    with pytest.raises(ValueError, match="coefficients must be finite"):
        Spectrum(g, np.full(8, np.inf))


# ---------------------------------------------------------------------------
# Exact identities at random sizes
# ---------------------------------------------------------------------------

EXACT = 1e-10
_SIZES = st.tuples(st.integers(1, 3), st.sampled_from([4, 6, 8]))


@settings(max_examples=40, deadline=None)
@given(_SIZES, st.integers(0, 2**32 - 1))
def test_transpose_identity_at_random_sizes(size, seed):
    # sum_k F(f)(k) conj(G(k)) = h^d sum_j f(x_j) conj(F^-1(G)(x_j))
    g = TorusGrid(*size)
    rng = np.random.default_rng(seed)
    f = random_signal(g, rng)
    G = Spectrum(g, random_signal(g, rng).values)
    F = forward_transform(f).coeffs
    lhs = np.vdot(G.coeffs, F)
    rhs = g.h**g.d * np.vdot(inverse_transform(G).values, f.values)
    # the error against the Cauchy-Schwarz bound of either side
    ratio = 1 + abs(lhs - rhs) / (np.linalg.norm(F)
                                  * np.linalg.norm(G.coeffs))
    assert ratio <= 1 + EXACT


@settings(max_examples=60, deadline=None)
@given(_SIZES, st.integers(0, 2**32 - 1), st.integers(0, 8),
       st.integers(0, 8), st.sampled_from(["complex", "positive",
                                           "impulse"]))
@example((3, 4), 0, 4, 4, "impulse")  # equality: r = p = 2, q = 1
@example((2, 6), 1, 0, 0, "positive")  # r = p = inf, q = 1
def test_young_convolution_at_random_sizes(size, seed, i, extra, kind):
    # ||f * g||_r <= ||f||_p ||g||_q with 1/p + 1/q = 1 + 1/r, exponents
    # exact in eighths: 1/p = i/8, 1/q = (8 - i + e)/8, 1/r = e/8, e <= i
    g = TorusGrid(*size)
    rng = np.random.default_rng(seed)
    e = extra % (i + 1)
    p, q, r = (8 / k if k else np.inf for k in (i, 8 - i + e, e))
    f = random_signal(g, rng)
    if kind == "impulse":  # unit L^1 mass at a random cell
        h = impulse(g, rng.integers(0, g.n, g.d), 1 / g.h**g.d)
    else:
        h = random_signal(g, rng)
        if kind == "positive":
            f, h = Signal(g, np.abs(f.values)), Signal(g, np.abs(h.values))
    ratio = lp_norm(cyclic_convolve(f, h), r) / (lp_norm(f, p)
                                                 * lp_norm(h, q))
    assert ratio <= 1 + EXACT


# ---------------------------------------------------------------------------
# Read-only samples and the cached floor scale
# ---------------------------------------------------------------------------


def test_signal_values_are_read_only():
    f = random_signal(TorusGrid(2, 8), np.random.default_rng(0))
    with pytest.raises(ValueError, match="read-only"):
        f.values[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        f.reshaped()[1, 2] = 1.0


def test_signal_takes_over_an_owned_complex_array():
    g = TorusGrid(1, 8)
    vals = np.arange(8, dtype=complex)
    f = Signal(g, vals)
    assert np.shares_memory(f.values, vals)  # no copy
    with pytest.raises(ValueError, match="read-only"):
        vals[0] = 5.0
    # a rejected array is left writeable
    short = np.zeros(7, dtype=complex)
    with pytest.raises(ValueError):
        Signal(g, short)
    short[0] = 1.0


@pytest.mark.parametrize("view", ["slice", "reshape", "read-only"])
def test_caller_writes_through_a_view_do_not_reach_the_signal(view):
    g = TorusGrid(2, 8)
    base = random_signal(TorusGrid(1, 2 * g.size),
                         np.random.default_rng(1)).values.copy()
    passed = {"slice": base[::2], "reshape": base[:g.size].reshape(8, 8),
              "read-only": base[g.size:].view()}[view]
    passed.flags.writeable = view != "read-only"
    f = Signal(g, passed)
    before, scale = f.values.copy(), f.peak_off_origin
    base[:] = 7.0
    assert np.array_equal(f.values, before)
    assert f.peak_off_origin == scale
    assert scale == Signal(g, before).peak_off_origin


@pytest.mark.parametrize("d, n", [(1, 8), (2, 6), (3, 4)])
def test_peak_off_origin_is_the_brute_force_maximum(d, n):
    g = TorusGrid(d, n)
    f = random_signal(g, np.random.default_rng(d))
    pts = g.sample_points()
    prefactor = (2 * np.pi) ** (-d / 2) * g.h**d
    # direct sums F(k) = (2 pi)^(-d/2) h^d sum_j f(x_j) e^(-i k.x_j)
    peak = max(abs(prefactor * np.sum(f.values * np.exp(-1j * pts @ k)))
               for k in itertools.product(range(-n // 2, n // 2), repeat=d)
               if any(k))
    assert abs(f.peak_off_origin - peak) <= 1e-12 * peak


def test_signal_accepts_real_arrays_lists_and_signal_values():
    g = TorusGrid(1, 4)
    real = np.array([1.0, -2.0, 0.5, 3.0])
    from_real, from_list = Signal(g, real), Signal(g, real.tolist())
    assert from_real.values.dtype == complex
    assert np.array_equal(from_real.values, real)
    assert np.array_equal(from_list.values, real)
    real[0] = 9.0  # the caller's real array was converted, not taken over
    assert from_real.values[0] == 1.0
    shared = Signal(g, from_real.values)
    assert np.shares_memory(shared.values, from_real.values)
    assert shared.peak_off_origin == from_real.peak_off_origin


# ---------------------------------------------------------------------------
# Row-major flat indices against the hand-written loop
# ---------------------------------------------------------------------------


def _row_major(cell, n):
    """Flat index of a grid cell (components reduced mod n), axis 0 first."""
    idx = 0
    for c in cell:
        idx = idx * n + int(c) % n
    return idx


def _row_major_row(cells, n):
    """_row_major of every cell in a (count, d) integer array at once."""
    idx = np.zeros(len(cells), dtype=int)
    for column in cells.T:
        idx = idx * n + column % n
    return idx


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 3), n=st.sampled_from([4, 6, 8]),
       seed=st.integers(0, 2**16))
def test_flat_indices_match_row_major_loop(tmp_path_factory, d, n, seed):
    import json

    from flwave.bilinear import _reflect
    from flwave.calculus import numerical_support
    from flwave.grid import lattice
    from flwave.pdo import parse_symbol
    from flwave.weights import Weight

    g = TorusGrid(d, n)
    rng = np.random.default_rng(seed)
    lat = lattice(g)
    ks = rng.integers(-n // 2, n // 2, size=(5, d))
    for k in ks:
        assert lat.index_of(k) == _row_major(k + n // 2, n)
    np.testing.assert_array_equal(lat.index_of(ks),
                                  _row_major_row(ks + n // 2, n))
    j = rng.integers(-2 * n, 2 * n, size=d)
    assert np.flatnonzero(impulse(g, j).values).tolist() == \
        [_row_major(j, n)]
    table = rng.uniform(1.0, 2.0, g.size)
    np.testing.assert_array_equal(
        Weight.from_table(g, table).evaluate_points(ks),
        table[[_row_major(k + n // 2, n) for k in ks]])
    pts = lat.points
    np.testing.assert_array_equal(lat.wrap_index, [
        _row_major_row(k - pts + n // 2, n) for k in pts])
    vals = rng.standard_normal(g.size)
    np.testing.assert_array_equal(
        _reflect(g, vals), vals[[_row_major(n // 2 - k, n) for k in pts]])
    # the formulas these replaced, before TorusGrid.flat
    np.testing.assert_array_equal(lat.index_of(ks), np.ravel_multi_index(
        tuple((ks + n // 2).T), g.shape))
    diff = pts[:, None, :] - pts[None, :, :] + n // 2
    np.testing.assert_array_equal(lat.wrap_index, np.ravel_multi_index(
        tuple(np.moveaxis(diff, -1, 0)), g.shape, mode="wrap"))
    np.testing.assert_array_equal(_reflect(g, vals), vals[np.ravel_multi_index(
        tuple((n // 2 - pts).T), g.shape, mode="wrap")])
    mags = np.where(rng.random(g.size) < 0.5, 1.0, 1e-12)
    mags[rng.integers(g.size)] = 1.0
    np.testing.assert_array_equal(numerical_support(Signal(g, mags)),
                                  mags == 1.0)
    if g.size <= 64:
        path = tmp_path_factory.mktemp("symbol") / "table.json"
        dense = rng.standard_normal((g.size, g.size))
        path.write_text(json.dumps({"order": 0.0,
                                    "values": dense.ravel().tolist()}))
        symbol = parse_symbol(f"table:{path}", g)
        cells = rng.integers(-n, 2 * n, size=(3, d))
        got = symbol.evaluator(cells * g.h, ks.astype(float))
        np.testing.assert_array_equal(got, dense[np.ix_(
            [_row_major(c, n) for c in cells],
            [_row_major(k + n // 2, n) for k in ks])])


def test_flat_index_range_errors_keep_their_messages(tmp_path):
    import json

    from flwave.grid import lattice
    from flwave.pdo import parse_symbol
    from flwave.weights import Weight

    g = TorusGrid(2, 4)
    with pytest.raises(ValueError, match=r"lattice point \[ 2 -1\] out of "
                                         r"range for n=4"):
        lattice(g).index_of((2, -1))
    # the table weight and the table symbol read the same helper
    with pytest.raises(ValueError, match=r"lattice point \[ 0 -3\] out of "
                                         r"range for n=4"):
        Weight.from_table(g, np.ones(g.size)).evaluate_points([[0, -3]])
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"values": [0.0] * g.size**2}))
    symbol = parse_symbol(f"table:{path}", g)
    with pytest.raises(ValueError, match="out of range for n=4"):
        symbol.evaluator(np.zeros((1, 2)), np.array([[0.0, 2.0]]))


# ---------------------------------------------------------------------------
# Periodic geometry: TorusGrid.wrap, flat and distances
# ---------------------------------------------------------------------------

_GEOMETRY = st.tuples(st.integers(1, 3), st.sampled_from([4, 6, 8, 16]))


def _offsets(n, d, real):
    """d offsets in [-3n, 3n]; real ones on a 1/64 grid, so that every
    sum below is exact."""
    unit = st.integers(-3 * n * 64, 3 * n * 64).map(lambda i: i / 64) \
        if real else st.integers(-3 * n, 3 * n)
    return st.lists(unit, min_size=d, max_size=d)


def _shortest(delta, n):
    """Brute force: the offset congruent to delta mod n nearest to 0, the
    negative one on a tie (so in [-n/2, n/2))."""
    return min((delta + m * n for m in range(-4, 5)),
               key=lambda c: (abs(c), c))


@settings(max_examples=25, deadline=None)
@given(_GEOMETRY, st.booleans(), st.data())
def test_wrap_is_the_shortest_offset(size, real, data):
    g = TorusGrid(*size)
    delta = data.draw(_offsets(g.n, g.d, real))
    got = g.wrap(np.array(delta))
    assert got.tolist() == [_shortest(x, g.n) for x in delta]
    assert got.dtype == (float if real else int)


@settings(max_examples=25, deadline=None)
@given(_GEOMETRY, st.integers(0, 2**16))
def test_flat_is_the_wrapped_row_major_index(size, seed):
    g = TorusGrid(*size)
    cells = np.random.default_rng(seed).integers(-3 * g.n, 3 * g.n,
                                                 size=(7, g.d))
    want = np.ravel_multi_index(tuple(cells.T), g.shape, mode="wrap")
    np.testing.assert_array_equal(g.flat(cells), want)
    assert [g.flat(c) for c in cells] == want.tolist()


def _old_cell_distances(grid, center):
    """The per-axis meshgrid formula that window_values used."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    n = grid.n
    axes = [(np.arange(n) - center[a] + n / 2.0) % n - n / 2.0
            for a in range(grid.d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.sqrt(sum(m**2 for m in mesh)).ravel()


@settings(max_examples=25, deadline=None)
@given(_GEOMETRY, st.booleans(), st.data())
def test_distances_keep_the_bits_of_the_meshgrid_formula(size, real, data):
    g = TorusGrid(*size)
    center = data.draw(_offsets(g.n, g.d, real))
    got, want = g.distances(center), _old_cell_distances(g, center)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    cells = np.indices(g.shape).reshape(g.d, -1).T[::7]
    assert got[::7].tolist() == [g.cell_distance(c, center) for c in cells]
    assert g.distances().tobytes() == g.distances([0] * g.d).tobytes()
