"""STFT, modulation norms, and the local norm equivalences."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flwave.corpus import standard_corpus
from flwave.grid import Signal, TorusGrid, forward_transform, lattice, \
    random_signal, single_mode, zero_signal
from flwave.modulation import (
    SpaceFreqWeight,
    embedding_check,
    equivalence_check,
    modulation_direction_verdict,
    modulation_norm,
    modulation_sup_profile,
    modulation_wavefront,
    stft,
)
from flwave.norms import _mixed_rows
from flwave.wavefront import default_query
from flwave.windows import WindowSpec, window_values

TWO_PI = 2.0 * np.pi


def _bump(grid, center, width, rng=None):
    j = np.arange(grid.n)
    vals = np.exp(-((j - center) ** 2) / (2.0 * width**2)).astype(complex)
    if rng is not None:
        vals = vals * (rng.standard_normal(grid.n)
                       + 1j * rng.standard_normal(grid.n))
    return Signal(grid, vals)


def _stft_reference(f, window):
    """Per-row STFT: window and transform each position on its own."""
    grid = f.grid
    out = np.empty((grid.size, grid.size), dtype=complex)
    for row, center in enumerate(np.ndindex(grid.shape)):
        shifted = np.conj(window_values(grid, window, center))
        out[row] = forward_transform(Signal(grid, f.values * shifted)).coeffs
    return out


def _sup_profile_reference(f, x0, window, radius, step):
    """Per-cell sup profile: one window_values call per near cell."""
    grid = f.grid
    sup_v = np.zeros(grid.size)
    for cell in np.ndindex(grid.shape):
        if grid.cell_distance(cell, x0) > radius or \
                any(c % step for c in cell):
            continue
        shifted = np.conj(window_values(grid, window, cell))
        coeffs = forward_transform(Signal(grid, f.values * shifted)).coeffs
        np.maximum(sup_v, np.abs(coeffs), out=sup_v)
    return sup_v


# (d, n) grids small enough for the per-row reference at d = 3
_GRIDS = [(1, 8), (1, 16), (1, 64), (2, 8), (2, 16), (3, 6), (3, 8)]


def _random_case(grid_index, shape, width_frac, seed):
    d, n = _GRIDS[grid_index]
    g = TorusGrid(d, n)
    window = WindowSpec(shape, 4.0 + width_frac * (n - 4.5))
    return g, window, random_signal(g, np.random.default_rng(seed))


@settings(max_examples=40, deadline=None)
@given(grid_index=st.integers(0, len(_GRIDS) - 1),
       shape=st.sampled_from(["gauss", "hann", "flattop"]),
       width_frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
@example(grid_index=6, shape="flattop", width_frac=1.0, seed=0)
@example(grid_index=0, shape="hann", width_frac=0.0, seed=1)
def test_stft_equals_per_row_reference(grid_index, shape, width_frac, seed):
    g, window, f = _random_case(grid_index, shape, width_frac, seed)
    assert np.array_equal(stft(f, window), _stft_reference(f, window))


@settings(max_examples=40, deadline=None)
@given(grid_index=st.integers(0, len(_GRIDS) - 1),
       shape=st.sampled_from(["gauss", "hann", "flattop"]),
       width_frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**16),
       radius=st.integers(0, 5), step=st.integers(1, 4),
       x0_seed=st.integers(0, 2**16))
@example(grid_index=4, shape="gauss", width_frac=0.5, seed=0, radius=0,
         step=3, x0_seed=1)
def test_sup_profile_equals_per_cell_reference(grid_index, shape, width_frac,
                                               seed, radius, step, x0_seed):
    g, window, f = _random_case(grid_index, shape, width_frac, seed)
    x0 = tuple(np.random.default_rng(x0_seed).integers(0, g.n, g.d))
    got = modulation_sup_profile(f, x0, window, position_radius=radius,
                                 position_step=step)
    want = _sup_profile_reference(f, x0, window, radius, step)
    assert np.array_equal(got, want)


def test_sup_profile_without_near_cell_is_zero():
    g = TorusGrid(2, 16)
    f = random_signal(g, np.random.default_rng(6))
    sup_v = modulation_sup_profile(f, (1, 1), WindowSpec("gauss", 8),
                                   position_radius=0, position_step=4)
    assert sup_v.shape == (g.size,) and np.all(sup_v == 0)


def _per_direction_verdicts(f, query):
    """(singular mask, slopes) from one modulation_direction_verdict call
    per position and direction, sharing one sup profile per position."""
    shape = (len(query.positions), len(query.directions))
    singular, slopes = np.zeros(shape, dtype=bool), np.zeros(shape)
    for i, x0 in enumerate(query.positions):
        sup_v = modulation_sup_profile(f, x0, query.window)
        for j, theta in enumerate(query.directions):
            out = modulation_direction_verdict(
                f, x0, theta, query.spec.q, query.spec.weight.s,
                query.window, query.aperture, query.octaves,
                rel_floor=query.rel_floor, sup_v=sup_v)
            singular[i, j] = out["verdict"] == "singular"
            slopes[i, j] = out["slope"]
    return singular, slopes


@pytest.mark.parametrize("d, n", [(1, 256), (2, 64)])
def test_modulation_wavefront_equals_per_direction_verdicts(d, n):
    corpus = standard_corpus(d, n)
    query = default_query(corpus[0].signal.grid)
    for entry in corpus:
        report = modulation_wavefront(entry.signal, query)
        singular, slopes = _per_direction_verdicts(entry.signal, query)
        assert report.mode == "modulation"
        assert np.array_equal(report.singular_mask, singular), entry.id
        assert np.array_equal(report.slopes, slopes), entry.id


def test_one_9c_point_transforms_the_signal_at_most_once(count_transforms):
    entry = standard_corpus(2, 64)[2]
    # a fresh signal over the same samples: nothing cached yet
    f = Signal(entry.signal.grid, entry.signal.values)
    query = default_query(f.grid)
    tally = count_transforms(f)
    for x0 in query.positions[:2]:
        sup_v = modulation_sup_profile(f, x0, query.window)
        for theta in query.directions:
            modulation_direction_verdict(
                f, x0, theta, query.spec.q, query.spec.weight.s,
                query.window, query.aperture, query.octaves,
                rel_floor=query.rel_floor, sup_v=sup_v)
        assert tally["whole"] == 1  # the first verdict's floor, then cached
    near_cells = tally["all"] - tally["whole"]
    tally["all"] = tally["whole"] = 0
    modulation_wavefront(f, replace(query, positions=query.positions[:2]))
    assert tally == {"all": near_cells, "whole": 0}


def test_stft_overflow_raises():
    g = TorusGrid(2, 8)
    f = Signal(g, np.full(g.size, 1e308))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="finite"):
        stft(f, WindowSpec("flattop", 7))


def test_stft_zero():
    g = TorusGrid(1, 16)
    V = stft(zero_signal(g), WindowSpec("gauss", 8))
    assert np.all(V == 0)


def test_stft_matches_windowed_transform():
    g = TorusGrid(1, 32)
    spec = WindowSpec("gauss", 8)
    f = random_signal(g, np.random.default_rng(0))
    V = stft(f, spec)
    for x0 in (0, 7, 21):
        direct = forward_transform(Signal(
            g, f.values * np.conj(window_values(g, spec, (x0,))))).coeffs
        assert np.max(np.abs(V[x0] - direct)) < 1e-12


def test_stft_self_window_at_origin():
    # V(0, 0) equals the direct sum (2 pi)^(-d/2) h^d sum |phi|^2
    g = TorusGrid(1, 32)
    spec = WindowSpec("gauss", 10)
    phi = window_values(g, spec, (0,))
    V = stft(Signal(g, phi.astype(complex)), spec)
    expected = (TWO_PI**-0.5) * g.h * np.sum(np.abs(phi) ** 2)
    assert abs(V[0, 16] - expected) < 1e-12


def test_stft_single_mode_shifted_profile():
    # |V(x, k)| for a pure mode is the window's spectral profile at k - 1
    g = TorusGrid(1, 32)
    spec = WindowSpec("gauss", 12)
    V = stft(single_mode(g, 1.0), spec)
    phi_hat = forward_transform(
        Signal(g, window_values(g, spec, (0,)))).coeffs
    mags = np.abs(V[0])
    shifted = np.abs(np.roll(phi_hat, 1))
    ratio = mags[2:30] / shifted[2:30]
    assert np.max(np.abs(ratio - ratio[0])) < 1e-9


def _modulation_norm_reference(f, p, q, w, window):
    """Full-matrix modulation norm: |V| times the (position, frequency)
    weight <x_j>^t <k>^s over the whole STFT matrix, then one mixed norm."""
    grid = f.grid
    pos = (1.0 + np.sum(grid.sample_points()**2, axis=-1)) ** (w.t / 2.0)
    freq = lattice(grid).brackets**w.s
    weight = pos[:, None] * freq[None, :]
    return float(_mixed_rows(np.abs(stft(f, window)) * weight, p, q, 1))


_EXPONENTS = st.sampled_from([1.0, 1.3, 2.0, 4.0, np.inf])
_SMOOTHNESS = st.sampled_from([0.0, 0.7, 1.5])


@settings(max_examples=60, deadline=None)
@given(grid_index=st.integers(0, len(_GRIDS) - 1),
       shape=st.sampled_from(["gauss", "hann", "flattop"]),
       width_frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**16),
       s=_SMOOTHNESS, t=_SMOOTHNESS, p=_EXPONENTS, q=_EXPONENTS)
@example(grid_index=6, shape="flattop", width_frac=1.0, seed=0, s=1.5,
         t=1.5, p=1.3, q=np.inf)
@example(grid_index=3, shape="gauss", width_frac=0.5, seed=2, s=0.7,
         t=0.0, p=np.inf, q=1.3)
def test_streamed_modulation_norm_equals_full_matrix(
        grid_index, shape, width_frac, seed, s, t, p, q):
    g, window, f = _random_case(grid_index, shape, width_frac, seed)
    w = SpaceFreqWeight(s, t)
    got = modulation_norm(f, p, q, w, window)
    assert got == _modulation_norm_reference(f, p, q, w, window)


def test_modulation_norm_overflow_raises():
    g = TorusGrid(2, 8)
    f = Signal(g, np.full(g.size, 1e308))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="finite"):
        modulation_norm(f, 2, 1, window=WindowSpec("flattop", 7))


def test_modulation_norm_never_holds_a_phase_space_matrix():
    # the streamed reduction's peak stays below one N x N float64 matrix
    g = TorusGrid(2, 32)
    f = random_signal(g, np.random.default_rng(8))
    modulation_norm(f, 2, 1)  # builds the cached lattice outside the trace
    tracemalloc.start()
    try:
        modulation_norm(f, 2, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g.size * g.size * 8


def test_modulation_norm_zero():
    g = TorusGrid(1, 16)
    assert modulation_norm(zero_signal(g), 2, 2,
                           window=WindowSpec("gauss", 8)) == 0.0


def test_modulation_norm_energy_identity():
    # p = q = 2 collapses to signal energy times window energy
    g = TorusGrid(1, 32)
    spec = WindowSpec("gauss", 8)
    f = random_signal(g, np.random.default_rng(1))
    mn = modulation_norm(f, 2, 2, window=spec)
    phi = window_values(g, spec, (0,))
    expected = np.sqrt(g.h * np.sum(np.abs(f.values) ** 2) * np.sum(phi**2))
    assert abs(mn - expected) < 1e-8 * expected


def test_modulation_norm_single_mode_closed_form():
    # q = 1, p = inf: sup over x per frequency of the shifted profile
    g = TorusGrid(1, 32)
    spec = WindowSpec("gauss", 8)
    V = stft(single_mode(g, 1.0), spec)
    got = modulation_norm(single_mode(g, 1.0), np.inf, 1.0, window=spec)
    expected = float(np.sum(np.max(np.abs(V), axis=0)))
    assert abs(got - expected) < 1e-12


def test_modulation_norm_validation():
    g = TorusGrid(1, 16)
    with pytest.raises(ValueError):
        modulation_norm(zero_signal(g), 0.5, 1)


def test_equivalence_fixed_bump_baseline():
    g = TorusGrid(1, 64)
    spec = WindowSpec("gauss", 16)
    rep = equivalence_check(_bump(g, 32, 2.2), 2.0, 0.0, spec)
    assert 0.05 < rep["ratio"] < 20.0


def test_equivalence_homogeneity():
    g = TorusGrid(1, 64)
    spec = WindowSpec("gauss", 16)
    f = _bump(g, 32, 2.2)
    r1 = equivalence_check(f, 2.0, 0.0, spec)["ratio"]
    r5 = equivalence_check(f * 5.0, 2.0, 0.0, spec)["ratio"]
    assert np.isclose(r1, r5, rtol=1e-12)


def test_equivalence_spread_over_random_bumps():
    g = TorusGrid(1, 64)
    spec = WindowSpec("gauss", 16)
    ratios = []
    for t in range(100):
        rng = np.random.default_rng(2 ^ t)
        ratios.append(equivalence_check(_bump(g, 32, 2.2, rng), 2.0, 0.0,
                                        spec)["ratio"])
    assert max(ratios) / min(ratios) < 10.0


def test_equivalence_rejects_spread_support():
    g = TorusGrid(1, 64)
    with pytest.raises(ValueError):
        equivalence_check(Signal(g, np.ones(64)), 2.0, 0.0,
                          WindowSpec("gauss", 16))


def test_embedding_preconditions():
    g = TorusGrid(1, 32)
    f = _bump(g, 16, 1.8)
    with pytest.raises(ValueError):
        embedding_check(f, q=2.0, p1=3.0, p2=np.inf,
                        window=WindowSpec("gauss", 8))


def test_embedding_bracket_and_monotonicity():
    g = TorusGrid(1, 64)
    spec = WindowSpec("gauss", 16)
    worst = 0.0
    for t in range(50):
        rng = np.random.default_rng(3 ^ t)
        f = _bump(g, 32, 2.2, rng)
        rep = embedding_check(f, q=1.0, p1=1.0, p2=np.inf, window=spec)
        assert rep["upper_over_fl"] > 0
        assert rep["fl_over_lower"] > 0
        worst = max(worst, rep["p_monotonicity_ratio"])
    assert worst <= 1 + 1e-10


def test_q_monotonicity_exact():
    g = TorusGrid(1, 32)
    spec = WindowSpec("gauss", 8)
    f = random_signal(g, np.random.default_rng(4))
    n1 = modulation_norm(f, 2.0, 1.0, window=spec)
    n2 = modulation_norm(f, 2.0, 2.0, window=spec)
    assert n2 <= n1 * (1 + 1e-12)


def test_window_independence_bounded_ratio():
    g = TorusGrid(1, 64)
    w1 = WindowSpec("gauss", 16)
    w2 = WindowSpec("gauss", 24)
    ratios = []
    for t in range(100):
        rng = np.random.default_rng(5 ^ t)
        f = _bump(g, 32, 2.2, rng)
        m1 = modulation_norm(f, 2, 1, window=w1)
        m2 = modulation_norm(f, 2, 1, window=w2)
        ratios.append(m1 / m2)
    assert max(ratios) / min(ratios) < 10.0
