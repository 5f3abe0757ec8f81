"""Wave-front estimator machinery: direction partitions, scans, splits."""

import csv
import json

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flwave.cones import Cone, cone_mask
from flwave.corpus import make_power_cusp, make_smooth, standard_corpus
from flwave.grid import Signal, Spectrum, TorusGrid, forward_transform, \
    impulse, inverse_transform, lattice, single_mode
from flwave.norms import FLNormSpec, fl_norm, sequence_norm
from flwave.wavefront import (
    SLOPE_MARGIN,
    WavefrontQuery,
    WavefrontRecord,
    WavefrontReport,
    _band_reduce,
    _merge_singular,
    _segment_table,
    annulus_averages,
    classical_wavefront,
    default_query,
    directions_for,
    estimate_wavefront,
    fit_decay_slope,
    oracle_recovery,
    regular_directions,
    report_included_in,
    split_regular,
    superior_scan,
)
from flwave.weights import Weight
from flwave.windows import WindowSpec, window_signal, window_values


def test_regular_directions_single_mode():
    g = TorusGrid(1, 64)
    out = regular_directions(single_mode(g, 2.0), FLNormSpec(1.0),
                             aperture=np.pi / 2, direction_count=2)
    assert out["sigma"] == []
    assert len(out["theta"]) == 2


def test_regular_directions_windowed_impulse():
    g = TorusGrid(1, 64)
    f = window_signal(impulse(g, (32,)), WindowSpec("gauss", 16), (32,))
    spec = FLNormSpec(np.inf, Weight.power(1.0))
    out = regular_directions(f, spec, aperture=np.pi / 2, direction_count=2)
    assert out["theta"] == []
    assert len(out["sigma"]) == 2


def test_regular_directions_bin_validation():
    g = TorusGrid(2, 16)
    f = make_smooth(g, seed=0).signal
    with pytest.raises(ValueError):
        regular_directions(f, FLNormSpec(1.0), np.pi / 8, direction_count=2)


def test_regular_directions_edge_normals():
    # windowed 2-D edge: singular bins concentrate around the normal
    from flwave.corpus import make_edge

    g = TorusGrid(2, 128)
    entry = make_edge(g, axis=0, offset=0)
    f = window_signal(entry.signal, WindowSpec("gauss", 96), (0, 64))
    spec = FLNormSpec(1.0, Weight.power(1.0))
    out = regular_directions(f, spec, aperture=np.pi / 16,
                             direction_count=32, octaves=(3, 6))
    sigma = np.array(out["sigma"])
    assert len(sigma) > 0
    # every singular bin lies within two bins of the +-x axis
    angles = np.arctan2(sigma[:, 1], sigma[:, 0])
    folded = np.minimum(np.abs(angles), np.pi - np.abs(angles))
    assert np.all(folded <= 2 * (2 * np.pi / 32) + 1e-9)


def test_query_validation():
    g = TorusGrid(1, 256)
    q = default_query(g)
    with pytest.raises(ValueError):
        replace(q, octaves=(4, 9)).validate(g)
    with pytest.raises(ValueError):
        replace(q, window=WindowSpec("gauss", 300)).validate(g)
    with pytest.raises(ValueError):
        replace(q, aperture=2.0)


def test_three_dimensional_queries_are_rejected():
    # direction bins are planar; a 3-D grid must fail before any scan
    g = TorusGrid(3, 8)
    for build in (lambda: directions_for(3),
                  lambda: default_query(g),
                  lambda: regular_directions(single_mode(g, (1, 0, 0)),
                                             FLNormSpec(1.0), 0.3)):
        with pytest.raises(ValueError, match="not d = 3"):
            build()


def test_classical_needs_three_octaves():
    g = TorusGrid(1, 256)
    q = replace(default_query(g), octaves=(5, 6))
    with pytest.raises(ValueError):
        classical_wavefront(make_smooth(g, seed=1).signal, q)


def test_determinism():
    g = TorusGrid(1, 256)
    entry = make_power_cusp(g, 2.5, 64)
    q = default_query(g)
    r1 = estimate_wavefront(entry.signal, q)
    r2 = estimate_wavefront(entry.signal, q)
    assert r1.to_json() == r2.to_json()


def test_report_roundtrip_and_csv(tmp_path):
    g = TorusGrid(1, 256)
    entry = make_power_cusp(g, 2.5, 64)
    rep = estimate_wavefront(entry.signal, default_query(g))
    payload = rep.to_json()
    assert '"verdict"' in payload
    csv_path = tmp_path / "report.csv"
    rep.write_csv(str(csv_path))
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("x0,")
    assert len(lines) == len(rep.records) + 1


def test_report_inclusion_tolerance():
    g = TorusGrid(1, 256)
    q = default_query(g)
    cusp = make_power_cusp(g, 2.5, 64)
    rep = estimate_wavefront(cusp.signal, q)
    # a report is always included in itself; and in a shifted-by-1-cell one
    assert report_included_in(rep, rep)["holds"]
    smooth_rep = estimate_wavefront(make_smooth(g, seed=1).signal, q)
    out = report_included_in(rep, smooth_rep)
    assert not out["holds"]
    assert len(out["violations"]) == len(rep.singular())


def test_superior_scan_monotone_fixed():
    g = TorusGrid(1, 256)
    entry = make_power_cusp(g, 2.5, 64)
    q = replace(default_query(g), positions=((64,),))
    out = superior_scan(entry.signal, q, [0.0, 1.0, 2.0, 3.0, 4.0])
    for rec in out.values():
        flags = rec["fixed_pass"]
        # once failing, never passes again (down-set)
        seen_fail = False
        for flag in flags:
            if seen_fail:
                assert not flag
            seen_fail = seen_fail or not flag


def test_superior_scan_validation():
    g = TorusGrid(1, 256)
    entry = make_smooth(g, seed=1)
    q = replace(default_query(g), positions=((0,),))
    with pytest.raises(ValueError):
        superior_scan(entry.signal, q, [])
    with pytest.raises(ValueError):
        superior_scan(entry.signal, q, [2.0, 1.0])


def test_superior_scan_smooth_passes_everything():
    g = TorusGrid(1, 256)
    entry = make_smooth(g, seed=1)
    q = replace(default_query(g), positions=((0,), (128,)))
    out = superior_scan(entry.signal, q, [0.0, 2.0, 4.0])
    for rec in out.values():
        assert all(rec["fixed_pass"])
        assert all(rec["adaptive_pass"])


def test_superior_scan_impulse_fails():
    g = TorusGrid(1, 256)
    f = impulse(g, (128,))
    q = replace(default_query(g), positions=((128,),))
    out = superior_scan(f, q, [0.5, 1.0, 2.0])
    for rec in out.values():
        assert not any(rec["fixed_pass"])
        assert not any(rec["adaptive_pass"])


# ---------------------------------------------------------------------------
# Cone-split decomposition
# ---------------------------------------------------------------------------


def _split_windows(n):
    return WindowSpec("gauss", n // 8), WindowSpec("flattop", n // 2)


def test_split_identity_and_vanishing_spectrum():
    g = TorusGrid(1, 256)
    entry = make_power_cusp(g, 2.5, 64)
    inner, outer = _split_windows(256)
    cone = Cone.halfline(1)
    spec = FLNormSpec(1.0, Weight.power(1.0))
    gpart, hpart = split_regular(entry.signal, (64,), cone, spec, inner,
                                 outer)
    localized = Signal(g, entry.signal.values
                       * window_values(g, outer, (64,)))
    total = gpart + hpart
    assert np.max(np.abs(total.values - localized.values)) < 1e-10
    from flwave.cones import cone_mask

    mask = cone_mask(g, cone)
    h_hat = forward_transform(hpart).coeffs
    assert np.max(np.abs(h_hat[mask])) < 1e-12 * max(
        1.0, np.max(np.abs(h_hat)))
    # the cone part has finite weighted norm by construction
    assert np.isfinite(fl_norm(gpart, spec))


def test_split_full_cone_takes_everything():
    g = TorusGrid(1, 256)
    entry = make_smooth(g, seed=2)
    inner, outer = _split_windows(256)
    spec = FLNormSpec(1.0)
    gpart, hpart = split_regular(entry.signal, (0,), Cone.full(1), spec,
                                 inner, outer)
    # remainder carries only the origin coefficient
    h_hat = forward_transform(hpart).coeffs
    assert np.max(np.abs(np.delete(h_hat, 128))) < 1e-10


def test_split_remainder_decays_on_shrunk_cone():
    g = TorusGrid(1, 256)
    entry = make_power_cusp(g, 0.5, 64)
    inner, outer = _split_windows(256)
    cone = Cone.halfline(1)
    spec = FLNormSpec(1.0, Weight.power(0.0))
    gpart, hpart = split_regular(entry.signal, (64,), cone, spec, inner,
                                 outer)
    rem = window_signal(hpart, inner, (64,))
    out = regular_directions(rem, FLNormSpec(np.inf), np.pi / 2, 2,
                             octaves=(4, 6))
    # the positive half-line carries no remainder mass
    assert (1.0,) in [tuple(t) for t in out["theta"]]


def test_split_window_support_validation():
    g = TorusGrid(1, 256)
    entry = make_smooth(g, seed=3)
    # inner wider than the outer plateau
    inner = WindowSpec("gauss", 200)
    outer = WindowSpec("flattop", 64)
    with pytest.raises(ValueError):
        split_regular(entry.signal, (0,), Cone.halfline(1), FLNormSpec(1.0),
                      inner, outer)


# ---------------------------------------------------------------------------
# Classical scan examples
# ---------------------------------------------------------------------------


def test_classical_single_mode_regular_everywhere():
    g = TorusGrid(1, 256)
    rep = classical_wavefront(single_mode(g, 3.0), default_query(g))
    assert all(r.verdict == "regular" for r in rep.records)


def test_classical_impulse_singular_at_position():
    g = TorusGrid(1, 256)
    rep = classical_wavefront(impulse(g, (128,)), default_query(g))
    sing = rep.singular()
    assert {r.x0 for r in sing} == {(128,)}
    assert len(sing) == 2  # both directions


def test_classical_cusp_finite_order_singular():
    g = TorusGrid(1, 256)
    entry = make_power_cusp(g, 2.5, 64)
    rep = classical_wavefront(entry.signal, default_query(g))
    assert any(r.x0 == (64,) and r.verdict == "singular"
               for r in rep.records)


# ---------------------------------------------------------------------------
# Segment-table engine against a boolean-mask reference
# ---------------------------------------------------------------------------


def _reference_stats(grid, raw, weighted, direction, aperture, octaves, q):
    """One cone's (raw averages, weighted averages, seminorm), one boolean
    mask per octave: the straightforward algorithm the engine replaces."""
    norms = lattice(grid).norms
    octave = np.floor(np.log2(np.where(norms > 0, norms, 1.0)))
    octave[norms == 0] = -1
    cone = cone_mask(grid, Cone(tuple(direction), aperture))
    m_lo, m_hi = octaves

    def averages(values):
        out = np.full(m_hi - m_lo + 1, np.nan)
        mags = np.abs(values)
        for m in range(m_lo, m_hi + 1):
            sel = (octave == m) & cone
            cnt = np.count_nonzero(sel)
            if cnt == 0:
                continue
            vals = mags[sel]
            out[m - m_lo] = (np.max(vals) if np.isinf(q)
                             else (np.sum(vals**q) / cnt) ** (1.0 / q))
        return out

    return averages(raw), averages(weighted), sequence_norm(weighted[cone], q)


def _table_stats(table, raw, weighted, q):
    """``annulus_averages`` of two centred coefficient arrays."""
    table = table.centred
    return annulus_averages(table, _band_reduce(table, raw, q),
                            _band_reduce(table, weighted, q), q)


@settings(max_examples=80, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), size=st.integers(0, 2),
       q=st.sampled_from([1.0, 1.5, 2.0, np.inf]),
       aperture=st.floats(1e-3, np.pi / 2),
       m_lo=st.integers(0, 3), span=st.integers(0, 4),
       count=st.integers(1, 5), seed=st.integers(0, 2**16))
# an empty cone: no lattice point of n = 4 within 1e-3 rad of the axis
@example(d=3, size=0, q=1.5, aperture=1e-3, m_lo=0, span=2, count=1,
         seed=0)
# wide overlapping cones, bands below and above the octave range
@example(d=2, size=1, q=2.0, aperture=np.pi / 2, m_lo=2, span=1, count=5,
         seed=1)
def test_engine_matches_mask_reference(d, size, q, aperture, m_lo, span,
                                       count, seed):
    n = {1: (8, 32, 64), 2: (8, 16, 32), 3: (4, 8, 8)}[d][size]
    grid = TorusGrid(d, n)
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    weighted = raw * rng.uniform(0.5, 4.0, grid.size)
    if d == 1:
        dirs = ((1.0,), (-1.0,))[:count]
    else:
        # cones normalize their axes
        dirs = tuple(tuple(rng.standard_normal(d)) for _ in range(count))
    octaves = (m_lo, m_lo + span)
    raw_avgs, avgs, seminorms = _table_stats(
        _segment_table(grid, dirs, aperture, octaves), raw, weighted, q)
    assert raw_avgs.shape == avgs.shape == (len(dirs), span + 1)
    for i, direction in enumerate(dirs):
        want = _reference_stats(grid, raw, weighted, direction, aperture,
                                octaves, q)
        np.testing.assert_allclose(raw_avgs[i], want[0], rtol=1e-12)
        np.testing.assert_allclose(avgs[i], want[1], rtol=1e-12)
        np.testing.assert_allclose(seminorms[i], want[2], rtol=1e-12)


def test_engine_empty_cone_and_annuli():
    grid = TorusGrid(2, 8)
    coeffs = np.ones(grid.size, dtype=complex)
    table = _segment_table(grid, ((np.cos(0.1), np.sin(0.1)), (1.0, 0.0)),
                           1e-3, (0, 3))
    raw_avgs, avgs, seminorms = _table_stats(table, coeffs, coeffs, 1.0)
    # the first cone holds no lattice point; the second only k = (1..3, 0),
    # which fill octaves 0 and 1
    assert np.all(np.isnan(avgs[0])) and seminorms[0] == 0.0
    np.testing.assert_array_equal(np.isnan(avgs[1]),
                                  [False, False, True, True])
    np.testing.assert_array_equal(avgs[1][:2], [1.0, 1.0])
    assert seminorms[1] == 3.0


def _reference_fit(averages, usable, octaves):
    """One direction's decay fit, the per-direction loop the array fit
    replaces: (slope, n_used), slope None below two usable annuli."""
    m_lo, _ = octaves
    ms, logs = [], []
    for i, (a, ok) in enumerate(zip(averages, usable)):
        if not ok or np.isnan(a) or a <= 0:
            continue
        ms.append(m_lo + i)
        logs.append(np.log2(a))
    if len(ms) < 2:
        return None, len(ms)
    ms = np.asarray(ms, dtype=float)
    logs = np.asarray(logs)
    mbar = ms.mean()
    slope = float(np.sum((ms - mbar) * (logs - logs.mean()))
                  / np.sum((ms - mbar) ** 2))
    return slope, len(ms)


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 32), m_lo=st.integers(0, 4),
       span=st.integers(0, 6), usable_share=st.floats(0.0, 1.0),
       spread=st.sampled_from([1e-3, 1.0, 40.0]),
       seed=st.integers(0, 2**32 - 1))
# no row reaches two usable annuli: the early return
@example(rows=5, m_lo=1, span=3, usable_share=0.0, spread=1.0, seed=0)
# every annulus usable over the widest range
@example(rows=32, m_lo=0, span=6, usable_share=1.0, spread=40.0, seed=1)
def test_array_fit_matches_reference_loop(rows, m_lo, span, usable_share,
                                          spread, seed):
    rng = np.random.default_rng(seed)
    shape = (rows, span + 1)
    # decaying laws with noise, flat rows, NaN (empty), zero and negative
    # entries, and unusable annuli
    laws = rng.uniform(-6.0, 2.0, (rows, 1)) * np.arange(span + 1)
    logs = laws + spread * rng.standard_normal(shape)
    logs[rng.random(rows) < 0.1] = rng.uniform(-5, 5)
    avgs = np.exp2(logs)
    kind = rng.integers(0, 8, shape)
    avgs[kind == 5] = np.nan
    avgs[kind == 6] = 0.0
    avgs[kind == 7] = -avgs[kind == 7]
    usable = rng.random(shape) < usable_share
    octaves = (m_lo, m_lo + span)
    slopes, used = fit_decay_slope(avgs, usable, octaves)
    assert slopes.shape == used.shape == (rows,)
    for i in range(rows):
        want, n_used = _reference_fit(avgs[i], usable[i], octaves)
        assert used[i] == n_used
        if want is None:
            assert np.isnan(slopes[i])
        else:
            assert slopes[i] == want
            assert np.signbit(slopes[i]) == np.signbit(want)


def _reference_scan(f, query, classical, table_stats=False):
    """(singular mask, slopes, seminorms) position by position and
    direction by direction: the window evaluated at every position, the
    per-direction fit loop and the verdict rules.  The cone statistics
    come from one boolean mask per octave and cone, or with
    ``table_stats`` from the segment-table engine, which the masks match
    to rtol 1e-12 but not bit for bit."""
    grid = f.grid
    full = forward_transform(f).coeffs
    floor = np.max(np.abs(full[lattice(grid).norms > 0])) * (
        query.classical_rel_floor if classical else query.rel_floor)
    q = np.inf if classical else query.spec.q
    w = 1.0 if classical else query.spec.weight.on_lattice(grid)
    table = _segment_table(grid, query.directions, query.aperture,
                           query.octaves)
    shape = (len(query.positions), len(query.directions))
    singular = np.zeros(shape, dtype=bool)
    slopes, seminorms = np.empty(shape), np.empty(shape)
    for i, x0 in enumerate(query.positions):
        coeffs = forward_transform(window_signal(f, query.window, x0)).coeffs
        stats = (zip(*_table_stats(table, coeffs, coeffs * w, q))
                 if table_stats else
                 (_reference_stats(grid, coeffs, coeffs * w, direction,
                                   query.aperture, query.octaves, q)
                  for direction in query.directions))
        for j, (raw, avgs, seminorms[i, j]) in enumerate(stats):
            slope, used = _reference_fit(avgs, raw > floor, query.octaves)
            if used <= 1:
                regular, slopes[i, j] = True, -99.0
            elif classical:
                regular, slopes[i, j] = -slope >= query.decay_threshold, slope
            else:
                dq = 0.0 if np.isinf(q) else grid.d / q
                regular = slope <= -(dq + SLOPE_MARGIN)
                slopes[i, j] = slope
            singular[i, j] = not regular
    return singular, slopes, seminorms


SCAN_KINDS = [(1.0, 1.0), (1.0, 1.5), (2.0, 1.25), (np.inf, 1.0),
              (None, None)]


def _scan_kind(grid, q, s):
    query = default_query(grid)
    if q is None:
        return classical_wavefront, query
    return estimate_wavefront, replace(query,
                                       spec=FLNormSpec(q, Weight.power(s)))


@pytest.mark.parametrize("q, s", SCAN_KINDS)
def test_scan_verdicts_match_mask_reference(q, s):
    entries = standard_corpus(2, 64)
    scan, query = _scan_kind(entries[0].signal.grid, q, s)
    for entry in entries:
        singular, _, _ = _reference_scan(entry.signal, query, q is None)
        assert [r.verdict for r in scan(entry.signal, query).records] == [
            "singular" if flag else "regular" for flag in singular.flat]


@pytest.mark.parametrize("q, s", SCAN_KINDS)
def test_scan_arrays_equal_per_direction_reference(q, s):
    # the rolled origin window, the array fit and the array verdicts
    # change no bit of the report
    entries = standard_corpus(2, 64)
    scan, query = _scan_kind(entries[0].signal.grid, q, s)
    for entry in entries:
        rep = scan(entry.signal, query)
        singular, slopes, seminorms = _reference_scan(
            entry.signal, query, q is None, table_stats=True)
        np.testing.assert_array_equal(rep.singular_mask, singular)
        np.testing.assert_array_equal(rep.slopes, slopes)
        np.testing.assert_array_equal(rep.seminorms, seminorms)


@pytest.mark.parametrize("d, n", [(1, 32), (2, 16), (3, 8)])
@pytest.mark.parametrize("shape", ["gauss", "hann", "flattop"])
def test_rolled_origin_window_is_the_window_at_every_cell(d, n, shape):
    grid = TorusGrid(d, n)
    axes = tuple(range(d))
    cells = list(np.ndindex(grid.shape)) + [(-1,) * d, (n + 2,) * d]
    for width in (4.0, n / 2 + 0.5, n - 1.0):
        spec = WindowSpec(shape, width)
        w0 = window_values(grid, spec, (0,) * d).reshape(grid.shape)
        for cell in cells:
            np.testing.assert_array_equal(np.roll(w0, cell, axes).ravel(),
                                          window_values(grid, spec, cell))


@pytest.mark.parametrize("d, n", [(1, 16), (2, 8), (3, 4)])
def test_floor_scale_is_the_largest_coefficient_off_the_origin(d, n):
    grid = TorusGrid(d, n)
    rng = np.random.default_rng(d)
    coeffs = rng.standard_normal(grid.size) + 1j * rng.standard_normal(
        grid.size)
    off = lattice(grid).norms > 0
    coeffs[~off] = 1e6
    f = inverse_transform(Spectrum(grid, coeffs))
    spectrum = forward_transform(f).coeffs
    assert f.peak_off_origin == np.max(np.abs(spectrum[off]))
    assert np.all(forward_transform(f).coeffs == spectrum)


def test_second_scan_transforms_only_the_windows(count_transforms):
    entry = standard_corpus(2, 64)[1]
    f = Signal(entry.signal.grid, entry.signal.values)  # nothing cached
    query = default_query(f.grid)
    tally = count_transforms(f)
    first = estimate_wavefront(f, query)
    assert tally == {"all": len(query.positions) + 1, "whole": 1}
    tally["all"] = tally["whole"] = 0
    second = estimate_wavefront(f, query)
    assert tally == {"all": len(query.positions), "whole": 0}
    assert np.array_equal(first.singular_mask, second.singular_mask)
    assert np.array_equal(first.slopes, second.slopes)


def test_scan_positions_must_be_grid_cells():
    g = TorusGrid(2, 64)
    f = make_smooth(g, seed=0).signal
    query = replace(default_query(g), positions=((0, 0), (16.5, 0)))
    for scan in (estimate_wavefront, classical_wavefront):
        with pytest.raises(ValueError, match="integer grid cells"):
            scan(f, query)
    with pytest.raises(ValueError, match="integer grid cells"):
        superior_scan(f, query, [1.0])


# ---------------------------------------------------------------------------
# Metamorphic estimator tests: symmetries of the wave-front set
# ---------------------------------------------------------------------------


def _corpus_scans(mode, d, n):
    """The d-dimensional corpus with its default query, and a scan of a
    transformed copy of an entry's values."""
    entries = standard_corpus(d, n)
    grid = entries[0].signal.grid
    query = default_query(grid)
    scan = classical_wavefront if mode == "classical" else estimate_wavefront

    def run(values):
        return scan(Signal(grid, values.ravel()), query).singular_mask

    return entries, query, run


def _remapped(mask, query, cell_of, bin_of):
    """Entry (p, j) of the result is ``mask`` at (cell_of(p), bin_of(j))."""
    index = {tuple(np.atleast_1d(c)): i for i, c in enumerate(query.positions)}
    rows = [index[cell_of(tuple(np.atleast_1d(c)))] for c in query.positions]
    bins = [bin_of(j) for j in range(len(query.directions))]
    return mask[np.ix_(rows, bins)]


def _quarter_turn(values):
    """new[i, j] = old[j, -i]: |new^(k1, k2)| = |old^(k2, -k1)|."""
    i, j = np.indices(values.shape)
    return values[j, -i % values.shape[0]]


# (values map, cell of the original verdict on the n-grid, bin of the
# original verdict) for 32 bins at angles 2 pi j / 32
SYMMETRIES = {
    "scale 1e-3": (lambda v: 1e-3 * v, lambda c, n: c, lambda j: j),
    "scale 7": (lambda v: 7.0 * v, lambda c, n: c, lambda j: j),
    # conj(f)^(k) = conj(f^(-k)): theta -> -theta, half a turn of bins
    "conjugate": (np.conj, lambda c, n: c, lambda j: (j + 16) % 32),
    "quarter turn": (_quarter_turn, lambda c, n: (c[1], -c[0] % n),
                     lambda j: (j - 8) % 32),
}


@pytest.mark.parametrize("mode", ["fl", "classical"])
@pytest.mark.parametrize("name", sorted(SYMMETRIES))
def test_verdicts_respect_the_symmetry(mode, name):
    values_map, cell_of, bin_of = SYMMETRIES[name]
    for n in (64, 128):
        entries, query, run = _corpus_scans(mode, 2, n)
        for entry in entries:
            values = entry.signal.reshaped()
            np.testing.assert_array_equal(
                run(values_map(values)),
                _remapped(run(values), query, lambda c: cell_of(c, n),
                          bin_of))


@settings(max_examples=12, deadline=None)
@given(mode=st.sampled_from(["fl", "classical"]),
       steps=st.tuples(st.integers(0, 3), st.integers(0, 3)),
       entry=st.integers(0, 3), n=st.sampled_from([64, 128]))
# one stride along each axis, and a diagonal one
@example(mode="fl", steps=(1, 0), entry=2, n=64)
@example(mode="classical", steps=(0, 1), entry=3, n=64)
@example(mode="fl", steps=(1, 0), entry=2, n=128)
@example(mode="classical", steps=(0, 1), entry=3, n=128)
@example(mode="fl", steps=(2, 3), entry=3, n=128)
def test_verdicts_follow_a_translation_by_the_scan_stride(mode, steps, entry,
                                                          n):
    entries, query, run = _corpus_scans(mode, 2, n)
    shift = tuple(n // 4 * k for k in steps)  # the default stride n/4
    values = entries[entry].signal.reshaped()
    np.testing.assert_array_equal(
        run(np.roll(values, shift, (0, 1))),
        _remapped(run(values), query,
                  lambda c: tuple((a - b) % n for a, b in zip(c, shift)),
                  lambda j: j))


# d = 1, n = 256: two bins, theta = +1 and -1, so conjugation swaps them
SYMMETRIES_D1 = {
    "scale 1e-3": SYMMETRIES["scale 1e-3"],
    "scale 7": SYMMETRIES["scale 7"],
    "conjugate": (np.conj, lambda c, n: c, lambda j: 1 - j),
}


@pytest.mark.parametrize("mode", ["fl", "classical"])
@pytest.mark.parametrize("name", sorted(SYMMETRIES_D1))
def test_d1_verdicts_respect_the_symmetry(mode, name):
    values_map, cell_of, bin_of = SYMMETRIES_D1[name]
    entries, query, run = _corpus_scans(mode, 1, 256)
    for entry in entries:
        values = entry.signal.reshaped()
        np.testing.assert_array_equal(
            run(values_map(values)),
            _remapped(run(values), query, lambda c: cell_of(c, 256),
                      bin_of))


@pytest.mark.parametrize("mode", ["fl", "classical"])
def test_d1_verdicts_follow_a_translation_by_the_scan_stride(mode):
    entries, query, run = _corpus_scans(mode, 1, 256)
    for entry in entries:
        values = entry.signal.reshaped()
        for shift in (64, 128, 192):  # multiples of the default stride n/4
            np.testing.assert_array_equal(
                run(np.roll(values, shift)),
                _remapped(run(values), query,
                          lambda c: ((c[0] - shift) % 256,), lambda j: j))


# ---------------------------------------------------------------------------
# Array-backed reports and the tolerance matcher
# ---------------------------------------------------------------------------


def _bin_gap(directions, t1, t2):
    """Circular distance between the nearest direction bins of t1 and t2."""
    dirs = [np.asarray(t) for t in directions]
    i1 = int(np.argmax([float(np.dot(t1, t)) for t in dirs]))
    i2 = int(np.argmax([float(np.dot(t2, t)) for t in dirs]))
    return min((i1 - i2) % len(dirs), (i2 - i1) % len(dirs))


def _reference_included(left, right, cell_tol, bin_tol, support=None):
    """The pairwise loop the matcher replaces: every left singular record
    against every right one (shifted by every support cell), through
    TorusGrid.cell_distance and the nearest bins."""
    grid = left.grid
    shifts = ([(0,) * grid.d] if support is None
              else np.argwhere(support.reshape(grid.shape)))
    violations = []
    for r in left.singular():
        if not any(_bin_gap(left.query.directions, r.theta, s.theta)
                   <= bin_tol
                   and grid.cell_distance(r.x0, np.add(x, s.x0) % grid.n)
                   <= cell_tol
                   for s in right.singular() for x in shifts):
            violations.append({"x0": list(r.x0), "theta": list(r.theta)})
    return {"holds": not violations, "violations": violations}


def _reference_recovery(report, components, cell_tol, bin_tol):
    """Oracle recovery as the per-record, per-component loop."""
    def covers(comp, rec):
        return any(report.grid.cell_distance(rec.x0, cell) <= cell_tol
                   for cell in comp.cells) and (
            comp.directions == "all"
            or any(_bin_gap(report.query.directions, rec.theta, t)
                   <= bin_tol for t in comp.directions))

    singular = report.singular()
    missed = [comp for comp in components
              if not any(covers(comp, rec) for rec in singular)]
    extras = [rec for rec in singular
              if not any(covers(comp, rec) for comp in components)]
    return missed, extras


def _random_report(query, grid, rng, share):
    shape = (len(query.positions), len(query.directions))
    return WavefrontReport(grid, query, rng.random(shape) < share,
                           np.zeros(shape), np.zeros(shape))


@settings(max_examples=80, deadline=None)
@given(d=st.sampled_from([1, 2]), size=st.integers(0, 1),
       bins=st.sampled_from([4, 8]), count=st.integers(1, 6),
       cell_frac=st.floats(0.0, 1.0), bin_tol=st.sampled_from([0, 1, 2]),
       support=st.integers(0, 4), seed=st.integers(0, 2**16))
# exact tolerances: same cell, same bin
@example(d=2, size=1, bins=8, count=6, cell_frac=0.0, bin_tol=0, support=0,
         seed=3)
# the whole torus within reach
@example(d=2, size=0, bins=4, count=5, cell_frac=1.0, bin_tol=2, support=2,
         seed=5)
def test_matcher_matches_pairwise_reference(d, size, bins, count, cell_frac,
                                            bin_tol, support, seed):
    n = {1: (16, 64), 2: (8, 16)}[d][size]
    grid = TorusGrid(d, n)
    rng = np.random.default_rng(seed)
    cells = np.unravel_index(rng.choice(grid.size, count, replace=False),
                             grid.shape)
    query = WavefrontQuery(positions=tuple(zip(*cells)),
                           directions=directions_for(d, bins),
                           window=WindowSpec("gauss", 4),
                           aperture=np.pi / 8, spec=FLNormSpec(1.0))
    left = _random_report(query, grid, rng, 0.3)
    right = _random_report(query, grid, rng, 0.2)
    cell_tol = cell_frac * n / 2
    mask = None
    if support:
        mask = np.zeros(grid.size, dtype=bool)
        mask[rng.choice(grid.size, support, replace=False)] = True
    assert report_included_in(left, right, cell_tol, bin_tol, mask) == \
        _reference_included(left, right, cell_tol, bin_tol, mask)


@pytest.mark.parametrize("cell_tol, bin_tol", [(2.0, 1), (0.0, 0)])
def test_oracle_recovery_matches_pairwise_reference(cell_tol, bin_tol):
    # every d=1 report against every entry's oracle, d=2 against its own
    pairs = []
    for d, n in ((1, 256), (2, 64)):
        entries = standard_corpus(d, n)
        query = default_query(entries[0].signal.grid)
        reports = [estimate_wavefront(e.signal, query) for e in entries]
        pairs += [(rep, e) for i, rep in enumerate(reports)
                  for j, e in enumerate(entries) if d == 1 or i == j]
    found = 0
    for rep, entry in pairs:
        comps = entry.expected_singular(rep.query.spec.weight.s)
        got = oracle_recovery(rep, comps, cell_tol, bin_tol)
        assert got == _reference_recovery(rep, comps, cell_tol, bin_tol)
        found += len(got[0]) + len(got[1])
    assert found > 0


def _reference_serialized(report, path):
    """JSON text and CSV bytes of the record-by-record serializer, with the
    records built entry by entry from the report's arrays."""
    records = [
        WavefrontRecord(
            x0=tuple(int(c) for c in np.atleast_1d(x0)),
            theta=tuple(direction),
            verdict="singular" if report.singular_mask[i, j] else "regular",
            slope=float(report.slopes[i, j]),
            seminorm=float(report.seminorms[i, j]))
        for i, x0 in enumerate(report.query.positions)
        for j, direction in enumerate(report.query.directions)
    ]
    rows = [{"x0": list(r.x0), "theta": list(r.theta), "verdict": r.verdict,
             "slope": r.slope, "seminorm": r.seminorm} for r in records]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x0", "theta", "verdict", "slope", "seminorm"])
        for r in records:
            writer.writerow([
                " ".join(str(c) for c in r.x0),
                " ".join(f"{t:.6f}" for t in r.theta),
                r.verdict, f"{r.slope:.6f}", f"{r.seminorm:.8e}",
            ])
    return (tuple(records),
            json.dumps({"mode": report.mode, "records": rows},
                       sort_keys=True),
            path.read_bytes())


def test_report_serialization_matches_record_serializer(tmp_path):
    for d, n in ((1, 256), (2, 128)):
        entries = standard_corpus(d, n)
        query = default_query(entries[0].signal.grid)
        for entry in entries:
            for scan in (estimate_wavefront, classical_wavefront):
                rep = scan(entry.signal, query)
                rep.write_csv(str(tmp_path / "got.csv"))
                records, text, csv_bytes = _reference_serialized(
                    rep, tmp_path / "want.csv")
                assert rep.records == records
                assert rep.to_json() == text
                assert (tmp_path / "got.csv").read_bytes() == csv_bytes
                assert rep.singular() == [r for r in records
                                          if r.verdict == "singular"]


def test_verdict_at_reads_the_scan_and_raises_off_it():
    g = TorusGrid(1, 256)
    rep = estimate_wavefront(make_power_cusp(g, 2.5, 64).signal,
                             default_query(g))
    assert any(r.verdict == "singular" for r in rep.records)
    for r in rep.records:
        assert rep.verdict_at(r.x0, r.theta) == r.verdict
    for x0, theta in (((1,), (1.0,)), ((64,), (0.5,)), ((64, 0), (1.0,))):
        with pytest.raises(KeyError):
            rep.verdict_at(x0, theta)


def test_inclusion_rejects_reports_of_different_scans():
    f1 = make_power_cusp(TorusGrid(1, 256), 2.5, 64).signal
    f2 = make_smooth(TorusGrid(2, 64), seed=2).signal
    q1, q2 = default_query(f1.grid), default_query(f2.grid)
    pairs = [
        (q1, replace(q1, positions=q1.positions[:2])),
        (q1, replace(q1, positions=q1.positions[::-1])),
        (q2, default_query(f2.grid, bins=16)),
    ]
    for qa, qb in pairs:
        f = f1 if qa is q1 else f2
        with pytest.raises(ValueError, match="different positions"):
            report_included_in(estimate_wavefront(f, qa),
                               estimate_wavefront(f, qb))


def test_merge_singular_is_an_array_union():
    g = TorusGrid(1, 256)
    q = default_query(g)
    r1 = estimate_wavefront(make_power_cusp(g, 2.5, 64).signal, q)
    r2 = estimate_wavefront(make_power_cusp(g, 0.5, 192).signal, q)
    merged = _merge_singular(r1, r2)
    np.testing.assert_array_equal(merged.singular_mask,
                                  r1.singular_mask | r2.singular_mask)
    np.testing.assert_array_equal(
        merged.slopes, np.where(r2.singular_mask, r2.slopes, r1.slopes))
    assert merged.query == r1.query and merged.mode == r1.mode
