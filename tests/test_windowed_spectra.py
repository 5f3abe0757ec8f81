"""The windowed-spectrum kernel against the per-position path it replaced.

The reference windows f at each cell by ``np.roll`` of the origin window,
transforms the product with ``forward_transform`` (centred order) and
gathers each segment table's points from the centred spectrum.  Every
scan mode, the superior scan and the sup profile must reproduce it bit
for bit.
"""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import flwave.modulation
import flwave.wavefront
from flwave.corpus import standard_corpus
from flwave.grid import Signal, TorusGrid, forward_transform, random_signal
from flwave.modulation import (_neighbourhood, modulation_direction_verdict,
                               modulation_sup_profile, modulation_wavefront)
from flwave.norms import FLNormSpec
from flwave.wavefront import (
    WavefrontRecord,
    _band_sums,
    _fl_bound,
    _last_true_prefix,
    _segment_table,
    _verdicts,
    _weight_terms,
    annulus_averages,
    classical_wavefront,
    default_query,
    estimate_wavefront,
    fit_decay_slope,
    regular_directions,
    superior_scan,
)
from flwave.weights import Weight
from flwave.windows import (WindowSpec, origin_window, window_values,
                            windowed_spectra)

CORPORA = [(1, 256), (2, 64)]
ORDERS = [0.0, 1.0, 2.0, 3.0, 6.0]


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


def _rolled_spectrum(f, window, cell):
    """Centred spectrum of f times the origin window rolled to ``cell``."""
    grid = f.grid
    w0 = window_values(grid, window, (0,) * grid.d).reshape(grid.shape)
    shift = tuple(int(c) for c in np.atleast_1d(cell))
    rolled = np.roll(w0, shift, tuple(range(grid.d)))
    return forward_transform(Signal(grid, f.reshaped() * rolled)).coeffs


def _reference_sup_profile(f, x0, window, radius, step):
    """Sup of |spectrum| over every cell within ``radius`` of x0 whose
    coordinates are multiples of ``step``, one rolled window per cell."""
    grid, n = f.grid, f.grid.n
    cells = np.indices(grid.shape).reshape(grid.d, -1).T
    delta = (cells - np.atleast_1d(x0) + n // 2) % n - n // 2
    near = (np.sqrt(np.sum(delta**2, axis=1)) <= radius) & \
        np.all(cells % step == 0, axis=1)
    sup_v = np.zeros(grid.size)
    for cell in cells[near]:
        np.maximum(sup_v, np.abs(_rolled_spectrum(f, window, cell)),
                   out=sup_v)
    return sup_v


def _centred_bands(table, coeffs, w, q):
    """Per (direction, band) sums gathered from a centred array: |c| is
    gathered, raised to q and then multiplied by the gathered centred
    weight ``w`` raised to q (None: unweighted)."""
    grid = table.grid
    centred = np.fft.ifftshift(np.arange(grid.size).reshape(grid.shape))
    points = centred.ravel()[table.index]
    terms = np.take(np.abs(coeffs), points)
    if not np.isinf(q):
        terms = terms**q
    if w is not None:
        terms = terms * (w[points] if np.isinf(q) else w[points]**q)
    out = np.zeros(table.counts.size)
    reduceat = np.maximum.reduceat if np.isinf(q) else np.add.reduceat
    out[table.filled] = reduceat(terms, table.starts)
    return out.reshape(table.counts.shape)


def _reference_verdicts(table, coeffs, w, q, floor, bound):
    """(regular, slopes, seminorms) of one centred spectrum: usability on
    the unweighted averages, the fit on the weighted ones, and regular
    when slope <= bound or below two usable annuli (slope -99)."""
    raw_avgs, avgs, seminorms = annulus_averages(
        table, _centred_bands(table, coeffs, None, q),
        _centred_bands(table, coeffs, w, q), q)
    slopes, used = fit_decay_slope(avgs, raw_avgs > floor, table.octaves)
    fitted = used >= 2
    return (~fitted | (slopes <= bound), np.where(fitted, slopes, -99.0),
            seminorms)


def _reference_scan(f, query, mode, spectrum):
    """(singular mask, slopes, seminorms) position by position, from the
    centred spectra ``spectrum(x0)``."""
    grid = f.grid
    if mode == "classical":
        q, w, bound = np.inf, None, -query.decay_threshold
        floor = query.classical_rel_floor * f.peak_off_origin
    else:
        q, w = query.spec.q, query.spec.weight.on_lattice(grid)
        bound = _fl_bound(grid.d, q)
        floor = query.rel_floor * f.peak_off_origin
    table = _segment_table(grid, query.directions, query.aperture,
                           query.octaves)
    regular, slopes, seminorms = (np.array(rows) for rows in zip(*(
        _reference_verdicts(table, spectrum(x0), w, q, floor, bound)
        for x0 in query.positions)))
    return ~regular, slopes, seminorms


def _reference_superior(f, query, s_list):
    """``superior_scan`` from one rolled window per (position, ladder)."""
    grid = f.grid
    bound = _fl_bound(grid.d, query.spec.q)
    floor = query.rel_floor * f.peak_off_origin
    ladders = [(1.0, 1.0), (0.5, 1.0), (0.25, 1.0)]
    if grid.d > 1:
        ladders += [(1.0, 0.5), (0.5, 0.5)]
    weights = [Weight.power(s).on_lattice(grid) for s in s_list]
    out = {}
    for x0 in query.positions:
        passes = []
        for wf, af in ladders:
            table = _segment_table(grid, query.directions,
                                   query.aperture * af, query.octaves)
            coeffs = _rolled_spectrum(f, query.window.narrowed(wf), x0)
            passes.append([_reference_verdicts(table, coeffs, w, query.spec.q,
                                               floor, bound)[0]
                           for w in weights])
        passes = np.array(passes)
        cell = tuple(int(c) for c in np.atleast_1d(x0))
        for i, direction in enumerate(query.directions):
            fixed = passes[0, :, i].tolist()
            adaptive = passes[:, :, i].any(axis=0).tolist()
            out[(cell, tuple(direction))] = {
                "s_list": list(s_list), "fixed_pass": fixed,
                "adaptive_pass": adaptive,
                "fixed_max_index": _last_true_prefix(fixed),
                "adaptive_max_index": _last_true_prefix(adaptive)}
    return out


@pytest.mark.parametrize("d, n", [(1, 32), (2, 16), (3, 8)])
@pytest.mark.parametrize("shape", ["gauss", "hann", "flattop"])
def test_kernel_yields_the_unshifted_rolled_spectrum(d, n, shape):
    grid = TorusGrid(d, n)
    f = random_signal(grid, np.random.default_rng(d))
    window = WindowSpec(shape, n / 2)
    cells = [(0,) * d, (1,) * d, (n - 1,) * d, (-1,) * d, (n + 2,) * d,
             tuple(range(3, 3 + d))]
    spectra = windowed_spectra(f, origin_window(grid, window), cells)
    buffers = set()
    for cell, spec in zip(cells, spectra):
        buffers.add(id(spec))
        want = np.fft.ifftshift(
            _rolled_spectrum(f, window, cell).reshape(grid.shape))
        assert _same_bits(spec, want), cell
    assert len(buffers) == 1  # one buffer, overwritten per cell


def test_origin_window_is_cached_and_read_only():
    grid = TorusGrid(2, 32)
    w0 = origin_window(grid, WindowSpec("hann", 12))
    assert w0 is origin_window(grid, WindowSpec("hann", 12))
    assert not w0.flags.writeable
    assert _same_bits(w0.ravel(), window_values(grid, WindowSpec("hann", 12),
                                                (0, 0)))


@pytest.mark.parametrize("d, n", CORPORA)
@pytest.mark.parametrize("mode, q", [("fl", 1.0), ("fl", 2.0), ("fl", np.inf),
                                     ("classical", None),
                                     ("modulation", None)])
def test_scans_equal_the_rolled_window_reference(d, n, mode, q):
    entries = standard_corpus(d, n)
    query = default_query(entries[0].signal.grid)
    if q is not None:
        query = replace(query, spec=FLNormSpec(q, query.spec.weight))
    radius, step = _neighbourhood(n)
    for entry in entries:
        f = entry.signal
        if mode == "modulation":
            report = modulation_wavefront(f, query)
            spectrum = partial(_reference_sup_profile, f, window=query.window,
                               radius=radius, step=step)
        else:
            scan = (classical_wavefront if mode == "classical"
                    else estimate_wavefront)
            report = scan(f, query)
            spectrum = partial(_rolled_spectrum, f, query.window)
        want = _reference_scan(f, query, mode, spectrum)
        got = (report.singular_mask, report.slopes, report.seminorms)
        assert all(map(_same_bits, got, want)), entry.id


@pytest.mark.parametrize("d, n", CORPORA)
def test_superior_scan_equals_the_rolled_window_reference(d, n):
    entries = standard_corpus(d, n)
    query = default_query(entries[0].signal.grid)
    for entry in entries:
        assert superior_scan(entry.signal, query, ORDERS) == \
            _reference_superior(entry.signal, query, ORDERS), entry.id


@pytest.mark.parametrize("d, n", CORPORA)
@pytest.mark.parametrize("q", [1.0, 2.0, np.inf])
def test_kernel_rows_equal_one_call_per_weight(d, n, q):
    # several weights in one call, a classical (None) row among them, give
    # the rows of one call per weight, and leave the spectrum as it was,
    # so callers may share it across calls
    f = standard_corpus(d, n)[2].signal
    grid = f.grid
    query = default_query(grid)
    table = _segment_table(grid, query.directions, query.aperture,
                           query.octaves)
    weights = [_weight_terms(Weight.power(s).on_lattice(grid)[
        table.centred.index], q) for s in (0.5, 2.0, 4.0)]
    weights.insert(1, None)
    floor, bound = query.rel_floor * f.peak_off_origin, _fl_bound(d, q)
    spectra = windowed_spectra(f, origin_window(grid, query.window),
                               query.positions)
    fitted = False
    for spec in spectra:
        before = spec.copy()
        got = _verdicts(table, *_band_sums(table, spec, weights, q), q,
                        floor, bound)
        assert _same_bits(spec, before)
        assert all(a.shape == (len(weights), len(query.directions))
                   for a in got)
        for i, w in enumerate(weights):
            want = _verdicts(table, *_band_sums(table, spec, [w], q), q,
                             floor, bound)
            assert all(_same_bits(a[i], b[0]) for a, b in zip(got, want))
        # some slope differs between the weights, so the rows are not copies
        fitted |= not _same_bits(got[1][0], got[1][3])
    assert fitted


def test_kernel_leaves_every_callers_spectrum_unchanged(monkeypatch):
    calls = []
    original = flwave.wavefront._band_sums

    def checking(table, spec, *args):
        before = spec.copy()
        out = original(table, spec, *args)
        calls.append(_same_bits(spec, before))
        return out

    # both modules that call the kernel bind it
    for module in (flwave.wavefront, flwave.modulation):
        monkeypatch.setattr(module, "_band_sums", checking)
    entry = standard_corpus(2, 32)[2]
    f, query = entry.signal, default_query(entry.signal.grid)
    x0 = query.positions[5]
    sup_v = modulation_sup_profile(f, x0, query.window, 2, 2)
    kept = sup_v.copy()
    runs = [partial(estimate_wavefront, f, query),
            partial(classical_wavefront, f, query),
            partial(modulation_wavefront, f, query),
            partial(superior_scan, f, query, [1.0, 2.0]),
            partial(regular_directions, f, query.spec, query.aperture),
            partial(modulation_direction_verdict, f, x0, query.directions[3],
                    1.0, 1.0, query.window, query.aperture, query.octaves,
                    query.rel_floor, sup_v=sup_v)]
    for run in runs:
        count = len(calls)
        run()
        assert len(calls) > count and all(calls), run.func.__name__
    assert _same_bits(sup_v, kept)


def test_sup_profiles_equal_the_rolled_window_reference():
    entries = standard_corpus(2, 64)
    query = default_query(entries[0].signal.grid)
    for entry in entries[1:3]:
        for x0 in query.positions:
            got = modulation_sup_profile(entry.signal, x0, query.window, 2, 2)
            want = _reference_sup_profile(entry.signal, x0, query.window, 2, 2)
            assert _same_bits(got, want), (entry.id, x0)


def test_overflowing_windowed_spectrum_raises_from_every_entry_point():
    grid = TorusGrid(2, 32)
    f = Signal(grid, np.full(grid.size, 1e308))
    # the floor scale is cached as if computed, so that only the windowed
    # spectra can raise
    f.__dict__["peak_off_origin"] = 1.0
    query = replace(default_query(grid), positions=((3, 5),))
    runs = [partial(estimate_wavefront, f, query),
            partial(classical_wavefront, f, query),
            partial(superior_scan, f, query, [1.0]),
            partial(modulation_sup_profile, f, (3, 5), query.window),
            partial(modulation_wavefront, f, query)]
    with np.errstate(over="ignore", invalid="ignore"):
        for run in runs:
            with pytest.raises(ValueError,
                               match="spectrum coefficients must be finite"):
                run()


def test_consecutive_reports_share_no_memory(monkeypatch):
    buffers = []
    original = flwave.wavefront.windowed_spectra

    def recording(*args):
        for spec in original(*args):
            buffers.append(spec)
            yield spec

    monkeypatch.setattr(flwave.wavefront, "windowed_spectra", recording)
    entry = standard_corpus(2, 64)[2]
    query = default_query(entry.signal.grid)
    reports = [estimate_wavefront(entry.signal, query) for _ in range(2)]
    assert len(buffers) == 2 * len(query.positions)
    arrays = [a for r in reports
              for a in (r.singular_mask, r.slopes, r.seminorms)]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:] + buffers:
            assert not np.shares_memory(a, b)
    assert _same_bits(reports[0].slopes, reports[1].slopes)
    assert reports[0].records == reports[1].records


def test_records_are_named_tuples_in_field_order():
    entry = standard_corpus(1, 64)[1]
    report = estimate_wavefront(entry.signal, default_query(entry.signal.grid))
    assert WavefrontRecord._fields == ("x0", "theta", "verdict", "slope",
                                       "seminorm")
    record = report.records[0]
    assert isinstance(record, tuple)
    assert record == (record.x0, record.theta, record.verdict, record.slope,
                      record.seminorm)
