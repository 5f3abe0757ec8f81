"""Corpus constructors: invariants, membership surrogates, oracles."""

import numpy as np
import pytest

import flwave.corpus
from flwave.corpus import (
    make_delta,
    make_edge,
    make_example_sum,
    make_power_cusp,
    make_smooth,
    standard_corpus,
)
from flwave.grid import Signal, TorusGrid, forward_transform
from flwave.norms import FLNormSpec, fl_norm
from flwave.weights import Weight


def test_smooth_is_bandlimited():
    g = TorusGrid(1, 256)
    entry = make_smooth(g, seed=0, degree=4)
    coeffs = forward_transform(entry.signal).coeffs
    lat = np.arange(-128, 128)
    outside = np.abs(coeffs[np.abs(lat) > 4])
    assert np.max(outside) < 1e-10 * np.max(np.abs(coeffs))
    assert entry.oracle_wf == ()


def test_smooth_degree_guard():
    g = TorusGrid(1, 16)
    with pytest.raises(ValueError):
        make_smooth(g, degree=8)


def test_delta_entry():
    g = TorusGrid(1, 256)
    entry = make_delta(g, (64,))
    coeffs = np.abs(forward_transform(entry.signal).coeffs)
    assert np.allclose(coeffs, coeffs[0])  # flat spectrum
    assert entry.oracle_fl[(np.inf, 0.0)] is True
    assert entry.oracle_fl[(1.0, 1.0)] is False


def test_delta_translation_covariance():
    g = TorusGrid(1, 256)
    e1 = make_delta(g, (64,))
    e2 = make_delta(g, (96,))
    assert e1.oracle_wf[0].cells == ((64,),)
    assert e2.oracle_wf[0].cells == ((96,),)
    assert np.max(np.abs(np.roll(e1.signal.values, 32)
                         - e2.signal.values)) < 1e-15


def test_edge_requires_2d():
    with pytest.raises(ValueError):
        make_edge(TorusGrid(1, 64))


def test_edge_normal_decay():
    # transversal jump gives ~1/k decay along the normal axis
    g = TorusGrid(2, 64)
    entry = make_edge(g, axis=0, offset=0)
    coeffs = forward_transform(entry.signal).reshaped()
    normal_line = np.abs(coeffs[:, 32])  # k_t = 0 column
    ks = np.arange(-32, 32)
    sel = (ks >= 4) & (ks <= 16)
    decay = normal_line[sel] * ks[sel]
    assert np.max(decay) / np.min(decay) < 3.0  # ~1/k within a factor
    # directions are the two normals
    dirs = entry.oracle_wf[0].directions
    assert np.allclose(np.abs(dirs), [(1.0, 0.0), (1.0, 0.0)])


def test_edge_rotation_symmetry():
    g = TorusGrid(2, 64)
    e0 = make_edge(g, axis=0, offset=0)
    e1 = make_edge(g, axis=1, offset=0)
    assert np.max(np.abs(e0.reshaped_values().T
                         - e1.reshaped_values())) < 1e-15 \
        if hasattr(e0, "reshaped_values") else True
    v0 = e0.signal.reshaped()
    v1 = e1.signal.reshaped()
    assert np.max(np.abs(v0.T - v1)) < 1e-15


def test_cusp_validation():
    g = TorusGrid(1, 256)
    with pytest.raises(ValueError):
        make_power_cusp(g, 2.0, 0)  # integer exponent
    with pytest.raises(ValueError):
        make_power_cusp(TorusGrid(2, 16), 0.5, 0)


def test_cusp_spectral_decay():
    g = TorusGrid(1, 256)
    for a in (0.5, 2.5):
        entry = make_power_cusp(g, a, 128)
        coeffs = np.abs(forward_transform(entry.signal).coeffs)
        ks = np.arange(-128, 128)
        # mid-band fit: near the lattice edge, aliased continuum tails
        # flatten the sampled law (strongest for slow decay)
        sel = (ks >= 8) & (ks <= 64)
        fitted = np.polyfit(np.log(ks[sel]), np.log(coeffs[sel]), 1)[0]
        assert abs(fitted + (a + 1)) < 0.35


def test_cusp_oracle_membership_table():
    g = TorusGrid(1, 256)
    entry = make_power_cusp(g, 2.5, 128)
    assert entry.oracle_fl[(1.0, 1.5)] is True
    assert entry.oracle_fl[(1.0, 3.5)] is False


def test_example_sum_count_guard():
    g = TorusGrid(1, 256)
    with pytest.raises(ValueError):
        make_example_sum(g, count=5)
    with pytest.raises(ValueError):
        make_example_sum(TorusGrid(2, 32))


def test_example_sum_structure():
    g = TorusGrid(1, 256)
    entry = make_example_sum(g, count=3)
    assert len(entry.oracle_wf) == 3
    # component footprints are disjoint and march toward the origin
    spans = [(comp.cells[0][0], comp.cells[-1][0])
             for comp in entry.oracle_wf]
    for (lo1, hi1), (lo2, hi2) in zip(spans, spans[1:]):
        assert hi2 < lo1
    assert (0,) in entry.classical_singular_cells


def test_example_sum_membership_surrogate():
    # each component's weighted tail at order j+3 exceeds ten times the
    # order-(j+2) value
    g = TorusGrid(1, 256)
    from flwave.corpus import _texture_bump

    geometry = {1: (192, 8.0, 3.25), 2: (128, 6.0, 5.25), 3: (20, 4.0, 6.0)}
    rng = np.random.default_rng(5)
    for j, (center, sigma, gamma) in geometry.items():
        bump = _texture_bump(g, center, sigma, gamma, 12, rng)
        hi, lo = (fl_norm(Signal(g, bump), FLNormSpec(1.0, Weight.power(s)))
                  for s in (j + 3.0, j + 2.0))
        ratio = hi / lo
        assert ratio >= 10.0, (j, ratio)


def test_expected_singular_guard():
    g = TorusGrid(1, 256)
    entry = make_power_cusp(g, 2.5, 128)
    with pytest.raises(ValueError):
        entry.expected_singular(2.3)  # too close to the transition
    comps = entry.expected_singular(2.75)
    assert len(comps) == 1


def test_standard_corpus_shapes():
    d1 = standard_corpus(1, 256)
    assert [e.id for e in d1] == [
        "smooth-1", "delta", "cusp-0.5", "cusp-2.5", "graded-sum-3"]
    d2 = standard_corpus(2, 128)
    assert [e.id for e in d2] == [
        "smooth-2", "delta", "edge-ax0", "edge-ax1"]
    with pytest.raises(ValueError):
        standard_corpus(3, 16)


@pytest.mark.parametrize("d", [1, 2])
def test_standard_corpus_states_its_size_rule(d):
    # below n = 16 the corpus fails by its own rule, not by the message
    # of whichever entry's constructor happens to object first
    with pytest.raises(ValueError, match=r"standard corpus needs n >= 16"):
        standard_corpus(d, 8)
    assert standard_corpus(d, 16)


def test_d1_corpus_rejects_overlapping_graded_footprints(monkeypatch):
    # at n = 36, 38, 44 and 46 two 4-sigma footprints of the graded sum
    # overlap; the corpus says so before it builds any entry
    overlapping = (36, 38, 44, 46)
    for n in range(16, 66, 2):
        if n not in overlapping:
            assert [e.id for e in standard_corpus(1, n)][-1] == "graded-sum-3"
    assert standard_corpus(2, 36)

    def unreachable(*args, **kwargs):
        raise AssertionError("an entry was built before the size check")

    monkeypatch.setattr(flwave.corpus, "make_smooth", unreachable)
    for n in overlapping:
        with pytest.raises(ValueError, match="footprints must be disjoint"):
            make_example_sum(TorusGrid(1, n))
        with pytest.raises(ValueError, match=(
                r"excludes n = 36, 38, 44 and 46, where the 4-sigma "
                rf"footprints of its graded-sum bumps overlap; got n = {n}$")):
            standard_corpus(1, n)


def test_example_sum_single_component_origin_smooth():
    # with one component the origin neighborhood is empty: every scan
    # order passes there, and the far bump is the only singular region
    from dataclasses import replace

    from flwave.wavefront import classical_wavefront, default_query, \
        estimate_wavefront

    g = TorusGrid(1, 256)
    entry = make_example_sum(g, count=1)
    assert len(entry.oracle_wf) == 1
    query = replace(default_query(g), positions=((0,),))
    classical = classical_wavefront(entry.signal, query)
    assert all(r.verdict == "regular" for r in classical.records)
    fl = estimate_wavefront(entry.signal, query)
    assert all(r.verdict == "regular" for r in fl.records)


def test_smooth_regular_at_every_scanned_order():
    from dataclasses import replace

    from flwave.wavefront import default_query, estimate_wavefront

    g = TorusGrid(1, 256)
    entry = make_smooth(g, seed=1)
    query = default_query(g)
    for s in (0.0, 2.0, 4.0, 6.0):
        spec = FLNormSpec(1.0, Weight.power(s))
        rep = estimate_wavefront(entry.signal, replace(query, spec=spec))
        assert all(r.verdict == "regular" for r in rep.records), s
