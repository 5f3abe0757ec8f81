"""Weight evaluation, moderation scans, and the Peetre inequality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flwave.calculus import moderation_constant
from flwave.grid import TorusGrid, random_signal
from flwave.modulation import SpaceFreqWeight
from flwave.norms import FLNormSpec, fl_norm
from flwave.weights import Weight, parse_weight


def test_power_evaluation():
    assert Weight.power(0.0)((5,)) == 1.0
    assert abs(Weight.power(2.0)((1, 0)) - 2.0) < 1e-15
    expected = (1 + 9) ** (-0.75)
    assert abs(Weight.power(-1.5)((3,)) - expected) < 1e-12
    assert abs(expected - 0.17783) < 1e-5


def test_power_weight_is_one_at_origin():
    for s in (-2.0, 0.5, 3.0):
        assert Weight.power(s)((0, 0)) == 1.0


def test_table_weight():
    g = TorusGrid(1, 8)
    w = Weight.from_table(g, np.arange(1.0, 9.0))
    assert w((-4,)) == 1.0
    assert w((3,)) == 8.0
    with pytest.raises(ValueError):
        w((4,))  # off lattice
    with pytest.raises(ValueError):
        Weight.from_table(g, np.zeros(8))


def test_table_weight_compares_and_hashes_on_content():
    g = TorusGrid(1, 8)
    a = Weight.from_table(g, np.arange(1.0, 9.0))
    b = Weight.from_table(g, np.arange(1.0, 9.0))
    c = Weight.from_table(g, np.arange(2.0, 10.0))
    assert a == b and hash(a) == hash(b)
    assert a != c and a != Weight.power(0.0)
    # usable as a cache key, also inside a norm spec
    assert {FLNormSpec(1.0, a): "a"}[FLNormSpec(1.0, b)] == "a"


@settings(max_examples=60, deadline=None)
@given(st.integers(-32, 32), st.integers(-32, 32),
       st.sampled_from([0.5, -0.5, 1.0, -1.0, 2.0, -2.0]))
def test_peetre_inequality(x, y, s):
    bx = np.sqrt(1.0 + x * x)
    by = np.sqrt(1.0 + y * y)
    bxy = np.sqrt(1.0 + (x + y) ** 2)
    assert bxy**s <= 2 ** (abs(s) / 2) * bx**s * by ** abs(s) * (1 + 1e-12)


def test_peetre_exhaustive_small_lattice():
    rng = np.arange(-32, 33)
    X, Y = np.meshgrid(rng, rng)
    bx = np.sqrt(1.0 + X**2)
    by = np.sqrt(1.0 + Y**2)
    bxy = np.sqrt(1.0 + (X + Y) ** 2)
    for s in (0.5, -0.5, 1.0, -1.0, 2.0, -2.0):
        lhs = bxy**s
        rhs = 2 ** (abs(s) / 2) * bx**s * by ** abs(s)
        assert np.all(lhs <= rhs * (1 + 1e-12))


# moderation scans of w(k+l) / (w(k) v(l)) over every pair of the
# [-64, 63] lattice (plain sums, the window of the former sampled scan)
def _moderation(w, v):
    return moderation_constant(TorusGrid(1, 128), w, w, v, wrapped=False)


def test_check_moderate_trivial():
    assert abs(_moderation(Weight.power(0.0), Weight.power(0.0)) - 1.0) \
        < 1e-12


def test_check_moderate_power_one():
    # Peetre: <k+l> <= sqrt(2) <k> <l>
    ratio = _moderation(Weight.power(1.0), Weight.power(1.0))
    assert 1.0 < ratio <= np.sqrt(2) + 1e-12


def test_check_moderate_flags_bad_witness():
    # <k+l>^2 <= C <k>^2 <l> fails: at k = 0 the ratio grows like <l>
    ratio = _moderation(Weight.power(2.0), Weight.power(1.0))
    assert ratio > 10
    assert ratio > 1.9 * moderation_constant(
        TorusGrid(1, 64), Weight.power(2.0), Weight.power(2.0),
        Weight.power(1.0), wrapped=False)


def test_two_variable_section_equivalence():
    # norms computed with different x-sections w(x_j, .) = <x_j>^t <k>^s
    # of a phase-space weight differ by at most the moderation factor of
    # the spatial part, sqrt(2)^t <x_1 - x_2>^t (Peetre)
    g = TorusGrid(1, 16)
    f = random_signal(g, np.random.default_rng(5))
    pos, freq = SpaceFreqWeight(s=1.0, t=0.5).factors(g)
    x = g.sample_points()[:, 0]
    for j1, j2 in ((1, 5), (0, 15), (7, 8)):
        n1, n2 = (fl_norm(f, FLNormSpec(1.0, Weight.from_table(
            g, pos[j] * freq))) for j in (j1, j2))
        bound = np.sqrt(2) ** 0.5 * Weight.power(0.5)((x[j1] - x[j2],))
        assert n1 <= bound * n2 * (1 + 1e-12)
        assert n2 <= bound * n1 * (1 + 1e-12)


def test_parse_weight():
    w = parse_weight("s:-1.5")
    assert w.kind == "power" and w.s == -1.5
    with pytest.raises(ValueError):
        parse_weight("nope")
