"""Weight evaluation, moderation scans, and the Peetre inequality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flwave.grid import TorusGrid, random_signal
from flwave.norms import FLNormSpec, fl_norm
from flwave.weights import TwoVariableWeight, Weight, check_moderate, parse_weight


def test_power_evaluation():
    assert Weight.power(0.0)((5,)) == 1.0
    assert abs(Weight.power(2.0)((1, 0)) - 2.0) < 1e-15
    expected = (1 + 9) ** (-0.75)
    assert abs(Weight.power(-1.5)((3,)) - expected) < 1e-12
    assert abs(expected - 0.17783) < 1e-5


def test_power_weight_is_one_at_origin():
    for s in (-2.0, 0.5, 3.0):
        assert Weight.power(s)((0, 0)) == 1.0


def test_block_weight():
    w = Weight.block((((0,), 2.0), ((1, 2), -1.0)))
    val = w((1, 2, 2))
    expected = (1 + 1) ** 1.0 * (1 + 8) ** -0.5
    assert abs(val - expected) < 1e-14
    with pytest.raises(ValueError):
        Weight.block((((0,), 1.0), ((0, 1), 1.0)))


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


def test_check_moderate_trivial():
    rep = check_moderate(Weight.power(0.0), Weight.power(0.0), 200, seed=1)
    assert abs(rep["max_ratio"] - 1.0) < 1e-12


def test_check_moderate_power_one():
    rep = check_moderate(Weight.power(1.0), Weight.power(1.0), 1000, seed=2)
    assert rep["max_ratio"] <= np.sqrt(2) + 1e-12
    assert not rep["flagged_unbounded"]


def test_check_moderate_flags_bad_witness():
    rep = check_moderate(Weight.power(2.0), Weight.power(1.0), 1000, seed=3)
    assert rep["max_ratio"] > 10
    assert rep["flagged_unbounded"]


def test_two_variable_section_equivalence():
    # norms computed with different spatial sections differ by at most
    # the moderation factor of the spatial part
    g = TorusGrid(1, 16)
    f = random_signal(g, np.random.default_rng(5))
    tv = TwoVariableWeight(s=1.0, u=Weight.power(0.5))
    x1, x2 = np.array([0.3]), np.array([2.0])
    n1 = fl_norm(f, FLNormSpec(1.0, tv.section(x1)))
    n2 = fl_norm(f, FLNormSpec(1.0, tv.section(x2)))
    v = Weight.power(0.5)
    bound = np.sqrt(2) * v(x1 - x2)
    assert n1 <= bound * n2 * (1 + 1e-12)
    assert n2 <= bound * n1 * (1 + 1e-12)


def test_parse_weight():
    w = parse_weight("s:-1.5")
    assert w.kind == "power" and w.s == -1.5
    with pytest.raises(ValueError):
        parse_weight("nope")
