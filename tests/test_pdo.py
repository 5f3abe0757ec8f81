"""Symbol quantization, characteristic sets, microlocal transport."""

import json

import numpy as np
import pytest

from flwave.cones import Cone, cone_mask
from flwave.corpus import make_edge, make_power_cusp, standard_corpus
from flwave.grid import TorusGrid, lattice, random_signal, single_mode
from flwave.pdo import (
    Symbol,
    char_set_scan,
    multiplier_symbol,
    noncharacteristic_at,
    parse_symbol,
    quantize_apply,
    transport_check,
)
from flwave.semilinear import jet
from flwave.wavefront import default_query, directions_for


def test_identity_symbol():
    g = TorusGrid(1, 16)
    f = random_signal(g, np.random.default_rng(0))
    one = multiplier_symbol(0.0, lambda ks: np.ones(ks.shape[0]))
    assert np.max(np.abs(quantize_apply(one, f).values - f.values)) < 1e-12


def test_frequency_eigenfunction():
    g = TorusGrid(1, 8)
    ksym = multiplier_symbol(1.0, lambda ks: ks[:, 0])
    m = single_mode(g, 1.0)
    out = quantize_apply(ksym, m)
    assert np.max(np.abs(out.values - m.values)) < 1e-12


def test_multiplication_operator():
    g = TorusGrid(1, 8)
    f = random_signal(g, np.random.default_rng(1))

    def ev(xs, ks):
        xs, ks = np.atleast_2d(xs), np.atleast_2d(ks)
        return np.exp(1j * xs[:, 0])[:, None] * np.ones((1, ks.shape[0]))

    sym = Symbol(order=0.0, evaluator=ev)
    out = quantize_apply(sym, f)
    expected = np.exp(1j * g.sample_points()[:, 0]) * f.values
    assert np.max(np.abs(out.values - expected)) < 1e-12


def test_quantize_grid_mismatch_is_guarded():
    g = TorusGrid(2, 128)
    one = multiplier_symbol(0.0, lambda ks: np.ones(ks.shape[0]))

    def ev(xs, ks):
        xs, ks = np.atleast_2d(xs), np.atleast_2d(ks)
        return np.ones((xs.shape[0], ks.shape[0]))

    sym = Symbol(order=0.0, evaluator=ev)
    f = random_signal(g, np.random.default_rng(2))
    with pytest.raises(ValueError):
        sym.table(g)  # dense table refused for big grids
    # multiplier path still fine
    quantize_apply(one, f)


def test_spectral_derivative_cross_check():
    # polynomial-in-k symbols agree with repeated spectral derivatives
    g = TorusGrid(1, 16)
    f = random_signal(g, np.random.default_rng(3))
    d2 = multiplier_symbol(2.0, lambda ks: (1j * ks[:, 0]) ** 2)
    via_symbol = quantize_apply(d2, f)
    via_jet = jet(f, 2).components[2]
    assert np.max(np.abs(via_symbol.values - via_jet.values)) < 1e-10


def test_multiplier_composition_exact():
    g = TorusGrid(1, 16)
    f = random_signal(g, np.random.default_rng(4))
    a = multiplier_symbol(1.0, lambda ks: ks[:, 0] + 2.0)
    b = multiplier_symbol(2.0, lambda ks: 1.0 + np.sum(ks**2, axis=-1))
    ab = multiplier_symbol(
        3.0, lambda ks: (ks[:, 0] + 2.0) * (1.0 + np.sum(ks**2, axis=-1)))
    lhs = quantize_apply(a, quantize_apply(b, f))
    rhs = quantize_apply(ab, f)
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-10


def test_noncharacteristic_elliptic():
    g = TorusGrid(2, 16)
    ell = multiplier_symbol(2.0, lambda ks: 1.0 + np.sum(ks**2, axis=-1))
    assert noncharacteristic_at(ell, (0, 0), (1.0, 0.0), 0.5, 2.0,
                                np.pi / 8, grid=g)


def test_noncharacteristic_directional():
    g = TorusGrid(2, 16)
    k1 = multiplier_symbol(1.0, lambda ks: ks[:, 0])
    assert not noncharacteristic_at(k1, (0, 0), (0.0, 1.0), 0.1, 4.0,
                                    np.pi / 8, grid=g)
    assert noncharacteristic_at(k1, (0, 0), (1.0, 0.0), 0.5, 4.0,
                                np.pi / 8, grid=g)


def test_noncharacteristic_r_validation():
    g = TorusGrid(2, 16)
    ell = multiplier_symbol(2.0, lambda ks: 1.0 + np.sum(ks**2, axis=-1))
    with pytest.raises(ValueError):
        noncharacteristic_at(ell, (0, 0), (1.0, 0.0), 0.5, 8.0, np.pi / 8,
                             grid=g)


def test_char_set_scan_elliptic_empty():
    g = TorusGrid(2, 16)
    ell = multiplier_symbol(2.0, lambda ks: 1.0 + np.sum(ks**2, axis=-1))
    char = char_set_scan(ell, [(0, 0), (8, 8)], directions_for(2, 8),
                         0.5, 2.0, np.pi / 8, g)
    assert char.shape == (2, 8) and char.dtype == bool
    assert not char.any()


def test_char_set_scan_directional_flags():
    g = TorusGrid(2, 16)
    k1 = multiplier_symbol(1.0, lambda ks: ks[:, 0])
    dirs = directions_for(2, 8)
    char = char_set_scan(k1, [(0, 0)], dirs, 0.1, 4.0, np.pi / 8, g)
    assert char.shape == (1, 8)
    # directions near +-e2 must be flagged; +-e1 must not
    e2 = [np.allclose(th, (0.0, 1.0), atol=1e-12) for th in dirs]
    e1 = [np.allclose(th, (1.0, 0.0), atol=1e-12) for th in dirs]
    assert char[0, e2].all() and any(e2)
    assert not char[0, e1].any() and any(e1)


def _variable_elliptic(xs, ks):
    xs, ks = np.atleast_2d(xs), np.atleast_2d(ks)
    factor = np.sin(xs[:, 0]) + 2.0
    return factor[:, None] * (1.0 + np.sum(ks**2, axis=-1))[None, :]


def test_char_set_scan_variable_elliptic():
    g = TorusGrid(2, 16)
    sym = Symbol(order=2.0, evaluator=_variable_elliptic)
    char = char_set_scan(sym, [(0, 0), (4, 12)], directions_for(2, 8),
                         0.5, 2.0, np.pi / 8, g)
    assert char.shape == (2, 8)
    assert not char.any()


def _cos_k1_table(tmp_path):
    """cos(x) k_1 as a table symbol of order 1 on the d=1 n=64 grid: it
    vanishes at cells 16 and 48."""
    g = TorusGrid(1, 64)
    k1 = lattice(g).points[:, 0].astype(float)
    vals = np.cos(g.sample_points()[:, 0])[:, None] * k1[None, :]
    path = tmp_path / "cos_k1.json"
    path.write_text(json.dumps({"order": 1.0, "values": vals.tolist()}))
    return parse_symbol(f"table:{path}", g)


def _cells_apart(cells, x0, n):
    """Periodic Euclidean distance in cells from each row of ``cells`` to
    x0: per axis, the shorter way round."""
    ahead = (np.asarray(cells) - x0) % n
    return np.sqrt(np.sum(np.minimum(ahead, n - ahead) ** 2, axis=-1))


def _noncharacteristic_reference(a, x0, direction, c, R, aperture, grid):
    """One (position, direction) pair on its own: its own cone mask and
    its own symbol evaluation over the near points and that cone."""
    lat = lattice(grid)
    mask = cone_mask(grid, Cone(tuple(direction), aperture)) & (lat.norms > R)
    ks = lat.points[mask].astype(float)
    pts = grid.sample_points()
    cells = np.indices(grid.shape).reshape(grid.d, -1).T
    near = _cells_apart(cells, x0, grid.n) <= grid.n / 16
    vals = np.abs(np.asarray(a.evaluator(pts[near], ks)))
    return bool(np.all(vals > c * lat.norms[mask] ** a.order))


def test_char_set_scan_matches_the_per_pair_reference(tmp_path):
    variable = Symbol(order=2.0, evaluator=_variable_elliptic)
    cases = []
    for g in (TorusGrid(1, 256), TorusGrid(2, 64)):
        cases += [(g, parse_symbol(spec, g), 0.1)
                  for spec in ("dx1", "laplace+1", "poly:1,0,1")]
        # at c = 2.8 the variable symbol's set turns on the n/16 radius
        cases.append((g, variable, 2.8))
    # |k_1| = |k| in 1-D: at c = 1 the strict bound fails by equality alone
    g = TorusGrid(1, 256)
    cases.append((g, parse_symbol("dx1", g), 1.0))
    cases.append((TorusGrid(1, 64), _cos_k1_table(tmp_path), 0.1))
    for g, sym, c in cases:
        query = default_query(g)
        char = char_set_scan(sym, query.positions, query.directions, c,
                             4.0, query.aperture, g)
        ref = [[not _noncharacteristic_reference(
                    sym, x0, th, c, 4.0, query.aperture, g)
                for th in query.directions] for x0 in query.positions]
        np.testing.assert_array_equal(char, ref, err_msg=sym.label)


def _fails_at(grid, x_star) -> Symbol:
    """Order-0 symbol, 1 at every cell but x_star and 0 there: the bound
    |a| > c |k|^0 with c < 1 fails at x_star alone."""
    def evaluator(xs, ks):
        cells = np.rint(np.atleast_2d(xs) / grid.h).astype(int) % grid.n
        bad = np.all(cells == x_star, axis=-1)
        return np.where(bad[:, None], 0.0, np.ones((len(bad), len(ks))))

    return Symbol(order=0.0, evaluator=evaluator)


@pytest.mark.parametrize("d, n, x_star", [(1, 256, (192,)), (2, 64, (2, 61))])
def test_char_set_scan_neighbourhood_is_the_same_ball_everywhere(d, n,
                                                                  x_star):
    # a position is characteristic exactly when x_star lies within n/16
    # cells of it, wherever the two sit: every cell in 1-D, and in 2-D
    # the box of cells around x_star (across the wrap) plus far cells
    g = TorusGrid(d, n)
    if d == 1:
        positions = np.arange(n)[:, None]
    else:
        box = np.indices((11, 11)).reshape(2, -1).T - 5 + x_star
        far = np.random.default_rng(0).integers(0, n, size=(8, 2))
        positions = np.concatenate([box, far]) % n
    dirs = directions_for(d, 8)
    char = char_set_scan(_fails_at(g, x_star), positions, dirs, 0.5, 4.0,
                         np.pi / 4, g)
    near = _cells_apart(positions, x_star, n) <= n / 16
    assert near.sum() == (33 if d == 1 else 49)
    np.testing.assert_array_equal(char, np.repeat(near[:, None], len(dirs),
                                                  axis=1))


def test_transport_identity_symbol():
    g = TorusGrid(1, 256)
    cusp = make_power_cusp(g, 2.5, 64)
    one = multiplier_symbol(0.0, lambda ks: np.ones(ks.shape[0]))
    rep = transport_check(one, cusp.signal, q=1.0, s=2.75)
    assert rep["forward_holds"]
    assert rep["lift_holds"]
    assert rep["union_holds"]
    assert rep["char_points"] == []


def test_transport_elliptic_on_cusp():
    g = TorusGrid(1, 256)
    cusp = make_power_cusp(g, 2.5, 64)
    ell = multiplier_symbol(2.0, lambda ks: 1.0 + np.sum(ks**2, axis=-1))
    rep = transport_check(ell, cusp.signal, q=1.0, s=2.75)
    assert rep["forward_holds"], rep["forward_violations"]
    assert rep["lift_holds"], rep["lift_violations"]
    assert rep["union_holds"], rep["union_violations"]


def test_transport_flags_an_understated_order():
    # laplace+1 declared as order 0: Af is scanned at s, where its cusp is
    # two orders rougher than f's, so the forward inclusion must fail
    cusp = standard_corpus(1, 256)[3]
    lap = multiplier_symbol(0.0, lambda ks: 1.0 + np.sum(ks**2, axis=-1))
    rep = transport_check(lap, cusp.signal, q=1.0, s=2.0)
    assert not rep["forward_holds"]
    assert rep["forward_violations"] == [{"x0": [64], "theta": [1.0]},
                                         {"x0": [64], "theta": [-1.0]}]


def test_transport_characteristic_direction_edge():
    # first-frequency symbol is characteristic exactly along the edge
    # normals, so the union bound is saturated by the characteristic set
    g = TorusGrid(2, 128)
    edge = make_edge(g, axis=1, offset=32)
    k1 = multiplier_symbol(1.0, lambda ks: ks[:, 0])
    rep = transport_check(k1, edge.signal, q=1.0, s=1.0)
    char_dirs = [th for _, th in rep["char_points"]]
    assert any(np.allclose(th, (0.0, 1.0), atol=1e-12) for th in char_dirs)
    assert rep["union_holds"], rep["union_violations"]
    assert rep["lift_holds"], rep["lift_violations"]


def test_transport_x_dependent_table_symbol(tmp_path):
    # the characteristic set is where cos(x) vanishes, in both directions
    cusp = standard_corpus(1, 64)[3]
    rep = transport_check(_cos_k1_table(tmp_path), cusp.signal, q=1.0,
                          s=2.75)
    assert rep["char_points"] == [((16,), (-1.0,)), ((16,), (1.0,)),
                                  ((48,), (-1.0,)), ((48,), (1.0,))]


def test_parse_symbol():
    g = TorusGrid(1, 16)
    sym = parse_symbol("laplace+1", g)
    assert sym.order == 2.0
    sym = parse_symbol("dx1", g)
    assert sym.order == 1.0
    sym = parse_symbol("poly:1,0,2", g)
    vals = sym.on_lattice(g)
    assert abs(vals[8 + 3] - (1 + 2 * 9)) < 1e-12
    with pytest.raises(ValueError):
        parse_symbol("wat", g)


def test_table_symbol_is_strict(tmp_path):
    g = TorusGrid(1, 8)
    vals = np.arange(64, dtype=float).reshape(8, 8)
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"order": 0.0, "values": vals.tolist()}))
    sym = parse_symbol(f"table:{path}", g)
    # exact grid points and lattice frequencies index the table
    xs = g.sample_points()[[0, 3]]
    assert np.array_equal(sym.evaluator(xs, np.array([[-4.0], [2.0]])),
                          vals[np.ix_([0, 3], [0, 6])])
    assert np.array_equal(sym.table(g), vals)
    with pytest.raises(ValueError, match="lattice frequencies only"):
        sym.evaluator(xs, np.array([[0.7]]))
    with pytest.raises(ValueError, match="grid points only"):
        sym.evaluator(np.array([[0.3 * g.h]]), np.array([[0.0]]))
    with pytest.raises(ValueError, match="out of range"):
        sym.evaluator(xs, np.array([[4.0]]))
