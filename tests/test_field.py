import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavegap.field import (RadialProfile, ScalarField, TorusGrid, WaveState, integrate,
                           lattice_shift, load_field, load_state, radial_embed,
                           sample, save_field, save_state)


@pytest.fixture(scope="module")
def grid2():
    return TorusGrid(2, 16.0, 128)


def test_grid_invariants():
    with pytest.raises(ValueError):
        TorusGrid(2, 16.0, 6)          # too small
    with pytest.raises(ValueError):
        TorusGrid(2, 16.0, 129)        # odd
    with pytest.raises(ValueError):
        TorusGrid(4, 16.0, 128)        # bad dim
    g = TorusGrid(1, 16.0, 16)
    assert g.spacing == 2.0
    assert g.axis()[0] == -16.0


def test_sample_zero_and_cosine():
    g = TorusGrid(1, 16.0, 16)
    z = sample(lambda x: 0.0 * x, g)
    assert np.all(z.values == 0.0)
    f = sample(lambda x: np.cos(np.pi * x / 16.0), g)
    assert np.allclose(f.values, np.cos(np.pi * g.axis() / 16.0))


def test_sample_gaussian_l2_matches_analytic():
    g = TorusGrid(2, 16.0, 128)
    f = sample(lambda x, y: np.exp(-(x ** 2 + y ** 2)), g)
    l2sq = g.spacing ** 2 * np.sum(f.values ** 2)
    assert abs(l2sq - math.pi / 2.0) < 1e-10


def test_sample_rejects_nonfinite_with_location():
    g = TorusGrid(1, 16.0, 16)
    with pytest.raises(ValueError, match="node"):
        with np.errstate(divide="ignore"):
            sample(lambda x: 1.0 / (x + 16.0), g)  # blows up at the first node


def test_radial_embed_constant_and_roundtrip(grid2):
    p = RadialProfile(np.ones_like)
    f = radial_embed(p, grid2)
    assert np.all(f.values == 1.0)
    # embed-then-restrict along an axis returns profile values at node radii
    prof = RadialProfile(lambda r: np.exp(-r))
    f = radial_embed(prof, grid2)
    i0 = grid2.n // 2
    axis_vals = f.values[i0:, i0]
    radii = np.abs(grid2.axis()[i0:])
    assert np.allclose(axis_vals, prof(radii), atol=1e-12)


def test_radial_profile_declaration():
    # the smoothness radii take a finite support and are panel edges; the
    # derivative is read from the declaration only
    prof = RadialProfile(lambda r: np.where(r < 2.0, 2.0 - r, 0.0), 2.0, (0.5,),
                         lambda r: (np.where(r < 2.0, 2.0 - r, 0.0), np.where(r < 2.0, -1.0, 0.0)),
                         (1.0,))
    assert prof.smoothness_radii == (1.0, 2.0) and prof.panel_edges == (0.5, 1.0, 2.0)
    assert np.array_equal(prof.prime(np.array([-0.5, 0.5, 3.0])), [-1.0, -1.0, 0.0])
    bare = RadialProfile(np.exp)
    assert bare.smoothness_radii == () and bare.panel_edges == ()
    with pytest.raises(ValueError, match="declares no derivative"):
        bare.prime(1.0)


def test_radial_embed_annulus_support():
    from wavegap.construct import delta_family, psi_exact
    fam = delta_family(0.1)
    prof = psi_exact(fam)
    g = TorusGrid(2, 2.0, 512)
    f = radial_embed(prof, g)
    r = g.radius()
    assert np.all(f.values[(r < fam.p) | (r > fam.q)] == 0.0)
    assert np.any(f.values != 0.0)


def test_radial_embed_reflection_invariance(grid2):
    prof = RadialProfile(lambda r: np.exp(-r * r))
    f = radial_embed(prof, grid2)
    v = f.values
    # lattice reflection x -> -x maps node k to node (-k) mod n
    for axis in (0, 1):
        idx = (-np.arange(grid2.n)) % grid2.n
        flipped = np.take(v, idx, axis=axis)
        assert np.array_equal(flipped, v)


def test_integrate_basics(grid2):
    z = ScalarField(grid2, np.zeros(grid2.shape))
    assert integrate(z) == 0.0
    c = ScalarField(grid2, np.full(grid2.shape, 3.0))
    assert abs(integrate(c) - 3.0 * (2 * 16.0) ** 2) < 1e-9


def test_integrate_mean_zero_chi():
    from wavegap.construct import chi_field, chi_mean_zero
    chi = chi_mean_zero(2)
    g = TorusGrid(2, 16.0, 512)
    f = chi_field(chi, g)
    assert abs(integrate(f)) < 1e-12
    # the raw embed carries only the lattice-rule sampling residue
    assert abs(integrate(radial_embed(chi, g))) < 1e-5


def test_lattice_shift_identity_and_spike(grid2):
    rng = np.random.default_rng(0)
    f = ScalarField(grid2, rng.standard_normal(grid2.shape))
    assert np.array_equal(lattice_shift(f, (0, 0)).values, f.values)
    spike = np.zeros(grid2.shape)
    spike[10, 20] = 1.0
    moved = lattice_shift(ScalarField(grid2, spike), (3, -4)).values
    # g(x) = f(x + j h): the graph translates by -j h
    assert moved[7, 24] == 1.0 and moved.sum() == 1.0


@settings(max_examples=25, deadline=None)
@given(st.tuples(st.integers(-300, 300), st.integers(-300, 300)))
def test_lattice_shift_group_property(j):
    g = TorusGrid(2, 16.0, 32)
    f = ScalarField(g, np.random.default_rng(7).standard_normal(g.shape))
    back = lattice_shift(lattice_shift(f, j), tuple(-v for v in j))
    assert np.array_equal(back.values, f.values)
    assert abs(integrate(lattice_shift(f, j)) - integrate(f)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.lists(st.integers(-40, 40), min_size=3, max_size=3))
def test_lattice_shift_matches_index_gather(dim, j):
    # the definition g[k] = f[(k + j) mod n] per axis, as one index gather
    g = TorusGrid(dim, 4.0, 8)
    f = ScalarField(g, np.random.default_rng(dim).standard_normal(g.shape))
    shifted = lattice_shift(f, j[:dim]).values
    assert np.array_equal(shifted, f.values[np.ix_(*[(np.arange(8) + v) % 8 for v in j[:dim]])])


def test_field_serialization_roundtrip(tmp_path, grid2):
    rng = np.random.default_rng(3)
    f = ScalarField(grid2, rng.standard_normal(grid2.shape))
    p = tmp_path / "f.field"
    save_field(f, p)
    assert math.isnan(struct.unpack("<d", p.read_bytes()[28:36])[0])  # a field has no time
    g = load_field(p)
    assert g.grid == f.grid
    assert np.array_equal(g.values, f.values)
    # JSON sidecar mirror
    pj = tmp_path / "f.json"
    save_field(f, pj)
    assert "time_stamp" not in json.loads(pj.read_text())
    gj = load_field(pj)
    assert np.allclose(gj.values, f.values)


def test_field_files_with_a_time_still_load(tmp_path, grid2):
    # earlier versions wrote a time into the header slot and the mirror
    vals = np.random.default_rng(5).standard_normal(grid2.shape)
    p = tmp_path / "stamped.field"
    p.write_bytes(b"WGF1" + struct.pack("<4d", 2.0, 128.0, 16.0, 0.25)
                  + vals.astype("<f8").tobytes())
    pj = tmp_path / "stamped.json"
    pj.write_text(json.dumps({"dim": 2, "n": 128, "half_width": 16.0, "time_stamp": 0.25,
                              "values": vals.ravel().tolist()}))
    for path in (p, pj):
        g = load_field(path)
        assert g.grid == grid2 and np.array_equal(g.values, vals)


def test_state_serialization_roundtrip(tmp_path, grid2):
    rng = np.random.default_rng(4)
    state = WaveState(ScalarField(grid2, rng.standard_normal(grid2.shape)),
                      ScalarField(grid2, rng.standard_normal(grid2.shape)), 0.5)
    p = tmp_path / "s.state"
    save_state(state, p)
    back = load_state(p)
    assert back.t == 0.5 and back.grid == grid2
    assert np.array_equal(back.u.values, state.u.values)
    assert np.array_equal(back.ut.values, state.ut.values)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_wave_state_refuses_a_time_that_is_not_finite(grid2, t):
    f = ScalarField(grid2, np.zeros(grid2.shape))
    with pytest.raises(ValueError, match=f"state time must be finite, got {t}"):
        WaveState(f, f, t)


def test_scalar_field_guards(grid2):
    with pytest.raises(ValueError):
        ScalarField(grid2, np.full(grid2.shape, np.nan))
    f = ScalarField(grid2, np.zeros(grid2.shape))
    other = ScalarField(TorusGrid(2, 16.0, 64), np.zeros((64, 64)))
    with pytest.raises(ValueError):
        _ = f + other
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0  # immutable


@pytest.mark.parametrize("dim, n", [(1, 256), (2, 64), (3, 16)])
def test_wavenumber_classes_cached_read_only(dim, n):
    g = TorusGrid(dim, 16.0, n)
    k, index = g.wavenumber_classes()
    assert k[0] == 0.0 and np.all(np.diff(k) > 0)
    assert index.dtype == np.intp and index.shape == g.shape
    assert np.flatnonzero(index == 0).tolist() == [0]  # the zero mode alone
    assert np.array_equal(k[index], np.sqrt(sum(kk * kk for kk in g.wavenumbers())))
    assert not k.flags.writeable and not index.flags.writeable
    again = TorusGrid(dim, 16.0, n).wavenumber_classes()
    assert again[0] is k and again[1] is index


def test_derived_fields_own_fresh_read_only_values(grid2):
    rng = np.random.default_rng(3)
    f = ScalarField(grid2, rng.standard_normal(grid2.shape))
    g = ScalarField(grid2, rng.standard_normal(grid2.shape))
    for h in (f + g, f - g, f * g, f * 2.0, 2.0 * f, lattice_shift(f, (1, -2)),
              lattice_shift(f, (0, 0))):
        assert not h.values.flags.writeable
        assert not np.shares_memory(h.values, f.values)
        assert not np.shares_memory(h.values, g.values)
    assert np.array_equal((f * g).values, f.values * g.values)


def test_derived_fields_refuse_overflow(grid2):
    big = ScalarField(grid2, np.full(grid2.shape, 1e308))
    with np.errstate(over="ignore"):
        for make in (lambda: big + big, lambda: big - (-1.0 * big),
                     lambda: big * big, lambda: big * 10.0):
            with pytest.raises(ValueError, match="non-finite"):
                make()


def test_outside_values_are_copied(grid2):
    raw = np.zeros(grid2.shape)
    f = ScalarField(grid2, raw)
    raw[0, 0] = 1.0
    assert f.values[0, 0] == 0.0 and raw.flags.writeable
