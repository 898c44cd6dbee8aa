import math

import numpy as np
import pytest

from wavegap.field import ScalarField, TorusGrid, remove_lattice_mean, sample
from wavegap.geometry import (C0_CAP, compose, compose_dt, geodesic_constants,
                              make_preset, moser_ratio, wavemap_residual)
from wavegap.wave import WaveState, spectral_propagate


@pytest.fixture(scope="module")
def sphere():
    return make_preset("sphere_great_circle")


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(2, 16.0, 128)


@pytest.fixture(scope="module")
def smooth_state(grid):
    u0 = remove_lattice_mean(sample(
        lambda x, y: 0.05 * np.exp(-(x ** 2 + y ** 2) / 2.0), grid))
    ut0 = remove_lattice_mean(sample(
        lambda x, y: 0.03 * np.exp(-((x - 1) ** 2 + y ** 2) / 3.0), grid))
    return WaveState(u0, ut0, 0.0)


def test_sphere_preset_basics(sphere):
    g0 = np.asarray(sphere.gamma(0.0))
    gpp0 = np.asarray(sphere.gamma_pp(0.0))
    assert np.allclose(g0, 0.0)
    assert np.allclose(gpp0, [0.0, 1.0, 0.0])


def test_presets_keep_their_formulas(sphere):
    # the unit sphere and the line evaluate bit for bit as their formulas
    s = np.linspace(-3.9, 3.9, 1001)
    z = np.zeros_like(s)
    assert np.array_equal(sphere.gamma(s), (np.sin(s), 1.0 - np.cos(s), z))
    assert np.array_equal(sphere.gamma_p(s), (np.cos(s), np.sin(s), z))
    assert np.array_equal(sphere.gamma_pp(s), (-np.sin(s), np.cos(s), z))
    assert sphere.center == (0.0, 1.0, 0.0) and not sphere.flat
    flat = make_preset("flat_line")
    assert flat.flat and np.array_equal(flat.gamma(s), (s, z))
    assert np.array_equal(flat.gamma_p(s), (np.ones_like(s), z))
    assert np.array_equal(flat.gamma_pp(s), (z, z))
    circle = make_preset("circle_radius", rho=2.0)
    assert circle.center == (0.0, 2.0) and circle.ambient_dim == 2


def test_geodesic_constants_examples(sphere):
    assert geodesic_constants(sphere) == (math.pi / 3.0, 0.5, 2)
    c0r, c1r, jr = geodesic_constants(make_preset("circle_radius", rho=2.0))
    assert c0r == pytest.approx(2.0 * math.pi / 3.0, rel=1e-15)
    assert c1r == 0.25 and jr == 2
    assert geodesic_constants(make_preset("circle_radius", rho=20.0)) == (C0_CAP, 0.025, 2)


def _curved_presets(sphere):
    return (sphere, make_preset("circle_radius", rho=2.0),
            make_preset("circle_radius", rho=20.0))  # rho = 20 hits the cap


def test_geodesic_constants_self_verify(sphere):
    for curve in _curved_presets(sphere):
        c0, c1, j = geodesic_constants(curve)
        s = np.linspace(-c0, c0, 40961)
        vals = np.abs(np.asarray(curve.gamma_pp(s))[j - 1])
        assert np.min(vals) >= c1 * (1.0 - 1e-15)
        # maximal: just past c0 the bound fails, unless c0 is the cap
        past = np.abs(np.asarray(curve.gamma_pp(c0 * (1.0 + 1e-9)))[j - 1])
        if c0 < C0_CAP:
            assert past < c1
        else:
            assert curve.radius * math.pi / 3.0 > C0_CAP and past >= c1


def test_flat_line_rejected():
    with pytest.raises(ValueError, match="flat"):
        geodesic_constants(make_preset("flat_line"))


def test_circle_validation():
    for rho in (-1.0, 0.0, math.inf, math.nan, "5", True):
        with pytest.raises(ValueError, match="rho"):
            make_preset("circle_radius", rho=rho)
    with pytest.raises(ValueError):
        make_preset("nonexistent")
    # a parameter the preset does not take is refused, not ignored
    for name, params in (("sphere_great_circle", {"rho": 5}), ("circle_radius", {"rh": 5}),
                         ("circle_radius", {"rho": 5, "center": 1}), ("flat_line", {"rho": 5})):
        with pytest.raises(ValueError, match="takes no parameter"):
            make_preset(name, **params)


def test_arc_length_sampled(sphere):
    s = np.linspace(-3.9, 3.9, 10000)
    for curve in _curved_presets(sphere):
        sp = np.linalg.norm(np.asarray(curve.gamma_p(s)), axis=0)
        assert np.max(np.abs(sp - 1.0)) < 1e-10
        # differentiating |gamma'|^2 = 1: tangent and curvature are orthogonal
        dots = np.sum(np.asarray(curve.gamma_p(s)) * np.asarray(curve.gamma_pp(s)), axis=0)
        assert np.max(np.abs(dots)) < 1e-12
        # the curvature vector has length 1/rho and points at the center
        gpp = np.asarray(curve.gamma_pp(s))
        to_center = np.asarray(curve.center)[:, None] - np.asarray(curve.gamma(s))
        assert np.allclose(gpp * curve.radius ** 2, to_center,
                           rtol=0.0, atol=1e-12 * curve.radius)


def test_compose_zero_and_sphere_distance(sphere, grid, smooth_state):
    zero = ScalarField(grid, np.zeros(grid.shape))
    u = compose(sphere, zero)
    assert u.shape == (3,) + grid.shape and np.all(u == 0.0)
    u = compose(sphere, smooth_state.u)
    dist = np.sqrt(u[0] ** 2 + (u[1] - 1.0) ** 2 + u[2] ** 2)
    assert np.max(np.abs(dist - 1.0)) < 1e-12


def test_compose_flat_is_embedding(grid, smooth_state):
    flat = make_preset("flat_line")
    u = compose(flat, smooth_state.u)
    assert np.array_equal(u[0], smooth_state.u.values)
    assert np.all(u[1] == 0.0)
    du = compose_dt(flat, smooth_state)
    assert du.shape == (2,) + smooth_state.grid.shape
    assert np.array_equal(du[0], smooth_state.ut.values)


def test_compose_dt_magnitude(sphere, smooth_state):
    du = compose_dt(sphere, smooth_state)
    magnitude = np.sqrt(np.sum(du * du, axis=0))
    assert np.max(np.abs(magnitude - np.abs(smooth_state.ut.values))) < 1e-12


def test_chain_rule_consistency(sphere, smooth_state):
    # centered difference in t of gamma(v(t)) vs the chain rule, tau halving
    st = spectral_propagate(smooth_state, 0.4)
    exact = compose_dt(sphere, st)
    errs = []
    for tau in (2e-3, 1e-3):
        up = compose(sphere, spectral_propagate(st, st.t + tau).u)
        um = compose(sphere, spectral_propagate(st, st.t - tau).u)
        errs.append(np.max(np.abs((up - um) / (2 * tau) - exact)))
    ratio = errs[0] / errs[1]
    assert 3.5 <= ratio <= 4.5


def test_wavemap_residual_sphere(sphere, smooth_state):
    st = spectral_propagate(smooth_state, 0.7)
    out = wavemap_residual(sphere, st, tau=1e-3)
    assert out["residual"] < 1e-4
    assert 3.5 <= out["residual"] / out["tau_half_residual"] <= 4.5


def test_wavemap_residual_zero_field(sphere, grid):
    zero = ScalarField(grid, np.zeros(grid.shape))
    st = WaveState(zero, zero, 0.0)
    out = wavemap_residual(sphere, st, tau=1e-3, richardson=False)
    assert out["residual"] < 1e-12


def test_wavemap_residual_flat(smooth_state):
    flat = make_preset("flat_line")
    st = spectral_propagate(smooth_state, 0.5)
    out = wavemap_residual(flat, st, tau=2e-3)
    assert out["richardson"] < 1e-8


def test_moser_identity_and_quadratic(grid, smooth_state):
    f = smooth_state.u
    assert abs(moser_ratio(lambda s: s, f, 1.0) - 1.0) < 1e-14
    slopes = []
    for eps in (0.1, 0.05, 0.025):
        fe = ScalarField(grid, eps * f.values / np.max(np.abs(f.values)))
        slopes.append(moser_ratio(lambda s: s * s, fe, 1.0) / eps)
    # ratio vanishes linearly in the amplitude: r/eps is constant
    assert max(slopes) / min(slopes) - 1.0 < 0.02


def test_moser_sin_family_bounded_and_stable():
    from wavegap.norms import bump_family, lp_norm
    vals = {}
    for n in (128, 256):
        g = TorusGrid(2, 16.0, n)
        ratios = []
        for f in bump_family(g, 21, 6):
            fl = ScalarField(g, f.values / lp_norm(f, "inf"))
            ratios.append(moser_ratio(np.sin, fl, 1.0))
        vals[n] = max(ratios)
    assert vals[256] < 2.0
    assert abs(vals[256] / vals[128] - 1.0) < 0.15


def test_moser_guards(grid, smooth_state):
    with pytest.raises(ValueError, match="F\\(0\\)"):
        moser_ratio(lambda s: s + 1.0, smooth_state.u, 1.0)
    zero = ScalarField(grid, np.zeros(grid.shape))
    with pytest.raises(ValueError):
        moser_ratio(lambda s: s, zero, 1.0)
