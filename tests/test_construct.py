import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavegap.construct import (LogCutoffAtom, _ShellCutoff,
                               annulus_l2sq_radial, annulus_point_value_radial,
                               chi_field, chi_hat_planar, chi_mean_zero, strip_normalize,
                               choose_R, delta_family, focusing_sequence,
                               psi_exact, psi_smooth, rescaled_family)
from wavegap.cli import _profile_from_spec
from wavegap.field import TorusGrid
from wavegap.radial import l2_radial_measure
from wavegap.wave import spectral_propagate


def test_delta_family_values():
    fam = delta_family(0.5)
    assert np.allclose([fam.p1, fam.p, fam.q, fam.q1],
                       [math.sqrt(0.5), math.sqrt(0.75), math.sqrt(0.875),
                        math.sqrt(0.9375)], atol=1e-14)
    fam = delta_family(0.1)
    assert abs(fam.p - 0.994987) < 1e-6 and abs(fam.q - 0.999500) < 1e-6
    with pytest.raises(ValueError):
        delta_family(0.7)
    with pytest.raises(ValueError):
        delta_family(0.0)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1e-3, max_value=0.5))
def test_delta_family_ordering(delta):
    fam = delta_family(delta)
    assert 0 < fam.p1 < fam.p < fam.q < fam.q1 < 1
    # defining relations to near machine precision
    assert abs((1 - fam.p1 ** 2) - delta) < 1e-14
    assert abs((1 - fam.q1 ** 2) - delta ** 4) < 1e-14


def test_delta_family_float_floor():
    # refused where the rounded radii miss 1 - r^2 = delta^k by more than
    # 1e-3 relative: 1.9e-3 at 5e-4, 1.2 at 1e-4 (at 1e-3 the miss is 8.9e-5)
    for delta in (5e-4, 1e-4, 1e-5, 1e-6, 1e-100):
        with pytest.raises(ValueError, match="representable"):
            delta_family(delta)
    for delta in (1e-3, 0.5):
        fam = delta_family(delta)
        assert abs((1 - fam.q1 ** 2) / delta ** 4 - 1.0) < 1e-3


@pytest.mark.parametrize("delta,expect_l2", [
    (0.1, 0.190240), (0.01, 0.134520)])
def test_psi_exact_l2_closed_form(delta, expect_l2):
    fam = delta_family(delta)
    prof = psi_exact(fam)
    # panels log-spaced through the annulus scales
    edges = np.sqrt(1.0 - np.geomspace(fam.delta ** 3, fam.delta ** 2, 9))[::-1]
    val = l2_radial_measure(prof, edges, order=48)
    closed = annulus_l2sq_radial(fam)
    assert abs(2 * val ** 2 / closed - 1.0) < 1e-10
    assert abs(val - expect_l2) < 1e-5


def test_psi_exact_support():
    fam = delta_family(0.1)
    prof = psi_exact(fam)
    r = np.array([0.5, fam.p - 1e-9, fam.q + 1e-9, 0.99999999])
    assert np.all(prof(r) == 0.0)
    inside = prof(np.array([(fam.p + fam.q) / 2]))
    assert inside[0] > 0.0


def test_psi_smooth_sandwich_and_bracket():
    fam = delta_family(0.1)
    pe, ps = psi_exact(fam), psi_smooth(fam)
    r = np.linspace(0.9, 1.0 - 1e-12, 4001)
    v_e, v_s = pe(r), ps(r)
    assert np.all(v_s >= v_e - 1e-14)
    # and below the wide-annulus indicator profile
    mag = np.zeros_like(r)
    u = 1 - r * r
    m = (u > 0) & (u < 1)
    mag[m] = -1.0 / (np.sqrt(u[m]) * np.log(u[m]))
    wide = np.where((r >= fam.p1) & (r <= fam.q1), mag, 0.0)
    assert np.all(v_s <= wide + 1e-14)
    # norm bracket: closed-form endpoints
    val2 = 2 * l2_radial_measure(ps, [fam.p1, fam.p, fam.q, fam.q1], order=48) ** 2
    assert annulus_l2sq_radial(fam) - 1e-9 <= val2 <= annulus_l2sq_radial(fam, outer=True) + 1e-9
    assert abs(annulus_l2sq_radial(fam) - 0.0723824) < 1e-6
    assert abs(annulus_l2sq_radial(fam, outer=True) - 0.3257217) < 1e-6


@pytest.mark.parametrize("delta", [0.3, 0.01])
def test_psi_smooth_is_the_value_of_psi_and_prime(delta):
    # the value-only pass is the derivative pass's value, bit for bit
    r = np.concatenate([np.linspace(0.0, 1.2, 30001), [1e-300, 1.0 - 1e-12]]).reshape(3, -1)
    assert np.array_equal(psi_smooth(delta_family(delta))(r),
                          _ShellCutoff(delta).psi_and_prime(r)[0])


_DECLARED_DERIVATIVES = {
    "psi_smooth_0.3": lambda: psi_smooth(delta_family(0.3)),
    "psi_smooth_0.1": lambda: psi_smooth(delta_family(0.1)),
    "chi_n2": lambda: chi_mean_zero(2),
    "chi_n3": lambda: chi_mean_zero(3),
    "cli_gaussian": lambda: _profile_from_spec("gaussian:1.3"),
}


@pytest.mark.parametrize("name", list(_DECLARED_DERIVATIVES))
def test_declared_derivative_matches_centered_difference(name):
    # at a quarter, half and three quarters of every panel (six panels up to
    # r = 3 for the Gaussian), against the five-point centered difference of f
    # with a step of 1e-3 of the panel (the worst measured is 5 % of the tolerance)
    prof = _DECLARED_DERIVATIVES[name]()
    edges = np.array([0.0, *prof.panel_edges]) if prof.panel_edges else np.linspace(0, 3, 7)
    width = np.diff(edges)[:, None]
    r = (edges[:-1, None] + width * np.array([0.25, 0.5, 0.75])).ravel()
    h = np.repeat(1e-3 * width.ravel(), 3)
    fd = (8.0 * (prof(r + h) - prof(r - h)) - (prof(r + 2 * h) - prof(r - 2 * h))) / (12.0 * h)
    value, prime = prof.f_and_prime(r)
    assert np.array_equal(value, prof(r))
    np.testing.assert_allclose(prime, fd, rtol=1e-7, atol=1e-9 * np.max(np.abs(prime)))


def test_normalized_datum_scales_the_declared_derivative():
    # phi = psi / z10 declares psi' / z10, not psi' itself
    datum = focusing_sequence(2, [0.3])[0]
    raw = psi_smooth(delta_family(0.3))
    r = np.linspace(0.8, 1.0, 2001)
    value, prime = datum.phi.f_and_prime(r)
    assert np.array_equal(value, raw(r) / datum.z_value_at_10)
    assert np.array_equal(prime, raw.prime(r) / datum.z_value_at_10)
    assert np.array_equal(datum.phi(r), value) and np.any(prime != 0.0)
    assert datum.phi.smoothness_radii == raw.smoothness_radii


def test_psi_smooth_no_jumps():
    # the 4th difference quotient of the smooth profile stays bounded under
    # grid halving, while the sharp indicator's grows like h^-4
    fam = delta_family(0.3)
    ps, pe = psi_smooth(fam), psi_exact(fam)
    quot = {}
    for n in (4000, 8000):
        r = np.linspace(fam.p1 - 0.01, 1.0 - 1e-9, n)
        h = r[1] - r[0]
        quot[n] = (np.max(np.abs(np.diff(ps(r), 4))) / h ** 4,
                   np.max(np.abs(np.diff(pe(r), 4))) / h ** 4)
    assert quot[8000][0] < 4.0 * quot[4000][0]       # bounded 4th derivative
    assert quot[8000][1] > 8.0 * quot[4000][1]       # indicator jump blows up


def test_annulus_point_value_identities():
    # radial-measure closed form vs direct quadrature (the planar value's
    # angular factor is checked by the kernel quadrature: acceptance
    # criterion 2 and test_pointvalue_annulus_closed_form)
    fam = delta_family(0.1)
    from scipy import integrate as sint
    f = lambda u: 1.0 / (u * abs(math.log(u)))
    quad, _ = sint.quad(f, fam.delta ** 3, fam.delta ** 2)
    assert abs(quad / 2.0 / (2 * math.pi) - annulus_point_value_radial(fam)) < 1e-12
    assert abs(annulus_point_value_radial(fam) - math.log(1.5) / (4 * math.pi)) < 1e-15


def test_focusing_sequence_n2():
    data = focusing_sequence(2, [0.3, 0.1])
    norms = [d.norm for d in data]
    assert norms[1] < norms[0]
    # focus normalization: unit value certified by an independent evaluator
    from wavegap.wave import radial_even_representation
    for d in data:
        assert abs(radial_even_representation(d.phi, 2) - 1.0) < 1e-4
    # self-similar cutoff: the norm ratio equals the pure-log prediction
    ratio = norms[1] / norms[0]
    pred = math.sqrt(abs(math.log(0.3)) / abs(math.log(0.1)))
    assert abs(ratio / pred - 1.0) < 1e-6
    with pytest.raises(ValueError):
        focusing_sequence(2, [0.1, 0.3])


@pytest.mark.parametrize("delta", [0.3, 0.1, 0.01, 1e-3])
def test_datum_norm_closed_form_matches_graded_quadrature(delta):
    # the n = 2 data norm comes from the closed form alone; quadrature on the
    # profile's own panel edges (the u-ladder among them) is the second route
    fam = delta_family(delta)
    datum = focusing_sequence(2, [delta])[0]
    prof = psi_smooth(fam)
    quad = math.sqrt(2.0 * math.pi) * l2_radial_measure(prof, [0.0, *prof.panel_edges], 24)
    assert datum.norm * datum.z_value_at_10 == pytest.approx(quad, rel=1e-9)
    sharp = psi_exact(fam)
    quad = 2.0 * l2_radial_measure(sharp, [0.0, *sharp.panel_edges], 24) ** 2
    assert quad == pytest.approx(annulus_l2sq_radial(fam), rel=1e-7)


def test_focusing_sequence_n3():
    data = focusing_sequence(3, [0, 1, 2])
    assert [d.norm for d in data] == sorted([d.norm for d in data], reverse=True)
    for d in data:
        assert d.phi(np.array([1.0]))[0] == 1.0  # plateau through the unit sphere
    # decay tracks the capacity law |log width|^(-1/2) within 30%
    atoms = [d.wave for d in data]
    for a, b, da, db in zip(atoms[:-1], atoms[1:], data[:-1], data[1:]):
        measured = db.norm / da.norm
        predicted = math.sqrt(a.lam / b.lam)
        assert abs(measured / predicted - 1.0) < 0.3


@pytest.mark.parametrize("levels", [[0, 1.5], [0.5, 1.7, 2], [1, 0], [1, 1]])
def test_focusing_sequence_n3_refuses_bad_levels(levels):
    with pytest.raises(ValueError, match="levels must be"):
        focusing_sequence(3, levels)


def test_strip_normalize_properties():
    datum = focusing_sequence(2, [0.3])[0]
    nz = strip_normalize(datum)
    assert 0.0 < nz.t_j <= 1.0
    assert nz.m_j >= 1.0 - 1e-9
    assert abs(nz.z_at(nz.t_j, 0.0) - 1.0) < 1e-6  # unit at the sampled argmax
    # |z~| <= 1 on a sampled strip
    worst = 0.0
    for t in np.linspace(0.05, 1.0, 20):
        worst = max(worst, float(np.max(np.abs(nz.z_at(t, np.linspace(0, 2.2, 200))))))
    assert worst <= 1.0 + 1e-10
    with pytest.raises(ValueError, match="planar family"):
        strip_normalize(focusing_sequence(3, [0])[0])


def test_choose_r_defining_relation_and_consistency():
    datum = focusing_sequence(2, [0.3])[0]
    nz = strip_normalize(datum)
    R = choose_R(nz)
    r_star = 2.0 / R
    # defining inequality re-checked on a finer sample inside the window
    rr = np.linspace(0.0, r_star * 0.999, 400)
    assert np.all(nz.z_at(nz.t_j, rr) >= 0.5 - 1e-9)
    # the bisection brackets the level crossing to its stopping width
    tol = max(1e-3 * nz.wave.fine_scale, 1e-16 * (nz.wave.support + nz.t_j))
    assert nz.z_at(nz.t_j, r_star) >= 0.5
    assert nz.z_at(nz.t_j, r_star + tol) < 0.5


def test_window_refused_below_twice_the_fine_scale():
    nz = strip_normalize(focusing_sequence(2, [0.3])[0])
    coarse = copy.copy(nz.wave)  # the cached evaluator stays as it is
    coarse.fine_scale = nz.window(0.5, 2.0)
    nz_coarse = dataclasses.replace(nz, wave=coarse)
    with pytest.raises(ValueError, match="below twice the fine scale"):
        nz_coarse.window(0.5, 2.0)
    with pytest.raises(ValueError, match="below twice the fine scale"):
        choose_R(nz_coarse)


def test_chi_mean_zero_properties():
    for n in (2, 3):
        chi = chi_mean_zero(n)
        assert chi.support_radius <= 2.0 + 1e-9
        assert chi.kappa > 1e-6
    g = TorusGrid(2, 16.0, 256)
    f = chi_field(chi_mean_zero(2), g)
    # zero Fourier mode vanishes after the lattice-mean projection
    assert abs(np.fft.fft2(f.values)[0, 0]) < 1e-12
    with pytest.raises(ValueError):
        chi_mean_zero(4)


def test_chi_hat_planar_zero_at_origin():
    chi = chi_mean_zero(2)
    vals = chi_hat_planar(chi, np.array([1e-8, 0.5, 2.0]))
    assert abs(vals[0]) < 1e-8
    assert abs(vals[1]) > 1e-4


def test_rescaled_family_roundtrip_and_zero():
    g = TorusGrid(2, 16.0, 256)
    chi = chi_mean_zero(2)
    fam = rescaled_family(chi, R=2.0, M=0.2, T=0.7, grid=g)
    # propagating the traces forward reproduces the prescribed state
    back = spectral_propagate(fam.state0, 0.7)
    target = chi_field(chi, g, scale=0.2, concentration=2.0)
    scale = np.max(np.abs(target.values))
    assert np.max(np.abs(back.u.values)) < 1e-10 * scale
    assert np.max(np.abs(back.ut.values - target.values)) < 1e-10 * scale
    z = rescaled_family(chi, R=2.0, M=0.0, T=0.7, grid=g)
    assert np.max(np.abs(z.state0.u.values)) == 0.0
    with pytest.raises(ValueError):
        rescaled_family(chi, R=0.5, M=0.1, T=0.7, grid=g)
    with pytest.raises(ValueError, match="does not fit the box"):
        rescaled_family(chi, R=2.0, M=0.2, T=0.7, grid=TorusGrid(2, 3.0, 64))


def test_log_cutoff_atom_shapes():
    atom = LogCutoffAtom(1)
    r = np.array([0.2, 1.0 - atom.d_out * 1.01, 1.0, 1.0 + atom.d_out * 1.01, 1.9])
    v = atom(r)
    assert v[2] == 1.0 and v[0] == 0.0 and v[-1] == 0.0
    # derivative consistent with finite differences on the ramp
    d = atom.eps * 3.0
    rr = np.array([1.0 + d])
    h = d * 1e-4
    fd = (atom(rr + h) - atom(rr - h)) / (2 * h)
    assert abs(atom.derivative(rr)[0] - fd[0]) < 1e-4 * abs(fd[0]) + 1e-12
    with pytest.raises(ValueError):
        LogCutoffAtom(9)


_PROFILES = {
    "exact_0.3": lambda: psi_exact(delta_family(0.3)),
    "exact_0.01": lambda: psi_exact(delta_family(0.01)),
    "smooth_0.3": lambda: psi_smooth(delta_family(0.3)),
    "smooth_0.01": lambda: psi_smooth(delta_family(0.01)),
    "sequence_n2_0.3": lambda: focusing_sequence(2, [0.3])[0].phi,
    "sequence_n3_0": lambda: focusing_sequence(3, [0, 2])[0].phi,
    "sequence_n3_2": lambda: focusing_sequence(3, [0, 2])[1].phi,
    "chi_n2": lambda: chi_mean_zero(2),
    "chi_n3": lambda: chi_mean_zero(3),
}


@pytest.mark.parametrize("name", list(_PROFILES))
def test_profile_support_and_breakpoints(name):
    # every profile the package builds vanishes beyond its support, which
    # is its last panel edge, and not on its last panel
    prof = _PROFILES[name]()
    s = prof.support_radius
    assert prof.panel_edges[-1] == s
    beyond = s + np.geomspace(1e-12, 2.0, 1000)
    assert np.all(prof(beyond) == 0.0)
    assert prof(0.5 * (prof.panel_edges[-2] + s)) != 0.0


def test_support_containment_for_torus():
    # every produced profile fits strictly inside the box with margin 2
    L = 16.0
    for prof in (psi_exact(delta_family(0.1)), psi_smooth(delta_family(0.3)),
                 chi_mean_zero(2)):
        assert prof.support_radius < L - 2.0
