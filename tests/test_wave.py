import math

import numpy as np
import pytest

from wavegap import wave
from wavegap.construct import (PLANAR_POINT_FACTOR, annulus_point_value_radial, delta_family,
                               psi_exact, psi_smooth)
from wavegap.field import RadialProfile, ScalarField, TorusGrid, radial_embed, sample
from wavegap.norms import bump_family, lp_norm
from wavegap.radial import gaussian_origin_value
from wavegap.wave import (_EVEN_COEFFICIENTS, _ODD_COEFFICIENTS, WaveState, _even_moment,
                          _value_sweep, energy, kernel_solution_2d, kirchhoff_3d_origin,
                          odd_n_boundary_value, radial_even_representation,
                          spectral_laplacian, spectral_propagate)


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(2, 16.0, 256)


@pytest.fixture(scope="module")
def bump_state(grid):
    from wavegap.field import remove_lattice_mean
    u0 = sample(lambda x, y: 0.0 * x, grid)
    # mean-zero velocity so negative-order energies are defined
    ut0 = remove_lattice_mean(sample(
        lambda x, y: (1 - (x ** 2 + y ** 2) / 2.0) * np.exp(-(x ** 2 + y ** 2) / 2.0), grid))
    return WaveState(u0, ut0, 0.0)


def test_zero_state_stays_zero(grid):
    z = ScalarField(grid, np.zeros(grid.shape))
    out = spectral_propagate(WaveState(z, z, 0.0), 0.8)
    assert np.all(out.u.values == 0.0) and np.all(out.ut.values == 0.0)


def test_single_mode_dalembert(grid):
    k = 2 * np.pi * 5 / (2 * grid.half_width)
    u0 = sample(lambda x, y: np.cos(k * x), grid)
    st = spectral_propagate(WaveState(u0, 0.0 * u0, 0.0), 0.7)
    expected = math.cos(k * 0.7) * u0.values
    assert np.max(np.abs(st.u.values - expected)) < 1e-12


def test_zero_mode_evolves_linearly(grid):
    c = ScalarField(grid, np.full(grid.shape, 0.3))
    st = spectral_propagate(WaveState(0.0 * c, c, 0.0), 0.8)
    assert np.max(np.abs(st.u.values - 0.8 * 0.3)) < 1e-13
    assert np.max(np.abs(st.ut.values - 0.3)) < 1e-13


def test_kernel_nonconvergence_error():
    # an impossible tolerance exhausts the refinement ladder
    with pytest.raises(RuntimeError, match="converge"):
        kernel_solution_2d(RadialProfile(lambda r: np.cos(40.0 * r) * np.exp(-r ** 2)),
                           1.0, 0.0, tol=1e-16, max_refine=1)
    # no refinement compares nothing: the same error, not an unbound name
    with pytest.raises(RuntimeError, match="converge"):
        kernel_solution_2d(RadialProfile(lambda r: np.exp(-r ** 2)), 1.0, 0.0, max_refine=0)


def test_kernel_offaxis_stops_at_its_memory_cap(monkeypatch):
    # off the axis every refinement quadruples the node-by-angle array; the
    # sixth would pass the cap, so the call refuses before allocating it
    prof = psi_smooth(delta_family(0.3))
    with pytest.raises(RuntimeError, match=r"memory cap \(4194304 doubles\)"):
        kernel_solution_2d(prof, 1.0, np.array([0.3, 0.0]))
    # a smaller cap stops earlier; the Gaussian converges at the first
    # refinement, under the cap
    monkeypatch.setattr(wave, "_KERNEL_MAX_DOUBLES", 12288)
    with pytest.raises(RuntimeError, match=r"memory cap \(12288 doubles\)"):
        kernel_solution_2d(prof, 1.0, np.array([0.3, 0.0]))
    gauss = RadialProfile(lambda r: np.exp(-r ** 2))
    assert np.isfinite(kernel_solution_2d(gauss, 0.8, np.array([0.5, 0.0])))


def test_time_reversibility(bump_state):
    there = spectral_propagate(bump_state, 0.9)
    back = spectral_propagate(there, 0.0)
    assert np.max(np.abs(back.u.values - bump_state.u.values)) < 1e-12
    assert np.max(np.abs(back.ut.values - bump_state.ut.values)) < 1e-12


@pytest.mark.parametrize("s", [0.5, 1.0])
def test_energy_conservation(bump_state, s):
    e0 = energy(bump_state, s)
    for t in (0.3, 0.7, 1.0):
        et = energy(spectral_propagate(bump_state, t), s)
        assert abs(et - e0) < 1e-12 * e0


def test_velocity_energy_is_l2(bump_state):
    # state (0, phi): order-1 energy equals |phi|_L2 for all times
    e = energy(bump_state, 1.0)
    assert abs(e - lp_norm(bump_state.ut, 2)) < 1e-12 * e


def test_linearity(grid):
    rng = np.random.default_rng(5)
    s1 = WaveState(ScalarField(grid, rng.standard_normal(grid.shape)),
                   ScalarField(grid, rng.standard_normal(grid.shape)), 0.0)
    s2 = WaveState(ScalarField(grid, rng.standard_normal(grid.shape)),
                   ScalarField(grid, rng.standard_normal(grid.shape)), 0.0)
    a, b = 1.7, -0.8
    comb = WaveState(a * s1.u + b * s2.u, a * s1.ut + b * s2.ut, 0.0)
    lhs = spectral_propagate(comb, 0.6)
    r1, r2 = spectral_propagate(s1, 0.6), spectral_propagate(s2, 0.6)
    assert np.max(np.abs(lhs.u.values - (a * r1.u.values + b * r2.u.values))) < 1e-12 * max(
        1.0, np.max(np.abs(lhs.u.values)))


def test_finite_propagation_speed(grid):
    # Gaussian truncated where it underflows sampling precision: compactly
    # supported at machine level with spectral decay far below 1e-10
    prof = RadialProfile(lambda r: np.where(r < 6.0, np.exp(-r ** 2), 0.0), 6.0)
    ut0 = radial_embed(prof, grid)
    st = spectral_propagate(WaveState(0.0 * ut0, ut0, 0.0), 1.0)
    r = grid.radius()
    outside = np.abs(st.u.values[r > 6.0 + 1.0 + 2 * grid.spacing])
    peak = np.max(np.abs(st.u.values))
    assert np.max(outside) < 1e-10 * peak


def test_kernel_zero_and_gaussian():
    assert kernel_solution_2d(RadialProfile(np.zeros_like), 1.0) == 0.0
    v = kernel_solution_2d(RadialProfile(lambda r: np.exp(-r * r)), 1.0)
    assert abs(v - gaussian_origin_value(1.0, 1.0, 2)) < 1e-10


def test_kernel_against_spectral_grid(grid):
    prof = RadialProfile(lambda r: np.exp(-r ** 2))
    ut0 = radial_embed(prof, grid)
    st = spectral_propagate(WaveState(0.0 * ut0, ut0, 0.0), 1.0)
    i0 = grid.n // 2
    assert abs(kernel_solution_2d(prof, 1.0) - st.u.values[i0, i0]) < 1e-3


def test_kernel_offaxis_matches_shifted_read(grid):
    prof = RadialProfile(lambda r: np.exp(-r ** 2))
    ut0 = radial_embed(prof, grid)
    st = spectral_propagate(WaveState(0.0 * ut0, ut0, 0.0), 0.8)
    i0 = grid.n // 2
    x = grid.axis()[i0 + 4]  # 0.5
    val = kernel_solution_2d(prof, 0.8, np.array([x, 0.0]))
    assert abs(val - st.u.values[i0 + 4, i0]) < 1e-3


def _gaussian_boundary_derivative(a, nu):
    """nu-th radial derivative of exp(-a r^2) at r = 1 (analytic)."""
    return [1.0, -2.0 * a, 4.0 * a * a - 2.0 * a][nu] * math.exp(-a)


def test_calibration_constants_rational():
    # second route to the exact Poisson/Kirchhoff coefficients: fit them by
    # least squares against the Gaussian Fourier oracle; even n fits the
    # moments of d_r^nu phi, odd n the boundary derivatives d_r^nu phi(1)
    gaussians = (0.5, 0.8, 1.2, 1.8, 2.5)
    b = {n: np.asarray([gaussian_origin_value(a, 1.0, n) for a in gaussians])
         for n in (2, 3, 4, 5)}
    for n, exact in {**_EVEN_COEFFICIENTS, **_ODD_COEFFICIENTS}.items():
        A = np.asarray([[_even_moment(RadialProfile(lambda r, a=a: np.exp(-a * r ** 2)), nu, n)
                         if n % 2 == 0 else _gaussian_boundary_derivative(a, nu)
                         for nu in range(len(exact))] for a in gaussians])
        fit, *_ = np.linalg.lstsq(A, b[n], rcond=None)
        assert fit == pytest.approx(exact, abs=1e-9), n
        assert np.max(np.abs(A @ np.asarray(exact) - b[n])) <= 1e-9 * np.max(np.abs(b[n])), n


def test_even_representation_agrees_with_kernel():
    for a in (0.7, 1.3):
        prof = RadialProfile(lambda r, a=a: np.exp(-a * r ** 2))
        lhs = radial_even_representation(prof, 2)
        rhs = kernel_solution_2d(prof, 1.0)
        assert abs(lhs / rhs - 1.0) < 1e-6


def test_even_representation_n4_matches_oracle():
    for a in (0.9, 1.6):
        prof = RadialProfile(lambda r, a=a: np.exp(-a * r ** 2))
        assert abs(radial_even_representation(prof, 4) - gaussian_origin_value(a, 1.0, 4)) < 1e-6


def test_even_representation_smooth_annulus_bracket():
    # the focus value of the smooth annulus datum lies between the closed
    # forms of the inner and outer indicator annuli (planar convention)
    fam = delta_family(0.1)
    prof = psi_smooth(fam)
    val = radial_even_representation(prof, 2)
    lo = PLANAR_POINT_FACTOR * annulus_point_value_radial(fam)
    hi = PLANAR_POINT_FACTOR * annulus_point_value_radial(fam, outer=True)
    assert lo <= val <= hi


def test_kernel_converges_on_thin_annuli():
    # the profiles carry the radii where they are not smooth; without those
    # panel edges the quadrature does not converge at delta = 0.01
    fam = delta_family(0.01)
    val = kernel_solution_2d(psi_exact(fam), 1.0)
    assert val == pytest.approx(PLANAR_POINT_FACTOR * annulus_point_value_radial(fam), rel=1e-6)
    assert np.isfinite(kernel_solution_2d(psi_smooth(fam), 1.0))


@pytest.mark.parametrize("delta", [0.1, 0.03, 0.01])
def test_even_representation_matches_kernel_on_smooth_annulus(delta):
    prof = psi_smooth(delta_family(delta))
    assert radial_even_representation(prof, 2) == pytest.approx(
        kernel_solution_2d(prof, 1.0), rel=5e-5)


def test_kirchhoff_examples():
    near_one = RadialProfile(lambda r: np.exp(-10 * (r - 1.0) ** 2))
    plateau = RadialProfile(lambda r: np.where(np.abs(r - 1.0) < 0.2, 1.0, 0.0), 1.2, (0.8,))
    vanishing = RadialProfile(lambda r: np.where(r < 0.5, 1.0, 0.0), 0.5)
    rsq = RadialProfile(lambda r: r ** 2)
    assert kirchhoff_3d_origin(plateau) == 1.0
    assert kirchhoff_3d_origin(vanishing) == 0.0
    assert abs(kirchhoff_3d_origin(rsq) - 1.0) < 1e-12
    assert abs(kirchhoff_3d_origin(near_one) - 1.0) < 1e-12


def test_odd_boundary_values():
    prof = RadialProfile(lambda r: np.exp(-r ** 2))
    assert abs(odd_n_boundary_value(prof, 3) - math.exp(-1.0)) < 1e-9
    vanish = RadialProfile(lambda r: np.where(r < 0.5, 1.0, 0.0), 0.5)
    assert odd_n_boundary_value(vanish, 3) == 0.0
    for a in (0.8, 1.4):
        p = RadialProfile(lambda r, a=a: np.exp(-a * r ** 2))
        assert abs(odd_n_boundary_value(p, 5) - gaussian_origin_value(a, 1.0, 5)) < 1e-4


def test_value_sweep_matches_spectral_propagate(bump_state):
    times = [0.0, 0.3, 1.0, -0.5]
    for t, u in zip(times, _value_sweep(bump_state, times), strict=True):
        assert np.array_equal(u.values, spectral_propagate(bump_state, t).u.values)
        assert not u.values.flags.writeable


@pytest.mark.parametrize("dim, n", [(1, 256), (2, 64), (3, 16)])
def test_propagator_matches_full_grid_multipliers(dim, n, full_grid_propagate,
                                                  full_grid_laplacian):
    # multipliers per |k| class, gathered, are the full-grid ones bit for bit
    u, ut = bump_family(TorusGrid(dim, 12.0, n), 9, 2)
    state = WaveState(u, ut, 0.0)
    taus = [0.0, 0.3, -1.7, 5.0]
    for tau, swept in zip(taus, _value_sweep(state, taus), strict=True):
        ref_u, ref_ut = full_grid_propagate(u, ut, tau)
        out = spectral_propagate(state, tau)
        assert np.array_equal(out.u.values, ref_u)
        assert np.array_equal(out.ut.values, ref_ut)
        assert np.array_equal(swept.values, ref_u)
    assert np.array_equal(spectral_laplacian(u).values, full_grid_laplacian(u))


def test_representation_constants_guard():
    prof = RadialProfile(lambda r: np.exp(-r ** 2))
    with pytest.raises(ValueError):
        radial_even_representation(prof, 6)
    with pytest.raises(ValueError):
        odd_n_boundary_value(prof, 7)


def test_cross_representation_agreement(grid):
    # kernel, moment formula and torus evolution agree at the focus
    prof = RadialProfile(lambda r: (1 + r ** 2) * np.exp(-r ** 2))
    ut0 = radial_embed(prof, grid)
    st = spectral_propagate(WaveState(0.0 * ut0, ut0, 0.0), 1.0)
    i0 = grid.n // 2
    spectral = st.u.values[i0, i0]
    kern = kernel_solution_2d(prof, 1.0)
    moment = radial_even_representation(prof, 2)
    assert abs(kern - spectral) < 1e-3
    assert abs(moment - spectral) < 1e-3
