import json
import math
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sint
from scipy.special import j0

from wavegap.construct import (LogCutoffAtom, _ShellCutoff, chi_mean_zero, delta_family,
                               focusing_sequence, psi_smooth, shell_wave, strip_normalize)
from wavegap import construct, radial
from wavegap.field import RadialProfile, TorusGrid
from wavegap.radial import (_ABEL_ORDER, RadialWave2D, fourier_hs_sq_radial_3d,
                            gauss_panel_nodes, gaussian_origin_value,
                            h_half_sq_radial_3d, h_half_sq_shell_3d,
                            l2_radial_measure, l2_sq_radial_3d,
                            l2_sq_shell_3d, odd3_origin_value, odd3_value,
                            smooth_step, smooth_step_and_d, sphere_area)
from wavegap.wave import kernel_solution_2d


def test_gauss_panels_integrate_polynomial():
    x, w = gauss_panel_nodes(np.linspace(0, 2, 5), order=8)
    assert abs(np.sum(w * x ** 7) - 2.0 ** 8 / 8.0) < 1e-12


def test_smooth_step_properties():
    x = np.linspace(-0.5, 1.5, 101)
    s = smooth_step(x)
    assert np.all(s[x <= 0] == 0.0) and np.all(s[x >= 1] == 1.0)
    assert np.all(np.diff(s[(x > 0) & (x < 1)]) > 0)
    # derivative consistency
    h = 1e-6
    mid = np.linspace(0.1, 0.9, 17)
    fd = (smooth_step(mid + h) - smooth_step(mid - h)) / (2 * h)
    assert np.max(np.abs(fd - smooth_step_and_d(mid)[1])) < 1e-6


def test_sphere_area_values():
    assert abs(sphere_area(2) - 2 * math.pi) < 1e-14
    assert abs(sphere_area(3) - 4 * math.pi) < 1e-14


def _gauss_wave(n_panels):
    # exp(-r^2) with its declared derivative, cut off at 10 (exp(-100) is below
    # roundoff), on n_panels equal panels: at least _TABLE_PIECES table pieces each
    prof = RadialProfile(lambda r: np.exp(-r * r), 10.0, np.linspace(0.0, 10.0, n_panels + 1)[1:],
                         lambda r: (np.exp(-r * r), -2 * r * np.exp(-r * r)))
    return RadialWave2D(prof)


def _exact_rows(wave):
    # the table nodes where (g, g') were computed, not filled
    return wave._s[::radial._TABLE_FILL]


def test_engine_reads_the_profile_declaration():
    # the ray table is laid on the declared panel edges, so every smoothness
    # radius is a table node; at the second delta no panel is a sliver either
    # (q is 3.7e-8 from its nearest ladder radius, q1 is one), and the fine
    # scale is the table's, about 4.4e-12
    for delta in (0.3, 0.00992623488926486):
        fam = delta_family(delta)
        wave = shell_wave(fam)
        assert wave.profile.panel_edges == psi_smooth(fam).panel_edges and wave.support == fam.q1
        assert wave.breaks.tolist() == [fam.p1, fam.p, fam.q, fam.q1]
        assert np.isin(wave.breaks, wave._s).all() and wave.fine_scale > 1e-12
    # a datum without a declared derivative or a finite support is refused
    for prof in (RadialProfile(np.exp, 1.0),
                 RadialProfile(np.exp, f_and_prime=lambda r: (np.exp(r), np.exp(r)))):
        with pytest.raises(ValueError, match="f_and_prime"):
            RadialWave2D(prof)


@pytest.fixture(scope="module")
def gauss_wave():
    # the linear read between filled table points errs by at most (h^2 / 8)
    # max |g''| at their spacing h = 10 / 32768
    return _gauss_wave(64)


def _engine_outputs(wave):
    rng = np.random.default_rng(5)
    t = rng.uniform(0.01, 1.5, 3 * radial._ABEL_BLOCK + 17)
    r = rng.uniform(0.0, 12.0, t.size)
    return (wave._g, wave._gp, wave.value(t, r), wave.dt_value(t, r),
            np.array(wave.strip_max(t_step=1.0 / 64.0)[:3]))


def test_engine_is_bit_identical_at_every_width(monkeypatch):
    # several blocks of table rows and of pairs, run inline and on 2 and 5
    # threads (more than most hosts' cores), switching threads often
    outputs = {}
    n_panels = 3 * radial._TABLE_BLOCK // radial._TABLE_PIECES + 1
    assert _exact_rows(_gauss_wave(n_panels)).size > 3 * radial._TABLE_BLOCK
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for width in (1, 2, 5):
            monkeypatch.setattr(radial, "_cpus", lambda w=width: w)
            outputs[width] = _engine_outputs(_gauss_wave(n_panels))
    finally:
        sys.setswitchinterval(interval)
    for width in (2, 5):
        for one, other in zip(outputs[1], outputs[width]):
            assert np.array_equal(one, other)


def test_caller_works_blocks_beside_its_helpers(monkeypatch):
    # 3 CPUs, 8 blocks: the caller and at most two helpers drain the blocks,
    # each result lands in its block's place and no helper outlives the call
    monkeypatch.setattr(radial, "_cpus", lambda: 3)
    starts, start = [], threading.Thread.start

    def counted_start(thread):
        starts.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    before, caller, who = threading.active_count(), threading.get_ident(), {}
    caller_began = threading.Event()

    def work(lo, hi):
        who[lo] = threading.get_ident()
        if who[lo] == caller:
            caller_began.set()
        caller_began.wait(10.0)  # a helper's block waits (bounded) for the caller's first
        return np.arange(lo, hi), np.full(hi - lo, lo)

    items, owners = radial._streamed(38, 5, work)
    assert np.array_equal(items, np.arange(38))
    assert np.array_equal(owners, np.repeat(np.arange(0, 38, 5), [5] * 7 + [3]))
    assert sorted(who) == list(range(0, 38, 5)) and caller in who.values()
    assert len(set(who.values())) <= 3 and len(starts) <= 2
    assert threading.active_count() == before
    # one block, or one CPU, is worked by the caller alone
    for cpus, n in ((3, 4), (1, 38)):
        monkeypatch.setattr(radial, "_cpus", lambda c=cpus: c)
        starts.clear()
        who.clear()
        assert np.array_equal(radial._streamed(n, 5, work)[0], np.arange(n))
        assert set(who.values()) == {caller} and starts == []


def _fail(on_helper, error):
    # the first block on the failing side raises ``error()`` once the other
    # side has taken a block, which waits (bounded) for it; the other side's
    # blocks return
    caller, other_ran, failed = threading.get_ident(), threading.Event(), threading.Event()

    def work(lo, hi):
        if (threading.get_ident() != caller) == on_helper:
            other_ran.wait(10.0)
            failed.set()
            error()
        other_ran.set()
        failed.wait(10.0)
        return (np.zeros(hi - lo),)
    return work


def _raise_value_error():
    raise ValueError("block failed")


def _warn_overflow():
    warnings.warn("overflow in a block", RuntimeWarning)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("error, kind", [(_raise_value_error, ValueError),
                                         (_warn_overflow, RuntimeWarning)],
                         ids=["raise", "runtime_warning"])
@pytest.mark.parametrize("on_helper", [True, False], ids=["on_helper", "on_caller"])
def test_a_block_error_is_raised_in_the_caller(monkeypatch, on_helper, error, kind):
    # the error of the failing block reaches the caller, not a TypeError from
    # an empty result slot, and every helper has ended when it does
    monkeypatch.setattr(radial, "_cpus", lambda: 3)
    before = threading.active_count()
    with pytest.raises(kind, match="block failed|overflow in a block"):
        radial._streamed(24, 4, _fail(on_helper, error))
    assert threading.active_count() == before


def test_one_block_equals_a_split_into_blocks(gauss_wave):
    # the batches fit in one block; the block helpers split them by hand
    rng = np.random.default_rng(6)
    t = rng.uniform(0.01, 1.5, 300)
    r = rng.uniform(0.0, 12.0, t.size)
    cuts = [0, 1, 40, 41, 175, t.size]
    screen = (radial._SCREEN_ORDER, radial._SCREEN_CAP)
    for derivative in (False, True):
        whole = {}
        for rule in ((), screen):  # the default rule, then the screen's order and cap
            split = np.concatenate([gauss_wave._abel_block(t[a:b], r[a:b], derivative, *rule)
                                    for a, b in zip(cuts[:-1], cuts[1:])])
            whole[rule] = gauss_wave._abel(t, r, derivative, *rule)
            assert np.array_equal(whole[rule], split)
        assert not np.array_equal(whole[()], whole[screen])
    s = np.linspace(0.0, 9.99, t.size)
    whole = gauss_wave._ray_transforms(s)
    split = [gauss_wave._ray_block(s[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]
    for k in (0, 1):
        assert np.array_equal(whole[k], np.concatenate([part[k] for part in split]))


def test_ray_table_matches_the_closed_form(gauss_wave):
    # g(s) = sqrt(pi) exp(-s^2) for exp(-r^2); the table reads linearly between
    # points h apart, which errs by at most (h^2 / 8) max |g''| for g and
    # (h^2 / 8) max |g^(3)| for g' (the Hermite fill's own error is far below)
    s = np.random.default_rng(8).uniform(0.0, 10.0, 4000)
    x = np.linspace(0.0, 10.0, 100001)
    gauss = math.sqrt(math.pi) * np.exp(-x * x)
    h = np.max(np.diff(gauss_wave._s))
    for got, want, bend in (
            (gauss_wave.g(s), math.sqrt(math.pi) * np.exp(-s * s), 2.0 * math.sqrt(math.pi)),
            (gauss_wave.g_prime(s), -2.0 * s * math.sqrt(math.pi) * np.exp(-s * s),
             np.max(np.abs((12.0 * x - 8.0 * x ** 3) * gauss)))):
        assert np.max(np.abs(got - want)) <= 1.05 * h * h / 8.0 * bend


@pytest.mark.parametrize("wave", ["gauss", "shell"])
def test_ray_table_passes_through_its_exact_rows(gauss_wave, wave):
    # at every exact node the filled table holds the ray transforms bit for bit
    wave = gauss_wave if wave == "gauss" else shell_wave(delta_family(0.3))
    g, gp = wave._ray_transforms(_exact_rows(wave))
    assert np.array_equal(wave._g[::radial._TABLE_FILL], g)
    assert np.array_equal(wave._gp[::radial._TABLE_FILL], gp)
    assert np.isin(wave.profile.panel_edges, _exact_rows(wave)).all()


def test_wave2d_against_hankel_oracle(gauss_wave):
    for (t, r) in [(1.0, 0.0), (0.5, 0.3), (1.0, 1.2), (0.25, 2.0)]:
        def f(k):
            return np.sin(t * k) * (np.pi) * np.exp(-k * k / 4.0) * j0(k * r) / (2 * np.pi)
        oracle, _ = sint.quad(f, 0, 60, limit=400)
        assert abs(gauss_wave.value(t, r) - oracle) < 5e-7


_points = st.lists(st.tuples(st.floats(min_value=0.01, max_value=1.5),
                             st.floats(min_value=0.0, max_value=12.0)),
                   min_size=1, max_size=40)


@settings(max_examples=25, deadline=None)
@given(_points)
def test_batched_abel_matches_pointwise_calls(gauss_wave, pts):
    t, r = (np.array(v) for v in zip(*pts))
    for f in (gauss_wave.value, gauss_wave.dt_value):
        batch = f(t, r)
        single = np.array([f(ti, ri) for ti, ri in zip(t, r)])
        assert np.max(np.abs(batch - single)) <= 1e-13 * max(np.max(np.abs(batch)), 1e-300)


def _loop_abel(wave, t, r, derivative):
    """Per-pair reference for the batched evaluator: the panel rules of the
    per-radius loop it replaced (plus its underflow guard for r < 1e-162).
    Returns the value and the sum of the absolute terms, which bounds the
    rounding of a reordered summation."""
    lim2 = (wave.support + t) ** 2 - r * r
    if lim2 <= 0:
        return 0.0, 0.0
    sig_max = math.sqrt(lim2)
    edges = {0.0, sig_max}
    for sp in [t] + [c for b in wave.breaks for c in (b - t, b + t, t - b)]:
        v = sp * sp - r * r
        if sp >= r and 0 < v < lim2:
            edges.add(math.sqrt(v))
    edges.update(f * r for f in (0.25, 1.0, 4.0) if 0 < f * r < sig_max)
    edges = sorted(edges)
    max_len = (wave.support + t) / 12.0
    capped = [edges[0]]
    for a, b in zip(edges[:-1], edges[1:]):
        n = math.ceil((b - a) / max_len) if b - a > max_len else 1
        capped.extend(np.linspace(a, b, n + 1)[1:])
    sig, w = gauss_panel_nodes(np.unique(capped), _ABEL_ORDER)
    sp = np.sqrt(r * r + sig * sig)
    sp[sp == 0] = np.hypot(r, sig[sp == 0])
    g = wave.g_prime if derivative else wave.g
    f = g(sp + t) + g(sp - t) if derivative else g(sp + t) - g(sp - t)
    terms = w * f / sp / (2.0 * math.pi)
    return -float(np.sum(terms)), float(np.sum(np.abs(terms)))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0.01, max_value=1.0),
                          st.floats(min_value=0.0, max_value=2.2)),
                min_size=1, max_size=20))
def test_batched_abel_matches_loop_reference(pts):
    wave = shell_wave(delta_family(0.3))  # four breakpoints, cached
    t, r = (np.array(v) for v in zip(*pts))
    for derivative, f in ((False, wave.value), (True, wave.dt_value)):
        ref, scale = np.array([_loop_abel(wave, ti, ri, derivative) for ti, ri in pts]).T
        assert np.all(np.abs(f(t, r) - ref) <= 1e-13 * scale)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.01, max_value=1.5), st.floats(min_value=0.0, max_value=1.0))
def test_abel_scalar_radius_and_outside_support(gauss_wave, t, frac):
    r_out = (gauss_wave.support + t) * (1.0 + frac)
    for f in (gauss_wave.value, gauss_wave.dt_value):
        assert type(f(t, 0.5)) is float
        assert f(t, r_out) == 0.0
        assert np.all(f(t, np.array([r_out, r_out + 1.0])) == 0.0)


@settings(max_examples=4, deadline=None)
@given(st.floats(min_value=0.2, max_value=1.2), st.floats(min_value=0.0, max_value=2.0))
def test_abel_matches_kernel_quadrature(gauss_wave, t, r):
    oracle = kernel_solution_2d(RadialProfile(lambda r: np.exp(-r * r)), t, np.array([r, 0.0]))
    assert abs(gauss_wave.value(t, r) - oracle) < 5e-7


def test_wave2d_origin_matches_gaussian_formula(gauss_wave):
    assert abs(gauss_wave.value(1.0, 0.0) - gaussian_origin_value(1.0, 1.0, 2)) < 5e-7


def test_wave2d_dt_matches_finite_difference(gauss_wave):
    t, r = 0.7, 0.4
    h = 1e-5
    fd = (gauss_wave.value(t + h, r) - gauss_wave.value(t - h, r)) / (2 * h)
    # limited by linear interpolation of the derivative table
    assert abs(gauss_wave.dt_value(t, r) - fd) < 5e-4


def test_wave2d_initial_velocity_norm(gauss_wave):
    # z_t(0, .) is the datum exp(-r^2), whose L2(R^2) norm is sqrt(pi / 2)
    a = gauss_wave.l2_planar(1e-9)
    assert abs(a / math.sqrt(math.pi / 2.0) - 1.0) < 1e-5


def test_wave2d_energy_monotonicity(gauss_wave):
    datum = math.sqrt(math.pi / 2.0)  # L2(R^2) norm of exp(-r^2)
    for t in (0.3, 0.7, 1.0):
        assert gauss_wave.l2_planar(t) <= datum * (1 + 1e-6)


@pytest.mark.parametrize("t", [0.5, 1.0])
def test_shell_wave_l2_matches_split_panel_reference(t):
    # the same integral with every panel between the scan radii split in
    # three at order 24
    wave = shell_wave(delta_family(0.3))
    edges = wave._scan_radii(t)
    split = np.append(np.linspace(edges[:-1], edges[1:], 4, axis=1)[:, :-1].ravel(), edges[-1])
    r, w = gauss_panel_nodes(split, 24)
    ref = math.sqrt(2.0 * math.pi * float(np.sum(w * wave.dt_value(t, r) ** 2 * r)))
    assert wave.l2_planar(t) == pytest.approx(ref, rel=1e-8)


_L2_BELOW_0P03 = ("l2_planar misses the energy partition by -1.5e-4 to -2.6e-4 at t = 0.5, "
                  "0.999, 1 - 0.1 delta^2 and t_j at delta 0.01 (ROADMAP item 3)")


@pytest.mark.parametrize("delta, rel", [
    (0.3, 1e-6), (0.1, 1e-6), (0.03, 1e-4),
    pytest.param(0.01, 1e-4, marks=pytest.mark.xfail(strict=True, reason=_L2_BELOW_0P03)),
])
def test_shell_wave_l2_matches_energy_partition(delta, rel):
    # a second route for ||z_t(t)||: cos^2 = (1 + cos(2 .)) / 2 gives
    # ||z_t(t)||^2 = ||psi||^2 / 2 + <psi, z_t(2t)> / 2, with ||psi|| in closed
    # form and the cross term one order-24 quadrature over the annulus, on its
    # panel edges and the fronts of z_t(2t) there (the engine's own radii at
    # the wave fronts: near the focus the wave comes back out across the annulus)
    datum = focusing_sequence(2, [delta])[0]
    wave, fam = datum.wave, delta_family(delta)
    psi_norm = datum.norm * datum.z_value_at_10
    edges = [e for e in wave.profile.panel_edges if fam.p1 <= e <= fam.q1]
    for t in sorted({0.5, 0.999, 1.0 - 0.1 * delta ** 2, strip_normalize(datum).t_j}):
        fronts = wave._scan_radii(2.0 * t)
        r, w = gauss_panel_nodes(
            np.union1d(edges, fronts[(fronts >= fam.p1) & (fronts <= fam.q1)]), 24)
        cross = 2.0 * math.pi * float(np.sum(w * wave.profile(r) * wave.dt_value(2.0 * t, r) * r))
        assert wave.l2_planar(t) == pytest.approx(math.sqrt(0.5 * psi_norm ** 2 + 0.5 * cross),
                                                  rel=rel)


def test_shell_wave_cross_validated_against_fft():
    fam = delta_family(0.3)
    wave = shell_wave(fam)
    g = TorusGrid(2, 4.0, 2048)
    ut0 = psi_smooth(fam)(g.radius())
    z = propagate_fft(ut0, 4.0, 0.7)
    i0 = g.n // 2
    for ridx in (0, 128, 512):
        r = abs(g.axis()[i0 + ridx])
        assert abs(wave.value(0.7, r) - z[i0 + ridx, i0]) < 5e-5


_ENGINE_BELOW_0P1 = ("the inverse-Abel panels span several decades of the shell's log "
                     "structure between its smoothness radii: measured -3.4e-5 at 0.01 and "
                     "-2.8e-2 at 1e-3 (ROADMAP item 3)")


@pytest.mark.parametrize("delta", [
    0.3, 0.1,
    pytest.param(0.01, marks=pytest.mark.xfail(strict=True, reason=_ENGINE_BELOW_0P1)),
    pytest.param(1e-3, marks=pytest.mark.xfail(strict=True, reason=_ENGINE_BELOW_0P1)),
])
def test_shell_wave_focus_matches_delta_free_closed_form(delta):
    # z(1, 0) = (1/2) int c(sigma) / sigma dsigma for the self-similar cutoff
    closed = 0.5 * _ShellCutoff(delta).sigma_integral(1, -1)
    assert shell_wave(delta_family(delta)).value(1.0, 0.0) == pytest.approx(closed, rel=1e-8)


def propagate_fft(ut0, L, t):
    n = ut0.shape[0]
    k1 = 2 * np.pi * np.fft.fftfreq(n, d=2 * L / n)
    KX, KY = np.meshgrid(k1, k1, indexing="ij")
    K = np.sqrt(KX ** 2 + KY ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        sinc = np.where(K > 0, np.sin(t * K) / np.where(K > 0, K, 1.0), t)
    return np.fft.ifft2(sinc * np.fft.fft2(ut0)).real


def test_l2_radial_measure_annulus_closed_form():
    fam = delta_family(0.1)
    from wavegap.construct import annulus_l2sq_radial, psi_exact
    prof = psi_exact(fam)
    val = l2_radial_measure(prof, [fam.p, fam.q], order=48)
    assert abs(2 * val ** 2 / annulus_l2sq_radial(fam) - 1.0) < 1e-10


def test_odd3_formulas():
    phi = lambda r: np.exp(-np.asarray(r, float) ** 2)
    assert abs(odd3_origin_value(phi, 1.0) - math.exp(-1.0)) < 1e-14
    assert abs(odd3_origin_value(phi, 1.0) - gaussian_origin_value(1.0, 1.0, 3)) < 1e-10
    # interior value via the 1-d reduction against a second quadrature
    t, r = 0.6, 0.8
    direct = sint.quad(lambda s: s * math.exp(-s * s), r - t, r + t)[0] / (2 * r)
    assert abs(odd3_value(phi, t, r, support=8.0) - direct) < 1e-12


def _h_half_sq_1d(u, u_prime, edges):
    # exact 1-d reduction |u|^2_{Hdot^(1/2)(R^3)} = int int_{R^2} (g(x) - g(y))^2 / (x - y)^2
    # for the odd g(x) = x u(|x|), with diagonal limit g'(x)^2; the pairs with one
    # point past X = edges[-1], where g = 0, add 2 int g^2 (1/(X - x) + 1/(X + x))
    edges = np.unique(np.concatenate([-edges, [0.0], edges]))
    x, w = gauss_panel_nodes(edges, radial._PAIR_ORDER)
    g = x * u(np.abs(x))
    total = radial._gagliardo_square(
        x, w, g, (u(np.abs(x)) + np.abs(x) * u_prime(np.abs(x))) ** 2,
        lambda x, gx, y, gy: (gx - gy) ** 2 / (x - y) ** 2)
    big = edges[-1]
    return total + 2.0 * float(np.sum(w * g ** 2 * (1.0 / (big - x) + 1.0 / (big + x))))


def test_gagliardo_gaussian_matches_fourier():
    u = lambda r: np.exp(-np.asarray(r, float) ** 2)
    up = lambda r: -2 * np.asarray(r, float) * np.exp(-np.asarray(r, float) ** 2)
    hg = h_half_sq_radial_3d(u, np.linspace(1e-9, 8, 80), u_prime=up)
    assert abs(hg / math.pi - 1.0) < 1e-6  # exact value is pi
    assert abs(_h_half_sq_1d(u, up, np.linspace(1e-9, 8, 80)) / math.pi - 1.0) < 1e-13
    hf = fourier_hs_sq_radial_3d(u, np.linspace(0, 8, 60), 0.5, k_max=60)
    assert abs(hf / math.pi - 1.0) < 1e-8
    l2 = l2_sq_radial_3d(u, np.linspace(1e-9, 8, 40))
    assert abs(l2 - 4 * math.pi * sint.quad(lambda r: r * r * math.exp(-2 * r * r), 0, 8)[0]) < 1e-10


def test_chi3_kappa_matches_fourier():
    chi = chi_mean_zero(3)
    hf = fourier_hs_sq_radial_3d(chi, np.linspace(0, 2, 60), 0.5, k_max=160)
    assert abs(chi.kappa / math.sqrt(hf) - 1.0) < 1e-9


def test_shell_gagliardo_matches_plain_coordinates():
    # three routes: r with the angular reduction, and the 1-d reduction in
    # plain x and in log-distance around x = +-1 (the production shell route,
    # which shares no kernel with the r route).  Level 2 stays out: its
    # plateau half-width (3e-15) is not representable in r.
    for level in (0, 1):
        atom = LogCutoffAtom(level)
        edges = atom.radial_panel_edges()
        hs_shell = h_half_sq_shell_3d(atom.T_logd, atom.dT_logd, atom.l_plateau)
        hs_plain = h_half_sq_radial_3d(atom, edges, u_prime=atom.derivative)
        hs_1d = _h_half_sq_1d(atom, atom.derivative, edges)
        assert abs(hs_plain / hs_1d - 1.0) < 1e-11, level
        assert abs(hs_shell / hs_1d - 1.0) < 1e-11, level
        l2_shell = l2_sq_shell_3d(atom.T_logd, atom.l_plateau)
        l2_plain = l2_sq_radial_3d(atom, edges)
        assert abs(l2_shell / l2_plain - 1.0) < 1e-10, level


def test_shell_route_does_not_see_its_outer_cut(monkeypatch):
    # the atoms' T vanishes for d >= 1/4, so wherever the outer cut sits above
    # that, the closed-form off-shell pairs take over exactly what the shell
    # pairs give up
    for level in (0, 1, 2):
        atom = LogCutoffAtom(level)
        got = []
        for outer in (0.75, 0.5, 0.4):
            monkeypatch.setattr(radial, "_SHELL_OUTER", outer)
            got.append(h_half_sq_shell_3d(atom.T_logd, atom.dT_logd, atom.l_plateau))
        assert max(abs(v / got[0] - 1.0) for v in got) < 1e-14, (level, got)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gagliardo_matches_recorded_values():
    # recorded after the r route came to cover [0, edges[-1]], the log-distance
    # route its plateau core down to l_plateau - 30, and both a tensor Gauss
    # rule on every panel pair; each value agrees with the 1-d reduction (and
    # chi3_kappa with the Fourier route), and the rel 1e-12 tolerance fails a
    # doubled diagonal limit in the log-distance route
    ref = json.loads((Path(__file__).parent / "gagliardo_recorded.json").read_text())
    u = lambda r: np.exp(-np.asarray(r, float) ** 2)
    up = lambda r: -2 * np.asarray(r, float) * np.exp(-np.asarray(r, float) ** 2)
    atom = LogCutoffAtom(0)
    radial_route = {
        "gaussian_radial": h_half_sq_radial_3d(u, np.linspace(1e-9, 8, 80), u_prime=up),
        "chi3_kappa": chi_mean_zero(3).kappa,
        "atom0_plain": h_half_sq_radial_3d(atom, atom.radial_panel_edges(),
                                           u_prime=atom.derivative),
    }
    for key, got in radial_route.items():
        assert got == pytest.approx(ref[key], rel=1e-12), key
    atoms = [LogCutoffAtom(j) for j in range(5)]
    shell = [h_half_sq_shell_3d(a.T_logd, a.dT_logd, a.l_plateau) for a in atoms]
    assert shell == pytest.approx(ref["shell_strip_fixed"], rel=1e-12)
    assert [a.h_half_norm() for a in atoms] == pytest.approx(ref["h_half_norm_strip_fixed"],
                                                             rel=1e-12)


def test_tensor_rule_takes_the_diagonal_limit():
    # u(d) = d^2 in l = log d: the density (u - u')^2 / (d - d')^2 times the
    # Jacobian d d' tends to u'(d)^2 d^2 = 4 e^{4l} on the diagonal, and its
    # integral over [A, B]^2 in d is int int (d + d')^2
    edges = np.linspace(-2.0, 1.0, 7)
    a, b = math.exp(edges[0]), math.exp(edges[-1])
    exact = 2.0 * (b - a) * (b ** 3 - a ** 3) / 3.0 + (b * b - a * a) ** 2 / 2.0

    def density(l, f, lp, fp):
        return (f - fp) ** 2 / (np.exp(l) - np.exp(lp)) ** 2 * np.exp(l + lp)

    l, w = gauss_panel_nodes(edges, 12)
    got = radial._gagliardo_square(l, w, np.exp(2.0 * l), 4.0 * np.exp(4.0 * l), density)
    assert abs(got / exact - 1.0) < 1e-12


def test_strip_max_finds_synthetic_peak(gauss_wave):
    m, tj, rj, _ = gauss_wave.strip_max(t_step=1.0 / 64.0)
    # brute scan oracle on a fine grid
    best = 0.0
    for t in np.linspace(0.05, 1.0, 96):
        vals = np.abs(gauss_wave.value(t, np.linspace(0, 3, 200)))
        best = max(best, vals.max())
    assert m >= best * 0.999


def _full_scan(monkeypatch):
    # the screen's rule patched to the confirm rule: every pair at order 24, capped
    monkeypatch.setattr(radial, "_SCREEN_ORDER", _ABEL_ORDER)
    monkeypatch.setattr(radial, "_SCREEN_CAP", radial._ABEL_CAP)


@pytest.mark.parametrize("delta", [0.3, 0.1, 0.03, 0.01, 1e-3])
def test_screened_strip_scan_is_the_full_scan(monkeypatch, delta):
    # the order-16 screen on the structural panels only ranks the pairs:
    # (m, t_j, r_j) equals the scan that evaluates every pair at order 24
    # with capped panels, and the guard stays off down to the delta floor
    datum = focusing_sequence(2, [delta])[0]
    screened = strip_normalize(datum)
    m, tj, rj, screen = construct._STRIP_SCAN_CACHE[delta]
    monkeypatch.setattr(construct, "_STRIP_SCAN_CACHE", {})
    _full_scan(monkeypatch)
    full = strip_normalize(datum)
    assert (m, tj, rj) == construct._STRIP_SCAN_CACHE[delta][:3]
    assert (screened.m_raw, screened.t_j, screened.sign) == (full.m_raw, full.t_j, full.sign)
    assert screened.scan["screen"] == screen and full.scan["screen"]["error"] == 0.0
    assert full.scan["screen"]["cap"] == radial._ABEL_CAP
    assert (screen["order"], screen["cap"], screen["margin"]) == (16, 1.0, 0.5)
    assert not screen["guard"]
    assert 0.0 < screen["error"] < 0.25 * 0.5 / (2.0 - 0.5)  # a quarter of the bound m / (2 - m)
    assert screen["confirmed"] < 0.1 * screen["screened"]


def test_screen_guard_confirms_every_pair(monkeypatch):
    # a margin this small makes any screen error trip the guard, and the
    # stage becomes the full order-24 scan, on one thread and on two
    wave = shell_wave(delta_family(0.3))
    monkeypatch.setattr(radial, "_SCREEN_MARGIN", 1e-12)
    guarded = {}
    for width in (1, 2):
        monkeypatch.setattr(radial, "_cpus", lambda w=width: w)
        guarded[width] = wave.strip_max(t_step=1.0 / 64.0)
    assert guarded[1] == guarded[2]
    screen = guarded[1][3]
    assert screen["guard"] and screen["confirmed"] == screen["screened"] > 10_000
    assert 0.0 < screen["error"] < 1e-5
    monkeypatch.undo()
    _full_scan(monkeypatch)
    assert guarded[1][:3] == wave.strip_max(t_step=1.0 / 64.0)[:3]


def test_half_level_radius_cosine():
    from wavegap.construct import _level_window
    # z(t, r) = cos(r): level 1/2 crossed exactly at pi/3
    r = _level_window(lambda t, rr: np.cos(np.asarray(rr)), 0.5, 0.5, np.inf,
                      r_top=3.0, fine=1e-6)
    assert abs(r - math.pi / 3.0) < 1e-6
    # z(t, r) = 1 + r leaves the band (1/2, 2) upward at r = 1
    r = _level_window(lambda t, rr: 1.0 + np.asarray(rr), 0.5, 0.5, 2.0,
                      r_top=3.0, fine=1e-6)
    assert abs(r - 1.0) < 1e-6
    # exp(-r / c) crosses 1/2 at c log 2, below the first probe (fine): the
    # bracket starts at 0 and closes to the stopping width 1e-3 fine
    c = 1e-8
    r = _level_window(lambda t, rr: np.exp(-np.asarray(rr) / c), 0.5, 0.5, np.inf,
                      r_top=3.0, fine=1e-6)
    assert 0.0 < c * math.log(2.0) - r <= 1e-9
    # a band never left: the top radius itself
    r = _level_window(lambda t, rr: np.ones_like(np.asarray(rr)), 0.5, 0.5, 2.0,
                      r_top=3.0, fine=1e-6)
    assert r == 3.0


def test_shell_wave_delta_0p3_matches_recorded_values():
    # values recorded from the per-radius loop implementation on a hand-built
    # table: the ray transforms at its radii, and the strip scan, whose m_raw
    # moved 4.6e-10 relative with the table laid on the panel edges
    ref = json.loads((Path(__file__).parent / "radial_delta_0p3.json").read_text())
    wave = shell_wave(delta_family(0.3))
    g, gp = wave._ray_transforms(np.array(ref["s"]))
    for got, want in ((g, ref["g"]), (gp, ref["gp"])):
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
    nz = strip_normalize(focusing_sequence(2, [0.3])[0])
    assert abs(nz.m_raw - ref["strip_m_raw"]) <= 1e-9 * ref["strip_m_raw"]
    assert abs(nz.t_j - ref["strip_t_j"]) <= 1e-12 * ref["strip_t_j"]
