import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate as sint
from scipy.special import logsumexp

from wavegap import norms
from wavegap.construct import chi_field, chi_mean_zero
from wavegap.field import ScalarField, TorusGrid, lattice_shift, remove_lattice_mean, sample
from wavegap.norms import (_lattice_shells, _sobolev_norms, besov_norm, bump_family,
                           difference, fractional_integral_seminorm, leibniz_expand,
                           lp_norm, rescale, sobolev_norm)


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(2, 16.0, 256)


@pytest.fixture(scope="module")
def gaussian(grid):
    return sample(lambda x, y: np.exp(-(x ** 2 + y ** 2)), grid)


@pytest.fixture(scope="module")
def family(grid):
    return bump_family(grid, seed=11, count=6)


def test_parseval_consistency(gaussian, family):
    for f in [gaussian] + family:
        assert abs(sobolev_norm(f, 0.0) - lp_norm(f, 2)) < 1e-12 * lp_norm(f, 2)
        assert abs(sobolev_norm(f, 0.0, True) - lp_norm(f, 2)) < 1e-10 * lp_norm(f, 2)


def test_single_mode_homogeneous(grid):
    k = 2 * np.pi * 3 / (2 * grid.half_width)
    f = sample(lambda x, y: np.cos(k * x), grid)
    for s in (0.5, 1.0, -0.5):
        assert abs(sobolev_norm(f, s, True) - abs(k) ** s * lp_norm(f, 2)) < 1e-9


def test_gaussian_half_order_vs_radial_oracle():
    # cone kink of the weight at xi = 0 controls the spectral-sum error, so
    # the continuum comparison needs a large box (fine xi spacing)
    g = TorusGrid(2, 128.0, 4096)
    f = sample(lambda x, y: np.exp(-(x ** 2 + y ** 2)), g)
    val = sobolev_norm(f, 0.5, True) ** 2
    oracle = (2 * np.pi) ** -2 * 2 * np.pi * sint.quad(
        lambda k: k ** 2 * (np.pi * np.exp(-k ** 2 / 4.0)) ** 2, 0, 50)[0]
    assert abs(val / oracle - 1.0) < 1e-6


def test_negative_order_zero_mode_guard(grid):
    f = sample(lambda x, y: np.exp(-(x ** 2 + y ** 2)), grid)  # nonzero mean
    with pytest.raises(ValueError, match="zero mode"):
        sobolev_norm(f, -1.0, True)


def test_order_whose_weight_overflows_is_refused(grid, gaussian):
    # (1 + |xi|^2)^s and |xi|^(2 s) overflow at s = 400 on this grid, and so
    # do the norms; at a negative homogeneous order k_min^(2 s) overflows
    # first (k_min = pi / 16), and the norm of the k_min mode alone, |k|^s
    # times its L2 norm, only from s = -450 on
    for s, h in [(400.0, False), (400.0, True)]:
        with pytest.raises(ValueError, match=r"order s = 400\.0 is not finite"):
            sobolev_norm(gaussian, s, h)
    f = sample(lambda x, y: np.cos(math.pi / 16.0 * x), grid)  # mean zero
    assert sobolev_norm(f, -100.0, True) > 0.0
    exact = (math.pi / 16.0) ** -400.0 * lp_norm(f, 2)
    assert abs(sobolev_norm(f, -400.0, True) / exact - 1.0) < 1e-12
    with pytest.raises(ValueError, match=r"order s = -450\.0 is not finite"):
        sobolev_norm(f, -450.0, True)


def test_overflowing_weight_sums_from_log_weights():
    # on the 256^2 chi field (1 + |xi|^2)^100 overflows at the largest |xi|,
    # but the norm, about 5.07e150, does not: like the plain sum at s = 80, it
    # matches a log-sum over the full spectrum
    grid = TorusGrid(2, 16.0, 256)
    f = chi_field(chi_mean_zero(2), grid)
    power = np.abs(np.fft.fftn(f.values)) ** 2
    xi2 = sum(k * k for k in grid.wavenumbers())
    scale = grid.spacing ** 2 / grid.n ** 2
    for s in (80.0, 100.0, 200.0):
        with np.errstate(divide="ignore"):
            log_sq = math.log(scale) + logsumexp(s * np.log1p(xi2) + np.log(power))
        assert abs(sobolev_norm(f, s) / math.exp(0.5 * log_sq) - 1.0) < 1e-12
    with np.errstate(over="ignore"):
        assert np.all(np.isfinite((1.0 + xi2) ** 80.0))
        assert not np.all(np.isfinite((1.0 + xi2) ** 100.0))


def test_lp_norms(grid, gaussian):
    z = ScalarField(grid, np.zeros(grid.shape))
    assert lp_norm(z, 2) == 0.0
    c = ScalarField(grid, np.full(grid.shape, -2.0))
    assert abs(lp_norm(c, 3) - 2.0 * (2 * 16.0) ** (2 / 3)) < 1e-10
    assert abs(lp_norm(gaussian, 1) - math.pi) < 1e-8
    assert lp_norm(c, "inf") == 2.0


def test_difference_annihilates_constants(grid):
    c = ScalarField(grid, np.full(grid.shape, 4.2))
    for ell in (1, 2, 5):
        assert np.all(difference(c, (1, 0), ell).values == 0.0)


def test_second_difference_of_affine_away_from_seam():
    g = TorusGrid(1, 16.0, 64)
    ramp = ScalarField(g, g.axis())
    d2 = difference(ramp, (1,), 2).values
    assert np.max(np.abs(d2[1:-3])) < 1e-12  # interior nodes, seam excluded


def test_difference_group_law(grid):
    f = bump_family(grid, 3, 1)[0]
    a = difference(difference(f, (1, 2), 2), (1, 2), 3)
    b = difference(f, (1, 2), 5)
    assert np.array_equal(a.values, b.values)


def test_product_rule(grid):
    f, g = bump_family(grid, 5, 2)
    lhs = difference(f * g, (2, 1), 1).values
    f1 = lattice_shift(f, (2, 1))
    rhs = difference(f, (2, 1), 1).values * g.values + f1.values * difference(g, (2, 1), 1).values
    scale = np.max(np.abs(lhs)) + 1e-30
    assert np.max(np.abs(lhs - rhs)) < 1e-13 * max(1.0, scale)


@pytest.mark.parametrize("k", [1, 3])
def test_leibniz_expansion_matches_direct(grid, k):
    f, g = bump_family(grid, 13, 2)
    direct = difference(f * g, (1, -1), k)
    expanded = leibniz_expand(f, g, (1, -1), k)
    scale = np.max(np.abs(direct.values)) + 1e-30
    assert np.max(np.abs(direct.values - expanded.values)) < 1e-12 * max(1.0, scale)


def test_leibniz_constant_collapses(grid):
    g = bump_family(grid, 17, 1)[0]
    c = ScalarField(grid, np.full(grid.shape, 2.5))
    exp = leibniz_expand(c, g, (0, 1), 3)
    direct = 2.5 * difference(g, (0, 1), 3).values
    assert np.max(np.abs(exp.values - direct)) < 1e-12


def test_fractional_seminorm_zero_and_errors(grid):
    z = ScalarField(grid, np.zeros(grid.shape))
    assert fractional_integral_seminorm(z, 0.5) == 0.0
    with pytest.raises(ValueError, match="noninteger"):
        fractional_integral_seminorm(z, 1.0)
    with pytest.raises(ValueError):
        fractional_integral_seminorm(z, -0.5)


def _reference_shell_sum(f, s, p, q):
    """The shell sum of the difference seminorms as a loop over
    ``lp_norm(difference(f, v, l), p)``, with the same shells."""
    ell = int(math.floor(s)) + 1
    grid = f.grid
    cell = grid.spacing ** grid.dim
    total, per_shell = 0.0, []
    for _, _, vecs, full in _lattice_shells(grid):
        acc = 0.0
        for v in vecs:
            dist = math.sqrt(float(np.sum((v * grid.spacing) ** 2)))
            acc += cell * lp_norm(difference(f, v, ell), p) ** q / dist ** (grid.dim + s * q)
        acc *= full / len(vecs)
        per_shell.append(acc)
        total += acc
    return total ** (1.0 / q), per_shell


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 32), (3, 16)])
@pytest.mark.parametrize("s", [0.5, 1.5])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_shell_sum_matches_difference_loop(dim, n, s, p):
    f = bump_family(TorusGrid(dim, 12.0, n), 21, 1)[0]
    val, shells = fractional_integral_seminorm(f, s, p, return_shells=True)
    ref, ref_shells = _reference_shell_sum(f, s, p, p)
    assert val == pytest.approx(ref, rel=1e-13)
    assert [e["contribution"] for e in shells] == pytest.approx(ref_shells, rel=1e-13)
    besov = besov_norm(f, s, p, 2.0) - lp_norm(f, p)
    assert besov == pytest.approx(_reference_shell_sum(f, s, p, 2.0)[0], rel=1e-13)


def _unpaired_shell_sum(f, s, p, q):
    """The shell sum in the norm layer's arithmetic, with the term of every
    sampled vector computed, none shared by a ``+-h`` pair."""
    ell = int(math.floor(s)) + 1
    grid = f.grid
    cell = grid.spacing ** grid.dim
    total = 0.0
    for _, _, vecs, full in _lattice_shells(grid):
        acc = 0.0
        for v in vecs:
            dist = math.sqrt(float(np.sum((v * grid.spacing) ** 2)))
            prev = f if ell == 1 else difference(f, v, ell - 1)
            d = lattice_shift(prev, v).values - prev.values
            power_sum = float(np.vdot(d, d)) if p == 2.0 else float(np.sum(np.abs(d) ** p))
            acc += cell * (cell * power_sum) ** (q / p) / dist ** (grid.dim + s * q)
        acc *= full / len(vecs)
        total += acc
    return total ** (1.0 / q)


@pytest.mark.parametrize("s, p, q, shifts", [(0.5, 2.0, 2.0, 138), (1.5, 2.0, 2.0, 276),
                                             (0.5, 3.0, 2.0, 138)])
def test_seminorms_share_each_plus_minus_pair(monkeypatch, s, p, q, shifts):
    f = bump_family(TorusGrid(2, 12.0, 64), 21, 1)[0]
    vecs = [tuple(v.tolist()) for _, _, picked, _ in _lattice_shells(f.grid) for v in picked]
    assert len(vecs) == 240
    assert sum((-a, -b) in set(vecs) for a, b in vecs) == 204  # 102 pairs: 138 terms
    ref = _unpaired_shell_sum(f, s, p, q)
    calls = []
    shift = norms.lattice_shift
    monkeypatch.setattr(norms, "lattice_shift", lambda g, j: calls.append(j) or shift(g, j))
    if p == q:
        got, want = fractional_integral_seminorm(f, s, p), ref
    else:
        got, want = besov_norm(f, s, p, q), lp_norm(f, p) + ref
    assert len(calls) == shifts  # one shift per term and difference order
    assert got == pytest.approx(want, rel=1e-14, abs=0)


@pytest.mark.parametrize("s", [0.5, 1.5])
def test_seminorms_refuse_overflowing_differences(grid, s):
    i, j = np.indices(grid.shape)
    f = ScalarField(grid, np.where((i + j) % 2, -1e308, 1e308))
    with pytest.raises(ValueError):
        fractional_integral_seminorm(f, s)
    with pytest.raises(ValueError):
        besov_norm(f, s, 3.0, 2.0)


def test_equivalence_ratio_window(gaussian, family):
    ratios = []
    for f in [gaussian] + family:
        i = fractional_integral_seminorm(f, 0.5)
        h = sobolev_norm(f, 0.5, True)
        ratios.append(i / h)
    assert max(ratios) < 10.0 and min(ratios) > 0.1
    assert max(ratios) / min(ratios) < 1.5  # tight family spread


def test_besov_reduces_to_l2_plus_seminorm(gaussian):
    b = besov_norm(gaussian, 0.5, 2, 2)
    i = fractional_integral_seminorm(gaussian, 0.5, 2)
    assert b == lp_norm(gaussian, 2) + i  # identical code path


def test_besov_s_scan_flags_nonmonotonicity(gaussian):
    # raw difference-kernel normalization: the s-dependence of the kernel
    # constant dominates on smooth unit-L2 data, so the measured scan
    # DECREASES in s on this family; the suite flags rather than assumes
    # monotonicity (frozen measured behavior)
    f = ScalarField(gaussian.grid, gaussian.values / lp_norm(gaussian, 2))
    vals = [besov_norm(f, s, 2, 2) for s in (0.3, 0.5, 0.7)]
    assert all(np.isfinite(v) and v > 0 for v in vals)
    monotone = vals[0] <= vals[1] <= vals[2]
    assert not monotone  # the flag this family raises


def test_rescale_identity_and_laws(gaussian):
    f1 = rescale(gaussian, 1.0)
    assert np.array_equal(f1.values, gaussian.values)
    f2 = rescale(gaussian, 2.0)
    # lam = 2 maps nodes to nodes: node k reads node 2k - n/2, and reads 0.0
    # where that leaves the box
    n = gaussian.grid.n
    src = 2 * np.arange(n) - n // 2
    inside = (src >= 0) & (src < n)
    gather = np.zeros(gaussian.grid.shape)
    gather[np.ix_(inside, inside)] = gaussian.values[np.ix_(src[inside], src[inside])]
    assert f2.values.tobytes() == gather.tobytes()
    assert abs(lp_norm(f2, 2) / lp_norm(gaussian, 2) - 0.5) < 1e-3
    r = sobolev_norm(f2, 0.5, True) / sobolev_norm(gaussian, 0.5, True)
    assert abs(r - 2.0 ** (0.5 - 1.0)) < 1e-2


def test_norms_do_not_depend_on_blas_threads():
    # the p = 2 seminorm term and the half-spectrum norms reduce in one fixed
    # order, so a 512^2 field gives the same bits under one and two BLAS threads
    code = ("from wavegap.field import TorusGrid; "
            "from wavegap.norms import bump_family, fractional_integral_seminorm, sobolev_norm; "
            "f = bump_family(TorusGrid(2, 16.0, 512), 5)[0]; "
            "print(sobolev_norm(f, 0.5, True).hex(), fractional_integral_seminorm(f, 0.5).hex())")
    src = str(Path(norms.__file__).resolve().parents[1])
    outs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           timeout=120, check=True,
                           env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
                           ).stdout for threads in ("1", "2")]
    assert outs[0] == outs[1] and len(outs[0].split()) == 2


def test_homogeneous_shift_invariance(family):
    f = family[0]
    shifted = lattice_shift(f, (5, -9))
    a = sobolev_norm(f, 0.5, True)
    b = sobolev_norm(shifted, 0.5, True)
    assert abs(a - b) < 1e-12 * a


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_triangle_inequality(grid, seed):
    f, g = bump_family(grid, 100 + seed, 2)
    for norm in (lambda h: lp_norm(h, 2), lambda h: sobolev_norm(h, 0.5),
                 lambda h: sobolev_norm(h, 0.5, True)):
        assert norm(f + g) <= norm(f) + norm(g) + 1e-10 * (norm(f) + norm(g))


# every dimension's rfftn half spectrum: its column 0 and Nyquist column
# count once, the columns between twice
HALF_SPECTRUM_GRIDS = [(1, 256), (2, 64), (3, 16)]


@pytest.mark.parametrize("dim, n", HALF_SPECTRUM_GRIDS)
def test_sobolev_norms_share_one_spectrum(dim, n, full_spectrum_norm):
    g = TorusGrid(dim, 12.0, n)
    # seeded noise on the smooth field puts power up to the Nyquist column
    noise = 0.01 * np.random.default_rng(5).standard_normal(g.shape)
    f = remove_lattice_mean(ScalarField(g, bump_family(g, 5, 1)[0].values + noise))
    orders = [(0.5, False), (1.0, True), (-0.5, True), (0.0, True), (0.0, False),
              (1.5, False), (-1.0, False), (0.75, True)]
    got = _sobolev_norms(f, orders)
    assert got == [sobolev_norm(f, s, h) for s, h in orders]
    for val, (s, h) in zip(got, orders):
        assert val == pytest.approx(full_spectrum_norm(f, s, h), rel=1e-13, abs=0)


@pytest.mark.parametrize("dim, n", HALF_SPECTRUM_GRIDS)
def test_sobolev_norms_refuse_zero_mode_at_negative_homogeneous_order(dim, n,
                                                                      full_spectrum_norm):
    g = TorusGrid(dim, 12.0, n)
    f = ScalarField(g, bump_family(g, 5, 1)[0].values + 0.1)
    # the zero mode, column 0's only entry in 1-d, counts once where it is weighted
    for s, h in [(0.5, False), (0.0, True), (0.5, True)]:
        assert _sobolev_norms(f, [(s, h)])[0] == pytest.approx(
            full_spectrum_norm(f, s, h), rel=1e-13, abs=0)
    with pytest.raises(ValueError, match="zero mode"):
        _sobolev_norms(f, [(0.5, False), (-0.5, True)])


def _reference_bump_family(grid, seed, count, n_bumps=10):
    """Full-grid Gaussian sums with the family's draw order: width,
    rejection-sampled center, amplitude, per bump."""
    rng = np.random.default_rng(seed)
    coords = grid.coords()
    out = []
    for _ in range(count):
        vals = np.zeros(grid.shape)
        for _ in range(n_bumps):
            width = rng.uniform(0.5, 2.0)
            while True:
                c = rng.uniform(-6.0, 6.0, size=grid.dim)
                if np.sum(c * c) <= 36.0:
                    break
            amp = rng.uniform(-1.0, 1.0)
            r2 = sum((x - ci) ** 2 for x, ci in zip(coords, c))
            vals += amp * np.exp(-r2 / (2.0 * width ** 2))
        out.append(vals)
    return out


@pytest.mark.parametrize("dim, n", [(1, 256), (2, 128), (3, 32)])
def test_separable_bump_family_matches_full_grid_sums(dim, n):
    g = TorusGrid(dim, 12.0, n)
    fields = bump_family(g, 11, 3)
    for f, ref in zip(fields, _reference_bump_family(g, 11, 3), strict=True):
        assert f.values.shape == g.shape and not f.values.flags.writeable
        assert np.max(np.abs(f.values - ref)) <= 1e-13 * np.max(np.abs(ref))
