"""Acceptance gate: every criterion runs at its stated tolerance and prints
one verdict line.

Two sub-clauses of criterion 6 are asserted exactly as stated but marked as
expected failures (strict): over the pinned concentration list the measured
data-distance ratio has a mathematical floor above the stated bound, and the
curvature term cannot dominate the linear term at float-representable
concentrations.  The quantitative analysis lives in the "Decisions"
section of README.md; the assertions stay faithful so any change in behavior
is flagged.
"""

import math
import time

import numpy as np
import pytest

from wavegap.construct import (PLANAR_POINT_FACTOR, annulus_l2sq_radial,
                               annulus_point_value_radial, delta_family,
                               focusing_sequence, psi_exact, psi_smooth)
from wavegap.experiment import (GapRunConfig, appendix_ratio_suite,
                                certified_radial_run, scaling_suite,
                                gap_run)
from wavegap.field import RadialProfile, TorusGrid, radial_embed, sample
from wavegap.norms import (bump_family, difference, fractional_integral_seminorm,
                           leibniz_expand, sobolev_norm)
from wavegap.radial import l2_radial_measure
from wavegap.wave import (WaveState, energy, kernel_solution_2d,
                          kirchhoff_3d_origin, radial_even_representation,
                          spectral_propagate)


def report(num, label, ok, detail=""):
    print(f"\n[criterion {num}] {label}: {'PASS' if ok else 'FAIL'} {detail}")


@pytest.fixture(scope="module")
def flagship():
    t0 = time.time()
    rep = gap_run(GapRunConfig())
    return rep, time.time() - t0


@pytest.fixture(scope="module")
def flat_control():
    return gap_run(GapRunConfig(target="flat_line", negative_control=True))


def test_criterion_1_norm_oracle():
    t0 = time.time()
    worst = 0.0
    for delta in (0.3, 0.1, 0.03):
        fam = delta_family(delta)
        prof = psi_exact(fam)
        edges = np.sqrt(1.0 - np.geomspace(fam.delta ** 3, fam.delta ** 2, 9))[::-1]
        quad = 2.0 * l2_radial_measure(prof.exact, edges, order=48) ** 2
        worst = max(worst, abs(quad / annulus_l2sq_radial(fam) - 1.0))
    elapsed = time.time() - t0
    report(1, "closed-form norm oracle", worst < 1e-6,
           f"(worst rel err {worst:.2e}, {elapsed:.1f}s)")
    assert worst < 1e-6
    assert elapsed < 5.0


def test_criterion_2_point_value_oracle():
    t0 = time.time()
    fam = delta_family(0.1)
    prof = psi_exact(fam)
    val = kernel_solution_2d(prof.exact, 1.0, 0.0, breakpoints=(fam.p, fam.q))
    # the closed form is stated in the radial measure r dr; the planar
    # solution carries the angular factor 2*pi (exact identity, see the
    # numerical conventions in README.md)
    radial_val = val / PLANAR_POINT_FACTOR
    closed = annulus_point_value_radial(fam)
    assert abs(closed - math.log(1.5) / (4 * math.pi)) < 1e-15
    ok1 = abs(radial_val - closed) < 1e-4
    # smooth variant lands inside the closed-form bracket
    sprof = psi_smooth(fam)
    sval = kernel_solution_2d(sprof.exact, 1.0, 0.0,
                              breakpoints=(fam.p1, fam.p, fam.q, fam.q1))
    lo, hi = closed, annulus_point_value_radial(fam, outer=True)
    ok2 = lo <= sval / PLANAR_POINT_FACTOR <= hi
    elapsed = time.time() - t0
    report(2, "closed-form point-value oracle", ok1 and ok2,
           f"(kernel/2pi = {radial_val:.7f} vs {closed:.7f}; "
           f"smooth {sval / PLANAR_POINT_FACTOR:.5f} in [{lo:.5f},{hi:.5f}]; {elapsed:.1f}s)")
    assert ok1 and ok2
    assert elapsed < 30.0


def test_criterion_3_propagator_cross_validation():
    t0 = time.time()
    grid = TorusGrid(2, 16.0, 512)
    worst = 0.0
    for a, b in ((1.0, 0.0), (0.6, 0.0), (1.4, 0.3), (0.9, -0.2), (1.1, 0.15)):
        prof = RadialProfile.from_callable(
            lambda r, a=a, b=b: (1.0 + b * np.asarray(r) ** 2) * np.exp(-a * np.asarray(r) ** 2),
            r_max=40.0)
        ut0 = radial_embed(prof, grid)
        st = spectral_propagate(WaveState(0.0 * ut0, ut0, 0.0), 1.0)
        spectral = st.u.values[grid.n // 2, grid.n // 2]
        kern = kernel_solution_2d(prof, 1.0)
        moment = radial_even_representation(prof, 2)
        worst = max(worst, abs(kern - spectral), abs(moment - spectral),
                    abs(kern - moment))
    elapsed = time.time() - t0
    report(3, "propagator cross-validation (5 smooth profiles)", worst < 1e-3,
           f"(worst disagreement {worst:.2e}, {elapsed:.1f}s)")
    assert worst < 1e-3
    assert elapsed < 120.0


def test_criterion_4_conservation_and_reversibility():
    grid = TorusGrid(2, 16.0, 256)
    from wavegap.field import remove_lattice_mean
    ut0 = remove_lattice_mean(sample(
        lambda x, y: (1 - (x ** 2 + y ** 2) / 2.0) * np.exp(-(x ** 2 + y ** 2) / 2.0), grid))
    st = WaveState(0.0 * ut0, ut0, 0.0)
    drift = 0.0
    for s in (0.5, 1.0):
        e0 = energy(st, s)
        for t in (0.25, 0.5, 0.75, 1.0):
            drift = max(drift, abs(energy(spectral_propagate(st, t), s) / e0 - 1.0))
    there = spectral_propagate(st, 1.0)
    back = spectral_propagate(there, 0.0)
    rev = max(np.max(np.abs(back.u.values - st.u.values)),
              np.max(np.abs(back.ut.values - st.ut.values)))
    report(4, "conservation and reversibility", drift < 1e-12 and rev < 1e-12,
           f"(energy drift {drift:.2e}, roundtrip {rev:.2e})")
    assert drift < 1e-12
    assert rev < 1e-12


def test_criterion_5_rescaling_laws():
    rep = scaling_suite()
    errs = {s: fit["error"] for s, fit in rep["slopes"].items()}
    spread = rep["sup_constant_spread"]
    ok = all(e < 0.05 for e in errs.values()) and spread < 0.15
    report(5, "rescaling-law exponents", ok,
           f"(slope errors {errs}, sup-constant spread {spread:.3f})")
    assert all(e < 0.05 for e in errs.values())
    assert spread < 0.15
    # order n/2 pair depends on the amplitude ratio alone: exponent 0
    assert abs(rep["slopes"]["1.0"]["slope"]) < 0.05


def test_criterion_6a_data_distance_decrease_and_rate(flagship):
    rep, elapsed = flagship
    dd = [r["data_distance"] for r in rep.rows]
    deltas = [r["delta"] for r in rep.rows]
    strictly = all(b < a for a, b in zip(dd[:-1], dd[1:]))
    rate_devs = []
    for (a, b, da, db) in zip(dd[:-1], dd[1:], deltas[:-1], deltas[1:]):
        pure = math.sqrt(abs(math.log(da)) / abs(math.log(db)))
        rate_devs.append(abs((b / a) / pure - 1.0))
    ok = strictly and all(d < 0.2 for d in rate_devs)
    report(6, "gap run: strict decrease + log-rate within 20%", ok,
           f"(rate deviations {[f'{d:.3f}' for d in rate_devs]}, run {elapsed:.0f}s)")
    assert strictly
    assert all(d < 0.2 for d in rate_devs)
    assert elapsed < 900.0


@pytest.mark.xfail(strict=True, reason=(
    "final/initial data-distance over the pinned list has the mathematical "
    "floor sqrt(log 0.3 / log 0.01) = 0.511 > 0.5 even for exactly "
    "log-rate-decaying data; measured ~0.66 with the strip-max drift. "
    "See Decisions in README.md."))
def test_criterion_6b_halving_clause(flagship):
    rep, _ = flagship
    dd = [r["data_distance"] for r in rep.rows]
    ratio = dd[-1] / dd[0]
    report(6, "gap run: final <= 0.5 * initial [unattainable]", ratio <= 0.5,
           f"(measured {ratio:.3f}, floor 0.511)")
    assert ratio <= 0.5


def test_criterion_6c_gap_uniformity(flagship):
    rep, _ = flagship
    gaps = [r["gap"] for r in rep.rows]
    ok = min(gaps) >= 0.5 * gaps[0] > 0
    report(6, "gap run: gap_j >= 0.5 * gap_1 > 0", ok,
           f"(min/first = {min(gaps) / gaps[0]:.3f})")
    assert gaps[0] > 0
    assert min(gaps) >= 0.5 * gaps[0]


@pytest.mark.xfail(strict=True, reason=(
    "main >= 2*(commutator+energy) at the final element needs the energy "
    "term below the admissibility-capped curvature term, which requires "
    "|log delta| in the thousands (not float-representable); measured "
    "main/energy ~ 0.01. See Decisions in README.md."))
def test_criterion_6d_term_domination(flagship):
    rep, _ = flagship
    t = rep.rows[-1]["terms"]
    ok = t["main"] >= 2.0 * (t["commutator"] + t["energy"])
    report(6, "gap run: main term dominates at final j [unattainable]", ok,
           f"(main {t['main']:.4f} vs 2*(comm+energy) {2 * (t['commutator'] + t['energy']):.4f})")
    assert ok


def test_criterion_6_decomposition_consistency(flagship):
    rep, _ = flagship
    worst = -math.inf
    for row in rep.rows:
        t = row["terms"]
        lower = t["main"] - t["commutator"] - t["energy"]
        worst = max(worst, lower - row["gap"])
    report(6, "gap run: gap >= main - commutator - energy", worst <= 1e-10,
           f"(max violation {worst:.2e})")
    assert worst <= 1e-10


def test_criterion_7_negative_control(flat_control):
    rep = flat_control
    ratios = [r["gap"] / r["data_distance"] for r in rep.rows]
    ok = all(r <= 1.01 for r in ratios)
    report(7, "negative control: flat-target gap tracks the data", ok,
           f"(gap/dd = {[f'{r:.4f}' for r in ratios]})")
    assert ok


def test_criterion_8_certified_inequality():
    t0 = time.time()
    rep = certified_radial_run(GapRunConfig())
    elapsed = time.time() - t0
    margins = [r["certificate"]["lhs"] / r["certificate"]["c3"] for r in rep.rows]
    ok = all(r["certificate"]["lhs"] >= 0.95 * r["certificate"]["c3"] for r in rep.rows)
    # as the data norm decays the gap term alone carries the certificate
    last = rep.rows[-1]
    c0 = rep.constants["c0"]
    gap_sq = last["gap"] ** 2
    residual = rep.constants["c3"] - (c0 ** 2 / 4.0) * last["extras"]["phi_l2"] ** 2
    report(8, "certified inequality at unit time", ok,
           f"(margins {[f'{m:.0f}' for m in margins]}, gap^2 {gap_sq:.2e} vs "
           f"c3 - data term {residual:.2e}, {elapsed:.0f}s)")
    assert ok
    assert gap_sq >= residual  # gap term alone exceeds what the data term leaves
    assert elapsed < 600.0


def test_criterion_9_appendix_suites():
    grid = TorusGrid(2, 16.0, 256)
    # discrete Leibniz rule at roundoff
    f, g = bump_family(grid, 41, 2)
    direct = difference(f * g, (1, 2), 3)
    expanded = leibniz_expand(f, g, (1, 2), 3)
    scale = np.max(np.abs(direct.values)) + 1e-300
    leib = np.max(np.abs(direct.values - expanded.values)) / max(scale, 1.0)
    assert leib < 1e-12
    # equivalence window of the difference seminorm against the spectral norm
    t0 = time.time()
    cs = {}
    for n in (256, 512):
        gg = TorusGrid(2, 16.0, n)
        ratios = []
        for h in bump_family(gg, 77, 50):
            ratios.append(fractional_integral_seminorm(h, 0.5)
                          / sobolev_norm(h, 0.5, True))
        cs[n] = max(max(ratios), 1.0 / min(ratios))
    stable = abs(cs[512] / cs[256] - 1.0)
    assert cs[256] < 10.0
    assert stable < 0.15
    # product/composition ratio maxima stable under refinement
    rep = appendix_ratio_suite(seed=7, grid=grid, n_pairs=100)
    drift = max(rep["drift"].values())
    assert np.isfinite(rep["multest_max"]) and np.isfinite(rep["multest2_max"])
    assert drift < 0.15
    assert all(np.isfinite(v) for v in rep["below2_cprime_by_c"].values())
    report(9, "appendix inequality suites", True,
           f"(leibniz {leib:.1e}; C {cs[256]:.2f} drift {stable:.3f}; "
           f"ratio drift {drift:.3f}; feasibility region nonempty; "
           f"{time.time() - t0:.0f}s)")


def test_criterion_10_odd_dimension_branch():
    data = focusing_sequence(3, [0, 1, 2, 3, 4])
    kirch = [kirchhoff_3d_origin(RadialProfile(2.0, d.phi.samples, 3, exact=d.phi.exact))
             for d in data]
    norms = [d.norm for d in data]
    drops = [1.0 - b / a for a, b in zip(norms[:-1], norms[1:])]
    ok = all(k == 1.0 for k in kirch) and all(d >= 0.25 for d in drops)
    report(10, "odd-dimension branch", ok,
           f"(focus values {kirch}, norm drops {[f'{100 * d:.1f}%' for d in drops]})")
    assert all(k == 1.0 for k in kirch)
    assert all(d >= 0.25 for d in drops)


def test_negative_control_separation(flagship, flat_control):
    # the curved target's gap/data ratio sits above the flat one's at every
    # element and the excess grows along the sequence
    rep, _ = flagship
    rs = [r["gap"] / r["data_distance"] for r in rep.rows]
    rf = [r["gap"] / r["data_distance"] for r in flat_control.rows]
    excess = [a - b for a, b in zip(rs, rf)]
    report("7b", "curved-vs-flat separation grows along the sequence",
           all(e > 0 for e in excess) and excess[-1] > excess[0],
           f"(excess {[f'{e:.2e}' for e in excess]})")
    assert all(e > 0 for e in excess)
    assert excess[-1] > excess[0]
