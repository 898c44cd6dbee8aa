import json
from pathlib import Path

import numpy as np
import pytest

from wavegap import construct, experiment, radial
from wavegap.experiment import (GapRunConfig, _pair_measures, _pair_spectra,
                                appendix_ratio_suite,
                                certified_radial_run, report_verdict, scaling_suite,
                                gap_run)
from wavegap.field import ScalarField, TorusGrid
from wavegap.geometry import geodesic_constants
from wavegap.norms import bump_family, lp_norm, sobolev_norm


@pytest.fixture(scope="module")
def short_cfg():
    return GapRunConfig(deltas=(0.3, 0.1))


@pytest.fixture(scope="module")
def sphere_report(short_cfg):
    return gap_run(short_cfg)


@pytest.fixture(scope="module")
def flat_report():
    return gap_run(GapRunConfig(deltas=(0.3, 0.1), target="flat_line",
                                         negative_control=True))


def test_gap_run_rows_structure(sphere_report):
    assert len(sphere_report.rows) == 2
    for row in sphere_report.rows:
        assert row["gap"] > 0 and row["data_distance"] > 0
        assert 0 < row["t_j"] <= 1.0
        assert row["R"] >= 1.0
        # the bump sits where the normalized solution exceeds the half level
        assert row["extras"]["z_core_min"] >= 0.5 - 1e-9
        assert row["extras"]["z_core_max"] <= 1.0 + 1e-9


def test_gap_run_data_distance_decreases(sphere_report):
    dd = [r["data_distance"] for r in sphere_report.rows]
    assert dd[1] < dd[0]


def test_decomposition_inequality(sphere_report):
    for row in sphere_report.rows:
        t = row["terms"]
        lower = t["main"] - t["commutator"] - t["energy"]
        assert row["gap"] >= lower - 1e-10 * max(1.0, abs(lower))


def test_energy_term_controlled_by_data_distance(sphere_report):
    for row in sphere_report.rows:
        assert row["terms"]["energy"] <= row["data_distance"] * (1.0 + 1e-10)


def test_flat_target_needs_flag():
    with pytest.raises(ValueError, match="negative_control"):
        gap_run(GapRunConfig(deltas=(0.3,), target="flat_line"))


def test_flat_control_gap_tracks_data(flat_report):
    for row in flat_report.rows:
        assert row["gap"] <= 1.01 * row["data_distance"]
        assert row["terms"]["main"] == 0.0


def test_sphere_beats_flat_pointwise(sphere_report, flat_report):
    # the curvature term only adds on top of the linear gap
    for rs, rf in zip(sphere_report.rows, flat_report.rows):
        assert rs["gap"] >= rf["gap"] - 1e-12


def test_mu_zero_degenerates(short_cfg):
    rep = gap_run(GapRunConfig(deltas=(0.3,), mu=0.0))
    row = rep.rows[0]
    assert row["data_distance"] == 0.0
    assert abs(row["gap"]) < 1e-15


def test_admissibility_rejection():
    with pytest.raises(ValueError, match="admissibility"):
        gap_run(GapRunConfig(deltas=(0.3,), lam=5.0))


def test_verdict_pure_function(sphere_report):
    # recomputing the verdict from serialized rows reproduces it bit-exactly
    rows = json.loads(json.dumps(sphere_report.rows))
    verdict, detail = report_verdict(rows)
    assert verdict == sphere_report.verdict
    assert detail == sphere_report.verdict_detail


def test_certified_run_certificate(short_cfg):
    rep = certified_radial_run(short_cfg)
    assert rep.verdict == "pass"
    for row in rep.rows:
        cert = row["certificate"]
        assert cert["holds"] and cert["lhs"] >= 0.95 * cert["c3"]
        # window invariant: 1/2 < z < 2 on the certified inner ball at unit time
        assert row["extras"]["z_window_min"] > 0.5 - 1e-9
        assert row["extras"]["z_window_max"] < 2.0
    c = rep.constants
    assert abs(c["mu"] - c["c0"] / 2.0) < 1e-12
    assert abs(c["lam0"] - 0.5 / (8.0 * c["chi_l2"])) < 1e-12
    assert abs(c["c3"] - (c["c0"] * c["c1"] * c["lam0"] * c["chi_l2"]) ** 2 / 16.0) < 1e-15


def test_certified_run_rejects_mu_override():
    with pytest.raises(ValueError, match="pinned"):
        certified_radial_run(GapRunConfig(deltas=(0.3,), mu=0.1))
    with pytest.raises(ValueError, match="curved"):
        certified_radial_run(GapRunConfig(deltas=(0.3,), target="flat_line",
                                      negative_control=True))


@pytest.fixture(scope="module")
def scaling_report():
    return scaling_suite()  # default grid resolves the sharpest bump in the sweep


def test_scaling_suite_slopes(scaling_report):
    rep = scaling_report
    for s, fit in rep["slopes"].items():
        assert fit["error"] < 0.05
    assert rep["sup_constant_spread"] < 0.15
    for row in rep["rows"]:
        assert row["energy_drift"] < 1e-12


def test_scaling_suite_matches_recorded_values(scaling_report):
    # recorded by running scaling_suite() at commit 0f3d69b, where the pair
    # and value norms of each row took their own transforms through
    # wave.energy and sobolev_norm; the arithmetic per norm is unchanged,
    # so the result is compared bit for bit
    recorded = json.loads((Path(__file__).parent / "scaling_suite_recorded.json").read_text())
    assert json.loads(json.dumps(scaling_report)) == recorded


def test_gap_run_computes_geodesic_constants_once(monkeypatch):
    calls = []

    def counting(curve):
        calls.append(curve)
        return geodesic_constants(curve)

    monkeypatch.setattr(experiment, "geodesic_constants", counting)
    gap_run(GapRunConfig(deltas=(0.3, 0.1)))
    assert len(calls) == 1


def test_report_is_identical_on_one_thread(monkeypatch, sphere_report):
    # the fixture ran the engine at the host's width; here every ray table
    # and strip scan is rebuilt on one thread (fresh caches)
    monkeypatch.setattr(construct, "_SHELL_WAVE_CACHE", {})
    monkeypatch.setattr(construct, "_STRIP_SCAN_CACHE", {})
    monkeypatch.setattr(radial, "_cpus", lambda: 1)
    rep = gap_run(GapRunConfig(deltas=(0.3, 0.1)))
    assert rep.config == sphere_report.config
    assert rep.rows == sphere_report.rows


def test_product_ratios_degenerate_pair():
    g = TorusGrid(2, 16.0, 128)
    f = bump_family(g, 31, 1)[0]
    zero = ScalarField(g, np.zeros(g.shape))
    assert _pair_measures(f, zero, 0.5, 0.75)[0] is None
    assert _pair_measures(zero, f, 0.5, 0.75)[0] is None
    r = _pair_measures(f, f, 0.5, 0.75)[0]
    assert r is not None and np.isfinite(r["multest"]) and np.isfinite(r["multest2"])


def _reference_pair_measures(f, g, s, lam):
    """Product ratios and feasibility entry of a pair, each norm from its
    own transform of a field formed in real space."""
    n = f.grid.dim
    num = sobolev_norm(f * g, s)
    f_s = sobolev_norm(f, s)
    g_sup = lp_norm(g, "inf")
    ratios = {"multest": num / (f_s * (g_sup + sobolev_norm(g, n / 2.0))),
              "multest2": num / (sobolev_norm(f, n / 2.0 + s - lam) * sobolev_norm(g, lam))}
    lift = 2.0 * g_sup + 1.0
    g_plat = ScalarField(f.grid, g.values + lift)
    support = np.abs(f.values) > 1e-12 * lp_norm(f, "inf")
    feas = {"c1": float(np.min(np.abs(g_plat.values[support]))),
            "lhs": sobolev_norm(f * g_plat, s, homogeneous=True),
            "f_dot": sobolev_norm(f, s, homogeneous=True),
            "denom": f_s * sobolev_norm(g_plat, n / 2.0)}
    return ratios, feas


@pytest.mark.parametrize("scale", [1.0, 1e-9, 1e6])
def test_pair_measures_match_separate_transforms(scale):
    # the second field is rescaled too, so the split must keep each
    # spectrum accurate relative to its own size
    g = TorusGrid(2, 16.0, 128)
    f, h = bump_family(g, 41, 2)
    h = h * scale
    got = _pair_measures(f, h, 0.5, 0.75)
    ref = _reference_pair_measures(f, h, 0.5, 0.75)
    assert got[0] == pytest.approx(ref[0], rel=1e-13)
    assert got[1] == pytest.approx(ref[1], rel=1e-13)


@pytest.mark.parametrize("dim, n", [(1, 256), (2, 64), (3, 16)])
def test_pair_spectra_split_matches_separate_transforms(dim, n):
    g = TorusGrid(dim, 12.0, n)
    f, h = bump_family(g, 43, 2)
    F, H = _pair_spectra(f, h, lp_norm(f, "inf"), lp_norm(h, "inf"))
    Z = np.fft.fftn(f.values + 1j * h.values)
    tol = 1e-13 * np.max(np.abs(Z))
    assert np.max(np.abs(F - np.fft.fftn(f.values))) <= tol
    assert np.max(np.abs(H - np.fft.fftn(h.values))) <= tol


def test_appendix_suite_smoke():
    rep = appendix_ratio_suite(seed=3, grid=TorusGrid(2, 16.0, 128), n_pairs=8)
    assert np.isfinite(rep["multest_max"]) and rep["multest_max"] > 0
    assert np.isfinite(rep["multest2_max"])
    # feasibility region nonempty: finite c' for every probed c
    assert all(np.isfinite(v) for v in rep["below2_cprime_by_c"].values())
    assert rep["drift"]["multest"] < 0.5  # coarse smoke bound; tight in acceptance
    for level, val in rep["moser_max_by_level"].items():
        assert np.isfinite(val) and val > 0


def test_appendix_suite_matches_recorded_values():
    # recorded with appendix_ratio_suite at commit 48dd2ef, where each norm
    # took its own transform and the family was summed bump by bump on the
    # full grid; the refinement drifts are differences of nearly equal
    # maxima, so the refined maxima are compared instead
    rep = appendix_ratio_suite(seed=7, grid=TorusGrid(2, 16.0, 64), n_pairs=10)
    recorded = {
        "multest_max": 0.07625903518833364,
        "multest2_max": 0.09187700574949824,
        "multest_mean": 0.05696589309325477,
        "multest2_mean": 0.069213937373472,
        "moser_0.5": 0.9839924810217965,
        "moser_1.0": 0.9393524896461548,
        "refined_multest_max": 0.07625882728215955,
        "refined_multest2_max": 0.09187666440124287,
    }
    got = {k: rep[k] for k in ("multest_max", "multest2_max", "multest_mean",
                               "multest2_mean")}
    got.update({f"moser_{k}": v for k, v in rep["moser_max_by_level"].items()})
    got.update({f"refined_{k}": v for k, v in rep["refined"].items()})
    assert got == pytest.approx(recorded, rel=1e-12)
    assert rep["below2_cprime_by_c"] == {"0.25": 0.0, "0.5": 0.0, "1.0": 0.0}
