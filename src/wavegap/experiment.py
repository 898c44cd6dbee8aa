"""Experiment drivers: the data-distance vs solution-gap runs on geodesic
targets, the radial certified-inequality run, and the measured-constant
suites for the multiplicative inequalities and the rescaling laws.

All planar-family quantities are computed through the radial reduction
engine (the annulus data concentrate far below any uniform grid's
resolution); the torus grid is used where it is adequate: reference-constant
measurement, the rescaling sweeps, and cross-validation on smooth data.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from .construct import (NormalizedZ, choose_R, chi_mean_zero, strip_normalize,
                        focusing_sequence, rescaled_family)
from .field import ScalarField, TorusGrid
from .geometry import GeodesicCurve, geodesic_constants, make_preset, moser_ratio
from .norms import _bump_fields, _sobolev_norms, _spectrum_norms, bump_family, lp_norm
from .radial import gauss_panel_nodes
from .wave import energy, spectral_propagate

__all__ = [
    "GapRunConfig",
    "GapReport",
    "report_verdict",
    "gap_run",
    "certified_radial_run",
    "appendix_ratio_suite",
    "scaling_suite",
]

# verdict thresholds (report-level contract)
DECAY_RATIO_MAX = 0.1
GAP_RATIO_MIN = 0.5

# measured-constant suites: appendix orders s, lam; rescaling R, M/R, T, t_eval
_APPENDIX_S = 0.5
_APPENDIX_LAM = 0.75
_SCALING_R = (1.0, 2.0, 4.0, 8.0)
_SCALING_RATIO = 0.1
_SCALING_T = 1.0
_SCALING_T_EVAL = 0.5


@dataclass
class GapRunConfig:
    """Configuration of a data-distance vs solution-gap run.

    ``seed`` only labels the run in the manifest: gap and certified runs
    are deterministic and draw no random numbers.
    """

    target: str = "sphere_great_circle"
    target_params: dict = dc_field(default_factory=dict)
    deltas: tuple = (0.3, 0.1, 0.03, 0.01)
    lam: float = 0.1            # bump amplitude per concentration: M_j = lam * R_j
    mu: float | None = None     # datum perturbation size; default min(0.1, c0/2)
    r0: float = 0.5             # data-neighbourhood radius
    grid_n: int = 512
    grid_l: float = 16.0
    seed: int = 0
    negative_control: bool = False

    def curve(self) -> GeodesicCurve:
        return make_preset(self.target, **self.target_params)


@dataclass
class GapReport:
    config: dict
    rows: list
    constants: dict
    verdict: str
    verdict_detail: dict


def report_verdict(rows) -> tuple:
    """Pure predicate on the recorded rows: data distances strictly
    decreasing with final/initial <= 0.1, and min gap >= 0.5 * first gap > 0.
    Returns (verdict string, detail dict); recomputable bit-exactly from a
    saved report."""
    dd = [r["data_distance"] for r in rows]
    gaps = [r["gap"] for r in rows]
    strictly = all(b < a for a, b in zip(dd[:-1], dd[1:]))
    decay = dd[-1] / dd[0] if dd[0] > 0 else math.inf
    gap_ratio = min(gaps) / gaps[0] if gaps[0] > 0 else 0.0
    ok = strictly and decay <= DECAY_RATIO_MAX and gap_ratio >= GAP_RATIO_MIN and gaps[0] > 0
    detail = {"strictly_decreasing": strictly, "decay_ratio": decay,
              "decay_ratio_max": DECAY_RATIO_MAX, "gap_ratio": gap_ratio,
              "gap_ratio_min": GAP_RATIO_MIN}
    return ("pass" if ok else "fail"), detail


def _gap_terms(curve, consts, chi, R, M, mu, nz: NormalizedZ):
    """Solution-derivative gap and its decomposition at the time t_j of the
    normalized solution z = ``nz``.

    With v(t_j) = 0, v_t(t_j) = M chi(R .), w = v + mu z the difference
    of composed time derivatives splits into the target-curvature term
    supported on the bump core and the globally supported linear term:

        D = [gamma'(0) - gamma'(mu z)] M chi(R .) - gamma'(mu z) mu dz/dt.

    Everything except |dz/dt|_{L2} localizes on the core; the global tail of
    the linear term is added in quadrature (it is orthogonal decomposition
    by support, so the assembled gap dominates the reported lower-bound
    terms by construction).
    """
    c0, c1, jc = consts
    # Gauss nodes on the support of the unit-scale bump (the gap integrals
    # localize there after rescaling y = R x)
    y, wy = gauss_panel_nodes(np.linspace(0.0, chi.support_radius, 17), 12)
    r_core = y / R
    z_core = nz.z_at(nz.t_j, r_core)
    dz_core = nz.dt_z_at(nz.t_j, r_core)
    dtz_l2_global = nz.dtz_l2_planar()
    chi_core = np.asarray(chi(y))
    s_core = mu * z_core

    gp0 = np.asarray(curve.gamma_p(0.0), dtype=float)
    gp = np.asarray(curve.gamma_p(s_core), dtype=float)       # (m, nodes)
    gpp0 = np.asarray(curve.gamma_pp(0.0), dtype=float)
    diff_gp = gp0[:, None] - gp                               # gamma'(0)-gamma'(mu z)

    two_pi = 2.0 * math.pi
    # |A|^2, A = diff_gp * M chi(Rx); measure 2 pi r dr = (2 pi / R^2) y dy
    a2_density = np.sum(diff_gp * diff_gp, axis=0) * chi_core ** 2
    A2 = (M / R) ** 2 * two_pi * float(np.sum(wy * a2_density * y))
    # <A, B>, B = gamma'(mu z) mu dz/dt
    dot = np.sum(diff_gp * gp, axis=0)
    cross = (M / R ** 2) * mu * two_pi * float(np.sum(wy * dot * dz_core * chi_core * y))
    # |B|^2 on the core and globally (|gamma'| = 1 pointwise)
    B2_core = (mu / R) ** 2 * two_pi * float(np.sum(wy * dz_core ** 2 * y))
    B2_global = mu ** 2 * dtz_l2_global ** 2
    tail = max(B2_global - B2_core, 0.0)
    gap = math.sqrt(max(A2 - 2.0 * cross + B2_core, 0.0) + tail)

    main = c1 * mu * (M / R) * math.sqrt(
        two_pi * float(np.sum(wy * (z_core * chi_core) ** 2 * y)))
    # curvature remainder in the distinguished component
    rem = (gp0[jc - 1] - gp[jc - 1] + gpp0[jc - 1] * s_core)
    comm = (M / R) * math.sqrt(two_pi * float(np.sum(wy * (rem * chi_core) ** 2 * y)))
    energy_term = mu * dtz_l2_global
    return {"gap": gap, "main": main, "commutator": comm, "energy": energy_term,
            "dtz_l2": dtz_l2_global, "b2_tail_clamped": bool(B2_global < B2_core),
            "z_core_min": float(np.min(z_core)), "z_core_max": float(np.max(z_core))}


def _gap_row(datum, curve, consts, chi, mu, lam):
    """Report row of one datum of the focusing sequence."""
    nz = strip_normalize(datum)
    R = choose_R(nz)
    M = lam * R
    terms = _gap_terms(curve, consts, chi, R, M, mu, nz)
    dd = mu * nz.datum_l2_planar()
    return {
        "delta": datum.delta, "t_j": nz.t_j, "m_j": nz.m_j, "R": R, "M": M,
        "data_distance": dd, "gap": terms["gap"],
        "terms": {"main": terms["main"], "commutator": terms["commutator"],
                  "energy": terms["energy"]},
        "extras": {"z_core_min": terms["z_core_min"],
                   "z_core_max": terms["z_core_max"],
                   "dtz_l2": terms["dtz_l2"],
                   "b2_tail_clamped": terms["b2_tail_clamped"],
                   "z_value_at_10": datum.z_value_at_10,
                   "sequence_norm": datum.norm},
    }


@functools.lru_cache(maxsize=None)
def _probe_constants(grid: TorusGrid) -> tuple:
    """``(kappa, init_constant, sup_constant)`` of the reference probe
    ``rescaled_family(chi_mean_zero(2), R=4, M=0.4, T=0.7)`` on ``grid``,
    measured once per grid; the probe's state is not kept."""
    ref = rescaled_family(chi_mean_zero(2), R=4.0, M=0.4, T=0.7, grid=grid)
    return ref.kappa, ref.init_constant, ref.sup_constant


def gap_run(cfg: GapRunConfig) -> GapReport:
    """The full data-distance vs gap pipeline over the concentration list.

    Per element: build the annulus datum, renormalize by the sampled strip
    maximum, choose the concentration radius from the half-level window,
    place the rescaled bump velocity at the max time, and record the
    composed-derivative gap with its lower-bound decomposition.
    """
    curve = cfg.curve()
    if curve.flat and not cfg.negative_control:
        raise ValueError("flat target violates the curvature assumption; "
                         "pass negative_control=True to run it as a control")
    if curve.flat:
        c0, c1, jc = math.inf, 0.0, 1
    else:
        c0, c1, jc = geodesic_constants(curve)
    mu = cfg.mu if cfg.mu is not None else min(0.1, c0 / 2.0)
    if not curve.flat and not (0.0 <= mu < c0 / 2.0 + 1e-15):
        raise ValueError(f"mu={mu} must lie in [0, c0/2={c0 / 2.0:.4f})")

    # one resolvable rescaled wave fixes the measured trace/sup constants
    # used by the admissibility checks
    chi = chi_mean_zero(2)
    kappa, init_constant, sup_constant = _probe_constants(TorusGrid(2, cfg.grid_l, cfg.grid_n))
    # data-size admissibility (measured constant per unit kappa, factor 4)
    c_meas = 4.0 * init_constant / kappa
    if not c_meas * kappa * cfg.lam < cfg.r0:
        raise ValueError(
            f"data-size admissibility failed: {c_meas:.3f}*{kappa:.3f}*{cfg.lam} "
            f">= r0={cfg.r0}")
    # range admissibility: the composed field stays in the curvature window
    if not curve.flat and not sup_constant * cfg.lam < c0 / 2.0:
        raise ValueError(f"range admissibility failed: {sup_constant:.3f}*{cfg.lam} "
                         f">= c0/2={c0 / 2.0:.4f}")

    data = focusing_sequence(2, cfg.deltas)  # refuses a list that is not decreasing
    rows = [_gap_row(datum, curve, (c0, c1, jc), chi, mu, cfg.lam) for datum in data]
    verdict, detail = report_verdict(rows)
    constants = {"c0": c0, "c1": c1, "component": jc, "mu": mu, "lam": cfg.lam,
                 "kappa": kappa, "r0": cfg.r0,
                 "init_constant": init_constant,
                 "sup_constant": sup_constant}
    return GapReport(asdict(cfg), rows, constants, verdict, detail)


def certified_radial_run(cfg: GapRunConfig) -> GapReport:
    """Certified-inequality run with purely radial data at unit time.

    The perturbation size is pinned to ``mu = c0/2`` and the bump amplitude
    to ``M/R = r0 / (8 |chi|_L2)``; the recorded certificate is

        gap^2 + (c0^2/4) |phi_j|_L2^2 >= 0.95 * c3,
        c3 = (1/16) (c0 c1 lam0 |chi|_L2)^2,

    checked row by row.
    """
    curve = cfg.curve()
    if curve.flat:
        raise ValueError("the certified run needs a curved target")
    c0, c1, jc = geodesic_constants(curve)
    if cfg.mu is not None and abs(cfg.mu - c0 / 2.0) > 1e-12:
        raise ValueError(f"mu is pinned to c0/2 = {c0 / 2:.6f} for this run")
    mu = c0 / 2.0

    chi = chi_mean_zero(2)
    kappa_l2 = chi.kappa  # planar L2 norm of the bump
    lam0 = cfg.r0 / (8.0 * kappa_l2)
    c3 = (c0 * c1 * lam0 * kappa_l2) ** 2 / 16.0

    data = focusing_sequence(2, cfg.deltas)
    rows = []
    for datum in data:
        # z_j = z / z(1, 0): the solution for the unit-focus datum phi_j
        nz = NormalizedZ(datum.wave, t_j=1.0, m_raw=datum.z_value_at_10, sign=1.0, m_j=1.0)
        # unit-time window 1/2 < z_j < 2 around the focus
        r_win = nz.window(0.5, 2.0)
        R = 1.0 / r_win
        M = lam0 * R
        terms = _gap_terms(curve, (c0, c1, jc), chi, R, M, mu, nz)
        # certified window: the inner half of the bump support (|x| <= 1/R)
        y_in = np.linspace(0.0, 1.0, 33)[1:]
        z_win = nz.z_at(1.0, y_in / R)
        phi_l2 = nz.datum_l2_planar()
        lhs = terms["gap"] ** 2 + (c0 ** 2 / 4.0) * phi_l2 ** 2
        rows.append({
            "delta": datum.delta, "t_j": 1.0, "R": R, "M": M,
            "data_distance": mu * phi_l2, "gap": terms["gap"],
            "terms": {"main": terms["main"], "commutator": terms["commutator"],
                      "energy": terms["energy"]},
            "certificate": {"lhs": lhs, "c3": c3, "margin": lhs / c3,
                            "holds": bool(lhs >= 0.95 * c3)},
            "extras": {"phi_l2": phi_l2, "window_radius": r_win,
                       "z_window_min": float(np.min(z_win)),
                       "z_window_max": float(np.max(z_win)),
                       "z_core_min": terms["z_core_min"],
                       "z_core_max": terms["z_core_max"]},
        })
    all_hold = all(r["certificate"]["holds"] for r in rows)
    constants = {"c0": c0, "c1": c1, "component": jc, "mu": mu, "lam0": lam0,
                 "chi_l2": kappa_l2, "c3": c3}
    verdict = "pass" if all_hold else "fail"
    detail = {"certificate_margins": [r["certificate"]["margin"] for r in rows]}
    return GapReport(asdict(cfg), rows, constants, verdict, detail)


# ---------------------------------------------------------------------------
# measured-constant suites
# ---------------------------------------------------------------------------

def _pair_measures(f: ScalarField, g: ScalarField, s: float, lam: float):
    """Product ratios and lower-bound feasibility entry of one pair, from
    three real-input transforms: the half spectra of ``f``, ``g`` and
    ``f g``.  The plateau ``g + lift`` and the product ``f (g + lift)`` are
    formed on the half spectra.  Both parts are ``None`` when ``f`` or
    ``g`` vanishes."""
    grid = f.grid
    n = grid.dim
    f_sup, g_sup = lp_norm(f, "inf"), lp_norm(g, "inf")
    if f_sup == 0.0 or g_sup == 0.0:
        return None, None
    F, G, FG = (np.fft.rfftn(v) for v in (f.values, g.values, f.values * g.values))
    f_s, f_high, f_dot = _spectrum_norms(
        grid, F, [(s, False), (n / 2.0 + s - lam, False), (s, True)])
    g_half, g_lam = _spectrum_norms(grid, G, [(n / 2.0, False), (lam, False)])
    num = _spectrum_norms(grid, FG, [(s, False)])[0]
    den1, den2 = f_s * (g_sup + g_half), f_high * g_lam
    ratios = (None if den1 <= 0.0 or den2 <= 0.0
              else {"multest": num / den1, "multest2": num / den2})
    # plateau pair for the lower bound: g + constant lift over supp f
    lift = 2.0 * g_sup + 1.0
    G.flat[0] += lift * grid.n ** n
    c1_bound = float(np.min(np.abs(g.values + lift)[np.abs(f.values) > 1e-12 * f_sup]))
    feas = {"c1": c1_bound, "lhs": _spectrum_norms(grid, FG + lift * F, [(s, True)])[0],
            "f_dot": f_dot, "denom": f_s * _spectrum_norms(grid, G, [(n / 2.0, False)])[0]}
    return ratios, feas


def appendix_ratio_suite(seed: int = 0, grid: TorusGrid | None = None,
                         n_pairs: int = 100) -> dict:
    """Ratio statistics for the product and lower-bound inequalities over the
    seeded smooth family, with grid-doubling stability of the maxima.

    Records: the product-estimate ratios against both majorants, the
    feasibility margin of the lower bound on plateau pairs, and the
    composition (Moser-type) ratios at fixed sup-norm levels.
    """
    grid = grid or TorusGrid(2, 16.0, 256)
    n = grid.dim

    def stats(g: TorusGrid, count):
        # pairs of consecutive fields, generated one pair at a time
        fields = _bump_fields(g, seed, 2 * count)
        mult, mult2 = [], []
        feas = []
        for f, h in zip(fields, fields):
            r, entry = _pair_measures(f, h, _APPENDIX_S, _APPENDIX_LAM)
            if r is not None:
                mult.append(r["multest"])
                mult2.append(r["multest2"])
            if entry is not None:
                feas.append(entry)
        return {"multest_max": max(mult), "multest2_max": max(mult2),
                "multest_mean": float(np.mean(mult)),
                "multest2_mean": float(np.mean(mult2)), "feas": feas}

    base = stats(grid, n_pairs)
    # lower-bound feasibility region: smallest c' making every pair satisfy
    # lhs >= c*C1*f_dot - c'*denom, for a grid of c values
    c_grid = [0.25, 0.5, 1.0]
    region = {}
    for c in c_grid:
        needed = [max(0.0, (c * e["c1"] * e["f_dot"] - e["lhs"]) / e["denom"])
                  for e in base["feas"]]
        region[str(c)] = max(needed)
    out = {k: base[k] for k in ("multest_max", "multest2_max", "multest_mean", "multest2_mean")}
    out.update(below2_cprime_by_c=region, pairs=n_pairs, s=_APPENDIX_S, lam=_APPENDIX_LAM)
    # composition ratios at fixed sup-norm levels
    family = bump_family(grid, seed + 1, 8)
    out["moser_max_by_level"] = {
        str(level): max(moser_ratio(np.sin, f * (level / max(lp_norm(f, "inf"), 1e-12)), n / 2.0)
                        for f in family)
        for level in (0.5, 1.0)}
    # same family on the doubled grid, so the maxima are comparable
    fine = TorusGrid(grid.dim, grid.half_width, grid.n * 2)
    ref = stats(fine, n_pairs)
    out["refined"] = {k: ref[k] for k in ("multest_max", "multest2_max")}
    out["drift"] = {k: abs(ref[f"{k}_max"] / base[f"{k}_max"] - 1.0)
                    for k in ("multest", "multest2")}
    return out


def scaling_suite() -> dict:
    """Rescaling-law sweep: slopes of log-norm against log-concentration.

    For fixed M/R the fitted exponent of the order-s homogeneous norm must be
    ``s - n/2``; at ``s = n/2`` the norms depend on M/R alone (exponent 0).
    Also records the sup-norm constants across the sweep and the time drift
    of the conserved energies.
    """
    grid = TorusGrid(2, 16.0, 512)
    n = grid.dim
    chi = chi_mean_zero(n)
    rows = []
    for R in _SCALING_R:
        fam = rescaled_family(chi, R=R, M=_SCALING_RATIO * R, T=_SCALING_T, grid=grid)
        st = spectral_propagate(fam.state0, _SCALING_T_EVAL)
        row = {"R": R, "sup_constant": fam.sup_constant,
               "init_constant": fam.init_constant}
        # the rescaling law bounds the order-s pair
        # |v(t)|_{Hdot^s} + |v_t(t)|_{Hdot^(s-1)} (wave.energy at order s);
        # the pair is exactly phase-free (conserved), while the value norm
        # alone carries a free-wave phase factor that has not averaged out at
        # small R -- both are recorded, the fit runs on the pair.  One
        # spectrum of each field serves both orders.
        orders = (0.5, 1.0)
        hdot = _sobolev_norms(st.u, [(s, True) for s in orders])
        hdot_t = _sobolev_norms(st.ut, [(s - 1.0, True) for s in orders])
        for s, a, b in zip(orders, hdot, hdot_t):
            row[f"pair_{s}"] = math.hypot(a, b)
            row[f"hdot_{s}"] = a
        e0 = energy(fam.state0, 1.0)
        row["energy_drift"] = max(abs(energy(spectral_propagate(fam.state0, t), 1.0) / e0 - 1.0)
                                  for t in (0.25, 0.75))
        rows.append(row)
    logR = np.log([r["R"] for r in rows])
    fits = {}
    for s in (0.5, 1.0):
        y = np.log([r[f"pair_{s}"] for r in rows])
        slope = float(np.polyfit(logR, y, 1)[0])
        y_val = np.log([r[f"hdot_{s}"] for r in rows])
        fits[str(s)] = {"slope": slope, "expected": s - n / 2.0,
                        "error": abs(slope - (s - n / 2.0)),
                        "value_only_slope": float(np.polyfit(logR, y_val, 1)[0])}
    sups = [r["sup_constant"] for r in rows]
    return {"rows": rows, "slopes": fits,
            "sup_constant_spread": max(sups) / min(sups) - 1.0,
            "ratio": _SCALING_RATIO, "T": _SCALING_T, "t_eval": _SCALING_T_EVAL}
