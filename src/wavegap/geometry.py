"""Target curves and composition: geodesics through the origin, the
non-flatness constants, composed fields, and wave-equation residuals for
embedded presets."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import ScalarField, VectorField
from .norms import sobolev_norm
from .wave import WaveState, _value_sweep, spectral_gradient, spectral_laplacian

__all__ = [
    "GeodesicCurve",
    "make_preset",
    "geodesic_constants",
    "compose",
    "compose_dt",
    "wavemap_residual",
    "moser_ratio",
]


@dataclass(frozen=True)
class GeodesicCurve:
    """Arc-length curve ``gamma`` on an embedded target with ``gamma(0) = 0``.

    ``center`` and ``radius`` describe the embedded sphere/circle for presets
    (used by the residual check); ``flat`` marks the straight-line negative
    control, which violates the non-flatness assumption and is only accepted
    where a negative control is explicitly requested.
    """

    name: str
    ambient_dim: int
    gamma: object
    gamma_p: object
    gamma_pp: object
    s0: float = math.inf
    arc_length: bool = True
    flat: bool = False
    center: tuple | None = None
    radius: float | None = None

    def __post_init__(self):
        g0 = np.asarray(self.gamma(0.0), dtype=float)
        if g0.shape != (self.ambient_dim,) or np.max(np.abs(g0)) > 1e-12:
            raise ValueError("curve must pass through the origin of the ambient space")
        if self.arc_length:
            s = np.linspace(-min(self.s0, 4.0) * 0.99, min(self.s0, 4.0) * 0.99, 101)
            sp = np.linalg.norm(self._eval(self.gamma_p, s), axis=-1)
            if np.max(np.abs(sp - 1.0)) > 1e-10:
                raise ValueError("arc_length preset has |gamma'| != 1")

    def _eval(self, fn, s):
        s = np.asarray(s, dtype=float)
        out = np.asarray(fn(s), dtype=float)
        return np.moveaxis(out, 0, -1) if out.shape[0] == self.ambient_dim else out


def make_preset(name: str, **params) -> GeodesicCurve:
    """Build a named target curve.

    ``sphere_great_circle``
        Unit-speed great circle through 0 on the unit sphere centered
        (0, 1, 0): ``gamma(s) = (sin s, 1 - cos s, 0)``; globally defined.
    ``circle_radius``
        Circle of radius ``rho`` in the plane through 0:
        ``gamma(s) = (rho sin(s/rho), rho (1 - cos(s/rho)))``.
    ``flat_line``
        Straight line ``(s, 0)``: second derivative vanishes identically;
        serves as the negative control.
    """
    if name == "sphere_great_circle":
        return GeodesicCurve(
            name, 3,
            gamma=lambda s: (np.sin(s), 1.0 - np.cos(s), np.zeros_like(np.asarray(s, dtype=float))),
            gamma_p=lambda s: (np.cos(s), np.sin(s), np.zeros_like(np.asarray(s, dtype=float))),
            gamma_pp=lambda s: (-np.sin(s), np.cos(s), np.zeros_like(np.asarray(s, dtype=float))),
            center=(0.0, 1.0, 0.0), radius=1.0)
    if name == "circle_radius":
        rho = float(params.get("rho", 1.0))
        if rho <= 0:
            raise ValueError("rho must be positive")
        return GeodesicCurve(
            name, 2,
            gamma=lambda s: (rho * np.sin(s / rho), rho * (1.0 - np.cos(s / rho))),
            gamma_p=lambda s: (np.cos(s / rho), np.sin(s / rho)),
            gamma_pp=lambda s: (-np.sin(s / rho) / rho, np.cos(s / rho) / rho),
            center=(0.0, rho), radius=rho)
    if name == "flat_line":
        return GeodesicCurve(
            name, 2,
            gamma=lambda s: (np.asarray(s, dtype=float), np.zeros_like(np.asarray(s, dtype=float))),
            gamma_p=lambda s: (np.ones_like(np.asarray(s, dtype=float)), np.zeros_like(np.asarray(s, dtype=float))),
            gamma_pp=lambda s: (np.zeros_like(np.asarray(s, dtype=float)), np.zeros_like(np.asarray(s, dtype=float))),
            flat=True)
    raise ValueError(f"unknown preset {name!r}")


def geodesic_constants(curve: GeodesicCurve):
    """Quantitative non-flatness of the target: picks the component ``j``
    (1-based) with the largest |gamma''_j(0)|, sets ``c1`` to half that peak,
    and finds by bisection the largest half-width ``c0`` (capped by the
    curve's domain) on which ``|gamma''_j| >= c1`` throughout (checked on
    4096 evenly spaced points).

    Raises for a flat curve: the non-degeneracy assumption fails at 0.
    """
    gpp0 = np.asarray(curve.gamma_pp(0.0), dtype=float)
    if np.max(np.abs(gpp0)) < 1e-14:
        raise ValueError("target is flat at 0 - the non-degeneracy assumption fails")
    j = int(np.argmax(np.abs(gpp0)))
    c1 = float(abs(gpp0[j]) / 2.0)

    def ok(half):
        s = np.linspace(-half, half, 4096)
        vals = np.abs(np.asarray(curve.gamma_pp(s), dtype=float)[j])
        return bool(np.min(vals) >= c1)

    cap = min(curve.s0, 16.0)
    lo, hi = 0.0, cap
    if ok(cap):
        lo = cap
    else:
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if hi - lo < 1e-12 * max(cap, 1.0):
                break
            if ok(mid):
                lo = mid
            else:
                hi = mid
    return float(lo), c1, j + 1


def _require_range(curve: GeodesicCurve, values: np.ndarray):
    vmax = float(np.max(np.abs(values)))
    if vmax >= curve.s0:
        raise ValueError(
            f"field range {vmax:.4g} exceeds the curve domain half-width {curve.s0:.4g}")


def compose(curve: GeodesicCurve, v: ScalarField) -> VectorField:
    """Pointwise composition ``u = gamma(v)``; the field range must stay
    inside the curve's domain."""
    _require_range(curve, v.values)
    comps = np.asarray(curve.gamma(v.values), dtype=float)
    return VectorField(v.grid, tuple(comps))


def compose_dt(curve: GeodesicCurve, state: WaveState) -> VectorField:
    """Chain-rule time derivative of the composition:
    ``d/dt gamma(v) = gamma'(v) v_t`` componentwise."""
    _require_range(curve, state.u.values)
    gp = np.asarray(curve.gamma_p(state.u.values), dtype=float)
    return VectorField(state.grid, tuple(gp[ell] * state.ut.values
                                         for ell in range(curve.ambient_dim)))


def _box_components(curve: GeodesicCurve, state: WaveState, tau: float):
    """d'Alembertian of u = gamma(v) with a centered 3-point stencil in time
    and spectral space derivatives; returns (box components, u components)."""
    minus, plus = _value_sweep(state, (state.t - tau, state.t + tau))
    u_m = np.asarray(curve.gamma(minus.values), dtype=float)
    u_0 = np.asarray(curve.gamma(state.u.values), dtype=float)
    u_p = np.asarray(curve.gamma(plus.values), dtype=float)
    utt = (u_p - 2.0 * u_0 + u_m) / tau ** 2
    box = []
    for ell in range(curve.ambient_dim):
        lap = spectral_laplacian(ScalarField(state.grid, u_0[ell]))
        box.append(utt[ell] - lap.values)
    return box, u_0


def wavemap_residual(curve: GeodesicCurve, state: WaveState, tau: float = 1e-3,
                     richardson: bool = True) -> dict:
    """Max-norm residual of the geodesic-composition field in the wave-map
    system, for presets with an explicit second fundamental form.

    For the sphere/circle of radius rho centered c the system reads
    ``box u = -(|u_t|^2 - |grad u|^2)(u - c)/rho^2``; for the flat line the
    equation is just ``box u = 0``.  Time derivatives of the composition use
    a centered stencil of width ``tau`` (states evolved exactly), so the
    residual is O(tau^2) on top of grid error; ``richardson`` combines
    ``tau`` and ``tau/2`` stencils to cancel the leading term.

    Returns a dict with ``residual`` (at ``tau``), ``tau_half_residual``, and
    ``richardson`` (extrapolated) max-norms, each relative to the field scale.
    """
    def resid(tau_):
        box, u0 = _box_components(curve, state, tau_)
        if curve.flat:
            R = box
        else:
            if curve.center is None:
                raise ValueError("residual check needs an embedded preset")
            ut = compose_dt(curve, state)
            ut2 = sum(c * c for c in ut.components)
            grad2 = np.zeros(state.grid.shape)
            for ell in range(curve.ambient_dim):
                for d in spectral_gradient(ScalarField(state.grid, u0[ell])):
                    grad2 += d.values ** 2
            lag = ut2 - grad2
            rho2 = curve.radius ** 2
            R = [box[ell] + lag * (u0[ell] - curve.center[ell]) / rho2
                 for ell in range(curve.ambient_dim)]
        return np.stack(R)

    scale = max(float(np.max(np.abs(state.u.values))), 1e-30)
    r_tau = resid(tau)
    out = {"target": curve.name, "tau": tau,
           "residual": float(np.max(np.abs(r_tau))) / scale}
    if richardson:
        r_half = resid(tau / 2.0)
        extrap = (4.0 * r_half - r_tau) / 3.0
        out["tau_half_residual"] = float(np.max(np.abs(r_half))) / scale
        out["richardson"] = float(np.max(np.abs(extrap))) / scale
    return out


def moser_ratio(F, f: ScalarField, s: float) -> float:
    """Composition-to-argument Sobolev ratio ``|F(f)|_{H^s} / |f|_{H^s}``
    for a smooth ``F`` with ``F(0) = 0`` (so the composition stays in the
    space for supported data)."""
    if abs(float(np.asarray(F(0.0)))) > 1e-14:
        raise ValueError("F(0) must vanish")
    denom = sobolev_norm(f, s, homogeneous=False)
    if denom == 0.0:
        raise ValueError("zero field has no composition ratio")
    comp = ScalarField(f.grid, np.asarray(F(f.values), dtype=float))
    return sobolev_norm(comp, s, homogeneous=False) / denom
