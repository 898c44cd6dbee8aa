"""Target curves and composition: geodesics through the origin, the
non-flatness constants, composed fields, and wave-equation residuals for
embedded presets."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partialmethod

import numpy as np

from .field import ScalarField, WaveState
from .norms import sobolev_norm
from .wave import _value_sweep, spectral_gradient, spectral_laplacian

__all__ = [
    "GeodesicCurve",
    "make_preset",
    "geodesic_constants",
    "compose",
    "compose_dt",
    "wavemap_residual",
    "moser_ratio",
]

# largest half-width c0 reported, however large the circle
C0_CAP = 16.0


@dataclass(frozen=True)
class GeodesicCurve:
    """Unit-speed circle of radius ``radius`` through the origin,
    centered ``(0, radius, 0, ...)`` in ``R^ambient_dim``:

        gamma(s) = (rho sin(s/rho), rho (1 - cos(s/rho)), 0, ...).

    ``radius = inf`` is the straight line ``(s, 0, ...)`` (``flat``), which
    violates the non-flatness assumption and is only accepted where a
    negative control is explicitly requested.
    """

    name: str
    ambient_dim: int
    radius: float

    @property
    def flat(self) -> bool:
        return math.isinf(self.radius)

    @property
    def center(self) -> tuple:
        return (0.0, self.radius) + (0.0,) * (self.ambient_dim - 2)

    def _jet(self, s, k):
        """The components of the ``k``-th derivative of ``gamma`` at ``s``."""
        s = np.asarray(s, dtype=float)
        zero = np.zeros_like(s)
        if self.flat:
            jet = ((s, zero), (np.ones_like(s), zero), (zero, zero))
        else:
            rho, sn, cs = self.radius, np.sin(s / self.radius), np.cos(s / self.radius)
            jet = ((rho * sn, rho * (1.0 - cs)), (cs, sn), (-sn / rho, cs / rho))
        return jet[k] + (zero,) * (self.ambient_dim - 2)

    gamma = partialmethod(_jet, k=0)
    gamma_p = partialmethod(_jet, k=1)
    gamma_pp = partialmethod(_jet, k=2)


def make_preset(name: str, **params) -> GeodesicCurve:
    """Build a named target: ``sphere_great_circle`` (radius 1 in R^3),
    ``circle_radius`` (radius ``rho``, default 1, in R^2) or ``flat_line``
    (the negative control).  A parameter the preset does not take is
    refused."""
    if name not in ("sphere_great_circle", "circle_radius", "flat_line"):
        raise ValueError(f"unknown preset {name!r}")
    rho = params.pop("rho", 1.0) if name == "circle_radius" else 1.0
    if params:
        raise ValueError(f"target {name} takes no parameter(s) {', '.join(sorted(params))}"
                         + (" (only rho)" if name == "circle_radius" else ""))
    if isinstance(rho, bool) or not isinstance(rho, (int, float)) or not 0.0 < rho < math.inf:
        raise ValueError(f"rho must be a positive finite number, got {rho!r}")
    if name == "flat_line":
        return GeodesicCurve(name, 2, math.inf)
    return GeodesicCurve(name, 3 if name == "sphere_great_circle" else 2, float(rho))


def geodesic_constants(curve: GeodesicCurve):
    """Quantitative non-flatness at 0 in closed form, ``(c0, c1, j)``: the
    component ``j = 2`` (1-based) of ``gamma'' = (-sin(s/rho), cos(s/rho))/rho``
    peaks at ``1/rho``, ``c1`` is half that peak, and ``|gamma''_2| >= c1``
    exactly for ``|s| <= c0 = pi rho / 3`` (at most :data:`C0_CAP`).

    Raises for a flat curve: the non-degeneracy assumption fails at 0.
    """
    if curve.flat:
        raise ValueError("target is flat at 0 - the non-degeneracy assumption fails")
    return min(math.pi * curve.radius / 3.0, C0_CAP), 0.5 / curve.radius, 2


def compose(curve: GeodesicCurve, v: ScalarField) -> np.ndarray:
    """Pointwise composition ``u = gamma(v)``: the ``ambient_dim``
    components stacked on axis 0."""
    return np.asarray(curve.gamma(v.values), dtype=float)


def compose_dt(curve: GeodesicCurve, state: WaveState) -> np.ndarray:
    """Chain-rule time derivative of the composition, stacked like
    :func:`compose`: ``d/dt gamma(v) = gamma'(v) v_t`` componentwise."""
    return np.asarray(curve.gamma_p(state.u.values), dtype=float) * state.ut.values


def _box_components(curve: GeodesicCurve, state: WaveState, tau: float):
    """d'Alembertian of u = gamma(v) with a centered 3-point stencil in time
    and spectral space derivatives; returns (box components, u components)."""
    minus, plus = _value_sweep(state, (state.t - tau, state.t + tau))
    u_m, u_0, u_p = (compose(curve, v) for v in (minus, state.u, plus))
    utt = (u_p - 2.0 * u_0 + u_m) / tau ** 2
    box = []
    for ell in range(curve.ambient_dim):
        lap = spectral_laplacian(ScalarField(state.grid, u_0[ell]))
        box.append(utt[ell] - lap.values)
    return box, u_0


def wavemap_residual(curve: GeodesicCurve, state: WaveState, tau: float = 1e-3,
                     richardson: bool = True) -> dict:
    """Max-norm residual of the geodesic-composition field in the wave-map
    system.

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
            ut2 = sum(c * c for c in compose_dt(curve, state))
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
