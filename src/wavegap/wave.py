"""Linear wave propagation: exact spectral evolution on the torus, the
planar singular-kernel point value, and the dimension-specific radial
representation formulas (Poisson in even n, Kirchhoff in odd n) with their
exact coefficients.

Point-value conventions: every evaluator in this module returns the value of
the solution of the Cauchy problem ``z_tt = Laplace z, z(0) = 0,
z_t(0) = datum`` as a function on R^n.  Closed-form references that are
stated in the bare radial measure (without the angular factor) live in
:mod:`wavegap.construct`; the planar solution carries the angular factor
``2 pi`` relative to those.
"""

from __future__ import annotations

import math

import numpy as np
import numpy.fft  # noqa: F401  (NumPy 2 loads it lazily; wavebench/tracer.py wraps it)

from .field import RadialProfile, ScalarField, WaveState
from .norms import sobolev_norm
from .radial import _ragged_gauss, gauss_panel_nodes

__all__ = [
    "WaveState",
    "spectral_propagate",
    "energy",
    "spectral_laplacian",
    "spectral_gradient",
    "kernel_solution_2d",
    "radial_even_representation",
    "kirchhoff_3d_origin",
    "odd_n_boundary_value",
]


def _multipliers(k, tau):
    """``cos(tau k)``, ``sin(tau k)`` and ``sin(tau k)/k`` (``tau`` at ``k = 0``)."""
    ck = np.cos(tau * k)
    sk = np.sin(tau * k)
    with np.errstate(divide="ignore", invalid="ignore"):
        sinc = np.where(k > 0, sk / np.where(k > 0, k, 1.0), tau)
    return ck, sk, sinc


def _evolve(U0, V0, classes, tau):
    """Exact free-wave multiplier step on spectra: ``(U0, V0)`` of
    ``(u, u_t)`` to the spectra ``(U, V)`` a time ``tau`` later."""
    k, index = classes
    ck, sk, sinc = _multipliers(k, tau)
    ck, ksk, sinc = (np.take(m, index) for m in (ck, -k * sk, sinc))
    return ck * U0 + sinc * V0, ksk * U0 + ck * V0


def _evolve_value(U0, V0, classes, tau):
    """The ``U`` of :func:`_evolve` alone."""
    k, index = classes
    ck, _, sinc = _multipliers(k, tau)
    return np.take(ck, index) * U0 + np.take(sinc, index) * V0


def spectral_propagate(state: WaveState, t_target: float) -> WaveState:
    """Evolve a free-wave state to ``t_target`` by the exact Fourier
    multiplier (forward or backward; exact in time up to roundoff):

        uhat(t) = cos(tau k) uhat0 + sin(tau k)/k vhat0,
        vhat(t) = -k sin(tau k) uhat0 + cos(tau k) vhat0,

    with the zero mode evolving linearly, ``uhat0 + tau vhat0``.
    """
    if not math.isfinite(t_target):
        raise ValueError(f"target time must be finite, got {t_target}")
    grid = state.grid
    U, V = _evolve(np.fft.fftn(state.u.values), np.fft.fftn(state.ut.values),
                   grid.wavenumber_classes(), float(t_target) - state.t)
    # the real parts are copied out: a view would keep each complex array alive
    u = ScalarField._own(grid, np.fft.ifftn(U).real.copy())
    ut = ScalarField._own(grid, np.fft.ifftn(V).real.copy())
    return WaveState(u, ut, float(t_target))


def _value_sweep(state: WaveState, times):
    """The value field ``u`` of the free wave at each of ``times``, as
    :func:`spectral_propagate` gives it: one transform of the state, then
    per time the value multiplier alone and one inverse transform."""
    grid = state.grid
    classes = grid.wavenumber_classes()
    U0 = np.fft.fftn(state.u.values)
    V0 = np.fft.fftn(state.ut.values)
    for t in times:
        u = np.fft.ifftn(_evolve_value(U0, V0, classes, float(t) - state.t)).real.copy()
        yield ScalarField._own(grid, u)


def energy(state: WaveState, s: float) -> float:
    """Homogeneous wave energy at order ``s``:
    ``sqrt(|u|_{H^s}^2 + |u_t|_{H^(s-1)}^2)`` (dot norms); conserved exactly
    by :func:`spectral_propagate` mode by mode."""
    a = sobolev_norm(state.u, s, homogeneous=True)
    b = sobolev_norm(state.ut, s - 1.0, homogeneous=True)
    return math.hypot(a, b)


def spectral_laplacian(f: ScalarField) -> ScalarField:
    k, index = f.grid.wavenumber_classes()
    vals = np.fft.ifftn(np.take(-(k * k), index) * np.fft.fftn(f.values)).real
    return ScalarField._own(f.grid, vals)


def spectral_gradient(f: ScalarField):
    F = np.fft.fftn(f.values)
    return tuple(ScalarField._own(f.grid, np.fft.ifftn(1j * k * F).real)
                 for k in f.grid.wavenumbers())


# ---------------------------------------------------------------------------
# planar singular-kernel point value
# ---------------------------------------------------------------------------

# most Gauss nodes of one off-axis kernel refinement
_KERNEL_MAX_NODES = 2 ** 24


def _theta_edges(radii, t, n):
    """Panel edges in ``theta`` on [0, pi/2] for ``rho = t sin(theta)``: ``n``
    even ones and ``asin(b / t)`` at every radius ``0 < b < t``."""
    edges = {0.0, math.pi / 2.0}
    for b in radii:
        if 0 < b < t:
            edges.add(math.asin(b / t))
    for v in np.linspace(0.0, math.pi / 2.0, n):
        edges.add(float(v))
    return np.asarray(sorted(edges))


def kernel_solution_2d(psi: RadialProfile, t: float, x=0.0, tol: float = 1e-8,
                       max_refine: int = 9):
    """Point value of the planar solution with data ``(0, psi(|.|))``:

        z(t, x) = (1/(2 pi)) int_{|y|<=t} psi(|x+y|) / sqrt(t^2-|y|^2) dy.

    In polar coordinates ``y = rho e^{i alpha}`` the substitution ``rho =
    t sin(theta)`` removes the square-root singularity at the rim.  The
    result is a smooth double quadrature, refined until two successive
    refinements agree to ``tol``.  Panel edges in ``alpha`` (over [0, pi],
    the integrand being even) sit where ``|x + y|`` crosses one of the
    profile's ``panel_edges`` (the annulus u-ladder among them), and in
    ``theta`` where ``rho`` is ``|b -+ |x||`` for such an edge ``b``, where
    the circle of radius ``rho`` touches its circle (on the axis, ``rho = b``).
    Each ``theta`` panel ``[a, b]`` is mapped by ``theta = a + (b - a) u^2
    (3 - 2u)`` onto the Gauss nodes ``u`` of [0, 1], so its nodes cluster at
    both ends.  Each refinement doubles the even ``theta`` edges and, off the
    axis, the Gauss order in both variables.

    Raises on a ``t`` or ``tol`` not finite and positive, on an ``x`` not a
    finite planar point, if the refinement loop fails to converge (with the
    achieved error estimate in the message), and off the axis before a
    refinement of more than :data:`_KERNEL_MAX_NODES` Gauss nodes.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not (math.isfinite(t) and t > 0 and math.isfinite(tol) and tol > 0):
        raise ValueError(f"t and tol must be finite and positive, got t={t}, tol={tol}")
    if x.ndim != 1 or x.size > 2 or not np.all(np.isfinite(x)):
        raise ValueError(f"x must be a finite planar point, got {x.tolist()}")
    r0 = float(np.sqrt(np.sum(x * x)))
    edges = np.asarray(psi.panel_edges, dtype=float)
    radii = np.concatenate([np.abs(edges - r0), edges + r0])
    err = math.inf  # no refinement compared yet

    def evaluate(level):
        # off the axis the angular mean has square-root kinks at the touching
        # radii, the theta panel ends, where Gauss rules converge only
        # algebraically in their order; the map clusters the nodes there
        order = 12 if r0 == 0.0 else 12 * 2 ** level
        th_edges = _theta_edges(radii, t, 8 * 2 ** level + 1)
        u, wu = gauss_panel_nodes([0.0, 1.0], order)
        a, h = th_edges[:-1, None], np.diff(th_edges)[:, None]
        th = (a + h * u * u * (3.0 - 2.0 * u)).ravel()
        wth = (h * 6.0 * u * (1.0 - u) * wu).ravel()
        rho = t * np.sin(th)
        if r0 == 0.0:
            vals = psi(rho)
            return float(t * np.sum(wth * np.sin(th) * vals))
        # a circle that misses an edge's circle puts its crossing at 0 or pi:
        # an empty panel, which the ragged rule drops
        cos_cross = (edges ** 2 - r0 * r0 - rho[:, None] ** 2) / (2.0 * r0 * rho[:, None])
        cos_cross = np.hstack([np.clip(cos_cross, -1.0, 1.0), np.tile([1.0, -1.0], (rho.size, 1))])
        a_edges = np.sort(np.arccos(cos_cross), axis=1)
        max_len = np.full(rho.size, math.pi / 4.0)
        nodes = order * np.sum(np.ceil(np.diff(a_edges, axis=1) / max_len[:, None]))
        if nodes > _KERNEL_MAX_NODES:
            raise RuntimeError(f"kernel quadrature off the axis reached its node cap "
                               f"({_KERNEL_MAX_NODES} nodes) unconverged: last "
                               f"refinement changed by {err:.3e}")
        angular = np.empty(rho.size)
        for lo, hi, alpha, w, owner in _ragged_gauss(a_edges, max_len, order):
            r = rho[lo + owner]
            dist = np.sqrt(np.maximum(r0 * r0 + r * r + 2.0 * r0 * r * np.cos(alpha), 0.0))
            angular[lo:hi] = np.bincount(owner, w * psi(dist), minlength=hi - lo)
        return float(t * np.sum(wth * np.sin(th) * angular) / math.pi)

    prev = evaluate(0)
    for level in range(1, max_refine + 1):
        cur = evaluate(level)
        err = abs(cur - prev)
        if err <= tol * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise RuntimeError(
        f"kernel quadrature did not converge: last refinement changed by {err:.3e}")


# ---------------------------------------------------------------------------
# radial representation formulas
# ---------------------------------------------------------------------------

# Coefficients c_nu of the moments int_0^1 d_r^nu phi (1-r^2)^(-1/2) r^(nu+n-1) dr
# in z(1, 0), from Poisson's u(t, 0) = (1/gamma_n) (t^-1 d_t)^((n-2)/2) (t^n
# mean over B_t of phi / sqrt(t^2 - |y|^2)) with gamma_2 = 2, gamma_4 = 8; for
# n = 4 the bracket is 4 t^3 int_0^1 phi(t rho) rho^3 (1-rho^2)^(-1/2) drho.
_EVEN_COEFFICIENTS = {2: (1,), 4: (3 / 2, 1 / 2)}
# Coefficients b_nu of d_r^nu phi(1) in z(1, 0), from Kirchhoff's u(t, 0) =
# (1/gamma_n) (t^-1 d_t)^((n-3)/2) (t^(n-2) phi(t)) with gamma_3 = 1, gamma_5 = 3:
# t phi(t) for n = 3 and t phi(t) + t^2 phi'(t)/3 for n = 5.
_ODD_COEFFICIENTS = {3: (1,), 5: (1, 1 / 3)}


def _even_moment(profile: RadialProfile, nu, n):
    """``int_0^1 d_r^nu phi(r) (1-r^2)^(-1/2) r^(nu+n-1) dr`` (``nu`` 0 or 1,
    the latter from the profile's declared derivative) via ``r = sin(theta)``,
    with panel edges at the profile's ``panel_edges`` (the annulus data's
    u-ladder among them)."""
    d = profile.prime if nu else profile
    th, w = gauss_panel_nodes(_theta_edges(profile.panel_edges, 1.0, 33), 16)
    s = np.sin(th)
    return float(np.sum(w * np.asarray(d(s)) * s ** (nu + n - 1)))


def radial_even_representation(profile: RadialProfile, n: int) -> float:
    """Origin value z(1, 0) in even dimension n from the radial moment
    formula ``sum_nu c_nu int_0^1 d_r^nu phi (1-r^2)^(-1/2) r^(nu+n-1) dr``
    with the exact ``c_nu`` of :data:`_EVEN_COEFFICIENTS`."""
    if n not in _EVEN_COEFFICIENTS:
        raise ValueError("even representation implemented for n in {2, 4}")
    return float(sum(c * _even_moment(profile, nu, n)
                     for nu, c in enumerate(_EVEN_COEFFICIENTS[n])))


def kirchhoff_3d_origin(profile: RadialProfile) -> float:
    """Origin value z(1, 0) in three dimensions: the spherical mean of the
    radial velocity datum over the unit sphere is its value at radius 1."""
    return float(profile(np.array([1.0]))[0])


def odd_n_boundary_value(profile: RadialProfile, n: int) -> float:
    """Origin value z(1, 0) in odd dimension n from boundary derivatives:
    ``sum_nu b_nu d_r^nu phi(1)`` with the exact ``b_nu`` of
    :data:`_ODD_COEFFICIENTS` (``phi'`` is the profile's declared derivative)."""
    if n not in _ODD_COEFFICIENTS:
        raise ValueError("odd boundary formula implemented for n in {3, 5}")
    total = 0.0
    for nu, c in enumerate(_ODD_COEFFICIENTS[n]):
        d = profile.prime if nu else profile
        total += c * float(d(np.asarray([1.0]))[0])
    return float(total)
