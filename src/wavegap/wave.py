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
from .radial import gauss_panel_nodes

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

# largest node-by-angle array of one off-axis kernel refinement (32 MiB)
_KERNEL_MAX_DOUBLES = 2 ** 22


def kernel_solution_2d(psi: RadialProfile, t: float, x=0.0, tol: float = 1e-8,
                       max_refine: int = 9):
    """Point value of the planar solution with data ``(0, psi(|.|))``:

        z(t, x) = (1/(2 pi)) int_{|x-y|<=t} psi(|y|) / sqrt(t^2-|x-y|^2) dy.

    The substitution ``rho = t sin(theta)`` removes the square-root
    singularity at the rim; the result is a smooth double quadrature with
    panel edges at the profile's ``panel_edges`` (the annulus u-ladder among
    them) on the axis, refined until two successive refinements agree to ``tol``.

    Raises on a ``t`` or ``tol`` not finite and positive, on an ``x`` not a
    finite planar point, if the refinement loop fails to converge (with the
    achieved error estimate in the message), and off the axis before a
    refinement's node-by-angle temporary would exceed :data:`_KERNEL_MAX_DOUBLES`.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not (math.isfinite(t) and t > 0 and math.isfinite(tol) and tol > 0):
        raise ValueError(f"t and tol must be finite and positive, got t={t}, tol={tol}")
    if x.ndim != 1 or x.size > 2 or not np.all(np.isfinite(x)):
        raise ValueError(f"x must be a finite planar point, got {x.tolist()}")
    r0 = float(np.sqrt(np.sum(x * x)))

    def theta_edges(n_extra):
        edges = {0.0, math.pi / 2.0}
        if r0 == 0.0:
            for b in psi.panel_edges:
                if 0 < b < t:
                    edges.add(math.asin(b / t))
        for v in np.linspace(0.0, math.pi / 2.0, n_extra):
            edges.add(float(v))
        return np.asarray(sorted(edges))

    def evaluate(n_theta, n_alpha):
        th, wth = gauss_panel_nodes(theta_edges(n_theta), 12)
        rho = t * np.sin(th)
        if r0 == 0.0:
            vals = psi(rho)
            return float(t * np.sum(wth * np.sin(th) * vals))
        alpha = 2.0 * math.pi * np.arange(n_alpha) / n_alpha
        ca = np.cos(alpha)
        dist = np.sqrt(np.maximum(r0 * r0 + rho[:, None] ** 2
                                  + 2.0 * r0 * rho[:, None] * ca[None, :], 0.0))
        vals = psi(dist.ravel()).reshape(dist.shape)
        angular = vals.mean(axis=1)
        return float(t * np.sum(wth * np.sin(th) * angular))

    prev = evaluate(9, 32)
    n_theta, n_alpha = 17, 64
    err = math.inf  # no refinement compared yet
    for _ in range(max_refine):
        if r0 > 0.0 and 12 * (len(theta_edges(n_theta)) - 1) * n_alpha > _KERNEL_MAX_DOUBLES:
            raise RuntimeError(f"kernel quadrature off the axis reached its memory cap "
                               f"({_KERNEL_MAX_DOUBLES} doubles) unconverged: last "
                               f"refinement changed by {err:.3e}")
        cur = evaluate(n_theta, n_alpha)
        err = abs(cur - prev)
        if err <= tol * max(1.0, abs(cur)):
            return cur
        prev = cur
        n_theta = 2 * n_theta - 1
        n_alpha *= 2
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
    edges = {0.0, math.pi / 2.0}
    for b in profile.panel_edges:
        if 0 < b < 1:
            edges.add(math.asin(b))
    for v in np.linspace(0, math.pi / 2, 33):
        edges.add(float(v))
    th, w = gauss_panel_nodes(np.asarray(sorted(edges)), 16)
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
