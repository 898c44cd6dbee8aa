"""Counterexample data factory: concentrating annulus profiles near the unit
circle, their closed-form reference values, strip-max normalization, the
mean-zero reference bump, and the back-propagated rescaled wave family.

Closed-form conventions
-----------------------
The annulus identities are exact in the bare radial measure ``r dr``:

    2 * int psi_{p,q}(r)^2 r dr          = 1/log(1-q^2) - 1/log(1-p^2),
    (1/(2 pi)) * int psi r dr / sqrt(1-r^2) = (1/(4 pi)) log |log(1-q^2)/log(1-p^2)|.

The planar solution of the wave equation with velocity datum ``psi(|x|)``
carries the angular factor relative to the second line:
``z(1, 0) = PLANAR_POINT_FACTOR * annulus_point_value_radial`` (the factor is
``2 pi``, i.e. the measure of the unit circle of directions).  Both
identities are verified against independent quadrature in the test suite.

The smooth cutoff is built in the self-similar coordinate
``sigma = log(1-r^2)/log(delta)``: it rises on ``sigma in [1, 2]``, is 1 on
``[2, 3]`` and falls on ``[3, 4]``, which makes every closed-form integral
exactly independent of ``delta`` after scaling and gives the data norms the
pure ``|log delta|^(-1/2)`` decay law with a delta-independent constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .field import RadialProfile, ScalarField, TorusGrid, WaveState, remove_lattice_mean
from .norms import sobolev_norm
from .radial import (RadialWave2D, gauss_panel_nodes, h_half_sq_radial_3d,
                     h_half_sq_shell_3d, l2_radial_measure, l2_sq_shell_3d, smooth_step,
                     smooth_step_and_d)
from .wave import _value_sweep, spectral_propagate

__all__ = [
    "PLANAR_POINT_FACTOR",
    "DeltaFamily",
    "delta_family",
    "annulus_l2sq_radial",
    "annulus_point_value_radial",
    "psi_exact",
    "psi_smooth",
    "shell_wave",
    "FocusingDatum",
    "focusing_sequence",
    "NormalizedZ",
    "strip_normalize",
    "choose_R",
    "chi_mean_zero",
    "chi_field",
    "chi_hat_planar",
    "RescaledWave",
    "rescaled_family",
    "LogCutoffAtom",
]

# L2(R^2)^2 of a radial profile = 2*pi * (its r dr norm)^2, and the planar
# point value of the solution is 2*pi times the radial-measure closed form.
PLANAR_POINT_FACTOR = 2.0 * math.pi


# ---------------------------------------------------------------------------
# the concentration family near the unit circle
# ---------------------------------------------------------------------------

# largest relative miss of 1 - r^2 against delta^k that delta_family accepts
_RADII_RTOL = 1e-3


@dataclass(frozen=True)
class DeltaFamily:
    """Annulus radii tied to one concentration parameter:
    ``1-p1^2 = delta, 1-p^2 = delta^2, 1-q^2 = delta^3, 1-q1^2 = delta^4``."""

    delta: float
    p1: float
    p: float
    q: float
    q1: float


def delta_family(delta: float) -> DeltaFamily:
    if not (0.0 < delta <= 0.5):
        raise ValueError(f"delta must lie in (0, 0.5], got {delta}")
    radii = [math.sqrt(1.0 - delta ** k) for k in (1, 2, 3, 4)]
    # rounding 1 - delta^k and its root loses about eps / delta^k relative
    miss = max(abs(1.0 - r * r - delta ** k) / delta ** k if delta ** 4 > 0.0 else math.inf
               for k, r in enumerate(radii, 1))
    if not miss <= _RADII_RTOL:
        raise ValueError(f"delta={delta} too small: the radii are not representable, 1 - r^2 "
                         f"misses delta^k by {miss:.2g} relative (tolerance {_RADII_RTOL:g})")
    return DeltaFamily(delta, *radii)


def annulus_l2sq_radial(fam: DeltaFamily, outer: bool = False) -> float:
    """Closed form for ``2 * int psi^2 r dr`` over the annulus [p, q]
    (``outer=True``: over [p1, q1]): difference of reciprocal logs."""
    if outer:
        lo, hi = fam.delta, fam.delta ** 4
    else:
        lo, hi = fam.delta ** 2, fam.delta ** 3
    return 1.0 / math.log(hi) - 1.0 / math.log(lo)


def annulus_point_value_radial(fam: DeltaFamily, outer: bool = False) -> float:
    """Closed form ``(1/(4 pi)) log |log(1-q^2)/log(1-p^2)|`` for the focus
    value in the radial measure (multiply by :data:`PLANAR_POINT_FACTOR` for
    the planar solution value)."""
    ratio = 4.0 if outer else 1.5
    return math.log(ratio) / (4.0 * math.pi)


def _u_ladder(fam: DeltaFamily):
    """Radii ``sqrt(1 - u)`` of 48 geometric ``u = delta^4 ... 1/2``: the annulus
    structure is logarithmic in ``u = 1 - r^2``, so quadratures need edges there."""
    return np.sqrt(1.0 - np.geomspace(fam.delta ** 4, 0.5, 48))


def psi_exact(fam: DeltaFamily) -> RadialProfile:
    """Sharp-indicator annulus datum ``-I_{p<=r<=q} / (sqrt(1-r^2) log(1-r^2))``,
    positive on its support; it jumps at its smoothness radii ``p`` and ``q``
    (so it declares no derivative), panel edges at them and the u-ladder below ``q``."""
    p, q = fam.p, fam.q

    def f(r):  # 1 / (sqrt(u) |log u|) through u = 1 - r^2 on the support
        r = np.asarray(r, dtype=float)
        m = (r >= p) & (r <= q)
        u = np.where(m, 1.0 - r * r, 0.5)
        return np.where(m, -1.0 / (np.sqrt(u) * np.log(u)), 0.0)

    return RadialProfile(f, q, [e for e in _u_ladder(fam) if e < q], smoothness_radii=(p, q))


class _ShellCutoff:
    """Smooth cutoff in the self-similar coordinate sigma = log(u)/log(delta)."""

    def __init__(self, delta):
        self.logd = math.log(delta)

    def c(self, sig):
        sig = np.asarray(sig, dtype=float)
        return smooth_step(sig - 1.0) * smooth_step(4.0 - sig)

    def psi(self, r):
        return self.psi_and_prime(r)[0]

    def psi_and_prime(self, r):
        """``(psi(r), psi'(r))`` from one pass over ``u``, ``log u`` and the
        two smooth steps."""
        r = np.asarray(r, dtype=float)
        u = 1.0 - r * r
        out = np.zeros_like(u)
        m = (u > 0.0) & (u < 1.0)
        um = u[m]
        lg = np.log(um)
        sig = lg / self.logd
        rise, d_rise = smooth_step_and_d(sig - 1.0)
        fall, d_fall = smooth_step_and_d(4.0 - sig)
        c = rise * fall
        out[m] = -c / (np.sqrt(um) * lg)
        out_p = np.zeros_like(u)
        cp = d_rise * fall - rise * d_fall
        u32 = um ** -1.5
        dpsi_du = -(cp / (um * self.logd) * um ** -0.5 / lg
                    + c * (-0.5 * u32 / lg - u32 / lg ** 2))
        out_p[m] = dpsi_du * (-2.0 * r[m])
        return out, out_p

    def sigma_integral(self, power_c, power_s, order=48):
        """``int_1^4 c(sigma)^power_c sigma^power_s dsigma`` (delta-free)."""
        s, w = gauss_panel_nodes(np.linspace(1.0, 4.0, 25), order)
        return float(np.sum(w * self.c(s) ** power_c * s ** power_s))


def psi_smooth(fam: DeltaFamily) -> RadialProfile:
    """Smooth annulus datum: the sharp profile times a C-infinity radial
    cutoff squeezed between the indicators of [p, q] and [p1, q1]; its
    derivative from the cutoff's one-pass ``psi_and_prime``, smoothness radii
    at those four radii (where the cutoff's steps start and end) and panel
    edges at them and the u-ladder."""
    cut = _ShellCutoff(fam.delta)
    return RadialProfile(cut.psi, fam.q1, _u_ladder(fam), cut.psi_and_prime,
                         (fam.p1, fam.p, fam.q, fam.q1))


_SHELL_WAVE_CACHE: dict = {}


def shell_wave(fam: DeltaFamily) -> RadialWave2D:
    """Planar radial wave evaluator for the smooth annulus datum, its ray
    table laid on the datum's panel edges (the u-ladder and the smoothness
    radii).  Evaluators are stateless after construction and shared through
    a cache keyed by delta (the table build is the expensive step)."""
    if fam.delta not in _SHELL_WAVE_CACHE:
        _SHELL_WAVE_CACHE[fam.delta] = RadialWave2D(psi_smooth(fam))
    return _SHELL_WAVE_CACHE[fam.delta]


# ---------------------------------------------------------------------------
# normalized data sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FocusingDatum:
    """One member of the concentrating sequence: velocity datum normalized
    so the solution's focus value z(1, 0) equals 1."""

    phi: RadialProfile
    delta: float
    z_value_at_10: float       # planar focus value before normalization
    norm: float                # data norm after normalization (n=2: closed-form L2(R^2))
    dimension: int = 2
    wave: object = dc_field(default=None, compare=False, repr=False)


def focusing_sequence(n: int, delta_list) -> list:
    """Concentrating data sequences whose solutions keep a unit focus value
    while the data norm decays.

    n = 2: smooth annulus profiles normalized by the measured planar focus
    value; norms decay like ``|log delta|^(-1/2)`` with a delta-independent
    constant (self-similar cutoff).
    n = 3: plateau data identically 1 near the unit sphere with
    logarithmic-capacity cutoffs (``delta_list`` is then the list of integer
    levels, strictly increasing); the focus value is exactly 1 by the
    spherical-means formula.
    """
    deltas = list(delta_list)
    if n == 2:
        if any(b >= a for a, b in zip(deltas[:-1], deltas[1:])):
            raise ValueError("delta_list must be strictly decreasing")
        out = []
        for d in deltas:
            fam = delta_family(d)
            wave = shell_wave(fam)
            z10 = wave.value(1.0, 0.0)  # planar focus value of the raw datum
            norm_planar = math.sqrt(PLANAR_POINT_FACTOR * _ShellCutoff(d).sigma_integral(2, -2)
                                    / (2.0 * abs(math.log(d))))
            raw = wave.profile
            phi = replace(raw, f=lambda r, _f=raw.f, _z=z10: _f(r) / _z,
                          f_and_prime=lambda r, _d=raw.f_and_prime, _z=z10:
                          tuple(v / _z for v in _d(r)))
            out.append(FocusingDatum(phi, d, z10, norm_planar / z10, 2, wave))
    elif n == 3:
        for v in deltas:
            if not float(v).is_integer():
                raise ValueError(f"n = 3 levels must be integers, got {v}")
        if any(b <= a for a, b in zip(deltas[:-1], deltas[1:])):
            raise ValueError(f"n = 3 levels must be strictly increasing, got {deltas}")
        out = []
        for atom in (LogCutoffAtom(int(v)) for v in deltas):
            prof = RadialProfile(atom, 1.0 + atom.d_out, (1.0 - atom.d_out, 1.0 + atom.d_out))
            out.append(FocusingDatum(prof, atom.eps, 1.0, atom.h_half_norm(), 3, atom))
    else:
        raise ValueError("focusing_sequence supports n in {2, 3}")
    norms = [d.norm for d in out]
    if any(b >= a for a, b in zip(norms[:-1], norms[1:])):
        raise ValueError("data norms failed to decay along the sequence")
    return out


@dataclass(frozen=True)
class NormalizedZ:
    """Normalized planar solution handle ``z~(t, r) = sign * z(t, r) / m_raw``
    at the time ``t_j``.

    The gap run normalizes by the sampled strip maximum, attained on the
    axis at ``t_j`` (:func:`strip_normalize`); the certified run by the
    focus value, ``t_j = 1``, ``m_raw = z(1, 0)``, ``sign = 1``.
    """

    wave: RadialWave2D = dc_field(compare=False, repr=False)
    t_j: float
    m_raw: float               # normalizing value of the raw annulus solution
    sign: float
    m_j: float                 # m_raw relative to the unit-focus datum
    scan: dict = dc_field(default_factory=dict, compare=False, repr=False)

    def z_at(self, t, r):
        return self.sign * np.asarray(self.wave.value(t, r)) / self.m_raw

    def dt_z_at(self, t, r):
        return self.sign * np.asarray(self.wave.dt_value(t, r)) / self.m_raw

    def window(self, lo, hi):
        """Radius where ``z~(t_j, .)`` first leaves ``[lo, hi]``
        (:func:`_level_window`).

        Errors out when the window collapses below a couple of fine-scale
        cells (the evaluator cannot certify the level set there).
        """
        fine = self.wave.fine_scale
        r = _level_window(self.z_at, self.t_j, lo, hi, r_top=self.wave.support + self.t_j,
                          fine=fine)
        if r < 2.0 * fine:
            raise ValueError(f"level window radius {r:.3e} below twice the fine scale "
                             f"{fine:.3e}: resolution insufficient")
        return r

    def dtz_l2_planar(self):
        """``L2(R^2)`` norm of ``z~_t(t_j, .)``."""
        return self.wave.l2_planar(self.t_j) / self.m_raw


_STRIP_SCAN_CACHE: dict = {}


def strip_normalize(datum: FocusingDatum) -> NormalizedZ:
    """Renormalize by the sampled strip maximum so |z~| <= 1 on the strip
    and z~(t_j, 0) = 1 at the sampled argmax.

    The engine's strip scan (:meth:`RadialWave2D.strip_max`) runs its
    uniform time grid plus structure-aware times aligned with the collapse
    of the annulus (t = sqrt(1-u), u log-spaced through the shell scales),
    which resolve the focusing overshoot that a bare uniform grid
    undersamples for thin shells.  Scan results are cached per engine: the
    scan is deterministic.
    """
    if datum.dimension != 2:
        raise ValueError("strip normalization applies to the planar family")
    wave = datum.wave
    if wave not in _STRIP_SCAN_CACHE:
        d = datum.delta
        ulog = np.exp(np.linspace(math.log(d ** 4.5), math.log(min(d ** 0.5, 0.99)), 160))
        _STRIP_SCAN_CACHE[wave] = wave.strip_max(np.sqrt(1.0 - ulog))
    z, t_j, r_j, record = _STRIP_SCAN_CACHE[wave]
    if r_j > 50.0 * wave.fine_scale + 1e-9:
        raise NotImplementedError(
            f"strip max found off axis (r = {r_j:.3e}); recentering of "
            "non-axial maxima is not implemented for the radial pipeline")
    return NormalizedZ(wave, t_j, abs(z), math.copysign(1.0, z), abs(z) / datum.z_value_at_10,
                       scan={**record, "screen": dict(record["screen"])})


def choose_R(normalized: NormalizedZ) -> float:
    """Concentration radius for the rescaled bump: the largest ``r*`` with
    ``z~(t_j, r) >= 1/2`` on the sampled ball, returned as ``R = 2/r*``
    (:meth:`NormalizedZ.window`, which refuses unresolved windows)."""
    return 2.0 / normalized.window(0.5, np.inf)


def _level_window(z_fn, t, lo, hi, r_top, fine):
    """Radius where ``z(t, .)`` first leaves ``[lo, hi]``; ``r_top`` if it
    never does on the probes.

    200 geometric probes descend from the top scale; then each round spreads
    16 even probes over the bracket ``(a, b]`` around the first probe
    outside, in one call, until the bracket is no wider than
    ``max(1e-3 fine, 1e-16 r_top)``.  Returns the bracket's inner end ``a``.
    """
    def inside(v):
        return (v >= lo) & (v <= hi)

    probes = np.geomspace(max(fine, r_top * 1e-12), r_top, 200)
    a = 0.0
    for _ in range(21):  # 16^20 = 2^80: the halvings a bisection would allow
        out = np.flatnonzero(~inside(z_fn(t, probes)))
        if out.size == 0:  # only the first round: later ones end on a probe outside
            return float(r_top)
        i = out[0]
        a, b = (probes[i - 1] if i > 0 else a), probes[i]
        if b - a <= max(1e-3 * fine, 1e-16 * r_top):
            break
        probes = np.linspace(a, b, 17)[1:]
    return float(a)


# ---------------------------------------------------------------------------
# mean-zero bump and the rescaled wave family
# ---------------------------------------------------------------------------

def _base_bump(r):
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    m = r < 1.0
    out[m] = np.exp(-1.0 / (1.0 - r[m] ** 2))
    return out


def _base_bump_d(r):
    """``B'(r) = B(r) (-2 r / (1 - r^2)^2)``, 0 for r >= 1."""
    r = np.asarray(r, dtype=float)
    q = np.where(r < 1.0, 1.0 - r * r, 1.0)
    return _base_bump(r) * (-2.0 * r / (q * q))


def chi_mean_zero(n: int) -> RadialProfile:
    """Reference mean-zero bump ``chi(r) = B(r) - 2^{-n} B(r/2)`` with B the
    standard smooth bump: the n-dimensional volume integral vanishes exactly
    by scaling, the support is {r <= 2}, and the relevant homogeneous norm
    is positive."""
    if n not in (2, 3):
        raise ValueError("chi_mean_zero supports n in {2, 3}")
    b = 2.0 ** (-n)

    def chi(r):
        return _base_bump(r) - b * _base_bump(np.asarray(r, dtype=float) / 2.0)

    prof = RadialProfile(chi, 2.0, (1.0, 2.0),
                         lambda r: (chi(r), _base_bump_d(r) - b / 2.0 * _base_bump_d(r / 2.0)))
    # volume integral should vanish to quadrature precision
    rr, w = gauss_panel_nodes(np.linspace(0, 2, 33), 24)
    vol = float(np.sum(w * chi(rr) * rr ** (n - 1)))
    if abs(vol) > 1e-12 * float(np.sum(w * np.abs(chi(rr)) * rr ** (n - 1))):
        raise RuntimeError(f"mean-zero construction failed: residual {vol:.2e}")
    if n == 2:
        kappa = math.sqrt(PLANAR_POINT_FACTOR) * l2_radial_measure(chi, np.linspace(0, 2, 33))
    else:
        kappa = math.sqrt(h_half_sq_radial_3d(chi, np.linspace(1e-6, 2.2, 45), prof.prime))
    if kappa < 1e-6:
        raise RuntimeError("reference bump has vanishing homogeneous norm")
    object.__setattr__(prof, "kappa", kappa)
    return prof


def chi_field(chi: RadialProfile, grid: TorusGrid, scale: float = 1.0,
              concentration: float = 1.0) -> ScalarField:
    """Canonical embedding of (a rescaled) mean-zero bump:
    ``scale * chi(concentration * |x|)`` with the lattice-mean residue
    projected out so the continuum mean-zero identity holds discretely."""
    r = grid.radius()
    return remove_lattice_mean(ScalarField(grid, scale * chi(concentration * r)))


def chi_hat_planar(chi: RadialProfile, k):
    """Planar Fourier transform of the radial bump:
    ``2 pi int chi(r) J0(k r) r dr`` (vectorized in k), Gauss order 24 on
    32 panels."""
    from scipy.special import j0
    rr, w = gauss_panel_nodes(np.linspace(0.0, chi.support_radius, 33), 24)
    vals = chi(rr)
    k = np.atleast_1d(np.asarray(k, dtype=float))
    return 2.0 * math.pi * (j0(np.outer(k, rr)) @ (w * vals * rr))


@dataclass(frozen=True)
class RescaledWave:
    """Free wave with vanishing value and bump velocity ``M chi(R x)`` at
    time T, carried back to traces at t = 0."""

    state0: WaveState
    init_constant: float       # (|v0|_{H^{n/2}} + |v1|_{H^{n/2-1}}) / (M/R)
    sup_constant: float        # max_strip |v| / (M/R)


def rescaled_family(chi: RadialProfile, R: float, M: float, T: float,
                    grid: TorusGrid) -> RescaledWave:
    """Build the rescaled-bump wave on a grid: embed ``M chi(R .)`` as the
    velocity at t = T, back-propagate spectrally to t = 0, and record the
    measured trace and sup constants (per unit M/R; the sup over 17 times
    evenly spaced in [0, 1])."""
    if R < 1.0 or M < 0.0 or not 0.0 <= T <= 1.0:
        raise ValueError("require R >= 1, M >= 0, T in [0, 1]")
    if chi.support_radius / 1.0 > grid.half_width - 2.0:
        raise ValueError("bump support does not fit the box with margin")
    n = grid.dim
    grid.wavenumber_classes()  # cache first: built between freed temporaries it fragments the heap
    ut_T = chi_field(chi, grid, scale=M, concentration=R)
    zero = ScalarField._own(grid, np.zeros(grid.shape))
    state_T = WaveState(zero, ut_T, float(T))
    state0 = spectral_propagate(state_T, 0.0)
    ratio = M / R if M > 0 else 1.0
    init_c = (sobolev_norm(state0.u, n / 2.0, False)
              + sobolev_norm(state0.ut, n / 2.0 - 1.0, False)) / ratio
    sup = 0.0
    for ut in _value_sweep(state0, np.linspace(0.0, 1.0, 17)):
        sup = max(sup, float(np.max(np.abs(ut.values))))
    return RescaledWave(state0, float(init_c), float(sup / ratio))


# ---------------------------------------------------------------------------
# odd-dimension plateau data with logarithmic cutoffs
# ---------------------------------------------------------------------------

class LogCutoffAtom:
    """Radial plateau function equal to 1 in a shell around the unit sphere,
    descending to 0 through a logarithmic ramp.

    Level ``j`` ramps over the log-distance interval of length
    ``Lam_j = 8 * 2^j`` below the fixed outer width ``d_out = 1/4``: the
    plateau half-width is ``d_out * exp(-Lam_j)``.  Each level doubles the
    ramp's logarithmic length, which halves its capacity measure and drives
    the fractional norm down by ``~ 1/sqrt(2)`` per level (a fixed-ratio
    geometric width schedule would only give the harmonic ``1/sqrt(level)``
    law).  Deep levels have plateau widths far below float spacing around 1;
    all norm quadrature therefore runs natively in ``l = log(distance)``.
    """

    d_out = 0.25

    def __init__(self, level: int):
        if not 0 <= level <= 5:
            raise ValueError("level must lie in [0, 5]")
        self.level = level
        self.lam = 8.0 * 2.0 ** level
        self.l_out = math.log(self.d_out)
        self.l_plateau = self.l_out - self.lam
        self.eps = self.d_out * math.exp(-self.lam)  # plateau half-width (may round to 0)

    # -- log-distance form (exact at any depth) --

    def T_logd(self, l):
        return smooth_step((self.l_out - np.asarray(l, dtype=float)) / self.lam)

    def dT_logd(self, l):
        x = (self.l_out - np.asarray(l, dtype=float)) / self.lam
        return -smooth_step_and_d(x)[1] / self.lam

    # -- plain radial form (plateau saturates at float resolution around 1) --

    def __call__(self, r):
        d = np.abs(np.asarray(r, dtype=float) - 1.0)
        out = np.ones_like(d)
        pos = d > 0
        out[pos] = self.T_logd(np.log(d[pos]))
        return out

    def derivative(self, r):
        r = np.asarray(r, dtype=float)
        d = np.abs(r - 1.0)
        out = np.zeros_like(d)
        pos = d > 0
        out[pos] = self.dT_logd(np.log(d[pos])) / d[pos] * np.sign(r[pos] - 1.0)
        return out

    def radial_panel_edges(self):
        """Structure-aligned r-panel edges for the plain-coordinate norm
        routes (usable only while the plateau width is representable)."""
        scales = np.geomspace(max(self.eps * 0.25, 1e-14), self.d_out * 3.0,
                              24 + 8 * self.level)
        edges = {1.0 - s for s in scales} | {1.0 + s for s in scales}
        edges.update({0.25, 0.5, 0.75, 1.0 - self.d_out, 1.0 + self.d_out, 1.5, 2.0})
        return np.asarray(sorted(e for e in edges if e > 1e-9))

    def h_half_norm(self) -> float:
        """Inhomogeneous fractional norm ``sqrt(L2^2 + |.|_{Hdot^(1/2)}^2)``
        on R^3, the seminorm by the 1-d reduction of the Gagliardo double
        integral in log-distance coordinates."""
        l2sq = l2_sq_shell_3d(self.T_logd, self.l_plateau)
        hsq = h_half_sq_shell_3d(self.T_logd, self.dT_logd, self.l_plateau)
        return math.sqrt(l2sq + hsq)
