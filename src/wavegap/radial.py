"""Radial reductions for the free wave equation and radial-profile norms.

The planar (n = 2) radial solver works by projection: the line-integral
transform of a radial solution solves the 1-d wave equation, so

    P(t, s) = (R z)(t, s),   P_tt - P_ss = 0,
    P(0, s) = 0,             P_t(0, s) = g(s) = (R psi)(s),

with the d'Alembert closed form ``P(t,s) = (1/2) int_{s-t}^{s+t} g``, and the
solution is recovered by the inverse Abel integral

    z(t, r)    = -(1/(2 pi)) int_r^inf [g(s+t) - g(s-t)] / sqrt(s^2-r^2) ds,
    z_t(t, r)  = -(1/(2 pi)) int_r^inf [g'(s+t) + g'(s-t)] / sqrt(s^2-r^2) ds.

Because everything is one-dimensional and panel-based, data whose radial
structure sits far below any uniform grid resolution (thin annuli near the
unit circle) stay computable: panels are aligned with the radii the profile
declares and the tables are dense exactly where the structure lives.

The ray transform and the inverse Abel integral are line integrals in sigma
of functions of s' = sqrt(r^2 + sigma^2), split where s' crosses given
circles.  One crossing-panel integral (``_crossing_integral``) is the only
row path: it streams its rows in blocks (``_ABEL_BLOCK`` pairs or
``_TABLE_BLOCK`` table rows) on the calling thread plus one helper per
further CPU, the package's only parallel path (NumPy releases the GIL in
``interp`` and the ufuncs), and sums each block's rows by ragged
``repeat``/``bincount`` Gauss rules in chunks of about ``_NODE_BUDGET``
nodes.  The ray table and the inverse-Abel evaluator only state their rule;
that evaluator serves ``value``, ``dt_value``, the strip scan and the L2 norm
of ``z_t`` (the last two share the front radii of ``_scan_radii``).  A row's
panels, nodes and summation order, hence its value, depend neither on its
block or thread nor on their count.

For odd dimensions the classical exact reductions are used instead
(``r z`` solves the 1-d wave equation when n = 3).  The H^(1/2)(R^3)
Gagliardo integral of a radial function has two routes with no kernel in
common: in ``r`` reduced over angles, and in log-distance from the unit
sphere as the exact 1-d reduction for ``g(x) = x u(|x|)``.  Both are one
tensor Gauss rule over every node pair (``_gagliardo_square``), the
removable diagonal taking its limit value, plus the pairs beyond the
panels in closed form.
"""

from __future__ import annotations

import functools
import math
import os
import threading

import numpy as np

__all__ = [
    "smooth_step",
    "gauss_panel_nodes",
    "RadialWave2D",
    "gaussian_origin_value",
    "odd3_origin_value",
    "odd3_value",
    "l2_radial_measure",
    "sphere_area",
    "h_half_sq_radial_3d",
    "l2_sq_radial_3d",
    "fourier_hs_sq_radial_3d",
]

TWO_PI = 2.0 * math.pi


def smooth_step_and_d(x):
    """C-infinity transition built from exp(-1/x): 0 for x <= 0, 1 for
    x >= 1, strictly monotone between, and its derivative (which vanishes to
    all orders at 0 and 1) from one pair of exponentials."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    a = np.zeros_like(x)
    b = np.zeros_like(x)
    m = x > 0
    a[m] = np.exp(-1.0 / x[m])
    m = x < 1
    b[m] = np.exp(-1.0 / (1.0 - x[m]))
    out = np.zeros_like(x)
    m = (x > 0) & (x < 1)
    xm, am, bm = x[m], a[m], b[m]
    da = am / xm ** 2
    db = -bm / (1.0 - xm) ** 2
    out[m] = (da * bm - am * db) / (am + bm) ** 2
    return a / (a + b), out


def smooth_step(x):
    """The value of :func:`smooth_step_and_d`."""
    return smooth_step_and_d(x)[0]


@functools.lru_cache(maxsize=None)
def _leggauss(order):
    return np.polynomial.legendre.leggauss(order)


def gauss_panel_nodes(edges, order=24):
    """Gauss-Legendre nodes/weights on consecutive panels ``edges``: the
    one-row, uncapped :func:`_ragged_gauss`."""
    edges = np.asarray(edges, dtype=float)[None]
    return next(_ragged_gauss(edges, np.array([np.inf]), order))[2:4]


# Gauss nodes evaluated at once by the batched quadratures below.  Chunk
# arrays of 256 kB stay in cache, and one chunk's temporaries (about 5 MB)
# stay below the heap trim threshold that glibc's default malloc reaches in a
# gap run.  Each further thread working blocks holds a malloc arena of them,
# which a malloc tuned never to trim keeps: on a 2-vCPU x86 host the
# benchmark's gap_pair run peaked at 78 MB with the blocks on the calling
# thread alone, 88 MB with one helper and 99 MB with two beside an idle caller.
_NODE_BUDGET = 1 << 15

# (t, r) pairs and ray-table rows per streamed block.  Only one block's
# panel edges exist per thread; assembling them for the whole delta-0.01
# strip scan at once held 129 MB.
_ABEL_BLOCK = 2048
_TABLE_BLOCK = 1024

# Gauss order of the inverse-Abel panels and their cap: no panel is longer
# than (support + t) / cap.  The strip scan steps its uniform time grid by
# _STRIP_T_STEP; its screen only ranks pairs, on the structural panels alone
# (a cap of 1 splits none) at its own order, and confirms those within its
# margin of the screened maximum.
_ABEL_ORDER = 24
_ABEL_CAP = 12.0
_STRIP_T_STEP = 1.0 / 256.0
_SCREEN_ORDER = 16
_SCREEN_CAP = 1.0
_SCREEN_MARGIN = 0.5

# Ray table (RadialWave2D): least pieces per panel, pieces no wider than
# support / _TABLE_WIDTH, table points per piece
_TABLE_PIECES = 64
_TABLE_WIDTH = 512
_TABLE_FILL = 8


def _cpus():
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _streamed(n, block, work):
    """``work(lo, hi)``, a tuple of arrays, for the consecutive blocks
    ``lo:hi`` of ``range(n)`` of ``block`` items (one empty block when n is 0),
    each array joined over the blocks in order.  The calling thread plus one
    helper per further CPU (at most a thread per block) take the next unclaimed
    block in turn; no thread outlives the call, which raises the first error."""
    bounds = [(lo, min(lo + block, n)) for lo in range(0, max(n, 1), block)]
    parts, errors, claim = [None] * len(bounds), [], iter(range(len(bounds)))

    def drain():
        try:
            for k in claim:
                if errors:
                    return
                parts[k] = work(*bounds[k])
        except BaseException as exc:  # re-raised by the caller
            errors.append(exc)

    helpers = [threading.Thread(target=drain) for _ in range(min(_cpus(), len(bounds)) - 1)]
    for thread in helpers:
        thread.start()
    drain()
    for thread in helpers:
        thread.join()
    if errors:
        raise errors[0]
    return [np.concatenate(part) for part in zip(*parts)]


def _ragged_gauss(edges, max_len, order):
    """Gauss-Legendre rules on the panels between consecutive entries of each
    row of sorted ``edges`` (rows padded with NaN).  A panel wider than its
    row's ``max_len`` is split in ``n = ceil(width / max_len)`` pieces at
    ``a + k (b - a) / n``, the last edge ``b``, as ``np.linspace`` places them.
    Yields ``(lo, hi, nodes, weights, owner)`` for runs of rows ``lo:hi`` of
    about ``_NODE_BUDGET`` nodes, nodes row by row in increasing order."""
    width = np.diff(edges, axis=1)
    counts = np.where(width > 0, np.maximum(np.ceil(width / max_len[:, None]), 1.0),
                      0.0).astype(np.int64)
    ends = np.cumsum(counts.sum(axis=1) * order)
    bounds = np.concatenate([[0], np.flatnonzero(np.diff(ends // _NODE_BUDGET)) + 1,
                             [ends.size]]).tolist()
    xg, wg = _leggauss(order)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        row, col = np.nonzero(counts[lo:hi])
        n = counts[lo + row, col]
        a = np.repeat(edges[lo + row, col], n)
        b = np.repeat(edges[lo + row, col + 1], n)
        step = (b - a) / np.repeat(n, n)
        k = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
        left = k * step + a
        w = np.where(k + 1 == np.repeat(n, n), b, (k + 1) * step + a) - left
        keep = w > 0
        left, w, owner = left[keep], w[keep], np.repeat(row, n)[keep]
        xs = 0.5 * w[:, None] * xg[None, :] + (left + 0.5 * w)[:, None]
        ws = 0.5 * w[:, None] * wg[None, :]
        yield lo, hi, xs.ravel(), ws.ravel(), np.repeat(owner, order)


def _crossing_integral(r, top, crossing, bends, cap, order, weighted, block):
    """Per-row integrals over sigma in [0, sqrt(top^2 - r^2)] of functions of
    s' = sqrt(r^2 + sigma^2), 0 where top <= r, with panel edges at both
    ends, wherever s' crosses a radius of ``crossing(rows)`` (broadcast
    against ``r[rows, None]``) and at the bends ``bends * r`` inside, none
    longer than ``top / cap``.  At the Gauss nodes of ``order``,
    ``weighted(rows, s', w)`` gives a tuple of weighted node values, each
    summed per row; ``rows`` index ``r``.  The rows stream in blocks of
    ``block`` (:func:`_streamed`), so only one block's panel edges exist per
    thread."""
    def work(lo, hi):
        rb, tb = r[lo:hi], top[lo:hi]
        lim2 = np.maximum(tb * tb - rb * rb, 0.0)
        cap_len = np.where(lim2 > 0, tb / cap, np.inf)  # no 0/0 on a row without panels
        sig_max, rc, cut = np.sqrt(lim2), rb[:, None], crossing(slice(lo, hi))
        v = cut * cut - rc * rc
        cross = np.sqrt(np.where((cut >= rc) & (v > 0) & (v < lim2[:, None]), v, np.nan))
        bend = rc * np.asarray(bends)
        bend = np.where((bend > 0) & (bend < sig_max[:, None]), bend, np.nan)
        edges = np.sort(np.concatenate(
            [np.zeros((hi - lo, 1)), sig_max[:, None], cross, bend], axis=1), axis=1)
        sums = []
        for a, b, sig, w, own in _ragged_gauss(edges, cap_len, order):
            rows = lo + a + own
            rk = r[rows]
            s = np.sqrt(rk * rk + sig * sig)
            low = s == 0  # both squares underflow when r < 1e-162
            s[low] = np.hypot(rk[low], sig[low])
            sums.append([np.bincount(own, f, minlength=b - a) for f in weighted(rows, s, w)])
        return [np.concatenate(part, dtype=float) for part in zip(*sums)]  # no-node bincount is int

    return _streamed(r.size, block, work)


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def l2_radial_measure(f, edges, order=32) -> float:
    """L2 norm of a radial profile in the bare radial measure ``r dr``:
    ``sqrt(int f(r)^2 r dr)``.  This is the measure in which the closed-form
    annulus identities are stated; multiply the square by ``2 pi`` for the
    planar L2 norm."""
    r, w = gauss_panel_nodes(edges, order)
    v = np.asarray(f(r), dtype=float)
    return math.sqrt(float(np.sum(w * v * v * r)))


# ---------------------------------------------------------------------------
# planar radial wave engine
# ---------------------------------------------------------------------------

class RadialWave2D:
    """Radial solution of ``z_tt = Laplace(z)`` in the plane with data
    ``z(0) = 0, z_t(0) = psi(|x|)``.

    Parameters
    ----------
    profile : RadialProfile
        The velocity datum ``psi``, read once: its finite ``support_radius``,
        its declared ``f_and_prime`` (``psi`` and ``psi'`` from one pass, which
        fill the ray table), its ``panel_edges`` (where the ray table and the
        ray-transform quadrature split) and its ``smoothness_radii``
        (inverse-Abel panel edges sit at every crossing of these circles, and
        the wave fronts of the strip scan and the L2 norm start from them).

    The ray table splits each panel between 0 and the panel edges up to the
    support evenly into at least ``_TABLE_PIECES`` pieces no wider than
    ``support / _TABLE_WIDTH``, with exact ``(g, g')`` at their ends, and fills
    each piece at ``_TABLE_FILL`` points by the cubic Hermite interpolant of g
    and its derivative (de Boor ch. IV), which :meth:`g` and :meth:`g_prime`
    read linearly; its smallest spacing is the ``fine_scale``.
    """

    def __init__(self, profile):
        if profile.f_and_prime is None or not math.isfinite(profile.support_radius):
            raise ValueError("the planar engine needs a finite support and f_and_prime")
        self.profile = profile
        self.support = float(profile.support_radius)
        self.breaks = np.array([b for b in profile.smoothness_radii if 0.0 < b <= self.support])
        edges = [0.0] + [e for e in profile.panel_edges if 0.0 < e <= self.support]
        width = self.support / _TABLE_WIDTH
        nodes = np.concatenate([np.linspace(a, b, max(_TABLE_PIECES, math.ceil((b - a) / width)),
                                            endpoint=False)
                                for a, b in zip(edges[:-1], edges[1:])] + [[self.support]])
        g, gp = self._ray_transforms(nodes)
        # Hermite fill at tau = k / _TABLE_FILL, v = 1 - tau (tau = 0: the exact row)
        h, tau = np.diff(nodes)[:, None], np.arange(_TABLE_FILL) / _TABLE_FILL
        ga, gb, da, db, v = g[:-1, None], g[1:, None], gp[:-1, None], gp[1:, None], 1.0 - tau
        self._s = np.append((nodes[:-1, None] + tau * h).ravel(), nodes[-1])
        self._g = np.append((ga + tau * tau * (3.0 - 2.0 * tau) * (gb - ga)
                             + h * tau * (v * v * da - tau * v * db)).ravel(), g[-1])
        self._gp = np.append((6.0 * tau * v * (gb - ga) / h + v * (1.0 - 3.0 * tau) * da
                              + tau * (3.0 * tau - 2.0) * db).ravel(), gp[-1])
        # smallest table spacing: proxy for the finest resolved feature
        self.fine_scale = float(np.min(np.diff(self._s)))

    # -- ray (line-integral) transform of the datum --------------------------

    def _ray_transforms(self, s_arr):
        """The ray transform g(s) = 2 int psi(sqrt(s^2 + tau^2)) dtau and its
        s-derivative at ``|s_arr|``: order-16 tau panels between the crossings
        of the profile's panel edges, none split, and 0 from the support on."""
        s = np.abs(s_arr)
        edges = np.asarray(self.profile.panel_edges)[None, :]

        def weighted(rows, radii, w):
            sk, wts = s[rows], 2.0 * w
            f, fp = (np.asarray(v, dtype=float) for v in self.profile.f_and_prime(radii))
            vals = np.divide(fp * sk, radii, out=np.zeros_like(radii), where=radii > 0)
            return wts * f, wts * vals

        return _crossing_integral(s, np.full_like(s, self.support), lambda rows: edges, (), 1.0,
                                  16, weighted, _TABLE_BLOCK)

    def g(self, s):
        return np.interp(np.abs(s), self._s, self._g, left=self._g[0], right=0.0)

    def g_prime(self, s):
        s = np.asarray(s, dtype=float)
        mag = np.interp(np.abs(s), self._s, self._gp, left=self._gp[0], right=0.0)
        return np.sign(s) * mag

    # -- inverse Abel evaluation ---------------------------------------------

    def _abel(self, t, r, derivative, order=_ABEL_ORDER, cap=_ABEL_CAP):
        """Inverse Abel integral z (or z_t with ``derivative``) at every pair
        of the broadcast ``(t, r)`` batch (a float for scalar t and r), in
        sigma with s' = sqrt(r^2 + sigma^2) up to s' = support + t.  Panel
        edges sit where s' -+ t crosses a smoothness radius, where s' - t
        changes sign and at ``0.25 r``, ``r``, ``4 r`` (s'(sigma) bends
        there); panels are capped at (support + t)/``cap``, and a ``cap`` of
        1 splits none of these structural panels."""
        t, r = np.broadcast_arrays(np.asarray(t, dtype=float),
                                   np.abs(np.asarray(r, dtype=float)))
        shape, t, r = t.shape, t.ravel(), r.ravel()
        b, g = self.breaks[None, :], self.g_prime if derivative else self.g

        def crossing(rows):
            tc = t[rows, None]
            return np.concatenate([b - tc, b + tc, tc - b, tc], axis=1)

        def weighted(rows, s, w):
            ahead, behind = g(s + t[rows]), g(s - t[rows])
            return (w * (ahead + behind if derivative else ahead - behind) / s,)

        z, = _crossing_integral(r, self.support + t, crossing, (0.25, 1.0, 4.0), cap, order,
                                weighted, _ABEL_BLOCK)
        z = (-z / TWO_PI).reshape(shape)
        return z if z.ndim else float(z)

    def value(self, t, r):
        """Point value z(t, r), vectorized over broadcast arrays of t and r
        (a float for scalar t and r)."""
        return self._abel(t, r, derivative=False)

    def dt_value(self, t, r):
        """Time derivative z_t(t, r), vectorized as :meth:`value`."""
        return self._abel(t, r, derivative=True)

    # -- global radial quadrature of z_t(t, .) -------------------------------

    def l2_planar(self, t):
        """``L2(R^2)`` norm of z_t(t, .) by order-16 Gauss panels between the
        radii of :meth:`_scan_radii`, which resolve every wave front and
        run from 0 to ``t + support``."""
        rr, w = gauss_panel_nodes(self._scan_radii(t), 16)
        vals = self.dt_value(t, rr)
        return math.sqrt(TWO_PI * float(np.sum(w * vals * vals * rr)))

    # -- strip scan ----------------------------------------------------------

    def strip_max(self, extra_times=()):
        """Signed z at the largest |z| over the sampled strip [0,1] x {radii}.

        Scans the uniform time grid of step ``_STRIP_T_STEP`` (plus
        caller-supplied structure-aware times), then refines locally around
        the winner in both t and r.  Each stage ranks |z| in batches; ties go
        to the earliest time, then the smallest radius index, of the scan order.

        The first stage only ranks: every pair is screened at Gauss order
        ``_SCREEN_ORDER`` on its structural panels alone (``_SCREEN_CAP`` is
        1: no panel is split), and those within a share ``m = _SCREEN_MARGIN``
        of the screened maximum are confirmed at ``_ABEL_ORDER`` with panels
        capped at (support + t)/``_ABEL_CAP``.  A screen error below
        ``m M / (2 - m)`` (M the maximum) keeps the argmax among them, so the
        result is a full order-24 scan's bit for bit (a pair's value does not
        depend on its batch); when the largest error seen exceeds half that
        bound, a guard confirms every pair.  Returns ``(z, t_at_max,
        r_at_max, record)``, ``record`` stating the time step, the times
        scanned, the refine rounds and the ``screen``: its order, panel cap
        and margin, the pairs screened and confirmed, the largest screen error
        relative to M and whether the guard fired.
        """
        times = np.unique(np.concatenate([np.arange(_STRIP_T_STEP, 1.0 + 1e-12, _STRIP_T_STEP),
                                          np.asarray(extra_times, dtype=float), [1.0]]))
        times = times[(times > 0) & (times <= 1.0)]

        def scan(ts, rs, best, z):
            k = int(np.argmax(np.abs(z)))
            return (float(z[k]), float(ts[k]), float(rs[k])) if abs(z[k]) > abs(best[0]) else best

        radii = [self._scan_radii(t) for t in times]
        ts, rs = np.repeat(times, [r.size for r in radii]), np.concatenate(radii)
        rough = np.abs(self._abel(ts, rs, False, _SCREEN_ORDER, _SCREEN_CAP))
        keep = np.flatnonzero(rough >= (1.0 - _SCREEN_MARGIN) * np.max(rough))
        z = self._abel(ts[keep], rs[keep], False)
        err, top = float(np.max(np.abs(rough[keep] - np.abs(z)))), float(np.max(np.abs(z)))
        guard = err > 0.5 * _SCREEN_MARGIN * top / (2.0 - _SCREEN_MARGIN)
        if guard:
            keep, z = np.arange(ts.size), self._abel(ts, rs, False)
            err, top = float(np.max(np.abs(rough - np.abs(z)))), float(np.max(np.abs(z)))
        record = {"t_step": _STRIP_T_STEP, "times": times.size, "refine_rounds": 3,
                  "screen": {"order": _SCREEN_ORDER, "cap": _SCREEN_CAP, "margin": _SCREEN_MARGIN,
                             "screened": ts.size, "confirmed": keep.size,
                             "error": err / top if top > 0 else None, "guard": guard}}
        zj, tj, rj = scan(ts[keep], rs[keep], (0.0, float(times[0]), 0.0), z)
        rs_local = self._scan_radii(tj)
        rs_local = np.sort(rs_local[np.argsort(np.abs(rs_local - rj))[:9]])
        dt, dr = _STRIP_T_STEP, max(np.min(np.diff(rs_local)) if rs_local.size > 1 else 1e-3, 1e-12)
        for k in range(record["refine_rounds"]):
            if k:
                dr /= 8.0
                rs_local = np.abs(rj + dr * np.arange(-8, 9))
            dt /= 8.0
            ts = tj + dt * np.arange(-8, 9)
            ts = ts[(ts > 0) & (ts <= 1.0)]
            ts, rs = np.repeat(ts, rs_local.size), np.tile(rs_local, ts.size)
            zj, tj, rj = scan(ts, rs, (zj, tj, rj), self._abel(ts, rs, False))
        return zj, tj, rj, record

    def _scan_radii(self, t):
        """Structure-aware radii at time t, from 0 to ``t + support``: fronts
        of every smoothness-radius circle with geometric ladders spanning from
        the fine scale to the bulk, and a coarse sweep.  They are the strip
        scan's candidates and the panel edges of :meth:`l2_planar`."""
        top = t + self.support
        parts = [np.linspace(0.0, top, 96)]
        scale = max(self.fine_scale, 1e-14)
        n_steps = max(1, int(math.ceil(math.log(top / scale, 4.0))) + 1)
        ladder = scale * 4.0 ** np.arange(0, n_steps)
        for b in self.breaks:
            for rf in (abs(t - b), t + b):
                parts.append(np.abs(rf + ladder))
                parts.append(np.abs(rf - ladder))
                parts.append(np.array([rf]))
        parts.append(ladder)
        rs = np.unique(np.concatenate(parts))
        return rs[rs <= top]


# ---------------------------------------------------------------------------
# origin values in general dimension (oracle for representation formulas)
# ---------------------------------------------------------------------------

def gaussian_origin_value(a: float, t: float, n: int) -> float:
    """z(t, 0) for the free wave equation in R^n with data
    ``(0, exp(-a r^2))``, via the closed-form radial Fourier transform:

        z(t,0) = (2 pi)^{-n} * area(S^{n-1}) *
                 int_0^inf sin(t k) k^{n-2} (pi/a)^{n/2} exp(-k^2/(4a)) dk.

    Serves as an independent oracle for dimension-specific representation
    formulas.
    """
    k_max = 12.0 * math.sqrt(a) + 40.0 / max(t, 0.25)
    edges = np.linspace(0.0, k_max, max(16, int(k_max * max(t, 1.0) * 3)))
    k, w = gauss_panel_nodes(edges, 12)
    amp = (math.pi / a) ** (n / 2.0) * np.exp(-k * k / (4.0 * a))
    integrand = np.sin(t * k) * k ** (n - 2) * amp
    return float(sphere_area(n) / (2.0 * math.pi) ** n * np.sum(w * integrand))


def odd3_origin_value(phi, t: float) -> float:
    """Exact 3-d origin value for radial data ``(0, phi)``: ``t * phi(t)``
    (spherical mean of the velocity datum times t)."""
    return float(t * np.asarray(phi(np.asarray([t], dtype=float)))[0])


def odd3_value(phi, t: float, r: float, support: float) -> float:
    """Exact 3-d radial solution via the 1-d reduction of ``r z``:
    ``z(t,r) = (1/(2r)) int_{r-t}^{r+t} s phi(|s|) ds`` (odd integrand), by
    order-64 Gauss panels."""
    if r <= 1e-12:
        return odd3_origin_value(phi, t)
    lo, hi = r - t, r + t
    lo_c, hi_c = max(lo, -support), min(hi, support)
    if hi_c <= lo_c:
        return 0.0
    edges = np.linspace(lo_c, hi_c, 32)
    s, w = gauss_panel_nodes(edges, 64)
    vals = s * np.asarray(phi(np.abs(s)))
    return float(np.sum(w * vals) / (2.0 * r))


# ---------------------------------------------------------------------------
# radial Sobolev norms on R^3 (for the odd-dimension data family)
# ---------------------------------------------------------------------------

def l2_sq_radial_3d(u, edges) -> float:
    """``int_{R^3} u(|x|)^2 dx = 4 pi int u(r)^2 r^2 dr`` by order-16 Gauss
    panels between ``edges``."""
    r, w = gauss_panel_nodes(edges, 16)
    v = np.asarray(u(r), dtype=float)
    return 4.0 * math.pi * float(np.sum(w * v * v * r * r))


def _blocked_sum(wx, wy, kernel):
    """``sum_ij wx_i wy_j K_ij`` with the rows ``K[a:b] = kernel(a, b)``
    formed in blocks of about ``_NODE_BUDGET`` entries."""
    step = max(1, _NODE_BUDGET // wy.size)
    total = 0.0
    for a in range(0, wx.size, step):
        b = min(a + step, wx.size)
        total += float(wx[a:b] @ kernel(a, b) @ wy)
    return total


# Gauss order of the H^(1/2)(R^3) panel pairs; the shell routes' uncovered
# plateau core in log-distance (its pairs with the ramp weigh about e^-30),
# outer panel end (distance from the sphere) and ramp panel width
_PAIR_ORDER = 12
_SHELL_CORE = 30.0
_SHELL_OUTER = 0.75
_SHELL_DL = 0.5


def _gagliardo_square(x, w, f, diag, density):
    """``sum_ij w_i w_j density(x_i, f_i, x_j, f_j)`` over every pair of the
    nodes ``x`` with weights ``w`` and profile values ``f``.

    The density is singular only on its removable diagonal; with the limit
    value there it is smooth on every panel pair of a tensor Gauss rule, so
    the coincident nodes ``i = j`` take ``diag_i`` and no pair needs a rule
    of its own.
    """
    node = np.arange(x.size)

    def rows(a, b):
        with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 on the diagonal
            dens = density(x[a:b, None], f[a:b, None], x, f)
        return np.where(node[a:b, None] == node, diag[a:b, None], dens)

    return _blocked_sum(w, w, rows)


def _far_tail(r, R):
    """``T(r, R) = int_R^inf rho^2 / (r^2 - rho^2)^2 drho`` for ``r < R``
    in closed form, ``R/(2 (R^2-r^2)) - log((R-r)/(R+r))/(4 r)``.  The
    kernel decays only like ``rho^-2``, so the pairs with one point beyond
    ``R``, where the profile vanishes, still carry ``2 int u^2 r^2 T dr``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        log_term = (np.log1p(-r / R) - np.log1p(r / R)) / (4.0 * r)
    return R / (2.0 * (R * R - r * r)) - log_term


def h_half_sq_radial_3d(u, edges, u_prime) -> float:
    """Squared homogeneous H^(1/2)(R^3) seminorm of a radial function by the
    double-integral (Gagliardo) representation reduced over angles:

        |u|^2 = 8 int int (u(r) - u(rho))^2 r^2 rho^2 / (r^2 - rho^2)^2 dr drho.

    The reduction constant comes from ``int_{S^2} dw |x - y|^{-4}
    = 4 pi (r^2 - rho^2)^{-2}`` and the Gagliardo constant ``1/(2 pi^2)``
    for s = 1/2, n = 3.  The panels between ``edges`` and 0 cover
    ``[0, edges[-1]]``; on the removable diagonal the density takes its limit
    ``u'(r)^2 r^2 / 4``, and the far tail adds the pairs beyond ``edges[-1]``.
    """
    edges = np.unique(np.append(edges, 0.0))
    r, w = gauss_panel_nodes(edges, _PAIR_ORDER)
    v = np.asarray(u(r), dtype=float)
    diag = np.asarray(u_prime(r), dtype=float) ** 2 * r * r / 4.0

    def density(r, ur, rho, urho):
        du = ur - urho
        return du * du * r * r * rho * rho / (r * r - rho * rho) ** 2

    total = _gagliardo_square(r, w, v, diag, density)
    total += 2.0 * float(np.sum(w * v * v * r * r * _far_tail(r, edges[-1])))
    return 8.0 * total


def _shell_panels(l_lo):
    """Log-distance panel edges of the shell routes: at most ``_SHELL_DL``
    wide from ``l_lo`` to ``log _SHELL_OUTER``, and below ``l_lo`` (where T
    is 1) doubling in width (``_SHELL_DL``, twice that, ...) down to
    ``l_lo - _SHELL_CORE``."""
    l_hi = math.log(_SHELL_OUTER)
    depth = [0.0]  # below l_lo
    while depth[-1] < _SHELL_CORE:
        depth.append(min(2.0 * depth[-1] + _SHELL_DL, _SHELL_CORE))
    ramp = np.linspace(l_lo, l_hi, int(math.ceil((l_hi - l_lo) / _SHELL_DL)) + 1)
    return np.concatenate([l_lo - np.array(depth[::-1]), ramp[1:]])


def h_half_sq_shell_3d(T_logd, dT_logd, l_lo: float) -> float:
    """Squared homogeneous H^(1/2)(R^3) seminorm of a sphere-shell profile
    ``u(x) = T(log |x - 1|-distance)`` given natively in the log-distance
    coordinate ``l = log d`` (so plateau widths far below float resolution
    of ``1 - r`` stay computable).

    ``T_logd(l)`` must be 1 for ``l <= l_lo`` (plateau) and 0 for
    ``d = e^l >= _SHELL_OUTER``; ``dT_logd`` is its derivative in ``l``.

    The route is the exact 1-d reduction ``int int_{R^2} (g(x) - g(y))^2 /
    (x - y)^2 dx dy`` for the odd ``g(x) = x u(|x|)``.  Folded onto x > 0 it
    is twice the integral of ``(g(x) - g(y))^2 / (x - y)^2 + (g(x) + g(y))^2
    / (x + y)^2``, taken over the nodes ``x - 1 = +d`` and ``-d`` of both
    sides of the sphere (weights ``d dl``), with every difference formed from
    T and ``x - 1`` without cancellation.  The pairs with one point off the
    shells, where g = 0, add ``4 int g^2 W`` in closed form.
    """
    l, wl = gauss_panel_nodes(_shell_panels(l_lo), _PAIR_ORDER)
    d = np.exp(l)
    y = np.concatenate([d, -d])
    w = np.tile(wl * d, 2)
    t = np.tile(np.asarray(T_logd(l), dtype=float), 2)
    dt = np.tile(np.asarray(dT_logd(l), dtype=float), 2)
    g = (1.0 + y) * t
    # g'(x) = T + x T_l / y at x = 1 + y, and (g + g)^2 / (x + x)^2 = T^2
    diag = (t + (1.0 + y) * dt / y) ** 2 + t * t

    def density(yi, ti, yj, tj):
        near = ((ti - tj) + (yi * ti - yj * tj)) / (yi - yj)
        mirror = ((ti + tj) + (yi * ti + yj * tj)) / (2.0 + yi + yj)
        return near * near + mirror * mirror

    # W: the integral of 1/(x - z)^2 + 1/(x + z)^2 over the off-shell z in
    # [0, 1 - o] and [1 + o, inf), at x = 1 + y
    o = _SHELL_OUTER
    off = 1.0 / (o - y) + 1.0 / (o + y) + 1.0 / (2.0 + o + y) - 1.0 / (2.0 - o + y)
    return (2.0 * _gagliardo_square(y, w, t, diag, density)
            + 4.0 * float(np.sum(w * g * g * off)))


def l2_sq_shell_3d(T_logd, l_lo: float) -> float:
    """``int_{R^3} u^2`` for a sphere-shell profile in log-distance form."""
    edges = _shell_panels(l_lo)
    ll, wl = gauss_panel_nodes(edges, _PAIR_ORDER)
    d = np.exp(ll)
    t = np.asarray(T_logd(ll), dtype=float)
    both = (1.0 - d) ** 2 + (1.0 + d) ** 2
    inner = float(np.sum(wl * d * t * t * both))
    # plateau core d < e^{l_lo - _SHELL_CORE}: T = 1 exactly
    d0 = math.exp(edges[0])
    core = ((1.0 + d0) ** 3 - (1.0 - d0) ** 3) / 3.0
    return 4.0 * math.pi * (inner + core)


def fourier_hs_sq_radial_3d(u, edges, s, k_max=200.0) -> float:
    """Squared homogeneous H^s(R^3) seminorm of a radial function via the
    radial Fourier transform ``uhat(k) = (4 pi / k) int u(r) sin(k r) r dr``
    and ``(2 pi)^{-3} int k^(2s) |uhat|^2 4 pi k^2 dk`` (order-12 Gauss panels
    in k up to ``k_max``).  For cross-checking the double-integral route on
    profiles of moderate width."""
    r, w = gauss_panel_nodes(edges, 24)
    v = np.asarray(u(r), dtype=float)
    k_edges = np.linspace(1e-9, k_max, max(400, int(k_max * np.max(edges) * 1.5)))
    k, kw = gauss_panel_nodes(k_edges, 12)
    # uhat on the k nodes
    sin_kr = np.sin(np.outer(k, r))
    uhat = (4.0 * math.pi / k) * (sin_kr @ (w * v * r))
    return float(np.sum(kw * k ** (2.0 * s) * uhat * uhat * k * k)
                 * 4.0 * math.pi / (2.0 * math.pi) ** 3)
