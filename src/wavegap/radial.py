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
unit circle) stay computable: panels are aligned with the profile's
breakpoints and the tables are dense exactly where the structure lives.

One inverse-Abel evaluator serves ``value`` and ``dt_value``: it builds the
panels of a whole ``(t, r)`` batch with ragged ``repeat``/``bincount``
assembly, in chunks of about ``_NODE_BUDGET`` Gauss nodes; the strip scan
and the ray-transform table are evaluated the same way.

For odd dimensions the classical exact reductions are used instead
(``r z`` solves the 1-d wave equation when n = 3).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "smooth_step",
    "gauss_panel_nodes",
    "RadialWave2D",
    "gaussian_origin_value",
    "odd3_origin_value",
    "odd3_value",
    "planar_l2_from_radial",
    "l2_radial_measure",
    "sphere_area",
    "h_half_sq_radial_3d",
    "l2_sq_radial_3d",
    "fourier_hs_sq_radial_3d",
]

TWO_PI = 2.0 * math.pi


def smooth_step(x):
    """C-infinity transition: 0 for x <= 0, 1 for x >= 1, strictly monotone
    between, built from exp(-1/x)."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    a = np.zeros_like(x)
    b = np.zeros_like(x)
    m = x > 0
    a[m] = np.exp(-1.0 / x[m])
    m = x < 1
    b[m] = np.exp(-1.0 / (1.0 - x[m]))
    return a / (a + b)


def smooth_step_d(x):
    """Derivative of :func:`smooth_step` (vanishes to all orders at 0, 1)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    m = (x > 0) & (x < 1)
    xm = x[m]
    a = np.exp(-1.0 / xm)
    b = np.exp(-1.0 / (1.0 - xm))
    da = a / xm ** 2
    db = -b / (1.0 - xm) ** 2
    out[m] = (da * b - a * db) / (a + b) ** 2
    return out


_LEGGAUSS_CACHE: dict = {}


def _leggauss(order):
    if order not in _LEGGAUSS_CACHE:
        _LEGGAUSS_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _LEGGAUSS_CACHE[order]


def gauss_panel_nodes(edges, order=24):
    """Gauss-Legendre nodes/weights on consecutive panels ``edges``."""
    xg, wg = _leggauss(order)
    edges = np.asarray(edges, dtype=float)
    widths = np.diff(edges)
    keep = widths > 0
    if not np.any(keep):
        return np.array([]), np.array([])
    a = edges[:-1][keep]
    w = widths[keep]
    xs = 0.5 * w[:, None] * xg[None, :] + (a + 0.5 * w)[:, None]
    ws = 0.5 * w[:, None] * wg[None, :]
    return xs.ravel(), ws.ravel()


# Gauss nodes evaluated at once by the batched quadratures below.  Chunk
# arrays of 0.5 MB stay in cache: for the delta-0.01 table build plus strip
# scan (2-vCPU x86 host) 64k nodes took 6.2-6.7 s and 243 MB peak RSS, 1M
# took 7.5-8.2 s and 350 MB, 4M was slower still; 32k gained nothing.
_NODE_BUDGET = 1 << 16


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


def planar_l2_from_radial(f, edges, order=32) -> float:
    """L2(R^2) norm of ``f(|x|)`` by radial quadrature."""
    return math.sqrt(TWO_PI) * l2_radial_measure(f, edges, order)


# ---------------------------------------------------------------------------
# planar radial wave engine
# ---------------------------------------------------------------------------

class RadialWave2D:
    """Radial solution of ``z_tt = Laplace(z)`` in the plane with data
    ``z(0) = 0, z_t(0) = psi(|x|)``.

    Parameters
    ----------
    psi : callable
        Vectorized radial profile of the velocity datum.
    support : float
        Radius beyond which ``psi`` vanishes.
    breakpoints : sequence of float
        Radii where ``psi`` loses smoothness (panel edges are aligned with
        every crossing of these circles).
    s_table : array, optional
        Nodes for the ray-transform table; defaults to a uniform grid.
        Callers with multi-scale profiles should pass nodes clustered where
        the structure lives.
    psi_prime : callable, optional
        Radial derivative of ``psi``; required for time-derivative values
        (falls back to differentiating the table).
    """

    def __init__(self, psi, support, breakpoints=(), s_table=None,
                 psi_prime=None, panel_order=24, fine_scale=None,
                 tau_edges=None):
        self.psi = psi
        self.psi_prime = psi_prime
        self.support = float(support)
        bks = sorted(set(float(b) for b in breakpoints) | {self.support})
        self.breaks = np.array([b for b in bks if 0.0 < b <= self.support])
        # radii used solely to split the ray-transform quadrature (profiles
        # with internal multi-scale structure between breakpoints)
        if tau_edges is None:
            self._tau_extra = np.array([])
        else:
            te = np.asarray(sorted(set(float(b) for b in tau_edges)), dtype=float)
            self._tau_extra = te[(te > 0.0) & (te < self.support)]
        self._all_radial_edges = np.unique(np.concatenate([self.breaks, self._tau_extra]))
        self.panel_order = panel_order
        if s_table is None:
            s_table = np.linspace(0.0, self.support, 4096)
        s_table = np.unique(np.clip(np.concatenate(
            [np.asarray(s_table, dtype=float), self.breaks, [0.0, self.support]]),
            0.0, self.support))
        self._s = s_table
        self._g, self._gp = self._ray_transforms(s_table)
        if psi_prime is None:
            self._gp = np.gradient(self._g, self._s)
        # smallest table spacing: proxy for the finest resolved feature
        self.fine_scale = fine_scale if fine_scale is not None else float(
            np.min(np.diff(s_table)))

    # -- ray (line-integral) transform of the datum --------------------------

    def _ray_transforms(self, s_arr, order=16):
        """Tabulate the ray transform g(s) = 2 int psi(sqrt(s^2 + tau^2)) dtau
        and (when the derivative profile is available) its s-derivative.  The
        tau panels end where the ray crosses a radial edge and, for entries
        with at most 24 edges, are capped at ``support / 12``."""
        g = np.zeros_like(s_arr)
        gp = np.zeros_like(s_arr)
        s = np.abs(s_arr)
        rows = np.flatnonzero(s < self.support)
        s = s[rows]
        bb = self._all_radial_edges
        crossed = bb[None, :] > s[:, None]
        tau = np.sqrt(np.where(crossed, bb * bb - (s * s)[:, None], np.nan))
        edges = np.sort(np.concatenate([np.zeros((s.size, 1)), tau], axis=1), axis=1)
        n_edges = 1 + np.sum(np.diff(edges, axis=1) > 0, axis=1)
        max_len = np.where(n_edges > 24, np.inf, self.support / 12.0)
        for lo, hi, tt, wt, own in _ragged_gauss(edges, max_len, order):
            sk = s[lo:hi][own]
            radii = np.sqrt(sk * sk + tt * tt)
            wts = 2.0 * wt
            g[rows[lo:hi]] = np.bincount(
                own, wts * np.asarray(self.psi(radii), dtype=float), minlength=hi - lo)
            if self.psi_prime is not None:
                vals = np.zeros_like(radii)
                pos = radii > 0
                vals[pos] = (np.asarray(self.psi_prime(radii[pos]), dtype=float)
                             * sk[pos] / radii[pos])
                gp[rows[lo:hi]] = np.bincount(own, wts * vals, minlength=hi - lo)
        return g, gp

    def g(self, s):
        return np.interp(np.abs(s), self._s, self._g, left=self._g[0], right=0.0)

    def g_prime(self, s):
        s = np.asarray(s, dtype=float)
        mag = np.interp(np.abs(s), self._s, self._gp, left=self._gp[0], right=0.0)
        return np.sign(s) * mag

    # -- inverse Abel evaluation ---------------------------------------------

    def _abel(self, t, r, derivative):
        """Inverse Abel integral z (or z_t with ``derivative``) at every pair
        of the broadcast ``(t, r)`` batch, in sigma with s' = sqrt(r^2 +
        sigma^2) up to s' = support + t.  Panel edges sit where s' -+ t crosses
        a breakpoint, where s' - t changes sign and at ``0.25 r``, ``r``,
        ``4 r`` (s'(sigma) bends there); panels are capped at (support + t)/12."""
        t, r = np.broadcast_arrays(np.asarray(t, dtype=float),
                                   np.abs(np.asarray(r, dtype=float)))
        shape = t.shape
        t, r = t.ravel(), r.ravel()
        out = np.zeros(t.size)
        top = self.support + t
        lim2 = top * top - r * r
        live = np.flatnonzero(lim2 > 0)
        t, r, top, lim2 = t[live], r[live], top[live], lim2[live]
        sig_max = np.sqrt(lim2)
        tc, rc = t[:, None], r[:, None]
        b = self.breaks[None, :]
        sp = np.concatenate([b - tc, b + tc, tc - b, tc], axis=1)
        v = sp * sp - rc * rc
        cross = np.sqrt(np.where((sp >= rc) & (v > 0) & (v < lim2[:, None]), v, np.nan))
        bend = rc * np.array([0.25, 1.0, 4.0])
        bend = np.where((bend > 0) & (bend < sig_max[:, None]), bend, np.nan)
        edges = np.sort(np.concatenate(
            [np.zeros((t.size, 1)), sig_max[:, None], cross, bend], axis=1), axis=1)
        g = self.g_prime if derivative else self.g
        for lo, hi, sig, w, own in _ragged_gauss(edges, top / 12.0, self.panel_order):
            rk, tk = r[lo:hi][own], t[lo:hi][own]
            s = np.sqrt(rk * rk + sig * sig)
            low = s == 0  # both squares underflow when r < 1e-162
            s[low] = np.hypot(rk[low], sig[low])
            ahead, behind = g(s + tk), g(s - tk)
            f = ahead + behind if derivative else ahead - behind
            out[live[lo:hi]] = -np.bincount(own, w * f / s, minlength=hi - lo) / TWO_PI
        return out.reshape(shape)

    def value(self, t, r):
        """Point value z(t, r), vectorized over broadcast arrays of t and r
        (a float for scalar t and r)."""
        z = self._abel(t, r, derivative=False)
        return z if z.ndim else float(z)

    def dt_value(self, t, r):
        """Time derivative z_t(t, r), vectorized as :meth:`value`."""
        z = self._abel(t, r, derivative=True)
        return z if z.ndim else float(z)

    # -- global radial quadrature of z(t, .) and z_t(t, .) -------------------

    def _front_panels(self, t):
        """Radial panel edges resolving the wave fronts at time t: images of
        every breakpoint circle, refined geometrically from the table's fine
        scale all the way up to the bulk panel scale (no coverage holes
        between the ladder and the bulk)."""
        fronts = set()
        for b in self.breaks:
            fronts.add(abs(t - b))
            fronts.add(t + b)
        top = t + self.support
        edges = {0.0, top}
        scale = max(self.fine_scale, 1e-14)
        bulk = top / 16.0
        for rf in fronts:
            if rf > top:
                continue
            edges.add(rf)
            step = scale
            while step < 2.0 * bulk:
                for cand in (rf - step, rf + step):
                    if 0.0 < cand < top:
                        edges.add(cand)
                step *= 2.0
        for v in np.linspace(0.0, top, 17)[1:-1]:
            edges.add(float(v))
        return np.unique(np.asarray(sorted(edges)))

    def l2_planar(self, t, derivative=False, order=16):
        """``L2(R^2)`` norm of z(t, .) (or z_t with ``derivative=True``) by
        front-refined radial quadrature."""
        rr, w = gauss_panel_nodes(self._front_panels(t), order)
        vals = self.dt_value(t, rr) if derivative else self.value(t, rr)
        return math.sqrt(TWO_PI * float(np.sum(w * vals * vals * rr)))

    def datum_l2_planar(self, order=48):
        """``L2(R^2)`` norm of the velocity datum itself."""
        edges = np.unique(np.concatenate([[0.0], self.breaks]))
        return planar_l2_from_radial(self.psi, edges, order)

    # -- strip scan ----------------------------------------------------------

    def strip_max(self, t_step=1.0 / 256.0, extra_times=(), r_candidates=None,
                  refine_rounds=3):
        """Largest |z| over the sampled strip [0,1] x {radii}.

        Scans a uniform time grid (plus caller-supplied structure-aware
        times), then refines locally around the winner in both t and r.
        Each stage is one batched evaluation; ties go to the earliest time,
        then the smallest radius index, of the scan order.
        Returns ``(m, t_at_max, r_at_max)``.
        """
        times = np.unique(np.concatenate(
            [np.arange(t_step, 1.0 + 1e-12, t_step), np.asarray(extra_times, dtype=float),
             [1.0]]))
        times = times[(times > 0) & (times <= 1.0)]

        def scan(ts, rs, best):
            z = np.abs(self._abel(ts, rs, derivative=False))
            k = int(np.argmax(z))
            return (float(z[k]), float(ts[k]), float(rs[k])) if z[k] > best[0] else best

        radii = [np.asarray(self._scan_radii(t) if r_candidates is None
                            else r_candidates(t), dtype=float) for t in times]
        m, tj, rj = scan(np.repeat(times, [rs.size for rs in radii]),
                         np.concatenate(radii), (0.0, float(times[0]), 0.0))
        dt = t_step
        dr = None
        for _ in range(refine_rounds):
            dt /= 8.0
            ts = tj + dt * np.arange(-8, 9)
            ts = ts[(ts > 0) & (ts <= 1.0)]
            if dr is None:
                rs_local = self._scan_radii(tj)
                sel = np.argsort(np.abs(rs_local - rj))[:9]
                rs_local = np.sort(rs_local[sel])
                dr = max(np.min(np.diff(rs_local)) if rs_local.size > 1 else 1e-3, 1e-12)
            else:
                dr /= 8.0
                rs_local = np.abs(rj + dr * np.arange(-8, 9))
            m, tj, rj = scan(np.repeat(ts, rs_local.size), np.tile(rs_local, ts.size),
                             (m, tj, rj))
        return m, tj, rj

    def _scan_radii(self, t):
        """Structure-aware candidate radii at time t: fronts of every
        breakpoint circle with geometric ladders spanning from the fine
        scale to the bulk, the origin, and a coarse sweep."""
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

def gaussian_origin_value(a: float, t: float, n: int, k_max=None, n_nodes=4000) -> float:
    """z(t, 0) for the free wave equation in R^n with data
    ``(0, exp(-a r^2))``, via the closed-form radial Fourier transform:

        z(t,0) = (2 pi)^{-n} * area(S^{n-1}) *
                 int_0^inf sin(t k) k^{n-2} (pi/a)^{n/2} exp(-k^2/(4a)) dk.

    Serves as an independent oracle for dimension-specific representation
    formulas.
    """
    if k_max is None:
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


def odd3_value(phi, t: float, r: float, support: float, order=64) -> float:
    """Exact 3-d radial solution via the 1-d reduction of ``r z``:
    ``z(t,r) = (1/(2r)) int_{r-t}^{r+t} s phi(|s|) ds`` (odd integrand)."""
    if r <= 1e-12:
        return odd3_origin_value(phi, t)
    lo, hi = r - t, r + t
    lo_c, hi_c = max(lo, -support), min(hi, support)
    if hi_c <= lo_c:
        return 0.0
    edges = np.linspace(lo_c, hi_c, 32)
    s, w = gauss_panel_nodes(edges, order)
    vals = s * np.asarray(phi(np.abs(s)))
    return float(np.sum(w * vals) / (2.0 * r))


# ---------------------------------------------------------------------------
# radial Sobolev norms on R^3 (for the odd-dimension data family)
# ---------------------------------------------------------------------------

def l2_sq_radial_3d(u, edges, order=16) -> float:
    """``int_{R^3} u(|x|)^2 dx = 4 pi int u(r)^2 r^2 dr`` on given panels."""
    r, w = gauss_panel_nodes(edges, order)
    v = np.asarray(u(r), dtype=float)
    return 4.0 * math.pi * float(np.sum(w * v * v * r * r))


def h_half_sq_radial_3d(u, edges, order=12, u_prime=None, diag_eps=1e-7) -> float:
    """Squared homogeneous H^(1/2)(R^3) seminorm of a radial function by the
    double-integral (Gagliardo) representation reduced over angles:

        |u|^2 = 8 int int (u(r) - u(rho))^2 r^2 rho^2 / (r^2 - rho^2)^2 dr drho.

    The reduction constant comes from ``int_{S^2} dw |x - y|^{-4}
    = 4 pi (r^2 - rho^2)^{-2}`` and the Gagliardo constant ``1/(2 pi^2)``
    for s = 1/2, n = 3.  Panel pairs that touch are integrated in the
    difference variable with a geometric ladder; the removable diagonal strip
    uses the ``u'(r)^2 r^2 / 4`` limit (requires ``u_prime`` when the profile
    is not given on a fine table).
    """
    edges = np.unique(np.asarray(edges, dtype=float))
    xg, wg = np.polynomial.legendre.leggauss(order)
    panels = []
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a > 0:
            panels.append((a, b, 0.5 * (b - a) * xg + 0.5 * (a + b), 0.5 * (b - a) * wg))
    total = 0.0
    # separated pairs: plain tensor quadrature
    for i, (a1, b1, r1, w1) in enumerate(panels):
        v1 = np.asarray(u(r1), dtype=float)
        for j, (a2, b2, r2, w2) in enumerate(panels):
            if abs(i - j) <= 1:
                continue
            v2 = np.asarray(u(r2), dtype=float)
            du = v1[:, None] - v2[None, :]
            denom = (r1[:, None] ** 2 - r2[None, :] ** 2) ** 2
            ker = du * du * (r1[:, None] ** 2) * (r2[None, :] ** 2) / denom
            total += float(np.sum(w1[:, None] * w2[None, :] * ker))
    # touching pairs (i == j or adjacent): integrate in w = rho - r with
    # geometric grading toward w = 0; a strip |w| < eps around the removable
    # diagonal uses the analytic limit u'(r)^2 r^2 / 4
    for i, (a1, b1, r1, w1) in enumerate(panels):
        for j in (i - 1, i, i + 1):
            if j < 0 or j >= len(panels):
                continue
            a2, b2, _, _ = panels[j]
            v1 = np.asarray(u(r1), dtype=float)
            for k, rk in enumerate(r1):
                lo, hi = a2 - rk, b2 - rk
                span = max(abs(lo), abs(hi))
                if span <= 0 or hi <= lo:
                    continue
                eps = diag_eps * max(rk, span)
                portions = []  # (near_mag, far_mag, sign) with 0 <= near < far
                if hi > 0:
                    portions.append((max(lo, 0.0), hi, 1.0))
                if lo < 0:
                    portions.append((max(-hi, 0.0), -lo, -1.0))
                contrib = 0.0
                strip_measure = 0.0
                for near, far, sgn in portions:
                    if far <= near:
                        continue
                    if near < eps:
                        strip_measure += min(eps, far) - near
                        near = eps
                    if far <= near:
                        continue
                    ladder = [near]
                    while ladder[-1] < far:
                        ladder.append(min(ladder[-1] * 4.0, far))
                    ww, wwt = gauss_panel_nodes(np.sort(sgn * np.asarray(ladder)), order)
                    if ww.size == 0:
                        continue
                    rho = rk + ww
                    mrho = rho > 0
                    if not np.any(mrho):
                        continue
                    rho, wwt2 = rho[mrho], wwt[mrho]
                    du = float(v1[k]) - np.asarray(u(rho), dtype=float)
                    ker = du * du * rk * rk * rho * rho / ((rk * rk - rho * rho) ** 2)
                    contrib += float(np.sum(wwt2 * ker))
                if strip_measure > 0 and u_prime is not None:
                    up = float(np.asarray(u_prime(np.asarray([rk])))[0])
                    contrib += up * up * rk * rk / 4.0 * strip_measure
                total += w1[k] * contrib
    # analytic far tail: the kernel decays only like rho^{-2}, so pairs with
    # one point beyond the last edge (where u vanishes) still carry
    # ``2 * int u(r)^2 r^2 T(r, R) dr`` with the closed-form remainder
    # T(r, R) = R/(2 (R^2-r^2)) - log((R-r)/(R+r))/(4 r).
    R = float(edges[-1])
    r_all, w_all = gauss_panel_nodes(edges, order)
    v_all = np.asarray(u(r_all), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_term = (np.log1p(-r_all / R) - np.log1p(r_all / R)) / (4.0 * r_all)
    tail_T = R / (2.0 * (R * R - r_all * r_all)) - log_term
    total += 2.0 * float(np.sum(w_all * v_all * v_all * r_all * r_all * tail_T))
    return 8.0 * total


def h_half_sq_shell_3d(T_logd, dT_logd, l_lo: float, d_out: float = 0.75,
                       far_edge: float = 40.0, order: int = 12,
                       panel_dl: float = 0.5) -> float:
    """Squared homogeneous H^(1/2)(R^3) seminorm of a sphere-shell profile
    ``u(x) = T(log |x - 1|-distance)`` given natively in the log-distance
    coordinate ``l = log d`` (so plateau widths far below float resolution
    of ``1 - r`` stay computable).

    ``T_logd(l)`` must be 1 for ``l <= l_lo`` (plateau) and 0 for
    ``d = e^l >= d_out``; ``dT_logd`` is its derivative in ``l``.  The double
    integral splits into shell-shell pairs (same side / opposite sides of
    the sphere, evaluated in ``l`` with the distance differences formed
    without cancellation), shell-far pairs, and the analytic far tail.
    """
    l_hi = math.log(d_out)
    n_panels = max(8, int(math.ceil((l_hi - (l_lo - 6.0)) / panel_dl)))
    edges_l = np.linspace(l_lo - 6.0, l_hi, n_panels + 1)
    xg, wg = _leggauss(order)
    panels = []
    for a, b in zip(edges_l[:-1], edges_l[1:]):
        panels.append((a, b, 0.5 * (b - a) * xg + 0.5 * (a + b), 0.5 * (b - a) * wg))

    def vals(larr):
        return np.asarray(T_logd(larr), dtype=float)

    total = 0.0
    # --- same-side pairs (factor 2: inside and outside mirror each other up
    #     to the (1 -+ d) geometry, handled per side) ---
    for side in (-1.0, 1.0):
        # separated panel pairs
        for i, (a1, b1, l1, w1) in enumerate(panels):
            d1 = np.exp(l1)
            t1 = vals(l1)
            r1 = 1.0 + side * d1
            for j, (a2, b2, l2, w2) in enumerate(panels):
                if abs(i - j) <= 1:
                    continue
                d2 = np.exp(l2)
                t2 = vals(l2)
                r2 = 1.0 + side * d2
                du = t1[:, None] - t2[None, :]
                diff = d1[:, None] - d2[None, :]
                s_ = 2.0 + side * (d1[:, None] + d2[None, :])
                ker = du * du * (r1[:, None] * r2[None, :]) ** 2 / (diff * diff * s_ * s_)
                # measure: dd dd' = d d' dl dl'
                total += float(np.sum((w1 * d1)[:, None] * (w2 * d2)[None, :] * ker))
            # touching pairs in w = l' - l with grading and analytic strip
            for j in (i - 1, i, i + 1):
                if j < 0 or j >= len(panels):
                    continue
                a2, b2, _, _ = panels[j]
                for k, lk in enumerate(l1):
                    dk = d1[k]
                    tk = t1[k]
                    rk = r1[k]
                    lo, hi = a2 - lk, b2 - lk
                    if hi <= lo:
                        continue
                    eps = 1e-7
                    portions = []
                    if hi > 0:
                        portions.append((max(lo, 0.0), hi, 1.0))
                    if lo < 0:
                        portions.append((max(-hi, 0.0), -lo, -1.0))
                    contrib = 0.0
                    strip = 0.0
                    for near, far, sgn in portions:
                        if far <= near:
                            continue
                        if near < eps:
                            strip += min(eps, far) - near
                            near = eps
                        if far <= near:
                            continue
                        ladder = [near]
                        while ladder[-1] < far:
                            ladder.append(min(ladder[-1] * 4.0, far))
                        ww, wwt = gauss_panel_nodes(np.sort(sgn * np.asarray(ladder)), order)
                        if ww.size == 0:
                            continue
                        lp = lk + ww
                        dp = np.exp(lp)
                        tp = vals(lp)
                        rp = 1.0 + side * dp
                        du = tk - tp
                        diff = dk - dp  # = dk (1 - e^w): no cancellation issue
                        s_ = 2.0 + side * (dk + dp)
                        ker = du * du * (rk * rp) ** 2 / (diff * diff * s_ * s_)
                        contrib += float(np.sum(wwt * ker * dp))
                    if strip > 0:
                        # limit of the integrand at l' -> l:
                        # (T(d)-T(d'))^2/(d-d')^2 -> (dT/dd)^2 = (dT/dl / d)^2
                        dT = float(np.asarray(dT_logd(np.asarray([lk])))[0])
                        ker0 = (dT / dk) ** 2 * rk ** 4 / (2.0 + side * 2.0 * dk) ** 2
                        contrib += ker0 * dk * dk * strip  # d d' dl' measure, d'~d
                    total += (w1[k] * dk) * contrib
    # --- opposite-side pairs (inside vs outside; both orderings -> 2x) ---
    for i, (a1, b1, l1, w1) in enumerate(panels):
        d1 = np.exp(l1)
        t1 = vals(l1)
        for j, (a2, b2, l2, w2) in enumerate(panels):
            d2 = np.exp(l2)
            t2 = vals(l2)
            du = t1[:, None] - t2[None, :]
            ssum = d1[:, None] + d2[None, :]
            s_ = 2.0 + (d2[None, :] - d1[:, None])  # r=1-d1, rho=1+d2
            r1r2 = (1.0 - d1)[:, None] * (1.0 + d2)[None, :]
            ker = du * du * r1r2 ** 2 / (ssum * ssum * s_ * s_)
            total += 2.0 * float(np.sum((w1 * d1)[:, None] * (w2 * d2)[None, :] * ker))
    # --- shell-far pairs: far radii in [0, 1-d_out] and [1+d_out, far_edge]
    #     (two disjoint intervals, never bridged); T vanishes there, the
    #     distances are O(d_out) so plain coordinates are safe (both
    #     orderings -> 2x) ---
    rf_parts, wf_parts = [], []
    for seg in (np.linspace(1e-9, 1.0 - d_out, 25),
                np.linspace(1.0 + d_out, far_edge, 40)):
        r_seg, w_seg = gauss_panel_nodes(seg, order)
        rf_parts.append(r_seg)
        wf_parts.append(w_seg)
    rf = np.concatenate(rf_parts)
    wf = np.concatenate(wf_parts)
    one_minus = 1.0 - rf  # exact in these ranges
    for side in (-1.0, 1.0):
        for (a1, b1, l1, w1) in panels:
            d1 = np.exp(l1)
            t1 = vals(l1)
            gap = one_minus[None, :] + side * d1[:, None]  # r_shell - rho
            ssum = 2.0 - one_minus[None, :] + side * d1[:, None]
            r1 = (1.0 + side * d1)
            ker = (t1[:, None] ** 2) * (r1[:, None] * rf[None, :]) ** 2 / (gap * gap * ssum * ssum)
            total += 2.0 * float(np.sum((w1 * d1)[:, None] * wf[None, :] * ker))
    # --- analytic tail beyond far_edge ---
    R = far_edge
    for side in (-1.0, 1.0):
        for (a1, b1, l1, w1) in panels:
            d1 = np.exp(l1)
            t1 = vals(l1)
            r1 = 1.0 + side * d1
            with np.errstate(divide="ignore", invalid="ignore"):
                log_term = (np.log1p(-r1 / R) - np.log1p(r1 / R)) / (4.0 * r1)
            tail_T = R / (2.0 * (R * R - r1 * r1)) - log_term
            total += 2.0 * float(np.sum(w1 * d1 * t1 * t1 * r1 * r1 * tail_T))
    return 8.0 * total


def l2_sq_shell_3d(T_logd, l_lo: float, d_out: float = 0.75, order: int = 12,
                   panel_dl: float = 0.5) -> float:
    """``int_{R^3} u^2`` for a sphere-shell profile in log-distance form."""
    l_hi = math.log(d_out)
    n_panels = max(8, int(math.ceil((l_hi - (l_lo - 6.0)) / panel_dl)))
    ll, wl = gauss_panel_nodes(np.linspace(l_lo - 6.0, l_hi, n_panels + 1), order)
    d = np.exp(ll)
    t = np.asarray(T_logd(ll), dtype=float)
    both = (1.0 - d) ** 2 + (1.0 + d) ** 2
    inner = float(np.sum(wl * d * t * t * both))
    # plateau core d < e^{l_lo - 6}: T = 1 exactly
    d0 = math.exp(l_lo - 6.0)
    core = ((1.0 + d0) ** 3 - (1.0 - d0) ** 3) / 3.0
    return 4.0 * math.pi * (inner + core)


def fourier_hs_sq_radial_3d(u, edges, s, k_max=200.0, order=12, nk=None,
                            homogeneous=True) -> float:
    """Squared H^s(R^3) norm of a radial function via the radial Fourier
    transform ``uhat(k) = (4 pi / k) int u(r) sin(k r) r dr`` and
    ``(2 pi)^{-3} int w(k)^2 |uhat|^2 4 pi k^2 dk``.  For cross-checking the
    double-integral route on profiles of moderate width."""
    r, w = gauss_panel_nodes(edges, 24)
    v = np.asarray(u(r), dtype=float)
    if nk is None:
        nk = max(400, int(k_max * np.max(edges) * 1.5))
    k_edges = np.linspace(1e-9, k_max, nk)
    k, kw = gauss_panel_nodes(k_edges, order)
    # uhat on the k nodes
    sin_kr = np.sin(np.outer(k, r))
    uhat = (4.0 * math.pi / k) * (sin_kr @ (w * v * r))
    wgt = k ** (2.0 * s) if homogeneous else (1.0 + k * k) ** s
    return float(np.sum(kw * wgt * uhat * uhat * k * k) * 4.0 * math.pi / (2.0 * math.pi) ** 3)
