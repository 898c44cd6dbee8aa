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

One inverse-Abel evaluator serves ``value`` and ``dt_value``, the strip
scan and the front-refined L2 norms.  It streams a ``(t, r)`` batch in
blocks of ``_ABEL_BLOCK`` pairs (the ray-transform table in blocks of
``_TABLE_BLOCK`` rows): each block builds its own panel edges, integrates
them with ragged ``repeat``/``bincount`` Gauss rules in chunks of about
``_NODE_BUDGET`` nodes and writes its own slice of the result.  The blocks
run on a thread pool as wide as the CPUs the process may use (NumPy
releases the GIL in ``interp`` and the ufuncs).  A pair's panels, nodes
and summation order do not depend on its block or thread, so the values
do not depend on the block size or the pool width either.

For odd dimensions the classical exact reductions are used instead
(``r z`` solves the 1-d wave equation when n = 3).  The angle-reduced
H^(1/2)(R^3) Gagliardo integral is computed in ``r`` and in log-distance
by one pair rule over panels (``_gagliardo_square``) with one far tail.
"""

from __future__ import annotations

import math
import os

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


def _step_exps(x):
    """``x`` clipped to [0, 1] and the two exponentials of :func:`smooth_step`."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    a = np.zeros_like(x)
    b = np.zeros_like(x)
    m = x > 0
    a[m] = np.exp(-1.0 / x[m])
    m = x < 1
    b[m] = np.exp(-1.0 / (1.0 - x[m]))
    return x, a, b


def smooth_step(x):
    """C-infinity transition: 0 for x <= 0, 1 for x >= 1, strictly monotone
    between, built from exp(-1/x)."""
    _, a, b = _step_exps(x)
    return a / (a + b)


def smooth_step_and_d(x):
    """:func:`smooth_step` and its derivative (which vanishes to all orders
    at 0 and 1) from one pair of exponentials."""
    x, a, b = _step_exps(x)
    out = np.zeros_like(x)
    m = (x > 0) & (x < 1)
    xm, am, bm = x[m], a[m], b[m]
    da = am / xm ** 2
    db = -bm / (1.0 - xm) ** 2
    out[m] = (da * bm - am * db) / (am + bm) ** 2
    return a / (a + b), out


def smooth_step_d(x):
    """Derivative of :func:`smooth_step`."""
    return smooth_step_and_d(x)[1]


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
# arrays of 256 kB stay in cache, and one chunk's temporaries (about 5 MB)
# stay below the heap trim threshold that glibc's default malloc reaches in a
# gap run.  On a 2-vCPU x86 host a single-threaded delta-0.01 gap run took
# 9.7-10.3 s and 0.41 M minor page faults with 64k nodes, 8.0-8.3 s and
# 0.1 M with 32k (with malloc tuned never to trim, 64k was 5 % faster).
_NODE_BUDGET = 1 << 15

# (t, r) pairs and ray-table rows per streamed block.  Only one block's
# panel edges exist per thread; assembling them for the whole delta-0.01
# strip scan at once held 129 MB.
_ABEL_BLOCK = 2048
_TABLE_BLOCK = 1024

# Gauss order of the inverse-Abel panels
_ABEL_ORDER = 24

# Threads of one engine call; None: every CPU the process may run on.  The
# worker processes of a parallel gap run each take their share.
_WIDTH = None


def _cpus():
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _set_width(width):
    """Threads of each later engine call in this process (None: all CPUs)."""
    global _WIDTH
    _WIDTH = width


def _streamed(n, block, work):
    """``work(lo, hi)`` for the consecutive blocks ``lo:hi`` of ``range(n)``
    of ``block`` items, on a thread pool made for this call (so no thread
    outlives it).  A single block, or a width of 1, runs inline."""
    bounds = [(lo, min(lo + block, n)) for lo in range(0, n, block)]
    width = min(_WIDTH or _cpus(), len(bounds))
    if width <= 1:
        for lo, hi in bounds:
            work(lo, hi)
        return
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(width) as pool:
        list(pool.map(lambda b: work(*b), bounds))


def _ragged_gauss(edges, max_len, order, budget=_NODE_BUDGET):
    """Gauss-Legendre rules on the panels between consecutive entries of each
    row of sorted ``edges`` (rows padded with NaN).  A panel wider than its
    row's ``max_len`` is split in ``n = ceil(width / max_len)`` pieces at
    ``a + k (b - a) / n``, the last edge ``b``, as ``np.linspace`` places them.
    Yields ``(lo, hi, nodes, weights, owner)`` for runs of rows ``lo:hi`` of
    about ``budget`` nodes, nodes row by row in increasing order."""
    width = np.diff(edges, axis=1)
    counts = np.where(width > 0, np.maximum(np.ceil(width / max_len[:, None]), 1.0),
                      0.0).astype(np.int64)
    ends = np.cumsum(counts.sum(axis=1) * order)
    bounds = np.concatenate([[0], np.flatnonzero(np.diff(ends // budget)) + 1,
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
    s_table : array
        Nodes for the ray-transform table, clustered where the structure of
        the profile lives; its smallest spacing is the ``fine_scale``.
    breakpoints : sequence of float
        Radii where ``psi`` loses smoothness (panel edges are aligned with
        every crossing of these circles).
    psi_and_prime : callable, optional
        ``r -> (psi(r), psi'(r))`` from one pass over ``r``; required for
        time-derivative values (without it the table is differentiated).
    tau_edges : sequence of float, optional
        Extra radii that split the ray-transform quadrature only.
    """

    def __init__(self, psi, support, s_table, breakpoints=(), psi_and_prime=None,
                 tau_edges=None):
        self.psi = psi
        self.psi_and_prime = psi_and_prime
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
        s_table = np.unique(np.clip(np.concatenate(
            [np.asarray(s_table, dtype=float), self.breaks, [0.0, self.support]]),
            0.0, self.support))
        self._s = s_table
        self._g, self._gp = self._ray_transforms(s_table)
        if psi_and_prime is None:
            self._gp = np.gradient(self._g, self._s)
        # smallest table spacing: proxy for the finest resolved feature
        self.fine_scale = float(np.min(np.diff(s_table)))

    # -- ray (line-integral) transform of the datum --------------------------

    def _ray_transforms(self, s_arr):
        """Tabulate the ray transform g(s) = 2 int psi(sqrt(s^2 + tau^2)) dtau
        and (when the derivative profile is available) its s-derivative, in
        streamed blocks of table rows (:meth:`_ray_block`)."""
        g = np.zeros_like(s_arr)
        gp = np.zeros_like(s_arr)
        s = np.abs(s_arr)
        rows = np.flatnonzero(s < self.support)

        def work(lo, hi):
            g[rows[lo:hi]], gp[rows[lo:hi]] = self._ray_block(s[rows[lo:hi]])

        _streamed(rows.size, _TABLE_BLOCK, work)
        return g, gp

    def _ray_block(self, s):
        """``(g, g')`` at the radii ``0 <= s < support`` (``g'`` is zero
        without ``psi_and_prime``).  The tau panels end where the ray crosses
        a radial edge and, for entries with at most 24 edges, are capped at
        ``support / 12``."""
        g = np.zeros_like(s)
        gp = np.zeros_like(s)
        bb = self._all_radial_edges
        crossed = bb[None, :] > s[:, None]
        tau = np.sqrt(np.where(crossed, bb * bb - (s * s)[:, None], np.nan))
        edges = np.sort(np.concatenate([np.zeros((s.size, 1)), tau], axis=1), axis=1)
        n_edges = 1 + np.sum(np.diff(edges, axis=1) > 0, axis=1)
        max_len = np.where(n_edges > 24, np.inf, self.support / 12.0)
        for lo, hi, tt, wt, own in _ragged_gauss(edges, max_len, 16):
            sk = s[lo:hi][own]
            radii = np.sqrt(sk * sk + tt * tt)
            wts = 2.0 * wt
            if self.psi_and_prime is None:
                g[lo:hi] = np.bincount(
                    own, wts * np.asarray(self.psi(radii), dtype=float), minlength=hi - lo)
                continue
            f, fp = (np.asarray(v, dtype=float) for v in self.psi_and_prime(radii))
            g[lo:hi] = np.bincount(own, wts * f, minlength=hi - lo)
            vals = np.divide(fp * sk, radii, out=np.zeros_like(radii), where=radii > 0)
            gp[lo:hi] = np.bincount(own, wts * vals, minlength=hi - lo)
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
        of the broadcast ``(t, r)`` batch, in streamed blocks of pairs
        (:meth:`_abel_block`)."""
        t, r = np.broadcast_arrays(np.asarray(t, dtype=float),
                                   np.abs(np.asarray(r, dtype=float)))
        shape = t.shape
        t, r = t.ravel(), r.ravel()
        out = np.zeros(t.size)

        def work(lo, hi):
            out[lo:hi] = self._abel_block(t[lo:hi], r[lo:hi], derivative)

        _streamed(t.size, _ABEL_BLOCK, work)
        return out.reshape(shape)

    def _abel_block(self, t, r, derivative):
        """:meth:`_abel` at the pairs of 1-d arrays ``t`` and ``r >= 0``, in
        sigma with s' = sqrt(r^2 + sigma^2) up to s' = support + t.  Panel
        edges sit where s' -+ t crosses a breakpoint, where s' - t changes
        sign and at ``0.25 r``, ``r``, ``4 r`` (s'(sigma) bends there);
        panels are capped at (support + t)/12."""
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
        for lo, hi, sig, w, own in _ragged_gauss(edges, top / 12.0, _ABEL_ORDER):
            rk, tk = r[lo:hi][own], t[lo:hi][own]
            s = np.sqrt(rk * rk + sig * sig)
            low = s == 0  # both squares underflow when r < 1e-162
            s[low] = np.hypot(rk[low], sig[low])
            ahead, behind = g(s + tk), g(s - tk)
            f = ahead + behind if derivative else ahead - behind
            out[live[lo:hi]] = -np.bincount(own, w * f / s, minlength=hi - lo) / TWO_PI
        return out

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

    def l2_planar(self, t, derivative=False):
        """``L2(R^2)`` norm of z(t, .) (or z_t with ``derivative=True``) by
        front-refined radial quadrature."""
        rr, w = gauss_panel_nodes(self._front_panels(t), 16)
        vals = self.dt_value(t, rr) if derivative else self.value(t, rr)
        return math.sqrt(TWO_PI * float(np.sum(w * vals * vals * rr)))

    def datum_l2_planar(self):
        """``L2(R^2)`` norm of the velocity datum itself."""
        edges = np.unique(np.concatenate([[0.0], self.breaks]))
        return planar_l2_from_radial(self.psi, edges, 48)

    # -- strip scan ----------------------------------------------------------

    def strip_max(self, t_step=1.0 / 256.0, extra_times=()):
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

        radii = [self._scan_radii(t) for t in times]
        m, tj, rj = scan(np.repeat(times, [rs.size for rs in radii]),
                         np.concatenate(radii), (0.0, float(times[0]), 0.0))
        dt = t_step
        dr = None
        for _ in range(3):
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


def _blocked_sum(wx, wy, kernel):
    """``sum_ij wx_i wy_j K_ij`` with the rows ``K[a:b] = kernel(a, b)``
    formed in blocks of about ``_NODE_BUDGET`` entries."""
    step = max(1, _NODE_BUDGET // wy.size)
    total = 0.0
    for a in range(0, wx.size, step):
        b = min(a + step, wx.size)
        total += float(wx[a:b] @ kernel(a, b) @ wy)
    return total


# Ladder entries and Gauss nodes per touching-pair block of
# ``_gagliardo_square``.  Each node holds about 20 float temporaries: under
# tracemalloc the level-4 shell norm peaks at 2.4 MB (3.5 MB at 2^14, 10.8 MB
# at 2^16), in no more time.
_TOUCH_BUDGET = 1 << 13


def _gagliardo_square(edges, order, profile, density, limit, eps):
    """``int int density`` over ``[edges[0], edges[-1]]^2`` by Gauss rules of
    ``order`` on pairs of the panels between ``edges`` (strictly increasing).

    ``density(x, fx, y, fy)`` is given the profile values ``fx = profile(x)``
    and ``fy = profile(y)``; it is singular only on the removable diagonal,
    where it tends to ``limit(x)``.  Pairs of panels more than one apart are
    a masked tensor contraction.  For touching pairs every Gauss node ``x_k``
    integrates its own and its neighbouring panels in ``w = y - x_k`` on the
    geometric ladder ``near, 4 near, ..., far`` on each side of the
    diagonal; the strip ``|w| < eps(x_k, span)``, span the larger distance
    from ``x_k`` to the neighbour's ends, adds ``limit(x_k)`` times its
    measure.
    """
    x, wx = gauss_panel_nodes(edges, order)
    fx = np.asarray(profile(x), dtype=float)
    panel = np.repeat(np.arange(edges.size - 1), order)

    def separated(a, b):
        with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 on the diagonal
            dens = density(x[a:b, None], fx[a:b, None], x, fx)
        return np.where(np.abs(panel[a:b, None] - panel) > 1, dens, 0.0)

    total = _blocked_sum(wx, wx, separated)
    # touching pairs: one row per node k and panel j with |panel(k) - j| <= 1;
    # w > 0 on side 0 of each row, w < 0 on side 1
    k, j = np.divmod(np.arange(3 * x.size), 3)
    j += panel[k] - 1
    keep = (j >= 0) & (j < edges.size - 1)
    k, j = k[keep], j[keep]
    lo, hi = edges[j] - x[k], edges[j + 1] - x[k]
    e = eps(x[k], np.maximum(np.abs(lo), np.abs(hi)))
    near = np.stack([np.maximum(lo, 0.0), np.maximum(-hi, 0.0)])
    far = np.stack([hi, -lo])
    live = far > near
    cut = live & (near < e)
    strip = np.sum(np.where(cut, np.minimum(e, far) - near, 0.0), axis=0)
    total += float(np.sum(wx[k] * np.asarray(limit(x), dtype=float)[k] * strip))
    near = np.where(cut, e, near)
    live &= far > near
    ratio = np.max(far[live] / near[live], initial=1.0)
    m = np.arange(int(math.ceil(math.log(ratio, 4.0))) + 2)  # 4^m near reaches every far
    step = max(1, _TOUCH_BUDGET // (2 * m.size + 1))
    for c in range(0, k.size, step):
        # ladder edges -far .. -near, NaN, near .. far; NaN past a ladder's end
        n, f = near[:, c:c + step, None], far[:, c:c + step, None]
        ok = live[:, c:c + step, None] & (n * 4.0 ** (m - 1) < f)
        rung = np.where(ok, np.minimum(n * 4.0 ** m, f), np.nan)
        rows = np.concatenate([-rung[1, :, ::-1], np.full((rung.shape[1], 1), np.nan), rung[0]],
                              axis=1)
        kc = k[c:c + step]
        for a, b, w, wt, own in _ragged_gauss(rows, np.full(kc.size, np.inf), order,
                                              _TOUCH_BUDGET):
            xk = x[kc[a:b]][own]
            y = xk + w
            dens = density(xk, fx[kc[a:b]][own], y, np.asarray(profile(y), dtype=float))
            total += float(wx[kc[a:b]] @ np.bincount(own, wt * dens, minlength=b - a))
    return total


def _far_tail(r, R):
    """``T(r, R) = int_R^inf rho^2 / (r^2 - rho^2)^2 drho`` for ``r < R``
    in closed form, ``R/(2 (R^2-r^2)) - log((R-r)/(R+r))/(4 r)``.  The
    kernel decays only like ``rho^-2``, so the pairs with one point beyond
    ``R``, where the profile vanishes, still carry ``2 int u^2 r^2 T dr``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        log_term = (np.log1p(-r / R) - np.log1p(r / R)) / (4.0 * r)
    return R / (2.0 * (R * R - r * r)) - log_term


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

    def density(r, ur, rho, urho):
        du = ur - urho
        return np.where(rho > 0, du * du * r * r * rho * rho / (r * r - rho * rho) ** 2, 0.0)

    def limit(r):
        if u_prime is None:
            return np.zeros_like(r)
        return np.asarray(u_prime(r), dtype=float) ** 2 * r * r / 4.0

    total = _gagliardo_square(edges, order, u, density, limit,
                              lambda r, span: diag_eps * np.maximum(r, span))
    r, w = gauss_panel_nodes(edges, order)
    v = np.asarray(u(r), dtype=float)
    total += 2.0 * float(np.sum(w * v * v * r * r * _far_tail(r, edges[-1])))
    return 8.0 * total


def _shell_panels(l_lo, d_out, panel_dl):
    """Log-distance panel edges of the shell routes: from ``l_lo - 6`` (T is
    1 below) to ``log d_out``, panels at most ``panel_dl`` wide, at least 8."""
    l_hi = math.log(d_out)
    n_panels = max(8, int(math.ceil((l_hi - (l_lo - 6.0)) / panel_dl)))
    return np.linspace(l_lo - 6.0, l_hi, n_panels + 1)


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
    edges = _shell_panels(l_lo, d_out, panel_dl)
    sides = (-1.0, 1.0)

    def same_side(l, t, lp, tp):
        # r = 1 + s d and rho = 1 + s d' on both sides s; r - rho = s (d - d')
        # and the measure dr drho = d d' dl dl'
        d, dp = np.exp(l), np.exp(lp)
        q = (t - tp) ** 2 / (d - dp) ** 2 * d * dp
        return q * sum(((1.0 + s * d) * (1.0 + s * dp)) ** 2 / (2.0 + s * (d + dp)) ** 2
                       for s in sides)

    def limit(l):
        # the r route's u'(r)^2 r^2 / 4 with u' = T'(l) / d, times the d d'
        # of the measure at d' = d, on both sides
        d = np.exp(l)
        dT = np.asarray(dT_logd(l), dtype=float)
        return dT * dT * sum((1.0 + s * d) ** 2 for s in sides) / 4.0

    total = _gagliardo_square(edges, order, T_logd, same_side, limit, lambda l, span: 1e-7)
    l, wl = gauss_panel_nodes(edges, order)
    d = np.exp(l)
    t = np.asarray(T_logd(l), dtype=float)

    def opposite(a, b):
        # r = 1 - d inside, rho = 1 + d' outside (both orderings -> 2x)
        da, ta = d[a:b, None], t[a:b, None]
        return ((ta - t) ** 2 * ((1.0 - da) * (1.0 + d)) ** 2
                / ((da + d) ** 2 * (2.0 + d - da) ** 2) * da * d)

    total += 2.0 * _blocked_sum(wl, wl, opposite)
    # shell-far pairs: far radii in [0, 1-d_out] and [1+d_out, far_edge]
    # (two disjoint intervals, never bridged); T vanishes there, the
    # distances are O(d_out) so plain coordinates are safe (both
    # orderings -> 2x)
    far = [gauss_panel_nodes(seg, order) for seg in
           (np.linspace(1e-9, 1.0 - d_out, 25), np.linspace(1.0 + d_out, far_edge, 40))]
    rf = np.concatenate([p[0] for p in far])
    wf = np.concatenate([p[1] for p in far])
    one_minus = 1.0 - rf  # exact in these ranges

    def shell_far(a, b):
        da, ta = d[a:b, None], t[a:b, None]
        return ta * ta * da * sum(((1.0 + s * da) * rf) ** 2
                                  / ((one_minus + s * da) * (2.0 - one_minus + s * da)) ** 2
                                  for s in sides)

    total += 2.0 * _blocked_sum(wl, wf, shell_far)
    r = 1.0 + np.multiply.outer(sides, d)
    total += 2.0 * float(np.sum(wl * d * t * t * r * r * _far_tail(r, far_edge)))
    return 8.0 * total


def l2_sq_shell_3d(T_logd, l_lo: float, d_out: float = 0.75, order: int = 12,
                   panel_dl: float = 0.5) -> float:
    """``int_{R^3} u^2`` for a sphere-shell profile in log-distance form."""
    edges = _shell_panels(l_lo, d_out, panel_dl)
    ll, wl = gauss_panel_nodes(edges, order)
    d = np.exp(ll)
    t = np.asarray(T_logd(ll), dtype=float)
    both = (1.0 - d) ** 2 + (1.0 + d) ** 2
    inner = float(np.sum(wl * d * t * t * both))
    # plateau core d < e^{l_lo - 6}: T = 1 exactly
    d0 = math.exp(edges[0])
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
