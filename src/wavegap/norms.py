"""Norm machinery: Fourier-side Sobolev norms, difference operators,
fractional-integral seminorms and Besov norms on the torus.

Conventions
-----------
Discrete Lebesgue norms carry the cell measure ``h^dim``; the Fourier-side
norms are Parseval-normalized so that ``sobolev_norm(f, 0, False)`` equals
``lp_norm(f, 2)`` to machine precision, which matches the continuum
``(2*pi)^{-dim} * integral(|xi|^{2s} |fhat|^2)`` convention for compactly
supported data.  Fields are real, so the norms read the ``rfftn`` half
spectrum, each column weighted by its Hermitian multiplicity.

The characteristic-difference seminorms truncate the translation integral to
``|h| <= L/2`` and discretize it over lattice vectors grouped in dyadic
shells ``|h| in (L 2^{-a-1}, L 2^{-a}]``; shells with many vectors are
represented by a deterministic angular subsample whose mean is scaled by the
full shell count.  ``||Delta_h^l f||_p`` is even in ``h``, so a sampled
``+-h`` pair shares one term.
"""

from __future__ import annotations

import math

import numpy as np

from .field import ScalarField, TorusGrid, lattice_shift

__all__ = [
    "sobolev_norm",
    "lp_norm",
    "difference",
    "leibniz_expand",
    "fractional_integral_seminorm",
    "besov_norm",
    "rescale",
    "bump_family",
]

_ZERO_MODE_TOL = 1e-10
_MAX_SHELL_SAMPLE = 96


def lp_norm(f: ScalarField, p) -> float:
    """Discrete ``L^p`` norm ``(h^dim sum |f|^p)^(1/p)``; max norm for p=inf."""
    if p == float("inf") or p == "inf":
        return float(np.max(np.abs(f.values)))
    p = float(p)
    if p <= 0:
        raise ValueError("p must be positive")
    hd = f.grid.spacing ** f.grid.dim
    return float((hd * np.sum(np.abs(f.values) ** p)) ** (1.0 / p))


def sobolev_norm(f: ScalarField, s: float, homogeneous: bool = False) -> float:
    """Fourier-multiplier Sobolev norm of order ``s``.

    Homogeneous norms weight by ``|xi|^s`` with the zero mode excluded; the
    inhomogeneous weight is ``(1+|xi|^2)^(s/2)``.  Negative-order homogeneous
    norms require the zero Fourier mode to vanish (relative to the L2 norm),
    otherwise the function is not in the homogeneous space at all.  An order
    whose weight overflows on the grid is summed from log-weights, and one
    whose norm overflows is refused.
    """
    return _sobolev_norms(f, [(s, homogeneous)])[0]


def _sobolev_norms(f: ScalarField, orders) -> list:
    """:func:`sobolev_norm` for each ``(s, homogeneous)`` in ``orders``,
    all from one half spectrum of ``f``."""
    return _spectrum_norms(f.grid, np.fft.rfftn(f.values), orders)


def _spectrum_norms(grid: TorusGrid, F: np.ndarray, orders) -> list:
    """:func:`sobolev_norm` for each ``(s, homogeneous)`` in ``orders``, from
    the ``numpy.fft.rfftn`` half spectrum ``F`` of a real field on ``grid``:
    ``|F|^2`` counts twice in the interior columns, which stand for their
    Hermitian mirrors too, and once in column 0 and the Nyquist column, so
    its plain sum is Parseval's full-grid sum."""
    power = F.real ** 2 + F.imag ** 2
    power[..., 1:grid.n // 2] *= 2.0
    k, index = grid.wavenumber_classes()
    index = index[..., :grid.n // 2 + 1]
    scale = grid.spacing ** grid.dim / grid.n ** grid.dim
    out = []
    for s, homogeneous in orders:
        if homogeneous and s < 0:
            zero_amp = math.sqrt(scale) * abs(F.flat[0])
            l2 = math.sqrt(scale * float(np.sum(power)))  # Parseval
            if zero_amp > _ZERO_MODE_TOL * max(l2, 1e-300):
                raise ValueError(f"not in homogeneous H^{s}: zero mode {zero_amp:.3e} "
                                 f"exceeds {_ZERO_MODE_TOL:.0e} * L2")
        with np.errstate(divide="ignore", over="ignore"):
            w = k ** (2.0 * s) if homogeneous else (1.0 + k * k) ** s
        if homogeneous and s != 0.0:
            w[0] = 0.0  # class 0 is the zero mode alone; |xi|^0 = 1 keeps it: plain L2
        if np.all(np.isfinite(w)):
            out.append(math.sqrt(scale * _dot(np.take(w, index), power)))
            continue
        # the weight overflows: sum against the weights over the largest one,
        # then add half its log to the log of the root
        with np.errstate(divide="ignore", over="ignore"):
            lw = 2.0 * s * np.log(k) if homogeneous else s * np.log1p(k * k)
            if homogeneous:
                lw[0] = -np.inf
            top = np.max(lw)
            part = scale * _dot(np.take(np.exp(lw - top), index), power)
            norm = float(np.exp(0.5 * (top + np.log(part))))
        if not math.isfinite(norm):
            raise ValueError(f"the Sobolev norm of order s = {s} is not finite on this grid")
        out.append(norm)
    return out


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """``sum(a * b)`` over every axis in one fixed order: ``numpy.einsum``
    reduces without BLAS, whose ``ddot`` splits the sum by its thread count."""
    ax = "ijk"[:a.ndim]
    return float(np.einsum(f"{ax},{ax}->", a, b))


def difference(f: ScalarField, h_vec, order: int = 1) -> ScalarField:
    """Iterated forward difference ``Delta_h^order f`` along a lattice vector.

    Satisfies the group law ``Delta^i(Delta^j f) = Delta^(i+j) f`` exactly
    (it is a polynomial in the shift operator).
    """
    if not (1 <= order <= 8):
        raise ValueError("order must lie in [1, 8]")
    out = f
    for _ in range(order):
        out = lattice_shift(out, h_vec) - out
    return out


def leibniz_expand(f: ScalarField, g: ScalarField, h_vec, k: int) -> ScalarField:
    """Right-hand side of the discrete Leibniz rule for ``Delta^k (f g)``:
    ``sum_{l+m=k} C(k,l) Delta^l f_m Delta^m g`` with ``f_m`` the m-step
    translate of ``f``.  Agrees with ``difference(f*g, h, k)`` to roundoff.
    """
    if not (1 <= k <= 6):
        raise ValueError("k must lie in [1, 6]")
    h_vec = np.atleast_1d(np.asarray(h_vec, dtype=int))
    acc = np.zeros_like(f.values)
    for m in range(k + 1):
        ell = k - m
        fm = lattice_shift(f, m * h_vec)
        term = fm if ell == 0 else difference(fm, h_vec, ell)
        gterm = g if m == 0 else difference(g, h_vec, m)
        acc = acc + math.comb(k, ell) * term.values * gterm.values
    return ScalarField._own(f.grid, acc)


def _lattice_shells(grid: TorusGrid):
    """Dyadic shells of nonzero lattice vectors with |h| <= L/2.

    Returns a list of (radius_lo, radius_hi, vectors, full_count) with the
    vectors possibly subsampled (deterministically, by angular stride).
    """
    L, h = grid.half_width, grid.spacing
    jmax = grid.n // 4  # |j*h| <= L/2 per axis bound
    rng = np.arange(-jmax, jmax + 1)
    mesh = np.meshgrid(*([rng] * grid.dim), indexing="ij")
    J = np.stack([m.ravel() for m in mesh], axis=1)
    norms = np.sqrt(np.sum((J * h) ** 2, axis=1))
    keep = (norms > 0) & (norms <= L / 2)
    J, norms = J[keep], norms[keep]
    shells = []
    a = 1
    while L * 2.0 ** (-a) >= h:
        lo, hi = L * 2.0 ** (-a - 1), L * 2.0 ** (-a)
        m = (norms > lo) & (norms <= hi)
        vecs = J[m]
        if vecs.size:
            full = len(vecs)
            if full > _MAX_SHELL_SAMPLE:
                ang = np.arctan2(*(vecs[:, :2].T[::-1])) if grid.dim >= 2 else vecs[:, 0]
                order = np.argsort(ang, kind="stable")
                stride = full / _MAX_SHELL_SAMPLE
                pick = order[np.floor(stride * np.arange(_MAX_SHELL_SAMPLE)).astype(int)]
                vecs = vecs[pick]
            shells.append((lo, hi, vecs, full))
        a += 1
    return shells


def _difference_shell_sum(f: ScalarField, s: float, p: float, q: float):
    """Core h-integral shared by the fractional and Besov seminorms.

    Returns ``(value, per_shell)`` with
    ``value = (sum_h h^dim * ||Delta_h^l f||_p^q / |h|^(dim+s q))^(1/q)``,
    ``l = floor(s) + 1``.  Each ``Delta_h^l f`` is one shift of
    ``Delta_h^(l-1) f`` and one subtraction on raw arrays, summed at once;
    a sum that overflows is refused.
    """
    if float(s).is_integer():
        raise ValueError("s must be noninteger for the difference seminorm; "
                         "use sobolev_norm for integer orders")
    if s <= 0:
        raise ValueError("s must be positive")
    ell = int(math.floor(s)) + 1
    grid = f.grid
    shells = _lattice_shells(grid)
    if not shells:
        raise ValueError(f"no usable translation shells at n={grid.n}; grid too small")
    cell = grid.spacing ** grid.dim
    per_shell = []
    total = 0.0
    for lo, hi, vecs, full in shells:
        acc = 0.0
        terms = {}  # Delta_{-h}^l f(x) = (-1)^l Delta_h^l f(x - l h): one term per +-h pair
        for v in vecs:
            if tuple(-v) in terms:
                acc += terms[tuple(-v)]
                continue
            dist = math.sqrt(float(np.sum((v * grid.spacing) ** 2)))
            # an overflowing difference is refused by the finiteness checks
            with np.errstate(over="ignore"):
                prev = f if ell == 1 else difference(f, v, ell - 1)
                d = lattice_shift(prev, v).values - prev.values
                power_sum = _dot(d, d) if p == 2.0 else float(np.sum(np.abs(d) ** p))
            if not math.isfinite(power_sum):
                raise ValueError(f"difference along {tuple(v)} overflows the L^{p} sum")
            terms[tuple(v)] = cell * (cell * power_sum) ** (q / p) / dist ** (grid.dim + s * q)
            acc += terms[tuple(v)]
        acc *= full / len(vecs)
        per_shell.append({"shell": [lo, hi], "vectors": int(full),
                          "sampled": int(len(vecs)), "contribution": acc})
        total += acc
    return total ** (1.0 / q), per_shell


def fractional_integral_seminorm(f: ScalarField, s: float, p: float = 2.0,
                                 return_shells: bool = False):
    """Discretized double-integral seminorm with kernel
    ``|Delta_h^([s]+1) f|^p / |h|^(dim + s p)`` (equivalent to the
    homogeneous fractional Sobolev seminorm for p = 2)."""
    if not (1.0 < p < float("inf")):
        raise ValueError("p must lie in (1, inf)")
    val, shells = _difference_shell_sum(f, s, p, p)
    return (val, shells) if return_shells else val


def besov_norm(f: ScalarField, s: float, p: float = 2.0, q: float = 2.0,
               return_shells: bool = False):
    """Difference-quotient Besov norm: ``L^p`` plus the q-average of
    ``||Delta_h^([s]+1) f||_p`` weighted by ``|h|^{-(dim+s q)}``.

    With p = q = 2 this reproduces ``lp_norm(f,2) + fractional_integral_seminorm``
    exactly: both run through the same shell sum.
    """
    if not (1.0 < p < float("inf") and 1.0 < q < float("inf")):
        raise ValueError("p, q must lie in (1, inf)")
    semi, shells = _difference_shell_sum(f, s, p, q)
    val = lp_norm(f, p) + semi
    return (val, shells) if return_shells else val


def rescale(f: ScalarField, lam: float) -> ScalarField:
    """Scaling operator ``(S_lam f)(x) = f(lam x)`` on the same grid.

    The read is wrap-free: nodes whose image ``lam x`` falls outside the
    fundamental box read zero.  (A periodic read would be measure-preserving
    on the torus and could not satisfy the continuum scaling laws; the
    operator is meant for fields supported well inside the box.)  One
    linear-interpolation read, which at integer image coordinates returns the
    node values exactly; an outside node reads from coordinate -2, two nodes
    off the box, where the constant extension is exactly 0.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    from scipy import ndimage
    grid = f.grid
    n = grid.n
    target = lam * (np.arange(n) - n // 2)  # image of node k, in units of h
    inside = (target >= -n // 2) & (target < n // 2)
    coords = np.where(inside, target + n // 2, -2.0)
    mesh = np.meshgrid(*([coords] * grid.dim), indexing="ij")
    vals = ndimage.map_coordinates(f.values, np.stack(mesh), order=1,
                                   mode="grid-constant", cval=0.0)
    return ScalarField._own(grid, vals)


_BUMPS_PER_FIELD = 10


def bump_family(grid: TorusGrid, seed: int, count: int = 1):
    """Reproducible smooth test family: superpositions of _BUMPS_PER_FIELD
    Gaussian bumps with widths in [0.5, 2] and centers in the ball B(0, 6)."""
    return list(_bump_fields(grid, seed, count))


def _bump_fields(grid: TorusGrid, seed: int, count: int):
    """The fields of :func:`bump_family`, one at a time: each Gaussian factors
    over the axes, so a field is one contraction of per-axis 1-d Gaussians."""
    rng = np.random.default_rng(seed)
    x = grid.axis()
    ax = "ijk"[:grid.dim]
    for _ in range(count):
        draws = []
        for _ in range(_BUMPS_PER_FIELD):
            width = rng.uniform(0.5, 2.0)
            while True:
                c = rng.uniform(-6.0, 6.0, size=grid.dim)
                if np.sum(c * c) <= 36.0:
                    break
            draws.append((width, c, rng.uniform(-1.0, 1.0)))
        widths, centers, amps = (np.array(v) for v in zip(*draws))
        factors = np.exp(-(x[:, None] - centers.T[:, None, :]) ** 2 / (2.0 * widths ** 2))
        vals = np.einsum(f"b,{','.join(a + 'b' for a in ax)}->{ax}", amps, *factors,
                         optimize=True)
        yield ScalarField._own(grid, vals)
