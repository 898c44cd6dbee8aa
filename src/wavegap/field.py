"""Sampled-field substrate: periodic grids, radial profiles, embedding, I/O.

Everything downstream (norms, propagators, experiment drivers) works on the
two containers defined here: scalar fields sampled on a periodic box
``[-L, L)^dim`` and radial profiles given by their exact callables.  Fields
are immutable after construction; all operations return new objects.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "TorusGrid",
    "ScalarField",
    "RadialProfile",
    "WaveState",
    "sample",
    "radial_embed",
    "integrate",
    "lattice_shift",
    "save_field",
    "load_field",
    "save_state",
    "load_state",
]

_MAGIC = b"WGF1"


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic lattice on ``[-L, L)^dim``.

    Parameters
    ----------
    dim : int
        Spatial dimension, one of {1, 2, 3}.
    half_width : float
        Half side length ``L``; the box is ``[-L, L)`` per axis.
    n : int
        Points per dimension; must be even and at least 8 so the Nyquist
        mode is unambiguous.
    """

    dim: int
    half_width: float
    n: int

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if not (math.isfinite(self.half_width) and self.half_width > 0):
            raise ValueError(f"half_width must be finite and positive, got {self.half_width}")
        if self.n < 8 or self.n % 2:
            raise ValueError(f"n must be even and >= 8, got {self.n}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    def axis(self) -> np.ndarray:
        """Lattice coordinates along one axis: ``x_k = -L + k h``."""
        return -self.half_width + self.spacing * np.arange(self.n)

    def coords(self) -> tuple:
        """Meshgrid of coordinates, one array per dimension ('ij' order)."""
        ax = self.axis()
        return np.meshgrid(*([ax] * self.dim), indexing="ij")

    def radius(self) -> np.ndarray:
        """Distance to the origin at each lattice node."""
        return np.sqrt(sum(c * c for c in self.coords()))

    def wavenumbers(self) -> tuple:
        """Angular wavenumbers per axis matching ``numpy.fft.fftn`` layout."""
        k = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.spacing)
        return np.meshgrid(*([k] * self.dim), indexing="ij")

    @functools.lru_cache(maxsize=4)
    def wavenumber_classes(self) -> tuple:
        """``(k, index)``: the sorted distinct ``|k|`` of the Fourier nodes and, per
        node, the position of its ``|k|`` in ``k`` (class 0 is the zero mode alone);
        read-only, computed once per grid (the cache is keyed on the frozen grid)."""
        K = np.sqrt(sum(k * k for k in self.wavenumbers()))
        k, index = np.unique(K, return_inverse=True)
        k.setflags(write=False)
        index.setflags(write=False)
        return k, index.reshape(K.shape)  # NumPy < 2 returns the index flat


@dataclass(frozen=True)
class ScalarField:
    """Real scalar field on a :class:`TorusGrid`, row-major values; read-only,
    validated and (unless built by :meth:`_own`) copied on construction."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        self._adopt(np.asarray(self.values, dtype=float).copy())

    @classmethod
    def _own(cls, grid: TorusGrid, values: np.ndarray, finite: bool = False) -> "ScalarField":
        """Field over a freshly computed float array that nothing else
        references: shape check and, unless ``finite`` vouches for the
        values, finiteness check; no defensive copy."""
        f = object.__new__(cls)
        f.__dict__["grid"] = grid
        f._adopt(values, finite)
        return f

    def _adopt(self, v: np.ndarray, finite: bool = False) -> None:
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        if not finite and not np.all(np.isfinite(v)):
            bad = np.argwhere(~np.isfinite(v))[0]
            raise ValueError(f"non-finite value at lattice index {tuple(bad)}")
        v.setflags(write=False)
        self.__dict__["values"] = v

    def __add__(self, other):
        self._check(other)
        return ScalarField._own(self.grid, self.values + other.values)

    def __sub__(self, other):
        self._check(other)
        return ScalarField._own(self.grid, self.values - other.values)

    def __mul__(self, c):
        if isinstance(c, ScalarField):
            self._check(c)
            return ScalarField._own(self.grid, self.values * c.values)
        return ScalarField._own(self.grid, self.values * float(c))

    __rmul__ = __mul__

    def _check(self, other):
        if other.grid != self.grid:
            raise ValueError("fields live on different grids")


@dataclass(frozen=True)
class WaveState:
    """Pair (u, u_t) at time ``t``: what the propagators evolve, and the one
    holder of a wave's time."""

    u: ScalarField
    ut: ScalarField
    t: float = 0.0

    def __post_init__(self):
        if self.u.grid != self.ut.grid:
            raise ValueError("u and ut live on different grids")
        if not math.isfinite(self.t):
            raise ValueError(f"state time must be finite, got {self.t}")

    @property
    def grid(self):
        return self.u.grid


@dataclass(frozen=True)
class RadialProfile:
    """Radial function ``x -> f(|x|)`` given by its exact callable ``f``.

    ``support_radius`` is the radius beyond which ``f`` vanishes (``inf``
    without compact support).  ``f_and_prime``, if declared, gives
    ``(f(r), f'(r))`` in one pass over ``r >= 0``.  ``smoothness_radii`` (a
    finite support among them) are where ``f`` is not smooth; ``panel_edges``,
    sorted, holding them and ending at a finite support, are the radii where
    every quadrature over the profile puts a panel edge.
    """

    f: object
    support_radius: float = math.inf
    panel_edges: tuple = ()
    f_and_prime: object = None
    smoothness_radii: tuple = ()

    def __post_init__(self):
        kinks = {float(b) for b in self.smoothness_radii}
        if math.isfinite(self.support_radius):
            kinks.add(float(self.support_radius))
        edges = kinks | {float(b) for b in self.panel_edges}
        object.__setattr__(self, "smoothness_radii", tuple(sorted(kinks)))
        object.__setattr__(self, "panel_edges", tuple(sorted(edges)))

    def __call__(self, r) -> np.ndarray:
        return np.asarray(self.f(np.abs(np.asarray(r, dtype=float))), dtype=float)

    def prime(self, r) -> np.ndarray:
        """The declared radial derivative ``f'(|r|)``; refuses a profile that
        declares none."""
        if self.f_and_prime is None:
            raise ValueError("the profile declares no derivative (f_and_prime)")
        return np.asarray(self.f_and_prime(np.abs(np.asarray(r, dtype=float)))[1], dtype=float)


def sample(f, grid: TorusGrid) -> ScalarField:
    """Evaluate ``f(x_1, ..., x_dim)`` at every lattice node.

    Raises with the offending node location if the function returns a
    non-finite value anywhere.
    """
    vals = np.asarray(f(*grid.coords()), dtype=float)
    if vals.shape != grid.shape:
        vals = np.broadcast_to(vals, grid.shape).copy()
    if not np.all(np.isfinite(vals)):
        idx = tuple(np.argwhere(~np.isfinite(vals))[0])
        pos = tuple(grid.axis()[i] for i in idx)
        raise ValueError(f"sampled function not finite at node {idx} (x = {pos})")
    return ScalarField(grid, vals)


def radial_embed(profile: RadialProfile, grid: TorusGrid) -> ScalarField:
    """Embed a radial profile as a scalar field, value = profile(|x|)."""
    return ScalarField(grid, profile(grid.radius()))


def integrate(f: ScalarField) -> float:
    """Rectangle-rule integral ``h^dim * sum(values)`` (exact on the torus
    for band-limited integrands)."""
    return float(f.grid.spacing ** f.grid.dim * np.sum(f.values))


def remove_lattice_mean(f: ScalarField) -> ScalarField:
    """Subtract the lattice mean.

    For a continuum-mean-zero function the rectangle-rule sum carries a
    sampling residue (the per-node correction is far below sampling error);
    removing it makes the discrete field satisfy the continuum identity
    exactly, so zero-mode-sensitive norms are well-defined."""
    return ScalarField._own(f.grid, f.values - float(np.mean(f.values)))


def lattice_shift(f: ScalarField, j) -> ScalarField:
    """Periodic shift by an integer lattice vector: ``g(x) = f(x + j*h)``.

    Exactly invertible: shifting by ``-j`` restores the field bit for bit
    (values are only moved, by ``numpy.roll`` over all axes at once).
    The shift of a field is as finite as the field, so it is not scanned.
    """
    j = np.atleast_1d(np.asarray(j, dtype=int))
    if j.size != f.grid.dim:
        raise ValueError(f"shift vector length {j.size} != dim {f.grid.dim}")
    vals = np.roll(f.values, tuple(-j), axis=tuple(range(f.grid.dim)))
    return ScalarField._own(f.grid, vals, finite=True)


# ---------------------------------------------------------------------------
# serialization: little-endian binary container plus a JSON mirror
# ---------------------------------------------------------------------------

def _header(grid: TorusGrid, t: float) -> bytes:
    return _MAGIC + struct.pack("<4d", float(grid.dim), float(grid.n),
                                float(grid.half_width), t)


def save_field(f: ScalarField, path) -> None:
    """Write a field: ``.json`` paths get the sidecar mirror, anything else the
    binary container (a header of four little-endian f64, NaN in the time
    slot, then row-major f64 values)."""
    path = Path(path)
    if path.suffix == ".json":
        doc = {"dim": f.grid.dim, "n": f.grid.n, "half_width": f.grid.half_width,
               "values": f.values.ravel().tolist()}
        path.write_text(json.dumps(doc))
        return
    with open(path, "wb") as fh:
        fh.write(_header(f.grid, math.nan))
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def load_field(path) -> ScalarField:
    """Read a field; a header or mirror time (older files carry one) is ignored."""
    path = Path(path)
    if path.suffix == ".json":
        doc = json.loads(path.read_text())
        try:
            grid = _grid(path, "field", doc["dim"], doc["half_width"], doc["n"])
            vals = np.asarray(doc["values"], dtype=float).reshape(grid.shape)
        except (KeyError, TypeError) as e:  # not an object, or a key missing or mistyped
            raise ValueError(f"{path}: not a field document: {e!r}") from e
        return ScalarField(grid, vals)
    grid, _, (vals,) = _read_container(path, "field", 1)
    return ScalarField(grid, vals)


def save_state(state: WaveState, path) -> None:
    """Binary container of a state: the header with its time, then u and u_t."""
    with open(path, "wb") as fh:
        fh.write(_header(state.grid, state.t))
        fh.write(np.ascontiguousarray(state.u.values, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(state.ut.values, dtype="<f8").tobytes())


def load_state(path) -> WaveState:
    grid, t, (u, ut) = _read_container(path, "state", 2)
    return WaveState(ScalarField(grid, u), ScalarField(grid, ut), t)


def _grid(path, kind, dim, half_width, n):
    """The grid a file declares, refusing a ``dim`` or ``n`` that is not whole."""
    if not (float(dim).is_integer() and float(n).is_integer()):
        raise ValueError(f"{path}: {kind} dim and n must be integers, got {dim!r} and {n!r}")
    return TorusGrid(int(dim), float(half_width), int(n))


def _read_container(path, kind, n_arrays):
    """Grid, header time and the value arrays of a binary container."""
    raw = Path(path).read_bytes()
    if raw[:4] != _MAGIC:
        raise ValueError(f"{path}: not a {kind} container")
    if len(raw) < 36:
        raise ValueError(f"{path}: {len(raw)} bytes, shorter than the 36-byte {kind} header")
    dim, n, half_width, t = struct.unpack("<4d", raw[4:36])
    if not np.all(np.isfinite([dim, n, half_width])):
        raise ValueError(f"{path}: non-finite grid in the {kind} header")
    grid = _grid(path, kind, dim, half_width, n)
    size = 8 * grid.n ** grid.dim
    if len(raw) < 36 + n_arrays * size:
        raise ValueError(f"{path}: payload of {len(raw) - 36} bytes, a {kind} on this grid "
                         f"needs {n_arrays} x {grid.n}^{grid.dim} f64 values")
    return grid, t, [np.frombuffer(raw[36 + i * size:36 + (i + 1) * size], dtype="<f8")
                     .reshape(grid.shape) for i in range(n_arrays)]
