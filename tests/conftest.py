import math

import numpy as np
import pytest


def _full_spectrum_norm(f, s, homogeneous=False):
    """The Sobolev norm from its definition: one complex transform, |F|^2
    weighted mode by mode, the zero mode masked out of the homogeneous
    weight.  It sums every mode of the full spectrum, so it shares no
    half-spectrum multiplicities with the norm layer."""
    F = np.fft.fftn(f.values)
    K = np.sqrt(sum(k * k for k in f.grid.wavenumbers()))
    scale = f.grid.spacing ** f.grid.dim / f.grid.n ** f.grid.dim
    if not homogeneous:
        w2 = (1.0 + K * K) ** s
    elif s == 0.0:
        w2 = np.ones_like(K)
    else:
        w2 = np.zeros_like(K)
        w2[K > 0] = K[K > 0] ** (2.0 * s)
    return math.sqrt(scale * np.sum(w2 * np.abs(F) ** 2))


@pytest.fixture(scope="session")
def full_spectrum_norm():
    """``(f, s, homogeneous=False) -> float``: the reference Sobolev norm."""
    return _full_spectrum_norm


def _full_grid_multipliers(grid, tau):
    """``|k|`` at every Fourier node and ``cos``, ``sin`` and ``sin/|k|`` of
    ``tau |k|`` there (``tau`` at the zero mode), evaluated node by node."""
    K = np.sqrt(sum(k * k for k in grid.wavenumbers()))
    ck = np.cos(tau * K)
    sk = np.sin(tau * K)
    with np.errstate(divide="ignore", invalid="ignore"):
        sinc = np.where(K > 0, sk / np.where(K > 0, K, 1.0), tau)
    return K, ck, sk, sinc


def _full_grid_propagate(u, ut, tau):
    """Values of ``(u, u_t)`` a time ``tau`` later by the free-wave
    multipliers of :func:`_full_grid_multipliers`."""
    K, ck, sk, sinc = _full_grid_multipliers(u.grid, tau)
    U0, V0 = np.fft.fftn(u.values), np.fft.fftn(ut.values)
    return (np.fft.ifftn(ck * U0 + sinc * V0).real,
            np.fft.ifftn(-K * sk * U0 + ck * V0).real)


def _full_grid_laplacian(f):
    """The spectral Laplacian with ``-|k|^2`` formed at every node."""
    K = np.sqrt(sum(k * k for k in f.grid.wavenumbers()))
    return np.fft.ifftn(-(K * K) * np.fft.fftn(f.values)).real


@pytest.fixture(scope="session")
def full_grid_propagate():
    """``(u, ut, tau) -> (u, ut)`` values: the reference free-wave step."""
    return _full_grid_propagate


@pytest.fixture(scope="session")
def full_grid_laplacian():
    """``f -> values``: the reference spectral Laplacian."""
    return _full_grid_laplacian
