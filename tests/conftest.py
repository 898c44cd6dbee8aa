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
