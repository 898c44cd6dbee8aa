"""wavegap: a numerical laboratory for wave-map solution-gap experiments.

Modules by responsibility: sampled fields and radial profiles
(:mod:`wavegap.field`), norm machinery (:mod:`wavegap.norms`), linear wave
propagation and point-value representations (:mod:`wavegap.wave`), radial
reductions (:mod:`wavegap.radial`), geodesic targets
(:mod:`wavegap.geometry`), the counterexample data factory
(:mod:`wavegap.construct`), experiment drivers (:mod:`wavegap.experiment`)
and the command-line interface (:mod:`wavegap.cli`).
"""

__version__ = "0.1.0"

from .field import RadialProfile, ScalarField, TorusGrid  # noqa: F401
from .wave import WaveState  # noqa: F401
