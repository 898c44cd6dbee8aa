"""The benchmark tracer's bindings name callables that exist, so renaming or
deleting a traced name fails here and not only in a traced benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from wavegap.radial import RadialWave2D

TRACER = Path(__file__).resolve().parents[1] / "wavebench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("wavebench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    for name, module, cls, attr, _ in _tracer().BINDINGS:
        owner = importlib.import_module(module)
        # install wraps a method found in its class's own namespace, and a
        # function bound in its module (a wavegap module, or numpy.fft, which
        # wavegap calls through the module attribute)
        namespace = vars(getattr(owner, cls)) if cls is not None else vars(owner)
        assert callable(namespace.get(attr)), f"{name}: {attr} is not bound in {cls or module}"


def test_traced_point_evaluators_take_r():
    # the tracer's radii count reads the argument named r of value and dt_value
    for method in (RadialWave2D.value, RadialWave2D.dt_value):
        assert "r" in inspect.signature(method).parameters, method.__name__
