"""Span tracer for the benchmark's traced runs.

The tracer wraps public callables of the ``wavegap`` modules from outside:
every module attribute that is the original function (``from .x import y``
creates one binding per importing module) and class methods on the class
itself.  Each call records a span ``[name, start, end, parent, attrs]``;
spans stay in memory and are turned into per-layer metrics at the end of
the run.  Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import functools
import inspect
import resource
import statistics
import sys
import time
from collections import Counter

import numpy as np

NAME, START, END, PARENT, ATTRS = range(5)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, attrs=None):
        """Return ``fn`` wrapped so each call records one span; ``attrs``
        maps the bound arguments (and result) to a dict kept on the span."""
        clock, spans, stack = self.clock, self.spans, self._stack
        sig = inspect.signature(fn) if attrs is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if attrs is not None:
                span[ATTRS] = attrs(sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced


def _radii(arguments, _result):
    return {"radii": int(np.size(arguments["r"]))}


def _table(arguments, _result):
    s_table = arguments.get("s_table")
    return {"nodes": 4096 if s_table is None else len(s_table),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def _points(arguments, _result):
    return {"points": int(np.size(arguments["a"]))}


# (span name, module, class or None, attribute, attrs function)
BINDINGS = (
    ("radial.table_build", "wavegap.radial", "RadialWave2D", "__init__", _table),
    ("radial.value", "wavegap.radial", "RadialWave2D", "value", _radii),
    ("radial.dt_value", "wavegap.radial", "RadialWave2D", "dt_value", _radii),
    ("radial.l2_planar", "wavegap.radial", "RadialWave2D", "l2_planar", None),
    ("radial.strip_max", "wavegap.radial", "RadialWave2D", "strip_max", None),
    ("construct.shell_wave", "wavegap.construct", None, "shell_wave", None),
    ("construct.strip_normalize", "wavegap.construct", None, "strip_normalize", None),
    ("construct.choose_R", "wavegap.construct", None, "choose_R", None),
    ("construct.focusing_sequence", "wavegap.construct", None, "focusing_sequence", None),
    ("construct.rescaled_family", "wavegap.construct", None, "rescaled_family", None),
    ("experiment.gap_run", "wavegap.experiment", None, "gap_run", None),
    ("experiment.appendix_ratio_suite", "wavegap.experiment", None,
     "appendix_ratio_suite", None),
    ("experiment.scaling_suite", "wavegap.experiment", None, "scaling_suite", None),
    ("wave.spectral_propagate", "wavegap.wave", None, "spectral_propagate", None),
    ("wave.energy", "wavegap.wave", None, "energy", None),
    ("norms.sobolev_norm", "wavegap.norms", None, "sobolev_norm", None),
    ("norms.bump_family", "wavegap.norms", None, "bump_family", None),
    ("norms.fractional_integral_seminorm", "wavegap.norms", None,
     "fractional_integral_seminorm", None),
    ("fft.fftn", "numpy.fft", None, "fftn", _points),
    ("fft.ifftn", "numpy.fft", None, "ifftn", _points),
    ("field.ScalarField.init", "wavegap.field", "ScalarField", "__post_init__", None),
    ("field.lattice_shift", "wavegap.field", None, "lattice_shift", None),
    ("geometry.geodesic_constants", "wavegap.geometry", None, "geodesic_constants", None),
    ("geometry.moser_ratio", "wavegap.geometry", None, "moser_ratio", None),
    ("cli.main", "wavegap.cli", None, "main", None),
)


def install(tracer, bindings=BINDINGS):
    """Wrap every binding site of each entry; returns ``{span name: number
    of sites wrapped}``.  Functions are replaced in every loaded
    ``wavegap`` module that holds them, methods on their class."""
    sites = {}
    for name, module, cls, attr, attrs in bindings:
        owner = sys.modules[module]
        if cls is not None:
            klass = getattr(owner, cls)
            setattr(klass, attr, tracer.wrap(name, klass.__dict__[attr], attrs))
            sites[name] = 1
            continue
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original, attrs)
        holders = [owner] + [m for key, m in list(sys.modules.items())
                             if m is not None and m is not owner
                             and (key == "wavegap" or key.startswith("wavegap."))]
        count = 0
        for mod in holders:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    count += 1
        sites[name] = count
    return sites


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def covered(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Per span: duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for sp in spans:
        if sp[PARENT] >= 0:
            children[sp[PARENT]].append((sp[START], sp[END]))
    return [sp[END] - sp[START] - covered(ch) for sp, ch in zip(spans, children)]


def outermost(spans, name):
    """Spans called ``name`` with no ancestor of the same name (so nested
    calls are not counted twice in inclusive times)."""
    out = []
    for sp in spans:
        if sp[NAME] != name:
            continue
        p = sp[PARENT]
        while p >= 0 and spans[p][NAME] != name:
            p = spans[p][PARENT]
        if p < 0:
            out.append(sp)
    return out


def span_counts(spans):
    return dict(Counter(sp[NAME] for sp in spans))


def layer_metrics(spans):
    """Per-layer metrics of one traced run (without ``trace.overhead_s``,
    which needs the calibration in :func:`overhead_per_span`)."""
    def named(name):
        return [sp for sp in spans if sp[NAME] == name]

    def incl(name):
        return sum(sp[END] - sp[START] for sp in outermost(spans, name))

    def attr_sum(name, key):
        return sum(sp[ATTRS][key] for sp in named(name) if sp[ATTRS])

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    self_t = self_times(spans)
    m = {}
    builds = named("radial.table_build")
    m["radial.table_build.s"] = incl("radial.table_build")
    m["radial.table_build.calls"] = len(builds)
    m["radial.table_build.nodes"] = attr_sum("radial.table_build", "nodes")
    m["radial.table_build.peak_rss_mb"] = max(
        (sp[ATTRS]["peak_rss_mb"] for sp in builds if sp[ATTRS]), default=0.0)
    for op in ("value", "dt_value"):
        key = f"radial.{op}"
        m[f"{key}.s"] = incl(key)
        m[f"{key}.calls"] = len(named(key))
        m[f"{key}.radii"] = attr_sum(key, "radii")
        m[f"{key}.radii_per_s"] = ratio(m[f"{key}.radii"], m[f"{key}.s"])
    m["radial.l2_planar.s"] = incl("radial.l2_planar")
    m["radial.l2_planar.calls"] = len(named("radial.l2_planar"))
    m["radial.strip_max.s"] = incl("radial.strip_max")

    shell_ids = {i for i, sp in enumerate(spans) if sp[NAME] == "construct.shell_wave"}
    misses = sum(1 for sp in builds if sp[PARENT] in shell_ids)
    m["construct.shell_wave.calls"] = len(shell_ids)
    m["construct.shell_wave.hit_ratio"] = 1.0 - ratio(misses, len(shell_ids)) if shell_ids else 0.0
    m["construct.strip_normalize.s"] = incl("construct.strip_normalize")
    m["construct.strip_normalize.calls"] = len(named("construct.strip_normalize"))
    for key in ("construct.choose_R", "construct.focusing_sequence"):
        m[f"{key}.s"] = incl(key)
    m["construct.rescaled_family.s"] = incl("construct.rescaled_family")
    m["construct.rescaled_family.calls"] = len(named("construct.rescaled_family"))
    for key in ("experiment.gap_run", "experiment.appendix_ratio_suite",
                "experiment.scaling_suite"):
        m[f"{key}.self_s"] = sum(t for sp, t in zip(spans, self_t) if sp[NAME] == key)
    m["wave.spectral_propagate.s"] = incl("wave.spectral_propagate")
    m["wave.spectral_propagate.calls"] = len(named("wave.spectral_propagate"))
    m["wave.energy.s"] = incl("wave.energy")
    m["norms.sobolev_norm.s"] = incl("norms.sobolev_norm")
    m["norms.sobolev_norm.calls"] = len(named("norms.sobolev_norm"))
    m["norms.bump_family.s"] = incl("norms.bump_family")
    m["norms.fractional_integral_seminorm.s"] = incl("norms.fractional_integral_seminorm")
    m["fft.calls"] = len(named("fft.fftn")) + len(named("fft.ifftn"))
    m["fft.points"] = attr_sum("fft.fftn", "points") + attr_sum("fft.ifftn", "points")
    m["field.ScalarField.init.calls"] = len(named("field.ScalarField.init"))
    m["field.ScalarField.init.s"] = incl("field.ScalarField.init")
    m["field.lattice_shift.calls"] = len(named("field.lattice_shift"))
    m["geometry.geodesic_constants.calls"] = len(named("geometry.geodesic_constants"))
    m["geometry.moser_ratio.s"] = incl("geometry.moser_ratio")

    overhead = 0.0
    for i, sp in enumerate(spans):
        if sp[NAME] == "cli.main":
            dispatched = sum(c[END] - c[START] for c in spans
                             if c[PARENT] == i and c[NAME] == "experiment.gap_run")
            overhead += sp[END] - sp[START] - dispatched
    m["cli.sweep.overhead_s"] = overhead
    return m


def overhead_per_span(batches=5, calls=20000):
    """Traced minus untraced cost of one call to a no-op, in seconds (median
    over batches).  ``trace.overhead_s`` is this times the span count."""
    def noop(a, b=None):
        return a

    tracer = Tracer()
    traced = tracer.wrap("calibration", noop)
    diffs = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop(1, b=2)
        t1 = time.perf_counter()
        for _ in range(calls):
            traced(1, b=2)
        t2 = time.perf_counter()
        tracer.spans.clear()
        diffs.append(((t2 - t1) - (t1 - t0)) / calls)
    return max(statistics.median(diffs), 0.0)
