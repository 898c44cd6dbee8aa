"""wavegap benchmark: entry point.

One workload run:

    python3 wavebench/run.py --workload gap_pair --seed 0 --seconds 60 --trace 0

prints, as its last stdout line, ``{"correct", "attempted", "failed",
"metrics"}`` with the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``).  Without ``--workload`` it runs every workload at
the seed and prints each metric by name, unit and run count, including
``failed_frac``.  ``--write-spec`` writes ``BENCHMARK.json`` from the tables
below.  See ``wavebench/README.md``.

Every timed run is a fresh interpreter started here, one at a time, so no
module-level cache of ``wavegap`` carries over between runs.  Generated
configs and outputs go to a temporary directory under ``.wavebench/`` in
the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CALIBRATION = ROOT / "src" / "wavegap" / "_calibration.json"
WORK = ROOT / ".wavebench"

SETUP_SAMPLES = 5          # set-up times per run (median reported)
RUN_TIMEOUT_S = 170.0      # a whole run, children included, ends within this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Untraced runs only: glibc keeps freed blocks up to 32 MiB in the heap
# instead of unmapping them.  With the default thresholds every 512^2
# temporary is faulted in afresh, and the page-fault cost (about 6 s of
# system time on torus_suites) varied by 25 % between identical runs.  So
# the untraced wall_s understates allocation cost; the traced run keeps
# glibc's defaults, and process.minflt there records the churn.
MALLOC_VARS = {"MALLOC_MMAP_THRESHOLD_": "33554432",
               "MALLOC_TRIM_THRESHOLD_": "4294967296",
               "MALLOC_TOP_PAD_": "268435456"}

WORKLOADS = {
    "gap_pair": "sphere gap sweep at delta 0.01 with cold radial caches, then the "
                "flat negative control at the same delta on warm caches; two fresh processes",
    "torus_suites": "appendix and scaling suites plus four 512^2 difference seminorms; "
                    "FFT norms and ScalarField work, never the radial engine",
}
# Fresh-process repeats a run makes at least.  gap_pair's wall time moves
# most with host load, so its run takes the median of two processes.
MIN_REPEATS = {"gap_pair": 2, "torus_suites": 1}

# (name, unit, better, bound).  Identical runs on a shared 2-vCPU machine
# vary by 10 to 20 % in wall time (host contention; process CPU time moves
# with it), so wall_s gets the widest bound allowed (0.25); peak RSS
# spreads by under 1 % (IQR / median over ten seeds), so 0.03 catches a
# memory-for-speed trade of a few percent.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.03),
)

# (name, unit, better)
PER_LAYER = (
    ("radial.table_build.s", "s", "lower"),
    ("radial.table_build.calls", "count", "lower"),
    ("radial.table_build.nodes", "count", "lower"),
    ("radial.table_build.peak_rss_mb", "MB", "lower"),
    ("radial.value.s", "s", "lower"),
    ("radial.value.calls", "count", "lower"),
    ("radial.value.radii", "count", "lower"),
    ("radial.value.radii_per_s", "1/s", "higher"),
    ("radial.dt_value.s", "s", "lower"),
    ("radial.dt_value.calls", "count", "lower"),
    ("radial.dt_value.radii", "count", "lower"),
    ("radial.dt_value.radii_per_s", "1/s", "higher"),
    ("radial.l2_planar.s", "s", "lower"),
    ("radial.l2_planar.calls", "count", "lower"),
    ("radial.strip_max.s", "s", "lower"),
    ("construct.shell_wave.calls", "count", "lower"),
    ("construct.shell_wave.hit_ratio", "ratio", "higher"),
    ("construct.strip_normalize.s", "s", "lower"),
    ("construct.strip_normalize.calls", "count", "lower"),
    ("construct.choose_R.s", "s", "lower"),
    ("construct.focusing_sequence.s", "s", "lower"),
    ("construct.rescaled_family.s", "s", "lower"),
    ("construct.rescaled_family.calls", "count", "lower"),
    ("experiment.gap_run.self_s", "s", "lower"),
    ("experiment.appendix_ratio_suite.self_s", "s", "lower"),
    ("experiment.scaling_suite.self_s", "s", "lower"),
    ("wave.spectral_propagate.s", "s", "lower"),
    ("wave.spectral_propagate.calls", "count", "lower"),
    ("wave.energy.s", "s", "lower"),
    ("norms.sobolev_norm.s", "s", "lower"),
    ("norms.sobolev_norm.calls", "count", "lower"),
    ("norms.bump_family.s", "s", "lower"),
    ("norms.fractional_integral_seminorm.s", "s", "lower"),
    ("fft.calls", "count", "lower"),
    ("fft.points", "count", "lower"),
    ("field.ScalarField.init.calls", "count", "lower"),
    ("field.ScalarField.init.s", "s", "lower"),
    ("field.lattice_shift.calls", "count", "lower"),
    ("geometry.geodesic_constants.calls", "count", "lower"),
    ("geometry.moser_ratio.s", "s", "lower"),
    ("cli.sweep.overhead_s", "s", "lower"),
    ("process.minflt", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

RUN_SECONDS = 60

# Span name -> (workloads that must record at least one span, workloads
# that must record none).  A traced run that breaks this fails, so a
# binding the tracer missed cannot read as a speed-up.
_G, _T = "gap_pair", "torus_suites"
COVERAGE = {
    "radial.table_build": ({_G}, {_T}),
    "radial.value": ({_G}, {_T}),
    "radial.dt_value": ({_G}, {_T}),
    "radial.l2_planar": ({_G}, {_T}),
    "radial.strip_max": ({_G}, {_T}),
    "construct.shell_wave": ({_G}, {_T}),
    "construct.strip_normalize": ({_G}, {_T}),
    "construct.choose_R": ({_G}, {_T}),
    "construct.focusing_sequence": ({_G}, {_T}),
    "construct.rescaled_family": ({_G, _T}, set()),
    "experiment.gap_run": ({_G}, {_T}),
    "experiment.appendix_ratio_suite": ({_T}, {_G}),
    "experiment.scaling_suite": ({_T}, {_G}),
    "wave.spectral_propagate": ({_G, _T}, set()),
    "wave.energy": ({_T}, set()),
    "norms.sobolev_norm": ({_G, _T}, set()),
    "norms.bump_family": ({_T}, {_G}),
    "norms.fractional_integral_seminorm": ({_T}, {_G}),
    "fft.fftn": ({_G, _T}, set()),
    "fft.ifftn": ({_G, _T}, set()),
    "field.ScalarField.init": ({_G, _T}, set()),
    "field.lattice_shift": ({_T}, {_G}),
    "geometry.geodesic_constants": ({_G}, {_T}),
    "geometry.moser_ratio": ({_T}, {_G}),
    "cli.main": ({_G}, {_T}),
}


def spec():
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "wavebench/run.py"],
        "paths": ["wavebench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _scale(rng, seed):
    """1 at seed 0 (the pinned inputs), else uniform in [0.9, 1.1]."""
    return 1.0 if seed == 0 else 1.0 + 0.1 * rng.uniform(-1.0, 1.0)


def make_inputs(workload, seed, tmp):
    """Inputs of one workload at one seed.  Seeds move continuous inputs
    only (delta within +-10 %, the bump-family seeds); the delta count,
    grid sizes and pair counts never change.  Configs are written to
    ``tmp``."""
    rng = random.Random(f"{workload}:{seed}")
    inputs = {"seed": seed}
    if workload == "gap_pair":
        delta = 0.01 * _scale(rng, seed)
        inputs["deltas"] = [delta]
        for name, body in (
                ("sphere", "target = sphere_great_circle\ngrid_n = 512\ngrid_l = 16.0\n"),
                ("flat", "target = flat_line\nnegative_control = true\n")):
            path = tmp / f"{name}.cfg"
            path.write_text(f"[run]\nkind = gap\n{body}deltas = {delta!r}\n"
                            "lam = 0.1\nr0 = 0.5\nseed = 0\n")
            inputs[f"{name}_config"] = str(path)
    elif workload == "torus_suites":
        inputs.update(appendix_seed=7 + seed, pairs=100, bump_seed=77 + seed,
                      seminorm_n=512, seminorm_fields=4)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def child_env(trace=False):
    """The child's environment: single-threaded BLAS always; the malloc
    settings above without ``trace``, glibc's defaults with it.  The
    caller's environment cannot change either."""
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONPATH" and k != "GLIBC_TUNABLES" and not k.startswith("MALLOC_")}
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    if not trace:
        env.update(MALLOC_VARS)
    return env


def spawn(args, tmp, deadline, trace=False):
    """Run ``child.py`` once, killing it at ``deadline`` (``time.monotonic``),
    and return its result document."""
    result = tmp / "result.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--result", str(result)] + args
    cmd += ["--t-spawn", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=child_env(trace), cwd=tmp, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0 or not result.exists():
        raise RuntimeError(f"benchmark child failed (exit {proc.returncode}):\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(result.read_text())


def coverage_problems(workload, span_counts):
    problems = []
    for name, (exercised, bypass) in sorted(COVERAGE.items()):
        n = span_counts.get(name, 0)
        if workload in exercised and n == 0:
            problems.append(f"{name}: no span on {workload}, which exercises it")
        if workload in bypass and n > 0:
            problems.append(f"{name}: {n} spans on {workload}, which bypasses it")
    return problems


def run_workload(workload, seed, seconds, trace):
    """One benchmark run: set-up samples, then fresh-process iterations of
    the workload, at least ``MIN_REPEATS[workload]``, and more while the
    next one would still end within ``seconds``; a traced run makes one.
    Returns (result line, run record)."""
    if not CALIBRATION.exists():
        raise RuntimeError(f"{CALIBRATION} is missing; the benchmark needs the "
                           "committed calibration and never recalibrates")
    deadline = time.monotonic() + RUN_TIMEOUT_S
    checksum = _sha256(CALIBRATION)
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        inputs = make_inputs(workload, seed, tmp)
        inputs_path = tmp / "inputs.json"
        inputs_path.write_text(json.dumps(inputs))
        args = ["--workload", workload, "--inputs", str(inputs_path),
                "--trace", str(int(trace))]
        setups = []
        if not trace:
            setups = [spawn([], tmp, deadline)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
        iterations = []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            iterations.append(spawn(args, tmp, deadline, trace))
            last = time.monotonic() - t0
            now = time.monotonic()
            if trace or (len(iterations) >= MIN_REPEATS[workload]
                         and (now - start + last > seconds or now + last > deadline)):
                break
        if trace:
            shutil.copy(tmp / "spans.json", WORK / f"spans-{workload}.json")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if _sha256(CALIBRATION) != checksum:
        raise RuntimeError("src/wavegap/_calibration.json changed during the run")

    setups += [it["setup_s"] for it in iterations]
    ops = [op for it in iterations for op in it["ops"].values()]
    failed = [op for op in ops if not op["ok"]]
    problems = [p for it in iterations for name, op in it["ops"].items()
                for p in (f"{name}: {q}" for q in op["problems"])]
    if trace:
        missed = coverage_problems(workload, iterations[0]["span_counts"])
        if missed:
            raise RuntimeError("tracer coverage check failed:\n" + "\n".join(missed))
        metrics = {name: {"value": iterations[0]["layers"][name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        samples = {"wall_s": [it["wall_s"] for it in iterations],
                   "peak_rss_mb": [it["peak_rss_mb"] for it in iterations],
                   "setup_s": setups}
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit, _, _ in END_TO_END}
    line = {"correct": not failed and not problems, "attempted": len(ops),
            "failed": len(failed), "metrics": metrics}
    record = {"problems": problems, "versions": iterations[0]["versions"],
              "samples": None if trace else samples}
    return line, record


def environment(versions, trace=False):
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    env = child_env(trace)
    return {"versions": versions, "commit": commit, "nproc": os.cpu_count(),
            "threads": {v: env.get(v) for v in THREAD_VARS},
            "malloc": {v: env.get(v) for v in MALLOC_VARS}}  # None: glibc default


def high_percentile(values):
    """The highest percentile with at least ten runs beyond it, as
    ``(percent, value)``, or None with fewer than eleven runs."""
    n = len(values)
    if n < 11:
        return None
    k = n - 11  # ten sorted values lie above index k
    return 100.0 * (k + 1) / n, sorted(values)[k]


def summary(seed, seconds, repeats):
    """Every workload at one seed, ``repeats`` runs each; prints each
    end-to-end metric by name with unit, median, high percentile and run
    count, and ``failed_frac``."""
    ok = True
    for workload in WORKLOADS:
        per_metric, attempted, failed = {}, 0, 0
        for _ in range(repeats):
            line, record = run_workload(workload, seed, seconds, trace=False)
            attempted += line["attempted"]
            failed += line["failed"]
            for name, values in record["samples"].items():
                per_metric.setdefault(name, []).extend(values)
            for p in record["problems"]:
                print(f"  check failed: {p}")
        print(json.dumps({"workload": workload, "seed": seed,
                          "environment": environment(record["versions"])}))
        units = {n: u for n, u, _, _ in END_TO_END}
        for name, values in per_metric.items():
            hp = high_percentile(values)
            tail = f"p{hp[0]:.0f} {hp[1]:.4f}" if hp else "high percentile n/a (< 11 runs)"
            print(f"{workload:14s} {name:12s} median {statistics.median(values):10.4f} "
                  f"{units[name]:3s} {tail}; samples {len(values)}")
        frac = failed / attempted if attempted else math.nan
        print(f"{workload:14s} failed_frac  {frac:.4f} ratio ({failed}/{attempted} "
              f"operations); runs {repeats}")
        ok = ok and failed == 0
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeats", type=int, default=1,
                    help="runs per workload when no --workload is given")
    ap.add_argument("--write-spec", action="store_true",
                    help="write BENCHMARK.json at the repository root and exit")
    args = ap.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    try:
        if args.workload is None:
            return summary(args.seed, args.seconds, args.repeats)
        line, record = run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for p in record["problems"]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"environment": environment(record["versions"], bool(args.trace))}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
