"""Command-line entry point: norms, propagation, point values, data
factories, experiment sweeps and report merging.

Every run writes a manifest next to its outputs (config echo, input/output
paths with content checksums, wall time; for ``propagate`` the state's
grid).  Exit codes: 0 for success / pass verdict, 2 for a fail verdict, 1
for errors.  Stdout carries machine-parseable JSON lines only.  Every JSON
file and stdout line is strict JSON: a NaN or infinite value is an error,
raised before anything is written.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import construct, experiment, field, norms, wave

ARTIFACT_VERSION = "0.1.0"


def _strict_json(doc, where, **kw):
    """``doc`` as strict JSON; a NaN or infinity is refused, naming ``where``."""
    try:
        return json.dumps(doc, allow_nan=False, **kw)
    except ValueError as e:
        raise ValueError(f"nothing written to {where}: {e}") from None


def _emit(obj):
    sys.stdout.write(_strict_json(obj, "stdout") + "\n")


def _write_json(path, doc):
    """Write ``doc`` to ``path`` as strict JSON, making its directory."""
    text = _strict_json(doc, path, indent=1)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def _write_manifest(out_dir, name, sub, config, inputs, outputs, t0, grid=None):
    man = {
        "subcommand": sub,
        "config": config,
        "inputs": [str(p) for p in inputs],
        "outputs": [{"path": str(p), "sha256": hashlib.sha256(Path(p).read_bytes()).hexdigest()}
                    for p in outputs],
        "artifact_version": ARTIFACT_VERSION,
        "wall_time_s": round(time.time() - t0, 3),
        "grid": grid,
    }
    return _write_json(Path(out_dir) / f"{name}.manifest.json", man)


# keys a certified run does not read: it pins lam and mu and builds no grid
_CERTIFIED_UNREAD = frozenset({"lam", "grid_n", "grid_l", "negative_control"})


def _config_value(sec, key, annotation):
    """The ``[run]`` value of ``key`` read as the ``GapRunConfig`` field
    annotated ``annotation``."""
    if annotation == "bool":
        return sec.getboolean(key)
    if annotation == "tuple":
        return tuple(float(v) for v in sec[key].split(","))
    if annotation == "dict":
        val = json.loads(sec[key])
        if not isinstance(val, dict):
            raise ValueError(f"not a JSON object: {sec[key]}")
        return val
    return {"str": str, "int": int, "float": float, "float | None": float}[annotation](sec[key])


def _load_config(path):
    """``(kind, GapRunConfig)`` of a sweep config file: one ``[run]`` section
    of ``GapRunConfig`` keys plus ``kind`` (gap or certified)."""
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise FileNotFoundError(f"config file not found: {path}")
    if cp.sections() != ["run"]:
        raise ValueError(f"{path}: needs exactly one [run] section, found "
                         f"{', '.join(cp.sections()) or 'none'}")
    sec = cp["run"]
    kind = sec.get("kind", "gap")
    if kind not in ("gap", "certified"):
        raise ValueError(f"{path}: kind must be gap or certified, got {kind!r}")
    cp.remove_option("run", "kind")
    types = {f.name: f.type for f in dataclasses.fields(experiment.GapRunConfig)}
    if kind == "certified":
        types = {k: v for k, v in types.items() if k not in _CERTIFIED_UNREAD}
    unknown = set(sec) - set(types)
    if unknown:
        raise ValueError(f"{path}: config key(s) a {kind} run does not read: "
                         f"{', '.join(sorted(unknown))}")
    out = {}
    for key in sec:  # in file order: the first bad key is the one reported
        try:
            out[key] = _config_value(sec, key, types[key])
        except ValueError as e:
            raise ValueError(f"{path}: {key}: {e}") from None
    return kind, experiment.GapRunConfig(**out)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_norms(args):
    if not np.isfinite(args.s):
        raise ValueError(f"--s must be finite, got {args.s}")
    f = field.load_field(args.infile)
    if args.method == "fourier":
        val = norms.sobolev_norm(f, args.s, homogeneous=args.homogeneous)
        _emit({"norm": val, "method": "fourier", "s": args.s,
               "homogeneous": args.homogeneous, "shells_used": None,
               "tail_estimate": None})
    else:
        val, shells = norms.besov_norm(f, args.s, args.p, args.q, return_shells=True)
        tail = shells[-1]["contribution"] / max(sum(sh["contribution"] for sh in shells), 1e-300)
        _emit({"norm": val, "method": "difference", "s": args.s, "p": args.p,
               "q": args.q, "shells_used": len(shells), "tail_estimate": tail})
    return 0


def cmd_propagate(args):
    t0 = time.time()
    out = wave.spectral_propagate(field.load_state(args.infile), args.t)
    field.save_state(out, args.outfile)
    out_dir = Path(args.outfile).parent
    _write_manifest(out_dir, Path(args.outfile).stem, "propagate",
                    {"t": args.t}, [args.infile], [args.outfile], t0,
                    grid={"dim": out.grid.dim, "n": out.grid.n, "L": out.grid.half_width})
    _emit({"t": args.t, "outfile": str(args.outfile)})
    return 0


def _profile_from_spec(spec):
    kind, _, param = spec.partition(":")
    if kind == "gaussian":
        a = float(param or 1.0)
        if not (np.isfinite(a) and a > 0.0):
            raise ValueError(f"profile spec {spec!r}: a must be finite and > 0")

        def f_and_prime(r):
            e = np.exp(-a * r ** 2)
            return e, -2.0 * a * r * e

        return field.RadialProfile(lambda r: np.exp(-a * r ** 2), f_and_prime=f_and_prime)
    if kind in ("annulus_exact", "annulus_smooth"):
        fam = construct.delta_family(float(param))
        return construct.psi_exact(fam) if kind == "annulus_exact" else construct.psi_smooth(fam)
    raise ValueError(f"unknown profile spec {spec!r}")


def cmd_pointvalue(args):
    prof = _profile_from_spec(args.profile)
    x = tuple(float(v) for v in args.x.split(",")) if args.x else (0.0,)
    if args.method != "kernel" and (args.t != 1.0 or any(v != 0.0 for v in x)):
        raise ValueError(f"--method {args.method} computes t = 1 at the origin only, "
                         f"got --t {args.t:g} --x {','.join(f'{v:g}' for v in x)}")
    if args.method == "kernel":
        val = wave.kernel_solution_2d(prof, args.t, np.asarray(x), tol=args.tol)
        err = args.tol
    elif args.method == "kirchhoff":
        val, err = wave.kirchhoff_3d_origin(prof), 0.0
    elif args.method == "evenrep":
        val, err = wave.radial_even_representation(prof, args.n), None
    elif args.method == "oddrep":
        val, err = wave.odd_n_boundary_value(prof, args.n), None
    else:
        raise ValueError(args.method)
    _emit({"method": args.method, "t": args.t, "x": list(x), "value": val,
           "err_est": err})
    return 0


def cmd_lemma1(args):
    if args.normalize and args.n != 2:
        raise ValueError(f"--normalize applies to --n 2 only, got --n {args.n}")
    t0 = time.time()
    deltas = [float(v) for v in args.deltas.split(",")]
    data = construct.focusing_sequence(args.n, deltas)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows, outputs = [], []
    for datum in data:
        tag = f"phi_n{args.n}_{datum.delta:g}"
        path = out_dir / f"{tag}.json"
        grid = field.TorusGrid(2, 4.0, 256) if args.n == 2 else field.TorusGrid(2, 4.0, 64)
        emb = field.radial_embed(datum.phi, grid)
        field.save_field(emb, path)
        outputs.append(path)
        row = {"delta": datum.delta, "norm": datum.norm,
               "z10": datum.z_value_at_10, "dimension": datum.dimension}
        if args.n == 2:
            # how much of the datum the fixed grid resolves
            row["sampled_l2_ratio"] = norms.lp_norm(emb, 2) / datum.norm
            if args.normalize:
                nz = construct.strip_normalize(datum)
                row.update({"t_j": nz.t_j, "m_j": nz.m_j})
        rows.append(row)
    outputs.append(_write_json(out_dir / "lemma1.json", rows))
    _write_manifest(out_dir, "lemma1", "lemma1",
                    {"n": args.n, "deltas": deltas}, [], outputs, t0)
    _emit({"rows": rows})
    return 0


def cmd_chi(args):
    t0 = time.time()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    chi = construct.chi_mean_zero(args.n)
    grid = field.TorusGrid(min(args.n, 2), 16.0, 256)
    emb = construct.chi_field(chi, grid)
    path = out_dir / f"chi_n{args.n}.field"
    field.save_field(emb, path)
    info = _write_json(out_dir / f"chi_n{args.n}.json",
                       {"kappa": chi.kappa, "support_radius": chi.support_radius, "n": args.n})
    _write_manifest(out_dir, f"chi_n{args.n}", "chi", {"n": args.n}, [], [path, info], t0)
    _emit({"kappa": chi.kappa, "outfile": str(path)})
    return 0


def cmd_sweep(args):
    t0 = time.time()
    kind, cfg = _load_config(args.config)
    run = experiment.gap_run if kind == "gap" else experiment.certified_radial_run
    report = run(cfg)
    doc = {"kind": kind, "config_echo": report.config, "rows": report.rows,
           "constants": report.constants, "verdict": report.verdict,
           "verdict_detail": report.verdict_detail}
    out = _write_json(args.out, doc)
    _write_manifest(out.parent, out.stem, "sweep", report.config, [args.config], [out], t0)
    _emit({"verdict": report.verdict, "out": str(out),
           "detail": report.verdict_detail})
    return 0 if report.verdict == "pass" else 2


def cmd_appendix(args):
    t0 = time.time()
    rep = experiment.appendix_ratio_suite(seed=args.seed, n_pairs=args.pairs)
    out = _write_json(args.out, rep)
    _write_manifest(out.parent, out.stem, "appendix", {"seed": args.seed}, [], [out], t0)
    _emit({"out": str(out), "multest_max": rep["multest_max"]})
    return 0


def cmd_scaling(args):
    t0 = time.time()
    rep = experiment.scaling_suite()
    out = _write_json(args.out, rep)
    _write_manifest(out.parent, out.stem, "scaling", {}, [], [out], t0)
    _emit({"out": str(out), "slopes": {k: v["slope"] for k, v in rep["slopes"].items()}})
    return 0


def _report_rows(path):
    """The ``(delta, data_distance, gap)`` rows of one sweep report."""
    doc = json.loads(Path(path).read_text())
    rows = doc.get("rows") if isinstance(doc, dict) else None
    keys = ("delta", "data_distance", "gap")
    if not (isinstance(rows, list) and all(
            isinstance(r, dict) and all(isinstance(r.get(k), (int, float)) for k in keys)
            for r in rows)):
        raise ValueError(f"schema mismatch: {path} is not a report whose rows are objects "
                         f"with numeric {', '.join(keys)}")
    return [tuple(r[k] for k in keys) for r in rows]


def cmd_report(args):
    t0 = time.time()
    names = [Path(p).stem for p in args.inputs]
    tables = [_report_rows(p) for p in args.inputs]
    deltas = [row[0] for row in tables[0]]
    for name, rows in zip(names[1:], tables[1:]):
        if [row[0] for row in rows] != deltas:
            raise ValueError(f"delta lists differ: {names[0]} has {deltas}, "
                             f"{name} has {[row[0] for row in rows]}")
    # one row per delta: delta, then each input's data distance and gap
    merged = [[d] + [v for rows in tables for v in rows[i][1:]] for i, d in enumerate(deltas)]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "merged.csv"
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["delta"] + [f"{n}_{c}" for n in names for c in ("data_distance", "gap")])
        w.writerows(merged)
    dat_path = out_dir / "merged.dat"
    with open(dat_path, "w") as fh:
        fh.write("# delta" + "".join(f" {n}_dd {n}_gap" for n in names) + "\n")
        for d, *vals in merged:
            fh.write(" ".join([f"{d:.6g}"] + [f"{v:.8g}" for v in vals]) + "\n")
    _write_manifest(out_dir, "report", "report", {}, args.inputs,
                    [csv_path, dat_path], t0)
    _emit({"csv": str(csv_path), "dat": str(dat_path)})
    return 0


def build_parser():
    ap = argparse.ArgumentParser(prog="wavegap",
                                 description="wave-map solution-gap laboratory")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("norms", help="norm of a stored field")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--homogeneous", action="store_true")
    p.add_argument("--method", choices=("fourier", "difference"), default="fourier")
    p.set_defaults(func=cmd_norms)

    p = sub.add_parser("propagate", help="evolve a stored wave state")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("pointvalue", help="kernel/representation point values")
    p.add_argument("--method", choices=("kernel", "kirchhoff", "evenrep", "oddrep"),
                   required=True)
    p.add_argument("--profile", required=True,
                   help="gaussian:a | annulus_exact:delta | annulus_smooth:delta")
    p.add_argument("--t", type=float, default=1.0, help="time (other methods: 1 only)")
    p.add_argument("--x", default="", help="point, comma list (other methods: origin only)")
    p.add_argument("--n", type=int, default=2,
                   help="dimension: evenrep 2 or 4, oddrep 3 or 5; 4 and 5 read the profile's "
                        "declared derivative (gaussian, annulus_smooth; annulus_exact "
                        "declares none and is refused), with no difference stencil")
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_pointvalue)

    p = sub.add_parser("lemma1", help="write the concentrating data sequence")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--deltas", default="0.3,0.1,0.03",
                   help="comma list of deltas, strictly decreasing; for --n 3 the values "
                        "are levels: integers in [0, 5], strictly increasing")
    p.add_argument("--out", required=True)
    p.add_argument("--normalize", action="store_true",
                   help="also run the strip normalization (records t_j, m_j; --n 2 only)")
    p.set_defaults(func=cmd_lemma1)

    p = sub.add_parser("chi", help="write the mean-zero reference bump")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser("sweep", help="run a gap experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="report.json")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("appendix", help="inequality ratio suite")
    p.add_argument("--out", default="appendix.json")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", type=int, default=100)
    p.set_defaults(func=cmd_appendix)

    p = sub.add_parser("scaling", help="rescaling-law sweep")
    p.add_argument("--out", default="scaling.json")
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("report", help="merge reports into CSV/plot data")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--out-dir", default="reportdata")
    p.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except SystemExit as e:  # argparse errors carry their own code
        return 1 if e.code not in (0, None) else 0
    except (OSError, ValueError, RuntimeError, KeyError, json.JSONDecodeError,
            configparser.Error) as e:
        print("error:", " ".join(str(e).split()), file=sys.stderr)  # one line
        return 1


if __name__ == "__main__":
    sys.exit(main())
