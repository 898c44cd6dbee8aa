import dataclasses
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wavegap
from wavegap import construct, experiment
from wavegap.cli import _load_config, main
from wavegap.construct import delta_family, psi_smooth
from wavegap.experiment import GapReport, GapRunConfig
from wavegap.field import (ScalarField, TorusGrid, WaveState, load_state, sample,
                           save_field, save_state)
from wavegap.radial import gauss_panel_nodes


def _not_json(constant):
    raise ValueError(f"not strict JSON: {constant}")


def read_json(path):
    # reports and manifests must be strict JSON, as stdout is
    return json.loads(Path(path).read_text(), parse_constant=_not_json)


def written_json(root):
    """Every JSON file written under ``root``, by relative path, each parsed
    strictly."""
    return {p.relative_to(root).as_posix(): read_json(p)
            for p in sorted(Path(root).rglob("*.json"))}


def run(capsys, *argv):
    # stdout must be strict JSON lines: NaN and Infinity are refused
    code = main(list(argv))
    out = capsys.readouterr()
    lines = [json.loads(line, parse_constant=_not_json)
             for line in out.out.splitlines() if line.strip()]
    return code, lines, out.err


def test_norms_subcommand(tmp_path, capsys):
    g = TorusGrid(2, 16.0, 128)
    f = sample(lambda x, y: np.exp(-(x ** 2 + y ** 2)), g)
    p = tmp_path / "f.field"
    save_field(f, p)
    code, lines, _ = run(capsys, "norms", "--in", str(p), "--s", "0.5", "--homogeneous")
    assert code == 0
    assert lines[0]["method"] == "fourier" and lines[0]["norm"] > 0
    code, lines, _ = run(capsys, "norms", "--in", str(p), "--s", "0.5",
                         "--method", "difference")
    assert code == 0
    assert lines[0]["shells_used"] > 0 and 0 <= lines[0]["tail_estimate"] < 1


def test_propagate_roundtrip(tmp_path, capsys):
    g = TorusGrid(2, 16.0, 64)
    rng = np.random.default_rng(0)
    u = ScalarField(g, rng.standard_normal(g.shape))
    ut = ScalarField(g, rng.standard_normal(g.shape))
    p0, p1 = tmp_path / "a.state", tmp_path / "b.state"
    save_state(WaveState(u, ut, 0.0), p0)
    code, _, _ = run(capsys, "propagate", "--in", str(p0), "--t", "0.7",
                     "--out", str(p1))
    assert code == 0
    p2 = tmp_path / "c.state"
    code, _, _ = run(capsys, "propagate", "--in", str(p1), "--t", "0.0",
                     "--out", str(p2))
    back = load_state(p2)
    assert back.t == 0.0 and load_state(p1).t == 0.7
    assert np.max(np.abs(back.u.values - u.values)) < 1e-12
    # manifest written with checksums
    man = read_json(tmp_path / "b.manifest.json")
    assert man["outputs"][0]["sha256"]


def test_pointvalue_kernel(capsys):
    code, lines, _ = run(capsys, "pointvalue", "--method", "kernel",
                         "--profile", "gaussian:1.0", "--t", "1.0")
    assert code == 0
    from wavegap.radial import gaussian_origin_value
    assert abs(lines[0]["value"] - gaussian_origin_value(1.0, 1.0, 2)) < 1e-8


def test_pointvalue_annulus_closed_form(capsys):
    code, lines, _ = run(capsys, "pointvalue", "--method", "kernel",
                         "--profile", "annulus_exact:0.1", "--t", "1.0")
    assert code == 0
    # planar solution value = angular factor times the radial-measure form
    assert abs(lines[0]["value"] - 0.5 * math.log(1.5)) < 1e-6


def test_pointvalue_evenrep_matches_kernel_on_thin_annulus(capsys):
    vals = {}
    for method in ("kernel", "evenrep"):
        code, lines, _ = run(capsys, "pointvalue", "--method", method,
                             "--profile", "annulus_smooth:0.01")
        assert code == 0
        vals[method] = lines[0]["value"]
    assert vals["evenrep"] == pytest.approx(vals["kernel"], rel=5e-5)


def _evenrep_n4_oracle(delta):
    """n = 4 focus value ``3/2 M0 + 1/2 M1`` of the smooth annulus datum, with
    ``M_nu = int d_r^nu psi r^(nu+3) u^(-1/2) dr`` and ``u = 1 - r^2``.  ``M1`` is
    integrated by parts, ``-int psi (4 r^3 u^(-1/2) + r^5 u^(-3/2)) dr``, so only
    ``psi`` enters; 96 order-16 panels in ``log u`` over the support
    ``u in [delta^4, delta]``."""
    psi = psi_smooth(delta_family(delta))
    lg, w = gauss_panel_nodes(np.linspace(4.0 * math.log(delta), math.log(delta), 97), 16)
    u = np.exp(lg)
    r = np.sqrt(1.0 - u)
    w = w * u / (2.0 * r)  # dr in increasing r
    f = psi(r)
    m0 = np.sum(w * f * r ** 3 / np.sqrt(u))
    m1 = -np.sum(w * f * (4.0 * r ** 3 / np.sqrt(u) + r ** 5 / u ** 1.5))
    return 1.5 * m0 + 0.5 * m1


@pytest.mark.parametrize("delta", [0.3, 0.1, 0.03, 0.01])
def test_pointvalue_evenrep_n4_matches_integration_by_parts(capsys, delta):
    # the moment of psi' reads the declared derivative (measured within 6.1e-10
    # of the oracle at 0.01); nested 1e-5 stencils missed it by 76 % at 0.03
    code, lines, _ = run(capsys, "pointvalue", "--method", "evenrep", "--n", "4",
                         "--profile", f"annulus_smooth:{delta}")
    assert code == 0
    assert lines[0]["value"] == pytest.approx(_evenrep_n4_oracle(delta), rel=1e-8)


def test_pointvalue_oddrep_n5_vanishes_beyond_the_support(capsys):
    # the support ends at q1 < 1, so psi(1) = psi'(1) = 0 exactly
    code, lines, _ = run(capsys, "pointvalue", "--method", "oddrep", "--n", "5",
                         "--profile", "annulus_smooth:0.01")
    assert code == 0 and lines[0]["value"] == 0.0


def test_pointvalue_representation_methods_only_at_unit_time_origin(capsys):
    code, lines, _ = run(capsys, "pointvalue", "--method", "kirchhoff",
                         "--profile", "gaussian:1.0", "--x", "0,0")
    assert code == 0 and lines[0]["t"] == 1.0
    bad_inputs = [(method, "gaussian:1.0", bad) for method in ("kirchhoff", "evenrep", "oddrep")
                  for bad in (("--t", "0.5"), ("--x", "0.3"))]
    # the n = 4 and 5 formulas need a declared derivative; the sharp annulus has none
    bad_inputs += [("evenrep", "annulus_exact:0.1", ("--n", "4")),
                   ("oddrep", "annulus_exact:0.1", ("--n", "5"))]
    for method, profile, bad in bad_inputs:
        code, lines, err = run(capsys, "pointvalue", "--method", method,
                               "--profile", profile, *bad)
        assert code == 1 and lines == []
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "Traceback" not in err


_KERNEL = ["pointvalue", "--method", "kernel", "--profile", "gaussian:1.0"]


@pytest.mark.parametrize("argv, says", [
    pytest.param(["norms", "--in", "{field}", "--s", "nan"], "--s must be finite",
                 id="norms_s_nan"),
    pytest.param(["norms", "--in", "{field}", "--s", "inf", "--method", "difference"],
                 "--s must be finite", id="norms_s_inf"),
    pytest.param(["norms", "--in", "{field}", "--s", "400"], "order s = 400.0",
                 id="norms_weight_overflows"),
    pytest.param(["norms", "--in", "{field}", "--s", "400", "--homogeneous"],
                 "order s = 400.0", id="norms_homogeneous_weight_overflows"),
    pytest.param(_KERNEL + ["--x", "1,2,3"], "planar point", id="kernel_3d_point"),
    pytest.param(_KERNEL + ["--t", "nan"], "finite and positive", id="kernel_t_nan"),
    pytest.param(_KERNEL + ["--t", "inf"], "finite and positive", id="kernel_t_inf"),
    pytest.param(_KERNEL + ["--tol", "nan"], "finite and positive", id="kernel_tol_nan"),
    pytest.param(["propagate", "--in", "{state}", "--t", "inf", "--out", "{out}"],
                 "time must be finite", id="propagate_t_inf"),
    pytest.param(["propagate", "--in", "{state}", "--t", "nan", "--out", "{out}"],
                 "time must be finite", id="propagate_t_nan"),
    pytest.param(["appendix", "--pairs", "0", "--out", "{out}"], "at least 1",
                 id="appendix_pairs_0"),
    pytest.param(["appendix", "--pairs", "-3", "--out", "{out}"], "at least 1",
                 id="appendix_pairs_negative"),
    pytest.param(["propagate", "--in", "{nan_state}", "--t", "0.5", "--out", "{out}"],
                 "state time must be finite, got nan", id="propagate_state_time_nan"),
    pytest.param(["propagate", "--in", "{inf_state}", "--t", "0.5", "--out", "{out}"],
                 "state time must be finite, got inf", id="propagate_state_time_inf"),
    pytest.param(["pointvalue", "--method", "kernel", "--profile", "bessel:1"],
                 "unknown profile spec", id="pointvalue_unknown_profile"),
    *[pytest.param(["pointvalue", "--method", method, "--profile", spec],
                   f"profile spec '{spec}': a must be finite and > 0",
                   id=f"{method}_{spec.replace(':', '_')}")
      for method in ("evenrep", "kirchhoff", "oddrep")
      for spec in ("gaussian:nan", "gaussian:-1e300", "gaussian:inf")],
    pytest.param(["lemma1", "--n", "4", "--deltas", "0.3", "--out", "{out}"],
                 "n in {2, 3}", id="lemma1_n4"),
    pytest.param(["sweep", "--config", "{missing}", "--out", "{out}"],
                 "config file not found", id="sweep_missing_config"),
    pytest.param(["norms", "--in", "{dir}", "--s", "0.5"], "Is a directory",
                 id="norms_in_a_directory"),
    pytest.param(["report", "--inputs", "{dir}"], "Is a directory", id="report_a_directory"),
    pytest.param(["chi", "--out", "{field}"], "File exists", id="chi_out_an_existing_file"),
    pytest.param(["propagate", "--in", "{state}", "--t", "0.5", "--out", "{field}/x.state"],
                 "Not a directory", id="propagate_out_below_a_file"),
])
def test_non_finite_or_out_of_range_values_are_refused(tmp_path, capsys, argv, says):
    # exit 1 with one error line that names the refusal, nothing on stdout
    # and no output file
    f = sample(lambda x, y: np.exp(-(x * x + y * y)), TorusGrid(2, 4.0, 16))
    paths = {"field": tmp_path / "f.field", "state": tmp_path / "s.state",
             "nan_state": tmp_path / "nan.state", "inf_state": tmp_path / "inf.state",
             "missing": tmp_path / "missing.cfg", "out": tmp_path / "out.json",
             "dir": tmp_path}
    save_field(f, paths["field"])
    save_state(WaveState(f, f, 0.0), paths["state"])
    for key, t in (("nan_state", math.nan), ("inf_state", math.inf)):
        raw = bytearray(paths["state"].read_bytes())
        raw[28:36] = struct.pack("<d", t)  # the time slot of the header
        paths[key].write_bytes(raw)
    code, lines, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == 1 and lines == [] and not paths["out"].exists()
    assert err.startswith("error:") and says in err and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_norms_of_an_order_whose_weight_overflows(tmp_path, capsys):
    # on the chi field (1 + |xi|^2)^100 overflows but the norm does not; at
    # s = 400 the norm overflows too and is refused by its order
    assert run(capsys, "chi", "--n", "2", "--out", str(tmp_path))[0] == 0
    field = str(tmp_path / "chi_n2.field")
    code, lines, _ = run(capsys, "norms", "--in", field, "--s", "100")
    assert code == 0 and abs(lines[0]["norm"] / 5.0734346358235e150 - 1.0) < 1e-12
    code, lines, err = run(capsys, "norms", "--in", field, "--s", "400")
    assert code == 1 and lines == [] and "Traceback" not in err
    assert err.startswith("error:") and "order s = 400.0" in err
    assert len(err.strip().splitlines()) == 1


def test_chi_and_sequence(tmp_path, capsys):
    code, lines, _ = run(capsys, "chi", "--n", "2", "--out", str(tmp_path))
    assert code == 0 and lines[0]["kappa"] > 0
    code, lines, _ = run(capsys, "lemma1", "--n", "3", "--deltas", "0,1",
                         "--out", str(tmp_path / "seq"))
    assert code == 0
    rows = lines[0]["rows"]
    assert rows[1]["norm"] < rows[0]["norm"]
    assert "sampled_l2_ratio" not in rows[0]  # the 3-d norm is not an L2 norm
    code, lines, _ = run(capsys, "lemma1", "--n", "2", "--deltas", "0.3",
                         "--out", str(tmp_path / "seq2"))
    assert code == 0
    # the fixed 256^2 grid resolves about 98 % of the delta = 0.3 datum's L2 norm
    assert abs(lines[0]["rows"][0]["sampled_l2_ratio"] - 0.98) < 0.01
    assert {"chi_n2.json", "chi_n2.manifest.json", "seq/lemma1.json",
            "seq/lemma1.manifest.json", "seq2/lemma1.json"} <= set(written_json(tmp_path))


def test_package_import_loads_numpy_fft_not_scipy_ndimage():
    # scipy.ndimage serves only norms.rescale; importing it costs startup time.
    # numpy.fft, which NumPy 2 loads lazily, is loaded with the package.
    code = ("import sys, wavegap, wavegap.cli; "
            "print('scipy.ndimage' in sys.modules, 'numpy.fft' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(wavegap.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["False", "True"]


def test_sweep_and_report(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\ndeltas = 0.3,0.1\nkind = certified\n")
    out = tmp_path / "certified.json"
    code, lines, _ = run(capsys, "sweep", "--config", str(cfg), "--out", str(out))
    assert code == 0  # certificate run passes
    doc = read_json(out)
    assert doc["verdict"] == "pass" and len(doc["rows"]) == 2

    cfg2 = tmp_path / "run2.cfg"
    cfg2.write_text("[run]\ndeltas = 0.3,0.1\nkind = gap\n")
    out2 = tmp_path / "thm.json"
    code2, lines2, _ = run(capsys, "sweep", "--config", str(cfg2), "--out", str(out2))
    # report-level decay threshold is unreachable on a short list: fail verdict
    assert code2 == 2
    code3, lines3, _ = run(capsys, "report", "--inputs", str(out), str(out2),
                           "--out-dir", str(tmp_path / "merged"))
    assert code3 == 0
    merged = (tmp_path / "merged" / "merged.csv").read_text().splitlines()
    assert len(merged) == 3  # header + 2 delta rows
    assert (tmp_path / "merged" / "merged.dat").exists()
    assert {"certified.json", "certified.manifest.json", "thm.json", "thm.manifest.json",
            "merged/report.manifest.json"} <= set(written_json(tmp_path))


def test_error_paths(tmp_path, capsys):
    code, _, err = run(capsys, "norms", "--in", str(tmp_path / "missing.field"),
                       "--s", "0.5")
    assert code == 1 and "error" in err
    bad = tmp_path / "bad.cfg"
    bad.write_text("[run]\ndeltas = oops\n")
    code, _, err = run(capsys, "sweep", "--config", str(bad),
                       "--out", str(tmp_path / "r.json"))
    assert code == 1 and "error" in err
    code, _, _ = run(capsys, "report", "--inputs", "--out-dir", str(tmp_path))
    assert code == 1
    # unknown flag
    assert run(capsys, "norms", "--nonsense")[0] == 1
    # malformed containers and field documents: one error line naming the file
    short = tmp_path / "short.field"
    short.write_bytes(b"WGF1abc")
    truncated = tmp_path / "truncated.state"
    zero = ScalarField(TorusGrid(2, 4.0, 8), np.zeros((8, 8)))
    save_state(WaveState(zero, zero), truncated)
    truncated.write_bytes(truncated.read_bytes()[:-8])
    not_object = tmp_path / "list.json"
    not_object.write_text("[1,2]")
    mistyped = tmp_path / "mistyped.json"
    mistyped.write_text(json.dumps({"dim": [2], "n": 8, "half_width": 1.0, "values": []}))
    for argv, path in ((["norms", "--in", str(short), "--s", "0.5"], short),
                       (["propagate", "--in", str(short), "--t", "0.5",
                         "--out", str(tmp_path / "o.state")], short),
                       (["propagate", "--in", str(truncated), "--t", "0.5",
                         "--out", str(tmp_path / "o.state")], truncated),
                       (["norms", "--in", str(not_object), "--s", "0.5"], not_object),
                       (["norms", "--in", str(mistyped), "--s", "0.5"], mistyped)):
        code, lines, err = run(capsys, *argv)
        assert code == 1 and lines == []
        assert err.startswith("error:") and str(path) in err
        assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("dim, n", [(2.5, 8), (2, 8.7)])
def test_field_grid_values_must_be_integers(tmp_path, capsys, dim, n):
    # int() would read either header as a 2-d grid of n = 8
    binary = tmp_path / "bad.field"
    binary.write_bytes(b"WGF1" + struct.pack("<4d", dim, n, 1.0, math.nan) + bytes(8 * 64))
    mirror = tmp_path / "bad.json"
    mirror.write_text(json.dumps({"dim": dim, "n": n, "half_width": 1.0, "values": [0.0] * 64}))
    for path in (binary, mirror):
        code, lines, err = run(capsys, "norms", "--in", str(path), "--s", "0.5")
        assert code == 1 and lines == []
        assert err.startswith("error:") and str(path) in err and "must be integers" in err
        assert len(err.strip().splitlines()) == 1


def test_report_schema_mismatch(tmp_path, capsys):
    p = tmp_path / "notareport.json"
    for doc in ({"foo": 1}, {"rows": [1]}, {"rows": 5}, "rows", [{"rows": []}],
                {"rows": [{"delta": 0.3, "data_distance": 1.0}]},
                {"rows": [{"delta": 0.3, "data_distance": 1.0, "gap": None}]}):
        p.write_text(json.dumps(doc))
        code, lines, err = run(capsys, "report", "--inputs", str(p),
                               "--out-dir", str(tmp_path / "m"))
        assert code == 1 and lines == [] and not (tmp_path / "m").exists()
        assert err.startswith("error:") and "schema" in err
        assert len(err.strip().splitlines()) == 1


def test_sweep_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nkind = gap\ndeltas = 0.3\nbogus = 1\n")
    out = tmp_path / "r.json"
    code, lines, err = run(capsys, "sweep", "--config", str(cfg), "--out", str(out))
    assert code == 1 and lines == [] and not out.exists()
    assert err.startswith("error:") and "bogus" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("keys", [
    "lam = 0.5\n", "grid_n = 8\n", "grid_l = 1.0\n", "negative_control = true\n",
    "lam = 0.5\ngrid_n = 8\ngrid_l = 1.0\nnegative_control = true\n",
], ids=["lam", "grid_n", "grid_l", "negative_control", "all_four"])
def test_certified_sweep_refuses_keys_it_does_not_read(tmp_path, capsys, keys):
    # the certified run pins lam (lam0 = r0 / (8 |chi|_L2)) and builds no grid
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nkind = certified\ndeltas = 0.3\n" + keys)
    out = tmp_path / "r.json"
    code, lines, err = run(capsys, "sweep", "--config", str(cfg), "--out", str(out))
    assert code == 1 and lines == [] and not out.exists()
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "a certified run does not read" in err and keys.split()[0] in err


def test_config_reads_every_field_as_its_declared_type(tmp_path):
    # a field added to GapRunConfig must be added here, so none goes unparsed
    text = {"target": "circle_radius", "target_params": '{"rho": 2.0}',
            "deltas": "0.3, 0.1", "lam": "0.25", "mu": "0.05", "r0": "0.75",
            "grid_n": "256", "grid_l": "8", "seed": "7", "negative_control": "yes"}
    expected = GapRunConfig(target="circle_radius", target_params={"rho": 2.0},
                            deltas=(0.3, 0.1), lam=0.25, mu=0.05, r0=0.75, grid_n=256,
                            grid_l=8.0, seed=7, negative_control=True)
    assert list(text) == [f.name for f in dataclasses.fields(GapRunConfig)]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\n" + "".join(f"{k} = {v}\n" for k, v in text.items()))
    kind, got = _load_config(cfg)
    assert kind == "gap" and got == expected
    for f in dataclasses.fields(GapRunConfig):
        assert type(getattr(got, f.name)) is type(getattr(expected, f.name)), f.name


def test_sweep_refuses_a_non_finite_value_before_writing(tmp_path, capsys, monkeypatch):
    # strict JSON: a NaN gap is an error, and no report or manifest is written
    def nan_gap(cfg):
        row = {"delta": 0.3, "data_distance": 0.1, "gap": math.nan}
        return GapReport(dataclasses.asdict(cfg), [row], {}, "fail", {})

    monkeypatch.setattr(experiment, "gap_run", nan_gap)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nkind = gap\ndeltas = 0.3\n")
    code, lines, err = run(capsys, "sweep", "--config", str(cfg),
                           "--out", str(tmp_path / "out" / "r.json"))
    assert code == 1 and lines == [] and list(tmp_path.iterdir()) == [cfg]
    assert err.startswith("error:") and "JSON" in err and len(err.strip().splitlines()) == 1
    assert str(tmp_path / "out" / "r.json") in err


@pytest.mark.parametrize("argv, runner", [
    (["sweep", "--config", "CFG"], "gap_run"),
    (["appendix"], "appendix_ratio_suite"),
    (["scaling"], "scaling_suite"),
])
def test_unwritable_out_is_refused_before_the_run(tmp_path, capsys, monkeypatch, argv, runner):
    # an --out below an existing file, or naming an existing directory, is
    # refused before any work, and nothing is created
    def never(*args, **kw):
        raise AssertionError("the run started")

    monkeypatch.setattr(experiment, runner, never)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nkind = gap\ndeltas = 0.3\n")
    (tmp_path / "dir").mkdir()
    argv = [str(cfg) if a == "CFG" else a for a in argv]
    for out in (cfg / "r.json", cfg / "sub" / "r.json", tmp_path / "dir"):
        code, lines, err = run(capsys, *argv, "--out", str(out))
        assert code == 1 and lines == [] and err.startswith("error:")
        assert len(err.strip().splitlines()) == 1 and str(out) in err
        assert sorted(tmp_path.rglob("*")) == [tmp_path / "dir", cfg]


def test_lemma1_and_chi_refuse_before_building(tmp_path, capsys, monkeypatch):
    # an existing directory is a valid --out for these two, so the refusal
    # is of a directory below a file (lemma1) or of a bad --n (chi), each
    # before any data are built and creating nothing
    def never(*args, **kw):
        raise AssertionError("the sequence was built")

    monkeypatch.setattr(construct, "focusing_sequence", never)
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, lines, err = run(capsys, "lemma1", "--n", "2", "--deltas", "0.3,0.1,0.01",
                           "--out", str(blocker / "seq"))
    assert code == 1 and lines == [] and err.startswith("error:")
    assert len(err.strip().splitlines()) == 1
    before = sorted(tmp_path.rglob("*"))
    code, lines, err = run(capsys, "chi", "--n", "4", "--out", str(tmp_path / "new"))
    assert code == 1 and lines == [] and err.startswith("error:")
    assert sorted(tmp_path.rglob("*")) == before


def test_sweep_rejects_unknown_kind(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nkind = gapp\ndeltas = 0.3\n")
    out = tmp_path / "r.json"
    code, lines, err = run(capsys, "sweep", "--config", str(cfg), "--out", str(out))
    assert code == 1 and lines == [] and not out.exists()
    assert err.startswith("error:") and "gapp" in err and len(err.strip().splitlines()) == 1


def test_report_requires_equal_delta_lists(tmp_path, capsys):
    def report(name, deltas):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps({"rows": [{"delta": d, "data_distance": 1.0, "gap": 1.0}
                                          for d in deltas]}))
        return str(p)

    base = report("a", [0.3, 0.1])
    for other in (report("fewer", [0.3]), report("moved", [0.3, 0.03])):
        out_dir = tmp_path / "m"
        code, lines, err = run(capsys, "report", "--inputs", base, other,
                               "--out-dir", str(out_dir))
        assert code == 1 and lines == [] and not out_dir.exists()
        assert err.startswith("error:") and "delta" in err
        assert len(err.strip().splitlines()) == 1
    code, _, _ = run(capsys, "report", "--inputs", base, report("same", [0.3, 0.1]),
                     "--out-dir", str(tmp_path / "ok"))
    assert code == 0


@pytest.mark.parametrize("body", [
    "[other]\nkind = gap\ndeltas = 0.3\n",
    "kind = gap\ndeltas = 0.3\n",
    "[run]\nkind = gap\ndeltas = 0.3\ndeltas = 0.1\n",
    "[run]\nkind = gap\ndeltas = 0.3\ntarget_params = [1,2]\n",
    "[run]\nkind = gap\ndeltas = 0.3\ntarget_params = 5\n",
    "[run]\nkind = gap\ndeltas = 0.3\nnegative_control = maybe\n",
    "[run]\nkind = gap\ndeltas = 0.3\nt_step = 0\n",
    "[run]\nkind = certified\ndeltas = 0.3\nn = 2\n",
    "[run]\nkind = gap\ndeltas = 0.3\njobs = 2\n",
    "[run]\nkind = gap\ndeltas = 0.1,0.3\n",
    '[run]\nkind = gap\ndeltas = 0.3\ntarget_params = {"rho": 5}\n',
    '[run]\nkind = gap\ndeltas = 0.3\ntarget = circle_radius\ntarget_params = {"rh": 5}\n',
    "[run]\nkind = gap\ndeltas = 0.3\nmu = 0.6\n",
    "[run]\nkind = gap\ndeltas = 0.3\ntarget = flat_line\nnegative_control = true\nmu = nan\n",
    "[run]\nkind = gap\ndeltas = 0.3\ntarget = flat_line\nnegative_control = true\nmu = -1\n",
    "[run]\nkind = certified\ndeltas = 0.3\nr0 = 0\n",
    "[run]\nkind = certified\ndeltas = 0.3\nr0 = nan\n",
    "[run]\nkind = certified\ndeltas = 0.3\nr0 = inf\n",
    "[run]\nkind = certified\ndeltas = 0.3\nr0 = -0.5\n",
    "[run]\nkind = gap\ndeltas = 0.3\nr0 = inf\n",
    "[run]\nkind = gap\ndeltas = 0.3\nlam = -0.1\n",
    "[run]\nkind = gap\ndeltas = 0.3\nlam = nan\n",
    "[run]\nkind = gap\ndeltas = 0.3\ngrid_l = nan\n",
    "[run]\nkind = gap\ndeltas = 0.3\ngrid_l = inf\n",
], ids=["other_section", "no_section", "duplicate_key", "params_list", "params_number",
        "bool_maybe", "t_step", "n", "jobs", "deltas_increasing", "params_sphere_rho",
        "params_typo", "mu_above_curvature_window", "flat_mu_nan", "flat_mu_negative",
        "certified_r0_zero", "certified_r0_nan", "certified_r0_inf", "certified_r0_negative",
        "gap_r0_inf", "lam_negative", "lam_nan", "grid_l_nan", "grid_l_inf"])
def test_sweep_rejects_malformed_config(tmp_path, capsys, body):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(body)
    out = tmp_path / "r.json"
    code, lines, err = run(capsys, "sweep", "--config", str(cfg), "--out", str(out))
    assert code == 1 and lines == [] and not out.exists()
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_sweep_refuses_range_inadmissible_amplitude(tmp_path, capsys):
    # 4 * init_constant * lam = 7.3 < r0 passes the data-size check; the
    # composed range sup_constant * lam = 0.54 leaves the window c0/2 = 0.52
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nkind = gap\ndeltas = 0.3\nlam = 5\nr0 = 10\n")
    out = tmp_path / "r.json"
    code, lines, err = run(capsys, "sweep", "--config", str(cfg), "--out", str(out))
    assert code == 1 and lines == [] and not out.exists()
    assert err.startswith("error:") and "range admissibility" in err
    assert len(err.strip().splitlines()) == 1


def test_sweep_has_no_jobs_flag(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nkind = gap\ndeltas = 0.3\n")
    out = tmp_path / "r.json"
    code, lines, err = run(capsys, "sweep", "--config", str(cfg), "--out", str(out),
                           "--jobs", "2")
    assert code == 1 and lines == [] and not out.exists()
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--jobs" in errors[0]


def test_lemma1_normalize_needs_planar_data(tmp_path, capsys):
    out = tmp_path / "seq"
    code, lines, err = run(capsys, "lemma1", "--n", "3", "--deltas", "0,1", "--normalize",
                           "--out", str(out))
    assert code == 1 and lines == [] and not out.exists()
    assert err.startswith("error:") and "--n 2" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("deltas", ["0.5,1.7,2", "0.3,0.1,0.03", "2,1"])
def test_lemma1_refuses_bad_n3_levels(tmp_path, capsys, deltas):
    out = tmp_path / "seq"
    code, lines, err = run(capsys, "lemma1", "--n", "3", "--deltas", deltas, "--out", str(out))
    assert code == 1 and lines == [] and not out.exists()
    assert err.startswith("error:") and "levels" in err and len(err.strip().splitlines()) == 1


def test_shipped_configs_parse():
    # every shipped config names a kind and only GapRunConfig keys
    paths = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
    assert paths
    for path in paths:
        kind, cfg = _load_config(path)
        assert kind in ("gap", "certified") and isinstance(cfg, GapRunConfig)
        assert cfg.curve().name == cfg.target


def test_flat_mu_zero_sweep_prints_strict_json(tmp_path, capsys):
    # a zero first data distance has no decay ratio: null, not Infinity
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nkind = gap\ndeltas = 0.3\ntarget = flat_line\n"
                   "negative_control = true\nmu = 0\n")
    out = tmp_path / "r.json"
    code, lines, _ = run(capsys, "sweep", "--config", str(cfg), "--out", str(out))
    assert code == 2 and lines[0]["verdict"] == "fail"
    assert lines[0]["detail"]["decay_ratio"] is None
    docs = written_json(tmp_path)
    assert set(docs) == {"r.json", "r.manifest.json"}
    # a flat target has no curvature window: c0 is null, not Infinity
    assert docs["r.json"]["constants"]["c0"] is None
    assert docs["r.json"]["rows"][0]["data_distance"] == 0.0


@pytest.mark.parametrize("argv, key", [
    (["appendix", "--pairs", "2", "--seed", "3"], "multest_max"),
    (["scaling"], "slopes"),
], ids=["appendix", "scaling"])
def test_suite_subcommands_write_report_and_manifest(tmp_path, capsys, argv, key):
    out = tmp_path / "suite.json"
    code, lines, _ = run(capsys, *argv, "--out", str(out))
    assert code == 0 and len(lines) == 1 and key in lines[0]
    assert lines[0]["out"] == str(out) and key in read_json(out)
    man = read_json(tmp_path / "suite.manifest.json")
    assert man["subcommand"] == argv[0]
    assert man["outputs"] == [{"path": str(out),
                               "sha256": hashlib.sha256(out.read_bytes()).hexdigest()}]
