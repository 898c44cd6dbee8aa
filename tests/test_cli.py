import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wavegap
from wavegap.cli import _load_config, main
from wavegap.experiment import GapRunConfig
from wavegap.field import (ScalarField, TorusGrid, load_state, sample,
                           save_field, save_state)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    lines = [json.loads(line) for line in out.out.splitlines() if line.strip()]
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
    save_state(u, ut, 0.0, p0)
    code, _, _ = run(capsys, "propagate", "--in", str(p0), "--t", "0.7",
                     "--out", str(p1))
    assert code == 0
    p2 = tmp_path / "c.state"
    code, _, _ = run(capsys, "propagate", "--in", str(p1), "--t", "0.0",
                     "--out", str(p2))
    u2, ut2, t2 = load_state(p2)
    assert np.max(np.abs(u2.values - u.values)) < 1e-12
    # manifest written with checksums
    man = json.loads((tmp_path / "b.manifest.json").read_text())
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


def test_pointvalue_representation_methods_only_at_unit_time_origin(capsys):
    code, lines, _ = run(capsys, "pointvalue", "--method", "kirchhoff",
                         "--profile", "gaussian:1.0", "--x", "0,0")
    assert code == 0 and lines[0]["t"] == 1.0
    for method in ("kirchhoff", "evenrep", "oddrep"):
        for bad in (("--t", "0.5"), ("--x", "0.3")):
            code, lines, err = run(capsys, "pointvalue", "--method", method,
                                   "--profile", "gaussian:1.0", *bad)
            assert code == 1 and lines == []
            assert err.startswith("error:") and len(err.strip().splitlines()) == 1


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
    doc = json.loads(out.read_text())
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
    save_state(*(ScalarField(TorusGrid(2, 4.0, 8), np.zeros((8, 8))),) * 2, 0.0, truncated)
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


def test_report_schema_mismatch(tmp_path, capsys):
    p = tmp_path / "notareport.json"
    p.write_text(json.dumps({"foo": 1}))
    code, _, err = run(capsys, "report", "--inputs", str(p),
                       "--out-dir", str(tmp_path / "m"))
    assert code == 1 and "schema" in err


def test_sweep_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nkind = gap\ndeltas = 0.3\nbogus = 1\n")
    out = tmp_path / "r.json"
    code, lines, err = run(capsys, "sweep", "--config", str(cfg), "--out", str(out))
    assert code == 1 and lines == [] and not out.exists()
    assert err.startswith("error:") and "bogus" in err and len(err.strip().splitlines()) == 1


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
], ids=["other_section", "no_section", "duplicate_key", "params_list", "params_number",
        "bool_maybe", "t_step", "n", "jobs", "deltas_increasing", "params_sphere_rho",
        "params_typo"])
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
