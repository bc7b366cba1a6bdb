"""Command line surface: subcommands, exit codes, output contracts."""

import json
import os
import subprocess
import sys

import pytest

import imchar
from imchar.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_determined(capsys):
    code, out, err = run(capsys, "classify", "--dist", "uniform",
                         "--params", "a=1,b=3")
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj["determined"] is True
    assert obj["norm_im"] == pytest.approx(1.0, abs=1e-9)
    assert obj["agrees"] is True


def test_classify_not_determined(capsys):
    code, out, _ = run(capsys, "classify", "--dist", "normal")
    assert code == 0
    obj = json.loads(out)
    assert obj["determined"] is False


def test_norm_value(capsys):
    code, out, _ = run(capsys, "norm", "--dist", "uniform",
                       "--params", "a=-1,b=3")
    assert code == 0
    obj = json.loads(out)
    assert obj["norm_im"] == pytest.approx(0.5, abs=1e-9)


def test_companion_output(capsys):
    code, out, _ = run(capsys, "companion", "--dist", "normal")
    assert code == 0
    obj = json.loads(out)
    assert "companion" in obj
    assert obj["max_im_discrepancy"] <= 1e-9
    assert obj["distinctness"] > 1e-6


def test_decompose_keys(capsys):
    code, out, _ = run(capsys, "decompose", "--dist", "laplace")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) >= {"sym", "anti", "jordan"}
    assert set(obj["jordan"]) == {"pos", "neg", "Apos", "Aneg"}


def test_verify_lemma1(capsys):
    code, out, _ = run(capsys, "verify-lemma1", "--dist", "uniform",
                       "--params", "a=-1,b=3")
    assert code == 0
    obj = json.loads(out)
    assert obj["disjointness_ok"] is True
    assert obj["masses"] == pytest.approx([0.25] * 4, abs=1e-12)


def test_verify_lemma1_symmetric_input(capsys):
    code, out, _ = run(capsys, "verify-lemma1", "--dist", "normal",
                       "--params", "mu=0")
    assert code == 0
    obj = json.loads(out)
    assert obj["masses"] == [0.0, 0.0, 0.0, 0.0]


def test_oracle_run(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "5", "--trials", "20",
                       "--seed", "7")
    assert code == 0
    obj = json.loads(out)
    assert obj["disagreements"] == 0 and obj["trials"] == 20


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog-list")
    assert code == 0
    entries = json.loads(out)
    assert any(e["name"] == "poisson" for e in entries)


def test_cf_grid_csv(capsys):
    code, out, _ = run(capsys, "cf-grid", "--dist", "poisson",
                       "--xmin", "0", "--xmax", "3", "--points", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,re,im,err"
    assert len(lines) == 5


def test_cf_grid_json(capsys):
    code, out, _ = run(capsys, "cf-grid", "--dist", "poisson", "--xmin", "0",
                       "--xmax", "3", "--points", "4", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4 and set(rows[0]) == {"x", "re", "im", "err"}


def test_measure_file_input(capsys, tmp_path):
    doc = {"domain": {"kind": "R"},
           "atoms": [{"t": 1.0, "w": 0.75}, {"t": -1.0, "w": 0.25}],
           "density": []}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "norm", "--measure", str(path))
    assert code == 0
    assert json.loads(out)["norm_im"] == pytest.approx(0.5, abs=1e-15)


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "verdict.json"
    code, out, _ = run(capsys, "classify", "--dist", "gamma",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["determined"] is True


def test_repeat_invocations_byte_identical(capsys):
    _, first, _ = run(capsys, "norm", "--dist", "normal")
    _, second, _ = run(capsys, "norm", "--dist", "normal")
    assert first == second


@pytest.mark.parametrize("argv,fragment", [
    (["classify", "--dist", "nonsense"], "nonsense"),
    (["norm"], "an input is required"),
    (["norm", "--dist", "normal", "--params", "mu=abc"], "not a number"),
    (["norm", "--dist", "normal", "--format", "csv"], "cf-grid"),
    (["companion", "--dist", "exponential"], "no companion exists"),
])
def test_input_errors_exit_1(capsys, argv, fragment):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert fragment in err


def test_both_inputs_rejected(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{}")
    code, _, err = run(capsys, "norm", "--dist", "normal",
                       "--measure", str(path))
    assert code == 1 and "not both" in err


def test_missing_measure_file(capsys):
    code, _, err = run(capsys, "norm", "--measure", "/nonexistent/m.json")
    assert code == 1


def test_malformed_measure_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"domain": {"kind": "R"}, "atoms": 7, "density": []}')
    code, _, err = run(capsys, "norm", "--measure", str(path))
    assert code == 1 and "atoms" in err


def test_unknown_flag(capsys):
    code, _, err = run(capsys, "norm", "--dist", "normal", "--bogus")
    assert code == 1


def test_no_subcommand_prints_help(capsys):
    code, _, err = run(capsys)
    assert code == 1 and "usage" in err.lower()


def run_subprocess(*argv):
    """The CLI in a fresh interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(imchar.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "imchar.cli", *argv],
                          capture_output=True, text=True, env=env)


def test_console_script_subprocess():
    proc = run_subprocess("classify", "--dist", "poisson")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["determined"] is False


@pytest.mark.parametrize("location", ["inf", "nan"])
def test_non_finite_sigma_pair_on_integers_is_an_input_error(location):
    proc = run_subprocess("companion", "--dist", "poisson", "--sigma", f"pair:{location}")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ("--dist", "normal", "--xmin", "inf"),
    ("--dist", "uniform_arc", "--xmin", "inf"),
    ("--dist", "uniform_arc", "--xmax", "nan"),
    ("--dist", "poisson", "--xmax", "nan"),
    ("--dist", "uniform", "--xmin=-inf"),
])
def test_cf_grid_non_finite_bounds_are_input_errors(argv):
    proc = run_subprocess("cf-grid", *argv)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("dist,params", [
    ("binomial", "n=inf"),
    ("binomial", "n=nan"),
    ("poisson", "lam=inf"),
    ("uniform", "a=-inf"),
])
def test_non_finite_catalog_parameters_are_input_errors(dist, params):
    proc = run_subprocess("classify", "--dist", dist, "--params", params)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "must be a finite number" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["decompose", "verify-lemma1", "cf-grid"])
def test_tolerance_is_refused_where_nothing_decides(capsys, command):
    # only classify, norm and companion take --tolerance
    code, _, err = run(capsys, command, "--dist", "normal", "--tolerance", "1e-3")
    assert code == 1 and "--tolerance" in err


def test_import_leaves_scipy_stats_unloaded():
    src = os.path.dirname(os.path.dirname(imchar.__file__))
    code = "import sys, imchar; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0 and proc.stdout.strip() == "False"
