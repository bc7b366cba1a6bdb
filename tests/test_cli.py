"""Command line surface: subcommands, exit codes, output contracts."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import imchar
from imchar.cli import main
from imchar.determine import is_determined
from imchar.wire import load_measure


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


def test_decisions_report_no_tolerance(capsys):
    code, out, _ = run(capsys, "norm", "--dist", "normal")
    assert code == 0 and list(json.loads(out)) == ["norm_im"]
    code, out, _ = run(capsys, "classify", "--dist", "normal")
    assert code == 0 and "tolerance" not in json.loads(out)


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


@pytest.mark.parametrize("flags", [
    ("--seed", "-1"), ("--trials", "0"), ("--trials", "-1"),
    ("--n", str(imchar.finite.MAX_ORACLE_ORDER + 1))])
def test_oracle_refuses_bad_runs(capsys, flags):
    code, out, err = run(capsys, "oracle", "--n", "3", *flags)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "non-finite" not in err


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
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    assert all(len(row) == 4 for row in rows)


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
    code, out, err = run(capsys, "classify", "--measure", str(path))
    assert code == 0 and err == ""
    assert json.loads(out) == is_determined(load_measure(str(path))).to_obj()


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
    (["norm", "--dist", "normal", "--format", "csv"], "unrecognized arguments: --format"),
    (["companion", "--dist", "exponential"], "no companion exists"),
    (["norm", "--dist", "normal", "--params", "mu"], "expects k=v pairs"),
    (["companion", "--dist", "poisson", "--sigma", "pair:abc"], "not a number"),
    (["companion", "--dist", "poisson", "--sigma", "bogus"], "--sigma must be"),
    (["cf-grid", "--dist", "poisson", "--points", "0"], "--points must be at least 1"),
])
def test_input_errors_exit_1(capsys, argv, fragment):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert fragment in err


def test_both_inputs_rejected(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{}")
    for command, dist in (("norm", "normal"), ("classify", "uniform")):
        code, out, err = run(capsys, command, "--dist", dist, "--measure", str(path))
        assert code == 1 and out == "" and "not both" in err


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
                          capture_output=True, text=True, env=env, timeout=120)


def test_console_script_subprocess():
    proc = run_subprocess("classify", "--dist", "poisson")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["determined"] is False


def test_python_dash_m_imchar():
    src = os.path.dirname(os.path.dirname(imchar.__file__))
    proc = subprocess.run([sys.executable, "-m", "imchar", "norm", "--dist", "uniform",
                           "--params", "a=-1,b=3"], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["norm_im"] == pytest.approx(0.5, abs=1e-9)


def readme_commands():
    """The `imchar ...` lines of the README's shell examples, as argv lists."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return [shlex.split(line)[1:] for line in readme.splitlines()
            if line.startswith("imchar ")]


def test_readme_lists_its_cli_examples():
    assert [argv[0] for argv in readme_commands()] == [
        "classify", "norm", "companion", "verify-lemma1", "oracle", "cf-grid"]


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
def test_readme_cli_examples_run(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    if "--out" in argv:
        assert out == "" and (tmp_path / argv[argv.index("--out") + 1]).stat().st_size > 0
    else:
        json.loads(out)


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


@pytest.mark.parametrize("dist,params", [
    ("negative_binomial", "r=1e300,p=0.999999999999"),
    ("negative_binomial", "r=1,p=1e-300"),
    ("negative_binomial", "r=1e300,p=0.5"),
    ("poisson", "lam=1e12"),
])
def test_far_lattice_tails_are_refused(dist, params):
    # scipy's isf stalls, aborts the interpreter or returns nan at these
    # parameters; the builder must refuse them before it asks
    proc = run_subprocess("classify", "--dist", dist, "--params", params)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "did not converge" in proc.stderr


@pytest.mark.parametrize("command", ["classify", "norm", "companion", "decompose",
                                     "verify-lemma1", "cf-grid"])
def test_tolerance_is_refused_where_nothing_decides(capsys, command):
    # no subcommand takes --tolerance: verdicts read no tolerance
    code, _, err = run(capsys, command, "--dist", "normal", "--tolerance", "1e-3")
    assert code == 1 and "--tolerance" in err


def test_import_leaves_scipy_stats_unloaded():
    src = os.path.dirname(os.path.dirname(imchar.__file__))
    code = "import sys, imchar; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0 and proc.stdout.strip() == "False"


#: scipy submodules that take most of a cold start; nothing on atoms,
#: polynomials or the Z_n oracle needs them
LAZY_SCIPY = ("scipy.special", "scipy.integrate", "scipy.optimize", "scipy.stats")


def run_and_list_scipy(argv, cwd):
    """The CLI in a fresh interpreter; its exit code and the LAZY_SCIPY
    modules loaded when it returns."""
    src = os.path.dirname(os.path.dirname(imchar.__file__))
    code = ("import json, sys\n"
            "from imchar.cli import main\n"
            "code = main(sys.argv[1:])\n"
            f"loaded = [m for m in {LAZY_SCIPY!r} if m in sys.modules]\n"
            "print(json.dumps(loaded), file=sys.stderr)\n"
            "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          cwd=cwd, env=dict(os.environ, PYTHONPATH=src))
    return proc.returncode, json.loads(proc.stderr.strip().splitlines()[-1])


@pytest.mark.parametrize("argv", [
    ("classify", "--dist", "uniform"),
    ("classify", "--dist", "triangular"),
    ("classify", "--dist", "uniform_arc"),
    ("classify", "--measure", "atoms.json"),
    ("cf-grid", "--dist", "uniform"),
    ("oracle", "--n", "8", "--trials", "20"),
])
def test_atoms_polynomials_and_the_oracle_load_no_scipy_submodule(argv, tmp_path):
    doc = {"domain": {"kind": "R"},
           "atoms": [{"t": 1.0, "w": 0.75}, {"t": -2.0, "w": 0.25}],
           "density": []}
    (tmp_path / "atoms.json").write_text(json.dumps(doc))
    assert run_and_list_scipy(argv, tmp_path) == (0, [])


@pytest.mark.parametrize("dist,loads", [
    ("normal", ["scipy.special", "scipy.integrate", "scipy.optimize"]),
    ("poisson", ["scipy.special", "scipy.stats"]),
])
def test_named_and_lattice_entries_load_scipy_on_first_use(dist, loads, tmp_path):
    code, loaded = run_and_list_scipy(("classify", "--dist", dist), tmp_path)
    assert code == 0 and set(loads) <= set(loaded)
