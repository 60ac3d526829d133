import ast
import errno
import gc
import importlib.util
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gch import cli
from gch.cli import main

ROOT = Path(__file__).resolve().parents[1]

OSC_SPECTRUM = ["spectrum", "--system", "oscillator", "--coupling", "2", "--l", "0",
                "--i-max", "0", "--beta-max", "3"]


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--output", str(out)])
    return code, out.read_bytes()


def test_eval_header_and_prefactor_row(tmp_path, capsys):
    code = main(["eval", "--mu", "2", "--epsilon", "0", "--nu", "1", "--omega-cap", "2",
                 "--x-start", "0", "--x-stop", "0", "--x-count", "1"])
    captured = capsys.readouterr().out
    lines = captured.strip().split("\n")
    assert code == 0
    assert lines[0] == "x,value,terms_used,est_error,converged"
    assert lines[1].split(",")[1] == repr(math.sqrt(math.pi))


def test_eval_deterministic(tmp_path):
    argv = ["eval", "--mu", "-1", "--epsilon", "0.4", "--nu", "0.5", "--omega-cap", "0.7",
            "--omega", "1.2", "--x-start", "0.1", "--x-stop", "1.0", "--x-count", "7"]
    code1, b1 = run_to_file(tmp_path, "a.csv", argv)
    code2, b2 = run_to_file(tmp_path, "b.csv", argv)
    assert code1 == code2 == 0
    assert b1 == b2


def test_eval_deterministic_subprocess(tmp_path, gch_subprocess_env):
    argv = [sys.executable, "-m", "gch.cli", "eval", "--mu", "2", "--epsilon", "1",
            "--nu", "1.5", "--omega-cap", "3", "--omega", "0.25",
            "--x-start", "0", "--x-stop", "1", "--x-count", "5"]
    r1 = subprocess.run(argv, capture_output=True, env=gch_subprocess_env)
    r2 = subprocess.run(argv, capture_output=True, env=gch_subprocess_env)
    assert r1.returncode == 0, r1.stderr.decode()
    assert r1.stdout == r2.stdout


def test_eval_kind_restriction_exit2(capsys):
    code = main(["eval", "--mu", "1", "--nu", "-1", "--omega-cap", "1", "--x-count", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "first kind requires nu not in {0, -1, -2, ...}" in err


def test_eval_poly_variant(tmp_path):
    # terminating Omega: beta_0 = 1 at mu = 0.5, Omega = -1
    code, body = run_to_file(tmp_path, "p.csv", [
        "eval", "--mu", "0.5", "--epsilon", "0.3", "--nu", "1.5", "--omega-cap", "-1",
        "--variant", "poly", "--x-start", "0.2", "--x-stop", "0.8", "--x-count", "3"])
    assert code == 0
    assert body.decode().startswith("x,value,terms_used,est_error,converged\n")


def test_eval_json_roundtrip(tmp_path):
    code, body = run_to_file(tmp_path, "out.json", [
        "eval", "--mu", "2", "--epsilon", "1", "--nu", "1.5", "--omega-cap", "3",
        "--omega", "0.25", "--x-start", "0", "--x-stop", "1", "--x-count", "5",
        "--format", "json"])
    assert code == 0
    text = body.decode()
    doc = json.loads(text)
    assert json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n" == text
    assert [sorted(r) for r in doc["rows"]][0] == ["converged", "est_error", "terms_used", "value", "x"]


def test_eval_json_non_finite_value_is_a_string(capsys):
    # x = 50 overflows to inf; JSON has no token for it, so the value is
    # the text CSV prints, as a string
    code = main(["eval", "--mu", "-2", "--epsilon", "0", "--nu", "1.5", "--omega-cap", "-3", "--omega", "0.25",
                 "--x-start", "30", "--x-stop", "50", "--x-count", "2", "--format", "json"])
    assert code == 3

    def refuse(token):
        raise ValueError(f"{token} is not valid JSON")

    doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert [row["value"] for row in doc["rows"]] == [3.2610390924448743e+239, "inf"]
    assert float(doc["rows"][1]["value"]) == math.inf


def test_spectrum_oscillator_ladder(capsys):
    code = main(OSC_SPECTRUM)
    out = capsys.readouterr().out.strip().split("\n")
    assert code == 0
    assert out[0] == "i,beta,eigenvalue"
    assert [row.split(",")[2] for row in out[1:]] == ["1.0", "3.0", "5.0", "7.0"]


def test_spectrum_qqbar_sorted(capsys):
    code = main(["spectrum", "--system", "qqbar", "--mass", "0", "--b-slope", "1",
                 "--l", "0", "--i-max", "1", "--beta-max", "2"])
    out = capsys.readouterr().out.strip().split("\n")
    assert code == 0
    values = [float(r.split(",")[2]) for r in out[1:]]
    assert values == [6.0, 10.0, 14.0, 18.0, 22.0, 26.0]
    assert values == sorted(values)


def test_spectrum_degenerate_coupling_exit2(capsys):
    code = main(["spectrum", "--system", "confinement", "--pot-a", "1", "--pot-b", "0",
                 "--pot-c", "1", "--mass", "0.5", "--l", "0"])
    assert code == 2
    assert "beta_F = 0" in capsys.readouterr().err


def test_spectrum_overflowed_eps_exit2(capsys):
    # eps = sqrt(2/omega_c) is inf, though the ladder itself is finite
    code = main(["spectrum", "--system", "oscillator", "--coupling", "1e-320", "--l", "0"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: parameter eps=inf is not a finite real\n"


def test_spectrum_negative_ladder_bound_exit2(capsys):
    assert main(OSC_SPECTRUM + ["--i-max", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: i-max and beta-max must be nonnegative\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_spectrum_overflowed_ladder_exit2(capsys, fmt):
    # E^2 = 4 b (2 beta + 3/2) is inf: no row, in place of inf rows (and
    # JSON's invalid Infinity)
    code = main(["spectrum", "--system", "qqbar", "--mass", "0.1", "--b-slope", "1e308", "--beta-max", "2",
                 "--format", fmt])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: state (i=0, beta_i=0) overflows: eigenvalue=inf\n"


def test_wavefunction_rows(tmp_path):
    code, body = run_to_file(tmp_path, "w.csv", [
        "wavefunction", "--system", "oscillator", "--coupling", "2", "--l", "0",
        "--state-i", "0", "--state-beta", "1",
        "--x-start", "0.1", "--x-stop", "2.0", "--x-count", "4"])
    assert code == 0
    lines = body.decode().strip().split("\n")
    assert lines[0] == "r,value,converged"
    assert len(lines) == 5


def test_verify_default_grid_exits_zero(tmp_path, capsys):
    code = main(["verify", "--output", str(tmp_path / "v.csv")])
    assert code == 0
    assert "PASS" in capsys.readouterr().err
    header = (tmp_path / "v.csv").read_text().split("\n")[0]
    assert header == "mu,epsilon,nu,omega_cap,omega,x,kind,rel_err,rel_residual,status"


def test_verify_unattainable_tolerance_exits_one(tmp_path, capsys):
    code = main(["verify", "--tolerance", "1e-15", "--output", str(tmp_path / "v.csv")])
    assert code == 1
    assert "FAIL" in capsys.readouterr().err


def test_verify_empty_grid_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"x": []}}))
    code = main(["verify", "--config", str(cfg)])
    assert code == 2
    assert "empty" in capsys.readouterr().err


def test_verify_no_kinds_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"kinds": []}}))
    assert main(["verify", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: verification grid is empty\n"
    assert captured.out == ""


def test_verify_config_grid_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {
        "mu": [-1.0], "eps": [0.5], "nu": [0.5], "omega_cap": [1.0],
        "omega": [0.25], "x": [0.3, 0.9], "kinds": ["first"]}}))
    code = main(["verify", "--config", str(cfg), "--output", str(tmp_path / "v.csv")])
    assert code == 0
    lines = (tmp_path / "v.csv").read_text().strip().split("\n")
    assert len(lines) == 3  # header + 2 points
    assert all(line.endswith("ok") for line in lines[1:])


# one parameter set whose first kind validate refuses at nu = 0
FAILING_GRID = {"mu": [-1.0], "eps": [0.5], "nu": [0.0], "omega_cap": [1.0], "omega": [0.25],
                "x": [0.5], "kinds": ["first"]}


def test_verify_with_no_point_evaluated_fails(tmp_path, capsys):
    # every record failed: a sweep that checked nothing does not pass
    code = main(["verify", *_config(tmp_path, {"grid": {"nu": [0.0], "kinds": ["first"]}})])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "verify: 0 points, max_rel_err=0.000e+00, tolerance=1.0e-09, FAIL\n"


def test_verify_nan_rel_err_is_the_summary_max(tmp_path, capsys):
    # at eps = 0 and x = 15 the oracle's x^n overflows where its odd c_n
    # = 0, so its rel_err is NaN: the row fails, and the summary's
    # max_rel_err is nan, not x = 0.5's
    grid = {"mu": [-2.0], "eps": [0.0], "nu": [1.5], "omega_cap": [-3.0], "omega": [0.25], "x": [0.5, 15.0],
            "kinds": ["first"]}
    assert main(["verify", *_config(tmp_path, {"grid": grid})]) == 1
    captured = capsys.readouterr()
    assert captured.err == "verify: 2 points, max_rel_err=nan, tolerance=1.0e-09, FAIL\n"
    assert [row.split(",")[7::2] for row in captured.out.splitlines()[1:]] == [
        ["1.142919061909816e-15", "ok"], ["nan", "tolerance"]]


def test_verify_omega_over_mu_overflow_fails_its_rows(tmp_path, capsys):
    # Omega/mu = 1e10/1e-300 overflows, and Omega = 1e10 overflows the
    # prefactor at mu = -1: every row fails on its own, and the sweep ends
    code = main(["verify", *_config(tmp_path, {"grid": {"mu": [1e-300, -1.0], "omega_cap": [1e10]}})])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "verify: 0 points, max_rel_err=0.000e+00, tolerance=1.0e-09, FAIL\n"
    rows = captured.out.splitlines()[1:]
    assert len(rows) == 192 and {row.rsplit(",", 1)[1] for row in rows} == {"FloatOverflow"}


@pytest.mark.parametrize("fmt,rows", [
    ("csv", "mu,epsilon,nu,omega_cap,omega,x,kind,rel_err,rel_residual,status\n"
            "-1.0,0.5,0.0,1.0,0.25,0.5,first,,,KindRestrictionError\n"),
    ("json", '{"command":"verify","rows":[{"epsilon":0.5,"kind":"first","mu":-1.0,"nu":0.0,"omega":0.25,'
             '"omega_cap":1.0,"rel_err":"","rel_residual":"","status":"KindRestrictionError","x":0.5}]}\n'),
], ids=["csv", "json"])
def test_verify_failed_record_row(tmp_path, capsys, fmt, rows):
    # a failed record has no error figures, and its error class as status
    assert main(["verify", "--format", fmt, *_config(tmp_path, {"grid": FAILING_GRID})]) == 1
    assert capsys.readouterr().out == rows


@pytest.mark.parametrize("xs,code,verdict", [
    ([0.0, 0.5], 0, "PASS"),
    ([0.0], 1, "FAIL"),  # no row had its residual checked: the sweep proved nothing
], ids=["beside-x-0.5", "x-0-alone"])
def test_verify_x_zero_rows_are_checked_on_rel_err_alone(tmp_path, capsys, xs, code, verdict):
    # the closed form matches the oracle exactly at x = 0, where the ODE
    # residual at lam = 0.5 has no finite derivatives: such a row keeps its
    # rel_err and its check, leaves rel_residual empty, and the sweep goes on
    grid = {"mu": [-2.0], "x": xs, "kinds": ["first"]}
    assert main(["verify", *_config(tmp_path, {"grid": grid})]) == code
    captured = capsys.readouterr()
    rows = [row.split(",") for row in captured.out.splitlines()[1:]]
    assert len(rows) == 32 * len(xs)
    assert {tuple(row[5:]) for row in rows if row[5] == "0.0"} == {("0.0", "first", "0.0", "", "ok")}
    assert all(row[8] != "" and row[-1] == "ok" for row in rows if row[5] != "0.0")
    assert captured.err.startswith(f"verify: {len(rows)} points, ") and captured.err.endswith(f", {verdict}\n")


def test_reader_closing_early_keeps_the_exit_code(gch_subprocess_env):
    # gch eval ... | head -1: 5000 rows overrun the pipe once the reader
    # has gone; the command still exits 0, with no traceback
    argv = [sys.executable, "-m", "gch.cli", "eval", "--mu", "-1", "--nu", "1.5", "--omega-cap", "1",
            "--x-count", "5000"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=gch_subprocess_env)
    assert proc.stdout.readline() == b"x,value,terms_used,est_error,converged\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert b"Traceback" not in err and err == b""


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "mu": 2.0, "epsilon": 0.0, "nu": 1.0, "omega_cap": 2.0,
        "x_start": 0.0, "x_stop": 0.0, "x_count": 1}))
    code = main(["eval", "--config", str(cfg)])
    out1 = capsys.readouterr().out
    assert code == 0
    assert out1.strip().split("\n")[1].split(",")[1] == repr(math.sqrt(math.pi))
    # flag overrides the config x grid
    code = main(["eval", "--config", str(cfg), "--x-count", "3", "--x-stop", "1.0"])
    out2 = capsys.readouterr().out
    assert code == 0
    assert len(out2.strip().split("\n")) == 4


def test_bad_grid_exit2(capsys):
    code = main(["eval", "--mu", "1", "--nu", "1.5", "--omega-cap", "1",
                 "--x-start", "2", "--x-stop", "1", "--x-count", "3"])
    assert code == 2
    assert "x-start" in capsys.readouterr().err


def test_missing_required_exit2(capsys):
    code = main(["eval", "--nu", "1.5", "--omega-cap", "1", "--x-count", "1"])
    assert code == 2
    assert "--mu" in capsys.readouterr().err


def test_asymptote_values(capsys):
    code = main(["asymptote", "--regime", "small-mu", "--epsilon", "1",
                 "--x-start", "1", "--x-stop", "1", "--x-count", "1"])
    out = capsys.readouterr().out.strip().split("\n")
    assert code == 0
    assert out[0] == "x,value"
    assert float(out[1].split(",")[1]) == pytest.approx(math.exp(-1.0) - 1.0)


def test_second_kind_poly_variant(capsys):
    # psi_0 = 1 ladder: Omega = -mu(2*psi_0 + lam) with lam = 1 - nu = 0.5
    code = main(["eval", "--mu", "-1", "--epsilon", "0.4", "--nu", "0.5",
                 "--omega-cap", "2.5", "--omega", "1.2", "--kind", "second",
                 "--variant", "poly", "--x-start", "0.5", "--x-stop", "0.5", "--x-count", "1"])
    assert code == 0
    assert "true" in capsys.readouterr().out


def test_bad_config_json_exit2(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    code = main(["eval", "--config", str(cfg), "--mu", "1", "--nu", "1.5",
                 "--omega-cap", "1", "--x-count", "1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_missing_config_file_exit2(capsys):
    code = main(["eval", "--config", "/nonexistent/cfg.json", "--mu", "1",
                 "--nu", "1.5", "--omega-cap", "1", "--x-count", "1"])
    assert code == 2


def test_wavefunction_negative_grid_exit2(capsys):
    code = main(["wavefunction", "--system", "qqbar", "--mass", "0", "--b-slope", "1",
                 "--l", "0", "--x-start", "-1", "--x-stop", "1", "--x-count", "3"])
    assert code == 2
    assert capsys.readouterr().err == "error: r must be nonnegative\n"


def test_wavefunction_envelope_overflow_exit2(capsys):
    # r**31 at r = 1e10 is past the float range: an error line naming r
    code = main(["wavefunction", "--system", "qqbar", "--mass", "0.3", "--b-slope", "1", "--l", "30",
                 "--state-i", "0", "--state-beta", "1", "--x-stop", "1e10", "--x-count", "3"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: radial envelope overflows at r=10000000000.0\n"


@pytest.mark.parametrize("argv,flag", [
    (["eval", "--mu", "2", "--nu", "1.5", "--omega-cap", "3", "--x-count", "1"], "--max-order"),
    (["wavefunction", "--system", "qqbar", "--mass", "0.3", "--b-slope", "1", "--x-count", "1"], "--max-inner"),
    (["verify"], "--rel-tol"),
], ids=["eval", "wavefunction", "verify"])
def test_truncation_flags_refused(capsys, argv, flag):
    # the caps are fixed: no subcommand declares a flag that sets one
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_point_past_the_inner_cap_exit3(capsys):
    # z = 450 at eps = 0 needs a chain deeper than the fixed cap of 240
    code = main(["eval", "--mu", "-1", "--nu", "1.5", "--omega-cap", "1", "--x-start", "30", "--x-stop", "30",
                 "--x-count", "1"])
    assert code == 3
    assert capsys.readouterr().out.splitlines()[1].endswith(",241,0.0,false")


def test_asymptote_small_eps_requires_mu(capsys):
    code = main(["asymptote", "--regime", "small-eps", "--x-start", "0", "--x-stop", "1",
                 "--x-count", "3"])
    assert code == 2
    assert "--mu" in capsys.readouterr().err


def test_cli_import_is_stdlib_only(gch_subprocess_env):
    # gch has no runtime dependency: importing the CLI loads only gch and
    # standard-library modules
    code = ("import sys; before = set(sys.modules); import gch.cli; "
            "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names) - {'gch'}))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, env=gch_subprocess_env)
    assert r.returncode == 0, r.stderr.decode()
    assert r.stdout == b"[]\n"


def test_gch_loads_no_dataclasses_or_inspect(gch_subprocess_env):
    # the value classes are written out, so no gch module pays for these imports
    code = ("import sys; import gch.cli, gch.series, gch.verify, gch.spectra, gch.asymptotics; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, env=gch_subprocess_env)
    assert r.returncode == 0, r.stderr.decode()
    assert r.stdout == b"[]\n"


EVAL_ARGV = ["eval", "--mu", "-1", "--nu", "0.5", "--omega-cap", "0.7", "--x-count", "2"]
ASYMPTOTE_ARGV = ["asymptote", "--mu", "-2", "--x-count", "2"]


@pytest.mark.parametrize("argv,cfg,bad", [
    (EVAL_ARGV, {"kind": "firts"}, "firts"),
    (EVAL_ARGV, {"variant": "polly"}, "polly"),
    (EVAL_ARGV, {"format": "xml"}, "xml"),
    (ASYMPTOTE_ARGV, {"regime": "small-epss"}, "small-epss"),
    (["verify"], {"grid": {"x": [0.5], "kinds": ["frist"]}}, "frist"),
], ids=["kind", "variant", "format", "regime", "grid-kinds"])
def test_config_choice_outside_choices_exit2(tmp_path, capsys, argv, cfg, bad):
    # a config file value is held to the choices of the matching flag
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(argv + ["--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"'{bad}'" in captured.err


def test_verify_grid_not_an_object_exit2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"grid": [1]}))
    assert main(["verify", "--config", str(path)]) == 2
    assert "grid must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("text,axis", [
    ('{"grid": {"mu": 1}}', "mu"),
    ('{"grid": {"kinds": 1}}', "kinds"),
    ('{"grid": {"x": ["a"]}}', "x"),
    ('{"grid": {"nu": [null]}}', "nu"),
    ('{"grid": {"mu": [true]}}', "mu"),
    ('{"grid": {"x": [NaN]}}', "x"),
    ('{"grid": {"omega": []}}', "omega"),
    ('{"grid": {"omega_cap": [1e999]}}', "omega_cap"),
    ('{"grid": {"eps": null}}', "eps"),
], ids=["not-a-list", "kinds-not-a-list", "string", "null", "bool", "nan", "empty", "inf", "null-axis"])
def test_verify_grid_axis_malformed_exit2(tmp_path, capsys, text, axis):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["verify", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config grid.{axis}=" in captured.err


def test_poly_variant_non_terminating_exit2(capsys):
    # Omega = -1.3 at mu = 0.5 gives beta_0 = 1.3: no B-terminated solution
    code = main(["eval", "--mu", "0.5", "--epsilon", "0.3", "--nu", "1.5", "--omega-cap", "-1.3",
                 "--variant", "poly", "--x-count", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "beta_0 = 1.3 is not a nonnegative integer; Omega=-1.3 does not terminate" in err


_PARSER_MODULES = ["gch", "gch.cli", "gch.errors", "gch.params"]
_SERIES_MODULES = _PARSER_MODULES + ["gch.series"]


@pytest.mark.parametrize("argv,loaded", [
    (["asymptote", "--regime", "small-eps", "--mu", "-2", "--x-count", "2"], _PARSER_MODULES + ["gch.asymptotics"]),
    (EVAL_ARGV, _SERIES_MODULES),
    (OSC_SPECTRUM, _PARSER_MODULES + ["gch.spectra"]),
    (["wavefunction", "--system", "oscillator", "--coupling", "2", "--l", "0", "--x-count", "2"],
     _SERIES_MODULES + ["gch.spectra"]),
    (["verify"], _SERIES_MODULES + ["gch.recurrence", "gch.verify"]),
], ids=["asymptote", "eval", "spectrum", "wavefunction", "verify"])
def test_subcommand_loads_only_its_modules(gch_subprocess_env, argv, loaded):
    code = ("import sys; from gch.cli import main; code = main(sys.argv[1:]); "
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'gch'))")
    r = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                       env=gch_subprocess_env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == f"0 {sorted(loaded)}"


@pytest.mark.parametrize("cfg,key", [
    ({"mu": [1], "nu": 1.5, "omega_cap": 0.5}, "mu"),
    ({"mu": True, "nu": 1.5, "omega_cap": 0.5}, "mu"),
    ({"x_count": 2.7}, "x_count"),
    ({"x_count": True}, "x_count"),
    ({"output": 1.5}, "output"),
    ({"mu": math.nan, "nu": 1.5, "omega_cap": 0.5}, "mu"),
    ({"x_stop": math.inf}, "x_stop"),
    ({"x_start": -math.inf}, "x_start"),
], ids=["list-for-float", "bool-for-float", "float-for-int", "bool-for-int", "number-for-string",
        "nan-for-float", "inf-for-float", "minus-inf-for-float"])
def test_config_value_of_wrong_type_exit2(tmp_path, capsys, cfg, key):
    # a config file value is held to the type of the matching flag, and a
    # float to the flag's check that it is finite
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = ["eval", "--config", str(path)]
    if "mu" not in cfg:
        argv += ["--mu", "2", "--nu", "1.5", "--omega-cap", "3"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config {key}=" in captured.err


def test_config_values_of_flag_type_accepted(tmp_path, capsys):
    # JSON integers pass for float options, as "--mu 2" does
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mu": 2, "nu": 1.5, "omega_cap": 3, "x_stop": 0.5, "x_count": 3}))
    assert main(["eval", "--config", str(path)]) == 0
    from_config = capsys.readouterr().out
    assert main(["eval", "--mu", "2", "--nu", "1.5", "--omega-cap", "3", "--x-stop", "0.5",
                 "--x-count", "3"]) == 0
    assert from_config == capsys.readouterr().out
    assert len(from_config.splitlines()) == 4


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_output_exit2(tmp_path, capsys, where):
    path = tmp_path / "no" / "x.csv" if where == "missing-dir" else tmp_path
    code = main(["asymptote", "--regime", "small-mu", "--epsilon", "1", "--output", str(path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(path) in captured.err


def test_verify_unwritable_output_reports_only_the_error(tmp_path, capsys):
    # the sweep passes, but a run that exits 2 must not also report PASS
    path = tmp_path / "no" / "v.csv"
    assert main(["verify", "--output", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not path.exists()


def test_failed_command_writes_no_file(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["asymptote", "--regime", "small-eps", "--x-count", "2", "--output", str(out)]) == 2
    assert not out.exists()


def test_output_write_failure_exit2_and_closes_the_file(tmp_path, capsys, monkeypatch):
    # a full disk while the rows are written: an error line, not a traceback
    opened = []

    def full_disk(command, header, rows, fmt, out):
        opened.append(out)
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, "_emit", full_disk)
    out = tmp_path / "x.csv"
    assert main(["asymptote", "--regime", "small-mu", "--epsilon", "1", "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno {errno.ENOSPC}] No space left on device\n"
    assert len(opened) == 1 and opened[0].closed
    assert not out.exists()  # this run created it, so it removes the incomplete file


def test_output_write_failure_keeps_a_path_that_existed(tmp_path, capsys, monkeypatch):
    # a path that was there before the run (a device, or a user's file that
    # open has already truncated) is not removed
    def full_disk(command, header, rows, fmt, out):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, "_emit", full_disk)
    out = tmp_path / "x.csv"
    out.write_text("old rows\n")
    assert main(["asymptote", "--regime", "small-mu", "--epsilon", "1", "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: [Errno {errno.ENOSPC}] No space left on device\n"
    assert out.exists()


@pytest.mark.parametrize("argv,message", [
    (["asymptote", "--regime", "small-eps", "--mu", "nan", "--x-count", "2"], "is not a finite number"),
    (["spectrum", "--system", "confinement", "--pot-a", "nan", "--pot-b", "0.2", "--pot-c", "0.5",
      "--mass", "1"], "is not a finite number"),
    (["eval", "--mu", "2", "--nu", "1.5", "--omega-cap", "3", "--x-start", "nan"], "is not a finite number"),
    (["eval", "--mu", "2", "--nu", "1.5", "--omega-cap", "3", "--x-stop", "inf"], "is not a finite number"),
    (["verify", "--tolerance=-inf"], "is not a finite number"),
    (["eval", "--mu", "abc", "--nu", "1.5", "--omega-cap", "3"], "argument --mu: invalid float value: 'abc'"),
], ids=["asymptote-mu", "spectrum-pot-a", "eval-x-start", "eval-x-stop", "verify-tolerance", "eval-mu-not-a-number"])
def test_non_finite_flag_exit2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


SMALL_VERIFY = ["verify", "--tolerance", "1e-6"]
WAVEFUNCTION_ARGV = ["wavefunction", "--system", "oscillator", "--coupling", "2", "--l", "0",
                     "--x-count", "3"]


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _config(tmp_path, obj):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(obj))
    return ["--config", str(path)]


@pytest.mark.parametrize("argv", [EVAL_ARGV, OSC_SPECTRUM, WAVEFUNCTION_ARGV, SMALL_VERIFY, ASYMPTOTE_ARGV],
                         ids=["eval", "spectrum", "wavefunction", "verify", "asymptote"])
def test_empty_config_changes_nothing(tmp_path, capsys, argv):
    assert _run(argv + _config(tmp_path, {}), capsys) == _run(argv, capsys)


def test_config_null_counts_as_not_given(tmp_path, capsys):
    code, out, _ = _run(EVAL_ARGV[:-2] + _config(tmp_path, {"x_count": None}), capsys)
    assert code == 0
    assert len(out.splitlines()) == 1 + 11


@pytest.mark.parametrize("extra", [
    {"command": "verify"},
    {"config": "elsewhere.json"},
    {"state_i": 3},
    {"no_such_option": 1},
    {"max_order": 0, "max_inner": 0, "rel_tol": 5},
], ids=["command", "config", "other-subcommand", "unknown", "truncation"])
def test_config_undeclared_keys_ignored(tmp_path, capsys, extra):
    assert _run(EVAL_ARGV + _config(tmp_path, extra), capsys) == _run(EVAL_ARGV, capsys)


def test_config_defaults_do_not_leak_across_calls(tmp_path, capsys):
    plain = _run(EVAL_ARGV, capsys)
    with_file = _run(EVAL_ARGV + _config(tmp_path, {"kind": "second", "x_count": 4, "format": "json"}), capsys)
    assert with_file[0] == 0 and with_file[1] != plain[1]
    assert _run(EVAL_ARGV, capsys) == plain


def test_float_overflow_exit2(gch_subprocess_env):
    # e^{-mu x^2/2 - eps x} of the transformed sum overflows at eps x = 3000
    argv = [sys.executable, "-m", "gch.cli", "eval", "--mu", "0.01", "--epsilon", "-100", "--nu", "1.5",
            "--omega-cap", "1", "--omega", "0.3", "--x-stop", "30", "--x-count", "3"]
    r = subprocess.run(argv, capture_output=True, env=gch_subprocess_env)
    assert r.returncode == 2
    err = r.stderr.decode().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert b"Traceback" not in r.stderr
    assert r.stdout == b""


@pytest.mark.parametrize("argv,cfg,message", [
    # the order vectors at x = 40 hold infinities of both signs
    (["--mu", "-2", "--epsilon", "1", "--nu", "1.5", "--omega-cap", "-3", "--omega", "0.25",
      "--x-stop", "40", "--x-count", "3"], None, "nested sum overflows at x=40.0"),
    (["--mu", "0", "--nu", "1.5", "--omega-cap", "1"], None,
     "mu must be nonzero: Omega/mu enters n* and the closed form"),
    (["--mu", "0", "--nu", "1.5", "--omega-cap", "1", "--variant", "poly"], None,
     "mu must be nonzero: Omega/mu enters n* and the closed form"),
    (["--mu", "-1", "--nu=-1e16", "--omega-cap", "0.4", "--kind", "second"], None,
     "second kind requires nu > -2**53; got nu=-1e+16"),
    (["--mu", "1e-300", "--nu", "1.5", "--omega-cap", "1e10"], None,
     "Omega/mu = 10000000000.0/1e-300 overflows: n* is not finite"),
    (["--mu", "2", "--nu", "1.5", "--omega-cap", "3", "--x-count", "0"], None, "x-count must be at least 1"),
    (["--mu", "2", "--nu", "1.5", "--omega-cap", "3"], [{"mu": 2}], "config file must hold a JSON object"),
], ids=["order-vectors-overflow", "mu-zero", "mu-zero-poly", "second-kind-nu-past-2**53", "omega-over-mu",
        "x-count-zero", "config-not-an-object"])
def test_eval_refusals_exit2(tmp_path, capsys, argv, cfg, message):
    # cfg, where given, is the content of a config file
    assert main(["eval", *argv, *([] if cfg is None else _config(tmp_path, cfg))]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["eval", "--mu", "-1", "--nu", "1.5", "--omega-cap", "1", "--x-start=-1e308", "--x-stop", "1e308",
     "--x-count", "3"],
    ["asymptote", "--regime", "small-eps", "--mu", "-2", "--x-start=-1.5e308", "--x-stop", "1.5e308",
     "--x-count", "2"],
], ids=["eval", "asymptote"])
def test_overflowing_x_grid_exit2(capsys, argv):
    # x-stop - x-start overflows to inf: no row is printed
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: x-stop - x-start overflows: the x grid step is inf\n"


def test_asymptote_overflow_names_its_x_exit2(capsys):
    # e^{-mu x^2/2} overflows at x = 50, not at x = 0 or 25
    argv = ["asymptote", "--regime", "small-eps", "--mu", "-1", "--x-start", "0", "--x-stop", "50", "--x-count", "3"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: small-eps limiting form overflows at x=50.0\n"


# ------------------------------------------------------------- process entry

def _cli_session_argvs():
    """The argument lists of the five seed-0 commands the benchmark's
    cli-session workload runs as ``python -m gch.cli`` processes."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [cmd["argv"] for cmd in workloads.cli_commands(0)]


@pytest.mark.parametrize("argv", _cli_session_argvs(), ids=lambda argv: argv[0])
def test_process_prints_what_main_prints(capsys, gch_subprocess_env, argv):
    proc = subprocess.run([sys.executable, "-m", "gch.cli", *argv], capture_output=True, env=gch_subprocess_env)
    code = main(argv)
    captured = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out.encode(), captured.err.encode())


def test_process_writes_the_whole_output_file(tmp_path, gch_subprocess_env):
    argv = ["verify", "--format", "json"]
    proc = subprocess.run([sys.executable, "-m", "gch.cli", *argv, "--output", str(tmp_path / "proc.json")],
                          capture_output=True, env=gch_subprocess_env)
    code, want = run_to_file(tmp_path, "main.json", argv)
    assert proc.returncode == code == 0
    assert (tmp_path / "proc.json").read_bytes() == want
    assert len(json.loads(want)["rows"]) == 768


def test_main_freezes_no_object(capsys):
    before = gc.get_freeze_count()
    assert main(["asymptote", "--regime", "small-eps", "--mu", "-2"]) == 0
    assert gc.get_freeze_count() == before


def test_process_entry_freezes_after_the_output(monkeypatch, capsys):
    # the collector is frozen once, after main has written every row, and
    # the process exits with main's code
    argv = ["eval", "--mu", "-1", "--nu", "1.5", "--omega-cap", "1", "--x-start", "30", "--x-stop", "30",
            "--x-count", "1"]
    written = []
    monkeypatch.setattr(gc, "freeze", lambda: written.append(capsys.readouterr().out))
    monkeypatch.setattr(sys, "argv", ["gch", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == main(argv) == 3
    assert written == [capsys.readouterr().out]


def test_console_script_is_the_process_entry():
    # read as text, since Python 3.10 has no tomllib
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)^(?:\[|\Z)", (ROOT / "pyproject.toml").read_text(),
                        re.M | re.S).group(1)
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    main_block = [node.body for node in tree.body
                  if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert len(main_block) == 1 and len(main_block[0]) == 1
    entry = main_block[0][0].value
    assert isinstance(entry, ast.Call) and not entry.args and isinstance(entry.func, ast.Name)
    assert scripts.strip() == f'gch = "gch.cli:{entry.func.id}"'
