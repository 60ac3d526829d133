import ast
import json
import pathlib
import subprocess
import sys

import gch


def test_all_names_resolve():
    missing = [name for name in gch.__all__ if not hasattr(gch, name)]
    assert missing == []
    assert len(set(gch.__all__)) == len(gch.__all__)


def test_public_names():
    # every public name added or removed shows up as a change to this list
    assert gch.__all__ == [
        "BetaMismatch", "Confinement", "CrossReport", "DegenerateCoupling",
        "DomainError", "EigenState", "EvalResult", "FloatOverflow", "GchError", "GchParams", "GridSpec",
        "KindRestrictionError", "NestedTruncation", "NonFiniteError", "NormalizationPole",
        "NoTermination", "PoleError", "QQbar", "ResidualReport", "RotatingOscillator",
        "SampleNotConverged", "SolutionKind", "TailNotDecayed",
        "asym_small_eps", "asym_small_mu", "betas_from_omega", "coefficients", "cross_validate",
        "detect_termination", "erfi", "eval_general", "evaluate", "evaluate_grid",
        "make_state", "normalize", "ode_residual", "radial_norm", "sum_series",
        "validate", "wavefunction_result",
    ]


def test_star_import_runs():
    namespace: dict = {}
    exec("from gch import *", namespace)
    assert set(gch.__all__) <= set(namespace)


def _fresh(code: str, env) -> str:
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    return r.stdout


def test_import_loads_no_submodule(gch_subprocess_env):
    out = _fresh("import sys, gch; print(sorted(m for m in sys.modules if m.startswith('gch.')))",
                 gch_subprocess_env)
    assert out == "[]\n"


def test_spectra_loads_no_engine(gch_subprocess_env):
    # the ladder and make_state need no series engine; sampling loads it
    out = _fresh("import sys, gch.spectra; print(sorted(m for m in sys.modules if m.startswith('gch.')))",
                 gch_subprocess_env)
    assert out == "['gch.errors', 'gch.params', 'gch.spectra']\n"


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10
    sources = sorted(pathlib.Path(gch.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_lazy_namespace(gch_subprocess_env):
    # a fresh process: first use of a name loads its module and what that imports, nothing more
    code = """
import json, sys, gch
report = {"dir_covers_all": set(gch.__all__) <= set(dir(gch))}
report["series"] = gch.series.__name__
report["same_function"] = gch.evaluate is gch.series.evaluate
try:
    gch.no_such_name
except AttributeError as exc:
    report["unknown"] = str(exc)
report["loaded"] = sorted(m for m in sys.modules if m.startswith("gch."))
print(json.dumps(report))
"""
    report = json.loads(_fresh(code, gch_subprocess_env))
    assert report == {
        "dir_covers_all": True,
        "series": "gch.series",
        "same_function": True,
        "unknown": "module 'gch' has no attribute 'no_such_name'",
        "loaded": ["gch.errors", "gch.params", "gch.series"],
    }
