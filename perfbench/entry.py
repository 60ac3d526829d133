"""The one place that names gch's entry points.

Every call the benchmark makes into gch goes through :class:`Gch`, and
every function the traced run wraps is listed in :data:`LAYERS`.  Calls
look the functions up on their modules at call time, so the wrappers the
tracer installs there are seen.

Evaluation uses ``gch.evaluate(p, kind, x, betas=None, t=None)`` when the
package has it (a single engine for both kinds and both classes) and the
per-kind, per-class ``eval_*`` functions otherwise, so the same benchmark
runs before and after that change.
"""

from __future__ import annotations

import importlib
import os
import sys

#: layer -> public functions of gch.<layer> wrapped in the traced run.
#: params is not wrapped: it runs only inside series and recurrence,
#: whose self time absorbs it; errors does no work.
LAYERS = {
    "series": ("evaluate", "eval_general", "eval_qw_infinite", "eval_rw_infinite",
               "eval_qw_poly", "eval_rw_poly", "betas_from_omega"),
    "recurrence": ("sum_series", "coefficients"),
    "verify": ("cross_validate", "ode_residual", "kummer_oracle"),
    "spectra": ("make_state", "wavefunction_result", "wavefunction", "normalize", "radial_norm"),
    "asymptotics": ("limit_value", "asym_small_eps", "asym_small_mu", "asym_small_mu_resummed"),
    "cli": ("main",),
}


def src_dir(root: str) -> str:
    return os.path.join(root, "src")


def check_source(root: str) -> None:
    """Refuse to run without the package sources in the checkout."""
    if not os.path.isfile(os.path.join(src_dir(root), "gch", "__init__.py")):
        raise SystemExit(f"perfbench: no gch sources under {src_dir(root)}")


class Gch:
    """gch imported from ``<root>/src``, with the calls the workloads make."""

    def __init__(self, root: str):
        check_source(root)
        src = src_dir(root)
        if src not in sys.path:
            sys.path.insert(0, src)
        self.pkg = importlib.import_module("gch")
        if not os.path.abspath(self.pkg.__file__).startswith(os.path.abspath(src) + os.sep):
            raise SystemExit(f"perfbench: gch was imported from {self.pkg.__file__}, not {src}")
        self.modules = {name: importlib.import_module(f"gch.{name}") for name in LAYERS}
        self.params_mod = importlib.import_module("gch.params")
        self.errors = importlib.import_module("gch.errors")
        series = self.modules["series"]
        self.max_order = series.NestedTruncation().max_order_N
        self.has_engine = hasattr(self.pkg, "evaluate")
        self.first = self.params_mod.SolutionKind.FIRST

    # -- construction (set-up, untimed) -------------------------------------

    def params(self, t) -> object:
        return self.params_mod.GchParams(*t)

    def kind(self, name: str):
        return self.first if name == "first" else self.params_mod.SolutionKind.SECOND

    def system(self, s: dict):
        sp = self.modules["spectra"]
        if s["name"] == "oscillator":
            return sp.RotatingOscillator(l_m=s["l"], omega_c=s["coupling"])
        if s["name"] == "confinement":
            return sp.Confinement(a=s["a"], b=s["b"], c=s["c"], mass=s["mass"], l=s["l"])
        return sp.QQbar(m_q=s["mass"], b_slope=s["b_slope"], l=s["l"])

    def state(self, system, i: int, beta: int):
        return self.modules["spectra"].make_state(system, i, beta)

    def grid_spec(self, p, kind, x):
        """Single-point verification grid: one cross_validate record."""
        return self.modules["verify"].GridSpec(
            mu=(p.mu,), eps=(p.eps,), nu=(p.nu,), Omega=(p.Omega,), omega=(p.omega,),
            x=(x,), kinds=(kind,))

    # -- timed calls ----------------------------------------------------------

    def evaluate(self, p, kind, poly: bool, x: float):
        """One closed-form evaluation; the B-terminated class takes its
        termination indices from Omega, as ``gch eval --variant poly`` does."""
        series = self.modules["series"]
        betas = None
        if poly:
            betas = series.betas_from_omega(p, kind.lambda_of(p.nu), self.max_order + 1)
        if self.has_engine:
            return self.pkg.evaluate(p, kind, x, betas=betas)
        first = kind is self.first
        if poly:
            fn = series.eval_qw_poly if first else series.eval_rw_poly
            return fn(p, betas, x)
        fn = series.eval_qw_infinite if first else series.eval_rw_infinite
        return fn(p, x)

    def verify_row(self, spec, p, kind, x):
        """What ``gch verify`` computes for one row: the cross_validate
        record, then the ODE residual of 80 recurrence coefficients."""
        report = self.modules["verify"].cross_validate(spec)
        rec = report.records[0]
        if rec.error is not None:
            return rec, None
        lam = kind.lambda_of(p.nu)
        coeffs = self.modules["recurrence"].coefficients(p, lam, 1.0, 80)
        return rec, self.modules["verify"].ode_residual(coeffs, lam, p, x).relative

    def wavefunction(self, system, state, r: float):
        return self.modules["spectra"].wavefunction_result(system, state, r)

    def radial_norm(self, fn, r_max: float, n_points: int):
        return self.modules["spectra"].radial_norm(fn, r_max, n_points)

    def normalize(self, system, state, r_max: float, n_points: int):
        return self.modules["spectra"].normalize(system, state, r_max, n_points)

    def cli_main(self, argv):
        return self.modules["cli"].main(argv)
