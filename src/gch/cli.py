"""Command-line front end.

Subcommands: eval | spectrum | wavefunction | verify | asymptote.
Rows are emitted as CSV (LF line endings, pinned headers) or JSON; every
float is printed in shortest round-trip form, so repeated runs are
byte-identical and JSON output re-serialises to itself.  Options may also
be supplied as a JSON config file; explicit flags win on conflict, and a
file value must be one its flag accepts (a choice, or a JSON number,
integer or string for a float, int or string flag; no bools).

Exit codes: 0 ok, 1 tolerance failure, 2 config/validation error,
3 non-convergence.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Any, Optional, Sequence

# only what the parser needs; each subcommand imports the modules it runs,
# so a process loads no more of gch than its subcommand uses
from .errors import GchError
from .params import GchParams, SolutionKind, validate
from .asymptotics import AsymptoticRegime, limit_value

if TYPE_CHECKING:
    from . import spectra
    from .series import NestedTruncation

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3

EVAL_HEADER = ("x", "value", "terms_used", "est_error", "converged")
SPECTRUM_HEADER = ("i", "beta", "eigenvalue")
WAVEFUNCTION_HEADER = ("r", "value", "converged")
ASYMPTOTE_HEADER = ("x", "value")
VERIFY_HEADER = ("mu", "epsilon", "nu", "omega_cap", "omega", "x", "kind", "rel_err", "rel_residual", "status")

#: values of the choice-valued options, checked for flags and config
#: file entries alike
CHOICES = {
    "format": ("csv", "json"),
    "kind": tuple(k.value for k in SolutionKind),
    "variant": ("infinite", "poly"),
    "system": ("oscillator", "confinement", "qqbar"),
    "regime": tuple(r.value for r in AsymptoticRegime),
}


def _fmt(v: Any) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _emit(header: Sequence[str], rows: list[dict], fmt: str, out) -> None:
    if fmt == "csv":
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(_fmt(row[k]) for k in header) + "\n")
    else:
        import json

        doc = {"command": rows[0]["_command"] if rows else "", "rows": [
            {k: row[k] for k in header} for row in rows
        ]}
        out.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gch", description="Evaluate the grand confluent hypergeometric function and its bound-state applications")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=CHOICES["format"], default=None)
        sp.add_argument("--output", default=None, help="output path (default: stdout)")
        sp.add_argument("--config", default=None, help="JSON config file; flags win on conflict")

    def trunc(sp):
        sp.add_argument("--max-order", type=int, default=None)
        sp.add_argument("--max-inner", type=int, default=None)
        sp.add_argument("--rel-tol", type=float, default=None)

    def gch_params(sp):
        sp.add_argument("--mu", type=float, default=None)
        sp.add_argument("--epsilon", type=float, default=None)
        sp.add_argument("--nu", type=float, default=None)
        sp.add_argument("--omega-cap", type=float, default=None, help="coefficient of x in the potential term")
        sp.add_argument("--omega", type=float, default=None, help="parameter multiplying epsilon in the constant potential term")

    def grid(sp):
        sp.add_argument("--x-start", type=float, default=None)
        sp.add_argument("--x-stop", type=float, default=None)
        sp.add_argument("--x-count", type=int, default=None)

    def system(sp):
        sp.add_argument("--system", choices=CHOICES["system"], default=None)
        sp.add_argument("--l", type=int, default=None, help="angular momentum quantum number")
        sp.add_argument("--coupling", type=float, default=None, help="oscillator coupling")
        sp.add_argument("--pot-a", type=float, default=None)
        sp.add_argument("--pot-b", type=float, default=None)
        sp.add_argument("--pot-c", type=float, default=None)
        sp.add_argument("--mass", type=float, default=None, help="reduced mass / quark mass")
        sp.add_argument("--b-slope", type=float, default=None)

    sp = sub.add_parser("eval", help="evaluate a series solution on an x grid")
    common(sp); trunc(sp); gch_params(sp); grid(sp)
    sp.add_argument("--kind", choices=CHOICES["kind"], default=None)
    sp.add_argument("--variant", choices=CHOICES["variant"], default=None)

    sp = sub.add_parser("spectrum", help="enumerate an eigenvalue ladder")
    common(sp); system(sp)
    sp.add_argument("--i-max", type=int, default=None)
    sp.add_argument("--beta-max", type=int, default=None)

    sp = sub.add_parser("wavefunction", help="sample an eigenstate's radial function")
    common(sp); trunc(sp); system(sp); grid(sp)
    sp.add_argument("--state-i", type=int, default=None)
    sp.add_argument("--state-beta", type=int, default=None)

    sp = sub.add_parser("verify", help="cross-validate closed forms against direct recurrence")
    common(sp); trunc(sp)
    sp.add_argument("--tolerance", type=float, default=None, help="max relative error allowed (default 1e-9)")
    sp.add_argument("--residual-tol", type=float, default=None, help="max relative ODE residual (default 1e-8)")

    sp = sub.add_parser("asymptote", help="evaluate a limiting form on an x grid")
    common(sp); grid(sp)
    sp.add_argument("--regime", choices=CHOICES["regime"], default=None)
    sp.add_argument("--mu", type=float, default=None)
    sp.add_argument("--epsilon", type=float, default=None)

    return parser


_DEFAULTS = {
    "format": "csv",
    "kind": "first",
    "variant": "infinite",
    "x_start": 0.0,
    "x_stop": 1.0,
    "x_count": 11,
    "mu": None,
    "epsilon": 0.0,
    "nu": None,
    "omega_cap": None,
    "omega": 0.0,
    "max_order": None,
    "max_inner": None,
    "rel_tol": None,
    "i_max": 0,
    "beta_max": 5,
    "state_i": 0,
    "state_beta": 0,
    "l": 0,
    "coupling": None,
    "pot_a": None,
    "pot_b": None,
    "pot_c": None,
    "mass": None,
    "b_slope": None,
    "system": None,
    "regime": None,
    "tolerance": 1e-9,
    "residual_tol": 1e-8,
    "output": None,
}


#: option type (argparse's default None is str) -> the JSON value types a
#: config file may give for it, and how to say so; bools are refused
_CONFIG_TYPES = {
    float: ((int, float), "a number"),
    int: ((int,), "an integer"),
    None: ((str,), "a string"),
}


def _options(parser: argparse.ArgumentParser, command: str) -> list[argparse.Action]:
    """The options of ``command`` as its subparser declares them."""
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return subparsers.choices[command]._actions


class _Config:
    """Flags merged over a JSON config file merged over defaults."""

    def __init__(self, args: argparse.Namespace, options: Sequence[argparse.Action]):
        file_cfg: dict = {}
        if args.config:
            import json

            with open(args.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
            if not isinstance(file_cfg, dict):
                raise ValueError("config file must hold a JSON object")
        self._file = {k.replace("-", "_"): v for k, v in file_cfg.items()}
        self._args = vars(args)
        # the file's value of an option of this subcommand must be what its
        # flag accepts: one of its choices, or a value of its type
        for action in options:
            key = action.dest
            val = self._file.get(key)
            if key not in self._args or val is None:
                continue
            allowed, what = _CONFIG_TYPES[action.type]
            if action.choices is not None:
                if val not in action.choices:
                    raise ValueError(f"config {key}={val!r}: choose from {', '.join(action.choices)}")
            elif type(val) not in allowed:
                raise ValueError(f"config {key}={val!r}: give {what}")

    def get(self, key: str, default: Any = None):
        val = self._args.get(key)
        if val is not None:
            return val
        val = self._file.get(key)
        if val is not None:
            return val
        if key in _DEFAULTS and _DEFAULTS[key] is not None:
            return _DEFAULTS[key]
        return default

    def require(self, key: str):
        val = self.get(key)
        if val is None:
            raise ValueError(f"missing required option --{key.replace('_', '-')}")
        return val


def _nested_trunc(cfg: _Config) -> NestedTruncation:
    from .series import NestedTruncation

    base = NestedTruncation()
    return NestedTruncation(
        max_order_N=int(cfg.get("max_order", base.max_order_N)),
        max_inner=int(cfg.get("max_inner", base.max_inner)),
        rel_tol=float(cfg.get("rel_tol", base.rel_tol)),
    )


def _x_grid(cfg: _Config) -> list[float]:
    start = float(cfg.get("x_start"))
    stop = float(cfg.get("x_stop"))
    count = int(cfg.get("x_count"))
    if count < 1:
        raise ValueError("x-count must be at least 1")
    if start > stop:
        raise ValueError("x-start must not exceed x-stop")
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def _gch_from_cfg(cfg: _Config) -> GchParams:
    return GchParams(
        mu=float(cfg.require("mu")),
        eps=float(cfg.get("epsilon")),
        nu=float(cfg.require("nu")),
        Omega=float(cfg.require("omega_cap")),
        omega=float(cfg.get("omega")),
    )


def _system_from_cfg(cfg: _Config) -> spectra.QuantumSystem:
    from . import spectra

    name = cfg.require("system")
    l = int(cfg.get("l"))
    if name == "oscillator":
        return spectra.RotatingOscillator(l_m=l, omega_c=float(cfg.require("coupling")))
    if name == "confinement":
        return spectra.Confinement(
            a=float(cfg.require("pot_a")),
            b=float(cfg.require("pot_b")),
            c=float(cfg.require("pot_c")),
            mass=float(cfg.require("mass")),
            l=l,
        )
    if name == "qqbar":
        return spectra.QQbar(m_q=float(cfg.require("mass")), b_slope=float(cfg.require("b_slope")), l=l)
    raise ValueError(f"unknown system {name!r}")


def cmd_eval(cfg: _Config) -> tuple[int, tuple, list[dict]]:
    from .series import betas_from_omega, evaluate

    p = _gch_from_cfg(cfg)
    kind = SolutionKind(cfg.get("kind"))
    lam = validate(p, kind)
    nt = _nested_trunc(cfg)
    xs = _x_grid(cfg)
    betas = betas_from_omega(p, lam, nt.max_order_N + 1) if cfg.get("variant") == "poly" else None
    rows = []
    all_converged = True
    for x in xs:
        res = evaluate(p, kind, x, betas, nt)
        all_converged &= res.converged
        rows.append({
            "_command": "eval",
            "x": float(x),
            "value": res.value,
            "terms_used": res.terms_used,
            "est_error": res.last_term_mag,
            "converged": res.converged,
        })
    return (EXIT_OK if all_converged else EXIT_NO_CONVERGENCE), EVAL_HEADER, rows


def cmd_spectrum(cfg: _Config) -> tuple[int, tuple, list[dict]]:
    from . import spectra

    system = _system_from_cfg(cfg)
    i_max = int(cfg.get("i_max"))
    beta_max = int(cfg.get("beta_max"))
    if i_max < 0 or beta_max < 0:
        raise ValueError("i-max and beta-max must be nonnegative")
    ladder = []
    for i in range(i_max + 1):
        for beta in range(beta_max + 1):
            state = spectra.make_state(system, i, beta)
            ladder.append((state.eigenvalue, i, beta))
    ladder.sort()
    rows = [{"_command": "spectrum", "i": i, "beta": beta, "eigenvalue": ev} for ev, i, beta in ladder]
    return EXIT_OK, SPECTRUM_HEADER, rows


def cmd_wavefunction(cfg: _Config) -> tuple[int, tuple, list[dict]]:
    from . import spectra

    system = _system_from_cfg(cfg)
    state = spectra.make_state(system, int(cfg.get("state_i")), int(cfg.get("state_beta")))
    nt = _nested_trunc(cfg)
    rows = []
    all_converged = True
    for r in _x_grid(cfg):
        if r < 0:
            raise ValueError("radial grid must be nonnegative")
        value, converged = spectra.wavefunction_result(system, state, r, nt)
        all_converged &= converged
        rows.append({"_command": "wavefunction", "r": float(r), "value": value, "converged": converged})
    return (EXIT_OK if all_converged else EXIT_NO_CONVERGENCE), WAVEFUNCTION_HEADER, rows


def _grid_axis(grid: dict, key: str, default: tuple) -> tuple:
    """A verify grid axis from the config file: a nonempty JSON list of
    finite numbers (bools, strings, nulls and NaN are rejected)."""
    if key not in grid:
        return default
    val = grid[key]
    if not isinstance(val, list) or not val or not all(
            type(v) in (int, float) and abs(v) <= sys.float_info.max for v in val):
        raise ValueError(f"config grid.{key}={val!r}: give a nonempty list of finite numbers")
    return tuple(val)


def cmd_verify(cfg: _Config) -> tuple[int, tuple, list[dict]]:
    from .recurrence import coefficients
    from .verify import GridSpec, cross_validate, ode_residual

    tol = float(cfg.get("tolerance"))
    res_tol = float(cfg.get("residual_tol"))
    grid_cfg = cfg.get("grid", None)
    base = GridSpec()
    if grid_cfg is not None:
        if not isinstance(grid_cfg, dict):
            raise ValueError("config grid must be a JSON object")
        kinds = grid_cfg.get("kinds", list(CHOICES["kind"]))
        if not isinstance(kinds, list) or any(k not in CHOICES["kind"] for k in kinds):
            raise ValueError(f"config grid.kinds={kinds!r}: give a list, choose from {', '.join(CHOICES['kind'])}")
        spec = GridSpec(
            mu=_grid_axis(grid_cfg, "mu", base.mu),
            eps=_grid_axis(grid_cfg, "eps", base.eps),
            nu=_grid_axis(grid_cfg, "nu", base.nu),
            Omega=_grid_axis(grid_cfg, "omega_cap", base.Omega),
            omega=_grid_axis(grid_cfg, "omega", base.omega),
            x=_grid_axis(grid_cfg, "x", base.x),
            kinds=tuple(SolutionKind(k) for k in kinds),
        )
    else:
        spec = base
    if not any(True for _ in spec.points()) or not spec.kinds:
        raise ValueError("verification grid is empty")
    nt = _nested_trunc(cfg)
    report = cross_validate(spec, None, nt)
    rows = []
    ok = True
    coeffs_of: dict = {}  # (params, kind) -> coefficients, the same at every x
    for rec in report.records:
        if rec.error is not None:
            rows.append({
                "_command": "verify",
                "mu": rec.params.mu, "epsilon": rec.params.eps, "nu": rec.params.nu,
                "omega_cap": rec.params.Omega, "omega": rec.params.omega,
                "x": rec.x, "kind": rec.kind.value,
                "rel_err": "", "rel_residual": "", "status": rec.error.split(":")[0],
            })
            continue
        lam = rec.kind.lambda_of(rec.params.nu)
        key = (rec.params, rec.kind)
        if key not in coeffs_of:
            coeffs_of[key] = coefficients(rec.params, lam, 1.0, 80)
        rel_res = ode_residual(coeffs_of[key], lam, rec.params, rec.x).relative
        point_ok = rec.rel_err <= tol and rel_res <= res_tol
        ok &= point_ok
        rows.append({
            "_command": "verify",
            "mu": rec.params.mu, "epsilon": rec.params.eps, "nu": rec.params.nu,
            "omega_cap": rec.params.Omega, "omega": rec.params.omega,
            "x": rec.x, "kind": rec.kind.value,
            "rel_err": rec.rel_err, "rel_residual": rel_res,
            "status": "ok" if point_ok else "tolerance",
        })
    print(
        f"verify: {report.n_evaluated} points, max_rel_err={report.max_rel_err:.3e}, "
        f"tolerance={tol:.1e}, {'PASS' if ok else 'FAIL'}",
        file=sys.stderr,
    )
    return (EXIT_OK if ok else EXIT_TOLERANCE), VERIFY_HEADER, rows


def cmd_asymptote(cfg: _Config) -> tuple[int, tuple, list[dict]]:
    regime = AsymptoticRegime(cfg.require("regime"))
    # the small-eps form is a function of mu alone; the small-mu form ignores mu
    mu = float(cfg.require("mu")) if regime is AsymptoticRegime.SMALL_EPS else 0.0
    eps = float(cfg.get("epsilon"))
    rows = []
    for x in _x_grid(cfg):
        rows.append({
            "_command": "asymptote",
            "x": float(x),
            "value": limit_value(regime, mu, eps, x),
        })
    return EXIT_OK, ASYMPTOTE_HEADER, rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _Config(args, _options(parser, args.command))
        handler = {
            "eval": cmd_eval,
            "spectrum": cmd_spectrum,
            "wavefunction": cmd_wavefunction,
            "verify": cmd_verify,
            "asymptote": cmd_asymptote,
        }[args.command]
        code, header, rows = handler(cfg)
    except (GchError, ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    fmt = cfg.get("format")
    out_path = cfg.get("output")
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            _emit(header, rows, fmt, fh)
    else:
        _emit(header, rows, fmt, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
