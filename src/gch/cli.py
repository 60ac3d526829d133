"""Command-line front end.

Subcommands: eval | spectrum | wavefunction | verify | asymptote.
Rows are emitted as CSV (LF line endings, pinned headers) or JSON; every
float is printed in shortest round-trip form, so repeated runs are
byte-identical and JSON output re-serialises to itself.  Options may also
be supplied as a JSON config file; explicit flags win on conflict, and a
file value must be one its flag accepts (a choice, or a JSON number,
integer or string for a float, int or string flag; no bools).  A null
value counts as not given, and keys the subcommand does not declare are
ignored.  Float options, as flags or file values, must be finite: NaN and
infinities exit 2.

Exit codes: 0 ok, 1 tolerance failure, 2 config/validation error (a
float overflow too), 3 non-convergence.
"""

from __future__ import annotations

import argparse
import math
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

#: what a handler returns: exit code, header, rows in header order, and a
#: summary line for stderr (or ""), printed once the output is open
Result = tuple[int, tuple, list[tuple], str]

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


def _emit(command: str, header: Sequence[str], rows: list[tuple], fmt: str, out) -> None:
    if fmt == "csv":
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(map(_fmt, row)) + "\n")
    else:
        import json

        doc = {"command": command, "rows": [dict(zip(header, row)) for row in rows]}
        out.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _finite(text) -> float:
    """The type of every float option: a float that is neither NaN nor
    infinite.  Config file numbers pass through it too.  A non-number gets
    the message argparse gives for ``type=float``."""
    try:
        val = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return val


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The gch parser, and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(prog="gch", description="Evaluate the grand confluent hypergeometric function and its bound-state applications")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=CHOICES["format"], default="csv")
        sp.add_argument("--output", default=None, help="output path (default: stdout)")
        sp.add_argument("--config", default=None, help="JSON config file; flags win on conflict")

    def trunc(sp):
        # unset, each keeps NestedTruncation's default
        sp.add_argument("--max-order", type=int, default=None)
        sp.add_argument("--max-inner", type=int, default=None)
        sp.add_argument("--rel-tol", type=_finite, default=None)

    def gch_params(sp):
        sp.add_argument("--mu", type=_finite, default=None)
        sp.add_argument("--epsilon", type=_finite, default=0.0)
        sp.add_argument("--nu", type=_finite, default=None)
        sp.add_argument("--omega-cap", type=_finite, default=None, help="coefficient of x in the potential term")
        sp.add_argument("--omega", type=_finite, default=0.0, help="parameter multiplying epsilon in the constant potential term")

    def grid(sp):
        sp.add_argument("--x-start", type=_finite, default=0.0)
        sp.add_argument("--x-stop", type=_finite, default=1.0)
        sp.add_argument("--x-count", type=int, default=11)

    def system(sp):
        sp.add_argument("--system", choices=CHOICES["system"], default=None)
        sp.add_argument("--l", type=int, default=0, help="angular momentum quantum number")
        sp.add_argument("--coupling", type=_finite, default=None, help="oscillator coupling")
        sp.add_argument("--pot-a", type=_finite, default=None)
        sp.add_argument("--pot-b", type=_finite, default=None)
        sp.add_argument("--pot-c", type=_finite, default=None)
        sp.add_argument("--mass", type=_finite, default=None, help="reduced mass / quark mass")
        sp.add_argument("--b-slope", type=_finite, default=None)

    sp = sub.add_parser("eval", help="evaluate a series solution on an x grid")
    common(sp); trunc(sp); gch_params(sp); grid(sp)
    sp.add_argument("--kind", choices=CHOICES["kind"], default="first")
    sp.add_argument("--variant", choices=CHOICES["variant"], default="infinite")

    sp = sub.add_parser("spectrum", help="enumerate an eigenvalue ladder")
    common(sp); system(sp)
    sp.add_argument("--i-max", type=int, default=0)
    sp.add_argument("--beta-max", type=int, default=5)

    sp = sub.add_parser("wavefunction", help="sample an eigenstate's radial function")
    common(sp); trunc(sp); system(sp); grid(sp)
    sp.add_argument("--state-i", type=int, default=0)
    sp.add_argument("--state-beta", type=int, default=0)

    sp = sub.add_parser("verify", help="cross-validate closed forms against direct recurrence")
    common(sp); trunc(sp)
    sp.add_argument("--tolerance", type=_finite, default=1e-9, help="max relative error allowed (default 1e-9)")
    sp.add_argument("--residual-tol", type=_finite, default=1e-8, help="max relative ODE residual (default 1e-8)")
    sp.set_defaults(grid=None)  # the grid is given only in a config file

    sp = sub.add_parser("asymptote", help="evaluate a limiting form on an x grid")
    common(sp); grid(sp)
    sp.add_argument("--regime", choices=CHOICES["regime"], default=None)
    sp.add_argument("--mu", type=_finite, default=None)
    sp.add_argument("--epsilon", type=_finite, default=0.0)

    return parser, sub.choices


#: option type (argparse's default None is str) -> the JSON value types a
#: config file may give for it, and how to say so; bools are refused
_CONFIG_TYPES = {
    _finite: ((int, float), "a number"),
    int: ((int,), "an integer"),
    None: ((str,), "a string"),
}


def _config_defaults(path: str, args: argparse.Namespace, options: Sequence[argparse.Action]) -> dict:
    """The values a JSON config file gives to the options of ``args``'s
    subcommand, each declared by one of ``options``.

    Hyphens in keys read as underscores; null values, and keys the
    subcommand does not declare, are dropped.  A value must be one its
    flag accepts: one of its choices, or a value of its type that passes
    the flag's own type check.
    """
    import json

    with open(path, "r", encoding="utf-8") as fh:
        given = json.load(fh)
    if not isinstance(given, dict):
        raise ValueError("config file must hold a JSON object")
    given = {k.replace("-", "_"): v for k, v in given.items()}
    # the parsed namespace holds exactly the subcommand's options, plus the
    # subcommand's own name, which a file must not overwrite
    values = {k: v for k, v in given.items() if v is not None and k in vars(args) and k != "command"}
    for action in options:
        key = action.dest
        if key not in values:
            continue
        val = values[key]
        allowed, what = _CONFIG_TYPES[action.type]
        if action.choices is not None:
            if val not in action.choices:
                raise ValueError(f"config {key}={val!r}: choose from {', '.join(action.choices)}")
        elif type(val) not in allowed:
            raise ValueError(f"config {key}={val!r}: give {what}")
        elif action.type is not None:
            try:
                values[key] = action.type(val)
            except argparse.ArgumentTypeError as exc:
                raise ValueError(f"config {key}={val!r}: {exc}") from None
    return values


def _require(args: argparse.Namespace, key: str):
    val = getattr(args, key)
    if val is None:
        raise ValueError(f"missing required option --{key.replace('_', '-')}")
    return val


def _nested_trunc(args: argparse.Namespace) -> NestedTruncation:
    from .series import NestedTruncation

    given = {"max_order_N": args.max_order, "max_inner": args.max_inner, "rel_tol": args.rel_tol}
    return NestedTruncation(**{k: v for k, v in given.items() if v is not None})


def _x_grid(args: argparse.Namespace) -> list[float]:
    start, stop, count = args.x_start, args.x_stop, args.x_count
    if count < 1:
        raise ValueError("x-count must be at least 1")
    if start > stop:
        raise ValueError("x-start must not exceed x-stop")
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def _gch_params(args: argparse.Namespace) -> GchParams:
    return GchParams(
        mu=_require(args, "mu"),
        eps=args.epsilon,
        nu=_require(args, "nu"),
        Omega=_require(args, "omega_cap"),
        omega=args.omega,
    )


def _system(args: argparse.Namespace) -> spectra.QuantumSystem:
    from . import spectra

    name = _require(args, "system")
    if name == "oscillator":
        return spectra.RotatingOscillator(l_m=args.l, omega_c=_require(args, "coupling"))
    if name == "confinement":
        return spectra.Confinement(
            a=_require(args, "pot_a"),
            b=_require(args, "pot_b"),
            c=_require(args, "pot_c"),
            mass=_require(args, "mass"),
            l=args.l,
        )
    return spectra.QQbar(m_q=_require(args, "mass"), b_slope=_require(args, "b_slope"), l=args.l)


def cmd_eval(args: argparse.Namespace) -> Result:
    from .series import betas_from_omega, evaluate_grid

    p = _gch_params(args)
    kind = SolutionKind(args.kind)
    lam = validate(p, kind)
    nt = _nested_trunc(args)
    xs = _x_grid(args)
    if args.variant == "poly":
        betas_from_omega(p, lam, 1)  # raises NoTermination unless Omega ends chain 0
    results = evaluate_grid(p, kind, xs, nt)
    rows = [(x, res.value, res.terms_used, res.last_term_mag, res.converged) for x, res in zip(xs, results)]
    all_converged = all(res.converged for res in results)
    return (EXIT_OK if all_converged else EXIT_NO_CONVERGENCE), EVAL_HEADER, rows, ""


def cmd_spectrum(args: argparse.Namespace) -> Result:
    from . import spectra

    system = _system(args)
    if args.i_max < 0 or args.beta_max < 0:
        raise ValueError("i-max and beta-max must be nonnegative")
    ladder = []
    for i in range(args.i_max + 1):
        for beta in range(args.beta_max + 1):
            state = spectra.make_state(system, i, beta)
            ladder.append((state.eigenvalue, i, beta))
    ladder.sort()
    return EXIT_OK, SPECTRUM_HEADER, [(i, beta, ev) for ev, i, beta in ladder], ""


def cmd_wavefunction(args: argparse.Namespace) -> Result:
    from . import spectra

    system = _system(args)
    state = spectra.make_state(system, args.state_i, args.state_beta)
    nt = _nested_trunc(args)
    rs = _x_grid(args)
    if rs[0] < 0:  # the grid ascends
        raise ValueError("radial grid must be nonnegative")
    rows = [(r, value, res.converged) for r, (value, res) in zip(rs, spectra._samples(system, state, rs, nt))]
    all_converged = all(row[2] for row in rows)
    return (EXIT_OK if all_converged else EXIT_NO_CONVERGENCE), WAVEFUNCTION_HEADER, rows, ""


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


def cmd_verify(args: argparse.Namespace) -> Result:
    from .recurrence import coefficients
    from .verify import GridSpec, cross_validate, ode_residual

    tol, res_tol, grid_cfg = args.tolerance, args.residual_tol, args.grid
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
    nt = _nested_trunc(args)
    report = cross_validate(spec, nt)
    rows = []
    ok = True
    coeffs_of: dict = {}  # (params, kind) -> coefficients, the same at every x
    for rec in report.records:
        p = rec.params
        point = (p.mu, p.eps, p.nu, p.Omega, p.omega, rec.x, rec.kind.value)
        if rec.error is not None:
            rows.append(point + ("", "", rec.error.split(":")[0]))
            continue
        lam = rec.kind.lambda_of(p.nu)
        key = (p, rec.kind)
        if key not in coeffs_of:
            coeffs_of[key] = coefficients(p, lam, 1.0, 80)
        rel_res = ode_residual(coeffs_of[key], lam, p, rec.x).relative
        point_ok = rec.rel_err <= tol and rel_res <= res_tol
        ok &= point_ok
        rows.append(point + (rec.rel_err, rel_res, "ok" if point_ok else "tolerance"))
    summary = (f"verify: {report.n_evaluated} points, max_rel_err={report.max_rel_err:.3e}, "
               f"tolerance={tol:.1e}, {'PASS' if ok else 'FAIL'}")
    return (EXIT_OK if ok else EXIT_TOLERANCE), VERIFY_HEADER, rows, summary


def cmd_asymptote(args: argparse.Namespace) -> Result:
    regime = AsymptoticRegime(_require(args, "regime"))
    # the small-eps form is a function of mu alone; the small-mu form ignores mu
    mu = _require(args, "mu") if regime is AsymptoticRegime.SMALL_EPS else 0.0
    return EXIT_OK, ASYMPTOTE_HEADER, [(x, limit_value(regime, mu, args.epsilon, x)) for x in _x_grid(args)], ""


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the file's values become the subcommand's defaults: a flag
            # still wins over the file, and the file over a declared default
            sp = commands[args.command]
            sp.set_defaults(**_config_defaults(args.config, args, sp._actions))
            args = parser.parse_args(argv)
        handler = {
            "eval": cmd_eval,
            "spectrum": cmd_spectrum,
            "wavefunction": cmd_wavefunction,
            "verify": cmd_verify,
            "asymptote": cmd_asymptote,
        }[args.command]
        code, header, rows, summary = handler(args)
        # opened once the rows exist, so a failed command writes no file
        out = open(args.output, "w", encoding="utf-8", newline="\n") if args.output else sys.stdout
    except (GchError, ValueError, OSError, ArithmeticError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if summary:
        print(summary, file=sys.stderr)
    _emit(args.command, header, rows, args.format, out)
    if out is not sys.stdout:
        out.close()
    return code


if __name__ == "__main__":
    sys.exit(main())
