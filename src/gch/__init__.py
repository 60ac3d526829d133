"""Grand confluent hypergeometric function toolkit.

Evaluates both Frobenius solutions of

    x y'' + (mu x^2 + eps x + nu) y' + (Omega x + eps omega) y = 0

through resummed nested series (infinite-series and B-terminated
polynomial classes), validates them against direct recurrence summation
and the ODE itself, and applies them to three quantum bound-state
problems.

The package namespace is lazy (PEP 562): ``import gch`` loads no
submodule, and each name below, or a submodule such as ``gch.series``,
imports its module on first use.
"""

import importlib

__version__ = "0.1.0"

#: submodule -> the names it exports at package level
_EXPORTS = {
    "errors": (
        "BetaMismatch", "DegenerateCoupling", "DomainError", "FloatOverflow", "GchError",
        "KindRestrictionError", "NonFiniteError", "NormalizationPole", "NoTermination",
        "PoleError", "SampleNotConverged", "TailNotDecayed",
    ),
    "params": ("EvalResult", "GchParams", "SolutionKind", "detect_termination", "validate"),
    "recurrence": ("coefficients", "sum_series"),
    "series": ("NestedTruncation", "betas_from_omega", "eval_general", "evaluate", "evaluate_grid"),
    "asymptotics": ("asym_small_eps", "asym_small_mu", "erfi"),
    "spectra": (
        "Confinement", "EigenState", "QQbar", "RotatingOscillator", "make_state", "normalize",
        "radial_norm", "wavefunction_result",
    ),
    "verify": ("CrossReport", "GridSpec", "ResidualReport", "cross_validate", "ode_residual"),
    "cli": (),
}

#: each exported name, and each submodule name, -> its submodule
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

# classes first, then functions, each in case-insensitive order
__all__ = sorted((name for names in _EXPORTS.values() for name in names), key=lambda n: (n[0].islower(), n.lower()))


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    mod = importlib.import_module(f"{__name__}.{module}")
    value = mod if name == module else getattr(mod, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
