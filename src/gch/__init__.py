"""Grand confluent hypergeometric function toolkit.

Evaluates both Frobenius solutions of

    x y'' + (mu x^2 + eps x + nu) y' + (Omega x + eps omega) y = 0

through resummed nested series (infinite-series and B-terminated
polynomial classes), validates them against direct recurrence summation
and the ODE itself, and applies them to three quantum bound-state
problems.
"""

from .errors import (
    BetaMismatch,
    DegenerateCoupling,
    DomainError,
    GammaPole,
    GchError,
    KindRestrictionError,
    NonFiniteError,
    NormalizationPole,
    NoTermination,
    PoleError,
    TailNotDecayed,
)
from .params import (
    GchParams,
    SolutionKind,
    coefficient_A,
    coefficient_B,
    validate,
)
from .recurrence import EvalResult, Truncation, coefficients, detect_termination, sum_series
from .series import (
    NestedTruncation,
    betas_from_omega,
    eval_general,
    evaluate,
)
from .asymptotics import (
    AsymptoticRegime,
    asym_small_eps,
    asym_small_mu,
    asym_small_mu_resummed,
    erf,
    erfi,
    limit_value,
)
from .spectra import (
    Confinement,
    EigenState,
    QQbar,
    RotatingOscillator,
    eigen_oscillator,
    energy_confinement,
    energy_qqbar,
    envelope,
    make_state,
    map_confinement,
    map_oscillator,
    map_qqbar,
    normalize,
    radial_norm,
    small_r_exponent,
    wavefunction,
    wavefunction_result,
)
from .verify import CrossReport, GridSpec, ResidualReport, cross_validate, kummer_oracle, ode_residual

__version__ = "0.1.0"

__all__ = [
    "AsymptoticRegime",
    "BetaMismatch",
    "Confinement",
    "CrossReport",
    "DegenerateCoupling",
    "DomainError",
    "EigenState",
    "EvalResult",
    "GammaPole",
    "GchError",
    "GchParams",
    "GridSpec",
    "KindRestrictionError",
    "NestedTruncation",
    "NonFiniteError",
    "NormalizationPole",
    "NoTermination",
    "PoleError",
    "QQbar",
    "ResidualReport",
    "RotatingOscillator",
    "SolutionKind",
    "TailNotDecayed",
    "Truncation",
    "asym_small_eps",
    "asym_small_mu",
    "asym_small_mu_resummed",
    "betas_from_omega",
    "coefficient_A",
    "coefficient_B",
    "coefficients",
    "cross_validate",
    "detect_termination",
    "eigen_oscillator",
    "energy_confinement",
    "energy_qqbar",
    "envelope",
    "erf",
    "erfi",
    "eval_general",
    "evaluate",
    "kummer_oracle",
    "limit_value",
    "make_state",
    "map_confinement",
    "map_oscillator",
    "map_qqbar",
    "normalize",
    "ode_residual",
    "radial_norm",
    "small_r_exponent",
    "sum_series",
    "validate",
    "wavefunction",
    "wavefunction_result",
]
