"""Bound-state applications: parameter maps, eigenvalue ladders, wavefunctions.

Three radial problems reduce to the series equation handled by this
package: a rotating harmonic oscillator, a Cornell-type confinement
potential (Coulomb + linear + quadratic), and a linearly confined
quark-antiquark Hamiltonian.  Each system maps its physical parameters
onto the five ODE coefficients; demanding a B-terminated solution then
quantises Omega through Omega = -mu (2 beta + i + lam) and yields a
closed-form eigenvalue ladder indexed by (i, beta).

The radial factors returned by :func:`wavefunction` are the reduced
functions u(r) = r * R(r), so all three systems share the r^(l+1)
small-r behaviour and vanish at the origin; the quark model's full
radial function is value / r.  hbar = 1 throughout (reinstatement
substitutions are documented in the README).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

from .errors import DegenerateCoupling, TailNotDecayed
from .params import GchParams, SolutionKind
from .series import NestedTruncation, evaluate


@dataclass(frozen=True)
class RotatingOscillator:
    """Rotating harmonic oscillator; l_m rotational quantum number, omega_c coupling."""

    l_m: int
    omega_c: float

    def __post_init__(self) -> None:
        if self.l_m < 0:
            raise ValueError("l_m must be a nonnegative integer")
        if self.omega_c <= 0.0:
            raise ValueError("omega_c must be positive")


@dataclass(frozen=True)
class Confinement:
    """Potential -a/r + b r + c r^2 (c > 0) at reduced mass ``mass``, hbar = 1."""

    a: float
    b: float
    c: float
    mass: float
    l: int

    def __post_init__(self) -> None:
        if self.c <= 0.0:
            raise ValueError("c must be positive")
        if self.mass <= 0.0:
            raise ValueError("mass must be positive")
        if self.l < 0:
            raise ValueError("l must be a nonnegative integer")


@dataclass(frozen=True)
class QQbar:
    """Spin-free scalar-confinement quark-antiquark system; E^2 ladder."""

    m_q: float
    b_slope: float
    l: int

    def __post_init__(self) -> None:
        if self.m_q < 0.0:
            raise ValueError("quark mass must be nonnegative")
        if self.b_slope <= 0.0:
            raise ValueError("slope b must be positive")
        if self.l < 0:
            raise ValueError("l must be a nonnegative integer")


QuantumSystem = Union[RotatingOscillator, Confinement, QQbar]


@dataclass(frozen=True)
class EigenState:
    """One B-terminated bound state.

    ``i`` is the termination order, ``beta_i`` the ladder index within it,
    ``eigenvalue`` the system's spectral quantity (lambda_m, E, or E^2),
    ``gch`` the mapped coefficients with Omega resolved, and ``lam`` the
    indicial root in use (0: the regular-at-origin branch).
    """

    i: int
    beta_i: int
    eigenvalue: float
    gch: GchParams
    lam: float


def map_oscillator(l_m: int, omega_c: float) -> GchParams:
    """Oscillator coefficients mu=-2, eps=sqrt(2/omega_c), nu=2(l_m+1), omega=l_m+1.

    Omega is left unresolved (NaN) until an eigenvalue lambda_m fixes it
    through Omega = 2(lambda_m - l_m - 1).
    """
    RotatingOscillator(l_m, omega_c)
    return GchParams(
        mu=-2.0,
        eps=math.sqrt(2.0 / omega_c),
        nu=2.0 * (l_m + 1),
        Omega=math.nan,
        omega=float(l_m + 1),
    )


def eigen_oscillator(l_m: int, i: int, beta_i: int) -> float:
    """Eigenvalue ladder lambda_m = 2 beta_i + l_m + 1 + i."""
    return 2.0 * beta_i + l_m + 1.0 + i


def map_confinement(a: float, b: float, c: float, mass: float, l: int) -> tuple[GchParams, float, float]:
    """Confinement coefficients plus the scale factors (alpha_F, beta_F).

    alpha_F = sqrt(2 mass c), beta_F = b sqrt(mass/(2c));
    mu=-2, eps=-2 beta_F/sqrt(alpha_F), nu=2(l+1), omega=-mass*a/beta_F + l + 1.
    b = 0 makes the omega map singular and raises DegenerateCoupling.
    """
    Confinement(a, b, c, mass, l)
    alpha_f = math.sqrt(2.0 * mass * c)
    beta_f = b * math.sqrt(mass / (2.0 * c))
    if beta_f == 0.0:
        raise DegenerateCoupling("b = 0 gives beta_F = 0; the a-term of omega is singular")
    gch = GchParams(
        mu=-2.0,
        eps=-2.0 * beta_f / math.sqrt(alpha_f),
        nu=2.0 * (l + 1),
        Omega=math.nan,
        omega=-mass * a / beta_f + l + 1.0,
    )
    return gch, alpha_f, beta_f


def energy_confinement(alpha_f: float, beta_f: float, mass: float, l: int, i: int, beta_i: int) -> float:
    """E = (1/(2 mass)) (4 alpha_F (beta_i + (i + l + 3/2)/2) - beta_F^2), hbar = 1."""
    return (4.0 * alpha_f * (beta_i + 0.5 * (i + l + 1.5)) - beta_f * beta_f) / (2.0 * mass)


def map_qqbar(m_q: float, b_slope: float, l: int) -> GchParams:
    """Quark-model coefficients mu=-b, eps=-2m, nu=2(l+1), omega=l+1."""
    QQbar(m_q, b_slope, l)
    return GchParams(
        mu=-b_slope,
        eps=-2.0 * m_q,
        nu=2.0 * (l + 1),
        Omega=math.nan,
        omega=float(l + 1),
    )


def energy_qqbar(b_slope: float, l: int, i: int, beta_i: int) -> float:
    """Squared-mass ladder E^2 = 4 b (2 beta_i + i + l + 3/2)."""
    return 4.0 * b_slope * (2.0 * beta_i + i + l + 1.5)


def make_state(system: QuantumSystem, i: int, beta_i: int) -> EigenState:
    """Resolve the (i, beta_i) eigenstate of a system.

    Omega comes from the system's own correspondence (spectral formula
    route); it agrees with the termination condition -mu(2 beta + i) to
    rounding, which the test suite asserts as an independent cross-check.
    """
    if i < 0 or beta_i < 0:
        raise ValueError("i and beta_i must be nonnegative integers")
    if isinstance(system, RotatingOscillator):
        lam_m = eigen_oscillator(system.l_m, i, beta_i)
        gch = map_oscillator(system.l_m, system.omega_c)
        gch = GchParams(gch.mu, gch.eps, gch.nu, 2.0 * (lam_m - system.l_m - 1.0), gch.omega)
        return EigenState(i=i, beta_i=beta_i, eigenvalue=lam_m, gch=gch, lam=0.0)
    if isinstance(system, Confinement):
        base, alpha_f, beta_f = map_confinement(system.a, system.b, system.c, system.mass, system.l)
        energy = energy_confinement(alpha_f, beta_f, system.mass, system.l, i, beta_i)
        omega_cap = (beta_f * beta_f + 2.0 * system.mass * energy) / alpha_f - 2.0 * (system.l + 1.5)
        gch = GchParams(base.mu, base.eps, base.nu, omega_cap, base.omega)
        return EigenState(i=i, beta_i=beta_i, eigenvalue=energy, gch=gch, lam=0.0)
    if isinstance(system, QQbar):
        e2 = energy_qqbar(system.b_slope, system.l, i, beta_i)
        base = map_qqbar(system.m_q, system.b_slope, system.l)
        gch = GchParams(base.mu, base.eps, base.nu, 0.25 * e2 - system.b_slope * (system.l + 1.5), base.omega)
        return EigenState(i=i, beta_i=beta_i, eigenvalue=e2, gch=gch, lam=0.0)
    raise TypeError(f"unknown system {system!r}")


def envelope(system: QuantumSystem, r: float) -> float:
    """Exponential-times-power factor multiplying the series part."""
    if isinstance(system, RotatingOscillator):
        d = r - 1.0
        return r ** (system.l_m + 1) * math.exp(-d * d / (2.0 * system.omega_c))
    if isinstance(system, Confinement):
        _, alpha_f, beta_f = map_confinement(system.a, system.b, system.c, system.mass, system.l)
        return r ** (system.l + 1) * math.exp(-0.5 * alpha_f * r * r - beta_f * r)
    if isinstance(system, QQbar):
        shift = r + 2.0 * system.m_q / system.b_slope
        return r ** (system.l + 1) * math.exp(-0.25 * system.b_slope * shift * shift)
    raise TypeError(f"unknown system {system!r}")


def _series_argument(system: QuantumSystem, r: float) -> float:
    # radial coordinate expressed in the ODE variable x
    if isinstance(system, RotatingOscillator):
        return r / math.sqrt(2.0 * system.omega_c)
    if isinstance(system, Confinement):
        _, alpha_f, _ = map_confinement(system.a, system.b, system.c, system.mass, system.l)
        return math.sqrt(alpha_f) * r
    return r


def wavefunction_result(
    system: QuantumSystem,
    state: EigenState,
    r: float,
    t: NestedTruncation | None = None,
) -> tuple[float, bool]:
    """(unnormalised reduced radial value, converged flag)."""
    if r < 0.0:
        raise ValueError("r must be nonnegative")
    res = evaluate(state.gch, SolutionKind.FIRST, _series_argument(system, r), t=t)
    return envelope(system, r) * res.value, res.converged


def wavefunction(
    system: QuantumSystem,
    state: EigenState,
    r: float,
    t: NestedTruncation | None = None,
) -> float:
    """Unnormalised reduced radial value envelope(r) * QW(x(r)).

    The regular-at-origin first-kind series is always the physical branch.
    The state's Omega = -mu(2 beta + i) gives n* = 2 beta + i + 1, so chain
    k ends at (2 beta + i - k)/2 wherever that is a nonnegative integer:
    for even i chain 0 ends and the function is the B-terminated class, for
    odd i the odd chains end and chain 0 runs the infinite series.
    """
    return wavefunction_result(system, state, r, t)[0]


def _radial_samples(fn: Callable[[float], float], r_max: float, n_points: int) -> tuple[list[float], list[float]]:
    """Uniform grid on [0, r_max] with an odd number (n_points, or one more)
    of points, and fn on it."""
    if r_max <= 0.0 or n_points < 3:
        raise ValueError("need r_max > 0 and at least 3 quadrature points")
    n = n_points if n_points % 2 == 1 else n_points + 1
    h = r_max / (n - 1)
    grid = [i * h for i in range(n - 1)] + [r_max]
    return grid, [fn(r) for r in grid]


def _simpson(grid: list[float], vals: list[float]) -> float:
    """Composite-Simpson value of integral vals^2 r^2 dr over a grid from
    :func:`_radial_samples`."""
    last = len(grid) - 1
    terms = [v * v * r * r * (1.0 if i in (0, last) else 4.0 if i % 2 else 2.0)
             for i, (r, v) in enumerate(zip(grid, vals))]
    return (grid[1] - grid[0]) / 3.0 * math.fsum(terms)


def radial_norm(fn: Callable[[float], float], r_max: float, n_points: int) -> float:
    """Composite-Simpson value of integral_0^{r_max} fn(r)^2 r^2 dr."""
    return _simpson(*_radial_samples(fn, r_max, n_points))


def normalize(
    system: QuantumSystem,
    state: EigenState,
    r_max: float,
    n_points: int,
    t: NestedTruncation | None = None,
) -> float:
    """Normalisation constant N = 1/sqrt(integral Psi^2 r^2 dr) on [0, r_max].

    Raises TailNotDecayed unless |Psi(r_max)| has fallen below 1e-10 of the
    sampled peak.
    """
    grid, vals = _radial_samples(lambda r: wavefunction(system, state, r, t), r_max, n_points)
    peak = max(abs(v) for v in vals)
    if peak == 0.0 or abs(vals[-1]) > 1e-10 * peak:
        raise TailNotDecayed(
            f"|Psi({r_max})| = {abs(vals[-1]):.3e} exceeds 1e-10 of peak {peak:.3e}"
        )
    return 1.0 / math.sqrt(_simpson(grid, vals))
