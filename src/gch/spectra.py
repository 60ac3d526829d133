"""Bound-state applications: parameter maps, eigenvalue ladders, wavefunctions.

Three radial problems reduce to the series equation handled by this
package: a rotating harmonic oscillator, a Cornell-type confinement
potential (Coulomb + linear + quadratic), and a linearly confined
quark-antiquark Hamiltonian.  Each is one class that knows its own
physics: ``params(Omega)`` maps the physical parameters onto the five ODE
coefficients, ``eigenvalue(i, beta_i)`` is the closed-form ladder that
B-termination, Omega = -mu (2 beta + i + lam), quantises,
``omega_cap(eigenvalue)`` is the Omega an eigenvalue corresponds to, and
``envelope(r)`` and ``x_of(r)`` give the factor and the series argument of
the radial function.

The radial factors returned by :func:`wavefunction` are the reduced
functions u(r) = r * R(r), so all three systems share the r^(l+1)
small-r behaviour and vanish at the origin; the quark model's full
radial function is value / r.  hbar = 1 throughout (reinstatement
substitutions are documented in the README).
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Sequence, Union

from .errors import DegenerateCoupling, SampleNotConverged, TailNotDecayed
from .params import GchParams, SolutionKind, _bind, _Frozen
from .recurrence import EvalResult
from .series import NestedTruncation, evaluate_grid


class RotatingOscillator(_Frozen):
    """Rotating harmonic oscillator; l_m rotational quantum number, omega_c coupling.

    Map: mu=-2, eps=sqrt(2/omega_c), nu=2(l_m+1), omega=l_m+1, x = r/sqrt(2 omega_c).
    Ladder: lambda_m = 2 beta_i + l_m + 1 + i, with Omega = 2(lambda_m - l_m - 1).
    """

    __slots__ = ("l_m", "omega_c")

    def __init__(self, l_m: int, omega_c: float) -> None:
        if l_m < 0:
            raise ValueError("l_m must be a nonnegative integer")
        if omega_c <= 0.0:
            raise ValueError("omega_c must be positive")
        _bind(self, "l_m", l_m)
        _bind(self, "omega_c", omega_c)

    def params(self, Omega: float) -> GchParams:
        return GchParams(mu=-2.0, eps=math.sqrt(2.0 / self.omega_c), nu=2.0 * (self.l_m + 1),
                         Omega=Omega, omega=float(self.l_m + 1))

    def eigenvalue(self, i: int, beta_i: int) -> float:
        return 2.0 * beta_i + self.l_m + 1.0 + i

    def omega_cap(self, lam_m: float) -> float:
        return 2.0 * (lam_m - self.l_m - 1.0)

    def envelope(self, r: float) -> float:
        d = r - 1.0
        return r ** (self.l_m + 1) * math.exp(-d * d / (2.0 * self.omega_c))

    def x_of(self, r: float) -> float:
        return r / math.sqrt(2.0 * self.omega_c)


class Confinement(_Frozen):
    """Potential -a/r + b r + c r^2 (c > 0) at reduced mass ``mass``, hbar = 1.

    Scales alpha_F = sqrt(2 mass c), beta_F = b sqrt(mass/(2c)).  Map: mu=-2,
    eps=-2 beta_F/sqrt(alpha_F), nu=2(l+1), omega=-mass a/beta_F + l + 1,
    x = sqrt(alpha_F) r; b = 0 makes the omega map singular and raises
    DegenerateCoupling.  Ladder: E = (4 alpha_F (beta_i + (i + l + 3/2)/2)
    - beta_F^2)/(2 mass), with Omega = (beta_F^2 + 2 mass E)/alpha_F - 2(l + 3/2).
    """

    __slots__ = ("a", "b", "c", "mass", "l")

    def __init__(self, a: float, b: float, c: float, mass: float, l: int) -> None:
        if c <= 0.0:
            raise ValueError("c must be positive")
        if mass <= 0.0:
            raise ValueError("mass must be positive")
        if l < 0:
            raise ValueError("l must be a nonnegative integer")
        _bind(self, "a", a)
        _bind(self, "b", b)
        _bind(self, "c", c)
        _bind(self, "mass", mass)
        _bind(self, "l", l)

    @property
    def alpha_f(self) -> float:
        return math.sqrt(2.0 * self.mass * self.c)

    @property
    def beta_f(self) -> float:
        return self.b * math.sqrt(self.mass / (2.0 * self.c))

    def params(self, Omega: float) -> GchParams:
        alpha_f, beta_f = self.alpha_f, self.beta_f
        if beta_f == 0.0:
            raise DegenerateCoupling("b = 0 gives beta_F = 0; the a-term of omega is singular")
        return GchParams(mu=-2.0, eps=-2.0 * beta_f / math.sqrt(alpha_f), nu=2.0 * (self.l + 1),
                         Omega=Omega, omega=-self.mass * self.a / beta_f + self.l + 1.0)

    def eigenvalue(self, i: int, beta_i: int) -> float:
        beta_f = self.beta_f
        return (4.0 * self.alpha_f * (beta_i + 0.5 * (i + self.l + 1.5)) - beta_f * beta_f) / (2.0 * self.mass)

    def omega_cap(self, energy: float) -> float:
        beta_f = self.beta_f
        return (beta_f * beta_f + 2.0 * self.mass * energy) / self.alpha_f - 2.0 * (self.l + 1.5)

    def envelope(self, r: float) -> float:
        return r ** (self.l + 1) * math.exp(-0.5 * self.alpha_f * r * r - self.beta_f * r)

    def x_of(self, r: float) -> float:
        return math.sqrt(self.alpha_f) * r


class QQbar(_Frozen):
    """Spin-free scalar-confinement quark-antiquark system; E^2 ladder.

    Map: mu=-b, eps=-2m, nu=2(l+1), omega=l+1, x = r.
    Ladder: E^2 = 4 b (2 beta_i + i + l + 3/2), with Omega = E^2/4 - b (l + 3/2).
    """

    __slots__ = ("m_q", "b_slope", "l")

    def __init__(self, m_q: float, b_slope: float, l: int) -> None:
        if m_q < 0.0:
            raise ValueError("quark mass must be nonnegative")
        if b_slope <= 0.0:
            raise ValueError("slope b must be positive")
        if l < 0:
            raise ValueError("l must be a nonnegative integer")
        _bind(self, "m_q", m_q)
        _bind(self, "b_slope", b_slope)
        _bind(self, "l", l)

    def params(self, Omega: float) -> GchParams:
        return GchParams(mu=-self.b_slope, eps=-2.0 * self.m_q, nu=2.0 * (self.l + 1),
                         Omega=Omega, omega=float(self.l + 1))

    def eigenvalue(self, i: int, beta_i: int) -> float:
        return 4.0 * self.b_slope * (2.0 * beta_i + i + self.l + 1.5)

    def omega_cap(self, e2: float) -> float:
        return 0.25 * e2 - self.b_slope * (self.l + 1.5)

    def envelope(self, r: float) -> float:
        shift = r + 2.0 * self.m_q / self.b_slope
        return r ** (self.l + 1) * math.exp(-0.25 * self.b_slope * shift * shift)

    def x_of(self, r: float) -> float:
        return r


QuantumSystem = Union[RotatingOscillator, Confinement, QQbar]


class EigenState(_Frozen):
    """One B-terminated bound state on the regular-at-origin branch.

    ``i`` is the termination order, ``beta_i`` the ladder index within it,
    ``eigenvalue`` the system's spectral quantity (lambda_m, E, or E^2),
    and ``gch`` the mapped coefficients with Omega resolved.
    """

    __slots__ = ("i", "beta_i", "eigenvalue", "gch")

    def __init__(self, i: int, beta_i: int, eigenvalue: float, gch: GchParams) -> None:
        _bind(self, "i", i)
        _bind(self, "beta_i", beta_i)
        _bind(self, "eigenvalue", eigenvalue)
        _bind(self, "gch", gch)


def make_state(system: QuantumSystem, i: int, beta_i: int) -> EigenState:
    """Resolve the (i, beta_i) eigenstate of a system.

    Omega comes from the system's own correspondence (spectral formula
    route); it agrees with the termination condition -mu(2 beta + i) to
    rounding, which the test suite asserts as an independent cross-check.
    ``i`` and ``beta_i`` must be nonnegative integers, of any type that
    :func:`operator.index` accepts (the state holds them as int); anything
    else raises ValueError.
    """
    try:
        i, beta_i = operator.index(i), operator.index(beta_i)
    except TypeError:
        raise ValueError("i and beta_i must be nonnegative integers") from None
    if i < 0 or beta_i < 0:
        raise ValueError("i and beta_i must be nonnegative integers")
    eigenvalue = system.eigenvalue(i, beta_i)
    return EigenState(i, beta_i, eigenvalue, system.params(system.omega_cap(eigenvalue)))


def _samples(
    system: QuantumSystem,
    state: EigenState,
    rs: Sequence[float],
    t: NestedTruncation | None,
) -> list[tuple[float, EvalResult]]:
    """(unnormalised reduced radial value, its evaluation) at each r of rs,
    from one :func:`~gch.series.evaluate_grid` call."""
    results = evaluate_grid(state.gch, SolutionKind.FIRST, [system.x_of(r) for r in rs], t)
    return [(system.envelope(r) * res.value, res) for r, res in zip(rs, results)]


def wavefunction_result(
    system: QuantumSystem,
    state: EigenState,
    r: float,
    t: NestedTruncation | None = None,
) -> tuple[float, bool]:
    """(unnormalised reduced radial value, converged flag)."""
    if r < 0.0:
        raise ValueError("r must be nonnegative")
    [(value, res)] = _samples(system, state, (r,), t)
    return value, res.converged


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


def _radial_grid(r_max: float, n_points: int) -> list[float]:
    """Uniform grid on [0, r_max] with an odd number (n_points, or one more)
    of points."""
    if r_max <= 0.0 or n_points < 3:
        raise ValueError("need r_max > 0 and at least 3 quadrature points")
    n = n_points if n_points % 2 == 1 else n_points + 1
    h = r_max / (n - 1)
    return [i * h for i in range(n - 1)] + [r_max]


def _simpson(grid: list[float], vals: list[float]) -> float:
    """Composite-Simpson value of integral vals^2 r^2 dr over a grid from
    :func:`_radial_grid`."""
    last = len(grid) - 1
    terms = [v * v * r * r * (1.0 if i in (0, last) else 4.0 if i % 2 else 2.0)
             for i, (r, v) in enumerate(zip(grid, vals))]
    return (grid[1] - grid[0]) / 3.0 * math.fsum(terms)


def radial_norm(fn: Callable[[float], float], r_max: float, n_points: int) -> float:
    """Composite-Simpson value of integral_0^{r_max} fn(r)^2 r^2 dr."""
    grid = _radial_grid(r_max, n_points)
    return _simpson(grid, [fn(r) for r in grid])


def normalize(
    system: QuantumSystem,
    state: EigenState,
    r_max: float,
    n_points: int,
    t: NestedTruncation | None = None,
) -> float:
    """Normalisation constant N = 1/sqrt(integral Psi^2 r^2 dr) on [0, r_max].

    The samples come from one :func:`~gch.series.evaluate_grid` call.
    Raises TailNotDecayed unless |Psi(r_max)| has fallen below 1e-10 of the
    sampled peak, and then SampleNotConverged if the engine flags any
    sample as not converged.
    """
    grid = _radial_grid(r_max, n_points)
    samples = _samples(system, state, grid, t)
    vals = [v for v, _ in samples]
    peak = max(abs(v) for v in vals)
    if peak == 0.0 or abs(vals[-1]) > 1e-10 * peak:
        raise TailNotDecayed(
            f"|Psi({r_max})| = {abs(vals[-1]):.3e} exceeds 1e-10 of peak {peak:.3e}"
        )
    bad = [r for r, (_, res) in zip(grid, samples) if not res.converged]
    if bad:
        raise SampleNotConverged(
            f"{len(bad)} of {len(grid)} samples are not converged, the first at r = {bad[0]!r}"
        )
    return 1.0 / math.sqrt(_simpson(grid, vals))
