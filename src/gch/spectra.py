"""Bound-state applications: parameter maps, eigenvalue ladders, wavefunctions.

Three radial problems reduce to the series equation handled by this
package: a rotating harmonic oscillator, a Cornell-type confinement
potential (Coulomb + linear + quadratic), and a linearly confined
quark-antiquark Hamiltonian.  Each is one class that knows its own
physics: ``params(Omega)`` maps the physical parameters onto the five ODE
coefficients, ``eigenvalue(i, beta_i)`` is the closed-form ladder that
B-termination, Omega = -mu (2 beta + i + lam), quantises, and
``envelope(r)`` and ``x_of(r)`` give the factor and the series argument of
the radial function.  Each constructor takes the angular momentum as an
integer (through ``operator.index``) and refuses a NaN or infinite float
field with NonFiniteError; so does :class:`~gch.params.GchParams` for a
mapped coefficient that overflows (``eps`` at a tiny ``omega_c``), which
:func:`make_state` meets.  A state records the system it was made for,
and the functions that sample it refuse any other system.

The radial factors returned by :func:`wavefunction_result` are the reduced
functions u(r) = r * R(r), so all three systems share the r^(l+1)
small-r behaviour and vanish at the origin; the quark model's full
radial function is value / r.  hbar = 1 throughout (reinstatement
substitutions are documented in the README).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, Union

from .errors import DegenerateCoupling, FloatOverflow, SampleNotConverged, TailNotDecayed
from .params import EvalResult, GchParams, SolutionKind, _bind, _Frozen, _index, _require_finite


class RotatingOscillator(_Frozen):
    """Rotating harmonic oscillator; l_m rotational quantum number, omega_c coupling.

    Map: mu=-2, eps=sqrt(2/omega_c), nu=2(l_m+1), omega=l_m+1, x = r/sqrt(2 omega_c).
    Ladder: lambda_m = 2 beta_i + l_m + 1 + i.
    """

    __slots__ = ("l_m", "omega_c")

    def __init__(self, l_m: int, omega_c: float) -> None:
        l_m = _index("l_m", l_m)
        _require_finite("omega_c", omega_c)
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
    - beta_F^2)/(2 mass).
    """

    __slots__ = ("a", "b", "c", "mass", "l")

    def __init__(self, a: float, b: float, c: float, mass: float, l: int) -> None:
        l = _index("l", l)
        for name, value in (("a", a), ("b", b), ("c", c), ("mass", mass)):
            _require_finite(name, value)
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

    def envelope(self, r: float) -> float:
        return r ** (self.l + 1) * math.exp(-0.5 * self.alpha_f * r * r - self.beta_f * r)

    def x_of(self, r: float) -> float:
        return math.sqrt(self.alpha_f) * r


class QQbar(_Frozen):
    """Spin-free scalar-confinement quark-antiquark system; E^2 ladder.

    Map: mu=-b, eps=-2m, nu=2(l+1), omega=l+1, x = r.
    Ladder: E^2 = 4 b (2 beta_i + i + l + 3/2).
    """

    __slots__ = ("m_q", "b_slope", "l")

    def __init__(self, m_q: float, b_slope: float, l: int) -> None:
        l = _index("l", l)
        _require_finite("m_q", m_q)
        _require_finite("b_slope", b_slope)
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
    ``gch`` the mapped coefficients with Omega resolved, and ``system``
    the system the state belongs to.
    """

    __slots__ = ("i", "beta_i", "eigenvalue", "gch", "system")

    def __init__(self, i: int, beta_i: int, eigenvalue: float, gch: GchParams, system: QuantumSystem) -> None:
        _bind(self, "i", i)
        _bind(self, "beta_i", beta_i)
        _bind(self, "eigenvalue", eigenvalue)
        _bind(self, "gch", gch)
        _bind(self, "system", system)


def make_state(system: QuantumSystem, i: int, beta_i: int) -> EigenState:
    """Resolve the (i, beta_i) eigenstate of a system.

    Omega is the termination condition -mu(2 beta_i + i) exactly, with mu
    from the system's map, so chain 0 or 1 ends at n* = 2 beta_i + i + 1;
    ``eigenvalue`` is the system's ladder at (i, beta_i).  ``i`` and
    ``beta_i`` must be nonnegative integers (the state holds them as int);
    anything else raises ValueError.  An eigenvalue or Omega that leaves
    the float range raises FloatOverflow, and a mapped coefficient that
    does raises NonFiniteError from :class:`~gch.params.GchParams`.
    """
    i, beta_i = _index("i", i), _index("beta_i", beta_i)
    if i < 0 or beta_i < 0:
        raise ValueError("i and beta_i must be nonnegative integers")
    try:
        eigenvalue = system.eigenvalue(i, beta_i)
    except OverflowError as exc:  # an index past the float range
        raise FloatOverflow(f"state (i={i}, beta_i={beta_i}) overflows: {exc}") from exc
    if not math.isfinite(eigenvalue):
        raise FloatOverflow(f"state (i={i}, beta_i={beta_i}) overflows: eigenvalue={eigenvalue}")
    Omega = -system.params(0.0).mu * (2.0 * beta_i + i)
    if not math.isfinite(Omega):
        raise FloatOverflow(f"state (i={i}, beta_i={beta_i}) overflows: Omega={Omega}")
    return EigenState(i, beta_i, eigenvalue, system.params(Omega), system)


def _samples(system: QuantumSystem, state: EigenState, rs: Sequence[float]) -> list[tuple[float, EvalResult]]:
    """(unnormalised reduced radial value, its evaluation) at each r of rs,
    from one :func:`~gch.series.evaluate_grid` call; ValueError for a
    negative r or unless ``state`` belongs to ``system``, FloatOverflow
    naming the first r whose envelope leaves the float range."""
    from .series import evaluate_grid  # the one engine call: the ladder and make_state load none

    if any(r < 0.0 for r in rs):
        raise ValueError("r must be nonnegative")
    if state.system is not system and state.system != system:
        raise ValueError(f"the state belongs to {state.system!r}, not to {system!r}")
    # the envelopes first, so an r whose envelope overflows is refused naming
    # r, not its x, whose z may overflow as well
    envelopes = []
    for r in rs:
        try:
            envelopes.append(system.envelope(r))
        except OverflowError as exc:  # r**(l+1), or the exponential, past the float range
            raise FloatOverflow(f"radial envelope overflows at r={r}") from exc
    results = evaluate_grid(state.gch, SolutionKind.FIRST, [system.x_of(r) for r in rs])
    return [(env * res.value, res) for env, res in zip(envelopes, results)]


def wavefunction_result(system: QuantumSystem, state: EigenState, r: float) -> tuple[float, bool]:
    """(unnormalised reduced radial value envelope(r) * QW(x(r)), converged flag).

    The regular-at-origin first-kind series is always the physical branch.
    The state's Omega = -mu(2 beta + i) gives n* = 2 beta + i + 1, so chain
    k ends at (2 beta + i - k)/2 wherever that is a nonnegative integer:
    for even i chain 0 ends and the function is the B-terminated class, for
    odd i the odd chains end and chain 0 runs the infinite series.

    Raises NonFiniteError naming ``r`` for a non-finite radius, ValueError
    for a negative one or for a state of another system, FloatOverflow
    where the envelope at ``r`` leaves the float range.
    """
    _require_finite("r", r)
    [(value, res)] = _samples(system, state, (r,))
    return value, res.converged


def _radial_grid(r_max: float, n_points: int) -> list[float]:
    """Uniform grid on [0, r_max] with an odd number (n_points, or one more)
    of points; NonFiniteError for a non-finite r_max."""
    _require_finite("r_max", r_max)
    n_points = _index("n_points", n_points)
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


def normalize(system: QuantumSystem, state: EigenState, r_max: float, n_points: int) -> float:
    """Normalisation constant N = 1/sqrt(integral Psi^2 r^2 dr) on [0, r_max].

    The samples come from one :func:`~gch.series.evaluate_grid` call.
    Raises ValueError for a state of another system, TailNotDecayed
    unless |Psi(r_max)| has fallen below 1e-10 of the sampled peak, and
    then SampleNotConverged if the engine flags any sample as not
    converged.  The samples are scaled exactly by the power of two that
    brings the peak near 1, so their squares neither underflow nor overflow.
    """
    grid = _radial_grid(r_max, n_points)
    samples = _samples(system, state, grid)
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
    e = math.frexp(peak)[1]
    return math.ldexp(1.0 / math.sqrt(_simpson(grid, [math.ldexp(v, -e) for v in vals])), -e)
