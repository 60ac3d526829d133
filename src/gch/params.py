"""Parameter set, indicial roots, validation and the termination index;
the base of the value classes and the result class that the closed form
and the recurrence oracle share.

Everything in this package evaluates solutions of

    x y'' + (mu x^2 + eps x + nu) y' + (Omega x + eps omega) y = 0,

an ODE with a regular singular point at x = 0 and an irregular (rank 2)
point at infinity.  A Frobenius ansatz y = sum_n c_n x^(n+lam) solves it
when lam is one of the two indicial roots (0 or 1-nu) and the
coefficients obey the three-term recurrence

    c_{n+1} = A_n c_n + B_n c_{n-1},      c_1 = A_0 c_0,

with

    A_n = -eps (n + omega + lam) / ((n+1+lam)(n+nu+lam)),
    B_n = -(Omega + mu (n-1+lam)) / ((n+1+lam)(n+nu+lam)).

eps = 0 makes every A_n vanish, so omega (which enters only there and in
the eps*omega potential term) is then immaterial to the solution.
:func:`gch.recurrence.coefficients` runs this recurrence, and
:func:`detect_termination` finds the index n* where B_{n*} vanishes.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from typing import Optional

from .errors import DomainError, FloatOverflow, KindRestrictionError, NonFiniteError, PoleError

#: absolute tolerance of the integer tests; :func:`validate` refuses nu within 2 * INT_TOL of a forbidden integer
INT_TOL = 1e-12


def _is_integer(value: float, tol: float = INT_TOL) -> bool:
    return abs(value - round(value)) <= tol


#: binds one field of a value class in its ``__init__``, past the refusing ``__setattr__``
_bind = object.__setattr__


def _index(name: str, value: int) -> int:
    """``value`` as an int, through ``operator.index``; ValueError naming
    ``name`` for a float or any other non-integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _require_finite(name: str, value: float) -> None:
    """NonFiniteError unless ``value`` is a finite real."""
    if not math.isfinite(value):
        raise NonFiniteError(f"{name}={value!r} is not a finite real")


class _Frozen:
    """Base of the package's immutable value classes.

    A subclass names its fields in ``__slots__``, in constructor order, and
    binds each in a written-out ``__init__`` with :data:`_bind`, after its
    checks.  From ``__slots__`` this base supplies the rest: assignment and
    deletion raise AttributeError, equality and hash go by the field values
    within one class (never equal to a tuple or to another class), the repr
    is ``Class(field=value, ...)``, and copy and pickle rebuild through the
    constructor.

    Not a frozen data class: the standard library's data-class module
    imports ``inspect``, about 12 ms of a process that keeps no bytecode
    cache, and creating each such class costs about 1.2 ms more.  Not a
    ``typing.NamedTuple``: its attribute reads take three times as long as
    a slot read, and as a tuple it compares equal to a plain tuple of its
    values.  Binding the fields in a loop here instead of a written-out
    ``__init__`` would make each construction more than twice as slow.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()


class GchParams(_Frozen):
    """The five real ODE coefficients.

    ``mu`` and ``eps`` multiply x^2 and x in the damping term, ``nu`` is the
    1/x-scaled first-derivative coefficient, and ``Omega``/``omega`` set the
    potential term Omega*x + eps*omega.  The constructor refuses a NaN or
    infinite coefficient with NonFiniteError naming the first such field,
    so every function that takes a parameter set takes it as finite.
    """

    __slots__ = ("mu", "eps", "nu", "Omega", "omega")

    def __init__(self, mu: float, eps: float, nu: float, Omega: float, omega: float) -> None:
        # one sum settles the common case: it is finite only if every term is
        if not math.isfinite(mu + eps + nu + Omega + omega):
            for name, value in zip(self.__slots__, (mu, eps, nu, Omega, omega)):
                _require_finite(f"parameter {name}", value)
        _bind(self, "mu", mu)
        _bind(self, "eps", eps)
        _bind(self, "nu", nu)
        _bind(self, "Omega", Omega)
        _bind(self, "omega", omega)

    @property
    def gamma(self) -> float:
        """Half-shifted nu, (1 + nu)/2; the lower Pochhammer parameter."""
        return 0.5 * (1.0 + self.nu)


class SolutionKind(Enum):
    """Selector for the two Frobenius solutions at x = 0."""

    FIRST = "first"
    SECOND = "second"

    def lambda_of(self, nu: float) -> float:
        """Indicial root used by this kind: 0, or 1 - nu."""
        return 0.0 if self is SolutionKind.FIRST else 1.0 - nu


def validate(p: GchParams, kind: SolutionKind) -> float:
    """Check the kind's nu-restriction; return the kind's root.

    The first-kind series requires nu not in {0, -1, -2, ...} and the
    second-kind series requires nu not in {2, 3, 4, ...}; outside those sets
    every recurrence denominator (n+1+lam)(n+nu+lam) with n >= 0 is nonzero.
    nu within 2 * INT_TOL of such an integer is refused too: then no chain
    offset of the closed form lies within INT_TOL of a nonpositive integer.
    The second kind also refuses nu <= -2**53: every such float is an
    integer, and there (1 + nu)/2 + (1 - nu)/2, the series' c_0 = 1,
    rounds away from 1 (to 0 for most of them).

    Raises
    ------
    KindRestrictionError
        if the nu-restriction of ``kind`` is violated.
    """
    nu = p.nu
    # 2 * INT_TOL: the chains' denominator offsets are (nu - k)/2 plus integers
    if kind is SolutionKind.FIRST:
        if _is_integer(nu, 2.0 * INT_TOL) and round(nu) <= 0:
            raise KindRestrictionError(
                f"first kind requires nu not in {{0, -1, -2, ...}}; got nu={nu}"
            )
    else:
        if _is_integer(nu, 2.0 * INT_TOL) and round(nu) >= 2:
            raise KindRestrictionError(
                f"second kind requires nu not in {{2, 3, 4, ...}}; got nu={nu}"
            )
        if nu <= -2.0 ** 53:
            raise KindRestrictionError(f"second kind requires nu > -2**53; got nu={nu}")
    return kind.lambda_of(nu)


class EvalResult(_Frozen):
    """Outcome of a series evaluation.

    ``terms_used`` counts the terms the evaluation summed: the recurrence
    terms of :func:`~gch.recurrence.sum_series`, or for the closed form the
    order-vector entries it used, cap + 1 per order (order 0 included),
    where cap is the chain depth the point needed, at most the inner cap,
    at most 1 at x = 0 and at most beta_0 where eps = 0 and chain 0 ends.
    A point of a grid that reads its orders off another point's vectors
    counts the entries it used, the same count as its own engine run.
    ``last_term_mag`` is the magnitude of the last accumulated term (or, for
    the closed-form path, of the last order summed, 0.0 when only order 0
    was); it is not an error bound, and cancellation inside the sum can
    leave a value far less accurate than it.  ``orders_used`` is set only
    by the closed-form evaluators (None for the recurrence oracle): the
    number of eps_tilde orders summed, order 0 included.  For mu > 0 and
    -mu x^2/2 < -1 the closed form sums the transformed series
    e^{-mu x^2/2 - eps x} y(x; -mu, -eps, nu, Omega - mu(1+nu), nu - omega),
    in powers of +eps x/2, and counts that series' orders.  Where chains
    end is not a result's: :func:`detect_termination` gives n*.
    """

    __slots__ = ("value", "terms_used", "last_term_mag", "converged", "orders_used")

    def __init__(
        self,
        value: float,
        terms_used: int,
        last_term_mag: float,
        converged: bool,
        orders_used: Optional[int] = None,
    ) -> None:
        _bind(self, "value", value)
        _bind(self, "terms_used", terms_used)
        _bind(self, "last_term_mag", last_term_mag)
        _bind(self, "converged", converged)
        _bind(self, "orders_used", orders_used)


def real_power(x: float, expo: float) -> float:
    """x**expo restricted to real values.

    Negative x with non-integer exponent and x = 0 with negative exponent
    raise DomainError; integer exponents of negative x follow the usual
    sign rule.  A power past the float range raises FloatOverflow.
    """
    if expo == 0.0:
        return 1.0
    if x == 0.0:
        if expo > 0.0:
            return 0.0
        raise DomainError(f"0**({expo}) diverges")
    if x < 0.0 and not _is_integer(expo):
        raise DomainError(f"({x})**({expo}) is not real")
    try:
        mag = math.pow(abs(x), expo if x > 0.0 else float(round(expo)))
    except OverflowError as exc:
        raise FloatOverflow(f"({x})**({expo}) overflows") from exc
    return -mag if x < 0.0 and round(expo) % 2 else mag


def detect_termination(p: GchParams, lam: float) -> Optional[int]:
    """Index n* with B_{n*} = 0, i.e. n* = 1 - lam - Omega/mu, if it is a
    positive integer (within 1e-12); None otherwise.  The package's one
    termination test: the closed form ends its chains, and checks a
    caller's ``betas``, by this n*.

    Raises PoleError for mu = 0, the package's one refusal of it, which
    the closed-form evaluators reach through this function;
    NonFiniteError for a non-finite lam; and FloatOverflow where Omega/mu
    leaves the float range."""
    if p.mu == 0.0:
        raise PoleError("mu must be nonzero: Omega/mu enters n* and the closed form")
    nstar = 1.0 - lam - p.Omega / p.mu
    if not math.isfinite(nstar):
        _require_finite("lam", lam)
        raise FloatOverflow(f"Omega/mu = {p.Omega}/{p.mu} overflows: n* is not finite")
    if _is_integer(nstar) and round(nstar) >= 1:
        return int(round(nstar))
    return None
