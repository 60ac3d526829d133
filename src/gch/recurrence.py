"""Ground-truth series evaluation by running the raw three-term recurrence.

This module never touches the closed-form nested sums: it generates
c_0, c_1, c_2, ... directly from c_{n+1} = A_n c_n + B_n c_{n-1} and
accumulates c_n x^(n+lam) with error-compensated (Neumaier) summation.
Every closed-form evaluator elsewhere in the package is cross-validated
against :func:`sum_series`.

Summation runs in ascending n; for mu > 0 the quadratic argument
z = -mu x^2/2 is negative and the series alternates, so the compensation
term carries most of the cancellation error.  The stop rule requires
three consecutive terms below tolerance because single small terms occur
spuriously at sign changes.

The ratio of consecutive coefficients decays like 1/n (both A_n and B_n
do), so empirically the series converges for every finite x; that is an
observation, not a proven bound, and the truncation caps treat it as
such.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Optional

from .errors import DomainError, PoleError
from .params import GchParams, _bind, _Frozen, _is_integer

#: consecutive below-tolerance terms required before the sum is declared converged
_STREAK = 3

#: a term at or below this magnitude counts as below tolerance, even beside a zero partial sum
_ABS_FLOOR = 1e-300


class Truncation(_Frozen):
    """Caps and tolerances for direct summation."""

    __slots__ = ("max_terms", "rel_tol")

    def __init__(self, max_terms: int = 400, rel_tol: float = 1e-12) -> None:
        if max_terms < 8:
            raise ValueError("max_terms must be at least 8")
        if not 0.0 < rel_tol < 1.0:
            raise ValueError("rel_tol must lie in (0, 1)")
        _bind(self, "max_terms", max_terms)
        _bind(self, "rel_tol", rel_tol)


#: the truncation of a call that passes none
_DEFAULT_TRUNCATION = Truncation()


class EvalResult(_Frozen):
    """Outcome of a series evaluation.

    ``terms_used`` counts the terms the evaluation summed: the recurrence
    terms of :func:`sum_series`, or for the closed form the order-vector
    entries it used, cap + 1 per order (order 0 included), where cap is
    the chain depth the point needed.  A point of a grid that reads its
    orders off another point's vectors counts the entries it used, the
    same count as its own engine run.
    ``last_term_mag`` is the magnitude of the last accumulated term (or, for
    the closed-form path, of the last order contribution) and serves as an
    a-posteriori error proxy.  ``terminated_at`` is the index n* with
    B_{n*} = 0 (:func:`detect_termination`); the closed form ends chain k
    at (n* - 1 - k)/2 wherever that is a nonnegative integer.
    ``orders`` is populated only by the closed-form evaluators and holds the
    per-order decomposition y_0, y_1, y_2, ...  For mu > 0 and
    -mu x^2/2 < -1 the closed form sums the transformed series
    e^{-mu x^2/2 - eps x} y(x; -mu, -eps, nu, Omega - mu(1+nu), nu - omega),
    and ``orders`` is then that series' decomposition (in powers of
    +eps x/2, each order times the exponential); they still add up to
    ``value``.
    """

    __slots__ = ("value", "terms_used", "last_term_mag", "converged", "terminated_at", "orders")

    def __init__(
        self,
        value: float,
        terms_used: int,
        last_term_mag: float,
        converged: bool,
        terminated_at: Optional[int] = None,
        orders: Optional[tuple[float, ...]] = None,
    ) -> None:
        _bind(self, "value", value)
        _bind(self, "terms_used", terms_used)
        _bind(self, "last_term_mag", last_term_mag)
        _bind(self, "converged", converged)
        _bind(self, "terminated_at", terminated_at)
        _bind(self, "orders", orders)


def real_power(x: float, expo: float) -> float:
    """x**expo restricted to real values.

    Negative x with non-integer exponent and x = 0 with negative exponent
    raise DomainError; integer exponents of negative x follow the usual
    sign rule.
    """
    if expo == 0.0:
        return 1.0
    if x > 0.0:
        return math.pow(x, expo)
    if x == 0.0:
        if expo > 0.0:
            return 0.0
        raise DomainError(f"0**({expo}) diverges")
    if _is_integer(expo):
        k = round(expo)
        mag = math.pow(-x, float(k))
        return -mag if k % 2 else mag
    raise DomainError(f"({x})**({expo}) is not real")


def _coefficients(p: GchParams, lam: float, c0: float) -> Iterator[float]:
    """c_0, c_1, c_2, ... from c_{n+1} = A_n c_n + B_n c_{n-1}, without end.

    A_n and B_n are the recurrence coefficients of :mod:`gch.params`,
    written out on local copies of the parameters.  Step n runs only when
    c_{n+1} is asked for, and raises PoleError if A_n's denominator
    vanishes.
    """
    mu, eps, nu, Omega, omega = p.mu, p.eps, p.nu, p.Omega, p.omega
    c_prev, c_cur = 0.0, c0
    # a float index: CPython 3.11 specialises float + float, not int +
    # float, and an index far below 2**53 is exact either way
    for n in itertools.count(0.0):
        yield c_cur
        den1 = n + 1.0 + lam
        den2 = n + nu + lam
        if den1 == 0.0 or den2 == 0.0:
            raise PoleError(f"A_{int(n)} denominator vanishes at lam={lam}, nu={nu}")
        den = den1 * den2
        c_next = -eps * (n + omega + lam) / den * c_cur
        if n:
            c_next += -(Omega + mu * (n - 1.0 + lam)) / den * c_prev
        c_prev, c_cur = c_cur, c_next


def coefficients(p: GchParams, lam: float, c0: float, count: int) -> list[float]:
    """First ``count`` series coefficients c_0 .. c_{count-1} from the recurrence."""
    return list(itertools.islice(_coefficients(p, lam, c0), max(count, 0)))


def detect_termination(p: GchParams, lam: float) -> Optional[int]:
    """Index n* with B_{n*} = 0, i.e. n* = 1 - lam - Omega/mu, if it is a
    positive integer (within 1e-12); None otherwise.  The package's one
    termination test: the closed form ends its chains by this n*."""
    if p.mu == 0.0:
        raise PoleError("termination detection requires mu != 0")
    nstar = 1.0 - lam - p.Omega / p.mu
    if _is_integer(nstar) and round(nstar) >= 1:
        return int(round(nstar))
    return None


def sum_series(
    p: GchParams,
    lam: float,
    x: float,
    t: Truncation | None = None,
) -> EvalResult:
    """Sum y(x) = sum_n c_n x^(n+lam), c_0 = 1, directly from the recurrence.

    Stops after three consecutive terms fall below rel_tol * |partial sum|
    (or below 1e-300); if the cap is reached first the partial value is
    still returned with ``converged=False``.

    Raises DomainError when x^lam is not real (x < 0 with fractional lam,
    or x = 0 with lam < 0).
    """
    t = t or _DEFAULT_TRUNCATION
    xpow = real_power(x, lam)
    rel_tol = t.rel_tol

    total = 0.0
    comp = 0.0  # Neumaier compensation
    streak = 0
    last_mag = 0.0
    n_used = 0

    pw = 1.0  # x^n
    # the coefficients come first, so the step past the last term still
    # runs (and raises at a pole) before the cap ends the loop
    for c_cur, n in zip(_coefficients(p, lam, 1.0), range(t.max_terms)):
        term = c_cur * pw * xpow
        s = total + term
        if abs(total) >= abs(term):
            comp += (total - s) + term
        else:
            comp += (term - s) + total
        total = s
        last_mag = abs(term)
        n_used = n + 1

        # max(bar, _ABS_FLOOR) without the builtin call; a NaN bar stays NaN
        bar = rel_tol * abs(total + comp)
        if bar < _ABS_FLOOR:
            bar = _ABS_FLOOR
        streak = streak + 1 if last_mag <= bar else 0
        if streak >= _STREAK and n >= 2:
            break
        pw *= x

    terminated = detect_termination(p, lam) if p.mu != 0.0 else None
    return EvalResult(
        value=total + comp,
        terms_used=n_used,
        last_term_mag=last_mag,
        converged=streak >= _STREAK,
        terminated_at=terminated,
    )
