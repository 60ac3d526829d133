"""Ground-truth series evaluation by running the raw three-term recurrence.

This module never touches the closed-form nested sums: it generates
c_0, c_1, c_2, ... directly from c_{n+1} = A_n c_n + B_n c_{n-1} and
sums c_n x^(n+lam) with math.fsum, as the closed form sums its orders.
Every closed-form evaluator elsewhere in the package is cross-validated
against :func:`sum_series`.  It shares only EvalResult and real_power
with the closed form and never computes n*, so it also sums where
Omega/mu overflows.

For mu > 0, z = -mu x^2/2 is negative and the series alternates; fsum
rounds the sum of the kept terms once, so cancellation loses only the
terms' own rounding.  The stop rule reads a plain running sum and needs
three consecutive terms below tolerance: single small terms occur
spuriously at sign changes.

The ratio of consecutive coefficients decays like 1/n (both A_n and B_n
do), so empirically the series converges for every finite x; that is an
observation, not a proven bound, and the term cap treats it as such.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

from .errors import FloatOverflow, PoleError
from .params import EvalResult, GchParams, _index, _require_finite, real_power

#: consecutive below-tolerance terms required before the sum is declared converged
_STREAK = 3

#: a term at or below this magnitude counts as below tolerance, even beside a zero partial sum
_ABS_FLOOR = 1e-300

#: the most terms one sum takes; the partial value past it is flagged not converged
_MAX_TERMS = 400

#: a term counts as below tolerance at or below this fraction of the partial sum
_REL_TOL = 1e-12


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
    """First ``count`` series coefficients c_0 .. c_{count-1} from the
    recurrence; NonFiniteError naming ``lam`` or ``c0`` if it is not finite."""
    _require_finite("lam", lam)
    _require_finite("c0", c0)
    return list(itertools.islice(_coefficients(p, lam, c0), max(_index("count", count), 0)))


def sum_series(p: GchParams, lam: float, x: float) -> EvalResult:
    """Sum y(x) = sum_n c_n x^(n+lam), c_0 = 1, directly from the recurrence.

    Stops after three consecutive terms fall below 1e-12 * |partial sum|
    (or below 1e-300) and returns the fsum of the kept terms, flagged
    ``converged=False`` at the cap of 400 terms or where it is NaN or
    infinite; a sum that fsum cannot form raises FloatOverflow naming x.

    Raises NonFiniteError, before any term, for a non-finite x or lam
    (:class:`~gch.params.GchParams` refuses a non-finite parameter when
    built), and DomainError when x^lam is not real (x < 0 with fractional
    lam, or x = 0 with lam < 0).
    """
    _require_finite("x", x)
    _require_finite("lam", lam)
    xpow = real_power(x, lam)
    rel_tol = _REL_TOL

    terms: list[float] = []
    total = 0.0
    streak = 0
    pw = 1.0  # x^n
    # the coefficients come first, so the step past the last term still
    # runs (and raises at a pole) before the cap ends the loop
    for c_cur, n in zip(_coefficients(p, lam, 1.0), range(_MAX_TERMS)):
        term = c_cur * pw * xpow
        terms.append(term)
        total += term
        # max(bar, _ABS_FLOOR) without the builtin call; a NaN bar stays NaN
        bar = rel_tol * abs(total)
        if bar < _ABS_FLOOR:
            bar = _ABS_FLOOR
        streak = streak + 1 if abs(term) <= bar else 0
        if streak >= _STREAK and n >= 2:
            break
        pw *= x

    try:
        value = math.fsum(terms)
    except (ValueError, OverflowError) as exc:
        raise FloatOverflow(f"recurrence sum overflows at x={x}") from exc
    return EvalResult(
        value=value,
        terms_used=len(terms),
        last_term_mag=abs(terms[-1]),
        converged=streak >= _STREAK and math.isfinite(value),
    )
