"""Large-index limiting forms of the series, and the erfi they need.

When the recurrence index is large the coefficient pair degenerates to
A ~ -eps/n, B ~ -mu/n, and one of the two channels dominates depending on
which of |mu|, |eps| is small.  The resummed limits are elementary:
x(exp(-eps x) - 1) for the A-dominated regime, and

    1 + sqrt(-pi mu x^2 / 2) Erf(sqrt(-mu x^2 / 2)) exp(-mu x^2 / 2)

for the B-dominated one.  erf is the standard library's; the square roots
are kept real for mu > 0 through erfi, or, once that cancels, the
asymptotic expansion of the Dawson function.  A non-finite argument
raises NonFiniteError naming it, and a form whose value leaves the float
range raises FloatOverflow naming the form and x.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import FloatOverflow
from .params import _require_finite

_SQRT_PI = math.sqrt(math.pi)
#: y = sqrt(mu/2) x from which asym_small_eps (mu > 0) sums the Dawson
#: expansion instead of the cancelling erfi form
_DAWSON_SWITCH = 6.0


def erfi(y: float) -> float:
    """Imaginary-argument companion (2/sqrt(pi)) integral_0^y e^{t^2} dt;
    NonFiniteError for a non-finite y, FloatOverflow past the float range
    (from |y| near 26.7).

    The terms, all of y's sign, grow up to k near y^2 and then fall; the
    sum ends once a term is below 1e-17 of it, or once it is infinite.
    """
    _require_finite("y", y)
    y2 = y * y
    term = y
    total = y
    k = 0
    while True:
        term *= y2 / (k + 1.0) * (2.0 * k + 1.0) / (2.0 * k + 3.0)
        total += term
        k += 1
        if abs(term) <= 1e-17 * abs(total):
            break
    value = 2.0 / _SQRT_PI * total
    if math.isinf(value):
        raise FloatOverflow(f"erfi overflows at y={y}")
    return value


def _dawson_tail(y: float) -> float:
    """1 - 2y D(y) for y >= _DAWSON_SWITCH, D the Dawson function.

    Sums the asymptotic expansion -sum_{k>=1} (2k-1)!!/(2y^2)^k (DLMF 7.12)
    up to its smallest term, about e^{-y^2}: at y = 6 it is 2e-14 of the
    sum, and it falls fast as y grows.
    """
    u = 0.5 / (y * y)
    term = 1.0
    total = 0.0
    k = 1
    while True:
        nxt = term * (2 * k - 1) * u
        if nxt >= term:
            break
        term = nxt
        total += term
        if term <= 1e-17 * total:
            break
        k += 1
    return -total


def _in_range(form: str, x: float, value: Callable[[], float]) -> float:
    """value(), or FloatOverflow naming the limiting form and x where it
    leaves the float range."""
    try:
        v = value()
    except OverflowError as exc:
        raise FloatOverflow(f"{form} limiting form overflows at x={x}") from exc
    if math.isinf(v):
        raise FloatOverflow(f"{form} limiting form overflows at x={x}")
    return v


def asym_small_mu(epsilon: float, x: float) -> float:
    """Limiting form x (e^{-eps x} - 1) of the A-dominated channel, as displayed."""
    _require_finite("epsilon", epsilon)
    _require_finite("x", x)
    return _in_range("small-mu", x, lambda: x * math.expm1(-epsilon * x))


def asym_small_eps(mu: float, x: float) -> float:
    """Limiting form of the B-dominated channel, real for all real mu, x.

    With s = -mu x^2/2 this is 1 + sqrt(pi s) erf(sqrt(s)) e^s; for
    mu x^2 > 0 the real-valued continuation through erfi applies,
    1 - sqrt(-pi s) erfi(sqrt(-s)) e^s, which is the value of the
    even-coefficient series sum_n s^n Gamma(1/2)/Gamma(n+1/2) on both sides.
    That continuation is 1 - 2y D(y) with y = sqrt(-s) and D the Dawson
    function; from y = 6 on it is summed by the asymptotic expansion of D,
    because erfi(y) e^{-y^2} cancels against 1 and erfi overflows near
    y = 27.
    """
    _require_finite("mu", mu)
    _require_finite("x", x)
    s = -0.5 * mu * x * x
    if s == 0.0:
        return 1.0
    if s > 0.0:
        rt = math.sqrt(s)
        return _in_range("small-eps", x, lambda: 1.0 + _SQRT_PI * rt * math.erf(rt) * math.exp(s))
    rt = math.sqrt(-s)
    if rt >= _DAWSON_SWITCH:
        return _dawson_tail(rt)
    return 1.0 - _SQRT_PI * rt * erfi(rt) * math.exp(s)

