"""Parameter set, indicial roots, validation and recurrence coefficients.

Everything in this package evaluates solutions of

    x y'' + (mu x^2 + eps x + nu) y' + (Omega x + eps omega) y = 0,

an ODE with a regular singular point at x = 0 and an irregular (rank 2)
point at infinity.  A Frobenius ansatz y = sum_n c_n x^(n+lam) solves it
when lam is one of the two indicial roots (0 or 1-nu) and the
coefficients obey the three-term recurrence

    c_{n+1} = A_n c_n + B_n c_{n-1},      c_1 = A_0 c_0,

with A_n, B_n as produced by :func:`coefficient_A` / :func:`coefficient_B`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import KindRestrictionError, NonFiniteError, PoleError

#: absolute tolerance used when testing whether a float is an integer
INT_TOL = 1e-12


def _is_integer(value: float, tol: float = INT_TOL) -> bool:
    return abs(value - round(value)) <= tol


@dataclass(frozen=True)
class GchParams:
    """The five real ODE coefficients.

    ``mu`` and ``eps`` multiply x^2 and x in the damping term, ``nu`` is the
    1/x-scaled first-derivative coefficient, and ``Omega``/``omega`` set the
    potential term Omega*x + eps*omega.  Finiteness is enforced by
    :func:`validate`, not by the constructor, so that physical parameter maps
    may leave ``Omega`` unresolved (NaN) until an eigenvalue fixes it.
    """

    mu: float
    eps: float
    nu: float
    Omega: float
    omega: float

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
    """Check finiteness and the kind's nu-restriction; return the kind's root.

    The first-kind series requires nu not in {0, -1, -2, ...} and the
    second-kind series requires nu not in {2, 3, 4, ...}; outside those sets
    every recurrence denominator (n+1+lam)(n+nu+lam) with n >= 0 is nonzero.

    Raises
    ------
    NonFiniteError
        if any of the five coefficients is NaN or infinite.
    KindRestrictionError
        if the nu-restriction of ``kind`` is violated.
    """
    for name in ("mu", "eps", "nu", "Omega", "omega"):
        if not math.isfinite(getattr(p, name)):
            raise NonFiniteError(f"parameter {name}={getattr(p, name)!r} is not a finite real")
    nu = p.nu
    if kind is SolutionKind.FIRST:
        if _is_integer(nu) and round(nu) <= 0:
            raise KindRestrictionError(
                f"first kind requires nu not in {{0, -1, -2, ...}}; got nu={nu}"
            )
    else:
        if _is_integer(nu) and round(nu) >= 2:
            raise KindRestrictionError(
                f"second kind requires nu not in {{2, 3, 4, ...}}; got nu={nu}"
            )
    return kind.lambda_of(nu)


def coefficient_A(n: int, lam: float, p: GchParams) -> float:
    """A_n = -eps (n + omega + lam) / ((n+1+lam)(n+nu+lam)).

    eps = 0 makes every A_n vanish, so omega (which only enters here and
    in the eps*omega potential term) is then immaterial to the solution.
    Raises PoleError when a denominator factor is exactly zero.
    """
    den1 = n + 1.0 + lam
    den2 = n + p.nu + lam
    if den1 == 0.0 or den2 == 0.0:
        raise PoleError(f"A_{n} denominator vanishes at lam={lam}, nu={p.nu}")
    return -p.eps * (n + p.omega + lam) / (den1 * den2)


def coefficient_B(n: int, lam: float, p: GchParams) -> float:
    """B_n = -(Omega + mu (n-1+lam)) / ((n+1+lam)(n+nu+lam)).

    Raises PoleError when a denominator factor is exactly zero.
    """
    den1 = n + 1.0 + lam
    den2 = n + p.nu + lam
    if den1 == 0.0 or den2 == 0.0:
        raise PoleError(f"B_{n} denominator vanishes at lam={lam}, nu={p.nu}")
    return -(p.Omega + p.mu * (n - 1.0 + lam)) / (den1 * den2)
