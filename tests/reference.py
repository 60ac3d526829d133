"""The high-precision references that tests measure the closed form and
the recurrence oracle against; no test states another.  Written in
mpmath, they share no code with gch.

:func:`raw_sum` sums the ODE's raw three-term recurrence c_{n+1} = A_n c_n
+ B_n c_{n-1}, c_0 = 1 (:mod:`gch.params`), at the caller's working
precision; :func:`accepted` is its value where two precisions agree; and
:func:`kummer` is the eps = 0 solution of either kind from hyp1f1.
"""

from __future__ import annotations

from mpmath import gamma, hyp1f1, mp, mpf

from gch.params import GchParams, SolutionKind

#: the raw sum stops once QUIET consecutive terms have stayed below
#: 10^-(digits + 5) of its largest term, and fails past MAX_TERMS
QUIET = 6
MAX_TERMS = 5000

#: (low, high) digit pairs tried in turn; an accepted reference is the high
#: sum of the first pair whose sums agree to AGREE relative
PRECISIONS = ((40, 70), (120, 200))
AGREE = 1e-20


def raw_sum(p: GchParams, lam: float, x: float):
    """x^lam sum_n t_n at the working precision, None where the terms have
    not decayed within MAX_TERMS.  t_n = c_n x^n follows the raw
    recurrence c_{n+1} = A_n c_n + B_n c_{n-1} (:mod:`gch.params`), c_0 = 1:

        t_{n+1} = -(eps x (m + omega) t_n + (Omega + mu (m - 1)) x^2 t_{n-1})
                  / ((m + 1)(m + nu)),    m = n + lam."""
    mu, eps, nu, Om, om, lam, x = (mpf(v) for v in (p.mu, p.eps, p.nu, p.Omega, p.omega, lam, x))
    x2 = x * x
    a, b, c = -eps * x, -Om * x2, -mu * x2
    # m + omega, m - 1, m + 1 and m + nu at n = 0
    m_om, m_less, m_more, m_nu = lam + om, lam - 1, lam + 1, lam + nu
    t_prev, t = mpf(0), mpf(1)
    total = t
    cut = mpf(10) ** (-(mp.dps + 5))
    bar = cut  # cut times the largest term so far
    quiet = 0
    for n in range(MAX_TERMS):
        t_prev, t = t, (a * m_om * t + (b + c * m_less) * t_prev) / (m_more * m_nu)
        m_om += 1
        m_less += 1
        m_more += 1
        m_nu += 1
        total += t
        mag = abs(t)
        if mag > bar:
            quiet = 0
            bar = max(bar, cut * mag)
        else:
            quiet += 1
            if quiet >= QUIET and n > 8:
                return total * x ** lam
    return None


def accepted(p: GchParams, lam: float, x: float):
    """The accepted reference value as a float: the high :func:`raw_sum` of
    the first PRECISIONS pair whose two sums agree to AGREE; None where no
    pair does."""
    for low, high in PRECISIONS:
        with mp.workdps(low):
            a = raw_sum(p, lam, x)
        with mp.workdps(high):
            b = raw_sum(p, lam, x)
            if a is not None and b is not None and abs(a - b) <= AGREE * abs(b):
                return float(b)
    return None


def kummer(p: GchParams, kind: SolutionKind, x: float, normalised: bool = True):
    """The eps = 0 solution of ``kind`` at the working precision (DLMF
    13.2.2), with a = Omega/2mu, gamma = (1 + nu)/2 and z = -mu x^2/2
    formed from the exact float inputs:

        first kind:   M(a, gamma, z)
        second kind:  x^(1-nu) M(a + 1 - gamma, 2 - gamma, z)

    ``normalised`` multiplies by the closed form's prefactor,
    Gamma(gamma - a)/Gamma(gamma) or (-mu/2)^(1-gamma) Gamma(1 - a)/Gamma(2 - gamma)."""
    mu, nu, x = mpf(p.mu), mpf(p.nu), mpf(x)
    a, g, z = mpf(p.Omega) / (2 * mu), (1 + nu) / 2, -mu * x * x / 2
    if kind is SolutionKind.FIRST:
        value = hyp1f1(a, g, z)
        return gamma(g - a) / gamma(g) * value if normalised else value
    value = x ** (1 - nu) * hyp1f1(a + 1 - g, 2 - g, z)
    return (-mu / 2) ** (1 - g) * gamma(1 - a) / gamma(2 - g) * value if normalised else value
