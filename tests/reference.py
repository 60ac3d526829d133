"""High-precision sums of the raw three-term recurrence, the references
that tests measure the closed form and the recurrence oracle against.

Both are written from the ODE's recurrence (:mod:`gch.params`),

    c_{n+1} = A_n c_n + B_n c_{n-1},      c_0 = 1,

in mpmath, and share no code with gch.  :func:`raw_sum` runs at the
working precision of the caller and reports a sum whose terms have not
decayed as None; :func:`mp_first_kind` sums the first kind at a given
precision and fails the test where it does not converge.
"""

from __future__ import annotations

from mpmath import mp, mpf

from gch.params import GchParams

#: the raw sum stops once QUIET consecutive terms have stayed below
#: 10^-(digits + 5) of its largest term, and fails past MAX_TERMS
QUIET = 6
MAX_TERMS = 5000


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


def mp_first_kind(mu, eps, nu, Omega, omega, x, dps=60):
    """y(x) = sum_n c_n x^n with c_0 = 1, c_{n+1} = A_n c_n + B_n c_{n-1},
    summed in dps-digit arithmetic; written from the ODE, shares no code
    with gch."""
    with mp.workdps(dps):
        mu, eps, nu, Omega, omega, x = (mpf(v) for v in (mu, eps, nu, Omega, omega, x))
        c_prev, c = mpf(0), mpf(1)
        total, xn = mpf(0), mpf(1)
        small = 0
        for n in range(2000):
            term = c * xn
            total += term
            if n > 10 and abs(term) < mpf(10) ** (-dps - 5) * abs(total):
                small += 1
                if small >= 3:
                    return total
            else:
                small = 0
            den = (n + 1) * (n + nu)
            c_prev, c = c, (-eps * (n + omega) * c - (Omega + mu * (n - 1)) * c_prev) / den
            xn *= x
    raise AssertionError("reference series did not converge")
