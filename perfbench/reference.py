"""High-precision references for the benchmark, sharing no code with gch.

Run as a child process: reads a JSON list of tasks on stdin and writes a
JSON list of results on stdout.  It never imports ``gch``; the series
coefficients come from the ODE itself.  Substituting
y = sum_n c_n x^(n+lam) into

    x y'' + (mu x^2 + eps x + nu) y' + (Omega x + eps omega) y = 0

and collecting x^(m+lam) gives

    (m+1+lam)(m+lam+nu) c_{m+1} + eps (m+lam+omega) c_m
        + (Omega + mu (m-1+lam)) c_{m-1} = 0,      c_0 = 1, c_{-1} = 0.

Every value is computed at two precisions (LOW_DPS and HIGH_DPS decimal
digits) and accepted only when both agree to AGREE relative to the
task's scale; otherwise the result is ``null`` and the benchmark counts
the run as unverified.  mpmath is the test extra of the package; the
timed process never imports it.
"""

from __future__ import annotations

import json
import sys

from mpmath import mp, mpf

LOW_DPS = 40
HIGH_DPS = 70
AGREE = 1e-15
_MAX_TERMS = 20000


def _coefficients(mu, eps, nu, Om, om, lam, x_max):
    """c_0, c_1, ... at the working precision, until |c_n| x_max^n has stayed
    below 10^-(dps+5) of the largest term for six consecutive n."""
    c = [mpf(1), -eps * (lam + om) / ((1 + lam) * (lam + nu))]
    cut = mpf(10) ** (-(mp.dps + 5))
    peak = max(abs(c[0]), abs(c[1]) * x_max)
    xp = x_max
    quiet = 0
    m = 1
    while m < _MAX_TERMS:
        nxt = -(eps * (m + lam + om) * c[m] + (Om + mu * (m - 1 + lam)) * c[m - 1]) \
            / ((m + 1 + lam) * (m + lam + nu))
        c.append(nxt)
        m += 1
        xp *= x_max
        term = abs(nxt) * xp
        if term > peak:
            peak = term
        quiet = quiet + 1 if term <= cut * peak else 0
        if quiet >= 6 and m > 8:
            return c
    raise RuntimeError("reference series did not decay")


def _horner(c, x):
    s = mpf(0)
    for cn in reversed(c):
        s = s * x + cn
    return s


def _frobenius(params, lam, xs):
    """x^lam sum_n c_n x^n at each x (x > 0, or x = 0 with lam = 0)."""
    mu, eps, nu, Om, om = (mpf(v) for v in params)
    lam = mpf(lam)
    x_max = max(mpf(x) for x in xs) or mpf(1)
    c = _coefficients(mu, eps, nu, Om, om, lam, x_max)
    out = []
    for x in xs:
        x = mpf(x)
        xl = mpf(1) if lam == 0 else x ** lam
        out.append(xl * _horner(c, x))
    return out


def _series(task):
    """Values of gch's closed-form normalisation (norm="closed") or of the
    c_0 = 1 series (norm="unit") of the given kind."""
    mu, _, nu, Om, _ = (mpf(v) for v in task["params"])
    first = task["kind"] == "first"
    vals = _frobenius(task["params"], mpf(0) if first else 1 - nu, task["xs"])
    if task["norm"] == "unit":
        return vals
    gamma = (1 + nu) / 2
    if first:
        pref = mp.gamma(gamma - Om / (2 * mu)) / mp.gamma(gamma)
    else:
        # z^(1-gamma) = (-mu/2)^(1-gamma) x^lam; x^lam is already in vals
        pref = (-mu / 2) ** (1 - gamma) * mp.gamma(1 - Om / (2 * mu)) / mp.gamma(2 - gamma)
    return [pref * v for v in vals]


def _system_map(system, i, beta):
    """(params, x-per-r scale, envelope function) of a state.

    Omega comes from the termination condition Omega = -mu (2 beta + i),
    not from the systems' spectral formulas that gch uses."""
    l = system["l"]
    nu = 2 * (l + 1)
    if system["name"] == "oscillator":
        wc = mpf(system["coupling"])
        mu, eps, om = mpf(-2), mp.sqrt(2 / wc), mpf(l + 1)
        scale = 1 / mp.sqrt(2 * wc)
        env = lambda r: r ** (l + 1) * mp.exp(-(r - 1) ** 2 / (2 * wc))
    elif system["name"] == "confinement":
        a, b, cc, m = (mpf(system[k]) for k in ("a", "b", "c", "mass"))
        alpha = mp.sqrt(2 * m * cc)
        beta_f = b * mp.sqrt(m / (2 * cc))
        mu, eps, om = mpf(-2), -2 * beta_f / mp.sqrt(alpha), -m * a / beta_f + l + 1
        scale = mp.sqrt(alpha)
        env = lambda r: r ** (l + 1) * mp.exp(-alpha * r * r / 2 - beta_f * r)
    else:
        m, b = mpf(system["mass"]), mpf(system["b_slope"])
        mu, eps, om = -b, -2 * m, mpf(l + 1)
        scale = mpf(1)
        env = lambda r: r ** (l + 1) * mp.exp(-b * (r + 2 * m / b) ** 2 / 4)
    Om = -mu * (2 * beta + i)
    return (mu, eps, mpf(nu), Om, om), scale, env


def _state(task):
    """Reduced radial values envelope(r) * Gamma(gamma - Omega/2mu)/Gamma(gamma)
    * y(x(r)), then the composite-Simpson norm 1/sqrt(int psi^2 r^2 dr) and
    |psi(r_max)| / peak on the same grid."""
    params, scale, env = _system_map(task["system"], task["i"], task["beta"])
    mu, eps, nu, Om, om = params
    rs = [mpf(r) for r in task["rs"]]
    xs = [scale * r for r in rs]
    c = _coefficients(mu, eps, nu, Om, om, mpf(0), max(xs))
    gamma = (1 + nu) / 2
    pref = mp.gamma(gamma - Om / (2 * mu)) / mp.gamma(gamma)
    vals = [env(r) * pref * _horner(c, x) for r, x in zip(rs, xs)]
    n = len(rs)
    h = rs[-1] / (n - 1)
    weights = [1] + [4 if j % 2 else 2 for j in range(1, n - 1)] + [1]
    integral = h / 3 * mp.fsum(w * v * v * r * r for w, v, r in zip(weights, vals, rs))
    peak = max(abs(v) for v in vals)
    return vals + [1 / mp.sqrt(integral), abs(vals[-1]) / peak]


def _asymptote(task):
    """1 + sqrt(pi s) erf(sqrt s) e^s with s = -mu x^2/2 (erfi for s < 0)."""
    mu = mpf(task["mu"])
    out = []
    for x in task["xs"]:
        s = -mu * mpf(x) ** 2 / 2
        if s == 0:
            out.append(mpf(1))
        elif s > 0:
            out.append(1 + mp.sqrt(mp.pi * s) * mp.erf(mp.sqrt(s)) * mp.exp(s))
        else:
            out.append(1 - mp.sqrt(-mp.pi * s) * mp.erfi(mp.sqrt(-s)) * mp.exp(s))
    return out


def _spectrum(task):
    """Eigenvalue of every (i, beta) with i <= i_max, beta <= beta_max, from
    the ladders of the three systems, sorted like gch spectrum's rows."""
    s = task["system"]
    l = s["l"]
    rows = []
    for i in range(task["i_max"] + 1):
        for beta in range(task["beta_max"] + 1):
            if s["name"] == "oscillator":
                ev = mpf(2 * beta + l + 1 + i)
            elif s["name"] == "confinement":
                m, cc, b = mpf(s["mass"]), mpf(s["c"]), mpf(s["b"])
                alpha = mp.sqrt(2 * m * cc)
                beta_f = b * mp.sqrt(m / (2 * cc))
                ev = (4 * alpha * (beta + (i + l + mpf(3) / 2) / 2) - beta_f ** 2) / (2 * m)
            else:
                ev = 4 * mpf(s["b_slope"]) * (2 * beta + i + l + mpf(3) / 2)
            rows.append((ev, i, beta))
    rows.sort()
    return [ev for ev, _, _ in rows]


_KINDS = {"series": _series, "state": _state, "asymptote": _asymptote, "spectrum": _spectrum,
          "none": lambda task: []}


def _scale(task, vals):
    # state samples are judged against the sampled peak, everything else
    # value by value
    if task["type"] == "state":
        peak = max(abs(v) for v in vals[:-2])
        return [peak] * (len(vals) - 2) + [abs(vals[-2]), abs(vals[-1]) + 1]
    return [abs(v) for v in vals]


def solve(task):
    """Floats of the task's values, or None when the two precisions disagree."""
    fn = _KINDS[task["type"]]
    with mp.workdps(LOW_DPS):
        low = fn(task)
    with mp.workdps(HIGH_DPS):
        high = fn(task)
        scales = _scale(task, high)
        for a, b, s in zip(low, high, scales):
            if abs(a - b) > AGREE * s:
                return None
        return [float(v) for v in high]


def main() -> int:
    tasks = json.load(sys.stdin)
    json.dump([solve(t) for t in tasks], sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
