"""The per-order decomposition of a closed-form point, for the tests that
check the decomposition itself.

An :class:`~gch.params.EvalResult` keeps only ``orders_used``, the count of
the eps_tilde orders its value sums.  :func:`orders` rebuilds those orders
one point at a time from the engine's own pieces (``series._side``,
``_required_cap`` and ``_engine``), with the running eps_tilde power and
stop rule of ``series._outcome``; on the far side of the mu > 0 transform
test it runs the transformed parameters and multiplies each order by the
transform factor.  So for a point that :func:`~gch.series.evaluate` or
:func:`~gch.series.eval_general` evaluates alone, the list has
``orders_used`` entries, and the magnitude of its last entry, past order
0, is the result's ``last_term_mag``.
"""

from __future__ import annotations

import math
from itertools import islice

from gch import series
from gch.params import GchParams, SolutionKind, detect_termination, real_power, validate


def orders(p: GchParams, kind: SolutionKind, x: float, normalised: bool = True) -> list[float]:
    """y_0, y_1, ... at x, each times the prefactor: the normalisation of
    :func:`~gch.series.evaluate` if ``normalised``, else the x^lam of
    :func:`~gch.series.eval_general` at the root of ``kind``."""
    t = series.NestedTruncation()
    if normalised:
        lam, nstar, pref_of = series._normalisation(p, kind)
        pref = pref_of(x)
    else:
        lam = validate(p, kind)
        nstar = detect_termination(p, lam)
        pref = real_power(x, lam)
    far = p.mu > 0.0 and 0.5 * p.mu * x * x > 1.0
    q = series._kummer_transformed(p) if far else p
    a_mag, end, chains, weights = series._side(q, lam, detect_termination(q, lam) if far else nstar)
    z = -0.5 * q.mu * x * x
    et = -0.5 * q.eps * x
    vectors = series._engine(chains, weights, z, series._required_cap(z, a_mag, chains, end))
    out = [math.fsum(next(vectors))]
    running, et_pow, streak = out[0], 1.0, 0
    for g in islice(vectors, 0 if et == 0.0 else t.max_order_N):
        et_pow *= et
        contrib = math.fsum(g) * et_pow
        out.append(contrib)
        running += contrib
        if abs(contrib) <= max(t.rel_tol * abs(running), 1e-300):
            streak += 1
            if streak >= 2:
                break
        else:
            streak = 0
    scale = math.exp(-0.5 * p.mu * x * x - p.eps * x) if far else 1.0
    return [pref * (scale * o) for o in out]
