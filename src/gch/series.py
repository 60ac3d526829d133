"""Closed-form evaluation of both solution kinds by resummed nested series.

The series solution is reorganised by powers of eps_tilde = -eps*x/2 (the
"order" n).  The order-n contribution is an n-fold nested sum over
monotonically increasing indices i_0 <= i_1 <= ... <= i_n; chain k carries
the Pochhammer parameters

    a_k = Omega/(2 mu) + k/2 + lam/2        (numerator),
    b_k = 1 + k/2 + lam/2,  c_k = gamma + k/2 + lam/2   (denominators),

the innermost chain supplies the powers z^{i_n} with z = -mu*x^2/2, and
every non-innermost chain k is weighted by

    w_k(i) = (i + lam/2 + omega/2 + k/2)
             / ((i + 1/2 + lam/2 + k/2) (i - 1/2 + gamma + lam/2 + k/2)).

The parameters alone decide where chains end.  With n* = 1 - lam - Omega/mu
(:func:`detect_termination`, the index where B_{n*} = 0), a_k equals -beta_k
with beta_k = (n* - 1 - k)/2 whenever that is a nonnegative integer; chain k
then runs with that exact integer, and the rising factorial (-beta_k)_i
vanishes for i > beta_k and truncates it on its own.  Every other chain
runs the infinite series.  At the eigenvalues Omega = -mu(2 beta_0 + lam)
chain 0 ends too, and the result is the B-terminated polynomial class; it
is the same function :func:`evaluate` returns for any other Omega, not a
second one.

The Pochhammer ratios between adjacent indices are shorthand for the
telescoped products

    R_k(p, i) = prod_{j=p}^{i-1} r_k(j),
    r_k(j) = (a_k + j) / ((b_k + j)(c_k + j)),

which is the form the underlying B-coefficient products actually take; at
B-terminating parameters (a_k a nonpositive integer) the literal-ratio
reading hits 0/0 while the telescoped one stays finite, and direct
recurrence summation confirms the telescoped reading is the one that
solves the ODE.

In matrix form chain k is L_k = (I - z R_k S)^{-1}, with R_k = diag(r_k)
and S the index shift, and the order-n sum is

    S_n = e_0^T L_0 W_0 L_1 W_1 ... W_{n-1} L_n 1,    W_k = diag(w_k).

So the orders share a row vector g, evaluated left to right: g_0 holds
the order-0 Kummer terms, g_0[i] = z r_0(i-1) g_0[i-1] with g_0[0] = 1,
and each further order applies one weight and one chain,

    g_n[i] = w_{n-1}(i) g_{n-1}[i] + z r_n(i-1) g_n[i-1],

with S_n = sum_i g_n[i].  The entries stay on the scale of Kummer-type
terms, and an order costs cap + 1 steps over the chain indices 0..cap,
so a point costs O(N cap) for N orders.

The coefficients of a point come from two parity rows.  a_k, b_k, c_k and
the offsets of w_k all grow by 1/2 per chain, so r_{2m+q}(i) = r_q(i + m)
and w_{2m+q}(i) = w_q(i + m) for q = 0, 1.  This holds for chains that
end too: beta_{k+2} = beta_k - 1, so the exact integer a_q = -beta_q
shifted by m is a_{q+2m}, and chains past n* keep reading the same row.
So each point builds zr_q[j] = z r_q(j-1) and w_q[j] once; order n =
2m + q reads chain row q at offset m and weight row (n-1) % 2 at offset
(n-1) // 2, and appends to each of the two the one entry that it reads
beyond the order before.  A step is then g_n[i] = w g_{n-1}[i] +
zr g_n[i-1], with no division, and order 0 is the running product of
row 0.

For mu > 0 the chains alternate in sign and cancel once |z| grows, so
there the engine evaluates e^{mu x^2/2 + eps x} y instead, which solves
the same equation with transformed parameters and z > 0 (the analogue of
Kummer's transformation, DLMF 13.2.39), and multiplies the result back;
the transformed parameters' n* then decides which chains end.

Points of one parameter set share the order vectors.  Every path to the
entry g_n[i] takes exactly i chain steps, and each carries one factor z,
while the weights carry none; so

    g_n[i](z) = (z / z_ref)^i g_n[i](z_ref),

and a point reads S_n(z) = sum_i T_n[i] (z / z_ref)^i off the vectors
T_n = g_n(z_ref) of another point, summed over its own depth.  The depth
never falls as |z| grows, so :func:`evaluate_grid` runs one engine, at
the point of largest |x| on each side of the transform test, and every
point there costs one dot product per order.  The engine's table grows
as far as any point reads: a point that needs more orders than those
before it extends the same table.  Its eps_tilde powers, transform
factor, prefactor and stop rule stay its own.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import accumulate, chain, count, repeat
from operator import mul
from typing import Callable, Iterator, Optional, Sequence

from .errors import BetaMismatch, FloatOverflow, GchError, NormalizationPole, NoTermination, PoleError
from .params import GchParams, SolutionKind, _bind, _Frozen, _is_integer, validate
from .recurrence import EvalResult, detect_termination, real_power

_TINY = 1e-300


class NestedTruncation(_Frozen):
    """Caps and tolerance for the doubly-infinite nested sums.

    ``max_order_N`` caps the outer order (the power of eps_tilde),
    ``max_inner`` caps every chain index, and ``rel_tol`` stops the outer
    sum once two consecutive orders contribute less than rel_tol times the
    running total.  Each point runs its chains to the depth at which the
    upper envelope of its Kummer-type terms has decayed 18 digits
    (:func:`_required_cap`), and to ``max_inner`` where that depth is
    larger, so a large cap costs easy points nothing; the default reaches
    |z| of about 100 with Kummer-type chain parameters, and the default
    order cap covers |eps_tilde| <= 4.
    """

    __slots__ = ("max_order_N", "max_inner", "rel_tol")

    def __init__(self, max_order_N: int = 48, max_inner: int = 240, rel_tol: float = 1e-12) -> None:
        if max_order_N < 2:
            raise ValueError("max_order_N must be at least 2")
        if max_inner < 4:
            raise ValueError("max_inner must be at least 4")
        if rel_tol <= 0.0:
            raise ValueError("rel_tol must be positive")
        _bind(self, "max_order_N", max_order_N)
        _bind(self, "max_inner", max_inner)
        _bind(self, "rel_tol", rel_tol)


#: the truncation of a call that passes none
_DEFAULT_TRUNCATION = NestedTruncation()


def _gamma_ratio(num_arg: float, den_arg: float, what: str) -> float:
    """Gamma(num_arg)/Gamma(den_arg) for normalisation prefactors."""
    try:
        num = math.gamma(num_arg)
        den = math.gamma(den_arg)
    except ValueError as exc:
        raise NormalizationPole(f"{what}: gamma pole at Gamma({num_arg})/Gamma({den_arg})") from exc
    except OverflowError as exc:
        raise FloatOverflow(f"{what}: Gamma({num_arg})/Gamma({den_arg}) overflows") from exc
    return num / den


def _pole_guard(offset: float, cap: int, what: str, k: int) -> None:
    """Reject chain offsets that make a denominator (offset + i) vanish for
    some index i in 0..cap; validation rules exclude these for both roots."""
    if offset <= 0.0 and _is_integer(offset) and -round(offset) <= cap:
        raise PoleError(f"{what} {k} denominator offset {offset} vanishes at index {int(-round(offset))}")


def _guard_order(n: int, h: float, gamma: float, cap: int) -> None:
    """Pole guards of order n: chain n, then weight n - 1."""
    _pole_guard(1.0 + 0.5 * n + h, cap, "chain", n)
    _pole_guard(gamma + 0.5 * n + h, cap, "chain", n)
    k = n - 1
    _pole_guard(0.5 + h + 0.5 * k, cap, "weight", k)
    _pole_guard(gamma - 0.5 + h + 0.5 * k, cap, "weight", k)


def _required_cap(z: float, a_mag: float, b: float, c: float, hard_cap: int) -> int:
    """Chain depth at which Kummer-type terms have decayed ~18 digits.

    Scans the upper envelope whose step i multiplies by |z| (a_mag + i)
    over the smaller of chain 0's |(b + i)(c + i)| and chain 1's
    |(b + 1/2 + i)(c + 1/2 + i)| (all factors taken positive, so neither
    sign cancellation nor polynomial termination can hide a growing tail;
    every chain is chain 0 or 1 shifted, so a denominator near zero in
    any chain shows); returns hard_cap + 1 if the envelope has not
    decayed within the hard cap.  The depth never falls as |z| grows.
    """
    az = abs(z)
    if az == 0.0:
        return 8
    # where b and c are positive, chain 0's denominator is positive and
    # the smaller of the two
    both = b < 0.0 or c < 0.0
    t = 1.0
    peak = 1.0
    # a float index: CPython 3.11 specialises float + float, not int +
    # float, and an index far below 2**53 is exact either way
    i = 0.0
    last = float(hard_cap)
    while i <= last:
        den = (b + i) * (c + i)
        if both:
            den = min(abs(den), abs((b + 0.5 + i) * (c + 0.5 + i)))
        ratio = az * (a_mag + i) / den
        t *= ratio
        i += 1.0
        if t > peak:
            peak = t
            if peak > 1e280:  # keep the scan itself finite
                t *= 1e-280
                peak *= 1e-280
        elif ratio < 0.95 and t <= 1e-18 * peak:
            return int(i)
    return hard_cap + 1


def _kummer_transformed(p: GchParams) -> GchParams:
    """Parameters of the equation solved by e^{mu x^2/2 + eps x} y.

    If y solves the GCH equation with (mu, eps, nu, Omega, omega), then
    e^{mu x^2/2 + eps x} y solves it with (-mu, -eps, nu, Omega - mu(1+nu),
    nu - omega): the analogue of Kummer's transformation (DLMF 13.2.39).
    Both Frobenius solutions map onto the same root lam with the same
    leading coefficient, since the factor is 1 at x = 0.
    """
    return GchParams(-p.mu, -p.eps, p.nu, p.Omega - p.mu * (1.0 + p.nu), p.nu - p.omega)


def _chain_end(nstar: Optional[int], k: int) -> Optional[int]:
    """beta_k = (n* - 1 - k)/2, the last index of chain k, when it is a
    nonnegative integer; None when chain k does not end."""
    if nstar is None or k >= nstar or (nstar - 1 - k) % 2:
        return None
    return (nstar - 1 - k) // 2


def _chain_a(p: GchParams, lam: float, nstar: Optional[int]) -> tuple[float, float, float]:
    """Numerator parameters a_0, a_1, a_2: exactly -beta_k where chain k
    ends, else the infinite-series value Omega/(2 mu) + k/2 + lam/2."""
    half_ratio = p.Omega / (2.0 * p.mu)
    h = 0.5 * lam
    if nstar is None:
        return half_ratio + h, half_ratio + 0.5 + h, half_ratio + 1.0 + h
    return tuple([half_ratio + 0.5 * k + h if (beta := _chain_end(nstar, k)) is None else -float(beta)
                  for k in range(3)])


def _engine(
    p: GchParams,
    lam: float,
    a_k: tuple[float, float, float],
    z: float,
    cap: int,
    table: Optional[list],
) -> Iterator[list[float]]:
    """The order vectors g_0, g_1, ... at chain argument z, over the chain
    indices 0..cap, with ``a_k`` from :func:`_chain_a` of (p, lam).

    Each vector is appended to ``table``, unless it is None, before it is
    yielded, and order n's pole guards run just before its vector is
    built; so a reader that stops after order n builds and guards nothing
    past it.

    Each order fetches everything it reads by its parity, rows and
    parameters alike, as one flat tuple: one lookup and one unpack per
    order, where a nested tuple costs an unpack per level.
    """
    a0, a1, _ = a_k
    gamma = p.gamma
    h = 0.5 * lam
    # order 0: g[i] = (a_0)_i z^i / ((b_0)_i (c_0)_i), the Kummer terms
    b0, c0 = 1.0 + h, gamma + h
    _pole_guard(b0, cap, "chain", 0)
    _pole_guard(c0, cap, "chain", 0)
    # float indices: CPython 3.11 specialises float + float, not int +
    # float, and an index far below 2**53 is exact either way
    zr0 = [0.0] + [z * (a0 + j) / ((b0 + j) * (c0 + j)) for j in map(float, range(cap))]
    g = list(accumulate(zr0[1:], mul, initial=1.0))
    if table is not None:
        table.append(g)
    yield g

    # order n guards the offsets base + n/2 for the bases 1 + h, gamma + h
    # (chain n), h and gamma - 1 + h (weight n - 1); a guard fires only
    # while its offset is <= 0, and the offsets grow with n, so none can
    # fire past the smallest base's last such order (one order of margin
    # for rounding)
    last_guarded = 1.0 - 2.0 * min(h, gamma - 1.0 + h)
    if last_guarded >= 1:
        _guard_order(1, h, gamma, cap)

    # the parity rows zr_q[j] = z r_q(j-1) and w_q[j] = w_q(j) serve chain
    # and weight 2m + q at offset m (module docstring); each is built one
    # entry short of its first order, which appends that entry (weight 1's
    # offsets are chain 0's, guarded above)
    b1, c1 = 1.5 + h, gamma + 0.5 + h
    zr1 = [0.0] + [z * (a1 + j) / ((b1 + j) * (c1 + j)) for j in map(float, range(cap - 1))]
    weight0 = (h + 0.5 * p.omega, 0.5 + h, gamma - 0.5 + h)
    weight1 = (h + 0.5 * p.omega + 0.5, 0.5 + h + 0.5, gamma - 0.5 + h + 0.5)
    w0, w1 = ([(j + wn) / ((j + d1) * (j + d2)) for j in map(float, range(cap))]
              for wn, d1, d2 in (weight0, weight1))
    # order n = 2m + q: chain row q at offset m, weight row 1 - q at
    # offset m - 1 + q
    by_parity = ((zr0, w1, a0, b0, c0, *weight1), (zr1, w0, a1, b1, c1, *weight0))
    # the rows' next indices m + cap - 1 and mw + cap, as floats
    row_end, wrow_end = cap - 1.0, float(cap)

    for n in count(1):
        if 1 < n <= last_guarded:
            _guard_order(n, h, gamma, cap)
        # g_n[i] = w_{n-1}(i) g_{n-1}[i] + z r_n(i-1) g_n[i-1]
        row, wrow, a, b, c, wn, d1, d2 = by_parity[n & 1]
        m = n >> 1
        mw = (n - 1) >> 1
        j = m + row_end
        row.append(z * (a + j) / ((b + j) * (c + j)))
        j = mw + wrow_end
        wrow.append((j + wn) / ((j + d1) * (j + d2)))
        acc = 0.0
        g = [acc := wj * gj + zj * acc for wj, gj, zj in zip(wrow[mw:], g, row[m:])]
        if table is not None:
            table.append(g)
        yield g


def _sum_orders(
    vectors: Iterator[list[float]],
    et: float,
    t: NestedTruncation,
    total: Callable[[list[float]], float] = math.fsum,
) -> tuple[list[float], bool]:
    """Order contributions S_n et^n read off the order vectors g_n, with
    S_n = total(g_n), and the converged flag.

    The sum stops right after order 0 when et = 0, or once two consecutive
    orders contribute below rel_tol times the running sum (converged), or
    at max_order_N (not converged); no vector past the last order summed
    is drawn from ``vectors``.
    """
    orders = [total(next(vectors))]
    if et == 0.0:
        return orders, True
    rel_tol = t.rel_tol
    streak = 0
    et_pow = 1.0
    running = orders[0]
    for _, g in zip(range(t.max_order_N), vectors):
        et_pow *= et
        contrib = total(g) * et_pow
        orders.append(contrib)
        running += contrib
        # max(lim, _TINY) without the builtin call; a NaN lim stays NaN
        lim = rel_tol * abs(running)
        if lim < _TINY:
            lim = _TINY
        if abs(contrib) <= lim:
            streak += 1
            if streak >= 2:
                return orders, True
        else:
            streak = 0
    return orders, False


def _dot(powers: list[float], g: list[float]) -> float:
    """S_n = sum_i g[i] powers[i], over the entries both lists have."""
    return math.fsum(map(mul, g, powers))


def _result(
    p: GchParams,
    far: bool,
    nq: Optional[int],
    nstar: Optional[int],
    x: float,
    pref: float,
    et: float,
    need: int,
    got: tuple[list[float], bool],
    t: NestedTruncation,
) -> EvalResult:
    """The result of a point from its orders and converged flag ``got``,
    at chain depth ``need`` (capped at max_inner); ``far`` marks the
    transformed parameters, whose n* is ``nq``."""
    orders, converged = got
    if far:
        expo = -0.5 * p.mu * x * x - p.eps * x
        try:
            scale = math.exp(expo)
        except OverflowError as exc:
            raise FloatOverflow(f"transform factor e^({expo}) overflows at x={x}") from exc
        orders = [scale * o for o in orders]
    scaled = tuple([pref * o for o in orders])
    max_inner = t.max_inner
    return EvalResult(
        value=pref * math.fsum(orders),
        terms_used=(min(need, max_inner) + 1) * len(orders),
        last_term_mag=abs(scaled[-1]) if len(scaled) > 1 else 0.0,
        # with eps_tilde = 0 only order 0 is summed, and a chain 0 that
        # ends within max_inner leaves no tail for the inner cap to cut
        converged=converged and (need <= max_inner or (
            et == 0.0 and (end0 := _chain_end(nq, 0)) is not None and end0 <= max_inner)),
        terminated_at=nstar,
        orders=scaled,
    )


def _group(
    p: GchParams,
    lam: float,
    nstar: Optional[int],
    xs: Sequence[float],
    prefs: Sequence[float],
    t: NestedTruncation,
) -> list[EvalResult]:
    """pref * (sum of the nested orders at root lam) at each point of xs,
    which all lie on one side of the mu > 0 transform test.

    Each point runs its chains to the depth :func:`_required_cap` gives for
    its z and the chain parameters, at most max_inner, and sums the orders
    by the rule of :func:`_sum_orders`; ``converged`` also drops when
    max_inner is too small for the chains to have decayed.  For mu > 0 and
    z < -1 the alternating chains cancel, so the orders are those of the
    transformed parameters (:func:`_kummer_transformed`, whose z is
    positive) times e^{-mu x^2/2 - eps x}; which chains end is then decided
    by the transformed parameters' n*.

    The group has one engine, at the z and depth of its point of largest
    |x|, and one table T of the vectors it has built.  The points are
    walked in input order, and each reads S_n = sum_i T_n[i] (z/z_ref)^i,
    over its own depth, off the table and then off the engine (module
    docstring); so the table grows as far as any point reads.  A point
    whose depth exceeds the table's (z = 0 beside a tiny reference), or
    whose value off the table is not finite, runs the engine on its own.
    """
    x_ref = max(xs, key=abs)
    far = p.mu > 0.0 and 0.5 * p.mu * x_ref * x_ref > 1.0
    if far:
        q = _kummer_transformed(p)
        nq = detect_termination(q, lam)
    else:
        q, nq = p, nstar
    a = _chain_a(q, lam, nq)
    h = 0.5 * lam
    b, c, a_mag = 1.0 + h, q.gamma + h, max(map(abs, a))
    max_inner = t.max_inner
    half_mu, half_eps = -0.5 * q.mu, -0.5 * q.eps
    z_ref = half_mu * x_ref * x_ref
    need_ref = _required_cap(z_ref, a_mag, b, c, max_inner)
    cap_ref = min(need_ref, max_inner)
    # a lone point keeps no vectors: holding them costs it fresh memory
    table = [] if len(xs) > 1 else None
    engine = _engine(q, lam, a, z_ref, cap_ref, table)
    out = []
    for x, pref in zip(xs, prefs):
        z = half_mu * x * x
        et = half_eps * x
        if z == z_ref:
            need, total = need_ref, math.fsum
        else:
            need = _required_cap(z, a_mag, b, c, max_inner)
            total = partial(_dot, list(accumulate(repeat(z / z_ref, min(need, max_inner)), mul, initial=1.0)))
        cap = min(need, max_inner)
        if cap <= cap_ref:
            vectors = engine if table is None else chain(table, engine)
            res = _result(p, far, nq, nstar, x, pref, et, need, _sum_orders(vectors, et, t, total), t)
        if cap > cap_ref or z != z_ref and not math.isfinite(res.value):
            got = _sum_orders(_engine(q, lam, a, z, cap, None), et, t)
            res = _result(p, far, nq, nstar, x, pref, et, need, got, t)
        out.append(res)
    return out


def _results(
    p: GchParams,
    lam: float,
    nstar: Optional[int],
    pref_of: Callable[[float], float],
    xs: Sequence[float],
    t: NestedTruncation | None,
) -> list[EvalResult]:
    """pref_of(x) * (sum of the nested orders at root lam) at each x, in
    order; ``nstar`` is :func:`detect_termination` of (p, lam).

    The points are grouped by the transform test, and each group shares
    one table (:func:`_group`).  When any point raises, every point is
    evaluated on its own in input order, so the call raises what the first
    failing point raises by itself.
    """
    if not xs:
        return []
    t = t or _DEFAULT_TRUNCATION
    try:
        if len(xs) == 1:
            return _group(p, lam, nstar, xs, (pref_of(xs[0]),), t)
        prefs = [pref_of(x) for x in xs]
        sides: dict = {}
        for i, x in enumerate(xs):
            sides.setdefault(p.mu > 0.0 and 0.5 * p.mu * x * x > 1.0, []).append(i)
        out: list = [None] * len(xs)
        for idx in sides.values():
            for i, res in zip(idx, _group(p, lam, nstar, [xs[i] for i in idx], [prefs[i] for i in idx], t)):
                out[i] = res
        return out
    except (GchError, ArithmeticError, ValueError):
        if len(xs) == 1:
            raise
        return [_group(p, lam, nstar, (x,), (pref_of(x),), t)[0] for x in xs]


def betas_from_omega(p: GchParams, lam: float, count: int) -> tuple[Optional[int], ...]:
    """Last indices beta_k = (-Omega/mu - lam - k)/2 of chains k < count.

    Chains that do not end are marked ``None``; the engine runs them as
    infinite series.  A single Omega fixes n* = 1 - lam - Omega/mu, so
    2*beta_k + k = n* - 1 for every present entry and present entries
    alternate with absent ones.  Raises NoTermination unless chain 0 ends,
    i.e. unless Omega is one of the eigenvalues -mu(2 beta_0 + lam).
    """
    if count < 1:
        raise ValueError("count must be positive")
    nstar = detect_termination(p, lam)
    if _chain_end(nstar, 0) is None:
        raise NoTermination(
            f"beta_0 = {0.5 * (-p.Omega / p.mu - lam)} is not a nonnegative integer; Omega={p.Omega} does not terminate"
        )
    # chain 0 ends, so n* - 1 is even, and the chains that end are the
    # even k = 0, 2, ..., n* - 1
    betas: list = [None] * count
    for k in range(0, min(count, nstar), 2):
        betas[k] = (nstar - 1 - k) // 2
    return tuple(betas)


def _check_beta_consistency(p: GchParams, lam: float, betas: tuple[Optional[int], ...]) -> None:
    tol = 1e-9 * max(1.0, abs(p.Omega), abs(p.mu))
    for k, b in enumerate(betas):
        if b is None:
            continue
        if abs(p.Omega + p.mu * (2.0 * b + k + lam)) > tol:
            raise BetaMismatch(
                f"beta_{k}={b} implies Omega={-p.mu * (2.0 * b + k + lam)}, got Omega={p.Omega}"
            )


def _normalisation(
    p: GchParams,
    kind: SolutionKind,
    betas: Optional[tuple[Optional[int], ...]] = None,
) -> tuple[float, Optional[int], Callable[[float], float]]:
    """(lam, n*, x -> prefactor) of the normalised closed form of ``kind``;
    ``betas`` is checked as :func:`evaluate` documents."""
    lam = validate(p, kind)
    if p.mu == 0.0:
        raise PoleError("closed-form evaluation requires mu != 0")
    if betas is not None:
        _check_beta_consistency(p, lam, betas)
    first = kind is SolutionKind.FIRST
    nstar = detect_termination(p, lam)
    beta0 = _chain_end(nstar, 0)
    if beta0 is not None:
        num = p.gamma + float(beta0) if first else float(beta0) + 2.0 - p.gamma
    else:
        half_ratio = p.Omega / (2.0 * p.mu)
        num = p.gamma - half_ratio if first else 1.0 - half_ratio
    pref = _gamma_ratio(num, p.gamma if first else 2.0 - p.gamma, f"{kind.value}-kind prefactor")
    if first:
        return lam, nstar, lambda x: pref
    expo = 1.0 - p.gamma
    return lam, nstar, lambda x: real_power(-0.5 * p.mu * x * x, expo) * pref


def evaluate(
    p: GchParams,
    kind: SolutionKind,
    x: float,
    betas: Optional[tuple[Optional[int], ...]] = None,
    t: NestedTruncation | None = None,
) -> EvalResult:
    """Normalised closed form of either kind; the one-point case of
    :func:`evaluate_grid`.

    Chain k ends at beta_k = (n* - 1 - k)/2 wherever that is a nonnegative
    integer, n* = 1 - lam - Omega/mu (see the module docstring).  The
    normalisation is Gamma(gamma - Omega/2mu)/Gamma(gamma) (first kind) or
    z^(1-gamma) Gamma(1 - Omega/2mu)/Gamma(2-gamma) (second kind); when
    chain 0 ends, -Omega/2mu enters as beta_0 + lam/2 with the integer
    beta_0, and the result is the B-terminated polynomial class.
    ``betas``, as returned by :func:`betas_from_omega`, is only checked
    against Omega (BetaMismatch when an entry disagrees).

    The second kind needs z^(1-gamma) to be real (z >= 0, or an integer
    exponent; DomainError otherwise).  At nu = 1 the indicial roots
    coincide and the second kind is no longer independent of the first;
    the logarithmic companion solution is out of scope.
    """
    lam, nstar, pref_of = _normalisation(p, kind, betas)
    return _group(p, lam, nstar, (x,), (pref_of(x),), t or _DEFAULT_TRUNCATION)[0]


def evaluate_grid(
    p: GchParams,
    kind: SolutionKind,
    xs: Sequence[float],
    t: NestedTruncation | None = None,
) -> list[EvalResult]:
    """:func:`evaluate` at each x of ``xs``, in input order.

    The points on each side of the mu > 0 transform test share one table
    and one engine, at the point of largest |x|, exactly as
    :func:`evaluate` runs it there; every other point reads its orders off
    that point's order vectors with one dot product per order (module
    docstring), and the table grows as far as any point reads.  So each
    result has the flags, depth, order count and ``terminated_at`` of its
    own :func:`evaluate` call, and its value agrees with it to rounding
    (the point of largest |x|, and any point at the same |x|, bit for
    bit).  Where any point raises, the call raises what the first such x
    raises in :func:`evaluate`.  Nothing is kept between calls.
    """
    lam, nstar, pref_of = _normalisation(p, kind)
    return _results(p, lam, nstar, pref_of, xs, t)


def _general(
    p: GchParams,
    lam: float,
    xs: Sequence[float],
    t: NestedTruncation | None,
) -> list[EvalResult]:
    """:func:`eval_general` at each x of ``xs``, in input order, from one
    table per transform branch as in :func:`evaluate_grid`; lam is the
    root :func:`validate` returned for p, and only mu is checked here."""
    if p.mu == 0.0:
        raise PoleError("closed-form evaluation requires mu != 0 (Omega/(2 mu) appears)")
    return _results(p, lam, detect_termination(p, lam), lambda x: real_power(x, lam), xs, t)


def eval_general(
    p: GchParams,
    lam: float,
    x: float,
    t: NestedTruncation | None = None,
) -> EvalResult:
    """Unnormalised series x^lam * [S_0 + S_1 et + sum_n S_n et^n], c_0 = 1.

    lam must be an indicial root: 0 (validated as the first kind) or
    1 - nu (the second kind); any other value raises ValueError.  Unlike
    :func:`evaluate` no Gamma normalisation enters, so this stays finite
    where that normalisation has a pole, and it is what the recurrence
    oracle is compared with.  The per-order decomposition (already scaled
    by x^lam and the eps_tilde powers) is exposed on ``orders``.  For
    mu > 0 and z = -mu x^2/2 < -1 the sum is taken over the transformed
    parameters (-mu, -eps, nu, Omega - mu(1+nu), nu - omega) with the same
    lam, times e^{-mu x^2/2 - eps x}, so ``orders`` is then the
    transformed decomposition; see :class:`EvalResult`.
    """
    if p.mu != 0.0:  # mu = 0 is refused by _general, ahead of the checks of lam
        if lam == 0.0:
            kind = SolutionKind.FIRST
        elif abs(lam - (1.0 - p.nu)) <= 1e-12:
            kind = SolutionKind.SECOND
        else:
            raise ValueError(f"lam={lam} is neither indicial root (0 or 1 - nu = {1.0 - p.nu})")
        validate(p, kind)
    return _general(p, lam, (x,), t)[0]
