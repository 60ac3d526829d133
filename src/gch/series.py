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
2m + q reads chain row q from index m and weight row (n-1) % 2 from index
(n-1) // 2, cap + 1 entries of each.  The engine keeps each row as a
window over just those entries: order n appends to its two rows the one
entry it reads beyond the order before, zips them whole, and then drops
each row's head, the one entry no later order reads.  A step is then
g_n[i] = w g_{n-1}[i] + zr g_n[i-1], with no division, and order 0 is
the running product of row 0.  :func:`_side` derives the parameters of
both rows once per side; :func:`_outcome` sums a point's orders and
decides why the sum stopped: on tolerance, the order cap or the inner cap.

No row checks its denominators.  Each chain or weight offset that
depends on nu is +-(nu - k)/2 plus an integer, for an integer k, and
:func:`validate` has refused nu within 2 * INT_TOL of the kind's
forbidden integers; so no offset lies within INT_TOL of a nonpositive
integer.  A point whose z leaves the float range, or whose orders fsum
cannot add, raises FloatOverflow naming its x; a near-side sum that
overflows to one infinity, or reads NaN, is returned flagged.

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
(:func:`_required_cap`), the one input to how deep a point's chains run
and whether the inner cap cut them, never falls as |z| grows from z = 0,
so :func:`evaluate_grid` runs one engine, at the point of largest |x| on
each side of the transform test, and every point there costs one dot
product per order.  Each point reads that engine through its own
:func:`itertools.tee` reader, so the engine builds an order once, when
the first point to sum it reads it, and none that no point sums.  Its
eps_tilde powers, transform factor, prefactor and stop rule stay its own.
"""

from __future__ import annotations

import math
import sys
from functools import partial
from itertools import accumulate, cycle, islice, repeat, tee
from operator import mul
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import BetaMismatch, FloatOverflow, GchError, NormalizationPole, NoTermination
from .params import (
    EvalResult, GchParams, SolutionKind, _bind, _Frozen, _index, _require_finite, detect_termination, real_power, validate,
)

_TINY = 1e-300


#: the most orders past order 0 one sum takes; a sum that reaches it is flagged not converged
_MAX_ORDER = 48

#: the deepest chain index; a point whose chains need more is flagged not converged
_MAX_INNER = 240

#: the outer sum stops once two consecutive orders contribute below this fraction of the running sum
_REL_TOL = 1e-12

#: the chain indices 0.0, 1.0, ... below _MAX_INNER, as floats
_INDICES = tuple(map(float, range(_MAX_INNER)))


class NestedTruncation(_Frozen):
    """The caps and tolerance of the doubly-infinite nested sums, as a
    read-only record: ``NestedTruncation()`` takes no arguments.

    ``max_order_N`` caps the outer order (the power of eps_tilde),
    ``max_inner`` caps every chain index, and ``rel_tol`` stops the outer
    sum once two consecutive orders contribute less than rel_tol times the
    running total.  Each point runs its chains to the depth at which the
    upper envelope of its Kummer-type terms has decayed 18 digits, or to
    beta_0 where eps = 0 and chain 0 ends (:func:`_required_cap`); one
    deeper than ``max_inner`` is cut there and flagged, so the cap costs
    easy points nothing; it reaches |z| of about 100 with Kummer-type chain
    parameters.  Some points near |eps_tilde| =
    4 need more orders than the cap: they are flagged as not converged,
    not covered.
    """

    __slots__ = ("max_order_N", "max_inner", "rel_tol")

    def __init__(self) -> None:
        _bind(self, "max_order_N", _MAX_ORDER)
        _bind(self, "max_inner", _MAX_INNER)
        _bind(self, "rel_tol", _REL_TOL)

    def __reduce__(self):
        return self.__class__, ()


def _gamma_ratio(num_arg: float, den_arg: float, what: str) -> float:
    """Gamma(num_arg)/Gamma(den_arg) for normalisation prefactors.

    Where a Gamma overflows or falls below the smallest normal float (a
    subnormal Gamma has lost digits, one that underflowed to 0.0 all of
    them), or their quotient leaves the float range, the ratio is
    exp(lgamma(num_arg) - lgamma(den_arg)) with the signs of the two
    Gammas; FloatOverflow where that is not finite either."""
    try:
        try:
            num, den = math.gamma(num_arg), math.gamma(den_arg)
            ratio = num / den if min(abs(num), abs(den)) >= sys.float_info.min else math.inf
        except OverflowError:
            ratio = math.inf
        if not math.isfinite(ratio):
            # Gamma(a) < 0 where a < 0 and floor(a) is odd
            num_neg, den_neg = (a < 0.0 and math.floor(a) % 2 == 1 for a in (num_arg, den_arg))
            ratio = math.exp(math.lgamma(num_arg) - math.lgamma(den_arg))
            if num_neg != den_neg:
                ratio = -ratio
    except ValueError as exc:
        raise NormalizationPole(f"{what}: gamma pole at Gamma({num_arg})/Gamma({den_arg})") from exc
    except OverflowError as exc:
        raise FloatOverflow(f"{what}: Gamma({num_arg})/Gamma({den_arg}) overflows") from exc
    return ratio


def _required_cap(z: float, a_mag: float, chains: tuple, end: Optional[int]) -> int:
    """Chain depth at which Kummer-type terms have decayed ~18 digits.

    Scans the upper envelope whose step i multiplies by |z| (a_mag + i)
    over the smaller of chain 0's |(b_0 + i)(c_0 + i)| and chain 1's
    |(b_1 + i)(c_1 + i)|, with a_mag, ``chains`` and ``end`` from
    :func:`_side` (all factors taken positive, so neither sign cancellation
    nor polynomial termination can hide a growing tail; every chain is
    chain 0 or 1 shifted, so a denominator near zero in any chain shows);
    returns _MAX_INNER + 1 if the envelope has not decayed within
    _MAX_INNER, and at most an ``end`` that is not None.  z = 0 is scanned
    like any z (depth 1), so the depth never falls as |z| grows from 0.
    """
    az = abs(z)
    (_, b, c), (_, b1, c1) = chains
    # where b_0 and c_0 are positive, chain 0's denominator is positive and
    # the smaller of the two
    both = b < 0.0 or c < 0.0
    t = 1.0
    peak = 1.0
    floor = 1e-18  # 1e-18 * peak, updated with peak
    # a float index: CPython 3.11 specialises float + float, not int +
    # float, and an index far below 2**53 is exact either way
    i = 0.0
    last = float(_MAX_INNER + 1 if end is None else min(end, _MAX_INNER + 1))
    while i < last:
        den = (b + i) * (c + i)
        if both:
            den = min(abs(den), abs((b1 + i) * (c1 + i)))
        ratio = az * (a_mag + i) / den
        t *= ratio
        i += 1.0
        if t > peak:
            peak = t
            if peak > 1e280:  # keep the scan itself finite
                t *= 1e-280
                peak *= 1e-280
            floor = 1e-18 * peak
        elif ratio < 0.95 and t <= floor:
            return int(i)
    return int(last)


def _kummer_transformed(p: GchParams) -> GchParams:
    """Parameters of the equation solved by e^{mu x^2/2 + eps x} y.

    If y solves the GCH equation with (mu, eps, nu, Omega, omega), then
    e^{mu x^2/2 + eps x} y solves it with (-mu, -eps, nu, Omega - mu(1+nu),
    nu - omega): the analogue of Kummer's transformation (DLMF 13.2.39).
    Both Frobenius solutions map onto the same root lam with the same
    leading coefficient, since the factor is 1 at x = 0.  FloatOverflow
    where a transformed parameter leaves the float range.
    """
    Omega, omega = p.Omega - p.mu * (1.0 + p.nu), p.nu - p.omega
    for name, value in (("Omega - mu(1+nu)", Omega), ("nu - omega", omega)):
        if math.isinf(value):
            raise FloatOverflow(f"transformed parameter {name}={value} overflows")
    return GchParams(-p.mu, -p.eps, p.nu, Omega, omega)


def _chain_end(nstar: Optional[int], k: int) -> Optional[int]:
    """beta_k = (n* - 1 - k)/2, the last index of chain k, when it is a
    nonnegative integer; None when chain k does not end."""
    if nstar is None or k >= nstar or (nstar - 1 - k) % 2:
        return None
    return (nstar - 1 - k) // 2


def _side(q: GchParams, lam: float, nq: Optional[int]) -> tuple[float, Optional[int], tuple, tuple]:
    """(a_mag, end, chains, weights) of a side with parameters q and n* = nq.

    ``chains`` is ((a_0, b_0, c_0), (a_1, b_1, c_1)), where a_k is exactly
    -beta_k if chain k ends (:func:`_chain_end`) and Omega/(2 mu) + k/2 +
    lam/2 otherwise; ``weights`` holds the offsets (numerator, first and
    second denominator) of w_0 and w_1, so w_k(j) = (j + wn)/((j + d1)(j +
    d2)); every other chain and weight is one of these shifted (module
    docstring).  a_mag is the largest |a_k| of chains 0 to 2.  ``end`` is
    beta_0 where q.eps = 0 (order 0 alone) and chain 0 ends, else None."""
    half_ratio = 0.5 * (q.Omega / q.mu)
    h = 0.5 * lam
    gamma = q.gamma
    end0, end1, end2 = _chain_end(nq, 0), _chain_end(nq, 1), _chain_end(nq, 2)
    a0 = half_ratio + h if end0 is None else -float(end0)
    a1 = half_ratio + 0.5 + h if end1 is None else -float(end1)
    a2 = half_ratio + 1.0 + h if end2 is None else -float(end2)
    wn = h + 0.5 * q.omega
    # nu/2 + h, not gamma - 1/2 + h, which rounds 1 + nu before it cancels near nu = 0, -2
    return (max(abs(a0), abs(a1), abs(a2)), end0 if q.eps == 0.0 else None,
            ((a0, 1.0 + h, gamma + h), (a1, 1.5 + h, gamma + 0.5 + h)),
            ((wn, 0.5 + h, 0.5 * q.nu + h), (wn + 0.5, 0.5 + h + 0.5, 0.5 * q.nu + h + 0.5)))


def _engine(chains: tuple, weights: tuple, z: float, cap: int) -> Iterator[list[float]]:
    """The order vectors g_0, g_1, ... at chain argument z, over the chain
    indices 0..min(cap, _MAX_INNER), with ``chains`` and ``weights`` from
    :func:`_side`; lazily, so a reader that stops after order n builds
    nothing past it."""
    (a0, b0, c0), (a1, b1, c1) = chains
    (wn0, d10, d20), (wn1, d11, d21) = weights
    # float indices (CPython 3.11 specialises float + float, not int + float;
    # exact far below 2**53), sliced off a shared tuple at a tenth of the cost
    js = _INDICES[:cap]
    cap = len(js)
    # order 0: g[i] = (a_0)_i z^i / ((b_0)_i (c_0)_i), the Kummer terms
    zr0 = [z * (a0 + j) / ((b0 + j) * (c0 + j)) for j in js]
    g = list(accumulate(zr0, mul, initial=1.0))
    yield g

    # the parity rows zr_q[j] = z r_q(j-1) and w_q[j] = w_q(j) serve chain
    # and weight 2m + q from index m (module docstring); each row is a
    # window one entry short of what its next order reads, which appends
    # that entry and, after its step, drops the head no later order reads.
    # zr_0 starts past z r_0(-1), which order 2 does not read, and zr_1
    # keeps z r_1(-1) as a 0.0 that order 1 multiplies by acc = 0
    zr1 = [0.0] + [z * (a1 + j) / ((b1 + j) * (c1 + j)) for j in js[:-1]]
    w0 = [(j + wn0) / ((j + d10) * (j + d20)) for j in js]
    w1 = [(j + wn1) / ((j + d11) * (j + d21)) for j in js]
    # the arguments of the entries order n appends: m + cap - 1 to its
    # chain row, (n - 1) // 2 + cap to its weight row; order n's chain
    # argument is order n - 1's weight argument, and its weight argument
    # is one past order n - 1's chain argument
    jr, jw = cap - 1.0, float(cap)

    # g_n[i] = w_{n-1}(i) g_{n-1}[i] + z r_n(i-1) g_n[i-1]; order 2m + q reads
    # chain row q and weight row 1 - q, so the orders take turns from order 1
    for zr, w, a, b, c, wn, d1, d2 in cycle(((zr1, w0, a1, b1, c1, wn0, d10, d20),
                                             (zr0, w1, a0, b0, c0, wn1, d11, d21))):
        zr.append(z * (a + jr) / ((b + jr) * (c + jr)))
        w.append((jw + wn) / ((jw + d1) * (jw + d2)))
        acc = 0.0
        g = [acc := wj * gj + zj * acc for wj, gj, zj in zip(w, g, zr)]
        del zr[0], w[0]
        jr, jw = jw, jr + 1.0
        yield g


def _dot(powers: list[float], g: list[float]) -> float:
    """S_n = sum_i g[i] powers[i], over the entries both lists have."""
    return math.fsum(map(mul, g, powers))


def _outcome(
    p: GchParams, far: bool, x: float, pref: float, et: float, need: int, sums: Iterator[float],
) -> EvalResult | FloatOverflow:
    """The result of a point, or the FloatOverflow it raises: the one place
    that sums a point's orders and decides why the sum stopped.

    Order n contributes S_n et^n, with S_n the n-th entry of ``sums``
    (over chain depth ``need`` capped at _MAX_INNER), and no entry past the
    last order summed is drawn.  The sum stops on tolerance right after
    order 0 when et = 0, or once two consecutive orders contribute below
    _REL_TOL times the running sum; otherwise on the order cap, after
    _MAX_ORDER orders past order 0.  It is converged if it stopped on
    tolerance, the inner cap cut no chain (need <= _MAX_INNER) and its
    value is finite; an infinite or NaN value is still returned, flagged.
    ``far`` marks the transformed parameters of p's group."""
    try:
        orders = [next(sums)]
        append = orders.append
        rel_tol = _REL_TOL
        streak = 0
        et_pow = 1.0
        running = orders[0]
        for s in islice(sums, 0 if et == 0.0 else _MAX_ORDER):
            et_pow *= et
            contrib = s * et_pow
            append(contrib)
            running += contrib
            # |contrib| <= max(rel_tol |running|, _TINY) without a builtin
            # call; a NaN lim stays NaN and passes nothing, and -0.0 meets
            # the floor
            lim = rel_tol * (running if running >= 0.0 else -running)
            if lim < _TINY:
                lim = _TINY
            if -lim <= contrib <= lim:
                streak += 1
                if streak >= 2:
                    break
            else:
                streak = 0
        on_tol = et == 0.0 or streak >= 2  # else on the order cap
        if far:
            expo = -0.5 * p.mu * x * x - p.eps * x
            try:
                scale = math.exp(expo)
            except OverflowError as exc:
                raise FloatOverflow(f"transform factor e^({expo}) overflows at x={x}") from exc
            # an order past the float range, times a factor that underflowed
            # to 0.0, would read NaN
            if not all(map(math.isfinite, orders)):
                raise FloatOverflow(f"nested sum overflows at x={x}")
            orders = [scale * o for o in orders]
        used = len(orders)
        value = pref * math.fsum(orders)
        return EvalResult(
            value,
            (min(need, _MAX_INNER) + 1) * used,
            abs(pref * orders[-1]) if used > 1 else 0.0,
            on_tol and need <= _MAX_INNER and math.isfinite(value),
            used,
        )
    except FloatOverflow as exc:
        return exc
    except (ValueError, OverflowError) as exc:
        # math.fsum met infinities of both signs, or left the float range
        err = FloatOverflow(f"nested sum overflows at x={x}")
        err.__cause__ = exc
        return err


def _results(
    p: GchParams,
    lam: float,
    nstar: Optional[int],
    pref_of: Callable[[float], float],
    xs: Sequence[float],
) -> list:
    """The outcome at each x, in order: pref_of(x) * (sum of the nested
    orders at root lam), or the GchError that x raises when evaluated
    alone; ``nstar`` is :func:`detect_termination` of (p, lam).  Every
    evaluator reaches its points through here, one point or many.

    Each point's prefactor comes first, and its error is the point's
    outcome.  Each side derives its chain parameters once
    (:func:`_side`), and each point runs its chains to the depth
    :func:`_required_cap` gives for its z and those parameters, which
    :func:`_engine` caps at _MAX_INNER; :func:`_outcome` sums its orders
    and decides where it stopped.  For mu > 0 and z < -1 the alternating
    chains cancel, so there the orders are those of the transformed
    parameters (:func:`_kummer_transformed`, whose z is positive) times
    e^{-mu x^2/2 - eps x}; which chains end is then decided by the
    transformed parameters' n*, whose error, like an overflow of the
    transformed parameters, is the outcome of every point on that side.
    Past those errors, a point whose z = -mu x^2/2 leaves the float range
    is refused with FloatOverflow, and takes no part in its side's engine.

    The other points on each side of that transform test share one engine,
    at the z and depth of the side's point of largest |x|.  The points are
    walked in input order, each with its own tee reader of that engine,
    and each maps the vectors T_n it reads to S_n = sum_i T_n[i]
    (z/z_ref)^i over its own depth (module docstring), which is never
    deeper than the reference's; a point whose read raises or is not
    finite runs the engine on its own.  A point at z_ref sums what its own
    run would, and a side of one point reads the bare engine: a tee buffer
    costs it fresh memory.
    """
    # each entry holds the point's prefactor until its side replaces it
    out: list = []
    sides: dict = {}
    for i, x in enumerate(xs):
        try:
            out.append(pref_of(x))
        except GchError as exc:
            out.append(exc)
        else:
            sides.setdefault(p.mu > 0.0 and 0.5 * p.mu * x * x > 1.0, []).append(i)
    for far, idx in sides.items():
        q, nq = p, nstar
        if far:
            try:
                q = _kummer_transformed(p)
                nq = detect_termination(q, lam)
            except GchError as exc:
                for i in idx:
                    out[i] = exc
                continue
        a_mag, end, chains, weights = _side(q, lam, nq)
        half_mu, half_eps = -0.5 * q.mu, -0.5 * q.eps
        zs = {}  # point index -> its z, for the points whose z is finite
        for i in idx:
            z = half_mu * xs[i] * xs[i]
            if math.isinf(z):
                out[i] = FloatOverflow(f"z = -mu x^2/2 overflows at x={xs[i]}")
            else:
                zs[i] = z
        if not zs:
            continue
        z_ref = max(zs.values(), key=abs)
        need_ref = _required_cap(z_ref, a_mag, chains, end)
        engine = _engine(chains, weights, z_ref, need_ref)
        for (i, z), reader in zip(zs.items(), tee(engine, len(zs)) if len(zs) > 1 else (engine,)):
            x = xs[i]
            et = half_eps * x
            if z == z_ref:
                need, sums = need_ref, map(math.fsum, reader)
            else:
                need = _required_cap(z, a_mag, chains, end)
                powers = list(accumulate(repeat(z / z_ref, need), mul, initial=1.0))
                sums = map(partial(_dot, powers), reader)
            res = _outcome(p, far, x, out[i], et, need, sums)
            if z != z_ref and not (isinstance(res, EvalResult) and math.isfinite(res.value)):
                res = _outcome(p, far, x, out[i], et, need, map(math.fsum, _engine(chains, weights, z, need)))
            out[i] = res
    return out


def _raise_first(outcomes: list) -> list[EvalResult]:
    """``outcomes``, where none is a GchError; else the first one raises."""
    for res in outcomes:
        if isinstance(res, GchError):
            raise res
    return outcomes


def betas_from_omega(p: GchParams, lam: float, count: int) -> tuple[Optional[int], ...]:
    """Last indices beta_k = (-Omega/mu - lam - k)/2 of chains k < count.

    Chains that do not end are marked ``None``; the engine runs them as
    infinite series.  A single Omega fixes n* = 1 - lam - Omega/mu, so
    2*beta_k + k = n* - 1 for every present entry and present entries
    alternate with absent ones.  Raises NoTermination unless chain 0 ends,
    i.e. unless Omega is one of the eigenvalues -mu(2 beta_0 + lam).
    """
    count = _index("count", count)
    if count < 1:
        raise ValueError("count must be positive")
    nstar = detect_termination(p, lam)
    beta0 = _chain_end(nstar, 0)
    if beta0 is None:
        raise NoTermination(
            f"beta_0 = {0.5 * (-p.Omega / p.mu - lam)} is not a nonnegative integer; Omega={p.Omega} does not terminate"
        )
    # n* - 1 is even: chain k ends at beta_0 - k/2 for even k < n*, no odd chain
    ends: list = [None] * count
    ends[:nstar:2] = range(beta0, beta0 - (min(count, nstar) + 1) // 2, -1)
    return tuple(ends)


def _check_beta_consistency(p: GchParams, lam: float, nstar: Optional[int], betas: tuple) -> None:
    """BetaMismatch at the first present entry b_k of ``betas`` that is not
    _chain_end(nstar, k), the end the engine gives chain k."""
    for k, b in enumerate(betas):
        if b is not None and b != _chain_end(nstar, k):
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
    nstar = detect_termination(p, lam)  # refuses mu = 0
    if betas is not None:
        _check_beta_consistency(p, lam, nstar, betas)
    first = kind is SolutionKind.FIRST
    beta0 = _chain_end(nstar, 0)
    if beta0 is not None:
        num = p.gamma + float(beta0) if first else float(beta0) + 2.0 - p.gamma
    else:
        half_ratio = 0.5 * (p.Omega / p.mu)
        num = p.gamma - half_ratio if first else 1.0 - half_ratio
    pref = _gamma_ratio(num, p.gamma if first else 2.0 - p.gamma, f"{kind.value}-kind prefactor")
    if first:
        return lam, nstar, lambda x: pref
    expo = 1.0 - p.gamma

    def pref_of(x: float) -> float:
        value = real_power(-0.5 * p.mu * x * x, expo) * pref
        if math.isinf(value):
            raise FloatOverflow(f"second-kind prefactor z^({expo}) * {pref} overflows at x={x}")
        return value

    return lam, nstar, pref_of


def evaluate(
    p: GchParams,
    kind: SolutionKind,
    x: float,
    betas: Optional[tuple[Optional[int], ...]] = None,
) -> EvalResult:
    """Normalised closed form of either kind; the one-point case of
    :func:`evaluate_grid`.

    Chain k ends at beta_k = (n* - 1 - k)/2 wherever that is a nonnegative
    integer, n* = 1 - lam - Omega/mu (see the module docstring).  The
    normalisation is Gamma(gamma - Omega/2mu)/Gamma(gamma) (first kind) or
    z^(1-gamma) Gamma(1 - Omega/2mu)/Gamma(2-gamma) (second kind); when
    chain 0 ends, -Omega/2mu enters as beta_0 + lam/2 with the integer
    beta_0, and the result is the B-terminated polynomial class.
    ``betas``, as returned by :func:`betas_from_omega`, changes nothing:
    each present entry beta_k must be the end the parameters give chain k,
    and the first that is not raises BetaMismatch.

    The second kind needs z^(1-gamma) to be real (z >= 0, or an integer
    exponent; DomainError otherwise).  At nu = 1 the indicial roots
    coincide and the second kind is no longer independent of the first;
    the logarithmic companion solution is out of scope.  A non-finite x
    raises NonFiniteError before any work.
    """
    _require_finite("x", x)
    lam, nstar, pref_of = _normalisation(p, kind, betas)
    return _raise_first(_results(p, lam, nstar, pref_of, (x,)))[0]


def evaluate_grid(p: GchParams, kind: SolutionKind, xs: Iterable[float]) -> list[EvalResult]:
    """:func:`evaluate` at each x of ``xs``, in input order; ``xs`` is read
    once, so an iterator gives the points a list of the same values does.

    The points on each side of the mu > 0 transform test share one engine,
    at the point of largest |x|, exactly as :func:`evaluate` runs it
    there; every other point reads its orders off that point's order
    vectors with one dot product per order (module docstring).  So each
    result has the flags, depth and ``orders_used`` of its own
    :func:`evaluate` call, and its value agrees with it to rounding
    (the point of largest |x|, and any point at the same |x|, bit for
    bit).  Each point's outcome is its own, so a failing x costs the
    others nothing; the call raises what the first failing x raises in
    :func:`evaluate`, except that a non-finite x anywhere in ``xs`` raises
    NonFiniteError before any work.  Nothing is kept between calls.
    """
    xs = tuple(xs)
    for x in xs:
        _require_finite("x", x)
    lam, nstar, pref_of = _normalisation(p, kind)
    return _raise_first(_results(p, lam, nstar, pref_of, xs))


def _general(p: GchParams, lam: float, xs: Sequence[float]) -> list:
    """The outcome of :func:`eval_general` at each x of ``xs``, in input
    order, as in :func:`_results`; lam is the root :func:`validate`
    returned for p, and the PoleError of mu = 0 is every point's."""
    try:
        nstar = detect_termination(p, lam)
    except GchError as exc:
        return [exc] * len(xs)
    return _results(p, lam, nstar, lambda x: real_power(x, lam), xs)


def eval_general(p: GchParams, lam: float, x: float) -> EvalResult:
    """Unnormalised series x^lam * [S_0 + S_1 et + sum_n S_n et^n], c_0 = 1.

    lam must be an indicial root: 0 (the first kind) or, within 1e-12,
    1 - nu (the second kind), and the series runs at the root that
    :func:`validate` returns for that kind; any other lam raises
    ValueError, and mu = 0 raises PoleError.  Unlike
    :func:`evaluate` no Gamma normalisation enters, so this stays finite
    where that normalisation has a pole, and it is what the recurrence
    oracle is compared with.  ``orders_used`` counts the eps_tilde orders
    summed, order 0 included.  For mu > 0 and z = -mu x^2/2 < -1 the sum
    is taken over the transformed parameters (-mu, -eps, nu, Omega -
    mu(1+nu), nu - omega) with the same lam, times e^{-mu x^2/2 - eps x},
    so the orders counted are the transformed series'; see
    :class:`EvalResult`.  A non-finite x raises NonFiniteError before any
    work.
    """
    _require_finite("x", x)
    if lam == 0.0:
        kind = SolutionKind.FIRST
    elif abs(lam - (1.0 - p.nu)) <= 1e-12:
        kind = SolutionKind.SECOND
    else:
        raise ValueError(f"lam={lam} is neither indicial root (0 or 1 - nu = {1.0 - p.nu})")
    return _raise_first(_general(p, validate(p, kind), (x,)))[0]
