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
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import mul
from typing import Optional

from .errors import BetaMismatch, NormalizationPole, NoTermination, PoleError
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

    Scans the upper envelope |z|^i (a_mag)_i / |(b)_i (c)_i| (all factors
    taken positive, so neither sign cancellation nor polynomial
    termination can hide a growing tail); returns hard_cap + 1 if the
    envelope has not decayed within the hard cap.
    """
    az = abs(z)
    if az == 0.0:
        return 8
    t = 1.0
    peak = 1.0
    i = 0
    while i <= hard_cap:
        ratio = az * (a_mag + i) / abs((b + i) * (c + i))
        t *= ratio
        i += 1
        if t > peak:
            peak = t
            if peak > 1e280:  # keep the scan itself finite
                t *= 1e-280
                peak *= 1e-280
        elif ratio < 0.95 and t <= 1e-18 * peak:
            return i
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


def _nested_orders(
    p: GchParams,
    lam: float,
    x: float,
    t: NestedTruncation,
    nstar: Optional[int],
) -> tuple[list[float], int, bool]:
    """Per-order contributions S_n * eps_tilde^n of the bracketed series.

    ``nstar`` is :func:`detect_termination` of (p, lam).  Returns (orders,
    steps, converged flag).  Each order runs the forward recurrence once
    over indices 0..cap, where cap is the depth :func:`_required_cap`
    gives for the point's z and chain parameters, at most max_inner; so
    ``steps`` is cap + 1 per order.  The outer loop stops once two
    consecutive orders contribute below rel_tol times the running sum, at
    max_order_N, or immediately after order 0 when eps = 0.  The converged
    flag also drops when max_inner is too small for the chains to have
    decayed.

    For mu > 0 and z < -1 the alternating chains cancel, so the orders are
    those of the transformed parameters (:func:`_kummer_transformed`, whose
    z is positive) times e^{-mu x^2/2 - eps x}; which chains end is then
    decided by the transformed parameters' n*.
    """
    scale = 1.0
    if p.mu > 0.0 and 0.5 * p.mu * x * x > 1.0:
        scale = math.exp(-0.5 * p.mu * x * x - p.eps * x)
        p = _kummer_transformed(p)
        nstar = detect_termination(p, lam)
    half_ratio = p.Omega / (2.0 * p.mu)
    h = 0.5 * lam

    def a_of(k: int) -> float:
        # exactly -beta_k where chain k ends, else the infinite-series value
        beta = _chain_end(nstar, k)
        return half_ratio + 0.5 * k + h if beta is None else -float(beta)

    a0, a1, a2 = a_of(0), a_of(1), a_of(2)
    gamma = p.gamma
    z = -0.5 * p.mu * x * x
    et = -0.5 * p.eps * x
    need = _required_cap(z, max(abs(a0), abs(a1), abs(a2)), 1.0 + h, gamma + h, t.max_inner)
    inner_ok = need <= t.max_inner
    cap = min(t.max_inner, need)

    # order 0: g[i] = (a_0)_i z^i / ((b_0)_i (c_0)_i), the Kummer terms
    b0, c0 = 1.0 + h, gamma + h
    _pole_guard(b0, cap, "chain", 0)
    _pole_guard(c0, cap, "chain", 0)
    zr0 = [0.0] + [z * (a0 + j) / ((b0 + j) * (c0 + j)) for j in range(cap)]
    g = list(accumulate(zr0[1:], mul, initial=1.0))
    orders = [math.fsum(g)]
    if et == 0.0:
        return [scale * o for o in orders], cap + 1, inner_ok

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
    zr1 = [0.0] + [z * (a1 + j) / ((b1 + j) * (c1 + j)) for j in range(cap - 1)]
    weight0 = (h + 0.5 * p.omega, 0.5 + h, gamma - 0.5 + h)
    weight1 = (h + 0.5 * p.omega + 0.5, 0.5 + h + 0.5, gamma - 0.5 + h + 0.5)
    w0, w1 = ([(j + wn) / ((j + d1) * (j + d2)) for j in range(cap)] for wn, d1, d2 in (weight0, weight1))
    # order n = 2m + q: chain row q at offset m, weight row 1 - q at
    # offset m - 1 + q
    by_parity = ((zr0, w1, (a0, b0, c0), weight1), (zr1, w0, (a1, b1, c1), weight0))

    fsum = math.fsum
    rel_tol = t.rel_tol
    streak = 0
    converged = False
    et_pow = 1.0
    running = orders[0]
    for n in range(1, t.max_order_N + 1):
        et_pow *= et
        if 1 < n <= last_guarded:
            _guard_order(n, h, gamma, cap)
        # g_n[i] = w_{n-1}(i) g_{n-1}[i] + z r_n(i-1) g_n[i-1]
        row, wrow, (a, b, c), (wn, d1, d2) = by_parity[n & 1]
        m = n >> 1
        mw = (n - 1) >> 1
        j = m + cap - 1
        row.append(z * (a + j) / ((b + j) * (c + j)))
        j = mw + cap
        wrow.append((j + wn) / ((j + d1) * (j + d2)))
        acc = 0.0
        g = [acc := wj * gj + zj * acc for wj, gj, zj in zip(wrow[mw:], g, row[m:])]
        contrib = fsum(g) * et_pow
        orders.append(contrib)
        running += contrib
        if abs(contrib) <= max(rel_tol * abs(running), _TINY):
            streak += 1
            if streak >= 2:
                converged = True
                break
        else:
            streak = 0
    return [scale * o for o in orders], (cap + 1) * len(orders), converged and inner_ok


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
    return tuple(_chain_end(nstar, k) for k in range(count))


def _check_beta_consistency(p: GchParams, lam: float, betas: tuple[Optional[int], ...]) -> None:
    tol = 1e-9 * max(1.0, abs(p.Omega), abs(p.mu))
    for k, b in enumerate(betas):
        if b is None:
            continue
        if abs(p.Omega + p.mu * (2.0 * b + k + lam)) > tol:
            raise BetaMismatch(
                f"beta_{k}={b} implies Omega={-p.mu * (2.0 * b + k + lam)}, got Omega={p.Omega}"
            )


def _evaluate(
    p: GchParams,
    lam: float,
    x: float,
    t: NestedTruncation | None,
    pref: float,
    nstar: Optional[int],
) -> EvalResult:
    """pref * (sum of the nested orders at root lam), with the per-order
    decomposition scaled by pref on ``orders``; ``nstar`` is
    :func:`detect_termination` of (p, lam)."""
    orders, steps, converged = _nested_orders(p, lam, x, t or _DEFAULT_TRUNCATION, nstar)
    scaled = tuple(pref * o for o in orders)
    return EvalResult(
        value=pref * math.fsum(orders),
        terms_used=steps,
        last_term_mag=abs(scaled[-1]) if len(scaled) > 1 else 0.0,
        converged=converged,
        terminated_at=nstar,
        orders=scaled,
    )


def evaluate(
    p: GchParams,
    kind: SolutionKind,
    x: float,
    betas: Optional[tuple[Optional[int], ...]] = None,
    t: NestedTruncation | None = None,
) -> EvalResult:
    """Normalised closed form of either kind.

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
    if not first:
        pref = real_power(-0.5 * p.mu * x * x, 1.0 - p.gamma) * pref
    return _evaluate(p, lam, x, t, pref, nstar)


def eval_general(
    p: GchParams,
    lam: float,
    c0: float,
    x: float,
    t: NestedTruncation | None = None,
) -> EvalResult:
    """Unnormalised series c0 * x^lam * [S_0 + S_1 et + sum_n S_n et^n].

    lam must be an indicial root: 0 (validated as the first kind) or
    1 - nu (the second kind); any other value raises ValueError.  Unlike
    :func:`evaluate` no Gamma normalisation enters, so this stays finite
    where that normalisation has a pole, and it is what the recurrence
    oracle is compared with.  The per-order decomposition (already scaled
    by c0 x^lam and the eps_tilde powers) is exposed on ``orders``.  For
    mu > 0 and z = -mu x^2/2 < -1 the sum is taken over the transformed
    parameters (-mu, -eps, nu, Omega - mu(1+nu), nu - omega) with the same
    lam and c0, times e^{-mu x^2/2 - eps x}, so ``orders`` is then the
    transformed decomposition; see :class:`EvalResult`.
    """
    if p.mu == 0.0:
        raise PoleError("closed-form evaluation requires mu != 0 (Omega/(2 mu) appears)")
    if lam == 0.0:
        kind = SolutionKind.FIRST
    elif abs(lam - (1.0 - p.nu)) <= 1e-12:
        kind = SolutionKind.SECOND
    else:
        raise ValueError(f"lam={lam} is neither indicial root (0 or 1 - nu = {1.0 - p.nu})")
    validate(p, kind)
    return _evaluate(p, lam, x, t, c0 * real_power(x, lam), detect_termination(p, lam))
