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

The B-terminated polynomial class is the same object with a_k written as
-beta_k for nonnegative integers beta_k: the rising factorial (-beta_k)_i
vanishes for i > beta_k and truncates chain k on its own.  Consequently one
engine, :func:`evaluate`, serves both classes; the class changes only the
termination bookkeeping and the gamma-function normalisation.

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

with S_n = sum_i g_n[i].  Every entry comes from its neighbours by a
couple of multiplications, the entries stay on the scale of Kummer-type
terms, and an order costs cap + 1 steps over the chain indices 0..cap,
so a point costs O(N cap) for N orders.

For mu > 0 the chains alternate in sign and cancel once |z| grows, so
there the engine evaluates e^{mu x^2/2 + eps x} y instead, which solves
the same equation with transformed parameters and z > 0 (the analogue of
Kummer's transformation, DLMF 13.2.39), and multiplies the result back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from .errors import BetaMismatch, NormalizationPole, NoTermination, PoleError
from .params import GchParams, SolutionKind, _is_integer, validate
from .recurrence import EvalResult, detect_termination, real_power

_TINY = 1e-300


@dataclass(frozen=True)
class NestedTruncation:
    """Caps and tolerance for the doubly-infinite nested sums.

    ``max_order_N`` caps the outer order (the power of eps_tilde),
    ``max_inner`` caps every chain index, and ``rel_tol`` stops the outer
    sum once two consecutive orders contribute less than rel_tol times the
    running total.  Each point runs its chains only as deep as its |z|
    needs (at most ``max_inner``), so a large cap costs easy points
    nothing; the default reaches |z| of about 100 with Kummer-type chain
    parameters, and the default order cap covers |eps_tilde| <= 4.
    """

    max_order_N: int = 48
    max_inner: int = 240
    rel_tol: float = 1e-12

    def __post_init__(self) -> None:
        if self.max_order_N < 2:
            raise ValueError("max_order_N must be at least 2")
        if self.max_inner < 4:
            raise ValueError("max_inner must be at least 4")
        if self.rel_tol <= 0.0:
            raise ValueError("rel_tol must be positive")


class BetaSource(Enum):
    USER_SUPPLIED = "user"
    DERIVED_FROM_OMEGA = "omega"


@dataclass(frozen=True)
class BetaSequence:
    """Per-order termination indices beta_0, beta_1, ...

    ``None`` marks an order whose index is absent (not a nonnegative
    integer); that order's chain then runs with the Omega-derived
    infinite-series parameters up to the inner cap.  For Omega-derived
    sequences 2*beta_k + k is the same for every present entry, because a
    single Omega fixes the whole ladder.
    """

    betas: tuple[Optional[int], ...]
    source: BetaSource

    def __post_init__(self) -> None:
        if not self.betas:
            raise ValueError("beta sequence must not be empty")
        for k, b in enumerate(self.betas):
            if b is None:
                continue
            if not isinstance(b, int) or b < 0:
                raise ValueError(f"beta_{k}={b!r} is not a nonnegative integer")
        if self.source is BetaSource.DERIVED_FROM_OMEGA:
            levels = {2 * b + k for k, b in enumerate(self.betas) if b is not None}
            if len(levels) > 1:
                raise ValueError(f"Omega-derived betas are inconsistent: 2*beta_k+k = {sorted(levels)}")


def _gamma_ratio(num_arg: float, den_arg: float, what: str) -> float:
    """Gamma(num_arg)/Gamma(den_arg) for normalisation prefactors."""
    try:
        num = math.gamma(num_arg)
        den = math.gamma(den_arg)
    except ValueError as exc:
        raise NormalizationPole(f"{what}: gamma pole at Gamma({num_arg})/Gamma({den_arg})") from exc
    return num / den


def _pole_guard(offset: float, cap: int, what: str) -> None:
    """Reject chain offsets that make a denominator (offset + i) vanish for
    some index i in 0..cap; validation rules exclude these for both roots."""
    if offset <= 0.0 and _is_integer(offset) and -round(offset) <= cap:
        raise PoleError(f"{what} denominator offset {offset} vanishes at index {int(-round(offset))}")


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


def _chain_numerators(p: GchParams, lam: float, betas: Optional[BetaSequence]) -> Callable[[int], float]:
    """a_k of chain k: -beta_k where the sequence has an entry, otherwise
    the infinite-series value Omega/(2 mu) + k/2 + lam/2."""
    half_ratio = p.Omega / (2.0 * p.mu)
    present = betas.betas if betas is not None else ()

    def a_of(k: int) -> float:
        if k < len(present) and present[k] is not None:
            return -float(present[k])
        return half_ratio + 0.5 * k + 0.5 * lam

    return a_of


def _nested_orders(
    p: GchParams,
    lam: float,
    x: float,
    t: NestedTruncation,
    betas: Optional[BetaSequence],
) -> tuple[list[float], int, bool]:
    """Per-order contributions S_n * eps_tilde^n of the bracketed series.

    Returns (orders, steps, converged flag).  Each order runs the forward
    recurrence once over indices 0..cap, so ``steps`` is cap + 1 per order.
    The outer loop stops once two consecutive orders contribute below
    rel_tol times the running sum, or immediately after order 0 when
    eps = 0; a termination sequence also caps the order at its length - 1.
    The converged flag also drops when max_inner is too small for the
    chains to have decayed.

    For mu > 0 and z < -1 the alternating chains cancel, so the orders are
    those of the transformed parameters (:func:`_kummer_transformed`, whose
    z is positive) times e^{-mu x^2/2 - eps x}.  B-terminated sequences are
    transformed only when derived from Omega, because only then are their
    a_k the infinite-series ones; user-supplied sequences run as given.
    """
    max_n = t.max_order_N if betas is None else min(t.max_order_N, len(betas.betas) - 1)
    scale = 1.0
    if p.mu > 0.0 and 0.5 * p.mu * x * x > 1.0 and (
            betas is None or betas.source is BetaSource.DERIVED_FROM_OMEGA):
        scale = math.exp(-0.5 * p.mu * x * x - p.eps * x)
        p = _kummer_transformed(p)
        betas = None
    a_of = _chain_numerators(p, lam, betas)
    h = 0.5 * lam
    gamma = p.gamma
    z = -0.5 * p.mu * x * x
    et = -0.5 * p.eps * x
    a_mag = max(abs(a_of(0)), abs(a_of(1)), abs(a_of(2)))
    need = _required_cap(z, a_mag, 1.0 + h, gamma + h, t.max_inner)
    inner_ok = need <= t.max_inner
    cap = min(t.max_inner, max(20, need))

    # order 0: g[i] = (a_0)_i z^i / ((b_0)_i (c_0)_i), the Kummer terms
    a = a_of(0)
    b = 1.0 + h
    c = gamma + h
    _pole_guard(b, cap, "chain 0")
    _pole_guard(c, cap, "chain 0")
    g = [0.0] * (cap + 1)
    term = 1.0
    for i in range(cap + 1):
        g[i] = term
        term *= z * (a + i) / ((b + i) * (c + i))
    orders = [math.fsum(g)]
    steps = cap + 1
    if et == 0.0:
        return [scale * o for o in orders], steps, inner_ok

    streak = 0
    converged = False
    et_pow = 1.0
    running = orders[0]
    for n in range(1, max_n + 1):
        et_pow *= et
        # weight n-1 on the carried row, then chain n:
        # g_n[i] = w_{n-1}(i) g_{n-1}[i] + z r_n(i-1) g_n[i-1]
        a = a_of(n)
        b = 1.0 + 0.5 * n + h
        c = gamma + 0.5 * n + h
        _pole_guard(b, cap, f"chain {n}")
        _pole_guard(c, cap, f"chain {n}")
        k = n - 1
        wnum = h + 0.5 * p.omega + 0.5 * k
        wd1 = 0.5 + h + 0.5 * k
        wd2 = gamma - 0.5 + h + 0.5 * k
        _pole_guard(wd1, cap, f"weight {k}")
        _pole_guard(wd2, cap, f"weight {k}")
        # shifted by one so that a + i is a_n + (i - 1) in the loop
        a -= 1.0
        b -= 1.0
        c -= 1.0
        acc = wnum / (wd1 * wd2) * g[0]
        g[0] = acc
        for i in range(1, cap + 1):
            acc = (i + wnum) / ((i + wd1) * (i + wd2)) * g[i] + z * (a + i) / ((b + i) * (c + i)) * acc
            g[i] = acc
        steps += cap + 1
        contrib = math.fsum(g) * et_pow
        orders.append(contrib)
        running += contrib
        if abs(contrib) <= max(t.rel_tol * abs(running), _TINY):
            streak += 1
            if streak >= 2:
                converged = True
                break
        else:
            streak = 0
    return [scale * o for o in orders], steps, converged and inner_ok


def betas_from_omega(p: GchParams, lam: float, count: int) -> BetaSequence:
    """Termination indices beta_k = (-Omega/mu - lam - k)/2 for k < count.

    Orders whose index is not a nonnegative integer are marked absent
    (``None``); their chains contribute through the Omega-derived
    infinite-series weights instead.  A single Omega forces 2*beta_k + k
    to be constant, so present entries alternate with absent ones.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if p.mu == 0.0:
        raise PoleError("termination indices require mu != 0")
    base = -p.Omega / p.mu - lam
    betas: list[Optional[int]] = []
    for k in range(count):
        val = 0.5 * (base - k)
        if _is_integer(val, 1e-12 * max(1.0, abs(val))) and round(val) >= 0:
            betas.append(int(round(val)))
        else:
            betas.append(None)
    if betas[0] is None:
        raise NoTermination(
            f"beta_0 = {0.5 * base} is not a nonnegative integer; Omega={p.Omega} does not terminate"
        )
    return BetaSequence(tuple(betas), BetaSource.DERIVED_FROM_OMEGA)


def _check_beta_consistency(p: GchParams, lam: float, seq: BetaSequence) -> None:
    if seq.source is not BetaSource.DERIVED_FROM_OMEGA:
        return
    tol = 1e-9 * max(1.0, abs(p.Omega), abs(p.mu))
    for k, b in enumerate(seq.betas):
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
    betas: Optional[BetaSequence],
    pref: float,
) -> EvalResult:
    """pref * (sum of the nested orders at root lam), with the per-order
    decomposition scaled by pref on ``orders``."""
    orders, steps, converged = _nested_orders(p, lam, x, t or NestedTruncation(), betas)
    scaled = tuple(pref * o for o in orders)
    return EvalResult(
        value=pref * math.fsum(orders),
        terms_used=steps,
        last_term_mag=abs(scaled[-1]) if len(scaled) > 1 else 0.0,
        converged=converged,
        terminated_at=detect_termination(p, lam),
        orders=scaled,
    )


def evaluate(
    p: GchParams,
    kind: SolutionKind,
    x: float,
    betas: Optional[BetaSequence] = None,
    t: NestedTruncation | None = None,
) -> EvalResult:
    """Normalised closed form of either kind, infinite or B-terminated.

    Without ``betas`` this is the infinite series, normalised by
    Gamma(gamma - Omega/2mu)/Gamma(gamma) (first kind) or
    z^(1-gamma) Gamma(1 - Omega/2mu)/Gamma(2-gamma) (second kind).  With a
    termination sequence chain k is cut at beta_k by the rising factorial
    (-beta_k)_i, absent orders fall back to the Omega-derived weights, the
    outer order is capped by the sequence length as well, and the
    normalisations become Gamma(gamma + beta_0)/Gamma(gamma) and
    z^(1-gamma) Gamma(beta_0 + 2 - gamma)/Gamma(2 - gamma).  Omega-derived
    sequences must agree with Omega (BetaMismatch otherwise).

    The second kind needs z^(1-gamma) to be real (z >= 0, or an integer
    exponent; DomainError otherwise).  At nu = 1 the indicial roots
    coincide and the second kind is no longer independent of the first;
    the logarithmic companion solution is out of scope.
    """
    lam = validate(p, kind)
    if p.mu == 0.0:
        raise PoleError("closed-form evaluation requires mu != 0")
    first = kind is SolutionKind.FIRST
    half_ratio = p.Omega / (2.0 * p.mu)
    what = f"{kind.value}-kind prefactor"
    if betas is None:
        num = p.gamma - half_ratio if first else 1.0 - half_ratio
    else:
        _check_beta_consistency(p, lam, betas)
        b0 = betas.betas[0]
        if first:
            num = p.gamma + (float(b0) if b0 is not None else -half_ratio)
        else:
            num = (float(b0) if b0 is not None else -half_ratio - 0.5 * lam) + 2.0 - p.gamma
        what = "polynomial " + what
    pref = _gamma_ratio(num, p.gamma if first else 2.0 - p.gamma, what)
    if not first:
        pref = real_power(-0.5 * p.mu * x * x, 1.0 - p.gamma) * pref
    return _evaluate(p, lam, x, t, betas, pref)


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
    return _evaluate(p, lam, x, t, None, c0 * real_power(x, lam))
