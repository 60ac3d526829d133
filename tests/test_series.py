import math
import random
import re

import mpmath as mp
import pytest

from gch.errors import BetaMismatch, DomainError, FloatOverflow, GchError, KindRestrictionError, NoTermination, PoleError
from gch.params import GchParams, SolutionKind
from gch.recurrence import Truncation, sum_series
from gch.series import (
    NestedTruncation,
    _kummer_transformed,
    _required_cap,
    betas_from_omega,
    eval_general,
    evaluate,
)
TIGHT = Truncation(max_terms=500, rel_tol=1e-14)
NT = NestedTruncation(max_order_N=40, max_inner=80, rel_tol=1e-13)
FIRST, SECOND = SolutionKind.FIRST, SolutionKind.SECOND


def _kummer(a, b, z):
    """Kummer's M(a; b; z) = 1F1(a; b; z), from mpmath at 40 digits."""
    with mp.workdps(40):
        return float(mp.hyp1f1(a, b, z))


# ------------------------------------------------- literal nested-sum checks

def _literal_orders(p, lam, x, cap=60):
    """Transliterated nested sums for orders 0..2, telescoped ratios written
    as explicit factor products; independent of the engine's fold."""
    h = 0.5 * lam
    gam = p.gamma

    def a_of(k):
        return p.Omega / (2.0 * p.mu) + 0.5 * k + h

    def w(k, i):
        return (i + h + 0.5 * p.omega + 0.5 * k) / (
            (i + 0.5 + h + 0.5 * k) * (i - 0.5 + gam + 0.5 * k + h))

    def ratio_prod(k, lo, hi):
        out = 1.0
        for j in range(lo, hi):
            out *= (a_of(k) + j) / ((1.0 + 0.5 * k + h + j) * (gam + 0.5 * k + h + j))
        return out

    z = -0.5 * p.mu * x * x
    s0 = sum(ratio_prod(0, 0, i) * z ** i for i in range(cap))
    s1 = 0.0
    for i0 in range(cap):
        f0 = w(0, i0) * ratio_prod(0, 0, i0)
        if f0 == 0.0:
            continue
        s1 += f0 * sum(ratio_prod(1, i0, i1) * z ** i1 for i1 in range(i0, cap))
    s2 = 0.0
    for i0 in range(cap):
        f0 = w(0, i0) * ratio_prod(0, 0, i0)
        if f0 == 0.0:
            continue
        inner = 0.0
        for i1 in range(i0, cap):
            f1 = w(1, i1) * ratio_prod(1, i0, i1)
            if f1 == 0.0:
                continue
            inner += f1 * sum(ratio_prod(2, i1, i2) * z ** i2 for i2 in range(i1, cap))
        s2 += f0 * inner
    return s0, s1, s2


@pytest.mark.parametrize("params,lam,x", [
    (GchParams(2.0, 1.0, 1.5, 3.0, 0.25), 0.0, 0.4),        # generic, first kind
    (GchParams(-1.0, 0.8, 0.5, 0.7, 1.2), 0.5, 0.6),        # generic, second kind
    (GchParams(-0.5, -1.2, -0.7, 1.0, -0.7), 0.0, 0.8),     # B-terminating chain family
])
def test_engine_matches_literal_transliteration(params, lam, x):
    res = eval_general(params, lam, x, NT)
    lit = _literal_orders(params, lam, x)
    et = -0.5 * params.eps * x
    xpow = x ** lam
    for n in range(3):
        assert res.orders[n] == pytest.approx(lit[n] * et ** n * xpow, rel=1e-11, abs=1e-16)


# ---------------------------------------------------------- oracle agreement

def test_eval_general_matches_oracle_spec_point():
    p = GchParams(2.0, 1.0, 1.5, 3.0, 0.25)
    closed = eval_general(p, 0.0, 0.4, NT).value
    oracle = sum_series(p, 0.0, 0.4, TIGHT).value
    assert closed == pytest.approx(oracle, rel=1e-9)


def test_eval_general_random_sweep():
    rng = random.Random(99)
    for _ in range(60):
        p = GchParams(rng.choice([-2.0, -0.5, 0.5, 2.0]), rng.uniform(-2, 2),
                      rng.choice([0.5, 1.5, 0.25]), rng.uniform(-2, 2), rng.uniform(-1, 1))
        lam = rng.choice([0.0, 1.0 - p.nu])
        x = rng.uniform(0.05, 1.2)
        closed = eval_general(p, lam, x, NT).value
        oracle = sum_series(p, lam, x, TIGHT).value
        assert closed == pytest.approx(oracle, rel=1e-10, abs=1e-13)


def test_eval_general_requires_mu():
    with pytest.raises(PoleError):
        eval_general(GchParams(0.0, 1.0, 1.0, 1.0, 1.0), 0.0, 0.5)


def test_eval_general_rejects_non_root_lam():
    # nu = 0.5: the roots are 0 and 0.5
    with pytest.raises(ValueError, match="indicial root"):
        eval_general(GchParams(-1.0, 0.8, 0.5, 0.7, 1.2), 0.25, 0.6, NT)


def test_order_decomposition_scales_with_eps():
    p = GchParams(-1.5, 0.8, 1.2, 0.9, 0.4)
    doubled = GchParams(p.mu, 2.0 * p.eps, p.nu, p.Omega, p.omega)
    r1 = eval_general(p, 0.0, 0.7, NT)
    r2 = eval_general(doubled, 0.0, 0.7, NT)
    for n in range(min(len(r1.orders), len(r2.orders), 8)):
        assert r2.orders[n] == pytest.approx(2.0 ** n * r1.orders[n], rel=1e-12, abs=1e-250)


def test_x_zero_is_c0():
    p = GchParams(1.7, 0.9, 0.6, -0.4, 0.8)
    assert eval_general(p, 0.0, 0.0, NT).value == 1.0


# ------------------------------------------------------------ QW / RW, infinite

def test_qw_prefactor_at_origin():
    # gamma = 1, Omega/2mu = 1/2: value Gamma(1/2)/Gamma(1) = sqrt(pi)
    p = GchParams(2.0, 0.3, 1.0, 2.0, 1.0)
    assert evaluate(p, FIRST, 0.0).value == pytest.approx(math.sqrt(math.pi), rel=1e-15)


def test_qw_eps_zero_is_kummer():
    p = GchParams(2.0, 0.0, 1.0, 2.0, 1.0)
    want = math.sqrt(math.pi) * _kummer(0.5, 1.0, -1.0)
    assert evaluate(p, FIRST, 1.0, t=NT).value == pytest.approx(want, rel=1e-13)


def test_qw_matches_oracle_with_prefactor():
    p = GchParams(-1.0, 0.5, 0.5, 1.0, 2.0)
    c0 = math.gamma(p.gamma - p.Omega / (2 * p.mu)) / math.gamma(p.gamma)
    closed = evaluate(p, FIRST, 0.3, t=NT).value
    oracle = c0 * sum_series(p, 0.0, 0.3, TIGHT).value
    assert closed == pytest.approx(oracle, rel=1e-9)


def test_qw_kind_restriction():
    with pytest.raises(KindRestrictionError):
        evaluate(GchParams(1.0, 1.0, -1.0, 1.0, 1.0), FIRST, 0.5)


def test_rw_zero_limit_small_gamma():
    # gamma < 1: prefactor z^(1-gamma) vanishes with x
    p = GchParams(-2.0, 0.4, 0.5, 1.0, 0.3)
    assert evaluate(p, SECOND, 0.0).value == 0.0


def test_rw_eps_zero_kummer_composition():
    # Omega/2mu + 1 - gamma = 0 makes the z-sum collapse to 1
    p = GchParams(-2.0, 0.0, 0.5, 1.0, 0.3)
    assert evaluate(p, SECOND, 0.5).value == pytest.approx(0.25 ** 0.25, rel=1e-14)
    # generic second-kind reduction
    p = GchParams(-2.0, 0.0, 0.5, -0.6, 0.3)
    gamma = p.gamma
    z = 0.25
    want = z ** (1 - gamma) * math.gamma(1 - p.Omega / (2 * p.mu)) / math.gamma(2 - gamma) \
        * _kummer(p.Omega / (2 * p.mu) + 1 - gamma, 2 - gamma, z)
    assert evaluate(p, SECOND, 0.5, t=NT).value == pytest.approx(want, rel=1e-12)


def test_rw_matches_oracle():
    p = GchParams(-1.0, 0.4, 0.5, 0.7, 1.2)
    gamma = p.gamma
    lam = 1.0 - p.nu
    c0 = (-0.5 * p.mu) ** (1 - gamma) * math.gamma(1 - p.Omega / (2 * p.mu)) / math.gamma(2 - gamma)
    closed = evaluate(p, SECOND, 0.6, t=NT).value
    oracle = c0 * sum_series(p, lam, 0.6, TIGHT).value
    assert closed == pytest.approx(oracle, rel=1e-9)


def test_rw_domain_error_for_negative_z():
    # mu > 0 makes z < 0 and z^(1-gamma) complex
    with pytest.raises(DomainError):
        evaluate(GchParams(2.0, 0.4, 0.5, 0.7, 1.2), SECOND, 0.6)


def test_rw_kind_restriction():
    with pytest.raises(KindRestrictionError):
        evaluate(GchParams(-1.0, 1.0, 3.0, 1.0, 1.0), SECOND, 0.5)


# ------------------------------------------------------------- polynomial class

def test_betas_from_omega_examples():
    seq = betas_from_omega(GchParams(1.0, 0, 0.5, -4.0, 0), 0.0, 3)
    assert seq == (2, None, 1)
    # n* = 5: counts below, at and far past it
    assert betas_from_omega(GchParams(1.0, 0, 0.5, -4.0, 0), 0.0, 4) == (2, None, 1, None)
    assert betas_from_omega(GchParams(1.0, 0, 0.5, -4.0, 0), 0.0, 5) == (2, None, 1, None, 0)
    seq = betas_from_omega(GchParams(1.0, 0, 0.5, -4.0, 0), 0.0, 49)
    assert seq == (2, None, 1, None, 0) + (None,) * 44
    seq = betas_from_omega(GchParams(-2.0, 0, 0.5, 12.0, 0), 0.0, 1)
    assert seq == (3,)
    with pytest.raises(NoTermination):
        betas_from_omega(GchParams(1.0, 0, 0.5, -3.7, 0), 0.0, 2)


def test_qw_poly_beta0_zero_order0_constant():
    # beta_0 = 0 kills every z power at order 0; c0 = 1
    p = GchParams(-2.0, 0.5, 1.0, 0.0, 1.0)
    seq = betas_from_omega(p, 0.0, 1)
    res = evaluate(p, FIRST, 0.8, seq, NT)
    assert res.orders[0] == 1.0


def test_qw_poly_degree_two_polynomial():
    # eps = 0, beta_0 = 2, mu = -2, nu = 1: bracket is 1 - 2z + z^2/2, c0 = Gamma(3)/Gamma(1)
    p = GchParams(-2.0, 0.0, 1.0, -(-2.0) * 4.0, 1.0)
    seq = betas_from_omega(p, 0.0, 1)
    assert seq == (2,)
    for x in (0.2, 0.5, 1.1):
        z = x * x
        want = 2.0 * (1.0 - 2.0 * z + 0.5 * z * z)
        res = evaluate(p, FIRST, x, seq, NT)
        assert res.value == pytest.approx(want, rel=1e-13)
        assert res.converged  # exact finite evaluation at eps = 0


def test_qw_poly_matches_oracle_generic():
    # generic polynomial-class parameters, eps != 0
    mu = -1.5
    p = GchParams(mu, 0.9, 0.75, -(mu * (2 * 2 + 0.0)), 0.6)
    seq = betas_from_omega(p, 0.0, NT.max_order_N + 1)
    c0 = math.gamma(p.gamma + 2) / math.gamma(p.gamma)
    closed = evaluate(p, FIRST, 0.7, seq, NT).value
    oracle = c0 * sum_series(p, 0.0, 0.7, TIGHT).value
    assert closed == pytest.approx(oracle, rel=1e-9)


def test_qw_poly_equals_general_on_derived_betas():
    mu = 0.5
    p = GchParams(mu, -0.8, 1.5, -(mu * 2.0), 0.4)  # beta_0 = 1
    seq = betas_from_omega(p, 0.0, NT.max_order_N + 1)
    c0 = math.gamma(p.gamma + 1) / math.gamma(p.gamma)
    a = evaluate(p, FIRST, 0.9, seq, NT).value
    b = c0 * eval_general(p, 0.0, 0.9, NT).value
    assert a == pytest.approx(b, rel=1e-13)


@pytest.mark.parametrize("kind,p0,xs", [
    (SECOND, GchParams(-1.7, 0.8, 0.6, math.nan, 0.4), (0.7, 1.6, 2.5)),
    (FIRST, GchParams(-1.7, 0.8, 0.6, math.nan, 0.4), (0.7, 1.6, 2.5)),
    (FIRST, GchParams(0.5, -0.8, 1.5, math.nan, 0.4), (0.9, 2.2, 3.0)),   # z < -1 from x = 2
    (SECOND, GchParams(0.5, -0.8, -1.0, math.nan, 0.4), (0.9, 2.2, 3.0)),  # integer 1 - gamma
], ids=["second-mu-", "first-mu-", "first-mu+", "second-mu+"])
@pytest.mark.parametrize("beta", [0, 1, 2, 3])
def test_terminating_omega_is_one_function(kind, p0, xs, beta):
    # the parameters decide where chains end: passing the derived betas
    # changes nothing, on the direct and on the transformed path
    lam = kind.lambda_of(p0.nu)
    p = GchParams(p0.mu, p0.eps, p0.nu, -p0.mu * (2 * beta + lam), p0.omega)
    seq = betas_from_omega(p, lam, 49)
    for x in xs:
        assert evaluate(p, kind, x) == evaluate(p, kind, x, seq), x


def test_qw_poly_beta_mismatch():
    p = GchParams(-2.0, 0.5, 1.0, 8.0, 1.0)  # beta_0 = 2
    wrong = (3,)
    with pytest.raises(BetaMismatch):
        evaluate(p, FIRST, 0.5, wrong)


def test_rw_poly_zero_limit():
    mu = -2.0
    gamma = 0.75
    p = GchParams(mu, 0.4, 0.5, -2.0 * mu * (0.0 + 1 - gamma), 0.9)  # psi_0 = 0
    seq = betas_from_omega(p, 1.0 - p.nu, 1)
    assert seq == (0,)
    assert evaluate(p, SECOND, 0.0, seq).value == 0.0


def test_rw_poly_linear_term():
    # eps = 0, psi_0 = 1, mu = -2, gamma = 0.75: bracket 1 - z/(2-gamma)
    mu = -2.0
    gamma = 0.75
    p = GchParams(mu, 0.0, 0.5, -2.0 * mu * (1.0 + 1 - gamma), 0.9)
    seq = betas_from_omega(p, 1.0 - p.nu, 1)
    assert seq == (1,)
    for x in (0.3, 0.8):
        z = x * x
        pref = z ** (1 - gamma) * math.gamma(1 + 2 - gamma) / math.gamma(2 - gamma)
        want = pref * (1.0 - z / (2.0 - gamma))
        assert evaluate(p, SECOND, x, seq, NT).value == pytest.approx(want, rel=1e-13)


def test_rw_poly_matches_oracle():
    mu = -1.0
    nu = 0.5
    lam = 1.0 - nu
    gamma = 0.5 * (1 + nu)
    p = GchParams(mu, 0.4, nu, -2.0 * mu * (1.0 + 1 - gamma), 1.2)  # psi_0 = 1
    seq = betas_from_omega(p, lam, NT.max_order_N + 1)
    c0 = (-0.5 * mu) ** (1 - gamma) * math.gamma(1 + 2 - gamma) / math.gamma(2 - gamma)
    closed = evaluate(p, SECOND, 0.5, seq, NT).value
    oracle = c0 * sum_series(p, lam, 0.5, TIGHT).value
    assert closed == pytest.approx(oracle, rel=1e-9)


# ------------------------------------------------------------ independence

def test_wronskian_of_kinds():
    # nu = 0.5 admits both kinds; QW RW' - QW' RW must stay away from zero,
    # and after removing the Abel factor x^-nu e^(-mu x^2/2 - eps x) it is
    # constant across x.
    p = GchParams(-1.0, 0.4, 0.5, 0.7, 1.2)
    h = 1e-5
    qw = lambda x: evaluate(p, FIRST, x, t=NT).value
    rw = lambda x: evaluate(p, SECOND, x, t=NT).value
    scaled_consts = []
    for x in (0.2, 0.4, 0.6, 0.8, 1.0):
        w = qw(x) * (rw(x + h) - rw(x - h)) / (2 * h) - rw(x) * (qw(x + h) - qw(x - h)) / (2 * h)
        scale = abs(qw(x) * (rw(x + h) - rw(x - h)) / (2 * h)) + abs(rw(x) * (qw(x + h) - qw(x - h)) / (2 * h))
        assert abs(w) / scale > 1e-6
        scaled_consts.append(w * x ** p.nu * math.exp(0.5 * p.mu * x * x + p.eps * x))
    spread = max(scaled_consts) - min(scaled_consts)
    assert spread < 1e-6 * abs(scaled_consts[0])


def test_kummer_reduction_both_kinds_tight():
    rng = random.Random(41)
    for _ in range(20):
        mu = rng.choice([-1, 1]) * rng.uniform(0.3, 2.5)
        nu = rng.uniform(0.05, 1.4)
        Om = rng.uniform(-2.5, 2.5)
        p = GchParams(mu, 0.0, nu, Om, 0.5)
        x = rng.uniform(0.05, math.sqrt(8.0 / abs(mu)))
        z = -0.5 * mu * x * x
        gamma = p.gamma
        qw = evaluate(p, FIRST, x, t=NT).value
        want = math.gamma(gamma - Om / (2 * mu)) / math.gamma(gamma) * _kummer(Om / (2 * mu), gamma, z)
        assert qw == pytest.approx(want, rel=1e-12)
        if mu < 0:  # RW needs z > 0
            rw = evaluate(p, SECOND, x, t=NT).value
            want = z ** (1 - gamma) * math.gamma(1 - Om / (2 * mu)) / math.gamma(2 - gamma) \
                * _kummer(Om / (2 * mu) + 1 - gamma, 2 - gamma, z)
            assert rw == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("mu", [2.0, 0.7, -0.7, -2.0])
@pytest.mark.parametrize("az", [4.0, 16.0, 36.0])
def test_kummer_reduction_large_z_against_mpmath(mu, az):
    # eps = 0 at |z| = 4, 16, 36: both kinds against 40-digit hyp1f1 with
    # the Gamma prefactors, the second kind only where z > 0
    nu, Om = 1.5, 3.0
    p = GchParams(mu, 0.0, nu, Om, 0.25)
    x = math.sqrt(2.0 * az / abs(mu))
    with mp.workdps(40):
        z = -mp.mpf(mu) * mp.mpf(x) ** 2 / 2
        gamma, a = (1 + mp.mpf(nu)) / 2, mp.mpf(Om) / (2 * mp.mpf(mu))
        wants = {FIRST: mp.gamma(gamma - a) / mp.gamma(gamma) * mp.hyp1f1(a, gamma, z)}
        if mu < 0:
            wants[SECOND] = (z ** (1 - gamma) * mp.gamma(1 - a) / mp.gamma(2 - gamma)
                             * mp.hyp1f1(a + 1 - gamma, 2 - gamma, z))
    for kind, want in wants.items():
        res = evaluate(p, kind, x)
        assert res.converged, kind
        assert abs(res.value - float(want)) <= 1e-13 * abs(float(want)), kind


def test_nested_truncation_validation():
    with pytest.raises(ValueError):
        NestedTruncation(max_order_N=1)
    with pytest.raises(ValueError):
        NestedTruncation(max_inner=2)
    with pytest.raises(ValueError):
        NestedTruncation(rel_tol=0.0)


def test_default_truncations_cover_wide_domain():
    # the shipped defaults are sized for |mu|, |eps| <= 4 and |x| <= 2:
    # everything must converge and stay within ~1e-9 of the oracle
    from gch.params import SolutionKind, validate
    from gch.errors import GchError
    rng = random.Random(31337)
    checked = 0
    while checked < 150:
        mu = rng.choice([-1, 1]) * rng.uniform(0.2, 4.0)
        eps = rng.uniform(-4, 4)
        nu = rng.choice([0.5, 1.5, 2.5, 0.25, -0.5])
        Omega = rng.uniform(-4, 4)
        lam = rng.choice([0.0, 1.0 - nu])
        if checked % 4 == 0:
            Omega = -(mu * (2 * rng.randint(0, 8) + lam))
        p = GchParams(mu, eps, nu, Omega, rng.uniform(-2, 2))
        try:
            validate(p, SolutionKind.FIRST if lam == 0.0 else SolutionKind.SECOND)
        except GchError:
            continue
        x = rng.uniform(0.05, 2.0)
        if lam == 0.0 and rng.random() < 0.3:
            x = -x
        o = sum_series(p, lam, x)
        c = eval_general(p, lam, x)
        assert o.converged and c.converged, (p, lam, x)
        assert c.value == pytest.approx(o.value, rel=2e-9, abs=1e-12), (p, lam, x)
        checked += 1


def test_inner_cap_shortfall_drops_converged_flag():
    # large Omega/2mu pushes the chain peak beyond a small max_inner; the
    # value is then truncated and must not claim convergence
    p = GchParams(0.4, -1.7, 0.25, 59.0, 0.5)
    small = NestedTruncation(max_order_N=40, max_inner=24, rel_tol=1e-12)
    big = NestedTruncation(max_order_N=60, max_inner=400, rel_tol=1e-12)
    r_small = eval_general(p, 0.0, 1.9, small)
    r_big = eval_general(p, 0.0, 1.9, big)
    assert not r_small.converged
    assert r_big.converged
    oracle = sum_series(p, 0.0, 1.9, Truncation(max_terms=1000, rel_tol=1e-14))
    assert r_big.value == pytest.approx(oracle.value, rel=1e-9)


def test_normalization_pole():
    from gch.errors import NormalizationPole
    # gamma - Omega/2mu = 0: Gamma pole in the first-kind prefactor
    p = GchParams(1.0, 0.5, 1.0, 2.0, 0.3)  # gamma = 1, Omega/2mu = 1
    with pytest.raises(NormalizationPole):
        evaluate(p, FIRST, 0.5)
    # 1 - Omega/2mu = -1: pole in the second-kind prefactor
    p = GchParams(-1.0, 0.5, 0.5, -4.0, 0.3)
    with pytest.raises(NormalizationPole):
        evaluate(p, SECOND, 0.5)



# ------------------------------------------- forward recurrence vs backward fold

def _backward_fold_orders(p, lam, x, t, a_of, order_cap):
    """Per-order sums S_n * eps_tilde^n by folding every chain of every order
    from the inside out, U_k(i) = w_k(i) U_{k+1}(i) + z r_k(i) U_k(i+1):
    the O(N^2 cap) scheme the forward recurrence replaced, kept as its
    reference.  Same chain cap and stopping rule as the engine, and no
    transformation."""
    h = 0.5 * lam
    gamma = p.gamma
    z = -0.5 * p.mu * x * x
    et = -0.5 * p.eps * x
    a_mag = max(abs(a_of(0)), abs(a_of(1)), abs(a_of(2)))
    cap = min(t.max_inner, _required_cap(z, a_mag, 1.0 + h, gamma + h, t.max_inner))

    def r(k, i):
        return (a_of(k) + i) / ((1.0 + 0.5 * k + h + i) * (gamma + 0.5 * k + h + i))

    def w(k, i):
        return (i + h + 0.5 * p.omega + 0.5 * k) / ((i + 0.5 + h + 0.5 * k) * (i - 0.5 + gamma + h + 0.5 * k))

    def innermost(k):
        u = [0.0] * (cap + 2)
        for i in range(cap, -1, -1):
            u[i] = 1.0 + z * r(k, i) * u[i + 1]
        return u

    orders = [innermost(0)[0]]
    if et == 0.0:
        return orders
    streak = 0
    running = orders[0]
    for n in range(1, min(t.max_order_N, order_cap) + 1):
        u = innermost(n)
        for k in range(n - 1, -1, -1):
            v = [0.0] * (cap + 2)
            for i in range(cap, -1, -1):
                v[i] = w(k, i) * u[i] + z * r(k, i) * v[i + 1]
            u = v
        contrib = u[0] * et ** n
        orders.append(contrib)
        running += contrib
        if abs(contrib) <= max(t.rel_tol * abs(running), 1e-300):
            streak += 1
            if streak >= 2:
                break
        else:
            streak = 0
    return orders


_POLY_FIRST = GchParams(-1.5, 0.9, 0.75, 6.0, 0.6)      # beta_0 = 2
_POLY_SECOND = GchParams(-1.0, 0.4, 0.5, 2.5, 1.2)      # psi_0 = 1
_POLY_MU_PLUS = GchParams(0.5, -0.8, 1.5, -1.0, 0.4)    # beta_0 = 1


@pytest.mark.parametrize("p,lam,x,seq", [
    (GchParams(-1.5, 0.9, 1.2, 0.7, 0.4), 0.0, 1.1, None),
    (GchParams(-1.0, 0.8, 0.5, 0.7, 1.2), 0.5, 1.3, None),
    (GchParams(2.0, 1.0, 1.5, 3.0, 0.25), 0.0, 0.9, None),          # z = -0.81
    (_POLY_FIRST, 0.0, 1.2, betas_from_omega(_POLY_FIRST, 0.0, 49)),
    (_POLY_SECOND, 0.5, 1.1, betas_from_omega(_POLY_SECOND, 0.5, 49)),
    (_POLY_MU_PLUS, 0.0, 1.5, betas_from_omega(_POLY_MU_PLUS, 0.0, 49)),  # z = -0.5625
    (GchParams(-1.5, 2.5, 1.2, 4.5, 0.4), 0.0, 1.6, None),          # n* = 4: odd chains end
    (GchParams(-1.0, 3.0, 0.5, 0.7, 1.2), 0.0, 2.0, None),          # 41 orders
], ids=["first-infinite", "second-infinite", "mu+-first-infinite", "first-poly",
        "second-poly", "mu+-first-poly", "first-odd-chains-end", "first-many-orders"])
def test_forward_recurrence_matches_backward_fold(p, lam, x, seq):
    t = NestedTruncation()
    half_ratio = p.Omega / (2.0 * p.mu)
    nstar = 1.0 - lam - p.Omega / p.mu

    def a_of(k):
        # exactly -beta_k = -(n* - 1 - k)/2 where that is a nonnegative integer
        beta = 0.5 * (round(nstar) - 1 - k)
        if abs(nstar - round(nstar)) <= 1e-12 and beta >= 0 and beta == int(beta):
            return -beta
        return half_ratio + 0.5 * k + 0.5 * lam

    if seq is None:
        res = eval_general(p, lam, x, t)
        pref, order_cap = x ** lam, t.max_order_N
    elif lam == 0.0:
        res = evaluate(p, FIRST, x, seq, t)
        pref = math.gamma(p.gamma + seq[0]) / math.gamma(p.gamma)
        order_cap = len(seq) - 1
    else:
        res = evaluate(p, SECOND, x, seq, t)
        gamma = p.gamma
        pref = (-0.5 * p.mu * x * x) ** (1 - gamma) * math.gamma(seq[0] + 2 - gamma) / math.gamma(2 - gamma)
        order_cap = len(seq) - 1
    fold = _backward_fold_orders(p, lam, x, t, a_of, order_cap)
    assert len(res.orders) == len(fold) >= 3
    for n, (got, want) in enumerate(zip(res.orders, fold)):
        assert got == pytest.approx(pref * want, rel=1e-12, abs=0.0), n


def test_steps_linear_in_orders():
    # a quadratic refold would need sum_n (n+1)(cap+1) steps, far above this
    t = NestedTruncation()
    for p, x in ((GchParams(-1.0, 3.0, 0.5, 0.7, 1.2), 2.0), (GchParams(2.0, 1.0, 1.5, 3.0, 0.25), 6.0)):
        res = eval_general(p, 0.0, x, t)
        assert len(res.orders) >= 10
        assert res.terms_used <= len(res.orders) * (t.max_inner + 1)


_PINNED_STEPS = [
    (GchParams(2.0, 1.0, 1.5, 3.0, 0.25), FIRST, 1.0, 330, 15, 1.077701392708421),
    (GchParams(-1.0, 3.0, 0.5, 0.7, 1.2), FIRST, 2.0, 1066, 41, 0.02706950954442871),
    (GchParams(2.0, 1.0, 1.5, 3.0, 0.25), FIRST, 6.0, 3432, 33, 0.10605954083167235),  # transformed, z = -36
    (GchParams(2.0, 1.0, 1.5, 3.0, 0.25), FIRST, 0.5, 195, 13, 1.5839348800841226),   # depth 14, z = -0.25
    (GchParams(-1.0, 0.4, 0.5, 0.7, 1.2), SECOND, 1.0, 238, 14, 0.4694615098265719),
    (GchParams(0.5, 0.3, 1.5, -1.0, 0.0), FIRST, 1.0, 150, 10, 1.4866255088075082),  # B-terminated, n* = 3
]


@pytest.mark.parametrize("p,kind,x,terms,orders,value", _PINNED_STEPS,
                         ids=[f"p{i}-{row[2]}-{row[3]}-{row[4]}" for i, row in enumerate(_PINNED_STEPS)])
def test_step_counts_pinned(p, kind, x, terms, orders, value):
    # terms_used is cap + 1 per order; pinned so that step and order counts
    # stay comparable across changes to the engine, and the value bit for
    # bit, so that a change meant to leave the arithmetic alone shows any
    # bit it moves
    res = evaluate(p, kind, x)
    assert (res.terms_used, len(res.orders)) == (terms, orders)
    assert res.value == value
    assert res.converged


@pytest.mark.parametrize("p,kind,x,message", [
    (GchParams(0.01, 0.0, 1.5, -10.0, 0.0), FIRST, 1.0, "first-kind prefactor: Gamma(501.25)/Gamma(1.25)"),
    (GchParams(-0.01, 0.0, 0.5, 10.0, 0.0), SECOND, 1.0, "second-kind prefactor: Gamma(501.0)/Gamma(1.25)"),
    (GchParams(0.01, -100.0, 1.5, 1.0, 0.3), FIRST, 15.0, "transform factor e^(1498.875)"),
], ids=["gamma-first", "gamma-second", "transform-factor"])
def test_float_overflow_is_a_gch_error(p, kind, x, message):
    # the Gamma normalisation and the transform factor overflow a float
    with pytest.raises(FloatOverflow, match=f"^{re.escape(message)} overflows") as info:
        evaluate(p, kind, x)
    assert isinstance(info.value, GchError) and isinstance(info.value, OverflowError)


def test_weight_pole_inside_int_tol_raises():
    # validate accepts nu = -2 + 1.5e-12, farther than INT_TOL from -2, but
    # weight 0's offset gamma - 1/2 is then within INT_TOL of -1
    with pytest.raises(PoleError, match="weight 0 denominator"):
        evaluate(GchParams(-1.0, 1.0, -2 + 1.5e-12, 0.3, 0.2), FIRST, 0.5)


@pytest.mark.parametrize("nu,kind,message", [
    (4 + 1.5e-12, SECOND, "chain 1 denominator offset -7.5"),
    (2 + 1.5e-12, SECOND, "weight 0 denominator offset -7.5"),
    (-6 + 1.5e-12, FIRST, "chain 1 denominator offset -1.9999999999992.* vanishes at index 2"),
])
def test_order_one_guards_fire_in_order(nu, kind, message):
    # nu just outside INT_TOL of an integer puts an offset of chain 1 or
    # weight 0 within INT_TOL of a nonpositive integer; order 1 checks
    # chain 1 before weight 0, and both before their rows are built
    with pytest.raises(PoleError, match=f"^{message}"):
        evaluate(GchParams(-1.3, 1.0, nu, 0.4, 0.3), kind, 0.5)


# ---------------------------------------------- mu > 0 through the transformation

def _mp_first_kind(mu, eps, nu, Omega, omega, x, dps=60):
    """y(x) = sum_n c_n x^n with c_0 = 1, c_{n+1} = A_n c_n + B_n c_{n-1},
    summed in dps-digit arithmetic; written from the ODE, shares no code
    with gch."""
    with mp.workdps(dps):
        mu, eps, nu, Omega, omega, x = (mp.mpf(v) for v in (mu, eps, nu, Omega, omega, x))
        c_prev, c = mp.mpf(0), mp.mpf(1)
        total, xn = mp.mpf(0), mp.mpf(1)
        small = 0
        for n in range(2000):
            term = c * xn
            total += term
            if n > 10 and abs(term) < mp.mpf(10) ** (-dps - 5) * abs(total):
                small += 1
                if small >= 3:
                    return total
            else:
                small = 0
            den = (n + 1) * (n + nu)
            c_prev, c = c, (-eps * (n + omega) * c - (Omega + mu * (n - 1)) * c_prev) / den
            xn *= x
    raise AssertionError("reference series did not converge")


@pytest.mark.parametrize("eps", [0.0, 1.0])
@pytest.mark.parametrize("x", [4.0, 5.0, 6.0])
def test_mu_positive_large_z_against_mpmath(eps, x):
    # z = -16, -25, -36: the untransformed chains cancel to ~1e-10 at x = 4
    # and are not resolved at all at x = 6
    mu, nu, Omega, omega = 2.0, 1.5, 3.0, 0.25
    ref = _mp_first_kind(mu, eps, nu, Omega, omega, x)
    if eps == 0.0:
        with mp.workdps(60):
            kummer = mp.hyp1f1(mp.mpf(Omega) / (2 * mu), (1 + mp.mpf(nu)) / 2, -mu * mp.mpf(x) ** 2 / 2)
            assert abs(ref - kummer) <= mp.mpf(10) ** -45 * abs(kummer)
    res = eval_general(GchParams(mu, eps, nu, Omega, omega), 0.0, x)
    assert res.converged
    assert abs(res.value - float(ref)) <= 1e-12 * abs(float(ref))


@pytest.mark.parametrize("mu", [0.01, -0.01])
@pytest.mark.parametrize("eps", [4.0, -4.0])
@pytest.mark.parametrize("x", [1.0, 2.0])
def test_shallow_chains_many_orders_against_mpmath(mu, eps, x):
    # |z| <= 0.02 needs chains only about 10 deep, while |eps x/2| up to 4
    # takes 26 to 39 orders, whose chains must not need more
    ref = float(_mp_first_kind(mu, eps, 1.5, 0.3, 0.25, x))
    res = eval_general(GchParams(mu, eps, 1.5, 0.3, 0.25), 0.0, x)
    assert res.converged
    assert abs(res.value - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("p", [
    GchParams(2.0, 1.0, 1.5, 3.0, 0.25),
    GchParams(-1.0, 0.8, 0.5, 0.7, 1.2),
    GchParams(0.7, -1.3, 0.5, -0.4, 0.9),
])
def test_kummer_transformation_identity(p):
    # y(x; p) = e^{-mu x^2/2 - eps x} y(x; p') for both roots, same c0
    q = _kummer_transformed(p)
    for lam in (0.0, 1.0 - p.nu):
        for x in (0.3, 0.8, 1.2):
            y = sum_series(p, lam, x, TIGHT).value
            u = sum_series(q, lam, x, TIGHT).value
            assert y == pytest.approx(math.exp(-0.5 * p.mu * x * x - p.eps * x) * u, rel=1e-12)


def test_transformed_poly_class_matches_oracle():
    # a terminating Omega at mu > 0, z < -1 takes the transformed path
    p = _POLY_MU_PLUS
    seq = betas_from_omega(p, 0.0, 49)
    c0 = math.gamma(p.gamma + 1) / math.gamma(p.gamma)
    for x in (2.2, 3.0):
        res = evaluate(p, FIRST, x, seq)
        assert res.converged
        assert res.value == pytest.approx(c0 * sum_series(p, 0.0, x, TIGHT).value, rel=1e-11)
