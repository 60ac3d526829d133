import math
import random
import re
import sys

import mpmath as mp
import pytest

from gch import series
from gch.errors import BetaMismatch, DomainError, FloatOverflow, GchError, KindRestrictionError, NoTermination, PoleError
from gch.params import INT_TOL, GchParams, SolutionKind, detect_termination
from gch.recurrence import sum_series
from gch.series import (
    NestedTruncation,
    _gamma_ratio,
    _kummer_transformed,
    _required_cap,
    betas_from_omega,
    eval_general,
    evaluate,
    evaluate_grid,
)
from gch.verify import GridSpec, cross_validate

from decomposition import orders
from reference import accepted, kummer, raw_sum

FIRST, SECOND = SolutionKind.FIRST, SolutionKind.SECOND


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
    kind = FIRST if lam == 0.0 else SECOND
    got = orders(params, kind, x, normalised=False)
    assert len(got) == eval_general(params, lam, x).orders_used
    lit = _literal_orders(params, lam, x)
    et = -0.5 * params.eps * x
    xpow = x ** lam
    for n in range(3):
        assert got[n] == pytest.approx(lit[n] * et ** n * xpow, rel=1e-11, abs=1e-16)


# ---------------------------------------------------------- oracle agreement

def test_eval_general_matches_oracle_spec_point():
    p = GchParams(2.0, 1.0, 1.5, 3.0, 0.25)
    closed = eval_general(p, 0.0, 0.4).value
    oracle = sum_series(p, 0.0, 0.4).value
    assert closed == pytest.approx(oracle, rel=1e-9)


def test_eval_general_random_sweep():
    rng = random.Random(99)
    for _ in range(60):
        p = GchParams(rng.choice([-2.0, -0.5, 0.5, 2.0]), rng.uniform(-2, 2),
                      rng.choice([0.5, 1.5, 0.25]), rng.uniform(-2, 2), rng.uniform(-1, 1))
        lam = rng.choice([0.0, 1.0 - p.nu])
        x = rng.uniform(0.05, 1.2)
        closed = eval_general(p, lam, x).value
        oracle = sum_series(p, lam, x).value
        assert closed == pytest.approx(oracle, rel=1e-10, abs=1e-13)


MU_ZERO = "^mu must be nonzero: Omega/mu enters n\\* and the closed form$"


@pytest.mark.parametrize("call", [
    lambda p: evaluate(p, FIRST, 0.5),
    lambda p: evaluate(p, SECOND, 0.5, betas=(0,)),
    lambda p: evaluate_grid(p, SECOND, [0.2, 0.5]),
    lambda p: eval_general(p, 1.0 - p.nu, 0.5),
], ids=["evaluate", "evaluate-betas", "evaluate_grid", "eval_general-second"])
def test_mu_zero_is_refused_with_one_message(call):
    # detect_termination is the one place that refuses mu = 0
    # (test_detect_termination_requires_mu); the evaluators reach it right
    # after validate, ahead of the betas check
    with pytest.raises(PoleError, match=MU_ZERO):
        call(GchParams(0.0, 1.0, 0.5, 1.0, 1.0))


def test_eval_general_requires_mu():
    with pytest.raises(PoleError, match=MU_ZERO):
        eval_general(GchParams(0.0, 1.0, 1.0, 1.0, 1.0), 0.0, 0.5)


def test_eval_general_runs_at_the_validated_root(monkeypatch):
    # a lam within 1e-12 of 1 - nu selects the second kind, and the series
    # runs at the root validate returns, not at the lam given
    p = GchParams(-1.0, 0.8, 0.5, 0.7, 1.2)
    seen = []
    general = series._general

    def recording(p, lam, xs):
        seen.append(lam)
        return general(p, lam, xs)

    monkeypatch.setattr(series, "_general", recording)
    assert eval_general(p, 0.5 + 4e-13, 0.6) == eval_general(p, 0.5, 0.6)
    assert seen == [0.5, 0.5]


def test_eval_general_rejects_non_root_lam():
    # nu = 0.5: the roots are 0 and 0.5
    with pytest.raises(ValueError, match="indicial root"):
        eval_general(GchParams(-1.0, 0.8, 0.5, 0.7, 1.2), 0.25, 0.6)


def test_order_decomposition_scales_with_eps():
    p = GchParams(-1.5, 0.8, 1.2, 0.9, 0.4)
    doubled = GchParams(p.mu, 2.0 * p.eps, p.nu, p.Omega, p.omega)
    o1 = orders(p, FIRST, 0.7, normalised=False)
    o2 = orders(doubled, FIRST, 0.7, normalised=False)
    for n in range(min(len(o1), len(o2), 8)):
        assert o2[n] == pytest.approx(2.0 ** n * o1[n], rel=1e-12, abs=1e-250)


def test_x_zero_is_c0():
    p = GchParams(1.7, 0.9, 0.6, -0.4, 0.8)
    assert eval_general(p, 0.0, 0.0).value == 1.0


# ------------------------------------------------------------ QW / RW, infinite

def test_qw_prefactor_at_origin():
    # gamma = 1, Omega/2mu = 1/2: value Gamma(1/2)/Gamma(1) = sqrt(pi)
    p = GchParams(2.0, 0.3, 1.0, 2.0, 1.0)
    assert evaluate(p, FIRST, 0.0).value == pytest.approx(math.sqrt(math.pi), rel=1e-15)


def test_qw_eps_zero_is_kummer():
    # Gamma(1/2)/Gamma(1) M(1/2; 1; -1) = sqrt(pi) M(1/2; 1; -1)
    p = GchParams(2.0, 0.0, 1.0, 2.0, 1.0)
    with mp.workdps(40):
        want = float(kummer(p, FIRST, 1.0))
    assert evaluate(p, FIRST, 1.0).value == pytest.approx(want, rel=1e-13)


def test_qw_matches_oracle_with_prefactor():
    p = GchParams(-1.0, 0.5, 0.5, 1.0, 2.0)
    c0 = math.gamma(p.gamma - p.Omega / (2 * p.mu)) / math.gamma(p.gamma)
    closed = evaluate(p, FIRST, 0.3).value
    oracle = c0 * sum_series(p, 0.0, 0.3).value
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
    with mp.workdps(40):
        want = float(kummer(p, SECOND, 0.5))
    assert evaluate(p, SECOND, 0.5).value == pytest.approx(want, rel=1e-12)


def test_rw_matches_oracle():
    p = GchParams(-1.0, 0.4, 0.5, 0.7, 1.2)
    gamma = p.gamma
    lam = 1.0 - p.nu
    c0 = (-0.5 * p.mu) ** (1 - gamma) * math.gamma(1 - p.Omega / (2 * p.mu)) / math.gamma(2 - gamma)
    closed = evaluate(p, SECOND, 0.6).value
    oracle = c0 * sum_series(p, lam, 0.6).value
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
    # second kind, lam = -0.5: Omega = 11 gives n* = 7, beta_0 = 3
    p = GchParams(-2.0, 0, 1.5, 11.0, 0)
    assert betas_from_omega(p, -0.5, 4) == (3, None, 2, None)
    assert betas_from_omega(p, -0.5, 7) == (3, None, 2, None, 1, None, 0)
    assert betas_from_omega(p, -0.5, 9) == (3, None, 2, None, 1, None, 0, None, None)
    with pytest.raises(NoTermination):
        betas_from_omega(GchParams(1.0, 0, 0.5, -3.7, 0), 0.0, 2)
    with pytest.raises(ValueError, match="^count must be positive$"):
        betas_from_omega(GchParams(1.0, 0, 0.5, -4.0, 0), 0.0, 0)


def test_qw_poly_beta0_zero_order0_constant():
    # beta_0 = 0 kills every z power at order 0; c0 = 1
    p = GchParams(-2.0, 0.5, 1.0, 0.0, 1.0)
    seq = betas_from_omega(p, 0.0, 1)
    res = evaluate(p, FIRST, 0.8, seq)
    got = orders(p, FIRST, 0.8)
    assert got[0] == 1.0
    assert len(got) == res.orders_used


def test_qw_poly_degree_two_polynomial():
    # eps = 0, beta_0 = 2, mu = -2, nu = 1: bracket is 1 - 2z + z^2/2, c0 = Gamma(3)/Gamma(1)
    p = GchParams(-2.0, 0.0, 1.0, -(-2.0) * 4.0, 1.0)
    seq = betas_from_omega(p, 0.0, 1)
    assert seq == (2,)
    for x in (0.2, 0.5, 1.1):
        z = x * x
        want = 2.0 * (1.0 - 2.0 * z + 0.5 * z * z)
        res = evaluate(p, FIRST, x, seq)
        assert res.value == pytest.approx(want, rel=1e-13)
        assert res.converged  # exact finite evaluation at eps = 0


def test_qw_poly_matches_oracle_generic():
    # generic polynomial-class parameters, eps != 0
    mu = -1.5
    p = GchParams(mu, 0.9, 0.75, -(mu * (2 * 2 + 0.0)), 0.6)
    seq = betas_from_omega(p, 0.0, NestedTruncation().max_order_N + 1)
    c0 = math.gamma(p.gamma + 2) / math.gamma(p.gamma)
    closed = evaluate(p, FIRST, 0.7, seq).value
    oracle = c0 * sum_series(p, 0.0, 0.7).value
    assert closed == pytest.approx(oracle, rel=1e-9)


def test_qw_poly_equals_general_on_derived_betas():
    mu = 0.5
    p = GchParams(mu, -0.8, 1.5, -(mu * 2.0), 0.4)  # beta_0 = 1
    seq = betas_from_omega(p, 0.0, NestedTruncation().max_order_N + 1)
    c0 = math.gamma(p.gamma + 1) / math.gamma(p.gamma)
    a = evaluate(p, FIRST, 0.9, seq).value
    b = c0 * eval_general(p, 0.0, 0.9).value
    assert a == pytest.approx(b, rel=1e-13)


@pytest.mark.parametrize("kind,p0,xs", [
    (SECOND, GchParams(-1.7, 0.8, 0.6, 0.0, 0.4), (0.7, 1.6, 2.5)),
    (FIRST, GchParams(-1.7, 0.8, 0.6, 0.0, 0.4), (0.7, 1.6, 2.5)),
    (FIRST, GchParams(0.5, -0.8, 1.5, 0.0, 0.4), (0.9, 2.2, 3.0)),   # z < -1 from x = 2
    (SECOND, GchParams(0.5, -0.8, -1.0, 0.0, 0.4), (0.9, 2.2, 3.0)),  # integer 1 - gamma
], ids=["second-mu-", "first-mu-", "first-mu+", "second-mu+"])
@pytest.mark.parametrize("beta", [0, 1, 2, 3])
def test_terminating_omega_is_one_function(kind, p0, xs, beta):
    # the parameters decide where chains end: passing the derived betas
    # changes nothing, on the direct and on the transformed path; p0's
    # Omega is a placeholder
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


def test_termination_tuple_is_checked_by_the_engines_rule():
    # Omega 1e-10 off the eigenvalue -1 at mu = 0.5: n* = 3 - 2e-10 is no
    # integer, so no chain ends and the tuple of Omega = -1 is refused
    betas = (1, None, 0, None)
    with pytest.raises(BetaMismatch, match=r"^beta_0=1 implies Omega=-1\.0, got Omega=-0\.9999999999$"):
        evaluate(GchParams(0.5, 0.3, 1.5, -1.0 + 1e-10, 0.0), FIRST, 0.4, betas)
    p = GchParams(0.5, 0.3, 1.5, -1.0, 0.0)
    assert evaluate(p, FIRST, 0.4, betas) == evaluate(p, FIRST, 0.4)


@pytest.mark.parametrize("k,beta", [(0, 3), (2, 2), (6, 0)])
def test_termination_tuple_tolerance_edge(k, beta):
    # entry k alone is present; it implies Omega = 12 at mu = -2, lam = 0,
    # so n* = 7, and passes exactly where the engine ends chain k: while
    # n* = 1 - Omega/mu lies within INT_TOL of 7, i.e. Omega within
    # INT_TOL |mu| of 12
    betas = (None,) * k + (beta,)
    tol = INT_TOL * 2.0
    for off in (0.99 * tol, -0.99 * tol):
        p = GchParams(-2.0, 0.5, 1.0, 12.0 + off, 1.0)
        assert detect_termination(p, 0.0) == 7
        assert evaluate(p, FIRST, 0.5, betas) == evaluate(p, FIRST, 0.5)
    for off in (1.01 * tol, -1.01 * tol):
        with pytest.raises(BetaMismatch, match=rf"^beta_{k}={beta} implies Omega=12\.0, got Omega="):
            evaluate(GchParams(-2.0, 0.5, 1.0, 12.0 + off, 1.0), FIRST, 0.5, betas)


def test_termination_tuple_wrong_entry_deep_and_first_named():
    p = GchParams(-2.0, 0.5, 1.0, 12.0, 1.0)  # n* = 7, beta_0 = 3
    seq = list(betas_from_omega(p, 0.0, 49))
    seq[40] = 7
    with pytest.raises(BetaMismatch, match=r"^beta_40=7 implies Omega=108\.0, got Omega=12\.0$"):
        evaluate(p, FIRST, 0.5, tuple(seq))
    seq[10] = 1
    with pytest.raises(BetaMismatch, match=r"^beta_10=1 implies Omega=24\.0, got Omega=12\.0$"):
        evaluate(p, FIRST, 0.5, tuple(seq))


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
        assert evaluate(p, SECOND, x, seq).value == pytest.approx(want, rel=1e-13)


def test_rw_poly_matches_oracle():
    mu = -1.0
    nu = 0.5
    lam = 1.0 - nu
    gamma = 0.5 * (1 + nu)
    p = GchParams(mu, 0.4, nu, -2.0 * mu * (1.0 + 1 - gamma), 1.2)  # psi_0 = 1
    seq = betas_from_omega(p, lam, NestedTruncation().max_order_N + 1)
    c0 = (-0.5 * mu) ** (1 - gamma) * math.gamma(1 + 2 - gamma) / math.gamma(2 - gamma)
    closed = evaluate(p, SECOND, 0.5, seq).value
    oracle = c0 * sum_series(p, lam, 0.5).value
    assert closed == pytest.approx(oracle, rel=1e-9)


# ------------------------------------------------------------ independence

def test_wronskian_of_kinds():
    # nu = 0.5 admits both kinds; QW RW' - QW' RW must stay away from zero,
    # and after removing the Abel factor x^-nu e^(-mu x^2/2 - eps x) it is
    # constant across x.
    p = GchParams(-1.0, 0.4, 0.5, 0.7, 1.2)
    h = 1e-5
    qw = lambda x: evaluate(p, FIRST, x).value
    rw = lambda x: evaluate(p, SECOND, x).value
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
        for kind in (FIRST, SECOND) if mu < 0 else (FIRST,):  # RW needs z > 0
            with mp.workdps(40):
                want = float(kummer(p, kind, x))
            assert evaluate(p, kind, x).value == pytest.approx(want, rel=1e-12), kind


@pytest.mark.parametrize("mu", [2.0, 0.7, -0.7, -2.0])
@pytest.mark.parametrize("az", [4.0, 16.0, 36.0])
def test_kummer_reduction_large_z_against_mpmath(mu, az):
    # eps = 0 at |z| = 4, 16, 36: both kinds against the normalised Kummer
    # reference at 40 digits, the second kind only where z > 0
    p = GchParams(mu, 0.0, 1.5, 3.0, 0.25)
    x = math.sqrt(2.0 * az / abs(mu))
    for kind in (FIRST, SECOND) if mu < 0 else (FIRST,):
        with mp.workdps(40):
            want = float(kummer(p, kind, x))
        res = evaluate(p, kind, x)
        assert res.converged, kind
        assert abs(res.value - want) <= 1e-13 * abs(want), kind


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


def test_inner_cap_shortfall_drops_converged_flag(caps):
    # large Omega/2mu pushes the chain peak beyond a small max_inner; the
    # value is then truncated and must not claim convergence
    p = GchParams(0.4, -1.7, 0.25, 59.0, 0.5)
    caps(max_order_N=40, max_inner=24)
    r_small = eval_general(p, 0.0, 1.9)
    caps(max_order_N=60, max_inner=400)
    r_big = eval_general(p, 0.0, 1.9)
    assert not r_small.converged
    assert r_big.converged
    oracle = sum_series(p, 0.0, 1.9)
    assert r_big.value == pytest.approx(oracle.value, rel=1e-9)


#: eval-grid seed 36, where 48 orders past order 0 stop short of the tolerance
AT_ORDER_CAP = (GchParams(-2.1961829071987147, 2.1107639383592813, 0.8110273914219748, 13.177097443192288,
                          1.3137562216709568), FIRST, 3.7732601192715816)
#: z = 450 at eps = 0: order 0 alone, whose chain needs more than 240 steps
AT_INNER_CAP = (GchParams(-1.0, 0.0, 1.5, 1.0, 0.0), 0.0, 30.0)


def test_order_cap_is_hit_at_its_fixed_value():
    res = evaluate(*AT_ORDER_CAP)
    assert (res.orders_used, res.terms_used, res.converged) == (49, 3283, False)


def test_inner_cap_is_hit_at_its_fixed_value():
    res = eval_general(*AT_INNER_CAP)
    assert (res.terms_used, res.orders_used, res.converged) == (241, 1, False)


def test_record_holds_the_caps_the_engine_applies(caps):
    t = NestedTruncation()
    assert (t.max_order_N, t.max_inner, t.rel_tol) == (48, 240, 1e-12)
    assert len(series._INDICES) == t.max_inner
    assert evaluate(*AT_ORDER_CAP).orders_used == t.max_order_N + 1
    assert eval_general(*AT_INNER_CAP).terms_used == t.max_inner + 1
    # each cap set through the fixture is the one the engine applies
    t = caps(max_order_N=80, max_inner=300)
    assert (t.max_order_N, t.max_inner, len(series._INDICES)) == (80, 300, 300)
    res = evaluate(*AT_ORDER_CAP)
    assert (res.orders_used, res.converged) == (51, True)
    assert eval_general(*AT_INNER_CAP).terms_used == 301
    t = caps(max_order_N=48, max_inner=240, rel_tol=1e-6)
    assert t.rel_tol == 1e-6
    res = evaluate(*AT_ORDER_CAP)
    assert (res.orders_used, res.converged) == (43, True)


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
    chains = ((a_of(0), 1.0 + h, gamma + h), (a_of(1), 1.5 + h, gamma + 0.5 + h))
    cap = min(t.max_inner, _required_cap(z, a_mag, chains, None))

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

    kind = FIRST if lam == 0.0 else SECOND
    if seq is None:
        res = eval_general(p, lam, x)
        got = orders(p, kind, x, normalised=False)
        pref, order_cap = x ** lam, t.max_order_N
    elif lam == 0.0:
        res = evaluate(p, FIRST, x, seq)
        got = orders(p, FIRST, x)
        pref = math.gamma(p.gamma + seq[0]) / math.gamma(p.gamma)
        order_cap = len(seq) - 1
    else:
        res = evaluate(p, SECOND, x, seq)
        got = orders(p, SECOND, x)
        gamma = p.gamma
        pref = (-0.5 * p.mu * x * x) ** (1 - gamma) * math.gamma(seq[0] + 2 - gamma) / math.gamma(2 - gamma)
        order_cap = len(seq) - 1
    fold = _backward_fold_orders(p, lam, x, t, a_of, order_cap)
    assert res.orders_used == len(got) == len(fold) >= 3
    for n, (order, want) in enumerate(zip(got, fold)):
        assert order == pytest.approx(pref * want, rel=1e-12, abs=0.0), n


def test_steps_linear_in_orders():
    # a quadratic refold would need sum_n (n+1)(cap+1) steps, far above this
    t = NestedTruncation()
    for p, x in ((GchParams(-1.0, 3.0, 0.5, 0.7, 1.2), 2.0), (GchParams(2.0, 1.0, 1.5, 3.0, 0.25), 6.0)):
        res = eval_general(p, 0.0, x)
        assert res.orders_used >= 10
        assert res.terms_used <= res.orders_used * (t.max_inner + 1)


_PINNED_STEPS = [
    (GchParams(2.0, 1.0, 1.5, 3.0, 0.25), FIRST, 1.0, 330, 15, 1.077701392708421),
    (GchParams(-1.0, 3.0, 0.5, 0.7, 1.2), FIRST, 2.0, 1066, 41, 0.02706950954442871),
    (GchParams(2.0, 1.0, 1.5, 3.0, 0.25), FIRST, 6.0, 3432, 33, 0.10605954083167235),  # transformed, z = -36
    (GchParams(2.0, 1.0, 1.5, 3.0, 0.25), FIRST, 0.5, 195, 13, 1.5839348800841226),   # depth 14, z = -0.25
    (GchParams(-1.0, 0.4, 0.5, 0.7, 1.2), SECOND, 1.0, 238, 14, 0.4694615098265719),
    (GchParams(0.5, 0.3, 1.5, -1.0, 0.0), FIRST, 1.0, 150, 10, 1.4866255088075082),  # B-terminated, n* = 3
]


@pytest.mark.parametrize("p,kind,x,terms,orders_used,value", _PINNED_STEPS,
                         ids=[f"p{i}-{row[2]}-{row[3]}-{row[4]}" for i, row in enumerate(_PINNED_STEPS)])
def test_step_counts_pinned(p, kind, x, terms, orders_used, value):
    # terms_used is cap + 1 per order; pinned so that step and order counts
    # stay comparable across changes to the engine, and the value bit for
    # bit, so that a change meant to leave the arithmetic alone shows any
    # bit it moves
    res = evaluate(p, kind, x)
    assert (res.terms_used, res.orders_used) == (terms, orders_used)
    assert res.value == value
    assert res.converged


@pytest.mark.parametrize("x", [0.4, 2.0], ids=["near-side", "far-side"])
def test_order_count_and_last_term_are_the_decompositions(x):
    # the README point on both sides of the transform test (mu x^2/2 = 1 at
    # x = 1): the result counts the orders it summed, and its last term is
    # the last of them, transform factor included on the far side
    p = GchParams(2.0, 1.0, 1.5, 3.0, 0.25)
    res = evaluate(p, FIRST, x)
    got = orders(p, FIRST, x)
    assert res.orders_used == len(got) > 1
    assert res.last_term_mag == abs(got[-1])
    assert res.value == pytest.approx(math.fsum(got), rel=1e-15)


@pytest.mark.parametrize("p,kind,x,message", [
    (GchParams(0.01, 0.0, 1.5, -10.0, 0.0), FIRST, 1.0, "first-kind prefactor: Gamma(501.25)/Gamma(1.25)"),
    (GchParams(-0.01, 0.0, 0.5, 10.0, 0.0), SECOND, 1.0, "second-kind prefactor: Gamma(501.0)/Gamma(1.25)"),
    (GchParams(0.01, -100.0, 1.5, 1.0, 0.3), FIRST, 15.0, "transform factor e^(1498.875)"),
    # Gamma(-200.65) underflows to 0.0, and the ratio is -6.4e375
    (GchParams(-1.0, 0.5, 404.3, 0.4, 0.3), SECOND, 0.5, "second-kind prefactor: Gamma(1.2)/Gamma(-200.65)"),
    # z^(1 - gamma) = 2e75 times Gamma(151)/Gamma(0.75) = 4.7e262
    (GchParams(-1.0, 0.5, 1.5, 300.0, 0.3), SECOND, 1e-150,
     "second-kind prefactor z^(-0.25) * 4.6624009163186755e+262"),
    # the order vectors at z = 1600 hold infinities of both signs
    (GchParams(-2.0, 1.0, 1.5, -3.0, 0.25), FIRST, 40.0, "nested sum"),
    # n* = 1 - lam - Omega/mu is not finite
    (GchParams(1e-300, 0.5, 1.5, 1e10, 0.3), FIRST, 0.5, "Omega/mu = 10000000000.0/1e-300"),
], ids=["gamma-first", "gamma-second", "transform-factor", "gamma-underflow-second", "prefactor-power",
        "order-vectors", "omega-over-mu"])
def test_float_overflow_is_a_gch_error(p, kind, x, message):
    # the Gamma normalisation, the transform factor and the order sums
    # overflow a float
    with pytest.raises(FloatOverflow, match=f"^{re.escape(message)} overflows") as info:
        evaluate(p, kind, x)
    assert isinstance(info.value, GchError) and isinstance(info.value, OverflowError)


@pytest.mark.parametrize("p,x", [
    # every transformed order is infinite, and e^-1800 underflows to 0.0
    (GchParams(1.0, 0.0, 1.5, 1.0, 0.0), 60.0),
    # the transformed orders times eps_tilde^n = 10000^n leave the float range
    (GchParams(1.0, 400.0, 1.5, 1.0, 0.0), 50.0),
], ids=["orders", "eps-tilde-powers"])
def test_far_side_order_overflow_is_a_float_overflow(p, x):
    # not the NaN of an infinite order times a transform factor of 0.0
    message = f"^nested sum overflows at x={re.escape(repr(x))}$"
    for call in (lambda: evaluate(p, FIRST, x), lambda: eval_general(p, 0.0, x),
                 lambda: evaluate_grid(p, FIRST, [1.0, x])):
        with pytest.raises(FloatOverflow, match=message):
            call()


@pytest.mark.parametrize("num_arg,den_arg", [
    (300.7, 300.5),                  # both Gammas overflow
    (171.7, 171.2),                  # the numerator overflows
    (-199.45000000000002, -199.65),  # both underflow to 0.0
    (-199.45, -200.65),              # Gammas of opposite signs
    (-185.5, -185.25),
    (-177.45, -177.75),              # both subnormal: 1e-323/5e-324 = 2.0, not 3.39
])
def test_gamma_ratio_past_the_gamma_range(num_arg, den_arg):
    # the ratio is finite where Gamma itself leaves the float range
    with mp.workdps(40):
        ref = float(mp.gamma(num_arg) / mp.gamma(den_arg))
    assert _gamma_ratio(num_arg, den_arg, "ratio") == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("num_arg,den_arg", [(1.2, 0.75), (170.5, 2.5), (-3.5, 1.25), (0.5, -170.25)])
def test_gamma_ratio_in_the_gamma_range_keeps_its_bits(num_arg, den_arg):
    assert _gamma_ratio(num_arg, den_arg, "ratio") == math.gamma(num_arg) / math.gamma(den_arg)


@pytest.mark.parametrize("nu", [600.0, 400.0, -400.3, -356.5])
def test_first_kind_prefactor_past_the_gamma_range(nu):
    # the prefactor Gamma(gamma - Omega/(2 mu))/Gamma(gamma) times the
    # unnormalised series; Gamma(gamma) overflows, underflows to 0.0, or
    # is subnormal
    p = GchParams(-1.0, 0.5, nu, 0.4, 0.3)
    res, general = evaluate(p, FIRST, 0.5), eval_general(p, 0.0, 0.5)
    assert res.converged and general.converged
    with mp.workdps(40):
        ratio = float(mp.gamma(p.gamma - p.Omega / (2.0 * p.mu)) / mp.gamma(p.gamma))
    assert res.value == pytest.approx(ratio * general.value, rel=1e-12)


def test_power_past_the_float_range_is_a_float_overflow():
    # x^lam = 14^281.5 overflows, in the closed form and in the oracle alike
    p = GchParams(-1.0, 0.5, -280.5, 0.4, 0.3)
    message = r"^\(14\.0\)\*\*\(281\.5\) overflows$"
    with pytest.raises(FloatOverflow, match=message):
        eval_general(p, 281.5, 14.0)
    with pytest.raises(FloatOverflow, match=message):
        sum_series(p, 281.5, 14.0)


def test_half_omega_over_mu_past_twice_mu():
    # 2 mu overflows at mu = 1e308, but Omega/mu = 1 does not: the
    # prefactor is Gamma(gamma - 1/2)/Gamma(gamma), as at mu = Omega = 1
    res = evaluate(GchParams(1e308, 0.0, 1.5, 1e308, 0.25), FIRST, 0.0)
    assert res.value == math.gamma(0.75) / math.gamma(1.25) == 1.3519564801345694
    assert res.converged


def _scaled(v, e):
    """v * 2^e, or None where that is inexact or subnormal."""
    try:
        w = math.ldexp(v, e)
    except OverflowError:
        return None
    if w != 0.0 and (abs(w) < sys.float_info.min or math.ldexp(w, -e) != v):
        return None
    return w


def _outcome_of(p, kind, x):
    try:
        return repr(evaluate(p, kind, x))
    except GchError as exc:
        return type(exc).__name__


@pytest.mark.parametrize("terminated", [False, True], ids=["generic", "terminated"])
@pytest.mark.parametrize("kind,sign,far", [
    (FIRST, -1.0, False), (FIRST, 1.0, False), (FIRST, 1.0, True), (SECOND, -1.0, False),
], ids=["first-mu-neg", "first-mu-pos-near", "first-mu-pos-far", "second-mu-neg"])
def test_exact_scaling_keeps_every_bit(kind, sign, far, terminated):
    """x = s t maps (mu, eps, nu, Omega, omega) onto (mu s^2, eps s, nu,
    Omega s^2, omega), and with s = 2^k the normalised closed form keeps
    every bit while every mapped input stays exact and normal.  k runs
    over -504..504 in steps of 24; the edges, where 0.5 mu is subnormal
    (k near -511) or the transformed Omega - mu(1+nu) overflows (k near
    511), still change values or errors, and are left to ROADMAP item 23."""
    rng = random.Random(f"{kind.value}{sign}{far}{terminated}")
    for _ in range(19):
        mu = sign * rng.uniform(0.2, 2.5)
        nu = rng.choice([0.5, 1.5, 2.5]) + rng.uniform(-0.4, 0.4)
        eps, omega = rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.5)
        Omega = -mu * (2 * rng.randrange(4) + kind.lambda_of(nu)) if terminated else rng.uniform(-4.0, 4.0)
        # z = -mu x^2/2 is -1 at x = x_t: past it a mu > 0 point is transformed
        x_t = math.sqrt(2.0 / abs(mu))
        x = x_t * (rng.uniform(1.05, 2.0) if far else rng.uniform(0.05, 0.95))
        p = GchParams(mu, eps, nu, Omega, omega)
        want = _outcome_of(p, kind, x)
        for k in range(-504, 505, 24):
            mapped = _scaled(mu, 2 * k), _scaled(eps, k), _scaled(Omega, 2 * k), _scaled(x, -k)
            if None not in mapped:
                q = GchParams(mapped[0], mapped[1], nu, mapped[2], omega)
                assert _outcome_of(q, kind, mapped[3]) == want, (p, x, k)


def test_weight_pole_inside_int_tol_raises():
    # nu = -2 + 1.5e-12 would put weight 0's offset nu/2 within INT_TOL of
    # -1; validate refuses it at every x, before any chain is built
    p = GchParams(-1.0, 1.0, -2 + 1.5e-12, 0.3, 0.2)
    for x in (0.0, 1e-5, 0.5, 3.0):
        with pytest.raises(KindRestrictionError, match=r"^first kind requires nu not in \{0, -1, -2, \.\.\.\}"):
            evaluate(p, FIRST, x)
    with pytest.raises(KindRestrictionError):
        evaluate_grid(p, FIRST, [1e-5, 0.5])
    with pytest.raises(KindRestrictionError):
        eval_general(p, 0.0, 0.5)


@pytest.mark.parametrize("nu,kind", [(4 + 1.5e-12, SECOND), (2 + 1.5e-12, SECOND), (-6 + 1.5e-12, FIRST)])
def test_chain_offset_inside_int_tol_is_refused(nu, kind):
    # nu within 2 * INT_TOL of a forbidden integer would put an offset of
    # chain 1 or weight 0 within INT_TOL of a nonpositive integer; validate
    # refuses nu at every x
    p = GchParams(-1.3, 1.0, nu, 0.4, 0.3)
    for x in (0.0, 0.5, 4.0):
        with pytest.raises(KindRestrictionError, match=f"^{kind.value} kind requires"):
            evaluate(p, kind, x)


def test_weight_offset_just_past_the_band_keeps_its_digits():
    # nu = 2.2e-12, just past validate's band: weight 0's second offset is
    # nu/2 = 1.1e-12, formed from nu; rounding gamma = (1 + nu)/2 first cost
    # 5e-5 of the value.  The reference is an 80-digit mpmath sum of the
    # three-term recurrence at these float parameters
    p = GchParams(-0.45879, -0.25883, 2.2019e-12, 0.692, 0.86167)
    res = eval_general(p, 0.0, 1.0333)
    assert res.converged
    assert res.value == pytest.approx(130141074803.36720, rel=1e-14)


@pytest.mark.parametrize("nu", [-2.0 ** 53, -1e16, -1e300])
def test_second_kind_refuses_nu_past_the_float_integers(nu):
    # below -2**53 every float is an integer, and (1 + nu)/2 + (1 - nu)/2,
    # the series' c_0 = 1, rounds to 0.5 or 0.0: the chain depth divided by
    # it.  validate refuses nu there, at every entry point
    p = GchParams(-1.0, 0.5, nu, 0.4, 0.3)
    message = f"second kind requires nu > -2**53; got nu={nu}"
    for call in (lambda: evaluate(p, SECOND, 0.5), lambda: evaluate_grid(p, SECOND, [0.5, 1.0]),
                 lambda: eval_general(p, 1.0 - nu, 0.5)):
        with pytest.raises(KindRestrictionError, match=f"^{re.escape(message)}$"):
            call()
    (record,) = cross_validate(GridSpec((-1.0,), (0.5,), (nu,), (0.4,), (0.3,), (0.5,), (SECOND,))).records
    assert record.error == f"KindRestrictionError: {message}"


def test_sweep_near_the_forbidden_integers(caps):
    # each kind over each of its forbidden integers k up to |k| = 300:
    # within 2e-12 of k validate refuses nu at every x; from 2.05e-12 to
    # 1e-10 away the closed form raises no PoleError and no bare float
    # error (a GchError such as FloatOverflow may remain)
    rng = random.Random(18)
    caps(max_inner=400)
    for kind, ks in ((FIRST, range(0, -301, -1)), (SECOND, range(2, 301))):
        for k in ks:
            # the second kind's z^(1 - gamma) is real only for mu < 0
            mu = rng.uniform(0.2, 2.5) * (-1.0 if kind is SECOND else rng.choice([-1.0, 1.0]))
            eps, Omega, omega = rng.uniform(-2.0, 2.0), rng.uniform(-4.0, 4.0), rng.uniform(-1.0, 1.5)
            near = k + rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 2e-12)
            assert abs(near - k) <= 2e-12
            for x in (0.0, rng.uniform(0.0, 14.0)):
                with pytest.raises(KindRestrictionError):
                    evaluate(GchParams(mu, eps, near, Omega, omega), kind, x)
            band = k + rng.choice([-1.0, 1.0]) * rng.uniform(2.05e-12, 1e-10)
            assert abs(band - k) >= 2.05e-12
            try:
                evaluate(GchParams(mu, eps, band, Omega, omega), kind, rng.uniform(0.0, 14.0))
            except GchError as exc:
                assert not isinstance(exc, PoleError), exc


# ---------------------------------------------- mu > 0 through the transformation

@pytest.mark.parametrize("kind", [FIRST, SECOND])
@pytest.mark.parametrize("mu", [2.0, -2.0])
@pytest.mark.parametrize("x", [1.0, 4.0, 5.0, 6.0])
def test_raw_sum_is_kummer_at_eps_zero(kind, mu, x):
    # the two references against each other: at eps = 0 the raw recurrence
    # sums the unnormalised Kummer solution of the kind
    p = GchParams(mu, 0.0, 1.5, 3.0, 0.25)
    with mp.workdps(60):
        raw = raw_sum(p, kind.lambda_of(p.nu), x)
        want = kummer(p, kind, x, normalised=False)
        assert raw is not None
        assert abs(raw - want) <= mp.mpf(10) ** -45 * abs(want)


@pytest.mark.parametrize("eps", [0.0, 1.0])
@pytest.mark.parametrize("x", [4.0, 5.0, 6.0])
def test_mu_positive_large_z_against_mpmath(eps, x):
    # z = -16, -25, -36: the untransformed chains cancel to ~1e-10 at x = 4
    # and are not resolved at all at x = 6
    p = GchParams(2.0, eps, 1.5, 3.0, 0.25)
    ref = accepted(p, 0.0, x)
    assert ref is not None
    res = eval_general(p, 0.0, x)
    assert res.converged
    assert abs(res.value - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("mu", [0.01, -0.01])
@pytest.mark.parametrize("eps", [4.0, -4.0])
@pytest.mark.parametrize("x", [1.0, 2.0])
def test_shallow_chains_many_orders_against_mpmath(mu, eps, x):
    # |z| <= 0.02 needs chains only about 10 deep, while |eps x/2| up to 4
    # takes 26 to 39 orders, whose chains must not need more
    p = GchParams(mu, eps, 1.5, 0.3, 0.25)
    ref = accepted(p, 0.0, x)
    assert ref is not None
    res = eval_general(p, 0.0, x)
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
            y = sum_series(p, lam, x).value
            u = sum_series(q, lam, x).value
            assert y == pytest.approx(math.exp(-0.5 * p.mu * x * x - p.eps * x) * u, rel=1e-12)


def test_transformed_poly_class_matches_oracle():
    # a terminating Omega at mu > 0, z < -1 takes the transformed path
    p = _POLY_MU_PLUS
    seq = betas_from_omega(p, 0.0, 49)
    c0 = math.gamma(p.gamma + 1) / math.gamma(p.gamma)
    for x in (2.2, 3.0):
        res = evaluate(p, FIRST, x, seq)
        assert res.converged
        assert res.value == pytest.approx(c0 * sum_series(p, 0.0, x).value, rel=1e-11)
