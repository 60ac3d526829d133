import math
import random
import re

import mpmath as mp
import pytest

from gch import recurrence
from gch.errors import DomainError, FloatOverflow, NonFiniteError, PoleError
from gch.params import GchParams, SolutionKind, detect_termination, real_power
from gch.recurrence import _ABS_FLOOR, _REL_TOL, coefficients, sum_series
from gch.series import betas_from_omega, eval_general
from gch.verify import ode_residual

from reference import kummer


def test_x_zero_returns_c0():
    p = GchParams(-1.3, 0.7, 0.9, 0.4, 1.1)
    res = sum_series(p, 0.0, 0.0)
    assert res.value == 1.0
    assert res.converged


def test_eps_zero_series_is_even():
    p = GchParams(2.0, 0.0, 0.8, 1.3, 0.5)
    a = sum_series(p, 0.0, 0.7)
    b = sum_series(p, 0.0, -0.7)
    assert a.value == b.value


def test_golden_point():
    # frozen from a self-run at 500 terms and a 1e-14 stop; a 20-digit
    # high-precision recurrence agrees (0.86031086346992481151)
    p = GchParams(2.0, 1.0, 1.5, 3.0, 0.25)
    res = sum_series(p, 0.0, 0.4)
    assert res.value == pytest.approx(0.8603108634699248, rel=1e-13)
    assert res.converged
    # the same coefficients nearly annihilate the differential operator
    rep = ode_residual(coefficients(p, 0.0, 1.0, 60), 0.0, p, 0.4)
    assert rep.relative < 1e-14


def test_linearity_in_c0():
    rng = random.Random(3)
    for _ in range(20):
        p = GchParams(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.3, 2.5),
                      rng.uniform(-2, 2), rng.uniform(-1, 1))
        a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
        ca = coefficients(p, 0.0, a, 40)
        cb = coefficients(p, 0.0, b, 40)
        for u, v, w in zip(ca, cb, coefficients(p, 0.0, a + b, 40)):
            assert abs(w - (u + v)) <= 1e-13 * (abs(u) + abs(v))


def test_detect_termination_examples():
    assert detect_termination(GchParams(1.0, 0, 1, -3.0, 0), 0.0) == 4
    assert detect_termination(GchParams(1.0, 0, 1, 2.5, 0), 0.0) is None
    # eigenvalue construction Omega = -mu(2*beta0 + lam) at beta0 = 3
    mu = -2.0
    p = GchParams(mu, 0, 1, -(mu * (2 * 3 + 0.0)), 0)
    assert detect_termination(p, 0.0) == 7


def test_detect_termination_requires_mu():
    with pytest.raises(PoleError, match=r"^mu must be nonzero: Omega/mu enters n\* and the closed form$"):
        detect_termination(GchParams(0.0, 1, 1, 1, 1), 0.0)


def test_termination_kills_coefficient_b():
    rng = random.Random(17)
    for _ in range(40):
        mu = rng.choice([-1, 1]) * rng.uniform(0.1, 4.0)
        lam = rng.uniform(-1.5, 1.5)
        b0 = rng.randint(0, 10)
        p = GchParams(mu, 0.4, 0.9, -(mu * (2 * b0 + lam)), 0.2)
        nstar = 2 * b0 + 1
        assert detect_termination(p, lam) == nstar
        # at eps = 0, c_{n*+1} = B_{n*} c_{n*-1}
        cs = coefficients(GchParams(mu, 0.0, 0.9, p.Omega, 0.2), lam, 1.0, nstar + 2)
        assert abs(cs[nstar + 1]) <= 1e-15 * abs(mu) * abs(cs[nstar - 1])


def test_eps_zero_kummer_reduction():
    # with eps = 0 the series collapses to the confluent-hypergeometric sum
    # in z = -mu x^2/2
    rng = random.Random(23)
    for _ in range(25):
        mu = rng.choice([-1, 1]) * rng.uniform(0.2, 3.0)
        nu = rng.uniform(0.1, 2.5)
        Om = rng.uniform(-3, 3)
        p = GchParams(mu, 0.0, nu, Om, 0.77)
        x = rng.uniform(0.05, math.sqrt(10.0 / abs(mu)))
        z = -0.5 * mu * x * x
        assert abs(z) <= 5.0
        lhs = sum_series(p, 0.0, x).value
        with mp.workdps(40):
            rhs = float(kummer(p, SolutionKind.FIRST, x, normalised=False))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_domain_error_negative_base():
    p = GchParams(1.0, 1.0, 0.5, 1.0, 1.0)
    with pytest.raises(DomainError):
        sum_series(p, 0.5, -0.3)


def test_integer_lambda_negative_x_ok():
    p = GchParams(1.0, 1.0, -0.5, 1.0, 1.0)  # second kind lam = 1.5? use explicit integer lam
    res = sum_series(p, 2.0, -0.4)
    assert math.isfinite(res.value)


def test_real_power():
    assert real_power(-2.0, 3.0) == -8.0
    assert real_power(0.0, 2.5) == 0.0
    assert real_power(4.0, 0.5) == 2.0
    with pytest.raises(DomainError):
        real_power(0.0, -1.0)
    with pytest.raises(DomainError):
        real_power(-1.0, 0.5)


def test_cap_hit_reports_not_converged(monkeypatch):
    monkeypatch.setattr(recurrence, "_MAX_TERMS", 8)
    p = GchParams(-2.0, 1.5, 1.0, 0.7, 0.3)
    res = sum_series(p, 0.0, 3.0)
    assert not res.converged
    assert res.terms_used == 8
    assert math.isfinite(res.value)


def test_the_fixed_cap_stops_a_real_sum_at_400_terms():
    # z = -mu x^2 / 2 = 100: the 400th term is still near 7e25, so the
    # sum stops at the cap, flagged, with no monkeypatch
    p = GchParams(-8.0, 1.5, 1.0, 0.7, 0.3)
    res = sum_series(p, 0.0, 5.0)
    assert not res.converged
    assert res.terms_used == 400
    assert math.isfinite(res.value)


def test_converged_invariant():
    p = GchParams(1.0, -0.6, 1.2, -0.8, 0.5)
    res = sum_series(p, 0.0, 0.9)
    assert res.converged
    assert res.value == 0.0 or res.last_term_mag <= max(_REL_TOL * abs(res.value), _ABS_FLOOR)


@pytest.mark.parametrize("p,lam,x", [
    (GchParams(2.0, 1.0, 1.5, 3.0, 0.25), 0.0, 6.0),     # alternating: its terms sum to 1e-16 of their mass
    (GchParams(-2.0, 1.5, 1.0, 0.7, 0.3), 0.0, 3.0),
    (GchParams(-1.0, 0.4, 0.5, 0.7, 1.2), 0.5, 0.8),
])
def test_sum_series_is_the_fsum_of_its_terms(p, lam, x):
    res = sum_series(p, lam, x)
    xpow = real_power(x, lam)
    terms = []
    pw = 1.0
    for c in coefficients(p, lam, 1.0, res.terms_used):
        terms.append(c * pw * xpow)
        pw *= x
    assert res.value == math.fsum(terms)
    assert res.last_term_mag == abs(terms[-1])


def test_terms_of_both_signs_past_the_float_range_are_a_float_overflow():
    # the terms at x = 40 reach infinities of both signs, which fsum
    # cannot add
    with pytest.raises(FloatOverflow, match=r"^recurrence sum overflows at x=40\.0$") as info:
        sum_series(GchParams(2.0, 1.0, 1.5, -3.0, 0.25), 0.0, 40.0)
    assert isinstance(info.value.__cause__, ValueError)


def test_one_signed_overflow_is_returned_flagged():
    # every term past the float range is +inf: the running sum is inf, so
    # each term passes the stop test, and only the finite check flags it
    res = sum_series(GchParams(0.01, -100.0, 1.5, 1.0, 0.3), 0.0, 15.0)
    assert res.value == math.inf and res.terms_used < 400
    assert not res.converged


def test_coefficients_against_recurrence():
    mu, eps, nu, Omega, omega = 1.5, -0.4, 0.9, 0.6, 1.3
    cs = coefficients(GchParams(mu, eps, nu, Omega, omega), 0.0, 2.0, 8)

    # A_n and B_n at lam = 0, in the arithmetic order of coefficients
    def a(n):
        return -eps * (n + omega) / ((n + 1.0) * (n + nu))

    def b(n):
        return -(Omega + mu * (n - 1.0)) / ((n + 1.0) * (n + nu))

    assert cs[0] == 2.0
    assert cs[1] == a(0) * 2.0
    assert cs[1] == pytest.approx(2.0 * 0.4 * 1.3 / 0.9, rel=1e-15)
    for n in range(1, 7):
        assert cs[n + 1] == a(n) * cs[n] + b(n) * cs[n - 1]


def test_coefficients_and_sum_series_raise_the_same_pole():
    # lam = -3 makes n + 1 + lam vanish at n = 2
    p = GchParams(1.5, -0.4, 0.9, 0.6, 1.3)
    message = r"^A_2 denominator vanishes at lam=-3\.0, nu=0\.9$"
    with pytest.raises(PoleError, match=message):
        coefficients(p, -3.0, 1.0, 8)
    with pytest.raises(PoleError, match=message):
        sum_series(p, -3.0, 0.5)


def test_sum_series_runs_the_step_past_its_last_term(monkeypatch):
    # nu = -7 makes n + nu + lam vanish at n = 7: the first 8 coefficients
    # exist, but a sum capped at 8 terms still takes step 7 and raises
    monkeypatch.setattr(recurrence, "_MAX_TERMS", 8)
    p = GchParams(1.0, 1.0, -7.0, 1.0, 0.5)
    assert len(coefficients(p, 0.0, 1.0, 8)) == 8
    for x in (0.5, 3.0):
        with pytest.raises(PoleError, match=r"^A_7 denominator"):
            sum_series(p, 0.0, x)


def _no_terms(*args):
    raise AssertionError("a coefficient was generated")


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_sum_series_refuses_non_finite_x_before_any_term(monkeypatch, x):
    monkeypatch.setattr(recurrence, "_coefficients", _no_terms)
    with pytest.raises(NonFiniteError, match=f"^x={x!r} is not a finite real$"):
        sum_series(GchParams(-1.0, 0.5, 1.5, 1.0, 0.25), 0.0, x)


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_sum_series_refuses_non_finite_lam_before_any_term(monkeypatch, lam):
    monkeypatch.setattr(recurrence, "_coefficients", _no_terms)
    with pytest.raises(NonFiniteError, match=f"^lam={lam!r} is not a finite real$"):
        sum_series(GchParams(-1.0, 0.5, 1.5, 1.0, 0.25), lam, 0.5)


#: the parameter set of the non-finite input rows below
SECOND_P = GchParams(-1.0, 0.4, 0.5, 0.7, 1.2)


@pytest.mark.parametrize("call,message", [
    (lambda: coefficients(SECOND_P, 0.5, math.nan, 3), "c0=nan"),
    (lambda: coefficients(SECOND_P, 0.5, -math.inf, 3), "c0=-inf"),
    (lambda: coefficients(SECOND_P, math.nan, 1.0, 3), "lam=nan"),
    (lambda: ode_residual(coefficients(SECOND_P, 0.5, 1.0, 80), 0.5, SECOND_P, math.inf), "x=inf"),
    (lambda: ode_residual(coefficients(SECOND_P, 0.5, 1.0, 80), 0.5, SECOND_P, math.nan), "x=nan"),
    (lambda: ode_residual([1.0, 0.5], math.inf, SECOND_P, 0.5), "lam=inf"),
    (lambda: detect_termination(SECOND_P, math.nan), "lam=nan"),
    (lambda: detect_termination(SECOND_P, math.inf), "lam=inf"),
    (lambda: betas_from_omega(SECOND_P, -math.inf, 1), "lam=-inf"),
], ids=["coefficients-c0-nan", "coefficients-c0-inf", "coefficients-lam-nan", "ode_residual-x-inf",
        "ode_residual-x-nan", "ode_residual-lam-inf", "detect_termination-lam-nan",
        "detect_termination-lam-inf", "betas_from_omega-lam-inf"])
def test_non_finite_input_is_refused_by_name(call, message):
    with pytest.raises(NonFiniteError, match=f"^{re.escape(message)} is not a finite real$"):
        call()


@pytest.mark.parametrize("values,message", [
    ((math.nan, 0.0, 1.5, 1.0, 0.0), "parameter mu=nan is not a finite real"),
    ((math.inf, 0.0, 1.5, 1.0, 0.0), "parameter mu=inf is not a finite real"),
    ((-1.0, 0.5, 1.5, 1.0, math.inf), "parameter omega=inf is not a finite real"),
    ((-1.0, 0.5, 1.5, -math.inf, 0.25), "parameter Omega=-inf is not a finite real"),
], ids=["nan-mu", "inf-mu", "inf-omega", "inf-Omega"])
def test_non_finite_parameters_refused_as_validate_refuses_them(values, message):
    # refused when built, so validate, detect_termination and sum_series
    # never see a non-finite parameter
    with pytest.raises(NonFiniteError, match=f"^{re.escape(message)}$"):
        GchParams(*values)


@pytest.mark.parametrize("call", [
    lambda p: detect_termination(p, 0.0),
    lambda p: betas_from_omega(p, 0.0, 3),
    lambda p: eval_general(p, 0.0, 0.5),
], ids=["detect_termination", "betas_from_omega", "eval_general"])
def test_omega_over_mu_overflow_is_a_float_overflow(call):
    # n* = 1 - lam - Omega/mu is not finite; round() of it raised a bare
    # OverflowError
    with pytest.raises(FloatOverflow, match=r"^Omega/mu = 10000000000\.0/1e-300 overflows: n\* is not finite$"):
        call(GchParams(1e-300, 0.5, 1.5, 1e10, 0.3))


def test_oracle_never_divides_by_mu():
    # Omega/mu overflows at mu = 5e-324, but the recurrence only multiplies
    # by mu, and mu (n - 1 + lam) vanishes beside Omega = 1
    res = sum_series(GchParams(5e-324, 0.5, 1.5, 1.0, 0.3), 0.0, 0.5)
    assert res.converged
    assert res.value == sum_series(GchParams(0.0, 0.5, 1.5, 1.0, 0.3), 0.0, 0.5).value == 0.9074242576393338
