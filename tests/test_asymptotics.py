import math
import re

import mpmath as mp
import pytest

from gch.asymptotics import asym_small_eps, asym_small_mu, erfi
from gch.errors import FloatOverflow, NonFiniteError


def test_erfi_against_reference():
    for y in (0.0, 0.2, 1.0, 2.5, 4.0, 6.0):
        with mp.workdps(30):
            want = float(mp.erfi(y))
        assert erfi(y) == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_asym_small_mu():
    assert asym_small_mu(3.7, 0.0) == 0.0
    assert asym_small_mu(0.0, 2.2) == 0.0
    assert asym_small_mu(1.0, 1.0) == pytest.approx(math.exp(-1.0) - 1.0, rel=1e-15)


def test_asym_small_eps_at_origin():
    for mu in (-3.0, -0.1, 0.2, 5.0):
        assert asym_small_eps(mu, 0.0) == 1.0


def test_asym_small_eps_composed_value():
    # 1 + sqrt(pi) erf(1) e at mu=-2, x=1
    want = 1.0 + math.sqrt(math.pi) * 0.8427007929497149 * math.e
    assert asym_small_eps(-2.0, 1.0) == pytest.approx(want, rel=1e-12)
    assert asym_small_eps(-2.0, 1.0) == pytest.approx(5.06015693855741, rel=1e-13)


def _coefficient_series(t: float) -> float:
    # sum_n t^n Gamma(1/2)/Gamma(n+1/2) = sum_n t^n / (1/2)_n
    total, term, n = 0.0, 1.0, 0
    while n < 500:
        total += term
        n += 1
        term *= t / (n - 0.5)
        if abs(term) < 1e-18 * max(1.0, abs(total)):
            break
    return total


def test_series_identity_nonnegative_t():
    # closed form equals the even-coefficient series on t in [0, 9]
    t = 0.0
    while t <= 9.0:
        mu = -2.0 * t  # s = t at x = 1
        assert asym_small_eps(mu, 1.0) == pytest.approx(_coefficient_series(t), rel=1e-10)
        t += 0.125


def test_series_identity_negative_t():
    # the erfi continuation is the same analytic function for mu > 0
    for t in (-0.5, -2.0, -5.0, -9.0):
        mu = -2.0 * t
        assert asym_small_eps(mu, 1.0) == pytest.approx(_coefficient_series(t), rel=1e-9)


def test_even_series_matches_along_x():
    # mu = -2: agreement against the coefficient series for x up to 3
    for x in (0.5, 1.0, 2.0, 3.0):
        t = x * x
        assert asym_small_eps(-2.0, x) == pytest.approx(_coefficient_series(t), rel=1e-10)


@pytest.mark.parametrize("x", [1.0, 5.0, 6.0, 6.3, 10.0, 20.0, 26.0, 27.0, 30.0, 50.0])
def test_asym_small_eps_mu_positive_against_mpmath(x):
    # 1 - 2y D(y) at y = sqrt(mu/2) x: the erfi form cancels, then overflows;
    # the Dawson expansion (y >= 6) stops at its smallest term below y = 6.6
    # and on its 1e-17 test above
    mu = 2.0
    with mp.workdps(50):
        y = mp.sqrt(mp.mpf(mu) / 2) * x
        want = 1 - mp.sqrt(mp.pi) * y * mp.erfi(y) * mp.exp(-y * y)
        got = asym_small_eps(mu, x)
        assert math.isfinite(got)
        assert abs(got - want) <= mp.mpf("1e-12") * abs(want)


@pytest.mark.parametrize("y", [0.5, 1.0, 2.0, 2.9, 3.0, 3.1, 4.0, 6.0, 10.0, 15.0, 20.0])
def test_asym_small_eps_mu_negative_against_mpmath(y):
    # 1 + sqrt(pi) y erf(y) e^{y^2} at y = sqrt(-mu/2) x, on both sides of y = 3
    mu = -0.7
    x = y / math.sqrt(0.35)
    with mp.workdps(50):
        yy = mp.sqrt(-mp.mpf(mu) / 2) * x
        want = 1 + mp.sqrt(mp.pi) * yy * mp.erf(yy) * mp.exp(yy * yy)
        got = asym_small_eps(mu, x)
        assert math.isfinite(got)
        assert abs(got - want) <= mp.mpf("1e-13") * abs(want)


@pytest.mark.parametrize("form,name,coefficient,x", [
    (asym_small_mu, "small-mu", -1.0, 800.0),      # e^800 overflows
    (asym_small_mu, "small-mu", -1e-298, 1e300),   # x times a finite expm1 is inf
    (asym_small_eps, "small-eps", -1.0, 50.0),     # e^1250 overflows
    (asym_small_eps, "small-eps", -1.0, 1e200),    # s = inf, which returned inf
], ids=["small-mu-exp", "small-mu-product", "small-eps-exp", "small-eps-inf"])
def test_limiting_form_past_the_float_range_is_a_float_overflow(form, name, coefficient, x):
    with pytest.raises(FloatOverflow, match=f"^{name} limiting form overflows at x={re.escape(repr(x))}$"):
        form(coefficient, x)


@pytest.mark.parametrize("call,message", [
    (lambda: asym_small_mu(math.nan, 1.0), "epsilon=nan"),
    (lambda: asym_small_mu(1.0, math.nan), "x=nan"),
    (lambda: asym_small_mu(1.0, math.inf), "x=inf"),
    (lambda: asym_small_eps(math.nan, 1.0), "mu=nan"),
    (lambda: asym_small_eps(-math.inf, 1.0), "mu=-inf"),
    (lambda: asym_small_eps(-2.0, -math.inf), "x=-inf"),
    (lambda: erfi(math.nan), "y=nan"),
    (lambda: erfi(math.inf), "y=inf"),
], ids=["small-mu-eps-nan", "small-mu-x-nan", "small-mu-x-inf", "small-eps-mu-nan",
        "small-eps-mu-inf", "small-eps-x-inf", "erfi-nan", "erfi-inf"])
def test_non_finite_argument_is_refused_by_name(call, message):
    with pytest.raises(NonFiniteError, match=f"^{re.escape(message)} is not a finite real$"):
        call()


@pytest.mark.parametrize("y", [27.0, -27.0, 1e200])
def test_erfi_past_the_float_range_is_a_float_overflow(y):
    # erfi(27) is about 8.3e314
    with pytest.raises(FloatOverflow, match=f"^erfi overflows at y={re.escape(repr(y))}$"):
        erfi(y)


@pytest.mark.parametrize("y", [10.0, 20.0, 25.0, 26.0, 26.5, -26.0])
def test_erfi_large_argument_against_mpmath(y):
    # the sum runs past k = 800 terms from y near 25 on
    with mp.workdps(30):
        want = float(mp.erfi(y))
    assert erfi(y) == pytest.approx(want, rel=1e-13)
