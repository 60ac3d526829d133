import math
import random

import pytest

from gch.errors import KindRestrictionError, NonFiniteError, PoleError
from gch.params import GchParams, SolutionKind, validate
from gch.recurrence import coefficients

# A_n and B_n are read off coefficients(p, lam, 1.0, count), which runs
# c_{n+1} = A_n c_n + B_n c_{n-1} from c_0 = 1: c_1 = A_0; with eps = 0,
# c_{n+1} = B_n c_{n-1}; with mu = Omega = 0, c_{n+1} = A_n c_n.


def test_coefficient_a_direct_substitution():
    p = GchParams(mu=1.0, eps=2.0, nu=2.0, Omega=0.0, omega=1.0)
    # c_1 = A_0 = -2*(0+1+0)/((1)(2))
    assert coefficients(p, 0.0, 1.0, 2) == [1.0, -1.0]


def test_coefficient_a_vanishes_with_eps():
    # every A_n = 0 leaves the odd coefficients at zero, whatever omega is
    p = GchParams(mu=1.0, eps=0.0, nu=0.7, Omega=2.0, omega=5.0)
    cs = coefficients(p, 0.0, 1.0, 10)
    assert cs[1::2] == [0.0] * 5
    assert all(c != 0.0 for c in cs[0::2])
    assert coefficients(GchParams(1.0, 0.0, 0.7, 2.0, -3.0), 0.0, 1.0, 10) == cs


def test_coefficient_a_hand_expanded():
    p = GchParams(mu=0.0, eps=1.0, nu=0.25, Omega=0.0, omega=0.5)
    lam = 0.75
    expected = -1.0 * (5 + 0.5 + lam) / ((5 + 1 + lam) * (5 + 0.25 + lam))
    cs = coefficients(p, lam, 1.0, 7)
    assert cs[6] / cs[5] == pytest.approx(expected, rel=1e-15)


def test_coefficient_b_direct_substitution():
    p = GchParams(mu=3.0, eps=0.0, nu=1.0, Omega=4.0, omega=0.0)
    # c_2 = B_1 = -(4 + 3*0)/((2)(2))
    assert coefficients(p, 0.0, 1.0, 3) == [1.0, 0.0, -1.0]


def test_coefficient_b_zero_numerator():
    # B_1 = 0 at Omega = 0: y = 1 solves the equation
    p = GchParams(mu=7.0, eps=0.0, nu=3.0, Omega=0.0, omega=0.0)
    assert coefficients(p, 0.0, 1.0, 8) == [1.0] + [0.0] * 7
    # B_5 = -(-4 + 1*4)/(...) = 0 ends the even coefficients after c_4
    p = GchParams(mu=1.0, eps=0.0, nu=0.5, Omega=-4.0, omega=0.0)
    cs = coefficients(p, 0.0, 1.0, 12)
    assert cs[4] != 0.0
    assert cs[5:] == [0.0] * 7


def test_coefficient_b_zero_iff_constructed():
    rng = random.Random(7)
    for _ in range(50):
        mu = rng.uniform(-3, 3) or 1.0
        lam = rng.uniform(-1.5, 1.5)
        n = 2 * rng.randint(0, 14) + 1
        p = GchParams(mu, 0.0, 0.8, -(mu * (n - 1.0 + lam)), 0.1)
        cs = coefficients(p, lam, 1.0, n + 2)
        # c_{n+1} = B_n c_{n-1}, and c_{n-1} is nonzero
        assert cs[n - 1] != 0.0
        assert cs[n + 1] == 0.0
        # off-construction values are nonzero
        p2 = GchParams(mu, 0.0, 0.8, p.Omega + 0.1, 0.1)
        assert coefficients(p2, lam, 1.0, n + 2)[n + 1] != 0.0


def test_linearity_in_eps():
    # with mu = Omega = 0, c_n = A_0 ... A_{n-1}, so doubling eps doubles each A_n
    rng = random.Random(11)
    for _ in range(30):
        p = GchParams(0.0, rng.uniform(-2, 2), rng.uniform(0.2, 3), 0.0, rng.uniform(-2, 2))
        doubled = GchParams(p.mu, 2.0 * p.eps, p.nu, p.Omega, p.omega)
        n = rng.randint(0, 12)
        lam = rng.choice([0.0, 1.0 - p.nu])
        c = coefficients(p, lam, 1.0, n + 2)
        c2 = coefficients(doubled, lam, 1.0, n + 2)
        assert c2[n + 1] / c2[n] == pytest.approx(2.0 * (c[n + 1] / c[n]), rel=1e-14, abs=1e-300)


def test_pole_error():
    p = GchParams(1.0, 1.0, 2.0, 1.0, 1.0)
    with pytest.raises(PoleError, match=r"^A_0 denominator vanishes at lam=-1\.0, nu=2\.0$"):
        coefficients(p, -1.0, 1.0, 2)  # (n+1+lam) = 0
    with pytest.raises(PoleError, match=r"^A_0 denominator vanishes at lam=-2\.0, nu=2\.0$"):
        coefficients(p, -2.0, 1.0, 2)  # (n+nu+lam) = 0


@pytest.mark.parametrize("nu,expected", [(2.0, (0.0, -1.0)), (1.0, (0.0, 0.0)), (0.5, (0.0, 0.5))])
def test_indicial_roots(nu, expected):
    assert (SolutionKind.FIRST.lambda_of(nu), SolutionKind.SECOND.lambda_of(nu)) == expected


def test_indicial_roots_satisfy_indicial_polynomial():
    for nu in (-2.3, 0.4, 1.0, 3.7):
        for lam in (SolutionKind.FIRST.lambda_of(nu), SolutionKind.SECOND.lambda_of(nu)):
            assert abs(lam * (lam - 1.0) + nu * lam) < 1e-12


@pytest.mark.parametrize("nu", [0.0, -1.0, -2.0, -7.0])
def test_validate_first_kind_restriction(nu):
    p = GchParams(1.0, 1.0, nu, 1.0, 1.0)
    with pytest.raises(KindRestrictionError):
        validate(p, SolutionKind.FIRST)


def test_validate_second_kind():
    assert validate(GchParams(1.0, 1.0, -1.0, 1.0, 1.0), SolutionKind.SECOND) == 2.0
    with pytest.raises(KindRestrictionError):
        validate(GchParams(1.0, 1.0, 3.0, 1.0, 1.0), SolutionKind.SECOND)


def test_validate_accepts_generic():
    p = GchParams(-2.0, 1.0, 1.5, 0.3, 0.25)
    assert validate(p, SolutionKind.SECOND) == pytest.approx(-0.5)
    assert p.gamma == pytest.approx(1.25)


def test_validate_nonfinite():
    # refused when the parameter set is built, before validate runs
    with pytest.raises(NonFiniteError):
        validate(GchParams(math.nan, 1.0, 1.0, 1.0, 1.0), SolutionKind.FIRST)
    with pytest.raises(NonFiniteError):
        validate(GchParams(1.0, 1.0, 1.0, math.inf, 1.0), SolutionKind.FIRST)


FIELDS = ("mu", "eps", "nu", "Omega", "omega")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", FIELDS)
def test_gch_params_refuses_a_non_finite_field(field, bad):
    values = dict.fromkeys(FIELDS, 0.5)
    values[field] = bad
    with pytest.raises(NonFiniteError, match=f"^parameter {field}={bad!r} is not a finite real$"):
        GchParams(**values)


def test_gch_params_names_the_first_non_finite_field():
    with pytest.raises(NonFiniteError, match="^parameter eps=inf is not a finite real$"):
        GchParams(0.5, math.inf, 1.5, math.nan, -math.inf)


def test_gch_params_whose_sum_overflows_is_accepted():
    # the one-sum fast path overflows, and every field is still finite
    p = GchParams(1e308, 1e308, 1.5, 1e308, 0.25)
    assert (p.mu, p.Omega) == (1e308, 1e308)


def test_lambda_of():
    assert SolutionKind.FIRST.lambda_of(3.3) == 0.0
    assert SolutionKind.SECOND.lambda_of(3.3) == pytest.approx(-2.3)
