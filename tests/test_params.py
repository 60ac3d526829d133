import math
import random

import pytest

from gch.errors import KindRestrictionError, NonFiniteError, PoleError
from gch.params import (
    GchParams,
    SolutionKind,
    coefficient_A,
    coefficient_B,
    validate,
)


def test_coefficient_a_direct_substitution():
    p = GchParams(mu=1.0, eps=2.0, nu=2.0, Omega=0.0, omega=1.0)
    # -2*(0+1+0)/((1)(2))
    assert coefficient_A(0, 0.0, p) == -1.0


def test_coefficient_a_vanishes_with_eps():
    p = GchParams(mu=1.0, eps=0.0, nu=0.7, Omega=2.0, omega=5.0)
    assert coefficient_A(3, 0.0, p) == 0.0


def test_coefficient_a_hand_expanded():
    p = GchParams(mu=0.3, eps=1.0, nu=0.25, Omega=0.9, omega=0.5)
    expected = -1.0 * (5 + 0.5 + (-1.0)) / ((5 + 1 - 1.0) * (5 + 0.25 - 1.0))
    assert coefficient_A(5, -1.0, p) == pytest.approx(expected, rel=1e-15)


def test_coefficient_b_direct_substitution():
    p = GchParams(mu=3.0, eps=0.0, nu=1.0, Omega=4.0, omega=0.0)
    # -(4 + 3*0)/((2)(2))
    assert coefficient_B(1, 0.0, p) == -1.0


def test_coefficient_b_zero_numerator():
    p = GchParams(mu=7.0, eps=0.0, nu=3.0, Omega=0.0, omega=0.0)
    assert coefficient_B(1, 0.0, p) == 0.0
    p = GchParams(mu=1.0, eps=0.0, nu=0.5, Omega=-3.0, omega=0.0)
    assert coefficient_B(4, 0.0, p) == 0.0


def test_coefficient_b_zero_iff_constructed():
    rng = random.Random(7)
    for _ in range(50):
        mu = rng.uniform(-3, 3) or 1.0
        lam = rng.uniform(-1.5, 1.5)
        n = rng.randint(1, 30)
        p = GchParams(mu, 0.3, 0.8, -(mu * (n - 1.0 + lam)), 0.1)
        assert coefficient_B(n, lam, p) == 0.0
        # off-construction values are nonzero
        p2 = GchParams(mu, 0.3, 0.8, p.Omega + 0.1, 0.1)
        assert coefficient_B(n, lam, p2) != 0.0


def test_linearity_in_eps():
    rng = random.Random(11)
    for _ in range(30):
        p = GchParams(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.2, 3),
                      rng.uniform(-2, 2), rng.uniform(-2, 2))
        doubled = GchParams(p.mu, 2.0 * p.eps, p.nu, p.Omega, p.omega)
        n = rng.randint(0, 12)
        lam = rng.choice([0.0, 1.0 - p.nu])
        assert coefficient_A(n, lam, doubled) == pytest.approx(
            2.0 * coefficient_A(n, lam, p), rel=1e-14, abs=1e-300)


def test_pole_error():
    p = GchParams(1.0, 1.0, 2.0, 1.0, 1.0)
    with pytest.raises(PoleError):
        coefficient_A(0, -1.0, p)  # (n+1+lam) = 0
    with pytest.raises(PoleError):
        coefficient_B(0, -2.0, p)  # (n+nu+lam) = 0


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
    with pytest.raises(NonFiniteError):
        validate(GchParams(math.nan, 1.0, 1.0, 1.0, 1.0), SolutionKind.FIRST)
    with pytest.raises(NonFiniteError):
        validate(GchParams(1.0, 1.0, 1.0, math.inf, 1.0), SolutionKind.FIRST)


def test_lambda_of():
    assert SolutionKind.FIRST.lambda_of(3.3) == 0.0
    assert SolutionKind.SECOND.lambda_of(3.3) == pytest.approx(-2.3)
