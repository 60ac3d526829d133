import math
import random

import pytest

from gch.errors import DomainError, GammaPole
from gch.params import GchParams, SolutionKind
from gch.recurrence import Truncation, coefficients
from gch.series import NestedTruncation
from gch.spectra import Confinement, QQbar, RotatingOscillator, make_state
from gch.verify import GridSpec, cross_validate, kummer_oracle, ode_residual


# ------------------------------------------------------------- ode_residual

def test_zero_coefficients_zero_residual():
    p = GchParams(1.0, 1.0, 1.0, 1.0, 1.0)
    rep = ode_residual([0.0] * 10, 0.0, p, 0.5)
    assert rep.residual == 0.0 and rep.relative == 0.0


def test_eigenstate_residual_roundoff_only():
    state = make_state(RotatingOscillator(l_m=0, omega_c=2.0), 0, 1)
    cs = coefficients(state.gch, 0.0, 1.0, 140)
    for x in (0.3, 0.7, 1.2):
        assert ode_residual(cs, 0.0, state.gch, x).relative <= 1e-12


def test_fault_injection_detected():
    state = make_state(RotatingOscillator(l_m=0, omega_c=2.0), 0, 1)
    cs = coefficients(state.gch, 0.0, 1.0, 140)
    cs[2] += 1e-3
    assert ode_residual(cs, 0.0, state.gch, 0.7).relative > 1e-5


def test_residual_linearity():
    p = GchParams(-1.2, 0.4, 0.8, 0.9, 1.1)
    rng = random.Random(2)
    a = [rng.uniform(-1, 1) for _ in range(12)]
    b = [rng.uniform(-1, 1) for _ in range(12)]
    ab = [u + v for u, v in zip(a, b)]
    x = 0.8
    ra = ode_residual(a, 0.0, p, x).residual
    rb = ode_residual(b, 0.0, p, x).residual
    rab = ode_residual(ab, 0.0, p, x).residual
    assert rab == pytest.approx(ra + rb, rel=1e-11, abs=1e-13)


def test_residual_domain_guard():
    p = GchParams(1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        ode_residual([1.0], 0.0, p, 0.0)
    assert ode_residual([1.0, 2.0], 2.0, p, 0.0).residual == 0.0


# ------------------------------------------------------------ kummer_oracle

def test_kummer_exponential():
    # equal upper and lower parameter collapses to e^z
    assert kummer_oracle(0.7, 0.7, 1.0) == pytest.approx(math.e, rel=1e-14)


def test_kummer_constant():
    assert kummer_oracle(0.0, 1.3, 0.9) == 1.0


def test_kummer_frozen_value():
    # frozen from a deep compensated run; 20-digit reference
    # 0.64503527044915006811
    assert kummer_oracle(0.5, 1.0, -1.0) == pytest.approx(0.6450352704491501, rel=1e-14)


def test_kummer_gamma_pole():
    with pytest.raises(GammaPole):
        kummer_oracle(0.5, -2.0, 1.0)
    with pytest.raises(DomainError):
        kummer_oracle(0.5, 1.0, 100.0)


def test_kummer_contiguous_relation():
    # a M(a+1;g;z) - a M(a;g;z) - (z a / g) M(a+1;g+1;z) = 0
    rng = random.Random(8)
    for _ in range(25):
        a = rng.uniform(-3, 3)
        g = rng.uniform(0.3, 4.0)
        z = rng.uniform(-5, 5)
        lhs = a * kummer_oracle(a + 1, g, z) - a * kummer_oracle(a, g, z) \
            - z * (a / g) * kummer_oracle(a + 1, g + 1, z)
        scale = max(abs(a * kummer_oracle(a + 1, g, z)), 1.0)
        assert abs(lhs) <= 1e-10 * scale


# ------------------------------------------------------------ cross_validate

def test_cross_validate_default_grid():
    rep = cross_validate()
    assert rep.n_evaluated == 768
    assert rep.n_failed == 0
    assert rep.max_rel_err <= 1e-9


def test_cross_validate_x_zero_exact():
    grid = GridSpec(mu=(1.0,), eps=(0.5,), nu=(1.5,), Omega=(1.0,), omega=(0.25,),
                    x=(0.0,), kinds=(SolutionKind.FIRST,))
    rep = cross_validate(grid)
    assert rep.max_rel_err == 0.0


def test_cross_validate_reports_invalid_points():
    grid = GridSpec(mu=(1.0,), eps=(0.5,), nu=(-1.0,), Omega=(1.0,), omega=(0.25,),
                    x=(0.5,), kinds=(SolutionKind.FIRST, SolutionKind.SECOND))
    rep = cross_validate(grid)
    assert rep.n_failed == 1  # first kind invalid at nu = -1
    assert rep.n_evaluated == 1
    failures = [r for r in rep.records if r.error is not None]
    assert "KindRestrictionError" in failures[0].error


def test_cross_validate_monotone_in_order_cap():
    # worst-case error on the full default grid shrinks as the order cap grows
    errs = []
    for cap in (6, 10, 20):
        nt = NestedTruncation(max_order_N=cap, max_inner=72, rel_tol=1e-12)
        errs.append(cross_validate(None, nt).max_rel_err)
    assert errs[0] >= errs[1] >= errs[2]
    assert errs[2] <= 1e-9
