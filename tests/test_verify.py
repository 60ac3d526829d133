import math
import random

import pytest

import gch.series
import gch.verify
from gch.errors import DomainError
from gch.params import GchParams, SolutionKind, validate
from gch.recurrence import Truncation, coefficients, sum_series
from gch.series import NestedTruncation
from gch.spectra import RotatingOscillator, make_state
from gch.verify import GridSpec, ResidualReport, cross_validate, ode_residual


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


def test_residual_and_oracle_pinned():
    # bit for bit, so that a change meant to leave the arithmetic alone
    # shows any bit it moves (second kind, lam = 1 - nu)
    p = GchParams(-1.0, 0.4, 0.5, 0.7, 1.2)
    rep = ode_residual(coefficients(p, 0.5, 1.0, 80), 0.5, p, 0.5)
    assert rep == ResidualReport(x=0.5, residual=1.1102230246251565e-16, scale=0.758207439143075)
    assert sum_series(p, 0.5, 0.5).value == 0.5536441244885795


def test_residual_domain_guard():
    p = GchParams(1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        ode_residual([1.0], 0.0, p, 0.0)
    assert ode_residual([1.0, 2.0], 2.0, p, 0.0).residual == 0.0


# ------------------------------------------------- the sweep's oracle at eps = 0

# with eps = 0, sum_series sums Kummer's M(Omega/(2 mu); gamma; z) in
# z = -mu x^2/2, gamma = (1 + nu)/2

TIGHT = Truncation(max_terms=500, rel_tol=1e-14)


def test_kummer_exponential():
    # M(a; a; z) = e^z: Omega/(2 mu) = gamma = 0.7 at z = 1
    p = GchParams(-2.0, 0.0, 0.4, -2.8, 0.3)
    assert sum_series(p, 0.0, 1.0, TIGHT).value == pytest.approx(math.e, rel=1e-14)


def test_kummer_constant():
    # M(0; gamma; z) = 1: Omega = 0 leaves only c_0, here at gamma = 1.3, z = 0.9
    p = GchParams(-2.0, 0.0, 1.6, 0.0, 0.3)
    assert sum_series(p, 0.0, math.sqrt(0.9), TIGHT).value == 1.0


def test_kummer_frozen_value():
    # M(1/2; 1; -1); 20-digit reference 0.64503527044915006811
    p = GchParams(2.0, 0.0, 1.0, 2.0, 0.3)
    assert sum_series(p, 0.0, 1.0, TIGHT).value == pytest.approx(0.6450352704491501, rel=1e-14)


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


def test_cross_validate_records_float_overflow():
    # e^{-mu x^2/2 - eps x} of the transformed sum overflows at x = 15
    grid = GridSpec(mu=(0.01,), eps=(-100.0,), nu=(1.5,), Omega=(1.0,), omega=(0.3,),
                    x=(15.0,), kinds=(SolutionKind.FIRST,))
    rep = cross_validate(grid)
    assert (rep.n_evaluated, rep.n_failed) == (0, 1)
    assert rep.records[0].error.startswith("FloatOverflow: transform factor")


def test_cross_validate_monotone_in_order_cap():
    # worst-case error on the full default grid shrinks as the order cap grows
    errs = []
    for cap in (6, 10, 20):
        nt = NestedTruncation(max_order_N=cap, max_inner=72, rel_tol=1e-12)
        errs.append(cross_validate(None, nt).max_rel_err)
    assert errs[0] >= errs[1] >= errs[2]
    assert errs[2] <= 1e-9


def test_cross_validate_validates_once_per_kind(monkeypatch):
    # the closed form reuses the root the sweep validated
    calls = []

    def counting(p, kind):
        calls.append(kind)
        return validate(p, kind)

    monkeypatch.setattr(gch.verify, "validate", counting)
    monkeypatch.setattr(gch.series, "validate", counting)
    grid = GridSpec(mu=(-1.0,), eps=(0.5,), nu=(0.5,), Omega=(1.0,), omega=(0.25,), x=(0.5,))
    rep = cross_validate(grid)
    assert rep.n_evaluated == 2
    assert calls == [SolutionKind.FIRST, SolutionKind.SECOND]
