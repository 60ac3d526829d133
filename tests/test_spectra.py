import math

import pytest

from gch.errors import DegenerateCoupling, TailNotDecayed
from gch.recurrence import detect_termination
from gch.series import NestedTruncation
from gch.spectra import (
    Confinement,
    QQbar,
    RotatingOscillator,
    eigen_oscillator,
    energy_confinement,
    energy_qqbar,
    envelope,
    make_state,
    map_confinement,
    map_oscillator,
    map_qqbar,
    normalize,
    radial_norm,
    wavefunction,
)

NT = NestedTruncation(max_order_N=50, max_inner=120, rel_tol=1e-12)


# ------------------------------------------------------------------- maps

def test_map_oscillator_values():
    p = map_oscillator(0, 2.0)
    assert (p.mu, p.eps, p.nu, p.omega) == (-2.0, 1.0, 2.0, 1.0)
    p = map_oscillator(1, 2.0)
    assert (p.nu, p.omega) == (4.0, 2.0)
    assert map_oscillator(0, 200.0).eps == pytest.approx(0.1)


def test_map_confinement_values():
    p, alpha_f, beta_f = map_confinement(0.0, 1.0, 1.0, 0.5, 0)
    assert alpha_f == pytest.approx(1.0)
    assert beta_f == pytest.approx(0.5)
    assert p.eps == pytest.approx(-1.0)
    assert (p.nu, p.omega) == (2.0, 1.0)
    # hand-worked point: omega = 2 - sqrt(2)
    p, alpha_f, beta_f = map_confinement(1.0, 1.0, 2.0, 0.5, 1)
    assert alpha_f == pytest.approx(math.sqrt(2.0))
    assert beta_f == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)))
    assert p.omega == pytest.approx(2.0 - math.sqrt(2.0), rel=1e-14)


def test_map_confinement_degenerate():
    with pytest.raises(DegenerateCoupling):
        map_confinement(1.0, 0.0, 1.0, 0.5, 0)


def test_map_qqbar_values():
    p = map_qqbar(0.3, 1.5, 2)
    assert (p.mu, p.eps, p.nu, p.omega) == (-1.5, -0.6, 6.0, 3.0)


# ------------------------------------------------------------- eigenvalues

def test_eigen_oscillator():
    assert eigen_oscillator(0, 0, 0) == 1.0
    assert eigen_oscillator(1, 2, 3) == 10.0
    assert [eigen_oscillator(0, 0, b) for b in range(4)] == [1.0, 3.0, 5.0, 7.0]


def test_energy_confinement():
    assert energy_confinement(1.0, 0.0, 0.5, 0, 0, 0) == pytest.approx(3.0)
    assert energy_confinement(1.0, 1.0, 0.5, 0, 0, 1) == pytest.approx(6.0)
    # ladder spacing affine in beta: 4 alpha_F / (2 mass)
    e0 = energy_confinement(1.3, 0.4, 0.7, 2, 1, 3)
    e1 = energy_confinement(1.3, 0.4, 0.7, 2, 1, 4)
    assert e1 - e0 == pytest.approx(4.0 * 1.3 / (2.0 * 0.7), rel=1e-13)


def test_energy_qqbar():
    assert energy_qqbar(1.0, 0, 0, 0) == 6.0
    assert energy_qqbar(1.0, 0, 0, 1) == 14.0
    # Regge-like linearity in l with slope 4b
    assert energy_qqbar(0.9, 5, 2, 3) - energy_qqbar(0.9, 4, 2, 3) == pytest.approx(3.6)


# ----------------------------------------------------- state construction

SYSTEMS = [
    RotatingOscillator(l_m=0, omega_c=2.0),
    RotatingOscillator(l_m=2, omega_c=3.0),
    Confinement(a=1.0, b=0.2, c=0.5, mass=1.0, l=0),
    Confinement(a=0.3, b=1.0, c=2.0, mass=0.5, l=1),
    QQbar(m_q=0.3, b_slope=1.0, l=0),
    QQbar(m_q=0.0, b_slope=1.0, l=1),
]


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("i,beta", [(0, 0), (0, 3), (1, 2), (2, 1)])
def test_two_route_omega_and_termination(system, i, beta):
    state = make_state(system, i, beta)
    # route 1: the system correspondence (already in state.gch.Omega)
    # route 2: the termination condition
    route2 = -(state.gch.mu * (2.0 * beta + i))
    assert state.gch.Omega == pytest.approx(route2, rel=1e-12, abs=1e-12)
    assert detect_termination(state.gch, 0.0) == 2 * beta + i + 1


@pytest.mark.parametrize("system", SYSTEMS)
def test_eigenvalue_closed_forms(system, ):
    for i in (0, 1):
        for beta in (0, 2):
            ev = make_state(system, i, beta).eigenvalue
            if isinstance(system, RotatingOscillator):
                assert ev == pytest.approx(2 * beta + system.l_m + 1 + i, rel=1e-13)
            elif isinstance(system, Confinement):
                _, af, bf = map_confinement(system.a, system.b, system.c, system.mass, system.l)
                want = (4 * af * (beta + (i + system.l + 1.5) / 2) - bf * bf) / (2 * system.mass)
                assert ev == pytest.approx(want, rel=1e-13)
            else:
                assert ev == pytest.approx(4 * system.b_slope * (2 * beta + i + system.l + 1.5), rel=1e-13)


# ------------------------------------------------------------ wavefunction

@pytest.mark.parametrize("system", SYSTEMS)
def test_small_r_scaling(system):
    state = make_state(system, 0, 2)
    v3 = wavefunction(system, state, 1e-3, NT)
    v4 = wavefunction(system, state, 1e-4, NT)
    slope = (math.log(abs(v3)) - math.log(abs(v4))) / (math.log(1e-3) - math.log(1e-4))
    l = system.l_m if isinstance(system, RotatingOscillator) else system.l
    assert slope == pytest.approx(l + 1, rel=0.01)


def test_wavefunction_vanishes_at_origin():
    system = SYSTEMS[0]
    state = make_state(system, 0, 1)
    assert wavefunction(system, state, 0.0, NT) == 0.0


def test_ground_state_order0_is_pure_envelope():
    # beta_0 = 0 leaves no z powers at order 0, so the order-0 part of the
    # series is the constant 1 and the order-0 wavefunction is the bare
    # envelope; higher orders in eps_tilde do contribute (c_1 != 0).
    system = RotatingOscillator(l_m=0, omega_c=2.0)
    state = make_state(system, 0, 0)
    from gch.params import SolutionKind
    from gch.series import betas_from_omega, evaluate
    seq = betas_from_omega(state.gch, 0.0, 5)
    r = 1.3
    x = r / math.sqrt(2.0 * system.omega_c)
    res = evaluate(state.gch, SolutionKind.FIRST, x, seq, NT)
    assert res.orders[0] == 1.0
    assert len(res.orders) > 1 and res.orders[1] != 0.0


def test_odd_order_state_evaluates():
    # i = 1 ladders start on a half-integer index; the infinite-series
    # normalisation takes over seamlessly
    system = QQbar(m_q=0.3, b_slope=1.0, l=0)
    state = make_state(system, 1, 2)
    val = wavefunction(system, state, 1.0, NT)
    assert math.isfinite(val) and val != 0.0


def test_massless_quark_states_decay():
    # eps = 0: the series really is a polynomial and the Gaussian envelope
    # dominates; these states satisfy the admissibility bound outright
    system = QQbar(m_q=0.0, b_slope=1.0, l=0)
    for beta in range(6):
        state = make_state(system, 0, beta)
        rs = [0.05 + (10.0 - 0.05) * i / 119 for i in range(120)]
        peak = max(abs(wavefunction(system, state, r, NT)) for r in rs)
        assert abs(wavefunction(system, state, 20.0, NT)) <= 1e-8 * peak


# ------------------------------------------------------------ normalisation

def test_radial_norm_scaling():
    fn = lambda r: math.exp(-0.5 * r * r) * r
    i1 = radial_norm(fn, 10.0, 801)
    i2 = radial_norm(lambda r: 2.0 * fn(r), 10.0, 801)
    assert i2 == pytest.approx(4.0 * i1, rel=1e-13)


@pytest.mark.parametrize("r_max,n_points", [(10.0, 1), (10.0, 2), (0.0, 101)])
def test_radial_norm_and_normalize_reject_bad_grid(r_max, n_points):
    system = QQbar(m_q=0.0, b_slope=1.0, l=0)
    state = make_state(system, 0, 2)
    with pytest.raises(ValueError, match="at least 3 quadrature points"):
        radial_norm(lambda r: r, r_max, n_points)
    with pytest.raises(ValueError, match="at least 3 quadrature points"):
        normalize(system, state, r_max, n_points, NT)


def test_radial_norm_gaussian_closed_form():
    # integral_0^inf r^2 e^{-r^2} dr = sqrt(pi)/4
    fn = lambda r: math.exp(-0.5 * r * r)
    assert radial_norm(fn, 12.0, 4001) == pytest.approx(math.sqrt(math.pi) / 4.0, rel=1e-10)


def test_normalize_quadrature_convergence():
    system = QQbar(m_q=0.0, b_slope=1.0, l=0)
    state = make_state(system, 0, 2)
    n1 = normalize(system, state, 12.0, 2000, NT)
    n2 = normalize(system, state, 12.0, 4000, NT)
    assert abs(n2 - n1) <= 1e-8 * abs(n2)


def test_normalize_scaling_consistency():
    # N computed from the state times the sampled norm of N * Psi is 1
    system = QQbar(m_q=0.0, b_slope=1.0, l=1)
    state = make_state(system, 0, 1)
    n = normalize(system, state, 12.0, 3001, NT)
    total = radial_norm(lambda r: n * wavefunction(system, state, r, NT), 12.0, 3001)
    assert total == pytest.approx(1.0, rel=1e-10)


def test_normalize_tail_guard():
    system = QQbar(m_q=0.0, b_slope=1.0, l=0)
    state = make_state(system, 0, 2)
    with pytest.raises(TailNotDecayed):
        normalize(system, state, 2.5, 501, NT)


def test_envelope_forms():
    osc = RotatingOscillator(l_m=0, omega_c=2.0)
    assert envelope(osc, 1.0) == pytest.approx(1.0)  # r^(l+1) e^0 at r=1
    qq = QQbar(m_q=0.0, b_slope=1.0, l=0)
    assert envelope(qq, 2.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-14)


def test_make_state_rejects_negative_indices():
    with pytest.raises(ValueError):
        make_state(SYSTEMS[0], -1, 0)


def test_system_validation():
    with pytest.raises(ValueError):
        RotatingOscillator(l_m=-1, omega_c=1.0)
    with pytest.raises(ValueError):
        Confinement(a=0.0, b=1.0, c=-1.0, mass=1.0, l=0)
    with pytest.raises(ValueError):
        QQbar(m_q=-0.1, b_slope=1.0, l=0)
