import math
import re

import mpmath as mp
import pytest

from gch.errors import DegenerateCoupling, FloatOverflow, NonFiniteError, TailNotDecayed
from gch.params import detect_termination
from gch.series import betas_from_omega
from gch.spectra import (
    Confinement,
    QQbar,
    RotatingOscillator,
    make_state,
    normalize,
    radial_norm,
    wavefunction_result,
)

from decomposition import orders


# ------------------------------------------------------------------- maps

def test_map_oscillator_values():
    p = RotatingOscillator(l_m=0, omega_c=2.0).params(0.0)
    assert (p.mu, p.eps, p.nu, p.Omega, p.omega) == (-2.0, 1.0, 2.0, 0.0, 1.0)
    p = RotatingOscillator(l_m=1, omega_c=2.0).params(0.0)
    assert (p.nu, p.omega) == (4.0, 2.0)
    assert RotatingOscillator(l_m=0, omega_c=200.0).params(0.0).eps == pytest.approx(0.1)


def test_map_confinement_values():
    system = Confinement(a=0.0, b=1.0, c=1.0, mass=0.5, l=0)
    p = system.params(0.0)
    assert system.alpha_f == pytest.approx(1.0)
    assert system.beta_f == pytest.approx(0.5)
    assert p.eps == pytest.approx(-1.0)
    assert (p.nu, p.omega) == (2.0, 1.0)
    # hand-worked point: omega = 2 - sqrt(2)
    system = Confinement(a=1.0, b=1.0, c=2.0, mass=0.5, l=1)
    p = system.params(0.0)
    assert system.alpha_f == pytest.approx(math.sqrt(2.0))
    assert system.beta_f == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)))
    assert p.omega == pytest.approx(2.0 - math.sqrt(2.0), rel=1e-14)


def test_map_confinement_degenerate():
    system = Confinement(a=1.0, b=0.0, c=1.0, mass=0.5, l=0)
    with pytest.raises(DegenerateCoupling):
        system.params(math.nan)
    with pytest.raises(DegenerateCoupling):
        make_state(system, 0, 0)


def test_map_qqbar_values():
    p = QQbar(m_q=0.3, b_slope=1.5, l=2).params(0.0)
    assert (p.mu, p.eps, p.nu, p.omega) == (-1.5, -0.6, 6.0, 3.0)


# ------------------------------------------------------------- eigenvalues

def test_eigen_oscillator():
    assert RotatingOscillator(l_m=0, omega_c=2.0).eigenvalue(0, 0) == 1.0
    assert RotatingOscillator(l_m=1, omega_c=2.0).eigenvalue(2, 3) == 10.0
    osc = RotatingOscillator(l_m=0, omega_c=5.0)
    assert [osc.eigenvalue(0, b) for b in range(4)] == [1.0, 3.0, 5.0, 7.0]


def test_energy_confinement():
    # alpha_F = 1, beta_F = 0 (the ladder exists at b = 0; only the map is singular)
    assert Confinement(a=1.0, b=0.0, c=1.0, mass=0.5, l=0).eigenvalue(0, 0) == pytest.approx(3.0)
    # alpha_F = 1, beta_F = 1
    assert Confinement(a=1.0, b=2.0, c=1.0, mass=0.5, l=0).eigenvalue(0, 1) == pytest.approx(6.0)
    # ladder spacing affine in beta: 4 alpha_F / (2 mass)
    system = Confinement(a=0.3, b=0.4, c=1.3, mass=0.7, l=2)
    e0, e1 = system.eigenvalue(1, 3), system.eigenvalue(1, 4)
    assert e1 - e0 == pytest.approx(4.0 * math.sqrt(2.0 * 0.7 * 1.3) / (2.0 * 0.7), rel=1e-13)


def test_energy_qqbar():
    assert QQbar(m_q=0.0, b_slope=1.0, l=0).eigenvalue(0, 0) == 6.0
    assert QQbar(m_q=0.5, b_slope=1.0, l=0).eigenvalue(0, 1) == 14.0
    # Regge-like linearity in l with slope 4b
    e5, e4 = QQbar(m_q=0.1, b_slope=0.9, l=5).eigenvalue(2, 3), QQbar(m_q=0.1, b_slope=0.9, l=4).eigenvalue(2, 3)
    assert e5 - e4 == pytest.approx(3.6)


# ----------------------------------------------------- state construction

SYSTEMS = [
    RotatingOscillator(l_m=0, omega_c=2.0),
    RotatingOscillator(l_m=2, omega_c=3.0),
    Confinement(a=1.0, b=0.2, c=0.5, mass=1.0, l=0),
    Confinement(a=0.3, b=1.0, c=2.0, mass=0.5, l=1),
    QQbar(m_q=0.3, b_slope=1.0, l=0),
    QQbar(m_q=0.0, b_slope=1.0, l=1),
]


# The Cornell limit c -> 0: beta_F^2 ~ 3000 and alpha_F ~ 0.055, so the
# inverse map below cancels to about 1e-12 there and loses the termination.
CORNELL = Confinement(a=0.5, b=2.0, c=0.001, mass=1.5, l=0)


def _omega_of_ladder(system, ev):
    """The Omega each system's ladder value corresponds to: the reference
    route to the termination condition, through the system's physics."""
    if isinstance(system, RotatingOscillator):
        return 2.0 * (ev - system.l_m - 1.0)
    if isinstance(system, Confinement):
        return (system.beta_f ** 2 + 2.0 * system.mass * ev) / system.alpha_f - 2.0 * (system.l + 1.5)
    return 0.25 * ev - system.b_slope * (system.l + 1.5)


TWO_ROUTE = ([(system, i, beta, f"{i}-{beta}-system{k}")
              for i, beta in [(0, 0), (0, 3), (1, 2), (2, 1)] for k, system in enumerate(SYSTEMS)]
             + [(CORNELL, i, beta, f"cornell-{i}-{beta}") for i in (0, 1) for beta in range(11)])


@pytest.mark.parametrize("system,i,beta", [c[:3] for c in TWO_ROUTE], ids=[c[3] for c in TWO_ROUTE])
def test_two_route_omega_and_termination(system, i, beta):
    state = make_state(system, i, beta)
    # route 1, make_state: the termination condition itself
    assert state.gch.Omega == -state.gch.mu * (2 * beta + i)
    assert detect_termination(state.gch, 0.0) == 2 * beta + i + 1
    if i % 2 == 0:
        assert betas_from_omega(state.gch, 0.0, 1) == (beta + i // 2,)
    # route 2: the ladder mapped back to Omega, to rounding
    if system is not CORNELL:
        assert _omega_of_ladder(system, state.eigenvalue) == pytest.approx(state.gch.Omega, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("system", SYSTEMS)
def test_eigenvalue_closed_forms(system, ):
    for i in (0, 1):
        for beta in (0, 2):
            ev = make_state(system, i, beta).eigenvalue
            if isinstance(system, RotatingOscillator):
                assert ev == pytest.approx(2 * beta + system.l_m + 1 + i, rel=1e-13)
            elif isinstance(system, Confinement):
                af = math.sqrt(2 * system.mass * system.c)
                bf = system.b * math.sqrt(system.mass / (2 * system.c))
                want = (4 * af * (beta + (i + system.l + 1.5) / 2) - bf * bf) / (2 * system.mass)
                assert ev == pytest.approx(want, rel=1e-13)
            else:
                assert ev == pytest.approx(4 * system.b_slope * (2 * beta + i + system.l + 1.5), rel=1e-13)


# ------------------------------------------------------------ wavefunction

@pytest.mark.parametrize("system", SYSTEMS)
def test_small_r_scaling(system):
    state = make_state(system, 0, 2)
    v3 = wavefunction_result(system, state, 1e-3)[0]
    v4 = wavefunction_result(system, state, 1e-4)[0]
    slope = (math.log(abs(v3)) - math.log(abs(v4))) / (math.log(1e-3) - math.log(1e-4))
    l = system.l_m if isinstance(system, RotatingOscillator) else system.l
    assert slope == pytest.approx(l + 1, rel=0.01)


def test_wavefunction_vanishes_at_origin():
    system = SYSTEMS[0]
    state = make_state(system, 0, 1)
    assert wavefunction_result(system, state, 0.0)[0] == 0.0


def test_ground_state_order0_is_pure_envelope():
    # beta_0 = 0 leaves no z powers at order 0, so the order-0 part of the
    # series is the constant 1 and the order-0 wavefunction is the bare
    # envelope; higher orders in eps_tilde do contribute (c_1 != 0).
    system = RotatingOscillator(l_m=0, omega_c=2.0)
    state = make_state(system, 0, 0)
    from gch.params import SolutionKind
    from gch.series import evaluate
    seq = betas_from_omega(state.gch, 0.0, 5)
    r = 1.3
    x = r / math.sqrt(2.0 * system.omega_c)
    res = evaluate(state.gch, SolutionKind.FIRST, x, seq)
    got = orders(state.gch, SolutionKind.FIRST, x)
    assert got[0] == 1.0
    assert res.orders_used == len(got) > 1 and got[1] != 0.0


def test_odd_order_state_evaluates():
    # i = 1 ladders start on a half-integer index; the infinite-series
    # normalisation takes over seamlessly
    system = QQbar(m_q=0.3, b_slope=1.0, l=0)
    state = make_state(system, 1, 2)
    val = wavefunction_result(system, state, 1.0)[0]
    assert math.isfinite(val) and val != 0.0


def test_massless_quark_states_decay():
    # eps = 0: the series really is a polynomial and the Gaussian envelope
    # dominates; these states satisfy the admissibility bound outright
    system = QQbar(m_q=0.0, b_slope=1.0, l=0)
    for beta in range(6):
        state = make_state(system, 0, beta)
        rs = [0.05 + (10.0 - 0.05) * i / 119 for i in range(120)]
        peak = max(abs(wavefunction_result(system, state, r)[0]) for r in rs)
        assert abs(wavefunction_result(system, state, 20.0)[0]) <= 1e-8 * peak


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
        normalize(system, state, r_max, n_points)


def test_radial_norm_gaussian_closed_form():
    # integral_0^inf r^2 e^{-r^2} dr = sqrt(pi)/4
    fn = lambda r: math.exp(-0.5 * r * r)
    assert radial_norm(fn, 12.0, 4001) == pytest.approx(math.sqrt(math.pi) / 4.0, rel=1e-10)


def test_normalize_quadrature_convergence():
    system = QQbar(m_q=0.0, b_slope=1.0, l=0)
    state = make_state(system, 0, 2)
    n1 = normalize(system, state, 12.0, 2000)
    n2 = normalize(system, state, 12.0, 4000)
    assert abs(n2 - n1) <= 1e-8 * abs(n2)


def test_normalize_scaling_consistency():
    # N computed from the state times the sampled norm of N * Psi is 1
    system = QQbar(m_q=0.0, b_slope=1.0, l=1)
    state = make_state(system, 0, 1)
    n = normalize(system, state, 12.0, 3001)
    total = radial_norm(lambda r: n * wavefunction_result(system, state, r)[0], 12.0, 3001)
    assert total == pytest.approx(1.0, rel=1e-10)


@pytest.mark.parametrize("l", [160, 200])
def test_normalize_far_from_one(l):
    # y = 1 exactly, so u = r^(l+1) e^(-b r^2/4) peaks near 1e-156 (l = 160)
    # and 1e-184 (l = 200): its squares, unscaled, lose digits or underflow
    # to a zero sum.  ref: the same Simpson sum in 50-digit arithmetic
    system = QQbar(m_q=0.0, b_slope=1e4, l=l)
    got = normalize(system, make_state(system, 0, 0), 1.0, 401)
    with mp.workdps(50):
        rs = [mp.mpf(j) / 400 for j in range(401)]
        terms = [(r ** (l + 1) * mp.exp(-2500 * r * r)) ** 2 * r * r * (1 if j in (0, 400) else 4 if j % 2 else 2)
                 for j, r in enumerate(rs)]
        ref = 1 / mp.sqrt(mp.fsum(terms) / 1200)
    assert got == pytest.approx(float(ref), rel=1e-13)


def test_normalize_tail_guard():
    system = QQbar(m_q=0.0, b_slope=1.0, l=0)
    state = make_state(system, 0, 2)
    with pytest.raises(TailNotDecayed):
        normalize(system, state, 2.5, 501)


OSC_L10 = RotatingOscillator(l_m=10, omega_c=2.0)


@pytest.mark.parametrize("call,r", [
    (lambda state: wavefunction_result(OSC_L10, state, 1e200), "1e+200"),
    # the grid's second point, r_max/4, is the first whose r**11 overflows
    (lambda state: normalize(OSC_L10, state, 1e200, 5), "2.5e+199"),
], ids=["wavefunction_result", "normalize"])
def test_envelope_past_the_float_range_is_a_float_overflow(call, r):
    # r**(l+1) past the float range is refused as a GchError naming r
    with pytest.raises(FloatOverflow, match=f"^radial envelope overflows at r={re.escape(r)}$"):
        call(make_state(OSC_L10, 0, 1))


def test_envelope_forms():
    osc = RotatingOscillator(l_m=0, omega_c=2.0)
    assert osc.envelope(1.0) == pytest.approx(1.0)  # r^(l+1) e^0 at r=1
    qq = QQbar(m_q=0.0, b_slope=1.0, l=0)
    assert qq.envelope(2.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-14)
    # alpha_F = 1, beta_F = 1/2: r e^{-r^2/2 - r/2}
    conf = Confinement(a=0.0, b=1.0, c=1.0, mass=0.5, l=0)
    assert conf.envelope(2.0) == pytest.approx(2.0 * math.exp(-3.0), rel=1e-14)


def test_series_argument_forms():
    assert RotatingOscillator(l_m=0, omega_c=2.0).x_of(3.0) == pytest.approx(1.5)
    assert Confinement(a=0.0, b=1.0, c=4.0, mass=2.0, l=0).x_of(3.0) == pytest.approx(6.0)  # alpha_F = 4
    assert QQbar(m_q=0.3, b_slope=1.0, l=0).x_of(3.0) == 3.0


# reference values of the former module-level maps and ladders, which the
# system classes reproduce bit for bit
PINNED = [
    (RotatingOscillator(l_m=0, omega_c=2.0), 0, 1,
     "EigenState(i=0, beta_i=1, eigenvalue=3.0, gch=GchParams(mu=-2.0, eps=1.0, nu=2.0, Omega=4.0, omega=1.0)"
     ", system=RotatingOscillator(l_m=0, omega_c=2.0))",
     (0.8930171678523121, True), (0.3030268919693902, True)),
    (RotatingOscillator(l_m=0, omega_c=2.0), 1, 2,
     "EigenState(i=1, beta_i=2, eigenvalue=6.0, gch=GchParams(mu=-2.0, eps=1.0, nu=2.0, Omega=10.0, omega=1.0)"
     ", system=RotatingOscillator(l_m=0, omega_c=2.0))",
     (1.3741975786592566, True), (1.34629421951937, True)),
    (Confinement(a=1.0, b=0.2, c=0.5, mass=1.0, l=0), 0, 0,
     "EigenState(i=0, beta_i=0, eigenvalue=1.48, gch=GchParams(mu=-2.0, eps=-0.4, nu=2.0, Omega=0.0, omega=-4.0)"
     ", system=Confinement(a=1.0, b=0.2, c=0.5, mass=1.0, l=0))",
     (-0.14015662827659814, True), (0.18620414997159337, True)),
    (Confinement(a=1.0, b=0.2, c=0.5, mass=1.0, l=0), 1, 1,
     "EigenState(i=1, beta_i=1, eigenvalue=4.48, gch=GchParams(mu=-2.0, eps=-0.4, nu=2.0, Omega=6.0, omega=-4.0)"
     ", system=Confinement(a=1.0, b=0.2, c=0.5, mass=1.0, l=0))",
     (-0.4518135533551858, True), (0.39160163078546945, True)),
    (QQbar(m_q=0.3, b_slope=1.0, l=0), 0, 2,
     "EigenState(i=0, beta_i=2, eigenvalue=22.0, gch=GchParams(mu=-1.0, eps=-0.6, nu=2.0, Omega=4.0, omega=1.0)"
     ", system=QQbar(m_q=0.3, b_slope=1.0, l=0))",
     (-0.3382382792208077, True), (0.8096993713015191, True)),
    (QQbar(m_q=0.3, b_slope=1.0, l=0), 1, 0,
     "EigenState(i=1, beta_i=0, eigenvalue=10.0, gch=GchParams(mu=-1.0, eps=-0.6, nu=2.0, Omega=1.0, omega=1.0)"
     ", system=QQbar(m_q=0.3, b_slope=1.0, l=0))",
     (0.6139584899760449, True), (0.25150316896393027, True)),
]


@pytest.mark.parametrize("system,i,beta,state_repr,at_1_5,at_0_25", PINNED,
                         ids=[f"{type(c[0]).__name__}-{c[1]}-{c[2]}" for c in PINNED])
def test_states_pinned(system, i, beta, state_repr, at_1_5, at_0_25):
    state = make_state(system, i, beta)
    assert repr(state) == state_repr
    assert wavefunction_result(system, state, 1.5) == at_1_5
    assert wavefunction_result(system, state, 0.25) == at_0_25


def test_make_state_rejects_negative_indices():
    with pytest.raises(ValueError):
        make_state(SYSTEMS[0], -1, 0)


@pytest.mark.parametrize("i,beta", [(0.5, 0), (0, 1.5), (1.0, 0), (0, 2.0), ("1", 0), (0, None)])
def test_make_state_rejects_non_integer_indices(i, beta):
    # Omega = 1.0 at (0.5, 0) ends no chain: not a bound state
    with pytest.raises(ValueError, match="must be an integer"):
        make_state(RotatingOscillator(l_m=0, omega_c=2.0), i, beta)


@pytest.mark.parametrize("system,i,beta,message", [
    # E^2 = 4 b (2 beta + 3/2) overflows
    (QQbar(0.1, 1e308, 0), 0, 2, "state (i=0, beta_i=2) overflows: eigenvalue=inf"),
    # alpha_F = sqrt(2 mass c) overflows: refused before the map is read,
    # whose omega = -mass a/beta_F is -inf (NonFiniteError)
    (Confinement(1.0, 1e-300, 1e300, 1e300, 0), 0, 0, "state (i=0, beta_i=0) overflows: eigenvalue=inf"),
    # the ladder 2 beta + 1 is finite, Omega = 2 (2 beta) is not
    (RotatingOscillator(0, 1.0), 0, 2 ** 1022, f"state (i=0, beta_i={2 ** 1022}) overflows: Omega=inf"),
    # 2 beta cannot be a float
    (RotatingOscillator(0, 1.0), 0, 10 ** 400,
     f"state (i=0, beta_i={10 ** 400}) overflows: int too large to convert to float"),
], ids=["qqbar-eigenvalue", "confinement-eigenvalue", "oscillator-omega", "index-past-the-float-range"])
def test_make_state_refuses_a_ladder_value_past_the_float_range(system, i, beta, message):
    with pytest.raises(FloatOverflow, match=f"^{re.escape(message)}$"):
        make_state(system, i, beta)


def test_make_state_refuses_an_overflowed_eps():
    # eps = sqrt(2/omega_c) is inf, though the ladder itself is finite
    with pytest.raises(NonFiniteError, match="^parameter eps=inf is not a finite real$"):
        make_state(RotatingOscillator(l_m=0, omega_c=1e-320), 0, 1)


OSC_2 = RotatingOscillator(l_m=0, omega_c=2.0)


@pytest.mark.parametrize("call", [
    lambda state: wavefunction_result(OSC_2, state, 1.0),
    lambda state: normalize(OSC_2, state, 12.0, 401),
], ids=["wavefunction_result", "normalize"])
def test_state_of_another_system_is_refused(call):
    # the oscillator's envelope and x(r) on this state's coefficients give
    # 0.13976 and 3.1406, with no error
    state = make_state(QQbar(0.0, 1.0, 0), 0, 2)
    with pytest.raises(ValueError, match=r"^the state belongs to QQbar\(m_q=0\.0, b_slope=1\.0, l=0\), "
                                         r"not to RotatingOscillator\(l_m=0, omega_c=2\.0\)$"):
        call(state)
    assert normalize(state.system, state, 12.0, 401) == pytest.approx(0.09834, rel=1e-4)
    assert wavefunction_result(state.system, state, 1.0)[0] == pytest.approx(1.1682, rel=1e-4)


def test_state_of_an_equal_system_is_accepted():
    # an equal system built apart passes the equality test behind identity
    state = make_state(RotatingOscillator(l_m=0, omega_c=2.0), 0, 1)
    assert wavefunction_result(OSC_2, state, 1.5)[0] == wavefunction_result(state.system, state, 1.5)[0]


def test_make_state_takes_any_index_type():
    class Two:
        def __index__(self):
            return 2

    state = make_state(RotatingOscillator(l_m=0, omega_c=2.0), 0, Two())
    assert (state.i, state.beta_i, state.eigenvalue) == (0, 2, 5.0)
    assert type(state.beta_i) is int


def test_system_validation():
    with pytest.raises(ValueError):
        RotatingOscillator(l_m=-1, omega_c=1.0)
    with pytest.raises(ValueError):
        Confinement(a=0.0, b=1.0, c=-1.0, mass=1.0, l=0)
    with pytest.raises(ValueError):
        QQbar(m_q=-0.1, b_slope=1.0, l=0)


@pytest.mark.parametrize("r_max", [math.nan, math.inf])
def test_radial_norm_and_normalize_refuse_non_finite_r_max(r_max):
    system = QQbar(m_q=0.0, b_slope=1.0, l=0)
    state = make_state(system, 0, 2)
    message = f"^r_max={r_max!r} is not a finite real$"
    with pytest.raises(NonFiniteError, match=message):
        radial_norm(lambda r: r, r_max, 7)
    with pytest.raises(NonFiniteError, match=message):
        normalize(system, state, r_max, 7)


@pytest.mark.parametrize("r,error,message", [
    (math.nan, NonFiniteError, "^r=nan is not a finite real$"),
    (math.inf, NonFiniteError, "^r=inf is not a finite real$"),
    (-math.inf, NonFiniteError, "^r=-inf is not a finite real$"),
    (-1.0, ValueError, "^r must be nonnegative$"),
], ids=["nan", "inf", "-inf", "negative"])
def test_wavefunction_refuses_non_finite_r_by_name(r, error, message):
    system = QQbar(m_q=0.0, b_slope=1.0, l=0)
    state = make_state(system, 0, 2)
    with pytest.raises(error, match=message):
        wavefunction_result(system, state, r)
